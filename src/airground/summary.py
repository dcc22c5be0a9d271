"""Run metrics: the trajectory writer, the barrier evaluation and the fold
that turns a run's data into its MetricsSummary.

run() feeds the fold from the loop: each flushed trajectory block's barrier
minima, statuses and times, then the watcher records and link counters.
summarize_dir, behind `airground summarize`, is the independent re-check:
it parses the logs back, recomputes every barrier value from the logged
states (never trusted from the controller), requires each line's min_h to
equal the recomputed value or lie within 1e-9 of it -- else the log was
tampered with or the physics diverged; a NaN never agrees -- and feeds the
same fold.  Both paths see the rounded states the producer committed to
disk.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .barriers import (eval_landing, offset_points, pairwise_sq_distances,
                       wall_heights)
from .config import ScenarioConfig, load_config
from .errors import InvalidInputError
from .logfmt import fmt9, fmt9_round_trip

TRAJECTORY_FILE = "trajectory.csv"
WATCHER_FILE = "watcher.csv"
TRACE_FILE = "trace.log"
_TRACE_EVENTS = ("send", "drop", "deliver")
_STATUSES = frozenset(("optimal", "relaxed", "hold", "landed"))
METRICS_FILE = "metrics.json"
CONFIG_FILE = "resolved_config.yaml"

TRAJECTORY_HEADER = ("time_s,agent_id,kind,x,y,z,theta,"
                     "ux,uy,uz,qp_status,min_h")
WATCHER_HEADER = ("time_s,agent_id,phase,active_count,"
                  "workspace,uav_other_ugv,landing,uav_uav,ugv_ugv,proximal")


class LogIntegrityError(Exception):
    """A log line disagrees with physics recomputed from its own states."""


# Agent samples per evaluated block.  Bounds the memory a block holds
# (pairwise terms are (T, n, n) arrays) while giving small fleets enough
# ticks per block to amortize the per-call cost of numpy.
BLOCK_SAMPLES = 512


@dataclass
class MetricsSummary:
    duration: float = 0.0
    ticks: int = 0
    family_min_h: dict = field(default_factory=dict)
    min_pair_distance: dict = field(default_factory=dict)
    status_counts: dict = field(default_factory=dict)
    landing_outcomes: dict = field(default_factory=dict)   # pair -> time | None
    row_count_histogram: dict = field(default_factory=dict)
    active_links: int | None = None
    agent_to_agent_messages: int | None = None
    messages_sent: int | None = None
    messages_dropped: int | None = None

    def to_json(self) -> str:
        data = {
            "duration": self.duration,
            "ticks": self.ticks,
            "family_min_h": self.family_min_h,
            "min_pair_distance": self.min_pair_distance,
            "status_counts": self.status_counts,
            "landing_outcomes": {str(k): v for k, v in self.landing_outcomes.items()},
            "row_count_histogram": {
                agent: {str(k): n for k, n in hist.items()}
                for agent, hist in self.row_count_histogram.items()
            },
            "active_links": self.active_links,
            "agent_to_agent_messages": self.agent_to_agent_messages,
            "messages_sent": self.messages_sent,
            "messages_dropped": self.messages_dropped,
        }
        return json.dumps(data, indent=2, sort_keys=True)


class MetricsFold:
    """Folds one run's data into its MetricsSummary.  run() feeds it from
    the loop and summarize_dir from the logs, so the two summaries agree
    whenever their inputs do."""

    def __init__(self, n_pairs: int):
        self.summary = MetricsSummary()
        self._n_pairs = n_pairs
        self._landed: dict[int, float] = {}   # pair -> first landed time

    def barriers(self, family: dict[str, float], dist: dict[str, float]) -> None:
        """One block's per-family minimum h and per-kind minimum distance."""
        for low, block in ((self.summary.family_min_h, family),
                           (self.summary.min_pair_distance, dist)):
            for key, value in block.items():
                if value < low.get(key, math.inf):
                    low[key] = value

    def ticks(self, times, ids, kinds, statuses) -> None:
        """Consecutive ticks with one status per agent of ids (and kinds):
        tick k is logged at time string times[k] with the statuses
        statuses[k*m:(k+1)*m], m = len(ids)."""
        s, m = self.summary, len(ids)
        s.ticks += len(times)
        s.duration = max(s.duration, *map(float, times))
        for status in dict.fromkeys(statuses):  # distinct, first seen first
            s.status_counts[status] = s.status_counts.get(status, 0) + statuses.count(status)
        first: dict[int, int] = {}   # pair -> its first landed tick here
        if "landed" in statuses:
            for c in range(m):
                column = statuses[c::m] if kinds[c] == "uav" else ()
                if "landed" in column:
                    pair, k = int(ids[c][3:]), column.index("landed")
                    first[pair] = min(k, first.get(pair, k))
        for pair, k in first.items():
            self._landed.setdefault(pair, float(times[k]))

    def rows(self, counts) -> None:
        """Watcher records as (agent id, active row count) pairs."""
        for (agent, count), k in Counter(counts).items():
            hist = self.summary.row_count_histogram.setdefault(agent, {})
            hist[count] = hist.get(count, 0) + k

    def links(self, active: int, a2a: int, sent: int, dropped: int) -> None:
        s = self.summary
        s.active_links, s.agent_to_agent_messages = active, a2a
        s.messages_sent, s.messages_dropped = sent, dropped

    def result(self) -> MetricsSummary:
        self.summary.landing_outcomes = {
            i: self._landed.get(i) for i in range(self._n_pairs)}
        return self.summary


class Roster:
    """The agents of one tick, in log order, and the index arrays that
    tick_barriers needs for them.

    A UAV's own UGV is the roster entry whose id shares its pair suffix,
    whatever that entry's kind."""

    def __init__(self, ids: tuple[str, ...], kinds: tuple[str, ...]):
        self.ids = ids
        self.kinds = kinds
        self.column = {aid: c for c, aid in enumerate(ids)}
        uav = [c for c, k in enumerate(kinds) if k == "uav"]
        ugv = [c for c, k in enumerate(kinds) if k == "ugv"]
        own = [self.column.get("ugv" + ids[c][3:], -1) for c in uav]
        self.uav = np.array(uav, dtype=np.intp)
        self.ugv = np.array(ugv, dtype=np.intp)
        # Landing funnel: positions within self.uav that have an own UGV,
        # and that UGV's column.
        self.funnel_pos = np.array([k for k, o in enumerate(own) if o >= 0],
                                   dtype=np.intp)
        self.funnel_own = np.array([o for o in own if o >= 0], dtype=np.intp)
        # Pairs without a separation term, as positions within self.uav and
        # self.ugv: each agent and itself, each UAV and its own UGV.
        self.uav_self, self.ugv_self = np.arange(len(uav)), np.arange(len(ugv))
        self.own_uav, self.own_ugv = np.array([(k, ugv.index(o)) for k, o in enumerate(own)
                                               if o in ugv], dtype=np.intp).reshape(-1, 2).T


class TrajectoryWriter:
    """The trajectory.csv writer, for control ticks of one roster.

    A tick holds every roster agent's raw logged (x, y, z, theta), applied
    input (ux, uy, uz) and status.  Ticks are formatted a block of at most
    BLOCK_SAMPLES agent samples at a time: fmt9_round_trip formats each
    distinct number of the block once at 9 significant digits and parses
    the rounded states back -- the values a reader of the file sees -- and
    the min_h column is evaluated from them and formatted by fmt9."""

    def __init__(self, roster: Roster):
        m = len(roster.ids)
        self.roster = roster
        self._numbers = np.empty((max(1, BLOCK_SAMPLES // m), m, 7))
        self._times: list[str] = []
        self._statuses: list[str] = []      # flat, tick by tick
        self._prefixes = [f"{aid},{kind}" for aid, kind in zip(roster.ids, roster.kinds)]
        self._chunks = [TRAJECTORY_HEADER + "\n"]

    def add_tick(self, time_s: str, states, u, statuses) -> None:
        """One tick: (M, 4) states, (M, 3) inputs and M statuses."""
        row = self._numbers[len(self._times)]
        row[:, :4] = states
        row[:, 4:] = u
        self._times.append(time_s)
        self._statuses.extend(statuses)

    def full(self) -> bool:
        return len(self._times) == self._numbers.shape[0]

    def flush(self, min_h) -> None:
        """Format the buffered ticks.  min_h maps the block's T time strings,
        its T*M statuses (tick by tick) and its rounded (T, M) x, y, z,
        theta and landed arrays to its (T, M) per-agent min h."""
        ticks, m = len(self._times), len(self.roster.ids)
        if not ticks:
            return
        text, rounded = fmt9_round_trip(self._numbers[:ticks])
        statuses = self._statuses
        landed = np.fromiter(map("landed".__eq__, statuses), bool, ticks * m)
        h = map(fmt9, min_h(self._times, statuses, *rounded.transpose(2, 0, 1)[:4],
                            landed.reshape(ticks, m)).ravel().tolist())
        times = [t for t in self._times for _ in range(m)]
        self._chunks.append("\n".join(map(",".join, zip(
            times, self._prefixes * ticks, *text.reshape(-1, 7).T.tolist(),
            statuses, h))) + "\n")
        self._times, self._statuses = [], []

    def write(self, path: str) -> None:
        """Write the header and every flushed block to path."""
        with open(path, "w") as f:
            f.writelines(self._chunks)


def tick_barriers(cfg: ScenarioConfig, roster: Roster, x: np.ndarray,
                  y: np.ndarray, z: np.ndarray, theta: np.ndarray,
                  landed: np.ndarray
                  ) -> tuple[np.ndarray, dict[str, float], dict[str, float]]:
    """Evaluate every barrier family over a block of ticks of one roster.

    x, y, z, theta and landed are (T, M) arrays, one row per tick and one
    column per roster agent.  Returns the (T, M) per-agent minimum h (inf
    for an agent with no barrier term), and the per-family minimum h and
    per-kind minimum distance over the whole block.  Landed UAVs retire
    from the aerial separation families but keep their wall and funnel
    terms, mirroring the coordinator's row retirement.  NaN terms are
    ignored, like a failed comparison in a scalar minimum.  Walls, funnel
    and UGV offset points come from the barriers module, whose functions
    the watcher's rows use too.
    """
    s = cfg.safety
    per_agent = np.full(x.shape, math.inf)
    family: dict[str, float] = {}
    dist: dict[str, float] = {}

    def record(fam: str, h: np.ndarray) -> np.ndarray:
        low = float(np.fmin.reduce(h, axis=None))
        if low < family.get(fam, math.inf):
            family[fam] = low
        return h

    def walls(p: np.ndarray, is_uav: bool) -> np.ndarray:
        return record("workspace",
                      np.fmin.reduce(wall_heights(p, s.bounds, is_uav), axis=-1))

    def separation(fam: str, kind: str, d2: np.ndarray, radius: float
                   ) -> np.ndarray:
        # d2 is (T, m, k), inf where a pair has no term.  Rounding is
        # monotone, so the minimum commutes exactly with sqrt and with
        # "- radius**2": each row's smallest h, and the block's smallest
        # distance, come from the row minima.
        rows = np.fmin.reduce(d2, axis=2)
        low = math.sqrt(float(np.fmin.reduce(rows, axis=None)))
        if low < dist.get(kind, math.inf):
            dist[kind] = low
        return record(fam, rows - radius ** 2)

    def block(columns: np.ndarray, *coords: np.ndarray) -> np.ndarray:
        # (T, k, len(coords)) in C order, which pairwise_sq_distances reads
        # fastest; np.stack of indexed columns may not be.
        out = np.empty((x.shape[0], columns.size, len(coords)))
        for i, c in enumerate(coords):
            out[..., i] = c[:, columns]
        return out

    deck = np.full(x.shape, cfg.platform_height)
    u, g = roster.uav, roster.ugv
    if u.size:
        uavs = block(u, x, y, z)
        terms = [walls(uavs, True)]
        if roster.funnel_pos.size:
            fu = roster.funnel_pos
            funnel = np.full(uavs.shape[:2], math.inf)
            funnel[:, fu] = record("landing", eval_landing(
                uavs[:, fu], block(roster.funnel_own, x, y, deck), s.funnel_sharpness,
                s.funnel_height, s.hover_clearance)[0])
            terms.append(funnel)
        tick, pos = landed[:, u].nonzero()   # the landed UAVs' ticks and positions
        if u.size > 1:
            d2 = pairwise_sq_distances(uavs, uavs)
            d2[:, roster.uav_self, roster.uav_self] = math.inf
            d2[tick, pos] = d2[tick, :, pos] = math.inf
            terms.append(separation("uav_uav", "uav_uav", d2, s.uav_separation))
        if g.size:
            d2 = pairwise_sq_distances(uavs, block(g, x, y, deck))
            d2[:, roster.own_uav, roster.own_ugv] = math.inf
            d2[tick, pos] = math.inf
            terms.append(separation("uav_other_ugv", "uav_ugv", d2,
                                    s.uav_ugv_separation))
        per_agent[:, u] = np.fmin.reduce(terms)
    if g.size:
        offsets = offset_points(block(g, x, y, theta), cfg.ugv_offset)
        terms = [walls(offsets, False)]
        if g.size > 1:
            d2 = pairwise_sq_distances(offsets, offsets)
            d2[:, roster.ugv_self, roster.ugv_self] = math.inf
            terms.append(separation("ugv_ugv", "ugv_ugv", d2, s.ugv_separation))
        per_agent[:, g] = np.fmin.reduce(terms)

    return per_agent, family, dist


def _csv_rows(path: str, header: str, width: int):
    """Yields (line_number, fields) per data line of a log with a fixed
    header and field count; blank and whitespace-only lines are skipped."""
    with open(path, "r") as f:
        first = f.readline().rstrip("\n")
        if first != header:
            raise InvalidInputError(f"{path}:1: unexpected header {first!r}")
        for lineno, line in enumerate(f, start=2):
            if line.isspace():
                continue
            parts = line.rstrip("\n").split(",")
            if len(parts) != width:
                raise InvalidInputError(f"{path}:{lineno}: expected {width} fields, "
                                        f"got {len(parts)}")
            yield lineno, parts


def _parse_trajectory(path: str):
    """Yields (line_number, time_str, agent_id, kind, x, y, z, theta,
    status, logged min_h) per record; the kind must be uav or ugv, and the
    time and the state finite."""
    isfinite = math.isfinite
    for lineno, parts in _csv_rows(path, TRAJECTORY_HEADER, 12):
        try:
            t = float(parts[0])
            x, y, z, theta = float(parts[3]), float(parts[4]), float(parts[5]), float(parts[6])
            logged = float(parts[11])
        except ValueError as exc:
            raise InvalidInputError(f"{path}:{lineno}: {exc}")
        if parts[2] not in ("uav", "ugv"):
            raise InvalidInputError(f"{path}:{lineno}: kind must be uav or ugv, "
                                    f"got {parts[2]!r}")
        if not isfinite(t):
            raise InvalidInputError(f"{path}:{lineno}: time must be finite, "
                                    f"got {parts[0]}")
        if not (isfinite(x) and isfinite(y) and isfinite(z) and isfinite(theta)):
            raise InvalidInputError(f"{path}:{lineno}: state must be finite, "
                                    f"got {','.join(parts[3:7])}")
        yield (lineno, parts[0], parts[1], parts[2], x, y, z, theta,
               parts[10], logged)


def _parse_watcher(path: str):
    """Yields (agent_id, active_count) per record, whose row counts must be
    non-negative integers summing to active_count, checked once per distinct set."""
    checked: dict[tuple[str, ...], int] = {}
    for lineno, parts in _csv_rows(path, WATCHER_HEADER, 10):
        counts = tuple(parts[3:9])
        if counts not in checked:
            active, *families = (int(c) if c.isdecimal() else -1 for c in counts)
            if min(families) < 0 or active != sum(families):
                raise InvalidInputError(f"{path}:{lineno}: row counts {','.join(counts)} must "
                                        "be non-negative integers that sum to active_count")
            checked[counts] = active
        yield parts[1], checked[counts]


def summarize_dir(out_dir: str, check: bool = True) -> MetricsSummary:
    """Recompute the safety metrics for a finished run directory.

    The trajectory is streamed tick by tick; consecutive ticks with the same
    agents in the same line order are evaluated together in blocks of at
    most BLOCK_SAMPLES lines, and lines are checked in file order, so the
    first line whose min_h disagrees is the one reported, once the block's
    statuses are known to be ones the writer logs.  watcher.csv is required."""
    cfg = load_config(os.path.join(out_dir, CONFIG_FILE))
    fold = MetricsFold(cfg.n_pairs)

    traj_path = os.path.join(out_dir, TRAJECTORY_FILE)
    tick: list[tuple] = []     # the current tick's lines, as parsed
    block: list[tuple] = []    # the lines of the block's complete ticks
    layout: tuple = ()         # the agent ids and kinds of a tick's lines
    # The layout's roster; a repeated agent's last line in a tick gives its
    # state, but every line is checked and counted.
    roster: Roster | None = None
    columns: list[int] = []    # the roster column of each line of a tick
    last: list[int] = []       # the last line of each roster agent in a tick

    def flush_block():
        nonlocal block
        if not block:
            return
        linenos, times, _, _, *states, statuses, logged = zip(*block)
        if not _STATUSES.issuperset(statuses):
            k = next(k for k, status in enumerate(statuses) if status not in _STATUSES)
            raise InvalidInputError(f"{traj_path}:{linenos[k]}: unknown qp_status {statuses[k]!r}")
        ids, kinds = layout
        width = len(ids)
        states.append([status == "landed" for status in statuses])
        per_agent, family, dist = tick_barriers(cfg, roster, *(
            np.array(v).reshape(-1, width)[:, last] for v in states))
        # The column was written at 9 significant digits; push the
        # recomputed values through the same format before comparing.
        expected, h = fmt9_round_trip(per_agent)[1][:, columns].ravel(), np.array(logged)
        with np.errstate(invalid="ignore"):   # inf - inf
            agree = (expected == h) | (np.abs(expected - h) <= 1e-9)
        if check and not agree.all():
            k = int(agree.argmin())   # the first line that disagrees
            raise LogIntegrityError(
                f"{traj_path}:{linenos[k]}: logged min_h {logged[k]!r} "
                f"disagrees with recomputed {float(expected[k])!r}")
        fold.barriers(family, dist)
        fold.ticks(times[::width], ids, kinds, statuses)
        block = []

    def end_tick():
        nonlocal layout, roster, columns, last
        _, _, ids, kinds, *_ = zip(*tick)
        if (ids, kinds) != layout:
            flush_block()
            layout = ids, kinds
            agents = dict(zip(ids, kinds))
            roster = Roster(tuple(agents), tuple(agents.values()))
            columns = [roster.column[aid] for aid in ids]
            last = list({aid: k for k, aid in enumerate(ids)}.values())
        elif len(block) + len(tick) > max(BLOCK_SAMPLES, len(tick)):
            flush_block()
        block.extend(tick)
        tick.clear()

    try:
        for line in _parse_trajectory(traj_path):
            if tick and line[1] != tick[0][1]:
                end_tick()
            tick.append(line)
    except ValueError:
        # A bad state earlier in the file is reported before a malformed
        # line; only complete ticks are evaluated, since the malformed
        # line's tick lacks the rest of its agents.
        flush_block()
        raise
    if tick:
        end_tick()
    flush_block()

    fold.rows(_parse_watcher(os.path.join(out_dir, WATCHER_FILE)))

    trace_path = os.path.join(out_dir, TRACE_FILE)
    if os.path.exists(trace_path):
        links: set[str] = set()
        a2a = sent = dropped = 0
        with open(trace_path, "r") as f:
            for lineno, line in enumerate(f, start=1):
                tokens = line.split()
                if not tokens:
                    continue
                event, fields = tokens[0], {}
                for token in tokens[1:]:
                    key, eq, value = token.partition("=")
                    if not eq:
                        raise InvalidInputError(
                            f"{trace_path}:{lineno}: expected key=value, got {token!r}")
                    fields[key] = value
                if event not in _TRACE_EVENTS or not fields.keys() >= {"src", "dst"}:
                    raise InvalidInputError(f"{trace_path}:{lineno}: expected a send, drop "
                                            f"or deliver event with src and dst")
                src, dst = fields["src"], fields["dst"]
                sent += event != "deliver"  # a dropped message was sent too
                dropped += event == "drop"
                if "watcher" not in (src, dst):
                    a2a += 1
                else:
                    links.add(dst if src == "watcher" else src)
        fold.links(len(links), a2a, sent, dropped)

    return fold.result()
