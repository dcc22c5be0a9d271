"""Run metrics: the trajectory writer, the barrier evaluation and the fold
that turns a run's data into its MetricsSummary.

run() feeds the fold from the loop: each flushed trajectory block's barrier
minima, statuses and times, then the watcher records and link counters.
summarize_dir, behind `airground summarize`, is the independent re-check:
it parses the logs back in the one layout the run's config fixes (every
tick of the schedule, one line per agent in agent_ids order), recomputes
every barrier value from the logged states (never trusted from the
controller), requires each line's min_h to equal the recomputed value or
lie within 1e-9 of it -- else the log was tampered with or the physics
diverged; a NaN never agrees -- and feeds the same fold.  Both paths see
the rounded states the producer committed to disk.
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

    def ticks(self, times, statuses) -> None:
        """Consecutive ticks of the whole fleet: tick k is logged at time
        string times[k] with the statuses statuses[k*m:(k+1)*m] of the m
        agents in agent_ids order (uav0, ugv0, uav1, ...)."""
        s, m = self.summary, 2 * self._n_pairs
        s.ticks += len(times)
        s.duration = max(s.duration, *map(float, times))
        for status in dict.fromkeys(statuses):  # distinct, first seen first
            s.status_counts[status] = s.status_counts.get(status, 0) + statuses.count(status)
        if "landed" in statuses:
            for pair in range(self._n_pairs):
                column = statuses[2 * pair::m]
                if "landed" in column:
                    self._landed.setdefault(pair, float(times[column.index("landed")]))

    def rows(self, counts) -> None:
        """Watcher records as (agent id, active row count) pairs."""
        for (agent, count), k in Counter(counts).items():
            hist = self.summary.row_count_histogram.setdefault(agent, {})
            hist[count] = hist.get(count, 0) + k

    def links(self, active: int, sent: int, dropped: int) -> None:
        """The trace's counts; every message travels on a watcher link."""
        s = self.summary
        s.active_links, s.agent_to_agent_messages = active, 0
        s.messages_sent, s.messages_dropped = sent, dropped

    def result(self) -> MetricsSummary:
        self.summary.landing_outcomes = {
            i: self._landed.get(i) for i in range(self._n_pairs)}
        return self.summary


class TrajectoryWriter:
    """The trajectory.csv writer, for control ticks of the agents named by ids.

    A tick holds every agent's raw logged (x, y, z, theta), applied
    input (ux, uy, uz) and status.  Ticks are formatted a block of at most
    BLOCK_SAMPLES agent samples at a time: fmt9_round_trip formats each
    distinct number of the block once at 9 significant digits and parses
    the rounded states back -- the values a reader of the file sees -- and
    the min_h column is evaluated from them and formatted by fmt9."""

    def __init__(self, ids):
        m = len(ids)
        self._numbers = np.empty((max(1, BLOCK_SAMPLES // m), m, 7))
        self._times: list[str] = []
        self._statuses: list[str] = []      # flat, tick by tick
        self._prefixes = [f"{aid},{aid[:3]}" for aid in ids]
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
        ticks, m = len(self._times), self._numbers.shape[1]
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


def tick_barriers(cfg: ScenarioConfig, x: np.ndarray, y: np.ndarray, z: np.ndarray,
                  theta: np.ndarray, landed: np.ndarray
                  ) -> tuple[np.ndarray, dict[str, float], dict[str, float]]:
    """Evaluate every barrier family over a block of ticks of the fleet.

    x, y, z, theta and landed are (T, 2n) arrays, one row per tick and one
    column per agent in agent_ids order: UAV i in column 2i, its own UGV in
    column 2i + 1.  Returns the (T, 2n) per-agent minimum h, and the
    per-family minimum h and per-kind minimum distance over the whole
    block; a family with no term (uav_uav at N=1) is left out.  Landed
    UAVs retire from the aerial separation families but keep their wall
    and funnel terms, mirroring the coordinator's row retirement.  NaN
    terms are ignored, like a failed comparison in a scalar minimum.
    Walls, funnel and UGV offset points come from the barriers module,
    whose functions the watcher's rows use too.
    """
    s = cfg.safety
    per_agent = np.empty(x.shape)
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
        # d2 is (T, n, n), inf where a pair has no term.  Rounding is
        # monotone, so the minimum commutes exactly with sqrt and with
        # "- radius**2": each row's smallest h, and the block's smallest
        # distance, come from the row minima.
        rows = np.fmin.reduce(d2, axis=2)
        low = math.sqrt(float(np.fmin.reduce(rows, axis=None)))
        if low < dist.get(kind, math.inf):
            dist[kind] = low
        return record(fam, rows - radius ** 2)

    def block(columns: slice, *coords: np.ndarray) -> np.ndarray:
        # (T, n, len(coords)) in C order, which pairwise_sq_distances reads
        # fastest; np.stack of strided columns may not be.
        out = np.empty((x.shape[0], x.shape[1] // 2, len(coords)))
        for i, c in enumerate(coords):
            out[..., i] = c[:, columns]
        return out

    uav, ugv = slice(0, None, 2), slice(1, None, 2)
    own = np.arange(x.shape[1] // 2)   # the diagonal: self pairs, each UAV and its own UGV
    deck = np.full(x.shape, cfg.platform_height)
    uavs, decks = block(uav, x, y, z), block(ugv, x, y, deck)
    terms = [walls(uavs, True), record("landing", eval_landing(
        uavs, decks, s.funnel_sharpness, s.funnel_height, s.hover_clearance)[0])]
    tick, pos = landed[:, uav].nonzero()   # the landed UAVs' ticks and positions
    d2 = pairwise_sq_distances(uavs, uavs)
    d2[:, own, own] = d2[tick, pos] = d2[tick, :, pos] = math.inf
    terms.append(separation("uav_uav", "uav_uav", d2, s.uav_separation))
    d2 = pairwise_sq_distances(uavs, decks)
    d2[:, own, own] = d2[tick, pos] = math.inf
    terms.append(separation("uav_other_ugv", "uav_ugv", d2, s.uav_ugv_separation))
    per_agent[:, uav] = np.fmin.reduce(terms)
    offsets = offset_points(block(ugv, x, y, theta), cfg.ugv_offset)
    d2 = pairwise_sq_distances(offsets, offsets)
    d2[:, own, own] = math.inf
    per_agent[:, ugv] = np.fmin(
        walls(offsets, False),
        separation("ugv_ugv", "ugv_ugv", d2, s.ugv_separation))

    return per_agent, family, dist


def _layout(cfg: ScenarioConfig, steps: int, width: int):
    """The leading fields of each line of a log written every steps-th
    step of the run, in order: per tick, one line per agent in agent_ids
    order, led by the tick's time and the agent's id, then its kind when
    width is 3."""
    keys = [[aid, aid[:3]][:width - 1] for aid in cfg.agent_ids()]
    for step in range(0, cfg.total_steps() + 1, steps):
        t = fmt9(step * cfg.dt)
        for key in keys:
            yield [t, *key]


def _csv_rows(path: str, header: str, width: int, layout):
    """Yields (line_number, fields) per data line of a log with a fixed
    header and field count; blank and whitespace-only lines are skipped.
    Line by line, the leading fields must be the next entry of layout,
    and the log must end with the layout's last entry."""
    with open(path, "r") as f:
        first = f.readline().rstrip("\n")
        if first != header:
            raise InvalidInputError(f"{path}:1: unexpected header {first!r}")
        lineno = 1
        for lineno, line in enumerate(f, start=2):
            if line.isspace():
                continue
            parts = line.rstrip("\n").split(",")
            if len(parts) != width:
                raise InvalidInputError(f"{path}:{lineno}: expected {width} fields, "
                                        f"got {len(parts)}")
            want = next(layout, None)
            if want is None:
                raise InvalidInputError(f"{path}:{lineno}: expected the end of the log")
            if parts[:len(want)] != want:
                raise InvalidInputError(f"{path}:{lineno}: expected {','.join(want)}, "
                                        f"got {','.join(parts[:len(want)])}")
            yield lineno, parts
    want = next(layout, None)
    if want is not None:
        raise InvalidInputError(f"{path}: ends after line {lineno}, "
                                f"expected {','.join(want)} next")


def _parse_trajectory(path: str, layout):
    """Yields (line_number, time_str, x, y, z, theta, status, logged min_h)
    per record of a trajectory.csv laid out as layout says; the state must
    be finite."""
    isfinite = math.isfinite
    for lineno, parts in _csv_rows(path, TRAJECTORY_HEADER, 12, layout):
        try:
            x, y, z, theta = float(parts[3]), float(parts[4]), float(parts[5]), float(parts[6])
            logged = float(parts[11])
        except ValueError as exc:
            raise InvalidInputError(f"{path}:{lineno}: {exc}")
        if not (isfinite(x) and isfinite(y) and isfinite(z) and isfinite(theta)):
            raise InvalidInputError(f"{path}:{lineno}: state must be finite, "
                                    f"got {','.join(parts[3:7])}")
        yield lineno, parts[0], x, y, z, theta, parts[10], logged


def _parse_watcher(path: str, layout):
    """Yields (agent_id, active_count) per record of a watcher.csv laid out
    as layout says, whose row counts must be non-negative integers summing
    to active_count, checked once per distinct set."""
    checked: dict[tuple[str, ...], int] = {}
    for lineno, parts in _csv_rows(path, WATCHER_HEADER, 10, layout):
        counts = tuple(parts[3:9])
        if counts not in checked:
            active, *families = (int(c) if c.isdecimal() else -1 for c in counts)
            if min(families) < 0 or active != sum(families):
                raise InvalidInputError(f"{path}:{lineno}: row counts {','.join(counts)} must "
                                        "be non-negative integers that sum to active_count")
            checked[counts] = active
        yield parts[1], checked[counts]


def summarize_dir(out_dir: str) -> MetricsSummary:
    """Recompute the safety metrics for a finished run directory.

    resolved_config.yaml fixes each log's layout (_layout): a line whose
    time, agent or kind is not the one run() writes at its place, or a log
    that ends early, is reported with its file.  The trajectory is
    evaluated in blocks of whole ticks, at most BLOCK_SAMPLES lines, and
    lines are checked in file order, so the first line whose min_h
    disagrees is the one reported, once the block's statuses are known to
    be ones the writer logs.  watcher.csv is required."""
    cfg = load_config(os.path.join(out_dir, CONFIG_FILE))
    fold = MetricsFold(cfg.n_pairs)
    m = 2 * cfg.n_pairs
    size = max(1, BLOCK_SAMPLES // m) * m

    traj_path = os.path.join(out_dir, TRAJECTORY_FILE)

    def check_block(lines):
        if not lines:
            return
        linenos, times, *states, statuses, logged = zip(*lines)
        if not _STATUSES.issuperset(statuses):
            k = next(k for k, status in enumerate(statuses) if status not in _STATUSES)
            raise InvalidInputError(f"{traj_path}:{linenos[k]}: unknown qp_status {statuses[k]!r}")
        states.append([status == "landed" for status in statuses])
        per_agent, family, dist = tick_barriers(cfg, *(np.array(v).reshape(-1, m)
                                                       for v in states))
        # The column was written at 9 significant digits; push the
        # recomputed values through the same format before comparing.
        expected, h = fmt9_round_trip(per_agent)[1].ravel(), np.array(logged)
        with np.errstate(invalid="ignore"):   # inf - inf
            agree = (expected == h) | (np.abs(expected - h) <= 1e-9)
        if not agree.all():
            k = int(agree.argmin())   # the first line that disagrees
            raise LogIntegrityError(
                f"{traj_path}:{linenos[k]}: logged min_h {logged[k]!r} "
                f"disagrees with recomputed {float(expected[k])!r}")
        fold.barriers(family, dist)
        fold.ticks(times[::m], statuses)

    block: list[tuple] = []   # the parsed lines of the block so far
    try:
        for line in _parse_trajectory(traj_path, _layout(cfg, cfg.steps_per_control(), 3)):
            block.append(line)
            if len(block) == size:
                block, full = [], block
                check_block(full)
    except ValueError:
        # A bad state earlier in the file is reported before a malformed
        # or misplaced line, or the end of a log cut short; only complete
        # ticks are evaluated.
        check_block(block[:len(block) - len(block) % m])
        raise
    check_block(block)

    fold.rows(_parse_watcher(os.path.join(out_dir, WATCHER_FILE),
                             _layout(cfg, cfg.steps_per_watcher(), 2)))

    trace_path = os.path.join(out_dir, TRACE_FILE)
    if os.path.exists(trace_path):
        # Per (src, dst) link the last seq sent or dropped, which the next
        # follows by one; (src, dst, seq) of each message in flight.
        last_seq: dict[tuple[str, str], int] = {}
        in_flight: set[tuple[str, str, str | None]] = set()
        dropped = 0
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
                if (src == "watcher") == (dst == "watcher"):
                    raise InvalidInputError(f"{trace_path}:{lineno}: expected a message "
                                            f"to or from the watcher, got {src} to {dst}")
                key = src, dst, fields.get("seq")
                if event == "deliver":
                    if key not in in_flight:
                        raise InvalidInputError(f"{trace_path}:{lineno}: expected a message in "
                                                f"flight from {src} to {dst}, got seq={key[2]}")
                    in_flight.remove(key)
                    continue
                last_seq[src, dst] = seq = last_seq.get((src, dst), 0) + 1
                if key[2] != str(seq):
                    raise InvalidInputError(f"{trace_path}:{lineno}: expected seq={seq} "
                                            f"from {src} to {dst}, got seq={key[2]}")
                if event == "send":
                    in_flight.add(key)
                dropped += event == "drop"
        fold.links(len({dst if src == "watcher" else src for src, dst in last_seq}),
                   sum(last_seq.values()), dropped)  # a dropped message was sent too

    return fold.result()
