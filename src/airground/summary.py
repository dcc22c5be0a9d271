"""Post-run metric aggregation, independent of the in-loop telemetry.

Every barrier value in the summary is recomputed from the raw states in the
trajectory log (never trusted from the controller), then cross-checked
against the per-tick minimum the runner logged; any disagreement beyond
1e-9 means the log was tampered with or the physics diverged, and is an
error.  States are parsed from the log text, so the recomputation sees the
exact same rounded values the producer committed to disk.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .barriers import (eval_landing, eval_workspace, offset_points,
                       pairwise_sq_distances)
from .config import ScenarioConfig, load_config
from .errors import InvalidInputError
from .logfmt import fmt9_all

TRAJECTORY_FILE = "trajectory.csv"
WATCHER_FILE = "watcher.csv"
TRACE_FILE = "trace.log"
_TRACE_EVENTS = ("send", "drop", "deliver")
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
        # Pair masks: UAV vs another UAV, UAV vs another pair's UGV, UGV vs
        # another UGV.
        self.uav_others = ~np.eye(len(uav), dtype=bool)
        self.other_ugv = np.array([[g != o for g in ugv] for o in own],
                                  dtype=bool).reshape(len(uav), len(ugv))
        self.ugv_others = ~np.eye(len(ugv), dtype=bool)

    def key(self) -> tuple:
        return self.ids, self.kinds


class TickBlock:
    """Consecutive ticks of one roster, stored column-wise in preallocated
    (T, M) arrays holding at most BLOCK_SAMPLES agent samples."""

    def __init__(self, roster: Roster):
        self.roster = roster
        m = len(roster.ids)
        rows = max(1, BLOCK_SAMPLES // m)
        self._states = np.empty((4, rows, m))
        self._landed = np.empty((rows, m), dtype=bool)
        self.ticks = 0

    def add_tick(self, x, y, z, theta, landed) -> None:
        """One tick: each argument holds a value per roster agent."""
        self._states[:, self.ticks] = x, y, z, theta
        self._landed[self.ticks] = landed
        self.ticks += 1

    def full(self) -> bool:
        return self.ticks == self._landed.shape[0]

    def arrays(self) -> tuple[np.ndarray, ...]:
        """(T, M) views x, y, z, theta and landed of the ticks so far."""
        x, y, z, theta = self._states[:, :self.ticks]
        return x, y, z, theta, self._landed[:self.ticks]

    def clear(self) -> None:
        self.ticks = 0


class TrajectoryWriter:
    """The trajectory.csv writer, for control ticks of one roster.

    A tick holds every roster agent's raw logged (x, y, z, theta), applied
    input (ux, uy, uz) and status.  Ticks are formatted a block of at most
    BLOCK_SAMPLES agent samples at a time: one pass formats every number at
    9 significant digits, the rounded states are parsed back -- the values
    a reader of the file sees -- and the min_h column is evaluated from
    them."""

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
        """Format the buffered ticks.  min_h maps the block's rounded (T, M)
        x, y, z, theta and landed arrays to its (T, M) per-agent min h."""
        ticks, m = len(self._times), len(self.roster.ids)
        if not ticks:
            return
        text = fmt9_all(self._numbers[:ticks].ravel().tolist())
        samples = ticks * m
        x, y, z, theta = (np.fromiter(map(float, text[k::7]), float, samples
                                      ).reshape(ticks, m) for k in range(4))
        statuses = self._statuses
        landed = np.fromiter(map("landed".__eq__, statuses), bool, samples)
        h = fmt9_all(min_h(x, y, z, theta, landed.reshape(ticks, m)).ravel().tolist())
        times = [t for t in self._times for _ in range(m)]
        self._chunks.append("\n".join(map(",".join, zip(
            times, self._prefixes * ticks, *(text[k::7] for k in range(7)),
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
        return record("workspace", np.fmin.reduce(
            [h for h, _ in eval_workspace(p, s.bounds, is_uav)]))

    def separation(fam: str, kind: str, d2: np.ndarray, radius: float
                   ) -> np.ndarray:
        # d2 is (T, m, k), inf where a pair has no term.  Rounding is
        # monotone, so the minimum commutes exactly with sqrt and with
        # "- radius**2": the result is each row's smallest h.
        low = math.sqrt(float(np.fmin.reduce(d2, axis=None)))
        if low < dist.get(kind, math.inf):
            dist[kind] = low
        return record(fam, np.fmin.reduce(d2, axis=2) - radius ** 2)

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
        flying = ~landed[:, u]
        if u.size > 1:
            ok = flying[:, :, None] & flying[:, None, :] & roster.uav_others
            terms.append(separation(
                "uav_uav", "uav_uav",
                np.where(ok, pairwise_sq_distances(uavs, uavs), math.inf),
                s.uav_separation))
        if g.size:
            ok = flying[:, :, None] & roster.other_ugv
            terms.append(separation(
                "uav_other_ugv", "uav_ugv",
                np.where(ok, pairwise_sq_distances(uavs, block(g, x, y, deck)), math.inf),
                s.uav_ugv_separation))
        per_agent[:, u] = np.fmin.reduce(terms)
    if g.size:
        offsets = offset_points(block(g, x, y, theta), cfg.ugv_offset)
        terms = [walls(offsets, False)]
        if g.size > 1:
            d2 = pairwise_sq_distances(offsets, offsets)
            terms.append(separation(
                "ugv_ugv", "ugv_ugv",
                np.where(roster.ugv_others, d2, math.inf), s.ugv_separation))
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
    """Yields (line_number, time_str, time, agent_id, kind, x, y, z, theta,
    status, logged min_h) per record; the time and the state must be
    finite."""
    isfinite = math.isfinite
    for lineno, parts in _csv_rows(path, TRAJECTORY_HEADER, 12):
        try:
            t = float(parts[0])
            x, y, z, theta = float(parts[3]), float(parts[4]), float(parts[5]), float(parts[6])
            logged = float(parts[11])
        except ValueError as exc:
            raise InvalidInputError(f"{path}:{lineno}: {exc}")
        if not isfinite(t):
            raise InvalidInputError(f"{path}:{lineno}: time must be finite, "
                                    f"got {parts[0]}")
        if not (isfinite(x) and isfinite(y) and isfinite(z) and isfinite(theta)):
            raise InvalidInputError(f"{path}:{lineno}: state must be finite, "
                                    f"got {','.join(parts[3:7])}")
        yield (lineno, parts[0], t, parts[1], parts[2], x, y, z, theta,
               parts[10], logged)


def summarize_dir(out_dir: str, check: bool = True) -> MetricsSummary:
    """Recompute the safety metrics for a finished run directory.

    The trajectory is streamed tick by tick; consecutive ticks with the same
    roster are evaluated together in blocks of at most BLOCK_SAMPLES agent
    samples, and lines are checked in file order, so the first line whose
    min_h disagrees is the one reported."""
    cfg = load_config(os.path.join(out_dir, CONFIG_FILE))
    summary = MetricsSummary()

    traj_path = os.path.join(out_dir, TRAJECTORY_FILE)
    first_landed: dict[int, float] = {}
    last_time = 0.0
    tick_time: str | None = None
    # The current tick: agent -> (kind, x, y, z, theta, landed); a repeated
    # agent's later line replaces its state, but every line is checked.
    tick_states: dict[str, tuple] = {}
    tick_lines: list[tuple[int, str, float]] = []   # lineno, agent, min_h
    block: TickBlock | None = None
    block_lines: list[tuple[int, int, float]] = []  # lineno, flat index, min_h

    def flush_block():
        nonlocal block_lines
        if block is None or not block.ticks:
            return
        per_agent, family, dist = tick_barriers(cfg, block.roster,
                                                *block.arrays())
        # The column was written at 9 significant digits; push the
        # recomputed values through the same format before comparing.
        rounded = list(map(float, fmt9_all(per_agent.ravel().tolist())))
        for lineno, index, logged in block_lines:
            expected = rounded[index]
            if check and not (math.isinf(expected) and math.isinf(logged)):
                if abs(expected - logged) > 1e-9:
                    raise LogIntegrityError(
                        f"{traj_path}:{lineno}: logged min_h {logged!r} "
                        f"disagrees with recomputed {expected!r}")
        for fam, h in family.items():
            if h < summary.family_min_h.get(fam, math.inf):
                summary.family_min_h[fam] = h
        for kind, d in dist.items():
            if d < summary.min_pair_distance.get(kind, math.inf):
                summary.min_pair_distance[kind] = d
        block.clear()
        block_lines = []

    def end_tick():
        nonlocal block, tick_states, tick_lines
        if not tick_states:
            return
        kinds, xs, ys, zs, thetas, landed = zip(*tick_states.values())
        ids = tuple(tick_states)
        if block is None or block.roster.key() != (ids, kinds):
            flush_block()
            block = TickBlock(Roster(ids, kinds))
        elif block.full():
            flush_block()
        base = block.ticks * len(ids)
        column = block.roster.column
        block.add_tick(xs, ys, zs, thetas, landed)
        block_lines.extend((lineno, base + column[aid], logged)
                           for lineno, aid, logged in tick_lines)
        tick_states, tick_lines = {}, []

    try:
        for (lineno, t_str, t, agent_id, kind, x, y, z, theta, status,
             logged) in _parse_trajectory(traj_path):
            if t_str != tick_time:
                end_tick()
                tick_time = t_str
                summary.ticks += 1
            tick_states[agent_id] = (kind, x, y, z, theta, status == "landed")
            tick_lines.append((lineno, agent_id, logged))
            summary.status_counts[status] = summary.status_counts.get(status, 0) + 1
            last_time = max(last_time, t)
            if kind == "uav" and status == "landed":
                first_landed.setdefault(int(agent_id[3:]), t)
    except ValueError:
        # A bad state earlier in the file is reported before a malformed
        # line; only complete ticks are evaluated, since the malformed
        # line's tick lacks the rest of its agents.
        flush_block()
        raise
    end_tick()
    flush_block()
    summary.duration = last_time
    summary.landing_outcomes = {
        i: first_landed.get(i) for i in range(cfg.n_pairs)
    }

    watcher_path = os.path.join(out_dir, WATCHER_FILE)
    if os.path.exists(watcher_path):
        for _, parts in _csv_rows(watcher_path, WATCHER_HEADER, 10):
            agent, count = parts[1], int(parts[3])
            hist = summary.row_count_histogram.setdefault(agent, {})
            hist[count] = hist.get(count, 0) + 1

    trace_path = os.path.join(out_dir, TRACE_FILE)
    if os.path.exists(trace_path):
        links: set[str] = set()
        a2a = 0
        sent = dropped = 0
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
        summary.active_links = len(links)
        summary.agent_to_agent_messages = a2a
        summary.messages_sent = sent
        summary.messages_dropped = dropped

    return summary
