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
the rounded states the producer committed to disk.  A trace.log is checked
against a replay of the run's bus, whose link counts the fold takes as
run() takes its own bus's: only netsim knows the trace's format.
"""

from __future__ import annotations

import json
import math
import os
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress, islice, repeat

import numpy as np

from .barriers import (eval_landing, offset_points, pairwise_sq_distances,
                       wall_heights)
from .config import ScenarioConfig, load_config
from .errors import InvalidInputError
from .logfmt import fmt9, fmt9_floats, fmt9_round_trip
from .netsim import LinkStats, StarBus
from .watcher import PHASE_NAMES, TASK

TRAJECTORY_FILE = "trajectory.csv"
WATCHER_FILE = "watcher.csv"
TRACE_FILE = "trace.log"
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

    def links(self, stats: dict[str, LinkStats]) -> None:
        """A bus's link_stats(); every message travels on a watcher link."""
        s = self.summary
        s.active_links, s.agent_to_agent_messages = len(stats), 0
        s.messages_sent = sum(link.sent for link in stats.values())
        s.messages_dropped = sum(link.dropped for link in stats.values())

    def result(self) -> MetricsSummary:
        self.summary.landing_outcomes = {
            i: self._landed.get(i) for i in range(self._n_pairs)}
        return self.summary


class TrajectoryWriter:
    """The trajectory.csv writer, for control ticks of the agents named by
    ids, into the open text file out: the header at once, then each block
    as it is flushed, so the writer holds one block at a time.

    A tick holds every agent's raw logged (x, y, z, theta), applied
    input (ux, uy, uz) and status.  Ticks are formatted a block of at most
    BLOCK_SAMPLES agent samples at a time: fmt9_round_trip formats each
    distinct number of the block once at 9 significant digits and parses
    the rounded states back -- the values a reader of the file sees -- and
    the min_h column is evaluated from them and formatted by fmt9_floats."""

    def __init__(self, ids, out):
        m = len(ids)
        self._numbers = np.empty((max(1, BLOCK_SAMPLES // m), m, 7))
        self._times: list[str] = []
        self._statuses: list[str] = []      # flat, tick by tick
        self._prefixes = [f"{aid},{aid[:3]}" for aid in ids]
        self._out = out
        out.write(TRAJECTORY_HEADER + "\n")

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
        """Format the buffered ticks and append them to the file.  min_h
        maps the block's T time strings, its T*M statuses (tick by tick) and
        its rounded (T, M) x, y, z, theta and landed arrays to its (T, M)
        per-agent min h."""
        ticks, m = len(self._times), self._numbers.shape[1]
        if not ticks:
            return
        text, rounded = fmt9_round_trip(self._numbers[:ticks])
        statuses = self._statuses
        landed = np.fromiter(map("landed".__eq__, statuses), bool, ticks * m)
        h = fmt9_floats(min_h(self._times, statuses, *rounded.transpose(2, 0, 1)[:4],
                              landed.reshape(ticks, m)).ravel().tolist())
        times = [t for t in self._times for _ in range(m)]
        self._out.write("\n".join(map(",".join, zip(
            times, self._prefixes * ticks, *text.reshape(-1, 7).T.tolist(),
            statuses, h))) + "\n")
        self._times, self._statuses = [], []


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


def _blocks(path: str, header: str, width: int, cfg: ScenarioConfig, steps: int):
    """Reads a log written every steps-th step of the run, a block of at most
    BLOCK_SAMPLES lines of whole ticks at a time, and checks it against the
    layout the config fixes: after the header, per tick of the schedule,
    one line of width fields per agent in agent_ids order, led by the tick's
    time and the agent's id, then its kind when width is 12.  Blank and
    whitespace-only lines are skipped; the last line may lack its newline.

    Yields (fields, linenos, times, error) per block: the fields of the
    block's lines up to its first bad one, width per line; their line
    numbers; the time strings of the block's ticks; and the
    InvalidInputError naming that bad line (one with the wrong number of
    fields, or out of its place) or the end of a log cut short, or the
    UnicodeDecodeError of text that is not UTF-8, else None.  No block
    follows an error: the caller raises it once it has checked the lines
    before it."""
    ids = cfg.agent_ids()
    m, lead = len(ids), 3 if width == 12 else 2
    per_block = max(1, BLOCK_SAMPLES // m)
    size = per_block * m
    keys = [[aid, aid[:3]][:lead - 1] for aid in ids]
    key_columns = [[key[j] for key in keys] * per_block for j in range(lead - 1)]
    schedule = range(0, cfg.total_steps() + 1, steps)
    total = len(schedule) * m   # the layout's lines

    with open(path, "r") as f:
        first = f.readline().rstrip("\n")
        if first != header:
            raise InvalidInputError(f"{path}:1: unexpected header {first!r}")
        lineno, pos = 1, 0   # the last line read; the layout's lines checked
        while True:
            lines: list[str] = []
            linenos: range | list[int] = []
            error: ValueError | None = None
            while len(lines) < size and error is None:
                chunk: list[str] = []
                try:   # keeps the lines read before text that is not UTF-8
                    chunk.extend(islice(f, size - len(lines)))
                except UnicodeDecodeError as exc:
                    error = exc
                if not chunk:
                    break
                numbers = range(lineno + 1, lineno + 1 + len(chunk))
                lineno += len(chunk)
                if any(map(str.isspace, chunk)):
                    keep = [not line.isspace() for line in chunk]
                    chunk, numbers = list(compress(chunk, keep)), list(compress(numbers, keep))
                lines, linenos = ((lines + chunk, [*linenos, *numbers]) if lines
                                  else (chunk, numbers))
            n = len(lines)
            commas = list(map(str.count, lines, repeat(",")))
            if commas.count(width - 1) != n:
                n = next(k for k, c in enumerate(commas) if c != width - 1)
                error = InvalidInputError(f"{path}:{linenos[n]}: expected {width} fields, "
                                          f"got {commas[n] + 1}")
            fields = ",".join(lines[:n]).replace("\n", "").split(",") if n else []
            if pos + n > total:
                n = total - pos
                error = InvalidInputError(f"{path}:{linenos[n]}: expected the end of the log")
                del fields[n * width:]
            t0 = pos // m
            times = [fmt9(step * cfg.dt) for step in schedule[t0:t0 + per_block]]
            got = [fields[j::width] for j in range(lead)]
            want = [list(chain.from_iterable(zip(*[times] * m))), *key_columns]
            if any(column != expected[:n] for column, expected in zip(got, want)):
                n, have, entry = next((k, *rows) for k, rows in enumerate(
                    zip(zip(*got), zip(*want))) if rows[0] != rows[1])
                error = InvalidInputError(f"{path}:{linenos[n]}: expected {','.join(entry)}, "
                                          f"got {','.join(have)}")
                del fields[n * width:]
            pos += n
            eof = len(lines) < size
            if error is None and eof and pos < total:
                want = [fmt9(schedule[pos // m] * cfg.dt), *keys[pos % m]]
                error = InvalidInputError(f"{path}: ends after line {lineno}, "
                                          f"expected {','.join(want)} next")
            yield fields, linenos, times, error
            if error is not None or eof:
                return
            del fields, got   # one block's fields are held at a time


def _check_trajectory(cfg: ScenarioConfig, path: str, touchdown: np.ndarray,
                      landing: np.ndarray | None, fold: MetricsFold) -> None:
    """Checks trajectory.csv block by block and folds it.  Per line, in
    file order: its field count and place (_blocks), its x, y, z, theta
    and min_h as float() reads them, a finite state.  Before a bad line, or
    the end of a log cut short, is reported, the complete ticks before it
    are evaluated: their statuses must be ones the writer logs, a UAV may
    read landed only from its pair's touchdown step on (its unit learns of
    a landing only from an update sent then or later) and, where the
    landing steps are known (landing, from _check_trace), must read landed
    exactly from the first control tick at or after its own, then each
    line's min_h must equal the value recomputed from the block's states or
    lie within 1e-9 of it, the first line that does not being reported."""
    m, steps = 2 * cfg.n_pairs, cfg.steps_per_control()
    tick = 0   # the block's first
    for fields, linenos, times, error in _blocks(path, TRAJECTORY_HEADER, 12, cfg, steps):
        n = len(fields) // 12
        try:
            values = _numbers(fields, n)
        except ValueError:
            n, exc = next((k, exc) for k in range(n) for j in _NUMERIC
                          if (exc := _float_error(fields[12 * k + j])))
            error = InvalidInputError(f"{path}:{linenos[n]}: {exc}")
            values = _numbers(fields, n)
        finite = np.isfinite(values[:4]).all(axis=0)
        if not finite.all():
            n = int(finite.argmin())
            error = InvalidInputError(f"{path}:{linenos[n]}: state must be finite, "
                                      f"got {','.join(fields[12 * n + 3:12 * n + 7])}")
        ticks = n // m
        if ticks:
            statuses = fields[10:12 * ticks * m:12]
            if not _STATUSES.issuperset(statuses):
                k = next(k for k, status in enumerate(statuses) if status not in _STATUSES)
                raise InvalidInputError(f"{path}:{linenos[k]}: unknown qp_status {statuses[k]!r}")
            landed = np.fromiter(map("landed".__eq__, statuses), bool, ticks * m).reshape(ticks, m)
            step = np.arange(tick, tick + ticks)[:, None] * steps
            uav = landed[:, 0::2]
            wrong = uav & (step < touchdown)
            if landing is not None:
                wrong |= uav != (step >= landing)
            if wrong.any():
                k, pair = divmod(int(wrong.argmax()), cfg.n_pairs)
                reached = f"an update with its pair's landed bit reaches it ({TRACE_FILE})"
                if step[k, 0] < touchdown[pair]:
                    problem = f"reads landed before {WATCHER_FILE} lands its pair"
                elif uav[k, pair]:
                    problem = f"reads landed before {reached}"
                else:
                    problem = (f"does not read landed after {reached} at "
                               f"t={fmt9(int(landing[pair]) * cfg.dt)}")
                raise InvalidInputError(f"{path}:{linenos[k * m + 2 * pair]}: uav{pair} {problem}")
            x, y, z, theta, logged = values[:, :ticks * m].reshape(5, ticks, m)
            per_agent, family, dist = tick_barriers(cfg, x, y, z, theta, landed)
            # The column was written at 9 significant digits; push the
            # recomputed values through the same format before comparing.
            expected = fmt9_round_trip(per_agent)[1]
            with np.errstate(invalid="ignore"):   # inf - inf
                agree = (expected == logged) | (np.abs(expected - logged) <= 1e-9)
            if not agree.all():
                k = int(agree.argmin())   # the first line that disagrees
                raise LogIntegrityError(
                    f"{path}:{linenos[k]}: logged min_h {float(logged.flat[k])!r} "
                    f"disagrees with recomputed {float(expected.flat[k])!r}")
            fold.barriers(family, dist)
            fold.ticks(times[:ticks], statuses)
            tick += ticks
        if error is not None:
            raise error
        del fields   # before _blocks splits the next block


_NUMERIC = (3, 4, 5, 6, 11)   # trajectory.csv's x, y, z, theta and min_h


def _numbers(fields: list[str], n: int) -> np.ndarray:
    """The (5, n) x, y, z, theta and min_h of the first n lines of a block
    of trajectory.csv fields, as float() reads them."""
    columns = (fields[j:12 * n:12] for j in _NUMERIC)
    return np.fromiter(map(float, chain(*columns)), float, 5 * n).reshape(5, n)


def _float_error(text: str) -> ValueError | None:
    """What float(text) raises, if anything."""
    try:
        float(text)
    except ValueError as exc:
        return exc
    return None


def _check_watcher(cfg: ScenarioConfig, path: str, fold: MetricsFold) -> np.ndarray:
    """Checks watcher.csv block by block and folds its (agent id, active
    row count) records.  Per line, in file order: its field count and place
    (_blocks), then its phase, row counts and proximal set
    (_watcher_line_error, once per distinct agent id, phase, counts and
    set), then its pair's phase (_check_phases).  Returns each pair's
    touchdown step: the step of the watcher tick at which its lines first
    read landed, inf if none does."""
    n, m, steps = cfg.n_pairs, 2 * cfg.n_pairs, cfg.steps_per_watcher()
    ids = frozenset(cfg.agent_ids())
    checked: dict[tuple[str, ...], int] = {}
    touchdown = np.full(n, math.inf)
    last = [PHASE_NAMES[TASK]] * m   # the phases of the last tick read
    tick = 0   # the block's first
    for fields, linenos, _, error in _blocks(path, WATCHER_HEADER, 10, cfg, steps):
        records = list(zip(*(fields[j::10] for j in range(1, 10))))   # agent id on
        good = len(records)   # the lines before the first bad record
        for key in dict.fromkeys(records):   # distinct, first seen first
            if key in checked:
                continue
            problem = _watcher_line_error(key, ids)
            if problem is None:
                checked[key] = int(key[2])   # its active_count
                continue
            good = records.index(key)
            error = InvalidInputError(f"{path}:{linenos[good]}: {problem}")
            break
        phases = fields[2:10 * good:10]
        # A block whose ticks all repeat the last one changes no phase.
        if phases and (phases[:m] != last or phases[m:] != phases[:-m]):
            _check_phases(path, linenos, phases, m, last)
            for pair in range(n):
                column = phases[2 * pair::m]
                if touchdown[pair] == math.inf and "landed" in column:
                    touchdown[pair] = (tick + column.index("landed")) * steps
            last = phases[-m:]
        if error is not None:
            raise error
        fold.rows(zip(fields[1::10], map(checked.__getitem__, records)))
        tick += len(phases) // m
    return touchdown


def _watcher_line_error(key: tuple[str, ...], ids: frozenset[str]) -> str | None:
    """What is wrong with a watcher.csv line's agent id, phase, row counts
    and proximal set P (key), else None.  Its phase must be one of
    PHASE_NAMES and its row counts non-negative integers summing to
    active_count.  P must be sorted, without repeats, and name only agents
    of the run (ids) outside the line's own pair.  A UAV line's families
    then read 5, the UGVs in P, 1, the UAVs in P, 0; a UGV line's read 4,
    0, 0, 0, the UGVs in P."""
    agent, phase, *counts, proximal = key
    if phase not in PHASE_NAMES:
        return f"unknown phase {phase!r}"
    active, *families = (int(c) if c.isdecimal() else -1 for c in counts)
    if min(families) < 0 or active != sum(families):
        return (f"row counts {','.join(counts)} must be non-negative integers "
                "that sum to active_count")
    others = proximal.split(";") if proximal else []
    pair = agent[3:]
    if (others != sorted(set(others)) or not ids.issuperset(others)
            or "uav" + pair in others or "ugv" + pair in others):
        return (f"proximal set {proximal!r} must name agents of the run outside its "
                "own pair, sorted and each once")
    uavs = bisect_left(others, "ugv")   # sorted ids: the UAVs come first
    ugvs = len(others) - uavs
    if families != ([5, ugvs, 1, uavs, 0] if agent.startswith("uav") else [4, 0, 0, 0, ugvs]):
        return (f"row counts {','.join(counts)} do not fit a {agent[:3].upper()} line "
                f"with proximal set {proximal!r}")
    return None


def _check_phases(path: str, linenos, phases: list[str], m: int, last: list[str]) -> None:
    """Checks a block of watcher.csv phases, whole ticks of m lines from
    its start (a UAV line then its UGV line per pair), against the phases
    of the tick before it (last): a UGV line must read its UAV line's
    phase, and a UAV line must not move its pair back along task, landing,
    landed.  Raises InvalidInputError naming the first line that does."""
    for start in range(0, len(phases), m):
        row = phases[start:start + m]
        if row == last:
            continue
        for a, phase in enumerate(row):
            if a % 2 and phase != row[a - 1]:
                problem = f"phase {phase!r} differs from {row[a - 1]!r} on its pair's UAV line"
            elif not a % 2 and PHASE_NAMES.index(phase) < PHASE_NAMES.index(last[a]):
                problem = f"phase {phase!r} moves its pair back from {last[a]!r}"
            else:
                continue
            raise InvalidInputError(f"{path}:{linenos[start + a]}: {problem}")
        last = row


def _check_trace(cfg: ScenarioConfig, path: str, touchdown: np.ndarray,
                 fold: MetricsFold) -> tuple[np.ndarray, Exception | None]:
    """Checks trace.log against a replay of the run's bus and folds the
    replayed bus's link counts.  The replay drives a StarBus built from the
    config as run() does: a delivery at every step and, at each watcher
    tick, one update per agent in agent_ids order and a second delivery.
    After each step the lines the bus wrote must be the log's next lines;
    blank and whitespace-only lines are skipped, and the last line may lack
    its newline.

    The replay sends a UAV's updates with its pair's landed bit from the
    pair's touchdown step (touchdown, from _check_watcher) on, as the
    watcher does.  Returns each UAV's landing step, the step at which the
    first update with the bit reaches it (inf if none does), and the error
    naming the first line of the log that differs from the replay, or its
    early end, else None.  The replay runs to the end either way, since it
    never reads the log: the caller bounds trajectory.csv's landed lines
    by the landing steps before it raises the error."""
    ids = cfg.agent_ids()
    lines: list[str] = []
    bus = StarBus(ids, cfg.network, cfg.seed, trace=lines)
    # An update's payload arrays only size it (wire_bytes), and no trace
    # line logs a size or the landed bit: the replay sends empty ones.
    empty = np.empty(0)
    update = (empty, empty, empty, empty, empty, 0, False)
    landed = update[:6] + (True,)
    payloads = [update] * len(ids)
    landing = np.full(cfg.n_pairs, math.inf)
    error: Exception | None = None

    def reach(updates, step):
        for dst, payload, _ in updates:
            if payload is landed:
                pair = int(dst[3:])
                landing[pair] = min(landing[pair], step)

    with open(path, "r") as f:
        numbered, lineno = enumerate(f, start=1), 0   # lineno: the last line read

        def compare(wanted, end=False) -> Exception | None:
            """The error naming the first of the log's next lines that is
            not wanted's, or its early end; with end, then the first line
            left."""
            nonlocal lineno
            try:
                for want in wanted:
                    for lineno, got in numbered:
                        if not got.isspace():
                            break
                    else:
                        return InvalidInputError(f"{path}: ends after line {lineno}, "
                                                 f"expected {want} next")
                    if (got := got.rstrip("\n")) != want:
                        return InvalidInputError(f"{path}:{lineno}: expected {want}, got {got}")
                if end:
                    for lineno, got in numbered:
                        if not got.isspace():
                            return InvalidInputError(f"{path}:{lineno}: "
                                                     "expected the end of the log")
            except UnicodeDecodeError as exc:
                return exc
            return None

        for step in range(cfg.total_steps() + 1):
            t = step * cfg.dt
            reach(bus.deliver_due(t), step)
            if step % cfg.steps_per_watcher() == 0:
                for pair in (touchdown == step).nonzero()[0].tolist():
                    payloads[2 * pair] = landed
                for aid, payload in zip(ids, payloads):
                    bus.send(aid, payload, t)
                reach(bus.deliver_due(t), step)
            if lines and error is None:
                error = compare(lines)
            lines.clear()
        if error is None:
            error = compare((), end=True)
    fold.links(bus.link_stats())
    return landing, error


def summarize_dir(out_dir: str) -> MetricsSummary:
    """Recompute the safety metrics for a finished run directory.

    resolved_config.yaml fixes each log's layout (_blocks): a line whose
    time, agent or kind is not the one run() writes at its place, or a log
    that ends early, is reported with its file and line.  Each log is read
    and checked a block of at most BLOCK_SAMPLES lines at a time, in file
    order, so the first bad line is the one reported (_check_watcher, then
    _check_trajectory, whose UAVs may read landed only from the ticks where
    watcher.csv's phases first read landed).  watcher.csv is required;
    trace.log is checked when present, line for line against a replay of
    the run's bus (_check_trace), whose replay then also gives the step at
    which each UAV must first read landed; its errors are reported after
    trajectory.csv's."""
    cfg = load_config(os.path.join(out_dir, CONFIG_FILE))
    fold = MetricsFold(cfg.n_pairs)
    touchdown = _check_watcher(cfg, os.path.join(out_dir, WATCHER_FILE), fold)
    trace_path = os.path.join(out_dir, TRACE_FILE)
    landing, trace_error = (_check_trace(cfg, trace_path, touchdown, fold)
                            if os.path.exists(trace_path) else (None, None))
    _check_trajectory(cfg, os.path.join(out_dir, TRAJECTORY_FILE), touchdown, landing, fold)
    if trace_error is not None:
        raise trace_error
    return fold.result()
