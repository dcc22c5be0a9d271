"""Centralized coordination node.

The watcher is the only component that sees every agent.  Each tick makes
one stacked pass over the fleet:

1. it ingests the poses as one fresh (n, 7) fleet array, one row per pair
   (UAV x, y, z | UGV deck x, y | UGV offset point x, y), with one
   finiteness check, and pushes it to one velocity estimator whose column
   slices are the UAV, deck and offset-point velocities,
2. advances landing phases (signal handling, touchdown detection),
3. decides which separation constraints are locally relevant to each agent
   (distance gate with a hysteresis band so rows do not chatter), holding
   the decisions as one (3, n, n) boolean gate stack -- UAV i against UAV
   j, UAV i against another pair's UGV j, UGV i against UGV j -- refreshed
   by one distance pass over stacked operands and one hysteresis call,
4. assembles every agent's zero-padded constraint rows, min(capacity,
   2n+4) of them, as one A and b block per vehicle kind, in one array
   pass per barrier family (row order on assemble_constraints),
5. returns one update per agent for the star bus, a (dst, (pose, position,
   rate, a, b, count, landed)) pair carrying its pose, setpoint, constraint
   rows (views of its kind's blocks, with the active row count) and its
   pair's landed bit together, with the setpoints of all agents sampled
   from one TrackTable, built once from each agent's (waypoints, speed)
   pair as the scenario config parsed it, and the records' proximal sets
   read off one gate matrix with lexicographic columns.

Gates flip far less often than the fleet moves, and phases change less
often still: what follows from them (row slots and counts, the capacity
verdict, kind counts, proximal sets, the chasing pairs and each agent's
phase) is rebuilt only when the gates or the phases change, in
_gate_tables.  The pair phases are one (n,) int8 array of TASK, LANDING
and LANDED.

Fresh versus reused arrays: whatever leaves a tick -- the pose rows in the
payloads, the A/b blocks, the estimator's last positions -- is a new array
every tick, since agents and in-flight messages still hold earlier ones.
Only scratch that never escapes is reused: the distance operands, whose
platform rows keep their deck height from construction.

Landing orchestration: a landing signal flips the pair to the `landing`
phase, which switches the UAV's setpoint stream from its task track to the
moving platform.  Touchdown is declared after the UAV holds within tight
horizontal/vertical thresholds for a dwell time; the pair then retires from
the aerial collision set (every UAV-UAV row involving the landed UAV drops,
and the landed UAV keeps only its wall and funnel rows; see Watcher).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .barriers import (RowKind, SafetyParams, build_constraint_row,
                       build_workspace_rows, mask_index, offset_points,
                       pairwise_sq_distances, wall_gradients)
from .errors import CapacityError, ConfigViolation, InvalidInputError

_PROXIMITY_HYSTERESIS = 0.1  # extra meters before an active pair deactivates


@dataclass
class WatcherOptions:
    """The watcher's tuning knobs.  The field defaults are also the defaults
    of a scenario's watcher section and of the Watcher's keyword arguments.
    activation_margin None derives the margin from the speed limit, the
    watcher period and the worst link latency."""

    activation_margin: float | None = None
    smoothing: float = 0.7            # velocity estimator weight of the newest difference
    touchdown_radius_sq: float = 0.01  # horizontal touchdown window, squared (m^2)
    touchdown_height: float = 0.02     # vertical touchdown window above hover (m)
    touchdown_hold: float = 0.5        # dwell inside the window before touchdown (s)


def smoothing_violations(smoothing: float) -> list[ConfigViolation]:
    """The velocity estimator's one rule, 0 < smoothing <= 1: [] when it holds."""
    return [] if 0.0 < smoothing <= 1.0 else [ConfigViolation(
        "BAD_VALUE", f"watcher.smoothing must be in (0, 1], got {smoothing!r}")]


def derived_margin(uav_speed_limit: float, period: float, max_latency: float) -> float:
    """The default activation margin: worst-case closing distance over one
    update interval, padded."""
    return 2.0 * uav_speed_limit * (period + max_latency) + 0.5


class VelocityEstimator:
    """Exponentially smoothed finite differences over n agents' poses.

    Tracks them as one (n, dim) array, pushed once per watcher tick.  The
    smoother is seeded with the first difference, so constant-velocity data
    is reproduced exactly from the second sample on.  Until that first
    difference the estimate is worst case: the constraint rows assume the
    most adversarial motion within the speed bounds.
    """

    def __init__(self, n: int, dim: int, smoothing: float = WatcherOptions.smoothing):
        if problems := smoothing_violations(smoothing):
            raise InvalidInputError(problems[0].message)
        self._smoothing = smoothing
        self._last_pos: np.ndarray | None = None
        self._last_time = -math.inf
        self._value = np.zeros((n, dim))
        self._worst_case = True

    def push(self, t: float, positions) -> None:
        pos = np.array(positions, dtype=float)
        if self._last_pos is not None and t > self._last_time:
            diff = (pos - self._last_pos) / (t - self._last_time)
            if self._worst_case:
                self._value = diff
                self._worst_case = False
            else:
                self._value = self._smoothing * diff + (1 - self._smoothing) * self._value
        self._last_pos = pos
        self._last_time = t

    def estimate(self) -> tuple[np.ndarray, bool]:
        """The (n, dim) velocities and whether they are still worst case."""
        return self._value, self._worst_case


# Pair phases, as stored in Watcher.phases, and their names in the log.
TASK, LANDING, LANDED = 0, 1, 2
PHASE_NAMES = ("task", "landing", "landed")


class TrackTable:
    """Piecewise-linear setpoint tracks traversed at constant speed, sampled
    in one array pass, one row per track (zero-padded to the widest
    track's dimensions).

    A track is a (waypoints, speed) pair: one waypoint (or zero speed) is
    a static setpoint, and more cycle forever, so ground tasks keep running
    while their UAV lands.  A leg d's length is sqrt(d.dot(d)), the bits
    np.linalg.norm gives a 1-D float array at a third of its cost.

    Row j of a track's block holds its leg j, and the block's last row its
    last leg again, with NaN lengths between.  sample(t) walks every
    track's legs at once, s = fmod(speed*t, loop length) then s -= length
    leg by leg, takes the first leg with s <= length (the last row, at
    s = its length, when rounding leaves s beyond every leg), and forms
    start + s*direction and direction*speed.  A static track is one leg of
    infinite length and zero direction walked at speed -0.0: start +
    (-0.0 * 0.0) is start, even -0.0, for t >= 0, and its rate 0.0 * 0.0
    is +0.0."""

    def __init__(self, tracks):
        legs, speeds = [], []
        for waypoints, speed in tracks:
            points = [np.asarray(w, dtype=float) for w in waypoints]
            if not points:
                raise InvalidInputError("a track needs at least one waypoint")
            if speed < 0:
                raise InvalidInputError("track speed must be non-negative")
            track_legs = []
            if len(points) > 1 and speed > 0:
                for a, b in zip(points, points[1:] + points[:1]):
                    d = b - a
                    length = math.sqrt(d.dot(d))
                    if length > 0:
                        track_legs.append((a, d / length, length))
            # Per track: walk speed, loop length and rate speed.
            speeds.append((speed, sum(leg[2] for leg in track_legs), speed) if track_legs
                          else (-0.0, math.inf, 0.0))
            legs.append(track_legs or [(points[0], 0.0, math.inf)])
        width = max(map(len, legs)) + 1
        # Per row: the leg's start, then its direction.
        self._legs = np.zeros((len(legs) * width, 2, max(len(leg[0][0]) for leg in legs)))
        self._lengths = np.full((len(legs), width), np.nan)
        for k, track_legs in enumerate(legs):
            for j, (start, direction, length) in zip([*range(len(track_legs)), width - 1],
                                                     track_legs + track_legs[-1:]):
                row = self._legs[k * width + j, :, :len(start)]
                row[0], row[1] = start, direction
                self._lengths[k, j] = length
        self._speed, self._total, self._rate = np.array(speeds, dtype=float).T[:, :, None]
        self._blocks = np.arange(0, len(legs) * width, width)

    def sample(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """The (tracks, dim) setpoint positions and rates at time t."""
        s = self._lengths.copy()   # s before each leg, then the fallback's
        s[:, :1] = np.fmod(self._speed * t, self._total)
        for k in range(1, s.shape[1] - 1):
            np.subtract(s[:, k - 1], self._lengths[:, k - 1], out=s[:, k])
        rows = (s <= self._lengths).argmax(axis=1) + self._blocks  # NaN is never <=
        legs = self._legs.take(rows, axis=0)
        return legs[:, 0] + s.take(rows)[:, None] * legs[:, 1], legs[:, 1] * self._rate


@dataclass(slots=True)
class WatcherRecord:
    """One per-tick, per-agent decision snapshot for the run log (records
    made under the same gate tables share one kind_counts dict)."""

    time: float
    agent_id: str
    active_count: int
    kind_counts: dict[str, int]
    phase: str
    proximal: tuple[str, ...] = ()


def _gated(gates: np.ndarray, first, width: int) -> tuple | None:
    """The (i, j) entries of gates that are on, row-major so that i is
    sorted, and the row of each in its kind's (n * width) rows: agent
    i's block at first (or first[i]) plus the entry's rank among agent i's
    entries.  None when no entry is on."""
    i, j = np.nonzero(gates)
    if not len(i):
        return None
    first = first[i] if np.ndim(first) else first
    return i, j, i * width + first + np.arange(len(i)) - np.searchsorted(i, i)


class _GateTables(NamedTuple):
    """What Watcher._gate_tables derives from the gates and phases; lists run in tick order."""

    key: bytes                          # the gate stack's bytes, then the phases'
    overflow: str | None                # CapacityError's message, if any agent overflows
    active: list[int]                   # active row counts
    # For _scatter: _gated of the ago, aa and gg gates, and each UAV's funnel row.
    cross: tuple | None
    aerial: tuple | None
    ground: tuple | None
    landing: np.ndarray
    kind_counts: list[dict[str, int]]   # rows per kind, in RowKind order
    proximal: list[tuple[str, ...]]     # sorted proximal sets
    chasing: np.ndarray | slice | None  # pairs whose UAV chases its platform (mask_index)
    phases: list[str]                   # each agent's phase name


class Watcher:
    """State and per-tick decision logic of the coordination node.

    phases is the one landing state; every update carries its pair's bit
    of it.  Until the first update with the bit set reaches a landed UAV
    (agents.KindControl), it still flies, retired here: no fresh row covers
    it, and the other UAVs take it to ride its deck, behind their rows
    against its carrier UGV, which keep protecting the docked stack."""

    def __init__(
        self,
        n_pairs: int,
        params: SafetyParams,
        capacity: int,
        tracks,
        *,
        platform_height: float = 0.0,
        ugv_offset: float = 0.1,
        period: float = 0.05,
        max_latency: float = 0.0,
        **options,
    ):
        """tracks holds each agent's (waypoints, speed) pair in tick order;
        options are WatcherOptions fields, absent ones take its defaults."""
        params.require_valid()
        opts = WatcherOptions(**options)
        self.n_pairs = n_pairs
        self.params = params
        self.capacity = capacity
        self.platform_height = platform_height
        self.ugv_offset = ugv_offset
        self.activation_margin = opts.activation_margin
        if self.activation_margin is None:
            self.activation_margin = derived_margin(params.uav_speed_limit, period, max_latency)
        self._touch_l = opts.touchdown_radius_sq
        self._touch_rz = opts.touchdown_height
        self._touch_hold = opts.touchdown_hold

        self.phases = np.full(n_pairs, TASK, dtype=np.int8)
        self._uav_ids = np.array([f"uav{i}" for i in range(n_pairs)], dtype=object)
        self._ugv_ids = np.array([f"ugv{i}" for i in range(n_pairs)], dtype=object)
        self._ids = [agent_id for i in range(n_pairs) for agent_id in (f"uav{i}", f"ugv{i}")]
        self._setpoint_tracks = TrackTable(tracks)
        # Proximal sets list their ids in lexicographic order (uav0, uav1,
        # uav10, ..., ugv0, ...): row a of _prox_cells holds, per id in
        # _prox_ids, the cell of the flattened gate stack that puts agent a,
        # in tick order, against it.
        lex = sorted(range(n_pairs), key=str)
        self._prox_ids = np.concatenate((self._uav_ids[lex], self._ugv_ids[lex]))
        aa, ago, gg = np.arange(3 * n_pairs ** 2).reshape(3, n_pairs, n_pairs)
        self._prox_cells = np.stack((np.hstack((aa, ago)), np.hstack((ago.T, gg))),
                                    axis=1)[:, :, lex + [n_pairs + k for k in lex]].ravel()
        self._prox_ends = np.arange(1, 2 * n_pairs + 1) * 2 * n_pairs  # each row's end
        self._touch_since = np.full(n_pairs, np.nan)   # NaN: outside the window
        self.touchdown_times: dict[int, float] = {}
        # This tick's fleet, indexed by pair: UAV positions (x, y, z), UGV
        # decks (x, y) and UGV offset points (x, y) in one (n, 7) array,
        # and the UGV poses (x, y, theta).  Both are fresh every tick.
        self._fleet = np.zeros((n_pairs, 7))
        self._ugv = np.zeros((n_pairs, 3))
        self._est = VelocityEstimator(n_pairs, 7, opts.smoothing)
        # The operands of the tick's one distance pass, families stacked as
        # (UAV vs UAV, UAV vs other platform, UGV vs UGV): UAVs, UAVs and
        # offset points against UAVs, platform centres and offset points,
        # the offset points at z = 0.  Scratch rewritten every tick; the
        # platforms' deck height is written once.
        self._lhs, self._rhs = np.zeros((2, 3, n_pairs, 3))
        self._rhs[1, :, 2] = platform_height
        self._platforms = self._rhs[1]
        self._hover_z = platform_height + params.hover_clearance
        self._radii = np.array([params.uav_separation, params.uav_ugv_separation,
                                params.ugv_separation])[:, None, None]
        self._activate_at = self._radii + self.activation_margin
        self._deactivate_at = self._activate_at + _PROXIMITY_HYSTERESIS
        # The gate stack, indexed by family and pair: [0][i, j] UAV i vs UAV
        # j and [2][i, j] UGV i vs UGV j (both symmetric), [1][i, j] UAV i vs
        # UGV j (cross layer, not symmetric).
        self._gates = np.zeros((3, n_pairs, n_pairs), dtype=bool)
        self._others = ~np.eye(n_pairs, dtype=bool)
        # An agent's block has capacity rows, or 2n+4 where capacity is larger:
        # a UAV gated against every other pair holds 2n+4 rows, no agent more.
        self._width = width = min(capacity, 2 * n_pairs + 4)
        self._row_starts = np.arange(n_pairs) * width
        # Per vehicle kind (UAV, UGV), the A block every tick starts from:
        # the constant wall gradients in the first rows, zero padding below.
        self._templates = []
        for is_uav, dim in ((True, 3), (False, 2)):
            walls = wall_gradients(is_uav, dim)
            template = np.zeros((n_pairs, width, dim))
            template[:, :len(walls)] = walls
            self._templates.append(template)
        self.tables: _GateTables | None = None   # one object until a gate or phase changes

    # -- event handling -----------------------------------------------------

    def handle_landing_signal(self, pair: int) -> bool:
        """Flip one pair into the landing phase; duplicate signals are no-ops.

        The setpoint switch reaches the UAV with its next tick's update.
        Returns False for rejected signals.
        """
        if not 0 <= pair < self.n_pairs:
            return False
        if self.phases[pair] == LANDED:
            return False  # already down; warn-level no-op
        self.phases[pair] = LANDING  # idempotent while landing
        return True

    # -- proximity gating ---------------------------------------------------

    def proximal_set(self, agent_id: str) -> set[str]:
        """Other agents currently gated active against agent_id."""
        return set(self._gate_tables().proximal[self._ids.index(agent_id)])

    def _gate_tables(self) -> _GateTables:
        """The tables derived from the current gates and phases, rebuilt
        only when either differs from the last build's.  Rows follow
        assemble_constraints' order.  Proximal sets are read off one gate
        matrix: a row per agent and a column per other agent, columns in
        lexicographic id order."""
        gates, phases = self._gates, self.phases
        key = gates.tobytes() + phases.tobytes()
        if self.tables is not None and self.tables.key == key:
            return self.tables
        n, cap, width = self.n_pairs, self.capacity, self._width
        aa, ago, gg = gates
        n_aa, n_ago, n_gg = gates.sum(axis=2)
        active = [r for pair in zip((6 + n_ago + n_aa).tolist(), (4 + n_gg).tolist()) for r in pair]
        overflow = next((f"{agent_id}: {rows} active rows exceed capacity {cap}"
                         for agent_id, rows in zip(self._ids, active) if rows > cap), None)
        kind_counts = []
        for c, r, g in zip(n_ago.tolist(), n_aa.tolist(), n_gg.tolist()):
            uav_counts = {"uav_uav": r, "uav_other_ugv": c, "landing": 1, "workspace": 5}
            ugv_counts = {"ugv_ugv": g, "workspace": 4}
            kind_counts += ({k: v for k, v in uav_counts.items() if v},
                            {k: v for k, v in ugv_counts.items() if v})
        proximal = [()] * (2 * n)
        if gates.any():
            on = np.flatnonzero(gates.take(self._prox_cells))  # by agent, then by column
            ids = self._prox_ids[on % len(self._prox_ids)].tolist()
            ends = on.searchsorted(self._prox_ends).tolist()
            proximal = [tuple(ids[start:end]) for start, end in zip([0] + ends, ends)]
        self.tables = _GateTables(
            key, overflow, active, _gated(ago, 5, width), _gated(aa, 6 + n_ago, width),
            _gated(gg, 4, width), self._row_starts + 5 + n_ago, kind_counts, proximal,
            mask_index(phases != TASK),
            [PHASE_NAMES[phase] for phase in phases.tolist() for _ in (0, 1)])
        return self.tables

    def _hysteresis(self, active: np.ndarray, distance: np.ndarray) -> np.ndarray:
        """Hysteresis gate over the (3, n, n) stack, elementwise: an inactive
        pair activates inside its family's radius + margin and an active one
        deactivates beyond that plus _PROXIMITY_HYSTERESIS, thresholds that
        __init__ adds once."""
        return np.where(active, distance <= self._deactivate_at, distance < self._activate_at)

    def _update_gates(self) -> None:
        """Refresh the gate stack from this tick's distance operands in one
        pass.  The diagonal is off (a pair is never gated against itself),
        and landed UAVs retire from the aerial layer: their rows and
        columns of the UAV gates and their rows of the cross-layer gates
        are off."""
        distance = np.sqrt(pairwise_sq_distances(self._lhs, self._rhs))
        gates = self._hysteresis(self._gates, distance)
        gates &= self._others
        landed = mask_index(self.phases == LANDED)
        if landed is not None:
            gates[:2, landed] = False      # their UAV and cross-layer rows
            gates[0, :, landed] = False    # their UAV columns
        self._gates = gates

    # -- landing ------------------------------------------------------------

    def _check_touchdowns(self, now: float) -> None:
        """Advance the touchdown clocks of the landing pairs; a clock that
        has run for the dwell time lands its pair."""
        landing = (self.phases == LANDING).nonzero()[0]
        if not len(landing):
            return
        r = self._fleet[landing, :3] - self._platforms[landing]
        inside = ((r[:, 0] * r[:, 0] + r[:, 1] * r[:, 1] <= self._touch_l)
                  & (r[:, 2] <= self.params.hover_clearance + self._touch_rz))
        clocks = self._touch_since
        for i, on, since in zip(landing.tolist(), inside.tolist(), clocks[landing].tolist()):
            if not on:
                clocks[i] = math.nan
                continue
            if math.isnan(since):   # the pair just entered the window
                clocks[i] = since = now
            if now - since >= self._touch_hold:
                self.phases[i] = LANDED
                self.touchdown_times[i] = now

    # -- constraint assembly ------------------------------------------------

    def assemble_constraints(self) -> list[tuple[np.ndarray, np.ndarray, list[int]]]:
        """Build every agent's constraint rows in one array pass per barrier
        family: per vehicle kind (UAV, then UGV), its (n, width, dim) A,
        (n, width) b and each agent's active row count, indexed by pair.

        A UAV's rows are its walls, cross-layer rows against other pairs'
        UGVs, its landing funnel and its aerial rows; a UGV's are its walls
        and ground rows.  Gated rows follow the other pair's index in
        ascending order, and rows beyond an agent's count are zero.  Each
        block is fresh, copied from that kind's wall template and never
        reused: agents and in-flight messages still hold earlier ones.
        Which rows go where comes from _gate_tables."""
        n, width = self.n_pairs, self._width
        tables = self._gate_tables()
        if tables.overflow:
            raise CapacityError(tables.overflow)
        fleet = self._fleet
        uav, decks, offsets = fleet[:, :3], fleet[:, 3:5], fleet[:, 5:]
        velocity, worst = self._est.estimate()
        # Per vehicle kind: A and b, with the wall rows in place.
        blocks = []
        for template, pos, is_uav in zip(self._templates, (uav, offsets), (True, False)):
            a, b = template.copy(), np.zeros((n, width))
            walls = build_workspace_rows(pos, self.params, is_uav)
            b[:, :len(walls)] = walls.b
            blocks.append((a, b))
        uav_block, ugv_block = blocks
        self._scatter(uav_block, RowKind.LANDING, tables.landing, uav, decks,
                      velocity[:, 3:5], worst)
        for block, kind, family, own, other, columns in (
                (uav_block, RowKind.UAV_OTHER_UGV, tables.cross, uav, decks, slice(3, 5)),
                (uav_block, RowKind.UAV_UAV, tables.aerial, uav, uav, slice(0, 3)),
                (ugv_block, RowKind.UGV_UGV, tables.ground, offsets, offsets, slice(5, 7))):
            if family is not None:
                i, j, rows = family
                self._scatter(block, kind, rows, own[i], other[j], velocity[j, columns], worst)
        return [(a, b, tables.active[k::2]) for k, (a, b) in enumerate(blocks)]

    def _scatter(self, block, kind: RowKind, rows: np.ndarray, own: np.ndarray,
                 other: np.ndarray, velocity: np.ndarray, worst: bool) -> None:
        """Build one family's rows, own[k] against other[k], in one call, and
        write row k to row rows[k] of the block's (n * width) rows."""
        row_a, row_b, _ = build_constraint_row(
            kind, own, other, velocity, params=self.params,
            platform_height=self.platform_height, worst_case=worst)
        a, b = block
        a.reshape(-1, a.shape[-1])[rows] = row_a
        b.reshape(-1)[rows] = row_b

    # -- setpoints ----------------------------------------------------------

    def _setpoints(self, now: float, chasing) -> tuple[np.ndarray, np.ndarray]:
        """Every agent's setpoint position and rate, agents in tick order
        (uav0, ugv0, uav1, ...), UGV rows zero-padded to three columns.  A
        chasing pair's UAV (landing or landed) chases its moving platform's
        hover point instead of its track; chasing indexes those pairs as
        mask_index does."""
        positions, rates = self._setpoint_tracks.sample(now)
        if chasing is not None:
            uav_positions, uav_rates = positions[0::2], rates[0::2]
            uav_positions[chasing, :2] = self._fleet[chasing, 3:5]
            uav_positions[chasing, 2] = self._hover_z
            v, worst_case = self._est.estimate()
            uav_rates[chasing] = 0.0
            if not worst_case:
                uav_rates[chasing, :2] = v[chasing, 3:5]
        return positions, rates

    # -- main tick ----------------------------------------------------------

    def tick(self, now: float, uav, ugv) -> tuple[list[tuple[str, tuple]],
                                                 list[WatcherRecord]]:
        """Run one coordination cycle on the fleet's (n, 3) UAV positions and
        (n, 3) UGV poses (x, y, theta), indexed by pair; returns the
        (dst, payload) updates to send, in tick order (uav0, ugv0, uav1,
        ...), and the records.

        Each agent gets one update (pose, position, rate, a, b, count,
        landed): its pose (a row of this tick's copy of the fleet), its
        setpoint, its constraint rows (row views of assemble_constraints'
        blocks) and whether its pair is landed, as of this tick's
        touchdowns."""
        n = self.n_pairs
        self._ugv = ugv = np.array(ugv, dtype=float).reshape(n, 3)
        self._fleet = fleet = np.empty((n, 7))
        fleet[:, :3] = np.reshape(uav, (n, 3))
        fleet[:, 3:6] = ugv
        if not np.isfinite(fleet[:, :6]).all():   # every position and heading
            raise InvalidInputError(f"fleet poses must be finite at t={now}")
        fleet[:, 5:] = offset_points(ugv, self.ugv_offset)
        self._est.push(now, fleet)
        lhs, rhs = self._lhs, self._rhs
        lhs[:2] = rhs[0] = fleet[:, :3]
        rhs[1, :, :2] = fleet[:, 3:5]   # the platform centres
        lhs[2, :, :2] = rhs[2, :, :2] = fleet[:, 5:]

        self._check_touchdowns(now)
        landed = (self.phases == LANDED).tolist()
        self._update_gates()

        blocks = self.assemble_constraints()
        tables = self.tables   # as assemble_constraints just used them
        positions, rates = self._setpoints(now, tables.chasing)
        updates = [None] * (2 * n)
        for k, (ids, poses, dim, (a, b, counts)) in enumerate(zip(
                (self._uav_ids, self._ugv_ids), (fleet[:, :3], ugv), (3, 2), blocks)):
            updates[k::2] = zip(ids, zip(
                poses, positions[k::2, :dim], rates[k::2, :dim], a, b, counts, landed))
        records = list(map(WatcherRecord, repeat(now), self._ids, tables.active,
                           tables.kind_counts, tables.phases, tables.proximal))
        return updates, records
