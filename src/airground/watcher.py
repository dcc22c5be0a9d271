"""Centralized coordination node.

The watcher is the only component that sees every agent.  Each tick it:

1. ingests the fleet's poses as stacked arrays and refreshes one velocity
   estimator per family (UAVs, UGV bodies, UGV offset points),
2. advances landing phases (signal handling, touchdown detection),
3. decides which separation constraints are locally relevant to each agent
   (distance gate with a hysteresis band so rows do not chatter), holding
   the decisions as three boolean gate matrices over the fleet -- UAV i
   against UAV j, UGV i against UGV j, and UAV i against another pair's
   UGV j -- that are refreshed in one array pass per tick,
4. assembles every agent's fixed-capacity, zero-padded constraint matrix
   in one array pass per barrier family (row order on assemble_constraints),
5. returns one update per agent for the star bus, a (MsgType.UPDATE, dst,
   (pose, position, rate, matrix)) tuple carrying its pose, setpoint and
   matrix together, with the setpoints of all agents sampled from one
   TrackTable and the records' proximal sets read off one gate matrix with
   lexicographic columns.

Gates flip far less often than the fleet moves: what follows from them alone
(row slots and counts, the capacity verdict, kind counts, proximal sets and
row layouts) is rebuilt only when their contents change, in _gate_tables;
the A/b blocks, poses and setpoints are built fresh every tick.

Landing orchestration: a landing signal flips the pair to the `landing`
phase, which switches the UAV's setpoint stream from its task track to the
moving platform.  Touchdown is declared after the UAV holds within tight
horizontal/vertical thresholds for a dwell time; the pair then retires from
the aerial collision set (every UAV-UAV row involving the landed UAV drops,
and the landed UAV keeps only its wall and funnel rows).  Other UAVs keep
their rows against the carrier UGV, which keeps protecting the docked stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .barriers import (RowKind, SafetyParams, build_constraint_row,
                       build_workspace_rows, offset_points,
                       pairwise_sq_distances, wall_gradients)
from .errors import CapacityError, InvalidInputError
from .netsim import MsgType

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


def derived_margin(uav_speed_limit: float, period: float, max_latency: float) -> float:
    """The default activation margin: worst-case closing distance over one
    update interval, padded."""
    return 2.0 * uav_speed_limit * (period + max_latency) + 0.5


class VelocityEstimator:
    """Exponentially smoothed finite differences over one family's poses.

    Tracks n agents as one (n, dim) array, pushed once per watcher tick.  The
    smoother is seeded with the first difference, so constant-velocity data
    is reproduced exactly from the second sample on.  Until that first
    difference the estimate is worst case: the constraint rows assume the
    most adversarial motion within the speed bounds.
    """

    def __init__(self, n: int, dim: int, smoothing: float = WatcherOptions.smoothing):
        if not 0.0 < smoothing <= 1.0:
            raise InvalidInputError("smoothing must be in (0, 1]")
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


class ConstraintMatrix:
    """Fixed-capacity constraint block shipped to one agent.

    Rows beyond active_count are identically zero; row order is the order
    documented on Watcher.assemble_constraints.  kinds and other_ids are
    the active rows' families and other agents: lists given to the
    constructor, or derived on first read from layout, a callable of
    agent_id returning both, which the watcher passes in their place."""

    __slots__ = ("agent_id", "timestamp", "a", "b", "active_count", "_rows")

    def __init__(self, agent_id: str, timestamp: float, a: np.ndarray, b: np.ndarray,
                 kinds: list[RowKind], other_ids: list[str | None],
                 active_count: int | None = None, layout=None):
        self.agent_id, self.timestamp = agent_id, timestamp
        self.a, self.b = a, b                    # (capacity, dim), (capacity,)
        self._rows = layout or (list(kinds), list(other_ids))
        self.active_count = len(kinds) if active_count is None else active_count

    def _laid_out(self) -> tuple[list[RowKind], list[str | None]]:
        if callable(self._rows):
            self._rows = self._rows(self.agent_id)
        return self._rows

    @property
    def kinds(self) -> list[RowKind]:
        return self._laid_out()[0]

    @property
    def other_ids(self) -> list[str | None]:
        return self._laid_out()[1]


class PairPhase(Enum):
    TASK = "task"
    LANDING = "landing"
    LANDED = "landed"


@dataclass
class WaypointTrack:
    """Piecewise-linear setpoint carrot traversed at constant speed.

    A single waypoint (or zero speed) is a static setpoint.  Multi-waypoint
    tracks cycle forever, which is how ground tasks keep running while their
    UAV lands.
    """

    waypoints: list[np.ndarray]
    speed: float = 0.0

    def __post_init__(self):
        self.waypoints = [np.asarray(w, dtype=float) for w in self.waypoints]
        if not self.waypoints:
            raise InvalidInputError("a track needs at least one waypoint")
        if self.speed < 0:
            raise InvalidInputError("track speed must be non-negative")
        self._legs = []
        n = len(self.waypoints)
        if n > 1 and self.speed > 0:
            for i in range(n):
                a = self.waypoints[i]
                d = self.waypoints[(i + 1) % n] - a
                length = float(np.linalg.norm(d))
                if length > 0:
                    self._legs.append((a, d / length, length))
        self._total = sum(leg[2] for leg in self._legs)

    def sample(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Setpoint position and rate at time t: a one-track TrackTable."""
        position, rate = TrackTable([self]).sample(t)
        return position[0], rate[0]


class TrackTable:
    """WaypointTracks sampled in one array pass, each row bit for bit its
    track's sample(t) (zero-padded to the widest track's dimensions).

    Row j of a track's block holds its leg j, and the block's last row its
    last leg again, with NaN lengths between.  sample(t) walks every
    track's legs at once as sample does, fmod then s -= length leg by leg,
    takes the first leg with s <= length (the last row, at s = its length,
    when rounding leaves s beyond every leg), and forms start + s*direction
    and direction*speed.  A static track is one leg of infinite length and
    zero direction walked at speed -0.0: start + (-0.0 * 0.0) is start,
    even -0.0, for t >= 0, and its rate 0.0 * 0.0 is +0.0."""

    def __init__(self, tracks: list[WaypointTrack]):
        legs = [track._legs or [(track.waypoints[0], 0.0, math.inf)] for track in tracks]
        width = max(map(len, legs)) + 1
        # Per row: the leg's start, then its direction.
        self._legs = np.zeros((len(tracks) * width, 2, max(len(leg[0][0]) for leg in legs)))
        self._lengths = np.full((len(tracks), width), np.nan)
        for k, track_legs in enumerate(legs):
            for j, (start, direction, length) in zip([*range(len(track_legs)), width - 1],
                                                     track_legs + track_legs[-1:]):
                row = self._legs[k * width + j, :, :len(start)]
                row[0], row[1] = start, direction
                self._lengths[k, j] = length
        # Per track: walk speed, loop length and rate speed.
        self._speed, self._total, self._rate = np.array(
            [(t.speed, t._total, t.speed) if t._legs else (-0.0, math.inf, 0.0) for t in tracks],
            dtype=float).T[:, :, None]
        self._blocks = np.arange(0, len(tracks) * width, width)

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
    made under the same gates share one kind_counts dict)."""

    time: float
    agent_id: str
    active_count: int
    kind_counts: dict[str, int]
    phase: str
    proximal: tuple[str, ...] = ()


def _gated(gates: np.ndarray, first) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (i, j) entries of gates that are on, row-major so that i is
    sorted, and the slot of each: first (or first[i]) plus its rank among
    agent i's entries."""
    i, j = np.nonzero(gates)
    if not len(i):
        return i, j, i
    return i, j, (first[i] if np.ndim(first) else first) + np.arange(len(i)) - np.searchsorted(i, i)


class _GateTables(NamedTuple):
    """What Watcher._gate_tables derives from the gates alone; lists run in tick order."""

    key: bytes                          # the gates _aa, _ago, _gg, flattened
    overflow: str | None                # CapacityError's message, if any agent overflows
    active: list[int]                   # active row counts
    # For _scatter: _gated of _ago, _aa and _gg, and each pair's landing slot.
    cross: tuple
    aerial: tuple
    ground: tuple
    landing: np.ndarray
    layout: partial                     # ConstraintMatrix's layout callable
    kind_counts: list[dict[str, int]]   # rows per kind, in RowKind order
    proximal: list[tuple[str, ...]]     # sorted proximal sets


# The wall rows that open every UAV and every UGV matrix.
_UAV_WALLS = [RowKind.WORKSPACE] * 5
_UGV_WALLS = [RowKind.WORKSPACE] * 4


def _row_layout(uav_ids: np.ndarray, ugv_ids: np.ndarray, ago: np.ndarray, aa: np.ndarray,
                gg: np.ndarray, agent_id: str) -> tuple[list[RowKind], list[str | None]]:
    """The kinds and other agents of agent_id's rows under the gates ago, aa
    and gg, in Watcher.assemble_constraints' order.  Not a method: the
    watcher keeps its layout, which must not keep the watcher alive."""
    pair = int(agent_id[3:])
    if agent_id.startswith("ugv"):
        ground = ugv_ids[gg[pair]].tolist()
        return _UGV_WALLS + [RowKind.UGV_UGV] * len(ground), [None] * 4 + ground
    cross, aerial = ugv_ids[ago[pair]].tolist(), uav_ids[aa[pair]].tolist()
    return (_UAV_WALLS + [RowKind.UAV_OTHER_UGV] * len(cross) + [RowKind.LANDING]
            + [RowKind.UAV_UAV] * len(aerial),
            [None] * 5 + cross + [f"ugv{pair}"] + aerial)


class Watcher:
    """State and per-tick decision logic of the coordination node."""

    def __init__(
        self,
        n_pairs: int,
        params: SafetyParams,
        capacity: int,
        tracks: dict[str, WaypointTrack],
        *,
        platform_height: float = 0.0,
        ugv_offset: float = 0.1,
        period: float = 0.05,
        max_latency: float = 0.0,
        **options,
    ):
        """options are WatcherOptions fields; absent ones take its defaults."""
        params.require_valid()
        opts = WatcherOptions(**options)
        self.n_pairs = n_pairs
        self.params = params
        self.capacity = capacity
        self.tracks = tracks
        self.platform_height = platform_height
        self.ugv_offset = ugv_offset
        self.period = period
        self.activation_margin = opts.activation_margin
        if self.activation_margin is None:
            self.activation_margin = derived_margin(params.uav_speed_limit, period, max_latency)
        self._touch_l = opts.touchdown_radius_sq
        self._touch_rz = opts.touchdown_height
        self._touch_hold = opts.touchdown_hold

        self.phases = {i: PairPhase.TASK for i in range(n_pairs)}
        self._uav_ids = np.array([f"uav{i}" for i in range(n_pairs)], dtype=object)
        self._ugv_ids = np.array([f"ugv{i}" for i in range(n_pairs)], dtype=object)
        self._ids = [agent_id for i in range(n_pairs) for agent_id in (f"uav{i}", f"ugv{i}")]
        self._setpoint_tracks = TrackTable([tracks[agent_id] for agent_id in self._ids])
        # Proximal sets list their ids in lexicographic order (uav0, uav1,
        # uav10, ..., ugv0, ...): row a of _prox_cells holds, per id in
        # _prox_ids, the cell of the gates _aa, _ago, _gg (flattened) that
        # puts agent a, in tick order, against it.
        lex = sorted(range(n_pairs), key=str)
        self._prox_ids = np.concatenate((self._uav_ids[lex], self._ugv_ids[lex]))
        aa, ago, gg = np.arange(3 * n_pairs ** 2).reshape(3, n_pairs, n_pairs)
        self._prox_cells = np.stack((np.hstack((aa, ago)), np.hstack((ago.T, gg))),
                                    axis=1)[:, :, lex + [n_pairs + k for k in lex]].ravel()
        self._prox_ends = np.arange(1, 2 * n_pairs + 1) * 2 * n_pairs  # each row's end
        self._touch_since: dict[int, float | None] = {i: None for i in range(n_pairs)}
        self.touchdown_times: dict[int, float] = {}
        self._pending: list[tuple[MsgType, str, object]] = []
        # This tick's fleet, indexed by pair: UAV positions, UGV poses
        # (x, y, theta), UGV offset points and platform centres.
        self._uav = np.zeros((n_pairs, 3))
        self._ugv = np.zeros((n_pairs, 3))
        self._offsets = np.zeros((n_pairs, 2))
        self._platforms = np.zeros((n_pairs, 3))
        # Gate matrices, indexed by pair: _aa[i, j] UAV i vs UAV j and
        # _gg[i, j] UGV i vs UGV j (both symmetric), _ago[i, j] UAV i vs
        # UGV j (cross layer, not symmetric).
        self._aa = np.zeros((n_pairs, n_pairs), dtype=bool)
        self._gg = np.zeros((n_pairs, n_pairs), dtype=bool)
        self._ago = np.zeros((n_pairs, n_pairs), dtype=bool)
        self._others = ~np.eye(n_pairs, dtype=bool)
        self._pairs = np.arange(n_pairs)
        # Per vehicle kind (UAV, UGV), the A block every tick starts from:
        # the constant wall gradients in the first rows, zero padding below.
        self._templates = []
        for is_uav, dim in ((True, 3), (False, 2)):
            walls = wall_gradients(is_uav, dim)
            template = np.zeros((n_pairs, capacity, dim))
            template[:, :len(walls)] = walls
            self._templates.append(template)
        self.tables: _GateTables | None = None   # one object until a gate flips
        self._est_uav = VelocityEstimator(n_pairs, 3, opts.smoothing)
        self._est_ugv_body = VelocityEstimator(n_pairs, 2, opts.smoothing)
        self._est_ugv_offset = VelocityEstimator(n_pairs, 2, opts.smoothing)

    # -- event handling -----------------------------------------------------

    def handle_landing_signal(self, pair: int, now: float) -> bool:
        """Flip one pair into the landing phase; duplicate signals are no-ops.

        The setpoint switch reaches the UAV with its next tick's update.
        Returns False for rejected signals.
        """
        if pair not in self.phases:
            return False
        if self.phases[pair] is PairPhase.LANDED:
            return False  # already down; warn-level no-op
        if self.phases[pair] is PairPhase.LANDING:
            return True  # idempotent
        self.phases[pair] = PairPhase.LANDING
        return True

    # -- proximity gating ---------------------------------------------------

    def proximal_set(self, agent_id: str) -> set[str]:
        """Other agents currently gated active against agent_id."""
        return set(self._gate_tables().proximal[self._ids.index(agent_id)])

    def _gate_tables(self) -> _GateTables:
        """The tables derived from the current gates, rebuilt only when their
        contents differ from the last build's.  Rows follow
        assemble_constraints' order.  Proximal sets are read off one gate
        matrix: a row per agent and a column per other agent, columns in
        lexicographic id order."""
        gates = np.concatenate((self._aa, self._ago, self._gg), axis=None)
        key = gates.tobytes()
        if self.tables is not None and self.tables.key == key:
            return self.tables
        n, cap = self.n_pairs, self.capacity
        aa, ago, gg = gates.reshape(3, n, n)   # a copy: later ticks cannot move it
        n_ago, n_aa, n_gg = ago.sum(axis=1), aa.sum(axis=1), gg.sum(axis=1)
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
            key, overflow, active, _gated(ago, 5), _gated(aa, 6 + n_ago), _gated(gg, 4),
            5 + n_ago, partial(_row_layout, self._uav_ids, self._ugv_ids, ago, aa, gg),
            kind_counts, proximal)
        return self.tables

    def _hysteresis(self, active: np.ndarray, distance: np.ndarray,
                    radius: float, allowed: np.ndarray) -> np.ndarray:
        """Hysteresis gate, elementwise: an inactive pair activates inside
        radius + margin and an active one deactivates beyond that plus
        _PROXIMITY_HYSTERESIS."""
        activate_at = radius + self.activation_margin
        return allowed & np.where(active,
                                  distance <= activate_at + _PROXIMITY_HYSTERESIS,
                                  distance < activate_at)

    def _update_gates(self) -> None:
        """Refresh every gate from this tick's fleet arrays.

        Landed UAVs retire from the aerial layer: their rows and columns of
        _aa and their rows of _ago are forced off."""
        p = self.params
        n = self.n_pairs
        others = aerial = cross = self._others
        landed = [i for i in range(n) if self.phases[i] is PairPhase.LANDED]
        if landed:
            flying = np.ones(n, dtype=bool)
            flying[landed] = False
            aerial = others & flying[:, None] & flying[None, :]
            cross = others & flying[:, None]
        d_aa = np.sqrt(pairwise_sq_distances(self._uav, self._uav))
        d_gg = np.sqrt(pairwise_sq_distances(self._offsets, self._offsets))
        d_ago = np.sqrt(pairwise_sq_distances(self._uav, self._platforms))
        self._aa = self._hysteresis(self._aa, d_aa, p.uav_separation, aerial)
        self._gg = self._hysteresis(self._gg, d_gg, p.ugv_separation, others)
        self._ago = self._hysteresis(self._ago, d_ago, p.uav_ugv_separation, cross)

    # -- landing ------------------------------------------------------------

    def _check_touchdowns(self, now: float) -> None:
        for i in range(self.n_pairs):
            if self.phases[i] is not PairPhase.LANDING:
                continue
            r = self._uav[i] - self._platforms[i]
            l = float(r[0] * r[0] + r[1] * r[1])
            inside = (l <= self._touch_l
                      and r[2] <= self.params.hover_clearance + self._touch_rz)
            if not inside:
                self._touch_since[i] = None
                continue
            if self._touch_since[i] is None:
                self._touch_since[i] = now
            if now - self._touch_since[i] >= self._touch_hold:
                self.phases[i] = PairPhase.LANDED
                self.touchdown_times[i] = now
                self._pending.append((MsgType.TOUCHDOWN_ACK, f"uav{i}", i))

    # -- constraint assembly ------------------------------------------------

    def assemble_constraints(self, now: float) -> dict[str, ConstraintMatrix]:
        """Build every agent's matrix, keyed uav0, ugv0, uav1, ..., in one
        array pass per barrier family.

        A UAV's rows are its walls, cross-layer rows against other pairs'
        UGVs, its landing funnel and its aerial rows; a UGV's are its walls
        and ground rows.  Gated rows follow the other pair's index in
        ascending order.  Each matrix is a view into one fresh, zero-padded
        block per vehicle kind, copied from that kind's wall template and
        never reused: agents and in-flight messages still hold earlier
        ones.  Which rows go where comes from _gate_tables."""
        n, cap = self.n_pairs, self.capacity
        tables = self._gate_tables()
        if tables.overflow:
            raise CapacityError(tables.overflow)
        # Per vehicle kind: A and b, with the wall rows in place.
        uav, ugv = blocks = [(template.copy(), np.zeros((n, cap))) for template in self._templates]
        for (a, b), pos, is_uav in ((uav, self._uav, True), (ugv, self._offsets, False)):
            walls = build_workspace_rows(pos, self.params, is_uav)
            b[:, :len(walls)] = walls.b
        decks = self._ugv[:, :2]
        self._scatter(uav, RowKind.UAV_OTHER_UGV, *tables.cross,
                      self._uav, decks, self._est_ugv_body)
        self._scatter(uav, RowKind.LANDING, self._pairs, self._pairs, tables.landing,
                      self._uav, decks, self._est_ugv_body)
        self._scatter(uav, RowKind.UAV_UAV, *tables.aerial,
                      self._uav, self._uav, self._est_uav)
        self._scatter(ugv, RowKind.UGV_UGV, *tables.ground,
                      self._offsets, self._offsets, self._est_ugv_offset)
        # kinds and other_ids come from this tick's gates when first read.
        matrices = [None] * (2 * n)
        for k, ((a, b), ids) in enumerate(((uav, self._uav_ids), (ugv, self._ugv_ids))):
            matrices[k::2] = map(ConstraintMatrix, ids, repeat(now), a, b, repeat(None),
                                 repeat(None), tables.active[k::2], repeat(tables.layout))
        return dict(zip(self._ids, matrices))

    def _scatter(self, block, kind: RowKind, i: np.ndarray, j: np.ndarray, slot,
                 own: np.ndarray, other: np.ndarray, estimator: VelocityEstimator) -> None:
        """Build one family's rows, agent i[k] against agent j[k], in one
        call, and write row k to agent i[k]'s block at slot[k]."""
        if not len(i):
            return
        velocity, worst = estimator.estimate()
        row = build_constraint_row(kind, own[i], other[j], velocity[j], params=self.params,
                                   platform_height=self.platform_height, worst_case=worst)
        a, b = block
        a[i, slot], b[i, slot] = row.a, row.b

    # -- setpoints ----------------------------------------------------------

    def _setpoints(self, now: float) -> tuple[np.ndarray, np.ndarray]:
        """Every agent's setpoint position and rate, agents in tick order
        (uav0, ugv0, uav1, ...), UGV rows zero-padded to three columns.  A
        landing or landed pair's UAV chases its moving platform's hover
        point instead of its track."""
        positions, rates = self._setpoint_tracks.sample(now)
        chasing = [i for i, phase in self.phases.items() if phase is not PairPhase.TASK]
        if chasing:
            rows = 2 * np.array(chasing)
            positions[rows] = self._platforms[chasing]
            positions[rows, 2] += self.params.hover_clearance
            rates[rows] = 0.0
            v, worst_case = self._est_ugv_body.estimate()
            if not worst_case:
                rates[rows, :2] = v[chasing]
        return positions, rates

    # -- main tick ----------------------------------------------------------

    def tick(self, now: float, uav, ugv) -> tuple[list[tuple[MsgType, str, object]],
                                                 list[WatcherRecord]]:
        """Run one coordination cycle on the fleet's (n, 3) UAV positions and
        (n, 3) UGV poses (x, y, theta), indexed by pair; returns the
        (msg_type, dst, payload) messages to send and the records.

        Each agent gets one update (pose, position, rate, matrix): its pose
        (a row of this tick's copy of the fleet), its setpoint and its
        matrix.  Touchdown acknowledgements come first, then the updates in
        tick order (uav0, ugv0, uav1, ...)."""
        n = self.n_pairs
        self._uav = np.array(uav, dtype=float).reshape(n, 3)
        self._ugv = ugv = np.array(ugv, dtype=float).reshape(n, 3)
        if not (np.isfinite(self._uav).all() and np.isfinite(ugv).all()):
            raise InvalidInputError(f"fleet poses must be finite at t={now}")
        self._offsets = offset_points(ugv, self.ugv_offset)
        self._platforms = np.column_stack((ugv[:, :2], np.full(n, self.platform_height)))
        self._est_uav.push(now, self._uav)
        self._est_ugv_body.push(now, ugv[:, :2])
        self._est_ugv_offset.push(now, self._offsets)

        self._check_touchdowns(now)
        self._update_gates()

        matrices = list(self.assemble_constraints(now).values())
        positions, rates = self._setpoints(now)
        updates = [None] * (2 * n)
        for k, (ids, poses, dim) in enumerate(((self._uav_ids, self._uav, 3),
                                                (self._ugv_ids, ugv, 2))):
            updates[k::2] = zip(repeat(MsgType.UPDATE), ids, zip(
                poses, positions[k::2, :dim], rates[k::2, :dim], matrices[k::2]))
        outbound, self._pending = self._pending + updates, []
        tables = self.tables   # as assemble_constraints just used them
        phases = [self.phases[i].value for i in range(n)]
        records = list(map(WatcherRecord, repeat(now), self._ids, tables.active,
                           tables.kind_counts, [p for p in phases for _ in (0, 1)],
                           tables.proximal))
        return outbound, records
