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
5. emits pose, setpoint and constraint-matrix updates over the star bus.

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

import numpy as np

from .barriers import (ConstraintRow, RowKind, SafetyParams,
                       build_constraint_row, build_workspace_rows,
                       offset_points, pairwise_sq_distances, wall_gradients)
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


@dataclass
class ConstraintMatrix:
    """Fixed-capacity constraint block shipped to one agent.

    Rows beyond active_count are identically zero; row order is the order
    documented on Watcher.assemble_constraints.
    """

    agent_id: str
    timestamp: float
    a: np.ndarray               # (capacity, dim), zero-padded
    b: np.ndarray               # (capacity,), zero-padded
    kinds: list[RowKind]
    other_ids: list[str | None]

    @property
    def capacity(self) -> int:
        return self.a.shape[0]

    @property
    def active_count(self) -> int:
        return len(self.kinds)

    def active_rows(self) -> list[ConstraintRow]:
        return [
            ConstraintRow(a=self.a[i], b=float(self.b[i]), kind=self.kinds[i],
                          other_id=self.other_ids[i])
            for i in range(self.active_count)
        ]

    def wire_bytes(self) -> int:
        return self.a.size * 8 + self.b.size * 8 + 16


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
        """Setpoint position and rate at time t."""
        if not self._legs or self._total == 0.0:
            w = self.waypoints[0]
            return w.copy(), np.zeros_like(w)
        s = math.fmod(self.speed * t, self._total)
        for start, direction, length in self._legs:
            if s <= length:
                return start + s * direction, direction * self.speed
            s -= length
        start, direction, length = self._legs[-1]
        return start + length * direction, direction * self.speed


@dataclass
class WatcherRecord:
    """One per-tick, per-agent decision snapshot for the run log."""

    time: float
    agent_id: str
    active_count: int
    kind_counts: dict[str, int]
    phase: str
    proximal: tuple[str, ...] = ()


@dataclass
class Outbound:
    msg_type: MsgType
    dst: str
    payload: object


def _gated(gates: np.ndarray, first) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (i, j) entries of gates that are on, row-major so that i is
    sorted, and the slot of each: first (or first[i]) plus its rank among
    agent i's entries."""
    i, j = np.nonzero(gates)
    if not len(i):
        return i, j, i
    return i, j, (first[i] if np.ndim(first) else first) + np.arange(len(i)) - np.searchsorted(i, i)


# The wall rows that open every UAV and every UGV matrix.
_UAV_WALLS = [RowKind.WORKSPACE] * 5
_UGV_WALLS = [RowKind.WORKSPACE] * 4


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
        self._names = [(f"uav{i}", f"ugv{i}") for i in range(n_pairs)]
        self._uav_ids = np.array([f"uav{i}" for i in range(n_pairs)], dtype=object)
        self._ugv_ids = np.array([f"ugv{i}" for i in range(n_pairs)], dtype=object)
        self._touch_since: dict[int, float | None] = {i: None for i in range(n_pairs)}
        self.touchdown_times: dict[int, float] = {}
        self._pending: list[Outbound] = []
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
        # Gated row counts per pair from the last assembly: cross-layer,
        # aerial and ground rows.
        self._row_counts: tuple[list[int], list[int], list[int]] = ([], [], [])
        self._est_uav = VelocityEstimator(n_pairs, 3, opts.smoothing)
        self._est_ugv_body = VelocityEstimator(n_pairs, 2, opts.smoothing)
        self._est_ugv_offset = VelocityEstimator(n_pairs, 2, opts.smoothing)

    # -- event handling -----------------------------------------------------

    def handle_landing_signal(self, pair: int, now: float) -> bool:
        """Flip one pair into the landing phase; duplicate signals are no-ops.

        Effects (setpoint switch, notification message) materialize on the
        next tick.  Returns False for rejected signals.
        """
        if pair not in self.phases:
            return False
        if self.phases[pair] is PairPhase.LANDED:
            return False  # already down; warn-level no-op
        if self.phases[pair] is PairPhase.LANDING:
            return True  # idempotent
        self.phases[pair] = PairPhase.LANDING
        self._pending.append(Outbound(MsgType.LANDING_SIGNAL, self._names[pair][0], pair))
        return True

    # -- geometry helpers ---------------------------------------------------

    def hover_point(self, pair: int) -> np.ndarray:
        p = self._platforms[pair].copy()
        p[2] += self.params.hover_clearance
        return p

    # -- proximity gating ---------------------------------------------------

    def proximal_set(self, agent_id: str) -> set[str]:
        """Other agents currently gated active against agent_id."""
        pair = int(agent_id[3:])
        if agent_id.startswith("uav"):
            aerial, ground = self._aa[pair], self._ago[pair]
        else:
            aerial, ground = self._ago[:, pair], self._gg[pair]
        return set(self._uav_ids[aerial].tolist()) | set(self._ugv_ids[ground].tolist())

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
                self._pending.append(Outbound(MsgType.TOUCHDOWN_ACK, f"uav{i}", i))

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
        ones."""
        n, cap = self.n_pairs, self.capacity
        n_ago, n_aa, n_gg = (g.sum(axis=1) for g in (self._ago, self._aa, self._gg))
        self._row_counts = cross, aerial, ground = n_ago.tolist(), n_aa.tolist(), n_gg.tolist()
        if max(cross) + max(aerial) + 6 > cap or max(ground) + 4 > cap:
            for names, c, r, g in zip(self._names, cross, aerial, ground):
                for agent_id, rows in zip(names, (6 + c + r, 4 + g)):
                    if rows > cap:
                        raise CapacityError(
                            f"{agent_id}: {rows} active rows exceed capacity {cap}")
        # Per vehicle kind: A and b, with the wall rows in place.
        uav, ugv = blocks = [(template.copy(), np.zeros((n, cap))) for template in self._templates]
        for (a, b), pos, is_uav in ((uav, self._uav, True), (ugv, self._offsets, False)):
            walls = build_workspace_rows(pos, self.params, is_uav)
            b[:, :len(walls)] = walls.b
        decks = self._ugv[:, :2]
        # Each family's other agents, grouped by agent in ascending order.
        cross_ids = self._scatter(uav, RowKind.UAV_OTHER_UGV, *_gated(self._ago, 5),
                                  self._uav, decks, self._est_ugv_body, self._ugv_ids)
        funnel_ids = self._scatter(uav, RowKind.LANDING, self._pairs, self._pairs, 5 + n_ago,
                                   self._uav, decks, self._est_ugv_body, self._ugv_ids)
        aerial_ids = self._scatter(uav, RowKind.UAV_UAV, *_gated(self._aa, 6 + n_ago),
                                   self._uav, self._uav, self._est_uav, self._uav_ids)
        ground_ids = self._scatter(ugv, RowKind.UGV_UGV, *_gated(self._gg, 4),
                                   self._offsets, self._offsets, self._est_ugv_offset,
                                   self._ugv_ids)
        matrices = {}
        (uav_a, uav_b), (ugv_a, ugv_b) = blocks
        c0 = a0 = g0 = 0
        for i, ((uav_id, ugv_id), c, r, g) in enumerate(zip(self._names, cross, aerial, ground)):
            matrices[uav_id] = ConstraintMatrix(
                uav_id, now, uav_a[i], uav_b[i],
                _UAV_WALLS + [RowKind.UAV_OTHER_UGV] * c + [RowKind.LANDING]
                + [RowKind.UAV_UAV] * r,
                [None] * 5 + cross_ids[c0:c0 + c] + [funnel_ids[i]] + aerial_ids[a0:a0 + r])
            matrices[ugv_id] = ConstraintMatrix(
                ugv_id, now, ugv_a[i], ugv_b[i], _UGV_WALLS + [RowKind.UGV_UGV] * g,
                [None] * 4 + ground_ids[g0:g0 + g])
            c0, a0, g0 = c0 + c, a0 + r, g0 + g
        return matrices

    def _scatter(self, block, kind: RowKind, i: np.ndarray, j: np.ndarray, slot,
                 own: np.ndarray, other: np.ndarray, estimator: VelocityEstimator,
                 other_ids: np.ndarray) -> list[str]:
        """Build one family's rows, agent i[k] against agent j[k], in one
        call, and write row k to agent i[k]'s block at slot[k].  Returns
        each row's other agent."""
        if not len(i):
            return []
        velocity, worst = estimator.estimate()
        row = build_constraint_row(kind, own[i], other[j], velocity[j], params=self.params,
                                   platform_height=self.platform_height, worst_case=worst)
        a, b = block
        a[i, slot], b[i, slot] = row.a, row.b
        return other_ids[j].tolist()

    # -- setpoints ----------------------------------------------------------

    def _setpoints(self, pair: int, now: float) -> tuple[tuple, tuple]:
        """The (position, rate) setpoints of the pair's UAV and UGV."""
        uav_id, ugv_id = self._names[pair]
        ugv = self.tracks[ugv_id].sample(now)
        if self.phases[pair] is PairPhase.TASK:
            return self.tracks[uav_id].sample(now), ugv
        # landing and landed: the UAV chases the moving platform's hover point
        v, worst_case = self._est_ugv_body.estimate()
        rate = np.zeros(3) if worst_case else np.array([v[pair, 0], v[pair, 1], 0.0])
        return (self.hover_point(pair), rate), ugv

    # -- main tick ----------------------------------------------------------

    def tick(self, now: float, uav, ugv) -> tuple[list[Outbound], list[WatcherRecord]]:
        """Run one coordination cycle on the fleet's (n, 3) UAV positions and
        (n, 3) UGV poses (x, y, theta), indexed by pair; returns messages to
        send and records."""
        self._uav = np.array(uav, dtype=float).reshape(self.n_pairs, 3)
        self._ugv = ugv = np.array(ugv, dtype=float).reshape(self.n_pairs, 3)
        if not (np.isfinite(self._uav).all() and np.isfinite(ugv).all()):
            raise InvalidInputError(f"fleet poses must be finite at t={now}")
        self._offsets = offset_points(ugv, self.ugv_offset)
        self._platforms = np.column_stack(
            (ugv[:, :2], np.full(self.n_pairs, self.platform_height)))
        self._est_uav.push(now, self._uav)
        self._est_ugv_body.push(now, ugv[:, :2])
        self._est_ugv_offset.push(now, self._offsets)

        self._check_touchdowns(now)
        self._update_gates()

        outbound: list[Outbound] = list(self._pending)
        self._pending = []
        records: list[WatcherRecord] = []
        matrices = self.assemble_constraints(now)
        # An agent's proximal set is empty unless one of its gates is on: a
        # UAV's cross-layer or aerial row, a UGV's ground row or another
        # pair's UAV's cross-layer row against it (cross_in).
        cross, aerial, ground = self._row_counts
        cross_in = self._ago.sum(axis=0).tolist()
        for i, pair_ids in enumerate(self._names):
            phase = self.phases[i].value
            # Row counts per kind in RowKind order, kinds without rows left out.
            uav_counts = {k: c for k, c in (("uav_uav", aerial[i]), ("uav_other_ugv", cross[i]),
                                            ("landing", 1), ("workspace", 5)) if c}
            ugv_counts = {k: c for k, c in (("ugv_ugv", ground[i]), ("workspace", 4)) if c}
            for agent_id, pose, setpoint, kind_counts, gated in zip(
                    pair_ids, (self._uav[i], self._ugv[i]), self._setpoints(i, now),
                    (uav_counts, ugv_counts), (cross[i] + aerial[i], ground[i] + cross_in[i])):
                matrix = matrices[agent_id]
                outbound += (Outbound(MsgType.POSE_UPDATE, agent_id, pose.copy()),
                             Outbound(MsgType.SETPOINT_UPDATE, agent_id, setpoint),
                             Outbound(MsgType.CONSTRAINT_UPDATE, agent_id, matrix))
                records.append(WatcherRecord(
                    time=now, agent_id=agent_id,
                    active_count=matrix.active_count,
                    kind_counts=kind_counts,
                    phase=phase,
                    proximal=tuple(sorted(self.proximal_set(agent_id))) if gated else (),
                ))
        return outbound, records
