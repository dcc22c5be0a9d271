"""Reference implementations the package's faster or merged code replaced.

* The per-pair Python loops of the fleet-level pairwise geometry, from before
  gates and barriers were evaluated as arrays.
* The QP entry points that stacked their rows with their own box encoding
  (interleaved +e_j / -e_j rows) before project_with_box became the one
  core; and the brute-force enumeration of active sets (oracle_solve), the
  exact reference every QP entry point is checked against.
* The per-agent velocity estimator, with its stale-history fallback, from
  before the watcher kept one estimator per family.
* The per-unit control unit, one object per agent with its update slot,
  its UgvState view and nid_offset control point, nominal controller,
  and projection, from before a vehicle kind's
  units were held as arrays and filtered as one batch; the control unit
  that solved its safety filter on every control tick, from before it
  reused the solution until an input slot was replaced; and its per-slot
  staleness test, from before the one rule on the oldest stamp.
* The active-set projection whose first step, on an empty working set,
  went through the blocking-step search and the multiplier update, from
  before that step was taken directly.
* The runner's per-agent trajectory rows, eight fmt9 calls each, from
  before the rows were formatted a block at a time.
* The per-vehicle kinematic steps on state objects, and the simulator's
  per-agent integration loop over them, from before the fleet was stepped
  as arrays; a UGV holding an offset-point velocity steps as the scalar
  inverse offset map at its current heading followed by the Euler step
  (step_ugv_held).
* The watcher's per-row constraint assembly: one scalar barrier row object
  per gated pair, copied into each agent's matrix, from before every
  family's rows were built in one array pass per tick; and its per-agent
  row counts, one list count per row kind, from before they came from the
  gate matrices' row sums.
* The star bus's per-message draws, one scalar Generator.uniform() call
  per drop or jitter draw, and its recursive wire sizes, from before each
  link drew its uniforms in blocks; and its isinstance chain of payload
  sizes, from before payloads were sized by exact type.
* WaypointTrack.sample's walk over one track's legs in Python floats,
  from before tracks were sampled as one TrackTable.
* The watcher's per-agent fan-out: a copied pose, a setpoint sampled
  from the agent's own track (or its pair's hover point, hover_point), a
  matrix and a record built per agent, its proximal set
  sorted from proximal_set, from before the tick's updates, setpoints,
  proximal sets and records were built from its arrays.
* The unicycle's inverse offset map on one heading and one offset
  velocity, from before nid_inverse took a lane axis.

The equivalence tests require the package to reproduce them exactly, bit
for bit.
"""

from __future__ import annotations

import heapq
import itertools
import math
import zlib
from dataclasses import dataclass, fields
from enum import Enum
from types import SimpleNamespace

import numpy as np

from airground import qp
from airground.agents import (UAV, UGV, Command, Gains, TickTelemetry,
                              data_stale, nominal_velocity,
                              wrap_angle)
from airground.barriers import ConstraintRow, RowKind, SafetyParams
from airground.errors import (CapacityError, IncompleteInputError,
                              InvalidInputError)
from airground.logfmt import fmt9
from airground.netsim import WATCHER_ID, LinkModel, LinkStats, Message, MsgType
from airground.qp import (_DEP_TOL, _FEAS_TOL, RELAXATION_WEIGHT, QpSolution,
                          _blocking_step, _project)
from airground.watcher import ConstraintMatrix, PairPhase, WatcherRecord

_PROXIMITY_HYSTERESIS = 0.1


@dataclass
class Sample:
    kind: str          # uav | ugv
    x: float
    y: float
    z: float
    theta: float
    status: str


def scalar_view(cfg) -> SimpleNamespace:
    """The flat constants scalar_tick_barriers reads: every SafetyParams
    field, the workspace bounds' fields, ugv_offset and platform_height of a
    scenario config (or any object with those attributes)."""
    safety = cfg.safety
    return SimpleNamespace(
        **{f.name: getattr(safety, f.name) for f in fields(safety) if f.name != "bounds"},
        **{f.name: getattr(safety.bounds, f.name) for f in fields(safety.bounds)},
        ugv_offset=cfg.ugv_offset, platform_height=cfg.platform_height)


def _offset_point(view, s: Sample) -> tuple[float, float]:
    return (s.x + view.ugv_offset * math.cos(s.theta),
            s.y + view.ugv_offset * math.sin(s.theta))


def _funnel_h(view, uav: Sample, ugv: Sample) -> float:
    rx = uav.x - ugv.x
    ry = uav.y - ugv.y
    rz = uav.z - view.platform_height
    l = rx * rx + ry * ry
    a = view.funnel_sharpness
    return (rz - view.funnel_height * a * l * math.exp(-a * l)
            - view.hover_clearance)


def scalar_tick_barriers(view, snapshot: dict[str, Sample]
                         ) -> tuple[dict[str, float], dict[str, float], dict[str, float]]:
    """One tick: (per-agent min h, per-family min h, per-kind min distance)."""
    per_agent = {aid: math.inf for aid in snapshot}
    family: dict[str, float] = {}
    dist: dict[str, float] = {}

    def feed(agent_id: str, fam: str, h: float) -> None:
        if h < per_agent[agent_id]:
            per_agent[agent_id] = h
        if h < family.get(fam, math.inf):
            family[fam] = h

    def feed_dist(kind: str, d: float) -> None:
        if d < dist.get(kind, math.inf):
            dist[kind] = d

    uav_ids = sorted(a for a, s in snapshot.items() if s.kind == "uav")
    ugv_ids = sorted(a for a, s in snapshot.items() if s.kind == "ugv")

    for aid in uav_ids:
        s = snapshot[aid]
        feed(aid, "workspace", view.x_max - s.x)
        feed(aid, "workspace", s.x - view.x_min)
        feed(aid, "workspace", view.y_max - s.y)
        feed(aid, "workspace", s.y - view.y_min)
        feed(aid, "workspace", view.z_max - s.z)
        own = "ugv" + aid[3:]
        if own in snapshot:
            feed(aid, "landing", _funnel_h(view, s, snapshot[own]))
    for aid in ugv_ids:
        s = snapshot[aid]
        ox, oy = _offset_point(view, s)
        feed(aid, "workspace", view.x_max - ox)
        feed(aid, "workspace", ox - view.x_min)
        feed(aid, "workspace", view.y_max - oy)
        feed(aid, "workspace", oy - view.y_min)

    flying = [a for a in uav_ids if snapshot[a].status != "landed"]
    for i, ai in enumerate(flying):
        si = snapshot[ai]
        for aj in flying[i + 1:]:
            sj = snapshot[aj]
            dx, dy, dz = si.x - sj.x, si.y - sj.y, si.z - sj.z
            d2 = dx * dx + dy * dy + dz * dz
            h = d2 - view.uav_separation ** 2
            feed(ai, "uav_uav", h)
            feed(aj, "uav_uav", h)
            feed_dist("uav_uav", math.sqrt(d2))
        own = "ugv" + ai[3:]
        for gj in ugv_ids:
            if gj == own:
                continue
            sg = snapshot[gj]
            dx = si.x - sg.x
            dy = si.y - sg.y
            dz = si.z - view.platform_height
            d2 = dx * dx + dy * dy + dz * dz
            h = d2 - view.uav_ugv_separation ** 2
            feed(ai, "uav_other_ugv", h)
            feed_dist("uav_ugv", math.sqrt(d2))
    for i, gi in enumerate(ugv_ids):
        oxi, oyi = _offset_point(view, snapshot[gi])
        for gj in ugv_ids[i + 1:]:
            oxj, oyj = _offset_point(view, snapshot[gj])
            dx, dy = oxi - oxj, oyi - oyj
            d2 = dx * dx + dy * dy
            h = d2 - view.ugv_separation ** 2
            feed(gi, "ugv_ugv", h)
            feed(gj, "ugv_ugv", h)
            feed_dist("ugv_ugv", math.sqrt(d2))

    return per_agent, family, dist


class DictGates:
    """Distance gates with hysteresis, one dict entry per pair.

    Keys are (family, id_a, id_b) with the symmetric families stored under
    the sorted ids; "ago" keys are (UAV, other pair's UGV)."""

    def __init__(self, n_pairs: int, params, activation_margin: float,
                 ugv_offset: float, platform_height: float):
        self.n_pairs = n_pairs
        self.params = params
        self.activation_margin = activation_margin
        self.ugv_offset = ugv_offset
        self.platform_height = platform_height
        self.active: dict[tuple[str, str, str], bool] = {}

    def _gate(self, kind, id_a, id_b, distance, radius):
        key = (kind, id_a, id_b) if id_a < id_b else (kind, id_b, id_a)
        activate_at = radius + self.activation_margin
        active = self.active.get(key, False)
        if active:
            active = distance <= activate_at + _PROXIMITY_HYSTERESIS
        else:
            active = distance < activate_at
        self.active[key] = active

    def _offset_point(self, pose):
        return np.array([pose[0] + self.ugv_offset * math.cos(pose[2]),
                         pose[1] + self.ugv_offset * math.sin(pose[2])])

    def update(self, poses: dict[str, np.ndarray], landed: list[bool]) -> None:
        p = self.params
        for i in range(self.n_pairs):
            uav_i = f"uav{i}"
            for j in range(i + 1, self.n_pairs):
                if not landed[i] and not landed[j]:
                    d = float(np.linalg.norm(poses[uav_i] - poses[f"uav{j}"]))
                    self._gate("aa", uav_i, f"uav{j}", d, p.uav_separation)
                else:
                    self.active[("aa", *sorted((uav_i, f"uav{j}")))] = False
                d = float(np.linalg.norm(self._offset_point(poses[f"ugv{i}"])
                                         - self._offset_point(poses[f"ugv{j}"])))
                self._gate("gg", f"ugv{i}", f"ugv{j}", d, p.ugv_separation)
            for j in range(self.n_pairs):
                if j == i:
                    continue
                key = ("ago", uav_i, f"ugv{j}")
                if landed[i]:
                    self.active[key] = False
                    continue
                g = poses[f"ugv{j}"]
                platform = np.array([g[0], g[1], self.platform_height])
                d = float(np.linalg.norm(poses[uav_i] - platform))
                active_at = p.uav_ugv_separation + self.activation_margin
                if self.active.get(key, False):
                    self.active[key] = d <= active_at + _PROXIMITY_HYSTERESIS
                else:
                    self.active[key] = d < active_at

    def proximal_set(self, agent_id: str) -> set[str]:
        out = set()
        for (kind, a, b), active in self.active.items():
            if active and agent_id in (a, b):
                out.add(b if agent_id == a else a)
        return out

    def row_order(self, agent_id: str) -> list[str | None]:
        """other_id of each row of the agent's matrix, in assembly order:
        walls, cross-layer or ground rows, funnel, aerial rows."""
        pair = int(agent_id[3:])
        if agent_id.startswith("uav"):
            cross = [f"ugv{j}" for j in range(self.n_pairs)
                     if self.active.get(("ago", agent_id, f"ugv{j}"), False)]
            aerial = [f"uav{j}" for j in range(self.n_pairs) if j != pair
                      and self.active.get(("aa", *sorted((agent_id, f"uav{j}"))),
                                          False)]
            return [None] * 5 + cross + [f"ugv{pair}"] + aerial
        ground = [f"ugv{j}" for j in range(self.n_pairs) if j != pair
                  and self.active.get(("gg", *sorted((agent_id, f"ugv{j}"))), False)]
        return [None] * 4 + ground


def _stack(A: np.ndarray, b: np.ndarray, limit: float) -> tuple[np.ndarray, np.ndarray]:
    """All halfspaces a . u >= -b as arrays: barrier rows first, then the box
    encoded as axis-aligned rows (so minimal invasiveness holds jointly)."""
    rows_a, rows_b = list(A), list(b)
    eye = np.eye(A.shape[1])
    for e in eye:
        rows_a.append(e)
        rows_b.append(limit)
        rows_a.append(-e)
        rows_b.append(limit)
    return np.array(rows_a), np.array(rows_b, dtype=float)


def stacked_project(z: np.ndarray, A: np.ndarray, b: np.ndarray,
                    limit: float) -> tuple[np.ndarray | None, int]:
    """project_with_box() over the interleaved box encoding."""
    return _project(z, *_stack(A, b, limit))


def stacked_solve_relaxed(z: np.ndarray, A: np.ndarray, b: np.ndarray,
                          limit: float) -> QpSolution:
    """solve_relaxed() lifting the interleaved box encoding."""
    mc, n = A.shape
    if mc == 0:
        u, iters = stacked_project(z, A, b, limit)
        return QpSolution(u_star=u, max_violation=0.0, iterations=iters)
    sw = np.sqrt(RELAXATION_WEIGHT)
    A_rows, b_rows = _stack(A, b, limit)
    dim = n + mc
    A = np.zeros((A_rows.shape[0] + mc, dim))
    b = np.zeros(A_rows.shape[0] + mc)
    A[: A_rows.shape[0], :n] = A_rows
    b[: A_rows.shape[0]] = b_rows
    for i in range(mc):
        A[i, n + i] = 1.0 / sw
        A[A_rows.shape[0] + i, n + i] = 1.0
    z_lift = np.concatenate([z, np.zeros(mc)])
    u_lift, iters = _project(z_lift, A, b)
    if u_lift is None:
        raise RuntimeError("relaxed problem reported infeasible")
    slacks = u_lift[n:] / sw
    return QpSolution(u_star=u_lift[:n], max_violation=max(0.0, float(slacks.max())),
                      iterations=iters)


_COMBO_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _combos(m: int, k: int) -> np.ndarray:
    key = (m, k)
    if key not in _COMBO_CACHE:
        _COMBO_CACHE[key] = np.array(list(itertools.combinations(range(m), k)), dtype=int)
    return _COMBO_CACHE[key]


def oracle_solve(z: np.ndarray, A: np.ndarray, b: np.ndarray,
                 limit) -> np.ndarray | None:
    """Exact reference projection of z onto {A u + b >= 0, |u_j| <= limit_j}
    (limit a scalar or one per axis) by enumerating candidate active sets,
    or None when that polytope is empty.

    Every subset of up to n rows is treated as equalities; the resulting
    least-distance point is kept if it satisfies all rows, and the feasible
    candidate closest to the nominal is returned.  The true projection's
    active set (reduced to a maximal independent subset) is always among the
    candidates, so no feasible candidate at all certifies emptiness.
    Practical up to ~16 rows.
    """
    n = len(z)
    lim = np.broadcast_to(np.asarray(limit, dtype=float), (n,))
    A = np.concatenate([A, np.eye(n), -np.eye(n)])
    b = np.concatenate([b, lim, lim])
    # Normalize row scales so singularity thresholds are geometric.
    norms = np.linalg.norm(A, axis=1)
    degenerate = norms < 1e-14
    if np.any(degenerate) and np.any(b[degenerate] < -_FEAS_TOL):
        return None
    keep = np.where(~degenerate)[0]
    An = A[keep] / norms[keep, None]
    bn = b[keep] / norms[keep]
    mk = len(keep)

    scale = max(1.0, float(np.abs(bn).max()) if mk else 1.0)
    feas_tol = 1e-9 * scale
    best_u = None
    best_obj = np.inf

    def consider(us: np.ndarray):
        nonlocal best_u, best_obj
        feas = np.all(An @ us.T + bn[:, None] >= -feas_tol, axis=0)
        if not np.any(feas):
            return
        objs = np.einsum("ij,ij->i", us - z, us - z)
        objs = np.where(feas, objs, np.inf)
        i = int(np.argmin(objs))
        if objs[i] < best_obj:
            best_obj = objs[i]
            best_u = us[i]

    consider(z[None, :])
    for k in range(1, min(n, mk) + 1):
        idx = _combos(mk, k)
        if idx.size == 0:
            continue
        sub_a = An[idx]                       # (S, k, n)
        sub_b = bn[idx]                       # (S, k)
        gram = sub_a @ sub_a.transpose(0, 2, 1)
        if k == 1:
            det = gram[:, 0, 0]
        elif k == 2:
            det = gram[:, 0, 0] * gram[:, 1, 1] - gram[:, 0, 1] * gram[:, 1, 0]
        else:
            det = (
                gram[:, 0, 0] * (gram[:, 1, 1] * gram[:, 2, 2] - gram[:, 1, 2] * gram[:, 2, 1])
                - gram[:, 0, 1] * (gram[:, 1, 0] * gram[:, 2, 2] - gram[:, 1, 2] * gram[:, 2, 0])
                + gram[:, 0, 2] * (gram[:, 1, 0] * gram[:, 2, 1] - gram[:, 1, 1] * gram[:, 2, 0])
            )
        ok = np.abs(det) > 1e-10
        if not np.any(ok):
            continue
        sub_a = sub_a[ok]
        rhs = -(sub_b[ok] + np.einsum("skn,n->sk", sub_a, z))
        try:
            nu = np.linalg.solve(gram[ok], rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            # A member slipped past the determinant screen; solve one by one
            # and drop the genuinely singular subsets.
            grams = gram[ok]
            rows = []
            for s in range(grams.shape[0]):
                try:
                    rows.append((s, np.linalg.solve(grams[s], rhs[s])))
                except np.linalg.LinAlgError:
                    pass
            if not rows:
                continue
            sel = [s for s, _ in rows]
            sub_a = sub_a[sel]
            nu = np.stack([x for _, x in rows])
        us = z[None, :] + np.einsum("sk,skn->sn", nu, sub_a)
        consider(us)
    return best_u


class VelQuality(Enum):
    FRESH = "fresh"           # single finite difference so far
    SMOOTHED = "smoothed"     # blend of two or more differences
    WORST_CASE = "worst_case"  # stale or insufficient history


@dataclass
class VelocityEstimate:
    v: np.ndarray
    age: float
    quality: VelQuality


class AgentVelocityEstimator:
    """Exponentially smoothed finite differences over one agent's poses.

    Histories older than stale_after fall back to worst-case quality with
    the smoothed value clipped to speed_bound.
    """

    def __init__(self, dim: int, smoothing: float = 0.7, stale_after: float = 0.2,
                 speed_bound: float = 1.0):
        if not 0.0 < smoothing <= 1.0:
            raise InvalidInputError("smoothing must be in (0, 1]")
        self._dim = dim
        self._smoothing = smoothing
        self._stale_after = stale_after
        self._bound = speed_bound
        self._last_pos: np.ndarray | None = None
        self._last_time = -math.inf
        self._value: np.ndarray | None = None
        self._n_diffs = 0

    def push(self, t: float, position) -> None:
        pos = np.asarray(position, dtype=float)
        if self._last_pos is not None and t > self._last_time:
            diff = (pos - self._last_pos) / (t - self._last_time)
            if self._value is None:
                self._value = diff
                self._n_diffs = 1
            else:
                self._value = self._smoothing * diff + (1 - self._smoothing) * self._value
                self._n_diffs += 1
        self._last_pos = pos
        self._last_time = t

    def estimate(self, now: float) -> VelocityEstimate:
        if self._value is None:
            return VelocityEstimate(np.zeros(self._dim), math.inf, VelQuality.WORST_CASE)
        age = now - self._last_time
        if age > self._stale_after:
            clipped = np.clip(self._value, -self._bound, self._bound)
            return VelocityEstimate(clipped, age, VelQuality.WORST_CASE)
        quality = VelQuality.FRESH if self._n_diffs == 1 else VelQuality.SMOOTHED
        return VelocityEstimate(self._value.copy(), age, quality)


@dataclass
class UgvState:
    """One UGV's pose, its heading wrapped, with the unit's offset and
    half axle track."""

    x: float
    y: float
    theta: float                  # heading, wrapped to (-pi, pi]
    offset: float = 0.1           # forward offset of the control point (m)
    wheel_base: float = 0.2       # half axle track L (m)

    def __post_init__(self):
        if self.offset <= 0:
            raise InvalidInputError("offset must be positive")
        if self.wheel_base <= 0:
            raise InvalidInputError("wheel_base must be positive")
        self.theta = wrap_angle(self.theta)


def nid_offset(state: UgvState) -> np.ndarray:
    """Offset point ahead of the vehicle along its heading."""
    return np.array([
        state.x + state.offset * math.cos(state.theta),
        state.y + state.offset * math.sin(state.theta),
    ])


@dataclass
class _Slot:
    value: object = None
    stamp: float = -math.inf


class ScalarControlUnit:
    """One agent's control unit as an object: slots, a cached solution,
    and the nominal controller and projection of that one unit."""

    def __init__(self, agent_id: str, kind: str, gains: Gains,
                 params: SafetyParams, hold_timeout: float = 0.25,
                 offset: float = 0.1, wheel_base: float = 0.2):
        if kind not in (UAV, UGV):
            raise InvalidInputError(f"kind must be 'uav' or 'ugv', got {kind!r}")
        self.agent_id = agent_id
        self.kind = kind
        self.gains = gains
        self.params = params
        self.hold_timeout = hold_timeout
        self.offset = offset
        self.wheel_base = wheel_base
        self.landed = False
        self._update = _Slot()              # (pose, position, rate, matrix)
        self._solved: tuple | None = None   # (u, status, iters, violation)

    @property
    def speed_limit(self) -> float:
        return (self.params.uav_speed_limit if self.kind == UAV
                else self.params.ugv_speed_limit)

    def on_update(self, pose, position, rate, matrix, stamp: float) -> None:
        if stamp >= self._update.stamp:
            self._update = _Slot((np.asarray(pose, dtype=float),
                                  np.asarray(position, dtype=float),
                                  np.asarray(rate, dtype=float), matrix), stamp)
            self._solved = None

    def on_touchdown_ack(self) -> None:
        if self.kind == UAV:
            self.landed = True

    def _zero(self) -> np.ndarray:
        return np.zeros(3 if self.kind == UAV else 2)

    def _data_stale(self, now: float) -> bool:
        return data_stale(now, self._update.stamp, self.hold_timeout)

    def tick(self, now: float) -> tuple[Command, TickTelemetry]:
        if self.landed:
            u = self._zero()
            return (Command(u=u), TickTelemetry(now, self.agent_id, "landed",
                                                False, u))
        if self._data_stale(now):
            u = self._zero()
            return (Command(u=u, hold=True),
                    TickTelemetry(now, self.agent_id, "hold", True, u))

        if self._solved is None:
            self._solved = self._solve()
        u, status, iterations, violation = self._solved
        u = u.copy()  # callers get their own array; the cached one stays intact
        return (Command(u=u),
                TickTelemetry(now, self.agent_id, status, False, u,
                              iterations, violation))

    def _solve(self) -> tuple:
        pose, setpoint, rate, matrix = self._update.value
        if self.kind == UAV:
            current = pose
            ugv_view = None
        else:
            ugv_view = UgvState(pose[0], pose[1], pose[2], offset=self.offset,
                                wheel_base=self.wheel_base)
            current = nid_offset(ugv_view)
        u_nom = nominal_velocity(current, setpoint, rate, self.gains, self.speed_limit)
        n_active = matrix.active_count
        u, iterations = qp.project_with_box(
            u_nom, matrix.a[:n_active], matrix.b[:n_active], self.speed_limit)
        violation = 0.0
        status = "optimal"
        if u is None:  # infeasible: escalate to the slack relaxation
            sol = qp.solve_relaxed(u_nom, matrix.a[:n_active], matrix.b[:n_active],
                                   self.speed_limit)
            u, iterations = sol.u_star, sol.iterations
            violation = sol.max_violation
            status = "relaxed"
        return u, status, iterations, violation


class UncachedControlUnit(ScalarControlUnit):
    """A control unit that runs the nominal controller and the QP filter on
    every tick that is neither landed nor stale."""

    def tick(self, now: float) -> tuple[Command, TickTelemetry]:
        if self.landed:
            u = self._zero()
            return (Command(u=u), TickTelemetry(now, self.agent_id, "landed",
                                                False, u))
        if self._data_stale(now):
            u = self._zero()
            return (Command(u=u, hold=True),
                    TickTelemetry(now, self.agent_id, "hold", True, u))

        pose, setpoint, rate, matrix = self._update.value
        if self.kind == UAV:
            current = pose
        else:
            current = nid_offset(UgvState(pose[0], pose[1], pose[2], offset=self.offset,
                                          wheel_base=self.wheel_base))
        u_nom = nominal_velocity(current, setpoint, rate, self.gains, self.speed_limit)
        n_active = matrix.active_count
        u, iterations = qp.project_with_box(
            u_nom, matrix.a[:n_active], matrix.b[:n_active], self.speed_limit)
        violation = 0.0
        status = "optimal"
        if u is None:  # infeasible: escalate to the slack relaxation
            sol = qp.solve_relaxed(u_nom, matrix.a[:n_active], matrix.b[:n_active],
                                   self.speed_limit)
            u, iterations = sol.u_star, sol.iterations
            violation = sol.max_violation
            status = "relaxed"
        return Command(u=u), TickTelemetry(now, self.agent_id, status, False, u,
                                           iterations, violation)


def per_slot_stale(now: float, stamps, hold_timeout: float) -> bool:
    """A control unit's staleness test, slot by slot: an empty slot (stamp
    -inf) or one older than hold_timeout."""
    return any(s == -math.inf or now - s > hold_timeout for s in stamps)


def per_agent_trajectory_rows(ticks, ids, kinds, min_h) -> list[str]:
    """trajectory.csv lines of consecutive ticks, formatted agent by agent.

    ticks holds (time_s, logged, inputs, statuses) per tick: each agent's
    raw (x, y, z, theta), applied input (3 values for a UAV, 2 for a UGV)
    and status.  min_h maps the rounded (T, M) x, y, z, theta and landed
    arrays to the (T, M) per-agent minimum h."""
    pending, states = [], []
    for t_str, logged, inputs, statuses in ticks:
        row = []
        for aid, kind, (x, y, z, theta), u, status in zip(
                ids, kinds, logged, inputs, statuses):
            sx, sy, sz, sth = fmt9(x), fmt9(y), fmt9(z), fmt9(theta)
            row.append((float(sx), float(sy), float(sz), float(sth),
                        status == "landed"))
            uz = fmt9(u[2]) if len(u) == 3 else fmt9(0.0)
            pending.append(f"{t_str},{aid},{kind},{sx},{sy},{sz},{sth},"
                           f"{fmt9(u[0])},{fmt9(u[1])},{uz},{status},")
        states.append(row)
    block = np.array([[sample[:4] for sample in row] for row in states])
    landed = np.array([[sample[4] for sample in row] for row in states], dtype=bool)
    h = min_h(*np.moveaxis(block, 2, 0), landed)
    return [line + fmt9(v) for line, v in zip(pending, h.ravel().tolist())]


@dataclass
class UavState:
    p: np.ndarray                 # inertial position (m)


def step_uav(state: UavState, u, dt: float) -> UavState:
    """Explicit-Euler position update under a velocity command."""
    if dt <= 0:
        raise InvalidInputError("dt must be positive")
    u = np.asarray(u, dtype=float)
    return UavState(p=state.p + dt * u)


def step_ugv(state: UgvState, v: float, omega: float, dt: float) -> UgvState:
    """Explicit-Euler unicycle update; the vehicle stays on the ground plane."""
    if dt <= 0:
        raise InvalidInputError("dt must be positive")
    return UgvState(
        x=state.x + dt * v * math.cos(state.theta),
        y=state.y + dt * v * math.sin(state.theta),
        theta=wrap_angle(state.theta + dt * omega),
        offset=state.offset,
        wheel_base=state.wheel_base,
    )


def step_ugv_held(state: UgvState, offset_velocity, turn_rate_limit: float,
                  dt: float) -> UgvState:
    """One dt of a UGV holding an offset-point velocity: the body twist at
    its current heading (nid_inverse_scalar), then the Euler step."""
    v, omega = nid_inverse_scalar(state.theta, offset_velocity, state.offset,
                                  turn_rate_limit)
    return step_ugv(state, v, omega, dt)


def integrate_per_agent(uav_states: dict[str, UavState],
                        ugv_states: dict[str, UgvState],
                        uav_velocity: dict[str, np.ndarray],
                        commands: dict[str, Command], landed: dict[str, bool],
                        dt: float, lag: float, deck_z: float,
                        turn_rate_limit: float) -> None:
    """One dt of the simulator's per-agent integration, in place: every UGV
    under its held offset-point velocity, then every UAV (riding its
    platform at deck_z once landed)."""
    n = len(uav_states)
    for i in range(n):
        gid = f"ugv{i}"
        ugv_states[gid] = step_ugv_held(ugv_states[gid], commands[gid].u,
                                        turn_rate_limit, dt)
    for i in range(n):
        uid = f"uav{i}"
        if landed[uid]:
            st = ugv_states[f"ugv{i}"]
            uav_states[uid] = UavState(p=np.array([st.x, st.y, deck_z]))
            uav_velocity[uid] = np.zeros(3)
        elif lag > 0.0:
            alpha = dt / lag
            uav_velocity[uid] = (uav_velocity[uid]
                                 + alpha * (commands[uid].u - uav_velocity[uid]))
            uav_states[uid] = step_uav(uav_states[uid], uav_velocity[uid], dt)
        else:
            uav_states[uid] = step_uav(uav_states[uid], commands[uid].u, dt)


def _require_finite(name: str, value) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} must be finite, got {value!r}")
    return arr


def eval_sphere(p_i, p_j, separation: float) -> float:
    p_i = _require_finite("p_i", p_i)
    p_j = _require_finite("p_j", p_j)
    if separation <= 0 or not math.isfinite(separation):
        raise InvalidInputError(f"separation must be positive, got {separation}")
    d = p_i - p_j
    return float(d @ d) - separation * separation


def eval_landing(p_uav, p_ugv_3d, sharpness: float, height: float,
                 clearance: float) -> tuple[float, float, float]:
    p_uav = _require_finite("p_uav", p_uav)
    p_ugv_3d = _require_finite("p_ugv_3d", p_ugv_3d)
    if sharpness <= 0 or height <= 0:
        raise InvalidInputError("funnel sharpness and height must be positive")
    r = p_uav - p_ugv_3d
    l = float(r[0] * r[0] + r[1] * r[1])
    decay = math.exp(-sharpness * l)
    h = float(r[2]) - height * sharpness * l * decay - clearance
    k = 2.0 * height * sharpness * (sharpness * l - 1.0) * decay
    return h, l, k


def landing_gradient(r, k: float) -> np.ndarray:
    r = _require_finite("r", r)
    return np.array([k * r[0], k * r[1], 1.0])


def landing_time_term(r, k: float, ugv_velocity) -> float:
    r = _require_finite("r", r)
    v = _require_finite("ugv_velocity", ugv_velocity)
    return -k * (r[0] * v[0] + r[1] * v[1])


_UAV_WALL_GRADIENTS = ([-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0],
                       [0.0, 1.0, 0.0], [0.0, 0.0, -1.0])
_UGV_WALL_GRADIENTS = ([-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0])


def build_workspace_rows(p, params: SafetyParams, is_uav: bool) -> list[ConstraintRow]:
    """One row per wall face of one agent, as scalar rows."""
    p = _require_finite("p", p)
    x, y = float(p[0]), float(p[1])
    b = params.bounds
    heights = [b.x_max - x, x - b.x_min, b.y_max - y, y - b.y_min]
    grads = _UGV_WALL_GRADIENTS
    if is_uav:
        heights.append(b.z_max - float(p[2]))
        grads = _UAV_WALL_GRADIENTS
    kappa = params.barrier_gain
    return [ConstraintRow(a=np.array(g), b=kappa * h, kind=RowKind.WORKSPACE, h_value=h)
            for h, g in zip(heights, grads)]


_SPHERE_RADIUS = {
    RowKind.UAV_UAV: "uav_separation",
    RowKind.UGV_UGV: "ugv_separation",
    RowKind.UAV_OTHER_UGV: "uav_ugv_separation",
}


def build_constraint_row(kind: RowKind, self_state, other_state=None,
                         other_velocity=None, params: SafetyParams | None = None,
                         *, platform_height: float = 0.0,
                         other_id: str | None = None,
                         worst_case: bool = False) -> ConstraintRow:
    """One pairwise row of one agent, from scalar barrier evaluations."""
    if params is None:
        raise InvalidInputError("params is required")
    if other_state is None:
        raise IncompleteInputError(f"{kind.value} row requires the other agent's state")
    if other_velocity is None and not worst_case:
        raise IncompleteInputError(
            f"{kind.value} row is time-varying and requires a velocity estimate")
    p_i = _require_finite("self position", self_state)
    if kind is RowKind.UAV_UAV or kind is RowKind.UGV_UGV:
        p_j = _require_finite("other position", other_state)
    else:
        xy = _require_finite("ugv position", other_state)
        p_j = np.array([xy[0], xy[1], platform_height])
    r = p_i - p_j
    if kind is RowKind.LANDING:
        h, l, k = eval_landing(
            p_i, p_j, params.funnel_sharpness, params.funnel_height, params.hover_clearance)
        a = landing_gradient(r, k)
        if worst_case:
            dh_dt = -abs(k) * math.sqrt(l) * params.uav_speed_limit
        else:
            dh_dt = landing_time_term(r, k, other_velocity)
    else:
        h = eval_sphere(p_i, p_j, getattr(params, _SPHERE_RADIUS[kind]))
        a = 2.0 * r
        if worst_case:
            dh_dt = -2.0 * float(np.linalg.norm(r)) * params.uav_speed_limit
        else:
            v = _require_finite("other velocity", other_velocity)
            if kind is RowKind.UAV_OTHER_UGV:
                dh_dt = -2.0 * (float(r[0] * v[0]) + float(r[1] * v[1]))
            else:
                dh_dt = -2.0 * float(r @ v)
    kappa = params.barrier_gain
    return ConstraintRow(a=a, b=kappa * h + dh_dt, kind=kind, other_id=other_id, h_value=h)


def from_rows(agent_id: str, timestamp: float, capacity: int, dim: int,
              rows: list[ConstraintRow]) -> ConstraintMatrix:
    """Copy rows into a fresh zero-padded matrix."""
    if len(rows) > capacity:
        raise CapacityError(
            f"{agent_id}: {len(rows)} active rows exceed capacity {capacity}")
    a = np.zeros((capacity, dim))
    b = np.zeros(capacity)
    for i, row in enumerate(rows):
        a[i] = row.a
        b[i] = row.b
    return ConstraintMatrix(agent_id=agent_id, timestamp=timestamp, a=a, b=b,
                            kinds=[r.kind for r in rows],
                            other_ids=[r.other_id for r in rows])


def assemble_per_row(w, agent_id: str, now: float) -> ConstraintMatrix:
    """One agent's matrix from the watcher's current tick state, one row
    object per gated pair: walls, cross-layer or ground rows, landing
    funnel, aerial rows."""
    p = w.params
    rows: list[ConstraintRow] = []
    pair = int(agent_id[3:])
    if agent_id.startswith("uav"):
        pos = w._uav[pair]
        v_ugv, worst_ugv = w._est_ugv_body.estimate()
        rows.extend(build_workspace_rows(pos, p, is_uav=True))
        for j in np.flatnonzero(w._ago[pair]).tolist() + [pair]:
            rows.append(build_constraint_row(
                RowKind.UAV_OTHER_UGV if j != pair else RowKind.LANDING,
                pos, w._ugv[j, :2], v_ugv[j], params=p,
                platform_height=w.platform_height, other_id=f"ugv{j}",
                worst_case=worst_ugv))
        v_uav, worst_uav = w._est_uav.estimate()
        for j in np.flatnonzero(w._aa[pair]).tolist():
            rows.append(build_constraint_row(
                RowKind.UAV_UAV, pos, w._uav[j], v_uav[j], params=p,
                other_id=f"uav{j}", worst_case=worst_uav))
        dim = 3
    else:
        point = w._offsets[pair]
        v_offset, worst_offset = w._est_ugv_offset.estimate()
        rows.extend(build_workspace_rows(point, p, is_uav=False))
        for j in np.flatnonzero(w._gg[pair]).tolist():
            rows.append(build_constraint_row(
                RowKind.UGV_UGV, point, w._offsets[j], v_offset[j], params=p,
                other_id=f"ugv{j}", worst_case=worst_offset))
        dim = 2
    return from_rows(agent_id, now, w.capacity, dim, rows)


def per_agent_kind_counts(kinds: list[RowKind]) -> dict[str, int]:
    """An agent's rows per kind, in RowKind order, absent kinds left out."""
    return {k.value: kinds.count(k) for k in RowKind if k in kinds}


def _matrix_bytes(matrix) -> int:
    """ConstraintMatrix.wire_bytes, from before updates were sized by their
    arrays' shapes."""
    return matrix.a.size * 8 + matrix.b.size * 8 + 16


# netsim's payload sizer from before updates were sized by their arrays'
# shapes: field sizes by exact type, a subclass as its nearest listed base;
# 8 bytes per scalar, strings as utf-8, sequences field by field, the
# matrix's own size, 64 for any other object.
TYPE_WALK_SIZES = {np.ndarray: lambda field: field.size * 8, type(None): lambda field: 0,
                   int: lambda field: 8, float: lambda field: 8,
                   str: lambda field: len(field.encode()),
                   tuple: lambda field: sum(map(type_walk_field_bytes, field)),
                   list: lambda field: sum(map(type_walk_field_bytes, field)),
                   ConstraintMatrix: _matrix_bytes, object: lambda field: 64}


def type_walk_field_bytes(field) -> int:
    """A field's size by the entry of its type's first base that has one."""
    return next(TYPE_WALK_SIZES[base] for base in type(field).__mro__
                if base in TYPE_WALK_SIZES)(field)


def type_walk_payload_bytes(payload) -> int:
    """Nominal wire size: a 16B header plus the payload's fields."""
    return 16 + type_walk_field_bytes(payload)


def watcher_line(time_s: str, rec) -> str:
    """The runner's watcher.csv line for one record, from before a tick's
    lines reused the text after the time: row counts per family in column
    order, then the proximal set."""
    k = rec.kind_counts
    return (f"{time_s},{rec.agent_id},{rec.phase},{rec.active_count},"
            f"{k.get('workspace', 0)},{k.get('uav_other_ugv', 0)},{k.get('landing', 0)},"
            f"{k.get('uav_uav', 0)},{k.get('ugv_ugv', 0)},{';'.join(rec.proximal)}")


def waypoint_sample(track, t: float) -> tuple[np.ndarray, np.ndarray]:
    """WaypointTrack.sample walking one track's legs in Python floats, from
    before tracks were sampled as a TrackTable: the setpoint position and
    rate at time t."""
    if not track._legs or track._total == 0.0:
        w = track.waypoints[0]
        return w.copy(), np.zeros_like(w)
    s = math.fmod(track.speed * t, track._total)
    for start, direction, length in track._legs:
        if s <= length:
            return start + s * direction, direction * track.speed
        s -= length
    start, direction, length = track._legs[-1]
    return start + length * direction, direction * track.speed


def hover_point(w, pair: int) -> np.ndarray:
    """The watcher's per-pair hover point: the pair's platform centre raised
    by the hover clearance."""
    p = w._platforms[pair].copy()
    p[2] += w.params.hover_clearance
    return p


def per_agent_fanout(w, now: float) -> tuple[list[tuple], list[WatcherRecord]]:
    """The 2N updates and the records of the watcher's current tick, one
    agent at a time: an update of a copied pose, the position and rate of
    the setpoint from the
    agent's own track by waypoint_sample (a landing or landed pair's UAV chases
    its platform's hover point instead), the per-row matrix, and a record
    whose proximal set is tuple(sorted(proximal_set(agent))).  Row counts
    come from the per-row matrix's kinds."""
    updates, records = [], []
    v_ugv, worst = w._est_ugv_body.estimate()
    for i in range(w.n_pairs):
        phase = w.phases[i]
        for agent_id, pose in ((f"uav{i}", w._uav[i]), (f"ugv{i}", w._ugv[i])):
            setpoint = waypoint_sample(w.tracks[agent_id], now)
            if agent_id.startswith("uav") and phase is not PairPhase.TASK:
                rate = np.zeros(3) if worst else np.array([v_ugv[i, 0], v_ugv[i, 1], 0.0])
                setpoint = (hover_point(w, i), rate)
            matrix = assemble_per_row(w, agent_id, now)
            updates.append((MsgType.UPDATE, agent_id, (pose.copy(), *setpoint, matrix)))
            records.append(WatcherRecord(
                time=now, agent_id=agent_id, active_count=matrix.active_count,
                kind_counts=per_agent_kind_counts(matrix.kinds), phase=phase.value,
                proximal=tuple(sorted(w.proximal_set(agent_id)))))
    return updates, records


class ScalarDrawBus:
    """The star bus drawing each link's randomness one scalar call at a
    time: uniform() for a drop and uniform(-jitter, jitter) for a jitter."""

    def __init__(self, agent_ids: list[str], link: LinkModel, seed: int):
        link.validate()
        self.link = link
        self.agents = set(agent_ids)
        self._seq: dict[tuple[str, str], int] = {}
        self._rng: dict[tuple[str, str], np.random.Generator] = {}
        self._stats: dict[str, LinkStats] = {}
        self._queue: list[tuple[float, int, str, str, Message]] = []
        self._seed = seed

    def _check_link(self, src: str, dst: str) -> str:
        if src == WATCHER_ID and dst in self.agents:
            return dst
        if dst == WATCHER_ID and src in self.agents:
            return src
        raise AssertionError(f"link {src} -> {dst} is not part of the star topology")

    def _link_rng(self, src: str, dst: str) -> np.random.Generator:
        key = (src, dst)
        rng = self._rng.get(key)
        if rng is None:
            tag = zlib.crc32(f"{src}->{dst}".encode())
            rng = np.random.default_rng(np.random.SeedSequence([self._seed, tag]))
            self._rng[key] = rng
        return rng

    def send(self, msg_type: MsgType, src: str, dst: str, payload,
             now: float) -> Message | None:
        agent = self._check_link(src, dst)
        stats = self._stats.setdefault(agent, LinkStats())
        key = (src, dst)
        seq = self._seq.get(key, 0) + 1
        self._seq[key] = seq
        rng = self._link_rng(src, dst)
        stats.sent += 1
        stats.bytes += type_walk_payload_bytes(payload)
        if self.link.drop_prob > 0.0 and rng.uniform() < self.link.drop_prob:
            stats.dropped += 1
            return None
        latency = self.link.base_latency
        if self.link.jitter > 0.0:
            latency += rng.uniform(-self.link.jitter, self.link.jitter)
        deliver = max(now, now + latency)
        msg = Message(msg_type=msg_type, src=src, dst=dst, send_time=now,
                      deliver_time=deliver, seq=seq, payload=payload)
        heapq.heappush(self._queue, (deliver, seq, src, dst, msg))
        return msg

    def deliver_due(self, now: float) -> list[Message]:
        out = []
        while self._queue and self._queue[0][0] <= now:
            _, _, _, _, msg = heapq.heappop(self._queue)
            self._stats[self._check_link(msg.src, msg.dst)].delivered += 1
            out.append(msg)
        return out

    def link_stats(self) -> dict[str, LinkStats]:
        return dict(sorted(self._stats.items()))


def nid_inverse_scalar(theta: float, offset_velocity, offset: float,
                       turn_rate_limit: float | None = None) -> tuple[float, float]:
    """agents.nid_inverse on one heading: the body twist (v, omega) of an
    offset-point velocity, scaled down uniformly where the turn rate
    exceeds turn_rate_limit."""
    ov = np.asarray(offset_velocity, dtype=float)
    c, s = math.cos(theta), math.sin(theta)
    v = c * ov[0] + s * ov[1]
    omega = (-s * ov[0] + c * ov[1]) / offset
    if turn_rate_limit is not None and abs(omega) > turn_rate_limit:
        scale = turn_rate_limit / abs(omega)
        v *= scale
        omega = math.copysign(turn_rate_limit, omega)
    return v, omega


def project_reference(z: np.ndarray, A: np.ndarray, b: np.ndarray,
                      max_iter: int = 2000) -> tuple[np.ndarray | None, int]:
    """qp._project with its first step, on an empty working set, taken
    through the blocking-step search and the multiplier update: a solve on
    finite data that fails is repeated with at most n working rows and the
    retry's dependence tolerance."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return _reference_active_set(z, A, b, max_iter, math.inf, _DEP_TOL)
        except RuntimeError:
            if not all(np.isfinite(x).all() for x in (z, A, b)):
                raise
            try:
                return _reference_active_set(z, A, b, max_iter, len(z), qp._RETRY_DEP_TOL)
            except RuntimeError:
                pass
            raise


def _reference_active_set(z, A, b, max_iter: int, max_rows, dep_tol: float):
    m = A.shape[0]
    u = z.astype(float).copy()
    row_scale = np.maximum(1.0, np.abs(A).max(axis=1)) if m else np.ones(0)
    feas_tol = _FEAS_TOL * row_scale
    work: list[int] = []
    lam = np.zeros(0)
    iters = 0
    while iters < max_iter:
        iters += 1
        f = A @ u + b
        p = int(np.argmin(f + feas_tol))
        if f[p] >= -feas_tol[p]:
            return u, iters
        a_p = A[p]
        b_p = b[p]
        lam_p = 0.0
        while True:
            iters += 1
            if iters > max_iter:
                raise RuntimeError("active-set projection did not converge")
            if work:
                N = A[work].T
                gram = N.T @ N
                try:
                    r = np.linalg.solve(gram, N.T @ a_p)
                except np.linalg.LinAlgError:
                    r = np.linalg.lstsq(gram, N.T @ a_p, rcond=None)[0]
                w = a_p - N @ r
            else:
                r = np.zeros(0)
                w = a_p
            w_sq = float(w @ w)
            if len(work) < max_rows and w_sq > dep_tol * max(1.0, float(a_p @ a_p)):
                t_full = -(float(a_p @ u) + b_p) / w_sq
                t_block, blocker = _blocking_step(lam, r)
                if t_full <= t_block:
                    u = u + t_full * w
                    lam = lam - t_full * r
                    lam_p += t_full
                    work.append(p)
                    lam = np.append(lam, lam_p)
                    break
                u = u + t_block * w
                lam = lam - t_block * r
                lam_p += t_block
            else:
                if not np.any(r > _DEP_TOL):
                    return None, iters
                t_block, blocker = _blocking_step(lam, r)
                lam = lam - t_block * r
                lam_p += t_block
            if blocker < 0:
                raise RuntimeError("active-set projection took a non-finite step")
            del work[blocker]
            lam = np.delete(lam, blocker)
    raise RuntimeError("active-set projection did not converge")
