"""Reference implementations the package's faster or merged code replaced.

* The per-pair Python loops of the fleet-level pairwise geometry, from before
  gates and barriers were evaluated as arrays.
* The QP entry points that stacked their rows with their own box encoding
  (interleaved +e_j / -e_j rows) before project_with_box became the one
  core; and the brute-force enumeration of active sets (oracle_solve), the
  exact reference every QP entry point is checked against.
* The per-agent velocity estimator, with its stale-history fallback, from
  before the watcher kept its estimates as one array.
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
* The scalar barrier functions, one pair or one agent per call (eval_sphere,
  eval_landing, landing_gradient, landing_time_term, and the row builders
  build_workspace_rows and build_constraint_row with their ConstraintRow
  record), from before the barriers module took stacked arrays only.
* The watcher's per-row constraint assembly: one scalar barrier row object
  per gated pair, copied into each agent's matrix, from before every
  family's rows were built in one array pass per tick; and its per-agent
  row counts, one list count per row kind, from before they came from the
  gate matrices' row sums.
* The kinds and other agents of each matrix's rows (row_layout), read off
  the watcher's gates, from before matrices stopped carrying them.
* The star bus's per-message draws, one scalar Generator.uniform() call
  per drop or jitter draw, and its recursive wire sizes, from before each
  link drew its uniforms in blocks; and its isinstance chain of payload
  sizes, from before payloads were sized by exact type.
* The legs of one (waypoints, speed) track as the WaypointTrack record
  built them (waypoint_legs), and the walk over them in Python floats
  (waypoint_sample), from before tracks were sampled as one TrackTable.
* The watcher's per-agent fan-out: a copied pose, a setpoint sampled
  from the agent's own track (or its pair's hover point, hover_point), a
  matrix and a record built per agent, its proximal set
  sorted from proximal_set, from before the tick's updates, setpoints,
  proximal sets and records were built from its arrays.
* The unicycle's inverse offset map on one heading and one offset
  velocity (nid_inverse), and the offset-point velocity of a body twist
  (nid_forward), which the package dropped once only tests called them.
* The constraint matrix object an update carried (Matrix, without its
  agent id and stamp), from before updates carried its arrays and count.
* summarize's line-at-a-time reader of trajectory.csv and watcher.csv
  (summarize_logs_per_line): a generator of each log's layout, one CSV
  line parsed, checked and yielded at a time, the trajectory's lines
  gathered into blocks of BLOCK_SAMPLES for the barrier recheck, from
  before the logs were read and checked a block at a time.

The equivalence tests require the package to reproduce them exactly, bit
for bit (the summarize reader: the same metrics, or the same error).
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
import zlib
from dataclasses import dataclass, fields
from enum import Enum
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from airground import qp, summary
from airground.agents import (UAV, UGV, Command, TickTelemetry, data_stale,
                              nominal_velocity, wrap_angle)
from airground.barriers import RowKind, SafetyParams
from airground.config import load_config
from airground.errors import CapacityError, InvalidInputError
from airground.logfmt import fmt9, fmt9_round_trip
from airground.netsim import WATCHER_ID, LinkModel, LinkStats
from airground.qp import (_DEP_TOL, _FEAS_TOL, RELAXATION_WEIGHT, QpSolution,
                          _blocking_step, _project)
from airground.watcher import LANDED, PHASE_NAMES, TASK, WatcherRecord

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

    def __init__(self, agent_id: str, kind: str, gains: np.ndarray,
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
        self._update = _Slot()              # (pose, position, rate, Matrix)
        self._solved: tuple | None = None   # (u, status, iters, violation)

    @property
    def speed_limit(self) -> float:
        return (self.params.uav_speed_limit if self.kind == UAV
                else self.params.ugv_speed_limit)

    def on_update(self, pose, position, rate, a, b, count: int, landed: bool,
                  stamp: float) -> None:
        if landed and self.kind == UAV:
            self.landed = True
        elif stamp >= self._update.stamp:
            self._update = _Slot((np.asarray(pose, dtype=float),
                                  np.asarray(position, dtype=float),
                                  np.asarray(rate, dtype=float), Matrix(a, b, count)), stamp)
            self._solved = None

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
    its current heading (nid_inverse), then the Euler step."""
    v, omega = nid_inverse(state.theta, offset_velocity, state.offset, turn_rate_limit)
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


@dataclass
class ConstraintRow:
    """One linearized barrier condition ``a . u >= -b`` on an agent's velocity:
    a is the barrier gradient w.r.t. the agent's own position, b = kappa*h +
    dh/dt, and h_value the barrier value."""

    a: np.ndarray
    b: float
    kind: RowKind
    other_id: str | None = None
    h_value: float = 0.0


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


def build_constraint_row(kind: RowKind, self_state, other_state, other_velocity, *,
                         params: SafetyParams, platform_height: float = 0.0,
                         other_id: str | None = None,
                         worst_case: bool = False) -> ConstraintRow:
    """One pairwise row of one agent, from scalar barrier evaluations."""
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


class Matrix(NamedTuple):
    """One agent's constraint rows: the zero-padded (capacity, dim) A and
    (capacity,) b, and the active row count.  An update carries them
    after its setpoint and before its landed bit (a Matrix unpacks into
    them)."""

    a: np.ndarray
    b: np.ndarray
    active_count: int


def agent_matrices(w) -> dict[str, Matrix]:
    """Watcher.assemble_constraints' per-kind blocks as one Matrix per
    agent, keyed uav0, ugv0, uav1, ..."""
    kinds = w.assemble_constraints()
    return {f"{kind}{i}": Matrix(a[i], b[i], counts[i])
            for i in range(w.n_pairs) for kind, (a, b, counts) in zip(("uav", "ugv"), kinds)}


def from_rows(agent_id: str, capacity: int, dim: int,
              rows: list[ConstraintRow]) -> Matrix:
    """Copy rows into a fresh zero-padded matrix."""
    if len(rows) > capacity:
        raise CapacityError(
            f"{agent_id}: {len(rows)} active rows exceed capacity {capacity}")
    a = np.zeros((capacity, dim))
    b = np.zeros(capacity)
    for i, row in enumerate(rows):
        a[i] = row.a
        b[i] = row.b
    return Matrix(a, b, len(rows))


def tick_state(w) -> SimpleNamespace:
    """The watcher's current tick, per family, as the per-agent oracles read
    it: positions (uav, decks, offsets, platforms), velocity estimates
    with the worst-case flag (v_uav, v_deck, v_offset, worst) and gates
    (aa, ago, gg)."""
    velocity, worst = w._est.estimate()
    aa, ago, gg = w._gates
    fleet = w._fleet
    return SimpleNamespace(
        uav=fleet[:, :3], decks=fleet[:, 3:5], offsets=fleet[:, 5:], platforms=w._platforms,
        v_uav=velocity[:, :3], v_deck=velocity[:, 3:5], v_offset=velocity[:, 5:],
        worst=worst, aa=aa, ago=ago, gg=gg)


def row_layout(w, agent_id: str) -> tuple[list[RowKind], list[str | None]]:
    """The kinds and other agents of agent_id's rows under the watcher's
    current gates, in Watcher.assemble_constraints' order, from before
    matrices stopped carrying them."""
    s = tick_state(w)
    pair = int(agent_id[3:])
    if agent_id.startswith("ugv"):
        ground = [f"ugv{j}" for j in np.flatnonzero(s.gg[pair]).tolist()]
        return [RowKind.WORKSPACE] * 4 + [RowKind.UGV_UGV] * len(ground), [None] * 4 + ground
    cross = [f"ugv{j}" for j in np.flatnonzero(s.ago[pair]).tolist()]
    aerial = [f"uav{j}" for j in np.flatnonzero(s.aa[pair]).tolist()]
    return ([RowKind.WORKSPACE] * 5 + [RowKind.UAV_OTHER_UGV] * len(cross) + [RowKind.LANDING]
            + [RowKind.UAV_UAV] * len(aerial),
            [None] * 5 + cross + [f"ugv{pair}"] + aerial)


def rows_layout(rows: list[ConstraintRow]) -> tuple[list[RowKind], list[str | None]]:
    """The kinds and other agents of a row list."""
    return [r.kind for r in rows], [r.other_id for r in rows]


def assemble_per_row(w, agent_id: str) -> tuple[Matrix, list[ConstraintRow]]:
    """One agent's matrix from the watcher's current tick state, one row
    object per gated pair: walls, cross-layer or ground rows, landing
    funnel, aerial rows; and the row objects."""
    p = w.params
    s = tick_state(w)
    rows: list[ConstraintRow] = []
    pair = int(agent_id[3:])
    if agent_id.startswith("uav"):
        pos = s.uav[pair]
        rows.extend(build_workspace_rows(pos, p, is_uav=True))
        for j in np.flatnonzero(s.ago[pair]).tolist() + [pair]:
            rows.append(build_constraint_row(
                RowKind.UAV_OTHER_UGV if j != pair else RowKind.LANDING,
                pos, s.decks[j], s.v_deck[j], params=p,
                platform_height=w.platform_height, other_id=f"ugv{j}",
                worst_case=s.worst))
        for j in np.flatnonzero(s.aa[pair]).tolist():
            rows.append(build_constraint_row(
                RowKind.UAV_UAV, pos, s.uav[j], s.v_uav[j], params=p,
                other_id=f"uav{j}", worst_case=s.worst))
        dim = 3
    else:
        point = s.offsets[pair]
        rows.extend(build_workspace_rows(point, p, is_uav=False))
        for j in np.flatnonzero(s.gg[pair]).tolist():
            rows.append(build_constraint_row(
                RowKind.UGV_UGV, point, s.offsets[j], s.v_offset[j], params=p,
                other_id=f"ugv{j}", worst_case=s.worst))
        dim = 2
    return from_rows(agent_id, w.capacity, dim, rows), rows


def per_agent_kind_counts(kinds: list[RowKind]) -> dict[str, int]:
    """An agent's rows per kind, in RowKind order, absent kinds left out."""
    return {k.value: kinds.count(k) for k in RowKind if k in kinds}


def _matrix_bytes(matrix) -> int:
    """A constraint matrix object's wire size, from before updates were
    sized by their arrays' shapes."""
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
                   Matrix: _matrix_bytes, object: lambda field: 64}


def type_walk_field_bytes(field) -> int:
    """A field's size by the entry of its type's first base that has one."""
    return next(TYPE_WALK_SIZES[base] for base in type(field).__mro__
                if base in TYPE_WALK_SIZES)(field)


def type_walk_payload_bytes(payload) -> int:
    """Nominal wire size: a 16B header plus the payload's fields.  An
    update's (pose, position, rate, a, b, count, landed) is sized as it was
    shipped then, its rows and count as one matrix object and its landed
    bit in the header."""
    if isinstance(payload, tuple) and len(payload) == 7:
        payload = (*payload[:3], Matrix(*payload[3:6]))
    return 16 + type_walk_field_bytes(payload)


def watcher_line(time_s: str, rec) -> str:
    """The runner's watcher.csv line for one record, from before a tick's
    lines reused the text after the time: row counts per family in column
    order, then the proximal set."""
    k = rec.kind_counts
    return (f"{time_s},{rec.agent_id},{rec.phase},{rec.active_count},"
            f"{k.get('workspace', 0)},{k.get('uav_other_ugv', 0)},{k.get('landing', 0)},"
            f"{k.get('uav_uav', 0)},{k.get('ugv_ugv', 0)},{';'.join(rec.proximal)}")


def waypoint_legs(track) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """One (waypoints, speed) track's legs as the WaypointTrack record built
    them, from before a TrackTable built its tracks' legs: (start,
    direction, length) from each waypoint to the next, the last back to the
    first, one np.linalg.norm per leg, zero-length legs skipped; none for a
    single waypoint or zero speed."""
    waypoints, speed = track
    points = [np.asarray(w, dtype=float) for w in waypoints]
    legs = []
    n = len(points)
    if n > 1 and speed > 0:
        for i in range(n):
            a = points[i]
            d = points[(i + 1) % n] - a
            length = float(np.linalg.norm(d))
            if length > 0:
                legs.append((a, d / length, length))
    return legs


def waypoint_sample(track, t: float) -> tuple[np.ndarray, np.ndarray]:
    """One (waypoints, speed) track's legs walked in Python floats, from
    before tracks were sampled as a TrackTable: the setpoint position and
    rate at time t."""
    waypoints, speed = track
    legs = waypoint_legs(track)
    total = sum(leg[2] for leg in legs)
    if not legs or total == 0.0:
        w = np.asarray(waypoints[0], dtype=float)
        return w.copy(), np.zeros_like(w)
    s = math.fmod(speed * t, total)
    for start, direction, length in legs:
        if s <= length:
            return start + s * direction, direction * speed
        s -= length
    start, direction, length = legs[-1]
    return start + length * direction, direction * speed


def hover_point(w, pair: int) -> np.ndarray:
    """The watcher's per-pair hover point: the pair's platform centre raised
    by the hover clearance."""
    p = tick_state(w).platforms[pair].copy()
    p[2] += w.params.hover_clearance
    return p


def per_agent_fanout(w, tracks, now: float, ugv) -> tuple[list[tuple], list[WatcherRecord]]:
    """The 2N updates and the records of the watcher's current tick, one
    agent at a time: an update of a copied pose (a UGV's from ugv, the
    (n, 3) poses the tick was given), the position and rate of
    the setpoint from the agent's own (waypoints, speed) pair in tracks
    (tick order, as the watcher was built with) by waypoint_sample (a landing or landed pair's UAV chases
    its platform's hover point instead), the per-row matrix and whether the
    pair is landed, and a record whose proximal set is
    tuple(sorted(proximal_set(agent))).  Row counts come from the per-row
    oracle's row kinds."""
    updates, records = [], []
    s = tick_state(w)
    for i in range(w.n_pairs):
        phase = w.phases[i]
        for agent_id, pose, track in ((f"uav{i}", s.uav[i], tracks[2 * i]),
                                      (f"ugv{i}", ugv[i], tracks[2 * i + 1])):
            setpoint = waypoint_sample(track, now)
            if agent_id.startswith("uav") and phase != TASK:
                rate = (np.zeros(3) if s.worst
                        else np.array([s.v_deck[i, 0], s.v_deck[i, 1], 0.0]))
                setpoint = (hover_point(w, i), rate)
            matrix, rows = assemble_per_row(w, agent_id)
            updates.append((agent_id, (pose.copy(), *setpoint, *matrix, bool(phase == LANDED))))
            records.append(WatcherRecord(
                time=now, agent_id=agent_id, active_count=matrix.active_count,
                kind_counts=per_agent_kind_counts(rows_layout(rows)[0]),
                phase=PHASE_NAMES[phase], proximal=tuple(sorted(w.proximal_set(agent_id)))))
    return updates, records


class Sent(NamedTuple):
    """An update the reference bus kept: its link, send and delivery times,
    sequence number on its link and payload."""
    dst: str
    sent: float
    due: float
    seq: int
    payload: object


class ScalarDrawBus:
    """The star bus drawing each link's randomness one scalar call at a
    time: uniform() for a drop and uniform(-jitter, jitter) for a jitter."""

    def __init__(self, agent_ids: list[str], link: LinkModel, seed: int):
        link.require_valid()
        self.link = link
        self.agents = set(agent_ids)
        self._seq: dict[str, int] = {}
        self._rng: dict[str, np.random.Generator] = {}
        self._stats: dict[str, LinkStats] = {}
        self._queue: list[tuple[float, int, str, Sent]] = []
        self._seed = seed

    def _link_rng(self, dst: str) -> np.random.Generator:
        rng = self._rng.get(dst)
        if rng is None:
            tag = zlib.crc32(f"{WATCHER_ID}->{dst}".encode())
            rng = np.random.default_rng(np.random.SeedSequence([self._seed, tag]))
            self._rng[dst] = rng
        return rng

    def send(self, dst: str, payload, now: float) -> Sent | None:
        assert dst in self.agents, f"link {WATCHER_ID} -> {dst} is not part of the star topology"
        stats = self._stats.setdefault(dst, LinkStats())
        seq = self._seq[dst] = self._seq.get(dst, 0) + 1
        rng = self._link_rng(dst)
        stats.sent += 1
        stats.bytes += type_walk_payload_bytes(payload)
        if self.link.drop_prob > 0.0 and rng.uniform() < self.link.drop_prob:
            stats.dropped += 1
            return None
        latency = self.link.base_latency
        if self.link.jitter > 0.0:
            latency += rng.uniform(-self.link.jitter, self.link.jitter)
        deliver = max(now, now + latency)
        sent = Sent(dst, now, deliver, seq, payload)
        heapq.heappush(self._queue, (deliver, seq, dst, sent))
        return sent

    def deliver_due(self, now: float) -> list[Sent]:
        out = []
        while self._queue and self._queue[0][0] <= now:
            sent = heapq.heappop(self._queue)[3]
            self._stats[sent.dst].delivered += 1
            out.append(sent)
        return out

    def link_stats(self) -> dict[str, LinkStats]:
        return dict(sorted(self._stats.items()))


def nid_forward(theta: float, v: float, omega: float, offset: float) -> np.ndarray:
    """Offset-point velocity produced by a body twist (inverse of nid_inverse)."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([v * c - offset * omega * s, v * s + offset * omega * c])


def nid_inverse(theta: float, offset_velocity, offset: float,
                turn_rate_limit: float | None = None) -> tuple[float, float]:
    """The body twist (v, omega) of an offset-point velocity at heading
    theta (inverse of nid_forward), scaled down uniformly where the turn
    rate exceeds turn_rate_limit."""
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


def _layout(cfg, steps: int, width: int):
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
    for lineno, parts in _csv_rows(path, summary.TRAJECTORY_HEADER, 12, layout):
        try:
            x, y, z, theta = float(parts[3]), float(parts[4]), float(parts[5]), float(parts[6])
            logged = float(parts[11])
        except ValueError as exc:
            raise InvalidInputError(f"{path}:{lineno}: {exc}")
        if not (isfinite(x) and isfinite(y) and isfinite(z) and isfinite(theta)):
            raise InvalidInputError(f"{path}:{lineno}: state must be finite, "
                                    f"got {','.join(parts[3:7])}")
        yield lineno, parts[0], x, y, z, theta, parts[10], logged


def _parse_watcher(path: str, layout, n_pairs: int):
    """Yields (agent_id, active_count) per record of a watcher.csv laid out
    as layout says, whose phase must be one of PHASE_NAMES and whose row
    counts must be non-negative integers summing to active_count.  Its
    proximal set must be sorted, without repeats, naming agents of the run
    outside the line's own pair; its five family counts must be those of
    its kind's rows against that set: a UAV has 5 walls, a row per UGV in
    the set, 1 funnel and a row per UAV in the set; a UGV has 4 walls and a
    row per UGV in the set.  Each distinct agent, counts and set is checked
    once.  Then a UGV line must read its UAV line's phase, and a UAV line
    must not move its pair back along task, landing, landed from the tick
    before."""
    checked: dict[tuple[str, ...], int] = {}
    agents = {f"{kind}{i}" for kind in ("uav", "ugv") for i in range(n_pairs)}
    pair_phase = [TASK] * n_pairs   # each pair's phase, as its UAV line last read
    for k, (lineno, parts) in enumerate(_csv_rows(path, summary.WATCHER_HEADER, 10, layout)):
        if parts[2] not in PHASE_NAMES:
            raise InvalidInputError(f"{path}:{lineno}: unknown phase {parts[2]!r}")
        counts = tuple(parts[3:9])
        key = (parts[1], *counts, parts[9])
        if key not in checked:
            active, *families = (int(c) if c.isdecimal() else -1 for c in counts)
            if min(families) < 0 or active != sum(families):
                raise InvalidInputError(f"{path}:{lineno}: row counts {','.join(counts)} must "
                                        "be non-negative integers that sum to active_count")
            proximal = parts[9].split(";") if parts[9] else []
            index = parts[1][3:]
            if (any(a >= b for a, b in zip(proximal, proximal[1:]))
                    or any(p not in agents or p[3:] == index for p in proximal)):
                raise InvalidInputError(
                    f"{path}:{lineno}: proximal set {parts[9]!r} must name agents of the "
                    "run outside its own pair, sorted and each once")
            uavs = sum(p.startswith("uav") for p in proximal)
            ugvs = len(proximal) - uavs
            want = ([5, ugvs, 1, uavs, 0] if parts[1].startswith("uav")
                    else [4, 0, 0, 0, ugvs])
            if families != want:
                raise InvalidInputError(
                    f"{path}:{lineno}: row counts {','.join(counts)} do not fit a "
                    f"{parts[1][:3].upper()} line with proximal set {parts[9]!r}")
            checked[key] = active
        pair, is_ugv = divmod(k % (2 * n_pairs), 2)
        phase, was = PHASE_NAMES.index(parts[2]), PHASE_NAMES[pair_phase[pair]]
        if is_ugv and phase != pair_phase[pair]:
            raise InvalidInputError(f"{path}:{lineno}: phase {parts[2]!r} differs from "
                                    f"{was!r} on its pair's UAV line")
        if not is_ugv and phase < pair_phase[pair]:
            raise InvalidInputError(f"{path}:{lineno}: phase {parts[2]!r} moves its pair "
                                    f"back from {was!r}")
        pair_phase[pair] = phase
        yield parts[1], checked[key]


def summarize_logs_per_line(out_dir: str):
    """summarize_dir's check of trajectory.csv and watcher.csv, a line at a
    time: the MetricsSummary of a run directory without trace.log."""
    cfg = load_config(os.path.join(out_dir, summary.CONFIG_FILE))
    fold = summary.MetricsFold(cfg.n_pairs)
    m = 2 * cfg.n_pairs
    size = max(1, summary.BLOCK_SAMPLES // m) * m
    traj_path = os.path.join(out_dir, summary.TRAJECTORY_FILE)

    def check_block(lines):
        if not lines:
            return
        linenos, times, *states, statuses, logged = zip(*lines)
        if not summary._STATUSES.issuperset(statuses):
            k = next(k for k, status in enumerate(statuses)
                     if status not in summary._STATUSES)
            raise InvalidInputError(f"{traj_path}:{linenos[k]}: unknown qp_status {statuses[k]!r}")
        states.append([status == "landed" for status in statuses])
        per_agent, family, dist = summary.tick_barriers(
            cfg, *(np.array(v).reshape(-1, m) for v in states))
        expected, h = fmt9_round_trip(per_agent)[1].ravel(), np.array(logged)
        with np.errstate(invalid="ignore"):   # inf - inf
            agree = (expected == h) | (np.abs(expected - h) <= 1e-9)
        if not agree.all():
            k = int(agree.argmin())   # the first line that disagrees
            raise summary.LogIntegrityError(
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

    fold.rows(_parse_watcher(os.path.join(out_dir, summary.WATCHER_FILE),
                             _layout(cfg, cfg.steps_per_watcher(), 2), cfg.n_pairs))
    return fold.result()
