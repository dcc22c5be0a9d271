"""Barrier functions for the UAV/UGV fleet and their linearization as velocity
constraints.

Every safety condition is a scalar barrier h(x, t) whose zero super-level set
is the safe region.  Keeping h >= 0 requires the velocity input u to satisfy

    grad_h . u  >=  -(kappa * h + dh/dt)

which each function here packages as an affine row ``a . u >= -b``.  Four
families exist:

* UAV_UAV      h = |p_i - p_j|^2 - s^2        (sphere between two UAVs)
* UGV_UGV      h = |rho_i - rho_j|^2 - s^2    (circle between UGV offset points)
* UAV_OTHER_UGV  same sphere, UAV vs. another pair's ground vehicle
* LANDING      h = r_z - beta*alpha*l*exp(-alpha*l) - gamma   (descent funnel
               above the paired vehicle; l = r_x^2 + r_y^2)
* WORKSPACE    axis-aligned task-space walls, one row per face

The separation barriers are time-varying because the other agent moves; their
explicit time derivative enters b through the other agent's velocity estimate.
Workspace rows are time-invariant.

The barrier functions also take stacked inputs with a leading row axis and
then evaluate all rows in one array pass, each bit-identical to its 1-D
call; the watcher builds a whole family's rows per tick that way.  x.T[k] is
coordinate k: a scalar for one row, a column for stacked rows.
eval_workspace, eval_landing and offset_points take any leading shape, so
the post-run summary evaluates (T, k, .) blocks of ticks with them too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import IncompleteInputError, InvalidInputError

DEFAULT_BARRIER_GAIN = 1.0


def _require_finite(name: str, value) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} must be finite, got {value!r}")
    return arr


class RowKind(Enum):
    """Which barrier family produced a constraint row."""

    UAV_UAV = "uav_uav"
    UGV_UGV = "ugv_ugv"
    UAV_OTHER_UGV = "uav_other_ugv"
    LANDING = "landing"
    WORKSPACE = "workspace"


@dataclass(frozen=True)
class Bounds:
    """Axis-aligned task-space box (meters)."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    z_min: float
    z_max: float

    def validate(self) -> list[str]:
        problems = []
        for lo, hi, axis in (
            (self.x_min, self.x_max, "x"),
            (self.y_min, self.y_max, "y"),
            (self.z_min, self.z_max, "z"),
        ):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                problems.append(f"{axis} bounds must be finite")
            elif not lo < hi:
                problems.append(f"{axis} bounds must satisfy min < max, got [{lo}, {hi}]")
        return problems

    def horizontal_diag_sq(self) -> float:
        return (self.x_max - self.x_min) ** 2 + (self.y_max - self.y_min) ** 2


@dataclass(frozen=True)
class SafetyParams:
    """All safety radii, funnel shape, gain and actuation bounds for a scenario.

    uav_separation < uav_ugv_separation < ugv_separation is required so the
    collision spheres do not block a UAV from entering its own landing funnel.
    The field defaults are also the defaults of a scenario's safety section.
    """

    uav_separation: float = 0.5      # min UAV-UAV distance (m)
    uav_ugv_separation: float = 0.7  # min UAV to other-pair UGV distance (m)
    ugv_separation: float = 1.0      # min UGV-UGV offset-point distance (m)
    funnel_sharpness: float = 1.0    # horizontal scale of the landing funnel (1/m^2)
    funnel_height: float = 0.5       # vertical scale of the landing funnel (m)
    hover_clearance: float = 0.2     # standoff above the platform deck (m)
    barrier_gain: float = DEFAULT_BARRIER_GAIN  # linear class-K gain (1/s)
    bounds: Bounds = field(default=Bounds(-5.0, 5.0, -5.0, 5.0, 0.0, 3.0))
    uav_speed_limit: float = 1.0     # per-axis UAV velocity bound (m/s)
    ugv_speed_limit: float = 0.6     # per-axis UGV offset-velocity bound (m/s)
    turn_rate_limit: float = 4.0     # UGV angular rate bound (rad/s)

    def validate(self) -> list[str]:
        problems = []
        if not (self.ugv_separation > self.uav_ugv_separation > self.uav_separation > 0):
            problems.append(
                "separation radii must satisfy ugv > uav_ugv > uav > 0, got "
                f"({self.ugv_separation}, {self.uav_ugv_separation}, {self.uav_separation})"
            )
        if not (0 < self.ugv_speed_limit < self.uav_speed_limit):
            problems.append(
                "speed limits must satisfy 0 < ugv_speed_limit < uav_speed_limit, got "
                f"({self.ugv_speed_limit}, {self.uav_speed_limit})"
            )
        if self.funnel_sharpness <= 0 or self.funnel_height <= 0:
            problems.append("funnel_sharpness and funnel_height must be positive")
        if self.hover_clearance < 0:
            problems.append("hover_clearance must be non-negative")
        if self.barrier_gain <= 0:
            problems.append("barrier_gain must be positive")
        if self.turn_rate_limit <= 0:
            problems.append("turn_rate_limit must be positive")
        problems.extend(self.bounds.validate())
        return problems

    def require_valid(self) -> "SafetyParams":
        problems = self.validate()
        if problems:
            raise InvalidInputError("; ".join(problems))
        return self


@dataclass
class ConstraintRow:
    """One linearized barrier condition ``a . u >= -b`` on an agent's velocity.

    a is the barrier gradient w.r.t. the agent's own position (3 entries for a
    UAV row, 2 for a UGV row); b = kappa*h + dh/dt.  h_value is kept for
    diagnostics only and never enters the filter.
    """

    a: np.ndarray
    b: float
    kind: RowKind
    other_id: str | None = None
    h_value: float = 0.0


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x . y over the last axis, one value per leading index, as a batched
    matmul: each value is bit-identical to float(x_k @ y_k) for its row,
    which an axis-by-axis sum or np.einsum is not."""
    return (x[..., None, :] @ y[..., :, None]).T[0, 0]


def _out(value):
    """A 0-d result as the Python float a 1-D call returns; arrays as is."""
    return value if getattr(value, "ndim", 0) else float(value)


def _sphere(d, separation: float):
    """|d|^2 - separation^2 for finite differences d."""
    if separation <= 0 or not math.isfinite(separation):
        raise InvalidInputError(f"separation must be positive, got {separation}")
    return _dot(d, d) - separation * separation


def eval_uav_uav(p_i, p_j, separation: float) -> float:
    """Sphere barrier between two centers: |p_i - p_j|^2 - separation^2.

    One function serves all three separation families: UAV centers, planar
    UGV offset points, and a UAV against another pair's UGV embedded in 3D
    at its platform height.
    """
    p_i = _require_finite("p_i", p_i)
    p_j = _require_finite("p_j", p_j)
    return _out(_sphere(p_i - p_j, separation))


eval_ugv_ugv = eval_uav_other_ugv = eval_uav_uav


def _funnel(r, sharpness: float, height: float, clearance: float):
    """eval_landing's (h, l, k) at finite offsets r, unwrapped."""
    if sharpness <= 0 or height <= 0:
        raise InvalidInputError("funnel sharpness and height must be positive")
    rx, ry, rz = r[..., 0], r[..., 1], r[..., 2]
    l = rx * rx + ry * ry
    decay = libm(math.exp, -sharpness * l)
    h = rz - height * sharpness * l * decay - clearance
    k = 2.0 * height * sharpness * (sharpness * l - 1.0) * decay
    return h, l, k


def eval_landing(p_uav, p_ugv_3d, sharpness: float, height: float,
                 clearance: float) -> tuple[float, float, float]:
    """Funnel barrier above the paired vehicle.

    With r = p_uav - p_ugv_3d and l = r_x^2 + r_y^2:

        h = r_z - height*sharpness*l*exp(-sharpness*l) - clearance

    Returns (h, l, k) where k = 2*height*sharpness*(sharpness*l - 1) *
    exp(-sharpness*l) is the surface slope factor reused by the gradient and
    the time term.  exp goes through libm, element by element.
    """
    p_uav = _require_finite("p_uav", p_uav)
    p_ugv_3d = _require_finite("p_ugv_3d", p_ugv_3d)
    h, l, k = _funnel(p_uav - p_ugv_3d, sharpness, height, clearance)
    return _out(h), _out(l), _out(k)


def _funnel_gradient(r, k) -> np.ndarray:
    return np.array([k * r.T[0], k * r.T[1], np.ones_like(r.T[0])]).T


def landing_gradient(r, k: float) -> np.ndarray:
    """Spatial gradient of the funnel barrier: (k*r_x, k*r_y, 1)."""
    return _funnel_gradient(_require_finite("r", r), k)


def _funnel_time_term(r, k, v):
    return -k * (r.T[0] * v.T[0] + r.T[1] * v.T[1])


def landing_time_term(r, k: float, ugv_velocity) -> float:
    """Explicit dh/dt of the funnel under platform motion: -k*(r_x*vx + r_y*vy)."""
    r = _require_finite("r", r)
    v = _require_finite("ugv_velocity", ugv_velocity)
    return _out(_funnel_time_term(r, k, v))


# The read-only gradient of each wall face, in eval_workspace's face order.
_WALLS = np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0],
                   [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]])
_WALLS.flags.writeable = False


def wall_gradients(is_uav: bool, dim: int) -> np.ndarray:
    """The read-only (faces, dim) unit gradients of an agent's wall rows,
    in eval_workspace's face order."""
    return _WALLS[:5 if is_uav else 4, :dim]


def _wall_heights(p: np.ndarray, bounds: Bounds, is_uav: bool) -> np.ndarray:
    """(..., faces) wall heights of finite positions p, in face order: upper
    walls at even faces (bound - x), lower walls at odd ones (x - bound),
    each entry bit-identical to that scalar expression."""
    upper = 3 if is_uav else 2  # x and y walls, plus the ceiling for a UAV
    h = np.empty(p.shape[:-1] + (upper + 2,))
    h[..., 0::2] = (bounds.x_max, bounds.y_max, bounds.z_max)[:upper] - p[..., :upper]
    h[..., 1::2] = p[..., :2] - (bounds.x_min, bounds.y_min)
    return h


def eval_workspace(p, bounds: Bounds, is_uav: bool) -> list[tuple[float, np.ndarray]]:
    """Wall barriers for one agent: list of (h, unit gradient) pairs.

    UAVs get five rows (both x walls, both y walls, ceiling); the floor is
    covered by the landing funnel, which never deactivates.  UGVs get four
    planar rows evaluated at the offset point.  The gradients are shared
    read-only constants, broadcast to p's leading shape for stacked positions.
    """
    p = _require_finite("p", p)
    h = _wall_heights(p, bounds, is_uav)
    grads = wall_gradients(is_uav, p.shape[-1])
    faces = len(grads)
    grads = np.broadcast_to(grads, p.shape[:-1] + grads.shape)
    return [(_out(h[..., face]), grads[..., face, :]) for face in range(faces)]


def offset_points(poses, offset: float) -> np.ndarray:
    """UGV control points of (..., 3) poses (x, y, theta), as (..., 2)
    points (x + offset*cos(theta), y + offset*sin(theta)); cos and sin go
    through libm, element by element."""
    poses = _require_finite("poses", poses)
    theta = poses[..., 2]
    points = np.empty(poses.shape[:-1] + (2,))
    points[..., 0] = poses[..., 0] + offset * libm(math.cos, theta)
    points[..., 1] = poses[..., 1] + offset * libm(math.sin, theta)
    return points


@dataclass(frozen=True)
class WallRows:
    """The wall rows of one agent, or of a stack of agents, in face order.

    a is the shared read-only (faces, dim) gradients; b = kappa * h and h
    are (..., faces).  rows[face] is that face's ConstraintRow, holding
    every stacked agent, and len(rows) is the number of faces."""

    a: np.ndarray
    b: np.ndarray
    h: np.ndarray

    def __len__(self) -> int:
        return len(self.a)

    def __getitem__(self, face: int) -> ConstraintRow:
        h = self.h[..., face]
        return ConstraintRow(a=np.broadcast_to(self.a[face], h.shape + self.a.shape[1:]),
                             b=_out(self.b[..., face]), kind=RowKind.WORKSPACE,
                             h_value=_out(h))


def build_workspace_rows(p, params: SafetyParams, is_uav: bool) -> WallRows:
    """All wall rows for one agent, or for (m, dim) stacked positions, in
    one array pass."""
    p = _require_finite("p", p)
    h = _wall_heights(p, params.bounds, is_uav)
    return WallRows(a=wall_gradients(is_uav, p.shape[-1]), b=params.barrier_gain * h, h=h)


# Separation radius of each sphere family, by SafetyParams field.
_SPHERE_RADIUS = {
    RowKind.UAV_UAV: "uav_separation",
    RowKind.UGV_UGV: "ugv_separation",
    RowKind.UAV_OTHER_UGV: "uav_ugv_separation",
}


def build_constraint_row(
    kind: RowKind,
    self_state,
    other_state=None,
    other_velocity=None,
    params: SafetyParams | None = None,
    *,
    platform_height: float = 0.0,
    other_id: str | None = None,
    worst_case: bool = False,
) -> ConstraintRow:
    """Assemble one pairwise row ``a . u >= -b`` (a sphere family or the
    landing funnel); wall rows come from build_workspace_rows.

    self_state is the agent's own position (3D for UAV rows, 2D offset point
    for UGV rows); other_state/other_velocity describe the other agent.  UGV
    positions are planar and get embedded at platform_height where 3D
    geometry is needed.

    The states and velocity may carry a leading row axis: m stacked pairs
    give one ConstraintRow whose a is (m, dim) and whose b and h_value are
    (m,) arrays, each row bit-identical to the 1-D call on that pair, which
    returns a (dim,) a and float b and h_value.

    With worst_case=True the velocity estimate is replaced by the most
    adversarial motion allowed by the speed bounds (used when the estimate is
    stale): dh/dt = -2*|r|*v_max for the spheres, -|k|*sqrt(l)*v_max for the
    funnel.
    """
    if params is None:
        raise InvalidInputError("params is required")
    if kind is not RowKind.LANDING and kind not in _SPHERE_RADIUS:
        raise InvalidInputError(f"no pairwise row for kind {kind!r}")
    if other_state is None:
        raise IncompleteInputError(f"{kind.value} row requires the other agent's state")
    if other_velocity is None and not worst_case:
        raise IncompleteInputError(
            f"{kind.value} row is time-varying and requires a velocity estimate"
        )

    p_i = np.asarray(self_state, dtype=float)
    p_j = np.asarray(other_state, dtype=float)
    if kind is RowKind.UAV_OTHER_UGV or kind is RowKind.LANDING:
        p_j = np.concatenate((p_j, np.full(p_j.shape[:-1] + (1,), platform_height)), axis=-1)
    # r is finite only where both positions are (and their difference does
    # not overflow), so one check covers everything derived from them.
    r = _require_finite("position difference", p_i - p_j)
    if kind is RowKind.LANDING:
        h, l, k = _funnel(r, params.funnel_sharpness, params.funnel_height,
                          params.hover_clearance)
        a = _funnel_gradient(r, k)
        if worst_case:
            dh_dt = -np.abs(k) * np.sqrt(l) * params.uav_speed_limit
        else:
            dh_dt = _funnel_time_term(r, k, _require_finite("ugv_velocity", other_velocity))
    else:
        h = _sphere(r, getattr(params, _SPHERE_RADIUS[kind]))
        a = 2.0 * r
        if worst_case:
            dh_dt = -2.0 * np.sqrt(_dot(r, r)) * params.uav_speed_limit
        else:
            v = _require_finite("other velocity", other_velocity)
            if kind is RowKind.UAV_OTHER_UGV:  # the platform stays flat
                dh_dt = -2.0 * (r.T[0] * v.T[0] + r.T[1] * v.T[1])
            else:
                dh_dt = -2.0 * _dot(r, v)

    kappa = params.barrier_gain
    return ConstraintRow(a=a, b=_out(kappa * h + dh_dt), kind=kind, other_id=other_id,
                         h_value=_out(h))


def pairwise_sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between every row of a (..., m, dim) and every row
    of b (..., k, dim), as a (..., m, k) array.

    The squares are summed axis by axis, ((dx*dx + dy*dy) + dz*dz), so each
    entry is bit-identical to that scalar expression; a dot product or a
    numpy sum may associate differently.
    """
    d2 = None
    for k in range(a.shape[-1]):
        dk = a[..., :, None, k] - b[..., None, :, k]
        dk *= dk
        d2 = dk if d2 is None else np.add(d2, dk, out=d2)
    return d2


def libm(fn, values: np.ndarray) -> np.ndarray:
    """fn applied per element through libm, not numpy's vector kernels,
    which may differ in the last ulp from the scalar path."""
    return np.array([fn(v) for v in values.ravel().tolist()]).reshape(values.shape)


def verify_validity(row: ConstraintRow, admissible_bound: float) -> bool:
    """Check the barrier condition is satisfiable inside the admissible box.

    Over the box |u_j| <= admissible_bound the supremum of a . u is
    admissible_bound * |a|_1, so the row is achievable iff

        admissible_bound * |a|_1 + b >= 0

    (b already contains kappa*h + dh/dt).
    """
    if admissible_bound < 0 or not math.isfinite(admissible_bound):
        raise InvalidInputError("admissible_bound must be finite and >= 0")
    reach = admissible_bound * float(np.abs(row.a).sum())
    return reach + row.b >= 0.0
