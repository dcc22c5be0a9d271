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

Every function takes stacked arrays and returns arrays: build_constraint_row
and build_workspace_rows take (m, dim) positions, one row per pair or agent,
and the watcher builds a whole family's rows per tick in one call.
wall_heights, eval_landing and offset_points take any leading shape, so the
post-run summary evaluates (T, k, .) blocks of ticks with them too.  Each
entry is bit-identical to the scalar expression for its row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain

import numpy as np

from .errors import ConfigViolation, InvalidInputError, ParameterRecord

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

    def __post_init__(self):
        # wall_heights' operands, built once: the upper x, y and z bounds and
        # the lower x and y bounds.
        object.__setattr__(self, "upper", np.array((self.x_max, self.y_max, self.z_max)))
        object.__setattr__(self, "lower", np.array((self.x_min, self.y_min)))

    def validate(self) -> list[ConfigViolation]:
        problems = []
        for lo, hi, axis in (
            (self.x_min, self.x_max, "x"),
            (self.y_min, self.y_max, "y"),
            (self.z_min, self.z_max, "z"),
        ):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                problems.append(ConfigViolation("BAD_VALUE", f"{axis} bounds must be finite"))
            elif not lo < hi:
                problems.append(ConfigViolation(
                    "BAD_VALUE", f"{axis} bounds must satisfy min < max, got [{lo}, {hi}]"))
        return problems

@dataclass(frozen=True)
class SafetyParams(ParameterRecord):
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

    def validate(self) -> list[ConfigViolation]:
        """Every rule these parameters break, each with its code."""
        problems = []
        if not (self.ugv_separation > self.uav_ugv_separation > self.uav_separation > 0):
            problems.append(ConfigViolation(
                "RADIUS_ORDER", "separation radii must satisfy ugv > uav_ugv > uav > 0, got "
                f"({self.ugv_separation}, {self.uav_ugv_separation}, {self.uav_separation})"))
        if not (0 < self.ugv_speed_limit < self.uav_speed_limit):
            problems.append(ConfigViolation(
                "SPEED_BOUND", "speed limits must satisfy 0 < ugv_speed_limit < "
                f"uav_speed_limit, got ({self.ugv_speed_limit}, {self.uav_speed_limit})"))
        if self.funnel_sharpness <= 0 or self.funnel_height <= 0:
            problems.append(ConfigViolation(
                "BAD_VALUE", "funnel_sharpness and funnel_height must be positive"))
        if self.hover_clearance < 0:
            problems.append(ConfigViolation("BAD_VALUE", "hover_clearance must be non-negative"))
        if self.barrier_gain <= 0:
            problems.append(ConfigViolation("BAD_VALUE", "barrier_gain must be positive"))
        if self.turn_rate_limit <= 0:
            problems.append(ConfigViolation("BAD_VALUE", "turn_rate_limit must be positive"))
        problems.extend(self.bounds.validate())
        return problems


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x . y over the last axis, one value per leading index, as a batched
    matmul: each value is bit-identical to float(x_k @ y_k) for its row,
    which an axis-by-axis sum or np.einsum is not."""
    return (x[..., None, :] @ y[..., :, None]).T[0, 0]


def _sphere(d, separation: float):
    """|d|^2 - separation^2 for finite differences d."""
    if separation <= 0 or not math.isfinite(separation):
        raise InvalidInputError(f"separation must be positive, got {separation}")
    return _dot(d, d) - separation * separation


def _funnel(r, sharpness: float, height: float, clearance: float):
    """eval_landing's (h, l, k) at finite offsets r."""
    if sharpness <= 0 or height <= 0:
        raise InvalidInputError("funnel sharpness and height must be positive")
    rx, ry, rz = r[..., 0], r[..., 1], r[..., 2]
    l = rx * rx + ry * ry
    decay = libm(math.exp, -sharpness * l)
    h = rz - height * sharpness * l * decay - clearance
    k = 2.0 * height * sharpness * (sharpness * l - 1.0) * decay
    return h, l, k


def eval_landing(p_uav, p_ugv_3d, sharpness: float, height: float,
                 clearance: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Funnel barrier above the paired vehicle, for (..., 3) positions.

    With r = p_uav - p_ugv_3d and l = r_x^2 + r_y^2:

        h = r_z - height*sharpness*l*exp(-sharpness*l) - clearance

    Returns the (...) arrays (h, l, k) where k = 2*height*sharpness*
    (sharpness*l - 1) * exp(-sharpness*l) is the surface slope factor the
    row's gradient (k*r_x, k*r_y, 1) and time term -k*(r_x*vx + r_y*vy)
    reuse.  exp goes through libm, element by element.
    """
    p_uav = _require_finite("p_uav", p_uav)
    p_ugv_3d = _require_finite("p_ugv_3d", p_ugv_3d)
    return _funnel(p_uav - p_ugv_3d, sharpness, height, clearance)


# The read-only gradient of each wall face, in wall_heights' face order.
_WALLS = np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0],
                   [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]])
_WALLS.flags.writeable = False


def wall_gradients(is_uav: bool, dim: int) -> np.ndarray:
    """The read-only (faces, dim) unit gradients of an agent's wall rows,
    in wall_heights' face order."""
    return _WALLS[:5 if is_uav else 4, :dim]


def wall_heights(p, bounds: Bounds, is_uav: bool) -> np.ndarray:
    """(..., faces) wall barriers of (..., dim) positions: upper walls at
    even faces (bound - x), lower walls at odd ones (x - bound), each entry
    bit-identical to that scalar expression.

    UAVs get five faces (both x walls, both y walls, ceiling); the floor is
    covered by the landing funnel, which never deactivates.  UGVs get four
    planar faces evaluated at the offset point.
    """
    p = _require_finite("p", p)
    upper = 3 if is_uav else 2  # x and y walls, plus the ceiling for a UAV
    h = np.empty(p.shape[:-1] + (upper + 2,))
    h[..., 0::2] = bounds.upper[:upper] - p[..., :upper]
    h[..., 1::2] = p[..., :2] - bounds.lower
    return h


def offset_points(poses, offset: float) -> np.ndarray:
    """UGV control points of (..., 3) poses (x, y, theta), as (..., 2)
    points (x + offset*cos(theta), y + offset*sin(theta)); cos and sin go
    through libm, element by element, into one array."""
    poses = _require_finite("poses", poses)
    theta = poses[..., 2].ravel().tolist()
    m = len(theta)
    cos_sin = np.fromiter(chain(map(math.cos, theta), map(math.sin, theta)), float, 2 * m)
    return poses[..., :2] + offset * cos_sin.reshape(2, m).T.reshape(poses.shape[:-1] + (2,))


@dataclass(frozen=True)
class WallRows:
    """The wall rows of a stack of agents, in face order: a is the shared
    read-only (faces, dim) gradients, b = kappa * h is (m, faces), and
    len(rows) is the number of faces."""

    a: np.ndarray
    b: np.ndarray

    def __len__(self) -> int:
        return len(self.a)


def build_workspace_rows(p, params: SafetyParams, is_uav: bool) -> WallRows:
    """The wall rows of (m, dim) stacked positions, in one array pass."""
    return WallRows(a=wall_gradients(is_uav, np.shape(p)[-1]),
                    b=params.barrier_gain * wall_heights(p, params.bounds, is_uav))


# Separation radius of each sphere family, by SafetyParams field.
_SPHERE_RADIUS = {
    RowKind.UAV_UAV: "uav_separation",
    RowKind.UGV_UGV: "ugv_separation",
    RowKind.UAV_OTHER_UGV: "uav_ugv_separation",
}


def build_constraint_row(
    kind: RowKind,
    self_state,
    other_state,
    other_velocity,
    *,
    params: SafetyParams,
    platform_height: float = 0.0,
    worst_case: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One family's pairwise rows ``a . u >= -b`` (a sphere family or the
    landing funnel) for m stacked pairs; wall rows come from
    build_workspace_rows.

    self_state is (m, dim): the agents' own positions, 3D for UAV rows, 2D
    offset points for UGV rows.  other_state and other_velocity are (m, .)
    and describe the other agents; a UGV deck is planar and is lifted to
    platform_height for the UAV_OTHER_UGV and LANDING rows.  Returns
    (a, b, h): the (m, dim) gradients, b = kappa*h + dh/dt and the barrier
    values h, each (m,).

    With worst_case=True the velocity estimate is replaced by the most
    adversarial motion within the speed bounds (used only before the
    watcher's VelocityEstimator has its first difference): dh/dt =
    -2*|r|*v_max for the spheres, -|k|*sqrt(l)*v_max for the funnel.
    """
    r = np.array(self_state, dtype=float)
    other = np.asarray(other_state, dtype=float)
    if kind is RowKind.UAV_OTHER_UGV or kind is RowKind.LANDING:
        r[:, :2] -= other
        r[:, 2] -= platform_height
    else:
        r -= other
    # r is finite only where both positions are (and their difference does
    # not overflow), so one check covers everything derived from them.
    r = _require_finite("position difference", r)
    if not worst_case:
        v = _require_finite("other velocity", other_velocity)
    rx, ry = r[:, 0], r[:, 1]
    if kind is RowKind.LANDING:
        h, l, k = _funnel(r, params.funnel_sharpness, params.funnel_height,
                          params.hover_clearance)
        a = k[:, None] * r  # (k*r_x, k*r_y, 1)
        a[:, 2] = 1.0
        if worst_case:
            dh_dt = -np.abs(k) * np.sqrt(l) * params.uav_speed_limit
        else:
            dh_dt = -k * (rx * v[:, 0] + ry * v[:, 1])
    else:
        h = _sphere(r, getattr(params, _SPHERE_RADIUS[kind]))
        a = 2.0 * r
        if worst_case:
            dh_dt = -2.0 * np.sqrt(_dot(r, r)) * params.uav_speed_limit
        elif kind is RowKind.UAV_OTHER_UGV:  # the platform stays flat
            dh_dt = -2.0 * (rx * v[:, 0] + ry * v[:, 1])
        else:
            dh_dt = -2.0 * _dot(r, v)
    return a, params.barrier_gain * h + dh_dt, h


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


def mask_index(mask: np.ndarray) -> np.ndarray | slice | None:
    """An index of the set entries of a 1-D boolean mask that writes them
    the cheapest way: None when none is set, slice(None) when all are, and
    their index array otherwise."""
    rows = mask.nonzero()[0]
    return None if not len(rows) else slice(None) if len(rows) == len(mask) else rows


def libm(fn, values: np.ndarray) -> np.ndarray:
    """fn applied per element through libm, not numpy's vector kernels,
    which may differ in the last ulp from the scalar path."""
    return np.fromiter(map(fn, values.ravel().tolist()), float, values.size).reshape(values.shape)
