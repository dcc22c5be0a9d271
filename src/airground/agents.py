"""Per-agent control units: nominal tracking controller, safety-filter
invocation, the unicycle offset transform, and the kinematic step models.

A UAV is treated as a velocity-controlled point in 3D.  A UGV is a
differential-drive unicycle; its filter runs on the offset point located
``offset`` meters ahead along the heading, which turns the unicycle into a
single integrator:

    offset point:  (x_o, y_o) = (x, y) + offset * (cos th, sin th)
    inverse map:   v  =  cos th * xo_dot + sin th * yo_dot
                   om = (-sin th * xo_dot + cos th * yo_dot) / offset

Wheel speeds follow from v = (R1 + R2)/2, om = (R1 - R2)/(2L).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qp
from .barriers import SafetyParams
from .errors import InvalidInputError

UAV = "uav"
UGV = "ugv"


@dataclass
class UgvState:
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


@dataclass(frozen=True)
class Gains:
    """Positive diagonal tracking gains (1/s)."""

    diag: np.ndarray

    @staticmethod
    def of(value, dim: int) -> "Gains":
        arr = np.asarray(value, dtype=float)
        if arr.ndim == 0:
            arr = np.full(dim, float(arr))
        if arr.shape != (dim,) or np.any(arr <= 0) or not np.all(np.isfinite(arr)):
            raise InvalidInputError(f"gains must be positive per axis, got {value!r}")
        return Gains(diag=arr)


def wrap_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    r = math.fmod(theta + math.pi, 2.0 * math.pi)
    if r <= 0.0:
        r += 2.0 * math.pi
    return r - math.pi


def nominal_velocity(current, setpoint, setpoint_rate, gains: Gains,
                     speed_limit: float) -> np.ndarray:
    """Proportional tracking input -K*(p - p_des) + p_des_dot, clamped to the
    per-axis admissible box."""
    current = np.asarray(current, dtype=float)
    setpoint = np.asarray(setpoint, dtype=float)
    rate = np.asarray(setpoint_rate, dtype=float)
    u = -gains.diag * (current - setpoint) + rate
    return np.clip(u, -speed_limit, speed_limit)


def nid_offset(state: UgvState) -> np.ndarray:
    """Offset point ahead of the vehicle along its heading."""
    return np.array([
        state.x + state.offset * math.cos(state.theta),
        state.y + state.offset * math.sin(state.theta),
    ])


def nid_forward(theta: float, v: float, omega: float, offset: float) -> np.ndarray:
    """Offset-point velocity produced by a body twist (inverse of nid_inverse)."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([v * c - offset * omega * s, v * s + offset * omega * c])


def nid_inverse(state: UgvState, offset_velocity,
                turn_rate_limit: float | None = None) -> tuple[float, float]:
    """Convert an offset-point velocity to a body twist (v, omega).

    When the implied turn rate exceeds turn_rate_limit the whole offset
    velocity is scaled down uniformly, preserving the commanded direction.
    """
    ov = np.asarray(offset_velocity, dtype=float)
    c, s = math.cos(state.theta), math.sin(state.theta)
    v = c * ov[0] + s * ov[1]
    omega = (-s * ov[0] + c * ov[1]) / state.offset
    if turn_rate_limit is not None and abs(omega) > turn_rate_limit:
        scale = turn_rate_limit / abs(omega)
        v *= scale
        omega = math.copysign(turn_rate_limit, omega)
    return v, omega


def wheel_speeds(v: float, omega: float, wheel_base: float) -> tuple[float, float]:
    """Right/left wheel velocities for a body twist."""
    if wheel_base <= 0:
        raise InvalidInputError("wheel_base must be positive")
    return v + wheel_base * omega, v - wheel_base * omega


def twist_from_wheels(r1: float, r2: float, wheel_base: float) -> tuple[float, float]:
    return (r1 + r2) / 2.0, (r1 - r2) / (2.0 * wheel_base)


def step_uav(positions, velocities, dt: float) -> np.ndarray:
    """Explicit-Euler update of (n, 3) UAV positions under (n, 3) velocities."""
    if dt <= 0:
        raise InvalidInputError("dt must be positive")
    return np.asarray(positions, dtype=float) + dt * np.asarray(velocities, dtype=float)


def step_ugv(poses, v, omega, dt: float) -> np.ndarray:
    """Explicit-Euler unicycle update of (n, 3) UGV poses (x, y, theta) under
    (n,) body twists; the vehicles stay on the ground plane.

    Each vehicle takes the scalar update x + dt*v*cos(theta), with cos and
    sin from libm, and its new heading is wrapped into (-pi, pi] twice: the
    pinned logs were recorded with both wraps, and one wrap is not proven to
    give the same bits."""
    if dt <= 0:
        raise InvalidInputError("dt must be positive")
    twists = zip(np.asarray(poses, dtype=float).tolist(),
                 np.asarray(v, dtype=float).tolist(),
                 np.asarray(omega, dtype=float).tolist())
    return np.array([(x + dt * vk * math.cos(theta), y + dt * vk * math.sin(theta),
                      wrap_angle(wrap_angle(theta + dt * wk)))
                     for (x, y, theta), vk, wk in twists]).reshape(-1, 3)


@dataclass
class Command:
    """Actuation output of one control tick."""

    u: np.ndarray                      # filter-space velocity (3 UAV / 2 UGV)
    v: float = 0.0                     # UGV body twist
    omega: float = 0.0
    hold: bool = False


@dataclass
class TickTelemetry:
    time: float
    agent_id: str
    status: str                        # optimal | relaxed | failed | hold | landed
    stale: bool
    u_applied: np.ndarray
    qp_iterations: int = 0
    max_violation: float = 0.0


@dataclass
class _Slot:
    value: object = None
    stamp: float = -math.inf


def data_stale(now: float, oldest_stamp: float, hold_timeout: float) -> bool:
    """The staleness rule: inputs whose oldest slot is stamped oldest_stamp
    (-inf while a slot is empty) are too old to act on at now.

    Rounding of now - s is monotone in s, so this is exactly "now - s >
    hold_timeout for some slot stamp s", and a test against the earliest
    stamp of many units decides it for all of them when it fails."""
    return now - oldest_stamp > hold_timeout


class AgentControlUnit:
    """Distributed control unit for one agent.

    Consumes pose / setpoint / constraint-matrix messages from the network
    (latest timestamp wins per message type), runs the nominal controller and
    the QP filter, and falls back to a zero-velocity hold whenever its data is
    missing or older than hold_timeout.  The filtered command is a function
    of the three slots alone, so it is solved once per replaced slot and
    reused on the ticks in between.

    The watcher owns the landing phases; a UAV unit only learns that it has
    landed, from the touchdown acknowledgement, and then emits zero.
    """

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
        self._pose = _Slot()
        self._setpoint = _Slot()
        self._matrix = _Slot()
        self._solved: tuple | None = None   # (u, v, omega, status, iters, violation)

    @property
    def speed_limit(self) -> float:
        return (self.params.uav_speed_limit if self.kind == UAV
                else self.params.ugv_speed_limit)

    def on_pose(self, pose, stamp: float) -> None:
        if stamp >= self._pose.stamp:
            self._pose = _Slot(np.asarray(pose, dtype=float), stamp)
            self._solved = None

    def on_setpoint(self, position, rate, stamp: float) -> None:
        if stamp >= self._setpoint.stamp:
            self._setpoint = _Slot(
                (np.asarray(position, dtype=float), np.asarray(rate, dtype=float)), stamp
            )
            self._solved = None

    def on_constraints(self, matrix, stamp: float) -> None:
        if stamp >= self._matrix.stamp:
            self._matrix = _Slot(matrix, stamp)
            self._solved = None

    def on_touchdown_ack(self) -> None:
        if self.kind == UAV:
            self.landed = True

    def _zero(self) -> np.ndarray:
        return np.zeros(3 if self.kind == UAV else 2)

    def oldest_stamp(self) -> float:
        """Stamp of the oldest input slot; -inf while a slot is empty."""
        return min(self._pose.stamp, self._setpoint.stamp, self._matrix.stamp)

    def _data_stale(self, now: float) -> bool:
        return data_stale(now, self.oldest_stamp(), self.hold_timeout)

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
        u, v, omega, status, iterations, violation = self._solved
        u = u.copy()  # callers get their own array; the cached one stays intact
        return (Command(u=u, v=v, omega=omega),
                TickTelemetry(now, self.agent_id, status, False, u,
                              iterations, violation))

    def _solve(self) -> tuple:
        """Nominal input, QP filter (slack relaxation when infeasible) and,
        for a UGV, the body twist, all from the current slots."""
        pose = self._pose.value
        setpoint, rate = self._setpoint.value
        matrix = self._matrix.value
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
            sol = qp.solve_relaxed(qp.QpProblem(
                u_nominal=u_nom, rows=matrix.active_rows(), box=self.speed_limit))
            u, iterations = sol.u_star, sol.iterations
            violation = sol.max_violation
            status = sol.status.value
        if self.kind == UAV:
            return u, 0.0, 0.0, status, iterations, violation
        v, omega = nid_inverse(ugv_view, u,
                               turn_rate_limit=self.params.turn_rate_limit)
        return u, v, omega, status, iterations, violation


class TickSchedule:
    """Which control units of a fleet must tick at a control instant.

    A unit's tick output is a function of its three slots, its landed flag
    and whether its data is stale.  Between two of its ticks that output
    can change only if the unit received a message, or if the data it acted
    on at its last tick went stale since; every other unit would repeat its
    last command, status and u, and is skipped."""

    def __init__(self, units: list[AgentControlUnit]):
        self._units = units
        self._received = set(range(len(units)))   # nothing ticked yet
        # Units whose last tick acted on fresh data -> their oldest stamp.
        self._fresh: dict[int, float] = {}
        self._hold_timeout = min((u.hold_timeout for u in units), default=math.inf)

    def received(self, k: int) -> None:
        """Unit k got a message since its last tick."""
        self._received.add(k)

    def due(self, now: float) -> list[int]:
        """The units to tick at now, in index order."""
        due, self._received = self._received, set()
        fresh = self._fresh
        # No unit went stale unless the earliest fresh stamp, judged by the
        # shortest timeout, did.
        if fresh and data_stale(now, min(fresh.values()), self._hold_timeout):
            units = self._units
            due.update(k for k, stamp in fresh.items()
                       if data_stale(now, stamp, units[k].hold_timeout))
        return sorted(due)

    def ticked(self, k: int, status: str) -> None:
        """Record the status unit k's tick returned."""
        if status in ("hold", "landed"):
            self._fresh.pop(k, None)
        else:
            self._fresh[k] = self._units[k].oldest_stamp()
