"""Control units: nominal tracking controller, safety-filter invocation,
the unicycle offset transform, and the kinematic step models.

Each unit acts on the latest coordination update the watcher sent it: one
message per watcher tick carrying its pose, setpoint and constraint matrix.
The units of one vehicle kind are held as arrays (KindControl) and the due
ones (TickSchedule) are ticked together, those without a solution filtered
as one batch; AgentControlUnit is the same code for a single unit.

A UAV is treated as a velocity-controlled point in 3D.  A UGV is a
differential-drive unicycle; its filter runs on the offset point located
``offset`` meters ahead along the heading (barriers.offset_points), which
turns the unicycle into a single integrator:

    offset point:  (x_o, y_o) = (x, y) + offset * (cos th, sin th)
    inverse map:   v  =  cos th * xo_dot + sin th * yo_dot
                   om = (-sin th * xo_dot + cos th * yo_dot) / offset

A UGV unit holds the filtered offset-point velocity; the vehicle's inner
loop (step_ugv) applies the inverse map at its current heading on every
integration step, so the offset point keeps the filtered velocity while
the heading turns between solves.  Heading is proprioceptive there
(odometry or IMU); positions reach a unit only from the watcher.

Wheel speeds follow from v = (R1 + R2)/2, om = (R1 - R2)/(2L).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import qp
from .barriers import SafetyParams, offset_points
from .errors import InvalidInputError

UAV = "uav"
UGV = "ugv"
_HELD = np.array(["hold", "landed"], dtype=object)  # a held unit's status, by landed flag


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
    return u.clip(-speed_limit, speed_limit)


def nid_forward(theta: float, v: float, omega: float, offset: float) -> np.ndarray:
    """Offset-point velocity produced by a body twist (inverse of nid_inverse)."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([v * c - offset * omega * s, v * s + offset * omega * c])


def _twist(c: float, s: float, x: float, y: float, offset: float,
           turn_rate_limit: float | None) -> tuple[float, float]:
    """The body twist (v, omega) of offset-point velocity (x, y) at a
    heading with cosine c and sine s.  An implied turn rate above
    turn_rate_limit scales the whole offset velocity down uniformly,
    keeping its direction."""
    v = c * x + s * y
    omega = (-s * x + c * y) / offset
    if turn_rate_limit is not None and abs(omega) > turn_rate_limit:
        v *= turn_rate_limit / abs(omega)
        omega = math.copysign(turn_rate_limit, omega)
    return v, omega


def nid_inverse(theta, offset_velocity, offset: float,
                turn_rate_limit: float | None = None):
    """Convert an offset-point velocity to a body twist (v, omega) at
    heading theta (inverse of nid_forward), clamped as _twist does.  L
    stacked headings and (L, 2) velocities give (L,) arrays v and omega,
    each lane its scalar call (which returns floats); cos and sin go
    through libm."""
    ov = np.asarray(offset_velocity, dtype=float)
    twists = [_twist(math.cos(a), math.sin(a), x, y, offset, turn_rate_limit)
              for a, (x, y) in zip(np.ravel(theta).tolist(), ov.reshape(-1, 2).tolist())]
    if ov.ndim == 1:
        return twists[0]
    v, omega = np.array(twists).reshape(-1, 2).T
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


def step_ugv(poses, offset_velocity, offset: float, turn_rate_limit: float,
             dt: float) -> np.ndarray:
    """Explicit-Euler unicycle update of (n, 3) UGV poses (x, y, theta) that
    hold (n, 2) offset-point velocities; the vehicles stay on the ground
    plane.

    This is each vehicle's inner loop: its heading is its own measurement,
    so the held velocity is mapped to a body twist at the current heading
    on every step (_twist, with the turn-rate clamp).  cos and sin come
    from libm once per vehicle and serve both the map and the update
    x + dt*v*cos(theta); the new heading is wrapped into (-pi, pi] twice:
    the pinned logs were recorded with both wraps, and one wrap is not
    proven to give the same bits."""
    if dt <= 0:
        raise InvalidInputError("dt must be positive")
    out = []
    for (x, y, theta), (ox, oy) in zip(np.asarray(poses, dtype=float).tolist(),
                                       np.asarray(offset_velocity, dtype=float).tolist()):
        c, s = math.cos(theta), math.sin(theta)
        v, omega = _twist(c, s, ox, oy, offset, turn_rate_limit)
        out.append((x + dt * v * c, y + dt * v * s, wrap_angle(wrap_angle(theta + dt * omega))))
    return np.array(out).reshape(-1, 3)


@dataclass
class Command:
    """Actuation output of one control tick."""

    u: np.ndarray                      # filter-space velocity (3 UAV / 2 UGV)
    hold: bool = False


@dataclass
class TickTelemetry:
    time: float
    agent_id: str
    status: str                        # optimal | relaxed | hold | landed
    stale: bool
    u_applied: np.ndarray
    qp_iterations: int = 0
    max_violation: float = 0.0


class FilterError(RuntimeError):
    """The safety filter of one unit failed; cause is the error it raised."""

    def __init__(self, agent_id: str, cause: Exception):
        super().__init__(f"{agent_id}: {cause}")
        self.agent_id, self.cause = agent_id, cause


def data_stale(now: float, stamp, hold_timeout):
    """The staleness rule: an update stamped stamp (-inf before the first)
    is too old to act on at now.  It also applies element by element to
    arrays.

    Rounding of now - s is monotone in s, so a test against the earliest
    stamp of many units decides it for all of them when it fails."""
    return now - stamp > hold_timeout


class TickSchedule:
    """Which of n control units must tick at a control instant.

    A unit's tick output is a function of its latest update, its landed
    flag and whether that update is stale.  Between two of its ticks that
    output can change only if the unit received a message (the mask
    received), or if the update its last tick acted on went stale since
    (fresh holds that update's stamp, +inf after a hold or landed tick).
    Every other unit would repeat its last command, status and u, and is
    skipped.  hold_timeout is one timeout for all units or one per unit."""

    def __init__(self, n: int, hold_timeout):
        self.hold_timeout = hold_timeout
        self.received = np.ones(n, dtype=bool)   # nothing ticked yet
        self.fresh = np.full(n, np.inf)
        self._earliest, self._shortest = np.inf, np.min(hold_timeout)

    def due(self, now: float) -> np.ndarray:
        """The (n,) mask of the units to tick at now."""
        due = self.received.copy()
        # No unit went stale unless the earliest fresh stamp, judged by the
        # shortest timeout, did.
        if data_stale(now, self._earliest, self._shortest):
            due |= data_stale(now, self.fresh, self.hold_timeout)
        self.received.fill(False)
        return due

    def ticked(self, units: np.ndarray, stamps: np.ndarray) -> None:
        """Record what the ticks of the units masked acted on, from (n,)
        stamps: the stamp of a fresh update, +inf for a hold or landing."""
        np.copyto(self.fresh, stamps, where=units)
        self._earliest = self.fresh.min()


class KindControl:
    """The control units of one vehicle kind, as arrays indexed by unit.

    Each unit keeps the latest update it has received in one slot: the
    pose, setpoint (with its rate) and constraint matrix of one watcher
    tick, stamped in stamps.  An update stamped older than the unit's is ignored; any other
    replaces all four fields and drops the unit's solution.  The filtered
    command is a function of the update alone, so it is solved once per
    update (solution, sol_status, sol_iters, sol_violation) and reused on
    the ticks in between.  The watcher owns the landing phases; a UAV
    unit only learns that it has landed, from the touchdown
    acknowledgement, and then emits zero.

    tick(now) runs the due units: a landed unit emits zero; a unit with no
    update, or one older than hold_timeout, holds at zero; every other
    unit emits its solution, and those without one are filtered together
    (_filter).  u and status are what each unit last emitted: a UGV's u is
    its offset-point velocity, which step_ugv maps through the vehicle's
    current heading."""

    def __init__(self, ids, kind: str, gains: Gains, params: SafetyParams,
                 hold_timeout: float = 0.25, offset: float = 0.1):
        if kind not in (UAV, UGV):
            raise InvalidInputError(f"kind must be 'uav' or 'ugv', got {kind!r}")
        if offset <= 0:
            raise InvalidInputError("offset must be positive")
        n, dim = len(ids), 3 if kind == UAV else 2
        self.ids, self.kind, self.dim, self.gains = list(ids), kind, dim, gains
        self.params, self.hold_timeout, self.offset = params, hold_timeout, offset
        self.speed_limit = params.uav_speed_limit if kind == UAV else params.ugv_speed_limit
        self.schedule = TickSchedule(n, hold_timeout)
        self.stamps = np.full(n, -np.inf)
        self.pose = np.zeros((n, 3))             # UAV position, UGV (x, y, theta)
        self.setpoint, self.rate = np.zeros((n, dim)), np.zeros((n, dim))
        self.matrices: list = [None] * n
        self.landed, self.solved = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        self.solution, self.u = np.zeros((2, n, dim))
        self.sol_status, self.status = np.full(n, "optimal", object), np.full(n, "hold", object)
        self.sol_iters, self.sol_violation = np.zeros(n, dtype=int), np.zeros(n)

    def on_update(self, k: int, pose, position, rate, matrix, stamp: float) -> None:
        if stamp >= self.stamps[k]:
            self.stamps[k], self.pose[k], self.solved[k] = stamp, pose, False
            self.setpoint[k], self.rate[k], self.matrices[k] = position, rate, matrix

    def on_touchdown_ack(self, k: int) -> None:
        if self.kind == UAV:
            self.landed[k] = True

    def tick(self, now: float) -> int:
        """Tick the due units; returns how many ticked."""
        due = self.schedule.due(now)
        if not np.count_nonzero(due):
            return 0
        live = ~(self.landed | data_stale(now, self.stamps, self.hold_timeout))
        on = due & live
        self._filter((on & ~self.solved).nonzero()[0])
        np.copyto(self.u, self.solution, where=on[:, None])
        np.copyto(self.status, self.sol_status, where=on)
        held = (due & ~live).nonzero()[0]
        if len(held):
            self.u[held] = 0.0
            self.status[held] = _HELD[self.landed[held].astype(int)]
        self.schedule.ticked(due, np.where(live, self.stamps, np.inf))
        return int(np.count_nonzero(due))

    def _filter(self, lanes: np.ndarray) -> None:
        """Solve the units `lanes` (an index array) from their updates as
        arrays: nominal inputs and qp.project_lanes.  Only lanes its scan
        rejects take per-lane Python (project_with_box, and the slack
        relaxation where a polytope is empty).  A UGV's control point is taken at its heading wrapped into
        (-pi, pi]: the watcher ships noisy poses."""
        if not len(lanes):
            return
        limit, pose = self.speed_limit, self.pose[lanes]
        current = pose
        if self.kind == UGV:
            pose[:, 2] = [wrap_angle(a) for a in pose[:, 2].tolist()]
            current = offset_points(pose, self.offset)
        u_nom = nominal_velocity(current, self.setpoint[lanes], self.rate[lanes],
                                 self.gains, limit)
        matrices = [self.matrices[k] for k in lanes.tolist()]
        counts = [m.active_count for m in matrices]
        rows = max(counts)  # matrices of one kind share a zero-padded capacity
        A = np.array([m.a[:rows] for m in matrices])
        b = np.array([m.b[:rows] for m in matrices])
        passed, solutions = qp.project_lanes(u_nom, A, b, counts, limit)
        self.sol_status.put(lanes, "optimal")
        self.sol_iters[lanes], self.sol_violation[lanes] = 1, 0.0
        for lane in (~passed).nonzero()[0].tolist():
            k = lanes[lane]
            try:
                u, iterations = next(solutions)
                info = ("optimal", iterations, 0.0)
                if u is None:  # infeasible: escalate to the slack relaxation
                    count = counts[lane]
                    sol = qp.solve_relaxed(u_nom[lane], A[lane, :count], b[lane, :count], limit)
                    u, info = sol.u_star, ("relaxed", sol.iterations, sol.max_violation)
            except (RuntimeError, np.linalg.LinAlgError) as exc:
                raise FilterError(self.ids[k], exc) from exc
            u_nom[lane] = u  # drawn already: u_nom now holds the lane's solution
            self.sol_status[k], self.sol_iters[k], self.sol_violation[k] = info
        self.solution[lanes] = u_nom
        self.solved[lanes] = True


class AgentControlUnit:
    """One distributed control unit with a per-unit interface: a one-lane
    KindControl, ticked on every call."""

    def __init__(self, agent_id: str, kind: str, gains: Gains,
                 params: SafetyParams, hold_timeout: float = 0.25,
                 offset: float = 0.1):
        self.agent_id, self.kind = agent_id, kind
        self.lane = lane = KindControl([agent_id], kind, gains, params, hold_timeout, offset)
        # on_update(pose, position, rate, matrix, stamp), on_touchdown_ack()
        self.on_update = partial(lane.on_update, 0)
        self.on_touchdown_ack = partial(lane.on_touchdown_ack, 0)

    @property
    def landed(self) -> bool:
        return bool(self.lane.landed[0])

    def tick(self, now: float) -> tuple[Command, TickTelemetry]:
        lane = self.lane
        lane.schedule.received[0] = True
        lane.tick(now)
        status, u = lane.status[0], lane.u[0].copy()
        held = status in ("hold", "landed")
        info = (0, 0.0) if held else (lane.sol_iters.item(0), lane.sol_violation.item(0))
        return (Command(u=u, hold=status == "hold"),
                TickTelemetry(now, self.agent_id, status, status == "hold", u, *info))
