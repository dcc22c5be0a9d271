"""Control units: nominal tracking controller, safety-filter invocation,
the unicycle offset transform, and the kinematic step models.

Each unit acts on the latest coordination update the watcher sent it: one
message per watcher tick carrying its pose, setpoint, constraint rows and
its pair's landed bit.  The units of one vehicle kind are held as arrays
(KindControl) and ticked together, only when a message arrived or an
update went stale, those without a solution filtered as one batch through
qp.project_lanes; AgentControlUnit is the same code for a single unit.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import qp
from .barriers import SafetyParams, mask_index, offset_points
from .errors import InvalidInputError

UAV = "uav"
UGV = "ugv"
_HELD = np.array(["hold", "landed"], dtype=object)  # a held unit's status, by landed flag


def wrap_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    r = math.fmod(theta + math.pi, 2.0 * math.pi)
    if r <= 0.0:
        r += 2.0 * math.pi
    return r - math.pi


def nominal_velocity(current, setpoint, setpoint_rate, gains: np.ndarray,
                     speed_limit: float) -> np.ndarray:
    """Proportional tracking input -K*(p - p_des) + p_des_dot, clamped to the
    per-axis admissible box; gains holds the diagonal of K."""
    current = np.asarray(current, dtype=float)
    setpoint = np.asarray(setpoint, dtype=float)
    rate = np.asarray(setpoint_rate, dtype=float)
    u = -gains * (current - setpoint) + rate
    return u.clip(-speed_limit, speed_limit)


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
    so the held velocity is mapped to a body twist (v, omega) at the
    current heading on every step.  An implied turn rate above
    turn_rate_limit scales the whole offset velocity down uniformly,
    keeping its direction.  cos and sin come from libm once per vehicle and
    serve both the map and the update x + dt*v*cos(theta); the new heading
    is wrapped into (-pi, pi] twice: the pinned logs were recorded with
    both wraps, and one wrap is not proven to give the same bits."""
    if dt <= 0:
        raise InvalidInputError("dt must be positive")
    cos, sin, copysign = math.cos, math.sin, math.copysign
    out = []
    for (x, y, theta), (ox, oy) in zip(np.asarray(poses, dtype=float).tolist(),
                                       np.asarray(offset_velocity, dtype=float).tolist()):
        c, s = cos(theta), sin(theta)
        v = c * ox + s * oy
        omega = (-s * ox + c * oy) / offset
        if abs(omega) > turn_rate_limit:
            v *= turn_rate_limit / abs(omega)
            omega = copysign(turn_rate_limit, omega)
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


class KindControl:
    """The control units of one vehicle kind, as arrays indexed by unit.

    Each unit keeps the latest update it has received in one slot: the
    pose, setpoint (with its rate) and constraint rows (a, b and count, row
    views of the watcher's block) of one watcher tick, stamped in stamps.
    An update stamped older than the unit's is ignored; any other replaces
    the slot and drops the unit's solution.  The filtered command is a
    function of the update alone, so it is solved once per update (u,
    status, sol_iters, sol_violation) and reused on the ticks in between.
    The watcher owns the landing phases: a UAV unit lands, and then emits
    zero, on the first update with its landed bit set to reach it (landing
    is terminal, so even one that overtook older ones), without writing
    its slot; a UGV unit ignores the bit.  Until then it flies its last
    update, or holds once that goes stale, with no fresh row covering it
    (watcher.Watcher).  A landed unit ignores every update: its slot and
    dirty stay as they were.  landed_rows indexes the landed units for the
    integration step: None while none has landed, slice(None) once all
    have, their index array in between; only a landing changes it.

    A unit's output is a function of its slot, its landed flag and whether
    its update is stale, so the kind's outputs can change between two ticks
    only if a message arrived (dirty) or the oldest stamp among its live
    units went stale since the last tick that ran.  Any other tick returns
    at once.  One that runs emits zero from the landed units (status
    landed) and from those with no update or one older than hold_timeout
    (hold); every other unit emits its solution, and those without one are
    filtered together (_filter).  A unit turns unsolved only through
    on_update, and a held unit comes back only through a new update, so u
    and status hold the solution as well as what each unit last emitted.  A
    UGV's u is its offset-point velocity, which step_ugv maps through the
    vehicle's current heading.  gains are the (dim,) per-axis tracking
    gains (1/s) and hold_timeout the one timeout of every unit."""

    def __init__(self, ids, kind: str, gains: np.ndarray, params: SafetyParams,
                 hold_timeout: float = 0.25, offset: float = 0.1):
        if kind not in (UAV, UGV):
            raise InvalidInputError(f"kind must be 'uav' or 'ugv', got {kind!r}")
        if offset <= 0:
            raise InvalidInputError("offset must be positive")
        n, dim = len(ids), 3 if kind == UAV else 2
        gains = np.asarray(gains, dtype=float)
        if gains.shape != (dim,) or not ((0.0 < gains) & (gains < math.inf)).all():
            raise InvalidInputError(f"gains must be {dim} positive finite numbers, got {gains}")
        self.ids, self.kind, self.dim, self.gains = list(ids), kind, dim, gains
        self.params, self.hold_timeout, self.offset = params, hold_timeout, offset
        self.speed_limit = params.uav_speed_limit if kind == UAV else params.ugv_speed_limit
        self.stamps = np.full(n, -np.inf)
        self.pose = np.zeros((n, 3))             # UAV position, UGV (x, y, theta)
        self.setpoint, self.rate = np.zeros((n, dim)), np.zeros((n, dim))
        self.a, self.b = [None] * n, [None] * n  # (capacity, dim) and (capacity,)
        self.count = np.zeros(n, dtype=int)
        self.landed, self.solved = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        self.landed_rows: np.ndarray | slice | None = None
        self.u, self.status = np.zeros((n, dim)), np.full(n, "hold", object)
        self.sol_iters, self.sol_violation = np.zeros(n, dtype=int), np.zeros(n)
        self.dirty = True                        # nothing ticked yet
        self._oldest = np.inf

    def on_update(self, k: int, pose, position, rate, a, b, count: int,
                  landed: bool, stamp: float) -> None:
        if self.landed[k]:
            return
        self.dirty = True
        if landed and self.kind == UAV:
            self.landed[k] = True
            self.landed_rows = mask_index(self.landed)
        elif stamp >= self.stamps[k]:
            self.stamps[k], self.pose[k], self.solved[k] = stamp, pose, False
            self.setpoint[k], self.rate[k] = position, rate
            self.a[k], self.b[k], self.count[k] = a, b, count

    def tick(self, now: float) -> bool:
        """Bring every unit's output up to date at now; returns whether any
        could have changed."""
        # No unit went stale unless the oldest live stamp did.
        if not self.dirty and not data_stale(now, self._oldest, self.hold_timeout):
            return False
        self.dirty = False
        live = ~(self.landed | data_stale(now, self.stamps, self.hold_timeout))
        self._filter((live & ~self.solved).nonzero()[0])
        held = (~live).nonzero()[0]
        if len(held):
            self.u[held] = 0.0
            self.status[held] = _HELD[self.landed[held].astype(int)]
        self._oldest = self.stamps.min(where=live, initial=np.inf)
        return True

    def _filter(self, lanes: np.ndarray) -> None:
        """Solve the units `lanes` (an index array) from their updates as
        arrays: nominal inputs and qp.project_lanes.  A UGV's control point
        is taken at its heading wrapped into (-pi, pi]: the watcher ships
        noisy poses."""
        if not len(lanes):
            return
        limit, pose = self.speed_limit, self.pose[lanes]
        current = pose
        if self.kind == UGV:
            pose[:, 2] = [wrap_angle(a) for a in pose[:, 2].tolist()]
            current = offset_points(pose, self.offset)
        u_nom = nominal_velocity(current, self.setpoint[lanes], self.rate[lanes],
                                 self.gains, limit)
        counts = self.count[lanes]
        rows = counts.max()  # blocks of one kind share a zero-padded capacity
        index = lanes.tolist()
        A = np.array([self.a[k][:rows] for k in index])
        b = np.array([self.b[k][:rows] for k in index])
        passed, rejected = qp.project_lanes(u_nom, A, b, counts, limit)
        self.status.put(lanes, "optimal")
        self.sol_iters[lanes], self.sol_violation[lanes] = 1, 0.0
        for lane in (~passed).nonzero()[0].tolist():
            k = index[lane]
            try:
                solved = next(rejected)
            except (RuntimeError, np.linalg.LinAlgError) as exc:
                raise FilterError(self.ids[k], exc) from exc
            # u_nom was read already: it now takes the lane's solution
            u_nom[lane], self.status[k], self.sol_iters[k], self.sol_violation[k] = solved
        self.u[lanes] = u_nom
        self.solved[lanes] = True


class AgentControlUnit:
    """One distributed control unit with a per-unit interface: a one-lane
    KindControl, ticked on every call."""

    def __init__(self, agent_id: str, kind: str, gains: np.ndarray,
                 params: SafetyParams, hold_timeout: float = 0.25,
                 offset: float = 0.1):
        self.agent_id, self.kind = agent_id, kind
        self.lane = lane = KindControl([agent_id], kind, gains, params, hold_timeout, offset)
        # on_update(pose, position, rate, a, b, count, landed, stamp)
        self.on_update = partial(lane.on_update, 0)

    @property
    def landed(self) -> bool:
        return bool(self.lane.landed[0])

    def tick(self, now: float) -> tuple[Command, TickTelemetry]:
        lane = self.lane
        lane.dirty = True
        lane.tick(now)
        status, u = lane.status[0], lane.u[0].copy()
        held = status in ("hold", "landed")
        info = (0, 0.0) if held else (lane.sol_iters.item(0), lane.sol_violation.item(0))
        return (Command(u=u, hold=status == "hold"),
                TickTelemetry(now, self.agent_id, status, status == "hold", u, *info))
