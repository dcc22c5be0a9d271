import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from airground import qp
from airground.agents import (UAV, UGV, AgentControlUnit, KindControl, data_stale,
                              nominal_velocity, step_ugv, step_uav, wrap_angle)
from airground.barriers import Bounds, RowKind, SafetyParams, offset_points
from airground.errors import InvalidInputError
from airground.netsim import LinkModel, StarBus

from oracles import (UgvState, build_constraint_row, from_rows, nid_forward,
                     nid_inverse, per_slot_stale, step_ugv_held)

PARAMS = SafetyParams(
    uav_separation=0.5, uav_ugv_separation=0.7, ugv_separation=1.0,
    funnel_sharpness=1.0, funnel_height=0.5, hover_clearance=0.2,
    barrier_gain=1.0, bounds=Bounds(-5, 5, -5, 5, 0, 3),
    uav_speed_limit=1.0, ugv_speed_limit=0.6, turn_rate_limit=4.0,
)


def empty_matrix(agent_id="uav0", dim=3):
    return from_rows(agent_id, capacity=8, dim=dim, rows=[])


class TestNominalController:
    def test_equilibrium(self):
        u = nominal_velocity((1, 2, 3), (1, 2, 3), (0, 0, 0), np.full(3, 1.0), 1.0)
        assert np.allclose(u, 0)

    def test_unit_gain_step(self):
        u = nominal_velocity((1, 0, 0), (0, 0, 0), (0, 0, 0), np.full(3, 1.0), 5.0)
        assert np.allclose(u, [-1, 0, 0])

    def test_saturation(self):
        u = nominal_velocity((10, 0, 0), (0, 0, 0), (0, 0, 0), np.full(3, 1.0), 1.0)
        assert np.allclose(u, [-1, 0, 0])

    def test_feedforward_rate(self):
        u = nominal_velocity((0, 0), (0, 0), (0.3, -0.2), np.full(2, 2.0), 1.0)
        assert np.allclose(u, [0.3, -0.2])


class TestOffsetTransform:
    def test_offset_heading_zero(self):
        assert np.allclose(offset_points(np.array([0, 0, 0.0]), 0.1), [0.1, 0])

    def test_offset_heading_quarter(self):
        assert np.allclose(offset_points(np.array([0, 0, math.pi / 2]), 0.1),
                           [0, 0.1], atol=1e-15)

    def test_offset_heading_pi(self):
        assert np.allclose(offset_points(np.array([0, 0, math.pi]), 0.1),
                           [-0.1, 0], atol=1e-15)

    def test_pure_forward(self):
        v, om = nid_inverse(0.0, (1, 0), 0.1)
        assert v == pytest.approx(1.0)
        assert om == pytest.approx(0.0)

    def test_pure_offset_rotation(self):
        v, om = nid_inverse(0.0, (0, 1), 0.1)
        assert v == pytest.approx(0.0)
        assert om == pytest.approx(10.0)

    def test_turn_rate_clamp_preserves_direction(self):
        v, om = nid_inverse(0.0, (0.5, 1.0), 0.1, turn_rate_limit=4.0)
        v0, om0 = nid_inverse(0.0, (0.5, 1.0), 0.1)
        assert abs(om) == pytest.approx(4.0)
        assert v / v0 == pytest.approx(om / om0)  # uniform scaling

    @given(st.floats(-math.pi, math.pi), st.floats(0.01, 1.0),
           st.floats(-1, 1), st.floats(-3, 3))
    def test_round_trip_exact(self, theta, offset, v, omega):
        ov = nid_forward(theta, v, omega, offset)
        v2, om2 = nid_inverse(theta, ov, offset)
        assert v2 == pytest.approx(v, abs=1e-12)
        assert om2 == pytest.approx(omega, abs=1e-12)


# Headings on and next to +-pi, at zero, and anywhere in (-pi, pi].
STEP_HEADINGS = st.sampled_from([math.pi, math.nextafter(math.pi, 0.0), -math.pi + 1e-12,
                                 math.nextafter(-math.pi, 0.0), 0.0, -0.0, -1e-300]) \
    | st.floats(-math.pi, math.pi).filter(lambda a: a > -math.pi)
# Held (zero) velocities, speeds within the box, and sideways velocities
# whose implied turn rate is far beyond the clamp.
OFFSET_VELOCITIES = st.sampled_from([(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)]) \
    | st.tuples(st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)) \
    | st.tuples(st.floats(-0.1, 0.1), st.sampled_from([-5.0, 5.0]) | st.floats(-5.0, 5.0))


@given(st.lists(st.tuples(st.floats(-9.0, 9.0), st.floats(-9.0, 9.0), STEP_HEADINGS,
                          OFFSET_VELOCITIES), min_size=1, max_size=8),
       st.sampled_from([0.1, 0.25]), st.sampled_from([4.0, 1.5, 100.0]),
       st.sampled_from([0.01, 0.005, 0.05]), st.integers(1, 4))
def test_step_ugv_matches_scalar_oracle(vehicles, offset, limit, dt, steps):
    """step_ugv equals the scalar inverse offset map at each vehicle's
    current heading followed by the Euler step (step_ugv_held), bit for
    bit, over a few steps that hold the same offset velocities."""
    velocity = np.array([v[3] for v in vehicles])
    states = [UgvState(x, y, theta, offset=offset) for x, y, theta, _ in vehicles]
    poses = np.array([(s.x, s.y, s.theta) for s in states])  # headings wrapped
    for _ in range(steps):
        poses = step_ugv(poses, velocity, offset, limit, dt)
        states = [step_ugv_held(st_, ov, limit, dt) for st_, ov in zip(states, velocity)]
        assert poses.tobytes() == np.array([(s.x, s.y, s.theta) for s in states]).tobytes()


class TestKinematicSteps:
    def test_uav_zero_input(self):
        p = np.array([[1.0, 2.0, 3.0], [-4.0, 0.5, 1.0]])
        p2 = step_uav(p, np.zeros((2, 3)), 0.01)
        assert np.array_equal(p2, p)

    def test_uav_euler(self):
        p = step_uav(np.array([[0.0, 0.0, 1.0]]), np.array([[1.0, 0.0, 0.0]]), 0.01)
        assert np.allclose(p, [[0.01, 0, 1]])

    def test_uav_linearity(self):
        p = np.zeros((2, 3))
        u = np.array([[0.3, -0.1, 0.2], [-0.5, 0.4, 0.0]])
        for _ in range(17):
            p = step_uav(p, u, 0.01)
        assert np.allclose(p, 17 * 0.01 * u, atol=1e-12)

    def test_ugv_hold(self):
        poses = np.array([[1.0, 2.0, 0.5], [-3.0, 0.0, -2.0]])
        poses2 = step_ugv(poses, np.zeros((2, 2)), 0.1, 4.0, 0.1)
        assert np.array_equal(poses2, poses)

    def test_ugv_straight(self):
        poses = step_ugv(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, math.pi / 2]]),
                         np.array([[1.0, 0.0], [0.0, 0.5]]), 0.1, 4.0, 0.1)
        assert poses[0] == pytest.approx([0.1, 0.0, 0.0])
        assert poses[1] == pytest.approx([1.0, 1.05, math.pi / 2])

    def test_held_velocity_follows_the_heading(self):
        """A UGV holding a sideways offset velocity turns toward it, so the
        forward speed it takes grows step by step."""
        poses = np.array([[0.0, 0.0, 0.0]])
        speeds = []
        for _ in range(5):
            before = poses.copy()
            poses = step_ugv(poses, np.array([[0.0, 0.3]]), 0.1, 4.0, 0.1)
            speeds.append(math.dist(before[0, :2], poses[0, :2]))
        assert speeds[0] == 0.0 and all(a < b for a, b in zip(speeds, speeds[1:]))

    def test_heading_wraps_into_half_open_interval(self):
        poses = np.array([[0.0, 0.0, math.pi - 0.01], [0.0, 0.0, -math.pi + 0.01]])
        # push the first past pi and the second past -pi
        ov = np.array([nid_forward(theta, 0.0, omega, 0.1)
                       for theta, omega in zip(poses[:, 2], (0.2, -0.2))])
        poses2 = step_ugv(poses, ov, 0.1, 4.0, 0.1)
        assert np.all((-math.pi < poses2[:, 2]) & (poses2[:, 2] <= math.pi))
        assert poses2[0, 2] == pytest.approx(-math.pi + 0.01, abs=1e-12)
        assert poses2[1, 2] == pytest.approx(math.pi - 0.01, abs=1e-12)

    def test_non_positive_dt_rejected(self):
        with pytest.raises(InvalidInputError):
            step_uav(np.zeros((1, 3)), np.zeros((1, 3)), 0.0)
        with pytest.raises(InvalidInputError):
            step_ugv(np.zeros((1, 3)), np.zeros((1, 2)), 0.1, 4.0, -0.01)

    def test_wrap_convention(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
        assert wrap_angle(0.0) == 0.0


class TestControlUnit:
    def make_uav(self):
        return AgentControlUnit("uav0", UAV, np.full(3, 1.0), PARAMS,
                                hold_timeout=0.25)

    def feed(self, unit, t, pose, setpoint, rate, matrix):
        unit.on_update(pose, setpoint, rate, *matrix, False, t)

    def test_holds_without_data(self):
        unit = self.make_uav()
        cmd, tele = unit.tick(0.0)
        assert cmd.hold and tele.status == "hold" and tele.stale
        assert np.allclose(cmd.u, 0)

    def test_holds_on_stale_data(self):
        unit = self.make_uav()
        self.feed(unit, 0.0, (0, 0, 1), (0, 0, 1), (0, 0, 0), empty_matrix())
        cmd, tele = unit.tick(0.2)
        assert not cmd.hold
        cmd, tele = unit.tick(0.3)  # 0.3 > hold_timeout after last receipt
        assert cmd.hold and tele.stale

    def test_zero_command_at_setpoint_without_constraints(self):
        unit = self.make_uav()
        self.feed(unit, 0.0, (1, 1, 1), (1, 1, 1), (0, 0, 0), empty_matrix())
        cmd, tele = unit.tick(0.0)
        assert np.allclose(cmd.u, 0)
        assert tele.status == "optimal"

    def test_feasible_nominal_passes_through(self):
        unit = self.make_uav()
        rows = [build_constraint_row(RowKind.UAV_UAV, (2, 0, 1), (0, 0, 1),
                                     (0, 0, 0), params=PARAMS)]
        matrix = from_rows("uav0", 8, 3, rows)
        self.feed(unit, 0.0, (2, 0, 1), (2.5, 0, 1), (0, 0, 0), matrix)
        cmd, tele = unit.tick(0.0)
        assert np.allclose(cmd.u, [0.5, 0, 0])  # moving away: untouched

    def test_head_on_row_inequality_holds_each_tick(self):
        # Two UAVs flying at each other; assert the emitted command satisfies
        # its row every tick while the pair closes and separates again.
        dt = 0.02
        p_i = np.array([1.2, 0.0, 1.0])
        p_j = np.array([-1.2, 0.0, 1.0])
        unit = self.make_uav()
        v_j = np.array([0.4, 0.0, 0.0])
        for step in range(400):
            t = step * dt
            row = build_constraint_row(RowKind.UAV_UAV, p_i, p_j, v_j, params=PARAMS)
            matrix = from_rows("uav0", 8, 3, [row])
            self.feed(unit, t, p_i, (-2.0, 0, 1.0), (0, 0, 0), matrix)
            cmd, tele = unit.tick(t)
            assert float(row.a @ cmd.u) + row.b >= -1e-9
            assert tele.status in ("optimal", "relaxed")
            p_i = p_i + dt * cmd.u
            p_j = p_j + dt * v_j
            gap = np.linalg.norm(p_i - p_j)
            assert gap >= PARAMS.uav_separation - 1e-3

    def test_commands_stay_in_admissible_box(self):
        unit = self.make_uav()
        self.feed(unit, 0.0, (4, 4, 2.5), (-4, -4, 0.5), (0, 0, 0), empty_matrix())
        cmd, _ = unit.tick(0.0)
        assert np.all(np.abs(cmd.u) <= PARAMS.uav_speed_limit + 1e-12)

    def test_ugv_unit_converts_to_twist(self):
        """A UGV unit emits its offset-point velocity; the vehicle's step
        turns it into a body twist at its heading."""
        unit = AgentControlUnit("ugv0", UGV, np.full(2, 1.0), PARAMS,
                                hold_timeout=0.25, offset=0.1)
        unit.on_update((0.0, 0.0, 0.0), (1.0, 0.0), (0, 0), *empty_matrix("ugv0", dim=2),
                       False, 0.0)
        cmd, tele = unit.tick(0.0)
        # offset point starts at (0.1, 0): nominal pulls +x, clamped to the
        # UGV box, which the vehicle drives as pure forward motion.
        assert cmd.u.tolist() == [0.6, 0.0]
        pose = step_ugv(np.zeros((1, 3)), cmd.u[None], 0.1, PARAMS.turn_rate_limit, 0.1)
        assert pose[0].tolist() == pytest.approx([0.06, 0.0, 0.0])
        v, omega = nid_inverse(0.0, cmd.u, 0.1, PARAMS.turn_rate_limit)
        assert v == pytest.approx(0.6)
        assert omega == pytest.approx(0.0, abs=1e-12)

    def test_landed_mode_emits_zero(self):
        """The first update with the landed bit lands the unit without
        writing its slot, even one older than the unit's stamp."""
        unit = self.make_uav()
        self.feed(unit, 0.1, (0, 0, 1), (2, 0, 1), (0, 0, 0), empty_matrix())
        assert not unit.landed
        unit.on_update((5, 5, 1), (5, 5, 1), (1, 0, 0), *empty_matrix(), True, 0.05)
        assert unit.landed
        lane = unit.lane
        assert lane.stamps.tolist() == [0.1] and lane.setpoint[0].tolist() == [2, 0, 1]
        cmd, tele = unit.tick(0.1)
        assert tele.status == "landed"
        assert np.allclose(cmd.u, 0)

    def test_ugv_unit_ignores_the_landed_bit(self):
        """A UGV's update carries its pair's landed bit too; the unit takes
        it as any other update and keeps driving."""
        unit = AgentControlUnit("ugv0", UGV, np.full(2, 1.0), PARAMS,
                                hold_timeout=0.25, offset=0.1)
        unit.on_update((0.0, 0.0, 0.0), (1.0, 0.0), (0, 0), *empty_matrix("ugv0", dim=2),
                       True, 0.0)
        assert not unit.landed and unit.lane.landed_rows is None
        cmd, tele = unit.tick(0.0)
        assert tele.status == "optimal" and cmd.u.tolist() == [0.6, 0.0]

    def test_latest_wins_ignores_reordered_pose(self):
        unit = self.make_uav()
        matrix = from_rows("uav0", 8, 3, [build_constraint_row(
            RowKind.UAV_UAV, (2, 0, 1), (0, 0, 1), (0, 0, 0), params=PARAMS)])
        self.feed(unit, 0.10, (1, 1, 1), (2, 2, 2), (0.1, 0, 0), matrix)
        self.feed(unit, 0.05, (9, 9, 9), (9, 9, 9), (9, 9, 9), empty_matrix())  # late
        lane = unit.lane
        assert lane.pose[0].tolist() == [1, 1, 1] and lane.setpoint[0].tolist() == [2, 2, 2]
        assert lane.rate[0].tolist() == [0.1, 0, 0]
        assert lane.a[0] is matrix.a and lane.b[0] is matrix.b and lane.count.tolist() == [1]
        assert lane.stamps.tolist() == [0.10]

    def test_solves_once_per_slot_replacement(self, monkeypatch):
        calls = []
        project = qp.project_lanes

        def counted(*args):
            calls.append(args)
            return project(*args)

        monkeypatch.setattr(qp, "project_lanes", counted)
        unit = self.make_uav()
        self.feed(unit, 0.0, (0, 0, 1), (2, 0, 1), (0, 0, 0), empty_matrix())
        for t in (0.0, 0.02, 0.04):
            unit.tick(t)
        assert len(calls) == 1
        replacements = [  # the update's stamp, and what it carries
            (0.06, ((0.1, 0, 1), (2, 0, 1), (0, 0, 0), *empty_matrix(), False)),
            (0.08, ((0.1, 0, 1), (2, 1, 1), (0, 0, 0), *empty_matrix(), False)),
            (0.08, ((0.2, 0, 1), (2, 1, 1), (0, 0, 0), *empty_matrix(), False)),  # equal stamp
        ]
        for k, (stamp, update) in enumerate(replacements):
            calls.clear()
            t = 0.08 + 0.02 * k
            unit.on_update(*update, stamp)
            unit.tick(t)
            assert len(calls) == 1  # the first tick after the replacement
            unit.tick(t + 0.01)
            assert len(calls) == 1  # and none on the next
        calls.clear()
        self.feed(unit, 0.05, (9, 9, 9), (9, 9, 9), (0, 0, 0), empty_matrix())  # older
        cmd, tele = unit.tick(0.2)
        assert calls == [] and tele.status == "optimal"
        cmd, tele = unit.tick(0.4)               # stale: hold, no solve
        assert calls == [] and tele.status == "hold"

    def test_dropped_update_leaves_the_unit_untouched(self):
        """An update the link drops never reaches the unit: its pose,
        setpoint, rate, rows and stamp stay those of the last kept update,
        and it holds once that stamp is older than hold_timeout."""
        bus = StarBus(["uav0"], LinkModel(0.0, 0.0, 0.5), seed=5)
        control = KindControl(["uav0"], UAV, np.full(3, 1.0), PARAMS, hold_timeout=0.12)
        fields = lambda: (control.stamps.tobytes(), control.pose.tobytes(),  # noqa: E731
                          control.setpoint.tobytes(), control.rate.tobytes(),
                          control.a[0])
        kept, drops, holds = None, 0, 0
        for k in range(80):
            t = 0.05 * k
            matrix = empty_matrix()
            update = (np.array([0.01 * k, 0.0, 1.0]), np.array([2.0, 0.1 * k, 1.0]),
                      np.full(3, 0.01 * k), *matrix, False)
            before = fields()
            due = bus.send("uav0", update, t)
            for _, payload, sent in bus.deliver_due(t):
                control.on_update(0, *payload, sent)
            if due is None:
                drops += 1
                after = fields()
                assert after[:4] == before[:4] and after[4] is before[4]
            else:
                kept = t
                assert control.stamps[0] == t and control.a[0] is matrix.a
                assert control.pose[0].tobytes() == update[0].tobytes()
            control.tick(t)
            stale = kept is None or t - kept > 0.12
            assert (control.status[0] == "hold") == stale
            holds += stale
        assert drops > 10 and holds > 2

    def test_returned_command_cannot_change_the_next(self):
        unit = self.make_uav()
        self.feed(unit, 0.0, (0, 0, 1), (2, 0, 1), (0, 0, 0), empty_matrix())
        cmd, tele = unit.tick(0.0)
        expected = cmd.u.tobytes()
        cmd.u[:] = 7.0
        tele.u_applied[0] = -7.0
        cmd, tele = unit.tick(0.02)
        assert cmd.u.tobytes() == expected
        assert tele.u_applied.tobytes() == expected


# Update stamps: none (-inf), a few shared values that make ties, or any.
STAMPS = st.one_of(st.just(-math.inf), st.sampled_from([0.0, 0.1, 0.3, 2.5]),
                   st.floats(0.0, 50.0))
UNITS = st.lists(st.tuples(STAMPS, STAMPS, STAMPS), min_size=1, max_size=4)
TIMEOUTS = st.sampled_from([0.05, 0.1, 0.12, 0.25]) | st.floats(1e-3, 1.0)


class TestStaleness:
    @given(units=UNITS, timeout=TIMEOUTS, pick=st.integers(0, 11), ulps=st.integers(-4, 4))
    def test_held_units_match_per_slot_test(self, units, timeout, pick, ulps):
        """A unit fed up to three updates in any order keeps the latest
        stamp in its one slot.  The staleness rule on that stamp, in each
        unit, decides exactly as the slot test on the latest update does,
        at times within a few ulps of an update's stamp plus the units'
        one timeout.  A kind of those units, ticked at each such time up to
        then, holds exactly the stale units after every tick, whether the
        tick ran or returned at once."""
        edges = [s + timeout for stamps in units for s in stamps if s > -math.inf] or [0.0]
        now = edges[pick % len(edges)]
        for _ in range(abs(ulps)):
            now = math.nextafter(now, math.copysign(math.inf, ulps))
        control = KindControl([f"uav{k}" for k in range(len(units))], UAV, np.full(3, 1.0),
                              PARAMS, timeout)
        oldest = []
        for k, stamps in enumerate(units):
            unit = AgentControlUnit("uav0", UAV, np.full(3, 1.0), PARAMS, hold_timeout=timeout)
            for stamp in stamps:  # updates in any order: the latest stays
                if stamp > -math.inf:
                    update = ((0, 0, 1), (0, 0, 1), (0, 0, 0), *empty_matrix(), False, stamp)
                    unit.on_update(*update)
                    control.on_update(k, *update)
            oldest.append(unit.lane.stamps[0])
        want = [per_slot_stale(now, [max(stamps)], timeout) for stamps in units]
        assert [bool(data_stale(now, s, timeout)) for s in oldest] == want
        for t in sorted({e for e in edges if e < now}) + [now]:
            control.tick(t)
            assert [status == "hold" for status in control.status] == [
                per_slot_stale(t, [max(stamps)], timeout) for stamps in units]

    def test_kind_ticks_only_on_a_message_or_a_newly_stale_update(self):
        control = KindControl(["uav0", "uav1", "uav2"], UAV, np.full(3, 1.0), PARAMS, 0.25)
        assert control.tick(0.0)                       # every unit's first tick
        assert control.status.tolist() == ["hold"] * 3
        control.on_update(1, (0, 0, 1), (0, 0, 1), (0, 0, 0), *empty_matrix(), False, 0.0)
        control.on_update(2, (0, 0, 1), (0, 0, 1), (0, 0, 0), *empty_matrix(), True, 0.0)
        assert control.tick(0.0)                       # two messages arrived
        assert control.status.tolist() == ["hold", "optimal", "landed"]
        assert not control.tick(0.25)                  # unit 1's update is still fresh
        assert control.tick(0.26)                      # and now it is stale
        assert control.status.tolist() == ["hold", "hold", "landed"]
        assert not control.tick(1.0)                   # no live unit is left to go stale
        control.on_update(1, (0, 0, 1), (0, 0, 1), (0, 0, 0), *empty_matrix(), False, -1.0)
        assert control.tick(1.0)                       # a message, if an ignored one
        assert control.status.tolist() == ["hold", "hold", "landed"]
        control.on_update(0, (0, 0, 1), (0, 0, 1), (0, 0, 0), *empty_matrix(), False, 1.0)
        assert control.tick(1.0)
        assert control.status.tolist() == ["optimal", "hold", "landed"]

    def test_a_landed_unit_ignores_its_updates(self):
        """Landing is terminal: an update sent to a landed unit, with or
        without the landed bit, leaves its slot, its output and the kind's
        dirty flag as they were, so the kind does not tick for it.
        landed_rows indexes the landed units: an index array while some
        are, a slice once all are."""
        control = KindControl(["uav0", "uav1"], UAV, np.full(3, 1.0), PARAMS, 0.25)
        assert control.landed_rows is None
        control.on_update(0, (0, 0, 1), (1, 0, 1), (0, 0, 0), *empty_matrix(), False, 0.0)
        control.on_update(1, (0, 0, 1), (0, 1, 1), (0, 0, 0), *empty_matrix(), False, 0.0)
        assert control.tick(0.0)
        control.on_update(0, (0, 0, 1), (1, 0, 1), (0, 0, 0), *empty_matrix(), True, 0.1)
        assert control.landed_rows.tolist() == [0]
        assert control.tick(0.1)
        assert control.status.tolist() == ["landed", "optimal"]
        flown = control.u[1].tolist()
        for stamp, landed in ((0.1, False), (0.2, True)):
            control.on_update(0, (3, 3, 3), (3, 3, 2), (1, 1, 1), *empty_matrix(), landed, stamp)
            assert not control.tick(stamp)
            assert control.u.tolist() == [[0.0, 0.0, 0.0], flown]
            assert control.status.tolist() == ["landed", "optimal"]
        assert control.stamps[0] == 0.0 and control.pose[0].tolist() == [0, 0, 1]
        assert control.setpoint[0].tolist() == [1, 0, 1] and control.rate[0].tolist() == [0, 0, 0]
        control.on_update(1, (0, 0, 1), (0, 1, 1), (0, 0, 0), *empty_matrix(), True, 0.3)
        assert control.landed_rows == slice(None)
        assert control.tick(0.3)
        assert control.status.tolist() == ["landed", "landed"]


class TestGains:
    @pytest.mark.parametrize("kind, gains", [
        (UAV, [1.0, 1.0]), (UGV, [1.0, 1.0, 1.0]), (UAV, 1.0), (UAV, [[1.0, 1.0, 1.0]]),
        (UAV, [1.0, 0.0, 1.0]), (UGV, [1.0, -2.0]), (UAV, [1.0, -0.0, 1.0]),
        (UAV, [1.0, math.inf, 1.0]), (UGV, [math.nan, 1.0]), (UGV, [1.0, -math.inf])],
        ids=["uav-2", "ugv-3", "scalar", "uav-1x3", "zero", "negative", "minus-zero",
             "inf", "nan", "minus-inf"])
    def test_kind_control_rejects_gains_of_the_wrong_shape_or_sign_or_not_finite(
            self, kind, gains):
        """Gains are one positive finite number per axis, checked once where
        the units are built, for a kind and for a single unit."""
        with pytest.raises(InvalidInputError, match="gains must be"):
            KindControl([f"{kind}0"], kind, gains, PARAMS)
        with pytest.raises(InvalidInputError, match="gains must be"):
            AgentControlUnit(f"{kind}0", kind, gains, PARAMS)


class TestConvergenceRate:
    def test_exponential_tracking_without_saturation(self):
        # Single UAV, no binding constraints: the tracking error must decay
        # at least at rate min(K)/2 measured by the log-slope.
        gains = np.full(3, 2.0)
        dt = 0.001
        p = np.array([0.3, -0.2, 1.2])
        target = np.array([0.0, 0.0, 1.0])
        errs = []
        for step in range(2000):
            u = nominal_velocity(p, target, (0, 0, 0), gains, 10.0)
            p = p + dt * u
            errs.append(np.linalg.norm(p - target))
        t_span = dt * (len(errs) - 1)
        rate = -(math.log(errs[-1]) - math.log(errs[0])) / t_span
        assert rate >= 2.0 / 2
