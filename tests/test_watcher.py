import math

import numpy as np
import pytest

from airground import watcher as watcher_module
from airground.barriers import (Bounds, RowKind, SafetyParams,
                                build_constraint_row)
from airground.errors import CapacityError, InvalidInputError
from airground.watcher import (LANDED, LANDING, TrackTable, VelocityEstimator,
                               Watcher)

from oracles import agent_matrices, hover_point, row_layout

PARAMS = SafetyParams(
    uav_separation=0.5, uav_ugv_separation=0.7, ugv_separation=1.0,
    funnel_sharpness=1.0, funnel_height=0.5, hover_clearance=0.2,
    barrier_gain=1.0, bounds=Bounds(-6, 6, -6, 6, 0, 3),
    uav_speed_limit=1.0, ugv_speed_limit=0.6, turn_rate_limit=4.0,
)


def static_tracks(n):
    """n pairs' (waypoints, speed) tracks in tick order, each one static point."""
    return [([np.array([0.0, 0.0, 1.0])], 0.0), ([np.array([0.0, 0.0])], 0.0)] * n


def make_watcher(n, capacity=None, **kwargs):
    capacity = capacity if capacity is not None else 2 * n + 4
    return Watcher(n, PARAMS, capacity, static_tracks(n), **kwargs)


def clustered_poses(n=3, uav_side=0.9, ugv_side=1.3, z=0.5):
    """n pairs on concentric triangles, everything mutually in range: the
    (n, 3) UAV positions and (n, 3) UGV poses."""
    uav, ugv = np.zeros((n, 3)), np.zeros((n, 3))
    r_u = uav_side / math.sqrt(3)
    r_g = ugv_side / math.sqrt(3)
    for i in range(n):
        phi = 2 * math.pi * i / n + math.pi / 2
        uav[i] = r_u * math.cos(phi), r_u * math.sin(phi), z
        ugv[i] = r_g * math.cos(phi), r_g * math.sin(phi), phi
    return uav, ugv


def spread_poses(n=2, spacing=50.0):
    uav, ugv = np.zeros((n, 3)), np.zeros((n, 3))
    uav[:, 0] = ugv[:, 0] = spacing * np.arange(n)
    uav[:, 2] = 1.0
    return uav, ugv


class TestVelocityEstimator:
    def test_constant_stream_converges_immediately(self):
        est = VelocityEstimator(2, 2, smoothing=0.7)
        for k in range(5):
            t = 0.05 * k
            est.push(t, [(1.0 * t, 0.0), (0.0, -0.5 * t)])
        v, worst_case = est.estimate()
        assert np.max(np.abs(v - [[1.0, 0.0], [0.0, -0.5]])) < 1e-6
        assert not worst_case

    def test_static_agent(self):
        est = VelocityEstimator(1, 2)
        for k in range(4):
            est.push(0.05 * k, [(2.0, -1.0)])
        v, _ = est.estimate()
        assert np.allclose(v, 0.0)

    def test_single_sample_is_worst_case_zero(self):
        est = VelocityEstimator(2, 3)
        est.push(0.0, [(1, 2, 3), (4, 5, 6)])
        v, worst_case = est.estimate()
        assert worst_case
        assert v.shape == (2, 3) and np.allclose(v, 0.0)

    def test_repeated_time_adds_no_difference(self):
        est = VelocityEstimator(1, 2)
        est.push(0.0, [(0.0, 0.0)])
        est.push(0.0, [(1.0, 0.0)])
        assert est.estimate()[1]
        est.push(0.1, [(1.1, 0.0)])
        v, worst_case = est.estimate()
        assert not worst_case
        assert np.allclose(v, [[1.0, 0.0]])

    def test_push_copies_the_positions(self):
        est = VelocityEstimator(1, 2)
        buffer = np.zeros((1, 2))
        est.push(0.0, buffer)
        buffer[0, 0] = 5.0  # the caller refills its array in place
        est.push(0.1, buffer)
        assert np.allclose(est.estimate()[0], [[50.0, 0.0]])

    def test_smoothing_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            VelocityEstimator(1, 2, smoothing=0.0)

    def test_rows_are_worst_case_only_on_the_first_tick(self):
        w = make_watcher(1)
        uav = np.array([[0.3, 0.0, 0.6]])
        for now, x in ((0.0, 0.0), (0.1, 0.05)):  # the platform moves at 0.5 m/s
            ugv = np.array([[x, 0.0, 0.0]])
            w.tick(now, uav, ugv)
            matrix = agent_matrices(w)["uav0"]
            last = matrix.active_count - 1
            assert row_layout(w, "uav0")[0][last] is RowKind.LANDING
            _, expected, _ = build_constraint_row(
                RowKind.LANDING, uav, ugv[:, :2], [[0.5, 0.0]],
                params=PARAMS, worst_case=now == 0.0)
            assert matrix.b[last] == pytest.approx(expected[0], abs=1e-12)


class TestProximalGating:
    def test_distant_agents_have_empty_sets(self):
        w = make_watcher(2)
        w.tick(0.0, *spread_poses(2))
        assert w.proximal_set("uav0") == set()
        assert w.proximal_set("ugv0") == set()

    def test_clustered_agents_fully_active(self):
        w = make_watcher(3)
        w.tick(0.0, *clustered_poses(3))
        assert w.proximal_set("uav0") == {"uav1", "uav2", "ugv1", "ugv2"}
        assert w.proximal_set("ugv0") == {"ugv1", "ugv2", "uav1", "uav2"}

    def test_threshold_is_sharp_on_activation(self):
        w = make_watcher(2)
        d_act = PARAMS.uav_separation + w.activation_margin
        uav, ugv = spread_poses(2)
        uav[1] = d_act - 1e-6, 0.0, 1.0
        uav[0] = 0.0, 0.0, 1.0
        w.tick(0.0, uav, ugv)
        assert "uav1" in w.proximal_set("uav0")

    def test_hysteresis_prevents_chattering(self):
        w = make_watcher(2)
        d_act = PARAMS.uav_separation + w.activation_margin
        transitions = 0
        prev = None
        uav, ugv = spread_poses(2)
        # Oscillate inside the hysteresis band: cross d_act but never leave
        # the deactivation radius; once active the pair must stay active.
        for k in range(40):
            x = d_act + 0.05 * math.sin(2.1 * k) - 0.03
            uav[0] = 0.0, 0.0, 1.0
            uav[1] = x, 0.0, 1.0
            w.tick(0.05 * k, uav, ugv)
            active = "uav1" in w.proximal_set("uav0")
            if prev is not None and active != prev:
                transitions += 1
            prev = active
        assert transitions <= 1  # one activation, then latched

    def test_deactivation_beyond_band(self):
        w = make_watcher(2)
        d_act = PARAMS.uav_separation + w.activation_margin
        uav, ugv = spread_poses(2)
        uav[0] = 0.0, 0.0, 1.0
        uav[1] = d_act - 0.01, 0.0, 1.0
        w.tick(0.0, uav, ugv)
        assert "uav1" in w.proximal_set("uav0")
        uav[1] = d_act + 0.2, 0.0, 1.0
        w.tick(0.05, uav, ugv)
        assert "uav1" not in w.proximal_set("uav0")

    def test_shrinking_margin_never_adds_rows(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            uav, ugv = np.zeros((3, 3)), np.zeros((3, 3))
            for i in range(3):
                uav[i] = *rng.uniform(-3, 3, 2), rng.uniform(0.4, 2.0)
                ugv[i] = *rng.uniform(-3, 3, 2), rng.uniform(-3, 3)
            wide = make_watcher(3, activation_margin=1.5)
            narrow = make_watcher(3, activation_margin=0.4)
            wide.tick(0.0, uav, ugv)
            narrow.tick(0.0, uav, ugv)
            for aid in ("uav0", "uav1", "uav2", "ugv0", "ugv1", "ugv2"):
                assert narrow.proximal_set(aid) <= wide.proximal_set(aid)


class TestAssembly:
    def test_fully_proximal_counts(self):
        n = 3
        w = make_watcher(n)
        _, records = w.tick(0.0, *clustered_poses(n))
        by_agent = {r.agent_id: r for r in records}
        for i in range(n):
            assert by_agent[f"uav{i}"].active_count == 2 * n + 4  # 10
            assert by_agent[f"ugv{i}"].active_count == n + 3      # 6

    def test_isolated_uav_keeps_walls_and_funnel(self):
        w = make_watcher(2)
        _, records = w.tick(0.0, *spread_poses(2))
        by_agent = {r.agent_id: r for r in records}
        assert by_agent["uav0"].active_count == 6  # 5 walls + funnel
        assert by_agent["uav0"].kind_counts == {"workspace": 5, "landing": 1}
        assert by_agent["ugv0"].active_count == 4

    def test_row_order_uav(self):
        w = make_watcher(3)
        w.tick(0.0, *clustered_poses(3))
        kinds, other_ids = row_layout(w, "uav0")
        assert [k.value for k in kinds] == (["workspace"] * 5
                                            + ["uav_other_ugv"] * 2
                                            + ["landing"]
                                            + ["uav_uav"] * 2)
        assert agent_matrices(w)["uav0"].active_count == len(kinds)
        # within a family, neighbors are ordered by pair index
        assert other_ids[5:7] == ["ugv1", "ugv2"]
        assert other_ids[8:10] == ["uav1", "uav2"]

    def test_row_order_ugv(self):
        w = make_watcher(3)
        w.tick(0.0, *clustered_poses(3))
        kinds, _ = row_layout(w, "ugv1")
        assert [k.value for k in kinds] == ["workspace"] * 4 + ["ugv_ugv"] * 2
        assert agent_matrices(w)["ugv1"].active_count == len(kinds)

    def test_zero_padding_beyond_active_rows(self):
        w = make_watcher(3, capacity=16)
        w.tick(0.0, *spread_poses(3))
        matrix = agent_matrices(w)["uav0"]
        assert matrix.active_count == 6
        assert np.all(matrix.a[6:] == 0.0)
        assert np.all(matrix.b[6:] == 0.0)

    def test_capacity_exceeded_is_hard_error(self):
        w = make_watcher(3, capacity=7)
        with pytest.raises(CapacityError):
            w.tick(0.0, *clustered_poses(3))

    @pytest.mark.parametrize("n", [3, 16])
    def test_one_row_call_per_pairwise_family_per_tick(self, n, monkeypatch):
        calls = []

        def counting(kind, *args, **kwargs):
            calls.append(kind)
            return build_constraint_row(kind, *args, **kwargs)

        monkeypatch.setattr(watcher_module, "build_constraint_row", counting)
        w = make_watcher(n)
        uav, ugv = clustered_poses(n)
        for now in (0.0, 0.05):  # worst-case rows, then estimated ones
            calls.clear()
            w.tick(now, uav, ugv)
            assert sorted(k.value for k in calls) == [
                "landing", "uav_other_ugv", "uav_uav", "ugv_ugv"]

    def test_non_finite_pose_rejected(self):
        w = make_watcher(2)
        uav, ugv = spread_poses(2)
        ugv[1, 2] = np.nan
        with pytest.raises(InvalidInputError, match="finite"):
            w.tick(0.0, uav, ugv)

    def test_landing_row_survives_any_distance(self):
        w = make_watcher(2)
        w.tick(0.0, *spread_poses(2, spacing=500.0))
        assert RowKind.LANDING in row_layout(w, "uav1")[0]


class TestLandingProtocol:
    def landing_watcher(self):
        w = make_watcher(2)
        poses = spread_poses(2, spacing=10.0)
        w.tick(0.0, *poses)
        return w, poses

    def test_signal_switches_phase_and_setpoint(self):
        """The signal sends nothing of its own: the UAV learns of it from the
        setpoint in its next update, which chases the platform's hover point."""
        w, poses = self.landing_watcher()
        before = {dst: payload[1] for dst, payload in w.tick(1.0, *poses)[0]}
        assert w.handle_landing_signal(0)
        assert w.phases[0] == LANDING
        outbound, _ = w.tick(1.05, *poses)
        assert [dst for dst, _ in outbound] == ["uav0", "ugv0", "uav1", "ugv1"]
        setpoints = {dst: payload[1] for dst, payload in outbound}
        assert np.allclose(setpoints["uav0"], hover_point(w, 0))
        assert not np.allclose(before["uav0"], setpoints["uav0"])
        for other in ("ugv0", "uav1", "ugv1"):  # a static track: unchanged
            assert setpoints[other].tobytes() == before[other].tobytes()

    def test_duplicate_signal_idempotent(self):
        w, poses = self.landing_watcher()
        assert w.handle_landing_signal(0)
        assert w.handle_landing_signal(0)
        assert w.phases[0] == LANDING
        outbound, _ = w.tick(1.25, *poses)
        assert [dst for dst, _ in outbound] == ["uav0", "ugv0", "uav1", "ugv1"]
        assert np.allclose(outbound[0][1][1], hover_point(w, 0))

    def test_unknown_pair_rejected(self):
        w, _ = self.landing_watcher()
        assert not w.handle_landing_signal(7)

    def test_signal_for_landed_pair_is_noop(self):
        w, poses = self.landing_watcher()
        w.phases[0] = LANDED
        assert not w.handle_landing_signal(0)
        assert w.phases[0] == LANDED

    def hover_poses(self, w, pair=0):
        uav, ugv = spread_poses(2, spacing=10.0)
        uav[pair] = 10.0 * pair, 0.0, w.platform_height + PARAMS.hover_clearance
        return uav, ugv

    def test_touchdown_requires_dwell(self):
        w, _ = self.landing_watcher()
        w.handle_landing_signal(0)
        poses = self.hover_poses(w)
        w.tick(0.05, *poses)
        assert w.phases[0] == LANDING  # just arrived
        w.tick(0.30, *poses)
        assert w.phases[0] == LANDING  # dwell not yet over
        w.tick(0.56, *poses)
        assert w.phases[0] == LANDED
        assert w.touchdown_times[0] == pytest.approx(0.56)

    def test_touchdown_reads_this_ticks_platform(self):
        """A UAV hovering over a platform that moves 0.2 m per tick is inside
        the 0.1 m window only against the platform's pose of the same tick."""
        w, _ = self.landing_watcher()
        w.handle_landing_signal(0)
        for k in range(1, 13):
            uav, ugv = self.hover_poses(w)
            uav[0, 0] = ugv[0, 0] = 0.2 * k
            w.tick(0.05 * k, uav, ugv)
        assert w.phases[0] == LANDED
        assert w.touchdown_times[0] == pytest.approx(0.55)

    def test_transient_dip_does_not_land(self):
        w, far = self.landing_watcher()
        w.handle_landing_signal(0)
        inside = self.hover_poses(w)
        w.tick(0.05, *inside)
        outside = inside[0].copy(), inside[1]
        outside[0][0] = 10.0 * 0, 0.0, 1.5
        w.tick(0.15, *outside)  # left the funnel mouth
        w.tick(0.20, *inside)
        w.tick(0.60, *inside)   # only 0.4 s of continuous dwell
        assert w.phases[0] == LANDING
        w.tick(0.75, *inside)
        assert w.phases[0] == LANDED

    def test_touchdown_sets_landed_bit_and_retires_rows(self):
        """From its touchdown tick on, both updates of the landed pair carry
        the landed bit, and only theirs do; its UAV's aerial rows retire."""
        n = 2
        w = make_watcher(n)
        uav, ugv = clustered_poses(n, uav_side=0.9, ugv_side=1.25, z=0.3)
        w.tick(0.0, uav, ugv)
        before_self = agent_matrices(w)["uav0"]
        before_other = agent_matrices(w)["uav1"]
        assert before_self.active_count == 2 * n + 4
        assert before_other.active_count == 2 * n + 4

        w.handle_landing_signal(0)
        hover = uav.copy()
        hover[0] = *ugv[0, :2], w.platform_height + PARAMS.hover_clearance
        bits = [[payload[6] for _, payload in w.tick(t, hover, ugv)[0]]
                for t in (0.2, 0.8, 0.85)]
        assert w.touchdown_times == {0: 0.8}
        assert bits == [[False] * 4, [True, True, False, False], [True, True, False, False]]

        after_self = agent_matrices(w)["uav0"]
        after_other = agent_matrices(w)["uav1"]
        # The landed UAV keeps walls + funnel only: one aerial row and one
        # cross-layer row retire from its matrix.
        self_kinds = [k.value for k in row_layout(w, "uav0")[0]]
        assert self_kinds == ["workspace"] * 5 + ["landing"]
        assert before_self.active_count - after_self.active_count == 2
        # The flying UAV drops its row against the docked UAV but keeps the
        # row against the carrier vehicle.
        other_kinds = [k.value for k in row_layout(w, "uav1")[0]]
        assert "uav_uav" not in other_kinds
        assert "uav_other_ugv" in other_kinds
        assert before_other.active_count - after_other.active_count == 1


class TestDispatch:
    def test_one_update_per_agent_per_tick(self):
        """Each agent gets exactly one update, in tick order, carrying its
        pose, setpoint position and rate, constraint rows and its pair's
        landed bit together."""
        w = make_watcher(2)
        uav, ugv = spread_poses(2)
        outbound, _ = w.tick(0.0, uav, ugv)
        assert [dst for dst, _ in outbound] == ["uav0", "ugv0", "uav1", "ugv1"]
        matrices = agent_matrices(w)
        for (dst, (pose, position, rate, a, b, count, landed)), want in zip(
                outbound, (uav[0], ugv[0], uav[1], ugv[1])):
            dim = 3 if dst.startswith("uav") else 2
            assert pose.tobytes() == want.tobytes()
            assert position.shape == rate.shape == (dim,)
            assert a.shape == (w.capacity, dim) and b.shape == (w.capacity,)
            assert a.tobytes() == matrices[dst].a.tobytes()
            assert b.tobytes() == matrices[dst].b.tobytes()
            assert count == matrices[dst].active_count
            assert landed is False

    def test_records_cover_every_agent(self):
        w = make_watcher(3)
        _, records = w.tick(0.0, *clustered_poses(3))
        assert sorted(r.agent_id for r in records) == sorted(
            [f"uav{i}" for i in range(3)] + [f"ugv{i}" for i in range(3)])


class TestTrackTable:
    @staticmethod
    def sample(track, t):
        """One (waypoints, speed) track's setpoint position and rate at time t."""
        position, rate = TrackTable([track]).sample(t)
        return position[0], rate[0]

    def test_static_track(self):
        pos, rate = self.sample(([np.array([1.0, 2.0])], 0.0), 3.0)
        assert np.allclose(pos, [1, 2])
        assert np.allclose(rate, 0)

    def test_constant_speed_traversal(self):
        pos, rate = self.sample(([np.array([0.0, 0.0]), np.array([2.0, 0.0])], 0.5), 2.0)
        assert np.allclose(pos, [1.0, 0.0])
        assert np.allclose(rate, [0.5, 0.0])

    def test_cycles_back(self):
        track = ([np.array([0.0, 0.0]), np.array([1.0, 0.0])], 1.0)
        pos, _ = self.sample(track, 2.5)  # full loop is 2.0 long
        assert np.allclose(pos, [0.5, 0.0])

    @pytest.mark.parametrize("bad, message", [
        (([], 1.0), "a track needs at least one waypoint"),
        (([np.array([0.0, 0.0]), np.array([1.0, 0.0])], -0.5),
         "track speed must be non-negative")])
    def test_rejects_an_empty_track_and_a_negative_speed(self, bad, message):
        """Either bad track is rejected wherever it sits in the table."""
        good = ([np.array([0.0, 0.0, 1.0])], 0.0)
        for tracks in ([bad], [good, bad]):
            with pytest.raises(InvalidInputError, match=message):
                TrackTable(tracks)
