import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from airground.barriers import (Bounds, RowKind, SafetyParams,
                                build_constraint_row, build_workspace_rows,
                                eval_landing, eval_uav_other_ugv,
                                eval_uav_uav, eval_ugv_ugv, eval_workspace,
                                landing_gradient, landing_time_term,
                                offset_points, verify_validity)
from airground.errors import IncompleteInputError, InvalidInputError

import oracles

PARAMS = SafetyParams(
    uav_separation=0.5,
    uav_ugv_separation=0.7,
    ugv_separation=1.0,
    funnel_sharpness=1.0,
    funnel_height=2.0,
    hover_clearance=0.1,
    barrier_gain=1.0,
    bounds=Bounds(-2.0, 2.0, -2.0, 2.0, 0.0, 2.0),
    uav_speed_limit=1.0,
    ugv_speed_limit=0.6,
)

finite_coord = st.floats(-50, 50, allow_nan=False, allow_infinity=False)


class TestSphereBarriers:
    def test_uav_pair_separated(self):
        assert eval_uav_uav((1, 0, 0), (0, 0, 0), 0.5) == pytest.approx(0.75)

    def test_uav_pair_coincident(self):
        assert eval_uav_uav((0.3, 0.2, 1), (0.3, 0.2, 1), 0.5) == pytest.approx(-0.25)

    def test_uav_pair_on_boundary(self):
        assert eval_uav_uav((0.5, 0, 0), (0, 0, 0), 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_ugv_pair(self):
        assert eval_ugv_ugv((2, 0), (0, 0), 1.0) == pytest.approx(3.0)
        assert eval_ugv_ugv((0.4, -1.2), (0.4, -1.2), 1.0) == pytest.approx(-1.0)

    def test_ugv_pair_345_boundary(self):
        assert eval_ugv_ugv((0.6, 0.8), (0, 0), 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_uav_vs_other_ugv(self):
        assert eval_uav_other_ugv((0, 0, 1), (0, 0, 0), 0.7) == pytest.approx(0.51)
        on_sphere = (0.7 / math.sqrt(3),) * 3
        assert eval_uav_other_ugv(on_sphere, (0, 0, 0), 0.7) == pytest.approx(0.0, abs=1e-12)
        assert eval_uav_other_ugv((1, 2, 0), (1, 2, 0), 0.7) == pytest.approx(-0.49)

    @given(st.lists(finite_coord, min_size=3, max_size=3),
           st.lists(finite_coord, min_size=3, max_size=3),
           st.floats(0.01, 5.0))
    def test_symmetry(self, p, q, s):
        assert eval_uav_uav(p, q, s) == eval_uav_uav(q, p, s)

    def test_gradient_rows_of_a_pair_are_negations(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            p_i, p_j = rng.uniform(-5, 5, 3), rng.uniform(-5, 5, 3)
            v = rng.uniform(-1, 1, 3)
            row_i = build_constraint_row(RowKind.UAV_UAV, p_i, p_j, v, PARAMS)
            row_j = build_constraint_row(RowKind.UAV_UAV, p_j, p_i, v, PARAMS)
            assert np.array_equal(row_i.a, -row_j.a)
            assert row_i.h_value == row_j.h_value

    def test_boundary_exactness(self):
        # A point placed at exactly the safety radius gives |h| at float noise level.
        rng = np.random.default_rng(7)
        for _ in range(200):
            center = rng.uniform(-10, 10, 3)
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            s = rng.uniform(0.1, 3.0)
            h = eval_uav_uav(center + s * direction, center, s)
            assert abs(h) < 1e-12 * max(1.0, s * s)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            eval_uav_uav((np.nan, 0, 0), (0, 0, 0), 0.5)
        with pytest.raises(InvalidInputError):
            eval_ugv_ugv((np.inf, 0), (0, 0), 1.0)
        with pytest.raises(InvalidInputError):
            eval_uav_other_ugv((0, 0, 1), (0, np.nan, 0), 0.7)
        with pytest.raises(InvalidInputError):
            eval_uav_uav((1, 0, 0), (0, 0, 0), -0.5)


class TestLandingFunnel:
    def test_directly_overhead(self):
        h, l, k = eval_landing((0, 0, 0.5), (0, 0, 0), 1.0, 2.0, 0.1)
        assert h == pytest.approx(0.4)
        assert l == 0.0
        assert k == pytest.approx(-4.0)

    def test_surface_peak_matches_numeric_maximum(self):
        # Scan oracle: the surface height beta*alpha*l*exp(-alpha*l) + gamma
        # peaks where the closed form says it does.
        alpha, beta, gamma = 1.0, 2.0, 0.1
        ls = np.linspace(0, 20, 400001)
        surface = beta * alpha * ls * np.exp(-alpha * ls) + gamma
        i = int(np.argmax(surface))
        assert ls[i] == pytest.approx(1.0 / alpha, abs=1e-3)
        assert surface[i] == pytest.approx(0.8357588823428847, abs=1e-7)
        # At the peak the slope factor vanishes.
        h, l, k = eval_landing((1, 0, 1.0), (0, 0, 0), alpha, beta, gamma)
        assert l == pytest.approx(1.0)
        assert k == pytest.approx(0.0, abs=1e-15)
        assert h == pytest.approx(1.0 - 0.8357588823428847)

    def test_on_surface_is_boundary(self):
        alpha, beta, gamma = 1.3, 0.8, 0.2
        l = 0.7
        surface = beta * alpha * l * math.exp(-alpha * l) + gamma
        r_xy = math.sqrt(l)
        h, _, _ = eval_landing((r_xy, 0, surface), (0, 0, 0), alpha, beta, gamma)
        assert h == pytest.approx(0.0, abs=1e-15)

    def test_surface_monotone_beyond_peak(self):
        alpha, beta = 0.7, 1.5
        ls = np.linspace(1 / alpha, 50, 5000)
        surface = beta * alpha * ls * np.exp(-alpha * ls)
        assert np.all(np.diff(surface) < 0)

    def test_gradient_overhead(self):
        assert np.allclose(landing_gradient((0, 0, 0.5), -4.0), [0, 0, 1])

    def test_gradient_at_peak_is_vertical(self):
        _, _, k = eval_landing((1, 0, 0.5), (0, 0, 0), 1.0, 2.0, 0.1)
        assert k == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(landing_gradient((1, 0, 0.5), k), [0, 0, 1])

    def test_time_term_examples(self):
        assert landing_time_term((0, 0, 0.3), -4.0, (0, 0)) == 0.0
        assert landing_time_term((0, 0, 0.3), -4.0, (0.9, -0.4)) == 0.0
        assert landing_time_term((0.1, 0, 0.3), -4.0, (0.5, 0)) == pytest.approx(0.2)

    def test_time_term_matches_finite_difference(self):
        # Freeze the UAV, move the platform along its velocity, difference h.
        rng = np.random.default_rng(3)
        for _ in range(100):
            p_uav = rng.uniform(-3, 3, 3)
            p_ugv = np.array([*rng.uniform(-3, 3, 2), 0.0])
            vel = rng.uniform(-1, 1, 2)
            alpha, beta, gamma = rng.uniform(0.3, 2.0, 3)
            h0, l, k = eval_landing(p_uav, p_ugv, alpha, beta, gamma)
            analytic = landing_time_term(p_uav - p_ugv, k, vel)
            eps = 1e-6
            moved = p_ugv + eps * np.array([vel[0], vel[1], 0.0])
            h1, _, _ = eval_landing(p_uav, moved, alpha, beta, gamma)
            h_1, _, _ = eval_landing(p_uav, p_ugv - eps * np.array([vel[0], vel[1], 0.0]),
                                     alpha, beta, gamma)
            numeric = (h1 - h_1) / (2 * eps)
            assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-7)

    def test_extreme_horizontal_distance_stays_finite(self):
        h, l, k = eval_landing((40, 0, 1.0), (0, 0, 0), 1.0, 2.0, 0.1)
        assert math.isfinite(h) and math.isfinite(k)
        assert h == pytest.approx(0.9)  # surface term underflows to zero


class TestWorkspace:
    def test_uav_centered(self):
        rows = eval_workspace((0, 0, 1.0), Bounds(-2, 2, -2, 2, -1, 3), True)
        assert len(rows) == 5
        assert [h for h, _ in rows] == pytest.approx([2, 2, 2, 2, 2])

    def test_uav_at_wall(self):
        rows = eval_workspace((2.0, 0, 1.0), Bounds(-2, 2, -2, 2, 0, 2), True)
        assert rows[0][0] == pytest.approx(0.0)
        assert np.allclose(rows[0][1], [-1, 0, 0])

    def test_ugv_outside_lower_x(self):
        rows = eval_workspace((-2.1, 0.5), Bounds(-2, 2, -2, 2, 0, 2), False)
        assert len(rows) == 4
        assert rows[1][0] == pytest.approx(-0.1)
        assert np.allclose(rows[1][1], [1, 0])

    def test_gradients_are_signed_unit_vectors(self):
        for is_uav in (True, False):
            rows = eval_workspace((0.3, -0.4, 0.9) if is_uav else (0.3, -0.4),
                                  Bounds(-2, 2, -2, 2, 0, 2), is_uav)
            for _, g in rows:
                assert np.abs(g).sum() == 1.0


class TestConstraintRows:
    def test_uav_pair_row_example(self):
        row = build_constraint_row(
            RowKind.UAV_UAV, (1, 0, 0), (0, 0, 0), (0.2, 0, 0), PARAMS)
        assert np.allclose(row.a, [2, 0, 0])
        assert row.h_value == pytest.approx(0.75)
        assert row.b == pytest.approx(0.35)  # kappa*h + dh/dt = 0.75 - 0.4

    def test_uav_pair_time_term_matches_finite_difference(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p_i = rng.uniform(-5, 5, 3)
            p_j = rng.uniform(-5, 5, 3)
            v_j = rng.uniform(-1, 1, 3)
            row = build_constraint_row(RowKind.UAV_UAV, p_i, p_j, v_j, PARAMS)
            dh_dt = row.b - PARAMS.barrier_gain * row.h_value
            eps = 1e-6
            h_plus = eval_uav_uav(p_i, p_j + eps * v_j, PARAMS.uav_separation)
            h_minus = eval_uav_uav(p_i, p_j - eps * v_j, PARAMS.uav_separation)
            numeric = (h_plus - h_minus) / (2 * eps)
            assert dh_dt == pytest.approx(numeric, rel=1e-4, abs=1e-7)

    def test_ugv_pair_time_term_matches_finite_difference(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            r_i = rng.uniform(-5, 5, 2)
            r_j = rng.uniform(-5, 5, 2)
            v_j = rng.uniform(-0.6, 0.6, 2)
            row = build_constraint_row(RowKind.UGV_UGV, r_i, r_j, v_j, PARAMS)
            dh_dt = row.b - PARAMS.barrier_gain * row.h_value
            eps = 1e-6
            h_plus = eval_ugv_ugv(r_i, r_j + eps * v_j, PARAMS.ugv_separation)
            h_minus = eval_ugv_ugv(r_i, r_j - eps * v_j, PARAMS.ugv_separation)
            numeric = (h_plus - h_minus) / (2 * eps)
            assert dh_dt == pytest.approx(numeric, rel=1e-4, abs=1e-7)

    def test_cross_layer_time_term_matches_finite_difference(self):
        # The platform moves only horizontally; the row must see exactly the
        # planar component of the relative motion.
        rng = np.random.default_rng(13)
        for _ in range(100):
            p_i = rng.uniform(-5, 5, 3)
            g_j = rng.uniform(-5, 5, 2)
            v_j = rng.uniform(-0.6, 0.6, 2)
            row = build_constraint_row(RowKind.UAV_OTHER_UGV, p_i, g_j, v_j, PARAMS)
            dh_dt = row.b - PARAMS.barrier_gain * row.h_value
            eps = 1e-6
            g3 = lambda s: np.array([g_j[0] + s * v_j[0], g_j[1] + s * v_j[1], 0.0])
            h_plus = eval_uav_other_ugv(p_i, g3(eps), PARAMS.uav_ugv_separation)
            h_minus = eval_uav_other_ugv(p_i, g3(-eps), PARAMS.uav_ugv_separation)
            numeric = (h_plus - h_minus) / (2 * eps)
            assert dh_dt == pytest.approx(numeric, rel=1e-4, abs=1e-7)

    def test_workspace_ceiling_row(self):
        row = build_workspace_rows((0, 0, 1.5), PARAMS, is_uav=True)[4]
        assert np.allclose(row.a, [0, 0, -1])
        assert row.b == pytest.approx(0.5)
        assert row.kind is RowKind.WORKSPACE

    def test_landing_row_directly_overhead(self):
        row = build_constraint_row(
            RowKind.LANDING, (0, 0, 0.5), (0, 0), (0.3, 0.1), PARAMS)
        assert np.allclose(row.a, [0, 0, 1])
        assert row.b == pytest.approx(PARAMS.barrier_gain * (0.5 - 0.1))

    def test_gg_row_uses_planar_gradient(self):
        row = build_constraint_row(
            RowKind.UGV_UGV, (1.5, 0), (0, 0), (0.1, 0), PARAMS)
        assert row.a.shape == (2,)
        assert np.allclose(row.a, [3.0, 0])
        assert row.h_value == pytest.approx(1.25)

    def test_missing_velocity_estimate_rejected(self):
        with pytest.raises(IncompleteInputError):
            build_constraint_row(RowKind.UAV_UAV, (1, 0, 0), (0, 0, 0), None, PARAMS)

    def test_worst_case_mode_is_conservative(self):
        # The worst-case time term lower-bounds every admissible platform motion.
        rng = np.random.default_rng(5)
        for _ in range(50):
            p_i = rng.uniform(-3, 3, 3)
            p_j = rng.uniform(-3, 3, 2)
            speed = PARAMS.uav_speed_limit
            direction = rng.normal(size=2)
            direction *= speed / np.linalg.norm(direction)
            actual = build_constraint_row(
                RowKind.UAV_OTHER_UGV, p_i, p_j, direction, PARAMS)
            worst = build_constraint_row(
                RowKind.UAV_OTHER_UGV, p_i, p_j, None, PARAMS, worst_case=True)
            assert worst.b <= actual.b + 1e-12

    def test_degenerate_gradient_still_emitted(self):
        row = build_constraint_row(
            RowKind.UAV_UAV, (1, 1, 1), (1, 1, 1), (0, 0, 0), PARAMS)
        assert np.allclose(row.a, 0.0)
        assert row.h_value == pytest.approx(-PARAMS.uav_separation ** 2)


class TestStackedRows:
    """A call on m stacked rows is, byte for byte, the stack of its m 1-D
    calls, and each 1-D call gives the scalar per-row reference's row."""

    @staticmethod
    def stack(rows, field):
        return np.array([getattr(r, field) for r in rows]).tobytes()

    @pytest.mark.parametrize("worst_case", [False, True])
    @pytest.mark.parametrize("kind, dim, other_dim", [
        (RowKind.UAV_UAV, 3, 3), (RowKind.UGV_UGV, 2, 2),
        (RowKind.UAV_OTHER_UGV, 3, 2), (RowKind.LANDING, 3, 2)])
    def test_pairwise_rows(self, kind, dim, other_dim, worst_case):
        rng = np.random.default_rng(31)
        m = 300
        own = rng.uniform(-3, 3, (m, dim))
        other = rng.uniform(-3, 3, (m, other_dim))
        velocity = rng.uniform(-1, 1, (m, other_dim))
        other[:20] = own[:20, :other_dim]  # coincident centres, funnel axis
        other[20:40] = own[20:40, :other_dim] + rng.normal(0, 1e-4, (20, other_dim))
        args = dict(params=PARAMS, platform_height=0.3, worst_case=worst_case)
        stacked = build_constraint_row(kind, own, other, velocity, **args)
        singles = [build_constraint_row(kind, own[k], other[k], velocity[k], **args)
                   for k in range(m)]
        reference = [oracles.build_constraint_row(kind, own[k], other[k], velocity[k], **args)
                     for k in range(m)]
        assert stacked.kind is kind and stacked.a.shape == (m, dim)
        for field in ("a", "b", "h_value"):
            assert getattr(stacked, field).tobytes() == self.stack(singles, field)
            assert self.stack(singles, field) == self.stack(reference, field)
        assert all(isinstance(r.b, float) and isinstance(r.h_value, float)
                   and r.a.shape == (dim,) for r in singles)

    @pytest.mark.parametrize("is_uav", [True, False])
    def test_workspace_rows(self, is_uav):
        rng = np.random.default_rng(32)
        dim = 3 if is_uav else 2
        points = rng.uniform(-2.5, 2.5, (100, dim))
        stacked = build_workspace_rows(points, PARAMS, is_uav)
        singles = [build_workspace_rows(p, PARAMS, is_uav) for p in points]
        reference = [oracles.build_workspace_rows(p, PARAMS, is_uav) for p in points]
        assert len(stacked) == (5 if is_uav else 4)
        for face, row in enumerate(stacked):
            column = [rows[face] for rows in singles]
            for field in ("a", "b", "h_value"):
                assert getattr(row, field).tobytes() == self.stack(column, field)
                assert self.stack(column, field) == self.stack(
                    [rows[face] for rows in reference], field)


# Headings at and next to +-pi, where a wrap may land either side.
_EDGE_HEADINGS = [math.pi, -math.pi, math.nextafter(math.pi, 0.0),
                  math.nextafter(-math.pi, 0.0), math.nextafter(math.pi, 4.0),
                  math.nextafter(-math.pi, -4.0), 0.0, -0.0]


@st.composite
def tick_blocks(draw):
    """A (T, k, 3) block of UAV positions, one of UGV poses (x, y, theta)
    and a platform height."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 5)), 3)
    coord = st.one_of(st.floats(-6.0, 6.0), st.sampled_from([-1.0, 0.0, 0.5, 1.0]))
    uavs = draw(arrays(float, shape, elements=coord))
    poses = draw(arrays(float, shape, elements=coord))
    poses[..., 2] = draw(arrays(float, shape[:2], elements=st.one_of(
        st.floats(-4.0, 4.0), st.sampled_from(_EDGE_HEADINGS))))
    return uavs, poses, draw(st.sampled_from([0.0, 0.1, 0.45]))


class TestBlockCalls:
    """offset_points, eval_workspace and eval_landing on (T, k, .) blocks
    equal, byte for byte, the stack of their 1-D calls."""

    @staticmethod
    def singles(fn, *blocks):
        """fn on each (T, k) entry of the blocks, as a T by k nested list."""
        return [[fn(*(b[t, j] for b in blocks)) for j in range(blocks[0].shape[1])]
                for t in range(blocks[0].shape[0])]

    @settings(max_examples=150, deadline=None)
    @given(tick_blocks(), st.sampled_from([0.1, 0.3]))
    def test_offset_points(self, block, offset):
        _, poses, _ = block
        got = offset_points(poses, offset)
        assert got.shape == poses.shape[:-1] + (2,)
        assert got.tobytes() == np.array(
            self.singles(lambda p: offset_points(p, offset), poses)).tobytes()
        scalar = [[[x + offset * math.cos(th), y + offset * math.sin(th)]
                   for x, y, th in row] for row in poses.tolist()]
        assert got.tobytes() == np.array(scalar).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(tick_blocks(), st.booleans())
    def test_workspace(self, block, is_uav):
        uavs, poses, _ = block
        points = uavs if is_uav else offset_points(poses, 0.1)
        bounds = Bounds(-5.0, 5.0, -4.0, 4.5, 0.0, 3.0)
        got = eval_workspace(points, bounds, is_uav)
        singles = self.singles(lambda p: eval_workspace(p, bounds, is_uav), points)
        assert len(got) == (5 if is_uav else 4)
        for face, (h, grad) in enumerate(got):
            assert h.shape == grad.shape[:-1] == points.shape[:-1]
            assert h.tobytes() == np.array(
                [[rows[face][0] for rows in row] for row in singles]).tobytes()
            assert grad.tobytes() == np.array(
                [[rows[face][1] for rows in row] for row in singles]).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(tick_blocks())
    def test_landing(self, block):
        uavs, poses, platform_height = block
        decks = poses.copy()
        decks[..., 2] = platform_height
        args = (PARAMS.funnel_sharpness, PARAMS.funnel_height, PARAMS.hover_clearance)
        got = eval_landing(uavs, decks, *args)
        singles = self.singles(lambda p, d: eval_landing(p, d, *args), uavs, decks)
        for k, values in enumerate(got):
            assert values.shape == uavs.shape[:-1]
            assert values.tobytes() == np.array(
                [[hlk[k] for hlk in row] for row in singles]).tobytes()


class TestSpatialGradients:
    """Analytic gradients vs central differences at 100 random states each."""

    @staticmethod
    def _check(h_func, grad, p, eps=1e-6, rel=1e-5):
        numeric = np.zeros(len(p))
        for axis in range(len(p)):
            dp = np.zeros(len(p))
            dp[axis] = eps
            numeric[axis] = (h_func(p + dp) - h_func(p - dp)) / (2 * eps)
        scale = max(1.0, float(np.linalg.norm(grad)))
        assert np.linalg.norm(grad - numeric) / scale < rel

    def test_uav_uav_gradient(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            p_i, p_j = rng.uniform(-4, 4, 3), rng.uniform(-4, 4, 3)
            row = build_constraint_row(RowKind.UAV_UAV, p_i, p_j, np.zeros(3), PARAMS)
            self._check(lambda p: eval_uav_uav(p, p_j, PARAMS.uav_separation),
                        row.a, p_i)

    def test_ugv_ugv_gradient(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            r_i, r_j = rng.uniform(-4, 4, 2), rng.uniform(-4, 4, 2)
            row = build_constraint_row(RowKind.UGV_UGV, r_i, r_j, np.zeros(2), PARAMS)
            self._check(lambda p: eval_ugv_ugv(p, r_j, PARAMS.ugv_separation),
                        row.a, r_i)

    def test_uav_other_ugv_gradient(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            p_i, g_j = rng.uniform(-4, 4, 3), rng.uniform(-4, 4, 2)
            row = build_constraint_row(RowKind.UAV_OTHER_UGV, p_i, g_j,
                                       np.zeros(2), PARAMS)
            g3 = np.array([g_j[0], g_j[1], 0.0])
            self._check(
                lambda p: eval_uav_other_ugv(p, g3, PARAMS.uav_ugv_separation),
                row.a, p_i)

    def test_landing_gradient_numeric(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            p_i = rng.uniform(-3, 3, 3)
            g_j = rng.uniform(-3, 3, 2)
            row = build_constraint_row(RowKind.LANDING, p_i, g_j, np.zeros(2), PARAMS)
            g3 = np.array([g_j[0], g_j[1], 0.0])
            self._check(
                lambda p: eval_landing(p, g3, PARAMS.funnel_sharpness,
                                       PARAMS.funnel_height,
                                       PARAMS.hover_clearance)[0],
                row.a, p_i)


class TestValidity:
    def test_workspace_row_inside_box_is_valid(self):
        row = build_workspace_rows((0, 0, 1.0), PARAMS, is_uav=True)[0]
        assert verify_validity(row, 1.0)

    def test_degenerate_gradient_with_negative_b_is_invalid(self):
        from airground.barriers import ConstraintRow
        row = ConstraintRow(a=np.zeros(3), b=-0.1, kind=RowKind.UAV_UAV)
        assert not verify_validity(row, 10.0)

    def test_uav_pair_example_row_is_valid(self):
        row = build_constraint_row(
            RowKind.UAV_UAV, (1, 0, 0), (0, 0, 0), (0.2, 0, 0), PARAMS)
        # reach = v_bar * |a|_1 = 2, b = 0.35
        assert verify_validity(row, 1.0)

    def test_landing_rows_valid_over_grid(self):
        # Funnel rows sampled over the whole workspace stay achievable under
        # the admissible box, with the platform moving adversarially.
        params = SafetyParams(
            uav_separation=0.5, uav_ugv_separation=0.7, ugv_separation=1.0,
            funnel_sharpness=1.0, funnel_height=0.5, hover_clearance=0.2,
            barrier_gain=1.0, bounds=Bounds(-5, 5, -5, 5, 0, 3),
            uav_speed_limit=1.0, ugv_speed_limit=0.6,
        )
        diag_sq = params.bounds.horizontal_diag_sq()
        for r_z in np.linspace(params.hover_clearance, params.bounds.z_max, 41):
            for l in np.linspace(0.0, diag_sq, 101):
                r_xy = math.sqrt(l)
                p_uav = np.array([r_xy, 0.0, r_z])
                # worst platform motion is radial; its sign depends on the
                # funnel slope, so probe both directions
                for direction in (-1.0, 1.0):
                    vel = np.array([direction * params.ugv_speed_limit, 0.0])
                    row = build_constraint_row(RowKind.LANDING, p_uav,
                                               (0.0, 0.0), vel, params)
                    assert verify_validity(row, params.uav_speed_limit), (r_z, l)


class TestSafetyParams:
    def test_radius_ordering_enforced(self):
        bad = SafetyParams(
            uav_separation=0.8, uav_ugv_separation=0.7, ugv_separation=1.0,
            funnel_sharpness=1.0, funnel_height=1.0, hover_clearance=0.1)
        assert any("separation radii" in p for p in bad.validate())

    def test_speed_ordering_enforced(self):
        bad = SafetyParams(
            uav_separation=0.5, uav_ugv_separation=0.7, ugv_separation=1.0,
            funnel_sharpness=1.0, funnel_height=1.0, hover_clearance=0.1,
            uav_speed_limit=0.5, ugv_speed_limit=0.6)
        assert any("speed limits" in p for p in bad.validate())

    def test_valid_params_pass(self):
        assert PARAMS.validate() == []
