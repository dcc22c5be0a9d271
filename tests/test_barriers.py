import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from airground.barriers import (Bounds, RowKind, SafetyParams,
                                build_constraint_row, build_workspace_rows,
                                eval_landing, offset_points, wall_gradients,
                                wall_heights)
from airground.errors import InvalidInputError

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


def one_row(kind, own, other, velocity, params=PARAMS, **kwargs):
    """build_constraint_row on a one-row stack: that row's a, b and h."""
    a, b, h = build_constraint_row(kind, np.array([own], dtype=float),
                                   np.array([other], dtype=float),
                                   np.array([velocity], dtype=float),
                                   params=params, **kwargs)
    return a[0], float(b[0]), float(h[0])


def sphere_h(kind, own, other, params=PARAMS):
    """The sphere barrier of one pair; a UAV_OTHER_UGV other is a planar deck."""
    return one_row(kind, own, other, np.zeros(len(other)), params)[2]


def time_term(kind, own, other, velocity, params=PARAMS):
    """dh/dt of stacked rows, read back as b - kappa*h."""
    _, b, h = build_constraint_row(kind, own, other, velocity, params=params)
    return b - params.barrier_gain * h


def landing(p_uav, p_ugv_3d, *shape):
    """eval_landing's (h, l, k) on a one-row stack, as floats."""
    return tuple(float(x[0]) for x in eval_landing([p_uav], [p_ugv_3d], *shape))


def achievable(a, b, limit):
    """Over the box |u_j| <= limit the supremum of a . u is limit * |a|_1, so
    a row is achievable iff limit * |a|_1 + b >= 0 (b holds kappa*h + dh/dt)."""
    return limit * np.abs(a).sum(axis=-1) + b >= 0.0


class TestSphereBarriers:
    def test_uav_pair_separated(self):
        assert sphere_h(RowKind.UAV_UAV, (1, 0, 0), (0, 0, 0)) == pytest.approx(0.75)

    def test_uav_pair_coincident(self):
        assert sphere_h(RowKind.UAV_UAV, (0.3, 0.2, 1), (0.3, 0.2, 1)) == pytest.approx(-0.25)

    def test_uav_pair_on_boundary(self):
        assert sphere_h(RowKind.UAV_UAV, (0.5, 0, 0), (0, 0, 0)) == pytest.approx(0.0, abs=1e-15)

    def test_ugv_pair(self):
        assert sphere_h(RowKind.UGV_UGV, (2, 0), (0, 0)) == pytest.approx(3.0)
        assert sphere_h(RowKind.UGV_UGV, (0.4, -1.2), (0.4, -1.2)) == pytest.approx(-1.0)

    def test_ugv_pair_345_boundary(self):
        assert sphere_h(RowKind.UGV_UGV, (0.6, 0.8), (0, 0)) == pytest.approx(0.0, abs=1e-15)

    def test_uav_vs_other_ugv(self):
        kind = RowKind.UAV_OTHER_UGV
        assert sphere_h(kind, (0, 0, 1), (0, 0)) == pytest.approx(0.51)
        on_sphere = (0.7 / math.sqrt(3),) * 3
        assert sphere_h(kind, on_sphere, (0, 0)) == pytest.approx(0.0, abs=1e-12)
        assert sphere_h(kind, (1, 2, 0), (1, 2)) == pytest.approx(-0.49)

    @given(st.lists(finite_coord, min_size=3, max_size=3),
           st.lists(finite_coord, min_size=3, max_size=3),
           st.floats(0.01, 5.0))
    def test_symmetry(self, p, q, s):
        params = dataclasses.replace(PARAMS, uav_separation=s)
        assert (sphere_h(RowKind.UAV_UAV, p, q, params)
                == sphere_h(RowKind.UAV_UAV, q, p, params))

    def test_gradient_rows_of_a_pair_are_negations(self):
        rng = np.random.default_rng(17)
        p_i, p_j = rng.uniform(-5, 5, (50, 3)), rng.uniform(-5, 5, (50, 3))
        v = rng.uniform(-1, 1, (50, 3))
        a_i, _, h_i = build_constraint_row(RowKind.UAV_UAV, p_i, p_j, v, params=PARAMS)
        a_j, _, h_j = build_constraint_row(RowKind.UAV_UAV, p_j, p_i, v, params=PARAMS)
        assert np.array_equal(a_i, -a_j)
        assert np.array_equal(h_i, h_j)

    def test_boundary_exactness(self):
        # A point placed at exactly the safety radius gives |h| at float noise level.
        rng = np.random.default_rng(7)
        for _ in range(200):
            center = rng.uniform(-10, 10, 3)
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            s = rng.uniform(0.1, 3.0)
            params = dataclasses.replace(PARAMS, uav_separation=s)
            h = sphere_h(RowKind.UAV_UAV, center + s * direction, center, params)
            assert abs(h) < 1e-12 * max(1.0, s * s)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            sphere_h(RowKind.UAV_UAV, (np.nan, 0, 0), (0, 0, 0))
        with pytest.raises(InvalidInputError):
            sphere_h(RowKind.UGV_UGV, (np.inf, 0), (0, 0))
        with pytest.raises(InvalidInputError):
            sphere_h(RowKind.UAV_OTHER_UGV, (0, 0, 1), (0, np.nan))
        with pytest.raises(InvalidInputError):
            sphere_h(RowKind.UAV_UAV, (1, 0, 0), (0, 0, 0),
                     dataclasses.replace(PARAMS, uav_separation=-0.5))
        for kind in (RowKind.UAV_UAV, RowKind.LANDING):  # a missing other state
            with pytest.raises(InvalidInputError):
                build_constraint_row(kind, [(1, 0, 0)], None, [(0, 0, 0)], params=PARAMS)


class TestLandingFunnel:
    def test_directly_overhead(self):
        h, l, k = landing((0, 0, 0.5), (0, 0, 0), 1.0, 2.0, 0.1)
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
        h, l, k = landing((1, 0, 1.0), (0, 0, 0), alpha, beta, gamma)
        assert l == pytest.approx(1.0)
        assert k == pytest.approx(0.0, abs=1e-15)
        assert h == pytest.approx(1.0 - 0.8357588823428847)

    def test_on_surface_is_boundary(self):
        alpha, beta, gamma = 1.3, 0.8, 0.2
        l = 0.7
        surface = beta * alpha * l * math.exp(-alpha * l) + gamma
        r_xy = math.sqrt(l)
        h, _, _ = landing((r_xy, 0, surface), (0, 0, 0), alpha, beta, gamma)
        assert h == pytest.approx(0.0, abs=1e-15)

    def test_surface_monotone_beyond_peak(self):
        alpha, beta = 0.7, 1.5
        ls = np.linspace(1 / alpha, 50, 5000)
        surface = beta * alpha * ls * np.exp(-alpha * ls)
        assert np.all(np.diff(surface) < 0)

    def test_gradient_overhead(self):
        a, _, _ = one_row(RowKind.LANDING, (0, 0, 0.5), (0, 0), (0, 0))
        assert np.allclose(a, [0, 0, 1])

    def test_gradient_at_peak_is_vertical(self):
        _, _, k = landing((1, 0, 0.5), (0, 0, 0), 1.0, 2.0, 0.1)
        assert k == pytest.approx(0.0, abs=1e-15)
        a, _, _ = one_row(RowKind.LANDING, (1, 0, 0.5), (0, 0), (0, 0))
        assert np.allclose(a, [0, 0, 1])

    def test_time_term_examples(self):
        # dh/dt = -k*(r_x*vx + r_y*vy); PARAMS' funnel gives k = -4 overhead.
        def dh_dt(r, velocity):
            return time_term(RowKind.LANDING, np.array([r]), np.zeros((1, 2)),
                             np.array([velocity]))[0]

        assert dh_dt((0, 0, 0.3), (0, 0)) == 0.0
        assert dh_dt((0, 0, 0.3), (0.9, -0.4)) == 0.0
        _, _, k = landing((0.1, 0, 0.3), (0, 0, 0), 1.0, 2.0, 0.1)
        assert dh_dt((0.1, 0, 0.3), (0.5, 0)) == pytest.approx(-k * 0.05)

    def test_time_term_matches_finite_difference(self):
        # Freeze the UAV, move the platform along its velocity, difference h.
        rng = np.random.default_rng(3)
        for _ in range(100):
            p_uav = rng.uniform(-3, 3, 3)
            p_ugv = np.array([*rng.uniform(-3, 3, 2), 0.0])
            vel = rng.uniform(-1, 1, 2)
            alpha, beta, gamma = rng.uniform(0.3, 2.0, 3)
            params = dataclasses.replace(PARAMS, funnel_sharpness=alpha,
                                         funnel_height=beta, hover_clearance=gamma)
            analytic = time_term(RowKind.LANDING, p_uav[None], p_ugv[None, :2],
                                 vel[None], params)[0]
            eps = 1e-6
            moved = p_ugv + eps * np.array([vel[0], vel[1], 0.0])
            h1, _, _ = landing(p_uav, moved, alpha, beta, gamma)
            h_1, _, _ = landing(p_uav, p_ugv - eps * np.array([vel[0], vel[1], 0.0]),
                                alpha, beta, gamma)
            numeric = (h1 - h_1) / (2 * eps)
            assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-7)

    def test_extreme_horizontal_distance_stays_finite(self):
        h, l, k = landing((40, 0, 1.0), (0, 0, 0), 1.0, 2.0, 0.1)
        assert math.isfinite(h) and math.isfinite(k)
        assert h == pytest.approx(0.9)  # surface term underflows to zero


class TestWorkspace:
    def test_uav_centered(self):
        h = wall_heights([(0, 0, 1.0)], Bounds(-2, 2, -2, 2, -1, 3), True)[0]
        assert len(h) == 5
        assert h == pytest.approx([2, 2, 2, 2, 2])

    def test_uav_at_wall(self):
        h = wall_heights([(2.0, 0, 1.0)], Bounds(-2, 2, -2, 2, 0, 2), True)[0]
        assert h[0] == pytest.approx(0.0)
        assert np.allclose(wall_gradients(True, 3)[0], [-1, 0, 0])

    def test_ugv_outside_lower_x(self):
        h = wall_heights([(-2.1, 0.5)], Bounds(-2, 2, -2, 2, 0, 2), False)[0]
        assert len(h) == 4
        assert h[1] == pytest.approx(-0.1)
        assert np.allclose(wall_gradients(False, 2)[1], [1, 0])

    def test_gradients_are_signed_unit_vectors(self):
        for is_uav, dim in ((True, 3), (False, 2)):
            grads = wall_gradients(is_uav, dim)
            assert grads.shape == (5 if is_uav else 4, dim)
            assert (np.abs(grads).sum(axis=1) == 1.0).all()


class TestConstraintRows:
    def test_uav_pair_row_example(self):
        a, b, h = one_row(RowKind.UAV_UAV, (1, 0, 0), (0, 0, 0), (0.2, 0, 0))
        assert np.allclose(a, [2, 0, 0])
        assert h == pytest.approx(0.75)
        assert b == pytest.approx(0.35)  # kappa*h + dh/dt = 0.75 - 0.4

    def test_uav_pair_time_term_matches_finite_difference(self):
        rng = np.random.default_rng(11)
        p_i = rng.uniform(-5, 5, (100, 3))
        p_j = rng.uniform(-5, 5, (100, 3))
        v_j = rng.uniform(-1, 1, (100, 3))
        dh_dt = time_term(RowKind.UAV_UAV, p_i, p_j, v_j)
        eps = 1e-6
        h_plus = build_constraint_row(RowKind.UAV_UAV, p_i, p_j + eps * v_j, v_j,
                                      params=PARAMS)[2]
        h_minus = build_constraint_row(RowKind.UAV_UAV, p_i, p_j - eps * v_j, v_j,
                                       params=PARAMS)[2]
        numeric = (h_plus - h_minus) / (2 * eps)
        assert dh_dt == pytest.approx(numeric, rel=1e-4, abs=1e-7)

    def test_ugv_pair_time_term_matches_finite_difference(self):
        rng = np.random.default_rng(12)
        r_i = rng.uniform(-5, 5, (100, 2))
        r_j = rng.uniform(-5, 5, (100, 2))
        v_j = rng.uniform(-0.6, 0.6, (100, 2))
        dh_dt = time_term(RowKind.UGV_UGV, r_i, r_j, v_j)
        eps = 1e-6
        h_plus = build_constraint_row(RowKind.UGV_UGV, r_i, r_j + eps * v_j, v_j,
                                      params=PARAMS)[2]
        h_minus = build_constraint_row(RowKind.UGV_UGV, r_i, r_j - eps * v_j, v_j,
                                       params=PARAMS)[2]
        numeric = (h_plus - h_minus) / (2 * eps)
        assert dh_dt == pytest.approx(numeric, rel=1e-4, abs=1e-7)

    def test_cross_layer_time_term_matches_finite_difference(self):
        # The platform moves only horizontally; the row must see exactly the
        # planar component of the relative motion.
        rng = np.random.default_rng(13)
        p_i = rng.uniform(-5, 5, (100, 3))
        g_j = rng.uniform(-5, 5, (100, 2))
        v_j = rng.uniform(-0.6, 0.6, (100, 2))
        dh_dt = time_term(RowKind.UAV_OTHER_UGV, p_i, g_j, v_j)
        eps = 1e-6
        h_plus = build_constraint_row(RowKind.UAV_OTHER_UGV, p_i, g_j + eps * v_j, v_j,
                                      params=PARAMS)[2]
        h_minus = build_constraint_row(RowKind.UAV_OTHER_UGV, p_i, g_j - eps * v_j, v_j,
                                       params=PARAMS)[2]
        numeric = (h_plus - h_minus) / (2 * eps)
        assert dh_dt == pytest.approx(numeric, rel=1e-4, abs=1e-7)

    def test_workspace_ceiling_row(self):
        rows = build_workspace_rows([(0, 0, 1.5)], PARAMS, is_uav=True)
        assert len(rows) == 5
        assert np.allclose(rows.a[4], [0, 0, -1])
        assert rows.b[0, 4] == pytest.approx(0.5)

    def test_landing_row_directly_overhead(self):
        a, b, _ = one_row(RowKind.LANDING, (0, 0, 0.5), (0, 0), (0.3, 0.1))
        assert np.allclose(a, [0, 0, 1])
        assert b == pytest.approx(PARAMS.barrier_gain * (0.5 - 0.1))

    def test_gg_row_uses_planar_gradient(self):
        a, _, h = one_row(RowKind.UGV_UGV, (1.5, 0), (0, 0), (0.1, 0))
        assert a.shape == (2,)
        assert np.allclose(a, [3.0, 0])
        assert h == pytest.approx(1.25)

    def test_missing_velocity_estimate_rejected(self):
        with pytest.raises(InvalidInputError):
            build_constraint_row(RowKind.UAV_UAV, [(1, 0, 0)], [(0, 0, 0)], None,
                                 params=PARAMS)

    def test_worst_case_mode_is_conservative(self):
        # The worst-case time term lower-bounds every admissible platform motion.
        rng = np.random.default_rng(5)
        p_i = rng.uniform(-3, 3, (50, 3))
        p_j = rng.uniform(-3, 3, (50, 2))
        direction = rng.normal(size=(50, 2))
        direction *= PARAMS.uav_speed_limit / np.linalg.norm(direction, axis=1)[:, None]
        _, actual, _ = build_constraint_row(RowKind.UAV_OTHER_UGV, p_i, p_j, direction,
                                            params=PARAMS)
        _, worst, _ = build_constraint_row(RowKind.UAV_OTHER_UGV, p_i, p_j, None,
                                           params=PARAMS, worst_case=True)
        assert (worst <= actual + 1e-12).all()

    def test_degenerate_gradient_still_emitted(self):
        a, _, h = one_row(RowKind.UAV_UAV, (1, 1, 1), (1, 1, 1), (0, 0, 0))
        assert np.allclose(a, 0.0)
        assert h == pytest.approx(-PARAMS.uav_separation ** 2)


class TestStackedRows:
    """A call on m stacked rows gives, byte for byte, the scalar per-row
    reference's m rows."""

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
        a, b, h = build_constraint_row(kind, own, other, velocity, **args)
        reference = [oracles.build_constraint_row(kind, own[k], other[k], velocity[k], **args)
                     for k in range(m)]
        assert a.shape == (m, dim) and b.shape == h.shape == (m,)
        for got, field in ((a, "a"), (b, "b"), (h, "h_value")):
            assert got.tobytes() == self.stack(reference, field)

    @pytest.mark.parametrize("is_uav", [True, False])
    def test_workspace_rows(self, is_uav):
        rng = np.random.default_rng(32)
        dim = 3 if is_uav else 2
        points = rng.uniform(-2.5, 2.5, (100, dim))
        stacked = build_workspace_rows(points, PARAMS, is_uav)
        heights = wall_heights(points, PARAMS.bounds, is_uav)
        reference = [oracles.build_workspace_rows(p, PARAMS, is_uav) for p in points]
        assert len(stacked) == (5 if is_uav else 4)
        assert stacked.b.shape == heights.shape == (100, len(stacked))
        for face in range(len(stacked)):
            column = [rows[face] for rows in reference]
            assert np.broadcast_to(stacked.a[face], (100, dim)).tobytes() == self.stack(
                column, "a")
            assert stacked.b[:, face].tobytes() == self.stack(column, "b")
            assert heights[:, face].tobytes() == self.stack(column, "h_value")


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
    """offset_points, wall_heights and eval_landing on (T, k, .) blocks
    equal, byte for byte, the scalar references on each entry."""

    @staticmethod
    def entries(fn, *blocks):
        """fn on each (T, k) entry of the blocks, as a T by k nested list."""
        return [[fn(*(b[t, j] for b in blocks)) for j in range(blocks[0].shape[1])]
                for t in range(blocks[0].shape[0])]

    @settings(max_examples=150, deadline=None)
    @given(tick_blocks(), st.sampled_from([0.1, 0.3]))
    def test_offset_points(self, block, offset):
        _, poses, _ = block
        got = offset_points(poses, offset)
        assert got.shape == poses.shape[:-1] + (2,)
        scalar = [[[x + offset * math.cos(th), y + offset * math.sin(th)]
                   for x, y, th in row] for row in poses.tolist()]
        assert got.tobytes() == np.array(scalar).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(tick_blocks(), st.booleans())
    def test_workspace(self, block, is_uav):
        uavs, poses, _ = block
        points = uavs if is_uav else offset_points(poses, 0.1)
        params = dataclasses.replace(PARAMS, bounds=Bounds(-5.0, 5.0, -4.0, 4.5, 0.0, 3.0))
        got = wall_heights(points, params.bounds, is_uav)
        reference = self.entries(
            lambda p: [row.h_value for row in oracles.build_workspace_rows(p, params, is_uav)],
            points)
        assert got.shape == points.shape[:-1] + (5 if is_uav else 4,)
        assert got.tobytes() == np.array(reference).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(tick_blocks())
    def test_landing(self, block):
        uavs, poses, platform_height = block
        decks = poses.copy()
        decks[..., 2] = platform_height
        args = (PARAMS.funnel_sharpness, PARAMS.funnel_height, PARAMS.hover_clearance)
        got = eval_landing(uavs, decks, *args)
        reference = self.entries(lambda p, d: oracles.eval_landing(p, d, *args), uavs, decks)
        for k, values in enumerate(got):
            assert values.shape == uavs.shape[:-1]
            assert values.tobytes() == np.array(
                [[hlk[k] for hlk in row] for row in reference]).tobytes()


class TestSpatialGradients:
    """Analytic gradients vs central differences at 100 random states each."""

    @staticmethod
    def _check(kind, own, other, eps=1e-6, rel=1e-5):
        """The (m, dim) gradients of kind's rows at own against central
        differences of their h."""
        zeros = np.zeros_like(other)

        def h_of(points):
            return build_constraint_row(kind, points, other, zeros, params=PARAMS)[2]

        grad, _, _ = build_constraint_row(kind, own, other, zeros, params=PARAMS)
        numeric = np.stack([(h_of(own + d) - h_of(own - d)) / (2 * eps)
                            for d in np.eye(own.shape[1]) * eps], axis=1)
        scale = np.maximum(1.0, np.linalg.norm(grad, axis=1))
        assert (np.linalg.norm(grad - numeric, axis=1) / scale < rel).all()

    def test_uav_uav_gradient(self):
        rng = np.random.default_rng(21)
        self._check(RowKind.UAV_UAV, rng.uniform(-4, 4, (100, 3)), rng.uniform(-4, 4, (100, 3)))

    def test_ugv_ugv_gradient(self):
        rng = np.random.default_rng(22)
        self._check(RowKind.UGV_UGV, rng.uniform(-4, 4, (100, 2)), rng.uniform(-4, 4, (100, 2)))

    def test_uav_other_ugv_gradient(self):
        rng = np.random.default_rng(23)
        self._check(RowKind.UAV_OTHER_UGV, rng.uniform(-4, 4, (100, 3)),
                    rng.uniform(-4, 4, (100, 2)))

    def test_landing_gradient_numeric(self):
        rng = np.random.default_rng(24)
        self._check(RowKind.LANDING, rng.uniform(-3, 3, (100, 3)), rng.uniform(-3, 3, (100, 2)))


class TestValidity:
    def test_workspace_row_inside_box_is_valid(self):
        rows = build_workspace_rows([(0, 0, 1.0)], PARAMS, is_uav=True)
        assert achievable(rows.a[0], rows.b[0, 0], 1.0)

    def test_degenerate_gradient_with_negative_b_is_invalid(self):
        # Coincident centres: a = 0 and b = h < 0, so no bounded input helps.
        a, b, _ = one_row(RowKind.UAV_UAV, (1, 1, 1), (1, 1, 1), (0, 0, 0))
        assert not achievable(a, b, 10.0)

    def test_uav_pair_example_row_is_valid(self):
        a, b, _ = one_row(RowKind.UAV_UAV, (1, 0, 0), (0, 0, 0), (0.2, 0, 0))
        # reach = v_bar * |a|_1 = 2, b = 0.35
        assert achievable(a, b, 1.0)

    def test_landing_rows_valid_over_grid(self):
        # Funnel rows sampled over the whole workspace stay achievable under
        # the admissible box, with the platform moving adversarially.
        params = SafetyParams(
            uav_separation=0.5, uav_ugv_separation=0.7, ugv_separation=1.0,
            funnel_sharpness=1.0, funnel_height=0.5, hover_clearance=0.2,
            barrier_gain=1.0, bounds=Bounds(-5, 5, -5, 5, 0, 3),
            uav_speed_limit=1.0, ugv_speed_limit=0.6,
        )
        bounds = params.bounds
        diag_sq = (bounds.x_max - bounds.x_min) ** 2 + (bounds.y_max - bounds.y_min) ** 2
        # worst platform motion is radial; its sign depends on the funnel
        # slope, so probe both directions
        r_z, l, direction = (g.ravel() for g in np.meshgrid(
            np.linspace(params.hover_clearance, bounds.z_max, 41),
            np.linspace(0.0, diag_sq, 101), (-1.0, 1.0), indexing="ij"))
        p_uav = np.stack([np.sqrt(l), np.zeros_like(l), r_z], axis=1)
        vel = np.stack([direction * params.ugv_speed_limit, np.zeros_like(l)], axis=1)
        a, b, _ = build_constraint_row(RowKind.LANDING, p_uav, np.zeros((len(l), 2)), vel,
                                       params=params)
        ok = achievable(a, b, params.uav_speed_limit)
        assert ok.all(), list(zip(r_z[~ok], l[~ok]))


class TestSafetyParams:
    def test_radius_ordering_enforced(self):
        bad = SafetyParams(
            uav_separation=0.8, uav_ugv_separation=0.7, ugv_separation=1.0,
            funnel_sharpness=1.0, funnel_height=1.0, hover_clearance=0.1)
        assert [(p.code, p.message) for p in bad.validate()] == [(
            "RADIUS_ORDER", "separation radii must satisfy ugv > uav_ugv > uav > 0, got "
            "(1.0, 0.7, 0.8)")]

    def test_speed_ordering_enforced(self):
        bad = SafetyParams(
            uav_separation=0.5, uav_ugv_separation=0.7, ugv_separation=1.0,
            funnel_sharpness=1.0, funnel_height=1.0, hover_clearance=0.1,
            uav_speed_limit=0.5, ugv_speed_limit=0.6)
        assert [(p.code, p.message) for p in bad.validate()] == [(
            "SPEED_BOUND", "speed limits must satisfy 0 < ugv_speed_limit < uav_speed_limit, "
            "got (0.6, 0.5)")]

    def test_valid_params_pass(self):
        assert PARAMS.validate() == []
