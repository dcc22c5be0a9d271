import numpy as np
import pytest

from airground.qp import _project, _with_box, project_with_box, solve_relaxed

from oracles import oracle_solve
from qp_problems import filter_lanes, filter_problem, random_problem


def rows(*pairs):
    """The (A, b) of the rows a . u >= -b given as (a, b) pairs."""
    return (np.array([a for a, _ in pairs], dtype=float),
            np.array([b for _, b in pairs], dtype=float))


def no_rows(n):
    return np.zeros((0, n)), np.zeros(0)


def halfspace_projection(z, a, b):
    """Closed-form projection of z onto {u : a.u >= -b} (ignoring the box)."""
    z = np.asarray(z, dtype=float)
    a = np.asarray(a, dtype=float)
    gap = -b - float(a @ z)
    if gap <= 0:
        return z
    return z + (gap / float(a @ a)) * a


class TestOracle:
    def test_unconstrained_interior(self):
        z = np.array([0.3, -0.2, 0.1])
        u = oracle_solve(z, *no_rows(3), 1.0)
        assert u is not None and np.allclose(u, z)

    def test_single_halfspace_matches_closed_form(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 4))
            z = rng.uniform(-0.8, 0.8, n)  # inside the box so only the row binds
            a = rng.normal(size=n)
            b = rng.normal()
            expected = halfspace_projection(z, a, b)
            if np.any(np.abs(expected) > 1.0):
                continue  # projection exits the box; closed form no longer applies
            u = oracle_solve(z, *rows((a, b)), 1.0)
            assert u is not None and np.allclose(u, expected, atol=1e-9)

    def test_coordinate_halfspace(self):
        u = oracle_solve(np.array([-1.0, 0.0, 0.0]), *rows(([1, 0, 0], 0.0)), 1.0)
        assert np.allclose(u, [0, 0, 0], atol=1e-12)

    def test_empty_polytope(self):
        # u_x >= 2 cannot be met inside |u| <= 1.
        assert oracle_solve(np.zeros(2), *rows(([1, 0], -2.0)), 1.0) is None

    def test_degenerate_zero_gradient_infeasible(self):
        assert oracle_solve(np.zeros(2), *rows(([0, 0], -0.25)), 1.0) is None


class TestNanStep:
    """A NaN step fails both the full-step and the blocking test, so no
    working row is to be dropped: the projection raises rather than drop
    the wrong row (or index an empty working set)."""

    def test_nan_nominal(self):
        with np.errstate(invalid="ignore"), \
                pytest.raises(RuntimeError, match="non-finite step"):
            project_with_box(np.array([np.nan, 0.0, 0.0]), *no_rows(3), 1.0)

    def test_overflow_with_rows_in_the_working_set(self):
        """Finite data whose products overflow once a row is working; this
        problem was once reported infeasible, after that row was dropped
        where no row blocked the step."""
        z = np.array([2.3e205, 1.5e205, -9.0e204])
        A = np.array([[-3.0e153, -1.0e153, 3.0e153],
                      [-2.2e154, -1.0e154, -1.0e154]])
        b = np.array([-4.0e207, 5.0e207])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(RuntimeError, match="non-finite step"):
            project_with_box(z, A, b, 1e213)


# Both ask u_x >= 0.4 and u_x <= -0.4 beside a row almost dependent on
# others (its 1e-05 entry): in the first, a fourth working row in three
# dimensions, in the second two nearly parallel working rows, once made the
# multipliers grow until they overflowed, and the projection raised instead
# of reporting the polytope empty.
CYCLING = [
    (np.array([[0.0, 0.0, 1.0], [0.11606857360296852, 1e-05, -2.0],
               [1.0, 0.0, 0.0], [-1.0, -0.0, -0.0]]), np.array([0.0, -1.0, -0.4, -0.4])),
    (np.array([[1.75, 0.0, 1.3218803e-05], [1.0, 0.0, 0.0], [-1.0, -0.0, -0.0]]),
     np.array([-1.0, -0.4, -0.4])),
]


@pytest.mark.parametrize("A, b", CYCLING)
def test_cycling_working_set_reported_empty(A, b):
    u, _ = project_with_box(np.zeros(3), A, b, 1.0)
    assert u is None
    sol = solve_relaxed(np.zeros(3), A, b, 1.0)
    assert np.all(np.isfinite(sol.u_star)) and np.all(np.abs(sol.u_star) <= 1.0)


def test_box_rows_cached_per_dimension_and_limit():
    """The cached box rows and offsets follow (dimension, limit): two
    limits alternating in one dimension, another dimension, an int and a
    numpy scalar limit each give the arrays built afresh and the projection
    on them."""
    rng = np.random.default_rng(13)
    for limit, n in [(0.6, 3), (1.0, 3), (0.6, 3), (0.6, 2), (1, 3), (1.0, 2),
                     (0.6, 3), (np.float64(1.0), 3)]:
        A, b, z = rng.normal(size=(4, n)), rng.normal(size=4), rng.normal(size=n)
        lim = np.full(n, float(limit))
        want = (np.concatenate([A, np.eye(n), -np.eye(n)]), np.concatenate([b, lim, lim]))
        got = _with_box(A, b, limit)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
        outcomes = [(None if u is None else u.tobytes(), iters)
                    for u, iters in (project_with_box(z, A, b, limit), _project(z, *want))]
        assert outcomes[0] == outcomes[1]


class TestSolve:
    """project_with_box, and project_lanes as the control loop calls it."""

    def test_no_rows_identity(self):
        z = np.array([0.4, -0.3, 0.2])
        u, _ = project_with_box(z, *no_rows(3), 1.0)
        assert np.array_equal(u, z)

    def test_coordinate_halfspace(self):
        u, _ = project_with_box(np.array([-1.0, 0.0, 0.0]), *rows(([1, 0, 0], 0.0)), 1.0)
        assert np.allclose(u, [0, 0, 0], atol=1e-12)

    def test_infeasible_flagged(self):
        u, _ = project_with_box(np.zeros(2), *rows(([1, 0], -2.0)), 1.0)
        assert u is None

    def test_matches_oracle_on_random_problems(self):
        """The entry point the control loop calls, on random problems each
        zero-padded to a kind's capacity, against the brute-force oracle,
        problem by problem: an empty polytope comes back relaxed."""
        rng = np.random.default_rng(2024)
        feasible = infeasible = trivial = 0
        for _ in range(400):
            z, A, b, limit = random_problem(rng)
            u, status, iters, _ = filter_problem(z, A, b, limit)
            want = oracle_solve(z, A, b, limit)
            assert (status == "relaxed") == (want is None), (z, A, b, limit)
            if want is None:
                infeasible += 1
                assert np.all(np.abs(u) <= limit + 1e-9)
                continue
            feasible += 1
            trivial += iters == 1
            assert np.max(np.abs(u - want)) <= 1e-5
            assert float((u - z) @ (u - z)) <= float((want - z) @ (want - z)) + 1e-8
        # both paths exercised, and lanes passed by the batched scan
        assert feasible > 100 and infeasible > 20 and trivial > 10

    def test_batches_match_one_lane_calls(self):
        """Lanes of random problems of one dimension, zero-padded to their
        largest row count and filtered as one batch, give each lane the
        bits, status, iterations and slack of its own one-lane call and of
        project_with_box or solve_relaxed on its rows, and every lane the
        oracle's feasibility verdict."""
        rng = np.random.default_rng(2025)
        problems = [random_problem(rng) for _ in range(300)]
        statuses = set()
        for (z, A, b, _), got in zip(problems, filter_lanes(problems, 1.0)):
            u, iters = project_with_box(z, A, b, 1.0)
            if u is None:
                sol = solve_relaxed(z, A, b, 1.0)
                want = (sol.u_star, "relaxed", sol.iterations, sol.max_violation)
            else:
                want = (u, "optimal", iters, 0.0)
            one_lane = filter_problem(z, A, b, 1.0, rows=len(b))
            for result in (got, one_lane):
                assert (result[0].tobytes(), *result[1:]) == (want[0].tobytes(), *want[1:])
            assert (want[1] == "relaxed") == (oracle_solve(z, A, b, 1.0) is None)
            statuses.add(want[1])
        assert statuses == {"optimal", "relaxed"}

    def test_minimal_invasiveness(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            z, A, b, limit = random_problem(rng)
            if not (np.all(np.abs(z) <= limit)
                    and all(float(a @ z) + bi >= 0 for a, bi in zip(A, b))):
                continue
            u, _ = project_with_box(z, A, b, limit)
            assert u is not None
            assert np.max(np.abs(u - z)) <= 1e-9

    def test_monotone_safety(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            z, A, b, limit = random_problem(rng)
            u, _ = project_with_box(z, A, b, limit)
            if u is None:
                continue
            assert np.all(A @ u + b >= -1e-9)
            assert np.all(np.abs(u) <= limit + 1e-9)

    def test_projection_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            z, A, b, limit = random_problem(rng)
            first, _ = project_with_box(z, A, b, limit)
            if first is None:
                continue
            again, _ = project_with_box(first, A, b, limit)
            assert np.max(np.abs(again - first)) <= 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        problems = [random_problem(rng) for _ in range(50)]

        def outcomes():
            return [(None if u is None else u.tobytes(), iters)
                    for u, iters in (project_with_box(*p) for p in problems)]
        assert outcomes() == outcomes()


class TestRelaxed:
    def test_feasible_problem_keeps_near_zero_slack(self):
        # The quadratic penalty is exact only as weight -> inf; at 1e4 a
        # binding row carries a residual slack of order 1/weight.
        problem = np.array([-1.0, 0.0]), *rows(([1, 0], 0.0)), 1.0
        strict, _ = project_with_box(*problem)
        relaxed = solve_relaxed(*problem)
        assert relaxed.max_violation <= 2e-4
        assert np.allclose(relaxed.u_star, strict, atol=2e-4)

    def test_box_limited_slack(self):
        # u_x >= 2 against |u| <= 1: the filter rides the box face and
        # absorbs exactly one unit of violation in the slack.
        sol = solve_relaxed(np.zeros(2), *rows(([1, 0], -2.0)), 1.0)
        assert sol.u_star[0] == pytest.approx(1.0, abs=1e-6)
        assert sol.max_violation == pytest.approx(1.0, abs=1e-6)

    def test_box_limited_slack_against_lifted_oracle(self):
        # Enumerate the lifted (u, s) problem directly as an independent check.
        sw = np.sqrt(1e4)
        want = oracle_solve(
            np.zeros(3),
            *rows(([1.0, 0.0, 1.0 / sw], -2.0),
                  ([0.0, 0.0, 1.0], 0.0),
                  # the lifted box must not clamp the slack variable
                  ([0.0, 0.0, -1.0], 1e6)),
            np.array([1.0, 1.0, 1e7]))
        assert want is not None
        got = solve_relaxed(np.zeros(2), *rows(([1, 0], -2.0)), 1.0)
        assert got.u_star[0] == pytest.approx(want[0], abs=1e-6)
        assert got.max_violation == pytest.approx(want[2] / sw, abs=1e-6)

    def test_symmetric_conflict_splits_evenly(self):
        sol = solve_relaxed(np.zeros(1), *rows(([1], -1.0), ([-1], -1.0)), 2.0)
        assert sol.u_star[0] == pytest.approx(0.0, abs=1e-9)
        assert sol.max_violation == pytest.approx(1.0, abs=1e-4)


# Row counts the control loop stacks: every barrier row count up to the
# capacity of a 64-pair fleet (2*64 + 4), plus the box rows.
LOOP_ROWS = range(0, 2 * 64 + 4 + 1)


class TestStackedProducts:
    """The batched scan relies on these bit identities of numpy's matmul."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_stacked_rows_equal_the_2d_product(self, n):
        """(L, m, n) @ (L, n, 1) gives each lane's rows the bits of the 2-D
        A @ u over that lane's own rows and box, for every row count."""
        rng = np.random.default_rng(n)
        box = np.concatenate([np.eye(n), -np.eye(n)])
        for k in LOOP_ROWS:
            counts = rng.integers(0, k + 1, 4)
            counts[0] = k
            A = np.zeros((4, k, n))
            for l, c in enumerate(counts):
                A[l, :c] = rng.normal(size=(c, n)) * 10.0 ** rng.uniform(-3, 3)
            u = rng.uniform(-2.0, 2.0, (4, n))
            stacked = np.concatenate([A, np.broadcast_to(box, (4, 2 * n, n))], axis=1)
            f = (stacked @ u[:, :, None])[:, :, 0]
            for l, c in enumerate(counts):
                flat = np.concatenate([A[l, :c], box]) @ u[l]
                assert f[l, :c].tobytes() == flat[:c].tobytes()
                assert f[l, k:].tobytes() == flat[c:].tobytes()

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_row_stack_equals_the_1d_product(self, n):
        """(L, 1, n) @ (L, n, 1) gives the bits of each lane's a @ u."""
        rng = np.random.default_rng(10 + n)
        a = rng.normal(size=(2000, n)) * 10.0 ** rng.uniform(-3, 3, (2000, 1))
        u = rng.uniform(-2.0, 2.0, (2000, n))
        got = (a[:, None, :] @ u[:, :, None])[:, 0, 0]
        assert got.tobytes() == np.array([a[l] @ u[l] for l in range(2000)]).tobytes()
