import numpy as np
import pytest

from airground.barriers import ConstraintRow, RowKind
from airground.errors import InvalidInputError
from airground.qp import (QpProblem, QpStatus, _project, _with_box, filter_velocity,
                          oracle_solve, project_lanes, project_with_box, solve,
                          solve_relaxed)

from qp_problems import random_problem


def row(a, b):
    return ConstraintRow(a=np.asarray(a, dtype=float), b=float(b),
                         kind=RowKind.UAV_UAV)


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
        p = QpProblem(np.array([0.3, -0.2, 0.1]), [], 1.0)
        sol = oracle_solve(p)
        assert sol.status is QpStatus.OPTIMAL
        assert np.allclose(sol.u_star, p.u_nominal)

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
            sol = oracle_solve(QpProblem(z, [row(a, b)], 1.0))
            assert sol.status is QpStatus.OPTIMAL
            assert np.allclose(sol.u_star, expected, atol=1e-9)

    def test_coordinate_halfspace(self):
        sol = oracle_solve(QpProblem(np.array([-1.0, 0.0, 0.0]),
                                     [row([1, 0, 0], 0.0)], 1.0))
        assert np.allclose(sol.u_star, [0, 0, 0], atol=1e-12)

    def test_empty_polytope(self):
        # u_x >= 2 cannot be met inside |u| <= 1.
        sol = oracle_solve(QpProblem(np.zeros(2), [row([1, 0], -2.0)], 1.0))
        assert sol.status is QpStatus.FAILED

    def test_degenerate_zero_gradient_infeasible(self):
        sol = oracle_solve(QpProblem(np.zeros(2), [row([0, 0], -0.25)], 1.0))
        assert sol.status is QpStatus.FAILED


class TestNanStep:
    """A NaN step fails both the full-step and the blocking test, so no
    working row is to be dropped: the projection raises rather than drop
    the wrong row (or index an empty working set)."""

    def test_nan_nominal(self):
        with np.errstate(invalid="ignore"), \
                pytest.raises(RuntimeError, match="non-finite step"):
            project_with_box(np.array([np.nan, 0.0, 0.0]), np.zeros((0, 3)),
                             np.zeros(0), 1.0)

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


def test_box_rows_cached_per_dimension_and_limit():
    """The cached box rows and offsets follow (dimension, limit): two scalar
    limits alternating in one dimension, another dimension and a per-axis
    limit each give the arrays built afresh and the projection on them."""
    rng = np.random.default_rng(13)
    for limit, n in [(0.6, 3), (1.0, 3), (0.6, 3), (0.6, 2), (1, 3), (1.0, 2),
                     (np.array([0.6, 1.0, 0.3]), 3), (0.6, 3), (np.float64(1.0), 3)]:
        A, b, z = rng.normal(size=(4, n)), rng.normal(size=4), rng.normal(size=n)
        lim = np.broadcast_to(np.asarray(limit, dtype=float), (n,))
        want = (np.concatenate([A, np.eye(n), -np.eye(n)]), np.concatenate([b, lim, lim]))
        got = _with_box(A, b, limit)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
        outcomes = [(None if u is None else u.tobytes(), iters)
                    for u, iters in (project_with_box(z, A, b, limit), _project(z, *want))]
        assert outcomes[0] == outcomes[1]


class TestSolve:
    def test_no_rows_identity(self):
        p = QpProblem(np.array([0.4, -0.3, 0.2]), [], 1.0)
        sol = solve(p)
        assert sol.status is QpStatus.OPTIMAL
        assert np.array_equal(sol.u_star, p.u_nominal)

    def test_coordinate_halfspace(self):
        sol = solve(QpProblem(np.array([-1.0, 0.0, 0.0]), [row([1, 0, 0], 0.0)], 1.0))
        assert sol.status is QpStatus.OPTIMAL
        assert np.allclose(sol.u_star, [0, 0, 0], atol=1e-12)

    def test_infeasible_flagged(self):
        sol = solve(QpProblem(np.zeros(2), [row([1, 0], -2.0)], 1.0))
        assert sol.status is QpStatus.FAILED

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            solve(QpProblem(np.zeros(3), [row([1, 0], 0.0)], 1.0))

    def test_non_positive_box_rejected(self):
        with pytest.raises(InvalidInputError):
            solve(QpProblem(np.zeros(2), [], 0.0))

    @pytest.mark.parametrize("entry", [solve, solve_relaxed, filter_velocity,
                                       oracle_solve])
    def test_zero_dimension_rejected(self, entry):
        with pytest.raises(InvalidInputError):
            entry(QpProblem(np.zeros(0), [], 1.0))

    def test_matches_oracle_on_random_problems(self):
        """The batched entry point the control loop calls, over lanes of
        random problems zero-padded to a common row count, against the
        brute-force oracle, problem by problem."""
        rng = np.random.default_rng(2024)
        feasible = infeasible = trivial = 0
        problems = [random_problem(rng) for _ in range(400)]
        for n in (2, 3):
            lanes = [p for p in problems if p.dimension() == n]
            counts = [len(p.rows) for p in lanes]
            A = np.zeros((len(lanes), max(counts), n))
            b = np.zeros((len(lanes), max(counts)))
            for l, p in enumerate(lanes):
                _, A[l, :counts[l]], b[l, :counts[l]] = p.arrays()
            z = np.array([p.u_nominal for p in lanes])
            limits = np.array([p.box for p in lanes])
            passed, rest = project_lanes(z, A, b, counts, limits)
            got = [(z[l], 1) if ok else next(rest) for l, ok in enumerate(passed.tolist())]
            for p, (u, iters) in zip(lanes, got):
                want = oracle_solve(p)
                assert (u is None) == (want.status is QpStatus.FAILED), p
                trivial += iters == 1
                if want.status is QpStatus.OPTIMAL:
                    feasible += 1
                    assert np.max(np.abs(u - want.u_star)) <= 1e-5
                    obj_got = float((u - p.u_nominal) @ (u - p.u_nominal))
                    obj_want = float((want.u_star - p.u_nominal) @ (want.u_star - p.u_nominal))
                    assert obj_got <= obj_want + 1e-8
                else:
                    infeasible += 1
        # both paths exercised, and lanes passed by the batched scan
        assert feasible > 100 and infeasible > 20 and trivial > 10

    def test_minimal_invasiveness(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            p = random_problem(rng)
            u = np.asarray(p.u_nominal)
            lim = p.box_limits()
            feasible_nominal = np.all(np.abs(u) <= lim) and all(
                float(r.a @ u) + r.b >= 0 for r in p.rows)
            if not feasible_nominal:
                continue
            sol = solve(p)
            assert sol.status is QpStatus.OPTIMAL
            assert np.max(np.abs(sol.u_star - u)) <= 1e-9

    def test_monotone_safety(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            p = random_problem(rng)
            sol = solve(p)
            if sol.status is not QpStatus.OPTIMAL:
                continue
            for r in p.rows:
                assert float(r.a @ sol.u_star) + r.b >= -1e-9
            assert np.all(np.abs(sol.u_star) <= p.box_limits() + 1e-9)

    def test_projection_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = random_problem(rng)
            first = solve(p)
            if first.status is not QpStatus.OPTIMAL:
                continue
            again = solve(QpProblem(first.u_star, p.rows, p.box))
            assert np.max(np.abs(again.u_star - first.u_star)) <= 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        problems = [random_problem(rng) for _ in range(50)]
        first = [solve(p).u_star.tobytes() for p in problems]
        second = [solve(p).u_star.tobytes() for p in problems]
        assert first == second


class TestRelaxed:
    def test_feasible_problem_keeps_near_zero_slack(self):
        # The quadratic penalty is exact only as weight -> inf; at 1e4 a
        # binding row carries a residual slack of order 1/weight.
        p = QpProblem(np.array([-1.0, 0.0]), [row([1, 0], 0.0)], 1.0)
        strict = solve(p)
        relaxed = solve_relaxed(p)
        assert relaxed.status is QpStatus.RELAXED
        assert relaxed.max_violation <= 2e-4
        assert np.allclose(relaxed.u_star, strict.u_star, atol=2e-4)

    def test_box_limited_slack(self):
        # u_x >= 2 against |u| <= 1: the filter rides the box face and
        # absorbs exactly one unit of violation in the slack.
        p = QpProblem(np.zeros(2), [row([1, 0], -2.0)], 1.0)
        sol = solve_relaxed(p)
        assert sol.status is QpStatus.RELAXED
        assert sol.u_star[0] == pytest.approx(1.0, abs=1e-6)
        assert sol.max_violation == pytest.approx(1.0, abs=1e-6)

    def test_box_limited_slack_against_lifted_oracle(self):
        # Enumerate the lifted (u, s) problem directly as an independent check.
        p = QpProblem(np.zeros(2), [row([1, 0], -2.0)], 1.0)
        w = 1e4
        sw = np.sqrt(w)
        lifted = QpProblem(
            np.zeros(3),
            [
                ConstraintRow(a=np.array([1.0, 0.0, 1.0 / sw]), b=-2.0,
                              kind=RowKind.UAV_UAV),
                ConstraintRow(a=np.array([0.0, 0.0, 1.0]), b=0.0,
                              kind=RowKind.UAV_UAV),
                # the lifted box must not clamp the slack variable
                ConstraintRow(a=np.array([0.0, 0.0, -1.0]), b=1e6,
                              kind=RowKind.UAV_UAV),
            ],
            np.array([1.0, 1.0, 1e7]),
        )
        want = oracle_solve(lifted)
        assert want.status is QpStatus.OPTIMAL
        got = solve_relaxed(p)
        assert got.u_star[0] == pytest.approx(want.u_star[0], abs=1e-6)
        assert got.max_violation == pytest.approx(want.u_star[2] / sw, abs=1e-6)

    def test_symmetric_conflict_splits_evenly(self):
        p = QpProblem(np.zeros(1), [row([1], -1.0), row([-1], -1.0)], 2.0)
        sol = solve_relaxed(p)
        assert sol.u_star[0] == pytest.approx(0.0, abs=1e-9)
        assert sol.max_violation == pytest.approx(1.0, abs=1e-4)

    def test_filter_velocity_escalates(self):
        p = QpProblem(np.zeros(2), [row([1, 0], -2.0)], 1.0)
        sol = filter_velocity(p)
        assert sol.status is QpStatus.RELAXED
        assert sol.max_violation > 0.5


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
