"""Seeded random QP instances, and the control loop's path through the
filter, shared by the unit and acceptance suites."""

import numpy as np

from airground.qp import project_lanes, solve_relaxed


def random_problem(rng: np.random.Generator):
    """A random filtering instance (z, A, b, limit): n in {2,3}, 0-12 rows
    A u + b >= 0, box limit ~U(0.5,2).

    Row offsets are drawn wide enough that a fair share of instances is
    infeasible, which exercises both status paths.
    """
    n = int(rng.integers(2, 4))
    m = int(rng.integers(0, 13))
    A = np.empty((m, n))
    b = np.empty(m)
    for i in range(m):
        a = rng.normal(size=n)
        if rng.uniform() < 0.1:
            a = a * 1e-3  # occasionally near-degenerate gradients
        A[i] = a
        b[i] = rng.normal(loc=0.2, scale=1.5)
    limit = float(rng.uniform(0.5, 2.0))
    z = rng.uniform(-2.5, 2.5, size=n)
    return z, A, b, limit


def filter_lanes(problems) -> list:
    """Each problem's (u, iterations, relaxed) as KindControl._filter
    reaches it: one project_lanes batch per dimension, zero-padded to its
    largest row count, with per-lane limits, and solve_relaxed on the
    lane's own rows where the polytope is empty."""
    results = [None] * len(problems)
    for n in (2, 3):
        lanes = [i for i, (z, _, _, _) in enumerate(problems) if len(z) == n]
        if not lanes:
            continue
        counts = [len(problems[i][2]) for i in lanes]
        A = np.zeros((len(lanes), max(counts), n))
        b = np.zeros((len(lanes), max(counts)))
        for l, i in enumerate(lanes):
            A[l, :counts[l]], b[l, :counts[l]] = problems[i][1:3]
        z = np.array([problems[i][0] for i in lanes])
        limits = np.array([problems[i][3] for i in lanes])
        passed, solutions = project_lanes(z, A, b, counts, limits)
        for l, i in enumerate(lanes):
            u, iterations = (z[l], 1) if passed[l] else next(solutions)
            relaxed = u is None
            if relaxed:
                c = counts[l]
                sol = solve_relaxed(z[l], A[l, :c], b[l, :c], limits[l])
                u, iterations = sol.u_star, sol.iterations
            results[i] = (u, iterations, relaxed)
    return results
