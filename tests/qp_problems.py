"""Seeded random QP instances, and the control loop's path through the
filter, shared by the unit and acceptance suites."""

import numpy as np

from airground.qp import project_lanes


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


def filter_problem(z, A, b, limit: float, rows: int = 12) -> tuple:
    """One problem's (u, status, iterations, slack) through the control
    loop's entry point: a one-lane project_lanes batch, its rows
    zero-padded to rows as a vehicle kind's capacity pads them."""
    m, n = A.shape
    A_pad, b_pad = np.zeros((1, rows, n)), np.zeros((1, rows))
    A_pad[0, :m], b_pad[0, :m] = A, b
    passed, rejected = project_lanes(z[None], A_pad, b_pad, [m], limit)
    return (z, "optimal", 1, 0.0) if passed[0] else next(rejected)


def filter_lanes(problems, limit: float) -> list:
    """filter_problem on many problems at one box limit (each problem's own
    limit is left out): one project_lanes batch per dimension, its lanes
    zero-padded to the batch's largest row count."""
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
        passed, rejected = project_lanes(z, A, b, counts, limit)
        for l, i in enumerate(lanes):
            results[i] = (z[l], "optimal", 1, 0.0) if passed[l] else next(rejected)
    return results
