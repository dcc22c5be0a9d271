"""Minimally invasive velocity filter: Euclidean projection of the nominal
input onto the polytope cut out by the active barrier rows and the admissible
velocity box.

The projection is computed by a dual active-set method specialized to an
identity Hessian: start from the unconstrained optimum (the nominal input),
repeatedly drive the most violated row to its boundary, dropping working-set
rows whose multipliers would go negative.  The method terminates finitely,
needs no tuning, and produces an exact infeasibility certificate, which the
test suite cross-checks against a brute-force enumeration of active sets
(tests/oracles.py).

Every entry point takes arrays: the nominal input z, the barrier rows
A u + b >= 0 and a scalar box limit.  The control loop calls project_lanes
on a batch of lanes; a lane whose polytope is empty escalates to the
slack-relaxed form (solve_relaxed) on the same arrays, so the loop always has
a defined, observable degradation path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RELAXATION_WEIGHT = 1e4
_SQRT_WEIGHT = math.sqrt(RELAXATION_WEIGHT)
_FEAS_TOL = 1e-10
_DEP_TOL = 1e-12
_RETRY_DEP_TOL = 1e-8  # w_sq / a_sq below which a retried solve calls a row dependent
_EMPTY = np.zeros(0)  # no working rows, no multipliers


@dataclass
class QpSolution:
    """solve_relaxed's result: the filtered input, the largest slack used
    and the active-set iterations."""

    u_star: np.ndarray
    max_violation: float = 0.0
    iterations: int = 0


def _blocking_step(lam: np.ndarray, r: np.ndarray) -> tuple[float, int]:
    """Largest step t before a working-set multiplier lam - t*r reaches zero,
    and the index of the first row to get there (-1 when none does)."""
    t_block, blocker = np.inf, -1
    for idx in range(len(r)):
        if r[idx] > _DEP_TOL:
            cand = lam[idx] / r[idx]
            if cand < t_block:
                t_block = cand
                blocker = idx
    return t_block, blocker


def _project(z: np.ndarray, A: np.ndarray, b: np.ndarray,
             max_iter: int = 2000) -> tuple[np.ndarray | None, int]:
    """Project z onto {u : A u + b >= 0}; returns (point, iterations) or
    (None, iterations) when the polytope is empty.  Rounding can leave a
    row nearly in the working rows' span (or a further row beyond n, which
    span R^n) a tiny w, and the huge steps can cycle until the multipliers
    overflow: a solve on finite data that fails is repeated with at most n
    working rows and _RETRY_DEP_TOL as the dependence test."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return _active_set(z, A, b, max_iter, math.inf, _DEP_TOL)
        except RuntimeError:
            if not all(np.isfinite(x).all() for x in (z, A, b)):
                raise
            try:
                return _active_set(z, A, b, max_iter, len(z), _RETRY_DEP_TOL)
            except RuntimeError:
                pass
            raise


def _active_set(z: np.ndarray, A: np.ndarray, b: np.ndarray, max_iter: int,
                max_rows, dep_tol: float) -> tuple[np.ndarray | None, int]:
    """_project's dual active-set loop: at most max_rows working rows, and
    a row whose w_sq is at most dep_tol * max(1, a_sq) is dependent."""
    u = z.astype(float)
    feas_tol = _FEAS_TOL * np.abs(A).max(axis=1, initial=1.0)
    work, lam, iters = [], _EMPTY, 0
    while iters < max_iter:
        iters += 1
        g = A.dot(u) + b + feas_tol
        p = int(g.argmin())
        if g[p] >= 0:  # fl(f + tol) >= 0 iff f >= -tol
            return u, iters
        a_p, b_p, lam_p = A[p], float(b[p]), 0.0
        while True:
            iters += 1
            if iters > max_iter:
                raise RuntimeError("active-set projection did not converge")
            a_sq = float(a_p.dot(a_p))
            if work:
                N = A[work].T
                gram = N.T @ N
                try:
                    r = np.linalg.solve(gram, N.T @ a_p)
                except np.linalg.LinAlgError:
                    # Numerically dependent working set; least-squares keeps
                    # the step well defined.
                    r = np.linalg.lstsq(gram, N.T @ a_p, rcond=None)[0]
                w = a_p - N @ r
                w_sq = float(w @ w)
            else:
                w, w_sq, r = a_p, a_sq, _EMPTY
            if len(work) < max_rows and w_sq > dep_tol * max(1.0, a_sq):
                # Primal step toward the boundary of row p.  Nothing blocks
                # it while the working set is empty, unless t_full is NaN.
                t_full = -(float(a_p.dot(u)) + b_p) / w_sq
                t_block, blocker = _blocking_step(lam, r) if work else (np.inf, -1)
                if t_full <= t_block:
                    u = u + t_full * w
                    lam_p += t_full
                    lam = np.append(lam - t_full * r, lam_p) if work else np.array([lam_p])
                    work.append(p)
                    break
                u = u + t_block * w
                lam = lam - t_block * r
                lam_p += t_block
            else:
                # a_p lies in the span of the working set: dual-only step.
                if not (r > _DEP_TOL).any():
                    return None, iters  # exact infeasibility certificate
                t_block, blocker = _blocking_step(lam, r)
                lam = lam - t_block * r
                lam_p += t_block
            if blocker < 0:  # only a NaN step or an infinite multiplier gets here
                raise RuntimeError("active-set projection took a non-finite step")
            del work[blocker]
            lam = np.delete(lam, blocker)
    raise RuntimeError("active-set projection did not converge")


_BOX_CACHE: dict = {}


def _box(n: int, limit: float) -> tuple[np.ndarray, np.ndarray]:
    """The box |u_j| <= limit as the rows [I; -I] and their offsets,
    read-only; built once per (n, limit)."""
    box = _BOX_CACHE.get((n, limit))
    if box is None:
        box = np.concatenate([np.eye(n), -np.eye(n)]), np.full(2 * n, float(limit))
        box[0].flags.writeable = box[1].flags.writeable = False
        if len(_BOX_CACHE) >= 64:  # callers may pass many distinct limits
            _BOX_CACHE.clear()
        _BOX_CACHE[n, limit] = box
    return box


def _with_box(A: np.ndarray, b: np.ndarray,
              limit: float) -> tuple[np.ndarray, np.ndarray]:
    """Barrier rows followed by the admissible box |u_j| <= limit as the
    rows [I; -I], so minimal invasiveness holds jointly."""
    box_a, box_b = _box(A.shape[1], limit)
    return np.concatenate([A, box_a]), np.concatenate([b, box_b])


def project_with_box(z: np.ndarray, A: np.ndarray, b: np.ndarray,
                     limit: float) -> tuple[np.ndarray | None, int]:
    """The filter's one core: project z onto {A u >= -b} inside the box
    |u_j| <= limit.

    Returns (point, iterations), or (None, iterations) when the polytope is
    empty.  project_lanes calls this for each lane its scan rejects.
    """
    return _project(z, *_with_box(A, b, limit))


def project_lanes(z: np.ndarray, A: np.ndarray, b: np.ndarray, counts,
                  limit):
    """project_with_box for L lanes: (passed, solutions).

    z is (L, n); lane l's rows are the first counts[l] of the (L, k, n) A and
    (L, k) b, zeros below; limit is one box limit or one per lane.  One scan
    runs _project's first check on every lane, box rows included: stacked
    products equal the 2-D ones bit for bit, and fl(f + tol) >= 0 iff f >=
    -tol.  passed masks the lanes it passes, whose result is (z[l], 1);
    solutions yields each other lane's project_with_box on its own rows."""
    L, k, n = A.shape
    A_all = np.empty((L, k + 2 * n, n))
    A_all[:, :k] = A
    A_all[:, k:] = _box(n, 1.0)[0]
    b_all = np.empty((L, k + 2 * n))
    b_all[:, :k] = b
    per_lane = np.ndim(limit) > 0
    b_all[:, k:] = limit[:, None] if per_lane else limit
    tol = _FEAS_TOL * np.abs(A_all).max(axis=2, initial=1.0)
    f = (A_all @ z[:, :, None])[:, :, 0] + b_all
    passed = (f + tol >= 0).all(axis=1)
    return passed, (project_with_box(z[l], A[l, :counts[l]], b[l, :counts[l]],
                                     limit[l] if per_lane else limit)
                    for l in (~passed).nonzero()[0].tolist())


def solve_relaxed(z: np.ndarray, A: np.ndarray, b: np.ndarray,
                  limit: float) -> QpSolution:
    """Slack fallback for an empty polytope, on project_with_box's arguments.

    Solves min |u - z|^2 + RELAXATION_WEIGHT * sum(s_i^2) subject to
    a_i . u >= -b_i - s_i, s_i >= 0 and the box.  Substituting s_i ->
    s_i * sqrt(RELAXATION_WEIGHT) turns this into the same identity-Hessian projection in
    n + m variables, so the active-set core is reused unchanged.  Always
    feasible; max_violation reports the largest slack actually used (0 with
    no rows, where this is the plain projection).
    """
    mc, n = A.shape
    A_rows, b_rows = _with_box(A, b, limit)
    m = len(b_rows)
    A_lift = np.zeros((m + mc, n + mc))
    b_lift = np.zeros(m + mc)
    A_lift[:m, :n] = A_rows
    b_lift[:m] = b_rows
    slack = np.arange(mc)
    A_lift[slack, n + slack] = 1.0 / _SQRT_WEIGHT  # slack loosens its barrier row
    A_lift[m + slack, n + slack] = 1.0            # s_i >= 0
    u_lift, iters = _project(np.concatenate([z, np.zeros(mc)]), A_lift, b_lift)
    if u_lift is None:  # cannot happen: slacks make the polytope nonempty
        raise RuntimeError("relaxed problem reported infeasible")
    slacks = u_lift[n:] / _SQRT_WEIGHT
    return QpSolution(u_star=u_lift[:n], max_violation=max(0.0, float(slacks.max(initial=0.0))),
                      iterations=iters)
