"""Minimally invasive velocity filter: Euclidean projection of the nominal
input onto the polytope cut out by the active barrier rows and the admissible
velocity box.

The projection is computed by a dual active-set method specialized to an
identity Hessian: start from the unconstrained optimum (the nominal input),
repeatedly drive the most violated row to its boundary, dropping working-set
rows whose multipliers would go negative.  The method terminates finitely,
needs no tuning, and produces an exact infeasibility certificate, which makes
it straightforward to cross-check against the brute-force enumeration oracle.

Infeasible problems escalate to a slack-relaxed form (solve_relaxed) so the
control loop always has a defined, observable degradation path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .barriers import ConstraintRow
from .errors import InvalidInputError

RELAXATION_WEIGHT = 1e4
_FEAS_TOL = 1e-10
_DEP_TOL = 1e-12
_EMPTY = np.zeros(0)  # no working rows, no multipliers


class QpStatus(Enum):
    OPTIMAL = "optimal"
    RELAXED = "relaxed"
    FAILED = "failed"


@dataclass
class QpProblem:
    """One filtering instance: nominal velocity, barrier rows, admissible box."""

    u_nominal: np.ndarray
    rows: list[ConstraintRow]
    box: float | np.ndarray  # per-axis speed limit, |u_j| <= box_j

    def dimension(self) -> int:
        return len(self.u_nominal)

    def box_limits(self) -> np.ndarray:
        lim = np.asarray(self.box, dtype=float)
        if lim.ndim == 0:
            lim = np.full(self.dimension(), float(lim))
        if lim.shape != (self.dimension(),) or np.any(lim <= 0):
            raise InvalidInputError(f"box limits must be positive per axis, got {self.box!r}")
        return lim

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(z, A, b): the nominal input and the barrier rows a . u >= -b as
        arrays, checked non-empty, finite and of the input's dimension.  The
        box is not included; project_with_box appends it."""
        n = self.dimension()
        z = np.asarray(self.u_nominal, dtype=float)
        if z.shape != (n,) or n == 0:
            raise InvalidInputError(
                f"u_nominal must be a non-empty vector, got shape {z.shape}")
        if not np.all(np.isfinite(z)):
            raise InvalidInputError("u_nominal must be finite")
        A = np.empty((len(self.rows), n))
        b = np.empty(len(self.rows))
        for i, row in enumerate(self.rows):
            a = np.asarray(row.a, dtype=float)
            if a.shape != (n,):
                raise InvalidInputError(
                    f"row gradient dimension {a.shape} does not match input dimension {n}"
                )
            if not (np.all(np.isfinite(a)) and np.isfinite(row.b)):
                raise InvalidInputError("constraint rows must be finite")
            A[i] = a
            b[i] = row.b
        return z, A, b


@dataclass
class QpSolution:
    u_star: np.ndarray
    status: QpStatus
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
    (None, iterations) when the polytope is empty."""
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
            if w_sq > _DEP_TOL * max(1.0, a_sq):
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


def _box(n: int, limit) -> tuple[np.ndarray, np.ndarray]:
    """The box |u_j| <= limit_j as the rows [I; -I] and their offsets,
    read-only; built once per (n, limit) for a scalar limit."""
    if not isinstance(limit, (float, int)):  # per axis, or an array scalar
        return _box(n, 1.0)[0], np.broadcast_to(limit, (2, n)).ravel()
    box = _BOX_CACHE.get((n, limit))
    if box is None:
        box = np.concatenate([np.eye(n), -np.eye(n)]), np.full(2 * n, float(limit))
        box[0].flags.writeable = box[1].flags.writeable = False
        if len(_BOX_CACHE) >= 64:  # callers may pass many distinct limits
            _BOX_CACHE.clear()
        _BOX_CACHE[n, limit] = box
    return box


def _with_box(A: np.ndarray, b: np.ndarray,
              limit) -> tuple[np.ndarray, np.ndarray]:
    """Barrier rows followed by the admissible box |u_j| <= limit_j as the
    rows [I; -I], so minimal invasiveness holds jointly.  limit is a scalar
    or a per-axis array."""
    box_a, box_b = _box(A.shape[1], limit)
    return np.concatenate([A, box_a]), np.concatenate([b, box_b])


def project_with_box(z: np.ndarray, A: np.ndarray, b: np.ndarray,
                     limit) -> tuple[np.ndarray | None, int]:
    """The filter's one core: project z onto {A u >= -b} inside the box
    |u_j| <= limit_j (scalar or per-axis limit).

    Returns (point, iterations), or (None, iterations) when the polytope is
    empty.  The control loop calls this directly with the rows the watcher
    ships; solve, solve_relaxed and filter_velocity wrap it.
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


def solve(problem: QpProblem) -> QpSolution:
    """Least-perturbation filter: the unique projection of the nominal input
    onto the feasible polytope, or status FAILED when it is empty.
    project_with_box on the problem's arrays, plus the residual violation."""
    z, A, b = problem.arrays()
    lim = problem.box_limits()
    u, iters = project_with_box(z, A, b, lim)
    if u is None:
        return QpSolution(u_star=z.copy(), status=QpStatus.FAILED,
                          max_violation=float("inf"), iterations=iters)
    A_all, b_all = _with_box(A, b, lim)
    residual = A_all @ u + b_all
    violation = max(0.0, float(-residual.min()))
    return QpSolution(u_star=u, status=QpStatus.OPTIMAL,
                      max_violation=violation, iterations=iters)


_COMBO_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _combos(m: int, k: int) -> np.ndarray:
    key = (m, k)
    if key not in _COMBO_CACHE:
        _COMBO_CACHE[key] = np.array(list(itertools.combinations(range(m), k)), dtype=int)
    return _COMBO_CACHE[key]


def oracle_solve(problem: QpProblem) -> QpSolution:
    """Exact reference solution by enumerating candidate active sets.

    Every subset of up to n rows is treated as equalities; the resulting
    least-distance point is kept if it satisfies all rows, and the feasible
    candidate closest to the nominal is returned.  The true projection's
    active set (reduced to a maximal independent subset) is always among the
    candidates, so no feasible candidate at all certifies emptiness.
    Practical up to ~16 rows; intended for testing, not the control loop.
    """
    z, A, b = problem.arrays()
    A, b = _with_box(A, b, problem.box_limits())
    m, n = A.shape
    # Normalize row scales so singularity thresholds are geometric.
    norms = np.linalg.norm(A, axis=1)
    degenerate = norms < 1e-14
    if np.any(degenerate) and np.any(b[degenerate] < -_FEAS_TOL):
        return QpSolution(u_star=z.copy(), status=QpStatus.FAILED,
                          max_violation=float("inf"), iterations=0)
    keep = np.where(~degenerate)[0]
    An = A[keep] / norms[keep, None]
    bn = b[keep] / norms[keep]
    mk = len(keep)

    scale = max(1.0, float(np.abs(bn).max()) if mk else 1.0)
    feas_tol = 1e-9 * scale
    best_u = None
    best_obj = np.inf
    candidates = 0

    def consider(us: np.ndarray):
        nonlocal best_u, best_obj, candidates
        feas = np.all(An @ us.T + bn[:, None] >= -feas_tol, axis=0)
        candidates += us.shape[0]
        if not np.any(feas):
            return
        objs = np.einsum("ij,ij->i", us - z, us - z)
        objs = np.where(feas, objs, np.inf)
        i = int(np.argmin(objs))
        if objs[i] < best_obj:
            best_obj = objs[i]
            best_u = us[i]

    consider(z[None, :])
    for k in range(1, min(n, mk) + 1):
        idx = _combos(mk, k)
        if idx.size == 0:
            continue
        sub_a = An[idx]                       # (S, k, n)
        sub_b = bn[idx]                       # (S, k)
        gram = sub_a @ sub_a.transpose(0, 2, 1)
        if k == 1:
            det = gram[:, 0, 0]
        elif k == 2:
            det = gram[:, 0, 0] * gram[:, 1, 1] - gram[:, 0, 1] * gram[:, 1, 0]
        else:
            det = (
                gram[:, 0, 0] * (gram[:, 1, 1] * gram[:, 2, 2] - gram[:, 1, 2] * gram[:, 2, 1])
                - gram[:, 0, 1] * (gram[:, 1, 0] * gram[:, 2, 2] - gram[:, 1, 2] * gram[:, 2, 0])
                + gram[:, 0, 2] * (gram[:, 1, 0] * gram[:, 2, 1] - gram[:, 1, 1] * gram[:, 2, 0])
            )
        ok = np.abs(det) > 1e-10
        if not np.any(ok):
            continue
        sub_a = sub_a[ok]
        rhs = -(sub_b[ok] + np.einsum("skn,n->sk", sub_a, z))
        try:
            nu = np.linalg.solve(gram[ok], rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            # A member slipped past the determinant screen; solve one by one
            # and drop the genuinely singular subsets.
            grams = gram[ok]
            rows = []
            for s in range(grams.shape[0]):
                try:
                    rows.append((s, np.linalg.solve(grams[s], rhs[s])))
                except np.linalg.LinAlgError:
                    pass
            if not rows:
                continue
            sel = [s for s, _ in rows]
            sub_a = sub_a[sel]
            nu = np.stack([x for _, x in rows])
        us = z[None, :] + np.einsum("sk,skn->sn", nu, sub_a)
        consider(us)

    if best_u is None:
        return QpSolution(u_star=z.copy(), status=QpStatus.FAILED,
                          max_violation=float("inf"), iterations=candidates)
    return QpSolution(u_star=best_u, status=QpStatus.OPTIMAL,
                      max_violation=0.0, iterations=candidates)


def solve_relaxed(problem: QpProblem,
                  weight: float = RELAXATION_WEIGHT) -> QpSolution:
    """Slack fallback for infeasible instances.

    Solves min |u - u_nominal|^2 + weight * sum(s_i^2) subject to
    a_i . u >= -b_i - s_i, s_i >= 0 and the box.  Substituting s_i ->
    s_i * sqrt(weight) turns this into the same identity-Hessian projection in
    n + m variables, so the active-set core is reused unchanged.  Always
    feasible; max_violation reports the largest slack actually used.
    """
    z, A_bar, b_bar = problem.arrays()
    mc, n = A_bar.shape
    if mc == 0:
        base = solve(problem)
        return QpSolution(u_star=base.u_star, status=QpStatus.RELAXED,
                          max_violation=0.0, iterations=base.iterations)
    sw = np.sqrt(weight)
    A_rows, b_rows = _with_box(A_bar, b_bar, problem.box_limits())
    dim = n + mc
    A = np.zeros((A_rows.shape[0] + mc, dim))
    b = np.zeros(A_rows.shape[0] + mc)
    A[: A_rows.shape[0], :n] = A_rows
    b[: A_rows.shape[0]] = b_rows
    for i in range(mc):
        A[i, n + i] = 1.0 / sw          # slack loosens its barrier row
        A[A_rows.shape[0] + i, n + i] = 1.0  # s_i >= 0
    z_lift = np.concatenate([z, np.zeros(mc)])
    u_lift, iters = _project(z_lift, A, b)
    if u_lift is None:  # cannot happen: slacks make the polytope nonempty
        raise RuntimeError("relaxed problem reported infeasible")
    slacks = u_lift[n:] / sw
    return QpSolution(u_star=u_lift[:n], status=QpStatus.RELAXED,
                      max_violation=max(0.0, float(slacks.max())), iterations=iters)


def filter_velocity(problem: QpProblem) -> QpSolution:
    """solve() with automatic escalation to the slack relaxation."""
    sol = solve(problem)
    if sol.status is QpStatus.FAILED:
        return solve_relaxed(problem)
    return sol
