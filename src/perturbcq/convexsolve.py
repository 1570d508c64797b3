"""Small dense convex solvers: an LP front-end (separating-direction form)
and one exact active-set solver for convex QPs over a scaled simplex, which
also solves the capped-simplex concave QP through a slack coordinate."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LpProblem",
    "CappedSimplexQp",
    "SolveStatus",
    "solve_lp",
    "minimize_simplex_qp",
    "solve_capped_simplex_qp",
    "project_capped_simplex",
    "project_simplex",
]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITER_LIMIT = "iter_limit"


@dataclass
class LpProblem:
    """minimize (or maximize) c.z subject to A z <= b, E z = d, lo <= z <= hi.

    lo/hi entries may be +-inf; A/E may be None when absent.
    """

    c: np.ndarray
    A: np.ndarray | None = None
    b: np.ndarray | None = None
    E: np.ndarray | None = None
    d: np.ndarray | None = None
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    maximize: bool = False


@dataclass
class CappedSimplexQp:
    """maximize 0.5 mu' Q mu + q' mu over {mu >= 0, sum(mu) <= beta};
    Q must be symmetric negative semidefinite."""

    Q: np.ndarray
    q: np.ndarray
    beta: float


@dataclass
class SolveStatus:
    status: str
    objective: float = float("nan")
    x: np.ndarray | None = None
    ineq_duals: np.ndarray | None = None
    eq_duals: np.ndarray | None = None
    kkt_residual: float = float("nan")
    face_solves: int = 0


def _check_finite(name, arr, allow_inf=False):
    if arr is None:
        return None
    arr = np.asarray(arr, dtype=float)
    if np.any(np.isnan(arr)):
        raise ValueError(f"{name} contains NaN")
    if not allow_inf and np.any(np.isinf(arr)):
        raise ValueError(f"{name} contains infinite entries")
    return arr


def solve_lp(lp: LpProblem) -> SolveStatus:
    """Solve a dense LP; returns primal point, duals, and a KKT residual.

    Infeasible/unbounded are statuses, not exceptions.  Duals follow the
    convention c + A' (-lam) stationarity for minimization, i.e. the returned
    ineq_duals are >= 0 multipliers of the rows A z <= b.  SciPy is imported
    on the first call: no other solver here needs it.
    """
    from scipy.optimize import linprog

    c = _check_finite("c", lp.c)
    A = _check_finite("A", lp.A)
    b = _check_finite("b", lp.b)
    E = _check_finite("E", lp.E)
    d = _check_finite("d", lp.d)
    n = len(c)
    lo = _check_finite("lo", lp.lo, allow_inf=True)
    hi = _check_finite("hi", lp.hi, allow_inf=True)
    if lo is None:
        lo = np.full(n, -np.inf)
    if hi is None:
        hi = np.full(n, np.inf)
    bounds = list(zip(lo, hi))
    c_solve = -c if lp.maximize else c

    res = linprog(c_solve, A_ub=A, b_ub=b, A_eq=E, b_eq=d, bounds=bounds, method="highs")
    if res.status == 2:
        return SolveStatus(status=INFEASIBLE)
    if res.status == 3:
        return SolveStatus(status=UNBOUNDED)
    if res.status != 0:
        return SolveStatus(status=ITER_LIMIT)

    x = np.asarray(res.x, dtype=float)
    lam = -np.asarray(res.ineqlin.marginals) if A is not None else np.zeros(0)
    nu = -np.asarray(res.eqlin.marginals) if E is not None else np.zeros(0)
    obj = float(c @ x) if lp.maximize else float(res.fun)

    # KKT residual in the minimization convention
    grad = c_solve.copy()
    if A is not None and len(lam):
        grad += A.T @ lam
    if E is not None and len(nu):
        grad += E.T @ nu
    # reduced costs absorb the bound multipliers: at optimum the stationarity
    # gradient equals lower.marginals (>= 0 at lower) + upper.marginals (<= 0)
    grad -= np.asarray(res.lower.marginals) + np.asarray(res.upper.marginals)
    resid = float(np.max(np.abs(grad))) if n else 0.0
    if A is not None and len(lam):
        slack = b - A @ x
        resid = max(resid, float(np.max(np.maximum(-slack, 0.0))))
        resid = max(resid, float(np.max(np.abs(lam * slack))))
    if E is not None and len(nu):
        resid = max(resid, float(np.max(np.abs(E @ x - d))))
    return SolveStatus(
        status=OPTIMAL,
        objective=obj,
        x=x,
        ineq_duals=lam,
        eq_duals=nu,
        kkt_residual=resid,
    )


def project_simplex(v, total: float) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum(x) = total} (sort-threshold)."""
    if total < 0:
        raise ValueError("total must be nonnegative")
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    ks = np.arange(1, len(v) + 1)
    cond = u - css / ks >= 0  # >= keeps rho = 0 when total = 0
    rho = int(np.nonzero(cond)[0][-1])
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def project_capped_simplex(v, beta: float) -> np.ndarray:
    """Euclidean projection onto {mu >= 0, sum(mu) <= beta}."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    v = np.asarray(v, dtype=float)
    w = np.maximum(v, 0.0)
    if w.sum() <= beta:
        return w
    return project_simplex(v, beta)


@functools.cache
def _face_basis(k: int) -> np.ndarray:
    """Orthonormal basis (k, k - 1) of {d in R^k : sum(d) = 0}, for k >= 2.

    The Householder reflector H = I - 2 v v' / (v'v), v = e1 - ones/sqrt(k),
    maps e1 onto ones/sqrt(k); H is symmetric and orthogonal, so its other
    k - 1 columns span the complement of ones.  Built once per k and cached
    read-only.
    """
    v = np.full(k, -1.0 / np.sqrt(k))
    v[0] += 1.0
    Z = np.eye(k)[:, 1:] - 2.0 * np.outer(v, v[1:]) / (v @ v)
    Z.flags.writeable = False
    return Z


def minimize_simplex_qp(
    P: np.ndarray,
    c: np.ndarray,
    total: float,
    tol: float = 1e-9,
    max_iter: int = 10_000,
    x0: np.ndarray | None = None,
) -> SolveStatus:
    """Minimize 0.5 x'Px + c'x over {x >= 0, sum(x) = total}, with P symmetric
    positive semidefinite and possibly singular.

    Primal active-set method (Nocedal & Wright, Numerical Optimization,
    ch. 16), started at the feasible point x0 when one is given (its support
    is the first set of free coordinates; ValueError unless x0 is finite,
    nonnegative and sums to total to 1e-12 relative) and otherwise at the best
    vertex.  The working set holds the coordinates fixed at zero; each
    iteration minimizes over the face of the free ones, in an orthonormal
    basis of {sum(d) = 0}.  When the reduced gradient has a component above
    tol along a zero-curvature direction of the reduced Hessian, the step
    follows that direction to the boundary; otherwise it is the Newton step
    on the positive-curvature part.  A step is cut at the first coordinate
    it drives to zero, which joins the working set.  Only an uncut Newton
    step lands on the face minimizer, so only then are the multipliers
    g_i - eta of the fixed coordinates examined (eta is the multiplier of the
    sum): the most negative one below -tol is released, and when none is,
    the point is optimal.  Each of the max_iter iterations is one face
    solve; the status reports how many were made.
    """
    P = np.asarray(P, dtype=float)
    c = np.asarray(c, dtype=float)
    n = len(c)
    if x0 is not None:
        x = np.array(x0, dtype=float)
        if (
            x.shape != (n,)
            or not np.isfinite(x).all()
            or np.any(x < 0)
            or abs(x.sum() - total) > 1e-12 * total
        ):
            raise ValueError("x0 must be finite, nonnegative and sum to total")
    else:
        x = np.zeros(n)
    if total == 0:
        return SolveStatus(status=OPTIMAL, objective=0.0, x=np.zeros(n))
    if x0 is None:
        x[int(np.argmin(0.5 * total * total * np.diag(P) + total * c))] = total
    free = x > 0
    # eigenvalues of the reduced Hessian below this are roundoff of zero
    curv_tol = 1e-12 * float(np.max(np.abs(P)))
    status = ITER_LIMIT
    face_solves = 0
    while face_solves < max_iter:
        face_solves += 1
        F = np.flatnonzero(free)
        d = np.zeros(n)
        cap, newton = 1.0, True
        if len(F) > 1:
            Z = _face_basis(len(F))
            w, V = np.linalg.eigh(Z.T @ P[F][:, F] @ Z)
            r = V.T @ (Z.T @ (P[F] @ x + c[F]))
            flat = (w <= curv_tol) & (np.abs(r) > tol)
            if flat.any():
                i = int(np.argmax(np.abs(r) * flat))
                p = -np.sign(r[i]) * V[:, i]
                cap = abs(r[i]) / w[i] if w[i] > 0 else np.inf
                newton = False
            else:
                curved = w > curv_tol
                p = -V[:, curved] @ (r[curved] / w[curved])
            d[F] = Z @ p
        shrinking = d < 0
        ratios = np.full(n, np.inf)
        ratios[shrinking] = x[shrinking] / -d[shrinking]
        b = int(np.argmin(ratios))
        if ratios[b] < cap:
            x = np.maximum(x + ratios[b] * d, 0.0)
            x[b] = 0.0
            free[b] = False
            continue
        x = np.maximum(x + cap * d, 0.0)
        if not newton:
            continue
        g = P @ x + c
        mult = np.where(free, np.inf, g - np.mean(g[free]))
        i = int(np.argmin(mult))
        if mult[i] >= -tol:
            status = OPTIMAL
            break
        free[i] = True
    return SolveStatus(
        status=status,
        objective=float(0.5 * x @ P @ x + c @ x),
        x=x,
        face_solves=face_solves,
    )


def _slack_embedding(Q: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P, c) = ([[-Q, 0], [0, 0]], [-q, 0]): the capped-simplex QP as a simplex
    QP in (mu, slack), for a Q known to be symmetric negative semidefinite."""
    m = len(q)
    P = np.zeros((m + 1, m + 1))
    P[:m, :m] = -Q
    return P, np.append(-q, 0.0)


def solve_capped_simplex_qp(
    qp: CappedSimplexQp, tol: float = 1e-9, max_iter: int = 10_000
) -> SolveStatus:
    """Exact solve by minimize_simplex_qp on the embedding
    {(mu, slack) >= 0, sum(mu) + slack = beta} with zero cost on the slack.

    tol bounds the multipliers' sign violation and max_iter the face solves,
    whose count the status reports.
    The fixed-point residual ||mu - proj(mu + grad)||_inf is the reported
    KKT residual.
    """
    Q = np.asarray(qp.Q, dtype=float)
    q = np.asarray(qp.q, dtype=float)
    if Q.shape != (len(q), len(q)):
        raise ValueError("Q/q dimension mismatch")
    if np.max(np.abs(Q - Q.T)) > 1e-12 * max(1.0, float(np.max(np.abs(Q)))):
        raise ValueError("Q must be symmetric")
    if qp.beta < 0:
        raise ValueError("beta must be nonnegative")
    eigs = np.linalg.eigvalsh(Q)
    scale = max(1.0, float(np.max(np.abs(eigs))) if len(eigs) else 0.0)
    if len(eigs) and eigs[-1] > 1e-9 * scale:
        raise ValueError("Q must be negative semidefinite")

    st = minimize_simplex_qp(*_slack_embedding(Q, q), float(qp.beta), tol, max_iter)
    mu = st.x[: len(q)]
    fixed_point = project_capped_simplex(mu + Q @ mu + q, qp.beta)
    return SolveStatus(
        status=st.status,
        objective=float(0.5 * mu @ Q @ mu + q @ mu),
        x=mu,
        kkt_residual=float(np.max(np.abs(mu - fixed_point), initial=0.0)),
        face_solves=st.face_solves,
    )
