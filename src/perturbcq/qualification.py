"""MFCQ certification: separating-direction LP, convex-hull distance QP
(solved exactly by convexsolve.minimize_simplex_qp), equality-gradient rank
test, and a boundary sweep."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .convexsolve import OPTIMAL, LpProblem, SolveStatus, minimize_simplex_qp, solve_lp
from .model import (
    DEFAULT_ACTIVE_TOL,
    ActiveSet,
    PerturbationSpec,
    ProblemInstance,
    _active,
    _at,
    _check_point,
    _max_violation,
)

__all__ = [
    "MfcqCertificate",
    "SweepConfig",
    "SweepResult",
    "equality_gradients_independent",
    "check_mfcq_lp",
    "check_mfcq_hull",
    "sweep_mfcq",
    "write_sweep_csv",
]

HOLDS = "holds"
FAILS = "fails"
DEGENERATE = "degenerate"

DEFAULT_MARGIN_TOL = 1e-9  # LP margin above which MFCQ holds
DEFAULT_CERT_TOL = 1e-8  # residual of a failure witness; hull distance that fails
DEGENERATE_BAND = 10.0  # hull distances in (cert tol, band * cert tol] are degenerate
RANK_TOL = 1e-9  # smallest singular value of H, relative to max(1, largest)
BISECT_ITERS = 60  # bisection steps per sweep ray
INTERIOR_ATTEMPTS = 20000  # box samples tried for a strictly feasible ray origin


@dataclass(frozen=True)
class MfcqCertificate:
    """Outcome of an MFCQ check at one point.

    Holds carries a direction y with margin eps (<y, grad g_i> <= -eps on the
    active set, <y, grad h_j> ~ 0, ||y||_inf <= 1; eps = inf when nothing is
    active).  Fails carries simplex multipliers lam on the active set and
    span coefficients kappa with || sum lam_i grad g_i - sum kappa_j grad h_j ||
    below the certificate tolerance.
    """

    verdict: str
    active: ActiveSet
    direction: tuple[float, ...] | None = None
    margin: float | None = None
    multipliers: tuple[float, ...] | None = None
    kappa: tuple[float, ...] | None = None
    hull_distance: float | None = None
    reason: str = ""

    @property
    def measure(self) -> float:
        """Signed scalar summary: margin when holding, -hull distance slack
        otherwise (0 for a clean failure)."""
        if self.verdict == HOLDS:
            return self.margin if self.margin is not None else math.inf
        return -(self.hull_distance or 0.0)


def _full_rank(H: np.ndarray) -> bool:
    """Numerical full-row-rank test of an equality Jacobian H (r x n)."""
    r, n = H.shape
    if r == 0:
        return True
    if r > n:
        return False
    sv = np.linalg.svd(H, compute_uv=False)
    return bool(sv[-1] > RANK_TOL * max(1.0, sv[0]))


def equality_gradients_independent(prob: ProblemInstance, x) -> bool:
    """Numerical full-rank test of the equality gradient matrix at x."""
    return _full_rank(_at(prob, PerturbationSpec.diagonal(0.0), x, 1)[3])


def _prepare(prob, pert, x):
    """The active set at x, the active gradients G, the equality Jacobian H,
    and whether H has full row rank, from one evaluation of the problem's
    order-1 family at x."""
    shifted, eq, G_all, H = _at(prob, pert, x, 1)
    act = _active(shifted, eq, DEFAULT_ACTIVE_TOL)  # raises on infeasible x
    return act, G_all[list(act.indices)], H, _full_rank(H)


def _fit_kappa(H: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares kappa with sum kappa_j grad h_j ~ w; returns residual norm."""
    if H.shape[0] == 0:
        return np.zeros(0), float(np.linalg.norm(w))
    kappa, *_ = np.linalg.lstsq(H.T, w, rcond=None)
    return kappa, float(np.linalg.norm(w - H.T @ kappa))


def check_mfcq_lp(prob: ProblemInstance, pert: PerturbationSpec, x) -> MfcqCertificate:
    """Separating-direction formulation: maximize eps subject to
    <grad g_i, y> <= -eps on the active set, <grad h_j, y> = 0, ||y||_inf <= 1.

    With one active gradient g and no equalities the optimum is closed-form
    (eps* = ||g||_1, y = -sign(g), dual 1) and no LP is solved.
    eps* > DEFAULT_MARGIN_TOL certifies MFCQ with the optimal (y, eps).
    Otherwise the dual multipliers are normalized onto the simplex and, when
    they reproduce a vanishing combination of gradients to DEFAULT_CERT_TOL,
    the point is a certified failure; a tiny eps* without a clean dual
    witness, or an LP that does not solve, is reported degenerate.
    """
    act, G, H, independent = _prepare(prob, pert, x)
    if not independent:
        return MfcqCertificate(
            verdict=FAILS, active=act, reason="equality gradients linearly dependent"
        )
    k = len(act.indices)
    n = prob.num_vars
    if k == 0:
        return MfcqCertificate(
            verdict=HOLDS, active=act, direction=tuple(0.0 for _ in range(n)), margin=math.inf
        )
    if k == 1 and not H.shape[0]:
        # eps* = ||g||_1 at y = -sign(g) (-1 where g_i = 0, as HiGHS), dual 1
        eps = float(np.sum(np.abs(G[0])))
        y = np.where(G[0] < 0, 1.0, -1.0)
        status = SolveStatus(OPTIMAL, eps, np.append(y, eps), ineq_duals=np.ones(1))
    else:  # variables z = (y, eps)
        E = np.hstack([H, np.zeros((len(H), 1))]) if len(H) else None
        status = solve_lp(LpProblem(
            c=np.append(np.zeros(n), 1.0), A=np.hstack([G, np.ones((k, 1))]), b=np.zeros(k),
            E=E, d=np.zeros(len(H)) if len(H) else None, lo=np.append(-np.ones(n), -np.inf),
            hi=np.append(np.ones(n), np.inf), maximize=True,
        ))
    if status.status != OPTIMAL:
        return MfcqCertificate(
            verdict=DEGENERATE, active=act, reason=f"MFCQ LP did not solve: {status.status}"
        )
    eps = float(status.objective)
    y = status.x[:n]
    if eps > DEFAULT_MARGIN_TOL:
        return MfcqCertificate(verdict=HOLDS, active=act, direction=tuple(y), margin=eps)
    lam = np.maximum(np.asarray(status.ineq_duals, dtype=float), 0.0)
    total = lam.sum()
    lam = lam / total if total > 0 else np.full(k, 1.0 / k)
    w = G.T @ lam
    kappa, resid = _fit_kappa(H, w)
    verdict = FAILS if resid <= DEFAULT_CERT_TOL else DEGENERATE
    return MfcqCertificate(
        verdict=verdict,
        active=act,
        direction=tuple(y),
        margin=eps,
        multipliers=tuple(lam),
        kappa=tuple(kappa),
        hull_distance=resid,
    )


def check_mfcq_hull(prob: ProblemInstance, pert: PerturbationSpec, x) -> MfcqCertificate:
    """Convex-hull formulation: distance from span{grad h} to the hull of the
    active gradients.  Equality directions are eliminated by orthogonal
    projection; with tol = DEFAULT_CERT_TOL the verdict is Fails when the
    minimized distance is <= tol, Degenerate inside (tol, DEGENERATE_BAND*tol],
    Holds beyond, and Degenerate when the distance QP does not converge.
    """
    act, G, H, independent = _prepare(prob, pert, x)
    if not independent:
        return MfcqCertificate(
            verdict=FAILS, active=act, reason="equality gradients linearly dependent"
        )
    k = len(act.indices)
    if k == 0:
        return MfcqCertificate(verdict=HOLDS, active=act, hull_distance=math.inf)
    if H.shape[0]:
        # orthonormal basis of span{grad h}; project gradients onto complement
        Qb, _ = np.linalg.qr(H.T)
        Gp = G - (G @ Qb) @ Qb.T
    else:
        Gp = G
    # min ||Gp' lam||^2 over the unit simplex; multipliers below
    # -1e-13 * max|2 M| are beyond the roundoff of the gradient 2 M lam
    M = Gp @ Gp.T
    qp = minimize_simplex_qp(2.0 * M, np.zeros(k), 1.0, tol=2e-13 * float(np.max(np.abs(M))))
    if qp.status != OPTIMAL:
        return MfcqCertificate(
            verdict=DEGENERATE, active=act, reason="hull QP did not converge"
        )
    lam = qp.x
    dist = float(np.linalg.norm(Gp.T @ lam))
    w = G.T @ lam
    kappa, _ = _fit_kappa(H, w - Gp.T @ lam)
    if dist <= DEFAULT_CERT_TOL:
        verdict = FAILS
    elif dist <= DEGENERATE_BAND * DEFAULT_CERT_TOL:
        verdict = DEGENERATE
    else:
        verdict = HOLDS
    return MfcqCertificate(
        verdict=verdict,
        active=act,
        multipliers=tuple(lam),
        kappa=tuple(kappa),
        hull_distance=dist,
    )


# ---------------------------------------------------------------------------
# boundary sweep
# ---------------------------------------------------------------------------


@dataclass
class SweepConfig:
    samples: int = 1000
    seed: int = 0
    extra_points: tuple = ()  # user probe points certified alongside samples


@dataclass
class SweepRow:
    sample_id: int
    x: tuple[float, ...]
    certificate: MfcqCertificate


@dataclass
class SweepResult:
    status: str  # "ok" | "infeasible"
    rows: list[SweepRow] = field(default_factory=list)

    @property
    def worst_margin(self) -> float:
        """Smallest certificate measure over the rows; inf without rows."""
        return min((row.certificate.measure for row in self.rows), default=math.inf)

    @property
    def verdicts(self) -> dict:
        out = {HOLDS: 0, FAILS: 0, DEGENERATE: 0}
        for row in self.rows:
            out[row.certificate.verdict] += 1
        return out

    @property
    def all_hold(self) -> bool:
        counts = self.verdicts
        return counts[FAILS] == 0 and counts[DEGENERATE] == 0 and bool(self.rows)


def _find_interior_point(prob, b, rng) -> np.ndarray | None:
    box = prob.box_array()
    best, best_val = None, 0.0
    batch = 512
    done = 0
    while done < INTERIOR_ATTEMPTS:
        pts = rng.uniform(box[:, 0], box[:, 1], size=(batch, prob.num_vars))
        vals = _max_violation(prob, b, pts)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best, best_val = pts[i], float(vals[i])
        if best_val < -1e-6:
            return best
        done += batch
    return best if best_val < -1e-9 else None


def sweep_mfcq(
    prob: ProblemInstance,
    pert: PerturbationSpec,
    config: SweepConfig | None = None,
) -> SweepResult:
    """Certify MFCQ at sampled boundary points of the perturbed feasible set.

    Points are generated by shooting random rays from a strictly feasible
    interior point and bisecting to the feasibility boundary; rays that exit
    the sample box while still feasible are discarded (no constraint is
    active there).  The boundary points (ids 0..samples-1) and then the
    feasible probe points (id samples + j for extra_points[j]) are certified
    by check_mfcq_lp.  Equality-constrained problems are not swept.
    """
    if prob.equalities:
        raise ValueError("sweep_mfcq supports inequality-only problems")
    config = config or SweepConfig()
    if config.samples < 1:
        raise ValueError("samples must be at least 1")
    rng = np.random.default_rng(config.seed)
    b = pert.bounds(prob)
    box = prob.box_array()

    x0 = _find_interior_point(prob, b, rng)
    if x0 is None:
        return SweepResult(status="infeasible")

    span = float(np.max(box[:, 1] - box[:, 0]))
    points: list[np.ndarray] = []  # boundary samples; sample id = position
    attempts = 0
    while len(points) < config.samples and attempts < 20 * config.samples:
        batch = min(max(256, config.samples), config.samples - len(points) + 64)
        attempts += batch
        dirs = rng.normal(size=(batch, prob.num_vars))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        # expand each ray until it leaves feasibility or the box
        t_lo = np.zeros(batch)
        t = np.full(batch, 0.25 * span)
        t_hi = np.full(batch, np.nan)
        alive = np.ones(batch, dtype=bool)
        for _ in range(60):
            if not alive.any():
                break
            pts = x0 + t[:, None] * dirs
            inbox = np.all((pts >= box[:, 0]) & (pts <= box[:, 1]), axis=1)
            infeasible = _max_violation(prob, b, pts) > 0
            hit = alive & inbox & infeasible
            t_hi[hit] = t[hit]
            alive &= inbox & ~infeasible  # rays exiting the box are dropped
            t_lo[alive] = t[alive]
            t[alive] *= 2.0
        keep = ~np.isnan(t_hi)
        t_lo, t_hi, dirs = t_lo[keep], t_hi[keep], dirs[keep]
        for _ in range(BISECT_ITERS):
            mid = 0.5 * (t_lo + t_hi)
            bad = _max_violation(prob, b, x0 + mid[:, None] * dirs) > 0
            t_hi = np.where(bad, mid, t_hi)
            t_lo = np.where(bad, t_lo, mid)
        points.extend((x0 + t_lo[:, None] * dirs)[: config.samples - len(points)])

    labelled = list(enumerate(points))
    for j, pt in enumerate(config.extra_points):
        pt = _check_point(prob, pt)
        if _max_violation(prob, b, pt[None, :])[0] > DEFAULT_ACTIVE_TOL:
            continue  # an infeasible probe is dropped; its sample id stays unused
        labelled.append((config.samples + j, pt))
    rows = [
        SweepRow(sample_id=i, x=tuple(pt), certificate=check_mfcq_lp(prob, pert, pt))
        for i, pt in labelled
    ]
    return SweepResult(status="ok", rows=rows)


def write_sweep_csv(result: SweepResult, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "x", "verdict", "margin_or_distance", "active_indices"])
        for row in result.rows:
            cert = row.certificate
            value = cert.margin if cert.verdict == HOLDS else cert.hull_distance
            writer.writerow(
                [
                    row.sample_id,
                    " ".join(f"{v:.17g}" for v in row.x),
                    cert.verdict,
                    "" if value is None else f"{value:.17g}",
                    " ".join(str(i) for i in cert.active.indices),
                ]
            )
