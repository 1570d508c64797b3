"""Enumeration of singular diagonal perturbation levels.

A level alpha is singular when some feasible point of the perturbed set
admits a vanishing convex combination of active inequality gradients (modulo
the span of equality gradients).  For each of the 2^m candidate supports K of
the combination, the witness equations form a square polynomial system in
(x, lambda, kappa, alpha), solved by multi-start Levenberg-Marquardt; the full
active set L of a root is read off its point.  Closed-form oracles are given
for the ball-with-box and grid-of-boxes catalog families, together with the
degree-based upper bound on the number of singular levels.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .model import PerturbationSpec, ProblemInstance, active_set
from .poly import Family

__all__ = [
    "SingularSystem",
    "SingularWitness",
    "ScanReport",
    "milnor_thom_bound",
    "solve_system_multistart",
    "scan_singular",
    "analytic_singulars_ball_box",
    "analytic_singulars_grid",
]

RESIDUAL_TOL = 1e-10     # acceptance threshold for a raw multi-start solution
WITNESS_RESIDUAL = 1e-8  # every reported witness must re-verify below this
LAMBDA_MIN = 1e-10       # strict-positivity margin on the weights
SIGMA_SLACK = 1e-9       # strict-slack margin on constraints outside L
DEDUP_TOL = 1e-6         # alpha clustering width
WINDOW_EDGE = 1e-9       # scan windows are open: edges excluded by this margin
PATTERN_GUARD = 12       # refuse support enumeration beyond 2^12 supports


def milnor_thom_bound(n: int, m: int, d: int, r: int = 0) -> int:
    """Upper bound d*(2d-1)^(n+r)*(2d+1)^m on the number of singular levels
    of a system of m inequalities and r equalities of degree <= d in n
    variables.  Exact integer arithmetic."""
    if n < 1 or m < 1 or d < 1 or r < 0:
        raise ValueError("need n >= 1, m >= 1, d >= 1, r >= 0")
    return d * (2 * d - 1) ** (n + r) * (2 * d + 1) ** m


@dataclass(frozen=True)
class SingularWitness:
    """A certified solution of the witness system for pattern (K, L):
    the constraints in L are active at x under level alpha, and the gradients
    indexed by K admit the vanishing combination with weights lam (and
    equality coefficients kappa)."""

    alpha: float
    x: tuple[float, ...]
    lam: tuple[float, ...]
    kappa: tuple[float, ...]
    K: tuple[int, ...]
    L: tuple[int, ...]
    residual_norm: float
    side_conditions_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "x": list(self.x),
            "lambda": list(self.lam),
            "kappa": list(self.kappa),
            "K": list(self.K),
            "L": list(self.L),
            "residual_norm": self.residual_norm,
            "side_conditions_ok": self.side_conditions_ok,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SingularWitness":
        return cls(
            alpha=float(data["alpha"]),
            x=tuple(data["x"]),
            lam=tuple(data["lambda"]),
            kappa=tuple(data["kappa"]),
            K=tuple(data["K"]),
            L=tuple(data["L"]),
            residual_norm=float(data["residual_norm"]),
            side_conditions_ok=bool(data["side_conditions_ok"]),
        )


class SingularSystem:
    """Witness equations for one activity pattern and their linearization.

    Unknowns z = (x, lam_K, kappa, alpha), in that order.  Rows:
      [0, n)            sum_{i in K} lam_i grad g_i(x) - sum_j kappa_j grad h_j(x)
      [n]               sum lam_i - 1
      [n+1, n+1+|L|)    g_j(x) - alpha for perturbable j in L, g_j(x) otherwise
      trailing r rows   h_j(x)
    Since K is a subset of L, one order-2 family of [g_L, h] gives every
    residual row and every derivative, so a batch of unknown vectors is
    linearized by one evaluation; the stationarity rows pick the gradients
    and Hessians of [g_K, h] out of it by index.
    """

    def __init__(self, prob: ProblemInstance, K, L):
        K = tuple(sorted(set(int(i) for i in K)))
        L = tuple(sorted(set(int(j) for j in L)))
        m = len(prob.inequalities)
        if not K or any(i < 0 or i >= m for i in K):
            raise ValueError("K must be a nonempty subset of the inequality indices")
        if not set(K) <= set(L) or any(j < 0 or j >= m for j in L):
            raise ValueError("L must contain K and stay within the inequality indices")
        pert = set(prob.perturbable)
        if not pert & set(K):
            raise ValueError(
                "K must include a perturbable index; a combination supported on "
                "fixed constraints cannot witness a diagonal singularity"
            )
        self.prob = prob
        self.K = K
        self.L = L
        n = prob.num_vars
        r = len(prob.equalities)
        self.n, self.r = n, r
        self.num_unknowns = n + len(K) + r + 1
        self.num_rows = n + 1 + len(L) + r
        self._L_perturbed = np.array([j in pert for j in L], dtype=bool)
        self._family = Family([*(prob.inequalities[j] for j in L), *prob.equalities], n, 2)
        self._stationary_rows = [L.index(i) for i in K] + list(range(len(L), len(L) + r))
        outside = [j for j in range(m) if j not in L]
        self._outside = Family([prob.inequalities[j] for j in outside], n)
        self._outside_perturbed = np.array([j in pert for j in outside], dtype=bool)

    def linearize_batch(self, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residuals (S, num_rows) and Jacobians (S, num_rows, num_unknowns)
        at a batch of unknown vectors Z (S, num_unknowns)."""
        n, k, r, L = self.n, len(self.K), self.r, len(self.L)
        S = Z.shape[0]
        Lam, Kap, Alpha = Z[:, n : n + k], Z[:, n + k : n + k + r], Z[:, -1]
        weights = np.hstack([Lam, -Kap])
        values, grads, hess = self._family(Z[:, :n])
        stationary = grads[:, self._stationary_rows]
        F = np.empty((S, self.num_rows))
        F[:, :n] = np.einsum("sk,skn->sn", weights, stationary)
        F[:, n] = Lam.sum(axis=1) - 1.0
        F[:, n + 1 :] = values
        F[:, n + 1 : n + 1 + L] -= np.where(self._L_perturbed, Alpha[:, None], 0.0)
        J = np.zeros((S, self.num_rows, self.num_unknowns))
        J[:, :n, :n] = np.einsum("sk,skij->sij", weights, hess[:, self._stationary_rows])
        J[:, :n, n : n + k] = np.swapaxes(stationary[:, :k], 1, 2)
        J[:, :n, n + k : -1] = -np.swapaxes(stationary[:, k:], 1, 2)
        J[:, n, n : n + k] = 1.0
        J[:, n + 1 :, :n] = grads
        J[:, n + 1 : n + 1 + L, -1] = np.where(self._L_perturbed, -1.0, 0.0)
        return F, J

    def residual(self, x, lam, kappa, alpha) -> np.ndarray:
        z = np.concatenate(
            [np.atleast_1d(np.asarray(v, dtype=float)).ravel() for v in (x, lam, kappa, [alpha])]
        )
        return self.linearize_batch(z[None, :])[0][0]


def _levenberg_marquardt(system: SingularSystem, Z0: np.ndarray,
                         max_iter: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Damped least-squares iteration on a batch of starts; returns the final
    batch and its residual 2-norms.

    Each iteration steps and linearizes only the live starts.  A start leaves
    the live set once it has stalled (nu >= 1e8), or once its residual is
    within RESIDUAL_TOL and its last trial step was rejected: a start is
    polished until no step improves it, not stopped on first reaching the
    tolerance.  Every start keeps the residual and Jacobian of its accepted
    point for its next step."""
    Z = np.array(Z0, dtype=float)
    S, p = Z.shape
    nu = np.full(S, 1e-3)
    rejected = np.zeros(S, dtype=bool)
    F, J = system.linearize_batch(Z)
    fsq = np.einsum("sr,sr->s", F, F)
    eye = np.eye(p)
    live = np.arange(S)
    for _ in range(max_iter):
        live = live[(nu[live] < 1e8) & ((fsq[live] > RESIDUAL_TOL**2) | ~rejected[live])]
        if not live.size:
            break
        Jl = J[live]
        Jt = np.swapaxes(Jl, 1, 2)
        JtJ = Jt @ Jl
        # damping below the rounding level of J'J would leave A singular in
        # floating point wherever J is rank deficient
        damping = np.maximum(nu[live], 1e-12 * JtJ.diagonal(axis1=1, axis2=2).max(axis=1))
        A = JtJ + damping[:, None, None] * eye
        delta = np.linalg.solve(A, Jt @ F[live, :, None])[:, :, 0]
        Znew = Z[live] - delta
        Fnew, Jnew = system.linearize_batch(Znew)
        fnew = np.einsum("sr,sr->s", Fnew, Fnew)
        better = fnew < fsq[live]
        moved = live[better]
        Z[moved] = Znew[better]
        F[moved] = Fnew[better]
        J[moved] = Jnew[better]
        fsq[moved] = fnew[better]
        rejected[live] = ~better
        nu[live] = np.clip(np.where(better, nu[live] / 3.0, nu[live] * 2.0), 1e-14, 1e9)
    return Z, np.sqrt(np.maximum(fsq, 0.0))


def _random_starts(system: SingularSystem, window, starts: int, rng) -> np.ndarray:
    box = system.prob.box_array()
    n, k, r = system.n, len(system.K), system.r
    X = rng.uniform(box[:, 0], box[:, 1], size=(starts, n))
    Lam = rng.dirichlet(np.ones(k), size=starts)
    Kap = rng.normal(size=(starts, r)) if r else np.zeros((starts, 0))
    Alpha = rng.uniform(window[0], window[1], size=(starts, 1))
    return np.hstack([X, Lam, Kap, Alpha])


def _classify(system: SingularSystem, Z: np.ndarray, resids: np.ndarray,
              window) -> list[SingularWitness]:
    """Turn a batch of converged vectors into witnesses, in batch order.

    Drops residual failures, out-of-window alpha (the window is open), points
    escaping the sample box by more than 1e-6 of its widest side, and clearly
    violated side conditions; borderline side conditions yield a witness
    flagged not-ok.  The constraints outside L are evaluated once, at every
    root that passes the first three rules."""
    n, k, r = system.n, len(system.K), system.r
    X, Alpha = Z[:, :n], Z[:, -1]
    box = system.prob.box_array()
    slack = 1e-6 * float(np.max(np.diff(box, axis=1)))
    escaped = np.any((X < box[:, 0] - slack) | (X > box[:, 1] + slack), axis=1)
    keep = np.flatnonzero(
        (resids <= RESIDUAL_TOL)
        & (window[0] + WINDOW_EDGE < Alpha) & (Alpha < window[1] - WINDOW_EDGE)
        & ~escaped
    )
    bounds = np.where(system._outside_perturbed, Alpha[keep, None], 0.0)
    sigma = np.min(bounds - system._outside(X[keep])[0], axis=1, initial=math.inf)
    lam_min = Z[keep, n : n + k].min(axis=1)
    sound = ~((lam_min < -1e-7) | (sigma < -1e-7))
    ok = (lam_min >= LAMBDA_MIN) & (sigma >= SIGMA_SLACK)
    return [
        SingularWitness(
            alpha=float(Z[i, -1]),
            x=tuple(Z[i, :n]),
            lam=tuple(Z[i, n : n + k]),
            kappa=tuple(Z[i, n + k : n + k + r]),
            K=system.K,
            L=system.L,
            residual_norm=float(resids[i]),
            side_conditions_ok=bool(i_ok),
        )
        for i, i_ok in zip(keep[sound], ok[sound])
    ]


def solve_system_multistart(
    system: SingularSystem, window, starts: int, seed
) -> list[SingularWitness]:
    """Solve one witness system from `starts` random initial points.

    Returns the surviving solutions (window-interior, in-box, residual below
    tolerance) in start order; strict side conditions are recorded in
    side_conditions_ok.  An empty list is a valid outcome."""
    Z0 = _random_starts(system, window, starts, np.random.default_rng(seed))
    return _classify(system, *_levenberg_marquardt(system, Z0), window)


@dataclass
class ScanReport:
    """Deduplicated singular levels found in a window, with witnesses."""

    problem: str
    window: tuple[float, float]
    singular_values: list[SingularWitness]
    uncertain: list[SingularWitness]
    bound: int
    starts_used: int
    seed: int

    @property
    def alphas(self) -> list[float]:
        return [w.alpha for w in self.singular_values]

    def to_json_dict(self) -> dict:
        return {
            "problem": self.problem,
            "window": list(self.window),
            "singular_values": [w.to_json_dict() for w in self.singular_values],
            "uncertain": [w.to_json_dict() for w in self.uncertain],
            "bound": self.bound,
            "starts_used": self.starts_used,
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ScanReport":
        return cls(
            problem=data["problem"],
            window=tuple(data["window"]),
            singular_values=[SingularWitness.from_json_dict(w) for w in data["singular_values"]],
            uncertain=[SingularWitness.from_json_dict(w) for w in data["uncertain"]],
            bound=int(data["bound"]),
            starts_used=int(data["starts_used"]),
            seed=int(data["seed"]),
        )

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["alpha", "K", "L", "residual", "x"])
            for w in self.singular_values:
                writer.writerow(
                    [
                        f"{w.alpha:.17g}",
                        " ".join(map(str, w.K)),
                        " ".join(map(str, w.L)),
                        f"{w.residual_norm:.3e}",
                        " ".join(f"{v:.17g}" for v in w.x),
                    ]
                )


def _enumerate_supports(prob: ProblemInstance):
    """Yield (K, seed index) for every support K holding a perturbable index.
    Each K reserves 2^(m - |K|) seed slots, one per active set L containing
    it, and draws from the first: the numbering of a scan over all (K, L)."""
    m = len(prob.inequalities)
    pert = set(prob.perturbable)
    index = 0
    for ksize in range(1, m + 1):
        for K in itertools.combinations(range(m), ksize):
            if pert & set(K):
                yield K, index
                index += 2 ** (m - ksize)


def _repolish(prob: ProblemInstance, witness: SingularWitness, K, L,
              window) -> SingularWitness | None:
    """Short LM run from `witness` on (K, L); the result if it re-verifies."""
    system = SingularSystem(prob, K, L)
    z0 = np.concatenate([witness.x, witness.lam, witness.kappa, [witness.alpha]])
    polished = _classify(system, *_levenberg_marquardt(system, z0[None, :], max_iter=30), window)
    return polished[0] if polished and polished[0].side_conditions_ok else None


def _promote(prob: ProblemInstance, witness: SingularWitness, window) -> SingularWitness | None:
    """Re-polish a borderline witness on (K', L'): K' its indices of weight
    at least LAMBDA_MIN, L' the active set at its point; None if it fails."""
    lam = np.array(witness.lam)
    keep = lam >= LAMBDA_MIN
    K = tuple(i for i, k in zip(witness.K, keep) if k)
    if not set(K) & set(prob.perturbable):
        return None
    L = active_set(prob, PerturbationSpec.diagonal(witness.alpha), np.array(witness.x)).indices
    start = replace(witness, lam=tuple(lam[keep] / lam[keep].sum()))
    return _repolish(prob, start, K, L, window)


def scan_singular(prob: ProblemInstance, window, starts: int, seed: int) -> ScanReport:
    """Solve the square witness system of every support K by multi-start,
    and cluster the surviving alpha values.

    The window is treated as open: levels at its edges are not reported.
    Each cluster's best witness is re-polished before being reported.  A
    cluster whose witnesses all sit on a borderline side condition is
    reported if one of them, in residual order, passes `_promote`; otherwise
    it lands in `uncertain` instead of the main list."""
    m = len(prob.inequalities)
    if m > PATTERN_GUARD:
        raise ValueError(
            f"problem has {m} inequalities; support enumeration is limited to "
            f"{PATTERN_GUARD} to keep 2^m supports tractable"
        )
    lo, hi = (float(v) for v in window) if len(window) == 2 else (math.nan, math.nan)
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise ValueError("window must be a finite nondegenerate interval")
    if starts < 1:
        raise ValueError("starts must be at least 1")

    accepted: list[SingularWitness] = []
    borderline: list[SingularWitness] = []
    for K, sys_index in _enumerate_supports(prob):
        system = SingularSystem(prob, K, K)
        seeds = np.random.SeedSequence((seed, sys_index))
        for w in solve_system_multistart(system, (lo, hi), starts, seeds):
            (accepted if w.side_conditions_ok else borderline).append(w)

    def clusters(witnesses: list[SingularWitness]) -> list[list[SingularWitness]]:
        """Alpha runs with gaps <= DEDUP_TOL, each sorted by residual."""
        groups: list[list[SingularWitness]] = []
        for w in sorted(witnesses, key=lambda w: (w.alpha, w.K, w.L)):
            if not groups or w.alpha - groups[-1][-1].alpha > DEDUP_TOL:
                groups.append([])
            groups[-1].append(w)
        return [sorted(g, key=lambda w: w.residual_norm) for g in groups]

    final: list[SingularWitness] = []
    for best, *_ in clusters(accepted):
        final.append(_repolish(prob, best, best.K, best.L, (lo, hi)) or best)
    uncertain: list[SingularWitness] = []
    for group in clusters(borderline):
        if any(abs(group[0].alpha - f.alpha) <= DEDUP_TOL for f in final):
            continue  # duplicates a reported level
        for w in group:
            promoted = _promote(prob, w, (lo, hi))
            if promoted is not None:
                final.append(promoted)
                break
        else:
            uncertain.append(group[0])
    final.sort(key=lambda w: w.alpha)

    bound = milnor_thom_bound(
        prob.num_vars, m, max(1, prob.max_degree()), len(prob.equalities)
    )
    return ScanReport(
        problem=prob.name or "problem",
        window=(lo, hi),
        singular_values=final,
        uncertain=uncertain,
        bound=bound,
        starts_used=starts,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# closed-form oracles for the catalog families
# ---------------------------------------------------------------------------


def _require_distinct(values: list[float], what: str, tol: float = 1e-9) -> list[float]:
    values = sorted(values)
    for a, b in zip(values, values[1:]):
        if b - a <= tol:
            raise ValueError(
                f"{what} produces coincident singular levels ({a} ~ {b}); "
                "choose a generic center a"
            )
    return values


def analytic_singulars_ball_box(n: int, a) -> list[float]:
    """Exact singular levels for the ball-with-box family.

    The shrinking ball of squared radius 4n - alpha is tangent to exactly one
    face of the unit cube per (face subset, sign choice), giving
    alpha = 4n - sum_{i in F} (v_i - a_i)^2 over the 3^n - 1 nonempty faces.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (n,) or np.any(np.abs(a) >= 1):
        raise ValueError("center a must lie in the open unit cube")
    values = []
    for pattern in itertools.product((-1, 0, 1), repeat=n):
        if all(p == 0 for p in pattern):
            continue
        dist_sq = sum((v - ai) ** 2 for v, ai in zip(pattern, a) if v != 0)
        values.append(4.0 * n - dist_sq)
    return _require_distinct(values, "ball_box oracle")


def analytic_singulars_grid(n: int, d: int, a) -> list[float]:
    """Exact singular levels for the grid-of-boxes family.

    Tangency happens only at the outward corners (2*k_i*v_i) of the interval
    grid, one level per (sign vector v, scale vector k):
    alpha = 4*n*d^2 - ||2kv - a||^2, for d^n corners in total.
    """
    if d < 2 or d % 2:
        raise ValueError("d must be an even integer >= 2")
    a = np.asarray(a, dtype=float)
    if a.shape != (n,) or np.any(np.abs(a) >= d):
        raise ValueError("center a must lie in (-d, d)^n")
    values = []
    for v in itertools.product((-1, 1), repeat=n):
        for k in itertools.product(range(1, d // 2 + 1), repeat=n):
            corner = np.array([2 * ki * vi for ki, vi in zip(k, v)], dtype=float)
            values.append(4.0 * n * d * d - float(np.sum((corner - a) ** 2)))
    return _require_distinct(values, "grid_boxes oracle")
