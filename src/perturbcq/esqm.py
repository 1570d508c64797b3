"""Sequential quadratic method with an l-infinity slack penalty, plus a
homotopy driver that tracks the optimal value as the perturbation level
decreases toward zero.

Each iteration linearizes the constraints at the current point, adds a slack
s >= 0 penalized by beta, and proximally regularizes the step; the strongly
concave dual of that subproblem lives on the capped simplex
{mu >= 0, sum(mu) <= beta} and is solved exactly, after which the primal step
is recovered in closed form.  The penalty beta grows by delta whenever the
linearized system is infeasible at the current level.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .convexsolve import OPTIMAL, _slack_embedding, minimize_simplex_qp
from .model import PerturbationSpec, ProblemInstance
from .poly import Family, Polynomial

__all__ = [
    "EsqmParams",
    "EsqmTrace",
    "SubproblemError",
    "HomotopyLevel",
    "HomotopyTrace",
    "estimate_lipschitz",
    "esqm_step",
    "run_esqm",
    "kkt_residual",
    "homotopy_run",
]

FEASIBILITY_TOL = 1e-6  # level reported infeasible beyond this final violation
STEP_TOL = 1e-9  # a run converges once its step is at most this long ...
KKT_TOL = 1e-8  # ... and the KKT residual of the new iterate at most this


class SubproblemError(RuntimeError):
    """The capped-simplex dual of an ESQM step was not solved."""


@dataclass(frozen=True)
class EsqmParams:
    """Tuning knobs of one solver run at a fixed perturbation level alpha:
    the initial penalty beta0, its increment delta, and the step budget
    max_iter (the stopping tolerances are the constants STEP_TOL, KKT_TOL).
    curvature_obj / curvature_con must dominate the gradient Lipschitz
    constants of the objective / constraints on the region traversed; use
    estimate_lipschitz for a sampled bound.
    """

    alpha: float
    beta0: float = 1.0
    delta: float = 1.0
    curvature_obj: float = 1.0
    curvature_con: float = 1.0
    max_iter: int = 500

    def __post_init__(self):
        if self.beta0 <= 0 or self.delta <= 0 or self.max_iter < 1:
            raise ValueError("beta0, delta and max_iter must be positive")
        if self.curvature_obj <= 0 or self.curvature_con <= 0:
            raise ValueError("curvature parameters must be positive")


@dataclass
class EsqmTrace:
    """Per-iteration history of one run; index 0 is the starting point."""

    xs: list = field(default_factory=list)
    slacks: list = field(default_factory=list)
    betas: list = field(default_factory=list)
    multipliers: list = field(default_factory=list)
    kkt_residuals: list = field(default_factory=list)
    objectives: list = field(default_factory=list)
    infeasibilities: list = field(default_factory=list)
    termination: str = ""
    converged: bool = False
    beta0_used: float = float("nan")
    retries: int = 0

    @property
    def x_final(self) -> np.ndarray:
        return np.asarray(self.xs[-1], dtype=float)

    def merit_values(self, f_min: float, alpha: float) -> list[float]:
        """(1/beta_k)(f(x_k) - f_min) + alpha + max(0, worst shifted constraint)
        at each iterate; nonincreasing along a well-configured run."""
        return [
            (obj - f_min) / beta + alpha + infeas
            for obj, beta, infeas in zip(self.objectives, self.betas, self.infeasibilities)
        ]

    def to_json_dict(self) -> dict:
        return {
            "xs": [list(map(float, x)) for x in self.xs],
            "slacks": list(map(float, self.slacks)),
            "betas": list(map(float, self.betas)),
            "multipliers": [list(map(float, m)) for m in self.multipliers],
            "kkt_residuals": list(map(float, self.kkt_residuals)),
            "objectives": list(map(float, self.objectives)),
            "infeasibilities": list(map(float, self.infeasibilities)),
            "termination": self.termination,
            "converged": self.converged,
            "beta0_used": self.beta0_used,
            "retries": self.retries,
        }

    def write_csv(self, path, f_min: float = 0.0, alpha: float = 0.0) -> None:
        merits = self.merit_values(f_min, alpha)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "x", "s", "beta", "kkt_residual", "merit"])
            for k, (x, s, beta, res, merit) in enumerate(
                zip(self.xs, self.slacks, self.betas, self.kkt_residuals, merits)
            ):
                writer.writerow(
                    [k, " ".join(f"{v:.17g}" for v in x), f"{s:.17g}",
                     f"{beta:.17g}", f"{res:.3e}", f"{merit:.17g}"]
                )


def estimate_lipschitz(
    prob: ProblemInstance, box=None, samples: int = 200, seed: int = 0
) -> tuple[float, list[float]]:
    """Sampled gradient-Lipschitz bounds (objective, one per inequality).

    Takes the largest Hessian spectral norm over the box corners plus
    `samples` uniform points, inflated by a 1.5 safety factor.
    """
    box = np.asarray(box if box is not None else prob.box_array(), dtype=float)
    if box.shape != (prob.num_vars, 2) or np.any(box[:, 1] <= box[:, 0]):
        raise ValueError("box must be a nondegenerate interval per variable")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(box[:, 0], box[:, 1], size=(samples, prob.num_vars))
    if prob.num_vars <= 16:
        corners = np.array(list(itertools.product(*box)), dtype=float)
        pts = np.vstack([pts, corners])

    objective = [] if prob.objective is None else [prob.objective]
    hess = Family([*objective, *prob.inequalities], prob.num_vars, 2)(pts)[2]
    eigs = np.linalg.eigvalsh(hess)  # (S, m, n)
    curv = [1.5 * float(w) for w in np.max(np.abs(eigs), axis=(0, 2), initial=0.0)]
    return (curv.pop(0) if objective else 0.0), curv


def _linearize(family, x, bounds):
    """(f(x), grad f(x), g(x) - bounds, Jacobian of g at x) from one
    evaluation of the order-1 family [f, *g] at the point x."""
    values, grads, _ = family(x[None, :])
    return float(values[0, 0]), grads[0, 0], values[0, 1:] - bounds, grads[0, 1:]


def _warm_start(mu_prev, beta_prev, beta_k):
    """The previous step's dual point (mu, slack), slack = beta_prev - sum(mu),
    scaled onto the cap beta_k.  A slack within roundoff of zero (the cap was
    active) is zero, so scaling keeps the previous support exactly."""
    mu_prev = np.asarray(mu_prev, dtype=float)
    slack = beta_prev - mu_prev.sum()
    if abs(slack) <= 1e-12 * beta_prev:
        slack = 0.0
    return np.append(mu_prev, slack) * (beta_k / beta_prev)


def _step(x_k, grad_f, shifted, A, params, beta_k, warm):
    # Q is symmetric negative semidefinite and beta_k > 0 by construction;
    # warm = (mu_prev, beta_prev) starts the dual QP at the previous solution
    rho = params.curvature_obj + beta_k * params.curvature_con
    Q = -(A @ A.T) / rho
    Q = 0.5 * (Q + Q.T)
    q = shifted - A @ grad_f / rho
    x0 = None if warm is None else _warm_start(*warm, beta_k)
    status = minimize_simplex_qp(*_slack_embedding(Q, q), beta_k, tol=1e-10, x0=x0)
    if status.status != OPTIMAL:
        raise SubproblemError(f"subproblem dual did not solve: {status.status}")
    mu = status.x[: len(q)]
    y = x_k - (grad_f + A.T @ mu) / rho
    s = max(0.0, float(np.max(shifted + A @ (y - x_k))))
    return y, s, mu


def _kkt(grad_f, shifted, A, lam) -> float:
    stationarity = float(np.max(np.abs(grad_f + lam @ A)))
    comp = float(np.max(np.abs(lam * shifted))) if len(lam) else 0.0
    feas = float(np.max(np.maximum(shifted, 0.0)))
    return max(stationarity, comp, feas)


def esqm_step(
    prob: ProblemInstance, f: Polynomial, x_k, params: EsqmParams, beta_k: float,
    warm_start=None,
) -> tuple[np.ndarray, float, np.ndarray]:
    """One proximal linearized step at penalty beta_k.

    Solves the slack-penalized subproblem through its capped-simplex dual and
    recovers (next point, optimal slack, multipliers).  The dual QP starts at
    the best vertex, or, given warm_start = (mu_prev, beta_prev), at the
    previous step's multipliers scaled onto the new cap, as every step of a
    run after its first does: step k of a trace is reproduced exactly with
    warm_start = (trace.multipliers[k], trace.betas[k - 1]).  Raises
    SubproblemError when the dual QP is not solved; a run reports that as the
    termination "subproblem_failed".
    """
    if beta_k <= 0:
        raise ValueError("beta_k must be positive")
    x_k = np.asarray(x_k, dtype=float)
    if not np.isfinite(x_k).all():
        raise ValueError("x_k must be finite")
    if warm_start is not None and (
        len(warm_start[0]) != len(prob.inequalities) or not warm_start[1] > 0
    ):
        raise ValueError("warm_start must be (one multiplier per inequality, positive beta)")
    bounds = PerturbationSpec.diagonal(params.alpha).bounds(prob)
    family = Family([f, *prob.inequalities], prob.num_vars, 1)
    _, grad_f, shifted, A = _linearize(family, x_k, bounds)
    return _step(x_k, grad_f, shifted, A, params, beta_k, warm_start)


def kkt_residual(prob: ProblemInstance, f: Polynomial, x, lam,
                 pert: PerturbationSpec) -> float:
    """max of stationarity, complementarity, and feasibility violations at
    (x, lam) for the perturbed problem."""
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    if np.any(lam < 0):
        raise ValueError("multipliers must be nonnegative")
    family = Family([f, *prob.inequalities], prob.num_vars, 1)
    _, grad_f, shifted, A = _linearize(family, x, pert.bounds(prob))
    return _kkt(grad_f, shifted, A, lam)


def _single_run(prob, f, x0, params: EsqmParams) -> EsqmTrace:
    bounds = PerturbationSpec.diagonal(params.alpha).bounds(prob)
    family = Family([f, *prob.inequalities], prob.num_vars, 1)
    x = np.asarray(x0, dtype=float)
    beta = params.beta0
    trace = EsqmTrace(beta0_used=params.beta0)

    def record(x_, s_, beta_, mu_):
        """Append the iterate and return its linearization for the next step."""
        obj, grad_f, shifted, A = _linearize(family, x_, bounds)
        trace.xs.append(tuple(x_))
        trace.slacks.append(float(s_))
        trace.betas.append(float(beta_))
        trace.multipliers.append(tuple(mu_))
        trace.kkt_residuals.append(_kkt(grad_f, shifted, A, mu_))
        trace.objectives.append(obj)
        trace.infeasibilities.append(float(np.max(np.maximum(shifted, 0.0))))
        return grad_f, shifted, A

    lin = record(x, 0.0, beta, np.zeros(len(prob.inequalities)))
    warm = None  # the first step's dual QP starts cold
    for _ in range(params.max_iter):
        try:
            y, s, mu = _step(x, *lin, params, beta, warm)
        except SubproblemError:
            trace.termination = "subproblem_failed"
            return trace
        # penalty update: keep beta only if every linearization at the old
        # point is satisfied at the new point without slack; s is the largest
        # linearized violation, clamped at 0
        step = float(np.linalg.norm(y - x))
        x = y
        beta_next = beta if s <= 1e-12 else beta + params.delta
        lin = record(x, s, beta_next, mu)
        if step <= STEP_TOL and trace.kkt_residuals[-1] <= KKT_TOL:
            trace.termination = "converged"
            trace.converged = True
            return trace
        warm = (mu, beta)
        beta = beta_next
    trace.termination = "max_iter"
    return trace


def run_esqm(prob: ProblemInstance, f: Polynomial | None, x0, params: EsqmParams) -> EsqmTrace:
    """Full solver run at a fixed level.

    The initial penalty must exceed a problem-dependent threshold for the
    iteration to settle; when a run exhausts its budget while the penalty is
    still climbing, it is restarted with beta0 scaled by 10 (up to 3 times).
    A run whose subproblem could not be solved is not restarted.
    """
    if prob.equalities:
        raise ValueError("run_esqm supports inequality-only problems")
    f = f if f is not None else prob.objective
    if f is None:
        raise ValueError("an objective is required")
    if not np.isfinite(np.asarray(x0, dtype=float)).all():
        raise ValueError("x0 must be finite")
    trace = _single_run(prob, f, x0, params)
    retries = 0
    while (
        trace.termination == "max_iter"
        and retries < 3
        and len(trace.betas) >= 2
        and trace.betas[-1] > trace.betas[max(0, len(trace.betas) - 10)]
    ):
        retries += 1
        params = replace(params, beta0=params.beta0 * 10.0)
        trace = _single_run(prob, f, x0, params)
    trace.retries = retries
    return trace


@dataclass
class HomotopyLevel:
    alpha: float
    x: tuple[float, ...]
    value: float
    status: str  # "converged" | "stalled" | "infeasible" | "subproblem_failed"
    trace: EsqmTrace


@dataclass
class HomotopyTrace:
    levels: list[HomotopyLevel] = field(default_factory=list)

    @property
    def values(self) -> list[float]:
        return [lvl.value for lvl in self.levels]

    def to_json_dict(self) -> dict:
        return {
            "levels": [
                {
                    "alpha": lvl.alpha,
                    "x": list(lvl.x),
                    "value": lvl.value,
                    "status": lvl.status,
                    "trace": lvl.trace.to_json_dict(),
                }
                for lvl in self.levels
            ]
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)


def homotopy_run(
    prob: ProblemInstance, f: Polynomial | None, alpha_schedule, params_template: EsqmParams
) -> HomotopyTrace:
    """Solve a strictly decreasing schedule of levels, warm-starting each from
    the previous solution; the penalty resets per level.

    Levels whose run stopped on an unsolved subproblem are flagged
    "subproblem_failed"; levels whose final point stays infeasible are
    flagged "infeasible"; feasible non-converged levels are flagged "stalled"
    (a hint that the level may be a singular one).  Only converged and
    stalled levels warm-start the next one."""
    schedule = [float(a) for a in alpha_schedule]
    if not schedule or any(a <= 0 for a in schedule):
        raise ValueError("schedule must be positive")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly decreasing")

    out = HomotopyTrace()
    x = prob.box_array().mean(axis=1)
    for alpha in schedule:
        params = replace(params_template, alpha=alpha)
        trace = run_esqm(prob, f, x, params)
        xf = trace.x_final
        if trace.termination == "subproblem_failed":
            status = "subproblem_failed"
        elif trace.infeasibilities[-1] > FEASIBILITY_TOL:
            status = "infeasible"
        elif trace.converged:
            status = "converged"
        else:
            status = "stalled"
        out.levels.append(HomotopyLevel(
            alpha=alpha, x=tuple(xf), value=trace.objectives[-1], status=status, trace=trace
        ))
        if status in ("converged", "stalled"):
            x = xf
    return out
