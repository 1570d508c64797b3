"""Qualification analysis of perturbed polynomial constraint sets.

Certify the Mangasarian-Fromovitz condition pointwise, enumerate the singular
diagonal perturbation levels of a constraint system with certified witnesses,
bound their number from the polynomial degrees, and solve the perturbed
problems with a penalized sequential quadratic method driven along a
homotopy in the perturbation level.
"""

from .convexsolve import (
    LpProblem,
    SolveStatus,
    solve_lp,
)
from .esqm import (
    EsqmParams,
    EsqmTrace,
    HomotopyLevel,
    HomotopyTrace,
    esqm_step,
    estimate_lipschitz,
    homotopy_run,
    kkt_residual,
    run_esqm,
)
from .model import (
    ActiveSet,
    FeasibleSet1D,
    PerturbationSpec,
    ProblemInstance,
    active_set,
    catalog,
    feasibility_residual,
    parse_problem,
    univariate_feasible_intervals,
)
from .poly import Monomial, Polynomial, univariate_real_roots
from .qualification import (
    MfcqCertificate,
    SweepConfig,
    SweepResult,
    SweepStats,
    check_mfcq_hull,
    check_mfcq_lp,
    equality_gradients_independent,
    sweep_mfcq,
)
from .scanner import (
    ScanReport,
    SingularSystem,
    SingularWitness,
    analytic_singulars_ball_box,
    analytic_singulars_grid,
    milnor_thom_bound,
    scan_singular,
    solve_system_multistart,
)

__version__ = "0.1.0"

__all__ = [
    "Monomial",
    "Polynomial",
    "univariate_real_roots",
    "ProblemInstance",
    "PerturbationSpec",
    "ActiveSet",
    "FeasibleSet1D",
    "feasibility_residual",
    "active_set",
    "catalog",
    "univariate_feasible_intervals",
    "LpProblem",
    "SolveStatus",
    "solve_lp",
    "MfcqCertificate",
    "SweepConfig",
    "SweepResult",
    "SweepStats",
    "equality_gradients_independent",
    "check_mfcq_lp",
    "check_mfcq_hull",
    "sweep_mfcq",
    "SingularSystem",
    "SingularWitness",
    "ScanReport",
    "milnor_thom_bound",
    "solve_system_multistart",
    "scan_singular",
    "analytic_singulars_ball_box",
    "analytic_singulars_grid",
    "EsqmParams",
    "EsqmTrace",
    "HomotopyLevel",
    "HomotopyTrace",
    "estimate_lipschitz",
    "esqm_step",
    "run_esqm",
    "kkt_residual",
    "homotopy_run",
    "parse_problem",
]
