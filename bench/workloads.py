"""The benchmark's workloads, their correctness gates and the traced calls.

Each workload is closed-loop: one caller issues one library call at a time
from one process.  A workload turns the benchmark seed into inputs
(``make_input``), runs them through the public API (``run``, the timed
part) and checks the output against a closed-form oracle (``check``).
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from benchstats import digest, rounded

ROOT = Path(__file__).resolve().parent.parent


def load_library():
    """Import ``perturbcq`` from this checkout's ``src`` directory.

    Raises FileNotFoundError when the checkout holds no library source, so
    that an installed copy elsewhere is never measured by mistake.
    """
    src = ROOT / "src"
    init = src / "perturbcq" / "__init__.py"
    if not init.is_file():
        raise FileNotFoundError(f"library source not found at {init}")
    sys.path.insert(0, str(src))
    import perturbcq
    import perturbcq.convexsolve
    import perturbcq.esqm
    import perturbcq.model
    import perturbcq.poly
    import perturbcq.qualification
    import perturbcq.scanner

    if Path(perturbcq.__file__).resolve() != init.resolve():
        raise ImportError(f"perturbcq imported from {perturbcq.__file__}, not {init}")
    return perturbcq


def rep_seed(seed: int, rep: int) -> int:
    """Library seed for repetition ``rep`` of a run started with ``seed``."""
    return int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])


@dataclass
class Outcome:
    """Checked result of one repetition."""

    attempted: int
    failed: int
    work: int
    digest: str


# ---------------------------------------------------------------------------
# failure counting (the fail_ratio definitions)
# ---------------------------------------------------------------------------


def scan_failures(found, oracle, tol: float = 1e-6) -> tuple[int, int]:
    """(attempted, failed) for a level scan: every oracle level that was
    missed and every reported level matching no unclaimed oracle level
    fails; the spurious levels also count as attempted."""
    claimed = set()
    spurious = 0
    for value in found:
        dists = [abs(value - o) for o in oracle]
        best = int(np.argmin(dists)) if dists else -1
        if best >= 0 and dists[best] <= tol and best not in claimed:
            claimed.add(best)
        else:
            spurious += 1
    missed = len(oracle) - len(claimed)
    return len(oracle) + spurious, missed + spurious


def sweep_failures(requested: int, verdict_pairs) -> tuple[int, int]:
    """(attempted, failed) for sweeps: a requested point that was not
    produced, or whose LP verdict is not holds, or whose hull verdict
    disagrees with the LP verdict, fails."""
    pairs = list(verdict_pairs)
    bad = sum(1 for lp, hull in pairs if lp != "holds" or hull != lp)
    return requested, max(requested - len(pairs), 0) + bad


def homotopy_failures(schedule, levels, tol: float = 1e-4) -> tuple[int, int]:
    """(attempted, failed) for a homotopy: a scheduled level that is
    missing, did not converge, or whose value is off -alpha^(1/3) by more
    than ``tol`` fails.  ``levels`` holds (alpha, value, status) triples."""
    bad = sum(
        1
        for alpha, value, status in levels
        if status != "converged" or not abs(value + alpha ** (1.0 / 3.0)) <= tol
    )
    return len(schedule), max(len(schedule) - len(levels), 0) + bad


def ball_box_levels(a) -> list[float]:
    """Closed-form singular levels of ``ball_box``: 4n - sum_{i in F}
    (v_i - a_i)^2 over every nonempty face F of the unit cube with signs v."""
    n = len(a)
    return sorted(
        4.0 * n - sum((v - ai) ** 2 for v, ai in zip(pattern, a) if v)
        for pattern in itertools.product((-1, 0, 1), repeat=n)
        if any(pattern)
    )


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class ScanBallBox3:
    """Batched path: polynomial batch evaluation and the LM loop."""

    name = "scan_ball_box3"
    a = (0.4, 0.2, -0.3)
    window = (0.0, 12.0)
    starts = 300
    operations = 26  # oracle levels
    work_unit = "LM starts"

    def setup(self, pq):
        return {"prob": pq.model.catalog("ball_box", n=3, a=self.a)}

    def make_input(self, seed: int):
        return seed

    def run(self, pq, ctx, seed):
        return pq.scanner.scan_singular(ctx["prob"], self.window, starts=self.starts, seed=seed)

    def check(self, ctx, seed, report) -> Outcome:
        oracle = ball_box_levels(self.a)
        attempted, failed = scan_failures(report.alphas, oracle)
        # activity patterns (K, L): each index is in K, in L only, or in
        # neither, and K holds at least one perturbable index
        m, p = len(ctx["prob"].inequalities), len(ctx["prob"].perturbable)
        patterns = 3**m - 2**p * 3 ** (m - p)
        return Outcome(
            attempted=attempted,
            failed=failed,
            work=patterns * self.starts,
            digest=digest([rounded(v, 7) for v in report.alphas]),
        )


class SweepCusp:
    """Single-point certificate path: one LP and one hull QP per point."""

    name = "sweep_cusp"
    alphas = (0.1, -0.1)
    samples = 1000
    operations = 2000  # requested points
    work_unit = "certificates"

    def setup(self, pq):
        return {"prob": pq.model.catalog("cusp")}

    def make_input(self, seed: int):
        return seed

    def run(self, pq, ctx, seed):
        qual = pq.qualification
        out = []
        for alpha in self.alphas:
            pert = pq.model.PerturbationSpec.diagonal(alpha)
            res = qual.sweep_mfcq(ctx["prob"], pert, qual.SweepConfig(samples=self.samples, seed=seed))
            hull = [qual.check_mfcq_hull(ctx["prob"], pert, row.x) for row in res.rows]
            out.append((res, hull))
        return out

    def check(self, ctx, seed, output) -> Outcome:
        pairs = [
            (row.certificate.verdict, h.verdict)
            for res, hull in output
            for row, h in zip(res.rows, hull)
        ]
        attempted, failed = sweep_failures(self.samples * len(self.alphas), pairs)
        return Outcome(
            attempted=attempted,
            failed=failed,
            work=2 * len(pairs),
            digest=digest([list(p) for p in pairs]),
        )


class HomotopyCuspBoxed:
    """Sequential small-dense path: capped-simplex QPs and single-point
    evaluation along the ESQM iteration."""

    name = "homotopy_cusp_boxed"
    decades = (1, 2, 3, 4, 5)
    jitter = (0.8, 1.25)
    operations = 5  # levels
    work_unit = "levels"

    def setup(self, pq):
        prob = pq.model.catalog("cusp_boxed")
        f = -1.0 * pq.poly.Polynomial.variable(2, 0)
        L_obj, L_con = pq.esqm.estimate_lipschitz(prob)
        template = pq.esqm.EsqmParams(
            alpha=0.1,
            beta0=10.0,
            delta=1.0,
            curvature_obj=max(L_obj, 1.0),
            curvature_con=max(L_con),
            max_iter=2000,
        )
        return {"prob": prob, "f": f, "template": template}

    def make_input(self, seed: int):
        rng = np.random.default_rng(seed)
        lo, hi = math.log(self.jitter[0]), math.log(self.jitter[1])
        return [10.0 ** -k * math.exp(rng.uniform(lo, hi)) for k in self.decades]

    def run(self, pq, ctx, schedule):
        return pq.esqm.homotopy_run(ctx["prob"], ctx["f"], schedule, ctx["template"])

    def check(self, ctx, schedule, trace) -> Outcome:
        levels = [(lvl.alpha, lvl.value, lvl.status) for lvl in trace.levels]
        attempted, failed = homotopy_failures(schedule, levels)
        return Outcome(
            attempted=attempted,
            failed=failed,
            work=len(levels),
            digest=digest([[rounded(v, 8), s] for _, v, s in levels]),
        )


WORKLOADS = {w.name: w for w in (ScanBallBox3(), SweepCusp(), HomotopyCuspBoxed())}


# ---------------------------------------------------------------------------
# traced library calls: (span name, module, attribute, counter hook)
# ---------------------------------------------------------------------------


def _arg(args, kwargs, pos, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _rows(args, kwargs, result):
    yield "rows", np.shape(args[1])[0]


def _points(args, kwargs, result):
    yield "points", np.shape(args[1])[0]


def _nonoptimal(args, kwargs, result):
    yield "nonoptimal", int(result.status != "optimal")


def _multistart(args, kwargs, result):
    yield "starts", _arg(args, kwargs, 2, "starts")
    yield "witnesses", len(result)


def _sweep(args, kwargs, result):
    config = _arg(args, kwargs, 2, "config")
    yield "requested", config.samples if config is not None else 1000
    yield "produced", len(result.rows)


def _esqm_run(args, kwargs, result):
    yield "runs", 1
    yield "retries", result.retries
    yield "converged", int(result.converged)


TRACE_TARGETS = (
    ("poly.evaluate", "poly", "Polynomial.evaluate", None),
    ("poly.evaluate_many", "poly", "Polynomial.evaluate_many", _points),
    ("poly.derivative", "poly", "Polynomial.derivative", None),
    ("model.active_set", "model", "active_set", None),
    ("scanner.scan_singular", "scanner", "scan_singular", None),
    ("scanner.solve_system_multistart", "scanner", "solve_system_multistart", _multistart),
    ("scanner.residual_batch", "scanner", "SingularSystem.residual_batch", _rows),
    ("scanner.jacobian_batch", "scanner", "SingularSystem.jacobian_batch", _rows),
    ("qualification.sweep_mfcq", "qualification", "sweep_mfcq", _sweep),
    ("qualification.check_mfcq_lp", "qualification", "check_mfcq_lp", None),
    ("qualification.check_mfcq_hull", "qualification", "check_mfcq_hull", None),
    ("convexsolve.solve_lp", "convexsolve", "solve_lp", _nonoptimal),
    ("convexsolve.linprog", "convexsolve", "linprog", None),
    ("convexsolve.solve_capped_simplex_qp", "convexsolve", "solve_capped_simplex_qp", _nonoptimal),
    ("convexsolve.project_capped_simplex", "convexsolve", "project_capped_simplex", None),
    ("convexsolve.project_simplex", "convexsolve", "project_simplex", None),
    ("esqm.homotopy_run", "esqm", "homotopy_run", None),
    ("esqm.run_esqm", "esqm", "run_esqm", _esqm_run),
    ("esqm.esqm_step", "esqm", "esqm_step", None),
    ("esqm.kkt_residual", "esqm", "kkt_residual", None),
)

# counters reported per repetition next to the span times
TRACE_COUNTERS = (
    "poly.evaluate_many.points",
    "scanner.residual_batch.rows",
    "scanner.jacobian_batch.rows",
    "qualification.check_mfcq_lp.errors",
    "convexsolve.solve_lp.nonoptimal",
    "convexsolve.solve_capped_simplex_qp.nonoptimal",
    "esqm.run_esqm.retries",
)

# useful outcomes over attempts, summed over the traced repetitions:
# (metric, numerator counter, denominator counter)
TRACE_RATIOS = (
    ("scanner.witness_yield", "scanner.solve_system_multistart.witnesses",
     "scanner.solve_system_multistart.starts"),
    ("qualification.sweep_yield", "qualification.sweep_mfcq.produced",
     "qualification.sweep_mfcq.requested"),
    ("esqm.converged_ratio", "esqm.run_esqm.converged", "esqm.run_esqm.runs"),
)
