import math

import numpy as np
import pytest

from perturbcq import esqm, poly
from perturbcq.convexsolve import ITER_LIMIT, SolveStatus, minimize_simplex_qp
from perturbcq.esqm import (
    EsqmParams,
    SubproblemError,
    esqm_step,
    estimate_lipschitz,
    homotopy_run,
    kkt_residual,
    run_esqm,
)
from perturbcq.model import PerturbationSpec, ProblemInstance, catalog, feasibility_residual
from perturbcq.poly import Polynomial


def linear_objective(n, coefs):
    out = Polynomial.zero(n)
    for i, c in enumerate(coefs):
        out = out + float(c) * Polynomial.variable(n, i)
    return out


def grid_f_min(prob, f, resolution=200):
    """Crude objective lower bound: dense-grid minimum inflated by 10%."""
    axes = [np.linspace(lo, hi, resolution) for lo, hi in prob.sample_box]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    gmin = float(np.min(f.evaluate_many(pts)))
    return gmin - 0.1 * abs(gmin) - 1e-9


# ---------------------------------------------------------------------------
# curvature estimation
# ---------------------------------------------------------------------------


def test_lipschitz_constant_hessian():
    prob = catalog("ball_box", n=2, a=(0.4, 0.2))
    _, L_con = estimate_lipschitz(prob)
    assert L_con[0] == pytest.approx(3.0, abs=1e-12)  # Hessian -2I, times 1.5
    assert L_con[1] == pytest.approx(3.0, abs=1e-12)


def test_lipschitz_cusp_box():
    prob = catalog("cusp")
    _, L_con = estimate_lipschitz(prob)
    # Hessian diag(6 x1, 0) on the box [-2,1]^2: max norm 12, times 1.5
    assert L_con[0] == pytest.approx(18.0, abs=1e-9)


def test_lipschitz_linear_is_zero():
    prob = catalog("cusp_boxed")
    _, L_con = estimate_lipschitz(prob)
    assert L_con[2] == 0.0


def test_lipschitz_rejects_bad_box():
    prob = catalog("cusp")
    with pytest.raises(ValueError):
        estimate_lipschitz(prob, box=[[0.0, 0.0], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# single step
# ---------------------------------------------------------------------------


def test_step_fixed_point_at_interior_stationary_point():
    prob = catalog("cusp")
    # objective with zero gradient at the strictly feasible point (-1, 0)
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    f = (x1 + 1.0) ** 2 + x2 * x2
    params = EsqmParams(alpha=0.0, curvature_obj=3.0, curvature_con=18.0)
    y, s, mu = esqm_step(prob, f, (-1.0, 0.0), params, beta_k=1.0)
    assert y == pytest.approx([-1.0, 0.0], abs=1e-9)
    assert s == 0.0
    assert mu == pytest.approx([0.0, 0.0], abs=1e-9)


def test_step_matches_brute_force_grid_1d():
    # f = x, g = x <= 0, from x_k = 0 with rho = 1, beta = 1
    x = Polynomial.variable(1, 0)
    prob = ProblemInstance(num_vars=1, inequalities=(x,), sample_box=((-3.0, 3.0),))
    params = EsqmParams(alpha=0.0, curvature_obj=0.5, curvature_con=0.5)
    y, s, mu = esqm_step(prob, x, (0.0,), params, beta_k=1.0)

    ys = np.linspace(-3, 3, 2_000_001)
    model = ys + 1.0 * np.maximum(0.0, ys) + 0.5 * ys**2
    y_star = ys[np.argmin(model)]
    assert y[0] == pytest.approx(y_star, abs=5e-6)  # grid spacing 3e-6
    assert s == pytest.approx(max(0.0, y[0]), abs=1e-12)


def test_step_slack_matches_max_violation():
    # tiny beta: the step barely moves and the slack tracks the violation at y
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    prob = ProblemInstance(
        num_vars=2,
        inequalities=(x1 - 1.0 + 2.0, x2 - 1.0 + 2.0),  # both violated by 1 at (0,0)
        sample_box=((-3.0, 3.0), (-3.0, 3.0)),
    )
    f = linear_objective(2, (0.0, 0.0))
    params = EsqmParams(alpha=0.0, curvature_obj=1.0, curvature_con=1.0)
    y, s, mu = esqm_step(prob, f, (0.0, 0.0), params, beta_k=1e-4)
    viol = max(
        1.0 + (y[0] - 0.0),  # linearization of g1 at y
        1.0 + (y[1] - 0.0),
    )
    assert s == pytest.approx(viol, abs=1e-10)
    assert s > 0.9


def test_step_subproblem_no_worse_than_reference():
    # Step objective at (y*, s*) must not exceed the value at the trivial
    # reference y = x_k, s = max(0, violation)
    prob = catalog("ball_box", n=2, a=(0.4, 0.2))
    f = linear_objective(2, (1.0, 1.0))
    params = EsqmParams(alpha=6.8, curvature_obj=1.0, curvature_con=3.0)
    bounds = PerturbationSpec.diagonal(6.8).bounds(prob)
    rng = np.random.default_rng(17)
    for _ in range(25):
        xk = rng.uniform(-1.4, 1.4, size=2)
        beta = float(rng.uniform(0.5, 20.0))
        y, s, mu = esqm_step(prob, f, xk, params, beta)
        rho = params.curvature_obj + beta * params.curvature_con
        gvals = np.array([g.evaluate(xk) for g in prob.inequalities]) - bounds
        grad_f = np.array([p.evaluate(xk) for p in f.gradient()])

        def model(yv, sv):
            return float(grad_f @ (yv - xk) + beta * sv + 0.5 * rho * np.sum((yv - xk) ** 2))

        ref = model(xk, max(0.0, float(np.max(gvals))))
        assert model(np.asarray(y), s) <= ref + 1e-9


# ---------------------------------------------------------------------------
# KKT residual
# ---------------------------------------------------------------------------


def test_kkt_residual_at_optimal_corner():
    prob = catalog("ball_box", n=2, a=(0.4, 0.2))
    f = linear_objective(2, (1.0, 1.0))
    res = kkt_residual(
        prob, f, (-1.0, -1.0), (0.0, 0.5, 0.5), PerturbationSpec.diagonal(6.8)
    )
    assert res == pytest.approx(0.0, abs=1e-12)


def test_kkt_residual_zero_multipliers_at_stationary_point():
    prob = catalog("cusp")
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    f = (x1 + 1.0) ** 2 + x2 * x2
    res = kkt_residual(prob, f, (-1.0, 0.0), (0.0, 0.0), PerturbationSpec.diagonal(0.0))
    assert res == 0.0


def test_kkt_residual_penalizes_slack_constraint():
    prob = catalog("cusp")
    f = linear_objective(2, (0.0, 1.0))
    x = (-1.0, 0.0)  # both constraints slack by 1
    res = kkt_residual(prob, f, x, (0.5, 0.0), PerturbationSpec.diagonal(0.0))
    assert res >= 0.5 * 1.0 - 1e-12


def test_kkt_residual_rejects_negative_multipliers():
    prob = catalog("cusp")
    f = linear_objective(2, (1.0, 0.0))
    with pytest.raises(ValueError):
        kkt_residual(prob, f, (-1.0, 0.0), (-0.1, 0.0), PerturbationSpec.diagonal(0.0))


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------


def ball_box_setup():
    prob = catalog("ball_box", n=2, a=(0.4, 0.2))
    f = linear_objective(2, (1.0, 1.0))
    L_obj, L_con = estimate_lipschitz(prob)
    params = EsqmParams(
        alpha=6.8,
        beta0=10.0,
        delta=1.0,
        curvature_obj=max(L_obj, 1.0),
        curvature_con=max(L_con),
        max_iter=500,
    )
    return prob, f, params


def test_run_converges_to_free_corner():
    prob, f, params = ball_box_setup()
    trace = run_esqm(prob, f, (-0.5, -0.5), params)
    assert trace.converged
    assert trace.x_final == pytest.approx([-1.0, -1.0], abs=1e-6)
    assert trace.kkt_residuals[-1] <= 1e-6


def test_run_beta_stabilizes():
    prob, f, params = ball_box_setup()
    trace = run_esqm(prob, f, (-0.5, -0.5), params)
    tail = trace.betas[len(trace.betas) // 2 :]
    assert len(set(tail)) == 1  # constant after finitely many iterations


def test_run_merit_nonincreasing():
    prob, f, params = ball_box_setup()
    f_min = grid_f_min(prob, f)
    for seed in range(3):
        rng = np.random.default_rng(100 + seed)
        x0 = rng.uniform(-1.5, -0.2, size=2)
        trace = run_esqm(prob, f, x0, params)
        merits = trace.merit_values(f_min=f_min, alpha=params.alpha)
        diffs = np.diff(merits)
        assert np.max(diffs) <= 1e-9


def test_run_cusp_boxed_vertex():
    prob = catalog("cusp_boxed")
    f = linear_objective(2, (-1.0, 0.0))
    L_obj, L_con = estimate_lipschitz(prob)
    params = EsqmParams(
        alpha=0.1,
        beta0=10.0,
        delta=1.0,
        curvature_obj=max(L_obj, 1.0),
        curvature_con=max(L_con),
        max_iter=1000,
    )
    trace = run_esqm(prob, f, (-0.5, -0.5), params)
    assert trace.converged
    assert trace.x_final == pytest.approx([0.1 ** (1 / 3), 0.0], abs=1e-7)


def test_run_penalty_grows_exactly_when_linearization_needs_slack():
    prob = catalog("cusp_boxed")
    f = linear_objective(2, (-1.0, 0.0))
    L_obj, L_con = estimate_lipschitz(prob)
    params = EsqmParams(
        alpha=0.1,
        beta0=1.0,
        delta=1.0,
        curvature_obj=max(L_obj, 1.0),
        curvature_con=max(L_con),
        max_iter=1000,
    )
    x0 = np.random.default_rng(0).uniform(-2.0, 1.0, size=2)
    trace = run_esqm(prob, f, x0, params)
    bounds = PerturbationSpec.diagonal(params.alpha).bounds(prob)
    kept = grown = 0
    for k in range(len(trace.xs) - 1):
        xk, xnext = np.array(trace.xs[k]), np.array(trace.xs[k + 1])
        # linearization at x_k, rebuilt from fresh derivatives
        shifted = np.array([g.evaluate(xk) for g in prob.inequalities]) - bounds
        A = np.array(
            [[g.derivative(j).evaluate(xk) for j in range(2)] for g in prob.inequalities]
        )
        expected = max(0.0, float(np.max(shifted + A @ (xnext - xk))))
        assert trace.slacks[k + 1] == pytest.approx(expected, abs=1e-10)
        same = trace.betas[k + 1] == trace.betas[k]
        assert same == (trace.slacks[k + 1] <= 1e-12)
        kept += same
        grown += not same
    assert kept > 0 and grown > 0  # both branches of the rule are exercised


def test_run_unconstrained_interior_minimum():
    prob = catalog("cusp")
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    f = (x1 + 1.0) ** 2 + (x2 - 0.2) ** 2
    params = EsqmParams(
        alpha=0.0, beta0=1.0, delta=1.0, curvature_obj=3.0, curvature_con=18.0
    )
    trace = run_esqm(prob, f, (-1.3, 0.5), params)
    assert trace.converged
    assert trace.x_final == pytest.approx([-1.0, 0.2], abs=1e-7)
    assert np.max(np.abs(trace.multipliers[-1])) <= 1e-9


def test_run_requires_objective_and_no_equalities():
    prob = catalog("cusp")
    params = EsqmParams(alpha=0.0)
    with pytest.raises(ValueError):
        run_esqm(prob, None, (0.0, 0.0), params)
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    eq_prob = ProblemInstance(num_vars=2, inequalities=(x1,), equalities=(x2,))
    with pytest.raises(ValueError):
        run_esqm(eq_prob, x1, (0.0, 0.0), params)


@pytest.mark.parametrize("x0", [(math.nan, 0.0), (0.0, -math.inf)])
def test_run_rejects_nonfinite_start(x0):
    prob, f, template = cusp_boxed_template()
    with pytest.raises(ValueError, match="x0 must be finite"):
        run_esqm(prob, f, x0, template)


@pytest.mark.parametrize("x", [(math.nan, 0.0), (0.0, math.inf)])
def test_step_and_kkt_reject_nonfinite_point(x):
    prob, f, template = cusp_boxed_template()
    params = EsqmParams(alpha=0.1)
    with pytest.raises(ValueError, match="x_k must be finite"):
        esqm_step(prob, f, x, params, beta_k=1.0)
    with pytest.raises(ValueError, match="x must be finite"):
        kkt_residual(prob, f, x, (0.0, 0.0, 0.0), PerturbationSpec.diagonal(0.1))


@pytest.mark.parametrize(
    "warm",
    [
        ((1.0, 1.0), 5.0),  # one multiplier short
        ((1.0, 1.0, 0.0), 0.0),  # nonpositive beta
        ((1.0, -1.0, 0.0), 5.0),  # negative multiplier
        ((3.0, 3.0, 0.0), 5.0),  # multipliers above the cap
        ((math.nan, 1.0, 0.0), 5.0),
    ],
)
def test_step_rejects_malformed_warm_start(warm):
    prob, f, template = cusp_boxed_template()
    with pytest.raises(ValueError):
        esqm_step(prob, f, (0.5, 0.0), template, beta_k=6.0, warm_start=warm)


def test_trace_exports(tmp_path):
    prob, f, params = ball_box_setup()
    trace = run_esqm(prob, f, (-0.5, -0.5), params)
    csv_path = tmp_path / "trace.csv"
    trace.write_csv(csv_path, f_min=-3.3, alpha=6.8)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "k,x,s,beta,kkt_residual,merit"
    assert len(lines) == len(trace.xs) + 1
    payload = trace.to_json_dict()
    assert payload["converged"] is True
    assert len(payload["xs"]) == len(trace.xs)


# ---------------------------------------------------------------------------
# homotopy driver
# ---------------------------------------------------------------------------


def cusp_boxed_template(max_iter=2000):
    prob = catalog("cusp_boxed")
    f = linear_objective(2, (-1.0, 0.0))
    L_obj, L_con = estimate_lipschitz(prob)
    return prob, f, EsqmParams(
        alpha=0.1,
        beta0=10.0,
        delta=1.0,
        curvature_obj=max(L_obj, 1.0),
        curvature_con=max(L_con),
        max_iter=max_iter,
    )


def test_homotopy_value_curve_cusp_boxed():
    prob, f, template = cusp_boxed_template()
    trace = homotopy_run(prob, f, [1e-1, 1e-2, 1e-3, 1e-4], template)
    for lvl in trace.levels:
        assert lvl.status == "converged"
        assert abs(lvl.value - (-lvl.alpha ** (1 / 3))) <= 1e-6
    values = trace.values
    assert all(b >= a for a, b in zip(values, values[1:]))  # increasing toward 0


def test_homotopy_constant_value_on_regular_band():
    prob = catalog("ball_box", n=2, a=(0.4, 0.2))
    f = linear_objective(2, (1.0, 1.0))
    L_obj, L_con = estimate_lipschitz(prob)
    template = EsqmParams(
        alpha=7.5, beta0=10.0, delta=1.0,
        curvature_obj=max(L_obj, 1.0), curvature_con=max(L_con), max_iter=500,
    )
    trace = homotopy_run(prob, f, [7.5, 7.2, 6.8], template)
    for lvl in trace.levels:
        assert lvl.status == "converged"
        assert lvl.value == pytest.approx(-2.0, abs=1e-6)


def test_homotopy_flags_infeasible_level():
    prob = catalog("ball_box", n=2, a=(0.4, 0.2))
    f = linear_objective(2, (1.0, 1.0))
    L_obj, L_con = estimate_lipschitz(prob)
    template = EsqmParams(
        alpha=6.8, beta0=10.0, delta=1.0,
        curvature_obj=max(L_obj, 1.0), curvature_con=max(L_con), max_iter=120,
    )
    trace = homotopy_run(prob, f, [6.8, 4.0], template)
    assert trace.levels[0].status == "converged"
    assert trace.levels[1].status == "infeasible"


def test_homotopy_reports_subproblem_failure_per_level(monkeypatch):
    def unsolved(*args, **kwargs):
        return SolveStatus(status=ITER_LIMIT)

    monkeypatch.setattr("perturbcq.esqm.minimize_simplex_qp", unsolved)
    prob, f, template = cusp_boxed_template()
    trace = homotopy_run(prob, f, [1e-1, 1e-2], template)
    start = tuple(prob.box_array().mean(axis=1))
    for lvl in trace.levels:
        assert lvl.status == "subproblem_failed"
        assert lvl.trace.termination == "subproblem_failed"
        assert not lvl.trace.converged
        assert lvl.trace.retries == 0
        assert lvl.x == start  # no step taken, and no warm start from a failed level
    with pytest.raises(SubproblemError):
        esqm_step(prob, f, start, template, beta_k=1.0)
    assert issubclass(SubproblemError, RuntimeError)  # the CLI maps it to exit 2

    def broken(*args, **kwargs):
        raise RuntimeError("not a subproblem failure")

    # any other error under esqm_step is not turned into a status
    monkeypatch.setattr("perturbcq.esqm.minimize_simplex_qp", broken)
    with pytest.raises(RuntimeError, match="not a subproblem failure"):
        homotopy_run(prob, f, [1e-1], template)


def test_trace_replays_through_public_step_and_residual():
    prob, f, params = cusp_boxed_template()
    x0 = np.random.default_rng(0).uniform(-2.0, 1.0, size=2)
    trace = run_esqm(prob, f, x0, params)
    assert trace.converged and trace.retries == 0
    pert = PerturbationSpec.diagonal(params.alpha)
    for k, x in enumerate(trace.xs):
        assert kkt_residual(prob, f, x, trace.multipliers[k], pert) == trace.kkt_residuals[k]
        assert trace.objectives[k] == f.evaluate(np.array(x))
        assert trace.infeasibilities[k] == feasibility_residual(prob, pert, x)[0]
        if k + 1 < len(trace.xs):
            # the run starts every dual QP after its first from the previous one
            warm = (trace.multipliers[k], trace.betas[k - 1]) if k else None
            y, s, mu = esqm_step(prob, f, x, params, trace.betas[k], warm_start=warm)
            assert tuple(y) == trace.xs[k + 1]
            assert s == trace.slacks[k + 1]
            assert tuple(mu) == trace.multipliers[k + 1]


def counting(calls, name, func):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return func(*args, **kwargs)
    return wrapper


def test_run_linearizes_each_iterate_once(monkeypatch):
    calls = {"evaluate_table": 0, "Family": 0, "evaluate": 0}
    prob, f, template = cusp_boxed_template()
    kernel = counting(calls, "evaluate_table", poly.evaluate_table)
    monkeypatch.setattr(poly, "evaluate_table", kernel)
    monkeypatch.setattr(esqm, "Family", counting(calls, "Family", esqm.Family))
    monkeypatch.setattr(Polynomial, "evaluate", counting(calls, "evaluate", Polynomial.evaluate))
    trace = homotopy_run(prob, f, [1e-1, 1e-2, 1e-3], template)
    assert all(lvl.status == "converged" and lvl.trace.retries == 0 for lvl in trace.levels)
    iterates = sum(len(lvl.trace.xs) for lvl in trace.levels)
    runs = sum(1 + lvl.trace.retries for lvl in trace.levels)
    assert calls["evaluate_table"] == iterates
    assert calls["Family"] == runs
    assert calls["evaluate"] == 0


def test_homotopy_steps_skip_the_dual_validation(monkeypatch):
    # Q = -AA'/rho is negative semidefinite by construction: no step proves it
    prob, f, template = cusp_boxed_template()
    calls = {"eigvalsh": 0, "minimize_simplex_qp": 0}
    monkeypatch.setattr(np.linalg, "eigvalsh", counting(calls, "eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(
        esqm, "minimize_simplex_qp",
        counting(calls, "minimize_simplex_qp", esqm.minimize_simplex_qp),
    )
    trace = homotopy_run(prob, f, [1e-1, 1e-2, 1e-3], template)
    assert all(lvl.status == "converged" for lvl in trace.levels)
    assert calls["eigvalsh"] == 0
    assert calls["minimize_simplex_qp"] == sum(len(lvl.trace.xs) - 1 for lvl in trace.levels)


def test_homotopy_dual_qp_costs_about_one_face_solve_per_step(monkeypatch):
    # every step after a run's first starts its dual QP at the previous
    # solution scaled onto the new cap, which keeps the optimal support
    prob, f, template = cusp_boxed_template()
    solved = []

    def recording(*args, **kwargs):
        status = minimize_simplex_qp(*args, **kwargs)
        solved.append(status.face_solves)
        return status

    monkeypatch.setattr(esqm, "minimize_simplex_qp", recording)
    trace = homotopy_run(prob, f, [1e-1, 1e-2, 1e-3, 1e-4, 1e-5], template)
    assert all(lvl.status == "converged" for lvl in trace.levels)
    assert len(solved) == sum(len(lvl.trace.xs) - 1 for lvl in trace.levels) > 1000
    assert sum(solved) <= 1.1 * len(solved)


def benchmark_schedule(seed):
    """The benchmark's five cusp_boxed levels 1e-1 .. 1e-5, each jittered by a
    factor in [0.8, 1.25]."""
    rng = np.random.default_rng(seed)
    lo, hi = math.log(0.8), math.log(1.25)
    return [10.0**-k * math.exp(rng.uniform(lo, hi)) for k in range(1, 6)]


@pytest.fixture(scope="module")
def benchmark_homotopies():
    prob, f, template = cusp_boxed_template()
    return [homotopy_run(prob, f, benchmark_schedule(seed), template) for seed in range(3)]


def test_homotopy_multipliers_match_closed_form(benchmark_homotopies):
    # at x = (alpha^(1/3), 0) both cusp constraints are active with gradients
    # (3 x1^2, +-1), so -e1 + lam_1 (3 x1^2, 1) + lam_2 (3 x1^2, -1) = 0 has
    # the unique solution lam_1 = lam_2 = 1 / (6 alpha^(2/3)); the box is slack
    for trace in benchmark_homotopies:
        for lvl in trace.levels:
            assert lvl.status == "converged"
            lam = 1.0 / (6.0 * lvl.alpha ** (2.0 / 3.0))
            mu = lvl.trace.multipliers[-1]
            assert mu[0] == pytest.approx(lam, rel=100 * esqm.KKT_TOL)
            assert mu[1] == pytest.approx(lam, rel=100 * esqm.KKT_TOL)
            assert mu[2] == 0.0


def test_homotopy_final_penalty_exceeds_multiplier_sum(benchmark_homotopies):
    # the exact-penalty condition the beta update is built to reach
    for trace in benchmark_homotopies:
        for lvl in trace.levels:
            assert lvl.status == "converged"
            assert lvl.trace.betas[-1] > sum(lvl.trace.multipliers[-1])


def test_homotopy_rejects_bad_schedule():
    prob, f, template = cusp_boxed_template()
    with pytest.raises(ValueError):
        homotopy_run(prob, f, [0.1, 0.2], template)
    with pytest.raises(ValueError):
        homotopy_run(prob, f, [0.1, -0.01], template)


def test_homotopy_rejects_nonfinite_level():
    prob, f, template = cusp_boxed_template()
    with pytest.raises(ValueError, match="finite"):
        homotopy_run(prob, f, [math.nan], template)
