"""End-to-end acceptance checks.

Each test prints a single pass/fail line for its criterion (bypassing output
capture) in addition to asserting, so a full run yields a 10-line scoreboard.
"""

import itertools
import sys
import time

import numpy as np

from perturbcq.convexsolve import (
    OPTIMAL,
    LpProblem,
    _slack_embedding,
    minimize_simplex_qp,
    solve_lp,
)
from perturbcq.esqm import EsqmParams, estimate_lipschitz, homotopy_run, run_esqm
from perturbcq.model import PerturbationSpec, catalog, univariate_feasible_intervals
from perturbcq.poly import Polynomial
from perturbcq.qualification import (
    DEGENERATE,
    SweepConfig,
    check_mfcq_hull,
    sweep_mfcq,
)
from perturbcq.scanner import (
    analytic_singulars_ball_box,
    analytic_singulars_grid,
    milnor_thom_bound,
    scan_singular,
)


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}"
    with capsys.disabled():
        sys.stdout.write("\n" + line + "\n")
        sys.stdout.flush()
    assert ok, line


def _linear(n, coefs):
    out = Polynomial.zero(n)
    for i, c in enumerate(coefs):
        out = out + float(c) * Polynomial.variable(n, i)
    return out


def test_criterion_01_cusp_scan_and_regular_sweeps(capsys):
    t0 = time.perf_counter()
    ok = True
    report = scan_singular(catalog("cusp"), (-0.5, 0.5), starts=200, seed=7)
    ok &= len(report.alphas) == 1 and abs(report.alphas[0]) <= 1e-8
    for alpha in (0.1, -0.1):
        res = sweep_mfcq(
            catalog("cusp"),
            PerturbationSpec.diagonal(alpha),
            SweepConfig(samples=1000, seed=0),
        )
        ok &= res.status == "ok" and res.all_hold
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _report(capsys, 1, ok, f"cusp scan {{0}} + 2x1000-sample sweeps all hold, {elapsed:.2f}s")


def test_criterion_02_ball_box_n2_values_and_radii(capsys):
    t0 = time.perf_counter()
    prob = catalog("ball_box", n=2, a=(0.4, 0.2))
    oracle = [4.6, 5.4, 6.04, 6.2, 6.56, 7.0, 7.36, 7.64]
    report = scan_singular(prob, (0.0, 8.0), starts=500, seed=1)
    ok = len(report.alphas) == 8
    ok &= np.allclose(report.alphas, oracle, atol=1e-6)
    radii = sorted(np.round(np.sqrt(8.0 - np.array(report.alphas)), 3), reverse=True)
    ok &= radii == [1.844, 1.612, 1.4, 1.342, 1.2, 1.0, 0.8, 0.6]
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _report(capsys, 2, ok, f"8/8 singular levels and radii recovered, {elapsed:.2f}s")


def test_criterion_03_ball_box_n3_near_complete(capsys):
    t0 = time.perf_counter()
    a = (0.4, 0.2, -0.3)
    oracle = analytic_singulars_ball_box(3, a)
    ok = len(oracle) == 26
    prob = catalog("ball_box", n=3, a=a)
    report = scan_singular(prob, (0.0, 12.0), starts=2000, seed=1)
    dists = [min(abs(v - o) for o in oracle) for v in report.alphas]
    spurious = sum(d > 1e-6 for d in dists)
    recovered = {
        int(np.argmin([abs(v - o) for o in oracle]))
        for v, d in zip(report.alphas, dists)
        if d <= 1e-6
    }
    ok &= spurious == 0 and len(recovered) >= 24
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    _report(
        capsys,
        3,
        ok,
        f"{len(recovered)}/26 levels recovered, {spurious} spurious, {elapsed:.1f}s",
    )


def test_criterion_04_grid_boxes_oracles_and_scan(capsys):
    t0 = time.perf_counter()
    a = (0.3, -0.2)
    oracle = analytic_singulars_grid(2, 2, a)
    ok = len(oracle) == 4
    prob = catalog("grid_boxes", n=2, d=2, a=a)
    report = scan_singular(prob, (0.0, 40.0), starts=400, seed=5)
    ok &= len(report.alphas) == 4
    ok &= np.allclose(report.alphas, oracle, atol=1e-6)
    deep = analytic_singulars_grid(2, 4, (0.6, 0.4))
    ok &= len(deep) == 16 and len(set(np.round(deep, 9))) == 16
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    _report(capsys, 4, ok, f"grid d=2 scan 4/4, d=4 oracle 16 distinct, {elapsed:.2f}s")


def test_criterion_05_counting_bound(capsys):
    def independent(n, m, d, r):
        out = d
        for _ in range(n + r):
            out *= 2 * d - 1
        for _ in range(m):
            out *= 2 * d + 1
        return out

    ok = milnor_thom_bound(2, 3, 2) == 2250
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(1, 10))
        m = int(rng.integers(1, 10))
        d = int(rng.integers(1, 15))
        r = int(rng.integers(0, 4))
        ok &= milnor_thom_bound(n, m, d, r) == independent(n, m, d, r)
    # observed singular counts never exceed the bound
    counts = [
        (8, catalog("ball_box", n=2, a=(0.4, 0.2))),
        (26, catalog("ball_box", n=3, a=(0.4, 0.2, -0.3))),
        (4, catalog("grid_boxes", n=2, d=2, a=(0.3, -0.2))),
        (16, catalog("grid_boxes", n=2, d=4, a=(0.6, 0.4))),
    ]
    for count, prob in counts:
        bound = milnor_thom_bound(
            prob.num_vars, len(prob.inequalities), prob.max_degree()
        )
        ok &= count <= bound
    _report(capsys, 5, ok, "2250 reproduced, 20 random tuples exact, counts within bounds")


def test_criterion_06_esqm_convergence(capsys):
    t0 = time.perf_counter()
    prob = catalog("ball_box", n=2, a=(0.4, 0.2))
    f = _linear(2, (1.0, 1.0))
    L_obj, L_con = estimate_lipschitz(prob)
    params = EsqmParams(
        alpha=6.8,
        beta0=10.0,
        delta=1.0,
        curvature_obj=max(L_obj, 1.0),
        curvature_con=max(L_con),
        max_iter=500,
    )
    # objective lower bound for the merit quantity, from a dense feasible grid
    xs = np.linspace(-1.5, 1.5, 400)
    grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    fvals = f.evaluate_many(grid)
    f_min = float(fvals.min()) - 0.1 * abs(float(fvals.min()))

    rng = np.random.default_rng(1)
    ok = True
    for _ in range(5):
        x0 = rng.uniform(-1.5, 1.5, size=2)
        trace = run_esqm(prob, f, x0, params)
        ok &= trace.converged
        ok &= bool(np.max(np.abs(trace.x_final - np.array([-1.0, -1.0]))) <= 1e-5)
        ok &= trace.kkt_residuals[-1] <= 1e-6
        tail = trace.betas[len(trace.betas) // 2 :]
        ok &= len(set(tail)) == 1
        merit = trace.merit_values(f_min=f_min, alpha=6.8)
        ok &= bool(np.max(np.diff(merit)) <= 1e-9)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _report(capsys, 6, ok, f"5/5 starts reach (-1,-1), merit monotone, {elapsed:.2f}s")


def test_criterion_07_homotopy_value_continuity(capsys):
    t0 = time.perf_counter()
    prob = catalog("cusp_boxed")
    f = _linear(2, (-1.0, 0.0))
    L_obj, L_con = estimate_lipschitz(prob)
    template = EsqmParams(
        alpha=0.1,
        beta0=10.0,
        delta=1.0,
        curvature_obj=max(L_obj, 1.0),
        curvature_con=max(L_con),
        max_iter=2000,
    )
    schedule = [1e-1, 1e-2, 1e-3, 1e-4]
    trace = homotopy_run(prob, f, schedule, template)
    ok = all(lvl.status == "converged" for lvl in trace.levels)
    errs = [abs(lvl.value - (-lvl.alpha ** (1 / 3))) for lvl in trace.levels]
    ok &= max(errs) <= 1e-4
    values = trace.values
    ok &= all(b >= a for a, b in zip(values, values[1:])) and values[-1] < 0
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _report(capsys, 7, ok, f"4 levels, max value error {max(errs):.2e}, {elapsed:.2f}s")


def _hull_distance_grid(G, step=1e-3):
    k = G.shape[0]
    if k == 1:
        return float(np.linalg.norm(G[0]))
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    if k == 2:
        lams = np.stack([ticks, 1.0 - ticks], axis=1)
    else:
        pairs = [
            (a, c) for a in ticks for c in np.arange(0.0, 1.0 - a + step / 2, step)
        ]
        lams = np.array([[a, c, 1.0 - a - c] for a, c in pairs])
    return float(np.min(np.linalg.norm(lams @ G, axis=1)))


def test_criterion_08_formulation_cross_validation(capsys):
    cases = [
        (catalog("cusp"), PerturbationSpec.diagonal(0.1), 170),
        (catalog("ball_box", n=2, a=(0.4, 0.2)), PerturbationSpec.diagonal(6.8), 165),
        (catalog("tangent_discs"), PerturbationSpec.diagonal(0.3), 165),
    ]
    total = disagreements = grid_checked = 0
    worst_gap = 0.0
    for prob, pert, samples in cases:
        res = sweep_mfcq(prob, pert, SweepConfig(samples=samples, seed=8))
        assert res.status == "ok"
        for row in res.rows:
            total += 1
            lp = row.certificate
            hull = check_mfcq_hull(prob, pert, np.array(row.x))
            if DEGENERATE not in (lp.verdict, hull.verdict):
                disagreements += lp.verdict != hull.verdict
            k = len(hull.active.indices)
            if 1 <= k <= 3:
                G = np.array(
                    [
                        [
                            p.evaluate(np.array(row.x))
                            for p in prob.inequalities[i].gradient()
                        ]
                        for i in hull.active.indices
                    ]
                )
                gap = abs(hull.hull_distance - _hull_distance_grid(G))
                worst_gap = max(worst_gap, gap)
                grid_checked += 1
    ok = total == 500 and disagreements == 0 and worst_gap <= 1e-3
    _report(
        capsys,
        8,
        ok,
        f"{total} points, 0 disagreements, grid gap {worst_gap:.1e} "
        f"on {grid_checked} checks",
    )


def test_criterion_09_solver_cross_validation(capsys):
    def lp_vertex_oracle(c, A, b, lo, hi):
        n = len(c)
        rows = np.asarray([*A, *np.eye(n), *(-np.eye(n))], dtype=float)
        rhs = np.asarray([*b, *hi, *(-lo)], dtype=float)
        best = None
        for subset in itertools.combinations(range(len(rows)), n):
            M = rows[list(subset)]
            if abs(np.linalg.det(M)) < 1e-10:
                continue
            z = np.linalg.solve(M, rhs[list(subset)])
            if np.all(rows @ z <= rhs + 1e-9):
                val = float(c @ z)
                best = val if best is None else min(best, val)
        return best

    def qp_face_oracle(Q, q, beta):
        m = len(q)
        best = 0.0
        for bits in range(1, 2**m):
            support = [i for i in range(m) if bits >> i & 1]
            Qs = Q[np.ix_(support, support)]
            qs = q[support]
            k = len(support)
            candidates = []
            try:
                candidates.append(np.linalg.solve(Qs, -qs))
            except np.linalg.LinAlgError:
                pass
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = Qs
            kkt[:k, k] = -1.0
            kkt[k, :k] = 1.0
            try:
                candidates.append(
                    np.linalg.solve(kkt, np.concatenate([-qs, [beta]]))[:k]
                )
            except np.linalg.LinAlgError:
                pass
            for mu_s in candidates:
                if np.any(mu_s < -1e-10) or mu_s.sum() > beta + 1e-10:
                    continue
                mu = np.zeros(m)
                mu[support] = np.maximum(mu_s, 0.0)
                best = max(best, float(0.5 * mu @ Q @ mu + q @ mu))
        return best

    rng = np.random.default_rng(33)
    lp_worst = qp_worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 7))
        A = rng.normal(size=(m, n))
        b = rng.uniform(0.1, 2.0, size=m)
        lo = np.full(n, -2.0)
        hi = np.full(n, 3.0)
        c = rng.normal(size=n)
        st = solve_lp(LpProblem(c=c, A=A, b=b, lo=lo, hi=hi))
        assert st.status == OPTIMAL
        oracle = lp_vertex_oracle(c, A, b, lo, hi)
        lp_worst = max(lp_worst, abs(st.objective - oracle) / (1.0 + abs(oracle)))
    for _ in range(200):
        m = int(rng.integers(1, 6))
        M = rng.normal(size=(m, m))
        Q = -(M @ M.T)
        Q = 0.5 * (Q + Q.T)
        q = rng.normal(size=m)
        beta = float(rng.uniform(0.2, 3.0))
        # the capped-simplex dual, solved by the ESQM step's call
        st = minimize_simplex_qp(*_slack_embedding(Q, q), beta, tol=1e-10)
        assert st.status == OPTIMAL
        mu = st.x[:m]
        value = float(0.5 * mu @ Q @ mu + q @ mu)
        oracle = qp_face_oracle(Q, q, beta)
        qp_worst = max(qp_worst, abs(value - oracle) / (1.0 + abs(oracle)))
    ok = lp_worst <= 1e-7 and qp_worst <= 1e-7
    _report(capsys, 9, ok, f"200+200 instances, worst gaps LP {lp_worst:.1e} QP {qp_worst:.1e}")


def test_criterion_10_univariate_fixture(capsys):
    prob = catalog("interval_pair")
    fs = univariate_feasible_intervals(
        prob, PerturbationSpec.vector((0.0, 0.0)), (-5.0, 5.0)
    )
    ok = len(fs.intervals) == 1 and len(fs.points) == 1
    errs = [
        abs(fs.intervals[0][0] - (-3.0)),
        abs(fs.intervals[0][1] - (-1.0)),
        abs(fs.points[0] - 1.0),
    ]
    ok &= max(errs) <= 1e-10
    _report(capsys, 10, ok, f"[-3,-1] U {{1}} reproduced, endpoint error {max(errs):.1e}")
