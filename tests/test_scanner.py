import itertools
import json
import math
import warnings

import numpy as np
import pytest

from perturbcq import poly, scanner
from perturbcq.model import PerturbationSpec, ProblemInstance, catalog
from perturbcq.poly import Polynomial
from perturbcq.qualification import FAILS, DEGENERATE, check_mfcq_hull, sweep_mfcq, SweepConfig
from perturbcq.scanner import (
    ScanReport,
    SingularSystem,
    analytic_singulars_ball_box,
    analytic_singulars_grid,
    milnor_thom_bound,
    scan_singular,
    solve_system_multistart,
)


def independent_bound(n, m, d, r):
    """Big-integer product computed factor by factor, independently."""
    out = d
    for _ in range(n + r):
        out *= 2 * d - 1
    for _ in range(m):
        out *= 2 * d + 1
    return out


# ---------------------------------------------------------------------------
# counting bound
# ---------------------------------------------------------------------------


def test_bound_reference_values():
    assert milnor_thom_bound(2, 3, 2) == 2250
    assert milnor_thom_bound(5, 4, 1) == 3**4
    assert milnor_thom_bound(2, 3, 8) == 8 * 15**2 * 17**3 == 8_843_400


def test_bound_matches_independent_evaluation():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        d = int(rng.integers(1, 12))
        r = int(rng.integers(0, 4))
        assert milnor_thom_bound(n, m, d, r) == independent_bound(n, m, d, r)


def test_bound_no_overflow():
    big = milnor_thom_bound(20, 20, 50, 5)
    assert big == 50 * 99**25 * 101**20  # exact integers


def test_bound_rejects_bad_inputs():
    for bad in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
        with pytest.raises(ValueError):
            milnor_thom_bound(*bad)


# ---------------------------------------------------------------------------
# witness systems
# ---------------------------------------------------------------------------


def test_cusp_system_residual_at_known_solution():
    sys = SingularSystem(catalog("cusp"), K=(0, 1), L=(0, 1))
    # 2 stationarity + 1 weight-normalization + 2 activity rows; (x, lam, alpha)
    assert sys.num_rows == 5 and sys.num_unknowns == 5
    res = sys.residual(x=(0.0, 0.0), lam=(0.5, 0.5), kappa=(), alpha=0.0)
    assert np.max(np.abs(res)) == 0.0


def test_ball_box_system_residual_at_corner():
    prob = catalog("ball_box", n=2, a=(0.4, 0.2))
    sys = SingularSystem(prob, K=(0, 1, 2), L=(0, 1, 2))
    # stationarity at (-1,-1): lam0*(2.8,2.4) + lam1*(-2,0) + lam2*(0,-2) = 0
    lam0 = 1.0 / (1.0 + 1.4 + 1.2)
    lam = (lam0, 1.4 * lam0, 1.2 * lam0)
    res = sys.residual(x=(-1.0, -1.0), lam=lam, kappa=(), alpha=4.6)
    assert np.max(np.abs(res)) <= 1e-12


def test_system_zero_gradient_pattern_structure():
    # pattern where the only active gradient vanishes at the solution:
    # the weight rows still force lam = 1
    prob = catalog("ball_box", n=2, a=(0.4, 0.2))
    sys = SingularSystem(prob, K=(0,), L=(0,))
    res = sys.residual(x=(0.4, 0.2), lam=(1.0,), kappa=(), alpha=8.0)
    assert np.max(np.abs(res)) <= 1e-12


def test_system_rejects_fixed_only_support():
    prob = catalog("ball_box", n=2, a=(0.4, 0.2))
    with pytest.raises(ValueError):
        SingularSystem(prob, K=(1, 2), L=(1, 2))
    with pytest.raises(ValueError):
        SingularSystem(prob, K=(0, 1), L=(0,))  # L must contain K


def test_multistart_cusp_finds_origin():
    sys = SingularSystem(catalog("cusp"), K=(0, 1), L=(0, 1))
    sols = solve_system_multistart(sys, (-0.5, 0.5), starts=200, seed=7)
    assert sols
    assert min(abs(w.alpha) for w in sols) <= 1e-9


def test_multistart_survives_rank_deficient_badly_scaled_jacobian():
    # g = 1e8 (x1 + x2): the x block of J'J is exactly 1e16 [[1, 1], [1, 1]],
    # which absorbs the initial damping 1e-3 in floating point.  The gradient
    # never vanishes, so there is no witness, and no step may fail to solve.
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    prob = ProblemInstance(num_vars=2, inequalities=(1e8 * (x1 + x2),))
    sys = SingularSystem(prob, K=(0,), L=(0,))
    assert solve_system_multistart(sys, (-1.0, 1.0), starts=20, seed=0) == []


def test_multistart_separated_discs_empty():
    # pull the second disc away so the contact point disappears
    from perturbcq.model import ProblemInstance
    from perturbcq.poly import Polynomial

    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    prob = ProblemInstance(
        num_vars=2,
        inequalities=(x1 * x1 + x2 * x2 - 1.0, (x1 - 4.0) ** 2 + x2 * x2 - 1.0),
        sample_box=((-1.5, 5.5), (-1.5, 1.5)),
    )
    sys = SingularSystem(prob, K=(0, 1), L=(0, 1))
    sols = solve_system_multistart(sys, (-0.25, 0.25), starts=300, seed=3)
    assert sols == []


def equality_problem():
    # ball, half-space and slab in R^3 on the surface x3 = x1*x2
    x1, x2, x3 = (Polynomial.variable(3, i) for i in range(3))
    return ProblemInstance(
        num_vars=3,
        inequalities=(x1 * x1 + x2 * x2 + x3 * x3 - 1.0, -x1, x2 - 0.5),
        equalities=(x3 - x1 * x2,),
        perturbable=(0, 1),
        sample_box=((-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0)),
    )


@pytest.mark.parametrize(
    "prob, K, L",
    [
        (catalog("cusp"), (0, 1), (0, 1)),
        (catalog("ball_box", n=2, a=(0.4, 0.2)), (0, 1), (0, 1, 2)),
        (catalog("ball_box", n=2, a=(0.4, 0.2)), (0,), (0,)),
        (catalog("grid_boxes", n=2, d=2, a=(0.3, -0.2)), (0, 2), (0, 1, 2)),
        (equality_problem(), (0, 2), (0, 1, 2)),
    ],
    ids=["cusp", "ball_box_L_wider", "ball_box_single", "grid_boxes", "equality"],
)
def test_linearization_matches_finite_differences(prob, K, L):
    sys = SingularSystem(prob, K, L)
    rng = np.random.default_rng(17)
    box = prob.box_array()
    S, n, k, r = 6, sys.n, len(sys.K), sys.r
    Z = np.hstack([
        rng.uniform(box[:, 0], box[:, 1], size=(S, n)),
        rng.uniform(0.1, 1.0, size=(S, k)),
        rng.normal(size=(S, r)),
        rng.uniform(-1.0, 1.0, size=(S, 1)),
    ])
    F, J = sys.linearize_batch(Z)
    assert F.shape == (S, sys.num_rows)
    assert J.shape == (S, sys.num_rows, sys.num_unknowns)
    # the residual rows, rebuilt constraint by constraint
    X, Lam, Kap, alpha = Z[:, :n], Z[:, n : n + k], Z[:, n + k : n + k + r], Z[:, -1]
    g, h = prob.inequalities, prob.equalities

    def values(polys):  # (S, len(polys))
        return np.reshape([p.evaluate_many(X) for p in polys], (-1, S)).T

    def gradients(polys):  # (S, len(polys), n)
        grads = [[d.evaluate_many(X) for d in p.gradient()] for p in polys]
        return np.reshape(grads, (-1, n, S)).transpose(2, 0, 1)

    stationary = np.einsum("sk,skn->sn", Lam, gradients([g[i] for i in K]))
    stationary -= np.einsum("sk,skn->sn", Kap, gradients(h))
    shift = np.array([j in prob.perturbable for j in L]) * alpha[:, None]
    expected = np.hstack([
        stationary,
        Lam.sum(axis=1, keepdims=True) - 1.0,
        values([g[j] for j in L]) - shift,
        values(h),
    ])
    assert np.allclose(F, expected, rtol=1e-12, atol=1e-12)
    step = 1e-5
    fd = np.empty_like(J)
    for col in range(sys.num_unknowns):
        E = np.zeros_like(Z)
        E[:, col] = step
        fd[:, :, col] = (sys.linearize_batch(Z + E)[0] - sys.linearize_batch(Z - E)[0]) / (2 * step)
    scale = max(1.0, float(np.max(np.abs(J))))
    assert np.max(np.abs(J - fd)) <= 1e-6 * scale
    for s in range(S):
        z = Z[s]
        res = sys.residual(z[:n], z[n : n + k], z[n + k : n + k + r], z[-1])
        assert np.allclose(res, F[s], rtol=1e-14, atol=1e-14)


def test_lm_linearizes_each_iterate_once(monkeypatch):
    calls = {"kernel": 0, "linearize": 0}
    kernel = poly.evaluate_table
    linearize = SingularSystem.linearize_batch

    def counted_kernel(*args):
        calls["kernel"] += 1
        return kernel(*args)

    def counted_linearize(self, Z):
        calls["linearize"] += 1
        return linearize(self, Z)

    monkeypatch.setattr(poly, "evaluate_table", counted_kernel)
    monkeypatch.setattr(SingularSystem, "linearize_batch", counted_linearize)
    prob = catalog("ball_box", n=2, a=(0.4, 0.2))
    sys = SingularSystem(prob, K=(0, 1, 2), L=(0, 1, 2))
    sols = solve_system_multistart(sys, (0.0, 8.0), starts=50, seed=3)
    assert sols
    # one linearization at the starts plus at most one per LM iteration, each
    # one evaluation of the system's family, and one evaluation of the
    # constraints outside L when the roots are classified
    assert 2 <= calls["linearize"] <= 101
    assert calls["kernel"] == calls["linearize"] + 1


def test_lm_linearizes_only_live_starts(monkeypatch):
    rows = []
    linearize = SingularSystem.linearize_batch

    def counted(self, Z):
        rows.append(len(Z))
        return linearize(self, Z)

    monkeypatch.setattr(SingularSystem, "linearize_batch", counted)
    prob = catalog("ball_box", n=3, a=(0.4, 0.2, -0.3))
    report = scan_singular(prob, (0.0, 12.0), starts=300, seed=0)
    assert len(report.alphas) == 26
    # stepping all 300 starts of a system until every one of them has
    # converged or stalled linearizes 191,426 rows in this scan
    assert sum(rows) <= 60_000


def benchmark_rep_seed(seed, rep):
    """Library seed of repetition `rep` in a benchmark run started with `seed`."""
    return int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])


def test_scan_benchmark_seeds_find_every_level_without_warnings():
    # the benchmark's scan_ball_box3 inputs: an exception or a warning in any
    # repetition would spoil its run
    a = (0.4, 0.2, -0.3)
    prob = catalog("ball_box", n=3, a=a)
    oracle = analytic_singulars_ball_box(3, a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed, rep in itertools.product(range(4), range(6)):
            report = scan_singular(prob, (0.0, 12.0), starts=300, seed=benchmark_rep_seed(seed, rep))
            assert report.alphas == pytest.approx(oracle, abs=1e-6), (seed, rep)


# ---------------------------------------------------------------------------
# analytic oracles
# ---------------------------------------------------------------------------


def test_oracle_ball_box_n1():
    vals = analytic_singulars_ball_box(1, (0.3,))
    assert vals == pytest.approx([2.31, 3.51], abs=1e-12)


def test_oracle_ball_box_n2_reference():
    vals = analytic_singulars_ball_box(2, (0.4, 0.2))
    assert vals == pytest.approx([4.6, 5.4, 6.04, 6.2, 6.56, 7.0, 7.36, 7.64], abs=1e-12)


def test_oracle_ball_box_count_n3():
    assert len(analytic_singulars_ball_box(3, (0.4, 0.2, -0.3))) == 26


def test_oracle_ball_box_rejects_degenerate_center():
    with pytest.raises(ValueError):
        analytic_singulars_ball_box(2, (0.0, 0.0))  # coincident face tangencies
    with pytest.raises(ValueError):
        analytic_singulars_ball_box(2, (1.0, 0.2))


def test_oracle_grid_n1_d2():
    vals = analytic_singulars_grid(1, 2, (0.3,))
    assert vals == pytest.approx([10.71, 13.11], abs=1e-12)


def test_oracle_grid_n2_d4():
    vals = analytic_singulars_grid(2, 4, (0.6, 0.4))
    assert len(vals) == 16
    assert len(set(np.round(vals, 9))) == 16
    # corner (2,2): 128 - (1.4^2 + 1.6^2)
    assert any(abs(v - 123.48) < 1e-9 for v in vals)


def test_oracle_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        analytic_singulars_grid(1, 3, (0.3,))
    with pytest.raises(ValueError):
        analytic_singulars_grid(2, 2, (0.0, 0.0))


# ---------------------------------------------------------------------------
# full scans
# ---------------------------------------------------------------------------


def test_scan_cusp_exactly_origin():
    report = scan_singular(catalog("cusp"), (-0.5, 0.5), starts=200, seed=7)
    assert len(report.singular_values) == 1
    assert abs(report.alphas[0]) <= 1e-9
    w = report.singular_values[0]
    assert w.residual_norm <= 1e-8
    assert w.side_conditions_ok


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_scan_ball_box_matches_oracle(seed):
    prob = catalog("ball_box", n=2, a=(0.4, 0.2))
    oracle = analytic_singulars_ball_box(2, (0.4, 0.2))
    report = scan_singular(prob, (0.0, 8.0), starts=300, seed=seed)
    assert len(report.alphas) == len(oracle)
    assert report.alphas == pytest.approx(oracle, abs=1e-6)


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_scan_grid_matches_oracle(seed):
    prob = catalog("grid_boxes", n=1, d=2, a=(0.3,))
    oracle = analytic_singulars_grid(1, 2, (0.3,))
    report = scan_singular(prob, (0.0, 16.0), starts=300, seed=seed)
    assert report.alphas == pytest.approx(oracle, abs=1e-6)


def test_scan_grid_n2_matches_oracle():
    prob = catalog("grid_boxes", n=2, d=2, a=(0.3, -0.2))
    oracle = analytic_singulars_grid(2, 2, (0.3, -0.2))
    report = scan_singular(prob, (0.0, 32.0), starts=400, seed=5)
    assert report.alphas == pytest.approx(oracle, abs=1e-6)


def test_scan_witnesses_reverify():
    prob = catalog("ball_box", n=2, a=(0.4, 0.2))
    report = scan_singular(prob, (0.0, 8.0), starts=300, seed=1)
    assert len(report.singular_values) <= report.bound
    for w in report.singular_values:
        assert w.residual_norm <= 1e-8
        assert min(w.lam) >= 1e-10
        cert = check_mfcq_hull(
            prob, PerturbationSpec.diagonal(w.alpha), np.array(w.x)
        )
        assert cert.verdict in (FAILS, DEGENERATE)


def test_scan_is_deterministic():
    prob = catalog("ball_box", n=2, a=(0.4, 0.2))
    r1 = scan_singular(prob, (0.0, 8.0), starts=150, seed=9)
    r2 = scan_singular(prob, (0.0, 8.0), starts=150, seed=9)
    assert r1.to_json_dict() == r2.to_json_dict()


def test_scan_between_singular_levels_all_hold():
    prob = catalog("ball_box", n=2, a=(0.4, 0.2))
    oracle = analytic_singulars_ball_box(2, (0.4, 0.2))
    mids = [(a + b) / 2 for a, b in zip(oracle, oracle[1:])]
    for alpha in mids:
        res = sweep_mfcq(
            prob, PerturbationSpec.diagonal(alpha), SweepConfig(samples=60, seed=2)
        )
        assert res.all_hold, f"alpha={alpha}"


# ---------------------------------------------------------------------------
# one square system per support
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m, perturbable", [(3, (0,)), (4, (1, 3)), (3, (0, 1, 2))])
def test_support_seed_index_is_position_among_all_patterns(m, perturbable):
    # a support draws the seed its (K, K) pattern had when every (K, L)
    # pattern, L containing K, was enumerated in size-then-lexicographic order
    x = Polynomial.variable(1, 0)
    prob = ProblemInstance(
        num_vars=1, inequalities=tuple(x - float(k) for k in range(m)), perturbable=perturbable
    )
    patterns = []
    for ksize in range(1, m + 1):
        for K in itertools.combinations(range(m), ksize):
            if set(K) & set(perturbable):
                rest = [j for j in range(m) if j not in K]
                for lsize in range(len(rest) + 1):
                    for extra in itertools.combinations(rest, lsize):
                        patterns.append((K, tuple(sorted(K + extra))))
    expected = [(K, patterns.index((K, K))) for K, L in patterns if K == L]
    assert list(scanner._enumerate_supports(prob)) == expected


def test_scan_solves_one_square_system_per_support(monkeypatch):
    systems = []

    def counted(system, *args):
        systems.append((system.K, system.L))
        return solve_system_multistart(system, *args)

    monkeypatch.setattr(scanner, "solve_system_multistart", counted)
    prob = catalog("ball_box", n=3, a=(0.4, 0.2, -0.3))
    scan_singular(prob, (0.0, 12.0), starts=10, seed=0)
    # the 2^4 - 2^3 supports that hold the perturbable ball constraint
    assert len(systems) == 8
    assert all(K == L and 0 in K for K, L in systems)


def with_cut(name, cut, perturbable):
    """A catalog problem plus the constraint `cut` <= 0."""
    base = catalog(name)
    return ProblemInstance(
        num_vars=base.num_vars,
        inequalities=(*base.inequalities, cut),
        perturbable=perturbable,
        sample_box=base.sample_box,
        name=name,
    )


@pytest.mark.parametrize("perturbable", [(0, 1), (0, 1, 2)], ids=["fixed", "perturbable"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scan_promotes_root_with_zero_slack(perturbable, seed):
    # x2 <= 0 passes through the tangency point (1, 0): the square system on
    # K = (0, 1) finds level 0 with zero slack on the cut, and the weights of
    # the system on K = (0, 1, 2) leave the cut out
    prob = with_cut("tangent_discs", Polynomial.variable(2, 1), perturbable)
    report = scan_singular(prob, (-0.5, 0.5), starts=200, seed=seed)
    assert report.uncertain == []
    assert len(report.singular_values) == 1
    w = report.singular_values[0]
    assert abs(w.alpha) <= 1e-9
    assert (w.K, w.L) == ((0, 1), (0, 1, 2))
    assert w.side_conditions_ok
    assert w.x == pytest.approx((1.0, 0.0), abs=1e-9)


def test_scan_promotion_tries_members_in_residual_order(monkeypatch):
    tried = []
    promote = scanner._promote

    def first_fails(prob, witness, *args):
        tried.append(witness.residual_norm)
        return None if len(tried) == 1 else promote(prob, witness, *args)

    monkeypatch.setattr(scanner, "_promote", first_fails)
    prob = with_cut("tangent_discs", Polynomial.variable(2, 1), (0, 1))
    report = scan_singular(prob, (-0.5, 0.5), starts=200, seed=0)
    assert len(tried) == 2 and tried[0] <= tried[1]
    assert report.uncertain == []
    assert (report.singular_values[0].K, report.singular_values[0].L) == ((0, 1), (0, 1, 2))


@pytest.mark.parametrize(
    "case, window, accepted",
    [("ball_box3", (9.0, 11.0), True), ("tangent_discs_cut", (-0.5, 0.5), False)],
    ids=["ball_box3", "tangent_discs_cut"],
)
def test_classify_batch_equals_rows_alone(case, window, accepted):
    # ball_box n=3: accepted roots, and roots at the open edge 11 and at
    # 8.6 outside the window; the cut x2 <= 0 through the tangency point
    # leaves every root of K = (0, 1) borderline, at zero slack
    if case == "ball_box3":
        prob, K = catalog("ball_box", n=3, a=(0.4, 0.2, -0.3)), (0, 1, 2)
    else:
        prob, K = with_cut("tangent_discs", Polynomial.variable(2, 1), (0, 1)), (0, 1)
    system = SingularSystem(prob, K, K)
    Z0 = scanner._random_starts(system, window, 60, np.random.default_rng(0))
    Z, resids = scanner._levenberg_marquardt(system, Z0)
    batch = scanner._classify(system, Z, resids, window)
    rows = [
        w for i in range(len(Z))
        for w in scanner._classify(system, Z[i : i + 1], resids[i : i + 1], window)
    ]
    assert batch == rows
    assert batch and all(w.side_conditions_ok == accepted for w in batch)
    if accepted:
        assert len(batch) < len(Z)


def test_scan_evaluates_outside_constraints_once_per_lm_batch(monkeypatch):
    calls = {"outside": 0, "batches": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    class CountedFamily(scanner.Family):
        def __call__(self, X):
            calls["outside"] += self.order == 0  # the constraints outside L
            return super().__call__(X)

    monkeypatch.setattr(scanner, "Family", CountedFamily)
    monkeypatch.setattr(scanner, "solve_system_multistart",
                        counted("batches", scanner.solve_system_multistart))
    monkeypatch.setattr(scanner, "_repolish", counted("batches", scanner._repolish))
    prob = catalog("ball_box", n=3, a=(0.4, 0.2, -0.3))
    report = scan_singular(prob, (0.0, 12.0), starts=300, seed=0)
    assert len(report.alphas) == 26
    # 8 multistart runs and 26 re-polishes; classifying root by root made
    # 2,037 single-point evaluations in this scan
    assert calls["outside"] == calls["batches"] == 34


def test_scan_keeps_fixed_only_combinations_uncertain():
    # x1^2 <= 0 has a vanishing gradient on its whole zero set, so the square
    # system on K = (0, 1) has a root at every level with no weight on the
    # perturbable constraint: no support is left to promote such a root to
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    prob = ProblemInstance(num_vars=2, inequalities=(-x2, x1 * x1), perturbable=(0,))
    report = scan_singular(prob, (-0.5, 0.5), starts=50, seed=0)
    assert report.singular_values == []
    assert report.uncertain
    assert all(w.K == (0, 1) and w.lam[0] < 1e-10 for w in report.uncertain)


def test_scan_cusp_with_cut_through_vertex():
    # x1 <= 0 passes through the cusp vertex; the root there is degenerate,
    # so the witness point may sit a little inside the cut
    prob = with_cut("cusp", Polynomial.variable(2, 0), (0, 1))
    report = scan_singular(prob, (-0.5, 0.5), starts=200, seed=7)
    assert report.uncertain == []
    assert len(report.singular_values) == 1
    w = report.singular_values[0]
    assert abs(w.alpha) <= 1e-9
    assert w.K == (0, 1)
    assert w.side_conditions_ok


def test_scan_guard_on_many_constraints():
    from perturbcq.model import ProblemInstance
    from perturbcq.poly import Polynomial

    x1 = Polynomial.variable(1, 0)
    many = tuple(x1 - float(k) for k in range(13))
    prob = ProblemInstance(num_vars=1, inequalities=many)
    with pytest.raises(ValueError, match="tractable"):
        scan_singular(prob, (0.0, 1.0), starts=10, seed=0)


def test_scan_report_serialization_round_trip(tmp_path):
    prob = catalog("cusp")
    report = scan_singular(prob, (-0.5, 0.5), starts=100, seed=7)
    path = tmp_path / "report.json"
    report.write_json(path)
    with open(path) as fh:
        loaded = ScanReport.from_json_dict(json.load(fh))
    assert loaded == report
    csv_path = tmp_path / "report.csv"
    report.write_csv(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "alpha,K,L,residual,x"
    assert len(lines) == 2
