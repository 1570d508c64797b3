import itertools
import math

import numpy as np
import pytest

from perturbcq import poly
from perturbcq.convexsolve import ITER_LIMIT, OPTIMAL, LpProblem, SolveStatus, solve_lp
from perturbcq.model import (
    PerturbationSpec,
    ProblemInstance,
    active_set,
    catalog,
    feasibility_residual,
)
from perturbcq.poly import Polynomial
from perturbcq.qualification import (
    DEFAULT_CERT_TOL,
    DEFAULT_MARGIN_TOL,
    DEGENERATE,
    FAILS,
    HOLDS,
    SweepConfig,
    check_mfcq_hull,
    check_mfcq_lp,
    equality_gradients_independent,
    sweep_mfcq,
    write_sweep_csv,
)


def diag(alpha):
    return PerturbationSpec.diagonal(alpha)


def hull_distance_grid(G, step=1e-3):
    """Brute-force min of ||G^T lam|| over the simplex, grid resolution `step`."""
    k = G.shape[0]
    if k == 1:
        return float(np.linalg.norm(G[0]))
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    if k == 2:
        lams = np.stack([ticks, 1.0 - ticks], axis=1)
    elif k == 3:
        pairs = [
            (a, c)
            for a in ticks
            for c in np.arange(0.0, 1.0 - a + step / 2, step)
        ]
        lams = np.array([[a, c, 1.0 - a - c] for a, c in pairs])
    else:
        raise ValueError("grid oracle supports k <= 3")
    pts = lams @ G
    return float(np.min(np.linalg.norm(pts, axis=1)))


def hull_distance_faces(G):
    """Exact min of ||G^T lam|| over the simplex by enumerating every support.

    The minimal-support optimum lies in the relative interior of its face,
    where it is the unique minimizer over the face's affine hull; a
    least-squares solve of that face's KKT system therefore returns it.
    """
    k = G.shape[0]
    best = math.inf
    for size in range(1, k + 1):
        for support in itertools.combinations(range(k), size):
            Gs = G[list(support)]
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = 2.0 * Gs @ Gs.T
            kkt[:size, size] = -1.0
            kkt[size, :size] = 1.0
            rhs = np.zeros(size + 1)
            rhs[size] = 1.0
            lam = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:size]
            if np.all(lam >= -1e-12):
                best = min(best, float(np.linalg.norm(Gs.T @ lam)))
    return best


def linear_problem(G):
    """Constraints g_i(x) = G_i . x <= 0, all active at the origin."""
    n = G.shape[1]
    xs = [Polynomial.variable(n, j) for j in range(n)]
    rows = [sum((float(a) * x for a, x in zip(row, xs)), Polynomial.zero(n)) for row in G]
    return ProblemInstance(num_vars=n, inequalities=tuple(rows))


# ---------------------------------------------------------------------------
# equality gradient independence
# ---------------------------------------------------------------------------


def test_independence_empty_family():
    prob = catalog("cusp")
    assert equality_gradients_independent(prob, (0.0, 0.0))


def test_independence_detects_parallel_gradients():
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    prob = ProblemInstance(
        num_vars=2,
        inequalities=(x1 + x2,),
        equalities=(x2, x2 - x1 * x1),  # gradients (0,1) and (-2x1, 1)
    )
    assert not equality_gradients_independent(prob, (0.0, 0.5))
    assert equality_gradients_independent(prob, (1.0, 0.5))


def test_independence_full_rank():
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    prob = ProblemInstance(num_vars=2, inequalities=(x1,), equalities=(x1, x2))
    assert equality_gradients_independent(prob, (0.3, -0.4))


def test_independence_more_equalities_than_vars():
    x1 = Polynomial.variable(1, 0)
    prob = ProblemInstance(num_vars=1, inequalities=(x1,), equalities=(x1, x1 * x1))
    assert not equality_gradients_independent(prob, (0.5,))


@pytest.mark.parametrize("second", ["independent", "dependent"])
def test_certificates_evaluate_equality_jacobian_once(second, monkeypatch):
    x1, x2, x3 = (Polynomial.variable(3, j) for j in range(3))
    h2 = x2 + x1 * x1 if second == "independent" else x3 + x1 * x1
    prob = ProblemInstance(
        num_vars=3,
        inequalities=(x1 + x2 + x3, x1 - x2, -x1 + 0.1 * x3),
        equalities=(x3 - x1 * x2, h2),
    )
    calls = []
    real = poly.evaluate_table

    def counting(E, C, X):
        calls.append(C.shape[1])
        return real(E, C, X)

    monkeypatch.setattr(poly, "evaluate_table", counting)
    for check in (check_mfcq_lp, check_mfcq_hull):
        calls.clear()
        cert = check(prob, diag(0.0), (0.0, 0.0, 0.0))
        # independent: projected onto the complement of span{grad h}, the
        # active gradients are (1,0,0), (1,0,0), (-1,0,0), and zero is in
        # their hull; dependent: the rank test fails the point
        assert cert.verdict == FAILS
        assert cert.active.indices == (0, 1, 2)
        if second == "dependent":
            assert cert.reason == "equality gradients linearly dependent"
        # one evaluation: the values and gradients of the 3 + 2 constraints
        assert calls == [5 + 5 * 3]


# ---------------------------------------------------------------------------
# pointwise certificates
# ---------------------------------------------------------------------------


def test_lp_fails_at_cusp_origin():
    cert = check_mfcq_lp(catalog("cusp"), diag(0.0), (0.0, 0.0))
    assert cert.verdict == FAILS
    assert cert.multipliers == pytest.approx([0.5, 0.5], abs=1e-8)


def test_lp_fails_at_tangent_disc_contact():
    cert = check_mfcq_lp(catalog("tangent_discs"), diag(0.0), (1.0, 0.0))
    assert cert.verdict == FAILS
    assert cert.multipliers == pytest.approx([0.5, 0.5], abs=1e-8)


def test_lp_holds_at_perturbed_cusp_vertex():
    v = 0.1 ** (1.0 / 3.0)
    cert = check_mfcq_lp(catalog("cusp"), diag(0.1), (v, 0.0))
    assert cert.verdict == HOLDS
    assert cert.margin == pytest.approx(3.0 * 0.1 ** (2.0 / 3.0), rel=1e-6)
    # certificate replay: the direction strictly decreases both constraints
    G = np.array([[3 * v**2, 1.0], [3 * v**2, -1.0]])
    y = np.array(cert.direction)
    assert np.all(G @ y <= -cert.margin + 1e-9)
    assert np.max(np.abs(y)) <= 1.0 + 1e-12


def test_lp_single_active_gradient_matches_highs():
    # one active gradient has a closed-form LP optimum; HiGHS is the reference
    rng = np.random.default_rng(5)
    n = 3
    for trial in range(60):
        a = rng.normal(size=n)
        zero = rng.random(n) < 0.3
        zero[trial % n] = False
        a[zero] = 0.0
        if trial % 10 == 0:
            a *= 1e-11  # margin below tol: a certified failure
        g = Polynomial(n, [(float(a[i]), tuple(int(i == j) for j in range(n))) for i in range(n)])
        prob = ProblemInstance(num_vars=n, inequalities=(g, Polynomial.variable(n, 0) - 5.0))
        cert = check_mfcq_lp(prob, diag(0.0), np.zeros(n))
        ref = solve_lp(
            LpProblem(
                c=np.append(np.zeros(n), 1.0),
                A=np.append(a, 1.0)[None, :],
                b=np.zeros(1),
                lo=np.append(-np.ones(n), -np.inf),
                hi=np.append(np.ones(n), np.inf),
                maximize=True,
            )
        )
        assert ref.status == OPTIMAL
        assert cert.active.indices == (0,)
        if trial % 10:
            assert cert.verdict == HOLDS
            assert cert.margin == pytest.approx(ref.objective, rel=1e-12)
            assert cert.direction == tuple(ref.x[:n])
        else:
            # HiGHS drops coefficients this small; both margins are below tol
            # and the dual multiplier of the one row decides the verdict
            assert max(cert.margin, ref.objective) <= DEFAULT_MARGIN_TOL
            assert ref.ineq_duals[0] > 0 and cert.multipliers == (1.0,)
            assert cert.hull_distance == pytest.approx(np.linalg.norm(a), rel=1e-12)
            assert cert.verdict == FAILS
        assert np.all(a @ np.array(cert.direction) <= -cert.margin * (1 - 1e-12))


def test_lp_empty_active_set_holds_with_infinite_margin():
    cert = check_mfcq_lp(catalog("cusp"), diag(0.0), (-1.0, 0.0))
    assert cert.verdict == HOLDS
    assert cert.margin == math.inf


def test_lp_rejects_infeasible_point():
    with pytest.raises(ValueError):
        check_mfcq_lp(catalog("cusp"), diag(0.0), (1.0, 0.0))


@pytest.mark.parametrize("check", [check_mfcq_lp, check_mfcq_hull], ids=["lp", "hull"])
def test_certificates_reject_nonfinite_point(check):
    # a NaN coordinate used to give an empty active set and a HOLDS verdict
    with pytest.raises(ValueError, match="non-finite"):
        check(catalog("cusp"), diag(0.0), np.array([math.nan, 0.0]))


def test_hull_fails_at_cusp_origin():
    cert = check_mfcq_hull(catalog("cusp"), diag(0.0), (0.0, 0.0))
    assert cert.verdict == FAILS
    assert cert.hull_distance == pytest.approx(0.0, abs=1e-9)


def test_hull_fails_at_swallowed_corner():
    prob = catalog("ball_box", n=2, a=(0.4, 0.2))
    cert = check_mfcq_hull(prob, diag(4.6), (-1.0, -1.0))
    assert cert.verdict == FAILS
    # replay the multipliers against the gradients at the corner
    G = np.array([[2.8, 2.4], [-2.0, 0.0], [0.0, -2.0]])
    lam = np.array(cert.multipliers)
    assert lam.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(G.T @ lam) <= 1e-7


def test_hull_single_active_constraint():
    prob = catalog("cusp")
    pt = (-1.0, 1.0)  # only g1 = x1^3 + x2 active: 'holds', distance = ||grad||
    cert = check_mfcq_hull(prob, diag(0.0), pt)
    assert cert.verdict == HOLDS
    assert cert.hull_distance == pytest.approx(math.sqrt(9.0 + 1.0), rel=1e-9)


def test_equality_dependence_forces_failure():
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    prob = ProblemInstance(
        num_vars=2, inequalities=(x1 - 1.0,), equalities=(x2, x2 * 2.0)
    )
    for check in (check_mfcq_lp, check_mfcq_hull):
        cert = check(prob, diag(0.0), (0.0, 0.0))
        assert cert.verdict == FAILS
        assert "dependent" in cert.reason


def test_certificates_with_equalities():
    # h = x2 eliminates the vertical direction; g = x1 still leaves y = -e1
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    prob = ProblemInstance(num_vars=2, inequalities=(x1,), equalities=(x2,))
    lp = check_mfcq_lp(prob, diag(0.0), (0.0, 0.0))
    hull = check_mfcq_hull(prob, diag(0.0), (0.0, 0.0))
    assert lp.verdict == HOLDS and hull.verdict == HOLDS
    # g aligned with h: its gradient lies in span{grad h} and MFCQ fails
    prob2 = ProblemInstance(num_vars=2, inequalities=(x2,), equalities=(x2 - x1 * x1,))
    lp2 = check_mfcq_lp(prob2, diag(0.0), (0.0, 0.0))
    hull2 = check_mfcq_hull(prob2, diag(0.0), (0.0, 0.0))
    assert lp2.verdict == FAILS and hull2.verdict == FAILS


def test_verdict_scale_invariance():
    # scaling g_i (and its bound) by c > 0 must not change any verdict
    cases = [
        (catalog("cusp"), diag(0.0), (0.0, 0.0)),
        (catalog("cusp"), diag(0.0), (-0.5, 0.125)),
        (catalog("ball_box", n=2, a=(0.4, 0.2)), diag(4.6), (-1.0, -1.0)),
    ]
    for prob, pert, pt in cases:
        base = check_mfcq_lp(prob, pert, pt).verdict
        for c in (0.1, 7.0):
            scaled = ProblemInstance(
                num_vars=prob.num_vars,
                inequalities=tuple(g * c for g in prob.inequalities),
                perturbable=prob.perturbable,
                sample_box=prob.sample_box,
            )
            pert_scaled = PerturbationSpec.vector(pert.bounds(prob) * c)
            assert check_mfcq_lp(scaled, pert_scaled, pt).verdict == base


def test_formulations_agree_on_catalog_points():
    rng = np.random.default_rng(2)
    cases = [
        (catalog("cusp"), diag(0.1)),
        (catalog("ball_box", n=2, a=(0.4, 0.2)), diag(6.8)),
        (catalog("tangent_discs"), diag(0.3)),
    ]
    for prob, pert in cases:
        res = sweep_mfcq(prob, pert, SweepConfig(samples=60, seed=int(rng.integers(1e6))))
        for row in res.rows:
            lp = row.certificate
            hull = check_mfcq_hull(prob, pert, np.array(row.x))
            if lp.verdict != DEGENERATE and hull.verdict != DEGENERATE:
                assert lp.verdict == hull.verdict


def test_hull_distance_matches_simplex_grid():
    prob = catalog("ball_box", n=2, a=(0.4, 0.2))
    pert = diag(6.8)
    res = sweep_mfcq(prob, pert, SweepConfig(samples=40, seed=9))
    for row in res.rows:
        cert = check_mfcq_hull(prob, pert, np.array(row.x))
        G = np.array(
            [
                [p.evaluate(np.array(row.x)) for p in prob.inequalities[i].gradient()]
                for i in cert.active.indices
            ]
        )
        assert abs(cert.hull_distance - hull_distance_grid(G)) <= 1e-3


def test_hull_distance_matches_face_enumeration():
    # k > n gradients in R^n are linearly dependent, and affinely dependent
    # when k > n + 1; every third set is shifted so that 0 lies inside its
    # hull, and every third has two parallel gradients
    rng = np.random.default_rng(17)
    fails = 0
    for t in range(240):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(n + 1, 7))
        G = rng.normal(size=(k, n))
        if t % 3 == 1:
            G -= rng.dirichlet(np.ones(k)) @ G
        elif t % 3 == 2:
            G[1] = 2.5 * G[0]
        cert = check_mfcq_hull(linear_problem(G), diag(0.0), np.zeros(n))
        assert abs(cert.hull_distance - hull_distance_faces(G)) <= 1e-9
        if cert.verdict == FAILS:
            fails += 1
            lam = np.array(cert.multipliers)
            assert np.all(lam >= 0.0)
            assert lam.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(G.T @ lam) <= DEFAULT_CERT_TOL
    assert fails >= 80


def test_hull_unconverged_qp_is_degenerate(monkeypatch):
    def unsolved(P, c, total, **kwargs):
        return SolveStatus(status=ITER_LIMIT, x=np.full(len(c), total / len(c)))

    monkeypatch.setattr("perturbcq.qualification.minimize_simplex_qp", unsolved)
    cert = check_mfcq_hull(catalog("cusp"), diag(0.0), (0.0, 0.0))
    assert cert.verdict == DEGENERATE
    assert cert.reason == "hull QP did not converge"


def test_lp_unsolved_is_degenerate(monkeypatch):
    monkeypatch.setattr(
        "perturbcq.qualification.solve_lp", lambda lp: SolveStatus(status=ITER_LIMIT)
    )
    cert = check_mfcq_lp(catalog("cusp"), diag(0.0), (0.0, 0.0))
    assert cert.verdict == DEGENERATE
    assert cert.reason == "MFCQ LP did not solve: iter_limit"
    # a sweep keeps every point: a single active gradient is certified
    # without the LP, and a point whose LP fails is kept as degenerate
    res = sweep_mfcq(
        catalog("cusp"), diag(0.0), SweepConfig(samples=20, seed=0, extra_points=((0.0, 0.0),))
    )
    assert len(res.rows) == 21
    for row in res.rows:
        single = len(row.certificate.active.indices) == 1
        assert row.certificate.verdict == (HOLDS if single else DEGENERATE)
    assert res.rows[-1].certificate.active.indices == (0, 1)


# ---------------------------------------------------------------------------
# boundary sweep
# ---------------------------------------------------------------------------


def test_sweep_perturbed_cusp_all_hold():
    res = sweep_mfcq(catalog("cusp"), diag(0.1), SweepConfig(samples=300, seed=0))
    assert res.status == "ok"
    assert res.all_hold
    assert res.worst_margin > 0


def test_sweep_worst_margin_covers_probe_rows():
    res = sweep_mfcq(
        catalog("cusp"), diag(0.0),
        SweepConfig(samples=20, seed=0, extra_points=((5.0, 5.0), (0.0, 0.0))),
    )
    # the infeasible probe (id 20) is dropped and leaves its id unused
    assert [row.sample_id for row in res.rows] == [*range(20), 21]
    measures = [row.certificate.measure for row in res.rows]
    assert res.worst_margin == min(measures) == measures[-1] < min(measures[:-1])
    empty = sweep_mfcq(catalog("ball_box", n=2, a=(0.4, 0.2)), diag(2.0), SweepConfig(samples=10))
    assert empty.status == "infeasible"
    assert empty.worst_margin == math.inf


def test_sweep_propagates_certificate_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("point is not feasible")

    monkeypatch.setattr("perturbcq.qualification.check_mfcq_lp", broken)
    with pytest.raises(ValueError, match="point is not feasible"):
        sweep_mfcq(catalog("cusp"), diag(0.1), SweepConfig(samples=20, seed=0))


@pytest.fixture
def table_builds(monkeypatch):
    """The number of polynomials of each monomial table built, in order."""
    builds = []
    real = poly._monomial_table

    def counting(polys, num_vars):
        builds.append(len(polys))
        return real(polys, num_vars)

    monkeypatch.setattr(poly, "_monomial_table", counting)
    return builds


def test_single_point_calls_build_the_problem_families_once(table_builds):
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    prob = ProblemInstance(
        num_vars=2, inequalities=(x1 * x1 + x2 * x2 - 1.0,), equalities=(x1 - x2,)
    )
    points = [(t, t) for t in np.linspace(-math.sqrt(0.5), math.sqrt(0.5), 50)]
    for x in points:
        assert check_mfcq_lp(prob, diag(0.0), x).verdict == HOLDS
        assert check_mfcq_hull(prob, diag(0.0), x).verdict == HOLDS
    assert active_set(prob, diag(0.0), points[0]).indices == (0,)
    assert feasibility_residual(prob, diag(0.0), points[1]) == (0.0, 0.0)
    assert equality_gradients_independent(prob, points[1])
    # the values and gradients of [g, h] for the certificates and the rank
    # test, then their values for the point queries: one table each
    assert table_builds == [2 + 2 * 2, 2]


def test_sweep_builds_its_tables_once(table_builds):
    probes = ((0.0, 0.0), (1.0, 1.0), (-1.0, 0.0))  # the middle one is infeasible
    for samples in (20, 200):
        for extra_points in ((), probes):
            table_builds.clear()
            prob = catalog("cusp")
            config = SweepConfig(samples=samples, seed=0, extra_points=extra_points)
            res = sweep_mfcq(prob, diag(0.1), config)
            assert len(res.rows) == samples + 2 * bool(extra_points)
            # the values of g for the rays and probes, and the values and
            # gradients of g for the certificates: one table each, whatever
            # the sample and probe counts
            assert table_builds == [2, 2 + 2 * 2]
            # the problem keeps its families: a second sweep builds none
            sweep_mfcq(prob, diag(-0.1), config)
            assert table_builds == [2, 2 + 2 * 2]


def test_sweep_cusp_probe_point_fails():
    res = sweep_mfcq(
        catalog("cusp"),
        diag(0.0),
        SweepConfig(samples=50, seed=0, extra_points=((0.0, 0.0),)),
    )
    counts = res.verdicts
    assert counts[FAILS] + counts[DEGENERATE] >= 1


def test_sweep_rejects_nonfinite_probe_point():
    config = SweepConfig(samples=5, seed=0, extra_points=((math.nan, 0.0),))
    with pytest.raises(ValueError, match="non-finite"):
        sweep_mfcq(catalog("cusp"), diag(0.1), config)


def test_sweep_regular_ball_box_level():
    prob = catalog("ball_box", n=2, a=(0.4, 0.2))
    res = sweep_mfcq(prob, diag(6.8), SweepConfig(samples=200, seed=4))
    assert res.all_hold


def test_sweep_reports_infeasible():
    prob = catalog("ball_box", n=2, a=(0.4, 0.2))
    # below the first tangency level the feasible set is empty
    res = sweep_mfcq(prob, diag(2.0), SweepConfig(samples=10, seed=0))
    assert res.status == "infeasible"
    assert not res.rows


def test_sweep_rejects_equalities():
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    prob = ProblemInstance(num_vars=2, inequalities=(x1,), equalities=(x2,))
    with pytest.raises(ValueError):
        sweep_mfcq(prob, diag(0.0))


def test_sweep_csv_export(tmp_path):
    res = sweep_mfcq(catalog("cusp"), diag(0.1), SweepConfig(samples=20, seed=0))
    out = tmp_path / "sweep.csv"
    write_sweep_csv(res, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "sample_id,x,verdict,margin_or_distance,active_indices"
    assert len(lines) == 21
