import json
import math
from dataclasses import replace

import numpy as np
import pytest

from perturbcq.model import (
    CATALOG_FAMILIES,
    DocumentError,
    PerturbationSpec,
    ProblemInstance,
    active_set,
    catalog,
    feasibility_residual,
    parse_problem,
    univariate_feasible_intervals,
)
from perturbcq.poly import Polynomial


def diag(alpha):
    return PerturbationSpec.diagonal(alpha)


def test_perturbation_bounds_diagonal_partial():
    prob = catalog("ball_box", n=2, a=(0.4, 0.2))
    b = diag(5.0).bounds(prob)
    assert list(b) == [5.0, 0.0, 0.0]


def test_perturbation_bounds_vector():
    prob = catalog("cusp")
    assert list(PerturbationSpec.vector((0.5, -0.5)).bounds(prob)) == [0.5, -0.5]
    with pytest.raises(ValueError):
        PerturbationSpec.vector((1.0,)).bounds(prob)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_perturbation_rejects_nonfinite_levels(bad):
    with pytest.raises(ValueError, match="finite"):
        PerturbationSpec.diagonal(bad)
    with pytest.raises(ValueError, match="finite"):
        PerturbationSpec.vector((0.0, bad))


@pytest.mark.parametrize("query", [active_set, feasibility_residual])
@pytest.mark.parametrize("point", [(math.nan, 0.0), (0.0, math.inf)])
def test_point_queries_reject_nonfinite_coordinates(query, point):
    with pytest.raises(ValueError, match="non-finite"):
        query(catalog("cusp"), diag(0.0), point)


def test_feasibility_residual_cusp():
    prob = catalog("cusp")
    assert feasibility_residual(prob, diag(0.0), (0.0, 0.0)) == (0.0, 0.0)
    ineq, eq = feasibility_residual(prob, diag(0.0), (1.0, 0.0))
    assert ineq == pytest.approx(1.0, abs=1e-12)
    assert eq == 0.0


def test_feasibility_residual_ball_box_tangency():
    prob = catalog("ball_box", n=2, a=(0.4, 0.2))
    ineq, eq = feasibility_residual(prob, diag(4.6), (-1.0, -1.0))
    assert ineq == pytest.approx(0.0, abs=1e-12)
    assert eq == 0.0


def test_feasibility_residual_dimension_mismatch():
    with pytest.raises(ValueError):
        feasibility_residual(catalog("cusp"), diag(0.0), (0.0,))


def test_active_set_cusp_origin():
    prob = catalog("cusp")
    assert active_set(prob, diag(0.0), (0.0, 0.0), 1e-8).indices == (0, 1)


def test_active_set_cusp_perturbed_vertex():
    prob = catalog("cusp")
    v = 0.1 ** (1.0 / 3.0)
    assert active_set(prob, diag(0.1), (v, 0.0), 1e-8).indices == (0, 1)


def test_active_set_ball_box_corner():
    prob = catalog("ball_box", n=2, a=(0.4, 0.2))
    act = active_set(prob, diag(4.6), (-1.0, -1.0))
    assert act.indices == (0, 1, 2)


def test_active_set_rejects_infeasible_point():
    with pytest.raises(ValueError):
        active_set(catalog("cusp"), diag(0.0), (1.0, 0.0), 1e-8)


def test_catalog_ball_box_structure():
    prob = catalog("ball_box", n=2, a=(0.4, 0.2))
    assert len(prob.inequalities) == 3
    assert [g.degree for g in prob.inequalities] == [2, 2, 2]
    assert prob.perturbable == (0,)


def test_catalog_grid_boxes_structure():
    prob = catalog("grid_boxes", n=2, d=4, a=(0.6, 0.4))
    assert len(prob.inequalities) == 3
    assert sorted(g.degree for g in prob.inequalities) == [2, 8, 8]
    assert prob.perturbable == (0,)


def test_catalog_cusp_structure():
    prob = catalog("cusp")
    assert len(prob.inequalities) == 2
    assert prob.max_degree() == 3


def test_catalog_parameter_validation():
    with pytest.raises(ValueError):
        catalog("grid_boxes", n=1, d=3, a=(0.0,))  # odd d
    with pytest.raises(ValueError):
        catalog("ball_box", n=2, a=(1.2, 0.0))  # center outside open cube
    with pytest.raises(ValueError):
        catalog("no_such_family")


@pytest.mark.parametrize(
    "name, params, missing",
    [
        ("ball_box", {}, "n"),
        ("ball_box", {"a": (0.4, 0.2)}, "n"),
        ("ball_box", {"n": 2}, "a"),
        ("grid_boxes", {"d": 4, "a": (0.5, 0.3)}, "n"),
        ("grid_boxes", {"n": 2, "a": (0.5, 0.3)}, "d"),
        ("grid_boxes", {"n": 2, "d": 4}, "a"),
    ],
)
def test_catalog_missing_parameter_is_named(name, params, missing):
    with pytest.raises(ValueError, match=f"requires parameter '{missing}'"):
        catalog(name, **params)


def test_catalog_families_constructible():
    for name in CATALOG_FAMILIES:
        if name == "ball_box":
            prob = catalog(name, n=2, a=(0.1, -0.2))
        elif name == "grid_boxes":
            prob = catalog(name, n=1, d=2, a=(0.3,))
        else:
            prob = catalog(name)
        assert prob.name == name
        assert len(prob.sample_box) == prob.num_vars


def test_feasible_set_monotone_in_alpha():
    rng = np.random.default_rng(3)
    cases = [
        catalog("cusp"),
        catalog("ball_box", n=2, a=(0.4, 0.2)),
        catalog("grid_boxes", n=1, d=2, a=(0.3,)),
    ]
    for prob in cases:
        box = prob.box_array()
        pts = rng.uniform(box[:, 0], box[:, 1], size=(1000, prob.num_vars))
        lo, hi = 0.5, 2.0
        for pt in pts:
            v_lo, _ = feasibility_residual(prob, diag(lo), pt)
            v_hi, _ = feasibility_residual(prob, diag(hi), pt)
            if v_lo == 0.0:
                assert v_hi == 0.0


def test_intervals_baseline():
    prob = catalog("interval_pair")
    fs = univariate_feasible_intervals(prob, PerturbationSpec.vector((0.0, 0.0)), (-5, 5))
    assert len(fs.intervals) == 1
    assert fs.intervals[0] == pytest.approx((-3.0, -1.0), abs=1e-10)
    assert fs.points == pytest.approx((1.0,), abs=1e-10)


def test_intervals_negative_perturbation_closed_form():
    # bounds mu = (-0.19, -0.75): feasible set [-1 - sqrt(3.25), -sqrt(1.19)]
    prob = catalog("interval_pair")
    fs = univariate_feasible_intervals(
        prob, PerturbationSpec.vector((-0.19, -0.75)), (-5, 5)
    )
    assert len(fs.intervals) == 1 and not fs.points
    assert fs.intervals[0][0] == pytest.approx(-1.0 - math.sqrt(3.25), abs=1e-9)
    assert fs.intervals[0][1] == pytest.approx(-math.sqrt(1.19), abs=1e-9)


def _brute_force_feasible(prob, pert, window, npts=10_000):
    ts = np.linspace(window[0], window[1], npts)
    b = pert.bounds(prob)
    ok = np.ones(npts, dtype=bool)
    for g, bi in zip(prob.inequalities, b):
        ok &= g.evaluate_many(ts[:, None]) <= bi
    return ts, ok


@pytest.mark.parametrize(
    "mu",
    [(0.0, 0.0), (1.0, 1.0), (-0.19, -0.75), (0.5, -0.2), (-0.5, 2.0)],
)
def test_intervals_agree_with_sign_grid(mu):
    prob = catalog("interval_pair")
    pert = PerturbationSpec.vector(mu)
    fs = univariate_feasible_intervals(prob, pert, (-5, 5))
    ts, ok = _brute_force_feasible(prob, pert, (-5, 5))
    endpoints = [e for iv in fs.intervals for e in iv] + list(fs.points)
    for t, feasible in zip(ts, ok):
        if min((abs(t - e) for e in endpoints), default=np.inf) <= 1e-9:
            continue
        assert fs.contains(t, tol=1e-9) == feasible, f"mu={mu}, t={t}"


def test_intervals_wide_perturbation_single_interval():
    prob = catalog("interval_pair")
    fs = univariate_feasible_intervals(prob, PerturbationSpec.vector((1.0, 1.0)), (-5, 5))
    # brute-force grid: a single interval [-1 - sqrt(5), -1 + sqrt(5)]
    assert len(fs.intervals) == 1 and not fs.points
    assert fs.intervals[0][0] == pytest.approx(-1.0 - math.sqrt(5.0), abs=1e-9)
    assert fs.intervals[0][1] == pytest.approx(-1.0 + math.sqrt(5.0), abs=1e-9)


def test_intervals_of_two_close_roots():
    # (t - 1)(t - 1 - d) is -d^2/4 = -6.25e-14 at its minimum: small, yet
    # well above roundoff, so the feasible set is an interval, not a point
    d = 5e-7
    t = Polynomial.variable(1, 0)
    prob = ProblemInstance(
        num_vars=1, inequalities=((t - 1.0) * (t - 1.0 - d),), sample_box=((-5.0, 5.0),)
    )
    fs = univariate_feasible_intervals(prob, diag(0.0), (-5, 5))
    assert not fs.points and len(fs.intervals) == 1
    assert fs.intervals[0] == pytest.approx((1.0, 1.0 + d), abs=1e-9)


def test_intervals_reject_degenerate_window():
    prob = catalog("interval_pair")
    with pytest.raises(ValueError):
        univariate_feasible_intervals(prob, diag(0.0), (2.0, 2.0))


def test_problem_document_round_trip_fields():
    prob = catalog("ball_box", n=2, a=(0.4, 0.2))
    doc = prob.to_document()
    assert doc["perturbable"] == [1]  # 1-based in the document
    assert doc["num_vars"] == 2
    assert len(doc["inequalities"]) == 3


def test_problem_instance_validation():
    g = Polynomial.variable(2, 0)
    with pytest.raises(ValueError):
        ProblemInstance(num_vars=2, inequalities=(g,), perturbable=(5,))
    with pytest.raises(ValueError):
        ProblemInstance(num_vars=2, inequalities=(Polynomial.variable(1, 0),))
    with pytest.raises(ValueError):
        ProblemInstance(num_vars=2, inequalities=(g,), sample_box=((0, 1),))


def test_problem_families_do_not_change_equality_or_documents():
    prob, fresh = catalog("cusp"), catalog("cusp")
    active_set(prob, diag(0.0), (0.0, 0.0))  # builds and keeps a family
    assert prob == fresh and hash(prob) == hash(fresh)
    assert prob.to_document() == fresh.to_document()


CUSP_DOCUMENT = json.dumps(
    {
        "num_vars": 2,
        "inequalities": [
            {"terms": [{"coef": 1.0, "exps": [3, 0]}, {"coef": 1.0, "exps": [0, 1]}]},
            {"terms": [{"coef": 1.0, "exps": [3, 0]}, {"coef": -1.0, "exps": [0, 1]}]},
        ],
        "perturbable": [1, 2],
        "sample_box": [[-2.0, 1.0], [-2.0, 1.0]],
    }
)


@pytest.mark.parametrize(
    "old, new, path",
    [
        ('"coef": 1.0', '"coef": NaN', r"\$\.inequalities\[0\]\.terms\[0\]\.coef"),
        ('"coef": 1.0', '"coef": Infinity', r"\$\.inequalities\[0\]\.terms\[0\]\.coef"),
        ('"coef": 1.0', '"coef": 1e400', r"\$\.inequalities\[0\]\.terms\[0\]\.coef"),
        ('"coef": 1.0', '"coef": 1' + "0" * 400, r"\$\.inequalities\[0\]\.terms\[0\]\.coef"),
        ('"coef": 1.0', '"coef": true', r"\$\.inequalities\[0\]\.terms\[0\]\.coef"),
        ('"num_vars": 2', '"num_vars": true', r"\$\.num_vars"),
        ('"exps": [3, 0]', '"exps": [true, 0]', r"\$\.inequalities\[0\]\.terms\[0\]\.exps\[0\]"),
        ('"perturbable": [1, 2]', '"perturbable": [true, 2]', r"\$\.perturbable\[0\]"),
        ("[-2.0, 1.0]", "[-Infinity, 1.0]", r"\$\.sample_box\[0\]"),
    ],
    ids=["coef-nan", "coef-inf", "coef-1e400", "coef-huge-int", "coef-true", "num-vars-true",
         "exponent-true", "perturbable-true", "box-end-inf"],
)
def test_parse_problem_rejects_nonfinite_numbers_and_booleans(old, new, path):
    assert parse_problem(CUSP_DOCUMENT) == replace(catalog("cusp"), name="")
    with pytest.raises(DocumentError, match=path):
        parse_problem(CUSP_DOCUMENT.replace(old, new, 1))
