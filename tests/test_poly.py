import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perturbcq.poly import (
    Family,
    Monomial,
    Polynomial,
    univariate_real_roots,
)


def x(n, i):
    return Polynomial.variable(n, i)


def test_terms_merged_and_zero_dropped():
    p = Polynomial(2, [(1.0, (1, 0)), (2.0, (1, 0)), (3.0, (0, 0)), (-3.0, (0, 0))])
    assert p.terms == [Monomial(3.0, (1, 0))]


def test_canonical_term_order_is_deterministic():
    p = x(2, 0) * x(2, 1) + x(2, 0) ** 2 + 1.0 + x(2, 1)
    q = 1.0 + x(2, 1) + x(2, 0) ** 2 + x(2, 0) * x(2, 1)
    assert p.terms == q.terms
    degrees = [sum(t.exps) for t in p.terms]
    assert degrees == sorted(degrees, reverse=True)


def test_degree_conventions():
    assert Polynomial.zero(3).degree == 0
    assert Polynomial.constant(3, 5.0).degree == 0
    assert (x(2, 0) ** 3 + x(2, 1)).degree == 3


def test_evaluate_zero_case():
    p = x(2, 0) ** 3 + x(2, 1)
    assert p.evaluate([0.0, 0.0]) == 0.0


def test_evaluate_ball_function_at_corner():
    # 4n - sum (x_i - a_i)^2 at n=2, a=(0.4, 0.2), x=(-1,-1): 8 - 3.4
    n, a = 2, (0.4, 0.2)
    p = Polynomial.constant(n, 4.0 * n)
    for i in range(n):
        p = p - (x(n, i) - a[i]) * (x(n, i) - a[i])
    assert p.evaluate([-1.0, -1.0]) == pytest.approx(4.6, abs=1e-12)


def test_evaluate_interval_grid_polynomial():
    # (t^2 - 1)(t^2 - 4) at t = 0
    t = x(1, 0)
    q2 = (t * t - 1.0) * (t * t - 4.0)
    assert q2.evaluate([0.0]) == pytest.approx(4.0, abs=1e-12)


def test_evaluate_dimension_mismatch():
    with pytest.raises(ValueError):
        (x(2, 0) + x(2, 1)).evaluate([1.0])


def test_evaluate_many_matches_evaluate():
    rng = np.random.default_rng(1)
    p = x(3, 0) ** 2 * x(3, 2) - 2.0 * x(3, 1) + 0.5
    pts = rng.normal(size=(20, 3))
    batched = p.evaluate_many(pts)
    for row, val in zip(pts, batched):
        assert val == pytest.approx(p.evaluate(row), abs=1e-12)


def test_gradient_monomial_rule():
    p = x(2, 0) ** 3 + x(2, 1)
    gx, gy = p.gradient()
    assert gx == 3.0 * x(2, 0) ** 2
    assert gy == Polynomial.constant(2, 1.0)


def test_gradient_of_constant_is_zero():
    for comp in Polynomial.constant(3, 7.0).gradient():
        assert comp.is_zero


def test_gradient_of_ball_function():
    n, a = 2, (0.4, 0.2)
    p = Polynomial.constant(n, 4.0 * n)
    for i in range(n):
        p = p - (x(n, i) - a[i]) * (x(n, i) - a[i])
    pt = [0.7, -0.3]
    grad = [g.evaluate(pt) for g in p.gradient()]
    expected = [-2.0 * (pt[i] - a[i]) for i in range(n)]
    assert grad == pytest.approx(expected, abs=1e-12)


def _random_poly(rng, n, degree, nterms):
    terms = []
    for _ in range(nterms):
        exps = rng.integers(0, degree + 1, size=n)
        while exps.sum() > degree:
            exps = rng.integers(0, degree + 1, size=n)
        terms.append((float(rng.normal()), tuple(int(e) for e in exps)))
    return Polynomial(n, terms)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    h = 1e-5
    for _ in range(100):
        n = int(rng.integers(1, 5))
        p = _random_poly(rng, n, degree=int(rng.integers(1, 7)), nterms=6)
        grad = p.gradient()
        pt = rng.uniform(-1, 1, size=n)
        for k in range(n):
            e = np.zeros(n)
            e[k] = h
            fd = (p.evaluate(pt + e) - p.evaluate(pt - e)) / (2 * h)
            exact = grad[k].evaluate(pt)
            assert fd == pytest.approx(exact, abs=1e-5 * (1 + abs(exact)))


def test_hessian_is_symmetric():
    p = x(2, 0) ** 3 * x(2, 1) + x(2, 1) ** 2
    H = p.hessian()
    pt = [0.3, -0.7]
    assert H[0][1].evaluate(pt) == pytest.approx(H[1][0].evaluate(pt), abs=1e-12)


@st.composite
def _polys_and_points(draw, max_degree=4):
    """1-3 polynomials in n = 1..4 variables of degree <= max_degree, and
    1-5 points in [-2, 2]^n."""
    n = draw(st.integers(1, 4))

    def exponents():
        left, out = max_degree, []
        for _ in range(n):
            e = draw(st.integers(0, left))
            out.append(e)
            left -= e
        return tuple(draw(st.permutations(out)))

    coef = st.floats(-10.0, 10.0, allow_nan=False)
    polys = [
        Polynomial(n, [(draw(coef), exponents()) for _ in range(draw(st.integers(0, 6)))])
        for _ in range(draw(st.integers(1, 3)))
    ]
    coord = st.floats(-2.0, 2.0, allow_nan=False)
    X = np.array([[draw(coord) for _ in range(n)] for _ in range(draw(st.integers(1, 5)))])
    return polys, X


def _assert_close(got, ref, scale):
    # 1e-12 relative to the size of the terms summed (|coefs| at |x|)
    assert abs(got - ref) <= 1e-12 * max(1.0, scale)


@settings(max_examples=150, deadline=None)
@given(_polys_and_points())
def test_batch_evaluators_match_fresh_derivatives(case):
    polys, X = case
    S, n = X.shape
    vals, jac, hess = Family(polys, n, 2)(X)
    assert Family(polys, n)(X)[1:] == (None, None)
    assert vals.shape == (S, len(polys))
    assert jac.shape == (S, len(polys), n)
    assert hess.shape == (S, len(polys), n, n)
    for s, x in enumerate(X):
        for i, p in enumerate(polys):
            _assert_close(vals[s, i], p.evaluate(x), p.evaluate_abs(x))
            for a in range(n):
                da = p.derivative(a)
                _assert_close(jac[s, i, a], da.evaluate(x), da.evaluate_abs(x))
                for b in range(n):
                    dab = da.derivative(b)
                    _assert_close(hess[s, i, a, b], dab.evaluate(x), dab.evaluate_abs(x))
    for p in polys:
        grad = p.gradient()
        grad[0] = Polynomial.constant(p.num_vars, 99.0)
        grad.append(Polynomial.zero(p.num_vars))
        assert p.gradient() == [p.derivative(k) for k in range(p.num_vars)]


def test_derivatives_built_once_per_polynomial():
    p = x(2, 0) ** 3 * x(2, 1)
    assert all(a is b for a, b in zip(p.gradient(), p.gradient()))
    assert p.hessian()[0][1] is p.hessian()[0][1]


def test_batch_evaluators_of_no_polynomials():
    vals, jac, hess = Family([], 3, 2)(np.zeros((4, 3)))
    assert vals.shape == (4, 0)
    assert jac.shape == (4, 0, 3)
    assert hess.shape == (4, 0, 3, 3)


def test_monomial_table_keeps_each_polynomial_in_its_column():
    p = x(2, 0) ** 2 + x(2, 1)
    q = 3.0 * x(2, 0) ** 2
    family = Family([p, Polynomial.zero(2), q], 2)
    # the monomial x0^2 shared by p and q keeps one row per polynomial
    assert family._E.tolist() == [[2, 0], [0, 1], [2, 0]]
    assert family._C.tolist() == [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 3.0]]
    X = np.array([[0.5, -2.0], [3.0, 1.0]])
    assert family(X)[0].tolist() == [[-1.75, 0.0, 0.75], [10.0, 0.0, 27.0]]
    with pytest.raises(ValueError, match="expected 2"):
        Family([p, x(3, 0)], 2)
    with pytest.raises(ValueError, match="expected shape"):
        family(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="order"):
        Family([p], 2, order=3)


def test_arithmetic_identities():
    p = x(2, 0) ** 2 - x(2, 1)
    q = 2.0 * x(2, 1) + 1.0
    pt = np.array([0.6, -1.2])
    assert (p + q).evaluate(pt) == pytest.approx(p.evaluate(pt) + q.evaluate(pt))
    assert (p - q).evaluate(pt) == pytest.approx(p.evaluate(pt) - q.evaluate(pt))
    assert (p * q).evaluate(pt) == pytest.approx(p.evaluate(pt) * q.evaluate(pt))
    assert (p ** 3).evaluate(pt) == pytest.approx(p.evaluate(pt) ** 3)
    assert (3.0 - p).evaluate(pt) == pytest.approx(3.0 - p.evaluate(pt))


def test_json_round_trip():
    p = x(3, 0) ** 2 * x(3, 1) - 0.25 * x(3, 2) + 4.0
    assert Polynomial.from_json_dict(3, p.to_json_dict()) == p


def test_roots_simple_quadratics():
    t = x(1, 0)
    assert univariate_real_roots(1.0 - t * t, -5, 5) == pytest.approx([-1.0, 1.0], abs=1e-10)
    assert univariate_real_roots((t + 1.0) ** 2 - 4.0, -5, 5) == pytest.approx(
        [-3.0, 1.0], abs=1e-10
    )


def test_roots_quartic_grid():
    t = x(1, 0)
    q2 = (t * t - 1.0) * (t * t - 4.0)
    assert univariate_real_roots(q2, -5, 5) == pytest.approx(
        [-2.0, -1.0, 1.0, 2.0], abs=1e-10
    )


def test_roots_respect_interval():
    t = x(1, 0)
    q2 = (t * t - 1.0) * (t * t - 4.0)
    assert univariate_real_roots(q2, 0, 1.5) == pytest.approx([1.0], abs=1e-10)


def test_roots_even_multiplicity():
    t = x(1, 0)
    p = (t - 0.5) ** 2 * (t + 1.0)
    assert univariate_real_roots(p, -5, 5) == pytest.approx([-1.0, 0.5], abs=1e-8)


def test_roots_planted_integer_roots():
    rng = np.random.default_rng(7)
    t = x(1, 0)
    for _ in range(30):
        planted = sorted(rng.choice(np.arange(-4, 5), size=int(rng.integers(1, 5)), replace=False))
        p = Polynomial.constant(1, 1.0)
        for root in planted:
            p = p * (t - float(root))
        found = univariate_real_roots(p, -5, 5)
        assert found == pytest.approx([float(v) for v in planted], abs=1e-10)


def test_roots_with_a_double_root_are_each_found_once():
    # seeded draws: degree 3-7, roots uniform on [-2, 2], the first doubled;
    # stepping from an accepted root, or bisecting next to a double root,
    # gave a spurious or repeated root in most of these draws
    rng = np.random.default_rng(0)
    t = x(1, 0)
    for _ in range(200):
        roots = rng.uniform(-2.0, 2.0, size=int(rng.integers(3, 8)) - 1)
        p = t - float(roots[0])
        for r in roots:
            p = p * (t - float(r))
        found = univariate_real_roots(p, -3.0, 3.0)
        assert found == pytest.approx(sorted(roots), abs=1e-9)


def test_roots_of_a_close_pair_are_both_found():
    # p is -1.6e-11 and -6.25e-14 at the critical point between the close
    # roots: small, but above roundoff, so that point is not a root
    t = x(1, 0)
    p = (t - 1.0) * (t - 1.000005) * (t + 1.5)
    assert univariate_real_roots(p, -5, 5) == pytest.approx([-1.5, 1.0, 1.000005], abs=1e-9)
    p = (t - 1.0) * (t - 1.0000005)
    assert univariate_real_roots(p, -5, 5) == pytest.approx([1.0, 1.0000005], abs=1e-9)


def test_roots_reject_bad_input():
    with pytest.raises(ValueError):
        univariate_real_roots(Polynomial.zero(1), -1, 1)
    with pytest.raises(ValueError):
        univariate_real_roots(x(2, 0) + x(2, 1), -1, 1)
