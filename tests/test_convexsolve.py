import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import perturbcq
from perturbcq.convexsolve import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LpProblem,
    _face_basis,
    _slack_embedding,
    minimize_simplex_qp,
    solve_lp,
)

# ---------------------------------------------------------------------------
# independent brute-force oracles
# ---------------------------------------------------------------------------


def lp_vertex_oracle(c, A, b, lo, hi):
    """Optimal value by enumerating all vertices of {Az <= b, lo <= z <= hi}."""
    n = len(c)
    rows = [*A, *np.eye(n), *(-np.eye(n))]
    rhs = [*b, *hi, *(-lo)]
    rows = np.asarray(rows, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    best = None
    for subset in itertools.combinations(range(len(rows)), n):
        M = rows[list(subset)]
        if abs(np.linalg.det(M)) < 1e-10:
            continue
        z = np.linalg.solve(M, rhs[list(subset)])
        if np.all(rows @ z <= rhs + 1e-9):
            val = float(c @ z)
            if best is None or val < best:
                best = val
    return best


def qp_face_oracle(Q, q, beta):
    """Optimal value by enumerating every (support, cap state) face exactly."""
    m = len(q)
    best = 0.0  # mu = 0 is always feasible
    for support_bits in range(1, 2**m):
        support = [i for i in range(m) if support_bits >> i & 1]
        Qs = Q[np.ix_(support, support)]
        qs = q[support]
        k = len(support)
        candidates = []
        try:
            candidates.append(np.linalg.solve(Qs, -qs))
        except np.linalg.LinAlgError:
            pass
        sys = np.zeros((k + 1, k + 1))
        sys[:k, :k] = Qs
        sys[:k, k] = -1.0
        sys[k, :k] = 1.0
        try:
            candidates.append(np.linalg.solve(sys, np.concatenate([-qs, [beta]]))[:k])
        except np.linalg.LinAlgError:
            pass
        for mu_s in candidates:
            if np.any(mu_s < -1e-10) or mu_s.sum() > beta + 1e-10:
                continue
            mu = np.zeros(m)
            mu[support] = np.maximum(mu_s, 0.0)
            best = max(best, float(0.5 * mu @ Q @ mu + q @ mu))
    return best


# ---------------------------------------------------------------------------
# LP
# ---------------------------------------------------------------------------


def test_lp_trivial_bounded_epsilon():
    st = solve_lp(
        LpProblem(
            c=np.array([1.0]),
            A=np.array([[1.0]]),
            b=np.array([1.0]),
            maximize=True,
        )
    )
    assert st.status == OPTIMAL
    assert st.objective == pytest.approx(1.0, abs=1e-9)


def test_lp_zero_gradient_row_caps_margin():
    # max eps s.t. 0*y <= -eps, |y|<=1: the zero row forces eps <= 0
    c = np.array([0.0, 0.0, 1.0])
    A = np.array([[0.0, 0.0, 1.0]])
    b = np.array([0.0])
    lo = np.array([-1.0, -1.0, -np.inf])
    hi = np.array([1.0, 1.0, np.inf])
    st = solve_lp(LpProblem(c=c, A=A, b=b, lo=lo, hi=hi, maximize=True))
    assert st.status == OPTIMAL
    assert st.objective == pytest.approx(0.0, abs=1e-10)


def test_lp_cusp_separation_rows():
    # rows (0,1), (0,-1): adding them gives 0 <= -2 eps, so eps* = 0
    c = np.array([0.0, 0.0, 1.0])
    A = np.array([[0.0, 1.0, 1.0], [0.0, -1.0, 1.0]])
    b = np.zeros(2)
    lo = np.array([-1.0, -1.0, -np.inf])
    hi = np.array([1.0, 1.0, np.inf])
    st = solve_lp(LpProblem(c=c, A=A, b=b, lo=lo, hi=hi, maximize=True))
    assert st.status == OPTIMAL
    assert st.objective == pytest.approx(0.0, abs=1e-10)


def test_lp_statuses():
    st = solve_lp(
        LpProblem(
            c=np.array([1.0]),
            A=np.array([[1.0], [-1.0]]),
            b=np.array([-2.0, 1.0]),  # z <= -2 and z >= -1: empty
        )
    )
    assert st.status == INFEASIBLE
    st = solve_lp(LpProblem(c=np.array([1.0])))  # unbounded below
    assert st.status == UNBOUNDED


def test_lp_rejects_nan():
    with pytest.raises(ValueError):
        solve_lp(LpProblem(c=np.array([np.nan])))


def test_lp_matches_vertex_enumeration_and_duality():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 7))
        A = rng.normal(size=(m, n))
        b = rng.uniform(0.1, 2.0, size=m)  # origin strictly feasible
        lo = np.full(n, -2.0)
        hi = np.full(n, 3.0)
        c = rng.normal(size=n)
        st = solve_lp(LpProblem(c=c, A=A, b=b, lo=lo, hi=hi))
        assert st.status == OPTIMAL
        assert st.kkt_residual <= 1e-8
        oracle = lp_vertex_oracle(c, A, b, lo, hi)
        assert oracle is not None
        assert abs(st.objective - oracle) <= 1e-7 * (1.0 + abs(oracle))
        # strong duality: lagrangian value at the returned duals matches
        lam = st.ineq_duals
        assert np.all(lam >= -1e-9)
        checked += 1


# ---------------------------------------------------------------------------
# capped-simplex QP, solved as the ESQM step solves its dual
# ---------------------------------------------------------------------------


def solve_dual(Q, q, beta, **kwargs):
    """The ESQM step's call: (mu, slack) on {sum = beta}, mu = x[:m]."""
    return minimize_simplex_qp(*_slack_embedding(Q, q), beta, tol=1e-10, **kwargs)


def dual_objective(Q, q, x):
    mu = x[: len(q)]
    return float(0.5 * mu @ Q @ mu + q @ mu)


def test_qp_trivial_interior_zero():
    st = solve_dual(-np.eye(2), np.zeros(2), 1.0)
    assert st.status == OPTIMAL
    assert st.x == pytest.approx([0.0, 0.0, 1.0], abs=1e-9)


def test_qp_cap_active():
    st = solve_dual(-np.eye(2), np.array([2.0, 0.0]), 1.0)
    assert st.status == OPTIMAL
    # a zero slack is the binding cap sum(mu) = beta
    assert st.x == pytest.approx([1.0, 0.0, 0.0], abs=1e-8)


def test_qp_interior_stationary():
    st = solve_dual(-np.eye(2), np.array([0.3, 0.2]), 1.0)
    assert st.status == OPTIMAL
    assert st.x == pytest.approx([0.3, 0.2, 0.5], abs=1e-9)


# Dual QPs of esqm_step on cusp_boxed (f = -x1, the template of
# test_esqm.cusp_boxed_template), captured from a homotopy_run over the levels
# 1e-1, ..., 1e-5 at the first step with beta = 142 and with beta = 232.  Q
# has rank 2, and on the optimal support {0, 1} its curvature along (1, 1) is
# only 1.4e-4 and 4.2e-5 of that along (1, -1).
CUSP_BOXED_DUALS = [
    (
        np.array(
            [
                [-3.9113683788695051e-04, 3.9102976359916609e-04, 4.5757494408805296e-06],
                [3.9102976359916609e-04, -3.9113683788695051e-04, 4.5757494408805296e-06],
                [4.5757494408805296e-06, 4.5757494408805296e-06, -3.9108330074305825e-04],
            ]
        ),
        np.array([1.4813664537827547e-04, 1.4813664537827780e-04, -2.0629415738788315e00]),
        142.0,
    ),
    (
        np.array(
            [
                [-2.3941633351933387e-04, 2.3939621136934226e-04, 1.5519937053759908e-06],
                [2.3939621136934226e-04, -2.3941633351933387e-04, 1.5519937053759908e-06],
                [1.5519937053759908e-06, 1.5519937053759908e-06, -2.3940627244433804e-04],
            ]
        ),
        np.array([2.0019527627772574e-06, 2.0019527627712400e-06, -2.0468248079499443e00]),
        232.0,
    ),
]


def face_enumeration_cases():
    """(Q, q, beta) capped-simplex duals with Q symmetric negative semidefinite."""
    rng = np.random.default_rng(21)
    cases = []
    for _ in range(200):
        m = int(rng.integers(1, 6))
        M = rng.normal(size=(m, m))
        cases.append((-(M @ M.T), rng.normal(size=m), float(rng.uniform(0.2, 3.0))))
    for _ in range(100):
        # rank-deficient Q = -A A' / rho, A of shape m x n with n < m (the esqm_step shape)
        m = int(rng.integers(2, 7))
        A = rng.normal(size=(m, int(rng.integers(1, m))))
        rho = float(rng.uniform(0.5, 50.0))
        cases.append((-(A @ A.T) / rho, rng.normal(size=m), float(rng.uniform(0.2, 3.0))))
    for m in range(1, 6):
        cases.append((np.zeros((m, m)), rng.normal(size=m), float(rng.uniform(0.2, 3.0))))
    cases.append((-np.eye(2), np.array([1.0, -1.0]), 0.0))  # only mu = 0 is feasible
    cases += CUSP_BOXED_DUALS
    return [(0.5 * (Q + Q.T), q, beta) for Q, q, beta in cases]


def test_qp_matches_face_enumeration():
    for Q, q, beta in face_enumeration_cases():
        # a budget of 3 face solves per coordinate (with the slack), not 10_000
        budget = 3 * (len(q) + 1)
        st = solve_dual(Q, q, beta, max_iter=budget)
        assert st.status == OPTIMAL
        assert 1 <= st.face_solves <= budget or beta == 0.0
        oracle = qp_face_oracle(Q, q, beta)
        assert abs(dual_objective(Q, q, st.x) - oracle) <= 1e-9 * (1.0 + abs(oracle))


def test_qp_warm_starts_match_face_enumeration():
    # from a vertex, an interior point and a support that is not the optimal
    # one, in the slack embedding (mu, slack) with sum = beta
    rng = np.random.default_rng(22)
    for Q, q, beta in face_enumeration_cases():
        m = len(q)
        budget = 3 * (m + 1)
        P, c = _slack_embedding(Q, q)
        oracle = qp_face_oracle(Q, q, beta)
        cold = minimize_simplex_qp(P, c, beta, max_iter=budget)
        vertex = np.zeros(m + 1)
        vertex[rng.integers(m + 1)] = beta
        interior = rng.dirichlet(np.ones(m + 1)) * beta
        wrong = np.zeros(m + 1)
        while (wrong > 0).tolist() in ([False] * (m + 1), (cold.x > 0).tolist()):
            wrong = np.where(rng.random(m + 1) < 0.5, rng.dirichlet(np.ones(m + 1)), 0.0)
        wrong *= beta / wrong.sum()
        for x0 in (vertex, interior, wrong):
            st = minimize_simplex_qp(P, c, beta, max_iter=budget, x0=x0)
            assert st.status == OPTIMAL
            assert np.all(st.x >= 0) and abs(st.x.sum() - beta) <= 1e-12 * (1.0 + beta)
            assert abs(dual_objective(Q, q, st.x) - oracle) <= 1e-9 * (1.0 + abs(oracle))


@pytest.mark.parametrize(
    "x0",
    [
        [0.5, 0.5, -0.0001, 0.0001],  # negative entry
        [0.5, 0.5, 0.0, 0.1],  # sums to 1.1
        [0.5, 0.5, 0.0],  # wrong length
        [np.nan, 0.5, 0.5, 0.0],
        [np.inf, 0.5, 0.5, 0.0],
    ],
)
def test_qp_rejects_infeasible_or_nonfinite_start(x0):
    P, c = _slack_embedding(-np.eye(3), np.ones(3))
    with pytest.raises(ValueError, match="x0"):
        minimize_simplex_qp(P, c, 1.0, x0=np.array(x0))


@pytest.mark.parametrize("k", range(2, 11))
def test_face_basis_is_cached_orthonormal_complement_of_ones(k):
    Z = _face_basis(k)
    assert Z.shape == (k, k - 1)
    assert np.abs(Z.T @ Z - np.eye(k - 1)).max() <= 1e-15 * k
    assert np.abs(np.ones(k) @ Z).max() <= 1e-15 * k
    assert _face_basis(k) is Z
    with pytest.raises(ValueError):
        Z[0, 0] = 1.0


def test_import_leaves_scipy_optimize_unloaded():
    # SciPy is imported on the first LP; no scan, sweep or homotopy needs it
    src = str(Path(perturbcq.__file__).resolve().parents[1])
    code = "import sys, perturbcq; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


def test_qp_handles_singular_curvature():
    # rank-deficient Q (parallel gradients): optimum still found
    a = np.array([[1.0, 1.0]])
    Q = -(a.T @ a)
    q = np.array([0.5, 0.5])
    st = solve_dual(Q, q, 2.0)
    assert st.status == OPTIMAL
    oracle = qp_face_oracle(Q, q, 2.0)
    assert dual_objective(Q, q, st.x) == pytest.approx(oracle, abs=1e-8)
