"""Sparse multivariate polynomials: arithmetic, evaluation, differentiation,
and real-root isolation for the univariate case."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Monomial",
    "Polynomial",
    "Family",
    "evaluate_table",
    "univariate_real_roots",
]


@dataclass(frozen=True)
class Monomial:
    """One term coef * prod(x_i ** exps[i])."""

    coef: float
    exps: tuple[int, ...]


class Polynomial:
    """Immutable sparse polynomial in ``num_vars`` real variables.

    Terms are kept merged (no duplicate exponent vectors), zero coefficients
    dropped, and stored in descending graded-lexicographic order so that
    serialization and floating-point accumulation are reproducible.
    The zero polynomial has no terms and degree 0 by convention.
    The partial derivatives are built on first use and kept.
    """

    __slots__ = ("num_vars", "_coefs", "_exps", "_grad")

    def __init__(self, num_vars: int, terms=()):
        if num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        merged: dict[tuple[int, ...], float] = {}
        for coef, exps in terms:
            exps = tuple(int(e) for e in exps)
            if len(exps) != num_vars:
                raise ValueError(
                    f"exponent vector {exps} has length {len(exps)}, expected {num_vars}"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            merged[exps] = merged.get(exps, 0.0) + float(coef)
        # descending graded-lex: total degree first, then lexicographic
        order = sorted(merged, key=lambda e: (sum(e), e), reverse=True)
        order = [e for e in order if merged[e] != 0.0]
        self._coefs = np.array([merged[e] for e in order], dtype=float)
        self._exps = (
            np.array(order, dtype=np.int64)
            if order
            else np.zeros((0, num_vars), dtype=np.int64)
        )
        self.num_vars = num_vars
        self._grad = None

    # construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> "Polynomial":
        return cls(num_vars, ())

    @classmethod
    def constant(cls, num_vars: int, value: float) -> "Polynomial":
        return cls(num_vars, [(value, (0,) * num_vars)])

    @classmethod
    def variable(cls, num_vars: int, index: int) -> "Polynomial":
        if not 0 <= index < num_vars:
            raise ValueError("variable index out of range")
        exps = [0] * num_vars
        exps[index] = 1
        return cls(num_vars, [(1.0, exps)])

    @property
    def terms(self) -> list[Monomial]:
        return [
            Monomial(float(c), tuple(int(x) for x in e))
            for c, e in zip(self._coefs, self._exps)
        ]

    @property
    def is_zero(self) -> bool:
        return len(self._coefs) == 0

    @property
    def degree(self) -> int:
        if self.is_zero:
            return 0
        return int(self._exps.sum(axis=1).max())

    # arithmetic -----------------------------------------------------------

    def _as_terms(self):
        return zip(self._coefs, map(tuple, self._exps))

    def __add__(self, other):
        other = self._coerce(other)
        return Polynomial(self.num_vars, list(self._as_terms()) + list(other._as_terms()))

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Polynomial(self.num_vars, [(-c, e) for c, e in self._as_terms()])

    def __sub__(self, other):
        return self.__add__(self._coerce(other).__neg__())

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        if np.isscalar(other):
            return Polynomial(self.num_vars, [(c * other, e) for c, e in self._as_terms()])
        other = self._coerce(other)
        terms = []
        for c1, e1 in self._as_terms():
            for c2, e2 in other._as_terms():
                terms.append((c1 * c2, tuple(a + b for a, b in zip(e1, e2))))
        return Polynomial(self.num_vars, terms)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(self.num_vars, 1.0)
        for _ in range(n):
            out = out * self
        return out

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.num_vars != self.num_vars:
                raise ValueError("num_vars mismatch")
            return other
        if np.isscalar(other):
            return Polynomial.constant(self.num_vars, float(other))
        raise TypeError(f"cannot combine Polynomial with {type(other)!r}")

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.num_vars == other.num_vars
            and self._exps.shape == other._exps.shape
            and np.array_equal(self._exps, other._exps)
            and np.array_equal(self._coefs, other._coefs)
        )

    def __hash__(self):
        return hash((self.num_vars, self._exps.tobytes(), self._coefs.tobytes()))

    def __repr__(self):
        if self.is_zero:
            return "Polynomial(0)"
        parts = []
        for c, e in self._as_terms():
            mono = "*".join(f"x{i}^{p}" for i, p in enumerate(e) if p) or "1"
            parts.append(f"{c:g}*{mono}")
        return "Polynomial(" + " + ".join(parts) + ")"

    # evaluation and differentiation ----------------------------------------

    def evaluate(self, x) -> float:
        """Evaluate at a point."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.num_vars,):
            raise ValueError(
                f"point has shape {x.shape}, expected ({self.num_vars},)"
            )
        return float(self.evaluate_many(x[None, :])[0])

    def evaluate_many(self, X) -> np.ndarray:
        """Evaluate at many points at once; X has shape (npoints, num_vars)."""
        return evaluate_table(self._exps, self._coefs[:, None], X)[:, 0]

    def evaluate_abs(self, x) -> float:
        """Evaluate with absolute coefficients and |x|; bounds roundoff scale."""
        x = np.abs(np.asarray(x, dtype=float))
        return float(evaluate_table(self._exps, np.abs(self._coefs)[:, None], x[None, :])[0, 0])

    def derivative(self, var: int) -> "Polynomial":
        if not 0 <= var < self.num_vars:
            raise ValueError("variable index out of range")
        terms = []
        for c, e in self._as_terms():
            if e[var] > 0:
                new = list(e)
                new[var] -= 1
                terms.append((c * e[var], tuple(new)))
        return Polynomial(self.num_vars, terms)

    def gradient(self) -> list["Polynomial"]:
        """Partial derivatives, built once; each call returns a fresh list."""
        if self._grad is None:
            self._grad = tuple(self.derivative(k) for k in range(self.num_vars))
        return list(self._grad)

    def hessian(self) -> list[list["Polynomial"]]:
        return [g.gradient() for g in self.gradient()]

    # serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {"coef": float(c), "exps": [int(x) for x in e]}
                for c, e in self._as_terms()
            ]
        }

    @classmethod
    def from_json_dict(cls, num_vars: int, data: dict) -> "Polynomial":
        return cls(num_vars, [(t["coef"], t["exps"]) for t in data["terms"]])


# batch evaluation: the one way the package evaluates constraints and their
# derivatives.  A Family stacks its polynomials, and up to its order their
# partial derivatives, into one monomial table; one kernel call evaluates
# them all.  X has shape (S, num_vars); single points pass x[None, :].


def _monomial_table(polys, num_vars: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack polynomials into exponent rows E (T, num_vars), each polynomial's
    own terms in turn, and coefficients C (T, len(polys)) holding polynomial
    j's coefficients in column j.  A monomial shared by several polynomials
    keeps one row per polynomial: merging them costs more than it saves."""
    counts = [len(p._coefs) for p in polys]
    E = np.empty((sum(counts), num_vars), dtype=np.int64)
    C = np.zeros((len(E), len(counts)))
    start = 0
    for j, (p, count) in enumerate(zip(polys, counts)):
        if p.num_vars != num_vars:
            raise ValueError(f"polynomial in {p.num_vars} variables, expected {num_vars}")
        E[start : start + count] = p._exps
        C[start : start + count, j] = p._coefs
        start += count
    return E, C


def evaluate_table(E, C, X) -> np.ndarray:
    """Values (S, C.shape[1]) of the polynomials stacked as (E, C) at the
    points X (S, n): column j is sum_t C[t, j] prod_i X[:, i] ** E[t, i].
    The powers are built by repeated products, once per call."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != E.shape[1]:
        raise ValueError(f"expected shape (n, {E.shape[1]}), got {X.shape}")
    powers = np.empty((int(E.max(initial=0)) + 1, *X.shape))
    powers[0] = 1.0
    for d in range(1, len(powers)):
        np.multiply(powers[d - 1], X, out=powers[d])
    if not X.shape[1]:
        return np.ones((len(X), len(E))) @ C
    monomials = powers[E[:, 0], :, 0]
    for i in range(1, X.shape[1]):
        monomials *= powers[E[:, i], :, i]
    return monomials.T @ C


class Family:
    """m polynomials in num_vars variables evaluated together: their values
    and, up to ``order`` (0, 1 or 2), their gradients and Hessians.

    Everything is stacked into one monomial table at construction, so
    ``family(X)`` is one ``evaluate_table`` call.  Second partials are
    stacked once per unordered pair (cached partials, upper triangle) and
    the table's coefficient columns repeat them in both mirror positions.
    """

    def __init__(self, polys, num_vars: int, order: int = 0):
        if order not in (0, 1, 2):
            raise ValueError("order must be 0, 1 or 2")
        polys = list(polys)
        m, n = len(polys), num_vars
        self.size, self.num_vars, self.order = m, n, order
        stacked = polys
        if order >= 1:
            stacked = stacked + [d for p in polys for d in p.gradient()]
        if order == 2:
            rows, cols = np.triu_indices(n)
            stacked = stacked + [p.hessian()[a][b] for p in polys for a, b in zip(rows, cols)]
        self._E, C = _monomial_table(stacked, n)
        if order == 2:
            # the Hessian block repeats the column of each stacked second
            # partial (i, a, b), a <= b, at both (i, a, b) and (i, b, a)
            upper = np.empty((n, n), dtype=np.int64)
            upper[rows, cols] = upper[cols, rows] = np.arange(len(rows))
            mirrored = m + m * n + (np.arange(m)[:, None] * len(rows) + upper.ravel()).ravel()
            C = np.hstack([C[:, : m + m * n], C[:, mirrored]])
        self._C = C

    def __call__(self, X):
        """(values (S, m), gradients (S, m, n) or None, Hessians (S, m, n, n)
        or None) at the points X (S, num_vars)."""
        out = evaluate_table(self._E, self._C, X)
        S, m, n = len(out), self.size, self.num_vars
        grads = out[:, m : m + m * n].reshape(S, m, n) if self.order >= 1 else None
        hess = out[:, m + m * n :].reshape(S, m, n, n) if self.order == 2 else None
        return out[:, :m], grads, hess


ROOT_COLLAPSE = 1e-8  # roots closer than this times max(1, |t|) are one root
ROOT_RESIDUAL_TOL = 1e-12  # Newton polishing stops once |p(t)| is this small


def _coeffs_ascending(p: Polynomial) -> np.ndarray:
    out = np.zeros(p.degree + 1)
    for c, e in zip(p._coefs, p._exps):
        out[int(e[0])] += c
    return out


def univariate_real_roots(p: Polynomial, lo: float, hi: float) -> list[float]:
    """All real roots of a univariate polynomial in [lo, hi], sorted and
    multiplicity-collapsed.

    Isolation splits [lo, hi] at the (recursively computed) critical points,
    so the polynomial is monotone on each piece; sign changes are then
    bisected and Newton-polished.  Roots at critical points (multiple
    roots) are caught by a conditioning-aware zero test.
    """
    if p.num_vars != 1:
        raise ValueError("univariate_real_roots requires a 1-variable polynomial")
    if p.is_zero:
        raise ValueError("identically zero polynomial has no isolated roots")
    if hi < lo:
        raise ValueError("empty interval")
    if p.degree == 0:
        return []

    dp = p.derivative(0)

    def polish(t: float, a: float, b: float) -> float:
        for _ in range(30):
            ft = p.evaluate(np.array([t]))
            if abs(ft) <= ROOT_RESIDUAL_TOL:
                break
            dt = dp.evaluate(np.array([t]))
            if dt == 0.0:
                break
            t_new = t - ft / dt
            if not (a - 1e-9 <= t_new <= b + 1e-9) or t_new == t:
                break
            t = t_new
        return t

    if p.degree == 1:
        c = _coeffs_ascending(p)
        t = -c[0] / c[1]
        return [t] if lo - 1e-12 <= t <= hi + 1e-12 else []

    crits = univariate_real_roots(dp, lo, hi)
    breakpoints = sorted({lo, hi, *crits})

    # a critical point where p is roundoff is a multiple root: a Newton step
    # there is roundoff over roundoff, so it is kept as found and the pieces
    # next to it (p is monotone on each) hold no other root.  A small value
    # above roundoff may be the extremum between two close simple roots, so
    # the pieces next to it are bisected, and it is a (near-double) root only
    # if neither of them changes sign.
    f = p.evaluate_many(np.array(breakpoints)[:, None])
    scale = np.array([p.evaluate_abs(np.array([t])) for t in breakpoints])
    exact = np.abs(f) <= 4.0 * np.finfo(float).eps * p.degree * scale
    near = np.abs(f) <= 1e-11 * (scale + 1.0)
    change = (np.sign(f[:-1]) * np.sign(f[1:]) < 0.0) & ~exact[:-1] & ~exact[1:]
    bracketed = np.concatenate([[False], change]) | np.concatenate([change, [False]])
    roots = [t for t, hit in zip(breakpoints, exact | (near & ~bracketed)) if hit]
    for k in np.flatnonzero(change):
        a, b, fa = breakpoints[k], breakpoints[k + 1], f[k]
        x0, x1 = a, b
        for _ in range(120):
            mid = 0.5 * (x0 + x1)
            fm = p.evaluate(np.array([mid]))
            if fm == 0.0:
                x0 = x1 = mid
                break
            if np.sign(fm) == np.sign(fa):
                x0, fa = mid, fm
            else:
                x1 = mid
            if x1 - x0 <= 1e-15 * max(1.0, abs(x0), abs(x1)):
                break
        roots.append(polish(0.5 * (x0 + x1), a, b))

    roots.sort()
    collapsed: list[float] = []
    for t in roots:
        if not collapsed or abs(t - collapsed[-1]) > ROOT_COLLAPSE * max(1.0, abs(t)):
            collapsed.append(t)
    return [t for t in collapsed if lo - 1e-9 <= t <= hi + 1e-9]
