"""Problem instances, perturbation semantics, active sets, the catalog
of built-in example problems, and parsing of JSON problem documents."""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from .poly import ROOT_COLLAPSE, Family, Polynomial, univariate_real_roots

__all__ = [
    "PerturbationSpec",
    "ProblemInstance",
    "ActiveSet",
    "FeasibleSet1D",
    "feasibility_residual",
    "active_set",
    "catalog",
    "univariate_feasible_intervals",
    "CATALOG_FAMILIES",
    "DocumentError",
    "parse_problem",
]

DEFAULT_ACTIVE_TOL = 1e-7
# a breakpoint of a 1-D feasible set that borders no feasible segment is an
# isolated feasible point when no constraint exceeds its bound by more than this
BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class PerturbationSpec:
    """Either a diagonal level (applied to the perturbable indices only) or a
    full bound vector.  Vector mode is evaluate-only: the scanner and the
    homotopy driver work on the diagonal."""

    kind: str  # "diagonal" | "vector"
    alpha: float = 0.0
    mu: tuple[float, ...] = ()

    def __post_init__(self):
        if not np.isfinite([self.alpha, *self.mu]).all():
            raise ValueError("perturbation levels must be finite")

    @classmethod
    def diagonal(cls, alpha: float) -> "PerturbationSpec":
        return cls(kind="diagonal", alpha=float(alpha))

    @classmethod
    def vector(cls, mu) -> "PerturbationSpec":
        return cls(kind="vector", mu=tuple(float(v) for v in mu))

    def bounds(self, prob: "ProblemInstance") -> np.ndarray:
        """Right-hand-side bound for each inequality g_i <= bound_i."""
        m = len(prob.inequalities)
        if self.kind == "diagonal":
            b = np.zeros(m)
            b[list(prob.perturbable)] = self.alpha
            return b
        if self.kind == "vector":
            if len(self.mu) != m:
                raise ValueError(f"mu has length {len(self.mu)}, expected {m}")
            return np.array(self.mu, dtype=float)
        raise ValueError(f"unknown perturbation kind {self.kind!r}")


@dataclass(frozen=True)
class ActiveSet:
    """Inequality indices active at a queried point, with the tolerance used."""

    indices: tuple[int, ...]
    tolerance: float


@dataclass(frozen=True)
class FeasibleSet1D:
    """Union of closed intervals plus isolated points on the real line."""

    intervals: tuple[tuple[float, float], ...]
    points: tuple[float, ...]

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return any(a - tol <= x <= b + tol for a, b in self.intervals) or any(
            abs(x - p) <= tol for p in self.points
        )


@dataclass(frozen=True)
class ProblemInstance:
    """A polynomial constraint system g_i <= 0 (baseline), h_j = 0, with an
    optional objective and a perturbable/fixed index partition."""

    num_vars: int
    inequalities: tuple[Polynomial, ...]
    equalities: tuple[Polynomial, ...] = ()
    objective: Polynomial | None = None
    perturbable: tuple[int, ...] = None  # default: all inequality indices
    sample_box: tuple[tuple[float, float], ...] = None
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "inequalities", tuple(self.inequalities))
        object.__setattr__(self, "equalities", tuple(self.equalities))
        m = len(self.inequalities)
        for p in (*self.inequalities, *self.equalities):
            if p.num_vars != self.num_vars:
                raise ValueError("all constraint polynomials must share num_vars")
        if self.objective is not None and self.objective.num_vars != self.num_vars:
            raise ValueError("objective num_vars mismatch")
        if self.perturbable is None:
            object.__setattr__(self, "perturbable", tuple(range(m)))
        else:
            pert = tuple(sorted(set(int(i) for i in self.perturbable)))
            if pert and (pert[0] < 0 or pert[-1] >= m):
                raise ValueError(f"perturbable indices {pert} out of range [0, {m})")
            object.__setattr__(self, "perturbable", pert)
        if self.sample_box is None:
            object.__setattr__(
                self, "sample_box", tuple((-1.0, 1.0) for _ in range(self.num_vars))
            )
        else:
            box = tuple((float(a), float(b)) for a, b in self.sample_box)
            if len(box) != self.num_vars:
                raise ValueError("sample_box must have one interval per variable")
            if any(a > b for a, b in box):
                raise ValueError("sample_box intervals must satisfy lo <= hi")
            object.__setattr__(self, "sample_box", box)
        # the constraint families by order, built on first use by _family;
        # not a field, so equality, hashing, replace and documents ignore it
        object.__setattr__(self, "_families", {})

    def _family(self, order: int) -> Family:
        """The constraints [*g, *h] as one Family of order 0 or 1, built
        once per problem and kept."""
        family = self._families.get(order)
        if family is None:
            family = Family([*self.inequalities, *self.equalities], self.num_vars, order)
            self._families[order] = family
        return family

    @property
    def fixed(self) -> tuple[int, ...]:
        """Complement of the perturbable index set."""
        pert = set(self.perturbable)
        return tuple(i for i in range(len(self.inequalities)) if i not in pert)

    def box_array(self) -> np.ndarray:
        return np.array(self.sample_box, dtype=float)

    def max_degree(self) -> int:
        degs = [p.degree for p in (*self.inequalities, *self.equalities)]
        return max(degs) if degs else 0

    def to_document(self) -> dict:
        """JSON-serializable problem document (1-based perturbable indices)."""
        doc = {
            "name": self.name,
            "num_vars": self.num_vars,
            "inequalities": [p.to_json_dict() for p in self.inequalities],
            "equalities": [p.to_json_dict() for p in self.equalities],
            "perturbable": [i + 1 for i in self.perturbable],
            "sample_box": [[a, b] for a, b in self.sample_box],
        }
        if self.objective is not None:
            doc["objective"] = self.objective.to_json_dict()
        return doc


def _check_point(prob: ProblemInstance, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (prob.num_vars,):
        raise ValueError(f"point has shape {x.shape}, expected ({prob.num_vars},)")
    if not np.isfinite(x).all():
        raise ValueError("point has a non-finite coordinate")
    return x


def _at(prob: ProblemInstance, pert: PerturbationSpec, X, order: int = 0):
    """From one evaluation of the problem's order-`order` family at the
    rows of X (S, num_vars), checked by the caller: (g_i - bound_i for
    every inequality (S, m), the max |equality residual| of each row (S,),
    the inequality gradients (S, m, n), the equality gradients (S, r, n));
    the gradients are None at order 0."""
    values, grads, _ = prob._family(order)(X)
    m = len(prob.inequalities)
    shifted = values[:, :m] - pert.bounds(prob)
    eq = np.abs(values[:, m:]).max(axis=1, initial=0.0)
    if grads is None:
        return shifted, eq, None, None
    return shifted, eq, grads[:, :m], grads[:, m:]


def _max_violation(prob: ProblemInstance, b, P) -> np.ndarray:
    """max_i g_i(p) - b_i at each row p of P."""
    return np.max(prob._family(0)(P)[0][:, : len(b)] - b, axis=1)


def _active(shifted, eq, tau_act: float) -> np.ndarray:
    """The active mask (S, m) from the first two values of _at; raises the
    ValueError of active_set for the first infeasible row."""
    worst = shifted.max(axis=1, initial=0.0)
    violation = np.where(eq > worst, eq, worst)
    infeasible = violation > tau_act
    if infeasible.any():
        raise ValueError(
            f"point is infeasible (violation {violation[infeasible.argmax()]:.3e}"
            f" > tau_act {tau_act:.1e})"
        )
    return -shifted <= tau_act


def _active_set(mask_row, tau_act: float) -> ActiveSet:
    """The ActiveSet of one row of an active mask."""
    return ActiveSet(indices=tuple(mask_row.nonzero()[0].tolist()), tolerance=tau_act)


def feasibility_residual(
    prob: ProblemInstance, pert: PerturbationSpec, x
) -> tuple[float, float]:
    """(max inequality violation clamped at 0, max |equality residual|)."""
    shifted, eq, _, _ = _at(prob, pert, _check_point(prob, x)[None, :])
    return float(np.max(shifted, initial=0.0)), float(eq[0])


def active_set(
    prob: ProblemInstance,
    pert: PerturbationSpec,
    x,
    tau_act: float = DEFAULT_ACTIVE_TOL,
) -> ActiveSet:
    """Indices i with bound_i - g_i(x) <= tau_act; x must be feasible to tau_act."""
    shifted, eq, _, _ = _at(prob, pert, _check_point(prob, x)[None, :])
    return _active_set(_active(shifted, eq, tau_act)[0], tau_act)


# ---------------------------------------------------------------------------
# catalog of example problems
# ---------------------------------------------------------------------------


def _cusp() -> ProblemInstance:
    # x1^3 + x2 <= 0 and x1^3 - x2 <= 0: boundary has a cusp at the origin
    x1c = Polynomial(2, [(1.0, (3, 0))])
    x2 = Polynomial.variable(2, 1)
    return ProblemInstance(
        num_vars=2,
        inequalities=(x1c + x2, x1c - x2),
        sample_box=((-2.0, 1.0), (-2.0, 1.0)),
        name="cusp",
    )


def _cusp_boxed() -> ProblemInstance:
    base = _cusp()
    x1 = Polynomial.variable(2, 0)
    return ProblemInstance(
        num_vars=2,
        inequalities=(*base.inequalities, -x1 - 2.0),
        sample_box=base.sample_box,
        name="cusp_boxed",
    )


def _tangent_discs() -> ProblemInstance:
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    g1 = x1 * x1 + x2 * x2 - 1.0
    g2 = (x1 - 2.0) * (x1 - 2.0) + x2 * x2 - 1.0
    return ProblemInstance(
        num_vars=2,
        inequalities=(g1, g2),
        sample_box=((-1.5, 3.5), (-1.5, 1.5)),
        name="tangent_discs",
    )


def _ball_box(n: int, a) -> ProblemInstance:
    a = np.asarray(a, dtype=float)
    if a.shape != (n,):
        raise ValueError(f"a must have length {n}")
    if np.any(np.abs(a) >= 1.0):
        raise ValueError("a must lie in the open cube (-1, 1)^n")
    # g0 = 4n - sum (x_i - a_i)^2 : complement of the ball B(a, sqrt(4n - alpha))
    g0 = Polynomial.constant(n, 4.0 * n)
    box = []
    for i in range(n):
        xi = Polynomial.variable(n, i)
        g0 = g0 - (xi - float(a[i])) * (xi - float(a[i]))
        box.append(xi * xi - 1.0)
    return ProblemInstance(
        num_vars=n,
        inequalities=(g0, *box),
        perturbable=(0,),
        sample_box=tuple((-1.5, 1.5) for _ in range(n)),
        name="ball_box",
    )


def _q_poly(n: int, var: int, d: int) -> Polynomial:
    """prod_{k=1..d} (x_var^2 - k^2) embedded in n variables."""
    xi = Polynomial.variable(n, var)
    out = Polynomial.constant(n, 1.0)
    for k in range(1, d + 1):
        out = out * (xi * xi - float(k * k))
    return out


def _grid_boxes(n: int, d: int, a) -> ProblemInstance:
    if d < 2 or d % 2 != 0:
        raise ValueError("grid_boxes requires an even degree parameter d >= 2")
    a = np.asarray(a, dtype=float)
    if a.shape != (n,):
        raise ValueError(f"a must have length {n}")
    if np.any(np.abs(a) >= d):
        raise ValueError(f"a must lie in the open cube (-{d}, {d})^n")
    g0 = Polynomial.constant(n, 4.0 * n * d * d)
    for i in range(n):
        xi = Polynomial.variable(n, i)
        g0 = g0 - (xi - float(a[i])) * (xi - float(a[i]))
    grids = tuple(_q_poly(n, i, d) for i in range(n))
    return ProblemInstance(
        num_vars=n,
        inequalities=(g0, *grids),
        perturbable=(0,),
        sample_box=tuple((-(d + 1.0), d + 1.0) for _ in range(n)),
        name="grid_boxes",
    )


def _interval_pair() -> ProblemInstance:
    x = Polynomial.variable(1, 0)
    g1 = 1.0 - x * x
    g2 = (x + 1.0) * (x + 1.0) - 4.0
    return ProblemInstance(
        num_vars=1,
        inequalities=(g1, g2),
        sample_box=((-5.0, 5.0),),
        name="interval_pair",
    )


CATALOG_FAMILIES = (
    "cusp",
    "cusp_boxed",
    "tangent_discs",
    "ball_box",
    "grid_boxes",
    "interval_pair",
)


def catalog(name: str, **params) -> ProblemInstance:
    """Built-in problem families.

    cusp, cusp_boxed, tangent_discs, interval_pair take no parameters;
    ball_box needs n and a (a in (-1,1)^n); grid_boxes needs n, even d >= 2,
    and a in (-d, d)^n.
    """
    if name == "cusp":
        return _cusp()
    if name == "cusp_boxed":
        return _cusp_boxed()
    if name == "tangent_discs":
        return _tangent_discs()
    if name == "interval_pair":
        return _interval_pair()
    for key in {"ball_box": ("n", "a"), "grid_boxes": ("n", "d", "a")}.get(name, ()):
        if params.get(key) is None:
            raise ValueError(f"catalog family {name!r} requires parameter {key!r}")
    if name == "ball_box":
        return _ball_box(int(params["n"]), params["a"])
    if name == "grid_boxes":
        return _grid_boxes(int(params["n"]), int(params["d"]), params["a"])
    raise ValueError(f"unknown catalog family {name!r}; known: {CATALOG_FAMILIES}")


# ---------------------------------------------------------------------------
# exact 1-D feasible sets
# ---------------------------------------------------------------------------


def univariate_feasible_intervals(
    prob: ProblemInstance,
    pert: PerturbationSpec,
    window: tuple[float, float],
) -> FeasibleSet1D:
    """Exact feasible set of a 1-variable inequality system on a window,
    as a union of closed intervals and isolated points.

    Breakpoints are the roots of each g_i - bound_i; open segments between
    breakpoints are classified by a midpoint sign test, and feasible
    breakpoints not adjacent to a feasible segment are isolated points.
    """
    if prob.num_vars != 1:
        raise ValueError("univariate_feasible_intervals requires a 1-variable problem")
    if prob.equalities:
        raise ValueError("equality constraints are not supported here")
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("degenerate window")

    b = pert.bounds(prob)
    roots = []
    for g, bi in zip(prob.inequalities, b):
        shifted = g - float(bi)
        if shifted.degree > 0:  # a constant is classified by the midpoint tests
            roots += univariate_real_roots(shifted, lo, hi)
    # roots of different constraints within the collapse width are one
    # breakpoint, and so are roots at the window's edges
    pts = [lo]
    for t in sorted(roots):
        width = ROOT_COLLAPSE * max(1.0, abs(t))
        if t - pts[-1] > width and hi - t > width:
            pts.append(t)
    pts.append(hi)

    def violation(ts) -> np.ndarray:
        return _max_violation(prob, b, np.array(ts)[:, None])

    # ok[k] and ok[k + 1]: whether the open segments left and right of pts[k]
    # are feasible (nothing lies beyond the window)
    mids = [0.5 * (a + c) for a, c in zip(pts, pts[1:])]
    ok = np.concatenate([[False], violation(mids) <= 0.0, [False]])
    left, right = ok[:-1], ok[1:]
    starts, ends = np.flatnonzero(~left & right), np.flatnonzero(left & ~right)
    intervals = [(pts[i], pts[j]) for i, j in zip(starts, ends)]
    isolated = [pts[k] for k in np.flatnonzero(~left & ~right & (violation(pts) <= BOUNDARY_TOL))]
    return FeasibleSet1D(intervals=tuple(intervals), points=tuple(isolated))


# ---------------------------------------------------------------------------
# problem documents
# ---------------------------------------------------------------------------


class DocumentError(ValueError):
    """Problem-document validation failure; message cites the JSON path."""


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise DocumentError(f"{path}: {message}")


def _is_int(value) -> bool:
    """Whether a JSON value is an integer (true and false are not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """Whether a JSON value is a number within the float range (NaN,
    Infinity, a literal such as 1e400 that reads as inf, true and false
    are not)."""
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def _parse_poly(data, num_vars: int, path: str) -> Polynomial:
    _expect(isinstance(data, dict), path, "expected an object with a 'terms' list")
    _expect("terms" in data, path, "missing 'terms'")
    terms = data["terms"]
    _expect(isinstance(terms, list), f"{path}.terms", "expected a list")
    parsed = []
    for t_idx, term in enumerate(terms):
        tpath = f"{path}.terms[{t_idx}]"
        _expect(isinstance(term, dict), tpath, "expected an object")
        _expect("coef" in term, tpath, "missing 'coef'")
        _expect("exps" in term, tpath, "missing 'exps'")
        coef = term["coef"]
        exps = term["exps"]
        _expect(_is_finite(coef), f"{tpath}.coef", "expected a finite number")
        _expect(isinstance(exps, list), f"{tpath}.exps", "expected a list of integers")
        _expect(
            len(exps) == num_vars,
            f"{tpath}.exps",
            f"length {len(exps)} does not match num_vars {num_vars}",
        )
        for e_idx, e in enumerate(exps):
            _expect(
                _is_int(e) and e >= 0,
                f"{tpath}.exps[{e_idx}]",
                "expected a nonnegative integer",
            )
        parsed.append((float(coef), tuple(exps)))
    return Polynomial(num_vars, parsed)


def parse_problem(source: str) -> ProblemInstance:
    """Build a validated ProblemInstance from a JSON document.

    `source` is a file path or raw JSON text; perturbable indices in the
    document are 1-based.  Validation errors name the offending JSON path.
    """
    text = source
    if not source.lstrip().startswith("{"):
        try:
            with open(source) as fh:
                text = fh.read()
        except OSError as exc:
            raise DocumentError(f"cannot read {source!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"malformed JSON: {exc}") from exc

    _expect(isinstance(doc, dict), "$", "expected a JSON object")
    _expect("num_vars" in doc, "$.num_vars", "missing")
    n = doc["num_vars"]
    _expect(_is_int(n) and n >= 1, "$.num_vars", "expected a positive integer")
    _expect("inequalities" in doc, "$.inequalities", "missing")
    ineq_docs = doc["inequalities"]
    _expect(
        isinstance(ineq_docs, list) and ineq_docs,
        "$.inequalities",
        "expected a nonempty list",
    )
    inequalities = [
        _parse_poly(p, n, f"$.inequalities[{i}]") for i, p in enumerate(ineq_docs)
    ]
    equalities = [
        _parse_poly(p, n, f"$.equalities[{i}]")
        for i, p in enumerate(doc.get("equalities", []))
    ]
    objective = (
        _parse_poly(doc["objective"], n, "$.objective") if "objective" in doc else None
    )

    perturbable = None
    if "perturbable" in doc:
        raw = doc["perturbable"]
        _expect(isinstance(raw, list), "$.perturbable", "expected a list of 1-based indices")
        m = len(inequalities)
        for i_idx, i in enumerate(raw):
            _expect(
                _is_int(i) and 1 <= i <= m,
                f"$.perturbable[{i_idx}]",
                f"index {i!r} out of range 1..{m}",
            )
        perturbable = tuple(i - 1 for i in raw)

    sample_box = None
    if "sample_box" in doc:
        raw = doc["sample_box"]
        _expect(
            isinstance(raw, list) and len(raw) == n,
            "$.sample_box",
            f"expected {n} [lo, hi] pairs",
        )
        for b_idx, pair in enumerate(raw):
            _expect(
                isinstance(pair, list)
                and len(pair) == 2
                and all(_is_finite(v) for v in pair)
                and pair[0] <= pair[1],
                f"$.sample_box[{b_idx}]",
                "expected [lo, hi] of finite numbers with lo <= hi",
            )
        sample_box = tuple((float(a), float(b)) for a, b in raw)

    return ProblemInstance(
        num_vars=n,
        inequalities=tuple(inequalities),
        equalities=tuple(equalities),
        objective=objective,
        perturbable=perturbable,
        sample_box=sample_box,
        name=str(doc.get("name", "")),
    )
