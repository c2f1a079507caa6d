"""Query specifications: per-feature functions, inequalities, validation.

A query is a SumSum/SumProd/row-count aggregate over the join, optionally
restricted by one additive inequality sum_i g_i(x_i) <= L. Validation
enforces the preconditions of the approximation algorithms and refuses what
cannot be approximated (two inequalities, mixed-sign terms).
"""

import math
from dataclasses import dataclass, field

from .algebra import Monoid, Semiring, make_named
from .errors import QueryRejected
from .tables import active_domain

_INF = math.inf


@dataclass(frozen=True)
class FunctionSpec:
    """A small closed family of single-argument real functions."""

    kind: str
    params: tuple = ()

    _ARITY = {
        "constant": 1,       # c
        "identity": 0,
        "scale": 1,          # factor
        "affine": 2,         # a, b -> a*x + b
        "square": 0,
        "abs_offset": 1,     # y -> |x - y|
        "sq_offset": 1,      # y -> (x - y)^2
        "scaled_square": 1,  # alpha -> x^2 / alpha^2
        "indicator_eq": 3,   # value, then, else
        "indicator_nonzero": 0,
    }

    def __post_init__(self):
        if self.kind not in self._ARITY:
            raise QueryRejected(f"unknown function kind {self.kind!r}")
        want = self._ARITY[self.kind]
        if len(self.params) != want:
            raise QueryRejected(
                f"{self.kind} takes {want} parameter(s), got {len(self.params)}"
            )

    def __call__(self, x):
        k, p = self.kind, self.params
        if k == "constant":
            return p[0]
        if k == "identity":
            return x
        if k == "scale":
            return p[0] * x
        if k == "affine":
            return p[0] * x + p[1]
        if k == "square":
            return x * x
        if k == "abs_offset":
            return abs(x - p[0])
        if k == "sq_offset":
            return (x - p[0]) ** 2
        if k == "scaled_square":
            return x * x / (p[0] * p[0])
        if k == "indicator_eq":
            return p[1] if x == p[0] else p[2]
        # indicator_nonzero
        return 1.0 if x != 0 else 0.0


def constant(c):
    return FunctionSpec("constant", (c,))


def identity():
    return FunctionSpec("identity")


def scale(factor):
    return FunctionSpec("scale", (factor,))


ZERO_FN = constant(0.0)


@dataclass(frozen=True)
class AdditiveInequality:
    """sum_i g_i(x_i) <= threshold; features missing from g contribute 0."""

    g: dict = field(default_factory=dict)
    threshold: float = _INF

    def term(self, feature):
        return self.g.get(feature, ZERO_FN)

    def row_sum(self, schema, row):
        return sum(self.term(f)(v) for f, v in zip(schema, row))


@dataclass(frozen=True)
class QuerySpec:
    kind: str  # count | sumsum | sumprod
    algebra: str = "counting"
    F: dict = field(default_factory=dict)
    inequalities: tuple = ()
    epsilon: float = 0.1
    mode: str = "exact"  # exact | approx

    def __post_init__(self):
        if self.kind not in ("count", "sumsum", "sumprod"):
            raise QueryRejected(f"unknown query kind {self.kind!r}")
        if self.mode not in ("exact", "approx"):
            raise QueryRejected(f"unknown mode {self.mode!r}")

    @property
    def inequality(self):
        return self.inequalities[0] if self.inequalities else None


@dataclass(frozen=True)
class Rejection:
    reason: str

    def __str__(self):
        return self.reason


def validate(spec, db):
    """Structured rejection when the engine cannot run this query, else None.

    Exact-mode brute-force evaluation through the oracle is not restricted
    by these checks; they gate the join-tree engine.
    """
    if spec.mode == "approx" and not (
        spec.epsilon > 0 and math.isfinite(spec.epsilon)
    ):
        return Rejection(
            f"epsilon must be a finite number greater than 0, got {spec.epsilon}"
        )
    if any(math.isnan(ineq.threshold) for ineq in spec.inequalities):
        return Rejection("inequality threshold L is NaN")
    if len(spec.inequalities) > 1:
        return Rejection(
            "more than one additive inequality: bounded-relative-error "
            "approximation of row counts under two additive inequalities "
            "is NP-hard; this engine handles at most one"
        )
    if spec.kind == "count":
        return None
    try:
        algebra = make_named(spec.algebra)
    except KeyError as exc:
        return Rejection(str(exc))

    if spec.kind == "sumsum":
        if not isinstance(algebra, Monoid):
            return Rejection(f"sumsum needs a monoid, got {spec.algebra!r}")
        if not algebra.repeatable:
            return Rejection(f"monoid {spec.algebra!r} is not repeatable")
        if not algebra.no_error:
            return Rejection(f"monoid {spec.algebra!r} addition introduces error")
        if spec.mode == "approx":
            sign = _term_sign(spec.F, db)
            if sign is None:
                return Rejection(
                    "sumsum terms mix positive and negative values; relative "
                    "error does not survive cancellation (the subtraction "
                    "problem), so no approximation is attempted"
                )
        return None

    # sumprod
    if not isinstance(algebra, Semiring):
        return Rejection(f"sumprod needs a semiring, got {spec.algebra!r}")
    if algebra.plus_monotone not in ("increasing", "decreasing"):
        return Rejection(f"semiring {spec.algebra!r} addition is not monotone")
    bad = _domain_violation(spec.F, algebra, db)
    if bad is not None:
        feature, value, fval = bad
        return Rejection(
            f"factor value {fval} for feature {feature!r} at {value} lies "
            "outside the nonnegative carrier; queries with negative terms "
            "cannot be approximated (the subtraction problem)"
        )
    return None


def _term_sign(F, db):
    """'+', '-', or None if F values mix signs over the active domains."""
    has_pos = has_neg = False
    for feature, fn in F.items():
        if feature not in db.feature_tables:
            continue
        for v in active_domain(db, feature):
            fv = fn(v)
            if fv > 0:
                has_pos = True
            elif fv < 0:
                has_neg = True
    if has_pos and has_neg:
        return None
    return "-" if has_neg else "+"


def _domain_violation(F, algebra, db):
    for feature, fn in sorted(F.items()):
        if feature not in db.feature_tables:
            continue
        for v in active_domain(db, feature):
            fv = fn(v)
            if fv in (algebra.zero, algebra.one):
                continue
            if not (fv >= 0 and math.isfinite(fv)):
                return (feature, v, fv)
    return None


# ---------------------------------------------------------------------------
# Application presets


def preset(name, params):
    """Canned query encodings for common geometric aggregates.

    `params` must contain "features", the feature names of the join in the
    order vector parameters refer to them. Vector parameters must match that
    dimension.
    """
    builders = {
        "halfspace_count": _halfspace_count,
        "sphere_count": _sphere_count,
        "ellipsoid_count": _ellipsoid_count,
        "sum_abs_halfspace": _sum_abs_halfspace,
        "sum_squares_ellipsoid": _sum_squares_ellipsoid,
        "nnz_halfspace": _nnz_halfspace,
        "min_1norm_sphere": _min_1norm_sphere,
        "max_sqdist_halfspace": _max_sqdist_halfspace,
    }
    if name not in builders:
        raise QueryRejected(f"unknown preset {name!r}")
    params = dict(params)
    features = params.pop("features", None)
    if not features:
        raise QueryRejected(f"preset {name!r} needs a 'features' list")
    mode = params.pop("mode", "exact")
    epsilon = params.pop("epsilon", 0.1)
    try:
        spec = builders[name](list(features), **params)
    except TypeError as exc:
        raise QueryRejected(f"preset {name!r}: {exc}") from None
    return QuerySpec(
        kind=spec.kind,
        algebra=spec.algebra,
        F=spec.F,
        inequalities=spec.inequalities,
        epsilon=epsilon,
        mode=mode,
    )


def _vector(name, value, features):
    if len(value) != len(features):
        raise QueryRejected(
            f"{name} has dimension {len(value)}, expected {len(features)}"
        )
    return list(value)


def _halfspace_count(features, beta, L, label_feature=None):
    """Points with beta.x <= L; with a label feature, only those labeled -1."""
    point_features = [f for f in features if f != label_feature]
    beta = _vector("beta", beta, point_features)
    g = {f: scale(b) for f, b in zip(point_features, beta)}
    if label_feature is not None:
        g[label_feature] = FunctionSpec("indicator_eq", (-1.0, 0.0, _INF))
    ineq = AdditiveInequality(g=g, threshold=L)
    return QuerySpec(kind="count", inequalities=(ineq,))


def _sphere_count(features, y, r):
    y = _vector("y", y, features)
    g = {f: FunctionSpec("sq_offset", (yi,)) for f, yi in zip(features, y)}
    ineq = AdditiveInequality(g=g, threshold=r * r)
    return QuerySpec(kind="count", inequalities=(ineq,))


def _ellipsoid_count(features, alpha):
    alpha = _vector("alpha", alpha, features)
    g = {f: FunctionSpec("scaled_square", (a,)) for f, a in zip(features, alpha)}
    ineq = AdditiveInequality(g=g, threshold=1.0)
    return QuerySpec(kind="count", inequalities=(ineq,))


def _sum_abs_halfspace(features, y, beta, L):
    y = _vector("y", y, features)
    beta = _vector("beta", beta, features)
    F = {f: FunctionSpec("abs_offset", (yi,)) for f, yi in zip(features, y)}
    g = {f: scale(b) for f, b in zip(features, beta)}
    ineq = AdditiveInequality(g=g, threshold=L)
    return QuerySpec(kind="sumsum", algebra="sum", F=F, inequalities=(ineq,))


def _sum_squares_ellipsoid(features, alpha):
    alpha = _vector("alpha", alpha, features)
    F = {f: FunctionSpec("square") for f in features}
    g = {f: FunctionSpec("scaled_square", (a,)) for f, a in zip(features, alpha)}
    ineq = AdditiveInequality(g=g, threshold=1.0)
    return QuerySpec(kind="sumsum", algebra="sum", F=F, inequalities=(ineq,))


def _nnz_halfspace(features, beta, L):
    beta = _vector("beta", beta, features)
    F = {f: FunctionSpec("indicator_nonzero") for f in features}
    g = {f: scale(b) for f, b in zip(features, beta)}
    ineq = AdditiveInequality(g=g, threshold=L)
    return QuerySpec(kind="sumsum", algebra="sum", F=F, inequalities=(ineq,))


def _min_1norm_sphere(features, y, r):
    y = _vector("y", y, features)
    F = {f: FunctionSpec("abs_offset", (0.0,)) for f in features}
    g = {f: FunctionSpec("sq_offset", (yi,)) for f, yi in zip(features, y)}
    ineq = AdditiveInequality(g=g, threshold=r * r)
    return QuerySpec(kind="sumprod", algebra="min-plus", F=F, inequalities=(ineq,))


def _max_sqdist_halfspace(features, y, beta, L):
    y = _vector("y", y, features)
    beta = _vector("beta", beta, features)
    F = {f: FunctionSpec("sq_offset", (yi,)) for f, yi in zip(features, y)}
    g = {f: scale(b) for f, b in zip(features, beta)}
    ineq = AdditiveInequality(g=g, threshold=L)
    return QuerySpec(kind="sumprod", algebra="max-plus", F=F, inequalities=(ineq,))


# ---------------------------------------------------------------------------
# JSON wire format


def function_from_json(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise QueryRejected(f"bad function spec: {obj!r}")
    kind = obj["kind"]
    fields = {
        "constant": ("c",),
        "identity": (),
        "scale": ("factor",),
        "affine": ("a", "b"),
        "square": (),
        "abs_offset": ("y",),
        "sq_offset": ("y",),
        "scaled_square": ("alpha",),
        "indicator_eq": ("value", "then", "else"),
        "indicator_nonzero": (),
    }
    if kind not in fields:
        raise QueryRejected(f"unknown function kind {kind!r}")
    extra = set(obj) - {"kind", *fields[kind]}
    if extra:
        raise QueryRejected(f"unknown fields {sorted(extra)} in {kind} spec")
    try:
        params = tuple(float(obj[f]) for f in fields[kind])
    except KeyError as exc:
        raise QueryRejected(f"{kind} spec missing field {exc}") from None
    return FunctionSpec(kind, params)


def inequality_from_json(obj):
    extra = set(obj) - {"g", "L"}
    if extra:
        raise QueryRejected(f"unknown fields {sorted(extra)} in inequality")
    g = {f: function_from_json(fn) for f, fn in obj.get("g", {}).items()}
    threshold = float(obj.get("L", _INF))
    return AdditiveInequality(g=g, threshold=threshold)


def spec_from_json(obj):
    """Parse the query file format; unknown fields are rejected."""
    if not isinstance(obj, dict):
        raise QueryRejected("query file must hold a JSON object")
    if "preset" in obj:
        extra = set(obj) - {"preset"}
        if extra:
            raise QueryRejected(
                f"preset queries take no other fields, got {sorted(extra)}"
            )
        pobj = dict(obj["preset"])
        name = pobj.pop("name", None)
        if name is None:
            raise QueryRejected("preset object needs a 'name'")
        return preset(name, pobj)

    allowed = {"kind", "algebra", "F", "inequality", "inequalities",
               "epsilon", "mode"}
    extra = set(obj) - allowed
    if extra:
        raise QueryRejected(f"unknown query fields: {sorted(extra)}")
    if "inequality" in obj and "inequalities" in obj:
        raise QueryRejected("give either 'inequality' or 'inequalities'")
    ineqs = ()
    if "inequality" in obj:
        ineqs = (inequality_from_json(obj["inequality"]),)
    elif "inequalities" in obj:
        ineqs = tuple(inequality_from_json(o) for o in obj["inequalities"])
    F = {f: function_from_json(fn) for f, fn in obj.get("F", {}).items()}
    return QuerySpec(
        kind=obj.get("kind", "count"),
        algebra=obj.get("algebra", "counting"),
        F=F,
        inequalities=ineqs,
        epsilon=float(obj.get("epsilon", 0.1)),
        mode=obj.get("mode", "exact"),
    )
