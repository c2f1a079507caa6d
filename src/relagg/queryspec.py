"""Query specifications: per-feature functions, inequalities, presets, JSON.

A query is a SumSum/SumProd/row-count aggregate over the join, optionally
restricted by one additive inequality sum_i g_i(x_i) <= L. Each object
checks what it can check alone: a known function kind and arity, a
threshold that is not NaN, a known query kind. `checked_algebra` resolves
the algebra of a query for the drivers and the oracle; `check_features`
refuses, for both, a term on a feature no table has, and
`checked_factors` an F term that overflowed the float range. The mode
and the other refusals that depend on the data or the mode are the
drivers'.

The canned queries are one table, `PRESETS`: each names a query kind,
an algebra, a region of `REGIONS` (which gives g and L) and an F term;
`preset` reads their parameters with the query file's own parsers.
"""

import math
from dataclasses import dataclass, field

from .algebra import Monoid, Semiring, make_named
from .errors import CapExceeded, QueryRejected
from .tables import active_domain

_INF = math.inf


def _sq_offset(x, y):
    """(x - y) ** 2, +inf where float `**` overflows (x * x returns inf)."""
    try:
        return (x - y) ** 2
    except OverflowError:
        return _INF


# Function kind -> (JSON parameter fields, function of x and the parameters).
FUNCTION_KINDS = {
    "constant": (("c",), lambda x, c: c),
    "identity": ((), lambda x: x),
    "scale": (("factor",), lambda x, factor: factor * x),
    "affine": (("a", "b"), lambda x, a, b: a * x + b),
    "square": ((), lambda x: x * x),
    "abs_offset": (("y",), lambda x, y: abs(x - y)),
    "sq_offset": (("y",), _sq_offset),
    "scaled_square": (("alpha",), lambda x, alpha: x * x / (alpha * alpha)),
    "indicator_eq": (
        ("value", "then", "else"),
        lambda x, value, then, other: then if x == value else other,
    ),
    "indicator_nonzero": ((), lambda x: 1.0 if x != 0 else 0.0),
}


@dataclass(frozen=True)
class FunctionSpec:
    """A small closed family of single-argument real functions."""

    kind: str
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in FUNCTION_KINDS:
            raise QueryRejected(f"unknown function kind {self.kind!r}")
        want = len(FUNCTION_KINDS[self.kind][0])
        if len(self.params) != want:
            raise QueryRejected(
                f"{self.kind} takes {want} parameter(s), got {len(self.params)}"
            )
        if self.kind == "scaled_square":
            (alpha,) = self.params
            if alpha * alpha == 0:
                raise QueryRejected(
                    f"scaled_square alpha {alpha} squares to 0; the function "
                    "divides by alpha * alpha"
                )

    def __call__(self, x):
        return FUNCTION_KINDS[self.kind][1](x, *self.params)


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

    def __post_init__(self):
        if math.isnan(self.threshold):
            raise QueryRejected("inequality threshold L is NaN")

    def term(self, feature):
        return self.g.get(feature, ZERO_FN)

    def term_value(self, feature, v):
        """g_feature(v); a term that is -inf or NaN raises CapExceeded.

        A +inf term takes its row out (its sum exceeds every finite L), as
        `indicator_eq(..., inf)` does in the labeled halfspace preset. A
        -inf term beside it would make the sum inf - inf = NaN, whose
        comparison depends on the order of the additions, so the engine's
        and the oracle's sums would disagree.
        """
        value = self.term(feature)(v)
        if math.isnan(value) or value == -_INF:
            raise CapExceeded(
                f"inequality term of feature {feature!r} at {v} is {value}; "
                "a term must be finite or +inf"
            )
        return value

    def row_sum(self, schema, row):
        return sum(self.term_value(f, v) for f, v in zip(schema, row))


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

    @property
    def inequality(self):
        return self.inequalities[0] if self.inequalities else None


def checked_algebra(kind, algebra):
    """The monoid (sumsum) or semiring (sumprod) named or given by `algebra`.

    Raises QueryRejected when it is unknown or cannot carry a `kind` query.
    """
    if isinstance(algebra, str):
        try:
            algebra = make_named(algebra)
        except KeyError as exc:
            raise QueryRejected(exc.args[0]) from None
    if kind == "sumsum":
        if not isinstance(algebra, Monoid):
            raise QueryRejected(f"sumsum needs a monoid, got {algebra!r}")
        return algebra
    if not isinstance(algebra, Semiring):
        raise QueryRejected(f"sumprod needs a semiring, got {algebra!r}")
    if algebra.plus_monotone not in ("increasing", "decreasing"):
        raise QueryRejected(f"semiring {algebra.name!r} addition is not monotone")
    return algebra


def check_features(db, F, inequalities):
    """Refuse a term in F or in an inequality's g on a feature that no
    table of `db` has: every row would silently leave it out."""
    for where, terms in (("F", F), *(("g", ineq.g) for ineq in inequalities)):
        unknown = [f for f in terms if f not in db.feature_tables]
        if unknown:
            raise QueryRejected(
                f"{where} has a term on {', '.join(map(repr, unknown))}, "
                "a feature no table has"
            )


def checked_factors(db, algebra, F):
    """The (feature, value, F term) triples over each feature's active
    domain, in sorted order; a term that is inf or NaN raises CapExceeded,
    unless it is the semiring's zero or the algebra is the `sum` monoid.

    Table cells are finite, so such a term overflowed the float range: a
    counting weight of inf would be a silently wrong answer, a tropical
    product refuses it as it would an overflowing sum, and a `max` or `min`
    fold would answer inf, or drop the term, where the exact fold is
    finite; that fold's total cannot tell, since a `min` over no
    qualifying row is rightly +inf. A `sum` is checked on its total by
    `finite_sum`, which a non-finite term keeps non-finite and which also
    catches a partial sum that overflows. The drivers and the oracle both
    check before evaluating, so they refuse the same queries whichever
    rows qualify.
    """
    terms = [(feature, v, fn(v)) for feature, fn in sorted(F.items())
             for v in active_domain(db, feature)]
    if algebra is make_named("sum"):
        return terms
    zero = algebra.zero if isinstance(algebra, Semiring) else None
    for feature, v, value in terms:
        if value != zero and not math.isfinite(value):
            raise CapExceeded(
                f"F term of feature {feature!r} at {v} is {value}: it "
                "overflowed the float range"
            )
    return terms


# ---------------------------------------------------------------------------
# Application presets


# Region -> (its vector parameter, the g function kind that takes it, its
# scalar parameters, the threshold L as a function of them).
REGIONS = {
    "halfspace": ("beta", "scale", ("L",), lambda L: L),  # beta.x <= L
    "sphere": ("y", "sq_offset", ("r",), lambda r: r * r),  # |x - y|^2 <= r^2
    # sum_i (x_i / alpha_i)^2 <= 1
    "ellipsoid": ("alpha", "scaled_square", (), lambda: 1.0),
}

# Preset -> (query kind, algebra, region, F term). The F term is None or
# (function kind, per-feature parameter): a vector parameter's name, a
# constant as a 1-tuple, or () for none.
PRESETS = {
    "halfspace_count": ("count", "counting", "halfspace", None),
    "sphere_count": ("count", "counting", "sphere", None),
    "ellipsoid_count": ("count", "counting", "ellipsoid", None),
    "sum_abs_halfspace": ("sumsum", "sum", "halfspace", ("abs_offset", "y")),
    "sum_squares_ellipsoid": ("sumsum", "sum", "ellipsoid", ("square", ())),
    "nnz_halfspace": ("sumsum", "sum", "halfspace", ("indicator_nonzero", ())),
    "min_1norm_sphere": ("sumprod", "min-plus", "sphere", ("abs_offset", (0.0,))),
    "max_sqdist_halfspace": ("sumprod", "max-plus", "halfspace", ("sq_offset", "y")),
}


def preset(name, params):
    """The `QuerySpec` of the canned geometric query `name` in `PRESETS`.

    `params` must contain "features", the feature names of the join, each
    once, in the order vector parameters refer to them, and exactly the
    parameters the preset's region and F term name; "epsilon" and "mode"
    are optional, as in a query file. Each F and g term applies the
    parameter's i-th entry to the i-th feature. Parameters are read as query-file fields are: a
    scalar is a number, a vector a list of numbers of the features'
    dimension. `halfspace_count` alone also takes "label_feature", a
    feature left out of beta's dimension whose g term is 0 at -1 and +inf
    elsewhere, so only rows labeled -1 count.
    """
    if not isinstance(name, str) or name not in PRESETS:
        raise QueryRejected(f"unknown preset {name!r}")
    kind, algebra, region, f_term = PRESETS[name]
    vector, g_kind, scalars, threshold = REGIONS[region]
    params = dict(params)
    features = params.pop("features", None)
    if not (isinstance(features, list) and features
            and all(isinstance(f, str) for f in features)):
        raise QueryRejected(
            f"preset {name!r} needs 'features', a nonempty list of strings"
        )
    for i, f in enumerate(features):
        if f in features[:i]:
            raise QueryRejected(f"preset {name!r} lists feature {f!r} twice")
    mode = params.pop("mode", "exact")
    epsilon = _number(params.pop("epsilon", 0.1), "epsilon")
    label = params.pop("label_feature", None) if name == "halfspace_count" else None
    if label is not None and not isinstance(label, str):
        raise QueryRejected(f"label_feature must be a string, got {label!r}")
    features = [f for f in features if f != label]
    f_kind, f_param = f_term or (None, None)
    wanted = {p for p in (vector, f_param) if isinstance(p, str)}.union(scalars)
    missing = sorted(wanted - set(params))
    if missing:
        raise QueryRejected(f"preset {name!r} needs parameters {missing}")
    unknown = sorted(set(params) - wanted)
    if unknown:
        raise QueryRejected(f"preset {name!r} takes no parameters {unknown}")

    def terms(fn_kind, param):
        """{feature: fn_kind(its entry of vector `param`, or `param`)}."""
        if isinstance(param, str):
            args = [(x,) for x in _vector(param, params[param], features)]
        else:
            args = [param] * len(features)
        return {f: FunctionSpec(fn_kind, a) for f, a in zip(features, args)}

    g = terms(g_kind, vector)
    if label is not None:
        g[label] = FunctionSpec("indicator_eq", (-1.0, 0.0, _INF))
    L = threshold(*(_number(params[p], p) for p in scalars))
    return QuerySpec(
        kind=kind,
        algebra=algebra,
        F=terms(f_kind, f_param) if f_term else {},
        inequalities=(AdditiveInequality(g=g, threshold=L),),
        epsilon=epsilon,
        mode=mode,
    )


def _vector(name, value, features):
    _expect(value, list, name)
    if len(value) != len(features):
        raise QueryRejected(
            f"{name} has dimension {len(value)}, expected {len(features)}"
        )
    return [_number(x, f"{name}[{i}]") for i, x in enumerate(value)]


# ---------------------------------------------------------------------------
# JSON wire format


def _number(value, name):
    """`value` as a float if it is a JSON number: an int or a float, not a
    bool (float(True) is 1.0) and not a string (float(" nan ") parses)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise QueryRejected(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # a JSON integer past the float range
        raise QueryRejected(f"{name} lies outside the float range") from None


def _expect(value, cls, name):
    """`value` if it is a JSON object (cls dict) or list (cls list)."""
    if not isinstance(value, cls):
        what = "object" if cls is dict else "list"
        raise QueryRejected(f"{name} must be a JSON {what}, got {value!r}")
    return value


def function_from_json(obj):
    if not isinstance(obj, dict) or not isinstance(obj.get("kind"), str):
        raise QueryRejected(f"bad function spec: {obj!r}")
    kind = obj["kind"]
    if kind not in FUNCTION_KINDS:
        raise QueryRejected(f"unknown function kind {kind!r}")
    fields = FUNCTION_KINDS[kind][0]
    extra = set(obj) - {"kind", *fields}
    if extra:
        raise QueryRejected(f"unknown fields {sorted(extra)} in {kind} spec")
    try:
        params = tuple(_number(obj[f], f"{kind} field {f!r}") for f in fields)
    except KeyError as exc:
        raise QueryRejected(f"{kind} spec missing field {exc}") from None
    return FunctionSpec(kind, params)


def inequality_from_json(obj):
    _expect(obj, dict, "inequality")
    extra = set(obj) - {"g", "L"}
    if extra:
        raise QueryRejected(f"unknown fields {sorted(extra)} in inequality")
    g = {f: function_from_json(fn)
         for f, fn in _expect(obj.get("g", {}), dict, "g").items()}
    threshold = _number(obj.get("L", _INF), "L")
    return AdditiveInequality(g=g, threshold=threshold)


def inequality_to_json(ineq):
    """The JSON object that `inequality_from_json` reads back as `ineq`."""
    g = {f: {"kind": fn.kind, **dict(zip(FUNCTION_KINDS[fn.kind][0], fn.params))}
         for f, fn in ineq.g.items()}
    return {"g": g, "L": ineq.threshold}


def spec_from_json(obj):
    """Parse the query file format; unknown fields are rejected."""
    _expect(obj, dict, "query file")
    if "preset" in obj:
        extra = set(obj) - {"preset"}
        if extra:
            raise QueryRejected(
                f"preset queries take no other fields, got {sorted(extra)}"
            )
        pobj = dict(_expect(obj["preset"], dict, "preset"))
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
        ineqs = tuple(
            inequality_from_json(o)
            for o in _expect(obj["inequalities"], list, "inequalities")
        )
    F = {f: function_from_json(fn)
         for f, fn in _expect(obj.get("F", {}), dict, "F").items()}
    kind = obj.get("kind", "count")
    for name in ("algebra", "F"):  # fields a count never reads
        if kind == "count" and name in obj:
            raise QueryRejected(
                f"a count query takes no {name}, got {obj[name]!r}"
            )
    return QuerySpec(
        kind=kind,
        algebra=obj.get("algebra", "counting"),
        F=F,
        inequalities=ineqs,
        epsilon=_number(obj.get("epsilon", 0.1), "epsilon"),
        mode=obj.get("mode", "exact"),
    )
