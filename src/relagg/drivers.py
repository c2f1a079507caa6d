"""Aggregate drivers: inequality row counting, SumSum, and SumProd.

Each driver reduces its query to a SumProd evaluation over a dynamic
programming semiring and runs the join-tree engine. Leaf factors carry the
inequality term of each feature as a key (row counting: a singleton
multiset; SumProd: a singleton weighted set pairing the key with the factor
value). The final answer is the cumulative aggregate of the result at the
inequality threshold. Exact mode uses the exact semiring operations; approx
mode sketches the result of every operation (`ms_sketch` for multisets,
`ws_sketch` for weighted sets) with a per-operation budget derived from the
requested total relative error.

The drivers are where a query is refused, so a direct call refuses exactly
what `run_query` and the CLI refuse. Each precondition is checked once, at
the one spot every path passes through: a bad epsilon or alpha by
`ApproxParams`, a NaN threshold by `AdditiveInequality`, the algebra by
`checked_algebra`, the carrier and sign of the terms by `sumprod` and
`sumsum` before any evaluation, and a second inequality by `run_query`.
"""

import math
from dataclasses import dataclass

from .algebra import repeat
from .engine import EngineConfig, assign_features, evaluate, evaluate_to_root
from .errors import QueryRejected
from .jointree import build_decomposition
from .multiset import MS_EMPTY, MS_ONE, Multiset, ms_convolve, ms_triangle, ms_union
from .queryspec import AdditiveInequality, checked_algebra
from .sketch import alpha_for, ms_sketch, ws_sketch
from .tables import active_domain
from .weightedset import lift, ws_convolve, ws_empty, ws_one, ws_plus, ws_triangle

SKETCH_SIZE_CAP = 10**6  # approx mode aborts when a value outgrows this


def _positive_finite(name, value):
    if not (value > 0 and math.isfinite(value)):
        raise QueryRejected(
            f"{name} must be a finite number greater than 0, got {value}"
        )


@dataclass(frozen=True)
class ApproxParams:
    """Approx-mode settings, checked in either mode.

    epsilon and an alpha override must each be finite and > 0; frozen, so
    no value can skip the check.
    """

    epsilon: float
    alpha: float = None  # derived from epsilon unless overridden

    def __post_init__(self):
        _positive_finite("epsilon", self.epsilon)
        if self.alpha is not None:
            _positive_finite("alpha", self.alpha)

    def resolve_alpha(self, m, n):
        return self.alpha if self.alpha is not None else alpha_for(self.epsilon, m, n)


def _config(db, mode, params, plus, times, sketch, zero, one):
    """Engine operations: the exact ones, or in approx mode their sketches."""
    if mode == "exact":
        return EngineConfig(plus=plus, times=times, zero=zero, one=one)
    alpha = params.resolve_alpha(db.m, db.n)
    return EngineConfig(
        plus=lambda a, b: sketch(plus(a, b), alpha),
        times=lambda a, b: sketch(times(a, b), alpha),
        zero=zero,
        one=one,
        size_cap=SKETCH_SIZE_CAP,
    )


def _counting_factors(db, ineq):
    factors = {}
    for feature in db.feature_tables:
        g = ineq.term(feature)
        factors[feature] = lambda v, g=g: Multiset(((g(v), 1),))
    return factors


def _term_values(F, db):
    """(feature, value, F[feature](value)) over each feature's active domain."""
    for feature, fn in sorted(F.items()):
        if feature in db.feature_tables:
            for v in active_domain(db, feature):
                yield feature, v, fn(v)


def count_rows(db, ineq=None, params=None, mode="exact", instr=None):
    """Number of join rows satisfying the inequality.

    Exact mode returns the integer count; approx mode a value within a
    (1 +/- epsilon) factor of it.
    """
    ineq = ineq or AdditiveInequality()
    params = params or ApproxParams(epsilon=0.1)
    config = _config(
        db, mode, params, ms_union, ms_convolve, ms_sketch, MS_EMPTY, MS_ONE
    )
    factors = _counting_factors(db, ineq)
    result = evaluate(db, build_decomposition(db), factors, config, instr=instr)
    return ms_triangle(result, ineq.threshold)


def sumsum(db, monoid, F, ineq=None, params=None, mode="exact", instr=None):
    """Monoid fold of per-feature terms over qualifying join rows.

    For each feature (at its assigned table) the qualifying-row count of
    every active-domain value is read off a root-table evaluation of the
    row-counting query, then the term is repeated that many times. Approx
    mode refuses terms that mix signs over the active domains.
    """
    monoid = checked_algebra("sumsum", monoid)
    if mode == "approx":
        values = [fv for _, _, fv in _term_values(F, db)]
        if any(fv > 0 for fv in values) and any(fv < 0 for fv in values):
            raise QueryRejected(
                "sumsum terms mix positive and negative values; relative "
                "error does not survive cancellation (the subtraction "
                "problem), so no approximation is attempted"
            )
    ineq = ineq or AdditiveInequality()
    params = params or ApproxParams(epsilon=0.1)
    decomp = build_decomposition(db)
    owner, _ = assign_features(db)
    config = _config(
        db, mode, params, ms_union, ms_convolve, ms_sketch, MS_EMPTY, MS_ONE
    )
    factors = _counting_factors(db, ineq)

    root_tables = {}
    total = monoid.identity
    for feature in sorted(F):
        if feature not in db.feature_tables:
            continue
        fn = F[feature]
        root = owner[feature]
        if root not in root_tables:
            root_tables[root] = evaluate_to_root(
                db, decomp, factors, config, root, instr=instr
            )
        table = root_tables[root]
        col = table.schema.index(feature)
        counts = {}
        for row, q in table.rows:
            v = row[col]
            counts[v] = counts.get(v, 0) + ms_triangle(q, ineq.threshold)
        for v in sorted(counts):
            u = max(0, round(counts[v]))
            if u:
                total = monoid.plus(total, repeat(monoid, fn(v), u))
    return total


def sumprod(db, semiring, F, ineq=None, params=None, mode="exact", instr=None):
    """Semiring SumProd over qualifying join rows.

    Features absent from F contribute the multiplicative identity. Factor
    values must lie in the nonnegative carrier (besides the semiring's
    identities), over every feature's active domain.
    """
    semiring = checked_algebra("sumprod", semiring)
    for feature, v, fv in _term_values(F, db):
        if not (fv in (semiring.zero, semiring.one)
                or (fv >= 0 and math.isfinite(fv))):
            raise QueryRejected(
                f"factor value {fv} for feature {feature!r} at {v} lies "
                "outside the nonnegative carrier; queries with negative terms "
                "cannot be approximated (the subtraction problem)"
            )
    ineq = ineq or AdditiveInequality()
    params = params or ApproxParams(epsilon=0.1)
    config = _config(
        db, mode, params, ws_plus, ws_convolve, ws_sketch,
        ws_empty(semiring), ws_one(semiring),
    )

    factors = {}
    for feature in db.feature_tables:
        g = ineq.term(feature)
        fn = F.get(feature)
        if fn is None:
            factors[feature] = lambda v, g=g, s=semiring: lift(g(v), s.one, s)
        else:
            factors[feature] = lambda v, g=g, fn=fn, s=semiring: (
                lift(g(v), fn(v), s)
            )
    result = evaluate(db, build_decomposition(db), factors, config, instr=instr)
    return ws_triangle(result, ineq.threshold)


def run_query(db, spec, instr=None, params=None):
    """Dispatch a QuerySpec to the matching driver.

    `params` defaults to the spec's epsilon with alpha derived from it.
    Refuses a second inequality, which no driver takes; every other
    refusal is the driver's (QueryRejected).
    """
    params = params or ApproxParams(epsilon=spec.epsilon)
    if len(spec.inequalities) > 1:
        raise QueryRejected(
            "more than one additive inequality: bounded-relative-error "
            "approximation of row counts under two additive inequalities "
            "is NP-hard; this engine handles at most one"
        )
    if spec.kind == "count":
        return count_rows(
            db, spec.inequality, params=params, mode=spec.mode, instr=instr
        )
    if spec.kind == "sumsum":
        return sumsum(
            db, spec.algebra, spec.F, spec.inequality,
            params=params, mode=spec.mode, instr=instr,
        )
    return sumprod(
        db, spec.algebra, spec.F, spec.inequality,
        params=params, mode=spec.mode, instr=instr,
    )
