"""Aggregate drivers: inequality row counting, SumSum, and SumProd.

Each driver reduces its query to a SumProd evaluation over a dynamic
programming semiring and runs the join-tree engine. Leaf factors carry the
inequality term of each feature as a key (row counting: a singleton
multiset; SumProd: a singleton weighted set pairing the key with the factor
value). The final answer is the cumulative aggregate of the result at the
inequality threshold. Exact mode uses the exact semiring operations; approx
mode sketches after every operation with a per-operation budget derived
from the requested total relative error.
"""

import math
from dataclasses import dataclass

from .algebra import repeat
from .engine import EngineConfig, assign_features, evaluate, evaluate_to_root
from .errors import QueryRejected
from .jointree import build_decomposition
from .multiset import MS_EMPTY, MS_ONE, Multiset, ms_convolve, ms_triangle, ms_union
from .queryspec import AdditiveInequality, checked_algebra, in_carrier, validate
from .sketch import alpha_for, approx_convolve, approx_union
from .weightedset import lift, ws_convolve, ws_empty, ws_one, ws_plus, ws_triangle

DEFAULT_SKETCH_CAP = 10**6


@dataclass
class ApproxParams:
    """Approx-mode settings; an alpha override must be finite and > 0."""

    epsilon: float
    alpha: float = None  # derived from epsilon unless overridden
    size_cap: int = DEFAULT_SKETCH_CAP

    def __post_init__(self):
        if self.alpha is not None and not (
            self.alpha > 0 and math.isfinite(self.alpha)
        ):
            raise QueryRejected(
                f"alpha must be a finite number greater than 0, got {self.alpha}"
            )

    def resolve_alpha(self, m, n):
        return self.alpha if self.alpha is not None else alpha_for(self.epsilon, m, n)


def _config(db, mode, params, plus, times, zero, one):
    """Engine operations: the exact ones, or in approx mode their sketches."""
    if mode == "exact":
        return EngineConfig(plus=plus, times=times, zero=zero, one=one)
    alpha = params.resolve_alpha(db.m, db.n)
    return EngineConfig(
        plus=lambda a, b: approx_union(a, b, alpha),
        times=lambda a, b: approx_convolve(a, b, alpha),
        zero=zero,
        one=one,
        size_cap=params.size_cap,
    )


def _counting_factors(db, ineq):
    factors = {}
    for feature in db.feature_tables:
        g = ineq.term(feature)
        factors[feature] = lambda v, g=g: Multiset(((g(v), 1),))
    return factors


def count_rows(db, ineq=None, params=None, mode="exact", decomp=None, instr=None):
    """Number of join rows satisfying the inequality.

    Exact mode returns the integer count; approx mode a value within a
    (1 +/- epsilon) factor of it.
    """
    ineq = ineq or AdditiveInequality()
    params = params or ApproxParams(epsilon=0.1)
    decomp = decomp or build_decomposition(db)
    config = _config(db, mode, params, ms_union, ms_convolve, MS_EMPTY, MS_ONE)
    factors = _counting_factors(db, ineq)
    result = evaluate(db, decomp, factors, config, instr=instr)
    return ms_triangle(result, ineq.threshold)


def sumsum(db, monoid, F, ineq=None, params=None, mode="exact",
           decomp=None, instr=None):
    """Monoid fold of per-feature terms over qualifying join rows.

    For each feature (at its assigned table) the qualifying-row count of
    every active-domain value is read off a root-table evaluation of the
    row-counting query, then the term is repeated that many times.
    """
    monoid = checked_algebra("sumsum", monoid)
    ineq = ineq or AdditiveInequality()
    params = params or ApproxParams(epsilon=0.1)
    decomp = decomp or build_decomposition(db)
    owner, _ = assign_features(db)
    config = _config(db, mode, params, ms_union, ms_convolve, MS_EMPTY, MS_ONE)
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


def sumprod(db, semiring, F, ineq=None, params=None, mode="exact",
            decomp=None, instr=None):
    """Semiring SumProd over qualifying join rows.

    Features absent from F contribute the multiplicative identity.
    """
    semiring = checked_algebra("sumprod", semiring)
    ineq = ineq or AdditiveInequality()
    params = params or ApproxParams(epsilon=0.1)
    decomp = decomp or build_decomposition(db)
    config = _config(
        db, mode, params, ws_plus, ws_convolve,
        ws_empty(semiring), ws_one(semiring),
    )

    factors = {}
    for feature in db.feature_tables:
        g = ineq.term(feature)
        fn = F.get(feature)
        if fn is None:
            factors[feature] = lambda v, g=g, s=semiring: lift(g(v), s.one, s)
        else:
            factors[feature] = lambda v, g=g, fn=fn, s=semiring, f=feature: (
                _checked_lift(g(v), fn(v), s, f)
            )
    result = evaluate(db, decomp, factors, config, instr=instr)
    return ws_triangle(result, ineq.threshold)


def _checked_lift(g_val, f_val, base, feature):
    if not in_carrier(f_val, base):
        raise QueryRejected(
            f"factor value {f_val} for feature {feature!r} lies outside the "
            "nonnegative carrier; negative terms cannot be approximated "
            "(the subtraction problem)"
        )
    return lift(g_val, f_val, base)


def run_query(db, spec, instr=None, params=None):
    """Dispatch a QuerySpec through validation to the matching driver.

    `params` defaults to the spec's epsilon with alpha derived from it.
    Raises QueryRejected when validation fails.
    """
    rejection = validate(spec, db)
    if rejection is not None:
        raise QueryRejected(rejection.reason)
    params = params or ApproxParams(epsilon=spec.epsilon)
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
