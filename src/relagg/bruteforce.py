"""Ground truth by join materialization, plus hardness-instance generators.

The oracle materializes the bag join (with a row cap), filters by the
additive inequalities, and folds the query algebra exactly. It accepts any
number of inequalities, unlike the engine. The generators build the
knapsack-counting and partition instances used as end-to-end fixtures.
"""

from dataclasses import dataclass

from .algebra import finite_sum
from .errors import CapExceeded, QueryRejected
from .queryspec import (
    AdditiveInequality,
    check_features,
    checked_factors,
    checked_algebra,
    identity,
    scale,
)
from .tables import Database, Table

DEFAULT_CAP = 10**7
FLOAT_EXACT = 2**53  # a float holds every integer of at most this magnitude


@dataclass(frozen=True)
class MaterializedJoin:
    schema: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]

    def __len__(self):
        return len(self.rows)


def materialize(db, cap=DEFAULT_CAP):
    """Full bag join in canonical (sorted) feature order."""
    schema = sorted(db.feature_tables)
    pos = {f: i for i, f in enumerate(schema)}
    rows = [(None,) * len(schema)]
    for t in db.tables:
        cols = [pos[f] for f in t.schema]
        joined = []
        for partial in rows:
            for row in t.rows:
                merged = list(partial)
                ok = True
                for c, v in zip(cols, row):
                    if merged[c] is None:
                        merged[c] = v
                    elif merged[c] != v:
                        ok = False
                        break
                if ok:
                    joined.append(tuple(merged))
                    if len(joined) > cap:
                        raise CapExceeded(
                            f"materialized join exceeds cap of {cap} rows"
                        )
        rows = joined
    return MaterializedJoin(schema=tuple(schema), rows=tuple(rows))


def satisfying_rows(db, inequalities, cap=DEFAULT_CAP):
    join = materialize(db, cap)
    kept = [
        row
        for row in join.rows
        if all(
            ineq.row_sum(join.schema, row) <= ineq.threshold
            for ineq in inequalities
        )
    ]
    return join.schema, kept


def oracle_eval(db, spec, cap=DEFAULT_CAP):
    """Exact query value by materialize-filter-fold."""
    check_features(db, spec.F if spec.kind != "count" else {},
                     spec.inequalities)
    schema, rows = satisfying_rows(db, spec.inequalities, cap)
    if spec.kind == "count":
        return len(rows)
    algebra = checked_algebra(spec.kind, spec.algebra)
    checked_factors(db, algebra, spec.F)
    if spec.kind == "sumsum":
        total = algebra.identity
        for row in rows:
            for f, v in zip(schema, row):
                if f in spec.F:
                    total = algebra.plus(total, spec.F[f](v))
        if algebra.name != "sum":
            total += 0.0  # a zero answer is +0.0, whichever zero came first
        return finite_sum(algebra, total)
    total = algebra.zero
    for row in rows:
        prod = algebra.one
        for f, v in zip(schema, row):
            if f in spec.F:
                prod = algebra.times(prod, spec.F[f](v))
        total = algebra.plus(total, prod)
    return total


def _require_exact(value, name):
    """Refuse an integer above 2^53 in absolute value. The generators write
    their instances as floats; a subset sum of nonnegative weights is at
    most the weight sum, so while that and the capacity are within 2^53,
    every sum the engine and the oracle form is exact."""
    if abs(value) > FLOAT_EXACT:
        raise QueryRejected(
            f"{name} exceeds 2^53 in absolute value, so float sums of the "
            "instance would round"
        )


def gen_knapsack(weights, capacity):
    """Cross-product instance whose qualifying-row count is the number of
    subsets of `weights` with total at most `capacity`."""
    if not weights:
        raise QueryRejected("knapsack instance needs at least one weight")
    if any(w < 0 or w != int(w) for w in weights):
        raise QueryRejected("weights must be nonnegative integers")
    _require_exact(sum(weights), "the weight sum")
    _require_exact(capacity, "the capacity")
    tables = []
    g = {}
    for i, w in enumerate(weights):
        feature = f"x{i}"
        tables.append(
            Table(name=f"t{i}", schema=(feature,),
                  rows=((0.0,), (float(w),)))
        )
        g[feature] = identity()
    db = Database(tables=tuple(tables))
    ineq = AdditiveInequality(g=g, threshold=float(capacity))
    return db, ineq


def gen_partition(weights):
    """Cross-product instance with two inequalities whose qualifying-row
    count is the number of sign assignments summing to exactly zero."""
    if not weights:
        raise QueryRejected("partition instance needs at least one weight")
    if any(w <= 0 or w != int(w) for w in weights):
        raise QueryRejected("weights must be positive integers")
    _require_exact(sum(weights), "the weight sum")
    tables = []
    g_pos = {}
    g_neg = {}
    for i, w in enumerate(weights):
        feature = f"x{i}"
        tables.append(
            Table(name=f"t{i}", schema=(feature,),
                  rows=((float(w),), (-float(w),)))
        )
        g_pos[feature] = identity()       # sum x <= 0
        g_neg[feature] = scale(-1.0)      # sum -x <= 0, i.e. sum x >= 0
    db = Database(tables=tuple(tables))
    return db, (
        AdditiveInequality(g=g_pos, threshold=0.0),
        AdditiveInequality(g=g_neg, threshold=0.0),
    )
