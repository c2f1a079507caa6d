import math
import operator
import random
from functools import reduce

import pytest
from hypothesis import example, given

from relagg import (
    CapExceeded,
    Instrumentation,
    Table,
    Database,
    count_rows,
    make_named,
    sumsum,
)
from relagg import drivers
from relagg.bruteforce import materialize
from relagg.algebra import COUNTS
from relagg.engine import EngineConfig, assign_features, evaluate
from relagg.multiset import ms_union
from relagg.queryspec import AdditiveInequality, identity
from relagg.weightedset import ws_convolve, ws_gather, ws_one
from conftest import (
    CROSS_CASE,
    STAR_CASE,
    random_acyclic_db,
    tree_cases,
    tree_db,
)

COUNTING = make_named("counting")
MIN_PLUS = make_named("min-plus")
MAX_PLUS = make_named("max-plus")


def config_for(s):
    return EngineConfig(
        plus=lambda *items: reduce(s.plus, items, s.zero),
        times=s.times, one=s.one,
        gather=lambda rows: reduce(
            s.plus, (reduce(s.times, row, s.one) for row in rows), s.zero),
    )


def join_value(db, factors, config, instr=None):
    """The aggregate over the whole join: the fold of a (x) b over the
    root's pairs that `evaluate` returns."""
    pairs = evaluate(db, factors, config, instr=instr)
    return config.plus(*[config.times(a, b) for a, b in pairs])


def ones(db):
    return {f: (lambda v: 1) for f in db.feature_tables}


def idents(db, one=0.0):
    return {f: (lambda v: v) for f in db.feature_tables}


def test_fold_records_group_size():
    """Each table folds its rows by join key, then each elimination folds a
    group of keys, in either mode: t1's 100 rows share one key (a fold of
    depth ceil(log2 100)), t2's one row is a fold of one, and t1's one key
    is the group it sends to t2."""
    db = Database(tables=(
        Table("t1", ("a", "b"), tuple((1.0, float(i)) for i in range(100))),
        Table("t2", ("a",), ((1.0,),)),
    ))
    for mode in ("exact", "approx"):
        instr = Instrumentation()
        assert count_rows(db, mode=mode, instr=instr) == 100
        assert instr.max_fold_depth == math.ceil(math.log2(100))
        assert instr.fold_count == 3


def test_assign_features(db1):
    owner, partition = assign_features(db1)
    assert owner == {"a": 1, "b": 1, "c": 2}
    assert partition[1] == {"a", "b"}
    assert partition[2] == {"c"}


def test_count_join_rows(db1):
    assert join_value(db1, ones(db1), config_for(COUNTING)) == 3


def test_tropical_sums(db1):
    # join rows (1,1,5), (1,2,6), (1,2,7) with sums 7, 9, 10
    assert join_value(db1, idents(db1), config_for(MIN_PLUS)) == 7
    assert join_value(db1, idents(db1), config_for(MAX_PLUS)) == 10


def test_feature_missing_from_factors_contributes_one(db1):
    """With no factors the counting aggregate is the join size; with c's
    alone the tropical ones see only c's terms (5, 6, 7)."""
    assert join_value(db1, {}, config_for(COUNTING)) == 3
    only_c = {"c": lambda v: v}
    assert join_value(db1, only_c, config_for(MIN_PLUS)) == 5
    assert join_value(db1, only_c, config_for(MAX_PLUS)) == 7


def test_sumsum_evaluates_once(monkeypatch):
    """One sumsum query is one upward evaluation, whatever the number of
    tables owning a feature, with a factor for each feature of F."""
    calls = []

    def counted(db, factors, config, **kwargs):
        calls.append(sorted(factors))
        return evaluate(db, factors, config, **kwargs)

    monkeypatch.setattr(drivers, "evaluate", counted)
    for m in range(1, 7):
        db = Database(tables=tuple(
            Table(f"t{i}", ("k", f"x{i}"), ((0.0, float(i)), (1.0, 2.0)))
            for i in range(1, m + 1)
        ))
        xs = {f"x{i}": identity() for i in range(1, m + 1)}
        calls.clear()
        # two join rows: x_i = i at k = 0, and x_i = 2 at k = 1
        assert sumsum(db, "sum", xs) == sum(range(1, m + 1)) + 2 * m
        assert calls == [sorted(xs)]


@given(tree_cases())
@example(STAR_CASE)
@example(CROSS_CASE)
def test_every_read_composes_2m_minus_3_sketches(case):
    """Carry each value's sketch count instead of a value: a fold keeps its
    largest item's count and a product adds its operands' counts, as their
    errors compose, and each sketch adds one. Every pair the root reads
    then composes D = 2m - 3 sketches, the depth `alpha_for` spends
    epsilon on."""
    db, _ = tree_db(*case)
    depth = EngineConfig(
        plus=lambda *items: max(items), times=operator.add, one=0,
        gather=lambda rows: max(map(sum, rows)), sketch=lambda d: d + 1,
    )
    factors = {f: (lambda v: 0) for f in db.feature_tables}
    pairs = evaluate(db, factors, depth)
    assert {a + b for a, b in pairs} <= {max(2 * db.m - 3, 0)}


def test_dangling_rows_pruned():
    db = Database(tables=(
        Table("t1", ("a",), ((1.0,), (2.0,))),
        Table("t2", ("a",), ((2.0,), (3.0,))),
    ))
    assert join_value(db, ones(db), config_for(COUNTING)) == 1


def test_cross_product():
    db = Database(tables=(
        Table("t1", ("a",), ((1.0,), (2.0,))),
        Table("t2", ("b",), ((1.0,), (2.0,), (3.0,))),
    ))
    assert join_value(db, ones(db), config_for(COUNTING)) == 6
    for empty in (0, 1):
        tables = list(db.tables)
        tables[empty] = Table(tables[empty].name, tables[empty].schema, ())
        cut = Database(tables=tuple(tables))
        assert join_value(cut, ones(cut), config_for(COUNTING)) == 0


def test_multiset_carrier_size_cap(monkeypatch):
    # approx mode's cap lives in the sketch the drivers hand the engine;
    # exact mode has none
    monkeypatch.setattr(drivers, "SKETCH_SIZE_CAP", 5)
    db = Database(tables=(
        Table("t1", ("a",), tuple((float(i),) for i in range(10))),
        Table("t2", ("b",), tuple((float(i),) for i in range(10))),
    ))
    ineq = AdditiveInequality(g={"a": identity(), "b": identity()})
    assert count_rows(db, ineq) == 100
    with pytest.raises(CapExceeded):
        count_rows(db, ineq, mode="approx")


def test_matches_materialized_join_random():
    rng = random.Random(83)
    for _ in range(60):
        db = random_acyclic_db(rng)
        join = materialize(db)
        assert join_value(db, ones(db), config_for(COUNTING)) == len(join)
        if join.rows:
            sums = [sum(row) for row in join.rows]
            got = join_value(db, idents(db), config_for(MIN_PLUS))
            assert got == min(sums)
            got = join_value(db, idents(db), config_for(MAX_PLUS))
            assert got == max(sums)


def test_instrumentation_records_sizes(db1):
    instr = Instrumentation()
    config = EngineConfig(
        plus=ms_union, times=ws_convolve, one=ws_one(COUNTS),
        gather=lambda rows: ws_gather(rows, COUNTS),
    )
    factors = {f: (lambda v: (v, 1)) for f in db1.feature_tables}
    evaluate(db1, factors, config, instr=instr)
    assert instr.max_value_size >= 1
    assert instr.fold_count >= 1
