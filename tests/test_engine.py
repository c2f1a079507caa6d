import math
import random
from functools import reduce

import pytest

from relagg import (
    CapExceeded,
    CyclicJoinError,
    EngineConfig,
    Instrumentation,
    Table,
    Database,
    assign_features,
    build_decomposition,
    count_rows,
    evaluate,
    make_named,
)
from relagg.bruteforce import materialize
from relagg.multiset import MS_EMPTY, ms_convolve, ms_singleton, ms_union
from conftest import random_acyclic_db

COUNTING = make_named("counting")
MIN_PLUS = make_named("min-plus")
MAX_PLUS = make_named("max-plus")


def config_for(s):
    return EngineConfig(
        fold=lambda *items: reduce(s.plus, items, s.zero),
        times=s.times, zero=s.zero, one=s.one,
    )


def join_value(db, decomp, factors, config, instr=None):
    """The aggregate over the whole join: the fold of q (x) g over the
    root rows that `evaluate` returns."""
    rows = evaluate(db, decomp, factors, config, instr=instr)
    return config.fold(*[config.times(q, g) for _, q, g in rows])


def ones(db):
    return {f: (lambda v: 1) for f in db.feature_tables}


def idents(db, one=0.0):
    return {f: (lambda v: v) for f in db.feature_tables}


def test_fold_records_group_size():
    """One group of 100 leaf rows is recorded as one fold of depth
    ceil(log2 100) in either mode: the recorded depth is the group's size,
    since both modes fold a group in one call."""
    db = Database(tables=(
        Table("t1", ("a", "b"), tuple((1.0, float(i)) for i in range(100))),
        Table("t2", ("a",), ((1.0,),)),
    ))
    for mode in ("exact", "approx"):
        instr = Instrumentation()
        assert count_rows(db, mode=mode, instr=instr) == 100
        assert instr.max_fold_depth == math.ceil(math.log2(100))
        assert instr.fold_count == 1


def test_assign_features(db1):
    owner, partition = assign_features(db1)
    assert owner == {"a": 1, "b": 1, "c": 2}
    assert partition[1] == {"a", "b"}
    assert partition[2] == {"c"}


def test_count_join_rows(db1):
    decomp = build_decomposition(db1)
    assert join_value(db1, decomp, ones(db1), config_for(COUNTING)) == 3


def test_tropical_sums(db1):
    decomp = build_decomposition(db1)
    # join rows (1,1,5), (1,2,6), (1,2,7) with sums 7, 9, 10
    assert join_value(db1, decomp, idents(db1), config_for(MIN_PLUS)) == 7
    assert join_value(db1, decomp, idents(db1), config_for(MAX_PLUS)) == 10


def test_evaluate_keeps_root_rows(db1):
    decomp = build_decomposition(db1)
    rows = evaluate(db1, decomp, ones(db1), config_for(COUNTING), root=2)
    # t2 rows joined back: b=1 matches once, b=2 matches once each
    assert sorted((row, q * g) for row, q, g in rows) == [
        ((1.0, 5.0), 1),
        ((2.0, 6.0), 1),
        ((2.0, 7.0), 1),
    ]


def test_root_out_of_range(db1):
    decomp = build_decomposition(db1)
    with pytest.raises(ValueError):
        evaluate(db1, decomp, ones(db1), config_for(COUNTING), root=5)


def test_invalid_decomposition_rejected(db1):
    from relagg import HypertreeDecomposition

    bad = HypertreeDecomposition(num_vertices=2, edges=())
    with pytest.raises(CyclicJoinError):
        evaluate(db1, bad, ones(db1), config_for(COUNTING))


def test_dangling_rows_pruned():
    db = Database(tables=(
        Table("t1", ("a",), ((1.0,), (2.0,))),
        Table("t2", ("a",), ((2.0,), (3.0,))),
    ))
    decomp = build_decomposition(db)
    assert join_value(db, decomp, ones(db), config_for(COUNTING)) == 1


def test_cross_product():
    db = Database(tables=(
        Table("t1", ("a",), ((1.0,), (2.0,))),
        Table("t2", ("b",), ((1.0,), (2.0,), (3.0,))),
    ))
    decomp = build_decomposition(db)
    assert join_value(db, decomp, ones(db), config_for(COUNTING)) == 6
    for empty in (0, 1):
        tables = list(db.tables)
        tables[empty] = Table(tables[empty].name, tables[empty].schema, ())
        cut = Database(tables=tuple(tables))
        decomp = build_decomposition(cut)
        assert join_value(cut, decomp, ones(cut), config_for(COUNTING)) == 0


def test_multiset_carrier_size_cap():
    db = Database(tables=(
        Table("t1", ("a",), tuple((float(i),) for i in range(10))),
        Table("t2", ("b",), tuple((float(i),) for i in range(10))),
    ))
    decomp = build_decomposition(db)
    config = EngineConfig(
        fold=ms_union, times=ms_convolve, zero=MS_EMPTY,
        one=ms_singleton(0.0), size_cap=5,
    )
    factors = {f: (lambda v: ms_singleton(v)) for f in db.feature_tables}
    with pytest.raises(CapExceeded):
        evaluate(db, decomp, factors, config)


def test_matches_materialized_join_random():
    rng = random.Random(83)
    for _ in range(60):
        db = random_acyclic_db(rng)
        decomp = build_decomposition(db)
        join = materialize(db)
        assert join_value(db, decomp, ones(db), config_for(COUNTING)) == len(join)
        if join.rows:
            sums = [sum(row) for row in join.rows]
            got = join_value(db, decomp, idents(db), config_for(MIN_PLUS))
            assert got == min(sums)
            got = join_value(db, decomp, idents(db), config_for(MAX_PLUS))
            assert got == max(sums)


def test_instrumentation_records_sizes(db1):
    decomp = build_decomposition(db1)
    instr = Instrumentation()
    config = EngineConfig(
        fold=ms_union, times=ms_convolve, zero=MS_EMPTY, one=ms_singleton(0.0)
    )
    factors = {f: (lambda v: ms_singleton(v)) for f in db1.feature_tables}
    evaluate(db1, decomp, factors, config, instr=instr)
    assert instr.max_value_size >= 1
    assert instr.fold_count >= 1
