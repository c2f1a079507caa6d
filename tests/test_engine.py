import math
import random

import pytest

from relagg import (
    CapExceeded,
    CyclicJoinError,
    EngineConfig,
    Instrumentation,
    Table,
    Database,
    assign_features,
    balanced_fold,
    build_decomposition,
    evaluate,
    evaluate_to_root,
    make_named,
)
from relagg.bruteforce import materialize
from relagg.multiset import MS_EMPTY, ms_convolve, ms_singleton, ms_union
from conftest import random_acyclic_db

COUNTING = make_named("counting")
MIN_PLUS = make_named("min-plus")
MAX_PLUS = make_named("max-plus")


def config_for(s):
    return EngineConfig(plus=s.plus, times=s.times, zero=s.zero, one=s.one)


def ones(db):
    return {f: (lambda v: 1) for f in db.feature_tables}


def idents(db, one=0.0):
    return {f: (lambda v: v) for f in db.feature_tables}


def test_balanced_fold_values():
    assert balanced_fold(lambda x, y: x + y, [1, 2, 3, 4, 5], 0) == 15
    assert balanced_fold(lambda x, y: x + y, [], 9) == 9
    assert balanced_fold(min, [4], None) == 4


def test_balanced_fold_depth():
    instr = Instrumentation()
    balanced_fold(lambda x, y: x + y, range(100), 0, instr)
    assert instr.max_fold_depth == math.ceil(math.log2(100))
    assert instr.fold_count == 1


def test_assign_features(db1):
    owner, partition = assign_features(db1)
    assert owner == {"a": 1, "b": 1, "c": 2}
    assert partition[1] == {"a", "b"}
    assert partition[2] == {"c"}


def test_count_join_rows(db1):
    decomp = build_decomposition(db1)
    assert evaluate(db1, decomp, ones(db1), config_for(COUNTING)) == 3


def test_tropical_sums(db1):
    decomp = build_decomposition(db1)
    # join rows (1,1,5), (1,2,6), (1,2,7) with sums 7, 9, 10
    assert evaluate(db1, decomp, idents(db1), config_for(MIN_PLUS)) == 7
    assert evaluate(db1, decomp, idents(db1), config_for(MAX_PLUS)) == 10


def test_evaluate_to_root_keeps_rows(db1):
    decomp = build_decomposition(db1)
    final = evaluate_to_root(db1, decomp, ones(db1), config_for(COUNTING), root=2)
    assert final.index == 2
    # t2 rows joined back: b=1 matches once, b=2 matches once each
    assert sorted((row, q) for row, q in final.rows) == [
        ((1.0, 5.0), 1),
        ((2.0, 6.0), 1),
        ((2.0, 7.0), 1),
    ]


def test_root_out_of_range(db1):
    decomp = build_decomposition(db1)
    with pytest.raises(ValueError):
        evaluate_to_root(db1, decomp, ones(db1), config_for(COUNTING), root=5)


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
    assert evaluate(db, decomp, ones(db), config_for(COUNTING)) == 1


def test_cross_product():
    db = Database(tables=(
        Table("t1", ("a",), ((1.0,), (2.0,))),
        Table("t2", ("b",), ((1.0,), (2.0,), (3.0,))),
    ))
    decomp = build_decomposition(db)
    assert evaluate(db, decomp, ones(db), config_for(COUNTING)) == 6
    for empty in (0, 1):
        tables = list(db.tables)
        tables[empty] = Table(tables[empty].name, tables[empty].schema, ())
        cut = Database(tables=tuple(tables))
        decomp = build_decomposition(cut)
        assert evaluate(cut, decomp, ones(cut), config_for(COUNTING)) == 0


def test_multiset_carrier_size_cap():
    db = Database(tables=(
        Table("t1", ("a",), tuple((float(i),) for i in range(10))),
        Table("t2", ("b",), tuple((float(i),) for i in range(10))),
    ))
    decomp = build_decomposition(db)
    config = EngineConfig(
        plus=ms_union, times=ms_convolve, zero=MS_EMPTY,
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
        assert evaluate(db, decomp, ones(db), config_for(COUNTING)) == len(join)
        if join.rows:
            sums = [sum(row) for row in join.rows]
            got = evaluate(db, decomp, idents(db), config_for(MIN_PLUS))
            assert got == min(sums)
            got = evaluate(db, decomp, idents(db), config_for(MAX_PLUS))
            assert got == max(sums)


def test_instrumentation_records_sizes(db1):
    decomp = build_decomposition(db1)
    instr = Instrumentation()
    config = EngineConfig(
        plus=ms_union, times=ms_convolve, zero=MS_EMPTY, one=ms_singleton(0.0)
    )
    factors = {f: (lambda v: ms_singleton(v)) for f in db1.feature_tables}
    evaluate(db1, decomp, factors, config, instr=instr)
    assert instr.max_value_size >= 1
    assert instr.fold_count >= 1
