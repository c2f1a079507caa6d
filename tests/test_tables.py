import random

import pytest

from relagg import Database, Table, TableError, active_domain, load_table, stats
from relagg.tables import dump_table


def test_load_basic():
    t = load_table("a,b\n1,1\n1,2", name="t")
    assert t.schema == ("a", "b")
    assert t.rows == ((1.0, 1.0), (1.0, 2.0))


def test_load_non_numeric_reports_position():
    with pytest.raises(TableError, match=r"row 0 column 'b'"):
        load_table("a,b\n1,x", name="t")


def test_load_empty_table_is_valid():
    t = load_table("a\n", name="t")
    assert t.schema == ("a",)
    assert t.rows == ()


def test_load_ragged_row():
    with pytest.raises(TableError, match="ragged"):
        load_table("a,b\n1,2\n3", name="t")


def test_duplicate_feature_rejected():
    with pytest.raises(TableError, match="duplicate"):
        load_table("a,a\n1,2", name="t")


def test_non_finite_rejected():
    with pytest.raises(TableError, match="non-finite"):
        Table("t", ("a",), ((float("inf"),),))


def test_round_trip(db1):
    for t in db1.tables:
        again = load_table(dump_table(t), name=t.name)
        assert again == t


def test_stats_db1(db1):
    assert stats(db1) == (2, 3, 3)


def test_stats_single_table():
    db = Database(tables=(Table("t", ("a", "b"), tuple((float(i), 0.0) for i in range(5))),))
    assert stats(db) == (1, 5, 2)


def test_stats_shared_features():
    db = Database(tables=(
        Table("t1", ("a", "b"), ()),
        Table("t2", ("b", "c"), ()),
        Table("t3", ("c", "d"), ()),
    ))
    assert stats(db)[2] == 4


def test_stats_row_permutation_invariant(db1):
    rng = random.Random(0)
    for _ in range(5):
        tables = []
        for t in db1.tables:
            rows = list(t.rows)
            rng.shuffle(rows)
            tables.append(Table(t.name, t.schema, tuple(rows)))
        assert stats(Database(tables=tuple(tables))) == stats(db1)


def test_active_domain(db1):
    assert active_domain(db1, "b") == [1.0, 2.0]
    assert active_domain(db1, "c") == [5.0, 6.0, 7.0]
    with pytest.raises(TableError, match="unknown feature"):
        active_domain(db1, "z")


def test_empty_database_rejected():
    with pytest.raises(TableError):
        Database(tables=())
