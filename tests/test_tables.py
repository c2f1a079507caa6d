import pytest

from relagg import Database, Table, TableError, active_domain, load_table
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


def test_feature_tables_index_shared_features_once():
    """Each feature, shared or not, maps to the 1-based indices of the
    tables that hold it, in table order."""
    db = Database(tables=(
        Table("t1", ("a", "b"), ()),
        Table("t2", ("b", "c"), ()),
        Table("t3", ("c", "d"), ()),
    ))
    assert db.m == 3
    assert db.feature_tables == {"a": (1,), "b": (1, 2), "c": (2, 3), "d": (3,)}


def test_active_domain(db1):
    assert active_domain(db1, "b") == [1.0, 2.0]
    assert active_domain(db1, "c") == [5.0, 6.0, 7.0]
    with pytest.raises(TableError, match="unknown feature"):
        active_domain(db1, "z")


def test_empty_database_rejected():
    with pytest.raises(TableError):
        Database(tables=())
