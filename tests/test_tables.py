import csv
import io
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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


@st.composite
def tables(draw):
    width = draw(st.integers(1, 4))
    schema = tuple(f"c{j}" for j in range(width))
    cell = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
        [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
    ) | st.integers(-10**6, 10**6).map(float)
    rows = draw(st.lists(st.tuples(*[cell] * width), max_size=30))
    return Table("t", schema, tuple(rows))


@given(tables())
def test_dump_load_round_trip(t):
    """Every finite float comes back bit for bit; `==` alone cannot tell
    -0.0 from 0.0, so the reprs are compared too."""
    again = load_table(dump_table(t), name=t.name)
    assert again == t
    assert repr(again.rows) == repr(t.rows)


@pytest.mark.parametrize("text, message", [
    ("a,b\n1,2\n1,x\n3", "non-numeric cell at row 1 column 'b': 'x'"),
    ("a,b\n1,2\n3\n1,x", "ragged row 1 (1 cells, expected 2)"),
    ("a,b\n1,2\n1,inf", "non-finite value at row 1 column 'b'"),
    ("a,b\n1,inf\n1,x", "non-numeric cell at row 1 column 'b': 'x'"),
    ("a,b\n1,2\n1,2,3\n1,x", "ragged row 1 (3 cells, expected 2)"),
    ("a,b\n1,2\n1," + "0" * 140_000,
     "line 3: field larger than field limit (131072)"),
], ids=["non-numeric-before-ragged", "ragged-before-non-numeric", "non-finite",
        "non-numeric-before-non-finite", "long-row", "field-limit"])
def test_load_reports_first_bad_record(text, message):
    """The first bad record in row-major order names the error; cells are
    all parsed before any is checked for finiteness."""
    with pytest.raises(TableError) as exc:
        load_table(text, name="t")
    assert str(exc.value) == f"table 't': {message}"


@pytest.mark.parametrize("rows, message", [
    (((1.0, 2.0), (1.0, 2.0), (1.0,)), "row 2 has 1 cells, expected 2"),
    (((1.0, 2.0), (math.nan, 2.0), (1.0,)), "non-finite value at row 1 column 'a'"),
    (((1.0, 2.0), (1.0, 2.0, 3.0), (math.inf, 2.0)), "row 1 has 3 cells, expected 2"),
], ids=["short-row", "non-finite-before-short-row", "long-row-before-non-finite"])
def test_table_reports_first_bad_row(rows, message):
    with pytest.raises(TableError) as exc:
        Table("t", ("a", "b"), rows)
    assert str(exc.value) == f"table 't': {message}"


def _reference_load(text, name):
    """Reference loader, one cell at a time: the outcome, as ("ok", rows)
    or ("error", message), that load_table must reproduce exactly."""
    records = [rec for rec in csv.reader(io.StringIO(text)) if rec]
    if not records:
        return "error", f"table {name!r}: missing header row"
    schema = tuple(cell.strip() for cell in records[0])
    rows = []
    for i, rec in enumerate(records[1:]):
        if len(rec) != len(schema):
            return "error", (
                f"table {name!r}: ragged row {i} ({len(rec)} cells, expected {len(schema)})"
            )
        parsed = []
        for col, cell in zip(schema, rec):
            try:
                parsed.append(float(cell))
            except ValueError:
                return "error", (
                    f"table {name!r}: non-numeric cell at row {i} column {col!r}: {cell!r}"
                )
        rows.append(tuple(parsed))
    if len(set(schema)) != len(schema):
        return "error", f"table {name!r}: duplicate feature name"
    for i, row in enumerate(rows):
        for col, cell in zip(schema, row):
            if not math.isfinite(cell):
                return "error", (
                    f"table {name!r}: non-finite value at row {i} column {col!r}"
                )
    return "ok", tuple(rows)


CELLS = ["1", "-0.0", "2.5", " 3 ", "1e400", "inf", "nan", "x", ""]


@st.composite
def csv_texts(draw):
    width = draw(st.integers(1, 3))
    header = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=width,
                           max_size=width))
    widths = st.integers(0, width + 1) | st.just(width)
    lines = [",".join(header)] + [
        ",".join(draw(st.lists(st.sampled_from(CELLS), min_size=n, max_size=n)))
        for n in draw(st.lists(widths, max_size=6))
    ]
    return "\n".join(lines)


@given(csv_texts())
@example("a,b\n1,2\n1,x\n3")
@example("a,b\n1,inf\n3")
@example("a\n\n1\n\nnan")
@example("a,a\n1")
def test_load_matches_per_cell_reference(text):
    """Whatever the whole-table passes accept or refuse, the outcome and
    the message are the per-cell loader's."""
    try:
        got = "ok", load_table(text, name="t").rows
    except TableError as exc:
        got = "error", str(exc)
    assert repr(got) == repr(_reference_load(text, "t"))


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
