"""Relational tables, databases of them and active domains.

Tables hold fixed-width tuples of finite 64-bit floats. Duplicate rows are
kept (bag semantics); the joined design matrix is a bag join. Tables and
databases are immutable after construction and safe for concurrent reads.

The loader and the `Table` constructor parse and check every cell in one
whole-table pass: one width test over all rows, then one `float` (or
`isfinite`) map over all cells. Only when a pass refuses do the per-cell
loops run, and their one job is to name the first bad cell in row-major
order.
"""

import csv
import io
import math
from dataclasses import dataclass, field
from itertools import chain

from .errors import TableError


@dataclass(frozen=True)
class Table:
    name: str
    schema: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if len(set(self.schema)) != len(self.schema):
            raise TableError(f"table {self.name!r}: duplicate feature name")
        width = len(self.schema)
        if not (set(map(len, self.rows)) <= {width}
                and all(map(math.isfinite, chain.from_iterable(self.rows)))):
            self._refuse()

    def _refuse(self):
        """Raise for the first row or cell, in row-major order, that the
        whole-table check in `__post_init__` refused."""
        width = len(self.schema)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise TableError(
                    f"table {self.name!r}: row {i} has {len(row)} cells, expected {width}"
                )
            for col, cell in zip(self.schema, row):
                if not math.isfinite(cell):
                    raise TableError(
                        f"table {self.name!r}: non-finite value at row {i} column {col!r}"
                    )

    def __len__(self):
        return len(self.rows)

    def column(self, feature):
        """Values of one feature, in row order."""
        j = self.schema.index(feature)
        return [row[j] for row in self.rows]


def load_table(source, name):
    """Parse a CSV text stream into a Table; the first record names the
    features."""
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source)
    try:
        records = list(filter(None, reader))
    except csv.Error as exc:
        raise TableError(f"table {name!r}: line {reader.line_num}: {exc}") from None
    if not records:
        raise TableError(f"table {name!r}: missing header row")
    schema = tuple(cell.strip() for cell in records[0])
    body = records[1:]
    width = len(schema)
    # The width test comes first: zip would silently regroup a ragged
    # row's cells into the wrong rows.
    if set(map(len, body)) <= {width}:
        try:
            rows = tuple(zip(*[map(float, chain.from_iterable(body))] * width))
        except ValueError:
            pass
        else:
            return Table(name=name, schema=schema, rows=rows)
    _refuse_records(name, schema, body)


def _refuse_records(name, schema, body):
    """Raise for the first record or cell, in row-major order, that the
    whole-table pass in `load_table` refused."""
    for i, rec in enumerate(body):
        if len(rec) != len(schema):
            raise TableError(
                f"table {name!r}: ragged row {i} ({len(rec)} cells, expected {len(schema)})"
            )
        for col, cell in zip(schema, rec):
            try:
                float(cell)
            except ValueError:
                raise TableError(
                    f"table {name!r}: non-numeric cell at row {i} column {col!r}: {cell!r}"
                ) from None


def dump_table(table):
    """Serialize a Table back to CSV text. Round-trips through load_table."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(table.schema)
    for row in table.rows:
        writer.writerow([repr(v) for v in row])
    return out.getvalue()


@dataclass(frozen=True)
class Database:
    tables: tuple[Table, ...]
    feature_tables: dict[str, tuple[int, ...]] = field(init=False, compare=False)

    def __post_init__(self):
        if not self.tables:
            raise TableError("a database needs at least one table")
        index: dict[str, list[int]] = {}
        for i, table in enumerate(self.tables, start=1):
            for feature in table.schema:
                index.setdefault(feature, []).append(i)
        frozen = {f: tuple(ts) for f, ts in index.items()}
        object.__setattr__(self, "feature_tables", frozen)

    @property
    def m(self):
        return len(self.tables)

    def table(self, i):
        """Table by 1-based index."""
        return self.tables[i - 1]


def active_domain(db, feature):
    """Sorted distinct values of a feature across all tables containing it."""
    if feature not in db.feature_tables:
        raise TableError(f"unknown feature {feature!r}")
    values = set()
    for i in db.feature_tables[feature]:
        values.update(db.table(i).column(feature))
    return sorted(values)
