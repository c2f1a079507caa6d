"""Reference answers from the brute-force oracle, in a process of its own.

    python3 perfbench/reference.py DIR

reads the tables and queries that `workloads.write_inputs` left in DIR and
writes DIR/reference.json with `relagg.oracle_eval`'s answer to every exact
query. The timed process only reads that file, so the oracle stays out of
the timings and out of `peak_rss_mb`.

The oracle joins by nested loops, which on a star join of n rows per table
costs n^3 comparisons. Where every table carries the shared key `k`, the
join is the disjoint union of its per-key joins, so the oracle runs once per
key value and the parts are combined with the query's own (+): the same
answer for a fraction of the comparisons.
"""

import functools
import hashlib
import json
import operator
import sys
from pathlib import Path

import relagg

REFERENCE = "reference.json"


def load_inputs(directory):
    """(Database, {query name: QuerySpec}) read from a workload directory.

    This is the work `setup_s` times: relagg's CSV loader on every table,
    the Database constructor and the query parser.
    """
    tables = []
    for path in sorted(directory.glob("*.csv")):
        with open(path, newline="") as fh:
            tables.append(relagg.load_table(fh, name=path.stem))
    specs = json.loads((directory / "queries.json").read_text())
    return relagg.Database(tables=tuple(tables)), {
        name: relagg.spec_from_json(obj) for name, obj in specs.items()
    }


def inputs_digest(directory):
    """Hash of the inputs, so a reference is never reused for other data."""
    h = hashlib.sha256()
    for path in sorted(directory.glob("*.csv")) + [directory / "queries.json"]:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def key_partitions(db):
    """The per-key sub-databases when every table has column k, else [db]."""
    if not all("k" in t.schema for t in db.tables):
        return [db]
    groups = {}
    for i, t in enumerate(db.tables):
        col = t.schema.index("k")
        for row in t.rows:
            groups.setdefault(row[col], [[] for _ in db.tables])[i].append(row)
    return [
        relagg.Database(tables=tuple(
            relagg.Table(t.name, t.schema, tuple(rows))
            for t, rows in zip(db.tables, parts)
        ))
        for parts in groups.values()
    ]


def oracle_answer(parts, spec):
    """oracle_eval over a partition of the join, combined by the query's (+)."""
    if spec.kind == "count":
        plus = operator.add
    else:
        plus = relagg.make_named(spec.algebra).plus
    return functools.reduce(plus, (relagg.oracle_eval(p, spec) for p in parts))


def compute(directory):
    db, specs = load_inputs(directory)
    parts = key_partitions(db)
    answers = {
        name: oracle_answer(parts, spec)
        for name, spec in specs.items() if spec.mode == "exact"
    }
    return {"digest": inputs_digest(directory), "answers": answers}


def main(argv):
    directory = Path(argv[1])
    out = directory / REFERENCE
    tmp = out.with_suffix(".tmp")
    tmp.write_text(json.dumps(compute(directory), indent=1, sort_keys=True))
    tmp.replace(out)


if __name__ == "__main__":
    main(sys.argv)
