"""Counting join rows under an additive inequality, without the join.

Builds a three-table chain database, asks how many join rows fall inside a
halfspace, and cross-checks the engine against brute-force materialization.
"""

import random

from relagg import (
    Database,
    QuerySpec,
    Table,
    build_decomposition,
    count_rows,
    oracle_eval,
    preset,
)

rng = random.Random(7)


def random_table(name, schema, n):
    rows = tuple(
        tuple(float(rng.randint(-4, 4)) for _ in schema) for _ in range(n)
    )
    return Table(name, schema, rows)


db = Database(tables=(
    random_table("orders", ("customer", "item"), 40),
    random_table("prices", ("item", "price"), 30),
    random_table("ratings", ("item", "stars"), 30),
))

print(f"database: {db.m} tables, largest table {max(map(len, db.tables))} "
      f"rows, {len(db.feature_tables)} features")

decomp = build_decomposition(db)
print(f"join tree edges: {decomp.as_text()}")

join_size = count_rows(db)
print(f"full join has {join_size} rows (never materialized by the engine)")

# How many join rows satisfy price + stars <= 0?
spec = preset("halfspace_count", {
    "features": ["price", "stars"],
    "beta": [1.0, 1.0],
    "L": 0.0,
})
inside = count_rows(db, spec.inequality)
check = oracle_eval(db, QuerySpec(kind="count", inequalities=spec.inequalities))
print(f"rows with price + stars <= 0: engine={inside}, brute force={check}")
assert inside == check
