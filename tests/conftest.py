import random
from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from relagg import (
    AdditiveInequality,
    Database,
    FunctionSpec,
    Multiset,
    Table,
    WeightedSet,
)
from relagg import weightedset
from relagg.bruteforce import materialize

# Tier-1 runs are reproducible: the same examples every run, none stored.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def db1():
    """Two tables joined on b; the 3-row join is (1,1,5),(1,2,6),(1,2,7)."""
    return Database(tables=(
        Table("t1", ("a", "b"), ((1.0, 1.0), (1.0, 2.0))),
        Table("t2", ("b", "c"), ((1.0, 5.0), (2.0, 6.0), (2.0, 7.0))),
    ))


def path_results(mp, name):
    """The results of the path `weightedset.<name>` (`_packed` or
    `_sorted_sums`) while `mp` holds, one per call: None for each call
    whose operands did not qualify, a product that fell back."""
    results = []
    path = getattr(weightedset, name)

    def spy(*args):
        results.append(path(*args))
        return results[-1]
    mp.setattr(weightedset, name, spy)
    return results


def identity_fns(db):
    return {f: FunctionSpec("identity") for f in db.feature_tables}


def sum_leq(db, threshold):
    return AdditiveInequality(g=identity_fns(db), threshold=threshold)


# ---------------------------------------------------------------------------
# Shared hypothesis strategies for carrier values


def multisets():
    """Multisets over small integer-valued keys, so operands share keys."""
    return st.dictionaries(
        st.integers(-10, 10).map(float), st.integers(1, 4), max_size=6
    ).map(lambda d: Multiset(tuple(sorted(d.items()))))


def weighted_sets(base, weights=st.integers(-5, 5), max_size=5):
    """Weighted sets over `base` with integer-valued weights (exact under
    the counting base's + and x), base-zero weights left out."""
    return st.dictionaries(
        st.integers(-8, 8).map(float),
        weights.map(float).filter(lambda w: w != base.zero),
        max_size=max_size,
    ).map(lambda d: WeightedSet(tuple(sorted(d.items())), base))


# One line per acceptance criterion, shown after the run summary.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# Independent oracles


def gyo_acyclic(schemas):
    """GYO reduction: repeatedly drop lone vertices and contained edges."""
    edges = [set(s) for s in schemas]
    changed = True
    while changed:
        changed = False
        counts = Counter(v for e in edges for v in e)
        for e in edges:
            lone = {v for v in e if counts[v] == 1}
            if lone:
                e -= lone
                changed = True
        for i, e in enumerate(edges):
            if any(i != j and e <= f for j, f in enumerate(edges)):
                edges.pop(i)
                changed = True
                break
    return len(edges) <= 1


def knapsack_count_dp(weights, capacity):
    """Pseudo-polynomial DP: subsets of `weights` with total <= capacity."""
    capacity = int(capacity)
    dp = [0] * (capacity + 1)
    dp[0] = 1
    for w in weights:
        w = int(w)
        if w == 0:
            dp = [2 * x for x in dp]
            continue
        for s in range(capacity, w - 1, -1):
            dp[s] += dp[s - w]
    return sum(dp)


# ---------------------------------------------------------------------------
# Random instance generation


def random_schemas(rng, max_m=6, max_d=8):
    m = rng.randint(1, max_m)
    features = [f"f{i}" for i in range(rng.randint(1, max_d))]
    schemas = []
    for _ in range(m):
        k = rng.randint(1, min(3, len(features)))
        schemas.append(tuple(sorted(rng.sample(features, k))))
    return schemas


def schemas_to_db(schemas):
    tables = []
    for i, schema in enumerate(schemas):
        tables.append(Table(name=f"t{i}", schema=tuple(schema), rows=()))
    return Database(tables=tuple(tables))


def random_acyclic_db(rng, max_m=4, max_n=20, max_d=6, join_cap=20000):
    """Tables built along a random tree: every non-root table's shared
    features sit inside its parent, which keeps the join acyclic."""
    while True:
        m = rng.randint(1, max_m)
        d = rng.randint(1, max_d)
        features = [f"f{i}" for i in range(d)]
        schemas = []
        first = tuple(sorted(rng.sample(features, rng.randint(1, min(3, d)))))
        schemas.append(first)
        for i in range(1, m):
            parent = schemas[rng.randrange(i)]
            shared = tuple(rng.sample(parent, rng.randint(1, len(parent))))
            fresh = [f for f in features if all(f not in s for s in schemas)]
            extra = rng.sample(fresh, min(len(fresh), rng.randint(0, 2)))
            schemas.append(tuple(sorted(set(shared) | set(extra))))
        tables = []
        for i, schema in enumerate(schemas):
            n = rng.randint(1, max_n)
            rows = tuple(
                tuple(float(rng.randint(-5, 5)) for _ in schema)
                for _ in range(n)
            )
            tables.append(Table(name=f"t{i}", schema=schema, rows=rows))
        db = Database(tables=tuple(tables))
        try:
            join = materialize(db, cap=join_cap)
        except Exception:
            continue
        if len(join) > 0:
            return db


def random_affine_inequality(rng, db):
    g = {}
    for f in db.feature_tables:
        a = rng.randint(-3, 3)
        b = rng.randint(-3, 3)
        g[f] = FunctionSpec("affine", (float(a), float(b)))
    threshold = float(rng.randint(-20, 20))
    return AdditiveInequality(g=g, threshold=threshold)


# Acyclic databases along a random tree, with cross products (tables whose
# join key is empty) and stars (tables with three or more neighbours), which
# `random_acyclic_db` never builds.


def tree_schemas(parents, keyed):
    """Table i (1-based) holds x_i. Table i > 1 hangs below parents[i - 2]:
    if keyed[i - 2] both share a fresh key k_i, else they share nothing."""
    schemas = [[f"x{i}"] for i in range(1, len(parents) + 2)]
    for i, (p, key) in enumerate(zip(parents, keyed), start=2):
        if key:
            schemas[i - 1].append(f"k{i}")
            schemas[p - 1].append(f"k{i}")
    return schemas


def tree_db(parents, keyed, rows, threshold):
    """rows[i - 1] lists table i's rows as small integers (x_i, keys...);
    x_i and the threshold read in quarters, so every key sum is exact."""
    schemas = tree_schemas(parents, keyed)
    db = Database(tables=tuple(
        Table(f"t{i}", tuple(schema), tuple(
            (x / 4, *(float(k) for k in ks)) for x, *ks in table_rows
        ))
        for i, (schema, table_rows) in enumerate(zip(schemas, rows), start=1)
    ))
    xs = {f"x{i}": FunctionSpec("identity") for i in range(1, len(rows) + 1)}
    return db, AdditiveInequality(g=xs, threshold=threshold / 4)


@st.composite
def tree_cases(draw):
    m = draw(st.integers(1, 6))
    # half the tables hang below t1, which makes stars
    parents = [draw(st.just(1) | st.integers(1, i - 1)) for i in range(2, m + 1)]
    keyed = [draw(st.booleans()) for _ in parents]
    rows = [
        draw(st.lists(
            st.tuples(st.integers(0, 8), *[st.integers(0, 1)] * (len(s) - 1)),
            min_size=1, max_size=4,
        ))
        for s in tree_schemas(parents, keyed)
    ]
    return parents, keyed, rows, draw(st.integers(0, 8 * m))


# t1 joins t2, t3 and t4 on three keys: a star
STAR_CASE = ([1, 1, 1], [True] * 3, [
    [(1, 0, 1, 0), (2, 1, 1, 1)], [(3, 0)], [(4, 1), (0, 1)], [(5, 0), (6, 1)],
], 12)
# a cross product of four tables, and t5 keyed below t1
CROSS_CASE = ([1, 2, 3, 1], [False] * 3 + [True], [
    [(1, 0), (7, 1)], [(2,), (3,)], [(0,), (8,)], [(4,), (5,), (6,)],
    [(1, 1), (2, 0)],
], 14)
