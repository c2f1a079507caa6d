"""Generic leaf-elimination evaluation over a join tree.

Evaluates a SumProd-style aggregate over the bag join of a database without
materializing the join: each table gets an aggregate column seeded from the
per-feature leaf factors, then leaves of the join tree are folded into their
neighbors until one table remains. Each group is folded by one
`config.fold(*values)` call: the drivers pass the carrier's n-ary union,
sketched once in approx mode, so a group adds one sketch to the composition
depth whatever its size.

Eliminating a leaf groups its rows by the features it shares with its
parent, folds each group, and multiplies every parent row by the value of
its group; a leaf that shares no feature is one group holding every row.
The last elimination stops before that product: `evaluate` returns each
root row's value q with its group value g, so neither q (x) g nor the root's
whole value, their fold, is ever built (the drivers read them at a threshold).

The working operations may be an exact semiring or their sketched
counterparts; with sketching the result is order dependent, so elimination
order and grouping are fixed and deterministic: each group folds its rows
in table order.
"""

import math
from dataclasses import dataclass
from functools import reduce

from .errors import CapExceeded, CyclicJoinError
from .jointree import decomposition_violation


@dataclass
class EngineConfig:
    fold: callable  # fold(*values), one or more -> their (+)-fold
    times: callable
    zero: object
    one: object
    size_cap: int = None  # abort when a carrier value grows past this


@dataclass
class Instrumentation:
    max_fold_depth: int = 0  # ceil(log2 k) of the largest group, k its rows
    fold_count: int = 0
    max_value_size: int = 0

    def record_fold(self, k):
        self.fold_count += 1
        depth = math.ceil(math.log2(k)) if k > 1 else 0
        self.max_fold_depth = max(self.max_fold_depth, depth)

    def record_value(self, value):
        try:
            size = len(value)
        except TypeError:
            return
        self.max_value_size = max(self.max_value_size, size)


def assign_features(db):
    """Each feature goes to the lowest-index table containing it.

    Returns a dict feature -> table index and the per-table partition as a
    list of feature sets indexed 1..m (index 0 unused).
    """
    owner = {f: min(ts) for f, ts in db.feature_tables.items()}
    partition = [set() for _ in range(db.m + 1)]
    for f, i in owner.items():
        partition[i].add(f)
    return owner, partition


def _seed_rows(db, factors, config):
    """Table index -> list of (row, product of its factors, or one) pairs."""
    _, partition = assign_features(db)
    tables = {}
    for i in range(1, db.m + 1):
        src = db.table(i)
        assigned = [f for f in src.schema if f in partition[i]]
        cols = [src.schema.index(f) for f in assigned]
        rows = []
        for row in src.rows:
            values = [factors[f](row[c]) for f, c in zip(assigned, cols)]
            rows.append((row, reduce(config.times, values) if values else config.one))
        tables[i] = rows
    return tables


def _check_size(value, config):
    if config.size_cap is None:
        return value
    try:
        size = len(value)
    except TypeError:
        return value
    if size > config.size_cap:
        raise CapExceeded(
            f"intermediate value grew to {size} entries (cap {config.size_cap})"
        )
    return value


def _eliminate(db, decomp, tables, config, root, instr):
    adj = decomp.adjacency()
    alive = set(adj)
    if len(alive) == 1:
        return [(row, q, config.one) for row, q in tables[alive.pop()]]
    while True:
        leaf = min(
            v for v in alive if len(adj[v]) == 1 and v != root
        )
        (j,) = adj[leaf]
        si, sj = db.table(leaf).schema, db.table(j).schema
        shared = sorted(set(si) & set(sj))
        icols = [si.index(f) for f in shared]
        jcols = [sj.index(f) for f in shared]

        keyed = {}
        for row, q in tables[leaf]:
            keyed.setdefault(tuple(row[c] for c in icols), []).append(q)
        groups = {}
        for key, items in keyed.items():
            value = _check_size(config.fold(*items), config)
            if instr is not None:
                instr.record_fold(len(items))
                instr.record_value(value)
            groups[key] = value
        matched = []
        for row, q in tables[j]:
            key = tuple(row[c] for c in jcols)
            if key in groups:
                matched.append((row, q, groups[key]))
            # rows with no matching group take the zero and are pruned
        if len(alive) == 2:
            return matched
        tables[j] = []
        for row, q, g in matched:
            prod = _check_size(config.times(q, g), config)
            if prod != config.zero:
                tables[j].append((row, prod))

        adj[j].discard(leaf)
        del adj[leaf]
        alive.discard(leaf)


def evaluate(db, decomp, factors, config, root=None, instr=None):
    """The rows of the table left last, as (row, q, g) triples.

    `factors` maps each feature name to a function value -> carrier. q is
    the row's value and g its group value from the last child eliminated
    into it, or `config.one` when there is none. The aggregate over the bag
    join is the (+)-fold of q (x) g over the rows, which is not built. With
    sketched operations q and g are approximations. `root` (a table index)
    chooses the table left last; by default the elimination order does.
    """
    violation = decomposition_violation(db, decomp)
    if violation is not None:
        raise CyclicJoinError(f"invalid decomposition: {violation}")
    if root is not None and not (1 <= root <= db.m):
        raise ValueError(f"root index {root} out of range 1..{db.m}")
    tables = _seed_rows(db, factors, config)
    return _eliminate(db, decomp, tables, config, root, instr)
