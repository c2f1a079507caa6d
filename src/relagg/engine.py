"""Generic leaf-elimination evaluation over a join tree.

Evaluates a SumProd-style aggregate over the bag join of a database without
materializing the join: each table gets an aggregate column seeded from the
per-feature leaf factors, then leaves of the join tree are folded into their
neighbors until one table remains. All group folds use balanced binary
combination so that a fold of k items has depth at most ceil(log2 k); this
matters when the working operations are sketched (error grows with depth).

Eliminating a leaf groups its rows by the features it shares with its
parent, folds each group, and multiplies every parent row by the value of
its group; a leaf that shares no feature is one group holding every row.

The working operations may be an exact semiring or their sketched
counterparts; with sketching the result is order dependent, so elimination
order and grouping are fixed and deterministic: each group folds its rows
in table order.
"""

import math
from dataclasses import dataclass

from .errors import CapExceeded, CyclicJoinError
from .jointree import decomposition_violation


@dataclass
class EngineConfig:
    plus: callable
    times: callable
    zero: object
    one: object
    size_cap: int = None  # abort when a carrier value grows past this


@dataclass
class Instrumentation:
    max_fold_depth: int = 0
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


@dataclass
class EngineTable:
    index: int
    schema: tuple[str, ...]
    rows: list  # (value tuple, aggregate)


def balanced_fold(op, items, identity, instr=None):
    """Fold by pairing neighbors; depth is ceil(log2 k) for k items."""
    items = list(items)
    if instr is not None:
        instr.record_fold(len(items))
    if not items:
        return identity
    while len(items) > 1:
        nxt = []
        for i in range(0, len(items) - 1, 2):
            nxt.append(op(items[i], items[i + 1]))
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


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


def _seed_tables(db, factors, config):
    _, partition = assign_features(db)
    tables = {}
    for i in range(1, db.m + 1):
        src = db.table(i)
        assigned = [f for f in src.schema if f in partition[i]]
        cols = [src.schema.index(f) for f in assigned]
        rows = []
        for row in src.rows:
            q = config.one
            for f, c in zip(assigned, cols):
                q = config.times(q, factors[f](row[c]))
            rows.append((row, q))
        tables[i] = EngineTable(index=i, schema=src.schema, rows=rows)
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


def _eliminate(decomp, tables, config, root, instr):
    adj = decomp.adjacency()
    alive = set(adj)
    while len(alive) > 1:
        leaf = min(
            v for v in alive if len(adj[v]) == 1 and v != root
        )
        (j,) = adj[leaf]
        ti, tj = tables[leaf], tables[j]
        shared = sorted(set(ti.schema) & set(tj.schema))
        icols = [ti.schema.index(f) for f in shared]
        jcols = [tj.schema.index(f) for f in shared]

        keyed = {}
        for row, q in ti.rows:
            keyed.setdefault(tuple(row[c] for c in icols), []).append(q)
        groups = {}
        for key, items in keyed.items():
            value = _check_size(
                balanced_fold(config.plus, items, config.zero, instr), config
            )
            if instr is not None:
                instr.record_value(value)
            groups[key] = value
        new_rows = []
        for row, q in tj.rows:
            key = tuple(row[c] for c in jcols)
            if key in groups:
                prod = _check_size(config.times(q, groups[key]), config)
                if prod != config.zero:
                    new_rows.append((row, prod))
            # rows with no matching group take the zero and are pruned
        tj.rows = new_rows

        adj[j].discard(leaf)
        del adj[leaf]
        alive.discard(leaf)
    return tables[next(iter(alive))]


def _validated(db, decomp):
    violation = decomposition_violation(db, decomp)
    if violation is not None:
        raise CyclicJoinError(f"invalid decomposition: {violation}")


def evaluate(db, decomp, factors, config, root=None, instr=None):
    """Value of the aggregate over the bag join.

    `factors` maps each feature name to a function value -> carrier.
    With exact semiring operations this is the SumProd value; with sketched
    operations it is its approximation.
    """
    _validated(db, decomp)
    tables = _seed_tables(db, factors, config)
    final = _eliminate(decomp, tables, config, root, instr)
    result = balanced_fold(
        config.plus, (q for _, q in final.rows), config.zero, instr
    )
    result = _check_size(result, config)
    if instr is not None:
        instr.record_value(result)
    return result


def evaluate_to_root(db, decomp, factors, config, root, instr=None):
    """The root table with its aggregate column, before the final fold."""
    _validated(db, decomp)
    if not (1 <= root <= db.m):
        raise ValueError(f"root index {root} out of range 1..{db.m}")
    tables = _seed_tables(db, factors, config)
    return _eliminate(decomp, tables, config, root, instr)
