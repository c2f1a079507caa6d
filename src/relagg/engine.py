"""Join-tree evaluation: messages between tables aggregated by their join
keys, every one sent by the same rule.

Evaluates a SumProd-style aggregate over the bag join of a database without
materializing the join. Each table is seeded once: a row's value q is the
product of the leaves of the features the table owns that have a factor.
A feature with none contributes the carrier's one, so it takes no part in
any product, and a row with no such feature is one. Each factor runs once
per distinct value of its feature, whose leaf a memo keeps: n rows over d
distinct values build d leaves, not n. Each row goes straight into the
group of its join key (every feature the table shares with a neighbour in
the join tree), and each group folds into one value with the carrier's
exact n-ary union. The fold is exact because (x) distributes over (+), and
it is not sketched, so it adds nothing to the approximation depth.

One rule sends every message, whichever way it travels: the message from
x to y is the fold, grouped by the key x shares with y (one group if
none), of x's value times every message into x except y's, multiplied in
a fixed order: x's children in elimination order, then its parent
(Yannakakis 1981; FAQ, Abo Khamis, Ngo and Rudra 2016). The join tree is
`jointree.build_decomposition`'s, whose edges (child, parent) are listed in
elimination order: each table sends to its parent in that order, and the
root is the one table with no parent. The root's last product is not
built: `evaluate` pairs the root's value times every message but its last
child's with that message, key by key, and the drivers read each pair at a
threshold. Only when some table is asked for as a reader (SumSum's owning
tables) does each parent send to its child, in reverse elimination order.
A reader builds, per join key, the product P of every message into it and
pairs each row's q with its key's P, so only q (x) P is fused. A table
with d neighbours builds d - 1 products per message, d(d - 1) when it
sends all d: the same products as sharing prefix and suffix products on a
chain (d <= 2), more than their 3d or so at a table with many neighbours.

The engine only folds, multiplies and sends. The carrier, its sketch and
approx mode's size cap are the caller's choice, passed in `EngineConfig`
(`drivers._evaluate` makes it for every query): the engine applies
`config.sketch`, when set, to each group fold and product it builds, and
knows nothing of the cap, which the sketch itself enforces.

Approximation depth: approx mode sketches every group fold and every
product (not the join-key folds, not the seeding products of singletons).
By induction over the tree, a message from x to y, which summarizes the s
tables on x's side of the edge, composes s sketched folds and s - 1
sketched products: the n other messages into x cover the other s - 1
tables, so they compose s - 1 folds and s - 1 - n products; multiplying
x's exact value by them takes n more products however the n + 1 factors
are associated, and the group fold adds one fold. A read at table t
multiplies q by the d messages into t, which cover the other m - 1
tables: m - 1 folds and (m - 1 - d) + d products, the last of which is the
fused read and never built; these are the counts of an elimination rooted
at t. So every read, the root's included, composes D = 2m - 3 sketches,
the depth `sketch.alpha_for` spends epsilon on: a union's error is its
worse operand's and a product's error factors multiply, so no read carries
more than D factors of (1 +/- alpha).

With sketched operations the result is order dependent, so elimination
order and grouping are fixed and deterministic: the order is
`build_decomposition`'s edge order (the rule that picks it, lowest-index
leaf first, lives in `jointree`), and keys and groups keep the order of
their first row.
"""

import math
import operator
from dataclasses import dataclass

from .jointree import build_decomposition


@dataclass
class EngineConfig:
    plus: callable  # plus(*values), one or more -> their exact (+)-fold
    times: callable
    one: object
    sketch: callable = None  # approx mode: applied to each group fold and product


@dataclass
class Instrumentation:
    max_fold_depth: int = 0  # ceil(log2 k) of the largest fold, k its items
    fold_count: int = 0
    max_value_size: int = 0

    def record_fold(self, k):
        self.fold_count += 1
        depth = math.ceil(math.log2(k)) if k > 1 else 0
        self.max_fold_depth = max(self.max_fold_depth, depth)

    def record_value(self, value):
        self.max_value_size = max(self.max_value_size, len(value))


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


def _key_getter(cols):
    """row (or key) -> the tuple of its values at `cols`."""
    if len(cols) > 1:
        return operator.itemgetter(*cols)
    if cols:
        (c,) = cols
        return lambda row: (row[c],)
    return lambda row: ()


def _seed(db, factors, config, key_features, readers, instr):
    """Each table's {join key: exact fold of its rows' values}, and each
    reader's (row, join key, q) triples.

    A row's value q is the product of the leaves of the features the table
    owns and `factors` lists, `config.one` when there are none. Each
    factor runs once per distinct value: a memo per feature keeps its
    leaves."""
    _, partition = assign_features(db)
    keyed, triples = {}, {t: [] for t in readers}
    for t, features in key_features.items():
        src = db.table(t)
        owned = [(src.schema.index(f), factors[f], {})
                 for f in src.schema if f in partition[t] and f in factors]
        key_of = _key_getter([src.schema.index(f) for f in features])
        reads = triples.get(t)
        groups = {}
        for row in src.rows:
            q = None
            for c, fn, memo in owned:
                v = row[c]
                leaf = memo.get(v)
                if leaf is None:
                    leaf = memo[v] = fn(v)
                q = leaf if q is None else config.times(q, leaf)
            if q is None:
                q = config.one
            key = key_of(row)
            groups.setdefault(key, []).append(q)
            if reads is not None:
                reads.append((row, key, q))
        keyed[t] = _fold(groups, None, config, instr)
    return keyed, triples


def _built(value, sketch, instr):
    """A value the engine built: sketched unless `sketch` is None, then
    recorded."""
    if sketch is not None:
        value = sketch(value)
    if instr is not None:
        instr.record_value(value)
    return value


def _fold(groups, sketch, config, instr):
    """{group: (+)-fold of its items}, one `plus` call per group."""
    folded = {}
    for group, items in groups.items():
        if instr is not None:
            instr.record_fold(len(items))
        folded[group] = _built(config.plus(*items), sketch, instr)
    return folded


def _grouped(pairs, project):
    """{project(key): the values of the (key, value) pairs it projects}."""
    groups = {}
    for key, value in pairs:
        groups.setdefault(project(key), []).append(value)
    return groups


def _times_by(values, message, project, keys, config, instr):
    """{key: values[key] (x) message[project(key)]} over the keys the
    message covers. `values` None is the empty product: the message is
    then looked up on `keys`, a table's keys, and nothing is built."""
    if values is None:
        return {key: message[s] for key in keys if (s := project(key)) in message}
    return {key: _built(config.times(value, other), config.sketch, instr)
            for key, value in values.items()
            if (other := message.get(project(key))) is not None}


def evaluate(db, factors, config, readers=(), instr=None):
    """The root's (a, b) pairs, and each reader's (row, a, b) triples.

    `factors` maps a feature name to a function value -> carrier, its
    leaf; a feature missing from `factors` contributes `config.one`. The
    aggregate over the bag join is the (+)-fold of a (x) b over the root's
    pairs: one per join key of the table eliminated last, with b =
    `config.one` when there is a single table. For each table t in
    `readers`, a (x) b for one of its rows is the aggregate over the join
    rows that extend that row; rows that no join row extends may be left
    out. Neither product is built. With sketched operations a and b are
    approximations. A cyclic join raises CyclicJoinError.
    """
    tree = build_decomposition(db)
    adj = tree.adjacency()
    schemas = {t: set(db.table(t).schema) for t in adj}
    key_features = {
        t: sorted(set().union(*(schemas[t] & schemas[n] for n in adj[t])))
        for t in adj
    }
    edge = {  # (t, n) -> t's key -> its values at the features shared with n
        (t, n): _key_getter([key_features[t].index(f)
                             for f in sorted(schemas[t] & schemas[n])])
        for t in adj for n in adj[t]
    }
    keyed, rows = _seed(db, factors, config, key_features, readers, instr)

    parent = dict(tree.edges)  # child -> parent, in elimination order
    children = {t: [] for t in adj}
    for c, p in parent.items():
        children[p].append(c)
    (root,) = adj.keys() - parent.keys()
    message = {}

    def times_messages(x, value, skip=None):
        """`value` times every message into x but skip's: x's children in
        elimination order, then its parent. `value` None starts from the
        first message, looked up on x's keys."""
        for n in children[x] + ([parent[x]] if x != root else []):
            if n != skip:
                value = _times_by(value, message[n, x], edge[x, n], keyed[x],
                                  config, instr)
        return value

    def send(x, y):
        inside = times_messages(x, keyed[x], skip=y)
        groups = _grouped(inside.items(), edge[x, y])
        message[x, y] = _fold(groups, config.sketch, config, instr)

    for c in parent:
        send(c, parent[c])
    if children[root]:
        last = children[root][-1]
        b, project = message[last, root], edge[root, last]
        pairs = [(value, b[s]) for key, value in
                 times_messages(root, keyed[root], skip=last).items()
                 if (s := project(key)) in b]
    else:
        pairs = [(value, config.one) for value in keyed[root].values()]
    if not readers:
        return pairs, {}

    for c in reversed(parent):
        send(parent[c], c)
    reads = {}
    for t in readers:
        outside = times_messages(t, None)
        if outside is None:
            outside = dict.fromkeys(keyed[t], config.one)
        reads[t] = [(row, q, outside[key]) for row, key, q in rows[t]
                    if key in outside]
    return pairs, reads
