"""Join-tree evaluation: messages from each table to its parent,
aggregated by their join keys.

Evaluates a SumProd-style aggregate over the bag join of a database without
materializing the join. Each table is seeded once, by one scan: a row's
leaves are those of the features the table owns that have a factor, in
schema order, and each row goes straight into the group of its join key
(the plan's `keys[t]`: every feature the table shares with a neighbour
in the join tree). A feature with no factor contributes nothing, and a
row with no such feature holds no leaves. Each factor runs once per
distinct value of its feature, whose leaf a memo keeps: n rows over d
distinct values build d leaves, not n. `config.gather` then builds each group's value from its
rows in one call; the drivers' gathers turn each row into one (key,
weight) entry and accumulate the entries, with one sort per group and no
per-row value or union. The gather is exact and is not sketched, so it
adds nothing to the approximation depth.

One upward pass sends every message: the message from x to its parent y
is the fold, grouped by the key x shares with y (one group if none), of
x's value times the message from each of x's children, multiplied in
elimination order (Yannakakis 1981; FAQ, Abo Khamis, Ngo and Rudra 2016).
The join tree and every fact about it come from the caller's plan,
`jointree.Plan`, built once per query; the engine derives none of its
own. Each table sends to its parent in the plan's edge order, after all
its children, and the root is the plan's. The root's last product is not
built: `evaluate` pairs the root's value times every message but its last
child's (the plan's fused child) with that message, key by key, and the
drivers read each pair at a threshold. Every query kind is this one
pass; `sum` SumSum runs it over (count, sum) pairs, and `max` and `min`
SumSum over plain floats (`algebra.SUMSUM_BASES`).

The engine only folds, multiplies and sends. The carrier, its sketch and
approx mode's size cap are the caller's choice, passed in `EngineConfig`
(`drivers._evaluate` makes it for every query): the engine applies
`config.sketch`, when set, to each group fold and product that a later
product reads, and knows nothing of the cap, which the sketch itself
enforces.

Approximation depth: a sketch keeps later operations small, so approx
mode sketches every group fold and every product that another product
reads, and not the seeding gathers. The fused child's message is read
once, by the drivers, and multiplied by nothing, so its group fold and
its last product (its value times its last child's message) are built
exactly: a sketch there would cost a pass over the value and save no
later work. Its earlier products each feed a later one and stay
sketched. By induction over the tree, a message from x to its parent,
which summarizes the s tables of x's subtree, composes s sketched folds
and s - 1 sketched products: the n messages from x's children cover the
other s - 1 tables, so they compose s - 1 folds and s - 1 - n products;
multiplying x's exact value by them takes n more products however the
n + 1 factors are associated, and the group fold adds one fold. The
read at the root multiplies its value by its d children's messages,
which cover the other m - 1 tables: m - 1 folds and (m - 1 - d) + d
products, the last of which is the fused read and never built. The
fused child's exact fold takes one sketch off that, and when it has
children, its exact last product one more. So every read composes
D = 2m - 4 sketches when the fused child is a leaf, 2m - 5 when it has
children, and 0 for one table: the plan's `depth`, over which
`sketch.alpha_for` spends epsilon. A union's error is its worse
operand's and a product's error factors multiply, so no read carries
more than D factors of (1 +/- alpha).

With sketched operations the result is order dependent, so elimination
order and grouping are fixed and deterministic: the order is the plan's
edge order (the rule that picks it, lowest-index leaf first, lives in
`jointree`), and keys and groups keep the order of their first row.
"""

import math
import operator
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class EngineConfig:
    plus: callable  # plus(*values), one or more -> their exact (+)-fold
    times: callable
    one: object
    gather: callable  # gather(rows) -> one join key's value, see `evaluate`
    sketch: callable = None  # approx mode: applied to what a later product reads


@dataclass
class Instrumentation:
    """What a run did. The engine records its folds and values;
    `drivers._evaluate` writes `mode` and `alpha`, the mode it ran in and
    its sketches' alpha (None in exact mode), which the CLI reports."""

    max_fold_depth: int = 0  # ceil(log2 k) of the largest fold, k its items
    fold_count: int = 0
    max_value_size: int = 0
    mode: str = None
    alpha: float = None

    def record_fold(self, k):
        self.fold_count += 1
        depth = math.ceil(math.log2(k)) if k > 1 else 0
        self.max_fold_depth = max(self.max_fold_depth, depth)

    def record_value(self, value):
        self.max_value_size = max(self.max_value_size, len(value))


def _getter(cols):
    """row -> its value at the one column of `cols`, else the tuple of its
    values at `cols`: a scalar hashes faster than its 1-tuple."""
    if cols:
        return operator.itemgetter(*cols)
    return operator.itemgetter(slice(0, 0))


def _projection(features, shared):
    """A join key over `features` (`_getter`'s shape) -> its values at
    `shared`, a subset, in the same shape: the key itself when both are
    the one feature, () when `shared` is empty."""
    if not shared:
        return lambda key: ()
    if len(features) == 1:
        return lambda key: key
    return _getter([features.index(f) for f in shared])


def _seed(db, plan, factors, config, instr):
    """Each table's {join key: the gather of its rows}, keyed by the
    plan's `keys[t]`.

    A row's leaves are those of the features the table owns (the plan's
    `owned[t]`) and `factors` lists, in schema order, so every row of a
    table holds as many. Each factor runs once per distinct value, in
    first-row order: a memo per feature keeps its leaves, and a memo per
    table keeps the leaves of each distinct value (or tuple of values) a
    row holds at those features."""
    keyed = {}
    for t, features in plan.keys.items():
        src = db.table(t)
        owned = [f for f in plan.owned[t] if f in factors]
        memos = [(factors[f], {}) for f in owned]
        values_of = _getter([src.schema.index(f) for f in owned])
        leaves = dict.fromkeys(map(values_of, src.rows))
        for values in leaves:
            leaves[values] = tuple(
                memo[v] if v in memo else memo.setdefault(v, fn(v))
                for v, (fn, memo) in zip(
                    (values,) if len(owned) == 1 else values, memos))
        key_of = _getter([src.schema.index(f) for f in features])
        groups = defaultdict(list)
        for row in src.rows:
            groups[key_of(row)].append(leaves[values_of(row)])
        keyed[t] = _fold(groups, config.gather, None, instr)
    return keyed


def _built(value, sketch, instr):
    """A value the engine built: sketched unless `sketch` is None, then
    recorded."""
    if sketch is not None:
        value = sketch(value)
    if instr is not None:
        instr.record_value(value)
    return value


def _fold(groups, fold, sketch, instr):
    """{group: fold(its items)}, one `fold` call per group."""
    folded = {}
    for group, items in groups.items():
        if instr is not None:
            instr.record_fold(len(items))
        folded[group] = _built(fold(items), sketch, instr)
    return folded


def _grouped(pairs, project):
    """{project(key): the values of the (key, value) pairs it projects}."""
    groups = {}
    for key, value in pairs:
        groups.setdefault(project(key), []).append(value)
    return groups


def evaluate(db, plan, factors, config, instr=None):
    """The root's (a, b) pairs, sending messages along `plan`, the
    `jointree.Plan` of `db`.

    `factors` maps a feature name to a function value -> its leaf, and
    `config.gather(rows)` builds a join key's value from the rows that
    hold it, in row order: each row is the tuple of its leaves, those of
    the features its table owns that `factors` lists, in schema order, so
    every row of one call holds as many (none for a table that owns no
    such feature). A feature missing from `factors` takes no part. The
    aggregate over the bag join is the (+)-fold of a (x) b over the root's
    pairs: one per join key of the plan's root, with b = `config.one` when
    there is a single table. The product is not built. With sketched
    operations a and b are approximations, and a (x) b composes exactly
    the plan's `depth` sketches.
    """
    keyed = _seed(db, plan, factors, config, instr)
    keys, shared, message = plan.keys, plan.shared, {}

    def times_messages(x, senders, last_sketch=config.sketch):
        """x's value times the message from each of `senders`, x's
        children, in order, over the keys every message covers; the last
        product is sketched by `last_sketch`, every other by the config's."""
        value = keyed[x]
        for n in senders:
            sent, project = message[n], _projection(keys[x], shared[n])
            sketch = last_sketch if n == senders[-1] else config.sketch
            value = {key: _built(config.times(v, other), sketch, instr)
                     for key, v in value.items()
                     if (other := sent.get(project(key))) is not None}
        return value

    root = plan.root
    *rest, fused = plan.children[root] or (None,)
    for c, _ in plan.edges:
        # the fused child's message is only read, by the drivers, so its
        # last product and its fold are built exactly
        sketch = None if c == fused else config.sketch
        groups = _grouped(times_messages(c, plan.children[c], sketch).items(),
                          _projection(keys[c], shared[c]))
        message[c] = _fold(groups, lambda items: config.plus(*items),
                           sketch, instr)
    if fused is None:
        return [(value, config.one) for value in keyed[root].values()]
    b, project = message[fused], _projection(keys[root], shared[fused])
    return [(value, b[s]) for key, value in times_messages(root, rest).items()
            if (s := project(key)) in b]
