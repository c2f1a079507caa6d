"""Join-tree construction and verification for acyclic joins.

A join over tables T_1..T_m is acyclic when there is a tree on the table
indices such that, for every feature, the tables containing it induce a
connected subtree. Construction repeatedly eliminates a table whose features
are either private to it or all contained in one other remaining table;
failure to find such a pair means the join is cyclic.

`build_decomposition` returns the whole evaluation plan, built once per
query: the tree, the order its messages are sent in, each table's join key
and owned features, and the number of sketches any read composes. The
engine, the drivers and the CLI read these facts off the `Plan` and derive
none of their own (Yannakakis 1981; FAQ, Abo Khamis, Ngo and Rudra 2016,
keeps the variable order apart from evaluation in the same way).
"""

from dataclasses import dataclass

from .errors import CyclicJoinError


@dataclass(frozen=True)
class Plan:
    """The join tree and everything evaluation reads off it.

    Tables are the indices 1..m, and each map is keyed by them.
    - `edges`: (child, parent) pairs in send order, each child after all
      of its own children;
    - `root`: the one table with no parent;
    - `children[t]`: t's children in send order; the root's last child
      is the fused one, whose message the drivers read without a product;
    - `keys[t]`: t's join-key features, those it shares with a neighbour,
      sorted;
    - `shared[c]`: the features child c shares with its parent, sorted;
    - `owned[t]`: the features t owns, each owned by the lowest-index
      table that has it, in t's schema order;
    - `depth`: D, the number of sketches any read composes in approx
      mode: 2m - 4 when the fused child is a leaf, 2m - 5 when it has
      children, 0 for one table. Approx mode sketches only what a later
      product reads, so not the fused child's fold or last product
      (`relagg.engine` gives the count); `drivers.SKETCH_SIZE_CAP` bounds
      only the sketched values.
    """

    edges: tuple[tuple[int, int], ...]
    root: int
    children: dict[int, tuple[int, ...]]
    keys: dict[int, tuple[str, ...]]
    shared: dict[int, tuple[str, ...]]
    owned: dict[int, tuple[str, ...]]
    depth: int

    def as_text(self):
        return "\n".join(f"{a} {b}" for a, b in self.edges)


def build_decomposition(db):
    """The plan of a deterministic join tree: scan (i, j) pairs in
    lowest-index order.

    Tables sharing no feature with the rest attach to the lowest-index
    remaining table (a cross product is acyclic).

    The edges (child, parent) are listed in elimination order, which the
    engine follows: each child is the lowest-index leaf of the tree that
    its edge and the later ones form.

    Raises CyclicJoinError when no table is eliminable.
    """
    m = db.m
    remaining = set(range(1, m + 1))
    schemas = {i: set(db.table(i).schema) for i in remaining}
    edges, shared = [], {}
    while len(remaining) > 1:
        found = None
        for i in sorted(remaining):
            others = remaining - {i}
            common = {
                c for c in schemas[i] if any(c in schemas[o] for o in others)
            }
            for j in sorted(others):
                if common <= schemas[j]:
                    found = (i, j)
                    break
            if found:
                break
        if found is None:
            raise CyclicJoinError("the query is cyclic: no eliminable table remains")
        i, _ = found
        edges.append(found)
        shared[i] = tuple(sorted(common))
        remaining.remove(i)
    root = remaining.pop()
    children = {t: tuple(c for c, p in edges if p == t) for t in schemas}
    fused = children[root][-1] if children[root] else None
    return Plan(
        edges=tuple(edges),
        root=root,
        children=children,
        keys={t: tuple(sorted(set().union(
            *(shared[c] for c, p in edges if t in (c, p))))) for t in schemas},
        shared=shared,
        owned={t: tuple(f for f in db.table(t).schema
                        if db.feature_tables[f][0] == t) for t in schemas},
        depth=0 if fused is None else 2 * m - (5 if children[fused] else 4),
    )


def verify_decomposition(db, edges):
    """True iff `edges` form a tree on the tables 1..m and every feature's
    tables are connected in it."""
    m = db.m
    if len(edges) != m - 1:
        return False
    if any(not (1 <= a <= m and 1 <= b <= m) or a == b for a, b in edges):
        return False
    adj = {i: set() for i in range(1, m + 1)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return (_connected(adj, set(range(1, m + 1)))
            and all(_connected(adj, set(tables))
                    for tables in db.feature_tables.values()))


def _connected(adj, vertices):
    if not vertices:
        return True
    seen = set()
    stack = [min(vertices)]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(w for w in adj[v] if w in vertices and w not in seen)
    return seen == vertices
