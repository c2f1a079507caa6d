"""Join-tree construction and verification for acyclic joins.

A join over tables T_1..T_m is acyclic when there is a tree on the table
indices such that, for every feature, the tables containing it induce a
connected subtree. Construction repeatedly eliminates a table whose features
are either private to it or all contained in one other remaining table;
failure to find such a pair means the join is cyclic.
"""

from dataclasses import dataclass

from .errors import CyclicJoinError


@dataclass(frozen=True)
class HypertreeDecomposition:
    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def adjacency(self):
        adj = {i: set() for i in range(1, self.num_vertices + 1)}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def as_text(self):
        return "\n".join(f"{a} {b}" for a, b in self.edges)


def build_decomposition(db):
    """Deterministic join tree: scan (i, j) pairs in lowest-index order.

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
    edges = []
    while len(remaining) > 1:
        found = None
        for i in sorted(remaining):
            others = remaining - {i}
            shared = {
                c for c in schemas[i] if any(c in schemas[o] for o in others)
            }
            for j in sorted(others):
                if shared <= schemas[j]:
                    found = (i, j)
                    break
            if found:
                break
        if found is None:
            raise CyclicJoinError("the query is cyclic: no eliminable table remains")
        i, j = found
        edges.append((i, j))
        remaining.remove(i)
    return HypertreeDecomposition(num_vertices=m, edges=tuple(edges))


def verify_decomposition(db, decomp):
    """True iff decomp is a tree and every feature's vertex set is connected."""
    m = db.m
    if decomp.num_vertices != m or len(decomp.edges) != m - 1:
        return False
    if any(not (1 <= a <= m and 1 <= b <= m) or a == b for a, b in decomp.edges):
        return False
    adj = decomp.adjacency()
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
