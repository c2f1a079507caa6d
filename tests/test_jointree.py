import random
from collections import Counter

import pytest

from relagg import (
    CyclicJoinError,
    HypertreeDecomposition,
    build_decomposition,
    verify_decomposition,
)
from conftest import (
    gyo_acyclic,
    random_acyclic_db,
    random_schemas,
    schemas_to_db,
)


def make_db(*schemas):
    return schemas_to_db(list(schemas))


def test_path_schemas():
    db = make_db(("a", "b"), ("b", "c"), ("c", "d"))
    decomp = build_decomposition(db)
    assert decomp.edges == ((1, 2), (2, 3))
    assert verify_decomposition(db, decomp)


def test_triangle_is_cyclic():
    db = make_db(("a", "b"), ("b", "c"), ("a", "c"))
    with pytest.raises(CyclicJoinError):
        build_decomposition(db)


def test_single_table():
    db = make_db(("a",))
    decomp = build_decomposition(db)
    assert decomp.edges == ()
    assert verify_decomposition(db, decomp)


def test_cross_product_attaches_isolated_tables():
    db = make_db(("a",), ("b",), ("c",))
    decomp = build_decomposition(db)
    assert verify_decomposition(db, decomp)
    assert len(decomp.edges) == 2


def test_verify_rejects_disconnected_feature():
    db = make_db(("a", "b"), ("b", "c"), ("a", "c"))
    bad = HypertreeDecomposition(num_vertices=3, edges=((1, 2), (2, 3)))
    assert not verify_decomposition(db, bad)


def test_verify_rejects_non_tree():
    db = make_db(("a",), ("b",))
    assert not verify_decomposition(
        db, HypertreeDecomposition(num_vertices=2, edges=())
    )


def test_verify_rejects_wrong_vertex_count():
    db = make_db(("a", "b"), ("b",))
    assert not verify_decomposition(
        db, HypertreeDecomposition(num_vertices=3, edges=((1, 2), (2, 3)))
    )


def test_self_consistency_on_random_schemas():
    rng = random.Random(7)
    accepted = 0
    for _ in range(1000):
        db = schemas_to_db(random_schemas(rng))
        try:
            decomp = build_decomposition(db)
        except CyclicJoinError:
            continue
        accepted += 1
        assert verify_decomposition(db, decomp)
    assert accepted > 100  # sanity: plenty of acyclic draws


def test_agreement_with_gyo_oracle():
    rng = random.Random(11)
    for _ in range(1000):
        schemas = random_schemas(rng)
        db = schemas_to_db(schemas)
        try:
            build_decomposition(db)
            accepted = True
        except CyclicJoinError:
            accepted = False
        assert accepted == gyo_acyclic(schemas), schemas


def test_edges_are_listed_in_elimination_order():
    """The engine eliminates tables in edge order, so walking the edges,
    each child must be the lowest-index leaf of the tree that remains."""
    rng = random.Random(13)
    dbs = [random_acyclic_db(rng, max_m=7, max_n=2) for _ in range(1000)]
    dbs += [schemas_to_db(s) for s in (random_schemas(rng) for _ in range(1000))
            if gyo_acyclic(s)]  # cross products too: tables sharing nothing
    for db in dbs:
        edges = build_decomposition(db).edges
        for step, (child, _) in enumerate(edges):
            degree = Counter(t for edge in edges[step:] for t in edge)
            leaves = [t for t, d in degree.items() if d == 1]
            assert child == min(leaves), edges


def test_edge_list_text():
    db = make_db(("a", "b"), ("b", "c"))
    assert build_decomposition(db).as_text() == "1 2"
