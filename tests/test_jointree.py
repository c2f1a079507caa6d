import random
from collections import Counter

import pytest

from relagg import CyclicJoinError, build_decomposition, verify_decomposition
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
    assert verify_decomposition(db, decomp.edges)


def test_triangle_is_cyclic():
    db = make_db(("a", "b"), ("b", "c"), ("a", "c"))
    with pytest.raises(CyclicJoinError):
        build_decomposition(db)


def test_single_table():
    db = make_db(("a",))
    decomp = build_decomposition(db)
    assert decomp.edges == ()
    assert verify_decomposition(db, decomp.edges)


def test_cross_product_attaches_isolated_tables():
    db = make_db(("a",), ("b",), ("c",))
    decomp = build_decomposition(db)
    assert verify_decomposition(db, decomp.edges)
    assert len(decomp.edges) == 2


def test_verify_rejects_disconnected_feature():
    db = make_db(("a", "b"), ("b", "c"), ("a", "c"))
    assert not verify_decomposition(db, ((1, 2), (2, 3)))


def test_verify_rejects_non_tree():
    db = make_db(("a",), ("b",))
    assert not verify_decomposition(db, ())


def test_verify_rejects_wrong_vertex_count():
    db = make_db(("a", "b"), ("b",))
    assert not verify_decomposition(db, ((1, 2), (2, 3)))


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
        assert verify_decomposition(db, decomp.edges)
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


def acyclic_dbs(seed):
    """Seeded random acyclic databases, cross products among them."""
    rng = random.Random(seed)
    dbs = [random_acyclic_db(rng, max_m=7, max_n=2) for _ in range(1000)]
    dbs += [schemas_to_db(s) for s in (random_schemas(rng) for _ in range(1000))
            if gyo_acyclic(s)]  # cross products too: tables sharing nothing
    return dbs


@pytest.fixture(scope="module")
def plans():
    return [(db, build_decomposition(db)) for db in acyclic_dbs(17)]


def test_edges_are_listed_in_elimination_order():
    """The engine eliminates tables in edge order, so walking the edges,
    each child must be the lowest-index leaf of the tree that remains."""
    for db in acyclic_dbs(13):
        edges = build_decomposition(db).edges
        for step, (child, _) in enumerate(edges):
            degree = Counter(t for edge in edges[step:] for t in edge)
            leaves = [t for t, d in degree.items() if d == 1]
            assert child == min(leaves), edges


def test_edge_list_text():
    db = make_db(("a", "b"), ("b", "c"))
    assert build_decomposition(db).as_text() == "1 2"


def test_plan_root_is_the_one_table_without_a_parent(plans):
    for db, plan in plans:
        assert {plan.root} == set(range(1, db.m + 1)) - dict(plan.edges).keys()


def test_plan_sends_each_edge_after_every_edge_into_its_child(plans):
    for _, plan in plans:
        for step, (child, _) in enumerate(plan.edges):
            into = [i for i, (_, p) in enumerate(plan.edges) if p == child]
            assert all(i < step for i in into), plan.edges


def test_plan_children_follow_edge_order(plans):
    for db, plan in plans:
        assert plan.children == {
            t: tuple(c for c, p in plan.edges if p == t)
            for t in range(1, db.m + 1)}


def test_plan_keys_are_the_features_shared_over_each_edge(plans):
    """shared[c] is what child c and its parent have in common, and a
    table's key is the union of shared over its edges, sorted."""
    for db, plan in plans:
        schema = {t: set(db.table(t).schema) for t in range(1, db.m + 1)}
        assert plan.shared == {
            c: tuple(sorted(schema[c] & schema[p])) for c, p in plan.edges}
        assert plan.keys == {
            t: tuple(sorted({f for c, p in plan.edges if t in (c, p)
                             for f in plan.shared[c]}))
            for t in schema}


def test_plan_owned_partitions_the_features(plans):
    """Each feature is owned by the lowest-index table that has it, and
    listed there in schema order."""
    for db, plan in plans:
        owners = Counter(f for fs in plan.owned.values() for f in fs)
        assert owners == Counter(set(db.feature_tables))
        for t, features in plan.owned.items():
            schema = db.table(t).schema
            assert list(features) == [
                f for f in schema if min(db.feature_tables[f]) == t]


def test_plan_depth_is_2m_minus_4_or_5(plans):
    """D = 2m - 4 when the root's fused child is a leaf and 2m - 5 when it
    has children, whose last product and fold go unsketched; 0 for one
    table. Both shapes occur among the plans."""
    shapes = Counter()
    for db, plan in plans:
        if db.m == 1:
            assert plan.depth == 0
            continue
        fused = plan.children[plan.root][-1]
        shapes[bool(plan.children[fused])] += 1
        assert plan.depth == 2 * db.m - (5 if plan.children[fused] else 4)
    assert shapes[True] and shapes[False]
    assert build_decomposition(make_db(("a",))).depth == 0
    assert build_decomposition(make_db(("a",), ("a",))).depth == 0
    # the chain 1 - 2 - 3 fuses t2, which has t1 below it; the star whose
    # hub t3 is the root fuses the leaf t2
    assert build_decomposition(make_db(("a",), ("a", "b"), ("b",))).depth == 1
    assert build_decomposition(make_db(("a",), ("b",), ("a", "b"))).depth == 2
