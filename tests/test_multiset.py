from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import multisets
from relagg import (
    Multiset,
    WeightedSet,
    ms_sketch,
    ms_union,
    ws_convolve,
    ws_plus,
    ws_triangle,
)
from relagg.algebra import COUNTS
from relagg.weightedset import ws_empty, ws_one

ONE, EMPTY = Multiset(((0.0, 1),)), Multiset()


def test_construction_rules():
    with pytest.raises(ValueError):
        Multiset(((1.0, 0),))
    with pytest.raises(ValueError):
        Multiset(((2.0, 1), (1.0, 1)))
    with pytest.raises(ValueError):
        Multiset(((1.0, 1), (1.0, 2)))
    # a weighted set over COUNTS holds counts too
    for entries in (((0.0, -1), (1.0, 2)), ((0.0, 1.5),), ((0.0, 0.0),)):
        with pytest.raises(ValueError, match="positive int"):
            WeightedSet(entries, COUNTS)
    assert WeightedSet(((0.0, 2),), COUNTS).entries == ((0.0, 2),)


def test_from_values():
    """The multiset of some values: their distinct keys, each counted."""
    a = Multiset(sorted(Counter([3.0, 1.0, 3.0, 2.0, 3.0]).items()))
    assert a.entries == ((1.0, 1), (2.0, 1), (3.0, 3))
    assert sum(a.weights) == 5
    assert len(a) == 3


def test_a_multiset_is_the_weighted_set_over_counts():
    """The base is fixed: not an argument, not in the repr, and the same
    for built and constructed values, so they compare equal."""
    a = Multiset(((1.0, 2), (3.0, 1)))
    assert isinstance(a, WeightedSet) and a.base is COUNTS
    assert repr(a) == "Multiset(keys=(1.0, 3.0), weights=(2, 1))"
    with pytest.raises(TypeError):
        Multiset(a.entries, COUNTS)
    assert ms_union(a, ONE) == Multiset(((0.0, 1), (1.0, 2), (3.0, 1)))
    # the union over COUNTS, under either name, is a multiset again
    assert ws_plus(a, ONE) == ms_union(a, ONE)
    # so are the identities over COUNTS
    assert ws_one(COUNTS) == ONE and ws_empty(COUNTS) == EMPTY


def test_union_example():
    a = Multiset(((1.0, 2), (3.0, 1)))
    b = Multiset(((1.0, 1), (2.0, 5)))
    assert ms_union(a, b).entries == ((1.0, 3), (2.0, 5), (3.0, 1))


def test_union_identity():
    a = Multiset(((1.0, 2),))
    assert ms_union(a, EMPTY) is a
    assert ms_union(EMPTY, a) is a
    assert ms_union(EMPTY, a, EMPTY) is a
    assert ms_union() == ms_union(EMPTY, EMPTY) == EMPTY


def test_convolve_example():
    a = Multiset(((0.0, 1), (1.0, 2)))
    b = Multiset(((0.0, 1), (2.0, 1)))
    assert ws_convolve(a, b).entries == ((0.0, 1), (1.0, 2), (2.0, 1), (3.0, 2))


def test_convolve_identities():
    a = Multiset(((1.0, 2), (4.0, 3)))
    assert ws_convolve(a, ONE) == a
    assert ws_convolve(a, EMPTY) == EMPTY


def test_triangle():
    a = Multiset(((1.0, 2), (3.0, 1), (5.0, 4)))
    assert ws_triangle(a, 0.0) == 0
    assert ws_triangle(a, 1.0) == 2
    assert ws_triangle(a, 4.0) == 3
    assert ws_triangle(a, 100.0) == 7
    assert sum(a.weights) == ws_triangle(a, float("inf"))


@settings(max_examples=300)
@given(multisets(), multisets())
def test_totals_compose(a, b):
    assert sum(ms_union(a, b).weights) == sum(a.weights) + sum(b.weights)
    assert sum(ws_convolve(a, b).weights) == sum(a.weights) * sum(b.weights)


@settings(max_examples=300)
@given(multisets(), multisets(), multisets())
def test_semiring_laws_random(a, b, c):
    assert ms_union(a, b) == ms_union(b, a)
    assert ws_convolve(a, b) == ws_convolve(b, a)
    assert ms_union(ms_union(a, b), c) == ms_union(a, ms_union(b, c))
    assert ws_convolve(ws_convolve(a, b), c) == ws_convolve(a, ws_convolve(b, c))
    assert ws_convolve(a, ms_union(b, c)) == ms_union(
        ws_convolve(a, b), ws_convolve(a, c)
    )


@settings(max_examples=200)
@given(multisets(), multisets(), st.integers(-15, 15))
def test_triangle_distributes_over_union(a, b, t):
    t = float(t)
    assert ws_triangle(ms_union(a, b), t) == ws_triangle(a, t) + ws_triangle(b, t)


@given(st.lists(multisets(), max_size=6))
def test_union_equals_from_values(xs):
    """The union holds every operand's elements, each repeated by its count."""
    elements = [key for x in xs for key, count in x.entries for _ in range(count)]
    assert ms_union(*xs) == Multiset(sorted(Counter(elements).items()))


@given(multisets(), multisets(), st.sampled_from([0.1, 0.5, 1.0, 3.0]))
def test_trusted_results_pass_the_check(a, b, eps):
    """Every result built without the constructor's check passes it."""
    product = ws_convolve(a, b)
    for r in (ms_union(a, b), product, ms_union(a, b, a), ms_sketch(product, eps)):
        assert isinstance(r.entries, tuple)
        assert Multiset(r.entries) == r
