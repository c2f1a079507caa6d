import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import weighted_sets
from relagg import (
    WeightedSet,
    make_named,
    ws_convolve,
    ws_plus,
    ws_sketch,
    ws_triangle,
)
from relagg.weightedset import ws_empty, ws_one

MIN_PLUS = make_named("min-plus")
MAX_PLUS = make_named("max-plus")
COUNTING = make_named("counting")
BASES = (MIN_PLUS, MAX_PLUS, COUNTING)


def sets_over(bases, n, **kwargs):
    """n weighted sets over one base drawn from `bases`."""
    return st.one_of(
        *(st.tuples(*[weighted_sets(base, **kwargs)] * n) for base in bases)
    )


def test_construction_rules():
    with pytest.raises(ValueError):
        WeightedSet(((1.0, math.inf),), MIN_PLUS)  # base zero weight
    with pytest.raises(ValueError):
        WeightedSet(((2.0, 1.0), (1.0, 1.0)), MIN_PLUS)


def test_plus_min_base():
    a = WeightedSet(((1.0, 4.0), (2.0, 7.0)), MIN_PLUS)
    b = WeightedSet(((2.0, 3.0), (5.0, 1.0)), MIN_PLUS)
    assert ws_plus(a, b).entries == ((1.0, 4.0), (2.0, 3.0), (5.0, 1.0))


def test_convolve_min_base():
    a = WeightedSet(((0.0, 1.0), (1.0, 2.0)), MIN_PLUS)
    b = WeightedSet(((1.0, 5.0), (2.0, 0.0)), MIN_PLUS)
    # keys 1,2,3 with weights 6, min(1+0, 2+5)=1, 2
    assert ws_convolve(a, b).entries == ((1.0, 6.0), (2.0, 1.0), (3.0, 2.0))


def test_convolve_identities():
    a = WeightedSet(((1.0, 4.0),), MAX_PLUS)
    assert ws_convolve(a, ws_one(MAX_PLUS)) == a
    assert ws_convolve(a, ws_empty(MAX_PLUS)) == ws_empty(MAX_PLUS)


def test_plus_identity():
    a = WeightedSet(((1.0, 4.0),), MIN_PLUS)
    assert ws_plus(a) is a
    assert ws_plus(a, ws_empty(MIN_PLUS)) is a
    assert ws_plus(ws_empty(MIN_PLUS), a, ws_empty(MIN_PLUS)) is a


def test_base_mismatch_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        ws_plus(ws_one(MIN_PLUS), ws_one(MAX_PLUS))
    with pytest.raises(ValueError, match="mismatch"):
        ws_plus(ws_one(MIN_PLUS), ws_empty(MIN_PLUS), ws_empty(MAX_PLUS))


def test_zero_weights_dropped():
    # counting base: +1 and -1 cancel at the same key
    x = WeightedSet(((1.0, 1.0),), COUNTING)
    y = WeightedSet(((1.0, -1.0),), COUNTING)
    assert ws_plus(x, y) == ws_empty(COUNTING)


def test_triangle_min_base():
    a = WeightedSet(((1.0, 4.0), (2.0, 3.0), (5.0, 1.0)), MIN_PLUS)
    assert ws_triangle(a, 0.0) == math.inf
    assert ws_triangle(a, 2.0) == 3.0
    assert ws_triangle(a, 9.0) == 1.0


def test_triangle_counting_base():
    a = WeightedSet(((1.0, 2.0), (3.0, 5.0)), COUNTING)
    assert ws_triangle(a, 2.0) == 2.0
    assert ws_triangle(a, 3.0) == 7.0


@settings(max_examples=600)
@given(sets_over(BASES, 3))
def test_semiring_laws_random(sets):
    a, b, c = sets
    assert ws_plus(a, b) == ws_plus(b, a)
    assert ws_convolve(a, b) == ws_convolve(b, a)
    assert ws_plus(ws_plus(a, b), c) == ws_plus(a, ws_plus(b, c))
    assert ws_convolve(ws_convolve(a, b), c) == ws_convolve(a, ws_convolve(b, c))
    assert ws_convolve(a, ws_plus(b, c)) == ws_plus(
        ws_convolve(a, b), ws_convolve(a, c)
    )


@settings(max_examples=400)
@given(sets_over((MIN_PLUS, MAX_PLUS), 2), st.integers(-12, 12))
def test_triangle_distributes_over_plus(sets, ell):
    a, b = sets
    ell = float(ell)
    assert ws_triangle(ws_plus(a, b), ell) == a.base.plus(
        ws_triangle(a, ell), ws_triangle(b, ell)
    )


@given(st.one_of(
    *(st.lists(weighted_sets(base), min_size=1, max_size=6) for base in BASES)
))
def test_plus_equals_per_key_fold(xs):
    """Each key's weight is the base (+)-fold of the operands' weights at
    it, in operand order; base zeros are dropped."""
    base = xs[0].base
    keys = sorted({key for x in xs for key, _ in x.entries})
    weights = [(key, base.zero) for key in keys]
    for x in xs:
        at = dict(x.entries)
        weights = [(key, base.plus(w, at.get(key, base.zero)))
                   for key, w in weights]
    expected = tuple((key, w) for key, w in weights if w != base.zero)
    assert ws_plus(*xs) == WeightedSet(expected, base)


@given(sets_over(BASES, 2, weights=st.integers(0, 9)),
       st.sampled_from([0.1, 0.5, 1.0, 3.0]))
def test_trusted_results_pass_the_check(sets, eps):
    """Every result built without the constructor's check passes it."""
    a, b = sets
    product = ws_convolve(a, b)
    for r in (ws_plus(a, b), product, ws_plus(a, b, a), ws_sketch(product, eps)):
        assert isinstance(r.entries, tuple)
        assert WeightedSet(r.entries, r.base) == r
