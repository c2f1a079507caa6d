"""The column kernels against a pair-list reference.

A value stores its keys and its weights as two aligned columns. The
reference below runs the same algorithms on tuples of (key, weight)
pairs, the layout in which a weight cannot part from its key, and every
kernel must match it exactly: same keys, same weights, same float
rounding. The keys are drawn so that sums collide only after float
rounding (1e16 + 1.0 == 1e16 + 0.0) or stay apart though equal over the
reals (0.1 + 0.2 != 0.3 + 0.0), and counts reach past 2**1024, beyond the
float range, where the band cut is taken in exact integers.

Multiset convolution has two paths, the pairwise loop and the packed
big-int product for integral float keys on a dense span; the lattice
draws below reach both, and the product must match the reference on
either. SumSum's product of (count, sum) pairs packs its count and sum
columns the same way when every sum is a nonnegative integral float, and
must match `ws_convolve` over the pair base on either path.

Over max-plus and min-plus the union and the product fold inline, without
the base's calls, when every weight is finite and, for the product, the
sums of the operands' extreme weights are; the tropical draws add
negative weights, -0.0, NaN, infinities and weights whose pair sums
overflow, and the kernels must match the reference, CapExceeded included.

The seeding gather builds a join key's value from its rows' leaves in one
scan; it must equal, by `repr`, the union of each row's product of its
one-entry leaves, the value seeding built before the gather.
"""

import math
from bisect import bisect_left, bisect_right
from functools import reduce
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relagg import weightedset
from relagg import (
    CapExceeded,
    Multiset,
    Semiring,
    WeightedSet,
    make_named,
    ms_sketch,
    ms_union,
    ws_convolve,
    ws_plus,
    ws_sketch,
)
from relagg.algebra import COUNTS, SUMSUM_BASES
from relagg.drivers import threshold_read
from relagg.weightedset import ws_empty, ws_gather, ws_one
from conftest import packed_products

BASES = {name: make_named(name) for name in ("counting", "min-plus", "max-plus")}
KEYS = (-1e16, -0.1, 0.0, 0.1, 0.2, 0.3, 0.30000000000000004, 0.7, 1.0, 2.0,
        1e16)
# float weights whose sums round, so the order in which they fold shows
WEIGHTS = (0.1, 0.2, 0.3, 0.7, 1.0, 3.0, 1e16)
SMALL, HUGE = st.integers(1, 4), st.integers(2**1024, 2**1030)
EPS = st.sampled_from([0.05, 0.5, 2.0, 8.0])


# ---------------------------------------------------------------------------
# The reference: the same algorithms over tuples of (key, weight) pairs


def ref_plus(operands, base):
    acc = {}
    for entries in operands:
        for key, w in entries:
            acc[key] = base.plus(acc[key], w) if key in acc else w
    return tuple((k, w) for k, w in sorted(acc.items()) if w != base.zero)


def ref_convolve(a, b, base):
    acc = {}
    for ka, wa in a:
        for kb, wb in b:
            key, w = ka + kb, base.times(wa, wb)
            acc[key] = base.plus(acc[key], w) if key in acc else w
    return tuple((k, w) for k, w in sorted(acc.items()) if w != base.zero)


def ref_sketch(entries, base, eps):
    """The band pass over pairs; `entries` unchanged when they fit."""
    n, plus = len(entries), base.plus
    if n <= 4:
        return entries
    weights = [w for _, w in entries]
    tri = list(accumulate(weights, plus))
    decreasing = base.plus_monotone == "decreasing"
    if decreasing:
        entries, weights, tri = entries[::-1], weights[::-1], tri[::-1]
    lo, hi = bisect_right(tri, 0), bisect_left(tri, math.inf) - 1
    if lo <= hi and n <= 2 * math.ceil(
            (math.log(tri[hi]) - math.log(tri[lo])) / math.log1p(eps)) + 4:
        return entries[::-1] if decreasing else entries
    out, i = [entries[0]], 0
    while i + 1 < n:
        try:
            cut = tri[i] if tri[i] < 0 else (1 + eps) * tri[i]
        except OverflowError:
            num, den = (1 + eps).as_integer_ratio()
            cut = tri[i] * num // den
        j = bisect_right(tri, cut, i + 2)
        out.append((entries[j - 1][0], reduce(plus, weights[i + 1:j])))
        i = j - 1
    return tuple(out[::-1] if decreasing else out)


def ref_read(threshold, base, a, b):
    """Delta_L(a (x) b) off b's prefix aggregates, L = threshold."""
    keys = [k for k, _ in b]
    sums = list(accumulate((w for _, w in b), base.plus, initial=base.zero))
    total = base.zero
    for ka, wa in a:
        i = bisect_right(keys, threshold - ka)
        while i and ka + keys[i - 1] > threshold:
            i -= 1
        while i < len(keys) and ka + keys[i] <= threshold:
            i += 1
        if not i:
            break
        total = base.plus(total, base.times(wa, sums[i]))
    return total


# The bases whose kernels branch, each under a twin: the same operations
# in another object, whose values take the kernels' generic loops.
TWINS = {base: Semiring(f"{base.name} twin", base.plus, base.times, base.zero,
                        base.one, base.plus_monotone)
         for base in (COUNTS, SUMSUM_BASES["sum"])}


def twin_of(value):
    """`value` over its base's twin."""
    return WeightedSet._trusted(value.keys, value.weights, TWINS[value.base])


# ---------------------------------------------------------------------------
# Draws


def pairs(weights, max_size=6):
    return st.dictionaries(st.sampled_from(KEYS), weights, max_size=max_size)\
        .map(lambda d: tuple(sorted(d.items())))


def multiset_lists(max_len=6):
    """Small counts, counts past the float range, or both mixed."""
    return st.sampled_from([SMALL, HUGE, st.one_of(SMALL, HUGE)]).flatmap(
        lambda counts: st.lists(pairs(counts).map(Multiset), min_size=1,
                                max_size=max_len))


def weighted_lists(max_len=5):
    return st.sampled_from(sorted(BASES)).flatmap(
        lambda name: st.lists(
            pairs(st.sampled_from(WEIGHTS)).map(
                lambda e, base=BASES[name]: WeightedSet(e, base)),
            min_size=2, max_size=max_len))


# ---------------------------------------------------------------------------
# The kernels match the reference exactly


@settings(max_examples=150, deadline=None)
@given(multiset_lists(), EPS, st.sampled_from(KEYS))
def test_multiset_kernels_match_pair_reference(xs, eps, threshold):
    entries = [x.entries for x in xs]
    assert ms_union(*xs).entries == ref_plus(entries, COUNTS)
    product = reduce(ws_convolve, xs)
    want = reduce(lambda a, b: ref_convolve(a, b, COUNTS), entries)
    assert product.entries == want
    assert ms_sketch(product, eps).entries == ref_sketch(want, COUNTS, eps)
    assert ws_sketch(product, eps).entries == ref_sketch(want, COUNTS, eps)
    read = threshold_read(threshold, COUNTS)
    for a in xs:
        assert read(a, product) == ref_read(threshold, COUNTS, a.entries, want)


@settings(max_examples=150, deadline=None)
@given(weighted_lists(), EPS, st.sampled_from(KEYS))
def test_weighted_kernels_match_pair_reference(xs, eps, threshold):
    base = xs[0].base
    entries = [x.entries for x in xs]
    assert ws_plus(*xs).entries == ref_plus(entries, base)
    product = reduce(ws_convolve, xs[:3])
    want = reduce(lambda a, b: ref_convolve(a, b, base), entries[:3])
    assert product.entries == want
    assert ws_sketch(product, eps).entries == ref_sketch(want, base, eps)
    read = threshold_read(threshold, base)
    for a in xs:
        assert read(a, product) == ref_read(threshold, base, a.entries, want)


# ---------------------------------------------------------------------------
# Tropical kernels: the inline fold against the reference's base calls

# negative weights, -0.0 beside 0.0, int weights, weights near the float
# range's ends whose pair sums overflow, each base's nonzero infinity, NaN,
# and an int past the float range
TROPICAL_WEIGHTS = (-3.5, -1.0, -0.0, 0.0, 0.1, 0.2, 2.0, 1e16, -2, 1, 9e307,
                    -9e307, 1.7e308, -1.7e308, math.inf, -math.inf, math.nan,
                    2**1100)


def tropical_lists(max_len=4):
    return st.sampled_from(["max-plus", "min-plus"]).flatmap(
        lambda name: st.lists(
            pairs(st.sampled_from([w for w in TROPICAL_WEIGHTS
                                   if w != BASES[name].zero])).map(
                lambda e, base=BASES[name]: WeightedSet(e, base)),
            min_size=2, max_size=max_len))


def exactly(entries):
    """The entries as reprs: -0.0 is not 0.0 and 1 is not 1.0."""
    return [(repr(k), repr(w)) for k, w in entries]


def outcome(fn, *args):
    """fn(*args), or the type of the CapExceeded or OverflowError it
    raised."""
    try:
        return fn(*args)
    except (CapExceeded, OverflowError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(tropical_lists())
def test_tropical_kernels_match_pair_reference(xs):
    """Same keys, same weights, same types, -0.0 included, and CapExceeded
    (OverflowError for an int past the float range) exactly where a pair
    of the reference overflows."""
    base = xs[0].base
    assert exactly(ws_plus(*xs).entries) == exactly(
        ref_plus([x.entries for x in xs], base))
    for a, b in zip(xs, xs[1:]):
        want = outcome(ref_convolve, a.entries, b.entries, base)
        got = outcome(ws_convolve, a, b)
        if isinstance(want, type):
            assert got is want
        else:
            assert exactly(got.entries) == exactly(want)


def tropical(name, *weights):
    """A weighted set over the named base on keys 0.0, 1.0, ..."""
    return WeightedSet(tuple((float(i), w) for i, w in enumerate(weights)),
                       BASES[name])


TROPICAL_PATH_CASES = {  # name -> (a, b, whether the kernels fold inline)
    "max-plus-finite": (tropical("max-plus", -3.5, -0.0, 2.0, 0.0),
                        tropical("max-plus", 0.0, 1e16, -1.0), True),
    "min-plus-finite": (tropical("min-plus", 0.0, -0.0, -2, 7.5),
                        tropical("min-plus", -0.0, 3.0, 1), True),
    # extreme weights whose largest and smallest sums stay finite
    "max-plus-extremes": (tropical("max-plus", 1.7e308, -1.7e308),
                          tropical("max-plus", -1.0, 0.0), True),
    "max-plus-overflow": (tropical("max-plus", 1.0, 1.7e308),
                          tropical("max-plus", 1.7e308), False),
    "min-plus-overflow": (tropical("min-plus", -1.7e308, 5.0),
                          tropical("min-plus", 2.0, -1.7e308), False),
    # the largest sum is finite, the smallest overflows
    "max-plus-low-overflow": (tropical("max-plus", 1.0, -1.7e308),
                              tropical("max-plus", -1.7e308), False),
    "max-plus-inf-weight": (tropical("max-plus", math.inf),
                            tropical("max-plus", 1.0), False),
}


@pytest.mark.parametrize("a, b, inline", TROPICAL_PATH_CASES.values(),
                         ids=TROPICAL_PATH_CASES)
def test_tropical_path_follows_the_operands(monkeypatch, a, b, inline):
    """Finite operands whose extreme sums are finite never call the base's
    (x) or (+); any other pair runs the base's (x), and an overflowing
    pair still raises CapExceeded."""
    base = a.base
    want_product = outcome(ref_convolve, a.entries, b.entries, base)
    want_union = ref_plus((a.entries, b.entries), base)
    calls = []

    def spy(op):
        def wrapped(x, y):
            if inline:
                raise AssertionError("the inline fold called the base")
            calls.append(1)
            return op(x, y)
        return wrapped
    monkeypatch.setitem(base.__dict__, "times", spy(base.times))
    monkeypatch.setitem(base.__dict__, "plus", spy(base.plus))
    got = outcome(ws_convolve, a, b)
    if inline:
        assert exactly(got.entries) == exactly(want_product)
    else:
        assert calls and want_product is got is CapExceeded
    assert exactly(ws_plus(a, b).entries) == exactly(want_union)


def test_only_the_named_tropical_bases_fold_inline():
    """A base pairing `max` with another (x) is not max-plus: its own (x)
    runs on every pair."""
    pairs_seen = []

    def times(x, y):
        pairs_seen.append((x, y))
        return x * y
    base = Semiring("max-times", max, times, 0.0, 1.0, "increasing")
    a = WeightedSet(((0.0, 2.0), (1.0, 3.0)), base)
    b = WeightedSet(((0.0, 0.5), (1.0, 4.0)), base)
    got = ws_convolve(a, b)
    assert len(pairs_seen) == 4
    assert got.entries == ref_convolve(a.entries, b.entries, base) == \
        ((0.0, 1.0), (1.0, 8.0), (2.0, 12.0))


def test_draws_reach_float_collisions_and_huge_counts():
    """The pools hold what the property tests are for: distinct keys whose
    sums round together, sums equal over the reals that stay apart, and
    counts past the float range."""
    assert 1e16 + 1.0 == 1e16 + 0.0 and 0.1 + 0.2 != 0.3 + 0.0
    a = Multiset(((0.0, 2**1024), (1.0, 3)))
    b = Multiset(((0.0, 1), (1e16, 2**1030)))
    product = ws_convolve(a, b)
    want = ref_convolve(a.entries, b.entries, COUNTS)
    assert product.entries == want and len(want) == 3
    assert dict(product.entries)[1e16] == 2**1024 * 2**1030 + 3 * 2**1030


# ---------------------------------------------------------------------------
# Convolution on integer lattices: the packed path against the reference

EXACT = 2**53
# first keys: offset and negative lattices, and runs that end near +/-2**53,
# past which a float no longer holds every integer
STARTS = (0, 0, 3, -7, -7, -40, 2**40, EXACT - 30, EXACT - 3, -EXACT + 1,
          -EXACT - 2)
LATTICE_COUNTS = (st.integers(1, 3), st.integers(1, 2**40),
                  st.integers(2**64, 2**70))


@st.composite
def lattices(draw, counts=LATTICE_COUNTS):
    """A multiset on integer keys: dense or sparse, float keys (a 0 may be
    -0.0) or int keys, a last key of +inf, or empty; its counts are drawn
    from one of `counts`."""
    start = draw(st.sampled_from(STARTS))
    gaps = draw(st.lists(st.sampled_from((1, 1, 2, 3)), max_size=12))
    if gaps and draw(st.sampled_from((False, False, True))):  # sparse
        gaps[draw(st.integers(0, len(gaps) - 1))] = 10**6
    ints = list(accumulate(gaps, initial=start))
    form = draw(st.sampled_from(("float",) * 4 + ("-0.0", "int", "inf",
                                                  "empty")))
    if form == "empty":
        return Multiset()
    keys = ints if form == "int" else sorted({float(k) for k in ints})
    if form == "-0.0":
        keys = [-0.0 if k == 0 else k for k in keys]
    if form == "inf":  # +inf only: -inf + inf is NaN, a key no order holds
        keys = keys + [math.inf]
    counts = draw(st.lists(draw(st.sampled_from(counts)),
                           min_size=len(keys), max_size=len(keys)))
    return Multiset(tuple(zip(keys, counts)))


def lattice(n, start=0, count=1):
    """n entries on consecutive integer float keys."""
    return Multiset(tuple((float(start + i), count) for i in range(n)))


def takes_packed_path(a, b):
    return weightedset._packed(a.keys, (a.weights,), b.keys,
                               (b.weights,)) is not None


@settings(max_examples=400, deadline=None)
@given(lattices(), lattices())
def test_lattice_convolution_matches_pair_reference(a, b):
    """Equal keys, equal counts, and the same types: float keys, int
    counts, on whichever path the operands take."""
    got = ws_convolve(a, b)
    want = ref_convolve(a.entries, b.entries, COUNTS)
    assert got.entries == want
    assert [type(k) for k in got.keys] == [type(k) for k, _ in want]
    assert [type(c) for c in got.weights] == [type(c) for _, c in want]


def test_packed_path_returns_positive_zero_for_negative_zero_keys():
    """-0.0 is an integral float, so a lattice holding it is packed; the
    packed key is the integer 0 as a float, +0.0, where the pairwise sum
    -0.0 + -0.0 is -0.0. The two compare equal, as dict keys too."""
    a = Multiset(((-0.0, 2), (1.0, 1)))
    assert takes_packed_path(a, a)
    twin = twin_of(a)
    packed, pairwise = ws_convolve(a, a), ws_convolve(twin, twin)
    assert packed.keys == pairwise.keys == (0.0, 1.0, 2.0)
    assert packed.weights == pairwise.weights == (4, 4, 1)
    assert math.copysign(1, packed.keys[0]) == 1
    assert math.copysign(1, pairwise.keys[0]) == -1


PATH_CASES = {  # name -> (a, b, whether the packed path takes them)
    "dense-28x29": (lattice(28), lattice(29, start=-5), True),
    "end-sum-near-minus-2**53": (lattice(3, start=-EXACT + 2),
                                 lattice(3, start=-1), True),
    # an end sum of magnitude 2**53: a key sum might round
    "end-sum-2**53": (lattice(3, start=EXACT - 3), lattice(2), False),
    "end-sum-minus-2**53": (lattice(3, start=-EXACT + 1),
                            lattice(3, start=-1), False),
    # span 5 > 2 x 2 pairs, then span 4
    "span-past-pairs": (Multiset(((0.0, 1), (3.0, 1))),
                        Multiset(((0.0, 1), (1.0, 1))), False),
    "span-at-pairs": (Multiset(((0.0, 1), (2.0, 1))),
                      Multiset(((0.0, 1), (1.0, 1))), True),
    "real-key": (Multiset(((0.0, 1), (0.5, 1))), lattice(4), False),
    "int-keys": (Multiset(((0, 1), (1, 1))), lattice(4), False),
    "inf-key": (Multiset(((0.0, 1), (math.inf, 1))), lattice(4), False),
    # count bounds: 2**64 - 1 fits a 64-bit item, 2**64 does not
    "bound-2**64-1": (lattice(1, count=2**32 - 1),
                      lattice(2, count=2**32 + 1), True),
    "bound-2**64": (lattice(1, count=2**32), lattice(2, count=2**32), False),
}


@pytest.mark.parametrize("a, b, packed", PATH_CASES.values(), ids=PATH_CASES)
def test_convolution_path_follows_the_operands(a, b, packed):
    assert takes_packed_path(a, b) is packed
    got = ws_convolve(a, b)
    assert got.entries == ref_convolve(a.entries, b.entries, COUNTS)


def test_dense_lattice_products_skip_the_pairwise_loop(monkeypatch):
    """28 x 29 lattice operands, the size of star-m2m's products, are one
    big-int product: the pairwise loop must not run."""
    a = Multiset(tuple((float(k), k % 3 + 1) for k in range(0, 31) if k % 11))
    b = Multiset(tuple((float(k), 1 + k * k) for k in range(-20, 9)))
    assert (len(a), len(b)) == (28, 29)

    products = packed_products(monkeypatch)
    got = ws_convolve(a, b)
    assert len(products) == 1 and products[0] is not None
    assert got.entries == ref_convolve(a.entries, b.entries, COUNTS)


# a value over COUNTS: a lattice draw (integral keys, dense or sparse, int
# or inf keys), or real keys; counts small, past 2**64 or past the float
# range
COUNT_VALUES = st.one_of(lattices(), pairs(st.one_of(SMALL, HUGE)).map(Multiset))


@settings(max_examples=300, deadline=None)
@given(st.lists(COUNT_VALUES, min_size=2, max_size=3))
@example([lattice(28), lattice(29, start=-5)])  # the packed path
@example([Multiset(((0.0, 1), (0.5, 2))), lattice(3)])  # a real key
@example([lattice(2, count=2**64), lattice(2)])  # a count past 64 bits
def test_counts_branches_match_the_generic_loops(xs):
    """`ws_plus`, `ws_gather` and `ws_convolve` over COUNTS, on the packed
    path or the int loops, give the entries of their generic loops, run
    over COUNTS' twin."""
    twins = [twin_of(x) for x in xs]
    assert ws_plus(*xs).entries == ws_plus(*twins).entries
    assert ws_convolve(*xs[:2]).entries == ws_convolve(*twins[:2]).entries
    a, b = xs[:2]
    for rows in ([(e,) for x in xs for e in x.entries],
                 list(zip(a.entries, b.entries))):
        if rows:
            assert ws_gather(rows, COUNTS).entries == \
                ws_gather(rows, TWINS[COUNTS]).entries


# ---------------------------------------------------------------------------
# SumSum's (count, sum) pair product: packed columns against the generic loop

SUM_PAIRS = SUMSUM_BASES["sum"]
# counts: small, up to 2**16, and past 2**64, which never packs
PAIR_COUNTS = (st.integers(1, 3), st.integers(1, 2**16),
               st.integers(2**64, 2**70))
# sum columns: integral floats (twice as likely; a 0 may be -0.0), all 0,
# sums from 2**e / 128 to 2**e, so that the sum block's bound
# k (max c_a max s_b + max s_a max c_b) lands on either side of the 2**8,
# 2**16 and 2**32 item limits, and three forms the packed path refuses:
# a negative sum, a real sum and int sums
PAIR_SUMS = (st.integers(0, 50).map(float), st.integers(0, 9).map(float),
             st.just(0.0),
             *(st.integers(2**e >> 7, 2**e).map(float) for e in (8, 16, 32)),
             st.sampled_from((-0.0, 0.0, 3.0)), st.integers(-2, 50).map(float),
             st.sampled_from((0.0, 0.5, 2.0)), st.integers(0, 50))


@st.composite
def pair_lattices(draw):
    """A lattice draw's keys and counts, each count paired with a sum. On
    the packed path a count is below 2**16 and a sum at most 2**32, so
    every c s is below 2**48 and every output sum, of at most 2 x 13 such
    terms, below 2**53: exact in `ws_convolve`'s float arithmetic too."""
    ms = draw(lattices(PAIR_COUNTS))
    sums = draw(st.sampled_from(PAIR_SUMS))
    weights = tuple((c, draw(sums)) for c in ms.weights)
    return WeightedSet(tuple(zip(ms.keys, weights)), SUM_PAIRS)


def _view(keys, column):
    return Multiset._trusted(keys, column, COUNTS)


def takes_packed_pair_path(a, b):
    """Neither operand empty, every count an int >= 1, every sum a
    nonnegative integral float, the count product takes the packed path,
    and the one product's sum block fits a 64-bit item: its bound
    k (max c_a max s_b + max s_a max c_b), k = min(|a|, |b|), which
    bounds every sum too. The top block, s_a s_b, is not bounded."""
    if not a or not b:
        return False
    (ca, sa), (cb, sb) = zip(*a.weights), zip(*b.weights)
    if not all(isinstance(c, int) and c >= 1 for c in ca + cb):
        return False
    if not all(type(s) is float and s >= 0 and s.is_integer() for s in sa + sb):
        return False
    k = min(len(a), len(b))
    sum_bound = k * (max(ca) * max(sb) + max(sa) * max(cb))
    return (sum_bound < 2**64
            and takes_packed_path(_view(a.keys, ca), _view(b.keys, cb)))


def _pair_product(monkeypatch, a, b):
    """ws_convolve(a, b) and whether it fell back to the generic loop: no
    packed product came back."""
    with monkeypatch.context() as mp:
        products = packed_products(mp)
        return ws_convolve(a, b), not any(p is not None for p in products)


@settings(max_examples=400, deadline=None)
@given(pair_lattices(), pair_lattices())
def test_pair_product_matches_generic_convolution(a, b):
    """Equal keys and equal (count, sum) weights of the same types as the
    generic loop over the pair base, and the packed path exactly when the
    operands qualify."""
    with pytest.MonkeyPatch.context() as mp:
        got, generic = _pair_product(mp, a, b)
    want = ws_convolve(twin_of(a), twin_of(b))
    assert got.entries == want.entries and got.base is SUM_PAIRS
    assert [tuple(map(type, w)) for w in got.weights] == \
        [tuple(map(type, w)) for w in want.weights]
    assert generic is not takes_packed_pair_path(a, b)


def pair_lattice(n, start=0, count=1, sums=lambda k: float(k % 3)):
    """n (count, sum) entries on consecutive integer float keys."""
    return WeightedSet(tuple((float(start + i), (count, sums(i)))
                             for i in range(n)), SUM_PAIRS)


PAIR_PATH_CASES = {  # name -> (a, b, whether the packed path takes them)
    "dense-28x29": (pair_lattice(28), pair_lattice(29, start=-5), True),
    "all-zero-sums": (pair_lattice(5, sums=lambda k: 0.0), pair_lattice(4), True),
    "negative-sum": (pair_lattice(5, sums=lambda k: k - 1.0), pair_lattice(4),
                     False),
    "real-sum": (pair_lattice(5, sums=lambda k: k / 2), pair_lattice(4), False),
    "int-sums": (pair_lattice(5, sums=lambda k: k), pair_lattice(4), False),
    "real-key": (WeightedSet(((0.0, (1, 1.0)), (0.5, (1, 1.0))), SUM_PAIRS),
                 pair_lattice(4), False),
    # counts 2**31 x 1 fit 64 bits, c_a s_b = 2**31 x 2**34 does not
    "sum-bound-past-2**64": (pair_lattice(1, count=2**31, sums=lambda k: 0.0),
                             pair_lattice(2, sums=lambda k: 2.0**34), False),
    "sum-bound-2**64-1": (pair_lattice(1, count=2**31, sums=lambda k: 0.0),
                          pair_lattice(2, sums=lambda k: 2.0**32), True),
    # each cross term c_a s_b = s_a c_b = 2**63 fits 64 bits, their sum
    # 2**64 does not
    "cross-terms-sum-past-2**64": (
        pair_lattice(1, count=2**31, sums=lambda k: 2.0**32),
        pair_lattice(2, count=2**31, sums=lambda k: 2.0**32), False),
    # counts and sums (<= 3 x 600) fit 16-bit items, s_a s_b (up to
    # 3 x 90 000) does not: the top block overflows and is masked off
    "sum-squares-past-item": (pair_lattice(3, sums=lambda k: 300.0),
                              pair_lattice(3, sums=lambda k: 300.0), True),
    # one pair takes the packed path like any qualifying product
    "one-by-one": (pair_lattice(1, start=3), pair_lattice(1, start=-2), True),
    # counts `WeightedSet` takes and `ws_convolve` handles, but that are
    # not ints >= 1: a zero count with a nonzero sum, a negative count
    # and a real count
    "zero-count": (WeightedSet(((0.0, (0, 2.0)), (1.0, (1, 1.0))), SUM_PAIRS),
                   pair_lattice(4), False),
    "negative-count": (WeightedSet(((0.0, (-1, 1.0)), (1.0, (1, 1.0))),
                                   SUM_PAIRS), pair_lattice(4), False),
    "real-count": (WeightedSet(((0.0, (1.5, 1.0)), (1.0, (1, 1.0))), SUM_PAIRS),
                   pair_lattice(4), False),
}


@pytest.mark.parametrize("a, b, packed", PAIR_PATH_CASES.values(),
                         ids=PAIR_PATH_CASES)
def test_pair_product_path_follows_the_operands(monkeypatch, a, b, packed):
    assert takes_packed_pair_path(a, b) is packed
    got, generic = _pair_product(monkeypatch, a, b)
    assert generic is not packed
    assert got.entries == ws_convolve(twin_of(a), twin_of(b)).entries


# ---------------------------------------------------------------------------
# The seeding gather against the union of one-entry leaf products

INF = math.inf
# keys collide, as a g term that maps two values to one key makes them;
# a +inf g term takes its row out of every threshold
GATHER_KEYS = (0.0, -0.0, 0.1, 0.2, 0.3, 1.0, INF)
F_TERMS = (0.0, -0.0, 0.5, -1.5, 3.0)
# base -> the weights its leaves carry: the base zero (the row drops),
# signed zeros, and terms whose product overflows (CapExceeded)
GATHER_BASES = {
    "counts": (COUNTS, st.just(1)),
    "sum pairs": (SUMSUM_BASES["sum"],
                  st.tuples(st.just(1), st.sampled_from(F_TERMS))),
    "max-max": (SUMSUM_BASES["max"],
                st.sampled_from(F_TERMS + (SUMSUM_BASES["max"].one,))),
    "min-min": (SUMSUM_BASES["min"],
                st.sampled_from(F_TERMS + (SUMSUM_BASES["min"].one,))),
    "counting": (BASES["counting"],
                 st.sampled_from((0, 0.0, -0.0, 1, 2.5, 1e-200, 1e308))),
    "max-plus": (BASES["max-plus"],
                 st.sampled_from((-INF, 0.0, -0.0, 1.5, -2.0, 1e308))),
    "min-plus": (BASES["min-plus"],
                 st.sampled_from((INF, 0.0, -0.0, 1.5, -2.0, -1e308))),
}


def leaf_union(rows, base):
    """`ws_plus` (`ms_union` over COUNTS) of each row's value: the product
    of its leaves, each lifted to a one-entry value, empty at the base
    zero. The product is the generic loop's one pair, over the base's twin
    where it has one, which sums the keys as they come (a packed product
    returns +0.0 for -0.0 + -0.0, a key that compares equal)."""
    loop = TWINS.get(base, base)

    def lift(key, w):
        if w == loop.zero:
            return ws_empty(loop)
        return WeightedSet(((key, w),), loop)
    values = [reduce(ws_convolve, [lift(k, w) for k, w in row])
              if row else ws_one(loop) for row in rows]
    cls = Multiset if base is COUNTS else WeightedSet
    return ws_plus(*(cls._trusted(v.keys, v.weights, base) for v in values))


@st.composite
def gather_cases(draw):
    """(base name, rows): each row a tuple of 0 to 2 (key, weight) leaves,
    every row as many."""
    name = draw(st.sampled_from(sorted(GATHER_BASES)))
    leaf = st.tuples(st.sampled_from(GATHER_KEYS), GATHER_BASES[name][1])
    width = draw(st.integers(0, 2))
    return name, draw(st.lists(st.tuples(*[leaf] * width), min_size=1,
                               max_size=8))


@settings(max_examples=400, deadline=None)
@given(gather_cases())
# a row of weight zero beside an int weight at its key: skipped, as the
# union skips an empty value, not added (0.0 + 1 would turn 1 into 1.0)
@example(("counting", (((0.5, 0.0),), ((0.5, 1),))))
def test_gather_matches_union_of_leaf_products(case):
    name, rows = case
    base = GATHER_BASES[name][0]
    try:
        want = leaf_union(rows, base)
    except CapExceeded:
        with pytest.raises(CapExceeded):
            ws_gather(rows, base)
        return
    got = ws_gather(rows, base)
    assert repr(got) == repr(want)
    got.__post_init__()
