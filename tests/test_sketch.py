import math
import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import weighted_sets
from relagg import (
    CapExceeded,
    Multiset,
    WeightedSet,
    alpha_for,
    make_named,
    ms_sketch,
    ws_sketch,
    ws_triangle,
)
from relagg import sketch
from relagg.algebra import SUMSUM_BASES
from relagg.algebra import COUNTS
from relagg.multiset import ms_union

MIN_PLUS = make_named("min-plus")
MAX_PLUS = make_named("max-plus")
COUNTING = make_named("counting")


def test_alpha_for():
    """At the worst depth an m-table plan reaches, D = 2m - 3 sketches, the
    composed factors stay within (1 +/- eps)."""
    for m in range(1, 9):
        depth = max(2 * m - 3, 1)
        for eps in (1e-3, 0.1, 0.5, 2.0):
            a = alpha_for(eps, m)
            assert (1 + a) ** depth <= (1 + eps) * (1 + 1e-12)
            assert (1 - a) ** depth >= 1 - eps
    for bad_eps in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            alpha_for(bad_eps, 3)
    with pytest.raises(ValueError):
        alpha_for(0.1, 0)


def test_sketches_reject_bad_eps():
    a = Multiset(((1.0, 1), (2.0, 1), (3.0, 1)))
    w = WeightedSet(((1.0, 2.0), (2.0, 3.0)), MIN_PLUS)
    for bad_eps in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            ms_sketch(a, bad_eps)
        with pytest.raises(ValueError):
            ws_sketch(w, bad_eps)


def test_ms_sketch_small_inputs_unchanged():
    a = Multiset(((5.0, 1),))
    assert ms_sketch(a, 0.5) is a
    assert ms_sketch(Multiset(), 0.5) == Multiset()


def test_ms_sketch_returns_value_within_size_bound():
    # aggregates 8, 16, ..., 80 at eps 1: 2 ceil(log2 10) + 4 = 12 >= 10;
    # the fit test's count span alone (log(24/8)) allows only 8, so the
    # band pass's own check returns it
    a = Multiset(tuple((float(k), 8) for k in range(10)))
    assert len(a) <= _size_bound(a, 1.0)
    assert ms_sketch(a, 1.0) is a


def test_ms_sketch_skips_small_inputs_without_reading_total(monkeypatch):
    """Every count is at least 1, so the aggregates span at least
    log((c + n - 2 + c') / c), c the first count, c' the last and n the
    number of entries. When that puts n within the size bound, the sketch
    returns the multiset without its total and before the band pass."""
    import relagg.sketch

    class ColumnsOnly:  # no `total`: reading it raises AttributeError
        keys = tuple(float(k) for k in range(10))
        weights = (1,) * 10
        base = COUNTS

    monkeypatch.setattr(relagg.sketch, "_band", None)  # a call would raise
    a = ColumnsOnly()
    # span >= log 10: 2 ceil(log 10 / log1p(1)) + 4 = 12 >= 10
    assert ms_sketch(a, 1.0) is a


@given(
    st.dictionaries(st.integers(-30, 30).map(float), st.integers(1, 50),
                    max_size=40),
    st.sampled_from([0.05, 0.5, 1.0, 3.0]),
)
def test_ms_sketch_is_ws_sketch_over_counting(counts, eps):
    """A multiset's sketch is the band pass over its counts."""
    a = Multiset(tuple(sorted(counts.items())))
    w = WeightedSet(a.entries, COUNTING)
    assert ms_sketch(a, eps).entries == ws_sketch(w, eps).entries


def test_ms_sketch_preserves_total_and_extremes():
    rng = random.Random(61)
    for _ in range(200):
        keys = sorted(rng.sample(range(100), rng.randint(2, 20)))
        a = Multiset(tuple((float(k), rng.randint(1, 9)) for k in keys))
        s = ms_sketch(a, rng.choice([0.1, 0.5, 1.0]))
        assert sum(s.weights) == sum(a.weights)
        assert s.entries[0][0] == a.entries[0][0]
        assert s.entries[-1][0] == a.entries[-1][0]
        kept = {k for k, _ in s.entries}
        assert kept <= {k for k, _ in a.entries}


def ms_bound_ok(a, s, eps):
    """(1-eps) * tri_a(t) <= tri_s(t) <= tri_a(t) at every key of a."""
    for t, _ in a.entries:
        lo = (1 - eps) * ws_triangle(a, t)
        hi = ws_triangle(a, t)
        got = ws_triangle(s, t)
        if not (lo - 1e-9 <= got <= hi):
            return False
    return True


def test_ms_sketch_cumulative_bound():
    rng = random.Random(67)
    for _ in range(500):
        keys = sorted(rng.sample(range(-50, 50), rng.randint(1, 15)))
        a = Multiset(tuple((float(k), rng.randint(1, 20)) for k in keys))
        for eps in (0.05, 0.1, 0.5, 1.0):
            assert ms_bound_ok(a, ms_sketch(a, eps), eps)


def test_ms_sketch_size_logarithmic():
    a = Multiset([(float(i), 1) for i in range(10000)])
    for eps in (0.1, 0.5, 1.0):
        s = ms_sketch(a, eps)
        assert len(s) <= math.floor(math.log(sum(a.weights), 1 + eps)) + 2


def _random_ws(rng, base, lo=-8, hi=8, max_keys=12):
    keys = sorted(rng.sample(range(lo, hi + 1), rng.randint(1, max_keys)))
    entries = []
    for k in keys:
        w = float(rng.randint(0, 9))
        if w != base.zero:
            entries.append((float(k), w))
    return WeightedSet(tuple(entries), base)


def ws_bound_ok(a, s, eps):
    """tri_a(e)/(1+eps) <= tri_s(e) <= (1+eps)*tri_a(e) at every key of a."""
    for e, _ in a.entries:
        exact = ws_triangle(a, e)
        got = ws_triangle(s, e)
        if exact == a.base.zero:
            continue
        if not (exact / (1 + eps) - 1e-9 <= got <= (1 + eps) * exact + 1e-9):
            return False
    return True


def test_ws_sketch_cumulative_bound():
    rng = random.Random(71)
    for base in (MIN_PLUS, MAX_PLUS):
        for _ in range(400):
            a = _random_ws(rng, base)
            for eps in (0.1, 0.5, 1.0):
                assert ws_bound_ok(a, ws_sketch(a, eps), eps)


def test_ws_sketch_small_inputs_unchanged():
    a = WeightedSet(((1.0, 2.0),), MIN_PLUS)
    assert ws_sketch(a, 0.5) is a


def test_ws_sketch_returns_four_entries_without_cumulative_pass():
    """The skip bound is never below 4, so at most 4 entries come back
    before any base (+)."""
    from relagg.algebra import Semiring

    calls = []

    def plus(x, y):
        calls.append((x, y))
        return x + y

    counted = Semiring("counted", plus, COUNTING.times, 0, 1, "increasing")
    a = WeightedSet(((1.0, 1.0), (2.0, 100.0), (3.0, 1e4), (4.0, 1e6)), counted)
    assert ws_sketch(a, 1e-3) is a
    assert calls == []


# The parametrized size-bound cases: three bases and the multiset carrier.
CARRIERS = [COUNTING, MAX_PLUS, MIN_PLUS, Multiset]


def _carrier_id(carrier):
    return "multiset" if carrier is Multiset else carrier.name


def _sketch(a, eps):
    return ms_sketch(a, eps) if isinstance(a, Multiset) else ws_sketch(a, eps)


def _unit_steps(base, n):
    """n keys whose cumulative aggregates are 1, 2, ..., n under `base`,
    or n unit counts when `base` is the multiset carrier."""
    if base is Multiset:
        return Multiset(tuple((float(k), 1) for k in range(n)))
    weights = {
        "counting": [1.0] * n,
        "max-plus": [float(k + 1) for k in range(n)],
        "min-plus": [float(n - k) for k in range(n)],
    }[base.name]
    return WeightedSet(tuple((float(k), w) for k, w in enumerate(weights)), base)


def _size_bound(a, eps):
    """2 ceil(log(hi/lo) / log1p(eps)) + 4, lo and hi the extreme positive
    finite cumulative aggregates."""
    tri = [ws_triangle(a, k) for k, _ in a.entries]
    positive = [t for t in tri if 0 < t < math.inf]
    span = math.log(max(positive) / min(positive)) if positive else 0.0
    return 2 * math.ceil(span / math.log1p(eps)) + 4


@pytest.mark.parametrize("base", CARRIERS, ids=_carrier_id)
def test_ws_sketch_returns_value_within_size_bound(base):
    # aggregates 1..12 at eps 1: 2 ceil(log2 12) + 4 = 12 entries
    a = _unit_steps(base, 12)
    assert len(a) == _size_bound(a, 1.0)
    assert _sketch(a, 1.0) is a


@pytest.mark.parametrize("base", CARRIERS, ids=_carrier_id)
def test_ws_sketch_compresses_past_size_bound(base):
    # aggregates 1..13: the bound is still 12; bands close at 3, 5 and 9
    a = _unit_steps(base, 13)
    assert len(a) == _size_bound(a, 1.0) + 1
    s = _sketch(a, 1.0)
    assert len(s) == 5
    bound_ok = ms_bound_ok if base is Multiset else ws_bound_ok
    assert bound_ok(a, s, 1.0)


@given(
    st.one_of(*(
        weighted_sets(base, st.integers(0, 50), max_size=17)
        for base in (COUNTING, MAX_PLUS, MIN_PLUS)
    )),
    st.sampled_from([0.05, 0.5, 1.0, 3.0]),
)
def test_ws_sketch_output_within_size_bound(a, eps):
    """The band pass never returns more entries than the skip's bound, on
    the nonnegative carrier."""
    s = ws_sketch(a, eps)
    assert len(s) <= _size_bound(a, eps)
    assert ws_bound_ok(a, s, eps)


SUM_PAIRS = SUMSUM_BASES["sum"]


def _pair_set(keys, weights):
    return WeightedSet(tuple(zip(map(float, keys), weights)), SUM_PAIRS)


@st.composite
def sum_pair_sets(draw):
    """SumSum's `sum` pairs on up to 120 keys, enough that many draws pass
    the summed size bound: counts small, past the float range, or mixed,
    and integral float sums (exact cumulatives), all zero in some draws."""
    keys = sorted(draw(st.lists(st.integers(-200, 200), unique=True,
                                min_size=30, max_size=120)))
    counts = draw(st.sampled_from([st.integers(1, 1000),
                                   st.integers(2**1024, 2**1030),
                                   st.integers(1, 2**1030)]))
    sums = draw(st.sampled_from([st.just(0.0),
                                 st.integers(0, 10**6).map(float)]))
    return _pair_set(keys, [(draw(counts), draw(sums)) for _ in keys])


def _column_bound(column, eps):
    """A cumulative column's size bound: 2 ceil(log(hi/lo) / log1p(eps)) + 4
    over its positive finite aggregates, 4 when it has none."""
    positive = [t for t in column if 0 < t < math.inf]
    if not positive:
        return 4
    span = math.log(max(positive)) - math.log(min(positive))
    return 2 * math.ceil(span / math.log1p(eps)) + 4


@given(sum_pair_sets(), st.sampled_from([0.05, 0.5, 1.0, 3.0]))
@example(_pair_set(range(40), [(1, 0.0)] * 40), 0.5)  # an all-zero sum column
# sums that start to grow where the counts are mid-band: the sum column
# must close those runs
@example(_pair_set(range(60), [(1, float(k >= 30)) for k in range(60)]), 0.5)
def test_pair_sketch_keeps_each_component_within_its_band(a, eps):
    """At every input key, each component of the sketch's cumulative (count,
    sum) lies in [tri / (1+eps), tri], tri the input's, and the output
    holds no more entries than the sum of the two columns' size bounds."""
    s = ws_sketch(a, eps)
    assert s.base is SUM_PAIRS and set(s.keys) <= set(a.keys)
    tri = list(accumulate(a.weights, SUM_PAIRS.plus))
    ratio = Fraction(1 + eps)
    for key, exact in zip(a.keys, tri):
        got = ws_triangle(s, key)
        for x, y in zip(got, exact):
            assert Fraction(x) <= Fraction(y) <= ratio * Fraction(x), (key, got, exact)
    assert len(s) <= sum(_column_bound(column, eps) for column in zip(*tri))


def test_pair_sketch_compresses_an_all_zero_sum_column():
    """Sums that are all 0 never close a run: the counts alone cut it."""
    a = _pair_set(range(40), [(1, 0.0)] * 40)
    s = ws_sketch(a, 0.5)
    assert len(s) < len(a) and all(w == 0.0 for _, w in s.weights)
    counts = Multiset(tuple((float(k), 1) for k in range(40)))
    assert s.keys == ws_sketch(counts, 0.5).keys


# The fit test: `ws_sketch` returns a value before the cumulative pass
# only where `_band` would return it unchanged.


def _column_set(base, weights):
    """The weight column at keys 0, 1, ...: a multiset when `base` is the
    multiset carrier."""
    entries = tuple((float(k), w) for k, w in enumerate(weights))
    return Multiset(entries) if base is Multiset else WeightedSet(entries, base)


COUNT_COLUMNS = st.sampled_from([st.integers(1, 50),
                                  st.integers(2**1024, 2**1030),
                                  st.integers(1, 2**1030)])
WEIGHTS = {
    Multiset: COUNT_COLUMNS,
    COUNTING: st.just(st.integers(1, 10**6).map(float)),
    MAX_PLUS: st.just(st.integers(-5, 50).map(float)),
    MIN_PLUS: st.just(st.integers(-5, 50).map(float)),
}
SUMS = st.sampled_from([st.just(0.0), st.integers(0, 10**6).map(float),
                        st.sampled_from([0.0, 1e307, 1e308, 1.7e308])])


@st.composite
def fit_cases(draw):
    """A weight column of 1 to 60 entries over one of the sketched bases,
    sorted in most draws, as a product's weights often nearly are: counts
    small, past the float range or mixed; max-plus weights that may be <= 0
    or hold a +inf; `sum` pairs whose sums may be 0 or overflow when
    summed."""
    base = draw(st.sampled_from([*WEIGHTS, SUM_PAIRS]))
    n = draw(st.integers(1, 60))
    if base is SUM_PAIRS:
        counts, sums = draw(COUNT_COLUMNS), draw(SUMS)
        weights = [(draw(counts), draw(sums)) for _ in range(n)]
    else:
        weights = draw(st.lists(draw(WEIGHTS[base]), min_size=n, max_size=n))
    if draw(st.integers(0, 3)):
        weights.sort()
    if base is MAX_PLUS and not draw(st.integers(0, 3)):
        # +inf ends the running max's finite aggregates wherever it stands
        weights[draw(st.integers(0, n - 1))] = math.inf
    return _column_set(base, weights)


@settings(max_examples=400)
@given(fit_cases(), st.sampled_from([0.01, 0.05, 0.1, 0.5, 1.0, 3.0]))
# a first weight of 0: lo is the first positive one, 1, and hi >= 10
@example(_column_set(MAX_PLUS, [0.0, 0.0, *map(float, range(1, 11))]), 1.0)
# a first sum of 0: the counts bound 14 + 4 < 20, the sums, 1 .. 1000, 24
@example(_pair_set(range(20), [(1, 0.0), (1, 0.0), (1, 1.0),
                               *[(1, 0.0)] * 16, (1, 1000.0)]), 1.0)
@example(_pair_set(range(40), [(1, 0.0)] * 40), 0.5)  # an all-zero sum column
# counts that end at exactly c[0] + (n - 2) + c[-1] = 16, bound 12 < 14
@example(_column_set(Multiset, [1] * 13 + [3]), 1.0)
# counts past the float range
@example(_column_set(Multiset, [2**1030] * 40), 0.05)
@example(_pair_set(range(40), [(2**1030, 1.0)] * 40), 0.05)
# n exactly at the size bound, 12 (pairs: 14 + 4), and at the bound + 1
@example(_unit_steps(MAX_PLUS, 12), 1.0)
@example(_unit_steps(MAX_PLUS, 13), 1.0)
@example(_unit_steps(Multiset, 12), 1.0)
@example(_unit_steps(Multiset, 13), 1.0)
@example(_pair_set(range(18), [(1, 0.0)] * 18), 1.0)
@example(_pair_set(range(19), [(1, 0.0)] * 19), 1.0)
# an early +inf: the finite aggregates span [1, 1], whatever w[-1] says
@example(_column_set(MAX_PLUS, [1.0, math.inf, 2.0, 2.0, 1e10]), 1.0)
# sums that overflow: the last finite one, 1.1e308, lies below s[-1]
@example(_pair_set(range(28), [(1, 1e307), (1, 1e308), (1, 1e308),
                               *[(1, 0.0)] * 24, (1, 1.7e308)]), 1.0)
def test_fit_test_returns_only_what_the_band_pass_returns(a, eps):
    """Whenever the fit test passes a value on, the band pass would return
    it unchanged too; wherever the band pass compresses, the sketch is its
    output."""
    base = a.base
    out = sketch._band(a.keys, a.weights, base.plus,
                       base.plus_monotone == "decreasing", eps)
    if sketch._fits(a.weights, base, eps):
        assert out is None
    s = _sketch(a, eps)
    if out is None:
        assert s is a
    else:
        assert (s.keys, s.weights) == out


def test_counting_fold_past_the_float_range_is_refused():
    """A `counting` weight, a float >= 0, gives the fit test nothing to go
    on, so the cumulative pass runs and refuses a fold past the float
    range. A bound from w[0] + w[-1] would admit these 6 entries (it is
    94 730 at eps 0.03), yet 1e308 + 1e308 overflows."""
    a = _column_set(COUNTING, [1e-300] + [1e308] * 5)
    with pytest.raises(CapExceeded, match="overflows the float range"):
        ws_sketch(a, 0.03)


def test_ws_sketch_requires_monotone_base():
    from relagg.algebra import Semiring

    flat = Semiring(
        name="flat",
        plus=lambda x, y: x,
        times=lambda x, y: x,
        zero=None,
        one=None,
        plus_monotone=None,
    )
    a = WeightedSet(((1.0, 2.0), (2.0, 3.0)), flat)
    with pytest.raises(ValueError, match="monotone"):
        ws_sketch(a, 0.5)


def test_ws_sketch_never_grows():
    rng = random.Random(73)
    for base in (MIN_PLUS, MAX_PLUS):
        for _ in range(100):
            a = _random_ws(rng, base)
            assert len(ws_sketch(a, 0.5)) <= len(a)


def test_approx_union_error_composes():
    """Sketched inputs re-sketched after the exact op stay in the
    (1-beta-ish)(1-alpha) ... (1+...)(1+alpha) envelope for counts."""
    rng = random.Random(79)
    beta = gamma = 0.2
    alpha = 0.1
    for _ in range(200):
        a = Multiset(tuple(
            (float(k), rng.randint(1, 9))
            for k in sorted(rng.sample(range(40), rng.randint(1, 12)))
        ))
        b = Multiset(tuple(
            (float(k), rng.randint(1, 9))
            for k in sorted(rng.sample(range(40), rng.randint(1, 12)))
        ))
        exact = ms_union(a, b)
        approx = ms_sketch(ms_union(ms_sketch(a, beta), ms_sketch(b, gamma)), alpha)
        for t, _ in exact.entries:
            ref = ws_triangle(exact, t)
            got = ws_triangle(approx, t)
            lo = (1 - max(beta, gamma)) * (1 - alpha) * ref
            assert lo - 1e-9 <= got <= ref + 1e-9


def test_ms_sketch_counts_past_the_float_range():
    """Aggregates past 1.8e308 are cut exactly, in ints: (1+eps) tri would
    overflow a float. Checked in ints too: 10 tri <= 11 tri_s <= 11 tri
    is tri / 1.1 <= tri_s <= tri."""
    a = Multiset(tuple((float(k), 10**310 * (k + 1)) for k in range(300)))
    s = ms_sketch(a, 0.1)
    assert isinstance(s, Multiset) and len(s) < len(a)
    assert Multiset(s.entries) == s
    for k in range(-1, 300):
        t = k + 0.5
        tri, tri_s = ws_triangle(a, t), ws_triangle(s, t)
        assert 10 * tri <= 11 * tri_s <= 11 * tri
