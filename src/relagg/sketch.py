"""Epsilon-compression of weighted sets: one band sketch for both carriers.

A value's cumulative aggregate at a key is the base (+)-fold of the weights
at keys up to it. When the base (+) is monotone, the aggregate is monotone
along the keys, and the sketch walks the keys in order of increasing
aggregate. It keeps the first key, then run-compresses the rest: a run
absorbs keys while the aggregate stays within a (1+eps) geometric band of
the last retained boundary, then collapses to its last key carrying the
base (+)-aggregate of the run's weights. Cumulative aggregates at every
original key are preserved within a (1+eps) factor, in each component
when the weights are `sum` SumSum's (count, sum) pairs, the only SumSum
base that is sketched (`max` and `min` run over plain floats under a
base that is not monotone, exactly). The pass reads a
value's weight column into the running aggregates and its key column by
position, and writes the retained keys and weights as two new columns. A
multiset is the weighted set over integer counts (`COUNTS`), so the same
pass sketches it: the sketch never overcounts and keeps tri_s >= tri /
(1+eps) >= (1-eps) tri, exactly even for counts past the float range. A
value within the band pass's size bound is returned unchanged: an exact
value adds no error. One fit test (`_fits`) runs first: the size bound
grows with the span [lo, hi] of a column's positive finite aggregates,
so a bound taken at lo' >= lo and hi' <= hi is at most the band pass's
own, and n within it proves the fit. Multisets, max-plus and `sum` pairs
yield such lo' and hi' from a value's length, its last weight and its
first positive one (`_fits` gives each rule and why it holds), so a
value that fits skips the cumulative pass, and the test reads a whole
column only to confirm a bound that already admits n. Results are built
with the input's own `_trusted`, skipping the entry check, so a multiset
comes back as a multiset.

Approx mode applies a sketch after every group fold and every product the
engine runs: the drivers hand the engine the sketch of their carrier with
alpha bound in, and `alpha_for` derives alpha from the requested total
error eps.
"""

import math
from bisect import bisect_left, bisect_right
from functools import reduce
from itertools import accumulate
from operator import add, itemgetter

from .algebra import COUNTS, SUMSUM_BASES, make_named

_MAX_PLUS, _SUM_PAIRS = make_named("max-plus"), SUMSUM_BASES["sum"]


def alpha_for(eps, m):
    """Per-sketch parameter alpha with which an m-table plan stays within eps.

    alpha = (1+eps)^(1/D) - 1, D = max(2m - 3, 1). Each sketch on the plan
    keeps cumulative aggregates within one (1 +/- alpha) factor, and the
    factors compose: a union's error is its worse operand's and a
    product's error factors multiply, in each component of SumSum's pairs
    too (`_band`). Every read the engine hands the drivers, at the root,
    composes m - 1 sketched group folds and m - 2 sketched products; the
    last product is the fused read, never built, and the join-key folds
    and seeding products are exact (`relagg.engine` gives the count). So
    a read carries at most D = 2m - 3 factors:
    (1+alpha)^D = 1+eps, and (1-alpha)^D >= 1 - D alpha >= 1 - eps since
    alpha <= eps / D.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if m < 1:
        raise ValueError("m must be at least 1")
    return math.expm1(math.log1p(eps) / max(2 * m - 3, 1))


def ms_sketch(a, eps):
    """Band sketch of a multiset: `ws_sketch` over its integer counts,
    whose fit test returns `a` in O(1), before its counts are summed, when
    its first and last counts and its length prove that it fits."""
    return ws_sketch(a, eps)


def ws_sketch(a, eps):
    """Band sketch of a weighted set, by `_band`.

    Requires the base (+) to be monotone: cumulative aggregates are then
    monotone along keys and geometric banding is well defined. The output
    keeps distinct keys of `a`, sorted, in `a`'s own class; `a` itself
    comes back when it fits the size bound, before the cumulative pass
    when cheap facts of its weight column prove that it fits (`_fits`).
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    base = a.base
    if base.plus_monotone not in ("increasing", "decreasing"):
        raise ValueError(
            f"base {base.name!r} addition is not monotone; cannot sketch"
        )
    if _fits(a.weights, base, eps):
        return a
    out = _band(a.keys, a.weights, base.plus,
                base.plus_monotone == "decreasing", eps)
    return a if out is None else type(a)._trusted(*out, base)


def _fits(weights, base, eps):
    """Whether cheap facts of a weight column prove that `_band` returns
    None on it: at most 4 entries, or n within a lower bound on `_band`'s
    size bound, read before any cumulative pass.

    `_bound` grows with hi and shrinks with lo, so a bound taken at any
    lo' >= a column's smallest positive finite aggregate and hi' <= its
    largest is at most the column's own. The rules, per base:
    - `COUNTS`, and the count column of `sum` pairs: every count is an int
      >= 1, so the cumulative counts run exactly from c[0] to at least
      c[0] + (n - 2) + c[-1].
    - max-plus, and the sum column of `sum` pairs, whose sums are >= 0 on
      the carrier the band pass takes: the running max (sum) first rises
      above 0 at the first positive weight (sum), to exactly that value,
      lo, and ends at least at max(lo, w[-1]) if it ends finite. That it
      does is checked only once the bound admits n, by a scan for +inf
      (a left-to-right fold of the sums, as the pass adds them), so a
      value that does not fit pays for no O(n) pass here. A pair's sum
      column is read only when its counts and the 4 that every column
      bounds fall short.
    Any other base fits only at n <= 4. Min-plus's lo, its smallest
    positive prefix min, takes an O(n) scan. A `counting` weight may be
    any positive float, so its first and last bound nothing, and the
    cumulative pass refuses (CapExceeded) a fold that overflows the float
    range, which a fit read off w[0] + w[-1] could pass on.
    """
    n = len(weights)
    if n <= 4:
        return True
    if base is COUNTS:
        return n <= _count_bound(weights[0], weights[-1], n, eps)
    if base is _MAX_PLUS:
        return (n <= _first_bound(weights, weights[-1], eps)
                and math.inf not in weights)
    if base is _SUM_PAIRS:
        bound = _count_bound(weights[0][0], weights[-1][0], n, eps)
        if n <= bound + 4:
            return True
        return (n <= bound + _first_bound(map(itemgetter(1), weights),
                                          weights[-1][1], eps)
                and reduce(add, map(itemgetter(1), weights)) < math.inf)
    return False


def _count_bound(first, last, n, eps):
    """At most the size bound of n >= 2 int counts >= 1, the first
    `first` and the last `last`: their cumulative counts span at least
    [first, first + (n - 2) + last]."""
    return _bound(first, first + (n - 2) + last, eps)


def _first_bound(column, last, eps):
    """`_bound(lo, max(lo, last))`, lo the first positive item of
    `column`, whose last item is `last`: at most the size bound of its
    running max or sum, if that ends finite. 4, which every column bounds,
    when `last` is not positive and finite or lo is +inf."""
    if not 0 < last < math.inf:
        return 4
    lo = next(w for w in column if w > 0)
    return _bound(lo, max(lo, last), eps) if lo < math.inf else 4


def _bound(lo, hi, eps):
    """2 ceil(log(hi/lo) / log1p(eps)) + 4: the band pass's size bound for
    a column whose positive finite aggregates span [lo, hi]."""
    return 2 * math.ceil((math.log(hi) - math.log(lo)) / math.log1p(eps)) + 4


def _cut(t, eps):
    """The band's cut above an aggregate t: (1+eps) t; a negative t is its
    own cut, and inf stays inf. An int t whose cut overflows a float is
    cut at the exact floor(t (1+eps)), with 1+eps as the ratio of ints it
    is: an int exceeds that floor iff it exceeds the real cut."""
    try:
        return t if t < 0 else (1 + eps) * t
    except OverflowError:  # an int aggregate past the float range
        num, den = (1 + eps).as_integer_ratio()
        return t * num // den


def _band(keys, weights, plus, decreasing, eps):
    """Band-compressed (keys, weights) columns, sorted by key, or None
    when they fit.

    tri is the running (+)-fold of the weights in key order, reversed with
    the columns when (+) is decreasing, so that it is nondecreasing in
    processing order; a pair weight, SumSum's (count, sum), gives a
    column of tri per component, each nondecreasing. The run after
    retained position i spans i + 1 .. j - 1, j the first position from
    i + 2 on where some column exceeds its cut `_cut(tri[i])`. The run is
    retained at its last position, carrying the left-to-right (+)-fold of
    its weights. Nonzero weights under a monotone (+) never fold to the
    base zero, so no entry is dropped. Every position p of a run but its
    last has each column within [tri[i], cut], so the retained
    cumulative at p, tri[i], lies within [tri[p] / (1+eps), tri[p]] in
    every component, and is exact at retained positions.

    Pair error composition: on nonnegative pairs, the count and the sum of
    a product's cumulative at L, C = sum_k c_a(k) C_b(L - k) and S =
    sum_k (c_a(k) S_b(L - k) + s_a(k) C_b(L - k)), are bilinear with
    nonnegative coefficients in one operand's weights and the other's
    cumulatives (and symmetrically), and a union adds them. So if each
    component of an operand's cumulative is within [x / (1+a), x], the
    product's are within the product of the operands' factors and the
    union's within the worse one, as for counts: the depth D = 2m - 3 of
    `alpha_for` bounds the sum component of every read.

    Size bound: a column fits at most `_bound(lo, hi)` entries, lo and hi
    its smallest and largest positive finite aggregates (4 when it has
    none), and the columns together fit the sum of their bounds; on the
    nonnegative carrier the pass returns no more. It keeps the first key
    and the last of each run, and each run closes at a column that passes
    its cut. A column closes a run at an aggregate t > (1+eps) base, and
    its base two of its closes later is >= t. So its positive bases lie in
    [lo, hi] and grow by more than (1+eps) every two of its closes, the
    last to close lies below hi / (1+eps), and at most two of its bases
    are 0, while an inf base never closes. A bound is never below 4, so an
    input of at most 4 entries fits before the cumulative pass.
    """
    n = len(keys)
    if n <= 4:
        return None
    tri = list(accumulate(weights, plus))
    if decreasing:
        keys, weights, tri = keys[::-1], weights[::-1], tri[::-1]
    columns = list(zip(*tri)) if isinstance(tri[0], tuple) else [tri]
    bound = 0
    for column in columns:
        lo, hi = bisect_right(column, 0), bisect_left(column, math.inf) - 1
        bound += _bound(column[lo], column[hi], eps) if lo <= hi else 4
    if n <= bound:
        return None
    out_keys, out_weights, i = [keys[0]], [weights[0]], 0
    while i + 1 < n:
        j = min(bisect_right(c, _cut(c[i], eps), i + 2) for c in columns)
        out_keys.append(keys[j - 1])
        out_weights.append(reduce(plus, weights[i + 1:j]))
        i = j - 1
    if decreasing:
        out_keys.reverse()
        out_weights.reverse()
    return tuple(out_keys), tuple(out_weights)
