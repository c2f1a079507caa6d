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
value adds no error. Results are built with the input's own `_trusted`,
skipping the entry check, so a multiset comes back as a multiset.

Approx mode applies a sketch after every group fold and every product the
engine runs: the drivers hand the engine the sketch of their carrier with
alpha bound in, and `alpha_for` derives alpha from the requested total
error eps.
"""

import math
from bisect import bisect_left, bisect_right
from functools import reduce
from itertools import accumulate


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
    """Band sketch of a multiset: `ws_sketch` over its integer counts.

    Every count is at least 1, so the aggregates span at least
    log((c + n - 1) / c), c the first count and n the number of entries.
    When that alone puts n within the size bound, `a` is returned before
    its counts are summed; the band pass would return it too.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    n = len(a.keys)
    if n <= 4 or n <= _bound(a.weights[0], a.weights[0] + n - 1, eps):
        return a
    return ws_sketch(a, eps)


def ws_sketch(a, eps):
    """Band sketch of a weighted set, by `_band`.

    Requires the base (+) to be monotone: cumulative aggregates are then
    monotone along keys and geometric banding is well defined. The output
    keeps distinct keys of `a`, sorted, in `a`'s own class; `a` itself
    comes back when it fits the size bound.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    base = a.base
    if base.plus_monotone not in ("increasing", "decreasing"):
        raise ValueError(
            f"base {base.name!r} addition is not monotone; cannot sketch"
        )
    out = _band(a.keys, a.weights, base.plus,
                base.plus_monotone == "decreasing", eps)
    return a if out is None else type(a)._trusted(*out, base)


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
