"""Epsilon-compression of multisets and weighted sets.

The multiset sketch keeps one representative per geometric rank bucket: for
k = 0, 1, ... the element of 1-based rank floor((1+eps)^k) survives, carrying
the bucket's width as its count. Cumulative counts at any threshold t are
preserved within [(1-eps), 1]. The output holds at most one entry per
distinct boundary floor((1+eps)^k), k <= kmax = floor(log|A| / log1p(eps)),
plus the top rank |A|. A multiset of at most kmax + 1 entries already meets
that size bound, so it is returned unchanged: an exact value adds no error,
and every call that does compress walks O(kmax + entries) = O(entries).

The weighted-set sketch run-compresses keys in order of increasing cumulative
aggregate: a run absorbs keys while the cumulative stays within a (1+eps)
geometric band of the last retained boundary, then collapses to its last key
carrying the base (+)-aggregate of the run's weights. Cumulative aggregates
at every original key are preserved within a (1+eps) factor either way.
A weighted set within the band pass's size bound is returned unchanged too.
Results are built with the carriers' `_trusted`, skipping the entry check.

Approx mode applies a sketch after every group fold and every product the
engine runs: the drivers hand the engine the sketch of their carrier with
alpha bound in, and `alpha_for` derives alpha from the requested total
error eps.
"""

import math

from .multiset import Multiset
from .weightedset import WeightedSet


def alpha_for(eps, m):
    """Per-sketch parameter alpha with which an m-table plan stays within eps.

    alpha = (1+eps)^(1/D) - 1, D = max(2m - 3, 1). Each sketch on the plan
    keeps cumulative aggregates within one (1 +/- alpha) factor, and the
    factors compose: a union's error is its worse operand's and a
    product's error factors multiply. Every read the engine hands the
    drivers, at the root or at a reader table, whose messages come from
    every side, composes m - 1 sketched group folds and m - 2 sketched
    products; the last product is the fused read, never built, and the
    join-key folds and seeding products are exact (`relagg.engine` gives
    the count). So a read carries at most D = 2m - 3 factors:
    (1+alpha)^D = 1+eps, and (1-alpha)^D >= 1 - D alpha >= 1 - eps since
    alpha <= eps / D.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if m < 1:
        raise ValueError("m must be at least 1")
    return math.expm1(math.log1p(eps) / max(2 * m - 3, 1))


def ms_sketch(a, eps):
    """Rank-based compression of a multiset.

    Returns `a` itself when it has at most kmax + 1 entries: it then fits
    the sketch's size bound already, and returning it exactly adds no error.
    Otherwise its keys are a's, equal ones merged; counts are rank widths.
    Every count is at least 1, so |A| >= n, n the number of entries, and
    kmax is at least floor(log n / log1p(eps)): when n is within that
    bound, `a` is returned before its counts are summed.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    n = len(a.entries)
    if n <= 1:
        return a
    log_base = math.log1p(eps)
    if n <= math.floor(math.log(n) / log_base) + 1:
        return a
    size = a.total
    kmax = math.floor(math.log(size) / log_base)
    if n <= kmax + 1:
        return a
    # Rank boundaries floor((1+eps)^k); floats can dip, so force monotone.
    prev_boundary = 0
    cum = []  # cumulative counts aligned with a.entries
    running = 0
    for _, count in a.entries:
        running += count
        cum.append(running)
    out = []
    idx = 0
    # The top bucket always closes at rank |A|: dropping it would lose the
    # largest elements entirely and break the cumulative lower bound.
    boundaries = []
    power = 1.0
    for _ in range(kmax + 1):
        boundaries.append(math.floor(power))
        power *= 1 + eps
    boundaries.append(size)
    for boundary in boundaries:
        if boundary > size:
            boundary = size
        if boundary <= prev_boundary:
            continue
        # element of rank `boundary` (1-based)
        while cum[idx] < boundary:
            idx += 1
        key = a.entries[idx][0]
        if out and out[-1][0] == key:
            out[-1] = (key, out[-1][1] + boundary - prev_boundary)
        else:
            out.append((key, boundary - prev_boundary))
        prev_boundary = boundary
    return Multiset._trusted(tuple(out))


def ws_sketch(a, eps):
    """Band-based run compression of a weighted set.

    Requires the base (+) to be monotone: cumulative aggregates are then
    monotone along keys and geometric banding is well defined. The output
    keeps distinct keys of `a`, sorted, with base zeros dropped.

    Returns `a` itself when it has at most 2 ceil(log(hi/lo) / log1p(eps))
    + 4 entries, lo and hi the smallest and largest positive finite
    cumulative aggregates: on the nonnegative carrier the band pass returns
    no more. It keeps the first key and the last of each run: one entry per
    band base, plus one. A run closes at an aggregate t > (1+eps) base, and
    the base after the next close is >= t. So positive bases lie in [lo, hi]
    and grow by more than (1+eps) every two closes, the last to close lies
    below hi / (1+eps), and at most two bases are 0. The bound is never
    below 4, so an input of at most 4 entries is returned before the
    cumulative pass.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    base = a.base
    if base.plus_monotone not in ("increasing", "decreasing"):
        raise ValueError(
            f"base {base.name!r} addition is not monotone; cannot sketch"
        )
    if len(a.entries) <= 4:
        return a
    # Cumulative aggregate at each key (fold over keys <= e, ascending).
    tri = []
    acc = base.zero
    for _, weight in a.entries:
        acc = base.plus(acc, weight)
        tri.append(acc)
    positive = [t for t in tri if 0 < t < math.inf]
    span = math.log(max(positive)) - math.log(min(positive)) if positive else 0.0
    if len(a.entries) <= 2 * math.ceil(span / math.log1p(eps)) + 4:
        return a
    order = range(len(a.entries))
    if base.plus_monotone == "decreasing":
        order = reversed(order)
    order = list(order)  # processing order: increasing cumulative aggregate

    retained = []  # (key, aggregated weight)
    first = order[0]
    retained.append(a.entries[first])
    band_base = tri[first]
    run = []  # indices in the open run
    run_agg = None
    for j in order[1:]:
        if run and _leaves_band(tri[j], band_base, eps):
            last = run[-1]
            retained.append((a.entries[last][0], run_agg))
            band_base = tri[last]
            run = []
            run_agg = None
        run.append(j)
        w = a.entries[j][1]
        run_agg = w if run_agg is None else base.plus(run_agg, w)
    if run:
        last = run[-1]
        retained.append((a.entries[last][0], run_agg))
    retained = [(k, w) for k, w in retained if w != base.zero]
    retained.sort()
    return WeightedSet._trusted(tuple(retained), base)


def _leaves_band(value, band_base, eps):
    if band_base == math.inf:
        return False
    if band_base < 0:
        # Negative cumulative aggregates only arise from the identities of
        # the named bases (e.g. -inf); treat any change as a band break.
        return value != band_base
    return value > (1 + eps) * band_base
