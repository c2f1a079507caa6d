"""Aggregate drivers: inequality row counting, SumSum, and SumProd.

Each driver reduces its query to a SumProd evaluation over a dynamic
programming semiring, and every driver runs it through `_evaluate`, which
hands the engine the weighted-set kernels, the sketch and the approx size
cap; the engine only folds, multiplies and sends. The carrier is the
weighted sets over the base, for every base, and each kernel branches on
the base itself (`relagg.weightedset`): row counting counts over
`COUNTS`, whose weighted sets are the multisets, SumProd runs over its
semiring, and SumSum over the monoid's base in `algebra.SUMSUM_BASES`:
(count, sum) pairs for `sum`, plain floats for `max` and `min`. A leaf
factor returns one (key, weight) entry: the inequality term of a feature
and its F term (the base one when F has none). Only a feature with a term, in the inequality or in F,
gets a factor; any other takes no part. The carrier's gather makes each
row one entry, the product of its leaves, and accumulates a join key's
entries in one scan, with one sort and no per-row value. A term that is
-inf or NaN is refused (CapExceeded) by `AdditiveInequality.term_value`,
as it is by the oracle; a +inf term takes its row out. The answer is the
root value's cumulative aggregate at the threshold,
Delta_L(v) = (+)_{k <= L} v[k].
The engine stops before the root's last product and returns (a, b)
pairs, one per join key of the root; `threshold_read` reads each
Delta_L(a (x) b) off a and b under the weights' base, and `_evaluate`
folds these into the answer, so no root product or fold is built. Exact
mode uses the exact carrier operations; approx mode has the engine sketch
the result of every group fold and every product (`ws_sketch`, under
its multiset name `ms_sketch` over `COUNTS`: one band pass, whose fit
test first passes on a value that its length and a few of its weights
prove fits the size bound, so that value costs no cumulative pass) with
a per-sketch parameter alpha = alpha_for(epsilon, m), so the answer is
within (1 +/- epsilon) of the exact one, and refuses (CapExceeded) a
sketched value past `SKETCH_SIZE_CAP` entries. A group folds in one n-ary
union, so it is sketched once, not once per pairwise union.

The drivers are where a query is refused, so a direct call refuses exactly
what `run_query` and the CLI refuse. Each precondition is checked once, at
the one spot every path passes through: a bad epsilon (in either mode) and
the mode by `_evaluate`, a NaN threshold by `AdditiveInequality`, the algebra
by `checked_algebra`, a term on a feature no table has by
`check_features` and an overflowing F term of a SumProd or of a `max` or
`min` SumSum by `checked_factors` (both of which the oracle calls too),
the carrier and sign of the terms by `sumprod` and `sumsum` before any
evaluation, a `sum` total that overflowed by `finite_sum` (as in the
oracle), and a second inequality by `run_query`.
"""

import bisect
import math
from functools import reduce
from itertools import accumulate

from .algebra import COUNTS, SUMSUM_BASES, finite_sum
from .engine import EngineConfig, evaluate
from .errors import CapExceeded, QueryRejected
from .multiset import ms_union
from .queryspec import (
    AdditiveInequality,
    check_features,
    checked_factors,
    checked_algebra,
)
from .sketch import alpha_for, ms_sketch, ws_sketch
from .weightedset import ws_convolve, ws_gather, ws_one, ws_plus

SKETCH_SIZE_CAP = 10**6  # approx mode aborts when a value outgrows this


def threshold_read(threshold, base):
    """`read(a, b)` = Delta_L(a (x) b), L = threshold, without a (x) b.

    Delta_L is additive over (+), and across a product one sorted read:
    Delta_L(a (x) b) = (+)_{(k, w) in a} w (x) Delta_{L-k}(b), taken from
    b's prefix aggregates, folded once per b from its weight column under
    the weights' `base`, at a bisect of b's key column as it is stored.
    A pair qualifies iff `k_a + k_b <= L`, as its key in a (x) b would;
    `k_b <= L - k_a` disagrees with that under rounding either way, so the
    bisect on `L - k_a` is corrected at the boundary with the sum itself.
    It bisects once per entry of a rather than walking both key columns in
    one merge, because a root pair is often one short and one long value
    (cross-real's is 80 x 6 400 entries), where |a| bisects cost less
    than |a| + |b| steps: the merge walk ran cross-real's exact count
    1.13x slower.
    """
    plus, times, zero = base.plus, base.times, base.zero
    prefixes = {}  # id(b) -> (b, prefix aggregates); holding b pins its id

    def read(a, b):
        if id(b) not in prefixes:
            prefixes[id(b)] = (b, list(accumulate(b.weights, plus, initial=zero)))
        _, sums = prefixes[id(b)]
        keys, n, total = b.keys, len(b.keys), zero
        for ka, wa in zip(a.keys, a.weights):
            i = bisect.bisect_right(keys, threshold - ka)
            while i and ka + keys[i - 1] > threshold:
                i -= 1
            while i < n and ka + keys[i] <= threshold:
                i += 1
            if not i:
                break  # a's keys ascend, so no later one qualifies either
            total = plus(total, times(wa, sums[i]))
        return total

    return read


def _evaluate(db, base, F, ineq, epsilon, mode, instr):
    """One SumProd evaluation over weighted sets of `base`: the base
    (+)-fold, over the root's pairs (a, b), of the reads Delta_L(a (x) b).

    Every base runs the weighted-set kernels, `ws_gather`, `ws_convolve`
    and `ws_one(base)`, which branch on the base themselves; over
    `COUNTS` the union and the sketch go by their multiset names,
    `ms_union` and `ms_sketch`, the adapters the benchmark's trace probes.
    The leaf of a feature with a term, in the inequality or in F, is the
    (key, weight) entry of the inequality term and the F term (the base
    one when F has none), and `ws_gather` builds each join key's value
    from its rows' leaves. Approx mode hands the engine the sketch with
    alpha_for(epsilon, m), which also refuses (CapExceeded) a sketched
    value past SKETCH_SIZE_CAP entries. The kernels are looked up here,
    at call time, so wrappers set on this module's attributes see every
    call.
    """
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise QueryRejected(
            f"epsilon must be a finite number greater than 0, got {epsilon}"
        )
    if mode not in ("exact", "approx"):
        raise QueryRejected(f"unknown mode {mode!r}")
    plus, sketch = ((ms_union, ms_sketch) if base is COUNTS
                    else (ws_plus, ws_sketch))

    def gather(rows):
        return ws_gather(rows, base)
    factors = {
        f: lambda v, f=f, fn=F.get(f): (
            ineq.term_value(f, v), base.one if fn is None else fn(v))
        for f in db.feature_tables if f in ineq.g or f in F
    }
    config = EngineConfig(plus=plus, times=ws_convolve, one=ws_one(base),
                          gather=gather)
    if mode == "approx":
        alpha = alpha_for(epsilon, db.m)

        def capped(value):
            value = sketch(value, alpha)
            if len(value) > SKETCH_SIZE_CAP:
                raise CapExceeded(f"intermediate value grew to {len(value)} "
                                  f"entries (cap {SKETCH_SIZE_CAP})")
            return value
        config.sketch = capped
    pairs = evaluate(db, factors, config, instr=instr)
    read = threshold_read(ineq.threshold, base)
    return reduce(base.plus, (read(a, b) for a, b in pairs), base.zero)


def run_mode(kind, algebra, mode):
    """The mode a `kind` query over `algebra` runs in when asked for
    `mode`. Approx mode sketches only a base whose (+) is monotone, so a
    `max` or `min` SumSum, whose base is not, runs exactly in either mode.
    """
    if mode == "approx" and kind == "sumsum":
        base = SUMSUM_BASES[checked_algebra(kind, algebra).name]
        if base.plus_monotone == "none":
            return "exact"
    return mode


def count_rows(db, ineq=None, epsilon=0.1, mode="exact", instr=None):
    """Number of join rows satisfying the inequality.

    Exact mode returns the integer count; approx mode a value within a
    (1 +/- epsilon) factor of it.
    """
    ineq = ineq or AdditiveInequality()
    check_features(db, {}, (ineq,))
    return _evaluate(db, COUNTS, {}, ineq, epsilon, mode, instr)


def sumsum(db, monoid, F, ineq=None, epsilon=0.1, mode="exact", instr=None):
    """Monoid fold of per-feature terms over qualifying join rows.

    One SumProd over the monoid's base, `algebra.SUMSUM_BASES`. Under
    `sum` the leaf of a feature of F at v weighs the pair (1, F(v)), any
    other the pair one (1, 0.0), and the answer is the sum component.
    Under `max` or `min` it weighs F(v) itself, any other the base one,
    -/+ float_info.max, neutral on every finite F term, and the answer
    is the value read, a zero as +0.0 (as in the oracle). With F empty
    the answer is the monoid identity under every monoid, returned after
    the evaluation so that its refusals still fire. Approx `sum` refuses
    terms that mix signs over the active domains, sketches the pairs, and
    answers an all-negative F as minus that of -F, whose pairs are
    nonnegative. A `max` or `min` sumsum is computed exactly in either
    mode (`run_mode`), so it takes terms of either sign.
    """
    monoid = checked_algebra("sumsum", monoid)
    ineq = ineq or AdditiveInequality()
    check_features(db, F, (ineq,))
    terms = checked_factors(db, monoid, F)
    base = SUMSUM_BASES[monoid.name]
    if monoid.name != "sum":
        total = _evaluate(db, base, F, ineq, epsilon,
                          run_mode("sumsum", monoid, mode), instr)
        # + 0.0: a zero answer is +0.0 whichever signed zero the fold kept
        return total + 0.0 if F else monoid.identity
    values = [fv for _, _, fv in terms]
    negative = any(fv < 0 for fv in values)
    if mode == "approx" and negative and any(fv > 0 for fv in values):
        raise QueryRejected(
            "sumsum terms mix positive and negative values; relative "
            "error does not survive cancellation (the subtraction "
            "problem), so no approximation is attempted"
        )
    sign = -1 if negative and mode == "approx" else 1
    total = _evaluate(
        db, base, {f: lambda v, fn=fn: (1, sign * fn(v)) for f, fn in F.items()},
        ineq, epsilon, mode, instr)
    return finite_sum(monoid, sign * total[1]) if F else monoid.identity


def sumprod(db, semiring, F, ineq=None, epsilon=0.1, mode="exact", instr=None):
    """Semiring SumProd over qualifying join rows.

    Features absent from F contribute the multiplicative identity. Factor
    values must be finite (`checked_factors` refuses an overflowed one) and
    nonnegative, besides the semiring's zero, over every feature's active
    domain.
    """
    semiring = checked_algebra("sumprod", semiring)
    ineq = ineq or AdditiveInequality()
    check_features(db, F, (ineq,))
    for feature, v, fv in checked_factors(db, semiring, F):
        if fv < 0 and fv != semiring.zero:
            raise QueryRejected(
                f"factor value {fv} for feature {feature!r} at {v} lies "
                "outside the nonnegative carrier; queries with negative terms "
                "cannot be approximated (the subtraction problem)"
            )
    return _evaluate(db, semiring, F, ineq, epsilon, mode, instr)


def run_query(db, spec, instr=None):
    """Dispatch a QuerySpec to the matching driver, with the spec's epsilon.

    Refuses a second inequality, which no driver takes; every other
    refusal is the driver's (QueryRejected).
    """
    if len(spec.inequalities) > 1:
        raise QueryRejected(
            "more than one additive inequality: bounded-relative-error "
            "approximation of row counts under two additive inequalities "
            "is NP-hard; this engine handles at most one"
        )
    opts = dict(epsilon=spec.epsilon, mode=spec.mode, instr=instr)
    if spec.kind == "count":
        return count_rows(db, spec.inequality, **opts)
    if spec.kind == "sumsum":
        return sumsum(db, spec.algebra, spec.F, spec.inequality, **opts)
    return sumprod(db, spec.algebra, spec.F, spec.inequality, **opts)
