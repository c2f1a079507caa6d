"""Weighted key sets over a base semiring, stored as two columns.

Each real key carries a weight drawn from a base semiring (the weight
plays the role of a possibly fractional multiplicity); `Multiset` is the
subclass over integer counts, and the length and Delta_L fold here serve
it too. A value holds its keys, strictly increasing, in one tuple and
their weights, aligned, in another: a threshold read bisects the key
column and folds the weight column as they are, and a kernel sorts only
keys. `entries` is a derived view of the (key, weight) pairs, which the
checked constructor takes. Union combines weights with the base
(+) and takes any number of operands; convolution sums keys and combines
weights with the base (x); the seeding gather turns each row of a join
key into one (key, weight) entry and combines the entries as union does,
in the same loop. Each accumulates into one dict in operand order, sorts
its keys, and reads the weight column off the dict. Entries whose weight
equals the base zero are dropped, keeping the representation canonical.
The operations build results with `WeightedSet._trusted`, which skips the
constructor's check; each docstring says why its result passes it.

Over the named max-plus and min-plus semirings (those two objects, not
any base whose (+) is `max` or `min`), both kernels fold inline when
every weight is finite (neither infinite nor NaN): one float add per pair
and one comparison per entry, `if w > acc.get(key, zero)` (`<` under
min-plus), with no base call, no overflow test and no zero filter. The
product also needs the sum of the operands' largest weights and the sum
of their smallest to be finite: float rounding is monotone, so every
pair sum lies between those two and is finite too. That one
O(|a| + |b|) check replaces the base (x)'s per-pair overflow test, and
no finite weight is the base zero (+/-inf), so none is dropped. The
comparison keeps the first of equal weights, as `max` and `min` do, so
the result is the generic loop's, -0.0 against 0.0 included. Any other
input runs the generic loop, which raises CapExceeded on an overflowing
pair.
"""

from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from math import isfinite

from .algebra import Semiring, make_named


@dataclass(frozen=True, init=False)
class WeightedSet:
    keys: tuple[float, ...]
    weights: tuple
    base: Semiring

    def __init__(self, entries, base):
        columns = tuple(zip(*entries))
        keys, weights = columns if columns else ((), ())
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "base", base)
        self.__post_init__()

    def __post_init__(self):
        zero, prev = self.base.zero, None
        for key, weight in zip(self.keys, self.weights):
            if weight == zero:
                raise ValueError(f"weight at key {key} equals the base zero")
            if prev is not None and key <= prev:
                raise ValueError("keys must be strictly increasing")
            prev = key

    @classmethod
    def _trusted(cls, keys, weights, base):
        """Without the check: the caller keeps the invariant."""
        value = object.__new__(cls)
        object.__setattr__(value, "keys", keys)
        object.__setattr__(value, "weights", weights)
        object.__setattr__(value, "base", base)
        return value

    @property
    def entries(self):
        """The (key, weight) pairs, in key order."""
        return tuple(zip(self.keys, self.weights))

    def __len__(self):
        return len(self.keys)


def ws_empty(base):
    return WeightedSet((), base)


def ws_one(base):
    """Multiplicative identity: the base one at key 0."""
    return WeightedSet(((0.0, base.one),), base)


def _require_same_base(a, b):
    if a.base is not b.base:
        raise ValueError(
            f"base semiring mismatch: {a.base.name} vs {b.base.name}"
        )


_MAX_PLUS, _MIN_PLUS = make_named("max-plus"), make_named("min-plus")


def _inline(base, *columns):
    """Whether a kernel folds inline: `base` is max-plus or min-plus and
    every weight of `columns` is finite, not NaN; for a product's two weight
    columns, so are the sum of their largest and the sum of their smallest
    weights, between which every pair sum lies. An int past the float
    range is not taken."""
    if base is not _MAX_PLUS and base is not _MIN_PLUS:
        return False
    try:
        if not all(map(isfinite, chain(*columns))):
            return False
        if len(columns) == 2:
            a, b = columns
            return isfinite(max(a) + max(b)) and isfinite(min(a) + min(b))
    except OverflowError:
        return False
    return True


def _tropical_plus(keys, weights, base):
    """{key: the max (min-plus: min) of its weights}, the first of equal
    weights kept."""
    acc = {}
    get, zero = acc.get, base.zero
    if base is _MAX_PLUS:
        for key, w in zip(keys, weights):
            if w > get(key, zero):
                acc[key] = w
    else:
        for key, w in zip(keys, weights):
            if w < get(key, zero):
                acc[key] = w
    return acc


def _tropical_convolve(a, b, base):
    """{key sum: the max (min-plus: min) of its weight sums}, the first of
    equal sums kept."""
    acc = {}
    get, zero = acc.get, base.zero
    b_pairs = tuple(zip(b.keys, b.weights))
    if base is _MAX_PLUS:
        for ka, wa in zip(a.keys, a.weights):
            for kb, wb in b_pairs:
                key, w = ka + kb, wa + wb
                if w > get(key, zero):
                    acc[key] = w
    else:
        for ka, wa in zip(a.keys, a.weights):
            for kb, wb in b_pairs:
                key, w = ka + kb, wa + wb
                if w < get(key, zero):
                    acc[key] = w
    return acc


def _from_dict(acc, base, nonzero=False):
    """The weighted set of {key: weight}, keys sorted; base zeros dropped
    unless the caller knows there are none (`nonzero`)."""
    zero = base.zero
    keys = tuple(sorted(acc if nonzero else
                        (k for k, w in acc.items() if w != zero)))
    return WeightedSet._trusted(keys, tuple(map(acc.__getitem__, keys)), base)


def _summed(keys, weights, base):
    """The weighted set of the (+)-fold of each key's weights, in order:
    base zeros dropped, keys sorted once. Under max-plus or min-plus with
    every weight finite, one comparison per entry does the (+)."""
    if _inline(base, weights):
        return _from_dict(_tropical_plus(keys, weights, base), base, True)
    acc, plus = {}, base.plus
    for key, w in zip(keys, weights):
        acc[key] = plus(acc[key], w) if key in acc else w
    return _from_dict(acc, base)


def ws_plus(first, *rest):
    """Pointwise base (+) of one or more weighted sets over one base. One
    dict over every entry (`_summed`): the weights of a key combine in
    operand order, base-zero results are dropped, and the keys are sorted
    once. A lone nonempty operand is returned as it is."""
    for value in rest:
        _require_same_base(first, value)
    nonempty = [value for value in (first, *rest) if value.keys]
    if len(nonempty) == 1:
        return nonempty[0]
    return _summed([k for value in nonempty for k in value.keys],
                   [w for value in nonempty for w in value.weights],
                   first.base)


def row_entries(rows, base):
    """The (key, weight) entry of each row, in row order. A row is a tuple
    of (key, weight) leaves, and every row holds as many: its entry is the
    left fold of its leaves, keys added and weights combined with the
    base's own (x), which raises CapExceeded on a product that overflows;
    (0.0, base one) for a row of none. This is the one pair of
    `ws_convolve` over the rows' one-entry leaves, taken in the same
    order."""
    if len(rows[0]) == 1:
        return chain.from_iterable(rows)

    def times(a, b):
        return a[0] + b[0], base.times(a[1], b[1])
    return (reduce(times, row) if row else (0.0, base.one) for row in rows)


def ws_gather(rows, base):
    """One join key's weighted set from its rows, each a tuple of (key,
    weight) leaves: the rows' entries (`row_entries`) whose weight is not
    the base zero, the empty products a union skips, accumulate under the
    base (+) in row order, and the keys are sorted once (`_summed`). That
    is `ws_plus` over each row's one-entry product of its leaves, the same
    arithmetic in the same order, with no value built per row."""
    zero = base.zero
    entries = [e for e in row_entries(rows, base) if e[1] != zero]
    if not entries:
        return ws_empty(base)
    keys, weights = zip(*entries)
    return _summed(keys, weights, base)


def ws_convolve(a, b):
    """Key-sum convolution: weights multiply with the base (x), colliding
    keys aggregate with the base (+); sorted unique keys, base zeros dropped.

    Under max-plus or min-plus, when every weight is finite and so are
    max(a) + max(b) and min(a) + min(b), each pair costs one float add and
    one comparison, with no (x) call and no overflow test: rounding is
    monotone, so every pair sum lies between those two sums and is finite.
    Any other input runs the base's (x), which raises CapExceeded on a pair
    that overflows."""
    _require_same_base(a, b)
    base = a.base
    if not a.keys or not b.keys:
        return ws_empty(base)
    if _inline(base, a.weights, b.weights):
        return _from_dict(_tropical_convolve(a, b, base), base, True)
    plus, times, acc = base.plus, base.times, {}
    b_pairs = tuple(zip(b.keys, b.weights))
    for ka, wa in zip(a.keys, a.weights):
        for kb, wb in b_pairs:
            key = ka + kb
            w = times(wa, wb)
            acc[key] = plus(acc[key], w) if key in acc else w
    return _from_dict(acc, base)


def ws_triangle(a, ell):
    """Base (+)-fold of weights with key <= ell; the base zero when empty."""
    return reduce(a.base.plus, a.weights[:bisect_right(a.keys, ell)], a.base.zero)
