"""Weighted key sets over a base semiring, stored as two columns.

Each real key carries a weight drawn from a base semiring (the weight
plays the role of a possibly fractional multiplicity). A value holds its
keys, strictly increasing, in one tuple and their weights, aligned, in
another: a threshold read bisects the key column and folds the weight
column as they are, and a kernel sorts only keys. `entries` is a derived
view of the (key, weight) pairs, which the checked constructor takes.
The kernels build each value over `COUNTS`, Python ints under integer
addition and multiplication, as a `Multiset`, the carrier of exact row
counting: counts are exact ints, so frequencies as large as n^m are safe
and no operation checks for overflow. It shares every operation here
with the other bases. Every weight over `COUNTS` is a count, an int >=
1: the checked constructor refuses any other, whether it builds a
`Multiset` or a `WeightedSet`, and the leaves `ws_gather` takes over
`COUNTS` must keep the same rule (the drivers' are the base one, 1).
The `COUNTS` branches below rely on it.

There is one kernel per operation. Union (`ws_plus`) combines weights
with the base (+) and takes any number of operands, so the engine folds
a group of messages in one call; convolution (`ws_convolve`) sums keys
and combines weights with the base (x); the seeding gather (`ws_gather`)
turns each row of a join key into one (key, weight) entry and combines
the entries as union does, in the same loop. The generic loop of each
accumulates into one dict in operand order, sorts its keys, and reads the
weight column off the dict. Entries whose weight equals the base zero
are dropped, keeping the representation canonical. Three bases take a
branch of their own inside those kernels, each giving the generic loop's
result at less cost. The kernels build results with `_trusted`, which
skips the constructor's check; each docstring says why its result
passes it.

`COUNTS`. Union and the gather share one int loop (`_counted`), and
convolution has a pairwise one: they skip the base calls and the zero
filter, which a positive count never needs. Convolution first takes a
packed path when its operands allow it: every key of both is an integral
float, the output span (a.hi - a.lo) + (b.hi - b.lo) + 1 is at most
|a| |b|, both end sums lie strictly within +/-2**53 (so every key sum is
exact), and the bound min(|a|, |b|) max(a's counts) max(b's counts) on
an output count fits an unsigned `array` item of at most 64 bits (every
count being >= 1, so does every operand count). Each operand's counts
are then laid out densely, one item per key of its span, read as one
little-endian int, and the two ints multiplied once (Kronecker
substitution: no output count carries into its neighbour's item); the
product's items are the output counts. That costs O(|a| + |b| + span)
plus one big-int product, against |a| |b| dict updates in the pairwise
loop. Deciding costs one O(1) span test and a scan that stops at the
first key that is not an integral float. A product the packed path
declines (real, sparse, infinite or int-typed keys, or counts past 64
bits) whose every count is 1, the seeded value of a column of distinct
reals, then takes the sorted path (`_sorted_sums`, Horowitz and Sahni's
list of pair sums): the |a| |b| key sums are made in C, in the loop's
order, and sorted once, and if they are strictly increasing each is an
output key of count 1. Those are the loop's own float additions, and
both paths sort the same sequence, so keys, counts and order are the
loop's. Sums that collide, after rounding too (1e16 + 1.0 ==
1e16 + 0.0), -0.0 beside 0.0, two infinite sums or a NaN send it to the
pairwise loop, as does any count above 1, which costs one scan of each
count column.

`sum` pairs, SumSum's (count, sum) weights. When every count is an int
>= 1 and every sum a nonnegative integral float, convolution tries the
packed path with one more block: each operand packs as c + Y s, with Y
the item past the output span, and multiplies once. The product c_a c_b
+ Y (c_a s_b + s_a c_b) + Y**2 s_a s_b holds the output counts and sums
in its two low blocks. The item width then also bounds block 1, by
min(|a|, |b|) (max c_a max s_b + max s_a max c_b), a sum of both cross
terms, which also bounds every operand sum. The top block is masked off
unbounded: carries in a multiplication only move up, so it cannot change
the blocks below it. A sum is nonzero only where a count is, so the sums
are read at the counts' keys; they add as exact ints and round to float
once. Any other pair product runs the generic loop.

Max-plus and min-plus (those two named objects, not any base whose (+)
is `max` or `min`). Both union and convolution fold inline when every
weight is finite (neither infinite nor NaN): one float add per pair and
one comparison per entry, `if w > acc.get(key, zero)` (`<` under
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

import operator
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, compress, islice, repeat
from math import isfinite

from .algebra import COUNTS, SUMSUM_BASES, Semiring, make_named


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
        if self.base is COUNTS:  # each weight a count, as in a Multiset
            return Multiset.__post_init__(self)
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


@dataclass(frozen=True, init=False)
class Multiset(WeightedSet):
    """A weighted set over `COUNTS`: each weight, a count, an int >= 1."""

    base: Semiring = field(default=COUNTS, repr=False)

    def __init__(self, entries=()):
        WeightedSet.__init__(self, entries, COUNTS)

    def __post_init__(self):
        prev = None
        for key, count in zip(self.keys, self.weights):
            if not isinstance(count, int) or count < 1:
                raise ValueError(f"count for key {key} must be a positive int")
            if prev is not None and key <= prev:
                raise ValueError("keys must be strictly increasing")
            prev = key


def _class(base):
    """The class of the values over `base`."""
    return Multiset if base is COUNTS else WeightedSet


def ws_empty(base):
    return _class(base)._trusted((), (), base)


def ws_one(base):
    """Multiplicative identity: the base one, which is not its zero, at
    key 0."""
    return _class(base)._trusted((0.0,), (base.one,), base)


def _require_same_base(a, b):
    if a.base is not b.base:
        raise ValueError(
            f"base semiring mismatch: {a.base.name} vs {b.base.name}"
        )


_MAX_PLUS, _MIN_PLUS = make_named("max-plus"), make_named("min-plus")
_SUM_PAIRS = SUMSUM_BASES["sum"]


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


def _counted(entries):
    """The multiset of each key's count sum over (key, count) `entries`:
    one dict over every entry and one sort. Sorted unique keys; counts are
    sums of positive ints."""
    acc = {}
    get = acc.get
    for key, count in entries:
        acc[key] = get(key, 0) + count
    keys = tuple(sorted(acc))
    return Multiset._trusted(keys, tuple(map(acc.__getitem__, keys)), COUNTS)


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
    dict over every entry (`_summed`; `_counted` over COUNTS, where
    frequencies add): the weights of a key combine in operand order,
    base-zero results are dropped, and the keys are sorted once, so k
    values of s entries cost O(k s) plus the sort. A lone nonempty
    operand is returned as it is."""
    for value in rest:
        _require_same_base(first, value)
    nonempty = [value for value in (first, *rest) if value.keys]
    if len(nonempty) == 1:
        return nonempty[0]
    if first.base is COUNTS:
        return _counted(chain.from_iterable(
            zip(value.keys, value.weights) for value in nonempty))
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
    arithmetic in the same order, with no value built per row. Over
    COUNTS, whose leaf counts must be ints >= 1 (unchecked here), the
    entries go to `ws_plus`'s int loop (`_counted`): a count is a product
    of positive ints, never zero."""
    if base is COUNTS:
        return _counted(row_entries(rows, COUNTS))
    zero = base.zero
    entries = [e for e in row_entries(rows, base) if e[1] != zero]
    if not entries:
        return ws_empty(base)
    keys, weights = zip(*entries)
    return _summed(keys, weights, base)


def ws_convolve(a, b):
    """Key-sum convolution: weights multiply with the base (x), colliding
    keys aggregate with the base (+); sorted unique keys, base zeros dropped.

    Over COUNTS the packed path, when the operands qualify, else the
    sorted path, when every count is 1 and the key sums are all distinct,
    else the pairwise int loop (module docstring); keys are floats on each
    path, and the packed path returns +0.0 where a sum of -0.0 keys would
    give -0.0 in the loop (the two compare equal). Over `sum` pairs the
    packed path with two blocks, when the operands qualify. Under max-plus or
    min-plus, when every weight is finite and so are max(a) + max(b) and
    min(a) + min(b), each pair costs one float add and one comparison,
    with no (x) call and no overflow test: rounding is monotone, so every
    pair sum lies between those two sums and is finite. Any other input
    runs the base's (x), which raises CapExceeded on a pair that
    overflows."""
    _require_same_base(a, b)
    base = a.base
    if not a.keys or not b.keys:
        return ws_empty(base)
    if base is COUNTS:
        packed = _packed(a.keys, (a.weights,), b.keys, (b.weights,))
        if packed is not None:
            keys, (counts,) = packed
            return Multiset._trusted(keys, counts, COUNTS)
        if (product := _sorted_sums(a, b)) is not None:
            return product
        acc = {}
        get = acc.get
        b_pairs = tuple(zip(b.keys, b.weights))
        for ka, ca in zip(a.keys, a.weights):
            for kb, cb in b_pairs:
                key = ka + kb
                acc[key] = get(key, 0) + ca * cb
        keys = tuple(sorted(acc))
        return Multiset._trusted(keys, tuple(map(acc.__getitem__, keys)),
                                 COUNTS)
    if base is _SUM_PAIRS:
        (ca, sa), (cb, sb) = zip(*a.weights), zip(*b.weights)
        sa, sb = _integral(sa), _integral(sb)
        if (_positive_ints(ca) and _positive_ints(cb)
                and sa is not None and sb is not None):
            packed = _packed(a.keys, (ca, sa), b.keys, (cb, sb))
            if packed is not None:
                keys, (counts, sums) = packed
                return WeightedSet._trusted(
                    keys, tuple(zip(counts, map(float, sums))), base)
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


def _sorted_sums(a, b):
    """The product of two count sets whose every count is 1, as sorted
    key sums of count 1, or None. Each row of sums, a key of a plus every
    key of b, is made in C in the pairwise loop's order and appended to
    one list, which is sorted once. None also when the sorted sums do not
    strictly increase (two equal, -0.0 beside 0.0 among them, or a NaN):
    there the loop must add the counts of equal keys."""
    if a.weights.count(1) < len(a) or b.weights.count(1) < len(b):
        return None
    nb, sums = len(b), []
    for ka in a.keys:
        sums.extend(map(operator.add, repeat(ka, nb), b.keys))
    sums.sort()
    if all(map(operator.lt, sums, islice(sums, 1, None))):
        return Multiset._trusted(tuple(sums), (1,) * len(sums), COUNTS)
    return None


def ws_triangle(a, ell):
    """Base (+)-fold of weights with key <= ell; the base zero when empty."""
    return reduce(a.base.plus, a.weights[:bisect_right(a.keys, ell)], a.base.zero)


# Unsigned array item codes, narrowest first: (code, bytes, largest item).
_ITEMS = tuple((code, array(code).itemsize, (1 << 8 * array(code).itemsize) - 1)
               for code in "BHIQ")
_EXACT = 2**53  # every integer of smaller magnitude is a float


def _packed(a_keys, a_columns, b_keys, b_columns):
    """The product of two operands' aligned int columns by one big-int
    multiplication, or None when they do not qualify (see the module
    docstring). Each operand has one column, its counts, or two, its
    counts and sums; a count is >= 1. Each column packs as a block of the
    output span n, column j at items j n onward, so product block 0 holds
    c_a c_b and block 1 c_a s_b + s_a c_b; block 2, s_a s_b, is masked
    off. Returns (keys, columns): the keys are the span's integers whose
    block 0 is nonzero, exactly the pairwise sums, and column j is block j
    read at those keys, as Python ints."""
    na, nb = len(a_keys), len(b_keys)
    if not (a_keys[-1] - a_keys[0]) + (b_keys[-1] - b_keys[0]) < na * nb:
        return None  # the span outgrows the pairs: sparse, or an inf key
    try:
        if not (all(map(float.is_integer, a_keys))
                and all(map(float.is_integer, b_keys))):
            return None
    except TypeError:
        return None  # a key that is not a float, an int say
    lo, hi = int(a_keys[0]) + int(b_keys[0]), int(a_keys[-1]) + int(b_keys[-1])
    if not -_EXACT < lo <= hi < _EXACT:
        return None
    ma, mb = tuple(map(max, a_columns)), tuple(map(max, b_columns))
    k = min(na, nb)  # pairs per output key, at most
    # block 0's items, k max c_a max c_b, and, given sums, block 1's,
    # k (max c_a max s_b + max s_a max c_b); as every count is >= 1, they
    # bound every operand item too
    bound = k * max(ma[0] * mb[0], sum(map(operator.mul, ma, reversed(mb))))
    for code, size, top in _ITEMS:
        if bound <= top:
            break
    else:
        return None
    n = hi - lo + 1
    width = len(ma) * n * size
    product = (_pack(a_keys, a_columns, code, size, n)
               * _pack(b_keys, b_columns, code, size, n))
    items = array(code)
    items.frombytes((product & ((1 << 8 * width) - 1)).to_bytes(width, "little"))
    keys = tuple(map(float, compress(range(lo, lo + n), items)))
    columns = [tuple(filter(None, items[:n]))]
    if len(ma) == 2:  # compress stops at its shorter argument: block 0 selects
        columns.append(tuple(compress(items[n:], items)))
    return keys, columns


def _positive_ints(column):
    """Whether each item is an int >= 1."""
    return all(map(int.__instancecheck__, column)) and min(column) >= 1


def _integral(column):
    """The column as ints if each item is a nonnegative integral float,
    else None."""
    try:
        if min(column) >= 0 and all(map(float.is_integer, column)):
            return tuple(map(int, column))
    except TypeError:
        pass  # an item that is not a float, an int say
    return None


def _pack(keys, columns, code, size, n):
    """The columns as one int of n-item blocks: item j n + i holds
    column j's value at key keys[0] + i, 0 where there is no key."""
    keys = tuple(map(int, keys))
    lo = keys[0]
    packed = 0
    for column in reversed(columns):
        dense = array(code, bytes((keys[-1] - lo + 1) * size))
        for i, c in zip(keys, column):
            dense[i - lo] = c
        packed = (packed << 8 * size * n) | int.from_bytes(dense.tobytes(), "little")
    return packed
