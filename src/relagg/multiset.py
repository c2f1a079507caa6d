"""Multisets of reals: weighted sets over integer counts.

These are the carrier of the exact row-counting dynamic program. A
`Multiset` is a `WeightedSet` whose base is `COUNTS`, Python ints under
integer addition and multiplication, so the generic weighted-set code
(the key and count columns, `len`, `ws_triangle`, `ws_sketch`, the
drivers' threshold read) serves it as it serves any base.
Counts are exact Python integers, so frequencies as large as n^m are safe
and no operation checks for overflow.

Only the operations the engine runs most stay specific to counts: union
adds frequencies, the seeding gather adds its rows' counts, convolution
sums keys pairwise and multiplies frequencies. Their integer loops skip
the generic ones' base calls and zero filter, which a positive count never
needs; union and the gather share one. Union takes any number of
operands, so the engine folds a group of messages in one call. All build
results with `Multiset._trusted`, which skips the constructor's check; each
docstring says why its result passes it.

Convolution takes a packed path when its operands allow it: every key of
both is an integral float, the output span (a.hi - a.lo) + (b.hi - b.lo) + 1
is at most |a| |b|, both end sums lie strictly within +/-2**53 (so every
key sum is exact), and the bound min(|a|, |b|) max(a's counts) max(b's
counts) on an output count fits an unsigned `array` item of at most 64
bits (every count being >= 1, so does every operand count). Each
operand's counts are then laid out densely, one item per key of its span,
read as one little-endian int, and the two ints multiplied once
(Kronecker substitution: no output count carries into its neighbour's
item); the product's items are the output counts. That costs
O(|a| + |b| + span) plus one big-int product, against |a| |b| dict
updates in the pairwise loop, which every other input takes: real,
sparse, infinite or int-typed keys, and counts past 64 bits. Deciding
costs one O(1) span test and a scan that stops at the first key that is
not an integral float.

SumSum's `sum` pairs reuse the packed path with one more block:
`pair_convolve` packs each operand as c + Y s, with Y the item past the
output span, and multiplies once. The product c_a c_b + Y (c_a s_b +
s_a c_b) + Y**2 s_a s_b holds the output counts and sums in its two low
blocks. The item width then also bounds block 1, by min(|a|, |b|)
(max c_a max s_b + max s_a max c_b), a sum of both cross terms, which
also bounds every operand sum. The top block is masked off unbounded:
carries in a multiplication only move up, so it cannot change the blocks
below it.
"""

import operator
from array import array
from dataclasses import dataclass, field
from itertools import chain, compress

from .algebra import Semiring
from .weightedset import WeightedSet, row_entries, ws_convolve

# The counting algebra of multisets. Unlike the named "counting" semiring
# its operations need no float-overflow check: ints cannot overflow.
COUNTS = Semiring("counts", operator.add, operator.mul, 0, 1, "increasing")


@dataclass(frozen=True, init=False)
class Multiset(WeightedSet):
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


MS_EMPTY = Multiset()
MS_ONE = Multiset(((0.0, 1),))


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


def ms_union(*values):
    """Union of any number of multisets: frequencies add (`_counted`), so
    k values of s entries cost O(k s) plus the sort. A lone nonempty
    operand is returned as it is."""
    nonempty = [value for value in values if value.keys]
    if len(nonempty) == 1:
        return nonempty[0]
    return _counted(chain.from_iterable(
        zip(value.keys, value.weights) for value in nonempty))


def ms_gather(rows):
    """`ws_gather` over COUNTS: one join key's multiset from its rows'
    entries (`row_entries`; a count is a product of positive ints, never
    zero), added up by `ms_union`'s loop (`_counted`)."""
    return _counted(row_entries(rows, COUNTS))


def ms_convolve(a, b):
    """Pairwise key sums with frequency products; total multiplies.
    Sorted unique keys; counts are sums of products of positive ints. Keys
    are floats on either path; the packed path returns +0.0 where a sum of
    -0.0 keys would give -0.0 in the loop (the two compare equal)."""
    if not a.keys or not b.keys:
        return MS_EMPTY
    packed = _packed(a.keys, (a.weights,), b.keys, (b.weights,))
    if packed is None:
        return _pairwise(a, b)
    keys, (counts,) = packed
    return Multiset._trusted(keys, counts, COUNTS)


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


def pair_convolve(a, b):
    """`ws_convolve` over `sum`'s (count, sum) pairs. When every count is
    an int >= 1 and every sum a nonnegative integral float, it takes one
    packed product if the columns qualify: each operand packs as
    c + Y s, Y past the output span, so the product's low blocks are the
    counts c_a c_b and the sums c_a s_b + s_a c_b (its top block,
    s_a s_b, is masked off). A sum is nonzero only where a count is, so
    the sums are read at the counts' keys; they add as exact ints and
    round to float once. Any other input takes `ws_convolve`."""
    if a.keys and b.keys:
        (ca, sa), (cb, sb) = zip(*a.weights), zip(*b.weights)
        sa, sb = _integral(sa), _integral(sb)
        if (_positive_ints(ca) and _positive_ints(cb)
                and sa is not None and sb is not None):
            packed = _packed(a.keys, (ca, sa), b.keys, (cb, sb))
            if packed is not None:
                keys, (counts, sums) = packed
                return WeightedSet._trusted(
                    keys, tuple(zip(counts, map(float, sums))), a.base)
    return ws_convolve(a, b)


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


def _pairwise(a, b):
    """One dict update per key pair, in operand order."""
    acc = {}
    get = acc.get
    b_pairs = tuple(zip(b.keys, b.weights))
    for ka, ca in zip(a.keys, a.weights):
        for kb, cb in b_pairs:
            key = ka + kb
            acc[key] = get(key, 0) + ca * cb
    keys = tuple(sorted(acc))
    return Multiset._trusted(keys, tuple(map(acc.__getitem__, keys)), COUNTS)
