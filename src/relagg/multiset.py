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
bits, as does every operand count (a column of `pair_convolve`'s that
is all 0 bounds no output above 0). Each operand's counts are then laid
out densely, one item per key of its span, read as one little-endian
int, and the two ints multiplied once (Kronecker substitution: no output
count carries into its neighbour's item); the product's items are the
output counts. That costs
O(|a| + |b| + span) plus one big-int product, against |a| |b| dict
updates in the pairwise loop, which every other input takes: real,
sparse, infinite or int-typed keys, and counts past 64 bits. Deciding
costs one O(1) span test and a scan that stops at the first key that is
not an integral float.

SumSum's `sum` pairs reuse the packed path: `pair_convolve` views their
count and sum columns as multisets on the same keys.
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
    packed = _packed(a, b)
    return _pairwise(a, b) if packed is None else packed


# Unsigned array item codes, narrowest first: (code, bytes, largest item).
_ITEMS = tuple((code, array(code).itemsize, (1 << 8 * array(code).itemsize) - 1)
               for code in "BHIQ")
_EXACT = 2**53  # every integer of smaller magnitude is a float


def _packed(a, b):
    """The product by one big-int multiplication, or None when the
    operands do not qualify (see the module docstring). The keys are the
    span's integers whose count is nonzero, exactly the pairwise sums;
    the counts are those nonzero items, Python ints."""
    ak, bk = a.keys, b.keys
    na, nb = len(ak), len(bk)
    if not (ak[-1] - ak[0]) + (bk[-1] - bk[0]) < na * nb:
        return None  # the span outgrows the pairs: sparse, or an inf key
    try:
        if not (all(map(float.is_integer, ak)) and all(map(float.is_integer, bk))):
            return None
    except TypeError:
        return None  # a key that is not a float, an int say
    lo, hi = int(ak[0]) + int(bk[0]), int(ak[-1]) + int(bk[-1])
    if not -_EXACT < lo <= hi < _EXACT:
        return None
    ma, mb = max(a.weights), max(b.weights)
    bound = max(min(na, nb) * ma * mb, ma, mb)
    for code, size, top in _ITEMS:
        if bound <= top:
            break
    else:
        return None
    n = hi - lo + 1
    coeffs = array(code)
    product = _pack(a, code, size) * _pack(b, code, size)
    coeffs.frombytes(product.to_bytes(n * size, "little"))
    keys = tuple(map(float, compress(range(lo, lo + n), coeffs)))
    return Multiset._trusted(keys, tuple(filter(None, coeffs)), COUNTS)


def pair_convolve(a, b):
    """`ws_convolve` over `sum`'s (count, sum) pairs. When every sum is a
    nonnegative integral float, it takes three packed products if each
    qualifies: counts c_a c_b, and sums c_a s_b + s_a c_b, of columns
    viewed as multisets. A sum is nonzero only where a count is, so the
    sums are read at the counts' keys; they add as exact ints and round
    to float once. Any other input takes `ws_convolve`."""
    if a.keys and b.keys:
        (ca, sa), (cb, sb) = zip(*a.weights), zip(*b.weights)
        sa, sb = _integral(sa), _integral(sb)
        if sa is not None and sb is not None:
            count, *sums = (_packed(Multiset._trusted(a.keys, x, COUNTS),
                                    Multiset._trusted(b.keys, y, COUNTS))
                            for x, y in ((ca, cb), (ca, sb), (sa, cb)))
            if count is not None and None not in sums:
                acc = dict.fromkeys(count.keys, 0)
                for part in sums:
                    for key, s in zip(part.keys, part.weights):
                        acc[key] += s
                weights = tuple(zip(count.weights, map(float, acc.values())))
                return WeightedSet._trusted(count.keys, weights, a.base)
    return ws_convolve(a, b)


def _integral(column):
    """The column as ints if each item is a nonnegative integral float,
    else None."""
    try:
        if min(column) >= 0 and all(map(float.is_integer, column)):
            return tuple(map(int, column))
    except TypeError:
        pass  # an item that is not a float, an int say
    return None


def _pack(value, code, size):
    """Its counts as one int: item i holds the count at its first key
    plus i, 0 where it has no key."""
    keys = tuple(map(int, value.keys))
    lo = keys[0]
    dense = array(code, bytes((keys[-1] - lo + 1) * size))
    for i, c in zip(keys, value.weights):
        dense[i - lo] = c
    return int.from_bytes(dense.tobytes(), "little")


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
