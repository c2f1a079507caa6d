"""Multisets of reals: weighted sets over integer counts.

These are the carrier of the exact row-counting dynamic program. A
`Multiset` is a `WeightedSet` whose base is `COUNTS`, Python ints under
integer addition and multiplication, so the generic weighted-set code
(the key and count columns, `weight`, `len`, `dump`, `ws_triangle`,
`ws_sketch`, the drivers' threshold read) serves it as it serves any base.
Counts are exact Python integers, so frequencies as large as n^m are safe
and no operation checks for overflow.

Only the two operations the engine runs most stay specific to counts:
union adds frequencies, convolution sums keys pairwise and multiplies
frequencies. Their integer loops skip the generic ones' base calls and
zero filter, which a positive count never needs. Union takes any number of
operands, so the engine folds a group of rows in one call. Both build
results with `Multiset._trusted`, which skips the constructor's check; each
docstring says why its result passes it.
"""

import operator
from dataclasses import dataclass, field

from .algebra import Semiring
from .weightedset import WeightedSet

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

    @property
    def total(self):
        return sum(self.weights)

    @classmethod
    def from_values(cls, values):
        counts = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        return cls(sorted(counts.items()))


MS_EMPTY = Multiset()
MS_ONE = Multiset(((0.0, 1),))


def ms_singleton(key, count=1):
    return Multiset(((key, count),))


def ms_union(*values):
    """Union of any number of multisets: frequencies add. One dict over
    every entry and one sort, so k values of s entries cost O(k s) plus the
    sort. A lone nonempty operand is returned as it is. Sorted unique keys;
    counts are sums of positive ints."""
    nonempty = [value for value in values if value.keys]
    if len(nonempty) == 1:
        return nonempty[0]
    acc = {}
    get = acc.get
    keys = [k for value in nonempty for k in value.keys]
    counts = [c for value in nonempty for c in value.weights]
    for key, count in zip(keys, counts):
        acc[key] = get(key, 0) + count
    keys = tuple(sorted(acc))
    return Multiset._trusted(keys, tuple(map(acc.__getitem__, keys)), COUNTS)


def ms_convolve(a, b):
    """Pairwise key sums with frequency products; total multiplies.
    Sorted unique keys; counts are sums of products of positive ints."""
    if not a.keys or not b.keys:
        return MS_EMPTY
    acc = {}
    get = acc.get
    b_pairs = tuple(zip(b.keys, b.weights))
    for ka, ca in zip(a.keys, a.weights):
        for kb, cb in b_pairs:
            key = ka + kb
            acc[key] = get(key, 0) + ca * cb
    keys = tuple(sorted(acc))
    return Multiset._trusted(keys, tuple(map(acc.__getitem__, keys)), COUNTS)
