"""Run-length-encoded multisets of reals: weighted sets over integer counts.

These are the carrier of the exact row-counting dynamic program. A
`Multiset` is a `WeightedSet` whose base is `COUNTS`, Python ints under
integer addition and multiplication, so the generic weighted-set code
(`weight`, `len`, `dump`, `ws_triangle`, `ws_sketch`, the drivers' threshold
read) serves it as it serves any base. Counts are exact Python integers, so
frequencies as large as n^m are safe and no operation checks for overflow.

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


@dataclass(frozen=True)
class Multiset(WeightedSet):
    entries: tuple[tuple[float, int], ...] = ()
    base: Semiring = field(default=COUNTS, init=False, repr=False)

    def __post_init__(self):
        prev = None
        for key, count in self.entries:
            if not isinstance(count, int) or count < 1:
                raise ValueError(f"count for key {key} must be a positive int")
            if prev is not None and key <= prev:
                raise ValueError("keys must be strictly increasing")
            prev = key

    @property
    def total(self):
        return sum(c for _, c in self.entries)

    @classmethod
    def from_values(cls, values):
        counts = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        return cls(tuple(sorted(counts.items())))


MS_EMPTY = Multiset()
MS_ONE = Multiset(((0.0, 1),))


def ms_singleton(key, count=1):
    return Multiset(((key, count),))


def ms_union(*values):
    """Union of any number of multisets: frequencies add. One dict over
    every entry and one sort, so k values of s entries cost O(k s) plus the
    sort. A lone nonempty operand is returned as it is. Sorted unique keys;
    counts are sums of positive ints."""
    nonempty = [value for value in values if value.entries]
    if len(nonempty) == 1:
        return nonempty[0]
    acc = {}
    for value in nonempty:
        for key, count in value.entries:
            acc[key] = acc.get(key, 0) + count
    return Multiset._trusted(tuple(sorted(acc.items())), COUNTS)


def ms_convolve(a, b):
    """Pairwise key sums with frequency products; total multiplies.
    Sorted unique keys; counts are sums of products of positive ints."""
    if not a.entries or not b.entries:
        return MS_EMPTY
    acc = {}
    for ka, ca in a.entries:
        for kb, cb in b.entries:
            key = ka + kb
            acc[key] = acc.get(key, 0) + ca * cb
    return Multiset._trusted(tuple(sorted(acc.items())), COUNTS)
