"""Run-length-encoded multisets of reals and their semiring operations.

These are the carrier of the exact row-counting dynamic program: union adds
frequencies, convolution sums keys pairwise and multiplies frequencies.
Union takes any number of operands, so the engine folds a group of rows in
one call. Counts are exact Python integers, so frequencies as large as n^m
are safe. The operations build results with `Multiset._trusted`, which
skips the constructor's check; each docstring says why its result passes it.
"""

import bisect
from dataclasses import dataclass


@dataclass(frozen=True)
class Multiset:
    entries: tuple[tuple[float, int], ...] = ()

    def __post_init__(self):
        prev = None
        for key, count in self.entries:
            if not isinstance(count, int) or count < 1:
                raise ValueError(f"count for key {key} must be a positive int")
            if prev is not None and key <= prev:
                raise ValueError("keys must be strictly increasing")
            prev = key

    @classmethod
    def _trusted(cls, entries):
        """Without the check: the caller keeps the invariant."""
        value = object.__new__(cls)
        object.__setattr__(value, "entries", entries)
        return value

    @property
    def total(self):
        return sum(c for _, c in self.entries)

    def count(self, key):
        i = bisect.bisect_left(self.entries, (key,))
        if i < len(self.entries) and self.entries[i][0] == key:
            return self.entries[i][1]
        return 0

    def __len__(self):
        return len(self.entries)

    @classmethod
    def from_values(cls, values):
        counts = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        return cls(tuple(sorted(counts.items())))

    def dump(self):
        """Debug form: "key:count" pairs."""
        return " ".join(f"{k}:{c}" for k, c in self.entries)


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
    return Multiset._trusted(tuple(sorted(acc.items())))


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
    return Multiset._trusted(tuple(sorted(acc.items())))


def ms_triangle(a, t):
    """Number of elements with key <= t."""
    total = 0
    for key, count in a.entries:
        if key > t:
            break
        total += count
    return total
