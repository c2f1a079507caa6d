"""Run-length-encoded multisets of reals and their semiring operations.

These are the carrier of the exact row-counting dynamic program: union adds
frequencies, convolution sums keys pairwise and multiplies frequencies.
Counts are exact Python integers, so frequencies as large as n^m are safe.
The operations build results with `Multiset._trusted`, which skips the
constructor's check; each docstring says why its result passes it.
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


def ms_union(a, b):
    """Multiset union: frequencies add. A sorted merge keeps keys strictly
    increasing; counts are operand counts or their sums."""
    if not a.entries:
        return b
    if not b.entries:
        return a
    merged = []
    ia = ib = 0
    ea, eb = a.entries, b.entries
    while ia < len(ea) and ib < len(eb):
        ka, ca = ea[ia]
        kb, cb = eb[ib]
        if ka < kb:
            merged.append((ka, ca))
            ia += 1
        elif kb < ka:
            merged.append((kb, cb))
            ib += 1
        else:
            merged.append((ka, ca + cb))
            ia += 1
            ib += 1
    merged.extend(ea[ia:])
    merged.extend(eb[ib:])
    return Multiset._trusted(tuple(merged))


def ms_sum(values):
    """Union of a list of multisets in one pass: k values of s entries cost
    O(k s) plus one sort, against O(k s log k) for a fold of `ms_union`.
    Sorted unique keys; counts are sums of positive ints."""
    if len(values) == 1:
        return values[0]
    acc = {}
    for value in values:
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
