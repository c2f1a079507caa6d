"""Weighted key sets over a base semiring.

Each real key carries a weight drawn from a base semiring (the weight
plays the role of a possibly fractional multiplicity); `Multiset` is the
subclass over integer counts, and the lookup, length, dump and Delta_L
fold here serve it too. Union combines weights with the base (+) and
takes any number of operands; convolution sums keys and combines weights
with the base (x). Entries whose weight equals the base zero are dropped,
keeping the representation canonical. The operations build results with
`WeightedSet._trusted`, which skips the constructor's check; each
docstring says why its result passes it.
"""

import bisect
from dataclasses import dataclass

from .algebra import Semiring


@dataclass(frozen=True)
class WeightedSet:
    entries: tuple[tuple[float, float], ...]
    base: Semiring

    def __post_init__(self):
        prev = None
        for key, weight in self.entries:
            if weight == self.base.zero:
                raise ValueError(f"weight at key {key} equals the base zero")
            if prev is not None and key <= prev:
                raise ValueError("keys must be strictly increasing")
            prev = key

    @classmethod
    def _trusted(cls, entries, base):
        """Without the check: the caller keeps the invariant."""
        value = object.__new__(cls)
        object.__setattr__(value, "entries", entries)
        object.__setattr__(value, "base", base)
        return value

    def weight(self, key):
        i = bisect.bisect_left(self.entries, (key,))
        if i < len(self.entries) and self.entries[i][0] == key:
            return self.entries[i][1]
        return self.base.zero

    def __len__(self):
        return len(self.entries)

    def dump(self):
        return " ".join(f"{k}:{w}" for k, w in self.entries)


def ws_empty(base):
    return WeightedSet((), base)


def ws_one(base):
    """Multiplicative identity: the base one at key 0."""
    return WeightedSet(((0.0, base.one),), base)


def lift(g_val, f_val, base):
    """Leaf value {(g, f)}, or the empty set when f is the base zero."""
    if f_val == base.zero:
        return ws_empty(base)
    return WeightedSet(((g_val, f_val),), base)


def _require_same_base(a, b):
    if a.base is not b.base:
        raise ValueError(
            f"base semiring mismatch: {a.base.name} vs {b.base.name}"
        )


def ws_plus(first, *rest):
    """Pointwise base (+) of one or more weighted sets over one base. One
    dict over every entry: the weights of a key combine in operand order,
    base-zero results are dropped, and the keys are sorted once. A lone
    nonempty operand is returned as it is."""
    for value in rest:
        _require_same_base(first, value)
    nonempty = [value for value in (first, *rest) if value.entries]
    if len(nonempty) == 1:
        return nonempty[0]
    base, acc = first.base, {}
    for value in nonempty:
        for key, w in value.entries:
            acc[key] = base.plus(acc[key], w) if key in acc else w
    entries = tuple((k, w) for k, w in sorted(acc.items()) if w != base.zero)
    return WeightedSet._trusted(entries, base)


def ws_convolve(a, b):
    """Key-sum convolution: weights multiply with the base (x), colliding
    keys aggregate with the base (+); sorted unique keys, base zeros dropped."""
    _require_same_base(a, b)
    base = a.base
    if not a.entries or not b.entries:
        return ws_empty(base)
    acc = {}
    for ka, wa in a.entries:
        for kb, wb in b.entries:
            key = ka + kb
            w = base.times(wa, wb)
            if key in acc:
                acc[key] = base.plus(acc[key], w)
            else:
                acc[key] = w
    entries = tuple(
        (k, w) for k, w in sorted(acc.items()) if w != base.zero
    )
    return WeightedSet._trusted(entries, base)


def ws_triangle(a, ell):
    """Base (+)-fold of weights with key <= ell; the base zero when empty."""
    acc = a.base.zero
    for key, weight in a.entries:
        if key > ell:
            break
        acc = a.base.plus(acc, weight)
    return acc
