"""Weighted key sets over a base semiring, stored as two columns.

Each real key carries a weight drawn from a base semiring (the weight
plays the role of a possibly fractional multiplicity); `Multiset` is the
subclass over integer counts, and the lookup, length, dump and Delta_L
fold here serve it too. A value holds its keys, strictly increasing, in
one tuple and their weights, aligned, in another: a threshold read
bisects the key column and folds the weight column as they are, and a
kernel sorts only keys. `entries` is a derived view of the (key, weight) pairs. The
checked constructor takes them, and `from_columns` takes the two columns
under the same check, so a one-entry leaf splits no pairs. Union combines
weights with the base (+) and takes any number of operands; convolution
sums keys and combines weights with the base (x). Each accumulates into
one dict in operand order, sorts its keys, and reads the weight column
off the dict. Entries whose weight equals the base zero are dropped,
keeping the representation canonical. The operations build results with
`WeightedSet._trusted`, which skips the constructor's check; each
docstring says why its result passes it.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce

from .algebra import Semiring


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

    @classmethod
    def from_columns(cls, keys, weights, base):
        """The checked constructor over the two columns, aligned tuples:
        no pairs to split, and the same check as `__init__`."""
        value = cls._trusted(keys, weights, base)
        value.__post_init__()
        return value

    @property
    def entries(self):
        """The (key, weight) pairs, in key order."""
        return tuple(zip(self.keys, self.weights))

    def weight(self, key):
        i = bisect_left(self.keys, key)
        if i < len(self.keys) and self.keys[i] == key:
            return self.weights[i]
        return self.base.zero

    def __len__(self):
        return len(self.keys)

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
    return WeightedSet.from_columns((g_val,), (f_val,), base)


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
    nonempty = [value for value in (first, *rest) if value.keys]
    if len(nonempty) == 1:
        return nonempty[0]
    base, acc = first.base, {}
    plus = base.plus
    keys = [k for value in nonempty for k in value.keys]
    weights = [w for value in nonempty for w in value.weights]
    for key, w in zip(keys, weights):
        acc[key] = plus(acc[key], w) if key in acc else w
    zero = base.zero
    keys = tuple(sorted(k for k, w in acc.items() if w != zero))
    return WeightedSet._trusted(keys, tuple(map(acc.__getitem__, keys)), base)


def ws_convolve(a, b):
    """Key-sum convolution: weights multiply with the base (x), colliding
    keys aggregate with the base (+); sorted unique keys, base zeros dropped."""
    _require_same_base(a, b)
    base = a.base
    if not a.keys or not b.keys:
        return ws_empty(base)
    plus, times, acc = base.plus, base.times, {}
    b_pairs = tuple(zip(b.keys, b.weights))
    for ka, wa in zip(a.keys, a.weights):
        for kb, wb in b_pairs:
            key = ka + kb
            w = times(wa, wb)
            acc[key] = plus(acc[key], w) if key in acc else w
    zero = base.zero
    keys = tuple(sorted(k for k, w in acc.items() if w != zero))
    return WeightedSet._trusted(keys, tuple(map(acc.__getitem__, keys)), base)


def ws_triangle(a, ell):
    """Base (+)-fold of weights with key <= ell; the base zero when empty."""
    return reduce(a.base.plus, a.weights[:bisect_right(a.keys, ell)], a.base.zero)
