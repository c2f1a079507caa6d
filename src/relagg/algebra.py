"""Commutative monoids and semirings over the extended reals.

Carriers are plain floats (or ints) extended with +/-infinity. Each named
semiring records the metadata the approximation algorithms need: whether
its addition is monotone.

`SUMSUM_BASES` holds, per monoid, the base over which SumSum runs. `sum`
takes (count, sum) pairs: a pair (c, s) stands for c join rows whose
terms sum to s. (+) adds both components, and (x) joins every row of one
side to every row of the other: (c1, s1) (x) (c2, s2) = (c1 c2, c1 s2 +
c2 s1), the dual numbers c + s e, e^2 = 0. Zero is (0, 0) and one
(1, 0.0), whose sum is a float as every F term is, so that the leaf of a
feature outside F packs with the others (`weightedset.ws_convolve`).
On a nonnegative carrier both components grow under (+), so only these
pairs are marked monotone, and only they are sketched.

`max` and `min` need no count. The fold over qualifying rows of the fold
of each row's terms is one SumProd over plain floats in the bottleneck
dioid: (+) = (x) = the monoid's op, zero its identity (-inf for `max`,
+inf for `min`), and one the finite extreme on the same side (-/+
`sys.float_info.max`); neither is monotone. This base is not a semiring,
since its zero does not annihilate: max(-inf, x) is x. But a weighted set
never stores a base-zero weight, so no product ever meets one. The
weights that do occur only need (+) and (x) associative, commutative and
distributive, which `max` and `min` are, and `one` neutral on them. Each
is a fold of F terms and of `one` itself, and `checked_factors` keeps
every F term finite, so `one` is neutral on all of them.
"""

import math
import operator
import sys
from dataclasses import dataclass

from .errors import CapExceeded

INF = math.inf


@dataclass(frozen=True, eq=False)
class Semiring:
    name: str
    plus: callable
    times: callable
    zero: float
    one: float
    # 'increasing' means x (+) y >= max(x, y); 'decreasing' means <= min(x, y)
    plus_monotone: str = "none"

    def __repr__(self):
        return f"Semiring({self.name!r})"


@dataclass(frozen=True, eq=False)
class Monoid:
    name: str
    plus: callable
    identity: float

    def __repr__(self):
        return f"Monoid({self.name!r})"


def _tropical_times(zero):
    # I_0 annihilates; avoids inf + -inf = nan outside the carrier. Any
    # other infinite sum overflowed: min-plus would read it as its zero
    # and drop the row, max-plus would leave its carrier.
    def times(a, b):
        if a == zero or b == zero:
            return zero
        c = a + b
        if math.isinf(c):
            raise CapExceeded(f"{a} + {b} overflows the float range")
        return c

    return times


def _counting_op(op, symbol):
    # An infinite result of finite operands overflowed: a count or weight
    # read as inf would be silently wrong.
    def checked(a, b):
        c = op(a, b)
        if c in (INF, -INF) and a not in (INF, -INF) and b not in (INF, -INF):
            raise CapExceeded(f"{a} {symbol} {b} overflows the float range")
        return c

    return checked


_SEMIRINGS = {
    "counting": Semiring(
        name="counting",
        plus=_counting_op(operator.add, "+"),
        times=_counting_op(operator.mul, "*"),
        zero=0,
        one=1,
        plus_monotone="increasing",  # on the nonnegative carrier
    ),
    "min-plus": Semiring(
        name="min-plus",
        plus=min,
        times=_tropical_times(INF),
        zero=INF,
        one=0.0,
        plus_monotone="decreasing",
    ),
    "max-plus": Semiring(
        name="max-plus",
        plus=max,
        times=_tropical_times(-INF),
        zero=-INF,
        one=0.0,
        plus_monotone="increasing",
    ),
}

# The counting algebra of row counts, exact Python ints; the values over
# it are the multisets. Unlike the named "counting" semiring its
# operations need no float-overflow check: ints cannot overflow.
COUNTS = Semiring("counts", operator.add, operator.mul, 0, 1, "increasing")

_MONOIDS = {
    "sum": Monoid(name="sum", plus=operator.add, identity=0),
    "min": Monoid(name="min", plus=min, identity=INF),
    "max": Monoid(name="max", plus=max, identity=-INF),
}


def make_named(name):
    """Named semiring or monoid; instances are cached singletons."""
    if name in _SEMIRINGS:
        return _SEMIRINGS[name]
    if name in _MONOIDS:
        return _MONOIDS[name]
    known = sorted(_SEMIRINGS) + sorted(_MONOIDS)
    raise KeyError(f"unknown algebra {name!r}; known: {', '.join(known)}")


# SumSum's base per monoid, the algebra its one SumProd runs in (see the
# module docstring): `sum` pairs, and the scalar `max`/`min` bottleneck.
SUMSUM_BASES = {
    "sum": Semiring("sum pairs", lambda x, y: (x[0] + y[0], x[1] + y[1]),
                    lambda x, y: (x[0] * y[0], x[0] * y[1] + y[0] * x[1]),
                    (0, 0), (1, 0.0), "increasing"),
    "max": Semiring("max-max", max, max, -INF, -sys.float_info.max),
    "min": Semiring("min-min", min, min, INF, sys.float_info.max),
}


def finite_sum(monoid, total):
    """`total`, a fold under `monoid`; a `sum` total that is inf or NaN
    raises CapExceeded.

    Table cells are finite, so such a sum means that a term or a partial
    sum overflowed the float range, where a counting sum refuses it too.
    A non-finite float stays non-finite under addition, so one check of
    the folded total catches every overflow along the way.
    """
    if (monoid is _MONOIDS["sum"] and isinstance(total, float)
            and not math.isfinite(total)):
        raise CapExceeded(
            f"the sum is {total}: a term or a partial sum overflowed the "
            "float range"
        )
    return total
