"""Commutative monoids and semirings over the extended reals.

Carriers are plain floats (or ints) extended with +/-infinity. Each named
semiring records the metadata the approximation algorithms need: whether
its addition is monotone. `PAIRS` holds, per monoid, the semiring of
(count, fold) pairs over which SumSum runs.
"""

import math
import operator
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


def _pairs(monoid):
    """SumSum's base over `monoid`: (count, fold) pairs, a count and a
    fold carried together through one SumProd.

    A pair (c, s) stands for c join rows whose terms fold to s. (+) adds
    the counts and folds the folds; (x) joins every row of one side to
    every row of the other: (c1, s1) (x) (c2, s2) = (c1 c2, c1.s2 (+)
    c2.s1), where c.s, the fold of c copies of s, is c s under `sum` (the
    dual numbers c + s e, e^2 = 0) and s under the idempotent `max` and
    `min` (the identity when c is 0). Zero is (0, identity) and one
    (1, identity). Only `sum`'s pairs are sketched, so only they are
    marked monotone: on a nonnegative carrier both components grow under
    (+).
    """
    plus, identity = monoid.plus, monoid.identity
    if monoid.name == "sum":
        def times(x, y):
            return x[0] * y[0], x[0] * y[1] + y[0] * x[1]
    else:
        def times(x, y):
            return x[0] * y[0], plus(y[1] if x[0] else identity,
                                     x[1] if y[0] else identity)
    return Semiring(f"{monoid.name} pairs",
                    lambda x, y: (x[0] + y[0], plus(x[1], y[1])), times,
                    (0, identity), (1, identity),
                    "increasing" if monoid.name == "sum" else "none")


PAIRS = {name: _pairs(monoid) for name, monoid in _MONOIDS.items()}


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
