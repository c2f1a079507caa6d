import math
import operator
import random
import sys
from dataclasses import dataclass
from functools import reduce
from itertools import product

import pytest

from relagg import make_named
from relagg.algebra import SUMSUM_BASES, Semiring

INF = math.inf


@dataclass(frozen=True)
class LawViolation:
    law: str
    witness: tuple

    def __str__(self):
        return f"{self.law} fails on {self.witness}"


def find_law_violation(plus, times, zero, one, triples, annihilates=True):
    """First violated semiring law over the given (a, b, c) triples, else None.

    The eight laws: commutativity/associativity/identity for (+), the same
    for (x), annihilation by the zero (unless `annihilates` is false), and
    distributivity.
    """
    for a, b, c in triples:
        if plus(a, b) != plus(b, a):
            return LawViolation("plus commutativity", (a, b))
        if plus(a, plus(b, c)) != plus(plus(a, b), c):
            return LawViolation("plus associativity", (a, b, c))
        if plus(a, zero) != a:
            return LawViolation("plus identity", (a,))
        if times(a, b) != times(b, a):
            return LawViolation("times commutativity", (a, b))
        if times(a, times(b, c)) != times(times(a, b), c):
            return LawViolation("times associativity", (a, b, c))
        if annihilates and times(a, zero) != zero:
            return LawViolation("zero annihilation", (a,))
        if times(a, one) != a:
            return LawViolation("times identity", (a,))
        if times(a, plus(b, c)) != plus(times(a, b), times(a, c)):
            return LawViolation("distributivity", (a, b, c))
    return None


def check_axioms(semiring, samples):
    """True iff all eight semiring laws hold on every triple from samples."""
    triples = product(samples, repeat=3)
    return (
        find_law_violation(
            semiring.plus, semiring.times, semiring.zero, semiring.one, triples
        )
        is None
    )


def test_min_plus_basics():
    s = make_named("min-plus")
    assert s.plus(3, 5) == 3
    assert s.times(3, 5) == 8
    assert s.plus(4.0, INF) == 4.0
    assert s.times(INF, 4.0) == INF


def test_counting_basics():
    s = make_named("counting")
    assert s.plus(2, 3) == 5
    assert s.times(2, 3) == 6


def test_max_plus_annihilation():
    s = make_named("max-plus")
    assert s.zero == -INF
    assert s.times(-INF, 4.0) == -INF


def test_unknown_name():
    with pytest.raises(KeyError):
        make_named("frobnication")


def test_named_instances_are_singletons():
    assert make_named("min-plus") is make_named("min-plus")


def repeat(monoid, x, k):
    """The fold of k copies of x as SumSum's base forms it. Over `sum`
    pairs, the pair product: k join rows without a term, each joined to
    one row whose term is x. Over the scalar `max`/`min` base, which has no
    count, the (+)-fold of k rows weighing x; k = 0 rows is the empty
    fold, as a weighted set stores no zero weight."""
    base = SUMSUM_BASES[monoid.name]
    if monoid.name == "sum":
        return base.times((k, monoid.identity), (1, x))[1]
    return reduce(base.plus, [x] * k, base.zero)


def test_repeat_sum():
    assert repeat(make_named("sum"), 1.5, 4) == 6.0


def test_repeat_idempotent_min():
    for name in ("min", "max"):
        assert repeat(make_named(name), 7, 1000) == 7


def test_repeat_zero_gives_identity():
    for name in ("sum", "min", "max"):
        m = make_named(name)
        assert repeat(m, 3.0, 0) == m.identity


def test_repeat_splits_additively():
    rng = random.Random(3)
    m = make_named("sum")
    for _ in range(100):
        x = rng.randint(-10, 10)
        j, k = rng.randint(0, 50), rng.randint(0, 50)
        assert repeat(m, x, j + k) == m.plus(repeat(m, x, j), repeat(m, x, k))


BIG = sys.float_info.max


@pytest.mark.parametrize("name, terms", [
    ("sum", [-2, 0, 3]),
    ("min", [-BIG, -2.5, -0.0, 0.0, 3.0, BIG]),
    ("max", [-BIG, -2.5, -0.0, 0.0, 3.0, BIG]),
])
def test_pair_bases_are_semirings(name, terms):
    """`sum`'s (count, sum) pairs satisfy every semiring law, pairs of
    count 0 included: they are the dual numbers c + s e, e^2 = 0. The
    scalar `max`/`min` base satisfies every law but annihilation on finite
    weights, negatives, +/-0.0 and +/-float_info.max included; its zero
    does not annihilate, and no weighted set stores it."""
    monoid, base = make_named(name), SUMSUM_BASES[name]
    if name == "sum":
        assert check_axioms(base, [(c, s) for c in (0, 1, 2, 5) for s in terms])
        assert (base.zero, base.one) == ((0, 0), (1, 0))
        return
    assert find_law_violation(base.plus, base.times, base.zero, base.one,
                              product(terms, repeat=3), annihilates=False) is None
    assert base.times(3.0, base.zero) == 3.0  # no annihilation
    assert base.plus is base.times is monoid.plus
    assert (base.zero, base.one) == ((-INF, -BIG) if name == "max" else (INF, BIG))
    assert base.plus_monotone == "none"


def test_counting_axioms_on_integers():
    assert check_axioms(make_named("counting"), [-3, -1, 0, 1, 2, 7])


def test_min_plus_axioms():
    assert check_axioms(make_named("min-plus"), [0.0, 1.0, 5.0, INF])


def test_max_plus_axioms():
    assert check_axioms(make_named("max-plus"), [0.0, 1.5, 5.0, -INF])


def test_broken_semiring_detected():
    bad = Semiring(
        name="bad", plus=operator.add, times=operator.sub, zero=0, one=0
    )
    samples = [0, 1, 2]
    assert not check_axioms(bad, samples)
    violation = find_law_violation(
        bad.plus, bad.times, bad.zero, bad.one, product(samples, repeat=3)
    )
    assert violation is not None
    assert violation.witness


def test_tropical_plus_idempotent():
    rng = random.Random(5)
    for name in ("min-plus", "max-plus"):
        s = make_named(name)
        for _ in range(100):
            x = rng.uniform(0, 100)
            assert s.plus(x, x) == x


def test_monotonicity_flags():
    rng = random.Random(9)
    for name in ("counting", "min-plus", "max-plus"):
        s = make_named(name)
        for _ in range(1000):
            x, y = rng.uniform(0, 50), rng.uniform(0, 50)
            if s.plus_monotone == "increasing":
                assert s.plus(x, y) >= max(x, y)
            else:
                assert s.plus(x, y) <= min(x, y)
