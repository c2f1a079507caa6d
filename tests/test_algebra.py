import math
import operator
import random
from dataclasses import dataclass
from itertools import product

import pytest

from relagg import make_named
from relagg.algebra import PAIRS, Semiring

INF = math.inf


@dataclass(frozen=True)
class LawViolation:
    law: str
    witness: tuple

    def __str__(self):
        return f"{self.law} fails on {self.witness}"


def find_law_violation(plus, times, zero, one, triples):
    """First violated semiring law over the given (a, b, c) triples, else None.

    The eight laws: commutativity/associativity/identity for (+), the same
    for (x), annihilation by the zero, and distributivity.
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
        if times(a, zero) != zero:
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
    """The fold of k copies of x as SumSum's pair product forms it: k join
    rows without a term, each joined to one row whose term is x."""
    return PAIRS[monoid.name].times((k, monoid.identity), (1, x))[1]


def test_repeat_sum():
    assert repeat(make_named("sum"), 1.5, 4) == 6.0


def test_repeat_idempotent_min():
    assert repeat(make_named("min"), 7, 1000) == 7


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


@pytest.mark.parametrize("name, terms", [
    ("sum", [-2, 0, 3]), ("min", [-2, 0, 3, INF]), ("max", [-2, 0, 3, -INF]),
])
def test_pair_bases_are_semirings(name, terms):
    """(count, fold) pairs over each monoid satisfy every semiring law,
    pairs of count 0 included; over `sum` they are the dual numbers
    c + s e, e^2 = 0."""
    base = PAIRS[name]
    samples = [(c, s) for c in (0, 1, 2, 5) for s in terms]
    assert check_axioms(base, samples)
    assert base.zero == (0, make_named(name).identity)
    assert base.one == (1, make_named(name).identity)


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
