import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from relagg import (
    AdditiveInequality,
    CapExceeded,
    Database,
    FunctionSpec,
    Instrumentation,
    Multiset,
    QueryRejected,
    QuerySpec,
    Table,
    WeightedSet,
    count_rows,
    make_named,
    oracle_eval,
    run_query,
    sumprod,
    sumsum,
    ws_convolve,
    ws_triangle,
)
from relagg import drivers, sketch
from relagg.algebra import COUNTS
from relagg.drivers import threshold_read
from relagg.engine import EngineConfig, evaluate
from relagg.multiset import ms_union
from relagg.queryspec import identity, preset, scale
from relagg.weightedset import ws_gather, ws_one
from conftest import (
    CROSS_CASE,
    STAR_CASE,
    identity_fns,
    knapsack_count_dp,
    packed_products,
    random_acyclic_db,
    random_affine_inequality,
    sum_leq,
    tree_cases,
    tree_db,
)


def test_count_no_inequality(db1):
    assert count_rows(db1) == 3


def test_count_with_threshold(db1):
    # join row sums are 7, 9, 10
    assert count_rows(db1, sum_leq(db1, 9.0)) == 2
    assert count_rows(db1, sum_leq(db1, 6.0)) == 0
    assert count_rows(db1, sum_leq(db1, 10.0)) == 3


def test_count_approx_is_close(db1):
    exact = count_rows(db1, sum_leq(db1, 9.0))
    got = count_rows(db1, sum_leq(db1, 9.0), epsilon=0.1, mode="approx")
    assert (1 - 0.1) * exact <= got <= (1 + 0.1) * exact


def test_sumsum_sum(db1):
    F = {"c": identity()}
    # qualifying rows under sum<=9: (1,1,5) and (1,2,6); c values 5+6
    assert sumsum(db1, "sum", F, sum_leq(db1, 9.0)) == 11.0
    assert sumsum(db1, "sum", F) == 18.0


def test_sumsum_min_max(db1):
    F = {"c": identity()}
    assert sumsum(db1, "min", F, sum_leq(db1, 9.0)) == 5.0
    assert sumsum(db1, "max", F, sum_leq(db1, 9.0)) == 6.0


def test_sumsum_multi_feature(db1):
    F = {"a": identity(), "c": identity()}
    # rows (1,1,5),(1,2,6),(1,2,7): sum of a's = 3, sum of c's = 18
    assert sumsum(db1, "sum", F) == 21.0


def test_sumsum_rejects_non_monoid(db1):
    with pytest.raises(QueryRejected):
        sumsum(db1, "min-plus", {"c": identity()})


def test_sumsum_with_empty_f_is_the_identity(db1):
    """With no F term every monoid answers its identity, `sum` the int 0
    (the pair one carries a float sum), as the oracle does."""
    for name in ("sum", "min", "max"):
        spec = QuerySpec(kind="sumsum", algebra=name, F={})
        want = oracle_eval(db1, spec)
        assert repr(sumsum(db1, name, {})) == repr(want)
    assert repr(sumsum(db1, "sum", {})) == "0"


def test_sumprod_tropical(db1):
    F = identity_fns(db1)
    # row sums 7, 9, 10
    assert sumprod(db1, "min-plus", F) == 7.0
    assert sumprod(db1, "max-plus", F) == 10.0
    assert sumprod(db1, "min-plus", F, sum_leq(db1, 9.0)) == 7.0
    assert sumprod(db1, "max-plus", F, sum_leq(db1, 9.0)) == 9.0


def test_sumprod_counting_matches_count(db1):
    # empty F: every factor is the multiplicative identity -> row count
    assert sumprod(db1, "counting", {}) == count_rows(db1)


def test_sumprod_rejects_negative_factor(db1):
    with pytest.raises(QueryRejected, match="nonnegative"):
        sumprod(db1, "counting", {"a": scale(-1.0)})


def test_sumprod_rejects_non_semiring(db1):
    with pytest.raises(QueryRejected):
        sumprod(db1, "sum", identity_fns(db1))


def test_run_query_dispatch(db1):
    assert run_query(db1, QuerySpec(kind="count")) == 3
    spec = QuerySpec(
        kind="sumsum", algebra="sum", F={"c": identity()},
        inequalities=(sum_leq(db1, 9.0),),
    )
    assert run_query(db1, spec) == 11.0
    spec = QuerySpec(kind="sumprod", algebra="min-plus", F=identity_fns(db1))
    assert run_query(db1, spec) == 7.0


def test_run_query_rejects_two_inequalities(db1):
    spec = QuerySpec(
        kind="count",
        inequalities=(AdditiveInequality(), AdditiveInequality()),
    )
    with pytest.raises(QueryRejected, match="NP-hard"):
        run_query(db1, spec)


def test_count_matches_oracle_random():
    rng = random.Random(97)
    for _ in range(50):
        db = random_acyclic_db(rng)
        ineq = random_affine_inequality(rng, db)
        spec = QuerySpec(kind="count", inequalities=(ineq,))
        assert count_rows(db, ineq) == oracle_eval(db, spec)


def test_sumsum_matches_oracle_random():
    rng = random.Random(101)
    for _ in range(30):
        db = random_acyclic_db(rng)
        ineq = random_affine_inequality(rng, db)
        feats = sorted(db.feature_tables)
        F = {f: identity() for f in rng.sample(feats, rng.randint(1, len(feats)))}
        spec = QuerySpec(kind="sumsum", algebra="sum", F=F, inequalities=(ineq,))
        assert sumsum(db, "sum", F, ineq) == oracle_eval(db, spec)


def test_sumsum_min_max_matches_oracle_random():
    """`max` and `min` sumsum equal the oracle (==), in approx mode too,
    which computes them exactly whatever the signs of the terms: F terms
    of either sign on a random subset of the features, F empty in some
    cases, and in others a table with no rows, so no join row qualifies."""
    rng = random.Random(103)
    kinds = (identity(), scale(-1.0), FunctionSpec("affine", (-2.0, -7.0)),
             FunctionSpec("abs_offset", (1.0,)))
    for case in range(40):
        db = random_acyclic_db(rng)
        if case % 8 == 7:
            empty = rng.randrange(db.m)
            db = Database(tables=tuple(replace(t, rows=()) if i == empty else t
                                       for i, t in enumerate(db.tables)))
        ineq = random_affine_inequality(rng, db)
        feats = sorted(db.feature_tables)
        size = 0 if case % 8 == 3 else rng.randint(1, len(feats))
        F = {f: rng.choice(kinds) for f in rng.sample(feats, size)}
        for name in ("min", "max"):
            spec = QuerySpec(
                kind="sumsum", algebra=name, F=F, inequalities=(ineq,)
            )
            want = oracle_eval(db, spec)
            assert sumsum(db, name, F, ineq) == want
            assert sumsum(db, name, F, ineq, mode="approx") == want


def test_sumprod_matches_oracle_random():
    rng = random.Random(107)
    for _ in range(30):
        db = random_acyclic_db(rng)
        ineq = random_affine_inequality(rng, db)
        # values are nonnegative: negative factors are (rightly) rejected
        F = {f: FunctionSpec("abs_offset", (0.0,)) for f in db.feature_tables}
        for name in ("min-plus", "max-plus"):
            spec = QuerySpec(
                kind="sumprod", algebra=name, F=F, inequalities=(ineq,)
            )
            assert sumprod(db, name, F, ineq) == oracle_eval(db, spec)


def test_count_approx_within_epsilon_random():
    rng = random.Random(109)
    for _ in range(25):
        db = random_acyclic_db(rng)
        ineq = random_affine_inequality(rng, db)
        exact = count_rows(db, ineq)
        for eps in (0.1, 0.5):
            got = count_rows(db, ineq, epsilon=eps, mode="approx")
            assert (1 - eps) * exact - 1e-9 <= got <= (1 + eps) * exact + 1e-9


def test_count_approx_exact_on_many_to_many_star(monkeypatch):
    """Values on a many-to-many star stay within the sketch size bound, so
    approx mode sketches nothing away and returns the exact count, max-plus
    SumProd and `sum` SumSum; each value's fit is proved from a few of its
    weights, so the band pass never runs."""
    rng = random.Random(127)
    tables = []
    for i in range(1, 4):
        keys = [j % 10 for j in range(200)]
        rng.shuffle(keys)
        rows = tuple((float(k), float(rng.randint(0, 50))) for k in keys)
        tables.append(Table(f"t{i}", ("k", f"x{i}"), rows))
    db = Database(tables=tuple(tables))
    xs = {f"x{i}": identity() for i in range(1, 4)}
    ineq = AdditiveInequality(g=xs, threshold=60.0)

    def band(*args):
        raise AssertionError("the band pass ran")
    monkeypatch.setattr(sketch, "_band", band)
    for query in _sketched_queries(db, xs, ineq):
        assert query(epsilon=0.1, mode="approx") == query()


def _sketched_queries(db, F, ineq):
    """Count, max-plus SumProd and `sum` SumSum over F, each a call that
    takes the mode's keywords."""
    return (
        lambda **kw: count_rows(db, ineq, **kw),
        lambda **kw: sumprod(db, "max-plus", F, ineq, **kw),
        lambda **kw: sumsum(db, "sum", F, ineq, **kw),
    )


def test_approx_still_compresses_a_cross_product(monkeypatch):
    """On a cross product of reals the values outgrow the size bound: each
    query's band pass runs and compresses at least one of them."""
    db = _cross_real(3, 40, seed=5)
    ys = {f"y{i}": identity() for i in range(1, 4)}
    ineq = AdditiveInequality(
        g={f"x{i}": identity() for i in range(1, 4)}, threshold=1.5)
    band, compressed = sketch._band, []

    def spy(*args):
        out = band(*args)
        compressed.append(out is not None)
        return out
    monkeypatch.setattr(sketch, "_band", spy)
    for query in _sketched_queries(db, ys, ineq):
        compressed.clear()
        exact, got = query(), query(epsilon=0.1, mode="approx")
        assert any(compressed) and abs(got - exact) <= 0.1 * abs(exact)


def test_knapsack_counts_match_dp():
    from relagg import gen_knapsack

    rng = random.Random(113)
    for _ in range(10):
        weights = [rng.randint(0, 8) for _ in range(rng.randint(1, 8))]
        capacity = rng.randint(0, sum(weights) + 2)
        db, ineq = gen_knapsack(weights, capacity)
        assert count_rows(db, ineq) == knapsack_count_dp(weights, capacity)


# A direct driver call refuses exactly what run_query and the CLI refuse.


def _cross_2x2():
    return Database(tables=(
        Table("t1", ("a",), ((1.0,), (2.0,))),
        Table("t2", ("b",), ((3.0,), (4.0,))),
    ))


def test_count_rejects_nan_threshold():
    db = _cross_2x2()
    with pytest.raises(QueryRejected, match="NaN"):
        count_rows(db, AdditiveInequality(g=identity_fns(db), threshold=math.nan))


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
def test_count_approx_rejects_bad_epsilon(eps):
    with pytest.raises(QueryRejected, match="epsilon"):
        count_rows(_cross_2x2(), epsilon=eps, mode="approx")


def test_sumsum_approx_rejects_mixed_signs():
    db = _cross_2x2()
    F = {"a": identity(), "b": scale(-1.0)}
    assert sumsum(db, "sum", F) == 6.0 - 14.0
    with pytest.raises(QueryRejected, match="subtraction"):
        sumsum(db, "sum", F, mode="approx")


@pytest.mark.parametrize("call", [
    lambda db: count_rows(db, mode="aprox"),
    lambda db: sumsum(db, "sum", {"a": identity()}, mode="exakt"),
    lambda db: sumprod(db, "counting", {}, mode="aprox"),
], ids=["count_rows", "sumsum", "sumprod"])
def test_driver_rejects_unknown_mode(call):
    with pytest.raises(QueryRejected, match="unknown mode"):
        call(_cross_2x2())


# The fused read equals the threshold of the built product, on every carrier.


@st.composite
def _read_cases(draw):
    """Two carriers as sorted (key, count, tropical weight) triples, and a
    threshold that is often the exact sum of a key pair or its neighbour."""
    key = st.floats(-10.0, 10.0, allow_nan=False)
    entries = st.lists(
        st.tuples(key, st.integers(1, 5), st.floats(-100.0, 100.0)),
        max_size=8, unique_by=lambda e: e[0],
    ).map(sorted)
    a, b = draw(entries), draw(entries)
    threshold = draw(st.floats(-25.0, 25.0))
    if a and b and draw(st.booleans()):
        pair = draw(st.sampled_from(a))[0] + draw(st.sampled_from(b))[0]
        threshold = draw(st.sampled_from([
            math.nextafter(pair, -math.inf), pair, math.nextafter(pair, math.inf)
        ]))
    return a, b, threshold


def _read(a, b, threshold, base):
    return threshold_read(threshold, base)(a, b)


@given(_read_cases())
# k_a + k_b <= L holds but k_b <= L - k_a does not
@example(([(0.3101475693193326, 1, 0.0)], [(0.7298317482601286, 1, 0.0)],
          1.0399793175794612))
# k_b <= L - k_a holds but k_a + k_b <= L does not
@example(([(0.5124999345029883, 1, 0.0)], [(1.2924942760674862, 1, 0.0)],
          1.8049942105704744))
def test_threshold_read_equals_threshold_of_product(case):
    a, b, threshold = case
    ma, mb = (Multiset(tuple((k, c) for k, c, _ in e)) for e in (a, b))
    assert _read(ma, mb, threshold, ma.base) == ws_triangle(
        ws_convolve(ma, mb), threshold
    )
    # counting weighs a key by its count, the tropical bases by its weight
    for name, col in (("counting", 1), ("min-plus", 2), ("max-plus", 2)):
        base = make_named(name)
        wa, wb = (
            WeightedSet(tuple((e[0], e[col]) for e in x), base)
            for x in (a, b)
        )
        assert _read(wa, wb, threshold, base) == ws_triangle(
            ws_convolve(wa, wb), threshold
        )


# The root's last products and its final fold are never built.


def _cross_real(m, n, seed):
    """m tables of n rows: a real key x_i and an integer value y_i each."""
    rng = random.Random(seed)
    return Database(tables=tuple(
        Table(f"t{i}", (f"x{i}", f"y{i}"), tuple(
            (rng.random(), float(rng.randint(0, 9))) for _ in range(n)
        ))
        for i in range(1, m + 1)
    ))


def _check_against_oracle(db, ineq):
    ys = {f: identity() for f in db.feature_tables if f.startswith("y")}
    instr = Instrumentation()
    exact = count_rows(db, ineq, instr=instr)
    assert exact == oracle_eval(db, QuerySpec(kind="count", inequalities=(ineq,)))
    for kind, driver, algebra in (
        ("sumsum", sumsum, "sum"),
        ("sumprod", sumprod, "counting"),
        ("sumprod", sumprod, "max-plus"),
    ):
        spec = QuerySpec(kind=kind, algebra=algebra, F=ys, inequalities=(ineq,))
        assert driver(db, algebra, ys, ineq) == oracle_eval(db, spec)
    got = count_rows(db, ineq, epsilon=0.1, mode="approx")
    assert abs(got - exact) <= 0.1 * exact
    return instr


def test_root_product_is_never_built():
    db = _cross_real(3, 40, seed=5)
    ineq = AdditiveInequality(
        g={f"x{i}": identity() for i in range(1, 4)}, threshold=1.5
    )
    instr = _check_against_oracle(db, ineq)
    # the root's group value has 40 * 40 entries; q (x) g would have 64 000
    assert instr.max_value_size <= 1600


def test_one_table_rows_read_with_one():
    db = _cross_real(1, 40, seed=6)
    one = ws_one(COUNTS)
    config = EngineConfig(plus=ms_union, times=ws_convolve, one=one,
                          gather=lambda rows: ws_gather(rows, COUNTS))
    factors = {f: (lambda v: (v, 1)) for f in db.feature_tables}
    pairs = evaluate(db, factors, config)
    # the table's one join key () holds all its rows, read with the one
    assert [(len(a), b) for a, b in pairs] == [(40, one)]
    _check_against_oracle(
        db, AdditiveInequality(g={"x1": identity()}, threshold=0.5)
    )


# Each join key's rows are gathered in one call and each group of
# messages folds in one union, in both modes; no seeded value passes the
# constructor's check.


def _spy(monkeypatch, calls, owner, name, key=None):
    """Patch `owner.name` to count its calls in `calls[key or name]`."""
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[key or name] += 1
        return fn(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)


def test_exact_count_folds_in_one_pass(monkeypatch):
    """In either mode each table gathers its rows by join key, one
    `ws_gather` call per key, and each elimination folds a group, one
    `ms_union` call; no seeded value passes the constructor's check, and a
    feature without a term (y_i) seeds no product. Approx mode sketches
    each group fold and each product once, and not the join-key gathers."""
    calls = Counter()
    for name in ("ws_gather", "ms_union", "ws_convolve", "ms_sketch"):
        _spy(monkeypatch, calls, drivers, name)
    _spy(monkeypatch, calls, Multiset, "__post_init__", "check")
    db = _cross_real(3, 12, seed=7)
    ineq = AdditiveInequality(
        g={f"x{i}": identity() for i in range(1, 4)}, threshold=1.5
    )
    answers = {}
    for mode in ("exact", "approx"):
        calls.clear()
        instr = Instrumentation()
        answers[mode] = count_rows(db, ineq, mode=mode, instr=instr)
        # a cross product: each table is one join key (), then the chain
        # 1 - 2 - 3 folds one group per elimination
        assert calls["ws_gather"] == 3 and calls["ms_union"] == 2
        assert instr.fold_count == 3 + 2
        # t2 takes t1's group
        assert calls["ws_convolve"] == 1
        assert calls["check"] == 0
    # the counts of the approx run, the last one: two group folds, one product
    assert calls["ms_sketch"] == 2 + 1
    exact = answers["exact"]
    assert abs(answers["approx"] - exact) <= 0.1 * exact
    assert exact == oracle_eval(db, QuerySpec(kind="count", inequalities=(ineq,)))


def test_sumsum_on_a_chain_builds_one_product_per_message(monkeypatch):
    """On the chain 1 - 2 - 3, rooted at t3, sumsum is one upward pass over
    (count, sum) pairs: each row's entry is its x_i leaf times its y_i
    leaf, one pair product inside its table's gather; t1 folds its one key
    into its message, t2 builds
    one product (its value times t1's message) and folds it into its
    message, and t3's read fuses the last product. Approx mode sketches
    the two message folds and the product."""
    calls = Counter()
    for name in ("ws_gather", "ws_plus", "ws_convolve", "ws_sketch"):
        _spy(monkeypatch, calls, drivers, name)
    db = _cross_real(3, 12, seed=7)
    ineq = AdditiveInequality(
        g={f"x{i}": identity() for i in range(1, 4)}, threshold=1.5
    )
    F = {f"y{i}": identity() for i in range(1, 4)}
    exact = oracle_eval(db, QuerySpec(kind="sumsum", algebra="sum", F=F,
                                      inequalities=(ineq,)))
    for mode, sketches in (("exact", 0), ("approx", 2 + 1)):
        calls.clear()
        got = sumsum(db, "sum", F, ineq, mode=mode)
        # three join-key gathers, two message folds, one message product
        assert calls == Counter(ws_gather=3, ws_plus=2, ws_convolve=1,
                                ws_sketch=sketches)
        assert _within(got, exact, 0.1)


def test_sum_pairs_outside_f_still_pack(monkeypatch):
    """A `sum` SumSum whose F holds only x1 of the inequality's x1..x3, on
    an integer star like the benchmark's: the x2 and x3 leaves carry the
    pair one, (1, 0.0), a float sum like every F term, so every pair
    product still takes the packed path."""
    rng = random.Random(11)
    db = Database(tables=tuple(
        Table(f"t{i}", ("k", f"x{i}"), tuple(
            (float(rng.randint(0, 3)), float(rng.randint(0, 50)))
            for _ in range(80)))
        for i in range(1, 4)
    ))
    ineq = AdditiveInequality(
        g={f"x{i}": identity() for i in range(1, 4)}, threshold=60
    )
    F = {"x1": identity()}
    calls = Counter()
    _spy(monkeypatch, calls, drivers, "ws_convolve")
    products = packed_products(monkeypatch)
    got = sumsum(db, "sum", F, ineq)
    assert calls["ws_convolve"] > 0
    assert sum(p is not None for p in products) == calls["ws_convolve"]
    assert got == oracle_eval(db, QuerySpec(kind="sumsum", algebra="sum", F=F,
                                            inequalities=(ineq,)))


# The epsilon guarantee at the worst depth a 5-table plan reaches,
# 2m - 3 = 7 sketches, with values large enough that sketches compress.


def _binary_keyed(schemas, seed):
    """20 rows per table: join keys in {0, 1} and one uniform real x_i."""
    rng = random.Random(seed)
    return Database(tables=tuple(
        Table(f"t{i}", (*keys, f"x{i}"), tuple(
            (*(float(rng.randint(0, 1)) for _ in keys), rng.random())
            for _ in range(20)
        ))
        for i, keys in enumerate(schemas, 1)
    ))


def _counting_shrinks(compressed, name, sketch):
    """`sketch`, counting in compressed[name] the calls that drop entries."""
    def wrapper(a, eps):
        out = sketch(a, eps)
        compressed[name] += len(out) < len(a)
        return out
    return wrapper


@pytest.mark.parametrize("schemas", [
    [("k1",), ("k1", "k2"), ("k2", "k3"), ("k3", "k4"), ("k4",)],
    [("k1", "k2", "k3", "k4"), ("k1",), ("k2",), ("k3",), ("k4",)],
], ids=["chain", "star"])
def test_approx_within_epsilon_at_worst_depth(monkeypatch, schemas):
    """Each query stays within epsilon of its exact answer on 5-table
    plans where sketches compress: the counts' `ms_sketch`, the tropical
    weighted sets' `ws_sketch`, and that of sumsum's (count, sum) pairs,
    for F >= 0 and for an all-negative F, answered by negation."""
    db = _binary_keyed(schemas, seed=1)
    xs = {f"x{i}": identity() for i in range(1, 6)}
    negated = {f"x{i}": scale(-1.0) for i in range(1, 6)}
    ineq = AdditiveInequality(g=xs, threshold=1.5)
    queries = {
        "count": lambda **kw: count_rows(db, ineq, **kw),
        "sum": lambda **kw: sumsum(db, "sum", xs, ineq, **kw),
        "negative sum": lambda **kw: sumsum(db, "sum", negated, ineq, **kw),
        "min-plus": lambda **kw: sumprod(db, "min-plus", xs, ineq, **kw),
        "max-plus": lambda **kw: sumprod(db, "max-plus", xs, ineq, **kw),
    }
    exact = {name: query() for name, query in queries.items()}
    assert exact["negative sum"] == -exact["sum"] < 0

    compressed = Counter()
    for eps in (0.1, 0.3):
        for name, query in queries.items():
            with monkeypatch.context() as mp:
                for sketch in ("ms_sketch", "ws_sketch"):
                    mp.setattr(drivers, sketch, _counting_shrinks(
                        compressed, (name, sketch), getattr(drivers, sketch)))
                got = query(epsilon=eps, mode="approx")
            assert abs(got - exact[name]) <= eps * abs(exact[name]), (name, eps)
    assert compressed["count", "ms_sketch"]
    assert compressed["sum", "ws_sketch"] and compressed["negative sum", "ws_sketch"]
    assert compressed["min-plus", "ws_sketch"] + compressed["max-plus", "ws_sketch"]


@pytest.mark.parametrize("name", ["min-plus", "max-plus"])
def test_tropical_overflow_is_refused(name):
    """1e308 + 1e308 is inf: min-plus would read it as its zero and drop
    the row, and max-plus would leave its carrier."""
    db = Database(tables=(
        Table("t1", ("a", "b"), ((1e308, 0.0),)),
        Table("t2", ("b", "c"), ((0.0, 1e308),)),
    ))
    F = {"a": identity(), "c": identity()}
    with pytest.raises(CapExceeded, match="overflow"):
        sumprod(db, name, F)
    with pytest.raises(CapExceeded, match="overflow"):
        oracle_eval(db, QuerySpec(kind="sumprod", algebra=name, F=F))


@pytest.mark.parametrize("rows, op", [
    (((1e308, 0.0),), "*"),               # one join row: 1e308 * 10
    (((1e308, 0.0), (1e308, 0.0)), "+"),  # two join rows: 1e308 + 1e308
], ids=["times", "plus"])
def test_counting_overflow_is_refused(rows, op):
    """A counting sum or product of finite floats that overflows would be
    read as an infinite answer."""
    db = Database(tables=(
        Table("t1", ("a", "b"), rows),
        Table("t2", ("b", "c"), ((0.0, 10.0),)),
    ))
    F = {"a": identity()} if op == "+" else {"a": identity(), "c": identity()}
    with pytest.raises(CapExceeded, match=rf"\{op} .* overflows"):
        sumprod(db, "counting", F)
    with pytest.raises(CapExceeded, match=rf"\{op} .* overflows"):
        oracle_eval(db, QuerySpec(kind="sumprod", algebra="counting", F=F))


@pytest.mark.xfail(strict=True, reason="float key sums depend on the order "
                   "of their terms: the engine adds d + c first and the "
                   "oracle a + c, which overflows to -inf")
def test_count_does_not_depend_on_the_order_of_float_terms():
    """Three one-row tables whose g terms are finite and whose sum over the
    reals, -1.5e308, lies above L: no row qualifies. The oracle's sum
    overflows to -inf and counts the row, so the engine and the oracle
    disagree until the inequality is decided in exact arithmetic."""
    db = Database(tables=tuple(Table(f, (f,), ((v,),))
                               for f, v in (("d", 1.5), ("c", -1.5), ("a", -1.5))))
    g = {f: scale(1e308) for f in "dca"}
    ineq = AdditiveInequality(g=g, threshold=-1.6e308)
    terms = [Fraction(1e308 * t.rows[0][0]) for t in db.tables]
    want = int(sum(terms) <= Fraction(-1.6e308))
    got = [count_rows(db, ineq, mode=mode) for mode in ("exact", "approx")]
    got.append(oracle_eval(db, QuerySpec(kind="count", inequalities=(ineq,))))
    assert got == [want] * 3


# Engine against oracle on random acyclic databases, including cross
# products (tables whose join key is empty) and tables with three or more
# neighbours in the join tree.


def _within(got, exact, eps, base=None):
    """A (1 +/- eps) factor; for a tropical base, a (1 + eps) factor either
    way, and its zero exactly."""
    if base is None or base.name == "counting":
        return (1 - eps) * exact - 1e-9 <= got <= (1 + eps) * exact + 1e-9
    if exact == base.zero:
        return got == exact
    lo, hi = sorted((exact / (1 + eps), exact * (1 + eps)))
    return lo - 1e-9 <= got <= hi + 1e-9


@given(tree_cases())
@example(STAR_CASE)
@example(CROSS_CASE)
def test_engine_equals_oracle_on_tree_databases(case):
    db, ineq = tree_db(*case)
    F = {f: identity() for f in db.feature_tables}  # all nonnegative
    count = count_rows(db, ineq)
    assert count == oracle_eval(db, QuerySpec(kind="count", inequalities=(ineq,)))
    assert _within(count_rows(db, ineq, epsilon=0.3, mode="approx"), count, 0.3)
    for kind, driver, algebras in (
        ("sumsum", sumsum, ("sum", "min", "max")),
        ("sumprod", sumprod, ("counting", "min-plus", "max-plus")),
    ):
        for algebra in algebras:
            spec = QuerySpec(kind=kind, algebra=algebra, F=F, inequalities=(ineq,))
            exact = oracle_eval(db, spec)
            assert driver(db, algebra, F, ineq) == exact, (kind, algebra)
            base = make_named(algebra) if kind == "sumprod" else None
            got = driver(db, algebra, F, ineq, epsilon=0.3, mode="approx")
            assert _within(got, exact, 0.3, base), (kind, algebra)


@st.composite
def compressing_cases(draw):
    """A 3-table star on one key k of 2 values, or a cross product, with
    20 to 30 rows per table and uniform real x_i: the sketched product of
    two tables' values holds at least 100 entries per key, so some sketch
    drops entries. The threshold lies between the smallest and largest
    sums of one row per table."""
    keyed = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    tables, lo, hi = [], 0.0, 0.0
    for i in (1, 2, 3):
        xs = [rng.random() for _ in range(draw(st.integers(20, 30)))]
        lo, hi = lo + min(xs), hi + max(xs)
        rows = tuple((float(j % 2), x) if keyed else (x,) for j, x in enumerate(xs))
        tables.append(Table(f"t{i}", ("k", f"x{i}") if keyed else (f"x{i}",), rows))
    threshold = lo + draw(st.floats(0, 1)) * (hi - lo)
    xs = {f"x{i}": identity() for i in (1, 2, 3)}
    ineq = AdditiveInequality(g=xs, threshold=threshold)
    return Database(tables=tuple(tables)), ineq, draw(st.sampled_from([0.2, 0.5]))


@settings(max_examples=12, deadline=None)
@given(compressing_cases())
def test_approx_within_epsilon_where_sketches_compress(case):
    """Where the sketches drop entries, every kind stays within (1 +/- eps)
    of the oracle: count, sumsum over sum, and sumprod over each base."""
    db, ineq, eps = case
    F = {f: identity() for f in ineq.g}  # uniform reals: nonnegative
    compressed = Counter()
    queries = [("count", "counting"), ("sumsum", "sum"), ("sumprod", "counting"),
               ("sumprod", "max-plus"), ("sumprod", "min-plus")]
    with pytest.MonkeyPatch.context() as mp:
        for name in ("ms_sketch", "ws_sketch"):
            mp.setattr(drivers, name, _counting_shrinks(
                compressed, name, getattr(drivers, name)))
        for kind, algebra in queries:
            spec = QuerySpec(kind=kind, algebra=algebra, F=F, inequalities=(ineq,),
                             mode="approx", epsilon=eps)
            exact = oracle_eval(db, spec)
            base = make_named(algebra) if kind == "sumprod" else None
            assert _within(run_query(db, spec), exact, eps, base), (kind, algebra)
    assert compressed["ms_sketch"] + compressed["ws_sketch"]


@settings(max_examples=8, deadline=None)
@given(compressing_cases())
def test_approx_sumsum_of_negative_terms(case):
    """With every F term negative, approx `sum` sumsum is minus that of -F,
    whose (count, sum) pairs are sketched, and stays within (1 +/- eps) of
    the oracle (`test_approx_within_epsilon_at_worst_depth` shows such a
    sketch compress). `max` and `min` are computed exactly in approx mode
    too, so they equal the oracle; negating F would swap the two."""
    db, ineq, eps = case
    F = {f: scale(-1.0) for f in ineq.g}  # uniform reals in [0, 1): -x <= 0
    for algebra in ("sum", "max", "min"):
        spec = QuerySpec(kind="sumsum", algebra=algebra, F=F,
                         inequalities=(ineq,), mode="approx", epsilon=eps)
        exact, got = oracle_eval(db, spec), run_query(db, spec)
        if algebra == "sum":
            assert exact <= 0 and _within(-got, -exact, eps)
        else:
            assert got == exact, algebra


# Seeding: a leaf per distinct value of a feature with a term, and no
# product for a feature without one.

QUERIES = [  # (kind, algebra, driver)
    ("count", "counting", lambda db, F, ineq, **kw: count_rows(db, ineq, **kw)),
    ("sumsum", "sum", lambda db, F, ineq, **kw: sumsum(db, "sum", F, ineq, **kw)),
    ("sumprod", "max-plus",
     lambda db, F, ineq, **kw: sumprod(db, "max-plus", F, ineq, **kw)),
]


def _star_with_repeats(seed):
    """t1(k, a, z), t2(k, b), t3(k, c): 30 rows each over 3 join keys, the
    features drawing from 5 values, so every value repeats."""
    rng = random.Random(seed)

    def rows(width):
        return tuple(
            (float(rng.randint(0, 2)),
             *(float(rng.randint(0, 4)) for _ in range(width)))
            for _ in range(30)
        )

    return Database(tables=(
        Table("t1", ("k", "a", "z"), rows(2)),
        Table("t2", ("k", "b"), rows(1)),
        Table("t3", ("k", "c"), rows(1)),
    ))


@pytest.mark.parametrize("kind, algebra, driver", QUERIES,
                         ids=[kind for kind, _, _ in QUERIES])
@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_each_factor_runs_once_per_distinct_value(monkeypatch, kind, algebra,
                                                  driver, mode):
    """The engine gets a factor for each feature with a term, in the
    inequality (a, b) or in F (c, sumsum and sumprod), and runs it once per
    distinct value; k and z have none."""
    db = _star_with_repeats(seed=3)
    ineq = AdditiveInequality(g={"a": identity(), "b": identity()}, threshold=5)
    F = {"c": identity()}
    calls = Counter()

    def spying(db, factors, config, **kwargs):
        def counted(f, fn):
            def factor(v):
                calls[f, v] += 1
                return fn(v)
            return factor
        factors = {f: counted(f, fn) for f, fn in factors.items()}
        return evaluate(db, factors, config, **kwargs)

    monkeypatch.setattr(drivers, "evaluate", spying)
    got = driver(db, F, ineq, mode=mode)
    assert max(calls.values()) == 1
    termed = {"a", "b"} if kind == "count" else {"a", "b", "c"}
    assert {f for f, _ in calls} == termed
    assert len(calls) == sum(len(set(db.table(db.feature_tables[f][0])
                                     .column(f))) for f in termed)
    spec = QuerySpec(kind=kind, algebra=algebra, F=F, inequalities=(ineq,))
    exact = oracle_eval(db, spec)
    if mode == "exact":
        assert got == exact
    else:
        base = make_named(algebra) if kind == "sumprod" else None
        assert _within(got, exact, 0.1, base)


@pytest.mark.parametrize("kind, algebra, driver", QUERIES,
                         ids=[kind for kind, _, _ in QUERIES])
def test_feature_without_a_term_seeds_no_product(monkeypatch, kind, algebra,
                                                 driver):
    """Each table owns one feature with a term and others without (k, z):
    the rows seed their one leaf, and the fused read leaves two tables no
    product to build."""
    db = Database(tables=_star_with_repeats(4).tables[:2])
    ineq = AdditiveInequality(g={"a": identity(), "b": identity()}, threshold=5)
    calls = Counter()
    _spy(monkeypatch, calls, drivers, "ws_convolve")
    for mode in ("exact", "approx"):
        driver(db, {"a": identity()}, ineq, mode=mode)
    assert calls == Counter()


def test_signed_zeros_and_repeats_match_oracle():
    """0.0 and -0.0 are one value to the memo, as they are to the join and
    to the inequality; every query kind still matches the oracle."""
    values = (0.0, -0.0, 0.5, 0.0, -0.0, 1.0, 0.5)
    db = Database(tables=(
        Table("t1", ("k", "a"), tuple((float(i % 2), v)
                                      for i, v in enumerate(values))),
        Table("t2", ("k", "b"), tuple((float(i % 2), v)
                                      for i, v in enumerate(reversed(values)))),
    ))
    ineq = AdditiveInequality(g={"a": identity(), "b": identity()}, threshold=0.5)
    F = {"a": identity(), "b": identity()}
    count = oracle_eval(db, QuerySpec(kind="count", inequalities=(ineq,)))
    assert count_rows(db, ineq) == count
    assert _within(count_rows(db, ineq, epsilon=0.1, mode="approx"), count, 0.1)
    for kind, driver, algebras in (
        ("sumsum", sumsum, ("sum", "min", "max")),
        ("sumprod", sumprod, ("counting", "min-plus", "max-plus")),
    ):
        for algebra in algebras:
            spec = QuerySpec(kind=kind, algebra=algebra, F=F, inequalities=(ineq,))
            exact = oracle_eval(db, spec)
            assert driver(db, algebra, F, ineq) == exact, (kind, algebra)
            base = make_named(algebra) if kind == "sumprod" else None
            got = driver(db, algebra, F, ineq, epsilon=0.1, mode="approx")
            assert _within(got, exact, 0.1, base), (kind, algebra)


@pytest.mark.parametrize("monoid", ["max", "min"])
@pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
def test_max_min_sumsum_answers_zero_as_positive_zero(monoid, first, second):
    """Equal terms of opposite zero sign: `max` and `min` keep the first
    each call sees, and the engine (join-tree order) and the oracle (sorted
    features) see them in different orders; both answer +0.0."""
    db = Database(tables=(Table("t1", ("a",), ((first,),)),
                          Table("t2", ("b",), ((second,),))))
    F = {"a": identity(), "b": identity()}
    spec = QuerySpec(kind="sumsum", algebra=monoid, F=F)
    for got in (sumsum(db, monoid, F), oracle_eval(db, spec)):
        assert math.copysign(1.0, got) == 1.0 and got == 0.0


# A term of -inf or NaN: a sum holding NaN, or -inf beside a +inf term,
# depends on the order of the additions (inf - inf is NaN in one order and
# not in another), so the engine's and the oracle's sums disagree; both
# refuse it. A +inf term only takes its row out, and is kept.

NON_FINITE = {
    "neg-inf": {f"x{i}": scale(1e308) for i in (1, 2, 3)},
    "nan": {"x1": FunctionSpec("affine", (math.inf, -math.inf)),
            "x2": identity(), "x3": identity()},
}


@pytest.mark.parametrize("g", NON_FINITE.values(), ids=NON_FINITE)
@pytest.mark.parametrize("kind, algebra, driver", QUERIES,
                         ids=[kind for kind, _, _ in QUERIES])
def test_non_finite_term_is_refused(kind, algebra, driver, g):
    """On this 2 x 2 x 2 cross product, scale(1e308) makes every term +/-inf:
    the engine used to count 7 rows at L = 0 where the oracle counted 1,
    and 8 where it counted 2 at L = inf. affine(inf, -inf) is NaN at 2.0."""
    db = Database(tables=tuple(
        Table(f"t{i}", (f"x{i}",), ((-2.0,), (2.0,))) for i in (1, 2, 3)
    ))
    F = {"x3": FunctionSpec("constant", (1.0,))}
    for threshold in (0.0, math.inf):
        ineq = AdditiveInequality(g=g, threshold=threshold)
        for mode in ("exact", "approx"):
            with pytest.raises(CapExceeded, match="finite or \\+inf"):
                driver(db, F, ineq, mode=mode)
        spec = QuerySpec(kind=kind, algebra=algebra, F=F, inequalities=(ineq,))
        with pytest.raises(CapExceeded, match="finite or \\+inf"):
            oracle_eval(db, spec)


LABELED = Database(tables=(
    Table("t1", ("k", "x"), ((0.0, -1.0), (0.0, 2.0), (1.0, 0.5), (1.0, 3.0))),
    Table("t2", ("k", "lbl"), ((0.0, -1.0), (0.0, 1.0), (1.0, -1.0),
                               (1.0, -1.0), (1.0, 1.0))),
    Table("t3", ("y",), ((-2.0,), (1.0,))),
))


@pytest.mark.parametrize("kind, algebra, driver", QUERIES,
                         ids=[kind for kind, _, _ in QUERIES])
@pytest.mark.parametrize("threshold", [-1.5, 0.0, 2.5, math.inf])
def test_labeled_halfspace_matches_oracle(kind, algebra, driver, threshold):
    """The labeled halfspace preset gives each row labeled other than -1 a
    +inf term, which takes it out at every finite L; the engine agrees with
    the oracle on every query kind, in both modes."""
    ineq = preset("halfspace_count", {
        "features": ["x", "y", "lbl"], "beta": [1.0, 1.0], "L": threshold,
        "label_feature": "lbl",
    }).inequality
    F = {"y": FunctionSpec("square")}
    spec = QuerySpec(kind=kind, algebra=algebra, F=F, inequalities=(ineq,))
    exact = oracle_eval(LABELED, spec)
    assert driver(LABELED, F, ineq) == exact
    base = make_named(algebra) if kind == "sumprod" else None
    got = driver(LABELED, F, ineq, epsilon=0.1, mode="approx")
    assert _within(got, exact, 0.1, base)
    # 20 join rows, 8 of them labeled 1: those count only at L = inf
    count = oracle_eval(LABELED, QuerySpec(kind="count", inequalities=(ineq,)))
    assert count == {-1.5: 3, 0.0: 5, 2.5: 9, math.inf: 20}[threshold]


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_overflowing_sq_offset_is_inf_in_engine_and_oracle(mode):
    """Float `**` raises OverflowError where `*` returns inf, so
    sq_offset(y = 1e200) at 0 and at 2e200 used to end in a traceback. It
    now reads +inf, as `square` does: a g term that takes its row out, and
    min-plus's zero as an F term."""
    db = Database(tables=(
        Table("t1", ("x",), ((1e200,), (0.0,), (2e200,))),
        Table("t2", ("z",), ((1.0,), (2.0,))),
    ))
    far = FunctionSpec("sq_offset", (1e200,))
    ineq = AdditiveInequality(g={"x": far, "z": identity()}, threshold=1.5)
    F = {"x": far, "z": identity()}
    for spec, want in (
        (QuerySpec(kind="count", inequalities=(ineq,)), 1),
        (QuerySpec(kind="sumprod", algebra="min-plus", F=F,
                   inequalities=(ineq,)), 1.0),
    ):
        assert oracle_eval(db, spec) == want
        assert run_query(db, replace(spec, mode=mode)) == want
