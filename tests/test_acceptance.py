"""End-to-end acceptance checks.

Each test exercises one stated guarantee of the package and prints a single
pass/fail line (bypassing capture) so the run log shows every criterion.
"""

import itertools
import json
import random
import sys
import time

import pytest

from relagg import (
    CyclicJoinError,
    FunctionSpec,
    Multiset,
    QuerySpec,
    WeightedSet,
    build_decomposition,
    count_rows,
    gen_knapsack,
    gen_partition,
    make_named,
    materialize,
    ms_sketch,
    oracle_eval,
    sumprod,
    sumsum,
    verify_decomposition,
    ws_sketch,
    ws_triangle,
)
import conftest
from relagg import drivers
from relagg.cli import main as cli_main
from relagg.multiset import ms_union
from relagg.queryspec import identity
from relagg.weightedset import ws_convolve, ws_plus
from conftest import (
    gyo_acyclic,
    knapsack_count_dp,
    random_acyclic_db,
    random_affine_inequality,
    random_schemas,
    schemas_to_db,
)

MIN_PLUS = make_named("min-plus")
MAX_PLUS = make_named("max-plus")


def report(n, name, ok):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {n:2d}] {name}: {status}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stderr__)  # visible live when capture is off (-s)
    assert ok, f"criterion {n} ({name}) failed"


def _random_ms(rng, key_range=20, max_keys=8, max_count=5):
    keys = sorted(rng.sample(range(-key_range, key_range), rng.randint(0, max_keys)))
    return Multiset(tuple((float(k), rng.randint(1, max_count)) for k in keys))


def _random_ws(rng, base, key_range=20, max_keys=8):
    keys = sorted(rng.sample(range(-key_range, key_range), rng.randint(0, max_keys)))
    entries = []
    for k in keys:
        w = float(rng.randint(-9, 9))
        if w != base.zero:
            entries.append((float(k), w))
    return WeightedSet(tuple(entries), base)


def _random_ws_nonneg(rng, base, key_range=20, max_keys=8):
    keys = sorted(rng.sample(range(-key_range, key_range), rng.randint(0, max_keys)))
    entries = []
    for k in keys:
        w = float(rng.randint(0, 9))
        if w != base.zero:
            entries.append((float(k), w))
    return WeightedSet(tuple(entries), base)


def test_criterion_1_semiring_laws():
    """The eight semiring laws hold on 1000 random carrier triples."""
    start = time.perf_counter()
    rng = random.Random(1001)
    ok = True
    for _ in range(1000):
        a, b, c = (_random_ms(rng) for _ in range(3))
        ok = ok and ms_union(a, b) == ms_union(b, a)
        ok = ok and ms_union(ms_union(a, b), c) == ms_union(a, ms_union(b, c))
        ok = ok and ms_union(a, Multiset()) == a
        ok = ok and ws_convolve(a, b) == ws_convolve(b, a)
        ok = ok and ws_convolve(ws_convolve(a, b), c) == ws_convolve(
            a, ws_convolve(b, c)
        )
        ok = ok and ws_convolve(a, Multiset(((0.0, 1),))) == a
        ok = ok and ws_convolve(a, Multiset()) == Multiset()
        ok = ok and ws_convolve(a, ms_union(b, c)) == ms_union(
            ws_convolve(a, b), ws_convolve(a, c)
        )
        if not ok:
            break
    for base in (MIN_PLUS, MAX_PLUS):
        if not ok:
            break
        empty = WeightedSet((), base)
        one = WeightedSet(((0.0, 0.0),), base)
        for _ in range(1000):
            a, b, c = (_random_ws(rng, base) for _ in range(3))
            ok = ok and ws_plus(a, b) == ws_plus(b, a)
            ok = ok and ws_plus(ws_plus(a, b), c) == ws_plus(a, ws_plus(b, c))
            ok = ok and ws_plus(a, empty) == a
            ok = ok and ws_convolve(a, b) == ws_convolve(b, a)
            ok = ok and ws_convolve(ws_convolve(a, b), c) == ws_convolve(
                a, ws_convolve(b, c)
            )
            ok = ok and ws_convolve(a, one) == a
            ok = ok and ws_convolve(a, empty) == empty
            ok = ok and ws_convolve(a, ws_plus(b, c)) == ws_plus(
                ws_convolve(a, b), ws_convolve(a, c)
            )
            if not ok:
                break
    elapsed = time.perf_counter() - start
    report(1, "semiring laws on random carriers", ok and elapsed < 10)


def test_criterion_2_multiset_sketch_bound():
    """(1-eps) tri(A,t) <= tri(S,t) <= tri(A,t) on 1000 random multisets."""
    rng = random.Random(1002)
    violations = 0
    for _ in range(1000):
        keys = sorted(rng.sample(range(-200, 200), rng.randint(1, 30)))
        a = Multiset(tuple((float(k), rng.randint(1, 300)) for k in keys))
        for eps in (0.05, 0.1, 0.5, 1.0):
            s = ms_sketch(a, eps)
            for t, _ in a.entries:
                exact = ws_triangle(a, t)
                got = ws_triangle(s, t)
                if not ((1 - eps) * exact - 1e-9 <= got <= exact):
                    violations += 1
    report(2, "multiset sketch cumulative-count bound", violations == 0)


def test_criterion_3_weighted_sketch_bound():
    """tri(A,e)/(1+eps) <= tri(S,e) <= (1+eps) tri(A,e) on 1000 instances."""
    rng = random.Random(1003)
    violations = 0
    for _ in range(1000):
        base = rng.choice((MIN_PLUS, MAX_PLUS))
        a = _random_ws(rng, base, key_range=100, max_keys=25)
        for eps in (0.1, 0.5, 1.0):
            s = ws_sketch(a, eps)
            for e, _ in a.entries:
                exact = ws_triangle(a, e)
                got = ws_triangle(s, e)
                if exact == base.zero:
                    if got != exact:
                        violations += 1
                    continue
                lo, hi = sorted((exact / (1 + eps), exact * (1 + eps)))
                if exact < 0:
                    lo, hi = exact * (1 + eps), exact / (1 + eps)
                if not (lo - 1e-9 <= got <= hi + 1e-9):
                    violations += 1
    report(3, "weighted-set sketch cumulative-aggregate bound", violations == 0)


def test_criterion_4_sketch_error_composes():
    """Operating on sketched inputs and re-sketching keeps the stated
    multiplicative envelopes (500 random pairs per operator)."""
    rng = random.Random(1004)
    beta, gamma, alpha = 0.2, 0.1, 0.05
    ok = True
    for _ in range(500):
        a, b = _random_ms(rng, max_count=20), _random_ms(rng, max_count=20)
        sa, sb = ms_sketch(a, beta), ms_sketch(b, gamma)
        for op in (ms_union, ws_convolve):
            exact = op(a, b)
            got = ms_sketch(op(sa, sb), alpha)
            lo_factor = (1 - beta - gamma) * (1 - alpha)
            for t, _ in exact.entries:
                ref = ws_triangle(exact, t)
                val = ws_triangle(got, t)
                if not (lo_factor * ref - 1e-9 <= val <= ref + 1e-9):
                    ok = False
    for _ in range(500):
        # nonnegative weights only: that is the carrier the engine admits,
        # and multiplicative error does not survive sign cancellation
        base = rng.choice((MIN_PLUS, MAX_PLUS))
        a, b = _random_ws_nonneg(rng, base), _random_ws_nonneg(rng, base)
        sa, sb = ws_sketch(a, beta), ws_sketch(b, gamma)
        hi_factor = (1 + beta) * (1 + gamma) * (1 + alpha)
        for op in (ws_plus, ws_convolve):
            exact = op(a, b)
            got = ws_sketch(op(sa, sb), alpha)
            for e, _ in exact.entries:
                ref = ws_triangle(exact, e)
                val = ws_triangle(got, e)
                if ref == base.zero:
                    continue
                lo, hi = sorted((ref / hi_factor, ref * hi_factor))
                if ref < 0:
                    lo, hi = ref * hi_factor, ref / hi_factor
                if not (lo - 1e-9 <= val <= hi + 1e-9):
                    ok = False
    report(4, "sketch error composes across operations", ok)


def _corpus():
    """200 small random acyclic databases with one random inequality each;
    criteria 5 and 6 run over the same corpus."""
    rng = random.Random(1005)
    out = []
    for _ in range(200):
        db = random_acyclic_db(rng)
        out.append((db, random_affine_inequality(rng, db), rng.randrange(2**30)))
    return out


def test_criterion_5_exact_matches_oracle():
    """Exact engine answers equal brute-force answers on 200 random
    acyclic databases across all query kinds."""
    ok = True
    for db, ineq, seed in _corpus():
        rng = random.Random(seed)
        feats = sorted(db.feature_tables)
        spec = QuerySpec(kind="count", inequalities=(ineq,))
        if count_rows(db, ineq) != oracle_eval(db, spec):
            ok = False
        F = {f: identity() for f in rng.sample(feats, rng.randint(1, len(feats)))}
        for name in ("sum", "min", "max"):
            spec = QuerySpec(kind="sumsum", algebra=name, F=F, inequalities=(ineq,))
            if sumsum(db, name, F, ineq) != oracle_eval(db, spec):
                ok = False
        Fp = {f: FunctionSpec("abs_offset", (0.0,)) for f in feats}
        for name in ("min-plus", "max-plus"):
            spec = QuerySpec(kind="sumprod", algebra=name, F=Fp, inequalities=(ineq,))
            if sumprod(db, name, Fp, ineq) != oracle_eval(db, spec):
                ok = False
        if not ok:
            break
    report(5, "exact engine equals brute-force oracle", ok)


def test_criterion_6_approx_within_epsilon():
    """Approximate answers are within the requested relative error of the
    brute-force oracle on the same 200-database corpus."""
    start = time.perf_counter()
    ok = True
    for db, ineq, seed in _corpus():
        feats = sorted(db.feature_tables)
        Fp = {f: FunctionSpec("abs_offset", (0.0,)) for f in feats}
        count_ref = oracle_eval(db, QuerySpec(kind="count", inequalities=(ineq,)))
        sumsum_ref = oracle_eval(db, QuerySpec(
            kind="sumsum", algebra="sum", F=Fp, inequalities=(ineq,)
        ))
        for eps in (0.1, 0.3):
            got = count_rows(db, ineq, epsilon=eps, mode="approx")
            if not ((1 - eps) * count_ref - 1e-9 <= got
                    <= (1 + eps) * count_ref + 1e-9):
                ok = False
            got = sumsum(db, "sum", Fp, ineq, epsilon=eps, mode="approx")
            if not ((1 - eps) * sumsum_ref - 1e-9 <= got
                    <= (1 + eps) * sumsum_ref + 1e-9):
                ok = False
            for name in ("min-plus", "max-plus"):
                exact = oracle_eval(db, QuerySpec(
                    kind="sumprod", algebra=name, F=Fp, inequalities=(ineq,)
                ))
                got = sumprod(db, name, Fp, ineq, epsilon=eps, mode="approx")
                base = make_named(name)
                if exact == base.zero:
                    if got != exact:
                        ok = False
                    continue
                lo, hi = sorted((exact / (1 + eps), exact * (1 + eps)))
                if not (lo - 1e-9 <= got <= hi + 1e-9):
                    ok = False
    elapsed = time.perf_counter() - start
    report(6, "approximate answers within epsilon", ok and elapsed < 60)


def test_criterion_7_knapsack_20_weights():
    """A 20-item subset-counting instance runs in seconds and matches the
    pseudo-polynomial DP, exactly and approximately."""
    rng = random.Random(1007)
    weights = [rng.randint(1, 100) for _ in range(20)]
    capacity = sum(weights) // 2
    expected = knapsack_count_dp(weights, capacity)
    db, ineq = gen_knapsack(weights, capacity)
    start = time.perf_counter()
    exact = count_rows(db, ineq)
    approx = count_rows(db, ineq, epsilon=0.1, mode="approx")
    elapsed = time.perf_counter() - start
    ok = (
        exact == expected
        and 0.9 * expected - 1e-9 <= approx <= 1.1 * expected + 1e-9
        and elapsed < 5
    )
    report(7, "20-item subset counting vs DP oracle", ok)


def _chain_db(n, rng):
    from relagg import Database, Table

    # near-unique join keys: the join has ~n rows at every size
    rows_ab = tuple((float(i), float(i)) for i in range(n))
    rows_bc = tuple((float(i), float(rng.randint(0, 10**6))) for i in range(n))
    t1 = Table("t1", ("a", "b"), rows_ab)
    t2 = Table("t2", ("b", "c"), rows_bc)
    t3 = Table("t3", ("c", "d"), tuple(
        (c, float(rng.randint(0, 10**6))) for _, c in rows_bc
    ))
    return Database(tables=(t1, t2, t3))


def test_criterion_8_near_linear_scaling(monkeypatch):
    """Doubling the input size scales the work of approximate counting by
    well under the quadratic factor (ratio < 3). Work is the summed size of
    every product, union and sketch result, so machine load cannot move it."""
    work = [0]

    def measured(fn):
        def wrapper(*args):
            out = fn(*args)
            work[0] += len(out)
            return out
        return wrapper

    for name in ("ws_convolve", "ms_union", "ms_sketch"):
        monkeypatch.setattr(drivers, name, measured(getattr(drivers, name)))
    rng = random.Random(1008)
    works = {}
    for n in (1000, 2000):
        db = _chain_db(n, rng)
        ineq = random_affine_inequality(rng, db)
        work[0] = 0
        count_rows(db, ineq, epsilon=0.5, mode="approx")
        works[n] = work[0]
    ratio = works[2000] / works[1000]
    report(8, f"doubling input scales work by {ratio:.2f}x (< 3)", ratio < 3)


def test_criterion_9_hardness_fixtures(tmp_path, capsys):
    """Two inequalities are refused with an NP-hardness reason while the
    oracle still answers; the subset-counting reduction round-trips."""
    db, ineqs = gen_partition([1, 2, 3])
    spec = QuerySpec(kind="count", inequalities=ineqs)
    ok = oracle_eval(db, spec) == 2

    out = tmp_path / "inst"
    cli_main(["gen", "partition", "--weights", "1,2,3", "--out", str(out)])
    q = str(out / "query.json")
    capsys.readouterr()
    code = cli_main(["count", "--tables", str(out), "--query", q])
    ok = ok and code == 2 and "NP-hard" in capsys.readouterr().err
    code = cli_main(["oracle", "--tables", str(out), "--query", q])
    ok = ok and code == 0

    kn = tmp_path / "kn"
    cli_main(["gen", "knapsack", "--weights", "3,1,4,1,5", "--capacity", "7",
              "--out", str(kn)])
    qk = str(kn / "query.json")
    ok = ok and cli_main(["count", "--tables", str(kn), "--query", qk]) == 0
    db_k, ineq_k = gen_knapsack([3, 1, 4, 1, 5], 7)
    ok = ok and count_rows(db_k, ineq_k) == knapsack_count_dp([3, 1, 4, 1, 5], 7)
    report(9, "hardness fixtures: refusal, oracle, reduction", ok)


def test_criterion_10_acyclicity_detection():
    """Cyclic joins are refused, accepted joins verify, and the verdict
    agrees with an independent reduction on 1000 random schemas."""
    ok = True
    try:
        build_decomposition(schemas_to_db([("a", "b"), ("b", "c"), ("a", "c")]))
        ok = False
    except CyclicJoinError:
        pass
    rng = random.Random(1010)
    for _ in range(1000):
        schemas = random_schemas(rng)
        db = schemas_to_db(schemas)
        try:
            decomp = build_decomposition(db)
            accepted = True
        except CyclicJoinError:
            accepted = False
        if accepted != gyo_acyclic(schemas):
            ok = False
        if accepted and not verify_decomposition(db, decomp):
            ok = False
    report(10, "acyclicity detection agrees with independent oracle", ok)
