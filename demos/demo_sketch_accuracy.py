"""Accuracy/size trade-off of the approximate mode.

Counts subsets of 18 random weights under a budget. Exact dynamic
programming carries one multiset entry per distinct subset sum; the sketched
mode keeps every intermediate within the band sketch's logarithmic size
bound, 2 ceil(log(hi/lo) / log1p(alpha)) + 4 entries, with lo and hi the
smallest and largest cumulative counts, while keeping the answer within
the requested relative error eps: alpha = (1+eps)^(1/D) - 1, where D is
the plan's depth, the number of sketches any read composes (2m - 5 on
this chain of m >= 3 tables, whose root's fused child has a child;
alpha = eps when D <= 1). It
compresses only values past that bound, so here, where a few hundred
distinct sums stay far below it, approx mode returns the exact count.
"""

import random

from relagg import Instrumentation, count_rows, gen_knapsack

rng = random.Random(5)
weights = [rng.randint(1, 60) for _ in range(18)]
capacity = sum(weights) // 2
db, ineq = gen_knapsack(weights, capacity)

print(f"weights: {weights}")
print(f"subsets with total <= {capacity}:")

instr = Instrumentation()
exact = count_rows(db, ineq, instr=instr)
print(f"  exact: {exact}  (largest intermediate: {instr.max_value_size} entries)")

for eps in (0.3, 0.1, 0.02):
    instr = Instrumentation()
    got = count_rows(db, ineq, epsilon=eps, mode="approx", instr=instr)
    err = abs(got - exact) / exact
    print(
        f"  eps={eps:<5} -> {got}  "
        f"(relative error {err:.4f}, "
        f"largest intermediate: {instr.max_value_size} entries)"
    )
    assert err <= eps
