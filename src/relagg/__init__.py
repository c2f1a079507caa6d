"""Aggregate queries under one additive inequality over acyclic joins.

Evaluates row-count, SumSum, and SumProd aggregates restricted by a single
additive inequality, exactly or with (1 + eps) relative-error guarantees,
without ever materializing the join. A brute-force oracle provides ground
truth for verification.
"""

from .algebra import Monoid, Semiring, make_named
from .bruteforce import (
    gen_knapsack,
    gen_partition,
    materialize,
    oracle_eval,
)
from .drivers import count_rows, run_query, sumprod, sumsum
from .engine import Instrumentation
from .errors import (
    CapExceeded,
    CyclicJoinError,
    QueryRejected,
    RelaggError,
    TableError,
)
from .jointree import (
    HypertreeDecomposition,
    build_decomposition,
    verify_decomposition,
)
from .multiset import ms_union
from .queryspec import (
    AdditiveInequality,
    FunctionSpec,
    QuerySpec,
    preset,
    spec_from_json,
)
from .sketch import alpha_for, ms_sketch, ws_sketch
from .tables import Database, Table, active_domain, load_table
from .weightedset import (
    Multiset,
    WeightedSet,
    ws_convolve,
    ws_plus,
    ws_triangle,
)

__version__ = "0.1.0"
