"""The multiset union under its historical name.

Multisets are the weighted sets over `COUNTS` (`weightedset.Multiset`),
and every kernel over them is a `COUNTS` branch of the weighted-set
kernels. `ms_union` stays only because the benchmark's trace probes
calls to it by this name; `drivers._evaluate` hands it to the engine as
the union of counts.
"""

from .algebra import COUNTS
from .weightedset import ws_empty, ws_plus


def ms_union(*values):
    """`ws_plus` over multisets: frequencies add. With no operand, the
    empty multiset."""
    return ws_plus(*values) if values else ws_empty(COUNTS)
