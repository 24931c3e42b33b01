"""Content-addressed result store: the sharing layer for sweeps.

``ResultStore`` persists every completed sweep point under a digest of
its full configuration (workload content included, backend excluded),
so repeated points — across runs, processes, or hosts — are cache hits
instead of simulations.  Its recipe index lets a fresh process compute
those keys without building a workload.  ``shard_of``/``parse_shard`` give N
independent invocations a deterministic partition of a sweep grid, and
``ResultStore.merge_from`` unions their stores back into one result set
byte-identical to a single-host run.  See EXPERIMENTS.md "Distributed
sweeps".
"""

from repro.store.gc import collect, gc_cache, parse_size
from repro.store.resultstore import (
    DEFAULT_STORE_SUBDIR,
    RECIPES_SUBDIR,
    STORE_VERSION,
    ResultStore,
    parse_shard,
    recipe_key,
    reset_trace_key_memo,
    shard_of,
    store_dir,
    trace_key_for,
)

__all__ = [
    "DEFAULT_STORE_SUBDIR",
    "RECIPES_SUBDIR",
    "STORE_VERSION",
    "ResultStore",
    "collect",
    "gc_cache",
    "parse_shard",
    "parse_size",
    "recipe_key",
    "reset_trace_key_memo",
    "shard_of",
    "store_dir",
    "trace_key_for",
]
