"""Content-addressed result store: the sharing layer for sweeps.

``ResultStore`` persists every completed sweep point under a digest of
its full configuration (workload content included, backend excluded),
so repeated points — across runs, processes, or hosts — are cache hits
instead of simulations.  ``shard_of``/``parse_shard`` give N
independent invocations a deterministic partition of a sweep grid, and
``ResultStore.merge_from`` unions their stores back into one result set
byte-identical to a single-host run.  See EXPERIMENTS.md "Distributed
sweeps".
"""

from repro.store.gc import clear_section, gc_cache, parse_size
from repro.store.resultstore import (
    DEFAULT_STORE_SUBDIR,
    STORE_VERSION,
    ResultStore,
    parse_shard,
    shard_of,
    store_dir,
)
from repro.workloads.identity import reset_trace_key_memo

__all__ = [
    "DEFAULT_STORE_SUBDIR",
    "STORE_VERSION",
    "ResultStore",
    "clear_section",
    "gc_cache",
    "parse_shard",
    "parse_size",
    "reset_trace_key_memo",
    "shard_of",
    "store_dir",
]
