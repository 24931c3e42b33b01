"""The daemon's persistent execution backend: one warm pool, many jobs.

A cold CLI invocation pays interpreter startup, registry autoload, trace
compilation, and simulation on every run.  The daemon pays them once:
this module owns the state that stays warm across requests —

* one shared content-addressed **result store**
  (:class:`repro.store.ResultStore` under ``<cache-dir>/store/``, or
  memory-only without a cache dir) that every per-job
  :class:`SweepPool` consults before simulating and publishes into
  after.  Its in-process memo holds every point any request computed,
  so a repeated or duplicate request is served from it; its disk tier
  survives restarts and merges with stores from other hosts
  (``shard-merge``);
* the process-global **compiled-trace memo**
  (:mod:`repro.workloads.tracecache`), warmed by in-process (``jobs=1``)
  runs and re-used by every later replay;
* the **registries**, autoloaded once at daemon startup instead of once
  per CLI invocation.

Each job gets its *own* pool object (its own ``last_run_info``); only
the store is shared.  The daemon runs one job at a time on one worker
thread, so jobs never interleave.
"""

from __future__ import annotations

import os

from repro.experiments.pool import SweepPool
from repro.registry.service import resolve_request_kind
from repro.service.models import JobRecord
from repro.store import ResultStore
from repro.store import store_dir as result_store_dir
from repro.workloads.tracecache import STATS as TRACE_STATS


class ServiceBackend:
    """Runs admitted jobs through per-job pools over one shared store."""

    def __init__(
        self,
        cache_dir: str | os.PathLike | None,
        worker_budget: int | None = None,
        store_dir: str | os.PathLike | None = None,
    ):
        self.worker_budget = worker_budget or (os.cpu_count() or 1)
        if store_dir is None and cache_dir is not None:
            store_dir = result_store_dir(cache_dir)
        #: One content-addressed result store for the whole daemon; every
        #: per-job pool consults it before simulating and publishes into
        #: it, so results are shared across jobs, survive restarts (when
        #: on disk) and merge across a fleet.
        self.result_store = ResultStore(store_dir)
        #: Cumulative SweepPool accounting across all finished jobs.
        self.pool_totals: dict[str, int] = {
            "computed": 0, "store_hits": 0, "failed": 0,
        }

    def warm_registries(self) -> None:
        """Autoload every registry once, before the first request."""
        from repro.registry import (
            backend_names,
            component_names,
            predictor_names,
            prefetcher_names,
            request_kind_names,
            workload_names,
        )

        workload_names()
        component_names()
        predictor_names()
        prefetcher_names()
        backend_names()
        request_kind_names()

    def run_job(self, job: JobRecord) -> tuple[str, dict]:
        """Execute one job (called from a worker thread); returns
        ``(result text, meta)`` from the kind's handler."""
        handler = resolve_request_kind(job.kind)
        request = handler.request_cls.from_wire(job.request)
        pool = SweepPool(
            jobs=min(request.jobs, self.worker_budget), store=self.result_store
        )
        text, meta = handler.run(request, pool)
        info = pool.last_run_info or {}
        for key in self.pool_totals:
            self.pool_totals[key] += info.get(key, 0)
        return text, meta

    def cache_stats(self) -> dict:
        """Warm-cache effectiveness for the ``/stats`` endpoint."""
        trace = dict(TRACE_STATS)
        trace_lookups = (
            trace["memo_hits"] + trace["disk_hits"] + trace["compiles"]
        )
        pool = dict(self.pool_totals)
        pool_lookups = pool["computed"] + pool["store_hits"]
        store = dict(self.result_store.counters)
        store_warm = store["hits"] + store["memo_hits"]
        store_lookups = store_warm + store["misses"]
        return {
            "pool": pool,
            "pool_warm_rate": (
                pool["store_hits"] / pool_lookups if pool_lookups else 0.0
            ),
            "store": store,
            "store_hit_rate": (
                store_warm / store_lookups if store_lookups else 0.0
            ),
            "store_entries": len(self.result_store),
            "trace": trace,
            "trace_hit_rate": (
                (trace["memo_hits"] + trace["disk_hits"]) / trace_lookups
                if trace_lookups else 0.0
            ),
        }
