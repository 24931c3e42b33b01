"""Span tracing from outside the simulator, for the benchmark's traced run.

The traced run installs wrappers on the public functions and methods of
each ``repro.*`` layer (:data:`SPAN_SITES`), runs one op per phase, and
removes every wrapper again.  Each wrapped call records a span — name,
start, end, parent span and op id — in a :class:`SpanLog` held in
memory; :func:`layer_metrics` turns the log into per-layer self times
and counts, and :meth:`SpanLog.write` dumps it when the run ends.

A span's self time is its duration minus the durations of its child
spans.  Calls are single-threaded and strictly nested, so child spans
never overlap, and the self times of all spans under an op's root span
plus the root's own self time (the residual: time in no wrapped call)
add up to the op's wall time.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

#: Attribute that marks an installed wrapper (and holds the wrapped
#: callable), so a leftover wrapper can be found after uninstall.
MARK = "__perfbench_wrapped__"

#: Name of the span the benchmark opens around each traced op.
ROOT = "bench.op"


class SpanLog:
    """Spans kept in memory as parallel arrays, one entry per call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        #: Counts recorded at span boundaries by result hooks.
        self.counts: dict[str, int] = defaultdict(int)

    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self.names.append(name)
            self._name_ids[name] = nid
        return nid

    def open(self, nid: int, clock: Callable[[], int] = time.perf_counter_ns) -> int:
        idx = len(self.start)
        stack = self.stack
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.op_id)
        self.end.append(-1)
        self.start.append(clock())
        stack.append(idx)
        return idx

    def close(self, idx: int, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.end[idx] = clock()
        self.stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> list[int]:
        """Per-span self time in ns: duration minus child durations."""
        start, end, parent = self.start, self.end, self.parent
        own = [end[i] - start[i] for i in range(len(start))]
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                own[p] -= end[i] - start[i]
        return own

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """(self seconds, call count) per span name, over every span."""
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        names, name_id = self.names, self.name_id
        for i, ns in enumerate(self.self_times()):
            name = names[name_id[i]]
            seconds[name] += ns / 1e9
            calls[name] += 1
        return seconds, calls

    def write(self, path: Path) -> None:
        """One tab-separated line per span: op, span, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with path.open("w") as out:
            out.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                out.write(
                    f"{self.op[i]}\t{i}\t{self.parent[i]}\t"
                    f"{names[self.name_id[i]]}\t{self.start[i]}\t{self.end[i]}\n"
                )


def _wrap_call(fn: Callable, log: SpanLog, nid: int, hook: Any) -> Callable:
    """Wrap *fn* in a span; *hook(log, result, token)* then records counts,
    with *token* from ``hook.before()`` taken before the call, if defined."""
    clock = time.perf_counter_ns
    open_span, close_span = log.open, log.close

    if hook is None:
        def wrapper(*args, **kwargs):
            idx = open_span(nid, clock)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(idx, clock)
    else:
        before = getattr(hook, "before", lambda: None)

        def wrapper(*args, **kwargs):
            token = before()
            idx = open_span(nid, clock)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx, clock)
            hook(log, result, token)
            return result

    functools.update_wrapper(wrapper, fn)
    setattr(wrapper, MARK, fn)
    return wrapper


def _wrap_generator(fn: Callable, log: SpanLog, nid: int) -> Callable:
    """Wrap a generator function: one span per resumption of its body."""
    clock = time.perf_counter_ns
    open_span, close_span = log.open, log.close

    def traced(gen):
        step = gen.__next__
        try:
            while True:
                idx = open_span(nid, clock)
                try:
                    item = step()
                except StopIteration:
                    return
                finally:
                    close_span(idx, clock)
                yield item
        finally:
            gen.close()

    def wrapper(*args, **kwargs):
        return traced(fn(*args, **kwargs))

    functools.update_wrapper(wrapper, fn)
    setattr(wrapper, MARK, fn)
    return wrapper


# --------------------------------------------------------------------- #
# where spans are recorded
# --------------------------------------------------------------------- #


def _count_hit(key: str) -> Callable[[SpanLog, Any, Any], None]:
    def hook(log: SpanLog, result: Any, token: Any) -> None:
        if result is not None:
            log.counts[key] += 1
    return hook


def _count_fallbacks(log: SpanLog, stats: Any, token: Any) -> None:
    log.counts["backends.fallbacks"] += stats.backend_fallbacks


class _TraceTiers:
    """Which trace-cache tier served a ``get_trace`` call: the change in
    ``tracecache.STATS`` across it."""

    TIERS = ("compiles", "memo_hits", "disk_hits")

    def before(self) -> tuple[int, ...]:
        from repro.workloads.tracecache import STATS

        return tuple(STATS[tier] for tier in self.TIERS)

    def __call__(self, log: SpanLog, result: Any, token: tuple[int, ...]) -> None:
        for tier, was, now in zip(self.TIERS, token, self.before()):
            log.counts[f"trace.{tier}"] += now - was


def _configured_predictor() -> type:
    from repro.core import CoreParams
    from repro.registry import make_predictor

    return type(make_predictor(CoreParams().predictor))


#: (owner, attribute, span name, count hook, generator?) per wrapped
#: callable.  An owner is a "module:Class" path, a "module" path, or a
#: zero-argument resolver returning the class.
SPAN_SITES: list[tuple[Any, str, str, Any, bool]] = [
    ("repro.registry", "build_workload", "workloads.build", None, False),
    ("repro.workloads.tracecache", "get_trace", "workloads.trace_compile",
     _TraceTiers(), False),
    ("repro.workloads.tracecache:TraceCursor", "run", "workloads.replay", None, True),
    ("repro.backends.python_backend:PythonBackend", "run", "backends.python",
     _count_fallbacks, False),
    ("repro.backends.numpy_backend:NumpyBackend", "run", "backends.numpy",
     _count_fallbacks, False),
    ("repro.core.core:SuperscalarCore", "__init__", "core.init", None, False),
    ("repro.core.stages.fetch:FetchStage", "fetch", "core.fetch", None, False),
    ("repro.core.stages.fetch:FetchStage", "predict_branch", "core.fetch", None, False),
    ("repro.core.stages.fetch:FetchStage", "btb_redirect", "core.fetch", None, False),
    ("repro.core.stages.fetch:FetchStage", "predict_jump_target", "core.fetch", None, False),
    ("repro.core.stages.dispatch:DispatchStage", "dispatch", "core.dispatch", None, False),
    ("repro.core.stages.execute:ExecuteStage", "execute", "core.execute", None, False),
    ("repro.core.stages.retire:RetireStage", "retire", "core.retire", None, False),
    ("repro.core.archstate:ArchDigest", "observe", "core.digest_observe", None, False),
    ("repro.core.archstate:ArchDigest", "finalize", "core.digest_finalize", None, False),
    (_configured_predictor, "predict", "frontend.predict", None, False),
    (_configured_predictor, "update", "frontend.update", None, False),
    (_configured_predictor, "on_taken_control", "frontend.update", None, False),
    ("repro.memory.hierarchy:MemoryHierarchy", "data_access", "memory.data_access", None, False),
    ("repro.memory.hierarchy:MemoryHierarchy", "inst_access", "memory.inst_access", None, False),
    ("repro.memory.hierarchy:MemoryHierarchy", "prefetch_into_l1d", "memory.prefetch", None, False),
    ("repro.memory.hierarchy:MemoryHierarchy", "prefetch_into_l2", "memory.prefetch", None, False),
    ("repro.pfm.tenancy:FabricSlot", "predict_entry", "pfm.predict_entry", None, False),
    ("repro.pfm.tenancy:FabricSlot", "on_retire_entry", "pfm.on_retire_entry", None, False),
    ("repro.pfm.tenancy:FabricSlot", "advance_to", "pfm.advance", None, False),
    ("repro.pfm.load_agent:LoadAgent", "tick", "pfm.load_agent", None, False),
    ("repro.pfm.tenancy:PartitionedFST", "lookup", "pfm.snoop_lookup",
     _count_hit("pfm.snoop_hits"), False),
    ("repro.pfm.tenancy:PartitionedRST", "lookup", "pfm.snoop_lookup",
     _count_hit("pfm.snoop_hits"), False),
    ("repro.pfm.queues:TimedQueue", "push", "pfm.queue", None, False),
    ("repro.pfm.queues:TimedQueue", "pop", "pfm.queue", None, False),
    ("repro.store.resultstore:ResultStore", "get", "store.get", _count_hit("store.hits"), False),
    ("repro.store.resultstore:ResultStore", "put", "store.put", None, False),
    ("repro.experiments.pool:SweepPool", "run", "experiments.pool", None, False),
    ("repro.experiments.pool:SweepPoint", "store_key", "experiments.store_key", None, False),
    ("repro.experiments.pool", "run_point", "experiments.run_point", None, False),
]


def _resolve_owner(owner: Any) -> Any:
    if callable(owner):
        return owner()
    module_name, _, attr = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, attr) if attr else module


class Tracer:
    """Installs the span wrappers, and removes them, on one :class:`SpanLog`."""

    def __init__(self, sites=SPAN_SITES) -> None:
        self.sites = sites
        self.log = SpanLog()
        self._undo: list[tuple[Any, str, bool, Any]] = []
        self._owners: list[Any] = []

    def install(self) -> None:
        """Wrap every site.  Call before the core is built: stages and
        fabric hooks bind methods at construction."""
        if self._undo:
            raise RuntimeError("span wrappers already installed")
        try:
            for owner_ref, attr, name, hook, is_gen in self.sites:
                owner = _resolve_owner(owner_ref)
                had_own = attr in vars(owner)
                original = vars(owner).get(attr)
                fn = getattr(owner, attr)
                nid = self.log.intern(name)
                wrapper = (_wrap_generator(fn, self.log, nid) if is_gen
                           else _wrap_call(fn, self.log, nid, hook))
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, had_own, original))
                if owner not in self._owners:
                    self._owners.append(owner)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every wrapped attribute, last wrapped first."""
        while self._undo:
            owner, attr, had_own, original = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def leftovers(self) -> list[str]:
        """Names of wrappers still present on any owner ever wrapped."""
        found = []
        for owner in self._owners:
            for attr, value in vars(owner).items():
                if hasattr(value, MARK):
                    found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return found

    def op(self, op_id: int) -> "_OpSpan":
        """Context manager: the root span of one traced op."""
        return _OpSpan(self.log, op_id)


class _OpSpan:
    def __init__(self, log: SpanLog, op_id: int) -> None:
        self.log = log
        self.op_id = op_id
        self.idx = -1

    def __enter__(self) -> "_OpSpan":
        if self.log.stack:
            raise RuntimeError("an op span must be outermost")
        self.log.op_id = self.op_id
        self.idx = self.log.open(self.log.intern(ROOT))
        return self

    def __exit__(self, *exc: Any) -> None:
        self.log.close(self.idx)
        self.log.op_id = -1


# --------------------------------------------------------------------- #
# per-layer metrics
# --------------------------------------------------------------------- #

#: Per-layer metric -> span name whose summed self time it reports.
SELF_TIME_METRICS = {
    "workloads.build_s": "workloads.build",
    "workloads.replay_s": "workloads.replay",
    "workloads.trace_compile_s": "workloads.trace_compile",
    "backends.python.self_s": "backends.python",
    "backends.numpy.run_s": "backends.numpy",
    "core.init_s": "core.init",
    "core.fetch_s": "core.fetch",
    "core.dispatch_s": "core.dispatch",
    "core.execute_s": "core.execute",
    "core.retire_s": "core.retire",
    "core.digest_observe_s": "core.digest_observe",
    "core.digest_finalize_s": "core.digest_finalize",
    "frontend.predict_s": "frontend.predict",
    "frontend.update_s": "frontend.update",
    "memory.data_access_s": "memory.data_access",
    "memory.inst_access_s": "memory.inst_access",
    "memory.prefetch_s": "memory.prefetch",
    "pfm.predict_entry_s": "pfm.predict_entry",
    "pfm.on_retire_entry_s": "pfm.on_retire_entry",
    "pfm.advance_s": "pfm.advance",
    "pfm.load_agent_s": "pfm.load_agent",
    "pfm.snoop_lookup_s": "pfm.snoop_lookup",
    "pfm.queue_s": "pfm.queue",
    "store.get_s": "store.get",
    "store.put_s": "store.put",
    "experiments.pool_self_s": "experiments.pool",
    "experiments.store_key_s": "experiments.store_key",
    "experiments.run_point_s": "experiments.run_point",
}

#: Per-layer metric -> span name whose call count it reports.
CALL_COUNT_METRICS = {
    "memory.data_accesses": ("memory.data_access",),
    "frontend.calls": ("frontend.predict", "frontend.update"),
    "pfm.snoop_lookups": ("pfm.snoop_lookup",),
    "pfm.queue_ops": ("pfm.queue",),
    "store.gets": ("store.get",),
    "store.puts": ("store.put",),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(log: SpanLog) -> dict[str, float]:
    """Every span-derived per-layer metric, from the whole log.

    Counts recorded by hooks outside the spans (trace-cache tiers) are
    read from ``log.counts``; ``trace.overhead_ratio`` needs untraced
    timings and is added by the caller.
    """
    seconds, calls = log.totals()
    metrics: dict[str, float] = {
        metric: seconds.get(span, 0.0) for metric, span in SELF_TIME_METRICS.items()
    }
    for metric, spans in CALL_COUNT_METRICS.items():
        metrics[metric] = sum(calls.get(span, 0) for span in spans)
    counts = log.counts
    metrics["pfm.snoop_hit_ratio"] = _ratio(counts["pfm.snoop_hits"],
                                            metrics["pfm.snoop_lookups"])
    metrics["store.hit_ratio"] = _ratio(counts["store.hits"], metrics["store.gets"])
    metrics["backends.fallbacks"] = counts["backends.fallbacks"]
    for tier in ("compiles", "memo_hits", "disk_hits"):
        metrics[f"workloads.trace_{tier}"] = counts[f"trace.{tier}"]
    metrics["trace.op_wall_s"] = sum(
        (log.end[i] - log.start[i]) / 1e9
        for i in range(len(log)) if log.parent[i] < 0
    )
    metrics["trace.residual_s"] = seconds.get(ROOT, 0.0)
    return metrics
