"""The reference execution backend: the per-instruction stage loop.

This is the engine every other backend is measured against: each dynamic
instruction walks through the four stage objects via
``SuperscalarCore._process`` (so instrumented core subclasses keep their
hooks), the digest observes every retired instruction, and the pruning
cadence bounds memory.  It accepts every run — cold compiles, functional
execution, PFM fabric, faults, watchdogs, oracles, telemetry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.backends.base import ExecutionBackend
from repro.core.archstate import ArchDigest

if TYPE_CHECKING:
    from repro.core.core import SuperscalarCore
    from repro.core.stats import SimStats
    from repro.workloads.tracecache import CompiledTrace


class PythonBackend(ExecutionBackend):
    """Reference per-instruction engine (always available, always eligible)."""

    name = "python"

    def eligible(
        self, core: "SuperscalarCore", trace: "CompiledTrace | None"
    ) -> bool:
        return True

    def run(
        self,
        core: "SuperscalarCore",
        trace: "CompiledTrace | None",
        limit: int,
    ) -> "SimStats":
        from repro.core.core import _PRUNE_INTERVAL

        workload = core.workload
        # Replay a compiled correct-path stream when one is available;
        # fall back to functional execution otherwise.  The two sources
        # are architecturally indistinguishable (same DynInst stream,
        # same live-memory store timing, same final regs/memory), which
        # the executed-vs-replayed arch_digest tests pin down.
        if trace is not None:
            source = trace.cursor(workload.memory, workload.initial_regs)
        else:
            source = workload.executor()
        digest = ArchDigest()
        observe = digest.observe
        process = core._process
        stats = core.stats
        prune = core._prune
        for dyn in source.run(limit):
            observe(dyn)
            process(dyn)
            if stats.instructions % _PRUNE_INTERVAL == 0:
                prune()
        core._finalize()
        stats.arch_digest = digest.finalize(
            getattr(source, "regs", None), source.memory
        )
        return stats
