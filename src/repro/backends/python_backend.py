"""The reference execution backend: the per-instruction stage loop.

This is the engine every other backend is measured against: each dynamic
instruction walks through the four stage objects via
``SuperscalarCore._process`` (so instrumented core subclasses keep their
hooks), and the pruning cadence bounds memory.  It accepts every run —
cold compiles, functional execution, PFM fabric, faults, watchdogs,
oracles, telemetry.

Only functional execution observes each retired instruction into the
``arch_digest``.  A replay's digest depends on the trace and the number
of instructions replayed alone, so after the run it is served from the
trace's stored direction column or computed once from the trace rows
and stored there (:func:`~repro.workloads.columns.replay_digest`).

A run that replays a compiled trace reads the core predictor's
directions from the trace's stored column (the same column the numpy
backend reads) through a :class:`~repro.frontend.predictor.
ReplayPredictor`, so the predictor itself never runs.  The core's own
predictor always runs and trains whether or not the Fetch Agent
overrides it (§2.2), so the column serves PFM, fault, tenant, watchdog,
oracle, perfect-BP and telemetry runs alike.  A run reads (and, on a
cold trace, builds) the column over its own window only.  Functional
execution, a core whose predictor was swapped after construction, and a
predictor defined outside the package (whose edits the column's source
fingerprint cannot see) run it live.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.backends.base import ExecutionBackend
from repro.core.archstate import ArchDigest
from repro.frontend.predictor import ReplayPredictor
from repro.workloads.columns import directions, replay_digest, stores_directions

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
        replay = None
        digest = None
        if trace is not None:
            source = trace.cursor(workload.memory, workload.initial_regs)
            predictor = core.params.predictor
            if core.predictor_is_built() and stores_directions(predictor):
                replay = ReplayPredictor(directions(trace, predictor, limit))
                core.predictor = replay
                core.fetch_stage.predictor = replay
                core.retire_stage.predictor = replay
        else:
            source = workload.executor()
            digest = ArchDigest()
        process = core._process
        stats = core.stats
        prune = core._prune
        stream = source.run(limit)
        if digest is not None:
            stream = digest.tap(stream)
        for dyn in stream:
            process(dyn)
            if stats.instructions % _PRUNE_INTERVAL == 0:
                prune()
        core._finalize()
        if replay is not None and replay.consumed != stats.conditional_branches:
            raise RuntimeError(
                f"direction column served {replay.consumed} bits for"
                f" {stats.conditional_branches} conditional branches"
            )
        if digest is not None:
            stats.arch_digest = digest.finalize(source.regs, source.memory)
        else:
            stats.arch_digest = replay_digest(
                trace, core.params.predictor if replay is not None else None,
                stats.instructions, source.regs, source.memory,
            )
        return stats
