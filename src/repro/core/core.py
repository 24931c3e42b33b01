"""The superscalar core cycle engine.

See the package docstring for the modelling approach.  The public entry
point is :func:`simulate`, which builds a core over a workload and returns
its :class:`~repro.core.stats.SimStats`.

The engine itself lives in :mod:`repro.core.stages`: four stage objects
(fetch, dispatch, execute, retire) over a shared
:class:`~repro.core.stages.context.PipelineContext`.
:class:`SuperscalarCore` is the driver that walks each dynamic
instruction through the stages in program order and finalizes the
statistics.  On PFM runs it builds the
:class:`~repro.pfm.fabric.PFMFabric` into ``PipelineContext.fabric``,
where the stages call it directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.params import SimConfig
from repro.core.stages.context import PipelineContext
from repro.core.stages.dispatch import DispatchStage
from repro.core.stages.execute import ExecuteStage
from repro.core.stages.fetch import FetchStage
from repro.core.stages.retire import RetireStage
from repro.core.stats import SimStats
from repro.isa.instructions import OpClass
from repro.registry.predictors import make_predictor
from repro.workloads import tracecache
from repro.workloads.trace import DynInst

if TYPE_CHECKING:  # avoid a circular import (workloads.base -> pfm -> core)
    from repro.workloads.base import Workload

_PRUNE_INTERVAL = 8192
_PRUNE_MARGIN = 4096

_BRANCH = OpClass.BRANCH
_JUMP = OpClass.JUMP


class SuperscalarCore:
    """One-pass timing engine over a correct-path dynamic stream."""

    def __init__(self, workload: "Workload", config: SimConfig):
        self.workload = workload
        self.config = config
        p = config.core
        self.params = p

        ctx = PipelineContext(config)
        self.ctx = ctx
        predictor = make_predictor(p.predictor)

        # Imported here: the fabric imports core params, so a module-level
        # import would be circular.  Built before the stages, which bind
        # its snoop lookups once.
        from repro.pfm.fabric import PFMFabric

        self.fabric: PFMFabric | None = None
        if config.pfm is not None and workload.bitstream is not None:
            self.fabric = ctx.fabric = PFMFabric(
                workload.bitstream,
                config.pfm,
                p,
                ctx.lanes,
                ctx.hierarchy,
                workload.memory,
            )

        self.fetch_stage = FetchStage(ctx, predictor)
        self.dispatch_stage = DispatchStage(ctx)
        self.execute_stage = ExecuteStage(ctx)
        self.retire_stage = RetireStage(ctx, predictor)

        # Bound-method fast paths for the per-instruction loop (one
        # attribute hop instead of two on every stage call).
        self._fetch = self.fetch_stage.fetch
        self._predict_branch = self.fetch_stage.predict_branch
        self._btb_redirect = self.fetch_stage.btb_redirect
        self._predict_jump_target = self.fetch_stage.predict_jump_target
        self._dispatch = self.dispatch_stage.dispatch
        self._execute = self.execute_stage.execute
        self._retire = self.retire_stage.retire

        # Aliases kept for the public surface (tests, tools, notebooks).
        self.stats = ctx.stats
        self.hierarchy = ctx.hierarchy
        self.lanes = ctx.lanes
        self.predictor = predictor
        self._built_predictor = predictor
        self.btb = self.fetch_stage.btb
        self.ras = self.fetch_stage.ras

        # Per-run constants of the per-instruction loop.
        self._oracle = config.oracle
        self._fetch_width = p.fetch_width

        self.telemetry = None
        if config.telemetry is not None:
            # Imported here so telemetry-free runs never touch the
            # subsystem (layering mirrors the fault injector above).
            from repro.telemetry.hub import TelemetryHub

            self.telemetry = TelemetryHub(config.telemetry)
            ctx.telemetry = self.telemetry
            if self.fabric is not None:
                self.telemetry.attach_fabric(self.fabric)

    # Read-only views of the cross-stage cursors (instrumented subclasses
    # sample these around ``_process``).
    @property
    def _fetch_cycle(self) -> int:
        return self.ctx.fetch_cycle

    @property
    def _prev_retire(self) -> int:
        return self.ctx.prev_retire

    # ------------------------------------------------------------------ #
    # driver
    # ------------------------------------------------------------------ #

    def run(self, max_instructions: int | None = None) -> SimStats:
        limit = max_instructions or self.config.max_instructions
        trace = tracecache.get_trace(self.workload, limit)
        # CoreParams.backend selects the engine ("auto" picks numpy when
        # it imports).  A non-python backend that cannot replay this run
        # bit-identically (numpy missing, PFM fabric, oracle, telemetry,
        # instrumented subclass, no compiled trace) falls back to the
        # reference engine, recorded in the non-field provenance
        # counter ``SimStats.backend_fallbacks``.
        from repro.backends import PythonBackend, resolve_backend

        backend = resolve_backend(self.params.backend)
        stats = self.stats
        if backend.name != "python":
            if backend.eligible(self, trace):
                stats.backend = backend.name
                return backend.run(self, trace, limit)
            stats.backend_fallbacks += 1
            backend = PythonBackend()
        stats.backend = "python"
        return backend.run(self, trace, limit)

    def predictor_is_built(self) -> bool:
        """True while the core and both stages that call the direction
        predictor still hold the one built from ``CoreParams.predictor``.
        Only then may a run serve the trace's stored direction column; a
        predictor swapped in after construction runs live."""
        built = self._built_predictor
        return (
            self.predictor is built
            and self.fetch_stage.predictor is built
            and self.retire_stage.predictor is built
        )

    def _prune(self) -> None:
        ctx = self.ctx
        floor = min(ctx.prev_retire, ctx.fetch_cycle) - _PRUNE_MARGIN
        if floor > 0:
            ctx.lanes.prune(floor)
        self.retire_stage.prune()
        self.execute_stage.prune_stores()

    def _finalize(self) -> None:
        ctx = self.ctx
        start = ctx.first_retire or 0
        self.stats.cycles = max(1, ctx.prev_retire - start)
        self.stats.memory_levels = self.hierarchy.level_stats()
        if self.fabric is not None:
            self.fabric.finalize(self.stats)
        if self.telemetry is not None:
            self.stats.telemetry = self.telemetry.snapshot()

    # ------------------------------------------------------------------ #
    # per-instruction pipeline
    # ------------------------------------------------------------------ #

    def _process(self, dyn: DynInst) -> None:
        ctx = self.ctx
        stats = ctx.stats
        fetch_time = self._fetch(dyn)

        fabric = ctx.fabric
        roi_fetch = fabric is not None and fabric.roi_fetch_active
        if roi_fetch:
            stats.fetched_in_roi += 1

        bundle_break = False
        mispredicted = False
        op = dyn.op_class
        if op is _BRANCH:
            predicted, fetch_time = self._predict_branch(dyn, fetch_time, roi_fetch)
            bundle_break = predicted
            mispredicted = predicted != dyn.taken
            if predicted and dyn.taken:
                self._btb_redirect(dyn, fetch_time)
        elif op is _JUMP:
            self.predictor.on_taken_control(dyn.pc, dyn.next_pc)
            bundle_break = True
            mispredicted = self._predict_jump_target(dyn, fetch_time)

        dispatch_time = self._dispatch(dyn, fetch_time)
        issue_time, complete_time = self._execute(dyn, dispatch_time)

        if mispredicted:
            stats.branch_mispredicts += 1
            ctx.squash_at(complete_time, "branch")
        if bundle_break:
            # A predicted-taken control op ends the fetch bundle.
            ctx.fetch_used = self._fetch_width

        dst = dyn.dst
        if dst is not None and dst != "zero":
            ctx.reg_ready[dst] = complete_time
            stats.prf_writes += 1

        oracle = self._oracle
        if oracle is not None:
            extra = oracle.observe(dyn)
            if extra:
                # e.g. a slipstream leading-thread restart: stall the
                # front end while the leading thread rolls back.
                ctx.redirect_floor = max(
                    ctx.redirect_floor, complete_time + extra
                )

        self._retire(dyn, complete_time)
        stats.instructions += 1

        tel = ctx.telemetry
        if tel is not None:
            tel.stage(
                dyn, fetch_time, dispatch_time, issue_time, complete_time,
                ctx.prev_retire,
            )
            tel.maybe_sample(ctx.prev_retire)


def simulate(workload: "Workload", config: SimConfig) -> SimStats:
    """Run *workload* under *config* and return the statistics."""
    core = SuperscalarCore(workload, config)
    return core.run()
