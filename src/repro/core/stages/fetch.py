"""Fetch stage: front-end cursor, branch prediction, and the Fetch Agent.

Owns the front-end predictors (direction predictor, BTB, RAS) and the
fetch bandwidth/redirect bookkeeping on the shared context.  On PFM runs
the stage calls the fabric's Fetch Agent side directly (``ctx.fabric``,
§2.2): every fetch PC is snooped, and on an FST hit the component's
custom prediction overrides the core predictor's output — the core
predictor still always runs and trains.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.core.stages.context import PipelineContext
from repro.frontend.btb import BranchTargetBuffer, ReturnAddressStack
from repro.memory.cache import LINE_SHIFT

if TYPE_CHECKING:
    from repro.frontend.predictor import BranchPredictor
    from repro.pfm.tenancy import SlotHit
    from repro.workloads.trace import DynInst


class FetchStage:
    """Front end of the pipeline: fetch timing plus control prediction."""

    #: Fetch bubble on a taken-control BTB miss (target found in decode).
    _BTB_MISS_BUBBLE = 2

    __slots__ = (
        "ctx", "predictor", "btb", "ras",
        "_fetch_width", "_fq", "_fq_cap", "_inst_access", "_fabric_pcs",
        "_fst_lookup",
    )

    def __init__(self, ctx: PipelineContext, predictor: "BranchPredictor") -> None:
        self.ctx = ctx
        self.predictor = predictor
        self.btb = BranchTargetBuffer()
        self.ras = ReturnAddressStack()
        # Hot-path hoists: these are per-run constants (the params and
        # resource objects never rebind on the context), so the
        # per-instruction loop pays one slot load instead of an
        # attribute chain for each.
        self._fetch_width: int = ctx.params.fetch_width
        self._fq: deque[int] = ctx.fetchq.releases
        self._fq_cap: int = ctx.fetchq.capacity
        self._inst_access: Callable[[int, int], int] = ctx.hierarchy.inst_access
        # The fabric is built before the stages: bind the fetch PCs it
        # acts on (none on baseline runs) and its FST lookup (unset on
        # baseline runs, which never read it).
        fabric = ctx.fabric
        self._fabric_pcs: frozenset[int] = frozenset()
        if fabric is not None:
            self._fabric_pcs = fabric.fetch_pcs
            self._fst_lookup: Callable[[int], "SlotHit | None"] = (
                fabric.fst.lookup
            )

    def fetch(self, dyn: "DynInst") -> int:
        ctx = self.ctx
        cycle = ctx.fetch_cycle
        used = ctx.fetch_used

        if ctx.redirect_floor > cycle:
            cycle = ctx.redirect_floor
            used = 0
        if used >= self._fetch_width:
            cycle += 1
            used = 0

        fq = self._fq
        if len(fq) == self._fq_cap and fq[0] > cycle:
            # Fetch queue full: wait for its oldest entry to dispatch.
            cycle = fq[0]
            used = 0

        pc = dyn.pc
        line = pc >> LINE_SHIFT
        if line != ctx.last_iline:
            ready = self._inst_access(pc, cycle)
            if ready > cycle:
                ctx.stats.fetch_stall_icache_cycles += ready - cycle
                cycle = ready
                used = 0
            ctx.last_iline = line

        ctx.fetch_cycle = cycle
        ctx.fetch_used = used + 1

        if pc in self._fabric_pcs:
            fabric = ctx.fabric
            assert fabric is not None
            fabric.on_fetch(pc)
        return cycle

    def predict_branch(
        self, dyn: "DynInst", fetch_time: int, roi_fetch: bool
    ) -> tuple[bool, int]:
        """Return (predicted_direction, possibly-stalled fetch time)."""
        ctx = self.ctx
        stats = ctx.stats
        stats.conditional_branches += 1

        # The core's own predictor always runs (and always trains); the
        # Fetch Agent merely overrides its output on FST hits (§2.2).
        tage_prediction = self.predictor.predict(dyn.pc)

        predicted = tage_prediction
        config = ctx.config
        if config.perfect_branch_prediction:
            predicted = bool(dyn.taken)
        elif config.oracle is not None:
            oracle_prediction = config.oracle.predict(dyn)
            if oracle_prediction is not None:
                predicted = oracle_prediction

        fabric = ctx.fabric
        if fabric is not None and roi_fetch:
            hit = self._fst_lookup(dyn.pc)
            if hit is not None:
                stats.fetched_fst_hits += 1
                if ctx.telemetry is not None:
                    ctx.telemetry.agent(fetch_time, "fetch", "fst_hit")
                result = fabric.predict_hit(hit, fetch_time)
                if result is not None:
                    taken, effective = result
                    if effective > fetch_time:
                        # IntQ-F empty: the Fetch Agent stalls fetch (§2.2).
                        ctx.fetch_cycle = effective
                        ctx.fetch_used = 1
                        fetch_time = effective
                    predicted = taken
                    stats.pfm_predicted_branches += 1
                    if predicted != dyn.taken:
                        stats.pfm_mispredicts += 1
                    # Grade the consumed override for the watchdog's
                    # accuracy breaker (no-op unless its threshold is set).
                    fabric.record_override(hit, predicted == bool(dyn.taken))
                else:
                    # Watchdog/quiescence/degradation fallback to the
                    # core's predictor; the fabric settled the alignment
                    # (drop-or-debt) before returning None (§2.4).
                    stats.pfm_fallback_predictions += 1
        return predicted, fetch_time

    def btb_redirect(self, dyn: "DynInst", fetch_time: int) -> None:
        """Taken control flow needs its target from the BTB; a miss costs
        a fetch bubble while the front end computes the target."""
        ctx = self.ctx
        predicted_target = self.btb.predict(dyn.pc)
        if predicted_target != dyn.next_pc:
            ctx.stats.btb_miss_bubbles += 1
            bubble = fetch_time + self._BTB_MISS_BUBBLE
            if bubble > ctx.redirect_floor:
                ctx.redirect_floor = bubble
            self.btb.update(dyn.pc, dyn.next_pc)

    def predict_jump_target(self, dyn: "DynInst", fetch_time: int) -> bool:
        """Jump target prediction; returns True on a (RAS) mispredict."""
        if dyn.mnemonic == "jal" and dyn.dst is not None:
            self.ras.push(dyn.pc + 4)
            self.btb_redirect(dyn, fetch_time)
            return False
        if dyn.mnemonic == "jalr":
            predicted = self.ras.pop()
            if predicted != dyn.next_pc:
                self.ctx.stats.ras_mispredicts += 1
                return True  # resolved at execute like a branch mispredict
            return False
        self.btb_redirect(dyn, fetch_time)  # plain j
        return False
