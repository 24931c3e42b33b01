"""Retire stage: in-order commit, store commit, and the Retire Agent.

Owns the retire-slot counters enforcing the retire width and commits
stores to the memory hierarchy.  On PFM runs the stage calls the
fabric's Retire Agent side directly (``ctx.fabric``, §2.1): every
retired PC is snooped against the RST, hits become observation packets,
and the squash/squash-done handshake in
:meth:`PipelineContext.squash_at` stalls the retire unit while the
component rolls back.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.stages.context import PipelineContext
from repro.isa.instructions import OpClass
from repro.memory.cache import LINE_SHIFT
from repro.pfm.snoop import SnoopKind

if TYPE_CHECKING:
    from repro.frontend.predictor import BranchPredictor
    from repro.pfm.tenancy import SlotHit
    from repro.workloads.trace import DynInst

# Enum members bound once: a class attribute lookup on an Enum costs a
# descriptor call on every access.
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_BRANCH = OpClass.BRANCH
_DEST_VALUE = SnoopKind.DEST_VALUE
_STORE_VALUE = SnoopKind.STORE_VALUE
_BRANCH_OUTCOME = SnoopKind.BRANCH_OUTCOME


class RetireStage:
    """In-order retirement bounded by the retire width."""

    __slots__ = (
        "ctx", "predictor", "retire_counts",
        "_retire_width", "_rob_append", "_ldq_append", "_stq_append",
        "_rst_lookup",
    )

    def __init__(self, ctx: PipelineContext, predictor: "BranchPredictor") -> None:
        self.ctx = ctx
        # Retire-time training of the front end's direction predictor
        # (shared with the fetch stage).
        self.predictor = predictor
        self.retire_counts: dict[int, int] = {}
        # Hot-path hoists (per-run constants; see FetchStage).
        self._retire_width: int = ctx.params.retire_width
        self._rob_append: Callable[[int], None] = ctx.rob.releases.append
        self._ldq_append: Callable[[int], None] = ctx.ldq.releases.append
        self._stq_append: Callable[[int], None] = ctx.stq.releases.append
        if ctx.fabric is not None:
            # The fabric is built before the stages, so its RST lookup
            # binds once (unset on baseline runs, which never read it).
            self._rst_lookup: Callable[[int], "SlotHit | None"] = (
                ctx.fabric.rst.lookup
            )

    def retire(self, dyn: "DynInst", complete_time: int) -> None:
        ctx = self.ctx
        stats = ctx.stats
        rt = max(complete_time + 1, ctx.prev_retire, ctx.retire_floor)
        counts = self.retire_counts
        width = self._retire_width
        get = counts.get
        while get(rt, 0) >= width:
            rt += 1
        counts[rt] = get(rt, 0) + 1
        ctx.prev_retire = rt
        if ctx.first_retire is None:
            ctx.first_retire = rt

        self._rob_append(rt)
        op = dyn.op_class
        if op is _LOAD:
            self._ldq_append(rt)
        elif op is _STORE:
            self._stq_append(rt)
            self._commit_store(dyn, rt)
        elif op is _BRANCH:
            self.predictor.update(dyn.pc, bool(dyn.taken))

        fabric = ctx.fabric
        if fabric is not None:
            was_active = fabric.roi_active
            if was_active:
                stats.retired_in_roi += 1
            hit = self._rst_lookup(dyn.pc)
            if hit is not None:
                if was_active:
                    stats.retired_rst_hits += 1
                    self._count_obs(hit)
                    if ctx.telemetry is not None:
                        ctx.telemetry.agent(rt, "retire", "rst_hit")
                fabric.on_retire(dyn, hit, rt)
                if not was_active and fabric.roi_active:
                    # Beginning of ROI (§2.1): the Retire Agent signals the
                    # core to squash its pipeline so core and component are
                    # logically at the same point in the dynamic stream.
                    ctx.squash_at(rt, "roi_begin")

    def _count_obs(self, hit: "SlotHit") -> None:
        stats = self.ctx.stats
        stats.obs_packets += 1
        kind = hit.entry.kind
        if kind is _DEST_VALUE:
            stats.obs_dest_value += 1
        elif kind is _STORE_VALUE:
            stats.obs_store_value += 1
        elif kind is _BRANCH_OUTCOME:
            stats.obs_branch_outcome += 1

    def _commit_store(self, dyn: "DynInst", retire_time: int) -> None:
        ctx = self.ctx
        ctx.hierarchy.data_access(dyn.mem_addr, retire_time, is_store=True)
        stores = ctx.stores_by_line.get(dyn.mem_addr >> LINE_SHIFT)
        if stores:
            for store in stores:
                if store.seq == dyn.seq:
                    store.retire_time = retire_time
                    break

    def prune(self) -> None:
        """Drop retire-slot counters older than the retire horizon."""
        horizon = self.ctx.prev_retire - 8
        stale = [c for c in self.retire_counts if c < horizon]
        for c in stale:
            del self.retire_counts[c]
