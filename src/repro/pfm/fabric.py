"""PFM fabric: co-simulation of RF components with the core.

The cycle model is one-pass in program order (see :mod:`repro.core.core`);
each fabric slot advances its component's RF clock lazily: when the core's
fetch stage needs a prediction the owning slot advances RF cycles until
the matching packet exists (or the component is provably quiescent — the
§2.4 watchdog / chicken-switch path); observation pushes advance the
component to keep it current.  All causality flows forward: every
observation a component can need to predict a branch comes from
instructions older than that branch, which the one-pass engine has
already processed and timestamped.

Multi-tenancy (:mod:`repro.pfm.tenancy`): the fabric is a container of
:class:`~repro.pfm.tenancy.FabricSlot` objects — slot 0 is the primary
tenant (the workload's bitstream), further slots come from
``PFMParams.tenants``.  The pipeline stages hold the fabric directly
(``PipelineContext.fabric``) and call its routing methods: snoop lookups
go through partitioned tables whose hits carry the owning slot, fetch
overrides are winner-takes-all by tenant priority, and every matching
slot observes on the retire side.  The same loops serve any slot count;
with one slot they reduce to that slot's own calls.  The observation
crossing is arbitrated by the contention-aware
:class:`~repro.pfm.tenancy.FabricScheduler`.

Squash/squash-done handshake cost: ``(D + 3) * C`` core cycles — one RF
cycle for the squash packet crossing, ``D + 1`` RF cycles for rollback
through the component pipeline, one RF cycle for the squash-done signal
back through IntQ-F (Section 2.1); the Retire Agent stalls the retire
unit until then, and unconsumed predictions are replayed at W per RF
cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.params import CoreParams, PFMParams
from repro.core.resources import LaneScheduler
from repro.memory.hierarchy import MemoryHierarchy
from repro.pfm.tenancy import (
    FabricScheduler,
    FabricSlot,
    PartitionedFST,
    PartitionedRST,
    SlotHit,
    TenantSpec,
    slot_params,
)
from repro.pfm.snoop import Bitstream
from repro.workloads.mem import MemoryImage

if TYPE_CHECKING:
    from repro.core.stats import SimStats
    from repro.workloads.trace import DynInst


class PFMFabric:
    """Everything on the RF side of the pipeline interface.

    A container of fabric slots (one per tenant) plus the partitioned
    snoop tables, the contention-aware scheduler, and the routing methods
    the pipeline stages call.  Per-tenant state (component, queues,
    agents, ROI flags) lives on the slots: ``fabric.slots[0]`` is the
    primary tenant.
    """

    def __init__(
        self,
        bitstream: Bitstream,
        pfm: PFMParams,
        core_params: CoreParams,
        lanes: LaneScheduler,
        hierarchy: MemoryHierarchy,
        memory: MemoryImage,
    ):
        self.bitstream = bitstream
        self.params = pfm
        self.scheduler = FabricScheduler(pfm.width)

        primary_spec = TenantSpec(component=bitstream.name, priority=0)
        builds: list[tuple[TenantSpec, Bitstream, PFMParams]] = [
            (primary_spec, bitstream, pfm)
        ]
        for spec in pfm.tenants:
            # Imported lazily: the registry's tenant layouts pull in
            # component modules, which single-tenant builds never need.
            from repro.registry.tenants import build_tenant_bitstream

            builds.append(
                (spec, build_tenant_bitstream(spec, bitstream), slot_params(pfm))
            )

        #: True while any slot's component is enabled (inside its ROI) /
        #: any slot's fetch-side ROI is active.  Plain attributes read on
        #: every instruction; a slot refreshes them when it flips its own.
        self.roi_active = False
        self.roi_fetch_active = False
        self.slots: list[FabricSlot] = []
        for index, (spec, slot_bitstream, slot_pfm) in enumerate(builds):
            slot = FabricSlot(
                index,
                spec,
                slot_bitstream,
                slot_pfm,
                core_params,
                lanes,
                hierarchy,
                memory,
                self.scheduler,
            )
            slot.on_roi_change = self._refresh_roi
            self.scheduler.register(slot)
            self.slots.append(slot)

        #: Fetch PCs some slot's ``on_fetch`` acts on; the fetch stage
        #: calls :meth:`on_fetch` for these only.
        self.fetch_pcs: frozenset[int] = frozenset().union(
            *(slot.fetch_pcs for slot in self.slots)
        )
        self.fst = PartitionedFST(self.slots)
        self.rst = PartitionedRST(self.slots)
        #: Fetch-override conflicts: a lower-priority tenant's FST entry
        #: lost a same-PC override to a higher-priority tenant.
        self.fetch_override_conflicts = 0

    # ------------------------------------------------------------------ #
    # pipeline interface: what the fetch, retire and squash paths call
    # ------------------------------------------------------------------ #

    def _refresh_roi(self) -> None:
        slots = self.slots
        self.roi_active = any(slot.roi_active for slot in slots)
        self.roi_fetch_active = any(slot.roi_fetch_active for slot in slots)

    def on_fetch(self, pc: int) -> None:
        """Fetch bookkeeping (ROI entry, per-call markers) per slot; a PC
        outside :attr:`fetch_pcs` is a no-op."""
        for slot in self.slots:
            slot.on_fetch(pc)

    def predict_hit(
        self, hit: SlotHit, fetch_time: int
    ) -> tuple[bool, int] | None:
        """Route an FST hit to its owning slot's Fetch Agent.

        Returns ``(taken, effective_fetch_time)``, or ``None`` when the
        core's own predictor must serve the branch (§2.4).  Overlapping
        PCs across tenants are winner-takes-all on the fetch side: only
        the highest-priority slot's prediction can override the core's
        predictor; every loser is counted as an override conflict and its
        (eventual) prediction packet is dropped through the
        fallback-debt mechanism so its stream stays aligned.
        """
        for other in hit.others:
            self.fetch_override_conflicts += 1
            other.slot.note_override_conflict(other.entry.tag)
        return hit.slot.predict_entry(hit.entry.tag, fetch_time)

    def record_override(self, hit: SlotHit, correct: bool) -> None:
        """Grade the override *hit*'s slot supplied, for its accuracy
        breaker."""
        hit.slot.watchdog.record_override(correct)

    def on_retire(self, dyn: "DynInst", hit: SlotHit, retire_time: int) -> None:
        """Build and push the observation packet(s) for an RST hit.

        Retire-side observation is non-exclusive: every tenant whose RST
        matches the PC observes, winner (priority order) first so shared
        PRF read ports are granted to the primary first.
        """
        hit.slot.on_retire_entry(dyn, hit.entry, retire_time)
        for other in hit.others:
            other.slot.on_retire_entry(dyn, other.entry, retire_time)

    def on_core_squash(self, squash_time: int, reason: str) -> int:
        """Pipeline squash: run the squash/squash-done protocol on every
        armed slot; the retire unit stalls until the slowest tenant's
        handshake completes."""
        done = squash_time
        for slot in self.slots:
            done = max(done, slot.on_core_squash(squash_time, reason))
        return done

    # ------------------------------------------------------------------ #
    # context switch (§2.4)
    # ------------------------------------------------------------------ #

    def deprogram(self) -> None:
        """Context switch out: every tenant's component leaves RF (§2.4)."""
        for slot in self.slots:
            slot.deprogram()

    def reprogram(self, now: int) -> None:
        """Context switch back in: re-synthesize every tenant's component."""
        for slot in self.slots:
            slot.reprogram(now)

    # ------------------------------------------------------------------ #
    # finalize
    # ------------------------------------------------------------------ #

    def queue_stats(self) -> dict[str, dict[str, int]]:
        """Per-queue counter summaries for every slot's fabric queues."""
        stats: dict[str, dict[str, int]] = {}
        for slot in self.slots:
            stats.update(slot.queue_stats())
        return stats

    def finalize(self, stats: "SimStats") -> None:
        """Fold the fabric's counters into *stats* at the end of a run.

        Agent, watchdog and reconfiguration counters are summed across
        slots; slot 0 (the primary tenant) is the only slot that carries
        a fault injector, and its lifecycle is the run's fabric state.
        """
        slots = self.slots
        loads = [slot.load_agent for slot in slots]
        stats.agent_loads = sum(la.loads_issued for la in loads)
        stats.agent_prefetches = sum(la.prefetches_issued for la in loads)
        stats.agent_load_misses = sum(la.load_misses for la in loads)
        stats.mlb_replays = sum(la.replays for la in loads)
        stats.agent_loads_sanitized = sum(la.loads_sanitized for la in loads)
        stats.prf_port_delay_cycles = sum(
            slot.retire_agent.port_delay_cycles for slot in slots
        )
        stats.fetch_stall_pfm_cycles = sum(
            slot.fetch_agent.stall_cycles for slot in slots
        )
        watchdog: dict[str, int] = {}
        for slot in slots:
            for key, value in slot.watchdog.counters().items():
                watchdog[key] = watchdog.get(key, 0) + value
        for key, total in watchdog.items():
            setattr(stats, f"watchdog_{key}", total)
        primary = slots[0]
        if primary.injector is not None:
            stats.fault_events = dict(primary.injector.counts)
        stats.fabric_state = primary.state
        controllers = [slot.reconfig for slot in slots if slot.reconfig is not None]
        if controllers:
            stats.reconfigs = sum(rc.reconfigs for rc in controllers)
            stats.reconfig_cycles = sum(rc.reconfig_cycles for rc in controllers)
            stats.reloads_abandoned = sum(rc.reloads_abandoned for rc in controllers)
            stats.drain_stall_cycles = sum(
                rc.drain_stall_cycles for rc in controllers
            )
        stats.queue_stats = self.queue_stats()
        stats.sched_obs_stall_cycles = self.scheduler.stall_cycles
        stats.sched_preemptions = self.scheduler.preemptions
        stats.fetch_override_conflicts = self.fetch_override_conflicts
        if len(slots) > 1:
            stats.tenant_stats = {
                f"{slot.index}:{slot.tenant}": slot.tenant_stats()
                for slot in slots
            }
