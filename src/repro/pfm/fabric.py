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
``PFMParams.tenants``.  Snoop lookups go through partitioned tables whose
hits carry the owning slot; the hooks route pipeline traffic to that
slot, resolving fetch-override conflicts by tenant priority and letting
every matching slot observe on the retire side.  The observation
crossing is arbitrated by the contention-aware
:class:`~repro.pfm.tenancy.FabricScheduler`.  With a single slot, every
routing layer collapses to a direct slot call (the hooks bind slot
methods at construction), so single-tenant runs stay byte-identical to
the pre-tenancy fabric.

Squash/squash-done handshake cost: ``(D + 3) * C`` core cycles — one RF
cycle for the squash packet crossing, ``D + 1`` RF cycles for rollback
through the component pipeline, one RF cycle for the squash-done signal
back through IntQ-F (Section 2.1); the Retire Agent stalls the retire
unit until then, and unconsumed predictions are replayed at W per RF
cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

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
    from repro.core.stages.ports import AgentPort
    from repro.workloads.trace import DynInst


class FabricFetchHook:
    """Fetch Agent adapter satisfying :class:`~repro.core.stages.ports.
    FetchAgentHook` — what the fetch stage sees of the fabric (§2.2).

    The forwarding methods are bound at construction (the partitioned FST
    and the slot layout are fixed for the fabric's lifetime); with a
    single slot they bind the slot's own methods, so a hook call costs
    the same as the pre-tenancy direct fabric call.  The fetch-side ROI
    is active while any slot's is.
    """

    __slots__ = (
        "_solo", "_fabric", "on_fetch", "lookup", "predict",
        "record_override",
    )

    def __init__(self, fabric: "PFMFabric"):
        self._fabric = fabric
        self.lookup = fabric.fst.lookup
        self.predict = fabric.predict_hit
        if fabric._single:
            slot = fabric._slot0
            self._solo: FabricSlot | None = slot
            self.on_fetch = slot.on_fetch
            self.record_override = slot.watchdog.record_override
        else:
            self._solo = None
            self.on_fetch = fabric._on_fetch_multi
            self.record_override = fabric._record_override

    @property
    def roi_fetch_active(self) -> bool:
        if self._solo is not None:
            return self._solo.roi_fetch_active
        return any(s.roi_fetch_active for s in self._fabric.slots)

    @property
    def stall_cycles(self) -> int:
        return self._fabric.fetch_stall_cycles


class FabricExecuteHook:
    """Load Agent adapter satisfying :class:`~repro.core.stages.ports.
    ExecuteAgentHook` — the agents' LSU-path accounting (§2.3), summed
    across tenants."""

    __slots__ = ("_fabric",)

    def __init__(self, fabric: "PFMFabric"):
        self._fabric = fabric

    @property
    def loads_issued(self) -> int:
        return sum(s.load_agent.loads_issued for s in self._fabric.slots)

    @property
    def prefetches_issued(self) -> int:
        return sum(s.load_agent.prefetches_issued for s in self._fabric.slots)

    @property
    def load_misses(self) -> int:
        return sum(s.load_agent.load_misses for s in self._fabric.slots)

    @property
    def replays(self) -> int:
        return sum(s.load_agent.replays for s in self._fabric.slots)

    @property
    def loads_sanitized(self) -> int:
        return sum(s.load_agent.loads_sanitized for s in self._fabric.slots)


class FabricRetireHook:
    """Retire Agent adapter satisfying :class:`~repro.core.stages.ports.
    RetireAgentHook` — RST snooping and squash sync (§2.1).

    Forwarding methods are bound at construction (the partitioned RST is
    fixed for the fabric's lifetime), matching the cost of direct calls;
    a single-slot fabric binds the slot's methods directly.  The
    retire-side ROI is active while any slot's is.
    """

    __slots__ = ("_solo", "_fabric", "lookup", "on_retire", "on_squash")

    def __init__(self, fabric: "PFMFabric"):
        self._fabric = fabric
        self.lookup = fabric.rst.lookup
        if fabric._single:
            self._solo: FabricSlot | None = fabric._slot0
            self.on_retire = fabric._on_retire_single
            self.on_squash = fabric._slot0.on_core_squash
        else:
            self._solo = None
            self.on_retire = fabric._on_retire_multi
            self.on_squash = fabric.on_core_squash

    @property
    def roi_active(self) -> bool:
        if self._solo is not None:
            return self._solo.roi_active
        return any(s.roi_active for s in self._fabric.slots)

    @property
    def port_delay_cycles(self) -> int:
        return self._fabric.port_delay_cycles


class PFMFabric:
    """Everything on the RF side of the pipeline interface.

    A container of fabric slots (one per tenant) plus the partitioned
    snoop tables, the contention-aware scheduler, and the routing layer
    the pipeline hooks call into.  Per-tenant state (component, queues,
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
        self.scheduler = FabricScheduler()

        primary_spec = TenantSpec(
            component=bitstream.name, priority=0, name=bitstream.name
        )
        builds: list[tuple[TenantSpec, Bitstream, PFMParams]] = [
            (primary_spec, bitstream, pfm)
        ]
        for spec in pfm.tenants:
            # Imported lazily: the registry's tenant layouts pull in
            # component modules, which single-tenant builds never need.
            from repro.registry.tenants import build_tenant_bitstream

            builds.append(
                (spec, build_tenant_bitstream(spec, bitstream), slot_params(pfm, spec))
            )

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
            self.scheduler.register(slot)
            self.slots.append(slot)

        self._slot0 = self.slots[0]
        self._single = len(self.slots) == 1
        self.fst = PartitionedFST(self.slots)
        self.rst = PartitionedRST(self.slots)
        #: Fetch-override conflicts: a lower-priority tenant's FST entry
        #: lost a same-PC override to a higher-priority tenant.
        self.fetch_override_conflicts = 0
        self._last_predict_slot = self._slot0
        self._hooks: tuple[Any, ...] = ()

    # ------------------------------------------------------------------ #
    # pipeline interface (agent ports)
    # ------------------------------------------------------------------ #

    def attach_ports(
        self,
        fetch_port: "AgentPort",
        execute_port: "AgentPort",
        retire_port: "AgentPort",
    ) -> None:
        """Plug one agent adapter into each stage's attachment point.

        The paper's Agents sit at fixed pipeline interfaces (§2.1–2.3);
        this is the software analogue of wiring them up at configuration
        time.  Each port holds at most one agent.  Re-attaching the same
        fabric is idempotent: stale hooks from a previous call are
        detached first (a foreign agent on a port still raises — one
        context at a time, §2.4).
        """
        ports = (fetch_port, execute_port, retire_port)
        if self._hooks:
            stale = set(map(id, self._hooks))
            for port in ports:
                if port.agent is not None and id(port.agent) in stale:
                    port.detach()
        hooks = (
            FabricFetchHook(self),
            FabricExecuteHook(self),
            FabricRetireHook(self),
        )
        for port, hook in zip(ports, hooks):
            port.attach(hook)
        self._hooks = hooks

    # ------------------------------------------------------------------ #
    # routing (multi-slot paths; single-slot binds slot methods directly)
    # ------------------------------------------------------------------ #

    def predict_hit(
        self, hit: SlotHit, fetch_time: int
    ) -> tuple[bool, int] | None:
        """Route an FST hit to its owning slot's Fetch Agent.

        Overlapping PCs across tenants are winner-takes-all on the fetch
        side: only the highest-priority slot's prediction can override
        the core's predictor; every loser is counted as an override
        conflict and its (eventual) prediction packet is dropped through
        the fallback-debt mechanism so its stream stays aligned.
        """
        if not self._single:
            self._last_predict_slot = hit.slot
            for other in hit.others:
                self.fetch_override_conflicts += 1
                other.slot.note_override_conflict(other.entry.tag)
        return hit.slot.predict_entry(hit.entry.tag, fetch_time)

    def _on_fetch_multi(self, pc: int) -> None:
        for slot in self.slots:
            slot.on_fetch(pc)

    def _record_override(self, correct: bool) -> None:
        # predict() -> record_override() is strictly sequential in the
        # fetch stage, so the last routed slot owns this grade.
        self._last_predict_slot.watchdog.record_override(correct)

    def _on_retire_single(
        self, dyn: "DynInst", hit: SlotHit, retire_time: int
    ) -> int:
        return self._slot0.on_retire_entry(dyn, hit.entry, retire_time)

    def _on_retire_multi(
        self, dyn: "DynInst", hit: SlotHit, retire_time: int
    ) -> int:
        # Retire-side observation is non-exclusive: every tenant whose
        # RST matches the PC observes, winner (priority order) first so
        # shared PRF read ports are granted to the primary first.
        result = hit.slot.on_retire_entry(dyn, hit.entry, retire_time)
        for other in hit.others:
            other.slot.on_retire_entry(dyn, other.entry, retire_time)
        return result

    def on_core_squash(self, squash_time: int, reason: str) -> int:
        """Pipeline squash: run the squash/squash-done protocol on every
        armed slot; the retire unit stalls until the slowest tenant's
        handshake completes."""
        if self._single:
            return self._slot0.on_core_squash(squash_time, reason)
        done = squash_time
        for slot in self.slots:
            done = max(done, slot.on_core_squash(squash_time, reason))
        return done

    # ------------------------------------------------------------------ #
    # context switch (§2.4)
    # ------------------------------------------------------------------ #

    def deprogram(self, now: int) -> None:
        """Context switch out: every tenant's component leaves RF (§2.4)."""
        for slot in self.slots:
            slot.deprogram(now)

    def reprogram(self, now: int) -> None:
        """Context switch back in: re-synthesize every tenant's component."""
        for slot in self.slots:
            slot.reprogram(now)

    # ------------------------------------------------------------------ #
    # finalize-time aggregates
    # ------------------------------------------------------------------ #

    @property
    def fetch_stall_cycles(self) -> int:
        return sum(s.fetch_agent.stall_cycles for s in self.slots)

    @property
    def port_delay_cycles(self) -> int:
        return sum(s.retire_agent.port_delay_cycles for s in self.slots)

    def watchdog_counters(self) -> dict[str, int]:
        """Watchdog counters summed across every slot's watchdog."""
        totals: dict[str, int] = {}
        for slot in self.slots:
            for key, value in slot.watchdog.counters().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def reconfig_totals(self) -> dict[str, int] | None:
        """Reconfiguration counters summed across slots with recovery
        policies, or None when no slot carries one."""
        controllers = [s.reconfig for s in self.slots if s.reconfig is not None]
        if not controllers:
            return None
        return {
            "reconfigs": sum(rc.reconfigs for rc in controllers),
            "reconfig_cycles": sum(rc.reconfig_cycles for rc in controllers),
            "reloads_abandoned": sum(rc.reloads_abandoned for rc in controllers),
            "drain_stall_cycles": sum(rc.drain_stall_cycles for rc in controllers),
        }

    def queue_stats(self) -> dict[str, dict[str, int]]:
        """Per-queue counter summaries for every slot's fabric queues."""
        stats: dict[str, dict[str, int]] = {}
        for slot in self.slots:
            stats.update(slot.queue_stats())
        return stats

    def tenant_stats(self) -> dict[str, dict[str, int]]:
        """Per-tenant counter snapshots, keyed ``<slot>:<tenant>``."""
        return {
            f"{slot.index}:{slot.tenant}": slot.tenant_stats()
            for slot in self.slots
        }
