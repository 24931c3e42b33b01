"""Multi-tenant fabric: slots, partitioned snoop tables, and scheduling.

The paper loads exactly one component into the reconfigurable fabric
before the run.  This module removes that single-tenant assumption:

* :class:`TenantSpec` — one co-tenant: its tenant layout, a priority
  class and optional snoop-table capacities.  Every tenant runs at the
  primary's clkC / wW / delayD / queueQ / portP.
* :class:`FabricSlot` — everything one tenant owns on the RF side of the
  pipeline interface: its component, snoop tables, the ObsQ-R / IntQ-IS /
  ObsQ-EX queues, the three agents, an RF clock, a watchdog, and (for the
  primary) the fault injector and reconfiguration controller.
* :class:`PartitionedFST` / :class:`PartitionedRST` — PC-indexed dispatch
  tables built over every slot's private snoop tables.  A lookup returns
  a :class:`SlotHit` tagging the entry with its owning slot; overlapping
  PCs resolve to the highest-priority slot with the losers carried in
  ``others`` (retire-side observation is non-exclusive, fetch-side
  override is winner-takes-all).
* :class:`FabricScheduler` — contention-aware arbitration of the
  core-to-RF observation crossing: per core cycle at most wW packets
  cross, granted weighted-round-robin (top-priority tenants may fill the
  cycle, background tenants get one grant each) with priority preemption
  (a top-priority request at a full cycle evicts a background grant and
  debits the victim's next request).  Stalls and preemptions are counted
  per tenant.  With a single slot every grant is immediate — the
  scheduler is pass-through, so a single-tenant crossing is bounded only
  by the slot's own queues.

PRF read-port arbitration needs no extra machinery: slots reserve ports
through the shared :class:`~repro.core.resources.LaneScheduler` in
priority order (the partitioned RST iterates winner first), so a
background tenant's destination-value packets wait behind the primary's;
the per-slot ``port_delay_cycles`` counter attributes the contention.
Queue push slots are budgeted per tenant by construction — each slot has
its own queueQ-entry queues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.core.params import CoreParams, PFMParams
from repro.core.watchdog import Watchdog
from repro.pfm.component import CustomComponent, RFIo, RFTimings
from repro.pfm.fetch_agent import FetchAgent
from repro.pfm.load_agent import MLB_ENTRIES, LoadAgent
from repro.pfm.packets import ObsPacket, SquashPacket
from repro.pfm.queues import TimedQueue
from repro.pfm.reconfig import ReconfigController
from repro.pfm.retire_agent import RetireAgent
from repro.pfm.snoop import (
    Bitstream,
    FetchSnoopTable,
    RetireSnoopTable,
    RSTEntry,
    SnoopKind,
)
from repro.registry.components import rebuild_component

if TYPE_CHECKING:
    from repro.core.resources import LaneScheduler
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.workloads.mem import MemoryImage
    from repro.workloads.trace import DynInst


#: Priority classes accepted by the ``--tenant component[:priority]``
#: CLI syntax, lowest number = highest priority.
PRIORITY_CLASSES: dict[str, int] = {"high": 0, "normal": 1, "background": 2}

_PRIORITY_NAMES = {v: k for k, v in PRIORITY_CLASSES.items()}

#: Chicken-switch threshold (§2.4): RF cycles a slot may spin waiting on
#: one prediction or one ObsQ-R push before the fabric is disabled.
WATCHDOG_RF_CYCLES = 200_000


@dataclass(frozen=True)
class TenantSpec:
    """One co-tenant's layout, priority class and snoop-table capacities.

    ``component`` names the tenant layout (and the tenant in stats).
    The capacities bound how many RST/FST entries the tenant may program
    (excess entries are *evicted* at configuration time, ROI markers
    always survive).  The primary tenant is implicit — it is the
    workload's own bitstream at priority 0.
    """

    component: str
    priority: int = PRIORITY_CLASSES["background"]
    rst_capacity: int | None = None
    fst_capacity: int | None = None

    def __post_init__(self) -> None:
        if not self.component:
            raise ValueError("tenant component name must be non-empty")
        if self.priority < 0:
            raise ValueError("tenant priority must be >= 0")
        if self.rst_capacity is not None and self.rst_capacity < 1:
            raise ValueError("tenant rst_capacity must be >= 1")
        if self.fst_capacity is not None and self.fst_capacity < 0:
            raise ValueError("tenant fst_capacity must be >= 0")

    def label(self) -> str:
        cls = _PRIORITY_NAMES.get(self.priority, str(self.priority))
        return f"{self.component}:{cls}"


def parse_tenant_spec(text: str) -> TenantSpec:
    """Parse one ``--tenant component[:priority]`` CLI argument."""
    component, sep, priority_text = text.partition(":")
    if not component:
        raise ValueError(f"invalid tenant spec {text!r}: empty component")
    if not sep:
        return TenantSpec(component=component)
    if priority_text in PRIORITY_CLASSES:
        priority = PRIORITY_CLASSES[priority_text]
    else:
        try:
            priority = int(priority_text)
        except ValueError:
            choices = "/".join(PRIORITY_CLASSES)
            raise ValueError(
                f"invalid tenant priority {priority_text!r} in {text!r}"
                f" (use {choices} or an integer)"
            ) from None
    return TenantSpec(component=component, priority=priority)


def slot_params(pfm: PFMParams) -> PFMParams:
    """The effective per-slot ``PFMParams`` for a co-tenant.

    Co-tenants inherit the primary's C/W/D/Q/P and fetch policy, but
    never its fault plan, recovery policy or watchdog thresholds — those
    are per-tenant concerns the primary's configuration must not impose
    on its neighbours.
    """
    return PFMParams(
        clk_ratio=pfm.clk_ratio,
        width=pfm.width,
        delay=pfm.delay,
        queue_size=pfm.queue_size,
        port=pfm.port,
        fetch_policy=pfm.fetch_policy,
    )


# ---------------------------------------------------------------------- #
# partitioned snoop tables
# ---------------------------------------------------------------------- #


class SlotHit:
    """One snoop-table hit tagged with its owning slot.

    ``others`` carries lower-priority slots whose tables also match the
    PC (overlapping ranges across tenants): the retire side observes all
    of them, the fetch side serves only the winner and counts the losers
    as override conflicts.
    """

    __slots__ = ("slot", "entry", "others")

    def __init__(
        self, slot: "FabricSlot", entry: Any, others: tuple["SlotHit", ...] = ()
    ):
        self.slot = slot
        self.entry = entry
        self.others = others

    @property
    def kind(self) -> SnoopKind:
        return self.entry.kind  # type: ignore[no-any-return]

    def __repr__(self) -> str:
        return (
            f"<SlotHit slot={self.slot.index} pc={self.entry.pc:#x}"
            f" tag={self.entry.tag!r} +{len(self.others)} other(s)>"
        )


class _PartitionedTable:
    """PC-indexed dispatch over every slot's private snoop table.

    The lookup itself is one dict probe returning a prebuilt
    :class:`SlotHit`, the same cost as a single slot's own table lookup.
    """

    __slots__ = ("_by_pc",)

    def __init__(self, slots: list["FabricSlot"], attr: str):
        by_pc: dict[int, list[tuple["FabricSlot", Any]]] = {}
        for slot in slots:
            for entry in getattr(slot, attr).entries:
                by_pc.setdefault(entry.pc, []).append((slot, entry))
        self._by_pc: dict[int, SlotHit] = {}
        for pc, owners in by_pc.items():
            owners.sort(key=lambda pair: (pair[0].priority, pair[0].index))
            losers = tuple(SlotHit(s, e) for s, e in owners[1:])
            winner_slot, winner_entry = owners[0]
            self._by_pc[pc] = SlotHit(winner_slot, winner_entry, losers)

    def lookup(self, pc: int) -> SlotHit | None:
        return self._by_pc.get(pc)

    def __contains__(self, pc: int) -> bool:
        return pc in self._by_pc

    def __len__(self) -> int:
        return len(self._by_pc)


class PartitionedFST(_PartitionedTable):
    """Fetch Snoop Table partitioned across fabric slots."""

    def __init__(self, slots: list["FabricSlot"]):
        super().__init__(slots, "fst")


class PartitionedRST(_PartitionedTable):
    """Retire Snoop Table partitioned across fabric slots."""

    def __init__(self, slots: list["FabricSlot"]):
        super().__init__(slots, "rst")


def _evict_to_capacity(
    entries: list[Any], capacity: int | None, keep_roi: bool
) -> tuple[list[Any], int]:
    """Drop entries beyond *capacity*; ROI markers always survive.

    Returns the surviving entries (original order) and the eviction
    count.  Mirrors a real design's fixed-size CAM: a tenant whose
    bitstream programs more snoop entries than its partition holds loses
    the tail.
    """
    if capacity is None or len(entries) <= capacity:
        return list(entries), 0
    markers = []
    plain = []
    for entry in entries:
        kind = getattr(entry, "kind", None)
        if keep_roi and kind in (SnoopKind.ROI_BEGIN, SnoopKind.ROI_END):
            markers.append(entry)
        else:
            plain.append(entry)
    budget = max(0, capacity - len(markers))
    kept_plain = plain[:budget]
    kept_set = {id(e) for e in markers} | {id(e) for e in kept_plain}
    survivors = [e for e in entries if id(e) in kept_set]
    return survivors, len(entries) - len(survivors)


# ---------------------------------------------------------------------- #
# the contention-aware scheduler
# ---------------------------------------------------------------------- #


class FabricScheduler:
    """Arbitrates the core-to-RF observation crossing across slots.

    Weighted round-robin with priority preemption, per core cycle:

    * at most ``cap`` packets cross per core cycle (``cap`` = the wW
      every tenant shares);
    * a top-priority-class tenant may fill the whole cycle, every other
      tenant gets at most one grant per contested cycle (the round-robin
      weights);
    * a top-priority request arriving at a full cycle *preempts* the
      lowest-priority grant in it: the victim's packet already crossed,
      so the debt is charged to the victim's next request instead
      (counted as ``sched_preemptions`` / stall cycles per tenant).

    With one registered slot every grant returns the request time
    untouched — single-tenant runs never observe the scheduler.  That
    pass-through is behaviour, not a shortcut: the general path would
    cap a lone slot's crossing at its own wW per core cycle.
    """

    _PRUNE_LIMIT = 8192
    _PRUNE_HORIZON = 4096

    def __init__(self, cap: int) -> None:
        self._slots: list[FabricSlot] = []
        self._single = True
        self._cap = cap
        self._top = 0
        self._grants: dict[int, list[tuple[int, "FabricSlot"]]] = {}
        self.preemptions = 0
        self.stall_cycles = 0

    def register(self, slot: "FabricSlot") -> None:
        self._slots.append(slot)
        self._single = len(self._slots) == 1
        self._top = min(s.priority for s in self._slots)

    def grant_obs(self, slot: "FabricSlot", send_time: int) -> int:
        """Grant *slot* one observation-crossing slot at/after *send_time*."""
        if self._single:
            return send_time
        if slot.sched_debt:
            slot.sched_stall_cycles += slot.sched_debt
            self.stall_cycles += slot.sched_debt
            send_time += slot.sched_debt
            slot.sched_debt = 0
        cap = self._cap
        weight = cap if slot.priority <= self._top else 1
        cycle = send_time
        grants = self._grants
        while True:
            row = grants.get(cycle)
            if row is None:
                grants[cycle] = [(slot.priority, slot)]
                break
            mine = sum(1 for _, s in row if s is slot)
            if len(row) < cap and mine < weight:
                row.append((slot.priority, slot))
                break
            if len(row) >= cap and slot.priority <= self._top:
                worst_index = max(
                    range(len(row)), key=lambda i: row[i][0]
                )
                worst_priority, victim = row[worst_index]
                if worst_priority > slot.priority:
                    # Priority preemption: the victim's packet already
                    # crossed at this cycle, so its *next* request pays.
                    victim.sched_debt += 1
                    victim.sched_preemptions += 1
                    self.preemptions += 1
                    row[worst_index] = (slot.priority, slot)
                    break
            cycle += 1
        if cycle > send_time:
            stalled = cycle - send_time
            slot.sched_stall_cycles += stalled
            self.stall_cycles += stalled
        if len(grants) > self._PRUNE_LIMIT:
            floor = cycle - self._PRUNE_HORIZON
            for old in [c for c in grants if c < floor]:
                del grants[old]
        return cycle


# ---------------------------------------------------------------------- #
# the fabric slot
# ---------------------------------------------------------------------- #


class FabricSlot:
    """One tenant's share of the fabric: component, queues, agents, clock.

    :class:`~repro.pfm.fabric.PFMFabric` is the slot container that
    routes pipeline traffic here.  Slot 0 is the primary tenant (the
    workload's own bitstream) and the only slot that carries a fault
    injector or recovery policy.
    """

    # Drop decision latency: a droppable packet waits at most this many RF
    # cycles for ObsQ-R space before the Retire Agent discards it.
    _DROP_PATIENCE_RF = 8

    def __init__(
        self,
        index: int,
        spec: TenantSpec,
        bitstream: Bitstream,
        pfm: PFMParams,
        core_params: CoreParams,
        lanes: "LaneScheduler",
        hierarchy: "MemoryHierarchy",
        memory: "MemoryImage",
        scheduler: FabricScheduler,
    ):
        self.index = index
        self.spec = spec
        self.priority = spec.priority
        self.tenant = spec.component
        self.bitstream = bitstream
        self.params = pfm
        self._scheduler = scheduler
        self.timings = RFTimings(pfm.clk_ratio, pfm.width, pfm.delay)

        rst_entries, self.rst_evictions = _evict_to_capacity(
            bitstream.rst_entries, spec.rst_capacity, keep_roi=True
        )
        fst_entries, self.fst_evictions = _evict_to_capacity(
            bitstream.fst_entries, spec.fst_capacity, keep_roi=False
        )
        self.rst = RetireSnoopTable(rst_entries)
        self.fst = FetchSnoopTable(fst_entries)

        self.component: CustomComponent = rebuild_component(
            bitstream, self.timings, memory, pfm.component_overrides
        )
        metadata = {**bitstream.metadata, **pfm.component_overrides}
        self.call_marker_pcs: frozenset[int] = frozenset(
            int(pc) for pc in metadata.get("call_marker_pcs", ())
        )
        #: Every PC :meth:`on_fetch` acts on: ROI-begin snoops and the
        #: per-call markers.
        self.fetch_pcs: frozenset[int] = self.call_marker_pcs | {
            entry.pc for entry in rst_entries
            if entry.kind is SnoopKind.ROI_BEGIN
        }

        self.watchdog = Watchdog(pfm.watchdog)
        self.injector: Any | None = None
        mlb_entries = MLB_ENTRIES
        if pfm.fault_plan is not None:
            # Imported here so fault-free builds never touch the fault
            # subsystem (core/pfm must not depend on repro.faults).
            from repro.faults.inject import FaultInjector

            self.injector = FaultInjector(pfm.fault_plan)
            mlb_entries = self.injector.mlb_entries(MLB_ENTRIES)

        c = pfm.clk_ratio
        suffix = "" if index == 0 else f"@{index}"
        owner = f"slot{index}:{self.tenant}"
        self.obs_q = TimedQueue(
            f"ObsQ-R{suffix}", pfm.queue_size, crossing_latency=c, owner=owner
        )
        # IntQ-IS push times are component pipe-exit times, nondecreasing
        # by construction — assert it (ObsQ-R and ObsQ-EX legitimately
        # reorder send times via PRF port contention and MLB re-flushes).
        self.intq_is = TimedQueue(
            f"IntQ-IS{suffix}", pfm.queue_size, monotonic_push=True, owner=owner
        )
        self.retq = TimedQueue(
            f"ObsQ-EX{suffix}", pfm.queue_size, crossing_latency=c, owner=owner
        )
        self.fetch_agent = FetchAgent(
            pfm.queue_size, c, pfm.width, strict=self.injector is None
        )
        self.retire_agent = RetireAgent(core_params, lanes, pfm.port)
        self.load_agent = LoadAgent(
            self.intq_is,
            self.retq,
            hierarchy,
            memory,
            lanes,
            core_params.ls_lanes(),
            mlb_entries=mlb_entries,
            watchdog=self.watchdog,
            injector=self.injector,
        )

        self._io = RFIo(self.timings, self)
        self.rf_cycle = 0
        self.roi_active = False  # retire-side (component enabled)
        self.roi_fetch_active = False  # fetch-side (stats / markers)
        #: Called after either ROI flag flips (the fabric refreshes its
        #: any-slot flags); None on a slot outside a fabric.
        self.on_roi_change: Callable[[], None] | None = None
        self.enabled = True  # chicken switch
        self._pending_squashes: list[int] = []  # visible times
        self._watchdog_budget = WATCHDOG_RF_CYCLES
        self.squashes_signalled = 0
        self.probe: Any | None = None  # optional telemetry hub
        #: ROI-begin snoop value, recorded so a hot swap can re-arm the
        #: replacement component (ROI markers retire once per run).
        self.last_roi_value: Any | None = None
        #: Contention accounting (filled by the scheduler / fetch router).
        self.sched_stall_cycles = 0
        self.sched_preemptions = 0
        self.sched_debt = 0
        self.override_conflicts = 0
        #: Self-healing reconfiguration controller; None when the policy
        #: is inactive, and the slot behaves exactly as before.
        self.reconfig: ReconfigController | None = None
        if pfm.recovery.active():
            self.reconfig = ReconfigController(self, pfm.recovery)

    # ------------------------------------------------------------------ #
    # RF clock
    # ------------------------------------------------------------------ #

    def _roi_changed(self) -> None:
        if self.on_roi_change is not None:
            self.on_roi_change()

    def _now(self) -> int:
        return self.timings.core_time(self.rf_cycle)

    def _next_event_time(self) -> int | None:
        times = []
        if self._pending_squashes:
            times.append(self._pending_squashes[0])
        head = self.obs_q.head_visible_time()
        if head is not None:
            times.append(head)
        head = self.retq.head_visible_time()
        if head is not None:
            times.append(head)
        agent = self.load_agent.next_event_time()
        if agent is not None:
            times.append(agent)
        return min(times) if times else None

    def _step_rf(self) -> bool:
        """Run one RF cycle; returns False when provably quiescent."""
        if self.injector is not None and self.injector.component_frozen(
            self.rf_cycle
        ):
            # clkC is dead: time passes but the component never steps, so
            # IntQ-F never refills and ObsQ-R never drains.  Not quiescent
            # (queues may hold entries) — the watchdog must save the run.
            self.rf_cycle += 1
            return True
        if self.component.is_idle():
            nxt = self._next_event_time()
            if nxt is None:
                return False
            # Fast-forward dead RF cycles up to the next event.
            c = self.timings.clk_ratio
            target_cycle = max(self.rf_cycle, nxt // c)
            self.rf_cycle = target_cycle
        self._io.begin_cycle(self.rf_cycle)
        self.load_agent.tick(self._io.now)
        self.component.step(self._io)
        self.rf_cycle += 1
        return True

    def advance_to(self, core_time: int) -> None:
        """Run RF cycles whose window ends at or before *core_time*."""
        if not self.enabled:
            return
        c = self.timings.clk_ratio
        guard = self._watchdog_budget
        while (self.rf_cycle + 1) * c <= core_time and guard > 0:
            if not self._step_rf():
                break
            guard -= 1

    # ------------------------------------------------------------------ #
    # fetch side
    # ------------------------------------------------------------------ #

    def on_fetch(self, pc: int) -> None:
        """Fetch-stage bookkeeping: ROI entry and per-call markers."""
        if not self.roi_fetch_active:
            entry = self.rst.lookup(pc)
            if entry is not None and entry.kind is SnoopKind.ROI_BEGIN:
                self.roi_fetch_active = True
                self._roi_changed()
            return
        if pc in self.call_marker_pcs:
            self.fetch_agent.on_call_marker()

    def note_override_conflict(self, fst_tag: str) -> None:
        """This slot lost a same-PC fetch override to a higher priority.

        The slot's component will still produce a prediction for the
        branch; record fallback debt so the late packet is dropped and
        the stream stays aligned.
        """
        self.override_conflicts += 1
        self.fetch_agent.note_fallback(fst_tag)

    def predict_entry(
        self, fst_tag: str, fetch_time: int
    ) -> tuple[bool, int] | None:
        """Supply the custom prediction for an FST-hit branch.

        Returns ``(taken, effective_fetch_time)``, or None when the
        watchdog fired, a graceful-degradation defense tripped, or the
        component is quiescent — the caller then uses the core's own
        predictor (§2.4).  Every None path settles the prediction-stream
        alignment itself: either the matching late packet is discarded
        (fetch-timeout path) or fallback debt is recorded so the packet
        is dropped when it eventually arrives.
        """
        fa = self.fetch_agent
        rc = self.reconfig
        if rc is not None and not rc.ready(fetch_time):
            # Mid-reload (or permanently disabled): the core's predictor
            # carries the branch while the bitstream loads.
            fa.note_fallback(fst_tag)
            return None
        if not self.enabled or not self.roi_active:
            fa.note_fallback(fst_tag)
            return None
        wd = self.watchdog
        if not wd.overrides_allowed():
            # Accuracy breaker open: serve this FST hit from the core's
            # predictor and drop the component's packet via the debt.
            wd.note_suppressed()
            fa.note_fallback(fst_tag)
            return None
        self.advance_to(fetch_time)
        if self.params.fetch_policy == "proceed":
            # §2.4 non-stalling design: use the packet only if it is
            # already waiting in IntQ-F; otherwise the fetch unit proceeds
            # with the core's predictor and the late packet is dropped.
            result = fa.try_pop(fst_tag, fetch_time, only_ready=True)
            if result is None:
                fa.note_fallback(fst_tag)
            return result
        deadline = wd.fetch_deadline(fetch_time)
        guard = self._watchdog_budget
        while guard > 0:
            result = fa.try_pop(fst_tag, fetch_time, deadline=deadline)
            if result is not None:
                wd.on_fetch_delivered()
                return result
            if deadline is not None and self._now() > deadline:
                self._fetch_timeout(fst_tag)
                return None
            if not self._step_rf():
                fa.note_fallback(fst_tag)
                return None  # quiescent: prediction will never arrive
            guard -= 1
        # Watchdog fired: chicken switch (§2.4) — unless a recovery
        # policy buys the component a reload first.
        if rc is None or not rc.on_component_dead(self._now(), "rf-budget"):
            self.enabled = False
        fa.note_fallback(fst_tag)
        return None

    def _fetch_timeout(self, fst_tag: str) -> None:
        """Fetch-stall deadline expired: fall back for this branch only.

        The matching packet, if already produced (just late), is consumed
        and discarded to keep the stream aligned; otherwise fallback debt
        covers its eventual arrival.  A run of timeouts with no producer
        progress declares the component dead and disables the fabric.
        """
        fa = self.fetch_agent
        progress = (
            fa.producer_call,
            fa.producer_seq,
            self.obs_q.pops,
            self.intq_is.pops,
            self.retq.pops,
        )
        self.watchdog.on_fetch_timeout(progress)
        if not fa.drop_match(fst_tag):
            fa.note_fallback(fst_tag)
        if self.watchdog.component_dead:
            rc = self.reconfig
            if rc is None or not rc.on_component_dead(
                self._now(), "dead-component"
            ):
                self.enabled = False

    # ------------------------------------------------------------------ #
    # retire side
    # ------------------------------------------------------------------ #

    def on_retire_entry(
        self, dyn: "DynInst", entry: RSTEntry, retire_time: int
    ) -> int:
        """Handle one RST hit owned by this slot; returns the retire time."""
        if not self.enabled:
            return retire_time
        rc = self.reconfig
        if rc is not None and not rc.ready(retire_time):
            return retire_time  # mid-reload: nothing to observe with
        if entry.kind is SnoopKind.ROI_BEGIN:
            return self._begin_roi(dyn, entry, retire_time)
        if not self.roi_active:
            return retire_time
        packet, send_time = self.retire_agent.build_packet(dyn, entry, retire_time)
        self._obs_push(packet, send_time, droppable=entry.droppable)
        return retire_time

    def _begin_roi(
        self, dyn: "DynInst", entry: RSTEntry, retire_time: int
    ) -> int:
        """Beginning of ROI (Section 2.1): squash, enable, begin packet."""
        self.roi_active = True
        self._roi_changed()
        packet, send_time = self.retire_agent.build_packet(dyn, entry, retire_time)
        self.last_roi_value = packet.value
        self._obs_push(packet, send_time, droppable=False)
        return retire_time  # the core applies the pipeline squash

    def _obs_push(
        self, packet: ObsPacket, send_time: int, droppable: bool
    ) -> None:
        if self.injector is None:
            self._obs_push_one(packet, send_time, droppable)
            return
        packets = self.injector.on_obs(packet)
        for index, faulted in enumerate(packets):
            # An injected duplicate never earns back-pressure patience.
            self._obs_push_one(faulted, send_time, droppable or index > 0)

    def _obs_push_one(
        self, packet: ObsPacket, send_time: int, droppable: bool
    ) -> None:
        send_time = self._scheduler.grant_obs(self, send_time)
        self.advance_to(send_time)
        guard = self._DROP_PATIENCE_RF if droppable else self._watchdog_budget
        if self.injector is not None and self.injector.component_frozen(
            self.rf_cycle
        ):
            # A dead component never drains ObsQ-R; don't spin the budget.
            guard = min(guard, self._DROP_PATIENCE_RF)
        while not self.obs_q.can_push() and guard > 0:
            if not self._step_rf():
                break
            guard -= 1
        if not self.obs_q.can_push():
            self.obs_q.note_reject(send_time)
            return
        self.obs_q.push(send_time, packet)

    def on_core_squash(self, squash_time: int, reason: str) -> int:
        """Pipeline squash: run the squash/squash-done protocol.

        Returns the squash-done time; the core floors subsequent retire
        times to it (the Retire Agent stalls the retire unit, §2.1).
        """
        if not self.enabled or not self.roi_active:
            return squash_time
        rc = self.reconfig
        if rc is not None and squash_time < rc.available_at:
            # Mid-reload: the component isn't loaded yet, so there is
            # nothing to hand the squash protocol to (queues are empty).
            return squash_time
        self.squashes_signalled += 1
        c = self.timings.clk_ratio
        self._pending_squashes.append(squash_time + c)
        squash_done = squash_time + (self.timings.delay + 3) * c
        if self.injector is not None:
            timeouts_before = self.watchdog.squash_timeouts
            squash_done = self.injector.squash_done(
                squash_time, squash_done, c, self.watchdog
            )
            if rc is not None and self.watchdog.squash_timeouts > timeouts_before:
                # A lost squash-done leaves the handshake protocol itself
                # suspect — count it toward the policy's reload threshold.
                if rc.on_squash_timeout(squash_time):
                    squash_done = max(squash_done, rc.available_at)
        self.fetch_agent.apply_squash(squash_done)
        if self.probe is not None:
            self.probe.agent(
                squash_time, "fabric", "squash_sync", squash_done - squash_time
            )
        return squash_done

    # ------------------------------------------------------------------ #
    # component-facing callbacks (used by RFIo)
    # ------------------------------------------------------------------ #

    def obs_peek(self, now: int) -> ObsPacket | SquashPacket | None:
        if self._pending_squashes and self._pending_squashes[0] <= now:
            return SquashPacket(core_time=self._pending_squashes[0], reason="squash")
        return self.obs_q.peek_visible(now)  # type: ignore[return-value]

    def obs_pop(self, now: int) -> ObsPacket | SquashPacket | None:
        if self._pending_squashes and self._pending_squashes[0] <= now:
            t = self._pending_squashes.pop(0)
            packet = SquashPacket(core_time=t, reason="squash")
            self.component.on_squash(packet)
            return packet
        head = self.obs_q.pop_visible(now)
        return None if head is None else head[1]  # type: ignore[return-value]

    def return_pop(self, now: int) -> Any | None:
        head = self.retq.pop_visible(now)
        return None if head is None else head[1]

    def pred_can_push(self) -> bool:
        # Occupancy is evaluated at the packet's pipe-exit time by push();
        # here just bound the total in-flight stream.
        return self.fetch_agent.pending_count() < self.params.queue_size * 4

    def pred_push(self, taken: bool, ready: int, tag: str) -> bool:
        if self.injector is not None:
            delivered, taken = self.injector.on_pred(taken)
            if not delivered:
                return True  # lost in transit: the component saw success
        return self.fetch_agent.push(taken, ready, tag)

    def pred_new_call(self) -> None:
        self.fetch_agent.new_call()

    def load_can_push(self) -> bool:
        return self.intq_is.can_push()

    def load_push(self, packet: Any, ready: int) -> bool:
        """Push into IntQ-IS; the caller has just passed :meth:`load_can_push`."""
        if self.injector is None:
            self.intq_is.push(ready, packet)
            return True
        packets = self.injector.on_load(packet)
        if not packets:
            return True  # lost in transit: the component saw success
        self.intq_is.push(ready, packets[0])
        for dup in packets[1:]:
            if self.intq_is.can_push():  # a full queue sheds the dup
                self.intq_is.push(ready, dup)
            else:
                self.intq_is.note_reject(ready)
        return True

    # ------------------------------------------------------------------ #
    # context isolation (Section 2.4)
    # ------------------------------------------------------------------ #

    def _flush_inflight(self) -> int:
        """Flush every queue and in-flight token; returns packets dropped.

        Shared by :meth:`deprogram` and the reconfiguration drain: nothing
        in flight — ObsQ packets, pending predictions and their fallback
        debt, MLB fills, un-flushed load returns, queued squash-done
        tokens — may leak into the next program's queues.  Per-slot by
        construction: one tenant's drain never touches a neighbour.
        """
        dropped = self.obs_q.clear()
        dropped += self.intq_is.clear()
        dropped += self.retq.clear()
        dropped += self.fetch_agent.reset()
        dropped += self.load_agent.reset()
        dropped += len(self._pending_squashes)
        self._pending_squashes.clear()
        return dropped

    def deprogram(self) -> None:
        """Remove the context's component from RF and the Agents.

        Section 2.4: "The system must not allow one context's custom
        component in RF to observe another context in the core.  This can
        be enforced by removing a context's custom component from RF and
        the Agents when that context is swapped out."  Every queue is
        flushed (nothing may be observed later) and the slot disables
        until :meth:`reprogram`.
        """
        self.enabled = False
        self.roi_active = False
        self.roi_fetch_active = False
        self._roi_changed()
        self.last_roi_value = None
        self._flush_inflight()

    def reprogram(self, now: int) -> None:
        """Re-synthesize the component when the context is swapped back in.

        The configuration bitstream rebuilds the component from scratch —
        no state survives a context switch (that is the isolation
        guarantee).  The ROI must be re-entered before the component
        intervenes again.
        """
        self.component = rebuild_component(
            self.bitstream,
            self.timings,
            self.load_agent._memory,
            self.params.component_overrides,
        )
        self.rf_cycle = max(self.rf_cycle, now // self.timings.clk_ratio)
        self.enabled = True

    # ------------------------------------------------------------------ #
    # self-healing reconfiguration (repro.pfm.reconfig)
    # ------------------------------------------------------------------ #

    @property
    def state(self) -> str:
        """Slot lifecycle state name ("active", "disabled", ...)."""
        if self.reconfig is not None:
            return self.reconfig.state.value
        return "active" if self.enabled else "disabled"

    def rearm_roi(self, now: int, roi_value: Any) -> None:
        """Replay the ROI-begin snoop to a freshly loaded component.

        ROI markers retire once per run (astar enters its fill loop a
        single time), so a hot-swapped component would otherwise wait
        forever for an ROI_BEGIN that never comes.  The recorded begin
        value is replayed through the normal observation path — the
        replacement arms itself exactly the way the original did.
        """
        self.roi_active = True
        self.roi_fetch_active = True
        self._roi_changed()
        packet = ObsPacket(
            kind=SnoopKind.ROI_BEGIN, tag="roi", pc=0, value=roi_value
        )
        self._obs_push_one(packet, now, droppable=False)

    # ------------------------------------------------------------------ #

    def queue_stats(self) -> dict[str, dict[str, int]]:
        """Per-queue counter summaries for this slot's four fabric queues.

        IntQ-F lives inside the Fetch Agent (predictions carry ready
        times through the delay pipeline rather than a TimedQueue), so
        its summary comes from the agent.  ObsQ-R additionally reports its
        ``full_rejects`` as ``dropped``: the observation packets the Retire
        Agent shed on back-pressure.
        """
        suffix = "" if self.index == 0 else f"@{self.index}"
        stats = {
            q.name: q.stats() for q in (self.obs_q, self.intq_is, self.retq)
        }
        stats[f"ObsQ-R{suffix}"]["dropped"] = self.obs_q.full_rejects
        stats[f"IntQ-F{suffix}"] = self.fetch_agent.stats()
        return stats

    def tenant_stats(self) -> dict[str, int]:
        """Per-tenant counter snapshot folded into ``SimStats``."""
        fa = self.fetch_agent
        la = self.load_agent
        ra = self.retire_agent
        rc = self.reconfig
        return {
            "priority": self.priority,
            "predictions_supplied": fa.predictions_supplied,
            "prediction_packets_dropped": fa.packets_dropped,
            "fetch_stall_cycles": fa.stall_cycles,
            "obs_pushes": self.obs_q.pushes,
            "obs_dropped": self.obs_q.full_rejects,
            "packets_built": ra.packets_built,
            "port_delay_cycles": ra.port_delay_cycles,
            "loads_issued": la.loads_issued,
            "prefetches_issued": la.prefetches_issued,
            "squashes_signalled": self.squashes_signalled,
            "rf_cycles": self.rf_cycle,
            "rst_evictions": self.rst_evictions,
            "fst_evictions": self.fst_evictions,
            "override_conflicts": self.override_conflicts,
            "sched_stall_cycles": self.sched_stall_cycles,
            "sched_preemptions": self.sched_preemptions,
            "watchdog_dead_declarations": self.watchdog.dead_declarations,
            "reconfigs": 0 if rc is None else rc.reconfigs,
            "enabled": int(self.enabled),
        }
