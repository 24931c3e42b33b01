"""Runtime partial reconfiguration: quiesce → drain → hot-swap → resume.

The paper programs the fabric once, before the run; the only remedy the
Section 2.4 chicken switch (and the PR 2 watchdog refinements) offer a
sick component is permanent disablement.  This module is the constructive
twin of that path — the detect-and-amputate machinery becomes a
detect-drain-reload-recover loop, following the runtime-reconfigurable
direction of "Supporting Dynamic Control-Flow Execution for Runtime
Reconfigurable Processors" (PAPERS.md) with the reload latency costed
like LUTstructions' self-loading instructions.

State machine (one :class:`ReconfigController` per fabric, built only
when ``PFMParams.recovery`` is active)::

    ACTIVE ──trigger──▶ QUIESCING ──▶ DRAINED ──▶ LOADING ──▶ ACTIVE
       │                                                        │
       └────────────── reload budget exhausted ──▶ DISABLED ◀───┘

* **Quiesce/drain** — new FST/RST traffic is refused (the ``ready`` gate
  in the fabric's predict/observe paths), a squash packet is sent through
  the normal ObsQ-R bypass so the component rolls back, and the fabric's
  RF clock runs until every queue, the MLB, and in-flight snoop state
  settle — or :data:`DRAIN_TIMEOUT_CYCLES` expires (a frozen clkC never
  drains on its own).  Whatever is still in flight is then force-flushed:
  nothing may leak into the replacement's queues.
* **Load** — the replacement component is re-synthesized from the
  registry bitstream (:func:`repro.registry.components.rebuild_component`)
  under the :data:`RECONFIG_LATENCY_CYCLES` cost model, with exponential
  backoff (:data:`RELOAD_BACKOFF_FACTOR`) for failure-triggered reloads.
* **Resume** — the watchdog's per-instance liveness state is cleared
  (:meth:`~repro.core.watchdog.Watchdog.on_reload`), and the recorded
  ROI-begin observation is replayed so a mid-ROI swap re-arms the
  component (ROI markers retire once per run).

Triggers come from the watchdog via :class:`~repro.core.watchdog.
RecoveryPolicy`: dead-component declarations, RF-budget exhaustion,
override-accuracy breaker trips (level-triggered flag polled here — the
core layer never imports this module), repeated squash timeouts, and one
optional *scheduled* same-bitstream swap used by the fault campaign's
architectural-invisibility point.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from repro.registry.components import rebuild_component

if TYPE_CHECKING:
    from repro.core.watchdog import RecoveryPolicy
    from repro.pfm.tenancy import FabricSlot

#: Core cycles to load the configuration bitstream into the fabric (the
#: LUTstructions-style self-loading cost; drain time is extra).
RECONFIG_LATENCY_CYCLES = 2048
#: Exponential backoff: failure-triggered reload *k* (0-based) costs
#: ``RECONFIG_LATENCY_CYCLES * RELOAD_BACKOFF_FACTOR**k`` core cycles, so
#: a component that keeps dying gets progressively costlier to revive and
#: the budget runs out in bounded time.
RELOAD_BACKOFF_FACTOR = 2
#: Core-cycle patience while draining in-flight queue/MLB/snoop state
#: before the remainder is force-flushed (a frozen clkC never drains on
#: its own).
DRAIN_TIMEOUT_CYCLES = 512


class FabricState(enum.Enum):
    """Lifecycle of the fabric's loaded component."""

    ACTIVE = "active"
    QUIESCING = "quiescing"
    DRAINED = "drained"
    LOADING = "loading"
    DISABLED = "disabled"  # terminal: reload budget exhausted


class ReconfigController:
    """Drives quiesce/drain/hot-swap/resume for one fabric slot.

    Per-slot by construction: the controller only ever touches its own
    slot's queues, agents, and component, so one tenant's recovery never
    drains a healthy neighbour.

    Reloads run synchronously inside the triggering call (the one-pass
    timestamp-domain engine has no event loop to defer to); the *cost* is
    modeled by ``available_at`` — the core time before which the fabric
    refuses FST/RST traffic, so the core runs on its own predictor while
    the bitstream "loads".
    """

    def __init__(self, slot: "FabricSlot", policy: "RecoveryPolicy"):
        self.slot = slot
        self.policy = policy
        self.state = FabricState.ACTIVE
        #: Completed reloads (scheduled swaps included).
        self.reconfigs = 0
        #: Total core cycles spent between trigger and resume.
        self.reconfig_cycles = 0
        #: Reload requests refused because the budget was exhausted.
        self.reloads_abandoned = 0
        #: Core cycles spent waiting for in-flight state to settle.
        self.drain_stall_cycles = 0
        #: Failure-triggered reloads performed (the backoff exponent);
        #: scheduled swaps do not count against the budget.
        self.reload_attempts = 0
        #: Packets force-flushed across all drains.
        self.flushed_packets = 0
        #: ``(core_time, from_state, to_state, reason)`` per transition.
        self.transitions: list[tuple[int, str, str, str]] = []
        #: Core time the current/last reload completes; the fabric's
        #: predict/observe gates refuse traffic before it.
        self.available_at = 0
        self._squash_timeouts_seen = 0
        self._scheduled_done = False

    # ------------------------------------------------------------------ #
    # state machine
    # ------------------------------------------------------------------ #

    def _goto(self, now: int, state: FabricState, reason: str) -> None:
        if state is self.state:
            return
        self.transitions.append((now, self.state.value, state.value, reason))
        self.state = state
        probe = self.slot.probe
        if probe is not None:
            probe.agent(now, "fabric", f"reconfig_{state.value}", self.reconfigs)

    def ready(self, now: int) -> bool:
        """May the fabric accept FST/RST traffic at core time *now*?

        Also the trigger poll point: the engine is lazy (no global clock
        tick), so scheduled swaps and breaker trips are detected here, on
        the next snoop-table hit at or after their trigger time.
        """
        if self.state is FabricState.DISABLED:
            return False
        if now < self.available_at:
            return False
        pol = self.policy
        if (
            pol.scheduled_reload_at is not None
            and not self._scheduled_done
            and now >= pol.scheduled_reload_at
        ):
            self._scheduled_done = True
            self.reload(now, "scheduled-swap", scheduled=True)
            return self.state is not FabricState.DISABLED and now >= self.available_at
        wd = self.slot.watchdog
        if wd.breaker_trip_pending:
            wd.breaker_trip_pending = False
            if pol.reload_on_breaker:
                self.reload(now, "breaker-trip")
                return (
                    self.state is not FabricState.DISABLED
                    and now >= self.available_at
                )
        return True

    # ------------------------------------------------------------------ #
    # triggers
    # ------------------------------------------------------------------ #

    def on_component_dead(self, now: int, reason: str) -> bool:
        """Watchdog declared the component dead; True if a reload saved it."""
        return self.reload(now, reason)

    def on_squash_timeout(self, now: int) -> bool:
        """One watchdog squash timeout; reload at the policy threshold."""
        threshold = self.policy.squash_timeout_reload_after
        if threshold is None:
            return False
        self._squash_timeouts_seen += 1
        if self._squash_timeouts_seen < threshold:
            return False
        self._squash_timeouts_seen = 0
        return self.reload(now, "squash-timeout")

    # ------------------------------------------------------------------ #
    # the reload itself
    # ------------------------------------------------------------------ #

    def reload(self, now: int, reason: str, scheduled: bool = False) -> bool:
        """Quiesce, drain, hot-load a fresh component, resume.

        Returns True when the fabric comes back ACTIVE (at core time
        ``available_at``); False when the budget is exhausted and the
        fabric fell back to today's permanent disable.
        """
        if self.state is FabricState.DISABLED:
            return False
        pol = self.policy
        if not scheduled and self.reload_attempts >= pol.max_reloads:
            self.reloads_abandoned += 1
            self._goto(now, FabricState.DISABLED, f"abandoned:{reason}")
            self.slot.enabled = False
            return False

        slot = self.slot
        was_roi = slot.roi_active
        roi_value = slot.last_roi_value
        self._goto(now, FabricState.QUIESCING, reason)
        drained_at = self._drain(now)
        self._goto(drained_at, FabricState.DRAINED, reason)

        latency = RECONFIG_LATENCY_CYCLES
        if not scheduled:
            latency *= RELOAD_BACKOFF_FACTOR**self.reload_attempts
            self.reload_attempts += 1
        self._goto(drained_at, FabricState.LOADING, reason)
        resume = drained_at + latency
        c = slot.timings.clk_ratio
        injector = slot.injector
        if injector is not None:
            # The reload may itself be faulty: stalled, or dead on arrival.
            resume += injector.on_reconfig(resume // c)
        slot.component = rebuild_component(
            slot.bitstream,
            slot.timings,
            slot.load_agent._memory,
            slot.params.component_overrides,
        )
        slot.rf_cycle = max(slot.rf_cycle, -(-resume // c))
        slot.watchdog.on_reload()
        slot.enabled = True
        self.available_at = resume
        self.reconfigs += 1
        self.reconfig_cycles += resume - now
        self._goto(resume, FabricState.ACTIVE, reason)
        if was_roi:
            slot.rearm_roi(resume, roi_value)
        return True

    def _drain(self, start: int) -> int:
        """Settle in-flight state via the squash protocol; returns end time.

        The component sees a normal squash packet (through the ObsQ-R
        bypass) and rolls back; the RF clock then runs until the queues,
        the MLB, and the component are provably quiescent or the drain
        patience expires.  The squash/squash-done handshake cost
        ``(D + 3) * C`` is the drain's floor — quiescing is never cheaper
        than a pipeline squash.
        """
        slot = self.slot
        t = slot.timings
        c = t.clk_ratio
        slot._pending_squashes.append(start + c)
        slot.rf_cycle = max(slot.rf_cycle, start // c)
        limit = (start + DRAIN_TIMEOUT_CYCLES) // c
        while slot.rf_cycle < limit and not self._settled():
            if not slot._step_rf():
                break
        handshake_done = start + (t.delay + 3) * c
        end = max(t.core_time(slot.rf_cycle), handshake_done)
        self.drain_stall_cycles += end - start
        self.flushed_packets += slot._flush_inflight()
        return end

    def _settled(self) -> bool:
        """All queues empty, no in-flight loads, component idle."""
        slot = self.slot
        return (
            not slot._pending_squashes
            and slot.obs_q.occupancy == 0
            and slot.intq_is.occupancy == 0
            and slot.retq.occupancy == 0
            and slot.load_agent.in_flight == 0
            and slot.component.is_idle()
        )
