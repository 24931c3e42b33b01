"""Self-healing fabric: quiesce/drain/hot-swap state machine and recovery.

Three layers of assertions, mirroring the fault campaign's recovery claims:

* **Unit** — :class:`~repro.core.watchdog.RecoveryPolicy` validation, the
  controller's transition ledger, the Fetch/Load Agent flush-and-realign
  contracts a hot swap depends on, and the override breaker's backoff cap.
* **Recovery matrix** — the liveness fault plans run with and without a
  :class:`~repro.core.watchdog.RecoveryPolicy`: with recovery the fabric
  must end re-ACTIVE with at least one completed reload, retain strictly
  more IPC than its no-recovery twin, and stay architecturally equivalent
  to the plain baseline (recovery must never buy IPC with state).
* **Invisibility** — a scheduled mid-run same-bitstream swap retires an
  ``arch_digest`` identical to the unswapped run, and the whole fault
  campaign payload is byte-identical across ``SweepPool`` worker counts.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core import PFMParams, SimConfig, SuperscalarCore, simulate
from repro.core.stats import SimStats
from repro.core import watchdog as watchdog_module
from repro.core.watchdog import RecoveryPolicy, Watchdog, WatchdogParams
from repro.experiments.faults import (
    FAULT_SMOKE_WINDOW,
    campaign_recovery,
    campaign_watchdog,
    run_faults,
)
from repro.experiments.pool import SweepPool
from repro.faults import BUILTIN_PLANS, check_equivalence, get_plan
from repro.pfm.reconfig import RECONFIG_LATENCY_CYCLES, FabricState
from repro.workloads.astar import build_astar_workload

#: The recovery-matrix window: long enough past the fault trigger
#: (dead_at_rf_cycle=1000, i.e. core cycle 4000) plus the reload latency
#: (2048+ cycles) for the revived component to win IPC back.
WINDOW = 10_000


def astar_stats(
    pfm: PFMParams | None = None, window: int = WINDOW
) -> SimStats:
    workload = build_astar_workload(grid_width=64, grid_height=64)
    return simulate(workload, SimConfig(max_instructions=window, pfm=pfm))


def recovery_pfm(plan_name: str | None, recovery: RecoveryPolicy | None):
    return PFMParams(
        watchdog=campaign_watchdog(),
        fault_plan=None if plan_name is None else BUILTIN_PLANS[plan_name],
        recovery=recovery or RecoveryPolicy(),
    )


@pytest.fixture(scope="module")
def baseline() -> SimStats:
    return astar_stats()


# ---------------------------------------------------------------------- #
# policy validation
# ---------------------------------------------------------------------- #


def test_recovery_policy_validation():
    with pytest.raises(ValueError, match="max_reloads"):
        RecoveryPolicy(max_reloads=-1)
    with pytest.raises(ValueError, match="squash_timeout_reload_after"):
        RecoveryPolicy(squash_timeout_reload_after=0)
    with pytest.raises(ValueError, match="scheduled_reload_at"):
        RecoveryPolicy(scheduled_reload_at=-5)


def test_recovery_policy_activation():
    assert not RecoveryPolicy().active()
    assert RecoveryPolicy(max_reloads=1).active()
    assert RecoveryPolicy(scheduled_reload_at=100).active()
    assert campaign_recovery().active()


def test_inactive_policy_builds_no_controller():
    stats = astar_stats(recovery_pfm(None, None), window=1_500)
    # fabric_state reports through the legacy enabled flag
    assert stats.fabric_state == "active"
    assert stats.reconfigs == 0


# ---------------------------------------------------------------------- #
# state machine (transition ledger)
# ---------------------------------------------------------------------- #


def _run_core(pfm: PFMParams, window: int = WINDOW) -> SuperscalarCore:
    core = SuperscalarCore(
        build_astar_workload(grid_width=64, grid_height=64),
        SimConfig(max_instructions=window, pfm=pfm),
    )
    core.run()
    return core


def test_reload_walks_the_state_machine(baseline):
    core = _run_core(recovery_pfm("dead-component", campaign_recovery()))
    rc = core.fabric.slots[0].reconfig
    assert rc is not None and rc.reconfigs == 1
    assert rc.state is FabricState.ACTIVE
    walk = [(frm, to) for _, frm, to, _ in rc.transitions]
    assert walk == [
        ("active", "quiescing"),
        ("quiescing", "drained"),
        ("drained", "loading"),
        ("loading", "active"),
    ]
    reasons = {reason for _, _, _, reason in rc.transitions}
    assert reasons == {"dead-component"}
    # Timestamps are nondecreasing and the reload latency is visible
    # between the LOADING and ACTIVE edges.
    times = [ts for ts, _, _, _ in rc.transitions]
    assert times == sorted(times)
    assert times[-1] - times[-2] >= RECONFIG_LATENCY_CYCLES


def test_exhausted_budget_ends_disabled(baseline):
    # Zero headroom: every replacement arrives dead, one reload allowed.
    plan = dataclasses.replace(
        BUILTIN_PLANS["dead-component"], reconfig_dead_reloads=10
    )
    pfm = PFMParams(
        watchdog=campaign_watchdog(),
        fault_plan=plan,
        recovery=RecoveryPolicy(max_reloads=1),
    )
    core = _run_core(pfm)
    rc = core.fabric.slots[0].reconfig
    assert rc.state is FabricState.DISABLED
    assert rc.reloads_abandoned == 1
    assert rc.reconfigs == 1  # the one (dead-on-arrival) reload completed
    assert rc.transitions[-1][2] == "disabled"
    assert rc.transitions[-1][3].startswith("abandoned:")
    assert not core.fabric.slots[0].enabled
    # Permanent disable is the legacy fallback: still equivalent & done.
    core._finalize()
    stats = core.stats
    assert stats.fabric_state == "disabled"
    assert stats.reloads_abandoned == 1
    assert check_equivalence(baseline, stats).ok


# ---------------------------------------------------------------------- #
# agent flush contracts (satellite: nothing leaks across a deprogram)
# ---------------------------------------------------------------------- #


def _loaded_fabric(window: int = 8_000):
    core = _run_core(PFMParams(delay=0), window=window)
    return core.fabric


def test_deprogram_drops_inflight_obs_packets():
    """In-flight ObsQ-R/ObsQ-EX packets must die with their context."""
    fabric = _loaded_fabric()
    slot = fabric.slots[0]
    now = 10**6
    # Park live packets in both observation queues plus a pending
    # prediction, then deprogram: every queue must be empty and every
    # drop accounted, so nothing can be observed by the next context.
    from repro.pfm.packets import ObsPacket
    from repro.pfm.snoop import SnoopKind

    slot.obs_q.push(
        now, ObsPacket(kind=SnoopKind.DEST_VALUE, tag="t", pc=0x40, value=1.0)
    )
    slot.fetch_agent.push(True, now, "waymap:0")
    assert slot.obs_q.occupancy >= 1
    dropped_before = slot.fetch_agent.packets_dropped
    fabric.deprogram()
    assert slot.obs_q.occupancy == 0
    assert slot.intq_is.occupancy == 0
    assert slot.retq.occupancy == 0
    assert slot.fetch_agent.pending_count() == 0
    assert slot.load_agent.in_flight == 0
    # The parked prediction was accounted as a drop, not delivered.
    assert slot.fetch_agent.packets_dropped > dropped_before
    # And the disabled fabric supplies nothing afterwards.
    assert slot.predict_entry("waymap:0", now + 2) is None


def test_deprogram_drops_pending_squash_done_tokens():
    """Queued squash packets must not reach the next program's component."""
    fabric = _loaded_fabric()
    slot = fabric.slots[0]
    now = 10**6
    assert slot.roi_active
    fabric.on_core_squash(now, "branch")
    assert slot._pending_squashes  # token queued for the component
    fabric.deprogram()
    assert slot._pending_squashes == []
    # The component never sees a stale squash: obs_peek finds nothing.
    assert slot.obs_peek(now + 10**6) is None


def test_fetch_agent_reset_realigns_call_counters():
    """The flush-and-realign contract for hot swaps (see FetchAgent.reset).

    Whatever call the consumer is in when the swap hits, the replacement's
    first ``new_call`` must adopt that position — a blind increment drifts
    whenever the reload window swallows a worklist snoop.
    """
    from repro.pfm.fetch_agent import FetchAgent

    agent = FetchAgent(queue_size=8, clk_ratio=4, width=4)
    for _ in range(3):
        agent.on_call_marker()
        agent.new_call()
    agent.push(True, 100, "tag")
    assert agent.consumer_call == 3 and agent.producer_call == 3
    dropped = agent.reset()
    assert dropped == 1
    assert agent.pending_count() == 0
    # Straddle case A: the consumer advances past a marker while the
    # bitstream is loading, then the fresh component starts its call.
    agent.on_call_marker()
    agent.new_call()
    assert agent.producer_call == agent.consumer_call == 4
    # Subsequent calls increment normally again.
    agent.on_call_marker()
    agent.new_call()
    assert agent.producer_call == agent.consumer_call == 5


def test_fetch_agent_reset_without_consumer_motion():
    """Straddle case B: no marker crosses the reload window."""
    from repro.pfm.fetch_agent import FetchAgent

    agent = FetchAgent(queue_size=8, clk_ratio=4, width=4)
    agent.on_call_marker()
    agent.new_call()
    agent.reset()
    # The replacement's first call realigns to the current consumer call
    # instead of running ahead (which would trip the strict invariant).
    agent.new_call()
    assert agent.producer_call == agent.consumer_call == 1
    agent.push(True, 10, "waymap:0")
    assert agent.try_pop("waymap:0", 20) == (True, 20)


def test_load_agent_reset_drops_inflight_returns():
    la = _loaded_fabric().slots[0].load_agent
    la._pending_returns.append((10**6, object()))
    la._mlb_fills.append(10**6)
    in_flight = len(la._pending_returns)
    dropped = la.reset()
    assert dropped == in_flight >= 1
    assert la._pending_returns == []
    assert la.mlb_occupancy == 0


# ---------------------------------------------------------------------- #
# breaker backoff cap (satellite: watchdog regression)
# ---------------------------------------------------------------------- #


def test_breaker_trial_backoff_is_capped(monkeypatch):
    """Repeated trial-window re-trips double the suppression period only
    up to ``MAX_OVERRIDE_DISABLE_PREDICTIONS`` — never beyond."""
    monkeypatch.setattr(watchdog_module, "ACCURACY_WINDOW", 4)
    monkeypatch.setattr(watchdog_module, "OVERRIDE_DISABLE_PREDICTIONS", 256)
    monkeypatch.setattr(
        watchdog_module, "MAX_OVERRIDE_DISABLE_PREDICTIONS", 4096
    )
    wd = Watchdog(WatchdogParams(min_override_accuracy=0.9))

    def trip():
        for _ in range(4):
            wd.record_override(correct=False)

    def drain_suppression():
        while not wd.overrides_allowed():
            wd.note_suppressed()

    periods = []
    for _ in range(8):  # 256 * 2**8 would blow far past the cap
        trip()
        assert not wd.overrides_allowed()
        periods.append(wd._suppress_remaining)
        drain_suppression()
        assert wd.breaker_trip_pending  # level-triggered flag latched
        wd.breaker_trip_pending = False
    assert periods[0] == 256
    assert max(periods) == 4096
    assert periods == sorted(periods)  # monotone up to the cap
    # Once capped, further re-trips hold the line.
    assert periods[-1] == periods[-2] == 4096
    # A reload clears the hysteresis back to the base period.
    wd.on_reload()
    assert wd.overrides_allowed()
    trip()
    assert wd._suppress_remaining == 256


# ---------------------------------------------------------------------- #
# recovery matrix: fault plan x {no-recovery, recovery}
# ---------------------------------------------------------------------- #

#: Liveness plans where a reload provably wins IPC back within WINDOW.
RECOVERABLE_PLANS = ("dead-component", "lost-squash-done", "delayed-reconfig")


@pytest.mark.parametrize("plan_name", RECOVERABLE_PLANS)
def test_recovery_beats_no_recovery(plan_name, baseline):
    no_rec = astar_stats(recovery_pfm(plan_name, None))
    rec = astar_stats(recovery_pfm(plan_name, campaign_recovery()))
    # The fabric came back and stayed back.
    assert rec.reconfigs >= 1
    assert rec.fabric_state == "active"
    assert rec.reconfig_cycles > 0
    assert rec.drain_stall_cycles > 0
    # Strictly more IPC than detect-and-amputate alone.
    assert rec.ipc > no_rec.ipc, (
        f"{plan_name}: recovery {rec.ipc:.4f} <= no-recovery {no_rec.ipc:.4f}"
    )
    # Recovery never buys IPC with architectural state.
    assert check_equivalence(baseline, no_rec).ok
    assert check_equivalence(baseline, rec).ok


@pytest.mark.parametrize("plan_name", sorted(BUILTIN_PLANS))
def test_every_plan_equivalent_under_recovery(plan_name, baseline):
    """The oracle holds for *every* builtin plan with recovery armed."""
    stats = astar_stats(recovery_pfm(plan_name, campaign_recovery()))
    verdict = check_equivalence(baseline, stats)
    assert verdict.ok, f"{plan_name}: {verdict.reason}"


def test_delayed_reconfig_recovers_from_failed_reload(baseline):
    """Recovery-of-recovery: the first replacement is dead on arrival and
    the reload itself stalls; the second replacement sticks."""
    stats = astar_stats(recovery_pfm("delayed-reconfig", campaign_recovery()))
    assert stats.reconfigs == 2
    assert stats.fabric_state == "active"
    assert stats.reloads_abandoned == 0
    assert stats.fault_events.get("reconfig_dead_on_arrival") == 1
    assert stats.fault_events.get("reconfig_stall") == 2
    assert check_equivalence(baseline, stats).ok


def test_recovery_run_deterministic():
    pfm = recovery_pfm("delayed-reconfig", campaign_recovery())
    first = astar_stats(pfm)
    second = astar_stats(pfm)
    assert dataclasses.asdict(first) == dataclasses.asdict(second)


# ---------------------------------------------------------------------- #
# scheduled swap: architectural invisibility
# ---------------------------------------------------------------------- #


def test_scheduled_swap_is_architecturally_invisible(baseline):
    clean = astar_stats(recovery_pfm(None, None))
    swapped = astar_stats(
        recovery_pfm(None, RecoveryPolicy(scheduled_reload_at=WINDOW // 4))
    )
    assert swapped.reconfigs == 1
    assert swapped.fabric_state == "active"
    # Digest-identical to the *clean* fabric run, not just the baseline.
    assert swapped.arch_digest == clean.arch_digest == baseline.arch_digest
    assert swapped.instructions == clean.instructions
    # The swap costs cycles (it is not free) but leaks no state.
    assert swapped.ipc <= clean.ipc


# ---------------------------------------------------------------------- #
# fault campaign: determinism across worker counts
# ---------------------------------------------------------------------- #


def test_recovery_campaign_payload_identical_across_jobs():
    _, serial = run_faults(FAULT_SMOKE_WINDOW, SweepPool(jobs=1),
                           workloads=("astar",))
    _, parallel = run_faults(FAULT_SMOKE_WINDOW, SweepPool(jobs=4),
                             workloads=("astar",))
    assert json.dumps(serial, sort_keys=True) == json.dumps(
        parallel, sort_keys=True
    )
    # The payload covers every plan twice plus clean/swap/baseline rows.
    expected = len(BUILTIN_PLANS) * 2 + 3
    assert len(serial["points"]) == expected
    assert serial["oracle_failures"] == []
    assert serial["swap_mismatches"] == []
    assert serial["points"]["astar [swap]"]["swap_invisible"] is True
