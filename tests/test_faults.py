"""Fault injection: plans, injector mechanics, the equivalence oracle.

The load-bearing property: every built-in fault plan — packets dropped,
duplicated, bit-flipped, stuck, lost squash-done, a frozen clkC, an MLB
squeezed to 2 entries — retires architectural state bit-identical to the
plain-core baseline.  Faults are timing-domain events; hints can never
leak into what the program computes.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import PFMParams, SimConfig, simulate
from repro.core.stats import SimStats
from repro.core.watchdog import WatchdogParams
from repro.experiments.faults import campaign_watchdog
from repro.faults import (
    BUILTIN_PLANS,
    FaultInjector,
    FaultPlan,
    check_equivalence,
    get_plan,
)
from repro.pfm.packets import LoadPacket, LoadReturn, ObsPacket
from repro.pfm.snoop import SnoopKind
from repro.workloads.astar import build_astar_workload

WINDOW = 1_500


def astar_stats(pfm: PFMParams | None = None) -> SimStats:
    workload = build_astar_workload(grid_width=64, grid_height=64)
    return simulate(workload, SimConfig(max_instructions=WINDOW, pfm=pfm))


@pytest.fixture(scope="module")
def baseline() -> SimStats:
    return astar_stats()


# ---------------------------------------------------------------------- #
# plan validation
# ---------------------------------------------------------------------- #


def test_plan_probability_validation():
    with pytest.raises(ValueError, match="obs_drop"):
        FaultPlan(obs_drop=1.5)
    with pytest.raises(ValueError, match="ret_corrupt"):
        FaultPlan(ret_corrupt=-0.1)


def test_plan_stuck_and_mlb_validation():
    with pytest.raises(ValueError, match="pred_stuck"):
        FaultPlan(pred_stuck="sideways")
    with pytest.raises(ValueError, match="mlb_entries_override"):
        FaultPlan(mlb_entries_override=0)


def test_plan_squash_done_delay_is_non_negative():
    with pytest.raises(ValueError, match="squash_done_delay"):
        FaultPlan(squash_done_delay=-1)


def test_get_plan_lookup_and_reseed():
    assert get_plan("chaos") is BUILTIN_PLANS["chaos"]
    reseeded = get_plan("chaos", seed=7)
    assert reseeded.seed == 7
    assert reseeded.obs_drop == BUILTIN_PLANS["chaos"].obs_drop
    with pytest.raises(ValueError, match="unknown fault plan"):
        get_plan("nope")


def test_watchdog_params_validation():
    with pytest.raises(ValueError):
        WatchdogParams(fetch_timeout_cycles=0)
    with pytest.raises(ValueError):
        WatchdogParams(min_override_accuracy=1.5)
    with pytest.raises(ValueError):
        WatchdogParams(mlb_full_streak=0)
    assert not WatchdogParams().active()
    assert campaign_watchdog().active()


# ---------------------------------------------------------------------- #
# injector mechanics (unit level)
# ---------------------------------------------------------------------- #


def _obs(value=12.0, taken=None) -> ObsPacket:
    return ObsPacket(
        kind=SnoopKind.DEST_VALUE, tag="t", pc=0x40, value=value, taken=taken
    )


def test_stuck_taken_forces_direction():
    injector = FaultInjector(get_plan("stuck-taken"))
    for original in (True, False, False, True):
        delivered, taken = injector.on_pred(original)
        assert delivered and taken is True
    assert injector.counts["pred_stuck"] == 4


def test_obs_drop_and_dup_fan_out():
    injector = FaultInjector(FaultPlan(name="all-drop", obs_drop=1.0))
    assert injector.on_obs(_obs()) == []
    injector = FaultInjector(FaultPlan(name="all-dup", obs_dup=1.0))
    fanned = injector.on_obs(_obs())
    assert len(fanned) == 2
    assert fanned[0] == fanned[1]
    assert fanned[0] is not fanned[1]


def test_corrupt_preserves_value_type():
    injector = FaultInjector(FaultPlan(name="all-corrupt", obs_corrupt=1.0))
    (packet,) = injector.on_obs(_obs(value=12.0))
    assert isinstance(packet.value, float)
    assert packet.value != 12.0
    injector = FaultInjector(FaultPlan(name="all-ret", ret_corrupt=1.0))
    ret = injector.on_return(LoadReturn(ident=1, value=5, address=64))
    assert isinstance(ret.value, int)
    assert ret.value != 5


def test_load_corrupt_yields_int_address():
    injector = FaultInjector(FaultPlan(name="all-load", load_corrupt=1.0))
    (packet,) = injector.on_load(
        LoadPacket(ident=1, address=128, is_prefetch=False)
    )
    assert isinstance(packet.address, int)
    assert packet.address != 128


def test_frozen_component_counts_once():
    injector = FaultInjector(FaultPlan(name="dead", dead_at_rf_cycle=10))
    assert not injector.component_frozen(9)
    assert injector.component_frozen(10)
    assert injector.component_frozen(11)
    assert injector.counts["component_frozen"] == 1


def test_mlb_entries_override():
    assert FaultInjector(get_plan("mlb-thrash")).mlb_entries(64) == 2
    assert FaultInjector(get_plan("chaos")).mlb_entries(64) == 64


def test_seed_changes_decision_stream():
    a = FaultInjector(get_plan("chaos", seed=0))
    b = FaultInjector(get_plan("chaos", seed=1))
    decisions_a = [a.on_pred(True) for _ in range(200)]
    decisions_b = [b.on_pred(True) for _ in range(200)]
    assert decisions_a != decisions_b
    # same seed: bit-identical decision stream (process-independent)
    c = FaultInjector(get_plan("chaos", seed=0))
    assert decisions_a == [c.on_pred(True) for _ in range(200)]


# ---------------------------------------------------------------------- #
# the oracle itself
# ---------------------------------------------------------------------- #


def test_oracle_accepts_identical_digests():
    a = SimStats(instructions=10, cycles=20, arch_digest="d" * 64)
    b = SimStats(instructions=10, cycles=99, arch_digest="d" * 64)
    verdict = check_equivalence(a, b)
    assert verdict and verdict.ok


def test_oracle_rejects_digest_mismatch():
    a = SimStats(instructions=10, arch_digest="a" * 64)
    b = SimStats(instructions=10, arch_digest="b" * 64)
    verdict = check_equivalence(a, b)
    assert not verdict
    assert "leaked" in verdict.reason


def test_oracle_rejects_count_mismatch_and_missing_digest():
    a = SimStats(instructions=10, arch_digest="a" * 64)
    b = SimStats(instructions=11, arch_digest="a" * 64)
    assert "instruction counts" in check_equivalence(a, b).reason
    assert "missing" in check_equivalence(a, SimStats(instructions=10)).reason


def test_digest_is_always_on(baseline):
    assert len(baseline.arch_digest) == 64


# ---------------------------------------------------------------------- #
# end-to-end: every built-in plan is architecturally invisible
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("plan_name", sorted(BUILTIN_PLANS))
def test_builtin_plan_architecturally_equivalent(plan_name, baseline):
    pfm = PFMParams(
        fault_plan=BUILTIN_PLANS[plan_name], watchdog=campaign_watchdog()
    )
    faulted = astar_stats(pfm)
    verdict = check_equivalence(baseline, faulted)
    assert verdict.ok, f"{plan_name}: {verdict.reason}"


def test_clean_watchdog_run_trips_nothing(baseline):
    stats = astar_stats(PFMParams(watchdog=campaign_watchdog()))
    assert stats.watchdog_dead_declarations == 0
    assert stats.watchdog_override_disables == 0
    assert stats.watchdog_load_throttle_events == 0
    assert stats.watchdog_squash_timeouts == 0
    assert stats.fault_events == {}
    assert check_equivalence(baseline, stats).ok


def test_numpy_backend_falls_back_under_fault_and_watchdog_knobs():
    """The vectorized backend refuses fabric-carrying runs: a pinned
    ``backend="numpy"`` with a FaultPlan or watchdog silently (but
    countably) runs the reference engine instead."""
    from repro.backends import have_numpy
    from repro.core import CoreParams
    from repro.registry import build_workload

    if not have_numpy():
        pytest.skip("numpy not installed")

    def run(pfm: PFMParams | None) -> SimStats:
        return simulate(
            build_workload("astar"),
            SimConfig(
                core=CoreParams(backend="numpy"),
                max_instructions=WINDOW,
                pfm=pfm,
            ),
        )

    # Trace-replayable plain run: numpy really engages.
    plain = run(None)
    assert plain.backend == "numpy"
    assert plain.backend_fallbacks == 0

    for pfm in (
        PFMParams(fault_plan=get_plan("drop-obs")),
        PFMParams(watchdog=campaign_watchdog()),
        PFMParams(
            fault_plan=get_plan("dead-component"),
            watchdog=campaign_watchdog(),
        ),
    ):
        stats = run(pfm)
        assert stats.backend == "python"
        assert stats.backend_fallbacks == 1
        # The fallback is the reference engine: still architecturally
        # equivalent to the numpy-executed plain run.
        assert check_equivalence(plain, stats).ok


def test_dead_component_completes_via_fallback(baseline):
    pfm = PFMParams(
        fault_plan=get_plan("dead-component"), watchdog=campaign_watchdog()
    )
    stats = astar_stats(pfm)  # completing at all is half the assertion
    assert stats.instructions == baseline.instructions
    assert stats.watchdog_dead_declarations == 1
    assert stats.pfm_fallback_predictions > 0
    assert check_equivalence(baseline, stats).ok


def test_lost_squash_done_bounded_by_watchdog():
    pfm = PFMParams(
        fault_plan=get_plan("lost-squash-done"), watchdog=campaign_watchdog()
    )
    stats = astar_stats(pfm)
    assert stats.fault_events.get("squash_done_lose", 0) > 0
    assert stats.watchdog_squash_timeouts > 0


def test_fault_run_deterministic():
    pfm = PFMParams(
        fault_plan=get_plan("chaos"), watchdog=campaign_watchdog()
    )
    first = astar_stats(pfm)
    second = astar_stats(pfm)
    assert dataclasses.asdict(first) == dataclasses.asdict(second)
    assert first.fault_events  # chaos actually fired
