"""Multi-tenant fabric: slots, partitioned tables, scheduler, oracle.

Four layers of assertions, mirroring the tentpole's claims:

* **Unit** — :class:`~repro.pfm.tenancy.TenantSpec` parsing/validation,
  partitioned snoop-table dispatch (slot-tagged hits, misses, capacity
  eviction, overlapping PCs across tenants), and the
  :class:`~repro.pfm.tenancy.FabricScheduler` arbitration contract
  (single-slot pass-through, weighted grants, priority preemption with
  per-tenant stall attribution).
* **Wiring** — the fabric's ROI flags read true while any slot's does,
  and ``TimedQueue`` diagnostics carry the owning tenant's label.
* **Oracle** — an observe-only co-tenant leaves the primary tenant's
  ``arch_digest`` byte-identical while seeing the full mirrored
  observation stream; faults + recovery on slot 0 with a live neighbour
  stay architecturally invisible and never touch the neighbour.
* **Determinism** — a two-tenant sweep payload is byte-identical across
  ``SweepPool`` worker counts.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest

from repro.core import PFMParams, SimConfig, SuperscalarCore, simulate
from repro.core.stats import SimStats
from repro.core.watchdog import RecoveryPolicy, WatchdogParams
from repro.experiments.faults import campaign_recovery, campaign_watchdog
from repro.faults import BUILTIN_PLANS, check_equivalence
from repro.pfm.queues import QueueFullError, TimedQueue
from repro.pfm.snoop import RetireSnoopTable, RSTEntry, SnoopKind
from repro.pfm.tenancy import (
    PRIORITY_CLASSES,
    FabricScheduler,
    PartitionedRST,
    TenantSpec,
    _evict_to_capacity,
    parse_tenant_spec,
    slot_params,
)
from repro.registry.tenants import TENANT_LAYOUTS
from repro.workloads.astar import build_astar_workload

WINDOW = 10_000

INTROSPECT = (parse_tenant_spec("introspect"),)


def astar_stats(pfm: PFMParams | None = None,
                window: int = WINDOW) -> SimStats:
    workload = build_astar_workload(grid_width=64, grid_height=64)
    return simulate(workload, SimConfig(max_instructions=window, pfm=pfm))


def make_core(pfm: PFMParams) -> SuperscalarCore:
    workload = build_astar_workload(grid_width=64, grid_height=64)
    return SuperscalarCore(workload, SimConfig(max_instructions=1_000, pfm=pfm))


# ---------------------------------------------------------------------- #
# TenantSpec parsing and validation
# ---------------------------------------------------------------------- #


def test_parse_tenant_spec_defaults_to_background():
    spec = parse_tenant_spec("introspect")
    assert spec.component == "introspect"
    assert spec.priority == PRIORITY_CLASSES["background"]


@pytest.mark.parametrize("text,priority", [
    ("introspect:high", 0),
    ("introspect:normal", 1),
    ("introspect:background", 2),
    ("introspect:7", 7),
])
def test_parse_tenant_spec_priorities(text, priority):
    assert parse_tenant_spec(text).priority == priority


def test_parse_tenant_spec_rejects_garbage():
    with pytest.raises(ValueError, match="high/normal/background"):
        parse_tenant_spec("introspect:urgent")
    with pytest.raises(ValueError, match="empty component"):
        parse_tenant_spec(":high")


def test_tenant_spec_validation():
    with pytest.raises(ValueError, match="non-empty"):
        TenantSpec(component="")
    with pytest.raises(ValueError, match="priority"):
        TenantSpec(component="x", priority=-1)
    with pytest.raises(ValueError, match="rst_capacity"):
        TenantSpec(component="x", rst_capacity=0)
    with pytest.raises(ValueError, match="fst_capacity"):
        TenantSpec(component="x", fst_capacity=-1)


def test_slot_params_inherits_budgets_never_faults():
    pfm = PFMParams(
        clk_ratio=2, width=2, delay=1, queue_size=16, port="LS1",
        fetch_policy="proceed",
        component_overrides={"cam_entries": 8},
        watchdog=campaign_watchdog(),
        fault_plan=BUILTIN_PLANS["dead-component"],
        recovery=campaign_recovery(),
        tenants=INTROSPECT,
    )
    # Exactly the primary's C/W/D/Q/P and fetch policy; faults, recovery,
    # watchdog thresholds, structure overrides and the tenant list never
    # propagate — the co-tenant gets the stock (inert) policies.
    assert slot_params(pfm) == PFMParams(
        clk_ratio=2, width=2, delay=1, queue_size=16, port="LS1",
        fetch_policy="proceed",
    )
    assert slot_params(pfm).recovery == RecoveryPolicy()
    assert slot_params(pfm).watchdog == WatchdogParams()


# ---------------------------------------------------------------------- #
# partitioned snoop tables
# ---------------------------------------------------------------------- #


def _fake_slot(index: int, priority: int, entries) -> SimpleNamespace:
    return SimpleNamespace(
        index=index,
        priority=priority,
        rst=RetireSnoopTable(list(entries)),
    )


def _rst(pc: int, tag: str) -> RSTEntry:
    return RSTEntry(pc=pc, kind=SnoopKind.DEST_VALUE, tag=tag)


def test_partitioned_table_tags_hits_with_slot():
    primary = _fake_slot(0, 0, [_rst(0x40, "a"), _rst(0x44, "b")])
    probe = _fake_slot(1, 2, [_rst(0x48, "p")])
    table = PartitionedRST([primary, probe])

    assert len(table) == 3
    hit = table.lookup(0x48)
    assert hit is not None and hit.slot is probe and hit.entry.tag == "p"
    assert hit.slot.index == 1 and hit.others == ()
    assert table.lookup(0x999) is None


def test_partitioned_table_overlapping_pcs_resolve_by_priority():
    primary = _fake_slot(0, 0, [_rst(0x40, "primary")])
    probe = _fake_slot(1, 2, [_rst(0x40, "mirror")])
    table = PartitionedRST([probe, primary])  # registration order irrelevant

    hit = table.lookup(0x40)
    assert hit.slot.index == 0 and hit.entry.tag == "primary"
    # Non-exclusive retire-side observation: the loser rides along.
    assert [(o.slot.index, o.entry.tag) for o in hit.others] == [(1, "mirror")]


def test_duplicate_pc_within_one_slot_still_raises():
    with pytest.raises(ValueError, match="duplicate"):
        RetireSnoopTable([_rst(0x40, "a"), _rst(0x40, "b")])


def test_evict_to_capacity_keeps_roi_markers():
    entries = [
        RSTEntry(pc=0x10, kind=SnoopKind.ROI_BEGIN, tag="roi:on"),
        _rst(0x20, "a"),
        _rst(0x24, "b"),
        _rst(0x28, "c"),
        RSTEntry(pc=0x30, kind=SnoopKind.ROI_END, tag="roi:off"),
    ]
    survivors, evicted = _evict_to_capacity(entries, 3, keep_roi=True)
    assert evicted == 2
    kinds = [e.kind for e in survivors]
    assert SnoopKind.ROI_BEGIN in kinds and SnoopKind.ROI_END in kinds
    assert [e.tag for e in survivors] == ["roi:on", "a", "roi:off"]
    # No capacity -> untouched.
    assert _evict_to_capacity(entries, None, keep_roi=True) == (entries, 0)


def test_tenant_rst_capacity_reaches_the_slot():
    pfm = PFMParams(tenants=(
        TenantSpec(component="introspect", rst_capacity=2),
    ))
    fabric = make_core(pfm).fabric
    probe = fabric.slots[1]
    assert len(probe.rst.entries) == 2
    assert probe.rst_evictions > 0
    # ROI markers survived the eviction (the probe must still arm).
    kinds = {e.kind for e in probe.rst.entries}
    assert SnoopKind.ROI_BEGIN in kinds


# ---------------------------------------------------------------------- #
# the contention-aware scheduler
# ---------------------------------------------------------------------- #


def _sched_slot(priority: int) -> SimpleNamespace:
    return SimpleNamespace(
        priority=priority,
        sched_debt=0,
        sched_stall_cycles=0,
        sched_preemptions=0,
    )


def test_scheduler_single_slot_is_pass_through():
    scheduler = FabricScheduler(cap=2)
    slot = _sched_slot(priority=0)
    scheduler.register(slot)
    for t in (0, 7, 7, 7, 7, 7):  # same-cycle floods included
        assert scheduler.grant_obs(slot, t) == t
    assert scheduler.stall_cycles == 0 and scheduler.preemptions == 0


def test_scheduler_weights_background_to_one_grant_per_cycle():
    scheduler = FabricScheduler(cap=2)
    primary, probe = _sched_slot(0), _sched_slot(2)
    scheduler.register(primary)
    scheduler.register(probe)
    # Background tenant: one grant per contested cycle, then next cycle.
    assert scheduler.grant_obs(probe, 100) == 100
    assert scheduler.grant_obs(probe, 100) == 101
    assert probe.sched_stall_cycles == 1
    # Top-priority tenant may fill the whole cycle (weight == cap == 2).
    assert scheduler.grant_obs(primary, 200) == 200
    assert scheduler.grant_obs(primary, 200) == 200
    assert primary.sched_stall_cycles == 0


def test_scheduler_priority_preemption_debits_the_victim():
    scheduler = FabricScheduler(cap=1)
    primary, probe = _sched_slot(0), _sched_slot(2)
    scheduler.register(primary)
    scheduler.register(probe)
    assert scheduler.grant_obs(probe, 100) == 100  # fills the cycle (cap 1)
    # The primary preempts rather than waiting behind the probe.
    assert scheduler.grant_obs(primary, 100) == 100
    assert scheduler.preemptions == 1 and probe.sched_preemptions == 1
    assert probe.sched_debt == 1
    # The victim's *next* request pays the debt.
    assert scheduler.grant_obs(probe, 200) == 201
    assert probe.sched_debt == 0 and probe.sched_stall_cycles == 1


# ---------------------------------------------------------------------- #
# wiring: fabric ROI flags and queue owner labels
# ---------------------------------------------------------------------- #


def test_fabric_reports_roi_active_while_any_slot_is():
    core = make_core(PFMParams(tenants=INTROSPECT))
    fabric = core.fabric
    assert not fabric.roi_fetch_active and not fabric.roi_active
    core.run()
    primary, probe = fabric.slots
    assert primary.roi_active and probe.roi_active
    assert fabric.roi_fetch_active and fabric.roi_active

    # Deprogramming the primary alone leaves tenant 1's ROI live.
    primary.deprogram()
    assert not primary.roi_active and not primary.roi_fetch_active
    assert fabric.roi_fetch_active and fabric.roi_active

    probe.deprogram()
    assert not fabric.roi_fetch_active and not fabric.roi_active


def test_timed_queue_diagnostics_carry_owner_label():
    anonymous = TimedQueue("ObsQ-R", capacity=1)
    owned = TimedQueue("ObsQ-R@1", capacity=1, owner="slot1:introspect")
    for queue in (anonymous, owned):
        queue.push(0, "x")
    with pytest.raises(QueueFullError) as anon_err:
        anonymous.push(1, "y")
    with pytest.raises(QueueFullError) as owned_err:
        owned.push(1, "y")
    assert "ObsQ-R:" in str(anon_err.value)
    assert "ObsQ-R@1[slot1:introspect]:" in str(owned_err.value)


def test_multi_tenant_queues_are_suffixed_and_owned():
    fabric = make_core(PFMParams(tenants=INTROSPECT)).fabric
    stats = fabric.queue_stats()
    assert "ObsQ-R" in stats and "ObsQ-R@1" in stats
    assert fabric.slots[1].obs_q.owner == "slot1:introspect"
    # Slot 0 keeps the legacy queue names (golden keys), owner included
    # only in diagnostics.
    assert fabric.slots[0].obs_q.name == "ObsQ-R"
    assert fabric.slots[0].obs_q.owner == "slot0:astar-custom-bp"


# ---------------------------------------------------------------------- #
# the observe-only oracle (PR 2's equivalence check, multi-tenant form)
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def solo() -> SimStats:
    return astar_stats(PFMParams())


@pytest.fixture(scope="module")
def cohosted() -> SimStats:
    return astar_stats(PFMParams(tenants=INTROSPECT))


def test_observer_tenant_is_architecturally_invisible(solo, cohosted):
    verdict = check_equivalence(solo, cohosted)
    assert verdict.ok, verdict.reason
    assert cohosted.arch_digest == solo.arch_digest


def test_observer_tenant_sees_the_mirrored_stream(solo, cohosted):
    tenants = cohosted.tenant_stats
    assert set(tenants) == {"0:astar-custom-bp", "1:introspect"}
    probe = tenants["1:introspect"]
    # The probe observed the same retired stream the primary built.
    assert probe["obs_pushes"] == tenants["0:astar-custom-bp"]["obs_pushes"]
    assert probe["obs_pushes"] > 0
    # ...without ever intervening.
    assert probe["predictions_supplied"] == 0
    assert probe["loads_issued"] == 0
    # Contention is attributed to the background tenant, not the primary.
    assert tenants["0:astar-custom-bp"]["sched_stall_cycles"] == 0
    # Single-tenant runs keep the seed-era export shape.
    assert solo.tenant_stats == {}
    assert solo.sched_obs_stall_cycles == 0


def test_overlapping_pcs_share_retirement_not_fetch(cohosted):
    # Every probe RST pc overlaps the primary's; the retire side is
    # non-exclusive, so no fetch-override conflicts can arise from an
    # FST-free observer.
    assert cohosted.fetch_override_conflicts == 0


def test_fetch_override_conflicts_charge_the_losing_tenant(monkeypatch, solo):
    # A co-tenant cloned from the primary's bitstream programs the same
    # FST PCs at background priority: every FST hit is a same-PC
    # override the primary wins and the clone loses.
    def fst_clone(primary, spec):
        return dataclasses.replace(primary, name=f"fst-clone({primary.name})")

    TENANT_LAYOUTS.names()  # autoload the built-in layouts first
    monkeypatch.setitem(TENANT_LAYOUTS._entries, "fst-clone", fst_clone)
    stats = astar_stats(PFMParams(tenants=(parse_tenant_spec("fst-clone"),)))

    assert stats.fetch_override_conflicts > 0
    tenants = stats.tenant_stats
    assert tenants["1:fst-clone"]["override_conflicts"] == (
        stats.fetch_override_conflicts
    )
    assert tenants["0:astar-custom-bp"]["override_conflicts"] == 0
    # The loser's late predictions are dropped, never consumed.
    assert tenants["1:fst-clone"]["predictions_supplied"] == 0
    assert stats.arch_digest == solo.arch_digest


# ---------------------------------------------------------------------- #
# per-slot recovery: kill one tenant, the neighbour never notices
# ---------------------------------------------------------------------- #


def test_per_slot_recovery_leaves_neighbour_untouched(solo):
    pfm = PFMParams(
        watchdog=campaign_watchdog(),
        fault_plan=BUILTIN_PLANS["dead-component"],
        recovery=campaign_recovery(),
        tenants=INTROSPECT,
    )
    stats = astar_stats(pfm)
    # Slot 0 died and was hot-reloaded back to life...
    assert stats.reconfigs >= 1
    assert stats.fabric_state == "active"
    # ...architecturally invisibly (recovery never buys IPC with state).
    assert check_equivalence(solo, stats).ok
    # The neighbour was never drained or reloaded, and its view of the
    # retired stream kept flowing throughout.
    probe = stats.tenant_stats["1:introspect"]
    assert probe["reconfigs"] == 0
    assert probe["watchdog_dead_declarations"] == 0
    assert probe["enabled"] == 1
    assert probe["obs_pushes"] > 0


def test_scheduled_swap_with_neighbour_stays_invisible(solo):
    pfm = PFMParams(
        recovery=RecoveryPolicy(scheduled_reload_at=WINDOW // 4),
        tenants=INTROSPECT,
    )
    stats = astar_stats(pfm)
    assert stats.reconfigs == 1
    assert check_equivalence(solo, stats).ok
    assert stats.tenant_stats["1:introspect"]["reconfigs"] == 0


# ---------------------------------------------------------------------- #
# determinism: two-tenant sweeps are byte-identical across worker counts
# ---------------------------------------------------------------------- #


def test_two_tenant_sweep_deterministic_across_jobs(tmp_path):
    from repro.experiments.pool import SweepPool
    from repro.experiments.sweep import payload_json, run_sweep

    kwargs = dict(
        window=2_000,
        workloads=("astar",),
        configs=("clk4_w1, delay0",),
        tenants=INTROSPECT,
    )
    _, serial = run_sweep(pool=SweepPool(jobs=1), **kwargs)
    _, fanned = run_sweep(pool=SweepPool(jobs=4), **kwargs)
    assert payload_json(serial) == payload_json(fanned)
    label = "astar [clk4_w1, delay0]"
    assert serial["points"][label]["oracle_ok"] is True
    assert serial["tenants"] == ["introspect:background"]
    # The tenanted point's key differs from its solo twin's (the tenant
    # tuple is part of the content hash).
    assert (serial["points"][label]["key"]
            != serial["points"][f"{label} [solo]"]["key"])


def test_tenants_survive_dataclass_round_trips():
    pfm = PFMParams(tenants=INTROSPECT)
    # asdict (content hashing) and replace (point construction) both work.
    flat = dataclasses.asdict(pfm)
    assert flat["tenants"][0]["component"] == "introspect"
    again = dataclasses.replace(pfm, tenants=())
    assert again.tenants == ()
    assert "introspect" in pfm.label() and "introspect" not in again.label()
