"""Simulation statistics.

Everything the paper's tables and figures report is derived from these
counters: IPC (and speedup vs a baseline run), branch MPKI, FST/RST snoop
percentages inside the ROI (Tables 2 and 3), stall breakdowns, and the
event counts the energy model (Figure 18) consumes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields


def _slug(text: str) -> str:
    """Flatten an arbitrary label into a stable snake_case key segment."""
    return re.sub(r"[^a-z0-9]+", "_", text.lower()).strip("_")


@dataclass
class SimStats:
    """Counters for one simulation run."""

    instructions: int = 0
    cycles: int = 0

    # branches
    conditional_branches: int = 0
    branch_mispredicts: int = 0
    pfm_predicted_branches: int = 0
    pfm_mispredicts: int = 0
    pfm_fallback_predictions: int = 0

    # memory
    loads: int = 0
    stores: int = 0
    load_hits_by_level: dict[str, int] = field(default_factory=dict)
    store_forwards: int = 0
    disambiguation_squashes: int = 0

    ras_mispredicts: int = 0
    btb_miss_bubbles: int = 0

    # fetch stalls
    fetch_stall_pfm_cycles: int = 0  # waiting on IntQ-F (§2.2)
    fetch_stall_icache_cycles: int = 0
    squash_refill_cycles: int = 0

    # retire / PFM agents
    retire_stall_squash_sync_cycles: int = 0
    obs_packets: int = 0
    obs_dest_value: int = 0
    obs_store_value: int = 0
    obs_branch_outcome: int = 0
    prf_port_delay_cycles: int = 0
    pipeline_squashes: int = 0

    # ROI accounting (Tables 2 and 3)
    fetched_in_roi: int = 0
    fetched_fst_hits: int = 0
    retired_in_roi: int = 0
    retired_rst_hits: int = 0

    # Load Agent
    agent_loads: int = 0
    agent_prefetches: int = 0
    agent_load_misses: int = 0
    mlb_replays: int = 0

    # microarchitectural event counts (energy model inputs)
    issued_ops: int = 0
    prf_reads: int = 0
    prf_writes: int = 0

    memory_levels: dict[str, dict[str, float]] = field(default_factory=dict)

    # graceful-degradation watchdog (repro.core.watchdog)
    watchdog_fetch_timeouts: int = 0
    watchdog_dead_declarations: int = 0
    watchdog_squash_timeouts: int = 0
    watchdog_override_disables: int = 0
    watchdog_overrides_suppressed: int = 0
    watchdog_load_throttle_events: int = 0
    watchdog_loads_dropped: int = 0

    # self-healing reconfiguration (repro.pfm.reconfig)
    reconfigs: int = 0
    reconfig_cycles: int = 0
    reloads_abandoned: int = 0
    drain_stall_cycles: int = 0
    #: Final fabric state machine state ("active", "disabled", ...);
    #: empty for plain-core runs.
    fabric_state: str = ""

    # multi-tenant fabric (repro.pfm.tenancy)
    #: Observation-crossing grants the fabric scheduler delayed, in core
    #: cycles summed across tenants (0 for single-tenant runs — the
    #: scheduler is pass-through with one slot).
    sched_obs_stall_cycles: int = 0
    #: Priority preemptions: a high-priority tenant evicted a lower-
    #: priority grant from a full crossing cycle.
    sched_preemptions: int = 0
    #: Fetch-override conflicts: overlapping FST PCs where a lower-
    #: priority tenant lost the override to a higher-priority one.
    fetch_override_conflicts: int = 0
    #: Per-tenant counter snapshots keyed ``<slot>:<tenant>`` (flattened
    #: as ``tenant_<slug>_<stat>``); empty for plain-core runs and kept
    #: empty for single-tenant fabric runs so seed-era exports are
    #: unchanged except for the three scalar counters above.
    tenant_stats: dict[str, dict[str, int]] = field(default_factory=dict)

    # fault injection (repro.faults): events fired, by kind
    fault_events: dict[str, int] = field(default_factory=dict)
    #: Injected-load addresses the Load Agent had to align/clamp before
    #: use (non-zero only under address-corrupting faults).
    agent_loads_sanitized: int = 0

    #: Digest of the retired instruction stream + final architectural
    #: state (registers + memory); see :mod:`repro.core.archstate`.  Two
    #: runs retire identical architectural state iff digests are equal —
    #: the invariant the fault-injection oracle checks.
    arch_digest: str = ""

    #: Per-queue counters from the fabric's TimedQueues plus the Fetch
    #: Agent's IntQ-F: pushes, pops, max_occupancy (high-water mark),
    #: backpressure, full_rejects, dropped.  Empty for plain-core runs.
    queue_stats: dict[str, dict[str, int]] = field(default_factory=dict)

    #: Telemetry snapshot (:meth:`repro.telemetry.TelemetryHub.snapshot`)
    #: when the run was configured with ``SimConfig.telemetry``; plain
    #: JSON-safe dicts so the payload survives worker pickling.  None when
    #: no probes were attached.
    telemetry: dict | None = None

    def __post_init__(self) -> None:
        # Run provenance, deliberately NOT dataclass fields: which
        # execution backend produced the numbers and how often a
        # requested vectorized backend had to fall back to python.  The
        # backend equivalence harness pins every exported counter to be
        # byte-identical across backends, so provenance must stay out of
        # ``dataclasses.asdict`` (goldens, result-store entries)
        # and :meth:`to_dict` — both iterate ``fields()`` and therefore
        # skip these automatically.
        self.backend: str = "python"
        self.backend_fallbacks: int = 0

    # ------------------------------------------------------------------ #
    # derived metrics
    # ------------------------------------------------------------------ #

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def mpki(self) -> float:
        """Branch mispredictions per kilo-instruction."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.branch_mispredicts / self.instructions

    @property
    def fst_hit_pct(self) -> float:
        """% of fetched instructions in the ROI that hit the FST (Table 2/3)."""
        if not self.fetched_in_roi:
            return 0.0
        return 100.0 * self.fetched_fst_hits / self.fetched_in_roi

    @property
    def rst_hit_pct(self) -> float:
        """% of retired instructions in the ROI that hit the RST (Table 2/3)."""
        if not self.retired_in_roi:
            return 0.0
        return 100.0 * self.retired_rst_hits / self.retired_in_roi

    @property
    def pfm_accuracy(self) -> float:
        if not self.pfm_predicted_branches:
            return 0.0
        return 1.0 - self.pfm_mispredicts / self.pfm_predicted_branches

    def to_dict(self) -> dict[str, float | int | str]:
        """Flat, stably ordered export of every counter + derived metric.

        Dict-valued counters are flattened with slugged key segments
        (``load_hits_l1``, ``mem_l2_misses``, ``queue_obsq_r_pushes``,
        ``fault_drop_return``); the telemetry event snapshot is excluded
        (it is bulk event data, not a scalar metric).  Keys are sorted so
        CSV columns and manifest diffs are stable across runs.
        """
        flat: dict[str, float | int | str] = {}
        for f in fields(self):
            if f.name == "telemetry":
                continue
            value = getattr(self, f.name)
            if f.name == "load_hits_by_level":
                for level, count in value.items():
                    flat[f"load_hits_{_slug(level)}"] = count
            elif f.name == "memory_levels":
                for level, level_stats in value.items():
                    for stat, v in level_stats.items():
                        flat[f"mem_{_slug(level)}_{_slug(stat)}"] = v
            elif f.name == "fault_events":
                for kind, count in value.items():
                    flat[f"fault_{_slug(kind)}"] = count
            elif f.name == "queue_stats":
                for queue, queue_stats in value.items():
                    for stat, v in queue_stats.items():
                        flat[f"queue_{_slug(queue)}_{_slug(stat)}"] = v
            elif f.name == "tenant_stats":
                for tenant, tenant_stats in value.items():
                    for stat, v in tenant_stats.items():
                        flat[f"tenant_{_slug(tenant)}_{_slug(stat)}"] = v
            else:
                flat[f.name] = value
        flat["ipc"] = self.ipc
        flat["mpki"] = self.mpki
        flat["fst_hit_pct"] = self.fst_hit_pct
        flat["rst_hit_pct"] = self.rst_hit_pct
        flat["pfm_accuracy"] = self.pfm_accuracy
        return dict(sorted(flat.items()))

    def speedup_over(self, baseline: "SimStats") -> float:
        """IPC improvement relative to *baseline*, as a fraction.

        The paper normalizes to the plain core at 0%; a return of 1.54
        means +154% IPC.
        """
        if baseline.ipc == 0:
            return 0.0
        return self.ipc / baseline.ipc - 1.0

    def summary(self) -> str:
        lines = [
            f"instructions     {self.instructions}",
            f"cycles           {self.cycles}",
            f"IPC              {self.ipc:.3f}",
            f"branch MPKI      {self.mpki:.2f}",
            f"cond branches    {self.conditional_branches}"
            f" (mispredicted {self.branch_mispredicts})",
            f"loads/stores     {self.loads}/{self.stores}",
            f"squashes         {self.pipeline_squashes}"
            f" (disambiguation {self.disambiguation_squashes})",
        ]
        if self.pfm_predicted_branches:
            lines += [
                f"PFM predictions  {self.pfm_predicted_branches}"
                f" (mispredicted {self.pfm_mispredicts},"
                f" fallbacks {self.pfm_fallback_predictions})",
                f"FST hit % (ROI)  {self.fst_hit_pct:.1f}",
                f"RST hit % (ROI)  {self.rst_hit_pct:.1f}",
                f"fetch stall PFM  {self.fetch_stall_pfm_cycles} cycles",
            ]
        if (
            self.watchdog_fetch_timeouts
            or self.watchdog_override_disables
            or self.watchdog_load_throttle_events
        ):
            lines.append(
                f"watchdog         {self.watchdog_fetch_timeouts} fetch"
                f" timeouts, {self.watchdog_override_disables} override"
                f" disables, {self.watchdog_load_throttle_events} load"
                f" throttles"
            )
        if self.fault_events:
            fired = sum(self.fault_events.values())
            lines.append(f"faults injected  {fired}")
        if self.reconfigs or self.reloads_abandoned:
            lines.append(
                f"reconfigs        {self.reconfigs}"
                f" ({self.reconfig_cycles} cycles,"
                f" {self.reloads_abandoned} abandoned,"
                f" final state {self.fabric_state or 'active'})"
            )
        return "\n".join(lines)
