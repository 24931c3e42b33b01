"""Fault campaign: every built-in fault plan, detected and recovered.

Per workload the grid holds one plain-core baseline, one clean
PFM-with-watchdog point, and one ``[fault:P]`` point per
:data:`~repro.faults.plan.BUILTIN_PLANS` entry — all with the
graceful-degradation watchdog armed at the campaign thresholds below and
no recovery policy, so a dying component is amputated (§2.4).  These
points prove the watchdog *detects*: every plan degrades gracefully to
the core's own predictor.

The recovery workload (astar) adds the points that prove the
reconfiguration controller *recovers*: one ``[fault:P/recovery]`` twin
per plan with :func:`campaign_recovery` armed, so the fabric quiesces,
drains and hot-reloads the bitstream instead of dying, and one ``[swap]``
point — a *scheduled* same-bitstream swap mid-run on a fault-free fabric.

One oracle runs on every PFM point after the sweep completes: faults
and reloads corrupt *timing-domain hints* only, so the retired
architectural state must be bit-identical to the same-workload baseline
no matter what the fabric delivered.  The ``[swap]`` point must
moreover be ``arch_digest``-identical to the *clean* run.  A failing
oracle is a safety bug, not a degraded run, and aborts the campaign.

The rendered rows report each faulted run's IPC as a percentage of the
clean watchdog-enabled run on the same workload — the graceful part of
graceful degradation.  ``--json`` serializes the per-point stats plus
the digests and oracle verdicts deterministically (sorted keys, no
timestamps), byte-identical across ``--jobs`` values.
"""

from __future__ import annotations

import dataclasses

from repro.core.params import PFMParams
from repro.core.watchdog import RecoveryPolicy, WatchdogParams
from repro.experiments.pool import (
    SweepPoint,
    SweepPool,
    baseline_point,
    pfm_point,
    stats_to_dict,
)
from repro.experiments.report import ExperimentResult
from repro.faults import BUILTIN_PLANS, check_equivalence

#: Campaign workloads: astar and bfs-roads exercise the branch-prediction
#: component (squashes, FST overrides); libquantum exercises the
#: prefetch/load-injection path with no FST predictions at all.
FAULT_WORKLOADS = ("astar", "bfs-roads", "libquantum")

#: The workload that also runs the recovery points.  astar exercises the
#: full recovery surface — FST overrides (breaker trips), the squash
#: protocol (lost squash-done reloads), ROI re-arming after a swap, and
#: the injected-load path.  Pure-prefetch workloads never consult IntQ-F,
#: so the liveness triggers have nothing to save there.
RECOVERY_WORKLOAD = "astar"

#: Window used by ``faults --smoke`` (CI exercises the oracle, the
#: watchdog and the reconfiguration state machine, not the cycle model).
FAULT_SMOKE_WINDOW = 2_000


class OracleViolation(RuntimeError):
    """A faulted run retired different architectural state than baseline."""


def campaign_watchdog() -> WatchdogParams:
    """Watchdog thresholds the campaign arms on every PFM point.

    Calibrated so clean runs of every campaign workload trip nothing
    (tests/test_faults.py pins this): the fetch deadline sits well above
    healthy IntQ-F latency, accuracy 0.6 is far below the component's
    healthy windowed accuracy, and the MLB-full streak is 1.5x the
    buffer's 64-entry capacity (healthy fill bursts saturate at about
    capacity).
    """
    return WatchdogParams(
        fetch_timeout_cycles=256,
        squash_timeout_cycles=512,
        min_override_accuracy=0.6,
        mlb_full_streak=96,
    )


def campaign_recovery() -> RecoveryPolicy:
    """Recovery policy armed on every ``[fault:P/recovery]`` point.

    Three reloads with 2x backoff bound the revival budget at
    ``2048 + 4096 + 8192`` core cycles; ``reload_on_breaker`` scrubs
    hint-corrupting components, and two squash timeouts condemn a lossy
    handshake.  The watchdog is the same as on the no-recovery twin, so
    the only variable between the paired points is recovery.
    """
    return RecoveryPolicy(
        max_reloads=3,
        reload_on_breaker=True,
        squash_timeout_reload_after=2,
    )


def fault_points(
    window: int,
    workloads: tuple[str, ...] = FAULT_WORKLOADS,
    tenants: tuple = (),
) -> list[SweepPoint]:
    """Campaign grid.  With *tenants*, every PFM point hosts the
    co-tenants too: faults and recovery stay scoped to slot 0
    (co-tenants never inherit the fault plan or recovery policy), so the
    oracle then also proves per-slot faults and reloads leave the
    architectural stream untouched.
    """

    def point(label: str, name: str, plan=None,
              recovery: RecoveryPolicy | None = None) -> SweepPoint:
        pfm = PFMParams(
            watchdog=campaign_watchdog(),
            fault_plan=plan,
            recovery=recovery or RecoveryPolicy(),
            tenants=tenants,
        )
        return pfm_point(f"{name} [{label}]", name, window, pfm)

    points = []
    for name in workloads:
        recovers = name == RECOVERY_WORKLOAD
        points.append(baseline_point(name, window))
        points.append(point("clean", name))
        if recovers:
            swap = RecoveryPolicy(scheduled_reload_at=max(1, window // 4))
            points.append(point("swap", name, recovery=swap))
        for plan_name, plan in BUILTIN_PLANS.items():
            points.append(point(f"fault:{plan_name}", name, plan))
            if recovers:
                points.append(point(f"fault:{plan_name}/recovery", name,
                                    plan, campaign_recovery()))
    return points


def run_faults(
    window: int,
    pool: SweepPool,
    workloads: tuple[str, ...] = FAULT_WORKLOADS,
    tenants: tuple = (),
) -> tuple[ExperimentResult, dict]:
    """Run the campaign; return the rendered result and a JSON payload."""
    points = fault_points(window, workloads, tenants)
    stats = pool.run(points)

    result = ExperimentResult(
        experiment="Faults",
        title=(
            f"{len(BUILTIN_PLANS)} fault plans x {len(workloads)} workloads"
            f" (+ recovery twins and a scheduled swap on {RECOVERY_WORKLOAD})"
        ),
        unit="% of clean watchdog-enabled IPC (clean rows: % of baseline)",
    )
    payload: dict = {
        "window": window,
        "workloads": list(workloads),
        "plans": sorted(BUILTIN_PLANS),
        "watchdog": dataclasses.asdict(campaign_watchdog()),
        "recovery": dataclasses.asdict(campaign_recovery()),
        "points": {},
    }
    if tenants:
        payload["tenants"] = [spec.label() for spec in tenants]
    failures = []
    swap_mismatches = []
    recovered = paired = 0
    for point in points:
        point_stats = stats[point.label]
        entry = {
            "workload": point.workload,
            "key": point.key(),
            "ipc": point_stats.ipc,
            "arch_digest": point_stats.arch_digest,
            "stats": stats_to_dict(point_stats),
        }
        payload["points"][point.label] = entry
        if point.pfm is None:
            continue
        baseline = stats[f"baseline:{point.workload}"]
        verdict = check_equivalence(baseline, point_stats)
        entry["oracle_ok"] = verdict.ok
        if not verdict.ok:
            failures.append(f"{point.label}: {verdict.reason}")
        clean = stats[f"{point.workload} [clean]"]
        if point.label.endswith("[clean]"):
            result.add(point.label, 100.0 * point_stats.speedup_over(baseline))
            continue
        retained = 100.0 * point_stats.ipc / clean.ipc if clean.ipc else 0.0
        entry["ipc_retained_pct"] = retained
        result.add(point.label, retained)
        if point.pfm.recovery.active():
            entry["mean_cycles_to_recovery"] = (
                point_stats.reconfig_cycles / point_stats.reconfigs
                if point_stats.reconfigs
                else None
            )
        if point.label.endswith("[swap]"):
            # The architectural-invisibility pin: a mid-run same-bitstream
            # swap must be digest-identical to the *clean* run, not merely
            # to the plain baseline.
            invisible = point_stats.arch_digest == clean.arch_digest
            entry["swap_invisible"] = invisible
            if not invisible:
                swap_mismatches.append(point.label)
        if point.label.endswith("/recovery]"):
            paired += 1
            if (point_stats.reconfigs >= 1
                    and point_stats.fabric_state != "disabled"):
                recovered += 1
    payload["oracle_failures"] = failures
    payload["swap_mismatches"] = swap_mismatches
    if failures or swap_mismatches:
        raise OracleViolation(
            "architectural-equivalence oracle failed for "
            + "; ".join(failures + [
                f"{label}: scheduled swap architecturally visible"
                for label in swap_mismatches
            ])
        )
    checked = sum(1 for p in points if p.pfm is not None)
    result.notes = (
        f"oracle: {checked}/{checked} PFM points retired architectural"
        " state bit-identical to the plain baseline"
    )
    if paired:
        result.notes += (
            f"; scheduled swap digest-identical to clean; {recovered}/{paired}"
            " recovery points ended re-ACTIVE with >=1 reload"
        )
    return result, payload


def faults(window: int, pool: SweepPool) -> ExperimentResult:
    """Registry entry point (rendered result only)."""
    result, _ = run_faults(window, pool)
    return result
