"""Full-matrix workload sweep: every workload x a set of PFM configs.

This is the generic fan-out the CLI exposes as the ``sweep`` experiment
(and, at a reduced window, as ``--smoke``): per workload one plain-core
baseline plus one point per configuration label, all evaluated through a
:class:`~repro.experiments.pool.SweepPool`.  ``--json`` serializes the
raw per-point stats deterministically (sorted keys, no timestamps), so
two sweeps of the same grid produce byte-identical files regardless of
``--jobs`` or scheduling order.
"""

from __future__ import annotations

import dataclasses
import json
from typing import TYPE_CHECKING

from repro.experiments.pool import (
    SweepPoint,
    SweepPool,
    baseline_point,
    pfm_point,
    speedups,
    stats_to_dict,
)
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import parse_config_label
from repro.registry import workload_names

if TYPE_CHECKING:
    from repro.pfm.tenancy import TenantSpec

#: All workloads the reproduction can build, in registration order
#: (the registry's autoload order keeps this stable across runs).
SWEEP_WORKLOADS = workload_names()

#: Default configuration grid (paper §3 notation).
SWEEP_CONFIGS = (
    "clk4_w4, delay4, queue32, portLS1",
    "clk4_w1, delay0",
)

#: Window used by ``--smoke`` (kept tiny so CI exercises the parallel
#: machinery, not the cycle model).
SMOKE_WINDOW = 2_000


def sweep_points(
    window: int,
    workloads: tuple[str, ...] = SWEEP_WORKLOADS,
    configs: tuple[str, ...] = SWEEP_CONFIGS,
    tenants: tuple["TenantSpec", ...] = (),
) -> list[SweepPoint]:
    """Grid points; with *tenants* each PFM point also gets a tenant-free
    twin (``<label> [solo]``) so the equivalence oracle has its reference.
    """
    points = []
    for name in workloads:
        points.append(baseline_point(name, window))
        for config in configs:
            pfm = parse_config_label(config)
            label = f"{name} [{config}]"
            if tenants:
                points.append(pfm_point(f"{label} [solo]", name, window, pfm))
                pfm = dataclasses.replace(pfm, tenants=tenants)
            points.append(pfm_point(label, name, window, pfm))
    return points


def run_sweep(
    window: int,
    pool: SweepPool,
    workloads: tuple[str, ...] = SWEEP_WORKLOADS,
    configs: tuple[str, ...] = SWEEP_CONFIGS,
    tenants: tuple["TenantSpec", ...] = (),
) -> tuple[ExperimentResult, dict]:
    """Run the sweep; return the rendered result and a JSON-ready payload.

    With *tenants*, every PFM point runs twice — solo and with the
    co-tenants resident — and the equivalence oracle requires the two
    architectural digests to match (the registered tenant layouts are
    observe-only, so sharing the fabric must not perturb the primary).
    An :class:`~repro.experiments.faults.OracleViolation` aborts the
    sweep; ``oracle_ok`` is recorded per tenanted point in the payload.
    """
    points = sweep_points(window, workloads, configs, tenants)
    stats = pool.run(points)
    speedup = {label: value for label, _, value in speedups(points, stats)}

    result = ExperimentResult(
        experiment="Sweep",
        title=f"{len(workloads)}-workload sweep, {len(points)} points",
        notes="speedup of each config over the same-workload baseline",
    )
    payload: dict = {
        "window": window,
        "workloads": list(workloads),
        "configs": list(configs),
        "points": {},
    }
    if tenants:
        payload["tenants"] = [spec.label() for spec in tenants]
    for point in points:
        entry = {
            "workload": point.workload,
            "key": point.key(),
            "ipc": stats[point.label].ipc,
            "stats": stats_to_dict(stats[point.label]),
        }
        if point.label in speedup:
            entry["speedup_pct"] = speedup[point.label]
            result.add(point.label, speedup[point.label])
        if (
            tenants
            and point.pfm is not None
            and point.pfm.tenants
        ):
            from repro.experiments.faults import OracleViolation
            from repro.faults.oracle import check_equivalence

            verdict = check_equivalence(
                stats[f"{point.label} [solo]"], stats[point.label]
            )
            if not verdict.ok:
                raise OracleViolation(
                    f"{point.label}: co-tenants perturbed the primary"
                    f" architectural stream ({verdict.reason})"
                )
            entry["oracle_ok"] = True
        payload["points"][point.label] = entry
    return result, payload


def payload_json(payload: dict) -> str:
    """Deterministic serialization (byte-identical across --jobs values)."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# --------------------------------------------------------------------- #
# sharded sweeps
# --------------------------------------------------------------------- #


def shard_slice(
    points: list[SweepPoint], shard: tuple[int, int]
) -> list[SweepPoint]:
    """The deterministic subset of *points* owned by shard ``(i, n)``.

    Assignment hashes each point's key (see
    :func:`repro.store.shard_of`), so it is independent of enumeration
    order and host — N invocations of ``--shard i/N`` over the same grid
    partition it exactly, with no point run twice and none missed.
    """
    from repro.store import shard_of

    index, count = shard
    if count < 1 or not 1 <= index <= count:
        raise ValueError(f"shard index must satisfy 1 <= {index} <= {count}")
    return [p for p in points if shard_of(p.key(), count) == index]


def run_sweep_shard(
    window: int,
    pool: SweepPool,
    shard: tuple[int, int],
    workloads: tuple[str, ...] = SWEEP_WORKLOADS,
    configs: tuple[str, ...] = SWEEP_CONFIGS,
) -> dict:
    """Run one shard of the sweep grid, publishing into ``pool.store``.

    The product of a shard run is its *store*, not a rendered table:
    speedups need the same-workload baseline, which may be owned by a
    different shard.  ``repro.experiments shard-merge`` unions the shard
    stores and renders the full grid from them — byte-identical to a
    single-host ``sweep`` run.  The returned payload summarizes what
    this shard computed (deterministic, sorted keys).
    """
    if pool.store.directory is None:
        raise ValueError(
            "shard runs need a result store (pass --store or --cache-dir);"
            " without one there is nothing to merge"
        )
    points = sweep_points(window, workloads, configs)
    mine = shard_slice(points, shard)
    stats = pool.run(mine)
    return {
        "shard": f"{shard[0]}/{shard[1]}",
        "window": window,
        "workloads": list(workloads),
        "configs": list(configs),
        "points_total": len(points),
        "points_selected": len(mine),
        "points": {
            point.label: {
                "workload": point.workload,
                "key": point.key(),
                "ipc": stats[point.label].ipc,
            }
            for point in mine
        },
    }


def sweep(window: int, pool: SweepPool) -> ExperimentResult:
    """Registry entry point (rendered result only)."""
    result, _ = run_sweep(window, pool)
    return result
