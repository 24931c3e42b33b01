"""Command-line simulation driver.

Examples::

    python -m repro.sim --workload astar --window 30000
    python -m repro.sim --workload astar --pfm "clk4_w4, delay4, portLS1"
    python -m repro.sim --workload bfs-roads --perfect-bp --perfect-dcache
    python -m repro.sim --workload libquantum --pfm clk4_w1 --report

``--pfm`` takes the paper's Section 3 notation; ``--compare`` also runs
the plain baseline and prints the speedup; ``--report`` adds the detailed
breakdown (per-level cache stats, stall cycles, agent activity, energy).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core import SimStats
from repro.experiments.pool import SweepPoint, SweepPool, baseline_point
from repro.experiments.report import aligned_rows
from repro.experiments.runner import parse_config_label
from repro.power.core_energy import CoreEnergyModel
from repro.registry import workload_names


def detailed_report(stats: SimStats) -> str:
    lines = [stats.summary(), ""]
    lines.append("memory hierarchy:")
    lines.extend(aligned_rows(
        [
            (
                level,
                f"accesses {level_stats['accesses']:>8.0f}"
                f"  misses {level_stats['misses']:>8.0f}"
                f"  miss rate {100 * level_stats['miss_rate']:5.1f}%",
            )
            for level, level_stats in (stats.memory_levels or {}).items()
        ],
        indent="  ",
        min_width=4,
    ))
    lines.append(f"  load hits by level: {stats.load_hits_by_level}")
    lines.append("")
    lines.append("front end:")
    lines.extend(aligned_rows(
        [
            ("I-cache stall cycles", str(stats.fetch_stall_icache_cycles)),
            ("BTB miss bubbles", str(stats.btb_miss_bubbles)),
            ("RAS mispredicts", str(stats.ras_mispredicts)),
            ("store forwards", str(stats.store_forwards)),
        ],
        indent="  ",
    ))
    if stats.agent_loads or stats.agent_prefetches:
        lines.append("")
        lines.append("load agent:")
        lines.extend(aligned_rows(
            [
                ("loads issued", str(stats.agent_loads)),
                ("prefetches issued", str(stats.agent_prefetches)),
                ("missed loads / replays",
                 f"{stats.agent_load_misses} / {stats.mlb_replays}"),
                ("PRF port delay cycles", str(stats.prf_port_delay_cycles)),
            ],
            indent="  ",
        ))
    energy = CoreEnergyModel().energy(stats)
    lines.append("")
    lines.append(
        f"core energy: {energy.total_nj / 1000:.1f} uJ "
        f"(dynamic {energy.dynamic_nj / 1000:.1f}, "
        f"speculation {energy.wasted_speculation_nj / 1000:.1f}, "
        f"static {energy.static_nj / 1000:.1f})"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim",
        description="Simulate a workload on the PFM substrate.",
    )
    parser.add_argument("--workload", choices=workload_names(), required=True)
    parser.add_argument("--window", type=int, default=40_000,
                        help="dynamic instructions to simulate")
    parser.add_argument("--pfm", metavar="CONFIG", default=None,
                        help='PFM parameters, e.g. "clk4_w4, delay4, portLS1"')
    parser.add_argument("--tenant", metavar="LAYOUT[:PRIO]", action="append",
                        default=[], dest="tenants",
                        help="co-resident fabric tenant (repeatable), e.g."
                             " introspect or branch-mirror:background;"
                             " requires --pfm")
    parser.add_argument("--perfect-bp", action="store_true",
                        help="idealize branch prediction")
    parser.add_argument("--perfect-dcache", action="store_true",
                        help="idealize the data cache")
    parser.add_argument("--compare", action="store_true",
                        help="also run the plain baseline and report speedup")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for --compare (treated and"
                             " baseline run concurrently when N > 1)")
    parser.add_argument("--report", action="store_true",
                        help="print the detailed breakdown")
    args = parser.parse_args(argv)

    pfm = parse_config_label(args.pfm) if args.pfm else None
    if args.tenants:
        if pfm is None:
            parser.error("--tenant requires --pfm (co-tenants share the"
                         " primary tenant's fabric)")
        from dataclasses import replace

        from repro.pfm.tenancy import parse_tenant_spec

        try:
            specs = tuple(parse_tenant_spec(t) for t in args.tenants)
        except ValueError as exc:
            parser.error(str(exc))
        pfm = replace(pfm, tenants=specs)

    started = time.time()
    treated = SweepPoint(
        label="treated",
        workload=args.workload,
        window=args.window,
        pfm=pfm,
        perfect_branch_prediction=args.perfect_bp,
        perfect_dcache=args.perfect_dcache,
    )
    points = [treated]
    if args.compare and not treated.is_baseline:
        points.append(baseline_point(args.workload, args.window))
    results = SweepPool(jobs=args.jobs).run(points)
    stats = results["treated"]
    elapsed = time.time() - started

    print(f"workload {args.workload}, window {args.window} "
          f"({elapsed:.1f}s wall clock)")
    if pfm is not None:
        print(f"PFM: {pfm.label()}")
    print()
    print(detailed_report(stats) if args.report else stats.summary())

    if args.compare:
        # A baseline point is compared with itself.
        baseline = results[points[-1].label]
        print()
        print(f"baseline IPC {baseline.ipc:.3f} -> {stats.ipc:.3f}: "
              f"{100 * stats.speedup_over(baseline):+.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
