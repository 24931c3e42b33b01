"""Command-line entry point: regenerate the paper's tables and figures.

Examples::

    python -m repro.experiments list
    python -m repro.experiments fig8
    python -m repro.experiments fig12 --window 80000 --jobs 4
    python -m repro.experiments sweep --jobs 4 --json results.json
    python -m repro.experiments --smoke --jobs 2
    python -m repro.experiments all

``--jobs N`` fans each experiment's sweep points out over N worker
processes; results are bit-identical to a serial run.  Completed points
are published to a content-addressed result store under ``--cache-dir``
(default ``.repro-cache/store/``) as they finish, so re-running an
interrupted sweep serves them from the store and computes only the
rest.  ``sweep --shard i/n --store DIR``
runs a deterministic slice of the grid on one host; ``shard-merge``
unions the shard stores and renders a result set byte-identical to the
single-host run (EXPERIMENTS.md "Distributed sweeps").
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from repro.experiments import astar_sweeps, bfs_sweeps, energy_fig18
from repro.experiments import faults as faults_module
from repro.experiments import fpga_table4, prefetch_sweeps, robustness
from repro.experiments import slipstream_fig2, sweep as sweep_module
from repro.experiments import trace as trace_module
from repro.cachefile import CACHE_DIR_ENV, DEFAULT_CACHE_DIR, cache_dir
from repro.experiments.pool import SweepPool
from repro.experiments.runner import DEFAULT_WINDOW

EXPERIMENTS = {
    "fig2": slipstream_fig2.fig2,
    "fig8": astar_sweeps.fig8,
    "tab2": astar_sweeps.table2,
    "fig9": astar_sweeps.fig9,
    "fig10": astar_sweeps.fig10,
    "astar-mpki": astar_sweeps.astar_mpki,
    "fig12": bfs_sweeps.fig12,
    "tab3": bfs_sweeps.table3,
    "fig13": bfs_sweeps.fig13,
    "fig14": bfs_sweeps.fig14,
    "bfs-mpki": bfs_sweeps.bfs_mpki,
    "fig17": prefetch_sweeps.fig17,
    "fig17-delay": prefetch_sweeps.fig17_delay,
    "fig17-ports": prefetch_sweeps.fig17_ports,
    "tab4": fpga_table4.table4,
    "fig18": energy_fig18.fig18,
    "robust-inputs": robustness.astar_input_robustness,
    "robust-patterns": robustness.astar_pattern_robustness,
    "robust-graphs": robustness.bfs_graph_robustness,
    "sweep": sweep_module.sweep,
    "faults": faults_module.faults,
}

#: Experiments that produce a raw-stats payload for ``--json``.
PAYLOAD_EXPERIMENTS = {
    "sweep": sweep_module.run_sweep,
    "faults": faults_module.run_faults,
}

#: The experiments ``--smoke`` combines with, and their reduced windows.
SMOKE_WINDOWS = {
    "sweep": sweep_module.SMOKE_WINDOW,
    "faults": faults_module.FAULT_SMOKE_WINDOW,
    "trace": trace_module.TRACE_SMOKE_WINDOW,
}

#: Experiments whose runners accept co-resident fabric tenants
#: (``--tenant``); the others have no multi-tenant story yet.
TENANT_EXPERIMENTS = ("sweep", "faults")


def _run_info(pool: SweepPool) -> str:
    info = pool.last_run_info or {}
    return (f"{info.get('computed', 0)} simulated,"
            f" {info.get('store_hits', 0)} from store")


def make_pool(args, experiment: str, window: int) -> SweepPool:
    """One pool per experiment: shared result store, own failed-points
    log."""
    cache_dir = None if args.no_cache else args.cache_dir
    checkpoint = None
    if cache_dir is not None:
        checkpoint = (
            Path(cache_dir) / "checkpoints" / f"{experiment}-w{window}.jsonl"
        )
    return SweepPool(
        jobs=args.jobs,
        cache_dir=cache_dir,
        checkpoint=checkpoint,
        fail_fast=args.fail_fast,
        store=getattr(args, "store", None),
    )


def _dir_size(path: Path) -> tuple[int, int]:
    """(file count, total bytes) under *path*, recursively."""
    files = 0
    total = 0
    if path.is_dir():
        for entry in path.rglob("*"):
            if entry.is_file():
                files += 1
                total += entry.stat().st_size
    return files, total


def _describe(section: str, entries: list) -> str:
    """Per-kind file counts and total size of *entries* of *section*
    (``collect()`` records)."""
    from repro.store.gc import SECTIONS

    parts = [
        f"{sum(entry.kind == kind for entry in entries)} {kind}"
        for _, kind, _ in dict(SECTIONS)[section]
    ]
    size = sum(entry.size for entry in entries)
    return f"{', '.join(parts[:-1])} and {parts[-1]}, {_fmt_bytes(size)}"


def _fmt_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{n} B"
        value /= 1024
    return f"{n} B"


def _cache_main(argv: list[str]) -> int:
    """The ``cache`` subcommand: inspect or clear the `.repro-cache/` store.

    Parsed by its own parser (not the experiments one): its maintenance
    flags share no meaning with the experiment options.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments cache",
        description="Inspect, clear, or garbage-collect .repro-cache/.",
    )
    parser.add_argument(
        "action", nargs="?", default="list", choices=("list", "clear", "gc"),
        help="list (default): report per-section sizes; clear: delete"
             " compiled traces, their direction columns and the recipe"
             " index (the result store with --store); gc: evict"
             " least-recently-written cache files until the total fits"
             " --max-bytes",
    )
    parser.add_argument(
        "--store", action="store_true",
        help="with 'clear': clear the content-addressed result store"
             " instead of the compiled traces",
    )
    parser.add_argument(
        "--max-bytes", metavar="SIZE", default=None,
        help="with 'gc': byte budget for traces+store combined"
             " (suffixes K/M/G, e.g. 200M); oldest files evicted first",
    )
    parser.add_argument(
        "--cache-dir",
        default=cache_dir(),
        help=f"cache directory (default ${CACHE_DIR_ENV} or"
             f" {DEFAULT_CACHE_DIR})",
    )
    args = parser.parse_args(argv)
    base = Path(args.cache_dir)

    if args.action == "gc":
        from repro.store import gc_cache, parse_size

        if args.max_bytes is None:
            parser.error("gc requires --max-bytes SIZE (e.g. --max-bytes 200M)")
        try:
            budget = parse_size(args.max_bytes)
        except ValueError as exc:
            parser.error(str(exc))
        summary = gc_cache(base, budget)
        for name, section in summary["sections"].items():
            print(f"{name}: {section['files']} file(s),"
                  f" {_fmt_bytes(section['bytes'])} -> evicted"
                  f" {section['evicted_files']} file(s),"
                  f" {_fmt_bytes(section['evicted_bytes'])}")
        print(f"total {_fmt_bytes(summary['total_bytes'])} -> kept"
              f" {_fmt_bytes(summary['kept_bytes'])}"
              f" (budget {_fmt_bytes(budget)})")
        return 0

    from repro.store import clear_section
    from repro.store.gc import listing

    if args.action == "clear":
        section = "store" if args.store else "traces"
        removed = clear_section(base, section)
        print(f"removed {_describe(section, removed)} from {base / section}")
        return 0

    rows = listing(base)
    print(f"cache directory: {base}")
    for kind, title, redo in (
        ("compiled trace(s)", f"compiled traces ({base / 'traces'})",
         "recompiled"),
        ("direction column(s)", "direction columns", "rebuilt"),
    ):
        print(f"{title}:")
        listed = [
            f"{entry.path.name}  {_fmt_bytes(entry.size)}  ("
            + (summary or f"unreadable: {reason} — will be {redo} on next use")
            + ")"
            for entry, summary, reason in rows if entry.kind == kind
        ]
        for line in listed or ["(none)"]:
            print(f"  {line}")
    files = [entry for entry, _, _ in rows]
    for section, title in (("traces", "trace cache"), ("store", "result store")):
        counted = [entry for entry in files if entry.section == section]
        print(f"{title} ({base / section}): {_describe(section, counted)}")
    print("  (evict with 'cache gc --max-bytes SIZE'; 'cache clear'"
          " empties the trace cache, 'cache clear --store' the store)")
    count, size = _dir_size(base / "checkpoints")
    print(f"checkpoints: {count} file(s), {_fmt_bytes(size)}")
    total = size + sum(entry.size for entry in files)
    print(f"total cache footprint: {_fmt_bytes(total)}")
    return 0


def _shard_merge_main(argv: list[str]) -> int:
    """The ``shard-merge`` subcommand: union shard stores, render the grid.

    N hosts each ran ``sweep --shard i/N --store DIR-i``; this unions
    their stores into ``--store OUT`` and (with ``--json``) renders the
    *full* sweep grid from the merged store — every point a store hit,
    output byte-identical to a single-host ``sweep --json`` run.  Points
    missing from every shard (a shard died) are computed and published,
    so the merge also repairs partial fleets.
    """
    from repro.store import ResultStore

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments shard-merge",
        description="Union shard result stores and render the full sweep.",
    )
    parser.add_argument(
        "sources", nargs="+", metavar="STORE",
        help="shard store directories to merge (in order; first value"
             " wins on byte conflicts)",
    )
    parser.add_argument(
        "--store", required=True, metavar="DIR",
        help="destination store directory (created if missing)",
    )
    parser.add_argument(
        "--json", metavar="FILE", default=None,
        help="render the full sweep grid from the merged store to FILE"
             " (byte-identical to a single-host 'sweep --json')",
    )
    parser.add_argument(
        "--window", type=int, default=None,
        help=f"grid window for --json (default {DEFAULT_WINDOW};"
             f" {sweep_module.SMOKE_WINDOW} under --smoke) — must match"
             f" the shard runs",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="render the --smoke grid (must match the shard runs)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for any points missing from every shard",
    )
    args = parser.parse_args(argv)

    merged = ResultStore(args.store)
    totals = {"added": 0, "identical": 0, "conflicts": 0, "invalid": 0}
    for source in args.sources:
        summary = merged.merge_from(source)
        for field in totals:
            totals[field] += summary[field]
        print(f"merged {source}: {summary['added']} added,"
              f" {summary['identical']} identical,"
              f" {summary['conflicts']} conflict(s) kept ours,"
              f" {summary['invalid']} invalid skipped")
    count = len(merged)
    print(f"store {merged.directory}: {count}"
          f" entr{'y' if count == 1 else 'ies'},"
          f" {_fmt_bytes(merged.size_bytes())}")

    if args.json:
        window = args.window or (
            sweep_module.SMOKE_WINDOW if args.smoke else DEFAULT_WINDOW
        )
        pool = SweepPool(jobs=args.jobs, store=merged)
        result, payload = sweep_module.run_sweep(window, pool)
        Path(args.json).write_text(sweep_module.payload_json(payload))
        print(result.render())
        print(f"   [jobs={args.jobs}, {_run_info(pool)}]")
        print(f"raw stats written to {args.json}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv:
        if argv[0] == "cache":
            return _cache_main(argv[1:])
        if argv[0] == "shard-merge":
            return _shard_merge_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default=None,
        help="experiment id (see 'list'), or 'all'",
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help="workload to trace ('trace' only; default astar)",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=None,
        help=f"dynamic instructions per run (default {DEFAULT_WINDOW};"
             f" the experiment's smoke window under --smoke)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes to fan sweep points over (default 1)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run at the experiment's tiny window (CI smoke test): "
             + "/".join(SMOKE_WINDOWS)
             + "; alone it selects the full-matrix sweep",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="also write the rendered results to FILE",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="write raw per-point stats as deterministic JSON"
             " (" + "/".join(PAYLOAD_EXPERIMENTS) + " only)",
    )
    parser.add_argument(
        "--cache-dir",
        default=cache_dir(),
        help=f"result store, compiled traces and failed-points log"
             f" (default ${CACHE_DIR_ENV} or {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="keep results in memory only (no on-disk result store);"
             " compiled traces still go under --cache-dir",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="content-addressed result store directory (default"
             " <cache-dir>/store); shard runs point each invocation at"
             " its own store, merged later with 'shard-merge'",
    )
    parser.add_argument(
        "--shard",
        metavar="I/N",
        default=None,
        help="run only the deterministic 1-based shard I of N of the"
             " sweep grid, publishing results into the store"
             " (sweep only; see 'shard-merge')",
    )
    parser.add_argument(
        "--fail-fast",
        action="store_true",
        help="abort on the first failed sweep point instead of retrying"
             " crashed workers and summarizing failures at the end",
    )
    parser.add_argument(
        "--tenant",
        metavar="LAYOUT[:PRIO]",
        action="append",
        default=[],
        dest="tenants",
        help="co-resident fabric tenant for every PFM point (repeatable),"
             " e.g. introspect or branch-mirror:background; combines with "
             + "/".join(TENANT_EXPERIMENTS),
    )
    trace_group = parser.add_argument_group("trace options")
    trace_group.add_argument(
        "--perfetto",
        metavar="FILE",
        default=None,
        help="write the Perfetto/Chrome trace-event JSON to FILE",
    )
    trace_group.add_argument(
        "--trace-csv",
        metavar="FILE",
        default=None,
        help="write the flat event CSV to FILE",
    )
    trace_group.add_argument(
        "--manifest",
        metavar="FILE",
        default=None,
        help="write the per-run metrics manifest (JSON) to FILE",
    )
    trace_group.add_argument(
        "--config",
        default=trace_module.DEFAULT_TRACE_CONFIG,
        help=f"PFM configuration label to trace"
             f" (default {trace_module.DEFAULT_TRACE_CONFIG!r})",
    )
    trace_group.add_argument(
        "--ring",
        type=int,
        default=trace_module.DEFAULT_RING,
        metavar="N",
        help=f"telemetry ring-buffer capacity in events"
             f" (default {trace_module.DEFAULT_RING})",
    )
    trace_group.add_argument(
        "--sample-period",
        type=int,
        default=trace_module.DEFAULT_SAMPLE_PERIOD,
        metavar="CYCLES",
        help=f"occupancy sampler cadence in core cycles, 0 disables"
             f" (default {trace_module.DEFAULT_SAMPLE_PERIOD})",
    )
    args = parser.parse_args(argv)

    # Compiled traces live under the cache directory too; worker
    # processes inherit the environment, so this reaches every run.
    os.environ[CACHE_DIR_ENV] = args.cache_dir

    if args.experiment is None:
        if not args.smoke:
            parser.error("an experiment id (or --smoke) is required")
        args.experiment = "sweep"
    tenant_specs: tuple = ()
    if args.tenants:
        if args.experiment not in TENANT_EXPERIMENTS:
            parser.error(
                "--tenant combines only with " + "/".join(TENANT_EXPERIMENTS)
            )
        from repro.pfm.tenancy import parse_tenant_spec

        try:
            tenant_specs = tuple(parse_tenant_spec(t) for t in args.tenants)
        except ValueError as exc:
            parser.error(str(exc))
    if args.smoke and args.experiment not in SMOKE_WINDOWS:
        parser.error(
            "--smoke combines only with "
            + "/".join(SMOKE_WINDOWS)
            + "; alone it runs the full-matrix sweep"
        )
    if args.json and args.experiment not in PAYLOAD_EXPERIMENTS:
        parser.error(
            "--json combines only with "
            + "/".join(PAYLOAD_EXPERIMENTS)
            + "; other experiments write no raw stats"
        )
    window = args.window or (
        SMOKE_WINDOWS[args.experiment] if args.smoke else DEFAULT_WINDOW
    )

    shard = None
    if args.shard is not None:
        if args.experiment != "sweep":
            parser.error("--shard combines only with the sweep experiment")
        if tenant_specs:
            parser.error("--shard does not combine with --tenant")
        from repro.store import parse_shard

        try:
            shard = parse_shard(args.shard)
        except ValueError as exc:
            parser.error(str(exc))

    if shard is not None:
        index, count = shard
        pool = make_pool(args, f"sweep-shard{index}of{count}", window)
        if pool.store.directory is None:
            parser.error(
                "--shard needs a result store: pass --store DIR or drop"
                " --no-cache"
            )
        started = time.time()
        payload = sweep_module.run_sweep_shard(window, pool, shard)
        print(f"shard {index}/{count}: ran {payload['points_selected']} of"
              f" {payload['points_total']} grid points into"
              f" {pool.store.directory}")
        print(f"   [{time.time() - started:.1f}s, jobs={args.jobs},"
              f" {_run_info(pool)}]")
        if args.json:
            Path(args.json).write_text(sweep_module.payload_json(payload))
            print(f"shard summary written to {args.json}")
        return 0

    if args.experiment == "list":
        from repro.registry import (
            component_names,
            predictor_names,
            prefetcher_names,
            tenant_layout_names,
            workload_names,
        )

        print("experiments:")
        for name in EXPERIMENTS:
            print(f"  {name}")
        print("  trace  (telemetry trace of one workload; see --perfetto)")
        print("  shape  (aggregate shape-agreement metrics)")
        print("  cache  (inspect/clear/gc the on-disk caches)")
        print("  shard-merge  (union shard result stores; see --shard)")
        for title, names in (
            ("workloads", workload_names()),
            ("components", component_names()),
            ("predictors", predictor_names()),
            ("prefetchers", prefetcher_names()),
            ("tenant layouts", tenant_layout_names()),
        ):
            print(f"{title}:")
            for name in names:
                print(f"  {name}")
        return 0

    if args.experiment == "trace":
        from repro.telemetry.export import (
            events_csv,
            metrics_manifest,
            perfetto_json,
        )

        target = args.target or "astar"
        pool = make_pool(args, f"trace-{target}", window)
        started = time.time()
        result, traced, base = trace_module.run_trace(
            target,
            window,
            pool,
            config=args.config,
            ring=args.ring,
            sample_period=args.sample_period,
        )
        print(result.render())
        print(f"   [{time.time() - started:.1f}s, jobs={args.jobs},"
              f" {_run_info(pool)}]")
        if args.perfetto:
            Path(args.perfetto).write_text(perfetto_json(traced.telemetry))
            print(f"perfetto trace written to {args.perfetto}"
                  f" (load at https://ui.perfetto.dev)")
        if args.trace_csv:
            Path(args.trace_csv).write_text(events_csv(traced.telemetry))
            print(f"event csv written to {args.trace_csv}")
        if args.manifest:
            import json as json_module

            manifest = metrics_manifest(traced, baseline=base)
            Path(args.manifest).write_text(
                json_module.dumps(manifest, sort_keys=True, indent=2) + "\n"
            )
            print(f"metrics manifest written to {args.manifest}")
        return 0

    if args.experiment == "shape":
        from repro.experiments.compare import shape_report

        results = [
            EXPERIMENTS[name](window=window, pool=make_pool(args, name, window))
            for name in ("fig2", "fig8", "tab2", "fig12", "tab3", "tab4")
        ]
        print(shape_report(results))
        return 0

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    rendered = []
    for name in names:
        if name not in EXPERIMENTS:
            parser.error(
                f"unknown experiment {name!r}; use 'list' to see choices"
            )
        pool = make_pool(args, name, window)
        started = time.time()
        if name in PAYLOAD_EXPERIMENTS:
            kwargs = {"tenants": tenant_specs} if tenant_specs else {}
            result, payload = PAYLOAD_EXPERIMENTS[name](window, pool, **kwargs)
            if args.json:
                Path(args.json).write_text(sweep_module.payload_json(payload))
        else:
            result = EXPERIMENTS[name](window=window, pool=pool)
        text = result.render()
        rendered.append(text)
        print(text)
        print(f"   [{time.time() - started:.1f}s, jobs={args.jobs},"
              f" {_run_info(pool)}]\n")
        if args.json:
            print(f"raw stats written to {args.json}")

    if args.out:
        with open(args.out, "w") as handle:
            handle.write(
                f"# PFM reproduction results (window={window})\n\n"
            )
            handle.write("\n\n".join(rendered))
            handle.write("\n")
        print(f"results written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
