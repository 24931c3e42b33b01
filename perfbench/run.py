"""Benchmark driver: host-time metrics of the paper's PFM runs and sweep.

Run from the repository root::

    python3 perfbench/run.py --workload astar-pfm --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``, every time scaled to
reference-host seconds (``host_scale``); ``--trace 1`` is a separate
run that traces one op of each kind and reports the per-layer metrics
(see ``spans.py``), writing the spans under ``.perfbench-out/``.

Every run (and every set-up probe it starts) works in a private, empty
cache directory under ``.perfbench-tmp/`` that is removed on exit, and
drops inherited ``REPRO_*`` variables, so no earlier run, shell setting
or the repository's own ``.repro-cache/`` changes what is measured.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench-tmp"
OUT = ROOT / ".perfbench-out"

#: Set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 3
#: Warm ops after each timed main op, so both sample the whole run.
WARM_PER_OP = 4
#: Share of ``--seconds`` the traced run spends on untraced ops, the
#: baseline for ``trace.overhead_ratio``.
TRACE_UNTRACED_SHARE = 0.5
#: Time of :func:`reference_loop` on an unloaded host, the unit every
#: reported time is scaled to (see ``host_scale``).
REFERENCE_S = 0.1


def isolate_environment(cache: Path) -> None:
    """Drop every inherited ``REPRO_*`` setting (backend choice, trace
    cache switches) and point the cache at *cache*."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_CACHE_DIR"] = str(cache)


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/``, nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def reference_loop(n: int = 40_000) -> float:
    """Seconds taken by a fixed pure-Python loop shaped like the
    simulator's hot path (dict scoreboard, heap, scattered table updates,
    string records hashed in batches).  It imports nothing from the
    program, so only the host's speed moves it.  Its 4 MiB table lies
    beyond the private caches, so the loop feels contention for shared
    cache and memory as the simulator does; it is freed on return."""
    table = array("q", [0]) * (1 << 19)
    mask = len(table) - 1
    regs = [f"r{i}" for i in range(32)]
    records = [(0x1000 + 4 * (i % 512), regs[(i * 7) % 32],
                regs[(i * 3) % 32], regs[(i * 5) % 32], 1 + i % 3) for i in range(2048)]
    ready: dict[str, int] = {}
    heap: list[tuple[int, int]] = []
    pending: list[str] = []
    digest = hashlib.sha256()
    now = 0
    start = time.perf_counter()
    for i in range(n):
        pc, dst, src1, src2, latency = records[i & 2047]
        issue = max(ready.get(src1, 0), ready.get(src2, 0), now)
        ready[dst] = done = issue + latency
        heapq.heappush(heap, (done, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        slot = (i * 2654435761) & mask
        table[slot] = (table[slot] + done) & 0xFFFF
        pending.append(f"{i};{pc};{dst};{done}\n")
        if len(pending) >= 1024:
            digest.update("".join(pending).encode())
            pending.clear()
        now = issue + (i & 3 == 0)
    return time.perf_counter() - start


def host_scale(before: float, after: float) -> float:
    """Factor that turns a wall time measured between two reference loops
    into reference-host seconds: shared hosts change speed for minutes at
    a time, and the reference loop slows with them while no change to the
    program can move it."""
    return REFERENCE_S / ((before + after) / 2)


def run_until(deadline: float, minimum: int, step) -> None:
    """Call *step* until *deadline* (perf_counter) passes, at least
    *minimum* times; collect garbage before each call, so no op pays for
    the garbage of the one before."""
    calls = 0
    while calls < minimum or time.perf_counter() < deadline:
        gc.collect()
        step()
        calls += 1


def inst_per_s(ops, scaled: bool = True) -> float:
    return statistics.median(
        [op.instructions / (op.wall_s * (op.scale if scaled else 1.0)) for op in ops])


def warm_s(ops, scaled: bool = True) -> float:
    return statistics.median([op.wall_s * (op.scale if scaled else 1.0) for op in ops])


def timed_rounds(case, deadline: float, minimum: int, warm_per_op: int) -> list[float]:
    """Rounds of one main op, then *warm_per_op* warm ops; the main op and
    the batch of warm ops each sit between two reference loops, which
    set their ``scale``.  Returns the reference-loop times."""
    references = [reference_loop()]

    def scaled(ops) -> None:
        references.append(reference_loop())
        for op in ops:
            op.scale = host_scale(references[-2], references[-1])

    def one_round() -> None:
        scaled([case.op()])
        if warm_per_op:
            warm = []
            for _ in range(warm_per_op):
                gc.collect()
                warm.append(case.warm_op())
            scaled(warm)
    run_until(deadline, minimum, one_round)
    return references


def probe_setup(args) -> list[float | None]:
    """Start ``SETUP_PROBES`` fresh processes that each do the set-up
    (imports, workload build, trace compile into an empty private cache)
    and time each from its start until it reports ready, in
    reference-host seconds."""
    samples: list[float | None] = []
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--setup-probe"]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        before = reference_loop()
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().strip()
            ready = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        ok = line == "ready" and code == 0
        samples.append(ready * host_scale(before, reference_loop()) if ok else None)
    return samples


def end_to_end(case, args) -> tuple[dict[str, float], int, int]:
    first_timed = len(case.ops)
    references = timed_rounds(case, time.perf_counter() + args.seconds, 3, WARM_PER_OP)
    setup = [s for s in probe_setup(args) if s is not None]
    case.verify_digests()

    timed = case.ops[first_timed:]
    main_ops = [op for op in timed if op.kind == "op" and op.ok]
    warm_ops = [op for op in timed if op.kind == "warm" and op.ok]
    attempted = len(case.ops) + SETUP_PROBES
    failed = sum(not op.ok for op in case.ops) + SETUP_PROBES - len(setup)
    if main_ops and warm_ops:
        print(f"perfbench: unscaled inst_per_s {inst_per_s(main_ops, False):.1f},"
              f" warm_s {warm_s(warm_ops, False):.4f}; reference loop median"
              f" {statistics.median(references):.4f} s (nominal {REFERENCE_S} s)", file=sys.stderr)
    metrics = {
        "inst_per_s": inst_per_s(main_ops) if main_ops else 0.0,
        "setup_s": statistics.median(setup) if setup else 0.0,
        "warm_s": warm_s(warm_ops) if warm_ops else 0.0,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": (attempted - failed) / attempted,
    }
    return metrics, attempted, failed


def traced(case, args) -> tuple[dict[str, float], int, int]:
    from spans import Tracer, layer_metrics

    first_untraced = len(case.ops)
    deadline = time.perf_counter() + TRACE_UNTRACED_SHARE * args.seconds
    references = timed_rounds(case, deadline, 2, 0)
    untraced = [op for op in case.ops[first_untraced:] if op.ok]

    tracer = Tracer()
    references.append(reference_loop())
    tracer.install()
    try:
        with tracer.op(0):
            main = case.op()
        with tracer.op(1):
            case.warm_op()
    finally:
        tracer.uninstall()
    references.append(reference_loop())
    main.scale = host_scale(references[-2], references[-1])
    leftovers = tracer.leftovers()
    if leftovers:
        main.errors.append(f"span wrappers left installed: {leftovers}")
    case.verify_digests()

    metrics = layer_metrics(tracer.log)
    metrics["trace.overhead_ratio"] = (
        inst_per_s(untraced) / inst_per_s([main]) if untraced and main.ok else 0.0
    )
    metrics["trace.reference_loop_s"] = statistics.median(references)
    tracer.log.write(OUT / f"spans-{case.name}.tsv")
    attempted = len(case.ops)
    failed = sum(not op.ok for op in case.ops)
    return metrics, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("astar-pfm", "libquantum-prefetch", "fig8-sweep"))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload builder seed (default: the builder's own)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    TMP.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=TMP))
    try:
        isolate_environment(scratch / "cache")
        import_program()
        sys.path.insert(0, str(HERE))
        from cases import CASES

        case = CASES[args.workload](args.seed, scratch)
        case.setup()
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        case.warm_up()
        if args.trace:
            metrics, attempted, failed = traced(case, args)
        else:
            metrics, attempted, failed = end_to_end(case, args)
        units = metric_units("per_layer" if args.trace else "end_to_end")
        backends = {label: used for op in case.ops for label, used in op.backends.items()}
        print(f"perfbench: backend/fallbacks per point: {backends}", file=sys.stderr)
        for op in case.ops:
            for error in op.errors:
                print(f"perfbench: {op.kind} failed: {error}", file=sys.stderr)
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name], "unit": unit}
                for name, unit in units.items()
            },
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of every metric BENCHMARK.json lists in *section*."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


if __name__ == "__main__":
    sys.exit(main())
