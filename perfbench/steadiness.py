"""Steadiness report: how much each metric moves between runs.

Runs ``perfbench/run.py`` repeatedly, once per seed, on each workload and
prints per workload and metric the median, the quartiles, the spread
(IQR / median, quartiles as ``statistics.quantiles(values, n=4)`` gives
them) and the sample count, next to the metric's bound in
``BENCHMARK.json``.  These figures are what the bounds rest on.

    python3 perfbench/steadiness.py --seeds 1-10 --seconds 20
    python3 perfbench/steadiness.py --workload fig8-sweep --seeds 1-5
    python3 perfbench/steadiness.py --trace 1 --seeds 1-2
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"1,4,7"`` -> list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        low, sep, high = part.partition("-")
        seeds.extend(range(int(low), int(high) + 1) if sep else [int(low)])
    return seeds


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:"
                           f" {done.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread_row(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, IQR / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seeds", default="1-10", help='e.g. "1-10" or "1,4,7"')
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    section = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[section]}
    seeds = parse_seeds(args.seeds)
    print(f"# {len(seeds)} runs per workload, seeds {args.seeds},"
          f" --seconds {args.seconds}, --trace {args.trace}")
    print(f"{'workload/metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
          f" {'iqr/med':>8s} {'n':>3s} {'bound':>6s}  verdict")
    worst_ok = True
    for workload in args.workload or names:
        runs = []
        for seed in seeds:
            result = one_run(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                worst_ok = False
                print(f"# {workload} seed {seed}: {result['failed']} of"
                      f" {result['attempted']} ops failed")
            runs.append(result["metrics"])
            values = " ".join(f"{m}={v['value']:.6g}" for m, v in result["metrics"].items()
                              if m in bounds)
            print(f"# {workload} seed {seed}: {values}", flush=True)
        for metric, bound in bounds.items():
            values = [run[metric]["value"] for run in runs]
            med, q1, q3, spread = spread_row(values)
            verdict = ""
            if bound is not None and metric != "setup_s":
                verdict = ("ok" if spread < bound / 3 else
                           "within bound" if spread <= bound else "TOO NOISY")
                worst_ok = worst_ok and spread <= bound
            print(f"{workload + '/' + metric:44s} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {spread:8.4f} {len(values):3d} {bound if bound is not None else '':>6}"
                  f"  {verdict}", flush=True)
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
