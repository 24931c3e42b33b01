"""Re-invoked CLI sweep vs its cold run.

A cold ``sweep --smoke`` compiles traces and simulates every point into
the result store.  Running the same command again in a fresh process
must serve every point from the store and key them through the trace
cache's recipe index, without building a workload: byte-identical ``--json``
output in at most :data:`WARM_RATIO_BAR` of the cold wall time.

Run explicitly (not part of the tier-1 suite)::

    PYTHONPATH=src python -m pytest benchmarks/test_warm_cli.py -q -s
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import repro

#: Re-run wall time over cold wall time.
WARM_RATIO_BAR = 0.2


def _cli_sweep(json_path: Path, cache_dir: Path) -> tuple[float, str]:
    """(wall seconds, stdout) of one ``sweep --smoke`` in a new process."""
    env = dict(
        os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1])
    )
    env.pop("REPRO_CACHE_DIR", None)
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "sweep", "--smoke",
         "--json", str(json_path), "--cache-dir", str(cache_dir)],
        check=True, env=env, stdout=subprocess.PIPE, text=True,
    )
    return time.perf_counter() - started, done.stdout


def test_reinvoked_cli_at_most_a_fifth_of_cold(tmp_path):
    cache = tmp_path / "cache"
    cold_json, warm_json = tmp_path / "cold.json", tmp_path / "warm.json"
    cold_seconds, _ = _cli_sweep(cold_json, cache)
    warm_seconds, warm_out = _cli_sweep(warm_json, cache)

    assert warm_json.read_bytes() == cold_json.read_bytes()
    assert " 0 simulated," in warm_out

    ratio = warm_seconds / cold_seconds
    print(
        f"\ncold CLI {cold_seconds:.2f}s, re-invoked CLI {warm_seconds:.2f}s"
        f" ({ratio:.3f}x, bar {WARM_RATIO_BAR}x)"
    )
    assert ratio <= WARM_RATIO_BAR, (
        f"re-invoked CLI took {warm_seconds:.2f}s vs cold {cold_seconds:.2f}s"
        f" ({ratio:.2f}x > {WARM_RATIO_BAR}x bar)"
    )
