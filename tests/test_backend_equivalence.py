"""Differential harness: every backend, every cache state, byte-identical.

The backend layer's contract is absolute: switching engines may change
*how fast* a result is computed, never the result.  Each golden case is
run under both backends across the three trace-cache states —
cold compile, in-process memo hit, warm-on-disk hit — and every run must
produce the same ``arch_digest``, the same ``SimStats.to_dict()``, and
match the committed golden snapshot bit for bit.

Provenance is checked separately: it lives outside the dataclass fields
precisely so equality above stays meaningful, but a numpy-pinned
baseline run must actually report ``backend == "numpy"`` (and a
fabric-carrying run must report the fallback).
"""

from __future__ import annotations

import functools
import json

import pytest

from repro.backends import have_numpy
from repro.cachefile import trace_dir
from repro.core import CoreParams, SimConfig
from repro.experiments import pool
from repro.experiments.pool import run_point, stats_to_dict
from repro.store import clear_section
from repro.workloads import tracecache

from tests.test_goldens import CASES, _golden_path, _point

BACKENDS = ("python", "numpy")
STATES = ("cold", "warm-memo", "warm-disk")


def _load_golden(workload: str, variant: str) -> dict:
    path = _golden_path(workload, variant)
    assert path.exists(), f"golden {path.name} missing"
    return json.loads(path.read_text())["stats"]


def _run(workload: str, variant: str, backend: str, monkeypatch):
    """run_point with ``CoreParams.backend`` pinned to *backend*."""
    monkeypatch.setattr(pool, "SimConfig", functools.partial(
        SimConfig, core=CoreParams(backend=backend)
    ))
    return run_point(_point(workload, variant))


def _reset_cold() -> None:
    tracecache.reset_memory_cache()
    clear_section(trace_dir().parent, "traces")


@pytest.mark.skipif(not have_numpy(), reason="numpy not installed")
@pytest.mark.parametrize(
    "workload,variant", CASES, ids=[f"{w}-{v}" for w, v in CASES]
)
def test_backend_equivalence_all_cache_states(workload, variant, monkeypatch):
    """18 golden cases x {python, numpy} x {cold, warm-memo, warm-disk}."""
    golden = _load_golden(workload, variant)
    runs: dict[tuple[str, str], dict] = {}
    stats_by_key = {}

    # Cold: each backend pays its own compile (memo and disk dropped).
    for backend in BACKENDS:
        _reset_cold()
        stats = _run(workload, variant, backend, monkeypatch)
        assert tracecache.STATS["compiles"] == 1
        stats_by_key[("cold", backend)] = stats

    # Warm-memo: the last cold run left the trace in the process memo.
    for backend in BACKENDS:
        memo_hits = tracecache.STATS["memo_hits"]
        stats_by_key[("warm-memo", backend)] = _run(
            workload, variant, backend, monkeypatch
        )
        assert tracecache.STATS["memo_hits"] == memo_hits + 1

    # Warm-disk: drop the memo so each run loads the on-disk file.
    for backend in BACKENDS:
        tracecache.reset_memory_cache()
        stats_by_key[("warm-disk", backend)] = _run(
            workload, variant, backend, monkeypatch
        )
        assert tracecache.STATS["disk_hits"] == 1
        assert tracecache.STATS["compiles"] == 0

    for (state, backend), stats in stats_by_key.items():
        label = f"{workload}/{variant} {backend}/{state}"
        # Round-trip through JSON so the comparison sees exactly what
        # the golden file can represent (matches test_goldens).
        payload = json.loads(json.dumps(stats_to_dict(stats)))
        assert payload["arch_digest"] == golden["arch_digest"], label
        assert payload == golden, label
        runs[(state, backend)] = stats.to_dict()

    # to_dict() (the flattened export surface) agrees across backends
    # within each cache state, and across cache states.
    reference = runs[("cold", "python")]
    for key, exported in runs.items():
        assert exported == reference, key

    # Provenance: real numpy runs say so; the PFM fabric forces the
    # reference engine and counts the fallback.
    for state in STATES:
        stats = stats_by_key[(state, "numpy")]
        if variant == "baseline":
            assert stats.backend == "numpy"
            assert stats.backend_fallbacks == 0
        else:
            assert stats.backend == "python"
            assert stats.backend_fallbacks >= 1
        assert stats_by_key[(state, "python")].backend == "python"
        assert stats_by_key[(state, "python")].backend_fallbacks == 0


@pytest.mark.skipif(not have_numpy(), reason="numpy not installed")
def test_explicit_core_params_backend():
    """CoreParams.backend pins the engine."""
    from repro.core import simulate
    from repro.registry import build_workload

    stats = simulate(
        build_workload("astar"),
        SimConfig(core=CoreParams(backend="numpy"), max_instructions=1_500),
    )
    assert stats.backend == "numpy"

    stats = simulate(
        build_workload("astar"),
        SimConfig(core=CoreParams(backend="python"), max_instructions=1_500),
    )
    assert stats.backend == "python"
    assert stats.backend_fallbacks == 0


def test_unknown_backend_raises():
    from repro.core import simulate
    from repro.registry import build_workload
    from repro.registry.base import UnknownNameError

    with pytest.raises(UnknownNameError, match="auto, python, numpy"):
        simulate(
            build_workload("astar"),
            SimConfig(core=CoreParams(backend="fortran"), max_instructions=100),
        )


@pytest.mark.skipif(not have_numpy(), reason="numpy not installed")
def test_numpy_requires_compiled_trace(monkeypatch):
    """With replay disabled there is no trace; numpy falls back."""
    from repro.core import simulate
    from repro.registry import build_workload

    monkeypatch.setattr(tracecache, "ENABLED", False)
    stats = simulate(
        build_workload("astar"),
        SimConfig(core=CoreParams(backend="numpy"), max_instructions=1_500),
    )
    assert stats.backend == "python"
    assert stats.backend_fallbacks == 1


@pytest.mark.parametrize(
    "cli,argv",
    [
        ("sim", ["--workload", "astar", "--backend", "python"]),
        ("sim", ["--workload", "astar", "--profile"]),
        ("experiments", ["fig8", "--backend", "numpy"]),
    ],
)
def test_removed_switches_are_argparse_errors(cli, argv, capsys):
    """CoreParams.backend is the only engine selector, and profiling
    goes through ``python -m cProfile``."""
    if cli == "sim":
        from repro.sim import main
    else:
        from repro.experiments.__main__ import main

    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_stale_environment_changes_nothing(monkeypatch, capsys):
    """Variables that once steered the engine and the trace cache are
    ignored, malformed values included."""
    from repro.core import simulate
    from repro.registry import build_workload
    from repro.sim import main

    argv = ["--workload", "astar", "--window", "1500", "--compare"]
    assert main(argv) == 0
    clean = capsys.readouterr().out.splitlines()[1:]

    tracecache.reset_memory_cache()
    clear_section(trace_dir().parent, "traces")
    for name, value in (
        ("REPRO_BACKEND", "nump"),
        ("REPRO_TRACE_MAX", "2e6"),
        ("REPRO_TRACE_FLOOR", "x"),
        ("REPRO_NO_TRACE_CACHE", "1"),
    ):
        monkeypatch.setenv(name, value)
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1:] == clean
    assert tracecache.STATS["compiles"] == 1

    stats = simulate(build_workload("astar"), SimConfig(max_instructions=1_500))
    assert stats.backend == ("numpy" if have_numpy() else "python")
