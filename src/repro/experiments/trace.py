"""The ``trace`` experiment: one workload, probes on, exported artifacts.

Runs a single workload twice through the :class:`SweepPool` — a plain
baseline (served from the result store when warm) and a PFM run with the
:mod:`repro.telemetry` ring sink attached — then renders a summary and
hands the traced stats back so the CLI can write the Perfetto JSON, the
event CSV, and the metrics manifest.

Determinism: the telemetry snapshot travels inside ``SimStats`` (plain
dicts, pickle-safe), and every exporter serializes with sorted keys, so
the written artifacts are byte-identical across ``--jobs`` values.
"""

from __future__ import annotations

from repro.experiments.pool import SweepPoint, SweepPool, baseline_point
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import parse_config_label
from repro.telemetry import TelemetryParams

#: Window used by ``trace --smoke`` (the CI artifact job).
TRACE_SMOKE_WINDOW = 2_000

#: Default fabric configuration for traced runs (the Table 2 point).
DEFAULT_TRACE_CONFIG = "clk4_w4, delay4, queue32, portLS1"

DEFAULT_RING = 65_536
DEFAULT_SAMPLE_PERIOD = 64


def trace_points(
    target: str,
    window: int,
    config: str = DEFAULT_TRACE_CONFIG,
    ring: int = DEFAULT_RING,
    sample_period: int = DEFAULT_SAMPLE_PERIOD,
) -> list[SweepPoint]:
    """Baseline + traced-PFM points for one workload."""
    return [
        baseline_point(target, window),
        SweepPoint(
            label=f"trace:{target} [{config}]",
            workload=target,
            window=window,
            pfm=parse_config_label(config),
            telemetry=TelemetryParams(
                ring_capacity=ring, sample_period=sample_period
            ),
        ),
    ]


def run_trace(
    target: str,
    window: int,
    pool: SweepPool,
    config: str = DEFAULT_TRACE_CONFIG,
    ring: int = DEFAULT_RING,
    sample_period: int = DEFAULT_SAMPLE_PERIOD,
):
    """Run the traced pair; return ``(result, traced_stats, baseline_stats)``."""
    points = trace_points(target, window, config, ring, sample_period)
    stats = pool.run(points)
    base = stats[points[0].label]
    traced = stats[points[1].label]
    snapshot = traced.telemetry or {}

    result = ExperimentResult(
        experiment="Trace",
        title=f"{target} [{config}], window {window}",
        unit="value",
        notes=f"ring {ring} events, sampler period {sample_period} cycles",
    )
    result.add("speedup % over baseline", 100.0 * traced.speedup_over(base))
    result.add("IPC (traced)", traced.ipc)
    result.add("events captured", snapshot.get("captured", 0))
    result.add("events dropped (ring full)", snapshot.get("dropped", 0))
    for kind, count in sorted(snapshot.get("counts", {}).items()):
        result.add(f"emitted: {kind}", count)
    return result, traced, base
