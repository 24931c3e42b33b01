"""Programmable introspection for the reproduction itself.

The paper's premise is *observing a live pipeline* — the Retire/Fetch/
Load Agents snoop retired instructions, fetch bundles, and load lanes.
This package gives the reproduction the same shape of observability over
its own simulation: typed events emitted from probe attach points in the
core pipeline, the PFM fabric queues, and all three agents, collected by
a bounded ring-buffer sink, optionally augmented with periodic occupancy
samplers, and exported as Chrome/Perfetto trace-event JSON, CSV, or a
flat metrics manifest.

The design follows the IPU / FireGuard pattern (see PAPERS.md):
programmable probes at microarchitectural boundaries feed a decoupled
analysis engine.  Probes are attribute checks (``if hub is not None``)
at the attach points, so a run with no sink attached pays nothing beyond
a pointer test — telemetry is strictly observe-only and never perturbs
timing or architectural state (``SimStats.arch_digest`` is bit-identical
with probes on or off).

Usage::

    from repro.core import SimConfig, simulate
    from repro.telemetry import TelemetryParams

    stats = simulate(workload, SimConfig(telemetry=TelemetryParams()))
    snapshot = stats.telemetry          # events + counters + drop counts
    perfetto_json(snapshot)             # load at https://ui.perfetto.dev
"""

from repro.telemetry.events import (
    AgentEvent,
    QueueEvent,
    SampleEvent,
    SquashEvent,
    StageEvent,
)
from repro.telemetry.export import events_csv, metrics_manifest, perfetto_json
from repro.telemetry.hub import TelemetryHub
from repro.telemetry.params import EVENT_GROUPS, TelemetryParams
from repro.telemetry.sink import RingBufferSink

__all__ = [
    "AgentEvent",
    "EVENT_GROUPS",
    "QueueEvent",
    "RingBufferSink",
    "SampleEvent",
    "SquashEvent",
    "StageEvent",
    "TelemetryHub",
    "TelemetryParams",
    "events_csv",
    "metrics_manifest",
    "perfetto_json",
]
