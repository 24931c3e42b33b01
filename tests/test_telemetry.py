"""Telemetry subsystem: probes, ring sink, exporters, trace determinism."""

import json

import pytest

from repro.core import PFMParams, SimConfig, simulate
from repro.experiments.pool import SweepPool
from repro.experiments.trace import trace_points
from repro.registry import build_workload
from repro.telemetry import (
    EVENT_GROUPS,
    RingBufferSink,
    SquashEvent,
    TelemetryParams,
    events_csv,
    metrics_manifest,
    perfetto_json,
)
from repro.telemetry.export import perfetto_trace

WINDOW = 3_000
PFM = PFMParams()  # the Table 2 configuration (clk4_w4, delay4, queue32)


def run_astar(telemetry=None, window=WINDOW):
    return simulate(
        build_workload("astar"),
        SimConfig(max_instructions=window, pfm=PFM, telemetry=telemetry),
    )


@pytest.fixture(scope="module")
def traced():
    return run_astar(TelemetryParams(ring_capacity=65_536, sample_period=64))


# --------------------------------------------------------------------- #
# observe-only invariant
# --------------------------------------------------------------------- #


def test_probes_do_not_perturb_the_run(traced):
    plain = run_astar()
    assert plain.arch_digest == traced.arch_digest
    assert plain.cycles == traced.cycles
    assert plain.instructions == traced.instructions
    assert plain.pipeline_squashes == traced.pipeline_squashes


def test_snapshot_lands_in_stats(traced):
    snapshot = traced.telemetry
    assert snapshot is not None
    assert snapshot["captured"] == len(snapshot["events"])
    assert snapshot["dropped"] == 0  # 64k ring swallows a 3k window
    # Emission counts cover every captured event.
    assert sum(snapshot["counts"].values()) == snapshot["captured"]
    assert snapshot["counts"]["stage"] == traced.instructions
    assert snapshot["counts"]["squash"] == traced.pipeline_squashes
    assert run_astar().telemetry is None


def test_snapshot_is_json_safe(traced):
    json.dumps(traced.telemetry)


# --------------------------------------------------------------------- #
# ring buffer drop accounting
# --------------------------------------------------------------------- #


def test_ring_sink_head_anchored():
    sink = RingBufferSink(2)
    for ts in range(5):
        sink.emit(SquashEvent(ts=ts, reason="branch"))
    assert [e.ts for e in sink.events] == [0, 1]
    assert sink.dropped == 3
    with pytest.raises(ValueError):
        RingBufferSink(0)


def test_tiny_ring_drop_accounting():
    stats = run_astar(TelemetryParams(ring_capacity=64, sample_period=64))
    snapshot = stats.telemetry
    assert snapshot["captured"] == 64
    assert snapshot["dropped"] > 0
    assert (
        sum(snapshot["counts"].values())
        == snapshot["captured"] + snapshot["dropped"]
    )
    # Drops never appear in the exported trace; the header reports them.
    trace = perfetto_trace(snapshot)
    assert trace["otherData"]["dropped_events"] == snapshot["dropped"]


def test_group_filter():
    stats = run_astar(
        TelemetryParams(ring_capacity=65_536, groups=("stage", "squash"))
    )
    kinds = {event["kind"] for event in stats.telemetry["events"]}
    assert kinds <= {"stage", "squash"}
    assert stats.telemetry["counts"]["stage"] == stats.instructions
    with pytest.raises(ValueError):
        TelemetryParams(groups=("stage", "bogus"))
    assert set(EVENT_GROUPS) >= {"stage", "squash", "queue", "agent", "sample"}


# --------------------------------------------------------------------- #
# Perfetto exporter schema
# --------------------------------------------------------------------- #


def test_perfetto_schema(traced):
    trace = perfetto_trace(traced.telemetry)
    events = trace["traceEvents"]
    assert events, "empty trace"
    for event in events:
        assert event["ph"] in ("M", "X", "C", "i")
        assert isinstance(event["ts"], int)
        assert isinstance(event["pid"], int)
        if event["ph"] != "M" or "tid" in event:
            pass  # process_name metadata legitimately has no tid
        if event["ph"] == "X":
            assert event["dur"] >= 0
            assert "tid" in event
        if event["ph"] == "i":
            assert event["s"] == "t"
    parsed = json.loads(perfetto_json(traced.telemetry))
    assert parsed["traceEvents"]


def test_perfetto_stage_spans_cover_all_five_stages(traced):
    trace = perfetto_trace(traced.telemetry)
    stages = {
        e["args"]["stage"]
        for e in trace["traceEvents"]
        if e["ph"] == "X" and "stage" in e.get("args", {})
    }
    assert stages == {"F", "D", "I", "C", "R"}


def test_perfetto_occupancy_counter_tracks(traced):
    trace = perfetto_trace(traced.telemetry)
    counters = {e["name"] for e in trace["traceEvents"] if e["ph"] == "C"}
    for track in ("occ:ObsQ-R", "occ:IntQ-F", "occ:IntQ-IS", "occ:ObsQ-EX",
                  "occ:MLB"):
        assert track in counters, f"missing counter track {track}"


def test_perfetto_timestamps_monotonic(traced):
    trace = perfetto_trace(traced.telemetry)
    body = [e for e in trace["traceEvents"] if e["ph"] != "M"]
    timestamps = [e["ts"] for e in body]
    assert timestamps == sorted(timestamps)
    assert all(ts >= 0 for ts in timestamps)


def test_csv_export(traced):
    text = events_csv(traced.telemetry)
    lines = text.splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["kind", "ts", "name"]
    assert len(lines) == 1 + traced.telemetry["captured"]
    assert all(line.count(",") == len(header) - 1 for line in lines)


# --------------------------------------------------------------------- #
# determinism across --jobs
# --------------------------------------------------------------------- #


def test_trace_artifacts_identical_across_jobs():
    points = trace_points("astar", 2_000)
    serial = SweepPool(jobs=1).run(points)
    fanned = SweepPool(jobs=4).run([  # fresh point objects, same spec
        *trace_points("astar", 2_000)
    ])
    label = points[1].label
    assert perfetto_json(serial[label].telemetry) == perfetto_json(
        fanned[label].telemetry
    )
    assert events_csv(serial[label].telemetry) == events_csv(
        fanned[label].telemetry
    )


# --------------------------------------------------------------------- #
# pool interaction
# --------------------------------------------------------------------- #


def test_telemetry_point_is_not_a_baseline():
    plain, traced_point = trace_points("astar", 2_000)
    assert plain.is_baseline
    assert not traced_point.is_baseline
    # Hash is sensitive to the telemetry spec ...
    other = trace_points("astar", 2_000, ring=128)[1]
    assert traced_point.config_key() != other.config_key()
    # ... but absent telemetry leaves pre-existing hashes untouched.
    assert plain.config_key() == trace_points("astar", 2_000)[0].config_key()


# --------------------------------------------------------------------- #
# SimStats.to_dict + queue counters + manifest
# --------------------------------------------------------------------- #


def test_queue_stats_surface_in_simstats(traced):
    assert set(traced.queue_stats) == {"ObsQ-R", "IntQ-IS", "ObsQ-EX", "IntQ-F"}
    for counters in traced.queue_stats.values():
        assert counters["pushes"] >= counters["pops"] >= 0
        assert counters["max_occupancy"] >= 0
        assert counters["full_rejects"] >= 0
    assert run_astar(window=500).queue_stats  # populated without telemetry


def test_to_dict_flat_stable_and_complete(traced):
    flat = traced.to_dict()
    assert list(flat) == sorted(flat)
    assert flat["instructions"] == traced.instructions
    assert flat["ipc"] == traced.ipc
    assert any(key.startswith("load_hits_") for key in flat)
    assert any(key.startswith("mem_") for key in flat)
    assert flat["queue_obsq_r_pushes"] == traced.queue_stats["ObsQ-R"]["pushes"]
    assert "telemetry" not in flat  # bulk events stay out of the metrics view
    assert all(not isinstance(v, dict) for v in flat.values())


def test_metrics_manifest(traced):
    base = run_astar()
    manifest = metrics_manifest(traced, baseline=base)
    assert manifest["schema"].startswith("repro-telemetry-manifest/")
    assert manifest["metrics"]["instructions"] == traced.instructions
    assert manifest["telemetry"]["captured"] == traced.telemetry["captured"]
    assert "events" not in manifest["telemetry"]
    assert manifest["speedup_pct"] == pytest.approx(
        100.0 * traced.speedup_over(base)
    )
    json.dumps(manifest)
