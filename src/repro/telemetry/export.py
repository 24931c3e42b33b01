"""Exporters: Perfetto/Chrome trace-event JSON, CSV, metrics manifest.

All exporters consume the JSON-safe snapshot produced by
:meth:`~repro.telemetry.hub.TelemetryHub.snapshot` (the form stored in
``SimStats.telemetry``), not live hub objects, so they work identically
on in-process runs, sweep-pool worker results, and reloaded result-store
entries.  Serialization is deterministic — sorted keys, stable event
order — so traces are byte-identical across ``--jobs`` values.

The Perfetto layout:

* pid 1, "core pipeline" — per-stage slice tracks (F/D/I/C/R, four
  round-robin slots each so simultaneously in-flight instructions render
  side by side) plus squash instants.
* pid 2, "pfm fabric" — occupancy counter tracks (``occ:ObsQ-R``,
  ``occ:IntQ-F``, ``occ:IntQ-IS``, ``occ:ObsQ-EX``, ``occ:MLB``), the
  cumulative ``prf_port_delay`` and ``clkC`` progress counters, and
  agent instants (FST/RST hits, IntQ-F stalls, MLB fill/replay,
  squash-sync).

Core cycles map 1:1 to trace microseconds.  Load the file at
https://ui.perfetto.dev (or chrome://tracing).
"""

from __future__ import annotations

import io
import json

#: Stage slice tracks: (mark, human name, base tid).
_STAGES = (
    ("F", "fetch", 10),
    ("D", "dispatch", 20),
    ("I", "issue", 30),
    ("C", "complete", 40),
    ("R", "retire", 50),
)

#: Round-robin slots per stage track, so overlapping in-flight
#: instructions land on sibling threads instead of nesting.
_SLOTS = 4

#: Instant-event threads under the fabric process.
_AGENT_TIDS = {"fetch": 61, "load": 62, "retire": 63, "fabric": 64}
_DROP_TID = 60
_SQUASH_TID = 1


def _metadata(pid: int, name: str, tid: int | None = None) -> dict:
    event = {
        "ph": "M",
        "pid": pid,
        "ts": 0,
        "name": "process_name" if tid is None else "thread_name",
        "args": {"name": name},
    }
    if tid is not None:
        event["tid"] = tid
    return event


def _stage_slices(event: dict) -> list[dict]:
    slot = event["seq"] % _SLOTS
    bounds = (
        event["fetch"],
        event["dispatch"],
        event["issue"],
        event["complete"],
        event["retire"],
        event["retire"] + 1,  # retire occupies its slot for one cycle
    )
    slices = []
    for (mark, _, base_tid), start, end in zip(_STAGES, bounds, bounds[1:]):
        slices.append(
            {
                "ph": "X",
                "pid": 1,
                "tid": base_tid + slot,
                "ts": start,
                "dur": max(end - start, 0),
                "name": event["label"],
                "args": {
                    "seq": event["seq"],
                    "pc": f"{event['pc']:#x}",
                    "stage": mark,
                },
            }
        )
    return slices


def _counter(name: str, ts: int, value: int) -> dict:
    return {
        "ph": "C",
        "pid": 2,
        "ts": ts,
        "name": name,
        "args": {"value": value},
    }


def _instant(name: str, ts: int, tid: int, pid: int, value: int | None = None) -> dict:
    event = {"ph": "i", "s": "t", "pid": pid, "tid": tid, "ts": ts, "name": name}
    if value is not None:
        event["args"] = {"value": value}
    return event


def perfetto_trace(snapshot: dict) -> dict:
    """Build the trace-event document (as a dict) from a hub snapshot."""
    events: list[dict] = [
        _metadata(1, "core pipeline"),
        _metadata(2, "pfm fabric"),
        _metadata(1, "squash", tid=_SQUASH_TID),
        _metadata(2, "queue drops", tid=_DROP_TID),
    ]
    for mark, stage_name, base_tid in _STAGES:
        for slot in range(_SLOTS):
            events.append(
                _metadata(1, f"{mark} {stage_name} #{slot}", tid=base_tid + slot)
            )
    for agent, tid in sorted(_AGENT_TIDS.items()):
        events.append(_metadata(2, f"agent:{agent}", tid=tid))

    body: list[dict] = []
    for event in snapshot.get("events", ()):
        kind = event["kind"]
        if kind == "stage":
            body.extend(_stage_slices(event))
        elif kind == "squash":
            body.append(
                _instant(
                    f"squash:{event['reason']}", event["ts"], _SQUASH_TID, pid=1
                )
            )
        elif kind == "queue":
            body.append(
                _counter(f"occ:{event['queue']}", event["ts"], event["occupancy"])
            )
            if event["op"] == "drop":
                body.append(
                    _instant(
                        f"drop:{event['queue']}", event["ts"], _DROP_TID, pid=2
                    )
                )
        elif kind == "agent":
            body.append(
                _instant(
                    event["event"],
                    event["ts"],
                    _AGENT_TIDS.get(event["agent"], _DROP_TID),
                    pid=2,
                    value=event["value"],
                )
            )
        elif kind == "sample":
            body.append(_counter(event["track"], event["ts"], event["value"]))
    # Stable timestamp order (metadata stays first at ts 0).
    body.sort(key=lambda e: e["ts"])
    events.extend(body)
    return {
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.telemetry",
            "dropped_events": snapshot.get("dropped", 0),
            "ring_capacity": snapshot.get("ring_capacity", 0),
        },
        "traceEvents": events,
    }


def perfetto_json(snapshot: dict) -> str:
    """Deterministic Perfetto/Chrome trace-event JSON for a snapshot."""
    return (
        json.dumps(
            perfetto_trace(snapshot), sort_keys=True, separators=(",", ":")
        )
        + "\n"
    )


_CSV_COLUMNS = (
    "kind",
    "ts",
    "name",
    "op",
    "value",
    "seq",
    "pc",
    "fetch",
    "dispatch",
    "issue",
    "complete",
    "retire",
)


def events_csv(snapshot: dict) -> str:
    """Flat CSV of the event stream (one row per event, stable columns)."""
    out = io.StringIO()
    out.write(",".join(_CSV_COLUMNS) + "\n")
    for event in snapshot.get("events", ()):
        kind = event["kind"]
        row = dict.fromkeys(_CSV_COLUMNS, "")
        row["kind"] = kind
        if kind == "stage":
            row.update(
                ts=event["fetch"],
                name=event["label"],
                value=event["retire"] - event["fetch"],
                seq=event["seq"],
                pc=f"{event['pc']:#x}",
                fetch=event["fetch"],
                dispatch=event["dispatch"],
                issue=event["issue"],
                complete=event["complete"],
                retire=event["retire"],
            )
        elif kind == "squash":
            row.update(ts=event["ts"], name=event["reason"])
        elif kind == "queue":
            row.update(
                ts=event["ts"],
                name=event["queue"],
                op=event["op"],
                value=event["occupancy"],
            )
        elif kind == "agent":
            row.update(
                ts=event["ts"],
                name=f"{event['agent']}.{event['event']}",
                value=event["value"],
            )
        elif kind == "sample":
            row.update(ts=event["ts"], name=event["track"], value=event["value"])
        text = ",".join(str(row[column]) for column in _CSV_COLUMNS)
        out.write(text.replace("\n", " ") + "\n")
    return out.getvalue()


#: Snapshot summary keys copied into the manifest (events excluded — the
#: manifest is the metrics view; the event stream is Perfetto/CSV's job).
_SNAPSHOT_SUMMARY_KEYS = (
    "ring_capacity",
    "sample_period",
    "groups",
    "captured",
    "dropped",
    "counts",
    "tracks",
)


def metrics_manifest(stats, baseline=None) -> dict:
    """Per-run metrics manifest folded from :class:`SimStats`.

    Uses ``SimStats.to_dict()`` (flat, stable key order) rather than
    plucking attributes one call at a time; with *baseline* the manifest
    also carries the baseline metrics and the speedup.
    """
    manifest: dict = {
        "schema": "repro-telemetry-manifest/1",
        "metrics": stats.to_dict(),
    }
    snapshot = getattr(stats, "telemetry", None)
    if snapshot:
        manifest["telemetry"] = {
            key: snapshot.get(key) for key in _SNAPSHOT_SUMMARY_KEYS
        }
    if baseline is not None:
        manifest["baseline"] = baseline.to_dict()
        manifest["speedup_pct"] = 100.0 * stats.speedup_over(baseline)
    return manifest
