"""Request-kind handlers: wire payload -> SweepPool run -> result bytes.

Each handler is registered in :data:`repro.registry.service.SERVICE_KINDS`
and maps one request kind onto the *existing* execution path — the same
:class:`~repro.experiments.pool.SweepPoint` grids, the same
:class:`~repro.experiments.pool.SweepPool`, the same deterministic
serializers the CLI uses — so a result fetched from the daemon is
byte-identical to running the request directly.  Handlers return
``(text, meta)``: the result payload as its final JSON text, and a small
meta dict (point counts, per-backend counts) the daemon folds into its
``/stats`` counters.

Adding a request kind is: a model in :mod:`repro.service.models`, a
handler class here with ``@register_request_kind``, and nothing else —
the daemon, client, and CLI dispatch through the registry.
"""

from __future__ import annotations

import inspect
import json

from repro.experiments.pool import SweepPool, stats_to_dict
from repro.experiments.sweep import payload_json, run_sweep, sweep_points
from repro.experiments.trace import run_trace, trace_points
from repro.experiments.trace import DEFAULT_TRACE_CONFIG
from repro.registry.service import register_request_kind
from repro.service.models import (
    RequestError,
    SimulateRequest,
    SweepRequest,
    TraceRequest,
)


def _check_workload(name: str) -> None:
    from repro.registry import WORKLOADS

    if name not in WORKLOADS:
        raise RequestError(WORKLOADS.unknown_message(name))


def _check_overrides(workload: str, overrides: dict) -> None:
    """Reject builder overrides the registered builder would not take.

    Each key must name a parameter of the workload's builder that has a
    default, and each value must have that default's type (an int is
    fine where the default is a float; a bool is never an int).
    """
    from repro.registry import WORKLOADS

    params = inspect.signature(WORKLOADS.get(workload)).parameters
    for key, value in overrides.items():
        param = params.get(key)
        if param is None or param.default is inspect.Parameter.empty:
            raise RequestError(
                f"override {key!r} is not a parameter of the {workload!r}"
                " workload builder"
            )
        expected = type(param.default)
        if type(value) is not expected and not (
            expected is float and type(value) is int
        ):
            raise RequestError(
                f"override {key!r} must be {expected.__name__} like its"
                f" default {param.default!r}, got {value!r}"
            )


def _check_config(label: str | None) -> None:
    if label is None:
        return
    from repro.experiments.runner import parse_config_label

    try:
        parse_config_label(label)
    except ValueError as exc:
        raise RequestError(str(exc)) from None


def _backend_counts(stats_by_label: dict) -> dict[str, int]:
    """Per-backend run counts (provenance attr, 'python' when absent)."""
    counts: dict[str, int] = {}
    for stats in stats_by_label.values():
        backend = getattr(stats, "backend", "python")
        counts[backend] = counts.get(backend, 0) + 1
    return counts


def simulate_result_json(point, stats) -> str:
    """Deterministic payload for one simulated point (sorted keys)."""
    payload = {
        "kind": "simulate",
        "label": point.label,
        "workload": point.workload,
        "window": point.window,
        "key": point.key(),
        "ipc": stats.ipc,
        "stats": stats_to_dict(stats),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def trace_result_json(manifest: dict) -> str:
    """The metrics manifest exactly as the ``trace`` CLI writes it."""
    return json.dumps(manifest, sort_keys=True, indent=2) + "\n"


@register_request_kind("simulate")
class SimulateHandler:
    """One workload x window x optional PFM config -> flat stats JSON."""

    kind = "simulate"
    summary = "one run: workload, window, optional PFM config label"
    request_cls = SimulateRequest

    @staticmethod
    def validate(request: SimulateRequest) -> None:
        _check_workload(request.workload)
        _check_overrides(request.workload, request.overrides)
        _check_config(request.config)

    @staticmethod
    def points(request: SimulateRequest) -> list:
        from repro.experiments.pool import SweepPoint
        from repro.experiments.runner import parse_config_label

        if request.config is None:
            label, pfm = f"baseline:{request.workload}", None
        else:
            label = f"{request.workload} [{request.config}]"
            pfm = parse_config_label(request.config)
        return [
            SweepPoint(
                label=label,
                workload=request.workload,
                window=request.window,
                pfm=pfm,
                overrides=dict(request.overrides),
            )
        ]

    @classmethod
    def run(
        cls, request: SimulateRequest, pool: SweepPool
    ) -> tuple[str, dict]:
        (point,) = cls.points(request)
        stats = pool.run([point])[point.label]
        meta = {
            "points": 1,
            "backends": _backend_counts({point.label: stats}),
        }
        return simulate_result_json(point, stats), meta


@register_request_kind("sweep")
class SweepHandler:
    """Workloads x configs grid -> the ``sweep --json`` payload."""

    kind = "sweep"
    summary = "full-matrix sweep: workloads x PFM configs, one window"
    request_cls = SweepRequest

    @classmethod
    def validate(cls, request: SweepRequest) -> None:
        workloads, configs = cls.grid(request)
        for name in workloads:
            _check_workload(name)
        for label in configs:
            _check_config(label)

    @staticmethod
    def grid(request: SweepRequest) -> tuple[tuple[str, ...], tuple[str, ...]]:
        from repro.experiments.sweep import SWEEP_CONFIGS, SWEEP_WORKLOADS

        workloads = request.workloads or tuple(SWEEP_WORKLOADS)
        configs = request.configs or tuple(SWEEP_CONFIGS)
        return workloads, configs

    @classmethod
    def points(cls, request: SweepRequest) -> list:
        workloads, configs = cls.grid(request)
        return sweep_points(request.window, workloads, configs)

    @classmethod
    def run(cls, request: SweepRequest, pool: SweepPool) -> tuple[str, dict]:
        workloads, configs = cls.grid(request)
        if request.shard is not None:
            # A shard job's product is its result store (the daemon's, or
            # --store); the payload is the shard summary.  Merge the
            # stores of N daemons with `repro.experiments shard-merge`.
            from repro.experiments.sweep import run_sweep_shard

            payload = run_sweep_shard(
                request.window, pool, request.shard, workloads, configs
            )
            return payload_json(payload), {"points": payload["points_selected"]}
        result, payload = run_sweep(request.window, pool, workloads, configs)
        meta = {"points": len(payload["points"])}
        return payload_json(payload), meta


@register_request_kind("trace")
class TraceHandler:
    """Telemetry-traced pair -> the metrics manifest JSON."""

    kind = "trace"
    summary = "telemetry-traced run; result is the metrics manifest"
    request_cls = TraceRequest

    @staticmethod
    def validate(request: TraceRequest) -> None:
        _check_workload(request.target)
        _check_config(request.config)

    @staticmethod
    def points(request: TraceRequest) -> list:
        return trace_points(
            request.target,
            request.window,
            request.config or DEFAULT_TRACE_CONFIG,
            request.ring,
            request.sample_period,
        )

    @classmethod
    def run(cls, request: TraceRequest, pool: SweepPool) -> tuple[str, dict]:
        from repro.telemetry.export import metrics_manifest

        result, traced, base = run_trace(
            request.target,
            request.window,
            pool,
            config=request.config or DEFAULT_TRACE_CONFIG,
            ring=request.ring,
            sample_period=request.sample_period,
        )
        manifest = metrics_manifest(traced, baseline=base)
        meta = {
            "points": 2,
            "backends": _backend_counts({"traced": traced, "base": base}),
        }
        return trace_result_json(manifest), meta
