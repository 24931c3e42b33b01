"""Typed request and job models for the simulation service.

Requests are plain dataclasses with an explicit wire codec
(``to_wire``/``from_wire``) and eager validation — a malformed payload
is rejected at submit time with a message naming the field, never half
way through a simulation.  Each request kind maps onto the existing
sweep substrate: ``simulate`` is one :class:`SweepPoint`, ``sweep`` is
the full-matrix grid from :mod:`repro.experiments.sweep`, and ``trace``
is the telemetry pair from :mod:`repro.experiments.trace`, so the
service's results are byte-identical to running the same points through
a :class:`~repro.experiments.pool.SweepPool` directly.

Jobs wrap one admitted request with lifecycle state.  The state machine
is linear::

    queued -> running -> done | failed

Job records live in the daemon's memory only; a restarted daemon knows
none of them, and a resubmit is served from the result store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar

#: Default dynamic-instruction window for service requests (matches the
#: CLI default; kept here so the wire schema is self-contained).
DEFAULT_WINDOW = 40_000


class RequestError(ValueError):
    """A submitted payload failed validation (HTTP 400 at the front door)."""


# --------------------------------------------------------------------- #
# request models
# --------------------------------------------------------------------- #


def _require_int(payload: dict, key: str, default: int, minimum: int = 1) -> int:
    value = payload.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise RequestError(
            f"field {key!r} must be an integer >= {minimum}, got {value!r}"
        )
    return value


def _require_str(payload: dict, key: str, default: str | None) -> str | None:
    value = payload.get(key, default)
    if value is not None and not isinstance(value, str):
        raise RequestError(f"field {key!r} must be a string, got {value!r}")
    return value


def _require_shard(payload: dict) -> tuple[int, int] | None:
    value = payload.get("shard")
    if value is None:
        return None
    if isinstance(value, str):
        index_text, _, count_text = value.partition("/")
        try:
            value = [int(index_text), int(count_text)]
        except ValueError:
            raise RequestError(
                f"field 'shard' must be I/N or [index, count], got {value!r}"
            ) from None
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or any(not isinstance(v, int) or isinstance(v, bool) for v in value)
    ):
        raise RequestError(
            f"field 'shard' must be I/N or [index, count], got {value!r}"
        )
    index, count = value
    if count < 1 or not 1 <= index <= count:
        raise RequestError(
            f"field 'shard' must satisfy 1 <= index <= count, got {value!r}"
        )
    return index, count


def _require_names(payload: dict, key: str) -> tuple[str, ...]:
    value = payload.get(key, ())
    if isinstance(value, str):
        value = [part for part in value.replace(",", " ").split() if part]
    if not isinstance(value, (list, tuple)) or any(
        not isinstance(item, str) for item in value
    ):
        raise RequestError(
            f"field {key!r} must be a list of names (or a comma list), got {value!r}"
        )
    return tuple(value)


@dataclass
class SimulateRequest:
    """One simulation: a workload, a window, optionally a PFM config."""

    kind: ClassVar[str] = "simulate"

    workload: str
    window: int = DEFAULT_WINDOW
    config: str | None = None  # paper notation, e.g. "clk4_w4, delay4"
    overrides: dict = field(default_factory=dict)
    jobs: int = 1

    def to_wire(self) -> dict:
        return {
            "kind": self.kind,
            "workload": self.workload,
            "window": self.window,
            "config": self.config,
            "overrides": dict(self.overrides),
            "jobs": self.jobs,
        }

    @classmethod
    def from_wire(cls, payload: dict) -> "SimulateRequest":
        workload = _require_str(payload, "workload", None)
        if not workload:
            raise RequestError("simulate requests need a 'workload' name")
        overrides = payload.get("overrides", {})
        if not isinstance(overrides, dict):
            raise RequestError(
                f"field 'overrides' must be an object, got {overrides!r}"
            )
        return cls(
            workload=workload,
            window=_require_int(payload, "window", DEFAULT_WINDOW),
            config=_require_str(payload, "config", None),
            overrides=dict(overrides),
            jobs=_require_int(payload, "jobs", 1),
        )


@dataclass
class SweepRequest:
    """A full sweep grid: workloads x PFM config labels, one window."""

    kind: ClassVar[str] = "sweep"

    window: int = DEFAULT_WINDOW
    workloads: tuple[str, ...] = ()  # empty = every registered workload
    configs: tuple[str, ...] = ()  # empty = the default SWEEP_CONFIGS grid
    jobs: int = 1
    shard: tuple[int, int] | None = None  # (index, count), 1-based

    def to_wire(self) -> dict:
        wire: dict[str, Any] = {
            "kind": self.kind,
            "window": self.window,
            "workloads": list(self.workloads),
            "configs": list(self.configs),
            "jobs": self.jobs,
        }
        if self.shard is not None:
            wire["shard"] = list(self.shard)
        return wire

    @classmethod
    def from_wire(cls, payload: dict) -> "SweepRequest":
        return cls(
            window=_require_int(payload, "window", DEFAULT_WINDOW),
            workloads=_require_names(payload, "workloads"),
            configs=_require_names(payload, "configs"),
            jobs=_require_int(payload, "jobs", 1),
            shard=_require_shard(payload),
        )


@dataclass
class TraceRequest:
    """A telemetry-traced run; the result is the metrics manifest."""

    kind: ClassVar[str] = "trace"

    target: str = "astar"
    window: int = DEFAULT_WINDOW
    config: str | None = None  # None = the trace experiment's default
    ring: int = 65_536
    sample_period: int = 64
    jobs: int = 1

    def to_wire(self) -> dict:
        return {
            "kind": self.kind,
            "target": self.target,
            "window": self.window,
            "config": self.config,
            "ring": self.ring,
            "sample_period": self.sample_period,
            "jobs": self.jobs,
        }

    @classmethod
    def from_wire(cls, payload: dict) -> "TraceRequest":
        target = _require_str(payload, "target", "astar")
        assert target is not None
        return cls(
            target=target,
            window=_require_int(payload, "window", DEFAULT_WINDOW),
            config=_require_str(payload, "config", None),
            ring=_require_int(payload, "ring", 65_536),
            sample_period=_require_int(payload, "sample_period", 64, minimum=0),
            jobs=_require_int(payload, "jobs", 1),
        )


# --------------------------------------------------------------------- #
# job lifecycle
# --------------------------------------------------------------------- #

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

JOB_STATES = (QUEUED, RUNNING, DONE, FAILED)

TERMINAL_STATES = (DONE, FAILED)


@dataclass
class JobRecord:
    """One admitted request plus its lifecycle state.

    ``seq`` is the admission order (jobs run in it, and job ids derive
    from it); ``request`` is the validated wire payload.
    """

    id: str
    kind: str
    seq: int
    request: dict
    state: str = QUEUED
    error: str | None = None

    def status_payload(self) -> dict:
        """The ``/status`` endpoint's JSON view of this job."""
        payload: dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "seq": self.seq,
            "request": self.request,
            "state": self.state,
            "terminal": self.state in TERMINAL_STATES,
        }
        if self.error is not None:
            payload["error"] = self.error
        return payload


def job_id_for(seq: int) -> str:
    return f"job-{seq:06d}"
