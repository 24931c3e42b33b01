"""Typed telemetry events.

Each event is a slotted dataclass with a class-level ``kind`` tag and a
``ts`` (core-cycle timestamp) the exporters sort on.  ``as_dict`` returns
a JSON-safe mapping — the form events take inside
``SimStats.telemetry`` snapshots, result-store entries, and ``--json``
payloads, so two runs of the same point serialize byte-identically
regardless of worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.isa.instructions import OpClass


@dataclass(slots=True)
class StageEvent:
    """Per-instruction stage timestamps (fetch through retire)."""

    kind: ClassVar[str] = "stage"

    seq: int
    pc: int
    label: str
    fetch: int
    dispatch: int
    issue: int
    complete: int
    retire: int

    @property
    def ts(self) -> int:
        return self.fetch

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seq": self.seq,
            "pc": self.pc,
            "label": self.label,
            "fetch": self.fetch,
            "dispatch": self.dispatch,
            "issue": self.issue,
            "complete": self.complete,
            "retire": self.retire,
        }


@dataclass(slots=True)
class SquashEvent:
    """Pipeline squash resolving at ``ts`` (branch, disambiguation, ROI)."""

    kind: ClassVar[str] = "squash"

    ts: int
    reason: str

    def as_dict(self) -> dict:
        return {"kind": self.kind, "ts": self.ts, "reason": self.reason}


@dataclass(slots=True)
class QueueEvent:
    """Fabric queue endpoint event: push, pop, or full-drop.

    ``occupancy`` is the entry count immediately after the operation, so
    the stream doubles as a dense occupancy counter track.
    """

    kind: ClassVar[str] = "queue"

    ts: int
    queue: str
    op: str  # "push" | "pop" | "drop"
    occupancy: int

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "ts": self.ts,
            "queue": self.queue,
            "op": self.op,
            "occupancy": self.occupancy,
        }


@dataclass(slots=True)
class AgentEvent:
    """Fetch/Load/Retire Agent event (FST/RST hit, stall, MLB activity)."""

    kind: ClassVar[str] = "agent"

    ts: int
    agent: str  # "fetch" | "load" | "retire" | "fabric"
    event: str  # "fst_hit", "rst_hit", "intqf_stall", "mlb_fill", ...
    value: int = 0

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "ts": self.ts,
            "agent": self.agent,
            "event": self.event,
            "value": self.value,
        }


@dataclass(slots=True)
class SampleEvent:
    """Periodic sampler reading of one counter track."""

    kind: ClassVar[str] = "sample"

    ts: int
    track: str
    value: int

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "ts": self.ts,
            "track": self.track,
            "value": self.value,
        }


def format_inst(dyn) -> str:
    """Render a :class:`~repro.workloads.trace.DynInst` as display text."""
    parts = [dyn.mnemonic]
    if dyn.dst:
        parts.append(dyn.dst)
    parts.extend(dyn.srcs)
    text = " ".join(parts)
    if dyn.op_class is OpClass.BRANCH:
        text += " (T)" if dyn.taken else " (NT)"
    return text
