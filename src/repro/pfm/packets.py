"""Packet types exchanged between the core's Agents and the RF component.

Observation packets (core -> RF, via ObsQ-R): Section 2.1's three kinds —
destination value, store value, branch outcome — plus begin-of-ROI and
squash control packets.

Intervention packets (RF -> core): prefetch/load requests (IntQ-IS,
Section 2.3).  Conditional branch predictions (IntQ-F, Section 2.2) travel
as the Fetch Agent's own pending entries.
Load values return RF-ward via ObsQ-EX, tagged with the component's unique
identifier because they may come back out of order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pfm.snoop import SnoopKind


@dataclass(slots=True)
class ObsPacket:
    """Retire Agent -> component observation."""

    kind: SnoopKind
    tag: str  # semantic tag from the RST entry
    pc: int
    value: float | None = None  # destination or store value
    address: int | None = None  # store/load effective address
    taken: bool | None = None  # branch outcome packets


@dataclass(slots=True)
class SquashPacket:
    """Retire Agent -> component: pipeline squash notification (§2.1)."""

    core_time: int
    reason: str  # "branch", "disambiguation", "roi_begin"


@dataclass(slots=True)
class LoadPacket:
    """Component -> Load Agent: injected load or prefetch (§2.3)."""

    ident: int  # component-unique id, returned with the value
    address: int
    is_prefetch: bool = False


@dataclass(slots=True)
class LoadReturn:
    """Load Agent -> component via ObsQ-EX."""

    ident: int
    value: float
    address: int
