"""Post-Fabrication Microarchitecture: agents, queues, and custom components.

This package implements the paper's primary contribution (Section 2): the
programmable interface between a superscalar core and an on-chip
reconfigurable fabric (RF).

* :mod:`repro.pfm.snoop` — Retire/Fetch Snoop Tables (RST/FST) and the
  configuration-bitstream abstraction that fills them.
* :mod:`repro.pfm.packets` — observation/intervention packet types.
* :mod:`repro.pfm.queues` — the ObsQ-R, IntQ-F, IntQ-IS and ObsQ-EX
  communication queues, modelled in the timestamp domain with finite
  capacity and back-pressure.
* :mod:`repro.pfm.retire_agent`, :mod:`repro.pfm.fetch_agent`,
  :mod:`repro.pfm.load_agent` — the Retire, Fetch, and Load Agents.
* :mod:`repro.pfm.component` — base class and RF timing model
  (clkC / wW / delayD) for custom components.
* :mod:`repro.pfm.tenancy` — fabric slots (one per tenant), partitioned
  snoop tables, and the observation-crossing scheduler.
* :mod:`repro.pfm.fabric` — :class:`PFMFabric`, the slot container the
  pipeline stages call.
* :mod:`repro.pfm.components` — the paper's use-cases: the astar custom
  branch predictor, the bfs engine, and the five custom prefetchers.
"""

from repro.pfm.snoop import FSTEntry, RSTEntry, SnoopKind, Bitstream
from repro.pfm.component import CustomComponent, RFTimings
from repro.pfm.fabric import PFMFabric
from repro.pfm.tenancy import (
    FabricScheduler,
    FabricSlot,
    PartitionedFST,
    PartitionedRST,
    SlotHit,
    TenantSpec,
    parse_tenant_spec,
)

__all__ = [
    "FSTEntry",
    "RSTEntry",
    "SnoopKind",
    "Bitstream",
    "CustomComponent",
    "RFTimings",
    "PFMFabric",
    "TenantSpec",
    "parse_tenant_spec",
    "SlotHit",
    "FabricSlot",
    "FabricScheduler",
    "PartitionedFST",
    "PartitionedRST",
]
