"""The pipeline context shared by all four stages.

Everything more than one stage reads or writes lives here: the run
configuration, statistics, structural resources (ROB / issue queue /
LDQ / STQ / fetch queue rings, the lane scheduler), the register
scoreboard, the in-flight store book, the cross-stage timing cursors,
and the squash machinery.  Stage objects hold stage-local state (the
front-end predictors, retire-slot counters, execution lane map) and
mutate the context exactly as the monolithic ``SuperscalarCore._process``
did before the decomposition — the golden-stats harness pins that the
split is behavior-preserving to the bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.params import CoreParams, SimConfig
from repro.core.resources import HeapOccupancy, LaneScheduler, RingOccupancy
from repro.core.stats import SimStats
from repro.memory.hierarchy import MemoryHierarchy

if TYPE_CHECKING:
    from repro.core.stages.execute import InFlightStore
    from repro.pfm.fabric import PFMFabric


class PipelineContext:
    """Shared state of one simulated core instance."""

    __slots__ = (
        "config",
        "params",
        "stats",
        "hierarchy",
        "lanes",
        "rob",
        "iq",
        "ldq",
        "stq",
        "fetchq",
        "reg_ready",
        "stores_by_line",
        "fetch_cycle",
        "fetch_used",
        "redirect_floor",
        "last_iline",
        "prev_retire",
        "retire_floor",
        "first_retire",
        "fabric",
        "telemetry",
    )

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        p: CoreParams = config.core
        self.params = p
        self.stats = SimStats()
        self.hierarchy = MemoryHierarchy(config.memory)
        self.lanes = LaneScheduler(p.num_lanes, p.issue_width)

        self.rob = RingOccupancy(p.rob_size)
        self.iq = HeapOccupancy(p.iq_size)
        self.ldq = RingOccupancy(p.ldq_size)
        self.stq = RingOccupancy(p.stq_size)
        self.fetchq = RingOccupancy(p.fetch_queue_size)

        self.reg_ready: dict[str, int] = {}
        self.stores_by_line: dict[int, list["InFlightStore"]] = {}

        self.fetch_cycle = 0
        self.fetch_used = 0
        self.redirect_floor = 0
        self.last_iline = -1
        self.prev_retire = 0
        self.retire_floor = 0
        self.first_retire: int | None = None

        # The PFM fabric whose agents sit at the fetch, execute and retire
        # interfaces (§2.1–2.3); None on baseline runs.
        self.fabric: "PFMFabric | None" = None

        self.telemetry: Any | None = None  # TelemetryHub when tracing

    # ------------------------------------------------------------------ #
    # squash (cross-stage: resolves at execute, redirects fetch, stalls
    # retire through the Retire Agent's squash-done handshake)
    # ------------------------------------------------------------------ #

    def squash_at(self, resolve_time: int, reason: str) -> None:
        """Pipeline squash resolving at *resolve_time* (redirect + PFM sync)."""
        stats = self.stats
        stats.pipeline_squashes += 1
        if self.telemetry is not None:
            self.telemetry.squash(resolve_time, reason)
        redirect = resolve_time + 1
        if redirect > self.redirect_floor:
            stats.squash_refill_cycles += redirect - max(
                self.redirect_floor, self.fetch_cycle
            )
            self.redirect_floor = redirect
        fabric = self.fabric
        if fabric is not None:
            done = fabric.on_core_squash(resolve_time, reason)
            if done > self.retire_floor:
                stats.retire_stall_squash_sync_cycles += done - resolve_time
                self.retire_floor = done
