"""The telemetry hub: the probe-facing event bus.

One hub instance serves one simulation run.  Probe attach points (the
core pipeline loop, :class:`~repro.pfm.queues.TimedQueue` endpoints, the
fabric, and the three agents) hold an optional reference to the hub and
guard every emission with a ``None`` check, so a run with no hub pays a
single pointer test per attach point.  The hub itself applies the
configured group filter, forwards surviving events to the ring-buffer
sink, and drives the periodic sampler bank off retire progress.
"""

from __future__ import annotations

from repro.telemetry.events import (
    AgentEvent,
    QueueEvent,
    SampleEvent,
    SquashEvent,
    StageEvent,
    format_inst,
)
from repro.telemetry.params import TelemetryParams
from repro.telemetry.samplers import SamplerBank
from repro.telemetry.sink import RingBufferSink


class TelemetryHub:
    """Typed event bus over one bounded sink plus a sampler bank."""

    def __init__(self, params: TelemetryParams):
        self.params = params
        self.sink = RingBufferSink(params.ring_capacity)
        groups = frozenset(params.groups)
        self._stage = "stage" in groups
        self._squash = "squash" in groups
        self._queue = "queue" in groups
        self._agent = "agent" in groups
        sample_period = params.sample_period if "sample" in groups else 0
        self.samplers = SamplerBank(sample_period)
        #: Emission totals per event kind, counted *before* the sink's
        #: capacity check — ``sum(counts.values()) - len(sink)`` equals
        #: ``sink.dropped`` by construction.
        self.counts: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # probe-facing emitters
    # ------------------------------------------------------------------ #

    def _emit(self, event) -> None:
        counts = self.counts
        counts[event.kind] = counts.get(event.kind, 0) + 1
        self.sink.emit(event)

    def stage(
        self,
        dyn,
        fetch: int,
        dispatch: int,
        issue: int,
        complete: int,
        retire: int,
    ) -> None:
        """Record one retired instruction's five stage timestamps."""
        if self._stage:
            self._emit(
                StageEvent(
                    seq=dyn.seq,
                    pc=dyn.pc,
                    label=format_inst(dyn),
                    fetch=fetch,
                    dispatch=dispatch,
                    issue=issue,
                    complete=complete,
                    retire=retire,
                )
            )

    def squash(self, ts: int, reason: str) -> None:
        if self._squash:
            self._emit(SquashEvent(ts=ts, reason=reason))

    def queue(self, ts: int, queue: str, op: str, occupancy: int) -> None:
        if self._queue:
            self._emit(QueueEvent(ts=ts, queue=queue, op=op, occupancy=occupancy))

    def agent(self, ts: int, agent: str, event: str, value: int = 0) -> None:
        if self._agent:
            self._emit(AgentEvent(ts=ts, agent=agent, event=event, value=value))

    def maybe_sample(self, now: int) -> None:
        """Fire the sampler bank if a cadence boundary has been crossed."""
        if self.samplers.due(now):
            for track, value in self.samplers.collect(now):
                self._emit(SampleEvent(ts=now, track=track, value=value))

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #

    def attach_fabric(self, fabric) -> None:
        """Attach probes and samplers to a built :class:`PFMFabric`.

        Wires every fabric slot: slot 0 (the primary tenant) keeps the
        historical track names, co-tenant slot *i* gets an ``@i`` suffix
        (``occ:ObsQ-R@1``, ``clkC@1``, ...) so per-slot occupancy is
        attributable in traces.
        """
        samplers = self.samplers
        for slot in fabric.slots:
            if self._queue:
                for q in (slot.obs_q, slot.intq_is, slot.retq):
                    q.probe = self
            if self._agent or self._queue:
                slot.probe = self
                slot.fetch_agent.probe = self
                slot.load_agent.probe = self
                slot.retire_agent.probe = self
            tag = "" if slot.index == 0 else f"@{slot.index}"
            samplers.register(
                f"occ:ObsQ-R{tag}", lambda now, s=slot: s.obs_q.occupancy
            )
            samplers.register(
                f"occ:IntQ-F{tag}",
                lambda now, s=slot: s.fetch_agent.occupancy_at(now),
            )
            samplers.register(
                f"occ:IntQ-IS{tag}", lambda now, s=slot: s.intq_is.occupancy
            )
            samplers.register(
                f"occ:ObsQ-EX{tag}", lambda now, s=slot: s.retq.occupancy
            )
            samplers.register(
                f"occ:MLB{tag}", lambda now, s=slot: s.load_agent.mlb_occupancy
            )
            samplers.register(
                f"prf_port_delay{tag}",
                lambda now, s=slot: s.retire_agent.port_delay_cycles,
            )
            samplers.register(f"clkC{tag}", lambda now, s=slot: s.rf_cycle)
            if slot.reconfig is not None:
                samplers.register(
                    f"reconfigs{tag}", lambda now, s=slot: s.reconfig.reconfigs
                )
        if len(fabric.slots) > 1:
            samplers.register(
                "sched:stalls", lambda now: fabric.scheduler.stall_cycles
            )

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """JSON-safe summary of everything the hub captured.

        This is what lands in ``SimStats.telemetry`` — plain dicts and
        lists only, so it survives the sweep pool's pickling, result-store
        JSON, and ``--json`` serialization without loss.
        """
        return {
            "ring_capacity": self.sink.capacity,
            "sample_period": self.samplers.period,
            "groups": list(self.params.groups),
            "captured": len(self.sink),
            "dropped": self.sink.dropped,
            "counts": dict(sorted(self.counts.items())),
            "tracks": list(self.samplers.tracks),
            "events": [event.as_dict() for event in self.sink.events],
        }
