"""Custom component base class and RF-domain timing model.

A custom component synthesized into the reconfigurable fabric runs at a
clock C times slower than the core and has superscalar width W: per RF
cycle it can pop up to W observation packets and load returns, and push up
to W predictions and W(+1) loads (Section 3; the paper's W=4 astar design
pushes up to five loads per FPGA cycle — one from T0 plus four from T1 —
so the load budget is W + 1).  Outputs pass through a delay-D pipeline:
work produced in RF cycle r becomes visible to the agents at core time
``(r + 1 + D) * C``.

Concrete components (astar, bfs, the prefetch FSMs) subclass
:class:`CustomComponent` and implement :meth:`step`, which is called once
per RF cycle with an :class:`RFIo` facade enforcing the width budgets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pfm.packets import LoadPacket, LoadReturn, ObsPacket, SquashPacket


@dataclass(frozen=True)
class RFTimings:
    """RF clock-domain parameters for one component instance."""

    clk_ratio: int  # C
    width: int  # W
    delay: int  # D

    def output_ready(self, rf_cycle: int) -> int:
        """Core time when output produced in *rf_cycle* exits the pipeline."""
        return (rf_cycle + 1 + self.delay) * self.clk_ratio

    def core_time(self, rf_cycle: int) -> int:
        return rf_cycle * self.clk_ratio


class RFIo:
    """Per-RF-cycle I/O facade handed to :meth:`CustomComponent.step`.

    Budgets reset each cycle; the fabric wires the push/pop callbacks.
    """

    def __init__(self, timings: RFTimings, fabric):
        self._timings = timings
        self._fabric = fabric
        self.rf_cycle = 0
        self.now = 0
        self._ready = 0  # core time this cycle's outputs exit the pipeline
        self._obs_budget = 0
        self._ret_budget = 0
        self._pred_budget = 0
        self._load_budget = 0

    def begin_cycle(self, rf_cycle: int) -> None:
        timings = self._timings
        w = timings.width
        self.rf_cycle = rf_cycle
        self.now = timings.core_time(rf_cycle)
        self._ready = timings.output_ready(rf_cycle)
        self._obs_budget = w
        self._ret_budget = w + 1
        self._pred_budget = w
        self._load_budget = w + 1

    # ------------------------------------------------------------------ #
    # inputs
    # ------------------------------------------------------------------ #

    def pop_obs(self) -> ObsPacket | SquashPacket | None:
        """Pop the next visible observation packet (budget W per cycle)."""
        if self._obs_budget <= 0:
            return None
        packet = self._fabric.obs_pop(self.now)
        if packet is not None:
            self._obs_budget -= 1
        return packet

    def pop_return(self) -> LoadReturn | None:
        """Pop the next load value from ObsQ-EX (budget W+1 per cycle)."""
        if self._ret_budget <= 0:
            return None
        ret = self._fabric.return_pop(self.now)
        if ret is not None:
            self._ret_budget -= 1
        return ret

    # ------------------------------------------------------------------ #
    # outputs
    # ------------------------------------------------------------------ #

    @property
    def pred_budget(self) -> int:
        return self._pred_budget

    @property
    def load_budget(self) -> int:
        return self._load_budget

    def can_push_pred(self) -> bool:
        return self._pred_budget > 0 and self._fabric.pred_can_push()

    def push_pred(self, taken: bool, tag: str = "") -> bool:
        """Push one branch prediction toward IntQ-F (through the delay pipe)."""
        if self._pred_budget <= 0 or not self._fabric.pred_can_push():
            return False
        if not self._fabric.pred_push(taken, self._ready, tag):
            return False
        self._pred_budget -= 1
        return True

    def can_push_load(self) -> bool:
        return self._load_budget > 0 and self._fabric.load_can_push()

    def push_load(self, ident: int, address: int, is_prefetch: bool = False) -> bool:
        """Push one load/prefetch packet toward IntQ-IS."""
        if self._load_budget <= 0 or not self._fabric.load_can_push():
            return False
        packet = LoadPacket(ident, address, is_prefetch)
        if not self._fabric.load_push(packet, self._ready):
            return False
        self._load_budget -= 1
        return True

    def begin_new_call(self) -> None:
        """Signal a new ROI call (fresh worklist/frontier base snooped).

        The fabric advances the prediction stream's call id and flushes
        not-yet-consumed predictions from the previous call — the effect
        the hardware achieves with the squash/rollback protocol.
        """
        self._fabric.pred_new_call()


class CustomComponent:
    """Base class for RF-synthesized custom microarchitecture components."""

    #: human-readable name for reports
    name = "custom-component"

    def __init__(self, timings: RFTimings, memory, metadata: dict | None = None):
        self.timings = timings
        self.memory = memory
        self.metadata = dict(metadata or {})

    def step(self, io: RFIo) -> None:
        """Execute one RF cycle.  Subclasses implement the engines here."""
        raise NotImplementedError

    def on_squash(self, packet: SquashPacket) -> None:
        """Handle a squash packet (roll back speculative output state).

        The fabric separately applies the squash-done handshake timing;
        subclasses override when they keep state that must rewind.
        """

    def is_idle(self) -> bool:
        """True when the component has no internal work in flight.

        Used for deadlock detection: if the component is idle and every
        queue is empty, no amount of RF cycles will produce the prediction
        the Fetch Agent is waiting for, and the agent falls back to the
        core's predictor (the §2.4 watchdog / chicken switch).
        """
        return True

    def structure(self) -> dict[str, int]:
        """Structural inventory for the FPGA cost model (Table 4).

        Returns sizes in bits of queues/CAMs/tables plus counts of
        arithmetic units; see :mod:`repro.power.fpga`.
        """
        return {}
