"""Explicit stage architecture of the superscalar core.

The cycle engine is decomposed into four stage objects sharing one
:class:`~repro.core.stages.context.PipelineContext`:

- :class:`~repro.core.stages.fetch.FetchStage` — front-end cursor,
  direction/target prediction; Fetch Agent calls (§2.2)
- :class:`~repro.core.stages.dispatch.DispatchStage` — structural
  allocation (ROB / IQ / LDQ / STQ / fetch queue)
- :class:`~repro.core.stages.execute.ExecuteStage` — ALU issue path and
  the LSU path (forwarding, disambiguation), shared with the Load
  Agent (§2.3)
- :class:`~repro.core.stages.retire.RetireStage` — in-order commit,
  store commit; Retire Agent calls (§2.1)

On PFM runs ``PipelineContext.fabric`` holds the
:class:`~repro.pfm.fabric.PFMFabric` and the fetch and retire stages
(and the context's squash path) call it directly; it is ``None`` on
baseline runs, the plain fast path.
:class:`~repro.core.core.SuperscalarCore` remains the driver that walks
an instruction through the stages in program order.
"""

from repro.core.stages.context import PipelineContext
from repro.core.stages.dispatch import DispatchStage
from repro.core.stages.execute import ExecuteStage, InFlightStore
from repro.core.stages.fetch import FetchStage
from repro.core.stages.retire import RetireStage

__all__ = [
    "PipelineContext",
    "FetchStage",
    "DispatchStage",
    "ExecuteStage",
    "InFlightStore",
    "RetireStage",
]
