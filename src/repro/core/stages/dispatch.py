"""Dispatch stage: structural-resource allocation between fetch and issue.

An instruction dispatches once a ROB slot, an issue-queue slot, and (for
memory ops) an LDQ/STQ slot all exist; the fetch-queue entry it occupied
since fetch is released at dispatch time.  No agent attaches here — the
paper's pipeline interfaces sit at fetch, the LSU path, and retire.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop
from typing import TYPE_CHECKING, Callable

from repro.core.stages.context import PipelineContext
from repro.isa.instructions import OpClass

if TYPE_CHECKING:
    from repro.workloads.trace import DynInst

_LOAD = OpClass.LOAD
_STORE = OpClass.STORE


class DispatchStage:
    """Rename/dispatch: the in-order boundary into the out-of-order back end."""

    __slots__ = (
        "ctx",
        "_front_depth", "_rob", "_rob_cap", "_iq", "_iq_cap",
        "_ldq", "_ldq_cap", "_stq", "_stq_cap", "_fq_append",
    )

    def __init__(self, ctx: PipelineContext) -> None:
        self.ctx = ctx
        # Hot-path hoists (per-run constants; see FetchStage).  The
        # structures are read directly: a full ring delays the entry until
        # its oldest release, a full issue queue until its earliest one.
        self._front_depth: int = ctx.params.front_depth
        self._rob: deque[int] = ctx.rob.releases
        self._rob_cap: int = ctx.rob.capacity
        self._iq: list[int] = ctx.iq.releases
        self._iq_cap: int = ctx.iq.capacity
        self._ldq: deque[int] = ctx.ldq.releases
        self._ldq_cap: int = ctx.ldq.capacity
        self._stq: deque[int] = ctx.stq.releases
        self._stq_cap: int = ctx.stq.capacity
        self._fq_append: Callable[[int], None] = ctx.fetchq.releases.append

    def dispatch(self, dyn: "DynInst", fetch_time: int) -> int:
        dt = fetch_time + self._front_depth
        rob = self._rob
        if len(rob) == self._rob_cap and rob[0] > dt:
            dt = rob[0]
        iq = self._iq
        while iq and iq[0] <= dt:
            heappop(iq)
        if len(iq) >= self._iq_cap:
            dt = iq[0]
        op = dyn.op_class
        if op is _LOAD:
            ldq = self._ldq
            if len(ldq) == self._ldq_cap and ldq[0] > dt:
                dt = ldq[0]
        elif op is _STORE:
            stq = self._stq
            if len(stq) == self._stq_cap and stq[0] > dt:
                dt = stq[0]
        self._fq_append(dt)
        return dt
