"""Execute stage: ALU issue path and the LSU path (loads and stores).

Owns the per-op-class lane map and the in-flight store book used for
store-to-load forwarding and memory-disambiguation checks.  The PFM Load
Agent needs no call from this stage (§2.3): its injected loads and
prefetches share the lane scheduler and memory hierarchy with it (wired
when the fabric is built), and the fabric reports the agent's counters
at finalize.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Callable

from repro.core.stages.context import PipelineContext
from repro.isa.instructions import OpClass
from repro.memory.cache import LINE_SHIFT

if TYPE_CHECKING:
    from repro.workloads.trace import DynInst

_LOAD = OpClass.LOAD
_STORE = OpClass.STORE


class InFlightStore:
    """Store tracked for forwarding/disambiguation.

    The window is time-based: a store occupies the store queue until its
    retire time, so a younger load issuing before that time interacts with
    it (forward or violate) even though the one-pass engine has already
    fully processed the store.
    """

    __slots__ = ("seq", "addr", "addr_ready", "data_ready", "retire_time")

    def __init__(
        self, seq: int, addr: int, addr_ready: int, data_ready: int
    ) -> None:
        self.seq = seq
        self.addr = addr
        self.addr_ready = addr_ready
        self.data_ready = data_ready
        self.retire_time: int | None = None


class ExecuteStage:
    """Issue, functional-unit, and LSU timing for one instruction."""

    __slots__ = (
        "ctx", "lane_map",
        "_ls_lanes", "_reserve", "_iq", "_reg_ready",
    )

    def __init__(self, ctx: PipelineContext) -> None:
        self.ctx = ctx
        p = ctx.params
        # Hot-path hoists (per-run constants; see FetchStage).
        self._ls_lanes: tuple[int, ...] = p.ls_lanes()
        self._reserve: Callable[..., tuple[int, int]] = ctx.lanes.reserve
        self._iq: list[int] = ctx.iq.releases
        self._reg_ready: dict[str, int] = ctx.reg_ready
        self.lane_map: dict[OpClass, tuple[tuple[int, ...], int, int]] = {
            OpClass.INT_ALU: (p.alu_lanes(), p.int_alu_latency, 0),
            OpClass.INT_MUL: (p.fp_lanes(), p.int_mul_latency, 0),
            OpClass.INT_DIV: (p.fp_lanes(), p.int_div_latency, p.int_div_latency),
            OpClass.FP_ALU: (p.fp_lanes(), p.fp_alu_latency, 0),
            OpClass.FP_MUL: (p.fp_lanes(), p.fp_mul_latency, 0),
            OpClass.FP_DIV: (p.fp_lanes(), p.fp_div_latency, p.fp_div_latency),
            OpClass.BRANCH: (p.alu_lanes(), p.branch_latency, 0),
            OpClass.JUMP: (p.alu_lanes(), p.branch_latency, 0),
            OpClass.HALT: (p.alu_lanes(), 1, 0),
        }

    def execute(self, dyn: "DynInst", dispatch_time: int) -> tuple[int, int]:
        op = dyn.op_class
        if op is _LOAD:
            return self._execute_load(dyn, dispatch_time)
        if op is _STORE:
            return self._execute_store(dyn, dispatch_time)

        stats = self.ctx.stats
        lanes, latency, block = self.lane_map[op]
        srcs = dyn.srcs
        ready = dispatch_time + 1
        reg_ready = self._reg_ready
        for reg in srcs:
            t = reg_ready.get(reg, 0)
            if t > ready:
                ready = t
        _, issue = self._reserve(lanes, ready, block_cycles=block)
        heappush(self._iq, issue)
        stats.issued_ops += 1
        stats.prf_reads += len(srcs)
        return issue, issue + latency

    def _execute_load(self, dyn: "DynInst", dispatch_time: int) -> tuple[int, int]:
        ctx = self.ctx
        stats = ctx.stats
        stats.loads += 1
        srcs = dyn.srcs
        ready = dispatch_time + 1
        reg_ready = self._reg_ready
        for reg in srcs:
            t = reg_ready.get(reg, 0)
            if t > ready:
                ready = t
        _, issue = self._reserve(self._ls_lanes, ready)
        heappush(self._iq, issue)
        stats.issued_ops += 1
        stats.prf_reads += len(srcs)
        agen_done = issue + 1

        conflict = self._latest_older_store(dyn, agen_done)
        if conflict is not None:
            if conflict.addr_ready > agen_done:
                # The load issued before an older same-address store had
                # resolved its address: memory-disambiguation violation.
                stats.disambiguation_squashes += 1
                violation = conflict.addr_ready
                complete = max(violation, conflict.data_ready) + 1
                ctx.squash_at(violation, "disambiguation")
                return issue, complete
            stats.store_forwards += 1
            complete = max(agen_done, conflict.data_ready) + 1
            return issue, complete

        avail, level = ctx.hierarchy.data_access(dyn.mem_addr, agen_done)
        stats.load_hits_by_level[level] = stats.load_hits_by_level.get(level, 0) + 1
        return issue, avail

    def _latest_older_store(
        self, dyn: "DynInst", load_time: int
    ) -> InFlightStore | None:
        """Youngest older same-address store still in the STQ at *load_time*."""
        line = dyn.mem_addr >> LINE_SHIFT
        stores = self.ctx.stores_by_line.get(line)
        if not stores:
            return None
        best = None
        for store in stores:
            if (
                store.addr == dyn.mem_addr
                and store.seq < dyn.seq
                and (store.retire_time is None or store.retire_time > load_time)
                and (best is None or store.seq > best.seq)
            ):
                best = store
        return best

    def _execute_store(self, dyn: "DynInst", dispatch_time: int) -> tuple[int, int]:
        ctx = self.ctx
        stats = ctx.stats
        stats.stores += 1
        base_reg, data_reg = dyn.srcs[0], dyn.srcs[1]
        reg_ready = self._reg_ready
        addr_src_ready = reg_ready.get(base_reg, 0)
        data_src_ready = reg_ready.get(data_reg, 0)
        ready = max(dispatch_time + 1, addr_src_ready)
        _, issue = self._reserve(self._ls_lanes, ready)
        heappush(self._iq, issue)
        stats.issued_ops += 1
        stats.prf_reads += 2
        addr_ready = issue + 1
        data_ready = max(addr_ready, data_src_ready)

        store = InFlightStore(dyn.seq, dyn.mem_addr, addr_ready, data_ready)
        line = dyn.mem_addr >> LINE_SHIFT
        ctx.stores_by_line.setdefault(line, []).append(store)
        return issue, addr_ready

    def prune_stores(self) -> None:
        """Drop committed stores no future load can still race with.

        Any future load issues at or after the current fetch frontier, so
        stores whose retire time is behind it are safely architectural.
        """
        ctx = self.ctx
        floor = ctx.fetch_cycle
        dead_lines = []
        for line, stores in ctx.stores_by_line.items():
            stores[:] = [
                s
                for s in stores
                if s.retire_time is None or s.retire_time > floor
            ]
            if not stores:
                dead_lines.append(line)
        for line in dead_lines:
            del ctx.stores_by_line[line]
