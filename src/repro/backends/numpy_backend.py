"""Vectorized columnar replay backend over a warm :class:`CompiledTrace`.

The python engine spends most of a warm replay on work that is *trace
pure* — fully determined by the compiled correct-path stream, identical
on every run of the same workload:

* the direction predictor / BTB / RAS call sequence (predict at fetch,
  train at retire of the same instruction, strictly in program order),
* the ``arch_digest``, which depends on the trace and the window alone
  (served from the trace's stored direction column or computed once from
  the trace rows, :func:`~repro.workloads.columns.replay_digest`, the
  same path the python engine takes; nothing is observed live), and
* the per-instruction decode (op class, lane/latency parameters,
  register names, source tuples).

This backend hoists all of that into a cached per-trace
:class:`TraceProfile`: control-flow outcome columns are computed once
from the trace's stored direction column
(:func:`~repro.workloads.columns.directions`, which the
python engine reads too) plus one BTB/RAS pass (mispredicts =
``predicted != taken`` over the whole trace), registers
become integer slots, and bulk counters (branches, loads, stores, PRF
traffic) are numpy reductions over column slices.  What remains — the
serial timing recurrence through the finite structural resources — runs
in a fused chunked loop (chunk = the engine's prune interval) that
operates on the *live* context structures (lane scheduler, ROB/IQ/LDQ/
STQ/fetch-queue occupancy, in-flight store book, memory hierarchy) in
exactly the order the stage objects would, so every exported counter and
the ``arch_digest`` are byte-identical to the python backend.  Final
register/memory state is folded with last-writer ``np.unique`` passes.

Eligibility is conservative: a compiled trace must cover the window and
the run must be hint-free (no PFM fabric — hence no faults/watchdogs —
no oracle, no telemetry, no instrumented core subclass, no predictor
swapped in after construction).  Anything else falls back to python
(counted in ``SimStats.backend_fallbacks``).
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

from repro.backends.base import ExecutionBackend
from repro.core.core import _PRUNE_INTERVAL, SuperscalarCore
from repro.core.stages.execute import InFlightStore
from repro.frontend.btb import BranchTargetBuffer, ReturnAddressStack
from repro.isa.instructions import OpClass
from repro.memory.cache import LINE_SHIFT
from repro.workloads import columns, tracecache

if TYPE_CHECKING:
    from repro.core.stats import SimStats
    from repro.workloads.tracecache import CompiledTrace

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy baked into the image
    np = None

#: Op-class code assignment mirrors the trace compiler's interning
#: (``tracecache._OPCODE_OF``): index within ``tuple(OpClass)``.
_OPCLASSES = tuple(OpClass)
_CODE_OF = {op: i for i, op in enumerate(_OPCLASSES)}
_BRANCH_CODE = _CODE_OF[OpClass.BRANCH]
_JUMP_CODE = _CODE_OF[OpClass.JUMP]
_LOAD_CODE = _CODE_OF[OpClass.LOAD]
_STORE_CODE = _CODE_OF[OpClass.STORE]

#: Loop dispatch kinds per op code: 0 = generic functional-unit op,
#: 1 = load, 2 = store, 3 = conditional branch, 4 = jump.
_KIND_OF_CODE = tuple(
    1 if op is OpClass.LOAD
    else 2 if op is OpClass.STORE
    else 3 if op is OpClass.BRANCH
    else 4 if op is OpClass.JUMP
    else 0
    for op in _OPCLASSES
)

class ControlProfile:
    """Per-instruction control-flow outcomes for one (predictor, bp) pair.

    Built from the trace's direction column plus one pass of fresh
    BTB/RAS instances over the whole trace in program order — the exact
    call sequence of the python engine — then frozen into flag columns:
    ``bundle`` (the op breaks the fetch bundle), ``misp`` (the op squash-
    resolves at execute: wrong branch direction or RAS return target),
    ``btb_bubble`` (a taken-control BTB miss costs a fetch bubble).
    """

    __slots__ = (
        "bundle", "misp", "btb_bubble",
        "misp_np", "ras_np", "btbb_np",
    )

    def __init__(self, trace: "CompiledTrace", directions: list[bool],
                 perfect_bp: bool) -> None:
        n = trace.length
        bundle = [False] * n
        misp = [False] * n
        btb_bubble = [False] * n
        ras_misp = [False] * n

        predictions = iter(directions)
        btb = BranchTargetBuffer()
        btb_predict = btb.predict
        btb_update = btb.update
        ras = ReturnAddressStack()

        cols = trace.columns()
        mnemonics = cols[1]
        dsts = cols[3]
        codes = trace.op_codes
        pcs = trace.pcs
        npcs = trace.next_pcs
        takens = trace.taken
        bc = _BRANCH_CODE
        jc = _JUMP_CODE

        for i in range(n):
            code = codes[i]
            if code == bc:
                pc = pcs[i]
                taken = takens[i]
                predicted = next(predictions)
                if perfect_bp:
                    predicted = bool(taken)
                bundle[i] = predicted
                misp[i] = predicted != taken
                if predicted and taken:
                    npc = npcs[i]
                    if btb_predict(pc) != npc:
                        btb_bubble[i] = True
                        btb_update(pc, npc)
            elif code == jc:
                pc = pcs[i]
                npc = npcs[i]
                bundle[i] = True
                mn = mnemonics[i]
                if mn == "jalr":
                    if ras.pop() != npc:
                        misp[i] = True
                        ras_misp[i] = True
                else:
                    if mn == "jal" and dsts[i] is not None:
                        ras.push(pc + 4)
                    if btb_predict(pc) != npc:
                        btb_bubble[i] = True
                        btb_update(pc, npc)

        self.bundle = bundle
        self.misp = misp
        self.btb_bubble = btb_bubble
        self.misp_np = np.asarray(misp, dtype=np.bool_)
        self.ras_np = np.asarray(ras_misp, dtype=np.bool_)
        self.btbb_np = np.asarray(btb_bubble, dtype=np.bool_)


class TraceProfile:
    """Everything trace-pure, precomputed once and shared by every run."""

    __slots__ = (
        "trace", "srcs_slots", "dst_slots", "nslots", "iline_change",
        "op_np", "dst_idx_np", "dst_write_np",
        "prf_reads_np", "control",
    )

    def __init__(self, trace: "CompiledTrace") -> None:
        self.trace = trace
        n = trace.length
        registers = trace.registers

        # Integer register scoreboard: one slot per name appearing as a
        # destination or a source.  ``zero`` is excluded from writes (the
        # python engine skips it for reg_ready, prf_writes, and the
        # replayed register file alike) by encoding its dst slot as -1.
        slot_of = {name: k for k, name in enumerate(registers)}
        for srcs in trace.src_tuples:
            for reg in srcs:
                if reg not in slot_of:
                    slot_of[reg] = len(slot_of)
        self.nslots = len(slot_of)
        slots_by_tuple = [
            tuple(slot_of[reg] for reg in srcs) for srcs in trace.src_tuples
        ]
        self.srcs_slots = [slots_by_tuple[j] for j in trace.srcs_idx]
        dst_slot_of_idx = [
            -1 if (j < 0 or registers[j] == "zero") else slot_of[registers[j]]
            for j in range(len(registers))
        ]
        self.dst_slots = [
            -1 if j < 0 else dst_slot_of_idx[j] for j in trace.dst_idx
        ]

        nd = trace.ndarrays()
        self.op_np = nd["op_codes"]
        self.dst_idx_np = nd["dst_idx"]
        dst_slots_np = np.asarray(self.dst_slots, dtype=np.int32)
        self.dst_write_np = dst_slots_np >= 0

        # Instruction-line change column: ``last_iline`` tracks the line
        # of the previously fetched instruction, so in a fresh sequential
        # run the i-cache is consulted exactly where the line differs
        # from its predecessor (always at instruction 0).
        ilines = nd["pcs"] >> LINE_SHIFT
        change = np.empty(n, dtype=np.bool_)
        if n:
            change[0] = True
            np.not_equal(ilines[1:], ilines[:-1], out=change[1:])
        self.iline_change = change.tolist()

        # PRF read traffic per instruction: stores read exactly two
        # operands (base + data) on the python path; everything else
        # reads len(srcs).
        prf_reads = np.asarray(
            [len(t) for t in slots_by_tuple], dtype=np.int64
        )[np.asarray(trace.srcs_idx, dtype=np.int64)]
        prf_reads[self.op_np == _STORE_CODE] = 2
        self.prf_reads_np = prf_reads

        self.control: dict[tuple[str, bool], ControlProfile] = {}

    def control_profile(
        self, predictor_name: str, perfect_bp: bool
    ) -> ControlProfile:
        key = (predictor_name, perfect_bp)
        ctrl = self.control.get(key)
        if ctrl is None:
            ctrl = ControlProfile(
                self.trace, columns.directions(self.trace, predictor_name), perfect_bp
            )
            self.control[key] = ctrl
        return ctrl


def _profile(trace: "CompiledTrace") -> TraceProfile:
    """The trace's replay profile, built on first use and kept on the
    trace itself (a trace extension compiles a new object, so the
    profile never outlives the columns it was built from)."""
    prof = trace._profile
    if prof is None:
        prof = trace._profile = TraceProfile(trace)
    return prof


def _exec_table(core: SuperscalarCore) -> list:
    """Per-op-code loop parameters: (kind, lanes, latency, block_cycles)."""
    p = core.params
    lane_map = core.execute_stage.lane_map
    ls = p.ls_lanes()
    table = []
    for code, op in enumerate(_OPCLASSES):
        kind = _KIND_OF_CODE[code]
        if kind in (1, 2):
            table.append((kind, ls, 0, 0))
        else:
            lanes, latency, block = lane_map[op]
            table.append((kind, lanes, latency, block))
    return table


class NumpyBackend(ExecutionBackend):
    """Chunked vectorized replay of a warm compiled trace."""

    name = "numpy"

    def eligible(
        self, core: "SuperscalarCore", trace: "CompiledTrace | None"
    ) -> bool:
        """Accept only runs this engine replays bit-identically.

        numpy must import and a compiled trace must exist (it always
        covers the window when it does); the run must be hint-free — no
        PFM fabric (which also excludes every FaultPlan and watchdog
        knob, both carried inside ``PFMParams``), no oracle, no
        telemetry; and the core must be the plain engine, not an
        instrumented subclass whose ``_process`` override the fused loop
        would silently bypass, still holding the predictor it was built
        with (the stored direction column is that predictor's).
        """
        if np is None or trace is None:
            return False
        if type(core) is not SuperscalarCore or not core.predictor_is_built():
            return False
        config = core.config
        return (
            config.pfm is None
            and config.oracle is None
            and config.telemetry is None
        )

    def run(
        self,
        core: "SuperscalarCore",
        trace: "CompiledTrace | None",
        limit: int,
    ) -> "SimStats":
        assert trace is not None
        trace.check_columns()
        tracecache.STATS["replays"] += 1
        n = trace.length if limit > trace.length else limit
        prof = _profile(trace)
        config = core.config
        ctrl = prof.control_profile(
            core.params.predictor, bool(config.perfect_branch_prediction)
        )

        counters = _fused_replay(core, trace, prof, ctrl, n)
        self._bulk_stats(core, prof, ctrl, n, counters)
        core._finalize()

        regs_out = self._fold_regs(core, trace, prof, n)
        self._fold_memory(core, trace, prof, n)
        core.stats.arch_digest = columns.replay_digest(
            trace, core.params.predictor, n, regs_out, core.workload.memory
        )
        return core.stats

    # ------------------------------------------------------------------ #
    # bulk reductions
    # ------------------------------------------------------------------ #

    def _bulk_stats(self, core, prof, ctrl, n, counters) -> None:
        (icache_stall, refill, squashes_rt, disamb, forwards) = counters
        stats = core.stats
        op = prof.op_np[:n]
        stats.instructions = n
        stats.conditional_branches = int(np.count_nonzero(op == _BRANCH_CODE))
        stats.loads = int(np.count_nonzero(op == _LOAD_CODE))
        stats.stores = int(np.count_nonzero(op == _STORE_CODE))
        stats.branch_mispredicts = int(np.count_nonzero(ctrl.misp_np[:n]))
        stats.ras_mispredicts = int(np.count_nonzero(ctrl.ras_np[:n]))
        stats.btb_miss_bubbles = int(np.count_nonzero(ctrl.btbb_np[:n]))
        stats.issued_ops = n
        stats.prf_reads = int(prof.prf_reads_np[:n].sum())
        stats.prf_writes = int(np.count_nonzero(prof.dst_write_np[:n]))
        # Squashes: every mispredict flag resolves through squash_at on
        # the python path, plus the runtime disambiguation violations.
        stats.pipeline_squashes = stats.branch_mispredicts + squashes_rt
        stats.squash_refill_cycles = refill
        stats.fetch_stall_icache_cycles = icache_stall
        stats.disambiguation_squashes = disamb
        stats.store_forwards = forwards

    def _fold_regs(self, core, trace, prof, n) -> dict:
        """Architectural register file after *n* instructions (last writer)."""
        regs_out = dict(core.workload.initial_regs or {})
        pos = np.nonzero(prof.dst_write_np[:n])[0]
        if pos.size:
            rev = pos[::-1]
            _, first = np.unique(prof.dst_idx_np[rev], return_index=True)
            registers = trace.registers
            dst_idx = trace.dst_idx
            dvals = trace.dst_values
            for j in rev[first].tolist():
                regs_out[registers[dst_idx[j]]] = dvals[j]
        return regs_out

    def _fold_memory(self, core, trace, prof, n) -> None:
        """Apply the window's stores to the live image (last store wins).

        Nothing reads the memory image mid-run on an eligible (agent-
        free) replay, so the per-store updates the cursor would make
        collapse to one write per touched address.
        """
        pos = np.nonzero(prof.op_np[:n] == _STORE_CODE)[0]
        if pos.size:
            rev = pos[::-1]
            addr_np = trace.ndarrays()["mem_addrs"]
            _, first = np.unique(addr_np[rev], return_index=True)
            addrs = trace.mem_addrs
            svals = trace.store_values
            store = core.workload.memory.store
            for j in rev[first].tolist():
                store(addrs[j], svals[j])


def _fused_replay(core, trace, prof, ctrl, n):
    """The serial timing recurrence, fused across all four stages.

    One pass over the columns, operating on the live context structures
    (deques/heaps/lane tables/store book/hierarchy) with the exact
    operation order of the stage objects; returns the runtime-only
    counters (everything else reduces arraywise afterwards).
    """
    ctx = core.ctx
    p = core.params

    # --- columns (python lists: scalar-indexing ndarrays allocates) ---
    codes = trace.op_codes
    pcs = trace.pcs
    addrs = trace.mem_addrs
    srcs_slots = prof.srcs_slots
    dst_slots = prof.dst_slots
    iline_change = prof.iline_change
    bundle_l = ctrl.bundle
    misp_l = ctrl.misp
    btbb_l = ctrl.btb_bubble
    by_code = _exec_table(core)

    # --- live structures, shared with the stage objects -------------- #
    lanes_sched = ctx.lanes
    reserved = lanes_sched._reserved
    busy_until = lanes_sched._busy_until
    issue_count = lanes_sched._issue_count
    ic_get = issue_count.get
    issue_width = lanes_sched.issue_width

    rob_q = ctx.rob.releases
    rob_cap = ctx.rob.capacity
    ldq_q = ctx.ldq.releases
    ldq_cap = ctx.ldq.capacity
    stq_q = ctx.stq.releases
    stq_cap = ctx.stq.capacity
    fq_q = ctx.fetchq.releases
    fq_cap = ctx.fetchq.capacity
    iq_heap = ctx.iq.releases
    iq_cap = ctx.iq.capacity
    heappush = heapq.heappush
    heappop = heapq.heappop

    book = ctx.stores_by_line
    book_get = book.get
    rc = core.retire_stage.retire_counts
    rc_get = rc.get

    inst_access = ctx.hierarchy.inst_access
    data_access = ctx.hierarchy.data_access
    hits = ctx.stats.load_hits_by_level
    hits_get = hits.get

    reg_ready = [0] * prof.nslots

    fetch_width = p.fetch_width
    retire_width = p.retire_width
    front_depth = p.front_depth
    make_store = InFlightStore
    shift = LINE_SHIFT

    # --- cross-stage cursors (retire_floor stays 0: no Retire Agent) - #
    f_cycle = ctx.fetch_cycle
    f_used = ctx.fetch_used
    redirect_floor = ctx.redirect_floor
    prev_retire = ctx.prev_retire
    first_retire = ctx.first_retire

    icache_stall = 0
    refill = 0
    squashes_rt = 0
    disamb = 0
    forwards = 0
    data_src = 0
    addr = 0
    st = None

    start = 0
    while start < n:
        end = start + _PRUNE_INTERVAL
        if end > n:
            end = n
        for i in range(start, end):
            kind, lanes_t, latency, block = by_code[codes[i]]

            # ---- fetch: redirect / width / fetch queue / i-cache ---- #
            cycle = f_cycle
            used = f_used
            if redirect_floor > cycle:
                cycle = redirect_floor
                used = 0
            if used >= fetch_width:
                cycle += 1
                used = 0
            if len(fq_q) >= fq_cap:
                t = fq_q[0]
                if t > cycle:
                    cycle = t
                    used = 0
            if iline_change[i]:
                ready = inst_access(pcs[i], cycle)
                if ready > cycle:
                    icache_stall += ready - cycle
                    cycle = ready
                    used = 0
            f_cycle = cycle
            f_used = used + 1

            # ---- control, pre-dispatch: taken-control BTB bubble ---- #
            if kind >= 3 and btbb_l[i]:
                bubble = cycle + 2
                if bubble > redirect_floor:
                    redirect_floor = bubble

            # ---- dispatch: ROB / IQ / LDQ-STQ / fetch-queue release - #
            dt = cycle + front_depth
            if len(rob_q) >= rob_cap:
                t = rob_q[0]
                if t > dt:
                    dt = t
            while iq_heap and iq_heap[0] <= dt:
                heappop(iq_heap)
            if len(iq_heap) >= iq_cap:
                dt = iq_heap[0]
            if kind == 1:
                if len(ldq_q) >= ldq_cap:
                    t = ldq_q[0]
                    if t > dt:
                        dt = t
            elif kind == 2:
                if len(stq_q) >= stq_cap:
                    t = stq_q[0]
                    if t > dt:
                        dt = t
            fq_q.append(dt)

            # ---- execute: operand readiness + lane reservation ------ #
            ready = dt + 1
            if kind == 2:
                ss = srcs_slots[i]
                data_src = reg_ready[ss[1]]
                t = reg_ready[ss[0]]
                if t > ready:
                    ready = t
            else:
                for s in srcs_slots[i]:
                    t = reg_ready[s]
                    if t > ready:
                        ready = t
            cyc = ready
            scan_limit = ready + 100_000
            while True:
                if ic_get(cyc, 0) < issue_width:
                    lane = -1
                    for cand in lanes_t:
                        if cyc in reserved[cand]:
                            continue
                        if busy_until[cand] > cyc:
                            continue
                        lane = cand
                        break
                    if lane >= 0:
                        reserved[lane][cyc] = True
                        issue_count[cyc] = ic_get(cyc, 0) + 1
                        if block:
                            nb = cyc + block
                            if nb > busy_until[lane]:
                                busy_until[lane] = nb
                        break
                cyc += 1
                if cyc >= scan_limit:
                    raise RuntimeError(
                        "lane scheduler scan exhausted (model bug)"
                    )
            issue = cyc
            heappush(iq_heap, issue)

            if kind == 1:  # load: forward / violate / hierarchy
                agen = issue + 1
                addr = addrs[i]
                line = addr >> shift
                stores_line = book_get(line)
                conflict = None
                if stores_line:
                    for cand_st in stores_line:
                        if (
                            cand_st.addr == addr
                            and cand_st.seq < i
                            and (
                                cand_st.retire_time is None
                                or cand_st.retire_time > agen
                            )
                            and (conflict is None or cand_st.seq > conflict.seq)
                        ):
                            conflict = cand_st
                if conflict is not None:
                    if conflict.addr_ready > agen:
                        disamb += 1
                        violation = conflict.addr_ready
                        dr = conflict.data_ready
                        complete = (violation if violation > dr else dr) + 1
                        squashes_rt += 1  # squash_at(violation)
                        redirect = violation + 1
                        if redirect > redirect_floor:
                            base = (
                                redirect_floor
                                if redirect_floor > f_cycle
                                else f_cycle
                            )
                            refill += redirect - base
                            redirect_floor = redirect
                    else:
                        forwards += 1
                        dr = conflict.data_ready
                        complete = (agen if agen > dr else dr) + 1
                else:
                    avail, level = data_access(addr, agen)
                    hits[level] = hits_get(level, 0) + 1
                    complete = avail
            elif kind == 2:  # store: enter the in-flight book
                addr = addrs[i]
                addr_ready = issue + 1
                dready = data_src if data_src > addr_ready else addr_ready
                st = make_store(i, addr, addr_ready, dready)
                line = addr >> shift
                stores_line = book_get(line)
                if stores_line is None:
                    book[line] = [st]
                else:
                    stores_line.append(st)
                complete = addr_ready
            else:
                complete = issue + latency

            # ---- control, post-execute: squash + bundle break ------- #
            if kind >= 3:
                if misp_l[i]:  # squash_at(complete_time, "branch")
                    redirect = complete + 1
                    if redirect > redirect_floor:
                        base = (
                            redirect_floor
                            if redirect_floor > f_cycle
                            else f_cycle
                        )
                        refill += redirect - base
                        redirect_floor = redirect
                if bundle_l[i]:
                    f_used = fetch_width

            # ---- writeback ------------------------------------------ #
            ds = dst_slots[i]
            if ds >= 0:
                reg_ready[ds] = complete

            # ---- retire --------------------------------------------- #
            rt = complete + 1
            if prev_retire > rt:
                rt = prev_retire
            while rc_get(rt, 0) >= retire_width:
                rt += 1
            rc[rt] = rc_get(rt, 0) + 1
            prev_retire = rt
            if first_retire is None:
                first_retire = rt
            rob_q.append(rt)
            if kind == 1:
                ldq_q.append(rt)
            elif kind == 2:
                stq_q.append(rt)
                data_access(addr, rt, is_store=True)
                st.retire_time = rt  # the commit scan's unique seq match
            # (branch predictor training consumed at profile time)

        # Chunk boundary == the python loop's prune cadence
        # (stats.instructions % _PRUNE_INTERVAL == 0).
        if end % _PRUNE_INTERVAL == 0:
            ctx.fetch_cycle = f_cycle
            ctx.prev_retire = prev_retire
            core._prune()
        start = end

    ctx.fetch_cycle = f_cycle
    ctx.fetch_used = f_used
    ctx.redirect_floor = redirect_floor
    ctx.prev_retire = prev_retire
    ctx.first_retire = first_retire
    if n:
        ctx.last_iline = pcs[n - 1] >> shift
    return icache_stall, refill, squashes_rt, disamb, forwards
