"""bfs's custom component (Section 4.2, Figure 11).

Four decoupled engines over the GAP top-down-step data structures:

* **T0** maintains a sliding window of frontier nodes by loading from the
  program's global frontier array (one load per RF cycle).
* **T1** pops a node id U and loads ``offsets[U]`` and ``offsets[U+1]``;
  the difference is U's neighbour count (trip count), and ``offsets[U]``
  locates U's first neighbour.
* **T2** streams U's neighbours from the neighbour array and, because the
  trip count is now known, streams predictions for the neighbour-loop
  branch — per-node trip counts are exactly what the core's loop
  predictor cannot learn.
* **T3** loads each neighbour V's visited-ness property and computes the
  *visited* branch predicate, inferring in-window visited stores by
  searching prior instances of V among not-yet-retired neighbours
  (the bfs analogue of astar's index1_CAM).

T3's visited predictions interleave with T2's loop predictions in IntQ-F
in the core's actual branch order: per inner iteration
``[loop_exit(NT), visited(V_j)]``, closed by ``loop_exit(T)``.

The engines' loads double as highly accurate prefetches: the speedup
comes from attacking cache misses and branch mispredictions *together*
(Figure 12's point that perfect branch prediction alone yields only 11%).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.pfm.component import CustomComponent, RFIo
from repro.pfm.packets import ObsPacket, SquashPacket
from repro.pfm.snoop import SnoopKind
from repro.registry.components import register_component


@dataclass(slots=True)
class _NodeRecord:
    """All run-ahead state for one frontier node U."""

    position: int  # index in the frontier (iteration number)
    u: int | None = None  # node id (valid once T0's load returns)
    offsets_issued: bool = False
    begin: int | None = None  # offsets[u]
    end: int | None = None  # offsets[u+1]
    neighbors_issued: int = 0  # T2 progress
    neighbor_values: dict = field(default_factory=dict)  # j -> v
    prop_issued: set = field(default_factory=set)
    prop_values: dict = field(default_factory=dict)  # j -> property value
    emit_j: int = 0
    emit_phase: str = "loop"  # "loop" -> "visited" alternation
    done: bool = False

    @property
    def trip(self) -> int | None:
        if self.begin is None or self.end is None:
            return None
        return max(0, self.end - self.begin)


@register_component("bfs-engine")
class BfsEngine(CustomComponent):
    """Figure 11's T0-T3 design."""

    name = "bfs-custom"

    def __init__(self, timings, memory, metadata=None):
        super().__init__(timings, memory, metadata)
        self.scope = int(self.metadata.get("queue_entries", 64))

        self.frontier_base: int | None = None
        self.offsets_base: int | None = None
        self.neighbors_base: int | None = None
        self.prop_base: int | None = None
        self.enabled = False

        self._records: dict[int, _NodeRecord] = {}
        self._head = 0  # commit head: oldest un-retired frontier position
        self._tail = 0  # T0 allocation tail
        self._t1_head = 0
        self._emit_head = 0
        # Inferred visited stores within the speculative window:
        # node id V -> frontier position of the record that inferred it.
        self._inferred: dict[int, int] = {}
        self._pending_loads: dict[int, tuple] = {}
        self._t3_queue: deque[tuple[int, int, int]] = deque()
        self._next_ident = 1
        self.store_inferences = 0

    # ------------------------------------------------------------------ #

    def _reset_call(self) -> None:
        self._records.clear()
        self._inferred.clear()
        self._pending_loads.clear()
        self._t3_queue.clear()
        self._head = 0
        self._tail = 0
        self._t1_head = 0
        self._emit_head = 0

    def _new_ident(self, info: tuple) -> int:
        ident = self._next_ident
        self._next_ident = self._next_ident % (1 << 24) + 1
        self._pending_loads[ident] = info
        return ident

    # ------------------------------------------------------------------ #
    # observations
    # ------------------------------------------------------------------ #

    def _handle_obs(self, packet: ObsPacket, io: RFIo) -> None:
        kind = packet.kind
        if kind is SnoopKind.ROI_BEGIN:
            self.enabled = True
            return
        tag = packet.tag
        if kind is SnoopKind.DEST_VALUE:
            if tag == "frontier_base":
                self.frontier_base = int(packet.value)
                self._reset_call()
                io.begin_new_call()
            elif tag == "offsets_base":
                self.offsets_base = int(packet.value)
            elif tag == "neighbors_base":
                self.neighbors_base = int(packet.value)
            elif tag == "prop_base":
                self.prop_base = int(packet.value)
            elif tag == "iter_inc":
                # Absolute outer-loop counter: retired frontier positions.
                self._advance_head_to(int(packet.value))
            # inner_inc packets advance fine-grained commit state; the
            # per-node head advance subsumes them in this model.
        elif kind is SnoopKind.BRANCH_OUTCOME:
            pass  # replay-queue commit bookkeeping
        elif kind is SnoopKind.STORE_VALUE:
            pass  # committed visited store; reconciliation only

    def _advance_head_to(self, retired: int) -> None:
        """Frontier nodes retired: slide the window."""
        while self._head < min(retired, self._tail):
            retiring = self._head
            record = self._records.pop(retiring, None)
            if record is not None:
                stale = [
                    v for v, pos in self._inferred.items() if pos == retiring
                ]
                for v in stale:
                    del self._inferred[v]
            self._head += 1
        if self._t1_head < self._head:
            self._t1_head = self._head
        if self._emit_head < self._head:
            self._emit_head = self._head

    # ------------------------------------------------------------------ #
    # engines
    # ------------------------------------------------------------------ #

    def _t0(self, io: RFIo) -> None:
        if self.frontier_base is None:
            return
        if self._tail - self._head >= self.scope:
            return
        position = self._tail
        ident = self._new_ident(("frontier", position))
        if not io.push_load(ident, self.frontier_base + position * 8):
            del self._pending_loads[ident]
            return
        self._records[position] = _NodeRecord(position=position)
        self._tail += 1

    def _t1(self, io: RFIo) -> None:
        if self.offsets_base is None:
            return
        budget = max(1, self.timings.width // 2)
        while budget > 0 and self._t1_head < self._tail:
            record = self._records.get(self._t1_head)
            if record is None or record.u is None:
                return  # in-order consumption of the frontier queue
            if record.offsets_issued:
                self._t1_head += 1
                continue
            if io.load_budget < 2 or not io.can_push_load():
                return
            base = self.offsets_base + record.u * 8
            id_a = self._new_ident(("begin", record.position))
            if not io.push_load(id_a, base):
                del self._pending_loads[id_a]
                return
            id_b = self._new_ident(("end", record.position))
            if not io.push_load(id_b, base + 8):
                del self._pending_loads[id_b]
                return
            record.offsets_issued = True
            self._t1_head += 1
            budget -= 1

    def _t2(self, io: RFIo) -> None:
        """Stream neighbour loads for nodes with known trip counts."""
        if self.neighbors_base is None:
            return
        for position in range(self._head, self._tail):
            record = self._records.get(position)
            if record is None:
                continue
            trip = record.trip
            if trip is None:
                # In-order begin-address/trip-count queue consumption: do
                # not run ahead past an unresolved node.
                return
            while record.neighbors_issued < trip:
                if not io.can_push_load():
                    return
                j = record.neighbors_issued
                ident = self._new_ident(("neighbor", position, j))
                addr = self.neighbors_base + (record.begin + j) * 8
                if not io.push_load(ident, addr):
                    del self._pending_loads[ident]
                    return
                record.neighbors_issued = j + 1

    def _t3(self, io: RFIo) -> None:
        """Issue visited-ness property loads for returned neighbours."""
        if self.prop_base is None:
            return
        while self._t3_queue:
            position, j, v = self._t3_queue[0]
            if position < self._head or position not in self._records:
                self._t3_queue.popleft()  # node already retired/reset
                continue
            if not io.can_push_load():
                return
            ident = self._new_ident(("prop", position, j))
            if not io.push_load(ident, self.prop_base + v * 8):
                del self._pending_loads[ident]
                return
            self._records[position].prop_issued.add(j)
            self._t3_queue.popleft()

    def _emit(self, io: RFIo) -> None:
        """Sequence final predictions in the core's branch order."""
        while True:
            if self._emit_head >= self._tail:
                return
            record = self._records.get(self._emit_head)
            if record is None:
                self._emit_head += 1
                continue
            trip = record.trip
            if trip is None:
                return
            if record.done:
                self._emit_head += 1
                continue
            if record.emit_phase == "loop":
                if not io.can_push_pred():
                    return
                if record.emit_j < trip:
                    if not io.push_pred(False, tag="loop_exit"):
                        return
                    record.emit_phase = "visited"
                else:
                    if not io.push_pred(True, tag="loop_exit"):
                        return
                    record.done = True
                    self._emit_head += 1
            else:  # visited phase for neighbour emit_j
                j = record.emit_j
                v = record.neighbor_values.get(j)
                if v is None:
                    return  # neighbour value not back yet
                prop = record.prop_values.get(j)
                if prop is None:
                    return  # property value not back yet
                # An older in-window instance of V logically stored its
                # visited mark: override the prediction as taken.
                inferred = prop < 0 and v in self._inferred
                if not io.can_push_pred():
                    return
                if not io.push_pred(prop >= 0 or inferred, tag="visited"):
                    return
                if inferred:
                    # Counted once, when the override is pushed: a refused
                    # push is retried next RF cycle.
                    self.store_inferences += 1
                elif prop < 0:
                    self._inferred[v] = record.position
                record.emit_j = j + 1
                record.emit_phase = "loop"

    # ------------------------------------------------------------------ #

    def step(self, io: RFIo) -> None:
        for _ in range(self.timings.width):
            packet = io.pop_obs()
            if packet is None:
                break
            if isinstance(packet, ObsPacket):
                self._handle_obs(packet, io)
        while True:
            ret = io.pop_return()
            if ret is None:
                break
            self._route_return(ret, io)
        if not self.enabled:
            return
        self._t0(io)
        self._t1(io)
        self._t2(io)
        self._t3(io)
        self._emit(io)

    def _route_return(self, ret, io: RFIo) -> None:
        info = self._pending_loads.pop(ret.ident, None)
        if info is None:
            return  # stale (previous call)
        kind = info[0]
        if kind == "frontier":
            record = self._records.get(info[1])
            if record is not None:
                record.u = int(ret.value)
        elif kind in ("begin", "end"):
            record = self._records.get(info[1])
            if record is not None:
                if kind == "begin":
                    record.begin = int(ret.value)
                else:
                    record.end = int(ret.value)
        elif kind == "neighbor":
            _, position, j = info
            record = self._records.get(position)
            if record is not None:
                v = int(ret.value)
                record.neighbor_values[j] = v
                self._t3_queue.append((position, j, v))
        elif kind == "prop":
            _, position, j = info
            record = self._records.get(position)
            if record is not None:
                record.prop_values[j] = ret.value

    def on_squash(self, packet: SquashPacket) -> None:
        return None

    def is_idle(self) -> bool:
        if not self.enabled or self.frontier_base is None:
            return True
        if self._tail - self._head < self.scope:
            return False  # T0 can allocate
        if self._t3_queue:
            return False
        for position in range(self._head, self._tail):
            record = self._records.get(position)
            if record is None:
                continue
            trip = record.trip
            if record.u is not None and not record.offsets_issued:
                return False
            if trip is not None and record.neighbors_issued < trip:
                return False
            # prop loads that failed to push retry lazily via _emit's
            # demand; check for emittable work:
            if not record.done and trip is not None:
                if record.emit_phase == "loop":
                    return False
                j = record.emit_j
                if (
                    record.neighbor_values.get(j) is not None
                    and record.prop_values.get(j) is not None
                ):
                    return False
        return True

    def structure(self) -> dict[str, int]:
        scope = self.scope
        return {
            "queue_bits": scope * (32 + 32 + 16 + 32),
            "cam_bits": scope * 32,
            "comparators": self.timings.width + 4,
            "adders": 2 * self.timings.width,
            "multipliers": 0,
            "fsm_states": 16,
            "table_bits": 0,
            "width": self.timings.width,
        }
