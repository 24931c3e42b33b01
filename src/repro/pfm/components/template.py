"""Templated run-ahead predictors (Section 7) and the astar predictor.

The paper observes that "the astar and bfs designs presented in this paper
follow a similar strategy.  If this could be templated, it suggests a path
toward automation."  This module implements that template for the
worklist-sweep family: a declarative :class:`TemplateSpec` describes

* where the input worklist lives and which retired counter advances its
  commit head,
* how each worklist item derives its checked indices (astar: the eight
  neighbour ``index1`` expressions over the snooped ``yoffset``),
* an ordered chain of guarded table checks per derived index (astar: the
  waymap test then the maparp test), each naming the snooped table base,
  element stride, predicate, and FST tag pattern,
* whether entering the fully-not-taken path implies a store that must be
  inferred for later in-window visits to the same derived index (the
  index1_CAM behaviour).

:class:`TemplatedRunaheadPredictor` synthesizes the T0/T1/T2 machinery
from the spec, and the paper's custom astar branch predictor (Section
4.1.2, Figure 7) is simply the template instantiated with
:func:`astar_template_spec`, registered as ``astar-custom-bp``.  (bfs
additionally needs a variable-fanout stage fed by the offsets array; that
extension is future work here too.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.pfm.component import CustomComponent, RFIo
from repro.pfm.packets import ObsPacket, SquashPacket
from repro.pfm.snoop import SnoopKind
from repro.registry.components import register_component

_T1_ID_FLAG = 1 << 20


@dataclass(frozen=True)
class GuardedCheck:
    """One guarded table check in the per-index chain.

    The branch is predicted *taken* (skip the rest of the chain) when
    ``predicate(loaded_value, env)`` is true; ``env`` holds the snooped
    scalar values by tag.
    """

    name: str
    base_tag: str  # snooped table base address (DEST_VALUE tag)
    stride: int  # element stride in bytes
    predicate: Callable[[float, dict], bool]
    fst_tag: str  # format string with {k}: e.g. "waymap:{k}"


@dataclass(frozen=True)
class TemplateSpec:
    """Declarative description of a worklist-sweep run-ahead predictor."""

    worklist_base_tag: str  # per-call input worklist base (resets the call)
    head_counter_tag: str  # absolute retired-iteration counter
    scalar_tags: tuple[str, ...]  # other snooped scalars (e.g. yoffset)
    roi_value_name: str  # env name for the ROI-begin packet's value
    derive: Callable[[int, dict], list[int]]  # item -> derived indices
    checks: tuple[GuardedCheck, ...]
    infer_stores: bool = True  # CAM over fully-not-taken derived indices
    scope: int = 8  # worklist run-ahead entries

    @property
    def fanout(self) -> int:
        # Derived-index count must be fixed for the template (v1).
        probe = dict.fromkeys((*self.scalar_tags, self.roi_value_name), 0)
        return len(self.derive(0, probe))


@dataclass(slots=True)
class _Slot:
    """One worklist entry plus its derived-index / prediction segment."""

    iteration: int = -1
    item_valid: bool = False
    item: int = 0
    t1_next: int = 0  # next derived index to issue loads for
    indices: list = field(default_factory=list)
    values: list = field(default_factory=list)  # index-major, per check
    arrived: list = field(default_factory=list)  # per index: returned checks
    t2_next: int = 0
    t2_check_pushed: int = 0  # checks of the current index already pushed

    def clear(self, iteration: int, fanout: int) -> None:
        self.iteration = iteration
        self.item_valid = False
        self.t1_next = self.t2_next = self.t2_check_pushed = 0
        self.arrived = [0] * fanout


@register_component("templated-runahead")
class TemplatedRunaheadPredictor(CustomComponent):
    """Generic T0/T1/T2 run-ahead predictor generated from a spec.

    Pass the :class:`TemplateSpec` as ``metadata["spec"]``; the
    ``index_queue_entries`` metadata overrides the spec's scope.
    """

    name = "templated-runahead"

    def __init__(self, timings, memory, metadata=None):
        super().__init__(timings, memory, metadata)
        spec: TemplateSpec = self.metadata["spec"]
        self.spec = spec
        self.scope = int(self.metadata.get("index_queue_entries", spec.scope))
        self.env: dict = {}
        self.bases: dict[str, int] = {}
        self.worklist_base: int | None = None
        self.enabled = False

        # Per-spec constants of the hot path.
        fanout = spec.fanout
        nchecks = len(spec.checks)
        if nchecks > 4 or fanout > 64 or self.scope > 256:
            raise ValueError(
                "a load ident holds at most 4 checks, 64 derived indices"
                " and 256 worklist entries"
            )
        self._fanout = fanout
        self._nchecks = nchecks
        self._all_arrived = (1 << nchecks) - 1
        self._predicates = tuple(
            enumerate(check.predicate for check in spec.checks)
        )
        self._tags = tuple(  # index-major, like each slot's values
            check.fst_tag.format(k=position)
            for position in range(fanout)
            for check in spec.checks
        )
        self._t1_groups = max(1, timings.width // max(1, nchecks))
        self._base_tags = frozenset(check.base_tag for check in spec.checks)
        self._ready = False  # every scalar and table base snooped
        self._load_plan: tuple[tuple[int, int, int], ...] = ()

        self._slots = [
            _Slot(values=[None] * (fanout * nchecks), arrived=[0] * fanout)
            for _ in range(self.scope)
        ]
        self._head = 0  # oldest unretired iteration (commit head)
        self._spec_head = 0  # next iteration T1 consumes
        self._t2_head = 0  # iteration T2 converts predictions for
        self._tail = 0  # next iteration T0 allocates
        # derived index -> iteration that inferred a store, scoped to
        # iterations in [head, tail)
        self._cam: dict[int, int] = {}
        self._call_gen = 0  # distinguishes in-flight loads across calls
        self.store_inferences = 0

    def _reset_call(self) -> None:
        for slot in self._slots:
            slot.clear(-1, self._fanout)
        self._head = self._spec_head = self._t2_head = self._tail = 0
        self._cam.clear()
        self._call_gen = (self._call_gen + 1) & 0xF

    # ------------------------------------------------------------------ #
    # observation handling
    # ------------------------------------------------------------------ #

    def _handle_obs(self, packet: ObsPacket, io: RFIo) -> None:
        # Branch-outcome and store packets feed the commit-side bookkeeping
        # the hardware uses to reconcile its replay queue; the model needs
        # only the ROI-begin and destination-value packets.
        spec = self.spec
        tag = packet.tag
        if packet.kind is SnoopKind.ROI_BEGIN:
            self.enabled = True
            self.env[spec.roi_value_name] = int(packet.value or 0)
        elif packet.kind is not SnoopKind.DEST_VALUE:
            return
        elif tag == spec.head_counter_tag:
            # An absolute count tolerates dropped packets.
            self._advance_head_to(int(packet.value))
            return
        elif tag == spec.worklist_base_tag:
            self.worklist_base = int(packet.value)
            self._reset_call()
            io.begin_new_call()
        elif tag in spec.scalar_tags:
            self.env[tag] = int(packet.value)
        elif tag in self._base_tags:
            self.bases[tag] = int(packet.value)
            if len(self.bases) == len(self._base_tags):
                self._load_plan = tuple(
                    (check_idx, self.bases[check.base_tag], check.stride)
                    for check_idx, check in enumerate(spec.checks)
                )
        else:
            return
        self._ready = self._ready or (
            self.enabled
            and self.worklist_base is not None
            and all(tag in self.env for tag in spec.scalar_tags)
            and bool(self._load_plan)
        )

    def _advance_head_to(self, retired: int) -> None:
        """Retired iterations free their worklist entry and CAM scope."""
        while self._head < min(retired, self._tail):
            retiring = self._head
            stale = [key for key, it in self._cam.items() if it == retiring]
            for key in stale:
                del self._cam[key]
            slot = self._slots[retiring % self.scope]
            slot.iteration = -1
            slot.item_valid = False
            self._head += 1

    # ------------------------------------------------------------------ #
    # engines
    # ------------------------------------------------------------------ #

    def _t0(self, io: RFIo) -> None:
        """Allocate the tail entry and load the next worklist item."""
        if self.worklist_base is None or self._tail - self._head >= self.scope:
            return
        iteration = self._tail
        ident = (self._call_gen << 24) | (iteration % self.scope)
        if not io.push_load(ident, self.worklist_base + iteration * 8):
            return
        self._slots[iteration % self.scope].clear(iteration, self._fanout)
        self._tail = iteration + 1

    def _t1(self, io: RFIo) -> None:
        """Derive indices at the speculative head; issue one load group
        (one load per check) per derived index."""
        if not self._ready:
            return
        scope = self.scope
        nchecks = self._nchecks
        budget = self._t1_groups
        while budget > 0:
            head = self._spec_head
            if head >= self._tail:
                return
            slot = self._slots[head % scope]
            if not slot.item_valid:
                return  # in-order consumption at the speculative head
            position = slot.t1_next
            if position >= self._fanout:
                self._spec_head = head + 1
                continue
            if io.load_budget < nchecks:
                return  # issue the group atomically next cycle
            if position == 0:
                slot.indices = self.spec.derive(slot.item, self.env)
            index = slot.indices[position]
            ident = (
                (self._call_gen << 24)
                | _T1_ID_FLAG
                | ((head % scope) << 8)
                | (position << 2)
            )
            for check_idx, base, stride in self._load_plan:
                if not io.push_load(ident | check_idx, base + index * stride):
                    # IntQ-IS full (a refused push has no effect), or it
                    # filled mid-group: re-issue the whole group next cycle
                    # (a duplicate return overwrites the slot).
                    return
            slot.t1_next = position + 1
            budget -= 1

    def _t2(self, io: RFIo) -> None:
        """Convert complete check groups to final predictions, in order.

        Checks are evaluated as they are pushed.  A group may straddle RF
        cycles at narrow widths: on resume its pushed checks are evaluated
        again (for the CAM decision) but neither pushed nor counted again —
        an inferred store counts once, when its check-0 prediction leaves.
        """
        if not self._ready:
            return
        budget = -1  # read once a group is ready; only T2 pushes predictions
        while True:
            head = self._t2_head
            if head >= self._tail:
                return
            slot = self._slots[head % self.scope]
            if slot.iteration != head:
                return
            position = slot.t2_next
            if position >= self._fanout:
                self._t2_head = head + 1
                continue
            if slot.arrived[position] != self._all_arrived:
                return  # predicates not back yet
            if budget < 0:
                budget = io.pred_budget
                infer_stores = self.spec.infer_stores
                env = self.env
            index = slot.indices[position]
            first = position * self._nchecks  # this index's values and tags
            values = slot.values
            tags = self._tags
            pushed = slot.t2_check_pushed
            none_taken = True
            for check_idx, predicate in self._predicates:
                emit = check_idx >= pushed
                if emit and not budget:
                    slot.t2_check_pushed = check_idx
                    return  # no prediction can leave this cycle
                taken = predicate(values[first + check_idx], env)
                inferred = (
                    not check_idx and not taken and infer_stores
                    and index in self._cam
                )
                if inferred:
                    # Inferred store: an older in-scope visit marked index.
                    taken = True
                if emit:
                    if not io.push_pred(taken, tags[first + check_idx]):
                        slot.t2_check_pushed = check_idx
                        return
                    budget -= 1
                    if inferred:
                        self.store_inferences += 1
                if taken:
                    none_taken = False
            if infer_stores and none_taken:
                self._cam[index] = head
            slot.t2_check_pushed = 0
            slot.t2_next = position + 1

    # ------------------------------------------------------------------ #

    def step(self, io: RFIo) -> None:
        for _ in range(self.timings.width):
            packet = io.pop_obs()
            if packet is None:
                break
            if isinstance(packet, ObsPacket):
                self._handle_obs(packet, io)
        call_gen = self._call_gen
        slots = self._slots
        nchecks = self._nchecks
        while True:
            ret = io.pop_return()
            if ret is None:
                break
            ident = ret.ident
            if (ident >> 24) & 0xF != call_gen:
                continue  # stale in-flight load from a previous call
            if ident & _T1_ID_FLAG:
                slot = slots[(ident >> 8) & 0xFF]
                position = (ident >> 2) & 0x3F
                check_idx = ident & 0x3
                slot.values[position * nchecks + check_idx] = ret.value
                slot.arrived[position] |= 1 << check_idx
            else:
                slot = slots[ident & 0xFF]
                slot.item = int(ret.value)
                slot.item_valid = True
        if not self.enabled:
            return
        self._t0(io)
        self._t1(io)
        self._t2(io)

    def on_squash(self, packet: SquashPacket) -> None:
        # T2's rollback/replay is a timing effect (the fabric floors the
        # unconsumed prediction stream); value state needs no rewind in the
        # correct-path model.
        return None

    def is_idle(self) -> bool:
        if not self.enabled or self.worklist_base is None:
            return True
        if self._tail - self._head < self.scope:
            return False  # T0 can allocate
        scope = self.scope
        fanout = self._fanout
        slots = self._slots
        for it in range(self._spec_head, self._tail):
            slot = slots[it % scope]
            if slot.item_valid and slot.t1_next < fanout:
                return False
        head = self._t2_head
        if head < self._tail:
            slot = slots[head % scope]
            return not (
                slot.iteration == head
                and slot.t2_next < fanout
                and slot.arrived[slot.t2_next] == self._all_arrived
            )
        return True

    def structure(self) -> dict[str, int]:
        """Structural inventory for the Table 4 cost model."""
        scope = self.scope
        fanout = self._fanout
        nchecks = self._nchecks
        width = self.timings.width
        return {
            # worklist entries (33 bits), then per derived index its check
            # bits (2 per check) and its 24-bit index
            "queue_bits": (
                scope * 33 + scope * fanout * nchecks * 2 + scope * fanout * 24
            ),
            "cam_bits": scope * fanout * 24 if self.spec.infer_stores else 0,
            "comparators": nchecks * width + scope * fanout // 4,
            "adders": (1 + nchecks) * width,
            "multipliers": 0,
            "fsm_states": 8 + 2 * nchecks,
            "table_bits": 0,
            "width": width,
        }


# ---------------------------------------------------------------------- #
# the astar instantiation
# ---------------------------------------------------------------------- #

def astar_template_spec(waymap_stride: int = 16) -> TemplateSpec:
    """The custom astar branch predictor (Section 4.1.2, Figure 7).

    Three decoupled engines, "threads" in fixed hardware:

    * **T0** pre-allocates index_queue tail entries and issues loads to
      the input worklist (one per RF cycle), tagging each load with its
      entry number so out-of-order returns land in the right slot.
    * **T1** consumes valid index_queue entries in order at the
      speculative head, computes the eight neighbour ``index1`` values
      with the snooped ``yoffset``, records them in index1_queue, and
      issues the waymap and maparp loads (two index1 / four loads per RF
      cycle at W=4).
    * **T2** converts returned predicate pairs into final predictions:
      an ``index1`` hitting the index1_CAM means an older in-scope visit
      logically stored ``fillnum`` (the loop-carried dependency automated
      pre-execution misses), so the raw pair is overridden with [T, -];
      a final [NT, NT] writes ``index1`` into the CAM.

    Deviation from the figure (documented in DESIGN.md §5): T2 pushes
    the maparp prediction even when the waymap prediction is taken; the
    Fetch Agent discards predictions for branches the core never
    fetches.  This moves the paper's T2-side discard to the agent,
    costing strictly more IntQ-F bandwidth while making squash
    realignment exact.

    Commit-side windows (index_queue head, CAM scope) advance on the
    absolute ``iter_inc`` count snooped at retire.
    """

    def derive(index: int, env: dict) -> list[int]:
        yoffset = env["yoffset"]
        return [
            index - yoffset - 1, index - yoffset, index - yoffset + 1,
            index - 1, index + 1,
            index + yoffset - 1, index + yoffset, index + yoffset + 1,
        ]

    return TemplateSpec(
        worklist_base_tag="worklist_base",
        head_counter_tag="iter_inc",
        scalar_tags=("yoffset",),
        roi_value_name="fillnum",
        derive=derive,
        checks=(
            GuardedCheck(
                name="waymap",
                base_tag="waymap_base",
                stride=waymap_stride,
                predicate=lambda value, env: int(value) == env["fillnum"],
                fst_tag="waymap:{k}",
            ),
            GuardedCheck(
                name="maparp",
                base_tag="maparp_base",
                stride=8,
                predicate=lambda value, env: int(value) != 0,
                fst_tag="maparp:{k}",
            ),
        ),
        infer_stores=True,
    )


@register_component("astar-custom-bp")
def astar_custom_bp(timings, memory, metadata=None) -> TemplatedRunaheadPredictor:
    """The astar bitstream's component: the template over the astar spec,
    sized by the ``index_queue_entries`` and ``waymap_stride`` metadata."""
    merged = dict(metadata or {})
    merged["spec"] = astar_template_spec(
        waymap_stride=int(merged.get("waymap_stride", 16))
    )
    return TemplatedRunaheadPredictor(timings, memory, merged)
