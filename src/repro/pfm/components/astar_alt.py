"""astar-alt: the table-mimicking alternative microarchitecture (Section 5).

The paper's Section 5 measures a second astar design — from the authors'
earlier "Post-Silicon Microarchitecture" work (Kumar et al., IEEE CAL
2020), inspired by the EXACT branch predictor [Al-Otoom et al., CF 2010]:

    "it maintains two large predictor tables that mimic the program's
    underlying waymap and maparp arrays.  It also populates its own
    output worklist as its input worklist is processed, and they swap
    roles at each call to wayobj::makebound2().  Thus, astar-alt mimics
    the program's data structures instead of issuing loads to them."

Because it never loads, its prediction latency is just its pipeline — no
memory round trips, no MLP concerns — but its accuracy is bounded by the
fidelity of its tables:

* the **way table** is actively updated by the component's own [NT, NT]
  final predictions (the EXACT-style "active update": predicting an
  append implies the program will store ``fillnum``) and corrected by
  retired waymap loads/stores;
* the **maparp table** starts cold and learns the obstacle map from
  retired maparp load values — first encounters of blocked cells
  mispredict;
* both tables are finite and direct-mapped: inputs larger than the table
  alias and mispredict — exactly why the paper's Section 5 footnote calls
  the load-based strategy "more robust to different input dataset sizes".

The internal worklists are reconciled from the retired worklist-append
stores (authoritative), with the first call seeded from retired worklist
loads.
"""

from __future__ import annotations

from repro.pfm.component import CustomComponent, RFIo
from repro.pfm.packets import ObsPacket, SquashPacket
from repro.pfm.snoop import SnoopKind
from repro.registry.components import register_component

#: Each table mimics one program array: 32 KB / 16 bits per entry.
DEFAULT_TABLE_ENTRIES = 16 * 1024


class _MimicTable:
    """Direct-mapped tagged table keyed by index1."""

    __slots__ = ("entries", "_mask", "_tags", "_values")

    def __init__(self, entries: int):
        if entries & (entries - 1):
            raise ValueError("table entries must be a power of two")
        self.entries = entries
        self._mask = entries - 1
        self._tags = [-1] * entries
        self._values = [0] * entries

    def read(self, index1: int) -> int | None:
        """Value for *index1*, or None on a tag miss (aliased/cold)."""
        slot = index1 & self._mask
        if self._tags[slot] != index1:
            return None
        return self._values[slot]

    def write(self, index1: int, value: int) -> None:
        slot = index1 & self._mask
        self._tags[slot] = index1
        self._values[slot] = value


@register_component("astar-alt")
class AstarAltPredictor(CustomComponent):
    """Table-mimicking astar predictor (no Load Agent traffic)."""

    name = "astar-alt"

    NEIGHBOUR_OFFSETS = (
        (-1, -1), (-1, 0), (-1, 1),
        (0, -1), (0, 1),
        (1, -1), (1, 0), (1, 1),
    )

    def __init__(self, timings, memory, metadata=None):
        super().__init__(timings, memory, metadata)
        entries = int(self.metadata.get("table_entries", DEFAULT_TABLE_ENTRIES))
        self.way_table = _MimicTable(entries)
        self.map_table = _MimicTable(entries)
        self.waymap_stride = int(self.metadata.get("waymap_stride", 16))

        self.fillnum: int | None = None
        self.yoffset: int | None = None
        self.waymap_base: int | None = None
        self.maparp_base: int | None = None
        self.enabled = False

        self._in_list: list[int] = []
        self._out_list: list[int] = []
        self._in_pos = 0
        self._k = 0  # neighbour template position within the current index
        self._way_pushed = False
        self._first_call = True
        self.active_updates = 0
        self.corrections = 0

    # ------------------------------------------------------------------ #
    # observation handling (learning inputs)
    # ------------------------------------------------------------------ #

    def _handle_obs(self, packet: ObsPacket, io: RFIo) -> None:
        kind = packet.kind
        tag = packet.tag
        if kind is SnoopKind.ROI_BEGIN:
            self.enabled = True
            self.fillnum = int(packet.value or 0)
            return
        if kind is SnoopKind.DEST_VALUE:
            if tag == "yoffset":
                self.yoffset = int(packet.value)
            elif tag == "waymap_base":
                self.waymap_base = int(packet.value)
            elif tag == "maparp_base":
                self.maparp_base = int(packet.value)
            elif tag == "worklist_base":
                self._swap_worklists(io)
            elif tag == "worklist_load" and self._first_call:
                # Seed the first call's input worklist from the retire
                # stream; later calls are self-populated.
                self._in_list.append(int(packet.value))
            elif tag == "maparp_load" and self.maparp_base is not None:
                index1 = (int(packet.address) - self.maparp_base) // 8
                self.map_table.write(index1, int(packet.value))
                self.corrections += 1
            elif tag == "waymap_load" and self.waymap_base is not None:
                index1 = (
                    int(packet.address) - self.waymap_base
                ) // self.waymap_stride
                self.way_table.write(index1, int(packet.value))
                self.corrections += 1
        elif kind is SnoopKind.STORE_VALUE:
            if tag == "worklist_append":
                # Authoritative reconciliation of the output worklist.
                self._out_list.append(int(packet.value))
            elif tag.startswith("waymap_store") and self.waymap_base is not None:
                index1 = (
                    int(packet.address) - self.waymap_base
                ) // self.waymap_stride
                self.way_table.write(index1, int(packet.value))

    def _swap_worklists(self, io: RFIo) -> None:
        if self._first_call and not self._out_list:
            # First invocation: keep seeding from worklist loads.
            self._in_pos = 0
            self._k = 0
        else:
            self._first_call = False
            self._in_list = self._out_list
            self._out_list = []
            self._in_pos = 0
            self._k = 0
        self._way_pushed = False
        io.begin_new_call()

    # ------------------------------------------------------------------ #
    # prediction engine
    # ------------------------------------------------------------------ #

    def _predict_pairs(self, io: RFIo) -> None:
        if self.fillnum is None or self.yoffset is None:
            return
        while io.can_push_pred():
            if self._in_pos >= len(self._in_list):
                return  # ran out of worklist entries (awaiting appends)
            index = self._in_list[self._in_pos]
            row, col = self.NEIGHBOUR_OFFSETS[self._k]
            index1 = index + row * self.yoffset + col

            way_value = self.way_table.read(index1)
            way_taken = way_value == self.fillnum  # miss -> not visited
            map_value = self.map_table.read(index1)
            map_taken = bool(map_value)  # miss -> assume free (learns)

            if not self._way_pushed:
                if not io.push_pred(way_taken, tag=f"waymap:{self._k}"):
                    return
                self._way_pushed = True
            if not io.push_pred(map_taken, tag=f"maparp:{self._k}"):
                return
            self._way_pushed = False

            if not way_taken and not map_taken:
                # EXACT-style active update: predicting the append implies
                # the program will store fillnum at index1.
                self.way_table.write(index1, self.fillnum)
                self.active_updates += 1
            self._k += 1
            if self._k == 8:
                self._k = 0
                self._in_pos += 1

    # ------------------------------------------------------------------ #

    def step(self, io: RFIo) -> None:
        for _ in range(self.timings.width):
            packet = io.pop_obs()
            if packet is None:
                break
            if isinstance(packet, ObsPacket):
                self._handle_obs(packet, io)
        while io.pop_return() is not None:
            pass  # astar-alt issues no loads
        if not self.enabled:
            return
        self._predict_pairs(io)

    def on_squash(self, packet: SquashPacket) -> None:
        return None

    def is_idle(self) -> bool:
        if not self.enabled or self.fillnum is None or self.yoffset is None:
            return True
        return self._in_pos >= len(self._in_list)

    def structure(self) -> dict[str, int]:
        """Inventory matching Table 4's astar-alt row: BRAM tables."""
        table_bits = 2 * self.way_table.entries * 16
        worklist_bits = 2 * 512 * 20
        return {
            "queue_bits": 420,  # pointers/control
            "cam_bits": 0,
            "comparators": 6,
            "adders": 6,
            "multipliers": 0,
            "fsm_states": 10,
            "table_bits": table_bits + worklist_bits,
            "width": self.timings.width,
        }
