"""Table 4: FPGA hardware overhead estimates (Section 5)."""

from __future__ import annotations

from repro.core import SimStats
from repro.experiments.figure import Figure
from repro.experiments.pool import SweepPoint
from repro.experiments.report import ExperimentResult
from repro.registry import build_workload
from repro.pfm.component import RFTimings
from repro.power.fpga import FPGAEstimate, FPGAModel

#: Paper's Table 4 rows: (LUT, FF, BRAM, DSP, MHz, dyn-logic mW).
PAPER_TABLE4 = {
    "astar (4wide)": (6249, 3523, 0.0, 0, 500, 251),
    "astar-alt": (1064, 700, 17.5, 0, 498, 236),
    "libq": (282, 215, 0.0, 0, 690, 8),
    "lbm": (169, 204, 0.0, 0, 628, 6),
    "bwaves": (182, 363, 0.0, 0, 731, 10),
    "milc": (253, 667, 0.0, 4, 628, 38),
}


def component_structures() -> dict[str, dict]:
    """Structural inventories for the Table 4 designs.

    astar uses the width-4 configuration with the 8-entry index_queue;
    the prefetchers are the width-1 HLS designs.
    """
    structures: dict[str, dict] = {}
    wide = RFTimings(clk_ratio=4, width=4, delay=4)
    narrow = RFTimings(clk_ratio=4, width=1, delay=4)

    workload = build_workload("astar")
    component = workload.bitstream.component_factory(
        wide, workload.memory, workload.bitstream.metadata
    )
    structures["astar (4wide)"] = component.structure()

    alt = build_workload("astar-alt")
    alt_component = alt.bitstream.component_factory(
        narrow, alt.memory, alt.bitstream.metadata
    )
    structures["astar-alt"] = alt_component.structure()
    for name, label in (
        ("libquantum", "libq"),
        ("lbm", "lbm"),
        ("bwaves", "bwaves"),
        ("milc", "milc"),
    ):
        workload = build_workload(name)
        component = workload.bitstream.component_factory(
            narrow, workload.memory, workload.bitstream.metadata
        )
        structures[label] = component.structure()
    return structures


def estimates() -> list[FPGAEstimate]:
    return FPGAModel().table4(component_structures())


def table4_rows(result: ExperimentResult, points: list[SweepPoint],
                stats: dict[str, SimStats]) -> None:
    """LUT counts paper-vs-measured; the full rows go in the notes."""
    lines = []
    for estimate in estimates():
        paper_row = PAPER_TABLE4[estimate.design]
        result.add(estimate.design, estimate.lut)
        lines.append(
            f"{estimate.design}: est LUT/FF/BRAM/DSP/MHz/dyn ="
            f" {estimate.lut}/{estimate.ff}/{estimate.bram:g}/{estimate.dsp}"
            f"/{estimate.freq_mhz}/{estimate.dyn_logic_mw:.0f}mW"
            f"  (paper {paper_row[0]}/{paper_row[1]}/{paper_row[2]:g}"
            f"/{paper_row[3]}/{paper_row[4]}/{paper_row[5]}mW)"
        )
    result.notes = "; ".join(lines)


#: Analytic: the grid is empty, so the window and pool change nothing.
table4 = Figure(
    experiment="Table 4",
    title="FPGA hardware overhead (xcvu3p estimates)",
    points=lambda window: [],
    rows=table4_rows,
    unit="LUTs (see notes for the full rows)",
    paper={name: row[0] for name, row in PAPER_TABLE4.items()},
)
