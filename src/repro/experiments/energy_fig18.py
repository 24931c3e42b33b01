"""Figure 18: core+RF energy of PFM designs normalized to baseline."""

from __future__ import annotations

from repro.core import PFMParams, SimStats
from repro.experiments.figure import Figure
from repro.experiments.fpga_table4 import estimates
from repro.experiments.pool import SweepPoint, baseline_point, pfm_point
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import PREFETCH_WORKLOADS
from repro.power.core_energy import CoreEnergyModel

#: Which Table 4 design's RF power applies to each use-case.
_DESIGN_FOR_WORKLOAD = {
    "astar": "astar (4wide)",
    "bfs-roads": "astar (4wide)",  # comparable width-4 engine complexity
    "libquantum": "libq",
    "bwaves": "bwaves",
    "lbm": "lbm",
    "milc": "milc",
    "leslie": "bwaves",  # leslie was not synthesized; bwaves is its analogue
}

WORKLOADS = ("astar", "bfs-roads", *PREFETCH_WORKLOADS)


def fig18_points(window: int) -> list[SweepPoint]:
    points = []
    for name in WORKLOADS:
        points.append(baseline_point(name, window))
        points.append(
            pfm_point(f"pfm:{name}", name, window, PFMParams(delay=4, port="LS1"))
        )
    return points


def energy_rows(result: ExperimentResult, points: list[SweepPoint],
                stats: dict[str, SimStats]) -> None:
    """Energy (core + RF) normalized to baseline (core alone) = 1.0.

    The reduction comes from (1) less misspeculation activity and
    (2) less static energy from shorter runtime (Section 5), partially
    offset by the FPGA's own dynamic + static power.
    """
    model = CoreEnergyModel()
    fpga = {estimate.design: estimate for estimate in estimates()}
    for name in WORKLOADS:
        design = fpga[_DESIGN_FOR_WORKLOAD[name]]
        baseline_energy = model.energy(stats[f"baseline:{name}"])
        pfm_energy = model.energy(
            stats[f"pfm:{name}"],
            rf_dynamic_w=(design.dyn_logic_mw) / 1000.0,
            rf_static_w=design.static_mw / 1000.0,
        )
        result.add(name, pfm_energy.normalized_to(baseline_energy))


fig18 = Figure(
    experiment="Figure 18",
    title="Energy of PFM designs (core+RF) normalized to baseline",
    points=fig18_points,
    rows=energy_rows,
    unit="normalized energy (baseline = 1.0)",
    notes=(
        "paper: all use-cases reduce energy, attributed to reduced"
        " misspeculation and reduced static energy from shorter runtime"
    ),
)
