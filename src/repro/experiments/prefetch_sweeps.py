"""Figure 17: the five custom prefetchers vs C, W, D and P (Section 4.3).

Each grid holds, per prefetch workload, its baseline followed by that
workload's points, so every row is a speedup over its own workload.
"""

from __future__ import annotations

from repro.core import PFMParams
from repro.experiments.figure import Figure, Grid
from repro.experiments.pool import SweepPoint, baseline_point, pfm_point
from repro.experiments.runner import PREFETCH_WORKLOADS


def prefetch_grid(configs: dict[str, PFMParams]) -> Grid:
    """Per prefetch workload, its baseline and then one
    ``<workload> <label>`` point per entry of *configs*."""

    def points(window: int) -> list[SweepPoint]:
        grid = []
        for name in PREFETCH_WORKLOADS:
            grid.append(baseline_point(name, window))
            grid += [
                pfm_point(f"{name} {label}", name, window, pfm)
                for label, pfm in configs.items()
            ]
        return grid

    return points


fig17 = Figure(
    experiment="Figure 17",
    title="Custom prefetchers vs clkC_wW",
    points=prefetch_grid({
        f"clk{clk}_w{width}": PFMParams(clk_ratio=clk, width=width, delay=0)
        for clk, width in [(1, 1), (4, 1), (4, 4)]
    }),
    notes=(
        "paper: performance is very resistant to C, W, and D — partly"
        " the adaptive prefetch distance, partly that the core never"
        " stalls waiting for RF packets in prefetch-only use-cases"
    ),
)

fig17_delay = Figure(
    experiment="Figure 17 (delay)",
    title="Custom prefetchers vs delayD (clk4_w1, queue32, portALL)",
    points=prefetch_grid({
        f"delay{delay}": PFMParams(clk_ratio=4, width=1, delay=delay)
        for delay in (0, 8)
    }),
    notes="paper text: performance is resistant to D (not shown)",
)

fig17_ports = Figure(
    experiment="Figure 17 (ports)",
    title="Custom prefetchers: portLS1 vs portALL (clk4_w1, delay0)",
    points=prefetch_grid({
        f"port{port}": PFMParams(clk_ratio=4, width=1, delay=0, port=port)
        for port in ("ALL", "LS1")
    }),
    notes="paper text: PRF port availability is not an issue",
)
