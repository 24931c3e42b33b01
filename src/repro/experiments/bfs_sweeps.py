"""bfs experiments: Figure 12, Table 3, Figure 13, Figure 14 (Section 4.2).

Each figure is a :class:`~repro.experiments.figure.Figure` declaration
over the Roads graph; Figure 12 adds a Youtube pair.
"""

from __future__ import annotations

from repro.core import PFMParams
from repro.experiments.figure import (
    Figure,
    clkw_points,
    dqp_grid,
    mpki_pair,
    mpki_rows,
    scope_grid,
    snoop_grid,
    snoop_rows,
)
from repro.experiments.pool import SweepPoint, baseline_point, pfm_point

WORKLOAD = "bfs-roads"


def fig12_points(window: int) -> list[SweepPoint]:
    """Idealizations, then the component vs C and W; the Youtube pair
    last (its rows are over its own baseline)."""
    return [
        baseline_point(WORKLOAD, window),
        SweepPoint("perfBP", WORKLOAD, window, perfect_branch_prediction=True),
        SweepPoint("perfD$", WORKLOAD, window, perfect_dcache=True),
        SweepPoint("perfBP+D$", WORKLOAD, window,
                   perfect_branch_prediction=True, perfect_dcache=True),
        *clkw_points(WORKLOAD, window, [(4, 1), (8, 1), (4, 2), (4, 4)]),
        baseline_point("bfs-youtube", window),
        pfm_point("clk4_w4 (Youtube)", "bfs-youtube", window, PFMParams(delay=0)),
    ]


fig12 = Figure(
    experiment="Figure 12",
    title="bfs speedups: idealizations and clkC_wW (Roads graph)",
    points=fig12_points,
    paper={"perfBP": 11.0, "perfD$": 152.0, "perfBP+D$": 426.0, "clk4_w4": 125.0},
    notes=(
        "paper: both bottlenecks must be attacked together — perfect"
        " BP alone is small, perfect D$ alone a fraction of both;"
        " measured magnitudes run larger than the paper's because the"
        " synthetic graph windows are colder (see EXPERIMENTS.md)"
    ),
)

table3 = Figure(
    experiment="Table 3",
    title="bfs: FST and RST snoop percentages",
    points=snoop_grid(WORKLOAD),
    rows=snoop_rows,
    unit="% of instructions in ROI",
    paper={"retired hit RST": 31.0, "fetched hit FST": 13.0},
    notes="paper: bfs observes a higher fraction of retired instructions than astar",
)

fig13 = Figure(
    experiment="Figure 13",
    title="bfs sensitivity to D, Q, P",
    points=dqp_grid(WORKLOAD),
    notes="paper: low sensitivity to all three",
)

fig14 = Figure(
    experiment="Figure 14",
    title="bfs speedup vs queue entries (speculative scope)",
    points=scope_grid(WORKLOAD, "queue_entries", (8, 16, 32, 64, 128)),
    notes=(
        "paper: performance scales with the number of entries"
        " (all configs clk4_w4, delay4, queue32, portLS1)"
    ),
)

bfs_mpki = Figure(
    experiment="Section 4.2",
    title="bfs branch MPKI, baseline vs custom component",
    points=mpki_pair(WORKLOAD),
    rows=mpki_rows,
    unit="mispredictions per kilo-instruction",
    paper={"baseline": 19.1, "custom": 0.5},
)
