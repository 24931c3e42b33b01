"""astar experiments: Figure 8, Table 2, Figure 9, Figure 10 (Section 4.1.3).

Each figure is a :class:`~repro.experiments.figure.Figure` declaration:
its grid, its row rule (by default the speedup over the grid's
baseline) and the paper's values.
"""

from __future__ import annotations

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
from repro.experiments.pool import SweepPoint, baseline_point

WORKLOAD = "astar"
BASE = f"baseline:{WORKLOAD}"


def fig8_points(window: int) -> list[SweepPoint]:
    """delay0, queue32, portALL; 8-entry index_queue."""
    pairs = [(1, 1), (2, 1), (4, 1), (8, 1), (4, 2), (4, 3), (4, 4)]
    return [
        baseline_point(WORKLOAD, window),
        *clkw_points(WORKLOAD, window, pairs),
        SweepPoint("perfBP", WORKLOAD, window, perfect_branch_prediction=True),
    ]


fig8 = Figure(
    experiment="Figure 8",
    title="astar custom branch predictor vs clkC_wW",
    points=fig8_points,
    paper={"clk4_w2": 99.0, "clk4_w3": 155.0, "clk4_w4": 163.0, "perfBP": 162.0},
    notes=(
        "paper: low-bandwidth configs (clk4_w1, clk8_w1) reduce the"
        " speedup or cause slowdowns; clk4_w4 slightly exceeds perfect"
        " BP via the prefetching effect of the predictor's loads"
    ),
)

table2 = Figure(
    experiment="Table 2",
    title="astar: FST and RST snoop percentages",
    points=snoop_grid(WORKLOAD),
    rows=snoop_rows,
    unit="% of instructions in ROI",
    paper={"retired hit RST": 20.3, "fetched hit FST": 15.5},
)

fig9 = Figure(
    experiment="Figure 9",
    title="astar sensitivity to D, Q, P",
    points=dqp_grid(WORKLOAD, ls1_label="delay4, queue32, portLS1"),
    paper={"delay8": 138.0, "delay4, queue32, portLS1": 154.0},
    notes=(
        "paper: speedup decreases slowly with delay; resistant to"
        " queue size; PRF ports not an issue"
    ),
)

fig10 = Figure(
    experiment="Figure 10",
    title="astar speedup vs index_queue entries",
    points=scope_grid(WORKLOAD, "index_queue_entries", (1, 2, 4, 8, 16)),
    notes=(
        "paper: an 8-entry index_queue achieves most of the speedup"
        " potential (all configs clk4_w4, delay4, queue32, portLS1)"
    ),
)

astar_mpki = Figure(
    experiment="Section 4.1.3",
    title="astar branch MPKI, baseline vs custom predictor",
    points=mpki_pair(WORKLOAD),
    rows=mpki_rows,
    unit="mispredictions per kilo-instruction",
    paper={"baseline": 31.9, "custom": 1.04},
)
