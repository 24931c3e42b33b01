"""Figure 2: PFM vs Slipstream 2.0 speedups (Section 1.1).

Slipstream points name their oracle factory (see
:data:`repro.experiments.pool.ORACLES`) so the oracle is constructed in
the worker next to the workload it shadows.
"""

from __future__ import annotations

from repro.core import PFMParams
from repro.experiments.figure import Figure
from repro.experiments.pool import SweepPoint, baseline_point, pfm_point


def fig2_points(window: int) -> list[SweepPoint]:
    return [
        baseline_point("astar", window),
        SweepPoint(
            label="astar slipstream",
            workload="astar",
            window=window,
            oracle="astar-slipstream",
        ),
        SweepPoint(
            label="astar slipstream (restarts)",
            workload="astar",
            window=window,
            oracle="astar-slipstream",
            oracle_kwargs={"restart_penalty": 64},
        ),
        pfm_point(
            "astar PFM", "astar", window, PFMParams(delay=4, port="LS1")
        ),
        baseline_point("bfs-roads", window),
        SweepPoint(
            label="bfs slipstream",
            workload="bfs-roads",
            window=window,
            oracle="bfs-slipstream",
        ),
        pfm_point(
            "bfs PFM", "bfs-roads", window, PFMParams(delay=4, port="LS1")
        ),
    ]


fig2 = Figure(
    experiment="Figure 2",
    title="Speedups of PFM and Slipstream 2.0",
    points=fig2_points,
    paper={"astar slipstream": 18.0, "astar PFM": 154.0, "bfs PFM": 125.0},
    notes=(
        "slipstream is modelled with the paper's two tailored"
        " optimizations (hardwired pruning, local-squash recovery);"
        " the restart-mode row shows the substantially lower speedup"
        " the paper notes for leading-thread restarts"
    ),
)
