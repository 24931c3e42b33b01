"""Input-robustness sweeps (extension; motivated by Section 5's footnote).

The paper prefers the load-based astar strategy over the table-mimicking
astar-alt because it is "more robust to different input dataset sizes".
These sweeps quantify that and the components' sensitivity to input
*structure*:

* ``astar_input_robustness`` — main design vs astar-alt across grid
  sizes (astar-alt's fixed tables alias as the grid outgrows them).
* ``astar_pattern_robustness`` — speckle vs maze obstacle maps.
* ``bfs_graph_robustness`` — road-like vs power-law graphs.

Each variant is a (baseline, treated) pair of sweep points sharing the
same workload-builder overrides, so the sweeps parallelize like every
other grid and each treated row is a speedup over its own pair.
"""

from __future__ import annotations

from repro.core import PFMParams, SimStats
from repro.experiments.figure import Figure
from repro.experiments.pool import SweepPoint, baseline_point, pfm_point, speedups
from repro.experiments.report import ExperimentResult
from repro.workloads.graphs import powerlaw_graph, road_graph

_PFM = PFMParams(delay=0)


def _pair(label: str, workload: str, window: int,
          pfm: PFMParams = _PFM, **overrides) -> list[SweepPoint]:
    """Baseline + treated points for one input variant."""
    return [
        baseline_point(workload, window, label=f"baseline:{label}", **overrides),
        pfm_point(label, workload, window, pfm, **overrides),
    ]


def _speedup_mpki_rows(result: ExperimentResult, points: list[SweepPoint],
                       stats: dict[str, SimStats]) -> None:
    """Robustness B and C: the speedup rows, each row over its own pair
    followed by that pair's baseline MPKI."""
    for label, base, value in speedups(points, stats):
        result.add(label, value)
        if base == f"baseline:{label}":
            name = label.removesuffix(" speedup")
            result.add(f"{name} baseline MPKI", stats[base].mpki)


def astar_input_robustness_points(window: int) -> list[SweepPoint]:
    """The dataset:table ratio is the operative quantity (the paper's
    robustness footnote); within short windows it is swept by shrinking
    the tables against a fixed 192x192 grid — the active wavefront set
    must overflow the direct-mapped tables for aliasing to bite.
    """
    side = 192
    points = _pair(
        "main (no tables)", "astar", window,
        grid_width=side, grid_height=side,
    )
    for entries in (16 * 1024, 1024, 256, 64):
        points += _pair(
            f"alt {entries}-entry tables", "astar-alt", window,
            grid_width=side, grid_height=side, table_entries=entries,
        )
    return points


def astar_pattern_robustness_points(window: int) -> list[SweepPoint]:
    points = []
    for pattern in ("random", "maze"):
        points += _pair(f"{pattern} speedup", "astar", window, pattern=pattern)
    return points


def bfs_graph_robustness_points(window: int) -> list[SweepPoint]:
    """Roads and Youtube pairs, then the Youtube component with the
    non-stalling Fetch Agent (§2.4) over the Youtube baseline: when the
    baseline barely mispredicts (hub-heavy graphs), the stalling agent
    can turn the component into a net loss, and the non-stalling design
    recovers it."""
    graphs = {
        "roads": ("bfs-roads", road_graph(side=128)),
        "youtube": ("bfs-youtube", powerlaw_graph(num_nodes=12_000)),
    }
    points = []
    for name, (workload, graph) in graphs.items():
        points += _pair(
            f"{name} speedup", workload, window, graph=graph, graph_name=name
        )
    workload, graph = graphs["youtube"]
    points.append(
        pfm_point(
            "youtube speedup (non-stalling §2.4)", workload, window,
            PFMParams(delay=0, fetch_policy="proceed"),
            graph=graph, graph_name="youtube",
        )
    )
    return points


astar_input_robustness = Figure(
    experiment="Robustness A",
    title="astar: load-based vs table-mimicking vs table capacity",
    points=astar_input_robustness_points,
    notes=(
        "the load-based main design reads the program's real arrays"
        " and is capacity-free; astar-alt degrades once its tables"
        " alias (the paper's reason for switching strategies)"
    ),
)

astar_pattern_robustness = Figure(
    experiment="Robustness B",
    title="astar custom predictor across obstacle patterns",
    points=astar_pattern_robustness_points,
    rows=_speedup_mpki_rows,
    notes=(
        "maze maps make the baseline predictor stronger (correlated"
        " outcomes), shrinking — but not erasing — the custom"
        " component's advantage"
    ),
)

bfs_graph_robustness = Figure(
    experiment="Robustness C",
    title="bfs custom component across graph families",
    points=bfs_graph_robustness_points,
    rows=_speedup_mpki_rows,
    notes=(
        "power-law graphs have small diameters and huge frontier"
        " reuse: the baseline suffers less, so the component's"
        " headroom shrinks (the paper's Youtube bars are likewise"
        " lower than its Roads bars)"
    ),
)
