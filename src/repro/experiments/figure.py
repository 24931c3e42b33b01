"""One declaration per paper figure or table, run by one driver.

Every figure and table of the paper is a grid of clkC_wW / delayD /
queueQ / portP points, almost always shown against a same-workload
baseline.  A :class:`Figure` declares one: the experiment's name and
title, a ``points(window)`` grid of
:class:`~repro.experiments.pool.SweepPoint` s, a row rule, and the
paper's values, unit and notes.  Calling the declaration
(``fig8(window=..., pool=...)``) runs it: the pool is resolved once, the
grid runs serially or across worker processes, and the row rule turns
the stats into the rows of an
:class:`~repro.experiments.report.ExperimentResult`.

The default row rule is :func:`~repro.experiments.pool.speedup_rows`:
each non-baseline point's speedup over the nearest ``baseline:`` point
before it in its grid.  The grids and row rules below are the ones
several figures share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core import PFMParams, SimStats
from repro.experiments.pool import (
    SweepPoint,
    SweepPool,
    baseline_point,
    default_pool,
    pfm_point,
    speedup_rows,
)
from repro.experiments.report import ExperimentResult, add_stat_rows
from repro.experiments.runner import DEFAULT_WINDOW

Grid = Callable[[int], list[SweepPoint]]
RowRule = Callable[[ExperimentResult, list[SweepPoint], dict[str, SimStats]], None]


@dataclass(frozen=True)
class Figure:
    """A paper figure or table: its grid, its row rule and the paper's
    values.  ``rows(result, points, stats)`` appends the rows; ``notes``
    may be left for the rule to fill (Table 4)."""

    experiment: str  # "Figure 8", "Table 2", ...
    title: str
    points: Grid
    rows: RowRule = speedup_rows
    paper: dict[str, float] = field(default_factory=dict)
    unit: str = ExperimentResult.unit
    notes: str = ""

    def __call__(self, window: int = DEFAULT_WINDOW,
                 pool: SweepPool | None = None) -> ExperimentResult:
        pool = pool or default_pool()
        points = self.points(window)
        stats = pool.run(points)
        result = ExperimentResult(
            self.experiment, self.title, paper=dict(self.paper),
            unit=self.unit, notes=self.notes,
        )
        self.rows(result, points, stats)
        return result


def clkw_points(workload: str, window: int,
                pairs: list[tuple[int, int]]) -> list[SweepPoint]:
    """Figures 8 and 12: one ``clkC_wW`` point per ``(C, W)`` pair at
    delay0, queue32, portALL."""
    return [
        pfm_point(f"clk{clk}_w{width}", workload, window,
                  PFMParams(clk_ratio=clk, width=width, delay=0))
        for clk, width in pairs
    ]


def dqp_grid(workload: str, ls1_label: str = "portLS1") -> Grid:
    """Figures 9 and 13: the baseline, then (a) delayD at clk4_w4,
    queue32, portALL, (b) queueQ at delay4, portALL and (c) portP at
    delay4, queue32; the portLS1 row is labelled *ls1_label*."""

    def points(window: int) -> list[SweepPoint]:
        grid = [baseline_point(workload, window)]
        for delay in (0, 2, 4, 8):
            grid.append(pfm_point(f"delay{delay}", workload, window,
                                  PFMParams(delay=delay)))
        for queue in (8, 16, 32, 64):
            grid.append(pfm_point(f"queue{queue}", workload, window,
                                  PFMParams(delay=4, queue_size=queue)))
        for port in ("ALL", "LS", "LS1"):
            label = ls1_label if port == "LS1" else f"port{port}"
            grid.append(pfm_point(label, workload, window,
                                  PFMParams(delay=4, port=port)))
        return grid

    return points


def scope_grid(workload: str, override: str, entries: tuple[int, ...]) -> Grid:
    """Figures 10 and 14: the baseline, then one ``N entries`` point per
    size of the component structure *override* that bounds its
    speculative scope (clk4_w4, delay4, queue32, portLS1)."""

    def points(window: int) -> list[SweepPoint]:
        return [baseline_point(workload, window)] + [
            pfm_point(f"{n} entries", workload, window,
                      PFMParams(delay=4, port="LS1",
                                component_overrides={override: n}))
            for n in entries
        ]

    return points


def snoop_grid(workload: str) -> Grid:
    """Tables 2 and 3: one default-configuration PFM point."""
    return lambda window: [pfm_point("default", workload, window, PFMParams())]


def snoop_rows(result: ExperimentResult, points: list[SweepPoint],
               stats: dict[str, SimStats]) -> None:
    """Tables 2 and 3: the RST and FST hit percentages inside the ROI."""
    add_stat_rows(result, stats["default"], [
        ("retired hit RST", "rst_hit_pct"),
        ("fetched hit FST", "fst_hit_pct"),
    ])


def mpki_pair(workload: str) -> Grid:
    """The headline MPKI collapse: the baseline and the custom
    component at delay0."""
    return lambda window: [
        baseline_point(workload, window),
        pfm_point("custom", workload, window, PFMParams(delay=0)),
    ]


def mpki_rows(result: ExperimentResult, points: list[SweepPoint],
              stats: dict[str, SimStats]) -> None:
    """Branch MPKI of the baseline and of the custom component."""
    baseline, custom = points
    result.add("baseline", stats[baseline.label].mpki)
    result.add("custom", stats[custom.label].mpki)
