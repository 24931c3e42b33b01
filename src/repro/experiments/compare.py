"""Quantify reproduction quality: shape agreement with the paper.

The reproduction's claim is that *shapes* hold — who wins, orderings,
rough factors — even where absolute magnitudes differ (DESIGN.md §5).
This module turns that into numbers:

* :func:`rank_agreement` — Spearman rank correlation between the paper's
  reported series and the measured series (ordering preservation).
* :func:`log_ratio_spread` — dispersion of log(measured/paper) across a
  series (a constant factor gives zero spread: same shape, scaled).
* :func:`shape_report` — both metrics for every experiment that embeds
  paper values, rendered as a table.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from repro.experiments.report import ExperimentResult


@dataclass(frozen=True)
class ShapeScore:
    experiment: str
    points: int
    spearman: float | None  # None when fewer than 3 comparable points
    log_ratio_spread: float | None

    def row(self) -> str:
        rho = f"{self.spearman:+.2f}" if self.spearman is not None else "  — "
        spread = (
            f"{self.log_ratio_spread:.2f}"
            if self.log_ratio_spread is not None
            else " — "
        )
        return f"{self.experiment:<12} {self.points:>6} {rho:>9} {spread:>12}"


def _paired(result: ExperimentResult) -> tuple[list[float], list[float]]:
    measured, paper = [], []
    for label, value in result.rows:
        if label in result.paper:
            measured.append(value)
            paper.append(result.paper[label])
    return measured, paper


def average_ranks(values: list[float]) -> list[float]:
    """1-based rank of each value; tied values share their average rank."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        end = start
        while end + 1 < len(order) and values[order[end + 1]] == values[order[start]]:
            end += 1
        for index in order[start:end + 1]:
            ranks[index] = (start + end) / 2 + 1
        start = end + 1
    return ranks


def spearman(x: list[float], y: list[float]) -> float:
    """Spearman's rho: Pearson's r over the average ranks of *x* and *y*
    (NaN when either series is constant, as ``scipy.stats.spearmanr``)."""
    try:
        return statistics.correlation(average_ranks(x), average_ranks(y))
    except statistics.StatisticsError:
        return math.nan


def rank_agreement(result: ExperimentResult) -> float | None:
    """Spearman rank correlation of measured vs paper (None if < 3 points)."""
    measured, paper = _paired(result)
    if len(measured) < 3:
        return None
    return spearman(measured, paper)


def log_ratio_spread(result: ExperimentResult) -> float | None:
    """Std-dev of log(measured/paper) over strictly positive pairs.

    0 means the measured series is the paper's series times a constant
    (perfect shape); values around 0.5 mean point-to-point factors vary
    by ~1.6x around the central scaling.
    """
    measured, paper = _paired(result)
    ratios = [
        math.log(m / p)
        for m, p in zip(measured, paper)
        if m > 0 and p > 0
    ]
    if len(ratios) < 2:
        return None
    mean = sum(ratios) / len(ratios)
    variance = sum((r - mean) ** 2 for r in ratios) / len(ratios)
    return math.sqrt(variance)


def score(result: ExperimentResult) -> ShapeScore:
    measured, _ = _paired(result)
    return ShapeScore(
        experiment=result.experiment,
        points=len(measured),
        spearman=rank_agreement(result),
        log_ratio_spread=log_ratio_spread(result),
    )


def shape_report(results: list[ExperimentResult]) -> str:
    """Render shape scores for every experiment with embedded paper values."""
    lines = [
        f"{'experiment':<12} {'points':>6} {'spearman':>9} {'log-spread':>12}"
    ]
    for result in results:
        if result.paper:
            lines.append(score(result).row())
    return "\n".join(lines)
