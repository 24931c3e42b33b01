"""Experiment harness: regenerate every table and figure of the paper.

Each figure or table is a :class:`~repro.experiments.figure.Figure`
declaration in the module of its section (``astar_sweeps.fig8``, ...):
a grid of sweep points, a row rule and the paper's values.  Calling it
(``fig8(window=..., pool=...)``) returns an
:class:`~repro.experiments.report.ExperimentResult` whose rows mirror the
paper's series, alongside the paper's reported values for comparison.

Run from the command line::

    python -m repro.experiments list
    python -m repro.experiments fig8 --window 40000
    python -m repro.experiments all

Windows default to 40k dynamic instructions (the paper uses 100M SimPoint
windows; the pure-Python cycle model trades window length for tractability
— all quantities are ratios against a same-window baseline, see
DESIGN.md §5).
"""

from repro.experiments.report import ExperimentResult
from repro.experiments.pool import SweepPoint, SweepPool

__all__ = [
    "ExperimentResult",
    "SweepPoint",
    "SweepPool",
]
