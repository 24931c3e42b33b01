"""Experiment harness: regenerate every table and figure of the paper.

Each experiment module exposes a ``run(window=...)`` function returning an
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
