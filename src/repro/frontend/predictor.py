"""Branch predictor interface.

The cycle model is trace-driven over the correct path, so predictors see
only correct-path branches: ``predict(pc)`` at fetch, then
``update(pc, taken)`` when the branch retires (the paper's core also trains
its tables at retirement).  Predictors maintain their own global history.
"""

from __future__ import annotations

import abc


class BranchPredictor(abc.ABC):
    """Abstract conditional branch predictor."""

    @abc.abstractmethod
    def predict(self, pc: int) -> bool:
        """Predict the branch at *pc*: True = taken."""

    @abc.abstractmethod
    def update(self, pc: int, taken: bool) -> None:
        """Train on the resolved outcome of the branch at *pc*."""

    def on_taken_control(self, pc: int, target: int) -> None:
        """Hook for unconditional taken control flow (history spice).

        Default: no-op.  TAGE-SC-L folds taken jumps into path history.
        """


class PerfectPredictor(BranchPredictor):
    """Oracle predictor for the paper's *perfBP* idealization.

    The cycle model special-cases perfect prediction (it knows the trace
    outcome); this class exists so perfBP flows through the same predictor
    interface and statistics plumbing as real predictors.
    """

    def __init__(self):
        self._next_outcome: bool | None = None

    def stage_outcome(self, taken: bool) -> None:
        """Provide the oracle outcome for the next ``predict`` call."""
        self._next_outcome = taken

    def predict(self, pc: int) -> bool:
        if self._next_outcome is None:
            raise RuntimeError("perfect predictor used without staged outcome")
        outcome, self._next_outcome = self._next_outcome, None
        return outcome

    def update(self, pc: int, taken: bool) -> None:
        return None


class ReplayPredictor(BranchPredictor):
    """Serves a stored direction column instead of running a predictor.

    ``predict`` returns the column's next bit; ``update`` and
    ``on_taken_control`` do nothing, because the column already holds
    the trained predictor's output (see
    :func:`repro.workloads.columns.directions`).
    ``consumed`` counts the bits served.
    """

    def __init__(self, bits: list[bool]) -> None:
        self._bits = bits
        self.consumed = 0

    def predict(self, pc: int) -> bool:
        i = self.consumed
        self.consumed = i + 1
        return self._bits[i]

    def update(self, pc: int, taken: bool) -> None:
        return None

    def on_taken_control(self, pc: int, target: int) -> None:
        return None
