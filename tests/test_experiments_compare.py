"""Shape-agreement metrics for paper-vs-measured series."""

import math
import sys

import pytest

from repro.experiments.compare import (
    average_ranks,
    log_ratio_spread,
    rank_agreement,
    score,
    shape_report,
    spearman,
)
from repro.experiments.report import ExperimentResult


def make_result(rows, paper):
    result = ExperimentResult(experiment="Fig T", title="t", paper=paper)
    for label, value in rows:
        result.add(label, value)
    return result


def test_perfect_ordering_gives_rho_one():
    result = make_result(
        [("a", 10.0), ("b", 20.0), ("c", 30.0)],
        {"a": 1.0, "b": 2.0, "c": 3.0},
    )
    assert rank_agreement(result) == pytest.approx(1.0)


def test_inverted_ordering_gives_rho_minus_one():
    result = make_result(
        [("a", 30.0), ("b", 20.0), ("c", 10.0)],
        {"a": 1.0, "b": 2.0, "c": 3.0},
    )
    assert rank_agreement(result) == pytest.approx(-1.0)


def test_tied_values_share_their_average_rank():
    assert average_ranks([3.0, 1.0, 2.0, 1.0]) == [4.0, 1.5, 3.0, 1.5]
    # x ranks (1, 2.5, 2.5, 4) against y ranks (1, 3, 2, 4):
    # rho = 4.5 / sqrt(4.5 * 5) = 3 / sqrt(10).
    assert spearman([1.0, 2.0, 2.0, 3.0], [1.0, 3.0, 2.0, 4.0]) == pytest.approx(
        3 / math.sqrt(10)
    )
    # A constant series has no rank correlation.
    assert math.isnan(spearman([5.0, 5.0, 5.0], [1.0, 2.0, 3.0]))


def test_shape_cli_runs_without_scipy(monkeypatch, capsys):
    """The shape report needs no third-party package beyond numpy."""
    from repro.experiments.__main__ import main

    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.delitem(sys.modules, "repro.experiments.compare")
    assert main(["shape", "--window", "1500", "--no-cache"]) == 0
    assert "spearman" in capsys.readouterr().out


def test_too_few_points_returns_none():
    result = make_result([("a", 1.0), ("b", 2.0)], {"a": 1.0, "b": 2.0})
    assert rank_agreement(result) is None


def test_constant_scaling_gives_zero_spread():
    result = make_result(
        [("a", 30.0), ("b", 60.0), ("c", 90.0)],
        {"a": 10.0, "b": 20.0, "c": 30.0},
    )
    assert log_ratio_spread(result) == pytest.approx(0.0, abs=1e-12)


def test_spread_measures_factor_dispersion():
    result = make_result(
        [("a", 10.0), ("b", 40.0)],
        {"a": 10.0, "b": 10.0},
    )
    spread = log_ratio_spread(result)
    assert spread == pytest.approx(math.log(4.0) / 2)


def test_negative_values_excluded_from_spread():
    result = make_result(
        [("a", -5.0), ("b", 10.0), ("c", 20.0)],
        {"a": 5.0, "b": 10.0, "c": 20.0},
    )
    assert log_ratio_spread(result) == pytest.approx(0.0, abs=1e-12)


def test_rows_without_paper_values_ignored():
    result = make_result(
        [("a", 10.0), ("extra", 99.0), ("b", 20.0), ("c", 30.0)],
        {"a": 1.0, "b": 2.0, "c": 3.0},
    )
    assert score(result).points == 3


def test_shape_report_renders_table():
    result = make_result(
        [("a", 10.0), ("b", 20.0), ("c", 30.0)],
        {"a": 1.0, "b": 2.0, "c": 3.0},
    )
    text = shape_report([result])
    assert "Fig T" in text
    assert "+1.00" in text


def test_shape_of_actual_fig8_is_strong():
    """The repo's own Figure 8 must order like the paper's."""
    from repro.experiments.astar_sweeps import fig8

    result = fig8(window=10_000)
    rho = rank_agreement(result)
    assert rho is not None and rho > 0.7
