"""Experiment harness: runners, report rendering, config parsing."""

import pytest

from repro.core import PFMParams
from repro.experiments.report import ExperimentResult, render_all
from repro.experiments.runner import parse_config_label
from repro.registry import build_workload


def test_parse_config_label_full():
    params = parse_config_label("clk4_w2, delay8, queue16, portLS1")
    assert params.clk_ratio == 4
    assert params.width == 2
    assert params.delay == 8
    assert params.queue_size == 16
    assert params.port == "LS1"


def test_parse_config_label_partial_keeps_defaults():
    params = parse_config_label("clk8_w1")
    assert params.clk_ratio == 8 and params.width == 1
    assert params.delay == PFMParams().delay


def test_parse_config_label_rejects_garbage():
    with pytest.raises(ValueError):
        parse_config_label("warp9")


def test_build_workload_all_names():
    for name in (
        "astar", "astar-alt", "bfs-roads", "bfs-youtube", "libquantum",
        "bwaves", "lbm", "milc", "leslie",
    ):
        workload = build_workload(name)
        assert workload.program is not None
        assert workload.bitstream is not None


def test_build_workload_astar_alt_takes_overrides():
    """astar-alt is a first-class workload the experiments layer can sweep."""
    workload = build_workload(
        "astar-alt", table_entries=256, grid_width=96, grid_height=96
    )
    assert workload.program is not None
    assert workload.bitstream is not None


def test_build_workload_bfs_graph_override():
    from repro.workloads.graphs import road_graph

    workload = build_workload("bfs-roads", graph=road_graph(side=16))
    assert workload.program is not None


def test_sweep_grid_covers_all_nine_workloads():
    from repro.experiments.sweep import SWEEP_WORKLOADS, sweep_points

    points = sweep_points(window=4_000)
    assert "astar-alt" in SWEEP_WORKLOADS
    assert len(SWEEP_WORKLOADS) == 9
    workloads = {point.workload for point in points}
    assert workloads == set(SWEEP_WORKLOADS)


def test_build_workload_unknown_name():
    with pytest.raises(ValueError):
        build_workload("doom")


def test_report_rendering_with_paper_values():
    result = ExperimentResult(
        experiment="Figure X",
        title="demo",
        paper={"a": 10.0},
    )
    result.add("a", 12.3)
    result.add("b", -4.0)
    text = result.render()
    assert "Figure X" in text
    assert "12.3" in text and "10.0" in text
    assert "—" in text  # missing paper value for b
    assert result.value("a") == 12.3
    with pytest.raises(KeyError):
        result.value("missing")


def test_render_all_joins():
    r1 = ExperimentResult(experiment="A", title="t")
    r1.add("x", 1.0)
    r2 = ExperimentResult(experiment="B", title="t")
    r2.add("y", 2.0)
    assert "A" in render_all([r1, r2]) and "B" in render_all([r1, r2])


def test_experiment_registry_complete():
    from repro.experiments.__main__ import EXPERIMENTS

    expected = {
        "fig2", "fig8", "tab2", "fig9", "fig10", "fig12", "tab3",
        "fig13", "fig14", "fig17", "tab4", "fig18",
    }
    assert expected <= set(EXPERIMENTS)


def test_table4_experiment_runs_fast():
    from repro.experiments.fpga_table4 import PAPER_TABLE4, table4

    result = table4()
    assert {label for label, _ in result.rows} == set(PAPER_TABLE4)


def test_table2_snoop_percentages_in_band():
    from repro.experiments.astar_sweeps import table2

    result = table2(window=12_000)
    assert 8 <= result.value("fetched hit FST") <= 25  # paper 15.5
    assert 10 <= result.value("retired hit RST") <= 32  # paper 20.3
