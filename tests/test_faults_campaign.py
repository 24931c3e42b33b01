"""The ``faults`` experiment campaign and its CLI wiring."""

from __future__ import annotations

import json

import pytest

from repro.experiments import faults as faults_module
from repro.experiments.__main__ import main
from repro.experiments.faults import (
    FAULT_WORKLOADS,
    OracleViolation,
    fault_points,
    run_faults,
)
from repro.experiments.pool import SweepPool
from repro.experiments.sweep import payload_json
from repro.faults import BUILTIN_PLANS, OracleVerdict

WINDOW = 1_200
WORKLOADS = ("astar",)
#: PFM points per workload: clean + one per plan, and on the recovery
#: workload (astar) also a scheduled swap + one recovery twin per plan.
PFM_POINTS = 1 + len(BUILTIN_PLANS) + 1 + len(BUILTIN_PLANS)


@pytest.fixture(scope="module")
def campaign():
    return run_faults(WINDOW, SweepPool(), workloads=WORKLOADS)


def test_grid_shape():
    points = fault_points(WINDOW, WORKLOADS)
    assert len(points) == 1 + PFM_POINTS
    labels = {p.label for p in points}
    assert "baseline:astar" in labels
    assert "astar [clean]" in labels
    assert "astar [swap]" in labels
    assert "astar [fault:chaos]" in labels
    assert "astar [fault:chaos/recovery]" in labels
    assert len(labels) == len(points)
    # Recovery is armed exactly on the swap and the /recovery twins.
    recovering = {p.label for p in points if p.pfm and p.pfm.recovery.active()}
    assert recovering == {"astar [swap]"} | {
        f"astar [fault:{plan}/recovery]" for plan in BUILTIN_PLANS
    }


def test_full_grid_is_the_union_of_detection_and_recovery():
    # Every workload x {baseline, clean, one per plan}, plus astar's
    # swap and recovery twins: 55 points at the default workloads.
    points = fault_points(WINDOW)
    per_workload = 2 + len(BUILTIN_PLANS)
    assert len(points) == (
        len(FAULT_WORKLOADS) * per_workload + 1 + len(BUILTIN_PLANS)
    ) == 55
    assert not any(
        "/recovery]" in p.label or "[swap]" in p.label
        for p in points if p.workload != "astar"
    )


def test_campaign_workloads_cover_both_component_families():
    # astar/bfs-roads exercise branch prediction (squashes, overrides);
    # libquantum exercises the prefetch path with no FST predictions.
    assert "astar" in FAULT_WORKLOADS
    assert "libquantum" in FAULT_WORKLOADS


def test_all_points_pass_oracle(campaign):
    _, payload = campaign
    checked = {
        label: entry
        for label, entry in payload["points"].items()
        if not label.startswith("baseline:")
    }
    assert len(checked) == PFM_POINTS
    assert all(entry["oracle_ok"] for entry in checked.values())
    assert payload["oracle_failures"] == []
    assert payload["swap_mismatches"] == []
    assert payload["points"]["astar [swap]"]["swap_invisible"] is True


def test_payload_carries_digests_and_watchdog(campaign):
    _, payload = campaign
    digests = {
        entry["arch_digest"] for entry in payload["points"].values()
    }
    assert digests == {payload["points"]["baseline:astar"]["arch_digest"]}
    assert payload["watchdog"]["fetch_timeout_cycles"] == 256
    assert payload["plans"] == sorted(BUILTIN_PLANS)


def test_result_rows_report_degradation(campaign):
    result, _ = campaign
    assert len(result.rows) == PFM_POINTS
    for label, value in result.rows:
        assert value > 0, f"{label} reported non-positive relative IPC"
    assert "oracle" in result.notes


def test_payload_json_deterministic(campaign):
    _, payload = campaign
    rerun_result, rerun_payload = run_faults(
        WINDOW, SweepPool(), workloads=WORKLOADS
    )
    assert payload_json(rerun_payload) == payload_json(payload)
    assert rerun_result.rows == campaign[0].rows


def test_oracle_violation_aborts_campaign(monkeypatch):
    def always_fail(baseline, faulted):
        return OracleVerdict(
            ok=False, reason="forced", baseline_digest="a", faulted_digest="b"
        )

    monkeypatch.setattr(faults_module, "check_equivalence", always_fail)
    with pytest.raises(OracleViolation, match="forced"):
        run_faults(WINDOW, SweepPool(), workloads=WORKLOADS)


# ---------------------------------------------------------------------- #
# CLI wiring
# ---------------------------------------------------------------------- #


def test_cli_smoke_rejects_non_payload_experiments(capsys):
    with pytest.raises(SystemExit):
        main(["fig8", "--smoke"])


def test_cli_faults_smoke_writes_json(tmp_path, capsys):
    out = tmp_path / "faults.json"
    code = main(
        [
            "faults",
            "--smoke",
            "--window",
            "600",
            "--no-cache",
            "--json",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["window"] == 600
    assert payload["oracle_failures"] == []
    assert set(payload["workloads"]) == set(FAULT_WORKLOADS)
    rendered = capsys.readouterr().out
    assert "Faults" in rendered
    assert "fault:dead-component" in rendered
