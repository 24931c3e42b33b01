"""Golden-stats regression harness.

Each golden under ``tests/goldens/`` is the full ``SimStats`` of one
``(workload, config)`` point at a small fixed window.  The simulator is
deterministic, so any engine, scheduling, or model change that perturbs
results — intentionally or not — fails these tests loudly.  After an
intentional model change, regenerate with::

    PYTHONPATH=src python -m pytest tests/test_goldens.py --update-goldens

One more golden pins the rendered text of every figure and table
experiment at a small window, so a change to the experiments layer that
moves a row, a label or a paper value fails here too.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.experiments.faults import campaign_recovery, campaign_watchdog
from repro.experiments.pool import (
    SweepPoint,
    SweepPool,
    baseline_point,
    run_point,
    stats_to_dict,
)
from repro.experiments.runner import parse_config_label
from repro.experiments.sweep import SWEEP_WORKLOADS
from repro.faults import BUILTIN_PLANS
from repro.pfm.tenancy import parse_tenant_spec

GOLDEN_DIR = Path(__file__).parent / "goldens"
GOLDEN_WINDOW = 5_000
RENDER_WINDOW = 1_500
PFM_CONFIG = "clk4_w4, delay4, queue32, portLS1"

CASES = [
    (workload, variant)
    for workload in SWEEP_WORKLOADS
    for variant in ("baseline", "pfm")
]

#: Fabric paths the standard goldens leave unpinned, as
#: ``name -> (workload, config label, PFMParams overrides)``: the
#: observation scheduler at a one-wide crossing (at clock ratios 4 and
#: 1), astar's component at a one-entry index_queue, a co-tenant on the
#: retire side of two workloads, and a dead primary component revived
#: by the recovery policy.
VARIANTS = {
    "clk4_w1-delay0": ("astar", "clk4_w1, delay0", {}),
    "clk1_w1-delay0": ("astar", "clk1_w1, delay0", {}),
    "index-queue-1": (
        "astar", PFM_CONFIG,
        {"component_overrides": {"index_queue_entries": 1}},
    ),
    "introspect": (
        "astar", PFM_CONFIG, {"tenants": (parse_tenant_spec("introspect"),)},
    ),
    "branch-mirror": (
        "bfs-roads", PFM_CONFIG,
        {"tenants": (parse_tenant_spec("branch-mirror"),)},
    ),
    "dead-component-recovery": (
        "astar", PFM_CONFIG,
        {
            "fault_plan": BUILTIN_PLANS["dead-component"],
            "watchdog": campaign_watchdog(),
            "recovery": campaign_recovery(),
        },
    ),
}


def _point(workload: str, variant: str) -> SweepPoint:
    if variant == "baseline":
        return baseline_point(workload, GOLDEN_WINDOW)
    return SweepPoint(
        label=f"pfm:{workload}",
        workload=workload,
        window=GOLDEN_WINDOW,
        pfm=parse_config_label(PFM_CONFIG),
    )


def _variant_point(variant: str) -> SweepPoint:
    workload, config, overrides = VARIANTS[variant]
    return SweepPoint(
        label=f"pfm:{workload}:{variant}",
        workload=workload,
        window=GOLDEN_WINDOW,
        pfm=dataclasses.replace(parse_config_label(config), **overrides),
    )


def _golden_path(workload: str, variant: str) -> Path:
    return GOLDEN_DIR / f"{workload}--{variant}.json"


def golden_points() -> list[tuple[str, SweepPoint, Path]]:
    """``(id, point, golden file)`` for the 18 goldens and the variants."""
    points = [
        (f"{w}-{v}", _point(w, v), _golden_path(w, v)) for w, v in CASES
    ]
    for variant, (workload, _, _) in VARIANTS.items():
        points.append((
            variant, _variant_point(variant),
            _golden_path(workload, f"pfm-{variant}"),
        ))
    return points


def _payload(point: SweepPoint, variant: str, config: str | None) -> dict:
    stats = run_point(point)
    return {
        "workload": point.workload,
        "variant": variant,
        "window": GOLDEN_WINDOW,
        "config": config,
        # round-trip through JSON so the comparison sees exactly what a
        # golden file can represent
        "stats": json.loads(json.dumps(stats_to_dict(stats))),
    }


@pytest.mark.parametrize(
    "workload,variant", CASES, ids=[f"{w}-{v}" for w, v in CASES]
)
def test_golden(workload: str, variant: str, update_goldens: bool):
    config = None if variant == "baseline" else PFM_CONFIG
    payload = _payload(_point(workload, variant), variant, config)
    _check(payload, _golden_path(workload, variant), update_goldens)


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_golden_variant(variant: str, update_goldens: bool):
    workload, config, _ = VARIANTS[variant]
    payload = _payload(_variant_point(variant), f"pfm-{variant}", config)
    _check(payload, _golden_path(workload, f"pfm-{variant}"), update_goldens)


def test_experiments_render(update_goldens: bool):
    """Every figure and table experiment, rendered through one
    memory-only pool.  ``sweep`` and ``faults`` are left out: their
    ``--json`` payloads are pinned byte for byte elsewhere."""
    from repro.experiments.__main__ import EXPERIMENTS

    pool = SweepPool()
    text = "\n\n".join(
        run(window=RENDER_WINDOW, pool=pool).render()
        for name, run in EXPERIMENTS.items()
        if name not in ("sweep", "faults")
    ) + "\n"
    _check(text, GOLDEN_DIR / f"experiments-w{RENDER_WINDOW}.md", update_goldens)


def _check(payload: dict | str, path: Path, update_goldens: bool) -> None:
    """Compare *payload* with the golden *path*, or rewrite the golden
    under ``--update-goldens``; a ``str`` payload is a rendered text
    golden, compared as is."""
    if update_goldens:
        GOLDEN_DIR.mkdir(exist_ok=True)
        if isinstance(payload, str):
            path.write_text(payload)
        else:
            path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return

    assert path.exists(), (
        f"golden {path.name} missing — generate it with"
        " pytest tests/test_goldens.py --update-goldens"
    )
    if isinstance(payload, str):
        assert path.read_text() == payload, (
            f"rendered experiments diverged from golden {path.name}."
            " If the change is intentional, rerun with --update-goldens."
        )
        return
    golden = json.loads(path.read_text())
    workload, variant = payload["workload"], payload["variant"]

    mismatched = {
        field: (golden["stats"].get(field), value)
        for field, value in payload["stats"].items()
        if golden["stats"].get(field) != value
    }
    assert golden == payload, (
        f"{workload}/{variant} diverged from golden {path.name};"
        f" changed stats (golden -> current): {mismatched}."
        " If the change is intentional, rerun with --update-goldens."
    )
