"""Stage-pipeline equivalence proof.

The stage decomposition of ``SuperscalarCore`` (repro.core.stages) must
be behaviorally invisible: for every workload, with and without the PFM
fabric attached, the architectural digest — a hash over the retired
instruction stream plus final register and memory state — must equal the
digest recorded in the committed goldens, which predate the refactor.
Unlike the full golden harness this asserts only ``arch_digest``, so it
pins down *architectural* equivalence independently of timing stats.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import SimConfig, SuperscalarCore
from repro.experiments.runner import parse_config_label
from repro.registry import build_workload, workload_names

GOLDEN_DIR = Path(__file__).parent / "goldens"
GOLDEN_WINDOW = 5_000
PFM_CONFIG = "clk4_w4, delay4, queue32, portLS1"

CASES = [
    (workload, variant)
    for workload in workload_names()
    for variant in ("baseline", "pfm")
]


def _golden_digest(workload: str, variant: str) -> str:
    path = GOLDEN_DIR / f"{workload}--{variant}.json"
    return json.loads(path.read_text())["stats"]["arch_digest"]


@pytest.mark.parametrize(
    "workload,variant", CASES, ids=[f"{w}-{v}" for w, v in CASES]
)
def test_arch_digest_matches_golden(workload: str, variant: str):
    pfm = None if variant == "baseline" else parse_config_label(PFM_CONFIG)
    config = SimConfig(max_instructions=GOLDEN_WINDOW, pfm=pfm)
    core = SuperscalarCore(build_workload(workload), config)

    # A PFM run hands the stages its fabric through the shared context;
    # a baseline run leaves it None (the stages' fast path).
    if variant == "pfm":
        assert core.fabric is not None
    else:
        assert core.fabric is None
    assert core.ctx.fabric is core.fabric

    stats = core.run()
    assert stats.arch_digest == _golden_digest(workload, variant)
