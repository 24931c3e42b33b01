"""Templated run-ahead predictor generation (Section 7's future work)."""

import dataclasses

import pytest

from repro.core import PFMParams, SimConfig, simulate
from repro.pfm.components.template import (
    GuardedCheck,
    TemplatedRunaheadPredictor,
    TemplateSpec,
    astar_template_spec,
)
from repro.workloads.astar import build_astar_workload

WINDOW = 15_000


def grid_kwargs():
    return dict(grid_width=128, grid_height=128)


def test_astar_spec_shape():
    spec = astar_template_spec()
    assert spec.fanout == 8
    assert len(spec.checks) == 2
    assert spec.checks[0].name == "waymap"
    assert spec.infer_stores


def test_spec_derive_uses_snooped_scalars():
    spec = astar_template_spec()
    indices = spec.derive(100, {"yoffset": 10, "fillnum": 0})
    assert indices == [89, 90, 91, 99, 101, 109, 110, 111]


def test_template_respects_scope_override():
    small = simulate(
        build_astar_workload(**grid_kwargs()),
        SimConfig(
            max_instructions=WINDOW,
            pfm=PFMParams(
                delay=0, component_overrides={"index_queue_entries": 1}
            ),
        ),
    )
    full = simulate(
        build_astar_workload(**grid_kwargs()),
        SimConfig(max_instructions=WINDOW, pfm=PFMParams(delay=0)),
    )
    assert full.ipc > small.ipc * 1.2


def test_template_store_inference_can_be_disabled():
    no_infer = dataclasses.replace(astar_template_spec(), infer_stores=False)

    def factory(timings, memory, metadata=None):
        return TemplatedRunaheadPredictor(
            timings, memory, {**(metadata or {}), "spec": no_infer}
        )

    with_infer = simulate(
        build_astar_workload(**grid_kwargs()),
        SimConfig(max_instructions=WINDOW, pfm=PFMParams(delay=0)),
    )
    without = simulate(
        build_astar_workload(component_factory=factory, **grid_kwargs()),
        SimConfig(max_instructions=WINDOW, pfm=PFMParams(delay=0)),
    )
    # The loop-carried dependency bites without inference.
    assert without.mpki > with_infer.mpki * 1.5


def test_template_structure_scales_with_spec():
    spec = astar_template_spec()
    component = TemplatedRunaheadPredictor(
        __import__("repro.pfm.component", fromlist=["RFTimings"]).RFTimings(4, 4, 0),
        None,
        {"spec": spec},
    )
    structure = component.structure()
    assert structure["cam_bits"] > 0
    assert structure["queue_bits"] > 0


def test_custom_single_check_spec():
    """A one-check spec (flag-walk style) works through the template."""
    check = GuardedCheck(
        name="flag",
        base_tag="flags_base",
        stride=8,
        predicate=lambda value, env: int(value) == 0,
        fst_tag="flag:{k}",
    )
    spec = TemplateSpec(
        worklist_base_tag="worklist_base",
        head_counter_tag="iter_inc",
        scalar_tags=(),
        roi_value_name="roi",
        derive=lambda item, env: [item],
        checks=(check,),
        infer_stores=False,
    )
    assert spec.fanout == 1
    component = TemplatedRunaheadPredictor(
        __import__("repro.pfm.component", fromlist=["RFTimings"]).RFTimings(4, 1, 0),
        None,
        {"spec": spec},
    )
    assert component.is_idle()


def test_spec_beyond_the_load_ident_is_rejected():
    """Load idents carry 2 check bits, 6 index bits and 8 entry bits; a
    spec or scope that does not fit fails at construction instead of
    aliasing returns."""
    from repro.pfm.component import RFTimings

    spec = astar_template_spec()
    wide = dataclasses.replace(spec, checks=spec.checks * 3)
    for metadata in ({"spec": wide}, {"spec": spec, "index_queue_entries": 257}):
        with pytest.raises(ValueError, match="load ident"):
            TemplatedRunaheadPredictor(RFTimings(4, 4, 0), None, metadata)
