"""Tests of the benchmark's span tracing.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

from spans import MARK, ROOT, SPAN_SITES, SpanLog, Tracer, _resolve_owner, layer_metrics  # noqa: E402


def _synthetic_log() -> SpanLog:
    """op [0,100] > {fetch [10,40] > predict [20,30]}, {retire [50,90]}."""
    log = SpanLog()
    times = iter([0, 10, 20, 30, 40, 50, 90, 100])
    clock = lambda: next(times)  # noqa: E731
    log.op_id = 0
    root = log.open(log.intern(ROOT), clock)
    fetch = log.open(log.intern("core.fetch"), clock)
    predict = log.open(log.intern("frontend.predict"), clock)
    log.close(predict, clock)
    log.close(fetch, clock)
    retire = log.open(log.intern("core.retire"), clock)
    log.close(retire, clock)
    log.close(root, clock)
    return log


def test_self_time_subtracts_direct_children_only():
    log = _synthetic_log()
    assert log.self_times() == [100 - 30 - 40, 30 - 10, 10, 40]
    assert list(log.parent) == [-1, 0, 1, 0]


def test_self_times_and_residual_add_up_to_the_op():
    metrics = layer_metrics(_synthetic_log())
    assert metrics["core.fetch_s"] == pytest.approx(20e-9)
    assert metrics["frontend.predict_s"] == pytest.approx(10e-9)
    assert metrics["core.retire_s"] == pytest.approx(40e-9)
    assert metrics["trace.residual_s"] == pytest.approx(30e-9)
    assert metrics["trace.op_wall_s"] == pytest.approx(100e-9)
    layers = metrics["core.fetch_s"] + metrics["frontend.predict_s"] + metrics["core.retire_s"]
    assert layers + metrics["trace.residual_s"] == pytest.approx(metrics["trace.op_wall_s"])
    assert metrics["frontend.calls"] == 1


def test_generator_wrapper_spans_each_resumption():
    class Source:
        def run(self, n):
            yield from range(n)

    tracer = Tracer(sites=[(lambda: Source, "run", "workloads.replay", None, True)])
    tracer.install()
    try:
        with tracer.op(0):
            assert list(Source().run(3)) == [0, 1, 2]
    finally:
        tracer.uninstall()
    _, calls = tracer.log.totals()
    assert calls["workloads.replay"] == 4  # three items and the final stop
    assert "run" not in vars(Source) or not hasattr(Source.run, MARK)


def test_uninstall_restores_every_site():
    before = {}
    for owner_ref, attr, *_ in SPAN_SITES:
        owner = _resolve_owner(owner_ref)
        before[(owner, attr)] = vars(owner).get(attr)
    tracer = Tracer()
    tracer.install()
    try:
        for (owner, attr) in before:
            assert hasattr(getattr(owner, attr), MARK), (owner, attr)
    finally:
        tracer.uninstall()
    assert tracer.leftovers() == []
    for (owner, attr), original in before.items():
        assert vars(owner).get(attr) is original, (owner, attr)


def test_traced_run_matches_untraced(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    from cases import fingerprint
    from repro.core import PFMParams, SimConfig, simulate
    from repro.registry import build_workload

    def run():
        config = SimConfig(max_instructions=800, pfm=PFMParams(delay=0))
        return simulate(build_workload("astar"), config)

    plain = run()
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.op(0):
            traced = run()
    finally:
        tracer.uninstall()
    assert fingerprint(traced) == fingerprint(plain)
    metrics = layer_metrics(tracer.log)
    assert metrics["core.retire_s"] > 0 and metrics["pfm.snoop_lookups"] > 0
