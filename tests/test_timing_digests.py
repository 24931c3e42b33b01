"""Per-instruction timing digests over the goldens and their variants.

A golden pins a run's aggregate ``SimStats``; two timing changes that
cancel in the totals (one instruction retires a cycle later, another a
cycle earlier) leave it unchanged, and on a replay the ``arch_digest``
certifies only the trace.  This test hashes every instruction's (fetch,
dispatch, issue, complete, retire) times, captured by an instrumented
:class:`~repro.core.core.SuperscalarCore` subclass, and pins the hash of
each golden point and variant in ``tests/goldens/timing_digests.json``.
The instrumented core always runs the python engine; its full stats
must also equal the golden, so the hash describes the golden's run.
Regenerate with::

    PYTHONPATH=src python -m pytest tests/test_timing_digests.py --update-goldens
"""

from __future__ import annotations

import hashlib
import json
from array import array

import pytest

from repro.core import SimConfig, SuperscalarCore
from repro.experiments.pool import stats_to_dict
from repro.registry import build_workload

from tests.test_goldens import GOLDEN_DIR, golden_points

DIGEST_FILE = GOLDEN_DIR / "timing_digests.json"

GOLDEN_POINTS = golden_points()


class _TimingCore(SuperscalarCore):
    """Records each instruction's five stage times in program order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.times = array("q")
        dispatch, execute = self._dispatch, self._execute

        def timed_dispatch(dyn, fetch_time):
            dispatch_time = dispatch(dyn, fetch_time)
            self.times.extend((fetch_time, dispatch_time))
            return dispatch_time

        def timed_execute(dyn, dispatch_time):
            issue, complete = execute(dyn, dispatch_time)
            self.times.extend((issue, complete))
            return issue, complete

        self._dispatch = timed_dispatch
        self._execute = timed_execute

    def _process(self, dyn):
        super()._process(dyn)
        self.times.append(self._prev_retire)


def timing_digest(point) -> tuple[str, dict]:
    """(hash of every instruction's stage times, full stats) of *point*."""
    workload = build_workload(point.workload, **point.overrides)
    core = _TimingCore(
        workload, SimConfig(max_instructions=point.window, pfm=point.pfm)
    )
    stats = core.run()
    assert stats.backend == "python"
    assert len(core.times) == 5 * stats.instructions
    digest = hashlib.sha256(core.times.tobytes()).hexdigest()
    return digest, json.loads(json.dumps(stats_to_dict(stats)))


@pytest.mark.parametrize(
    "name,point,golden", GOLDEN_POINTS, ids=[n for n, _, _ in GOLDEN_POINTS]
)
def test_timing_digest(name, point, golden, update_goldens):
    digest, stats = timing_digest(point)
    assert stats == json.loads(golden.read_text())["stats"], (
        f"{name}: the instrumented run diverged from {golden.name}"
    )
    pinned = json.loads(DIGEST_FILE.read_text()) if DIGEST_FILE.exists() else {}
    if update_goldens:
        pinned[name] = digest
        DIGEST_FILE.write_text(json.dumps(pinned, sort_keys=True, indent=2) + "\n")
        return
    assert name in pinned, (
        f"no timing digest for {name} — generate it with"
        " pytest tests/test_timing_digests.py --update-goldens"
    )
    assert digest == pinned[name], (
        f"{name}: per-instruction stage times changed while the golden"
        " stats did not (compensating timing change). If intentional,"
        " rerun with --update-goldens."
    )
