"""The stored direction column: the live predictor's bits, on disk.

A replayed run reads the core predictor's raw ``predict()`` bit for
every conditional branch from a column file beside the compiled trace
instead of running the predictor.  These tests pin the three promises
that makes:

* the column is exact — full ``SimStats`` are byte-identical to a
  functionally executed run on the live predictor, on every golden point
  and variant and on the perfect-BP, slipstream-oracle and telemetry
  paths;
* a warm replay never calls the predictor, and a predictor swapped in
  after construction always runs live;
* a damaged column is rejected with a named reason and rebuilt, never
  used and never a crash;
* a run builds the column over its own window only, and a predictor
  defined outside the package is never stored;
* the replay ``arch_digest`` stored in the same file per window equals
  the live one on both engines, and a replay of a stored window hashes
  nothing.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import pickle
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import PythonBackend, have_numpy
from repro.cachefile import CacheFileRejected, trace_dir
from repro.core import CoreParams, PFMParams, SimConfig, SuperscalarCore, simulate
from repro.core.archstate import ArchDigest
from repro.core.stages.fetch import FetchStage
from repro.experiments import pool
from repro.experiments.pool import run_point, stats_to_dict
from repro.experiments.runner import parse_config_label
from repro.frontend.simple import GSharePredictor
from repro.frontend.tagescl import TageSCL
from repro.registry import build_workload
from repro.registry.predictors import PREDICTORS
from repro.slipstream import make_astar_slipstream
from repro.telemetry import TelemetryParams
from repro.workloads import columns, tracecache

from tests.test_goldens import golden_points

SMALL_WINDOW = 1_500
PREDICTOR = CoreParams().predictor
PFM_CONFIG = "clk4_w4, delay4, queue32, portLS1"


@pytest.fixture(autouse=True)
def _fresh_memo():
    tracecache.reset_memory_cache()
    yield
    tracecache.reset_memory_cache()


def _pin_engine(monkeypatch, backend: str = "python") -> None:
    """Pin ``run_point`` to an engine (by default python, the column's
    replay path)."""
    monkeypatch.setattr(pool, "SimConfig", functools.partial(
        SimConfig, core=CoreParams(backend=backend)
    ))


def _digest_calls(monkeypatch) -> Counter:
    """Count every hashing call of :class:`ArchDigest` from now on."""
    calls: Counter[str] = Counter()
    for name in ("observe", "observe_columns", "finalize"):
        original = getattr(ArchDigest, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(ArchDigest, name, counted)
    return calls


def _live_digest(window: int = SMALL_WINDOW) -> tuple[str, dict, object]:
    """(digest, final registers, final memory) of *window* astar
    instructions under plain functional execution."""
    executor = build_workload("astar").executor()
    digest = ArchDigest()
    for _ in digest.tap(executor.run(window)):
        pass
    regs, memory = executor.regs, executor.memory
    return digest.finalize(regs, memory), regs, memory


GOLDEN_POINTS = golden_points()


@pytest.mark.parametrize(
    "point,golden", [(p, g) for _, p, g in GOLDEN_POINTS],
    ids=[name for name, _, _ in GOLDEN_POINTS],
)
def test_column_matches_the_live_predictor(point, golden, monkeypatch):
    """18 goldens and 6 variants: live predictor (no trace) and replay
    (stored column) give byte-identical full stats, equal to the golden.
    The replay stored its digest; a later replay on either engine serves
    it without hashing, and it equals the live digest."""
    _pin_engine(monkeypatch)
    monkeypatch.setattr(tracecache, "ENABLED", False)
    live = json.loads(json.dumps(stats_to_dict(run_point(point))))
    monkeypatch.setattr(tracecache, "ENABLED", True)
    replay = json.loads(json.dumps(stats_to_dict(run_point(point))))
    assert tracecache.STATS["column_builds"] == 1
    assert replay == live
    assert live == json.loads(golden.read_text())["stats"]

    calls = _digest_calls(monkeypatch)
    # A fabric run never takes the numpy engine.
    vectorized = have_numpy() and point.pfm is None
    for backend in ("python", "numpy") if vectorized else ("python",):
        tracecache.reset_memory_cache()
        _pin_engine(monkeypatch, backend)
        assert run_point(point).arch_digest == live["arch_digest"]
    assert calls == Counter()


def _live_and_replay(make_config, monkeypatch) -> tuple[dict, dict]:
    """(live, warm replay) full stats of one astar run; *make_config*
    builds the config from the run's workload."""
    def run() -> dict:
        workload = build_workload("astar")
        return stats_to_dict(simulate(workload, make_config(workload)))

    monkeypatch.setattr(tracecache, "ENABLED", False)
    live = run()
    monkeypatch.setattr(tracecache, "ENABLED", True)
    run()  # compiles the trace and builds the column
    tracecache.reset_memory_cache()
    replay = run()
    assert tracecache.STATS["column_disk_hits"] == 1
    return live, replay


@pytest.mark.parametrize("path", ["perfect-bp", "slipstream", "telemetry"])
def test_column_matches_on_every_predictor_consumer(path, monkeypatch):
    pfm = parse_config_label(PFM_CONFIG)
    make = {
        "perfect-bp": lambda w: SimConfig(
            max_instructions=SMALL_WINDOW, perfect_branch_prediction=True,
        ),
        "slipstream": lambda w: SimConfig(
            max_instructions=SMALL_WINDOW, oracle=make_astar_slipstream(w),
        ),
        "telemetry": lambda w: SimConfig(
            max_instructions=SMALL_WINDOW, pfm=pfm,
            telemetry=TelemetryParams(sample_period=64),
        ),
    }[path]
    live, replay = _live_and_replay(make, monkeypatch)
    assert replay == live


def test_warm_replay_never_calls_the_predictor(monkeypatch):
    """With the column on disk, neither engine calls TAGE-SC-L."""
    pfm = PFMParams(delay=0)
    simulate(build_workload("astar"), SimConfig(max_instructions=SMALL_WINDOW))
    tracecache.reset_memory_cache()

    calls: Counter[str] = Counter()
    for name in ("predict", "update", "on_taken_control"):
        original = getattr(TageSCL, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(TageSCL, name, counted)

    fabric = simulate(
        build_workload("astar"),
        SimConfig(max_instructions=SMALL_WINDOW, pfm=pfm),
    )
    plain = simulate(
        build_workload("astar"), SimConfig(max_instructions=SMALL_WINDOW)
    )
    assert fabric.backend == "python"
    assert plain.conditional_branches > 0
    assert calls == Counter()
    assert tracecache.STATS["column_disk_hits"] == 1


def test_warm_replay_never_hashes(monkeypatch):
    """A second replay of a stored window, on either engine, with or
    without the fabric, makes no observe and no finalize call; its
    digest is the live one."""
    live = _live_digest()[0]
    configs = {
        "fabric": SimConfig(max_instructions=SMALL_WINDOW, pfm=PFMParams(delay=0)),
        "python": SimConfig(
            max_instructions=SMALL_WINDOW, core=CoreParams(backend="python"),
        ),
    }
    if have_numpy():
        configs["numpy"] = SimConfig(
            max_instructions=SMALL_WINDOW, core=CoreParams(backend="numpy"),
        )
    cold = simulate(build_workload("astar"), configs["python"])
    assert cold.arch_digest == live
    tracecache.reset_memory_cache()

    calls = _digest_calls(monkeypatch)
    for name, config in configs.items():
        stats = simulate(build_workload("astar"), config)
        assert stats.backend == ("numpy" if name == "numpy" else "python")
        assert stats.arch_digest == live
    assert calls == Counter()
    assert tracecache.STATS["column_disk_hits"] == 1


def test_a_run_of_another_window_recomputes(monkeypatch):
    """A stored digest is served only to a run that consumed exactly its
    window: a shorter run on the same column hashes its own window (and
    stores it beside the first), and the stored entry is looked up by
    the consumed count, not by the configured window."""
    short = SMALL_WINDOW - 1
    live, live_short = _live_digest()[0], _live_digest(short)[0]
    simulate(build_workload("astar"), SimConfig(max_instructions=SMALL_WINDOW))
    calls = _digest_calls(monkeypatch)
    stats = simulate(build_workload("astar"), SimConfig(max_instructions=short))
    assert calls == Counter(observe_columns=1, finalize=1)
    assert stats.arch_digest == live_short
    assert sorted(_stored_payload()["digests"]) == [short, SMALL_WINDOW]

    # A run asking for more than the trace holds consumes the trace.
    trace = tracecache.get_trace(build_workload("astar"), SMALL_WINDOW)
    core = SuperscalarCore(
        build_workload("astar"), SimConfig(max_instructions=SMALL_WINDOW)
    )
    stats = PythonBackend().run(core, trace, SMALL_WINDOW + 10)
    assert stats.instructions == SMALL_WINDOW
    assert calls["finalize"] == 1
    assert stats.arch_digest == live


def test_a_source_edit_recomputes_the_digest(monkeypatch):
    """The stored digest lives in the column file, so it is keyed on the
    package's source fingerprint as well: after an edit it is rehashed,
    not served."""
    live = _live_digest()[0]
    simulate(build_workload("astar"), SimConfig(max_instructions=SMALL_WINDOW))
    tracecache.reset_memory_cache()
    monkeypatch.setattr(columns, "source_fingerprint", lambda: "f" * 64)
    calls = _digest_calls(monkeypatch)
    stats = simulate(
        build_workload("astar"), SimConfig(max_instructions=SMALL_WINDOW)
    )
    assert stats.arch_digest == live
    assert calls == Counter(observe_columns=1, finalize=1)
    assert tracecache.STATS["column_recoveries"] == 1


def test_a_run_checks_it_consumed_one_bit_per_branch(monkeypatch):
    """A run whose stages draw a bit the branches did not account for
    fails loudly instead of reporting shifted predictions."""
    simulate(build_workload("astar"), SimConfig(max_instructions=SMALL_WINDOW))
    original = FetchStage.predict_branch
    extra = []

    def predict_branch(self, dyn, *args):
        if not extra:
            extra.append(self.predictor.predict(dyn.pc))
        return original(self, dyn, *args)

    monkeypatch.setattr(FetchStage, "predict_branch", predict_branch)
    with pytest.raises(RuntimeError, match="direction column served"):
        simulate(build_workload("astar"), SimConfig(
            max_instructions=SMALL_WINDOW // 2,
            pfm=parse_config_label(PFM_CONFIG),
        ))


class _CountingGshare(GSharePredictor):
    def __init__(self) -> None:
        super().__init__()
        self.predictions = 0

    def predict(self, pc: int) -> bool:
        self.predictions += 1
        return super().predict(pc)


def test_a_predictor_swapped_in_runs_live(monkeypatch):
    """Swapping the predictor after construction skips the column: the
    swapped-in instance predicts every branch, with the same result as
    a core configured with that predictor.  With no column the replay
    digest is hashed from the trace rows, never observed, and stored
    nowhere."""
    config = SimConfig(max_instructions=SMALL_WINDOW)
    core = SuperscalarCore(build_workload("astar"), config)
    swapped = _CountingGshare()
    core.predictor = core.fetch_stage.predictor = swapped
    core.retire_stage.predictor = swapped
    calls = _digest_calls(monkeypatch)
    stats = core.run()
    assert calls == Counter(observe_columns=1, finalize=1)
    assert not list(trace_dir().glob("*.pred"))
    assert swapped.predictions == stats.conditional_branches > 0
    assert stats.backend == "python"
    configured = simulate(build_workload("astar"), dataclasses.replace(
        config, core=CoreParams(predictor="gshare", backend="python")
    ))
    assert stats_to_dict(stats) == stats_to_dict(configured)


def test_swapping_only_the_core_alias_still_runs_live(monkeypatch):
    predicts = Counter()
    original = TageSCL.predict

    def counted(self, pc):
        predicts["tage"] += 1
        return original(self, pc)

    simulate(build_workload("astar"), SimConfig(max_instructions=SMALL_WINDOW))
    monkeypatch.setattr(TageSCL, "predict", counted)
    core = SuperscalarCore(
        build_workload("astar"), SimConfig(max_instructions=SMALL_WINDOW)
    )
    core.predictor = GSharePredictor()
    stats = core.run()
    assert predicts["tage"] == stats.conditional_branches
    assert stats.backend == "python"
    assert stats.backend_fallbacks == (1 if have_numpy() else 0)


# --------------------------------------------------------------------- #
# damaged column files
# --------------------------------------------------------------------- #


def _column_fixture():
    """(trace, column path, file bytes, bits) after one cold run, which
    stored its replay digest in the file."""
    simulate(build_workload("astar"), SimConfig(max_instructions=SMALL_WINDOW))
    trace = tracecache.get_trace(build_workload("astar"), SMALL_WINDOW)
    (path,) = trace_dir().glob("*.pred")
    assert list(_payload(path.read_bytes())["digests"]) == [SMALL_WINDOW]
    return trace, path, path.read_bytes(), columns.directions(trace, PREDICTOR)


def _signed(body: bytes) -> bytes:
    return hashlib.sha256(body).digest() + body


def _payload(raw: bytes) -> dict:
    return pickle.loads(raw[32:])


_DROP = object()


def _resigned(raw: bytes, **fields) -> bytes:
    """A checksum-valid file with the stored header, bits or digests
    replaced (or, given ``_DROP``, removed)."""
    payload = _payload(raw)
    for name, value in fields.items():
        if value is _DROP:
            del payload[name]
        else:
            payload[name] = value
    return _signed(pickle.dumps(payload, protocol=4))


def _bad_digests(header: dict, good: str) -> list:
    """Malformed digest maps: non-int keys, windows outside the column,
    non-hex or short values, and values that are not a dict."""
    length = header["length"]
    return [
        {str(length): good}, {float(length): good}, {True: good},
        {None: good}, {(length,): good}, {-1: good}, {length + 1: good},
        {length: good.upper()}, {length: good[:-1] + "g"},
        {length: good[:63]}, {length: ""}, {length: good + "0"},
        {length: good.encode()}, {length: int(good, 16)}, {length: None},
        [(length, good)], None, good, 0, _DROP,
    ]


def _mutations(raw: bytes):
    """Strategy of (file bytes, expected rejection reason or None)."""
    header, bits = _payload(raw)["header"], _payload(raw)["bits"]
    raw_writes = st.tuples(
        st.lists(
            st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255)),
            min_size=1, max_size=4,
        ),
        st.none() | st.integers(0, len(raw) - 1),
    ).map(lambda wc: _written(raw, *wc))
    stale = st.sampled_from(["key", "predictor", "fingerprint"]).map(
        lambda field: (_resigned(raw, header={
            **header, field: _other(header[field]),
        }), "stale")
    )
    version = st.just(
        (_resigned(raw, header={**header, "version": header["version"] + 1}),
         "header")
    )
    garbage = st.binary(max_size=16).map(lambda b: (_signed(b), "header"))
    malformed = st.sampled_from([
        {"header": header},
        {"bits": bits},
        {"header": header, "bits": list(bits)},
        {"header": {**header, "length": -1}, "bits": bits},
        {"header": {**header, "length": "1500"}, "bits": bits},
        [header, bits],
    ]).map(lambda p: (_signed(pickle.dumps(p, protocol=4)), "header"))
    count = st.integers(-len(bits), 8).filter(lambda d: d != 0).map(
        lambda d: (_resigned(raw, bits=bits[:d] if d < 0 else bits + b"\x01" * d),
                   "count")
    )
    not_a_bit = st.tuples(
        st.integers(0, len(bits) - 1), st.integers(2, 255)
    ).map(lambda pv: (_resigned(raw, bits=_put(bits, *pv)), "bits"))
    (good,) = _payload(raw)["digests"].values()
    hex_digit = set("0123456789abcdef")
    bad_digests = st.one_of(
        st.sampled_from(_bad_digests(header, good)),
        st.text(max_size=70).filter(
            lambda t: len(t) != 64 or not set(t) <= hex_digit
        ).map(lambda t: {header["length"]: t}),
        st.one_of(
            st.text(max_size=4), st.floats(), st.booleans(),
            st.integers(max_value=-1),
            st.integers(min_value=header["length"] + 1),
        ).map(lambda key: {key: good}),
    ).map(lambda d: (_resigned(raw, digests=d), "digests"))
    return st.one_of(
        raw_writes, stale, version, garbage, malformed, count, not_a_bit,
        bad_digests,
    )


def _written(raw: bytes, writes, cut) -> tuple[bytes, str | None]:
    mutated = bytearray(raw)
    for pos, byte in writes:
        mutated[pos] = byte
    if cut is not None:
        del mutated[cut:]
    mutated = bytes(mutated)
    return mutated, None if mutated == raw else "checksum"


def _put(data: bytes, pos: int, value: int) -> bytes:
    return data[:pos] + bytes([value]) + data[pos + 1:]


def _other(value):
    if isinstance(value, int):
        return value + 1
    return value + "x"


def test_mutated_column_file_is_rejected_and_rebuilt(monkeypatch):
    """Truncation, bit flips, a wrong bit count, bytes other than 0/1, a
    stale fingerprint (or key, predictor), an unreadable header and a
    malformed digest map are each rejected with their named reason; the
    run rebuilds the exact column, rehashes the digest instead of
    serving it, and heals the file."""
    live, regs, memory = _live_digest()
    trace, path, raw, bits = _column_fixture()
    header = columns.column_header(trace.key, PREDICTOR)
    assert len(bits) == trace.branch_count()
    assert _payload(raw)["header"]["length"] == trace.length
    assert _payload(raw)["digests"] == {SMALL_WINDOW: live}
    calls = _digest_calls(monkeypatch)

    @settings(max_examples=200, deadline=None)
    @given(case=_mutations(raw))
    def check(case):
        mutated, reason = case
        if reason is None:
            assert columns.decode_column(mutated, header, trace) == (
                trace.length, bits, {SMALL_WINDOW: live}
            )
        else:
            with pytest.raises(CacheFileRejected) as excinfo:
                columns.decode_column(mutated, header, trace)
            assert excinfo.value.reason == reason

        path.write_bytes(mutated)
        trace._directions.clear()
        recoveries = tracecache.STATS["column_recoveries"]
        finalizes = calls["finalize"]
        assert columns.directions(trace, PREDICTOR) == bits
        assert tracecache.STATS["column_recoveries"] == recoveries + (
            reason is not None
        )
        assert columns.replay_digest(
            trace, PREDICTOR, SMALL_WINDOW, regs, memory
        ) == live
        assert calls["finalize"] == finalizes + (reason is not None)
        assert path.read_bytes() == raw

    check()


@pytest.mark.parametrize("damage", [
    "checksum", "stale", "count", "bits",
    "digests-key", "digests-hex", "digests-short", "digests-type",
])
def test_a_run_over_a_damaged_column_matches_the_live_predictor(
    damage, monkeypatch
):
    """A damaged column never reaches a run: the stats (the digest among
    them) equal the live predictor's and the column is rebuilt once."""
    pfm = parse_config_label(PFM_CONFIG)
    config = SimConfig(max_instructions=SMALL_WINDOW, pfm=pfm)
    monkeypatch.setattr(tracecache, "ENABLED", False)
    live = stats_to_dict(simulate(build_workload("astar"), config))
    monkeypatch.setattr(tracecache, "ENABLED", True)

    trace, path, raw, _ = _column_fixture()
    payload = _payload(raw)
    header, bits = payload["header"], payload["bits"]
    (good,) = payload["digests"].values()
    mutated = {
        "checksum": raw[:-1],
        "stale": _resigned(raw, header={**header, "fingerprint": "0" * 64}),
        "count": _resigned(raw, bits=bits[:-1]),
        "bits": _resigned(raw, bits=_put(bits, 0, 2)),
        "digests-key": _resigned(raw, digests={str(SMALL_WINDOW): good}),
        "digests-hex": _resigned(raw, digests={SMALL_WINDOW: good.upper()}),
        "digests-short": _resigned(raw, digests={SMALL_WINDOW: good[:-1]}),
        "digests-type": _resigned(raw, digests=[(SMALL_WINDOW, good)]),
    }[damage]
    with pytest.raises(CacheFileRejected) as excinfo:
        columns.decode_column(mutated, columns.column_header(
            trace.key, PREDICTOR
        ), trace)
    assert excinfo.value.reason == damage.partition("-")[0]
    path.write_bytes(mutated)
    tracecache.reset_memory_cache()
    assert stats_to_dict(simulate(build_workload("astar"), config)) == live
    assert tracecache.STATS["column_recoveries"] == 1
    assert tracecache.STATS["column_builds"] == 1
    assert path.read_bytes() == raw


def test_a_source_edit_rebuilds_the_column(monkeypatch):
    """The column is keyed on the package's source fingerprint: once the
    sources change, the stored column is stale and rebuilt."""
    trace, path, raw, bits = _column_fixture()
    monkeypatch.setattr(columns, "source_fingerprint", lambda: "f" * 64)
    trace._directions.clear()
    assert columns.directions(trace, PREDICTOR) == bits
    assert tracecache.STATS["column_recoveries"] == 1
    assert tracecache.STATS["column_builds"] == 2
    assert path.read_bytes() != raw


# --------------------------------------------------------------------- #
# how much a column covers, and which predictors are stored
# --------------------------------------------------------------------- #


def _stored_payload() -> dict:
    (path,) = trace_dir().glob("*.pred")
    return _payload(path.read_bytes())


def _stored_length() -> int:
    return _stored_payload()["header"]["length"]


def test_a_run_builds_the_column_over_its_own_window(monkeypatch):
    """A cold run pays one predictor pass over its own window, not the
    whole trace; a longer run rebuilds the file over its longer window
    as a plain miss, and shorter runs then read that file."""
    short = SMALL_WINDOW // 3
    tracecache.get_trace(build_workload("astar"), SMALL_WINDOW)

    def run(window: int) -> dict:
        return stats_to_dict(simulate(
            build_workload("astar"),
            SimConfig(max_instructions=window, core=CoreParams(backend="python")),
        ))

    replay = run(short)
    assert _stored_length() == short
    run(SMALL_WINDOW)
    assert _stored_length() == SMALL_WINDOW
    assert tracecache.STATS["column_builds"] == 2
    assert tracecache.STATS["column_recoveries"] == 0

    tracecache.reset_memory_cache()
    assert run(short) == replay
    assert tracecache.STATS["column_disk_hits"] == 1
    assert tracecache.STATS["column_builds"] == 0
    monkeypatch.setattr(tracecache, "ENABLED", False)
    assert run(short) == replay


def test_a_column_over_a_longer_trace_serves_its_prefix():
    """A column built over a longer trace of the same key is cut to a
    shorter trace: the predictor's bits are prefix-stable."""
    trace, path, raw, bits = _column_fixture()
    shorter = tracecache.CompiledTrace.compile(
        build_workload("astar"), SMALL_WINDOW // 2,
        key=trace.key, name=trace.name,
    )
    tracecache.reset_memory_cache()
    prefix = columns.directions(shorter, PREDICTOR)
    assert prefix == bits[:shorter.branch_count()]
    assert prefix == columns.build_directions(
        shorter, PREDICTOR, shorter.length
    )
    assert tracecache.STATS["column_disk_hits"] == 1
    assert tracecache.STATS["column_builds"] == 0
    assert path.read_bytes() == raw


class _OutsidePredictor(GSharePredictor):
    """A predictor registered from outside the package."""

    predictions = 0

    def predict(self, pc: int) -> bool:
        type(self).predictions += 1
        return super().predict(pc)


def test_a_predictor_defined_outside_the_package_runs_live(monkeypatch):
    """The column's source fingerprint covers only the package, so a
    predictor registered elsewhere is never stored: every run calls it
    for every branch, on both engines, and leaves no column file."""
    PREDICTORS.names()  # autoload the package's predictors first
    monkeypatch.setitem(PREDICTORS._entries, "outside", _OutsidePredictor)
    assert not columns.stores_directions("outside")
    assert columns.stores_directions(PREDICTOR)

    def run(predictor: str, backend: str = "python"):
        _OutsidePredictor.predictions = 0
        config = SimConfig(
            max_instructions=SMALL_WINDOW,
            core=CoreParams(predictor=predictor, backend=backend),
        )
        return simulate(build_workload("astar"), config)

    expected = stats_to_dict(run("gshare"))
    for _ in range(2):  # cold trace, then warm
        stats = run("outside")
        assert _OutsidePredictor.predictions == stats.conditional_branches
        assert stats_to_dict(stats) == expected
    if have_numpy():
        stats = run("outside", "numpy")
        assert stats.backend == "numpy"
        assert _OutsidePredictor.predictions > 0
        assert stats_to_dict(stats) == expected
    assert not list(trace_dir().glob("*.outside.pred"))


# --------------------------------------------------------------------- #
# cache maintenance
# --------------------------------------------------------------------- #


def test_cache_gc_to_a_zero_budget_leaves_no_file(capsys):
    """The CI step: a sweep leaves traces, direction columns, recipes
    and store entries; ``cache gc --max-bytes 0`` removes every file."""
    from repro.experiments.__main__ import main

    cache = Path(os.environ["REPRO_CACHE_DIR"])
    assert main(["fig8", "--window", "1500", "--jobs", "1"]) == 0
    assert list((cache / "traces").glob("*.pred"))
    assert main(["cache", "list"]) == 0
    assert "direction columns:" in capsys.readouterr().out

    assert main(["cache", "gc", "--max-bytes", "0"]) == 0
    assert [p for p in cache.rglob("*") if p.is_file()] == []


def test_cache_clear_removes_columns(capsys):
    from repro.experiments.__main__ import main

    simulate(build_workload("astar"), SimConfig(max_instructions=SMALL_WINDOW))
    assert len(list(trace_dir().glob("*.pred"))) == 1
    assert main(["cache", "clear"]) == 0
    assert "1 direction column(s)" in capsys.readouterr().out
    assert list(trace_dir().glob("*.pred")) == []


def test_cache_list_shows_the_stored_digest_windows(capsys):
    """Each direction-column line names the windows whose replay digest
    the file stores."""
    from repro.experiments.__main__ import main

    for window in (SMALL_WINDOW, SMALL_WINDOW // 2):
        simulate(build_workload("astar"), SimConfig(max_instructions=window))
    assert sorted(_stored_payload()["digests"]) == [
        SMALL_WINDOW // 2, SMALL_WINDOW
    ]
    assert main(["cache", "list"]) == 0
    out = capsys.readouterr().out
    assert f"digests at {SMALL_WINDOW // 2}, {SMALL_WINDOW})" in out
