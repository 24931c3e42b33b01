"""The benchmark's workloads: set-up, timed ops and output checks.

Every workload is a Figure run or grid of the paper, built from the
``--seed`` argument (forwarded as the workload builder's ``seed=``
override; no seed means the builder's own default):

* ``astar-pfm`` — Figure 8 ``delay0``: the custom astar branch predictor
  on the python engine (fetch-side PFM).
* ``libquantum-prefetch`` — Figure 17 libquantum ``clk4_w1``: the custom
  prefetcher through the Load Agent (load-side PFM).
* ``fig8-sweep`` — the 9-point Figure 8 grid through ``SweepPool`` with a
  disk result store and a checkpoint, as ``python -m repro.experiments
  fig8`` runs it (``jobs=1``): a cold store, then a warm re-render.

Ops are checked as they run (backend and fallback provenance, store
hits, byte-equal stats between repeats) and again at the end, when each
op's ``arch_digest`` is compared with a functional-execution reference
and, where one is recorded, with ``expected_digests.json``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import time
from pathlib import Path

from repro import registry
from repro.backends import resolve_backend
from repro.core import CoreParams, PFMParams, SimConfig, SimStats, simulate
from repro.core.archstate import ArchDigest
from repro.experiments import pool as pool_module
from repro.experiments.astar_sweeps import BASE, fig8_points
from repro.experiments.pool import SweepPoint, SweepPool, stats_to_dict
from repro.experiments.report import ExperimentResult
from repro.store import reset_trace_key_memo
from repro.workloads import tracecache

#: Dynamic instructions per single-run op.
SINGLE_WINDOW = 20_000
#: Dynamic instructions per Figure 8 grid point.
SWEEP_WINDOW = 2_500

EXPECTED_DIGESTS = Path(__file__).with_name("expected_digests.json")


def fingerprint(stats: SimStats) -> str:
    """The bytes two runs of one op must agree on: every stats field and
    the derived ``to_dict`` view, as canonical JSON."""
    return json.dumps(
        {"fields": stats_to_dict(stats), "derived": stats.to_dict()},
        sort_keys=True, default=str,
    )


def reference_digest(workload: str, overrides: dict, window: int) -> str:
    """``arch_digest`` of *window* instructions under plain functional
    execution: no timing model, no trace cache."""
    built = registry.build_workload(workload, **overrides)
    executor = built.executor()
    digest = ArchDigest()
    for dyn in executor.run(window):
        digest.observe(dyn)
    return digest.finalize(executor.regs, executor.memory)


def drop_memos() -> None:
    """Forget in-process caches, as a fresh CLI invocation starts."""
    tracecache.reset_memory_cache()
    reset_trace_key_memo()


@dataclasses.dataclass
class Op:
    """One attempted op: what it did and whether it passed its checks."""

    kind: str
    wall_s: float
    instructions: int = 0
    #: wall time -> reference-host seconds (set by the driver)
    scale: float = 1.0
    digests: tuple[str, ...] = ()
    #: point label -> "backend/fallbacks" of every point the op computed
    backends: dict[str, str] = dataclasses.field(default_factory=dict)
    errors: list[str] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


class Case:
    """A workload: ``setup``, ``warm_up``, timed ``op``/``warm_op`` calls."""

    name = ""
    workload = ""
    window = 0

    def __init__(self, seed: int | None, scratch: Path):
        self.seed = seed
        self.overrides = {} if seed is None else {"seed": seed}
        self.scratch = scratch
        self.ops: list[Op] = []
        #: fingerprint of the first successful run of each point label
        self._fingerprints: dict[str, str] = {}
        self._auto_backend = resolve_backend(CoreParams().backend).name

    # -- checks -------------------------------------------------------- #

    def _check_repeat(self, op: Op, label: str, stats: SimStats) -> None:
        """A point must give byte-equal stats every time it is produced."""
        fp = fingerprint(stats)
        first = self._fingerprints.setdefault(label, fp)
        if fp != first:
            op.errors.append(f"{label}: stats differ from the first run")

    def _check_backend(self, op: Op, point: SweepPoint, stats: SimStats) -> None:
        """Fabric runs decline the vectorized engine (one counted
        fallback); plain-core runs must take the auto-resolved engine."""
        if point.pfm is not None:
            want = ("python", 0 if self._auto_backend == "python" else 1)
        else:
            want = (self._auto_backend, 0)
        got = (stats.backend, stats.backend_fallbacks)
        op.backends[point.label] = f"{got[0]}/{got[1]}"
        if got != want:
            op.errors.append(
                f"{point.label}: backend/fallbacks {got}, expected {want}"
            )

    def attempt(self, kind: str, body) -> Op:
        """Run *body(op)* as one op; an exception fails the op, not the run."""
        op = Op(kind, 0.0)
        try:
            body(op)
        except Exception as exc:  # counted in failed, never dropped
            op.errors.append(f"{type(exc).__name__}: {exc}")
        self.ops.append(op)
        return op

    def verify_digests(self) -> None:
        """Compare every op's digests with the functional reference and
        with the recorded digest for this (workload, seed, window)."""
        reference = reference_digest(self.workload, self.overrides, self.window)
        recorded = json.loads(EXPECTED_DIGESTS.read_text())
        key = f"{'default' if self.seed is None else self.seed}/{self.window}"
        expected = recorded.get(self.workload, {}).get(key)
        if expected is not None and expected != reference:
            for op in self.ops:
                op.errors.append(f"reference digest {reference[:12]} is not the"
                                 f" recorded {expected[:12]}")
        for op in self.ops:
            wrong = [d for d in op.digests if d != reference]
            if wrong:
                op.errors.append(f"arch_digest {wrong[0][:12]} differs from the"
                                 f" functional reference {reference[:12]}")

    # -- the interface run.py drives ----------------------------------- #

    def setup(self) -> None:
        """Workload build and trace compile into the empty private cache."""
        built = registry.build_workload(self.workload, **self.overrides)
        compiles = tracecache.STATS["compiles"]
        if tracecache.get_trace(built, self.window) is None:
            raise RuntimeError(f"{self.workload}: no compiled trace")
        if tracecache.STATS["compiles"] != compiles + 1:
            raise RuntimeError(f"set-up found a warm trace cache: {tracecache.STATS}")

    def warm_up(self) -> None:
        """Untimed: one op and one warm op, leaving the store populated."""
        raise NotImplementedError

    def op(self) -> Op:
        raise NotImplementedError

    def warm_op(self) -> Op:
        raise NotImplementedError


class SingleRun(Case):
    """One PFM simulation per op, called as ``repro.sim`` and ``run_point``
    call it: workload build, ``simulate``, digest finalize included."""

    window = SINGLE_WINDOW
    pfm: PFMParams

    def __init__(self, seed: int | None, scratch: Path):
        super().__init__(seed, scratch)
        self.point = SweepPoint(
            label=self.name, workload=self.workload, window=self.window,
            pfm=self.pfm, overrides=dict(self.overrides),
        )
        self.store_dir = scratch / "results"

    def op(self) -> Op:
        def body(op: Op) -> None:
            start = time.perf_counter()
            stats = simulate(
                registry.build_workload(self.workload, **self.overrides),
                SimConfig(max_instructions=self.window, pfm=self.pfm),
            )
            op.wall_s = time.perf_counter() - start
            op.instructions = stats.instructions
            op.digests = (stats.arch_digest,)
            self._check_backend(op, self.point, stats)
            self._check_repeat(op, self.name, stats)
        return self.attempt("op", body)

    def warm_up(self) -> None:
        """One op, then the point computed once through a cold pool (it
        must match the direct op byte for byte) and re-served once."""
        self.op()

        def publish(op: Op) -> None:
            drop_memos()
            pool = self._pool()
            stats = pool.run([self.point])[self.name]
            op.digests = (stats.arch_digest,)
            if pool.last_run_info.get("computed") != 1:
                op.errors.append(f"cold pool did not compute: {pool.last_run_info}")
            self._check_repeat(op, self.name, stats)
        self.attempt("publish", publish)
        self.warm_op()

    def _pool(self) -> SweepPool:
        return SweepPool(jobs=1, cache_dir=self.store_dir,
                         checkpoint=self.store_dir / "checkpoints" / f"{self.name}.jsonl")

    def warm_op(self) -> Op:
        """Re-serve the point from the populated store, memos dropped."""
        def body(op: Op) -> None:
            drop_memos()
            start = time.perf_counter()
            pool = self._pool()
            stats = pool.run([self.point])[self.name]
            op.wall_s = time.perf_counter() - start
            op.digests = (stats.arch_digest,)
            if pool.last_run_info.get("store_hits") != 1:
                op.errors.append(f"warm point not served by the store:"
                                 f" {pool.last_run_info}")
            self._check_repeat(op, self.name, stats)
        return self.attempt("warm", body)


class AstarPFM(SingleRun):
    name = "astar-pfm"
    workload = "astar"
    pfm = PFMParams(delay=0)


class LibquantumPrefetch(SingleRun):
    name = "libquantum-prefetch"
    workload = "libquantum"
    pfm = PFMParams(width=1, delay=0)


class Fig8Sweep(Case):
    """The Figure 8 grid, cold store then warm re-render, ``jobs=1``."""

    name = "fig8-sweep"
    workload = "astar"
    window = SWEEP_WINDOW

    def __init__(self, seed: int | None, scratch: Path):
        super().__init__(seed, scratch)
        self.points = [
            dataclasses.replace(p, overrides={**p.overrides, **self.overrides})
            for p in fig8_points(self.window)
        ]
        self._rounds = 0
        self.store_dir: Path | None = None

    def _render(self) -> tuple[SweepPool, dict[str, SimStats]]:
        """The grid as the experiments CLI runs it: store and checkpoint
        under the cache dir, then the speedup table."""
        assert self.store_dir is not None
        pool = SweepPool(
            jobs=1, cache_dir=self.store_dir,
            checkpoint=self.store_dir / "checkpoints" / f"fig8-w{self.window}.jsonl",
        )
        stats = pool.run(self.points)
        table = ExperimentResult(experiment="Figure 8", title="astar clkC_wW")
        pool_module.add_speedup_rows(table, pool, self.points, stats, BASE)
        return pool, stats

    def op(self) -> Op:
        """Cold grid into a new, empty store."""
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
        self._rounds += 1
        self.store_dir = self.scratch / f"sweep-{self._rounds}"

        def body(op: Op) -> None:
            drop_memos()
            start = time.perf_counter()
            pool, stats = self._render()
            op.wall_s = time.perf_counter() - start
            info = pool.last_run_info
            if info.get("computed") != len(self.points):
                op.errors.append(f"cold grid did not compute every point: {info}")
            op.instructions = sum(stats[p.label].instructions for p in self.points)
            op.digests = tuple(stats[p.label].arch_digest for p in self.points)
            for point in self.points:
                self._check_backend(op, point, stats[point.label])
                self._check_repeat(op, point.label, stats[point.label])
        return self.attempt("op", body)

    def warm_op(self) -> Op:
        """Re-render over the populated store with a fresh pool."""
        def body(op: Op) -> None:
            drop_memos()
            start = time.perf_counter()
            pool, stats = self._render()
            op.wall_s = time.perf_counter() - start
            info = pool.last_run_info
            if info.get("store_hits") != len(self.points):
                op.errors.append(f"warm grid not served by the store: {info}")
            op.digests = tuple(stats[p.label].arch_digest for p in self.points)
            for point in self.points:
                self._check_repeat(op, point.label, stats[point.label])
        return self.attempt("warm", body)

    def warm_up(self) -> None:
        self.op()
        self.warm_op()


CASES = {case.name: case for case in (AstarPFM, LibquantumPrefetch, Fig8Sweep)}
