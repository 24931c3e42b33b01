"""Parallel sweep execution engine.

Every figure and table is a sweep: a list of independent
``(workload, window, configuration)`` points, each evaluated by one call
to :func:`~repro.core.simulate`.  This module makes that structure
explicit — sweeps declare their grids as :class:`SweepPoint` lists and a
:class:`SweepPool` evaluates them, serially or fanned out over a
:class:`~concurrent.futures.ProcessPoolExecutor`.

Three properties the harness guarantees:

* **Determinism** — a point's result depends only on the point (workload
  builders are seeded, the cycle model has no hidden global state), so
  results are bit-identical regardless of worker count or scheduling
  order.  ``tests/test_determinism.py`` and the golden snapshots under
  ``tests/goldens/`` enforce this.
* **Result reuse** — every completed point (baseline, PFM, oracle,
  telemetry alike) is published to a content-addressed
  :class:`~repro.store.ResultStore` and every requested point is looked
  up there first.  The store is the one result cache: memory-only for
  library pools, on disk under the cache directory for the CLI (default
  ``.repro-cache/store/``), so concurrent workers, later invocations,
  and merged stores from other hosts never rerun a point anyone has
  already paid for.
* **Resume** — a store entry is fsynced and published the moment its
  point finishes, so an interrupted sweep resumes by simply running it
  again: finished points are store hits, only the remainder computes.
* **Crash containment** — a point that raises, or a worker process that
  dies (OOM-killed, segfaulted), is retried up to ``RETRIES`` times with
  ``RETRY_BACKOFF``-second exponential backoff, in a fresh executor when
  the pool itself broke.  Points that still fail are appended to the
  ``checkpoint`` file (an fsynced JSONL log of
  ``{"key": ..., "failed": true, "error": ...}`` records) which is
  *kept* for inspection, and :class:`SweepFailure` summarizes what was
  lost; a fully successful run removes the file.  ``fail_fast=True``
  (CLI ``--fail-fast``) restores the old raise-on-first-error behavior.
  ``KeyboardInterrupt`` always propagates immediately.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.cachefile import CACHE_DIR_ENV
from repro.core import PFMParams, SimConfig, SimStats, simulate
from repro.store import ResultStore, store_dir
from repro.telemetry import TelemetryParams
from repro.workloads.identity import canonical_bytes, trace_key_for

#: Retry rounds a failed point gets before it is logged as lost, and the
#: base of the exponential backoff between rounds, in seconds.
RETRIES = 2
RETRY_BACKOFF = 0.5

#: Named oracle factories, so oracle-driven points stay declarative and
#: picklable (the factory runs inside the worker, next to the workload).
ORACLES = {
    "astar-slipstream": "repro.slipstream:make_astar_slipstream",
    "bfs-slipstream": "repro.slipstream:make_bfs_slipstream",
}


def _resolve_oracle(name: str):
    try:
        module_name, _, attr = ORACLES[name].partition(":")
    except KeyError:
        raise ValueError(f"unknown oracle {name!r}; known: {sorted(ORACLES)}")
    import importlib

    return getattr(importlib.import_module(module_name), attr)


@dataclass
class SweepPoint:
    """One independent simulation of a sweep grid.

    ``label`` names the row in the rendered result; everything else
    describes the run itself.  Points must be picklable: ``overrides``
    are forwarded to the workload builder in the worker process, and
    ``oracle`` names a factory from :data:`ORACLES` (called with the
    built workload plus ``oracle_kwargs``) rather than holding a live
    oracle object.
    """

    label: str
    workload: str
    window: int
    pfm: PFMParams | None = None
    perfect_branch_prediction: bool = False
    perfect_dcache: bool = False
    oracle: str | None = None
    oracle_kwargs: dict = field(default_factory=dict)
    overrides: dict = field(default_factory=dict)
    telemetry: TelemetryParams | None = None

    @property
    def is_baseline(self) -> bool:
        """True for plain-core runs (the cheap ones, dispatched last)."""
        return (
            self.pfm is None
            and not self.perfect_branch_prediction
            and not self.perfect_dcache
            and self.oracle is None
            and self.telemetry is None
        )

    def _config_spec(self) -> dict:
        spec = {
            "workload": self.workload,
            "window": self.window,
            "pfm": dataclasses.asdict(self.pfm) if self.pfm else None,
            "perfect_bp": self.perfect_branch_prediction,
            "perfect_dcache": self.perfect_dcache,
            "oracle": self.oracle,
            "oracle_kwargs": self.oracle_kwargs,
            "overrides": self.overrides,
        }
        if self.telemetry is not None:
            # Added only when set so pre-existing cache keys still match.
            spec["telemetry"] = dataclasses.asdict(self.telemetry)
        return spec

    def config_key(self) -> str:
        """Content hash of the run configuration (label excluded)."""
        digest = hashlib.sha256(canonical_bytes(self._config_spec()))
        return digest.hexdigest()[:16]

    def key(self) -> str:
        """Stable in-process identity: dedup, shards, memory-only stores."""
        return f"{self.workload}-w{self.window}-{self.config_key()}"

    def store_key(self) -> str:
        """Full content address for the shared result store.

        Extends the :meth:`config_key` spec with the workload's
        ``trace_key`` — the content hash of its compiled instruction
        stream — so editing a workload builder silently invalidates
        every dependent store entry, on every host.  The execution
        backend is deliberately *not* part of the key: results are
        byte-identical across backends by construction
        (``tests/test_backend_equivalence.py`` pins that contract).
        The trace cache's recipe index serves the ``trace_key`` without
        building the workload once its traces directory is warm.
        """
        spec = self._config_spec()
        spec["trace_key"] = trace_key_for(self.workload, self.overrides)
        return hashlib.sha256(canonical_bytes(spec)).hexdigest()


class SweepFailure(RuntimeError):
    """One or more sweep points failed after exhausting their retries.

    ``errors`` maps point labels to the final error message; successful
    points were published to the store before this was raised, so
    re-running the sweep serves them from it and recomputes only the
    failures.
    """

    def __init__(self, errors: dict[str, str]):
        self.errors = dict(errors)
        summary = "; ".join(
            f"{label}: {message}" for label, message in sorted(errors.items())
        )
        super().__init__(
            f"{len(errors)} sweep point(s) failed after retries: {summary}"
        )


def stats_to_dict(stats: SimStats) -> dict:
    return dataclasses.asdict(stats)


def run_point(point: SweepPoint) -> SimStats:
    """Evaluate one point (this is the function worker processes run)."""
    from repro.registry import build_workload

    workload = build_workload(point.workload, **point.overrides)
    oracle = None
    if point.oracle is not None:
        oracle = _resolve_oracle(point.oracle)(workload, **point.oracle_kwargs)
    config = SimConfig(
        max_instructions=point.window,
        pfm=point.pfm,
        perfect_branch_prediction=point.perfect_branch_prediction,
        perfect_dcache=point.perfect_dcache,
        oracle=oracle,
        telemetry=point.telemetry,
    )
    return simulate(workload, config)


def baseline_point(workload: str, window: int, label: str | None = None,
                   **overrides) -> SweepPoint:
    """Plain-core point, labelled ``baseline:<workload>`` by default."""
    return SweepPoint(
        label=label or f"baseline:{workload}",
        workload=workload,
        window=window,
        overrides=overrides,
    )


def pfm_point(label: str, workload: str, window: int, pfm: PFMParams,
              **overrides) -> SweepPoint:
    """PFM-enabled point."""
    return SweepPoint(
        label=label,
        workload=workload,
        window=window,
        pfm=pfm,
        overrides=overrides,
    )


class SweepPool:
    """Evaluates sweep points, serially or across worker processes.

    ``jobs=1`` runs in-process (no executor, no pickling) — the
    reference execution mode the determinism tests compare against.
    ``jobs>1`` fans points out over a process pool; results are
    collected as they complete but always keyed by label, so callers
    see an order-independent mapping.

    Results live in one :class:`~repro.store.ResultStore`.
    ``cache_dir=None`` keeps it memory-only (the default for library
    use, e.g. under pytest); pass a directory (the CLI passes
    ``.repro-cache``) to store *every* completed point under
    ``<cache_dir>/store/`` across processes, invocations, and hosts.
    Pass ``store`` explicitly (a :class:`ResultStore` or a directory) to
    share one store between pools or point several shard runs at
    separate stores.  ``checkpoint`` names the JSONL log that failed
    points are recorded in.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: str | os.PathLike | None = None,
        checkpoint: str | os.PathLike | None = None,
        fail_fast: bool = False,
        store: ResultStore | str | os.PathLike | None = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.checkpoint = Path(checkpoint) if checkpoint is not None else None
        self.fail_fast = fail_fast
        if store is None and self.cache_dir is not None:
            store = store_dir(self.cache_dir)
        if not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store: ResultStore = store
        #: Accounting for the most recent run(): distinct points computed
        #: vs served from the result store vs failed.
        self.last_run_info: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # result store
    # ------------------------------------------------------------------ #

    def _store_key(self, point: SweepPoint) -> str:
        """Store address for *point*.

        A memory-only store uses ``point.key()``: its entries die with
        the process, so the workload ``trace_key`` that ``store_key``
        folds in buys nothing.  The trace key itself is memoized per
        process (``identity._KEY_MEMO``), so recomputing the address
        costs one spec hash.
        """
        if self.store.directory is None:
            return point.key()
        return point.store_key()

    def _publish(self, point: SweepPoint, stats: SimStats) -> None:
        self.store.put(
            self._store_key(point),
            stats,
            meta={
                "workload": point.workload,
                "window": point.window,
                "point_key": point.key(),
            },
        )

    # ------------------------------------------------------------------ #
    # failed-points log
    # ------------------------------------------------------------------ #

    def _append_failure(self, point: SweepPoint, error: str) -> None:
        """Crash-safe append: flush makes the line visible to concurrent
        readers, fsync makes it survive the machine dying."""
        if self.checkpoint is None:
            return
        self.checkpoint.parent.mkdir(parents=True, exist_ok=True)
        record = {"key": point.key(), "failed": True, "error": error}
        with self.checkpoint.open("a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def _clear_checkpoint(self) -> None:
        if self.checkpoint is not None and self.checkpoint.exists():
            self.checkpoint.unlink()

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def run(self, points: list[SweepPoint]) -> dict[str, SimStats]:
        """Evaluate *points*, returning ``{label: SimStats}``.

        Labels must be unique.  Points with identical configurations are
        computed once and fanned back out to every label that asked.
        """
        labels = [point.label for point in points]
        if len(set(labels)) != len(labels):
            duplicates = sorted({l for l in labels if labels.count(l) > 1})
            raise ValueError(f"duplicate sweep point labels: {duplicates}")

        finished: dict[str, SimStats] = {}
        pending: dict[str, SweepPoint] = {}  # key -> representative point
        waiting: dict[str, list[SweepPoint]] = {}  # key -> all points
        for point in points:
            key = point.key()
            if key in waiting:
                waiting[key].append(point)
                continue
            waiting[key] = [point]
            # Published by this pool, an earlier or interrupted run,
            # another worker, or a merged shard from another host.
            stats = self.store.get(self._store_key(point))
            if stats is not None:
                finished[key] = stats
            else:
                pending[key] = point
        store_hits = len(finished)

        def record(point: SweepPoint, stats: SimStats) -> None:
            self._publish(point, stats)
            finished[point.key()] = stats

        todo = list(pending.values())
        # PFM/oracle runs cost more than plain baselines; dispatching them
        # first tightens the makespan (results are order-independent).
        todo.sort(key=lambda point: point.is_baseline)
        failures = self._execute(todo, record)

        self.last_run_info = {
            "computed": len(todo), "store_hits": store_hits,
            "failed": len(failures),
        }
        if failures:
            # Successes are already in the store; the kept checkpoint
            # lists what failed, and a re-run recomputes only that.
            raise SweepFailure(failures)

        self._clear_checkpoint()
        return {
            point.label: finished[key]
            for key, siblings in waiting.items()
            for point in siblings
        }

    def _execute(self, todo: list[SweepPoint], record) -> dict[str, str]:
        """Run every point in *todo*, retrying crashes; map label->error.

        Each round runs all still-pending points; a point that raises —
        including :class:`BrokenProcessPool` when a worker process died
        under it — is retried in the next round (under a fresh executor)
        until it exhausts ``RETRIES``, with exponential backoff
        between rounds.  ``fail_fast`` re-raises the first error
        unretried; ``KeyboardInterrupt`` always propagates.
        """
        remaining = list(todo)
        attempts: dict[str, int] = {}
        failures: dict[str, str] = {}
        round_index = 0
        while remaining:
            if round_index:
                time.sleep(RETRY_BACKOFF * (2 ** (round_index - 1)))
            retry: list[SweepPoint] = []

            def on_error(point: SweepPoint, exc: Exception) -> None:
                if self.fail_fast:
                    raise exc
                count = attempts.get(point.key(), 0) + 1
                attempts[point.key()] = count
                if count > RETRIES:
                    message = f"{type(exc).__name__}: {exc}"
                    failures[point.label] = message
                    self._append_failure(point, message)
                else:
                    retry.append(point)

            # Retry rounds with jobs>1 stay in a (fresh) executor even for
            # a single point: if its worker segfaulted, re-running it
            # in-process would take the whole sweep down with it.
            if self.jobs == 1 or (round_index == 0 and len(remaining) <= 1):
                for point in remaining:
                    try:
                        record(point, run_point(point))
                    except KeyboardInterrupt:
                        raise
                    except Exception as exc:
                        on_error(point, exc)
            else:
                workers = min(self.jobs, len(remaining))
                with ProcessPoolExecutor(max_workers=workers) as executor:
                    futures = {
                        executor.submit(run_point, point): point
                        for point in remaining
                    }
                    for future in as_completed(futures):
                        point = futures[future]
                        try:
                            record(point, future.result())
                        except KeyboardInterrupt:
                            raise
                        except Exception as exc:
                            # A BrokenProcessPool lands here for every
                            # in-flight future; each affected point gets
                            # its retry in the next round's new executor.
                            on_error(point, exc)
            remaining = retry
            round_index += 1
        return failures


def speedups(points: list[SweepPoint], stats: dict[str, SimStats]
             ) -> Iterator[tuple[str, str, float]]:
    """The one speedup rule: ``(label, baseline label, % IPC
    improvement)`` for every non-baseline point of *points*, in order,
    over the nearest ``baseline:`` point before it."""
    base = ""
    for point in points:
        if point.label.startswith("baseline:"):
            base = point.label
        else:
            yield (point.label, base,
                   100.0 * stats[point.label].speedup_over(stats[base]))


def speedup_rows(result, points: list[SweepPoint],
                 stats: dict[str, SimStats]) -> None:
    """Append one :func:`speedups` row per non-baseline point."""
    for label, _, value in speedups(points, stats):
        result.add(label, value)


def add_speedup_rows(result, pool: SweepPool, points: list[SweepPoint],
                     stats: dict[str, SimStats], baseline_label: str) -> None:
    """:func:`speedup_rows` in its positional call form: the pool and
    the baseline label add nothing, since every point's baseline is the
    nearest one before it in *points*."""
    speedup_rows(result, points, stats)


def default_pool() -> SweepPool:
    """Serial pool used when a sweep runs without the CLI: memory-only
    unless ``$REPRO_CACHE_DIR`` names a cache directory."""
    cache_dir = os.environ.get(CACHE_DIR_ENV) or None
    return SweepPool(jobs=1, cache_dir=cache_dir)
