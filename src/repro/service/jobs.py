"""Job persistence and queueing for the simulation service.

:class:`JobStore` journals every job state transition to an append-only
JSONL file — flush + fsync per record, torn trailing lines skipped on
load — and owns the per-job result files.  A killed
daemon restarts by replaying the journal: the last snapshot of each job
wins, jobs that were ``queued`` or ``running`` are re-enqueued, and
terminal jobs stay queryable.

:class:`JobQueue` is the in-memory bounded priority queue the dispatcher
pops from: higher ``priority`` first, FIFO (admission ``seq``) within a
priority level.  Admission control lives at the queue boundary —
:meth:`JobQueue.admit` raises :class:`AdmissionError` with a concrete
reason instead of letting the daemon buffer unboundedly.
"""

from __future__ import annotations

import heapq
import json
import os
from pathlib import Path

from repro.service.models import (
    RESUMABLE_STATES,
    JobRecord,
)

#: Journal and result files live under ``<cache-dir>/service/jobs/``.
JOURNAL_NAME = "journal.jsonl"


class AdmissionError(RuntimeError):
    """The service refused a request; ``reason`` says exactly why."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


def append_jsonl(path: Path, record: dict) -> None:
    """Crash-safe JSONL append: one fsynced line per record.

    The flush makes the line visible to other processes; the fsync makes
    it survive the machine (not just the process) dying.  A record is
    either fully on disk or it is a torn trailing line the loaders skip.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def read_jsonl(path: Path) -> list[dict]:
    """Every well-formed record in *path*; torn/foreign lines skipped."""
    records: list[dict] = []
    if not path.exists():
        return records
    with path.open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn final line from a killed daemon
            if isinstance(record, dict):
                records.append(record)
    return records


class JobStore:
    """Durable job state under one directory (journal + result files)."""

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)
        self.journal = self.directory / JOURNAL_NAME

    # ------------------------------------------------------------------ #
    # journal
    # ------------------------------------------------------------------ #

    def record(self, job: JobRecord) -> None:
        """Append the current snapshot of *job* to the journal."""
        append_jsonl(self.journal, job.to_wire())

    def load(self) -> dict[str, JobRecord]:
        """Replay the journal; the last well-formed snapshot of each job
        wins, malformed snapshots are skipped (recomputed, never trusted)."""
        jobs: dict[str, JobRecord] = {}
        for record in read_jsonl(self.journal):
            try:
                job = JobRecord.from_wire(record)
            except Exception:
                continue  # half-written or version-skewed snapshot
            jobs[job.id] = job
        return jobs

    def resumable(self) -> list[JobRecord]:
        """Jobs a restarting daemon must re-enqueue, in admission order."""
        jobs = [
            job
            for job in self.load().values()
            if job.state in RESUMABLE_STATES
        ]
        jobs.sort(key=lambda job: job.seq)
        return jobs

    def next_seq(self) -> int:
        """First unused admission sequence number (ids survive restarts)."""
        jobs = self.load()
        return max((job.seq for job in jobs.values()), default=0) + 1

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #

    def result_path(self, job_id: str) -> Path:
        return self.directory / f"{job_id}.result.json"

    def checkpoint_path(self, job_id: str) -> Path:
        """Per-job SweepPool failed-points log."""
        return self.directory / "checkpoints" / f"{job_id}.jsonl"

    def write_result(self, job_id: str, text: str) -> None:
        """Atomically persist the deterministic result payload."""
        path = self.result_path(job_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(text)
        tmp.replace(path)

    def read_result(self, job_id: str) -> bytes | None:
        path = self.result_path(job_id)
        try:
            return path.read_bytes()
        except FileNotFoundError:
            return None

    # ------------------------------------------------------------------ #
    # inspection / maintenance (the ``cache`` CLI)
    # ------------------------------------------------------------------ #

    def size(self) -> tuple[int, int]:
        """(file count, total bytes) of everything under the store."""
        files = 0
        total = 0
        if self.directory.is_dir():
            for entry in self.directory.rglob("*"):
                if entry.is_file():
                    files += 1
                    total += entry.stat().st_size
        return files, total

    def clear(self) -> tuple[int, int]:
        """Delete the journal, results, and checkpoints; return
        (files removed, bytes freed)."""
        removed = 0
        freed = 0
        if not self.directory.is_dir():
            return removed, freed
        for entry in sorted(
            self.directory.rglob("*"), key=lambda p: len(p.parts), reverse=True
        ):
            try:
                if entry.is_file():
                    size = entry.stat().st_size
                    entry.unlink()
                    removed += 1
                    freed += size
                elif entry.is_dir():
                    entry.rmdir()
            except OSError:
                continue
        return removed, freed


class JobQueue:
    """Bounded priority queue: higher priority first, FIFO within."""

    def __init__(self, max_depth: int):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self._heap: list[tuple[int, int, JobRecord]] = []

    def __len__(self) -> int:
        return len(self._heap)

    def admit(self, job: JobRecord) -> None:
        """Enqueue *job* or raise :class:`AdmissionError` (queue full)."""
        if len(self._heap) >= self.max_depth:
            raise AdmissionError(
                f"queue full: depth {len(self._heap)} at the"
                f" max_queue={self.max_depth} limit; retry later"
            )
        heapq.heappush(self._heap, (-job.priority, job.seq, job))

    def requeue(self, job: JobRecord) -> None:
        """Enqueue without the depth bound (journal-resumed jobs were
        already admitted once; a restart must never drop them)."""
        heapq.heappush(self._heap, (-job.priority, job.seq, job))

    def pop(self) -> JobRecord:
        """Highest-priority (then oldest) queued job."""
        return heapq.heappop(self._heap)[2]

    def remove(self, job_id: str) -> JobRecord | None:
        """Remove and return the queued job *job_id* (cancel), or None."""
        for index, (_, _, job) in enumerate(self._heap):
            if job.id == job_id:
                entry = self._heap[index]
                self._heap.remove(entry)
                heapq.heapify(self._heap)
                return job
        return None

    def snapshot(self) -> list[JobRecord]:
        """Queued jobs in dispatch order (does not drain the queue)."""
        return [entry[2] for entry in sorted(self._heap)]
