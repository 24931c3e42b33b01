"""Cycle accounting: counterfactual CPI stacks.

Attributes a run's cycles to bottleneck classes by differencing
idealized runs (the same technique behind Figure 12's motivation bars):

* ``branch``  = cycles recovered ONLY by perfect branch prediction
* ``memory``  = cycles recovered ONLY by a perfect data cache
* ``overlap`` = the doubly-counted part (both bottlenecks stall the same
  cycles).  It can be *negative* — synergy: removing both recovers more
  than the sum of removing each alone, exactly bfs's Figure 12 behaviour
  (11% + 152% vs 426%)
* ``compute`` = cycles with both idealized (issue width, dependences,
  latencies — the irreducible part at this window)

The PFM variant of the stack shows exactly which components of the
baseline's stack a custom component removes — astar's predictor collapses
the branch slice; bfs's engine eats into both slices at once.

The intra-run detail — average cycles an instruction spends between each
pair of pipeline stages, and squash counts by reason — comes from the
:mod:`repro.telemetry` event stream of the measured run rather than any
analysis-private instrumentation, so this module and ``pipeview`` share
exactly one probe path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.core import simulate
from repro.core.params import PFMParams, SimConfig
from repro.core.stats import SimStats
from repro.telemetry.params import TelemetryParams


@dataclass(frozen=True)
class CPIStack:
    """Cycle attribution for one workload/window."""

    instructions: int
    total_cycles: int
    compute_cycles: int
    branch_cycles: int
    memory_cycles: int
    overlap_cycles: int
    #: Mean cycles between consecutive stage pairs, from the measured
    #: run's telemetry stage stream (empty when tracing was disabled).
    stage_gaps: dict[str, float] = field(default_factory=dict)
    #: Pipeline squashes by reason, from the squash event stream.
    squash_counts: dict[str, int] = field(default_factory=dict)

    @property
    def cpi(self) -> float:
        return self.total_cycles / self.instructions

    def component(self, name: str) -> float:
        """Cycles-per-instruction of one stack component."""
        cycles = {
            "compute": self.compute_cycles,
            "branch": self.branch_cycles,
            "memory": self.memory_cycles,
            "overlap": self.overlap_cycles,
        }[name]
        return cycles / self.instructions

    def render(self, label: str = "") -> str:
        header = f"CPI stack{f' ({label})' if label else ''}:"
        total = self.cpi
        lines = [header]
        for name in ("compute", "branch", "memory", "overlap"):
            value = self.component(name)
            share = 100 * value / total if total else 0.0
            bar = "#" * max(0, int(round(share / 2.5))) if share > 0 else ""
            lines.append(f"  {name:<8} {value:6.2f}  {share:5.1f}%  {bar}")
        lines.append(f"  {'total':<8} {total:6.2f}")
        if self.stage_gaps:
            gaps = "  ".join(
                f"{name}={value:.1f}" for name, value in self.stage_gaps.items()
            )
            lines.append(f"  stage gaps (avg cycles): {gaps}")
        if self.squash_counts:
            squashes = "  ".join(
                f"{reason}={count}"
                for reason, count in sorted(self.squash_counts.items())
            )
            lines.append(f"  squashes: {squashes}")
        return "\n".join(lines)


def stage_gap_breakdown(snapshot: dict) -> dict[str, float]:
    """Mean cycles between consecutive stages, from a telemetry snapshot.

    ``front`` fetch→dispatch, ``issue_wait`` dispatch→issue, ``execute``
    issue→complete, ``retire_wait`` complete→retire.
    """
    sums = {"front": 0, "issue_wait": 0, "execute": 0, "retire_wait": 0}
    count = 0
    for event in snapshot.get("events", ()):
        if event["kind"] != "stage":
            continue
        count += 1
        sums["front"] += event["dispatch"] - event["fetch"]
        sums["issue_wait"] += event["issue"] - event["dispatch"]
        sums["execute"] += event["complete"] - event["issue"]
        sums["retire_wait"] += event["retire"] - event["complete"]
    if not count:
        return {}
    return {name: total / count for name, total in sums.items()}


def squash_breakdown(snapshot: dict) -> dict[str, int]:
    """Squash counts by reason, from a telemetry snapshot."""
    counts: dict[str, int] = {}
    for event in snapshot.get("events", ()):
        if event["kind"] == "squash":
            reason = event["reason"]
            counts[reason] = counts.get(reason, 0) + 1
    return counts


def cpi_stack(
    build_workload: Callable[[], object],
    window: int = 20_000,
    pfm: PFMParams | None = None,
) -> CPIStack:
    """Compute the counterfactual CPI stack for a workload.

    *build_workload* must return a workload of its own per call (state
    is mutated by execution); a registry ``build_workload`` copy is one.  With *pfm*, the stack describes the PFM run
    (its idealized variants also keep the component attached).  The
    measured (non-idealized) run carries a stage+squash telemetry ring,
    feeding the stack's intra-run breakdowns.
    """
    def run(telemetry: TelemetryParams | None = None, **kwargs) -> SimStats:
        return simulate(
            build_workload(),
            SimConfig(
                max_instructions=window, pfm=pfm, telemetry=telemetry,
                **kwargs,
            ),
        )

    base = run(
        telemetry=TelemetryParams(
            # Stage events are one per retired instruction; size the ring
            # so a full window plus its squashes fits without drops.
            ring_capacity=2 * window,
            sample_period=0,
            groups=("stage", "squash"),
        )
    )
    snapshot = base.telemetry or {}
    perf_branch = run(perfect_branch_prediction=True)
    perf_memory = run(perfect_dcache=True)
    perf_both = run(perfect_branch_prediction=True, perfect_dcache=True)

    branch = max(0, base.cycles - perf_branch.cycles)
    memory = max(0, base.cycles - perf_memory.cycles)
    compute = perf_both.cycles
    # branch + memory - overlap must equal (base - compute) exactly, so
    # the four components always sum to the total.  Negative overlap is
    # synergy (see module docstring).
    overlap = branch + memory - (base.cycles - compute)
    # Inclusion-exclusion: branch-only + memory-only + overlap + compute
    # partitions the total exactly.
    return CPIStack(
        instructions=base.instructions,
        total_cycles=base.cycles,
        compute_cycles=compute,
        branch_cycles=branch - overlap,
        memory_cycles=memory - overlap,
        overlap_cycles=overlap,
        stage_gaps=stage_gap_breakdown(snapshot),
        squash_counts=squash_breakdown(snapshot),
    )


def compare_stacks(baseline: CPIStack, treated: CPIStack) -> str:
    """Side-by-side rendering with the per-component reduction."""
    lines = [
        f"{'component':<10} {'baseline':>9} {'treated':>9} {'reduction':>10}"
    ]
    for name in ("compute", "branch", "memory", "overlap"):
        before = baseline.component(name)
        after = treated.component(name)
        if before > 0:
            reduction = f"{100 * (1 - after / before):+.0f}%"
        else:
            reduction = "—"
        lines.append(f"{name:<10} {before:>9.2f} {after:>9.2f} {reduction:>10}")
    lines.append(
        f"{'total':<10} {baseline.cpi:>9.2f} {treated.cpi:>9.2f}"
        f" {100 * (1 - treated.cpi / baseline.cpi):>+9.0f}%"
    )
    return "\n".join(lines)
