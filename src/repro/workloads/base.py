"""Workload bundle: program + memory + PFM configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.program import Program
from repro.pfm.snoop import Bitstream
from repro.workloads.mem import MemoryImage
from repro.workloads.trace import FunctionalExecutor


@dataclass
class Workload:
    """Everything needed to simulate one use-case.

    Attributes:
        name: benchmark name (astar, bfs, libquantum, ...).
        program: the assembled kernel.
        memory: initialized data memory image.
        initial_regs: architectural register state at entry.
        entry: label to start execution at (program base if None).
        bitstream: PFM configuration for this workload's custom component,
            or None for plain-core workloads.
        metadata: free-form notes (grid size, graph, array sizes, ...).
        trace_key: content digest identifying this workload in the
            compiled-trace cache, stamped by the registry's
            ``build_workload``; None for hand-assembled workloads
            (those always execute functionally).
        build_ref: ``(registry name, overrides)`` recipe, stamped
            alongside ``trace_key`` — trace compilation executes its own
            copy built from it, so this instance's memory image stays
            pristine for the simulation itself.
    """

    name: str
    program: Program
    memory: MemoryImage
    initial_regs: dict[str, float] = field(default_factory=dict)
    entry: str | None = None
    bitstream: Bitstream | None = None
    metadata: dict = field(default_factory=dict)
    trace_key: str | None = None
    build_ref: tuple[str, dict] | None = None

    def executor(self) -> FunctionalExecutor:
        """Fresh functional executor over this workload's state.

        Note: the memory image is mutated by execution; call the
        registry's ``build_workload`` again (it copies the process's
        pristine base) for every independent simulation run.
        """
        return FunctionalExecutor(
            self.program, self.memory, self.initial_regs, self.entry
        )
