"""The workload registry: benchmark name -> workload builder.

Builders are registered by :func:`register_workload` decorators in the
``repro.workloads`` modules (the ``autoload`` list below).  Graphs and
grids are seeded, so every build of one recipe has the same initial
state: :func:`build_workload` runs a builder once per recipe and
process and gives each caller its own copy, because execution mutates
the memory image and runs must never share one.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable

from repro.registry.base import Registry

if TYPE_CHECKING:
    from repro.workloads.base import Workload

WorkloadBuilder = Callable[..., "Workload"]

#: Registration order here fixes the enumeration order everywhere
#: (sweep grids, golden-test ids, the CLI ``list`` output).
WORKLOADS: Registry[WorkloadBuilder] = Registry(
    "workload",
    autoload=(
        "repro.workloads.astar",
        "repro.workloads.bfs",
        "repro.workloads.libquantum",
        "repro.workloads.bwaves",
        "repro.workloads.lbm",
        "repro.workloads.milc",
        "repro.workloads.leslie",
    ),
)


def register_workload(name: str) -> Callable[[WorkloadBuilder], WorkloadBuilder]:
    """Decorator: register a workload builder under *name*."""
    return WORKLOADS.register(name)


def build_workload(name: str, **overrides: object) -> "Workload":
    """Workload by benchmark name (builder kwargs as overrides), private
    to the caller.

    The builder runs only for a recipe other than the one in the
    process's base slot (:data:`repro.workloads.identity._BASE`).  Its
    result, stamped with its compiled-trace identity
    (:func:`repro.workloads.identity.annotate`) so ``simulate()`` can
    replay a cached correct-path stream, becomes the new base, and every
    call returns a copy of the base.  Overrides that
    :func:`~repro.workloads.identity.recipe_digest` cannot encode build
    afresh and are never kept.
    """
    from repro.workloads import identity

    digest = identity.recipe_digest(name, overrides)
    base = identity._BASE.get(digest) if digest is not None else None
    if base is None:
        base = WORKLOADS.get(name)(**overrides)
        identity.annotate(base, name, dict(overrides))
        if digest is None:
            return base
        identity._BASE.clear()
        identity._BASE[digest] = base
    return _copy(base)


def _copy(base: "Workload") -> "Workload":
    """*base* with its own image, registers, metadata, recipe and
    bitstream tables; the program is immutable and shared."""
    bitstream = base.bitstream
    if bitstream is not None:
        bitstream = dataclasses.replace(
            bitstream,
            rst_entries=list(bitstream.rst_entries),
            fst_entries=list(bitstream.fst_entries),
            metadata=dict(bitstream.metadata),
        )
    build_ref = base.build_ref
    if build_ref is not None:
        build_ref = (build_ref[0], dict(build_ref[1]))
    return dataclasses.replace(
        base,
        memory=base.memory.copy(),
        initial_regs=dict(base.initial_regs),
        metadata=dict(base.metadata),
        bitstream=bitstream,
        build_ref=build_ref,
    )


def workload_names() -> tuple[str, ...]:
    """All registered benchmark names, in registration order."""
    return WORKLOADS.names()
