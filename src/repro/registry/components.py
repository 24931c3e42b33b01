"""The custom-component registry: component name -> factory.

A component factory is what a :class:`~repro.pfm.snoop.Bitstream`
carries — called with ``(RFTimings, MemoryImage, metadata)`` when the
fabric is programmed.  Registration happens in the
``repro.pfm.components`` modules; workload builders then reference
components *by name* through :func:`make_bitstream`, so swapping the
synthesized microarchitecture is a registry lookup, not an import edit —
the paper's post-fabrication story.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from repro.registry.base import Registry

if TYPE_CHECKING:
    from repro.pfm.snoop import Bitstream, FSTEntry, RSTEntry

ComponentFactory = Callable[..., object]

COMPONENTS: Registry[ComponentFactory] = Registry(
    "component",
    autoload=(
        "repro.pfm.components.astar_alt",
        "repro.pfm.components.bfs_engine",
        "repro.pfm.components.prefetchers",
        "repro.pfm.components.template",
        "repro.pfm.components.introspect",
    ),
)


def register_component(
    name: str,
) -> Callable[[ComponentFactory], ComponentFactory]:
    """Decorator: register a component factory under *name*."""
    return COMPONENTS.register(name)


def resolve_component(spec: str | ComponentFactory) -> ComponentFactory:
    """A component factory from a registry name or a callable.

    Callables pass through untouched so tests and experiments can inject
    ad-hoc components without registering them first.
    """
    if callable(spec):
        return spec
    return COMPONENTS.get(spec)


def component_names() -> tuple[str, ...]:
    return COMPONENTS.names()


def make_bitstream(
    name: str,
    *,
    component: str | ComponentFactory,
    rst_entries: Iterable["RSTEntry"],
    fst_entries: Iterable["FSTEntry"] = (),
    metadata: Mapping[str, object] | None = None,
) -> "Bitstream":
    """Assemble a configuration bitstream around a registered component.

    This is the one construction path every workload uses: snoop-table
    entries plus a component reference (registry name or factory) plus
    the structural metadata the sensitivity sweeps override.
    """
    from repro.pfm.snoop import Bitstream

    return Bitstream(
        name=name,
        rst_entries=list(rst_entries),
        fst_entries=list(fst_entries),
        component_factory=resolve_component(component),
        metadata=dict(metadata or {}),
    )


def rebuild_component(
    bitstream: "Bitstream",
    timings,
    memory,
    overrides: Mapping[str, object] | None = None,
):
    """Re-synthesize a bitstream's component (reprogram / hot reload).

    The factory runs from scratch — no state survives.  That is both the
    Section 2.4 context-isolation guarantee and what makes a reload heal
    a corrupted configuration: the bitstream, not the dying instance, is
    the source of truth.  Used by ``PFMFabric.reprogram`` and the
    :class:`~repro.pfm.reconfig.ReconfigController` hot-swap path.
    """
    metadata = dict(bitstream.metadata)
    metadata.update(overrides or {})
    return bitstream.component_factory(timings, memory, metadata)
