"""Pluggable registries for every post-fabrication attachment point.

The paper's premise is that application-specific pieces plug into fixed
interfaces after fabrication; this package is the software analogue:
adding a workload, a custom component, a branch predictor, or a cache
prefetcher is one ``@register_*`` decorator, and every consumer (the
``sim``/``sweep``/``faults``/``trace`` CLIs, the sweep pool's worker
processes, the golden harness) resolves names through here.

``python -m repro.experiments list`` enumerates everything registered.
"""

from repro.registry.base import (
    DuplicateNameError,
    Registry,
    RegistryError,
    UnknownNameError,
)
from repro.registry.components import (
    COMPONENTS,
    component_names,
    make_bitstream,
    register_component,
    resolve_component,
)
from repro.registry.predictors import (
    PREDICTORS,
    make_predictor,
    predictor_names,
    register_predictor,
)
from repro.registry.prefetchers import (
    PREFETCHERS,
    make_prefetcher,
    prefetcher_names,
    register_prefetcher,
)
from repro.registry.tenants import (
    TENANT_LAYOUTS,
    build_tenant_bitstream,
    register_tenant_layout,
    resolve_tenant_layout,
    tenant_layout_names,
)
from repro.registry.workloads import (
    WORKLOADS,
    build_workload,
    register_workload,
    workload_names,
)

__all__ = [
    "Registry",
    "RegistryError",
    "DuplicateNameError",
    "UnknownNameError",
    "WORKLOADS",
    "register_workload",
    "build_workload",
    "workload_names",
    "COMPONENTS",
    "register_component",
    "resolve_component",
    "component_names",
    "make_bitstream",
    "PREDICTORS",
    "register_predictor",
    "make_predictor",
    "predictor_names",
    "PREFETCHERS",
    "register_prefetcher",
    "make_prefetcher",
    "prefetcher_names",
    "TENANT_LAYOUTS",
    "register_tenant_layout",
    "resolve_tenant_layout",
    "tenant_layout_names",
    "build_tenant_bitstream",
]
