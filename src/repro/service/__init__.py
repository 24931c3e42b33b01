"""Simulation-as-a-service: a resident daemon over the sweep substrate.

Every CLI invocation of this reproduction pays interpreter startup,
registry autoload, and a cold trace memo and result store; at fleet
scale those costs dominate the simulations themselves.  This package
keeps one process resident — the same shell-vs-role split the paper
applies to hardware (a fixed shell, post-fabrication roles loaded into
it): the daemon is the shell, typed requests (``simulate``, ``sweep``,
``trace``) are the roles, and the result store is the shared fabric: a
repeated request, queued or finished, is served from it.

Layers (one module each):

* :mod:`repro.service.models`   — typed request/job models + wire codec
* :mod:`repro.service.handlers` — request kinds (registered in
  :data:`repro.registry.service.SERVICE_KINDS`) running through
  :class:`~repro.experiments.pool.SweepPool`
* :mod:`repro.service.executor` — the persistent warm backend (one
  shared result store + compiled-trace memo + registries)
* :mod:`repro.service.server`   — the asyncio daemon (HTTP front door,
  one FIFO worker thread, graceful SIGTERM drain)
* :mod:`repro.service.client`   — blocking stdlib client
* :mod:`repro.service.cli`      — ``serve``/``submit``/``status``/
  ``result``/``stats`` verbs

The result store is the only durable layer: job records live in the
daemon's memory, and a job lost to a restart costs one resubmit whose
points are all store hits.

Determinism contract: a result fetched from the daemon is byte-identical
to running the same request directly through a ``SweepPool`` — the
daemon adds scheduling and result reuse, never content.
"""

from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
    discover_endpoint,
    wait_for_endpoint,
)
from repro.service.models import (
    JobRecord,
    RequestError,
    SimulateRequest,
    SweepRequest,
    TraceRequest,
)
from repro.service.server import (
    ENDPOINTS,
    ServiceConfig,
    SimulationService,
    endpoint_path,
    service_dir,
)

__all__ = [
    "ENDPOINTS",
    "JobRecord",
    "RequestError",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceUnavailable",
    "SimulateRequest",
    "SimulationService",
    "SweepRequest",
    "TraceRequest",
    "discover_endpoint",
    "endpoint_path",
    "service_dir",
    "wait_for_endpoint",
]
