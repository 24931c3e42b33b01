"""Pluggable execution backends for the cycle engine's hot loop.

``python`` is the reference engine: every instruction walks through the
four stage objects (:mod:`repro.core.stages`) one at a time.  ``numpy``
replays a warm :class:`~repro.workloads.tracecache.CompiledTrace` in
vectorized chunks — per-trace precomputed predictor/BTB/RAS outcome
streams, digest byte prefixes, and integer-indexed register scoreboards
feed a fused loop that calls the same live resource and memory-hierarchy
objects in the same order, so its ``arch_digest`` and every exported
counter are byte-identical to the reference (the safety bar set by the
paper's hints-only argument, enforced by the differential test harness).
Both engines take the core predictor's directions from the trace's one
stored direction column
(:func:`~repro.workloads.columns.directions`).

Selection: ``CoreParams.backend`` is the one selector.  ``"auto"`` (the
default) picks numpy when it imports, else python; ``"python"`` and
``"numpy"`` pin the engine.  Runs a vectorized backend cannot replay
bit-identically — numpy missing, PFM fabric attached, oracles,
telemetry, instrumented core subclasses, no compiled trace — fall back
to python and count ``SimStats.backend_fallbacks``.
"""

from __future__ import annotations

from repro.backends.base import ExecutionBackend, have_numpy
from repro.backends.numpy_backend import NumpyBackend
from repro.backends.python_backend import PythonBackend
from repro.registry.base import UnknownNameError

__all__ = [
    "ENGINES",
    "ExecutionBackend",
    "NumpyBackend",
    "PythonBackend",
    "have_numpy",
    "resolve_backend",
]

#: Engine name -> backend class; ``"auto"`` resolves to one of these.
ENGINES: dict[str, type[ExecutionBackend]] = {
    "python": PythonBackend,
    "numpy": NumpyBackend,
}


def resolve_backend(requested: str) -> ExecutionBackend:
    """Resolve a ``CoreParams.backend`` value to a backend instance.

    ``"python"`` and ``"numpy"`` pin the engine; ``"auto"`` picks numpy
    when importable, else python.  Any other name raises
    :class:`~repro.registry.base.UnknownNameError` listing the choices.
    """
    name = requested
    if name == "auto":
        name = "numpy" if have_numpy() else "python"
    engine = ENGINES.get(name)
    if engine is None:
        raise UnknownNameError(
            f"unknown backend {requested!r}; choose one of"
            f" auto, {', '.join(ENGINES)}"
        )
    return engine()
