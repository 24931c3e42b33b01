"""Execution-backend interface and selection rules.

A backend owns the cycle engine's per-run hot loop: given a built
:class:`~repro.core.core.SuperscalarCore` and (optionally) a compiled
trace, it produces the run's :class:`~repro.core.stats.SimStats`.  The
contract is *bit identity*: every backend must emit byte-identical
``arch_digest`` and ``SimStats.to_dict()`` payloads for any run it
accepts — the differential harness in ``tests/test_backend_equivalence``
pins this across all golden cases.

A backend that cannot replay a run bit-identically declines it via
:meth:`ExecutionBackend.eligible` and the core falls back to the
reference python engine, counting the event in the (non-field)
``SimStats.backend_fallbacks`` provenance attribute.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.core import SuperscalarCore
    from repro.core.stats import SimStats
    from repro.workloads.tracecache import CompiledTrace

def have_numpy() -> bool:
    """True when numpy imports in this interpreter."""
    try:
        import numpy  # noqa: F401
    except ImportError:  # pragma: no cover - numpy baked into the image
        return False
    return True


class ExecutionBackend:
    """One engine for the per-run hot loop."""

    #: Engine name (a ``CoreParams.backend`` value); subclasses override.
    name = "abstract"

    def eligible(
        self, core: "SuperscalarCore", trace: "CompiledTrace | None"
    ) -> bool:
        """True when this backend can run *core* bit-identically."""
        raise NotImplementedError

    def run(
        self,
        core: "SuperscalarCore",
        trace: "CompiledTrace | None",
        limit: int,
    ) -> "SimStats":
        """Execute the run and return the core's (shared) stats object."""
        raise NotImplementedError
