"""Simulation helpers shared by the experiments.

Workloads are resolved by name through the registry layer
(:mod:`repro.registry`); graphs and grids are deterministic (seeded), so
each build returns a fresh workload with identical initial state.  These
are plain runs; sweeps that reuse results go through
:class:`~repro.experiments.pool.SweepPool` and its result store.
"""

from __future__ import annotations

from repro.core import CoreParams, PFMParams, SimConfig, SimStats, simulate
from repro.registry import build_workload

__all__ = [
    "DEFAULT_WINDOW",
    "PREFETCH_WORKLOADS",
    "build_workload",
    "run_config",
    "run_baseline",
    "run_pfm",
    "speedup_pct",
    "pfm_speedup_pct",
    "parse_config_label",
]

DEFAULT_WINDOW = 40_000

PREFETCH_WORKLOADS = ("libquantum", "bwaves", "lbm", "milc", "leslie")


def run_config(name: str, config: SimConfig, **overrides) -> SimStats:
    """Simulate workload *name* under *config* (fresh state each call)."""
    return simulate(build_workload(name, **overrides), config)


def _core_params(backend: str) -> CoreParams:
    """CoreParams pinned to *backend* ("auto" keeps the defaults)."""
    return CoreParams() if backend == "auto" else CoreParams(backend=backend)


def run_baseline(
    name: str,
    window: int = DEFAULT_WINDOW,
    backend: str = "auto",
    **overrides,
) -> SimStats:
    """Baseline (plain core) run."""
    return run_config(
        name,
        SimConfig(core=_core_params(backend), max_instructions=window),
        **overrides,
    )


def run_pfm(
    name: str,
    pfm: PFMParams,
    window: int = DEFAULT_WINDOW,
    backend: str = "auto",
    **overrides,
) -> SimStats:
    """PFM-enabled run (non-python backends fall back to the reference)."""
    return run_config(
        name,
        SimConfig(
            core=_core_params(backend), max_instructions=window, pfm=pfm
        ),
        **overrides,
    )


def speedup_pct(stats: SimStats, baseline: SimStats) -> float:
    return 100.0 * stats.speedup_over(baseline)


def pfm_speedup_pct(
    name: str,
    pfm: PFMParams,
    window: int = DEFAULT_WINDOW,
    **overrides,
) -> float:
    """Speedup of a PFM configuration over the baseline, in %.

    Builder overrides apply to *both* runs — the baseline must simulate
    the same workload instance the PFM run does.
    """
    base = run_baseline(name, window, **overrides)
    return speedup_pct(run_pfm(name, pfm, window, **overrides), base)


def _parse_int(text: str, token: str, what: str) -> int:
    """Parse one integer field of a config token, with a clear error.

    Stricter than int(): plain decimal digits only (no "1_0", no
    whitespace), so near-miss labels fail instead of half-parsing.
    """
    if not text.removeprefix("-").isdigit():
        raise ValueError(
            f"malformed token {token!r} in config label: "
            f"expected an integer {what}, got {text!r}"
        )
    return int(text)


def parse_config_label(label: str) -> PFMParams:
    """Parse the paper's notation: "clk4_w4, delay4, queue32, portLS1".

    Every malformed token raises :class:`ValueError` naming the token —
    never a silent fall-through to the PFMParams defaults.
    """
    params = PFMParams()
    for token in label.replace(",", " ").split():
        if token.startswith("clk"):
            clk, sep, width = token.partition("_w")
            if not sep:
                raise ValueError(
                    f"malformed token {token!r} in config label: "
                    "expected the form clkC_wW (e.g. clk4_w4)"
                )
            params.clk_ratio = _parse_int(
                clk.removeprefix("clk"), token, "clock ratio C"
            )
            params.width = _parse_int(width, token, "width W")
        elif token.startswith("delay"):
            params.delay = _parse_int(
                token.removeprefix("delay"), token, "delay D"
            )
        elif token.startswith("queue"):
            params.queue_size = _parse_int(
                token.removeprefix("queue"), token, "queue size Q"
            )
        elif token.startswith("port"):
            params.port = token.removeprefix("port")
        else:
            raise ValueError(f"unknown token {token!r} in config label")
    params.__post_init__()
    return params
