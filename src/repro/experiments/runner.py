"""Constants and config-label parsing shared by the experiments.

Workloads are resolved by name through the registry layer
(:mod:`repro.registry`); graphs and grids are deterministic (seeded), so
the registry builds each recipe once per process and every
``build_workload`` call returns a private copy of that initial state.  Every
run goes through :func:`~repro.experiments.pool.run_point`, driven by a
:class:`~repro.experiments.pool.SweepPool` and its result store.
"""

from __future__ import annotations

from repro.core import PFMParams

__all__ = [
    "DEFAULT_WINDOW",
    "PREFETCH_WORKLOADS",
    "parse_config_label",
]

DEFAULT_WINDOW = 40_000

PREFETCH_WORKLOADS = ("libquantum", "bwaves", "lbm", "milc", "leslie")


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
