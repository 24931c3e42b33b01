"""Declarative fault plans.

A :class:`FaultPlan` is pure data: picklable (sweep points carry it into
worker processes), hashable into sweep-point config keys via
``dataclasses.asdict``, and seed-deterministic — the injector derives all
randomness from ``seed``, so a fixed plan yields byte-identical results
regardless of worker count or scheduling order.

Probabilities are per-packet event rates; ``0.0`` disables an injector.
The :data:`BUILTIN_PLANS` registry names one plan per failure family the
ISSUE's threat model calls out; the ``faults`` campaign sweeps all of
them, and the equivalence oracle must pass for every one.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FaultPlan:
    """Seed-deterministic corruption of the core/RF communication fabric."""

    name: str = "custom"
    seed: int = 0

    # ObsQ-R: Retire Agent -> component observation packets
    obs_drop: float = 0.0
    obs_dup: float = 0.0
    obs_corrupt: float = 0.0  # bit-flip dest/store value or branch outcome

    # IntQ-F: component -> Fetch Agent branch predictions
    pred_drop: float = 0.0  # lost in transit (stream misaligns)
    pred_garbage: float = 0.0  # direction replaced with a coin flip
    pred_stuck: str | None = None  # "taken" | "not_taken" | None

    # IntQ-IS: component -> Load Agent injected loads/prefetches
    load_drop: float = 0.0
    load_dup: float = 0.0
    load_corrupt: float = 0.0  # bit-flip the address (agent must sanitize)

    # ObsQ-EX: Load Agent -> component load returns
    ret_drop: float = 0.0
    ret_corrupt: float = 0.0  # bit-flip the returned value

    # squash / squash-done protocol
    squash_done_delay: int = 0  # extra core cycles on every squash-done
    squash_done_lose: float = 0.0  # probability squash-done never arrives

    # component liveness: frozen clkC from this RF cycle on ("dead
    # component": IntQ-F never refills, ObsQ-R never drains)
    dead_at_rf_cycle: int | None = None

    # MLB overflow pressure: shrink the Missed Load Buffer to this size
    mlb_entries_override: int | None = None

    # reconfiguration path (repro.pfm.reconfig): every bitstream reload
    # stalls this many extra core cycles, and the first N replacement
    # components arrive dead (frozen from the reload on) — recovery of
    # recovery.  A reload past the dead ones scrubs all injected faults
    # (the FPGA SEU-scrubbing model).
    reconfig_stall_cycles: int = 0
    reconfig_dead_reloads: int = 0

    def __post_init__(self) -> None:
        for field_name in (
            "obs_drop", "obs_dup", "obs_corrupt", "pred_drop",
            "pred_garbage", "load_drop", "load_dup", "load_corrupt",
            "ret_drop", "ret_corrupt", "squash_done_lose",
        ):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field_name} must be in [0, 1], got {value}")
        if self.pred_stuck not in (None, "taken", "not_taken"):
            raise ValueError(f"unknown pred_stuck {self.pred_stuck!r}")
        if self.mlb_entries_override is not None and self.mlb_entries_override < 1:
            raise ValueError("mlb_entries_override must be >= 1")
        if self.squash_done_delay < 0:
            # A squash-done never precedes its squash: the fabric takes
            # the slowest slot's handshake as the retire floor.
            raise ValueError("squash_done_delay must be >= 0")
        if self.reconfig_stall_cycles < 0:
            raise ValueError("reconfig_stall_cycles must be >= 0")
        if self.reconfig_dead_reloads < 0:
            raise ValueError("reconfig_dead_reloads must be >= 0")


#: One built-in plan per failure family.  Every one of these must pass
#: the architectural-equivalence oracle (tests/test_faults.py).
BUILTIN_PLANS: dict[str, FaultPlan] = {
    plan.name: plan
    for plan in (
        FaultPlan(name="drop-obs", obs_drop=0.05),
        FaultPlan(name="dup-obs", obs_dup=0.05),
        FaultPlan(name="corrupt-obs", obs_corrupt=0.10),
        FaultPlan(name="drop-pred", pred_drop=0.05),
        FaultPlan(name="garbage-pred", pred_garbage=0.25),
        FaultPlan(name="stuck-taken", pred_stuck="taken"),
        FaultPlan(
            name="flaky-loads",
            load_drop=0.10,
            load_dup=0.05,
            load_corrupt=0.05,
            ret_drop=0.02,
            ret_corrupt=0.10,
        ),
        FaultPlan(
            name="lost-squash-done",
            squash_done_delay=32,
            squash_done_lose=0.5,
        ),
        FaultPlan(name="dead-component", dead_at_rf_cycle=1_000),
        FaultPlan(
            name="delayed-reconfig",
            dead_at_rf_cycle=1_000,
            reconfig_stall_cycles=512,
            reconfig_dead_reloads=1,
        ),
        FaultPlan(name="mlb-thrash", mlb_entries_override=2),
        FaultPlan(
            name="chaos",
            obs_drop=0.02,
            obs_dup=0.02,
            obs_corrupt=0.05,
            pred_drop=0.02,
            pred_garbage=0.10,
            load_drop=0.05,
            load_corrupt=0.02,
            ret_drop=0.01,
            ret_corrupt=0.05,
            squash_done_delay=8,
            squash_done_lose=0.1,
        ),
    )
}


def get_plan(name: str, seed: int = 0) -> FaultPlan:
    """Look up a built-in plan, optionally re-seeded."""
    try:
        plan = BUILTIN_PLANS[name]
    except KeyError:
        raise ValueError(
            f"unknown fault plan {name!r}; known: {sorted(BUILTIN_PLANS)}"
        )
    if seed == plan.seed:
        return plan
    import dataclasses

    return dataclasses.replace(plan, seed=seed)
