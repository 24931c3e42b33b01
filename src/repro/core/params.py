"""Configuration objects: the Table 1 core, PFM parameters, run config.

PFM parameter notation follows Section 3 of the paper:

* ``clkC_wW`` — C = core-to-RF frequency ratio, W = component width.
* ``delayD`` — component pipelined latency in RF cycles.
* ``queueQ`` — observation/intervention queue size.
* ``portP`` — which PRF read ports the Retire Agent may contend on:
  ``ALL`` (every lane), ``LS`` (both load/store lanes), ``LS1`` (one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.watchdog import RecoveryPolicy, WatchdogParams
from repro.memory.hierarchy import HierarchyParams
from repro.telemetry.params import TelemetryParams

if TYPE_CHECKING:  # layering: core never imports the fault subsystem
    from repro.faults.plan import FaultPlan
    from repro.pfm.tenancy import TenantSpec


@dataclass
class CoreParams:
    """Superscalar core configuration (Table 1)."""

    fetch_width: int = 4
    retire_width: int = 4
    issue_width: int = 8
    pipeline_depth: int = 10  # fetch to retire
    front_depth: int = 6  # fetch to dispatch (rename/decode stages)
    rob_size: int = 224
    iq_size: int = 100
    ldq_size: int = 72
    stq_size: int = 72
    prf_size: int = 288
    fetch_queue_size: int = 32
    num_alu_lanes: int = 4
    num_ls_lanes: int = 2
    num_fp_lanes: int = 2

    #: Conditional branch predictor, resolved through the predictor
    #: registry (:mod:`repro.registry`); the paper's baseline is TAGE-SC-L.
    predictor: str = "tagescl"

    #: Execution backend (:func:`repro.backends.resolve_backend`), the
    #: one engine selector.  ``"auto"`` picks the fastest available
    #: engine (numpy when importable, else python); an explicit
    #: ``"python"``/``"numpy"`` pins the engine for this run.  Runs the
    #: vectorized backend cannot replay bit-identically (PFM fabric,
    #: oracles, telemetry, uncompiled workloads) fall back to python and
    #: count the event in ``SimStats.backend_fallbacks``.
    backend: str = "auto"

    # Execution latencies (cycles); division is unpipelined.
    int_alu_latency: int = 1
    int_mul_latency: int = 3
    int_div_latency: int = 12
    fp_alu_latency: int = 3
    fp_mul_latency: int = 4
    fp_div_latency: int = 12
    branch_latency: int = 1

    @property
    def num_lanes(self) -> int:
        return self.num_alu_lanes + self.num_ls_lanes + self.num_fp_lanes

    def alu_lanes(self) -> tuple[int, ...]:
        return tuple(range(self.num_alu_lanes))

    def ls_lanes(self) -> tuple[int, ...]:
        start = self.num_alu_lanes
        return tuple(range(start, start + self.num_ls_lanes))

    def fp_lanes(self) -> tuple[int, ...]:
        start = self.num_alu_lanes + self.num_ls_lanes
        return tuple(range(start, start + self.num_fp_lanes))


PORT_ALL = "ALL"
PORT_LS = "LS"
PORT_LS1 = "LS1"


FETCH_POLICY_STALL = "stall"
FETCH_POLICY_PROCEED = "proceed"


@dataclass
class PFMParams:
    """Custom component and agent parameters (Section 3 notation).

    ``fetch_policy`` selects between the paper's two Fetch Agent designs
    (Section 2.4): ``"stall"`` blocks the fetch unit until the prediction
    packet arrives (the design evaluated in Section 4); ``"proceed"``
    falls back to the core's own predictor when IntQ-F is empty and keeps
    count of how many late packets to drop when they eventually arrive.
    """

    clk_ratio: int = 4  # C: CLK_core / CLK_rf
    width: int = 4  # W: packets/predictions per RF cycle
    delay: int = 4  # D: pipelined execution latency in RF cycles
    queue_size: int = 32  # Q: observation/intervention queue entries
    port: str = PORT_ALL  # P: PRF port sharing option
    fetch_policy: str = FETCH_POLICY_STALL  # §2.4 alternative designs
    component_overrides: dict = field(default_factory=dict)  # structure sizes
    #: Graceful-degradation thresholds (all off by default; see
    #: :mod:`repro.core.watchdog`).
    watchdog: WatchdogParams = field(default_factory=WatchdogParams)
    #: Declarative fault-injection plan applied to the fabric's queues and
    #: agents (:mod:`repro.faults.plan`); None = fault-free.
    fault_plan: "FaultPlan | None" = None
    #: Self-healing runtime-reconfiguration policy (inactive by default:
    #: dead components disable the fabric permanently, exactly as before;
    #: see :mod:`repro.pfm.reconfig`).
    recovery: RecoveryPolicy = field(default_factory=RecoveryPolicy)
    #: Co-resident tenants sharing the fabric (:mod:`repro.pfm.tenancy`);
    #: each spec adds one fabric slot beside the primary (slot 0, the
    #: workload's own bitstream) with the primary's C/W/D/Q/P.  Empty =
    #: single-tenant, the paper's configuration.
    tenants: tuple["TenantSpec", ...] = ()

    def label(self) -> str:
        if self.tenants:
            extra = "+".join(spec.label() for spec in self.tenants)
            return f"{self._base_label()} [{extra}]"
        return self._base_label()

    def _base_label(self) -> str:
        return (
            f"clk{self.clk_ratio}_w{self.width}, delay{self.delay}, "
            f"queue{self.queue_size}, port{self.port}"
        )

    def __post_init__(self) -> None:
        if self.clk_ratio < 1:
            raise ValueError("clk_ratio must be >= 1")
        if self.width < 1:
            raise ValueError("width must be >= 1")
        if self.delay < 0:
            raise ValueError("delay must be >= 0")
        if self.queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        if self.port not in (PORT_ALL, PORT_LS, PORT_LS1):
            raise ValueError(f"unknown port option {self.port!r}")
        if self.fetch_policy not in (FETCH_POLICY_STALL, FETCH_POLICY_PROCEED):
            raise ValueError(f"unknown fetch policy {self.fetch_policy!r}")
        # JSON round-trips and CLI plumbing hand tenants over as a list;
        # normalize so configs hash/compare consistently.
        if isinstance(self.tenants, list):
            self.tenants = tuple(self.tenants)


@dataclass
class SimConfig:
    """One simulation run.

    ``oracle`` plugs an alternative prediction source into the fetch stage
    (used by the Slipstream 2.0 comparator): an object with
    ``observe(dyn)`` called for every retired instruction and
    ``predict(dyn) -> bool | None`` consulted for conditional branches
    (None = fall through to the core's own predictor).
    """

    core: CoreParams = field(default_factory=CoreParams)
    memory: HierarchyParams = field(default_factory=HierarchyParams)
    pfm: PFMParams | None = None  # None = plain baseline core
    max_instructions: int = 200_000
    perfect_branch_prediction: bool = False
    perfect_dcache: bool = False
    oracle: object | None = None
    #: Introspection probes (:mod:`repro.telemetry`); None = no sink
    #: attached, and the probe sites cost one pointer test each.
    telemetry: TelemetryParams | None = None

    def __post_init__(self) -> None:
        if self.perfect_dcache:
            self.memory.perfect_dcache = True
