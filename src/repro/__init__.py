"""repro — reproduction of the Uneven Block Size (UBS) instruction cache.

Public API for the library reproducing Brunner & Kumar, *Weeding out
Front-End Stalls with Uneven Block Size Instruction Cache* (MICRO 2024):

* :func:`simulate` / :class:`~repro.cpu.machine.Machine` — run a workload
  against any L1-I organisation and collect the paper's metrics;
* :class:`~repro.core.ubs_cache.UBSICache` and friends — the contribution;
* :mod:`repro.trace` — synthetic server/client/SPEC workload suite;
* :mod:`repro.experiments` — one driver per paper table/figure.
"""

from __future__ import annotations

from typing import Optional, Union

from .params import (
    CacheParams,
    CoreParams,
    MachineParams,
    UBSParams,
    conventional_l1i,
    DEFAULT_UBS_WAY_SIZES,
)
from .errors import ConfigurationError, ReproError, SimulationError, TraceError
from .core import (
    PredictorConfig,
    UBSICache,
    UsefulnessPredictor,
    conventional_storage,
    latency_report,
    ubs_storage,
)
from .memory import (
    ConventionalICache,
    DistillationICache,
    InstructionCacheBase,
    MemoryHierarchy,
    SmallBlockICache,
)
from .cpu import Machine, build_icache, build_machine
from .stats import SimResult
from .telemetry import (
    EventTrace,
    MetricsRegistry,
    StageProfiler,
    StallAccounting,
    Telemetry,
)
from .trace import Workload, get_workload, suite, workload_names

__version__ = "1.0.0"

__all__ = [
    "CacheParams",
    "ConfigurationError",
    "ConventionalICache",
    "CoreParams",
    "DEFAULT_UBS_WAY_SIZES",
    "DistillationICache",
    "EventTrace",
    "InstructionCacheBase",
    "Machine",
    "MachineParams",
    "MemoryHierarchy",
    "MetricsRegistry",
    "PredictorConfig",
    "ReproError",
    "SimResult",
    "SimulationError",
    "SmallBlockICache",
    "StageProfiler",
    "StallAccounting",
    "Telemetry",
    "TraceError",
    "UBSICache",
    "UBSParams",
    "UsefulnessPredictor",
    "Workload",
    "build_icache",
    "build_machine",
    "conventional_l1i",
    "conventional_storage",
    "get_workload",
    "latency_report",
    "simulate",
    "suite",
    "ubs_storage",
    "workload_names",
]


def simulate(workload: Union[str, Workload], config: str = "conv32", *,
             params: Optional[MachineParams] = None,
             sample_efficiency: bool = True,
             telemetry: Optional[Telemetry] = None) -> SimResult:
    """Run one workload against one L1-I configuration.

    ``workload`` is a suite name (e.g. ``"server_003"``) or a
    :class:`~repro.trace.workloads.Workload`; ``config`` is a configuration
    name understood by :func:`~repro.cpu.machine.build_icache`.
    ``telemetry`` optionally attaches an event recorder and/or stage
    profiler (see :mod:`repro.telemetry`).
    """
    if isinstance(workload, str):
        workload = get_workload(workload)
    from .cpu.machine import split_machine_config
    from .trace.workloads import SMTWorkload

    base, override = split_machine_config(config)
    if params is None:
        params = override
    elif override is not None:
        raise ConfigurationError(
            f"configuration {config!r} carries a machine-level suffix; "
            "pass either the suffix or explicit params, not both"
        )
    if isinstance(workload, SMTWorkload):
        # Co-run pairs have no single merged trace: each component
        # becomes one hardware thread of a shared-front-end SMTMachine.
        from .smt import SMTMachine

        components = workload.component_workloads()
        machine = SMTMachine(
            [w.generate() for w in components], build_icache(base),
            params=params, telemetry=telemetry, policy=workload.policy)
        for thread, comp in zip(machine.threads, components):
            thread.name = comp.name
        result = machine.run([w.windows() for w in components])
        result.workload = workload.name
        result.config = config
        for comp, tdict in zip(components, result.extra["threads"]):
            tdict["workload"] = comp.name
            tdict["config"] = config
        return result
    warmup, measure = workload.windows()
    machine = Machine(workload.generate(), build_icache(base), params,
                      telemetry=telemetry)
    result = machine.run(warmup, measure, sample_efficiency=sample_efficiency)
    result.workload = workload.name
    result.config = config
    return result
