"""SMT co-run simulation: two trace streams sharing one front end.

The :mod:`repro.smt.machine` module runs N of the single-core model's
per-thread front ends (:class:`~repro.cpu.thread.ThreadFrontEnd`) on one
core, arbitrating the L1-I/UBS cache, the MSHR file, the FTQ capacity,
the BPU build port and the fetch port, while keeping each thread's
architectural stream, :class:`~repro.stats.counters.FrontEndStats` and
stall attribution fully separate — so per-thread slowdown against the
solo baseline is exact. :mod:`repro.smt.pairing` assigns N workloads onto
N/2 cores using the measured interference matrix (see
:mod:`repro.experiments.smt_matrix`).
"""

from .machine import (ARBITRATION_POLICIES, SMTMachine, THREAD_ADDR_STRIDE,
                      build_smt_machine, run_corun)

__all__ = [
    "ARBITRATION_POLICIES",
    "SMTMachine",
    "THREAD_ADDR_STRIDE",
    "build_smt_machine",
    "run_corun",
]
