"""An SMT core: N hardware threads sharing one decoupled front end.

Each thread is a :class:`~repro.cpu.thread.ThreadFrontEnd`, the same
per-thread front end :class:`repro.cpu.machine.Machine` steps alone. This
module adds only the arbitration over what the threads share, following
the usual SMT fetch organisation:

* one L1-I (any :func:`repro.cpu.machine.build_icache` organisation,
  including UBS) and one MSHR file serve every thread's demand fetches
  and FDIP prefetches;
* the FTQ capacity is a single pool — a thread whose run-ahead is deep
  squeezes the other thread's;
* the BPU build port produces ranges for one thread per cycle
  (round-robin over eligible threads), and FDIP's prefetch budget is
  interleaved across the threads' pending ranges;
* the fetch port delivers for one thread per cycle, arbitrated by a
  pluggable policy (``rr`` strict round-robin, ``icount`` fewest
  in-flight fetched-but-undelivered instructions first).

Per-thread state stays fully separate: each thread has its own BPU
(predictor state is not shared — threads run disjoint code),
architectural trace, back-end/ROB, :class:`FrontEndStats` and stall
attribution. Threads are mapped into disjoint address spaces
``tid * THREAD_ADDR_STRIDE`` apart before touching any shared structure;
the stride only flips tag bits, so threads contend for the same cache
sets (real conflict misses) while never aliasing each other's blocks.

The machine is co-run only: it takes two or more threads, and
single-thread runs use :class:`~repro.cpu.machine.Machine`. Co-run
results are pinned against golden snapshots by
``tests/test_golden_parity.py``.
"""

from __future__ import annotations

from dataclasses import fields
from time import perf_counter
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..cpu.machine import FrontEndBase
from ..cpu.thread import BLOCKED, DONE, READY, ThreadFrontEnd
from ..errors import ConfigurationError
# ``precompute_range_stream`` is re-exported: by-name patchers of the
# range-stream walk (perfbench/layers.py) rebind it in this module too.
from ..frontend.ftq import precompute_range_stream  # noqa: F401
from ..memory.icache import InstructionCacheBase
from ..params import MachineParams
from ..stats.counters import FrontEndStats, SimResult
from ..telemetry import Telemetry
from ..telemetry.metrics import MetricsRegistry
from ..trace.record import Instruction

if TYPE_CHECKING:
    from ..trace.workloads import SMTWorkload

#: Fetch-arbitration policies understood by :class:`SMTMachine`.
ARBITRATION_POLICIES = ("rr", "icount")

#: Address-space stride between hardware threads. Far above any set-index
#: or block-offset bit, so the shift lands entirely in tag bits: threads
#: fight over the same sets but never hit each other's blocks.
THREAD_ADDR_STRIDE = 1 << 40


class SMTMachine(FrontEndBase):
    """N >= 2 hardware threads on one core with a shared front end.

    ``traces`` is one instruction stream per thread, each converted once
    to :class:`~repro.trace.arrays.ArrayTrace` (an ``ArrayTrace`` is used
    as is). A single thread is :class:`repro.cpu.machine.Machine`'s job.
    """

    def __init__(self, traces: Sequence[Sequence[Instruction]],
                 icache: InstructionCacheBase,
                 params: Optional[MachineParams] = None,
                 telemetry: Optional[Telemetry] = None,
                 policy: str = "rr") -> None:
        if len(traces) < 2:
            raise ConfigurationError(
                f"SMTMachine needs at least two traces, got {len(traces)} "
                "(single-thread runs use repro.cpu.machine.Machine)")
        if policy not in ARBITRATION_POLICIES:
            raise ConfigurationError(
                f"unknown arbitration policy {policy!r} "
                f"(choose from {ARBITRATION_POLICIES})")
        super().__init__(icache, params, telemetry)
        self.policy = policy
        self.threads = [
            ThreadFrontEnd(self, trace, tid, tid * THREAD_ADDR_STRIDE)
            for tid, trace in enumerate(traces)
        ]
        self.n_threads = len(self.threads)
        self._ftq_capacity = self.params.core.ftq_entries
        self._live: List[ThreadFrontEnd] = []
        self._ftqs = [t.ftq for t in self.threads]
        self._register_metrics()

    def _register_metrics(self) -> MetricsRegistry:
        reg = super()._register_metrics()
        reg.gauge("machine.threads", lambda: self.n_threads)
        reg.gauge("ftq.occupancy", self._ftq_occupancy)
        reg.gauge("ftq.capacity", lambda: self._ftq_capacity)
        for t in self.threads:
            prefix = f"thread.{t.tid}"
            reg.gauge(f"{prefix}.instructions_delivered",
                      lambda t=t: t.delivered)
            reg.gauge(f"{prefix}.ftq_occupancy", lambda t=t: len(t.ftq))
            reg.gauge(f"{prefix}.arb_lost_cycles",
                      lambda t=t: t.arb_lost_cycles)
        return reg

    def _prefetch(self, cycle: int) -> None:
        """Issue FDIP prefetches from the threads' pending ranges.

        One shared prefetch budget per cycle; issues rotate round-robin
        across threads with work. Probe/merge pops cost no budget and do
        not rotate (as in a single thread's scan within one cycle).
        """
        live = self._live
        n = len(live)
        k = cycle % n
        issued = 0
        scanned = 0
        while issued < self._fdip_degree and scanned < n:
            if live[k].prefetch(cycle, 1):
                issued += 1
                scanned = 0
            else:
                scanned += 1
            k = (k + 1) % n

    def run(self, windows: Sequence[Tuple[int, int]]) -> SimResult:
        """Simulate every thread's ``(warmup, measure)`` window.

        Returns a composite result — summed front-end stats,
        ``instructions`` the summed measured windows, ``cycles`` the
        longest per-thread measured span — with each thread's own
        :class:`SimResult` under ``extra["threads"]``. No efficiency is
        sampled: the shared cache cannot be attributed per thread.
        """
        threads = self.threads
        if len(windows) != len(threads):
            raise ConfigurationError(
                f"{len(windows)} windows for {len(threads)} threads")
        capacity = self._ftq_capacity
        for t, (warmup, measure) in zip(threads, windows):
            t.start(warmup, measure)
        self.icache.recording = False
        rec = self._rec
        fills = self._fills
        process_fills = self._process_fills
        n_threads = self.n_threads
        policy_icount = self.policy == "icount"
        live = [t for t in threads if t.delivered < t.total]
        self._live = live
        wall_start = perf_counter()
        cycle = self.cycle

        while live:
            if fills and fills[0][0] <= cycle:
                process_fills(cycle)
            for t in live:
                if cycle >= t.resume_at:
                    t.predict(cycle, 0)
            # The BPU build port serves one thread per cycle, round-robin
            # over eligible threads (builder has work), while the FTQ pool
            # has room.
            n_live = len(live)
            for k in range(n_live):
                t = live[(cycle + k) % n_live]
                builder = t.builder
                if not builder.blocked and not builder.exhausted:
                    room = capacity - self._ftq_occupancy()
                    if room > 0:
                        t.predict(cycle, room)
                    break
            for t in live:
                if t.fdip_queue:
                    self._prefetch(cycle)
                    break
            if rec is not None:
                self._sample_ftq(cycle, live)

            # Poll every live thread (a blocked one accrues its stall
            # cycle), then grant the fetch port to one fetchable thread.
            fetchable: List[ThreadFrontEnd] = []
            all_blocked = True
            for t in live:
                state = t.step((cycle, False))
                if state != BLOCKED:
                    all_blocked = False
                    if state == READY:
                        fetchable.append(t)
            if fetchable:
                if len(fetchable) == 1:
                    winner = fetchable[0]
                else:
                    if policy_icount:
                        winner = min(
                            fetchable,
                            key=lambda t: (t.pending(),
                                           (t.tid - cycle) % n_threads))
                    else:
                        winner = min(
                            fetchable,
                            key=lambda t: (t.tid - cycle) % n_threads)
                    for t in fetchable:
                        if t is not winner and t.measuring:
                            t.arb_lost_cycles += 1
                if winner.step((cycle, True)) == DONE:
                    self._retire(winner)
            elif all_blocked:
                cycle = self._skip_stalls(
                    cycle, live, self._ftq_occupancy() >= capacity)
            cycle += 1

        self.cycle = cycle
        self.wall_seconds = perf_counter() - wall_start
        return self._composite_result([
            t.window_result(thread=t.tid, arb_lost_cycles=t.arb_lost_cycles)
            for t in threads])

    def _ftq_occupancy(self) -> int:
        """Ranges queued in the pooled FTQ, over every thread."""
        return sum(map(len, self._ftqs))

    def _retire(self, t: ThreadFrontEnd) -> None:
        """A thread hit its instruction total: release its shared-pool
        claims so the survivors share the whole front end."""
        t.finished = True
        self._live.remove(t)
        t.ftq.clear()
        t.fdip_queue.clear()

    def _composite_result(self, results: List[SimResult]) -> SimResult:
        threads = self.threads
        combined = FrontEndStats(**{
            f.name: sum(getattr(t.stats, f.name) for t in threads)
            for f in fields(FrontEndStats)})
        return SimResult(
            workload="", config="",
            instructions=sum(t.measure for t in threads),
            cycles=max(r.cycles for r in results),
            frontend=combined,
            efficiency=None,
            extra={
                "smt": {
                    "policy": self.policy,
                    "n_threads": self.n_threads,
                    "corun_cycles": self.cycle,
                },
                "threads": [r.to_dict() for r in results],
                "block_count": self.icache.block_count(),
                "dram_accesses": self.hierarchy.dram.accesses,
            },
        )


def build_smt_machine(traces: Sequence[Sequence[Instruction]], config: str,
                      telemetry: Optional[Telemetry] = None,
                      policy: str = "rr") -> SMTMachine:
    """Build an :class:`SMTMachine` from a configuration name.

    Accepts every name :func:`repro.cpu.machine.build_icache` accepts
    plus the machine-level suffixes of
    :func:`repro.cpu.machine.split_machine_config`.
    """
    from ..cpu.machine import build_icache, split_machine_config

    base, params = split_machine_config(config)
    return SMTMachine(traces, build_icache(base), params=params,
                      telemetry=telemetry, policy=policy)


def run_corun(machine: SMTMachine, workload: "SMTWorkload",
              config: str) -> SimResult:
    """Run ``workload``'s component windows on ``machine`` — built from
    the component traces in order — and label the composite and each
    thread's result with its workload and ``config``."""
    components = workload.component_workloads()
    result = machine.run([w.windows() for w in components])
    result.workload = workload.name
    result.config = config
    for comp, tdict in zip(components, result.extra["threads"]):
        tdict["workload"] = comp.name
        tdict["config"] = config
    return result
