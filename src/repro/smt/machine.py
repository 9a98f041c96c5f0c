"""An SMT core: N hardware threads sharing one decoupled front end.

Structural sharing follows the usual SMT fetch organisation:

* one L1-I (any :func:`repro.cpu.machine.build_icache` organisation,
  including UBS) and one MSHR file serve both threads' demand fetches
  and FDIP prefetches;
* the FTQ capacity is a single pool — a thread whose run-ahead is deep
  squeezes the other thread's;
* the BPU build port produces ranges for one thread per cycle
  (round-robin over eligible threads), and FDIP's prefetch budget is
  interleaved across the threads' pending ranges;
* the fetch port delivers for one thread per cycle, arbitrated by a
  pluggable policy (``rr`` strict round-robin, ``icount`` fewest
  in-flight fetched-but-undelivered instructions first).

Per-thread state stays fully separate: each :class:`HardwareThread` has
its own BPU (predictor state is not shared — threads run disjoint code),
architectural trace, back-end/ROB, :class:`FrontEndStats` and stall
attribution. Threads are mapped into disjoint address spaces
``tid * THREAD_ADDR_STRIDE`` apart before touching any shared structure;
the stride only flips tag bits, so threads contend for the same cache
sets (real conflict misses) while never aliasing each other's blocks.

The machine is co-run only: it takes two or more threads, and
single-thread runs use :class:`repro.cpu.machine.Machine`, the one
single-thread kernel. Co-run results are pinned against golden
snapshots by ``tests/test_golden_parity.py``.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import fields
from time import perf_counter
from typing import TYPE_CHECKING, Deque, List, Optional, Sequence, Tuple

from ..cpu.machine import (_FTQ_SAMPLE_MASK, _HIT, _STALL_BACKEND,
                           _STALL_MISS, _STALL_NAMES, _STALL_RESTEER,
                           FrontEndBase)
from ..errors import ConfigurationError
from ..frontend.bpu import BranchPredictionUnit, Resteer
# ``precompute_range_stream`` is re-exported: by-name patchers of the
# range-stream walk (perfbench/layers.py) rebind it in this module too.
from ..frontend.ftq import (FetchRange,  # noqa: F401
                            precompute_range_stream, replay_range_stream)
from ..memory.hierarchy import MemoryHierarchy
from ..memory.icache import InstructionCacheBase, MissKind
from ..params import MachineParams
from ..stats.counters import FrontEndStats, SimResult
from ..telemetry import (
    FTQ as EV_FTQ,
    L1I as EV_L1I,
    MSHR as EV_MSHR,
    STALL as EV_STALL,
    Telemetry,
)
from ..telemetry.metrics import MetricsRegistry
from ..trace.arrays import ArrayTrace, as_array_trace
from ..trace.record import Instruction

if TYPE_CHECKING:
    from ..trace.workloads import SMTWorkload

#: Fetch-arbitration policies understood by :class:`SMTMachine`.
ARBITRATION_POLICIES = ("rr", "icount")

#: Address-space stride between hardware threads. Far above any set-index
#: or block-offset bit, so the shift lands entirely in tag bits: threads
#: fight over the same sets but never hit each other's blocks.
THREAD_ADDR_STRIDE = 1 << 40


class HardwareThread:
    """One architectural stream plus its private front/back-end state."""

    def __init__(self, tid: int, trace: ArrayTrace, params: MachineParams,
                 hierarchy: MemoryHierarchy) -> None:
        if not trace:
            raise ConfigurationError(f"thread {tid}: empty trace")
        self.tid = tid
        self.name = f"t{tid}"
        self.tag = {"thread": tid}    # extra fields on shared-helper events
        self.trace = trace
        self.addr_offset = tid * THREAD_ADDR_STRIDE
        self.bpu = BranchPredictionUnit(params.branch)
        core = params.core
        self.builder, self.range_segs = replay_range_stream(
            trace, self.bpu, core.fetch_bytes, core.fetch_width)
        self.range_seq = 0
        self.ftq_q: Deque[FetchRange] = deque()
        self.ftq_instrs = 0           # instructions queued in ftq_q
        self.fdip_queue: Deque[FetchRange] = deque()
        from ..cpu.backend import Backend
        self.backend = Backend(core, hierarchy)
        self.backend.bind_trace(trace, self.addr_offset)
        self.accept = self.backend.accept_range_arrays
        self.pc_col = trace.pc
        # Fetch state (mirrors the locals of Machine.run).
        self.cur: Optional[FetchRange] = None
        self.cur_byte = 0
        self.cur_end = 0
        self.n_ends = 0
        self.delivered_in_range = 0
        self.cur_segs: List[Tuple[int, int]] = []
        self.seg_idx = 0
        self.blocked_until = 0
        self.blocked_kind = 0
        self.pending_resteer: Optional[Tuple[int, int]] = None
        self.stall_pc = 0
        # Window bookkeeping.
        self.stats = FrontEndStats()
        self.delivered = 0
        self.total = 0
        self.measure = 0
        self.warmup_boundary = 1
        self.measuring = False
        self.warmup_commit = 0
        self.last_commit = 0
        self.warmup_prefetches = 0    # counters at the warm-up boundary
        self.warmup_lookups = 0
        self.arb_lost_cycles = 0
        self.finished = False
        self.result: Optional[SimResult] = None

    @property
    def pending_instrs(self) -> int:
        """ICOUNT metric: instructions fetched-ahead but undelivered."""
        n = self.ftq_instrs
        if self.cur is not None:
            n += self.n_ends - self.delivered_in_range
        return n


class SMTMachine(FrontEndBase):
    """N >= 2 hardware threads on one core with a shared front end.

    ``traces`` is one instruction stream per thread, each converted once
    to :class:`ArrayTrace` (an ``ArrayTrace`` is used as is). A single
    thread is :class:`repro.cpu.machine.Machine`'s job.
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
            HardwareThread(tid, as_array_trace(tr), self.params,
                           self.hierarchy)
            for tid, tr in enumerate(traces)
        ]
        self.n_threads = len(self.threads)
        self._ftq_capacity = self.params.core.ftq_entries
        self._ftq_occ = 0
        self._live: List[HardwareThread] = []
        self._register_metrics()

    # -- telemetry ----------------------------------------------------------------

    def _register_metrics(self) -> MetricsRegistry:
        reg = super()._register_metrics()
        reg.gauge("machine.threads", lambda: self.n_threads)
        reg.gauge("ftq.occupancy", lambda: self._ftq_occ)
        reg.gauge("ftq.capacity", lambda: self._ftq_capacity)
        for t in self.threads:
            prefix = f"thread.{t.tid}"
            reg.gauge(f"{prefix}.instructions_delivered",
                      lambda t=t: t.delivered)
            reg.gauge(f"{prefix}.ftq_occupancy", lambda t=t: len(t.ftq_q))
            reg.gauge(f"{prefix}.arb_lost_cycles",
                      lambda t=t: t.arb_lost_cycles)
        return reg

    # -- per-cycle stages ---------------------------------------------------------

    def _run_bpu(self, t: HardwareThread) -> None:
        """Produce up to ``bpu_ranges_per_cycle`` ranges for one thread."""
        build_next = t.builder.build_next
        ftq_append = t.ftq_q.append
        fdip_append = t.fdip_queue.append if self._fdip_on else None
        capacity = self._ftq_capacity
        for _ in range(self._bpu_ranges_per_cycle):
            if self._ftq_occ >= capacity:
                return
            fetch_range = build_next()
            if fetch_range is None:
                return
            ftq_append(fetch_range)
            t.ftq_instrs += len(fetch_range.instr_ends)
            self._ftq_occ += 1
            if fdip_append is not None:
                fdip_append(fetch_range)

    def _run_fdip(self, cycle: int) -> None:
        """Issue FDIP prefetches from the threads' pending ranges.

        One shared prefetch budget per cycle; issues rotate round-robin
        across threads with work. Probe/merge pops cost no budget and do
        not rotate (matching ``Machine``, where they are skipped within the
        same cycle's scan).
        """
        mshr = self.mshr
        probe = self.icache.probe_range
        fetch_block = self.hierarchy.fetch_block
        fills = self._fills
        rec = self._rec
        budget = self._fdip_degree
        live = self._live
        n = len(live)
        issued = 0
        k = cycle % n if n else 0
        scanned_empty = 0
        while issued < budget and scanned_empty < n:
            t = live[k]
            queue = t.fdip_queue
            if not queue:
                k = (k + 1) % n
                scanned_empty += 1
                continue
            if mshr.full(cycle):
                return
            fr = queue[0]
            start = fr.start + t.addr_offset
            if probe(start, fr.nbytes):
                queue.popleft()
                continue
            block_addr = start & ~63
            if mshr.lookup(block_addr, cycle) is not None:
                queue.popleft()
                continue
            fill_at = cycle + fetch_block(block_addr, cycle)
            mshr.allocate(block_addr, fill_at, cycle)
            heapq.heappush(fills, (fill_at, block_addr))
            t.stats.prefetches_issued += 1
            if rec is not None:
                rec.emit(EV_MSHR, cycle, block=block_addr, fill=fill_at,
                         source="fdip", thread=t.tid)
            queue.popleft()
            issued += 1
            scanned_empty = 0
            k = (k + 1) % n

    # -- main loop -------------------------------------------------------------------

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
        for t, (warmup, measure) in zip(threads, windows):
            t.total = self._check_window(len(t.trace), warmup, measure,
                                         f"thread {t.tid}: ")
            t.measure = measure
            t.warmup_boundary = warmup if warmup > 0 else 1

        icache = self.icache
        icache.recording = False
        rec = self._rec
        rec_hits = rec is not None and rec.record_hits
        lookup = icache.lookup
        process_fills = self._process_fills
        run_bpu = self._run_bpu
        run_fdip = self._run_fdip
        fills = self._fills
        mshr = self.mshr
        ftq_capacity = self._ftq_capacity
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
                if t.pending_resteer is not None \
                        and cycle >= t.pending_resteer[0]:
                    t.builder.resume()
                    t.pending_resteer = None
            # The BPU build port serves one thread per cycle, round-robin
            # over eligible threads (builder has work and the FTQ pool has
            # room).
            if self._ftq_occ < ftq_capacity:
                n_live = len(live)
                for k in range(n_live):
                    t = live[(cycle + k) % n_live]
                    builder = t.builder
                    if not builder.blocked and not builder.exhausted:
                        run_bpu(t)
                        break
            for t in live:
                if t.fdip_queue:
                    run_fdip(cycle)
                    break

            if rec is not None and (cycle & _FTQ_SAMPLE_MASK) == 0:
                for t in live:
                    rec.emit(EV_FTQ, cycle, occupancy=len(t.ftq_q),
                             mshr=len(mshr), thread=t.tid)

            # Classify every live thread: blocked (accrue one stall
            # cycle), idle (no fetchable work), or fetchable.
            fetchable: List[HardwareThread] = []
            all_blocked = True
            for t in live:
                if cycle < t.blocked_until:
                    if t.measuring:
                        kind = t.blocked_kind
                        if kind == _STALL_MISS:
                            t.stats.fetch_stall_cycles += 1
                        elif kind == _STALL_RESTEER:
                            t.stats.mispredict_stall_cycles += 1
                        if rec is not None:
                            rec.emit(EV_STALL, cycle,
                                     cause=_STALL_NAMES.get(kind, "unknown"),
                                     cycles=1, pc=t.stall_pc, thread=t.tid)
                    continue
                all_blocked = False
                t.blocked_kind = 0
                if t.cur is None and not t.ftq_q:
                    # FTQ empty: blocked behind a resteer or starved.
                    if t.pending_resteer is not None and t.measuring:
                        t.stats.mispredict_stall_cycles += 1
                        if rec is not None:
                            rec.emit(EV_STALL, cycle, cause="resteer",
                                     cycles=1, pc=t.stall_pc, thread=t.tid)
                    continue
                fetchable.append(t)

            if fetchable:
                if len(fetchable) == 1:
                    winner = fetchable[0]
                else:
                    if policy_icount:
                        winner = min(
                            fetchable,
                            key=lambda t: (t.pending_instrs,
                                           (t.tid - cycle) % n_threads))
                    else:
                        winner = min(
                            fetchable,
                            key=lambda t: (t.tid - cycle) % n_threads)
                    for t in fetchable:
                        if t is not winner and t.measuring:
                            t.arb_lost_cycles += 1
                if self._fetch_step(winner, cycle, lookup, rec, rec_hits) \
                        and winner.delivered >= winner.total:
                    self._retire(winner)
            elif all_blocked:
                cycle = self._skip_stalls(cycle)
            cycle += 1

        self.cycle = cycle
        self.wall_seconds = perf_counter() - wall_start
        for t in threads:
            t.result = self._finish_thread(t)
        return self._composite_result()

    # -- fetch stage --------------------------------------------------------------

    def _fetch_step(self, t: HardwareThread, cycle: int, lookup,
                    rec, rec_hits: bool) -> bool:
        """One fetch-port cycle for ``t``; True when a chunk delivered."""
        cur = t.cur
        if cur is None:
            cur = t.ftq_q.popleft()
            self._ftq_occ -= 1
            t.ftq_instrs -= len(cur.instr_ends)
            t.cur = cur
            t.cur_byte = cur.start
            t.cur_end = cur.start + cur.nbytes
            t.n_ends = len(cur.instr_ends)
            t.delivered_in_range = 0
            t.cur_segs = t.range_segs[t.range_seq]
            t.range_seq += 1
            t.seg_idx = 0

        backend = t.backend
        count = backend._count
        if count >= backend._rob and backend._ring[count % backend._rob] \
                > cycle + backend._decode_latency:
            t.blocked_until = max(cycle + 1, backend.rob_free_cycle())
            t.blocked_kind = _STALL_BACKEND
            t.stall_pc = t.cur_byte
            return False

        chunk_end, i = t.cur_segs[t.seg_idx]
        n_ready = i - t.delivered_in_range
        cur_byte = t.cur_byte

        result = lookup(cur_byte + t.addr_offset, chunk_end - cur_byte)
        if result.kind is not _HIT:
            t.stall_pc = cur_byte
            if rec is not None:
                rec.emit(EV_L1I, cycle, result=result.kind.name,
                         pc=cur_byte, nbytes=chunk_end - cur_byte,
                         thread=t.tid)
            t.blocked_until = self._handle_miss(result.block_addr, cycle,
                                                t.stats, t.tag)
            t.blocked_kind = _STALL_MISS
            if t.measuring:
                t.stats.fetch_stall_cycles += 1
                self._count_miss(t, result.kind)
                if rec is not None:
                    rec.emit(EV_STALL, cycle, cause="miss", cycles=1,
                             pc=cur_byte, thread=t.tid)
            return False
        if t.measuring:
            t.stats.l1i_hits += 1
        if rec_hits:
            rec.emit(EV_L1I, cycle, result="HIT", pc=cur_byte,
                     nbytes=chunk_end - cur_byte, thread=t.tid)

        # Deliver the completed instructions to this thread's back-end.
        accept = t.accept
        trace = t.trace
        last_complete = 0
        base = cur.first_index + t.delivered_in_range
        n_accept = n_ready
        if t.delivered + n_accept > t.total:
            n_accept = t.total - t.delivered
        if not t.measuring and n_accept \
                and t.delivered + n_accept >= t.warmup_boundary:
            # The warm-up boundary falls inside this chunk: split it so
            # the window opens on the exact instruction.
            n1 = t.warmup_boundary - t.delivered
            last_complete, t.last_commit = accept(trace, base, n1, cycle)
            t.delivered += n1
            t.measuring = True
            t.warmup_commit = t.last_commit
            t.warmup_prefetches = t.stats.prefetches_issued
            t.warmup_lookups = t.bpu.cond_lookups
            n2 = n_accept - n1
            if n2:
                last_complete, t.last_commit = accept(trace, base + n1, n2,
                                                      cycle)
                t.delivered += n2
        elif n_accept:
            last_complete, t.last_commit = accept(trace, base, n_accept,
                                                  cycle)
            t.delivered += n_accept
        t.delivered_in_range = i
        t.seg_idx += 1
        t.cur_byte = chunk_end

        if t.cur_byte >= t.cur_end and t.delivered < t.total:
            if cur.resteer is not Resteer.NONE \
                    and t.delivered_in_range >= t.n_ends:
                if cur.resteer is Resteer.DECODE:
                    resume = cycle + self.params.core.btb_resteer_penalty
                    if t.measuring:
                        t.stats.btb_resteers += 1
                else:
                    resume = last_complete + 1
                    if t.measuring:
                        t.stats.branch_mispredicts += 1
                t.pending_resteer = (resume, int(cur.resteer))
                t.blocked_until = resume
                t.blocked_kind = _STALL_RESTEER
                t.stall_pc = t.pc_col[cur.first_index + t.n_ends - 1]
            t.cur = None
        return True

    @staticmethod
    def _count_miss(t: HardwareThread, kind: MissKind) -> None:
        """Per-thread miss attribution.

        ``Machine`` reads the cache's own counters (snapshot-delta); a
        co-run cannot — every thread bumps the same counters — so misses
        are classified here from the lookup result, which corresponds
        1:1 with what the cache counts.
        """
        stats = t.stats
        stats.l1i_misses += 1
        if kind is MissKind.MISSING_SUBBLOCK:
            stats.l1i_partial_missing += 1
        elif kind is MissKind.OVERRUN:
            stats.l1i_partial_overrun += 1
        elif kind is MissKind.UNDERRUN:
            stats.l1i_partial_underrun += 1

    # -- helpers -----------------------------------------------------------------------

    def _skip_stalls(self, cycle: int) -> int:
        """Fast-forward when every live thread is blocked and every
        builder is idle; accrues the skipped cycles to each thread under
        its own stall kind. Event timing is unchanged — identical to
        ``Machine._maybe_skip`` generalised over threads."""
        live = self._live
        ftq_full = self._ftq_occ >= self._ftq_capacity
        for t in live:
            builder = t.builder
            if not (ftq_full or builder.blocked or builder.exhausted):
                return cycle
        target = min(t.blocked_until for t in live)
        if any(t.fdip_queue for t in live):
            # FDIP can resume as soon as a fill frees an MSHR entry.
            if not self.mshr.full(cycle):
                return cycle
            next_fill = self._fills[0][0] if self._fills else target
            target = min(target, next_fill)
        skip = target - (cycle + 1)
        if skip <= 0:
            return cycle
        rec = self._rec
        for t in live:
            if not t.measuring:
                continue
            kind = t.blocked_kind
            if kind == _STALL_MISS:
                t.stats.fetch_stall_cycles += skip
            elif kind == _STALL_RESTEER:
                t.stats.mispredict_stall_cycles += skip
            if rec is not None:
                rec.emit(EV_STALL, cycle,
                         cause=_STALL_NAMES.get(kind, "unknown"),
                         cycles=skip, pc=t.stall_pc, thread=t.tid)
        return cycle + skip

    def _retire(self, t: HardwareThread) -> None:
        """A thread hit its instruction total: release its shared-pool
        claims so the survivors share the whole front end."""
        t.finished = True
        self._live.remove(t)
        self._ftq_occ -= len(t.ftq_q)
        t.ftq_q.clear()
        t.ftq_instrs = 0
        t.fdip_queue.clear()
        t.cur = None

    # -- results -----------------------------------------------------------------------

    def _finish_thread(self, t: HardwareThread) -> SimResult:
        stats = t.stats
        stats.branch_lookups = t.bpu.cond_lookups - t.warmup_lookups
        return self._window_result(
            stats, t.measure, t.warmup_commit, t.last_commit,
            stats.prefetches_issued - t.warmup_prefetches, t.tag,
            thread=t.tid, arb_lost_cycles=t.arb_lost_cycles)

    def _composite_result(self) -> SimResult:
        threads = self.threads
        combined = FrontEndStats(**{
            f.name: sum(getattr(t.stats, f.name) for t in threads)
            for f in fields(FrontEndStats)})
        return SimResult(
            workload="", config="",
            instructions=sum(t.measure for t in threads),
            cycles=max(t.result.cycles for t in threads),
            frontend=combined,
            efficiency=None,
            extra={
                "smt": {
                    "policy": self.policy,
                    "n_threads": self.n_threads,
                    "corun_cycles": self.cycle,
                },
                "threads": [t.result.to_dict() for t in threads],
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
    for thread, comp in zip(machine.threads, components):
        thread.name = comp.name
    result = machine.run([w.windows() for w in components])
    result.workload = workload.name
    result.config = config
    for comp, tdict in zip(components, result.extra["threads"]):
        tdict["workload"] = comp.name
        tdict["config"] = config
    return result
