"""The full machine: decoupled FDIP front-end + OoO back-end.

The front-end is simulated cycle by cycle:

* the BPU runs ahead of fetch, turning the trace into fetch ranges pushed
  into the FTQ (stopping at resteer-causing branches);
* FDIP walks newly created FTQ entries and prefetches the blocks they
  touch into the L1-I (for UBS: into the usefulness predictor);
* the fetch engine requests up to ``fetch_bytes`` per cycle from the L1-I
  using the start-address + length interface of Section IV-A, delivering
  completed instructions to the back-end scoreboard;
* L1-I misses allocate MSHRs and block fetch until the fill arrives from
  the L2/L3/DRAM hierarchy; mispredicts block fetch until the branch
  resolves in the back-end (BTB misses resteer at decode).

Long stalls are skipped over in bulk once the BPU and FDIP run out of
work, which keeps pure-Python simulation tractable without changing any
event timing.
"""

from __future__ import annotations

import heapq
import re
from collections import deque
from dataclasses import fields as _dataclass_fields, replace
from time import perf_counter
from typing import Deque, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, SimulationError
from ..frontend.bpu import BranchPredictionUnit, Resteer
# ``precompute_range_stream`` is re-exported: by-name patchers of the
# range-stream walk (perfbench/layers.py) rebind it in this module too.
from ..frontend.ftq import (FetchRange, FetchTargetQueue,  # noqa: F401
                            precompute_range_stream, replay_range_stream)
from ..memory.distillation import DistillationICache
from ..memory.hierarchy import MemoryHierarchy
from ..memory.icache import (InstructionCacheBase, ConventionalICache,
                             MissKind)
from ..memory.mshr import MSHRFile
from ..memory.small_block import SmallBlockICache
from ..params import CoreParams, MachineParams, UBSParams, conventional_l1i
from ..stats.counters import FrontEndStats, SimResult
from ..stats.efficiency import EfficiencySampler
from ..telemetry import (
    FTQ as EV_FTQ,
    L1I as EV_L1I,
    MSHR as EV_MSHR,
    NULL_TELEMETRY,
    RUN_SUMMARY,
    STALL as EV_STALL,
    Telemetry,
)
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.profiler import ProfileReport
from ..trace.arrays import as_array_trace
from ..trace.record import Instruction
from ..core.configs import ubs_params_for_budget, way_config
from ..core.predictor import PredictorConfig
from ..core.ubs_cache import UBSICache

_STALL_MISS = 1
_STALL_RESTEER = 2
_STALL_BACKEND = 3

#: Hoisted enum member: the fetch loop compares against it every cycle.
_HIT = MissKind.HIT

#: Event-trace cause names for the ``_STALL_*`` codes.
_STALL_NAMES = {
    _STALL_MISS: "miss",
    _STALL_RESTEER: "resteer",
    _STALL_BACKEND: "backend",
}

#: Cycle mask between FTQ/MSHR occupancy samples when tracing.
_FTQ_SAMPLE_MASK = 255


class FrontEndBase:
    """State and miss/fill plumbing shared by :class:`Machine` and
    :class:`repro.smt.SMTMachine`: one L1-I with its MSHR file, fill
    queue and memory hierarchy, plus the telemetry recorder.

    The miss helpers take the :class:`FrontEndStats` to charge and a
    ``tag`` of extra event fields (``{}`` solo, ``{"thread": tid}`` for
    an SMT hardware thread).
    """

    def __init__(self, icache: InstructionCacheBase,
                 params: Optional[MachineParams],
                 telemetry: Optional[Telemetry]) -> None:
        self.icache = icache
        self.params = params or MachineParams()
        self.hierarchy = MemoryHierarchy(self.params)
        self.mshr = MSHRFile(icache.mshr_entries)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        recorder = self.telemetry.recorder
        # Hot paths test ``self._rec is not None`` — with the default null
        # recorder nothing is ever constructed or emitted.
        self._rec = recorder if recorder.enabled else None
        if self._rec is not None:
            icache.telemetry = recorder
            self.hierarchy.dram.telemetry = recorder
        # Hoisted per-cycle parameters (attribute chains cost in the loop).
        core = self.params.core
        self._fills: List[Tuple[int, int]] = []     # (cycle, block_addr)
        self._prefetcher = core.prefetcher
        self._fdip_on = self._prefetcher == "fdip"
        self._fdip_degree = core.fdip_degree
        self._bpu_ranges_per_cycle = core.bpu_ranges_per_cycle
        self.cycle = 0
        self.wall_seconds = 0.0

    def _process_fills(self, cycle: int) -> None:
        fills = self._fills
        if self._rec is not None and fills and fills[0][0] <= cycle:
            # Let the cache stamp predictor train/install events with the
            # fill cycle (fill() itself has no cycle argument).
            self.icache.now = cycle
        pop = heapq.heappop
        fill = self.icache.fill
        while fills and fills[0][0] <= cycle:
            fill(pop(fills)[1])

    def _handle_miss(self, block_addr: int, cycle: int,
                     stats: FrontEndStats, tag: dict) -> int:
        """Start or join the fill for ``block_addr``; returns its cycle."""
        mshr = self.mshr
        inflight = mshr.lookup(block_addr, cycle)
        if inflight is not None:
            return inflight
        if mshr.full(cycle):
            earliest = mshr.earliest_completion()
            if earliest is None:  # pragma: no cover - defensive
                raise SimulationError("MSHR full but empty")
            return earliest
        latency = self.hierarchy.fetch_block(block_addr, cycle)
        fill_at = cycle + latency
        mshr.allocate(block_addr, fill_at, cycle)
        heapq.heappush(self._fills, (fill_at, block_addr))
        if self._rec is not None:
            self._rec.emit(EV_MSHR, cycle, block=block_addr, fill=fill_at,
                           source="demand", **tag)
        if self._prefetcher == "nextline":
            self._issue_next_lines(block_addr, cycle, stats, tag)
        return fill_at

    def _issue_next_lines(self, block_addr: int, cycle: int,
                          stats: FrontEndStats, tag: dict) -> None:
        """Sequential prefetch of the blocks following a demand miss."""
        mshr = self.mshr
        for i in range(1, self.params.core.nextline_degree + 1):
            addr = block_addr + i * 64
            if mshr.full(cycle):
                return
            if self.icache.probe_range(addr, 1) \
                    or mshr.lookup(addr, cycle) is not None:
                continue
            latency = self.hierarchy.fetch_block(addr, cycle)
            fill_at = cycle + latency
            mshr.allocate(addr, fill_at, cycle)
            heapq.heappush(self._fills, (fill_at, addr))
            stats.prefetches_issued += 1
            if self._rec is not None:
                self._rec.emit(EV_MSHR, cycle, block=addr, fill=fill_at,
                               source="nextline", **tag)


class Machine(FrontEndBase):
    """One simulated core with a configurable L1-I organisation.

    Any instruction sequence is accepted and converted once to the
    columnar :class:`~repro.trace.arrays.ArrayTrace` the simulator runs
    on (an ``ArrayTrace`` input is used as is).
    """

    def __init__(self, trace: Sequence[Instruction],
                 icache: InstructionCacheBase,
                 params: Optional[MachineParams] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        if not trace:
            raise ConfigurationError("empty trace")
        super().__init__(icache, params, telemetry)
        trace = as_array_trace(trace)
        self.trace = trace
        core = self.params.core
        self.bpu = BranchPredictionUnit(self.params.branch)
        # Replay the precomputed range stream (shared through the trace's
        # derived cache) in run().
        self.builder, self._range_segs = replay_range_stream(
            trace, self.bpu, core.fetch_bytes, core.fetch_width)
        self.ftq = FetchTargetQueue(core.ftq_entries)
        from .backend import Backend
        self.backend = Backend(core, self.hierarchy)
        # Precompute the fused delivery ops while still off the measured
        # clock (perfgate times run(), not construction).
        self.backend.bind_trace(trace)

        self._fdip_queue: Deque[FetchRange] = deque()
        self.stats = FrontEndStats()
        self.delivered = 0
        self._last_commit = 0
        self._stall_pc = 0

        self.metrics = MetricsRegistry()
        self._register_metrics()

    # -- telemetry ----------------------------------------------------------------

    def _register_metrics(self) -> None:
        """Expose every component's counters under stable dotted names.

        All registrations are pull-style gauges reading live attributes,
        so the simulator hot paths carry no metrics bookkeeping; call
        ``self.metrics.snapshot()`` at any point for a consistent view.
        """
        reg = self.metrics
        reg.gauge("machine.cycles", lambda: self.cycle)
        reg.gauge("machine.instructions_delivered", lambda: self.delivered)
        stats = self.stats
        for f in _dataclass_fields(FrontEndStats):
            reg.gauge(f"frontend.{f.name}",
                      lambda name=f.name: getattr(stats, name))
        self.ftq.register_metrics(reg)
        reg.gauge("mshr.allocations", lambda: self.mshr.allocations)
        reg.gauge("mshr.merges", lambda: self.mshr.merges)
        reg.gauge("mshr.occupancy", lambda: len(self.mshr))
        reg.gauge("bpu.cond_lookups", lambda: self.bpu.cond_lookups)
        reg.gauge("bpu.mispredicts", lambda: self.bpu.mispredicts)
        self.icache.register_metrics(reg)
        self.hierarchy.register_metrics(reg)

    def profile_report(self) -> Optional[ProfileReport]:
        """The attached profiler's report (None when not profiling)."""
        prof = self.telemetry.profiler
        if prof is None:
            return None
        return prof.report(cycles=self.cycle, instructions=self.delivered)

    # -- per-cycle stages ---------------------------------------------------------

    def _make_run_bpu(self):
        """Build the per-cycle BPU stage as a closure: every otherwise
        per-call rebinding happens once per ``run``."""
        ftq_q = self.ftq._queue
        capacity = self.ftq.capacity
        ftq_append = ftq_q.append
        # ``build_next`` returns None when the builder is blocked or the
        # trace is exhausted, so only the FTQ-full guard is needed here.
        build_next = self.builder.build_next
        fdip_append = self._fdip_queue.append if self._fdip_on else None
        ranges_per_cycle = range(self._bpu_ranges_per_cycle)

        def run_bpu() -> None:
            for _ in ranges_per_cycle:
                if len(ftq_q) >= capacity:
                    return
                fetch_range = build_next()
                if fetch_range is None:
                    return
                ftq_append(fetch_range)
                if fdip_append is not None:
                    fdip_append(fetch_range)

        return run_bpu

    def _make_run_fdip(self):
        """Build the per-cycle FDIP stage as a closure (see _make_run_bpu)."""
        queue = self._fdip_queue
        mshr = self.mshr
        mshr_full = mshr.full
        mshr_lookup = mshr.lookup
        mshr_allocate = mshr.allocate
        probe = self.icache.probe_range
        popleft = queue.popleft
        fetch_block = self.hierarchy.fetch_block
        fills = self._fills
        push = heapq.heappush
        rec = self._rec
        stats = self.stats
        budget = self._fdip_degree

        def run_fdip(cycle: int) -> None:
            issued = 0
            while queue and issued < budget:
                if mshr_full(cycle):
                    return
                fr = queue[0]
                start = fr.start
                if probe(start, fr.nbytes):
                    popleft()
                    continue
                block_addr = start & ~63
                if mshr_lookup(block_addr, cycle) is not None:
                    popleft()
                    continue
                fill_at = cycle + fetch_block(block_addr, cycle)
                mshr_allocate(block_addr, fill_at, cycle)
                push(fills, (fill_at, block_addr))
                stats.prefetches_issued += 1
                if rec is not None:
                    rec.emit(EV_MSHR, cycle, block=block_addr,
                             fill=fill_at, source="fdip")
                popleft()
                issued += 1

        return run_fdip

    # -- main loop -------------------------------------------------------------------

    def run(self, warmup: int, measure: int,
            sample_efficiency: bool = True,
            efficiency_interval: Optional[int] = None) -> SimResult:
        """Simulate ``warmup + measure`` instructions; report the measured
        window. The efficiency sampling interval defaults to ~1/75th of the
        measured window (the paper's 100K cycles is ~1/1000th of its 50M+
        instruction windows; we keep the same spirit at our scale)."""
        total = warmup + measure
        if total > len(self.trace):
            raise ConfigurationError(
                f"trace has {len(self.trace)} instructions, need {total}"
            )
        if efficiency_interval is None:
            efficiency_interval = max(250, measure // 75)
        sampler = EfficiencySampler(efficiency_interval)

        icache = self.icache
        stats = self.stats
        icache.recording = False

        rec = self._rec
        rec_hits = rec is not None and rec.record_hits
        prof = self.telemetry.profiler
        # Stage callables are bound into locals (and wrapped there when
        # profiling), so unprofiled runs never pay the wrapper cost and no
        # component instance is ever monkey-patched.
        process_fills = self._process_fills
        run_bpu = self._make_run_bpu()
        run_fdip = self._make_run_fdip()
        maybe_skip = self._maybe_skip
        lookup = icache.lookup
        accept = self.backend.accept_range_arrays
        if prof is not None:
            process_fills = prof.wrap("fills", process_fills)
            run_bpu = prof.wrap("bpu", run_bpu)
            run_fdip = prof.wrap("fdip", run_fdip)
            lookup = prof.wrap("fetch", lookup)
            accept = prof.wrap("backend", accept)
            prof.start()
        wall_start = perf_counter()

        # Fetch state.
        cur: Optional[FetchRange] = None
        cur_byte = 0
        cur_end = 0
        n_ends = 0
        delivered_in_range = 0
        cur_segs: List[Tuple[int, int]] = []
        seg_idx = 0
        range_segs = self._range_segs
        range_seq = 0
        blocked_until = 0
        blocked_kind = 0
        pending_resteer: Optional[Tuple[int, int]] = None  # (resume, kind)
        measuring = False
        warmup_commit = 0
        warmup_snapshot = None
        # The measured window opens after the instruction that reaches the
        # warm-up count — with warmup=0, after the very first instruction
        # (the per-instruction flip check ran after each accept).
        warmup_boundary = warmup if warmup > 0 else 1

        # Hot-loop locals: every name inside the cycle loop resolves in the
        # frame instead of through attribute chains. ``self.cycle`` is
        # synced back around dispatched helpers (which tests may patch) and
        # at loop exit, together with ``self.delivered``/``self._last_commit``.
        btb_penalty = self.params.core.btb_resteer_penalty
        trace = self.trace
        pc_col = trace.pc
        fills = self._fills
        fdip_queue = self._fdip_queue
        ftq_q = self.ftq._queue
        ftq_capacity = self.ftq.capacity
        builder = self.builder
        mshr = self.mshr
        backend = self.backend
        rob_ring = backend._ring
        rob_cap = backend._rob
        decode_lat = backend._decode_latency
        rob_free_cycle = backend.rob_free_cycle
        maybe_sample = sampler.maybe_sample
        next_sample = sampler._next_sample
        resteer_none = Resteer.NONE
        resteer_decode = Resteer.DECODE
        cycle = self.cycle
        delivered = self.delivered
        last_commit = self._last_commit

        while delivered < total:
            if fills and fills[0][0] <= cycle:
                process_fills(cycle)
            # Resume BPU run-ahead once a resteer has resolved.
            if pending_resteer is not None and cycle >= pending_resteer[0]:
                builder.resume()
                pending_resteer = None
            if not builder.blocked and len(ftq_q) < ftq_capacity:
                run_bpu()
            if fdip_queue:
                run_fdip(cycle)

            if rec is not None and (cycle & _FTQ_SAMPLE_MASK) == 0:
                rec.emit(EV_FTQ, cycle, occupancy=len(ftq_q),
                         mshr=len(mshr))

            if cycle < blocked_until:
                # Inlined _account_stall(blocked_kind, 1, measuring).
                if measuring:
                    if blocked_kind == _STALL_MISS:
                        stats.fetch_stall_cycles += 1
                    elif blocked_kind == _STALL_RESTEER:
                        stats.mispredict_stall_cycles += 1
                    if rec is not None:
                        rec.emit(EV_STALL, cycle,
                                 cause=_STALL_NAMES.get(blocked_kind,
                                                        "unknown"),
                                 cycles=1, pc=self._stall_pc)
                self.cycle = cycle
                maybe_skip(blocked_until, blocked_kind, measuring)
                cycle = self.cycle
                if measuring and sample_efficiency and cycle >= next_sample:
                    maybe_sample(icache, cycle)
                    next_sample = sampler._next_sample
                cycle += 1
                continue
            blocked_kind = 0

            if cur is None:
                if not ftq_q:
                    # FTQ empty: either the BPU is blocked behind a resteer
                    # (fetch waits for it) or run-ahead starved this cycle.
                    if pending_resteer is not None and measuring:
                        # Inlined _account_stall(_STALL_RESTEER, 1, ...).
                        stats.mispredict_stall_cycles += 1
                        if rec is not None:
                            rec.emit(EV_STALL, cycle, cause="resteer",
                                     cycles=1, pc=self._stall_pc)
                    cycle += 1
                    continue
                cur = ftq_q.popleft()
                cur_byte = cur.start
                cur_end = cur_byte + cur.nbytes
                n_ends = len(cur.instr_ends)
                delivered_in_range = 0
                # Per-cycle delivery chunks: ranges pop in emission
                # order, so the precomputed stream aligns by sequence
                # number.
                cur_segs = range_segs[range_seq]
                range_seq += 1
                seg_idx = 0

            # Inlined backend.rob_has_space(cycle).
            count = backend._count
            if count >= rob_cap \
                    and rob_ring[count % rob_cap] > cycle + decode_lat:
                blocked_until = max(cycle + 1, rob_free_cycle())
                blocked_kind = _STALL_BACKEND
                self._stall_pc = cur_byte
                cycle += 1
                continue

            # This cycle's chunk (bytes up to the fetch bandwidth,
            # instructions up to the fetch width) comes precomputed;
            # a stalled chunk is simply retried at the same seg_idx.
            chunk_end, i = cur_segs[seg_idx]
            n_ready = i - delivered_in_range

            result = lookup(cur_byte, chunk_end - cur_byte)
            if result.kind is not _HIT:
                self._stall_pc = cur_byte
                if rec is not None:
                    rec.emit(EV_L1I, cycle, result=result.kind.name,
                             pc=cur_byte, nbytes=chunk_end - cur_byte)
                blocked_until = self._handle_miss(result.block_addr, cycle,
                                                  stats, {})
                blocked_kind = _STALL_MISS
                # Inlined _account_stall(_STALL_MISS, 1, measuring).
                if measuring:
                    stats.fetch_stall_cycles += 1
                    if rec is not None:
                        rec.emit(EV_STALL, cycle, cause="miss", cycles=1,
                                 pc=cur_byte)
                cycle += 1
                continue
            if rec_hits:
                rec.emit(EV_L1I, cycle, result="HIT", pc=cur_byte,
                         nbytes=chunk_end - cur_byte)

            # Deliver the completed instructions to the back-end in one
            # chunked call (identical timing to per-instruction accept).
            last_complete = 0
            base = cur.first_index + delivered_in_range
            n_accept = n_ready
            if delivered + n_accept > total:
                n_accept = total - delivered
            if not measuring and n_accept \
                    and delivered + n_accept >= warmup_boundary:
                # The warm-up boundary falls inside this chunk: split it so
                # the snapshot is taken at the exact instruction.
                n1 = warmup_boundary - delivered
                last_complete, last_commit = accept(trace, base, n1, cycle)
                delivered += n1
                measuring = True
                warmup_commit = last_commit
                icache.recording = True
                icache.reset_stats()
                self.cycle = cycle
                self.delivered = delivered
                warmup_snapshot = self._snapshot()
                sampler.reset(cycle)
                next_sample = sampler._next_sample
                n2 = n_accept - n1
                if n2:
                    last_complete, last_commit = accept(trace, base + n1,
                                                        n2, cycle)
                    delivered += n2
            elif n_accept:
                last_complete, last_commit = accept(trace, base, n_accept,
                                                    cycle)
                delivered += n_accept
            delivered_in_range = i
            seg_idx += 1
            cur_byte = chunk_end

            if cur_byte >= cur_end and delivered < total:
                if cur.resteer is not resteer_none \
                        and delivered_in_range >= n_ends:
                    if cur.resteer is resteer_decode:
                        resume = cycle + btb_penalty
                        if measuring:
                            stats.btb_resteers += 1
                    else:
                        resume = last_complete + 1
                        if measuring:
                            stats.branch_mispredicts += 1
                    pending_resteer = (resume, int(cur.resteer))
                    blocked_until = resume
                    blocked_kind = _STALL_RESTEER
                    # Attribute the resteer stall to the causing branch.
                    self._stall_pc = pc_col[cur.first_index + n_ends - 1]
                cur = None

            if measuring and sample_efficiency and cycle >= next_sample:
                maybe_sample(icache, cycle)
                next_sample = sampler._next_sample
            cycle += 1

        self.cycle = cycle
        self.delivered = delivered
        self._last_commit = last_commit
        if prof is not None:
            prof.stop()
        self.wall_seconds = perf_counter() - wall_start
        return self._finish(warmup_commit, warmup_snapshot, measure,
                            sampler if sample_efficiency else None)

    # -- helpers -----------------------------------------------------------------------

    def _account_stall(self, kind: int, cycles: int, measuring: bool) -> None:
        if not measuring or not cycles:
            return
        if kind == _STALL_MISS:
            self.stats.fetch_stall_cycles += cycles
        elif kind == _STALL_RESTEER:
            self.stats.mispredict_stall_cycles += cycles
        if self._rec is not None:
            self._rec.emit(EV_STALL, self.cycle,
                           cause=_STALL_NAMES.get(kind, "unknown"),
                           cycles=cycles, pc=self._stall_pc)

    def _maybe_skip(self, blocked_until: int, kind: int,
                    measuring: bool) -> None:
        """Fast-forward through a stall once the BPU and FDIP are idle."""
        bpu_idle = (self.ftq.full or self.builder.blocked
                    or self.builder.exhausted)
        if not bpu_idle:
            return
        target = blocked_until
        if self._fdip_queue:
            # FDIP can resume as soon as a fill frees an MSHR entry.
            if not self.mshr.full(self.cycle):
                return
            next_fill = self._fills[0][0] if self._fills else blocked_until
            target = min(blocked_until, next_fill)
        skip = target - (self.cycle + 1)
        if skip > 0:
            self._account_stall(kind, skip, measuring)
            self.cycle += skip

    def _snapshot(self) -> dict:
        return {
            "hits": self.icache.hits,
            "misses": self.icache.misses,
            "prefetches": self.stats.prefetches_issued,
            "bpu_lookups": self.bpu.cond_lookups,
            "bpu_mispredicts": self.bpu.mispredicts,
        }

    def _finish(self, warmup_commit: int, snapshot: Optional[dict],
                measure: int,
                sampler: Optional[EfficiencySampler]) -> SimResult:
        snapshot = snapshot or {
            "hits": 0, "misses": 0, "prefetches": 0,
            "bpu_lookups": 0, "bpu_mispredicts": 0,
        }
        stats = self.stats
        stats.l1i_hits = self.icache.hits - snapshot["hits"]
        stats.l1i_misses = self.icache.misses - snapshot["misses"]
        stats.branch_lookups = self.bpu.cond_lookups - snapshot["bpu_lookups"]
        icache = self.icache
        if isinstance(icache, UBSICache):
            stats.l1i_partial_missing = icache.partial_missing
            stats.l1i_partial_overrun = icache.partial_overrun
            stats.l1i_partial_underrun = icache.partial_underrun
        cycles = max(1, self._last_commit - warmup_commit)
        if self._rec is not None:
            self._rec.emit(
                RUN_SUMMARY, self.cycle,
                cycles=cycles, instructions=measure,
                fetch_stall_cycles=stats.fetch_stall_cycles,
                mispredict_stall_cycles=stats.mispredict_stall_cycles,
                l1i_hits=stats.l1i_hits, l1i_misses=stats.l1i_misses,
                partial_misses=stats.partial_misses,
                branch_mispredicts=stats.branch_mispredicts,
                btb_resteers=stats.btb_resteers,
                prefetches_issued=stats.prefetches_issued,
            )
        extra = {
            "block_count": icache.block_count(),
            "prefetches": stats.prefetches_issued - snapshot["prefetches"],
            "dram_accesses": self.hierarchy.dram.accesses,
        }
        if sampler is not None and not sampler.samples:
            sampler.force_sample(icache)
        return SimResult(
            workload="", config="",
            instructions=measure,
            cycles=cycles,
            frontend=stats,
            efficiency=sampler.summary() if sampler else None,
            extra=extra,
        )


def _config_int(config: str, field: str) -> int:
    """The numeric ``field`` of configuration name ``config``."""
    try:
        return int(field)
    except ValueError:
        raise ConfigurationError(
            f"malformed number {field!r} in L1-I configuration {config!r}"
        ) from None


def build_icache(config: str) -> InstructionCacheBase:
    """Build an L1-I from a configuration name.

    Names (used as result-cache keys throughout the benchmarks):

    * ``conv{16,32,64,128,192}``     — conventional caches of that many KB
    * ``conv32_16w``                 — 32 KB with 16 ways / 32 sets
    * ``conv32_{ghrp,acic}``         — replacement/insertion baselines
    * ``distill32``                  — Line Distillation, 32 KB budget
    * ``small{16,32}``               — 16/32-byte-block caches
    * ``ubs``                        — default Table II UBS cache
    * ``ubs_budget{N}``              — UBS scaled to ~N KB of data storage
    * ``ubs_pred_{dm128,sa8lru,sa8fifo,full}`` — predictor variants
    * ``ubs_ways{N}c{1,2}``          — Fig. 16 way-configuration sweep
    * ``ubs_v{s1.s2...}[_p{E}]``     — free-form way-size vector (dotted,
      ascending), optional direct-mapped predictor with E entries; the
      naming used by the :mod:`repro.dse` search for generated points
    """
    if config.startswith("conv"):
        rest = config[4:]
        if rest == "32_16w":
            return ConventionalICache(conventional_l1i(32 * 1024, ways=16))
        for suffix in ("_ghrp", "_acic", "_srrip", "_drrip", "_fifo",
                       "_random"):
            if rest.endswith(suffix):
                size_kb = _config_int(config, rest[:-len(suffix)])
                return ConventionalICache(
                    conventional_l1i(size_kb * 1024,
                                     replacement=suffix[1:]))
        size_kb = _config_int(config, rest)
        ways = 12 if size_kb == 192 else 8
        return ConventionalICache(conventional_l1i(size_kb * 1024, ways=ways))
    if config == "distill32":
        return DistillationICache()
    if config.startswith("small"):
        return SmallBlockICache(block_size=_config_int(config, config[5:]))
    if config == "ubs":
        return UBSICache()
    if config.startswith("ubs_budget"):
        budget_kb = _config_int(config, config[len("ubs_budget"):])
        return UBSICache(ubs_params_for_budget(budget_kb * 1024))
    if config.startswith("ubs_pred_"):
        kind = config[len("ubs_pred_"):]
        table = {
            "dm128": PredictorConfig.direct_mapped(128),
            "sa8lru": PredictorConfig.set_associative(64, 8, "lru"),
            "sa8fifo": PredictorConfig.set_associative(64, 8, "fifo"),
            "full": PredictorConfig.fully_associative(64),
        }
        if kind not in table:
            raise ConfigurationError(f"unknown predictor variant {kind!r}")
        return UBSICache(predictor_config=table[kind])
    if config.startswith("ubs_v"):
        spec = config[len("ubs_v"):]
        fields = spec.split("_")
        try:
            sizes = tuple(int(s) for s in fields[0].split("."))
        except ValueError:
            raise ConfigurationError(
                f"malformed way-size vector in {config!r} "
                "(expected e.g. ubs_v4.8.16.64)"
            ) from None
        predictor = None
        for extra in fields[1:]:
            if extra.startswith("p") and extra[1:].isdigit():
                predictor = PredictorConfig.direct_mapped(int(extra[1:]))
            else:
                raise ConfigurationError(
                    f"unknown ubs_v modifier {extra!r} in {config!r}"
                )
        return UBSICache(UBSParams(way_sizes=sizes),
                         predictor_config=predictor)
    if config.startswith("ubs_ways"):
        n_ways, sep, cfg = config[len("ubs_ways"):].partition("c")
        if not sep:
            raise ConfigurationError(
                f"malformed way configuration in {config!r} "
                "(expected e.g. ubs_ways4c1)")
        sizes = way_config(_config_int(config, n_ways),
                           _config_int(config, cfg))
        return UBSICache(UBSParams(way_sizes=sizes))
    if config.startswith("ubs_gap"):
        return UBSICache(UBSParams(
            run_merge_gap=_config_int(config, config[len("ubs_gap"):])))
    if config.startswith("ubs_win"):
        return UBSICache(
            UBSParams(candidate_window=_config_int(
                config, config[len("ubs_win"):])))
    if config == "ubs_ghrp":
        return UBSICache(UBSParams(replacement="ghrp"))
    if config == "ideal":
        from ..memory.ideal import IdealICache
        return IdealICache()
    raise ConfigurationError(f"unknown L1-I configuration {config!r}")


#: ``<base>_f<N>`` — machine-level FTQ-depth override on any L1-I config
#: (digits required, so ``conv32_fifo`` keeps naming a replacement policy).
_FTQ_SUFFIX = re.compile(r"^(?P<base>.+)_f(?P<ftq>\d+)$")


def split_machine_config(config: str) -> Tuple[str, Optional[MachineParams]]:
    """Split a configuration name into (L1-I config, machine params).

    Config names are pure L1-I organisations except for an optional
    trailing ``_f<N>`` which sets the FTQ depth (a front-end dimension the
    :mod:`repro.dse` search explores). Returns ``(base, None)`` when the
    name carries no machine-level override, so existing configurations
    build byte-identical machines.
    """
    match = _FTQ_SUFFIX.match(config)
    if match is None:
        return config, None
    ftq = int(match.group("ftq"))
    if ftq < 1:
        raise ConfigurationError(
            f"FTQ depth must be positive in configuration {config!r}"
        )
    params = MachineParams(core=replace(CoreParams(), ftq_entries=ftq))
    return match.group("base"), params


def build_machine(trace: Sequence[Instruction], config: str,
                  telemetry: Optional[Telemetry] = None) -> Machine:
    """Build a full :class:`Machine` from a configuration name.

    The one-stop factory used by the experiment runner: handles every
    :func:`build_icache` name plus machine-level suffixes recognised by
    :func:`split_machine_config`.
    """
    base, params = split_machine_config(config)
    return Machine(trace, build_icache(base), params=params,
                   telemetry=telemetry)
