"""One hardware thread's decoupled front end, stepped cycle by cycle.

:class:`ThreadFrontEnd` is the per-thread half of the cycle kernel. The
machine that drives it owns what threads share: the L1-I, the MSHR file,
the fill queue and the memory hierarchy
(:class:`~repro.cpu.machine.FrontEndBase`). :class:`~repro.cpu.machine.Machine`
runs one thread; :class:`~repro.smt.SMTMachine` arbitrates N of them. Each
thread owns:

* the BPU, replaying the trace's precomputed range stream into the FTQ
  and stopping at resteer-causing branches until the resteer resolves;
* FDIP, prefetching the blocks of newly built FTQ entries into the L1-I
  (for UBS: into the usefulness predictor);
* the fetch engine, requesting up to ``fetch_bytes`` per cycle from the
  L1-I with the start-address + length interface of Section IV-A and
  delivering the completed instructions to its own back-end scoreboard;
* the stall and miss attribution of its measured window, and that
  window's :class:`SimResult`.

L1-I misses block fetch until the fill arrives; mispredicts block it
until the branch resolves in the back-end (BTB misses resteer at decode).

The fetch engine is a generator (:meth:`ThreadFrontEnd._fetch`), so its
hot state stays in the generator frame's locals between cycles; a cycle
of it is one ``step((cycle, grant))``. The BPU and FDIP stages are
closures built once per window. Values other code reads live on the
object and change rarely: ``resume_at`` once per resteer (the machines
read it to skip ``predict`` on cycles it has no work), the current stall
(``blocked_until``, ``blocked_kind``, ``stall_pc``) when a stall starts,
and ``measuring``, ``delivered`` and the warm-up counters once per window.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import TYPE_CHECKING, Callable, Deque, List, Optional

from ..errors import ConfigurationError
from ..frontend.bpu import BranchPredictionUnit, Resteer
from ..frontend.ftq import FetchRange, replay_range_stream
from ..memory.icache import MissKind
from ..stats.counters import FrontEndStats, SimResult
from ..telemetry import (L1I as EV_L1I, MSHR as EV_MSHR, RUN_SUMMARY,
                         STALL as EV_STALL)
from ..trace.arrays import as_array_trace
from .backend import Backend

if TYPE_CHECKING:
    from .machine import FrontEndBase

STALL_MISS = 1
STALL_RESTEER = 2
STALL_BACKEND = 3

#: Event-trace cause names for the ``STALL_*`` codes.
STALL_NAMES = {
    STALL_MISS: "miss",
    STALL_RESTEER: "resteer",
    STALL_BACKEND: "backend",
}

# Outcomes of one ``step``.
BLOCKED = 0     # fetch is stalled; one stall cycle was charged
IDLE = 1        # the FTQ is empty
READY = 2       # could fetch, but was not granted the fetch port
STALLED = 3     # fetched into a full ROB or an L1-I miss
DELIVERED = 4   # delivered one chunk
DONE = 5        # delivered the window's last instruction

#: A cycle no run reaches ("no resteer pending", "no sample due").
NEVER = 1 << 62

#: Hoisted enum members: the fetch step compares against them.
_RESTEER_NONE = Resteer.NONE
_RESTEER_DECODE = Resteer.DECODE
_HIT = MissKind.HIT
_MISSING = MissKind.MISSING_SUBBLOCK
_OVERRUN = MissKind.OVERRUN
_UNDERRUN = MissKind.UNDERRUN


class ThreadFrontEnd:
    """One instruction stream and its private front-end and back-end
    state on ``machine``'s shared L1-I.

    ``tid`` is ``None`` for a single-thread machine; an SMT thread tags
    its events with ``thread=tid`` and maps its addresses
    ``addr_offset`` bytes up before they touch a shared structure.
    """

    __slots__ = ("machine", "tid", "who", "tag", "trace", "addr_offset",
                 "bpu", "builder", "range_segs", "ftq", "fdip_queue",
                 "backend", "stats", "resume_at", "blocked_until",
                 "blocked_kind", "stall_pc", "total", "measure", "delivered",
                 "measuring", "warmup_commit", "last_commit",
                 "warmup_prefetches", "warmup_lookups", "arb_lost_cycles",
                 "finished", "predict", "prefetch", "step")

    def __init__(self, machine: "FrontEndBase", trace,
                 tid: Optional[int] = None, addr_offset: int = 0) -> None:
        self.who = "" if tid is None else f"thread {tid}: "
        trace = as_array_trace(trace)
        if not trace:
            raise ConfigurationError(f"{self.who}empty trace")
        self.machine = machine
        self.tid = tid
        self.tag = {} if tid is None else {"thread": tid}
        self.trace = trace
        self.addr_offset = addr_offset
        core = machine.params.core
        self.bpu = BranchPredictionUnit(machine.params.branch)
        # The range stream and its delivery chunks are shared through the
        # trace's derived cache; the back-end's fused delivery ops are
        # bound here, off the measured clock (perfbench times run()).
        self.builder, self.range_segs = replay_range_stream(
            trace, self.bpu, core.fetch_bytes, core.fetch_width)
        self.ftq: Deque[FetchRange] = deque()
        self.fdip_queue: Deque[FetchRange] = deque()
        self.backend = Backend(core, machine.hierarchy)
        self.backend.bind_trace(trace, addr_offset)
        self.stats = FrontEndStats()
        # Cycle the pending resteer resolves and run-ahead resumes.
        self.resume_at = NEVER
        # The current stall, for the fast-forward.
        self.blocked_until = 0
        self.blocked_kind = 0
        self.stall_pc = 0
        self.total = 0
        self.measure = 0
        self.delivered = 0
        self.measuring = False
        self.warmup_commit = 0
        self.last_commit = 0
        self.warmup_prefetches = 0    # counters at the warm-up boundary
        self.warmup_lookups = 0
        self.arb_lost_cycles = 0
        self.finished = False

    def start(self, warmup: int, measure: int,
              open_window: Optional[Callable[[int], None]] = None) -> None:
        """Open a ``(warmup, measure)`` window and build the stages.

        ``open_window(cycle)`` runs when the measured window opens. The
        stages become attributes:

        * ``predict(cycle, room)`` resumes run-ahead once a resteer has
          resolved, then replays up to ``bpu_ranges_per_cycle`` ranges,
          and at most ``room``, into the FTQ;
        * ``prefetch(cycle, budget)`` issues up to ``budget`` FDIP
          prefetches and returns how many it issued;
        * ``step((cycle, grant))`` is the fetch stage; it returns one of
          ``BLOCKED``...``DONE`` and fetches only when ``grant``.
        """
        machine = self.machine
        if warmup < 0 or measure < 0:
            raise ConfigurationError(f"{self.who}negative window "
                                     f"(warmup={warmup}, measure={measure})")
        total = warmup + measure
        if total > len(self.trace):
            raise ConfigurationError(f"{self.who}trace has {len(self.trace)} "
                                     f"instructions, need {total}")
        self.total = total
        self.measure = measure
        # The measured window opens after the instruction that reaches
        # the warm-up count; with warmup=0, after the very first one.
        warmup_boundary = warmup if warmup > 0 else 1

        stats = self.stats
        tag = self.tag
        rec = machine._rec
        probe = machine.icache.probe_range
        mshr = machine.mshr
        mshr_full = mshr.full
        mshr_lookup = mshr.lookup
        mshr_allocate = mshr.allocate
        fetch_block = machine.hierarchy.fetch_block
        fills = machine._fills
        per_cycle = machine._bpu_ranges_per_cycle
        builder = self.builder
        build_next = builder.build_next
        ftq_append = self.ftq.append
        fdip_queue = self.fdip_queue
        fdip_popleft = fdip_queue.popleft
        fdip_append = fdip_queue.append if machine._fdip_on else None
        addr_offset = self.addr_offset

        def predict(cycle: int, room: int) -> None:
            if cycle >= self.resume_at:
                builder.resume()
                self.resume_at = NEVER
            if room > per_cycle:
                room = per_cycle
            while room > 0 and not builder.blocked:
                fetch_range = build_next()
                if fetch_range is None:
                    return
                ftq_append(fetch_range)
                if fdip_append is not None:
                    fdip_append(fetch_range)
                room -= 1

        def prefetch(cycle: int, budget: int) -> int:
            issued = 0
            while fdip_queue and issued < budget:
                if mshr_full(cycle):
                    break
                fr = fdip_queue[0]
                start = fr.start + addr_offset
                if probe(start, fr.nbytes):
                    fdip_popleft()
                    continue
                block_addr = start & ~63
                if mshr_lookup(block_addr, cycle) is not None:
                    fdip_popleft()
                    continue
                fill_at = cycle + fetch_block(block_addr, cycle)
                mshr_allocate(block_addr, fill_at, cycle)
                heappush(fills, (fill_at, block_addr))
                stats.prefetches_issued += 1
                if rec is not None:
                    rec.emit(EV_MSHR, cycle, block=block_addr, fill=fill_at,
                             source="fdip", **tag)
                fdip_popleft()
                issued += 1
            return issued

        self.predict = predict
        self.prefetch = prefetch
        fetch = self._fetch(total, warmup_boundary, open_window)
        next(fetch)
        self.step = fetch.send

    def _fetch(self, total: int, warmup_boundary: int,
               open_window: Optional[Callable[[int], None]]):
        """The fetch stage as a generator: ``send((cycle, grant))``
        returns the cycle's outcome, and the fetch state stays in this
        frame's locals between cycles."""
        machine = self.machine
        stats = self.stats
        tag = self.tag
        rec = machine._rec
        rec_hits = rec is not None and rec.record_hits
        lookup = machine.icache.lookup
        handle_miss = machine._handle_miss
        btb_penalty = machine.params.core.btb_resteer_penalty
        trace = self.trace
        range_segs = self.range_segs
        ftq = self.ftq
        backend = self.backend
        accept = backend.accept_range_arrays
        rob_ring = backend._ring
        rob_cap = backend._rob
        decode_lat = backend._decode_latency
        addr_offset = self.addr_offset

        cur: Optional[FetchRange] = None
        cur_byte = 0
        cur_end = 0
        n_ends = 0
        delivered_in_range = 0
        cur_segs: List = []
        seg_idx = 0
        range_seq = 0
        blocked_until = 0
        delivered = 0
        measuring = False
        last_commit = 0
        hits = 0
        state = READY
        while True:
            cycle, grant = yield state
            if cycle < blocked_until:
                if measuring:
                    self.accrue(1, cycle)
                state = BLOCKED
                continue

            if cur is None:
                if not ftq:
                    # FTQ empty: either the BPU is blocked behind a resteer
                    # (fetch waits for it) or run-ahead starved this cycle.
                    if measuring and self.resume_at != NEVER:
                        stats.mispredict_stall_cycles += 1
                        if rec is not None:
                            rec.emit(EV_STALL, cycle, cause="resteer",
                                     cycles=1, pc=self.stall_pc, **tag)
                    state = IDLE
                    continue
                if not grant:
                    state = READY
                    continue
                cur = ftq.popleft()
                n_ends = len(cur.instr_ends)
                cur_byte = cur.start
                cur_end = cur_byte + cur.nbytes
                delivered_in_range = 0
                # Ranges pop in emission order, so the precomputed
                # delivery chunks align by sequence number.
                cur_segs = range_segs[range_seq]
                range_seq += 1
                seg_idx = 0
            elif not grant:
                state = READY
                continue

            # Inlined backend.rob_has_space(cycle).
            count = backend._count
            if count >= rob_cap \
                    and rob_ring[count % rob_cap] > cycle + decode_lat:
                self.blocked_until = blocked_until = max(
                    cycle + 1, backend.rob_free_cycle())
                self.blocked_kind = STALL_BACKEND
                self.stall_pc = cur_byte
                state = STALLED
                continue

            # This cycle's chunk (bytes up to the fetch bandwidth,
            # instructions up to the fetch width) comes precomputed; a
            # stalled chunk is simply retried at the same seg_idx.
            chunk_end, i = cur_segs[seg_idx]
            result = lookup(cur_byte + addr_offset, chunk_end - cur_byte)
            if result.kind is not _HIT:
                kind = result.kind
                self.stall_pc = cur_byte
                if rec is not None:
                    rec.emit(EV_L1I, cycle, result=kind.name, pc=cur_byte,
                             nbytes=chunk_end - cur_byte, **tag)
                self.blocked_until = blocked_until = handle_miss(
                    result.block_addr, cycle, stats, tag)
                self.blocked_kind = STALL_MISS
                if measuring:
                    # Every lookup bumps exactly one of the cache's hit
                    # and miss counters, so counting per lookup equals the
                    # cache's own window counts, and stays per thread.
                    stats.fetch_stall_cycles += 1
                    stats.l1i_misses += 1
                    if kind is _MISSING:
                        stats.l1i_partial_missing += 1
                    elif kind is _OVERRUN:
                        stats.l1i_partial_overrun += 1
                    elif kind is _UNDERRUN:
                        stats.l1i_partial_underrun += 1
                    if rec is not None:
                        rec.emit(EV_STALL, cycle, cause="miss", cycles=1,
                                 pc=cur_byte, **tag)
                state = STALLED
                continue
            if measuring:
                hits += 1
            if rec_hits:
                rec.emit(EV_L1I, cycle, result="HIT", pc=cur_byte,
                         nbytes=chunk_end - cur_byte, **tag)

            # Deliver the completed instructions to the back-end in one
            # chunked call (identical timing to per-instruction accept).
            last_complete = 0
            base = cur.first_index + delivered_in_range
            n_accept = i - delivered_in_range
            if delivered + n_accept > total:
                n_accept = total - delivered
            if not measuring and n_accept \
                    and delivered + n_accept >= warmup_boundary:
                # The warm-up boundary falls inside this chunk: split it
                # so the window opens on the exact instruction.
                n1 = warmup_boundary - delivered
                last_complete, last_commit = accept(trace, base, n1, cycle)
                delivered += n1
                measuring = self.measuring = True
                self.warmup_commit = last_commit
                self.warmup_prefetches = stats.prefetches_issued
                self.warmup_lookups = self.bpu.cond_lookups
                if open_window is not None:
                    open_window(cycle)
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

            if delivered >= total:
                self.delivered = delivered
                self.last_commit = last_commit
                stats.l1i_hits = hits
                state = DONE
                continue
            if cur_byte >= cur_end:
                if cur.resteer is not _RESTEER_NONE \
                        and delivered_in_range >= n_ends:
                    if cur.resteer is _RESTEER_DECODE:
                        resume = cycle + btb_penalty
                        if measuring:
                            stats.btb_resteers += 1
                    else:
                        resume = last_complete + 1
                        if measuring:
                            stats.branch_mispredicts += 1
                    self.resume_at = self.blocked_until = blocked_until = \
                        resume
                    self.blocked_kind = STALL_RESTEER
                    # Attribute the resteer stall to the causing branch.
                    self.stall_pc = trace.pc[cur.first_index + n_ends - 1]
                cur = None
            state = DELIVERED

    def accrue(self, n: int, cycle: int) -> None:
        """Charge ``n`` stalled cycles, from ``cycle`` on, to the current
        stall's cause."""
        if not self.measuring:
            return
        stats = self.stats
        kind = self.blocked_kind
        if kind == STALL_MISS:
            stats.fetch_stall_cycles += n
        elif kind == STALL_RESTEER:
            stats.mispredict_stall_cycles += n
        rec = self.machine._rec
        if rec is not None:
            rec.emit(EV_STALL, cycle,
                     cause=STALL_NAMES.get(kind, "unknown"),
                     cycles=n, pc=self.stall_pc, **self.tag)

    def pending(self) -> int:
        """Instructions fetched ahead but not yet delivered. Ranges cover
        the trace in order, so these run from the next instruction to
        deliver (the back-end's count) to the end of the last range
        built."""
        last = self.builder.last_built
        if last is None:
            return 0
        return last.first_index + len(last.instr_ends) - self.backend._count

    def window_result(self, efficiency=None, **extra) -> SimResult:
        """Emit the run summary of the measured window and build its
        :class:`SimResult`; its cycles are the commit span since the
        warm-up boundary. ``extra`` entries follow the shared
        ``block_count``/``prefetches``/``dram_accesses`` ones."""
        machine = self.machine
        stats = self.stats
        stats.branch_lookups = self.bpu.cond_lookups - self.warmup_lookups
        cycles = max(1, self.last_commit - self.warmup_commit)
        if machine._rec is not None:
            machine._rec.emit(
                RUN_SUMMARY, machine.cycle,
                cycles=cycles, instructions=self.measure,
                fetch_stall_cycles=stats.fetch_stall_cycles,
                mispredict_stall_cycles=stats.mispredict_stall_cycles,
                l1i_hits=stats.l1i_hits, l1i_misses=stats.l1i_misses,
                partial_misses=stats.partial_misses,
                branch_mispredicts=stats.branch_mispredicts,
                btb_resteers=stats.btb_resteers,
                prefetches_issued=stats.prefetches_issued,
                **self.tag,
            )
        return SimResult(
            workload="", config="",
            instructions=self.measure,
            cycles=cycles,
            frontend=stats,
            efficiency=efficiency,
            extra={
                "block_count": machine.icache.block_count(),
                "prefetches": stats.prefetches_issued - self.warmup_prefetches,
                "dram_accesses": machine.hierarchy.dram.accesses,
                **extra,
            },
        )
