"""One-pass out-of-order back-end timing model.

Instructions are accepted in fetch order. For each we compute dispatch
(ROB-gated), issue (data dependencies through a register scoreboard),
completion (functional-unit latency; loads/stores are timed through the
memory hierarchy) and in-order commit bounded by the commit width. This is
the standard fast approximation of a ChampSim-style core: front-end-bound
behaviour, dependency chains and memory latency are modelled; scheduler
port conflicts are not (the paper's results are front-end dominated).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..memory.hierarchy import MemoryHierarchy
from ..params import CoreParams
from ..trace.record import EXEC_LATENCY, InstrKind

try:  # pragma: no cover - exercised indirectly on hosts with numpy
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Plain-int kind codes (column reads yield ints, not InstrKind members).
_LOAD_I = int(InstrKind.LOAD)
_STORE_I = int(InstrKind.STORE)


class Backend:
    """Scoreboard-based OoO back-end."""

    __slots__ = ("params", "hierarchy", "_rob", "_ring", "_count",
                 "_reg_ready", "_last_commit", "_commits_this_cycle",
                 "loads", "stores", "_decode_latency", "_commit_width",
                 "_exec_latency", "_ops", "_ops_trace",
                 "_ops_offset", "_l1d_touch", "_l1d_latency",
                 "_data_load_miss", "_data_store_miss")

    def __init__(self, params: CoreParams,
                 hierarchy: MemoryHierarchy) -> None:
        self.params = params
        self.hierarchy = hierarchy
        rob = params.rob_entries
        self._rob = rob
        # commit cycle of instruction (count - rob + slot) lives in slot.
        self._ring: List[int] = [0] * rob
        self._count = 0
        self._reg_ready: List[int] = [0] * 64
        self._last_commit = 0
        self._commits_this_cycle = 0
        self.loads = 0
        self.stores = 0
        # Hoisted per-chunk constants.
        self._decode_latency = params.decode_latency
        self._commit_width = params.commit_width
        # EXEC_LATENCY as a tuple indexed by the InstrKind value.
        self._exec_latency = tuple(
            EXEC_LATENCY[kind] for kind in sorted(EXEC_LATENCY, key=int)
        )
        # Inlined L1-D hit fast path for the delivery loop: the
        # common case (load/store hitting the L1-D) resolves with one
        # bound call instead of going through data_access.
        self._l1d_touch = hierarchy.l1d.touch
        self._l1d_latency = hierarchy.params.l1d.latency
        self._data_load_miss = hierarchy.data_load_miss
        self._data_store_miss = hierarchy.data_store_miss
        # Fused per-instruction op tuples for the delivery loop, lazily
        # bound to one ArrayTrace (see bind_trace).
        self._ops: Optional[List[Tuple[int, int, int, int, int]]] = None
        self._ops_trace = None
        self._ops_offset = 0

    @property
    def instructions(self) -> int:
        return self._count

    def bind_trace(self, trace, addr_offset: int = 0) -> None:
        """Bind the fused op tuples of a columnar ``trace``.

        Each entry is ``(lat, src1, src2, dst, mem_addr)``: ``lat`` is the
        execution latency for plain ops, ``-1`` for loads and ``-2`` for
        stores (which go through the data hierarchy instead), and the
        register fields are pre-masked into scoreboard indices (``-1``
        when the operand is absent). :meth:`accept_range_arrays` then
        does one tuple unpack per instruction instead of five column
        reads plus kind dispatch. ``Machine.__init__`` binds eagerly so
        timed runs never pay for it.

        ``addr_offset`` shifts every data address by a constant — SMT
        co-runs give each hardware thread a disjoint address space while
        sharing one memory hierarchy (see :mod:`repro.smt.machine`).

        The table is a pure function of the trace, the offset and the
        latency table, so it is built once and cached on
        ``trace.derived`` next to the BPU range stream: machines and SMT
        threads over the same trace share one table.
        """
        if trace is self._ops_trace and addr_offset == self._ops_offset:
            return
        key = ("backend_ops", addr_offset, self._exec_latency)
        ops = trace.derived.get(key)
        if ops is None:
            ops = trace.derived[key] = _fused_ops(trace, addr_offset,
                                                  self._exec_latency)
        self._ops = ops
        self._ops_trace = trace
        self._ops_offset = addr_offset

    def rob_has_space(self, cycle: int) -> bool:
        """Can an instruction fetched at ``cycle`` claim a ROB slot?"""
        if self._count < self._rob:
            return True
        # The slot we'd reuse belongs to instruction (count - rob); it must
        # have committed by the time this instruction dispatches.
        return self._ring[self._count % self._rob] \
            <= cycle + self._decode_latency

    def rob_free_cycle(self) -> int:
        """Cycle at which the next ROB slot frees (for stall skip-ahead)."""
        if self._count < self._rob:
            return 0
        return self._ring[self._count % self._rob] - self._decode_latency

    def accept_range_arrays(self, trace, base: int, n: int,
                            fetch_cycle: int) -> Tuple[int, int]:
        """Time ``n`` consecutive instructions ``trace[base:base + n]``
        of a columnar :class:`~repro.trace.arrays.ArrayTrace`, fetched at
        ``fetch_cycle``; returns the last instruction's
        (complete_cycle, commit_cycle).

        The scoreboard state lives in locals for the whole chunk and the
        fused op tuples precomputed by :meth:`bind_trace` cost one tuple
        unpack per instruction — the machine's delivery loop is the
        hottest call site in the simulator."""
        if trace is not self._ops_trace:
            self.bind_trace(trace, self._ops_offset)
        ops = self._ops

        count = self._count
        rob = self._rob
        ring = self._ring
        reg_ready = self._reg_ready
        l1d_touch = self._l1d_touch
        l1d_latency = self._l1d_latency
        data_load_miss = self._data_load_miss
        data_store_miss = self._data_store_miss
        commit_width = self._commit_width
        last_commit = self._last_commit
        commits_this_cycle = self._commits_this_cycle
        loads = self.loads
        stores = self.stores
        base_dispatch = fetch_cycle + self._decode_latency
        complete = 0
        commit = last_commit
        for lat, src1, src2, dst, mem in ops[base:base + n]:
            slot = count % rob
            dispatch = base_dispatch
            if count >= rob:
                slot_free = ring[slot]
                if slot_free > dispatch:
                    dispatch = slot_free

            ready = dispatch
            if src1 >= 0 and reg_ready[src1] > ready:
                ready = reg_ready[src1]
            if src2 >= 0 and reg_ready[src2] > ready:
                ready = reg_ready[src2]

            if lat >= 0:
                complete = ready + lat
            elif lat == -1:
                loads += 1
                if l1d_touch(mem):
                    complete = ready + l1d_latency
                else:
                    complete = ready + data_load_miss(mem, ready)
            else:
                # Stores retire via the store queue; the pipeline only
                # waits for address/data readiness.
                stores += 1
                if not l1d_touch(mem):
                    data_store_miss(mem, ready)
                complete = ready + 1

            if dst >= 0:
                reg_ready[dst] = complete

            if complete > last_commit:
                commit = complete
                commits_this_cycle = 1
            else:
                commit = last_commit
                if commits_this_cycle >= commit_width:
                    commit += 1
                    commits_this_cycle = 1
                else:
                    commits_this_cycle += 1
            last_commit = commit
            ring[slot] = commit
            count += 1

        self._count = count
        self._last_commit = last_commit
        self._commits_this_cycle = commits_this_cycle
        self.loads = loads
        self.stores = stores
        return complete, commit


def _fused_ops(trace, addr_offset: int, exec_latency: Tuple[int, ...],
               ) -> List[Tuple[int, int, int, int, int]]:
    """The :meth:`Backend.bind_trace` op table of ``trace``: one linear
    pass, built whole-column with numpy when available."""
    mem_col = trace.mem_addr
    if addr_offset:
        mem_col = [m + addr_offset for m in mem_col]
    if _np is not None:
        lat_table = _np.array(
            [-1 if k == _LOAD_I else -2 if k == _STORE_I
             else exec_latency[k] for k in range(len(exec_latency))],
            dtype=_np.int64)
        lat = lat_table[_np.frombuffer(trace.kind, dtype=_np.uint8)]
        regs = [
            _np.where(col >= 0, col & 63, -1).tolist()
            for col in (
                _np.frombuffer(trace.src1, dtype=_np.int8),
                _np.frombuffer(trace.src2, dtype=_np.int8),
                _np.frombuffer(trace.dst, dtype=_np.int8),
            )
        ]
        return list(zip(lat.tolist(), regs[0], regs[1], regs[2], mem_col))
    load, store = _LOAD_I, _STORE_I
    return [
        (-1 if k == load else -2 if k == store else exec_latency[k],
         (s1 & 63) if s1 >= 0 else -1,
         (s2 & 63) if s2 >= 0 else -1,
         (d & 63) if d >= 0 else -1,
         m)
        for k, s1, s2, d, m in zip(trace.kind, trace.src1, trace.src2,
                                   trace.dst, mem_col)
    ]
