"""Reference oracle: the per-instruction fetch-range walk.

A deliberately plain re-statement of :class:`repro.frontend.ftq.RangeBuilder`
over ``Instruction`` objects: visit every instruction, feed each branch
to the BPU, and close the range at a predicted-taken branch, a 64-byte
boundary or a resteer. The simulator's columnar builder jumps over
straight-line segments with a binary search instead; the oracle tests
assert both emit the same ranges and leave the same BPU counters.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import SimulationError
from repro.frontend.bpu import BranchPredictionUnit, Resteer
from repro.frontend.ftq import FetchRange
from repro.trace.record import IS_BRANCH, Instruction


class ScalarRangeBuilder:
    """The :class:`RangeBuilder` protocol, one instruction at a time."""

    def __init__(self, trace: Sequence[Instruction],
                 bpu: BranchPredictionUnit) -> None:
        self.trace = trace
        self.bpu = bpu
        self.index = 0
        self._next_byte: Optional[int] = None
        self.blocked = False

    @property
    def exhausted(self) -> bool:
        return self.index >= len(self.trace) and self._next_byte is None

    def resume(self) -> None:
        self.blocked = False

    def build_next(self) -> Optional[FetchRange]:
        if self.blocked or self.exhausted:
            return None
        trace = self.trace
        idx = self.index
        start = (self._next_byte if self._next_byte is not None
                 else trace[idx].pc)
        block_end = (start | 63) + 1
        instr_ends: List[int] = []
        end = start
        resteer = Resteer.NONE
        straddle = False
        while idx < len(trace):
            ins = trace[idx]
            ins_end = ins.pc + ins.size
            if ins_end > block_end:
                # Straddles the block boundary: completes in the
                # continuation range that starts at the boundary.
                end = block_end
                straddle = True
                break
            end = ins_end
            instr_ends.append(ins_end)
            idx += 1
            if IS_BRANCH[ins.kind]:
                resteer = self.bpu.process_raw(ins.kind, ins.pc, ins.size,
                                               ins.taken, ins.target)
                if resteer != Resteer.NONE:
                    self.blocked = True
                    break
                if ins.taken:
                    break
            if ins_end == block_end:
                break
        if end == start:
            raise SimulationError("built an empty fetch range")
        self.index = idx
        self._next_byte = block_end if straddle else None
        return FetchRange(start, end - start, idx - len(instr_ends),
                          tuple(instr_ends), resteer)
