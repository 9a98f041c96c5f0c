"""Fetch range builder and FTQ tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.frontend.bpu import BranchPredictionUnit, Resteer
from repro.frontend.ftq import FetchRange, FetchTargetQueue, RangeBuilder
from repro.trace.arrays import ArrayTrace
from repro.trace.record import Instruction, InstrKind
from repro.trace.synthesis import generate_trace

from ..conftest import small_spec


def builder_for(trace, bpu=None):
    """A range builder over the columnar form of ``trace``."""
    return RangeBuilder(ArrayTrace.from_instructions(trace),
                        bpu or BranchPredictionUnit())


def straight(pc, n, size=4):
    out = []
    for _ in range(n):
        out.append(Instruction(pc, size, InstrKind.ALU))
        pc += size
    return out


class TestRangeConstruction:
    def test_simple_block_range(self):
        trace = straight(0x1000, 4)
        builder = builder_for(trace)
        fr = builder.build_next()
        assert fr.start == 0x1000
        assert fr.nbytes == 16
        assert fr.n_instrs == 4
        assert fr.resteer == Resteer.NONE

    def test_range_splits_at_block_boundary(self):
        trace = straight(0x1000, 32)   # 128 bytes = 2 blocks
        builder = builder_for(trace)
        fr1 = builder.build_next()
        assert fr1.start == 0x1000 and fr1.nbytes == 64
        fr2 = builder.build_next()
        assert fr2.start == 0x1040 and fr2.nbytes == 64
        assert builder.build_next() is None

    def test_unaligned_start(self):
        trace = straight(0x1030, 8)
        builder = builder_for(trace)
        fr1 = builder.build_next()
        assert fr1.start == 0x1030 and fr1.end == 0x1040
        fr2 = builder.build_next()
        assert fr2.start == 0x1040

    def test_straddling_instruction(self):
        # 15-byte instruction crossing the 64B boundary.
        trace = [
            Instruction(0x1038, 15, InstrKind.ALU),
            Instruction(0x1047, 4, InstrKind.ALU),
        ]
        builder = builder_for(trace)
        fr1 = builder.build_next()
        assert fr1.start == 0x1038 and fr1.end == 0x1040
        assert fr1.n_instrs == 0      # instruction completes later
        fr2 = builder.build_next()
        assert fr2.start == 0x1040
        assert fr2.instr_ends[0] == 0x1047
        assert fr2.n_instrs == 2

    def test_taken_branch_ends_range(self):
        bpu = BranchPredictionUnit()
        jump = Instruction(0x1008, 4, InstrKind.JUMP, taken=True,
                           target=0x2000)
        trace = straight(0x1000, 2) + [jump] + straight(0x2000, 2)
        builder = builder_for(trace, bpu)
        fr1 = builder.build_next()
        # Cold BTB -> decode resteer ends the range and blocks the builder.
        assert fr1.resteer == Resteer.DECODE
        assert fr1.end == 0x100C
        assert builder.build_next() is None
        builder.resume()
        fr2 = builder.build_next()
        assert fr2.start == 0x2000

    def test_learned_taken_branch_continues_at_target(self):
        bpu = BranchPredictionUnit()
        bpu.btb.update(0x1008, 0x2000)
        jump = Instruction(0x1008, 4, InstrKind.JUMP, taken=True,
                           target=0x2000)
        trace = straight(0x1000, 2) + [jump] + straight(0x2000, 2)
        builder = builder_for(trace, bpu)
        fr1 = builder.build_next()
        assert fr1.resteer == Resteer.NONE
        assert not builder.blocked
        fr2 = builder.build_next()
        assert fr2.start == 0x2000

    def test_exhaustion(self):
        trace = straight(0x1000, 2)
        builder = builder_for(trace)
        assert builder.build_next() is not None
        assert builder.exhausted
        assert builder.build_next() is None


class TestRangesCoverTrace:
    def _collect(self, trace):
        bpu = BranchPredictionUnit()
        builder = builder_for(trace, bpu)
        indices = []
        while not builder.exhausted:
            fr = builder.build_next()
            if fr is None:
                builder.resume()
                continue
            start = fr.first_index
            indices.extend(range(start, start + fr.n_instrs))
        return indices

    def test_every_instruction_delivered_exactly_once(self):
        trace = generate_trace(small_spec(), 3000)
        indices = self._collect(trace)
        assert indices == list(range(len(trace)))

    def test_ranges_stay_within_blocks(self):
        trace = generate_trace(small_spec(isa="variable"), 3000)
        bpu = BranchPredictionUnit()
        builder = builder_for(trace, bpu)
        while not builder.exhausted:
            fr = builder.build_next()
            if fr is None:
                builder.resume()
                continue
            assert fr.start >> 6 == (fr.end - 1) >> 6
            assert 0 < fr.nbytes <= 64


class TestFTQ:
    def test_fifo_order(self):
        q = FetchTargetQueue(4)
        frs = [FetchRange(i * 64, 16, 0, (), Resteer.NONE) for i in range(3)]
        for fr in frs:
            q.push(fr)
        assert q.head() is frs[0]
        assert q.pop() is frs[0]
        assert q.pop() is frs[1]

    def test_capacity(self):
        q = FetchTargetQueue(1)
        q.push(FetchRange(0, 16, 0, (), Resteer.NONE))
        assert q.full
        with pytest.raises(SimulationError, match="overflow"):
            q.push(FetchRange(64, 16, 0, (), Resteer.NONE))

    def test_empty(self):
        q = FetchTargetQueue(2)
        assert q.empty
        assert q.head() is None
