"""Back-end scoreboard timing-model tests."""

from repro.cpu.backend import Backend
from repro.memory.hierarchy import MemoryHierarchy
from repro.params import CoreParams, MachineParams
from repro.trace.arrays import ArrayTrace
from repro.trace.record import Instruction, InstrKind


def make_backend(**core_overrides):
    params = CoreParams(**core_overrides)
    return Backend(params, MemoryHierarchy(MachineParams(core=params)))


def alu(pc=0, src1=-1, src2=-1, dst=-1):
    return Instruction(pc, 4, InstrKind.ALU, src1=src1, src2=src2, dst=dst)


def deliver(be, instrs, fetch_cycle=0):
    """Time ``instrs`` in order, one single-instruction chunk each;
    returns every instruction's (complete_cycle, commit_cycle)."""
    trace = ArrayTrace.from_instructions(instrs)
    return [be.accept_range_arrays(trace, i, 1, fetch_cycle)
            for i in range(len(instrs))]


class TestDependencies:
    def test_independent_instructions_overlap(self):
        be = make_backend()
        (c1, _), (c2, _) = deliver(be, [alu(dst=1), alu(dst=2)])
        assert c1 == c2  # both execute as soon as dispatched

    def test_dependency_serialises(self):
        be = make_backend()
        (c1, _), (c2, _) = deliver(be, [alu(dst=1), alu(src1=1, dst=2)])
        assert c2 == c1 + 1

    def test_long_latency_op(self):
        be = make_backend()
        fp = Instruction(0, 4, InstrKind.FP, dst=3)
        (c1, _), (c2, _) = deliver(be, [fp, alu(src1=3)])
        assert c1 - c2 != 0 or c2 > c1  # dependent waits for FP latency
        assert c2 >= c1

    def test_load_latency_through_dcache(self):
        be = make_backend()
        load = Instruction(0, 4, InstrKind.LOAD, mem_addr=0x8000, dst=1)
        (c_load, _), (c_alu, _) = deliver(be, [load, alu(pc=4)])
        # The load misses the cold L1-D and completes much later.
        assert c_load > c_alu + 10

    def test_store_does_not_block(self):
        be = make_backend()
        store = Instruction(0, 4, InstrKind.STORE, mem_addr=0x8000)
        ((c_store, _),) = deliver(be, [store])
        assert c_store <= be.params.decode_latency + 2


class TestCommit:
    def test_commit_is_in_order(self):
        be = make_backend()
        load = Instruction(0, 4, InstrKind.LOAD, mem_addr=0x9000, dst=1)
        (_, commit1), (_, commit2) = deliver(be, [load, alu(pc=4)])
        assert commit2 >= commit1  # younger cannot commit first

    def test_commit_width_limit(self):
        be = make_backend(commit_width=2)
        commits = [commit for _, commit in
                   deliver(be, [alu(pc=4 * i) for i in range(6)])]
        # At most two instructions share any commit cycle.
        from collections import Counter
        assert max(Counter(commits).values()) <= 2


class TestROB:
    def test_rob_space_initially(self):
        be = make_backend(rob_entries=4)
        assert be.rob_has_space(0)

    def test_rob_fills_up(self):
        be = make_backend(rob_entries=4)
        # A load that takes very long keeps the ROB head occupied.
        load = Instruction(0, 4, InstrKind.LOAD, mem_addr=0xA000, dst=1)
        deliver(be, [load] + [alu(pc=4 + 4 * i, src1=1) for i in range(3)])
        assert not be.rob_has_space(0)
        assert be.rob_free_cycle() > 0
        assert be.rob_has_space(be.rob_free_cycle() + 1)

    def test_instruction_count(self):
        be = make_backend()
        deliver(be, [alu(pc=4 * i) for i in range(5)])
        assert be.instructions == 5

    def test_load_store_counters(self):
        be = make_backend()
        deliver(be, [Instruction(0, 4, InstrKind.LOAD, mem_addr=64),
                     Instruction(4, 4, InstrKind.STORE, mem_addr=64)])
        assert be.loads == 1 and be.stores == 1


class TestOpTable:
    def _trace(self):
        return ArrayTrace.from_instructions(
            [alu(pc=0, dst=1),
             Instruction(4, 4, InstrKind.LOAD, mem_addr=0x40, src1=1, dst=2),
             Instruction(8, 4, InstrKind.STORE, mem_addr=0x80, src1=2)])

    def test_backends_on_one_trace_share_one_table(self):
        trace = self._trace()
        first, second = make_backend(), make_backend()
        first.bind_trace(trace)
        second.bind_trace(trace)
        assert first._ops is second._ops
        assert first._ops == [(1, -1, -1, 1, 0), (-1, 1, -1, 2, 0x40),
                              (-2, 2, -1, -1, 0x80)]

    def test_address_offset_gets_its_own_table(self):
        trace = self._trace()
        plain, shifted = make_backend(), make_backend()
        plain.bind_trace(trace)
        shifted.bind_trace(trace, 1 << 40)
        assert shifted._ops is not plain._ops
        assert [op[4] for op in shifted._ops] == \
            [m + (1 << 40) for m in (0, 0x40, 0x80)]
        assert [op[:4] for op in shifted._ops] == \
            [op[:4] for op in plain._ops]
