"""Branch prediction unit (combined) tests."""

from repro.frontend.bpu import BranchPredictionUnit, Resteer
from repro.trace.record import Instruction, InstrKind


def process(bpu, ins):
    """Feed one instruction's raw fields to the BPU."""
    return bpu.process_raw(ins.kind, ins.pc, ins.size, ins.taken,
                           ins.target)


def cond(pc, taken, target=0x9000):
    return Instruction(pc, 4, InstrKind.BR_COND, taken=taken, target=target)


class TestConditional:
    def test_learned_branch_no_resteer(self):
        bpu = BranchPredictionUnit()
        for _ in range(60):
            process(bpu, cond(0x1000, True))
        assert process(bpu, cond(0x1000, True)) == Resteer.NONE

    def test_wrong_direction_is_execute_resteer(self):
        bpu = BranchPredictionUnit()
        for _ in range(60):
            process(bpu, cond(0x1000, True))
        assert process(bpu, cond(0x1000, False)) == Resteer.EXECUTE

    def test_taken_with_cold_btb_is_decode_resteer(self):
        bpu = BranchPredictionUnit()
        # Warm the direction predictor on other PCs so this branch
        # predicts taken on first sight.
        for pc in range(0x2000, 0x2100, 4):
            for _ in range(8):
                process(bpu, cond(pc, True))
        result = process(bpu, cond(0x8000, True))
        assert result in (Resteer.DECODE, Resteer.EXECUTE)

    def test_not_taken_needs_no_btb(self):
        bpu = BranchPredictionUnit()
        for _ in range(60):
            process(bpu, cond(0x1000, False))
        assert process(bpu, cond(0x1000, False)) == Resteer.NONE


class TestUnconditional:
    def test_jump_first_sight_decode_resteer(self):
        bpu = BranchPredictionUnit()
        jump = Instruction(0x100, 4, InstrKind.JUMP, taken=True, target=0x500)
        assert process(bpu, jump) == Resteer.DECODE
        assert process(bpu, jump) == Resteer.NONE

    def test_call_pushes_ras(self):
        bpu = BranchPredictionUnit()
        call = Instruction(0x100, 4, InstrKind.CALL, taken=True, target=0x500)
        process(bpu, call)
        ret = Instruction(0x600, 4, InstrKind.RET, taken=True, target=0x104)
        assert process(bpu, ret) == Resteer.NONE

    def test_wrong_return_address_resteers(self):
        bpu = BranchPredictionUnit()
        call = Instruction(0x100, 4, InstrKind.CALL, taken=True, target=0x500)
        process(bpu, call)
        ret = Instruction(0x600, 4, InstrKind.RET, taken=True, target=0xBAD0)
        assert process(bpu, ret) == Resteer.EXECUTE

    def test_empty_ras_return_resteers(self):
        bpu = BranchPredictionUnit()
        ret = Instruction(0x600, 4, InstrKind.RET, taken=True, target=0x104)
        assert process(bpu, ret) == Resteer.EXECUTE


class TestIndirect:
    def test_stable_indirect_learned(self):
        bpu = BranchPredictionUnit()
        ind = Instruction(0x100, 4, InstrKind.BR_IND, taken=True,
                          target=0x700)
        assert process(bpu, ind) == Resteer.EXECUTE   # cold BTB
        assert process(bpu, ind) == Resteer.NONE

    def test_changing_target_resteers(self):
        bpu = BranchPredictionUnit()
        a = Instruction(0x100, 4, InstrKind.BR_IND, taken=True, target=0x700)
        b = Instruction(0x100, 4, InstrKind.BR_IND, taken=True, target=0x900)
        process(bpu, a)
        process(bpu, a)
        assert process(bpu, b) == Resteer.EXECUTE
        assert process(bpu, b) == Resteer.NONE

    def test_indirect_call_pushes_ras(self):
        bpu = BranchPredictionUnit()
        icall = Instruction(0x100, 4, InstrKind.CALL_IND, taken=True,
                            target=0x700)
        process(bpu, icall)
        ret = Instruction(0x800, 4, InstrKind.RET, taken=True, target=0x104)
        assert process(bpu, ret) == Resteer.NONE

    def test_non_branch_is_none(self):
        bpu = BranchPredictionUnit()
        alu = Instruction(0x100, 4, InstrKind.ALU)
        assert process(bpu, alu) == Resteer.NONE
