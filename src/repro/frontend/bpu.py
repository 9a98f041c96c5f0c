"""The branch prediction unit: perceptron + BTB + RAS, trace-driven.

The BPU runs ahead of fetch along the trace (the correct path). For each
control-flow instruction it produces the prediction the real hardware
would have made and classifies the outcome:

* ``Resteer.NONE``    — predicted correctly; run-ahead continues.
* ``Resteer.DECODE``  — the branch *is* taken but the BTB had no target
  (decode-time resteer once the instruction bytes are available).
* ``Resteer.EXECUTE`` — wrong direction or wrong target; the front-end can
  only recover when the branch executes.

Because the trace contains no wrong-path instructions, a mispredicted
branch simply stops run-ahead until the resteer resolves — equivalent to
flushing the FTQ contents past the branch.
"""

from __future__ import annotations

from enum import IntEnum

from ..params import BranchParams
from ..trace.record import InstrKind
from .btb import BTB
from .perceptron import HashedPerceptron
from .ras import ReturnAddressStack


class Resteer(IntEnum):
    NONE = 0
    DECODE = 1
    EXECUTE = 2


#: Plain-int kind codes: :meth:`BranchPredictionUnit.process_raw` takes
#: the kind as an int so columnar traces can feed it without building
#: ``InstrKind`` members (``IntEnum`` values compare equal to these).
_BR_COND = int(InstrKind.BR_COND)
_JUMP = int(InstrKind.JUMP)
_CALL = int(InstrKind.CALL)
_CALL_IND = int(InstrKind.CALL_IND)
_BR_IND = int(InstrKind.BR_IND)
_RET = int(InstrKind.RET)
_NONE = Resteer.NONE
_DECODE = Resteer.DECODE
_EXECUTE = Resteer.EXECUTE


class BranchPredictionUnit:
    """Combined direction/target predictor operating on trace records."""

    __slots__ = ("params", "direction", "btb", "ras", "cond_lookups",
                 "mispredicts", "btb_resteers", "_predict", "_note_uncond",
                 "_btb_lookup", "_btb_update", "_ras_push", "_ras_pop")

    def __init__(self, params: BranchParams = BranchParams()) -> None:
        self.params = params
        self.direction = HashedPerceptron(params)
        self.btb = BTB(params)
        self.ras = ReturnAddressStack(params.ras_entries)
        self.cond_lookups = 0
        self.mispredicts = 0
        self.btb_resteers = 0
        # Prebound component entry points; ``process_raw`` runs once per
        # control-flow instruction during BPU run-ahead.
        self._predict = self.direction.predict_and_train
        self._note_uncond = self.direction.note_unconditional
        self._btb_lookup = self.btb.lookup
        self._btb_update = self.btb.update
        self._ras_push = self.ras.push
        self._ras_pop = self.ras.pop

    def process_raw(self, kind: int, pc: int, size: int, taken: bool,
                    ins_target: int) -> Resteer:
        """Predict + train on one control-flow instruction, given its raw
        field values (columnar traces feed these without building
        ``Instruction`` objects); classify the resteer the front-end
        would experience."""
        if kind == _BR_COND:
            self.cond_lookups += 1
            predicted_taken = self._predict(pc, taken)
            if predicted_taken != taken:
                self.mispredicts += 1
                if taken:
                    self._btb_update(pc, ins_target)
                return _EXECUTE
            if not taken:
                return _NONE
            target = self._btb_lookup(pc)
            self._btb_update(pc, ins_target)
            if target is None:
                self.btb_resteers += 1
                return _DECODE
            if target != ins_target:
                self.mispredicts += 1
                return _EXECUTE
            return _NONE

        if kind == _JUMP or kind == _CALL:
            self._note_uncond()
            if kind == _CALL:
                self._ras_push(pc + size)
            target = self._btb_lookup(pc)
            self._btb_update(pc, ins_target)
            if target is None:
                # Direct branches resteer at decode: the target is encoded
                # in the instruction bytes.
                self.btb_resteers += 1
                return _DECODE
            if target != ins_target:
                self.mispredicts += 1
                return _EXECUTE
            return _NONE

        if kind == _CALL_IND:
            self._note_uncond()
            self._ras_push(pc + size)
            target = self._btb_lookup(pc)
            self._btb_update(pc, ins_target)
            if target != ins_target:
                self.mispredicts += 1
                return _EXECUTE
            return _NONE

        if kind == _BR_IND:
            self._note_uncond()
            target = self._btb_lookup(pc)
            self._btb_update(pc, ins_target)
            if target != ins_target:
                self.mispredicts += 1
                return _EXECUTE
            return _NONE

        if kind == _RET:
            self._note_uncond()
            predicted = self._ras_pop()
            if predicted != ins_target:
                self.mispredicts += 1
                return _EXECUTE
            return _NONE

        return _NONE
