"""Decoupled front-end: branch prediction and fetch-range construction.

The per-thread FTQ, FDIP and fetch stages are in :mod:`repro.cpu.thread`.
"""

from .perceptron import HashedPerceptron
from .btb import BTB
from .ras import ReturnAddressStack
from .bpu import BranchPredictionUnit, Resteer
from .ftq import FetchRange, RangeBuilder

__all__ = [
    "BTB",
    "BranchPredictionUnit",
    "FetchRange",
    "HashedPerceptron",
    "RangeBuilder",
    "Resteer",
    "ReturnAddressStack",
]
