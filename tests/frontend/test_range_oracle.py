"""The columnar :class:`RangeBuilder` against the per-instruction oracle.

Both builders walk the same trace with their own BPU; after every step
they must agree on the emitted range, the blocked/exhausted protocol
and the BPU's counters.
"""

import pytest
from hypothesis import given, settings

from repro.frontend.bpu import BranchPredictionUnit
from repro.frontend.ftq import RangeBuilder
from repro.trace.arrays import ArrayTrace
from repro.trace.synthesis import ProgramBuilder, TraceWalker
from repro.trace.workloads import get_workload

from ..test_golden_parity import EDGE_TRACES, GOLDEN_PAIRS, GOLDEN_SCALE
from ..test_properties import specs
from .scalar_ranges import ScalarRangeBuilder


def _bpu_counters(bpu):
    return bpu.cond_lookups, bpu.mispredicts, bpu.btb_resteers


def assert_same_ranges(instrs):
    """Walk ``instrs`` with both builders in lock step; returns the
    number of ranges emitted."""
    oracle_bpu, bpu = BranchPredictionUnit(), BranchPredictionUnit()
    oracle = ScalarRangeBuilder(list(instrs), oracle_bpu)
    builder = RangeBuilder(ArrayTrace.from_instructions(instrs), bpu)
    n_ranges = 0
    while True:
        want = oracle.build_next()
        got = builder.build_next()
        assert (got is None) == (want is None), n_ranges
        assert (builder.blocked, builder.exhausted) == \
            (oracle.blocked, oracle.exhausted), n_ranges
        assert _bpu_counters(bpu) == _bpu_counters(oracle_bpu), n_ranges
        if want is None:
            if not oracle.blocked:
                return n_ranges
            oracle.resume()
            builder.resume()
            continue
        assert (got.start, got.nbytes, got.first_index, got.instr_ends,
                got.resteer) == \
            (want.start, want.nbytes, want.first_index, want.instr_ends,
             want.resteer), n_ranges
        n_ranges += 1


@pytest.mark.parametrize("name", sorted(EDGE_TRACES))
def test_edge_traces(name):
    instrs, _warmup, _measure = EDGE_TRACES[name]
    assert assert_same_ranges(instrs) > 0


@given(spec=specs())
@settings(max_examples=10, deadline=None)
def test_synthetic_programs(spec):
    trace = TraceWalker(ProgramBuilder(spec).build(), spec).run(3000)
    assert assert_same_ranges(trace) > 0


@pytest.mark.parametrize(
    "workload", sorted({w for w, _config in GOLDEN_PAIRS}))
def test_golden_workloads(workload, monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", GOLDEN_SCALE)
    assert assert_same_ranges(get_workload(workload).generate()) > 0
