"""Machine edge cases: skip-ahead equivalence, variable ISA, tiny queues."""

import pytest

from repro.cpu.machine import FrontEndBase, Machine, build_icache
from repro.params import CoreParams, MachineParams
from repro.smt import build_smt_machine
from repro.trace.synthesis import ProgramBuilder, TraceWalker

from ..conftest import small_spec


class TestSkipAheadEquivalence:
    """The stall fast-forward that ``Machine`` and ``SMTMachine`` share is
    a pure optimisation: disabling it must not change a single cycle or
    counter, solo or co-run under either fetch policy."""

    @pytest.mark.parametrize(
        "config,policy",
        [("conv32", None), ("ubs", None), ("conv32", "rr"), ("ubs", "rr"),
         ("conv32", "icount"), ("ubs", "icount")],
        ids=["conv32", "ubs", "conv32-rr", "ubs-rr", "conv32-icount",
             "ubs-icount"])
    def test_identical_results(self, config, policy, monkeypatch):
        spec = small_spec(seed=99, n_functions=300, n_entry_points=24)
        trace = TraceWalker(ProgramBuilder(spec).build(), spec).run(20_000)
        if policy is None:
            def run():
                return Machine(trace, build_icache(config)).run(4000,
                                                                12_000)
        else:
            other_spec = small_spec(seed=7, n_functions=200)
            other = TraceWalker(ProgramBuilder(other_spec).build(),
                                other_spec).run(8000)

            def run():
                machine = build_smt_machine([trace[:8000], other], config,
                                            policy=policy)
                return machine.run([(2000, 6000), (2000, 6000)])

        fast = run().to_dict()
        monkeypatch.setattr(FrontEndBase, "_skip_stalls",
                            lambda self, cycle, *args: cycle)
        slow = run().to_dict()
        # Efficiency samples may see a fill one skipped span later; every
        # cycle and counter must match.
        fast.pop("efficiency")
        slow.pop("efficiency")
        assert fast == slow


class TestVariableISA:
    def test_variable_isa_machine_run(self):
        spec = small_spec(isa="variable", seed=5)
        trace = TraceWalker(ProgramBuilder(spec).build(), spec).run(15_000)
        result = Machine(trace, build_icache("conv32")).run(3000, 10_000)
        assert result.instructions == 10_000
        assert result.ipc > 0

    def test_variable_isa_on_ubs_uses_byte_granularity(self):
        from repro.core.ubs_cache import UBSICache
        from repro.params import UBSParams
        spec = small_spec(isa="variable", seed=5)
        trace = TraceWalker(ProgramBuilder(spec).build(), spec).run(15_000)
        cache = UBSICache(UBSParams(instruction_granularity=1))
        result = Machine(trace, cache).run(3000, 10_000)
        assert result.instructions == 10_000


class TestSmallStructures:
    def test_tiny_ftq_still_correct(self):
        spec = small_spec(seed=3)
        trace = TraceWalker(ProgramBuilder(spec).build(), spec).run(12_000)
        params = MachineParams(core=CoreParams(ftq_entries=4))
        result = Machine(trace, build_icache("conv32"), params).run(2000, 8000)
        assert result.instructions == 8000

    def test_tiny_rob(self):
        spec = small_spec(seed=3)
        trace = TraceWalker(ProgramBuilder(spec).build(), spec).run(12_000)
        params = MachineParams(core=CoreParams(rob_entries=16))
        small = Machine(trace, build_icache("conv32"), params).run(2000, 8000)
        big = Machine(trace, build_icache("conv32")).run(2000, 8000)
        assert small.ipc <= big.ipc + 1e-9

    def test_narrow_fetch(self):
        spec = small_spec(seed=3)
        trace = TraceWalker(ProgramBuilder(spec).build(), spec).run(12_000)
        params = MachineParams(core=CoreParams(fetch_width=1, fetch_bytes=4,
                                               commit_width=1,
                                               decode_width=1))
        narrow = Machine(trace, build_icache("conv32"), params).run(2000, 8000)
        wide = Machine(trace, build_icache("conv32")).run(2000, 8000)
        assert narrow.ipc < wide.ipc
        assert narrow.ipc <= 1.0 + 1e-9


class TestWarmupBoundary:
    def test_stats_cover_only_measured_window(self):
        spec = small_spec(seed=3)
        trace = TraceWalker(ProgramBuilder(spec).build(), spec).run(20_000)
        short = Machine(trace, build_icache("conv32")).run(12_000, 6000)
        # After a long warm-up the caches are warm: measured misses are
        # far fewer than a cold run of the same window length.
        cold = Machine(trace, build_icache("conv32")).run(1000, 6000)
        assert short.frontend.l1i_misses <= cold.frontend.l1i_misses
