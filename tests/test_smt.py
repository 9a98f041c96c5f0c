"""SMT co-run simulation: fetch-arbitration edge cases, shared-MSHR
behaviour, per-thread stall reconciliation, workload naming, interference
matrices and contention-aware pairing.

``SMTMachine`` is co-run only (single-thread runs are ``Machine``'s);
its golden parity lives in ``tests/test_golden_parity.py``. Solo
baselines here come from ``Machine``.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.cpu.machine import Machine, build_icache
from repro.errors import ConfigurationError
from repro.smt import (ARBITRATION_POLICIES, SMTMachine, THREAD_ADDR_STRIDE,
                       build_smt_machine)
from repro.smt.pairing import (contention_aware_pairing, greedy_pairing,
                               local_search, pair_cost,
                               predicted_cost_order, random_baseline,
                               random_pairing, total_slowdown)
from repro.telemetry import STALL, EventTrace, MSHR as EV_MSHR, Telemetry
from repro.trace.arrays import ArrayTrace
from repro.trace.record import Instruction, InstrKind
from repro.trace.workloads import (SMTWorkload, get_workload,
                                   is_smt_workload, smt_workload)


def _stream(n, base=0x10_0000):
    """Straight-line code touching a new 64-byte block every 16 instrs —
    far bigger than any L1-I here, so it misses continuously."""
    return ArrayTrace.from_instructions(
        [Instruction(base + 4 * i, 4, InstrKind.ALU) for i in range(n)])


def _loop(iters, body=12, base=0x20_0000):
    """A tiny loop that lives in one or two cache blocks: after the first
    iteration it always hits."""
    instrs = []
    for _ in range(iters):
        for j in range(body - 1):
            instrs.append(Instruction(base + 4 * j, 4, InstrKind.ALU))
        instrs.append(Instruction(base + 4 * (body - 1), 4, InstrKind.JUMP,
                                  taken=True, target=base))
    return ArrayTrace.from_instructions(instrs)


def _threads_of(result):
    """Per-thread result dicts of a composite, indexed by tid."""
    by_tid = {}
    for tdict in result.extra["threads"]:
        by_tid[tdict["extra"]["thread"]] = tdict
    return by_tid


class TestCoRunBasics:

    def test_invalid_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="arbitration policy"):
            SMTMachine([_stream(100), _stream(100)], build_icache("conv32"),
                       policy="lottery")

    @pytest.mark.parametrize("n_traces", [0, 1])
    def test_fewer_than_two_traces_rejected(self, n_traces):
        with pytest.raises(ConfigurationError, match="at least two traces"):
            SMTMachine([_stream(100)] * n_traces, build_icache("conv32"))

    def test_window_count_must_match_threads(self):
        machine = SMTMachine([_stream(100), _stream(100)],
                             build_icache("conv32"))
        with pytest.raises(ConfigurationError, match="windows for"):
            machine.run([(10, 50)])

    def test_window_must_fit_trace(self):
        machine = SMTMachine([_stream(100), _stream(200)],
                             build_icache("conv32"))
        with pytest.raises(ConfigurationError, match="thread 0: .*need"):
            machine.run([(50, 100), (50, 100)])

    def test_composite_result_shape(self):
        machine = SMTMachine([_stream(3000), _loop(260)],
                             build_icache("conv32"))
        result = machine.run([(500, 2000), (500, 2000)])
        smt = result.extra["smt"]
        assert smt["policy"] == "rr"
        assert smt["n_threads"] == 2
        assert result.instructions == 4000
        threads = _threads_of(result)
        assert set(threads) == {0, 1}
        for tid, tdict in threads.items():
            assert tdict["instructions"] == 2000
            assert tdict["cycles"] >= 1
            assert "arb_lost_cycles" in tdict["extra"]
        assert result.cycles == max(t["cycles"] for t in threads.values())
        # Summed front-end stats reconcile with the per-thread ones.
        for field in ("fetch_stall_cycles", "l1i_hits", "l1i_misses",
                      "branch_mispredicts"):
            assert result.frontend.__dict__[field] == sum(
                t["frontend"][field] for t in threads.values())

    def test_dual_has_no_efficiency_samples(self):
        machine = SMTMachine([_loop(300), _loop(300)],
                             build_icache("conv32"))
        result = machine.run([(100, 2000), (100, 2000)])
        assert result.efficiency is None
        for tdict in result.extra["threads"]:
            assert tdict["efficiency"] is None


    def test_threads_share_derived_state_by_address_space(self):
        """A trace's BPU range stream is shared by every machine over it;
        its back-end op table only by those with the same address
        offset, so thread 1 gets its own entry."""
        trace = _loop(50)
        solo = Machine(trace, build_icache("conv32"))
        smt = build_smt_machine([trace, trace], "ubs")
        t0, t1 = smt.threads
        assert t0.builder._stream is t1.builder._stream \
            is solo.builder._stream
        assert t0.backend._ops is solo.backend._ops
        assert t1.backend._ops is not t0.backend._ops
        assert t1.addr_offset == THREAD_ADDR_STRIDE
        assert sorted(k[1] for k in trace.derived
                      if k[0] == "backend_ops") == [0, THREAD_ADDR_STRIDE]


class TestFetchArbitration:

    def test_one_trace_exhausts_first(self):
        """Very unequal windows: the short thread retires early, releases
        its pooled-FTQ claim, and the survivor runs to completion."""
        machine = SMTMachine([_stream(2000), _stream(20_000)],
                             build_icache("conv32"))
        result = machine.run([(200, 1000), (200, 16_000)])
        threads = _threads_of(result)
        assert threads[0]["instructions"] == 1000
        assert threads[1]["instructions"] == 16_000
        for t in machine.threads:
            assert t.finished
            assert t.delivered == t.total
        # All pooled-FTQ claims were returned when the threads retired.
        assert machine._ftq_occ == 0
        # The long thread dominates the co-run span.
        assert result.cycles == threads[1]["cycles"]

    def test_survivor_not_slower_than_short_thread(self):
        """After the short thread retires the survivor owns the whole
        front end; its measured span must comfortably exceed the short
        thread's (it ran 16x the instructions)."""
        machine = SMTMachine([_stream(2000), _stream(20_000)],
                             build_icache("conv32"))
        result = machine.run([(200, 1000), (200, 16_000)])
        threads = _threads_of(result)
        assert threads[1]["cycles"] > threads[0]["cycles"]

    def test_rr_no_starvation_under_permanent_stall(self):
        """One thread misses continuously (streaming), the other is a
        cache-resident loop. Round-robin must hand the loop the fetch
        port whenever the streamer is blocked: the loop's co-run span
        stays close to its solo span instead of scaling with the
        streamer's."""
        loop_solo = Machine(_loop(1500), build_icache("conv32"))
        solo_cycles = loop_solo.run(600, 12_000).cycles

        machine = SMTMachine([_loop(1500), _stream(30_000)],
                             build_icache("conv32"))
        result = machine.run([(600, 12_000), (600, 24_000)])
        threads = _threads_of(result)
        corun_cycles = threads[0]["cycles"]
        assert corun_cycles < 2 * solo_cycles, (
            f"loop thread starved: {corun_cycles} co-run vs "
            f"{solo_cycles} solo cycles")
        # It can only have lost the port on cycles both were fetchable.
        assert threads[0]["extra"]["arb_lost_cycles"] <= corun_cycles

    def test_icount_policy_runs_and_is_recorded(self):
        machine = SMTMachine([_loop(600), _stream(6000)],
                             build_icache("conv32"), policy="icount")
        result = machine.run([(200, 4000), (200, 4000)])
        assert result.extra["smt"]["policy"] == "icount"
        assert ARBITRATION_POLICIES == ("rr", "icount")

    def test_policies_agree_on_totals(self):
        """Arbitration reorders delivery but never changes how many
        instructions each thread retires."""
        for policy in ARBITRATION_POLICIES:
            machine = SMTMachine([_loop(600), _stream(6000)],
                                 build_icache("conv32"), policy=policy)
            result = machine.run([(200, 4000), (200, 4000)])
            threads = _threads_of(result)
            assert threads[0]["instructions"] == 4000
            assert threads[1]["instructions"] == 4000


class TestSharedMSHR:

    def test_same_set_inflight_from_both_threads(self):
        """Two identical streams offset by THREAD_ADDR_STRIDE miss the
        same sets within a cycle of each other: the shared MSHR file must
        hold both threads' fills for one set concurrently, as distinct
        entries (the stride lands in tag bits — no cross-thread merge)."""
        telemetry = Telemetry(EventTrace(limit=200_000))
        machine = SMTMachine([_stream(4000), _stream(4000)],
                             build_icache("conv32"), telemetry=telemetry,
                             policy="rr")
        machine.run([(400, 3000), (400, 3000)])
        allocs = telemetry.recorder.of_kind(EV_MSHR)
        assert allocs, "no MSHR allocations recorded"
        by_thread = {0: [], 1: []}
        for e in allocs:
            tid = e.fields["thread"]
            block = e.fields["block"]
            # Address isolation: the block's thread bits must match the
            # allocating thread.
            assert block // THREAD_ADDR_STRIDE == tid
            by_thread[tid].append((block % THREAD_ADDR_STRIDE, e.cycle,
                                   e.fields["fill"]))
        assert by_thread[0] and by_thread[1], (
            "both threads must allocate in the shared MSHR file")
        # Find one low-address block whose two per-thread fills overlap
        # in time: same set, both in flight, two separate entries.
        t1_windows = {b: (c, f) for b, c, f in by_thread[1]}
        overlapping = [
            b for b, c, f in by_thread[0]
            if b in t1_windows
            and c < t1_windows[b][1] and t1_windows[b][0] < f
        ]
        assert overlapping, (
            "expected at least one set with both threads' fills in "
            "flight simultaneously")

    def test_no_cross_thread_block_aliasing(self):
        """Co-running a trace with itself must not *help* it: if the
        stride aliased, thread 1 would hit on thread 0's fills and miss
        less than solo."""
        solo = Machine(_stream(4000), build_icache("conv32"))
        solo_misses = solo.run(400, 3000).frontend.l1i_misses

        machine = SMTMachine([_stream(4000), _stream(4000)],
                             build_icache("conv32"))
        result = machine.run([(400, 3000), (400, 3000)])
        threads = _threads_of(result)
        for tid in (0, 1):
            assert threads[tid]["frontend"]["l1i_misses"] >= solo_misses


class TestStallReconciliation:

    def test_stall_events_sum_to_per_thread_stats(self):
        """The telemetry stream's per-thread stall cycles must equal each
        thread's FrontEndStats exactly — miss events against
        ``fetch_stall_cycles``, resteer events against
        ``mispredict_stall_cycles``."""
        telemetry = Telemetry(EventTrace(limit=500_000))
        machine = SMTMachine([_loop(1200), _stream(10_000)],
                             build_icache("conv32"), telemetry=telemetry)
        result = machine.run([(400, 8000), (400, 8000)])
        threads = _threads_of(result)

        sums = {0: {"miss": 0, "resteer": 0}, 1: {"miss": 0, "resteer": 0}}
        for e in telemetry.recorder.of_kind(STALL):
            cause = e.fields["cause"]
            if cause in ("miss", "resteer"):
                sums[e.fields["thread"]][cause] += e.fields["cycles"]
        for tid in (0, 1):
            frontend = threads[tid]["frontend"]
            assert sums[tid]["miss"] == frontend["fetch_stall_cycles"]
            assert sums[tid]["resteer"] == \
                frontend["mispredict_stall_cycles"]


class TestSMTWorkloadNames:

    def test_parse_basic(self):
        wl = get_workload("smt:server_000+client_000")
        assert isinstance(wl, SMTWorkload)
        assert wl.components == ("server_000", "client_000")
        assert wl.policy == "rr"
        assert wl.family == "smt"

    def test_parse_policy_suffix(self):
        wl = get_workload("smt:spec_000+spec_000@icount")
        assert wl.policy == "icount"
        assert wl.components == ("spec_000", "spec_000")

    def test_is_smt_workload(self):
        assert is_smt_workload("smt:a+b")
        assert not is_smt_workload("server_000")

    def test_component_workloads_resolve(self):
        wl = smt_workload("smt:server_000+client_000")
        names = [c.name for c in wl.component_workloads()]
        assert names == ["server_000", "client_000"]

    def test_single_component_rejected(self):
        with pytest.raises(ConfigurationError):
            get_workload("smt:server_000")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            get_workload("smt:server_000+client_000@lottery")

    def test_nested_smt_rejected(self):
        with pytest.raises(ConfigurationError):
            get_workload("smt:smt:a+b+client_000")

    def test_generate_refuses(self):
        wl = get_workload("smt:server_000+client_000")
        with pytest.raises(ConfigurationError):
            wl.generate()


class TestInterferenceMatrix:

    @staticmethod
    def _result(ipc, thread_ipcs=None):
        extra = {}
        if thread_ipcs is not None:
            extra["threads"] = [
                {"instructions": int(t_ipc * 1000), "cycles": 1000,
                 "extra": {"thread": tid}}
                for tid, t_ipc in enumerate(thread_ipcs)
            ]
        return SimpleNamespace(ipc=ipc, extra=extra)

    def test_build_matrix_orientation(self):
        """slowdown[i][j] must divide i's solo IPC by *i's own thread*
        in the (i, j) co-run — thread 0 when i is the lower index,
        thread 1 when it is the higher."""
        from repro.experiments.smt_matrix import build_matrix

        results = {
            ("a", "conv32"): self._result(2.0),
            ("b", "conv32"): self._result(1.0),
            # a co-run with b: a keeps 1.6 IPC, b keeps 0.5.
            ("smt:a+b", "conv32"): self._result(
                2.1, thread_ipcs=(1.6, 0.5)),
            ("smt:a+a", "conv32"): self._result(
                2.0, thread_ipcs=(1.0, 1.0)),
            ("smt:b+b", "conv32"): self._result(
                1.6, thread_ipcs=(0.8, 0.8)),
        }
        matrix = build_matrix(results, ["a", "b"], "conv32")
        slowdown = matrix["slowdown"]
        assert slowdown[0][0] == pytest.approx(2.0)       # a vs a
        assert slowdown[0][1] == pytest.approx(2.0 / 1.6)  # a next to b
        assert slowdown[1][0] == pytest.approx(1.0 / 0.5)  # b next to a
        assert slowdown[1][1] == pytest.approx(1.25)       # b vs b

    def test_matrix_pairs_cover_solos_and_unordered_coruns(self):
        from repro.experiments.smt_matrix import matrix_pairs, smt_name

        pairs = matrix_pairs(["a", "b", "c"], ["conv32"])
        workloads = [w for w, _ in pairs]
        assert workloads.count("a") == 1
        assert smt_name("a", "b") in workloads
        assert smt_name("b", "a") not in workloads
        assert smt_name("a", "a") in workloads
        # 3 solos + C(3,2)+3 = 6 co-runs.
        assert len(pairs) == 9

    def test_smt_name_policy_suffix(self):
        from repro.experiments.smt_matrix import smt_name

        assert smt_name("a", "b") == "smt:a+b"
        assert smt_name("a", "b", "icount") == "smt:a+b@icount"


class TestPairing:

    #: 4 workloads where greedy-from-cheapest is optimal: pairing the
    #: two antagonists (0,1) apart is clearly best.
    MATRIX = [
        [1.1, 1.9, 1.2, 1.2],
        [1.9, 1.1, 1.2, 1.2],
        [1.2, 1.2, 1.0, 1.3],
        [1.2, 1.2, 1.3, 1.0],
    ]

    def test_pair_cost_is_symmetric_sum(self):
        assert pair_cost(self.MATRIX, 0, 1) == pytest.approx(3.8)
        assert pair_cost(self.MATRIX, 0, 1) == pair_cost(self.MATRIX, 1, 0)

    def test_contention_aware_finds_optimum(self):
        pairing = contention_aware_pairing(self.MATRIX)
        best = total_slowdown(self.MATRIX, pairing)
        # Brute force all 3 perfect matchings of 4 items.
        candidates = [[(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)]]
        optimum = min(total_slowdown(self.MATRIX, c) for c in candidates)
        assert best == pytest.approx(optimum)
        # And the antagonists 0/1 ended up on different cores.
        assert not any(set(p) == {0, 1} for p in pairing)

    def test_local_search_escapes_greedy_trap(self):
        """A matrix built so greedy's first (cheapest) pick forces a bad
        completion; 2-opt must undo it."""
        big = 10.0
        matrix = [
            [0.0, 0.1, 0.5, big],
            [0.1, 0.0, big, 0.5],
            [0.5, big, 0.0, big],
            [big, 0.5, big, 0.0],
        ]
        greedy = greedy_pairing(matrix)
        # Greedy grabs (0,1) then is stuck with (2,3): total 2*big.
        assert total_slowdown(matrix, greedy) > big
        refined = local_search(matrix, greedy)
        assert total_slowdown(matrix, refined) == pytest.approx(2.0)

    def test_beats_or_matches_random_baseline(self):
        rng = random.Random(7)
        n = 8
        matrix = [[1.0 + rng.random() for _ in range(n)] for _ in range(n)]
        chosen = total_slowdown(matrix, contention_aware_pairing(matrix))
        baseline = random_baseline(matrix, trials=300, seed=1)
        assert chosen <= baseline + 1e-9

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError, match="even"):
            greedy_pairing([[1.0] * 3 for _ in range(3)])

    def test_random_pairing_is_perfect_matching(self):
        rng = random.Random(3)
        pairing = random_pairing(6, rng)
        used = [i for pair in pairing for i in pair]
        assert sorted(used) == list(range(6))

    def test_predictor_order_ranks_small_resident_pairs_first(self):
        features = {
            "big_a": {"footprint_kib": 400.0, "reuse_tail": 0.6},
            "big_b": {"footprint_kib": 300.0, "reuse_tail": 0.5},
            "small_a": {"footprint_kib": 8.0, "reuse_tail": 0.01},
            "small_b": {"footprint_kib": 6.0, "reuse_tail": 0.0},
        }
        names = ["big_a", "big_b", "small_a", "small_b"]
        order = predicted_cost_order(names, features)
        # Cheapest predicted pair: the two cache-resident workloads.
        assert order[0] == (2, 3)
        # Most contended: the two big-footprint streamers.
        assert order[-1] == (0, 1)
        # Seeding greedy with this order pairs small with small.
        identity = [[1.0] * 4 for _ in range(4)]
        seeded = greedy_pairing(identity, order)
        assert (2, 3) in seeded and (0, 1) in seeded
