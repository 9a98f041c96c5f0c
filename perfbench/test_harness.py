"""Self-tests of the benchmark harness (no simulation runs).

Run from the root of a checkout::

    python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import copy
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import load_expected, mismatches, pair_key  # noqa: E402
from layers import (SpanRecorder, StackSampler, bucket_of,  # noqa: E402
                    instrument, self_times, unattributed)
from run import count_failures  # noqa: E402
from workloads import POOL_SEEDS, SELECTORS, select  # noqa: E402


class SeedMapping(unittest.TestCase):
    def test_documented_mapping(self):
        self.assertEqual(
            sorted({w for w, _c in select("cold_fill", 3).pairs}),
            ["client_003", "server_003", "spec_003"])
        self.assertEqual(select("config_sweep", 0).prepared, ["server_005"])
        self.assertEqual(select("config_sweep", 1).prepared, ["server_011"])
        self.assertEqual(
            sorted({w for w, _c in select("smt_corun", 2).pairs}),
            ["smt:server_002+client_002",
             "smt:server_002+client_002@icount"])

    def test_pair_counts(self):
        self.assertEqual(len(select("cold_fill", 0).pairs), 12)
        self.assertEqual(len(select("config_sweep", 0).pairs), 12)
        self.assertEqual(len(select("smt_corun", 0).pairs), 4)

    def test_seeds_0_and_1_differ(self):
        for workload in SELECTORS:
            self.assertNotEqual(select(workload, 0), select(workload, 1),
                                workload)

    def test_same_seed_same_inputs(self):
        for workload in SELECTORS:
            self.assertEqual(select(workload, 12345),
                             select(workload, 12345))

    def test_every_seed_is_pinned(self):
        expected = load_expected()
        for workload, pool in POOL_SEEDS.items():
            for seed in list(pool) + [len(pool), 97, -1]:
                for pair in select(workload, seed).pairs:
                    self.assertIn(pair_key(*pair), expected)


class OutputCheck(unittest.TestCase):
    def setUp(self):
        self.expected = load_expected()
        self.key = pair_key("server_005", "ubs")
        self.good = self.expected[self.key]

    def test_identical_counters_pass(self):
        self.assertEqual(mismatches(self.good, copy.deepcopy(self.good)), [])

    def test_one_perturbed_counter_fails(self):
        for group in ("frontend", "efficiency"):
            for field in self.good[group]:
                bad = copy.deepcopy(self.good)
                bad[group][field] += 1
                self.assertEqual(len(mismatches(self.good, bad)), 1,
                                 f"{group}.{field}")
        bad = copy.deepcopy(self.good)
        bad["cycles"] += 1
        self.assertEqual(len(mismatches(self.good, bad)), 1)

    def test_unpinned_pair_fails(self):
        self.assertTrue(mismatches(None, self.good))

    def test_failed_pairs_are_counted(self):
        bad = copy.deepcopy(self.good)
        bad["frontend"]["l1i_misses"] += 1
        pairs = [
            {"workload": "server_005", "config": "ubs",
             "returned": self.good, "stored": self.good},
            {"workload": "server_005", "config": "ubs",
             "returned": self.good, "stored": bad},
            {"workload": "server_005", "config": "ubs",
             "returned": None, "stored": None},
        ]
        failures = count_failures([{"pairs": pairs}], self.expected)
        self.assertEqual(len(failures), 2)


class SpanArithmetic(unittest.TestCase):
    # engine [0, 10]
    #   scan [0, 1]
    #   synth [1, 4]
    #   build [4, 6]
    #     walk [4.5, 5.5]
    #   run [6, 9.5]
    SPANS = [
        ("engine", 0.0, 10.0, -1),
        ("scan", 0.0, 1.0, 0),
        ("synth", 1.0, 4.0, 0),
        ("build", 4.0, 6.0, 0),
        ("walk", 4.5, 5.5, 3),
        ("run", 6.0, 9.5, 0),
    ]

    def test_self_times(self):
        self.assertEqual(self_times(self.SPANS), {
            "engine": 0.5, "scan": 1.0, "synth": 3.0, "build": 1.0,
            "walk": 1.0, "run": 3.5})

    def test_self_times_plus_unattributed_equal_wall(self):
        wall = (-1.0, 12.0)
        total = sum(self_times(self.SPANS).values())
        self.assertAlmostEqual(
            total + unattributed(self.SPANS, *wall), wall[1] - wall[0])
        self.assertAlmostEqual(unattributed(self.SPANS, *wall), 3.0)

    def test_repeated_names_sum(self):
        spans = [("root", 0.0, 4.0, -1), ("io", 0.0, 1.0, 0),
                 ("io", 2.0, 3.0, 0)]
        self.assertEqual(self_times(spans), {"root": 2.0, "io": 2.0})

    def test_overlapping_children_counted_once(self):
        spans = [("root", 0.0, 4.0, -1), ("a", 0.0, 2.0, 0),
                 ("b", 1.0, 3.0, 0)]
        self.assertEqual(self_times(spans)["root"], 1.0)


class Instrumentation(unittest.TestCase):
    def test_patches_every_alias_and_restores(self):
        sys.path.insert(0, str(HERE.parent / "src"))
        import repro.cpu.machine as cpu_machine
        import repro.experiments.runner as runner
        import repro.frontend.ftq as ftq
        import repro.smt.machine as smt_machine
        import repro.trace.io as trace_io
        from repro.trace.arrays import ArrayTrace

        def snapshot():
            return (ftq.precompute_range_stream,
                    cpu_machine.precompute_range_stream,
                    smt_machine.precompute_range_stream,
                    trace_io.read_trace, runner.read_trace,
                    ArrayTrace.__dict__["from_instructions"],
                    cpu_machine.Machine.__dict__["run"])

        before = snapshot()
        recorder = SpanRecorder()
        with instrument(recorder):
            during = snapshot()
            for old, new in zip(before, during):
                self.assertIsNot(old, new)
            self.assertIs(cpu_machine.precompute_range_stream,
                          smt_machine.precompute_range_stream)
            with self.assertRaises(Exception):
                runner.read_trace(HERE / "no-such-trace.atrace")
        self.assertEqual(snapshot(), before)
        (name, start, end, parent), = recorder.finished()
        self.assertEqual((name, parent), ("trace.read", -1))
        self.assertLessEqual(start, end)


class Sampler(unittest.TestCase):
    def test_buckets(self):
        self.assertEqual(bucket_of("repro.memory.icache"), "memory")
        self.assertEqual(bucket_of("repro.core.ubs_cache"), "core")
        self.assertEqual(bucket_of("repro.cpu.backend"), "cpu_backend")
        self.assertEqual(bucket_of("repro.cpu.machine"), "cpu_machine")
        self.assertEqual(bucket_of("repro.smt.machine"), "smt")
        self.assertEqual(bucket_of("repro.frontend.ftq"), "frontend")
        self.assertEqual(bucket_of("repro.trace.synthesis"), "trace")
        self.assertEqual(bucket_of("repro.experiments.pool"), "other")
        self.assertEqual(bucket_of("repro.cpuish"), "other")

    def test_samples_cpu_time(self):
        give_up = time.monotonic() + 10.0
        with StackSampler() as sampler:
            while sampler.samples < 20 and time.monotonic() < give_up:
                pass
        self.assertGreaterEqual(sampler.samples, 20)
        self.assertEqual(sampler.counts["other"], sampler.samples)


if __name__ == "__main__":
    unittest.main()
