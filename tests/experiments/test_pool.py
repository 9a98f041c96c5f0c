"""Sweep-engine tests: parity, scheduling, single-flight, shm hygiene.

Everything runs at ``REPRO_SCALE=0.03`` (a few thousand instructions per
workload) so the pool tests stay fast enough for tier 1.
"""

import json
import os
from pathlib import Path

import pytest

import repro.experiments.runner as runner_mod
from repro.experiments.pool import (SweepEngine, estimate_key, expected_cost,
                                    run_pairs)
from repro.experiments.runner import ResultCache
from repro.stats.counters import SimResult

PAIRS = [
    ("server_000", "conv32"),
    ("server_000", "ubs"),
    ("client_000", "conv32"),
    ("client_000", "ubs"),
]

#: Host-timing keys that legitimately differ between runs.
VOLATILE = ("sim_wall_seconds", "sim_cycles_per_sec", "sim_instrs_per_sec")


def _masked_results(cache: ResultCache) -> dict:
    """results/*.json keyed by filename, with volatile timings masked."""
    out = {}
    for path in sorted((cache.root / "results").glob("*.json")):
        data = json.loads(path.read_text())
        for key in VOLATILE:
            data.get("extra", {}).pop(key, None)
        out[path.name] = data
    return out


def _shm_entries():
    shm = Path("/dev/shm")
    if not shm.is_dir():  # pragma: no cover - non-Linux
        return set()
    return {p.name for p in shm.iterdir() if not p.name.startswith("sem.")}


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.03")
    # The engine's workers re-derive the cache from its root; the host
    # default cache must not leak into the developer's .repro_cache.
    monkeypatch.setattr(runner_mod, "_default_cache", None)


def _engine(tmp_path, name, jobs):
    return SweepEngine(jobs=jobs, cache=ResultCache(tmp_path / name))


class TestParity:
    def test_parallel_fill_byte_identical_to_serial(self, tmp_path):
        """Modulo host-timing extras, a --jobs 2 fill must produce the
        same result-cache bytes as the inline fill."""
        serial = _engine(tmp_path, "serial", jobs=1)
        parallel = _engine(tmp_path, "parallel", jobs=2)
        serial.run(PAIRS)
        parallel.run(PAIRS)
        assert serial.pairs_simulated == parallel.pairs_simulated == 4
        assert _masked_results(serial.cache) == _masked_results(parallel.cache)

    def test_results_match_between_modes(self, tmp_path):
        inline = _engine(tmp_path, "a", jobs=1).run(PAIRS)
        pooled = _engine(tmp_path, "b", jobs=2).run(PAIRS)
        assert set(inline) == set(pooled) == set(PAIRS)
        for pair in PAIRS:
            assert inline[pair].cycles == pooled[pair].cycles
            assert inline[pair].to_dict()["frontend"] == \
                pooled[pair].to_dict()["frontend"]

    def test_run_pairs_wrapper(self, tmp_path):
        out = run_pairs(PAIRS[:1], cache=ResultCache(tmp_path / "w"))
        assert isinstance(out[PAIRS[0]], SimResult)

    def test_workers_consume_vectorized_traces(self, tmp_path):
        """Every pool worker simulates through the columnar (vectorized)
        kernel: the trace files the engine fans out decode to v2
        ArrayTraces carrying the precomputed boundary sidecar."""
        from repro.trace.arrays import ArrayTrace
        from repro.trace.io import read_trace

        engine = _engine(tmp_path, "vec", jobs=2)
        engine.run(PAIRS)
        trace_files = sorted((engine.cache.root / "traces").glob("*.atrace"))
        assert len(trace_files) == 2    # one per workload, shared by configs
        for path in trace_files:
            trace = read_trace(path)
            assert isinstance(trace, ArrayTrace)
            assert len(trace.boundary) == len(trace)
            # Sidecar invariant the vectorized walk depends on: every
            # boundary points at or past its own instruction.
            assert all(b >= i for i, b in enumerate(trace.boundary))


class TestScheduling:
    def test_duplicate_pairs_simulated_once(self, tmp_path, monkeypatch):
        calls = []
        real = runner_mod._simulate

        def counting(workload, config, trace=None, cache=None):
            calls.append((workload.name, config))
            return real(workload, config, trace, cache=cache)

        import repro.experiments.pool as pool_mod
        monkeypatch.setattr(pool_mod, "_simulate", counting)
        engine = _engine(tmp_path, "dup", jobs=1)
        out = engine.run([PAIRS[0], PAIRS[1], PAIRS[0], PAIRS[0]])
        assert calls.count(PAIRS[0]) == 1
        assert set(out) == {PAIRS[0], PAIRS[1]}
        assert engine.pairs_simulated == 2

    def test_cached_pairs_not_resimulated(self, tmp_path):
        engine = _engine(tmp_path, "warm", jobs=1)
        engine.run(PAIRS[:2])
        again = SweepEngine(jobs=1, cache=engine.cache)
        out = again.run(PAIRS)
        assert again.pairs_simulated == 2  # only the two cold pairs
        assert set(out) == set(PAIRS)

    def test_estimates_persisted_and_ordering(self, tmp_path):
        engine = _engine(tmp_path, "est", jobs=1)
        engine.run(PAIRS)
        estimates = engine.cache.load_estimates()
        assert set(estimates) == {estimate_key(w, c) for w, c in PAIRS}
        assert all(v > 0 for v in estimates.values())
        # Measured estimates dominate the ordering...
        slow = {estimate_key("a", "conv32"): 9.0,
                estimate_key("b", "conv32"): 1.0}
        assert expected_cost(("a", "conv32"), slow) > \
            expected_cost(("b", "conv32"), slow)
        # ...and the cold-pair heuristic ranks sub-block configs as
        # slower than the conventional baseline of the same workload.
        assert expected_cost(("server_000", "ubs"), {}) > \
            expected_cost(("server_000", "conv32"), {})

    def test_fill_metrics(self, tmp_path):
        engine = _engine(tmp_path, "metrics", jobs=1)
        engine.run(PAIRS[:2])
        assert engine.fill_seconds > 0
        assert engine.pairs_per_min > 0
        # A fully warm run simulates nothing.
        warm = SweepEngine(jobs=1, cache=engine.cache)
        warm.run(PAIRS[:2])
        assert warm.pairs_simulated == 0

    def test_progress_callback(self, tmp_path):
        seen = []
        engine = _engine(tmp_path, "prog", jobs=1)
        engine.run(PAIRS, progress=lambda w, c, d, t: seen.append((d, t)))
        assert seen[-1] == (4, 4)
        assert [d for d, _ in seen] == [1, 2, 3, 4]


class TestHygiene:
    def test_no_shared_memory_leaked(self, tmp_path):
        """Every published segment must be unlinked by the time run()
        returns — leaked /dev/shm entries outlive the process and eat
        host RAM across campaigns."""
        before = _shm_entries()
        _engine(tmp_path, "shm", jobs=2).run(PAIRS)
        assert _shm_entries() == before

    def test_no_temp_files_left(self, tmp_path):
        engine = _engine(tmp_path, "tmp", jobs=2)
        engine.run(PAIRS)
        assert list(Path(engine.cache.root).rglob("*.tmp")) == []

    def test_store_is_atomic_and_deterministic(self, tmp_path):
        """store() must leave no droppings and write sorted-key JSON so
        byte-level parity comparisons are meaningful."""
        engine = _engine(tmp_path, "atomic", jobs=1)
        engine.run(PAIRS[:1])
        path = engine.cache._result_path(*PAIRS[0])
        data = json.loads(path.read_text())
        assert path.read_text() == json.dumps(data, sort_keys=True)

    def test_trace_files_shared_between_configs(self, tmp_path):
        engine = _engine(tmp_path, "trace", jobs=2)
        engine.run(PAIRS)
        traces = os.listdir(engine.cache.root / "traces")
        # One .atrace per workload, not per pair.
        assert sorted(traces) == ["client_000__s0.03.atrace",
                                  "server_000__s0.03.atrace"]


class TestPersistent:
    def test_persistent_engine_keeps_segments_until_close(self, tmp_path):
        """With persistent=True the published trace segments survive
        run() (warm fan-out for the next sweep) and are reclaimed —
        along with the pool — only by close()."""
        before = _shm_entries()
        engine = SweepEngine(jobs=2, cache=ResultCache(tmp_path / "p"),
                             persistent=True)
        with engine:
            engine.run(PAIRS)              # pioneer runs generate traces
            # Traces are on disk now: this sweep publishes segments.
            engine.run([("server_000", "conv64"),
                        ("server_000", "small16"),
                        ("client_000", "conv64"),
                        ("client_000", "small16")])
            assert len(engine._published) == 2
            assert _shm_entries() != before
            assert engine._pool is not None
        assert _shm_entries() == before    # close() unlinked them
        assert engine._pool is None
        engine.close()                     # idempotent

    def test_persistent_results_match_throwaway(self, tmp_path):
        persistent = SweepEngine(jobs=1, cache=ResultCache(tmp_path / "a"),
                                 persistent=True)
        with persistent:
            first = persistent.run(PAIRS)
            again = persistent.run(PAIRS)  # warm: answered from cache
            assert persistent.pairs_simulated == 0
        throwaway = _engine(tmp_path, "b", jobs=1).run(PAIRS)
        for pair in PAIRS:
            assert first[pair].cycles == throwaway[pair].cycles
            assert again[pair].cycles == first[pair].cycles

    def test_persistent_inline_memo_reused(self, tmp_path):
        """At jobs=1 a persistent engine memoises decoded traces across
        run() calls: the second sweep's workloads decode zero traces."""
        engine = SweepEngine(jobs=1, cache=ResultCache(tmp_path / "m"),
                             persistent=True)
        with engine:
            engine.run(PAIRS)
            assert set(engine._memo) == {"server_000", "client_000"}
            traces_before = {w: id(t) for w, t in engine._memo.items()}
            engine.run([("server_000", "conv64"),
                        ("client_000", "conv64")])
            # Same ArrayTrace objects: nothing was re-decoded.
            assert {w: id(t) for w, t in engine._memo.items()} == \
                traces_before


CORUN = "smt:server_000+client_000"
CORUN_PAIRS = [(w, c) for w in (CORUN, CORUN + "@icount")
               for c in ("conv32", "ubs")]


class _EventObs:
    """Records the engine's dispatch (``pair_started``) and completion
    (``pair_done``) order."""

    def __init__(self):
        self.events = []

    def sweep_started(self, *args):
        pass

    def sweep_finished(self, engine):
        pass

    def worker_carrier(self):
        return None

    def pair_started(self, workload, config):
        self.events.append(("start", workload, config))

    def pair_done(self, workload, config, result):
        self.events.append(("done", workload, config))


def _prepare(cache, *names):
    from repro.trace.workloads import get_workload
    for name in names:
        cache.array_trace_for(get_workload(name))


class TestComponentTraces:
    """Co-run pairs share the component-trace memo with solo pairs."""

    def test_inline_corun_reads_and_walks_each_trace_once(
            self, tmp_path, monkeypatch):
        import repro.frontend.ftq as ftq
        cache = ResultCache(tmp_path / "memo")
        _prepare(cache, "server_000", "client_000")
        walks, reads = [], []
        walk, read = ftq.precompute_range_stream, runner_mod.read_trace
        monkeypatch.setattr(ftq, "precompute_range_stream",
                            lambda *a: walks.append(1) or walk(*a))
        monkeypatch.setattr(runner_mod, "read_trace",
                            lambda *a: reads.append(1) or read(*a))
        out = SweepEngine(jobs=1, cache=cache).run(CORUN_PAIRS)
        assert set(out) == set(CORUN_PAIRS)
        assert len(walks) == 2
        assert len(reads) == 2

    def test_corun_pairs_dispatch_together_when_traces_exist(self, tmp_path):
        """With both component traces on disk no pioneer is needed: two
        pairs of one co-run name are both in flight before either
        completes."""
        cache = ResultCache(tmp_path / "ready")
        _prepare(cache, "server_000", "client_000")
        obs = _EventObs()
        SweepEngine(jobs=2, cache=cache, obs=obs).run(CORUN_PAIRS[:2])
        assert [e[0] for e in obs.events] == ["start", "start",
                                              "done", "done"]

    def test_shared_component_generated_by_one_pioneer(self, tmp_path,
                                                        monkeypatch):
        """Two co-run names sharing a missing component: the second
        waits for the first to generate it rather than synthesising it
        a second time."""
        cache = ResultCache(tmp_path / "cold")
        _prepare(cache, "client_000", "spec_000")
        obs = _EventObs()
        pairs = [("smt:server_000+client_000", "conv32"),
                 ("smt:server_000+spec_000", "conv32")]
        SweepEngine(jobs=2, cache=cache, obs=obs).run(pairs)
        assert [e[0] for e in obs.events] == ["start", "done",
                                              "start", "done"]

    def test_corun_pool_fill_matches_inline(self, tmp_path):
        before = _shm_entries()
        serial = _engine(tmp_path, "serial", jobs=1)
        parallel = _engine(tmp_path, "parallel", jobs=2)
        pairs = CORUN_PAIRS + PAIRS[:2]
        serial.run(pairs)
        parallel.run(pairs)
        assert _masked_results(serial.cache) == \
            _masked_results(parallel.cache)
        assert _shm_entries() == before
