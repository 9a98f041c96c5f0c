"""Pair-granular parallel sweep engine.

The experiment campaign (~150 (workload, config) pairs) is embarrassingly
parallel at pair granularity, but naive parallelisation wastes most of
the win: workload-group scheduling pins the wall clock to the slowest
group, and every worker re-decodes its trace from disk into Python
objects. :class:`SweepEngine` fixes both:

* **Pair-granular dynamic load balancing** — every missing (workload,
  config) pair is an independent task pulled from one global queue the
  moment a worker frees up, ordered longest-expected-first using the
  measured ``sim_wall_seconds`` of previous runs (persisted in the
  result cache's ``estimates__s<scale>.json`` sidecar, with a
  footprint×config heuristic for never-seen pairs). No straggler group
  can serialise the tail of the fill.
* **Shared component traces** — the unit of sharing is the component
  trace, not the pair's workload name: a solo pair simulates one trace
  and an ``smt:A+B`` co-run pair two (:func:`component_workloads`). The
  host decodes/generates each component once as an
  :class:`~repro.trace.arrays.ArrayTrace` and publishes its serialised
  bytes into a :mod:`multiprocessing.shared_memory` segment; workers
  attach the columns zero-copy. A small LRU memo of component traces,
  per worker and in the inline engine, makes repeat pairs over the same
  trace free — including the BPU range stream and back-end op table
  cached on ``trace.derived``, which every later machine or SMT thread
  over that trace object reuses.
* **Single-flight trace generation** — for a component whose trace is
  not on disk yet, only one "pioneer" pair is dispatched; its worker
  generates and atomically persists the trace, and the pairs waiting on
  that component unblock when it completes. Concurrent workers never
  duplicate generation work, and deduplicated input pairs plus a
  worker-side cache re-check guarantee no pair is simulated twice.

Results land in the same on-disk :class:`ResultCache` as the serial
path, and simulation is deterministic, so parallel and serial fills are
byte-identical (tests/experiments/test_run_all.py). Shared-memory
segments (and the inline memo's traces) are dropped as soon as the last
pair needing a component completes, and unconditionally on the way out
of :meth:`SweepEngine.run`.

With ``persistent=True`` the engine instead keeps its warm state alive
*across* :meth:`run` calls — the inline trace memo, the process pool and
a bounded LRU of published shared-memory segments all survive until
:meth:`close` — which is what lets a long-running owner (the
:mod:`repro.service` daemon) answer many independent requests without
re-paying pool spin-up or trace decode each time. Persistent engines
assume a fixed ``REPRO_SCALE`` for their lifetime (worker trace memos
are keyed by component name only) and must be closed explicitly;
:class:`SweepEngine` is also a context manager for exactly that.

With an observer attached (``obs=``, a :class:`repro.obs.RunObs`) the
engine additionally emits a ``sweep`` span per run and one ``pair`` span
per simulated pair — in pool mode the *worker* emits its pair span via
the trace carrier threaded through ``submit`` (plus per-pid heartbeat
records), so host and workers reconstruct as one tree; worker-side cache
counter deltas are folded back into the host cache's counters either
way. All hooks sit at pair granularity behind ``obs is not None``
guards: runs without an observer are unchanged. The observer is the
engine's only timing hook.

The command-line campaigns (``run_all``, ``smt_matrix``, ``dse``) share
one setup: :func:`add_engine_arguments` gives each parser ``--jobs``,
``--obs-dir`` and ``--server``, and :func:`campaign` turns those options
into an observer plus a local or daemon-backed engine and writes the
run's final metrics.
"""

from __future__ import annotations

import contextlib
import heapq
import logging
import os
import typing
from collections import Counter, OrderedDict
from time import perf_counter
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from ..stats.counters import SimResult
from ..trace.arrays import ArrayTrace
from ..trace.workloads import get_workload
from .runner import (ResultCache, _simulate, component_workloads,
                     default_cache)

Pair = Tuple[str, str]
#: progress(workload, config, done, todo_total) after each simulated pair.
ProgressFn = Callable[[str, str, int, int], None]

_log = logging.getLogger(__name__)

#: Component traces memoised per worker process (and by the inline
#: engine); a co-run pair with more components keeps all of its own.
TRACE_MEMO_LIMIT = 4

#: Shared-memory trace segments a persistent engine keeps warm (LRU).
PERSIST_SHM_LIMIT = 4

#: Relative cost of a configuration family, used to order never-measured
#: pairs longest-expected-first (sub-block designs simulate slower than
#: conventional caches; the ideal cache skips most of the memory model).
_CONFIG_WEIGHTS = (
    ("ideal", 0.5),
    ("small", 1.7),
    ("distill", 1.6),
    ("ubs", 1.5),
    ("conv", 1.0),
)


def trace_names(workload: str) -> Tuple[str, ...]:
    """Names of the component traces a pair of ``workload`` simulates,
    in thread order."""
    return tuple(w.name for w in component_workloads(get_workload(workload)))


#: An LRU memo of component traces: name -> (trace, shared-memory segment
#: the trace borrows its columns from, or None).
TraceMemo = typing.OrderedDict[str, Tuple[ArrayTrace, Optional[object]]]


def _memo_traces(memo: TraceMemo, names: Sequence[str],
                 load: Callable[[str], Tuple[ArrayTrace, Optional[object]]],
                 ) -> List[ArrayTrace]:
    """One pair's component traces from ``memo``, loading misses with
    ``load``. Evicts least-recently-used entries past
    :data:`TRACE_MEMO_LIMIT`, never the pair's own."""
    traces = []
    for name in names:
        entry = memo.get(name)
        if entry is None:
            entry = memo[name] = load(name)
        else:
            memo.move_to_end(name)
        traces.append(entry[0])
    while len(memo) > max(TRACE_MEMO_LIMIT, len(names)):
        _drop_trace(memo, next(iter(memo)))
    return traces


def _drop_trace(memo: TraceMemo, name: str) -> None:
    """Forget a memoised trace, closing the segment it borrows from."""
    trace, shm = memo.pop(name)
    trace.release()
    if shm is not None:
        shm.close()


def _component_demand(todo: Sequence[Pair],
                      ) -> Tuple[Dict[str, Tuple[str, ...]], Counter]:
    """Each todo workload's component trace names, and how many todo
    pairs need each component."""
    needs = {workload: trace_names(workload) for workload, _config in todo}
    remaining = Counter(name for workload, _config in todo
                        for name in set(needs[workload]))
    return needs, remaining


def estimate_key(workload: str, config: str) -> str:
    return f"{workload}::{config}"


def expected_cost(pair: Pair, estimates: Dict[str, float]) -> float:
    """Expected wall seconds of a pair: measured when available, else a
    footprint×config-weight heuristic (only the ordering matters)."""
    est = estimates.get(estimate_key(*pair))
    if est is not None:
        return est
    weight = 1.0
    for prefix, value in _CONFIG_WEIGHTS:
        if pair[1].startswith(prefix):
            weight = value
            break
    return weight * get_workload(pair[0]).spec.n_functions / 1000.0


# -- worker side --------------------------------------------------------------

_worker_caches: Dict[str, ResultCache] = {}
_worker_traces: TraceMemo = OrderedDict()
_worker_heartbeats: Dict[str, object] = {}


def _worker_heartbeat(obs_dir: str):
    """This worker's heartbeat file under ``<obs_dir>/heartbeats/``."""
    beat = _worker_heartbeats.get(obs_dir)
    if beat is None:
        from ..obs.runs import Heartbeat

        beat = _worker_heartbeats[obs_dir] = Heartbeat(obs_dir)
    return beat


def _worker_cache(root: str) -> ResultCache:
    cache = _worker_caches.get(root)
    if cache is None:
        cache = _worker_caches[root] = ResultCache(root)
    return cache


def _worker_load(cache: ResultCache, name: str, shm_name: Optional[str],
                 ) -> Tuple[ArrayTrace, Optional[object]]:
    """One component trace for this worker's memo: attached zero-copy
    from shared memory when the host published it, otherwise
    loaded/generated through the disk cache."""
    if shm_name is None:
        return cache.array_trace_for(get_workload(name)), None
    from multiprocessing import resource_tracker, shared_memory

    # Attach without registering: on Python < 3.13 attaching also
    # registers the segment with the resource tracker (there is no
    # ``track=False`` yet), and that late REGISTER races with the
    # host's unlink-time UNREGISTER, producing spurious "leaked
    # shared_memory objects" warnings at shutdown. The host owns the
    # segment's lifecycle; workers must not track it.
    real_register = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None
    try:
        shm = shared_memory.SharedMemory(name=shm_name)
    finally:
        resource_tracker.register = real_register
    return ArrayTrace.from_shared_memory(shm), shm


def _worker_run_pair(workload: str, config: str, shm_names: Dict[str, str],
                     cache_root: str,
                     obs_carrier: Optional[Dict[str, str]] = None,
                     ) -> Tuple[str, str, dict, Dict[str, int]]:
    """Pool entry point: simulate one pair into the shared disk cache.

    ``shm_names`` maps the pair's published component traces to their
    shared-memory segments; the rest load through the disk cache.

    With an ``obs_carrier`` (see :meth:`repro.obs.Tracer.carrier`) the
    worker joins the host's trace: it emits one ``pair`` span parented to
    the host's sweep span into the shared ``spans.jsonl`` and appends
    ``run``/``idle`` records to its per-pid heartbeat file. The returned
    counter delta lets the host fold worker-side cache behaviour into
    its own :attr:`ResultCache.counters`.
    """
    cache = _worker_cache(cache_root)
    before = dict(cache.counters)
    beat = tracer = None
    if obs_carrier is not None:
        from ..obs.spans import Tracer

        tracer = Tracer.from_carrier(obs_carrier)
        beat = _worker_heartbeat(obs_carrier["obs_dir"])
        beat.beat("run", workload=workload, config=config)

    def run() -> SimResult:
        # Single-flight re-check: a concurrent fill may have produced
        # this pair since it was scheduled; never simulate twice. The
        # host's scan already counted this pair's miss, so the re-check
        # stays out of the counters.
        result = cache.load(workload, config, count=False)
        if result is None:
            traces = _memo_traces(
                _worker_traces, trace_names(workload),
                lambda name: _worker_load(cache, name, shm_names.get(name)))
            result = _simulate(get_workload(workload), config, traces)
            cache.store(result)
        return result

    if tracer is not None:
        with tracer.span("pair", workload=workload, config=config,
                         key=estimate_key(workload, config)):
            result = run()
    else:
        result = run()
    if beat is not None:
        beat.done += 1
        beat.beat("idle")
    delta = {k: cache.counters[k] - before[k] for k in before}
    return workload, config, result.to_dict(), delta


# -- host side ----------------------------------------------------------------

class SweepEngine:
    """Schedules (workload, config) pairs; see the module docstring.

    ``jobs == 1`` simulates inline in the same scheduling order (no
    process pool, traces memoised in-process); ``jobs > 1`` runs a
    ``ProcessPoolExecutor``, created per :meth:`run` by default or kept
    alive across runs with ``persistent=True`` (see the module
    docstring). After :meth:`run`, :attr:`fill_seconds` /
    :attr:`pairs_simulated` describe the fill (``pairs_per_min``
    derives the campaign throughput metric).
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None,
                 obs=None, persistent: bool = False) -> None:
        self.jobs = max(1, int(jobs))
        self.cache = cache if cache is not None else default_cache()
        self.obs = obs                  # repro.obs.RunObs or None
        self.persistent = persistent
        self.fill_seconds = 0.0
        self.pairs_simulated = 0
        # Warm state a persistent engine carries between run() calls.
        self._memo: TraceMemo = OrderedDict()
        self._pool = None                              # ProcessPoolExecutor
        self._published: "OrderedDict[str, object]" = \
            OrderedDict()                       # component -> SharedMemory

    def __enter__(self) -> "SweepEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Release warm state: shut the persistent pool down, unlink the
        kept shared-memory segments, drop the trace memo. Idempotent;
        a no-op for non-persistent engines (their state never outlives
        :meth:`run`)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        while self._published:
            _name, shm = self._published.popitem(last=False)
            try:
                shm.close()
                shm.unlink()
            except OSError:       # pragma: no cover - defensive
                _log.warning("failed to unlink trace segment %s", _name)
        while self._memo:
            _drop_trace(self._memo, next(iter(self._memo)))

    @property
    def pairs_per_min(self) -> float:
        """Simulated pairs per minute of the last :meth:`run` fill."""
        if not self.fill_seconds:
            return 0.0
        return self.pairs_simulated * 60.0 / self.fill_seconds

    def run(self, pairs: Iterable[Pair],
            progress: Optional[ProgressFn] = None) -> Dict[Pair, SimResult]:
        """Simulate every missing pair; return results for *all* pairs."""
        start = perf_counter()
        ordered: List[Pair] = []
        seen = set()
        for pair in pairs:
            pair = (pair[0], pair[1])
            if pair not in seen:          # dedup: simulate once, ever
                seen.add(pair)
                ordered.append(pair)

        cache = self.cache
        results: Dict[Pair, SimResult] = {}
        todo: List[Pair] = []
        for pair in ordered:
            hit = cache.load(*pair)
            if hit is not None:
                results[pair] = hit
            else:
                todo.append(pair)

        self.pairs_simulated = len(todo)
        if todo:
            estimates = cache.load_estimates()
            todo.sort(key=lambda p: -expected_cost(p, estimates))
            obs = self.obs
            if obs is not None:
                obs.sweep_started(
                    todo, len(ordered),
                    {p: expected_cost(p, estimates) for p in todo},
                    self.jobs)
            fresh: Dict[str, float] = {}
            try:
                if self.jobs == 1:
                    self._run_inline(todo, results, fresh, progress)
                else:
                    self._run_pool(todo, results, fresh, progress)
            finally:
                if obs is not None:
                    obs.sweep_finished(self)
            cache.store_estimates(fresh)
        self.fill_seconds = perf_counter() - start
        return results

    # -- inline (jobs == 1) ------------------------------------------------

    def _run_inline(self, todo: List[Pair], results: Dict[Pair, SimResult],
                    estimates: Dict[str, float],
                    progress: Optional[ProgressFn]) -> None:
        cache = self.cache
        obs = self.obs
        # A persistent engine's memo survives this run, so repeat
        # requests for the same trace skip the decode entirely; a
        # throwaway memo drops each trace after the last pair needing it.
        memo = self._memo if self.persistent else OrderedDict()
        needs, remaining = _component_demand(todo)

        def load(name: str) -> Tuple[ArrayTrace, None]:
            return cache.array_trace_for(get_workload(name)), None

        done = 0
        for workload, config in todo:
            if obs is not None:
                obs.pair_started(workload, config)
            traces = _memo_traces(memo, needs[workload], load)
            result = _simulate(get_workload(workload), config, traces,
                               cache=cache)
            cache.store(result)
            if not self.persistent:
                for name in set(needs[workload]):
                    remaining[name] -= 1
                    if remaining[name] == 0 and name in memo:
                        _drop_trace(memo, name)
            self._note_done(results, estimates, workload, config, result)
            done += 1
            if obs is not None:
                obs.pair_done(workload, config, result)
            if progress is not None:
                progress(workload, config, done, len(todo))

    # -- process pool (jobs > 1) -------------------------------------------

    def _run_pool(self, todo: List[Pair], results: Dict[Pair, SimResult],
                  estimates: Dict[str, float],
                  progress: Optional[ProgressFn]) -> None:
        from concurrent.futures import (FIRST_COMPLETED, ProcessPoolExecutor,
                                        wait)

        cache = self.cache
        cache_root = str(cache.root)
        needs, remaining = _component_demand(todo)

        # Ready heap (longest first; `todo` is already sorted so the index
        # is the tiebreak) and pairs blocked behind the pioneer pair that
        # generates one of their component traces.
        ready: List[Tuple[int, str, str]] = []
        blocked: Dict[str, List[Tuple[int, Pair]]] = {}
        pioneers: Dict[str, Pair] = {}

        def schedule(index: int, pair: Pair) -> None:
            names = needs[pair[0]]
            for name in names:
                if name in pioneers:
                    blocked.setdefault(name, []).append((index, pair))
                    return
            for name in names:
                if not cache.trace_exists(name):
                    pioneers[name] = pair
            heapq.heappush(ready, (index,) + pair)

        for index, pair in enumerate(todo):
            schedule(index, pair)

        # Per-run segments are unlinked at each component's last pair; a
        # persistent engine instead keeps a bounded LRU of segments warm
        # across runs (unlinked only on eviction or close()).
        published = self._published if self.persistent else OrderedDict()

        def publish(names: Sequence[str]) -> Dict[str, str]:
            """Shared-memory names for a pair's component traces,
            creating a segment for each component that ≥2 of the
            remaining pairs need and that is on disk."""
            shm_names = {}
            for name in names:
                shm = published.get(name)
                if shm is not None:
                    published.move_to_end(name)
                elif remaining[name] >= 2 and cache.trace_exists(name):
                    trace = cache.array_trace_for(get_workload(name))
                    shm = published[name] = trace.to_shared_memory()
                    trace.release()
                else:
                    continue     # pioneer run, or not worth a segment
                shm_names[name] = shm.name
            while self.persistent and \
                    len(published) > max(PERSIST_SHM_LIMIT, len(names)):
                unpublish(next(iter(published)))
            return shm_names

        def unpublish(name: str) -> None:
            shm = published.pop(name, None)
            if shm is not None:
                shm.close()
                shm.unlink()

        done = 0
        obs = self.obs
        carrier = obs.worker_carrier() if obs is not None else None
        if self.persistent:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            pool = self._pool
        else:
            pool = ProcessPoolExecutor(max_workers=self.jobs)
        try:
            inflight = {}
            while ready or inflight:
                while ready and len(inflight) < self.jobs:
                    _idx, workload, config = heapq.heappop(ready)
                    future = pool.submit(_worker_run_pair, workload,
                                         config, publish(needs[workload]),
                                         cache_root, carrier)
                    inflight[future] = (workload, config)
                    if obs is not None:
                        obs.pair_started(workload, config)
                completed, _ = wait(inflight, return_when=FIRST_COMPLETED)
                for future in completed:
                    pair = inflight.pop(future)
                    workload, config = pair
                    _w, _c, payload, delta = future.result()
                    for key, count in delta.items():
                        cache.counters[key] += count
                    result = SimResult.from_dict(payload)
                    self._note_done(results, estimates, workload, config,
                                    result)
                    for name in set(needs[workload]):
                        remaining[name] -= 1
                        if remaining[name] == 0 and not self.persistent:
                            unpublish(name)
                        if pioneers.get(name) == pair:
                            # Pioneer done: the trace is on disk now.
                            del pioneers[name]
                            for waiter in blocked.pop(name, ()):
                                schedule(*waiter)
                    done += 1
                    if obs is not None:
                        obs.pair_done(workload, config, result)
                    if progress is not None:
                        progress(workload, config, done, len(todo))
        finally:
            if not self.persistent:
                pool.shutdown(wait=True)
                for name in list(published):
                    try:
                        unpublish(name)
                    except OSError:   # pragma: no cover - defensive
                        _log.warning("failed to unlink trace segment for %s",
                                     name)

    @staticmethod
    def _note_done(results, estimates, workload, config,
                   result: SimResult) -> None:
        results[(workload, config)] = result
        wall = result.extra.get("sim_wall_seconds")
        if wall:
            estimates[estimate_key(workload, config)] = wall


def run_pairs(pairs: Iterable[Pair], jobs: int = 1,
              cache: Optional[ResultCache] = None,
              progress: Optional[ProgressFn] = None,
              obs=None) -> Dict[Pair, SimResult]:
    """Convenience wrapper: one :class:`SweepEngine` run."""
    return SweepEngine(jobs=jobs, cache=cache,
                       obs=obs).run(pairs, progress=progress)


# -- command-line campaigns ---------------------------------------------------

def fill_totals(engine) -> Dict[str, Any]:
    """The last fill's totals, as the fill CLIs report them."""
    return {"pairs_simulated": engine.pairs_simulated,
            "fill_seconds": round(engine.fill_seconds, 3),
            "fill_pairs_per_min": round(engine.pairs_per_min, 1)}


def positive_int(text: str) -> int:
    from argparse import ArgumentTypeError

    value = int(text)
    if value < 1:
        raise ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def add_engine_arguments(parser) -> None:
    """Add the options :func:`campaign` reads to an
    ``argparse.ArgumentParser``: ``--jobs``, ``--obs-dir`` and
    ``--server``."""
    parser.add_argument(
        "--jobs", type=positive_int, default=1, metavar="N",
        help="worker processes for the sweep engine (default: 1, inline); "
             "results do not depend on it")
    parser.add_argument(
        "--obs-dir", default=None, metavar="DIR",
        help="write run observability artifacts (manifest, span trace, "
             "heartbeats, metrics) into DIR; defaults to $REPRO_OBS_DIR, "
             "off when neither is set")
    parser.add_argument(
        "--server", default=None, metavar="ADDR",
        help="route the simulations through a running simulation daemon "
             "(unix:/path or host:port; see docs/service.md); defaults "
             "to $REPRO_SERVER, local execution when neither is set or "
             "the daemon does not answer")


@contextlib.contextmanager
def campaign(opts, kind: str, argv: Sequence[str], manifest: Dict[str, Any],
             metrics: Callable[[Any], Dict[str, Any]]):
    """Observer and engine for one CLI run; yields ``(obs, engine)``.

    ``opts`` carries the :func:`add_engine_arguments` options. The
    observer is a :class:`repro.obs.RunObs` recording a ``kind`` run
    (``argv`` and the ``manifest`` settings) into ``--obs-dir`` or
    ``$REPRO_OBS_DIR``, else a progress-only
    :class:`repro.obs.ProgressObs`. The engine is a
    :class:`repro.service.RemoteEngine` when ``--server`` or
    ``$REPRO_SERVER`` names a daemon that answers, else a local
    :class:`SweepEngine` with ``--jobs`` workers. On the way out, also
    when the body raises, the engine is closed and ``obs.finish`` writes
    the result-cache counters plus ``metrics(engine)``; a clean exit
    prints the run directory.
    """
    from ..obs import ProgressObs, RunObs, SweepProgress, resolve_obs_dir
    from ..telemetry import MetricsRegistry

    obs_dir = resolve_obs_dir(opts.obs_dir)
    if obs_dir is not None:
        obs = RunObs.create(obs_dir, kind, argv=[kind] + list(argv),
                            config=manifest)
    else:
        obs = ProgressObs(SweepProgress())
    cache = default_cache()
    server = opts.server or os.environ.get("REPRO_SERVER")
    if server:
        from ..service import RemoteEngine, probe

        info = probe(server)
        if info is None:
            print(f"service at {server} not answering; running locally",
                  flush=True)
            server = None
    if server:
        engine = RemoteEngine(server, obs=obs)
        engine.jobs = int(info.get("jobs", 1))
        print(f"routing through service at {server} "
              f"(pid {info.get('pid')}, jobs={engine.jobs})", flush=True)
    else:
        engine = SweepEngine(jobs=opts.jobs, cache=cache, obs=obs)
    status = "ERROR"
    try:
        yield obs, engine
        status = "OK"
    finally:
        engine.close()
        registry = MetricsRegistry()
        cache.register_metrics(registry)
        snapshot = registry.snapshot()
        snapshot.update(metrics(engine))
        if server:
            snapshot["server"] = server
        obs.finish(metrics=snapshot, status=status)
    if obs_dir is not None:
        print(f"obs: {obs_dir}", flush=True)
