"""The observer objects orchestration code calls into.

Two observers share one duck-typed hook surface (the methods
:mod:`repro.experiments.pool` and :mod:`repro.dse.search` call behind
``obs is not None`` guards). An observer is the only timing hook those
layers take; :func:`repro.experiments.pool.campaign` picks one for the
``run_all``, ``smt_matrix`` and ``dse`` CLIs:

* :class:`ProgressObs` — live progress rendering only; what the CLIs use
  when no ``--obs-dir`` is given, so every interactive fill gets the TTY
  status line without writing any artifact;
* :class:`RunObs` — the full treatment: a
  :class:`~repro.obs.runs.ObsRun` directory, span tracing with
  cross-process carriers for pool workers, heartbeats, final metrics —
  plus the same progress rendering.

Span tree shape (identical at every ``--jobs`` level)::

    <kind>                      root span, the whole process
    └─ gen000, gen001, ...      DSE generations (searches only)
       └─ sweep                 one per SweepEngine.run with cold pairs
          └─ pair …             one per simulated pair; emitted by the
                                worker process at jobs > 1 (cross-process
                                via the carrier), by the host inline

Pairs answered from the result cache never get spans — they cost no
wall-clock worth tracing; the cache hit count lands in the sweep span's
attributes and the final metrics snapshot instead.
"""

from __future__ import annotations

import contextlib
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from .progress import SweepProgress
from .runs import ObsRun

Pair = Tuple[str, str]


def smt_span_attributes(result) -> Dict[str, Any]:
    """Per-thread span attributes for an SMT co-run pair's result.

    Solo results get no extra attributes; composites contribute the
    arbitration policy plus each hardware thread's workload, cycles and
    instructions under ``thread<N>_*`` keys, so span consumers (``repro.obs
    report`` / ``tail``) can break a co-run pair down without re-reading
    the result cache.
    """
    smt = result.extra.get("smt")
    if not smt:
        return {}
    attrs: Dict[str, Any] = {
        "smt_policy": smt.get("policy"),
        "smt_threads": smt.get("n_threads"),
    }
    for tdict in result.extra.get("threads", ()):
        tid = tdict.get("extra", {}).get("thread")
        if tid is None:
            continue
        attrs[f"thread{tid}_workload"] = tdict.get("workload")
        attrs[f"thread{tid}_cycles"] = tdict.get("cycles")
        attrs[f"thread{tid}_instructions"] = tdict.get("instructions")
    return attrs


class ProgressObs:
    """Progress-only observer: the engine hook surface, no artifacts."""

    def __init__(self, progress: Optional[SweepProgress] = None) -> None:
        self.progress = progress
        self.pairs_done = 0
        #: Set by :class:`repro.service.client.RemoteEngine`: the pairs
        #: run on a daemon, which emits their spans through our carrier,
        #: so the host side must not record them a second time.
        self.remote = False

    # -- generic -------------------------------------------------------------

    def span(self, name: str, **attributes: Any):
        """No tracer here; a span is a no-op context."""
        return contextlib.nullcontext()

    def finish(self, metrics: Optional[Dict[str, Any]] = None,
               status: str = "OK") -> None:
        if self.progress is not None:
            self.progress.close()

    # -- sweep-engine hooks --------------------------------------------------

    def sweep_started(self, todo: List[Pair], total_pairs: int,
                      costs: Dict[Pair, float], jobs: int) -> None:
        if self.progress is not None:
            self.progress.sweep_started(todo, total_pairs, costs, jobs)

    def pair_started(self, workload: str, config: str) -> None:
        if self.progress is not None:
            self.progress.pair_started(workload, config)

    def pair_done(self, workload: str, config: str, result=None) -> None:
        self.pairs_done += 1
        wall = 0.0
        if result is not None:
            wall = float(result.extra.get("sim_wall_seconds") or 0.0)
        if self.progress is not None:
            self.progress.pair_done(workload, config, wall_seconds=wall)

    def worker_carrier(self) -> Optional[Dict[str, str]]:
        return None

    def sweep_finished(self, engine=None) -> None:
        if self.progress is not None:
            self.progress.close()


class RunObs(ProgressObs):
    """Full observability for one orchestrated run (see module doc)."""

    def __init__(self, run: ObsRun,
                 progress: Optional[SweepProgress] = None) -> None:
        super().__init__(progress)
        self.run = run
        self.tracer = run.tracer
        self._sweep_cm = None
        self._sweep_span_id: Optional[str] = None
        self._jobs = 1
        self._pair_starts: Dict[Pair, int] = {}

    @classmethod
    def create(cls, obs_dir, kind: str, argv: Optional[List[str]] = None,
               config: Optional[Dict[str, Any]] = None,
               progress_stream=None, live: bool = True) -> "RunObs":
        """One call for CLIs: run directory + tracer + progress."""
        run = ObsRun(obs_dir, kind, argv=argv, config=config)
        progress = None
        if live:
            progress = SweepProgress(
                stream=progress_stream if progress_stream is not None
                else sys.stdout)
        return cls(run, progress=progress)

    # -- generic -------------------------------------------------------------

    def span(self, name: str, **attributes: Any):
        return self.tracer.span(name, **attributes)

    def finish(self, metrics: Optional[Dict[str, Any]] = None,
               status: str = "OK") -> None:
        super().finish()
        self.run.finish(metrics=metrics, status=status)

    # -- sweep-engine hooks --------------------------------------------------

    def sweep_started(self, todo: List[Pair], total_pairs: int,
                      costs: Dict[Pair, float], jobs: int) -> None:
        self._jobs = jobs
        self._sweep_cm = self.tracer.span(
            "sweep", pairs=len(todo), cached=total_pairs - len(todo),
            jobs=jobs)
        self._sweep_span_id = self._sweep_cm.__enter__()
        super().sweep_started(todo, total_pairs, costs, jobs)

    def pair_started(self, workload: str, config: str) -> None:
        self._pair_starts[(workload, config)] = time.time_ns()
        super().pair_started(workload, config)

    def pair_done(self, workload: str, config: str, result=None) -> None:
        start_ns = self._pair_starts.pop((workload, config), None)
        # At jobs > 1 the worker that simulated the pair emitted its span
        # (with in-worker timing, via the carrier); likewise the daemon
        # when the engine is remote. Inline, the host observed the
        # boundaries itself and records the span here.
        if self._jobs == 1 and not self.remote and start_ns is not None:
            wall = 0.0
            attrs: Dict[str, Any] = {}
            if result is not None:
                wall = float(result.extra.get("sim_wall_seconds") or 0.0)
                attrs = smt_span_attributes(result)
            self.tracer.record_span(
                "pair", start_ns, time.time_ns(),
                parent_span_id=self._sweep_span_id,
                workload=workload, config=config,
                key=f"{workload}::{config}", sim_wall_seconds=wall,
                **attrs)
        super().pair_done(workload, config, result)

    def worker_carrier(self) -> Dict[str, str]:
        """Trace context handed to pool workers through ``submit``; the
        sweep span is the parent of every worker-side pair span."""
        carrier = self.tracer.carrier()
        if self._sweep_span_id is not None:
            carrier["span_id"] = self._sweep_span_id
        carrier["obs_dir"] = str(self.run.dir)
        return carrier

    def sweep_finished(self, engine=None) -> None:
        if self._sweep_cm is not None:
            self._sweep_cm.__exit__(None, None, None)
            self._sweep_cm = None
            self._sweep_span_id = None
        super().sweep_finished(engine)
