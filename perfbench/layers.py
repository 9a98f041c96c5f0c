"""Per-layer tracing from outside the program.

The traced pass wraps the public functions at each layer boundary in
spans recorded by :class:`SpanRecorder`, and samples the interpreter
stack with :class:`StackSampler` to split time inside the cycle loops,
where wrapping per-call functions such as ``lookup`` would perturb what
it measures. Nothing here edits the program's source: :func:`instrument`
replaces module and class attributes and restores them on exit.

Spans stay in memory as ``(name, start, end, parent)`` tuples and are
written out once the run ends.
"""

from __future__ import annotations

import importlib
import signal
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Sequence, Tuple

#: (span name, module, qualified attribute). Each function is patched in
#: its defining module/class *and* in every loaded ``repro`` module that
#: imported it by name (``from ..frontend.ftq import
#: precompute_range_stream`` binds a second reference the first patch
#: would miss).
BOUNDARIES = (
    ("trace.synth", "repro.trace.synthesis", "generate_trace"),
    ("trace.encode", "repro.trace.arrays", "ArrayTrace.from_instructions"),
    ("trace.write", "repro.trace.io", "write_trace"),
    ("trace.read", "repro.trace.io", "read_trace"),
    ("frontend.walk", "repro.frontend.ftq", "precompute_range_stream"),
    ("cpu.build", "repro.cpu.machine", "build_machine"),
    ("cpu.run", "repro.cpu.machine", "Machine.run"),
    ("smt.build", "repro.smt.machine", "build_smt_machine"),
    ("smt.run", "repro.smt.machine", "SMTMachine.run"),
    ("experiments.scan", "repro.experiments.runner", "ResultCache.load"),
    ("experiments.store", "repro.experiments.runner", "ResultCache.store"),
    ("experiments.store", "repro.experiments.runner",
     "ResultCache.store_estimates"),
    ("experiments.engine", "repro.experiments.pool", "SweepEngine.run"),
)

#: Span name -> reported self-time metric.
SELF_TIME_METRICS = {
    "trace.synth": "trace.synth_s",
    "trace.encode": "trace.encode_s",
    "trace.write": "trace.write_s",
    "trace.read": "trace.read_s",
    "frontend.walk": "frontend.walk_s",
    "cpu.build": "cpu.build_s",
    "cpu.run": "cpu.run_s",
    "smt.build": "smt.build_s",
    "smt.run": "smt.run_s",
    "experiments.scan": "experiments.scan_s",
    "experiments.store": "experiments.store_s",
    "experiments.engine": "experiments.engine_self_s",
}

#: Span name -> reported call-count metric.
CALL_METRICS = {
    "trace.synth": "trace.synth_calls",
    "trace.read": "trace.reads",
    "frontend.walk": "frontend.walks",
}

Span = Tuple[str, float, float, int]


class SpanRecorder:
    """In-memory spans; ``parent`` is the index of the enclosing span or
    -1. Single-threaded: the sweep engine runs pairs inline."""

    def __init__(self) -> None:
        self.spans: List[List] = []
        self._stack: List[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def finished(self) -> List[Span]:
        return [tuple(s) for s in self.spans]


def _covered(intervals: Sequence[Tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per span name, the summed duration minus the part of each span's
    interval that its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals: Dict[str, float] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        own = (end - start) - _covered(children.get(index, ()), start, end)
        totals[name] = totals.get(name, 0.0) + own
    return totals


def unattributed(spans: Sequence[Span], start: float, end: float) -> float:
    """Wall time in ``[start, end]`` that no top-level span covers."""
    roots = [(s, e) for _n, s, e, parent in spans if parent < 0]
    return (end - start) - _covered(roots, start, end)


def call_counts(spans: Sequence[Span]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for name, *_rest in spans:
        counts[name] = counts.get(name, 0) + 1
    return counts


# -- patching ------------------------------------------------------------------

def _resolve(module: str, qualname: str):
    """(owner, attribute, raw class-dict value) for ``module.qualname``."""
    owner = sys.modules[module]
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr]
    return owner, attr, raw


@contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[None]:
    """Wrap every :data:`BOUNDARIES` function in a span for the duration
    of the block. Imports the modules it patches, including ones the
    program imports lazily (``repro.smt``), so no alias is missed."""
    for _name, module, _qual in BOUNDARIES:
        importlib.import_module(module)
    importlib.import_module("repro.smt")
    saved: List[Tuple[object, str, object]] = []
    try:
        for name, module, qualname in BOUNDARIES:
            owner, attr, raw = _resolve(module, qualname)
            if isinstance(raw, classmethod):
                wrapped = classmethod(recorder.wrap(name, raw.__func__))
            else:
                wrapped = recorder.wrap(name, raw)
            saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            if isinstance(owner, type):
                continue
            # Module-level function: rebind every by-name import of it.
            for mod_name, mod in list(sys.modules.items()):
                if mod is owner or not (mod_name == "repro"
                                        or mod_name.startswith("repro.")):
                    continue
                for alias, value in list(vars(mod).items()):
                    if value is raw:
                        saved.append((mod, alias, raw))
                        setattr(mod, alias, wrapped)
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# -- statistical sampler -------------------------------------------------------

#: ``repro`` module prefix -> host-share bucket, first match wins. The
#: innermost ``repro`` frame of each sample decides its bucket.
BUCKETS = (
    ("repro.memory", "memory"),
    ("repro.core", "core"),
    ("repro.cpu.backend", "cpu_backend"),
    ("repro.cpu", "cpu_machine"),
    ("repro.smt", "smt"),
    ("repro.frontend", "frontend"),
    ("repro.trace", "trace"),
)
BUCKET_NAMES = tuple(b for _p, b in BUCKETS) + ("other",)

#: Seconds of process CPU time between stack samples.
SAMPLE_INTERVAL_S = 0.001


def bucket_of(module: str) -> str:
    for prefix, bucket in BUCKETS:
        if module == prefix or module.startswith(prefix + "."):
            return bucket
    return "other"


class StackSampler:
    """CPU-time profiler: ``ITIMER_PROF`` delivers ``SIGPROF`` every
    :data:`SAMPLE_INTERVAL_S` of process CPU time, and the handler walks the
    interrupted stack to the innermost ``repro`` frame. Samples outside
    any ``repro`` frame, or in an unbucketed ``repro`` module, count as
    ``other``. Main thread only (Python runs signal handlers there)."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {b: 0 for b in BUCKET_NAMES}
        self._buckets: Dict[str, str] = {}
        self._previous = None

    def _handle(self, _signum, frame) -> None:
        bucket = "other"
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            if module.startswith("repro."):
                bucket = self._buckets.get(module)
                if bucket is None:
                    bucket = self._buckets[module] = bucket_of(module)
                break
            frame = frame.f_back
        self.counts[bucket] += 1

    def __enter__(self) -> "StackSampler":
        self._previous = signal.signal(signal.SIGPROF, self._handle)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    @property
    def samples(self) -> int:
        return sum(self.counts.values())
