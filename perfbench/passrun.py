"""One measured pass, in a fresh interpreter: ``python3 passrun.py JOB``.

``JOB`` is a JSON file written by ``run.py``: the checkout's ``src``
directory, a prepared result-cache root, the pairs and whether to trace.
The pass runs ``SweepEngine(jobs=1, cache=ResultCache(root)).run(pairs)``
-- the entry point ``run_all`` and ``dse`` use -- once, and writes its
timings, each pair's simulated counters (as returned and as stored) and, when
traced, the spans and stack samples to ``JOB``'s ``out`` path.

A fresh process per pass keeps every pass cold (no warm module state),
makes its peak RSS its own, and keeps the sampler's signal handler out
of untraced passes.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from contextlib import ExitStack
from pathlib import Path
from time import perf_counter


def main(job_path: str) -> None:
    started = perf_counter()
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    from repro.experiments.pool import SweepEngine
    from repro.experiments.runner import ResultCache
    import repro.smt  # noqa: F401  (imported lazily by the SMT runner)
    import_s = perf_counter() - started

    from check import counters
    from layers import SpanRecorder, StackSampler, instrument

    pairs = [tuple(p) for p in job["pairs"]]
    engine = SweepEngine(jobs=1, cache=ResultCache(Path(job["root"])))
    stamps = []

    def progress(_workload, _config, _done, _total):
        stamps.append(perf_counter())

    recorder = SpanRecorder()
    sampler = StackSampler()
    error = None
    results = {}
    with ExitStack() as stack:
        if job["traced"]:
            stack.enter_context(instrument(recorder))
            stack.enter_context(sampler)
        t0 = perf_counter()
        try:
            results = engine.run(pairs, progress=progress)
        except Exception:
            error = traceback.format_exc()
        t1 = perf_counter()

    # Read every pair back through a fresh cache: the path ends at a
    # stored SimResult, so the stored copy is checked too.
    reader = ResultCache(Path(job["root"]))
    out_pairs = []
    for workload, config in pairs:
        returned = results.get((workload, config))
        stored = reader.load(workload, config)
        out_pairs.append({
            "workload": workload,
            "config": config,
            "returned": counters(returned.to_dict()) if returned else None,
            "stored": counters(stored.to_dict()) if stored else None,
        })

    out = {
        "import_s": import_s,
        "wall_s": t1 - t0,
        "pair_s": [b - a for a, b in zip([t0] + stamps, stamps)],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "error": error,
        "pairs": out_pairs,
    }
    if job["traced"]:
        out["spans"] = [(n, s - t0, e - t0, p)
                        for n, s, e, p in recorder.finished()]
        out["traced_wall"] = [0.0, t1 - t0]
        out["samples"] = sampler.counts
    with open(job["out"], "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1])
