"""Repository benchmark: workload name -> stored ``SimResult``, end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold_fill --seed 0 --seconds 20 \
        --trace 0

Each pass sets up a fresh result cache (generating the traces the
workload prepares), then times one ``SweepEngine(jobs=1,
cache=ResultCache(root)).run(pairs)`` call in a fresh interpreter
(``passrun.py``). Passes repeat until ``--seconds`` of measured time
have accumulated (at least two untraced passes; with ``--trace 1``,
passes alternate untraced and traced). An untraced run sets up at least
``SETUP_ROUNDS`` times: if fewer passes ran, set-up-only passes (no
pairs) make up the rest. Every pair's counters, as returned and as
stored, must equal ``expected.json``.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` pair runs, and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics (see
``layers.py``) with ``--trace 1``. The exit code is 0 only when every
pair ran and matched; a checkout without ``src/repro`` exits 2 without a
result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import load_expected, mismatches, pair_key  # noqa: E402
from layers import (BUCKET_NAMES, CALL_METRICS, SELF_TIME_METRICS,  # noqa: E402
                    call_counts, self_times, unattributed)
from workloads import REPRO_SCALE, SELECTORS, select  # noqa: E402

#: Every run ends within this many seconds (passes stop starting early).
RUN_BUDGET_S = 150.0
#: ``setup_s`` is the median of at least this many set-ups per run.
SETUP_ROUNDS = 3
WORK_DIR = ".perfbench_work"


def _metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def _pass_instructions(p: Dict) -> int:
    return sum(pair["returned"]["instructions"] for pair in p["pairs"]
               if pair["returned"])


def end_to_end_metrics(passes: List[Dict]) -> Dict[str, Dict]:
    """The user-visible metrics over the untraced passes; set-up-only
    passes count towards ``setup_s`` only."""
    timed = [p for p in passes if p["pairs"]]
    walls = sum(p["wall_s"] for p in timed)
    pair_s = [d for p in timed for d in p["pair_s"]]
    return {
        "instr_per_s": _metric(
            sum(_pass_instructions(p) for p in timed) / walls, "instr/s"),
        "pair_s_p50": _metric(statistics.median(pair_s), "s"),
        "setup_s": _metric(
            statistics.median(p["setup_s"] for p in passes), "s"),
        "peak_rss_mb": _metric(
            statistics.median(p["peak_rss_mb"] for p in timed), "MB"),
    }


def _simulated(pairs: List[Dict], smt: Optional[bool] = None
               ) -> Dict[str, int]:
    """Summed simulated counts of all pairs, or only of the SMT
    (``smt=True``) or single-thread (``smt=False``) ones."""
    total = {"instructions": 0, "cycles": 0, "l1i_misses": 0,
             "partial": 0, "fetch_stall_cycles": 0, "branch_mispredicts": 0}
    for pair in pairs:
        c = pair["returned"]
        if c is None or (smt is not None
                         and pair["workload"].startswith("smt:") != smt):
            continue
        fe = c["frontend"]
        total["instructions"] += c["instructions"]
        total["cycles"] += c["cycles"]
        total["l1i_misses"] += fe["l1i_misses"]
        total["partial"] += (fe["l1i_partial_missing"]
                             + fe["l1i_partial_overrun"]
                             + fe["l1i_partial_underrun"])
        total["fetch_stall_cycles"] += fe["fetch_stall_cycles"]
        total["branch_mispredicts"] += fe["branch_mispredicts"]
    return total


def layer_metrics(traced: List[Dict], untraced: List[Dict]) -> Dict[str, Dict]:
    """Per-layer metrics, per traced pass (averaged over traced passes)."""
    n = len(traced)
    selfs: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    samples = {b: 0 for b in BUCKET_NAMES}
    unattr = wall = 0.0
    for p in traced:
        for name, value in self_times(p["spans"]).items():
            selfs[name] = selfs.get(name, 0.0) + value
        for name, value in call_counts(p["spans"]).items():
            calls[name] = calls.get(name, 0) + value
        for bucket, count in p["samples"].items():
            samples[bucket] += count
        unattr += unattributed(p["spans"], *p["traced_wall"])
        wall += p["traced_wall"][1] - p["traced_wall"][0]

    out: Dict[str, Dict] = {}
    for span, metric in SELF_TIME_METRICS.items():
        out[metric] = _metric(selfs.get(span, 0.0) / n, "s")
    for span, metric in CALL_METRICS.items():
        out[metric] = _metric(calls.get(span, 0) / n, "count")
    out["unattributed_s"] = _metric(unattr / n, "s")
    out["traced_wall_s"] = _metric(wall / n, "s")

    total_samples = sum(samples.values())
    for bucket in BUCKET_NAMES:
        share = samples[bucket] / total_samples if total_samples else 0.0
        out[f"host_share.{bucket}"] = _metric(share, "share")
    out["sampler.samples"] = _metric(total_samples / n, "count")

    pairs = [pair for p in traced for pair in p["pairs"]]
    total = _simulated(pairs)
    per_k = 1000.0 / total["instructions"] if total["instructions"] else 0.0
    out["l1i.mpki"] = _metric(total["l1i_misses"] * per_k, "1/kinstr")
    out["l1i.partial_pki"] = _metric(total["partial"] * per_k, "1/kinstr")
    out["l1i.fetch_stall_pki"] = _metric(
        total["fetch_stall_cycles"] * per_k, "cycles/kinstr")
    out["frontend.branch_mpki"] = _metric(
        total["branch_mispredicts"] * per_k, "1/kinstr")
    out["sim_cycles"] = _metric(total["cycles"] / n, "cycles")
    for layer, smt in (("cpu", False), ("smt", True)):
        cycles = _simulated(pairs, smt)["cycles"]
        run_s = selfs.get(f"{layer}.run", 0.0)
        out[f"{layer}.host_ns_per_cycle"] = _metric(
            run_s * 1e9 / cycles if cycles else 0.0, "ns/cycle")

    # Pair by pair (both kinds of pass run the pairs in the same order),
    # so a burst of host noise in one pair does not swing the ratio.
    ratios = [t / u for t, u in zip(_pair_medians(traced),
                                    _pair_medians(untraced))]
    out["trace_overhead"] = _metric(statistics.median(ratios), "ratio")
    return out


def _pair_medians(passes: List[Dict]) -> List[float]:
    """Each pair's median host seconds over ``passes``."""
    return [statistics.median(col)
            for col in zip(*(p["pair_s"] for p in passes))]


def count_failures(passes: List[Dict], expected: Dict[str, Dict]) -> List[str]:
    """One message per failed pair run: raised, missing, or counters
    (returned or stored) not equal to the pinned expectation."""
    failures = []
    for index, p in enumerate(passes):
        for pair in p["pairs"]:
            key = pair_key(pair["workload"], pair["config"])
            want = expected.get(key)
            for view in ("returned", "stored"):
                got = pair[view]
                diffs = (["missing (the run raised)"] if got is None
                         else mismatches(want, got))
                if diffs:
                    failures.append(f"pass {index} {key} {view}: "
                                    + "; ".join(diffs[:3]))
                    break
    return failures


class Bench:
    """One benchmark invocation inside a checkout."""

    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root = root
        self.selection = select(workload, seed)
        self.work = root / WORK_DIR / f"{workload}-seed{seed}-{os.getpid()}"
        self.spans_path = root / WORK_DIR / f"spans-{workload}-seed{seed}.json"
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env["REPRO_SCALE"] = REPRO_SCALE
        self.env["REPRO_CACHE_DIR"] = str(self.work / "default-cache")
        os.environ.update(REPRO_SCALE=REPRO_SCALE,
                          REPRO_CACHE_DIR=self.env["REPRO_CACHE_DIR"])
        sys.path.insert(0, str(root / "src"))
        # Import the program here so set-up times exclude this process's
        # one-off import.
        import repro.experiments.runner  # noqa: F401
        self.work.mkdir(parents=True, exist_ok=True)
        self.rounds = 0

    def set_up(self, index: int):
        """A fresh result cache holding the workload's prepared traces."""
        from repro.experiments.runner import ResultCache
        from repro.trace.workloads import get_workload

        t0 = perf_counter()
        cache_root = self.work / f"pass{index}"
        cache = ResultCache(cache_root)
        for name in self.selection.prepared:
            cache.array_trace_for(get_workload(name))
        return cache_root, perf_counter() - t0

    def run_pass(self, traced: bool, deadline: float,
                 pairs: Optional[List] = None) -> Dict:
        """Set up, then run ``pairs`` (default: the selection's) in a pass
        interpreter that must end by ``deadline``. A pass interpreter
        that dies or overruns fails the pass and every pair in it."""
        pairs = self.selection.pairs if pairs is None else pairs
        index, self.rounds = self.rounds, self.rounds + 1
        cache_root, prep_s = self.set_up(index)
        job_path = self.work / f"job{index}.json"
        out_path = self.work / f"out{index}.json"
        job = {"src": str(self.root / "src"), "root": str(cache_root),
               "pairs": pairs, "traced": traced, "out": str(out_path)}
        job_path.write_text(json.dumps(job))
        try:
            subprocess.run([sys.executable, str(HERE / "passrun.py"),
                            str(job_path)], cwd=self.root, env=self.env,
                           stdout=sys.stderr, check=True,
                           timeout=max(1.0, deadline - perf_counter()))
        except (subprocess.CalledProcessError,
                subprocess.TimeoutExpired) as exc:
            return {"error": f"pass interpreter failed: {exc}",
                    "traced": traced,
                    "pairs": [{"workload": w, "config": c, "returned": None,
                               "stored": None} for w, c in pairs]}
        finally:
            shutil.rmtree(cache_root, ignore_errors=True)
        result = json.loads(out_path.read_text())
        result["setup_s"] = prep_s + result["import_s"]
        result["traced"] = traced
        return result

    def measure(self, seconds: float, trace: bool) -> List[Dict]:
        started = perf_counter()
        deadline = started + RUN_BUDGET_S
        passes: List[Dict] = []
        measured = 0.0
        while True:
            traced = trace and len(passes) % 2 == 1
            p = self.run_pass(traced, deadline + 25.0)
            passes.append(p)
            if p["error"]:
                return passes
            measured += p["wall_s"]
            untraced = sum(1 for q in passes if not q["traced"])
            enough = (measured >= seconds
                      and untraced >= (1 if trace else 2)
                      and (not trace or untraced < len(passes)))
            mean = (perf_counter() - started) / len(passes)
            if enough or perf_counter() + mean > deadline:
                break
        while not trace and len(passes) < SETUP_ROUNDS:
            longest = max(p["setup_s"] for p in passes)
            if perf_counter() + 2 * longest + 5.0 > deadline:
                break
            p = self.run_pass(False, deadline + 25.0, pairs=[])
            passes.append(p)
            if p["error"]:
                break
        return passes

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SELECTORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no src/repro package; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed)
    try:
        passes = bench.measure(args.seconds, bool(args.trace))
    finally:
        bench.close()

    errors = [p["error"] for p in passes if p["error"]]
    for error in errors:
        print(error, file=sys.stderr)
    failures = count_failures(passes, load_expected())
    for failure in failures:
        print("FAILED", failure, file=sys.stderr)
    attempted = sum(len(p["pairs"]) for p in passes)
    correct = not failures and not errors

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if errors:
        metrics = {}      # timings of a pass that raised part-way mean nothing
    elif args.trace:
        metrics = layer_metrics(traced, untraced)
        bench.spans_path.write_text(json.dumps(
            [{"pass": i, "spans": p["spans"]} for i, p in enumerate(traced)]))
    else:
        metrics = end_to_end_metrics(untraced)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
