"""Command-line interface.

::

    python -m repro list                      # workload suite
    python -m repro run server_001 ubs        # one simulation
    python -m repro run server_001 ubs --trace-out t.jsonl --profile
    python -m repro compare server_001 conv32 conv64 ubs
    python -m repro report t.jsonl            # stall-accounting breakdown
    python -m repro models                    # Table III / Table IV
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import build_machine, get_workload
from .errors import ReproError
from .telemetry import (
    EventTrace,
    RUN_SUMMARY,
    StageProfiler,
    StallAccounting,
    Telemetry,
    write_csv,
    write_jsonl,
)
from .trace.arrays import as_array_trace
from .trace.workloads import all_families, workload_names


def _cmd_list(_args) -> int:
    for family in all_families():
        names = workload_names(family)
        print(f"{family} ({len(names)}):")
        for name in names:
            spec = get_workload(name).spec
            print(f"  {name:14s} isa={spec.isa:8s} "
                  f"functions={spec.n_functions}")
    return 0


def _run_one(workload_name: str, config: str, trace=None,
             telemetry: Optional[Telemetry] = None):
    """Simulate one pair; returns (result, trace, machine). Passing the
    returned columnar trace back in shares its BPU walk across configs."""
    workload = get_workload(workload_name)
    if trace is None:
        trace = as_array_trace(workload.generate())
    warmup, measure = workload.windows()
    machine = build_machine(trace, config, telemetry=telemetry)
    result = machine.run(warmup, measure)
    result.workload, result.config = workload_name, config
    return result, trace, machine


def _print_result(result, baseline=None) -> None:
    fe = result.frontend
    stall_frac = (fe.fetch_stall_cycles / result.cycles
                  if result.cycles else 0.0)
    line = (f"{result.config:14s} IPC {result.ipc:6.3f}  "
            f"MPKI {result.l1i_mpki:6.2f}  "
            f"icache-stall {stall_frac:6.1%}")
    if result.efficiency:
        line += f"  efficiency {result.efficiency.mean:.2f}"
    if baseline is not None and baseline is not result:
        line += (f"  speedup {result.speedup_over(baseline):.3f}"
                 f"  coverage {result.stall_coverage_over(baseline):6.1%}")
    print(line)


def _build_telemetry(args) -> Optional[Telemetry]:
    recorder = None
    profiler = None
    if getattr(args, "trace_out", None):
        recorder = EventTrace(record_hits=args.trace_hits)
    if getattr(args, "profile", False):
        profiler = StageProfiler()
    if recorder is None and profiler is None:
        return None
    return Telemetry(recorder, profiler)


def _export_trace(recorder: EventTrace, result, path: str) -> None:
    # Stamp the run summary with identity so the trace is self-contained.
    for event in recorder.of_kind(RUN_SUMMARY):
        event.fields.setdefault("workload", result.workload)
        event.fields.setdefault("config", result.config)
    if path.endswith(".csv"):
        write_csv(recorder, path)
    else:
        write_jsonl(recorder, path)


def _cmd_run(args) -> int:
    telemetry = _build_telemetry(args)
    result, _, machine = _run_one(args.workload, args.config,
                                  telemetry=telemetry)
    if telemetry is not None and telemetry.recorder.enabled:
        _export_trace(telemetry.recorder, result, args.trace_out)
    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            json.dump(machine.metrics.snapshot(), fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
    profile = machine.profile_report()
    if args.json:
        payload = result.to_dict()
        if profile is not None:
            payload["profile"] = profile.to_dict()
        print(json.dumps(payload, indent=2))
    else:
        _print_result(result)
        if profile is not None:
            print(profile.format())
    return 0


def _cmd_compare(args) -> int:
    baseline = None
    trace = None
    payloads = []
    for config in args.configs:
        result, trace, _ = _run_one(args.workload, config, trace)
        if baseline is None:
            baseline = result
        if args.json:
            payload = result.to_dict()
            if result is not baseline:
                payload["speedup"] = result.speedup_over(baseline)
                payload["stall_coverage"] = \
                    result.stall_coverage_over(baseline)
            payloads.append(payload)
        else:
            _print_result(result, baseline)
    if args.json:
        print(json.dumps(payloads, indent=2))
    return 0


def _cmd_report(args) -> int:
    accounting = StallAccounting.from_jsonl(args.trace)
    print(accounting.format(top_n=args.top))
    return 1 if accounting.validate_against_summary() else 0


def _cmd_models(_args) -> int:
    from .experiments import table3_storage, table4_latency
    print(table3_storage.format(table3_storage.run()))
    print()
    print(table4_latency.format(table4_latency.run()))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="UBS instruction cache reproduction (MICRO 2024)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the workload suite")

    p_run = sub.add_parser("run", help="simulate one workload/config pair")
    p_run.add_argument("workload")
    p_run.add_argument("config", nargs="?", default="ubs")
    p_run.add_argument("--trace-out", metavar="PATH",
                       help="write the event trace (JSONL; .csv for CSV)")
    p_run.add_argument("--trace-hits", action="store_true",
                       help="also record per-lookup L1-I hit events "
                            "(large traces)")
    p_run.add_argument("--metrics-out", metavar="PATH",
                       help="write the metrics-registry snapshot as JSON")
    p_run.add_argument("--profile", action="store_true",
                       help="profile simulator stages and print throughput")
    p_run.add_argument("--json", action="store_true",
                       help="print the result as JSON for scripting")

    p_cmp = sub.add_parser("compare",
                           help="run several configs on one workload")
    p_cmp.add_argument("workload")
    p_cmp.add_argument("configs", nargs="+")
    p_cmp.add_argument("--json", action="store_true",
                       help="print the results as a JSON list")

    p_rep = sub.add_parser(
        "report", help="print the stall-accounting breakdown of a trace")
    p_rep.add_argument("trace", help="JSONL trace from `run --trace-out`")
    p_rep.add_argument("--top", type=int, default=10,
                       help="number of top stalling PCs to show")

    sub.add_parser("models", help="print the Table III/IV models")

    args = parser.parse_args(argv)
    handler = {
        "list": _cmd_list,
        "run": _cmd_run,
        "compare": _cmd_compare,
        "report": _cmd_report,
        "models": _cmd_models,
    }[args.command]
    try:
        return handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
