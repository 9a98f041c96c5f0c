#!/usr/bin/env python
"""Quickstart: compare a conventional 32 KB L1-I against the UBS cache.

Runs one server workload from the built-in suite on three front-end
configurations and prints the paper's headline metrics. Takes well under a
minute on a laptop.

Usage: python examples/quickstart.py [workload_name]
"""

import sys

from repro import Machine, build_icache, get_workload
from repro.trace import as_array_trace


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "server_001"
    workload = get_workload(name)
    print(f"workload: {name} ({workload.family} family, "
          f"ISA={workload.spec.isa})")

    # Generate the trace once and reuse it across configurations: in the
    # columnar form the simulator runs on, every machine also shares
    # one branch-predictor walk over it.
    trace = as_array_trace(workload.generate())
    warmup, measure = workload.windows()
    print(f"trace: {len(trace)} instructions "
          f"({warmup} warm-up + {measure} measured)\n")

    results = {}
    for config in ("conv32", "conv64", "ubs"):
        machine = Machine(trace, build_icache(config))
        results[config] = machine.run(warmup, measure)

    base = results["conv32"]
    print(f"{'config':8s} {'IPC':>6s} {'L1I MPKI':>9s} {'stall cyc':>10s} "
          f"{'speedup':>8s} {'coverage':>9s} {'efficiency':>11s}")
    for config, r in results.items():
        eff = r.efficiency.mean if r.efficiency else float("nan")
        print(f"{config:8s} {r.ipc:6.2f} {r.l1i_mpki:9.2f} "
              f"{r.frontend.fetch_stall_cycles:10d} "
              f"{r.speedup_over(base):8.3f} "
              f"{r.stall_coverage_over(base):9.1%} {eff:11.2f}")

    ubs = results["ubs"]
    print(f"\nUBS resident blocks: {ubs.extra['block_count']} vs "
          f"{base.extra['block_count']} in the conventional cache")
    partial = ubs.frontend.partial_misses
    print(f"UBS partial misses: {partial} "
          f"({partial / max(1, ubs.frontend.l1i_misses):.0%} of all misses: "
          f"{ubs.frontend.l1i_partial_missing} missing sub-block, "
          f"{ubs.frontend.l1i_partial_overrun} overruns, "
          f"{ubs.frontend.l1i_partial_underrun} underruns)")


if __name__ == "__main__":
    main()
