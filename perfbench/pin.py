"""Pin the counters the output check expects: ``python3 perfbench/pin.py``.

Runs one untraced benchmark pass (``run.Bench``, the path the benchmark
times) for every seed of every workload's pool (see
``workloads.POOL_SEEDS``), from the root of a checkout, and writes the
counters each pass returned to ``perfbench/expected.json``. Rerun it
only when a change is meant to alter simulated results; the diff of
``expected.json`` then shows which counters moved.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import EXPECTED_PATH, pair_key  # noqa: E402
from run import RUN_BUDGET_S, Bench  # noqa: E402
from workloads import POOL_SEEDS, REPRO_SCALE  # noqa: E402


def main() -> int:
    pinned = {}
    for workload, seeds in POOL_SEEDS.items():
        for seed in seeds:
            bench = Bench(Path.cwd(), workload, seed)
            try:
                p = bench.run_pass(False, perf_counter() + RUN_BUDGET_S)
            finally:
                bench.close()
            if p["error"]:
                raise SystemExit(f"{workload} seed {seed}: {p['error']}")
            for pair in p["pairs"]:
                key = pair_key(pair["workload"], pair["config"])
                got = pair["returned"]
                if pinned.setdefault(key, got) != got:
                    raise SystemExit(f"{key}: results differ between "
                                     f"two runs (nondeterminism)")
            print(f"{workload} seed {seed}: {len(p['pairs'])} pairs",
                  file=sys.stderr)
    EXPECTED_PATH.write_text(json.dumps(
        {"repro_scale": REPRO_SCALE, "pairs": pinned},
        indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
