"""The benchmark's workloads: what each seed selects, and why.

Every workload is a list of (workload name, L1-I config) pairs handed to
``SweepEngine.run`` in one call, plus the suite traces that set-up makes
before the clock starts. A seed selects the names; the program never
sees the seed itself.

The seed is reduced modulo the size of the workload's input pool, so
every seed lands on inputs whose counters are pinned in
``expected.json``. Seeds 0 and 1 always select different inputs, so
seed 1 is a held-out check of anything tuned on seed 0.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

Pair = Tuple[str, str]

#: Every workload runs the paper-default windows: 50k warm-up + 150k
#: measured instructions per thread.
REPRO_SCALE = "1.0"

COLD_FILL_CONFIGS = ("conv32", "ubs", "small16", "distill32")

#: The DSE / Figs 11-16 shape: baselines, replacement policies, the
#: paper's competitors and UBS geometry, predictor and FTQ variants.
CONFIG_SWEEP_CONFIGS = (
    "conv32", "conv64", "conv32_ghrp", "conv32_acic", "conv32_srrip",
    "distill32", "small16", "small32", "ubs", "ubs_pred_full",
    "ubs_v4.8.16.64", "ubs_f64",
)

SMT_CONFIGS = ("conv32", "ubs")

#: Suite indices 0-5 exist in every family cold_fill and smt_corun draw
#: from (client_* and spec_* have six workloads each).
SUITE_POOL = 6

#: The largest-footprint server class (3600 and 3697 functions; conv32
#: L1-I MPKI 7.3-7.9). Only two suite workloads are in it.
LARGE_SERVERS = ("server_005", "server_011")


class Selection(NamedTuple):
    """What one seed of one workload runs."""

    pairs: List[Pair]
    #: Suite workloads whose traces set-up generates into the fresh cache.
    prepared: List[str]


def _cold_fill(seed: int) -> Selection:
    k = seed % SUITE_POOL
    names = [f"server_{k:03d}", f"client_{k:03d}", f"spec_{k:03d}"]
    return Selection([(n, c) for n in names for c in COLD_FILL_CONFIGS], [])


def _config_sweep(seed: int) -> Selection:
    name = LARGE_SERVERS[seed % len(LARGE_SERVERS)]
    return Selection([(name, c) for c in CONFIG_SWEEP_CONFIGS], [name])


def _smt_corun(seed: int) -> Selection:
    k = seed % SUITE_POOL
    a, b = f"server_{k:03d}", f"client_{k:03d}"
    corun = f"smt:{a}+{b}"
    pairs = [(w, c) for w in (corun, corun + "@icount") for c in SMT_CONFIGS]
    return Selection(pairs, [a, b])


SELECTORS = {
    "cold_fill": _cold_fill,
    "config_sweep": _config_sweep,
    "smt_corun": _smt_corun,
}

#: Seeds that cover each workload's whole input pool (what ``pin.py``
#: pins and what the output check can therefore verify).
POOL_SEEDS: Dict[str, range] = {
    "cold_fill": range(SUITE_POOL),
    "config_sweep": range(len(LARGE_SERVERS)),
    "smt_corun": range(SUITE_POOL),
}


def select(workload: str, seed: int) -> Selection:
    """The pairs and prepared traces ``seed`` selects for ``workload``."""
    try:
        selector = SELECTORS[workload]
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"expected one of {sorted(SELECTORS)}") from None
    return selector(seed)
