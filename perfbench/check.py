"""Output check: every pair's simulated counters against a pinned copy.

The model is unvalidated against hardware (the paper's traces are not
available), so correctness here means *unchanged*: each (workload,
config) pair must reproduce the counters pinned in ``expected.json`` by
``pin.py``, exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def pair_key(workload: str, config: str) -> str:
    return f"{workload}::{config}"


def counters(result_dict: Dict) -> Dict:
    """The simulated (not host-timing) part of a ``SimResult.to_dict()``:
    cycles, instructions, every ``FrontEndStats`` field and the
    storage-efficiency summary."""
    return {
        "cycles": result_dict["cycles"],
        "instructions": result_dict["instructions"],
        "frontend": dict(result_dict["frontend"]),
        "efficiency": (dict(result_dict["efficiency"])
                       if result_dict.get("efficiency") else None),
    }


def load_expected() -> Dict[str, Dict]:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)["pairs"]


def mismatches(expected: Optional[Dict], actual: Dict) -> List[str]:
    """Human-readable differences; empty when ``actual`` matches."""
    if expected is None:
        return ["no pinned expectation"]
    diffs = []
    for key in ("cycles", "instructions"):
        if expected[key] != actual[key]:
            diffs.append(f"{key}: expected {expected[key]}, "
                         f"got {actual[key]}")
    for group in ("frontend", "efficiency"):
        want, got = expected[group], actual[group]
        if want is None or got is None:
            if want != got:
                diffs.append(f"{group}: expected {want}, got {got}")
            continue
        for field in sorted(set(want) | set(got)):
            if want.get(field) != got.get(field):
                diffs.append(f"{group}.{field}: expected {want.get(field)}, "
                             f"got {got.get(field)}")
    return diffs
