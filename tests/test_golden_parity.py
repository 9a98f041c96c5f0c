"""Golden-parity guard for simulator optimizations.

Hot-path optimizations (locals hoisting, cached-way lookups, telemetry
gating) must never change simulation semantics: ``SimResult.to_dict()``
has to stay bit-identical for the same workload, configuration and
``REPRO_SCALE``. The golden files under ``tests/golden/parity/`` were
recorded before the optimization pass of PR 3; this test re-simulates
each pinned (workload, config) pair and compares the full result dict —
counters, efficiency summary and extras — key for key.

Regenerate the goldens (only after an *intentional* semantics change,
together with a ``RESULTS_VERSION`` bump) with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_golden_parity.py -q
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.cpu.machine import Machine, build_icache
from repro.errors import ConfigurationError
from repro.trace.arrays import ArrayTrace
from repro.trace.record import Instruction, InstrKind
from repro.trace.workloads import get_workload

GOLDEN_DIR = Path(__file__).parent / "golden" / "parity"

#: The pinned scale every golden was recorded at.
GOLDEN_SCALE = "0.05"

#: One workload per family x the two headline configurations.
GOLDEN_PAIRS = [
    ("server_000", "conv32"),
    ("server_000", "ubs"),
    ("client_000", "conv32"),
    ("client_000", "ubs"),
    ("spec_000", "conv32"),
    ("spec_000", "ubs"),
    ("google_000", "conv32"),
    ("google_000", "ubs"),
]


def _golden_path(workload: str, config: str) -> Path:
    return GOLDEN_DIR / f"{workload}__{config}__s{GOLDEN_SCALE}.json"


def _simulate(workload: str, config: str, columnar: bool = False) -> dict:
    wl = get_workload(workload)
    trace = wl.generate()
    if columnar:
        trace = ArrayTrace.from_instructions(trace)
    warmup, measure = wl.windows()
    machine = Machine(trace, build_icache(config))
    result = machine.run(warmup, measure)
    result.workload = workload
    result.config = config
    return result.to_dict()


def _all_branch_kinds():
    # Every instruction is a branch, cycling through every branch kind;
    # taken ones jump forward a block, the rest fall through.
    kinds = (InstrKind.BR_COND, InstrKind.JUMP, InstrKind.CALL,
             InstrKind.RET, InstrKind.BR_IND, InstrKind.CALL_IND)
    instrs = []
    pc = 0x40_0000
    for i in range(240):
        kind = kinds[i % len(kinds)]
        taken = kind is not InstrKind.BR_COND or i % 2 == 0
        target = pc + 68 if taken else 0
        instrs.append(Instruction(pc, 4, kind, taken=taken, target=target))
        pc = target if taken else pc + 4
    return instrs


#: Degenerate traces at the extremes of the columnar boundary/segment
#: machinery: name -> (instructions, warmup, measure).
EDGE_TRACES = {
    "single_instruction": ([Instruction(0x1000, 4, InstrKind.ALU)], 0, 1),
    "single_taken_branch": (
        [Instruction(0x1000, 4, InstrKind.JUMP, taken=True, target=0x2000)],
        0, 1),
    "all_branch_kinds": (_all_branch_kinds(), 40, 200),
}


@pytest.fixture(autouse=True)
def pinned_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", GOLDEN_SCALE)


@pytest.mark.parametrize("workload,config", GOLDEN_PAIRS)
def test_bit_identical_to_golden(workload, config):
    """``Machine.run`` on a plain instruction list (converted to the
    columnar form by ``Machine`` itself) reproduces the golden recorded
    before the optimization pass, key for key."""
    path = _golden_path(workload, config)
    produced = _simulate(workload, config)
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(produced, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"golden updated: {path.name}")
    assert path.exists(), (
        f"missing golden {path.name}; run with REPRO_UPDATE_GOLDENS=1"
    )
    golden = json.loads(path.read_text())
    assert produced == golden, (
        f"{workload}/{config} drifted from its pre-optimization golden — "
        "simulation semantics changed (if intentional, bump RESULTS_VERSION "
        "and regenerate with REPRO_UPDATE_GOLDENS=1)"
    )


class TestEdgeTraces:
    """Degenerate traces through the columnar paths. The expected
    results were recorded while the (since removed) per-instruction
    object-list walk was still asserted equal to the columnar one, so
    they pin the extremes to that scalar reference."""

    CONFIGS = ("conv32", "ubs")
    EXPECTED = json.loads(
        (Path(__file__).parent / "edge_traces_expected.json").read_text())

    def _assert_pinned(self, name):
        instrs, warmup, measure = EDGE_TRACES[name]
        for config in self.CONFIGS:
            # Both input forms: a plain list (converted by Machine) and
            # an ArrayTrace (used as is).
            for trace in (list(instrs), ArrayTrace.from_instructions(instrs)):
                machine = Machine(trace, build_icache(config))
                result = machine.run(warmup, measure)
                result.workload = "edge"
                result.config = config
                assert result.to_dict() == \
                    self.EXPECTED[f"{name}/{config}"], config

    def test_empty_trace_rejected_on_both_paths(self):
        with pytest.raises(ConfigurationError, match="empty trace"):
            Machine([], build_icache("conv32"))
        with pytest.raises(ConfigurationError, match="empty trace"):
            Machine(ArrayTrace.from_instructions([]),
                    build_icache("conv32"))

    def test_single_instruction(self):
        self._assert_pinned("single_instruction")

    def test_single_taken_branch(self):
        self._assert_pinned("single_taken_branch")

    def test_all_branch_kinds(self):
        self._assert_pinned("all_branch_kinds")


@pytest.mark.parametrize("workload,config", GOLDEN_PAIRS)
def test_smt_solo_bit_identical_to_golden(workload, config):
    """A single-thread ``repro.smt`` run must be bit-identical to
    ``Machine.run`` on every pinned golden: the SMT cycle loop reduces
    stage by stage to the solo machine when only one hardware thread is
    live, so SMT plumbing can never perturb solo results."""
    from repro.smt import build_smt_machine

    path = _golden_path(workload, config)
    if not path.exists():
        pytest.skip(f"golden {path.name} not recorded yet")
    wl = get_workload(workload)
    trace = ArrayTrace.from_instructions(wl.generate())
    warmup, measure = wl.windows()
    machine = build_smt_machine([trace], config)
    result = machine.run([(warmup, measure)])
    result.workload = workload
    result.config = config
    produced = result.to_dict()
    golden = json.loads(path.read_text())
    assert produced == golden, (
        f"{workload}/{config} drifted between SMTMachine (solo) and the "
        "golden recorded by Machine.run — the SMT loop is no longer "
        "bit-identical in single-thread mode"
    )


@pytest.mark.parametrize("workload,config", GOLDEN_PAIRS)
def test_columnar_trace_bit_identical_to_golden(workload, config):
    """A trace handed to ``Machine`` already as an ``ArrayTrace`` (what
    the sweep engine feeds every worker) must match the same goldens as
    a plain instruction list — any drift between the two input forms
    would silently change every campaign result."""
    path = _golden_path(workload, config)
    if not path.exists():
        pytest.skip(f"golden {path.name} not recorded yet")
    produced = _simulate(workload, config, columnar=True)
    golden = json.loads(path.read_text())
    assert produced == golden, (
        f"{workload}/{config} simulation of an ArrayTrace input drifted "
        "from the golden — the two trace input forms no longer agree"
    )
