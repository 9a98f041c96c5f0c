"""Golden-parity guard for simulator optimizations.

Hot-path optimizations (locals hoisting, cached-way lookups, telemetry
gating) must never change simulation semantics: ``SimResult.to_dict()``
has to stay bit-identical for the same workload, configuration and
``REPRO_SCALE``. The golden files under ``tests/golden/parity/`` were
recorded before the optimization pass of PR 3; this test re-simulates
each pinned (workload, config) pair and compares the full result dict —
counters, efficiency summary and extras — key for key. The ``smt_*``
goldens pin two-thread co-runs the same way.

Regenerate the goldens (only after an *intentional* semantics change,
together with a ``RESULTS_VERSION`` bump) with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_golden_parity.py -q
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

import repro
from repro.cpu.machine import Machine, build_icache, build_machine
from repro.errors import ConfigurationError
from repro.smt import build_smt_machine, run_corun
from repro.telemetry import EventTrace, Telemetry, write_jsonl
from repro.trace.arrays import ArrayTrace
from repro.trace.record import Instruction, InstrKind
from repro.trace.workloads import SMTWorkload, get_workload

GOLDEN_DIR = Path(__file__).parent / "golden" / "parity"
TELEMETRY_DIR = Path(__file__).parent / "golden" / "telemetry"

#: The pinned scale every golden was recorded at.
GOLDEN_SCALE = "0.05"

#: One workload per family x the two headline configurations, plus the
#: small-block and Line Distillation L1-I classes and a UBS run at FTQ
#: depth 8 (``_f8``, which keeps the BPU stopping on a full FTQ).
GOLDEN_PAIRS = [
    ("server_000", "conv32"),
    ("server_000", "ubs"),
    ("client_000", "conv32"),
    ("client_000", "ubs"),
    ("spec_000", "conv32"),
    ("spec_000", "ubs"),
    ("google_000", "conv32"),
    ("google_000", "ubs"),
    ("server_000", "small16"),
    ("server_000", "distill32"),
    ("server_000", "ubs_f8"),
]


def _golden_path(workload: str, config: str) -> Path:
    return GOLDEN_DIR / f"{workload}__{config}__s{GOLDEN_SCALE}.json"


def _simulate(workload: str, config: str, columnar: bool = False) -> dict:
    wl = get_workload(workload)
    trace = wl.generate()
    if columnar:
        trace = ArrayTrace.from_instructions(trace)
    warmup, measure = wl.windows()
    machine = build_machine(trace, config)
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


#: SMT co-runs pinned the same way: both arbitration policies x the two
#: headline configurations and the small-block and distillation caches.
CORUN_PAIRS = [
    (workload, config)
    for workload in ("smt:server_000+client_000",
                     "smt:server_000+client_000@icount")
    for config in ("conv32", "ubs", "small16", "distill32")
]


@pytest.mark.parametrize("workload,config", CORUN_PAIRS)
def test_smt_corun_bit_identical_to_golden(workload, config):
    """A two-thread ``repro.smt`` co-run reproduces its golden key for
    key: the composite counters and every thread's own result under
    ``extra["threads"]``."""
    path = _golden_path(workload.replace(":", "_"), config)
    produced = repro.simulate(workload, config).to_dict()
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(produced, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"golden updated: {path.name}")
    assert path.exists(), (
        f"missing golden {path.name}; run with REPRO_UPDATE_GOLDENS=1"
    )
    golden = json.loads(path.read_text())
    assert produced == golden, (
        f"{workload}/{config} drifted from its golden — SMT co-run "
        "semantics changed (if intentional, bump RESULTS_VERSION and "
        "regenerate with REPRO_UPDATE_GOLDENS=1)"
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


#: Solo and co-run runs whose full event stream and metrics registry are
#: pinned: every event (hits included) in emission order, and every
#: gauge the machine registers, read after the run.
TELEMETRY_PAIRS = [
    (workload, config)
    for workload in ("server_000", "smt:server_000+client_000@icount")
    for config in ("conv32", "ubs")
]


def _traced(workload: str, config: str, path: Path) -> dict:
    recorder = EventTrace(record_hits=True)
    telemetry = Telemetry(recorder)
    wl = get_workload(workload)
    if isinstance(wl, SMTWorkload):
        machine = build_smt_machine(
            [w.generate() for w in wl.component_workloads()], config,
            telemetry=telemetry, policy=wl.policy)
        run_corun(machine, wl, config)
    else:
        machine = build_machine(wl.generate(), config, telemetry=telemetry)
        machine.run(*wl.windows())
    n_events = write_jsonl(recorder.events, path)
    return {
        "events": n_events,
        "events_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        "metrics": machine.metrics.snapshot(),
    }


@pytest.mark.parametrize("workload,config", TELEMETRY_PAIRS)
def test_event_stream_and_metrics_golden(workload, config, tmp_path):
    """The JSONL export of an ``EventTrace(record_hits=True)`` run is
    byte-identical to its golden (compared by sha256), and so is the
    machine's metrics snapshot."""
    name = f"{workload.replace(':', '_')}__{config}__s{GOLDEN_SCALE}.json"
    path = TELEMETRY_DIR / name
    produced = _traced(workload, config, tmp_path / "events.jsonl")
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        TELEMETRY_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(produced, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"golden updated: {path.name}")
    assert path.exists(), (
        f"missing golden {path.name}; run with REPRO_UPDATE_GOLDENS=1"
    )
    golden = json.loads(path.read_text())
    assert produced["events"] == golden["events"]
    assert produced["events_sha256"] == golden["events_sha256"], (
        f"{workload}/{config}: the event stream drifted from its golden")
    assert produced["metrics"] == golden["metrics"]
