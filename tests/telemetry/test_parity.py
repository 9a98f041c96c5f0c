"""Null recorder must not change simulation results, and a recorder-
enabled run must produce the same numbers as a plain one."""

import pytest

from repro import Machine, build_icache, get_workload
from repro.telemetry import EventTrace, Telemetry


@pytest.fixture(autouse=True)
def small_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.03")


def run(config, telemetry=None):
    workload = get_workload("server_000")
    trace = workload.generate()
    machine = Machine(trace, build_icache(config), telemetry=telemetry)
    return machine.run(*workload.windows())


def assert_same_numbers(a, b):
    assert a.cycles == b.cycles
    assert a.ipc == b.ipc
    assert a.frontend == b.frontend
    assert a.efficiency == b.efficiency
    assert a.extra == b.extra


@pytest.mark.parametrize("config", ["conv32", "ubs"])
def test_recorder_does_not_change_results(config):
    plain = run(config)
    traced = run(config, Telemetry(EventTrace()))
    assert_same_numbers(plain, traced)


def test_default_telemetry_is_null():
    workload = get_workload("server_000")
    trace = workload.generate()
    machine = Machine(trace, build_icache("ubs"))
    assert machine.telemetry.recorder.enabled is False
    assert machine._rec is None
