"""Telemetry: event tracing and metrics.

Two independent facilities of a :class:`~repro.cpu.machine.Machine`;
:class:`Telemetry` hands it the event recorder:

* **event tracing** (:mod:`repro.telemetry.events`) — typed per-event
  records (stalls with cause, L1-I outcomes, MSHR allocations, predictor
  decisions, DRAM row-buffer activity, FTQ occupancy) exported as JSONL
  or CSV and summarised by
  :class:`~repro.telemetry.accounting.StallAccounting`;
* **metrics** (:mod:`repro.telemetry.metrics`) — a registry of named
  counters/gauges/histograms each simulator component registers into.

The default is :data:`NULL_TELEMETRY` (a null recorder):
simulation results are bit-identical with and without it, and hot paths
only pay disabled-flag checks.
"""

from __future__ import annotations

from typing import Optional

from .accounting import StallAccounting
from .events import (
    DRAM_ROW,
    EVENT_KINDS,
    Event,
    EventRecorder,
    EventTrace,
    FTQ,
    L1I,
    MSHR,
    NULL_RECORDER,
    NullRecorder,
    PREDICTOR,
    RUN_SUMMARY,
    SEARCH,
    STALL,
    STALL_CAUSES,
)
from .exporters import iter_jsonl, read_jsonl, write_csv, write_jsonl
from .metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "Counter",
    "DRAM_ROW",
    "EVENT_KINDS",
    "Event",
    "EventRecorder",
    "EventTrace",
    "FTQ",
    "Gauge",
    "Histogram",
    "L1I",
    "MSHR",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NULL_TELEMETRY",
    "NullRecorder",
    "PREDICTOR",
    "RUN_SUMMARY",
    "SEARCH",
    "STALL",
    "STALL_CAUSES",
    "StallAccounting",
    "Telemetry",
    "iter_jsonl",
    "read_jsonl",
    "write_csv",
    "write_jsonl",
]


class Telemetry:
    """The event recorder attached to one machine."""

    __slots__ = ("recorder",)

    def __init__(self, recorder: Optional[EventRecorder] = None) -> None:
        self.recorder = recorder if recorder is not None else NULL_RECORDER

    @property
    def enabled(self) -> bool:
        return self.recorder.enabled


#: Shared default: no events recorded.
NULL_TELEMETRY = Telemetry()
