"""The full machine: decoupled FDIP front-end + OoO back-end.

:class:`FrontEndBase` holds what every thread of a core shares: the L1-I
with its MSHR file, fill queue and memory hierarchy, the telemetry
recorder and the stall fast-forward. The per-thread front end (BPU
run-ahead into the FTQ, FDIP, fetch through the fetch-range interface,
stall attribution) is :class:`~repro.cpu.thread.ThreadFrontEnd`.
:class:`Machine` is the single-thread core: one thread stepped by a
plain cycle loop. :class:`repro.smt.SMTMachine` arbitrates N threads on
the same base.

Long stalls are skipped over in bulk once the BPU and FDIP run out of
work, which keeps pure-Python simulation tractable without changing any
event timing.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import fields as _dataclass_fields, replace
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, SimulationError
# ``precompute_range_stream`` is re-exported: by-name patchers of the
# range-stream walk (perfbench/layers.py) rebind it in this module too.
from ..frontend.ftq import precompute_range_stream  # noqa: F401
from ..memory.distillation import DistillationICache
from ..memory.hierarchy import MemoryHierarchy
from ..memory.icache import InstructionCacheBase, ConventionalICache
from ..memory.mshr import MSHRFile
from ..memory.small_block import SmallBlockICache
from ..params import CoreParams, MachineParams, UBSParams, conventional_l1i
from ..stats.counters import FrontEndStats, SimResult
from ..stats.efficiency import EfficiencySampler
from ..telemetry import (
    FTQ as EV_FTQ,
    MSHR as EV_MSHR,
    NULL_TELEMETRY,
    Telemetry,
)
from ..telemetry.metrics import MetricsRegistry
from ..trace.record import Instruction
from ..core.configs import ubs_params_for_budget, way_config
from ..core.predictor import PredictorConfig
from ..core.ubs_cache import UBSICache
from .thread import BLOCKED, DELIVERED, DONE, NEVER, ThreadFrontEnd

#: Cycle mask between FTQ/MSHR occupancy samples when tracing.
_FTQ_SAMPLE_MASK = 255

#: Fetch-step outcomes after which the efficiency sampler may sample.
_SAMPLED = (BLOCKED, DELIVERED, DONE)


class FrontEndBase:
    """State and plumbing shared by :class:`Machine` and
    :class:`repro.smt.SMTMachine`: one L1-I with its MSHR file, fill
    queue and memory hierarchy, plus the telemetry recorder.

    The miss helpers take the :class:`FrontEndStats` to charge and a
    ``tag`` of extra event fields (``{}`` solo, ``{"thread": tid}`` for an
    SMT hardware thread).
    """

    def __init__(self, icache: InstructionCacheBase,
                 params: Optional[MachineParams],
                 telemetry: Optional[Telemetry]) -> None:
        self.icache = icache
        self.params = params or MachineParams()
        self.hierarchy = MemoryHierarchy(self.params)
        self.mshr = MSHRFile(icache.mshr_entries)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        recorder = self.telemetry.recorder
        # Hot paths test ``self._rec is not None`` — with the default null
        # recorder nothing is ever constructed or emitted.
        self._rec = recorder if recorder.enabled else None
        if self._rec is not None:
            icache.telemetry = recorder
            self.hierarchy.dram.telemetry = recorder
        # Hoisted per-cycle parameters (attribute chains cost in the loop).
        core = self.params.core
        self._fills: List[Tuple[int, int]] = []     # (cycle, block_addr)
        self._prefetcher = core.prefetcher
        self._fdip_on = self._prefetcher == "fdip"
        self._fdip_degree = core.fdip_degree
        self._bpu_ranges_per_cycle = core.bpu_ranges_per_cycle
        self.cycle = 0
        self.wall_seconds = 0.0

    def _register_metrics(self) -> MetricsRegistry:
        """Expose the shared components' counters under stable dotted
        names; subclasses extend the registry with their own gauges.

        All registrations are pull-style gauges reading live attributes,
        so the simulator hot paths carry no metrics bookkeeping; call
        ``self.metrics.snapshot()`` at any point for a consistent view.
        """
        reg = self.metrics = MetricsRegistry()
        reg.gauge("machine.cycles", lambda: self.cycle)
        reg.gauge("mshr.allocations", lambda: self.mshr.allocations)
        reg.gauge("mshr.merges", lambda: self.mshr.merges)
        reg.gauge("mshr.occupancy", lambda: len(self.mshr))
        self.icache.register_metrics(reg)
        self.hierarchy.register_metrics(reg)
        return reg

    def _sample_ftq(self, cycle: int, threads) -> None:
        """Trace the FTQ and MSHR occupancy every 256 cycles."""
        if cycle & _FTQ_SAMPLE_MASK == 0:
            for t in threads:
                self._rec.emit(EV_FTQ, cycle, occupancy=len(t.ftq),
                               mshr=len(self.mshr), **t.tag)

    def _skip_stalls(self, cycle: int, threads, ftq_full: bool) -> int:
        """Fast-forward while every thread in ``threads`` is blocked and
        no BPU has work (``ftq_full``, or each builder blocked or
        exhausted); returns the cycle to continue from. Each thread
        accrues the skipped cycles under its own stall kind, and event
        timing is unchanged: the skip stops where a stall ends, or where
        a fill frees an MSHR for pending FDIP work."""
        target = None
        prefetching = False
        for t in threads:
            builder = t.builder
            if not (ftq_full or builder.blocked or builder.exhausted):
                return cycle
            if target is None or t.blocked_until < target:
                target = t.blocked_until
            if t.fdip_queue:
                prefetching = True
        if prefetching:
            if not self.mshr.full(cycle):
                return cycle
            if self._fills:
                target = min(target, self._fills[0][0])
        skip = target - (cycle + 1)
        if skip <= 0:
            return cycle
        for t in threads:
            t.accrue(skip, cycle)
        return cycle + skip

    def _process_fills(self, cycle: int) -> None:
        fills = self._fills
        if self._rec is not None and fills and fills[0][0] <= cycle:
            # Let the cache stamp predictor train/install events with the
            # fill cycle (fill() itself has no cycle argument).
            self.icache.now = cycle
        pop = heapq.heappop
        fill = self.icache.fill
        while fills and fills[0][0] <= cycle:
            fill(pop(fills)[1])

    def _handle_miss(self, block_addr: int, cycle: int,
                     stats: FrontEndStats, tag: dict) -> int:
        """Start or join the fill for ``block_addr``; returns its cycle."""
        mshr = self.mshr
        inflight = mshr.lookup(block_addr, cycle)
        if inflight is not None:
            return inflight
        if mshr.full(cycle):
            earliest = mshr.earliest_completion()
            if earliest is None:  # pragma: no cover - defensive
                raise SimulationError("MSHR full but empty")
            return earliest
        latency = self.hierarchy.fetch_block(block_addr, cycle)
        fill_at = cycle + latency
        mshr.allocate(block_addr, fill_at, cycle)
        heapq.heappush(self._fills, (fill_at, block_addr))
        if self._rec is not None:
            self._rec.emit(EV_MSHR, cycle, block=block_addr, fill=fill_at,
                           source="demand", **tag)
        if self._prefetcher == "nextline":
            self._issue_next_lines(block_addr, cycle, stats, tag)
        return fill_at

    def _issue_next_lines(self, block_addr: int, cycle: int,
                          stats: FrontEndStats, tag: dict) -> None:
        """Sequential prefetch of the blocks following a demand miss."""
        mshr = self.mshr
        for i in range(1, self.params.core.nextline_degree + 1):
            addr = block_addr + i * 64
            if mshr.full(cycle):
                return
            if self.icache.probe_range(addr, 1) \
                    or mshr.lookup(addr, cycle) is not None:
                continue
            latency = self.hierarchy.fetch_block(addr, cycle)
            fill_at = cycle + latency
            mshr.allocate(addr, fill_at, cycle)
            heapq.heappush(self._fills, (fill_at, addr))
            stats.prefetches_issued += 1
            if self._rec is not None:
                self._rec.emit(EV_MSHR, cycle, block=addr, fill=fill_at,
                               source="nextline", **tag)


class Machine(FrontEndBase):
    """One simulated core with a configurable L1-I organisation.

    Any instruction sequence is accepted and converted once to the
    columnar :class:`~repro.trace.arrays.ArrayTrace` the simulator runs
    on (an ``ArrayTrace`` input is used as is).
    """

    def __init__(self, trace: Sequence[Instruction],
                 icache: InstructionCacheBase,
                 params: Optional[MachineParams] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        super().__init__(icache, params, telemetry)
        self.thread = ThreadFrontEnd(self, trace)
        self._register_metrics()

    def _register_metrics(self) -> MetricsRegistry:
        reg = super()._register_metrics()
        t = self.thread
        reg.gauge("machine.instructions_delivered", lambda: t.delivered)
        stats = t.stats
        for f in _dataclass_fields(FrontEndStats):
            reg.gauge(f"frontend.{f.name}",
                      lambda name=f.name: getattr(stats, name))
        reg.gauge("ftq.occupancy", lambda: len(t.ftq))
        reg.gauge("ftq.capacity", lambda: self.params.core.ftq_entries)
        reg.gauge("bpu.cond_lookups", lambda: t.bpu.cond_lookups)
        reg.gauge("bpu.mispredicts", lambda: t.bpu.mispredicts)
        return reg

    def run(self, warmup: int, measure: int,
            sample_efficiency: bool = True) -> SimResult:
        """Simulate ``warmup + measure`` instructions; report the measured
        window. The efficiency sampling interval is ~1/75th of the
        measured window (the paper's 100K cycles is ~1/1000th of its 50M+
        instruction windows; we keep the same spirit at our scale)."""
        thread = self.thread
        icache = self.icache
        icache.recording = False
        sampler = (EfficiencySampler(max(250, measure // 75))
                   if sample_efficiency else None)
        next_sample = NEVER

        def open_window(cycle: int) -> None:
            nonlocal next_sample
            icache.recording = True
            icache.reset_stats()
            if sampler is not None:
                sampler.reset(cycle)
                next_sample = sampler._next_sample

        thread.start(warmup, measure, open_window)
        threads = (thread,)
        predict = thread.predict
        prefetch = thread.prefetch
        step = thread.step
        builder = thread.builder
        ftq = thread.ftq
        capacity = self.params.core.ftq_entries
        fdip_queue = thread.fdip_queue
        budget = self._fdip_degree
        fills = self._fills
        process_fills = self._process_fills
        skip_stalls = self._skip_stalls
        rec = self._rec
        cycle = self.cycle
        wall_start = perf_counter()

        state = DONE if not thread.total else BLOCKED
        while state != DONE:
            if fills and fills[0][0] <= cycle:
                process_fills(cycle)
            # predict() has work only when a resteer resolves or the
            # builder may fill a non-full FTQ; skip the call otherwise.
            if cycle >= thread.resume_at \
                    or not builder.blocked and len(ftq) < capacity:
                predict(cycle, capacity - len(ftq))
            if fdip_queue:
                prefetch(cycle, budget)
            if rec is not None:
                self._sample_ftq(cycle, threads)
            state = step((cycle, True))
            if state == BLOCKED:
                cycle = skip_stalls(cycle, threads, len(ftq) >= capacity)
            if cycle >= next_sample and state in _SAMPLED:
                sampler.maybe_sample(icache, cycle)
                next_sample = sampler._next_sample
            cycle += 1

        self.cycle = cycle
        self.wall_seconds = perf_counter() - wall_start
        efficiency = None
        if sampler is not None:
            if not sampler.samples:
                sampler.force_sample(icache)
            efficiency = sampler.summary()
        return thread.window_result(efficiency)


def _config_int(config: str, field: str) -> int:
    """The numeric ``field`` of configuration name ``config``."""
    try:
        return int(field)
    except ValueError:
        raise ConfigurationError(
            f"malformed number {field!r} in L1-I configuration {config!r}"
        ) from None


def build_icache(config: str) -> InstructionCacheBase:
    """Build an L1-I from a configuration name.

    Names (used as result-cache keys throughout the benchmarks):

    * ``conv{16,32,64,128,192}``     — conventional caches of that many KB
    * ``conv32_16w``                 — 32 KB with 16 ways / 32 sets
    * ``conv32_{ghrp,acic}``         — replacement/insertion baselines
    * ``distill32``                  — Line Distillation, 32 KB budget
    * ``small{16,32}``               — 16/32-byte-block caches
    * ``ubs``                        — default Table II UBS cache
    * ``ubs_budget{N}``              — UBS scaled to ~N KB of data storage
    * ``ubs_pred_{dm128,sa8lru,sa8fifo,full}`` — predictor variants
    * ``ubs_ways{N}c{1,2}``          — Fig. 16 way-configuration sweep
    * ``ubs_v{s1.s2...}[_p{E}]``     — free-form way-size vector (dotted,
      ascending), optional direct-mapped predictor with E entries; the
      naming used by the :mod:`repro.dse` search for generated points
    """
    if config.startswith("conv"):
        rest = config[4:]
        if rest == "32_16w":
            return ConventionalICache(conventional_l1i(32 * 1024, ways=16))
        for suffix in ("_ghrp", "_acic", "_srrip", "_drrip", "_fifo",
                       "_random"):
            if rest.endswith(suffix):
                size_kb = _config_int(config, rest[:-len(suffix)])
                return ConventionalICache(
                    conventional_l1i(size_kb * 1024,
                                     replacement=suffix[1:]))
        size_kb = _config_int(config, rest)
        ways = 12 if size_kb == 192 else 8
        return ConventionalICache(conventional_l1i(size_kb * 1024, ways=ways))
    if config == "distill32":
        return DistillationICache()
    if config.startswith("small"):
        return SmallBlockICache(block_size=_config_int(config, config[5:]))
    if config == "ubs":
        return UBSICache()
    if config.startswith("ubs_budget"):
        budget_kb = _config_int(config, config[len("ubs_budget"):])
        return UBSICache(ubs_params_for_budget(budget_kb * 1024))
    if config.startswith("ubs_pred_"):
        kind = config[len("ubs_pred_"):]
        table = {
            "dm128": PredictorConfig.direct_mapped(128),
            "sa8lru": PredictorConfig.set_associative(64, 8, "lru"),
            "sa8fifo": PredictorConfig.set_associative(64, 8, "fifo"),
            "full": PredictorConfig.fully_associative(64),
        }
        if kind not in table:
            raise ConfigurationError(f"unknown predictor variant {kind!r}")
        return UBSICache(predictor_config=table[kind])
    if config.startswith("ubs_v"):
        spec = config[len("ubs_v"):]
        fields = spec.split("_")
        try:
            sizes = tuple(int(s) for s in fields[0].split("."))
        except ValueError:
            raise ConfigurationError(
                f"malformed way-size vector in {config!r} "
                "(expected e.g. ubs_v4.8.16.64)"
            ) from None
        predictor = None
        for extra in fields[1:]:
            if extra.startswith("p") and extra[1:].isdigit():
                predictor = PredictorConfig.direct_mapped(int(extra[1:]))
            else:
                raise ConfigurationError(
                    f"unknown ubs_v modifier {extra!r} in {config!r}"
                )
        return UBSICache(UBSParams(way_sizes=sizes),
                         predictor_config=predictor)
    if config.startswith("ubs_ways"):
        n_ways, sep, cfg = config[len("ubs_ways"):].partition("c")
        if not sep:
            raise ConfigurationError(
                f"malformed way configuration in {config!r} "
                "(expected e.g. ubs_ways4c1)")
        sizes = way_config(_config_int(config, n_ways),
                           _config_int(config, cfg))
        return UBSICache(UBSParams(way_sizes=sizes))
    if config.startswith("ubs_gap"):
        return UBSICache(UBSParams(
            run_merge_gap=_config_int(config, config[len("ubs_gap"):])))
    if config.startswith("ubs_win"):
        return UBSICache(
            UBSParams(candidate_window=_config_int(
                config, config[len("ubs_win"):])))
    if config == "ubs_ghrp":
        return UBSICache(UBSParams(replacement="ghrp"))
    if config == "ideal":
        from ..memory.ideal import IdealICache
        return IdealICache()
    raise ConfigurationError(f"unknown L1-I configuration {config!r}")


#: ``<base>_f<N>`` — machine-level FTQ-depth override on any L1-I config
#: (digits required, so ``conv32_fifo`` keeps naming a replacement policy).
_FTQ_SUFFIX = re.compile(r"^(?P<base>.+)_f(?P<ftq>\d+)$")


def split_machine_config(config: str) -> Tuple[str, Optional[MachineParams]]:
    """Split a configuration name into (L1-I config, machine params).

    Config names are pure L1-I organisations except for an optional
    trailing ``_f<N>`` which sets the FTQ depth (a front-end dimension the
    :mod:`repro.dse` search explores). Returns ``(base, None)`` when the
    name carries no machine-level override, so existing configurations
    build byte-identical machines.
    """
    match = _FTQ_SUFFIX.match(config)
    if match is None:
        return config, None
    ftq = int(match.group("ftq"))
    if ftq < 1:
        raise ConfigurationError(
            f"FTQ depth must be positive in configuration {config!r}"
        )
    params = MachineParams(core=replace(CoreParams(), ftq_entries=ftq))
    return match.group("base"), params


def build_machine(trace: Sequence[Instruction], config: str,
                  telemetry: Optional[Telemetry] = None) -> Machine:
    """Build a full :class:`Machine` from a configuration name.

    The one-stop factory used by the experiment runner: handles every
    :func:`build_icache` name plus machine-level suffixes recognised by
    :func:`split_machine_config`.
    """
    base, params = split_machine_config(config)
    return Machine(trace, build_icache(base), params=params,
                   telemetry=telemetry)
