"""CPU timing model: the out-of-order back-end, one hardware thread's
front end (:mod:`repro.cpu.thread`) and the full machine."""

from .backend import Backend
from .machine import Machine, build_icache, build_machine, split_machine_config

__all__ = ["Backend", "Machine", "build_icache", "build_machine",
           "split_machine_config"]
