"""Binary trace file formats.

The on-disk formats are small, self-describing binary containers so that
synthesised workloads can be persisted and re-used without re-running the
generator (mirroring how ChampSim consumes pre-packaged trace files).
Two versions exist, distinguished by their leading magic:

* **v1 — record-oriented** (``b"REPROTR1"``): 8-byte magic, u32
  instruction count, then one packed ``<QQQBBBbbb`` record per
  instruction (pc, target, mem_addr, size, kind, flags with bit0 =
  taken, src1, src2, dst — 30 bytes each). Decoded into owned
  columns on read.
* **v2 — columnar** (``b"REPROAT"`` + version byte): the
  :class:`~repro.trace.arrays.ArrayTrace` structure-of-arrays layout.
  Reads back with columns that are zero-copy views over the file bytes.

:func:`read_trace` auto-detects the container; :func:`write_trace`
writes v2 when given an :class:`ArrayTrace` and v1 for plain
instruction iterables (keeping old callers and old files working).
Files ending in ``.gz`` are transparently gzip-compressed.

Raw ChampSim trace files carry no magic of their own, so
:func:`read_trace` detects them by extension (``.champsim`` /
``.champsimtrace``, optionally ``.gz``/``.xz``-compressed) and
delegates to :mod:`repro.trace.champsim` — the importer that lets real
traces be named as workloads (``champsim:<path>``) in sweeps.
"""

from __future__ import annotations

import gzip
import struct
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Union

from ..errors import TraceError
from .arrays import ArrayTrace
from .arrays import MAGIC as ARRAY_MAGIC
from .record import Instruction, InstrKind

MAGIC = b"REPROTR1"
_REC = struct.Struct("<QQQBBBbbb")

PathLike = Union[str, Path]


def _open(path: PathLike, mode: str) -> BinaryIO:
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode)  # type: ignore[return-value]
    return open(path, mode)


def write_trace(path: PathLike,
                instructions: Union[Iterable[Instruction], ArrayTrace]) -> int:
    """Write a trace to ``path``; returns the number of instructions.

    An :class:`ArrayTrace` is written in the columnar v2 container; any
    other iterable of instructions in the record-oriented v1 container.
    """
    if isinstance(instructions, ArrayTrace):
        with _open(path, "wb") as fh:
            for chunk in instructions._chunks():
                fh.write(chunk)
        return len(instructions)
    records = list(instructions)
    with _open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(records)))
        for ins in records:
            fh.write(_REC.pack(
                ins.pc, ins.target, ins.mem_addr, ins.size, int(ins.kind),
                1 if ins.taken else 0, ins.src1, ins.src2, ins.dst,
            ))
    return len(records)


def is_champsim_file(path: PathLike) -> bool:
    """Does ``path`` look like a raw ChampSim trace (by extension)?"""
    name = Path(path).name
    for compression in (".gz", ".xz"):
        if name.endswith(compression):
            name = name[:-len(compression)]
    return name.endswith((".champsim", ".champsimtrace"))


def read_trace(path: PathLike) -> ArrayTrace:
    """Read a trace previously written by :func:`write_trace`, or a raw
    ChampSim trace (detected by extension), as an :class:`ArrayTrace` —
    the one trace form the simulator consumes. v2 (columnar) files load
    zero-copy; v1 and ChampSim files are decoded into owned columns.
    """
    if is_champsim_file(path):
        from .champsim import read_champsim

        return ArrayTrace.from_instructions(read_champsim(path))
    with _open(path, "rb") as fh:
        head = fh.read(len(MAGIC))
        if head == MAGIC:
            return _read_v1(path, fh)
        if head[:len(ARRAY_MAGIC)] == ARRAY_MAGIC:
            try:
                return ArrayTrace.from_buffer(head + fh.read())
            except TraceError as exc:
                raise TraceError(f"{path}: {exc}") from None
        raise TraceError(f"{path}: bad magic {head!r}")


def _read_v1(path: PathLike, fh: BinaryIO) -> ArrayTrace:
    (count,) = struct.unpack("<I", fh.read(4))
    payload = fh.read(count * _REC.size)
    if len(payload) != count * _REC.size:
        raise TraceError(
            f"{path}: truncated trace (expected {count} records)"
        )
    return ArrayTrace.from_instructions(_v1_records(payload))


def _v1_records(payload: bytes) -> Iterator[Instruction]:
    for pc, target, mem, size, kind, flags, s1, s2, d in \
            _REC.iter_unpack(payload):
        yield Instruction(
            pc, size, InstrKind(kind), taken=bool(flags & 1),
            target=target, src1=s1, src2=s2, dst=d, mem_addr=mem,
        )
