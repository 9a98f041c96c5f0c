"""Array-backed structure-of-arrays trace interchange.

:class:`ArrayTrace` stores a trace as nine flat columns (one per
:class:`~repro.trace.record.Instruction` field) instead of a list of
Python objects. The columnar layout is what makes campaign-scale
simulation cheap to move around:

* serialisation is nine ``memcpy``-like column dumps behind a small
  versioned header (no per-record ``struct`` packing);
* deserialisation from any buffer is zero-copy — the columns become
  ``memoryview`` casts over the buffer, so loading a multi-megabyte
  trace from :mod:`multiprocessing.shared_memory` costs O(1) instead of
  one Python object per instruction;
* the simulator hot paths (:class:`~repro.cpu.backend.Backend` delivery,
  :class:`~repro.frontend.ftq.RangeBuilder` run-ahead) read the columns
  directly and never materialise :class:`Instruction` objects.

``ArrayTrace`` is the one trace form the simulator consumes:
:class:`~repro.cpu.machine.Machine` and :class:`~repro.smt.SMTMachine`
convert any other instruction sequence once with :func:`as_array_trace`,
and :func:`~repro.trace.io.read_trace` returns one for every file
format. It is also a read-only ``Sequence[Instruction]`` whose indexing
builds the object view lazily, for analysis code that wants records.

Serialised layout (little endian)::

    7s  magic   b"REPROAT"
    B   format version (1 or 2; anything else is rejected)
    Q   instruction count n
    then the columns; version 1 stores the nine instruction columns in
    :data:`COLUMNS` order:
    pc[u64*n] target[u64*n] mem_addr[u64*n]
    size[u8*n] kind[u8*n] taken[u8*n] src1[i8*n] src2[i8*n] dst[i8*n]
    and version 2 interleaves the two *sidecar* columns so every column
    stays naturally aligned:
    pc[u64*n] target[u64*n] mem_addr[u64*n] end[u64*n] boundary[u32*n]
    size[u8*n] kind[u8*n] taken[u8*n] src1[i8*n] src2[i8*n] dst[i8*n]

The sidecar columns are *derived* (never authoritative): ``end[i]`` is
``pc[i] + size[i]`` — the byte address just past the instruction — and
``boundary[i]`` is the index of the next *walk boundary* at or after
``i``: the next control-flow instruction, fall-through discontinuity
(``pc[i+1] != end[i]``) or the final instruction. Between ``i`` and
``boundary[i]`` the ``end`` column is strictly increasing, which is what
lets the fetch-range builder binary-search a whole straight-line run
instead of walking it instruction by instruction
(:meth:`repro.frontend.ftq.RangeBuilder.build_next`).

Version-1 buffers (older trace caches, shared-memory segments published
by older hosts) are still accepted: :meth:`ArrayTrace.from_buffer`
auto-detects the version and recomputes the sidecars on load.

The 16-byte header keeps the u64 columns 8-aligned, which
``memoryview.cast`` requires when the buffer is shared memory.
"""

from __future__ import annotations

import struct
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import TraceError
from .record import IS_BRANCH, Instruction, InstrKind

try:  # numpy vectorises the one-time sidecar build; optional.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via _sidecars_python
    _np = None

#: Column name -> array/struct typecode for the nine instruction-field
#: columns (the version-1 serialisation order). The wide (8-byte)
#: columns come first so every column stays naturally aligned after the
#: 16-byte header.
COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("pc", "Q"), ("target", "Q"), ("mem_addr", "Q"),
    ("size", "B"), ("kind", "B"), ("taken", "B"),
    ("src1", "b"), ("src2", "b"), ("dst", "b"),
)

#: Derived sidecar columns added by the version-2 container.
SIDECAR_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("end", "Q"), ("boundary", "I"),
)

#: Version-2 serialisation order: wide columns (including the ``end``
#: sidecar) first, then the u32 ``boundary``, then the byte columns.
V2_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("pc", "Q"), ("target", "Q"), ("mem_addr", "Q"), ("end", "Q"),
    ("boundary", "I"),
    ("size", "B"), ("kind", "B"), ("taken", "B"),
    ("src1", "b"), ("src2", "b"), ("dst", "b"),
)

MAGIC = b"REPROAT"
VERSION = 2
SUPPORTED_VERSIONS = (1, 2)
_HEADER = struct.Struct("<7sBQ")
_ITEMSIZE = {"Q": 8, "I": 4, "B": 1, "b": 1}
_BYTES_PER_INSTRUCTION = sum(_ITEMSIZE[f] for _, f in COLUMNS)
_BYTES_PER_INSTRUCTION_V2 = sum(_ITEMSIZE[f] for _, f in V2_COLUMNS)
_COLUMN_ORDER = {1: COLUMNS, 2: V2_COLUMNS}

Buffer = Union[bytes, bytearray, memoryview]


def serialized_nbytes(n: int, version: int = VERSION) -> int:
    """Size in bytes of an ``n``-instruction serialised ArrayTrace."""
    if version == 1:
        return _HEADER.size + n * _BYTES_PER_INSTRUCTION
    return _HEADER.size + n * _BYTES_PER_INSTRUCTION_V2


def _sidecars_numpy(pc, size, kind, n):
    """Vectorised (end, boundary) build; see the module docstring."""
    from array import array

    pc_np = _np.frombuffer(pc, dtype=_np.uint64, count=n)
    size_np = _np.frombuffer(size, dtype=_np.uint8, count=n)
    kind_np = _np.frombuffer(kind, dtype=_np.uint8, count=n)
    end_np = pc_np + size_np
    stop = _IS_BRANCH_NP[kind_np]
    if n > 1:
        stop[:-1] |= pc_np[1:] != end_np[:-1]
    stop[-1] = True
    # boundary[i] = min index j >= i with stop[j]: reversed running min
    # over (index where stop, +inf elsewhere).
    idx = _np.where(stop, _np.arange(n, dtype=_np.int64), n)
    boundary = _np.minimum.accumulate(idx[::-1])[::-1]
    end_col = array("Q")
    end_col.frombytes(end_np.tobytes())
    boundary_col = array("I")
    boundary_col.frombytes(boundary.astype(_np.uint32).tobytes())
    return end_col, boundary_col


def _sidecars_python(pc, size, kind, n):
    """Pure-Python fallback for hosts without numpy (one O(n) pass)."""
    from array import array

    end_col = array("Q", (pc[i] + size[i] for i in range(n)))
    boundary_col = array("I", bytes(4 * n))
    is_branch = IS_BRANCH
    nxt = n - 1
    for i in range(n - 1, -1, -1):
        if is_branch[kind[i]] or i == n - 1 or pc[i + 1] != end_col[i]:
            nxt = i
        boundary_col[i] = nxt
    return end_col, boundary_col


def _build_sidecars(pc, size, kind, n):
    """(end, boundary) columns for the given base columns."""
    if n == 0:
        from array import array

        return array("Q"), array("I")
    if _np is not None:
        return _sidecars_numpy(pc, size, kind, n)
    return _sidecars_python(pc, size, kind, n)


if _np is not None:
    _IS_BRANCH_NP = _np.array(IS_BRANCH, dtype=bool)


class ArrayTrace(Sequence):
    """A read-only columnar trace (see module docstring).

    Columns are either owned ``array.array`` objects (built by
    :meth:`from_instructions`) or ``memoryview`` casts borrowed from an
    external buffer (built by :meth:`from_buffer`); both index to plain
    Python ints, so consumers never need to know which backing is in use.
    """

    __slots__ = ("pc", "target", "mem_addr", "size", "kind", "taken",
                 "src1", "src2", "dst", "end", "boundary", "derived", "_n")

    def __init__(self, columns: Sequence, n: int,
                 sidecars: Optional[Sequence] = None) -> None:
        for (name, _fmt), col in zip(COLUMNS, columns):
            object.__setattr__(self, name, col)
        object.__setattr__(self, "_n", n)
        if sidecars is None:
            sidecars = _build_sidecars(self.pc, self.size, self.kind, n)
        for (name, _fmt), col in zip(SIDECAR_COLUMNS, sidecars):
            object.__setattr__(self, name, col)
        # Scratch cache for expensive trace-derived state (e.g. the
        # precomputed BPU range stream) shared by consumers holding the
        # same trace object. Never serialized; keys are consumer-chosen.
        object.__setattr__(self, "derived", {})

    def __setattr__(self, name, value):  # columns are immutable views
        raise AttributeError("ArrayTrace is read-only")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_instructions(cls, instructions: Iterable[Instruction]) -> "ArrayTrace":
        """Decode an object trace into owned columns (one-time cost)."""
        from array import array

        cols = {name: array(fmt) for name, fmt in COLUMNS}
        pc_a = cols["pc"].append
        target_a = cols["target"].append
        mem_a = cols["mem_addr"].append
        size_a = cols["size"].append
        kind_a = cols["kind"].append
        taken_a = cols["taken"].append
        src1_a = cols["src1"].append
        src2_a = cols["src2"].append
        dst_a = cols["dst"].append
        n = 0
        for ins in instructions:
            pc_a(ins.pc)
            target_a(ins.target)
            mem_a(ins.mem_addr)
            size_a(ins.size)
            kind_a(ins.kind)
            taken_a(1 if ins.taken else 0)
            src1_a(ins.src1)
            src2_a(ins.src2)
            dst_a(ins.dst)
            n += 1
        return cls(tuple(cols[name] for name, _ in COLUMNS), n)

    @classmethod
    def from_buffer(cls, buf: Buffer) -> "ArrayTrace":
        """Zero-copy view over a serialised trace (bytes or shared memory).

        The returned trace borrows ``buf``: it must stay alive (and, for
        shared memory, mapped) for the lifetime of the trace, and
        :meth:`release` must drop the views before the segment can be
        closed.
        """
        view = memoryview(buf)
        if len(view) < _HEADER.size:
            raise TraceError(
                f"array trace too short ({len(view)} bytes) for its header"
            )
        magic, version, count = _HEADER.unpack_from(view, 0)
        if magic != MAGIC:
            raise TraceError(f"bad array-trace magic {bytes(magic)!r}")
        if version not in SUPPORTED_VERSIONS:
            raise TraceError(
                f"unsupported array-trace version {version} "
                f"(supported: {', '.join(map(str, SUPPORTED_VERSIONS))})"
            )
        need = serialized_nbytes(count, version)
        if len(view) < need:
            raise TraceError(
                f"truncated array trace: {len(view)} bytes for "
                f"{count} instructions (need {need})"
            )
        by_name = {}
        offset = _HEADER.size
        for name, fmt in _COLUMN_ORDER[version]:
            nbytes = count * _ITEMSIZE[fmt]
            by_name[name] = view[offset:offset + nbytes].cast(fmt)
            offset += nbytes
        cols = tuple(by_name[name] for name, _ in COLUMNS)
        if version == 1:
            # Older container: derive the sidecar columns on load.
            return cls(cols, count)
        sidecars = tuple(by_name[name] for name, _ in SIDECAR_COLUMNS)
        return cls(cols, count, sidecars)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ArrayTrace":
        """Alias of :meth:`from_buffer` for symmetry with :meth:`to_bytes`."""
        return cls.from_buffer(data)

    # -- serialisation -----------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Serialised size of this trace."""
        return serialized_nbytes(self._n)

    def to_bytes(self) -> bytes:
        return b"".join(self._chunks())

    def write_into(self, buf) -> int:
        """Serialise into a writable buffer (e.g. ``SharedMemory.buf``);
        returns the number of bytes written."""
        view = memoryview(buf)
        offset = 0
        for chunk in self._chunks():
            view[offset:offset + len(chunk)] = chunk
            offset += len(chunk)
        return offset

    def _chunks(self) -> Iterable[bytes]:
        yield _HEADER.pack(MAGIC, VERSION, self._n)
        for name, _fmt in V2_COLUMNS:
            yield getattr(self, name).tobytes()

    # -- shared memory -----------------------------------------------------

    def to_shared_memory(self, name: Optional[str] = None):
        """Create a shared-memory segment holding this trace serialised.

        The caller owns the returned segment: ``close()`` + ``unlink()``
        it when the last consumer is done.
        """
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=name, create=True,
                                         size=max(1, self.nbytes))
        self.write_into(shm.buf)
        return shm

    @classmethod
    def from_shared_memory(cls, shm) -> "ArrayTrace":
        """Zero-copy view over a segment written by :meth:`to_shared_memory`.

        Call :meth:`release` before ``shm.close()`` — the views pin the
        mapping.
        """
        return cls.from_buffer(shm.buf)

    def release(self) -> None:
        """Release borrowed ``memoryview`` columns (no-op for owned ones).

        After this the trace must not be used again; it exists so a
        worker can drop a memoised shared-memory trace and then close
        the segment without a ``BufferError``.
        """
        for name, _fmt in V2_COLUMNS:
            col = getattr(self, name)
            if isinstance(col, memoryview):
                col.release()

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._n))]
        n = self._n
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("ArrayTrace index out of range")
        return Instruction(
            self.pc[index], self.size[index], InstrKind(self.kind[index]),
            taken=self.taken[index] == 1, target=self.target[index],
            src1=self.src1[index], src2=self.src2[index],
            dst=self.dst[index], mem_addr=self.mem_addr[index],
        )

    def to_instructions(self) -> List[Instruction]:
        """Materialise the object view of the whole trace."""
        return [self[i] for i in range(self._n)]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ArrayTrace):
            if self._n != other._n:
                return False
            return all(
                getattr(self, name).tobytes() == getattr(other, name).tobytes()
                for name, _fmt in COLUMNS
            )
        if isinstance(other, (list, tuple)):
            if self._n != len(other):
                return False
            return all(self[i] == other[i] for i in range(self._n))
        return NotImplemented

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("ArrayTrace is unhashable")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        backing = ("shared" if self._n and isinstance(self.pc, memoryview)
                   else "owned")
        return f"ArrayTrace({self._n} instructions, {backing} columns)"


def as_array_trace(trace: Sequence[Instruction]) -> ArrayTrace:
    """Return ``trace`` itself if already columnar, else decode it."""
    if isinstance(trace, ArrayTrace):
        return trace
    return ArrayTrace.from_instructions(trace)
