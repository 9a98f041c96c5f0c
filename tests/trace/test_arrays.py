"""Columnar (structure-of-arrays) trace codec tests."""

import os
import struct

import pytest

from repro.errors import TraceError
from repro.trace.arrays import (
    ArrayTrace,
    COLUMNS,
    MAGIC,
    SIDECAR_COLUMNS,
    SUPPORTED_VERSIONS,
    V2_COLUMNS,
    VERSION,
    as_array_trace,
    serialized_nbytes,
)
from repro.trace.io import read_trace, write_trace
from repro.trace.record import Instruction, InstrKind

from .test_io import _random_trace


@pytest.fixture
def trace500():
    return _random_trace(500, seed=3)


class TestConstruction:
    def test_from_instructions_roundtrip(self, trace500):
        at = ArrayTrace.from_instructions(trace500)
        assert len(at) == 500
        assert at.to_instructions() == trace500
        assert at == trace500          # sequence-vs-list equality

    def test_lazy_getitem_matches_objects(self, trace500):
        at = ArrayTrace.from_instructions(trace500)
        assert at[0] == trace500[0]
        assert at[-1] == trace500[-1]
        assert at[7].kind is trace500[7].kind   # real InstrKind members
        assert at[10:13] == trace500[10:13]
        with pytest.raises(IndexError):
            at[500]

    def test_as_array_trace_identity(self, trace500):
        at = ArrayTrace.from_instructions(trace500)
        assert as_array_trace(at) is at
        assert as_array_trace(trace500) == at

    def test_read_only(self, trace500):
        at = ArrayTrace.from_instructions(trace500)
        with pytest.raises(AttributeError):
            at.pc = None
        with pytest.raises(TypeError):
            hash(at)


class TestCodec:
    def test_bytes_roundtrip(self, trace500):
        at = ArrayTrace.from_instructions(trace500)
        data = at.to_bytes()
        assert len(data) == at.nbytes == serialized_nbytes(500)
        back = ArrayTrace.from_bytes(data)
        assert back == at
        assert back.to_instructions() == trace500

    def test_empty_trace_roundtrip(self):
        at = ArrayTrace.from_instructions([])
        back = ArrayTrace.from_bytes(at.to_bytes())
        assert len(back) == 0
        assert back.to_instructions() == []

    def test_max_width_fields(self):
        """Every column survives its extreme representable values."""
        u64max = (1 << 64) - 1
        ins = Instruction(u64max, 255, InstrKind.CALL_IND, taken=True,
                          target=u64max, src1=127, src2=-128, dst=-1,
                          mem_addr=u64max)
        at = ArrayTrace.from_instructions([ins])
        (out,) = ArrayTrace.from_bytes(at.to_bytes()).to_instructions()
        assert out == ins

    def test_version_mismatch_rejected(self, trace500):
        data = bytearray(ArrayTrace.from_instructions(trace500).to_bytes())
        data[len(MAGIC)] = VERSION + 1
        with pytest.raises(TraceError, match="version"):
            ArrayTrace.from_buffer(bytes(data))

    def test_bad_magic_rejected(self):
        with pytest.raises(TraceError, match="magic"):
            ArrayTrace.from_buffer(b"NOTATRC" + b"\x00" * 32)

    def test_truncated_rejected(self, trace500):
        data = ArrayTrace.from_instructions(trace500).to_bytes()
        with pytest.raises(TraceError, match="truncated"):
            ArrayTrace.from_buffer(data[:-5])
        with pytest.raises(TraceError, match="header"):
            ArrayTrace.from_buffer(data[:10])

    def test_from_buffer_is_zero_copy(self, trace500):
        at = ArrayTrace.from_instructions(trace500)
        view = ArrayTrace.from_buffer(at.to_bytes())
        for name, _fmt in COLUMNS:
            assert isinstance(getattr(view, name), memoryview)
        assert view == at

    def test_column_order_and_magic_stable(self):
        # On-disk format compatibility: changing either breaks old caches.
        assert MAGIC == b"REPROAT"
        assert tuple(name for name, _ in COLUMNS) == (
            "pc", "target", "mem_addr", "size", "kind", "taken",
            "src1", "src2", "dst")
        assert VERSION == 2
        assert SUPPORTED_VERSIONS == (1, 2)
        assert tuple(name for name, _ in V2_COLUMNS) == (
            "pc", "target", "mem_addr", "end", "boundary",
            "size", "kind", "taken", "src1", "src2", "dst")


class TestSidecars:
    """The v2 container's derived columns and its v1 auto-detect."""

    def test_sidecar_semantics(self, trace500):
        at = ArrayTrace.from_instructions(trace500)
        n = len(at)
        for i in range(n):
            assert at.end[i] == at.pc[i] + at.size[i]
            b = at.boundary[i]
            assert i <= b < n
            # No walk boundary strictly before b…
            for j in range(i, b):
                assert not trace500[j].is_branch
                assert at.pc[j + 1] == at.end[j]
            # …and b itself is one (branch, discontinuity, or the end).
            assert (trace500[b].is_branch or b == n - 1
                    or at.pc[b + 1] != at.end[b])

    def test_python_sidecar_fallback_matches(self, trace500):
        from repro.trace.arrays import _build_sidecars, _sidecars_python

        at = ArrayTrace.from_instructions(trace500)
        end, boundary = _build_sidecars(at.pc, at.size, at.kind, len(at))
        end_py, boundary_py = _sidecars_python(at.pc, at.size, at.kind,
                                               len(at))
        assert end.tobytes() == end_py.tobytes()
        assert boundary.tobytes() == boundary_py.tobytes()

    def test_v1_buffer_autodetected_and_sidecars_recomputed(self, trace500):
        at = ArrayTrace.from_instructions(trace500)
        # Hand-build a version-1 container (nine base columns, no
        # sidecars) as an older host would have serialised it.
        v1 = struct.pack("<7sBQ", MAGIC, 1, len(at)) + b"".join(
            getattr(at, name).tobytes() for name, _ in COLUMNS)
        assert len(v1) == serialized_nbytes(len(at), version=1)
        back = ArrayTrace.from_bytes(v1)
        assert back == at
        for name, _fmt in SIDECAR_COLUMNS:
            assert getattr(back, name).tobytes() == \
                getattr(at, name).tobytes()

    def test_v2_serialises_larger_than_v1(self):
        assert serialized_nbytes(100) == serialized_nbytes(100, 2)
        assert serialized_nbytes(100, 2) - serialized_nbytes(100, 1) \
            == 100 * 12    # u64 end + u32 boundary per instruction


class TestIOIntegration:
    def test_write_trace_dispatches_to_v2(self, tmp_path, trace500):
        at = ArrayTrace.from_instructions(trace500)
        path = tmp_path / "t.atrace"
        assert write_trace(path, at) == 500
        assert path.read_bytes()[:len(MAGIC)] == MAGIC
        back = read_trace(path)
        assert isinstance(back, ArrayTrace)
        assert back == at

    def test_v2_gzip_roundtrip(self, tmp_path, trace500):
        at = ArrayTrace.from_instructions(trace500)
        path = tmp_path / "t.atrace.gz"
        write_trace(path, at)
        with open(path, "rb") as fh:
            assert fh.read(2) == b"\x1f\x8b"
        assert read_trace(path) == at

    def test_v1_files_read_as_array_traces(self, tmp_path, trace500):
        path = tmp_path / "t.trace"
        write_trace(path, trace500)
        back = read_trace(path)
        assert isinstance(back, ArrayTrace)
        assert back == ArrayTrace.from_instructions(trace500)
        assert back.to_instructions() == trace500

    def test_corrupt_v2_raises_trace_error(self, tmp_path, trace500):
        path = tmp_path / "t.atrace"
        write_trace(path, ArrayTrace.from_instructions(trace500))
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(TraceError, match="truncated"):
            read_trace(path)


@pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                    reason="POSIX shared memory unavailable")
class TestSharedMemory:
    def test_shared_memory_roundtrip_and_release(self, trace500):
        at = ArrayTrace.from_instructions(trace500)
        shm = at.to_shared_memory()
        try:
            view = ArrayTrace.from_shared_memory(shm)
            assert view == at
            assert view.to_instructions() == trace500
            # The views pin the mapping; release() must unpin it so the
            # segment can be closed without a BufferError.
            view.release()
        finally:
            shm.close()
            shm.unlink()
        assert not os.path.exists(f"/dev/shm/{shm.name}")

    def test_close_without_release_fails(self, trace500):
        at = ArrayTrace.from_instructions(trace500)
        shm = at.to_shared_memory()
        view = ArrayTrace.from_shared_memory(shm)
        try:
            with pytest.raises(BufferError):
                shm.close()
        finally:
            view.release()
            shm.close()
            shm.unlink()
