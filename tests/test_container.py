import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from style_recal import container
from style_recal.container import ContainerError, read_container, write_container


def _sample_entries():
    return {
        "weights": np.arange(12, dtype=np.float32).reshape(3, 4),
        "step": np.array(7, dtype=np.int64),
        "bytes": np.array([0, 255], dtype=np.uint8),
    }


def test_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    entries = {
        "weights": rng.normal(size=(3, 4)).astype(np.float32),
        "precise": rng.normal(size=(2,)).astype(np.float64),
        "labels": np.array([1, 2, 3], dtype=np.int64),
        "bytes": np.array([0, 255], dtype=np.uint8),
    }
    meta = {"kind": "test", "step": 7}
    path = tmp_path / "a.bin"
    write_container(path, entries, meta)
    loaded, loaded_meta = read_container(path)
    assert loaded_meta == meta
    for name, arr in entries.items():
        np.testing.assert_array_equal(loaded[name], arr)
        assert loaded[name].dtype == arr.dtype

    # read -> write -> identical bytes
    path2 = tmp_path / "b.bin"
    write_container(path2, loaded, loaded_meta)
    assert path.read_bytes() == path2.read_bytes()


def test_zero_d_entry_round_trips_as_zero_d(tmp_path):
    path = tmp_path / "z.bin"
    write_container(path, {"step": np.array(7, dtype=np.int64), "one": np.array([2.5], dtype=np.float32)})
    loaded, _ = read_container(path)
    assert loaded["step"].shape == () and loaded["step"] == 7
    assert loaded["one"].shape == (1,)


def test_write_deterministic(tmp_path):
    entries = {"x": np.arange(6, dtype=np.float32).reshape(2, 3)}
    p1, p2 = tmp_path / "1.bin", tmp_path / "2.bin"
    write_container(p1, entries, {"z": 1, "a": 2})
    write_container(p2, entries, {"a": 2, "z": 1})  # key order must not matter
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ContainerError, match="magic"):
        read_container(path)


def test_truncated_rejected(tmp_path):
    path = tmp_path / "ok.bin"
    write_container(path, {"x": np.ones(10, dtype=np.float32)}, {})
    data = path.read_bytes()
    trunc = tmp_path / "trunc.bin"
    trunc.write_bytes(data[:-8])
    with pytest.raises(ContainerError, match="truncated"):
        read_container(trunc)


def test_bytes_after_the_last_entry_rejected(tmp_path):
    path = tmp_path / "ok.bin"
    write_container(path, {"x": np.ones(10, dtype=np.float32)}, {})
    size = path.stat().st_size
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(ContainerError, match=f"4 bytes after the last entry, at offset {size}"):
        read_container(path)


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(ContainerError, match="dtype"):
        write_container(tmp_path / "x.bin", {"c": np.zeros(2, dtype=np.complex64)}, {})


class _FailingFile:
    """File wrapper whose write stores half of its bytes, then fails."""

    def __init__(self, f):
        self._f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def write(self, data):
        self._f.write(data[: len(data) // 2])
        raise OSError("disk full")


def test_interrupted_write_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "checkpoint.bin"
    write_container(path, _sample_entries(), {"step": 1})
    before = path.read_bytes()
    monkeypatch.setattr(container, "open", lambda p, mode: _FailingFile(open(p, mode)), raising=False)
    with pytest.raises(OSError, match="disk full"):
        write_container(path, {"x": np.ones(1000, dtype=np.float64)}, {"step": 2})
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.bin"]


def _patched(tmp_path, old: bytes, new: bytes):
    """A one-entry container ({"x": [1.0]}, meta {}) with one byte run replaced."""
    path = tmp_path / "p.bin"
    write_container(path, {"x": np.ones(1, dtype=np.float32)}, {})
    raw = path.read_bytes()
    assert raw.count(old) == 1
    path.write_bytes(raw.replace(old, new))
    return path


@pytest.mark.parametrize("old,new,match", [
    (b"{}", b"{]", "not valid JSON"),
    (b"{}", b"[]", "not an object"),
    (b"{}", b"\xff}", "meta at offset 12 is not UTF-8"),
    (b"\x01\x00x", b"\x01\x00\xff", "entry name at offset 20 is not UTF-8"),
])
def test_undecodable_meta_or_name_raises_container_error(tmp_path, old, new, match):
    with pytest.raises(ContainerError, match=match):
        read_container(_patched(tmp_path, old, new))


def test_deeply_nested_meta_raises_container_error(tmp_path):
    meta = b"[" * 100_000
    path = tmp_path / "deep.bin"
    path.write_bytes(container.MAGIC + struct.pack("<II", container.VERSION, len(meta)) + meta)
    with pytest.raises(ContainerError, match="not valid JSON"):
        read_container(path)


def test_overflowing_dims_raise_container_error(tmp_path):
    # 4 dims of 2**16: the element count 2**64 wraps to 0 in int64 arithmetic.
    entry = struct.pack("<H", 1) + b"x" + struct.pack("<BB4I", 0, 4, *[2**16] * 4)
    path = tmp_path / "huge.bin"
    path.write_bytes(container.MAGIC + struct.pack("<II", container.VERSION, 2) + b"{}"
                     + struct.pack("<I", 1) + entry + b"\x00" * 64)
    with pytest.raises(ContainerError, match="truncated"):
        read_container(path)


@pytest.fixture(scope="module")
def valid_container(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "valid.bin"
    write_container(path, _sample_entries(), {"kind": "checkpoint", "step": 3, "hash": "abc"})
    return path


def test_every_truncation_raises_container_error(valid_container):
    raw = valid_container.read_bytes()
    trunc = valid_container.with_name("trunc.bin")
    for n in range(len(raw)):
        trunc.write_bytes(raw[:n])
        with pytest.raises(ContainerError):
            read_container(trunc)


@settings(max_examples=300)
@given(data=st.data())
def test_corrupted_bytes_read_or_raise_container_error(valid_container, data):
    raw = bytearray(valid_container.read_bytes())
    flips = data.draw(st.lists(st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)), min_size=1, max_size=8))
    for at, mask in flips:
        raw[at] ^= mask
    cut = data.draw(st.integers(0, len(raw)))
    path = valid_container.with_name("fuzzed.bin")
    path.write_bytes(bytes(raw[:cut]))
    try:
        entries, meta = read_container(path)
    except ContainerError:
        return
    assert isinstance(meta, dict)
    assert all(isinstance(v, np.ndarray) for v in entries.values())
