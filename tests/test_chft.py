import struct

import numpy as np
import pytest

from cohft import chft


def test_roundtrip_f64(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((5, 7, 2))
    path = tmp_path / "a.chft"
    chft.save_tensor(path, arr)
    back = chft.load_tensor(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, arr)


def test_roundtrip_f32(tmp_path):
    arr = np.arange(12, dtype=np.float32).reshape(3, 4)
    path = tmp_path / "b.chft"
    chft.save_tensor(path, arr)
    back = chft.load_tensor(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, arr)


def test_header_layout(tmp_path):
    path = tmp_path / "c.chft"
    chft.save_tensor(path, np.zeros((2, 3), dtype=np.float32))
    raw = path.read_bytes()
    assert raw[:4] == b"CHFT"
    # version 1 (u16 LE), dtype code 0, ndim 2, extents 2 and 3 (u32 LE)
    assert raw[4:16] == bytes([1, 0, 0, 2, 2, 0, 0, 0, 3, 0, 0, 0])
    assert len(raw) == 16 + 6 * 4


def test_container_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    entries = [("alpha", rng.standard_normal((3, 3))),
               ("beta.0.w", rng.standard_normal(4).astype(np.float32)),
               ("gamma", np.array([1.5]))]
    path = tmp_path / "d.chft"
    chft.save_container(path, entries)
    out = chft.load_container(path)
    assert list(out) == ["alpha", "beta.0.w", "gamma"]
    for name, arr in entries:
        assert np.array_equal(out[name], arr)
        assert out[name].dtype == arr.dtype
        # each entry owns its data, writable in place, and keeps no file buffer alive
        assert out[name].base is None and out[name].flags.writeable


def test_bad_magic(tmp_path):
    path = tmp_path / "e.chft"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(chft.FormatError):
        chft.load_tensor(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "f.chft"
    chft.save_tensor(path, np.ones((4, 4)))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(chft.FormatError):
        chft.load_tensor(path)


def test_trailing_bytes(tmp_path):
    path = tmp_path / "g.chft"
    chft.save_tensor(path, np.ones(3))
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(chft.FormatError):
        chft.load_tensor(path)


def test_unsupported_dtype(tmp_path):
    with pytest.raises(chft.FormatError):
        chft.save_tensor(tmp_path / "h.chft", np.zeros(3, dtype=np.int32))


@pytest.mark.parametrize("raw", [
    b"CHFT\x01\x00",                                   # cut inside the fixed header
    b"CHFT\x01\x00\x00\x02\x02\x00",                   # 10 bytes: cut inside the extents
])
def test_truncated_header(tmp_path, raw):
    path = tmp_path / "i.chft"
    path.write_bytes(raw)
    with pytest.raises(chft.FormatError, match="truncated header"):
        chft.load_tensor(path)


def test_container_cut_inside_entry_name(tmp_path):
    path = tmp_path / "j.chft"
    chft.save_container(path, [("alpha", np.ones(2)), ("beta.long.name", np.ones(3))])
    raw = path.read_bytes()
    cut = raw.index(b"beta.long") + 4
    for end in (cut, raw.index(b"beta.long") - 1):  # inside the name; inside its length
        path.write_bytes(raw[:end])
        with pytest.raises(chft.FormatError, match="truncated entry name"):
            chft.load_container(path)


def test_container_entry_name_not_utf8(tmp_path):
    path = tmp_path / "k.chft"
    path.write_bytes(struct.pack("<H", 2) + b"\xff\xfe" + chft._encode(np.ones(2)))
    with pytest.raises(chft.FormatError, match="not UTF-8"):
        chft.load_container(path)


def test_huge_extents_are_truncated_payload(tmp_path):
    # four extents of 2^31, whose element count wraps to 0 in int64, and 8 bytes
    path = tmp_path / "l.chft"
    path.write_bytes(b"CHFT" + struct.pack("<HBB4I", 1, 0, 4, *[2 ** 31] * 4) + bytes(8))
    with pytest.raises(chft.FormatError, match="truncated payload"):
        chft.load_tensor(path)
