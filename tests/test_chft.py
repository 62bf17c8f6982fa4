import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohft import chft
from cohft.data import PhantomSpec, sample_images, save_images
from cohft.model import init_model, preset, state_arrays


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


def test_container_entry_named_twice(tmp_path):
    # the second "w" starts after the first entry: 2 + 1 name bytes and a 1-D f64 blob of 2
    path = tmp_path / "m.chft"
    chft.save_container(path, [("w", np.zeros(2)), ("w", np.ones(3))])
    at = 2 + 1 + len(chft._encode(np.zeros(2)))
    with pytest.raises(chft.FormatError, match=f"entry 'w' at byte {at} repeats an earlier entry"):
        chft.load_container(path)


def test_huge_extents_are_truncated_payload(tmp_path):
    # four extents of 2^31, whose element count wraps to 0 in int64, and 8 bytes
    path = tmp_path / "l.chft"
    path.write_bytes(b"CHFT" + struct.pack("<HBB4I", 1, 0, 4, *[2 ** 31] * 4) + bytes(8))
    with pytest.raises(chft.FormatError, match="truncated payload"):
        chft.load_tensor(path)


@pytest.fixture(scope="module")
def real_files(tmp_path_factory):
    """The bytes of a real checkpoint (tiny, f32, as train writes it) and of a
    real image (a t2_lr, as gen-data writes it), and a directory to write in."""
    where = tmp_path_factory.mktemp("real")
    chft.save_container(where / "checkpoint.chft", state_arrays(init_model(preset("tiny"), dtype=np.float32)))
    save_images(where, "sample", sample_images(PhantomSpec(side=24), 2))
    return {"checkpoint": (where / "checkpoint.chft").read_bytes(),
            "image": (where / "sample.t2_lr.chft").read_bytes()}, where


def edited(raw, edits):
    """``raw`` after each edit (kind, at, data) in turn: a flip of the byte at ``at``
    by the mask ``data``, a truncation at ``at``, or the bytes ``data`` inserted at ``at``."""
    buf = bytearray(raw)
    for kind, at, data in edits:
        if kind == "flip" and buf:
            buf[at % len(buf)] ^= data
        elif kind == "cut":
            del buf[at % (len(buf) + 1):]
        elif kind == "insert":
            at %= len(buf) + 1
            buf[at:at] = data
    return bytes(buf)


AT = st.one_of(st.integers(0, 40), st.integers(0, 1 << 16))  # headers lie near the start
EDIT = st.one_of(st.tuples(st.just("flip"), AT, st.integers(1, 255)),
                 st.tuples(st.just("cut"), AT, st.none()),
                 st.tuples(st.just("insert"), AT, st.binary(min_size=1, max_size=12)))


@settings(max_examples=200)
@given(source=st.sampled_from(["checkpoint", "image"]), edits=st.lists(EDIT, min_size=1, max_size=3))
# a header of 0 dimensions: a scalar, which the writer must not store as shape (1,)
@example(source="image", edits=[("flip", 7, 3)])
# a header of 70 dimensions, past numpy's 64, each of extent 1
@example(source="image", edits=[("flip", 7, 3 ^ 70), ("insert", 8, struct.pack("<70I", *[1] * 70))])
# 20 bytes: an empty image whose other two extents numpy cannot index
@example(source="image", edits=[("insert", 8, struct.pack("<3I", 0, 4 * 10 ** 9, 4 * 10 ** 9)),
                                ("cut", 20, None)])
def test_edited_files_round_trip_or_are_format_errors(real_files, source, edits):
    # truncations, byte flips and insertions of real files: each reader either
    # returns arrays that its writer turns back into the same bytes, or refuses
    # the bytes with a FormatError
    raw, where = real_files
    buf = edited(raw[source], edits)
    path, back = where / "edited.chft", where / "back.chft"
    path.write_bytes(buf)
    try:
        arr, end = chft._decode(buf)
    except chft.FormatError:
        pass
    else:
        assert chft._encode(arr) == buf[:end]
    for load, save in ((chft.load_tensor, chft.save_tensor),
                       (chft.load_container, lambda to, entries: chft.save_container(to, entries.items()))):
        try:
            read = load(path)
        except chft.FormatError:
            continue
        save(back, read)
        assert back.read_bytes() == buf
