import json
import re

import numpy as np
import numpy.testing as npt
import pytest

from lort.errors import InvalidInputError, LortError, WeightFormatError, WeightLookupError
from lort.weights import WeightStore


def make_store():
    ws = WeightStore()
    rng = np.random.default_rng(0)
    ws["enc.conv.w"] = rng.standard_normal((4, 2, 3, 3))
    ws["enc.conv.b"] = rng.standard_normal(4)
    ws["block0.ln.gain"] = np.ones(8)
    return ws


def test_lookup():
    ws = make_store()
    assert ws["enc.conv.b"].shape == (4,)
    assert "enc.conv.w" in ws and "enc.conv.missing" not in ws
    with pytest.raises(WeightLookupError, match="enc.conv.missing"):
        ws["enc.conv.missing"]


def test_missing_and_n_params():
    ws = make_store()
    assert ws.missing(["enc.conv.w", "nope"]) == ["nope"]
    assert ws.n_params == 4 * 2 * 9 + 4 + 8


def test_bytes_roundtrip_preserves_order_shapes_values():
    ws = make_store()
    back = WeightStore.from_bytes(ws.to_bytes())
    assert list(back.keys()) == list(ws.keys())
    for name, arr in ws.items():
        assert back[name].shape == arr.shape
        npt.assert_allclose(back[name], arr, atol=1e-6)  # float32 storage


def test_indented_manifest_of_older_files_still_loads():
    """Files once wrote their manifest with `indent=1`; the reader takes
    any JSON whitespace, so they load to the same tensors."""
    data = make_store().to_bytes()
    hlen = int.from_bytes(data[8:16], "little")
    header = data[16 : 16 + hlen]
    assert b"\n" not in header
    indented = json.dumps(json.loads(header), indent=1).encode()
    old = data[:8] + len(indented).to_bytes(8, "little") + indented + data[16 + hlen :]
    back, want = WeightStore.from_bytes(old), WeightStore.from_bytes(data)
    assert list(back.keys()) == list(want.keys())
    for name in want:
        assert back[name].tobytes() == want[name].tobytes()


def test_save_load_roundtrip(tmp_path):
    ws = make_store()
    path = tmp_path / "w.bin"
    ws.save(str(path))
    back = WeightStore.load(str(path))
    npt.assert_allclose(back["enc.conv.w"], ws["enc.conv.w"], atol=1e-6)


def test_format_errors():
    ws = make_store()
    data = ws.to_bytes()
    with pytest.raises(WeightFormatError, match="magic"):
        WeightStore.from_bytes(b"NOTMAGIC" + data[8:])
    with pytest.raises(WeightFormatError, match="truncated"):
        WeightStore.from_bytes(data[:-8])
    with pytest.raises(WeightFormatError):
        WeightStore.from_bytes(data + b"\x00\x00\x00\x00")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_name_their_entry(bad):
    ws = make_store()
    ws["enc.conv.b"] = np.array([0.0, bad, 1.0, 2.0])
    with pytest.raises(WeightFormatError, match=r"entry 1 \('enc.conv.b'\).*not all finite"):
        WeightStore.from_bytes(ws.to_bytes())


def test_values_stored_as_float64():
    ws = WeightStore()
    ws["x"] = np.array([1, 2, 3], dtype=np.int32)
    assert ws["x"].dtype == np.float64


def test_store_rejects_a_name_that_is_not_a_string():
    ws = WeightStore()
    for name in (3, ("a", "b"), None):
        with pytest.raises(InvalidInputError, match=re.escape(f"weight name must be a str, got {name!r}")):
            ws[name] = np.zeros(2)
    assert len(ws) == 0


@pytest.mark.parametrize("big", [1e39, -1e39, np.finfo(np.float64).max])
def test_writer_refuses_a_finite_value_float32_cannot_hold(big):
    ws = WeightStore()
    ws["ok"] = np.ones(2)
    ws["big"] = np.array([0.0, big])
    with pytest.raises(WeightFormatError, match="weight 'big' holds a finite value beyond"):
        ws.to_bytes()
    # the largest float32 and the non-finite values are written as they are
    ws["big"] = np.array([np.finfo(np.float32).max, np.nan, np.inf, -np.inf])
    data = ws.to_bytes()
    with pytest.raises(WeightFormatError, match=r"entry 1 \('big'\): values are not all finite"):
        WeightStore.from_bytes(data)


def test_store_rejects_a_tensor_that_is_not_real():
    ws = WeightStore()
    for value, dtype in [("abc", "<U3"), (np.ones(2, complex), "complex128")]:
        with pytest.raises(InvalidInputError,
                           match=f"weight 'w' must hold real numbers, got dtype {dtype}"):
            ws["w"] = value
    assert "w" not in ws
    with pytest.raises(InvalidInputError, match="weight 'w' must be a rectangular array"):
        ws["w"] = [[1.0], [1.0, 2.0]]
    x = np.ones(3)
    ws["w"] = x
    assert ws["w"] is x


def with_manifest(header) -> bytes:
    """A container whose manifest is `header` (JSON-encoded), with no blob; a
    dict header without a "format" gets the one `to_bytes` writes."""
    if isinstance(header, dict):
        header = {"format": "lort-weights", **header}
    raw = json.dumps(header).encode()
    return b"LORTW001" + len(raw).to_bytes(8, "little") + raw


def entry(**fields):
    ent = {"name": "w", "shape": [2], "offset": 0, "dtype": "f32-le"}
    ent.update(fields)
    return {k: v for k, v in ent.items() if v is not None}


@pytest.mark.parametrize("header,match", [
    ([1, 2], "manifest must be a JSON object"),
    ({"entries": {"w": 1}}, "'entries' must be a list"),
    ({"entries": ["w"]}, "entry 0: must be a JSON object"),
    ({"entries": [entry(name=None)]}, "entry 0: field 'name'"),
    ({"entries": [entry(shape=None)]}, "entry 0 \\('w'\\): field 'shape'"),
    ({"entries": [entry(shape=["x"])]}, "entry 0 \\('w'\\): field 'shape'"),
    ({"entries": [entry(shape=[-2])]}, "field 'shape'"),
    ({"entries": [entry(shape=2)]}, "field 'shape'"),
    ({"entries": [entry(offset=-4)]}, "entry 0 \\('w'\\): field 'offset'"),
    ({"entries": [entry(offset="0")]}, "field 'offset'"),
    ({"entries": [entry(offset=None)]}, "field 'offset'"),
    ({"entries": [entry(dtype="f64")]}, "unsupported dtype"),
    ({"entries": [entry(shape=[1] * 80)]}, "field 'shape'"),
    ({"format": "something-else", "entries": []},
     "field 'format' must be 'lort-weights', got 'something-else'"),
    ({}, "field 'entries' is missing"),
    ({"entries": [entry()], "extra": 1}, "manifest: unknown key 'extra'"),
    ({"entries": [entry(extra=1)]}, "entry 0: unknown key 'extra'"),
])
def test_malformed_manifest_names_entry_and_field(header, match):
    data = with_manifest(header)
    if isinstance(header, dict) and isinstance(header.get("entries"), list):
        data += b"\x00" * 8
    with pytest.raises(WeightFormatError, match=match):
        WeightStore.from_bytes(data)


def test_duplicate_and_truncated_manifest():
    with pytest.raises(WeightFormatError, match="duplicate"):
        WeightStore.from_bytes(with_manifest({"entries": [entry(), entry(offset=8)]})
                               + b"\x00" * 16)
    data = make_store().to_bytes()
    with pytest.raises(WeightFormatError, match="manifest truncated"):
        WeightStore.from_bytes(data[:40])


def test_entries_lie_back_to_back():
    # two entries over the same bytes, and an entry past a skipped gap
    aliased = with_manifest({"entries": [entry(), entry(name="v")]}) + b"\x00" * 8
    with pytest.raises(WeightFormatError, match=r"entry 1 \('v'\): field 'offset' is 0, "
                                                r"but the previous entry ends at 8"):
        WeightStore.from_bytes(aliased)
    gapped = with_manifest({"entries": [entry(shape=[1], offset=4)]}) + b"\x00" * 8
    with pytest.raises(WeightFormatError, match=r"entry 0 \('w'\): field 'offset' is 4, "
                                               r"but the previous entry ends at 0"):
        WeightStore.from_bytes(gapped)


def try_parse(data: bytes) -> None:
    """Parse `data`; a LortError is a correct outcome, any other error escapes."""
    try:
        WeightStore.from_bytes(data)
    except LortError:
        pass


def test_fuzz_only_lort_errors_escape():
    data = make_store().to_bytes()
    hlen = int.from_bytes(data[8:16], "little")
    header = json.loads(data[16 : 16 + hlen])
    blob_cuts = [16 + hlen + e["offset"] for e in header["entries"]]
    # truncation at every byte of the magic, length field and manifest, and
    # at every entry boundary of the blob
    for cut in list(range(16 + hlen + 1)) + blob_cuts:
        with pytest.raises(WeightFormatError):
            WeightStore.from_bytes(data[:cut])
    rng = np.random.default_rng(0)
    for _ in range(2000):
        buf = bytearray(data)
        # flips land in the manifest mostly: blob flips only change values
        for pos in rng.integers(0, 16 + hlen + 8, size=rng.integers(1, 4)):
            buf[pos] = int(rng.integers(0, 256))
        try_parse(bytes(buf))
