import ast
import dataclasses
import inspect
import pathlib
import struct

import numpy as np
import numpy.testing as npt
import pytest

import lort
from lort import signal
from lort.errors import (
    InvalidInputError,
    LortError,
    NonInvertibleWindowError,
    ShapeError,
    WavParseError,
)
from lort.signal import (
    ComplexSpec,
    Waveform,
    angle,
    decompose,
    hann_window,
    invertible,
    istft,
    read_wav,
    recompose,
    snr_db,
    stft,
    write_wav,
)
from oracles import overlap_add_per_frame


def make_noise(n, seed=0, scale=0.25):
    return Waveform(scale * np.random.default_rng(seed).standard_normal(n))


# ---------------------------------------------------------------------------
# WAV

def test_wav_roundtrip_is_byte_exact():
    wf = make_noise(4321, seed=1)
    data = write_wav(wf)
    back = read_wav(data)
    assert back.sample_rate == 16000
    assert write_wav(back) == data


def test_wav_quantization_error_is_bounded():
    wf = make_noise(2000, seed=2)
    back = read_wav(write_wav(wf))
    assert np.max(np.abs(back.samples - wf.samples)) <= 1.0 / 32768.0


def test_wav_parse_errors_name_the_field():
    wf = make_noise(100)
    good = write_wav(wf)
    with pytest.raises(WavParseError, match="RIFF"):
        read_wav(b"JUNK" + good[4:])
    with pytest.raises(WavParseError, match="WAVE"):
        read_wav(good[:8] + b"AIFF" + good[12:])
    stereo = bytearray(good)
    stereo[22] = 2  # nChannels
    with pytest.raises(WavParseError, match="nChannels"):
        read_wav(bytes(stereo))
    eight = bytearray(good)
    eight[34] = 8  # wBitsPerSample
    with pytest.raises(WavParseError, match="wBitsPerSample"):
        read_wav(bytes(eight))
    with pytest.raises(WavParseError, match="truncated"):
        read_wav(good[:-10])


def test_read_wav_names_an_argument_that_is_no_byte_string():
    good = write_wav(make_noise(100))
    for data in (good, bytearray(good), memoryview(good), memoryview(good).cast("H")):
        assert len(read_wav(data)) == 100
    with pytest.raises(WavParseError, match=r"form type is b'AIFF'"):
        read_wav(memoryview(good[:8] + b"AIFF" + good[12:]))
    for data, kind in ((None, "NoneType"), ("RIFF", "str"), (list(good), "list")):
        with pytest.raises(WavParseError, match=f"bytes, bytearray or memoryview, got {kind}"):
            read_wav(data)


def riff(*chunks: bytes) -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + len(body).to_bytes(4, "little") + body


def test_wav_rejects_a_repeated_fmt_or_data_chunk():
    good = write_wav(Waveform(np.arange(4) / 8.0))
    fmt16, data4 = good[12:36], good[36:]  # the data chunk ends at byte 52
    assert read_wav(riff(fmt16, data4)).samples.tobytes() == read_wav(good).samples.tobytes()
    # a second data chunk would replace the samples; a fmt chunk after the
    # data would relabel their rate
    data2 = b"data" + (4).to_bytes(4, "little") + b"\x01\x00\x02\x00"
    fmt8 = fmt16[:12] + struct.pack("<II", 8000, 16000) + fmt16[20:]  # rate, byte rate
    for extra, cid in [(data2, "data"), (fmt8, "fmt ")]:
        with pytest.raises(WavParseError, match=f"repeated chunk b'{cid}' at byte 52"):
            read_wav(riff(fmt16, data4, extra))


def try_read_wav(data: bytes) -> None:
    """Parse `data`; a LortError is a correct outcome, any other error escapes."""
    try:
        read_wav(data)
    except LortError:
        pass


def test_wav_fuzz_only_lort_errors_escape():
    data = write_wav(make_noise(32, seed=3))
    # every proper prefix cuts into a declared chunk
    for cut in range(len(data)):
        with pytest.raises(LortError):
            read_wav(data[:cut])
    rng = np.random.default_rng(0)
    for _ in range(2000):
        buf = bytearray(data)
        # flips land in the 44-byte header mostly: sample flips only change values
        for pos in rng.integers(0, 52, size=rng.integers(1, 4)):
            buf[pos] = int(rng.integers(0, 256))
        try_read_wav(bytes(buf))


def test_waveform_validation():
    with pytest.raises(InvalidInputError):
        Waveform(np.zeros((2, 3)))
    with pytest.raises(InvalidInputError):
        Waveform(np.array([1.0, np.nan]))
    with pytest.raises(InvalidInputError):
        Waveform(np.zeros(4), sample_rate=0)
    # a rate write_wav cannot store, and rates of the wrong type
    for rate in (16000.5, "16000", True):
        with pytest.raises(InvalidInputError, match="sample_rate must be an int"):
            Waveform(np.zeros(4), sample_rate=rate)


def test_write_wav_rejects_what_the_header_cannot_hold():
    # a rate whose byte rate 2 * rate overflows the header is not 16 kHz, so
    # neither read_wav nor Waveform accepts it and write_wav never sees it
    data = bytearray(write_wav(make_noise(8)))
    data[24:28] = (2**31).to_bytes(4, "little")  # nSamplesPerSec
    with pytest.raises(InvalidInputError, match=r"sample_rate 2147483648 "):
        read_wav(bytes(data))
    with pytest.raises(InvalidInputError, match=r"sample_rate 2147483647 "):
        Waveform(np.zeros(4), 2**31 - 1)
    assert len(write_wav(Waveform(np.zeros(4)))) == 52
    # the RIFF size 36 + 2 * samples must fit as well (a read-only
    # broadcast stands in for 2**31 samples)
    wf = make_noise(4)
    wf.samples = np.broadcast_to(0.0, (2**31,))
    with pytest.raises(InvalidInputError, match=r"2147483648 samples are too many"):
        write_wav(wf)


def test_only_signal_compares_a_sample_rate():
    # Waveform states the rate rule once; no other module may compare a
    # `.sample_rate` or name the rate as a literal
    src = pathlib.Path(signal.__file__).parent
    modules = [path for path in sorted(src.glob("*.py")) if path.name != "signal.py"]
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            compares_rate = isinstance(node, ast.Compare) and any(
                isinstance(n, ast.Attribute) and n.attr == "sample_rate" for n in ast.walk(node))
            names_rate = isinstance(node, ast.Constant) and node.value == 16000
            if compares_rate or names_rate:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"sample rate checked outside signal.py at {found}"
    assert len(modules) >= 10


def test_waveform_samples_must_be_real():
    for value, dtype in [(np.array([1 + 1j, 2]), "complex128"), (["a"], "<U1"),
                         ([None, 1.0], "object")]:
        with pytest.raises(InvalidInputError,
                           match=f"samples must hold real numbers, got dtype {dtype}"):
            Waveform(value)
    # bools, ints and floats convert as np.asarray(..., dtype=np.float64) does
    x = np.arange(4.0)
    assert Waveform(x).samples is x
    for value in (np.arange(4, dtype=np.int16), [0, 1, 2, 3], np.array([True, False]),
                  np.arange(4, dtype=np.float32), np.arange(8.0)[::2]):
        got = Waveform(value).samples
        assert got.dtype == np.float64
        assert got.tobytes() == np.asarray(value, dtype=np.float64).tobytes()


# ---------------------------------------------------------------------------
# STFT / iSTFT

@pytest.mark.parametrize("hop", [100, 120, 150])
def test_stft_istft_roundtrip_snr(hop):
    wf = make_noise(16000, seed=3)
    spec = stft(wf, 510, 510, hop)
    back = istft(spec, len(wf))
    assert snr_db(wf.samples, back.samples) >= 50.0


def test_stft_frame_count_and_bins():
    wf = make_noise(16000)
    spec = stft(wf, 510, 510, 100)
    assert spec.re.shape == (161, 256)
    assert spec.frames == 161


def test_sine_concentrates_in_expected_bin():
    sr, fft = 16000, 64
    bin_hz = sr / fft
    tone = np.sin(2 * np.pi * (8 * bin_hz) * np.arange(4000) / sr)
    spec = stft(Waveform(tone), fft, fft, 16)
    mags = np.hypot(spec.re, spec.im)
    interior = mags[3:-3]
    assert np.all(np.argmax(interior, axis=1) == 8)


def test_linearity_of_stft():
    a, b = make_noise(3000, seed=4), make_noise(3000, seed=5)
    sa = stft(a, 64, 64, 16)
    sb = stft(b, 64, 64, 16)
    sab = stft(Waveform(2 * a.samples + b.samples), 64, 64, 16)
    npt.assert_allclose(sab.re, 2 * sa.re + sb.re, atol=1e-10)
    npt.assert_allclose(sab.im, 2 * sa.im + sb.im, atol=1e-10)


def test_istft_non_invertible_window_raises():
    # a Hann window overlap-added once per window length is zero at each frame start
    wf = make_noise(4000)
    spec = stft(wf, 64, 64, 64)
    with pytest.raises(NonInvertibleWindowError):
        istft(spec, len(wf))


def test_invertible_predicts_istft_on_hann_windows():
    # the steady-state rule decides istft's outcome once the signal is
    # longer than the window
    rng = np.random.default_rng(11)
    outcomes = set()
    for win_len in range(1, 25):
        for hop in range(1, win_len + 1):
            wf = Waveform(rng.standard_normal(2 * win_len + 3))
            try:
                istft(stft(wf, win_len, win_len, hop), len(wf))
                ran = True
            except NonInvertibleWindowError:
                ran = False
            assert invertible(win_len, hop) == ran, (win_len, hop)
            outcomes.add(ran)
    assert outcomes == {True, False}


def test_stft_parameter_validation():
    wf = make_noise(1000)
    with pytest.raises(InvalidInputError):
        stft(wf, 64, 128, 16)  # win > fft
    with pytest.raises(InvalidInputError):
        stft(wf, 64, 64, 0)
    with pytest.raises(InvalidInputError):
        stft(wf, 64, 64, 128)  # hop > win
    with pytest.raises(InvalidInputError):
        stft(Waveform(np.zeros(10)), 64, 64, 16)  # too short for padding
    # an array gets the checks a Waveform gets
    with pytest.raises(InvalidInputError, match="non-finite"):
        stft(np.full(1000, np.nan), 64, 64, 16)
    with pytest.raises(InvalidInputError, match="1-D"):
        stft(np.zeros((2, 1000)), 64, 64, 16)
    # each transform size is an int, named when it is not
    for args, match in [((64, 64, 16.5), r"hop must be an int >= 1, got 16\.5"),
                        ((64.0, 64, 16), r"fft_len must be an int >= 1, got 64\.0"),
                        ((64, 32.0, 16), r"win_len must be an int >= 1, got 32\.0")]:
        with pytest.raises(InvalidInputError, match=match):
            stft(wf, *args)
    # invertible answers only for a window and hop of at least one sample
    for args, match in [((64, 0), r"hop must be an int >= 1, got 0"),
                        ((0, 1), r"win_len must be an int >= 1, got 0"),
                        ((64, -3), r"hop must be an int >= 1, got -3")]:
        with pytest.raises(InvalidInputError, match=match):
            invertible(*args)


def test_istft_rejects_an_output_length_that_is_no_count():
    spec = stft(make_noise(1000), 64, 64, 16)
    for out_len in (-1, 2.5):
        with pytest.raises(InvalidInputError, match=r"out_len must be an int >= 0"):
            istft(spec, out_len)
    assert len(istft(spec, 0)) == 0  # consistency_project asks for (frames - 1) * hop


@pytest.mark.parametrize("n,fft_len,win_len,hop", [(1000, 64, 64, 16), (777, 40, 33, 10),
                                                   (50, 8, 7, 3)])
def test_istft_output_is_at_most_the_longest_signal_of_its_frame_count(n, fft_len, win_len, hop):
    spec = stft(make_noise(n), fft_len, win_len, hop)
    longest = spec.frames * hop + win_len - 2 * (win_len // 2) - 1
    assert stft(make_noise(longest), fft_len, win_len, hop).frames == spec.frames
    assert stft(make_noise(longest + 1), fft_len, win_len, hop).frames == spec.frames + 1
    assert len(istft(spec, longest)) == longest
    for out_len in (longest + 1, 10**12):
        with pytest.raises(InvalidInputError, match=f"out_len {out_len} exceeds {longest}"):
            istft(spec, out_len)


def test_hann_window_is_periodic():
    w = hann_window(64)
    assert w[0] == 0.0
    npt.assert_allclose(w[32], 1.0)
    full = hann_window(128)
    npt.assert_allclose(w, full[::2])


# ---------------------------------------------------------------------------
# Polar decomposition

def test_decompose_recompose_roundtrip():
    spec = stft(make_noise(3000, seed=6), 64, 64, 16)
    mag, phase = decompose(spec)
    assert np.all(mag >= 0)
    assert np.all((phase > -np.pi) & (phase <= np.pi))
    back = recompose(spec, mag, phase)
    assert (back.fft_len, back.win_len, back.hop) == (64, 64, 16)
    npt.assert_allclose(back.re, spec.re, atol=1e-12)
    npt.assert_allclose(back.im, spec.im, atol=1e-12)


def test_angle_folds_minus_pi_to_pi():
    im = np.array([-0.0, 0.0, 1.0, -1.0])
    re = np.array([-1.0, -1.0, 0.0, 0.0])
    npt.assert_array_equal(angle(im, re), [np.pi, np.pi, np.pi / 2, -np.pi / 2])


@pytest.mark.parametrize("plane", ["re", "im"])
def test_complex_spec_planes_must_be_real(plane):
    for bad, dtype in [([["x"] * 33] * 4, "<U1"), (np.zeros((4, 33), complex), "complex128")]:
        planes = {"re": np.zeros((4, 33)), "im": np.zeros((4, 33)), plane: bad}
        with pytest.raises(InvalidInputError,
                           match=f"{plane} must hold real numbers, got dtype {dtype}"):
            ComplexSpec(planes["re"], planes["im"], 64, 64, 16)
    ok = np.zeros((4, 33))
    assert getattr(ComplexSpec(ok, ok, 64, 64, 16), plane) is ok


def test_ragged_nested_lists_name_their_field():
    ragged = [[1.0], [1.0, 2.0]]
    with pytest.raises(InvalidInputError, match="samples must be a rectangular array"):
        Waveform(ragged)
    ok = np.zeros((2, 33))
    with pytest.raises(InvalidInputError, match="re must be a rectangular array"):
        ComplexSpec([[0.0] * 33, [0.0] * 32], ok, 64, 64, 16)


def test_complex_spec_shape_validation():
    with pytest.raises(ShapeError):
        ComplexSpec(np.zeros((4, 10)), np.zeros((4, 10)), 64, 64, 16)
    with pytest.raises(ShapeError):
        ComplexSpec(np.zeros((4, 33)), np.zeros((5, 33)), 64, 64, 16)


@pytest.mark.parametrize("fft_len, win_len, hop, match", [
    (14, 20, 7, "hop=7, win_len=20, fft_len=14"),
    (14, 14, 0, "hop must be an int >= 1, got 0"),
    (14, 14, -3, "hop must be an int >= 1, got -3"),
])
def test_complex_spec_rejects_a_transform_istft_cannot_run(fft_len, win_len, hop, match):
    with pytest.raises(InvalidInputError, match=match):
        ComplexSpec(np.zeros((4, 8)), np.zeros((4, 8)), fft_len, win_len, hop)


def test_spectrum_surface_is_pinned():
    # the window is Hann of win_len by construction, so no spectrum carries one
    assert [f.name for f in dataclasses.fields(ComplexSpec)] == [
        "re", "im", "fft_len", "win_len", "hop"]
    assert list(inspect.signature(stft).parameters) == ["x", "fft_len", "win_len", "hop"]
    assert list(inspect.signature(invertible).parameters) == ["win_len", "hop"]
    assert not hasattr(signal, "MagPhase") and not hasattr(lort, "MagPhase")


@pytest.mark.parametrize("t,n,hop", [(9, 64, 16), (9, 70, 16), (5, 33, 33), (1, 64, 16),
                                     (1, 70, 16), (40, 510, 100), (7, 9, 2)])
def test_overlap_add_matches_the_per_frame_loop_bitwise(t, n, hop):
    frames = np.random.default_rng(t * n + hop).standard_normal((t, n)) * 1e3
    got = signal._overlap_add(frames, hop)
    assert got.tobytes() == overlap_add_per_frame(frames, hop).tobytes()
    w = signal.hann_window(n)  # istft's denominator: broadcast window-square frames
    den = np.broadcast_to(w * w, (t, n))
    assert signal._overlap_add(den, hop).tobytes() == overlap_add_per_frame(den, hop).tobytes()


def test_overlap_add_keeps_signed_zeros_of_the_per_frame_loop():
    rng = np.random.default_rng(31)
    frames = rng.choice([-0.0, 0.0, 1.5, -1.5], size=(12, 40))
    frames[:, ::3] = -0.0
    got = signal._overlap_add(frames, 16)
    assert got.tobytes() == overlap_add_per_frame(frames, 16).tobytes()
