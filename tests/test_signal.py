import numpy as np
import numpy.testing as npt
import pytest

from lort.errors import (
    InvalidInputError,
    LortError,
    NonInvertibleWindowError,
    WavParseError,
)
from lort.signal import (
    ComplexSpec,
    Waveform,
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
    wf = make_noise(4000)
    spec = stft(wf, 64, 64, 16, window=np.zeros(64))
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
            assert invertible(hann_window(win_len), hop) == ran, (win_len, hop)
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
    mp = decompose(spec)
    assert np.all(mp.mag >= 0)
    assert np.all((mp.phase > -np.pi) & (mp.phase <= np.pi))
    back = recompose(mp)
    npt.assert_allclose(back.re, spec.re, atol=1e-12)
    npt.assert_allclose(back.im, spec.im, atol=1e-12)


def test_complex_spec_shape_validation():
    from lort.errors import ShapeError
    with pytest.raises(ShapeError):
        ComplexSpec(np.zeros((4, 10)), np.zeros((4, 10)), 64, 64, 16, hann_window(64))
    with pytest.raises(ShapeError):
        ComplexSpec(np.zeros((4, 33)), np.zeros((5, 33)), 64, 64, 16, hann_window(64))
