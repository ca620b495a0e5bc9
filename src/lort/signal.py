"""WAV ingestion/emission and the STFT / iSTFT analysis-synthesis pipeline.

The transform uses center padding (reflect, win_len // 2 per side), a
periodic Hann window of win_len samples (the only window; every transform
builds it from win_len), and weighted overlap-add with window-square
normalization on the synthesis side.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    InvalidInputError,
    NonInvertibleWindowError,
    ShapeError,
    WavParseError,
    as_float64,
    check_int,
)

__all__ = [
    "Waveform",
    "ComplexSpec",
    "read_wav",
    "write_wav",
    "hann_window",
    "check_stft_sizes",
    "stft",
    "istft",
    "invertible",
    "angle",
    "decompose",
    "recompose",
    "snr_db",
]


SAMPLE_RATE = 16000  # the one rate a Waveform holds, and its default


@dataclass
class Waveform:
    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self) -> None:
        self.samples = as_float64("samples", self.samples)
        if self.samples.ndim != 1:
            raise InvalidInputError(f"waveform must be 1-D, got shape {self.samples.shape}")
        if not np.all(np.isfinite(self.samples)):
            raise InvalidInputError("waveform contains non-finite samples")
        check_int("sample_rate", self.sample_rate, 1, InvalidInputError)
        if self.sample_rate != SAMPLE_RATE:
            raise InvalidInputError(f"sample_rate {self.sample_rate} Hz is not the "
                                    f"{SAMPLE_RATE} Hz the model runs at")

    def __len__(self) -> int:
        return self.samples.shape[0]


@dataclass
class ComplexSpec:
    """One-sided complex spectrogram: real/imag planes of shape (T, F) of the
    Hann-windowed transform (fft_len, win_len, hop), checked as `stft` checks it."""

    re: np.ndarray
    im: np.ndarray
    fft_len: int
    win_len: int
    hop: int

    def __post_init__(self) -> None:
        check_stft_sizes(self.fft_len, self.win_len, self.hop, InvalidInputError)
        self.re = as_float64("re", self.re)
        self.im = as_float64("im", self.im)
        if self.re.shape != self.im.shape or self.re.ndim != 2:
            raise ShapeError(f"re/im must share a (T, F) shape, got {self.re.shape} / {self.im.shape}")
        if self.re.shape[1] != self.fft_len // 2 + 1:
            raise ShapeError(
                f"F={self.re.shape[1]} inconsistent with one-sided fft_len={self.fft_len}"
            )

    @property
    def frames(self) -> int:
        return self.re.shape[0]


# ---------------------------------------------------------------------------
# WAV (RIFF, PCM16 mono little-endian)

def read_wav(data: bytes) -> Waveform:
    """Parse a RIFF/WAVE PCM16 mono byte stream into a Waveform."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise WavParseError(
            f"read_wav expects bytes, bytearray or memoryview, got {type(data).__name__}")
    data = bytes(data)  # a view's fields then print as bytes, and it counts bytes, not items
    if len(data) < 12 or data[:4] != b"RIFF":
        raise WavParseError("missing RIFF magic in chunk id")
    if data[8:12] != b"WAVE":
        raise WavParseError(f"RIFF form type is {data[8:12]!r}, expected b'WAVE'")
    pos = 12
    rate = None  # set by the fmt chunk
    pcm = None
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise WavParseError(f"chunk {cid!r} truncated: declared {size}, got {len(body)} bytes")
        if (cid == b"fmt " and rate is not None) or (cid == b"data" and pcm is not None):
            raise WavParseError(f"repeated chunk {cid!r} at byte {pos}")
        if cid == b"fmt ":
            if size < 16:
                raise WavParseError(f"fmt chunk too short ({size} bytes)")
            codec, channels, rate, _byte_rate, _align, bits = struct.unpack_from("<HHIIHH", body, 0)
            if codec != 1:
                raise WavParseError(f"unsupported codec: wFormatTag={codec}, only PCM (1) supported")
            if channels != 1:
                raise WavParseError(f"unsupported channel count: nChannels={channels}, mono required")
            if bits != 16:
                raise WavParseError(f"unsupported sample width: wBitsPerSample={bits}, 16 required")
        elif cid == b"data":
            if rate is None:
                raise WavParseError("data chunk precedes fmt chunk")
            if size % 2:
                raise WavParseError(f"data chunk size {size} is not a multiple of the sample width")
            pcm = np.frombuffer(body, dtype="<i2")
        pos += 8 + size + (size & 1)
    if rate is None:
        raise WavParseError("missing fmt chunk")
    if pcm is None:
        raise WavParseError("missing data chunk")
    return Waveform(pcm.astype(np.float64) / 32768.0, rate)


_U32 = 2**32 - 1


def write_wav(wf: Waveform) -> bytes:
    """Serialize a Waveform as a canonical 44-byte-header PCM16 mono file."""
    # the header's RIFF size field is 32-bit
    if 36 + 2 * len(wf) > _U32:
        raise InvalidInputError(
            f"{len(wf)} samples are too many for one WAV file: the RIFF size field "
            f"36 + 2 * samples must fit in 32 bits")
    pcm = np.clip(np.rint(wf.samples * 32768.0), -32768, 32767).astype("<i2")
    data = pcm.tobytes()
    hdr = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(data),
        b"WAVE",
        b"fmt ",
        16,
        1,
        1,
        wf.sample_rate,
        wf.sample_rate * 2,
        2,
        16,
        b"data",
        len(data),
    )
    return hdr + data


# ---------------------------------------------------------------------------
# STFT / iSTFT

# smallest overlap-added squared-window sum that istft divides by
OLA_FLOOR = 1e-8


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann window of length n."""
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))


def check_stft_sizes(fft_len: int, win_len: int, hop: int, error) -> None:
    """Raise `error` unless the sizes are ints with 1 <= hop <= win_len <= fft_len."""
    for name, value in (("fft_len", fft_len), ("win_len", win_len), ("hop", hop)):
        check_int(name, value, 1, error)
    if not hop <= win_len <= fft_len:
        raise error(f"need 1 <= hop <= win_len <= fft_len, got hop={hop}, "
                    f"win_len={win_len}, fft_len={fft_len}")


def stft(x: Waveform, fft_len: int, win_len: int, hop: int) -> ComplexSpec:
    """One-sided STFT with reflect center padding of win_len // 2 per side."""
    check_stft_sizes(fft_len, win_len, hop, InvalidInputError)
    s = (x if isinstance(x, Waveform) else Waveform(x)).samples
    if s.size == 0:
        raise InvalidInputError("cannot transform an empty signal")
    pad = win_len // 2
    if pad >= s.size:
        raise InvalidInputError(
            f"signal of {s.size} samples too short for reflect padding of {pad}"
        )
    # 2 * pad >= win_len - 1 and the signal is non-empty, so at least one frame fits
    sp = np.pad(s, (pad, pad), mode="reflect")
    starts = hop * np.arange((sp.size - win_len) // hop + 1)
    frames = sp[starts[:, None] + np.arange(win_len)]
    spec = np.fft.rfft(frames * hann_window(win_len), n=fft_len, axis=1)
    return ComplexSpec(spec.real, spec.imag, fft_len, win_len, hop)


def _overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    """Sum of the rows of `frames`, row m shifted by m * hop samples.

    The output is read as rows of `hop` samples: column slab s of the
    frames (columns s*hop up to (s+1)*hop, a view) lands on rows s to
    s + t - 1, so k = ceil(n / hop) slab adds replace t frame adds. Slabs
    go from k - 1 down to 0, so each sample sums its frames from row 0
    up, in the order of a per-frame loop, bit for bit.
    """
    t, n = frames.shape
    k = -(-n // hop)
    out = np.zeros((t + k - 1, hop))
    for s in range(k - 1, -1, -1):
        slab = frames[:, s * hop : (s + 1) * hop]
        out[s : s + t, : slab.shape[1]] += slab
    return out.reshape(-1)[: (t - 1) * hop + n]


def invertible(win_len: int, hop: int) -> bool:
    """Whether `istft` can divide by the squared Hann window overlap-added
    every `hop` samples: its minimum over one steady-state hop period must
    reach OLA_FLOOR. This decides `istft`'s outcome on any signal longer
    than the window."""
    check_int("win_len", win_len, 1, InvalidInputError)
    check_int("hop", hop, 1, InvalidInputError)
    window = hann_window(win_len)
    k = -(-win_len // hop)  # frames over one window; frame k-1 starts the steady state
    den = _overlap_add(np.tile(window * window, (k, 1)), hop)
    return bool(den[(k - 1) * hop : k * hop].min() >= OLA_FLOOR)


def istft(spec: ComplexSpec, out_len: int) -> Waveform:
    """Weighted overlap-add inverse with window-square normalization, `out_len`
    samples long: at most the longest signal whose `stft` has `spec.frames` frames."""
    check_int("out_len", out_len, 0, InvalidInputError)
    longest = spec.frames * spec.hop + spec.win_len - 2 * (spec.win_len // 2) - 1
    if out_len > longest:
        raise InvalidInputError(f"out_len {out_len} exceeds {longest}, the longest signal "
                                f"whose stft has {spec.frames} frames")
    w = hann_window(spec.win_len)
    frames = np.fft.irfft(spec.re + 1j * spec.im, n=spec.fft_len, axis=1)[:, : spec.win_len]
    frames = frames * w
    num = _overlap_add(frames, spec.hop)
    den = _overlap_add(np.broadcast_to(w * w, frames.shape), spec.hop)
    pad = spec.win_len // 2
    keep = slice(pad, min(pad + out_len, num.size))
    if np.any(den[keep] < OLA_FLOOR):
        raise NonInvertibleWindowError(
            "overlap-add normalization below 1e-8; window/hop pair is not invertible"
        )
    y = np.zeros(out_len)
    seg = num[keep] / den[keep]
    y[: seg.size] = seg
    return Waveform(y)


# ---------------------------------------------------------------------------
# Polar decomposition

def angle(im: np.ndarray, re: np.ndarray) -> np.ndarray:
    """atan2(im, re) folded into (-pi, pi]: -pi reads as pi."""
    phase = np.arctan2(im, re)
    return np.where(phase <= -np.pi, np.pi, phase)


def decompose(spec: ComplexSpec) -> tuple[np.ndarray, np.ndarray]:
    """Magnitude sqrt(re^2 + im^2) and phase `angle(im, re)` planes."""
    return np.hypot(spec.re, spec.im), angle(spec.im, spec.re)


def recompose(spec: ComplexSpec, mag: np.ndarray, phase: np.ndarray) -> ComplexSpec:
    """The spectrum of `spec`'s transform with the given magnitude and phase."""
    return replace(spec, re=mag * np.cos(phase), im=mag * np.sin(phase))


def snr_db(ref: np.ndarray, est: np.ndarray) -> float:
    """Reconstruction SNR in dB of `est` against `ref`."""
    ref = np.asarray(ref, dtype=np.float64)
    est = np.asarray(est, dtype=np.float64)
    err = np.sum((ref - est) ** 2)
    if err == 0:
        return np.inf
    return 10.0 * np.log10(np.sum(ref**2) / err)
