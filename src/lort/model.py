"""Full enhancement network: feature encoder, deformable embedding,
locally refined Taylor transformer stack with one U-resampling level,
magnitude and phase decoders, end-to-end waveform enhancement, and the
metric critic of the adversarial loss terms.

All learnable parameters live in a WeightStore under canonical dotted
paths; the same layer objects drive initialization, parameter counting,
and the forward pass.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import attention as att
from .arrays import FlopMeter, lsigmoid, silu, zero_pad
from .errors import (InvalidInputError, InvalidParameterError, ShapeError, WeightLookupError,
                     check_int)
from .layers import Conv, DenseStack, Layer, Norm, Param, PRelu, init_store, tail, zero_store
from .local_refine import Lrc, lrc_block
from .signal import (OLA_FLOOR, SAMPLE_RATE, ComplexSpec, Waveform, angle, check_stft_sizes,
                     decompose, invertible, istft, recompose, stft)
from .weights import WeightStore

__all__ = [
    "ModelConfig",
    "ForwardResult",
    "LortModel",
    "Discriminator",
    "build_model",
    "init_weights",
    "init_discriminator",
    "count_params",
    "estimate_flops",
    "estimate_macs",
    "forward",
]

@dataclass(frozen=True)
class ModelConfig:
    """Sizes of the network and of its STFT; the class constants hold for every config."""

    n_blocks: int = 4
    channels: int = 16
    fft_len: int = 510
    win_len: int = 510
    hop: int = 100
    block_channel_mult: int = 3

    heads: ClassVar[int] = 4
    densenet_dilations: ClassVar[tuple[int, ...]] = (1, 2, 4, 8)
    sample_rate: ClassVar[int] = SAMPLE_RATE
    loss_weights: ClassVar[tuple[float, ...]] = (0.1, 0.9, 0.3, 0.1, 0.05)

    def __post_init__(self) -> None:
        for name, low in (("n_blocks", 1), ("channels", 2), ("block_channel_mult", 1)):
            check_int(name, getattr(self, name), low, InvalidParameterError)
        if self.channels % 2:
            raise InvalidParameterError(f"channels must be even, got {self.channels}")
        check_stft_sizes(self.fft_len, self.win_len, self.hop, InvalidParameterError)
        if not invertible(self.win_len, self.hop):
            raise InvalidParameterError(
                f"win_len={self.win_len} with hop={self.hop} is not invertible: the "
                f"overlap-added squared Hann window falls below {OLA_FLOOR}"
            )
        if self.block_channels % self.heads:
            raise InvalidParameterError(
                f"block channels {self.block_channels} not divisible by {self.heads} heads"
            )

    @property
    def freq_bins(self) -> int:
        return self.fft_len // 2 + 1

    @property
    def block_channels(self) -> int:
        return self.channels * self.block_channel_mult


@dataclass
class ForwardResult:
    wave: Waveform
    spec: ComplexSpec
    mask: np.ndarray
    phase: np.ndarray


def _fit(x: np.ndarray, t: int, f: int) -> np.ndarray:
    """Crop or zero-pad trailing rows/cols to the target (T, F) extents."""
    x = x[:, :, :t, :f]
    pt, pf = t - x.shape[2], f - x.shape[3]
    if pt or pf:
        x = zero_pad(x, (0, pt), (0, pf))
    return x


def _first8(names) -> str:
    return f"{names[:8]}" + ("..." if len(names) > 8 else "")


# ---------------------------------------------------------------------------
# Composites

def dilated_dense(prefix, channels, dilations) -> DenseStack:
    """Densely connected dilated 3x3 convolution stack (C channels kept)."""
    c = channels
    return DenseStack(
        (Conv(f"{prefix}.layer{j}.conv", c * (j + 1), c, (3, 3), dilation=(d, d)),
         Norm(f"{prefix}.layer{j}.norm", c, "instance"),
         PRelu(f"{prefix}.layer{j}.act", c))
        for j, d in enumerate(dilations)
    )


class Encoder(Layer):
    def __init__(self, cfg: ModelConfig):
        c = cfg.channels
        self.in_conv = Conv("encoder.in_conv", 2, c, (1, 1))
        self.dense = dilated_dense("encoder.dense", c, cfg.densenet_dilations)
        self.down_f = Conv("encoder.down_f", c, c, (1, 3), stride=(1, 2), padding=(0, 1))

    def __call__(self, ws, x):
        # the stack runs the 1x1 stem, so only its buffer keeps the stem's output
        return self.down_f(ws, self.dense(ws, x, stem=self.in_conv))


# Cap on elements of one row block of the deformable embed's sampling.
_EMBED_BLOCK_ELEMS = 1 << 15
# Bound on a sampling offset's magnitude, in pixels: past it the sample
# position's floor could not be cast to an int64 index.
_MAX_OFFSET = 2.0 ** 62


class Dsdcn(Layer):
    """Depthwise-separable convolution with learned bilinear sampling offsets.

    Each 3x3 depthwise tap samples its channel at the tap's grid position
    plus a learned (t, f) offset, bilinearly, with zeros outside the plane.
    """

    K = 3

    def __init__(self, prefix, channels):
        k = self.K
        self.offset = Conv(f"{prefix}.offset", channels, 2 * k * k, (3, 3), init="zeros")
        self.dw_w = Param(f"{prefix}.depthwise.w", (channels, 1, k, k), "gauss")
        self.dw_b = Param(f"{prefix}.depthwise.b", (channels,), "zeros")
        self.pw = Conv(f"{prefix}.pointwise", channels, channels, (1, 1))

    def __call__(self, ws, x):
        b, c, t, f = x.shape
        k = self.K
        off = self.offset(ws, x).reshape(b, k * k, 2, t, f)
        lo, hi = off.min(), off.max()  # a NaN anywhere makes both NaN
        if not (-_MAX_OFFSET < lo and hi < _MAX_OFFSET):
            raise InvalidInputError(
                f"{self.offset.name} gives sampling offsets in [{lo}, {hi}]: each must be "
                f"finite and below {_MAX_OFFSET:.0e} pixels in magnitude")
        w = ws[self.dw_w.name]
        bias = ws[self.dw_b.name][:, None]
        # the map arrives channel-major; one contiguous copy makes it a
        # (B*T*F, C) plane of channel vectors, so a sample at (i, t, f) is the
        # one row i*T*F + t*F + f
        plane = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(b * t * f, c)
        # channel-major result: the pointwise conv reads one item without a copy
        out = np.empty((c, b * t * f), dtype=np.result_type(x, w, bias))
        # row blocks of whole time rows of one item; their accumulator, tap
        # sum and gathered corner stay in cache across the taps
        step = max(1, _EMBED_BLOCK_ELEMS // (f * c))
        acc_buf = np.empty((min(step, t) * f, c), dtype=np.result_type(x, w))
        tap_buf = np.empty_like(acc_buf)
        corner_buf = np.empty_like(acc_buf)
        gt = np.arange(t, dtype=off.dtype)[:, None]
        gf = np.arange(f, dtype=off.dtype)
        for i, s0 in itertools.product(range(b), range(0, t, step)):
            s1 = min(s0 + step, t)
            n = (s1 - s0) * f
            acc, tap, corner = acc_buf[:n], tap_buf[:n], corner_buf[:n]
            acc.fill(0.0)
            for m in range(k * k):
                a, cc = divmod(m, k)
                pt = gt[s0:s1] + (a - 1) + off[i, m, 0, s0:s1]
                pf = gf + (cc - 1) + off[i, m, 1, s0:s1]
                t0 = np.floor(pt).astype(np.int64)
                f0 = np.floor(pf).astype(np.int64)
                wt = pt - t0
                wf = pf - f0
                # per axis and corner side: the clipped row part and the
                # weight, zero out of range; a corner's row and weight are
                # their sums and products
                rows_t, wts_t = _axis_taps(t0, wt, t)
                rows_f, wts_f = _axis_taps(f0, wf, f)
                rows_t = [i * t * f + r * f for r in rows_t]
                # every row is clipped into range, so "clip" only spares
                # `take` its buffered bounds check
                tap.fill(0.0)
                for rt, wtt in zip(rows_t, wts_t):
                    for rf, wtf in zip(rows_f, wts_f):
                        np.take(plane, (rt + rf).ravel(), axis=0, out=corner, mode="clip")
                        corner *= (wtt * wtf).reshape(-1, 1)
                        tap += corner
                tap *= w[:, 0, a, cc]
                acc += tap
            r0 = (i * t + s0) * f
            np.add(acc.T, bias, out=out[:, r0 : r0 + n])
        del plane, off
        return self.pw(ws, out.reshape(c, b, t, f).transpose(1, 0, 2, 3))


def _axis_taps(i0, frac, n):
    """Clipped indices and weights of the two bilinear neighbours i0 and
    i0 + 1 along an axis of n samples: weights 1 - frac and frac, times
    whether the neighbour lies in [0, n)."""
    rows, wts = [], []
    for d, wd in ((0, 1.0 - frac), (1, frac)):
        i = i0 + d
        rows.append(np.minimum(np.maximum(i, 0), n - 1))
        wts.append(wd * ((i >= 0) & (i < n)))
    return rows, wts


class Ffn(Layer):
    def __init__(self, prefix, channels):
        self.expand = Conv(f"{prefix}.expand", channels, 2 * channels, (1, 1))
        self.project = Conv(f"{prefix}.project", 2 * channels, channels, (1, 1))

    def __call__(self, ws, x):
        return self.project(ws, silu(self.expand(ws, x)))


class Lrtt(Layer):
    """One locally refined Taylor transformer block."""

    def __init__(self, prefix, cfg: ModelConfig):
        c = cfg.block_channels
        self.heads = cfg.heads
        self.ln1 = Norm(f"{prefix}.ln1", c, "layer")
        self.q, self.k, self.v, self.out = (Conv(f"{prefix}.tmsa.{n}", c, c, (1, 1))
                                            for n in ("q", "k", "v", "out"))
        self.msar_local = Conv(f"{prefix}.msar.local", c, c, (3, 3), groups=c, init="zeros")
        self.msar_gate = Conv(f"{prefix}.msar.gate", 2 * c, c, (1, 1), init="zeros")
        self.scea_ch = Conv(f"{prefix}.scea.ch", 1, 1, (3, 1), padding=(1, 0))
        self.scea_sp = Conv(f"{prefix}.scea.sp", 2, 1, (5, 5))
        self.ln2 = Norm(f"{prefix}.ln2", c, "layer")
        self.ffn = Ffn(f"{prefix}.ffn", c)
        self.lrc = Lrc(f"{prefix}.lrc", c)

    def _attend(self, ws, y):
        b, c, t, f = y.shape
        qm, km, vm = self.q(ws, y), self.k(ws, y), self.v(ws, y)

        def heads(m):
            # (B, C, T, F) -> (B*H, T*F, C/H), head-major channel layout
            return m.reshape(b * self.heads, c // self.heads, t * f).transpose(0, 2, 1)

        vp = att.taylor_attention(att.AttentionInput(heads(qm), heads(km), heads(vm)))
        vp = vp.transpose(0, 2, 1).reshape(b, c, t, f)
        return self.out(ws, att.msar_correct(qm, km, vm, vp, ws, self.msar_local,
                                             self.msar_gate))

    def __call__(self, ws, x):
        y = self.ln1(ws, x)
        x = x + self._attend(ws, y)
        x += att.scea(y, ws, self.scea_ch, self.scea_sp)
        x += self.ffn(ws, self.ln2(ws, x))
        return lrc_block(self.lrc, ws, x)


class Decoder(Layer):
    """Shared decoder trunk: dilated dense stack then frequency upsampling."""

    def __init__(self, prefix, cfg: ModelConfig):
        c = cfg.channels
        self.dense = dilated_dense(f"{prefix}.dense", c, cfg.densenet_dilations)
        self.up_f = Conv(f"{prefix}.up_f", c, c, (1, 3), stride=(1, 2),
                         padding=(0, 1), out_pad=(0, 1), transposed=True)

    def __call__(self, ws, x):
        return self.up_f(ws, self.dense(ws, x))


class MagDecoder(Decoder):
    def __init__(self, cfg: ModelConfig):
        super().__init__("mag_decoder", cfg)
        self.out = Conv("mag_decoder.out", cfg.channels, 1, (1, 1))
        self.alpha = Param("mag_decoder.lsigmoid.alpha", (cfg.freq_bins,), "ones")

    def mask(self, ws, x, t, f):
        logits = _fit(self.out(ws, super().__call__(ws, x)), t, f)
        return lsigmoid(logits[:, 0], ws[self.alpha.name])


class PhaseDecoder(Decoder):
    def __init__(self, cfg: ModelConfig):
        super().__init__("phase_decoder", cfg)
        self.out_r = Conv("phase_decoder.out_r", cfg.channels, 1, (1, 1))
        self.out_i = Conv("phase_decoder.out_i", cfg.channels, 1, (1, 1))

    def phase(self, ws, x, t, f):
        trunk = super().__call__(ws, x)
        r = _fit(self.out_r(ws, trunk), t, f)[:, 0]
        i = _fit(self.out_i(ws, trunk), t, f)[:, 0]
        return angle(i, r)


class LortModel(Layer):
    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        c, cb = cfg.channels, cfg.block_channels
        self.encoder = Encoder(cfg)
        self.embed = Dsdcn("embed", c)
        self.down = Conv("down", c, cb, (2, 2), stride=(2, 2), padding=(0, 0))
        self.blocks = [Lrtt(f"block{i}", cfg) for i in range(cfg.n_blocks)]
        self.up = Conv("up", cb, c, (2, 2), stride=(2, 2), padding=(0, 0), transposed=True)
        self.mag_dec = MagDecoder(cfg)
        self.phase_dec = PhaseDecoder(cfg)
        self.shapes = {name: shape for name, shape, _ in self.manifest()}

    def param_names(self):
        return list(self.shapes)

    # -- forward ------------------------------------------------------------

    def trunk(self, ws, feat: np.ndarray) -> np.ndarray:
        """Encoder through transformer stack back to (B, C, T, ceil(F / 2))."""
        skip = self.embed(ws, self.encoder(ws, feat))
        h = self.down(ws, skip)
        for block in self.blocks:
            h = block(ws, h)
        h = _fit(self.up(ws, h), skip.shape[2], skip.shape[3])
        return h + skip

    def forward(self, noisy: Waveform, ws: WeightStore) -> ForwardResult:
        if not isinstance(ws, WeightStore):
            raise WeightLookupError(f"ws must be a WeightStore, got {type(ws).__name__}")
        shapes = self.shapes
        missing = ws.missing(shapes)
        if missing:
            raise WeightLookupError(f"weight store incomplete; missing {_first8(missing)}")
        unknown = [name for name in ws if name not in shapes]
        if unknown:
            raise WeightLookupError(f"weight store holds tensors no layer of this config "
                                    f"declares: {_first8(unknown)}")
        for name, shape in shapes.items():
            if ws[name].shape != shape:
                raise ShapeError(f"weight {name!r} has shape {ws[name].shape}; this config "
                                 f"expects {shape}")
        cfg = self.cfg
        spec = stft(noisy, cfg.fft_len, cfg.win_len, cfg.hop)
        mag, noisy_phase = decompose(spec)
        t, f = spec.re.shape
        h = self.trunk(ws, np.stack([mag, noisy_phase])[None])
        mask = self.mag_dec.mask(ws, h, t, f)[0]
        phase = self.phase_dec.phase(ws, h, t, f)[0]
        out_spec = recompose(spec, mask * mag, phase)
        wave = istft(out_spec, len(noisy))
        return ForwardResult(wave=wave, spec=out_spec, mask=mask, phase=phase)


class Discriminator(Layer):
    """Metric critic: four strided conv/norm/PReLU blocks over the stacked
    (reference, estimate) magnitudes, mean-pooled into a 1x1 conv head."""

    def __init__(self):
        chans = (2, 16, 32, 32, 32)
        self.blocks = [
            (Conv(f"disc.block{j}.conv", chans[j], chans[j + 1], (3, 3),
                  stride=(2, 2), padding=(1, 1)),
             Norm(f"disc.block{j}.norm", chans[j + 1], "instance"),
             PRelu(f"disc.block{j}.act", chans[j + 1]))
            for j in range(4)
        ]
        self.head = Conv("disc.head", chans[-1], 1, (1, 1))

    def __call__(self, ws, x):
        """Logit per batch item of x, shaped (B, 2, T, F)."""
        for conv, *epilogues in self.blocks:
            x = tail(ws, epilogues, conv(ws, x))
        return self.head(ws, x.mean(axis=(2, 3), keepdims=True))[:, 0, 0, 0]


# the one critic tree, built at import, as build_model builds each model once
CRITIC = Discriminator()


# ---------------------------------------------------------------------------
# Module-level conveniences

@functools.lru_cache(maxsize=8)
def build_model(cfg: ModelConfig) -> LortModel:
    """The model of `cfg`, built once per config: nothing mutates a model."""
    return LortModel(cfg)


def init_weights(cfg: ModelConfig, seed: int = 0) -> WeightStore:
    """Freshly initialized generator weights (Gaussian convs, inert offsets)."""
    return init_store(build_model(cfg).manifest(), seed)


def init_discriminator(store: WeightStore, seed: int = 0) -> WeightStore:
    """Add freshly initialized critic weights to `store`."""
    return init_store(CRITIC.manifest(), seed, store)


def zero_weights(cfg: ModelConfig) -> WeightStore:
    """All-zero parameterization (norm gains included), for skeleton tests."""
    return zero_store(build_model(cfg).manifest())


def count_params(cfg: ModelConfig) -> int:
    return sum(int(np.prod(shape)) for _, shape, _ in build_model(cfg).manifest())


def estimate_macs(cfg: ModelConfig, duration_s: float) -> int:
    """Measured multiply-accumulate count of one forward pass."""
    n = int(round(duration_s * cfg.sample_rate)) if 0 <= duration_s < math.inf else 0
    if n <= cfg.win_len // 2:  # stft's reflect padding needs more samples than it pads
        raise InvalidParameterError(
            f"duration_s must be finite and hold more than win_len // 2 = {cfg.win_len // 2} "
            f"samples, got {duration_s}")
    wave = Waveform(np.zeros(n), cfg.sample_rate)
    with FlopMeter() as meter:
        forward(wave, init_weights(cfg, seed=0), cfg)
    return meter.macs


def estimate_flops(cfg: ModelConfig, duration_s: float) -> int:
    """FLOPs (2 ops per multiply-accumulate) for the given clip duration."""
    return 2 * estimate_macs(cfg, duration_s)


def forward(noisy: Waveform, ws: WeightStore, cfg: ModelConfig) -> ForwardResult:
    return build_model(cfg).forward(noisy, ws)

