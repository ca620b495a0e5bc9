"""Full enhancement network: feature encoder, deformable embedding,
locally refined Taylor transformer stack with one U-resampling level,
magnitude and phase decoders, end-to-end waveform enhancement, and the
metric critic of the adversarial loss terms.

All learnable parameters live in a WeightStore under canonical dotted
paths; the same layer objects drive initialization, parameter counting,
and the forward pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from . import attention as att
from .arrays import FlopMeter, lsigmoid, silu
from .errors import InvalidInputError, InvalidParameterError, ShapeError, WeightLookupError
from .layers import Conv, DenseStack, Layer, Norm, Param, PRelu, init_store, zero_store
from .local_refine import Lrc, lrc_block
from .signal import (OLA_FLOOR, SAMPLE_RATE, ComplexSpec, Waveform, angle, decompose,
                     invertible, istft, recompose, stft)
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
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidParameterError(f"{f.name} must be an int, got {value!r}")
        if self.n_blocks < 1:
            raise InvalidParameterError(f"n_blocks must be >= 1, got {self.n_blocks}")
        if self.channels < 2 or self.channels % 2:
            raise InvalidParameterError(f"channels must be even and >= 2, got {self.channels}")
        if self.block_channel_mult < 1:
            raise InvalidParameterError(
                f"block_channel_mult must be >= 1, got {self.block_channel_mult}"
            )
        if not 1 <= self.hop <= self.win_len <= self.fft_len:
            raise InvalidParameterError(
                f"need 1 <= hop <= win_len <= fft_len, got hop={self.hop}, "
                f"win_len={self.win_len}, fft_len={self.fft_len}"
            )
        if not invertible(self.win_len, self.hop):
            raise InvalidParameterError(
                f"win_len={self.win_len} with hop={self.hop} is not invertible: the "
                f"overlap-added squared Hann window falls below {OLA_FLOOR}"
            )
        if self.block_channels % self.heads:
            raise InvalidParameterError(
                f"block channels {self.block_channels} not divisible by {self.heads} heads"
            )

    def check_rate(self, wave: Waveform) -> None:
        """Reject audio sampled at a rate other than the model's."""
        if wave.sample_rate != self.sample_rate:
            raise InvalidInputError(
                f"input sample rate {wave.sample_rate} Hz does not match the model's "
                f"sample_rate {self.sample_rate} Hz"
            )

    @property
    def freq_bins(self) -> int:
        return self.fft_len // 2 + 1

    @property
    def enc_bins(self) -> int:
        return math.ceil(self.freq_bins / 2)

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
        x = np.pad(x, ((0, 0), (0, 0), (0, pt), (0, pf)))
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
        return self.down_f(ws, self.dense(ws, self.in_conv(ws, x)))


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
        w = ws[self.dw_w.name]
        # one (B*T*F, C) plane of every item's channel vectors, a view of the
        # channels-last map the encoder hands over; a sample at (i, t, f) is
        # row i*T*F + t*F + f
        plane = x.transpose(0, 2, 3, 1).reshape(b * t * f, c)
        items = np.arange(b)[:, None, None] * (t * f)
        gt = np.arange(t, dtype=np.float64)[:, None]
        gf = np.arange(f, dtype=np.float64)
        acc = np.zeros((b * t * f, c))
        # every tap and corner reuses these two buffers (fresh temporaries
        # raised the peak RSS of repeated 8 s forwards by ~5%); `row` is in
        # range, so "clip" only spares `take` its buffered bounds check
        tap = np.empty_like(acc)
        corner = np.empty_like(acc)
        for m in range(k * k):
            a, cc = divmod(m, k)
            pt = gt + (a - 1) + off[:, m, 0]
            pf = gf + (cc - 1) + off[:, m, 1]
            t0 = np.floor(pt).astype(np.int64)
            f0 = np.floor(pf).astype(np.int64)
            wt = pt - t0
            wf = pf - f0
            tap.fill(0.0)
            for dt, dwt in ((0, 1.0 - wt), (1, wt)):
                for df, dwf in ((0, 1.0 - wf), (1, wf)):
                    ti = t0 + dt
                    fi = f0 + df
                    valid = (ti >= 0) & (ti < t) & (fi >= 0) & (fi < f)
                    row = items + np.clip(ti, 0, t - 1) * f + np.clip(fi, 0, f - 1)
                    np.take(plane, row.ravel(), axis=0, out=corner, mode="clip")
                    corner *= (dwt * dwf * valid).reshape(-1, 1)
                    tap += corner
            tap *= w[:, 0, a, cc]
            acc += tap
        # channel-major result: the pointwise conv reads one item without a copy
        out = np.add(acc.T, ws[self.dw_b.name][:, None], order="C")
        return self.pw(ws, out.reshape(c, b, t, f).transpose(1, 0, 2, 3))


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
        x = x + self._attend(ws, y) + att.scea(y, ws, self.scea_ch, self.scea_sp)
        x = x + self.ffn(ws, self.ln2(ws, x))
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

    def param_names(self):
        return [name for name, _, _ in self.manifest()]

    # -- forward ------------------------------------------------------------

    def trunk(self, ws, feat: np.ndarray) -> np.ndarray:
        """Encoder through transformer stack back to (B, C, T, enc_bins)."""
        enc = self.encoder(ws, feat)
        skip = self.embed(ws, enc)
        h = self.down(ws, skip)
        for block in self.blocks:
            h = block(ws, h)
        h = _fit(self.up(ws, h), skip.shape[2], skip.shape[3])
        return h + skip

    def forward(self, noisy: Waveform, ws: WeightStore) -> ForwardResult:
        self.cfg.check_rate(noisy)
        shapes = {name: shape for name, shape, _ in self.manifest()}
        missing = ws.missing(shapes)
        if missing:
            raise WeightLookupError(f"weight store incomplete; missing {_first8(missing)}")
        # a store may also hold the critic, as `lort init-weights` writes it
        unknown = [name for name in ws if name not in shapes and name not in _CRITIC_NAMES]
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
        self.layers = [
            layer for j in range(4) for layer in (
                Conv(f"disc.block{j}.conv", chans[j], chans[j + 1], (3, 3),
                     stride=(2, 2), padding=(1, 1)),
                Norm(f"disc.block{j}.norm", chans[j + 1], "instance"),
                PRelu(f"disc.block{j}.act", chans[j + 1]))
        ]
        self.head = Conv("disc.head", chans[-1], 1, (1, 1))

    def __call__(self, ws, x):
        """Logit per batch item of x, shaped (B, 2, T, F)."""
        for layer in self.layers:
            x = layer(ws, x)
        return self.head(ws, x.mean(axis=(2, 3), keepdims=True))[:, 0, 0, 0]


_CRITIC_NAMES = frozenset(name for name, _, _ in Discriminator().manifest())


# ---------------------------------------------------------------------------
# Module-level conveniences

def build_model(cfg: ModelConfig) -> LortModel:
    return LortModel(cfg)


def init_weights(cfg: ModelConfig, seed: int = 0) -> WeightStore:
    """Freshly initialized generator weights (Gaussian convs, inert offsets)."""
    return init_store(build_model(cfg).manifest(), seed)


def init_discriminator(store: WeightStore, seed: int = 0) -> WeightStore:
    """Add freshly initialized critic weights to `store`."""
    return init_store(Discriminator().manifest(), seed, store)


def zero_weights(cfg: ModelConfig) -> WeightStore:
    """All-zero parameterization (norm gains included), for skeleton tests."""
    return zero_store(build_model(cfg).manifest())


def count_params(cfg: ModelConfig) -> int:
    return sum(int(np.prod(shape)) for _, shape, _ in build_model(cfg).manifest())


def estimate_macs(cfg: ModelConfig, duration_s: float) -> int:
    """Measured multiply-accumulate count of one forward pass."""
    if not 0 <= duration_s < math.inf:
        raise InvalidParameterError(f"duration_s must be finite and >= 0, got {duration_s}")
    n = int(round(duration_s * cfg.sample_rate))
    model = build_model(cfg)
    ws = init_weights(cfg, seed=0)
    wave = Waveform(np.zeros(n), cfg.sample_rate)
    with FlopMeter() as meter:
        model.forward(wave, ws)
    return meter.macs


def estimate_flops(cfg: ModelConfig, duration_s: float) -> int:
    """FLOPs (2 ops per multiply-accumulate) for the given clip duration."""
    return 2 * estimate_macs(cfg, duration_s)


def forward(noisy: Waveform, ws: WeightStore, cfg: ModelConfig) -> ForwardResult:
    return build_model(cfg).forward(noisy, ws)

