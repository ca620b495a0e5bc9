"""Dense-array numeric kernel: convolutions, normalization, activations.

Everything operates on plain numpy arrays (rank <= 4, row-major). All
functions are pure; verification paths run in float64.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, InvalidSpecError, ShapeError

__all__ = [
    "ConvSpec",
    "FlopMeter",
    "add_macs",
    "conv2d",
    "conv2d_reference",
    "same_pad",
    "normalize",
    "prelu",
    "silu",
    "sigmoid",
    "lsigmoid",
    "softmax",
]

# Cap on elements of a single im2col temporary (keeps peak memory bounded).
_CHUNK_ELEMS = 8_000_000
# Cap on elements of one per-tap product in the flat-plane conv path.
_TAP_ELEMS = 1 << 18


# ---------------------------------------------------------------------------
# FLOP accounting

_active_meters: list["FlopMeter"] = []


class FlopMeter:
    """Context manager accumulating multiply-accumulate counts."""

    def __init__(self) -> None:
        self.macs = 0

    def __enter__(self) -> "FlopMeter":
        _active_meters.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _active_meters.remove(self)

    @property
    def flops(self) -> int:
        """FLOPs under the 2-ops-per-MAC convention."""
        return 2 * self.macs


def add_macs(n: int) -> None:
    for m in _active_meters:
        m.macs += int(n)


# ---------------------------------------------------------------------------
# Convolution

@dataclass(frozen=True)
class ConvSpec:
    kernel: tuple[int, int]
    stride: tuple[int, int] = (1, 1)
    dilation: tuple[int, int] = (1, 1)
    groups: int = 1
    padding: tuple[int, int] = (0, 0)
    transposed: bool = False
    out_pad: tuple[int, int] = (0, 0)

    def __post_init__(self) -> None:
        if min(self.kernel) < 1 or min(self.stride) < 1:
            raise InvalidSpecError(f"kernel/stride must be >= 1, got {self}")
        if min(self.dilation) < 1:
            raise InvalidSpecError(f"dilation must be >= 1 componentwise, got {self.dilation}")
        if self.groups < 1:
            raise InvalidSpecError(f"groups must be positive, got {self.groups}")
        if min(self.padding) < 0 or min(self.out_pad) < 0:
            raise InvalidSpecError(f"padding must be non-negative, got {self}")


def same_pad(kernel: tuple[int, int], dilation: tuple[int, int] = (1, 1)) -> tuple[int, int]:
    """Padding that preserves spatial extent at stride 1 (odd kernels)."""
    return (dilation[0] * (kernel[0] - 1) // 2, dilation[1] * (kernel[1] - 1) // 2)


def _windows(xp: np.ndarray, kernel, stride, dilation) -> np.ndarray:
    """Strided view of shape (B, C, Ho, Wo, kh, kw); no copy."""
    kh, kw = kernel
    dh, dw = dilation
    eh = dh * (kh - 1) + 1
    ew = dw * (kw - 1) + 1
    if xp.shape[2] < eh or xp.shape[3] < ew:
        raise InvalidSpecError(
            f"effective kernel ({eh}, {ew}) exceeds padded input {xp.shape[2:]}"
        )
    sw = np.lib.stride_tricks.sliding_window_view(xp, (eh, ew), axis=(2, 3))
    return sw[:, :, :: stride[0], :: stride[1], ::dh, ::dw]


def _conv_group(x: np.ndarray, w: np.ndarray, stride, dilation, padding) -> np.ndarray:
    """Single-group cross-correlation via chunked window contraction."""
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else x
    win = _windows(xp, w.shape[2:], stride, dilation)
    b_, c, ho, wo, kh, kw = win.shape
    out = np.empty((b_, ho, wo, w.shape[0]), dtype=x.dtype)
    row_elems = max(1, b_ * wo * c * kh * kw)
    step = max(1, _CHUNK_ELEMS // row_elems)
    for h0 in range(0, ho, step):
        h1 = min(h0 + step, ho)
        block = win[:, :, h0:h1]
        out[:, h0:h1] = np.tensordot(block, w, axes=([1, 4, 5], [1, 2, 3]))
    return np.moveaxis(out, 3, 1)


def _conv_windows(x: np.ndarray, w: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Grouped cross-correlation, one window contraction per group."""
    g = spec.groups
    if g == 1:
        return _conv_group(x, w, spec.stride, spec.dilation, spec.padding)
    cin_g, cout_g = w.shape[1], w.shape[0] // g
    parts = [
        _conv_group(
            x[:, i * cin_g : (i + 1) * cin_g],
            w[i * cout_g : (i + 1) * cout_g],
            spec.stride,
            spec.dilation,
            spec.padding,
        )
        for i in range(g)
    ]
    return np.concatenate(parts, axis=1)


def _conv_zero_stuffed(x: np.ndarray, w: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Transposed conv as a stride-1 correlation of the zero-stuffed input
    with the flipped kernel, one group at a time."""
    g = spec.groups
    cin_g = w.shape[0] // g
    sh, sw_ = spec.stride
    dh, dw = spec.dilation
    kh, kw = spec.kernel
    parts = []
    for i in range(g):
        xg = x[:, i * cin_g : (i + 1) * cin_g]
        wg = w[i * cin_g : (i + 1) * cin_g]
        b_, c, h, wid = xg.shape
        xi = np.zeros(
            (b_, c, (h - 1) * sh + 1 + spec.out_pad[0], (wid - 1) * sw_ + 1 + spec.out_pad[1]),
            dtype=x.dtype,
        )
        xi[:, :, :: sh, :: sw_][:, :, :h, :wid] = xg
        # gradient-of-conv form: full correlation with the flipped kernel
        pe_h = dh * (kh - 1) - spec.padding[0]
        pe_w = dw * (kw - 1) - spec.padding[1]
        wf = wg[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        out = _conv_group(
            np.pad(
                xi,
                (
                    (0, 0),
                    (0, 0),
                    (max(pe_h, 0), max(pe_h, 0)),
                    (max(pe_w, 0), max(pe_w, 0)),
                ),
            ),
            wf,
            (1, 1),
            spec.dilation,
            (0, 0),
        )
        ch = max(-pe_h, 0)
        cw = max(-pe_w, 0)
        if ch or cw:
            out = out[:, :, ch : out.shape[2] - ch or None, cw : out.shape[3] - cw or None]
        parts.append(out)
    return np.concatenate(parts, axis=1) if g > 1 else parts[0]


def _conv_flat(x: np.ndarray, w: np.ndarray, dilation, padding) -> np.ndarray:
    """Stride-1 dense or depthwise correlation, accumulated per kernel tap
    over the flattened padded plane.

    With the padded input flattened to (B, Cin, Hp*Wp), the window of tap
    (i, j) for every output position is the one contiguous slice starting at
    i*dh*Wp + j*dw, so each tap is a single GEMM (dense) or broadcast
    multiply (depthwise, w of shape (C, 1, kh, kw)) into a (B, Cout, Ho*Wp)
    accumulator whose Wp - Wo pad columns are cropped at the end. Nothing
    is copied but the one padded input.
    """
    kh, kw = w.shape[2:]
    if kh == 1 < kw:
        # A kernel along W only runs on the transposed plane, where the
        # flat layout computes no pad columns.
        out = _conv_flat(x.transpose(0, 1, 3, 2), w.transpose(0, 1, 3, 2),
                         dilation[::-1], padding[::-1])
        return out.transpose(0, 1, 3, 2)
    b_, cin, h, wid = x.shape
    cout = w.shape[0]
    dh, dw = dilation
    ph, pw = padding
    hp, wp = h + 2 * ph, wid + 2 * pw
    ho, wo = hp - dh * (kh - 1), wp - dw * (kw - 1)
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else np.ascontiguousarray(x)
    xf = xp.reshape(b_, cin, hp * wp)
    if w.shape[1] == 1 and cin == cout:
        op = np.multiply
        taps = w.reshape(cout, kh * kw).T[:, :, None]  # (taps, C, 1)
    else:
        op = np.matmul
        taps = np.ascontiguousarray(w.transpose(2, 3, 0, 1)).reshape(kh * kw, cout, cin)
    offsets = [i * dh * wp + j * dw for i in range(kh) for j in range(kw)]
    acc = np.empty((b_, cout, ho * wp), dtype=np.result_type(x, w))
    span = (ho - 1) * wp + wo  # flat extent holding every output position
    # Column chunks keep the per-tap temporary small and the accumulator
    # block cache-resident across taps.
    step = max(1, _TAP_ELEMS // max(1, b_ * cout))
    tmp = np.empty((b_, cout, min(step, span)), dtype=acc.dtype)
    for c0 in range(0, span, step):
        c1 = min(c0 + step, span)
        dst = acc[:, :, c0:c1]
        op(taps[0], xf[:, :, offsets[0] + c0 : offsets[0] + c1], out=dst)
        for tap, off in zip(taps[1:], offsets[1:]):
            part = tmp[:, :, : c1 - c0]
            op(tap, xf[:, :, off + c0 : off + c1], out=part)
            dst += part
    return acc.reshape(b_, cout, ho, wp)[:, :, :, :wo]


def _conv_scatter(x: np.ndarray, w: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Single-group transposed conv: each tap's GEMM is added into a
    strided view of the output, with no zero-stuffed input."""
    b_, cin, h, wid = x.shape
    cout, (kh, kw) = w.shape[1], spec.kernel
    sh, sw_ = spec.stride
    dh, dw = spec.dilation
    ph, pw = spec.padding
    ho, wo = conv_out_shape((h, wid), spec)
    # taps reach (h-1)*sh + dh*(kh-1) + 1 rows; out_pad may reach past them
    full = np.zeros(
        (b_, cout, max((h - 1) * sh + dh * (kh - 1) + 1, ph + ho),
         max((wid - 1) * sw_ + dw * (kw - 1) + 1, pw + wo)),
        dtype=np.result_type(x, w),
    )
    taps = np.ascontiguousarray(w.transpose(2, 3, 1, 0)).reshape(kh * kw, cout, cin)
    xf = np.ascontiguousarray(x).reshape(b_, cin, h * wid)
    part = np.empty((b_, cout, h * wid), dtype=full.dtype)
    for k, tap in enumerate(taps):
        i, j = divmod(k, kw)
        np.matmul(tap, xf, out=part)
        full[:, :, i * dh : i * dh + (h - 1) * sh + 1 : sh,
             j * dw : j * dw + (wid - 1) * sw_ + 1 : sw_] += part.reshape(b_, cout, h, wid)
    return full[:, :, ph : ph + ho, pw : pw + wo]


def _check_conv(x: np.ndarray, w: np.ndarray, b: np.ndarray | None, spec: ConvSpec) -> int:
    """Validate the operands of one conv2d call; return its MAC count."""
    if x.ndim != 4:
        raise ShapeError(f"conv2d expects a (B, C, H, W) input, got shape {x.shape}")
    if w.ndim != 4 or w.shape[2:] != tuple(spec.kernel):
        raise ShapeError(f"weight shape {w.shape} does not match kernel {spec.kernel}")
    g = spec.groups
    if spec.transposed:
        cin, cout_g = w.shape[:2]
        if x.shape[1] != cin or cin % g:
            raise ShapeError(
                f"channels {x.shape[1]} inconsistent with transposed weight {w.shape} and groups {g}"
            )
        cout = cout_g * g
    else:
        cout, cin_g = w.shape[:2]
        if x.shape[1] != cin_g * g or cout % g:
            raise ShapeError(
                f"channels {x.shape[1]} inconsistent with weight {w.shape} and groups {g}"
            )
    ho, wo = conv_out_shape(x.shape[2:], spec)
    if b is not None and b.shape != (cout,):
        raise ShapeError(f"bias shape {b.shape} != ({cout},)")
    taps = spec.kernel[0] * spec.kernel[1]
    if spec.transposed:
        return x.size * cout_g * taps
    return x.shape[0] * cout * ho * wo * cin_g * taps


def _finish(out: np.ndarray, b: np.ndarray | None, macs: int) -> np.ndarray:
    add_macs(macs)
    if b is not None:
        out = out + b.reshape(1, -1, 1, 1)
    return out


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray | None, spec: ConvSpec) -> np.ndarray:
    """2-D cross-correlation with stride, dilation, groups and transposition.

    Plain weights have shape (Cout, Cin/groups, kh, kw); transposed
    weights use (Cin, Cout/groups, kh, kw). Stride-1 dense and depthwise
    convs accumulate per tap over the flattened padded plane; single-group
    transposed convs scatter per-tap GEMMs into the output. Strided and
    other grouped convs take the window path of `conv2d_reference`, which
    every fast path must match.
    """
    macs = _check_conv(x, w, b, spec)
    g = spec.groups
    if spec.transposed:
        out = _conv_scatter(x, w, spec) if g == 1 else _conv_zero_stuffed(x, w, spec)
    elif tuple(spec.stride) == (1, 1) and (g == 1 or g == x.shape[1] == w.shape[0]):
        out = _conv_flat(x, w, spec.dilation, spec.padding)
    else:
        out = _conv_windows(x, w, spec)
    return _finish(out, b, macs)


def conv2d_reference(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                     spec: ConvSpec) -> np.ndarray:
    """Oracle for `conv2d`: window-view (im2col) contraction per group, and
    transposed convs on the zero-stuffed input. Same contract and MAC count."""
    macs = _check_conv(x, w, b, spec)
    out = _conv_zero_stuffed(x, w, spec) if spec.transposed else _conv_windows(x, w, spec)
    return _finish(out, b, macs)


def conv_out_shape(in_shape: tuple[int, int], spec: ConvSpec) -> tuple[int, int]:
    """Spatial output extents for an input of spatial shape (H, W)."""
    out = []
    for i in range(2):
        n, k, s, d, p = in_shape[i], spec.kernel[i], spec.stride[i], spec.dilation[i], spec.padding[i]
        if spec.transposed:
            out.append((n - 1) * s - 2 * p + d * (k - 1) + 1 + spec.out_pad[i])
        else:
            out.append((n + 2 * p - d * (k - 1) - 1) // s + 1)
    if min(out) < 1:
        raise InvalidSpecError(f"zero-sized output {out} for spec {spec}")
    return tuple(out)


# ---------------------------------------------------------------------------
# Normalization

def _bcast(p: np.ndarray, ndim: int) -> np.ndarray:
    """Reshape a per-channel (C,) parameter for (B, C, ...) broadcasting."""
    p = np.asarray(p)
    if p.ndim == 1 and ndim > 2:
        return p.reshape((1, -1) + (1,) * (ndim - 2))
    return p


def normalize(x: np.ndarray, kind: str, gain, shift, eps: float = 1e-5) -> np.ndarray:
    """Layer norm (over all non-batch axes) or instance norm (over T, F)."""
    if eps <= 0:
        raise InvalidParameterError(f"eps must be positive, got {eps}")
    if kind == "layer":
        axes = tuple(range(1, x.ndim))
    elif kind == "instance":
        if x.ndim != 4:
            raise ShapeError(f"instance norm expects (B, C, T, F), got shape {x.shape}")
        axes = (2, 3)
    else:
        raise InvalidParameterError(f"unknown normalization kind {kind!r}")
    # one centring pass serves both moments (x.var would centre again)
    d = x - x.mean(axis=axes, keepdims=True)
    var = np.square(d).mean(axis=axes, keepdims=True)
    d /= np.sqrt(var + eps)
    return d * _bcast(gain, x.ndim) + _bcast(shift, x.ndim)


# ---------------------------------------------------------------------------
# Activations

def sigmoid(x: np.ndarray) -> np.ndarray:
    z = np.asarray(x)
    if z.dtype.kind != "f":
        z = z.astype(np.float64)
    # clip keeps exp finite; saturation is exact at double precision anyway
    z = np.clip(z, -709.0, 709.0)
    return 1.0 / (1.0 + np.exp(-z))


def silu(x: np.ndarray) -> np.ndarray:
    return x * sigmoid(x)


def prelu(x: np.ndarray, a) -> np.ndarray:
    """x for x >= 0, a*x otherwise; `a` scalar or per-channel."""
    a = _bcast(np.asarray(a, dtype=x.dtype), x.ndim)
    return np.where(x >= 0, x, a * x)


def lsigmoid(x: np.ndarray, alpha: np.ndarray, beta: float = 2.0) -> np.ndarray:
    """Learnable sigmoid beta * sigma(alpha * x); alpha is per frequency bin."""
    if beta <= 0:
        raise InvalidParameterError(f"beta must be positive, got {beta}")
    alpha = np.asarray(alpha)
    if alpha.ndim != 1 or alpha.shape[0] != x.shape[-1]:
        raise ShapeError(
            f"lsigmoid needs one alpha per frequency bin: alpha {alpha.shape}, input {x.shape}"
        )
    return beta * sigmoid(alpha * x)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)
