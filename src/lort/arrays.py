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
    "same_pad",
    "normalize",
    "prelu",
    "silu",
    "sigmoid",
    "lsigmoid",
    "softmax",
]

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
    """Geometry of one conv2d call. `groups` is 1, or Cin = Cout for a
    depthwise conv at stride 1, not transposed; `out_pad` is for
    transposed convs only and stays below the stride."""

    kernel: tuple[int, int]
    stride: tuple[int, int] = (1, 1)
    dilation: tuple[int, int] = (1, 1)
    groups: int = 1
    padding: tuple[int, int] = (0, 0)
    transposed: bool = False
    out_pad: tuple[int, int] = (0, 0)

    def __post_init__(self) -> None:
        for name, low in (("kernel", 1), ("stride", 1), ("dilation", 1),
                          ("padding", 0), ("out_pad", 0)):
            v = getattr(self, name)
            # type(...) is int: a bool is an int to isinstance
            if not (type(v) is tuple and len(v) == 2 and type(v[0]) is int and type(v[1]) is int):
                raise InvalidSpecError(f"{name} must be a pair of ints, got {v!r}")
            if v[0] < low or v[1] < low:
                raise InvalidSpecError(f"{name} must be >= {low} componentwise, got {v}")
        if type(self.transposed) is not bool:
            raise InvalidSpecError(f"transposed must be a bool, got {self.transposed!r}")
        if not self.transposed and self.out_pad != (0, 0):
            raise InvalidSpecError(f"out_pad must be (0, 0) unless transposed, got {self.out_pad}")
        if self.out_pad[0] >= self.stride[0] or self.out_pad[1] >= self.stride[1]:
            raise InvalidSpecError(
                f"out_pad must be below stride {self.stride} componentwise, got {self.out_pad}")
        if type(self.groups) is not int or self.groups < 1:
            raise InvalidSpecError(f"groups must be an int >= 1, got {self.groups!r}")
        if self.groups > 1 and (self.transposed or self.stride != (1, 1)):
            raise InvalidSpecError(
                f"groups={self.groups} (depthwise) needs stride (1, 1) and no transposition")


def same_pad(kernel: tuple[int, int], dilation: tuple[int, int] = (1, 1)) -> tuple[int, int]:
    """Padding that preserves spatial extent at stride 1 (odd kernels)."""
    return (dilation[0] * (kernel[0] - 1) // 2, dilation[1] * (kernel[1] - 1) // 2)


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
    """Transposed conv: each tap's GEMM is added into a strided view of
    the output, with no zero-stuffed input."""
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


def _conv_strided(x: np.ndarray, w: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Single-group strided correlation: one GEMM per kernel tap over that
    tap's strided view of the padded input."""
    b_, cin, h, wid = x.shape
    cout, (kh, kw) = w.shape[0], spec.kernel
    sh, sw_ = spec.stride
    dh, dw = spec.dilation
    ph, pw = spec.padding
    ho, wo = conv_out_shape((h, wid), spec)
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else x
    taps = np.ascontiguousarray(w.transpose(2, 3, 0, 1)).reshape(kh * kw, cout, cin)
    acc = np.empty((b_, cout, ho * wo), dtype=np.result_type(x, w))
    part = np.empty_like(acc)
    xs = np.empty((b_, cin, ho, wo), dtype=x.dtype)  # one tap's inputs, gathered
    for k, tap in enumerate(taps):
        i, j = divmod(k, kw)
        xs[...] = xp[:, :, i * dh : i * dh + (ho - 1) * sh + 1 : sh,
                     j * dw : j * dw + (wo - 1) * sw_ + 1 : sw_]
        np.matmul(tap, xs.reshape(b_, cin, ho * wo), out=part if k else acc)
        if k:
            acc += part
    return acc.reshape(b_, cout, ho, wo)


def _check_conv(x: np.ndarray, w: np.ndarray, b: np.ndarray | None, spec: ConvSpec) -> int:
    """Validate the operands of one conv2d call; return its MAC count."""
    if x.ndim != 4:
        raise ShapeError(f"conv2d expects a (B, C, H, W) input, got shape {x.shape}")
    if w.ndim != 4 or w.shape[2:] != spec.kernel:
        raise ShapeError(f"weight shape {w.shape} does not match kernel {spec.kernel}")
    g = spec.groups
    cin, cout = (w.shape[0], w.shape[1]) if spec.transposed else (w.shape[1] * g, w.shape[0])
    if g > 1 and not g == cin == cout:
        raise InvalidSpecError(
            f"groups={g} is neither 1 nor depthwise for weight {w.shape} (groups = Cin = Cout)")
    if x.shape[1] != cin:
        raise ShapeError(f"channels {x.shape[1]} inconsistent with weight {w.shape}")
    ho, wo = conv_out_shape(x.shape[2:], spec)
    if b is not None and b.shape != (cout,):
        raise ShapeError(f"bias shape {b.shape} != ({cout},)")
    taps = spec.kernel[0] * spec.kernel[1]
    if spec.transposed:
        return x.size * cout * taps
    return x.shape[0] * cout * ho * wo * w.shape[1] * taps


def _finish(out: np.ndarray, b: np.ndarray | None, macs: int) -> np.ndarray:
    add_macs(macs)
    if b is not None:
        out = out + b.reshape(1, -1, 1, 1)
    return out


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray | None, spec: ConvSpec) -> np.ndarray:
    """2-D cross-correlation with stride, dilation and transposition.

    Plain weights have shape (Cout, Cin/groups, kh, kw); transposed
    weights use (Cin, Cout, kh, kw). `groups` is 1, or Cin = Cout for a
    stride-1 depthwise conv; any other value raises `InvalidSpecError`.
    Every conv runs one GEMM (or, depthwise, one broadcast multiply) per
    kernel tap: stride-1 convs over the flattened padded plane, strided
    convs over each tap's strided view, and transposed convs scattered
    into strided views of the output.
    """
    macs = _check_conv(x, w, b, spec)
    if spec.transposed:
        out = _conv_scatter(x, w, spec)
    elif spec.stride == (1, 1):
        out = _conv_flat(x, w, spec.dilation, spec.padding)
    else:
        out = _conv_strided(x, w, spec)
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


def lsigmoid(x: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Learnable sigmoid 2 * sigma(alpha * x), in (0, 2); alpha is per frequency bin."""
    alpha = np.asarray(alpha)
    if alpha.ndim != 1 or alpha.shape[0] != x.shape[-1]:
        raise ShapeError(
            f"lsigmoid needs one alpha per frequency bin: alpha {alpha.shape}, input {x.shape}"
        )
    return 2.0 * sigmoid(alpha * x)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)
