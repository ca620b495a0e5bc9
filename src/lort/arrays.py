"""Dense-array numeric kernel: convolutions, normalization, activations.

Everything operates on plain numpy arrays (rank <= 4, row-major). All
functions are pure and return their operands' promoted dtype: float64 is
set only at the boundary, by `Waveform`, `ComplexSpec` and `WeightStore`.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, InvalidSpecError, ShapeError, check_int

__all__ = [
    "ConvSpec",
    "FlopMeter",
    "add_macs",
    "conv2d",
    "same_pad",
    "zero_pad",
    "normalize",
    "prelu",
    "silu",
    "sigmoid",
    "lsigmoid",
    "softmax",
]

# Cap on elements of one per-tap product in the flat-plane conv path.
_TAP_ELEMS = 1 << 18
# Caps on elements of the row-blocked conv path's input row block, and of
# the product of the row GEMMs it adds into the output tap by tap.
_ROW_BLOCK_ELEMS = 1 << 18
_ROW_PRODUCT_ELEMS = 1 << 16
# Dense multi-tap convs with at least this many Cout·Cin weight pairs per
# tap run row-blocked; narrower ones (every micro_config() conv) run on the
# flat plane, where the row copy would cost more than it saves.
_ROW_MIN_PAIRS = 256


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
        check_int("groups", self.groups, 1, InvalidSpecError)
        if self.groups > 1 and (self.transposed or self.stride != (1, 1)):
            raise InvalidSpecError(
                f"groups={self.groups} (depthwise) needs stride (1, 1) and no transposition")


def same_pad(kernel: tuple[int, int], dilation: tuple[int, int] = (1, 1)) -> tuple[int, int]:
    """Padding that preserves spatial extent at stride 1 (odd kernels)."""
    return (dilation[0] * (kernel[0] - 1) // 2, dilation[1] * (kernel[1] - 1) // 2)


def zero_pad(x: np.ndarray, rows: tuple[int, int], cols: tuple[int, int]) -> np.ndarray:
    """A new (B, C, H + rows[0] + rows[1], W + cols[0] + cols[1]) array
    holding x with `rows` zero rows above and below it and `cols` zero
    columns left and right: the array `np.pad` makes with zeros, without
    its per-call set-up (the four border strips, then the interior)."""
    (top, bottom), (left, right) = rows, cols
    b, c, h, w = x.shape
    out = np.empty((b, c, top + h + bottom, left + w + right), dtype=x.dtype)
    out[:, :, :top] = 0
    out[:, :, top + h :] = 0
    inner = out[:, :, top : top + h]
    inner[..., :left] = 0
    inner[..., left + w :] = 0
    inner[..., left : left + w] = x
    return out


def _acc_dtype(x: np.ndarray, w: np.ndarray, b: np.ndarray | None) -> np.dtype:
    """Dtype of a conv's accumulator: the bias promotes it as `out + b` would."""
    return np.result_type(x, w) if b is None else np.result_type(x, w, b)


def _conv_flat(x: np.ndarray, w: np.ndarray, b: np.ndarray | None, dilation,
               padding) -> np.ndarray:
    """Stride-1 dense or depthwise correlation, accumulated per kernel tap
    over the flattened padded plane.

    With the padded input read as a flat (B, Cin, rows*pitch) plane, where
    `pitch` is the element stride between its rows, the window of tap (i, j)
    for every output position is the one contiguous slice starting at
    i*dh*pitch + j*dw, so each tap is a single GEMM (dense), or per
    channel a scalar multiply (depthwise, w of shape (C, 1, kh, kw)), into
    a (B, Cout, Ho*pitch) accumulator whose pitch - Wo extra columns are
    cropped at the end. At padding 0 an input with unit-stride rows, such
    as a window of a larger zero-bordered buffer, is read in place at that
    buffer's pitch; otherwise the one padded (or contiguous) copy is made.
    """
    kh, kw = w.shape[2:]
    if kh == 1 < kw or kh == kw == 1 and _transposed_view(x):
        # A kernel along W only runs on the transposed plane, where the
        # flat layout computes no pad columns, and a 1x1 conv on the plane
        # a transposed view lies in, which it then reads without a copy.
        out = _conv_flat(x.transpose(0, 1, 3, 2), w.transpose(0, 1, 3, 2), b,
                         dilation[::-1], padding[::-1])
        return out.transpose(0, 1, 3, 2)
    ph, pw = padding
    if ph or pw:
        x = zero_pad(x, (ph, ph), (pw, pw))
    b_, cin, h, wid = x.shape
    item = x.itemsize
    pitch, rem = divmod(x.strides[2], item)
    if x.strides[3] != item or rem or pitch < wid:
        x, pitch = np.ascontiguousarray(x), wid
    xf = np.lib.stride_tricks.as_strided(
        x, (b_, cin, (h - 1) * pitch + wid), (x.strides[0], x.strides[1], item),
        writeable=False)
    cout = w.shape[0]
    dh, dw = dilation
    ho, wo = h - dh * (kh - 1), wid - dw * (kw - 1)
    offsets = [i * dh * pitch + j * dw for i in range(kh) for j in range(kw)]
    acc = np.empty((b_, cout, ho * pitch), dtype=_acc_dtype(x, w, b))
    span = (ho - 1) * pitch + wo  # flat extent holding every output position
    if w.shape[1] == 1 and cin == cout:
        # depthwise: per channel, one scalar multiply and one add per tap,
        # where a (C, 1) weight broadcast over every channel costs ≈4x more
        tmp = np.empty((b_, span), dtype=acc.dtype)
        for c, taps in enumerate(w.reshape(cout, kh * kw)):
            dst = acc[:, c, :span]
            np.multiply(xf[:, c, offsets[0] : offsets[0] + span], taps[0], out=dst)
            for tap, off in zip(taps[1:], offsets[1:]):
                dst += np.multiply(xf[:, c, off : off + span], tap, out=tmp)
            if b is not None:
                dst += b[c]
        return acc.reshape(b_, cout, ho, pitch)[:, :, :, :wo]
    taps = w.transpose(2, 3, 0, 1).reshape(kh * kw, cout, cin)
    # Column chunks keep the per-tap temporary small and the accumulator
    # block cache-resident across taps.
    step = max(1, _TAP_ELEMS // max(1, b_ * cout))
    tmp = np.empty((b_, cout, min(step, span)), dtype=acc.dtype)
    for c0 in range(0, span, step):
        c1 = min(c0 + step, span)
        dst = acc[:, :, c0:c1]
        np.matmul(taps[0], xf[:, :, offsets[0] + c0 : offsets[0] + c1], out=dst)
        for tap, off in zip(taps[1:], offsets[1:]):
            part = tmp[:, :, : c1 - c0]
            np.matmul(tap, xf[:, :, off + c0 : off + c1], out=part)
            dst += part
        if b is not None:
            dst += b[:, None]
    return acc.reshape(b_, cout, ho, pitch)[:, :, :, :wo]


def _conv_rows(x: np.ndarray, w: np.ndarray, b: np.ndarray | None, dilation,
               padding) -> np.ndarray:
    """Stride-1 dense correlation, one GEMM per output row.

    Output row r reads the padded rows r + i*dh (i < kh), all of phase
    r mod dh. Per item and phase, a block of output rows and columns
    copies the input rows and columns it reads into a reused (row, Cin,
    cols) buffer, zero in the pad columns, so the kh rows of an output row
    are one contiguous (kh*Cin, cols) matrix, and one batched matmul
    against the weights laid out as (kw*Cout, kh*Cin) contracts a run of
    output rows. The kw taps along W are the Cout-row slices of that
    product, summed shifted by j*dw columns while it is in cache. Pad rows
    are never copied: an edge row contracts only its taps that read the
    map (the MAC count stays the nominal one). The copy is a relayout with
    a halo of kh - 1 rows and (kw - 1)*dw columns per block, not an
    im2col. A kernel along W only runs on the transposed plane, its taps
    along rows, and returns a transposed view.
    """
    kh, kw = w.shape[2:]
    if kh == 1 < kw:
        out = _conv_rows(x.transpose(0, 1, 3, 2), w.transpose(0, 1, 3, 2), b,
                         dilation[::-1], padding[::-1])
        return out.transpose(0, 1, 3, 2)
    b_, cin, h, wid = x.shape
    cout = w.shape[0]
    dh, dw = dilation
    ph, pw = padding
    halo = dw * (kw - 1)
    ho, wo = h + 2 * ph - dh * (kh - 1), wid + 2 * pw - halo
    out = np.empty((b_, cout, ho, wo), dtype=_acc_dtype(x, w, b))
    dtype = np.result_type(x, w)  # of the GEMM operands, so matmul casts no copy
    # row j*Cout + o, column i*Cin + c: tap (i, j) from input channel c to o
    wm = np.asarray(w.transpose(3, 0, 2, 1).reshape(kw * cout, kh * cin), dtype=dtype)
    # output columns per block, in equal blocks that leave room for
    # max(8, kh - 1) output rows, then output rows per block
    fit = _ROW_BLOCK_ELEMS // ((max(8, kh - 1) + kh - 1) * cin) - halo
    nblk = -(-wo // max(1, fit))
    wstep = -(-wo // nblk)
    step = max(1, _ROW_BLOCK_ELEMS // (cin * (wstep + halo)) - kh + 1)
    nrows = min(step + kh - 1, -(-h // dh))
    buf = np.empty(nrows * cin * (wstep + halo), dtype=dtype)
    # output rows per GEMM: with kw > 1 their product and tap sum stay in cache
    batch = max(1, _ROW_PRODUCT_ELEMS // (kw * cout * (wstep + halo))) if kw > 1 else step
    if kw > 1:
        prod = np.empty(batch * kw * cout * (wstep + halo), dtype=dtype)
        tmp = np.empty(batch * cout * wstep, dtype=out.dtype)

    def emit(wk, mat, dst):
        """dst, (n, Cout, m) output rows, from their (n, K, m + halo) input
        matrices and the weight columns wk of those K rows."""
        if kw == 1:
            np.matmul(wk, mat, out=dst)
            if b is not None:
                dst += b[:, None]
            return
        n, _, cols = mat.shape
        m = cols - halo
        p = np.matmul(wk, mat, out=prod[: n * kw * cout * cols].reshape(n, kw * cout, cols))
        acc = np.add(p[:, :cout, :m], p[:, cout : 2 * cout, dw : dw + m],
                     out=tmp[: n * cout * m].reshape(n, cout, m))
        for j in range(2, kw):
            acc += p[:, j * cout : (j + 1) * cout, j * dw : j * dw + m]
        if b is None:
            dst[...] = acc
        else:
            np.add(acc, b[:, None], out=dst)

    for i, phase, o0 in itertools.product(range(b_), range(min(dh, ho)), range(0, wo, wstep)):
        o1 = min(o0 + wstep, wo)
        cols = o1 - o0 + halo
        # padded columns [o0, o0 + cols); x holds [a0, a1) of them
        a0, a1 = min(max(pw - o0, 0), cols), min(max(pw + wid - o0, 0), cols)
        # output rows phase + dh*q read the phase's padded rows q .. q + kh - 1,
        # of which [vlo, vhi) hold the map
        nq = -(-(ho - phase) // dh)
        vlo = max(0, -(-(ph - phase) // dh))
        vhi = -(-(ph + h - phase) // dh)

        def dst(qa, qb):
            return out[i, :, phase + dh * qa : phase + dh * (qb - 1) + 1 : dh,
                       o0:o1].transpose(1, 0, 2)

        for q0 in range(0, nq, step):
            q1 = min(q0 + step, nq)
            v0, v1 = max(q0, vlo), min(q1 + kh - 1, vhi)
            rows = buf[: max(v1 - v0, 0) * cin * cols].reshape(-1, cin, cols)
            if len(rows):
                rows[:, :, :a0] = 0
                rows[:, :, a1:] = 0
                s0 = phase + dh * v0 - ph
                rows[:, :, a0:a1] = x[i, :, s0 : s0 + dh * (v1 - v0 - 1) + 1 : dh,
                                      o0 + a0 - pw : o0 + a1 - pw].transpose(1, 0, 2)
            # rows [fa, fb) read the map with every tap
            fa, fb = max(q0, vlo), min(q1, vhi - kh + 1)
            for qa in range(fa, fb, batch):
                qb = min(qa + batch, fb)
                mat = np.lib.stride_tricks.as_strided(
                    rows[qa - v0 :], (qb - qa, kh * cin, cols), rows.strides, writeable=False)
                emit(wm, mat, dst(qa, qb))
            for q in range(q0, q1):
                if fa <= q < fb:
                    continue
                lo, hi = max(vlo - q, 0), min(vhi - q, kh)
                if hi <= lo:  # every tap reads padding
                    dst(q, q + 1)[...] = 0 if b is None else b[:, None]
                    continue
                s = q + lo - v0
                emit(wm[:, lo * cin : hi * cin],
                     rows[s : s + hi - lo].reshape(1, (hi - lo) * cin, cols), dst(q, q + 1))
    return out


def _conv_scatter(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                  spec: ConvSpec) -> np.ndarray:
    """Transposed conv: each tap's GEMM is added into a strided view of
    the output, with no zero-stuffed input. A transposed view is read, and
    its result built, on the (B, C, W, H) plane it lies in."""
    b_, cin, h, wid = x.shape
    cout, (kh, kw) = w.shape[1], spec.kernel
    sh, sw_ = spec.stride
    dh, dw = spec.dilation
    ph, pw = spec.padding
    ho, wo = conv_out_shape((h, wid), spec)
    flip = _transposed_view(x)
    # taps reach (h-1)*sh + dh*(kh-1) + 1 rows; out_pad may reach past them
    rows = max((h - 1) * sh + dh * (kh - 1) + 1, ph + ho)
    cols = max((wid - 1) * sw_ + dw * (kw - 1) + 1, pw + wo)
    dtype = _acc_dtype(x, w, b)
    if flip:
        full = np.zeros((b_, cout, cols, rows), dtype=dtype).transpose(0, 1, 3, 2)
    else:
        full = np.zeros((b_, cout, rows, cols), dtype=dtype)
    taps = w.transpose(2, 3, 1, 0).reshape(kh * kw, cout, cin)
    xf = np.ascontiguousarray(x.transpose(0, 1, 3, 2) if flip else x).reshape(b_, cin, h * wid)
    part = np.empty((b_, cout, h * wid), dtype=dtype)
    part4 = _unflat(part, h, wid, flip)
    for k, tap in enumerate(taps):
        i, j = divmod(k, kw)
        np.matmul(tap, xf, out=part)
        full[:, :, i * dh : i * dh + (h - 1) * sh + 1 : sh,
             j * dw : j * dw + (wid - 1) * sw_ + 1 : sw_] += part4
    out = full[:, :, ph : ph + ho, pw : pw + wo]
    if b is not None:
        out += b[:, None, None]
    return out


def _conv_strided(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                  spec: ConvSpec) -> np.ndarray:
    """Single-group strided correlation: one GEMM per kernel tap over that
    tap's strided view of the padded input. A transposed view is padded,
    gathered and multiplied on the (B, C, W, H) plane it lies in, and its
    result is returned as a transposed view too."""
    b_, cin, h, wid = x.shape
    cout, (kh, kw) = w.shape[0], spec.kernel
    sh, sw_ = spec.stride
    dh, dw = spec.dilation
    ph, pw = spec.padding
    ho, wo = conv_out_shape((h, wid), spec)
    flip = _transposed_view(x)
    xp = x
    if flip and (ph or pw):
        xp = zero_pad(x.transpose(0, 1, 3, 2), (pw, pw), (ph, ph)).transpose(0, 1, 3, 2)
    elif ph or pw:
        xp = zero_pad(x, (ph, ph), (pw, pw))
    taps = w.transpose(2, 3, 0, 1).reshape(kh * kw, cout, cin)
    acc = np.empty((b_, cout, ho * wo), dtype=_acc_dtype(x, w, b))
    part = np.empty_like(acc)
    xs = np.empty((b_, cin, ho * wo), dtype=x.dtype)  # one tap's inputs, gathered
    xs4 = _unflat(xs, ho, wo, flip)
    for k, tap in enumerate(taps):
        i, j = divmod(k, kw)
        xs4[...] = xp[:, :, i * dh : i * dh + (ho - 1) * sh + 1 : sh,
                      j * dw : j * dw + (wo - 1) * sw_ + 1 : sw_]
        np.matmul(tap, xs, out=part if k else acc)
        if k:
            acc += part
    if b is not None:
        acc += b[:, None]
    return _unflat(acc, ho, wo, flip)


def _transposed_view(x: np.ndarray) -> bool:
    """Whether x's H axis, not its W axis, has unit stride: a (B, C, H, W)
    view of a (B, C, W, H) plane, as the transposed dense stacks return."""
    return x.strides[2] == x.itemsize != x.strides[3]


def _unflat(a: np.ndarray, h: int, w: int, flip: bool) -> np.ndarray:
    """The (B, C, H, W) view of a (B, C, H*W) array, whose last axis runs
    over (W, H) when `flip`."""
    b, c = a.shape[:2]
    return a.reshape(b, c, w, h).transpose(0, 1, 3, 2) if flip else a.reshape(b, c, h, w)


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


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray | None, spec: ConvSpec) -> np.ndarray:
    """2-D cross-correlation with stride, dilation and transposition.

    Plain weights have shape (Cout, Cin/groups, kh, kw); transposed
    weights use (Cin, Cout, kh, kw). `groups` is 1, or Cin = Cout for a
    stride-1 depthwise conv; any other value raises `InvalidSpecError`.
    Dense stride-1 convs with more than one tap and at least
    _ROW_MIN_PAIRS Cout·Cin pairs run one GEMM per output row
    (`_conv_rows`). Every other conv runs one GEMM (or, depthwise, one
    scalar multiply per channel) per kernel tap: stride-1 convs over the
    flattened padded plane, strided convs over each tap's strided view,
    and transposed convs scattered into strided views of the output. Each
    path adds the bias into its own accumulator, and the result may be a
    view of that fresh accumulator.
    """
    macs = _check_conv(x, w, b, spec)
    if spec.transposed:
        out = _conv_scatter(x, w, b, spec)
    elif spec.stride == (1, 1):
        conv = _conv_rows if _runs_rows(w.shape, spec) else _conv_flat
        out = conv(x, w, b, spec.dilation, spec.padding)
    else:
        out = _conv_strided(x, w, b, spec)
    add_macs(macs)
    return out


def _runs_rows(wshape: tuple[int, ...], spec: ConvSpec) -> bool:
    """Whether a stride-1 conv with weights of shape `wshape` runs
    row-blocked: dense, more than one tap, and at least _ROW_MIN_PAIRS
    Cout·Cin weight pairs per tap."""
    return (spec.groups == 1 and spec.kernel != (1, 1)
            and wshape[0] * wshape[1] >= _ROW_MIN_PAIRS)


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

NORM_EPS = 1e-5  # added to each variance
# per norm kind: the einsum of the squared deviations' sums, and its axes
_NORM_SUMS = {"layer": ("abcd,abcd->a", (1, 2, 3)), "instance": ("abcd,abcd->ab", (2, 3))}


def normalize(x: np.ndarray, kind: str, gain, shift, out: np.ndarray | None = None) -> np.ndarray:
    """Layer norm (over C, T, F) or instance norm (over T, F) of a
    (B, C, T, F) map, with the (C,) `gain` and `shift`.

    The result goes to `out` when given (any view of x's shape, x itself
    included), else to a new array.
    """
    if kind not in _NORM_SUMS:
        raise InvalidParameterError(f"unknown normalization kind {kind!r}")
    if x.ndim != 4:
        raise ShapeError(f"normalize expects a (B, C, T, F) map, got shape {x.shape}")
    _check_channels("normalize", x, gain=gain, shift=shift)
    subscripts, axes = _NORM_SUMS[kind]
    mean = x.mean(axis=axes, keepdims=True)
    # one centring pass serves both moments; einsum sums the squares
    # without a squared temporary
    d = np.subtract(x, mean, out=out)
    var = np.einsum(subscripts, d, d).reshape(mean.shape) / (x.size // mean.size)
    d *= np.reshape(gain, (-1, 1, 1)) / np.sqrt(var + NORM_EPS)
    d += np.reshape(shift, (-1, 1, 1))
    return d


def _check_channels(kernel: str, x: np.ndarray, **vectors) -> None:
    """Each of `vectors` holds one value per channel of the map x."""
    for name, v in vectors.items():
        if np.size(v) != x.shape[1]:
            raise ShapeError(f"{kernel}: {name} has {np.size(v)} values for a map of "
                             f"{x.shape[1]} channels")


# ---------------------------------------------------------------------------
# Activations

def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), each step in place on one fresh array, which is returned."""
    z = np.empty(np.shape(x), dtype=np.result_type(x, 1.0))
    # clip at the dtype's exp bound (709 in float64, 88 in float32) keeps exp
    # finite; past it sigmoid rounds to 1, or stays below the smallest normal
    bound = float(np.floor(np.log(np.finfo(z.dtype).max)))
    np.clip(x, -bound, bound, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


def silu(x: np.ndarray) -> np.ndarray:
    s = sigmoid(x)
    # x first: for a NaN input the product keeps x's NaN, as x * s did
    return np.multiply(x, s, out=s)


def prelu(x: np.ndarray, a, out: np.ndarray | None = None) -> np.ndarray:
    """x for x >= 0, a*x otherwise, on a (B, C, T, F) map with (C,) slopes.
    The result goes to `out` when given (x itself included), else to a new
    array; an `out` that shares no memory with x takes no temporary."""
    if x.ndim != 4:
        raise ShapeError(f"prelu expects a (B, C, T, F) map, got shape {x.shape}")
    _check_channels("prelu", x, a=a)
    a = np.asarray(a, dtype=x.dtype).reshape(-1, 1, 1)
    if np.all((a > 0) & (a <= 1)):
        # for 0 < a <= 1 the larger of x and a*x is the select, bit for bit
        # (signed zeros, infinities and NaN included), and runs ≈4x faster
        # per call than np.where or the masked multiply below
        if out is None or np.may_share_memory(x, out):
            return np.maximum(x, x * a, out=out)
        np.multiply(x, a, out=out)
        return np.maximum(x, out, out=out)
    neg = x < 0  # taken before out, which may be x, is written
    if out is None:
        out = x.copy()
    elif out is not x:
        np.copyto(out, x)
    return np.multiply(out, a, out=out, where=neg)


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
