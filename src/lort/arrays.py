"""Dense-array numeric kernel: convolutions, normalization, activations.

Everything operates on plain numpy arrays (rank <= 4, row-major). All
functions are pure and return their operands' promoted dtype: float64 is
set only at the boundary, by `Waveform`, `ComplexSpec` and `WeightStore`.
"""
from __future__ import annotations

import functools
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


def _conv_flat(x: np.ndarray, w: np.ndarray, b: np.ndarray, dilation, padding) -> np.ndarray:
    """Stride-1 dense or depthwise correlation, accumulated per kernel tap
    over the flattened padded plane.

    With the padded input read as a flat (B, Cin, rows*pitch) plane, where
    `pitch` is the element stride between its rows, the window of tap (i, j)
    for every output position is the one contiguous slice starting at
    i*dh*pitch + j*dw, so each tap is a single GEMM (dense), or per
    channel a scalar multiply (depthwise, w of shape (C, 1, kh, kw)), into
    a (B, Cout, Ho*pitch) accumulator whose pitch - Wo extra columns are
    cropped by one copy (the norms, PReLUs and embed after a conv run 2-3x
    slower on a cropped view). At padding 0 an input with unit-stride rows,
    such as a window of a larger zero-bordered buffer, is read in place at
    that buffer's pitch; otherwise the one padded (or contiguous) copy is made.

    The plane is picked here, never by a caller: the (B, C, W, H) one, its
    rows along W, for a kernel along W only, where the flat layout computes
    no pad columns, and for a transposed view (unit stride along H) with any
    kernel but one along H only, which it then reads where it lies; the
    result is then a transposed view. On either plane the taps are summed in
    the kernel's row-major order, tap (i, j) at flat offset j*dw*pitch +
    i*dh on the transposed one, over tap matrices taken from w as given, so
    a view gives its contiguous input's result bit for bit wherever the
    GEMMs contract fewer than 16 input channels (from 16 up OpenBLAS sums a
    column in an order set by its position).
    """
    kh, kw = w.shape[2:]
    (dh, dw), pad = dilation, padding
    reach = dh * (kh - 1), dw * (kw - 1)
    turn = kh == 1 < kw or _transposed_view(x) and not kw == 1 < kh
    if turn:  # the (B, C, W, H) plane, its rows along W
        x, pad, reach = x.transpose(0, 1, 3, 2), pad[::-1], reach[::-1]
    if pad != (0, 0):
        x = zero_pad(x, (pad[0], pad[0]), (pad[1], pad[1]))
    b_, cin, h, wid = x.shape
    item = x.itemsize
    pitch, rem = divmod(x.strides[2], item)
    if x.strides[3] != item or rem or pitch < wid:
        x, pitch = np.ascontiguousarray(x), wid
    xf = np.lib.stride_tricks.as_strided(
        x, (b_, cin, (h - 1) * pitch + wid), (x.strides[0], x.strides[1], item),
        writeable=False)
    cout = w.shape[0]
    ho, wo = h - reach[0], wid - reach[1]
    sh, sw = (1, pitch) if turn else (pitch, 1)  # flat steps of the kernel's H and W axes
    offsets = [i * dh * sh + j * dw * sw for i in range(kh) for j in range(kw)]
    acc = np.empty((b_, cout, ho * pitch), dtype=np.result_type(x, w, b))
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
            dst += b[c]
    else:
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
            dst += b[:, None]
    out = acc.reshape(b_, cout, ho, pitch)
    out = out if wo == pitch else out[:, :, :, :wo].copy()
    return out.transpose(0, 1, 3, 2) if turn else out


def _conv_rows(x: np.ndarray, w: np.ndarray, b: np.ndarray, dilation, padding) -> np.ndarray:
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
    out = np.empty((b_, cout, ho, wo), dtype=np.result_type(x, w, b))
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
            dst += b[:, None]
            return
        n, _, cols = mat.shape
        m = cols - halo
        p = np.matmul(wk, mat, out=prod[: n * kw * cout * cols].reshape(n, kw * cout, cols))
        acc = np.add(p[:, :cout, :m], p[:, cout : 2 * cout, dw : dw + m],
                     out=tmp[: n * cout * m].reshape(n, cout, m))
        for j in range(2, kw):
            acc += p[:, j * cout : (j + 1) * cout, j * dw : j * dw + m]
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
                    dst(q, q + 1)[...] = b[:, None]
                    continue
                s = q + lo - v0
                emit(wm[:, lo * cin : hi * cin],
                     rows[s : s + hi - lo].reshape(1, (hi - lo) * cin, cols), dst(q, q + 1))
    return out


def _resample(x: np.ndarray, w: np.ndarray, b: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """A strided or transposed conv as one relayout and one stride-1 conv
    over the s_h*s_w phases of its stride (sub-pixel convolution; Shi et
    al., arXiv:1609.05158), whose phase kernels hold tap i at phase i*d % s
    and offset i*d // s, and zeros elsewhere; phase (r_h, r_w) is channel
    group r_h*s_w + r_w. Strided: the phases of the padded input are
    stacked as channels in one copy (space-to-depth). Transposed: the conv
    of the zero-bordered input makes one Cout group per phase, taps
    reversed, each written into its strided view of the output
    (depth-to-space). `_conv_flat` picks the plane the phase conv runs on;
    the one layout chosen here is the stack's: for a phase kernel along W
    only it is built on the transposed plane, which the engine reads in
    place, and the result returns to a contiguous input's plane.
    """
    (kh, dh, (rh, ah), ph, eh, moves_h), (kw, dw, (rw, aw), pw, ew, moves_w) = (
        _phase_axis(*axis, spec.transposed) for axis in zip(
            x.shape[2:], spec.kernel, spec.stride, spec.dilation, spec.padding,
            conv_out_shape(x.shape[2:], spec)))
    sh, sw = spec.stride
    plain = w.transpose(1, 0, 2, 3) if spec.transposed else w  # (Cout, Cin, kh, kw)
    cout, cin = plain.shape[:2]
    w2 = np.zeros((sh * sw, cout, cin, kh, kw), dtype=w.dtype)  # per group, (Cout, Cin) taps
    w2[rh[:, None] * sw + rw, :, :, ah[:, None], aw] = plain.transpose(2, 3, 0, 1)
    groups = [(i * sw + j, mh, mw) for (i, mh), (j, mw)
              in itertools.product(enumerate(moves_h), enumerate(moves_w))]
    along_w = kh == 1 < kw
    if spec.transposed:
        w2, xs, bias = w2.reshape(-1, cin, kh, kw), x, np.tile(b, sh * sw)
    else:
        w2, bias = w2.transpose(1, 0, 2, 3, 4).reshape(cout, -1, kh, kw), b
        lead = (x.shape[0], sh * sw * cin)
        xs = (np.zeros((*lead, ew, eh), x.dtype).transpose(0, 1, 3, 2) if along_w
              else np.zeros((*lead, eh, ew), x.dtype))
        for g, (dst_h, src_h), (dst_w, src_w) in groups:
            xs[:, g * cin : (g + 1) * cin, dst_h, dst_w] = x[:, :, src_h, src_w]
    out = _conv_flat(xs, w2, bias, (dh, dw), (ph, pw))
    if spec.transposed:
        # the output keeps the axis order of the phase maps it interleaves
        phases, out = out, np.empty_like(out, shape=(x.shape[0], cout, eh, ew))
        for g, (dst_h, src_h), (dst_w, src_w) in groups:
            out[:, :, dst_h, dst_w] = phases[:, g * cout : (g + 1) * cout, src_h, src_w]
    elif along_w and not _transposed_view(x):
        return out.copy()  # one copy, half the stack's size: the encoder runs lighter on (T, F)
    return out


@functools.lru_cache
def _phase_axis(n: int, k: int, s: int, d: int, p: int, size: int, transposed: bool):
    """One axis (input extent n, output extent `size`) of a strided or
    transposed conv, split into its s phases (cached: a layer sees the same
    shapes on every call): the phase kernel's length and dilation (d // s
    where s divides d, else 1), the (phase, position) arrays of its k taps,
    the phase conv's padding, the extent of the stack (strided) or output
    (transposed), and per phase the (destination, source) slices of the
    rows it copies into the stack or the output."""
    dil = d // s if d % s == 0 else 1
    reach = (k - 1) * d // s  # offset of the last tap
    i = np.arange(k) * d
    taps = i % s, (reach - i // s if transposed else i // s) // dil
    pad = max(reach, -(-(p + size) // s) - n) if transposed else 0
    moves = []
    for r in range(s):
        # row j0 of the input (strided) or output (transposed) is the first
        # of phase r, row q of that phase: padded row q*s + r
        j0 = (r - p) % s
        q = (j0 + p) // s
        if transposed:  # row q of phase r is row q + pad - reach of its conv
            q += pad - reach
            moves.append((slice(j0, None, s), slice(q, q + len(range(j0, size, s)))))
        else:
            rows = max(0, min(len(range(j0, n, s)), size + reach - q))
            moves.append((slice(q, q + rows), slice(j0, j0 + s * rows, s)))
    return reach // dil + 1, dil, taps, pad, size if transposed else size + reach, moves


def _transposed_view(x: np.ndarray) -> bool:
    """Whether x's H axis, not its W axis, has unit stride: a (B, C, H, W)
    view of a (B, C, W, H) plane, as the transposed dense stacks return."""
    return x.strides[2] == x.itemsize != x.strides[3]


def _check_conv(x: np.ndarray, w: np.ndarray, b: np.ndarray, spec: ConvSpec) -> int:
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
    if not isinstance(b, np.ndarray) or b.shape != (cout,):
        got = f"shape {b.shape}" if isinstance(b, np.ndarray) else type(b).__name__
        raise ShapeError(f"bias must be a ({cout},) array, got {got}")
    taps = spec.kernel[0] * spec.kernel[1]
    if spec.transposed:
        return x.size * cout * taps
    return x.shape[0] * cout * ho * wo * w.shape[1] * taps


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """2-D cross-correlation with stride, dilation and transposition.

    Plain weights have shape (Cout, Cin/groups, kh, kw); transposed
    weights use (Cin, Cout, kh, kw). `groups` is 1, or Cin = Cout for a
    stride-1 depthwise conv; any other value raises `InvalidSpecError`.
    A stride-1 conv runs on `_conv_rows` (one GEMM per row block) where
    `_runs_rows` says so, else on `_conv_flat` (one GEMM, depthwise one
    scalar multiply per channel, per kernel tap over the flattened padded
    plane). A strided or transposed conv is one relayout into a stride-1
    conv on `_conv_flat` over the phases of its stride (`_resample`). The
    (Cout,) bias `b` is required, as every conv of the network carries
    one: each engine adds it into its own accumulator, whose dtype it
    promotes as `out + b` would. The result may be a transposed view.
    """
    macs = _check_conv(x, w, b, spec)
    if spec.transposed or spec.stride != (1, 1):
        out = _resample(x, w, b, spec)
    else:
        conv = _conv_rows if _runs_rows(w.shape, spec) else _conv_flat
        out = conv(x, w, b, spec.dilation, spec.padding)
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
    x = np.asarray(x)  # result_type would read a list as a structured dtype
    z = np.empty(x.shape, dtype=np.result_type(x, 1.0))
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
    """x for x >= 0, a*x otherwise, on a (B, C, T, F) map with (C,) slopes,
    into `out` when given (x itself, or an array sharing no memory with x,
    which takes no temporary), else into a new array. The select is, bit
    for bit, max(a*x, x) for a < 0 and 0 < a <= 1 and min(x, a*x) for
    a > 1, one ufunc per slope class; a = 0 (inf * 0 is NaN) takes np.where."""
    if x.ndim != 4:
        raise ShapeError(f"prelu expects a (B, C, T, F) map, got shape {x.shape}")
    _check_channels("prelu", x, a=a)
    a = np.asarray(a, dtype=x.dtype).reshape(-1, 1, 1)
    with np.errstate(over="ignore"):  # for |a| > 1, as in the select's own a*x
        ax = x * a if out is None or np.may_share_memory(x, out) else np.multiply(x, a, out=out)
    out = ax if out is None else out
    low, high = (a != 0) & (a <= 1), a > 1
    if low.all():
        return np.maximum(ax, x, out=out)
    for c in np.flatnonzero(~(low | high)):
        out[:, c] = np.where(x[:, c] >= 0, x[:, c], ax[:, c])
    np.maximum(ax, x, out=out, where=low)
    return np.minimum(x, ax, out=out, where=high)


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
