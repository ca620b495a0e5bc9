"""Oracles of the fast kernels: plain implementations the tests compare
the package against, each as simple as its kernel allows, plus one
weight set that exercises every branch of the network.

`conv2d_reference` contracts a sliding-window (im2col) view per group and
runs a transposed conv as a stride-1 correlation of the zero-stuffed input
with the flipped kernel, then adds the bias; it shares only the operand
checks with `lort.arrays.conv2d`. `dense_concat` builds every concat a
dense stack avoids, `bilinear_dsdcn_oracle` samples one pixel at a time,
`full_map_dsdcn` runs the embed in one pass over full maps, and
`overlap_add_per_frame` adds one frame at a time.
"""
import math

import numpy as np

from lort import model as model_module
from lort.arrays import ConvSpec, _check_conv, add_macs
from lort.errors import InvalidSpecError

# Cap on elements of a single im2col temporary (keeps peak memory bounded).
_CHUNK_ELEMS = 8_000_000


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


def conv2d_reference(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                     spec: ConvSpec) -> np.ndarray:
    """Oracle for `conv2d`: window-view (im2col) contraction per group, and
    transposed convs on the zero-stuffed input. Same contract and MAC count."""
    macs = _check_conv(x, w, b, spec)
    out = _conv_zero_stuffed(x, w, spec) if spec.transposed else _conv_windows(x, w, spec)
    add_macs(macs)
    if b is not None:
        out = out + b.reshape(1, -1, 1, 1)
    return out


def dense_concat(stack, ws, x):
    """Oracle of `DenseStack`: each layer runs on the channel concat of the
    stack input and every earlier output, each conv at its own padding."""
    feats = [x]
    z = x
    for layer in stack.layers:
        z = np.concatenate(feats, axis=1) if len(feats) > 1 else x
        for sub in layer:
            z = sub(ws, z)
        feats.append(z)
    return z


def bilinear_dsdcn_oracle(ws, x, off, name="embed"):
    """Deformable depthwise conv, one bilinear sample at a time, then the
    pointwise conv; samples outside the plane read zero."""
    b, c, t, f = x.shape
    w, bias = ws[f"{name}.depthwise.w"], ws[f"{name}.depthwise.b"]

    def pixel(i, ch, y, z):
        inside = 0 <= y < t and 0 <= z < f
        return x[i, ch, y, z] if inside else 0.0

    dw = np.zeros_like(x)
    outside = 0
    for i in range(b):
        for ch in range(c):
            for y in range(t):
                for z in range(f):
                    acc = 0.0
                    for m in range(9):
                        a, cc = divmod(m, 3)
                        pt = y + a - 1 + off[i, 2 * m, y, z]
                        pf = z + cc - 1 + off[i, 2 * m + 1, y, z]
                        y0, z0 = math.floor(pt), math.floor(pf)
                        wy, wz = pt - y0, pf - z0
                        outside += not (0 <= y0 and y0 + 1 < t and 0 <= z0 and z0 + 1 < f)
                        sample = ((1 - wy) * (1 - wz) * pixel(i, ch, y0, z0)
                                  + (1 - wy) * wz * pixel(i, ch, y0, z0 + 1)
                                  + wy * (1 - wz) * pixel(i, ch, y0 + 1, z0)
                                  + wy * wz * pixel(i, ch, y0 + 1, z0 + 1))
                        acc += w[ch, 0, a, cc] * sample
                    dw[i, ch, y, z] = acc + bias[ch]
    pw = np.einsum("oc,bctf->botf", ws[f"{name}.pointwise.w"][:, :, 0, 0], dw)
    return pw + ws[f"{name}.pointwise.b"][:, None, None], outside


def full_map_dsdcn(layer, ws, x):
    """The deformable embed in one pass over full maps: each tap's indices,
    weights and gathered corners span every row of a (B*T*F, C) plane.
    The row-blocked `Dsdcn` must match it bit for bit."""
    b, c, t, f = x.shape
    k = layer.K
    off = layer.offset(ws, x).reshape(b, k * k, 2, t, f)
    w = ws[layer.dw_w.name]
    plane = x.transpose(0, 2, 3, 1).reshape(b * t * f, c)
    items = np.arange(b)[:, None, None] * (t * f)
    gt = np.arange(t, dtype=off.dtype)[:, None]
    gf = np.arange(f, dtype=off.dtype)
    acc = np.zeros((b * t * f, c), dtype=np.result_type(x, w))
    for m in range(k * k):
        a, cc = divmod(m, k)
        pt = gt + (a - 1) + off[:, m, 0]
        pf = gf + (cc - 1) + off[:, m, 1]
        t0 = np.floor(pt).astype(np.int64)
        f0 = np.floor(pf).astype(np.int64)
        rows_t, wts_t = model_module._axis_taps(t0, pt - t0, t)
        rows_f, wts_f = model_module._axis_taps(f0, pf - f0, f)
        tap = np.zeros_like(acc)
        for rt, wtt in zip(rows_t, wts_t):
            for rf, wtf in zip(rows_f, wts_f):
                corner = np.take(plane, (items + rt * f + rf).ravel(), axis=0)
                corner *= (wtt * wtf).reshape(-1, 1)
                tap += corner
        tap *= w[:, 0, a, cc]
        acc += tap
    out = np.add(acc.T, ws[layer.dw_b.name][:, None], order="C")
    return layer.pw(ws, out.reshape(c, b, t, f).transpose(1, 0, 2, 3))


def overlap_add_per_frame(frames, hop):
    """Oracle of `signal._overlap_add`: one add per frame, frame order."""
    t, n = frames.shape
    out = np.zeros((t - 1) * hop + n)
    for m in range(t):
        out[m * hop : m * hop + n] += frames[m]
    return out




def exercised_store(cfg, seed=0):
    """`init_weights(cfg, seed)` moved off every inert value: each tensor
    plus 0.05 N(0, 1) (so MSAR weights, biases and norm shifts are
    nonzero), sampling offsets of up to a few pixels, and PReLU slopes from
    U[-0.5, 1.5] with every fourth one 0, so they span < 0, 0, (0, 1] and
    > 1."""
    ws = model_module.init_weights(cfg, seed)
    rng = np.random.default_rng(seed)
    for name in list(ws):
        if name.endswith(".a"):
            a = rng.uniform(-0.5, 1.5, ws[name].shape)
            a[::4] = 0.0
            ws[name] = a
        else:
            ws[name] = ws[name] + 0.05 * rng.standard_normal(ws[name].shape)
    ws["embed.offset.b"] = rng.uniform(-2.5, 2.5, ws["embed.offset.b"].shape)
    return ws
