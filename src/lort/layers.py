"""Layer primitives of the generator and the discriminator.

Each layer object declares its parameters (`manifest()` yields
`(name, shape, init kind)` under a dotted name) and applies them
(`layer(ws, x)` reads exactly those names from a WeightStore), so every
parameter's name, shape and use are stated in one place. Only a `Param`
states a tensor: `Conv`, `Norm` and `PRelu` hold Params and read
`ws[p.name]` like any other layer, and every manifest is the walk of the
Params a layer holds, in attribute assignment order. `init_store` fills
any weight set from a manifest.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .arrays import ConvSpec, _runs_rows, conv2d, normalize, prelu, same_pad
from .errors import InvalidParameterError, ShapeError, check_int
from .weights import WeightStore

__all__ = [
    "Layer", "Param", "Conv", "Norm", "PRelu", "DenseStack", "tail", "init_store", "zero_store",
]

INIT_STD = 0.02


class Layer:
    """A node of the layer tree: its manifest is the entries of the Params
    it holds, directly or in held layers and in lists and tuples of them at
    any depth, in attribute assignment order; other attributes are skipped."""

    def manifest(self):
        return _manifest(vars(self).values())


def _manifest(values):
    # a Param's entry is yielded in place: a generator per Param slows every set-up
    for value in values:
        if isinstance(value, Param):
            yield value.name, value.shape, value.init
        elif isinstance(value, Layer):
            yield from value.manifest()
        elif isinstance(value, (list, tuple)):
            yield from _manifest(value)


class Param(Layer):
    """The one declaration of a tensor: its name, shape and init kind. Its
    holder reads it from the store itself, as `ws[p.name]`."""

    def __init__(self, name, shape, init):
        self.name, self.shape, self.init = name, shape, init

    def manifest(self):
        return _manifest((self,))


class Conv(Layer):
    def __init__(self, name, cin, cout, kernel, stride=(1, 1), dilation=(1, 1),
                 groups=1, padding=None, transposed=False, out_pad=(0, 0), init="gauss"):
        if padding is None:
            padding = same_pad(kernel, dilation)
        self.name, self.cin = name, cin
        self.spec = ConvSpec(kernel=kernel, stride=stride, dilation=dilation,
                             groups=groups, padding=padding, transposed=transposed,
                             out_pad=out_pad)
        wshape = (cin, cout, *kernel) if transposed else (cout, cin // groups, *kernel)
        self.w = Param(f"{name}.w", wshape, init)
        self.b = Param(f"{name}.b", (cout,), "zeros")

    def __call__(self, ws, x):
        return conv2d(x, ws[self.w.name], ws[self.b.name], self.spec)


class Norm(Layer):
    def __init__(self, name, channels, kind):
        self.kind = kind
        self.gain = Param(f"{name}.gain", (channels,), "ones")
        self.shift = Param(f"{name}.shift", (channels,), "zeros")

    def __call__(self, ws, x, out=None):
        return normalize(x, self.kind, ws[self.gain.name], ws[self.shift.name], out=out)


class PRelu(Layer):
    def __init__(self, name, channels):
        self.a = Param(f"{name}.a", (channels,), "prelu")

    def __call__(self, ws, x, out=None):
        return prelu(x, ws[self.a.name], out=out)


class DenseStack(Layer):
    """Densely connected stack. Each layer is a tuple of sub-layers applied
    in order to the channel concat of the stack input and every earlier
    layer's output; the last layer's output is returned. A `stem` conv
    handed to the call runs first, and its output is the stack input: the
    stack then holds that map only in its buffer, where a caller's
    argument would keep it alive for the whole stack.

    A layer's first sub-layer is a stride-1 Conv; the others are Convs, or
    epilogues (Norm, PRelu) that take `out=`. No concat is built: one
    zero-bordered buffer (B, C_last, H + 2P, W + 2Q) holds the input and
    every layer output but the last, where C_last is the last layer's input
    channels. A first conv that `conv2d` runs row-blocked pads in the
    engine without a copy, so it reads its channels of the buffer's
    interior at its own padding; any other first conv runs on the flat
    plane, which needs its padding in memory, and reads its channels and
    its own border of the buffer as a view at padding 0. (P, Q) is the
    largest padding of the flat-path first convs, (0, 0) when every first
    conv runs row-blocked. Each later sub-layer of a layer runs on
    that conv's fresh output, the epilogues in place, and only the last
    one writes into the layer's channel slice. The buffer is released once
    the last layer's first conv has read it, so the last layer's other
    sub-layers run beside no buffer (Pleiss et al., "Memory-Efficient
    Implementation of DenseNets", arXiv:1707.06990).

    Orientation: a flat-path first conv computes every column of the
    buffer's row pitch and keeps W of them per row, H·(W + 2Q) outputs for
    H·W kept. When that is more than W·(H + 2P), the cost with the axes
    swapped, whatever runs after each first conv, or when every multi-tap
    conv of the stack has its kernel along W only (a `Dlc` along
    frequency, whose border is (0, 0)), the stack runs on the transposed
    plane. It chooses that plane only by its buffer's layout, a
    (B, C_last, W + 2Q, H + 2P) array read through its transposed view:
    every conv gets the stored weight and its declared spec, and `conv2d`
    reads each map where it lies (see `arrays._conv_flat`), so the last
    output comes back as a transposed view. With no border both planes
    cost the same, so a stack whose first convs all run row-blocked keeps
    the (H, W) plane unless its kernels lie along W. Only the input shape
    and the convs' kernels and widths decide.
    """

    def __init__(self, layers):
        self.layers = [tuple(layer) for layer in layers]
        heads = [layer[0] for layer in self.layers]
        self._cins = [conv.cin for conv in heads]
        # a row-blocked head pads in the engine, with no copy, and reads the
        # plain maps; a flat-path head reads its padding from the border
        rowed = [_runs_rows(conv.w.shape, conv.spec) for conv in heads]
        self._pads = [(0, 0) if r else conv.spec.padding for conv, r in zip(heads, rowed)]
        self._border = tuple(max(p[i] for p in self._pads) for i in range(2))
        self._specs = [conv.spec if r else replace(conv.spec, padding=(0, 0))
                       for conv, r in zip(heads, rowed)]
        taps = [sub.spec.kernel for layer in self.layers for sub in layer
                if isinstance(sub, Conv) and sub.spec.kernel != (1, 1)]
        self._along_w = bool(taps) and all(kh == 1 for kh, _ in taps)

    def __call__(self, ws, x, stem: Conv | None = None):
        if stem is not None:
            x = stem(ws, x)
        cins = self._cins
        if x.ndim != 4 or x.shape[1] != cins[0]:
            raise ShapeError(f"dense stack expects (B, {cins[0]}, H, W), got shape {x.shape}")
        b, c, h, w = x.shape
        bh, bw = self._border
        dtype = np.result_type(x, ws[self.layers[0][0].w.name])
        if self._along_w or h * (w + 2 * bw) > w * (h + 2 * bh):
            # the transposed plane: every conv reads it where it lies
            buf = np.zeros((b, cins[-1], w + 2 * bw, h + 2 * bh), dtype).transpose(0, 1, 3, 2)
        else:
            buf = np.zeros((b, cins[-1], h + 2 * bh, w + 2 * bw), dtype)
        maps = buf[:, :, bh : bh + h, bw : bw + w]
        maps[:, :c] = x
        del x  # a stem's output lives on in the buffer only
        for j, layer in enumerate(self.layers[:-1]):
            tail(ws, layer[1:], self._head(ws, buf, j), maps[:, cins[j] : cins[j + 1]])
        z = self._head(ws, buf, len(cins) - 1)
        del buf, maps  # the last head conv was the buffer's last reader
        return tail(ws, self.layers[-1][1:], z)

    def _head(self, ws, buf, j):
        """Layer j's first conv over its channels and border of the buffer
        (no border for a row-blocked conv)."""
        (bh, bw), (ph, pw) = self._border, self._pads[j]
        h, w = buf.shape[2] - 2 * bh, buf.shape[3] - 2 * bw
        conv = self.layers[j][0]
        view = buf[:, : self._cins[j], bh - ph : bh + h + ph, bw - pw : bw + w + pw]
        return conv2d(view, ws[conv.w.name], ws[conv.b.name], self._specs[j])


def tail(ws, subs, z, out=None):
    """Apply the sub-layers that follow a conv (in a dense layer or a
    critic block) to that conv's fresh output z: a Conv makes a new map,
    an epilogue runs in place, and the last sub-layer's result goes to
    `out` when one is given."""
    for k, sub in enumerate(subs, 1):
        if isinstance(sub, Conv):
            z = sub(ws, z)
        else:
            z = sub(ws, z, out=z if out is None or k < len(subs) else out)
    if out is not None and z is not out:
        out[...] = z
    return z


def init_store(manifest, seed=0, store=None) -> WeightStore:
    """Fill `store` (a new one if None) from a manifest, drawing the "gauss"
    tensors in manifest order from one generator seeded with `seed`."""
    check_int("seed", seed, 0, InvalidParameterError)
    rng = np.random.default_rng(seed)
    store = WeightStore() if store is None else store
    for name, shape, kind in manifest:
        if kind == "gauss":
            store[name] = rng.normal(0.0, INIT_STD, size=shape)
        elif kind == "zeros":
            store[name] = np.zeros(shape)
        elif kind == "ones":
            store[name] = np.ones(shape)
        elif kind == "prelu":
            store[name] = np.full(shape, 0.25)
        else:
            raise InvalidParameterError(f"unknown init kind {kind!r}")
    return store


def zero_store(manifest) -> WeightStore:
    """All-zero tensors (norm gains included) for every manifest entry."""
    store = WeightStore()
    for name, shape, _ in manifest:
        store[name] = np.zeros(shape)
    return store
