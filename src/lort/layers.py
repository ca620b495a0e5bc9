"""Layer primitives of the generator and the discriminator.

Each layer object declares its parameters (`manifest()` yields
`(name, shape, init kind)` under a dotted name) and applies them
(`layer(ws, x)` reads exactly those names from a WeightStore), so every
parameter's name, shape and use are stated in one place. The leaves
`Conv`, `Norm`, `PRelu` and `Param` (a tensor a layer reads itself) state
their tensors; a composite's manifest is the walk of the layers it holds,
in attribute assignment order. `init_store` fills any weight set from a
manifest.
"""
from __future__ import annotations

import numpy as np

from .arrays import ConvSpec, conv2d, normalize, prelu, same_pad
from .errors import InvalidParameterError
from .weights import WeightStore

__all__ = ["Layer", "Param", "Conv", "Norm", "PRelu", "DenseStack", "init_store", "zero_store"]

INIT_STD = 0.02


class Layer:
    """A node of the layer tree: its manifest is the manifests of the layers
    it holds (attributes that are layers, or lists and tuples of them at any
    depth), in attribute assignment order; other attributes are skipped."""

    def manifest(self):
        for value in vars(self).values():
            yield from _manifest(value)


def _manifest(value):
    if isinstance(value, Layer):
        yield from value.manifest()
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _manifest(item)


class Param(Layer):
    """One tensor that its holder reads from the store itself, as `ws[p.name]`."""

    def __init__(self, name, shape, init):
        self.name, self.shape, self.init = name, shape, init

    def manifest(self):
        yield (self.name, self.shape, self.init)


class Conv(Layer):
    def __init__(self, name, cin, cout, kernel, stride=(1, 1), dilation=(1, 1),
                 groups=1, padding=None, transposed=False, out_pad=(0, 0), init="gauss"):
        if padding is None:
            padding = same_pad(kernel, dilation)
        self.name = name
        self.cin, self.cout, self.groups = cin, cout, groups
        self.init = init
        self.spec = ConvSpec(kernel=kernel, stride=stride, dilation=dilation,
                             groups=groups, padding=padding, transposed=transposed,
                             out_pad=out_pad)

    def manifest(self):
        k = self.spec.kernel
        if self.spec.transposed:
            wshape = (self.cin, self.cout, *k)
        else:
            wshape = (self.cout, self.cin // self.groups, *k)
        yield (f"{self.name}.w", wshape, self.init)
        yield (f"{self.name}.b", (self.cout,), "zeros")

    def __call__(self, ws, x):
        return conv2d(x, ws[f"{self.name}.w"], ws[f"{self.name}.b"], self.spec)


class Norm(Layer):
    def __init__(self, name, channels, kind):
        self.name, self.channels, self.kind = name, channels, kind

    def manifest(self):
        yield (f"{self.name}.gain", (self.channels,), "ones")
        yield (f"{self.name}.shift", (self.channels,), "zeros")

    def __call__(self, ws, x):
        return normalize(x, self.kind, ws[f"{self.name}.gain"], ws[f"{self.name}.shift"])


class PRelu(Layer):
    def __init__(self, name, channels):
        self.name, self.channels = name, channels

    def manifest(self):
        yield (f"{self.name}.a", (self.channels,), "prelu")

    def __call__(self, ws, x):
        return prelu(x, ws[f"{self.name}.a"])


class DenseStack(Layer):
    """Densely connected stack. Each layer is a tuple of sub-layers applied
    in order to the channel concat of the stack input and every earlier
    layer's output; the last layer's output is returned.
    """

    def __init__(self, layers):
        self.layers = [tuple(layer) for layer in layers]

    def __call__(self, ws, x):
        feats = [x]
        z = x
        for layer in self.layers:
            z = np.concatenate(feats, axis=1) if len(feats) > 1 else x
            for sub in layer:
                z = sub(ws, z)
            feats.append(z)
        return z


def init_store(manifest, seed=0, store=None) -> WeightStore:
    """Fill `store` (a new one if None) from a manifest, drawing the "gauss"
    tensors in manifest order from one generator seeded with `seed`."""
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
