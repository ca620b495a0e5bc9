"""Locally refined convolution block: convolutional feed-forward network,
time/frequency dense local convolutions, and the gated residual unit.
"""
from __future__ import annotations

import numpy as np

from .arrays import sigmoid, silu
from .errors import ShapeError
from .layers import Conv, DenseStack, Layer, Norm, PRelu

__all__ = ["Dlc", "Lrc", "cfn", "tf_dlc", "lrc_block"]


# (T, F) extents of an axial kernel or dilation of size n along each axis
_ALONG = {"time": lambda n: (n, 1), "frequency": lambda n: (1, n)}


class Dlc(Layer):
    """Dense local convolution along one axis: pointwise layers sandwiching a
    dense stack of dilated axial convolutions, with a residual from the input.
    Layer j (1-indexed) reads the j maps before it and convolves with kernel
    KERNEL at dilation DILATIONS[j - 1] along `axis`.
    """

    KERNEL = 19
    DILATIONS = (2, 4)

    def __init__(self, name, channels, axis: str):
        c, along = channels, _ALONG[axis]
        self.pw_in = Conv(f"{name}.pw_in", c, c, (1, 1))
        self.pw_out = Conv(f"{name}.pw_out", c, c, (1, 1))
        self.dense = DenseStack(
            (Conv(f"{name}.layer{j}.compress", c * j, c, (1, 1)),
             Conv(f"{name}.layer{j}.conv", c, c, along(self.KERNEL), dilation=along(d)),
             Norm(f"{name}.layer{j}.norm", c, "instance"),
             PRelu(f"{name}.layer{j}.act", c))
            for j, d in enumerate(self.DILATIONS, start=1)
        )

    def __call__(self, ws, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"dlc expects (B, C, T, F), got shape {x.shape}")
        # the stack runs pw_in, so only its buffer keeps pw_in's output
        return x + self.pw_out(ws, self.dense(ws, x, stem=self.pw_in))


class Lrc(Layer):
    """Locally refined convolution: a CFN gate over a time DLC then a
    frequency DLC. Applied by `lrc_block`."""

    def __init__(self, name, channels):
        c = channels
        self.ln = Norm(f"{name}.cfn.ln", c, "layer")
        self.pw = Conv(f"{name}.cfn.pw", c, c, (1, 1))
        self.dw = Conv(f"{name}.cfn.dw", c, c, (3, 3), groups=c)
        self.dlc_t = Dlc(f"{name}.dlc_t", c, "time")
        self.dlc_f = Dlc(f"{name}.dlc_f", c, "frequency")


def cfn(lrc: Lrc, ws, x: np.ndarray) -> np.ndarray:
    """LN -> 1x1 conv -> SiLU -> depthwise 3x3 conv, residual from the input."""
    if x.ndim != 4:
        raise ShapeError(f"cfn expects (B, C, T, F), got shape {x.shape}")
    return x + lrc.dw(ws, silu(lrc.pw(ws, lrc.ln(ws, x))))


def tf_dlc(lrc: Lrc, ws, x: np.ndarray) -> np.ndarray:
    """Two sequential dense local convolutions: time axis, then frequency."""
    return lrc.dlc_f(ws, lrc.dlc_t(ws, x))


def lrc_block(lrc: Lrc, ws, x: np.ndarray) -> np.ndarray:
    """Gated unit: the CFN drives the gate, TF-DLC the value.

    The gate scales the value branch's deviation from the input, so a
    zero-weight parameterization reduces the block to the identity map.
    """
    value = tf_dlc(lrc, ws, x)  # first, so the gate is not alive while it runs
    gate = sigmoid(cfn(lrc, ws, x))
    return x + gate * (value - x)
