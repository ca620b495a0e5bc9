"""Locally refined convolution block: convolutional feed-forward network,
time/frequency dense local convolutions, and the gated residual unit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import sigmoid, silu
from .errors import InvalidSpecError, ShapeError
from .layers import Conv, DenseStack, Norm, PRelu, manifest_of

__all__ = ["DlcConfig", "Dlc", "Lrc", "cfn", "tf_dlc", "lrc_block", "dlc_receptive_field"]


@dataclass(frozen=True)
class DlcConfig:
    depth: int = 2
    dilation_base: int = 2
    kernel: int = 19

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise InvalidSpecError(f"depth must be >= 1, got {self.depth}")
        if self.dilation_base < 1:
            raise InvalidSpecError(f"dilation_base must be >= 1, got {self.dilation_base}")
        if not isinstance(self.kernel, int) or self.kernel < 1 or self.kernel % 2 == 0:
            raise InvalidSpecError(
                f"kernel extent along the convolved axis must be an odd int, got {self.kernel!r}"
            )

    def layer_dilation(self, layer: int) -> int:
        """Dilation of 1-indexed layer: dilation_base ** layer (2, 4 at depth 2)."""
        return self.dilation_base**layer


def dlc_receptive_field(cfg: DlcConfig) -> int:
    """Closed-form impulse-response support along the convolved axis."""
    return 1 + sum((cfg.kernel - 1) * cfg.layer_dilation(j) for j in range(1, cfg.depth + 1))


# (T, F) extents of an axial kernel or dilation of size n along each axis
_ALONG = {"time": lambda n: (n, 1), "frequency": lambda n: (1, n)}


class Dlc:
    """Dense local convolution along one axis: pointwise layers sandwiching a
    dense stack of dilated axial convolutions, with a residual from the input.
    """

    def __init__(self, name, channels, cfg: DlcConfig, axis: str):
        c, along = channels, _ALONG[axis]
        self.pw_in = Conv(f"{name}.pw_in", c, c, (1, 1))
        self.pw_out = Conv(f"{name}.pw_out", c, c, (1, 1))
        layers = []
        for j in range(1, cfg.depth + 1):
            base = f"{name}.layer{j}"
            layers.append((
                Conv(f"{base}.compress", c * j, c, (1, 1)),
                Conv(f"{base}.conv", c, c, along(cfg.kernel),
                     dilation=along(cfg.layer_dilation(j))),
                Norm(f"{base}.norm", c, "instance"),
                PRelu(f"{base}.act", c),
            ))
        self.dense = DenseStack(layers)

    def manifest(self):
        yield from manifest_of(self.pw_in, self.pw_out, self.dense)

    def __call__(self, ws, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"dlc expects (B, C, T, F), got shape {x.shape}")
        return x + self.pw_out(ws, self.dense(ws, self.pw_in(ws, x)))


class Lrc:
    """Locally refined convolution: a CFN gate over a time DLC then a
    frequency DLC. Applied by `lrc_block`."""

    def __init__(self, name, channels, cfg: DlcConfig):
        c = channels
        self.ln = Norm(f"{name}.cfn.ln", c, "layer")
        self.pw = Conv(f"{name}.cfn.pw", c, c, (1, 1))
        self.dw = Conv(f"{name}.cfn.dw", c, c, (3, 3), groups=c)
        self.dlc_t = Dlc(f"{name}.dlc_t", c, cfg, "time")
        self.dlc_f = Dlc(f"{name}.dlc_f", c, cfg, "frequency")

    def manifest(self):
        yield from manifest_of(self.ln, self.pw, self.dw, self.dlc_t, self.dlc_f)


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
    gate = sigmoid(cfn(lrc, ws, x))
    value = tf_dlc(lrc, ws, x)
    return x + gate * (value - x)
