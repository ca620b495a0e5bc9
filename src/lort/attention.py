"""Taylor multi-head self-attention: exact softmax reference, linearized
first-order Taylor evaluation, MSAR local correction, the SCEA gating
branch, and closed-form complexity accounting.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import add_macs, sigmoid, softmax
from .errors import DegenerateAttentionError, ShapeError, check_int

__all__ = [
    "AttentionInput",
    "OpCount",
    "softmax_attention",
    "taylor_attention",
    "msar_correct",
    "scea",
    "count_ops",
]


@dataclass
class AttentionInput:
    """Per-head query/key/value stacks of one shared (H, N, Dh) shape."""

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        self.q, self.k, self.v = (np.asarray(a) for a in (self.q, self.k, self.v))
        if not (self.q.shape == self.k.shape == self.v.shape) or self.q.ndim != 3:
            raise ShapeError(
                f"q/k/v must share an (H, N, Dh) shape: {self.q.shape}, {self.k.shape}, {self.v.shape}"
            )


@dataclass(frozen=True)
class OpCount:
    mhsa_ops: int
    tmsa_ops: int


def softmax_attention(ain: AttentionInput) -> np.ndarray:
    """Exact softmax attention over the unscaled q . k logits, the function
    Taylor attention expands; reference oracle, clarity over speed."""
    q, k, v = ain.q, ain.k, ain.v
    h, n, dh = q.shape
    weights = softmax(np.einsum("hid,hjd->hij", q, k), axis=-1)
    add_macs(2 * h * n * n * dh)
    return np.einsum("hij,hjd->hid", weights, v)


def _col_norms(x: np.ndarray) -> np.ndarray:
    """The (H, 1, N) L2 norms of the N columns of x (H, Dh, N), at least 1e-30."""
    return np.maximum(np.sqrt(np.einsum("hdn,hdn->hn", x, x)), 1e-30)[:, None, :]


def taylor_attention(ain: AttentionInput, normalize: bool = True) -> np.ndarray:
    """First-order Taylor attention in linearized (O(N)) form.

    Weights are 1 + q_i . k_j; rows of q and k are L2-normalized first so
    every weight is non-negative. The N x N weight matrix is never formed.
    The products run on the (H, Dh, N) planes of q, k and v, contiguous for
    heads cut from channel-major maps, each as one matmul; the (H, N, Dh)
    result is a transposed view of the (H, Dh, N) one.
    """
    h, n, dh = ain.q.shape
    q, k, v = (a.transpose(0, 2, 1) for a in (ain.q, ain.k, ain.v))
    if normalize:
        k = k / _col_norms(k)
    k_sum = k.sum(axis=2, keepdims=True)        # (H, Dh, 1)
    v_sum = v.sum(axis=2, keepdims=True)        # (H, Dh, 1)
    num = v @ k.transpose(0, 2, 1) @ q          # (H, Dh, N)
    den = k_sum.transpose(0, 2, 1) @ q          # (H, 1, N)
    if normalize:  # q's norms fold into the quotient: no normalized q is made
        inv = 1.0 / _col_norms(q)
        num *= inv
        den *= inv
    num += v_sum
    den += n
    if den.min() < 1e-6:
        raise DegenerateAttentionError(
            f"Taylor denominator {den.min():.3e} below 1e-6 (keys antipodal to query)"
        )
    add_macs(2 * h * n * dh * dh + 2 * h * n * dh)
    # in place unless integer inputs left unnormalized make num integral
    out = num if num.dtype.kind in "fc" else None
    return np.divide(num, den, out=out).transpose(0, 2, 1)


def msar_correct(q, k, v, vprime, ws, local, gate) -> np.ndarray:
    """Gated local correction V'' = V' + g * L for the dropped Taylor remainder.

    All four arguments are (B, C, T, F) maps. L is the depthwise 3x3 conv
    `local` of V; the gate g is the sigmoid of the pointwise conv `gate` of
    the channel concat of Q and K. Both convs apply their weights from `ws`.
    """
    if not q.shape == k.shape == v.shape == vprime.shape or q.ndim != 4:
        raise ShapeError(f"msar_correct expects four equal (B, C, T, F) maps, got "
                         f"{q.shape}, {k.shape}, {v.shape}, {vprime.shape}")
    loc = local(ws, v)
    g = sigmoid(gate(ws, np.concatenate([q, k], axis=1)))
    g *= loc
    g += vprime
    return g


def scea(x: np.ndarray, ws, ch, sp) -> np.ndarray:
    """Spatial-channel enhancement attention gate.

    Channel branch: global average pool over (T, F), the kernel-3 conv `ch`
    across channels, sigmoid. Spatial branch: mean+max pool across channels,
    the 5x5 conv `sp`, sigmoid. Both gates scale the input.
    """
    if x.ndim != 4:
        raise ShapeError(f"scea expects (B, C, T, F), got shape {x.shape}")
    b, c, t, f = x.shape
    pooled = x.mean(axis=(2, 3)).reshape(b, 1, c, 1)
    gate_ch = sigmoid(ch(ws, pooled)).reshape(b, c, 1, 1)
    sp_in = np.stack([x.mean(axis=1), x.max(axis=1)], axis=1)
    gate_sp = sigmoid(sp(ws, sp_in))
    return x * gate_ch * gate_sp


def count_ops(t: int, f: int, d: int) -> OpCount:
    """Closed-form operation counts for standard MHSA and T-MSA."""
    for name, value in (("t", t), ("f", f), ("d", d)):
        check_int(name, value, 1, ShapeError)
    mhsa = 4 * t * f * d * d + 2 * t * t * f * f * d
    tmsa = 18 * t * f * d + 2 * t * f * d * d
    return OpCount(mhsa_ops=mhsa, tmsa_ops=tmsa)
