"""Composite training objective: complex and magnitude distances, the
anti-wrapping phase terms, STFT-consistency, and the metric-adversarial
pair, combined by a weighted sum. Analytic gradients accompany every
non-adversarial term so the numeric verifier can cross-check them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import sigmoid
from .errors import InvalidParameterError, ShapeError
from .model import Discriminator, ModelConfig
from .signal import ComplexSpec, Waveform, default_out_len, istft, stft

__all__ = [
    "LossWeights",
    "LossReport",
    "SegmentalSnrOracle",
    "loss_ri",
    "grad_ri",
    "loss_mag",
    "grad_mag",
    "anti_wrap",
    "loss_phase",
    "grad_phase",
    "loss_consistency",
    "grad_consistency",
    "consistency_project",
    "discriminate",
    "loss_g",
    "loss_d",
    "total_loss",
    "evaluate_losses",
]

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class LossWeights:
    """Coefficients of the composite loss, by default ModelConfig.loss_weights."""

    a1: float = ModelConfig.loss_weights[0]
    a2: float = ModelConfig.loss_weights[1]
    a3: float = ModelConfig.loss_weights[2]
    a4: float = ModelConfig.loss_weights[3]
    a5: float = ModelConfig.loss_weights[4]

    def __post_init__(self) -> None:
        vals = (self.a1, self.a2, self.a3, self.a4, self.a5)
        if not all(np.isfinite(v) and v >= 0 for v in vals):
            raise InvalidParameterError(f"loss weights must be finite and >= 0, got {vals}")


@dataclass
class LossReport:
    l_ri: float
    l_mag: float
    l_ip: float
    l_gd: float
    l_iaf: float
    l_pha: float
    l_con: float
    l_g: float
    total: float

    def to_line(self) -> str:
        """Flat key=value text line, 6 significant digits."""
        fields = ("l_ri", "l_mag", "l_ip", "l_gd", "l_iaf", "l_pha", "l_con", "l_g", "total")
        return " ".join(f"{k}={getattr(self, k):.6g}" for k in fields)


# ---------------------------------------------------------------------------
# Spectral distances (mean over elements per plane, summed across planes)

def _check_planes(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"loss operands must share a shape, got {a.shape} vs {b.shape}")


def loss_ri(est: ComplexSpec, ref: ComplexSpec) -> float:
    _check_planes(est.re, ref.re)
    return float(np.mean((est.re - ref.re) ** 2) + np.mean((est.im - ref.im) ** 2))


def grad_ri(est: ComplexSpec, ref: ComplexSpec) -> tuple[np.ndarray, np.ndarray]:
    _check_planes(est.re, ref.re)
    n = est.re.size
    return 2.0 * (est.re - ref.re) / n, 2.0 * (est.im - ref.im) / n


def loss_mag(est_m: np.ndarray, ref_m: np.ndarray) -> float:
    _check_planes(est_m, ref_m)
    return float(np.mean((est_m - ref_m) ** 2))


def grad_mag(est_m: np.ndarray, ref_m: np.ndarray) -> np.ndarray:
    _check_planes(est_m, ref_m)
    return 2.0 * (est_m - ref_m) / est_m.size


# ---------------------------------------------------------------------------
# Anti-wrapped phase terms

def anti_wrap(x):
    """f_AW(x) = |x - 2*pi*round(x / 2*pi)|; periodic, range [0, pi]."""
    x = np.asarray(x, dtype=np.float64)
    return np.abs(x - _TWO_PI * np.round(x / _TWO_PI))


def _aw_sign(x: np.ndarray) -> np.ndarray:
    """Derivative of anti_wrap; subgradient 0 at the wrap points."""
    return np.sign(x - _TWO_PI * np.round(x / _TWO_PI))


def loss_phase(est_p: np.ndarray, ref_p: np.ndarray) -> tuple[float, float, float, float]:
    """Instantaneous-phase, group-delay and instantaneous-frequency terms.

    Group delay differences run along the frequency axis (last), the
    instantaneous-frequency differences along time (first).
    """
    _check_planes(est_p, ref_p)
    d = est_p - ref_p
    l_ip = float(np.mean(anti_wrap(d)))
    l_gd = float(np.mean(anti_wrap(np.diff(d, axis=1)))) if d.shape[1] > 1 else 0.0
    l_iaf = float(np.mean(anti_wrap(np.diff(d, axis=0)))) if d.shape[0] > 1 else 0.0
    return l_ip, l_gd, l_iaf, l_ip + l_gd + l_iaf


def grad_phase(est_p: np.ndarray, ref_p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of (l_ip, l_gd, l_iaf) with respect to est_p."""
    _check_planes(est_p, ref_p)
    d = est_p - ref_p
    g_ip = _aw_sign(d) / d.size

    g_gd = np.zeros_like(d)
    if d.shape[1] > 1:
        s = _aw_sign(np.diff(d, axis=1)) / (d.shape[0] * (d.shape[1] - 1))
        g_gd[:, 1:] += s
        g_gd[:, :-1] -= s

    g_iaf = np.zeros_like(d)
    if d.shape[0] > 1:
        s = _aw_sign(np.diff(d, axis=0)) / ((d.shape[0] - 1) * d.shape[1])
        g_iaf[1:] += s
        g_iaf[:-1] -= s
    return g_ip, g_gd, g_iaf


# ---------------------------------------------------------------------------
# Consistency

def consistency_project(spec: ComplexSpec) -> ComplexSpec:
    """Resynthesize and re-analyze: the projection onto consistent spectrograms."""
    wave = istft(spec, default_out_len(spec))
    return stft(wave, spec.fft_len, spec.win_len, spec.hop, spec.window)


def loss_consistency(est: ComplexSpec) -> float:
    proj = consistency_project(est)
    return float(np.mean((est.re - proj.re) ** 2) + np.mean((est.im - proj.im) ** 2))


def grad_consistency(est: ComplexSpec) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradient via an explicitly materialized projection matrix.

    The projection is linear in the stacked (re, im) vector, so the
    gradient is 2/n * (I - P)^T (I - P) x. Materializing P costs one
    transform per coordinate; intended for small verification instances.
    """
    t, f = est.re.shape
    n = t * f
    x = np.concatenate([est.re.ravel(), est.im.ravel()])
    p = np.empty((2 * n, 2 * n))
    for j in range(2 * n):
        e = np.zeros(2 * n)
        e[j] = 1.0
        basis = ComplexSpec(e[:n].reshape(t, f), e[n:].reshape(t, f),
                            est.fft_len, est.win_len, est.hop, est.window)
        pr = consistency_project(basis)
        p[:, j] = np.concatenate([pr.re.ravel(), pr.im.ravel()])
    r = x - p @ x
    g = 2.0 / n * (r - p.T @ r)
    return g[:n].reshape(t, f), g[n:].reshape(t, f)


# ---------------------------------------------------------------------------
# Quality oracle and metric-adversarial pair

class SegmentalSnrOracle:
    """Perceptual-quality proxy from mean segmental SNR over 32 ms frames.

    Per-frame SNR in dB is clamped to [-10, 35]; the mean maps affinely to
    [0, 1] via q = clip((ssnr + 10) / 30, 0, 1), so an exact match (SNR
    saturating at the ceiling) scores exactly 1.
    """

    frame_s = 0.032
    floor_db = -10.0
    ceil_db = 35.0

    def __call__(self, reference: Waveform, estimate: Waveform) -> float:
        ref, est = reference.samples, estimate.samples
        _check_planes(ref, est)
        n = max(1, int(round(self.frame_s * reference.sample_rate)))
        m = max(1, len(ref) // n)
        snrs = np.empty(m)
        for i in range(m):
            r = ref[i * n : (i + 1) * n]
            e = est[i * n : (i + 1) * n]
            err = np.sum((r - e) ** 2)
            if err == 0.0:
                snrs[i] = self.ceil_db
            else:
                snrs[i] = 10.0 * np.log10(max(np.sum(r**2), 1e-300) / err)
        ssnr = float(np.clip(snrs, self.floor_db, self.ceil_db).mean())
        return float(np.clip((ssnr - self.floor_db) / 30.0, 0.0, 1.0))


def discriminate(ref_m: np.ndarray, est_m: np.ndarray, ws) -> float:
    """Score the (reference, estimate) magnitude pair with the conv critic."""
    _check_planes(ref_m, est_m)
    if np.any(ref_m < 0) or np.any(est_m < 0):
        raise InvalidParameterError("discriminator inputs are magnitudes; must be >= 0")
    x = np.stack([ref_m, est_m])[None]
    return float(sigmoid(Discriminator()(ws, x)[0]))


def loss_g(ref_m: np.ndarray, est_m: np.ndarray, ws) -> float:
    return (discriminate(ref_m, est_m, ws) - 1.0) ** 2


def loss_d(ref_m: np.ndarray, est_m: np.ndarray, q: float, ws) -> float:
    if not (0.0 <= q <= 1.0):
        raise InvalidParameterError(f"quality score must lie in [0, 1], got {q}")
    return ((discriminate(ref_m, ref_m, ws) - 1.0) ** 2
            + (discriminate(ref_m, est_m, ws) - q) ** 2)


# ---------------------------------------------------------------------------
# Composite

def total_loss(l_ri: float, l_mag: float, l_ip: float, l_gd: float, l_iaf: float,
               l_con: float, l_g: float, w: LossWeights | None = None) -> LossReport:
    """Weighted composite of the component losses."""
    w = w or LossWeights()
    l_pha = l_ip + l_gd + l_iaf
    total = w.a1 * l_ri + w.a2 * l_mag + w.a3 * l_pha + w.a4 * l_con + w.a5 * l_g
    return LossReport(l_ri=l_ri, l_mag=l_mag, l_ip=l_ip, l_gd=l_gd, l_iaf=l_iaf,
                      l_pha=l_pha, l_con=l_con, l_g=l_g, total=total)


def evaluate_losses(est: ComplexSpec, ref: ComplexSpec, w: LossWeights | None = None,
                    disc=None) -> LossReport:
    """Full report for an (estimate, reference) spectrogram pair.

    The adversarial term is included only when discriminator weights are
    supplied.
    """
    est_m = np.hypot(est.re, est.im)
    ref_m = np.hypot(ref.re, ref.im)
    est_p = np.arctan2(est.im, est.re)
    ref_p = np.arctan2(ref.im, ref.re)
    l_ip, l_gd, l_iaf, _ = loss_phase(est_p, ref_p)
    lg = loss_g(ref_m, est_m, disc) if disc is not None else 0.0
    return total_loss(loss_ri(est, ref), loss_mag(est_m, ref_m), l_ip, l_gd, l_iaf,
                      loss_consistency(est), lg, w)
