"""Numeric verification layer: finite-difference gradient oracle, the
Taylor-vs-softmax error sweep, capacity/complexity trend reports, and a
gradient-free SPSA trainer for the synthetic micro task.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .attention import AttentionInput, softmax_attention, taylor_attention
from .errors import DivergenceError, InvalidParameterError
from .model import (
    ModelConfig,
    build_model,
    count_params,
    estimate_flops,
    init_discriminator,
    init_weights,
)
from .objectives import (
    anti_wrap,
    evaluate_losses,
    grad_consistency,
    grad_mag,
    grad_phase,
    grad_ri,
    loss_consistency,
    loss_mag,
    loss_phase,
    loss_ri,
)
from .signal import ComplexSpec, Waveform, stft
from .weights import WeightStore

__all__ = [
    "GradCheckResult",
    "SweepResult",
    "SpsaConfig",
    "SpsaResult",
    "finite_diff",
    "gradcheck_losses",
    "taylor_reference",
    "taylor_error_sweep",
    "make_toy_task",
    "micro_config",
    "spsa_train",
    "table2_trend",
]


# ---------------------------------------------------------------------------
# Finite differences

def finite_diff(f, theta: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, coordinatewise."""
    if eps <= 0:
        raise InvalidParameterError(f"eps must be positive, got {eps}")
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.empty_like(theta)
    it = np.nditer(theta, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        tp = theta.copy()
        tp[idx] += eps
        tm = theta.copy()
        tm[idx] -= eps
        hi, lo = f(tp), f(tm)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise DivergenceError(f"non-finite evaluation at coordinate {idx}")
        grad[idx] = (hi - lo) / (2.0 * eps)
    return grad


@dataclass
class GradCheckResult:
    max_rel_err: float
    argmax_location: str
    n_checked: int


_GC_MARGIN = 1e-3  # exclusion radius around anti-wrap non-smooth points


def _safe_phases(rng: np.random.Generator, shape) -> tuple[np.ndarray, np.ndarray]:
    """Phase pair whose raw and first-difference gaps avoid wrap points."""
    for _ in range(500):
        ref = rng.uniform(-np.pi, np.pi, shape)
        est = ref + rng.uniform(-3.0, 3.0, shape)
        d = est - ref
        ok = True
        for q in (d, np.diff(d, axis=0), np.diff(d, axis=1)):
            w = anti_wrap(q)
            if np.any(w < _GC_MARGIN) or np.any(np.pi - w < _GC_MARGIN):
                ok = False
                break
        if ok:
            return est, ref
    raise DivergenceError("could not sample phases clear of anti-wrap kinks")


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return np.abs(analytic - numeric) / scale


def gradcheck_losses(seed: int = 0, instances: int = 20, size: int = 8) -> GradCheckResult:
    """Analytic-vs-numeric comparison for every differentiable loss term."""
    if isinstance(instances, bool) or not isinstance(instances, int) or instances < 1:
        raise InvalidParameterError(f"instances must be an int >= 1, got {instances!r}")
    if isinstance(size, bool) or not isinstance(size, int) or size < 3:
        raise InvalidParameterError(f"size must be an int >= 3, got {size!r}")
    rng = np.random.default_rng(seed)
    fft_len = 2 * (size - 1)
    hop = fft_len // 2
    worst, where, n_checked = 0.0, "none", 0

    def track(term, inst, analytic, numeric):
        nonlocal worst, where, n_checked
        err = _rel_err(np.asarray(analytic), np.asarray(numeric))
        n_checked += err.size
        j = int(np.argmax(err))
        if err.flat[j] > worst:
            worst = float(err.flat[j])
            where = f"{term}[{j}] (instance {inst})"

    for inst in range(instances):
        shape = (size, size)
        mk = lambda: rng.standard_normal(shape)  # noqa: E731
        est = ComplexSpec(mk(), mk(), fft_len, fft_len, hop)
        ref = ComplexSpec(mk(), mk(), fft_len, fft_len, hop)

        gre, gim = grad_ri(est, ref)
        track("l_ri.re", inst, gre,
              finite_diff(lambda a: loss_ri(ComplexSpec(a, est.im, fft_len, fft_len, hop), ref), est.re))
        track("l_ri.im", inst, gim,
              finite_diff(lambda a: loss_ri(ComplexSpec(est.re, a, fft_len, fft_len, hop), ref), est.im))

        em, rm = np.abs(mk()), np.abs(mk())
        track("l_mag", inst, grad_mag(em, rm), finite_diff(lambda a: loss_mag(a, rm), em))

        ep, rp = _safe_phases(rng, shape)
        g_ip, g_gd, g_iaf = grad_phase(ep, rp)
        track("l_ip", inst, g_ip, finite_diff(lambda a: loss_phase(a, rp)[0], ep))
        track("l_gd", inst, g_gd, finite_diff(lambda a: loss_phase(a, rp)[1], ep))
        track("l_iaf", inst, g_iaf, finite_diff(lambda a: loss_phase(a, rp)[2], ep))

        cre, cim = grad_consistency(est)
        track("l_con.re", inst, cre,
              finite_diff(lambda a: loss_consistency(ComplexSpec(a, est.im, fft_len, fft_len, hop)), est.re))
        track("l_con.im", inst, cim,
              finite_diff(lambda a: loss_consistency(ComplexSpec(est.re, a, fft_len, fft_len, hop)), est.im))

    return GradCheckResult(max_rel_err=worst, argmax_location=where, n_checked=n_checked)


# ---------------------------------------------------------------------------
# Taylor approximation quality

def taylor_reference(ain: AttentionInput) -> np.ndarray:
    """Brute-force Taylor attention, rows of q and k L2-normalized, with the
    N x N weight matrix formed."""
    q = ain.q / np.maximum(np.linalg.norm(ain.q, axis=-1, keepdims=True), 1e-30)
    k = ain.k / np.maximum(np.linalg.norm(ain.k, axis=-1, keepdims=True), 1e-30)
    v = ain.v
    w = 1.0 + np.einsum("hid,hjd->hij", q, k)
    w = w / w.sum(axis=-1, keepdims=True)
    return np.einsum("hij,hjd->hid", w, v)


@dataclass
class SweepResult:
    points: list  # (scale, max_err) pairs, scales descending
    slope: float  # log-log fit of err against scale


def taylor_error_sweep(scales=(1e-1, 1e-2, 1e-3), trials: int = 20,
                       seed: int = 0) -> SweepResult:
    """Max |taylor - softmax| as the logit scale shrinks.

    Queries are pre-scaled so logits have magnitude ~scale; the dropped
    remainder is second order, giving a log-log slope near 2. The same
    base draws are reused across scales so each trial's error curve is
    monotone in the scale.
    """
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
        raise InvalidParameterError(f"trials must be an int >= 1, got {trials!r}")
    scales = tuple(float(s) for s in scales)
    if (len(scales) < 2 or not all(0 < s < math.inf for s in scales)
            or any(b >= a for a, b in zip(scales, scales[1:]))):
        raise InvalidParameterError(
            f"scales must be two or more finite values > 0, descending, got {scales}")
    rng = np.random.default_rng(seed)
    h, n, dh = 2, 32, 8
    draws = []
    for _ in range(trials):
        q, k = rng.standard_normal((2, h, n, dh))
        q /= np.linalg.norm(q, axis=-1, keepdims=True)
        k /= np.linalg.norm(k, axis=-1, keepdims=True)
        draws.append((q, k, rng.standard_normal((h, n, dh))))
    points = []
    for s in scales:
        err = 0.0
        for q, k, v in draws:
            ain = AttentionInput(s * q, k, v)
            diff = taylor_attention(ain, normalize=False) - softmax_attention(ain, scale=1.0)
            err = max(err, float(np.abs(diff).max()))
        points.append((s, err))
    logs = np.log([p[0] for p in points])
    loge = np.log([max(p[1], 1e-300) for p in points])
    slope = float(np.polyfit(logs, loge, 1)[0])
    return SweepResult(points=points, slope=slope)


# ---------------------------------------------------------------------------
# SPSA toy trainer

@dataclass(frozen=True)
class SpsaConfig:
    iterations: int = 200
    c: float = 0.02
    a: float = 1.0
    seed: int = 7

    # Spall's step and perturbation decay exponents; losses averaged at each end
    alpha: ClassVar[float] = 0.602
    gamma: ClassVar[float] = 0.101
    smooth_window: ClassVar[int] = 10

    def __post_init__(self) -> None:
        if (isinstance(self.iterations, bool) or not isinstance(self.iterations, int)
                or self.iterations < 1):
            raise InvalidParameterError(f"iterations must be an int >= 1, got {self.iterations!r}")
        if not 0 < self.c < math.inf:
            raise InvalidParameterError(f"c must be finite and > 0, got {self.c}")
        if not 0 <= self.a < math.inf:
            raise InvalidParameterError(f"a must be finite and >= 0, got {self.a}")


@dataclass
class SpsaResult:
    trajectory: np.ndarray
    initial_smoothed: float
    final_smoothed: float
    ratio: float
    weights: WeightStore


def micro_config() -> ModelConfig:
    """Desk-scale configuration used by the toy trainer."""
    return ModelConfig(n_blocks=1, channels=4, fft_len=64, win_len=64, hop=16,
                       block_channel_mult=2)


def make_toy_task(cfg: ModelConfig, seed: int = 0,
                  duration_s: float = 0.25) -> tuple[Waveform, Waveform]:
    """Synthetic denoising pair: harmonic tone mixture + white noise at 0 dB."""
    n = int(round(duration_s * cfg.sample_rate)) if 0 < duration_s < math.inf else 0
    if n < 1:
        raise InvalidParameterError(
            f"duration_s must be finite and hold at least one sample, got {duration_s}")
    rng = np.random.default_rng(seed)
    t = np.arange(n) / cfg.sample_rate
    clean = np.zeros(n)
    for i, f0 in enumerate((220.0, 440.0, 660.0)):
        env = 0.5 * (1.0 + np.sin(2.0 * np.pi * (2.0 + i) * t))
        clean += env * np.sin(2.0 * np.pi * f0 * t + rng.uniform(0, 2 * np.pi))
    clean *= 0.1 / np.sqrt(np.mean(clean**2))
    noise = rng.standard_normal(n)
    noise *= np.sqrt(np.mean(clean**2) / np.mean(noise**2))
    return Waveform(clean + noise, cfg.sample_rate), Waveform(clean, cfg.sample_rate)


def _flatten(ws: WeightStore, names) -> np.ndarray:
    return np.concatenate([ws[n].ravel() for n in names])


def _unflatten(theta: np.ndarray, template: WeightStore, names) -> WeightStore:
    out = WeightStore()
    pos = 0
    for n in names:
        shape = template[n].shape
        size = int(np.prod(shape)) if shape else 1
        out[n] = theta[pos : pos + size].reshape(shape)
        pos += size
    return out


def spsa_train(cfg: ModelConfig | None = None, spsa: SpsaConfig | None = None) -> SpsaResult:
    """Two-evaluation SPSA descent of the composite loss on the toy task.

    The discriminator stays frozen at its random initialization; only the
    enhancement network's parameters move. Aborts with a diagnostic if the
    loss exceeds 10x its initial value.
    """
    cfg = cfg or micro_config()
    spsa = spsa or SpsaConfig()
    rng = np.random.default_rng(spsa.seed)

    noisy, clean = make_toy_task(cfg, seed=spsa.seed)
    ref_spec = stft(clean, cfg.fft_len, cfg.win_len, cfg.hop)
    disc = init_discriminator(WeightStore(), seed=spsa.seed)
    ws0 = init_weights(cfg, seed=spsa.seed)
    model = build_model(cfg)
    names = model.param_names()
    theta = _flatten(ws0, names)

    def evaluate(vec: np.ndarray) -> float:
        res = model.forward(noisy, _unflatten(vec, ws0, names))
        return evaluate_losses(res.spec, ref_spec, disc=disc).total

    big_a = 0.1 * spsa.iterations
    traj = np.empty(spsa.iterations)
    initial = None
    for k in range(spsa.iterations):
        loss = evaluate(theta)
        traj[k] = loss
        if initial is None:
            initial = loss
        if loss > 10.0 * initial:
            raise DivergenceError(
                f"iteration {k}: loss {loss:.6g} exceeds 10x initial {initial:.6g}"
            )
        ck = spsa.c / (k + 1) ** spsa.gamma
        ak = spsa.a / (k + 1 + big_a) ** spsa.alpha
        delta = rng.choice((-1.0, 1.0), size=theta.size)
        lp = evaluate(theta + ck * delta)
        lm = evaluate(theta - ck * delta)
        theta = theta - ak * (lp - lm) / (2.0 * ck) / delta

    w = min(spsa.smooth_window, spsa.iterations)
    init_s = float(traj[:w].mean())
    final_s = float(traj[-w:].mean())
    return SpsaResult(trajectory=traj, initial_smoothed=init_s, final_smoothed=final_s,
                      ratio=final_s / init_s, weights=_unflatten(theta, ws0, names))


# ---------------------------------------------------------------------------
# Capacity/complexity trends

def table2_trend(cfgs: list[ModelConfig] | None = None, duration_s: float = 1.0) -> list[dict]:
    """Parameter and FLOP figures per configuration (one dict per row)."""
    if cfgs is None:
        cfgs = [ModelConfig(n_blocks=n) for n in range(1, 6)]
    rows = []
    for cfg in cfgs:
        rows.append({
            "n_blocks": cfg.n_blocks,
            "channels": cfg.channels,
            "params": count_params(cfg),
            "flops": estimate_flops(cfg, duration_s),
        })
    return rows
