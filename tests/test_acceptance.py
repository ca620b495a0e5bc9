"""Acceptance gate: twelve verifiable claims about the built system, each
as one test emitting a single pass/fail line (via pytest -v). Stated
runtime bounds are asserted alongside the numeric tolerances.
"""
import time

import numpy as np
import numpy.testing as npt

from lort.attention import AttentionInput, count_ops, taylor_attention
from lort.layers import DenseStack, Norm, init_store, zero_store
from lort.local_refine import Lrc, cfn, lrc_block, tf_dlc
from lort.model import (
    Dsdcn,
    Lrtt,
    ModelConfig,
    dilated_dense,
    forward,
    init_weights,
    zero_weights,
)
from lort.objectives import consistency_project, loss_consistency, loss_phase, total_loss
from lort.signal import ComplexSpec, Waveform, istft, snr_db, stft
from lort.verify import (
    gradcheck_losses,
    spsa_train,
    table2_trend,
    taylor_error_sweep,
    taylor_reference,
)


class Clock:
    def __init__(self, limit_s):
        self.limit_s = limit_s
        self.t0 = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.t0
        assert elapsed < self.limit_s, f"runtime {elapsed:.1f}s exceeds {self.limit_s}s"
        return elapsed


def test_criterion_01_complexity_formulas_and_crossover():
    clock = Clock(1.0)
    for t in range(1, 17):
        for f in range(1, 17):
            for d in range(1, 17):
                ops = count_ops(t, f, d)
                assert ops.mhsa_ops == 4 * t * f * d * d + 2 * t * t * f * f * d
                assert ops.tmsa_ops == 18 * t * f * d + 2 * t * f * d * d
                assert (ops.tmsa_ops < ops.mhsa_ops) == (t * f > 9 - d)
    elapsed = clock.check()
    print(f"PASS criterion 1: complexity formulas exact on 16^3 scan ({elapsed:.2f}s)")


def test_criterion_02_taylor_linearization_and_error_order():
    clock = Clock(10.0)
    rng = np.random.default_rng(0)
    for grid in ((1, 4), (4, 4), (8, 8)):
        n = grid[0] * grid[1]
        ain = AttentionInput(rng.standard_normal((2, n, 6)),
                             rng.standard_normal((2, n, 6)),
                             rng.standard_normal((2, n, 6)))
        npt.assert_allclose(taylor_attention(ain), taylor_reference(ain), atol=1e-10)
    sweep = taylor_error_sweep(scales=(1e-1, 1e-2, 1e-3), trials=20, seed=0)
    assert abs(sweep.slope - 2.0) <= 0.3
    elapsed = clock.check()
    print(f"PASS criterion 2: taylor==bruteforce to 1e-10, sweep slope "
          f"{sweep.slope:.3f} ({elapsed:.2f}s)")


def test_criterion_03_stft_roundtrip_snr():
    clock = Clock(5.0)
    wf = Waveform(0.3 * np.random.default_rng(1).standard_normal(16000))
    snrs = {}
    for hop in (100, 120, 150):
        spec = stft(wf, 510, 510, hop)
        snrs[hop] = snr_db(wf.samples, istft(spec, len(wf)).samples)
        assert snrs[hop] >= 50.0
    elapsed = clock.check()
    print(f"PASS criterion 3: roundtrip SNR {{hop: dB}} = "
          f"{ {h: round(s) for h, s in snrs.items()} } ({elapsed:.2f}s)")


def test_criterion_04_consistency_loss():
    clock = Clock(5.0)
    rng = np.random.default_rng(2)
    for seed in range(3):
        wf = Waveform(np.random.default_rng(seed).standard_normal(3200))
        assert loss_consistency(stft(wf, 64, 64, 16)) <= 1e-10
    positives = 0
    for _ in range(100):
        spec = ComplexSpec(rng.standard_normal((20, 33)), rng.standard_normal((20, 33)),
                           64, 64, 16)
        if loss_consistency(spec) > 0:
            positives += 1
        assert loss_consistency(consistency_project(spec)) <= 1e-10
    assert positives == 100
    elapsed = clock.check()
    print(f"PASS criterion 4: fixed points, {positives}/100 inconsistent > 0, "
          f"idempotent projection ({elapsed:.2f}s)")


def test_criterion_05_phase_losses():
    clock = Clock(1.0)
    rng = np.random.default_rng(3)
    ref = rng.uniform(-np.pi, np.pi, (12, 9))
    assert loss_phase(ref, ref) == (0.0, 0.0, 0.0, 0.0)
    for k in (-2, -1, 1, 3):
        vals = loss_phase(ref + 2 * np.pi * k, ref)
        assert max(vals) <= 1e-12
    for c in (0.3, 1.0, 2.9):
        ip, gd, iaf, _ = loss_phase(ref + c, ref)
        npt.assert_allclose(ip, c, atol=1e-12)
        assert max(gd, iaf) <= 1e-12
    elapsed = clock.check()
    print(f"PASS criterion 5: equality zero, 2-pi invariance, constant offsets "
          f"({elapsed:.2f}s)")


def test_criterion_06_gradient_oracle():
    clock = Clock(30.0)
    result = gradcheck_losses(seed=0, instances=20)
    assert result.max_rel_err <= 1e-4
    elapsed = clock.check()
    print(f"PASS criterion 6: max_rel_err {result.max_rel_err:.3g} at "
          f"{result.argmax_location}, n={result.n_checked} ({elapsed:.2f}s)")


def test_criterion_07_residual_skeleton_identity():
    cfg = ModelConfig(n_blocks=1, channels=4, fft_len=64, win_len=64, hop=16)
    rng = np.random.default_rng(4)
    c = cfg.block_channels
    x = rng.standard_normal((1, c, 10, 9))
    lrc = Lrc("lrc", c)
    zeros = zero_store(lrc.manifest())
    npt.assert_array_equal(cfn(lrc, zeros, x), x)
    npt.assert_array_equal(lrc.dlc_t(zeros, x), x)
    npt.assert_array_equal(tf_dlc(lrc, zeros, x), x)
    npt.assert_array_equal(lrc_block(lrc, zeros, x), x)
    npt.assert_array_equal(Lrtt("block0", cfg)(zero_weights(cfg), x), x)

    layer = Dsdcn("embed", 4)
    ws = init_store(layer.manifest(), seed=5)  # offsets zero-initialized
    from lort.arrays import ConvSpec, conv2d
    y = rng.standard_normal((1, 4, 12, 11))
    plain = conv2d(conv2d(y, ws["embed.depthwise.w"], ws["embed.depthwise.b"],
                          ConvSpec(kernel=(3, 3), groups=4, padding=(1, 1))),
                   ws["embed.pointwise.w"], ws["embed.pointwise.b"],
                   ConvSpec(kernel=(1, 1)))
    npt.assert_allclose(layer(ws, y), plain, atol=1e-6)
    print("PASS criterion 7: zero-weight blocks are exact identities; "
          "zero-offset deformable conv matches plain depthwise-separable")


def conv_skeleton(stack):
    """The dense stack's own layers without their Norm sub-layers."""
    return DenseStack(tuple(sub for sub in layer if not isinstance(sub, Norm))
                      for layer in stack.layers)


def test_criterion_08_receptive_fields():
    cfg = ModelConfig(n_blocks=1, channels=4, fft_len=64, win_len=64, hop=16)
    dense = dilated_dense("dense", 4, cfg.densenet_dilations)
    ws = init_store(dense.manifest(), seed=6)  # biases stay zero
    x = np.zeros((1, 4, 65, 65))
    x[0, :, 32, 32] = 1.0
    def extent(mask):
        idx = np.flatnonzero(mask)
        return int(idx[-1] - idx[0] + 1)

    out = np.abs(conv_skeleton(dense)(ws, x))
    t_support = extent(np.any(out > 0, axis=(0, 1, 3)))
    f_support = extent(np.any(out > 0, axis=(0, 1, 2)))
    assert t_support == 31 and f_support == 31

    c = cfg.block_channels
    lrc = Lrc("lrc", c)
    ws_lrc = init_store(lrc.manifest(), seed=7)
    xi = np.zeros((1, c, 128, 3))
    xi[0, :, 64, 1] = 1.0
    dlc = lrc.dlc_t
    resid = xi + dlc.pw_out(ws_lrc, conv_skeleton(dlc.dense)(ws_lrc, dlc.pw_in(ws_lrc, xi))) - xi
    d_support = extent(np.any(np.abs(resid) > 0, axis=(0, 1, 3)))
    assert d_support == 109
    print(f"PASS criterion 8: impulse supports 31 (encoder stack) and "
          f"{d_support} (dense local conv)")


def test_criterion_09_capacity_trend():
    clock = Clock(120.0)
    rows = table2_trend(duration_s=1.0)  # the reference config at 1 to 5 blocks
    assert all(set(r) == {"n_blocks", "channels", "params", "flops"} for r in rows)
    assert [r["n_blocks"] for r in rows] == [1, 2, 3, 4, 5]
    p = [r["params"] for r in rows]
    f = [r["flops"] for r in rows]
    dp = np.diff(p)
    df = np.diff(f)
    assert dp.min() > 0 and df.min() > 0
    assert dp.max() / dp.min() - 1.0 <= 0.05
    assert df.max() / df.min() - 1.0 <= 0.05
    p4 = p[3]
    assert abs(p4 - 0.96e6) / 0.96e6 <= 0.25
    elapsed = clock.check()
    print(f"PASS criterion 9: per-block deltas {dp[0]} params / {df[0]/1e9:.3f}G flops "
          f"constant; params(N=4) = {p4/1e6:.3f}M ({elapsed:.1f}s)")


def test_criterion_10_end_to_end_contract():
    cfg = ModelConfig()
    wf = Waveform(0.2 * np.random.default_rng(8).standard_normal(32000))
    ws = init_weights(cfg, seed=0)
    clock = Clock(60.0)
    res = forward(wf, ws, cfg)
    elapsed = clock.check()
    assert len(res.wave) == 32000
    assert np.all(np.isfinite(res.wave.samples))
    assert np.all((res.mask > 0) & (res.mask < 2))
    assert np.all((res.phase > -np.pi) & (res.phase <= np.pi))
    res2 = forward(wf, ws, cfg)
    npt.assert_array_equal(res.wave.samples, res2.wave.samples)
    print(f"PASS criterion 10: 32000 samples out, mask/phase in range, "
          f"deterministic, forward {elapsed:.1f}s")


def test_criterion_11_toy_descent():
    clock = Clock(600.0)
    result = spsa_train()  # pinned defaults: 200 iterations, seed 7
    assert result.ratio <= 0.7
    elapsed = clock.check()
    print(f"PASS criterion 11: smoothed loss ratio {result.ratio:.3f} <= 0.7 "
          f"({elapsed:.0f}s)")


def test_criterion_12_composite_arithmetic():
    rep = total_loss(1, 1, 1, 0, 0, 1, 1)
    assert abs(rep.total - 1.45) <= 1e-12
    rng = np.random.default_rng(9)
    from lort.objectives import LossWeights
    comps = rng.uniform(0, 3, 7)
    w = LossWeights(*rng.uniform(0, 1, 5))
    r = total_loss(*comps, w)
    assert r.total == (w.a1 * r.l_ri + w.a2 * r.l_mag + w.a3 * r.l_pha
                       + w.a4 * r.l_con + w.a5 * r.l_g)
    print("PASS criterion 12: unit components total 1.45; weighted sum exact "
          "in every coefficient")
