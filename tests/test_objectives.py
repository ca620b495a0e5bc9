import numpy as np
import numpy.testing as npt
import pytest

from lort.errors import InvalidParameterError, ShapeError
from lort.model import init_discriminator
from lort.objectives import (
    LossReport,
    LossWeights,
    anti_wrap,
    consistency_project,
    discriminate,
    evaluate_losses,
    grad_mag,
    grad_phase,
    grad_ri,
    loss_consistency,
    loss_g,
    loss_mag,
    loss_phase,
    loss_ri,
    total_loss,
)
from lort.signal import ComplexSpec, Waveform, decompose, stft
from lort.weights import WeightStore


def make_spec(seed=0, t=8, f=8):
    rng = np.random.default_rng(seed)
    fft = 2 * (f - 1)
    return ComplexSpec(rng.standard_normal((t, f)), rng.standard_normal((t, f)),
                       fft, fft, fft // 2)


def test_loss_weights_validation():
    with pytest.raises(InvalidParameterError):
        LossWeights(a1=-0.1)
    with pytest.raises(InvalidParameterError):
        LossWeights(a3=np.inf)


def test_loss_ri_mag_basics():
    a = make_spec(0)
    assert loss_ri(a, a) == 0.0
    zero = ComplexSpec(np.zeros((4, 8)), np.zeros((4, 8)), 14, 14, 7)
    ones = ComplexSpec(np.ones((4, 8)), np.ones((4, 8)), 14, 14, 7)
    npt.assert_allclose(loss_ri(ones, zero), 2.0)
    npt.assert_allclose(loss_mag(np.ones((3, 3)), np.zeros((3, 3))), 1.0)
    with pytest.raises(ShapeError):
        loss_mag(np.ones((2, 2)), np.ones((3, 3)))


def test_grad_ri_and_mag_match_finite_differences():
    from lort.verify import finite_diff
    est, ref = make_spec(1), make_spec(2)
    gre, gim = grad_ri(est, ref)
    fd = finite_diff(
        lambda a: loss_ri(ComplexSpec(a, est.im, est.fft_len, est.win_len, est.hop), ref),
        est.re)
    npt.assert_allclose(gre, fd, atol=1e-8)
    em, rm = np.abs(est.re), np.abs(ref.re)
    npt.assert_allclose(grad_mag(em, rm), finite_diff(lambda a: loss_mag(a, rm), em),
                        atol=1e-8)


def test_anti_wrap_properties():
    assert anti_wrap(0.0) == 0.0
    npt.assert_allclose(anti_wrap(np.pi), np.pi)
    npt.assert_allclose(anti_wrap(3 * np.pi), np.pi)
    npt.assert_allclose(anti_wrap(2 * np.pi), 0.0, atol=1e-15)
    x = np.random.default_rng(0).uniform(-20, 20, 200)
    for k in range(-3, 4):
        npt.assert_allclose(anti_wrap(x + 2 * np.pi * k), anti_wrap(x), atol=1e-12)
    assert np.all((anti_wrap(x) >= 0) & (anti_wrap(x) <= np.pi))


def test_loss_phase_cases():
    rng = np.random.default_rng(1)
    ref = rng.uniform(-np.pi, np.pi, (6, 7))
    assert loss_phase(ref, ref) == (0.0, 0.0, 0.0, 0.0)
    ip, gd, iaf, pha = loss_phase(ref + 2 * np.pi, ref)
    assert max(ip, gd, iaf) < 1e-12
    c = 0.8
    ip, gd, iaf, pha = loss_phase(ref + c, ref)
    npt.assert_allclose(ip, c, atol=1e-12)
    npt.assert_allclose([gd, iaf], 0.0, atol=1e-12)
    npt.assert_allclose(pha, ip + gd + iaf)


def test_grad_phase_matches_finite_differences_away_from_kinks():
    from lort.verify import finite_diff
    rng = np.random.default_rng(2)
    ref = rng.uniform(-1.0, 1.0, (5, 5))
    est = ref + rng.uniform(0.1, 1.2, (5, 5))
    g_ip, g_gd, g_iaf = grad_phase(est, ref)
    for g, idx in ((g_ip, 0), (g_gd, 1), (g_iaf, 2)):
        fd = finite_diff(lambda a, i=idx: loss_phase(a, ref)[i], est)
        npt.assert_allclose(g, fd, atol=1e-7)


def test_consistency_fixed_point_and_idempotence():
    # hop divides the length, so resynthesis recovers the exact source
    wf = Waveform(np.random.default_rng(3).standard_normal(3200))
    spec = stft(wf, 64, 64, 16)
    assert loss_consistency(spec) <= 1e-10
    bad = make_spec(4, t=10, f=33)
    assert loss_consistency(bad) > 0
    assert loss_consistency(consistency_project(bad)) <= 1e-10


def test_discriminator_score_and_losses():
    ws = init_discriminator(WeightStore(), seed=0)
    rng = np.random.default_rng(7)
    ref = np.abs(rng.standard_normal((20, 33)))
    est = np.abs(rng.standard_normal((20, 33)))
    s = discriminate(ref, est, ws)
    assert 0.0 < s < 1.0
    assert loss_g(ref, est, ws) == (discriminate(ref, est, ws) - 1.0) ** 2
    with pytest.raises(InvalidParameterError):
        discriminate(-ref, est, ws)


def test_total_loss_arithmetic_and_linearity():
    rep = total_loss(1, 1, 1, 0, 0, 1, 1)
    npt.assert_allclose(rep.total, 1.45, atol=1e-12)
    assert total_loss(0, 0, 0, 0, 0, 0, 0).total == 0.0
    rng = np.random.default_rng(8)
    comps = rng.uniform(0, 2, 7)
    w = LossWeights(*rng.uniform(0, 1, 5))
    rep = total_loss(*comps, w)
    assert rep.total == (w.a1 * rep.l_ri + w.a2 * rep.l_mag + w.a3 * rep.l_pha
                         + w.a4 * rep.l_con + w.a5 * rep.l_g)
    w0 = LossWeights(w.a1, w.a2, w.a3, w.a4, 0.0)
    npt.assert_allclose(total_loss(*comps, w).total - total_loss(*comps, w0).total,
                        w.a5 * rep.l_g, atol=1e-12)


def test_report_line_format():
    line = total_loss(1, 1, 1, 0, 0, 1, 1).to_line()
    assert line.startswith("l_ri=1 ")
    assert "total=1.45" in line
    assert isinstance(total_loss(0, 0, 0, 0, 0, 0, 0), LossReport)


def test_evaluate_losses_zero_at_identity():
    spec = stft(Waveform(np.random.default_rng(9).standard_normal(3200)), 64, 64, 16)
    disc = init_discriminator(WeightStore(), seed=0)
    rep = evaluate_losses(spec, spec, disc=disc)
    # every term but the critic's is zero at identity
    assert rep.l_ri == rep.l_mag == rep.l_pha == 0.0
    assert rep.l_con <= 1e-10
    mag = decompose(spec)[0]
    assert rep.l_g == loss_g(mag, mag, disc)
    assert abs(rep.total - LossWeights().a5 * rep.l_g) <= 1e-10
    # every call scores the critic, named by keyword
    with pytest.raises(TypeError):
        evaluate_losses(spec, spec)
    with pytest.raises(TypeError):
        evaluate_losses(spec, spec, None, disc)


def test_evaluate_losses_takes_the_polar_planes_of_decompose():
    """The report matches the same terms built from np.hypot / np.arctan2
    (decompose only folds a phase of -pi to pi, which anti_wrap ignores)."""
    import lort
    from lort.verify import make_toy_task, micro_config
    cfg = micro_config()
    noisy, clean = make_toy_task(cfg, seed=7)
    ref = stft(clean, cfg.fft_len, cfg.win_len, cfg.hop)
    disc = init_discriminator(WeightStore(), seed=7)
    est = lort.forward(noisy, lort.init_weights(cfg, seed=7), cfg).spec
    got = evaluate_losses(est, ref, disc=disc)
    est_m, ref_m = np.hypot(est.re, est.im), np.hypot(ref.re, ref.im)
    l_ip, l_gd, l_iaf, _ = loss_phase(np.arctan2(est.im, est.re), np.arctan2(ref.im, ref.re))
    want = total_loss(loss_ri(est, ref), loss_mag(est_m, ref_m), l_ip, l_gd, l_iaf,
                      loss_consistency(est), loss_g(ref_m, est_m, disc))
    assert abs(got.total - want.total) <= 1e-12 * abs(want.total), (got, want)
