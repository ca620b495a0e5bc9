import numpy as np
import numpy.testing as npt
import pytest

from lort.errors import DivergenceError, InvalidParameterError
from lort.model import ModelConfig
from lort.verify import (
    SpsaConfig,
    finite_diff,
    gradcheck_losses,
    make_toy_task,
    micro_config,
    spsa_train,
    table2_trend,
    taylor_error_sweep,
)


def test_finite_diff_on_analytic_functions():
    theta = np.array([1.0, -2.0, 0.5])
    npt.assert_allclose(finite_diff(lambda t: float(np.sum(t**2)), theta),
                        2 * theta, atol=1e-8)
    npt.assert_allclose(finite_diff(lambda t: 3.0, theta), 0.0, atol=1e-12)
    npt.assert_allclose(finite_diff(lambda t: float(np.sum(np.sin(t))), theta),
                        np.cos(theta), atol=1e-8)


def test_finite_diff_rejects_non_finite_and_bad_eps():
    with pytest.raises(DivergenceError, match="coordinate"):
        finite_diff(lambda t: float("inf") if t[0] < 0 else 0.0, np.array([0.0]))
    with pytest.raises(InvalidParameterError):
        finite_diff(lambda t: 0.0, np.zeros(2), eps=0.0)


def test_gradcheck_losses_passes_and_is_deterministic():
    a = gradcheck_losses(seed=3, instances=4)
    b = gradcheck_losses(seed=3, instances=4)
    assert a.max_rel_err <= 1e-4
    assert a.max_rel_err == b.max_rel_err and a.argmax_location == b.argmax_location
    assert a.n_checked >= 1


@pytest.mark.parametrize("kwargs, match", [
    (dict(instances=0), r"instances must be an int >= 1, got 0"),
    (dict(instances=1.5), r"instances must be an int >= 1, got 1\.5"),
    (dict(size=1), r"size must be an int >= 3, got 1"),
    (dict(size=2), r"size must be an int >= 3, got 2"),
    (dict(size=4.0), r"size must be an int >= 3, got 4\.0"),
    (dict(instances=True), r"instances must be an int >= 1, got True"),
    (dict(size=True), r"size must be an int >= 3, got True"),
])
def test_gradcheck_losses_rejects_a_run_without_checks(kwargs, match):
    with pytest.raises(InvalidParameterError, match=match):
        gradcheck_losses(**kwargs)


def test_gradcheck_harness_detects_a_sign_flip():
    # self-test: a corrupted analytic gradient must show up as a large error
    from lort.objectives import grad_mag, loss_mag
    rng = np.random.default_rng(0)
    em, rm = np.abs(rng.standard_normal((6, 6))), np.abs(rng.standard_normal((6, 6)))
    corrupted = -grad_mag(em, rm)
    fd = finite_diff(lambda a: loss_mag(a, rm), em)
    rel = np.abs(corrupted - fd) / np.maximum(np.abs(fd), 1e-6)
    assert rel.max() > 1.5


def test_taylor_error_sweep_slope_and_monotonicity():
    r = taylor_error_sweep(trials=10, seed=1)
    errs = [e for _, e in r.points]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert 1.7 <= r.slope <= 2.3
    with pytest.raises(InvalidParameterError):
        taylor_error_sweep(scales=(1e-3, 1e-2))


@pytest.mark.parametrize("scales", [(), (0.1,), (np.nan, 0.01), (np.inf, 0.01), (0.1, 0.0)])
def test_taylor_error_sweep_needs_two_finite_positive_scales(scales):
    # a slope needs two points; a NaN or inf scale has no error to fit
    with pytest.raises(InvalidParameterError, match=r"scales must be two or more finite"):
        taylor_error_sweep(scales=scales, trials=1)


@pytest.mark.parametrize("trials", [0, -1, 2.5, True])
def test_taylor_error_sweep_needs_a_trial(trials):
    with pytest.raises(InvalidParameterError, match=r"trials must be an int >= 1"):
        taylor_error_sweep(trials=trials)


def test_make_toy_task_is_zero_db_and_deterministic():
    cfg = micro_config()
    noisy, clean = make_toy_task(cfg, seed=5)
    noisy2, _ = make_toy_task(cfg, seed=5)
    npt.assert_array_equal(noisy.samples, noisy2.samples)
    noise = noisy.samples - clean.samples
    snr = 10 * np.log10(np.sum(clean.samples**2) / np.sum(noise**2))
    assert abs(snr) < 0.5


@pytest.mark.parametrize("duration_s", [-1.0, 0.0, 1e-5, np.nan, np.inf])
def test_make_toy_task_rejects_a_duration_without_samples(duration_s):
    with pytest.raises(InvalidParameterError, match=r"duration_s must be finite and hold"):
        make_toy_task(micro_config(), duration_s=duration_s)


def test_spsa_zero_step_keeps_trajectory_constant():
    r = spsa_train(spsa=SpsaConfig(iterations=3, a=0.0, c=0.02, seed=1))
    assert np.all(r.trajectory == r.trajectory[0])


def test_spsa_is_deterministic_for_fixed_seed():
    a = spsa_train(spsa=SpsaConfig(iterations=3, seed=9))
    b = spsa_train(spsa=SpsaConfig(iterations=3, seed=9))
    npt.assert_array_equal(a.trajectory, b.trajectory)


def test_spsa_config_validation():
    with pytest.raises(InvalidParameterError):
        SpsaConfig(iterations=0)
    with pytest.raises(InvalidParameterError):
        SpsaConfig(c=0.0)
    with pytest.raises(InvalidParameterError):
        SpsaConfig(a=-1.0)
    # NaN compares false both ways, so each bound names its field
    for kwargs, match in [(dict(a=np.nan), r"a must be finite and >= 0, got nan"),
                          (dict(a=np.inf), r"a must be finite and >= 0, got inf"),
                          (dict(c=np.inf), r"c must be finite and > 0, got inf"),
                          (dict(c=np.nan), r"c must be finite and > 0, got nan"),
                          (dict(iterations=2.5), r"iterations must be an int >= 1, got 2\.5"),
                          (dict(iterations=True), r"iterations must be an int >= 1, got True")]:
        with pytest.raises(InvalidParameterError, match=match):
            SpsaConfig(**kwargs)


def test_table2_trend_reports_micro_rows():
    base = dict(channels=4, fft_len=64, win_len=64, hop=16)
    cfgs = [ModelConfig(n_blocks=n, **base) for n in (1, 2)]
    rows = table2_trend(cfgs, duration_s=0.25)
    assert [r["n_blocks"] for r in rows] == [1, 2]
    assert rows[1]["params"] > rows[0]["params"]
    assert rows[1]["flops"] > rows[0]["flops"]
    assert set(rows[0]) == {"n_blocks", "channels", "params", "flops"}
