import numpy as np
import numpy.testing as npt
import pytest

from conftest import init_store
from lort.arrays import ConvSpec, conv2d
from lort.errors import InvalidInputError, InvalidParameterError, WeightLookupError
from lort.model import (
    Dsdcn,
    ModelConfig,
    build_model,
    count_params,
    dsdcn_embed,
    encode,
    estimate_flops,
    forward,
    init_weights,
    lrtt_block,
    zero_weights,
)
from lort.signal import Waveform, snr_db
from lort.weights import WeightStore


MICRO = ModelConfig(n_blocks=1, channels=4, fft_len=64, win_len=64, hop=16)


def noise(n, seed=0, scale=0.1):
    return Waveform(scale * np.random.default_rng(seed).standard_normal(n))


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        ModelConfig(n_blocks=0)
    with pytest.raises(InvalidParameterError):
        ModelConfig(channels=3)
    with pytest.raises(InvalidParameterError):
        ModelConfig(densenet_dilations=(1, 2, 4))  # length != depth
    with pytest.raises(InvalidParameterError):
        ModelConfig(densenet_depth=4, densenet_dilations=(1, 2, 4, 6))
    with pytest.raises(InvalidParameterError):
        ModelConfig(densenet_depth=4, densenet_dilations=(1, 2, 8, 4))
    cfg = ModelConfig()
    assert cfg.freq_bins == 256 and cfg.enc_bins == 128 and cfg.block_channels == 48


@pytest.mark.parametrize("n", [3000, 4001, 5003])
def test_forward_output_length_matches_input(n):
    ws = init_weights(MICRO, seed=0)
    res = forward(noise(n), ws, MICRO)
    assert len(res.wave) == n
    assert np.all(np.isfinite(res.wave.samples))
    assert np.all((res.mask > 0) & (res.mask < 2))
    assert np.all((res.phase > -np.pi) & (res.phase <= np.pi))


def test_forward_rejects_other_sample_rate():
    ws = init_weights(MICRO, seed=0)
    wf = Waveform(noise(4000).samples, sample_rate=8000)
    with pytest.raises(InvalidInputError, match="8000 Hz.*16000 Hz"):
        forward(wf, ws, MICRO)


def test_forward_is_deterministic():
    ws = init_weights(MICRO, seed=1)
    wf = noise(4000, seed=2)
    a = forward(wf, ws, MICRO)
    b = forward(wf, ws, MICRO)
    npt.assert_array_equal(a.wave.samples, b.wave.samples)
    npt.assert_array_equal(a.mask, b.mask)


def test_zero_weights_pass_through_with_noisy_phase():
    # zero slopes make the mask exactly 1, so the input is reconstructed
    wf = noise(4000, seed=3)
    res = forward(wf, zero_weights(MICRO), MICRO, use_noisy_phase=True)
    npt.assert_array_equal(res.mask, np.ones_like(res.mask))
    assert snr_db(wf.samples, res.wave.samples) >= 100.0


def test_missing_weights_raise_lookup_error():
    ws = init_weights(MICRO, seed=0)
    partial = WeightStore()
    for i, (name, arr) in enumerate(ws.items()):
        if i > 5:
            break
        partial[name] = arr
    with pytest.raises(WeightLookupError, match="missing"):
        forward(noise(4000), partial, MICRO)


def test_weight_file_roundtrip_preserves_forward(tmp_path):
    ws = init_weights(MICRO, seed=4)
    path = tmp_path / "w.bin"
    ws.save(str(path))
    back = WeightStore.load(str(path))
    wf = noise(4000, seed=5)
    a = forward(wf, ws, MICRO)
    b = forward(wf, back, MICRO)
    npt.assert_allclose(a.wave.samples, b.wave.samples, atol=1e-4)  # f32 storage


def test_dsdcn_zero_offsets_equal_plain_depthwise_separable():
    c = 4
    layer = Dsdcn("embed", c)
    ws = init_store(layer.manifest(), seed=6)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1, c, 10, 9))
    got = layer(ws, x)
    dw = conv2d(x, ws["embed.depthwise.w"], ws["embed.depthwise.b"],
                ConvSpec(kernel=(3, 3), groups=c, padding=(1, 1)))
    want = conv2d(dw, ws["embed.pointwise.w"], ws["embed.pointwise.b"],
                  ConvSpec(kernel=(1, 1)))
    npt.assert_allclose(got, want, atol=1e-6)


def test_dsdcn_nonzero_offsets_change_the_output():
    c = 4
    layer = Dsdcn("embed", c)
    ws = init_store(layer.manifest(), seed=8)
    ws["embed.offset.w"] = 0.1 * np.random.default_rng(9).standard_normal(
        ws["embed.offset.w"].shape)
    x = np.random.default_rng(10).standard_normal((1, c, 10, 9))
    got = layer(ws, x)
    dw = conv2d(x, ws["embed.depthwise.w"], ws["embed.depthwise.b"],
                ConvSpec(kernel=(3, 3), groups=c, padding=(1, 1)))
    want = conv2d(dw, ws["embed.pointwise.w"], ws["embed.pointwise.b"],
                  ConvSpec(kernel=(1, 1)))
    assert not np.allclose(got, want, atol=1e-6)
    assert np.all(np.isfinite(got))


def test_stage_wrappers_shapes():
    ws = init_weights(MICRO, seed=11)
    rng = np.random.default_rng(12)
    feat = rng.standard_normal((1, 2, 20, MICRO.freq_bins))
    enc = encode(feat, ws, MICRO)
    assert enc.shape == (1, MICRO.channels, 20, MICRO.enc_bins)
    emb = dsdcn_embed(enc, ws, MICRO)
    assert emb.shape == enc.shape
    xb = rng.standard_normal((1, MICRO.block_channels, 10, 8))
    out = lrtt_block(xb, ws, MICRO, 0)
    assert out.shape == xb.shape


def test_lrtt_block_zero_weights_is_identity():
    ws = zero_weights(MICRO)
    x = np.random.default_rng(13).standard_normal((1, MICRO.block_channels, 8, 9))
    npt.assert_array_equal(lrtt_block(x, ws, MICRO, 0), x)


def test_count_params_matches_store_and_is_monotone():
    ws = init_weights(MICRO, seed=0)
    assert count_params(MICRO) == ws.n_params
    bigger = ModelConfig(n_blocks=2, channels=4, fft_len=64, win_len=64, hop=16)
    assert count_params(bigger) > count_params(MICRO)


def test_estimate_flops_grows_with_duration():
    f1 = estimate_flops(MICRO, 0.25)
    f2 = estimate_flops(MICRO, 0.5)
    assert 0 < f1 < f2


def test_manifest_names_are_unique():
    names = [n for n, _, _ in build_model(MICRO).manifest()]
    assert len(names) == len(set(names))
