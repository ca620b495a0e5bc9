import dataclasses
import hashlib
import importlib
import inspect
import math
import pkgutil

import numpy as np
import numpy.testing as npt
import pytest

from lort.arrays import ConvSpec, FlopMeter, conv2d
from lort.errors import InvalidInputError, InvalidParameterError, ShapeError, WeightLookupError
from lort.layers import init_store
from lort.model import (
    Discriminator,
    Dsdcn,
    Encoder,
    Lrtt,
    ModelConfig,
    build_model,
    count_params,
    estimate_flops,
    estimate_macs,
    forward,
    init_discriminator,
    init_weights,
    zero_weights,
)
import lort
from lort import attention, local_refine
from lort.attention import AttentionInput
from lort.local_refine import Dlc, Lrc
from lort.objectives import LossWeights, SegmentalSnrOracle, discriminate
from lort.verify import SpsaConfig, micro_config, table2_trend
from lort.signal import Waveform, decompose, istft, recompose, snr_db, stft
from lort.weights import WeightStore


MICRO = ModelConfig(n_blocks=1, channels=4, fft_len=64, win_len=64, hop=16)
TWO_BLOCKS = ModelConfig(n_blocks=2, channels=4, fft_len=64, win_len=64, hop=16)


def noise(n, seed=0, scale=0.1):
    return Waveform(scale * np.random.default_rng(seed).standard_normal(n))


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        ModelConfig(n_blocks=0)
    with pytest.raises(InvalidParameterError):
        ModelConfig(channels=3)
    # a field of the wrong type or a multiplier below 1 is named with its value
    for kwargs, match in [(dict(channels=4.0), r"channels must be an int, got 4\.0"),
                          (dict(hop=16.0), r"hop must be an int, got 16\.0"),
                          (dict(n_blocks=1.0), r"n_blocks must be an int, got 1\.0"),
                          (dict(n_blocks=True), r"n_blocks must be an int, got True"),
                          (dict(fft_len=64.5), r"fft_len must be an int, got 64\.5"),
                          (dict(block_channel_mult=0), r"block_channel_mult must be >= 1, got 0")]:
        with pytest.raises(InvalidParameterError, match=match):
            ModelConfig(**kwargs)
    # STFT settings no forward can run: window longer than the FFT, hop
    # longer than the window, and a hop the Hann window cannot overlap-add
    for stft_args, match in [((16, 31, 16), r"win_len=31, fft_len=16"),
                             ((64, 32, 40), r"hop=40, win_len=32"),
                             ((64, 64, 64), r"win_len=64 with hop=64 is not invertible")]:
        fft_len, win_len, hop = stft_args
        with pytest.raises(InvalidParameterError, match=match):
            ModelConfig(fft_len=fft_len, win_len=win_len, hop=hop, channels=4, n_blocks=1)
    cfg = ModelConfig()
    assert cfg.freq_bins == 256 and cfg.enc_bins == 128 and cfg.block_channels == 48


def test_settable_surface_is_pinned():
    assert {f.name for f in dataclasses.fields(ModelConfig)} == {
        "n_blocks", "channels", "fft_len", "win_len", "hop", "block_channel_mult"}
    assert {f.name for f in dataclasses.fields(SpsaConfig)} == {"iterations", "c", "a", "seed"}
    # the fixed settings stay readable from a config
    cfg = micro_config()
    assert cfg.heads == 4 and cfg.densenet_dilations == (1, 2, 4, 8)
    assert cfg.sample_rate == 16000
    assert LossWeights(*cfg.loss_weights) == LossWeights()
    for name, value in [("heads", 2), ("sample_rate", 8000), ("densenet_dilations", (1, 2)),
                        ("loss_weights", (1.0,) * 5)]:
        with pytest.raises(TypeError):
            ModelConfig(**{name: value})
    for name in ("alpha", "gamma", "smooth_window"):
        with pytest.raises(TypeError):
            SpsaConfig(**{name: 1})
    with pytest.raises(TypeError):
        SegmentalSnrOracle(frame_s=0.02)
    # the dense local convolution is fixed by its layer, not by a config
    assert Dlc.KERNEL == 19 and Dlc.DILATIONS == (2, 4)
    assert list(inspect.signature(Dlc).parameters) == ["name", "channels", "axis"]
    assert list(inspect.signature(Lrc).parameters) == ["name", "channels"]
    assert not hasattr(lort, "DlcConfig") and not hasattr(local_refine, "DlcConfig")
    assert not hasattr(ModelConfig, "dlc")
    # attention inputs carry only the stacks attention reads
    assert {f.name for f in dataclasses.fields(AttentionInput)} == {"q", "k", "v"}


def test_every_export_resolves():
    # a name left in an __all__ after its definition went fails here
    checked = 0
    for info in pkgutil.iter_modules(lort.__path__):
        module = importlib.import_module(f"lort.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"lort.{info.name}.__all__ names missing {name!r}"
            checked += 1
    assert checked >= 50


def test_every_accepted_config_runs_forward():
    # small random configs: ModelConfig rejects each one forward cannot run
    rng = np.random.default_rng(0)
    ran = 0
    for i in range(80):
        win_len = int(rng.integers(1, 97))
        kwargs = dict(n_blocks=int(rng.integers(1, 3)), channels=int(rng.choice([2, 4])),
                      fft_len=max(1, win_len + int(rng.integers(-4, 33))), win_len=win_len,
                      hop=int(rng.integers(1, win_len + 5)))
        try:
            cfg = ModelConfig(**kwargs)
        except InvalidParameterError:
            continue
        res = forward(noise(4000, seed=i), init_weights(cfg, seed=i), cfg)
        assert len(res.wave) == 4000, kwargs
        ran += 1
    assert 10 <= ran <= 70  # both outcomes are exercised


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
    # zero slopes make the mask exactly 1, so resynthesizing the masked
    # magnitude with the noisy phase reconstructs the input
    wf = noise(4000, seed=3)
    res = forward(wf, zero_weights(MICRO), MICRO)
    npt.assert_array_equal(res.mask, np.ones_like(res.mask))
    spec = stft(wf, MICRO.fft_len, MICRO.win_len, MICRO.hop)
    mag, phase = decompose(spec)
    wave = istft(recompose(spec, res.mask * mag, phase), len(wf))
    assert snr_db(wf.samples, wave.samples) >= 100.0


def test_missing_weights_raise_lookup_error():
    ws = init_weights(MICRO, seed=0)
    partial = WeightStore()
    for i, (name, arr) in enumerate(ws.items()):
        if i > 5:
            break
        partial[name] = arr
    with pytest.raises(WeightLookupError, match="missing"):
        forward(noise(4000), partial, MICRO)


def test_forward_rejects_weights_of_another_config():
    # every name exists, but the convs were built for 8 channels, not 4
    ws = init_weights(ModelConfig(n_blocks=1, channels=8, fft_len=64, win_len=64, hop=16))
    with pytest.raises(ShapeError, match=r"'encoder\.in_conv\.w'.*\(8, 2, 1, 1\).*\(4, 2, 1, 1\)"):
        forward(noise(4000), ws, MICRO)


def test_forward_rejects_tensors_no_layer_declares():
    ws = init_weights(TWO_BLOCKS)
    with pytest.raises(WeightLookupError, match=r"no layer .* declares: \['block1\."):
        forward(noise(4000), ws, MICRO)
    # the critic's tensors may share the store
    ws = init_discriminator(init_weights(MICRO), seed=1)
    assert len(forward(noise(4000), ws, MICRO).wave) == 4000


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


def bilinear_dsdcn_oracle(ws, x, off, name="embed"):
    """Deformable depthwise conv, one bilinear sample at a time, then the
    pointwise conv; samples outside the plane read zero."""
    b, c, t, f = x.shape
    w, bias = ws[f"{name}.depthwise.w"], ws[f"{name}.depthwise.b"]

    def pixel(i, ch, y, z):
        inside = 0 <= y < t and 0 <= z < f
        return x[i, ch, y, z] if inside else 0.0

    dw = np.zeros_like(x)
    outside = 0
    for i in range(b):
        for ch in range(c):
            for y in range(t):
                for z in range(f):
                    acc = 0.0
                    for m in range(9):
                        a, cc = divmod(m, 3)
                        pt = y + a - 1 + off[i, 2 * m, y, z]
                        pf = z + cc - 1 + off[i, 2 * m + 1, y, z]
                        y0, z0 = math.floor(pt), math.floor(pf)
                        wy, wz = pt - y0, pf - z0
                        outside += not (0 <= y0 and y0 + 1 < t and 0 <= z0 and z0 + 1 < f)
                        sample = ((1 - wy) * (1 - wz) * pixel(i, ch, y0, z0)
                                  + (1 - wy) * wz * pixel(i, ch, y0, z0 + 1)
                                  + wy * (1 - wz) * pixel(i, ch, y0 + 1, z0)
                                  + wy * wz * pixel(i, ch, y0 + 1, z0 + 1))
                        acc += w[ch, 0, a, cc] * sample
                    dw[i, ch, y, z] = acc + bias[ch]
    pw = np.einsum("oc,bctf->botf", ws[f"{name}.pointwise.w"][:, :, 0, 0], dw)
    return pw + ws[f"{name}.pointwise.b"][:, None, None], outside


def test_dsdcn_batch_matches_a_per_pixel_bilinear_oracle():
    c = 3
    layer = Dsdcn("embed", c)
    ws = init_store(layer.manifest(), seed=15)
    rng = np.random.default_rng(16)
    # offsets of up to a few pixels, so many taps sample outside the plane
    ws["embed.offset.w"] = 0.5 * rng.standard_normal(ws["embed.offset.w"].shape)
    ws["embed.offset.b"] = rng.uniform(-2.5, 2.5, ws["embed.offset.b"].shape)
    x = rng.standard_normal((2, c, 6, 5))
    off = layer.offset(ws, x)
    want, outside = bilinear_dsdcn_oracle(ws, x, off)
    assert 0 < outside < 2 * c * 6 * 5 * 9
    npt.assert_allclose(layer(ws, x), want, rtol=1e-12, atol=1e-14)


def test_lrtt_batch_equals_the_items_stacked():
    ws = init_weights(MICRO, seed=17)
    rng = np.random.default_rng(18)
    for name in list(ws):
        if ".msar." in name:
            ws[name] = 0.3 * rng.standard_normal(ws[name].shape)
    block = Lrtt("block0", MICRO)
    x = rng.standard_normal((2, MICRO.block_channels, 6, 5))
    npt.assert_array_equal(block(ws, x), np.concatenate([block(ws, x[:1]), block(ws, x[1:])]))


def test_stage_layers_shapes():
    ws = init_weights(MICRO, seed=11)
    rng = np.random.default_rng(12)
    feat = rng.standard_normal((1, 2, 20, MICRO.freq_bins))
    enc = Encoder(MICRO)(ws, feat)
    assert enc.shape == (1, MICRO.channels, 20, MICRO.enc_bins)
    emb = Dsdcn("embed", MICRO.channels)(ws, enc)
    assert emb.shape == enc.shape
    xb = rng.standard_normal((1, MICRO.block_channels, 10, 8))
    out = Lrtt("block0", MICRO)(ws, xb)
    assert out.shape == xb.shape


def test_lrtt_block_zero_weights_is_identity():
    ws = zero_weights(MICRO)
    x = np.random.default_rng(13).standard_normal((1, MICRO.block_channels, 8, 9))
    npt.assert_array_equal(Lrtt("block0", MICRO)(ws, x), x)


def test_count_params_matches_store_and_is_monotone():
    ws = init_weights(MICRO, seed=0)
    assert count_params(MICRO) == ws.n_params
    bigger = ModelConfig(n_blocks=2, channels=4, fft_len=64, win_len=64, hop=16)
    assert count_params(bigger) > count_params(MICRO)


def test_estimate_flops_grows_with_duration():
    f1 = estimate_flops(MICRO, 0.25)
    f2 = estimate_flops(MICRO, 0.5)
    assert 0 < f1 < f2


def test_forward_macs_are_linear_in_duration(monkeypatch):
    """The linear-complexity claim, measured end to end: a full forward
    never runs softmax attention, and its MACs scale as duration**1."""
    def no_softmax(*args, **kwargs):
        raise AssertionError("softmax attention reached from forward")

    monkeypatch.setattr(attention, "softmax_attention", no_softmax)
    cfg = micro_config()
    ws = init_weights(cfg)
    rng = np.random.default_rng(17)
    durations = (0.25, 0.5, 1.0)
    macs = []
    for d in durations:
        with FlopMeter() as meter:
            forward(Waveform(0.1 * rng.standard_normal(int(d * cfg.sample_rate))), ws, cfg)
        macs.append(meter.macs)
    slope = np.polyfit(np.log(durations), np.log(macs), 1)[0]
    assert abs(slope - 1.0) <= 0.01, (slope, macs)


def test_negative_duration_names_the_parameter():
    for estimate in (estimate_macs, estimate_flops, lambda cfg, d: table2_trend([cfg], d)):
        with pytest.raises(InvalidParameterError, match=r"duration_s .*-1"):
            estimate(MICRO, -1.0)


def test_manifest_names_are_unique():
    names = [n for n, _, _ in build_model(MICRO).manifest()]
    assert len(names) == len(set(names))


# sha256 of the "name shape init" manifest lines, recorded before the layers
# were folded into declare-and-apply objects; any rename, reshape, reorder or
# init change of a parameter changes it.
MANIFEST_SHA256 = {
    "reference": "d42a78002d7e9005adb5172cef326ad449f307d1125c0cf45490c6a97ec28a11",
    "micro": "2b8dc0ceb81e8a83ae7b4dcc2022a2aff728fd12aea55ea1869ab54fa493b216",
    "disc": "7719d5a62440373b746de37a3a9efb130b9e08bc0d9db9b275f0835857cd7034",
}


def manifest_sha256(manifest):
    lines = "".join(f"{n} {'x'.join(map(str, s))} {k}\n" for n, s, k in manifest)
    return hashlib.sha256(lines.encode()).hexdigest()


def test_manifest_fingerprints_are_pinned():
    ref = list(build_model(ModelConfig()).manifest())
    assert len(ref) == 349
    assert sum(math.prod(shape) for _, shape, _ in ref) == 987_345
    assert manifest_sha256(ref) == MANIFEST_SHA256["reference"]
    assert manifest_sha256(build_model(micro_config()).manifest()) == MANIFEST_SHA256["micro"]
    assert manifest_sha256(Discriminator().manifest()) == MANIFEST_SHA256["disc"]


class RecordingStore(WeightStore):
    """A copy of a store that records every name looked up in it."""

    def __init__(self, ws):
        super().__init__()
        for name, arr in ws.items():
            self[name] = arr
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)


@pytest.mark.parametrize("cfg", [micro_config(), TWO_BLOCKS], ids=["micro", "two_blocks"])
def test_the_stages_read_exactly_the_declared_parameters(cfg):
    # forward's own validation reads every name, so the stages are run directly
    model = build_model(cfg)
    ws = RecordingStore(init_weights(cfg))
    spec = stft(noise(2000), cfg.fft_len, cfg.win_len, cfg.hop)
    t, f = spec.re.shape
    h = model.trunk(ws, np.stack(decompose(spec))[None])
    model.mag_dec.mask(ws, h, t, f)
    model.phase_dec.phase(ws, h, t, f)
    assert ws.read == set(model.param_names())


def test_discriminate_reads_exactly_the_critic_manifest():
    ws = RecordingStore(init_discriminator(WeightStore()))
    m = np.abs(np.random.default_rng(14).standard_normal((20, 33)))
    discriminate(m, 0.5 * m, ws)
    assert ws.read == {name for name, _, _ in Discriminator().manifest()}
