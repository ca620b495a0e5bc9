import ast
import dataclasses
import hashlib
import importlib
import inspect
import math
import pathlib
import pkgutil
import tracemalloc
import warnings

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
import lort.model as model_module
from lort import attention, local_refine
from lort.attention import AttentionInput
from lort.local_refine import Dlc, Lrc
from lort.objectives import LossWeights, discriminate
from lort.verify import SpsaConfig, micro_config, table2_trend
from oracles import bilinear_dsdcn_oracle, full_map_dsdcn
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
    for kwargs, match in [(dict(channels=4.0), r"channels must be an int >= 2, got 4\.0"),
                          (dict(hop=16.0), r"hop must be an int >= 1, got 16\.0"),
                          (dict(n_blocks=1.0), r"n_blocks must be an int >= 1, got 1\.0"),
                          (dict(n_blocks=True), r"n_blocks must be an int >= 1, got True"),
                          (dict(fft_len=64.5), r"fft_len must be an int >= 1, got 64\.5"),
                          (dict(block_channel_mult=0),
                           r"block_channel_mult must be an int >= 1, got 0")]:
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
    assert cfg.freq_bins == 256 and cfg.block_channels == 48


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
    # the dense local convolution is fixed by its layer, not by a config
    assert Dlc.KERNEL == 19 and Dlc.DILATIONS == (2, 4)
    assert list(inspect.signature(Dlc).parameters) == ["name", "channels", "axis"]
    assert list(inspect.signature(Lrc).parameters) == ["name", "channels"]
    assert not hasattr(lort, "DlcConfig") and not hasattr(local_refine, "DlcConfig")
    assert not hasattr(ModelConfig, "dlc")
    # attention inputs carry only the stacks attention reads
    assert {f.name for f in dataclasses.fields(AttentionInput)} == {"q", "k", "v"}


# exports that no program code calls, each kept for the gate that calls it
GATE_ONLY_EXPORTS = {
    "count_ops": "criterion 1, the closed-form attention op counts",
    "taylor_reference": "criterion 2, the brute-force Taylor oracle",
    "snr_db": "the STFT/iSTFT roundtrip checks",
}


def _names_read_by_program_code():
    """Every Name id and Attribute attr in src/lort and perfbench."""
    root = pathlib.Path(__file__).resolve().parents[1]
    names = set()
    for path in [*(root / "src" / "lort").glob("*.py"), *(root / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_resolves():
    # a name left in an __all__ after its definition went fails here, and so
    # does an export that only tests call (an import is not a call)
    read = _names_read_by_program_code()
    checked = 0
    for info in pkgutil.iter_modules(lort.__path__):
        module = importlib.import_module(f"lort.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"lort.{info.name}.__all__ names missing {name!r}"
            assert name in read or name in GATE_ONLY_EXPORTS, (
                f"lort.{info.name}.{name} is exported but no code in src/lort or perfbench uses it")
            checked += 1
    assert checked >= 50
    assert not read & set(GATE_ONLY_EXPORTS), "an allowlisted export has gained a caller"


def _program_paths():
    """The sources of src/lort, and every program that runs it: perfbench
    and the acceptance gates."""
    root = pathlib.Path(__file__).resolve().parents[1]
    src = sorted((root / "src" / "lort").glob("*.py"))
    return src, [*src, *(root / "perfbench").glob("*.py"), root / "tests" / "test_acceptance.py"]


def _keyword_defaults(modules):
    """(qualified name, call name, positional index, parameter) of every
    keyword default of a public function or method (a constructor's are
    the class's) in the parsed `modules`; the index is None for a
    keyword-only parameter."""
    for module in modules:
        for node in module.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield from _defaults_of(node.name, node.name, node.args, 0)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for fn in node.body:
                    if not isinstance(fn, ast.FunctionDef):
                        continue
                    call = node.name if fn.name == "__init__" else fn.name
                    if call.startswith("_"):
                        continue
                    skip = 0 if "staticmethod" in _decorator_names(fn) else 1
                    yield from _defaults_of(f"{node.name}.{fn.name}", call, fn.args, skip)


def _defaults_of(qualname, call, args, skip):
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield qualname, call, i - skip, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield qualname, call, None, arg.arg


def _sets(call, index, param):
    """Whether `call` sets the parameter `param` at positional `index`."""
    if any(kw.arg in (param, None) for kw in call.keywords):  # None: a ** spread
        return True
    return index is not None and (len(call.args) > index
                                  or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_keyword_default_is_set_by_some_program():
    # a default no program overrides is a constant dressed as an option
    src, programs = _program_paths()
    calls = {}
    for node in _walk(programs):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            calls.setdefault(name, []).append(node)
    defaults = list(_keyword_defaults(ast.parse(path.read_text()) for path in src))
    unset = [f"{qualname}({param}=)" for qualname, call, index, param in defaults
             if not any(_sets(c, index, param) for c in calls.get(call, ()))]
    assert not unset, f"no program sets the keyword defaults {unset}"
    assert len(defaults) >= 20


# dataclasses some method reads whole, so no attribute load names each field
WHOLE_READ_CLASSES = {"LossReport": "to_line prints every field"}


def _walk(paths):
    """Every AST node of the files at `paths`."""
    for path in paths:
        yield from ast.walk(ast.parse(path.read_text()))


def _decorator_names(node):
    """The bare names `node` is decorated with, called or not."""
    decorators = [getattr(d, "func", d) for d in node.decorator_list]
    return {d.id for d in decorators if isinstance(d, ast.Name)}


def _stored_values(nodes):
    """(class, name) of every dataclass field and @property among `nodes`."""
    for cls in nodes:
        if not isinstance(cls, ast.ClassDef):
            continue
        is_dataclass = "dataclass" in _decorator_names(cls)
        for stmt in cls.body:
            if (is_dataclass and isinstance(stmt, ast.AnnAssign)
                    and "ClassVar" not in ast.unparse(stmt.annotation)):
                yield cls.name, stmt.target.id
            elif isinstance(stmt, ast.FunctionDef) and "property" in _decorator_names(stmt):
                yield cls.name, stmt.name


def test_every_stored_value_is_read():
    # a field or property that only tests read is kept for no program; the
    # acceptance gates count as programs
    src, programs = _program_paths()
    read = {node.attr for node in _walk(programs)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    values = list(_stored_values(_walk(src)))
    unread = [f"{cls}.{name}" for cls, name in values
              if name not in read and cls not in WHOLE_READ_CLASSES]
    assert not unread, f"no program reads {unread}"
    assert len(values) >= 30
    assert set(WHOLE_READ_CLASSES) <= {cls for cls, _ in values}


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
    # forward takes a Waveform, and a Waveform at another rate cannot be built
    with pytest.raises(InvalidInputError, match="8000 Hz.*16000 Hz"):
        Waveform(noise(4000).samples, sample_rate=8000)


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


def test_forward_builds_one_model_per_config_and_checks_every_store(monkeypatch):
    built = []
    init = lort.model.LortModel.__init__

    def counting_init(self, cfg):
        built.append(cfg)
        init(self, cfg)

    monkeypatch.setattr(lort.model.LortModel, "__init__", counting_init)
    build_model.cache_clear()
    ws = init_weights(MICRO, seed=2)
    first = forward(noise(2000), ws, MICRO)
    second = forward(noise(2000), ws, MICRO)
    assert built == [MICRO]
    npt.assert_array_equal(first.wave.samples, second.wave.samples)
    # the store is still checked on every call of the reused model
    reshaped, partial = WeightStore(), WeightStore()
    for name, arr in ws.items():
        reshaped[name] = np.zeros((4, 2, 1, 2)) if name == "encoder.in_conv.w" else arr
        if name != "block0.ln1.gain":
            partial[name] = arr
    with pytest.raises(ShapeError, match=r"'encoder\.in_conv\.w'"):
        forward(noise(2000), reshaped, MICRO)
    with pytest.raises(WeightLookupError, match=r"missing \['block0\.ln1\.gain'\]"):
        forward(noise(2000), partial, MICRO)
    assert built == [MICRO]


def test_forward_names_a_ws_that_is_no_weight_store():
    ws = init_weights(MICRO)
    for bad in (dict(ws.items()), None):
        msg = f"ws must be a WeightStore, got {type(bad).__name__}"
        with pytest.raises(WeightLookupError, match=msg):
            forward(noise(2000), bad, MICRO)
        with pytest.raises(WeightLookupError, match=msg):
            build_model(MICRO).forward(noise(2000), bad)


def test_forward_rejects_tensors_no_layer_declares():
    ws = init_weights(TWO_BLOCKS)
    with pytest.raises(WeightLookupError, match=r"no layer .* declares: \['block1\."):
        forward(noise(4000), ws, MICRO)
    # the critic's tensors are no layer's of the generator either
    ws = init_discriminator(init_weights(MICRO), seed=1)
    with pytest.raises(WeightLookupError, match=r"no layer .* declares: \['disc\.block0\."):
        forward(noise(4000), ws, MICRO)


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


def shifted_embed(c, seed):
    """A Dsdcn and its weights, with offsets of up to a few pixels, so many
    samples fall outside the plane."""
    layer = Dsdcn("embed", c)
    ws = init_store(layer.manifest(), seed=seed)
    rng = np.random.default_rng(seed + 1)
    ws["embed.offset.w"] = 0.5 * rng.standard_normal(ws["embed.offset.w"].shape)
    ws["embed.offset.b"] = rng.uniform(-2.5, 2.5, ws["embed.offset.b"].shape)
    return layer, ws


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape, cap", [
    ((2, 3, 23, 7), 4 * 7 * 3),     # 6 blocks of 4 time rows per item, the last of 3
    ((1, 16, 50, 128), None),       # the module's cap: 3 blocks of 16 rows, then 2 rows
])
def test_dsdcn_row_blocks_match_the_full_map_pass_bit_for_bit(monkeypatch, dtype, shape, cap):
    b, c, t, f = shape
    if cap is not None:
        monkeypatch.setattr(model_module, "_EMBED_BLOCK_ELEMS", cap)
    step = model_module._EMBED_BLOCK_ELEMS // (f * c)
    assert -(-t // step) >= 3 and t % step
    layer, ws = shifted_embed(c, seed=23)
    ws = {name: arr.astype(dtype) for name, arr in ws.items()}
    x = np.random.default_rng(24).standard_normal(shape).astype(dtype)
    off = layer.offset(ws, x)
    assert (np.abs(off) > 1).mean() > 0.3
    got = layer(ws, x)
    assert got.dtype == dtype
    assert got.tobytes() == full_map_dsdcn(layer, ws, x).tobytes()


def test_dsdcn_peaks_under_four_maps_beyond_its_input():
    layer, ws = shifted_embed(16, seed=25)
    x = np.random.default_rng(26).standard_normal((1, 16, 321, 128))
    tracemalloc.start()
    try:
        layer(ws, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * x.nbytes, peak / x.nbytes


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e30])
def test_dsdcn_rejects_an_offset_it_cannot_sample_at(bad):
    layer, ws = shifted_embed(3, seed=27)
    ws["embed.offset.b"][4] = bad
    x = np.random.default_rng(28).standard_normal((1, 3, 6, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=r"^embed\.offset gives sampling offsets"):
            layer(ws, x)


def test_forward_names_the_embed_offset_when_it_turns_nan():
    ws = init_weights(MICRO, seed=29)
    ws["embed.offset.b"] = np.full(ws["embed.offset.b"].shape, np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=r"embed\.offset .* must be finite"):
            forward(noise(4000), ws, MICRO)


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
    assert enc.shape == (1, MICRO.channels, 20, 17)  # ceil(33 / 2) bins
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
    for estimate in (estimate_macs, estimate_flops, lambda cfg, d: table2_trend(d)):
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


# ---------------------------------------------------------------------------
# The dtype contract: float64 is set where data enters (Waveform, ComplexSpec,
# WeightStore); every stage computes in the dtype its operands promote to.

# Higham's bound on an n-term float32 sum of products, n * 2**-24, is 5.4e-5
# for the longest sum here (48 channels x 19 taps of an axial conv)
F32_RTOL = 1e-4
TWO_BLOCKS_C8 = ModelConfig(n_blocks=2, channels=8, fft_len=64, win_len=64, hop=16)


def perturbed_weights(cfg, seed):
    """Initialized weights with every tensor perturbed, offsets, biases and
    MSAR convs included, so no stage runs on exact zeros or ones."""
    ws = init_weights(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for name in list(ws):
        ws[name] = ws[name] + 0.05 * rng.standard_normal(ws[name].shape)
    return ws


def as_float32(ws):
    return {name: arr.astype(np.float32) for name, arr in ws.items()}


def assert_float32_close(got, want):
    assert got.dtype == np.float32
    err = np.abs(got - want).max() / np.abs(want).max()
    assert err <= F32_RTOL, err


def float32_case(cfg, n, seed):
    ws = perturbed_weights(cfg, seed)
    wave = noise(n, seed=seed)
    spec = stft(wave, cfg.fft_len, cfg.win_len, cfg.hop)
    return ws, as_float32(ws), wave, spec, np.stack(decompose(spec))[None]


@pytest.mark.parametrize("cfg", [micro_config(), TWO_BLOCKS_C8], ids=["micro", "two_blocks_c8"])
def test_float32_weights_and_input_stay_float32_through_every_stage(cfg):
    model = build_model(cfg)
    ws, ws32, wave, spec, feat = float32_case(cfg, 4000, seed=19)
    t, f = spec.re.shape
    x = feat
    for stage in [model.encoder, model.embed, model.down, *model.blocks]:
        want = stage(ws, x)
        assert_float32_close(stage(ws32, x.astype(np.float32)), want)
        x = want
    h = model.trunk(ws, feat)
    h32 = model.trunk(ws32, feat.astype(np.float32))
    assert_float32_close(h32, h)
    assert_float32_close(model.mag_dec.mask(ws32, h.astype(np.float32), t, f),
                         model.mag_dec.mask(ws, h, t, f))
    # the float32 heads, resynthesized through the float64 boundary
    mask = model.mag_dec.mask(ws32, h32, t, f)[0]
    phase = model.phase_dec.phase(ws32, h32, t, f)[0]
    assert mask.dtype == phase.dtype == np.float32
    mag = decompose(spec)[0]
    out = istft(recompose(spec, mask * mag, phase), len(wave))
    assert snr_db(forward(wave, ws, cfg).wave.samples, out.samples) >= 60.0


def test_float32_reference_trunk_matches_float64():
    cfg = ModelConfig()
    ws, ws32, _, _, feat = float32_case(cfg, 8000, seed=20)
    model = build_model(cfg)
    assert_float32_close(model.trunk(ws32, feat.astype(np.float32)), model.trunk(ws, feat))


def test_dsdcn_on_a_float32_map_matches_the_bilinear_oracle():
    c = 3
    layer = Dsdcn("embed", c)
    ws = init_store(layer.manifest(), seed=21)
    rng = np.random.default_rng(22)
    ws["embed.offset.w"] = 0.5 * rng.standard_normal(ws["embed.offset.w"].shape)
    ws["embed.offset.b"] = rng.uniform(-2.5, 2.5, ws["embed.offset.b"].shape)
    x = rng.standard_normal((2, c, 6, 5))
    want, _ = bilinear_dsdcn_oracle(ws, x, layer.offset(ws, x))
    assert_float32_close(layer(as_float32(ws), x.astype(np.float32)), want)


STAGE_MODULES = ("arrays", "layers", "attention", "local_refine", "model")
FLOAT_TYPES = {"float16", "float32", "float64", "half", "single", "double", "longdouble"}


def test_no_stage_module_names_a_float_dtype():
    # an int64 index cast stays allowed; a float dtype is set at the boundary only
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "lort"
    named = []
    for module in STAGE_MODULES:
        for node in ast.walk(ast.parse((src / f"{module}.py").read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in FLOAT_TYPES
                    or isinstance(node, ast.Name) and node.id in FLOAT_TYPES
                    or isinstance(node, ast.keyword) and node.arg == "dtype"
                    and isinstance(node.value, ast.Constant)):
                named.append(f"{module}.py:{node.lineno}")
    assert not named, f"float dtype named at {named}"
