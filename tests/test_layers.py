import inspect
import tracemalloc

import numpy as np
import pytest

import lort
import lort.layers
import lort.local_refine
import lort.model
from lort.errors import ShapeError
from lort.layers import Conv, DenseStack, Layer, Norm, Param, PRelu, init_store
from lort.local_refine import Lrc
from lort.model import Encoder, ModelConfig, dilated_dense
from lort.verify import make_toy_task, micro_config


class Toy(Layer):
    def __init__(self):
        self.a = Param("toy.a", (2,), "zeros")
        self.size = 3  # not a layer: skipped
        self.nested = [(Norm("toy.n0", 2, "instance"), [PRelu("toy.p0", 2)]),
                       (Param("toy.c", (1,), "ones"),)]
        self.label = "toy"
        self.tail = Conv("toy.tail", 2, 2, (1, 1))
        self.a = Param("toy.a2", (4,), "gauss")  # reassigned: keeps its first slot


def test_manifest_walks_held_layers_in_assignment_order():
    assert list(Toy().manifest()) == [
        ("toy.a2", (4,), "gauss"),
        ("toy.n0.gain", (2,), "ones"),
        ("toy.n0.shift", (2,), "zeros"),
        ("toy.p0.a", (2,), "prelu"),
        ("toy.c", (1,), "ones"),
        ("toy.tail.w", (2, 2, 1, 1), "gauss"),
        ("toy.tail.b", (2,), "zeros"),
    ]


def test_only_leaves_define_a_manifest():
    layer_classes = {
        cls for module in (lort.layers, lort.model, lort.local_refine)
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if issubclass(cls, Layer) and cls is not Layer
    }
    own = {cls.__name__ for cls in layer_classes if "manifest" in vars(cls)}
    assert own == {"Param"}
    assert {"Lrtt", "LortModel", "Discriminator", "Dlc", "Lrc", "DenseStack"} <= {
        cls.__name__ for cls in layer_classes}


def test_manifest_of_is_gone():
    assert not hasattr(lort.layers, "manifest_of")
    assert "manifest_of" not in lort.layers.__all__


def dense_concat(stack, ws, x):
    """Oracle of `DenseStack`: each layer runs on the channel concat of the
    stack input and every earlier output, each conv at its own padding."""
    feats = [x]
    z = x
    for layer in stack.layers:
        z = np.concatenate(feats, axis=1) if len(feats) > 1 else x
        for sub in layer:
            z = sub(ws, z)
        feats.append(z)
    return z


def stacks():
    """(name, stack, input channels) of every dense stack the network builds,
    and the norm-free skeleton of criterion 8."""
    dense = dilated_dense("dense", 4, (1, 2, 4, 8))
    lrc = Lrc("lrc", 6)
    return [
        ("dilated_dense", dense, 4),
        ("dlc_t", lrc.dlc_t.dense, 6),
        ("dlc_f", lrc.dlc_f.dense, 6),
        ("skeleton", DenseStack(tuple(s for s in layer if not isinstance(s, Norm))
                                for layer in dense.layers), 4),
    ]


def shifted_store(stack, seed):
    """Weights with nonzero biases, norm shifts and varied PReLU slopes."""
    rng = np.random.default_rng(seed)
    ws = init_store(stack.manifest(), seed=seed)
    for name in ws:
        if name.endswith((".b", ".shift", ".a")):
            ws[name] = ws[name] + 0.3 * rng.standard_normal(ws[name].shape)
    return ws


# (H, W) planes on each side of the orientation rule: the bordered stacks
# (border 8 on both axes) run on the transposed plane exactly when W < H,
# where H·(W + 16) > W·(H + 16)
PLANES = {"w<h": (23, 17), "w>h": (17, 23), "w==h": (19, 19)}


@pytest.mark.parametrize("plane", PLANES)
@pytest.mark.parametrize("name,stack,cin", stacks(), ids=[s[0] for s in stacks()])
def test_dense_stack_matches_concat_oracle(name, stack, cin, plane):
    rng = np.random.default_rng(20)
    ws = shifted_store(stack, 21)
    h, w = PLANES[plane]
    x = rng.standard_normal((2, cin, h, w))
    x_before = x.copy()
    want = dense_concat(stack, ws, x)
    got = stack(ws, x)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name
    assert x.tobytes() == x_before.tobytes()  # the caller's input is not written
    if name.startswith("dlc"):
        # border (0, 0) and a conv after each compress: dlc_t keeps its plane
        # and dlc_f, whose 1×k convs ran on the transposed plane anyway, runs
        # the whole stack there; either output is the oracle's bit for bit
        assert got.tobytes() == want.tobytes()
        assert (got.strides[3] > got.strides[2]) == (name == "dlc_f")
    else:
        # the transposed plane returns its last map as a transposed view
        assert (got.strides[3] > got.strides[2]) == (w < h)


@pytest.mark.parametrize("plane", PLANES)
def test_row_blocked_heads_read_no_border(plane):
    """At the reference width every head conv runs row-blocked and pads in
    the engine, so the buffer has no border, both planes cost the same and
    the stack keeps the (H, W) plane: its output is the oracle's bit for
    bit and C-contiguous on either side of the orientation rule."""
    stack = dilated_dense("dense", 16, (1, 2, 4, 8))
    ws = shifted_store(stack, 36)
    x = np.random.default_rng(37).standard_normal((2, 16, *PLANES[plane]))
    got = stack(ws, x)
    assert got.tobytes() == dense_concat(stack, ws, x).tobytes()
    assert got.flags.c_contiguous


def test_stack_with_convs_after_the_head_keeps_its_plane():
    """A bordered stack whose layers run a conv after the first one stays on
    the (H, W) plane at W < H, where a bare-epilogue stack transposes."""
    stack = DenseStack(
        (Conv(f"s.layer{j}.conv", 3 * (j + 1), 3, (3, 3), dilation=(2, 2)),
         Conv(f"s.layer{j}.tail", 3, 3, (3, 3), dilation=(1, 2)),
         PRelu(f"s.layer{j}.act", 3))
        for j in range(3))
    ws = shifted_store(stack, 34)
    x = np.random.default_rng(35).standard_normal((1, 3, 21, 9))
    got = stack(ws, x)
    want = dense_concat(stack, ws, x)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert got.strides[2] > got.strides[3]


def test_dense_stack_promotes_like_the_concat():
    _, stack, cin = stacks()[0]
    ws = shifted_store(stack, 23)
    x = np.arange(2 * cin * 6 * 7).reshape(2, cin, 6, 7) % 5 - 2
    want = dense_concat(stack, ws, x)
    got = stack(ws, x)
    assert got.dtype == want.dtype == np.float64
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("plane", PLANES)
@pytest.mark.parametrize("name,stack,cin", stacks()[:2], ids=[s[0] for s in stacks()[:2]])
def test_dense_stack_runs_the_stem_handed_to_the_call(name, stack, cin, plane):
    stem = Conv("stem", 3, cin, (1, 1))
    ws = shifted_store(stack, 25)
    for key, value in init_store(stem.manifest(), seed=26).items():
        ws[key] = value
    x = np.random.default_rng(27).standard_normal((2, 3, *PLANES[plane]))
    assert stack(ws, x, stem=stem).tobytes() == stack(ws, stem(ws, x)).tobytes(), name


def test_dense_stack_rejects_other_channel_counts():
    _, stack, cin = stacks()[0]
    with pytest.raises(ShapeError, match="dense stack"):
        stack(init_store(stack.manifest()), np.zeros((1, cin + 1, 5, 5)))


def test_forward_leaves_caller_arrays_untouched():
    """In-place epilogues write only arrays a layer allocated itself."""
    cfg = micro_config()
    ws = lort.init_weights(cfg, seed=5)
    disc = lort.model.init_discriminator(lort.WeightStore(), seed=6)
    noisy, clean = make_toy_task(cfg, seed=5, duration_s=0.25)
    stores = (ws, disc)
    before = [{name: store[name].tobytes() for name in store} for store in stores]
    samples = noisy.samples.tobytes()
    res = lort.forward(noisy, ws, cfg)
    ref = lort.stft(clean, cfg.fft_len, cfg.win_len, cfg.hop)
    lort.evaluate_losses(res.spec, ref, lort.LossWeights(*cfg.loss_weights), disc=disc)
    assert noisy.samples.tobytes() == samples
    assert [{name: store[name].tobytes() for name in store} for store in stores] == before


@pytest.mark.parametrize("h,w", [(128, 128), (160, 96)], ids=["square", "transposed"])
def test_dense_stack_peak_memory_is_one_buffer(h, w):
    """One dilated_dense call allocates its buffer and at most three maps
    more (conv accumulator, per-tap temporary, epilogue temporary); a
    concat or a padded copy of the layer inputs exceeds that. Every head
    conv runs row-blocked and pads in the engine, so the buffer has no
    border and the stack keeps the (H, W) plane at W < H too."""
    stack = dilated_dense("dense", 16, (1, 2, 4, 8))
    ws = init_store(stack.manifest())
    x = np.random.default_rng(22).standard_normal((1, 16, h, w))
    stack(ws, x)  # warm any lazily allocated state
    buffer = 64 * h * w * x.itemsize  # Cin + 3 growths, no border
    tracemalloc.start()
    try:
        stack(ws, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= buffer + 3 * x.nbytes, (peak, buffer, x.nbytes)


@pytest.mark.parametrize("t,f", [(256, 256), (320, 160)], ids=["square", "transposed"])
def test_encoder_peak_memory_is_its_buffer_and_two_maps(t, f):
    """The encoder frees every map it has stopped reading: its stack runs
    the stem into the buffer and keeps no stem output, each layer's
    epilogues write into the buffer without a temporary, and the buffer
    goes before the last layer's epilogues and the strided down_f. The
    stem output held beside the stack, prelu's a*x product and the
    previous layer's accumulator (≈3 maps more) exceed the bound. The
    stack's head convs run row-blocked, so its buffer has no border and it
    keeps the (T, F) plane at F < T too."""
    encoder = Encoder(ModelConfig())  # 16 channels
    ws = init_store(encoder.manifest())
    x = np.random.default_rng(24).standard_normal((1, 2, t, f))
    encoder(ws, x)  # warm any lazily allocated state
    buffer = 64 * t * f * x.itemsize  # 16 + 3 growths, no border
    feature_map = 16 * t * f * x.itemsize
    tracemalloc.start()
    try:
        encoder(ws, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= buffer + 2 * feature_map, (peak, buffer, feature_map)
