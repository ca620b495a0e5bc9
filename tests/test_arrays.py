import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from lort.arrays import (
    ConvSpec,
    FlopMeter,
    conv2d,
    conv_out_shape,
    lsigmoid,
    normalize,
    prelu,
    same_pad,
    sigmoid,
    silu,
    softmax,
    zero_pad,
)
from lort.errors import InvalidParameterError, InvalidSpecError, ShapeError


def conv2d_loops(x, w, b, spec):
    """Nested-loop cross-correlation oracle (non-transposed), independent of
    the window-view `oracles.conv2d_reference`."""
    bsz, cin, h, wid = x.shape
    cout, cin_g, kh, kw = w.shape
    g = spec.groups
    cout_g = cout // g
    ph, pw = spec.padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    ho, wo = conv_out_shape((h, wid), spec)
    out = np.zeros((bsz, cout, ho, wo))
    for n in range(bsz):
        for co in range(cout):
            gi = co // cout_g
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(cin_g):
                        for a in range(kh):
                            for c in range(kw):
                                ii = i * spec.stride[0] + a * spec.dilation[0]
                                jj = j * spec.stride[1] + c * spec.dilation[1]
                                acc += xp[n, gi * cin_g + ci, ii, jj] * w[co, ci, a, c]
                    out[n, co, i, j] = acc + (b[co] if b is not None else 0.0)
    return out


@pytest.mark.parametrize("spec,cin,cout", [
    (ConvSpec(kernel=(3, 3), padding=(1, 1)), 3, 5),
    (ConvSpec(kernel=(3, 3), stride=(2, 2), padding=(1, 1)), 4, 4),
    (ConvSpec(kernel=(3, 1), dilation=(2, 1), padding=(2, 0)), 2, 3),
    (ConvSpec(kernel=(3, 3), groups=4, padding=(1, 1)), 4, 4),
    (ConvSpec(kernel=(1, 1)), 6, 2),
])
def test_conv2d_matches_nested_loop_oracle(spec, cin, cout):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, cin, 9, 8))
    w = rng.standard_normal((cout, cin // spec.groups, *spec.kernel))
    b = rng.standard_normal(cout)
    npt.assert_allclose(conv2d(x, w, b, spec), conv2d_loops(x, w, b, spec),
                        rtol=1e-12, atol=1e-12)


def test_transposed_conv_is_adjoint_of_forward():
    # <conv(x), y> == <x, conv_T(y)> for matching specs
    rng = np.random.default_rng(5)
    spec = ConvSpec(kernel=(2, 2), stride=(2, 2), padding=(0, 0))
    spec_t = ConvSpec(kernel=(2, 2), stride=(2, 2), padding=(0, 0), transposed=True)
    x = rng.standard_normal((1, 3, 8, 6))
    w = rng.standard_normal((4, 3, 2, 2))
    y = rng.standard_normal((1, 4, 4, 3))
    fwd = conv2d(x, w, np.zeros(4), spec)
    # the same tensor reads as (Cin, Cout, kh, kw) on the transposed side
    back = conv2d(y, w, np.zeros(3), spec_t)
    npt.assert_allclose(np.sum(fwd * y), np.sum(x * back), rtol=1e-12)


def test_transposed_conv_output_shape_and_out_pad():
    spec = ConvSpec(kernel=(1, 3), stride=(1, 2), padding=(0, 1), out_pad=(0, 1),
                    transposed=True)
    x = np.random.default_rng(0).standard_normal((1, 2, 4, 9))
    w = np.random.default_rng(1).standard_normal((2, 3, 1, 3))
    out = conv2d(x, w, np.zeros(3), spec)
    assert out.shape == (1, 3, *conv_out_shape((4, 9), spec))
    assert out.shape[3] == 18


def test_flop_meter_counts_conv_macs():
    x = np.ones((1, 3, 8, 8))
    w = np.ones((5, 3, 3, 3))
    spec = ConvSpec(kernel=(3, 3), padding=(1, 1))
    with FlopMeter() as meter:
        out = conv2d(x, w, np.zeros(5), spec)
    assert meter.macs == out.size * 3 * 9


def test_conv_spec_validation():
    with pytest.raises(InvalidSpecError):
        ConvSpec(kernel=(0, 3))
    with pytest.raises(InvalidSpecError):
        ConvSpec(kernel=(3, 3), groups=0)
    with pytest.raises(InvalidSpecError):
        ConvSpec(kernel=(3, 3), padding=(-1, 0))
    # each malformed field is named at construction, not deep inside conv2d
    for kwargs, field in [(dict(kernel=3), "kernel"),
                          (dict(kernel=(3,)), "kernel"),
                          (dict(kernel=(3, True)), "kernel"),
                          (dict(stride=(2,)), "stride"),
                          (dict(stride=(2.0, 1)), "stride"),
                          (dict(dilation=(1,)), "dilation"),
                          (dict(padding=(1,)), "padding"),
                          (dict(padding=(0.5, 0)), "padding"),
                          (dict(out_pad=(1, 0), stride=(2, 2)), "out_pad"),
                          (dict(out_pad=(2, 0), stride=(2, 2), transposed=True), "out_pad"),
                          (dict(out_pad=(0,), transposed=True), "out_pad"),
                          (dict(groups=True), "groups"),
                          (dict(groups=2.0), "groups"),
                          (dict(transposed="no"), "transposed")]:
        kwargs = {"kernel": (3, 3), **kwargs}
        with pytest.raises(InvalidSpecError, match=field):
            ConvSpec(**kwargs)


def test_conv2d_shape_errors():
    spec = ConvSpec(kernel=(3, 3), padding=(1, 1))
    with pytest.raises(ShapeError):
        conv2d(np.zeros((2, 3, 4)), np.zeros((1, 3, 3, 3)), np.zeros(1), spec)
    with pytest.raises(ShapeError):
        conv2d(np.zeros((1, 4, 8, 8)), np.zeros((1, 3, 3, 3)), np.zeros(1), spec)
    # the bias is required: every conv carries one
    x, w = np.zeros((1, 3, 8, 8)), np.zeros((2, 3, 3, 3))
    for b in (None, [0.0, 0.0], np.zeros(3), np.zeros((2, 1))):
        with pytest.raises(ShapeError, match=r"bias must be a \(2,\) array"):
            conv2d(x, w, b, spec)


def test_same_pad_preserves_extent():
    assert same_pad((3, 3)) == (1, 1)
    assert same_pad((19, 1), (4, 1)) == (36, 0)
    x = np.random.default_rng(0).standard_normal((1, 1, 20, 7))
    spec = ConvSpec(kernel=(19, 1), dilation=(4, 1), padding=same_pad((19, 1), (4, 1)))
    out = conv2d(x, np.ones((1, 1, 19, 1)), np.zeros(1), spec)
    assert out.shape == x.shape


def test_normalize_layer_and_instance_statistics():
    # the normalized variance is v / (v + NORM_EPS) exactly, v the input's
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 3, 5, 6)) * 4 + 2
    y = normalize(x, "layer", np.ones(3), np.zeros(3))
    for n in range(2):
        v = x[n].var()
        npt.assert_allclose(y[n].mean(), 0.0, atol=1e-10)
        npt.assert_allclose(y[n].var(), v / (v + 1e-5), atol=1e-8)
    z = normalize(x, "instance", np.ones(3), np.zeros(3))
    v = x.var(axis=(2, 3))
    npt.assert_allclose(z.mean(axis=(2, 3)), 0.0, atol=1e-10)
    npt.assert_allclose(z.var(axis=(2, 3)), v / (v + 1e-5), atol=1e-8)


def test_normalize_gain_shift_and_errors():
    x = np.random.default_rng(1).standard_normal((1, 2, 4, 4))
    y = normalize(x, "instance", np.array([2.0, 3.0]), np.array([1.0, -1.0]))
    v = x[:, 1].var()
    npt.assert_allclose(y[:, 0].mean(), 1.0, atol=1e-9)
    npt.assert_allclose(y[:, 1].std(), 3.0 * np.sqrt(v / (v + 1e-5)), atol=1e-6)
    with pytest.raises(InvalidParameterError):
        normalize(x, "batch", 1.0, 0.0)
    with pytest.raises(ShapeError, match="normalize expects a"):
        normalize(x[0], "layer", np.ones(4), np.zeros(4))


@pytest.mark.parametrize("n", [1, 2, 4])
def test_normalize_names_a_gain_or_shift_of_another_length(n):
    """One gain and one shift per channel: a length-1 vector no longer
    broadcasts over three channels, and others no longer raise numpy's
    bare broadcast ValueError."""
    x = np.ones((1, 3, 4, 4))
    with pytest.raises(ShapeError, match=f"normalize: gain has {n} values for a map of 3 "):
        normalize(x, "layer", np.ones(n), np.zeros(3))
    with pytest.raises(ShapeError, match=f"normalize: shift has {n} values for a map of 3 "):
        normalize(x, "instance", np.ones(3), np.zeros(n))
    # a scalar is one value, valid on a one-channel map only
    assert normalize(x[:, :1], "layer", 2.0, 0.5).shape == (1, 1, 4, 4)
    with pytest.raises(ShapeError, match="gain has 1 values"):
        normalize(x, "layer", 2.0, np.zeros(3))


def test_normalize_matches_two_pass_formula():
    rng = np.random.default_rng(8)
    for kind, axes in (("layer", (1, 2, 3)), ("instance", (2, 3))):
        x = rng.standard_normal((2, 3, 7, 5)) * 3 + 1.5
        gain, shift = rng.standard_normal(3), rng.standard_normal(3)
        mu = x.mean(axis=axes, keepdims=True)
        var = x.var(axis=axes, keepdims=True)
        want = ((x - mu) / np.sqrt(var + 1e-5) * gain.reshape(1, 3, 1, 1)
                + shift.reshape(1, 3, 1, 1))
        got = normalize(x, kind, gain, shift)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def two_pass_normalize(x, axes, gain, shift, eps=1e-5):
    mu = x.mean(axis=axes, keepdims=True)
    var = x.var(axis=axes, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain.reshape(1, -1, 1, 1) + shift.reshape(1, -1, 1, 1)


@pytest.mark.parametrize("kind,axes", [("layer", (1, 2, 3)), ("instance", (2, 3))])
def test_normalize_out_aliasing_and_views(kind, axes):
    rng = np.random.default_rng(9)
    x = rng.standard_normal((2, 3, 7, 5)) * 3 + 1.5
    gain, shift = rng.standard_normal(3), rng.standard_normal(3)
    want = two_pass_normalize(x, axes, gain, shift)
    tol = 1e-12 * np.abs(want).max()
    fresh = normalize(x, kind, gain, shift)
    assert np.abs(fresh - want).max() <= tol
    buf = rng.standard_normal((3, 6, 9, 12))
    view = buf[1:, 2:5, 1:8, ::2][:, :, :, :5]
    before = buf.copy()
    assert normalize(x, kind, gain, shift, out=view) is view
    npt.assert_array_equal(view, fresh)
    untouched = np.ones(buf.shape, bool)
    untouched[1:, 2:5, 1:8, 0:10:2] = False
    npt.assert_array_equal(buf[untouched], before[untouched])
    y = x.copy()
    assert normalize(y, kind, gain, shift, out=y) is y
    npt.assert_array_equal(y, fresh)


def test_normalize_propagates_non_finite():
    x = np.random.default_rng(10).standard_normal((1, 3, 4, 5))
    x[0, 0, 1, 2] = np.nan
    x[0, 1, 3, 0] = np.inf
    x[0, 2, 0, 0] = -0.0
    gain, shift = np.ones(3), np.zeros(3)
    with np.errstate(invalid="ignore"):
        got = normalize(x, "instance", gain, shift)
        want = two_pass_normalize(x, (2, 3), gain, shift)
        in_place = x.copy()
        normalize(in_place, "instance", gain, shift, out=in_place)
    npt.assert_array_equal(np.isnan(got), np.isnan(want))
    assert np.isnan(got[0, :2]).all()  # a NaN or inf reaches its whole plane
    assert np.abs(got[0, 2] - want[0, 2]).max() <= 1e-12 * np.abs(want[0, 2]).max()
    npt.assert_array_equal(in_place, got)


def where_prelu(x, a):
    a = np.asarray(a, dtype=float).reshape(1, -1, 1, 1)
    return np.where(x >= 0, x, a * x)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    npt.assert_array_equal(np.isnan(got), np.isnan(want))
    npt.assert_array_equal(np.signbit(got), np.signbit(want))
    npt.assert_array_equal(got[~np.isnan(got)], want[~np.isnan(want)])


@pytest.mark.parametrize("a", [[0.25, 1.0, 1e-3], [-0.5, 2.0, 0.25], [0.0, 0.3, 0.7]])
def test_prelu_out_matches_where_form(a):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 3, 6, 5))
    x[0, :, 0, :5] = [np.nan, np.inf, -np.inf, -0.0, 0.0]
    x[0, :, 1, :5] = [5e-324, -5e-324, 1e308, -1e308, -np.nan]
    with np.errstate(invalid="ignore", over="ignore"):  # a = 0 times inf, |a| > 1 times 1e308
        want = where_prelu(x, a)
        assert_same_bits(prelu(x, np.array(a)), want)
        y = x.copy()
        assert prelu(y, np.array(a), out=y) is y
        assert_same_bits(y, want)
        buf = np.full((2, 5, 8, 11), 7.0)
        view = buf[:, 1:4, 1:7, ::2][..., :5]
        assert prelu(x, np.array(a), out=view) is view
        assert_same_bits(view, want)
        other = np.full_like(x, 7.0)  # a separate contiguous out
        assert prelu(x, np.array(a), out=other) is other
        assert_same_bits(other, want)
    assert (buf == 7.0).sum() == buf.size - view.size
    assert np.signbit(prelu(np.array(-0.0).reshape(1, 1, 1, 1), 0.25)).all()


@pytest.mark.parametrize("n", [1, 2, 4])
def test_prelu_names_slopes_of_another_length(n):
    x = np.ones((1, 3, 4, 4))
    with pytest.raises(ShapeError, match=f"prelu: a has {n} values for a map of 3 channels"):
        prelu(x, np.full(n, 0.25))
    with pytest.raises(ShapeError, match="prelu: a has 1 values"):
        prelu(x, 0.25, out=x)


def test_prelu_into_a_separate_out_allocates_no_map():
    x = np.random.default_rng(12).standard_normal((1, 16, 128, 128))
    a = np.full(16, 0.25)
    y = np.empty_like(x)
    prelu(x, a, out=y)  # warm any lazily allocated state
    tracemalloc.start()
    try:
        prelu(x, a, out=y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes, (peak, x.nbytes)
    assert_same_bits(y, where_prelu(x, a))


def test_activations():
    x = np.linspace(-5, 5, 11)
    s = sigmoid(x)
    assert np.all((s > 0) & (s < 1))
    npt.assert_allclose(sigmoid(0.0), 0.5)
    npt.assert_allclose(silu(x), x * s)
    a = np.array([0.25])
    npt.assert_allclose(prelu(np.array([[-4.0], [2.0]]).reshape(1, 1, 2, 1), a),
                        np.array([-1.0, 2.0]).reshape(1, 1, 2, 1))
    assert np.isfinite(sigmoid(np.array([1e6, -1e6]))).all()
    with pytest.raises(ShapeError, match="prelu expects a"):
        prelu(np.array([-4.0, 2.0]), a)


SIGMOID_EDGES = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308,
                          709.5, -709.5, 709.0, -709.0, 1.0, -3.5, 40.0])


def sigmoid_chain(x):
    """sigmoid as a chain of fresh temporaries, the out-of-place form,
    clipped at the dtype's exp bound (709 in float64, 88 in float32)."""
    z = np.asarray(x)
    if z.dtype.kind != "f":
        z = z.astype(np.float64)
    bound = float(np.floor(np.log(np.finfo(z.dtype).max)))
    return 1.0 / (1.0 + np.exp(-np.clip(z, -bound, bound)))


@pytest.mark.parametrize("x", [SIGMOID_EDGES, SIGMOID_EDGES.astype(np.float32),
                               np.float64(-0.3), np.array(2.5), np.arange(-3, 4),
                               np.array([True, False])],
                         ids=["float64", "float32", "scalar", "0-d", "int", "bool"])
def test_sigmoid_and_silu_in_place_match_the_chain_bitwise(x):
    # no dtype overflows its exp (warnings are errors), and silu(-inf) is -inf
    pairs = ((sigmoid(x), sigmoid_chain(x)), (silu(x), x * sigmoid_chain(x)))
    for got, want in pairs:
        want = np.asarray(want)
        # the fresh array itself comes back, a 0-d one included
        assert type(got) is np.ndarray
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()  # NaN sign and payload included


@pytest.mark.parametrize("fn", [sigmoid, silu])
def test_sigmoid_and_silu_read_a_list_as_its_array(fn):
    values = [0.5, -1.0, 800.0]
    got, want = fn(values), fn(np.asarray(values))
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("fn", [sigmoid, silu])
def test_sigmoid_and_silu_allocate_one_map(fn):
    x = np.random.default_rng(13).standard_normal((1, 16, 128, 128))
    fn(x)  # warm any lazily allocated state
    tracemalloc.start()
    try:
        fn(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * x.nbytes, (peak, x.nbytes)


def test_lsigmoid_range_and_validation():
    x = np.random.default_rng(0).standard_normal((4, 6))
    alpha = np.ones(6)
    y = lsigmoid(x, alpha)
    assert np.all((y > 0) & (y < 2))
    npt.assert_allclose(lsigmoid(np.zeros((1, 6)), alpha), 1.0)
    with pytest.raises(ShapeError):
        lsigmoid(x, np.ones(5))


def test_softmax_rows():
    x = np.random.default_rng(2).standard_normal((3, 7)) * 50
    p = softmax(x)
    npt.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(p >= 0)


@pytest.mark.parametrize("rows,cols", [((1, 1), (1, 1)), ((0, 3), (0, 2)), ((2, 0), (0, 0)),
                                       ((0, 0), (4, 1))])
def test_zero_pad_is_np_pad(rows, cols):
    x = np.random.default_rng(8).standard_normal((2, 3, 5, 7))
    for src in (x, x.transpose(0, 1, 3, 2), x.astype(np.float32)[:, :, 1:, ::2]):
        want = np.pad(src, ((0, 0), (0, 0), rows, cols))
        got = zero_pad(src, rows, cols)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
