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
)
from lort.errors import InvalidParameterError, InvalidSpecError, ShapeError


def conv2d_reference(x, w, b, spec):
    """Nested-loop cross-correlation oracle (non-transposed)."""
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
    npt.assert_allclose(conv2d(x, w, b, spec), conv2d_reference(x, w, b, spec),
                        rtol=1e-12, atol=1e-12)


def test_transposed_conv_is_adjoint_of_forward():
    # <conv(x), y> == <x, conv_T(y)> for matching specs
    rng = np.random.default_rng(5)
    spec = ConvSpec(kernel=(2, 2), stride=(2, 2), padding=(0, 0))
    spec_t = ConvSpec(kernel=(2, 2), stride=(2, 2), padding=(0, 0), transposed=True)
    x = rng.standard_normal((1, 3, 8, 6))
    w = rng.standard_normal((4, 3, 2, 2))
    y = rng.standard_normal((1, 4, 4, 3))
    fwd = conv2d(x, w, None, spec)
    # the same tensor reads as (Cin, Cout, kh, kw) on the transposed side
    back = conv2d(y, w, None, spec_t)
    npt.assert_allclose(np.sum(fwd * y), np.sum(x * back), rtol=1e-12)


def test_transposed_conv_output_shape_and_out_pad():
    spec = ConvSpec(kernel=(1, 3), stride=(1, 2), padding=(0, 1), out_pad=(0, 1),
                    transposed=True)
    x = np.random.default_rng(0).standard_normal((1, 2, 4, 9))
    w = np.random.default_rng(1).standard_normal((2, 3, 1, 3))
    out = conv2d(x, w, None, spec)
    assert out.shape == (1, 3, *conv_out_shape((4, 9), spec))
    assert out.shape[3] == 18


def test_flop_meter_counts_conv_macs():
    x = np.ones((1, 3, 8, 8))
    w = np.ones((5, 3, 3, 3))
    spec = ConvSpec(kernel=(3, 3), padding=(1, 1))
    with FlopMeter() as meter:
        out = conv2d(x, w, None, spec)
    assert meter.macs == out.size * 3 * 9
    assert meter.flops == 2 * meter.macs


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
        conv2d(np.zeros((2, 3, 4)), np.zeros((1, 3, 3, 3)), None, spec)
    with pytest.raises(ShapeError):
        conv2d(np.zeros((1, 4, 8, 8)), np.zeros((1, 3, 3, 3)), None, spec)


def test_same_pad_preserves_extent():
    assert same_pad((3, 3)) == (1, 1)
    assert same_pad((19, 1), (4, 1)) == (36, 0)
    x = np.random.default_rng(0).standard_normal((1, 1, 20, 7))
    spec = ConvSpec(kernel=(19, 1), dilation=(4, 1), padding=same_pad((19, 1), (4, 1)))
    out = conv2d(x, np.ones((1, 1, 19, 1)), None, spec)
    assert out.shape == x.shape


def test_normalize_layer_and_instance_statistics():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 3, 5, 6)) * 4 + 2
    y = normalize(x, "layer", np.ones(3), np.zeros(3), eps=1e-12)
    for n in range(2):
        npt.assert_allclose(y[n].mean(), 0.0, atol=1e-10)
        npt.assert_allclose(y[n].var(), 1.0, atol=1e-8)
    z = normalize(x, "instance", np.ones(3), np.zeros(3), eps=1e-12)
    npt.assert_allclose(z.mean(axis=(2, 3)), 0.0, atol=1e-10)
    npt.assert_allclose(z.var(axis=(2, 3)), 1.0, atol=1e-8)


def test_normalize_gain_shift_and_errors():
    x = np.random.default_rng(1).standard_normal((1, 2, 4, 4))
    y = normalize(x, "instance", np.array([2.0, 3.0]), np.array([1.0, -1.0]), eps=1e-12)
    npt.assert_allclose(y[:, 0].mean(), 1.0, atol=1e-9)
    npt.assert_allclose(y[:, 1].std(), 3.0, atol=1e-6)
    with pytest.raises(InvalidParameterError):
        normalize(x, "batch", 1.0, 0.0)
    with pytest.raises(InvalidParameterError):
        normalize(x, "layer", 1.0, 0.0, eps=0.0)


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
