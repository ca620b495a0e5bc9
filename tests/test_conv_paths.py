"""The per-tap conv2d paths against the window-view oracle `conv2d_reference`.

The oracle contracts a sliding-window (im2col) view per group, and runs a
transposed conv as a stride-1 correlation of the zero-stuffed input with
the flipped kernel. It shares only the operand checks and the bias add with
`lort.arrays.conv2d`, so it checks every path's arithmetic independently.
Specs are drawn from a seeded generator so every run checks the same cases.
"""
import numpy as np
import pytest

from lort import model
from lort.arrays import ConvSpec, FlopMeter, _check_conv, _finish, conv2d, same_pad
from lort.errors import InvalidSpecError
from lort.objectives import discriminate
from lort.signal import Waveform
from lort.verify import micro_config

RTOL = 1e-12

# Cap on elements of a single im2col temporary (keeps peak memory bounded).
_CHUNK_ELEMS = 8_000_000


def _windows(xp: np.ndarray, kernel, stride, dilation) -> np.ndarray:
    """Strided view of shape (B, C, Ho, Wo, kh, kw); no copy."""
    kh, kw = kernel
    dh, dw = dilation
    eh = dh * (kh - 1) + 1
    ew = dw * (kw - 1) + 1
    if xp.shape[2] < eh or xp.shape[3] < ew:
        raise InvalidSpecError(
            f"effective kernel ({eh}, {ew}) exceeds padded input {xp.shape[2:]}"
        )
    sw = np.lib.stride_tricks.sliding_window_view(xp, (eh, ew), axis=(2, 3))
    return sw[:, :, :: stride[0], :: stride[1], ::dh, ::dw]


def _conv_group(x: np.ndarray, w: np.ndarray, stride, dilation, padding) -> np.ndarray:
    """Single-group cross-correlation via chunked window contraction."""
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else x
    win = _windows(xp, w.shape[2:], stride, dilation)
    b_, c, ho, wo, kh, kw = win.shape
    out = np.empty((b_, ho, wo, w.shape[0]), dtype=x.dtype)
    row_elems = max(1, b_ * wo * c * kh * kw)
    step = max(1, _CHUNK_ELEMS // row_elems)
    for h0 in range(0, ho, step):
        h1 = min(h0 + step, ho)
        block = win[:, :, h0:h1]
        out[:, h0:h1] = np.tensordot(block, w, axes=([1, 4, 5], [1, 2, 3]))
    return np.moveaxis(out, 3, 1)


def _conv_windows(x: np.ndarray, w: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Grouped cross-correlation, one window contraction per group."""
    g = spec.groups
    if g == 1:
        return _conv_group(x, w, spec.stride, spec.dilation, spec.padding)
    cin_g, cout_g = w.shape[1], w.shape[0] // g
    parts = [
        _conv_group(
            x[:, i * cin_g : (i + 1) * cin_g],
            w[i * cout_g : (i + 1) * cout_g],
            spec.stride,
            spec.dilation,
            spec.padding,
        )
        for i in range(g)
    ]
    return np.concatenate(parts, axis=1)


def _conv_zero_stuffed(x: np.ndarray, w: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Transposed conv as a stride-1 correlation of the zero-stuffed input
    with the flipped kernel, one group at a time."""
    g = spec.groups
    cin_g = w.shape[0] // g
    sh, sw_ = spec.stride
    dh, dw = spec.dilation
    kh, kw = spec.kernel
    parts = []
    for i in range(g):
        xg = x[:, i * cin_g : (i + 1) * cin_g]
        wg = w[i * cin_g : (i + 1) * cin_g]
        b_, c, h, wid = xg.shape
        xi = np.zeros(
            (b_, c, (h - 1) * sh + 1 + spec.out_pad[0], (wid - 1) * sw_ + 1 + spec.out_pad[1]),
            dtype=x.dtype,
        )
        xi[:, :, :: sh, :: sw_][:, :, :h, :wid] = xg
        # gradient-of-conv form: full correlation with the flipped kernel
        pe_h = dh * (kh - 1) - spec.padding[0]
        pe_w = dw * (kw - 1) - spec.padding[1]
        wf = wg[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        out = _conv_group(
            np.pad(
                xi,
                (
                    (0, 0),
                    (0, 0),
                    (max(pe_h, 0), max(pe_h, 0)),
                    (max(pe_w, 0), max(pe_w, 0)),
                ),
            ),
            wf,
            (1, 1),
            spec.dilation,
            (0, 0),
        )
        ch = max(-pe_h, 0)
        cw = max(-pe_w, 0)
        if ch or cw:
            out = out[:, :, ch : out.shape[2] - ch or None, cw : out.shape[3] - cw or None]
        parts.append(out)
    return np.concatenate(parts, axis=1) if g > 1 else parts[0]


def conv2d_reference(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                     spec: ConvSpec) -> np.ndarray:
    """Oracle for `conv2d`: window-view (im2col) contraction per group, and
    transposed convs on the zero-stuffed input. Same contract and MAC count."""
    macs = _check_conv(x, w, b, spec)
    out = _conv_zero_stuffed(x, w, spec) if spec.transposed else _conv_windows(x, w, spec)
    return _finish(out, b, macs)


def assert_matches_reference(x, w, b, spec):
    with FlopMeter() as ref_meter:
        ref = conv2d_reference(x, w, b, spec)
    with FlopMeter() as meter:
        out = conv2d(x, w, b, spec)
    assert out.shape == ref.shape
    assert meter.macs == ref_meter.macs
    assert np.abs(out - ref).max() <= RTOL * np.abs(ref).max(), spec


def random_case(rng, transposed=False, max_stride=3):
    """One (x, w, b, spec) with a valid, non-empty output; depthwise cases
    run at stride 1, the others at strides up to `max_stride`."""
    c = int(rng.integers(1, 6))
    depthwise = not transposed and rng.random() < 0.4
    cout = c if depthwise else int(rng.integers(1, 6))
    kernel = [int(k) for k in rng.integers(1, 6, 2)]
    axis = rng.integers(0, 4)  # 0, 1: a kernel along one axis only
    if axis < 2:
        kernel[axis] = 1
    dilation = tuple(int(d) for d in rng.integers(1, 9, 2))
    h, wid = (int(n) for n in rng.integers(1, 16, 2))
    stride = tuple(int(s) for s in rng.integers(1, max_stride + 1, 2))
    if depthwise:
        stride = (1, 1)
    if transposed:
        out_pad = tuple(int(rng.integers(0, s)) for s in stride)
        padding = tuple(int(rng.integers(0, d * (k - 1) + 2)) for d, k in zip(dilation, kernel))
        # enough extent that the padding crop leaves an output
        h = max(h, -(-2 * padding[0] // stride[0]) + 1)
        wid = max(wid, -(-2 * padding[1] // stride[1]) + 1)
    else:
        out_pad = (0, 0)
        padding = tuple(int(p) for p in rng.integers(0, 5, 2))
        # enough extent for the dilated kernel
        h = max(h, dilation[0] * (kernel[0] - 1) + 1 - 2 * padding[0])
        wid = max(wid, dilation[1] * (kernel[1] - 1) + 1 - 2 * padding[1])
    spec = ConvSpec(kernel=tuple(kernel), stride=stride, dilation=dilation,
                    groups=c if depthwise else 1, padding=padding,
                    transposed=transposed, out_pad=out_pad)
    bsz = int(rng.integers(1, 3))
    x = rng.standard_normal((bsz, c, h, wid))
    wshape = (c, cout, *kernel) if transposed else (cout, 1 if depthwise else c, *kernel)
    b = rng.standard_normal(cout) if rng.random() < 0.7 else None
    return x, rng.standard_normal(wshape), b, spec


@pytest.mark.parametrize("seed", range(8))
def test_stride1_paths_match_reference(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        assert_matches_reference(*random_case(rng, max_stride=1))


@pytest.mark.parametrize("seed", range(4))
def test_strided_paths_match_reference(seed):
    rng = np.random.default_rng(200 + seed)
    for _ in range(25):
        assert_matches_reference(*random_case(rng))


@pytest.mark.parametrize("seed", range(4))
def test_transposed_scatter_matches_reference(seed):
    rng = np.random.default_rng(100 + seed)
    for _ in range(25):
        assert_matches_reference(*random_case(rng, transposed=True))


@pytest.mark.parametrize("c,cout,kernel,dilation,groups,hw", [
    (3, 4, (3, 3), (1, 1), 1, (5, 17)),      # H < W
    (3, 4, (3, 3), (8, 2), 1, (30, 6)),      # H > W, large dilation
    (5, 5, (3, 3), (2, 3), 5, (7, 11)),      # depthwise
    (4, 4, (19, 1), (4, 1), 1, (40, 5)),     # time DLC
    (4, 4, (1, 19), (1, 4), 1, (5, 40)),     # frequency DLC, transposed plane
    (4, 4, (1, 5), (1, 2), 4, (6, 9)),       # depthwise along W only
    (6, 2, (1, 1), (1, 1), 1, (9, 8)),       # pointwise
])
def test_model_shaped_specs_batch2(c, cout, kernel, dilation, groups, hw):
    rng = np.random.default_rng(11)
    spec = ConvSpec(kernel=kernel, dilation=dilation, groups=groups,
                    padding=same_pad(kernel, dilation))
    x = rng.standard_normal((2, c, *hw))
    w = rng.standard_normal((cout, c // groups, *kernel))
    assert_matches_reference(x, w, rng.standard_normal(cout), spec)


def test_pointwise_with_padding():
    rng = np.random.default_rng(12)
    spec = ConvSpec(kernel=(1, 1), padding=(2, 1))
    x = rng.standard_normal((2, 3, 4, 5))
    assert_matches_reference(x, rng.standard_normal((4, 3, 1, 1)), rng.standard_normal(4), spec)


def test_noncontiguous_input():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((1, 3, 12, 10))[:, :, 1:-1, ::2]
    for spec in (ConvSpec(kernel=(1, 1)), ConvSpec(kernel=(1, 3), dilation=(1, 2)),
                 ConvSpec(kernel=(3, 3), stride=(2, 2), padding=(1, 1))):
        assert_matches_reference(x, rng.standard_normal((2, 3, *spec.kernel)), None, spec)


def test_model_up_convs_match_reference():
    rng = np.random.default_rng(14)
    for spec, cin, cout, hw in [
        (ConvSpec(kernel=(2, 2), stride=(2, 2), transposed=True), 6, 2, (5, 4)),
        (ConvSpec(kernel=(1, 3), stride=(1, 2), padding=(0, 1), out_pad=(0, 1),
                  transposed=True), 3, 3, (4, 9)),
    ]:
        x = rng.standard_normal((2, cin, *hw))
        assert_matches_reference(x, rng.standard_normal((cin, cout, *spec.kernel)),
                                 rng.standard_normal(cout), spec)


def test_model_down_convs_match_reference():
    rng = np.random.default_rng(16)
    for spec, cin, cout, hw in [
        (ConvSpec(kernel=(1, 3), stride=(1, 2), padding=(0, 1)), 4, 4, (5, 16)),  # down_f
        (ConvSpec(kernel=(2, 2), stride=(2, 2)), 4, 6, (7, 8)),                   # down
        (ConvSpec(kernel=(3, 3), stride=(2, 2), padding=(1, 1)), 2, 8, (9, 17)),  # critic
    ]:
        x = rng.standard_normal((2, cin, *hw))
        assert_matches_reference(x, rng.standard_normal((cout, cin, *spec.kernel)),
                                 rng.standard_normal(cout), spec)


def test_groups_is_one_or_depthwise():
    x = np.zeros((1, 4, 6, 7))
    with pytest.raises(InvalidSpecError, match="groups"):
        conv2d(x, np.zeros((4, 2, 3, 3)), None, ConvSpec(kernel=(3, 3), groups=2))
    with pytest.raises(InvalidSpecError, match="groups"):  # channel multiplier 2
        conv2d(x, np.zeros((8, 1, 3, 3)), None, ConvSpec(kernel=(3, 3), groups=4))
    with pytest.raises(InvalidSpecError, match="groups"):
        ConvSpec(kernel=(3, 3), stride=(2, 2), groups=4)
    with pytest.raises(InvalidSpecError, match="groups"):
        ConvSpec(kernel=(2, 2), stride=(2, 2), groups=4, transposed=True)


def test_fast_paths_build_no_window_view(monkeypatch):
    """No conv the network runs, nor a whole forward with its critic,
    reaches a sliding-window view: every path is per kernel tap."""
    def no_windows(*args, **kwargs):
        raise AssertionError("window view built")

    monkeypatch.setattr(np.lib.stride_tricks, "sliding_window_view", no_windows)
    rng = np.random.default_rng(15)
    x = rng.standard_normal((1, 4, 6, 7))
    conv2d(x, rng.standard_normal((3, 4, 3, 3)), None, ConvSpec(kernel=(3, 3), padding=(1, 1)))
    conv2d(x, rng.standard_normal((4, 1, 3, 3)), None,
           ConvSpec(kernel=(3, 3), groups=4, padding=(1, 1)))
    conv2d(x, rng.standard_normal((3, 4, 3, 3)), None,
           ConvSpec(kernel=(3, 3), stride=(2, 2), padding=(1, 1)))
    conv2d(x, rng.standard_normal((4, 2, 2, 2)), None,
           ConvSpec(kernel=(2, 2), stride=(2, 2), transposed=True))
    cfg = micro_config()
    ws = model.init_discriminator(model.init_weights(cfg))
    res = model.forward(Waveform(0.1 * rng.standard_normal(2000)), ws, cfg)
    mag = np.hypot(res.spec.re, res.spec.im)
    discriminate(mag, 0.5 * mag, ws)
    with pytest.raises(AssertionError, match="window view"):
        conv2d_reference(x, rng.standard_normal((3, 4, 3, 3)), None, ConvSpec(kernel=(3, 3)))

