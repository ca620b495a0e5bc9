"""The per-tap conv2d paths against the window-view oracle `conv2d_reference`.

The oracle contracts a sliding-window (im2col) view per group, and runs a
transposed conv as a stride-1 correlation of the zero-stuffed input with
the flipped kernel, then adds the bias. It shares only the operand checks
with `lort.arrays.conv2d`, so it checks every path's arithmetic, bias add
included, independently.
Specs are drawn from a seeded generator so every run checks the same cases.
"""
import tracemalloc

import numpy as np
import pytest

from lort import arrays, layers, model
from lort.arrays import ConvSpec, FlopMeter, _check_conv, add_macs, conv2d, same_pad
from lort.errors import InvalidSpecError
from lort.layers import init_store
from lort.objectives import discriminate
from lort.signal import Waveform
from lort.verify import micro_config
from lort.weights import WeightStore

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
    add_macs(macs)
    if b is not None:
        out = out + b.reshape(1, -1, 1, 1)
    return out


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


def test_nonzero_bias_through_every_path():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((2, 3, 7, 9))
    for spec, wshape in [
        (ConvSpec(kernel=(3, 3), dilation=(2, 1), padding=(2, 1)), (4, 3, 3, 3)),  # flat
        (ConvSpec(kernel=(3, 3), groups=3, padding=(1, 1)), (3, 1, 3, 3)),         # flat, depthwise
        (ConvSpec(kernel=(3, 3), stride=(2, 2), padding=(1, 1)), (4, 3, 3, 3)),    # strided
        (ConvSpec(kernel=(2, 3), stride=(2, 2), padding=(0, 1), out_pad=(1, 0),
                  transposed=True), (3, 4, 2, 3)),                                 # scatter
    ]:
        b = 10.0 + rng.standard_normal(wshape[1] if spec.transposed else wshape[0])
        w = rng.standard_normal(wshape)
        assert_matches_reference(x, w, b, spec)
        # the bias promotes the result as `out + b` does: float32 operands
        # with a float64 bias give float64, a complex bias gives complex
        x32, w32 = x.astype(np.float32), w.astype(np.float32)
        for xb, wb, bb, tol in [(x32, w32, b, 1e-5), (x, w, b + 1j * b[::-1], RTOL)]:
            ref = conv2d_reference(xb, wb, bb, spec)
            out = conv2d(xb, wb, bb, spec)
            assert out.dtype == ref.dtype == np.result_type(xb, wb, bb)
            assert np.abs(out - ref).max() <= tol * np.abs(ref).max(), spec


def depthwise_broadcast(x, w, b, spec):
    """The depthwise conv as the flat-plane path ran it before it went per
    channel: each tap's (C, 1) weights broadcast over every channel of the
    flattened padded plane, then the bias."""
    ph, pw = spec.padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    bsz, c, h, wid = xp.shape
    (kh, kw), (dh, dw) = spec.kernel, spec.dilation
    ho, wo = h - dh * (kh - 1), wid - dw * (kw - 1)
    xf = xp.reshape(bsz, c, h * wid)
    span = (ho - 1) * wid + wo
    taps = w.reshape(c, kh * kw).T[:, :, None]  # (taps, C, 1)
    offsets = [i * dh * wid + j * dw for i in range(kh) for j in range(kw)]
    acc = np.zeros((bsz, c, ho * wid))
    acc[:, :, :span] = taps[0] * xf[:, :, offsets[0] : offsets[0] + span]
    for tap, off in zip(taps[1:], offsets[1:]):
        acc[:, :, :span] += tap * xf[:, :, off : off + span]
    acc[:, :, :span] += b[:, None]
    return acc.reshape(bsz, c, ho, wid)[:, :, :, :wo]


@pytest.mark.parametrize("shape,dilation", [
    ((2, 48, 160, 64), (1, 1)),  # block-width cfn.dw and msar.local
    ((2, 8, 125, 8), (1, 1)),    # micro_config()
    ((2, 16, 21, 30), (2, 3)),
])
def test_depthwise_per_channel_is_the_broadcast_form_bit_for_bit(shape, dilation):
    rng = np.random.default_rng(44)
    c = shape[1]
    spec = ConvSpec(kernel=(3, 3), dilation=dilation, groups=c,
                    padding=same_pad((3, 3), dilation))
    x, w, b = (rng.standard_normal(shape), rng.standard_normal((c, 1, 3, 3)),
               rng.standard_normal(c))
    assert conv2d(x, w, b, spec).tobytes() == depthwise_broadcast(x, w, b, spec).tobytes()


def bordered_views(rng, batch=2, border=5):
    """Padding-0 cases whose inputs are row-strided windows of a larger
    buffer with a random (nonzero) border: (x, w, b, spec) per conv shape."""
    cases = []
    for c, cout, kernel, dilation, groups in [
        (3, 4, (3, 3), (2, 2), 1),     # dense, dilated
        (4, 4, (3, 3), (1, 1), 4),     # depthwise
        (3, 2, (5, 1), (2, 1), 1),     # time axial
        (5, 3, (1, 1), (1, 1), 1),     # pointwise over a channel slice
    ]:
        ph, pw = same_pad(kernel, dilation)
        buf = rng.standard_normal((batch, c + 3, 8 + 2 * border, 11 + 2 * border))
        x = buf[:, 1 : 1 + c, border - ph : border + 8 + ph, border - pw : border + 11 + pw]
        spec = ConvSpec(kernel=kernel, dilation=dilation, groups=groups)
        w = rng.standard_normal((cout, c // groups, *kernel))
        cases.append((x, w, rng.standard_normal(cout), spec))
    return cases


def test_bordered_views_match_reference():
    for x, w, b, spec in bordered_views(np.random.default_rng(18)):
        assert not x.flags.c_contiguous
        assert_matches_reference(x, w, b, spec)


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
    reaches a sliding-window view: every path contracts per kernel tap or,
    row-blocked, per output row over a relayout of the rows it reads.
    Convs at padding 0 over windows of a bordered buffer make no padded or
    contiguous copy of their input."""
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
    disc = model.init_discriminator(WeightStore())
    res = model.forward(Waveform(0.1 * rng.standard_normal(2000)), model.init_weights(cfg), cfg)
    mag = np.hypot(res.spec.re, res.spec.im)
    discriminate(mag, 0.5 * mag, disc)
    with pytest.raises(AssertionError, match="window view"):
        conv2d_reference(x, rng.standard_normal((3, 4, 3, 3)), None, ConvSpec(kernel=(3, 3)))

    # Padding-0 convs over windows of a bordered buffer, and the dense stack
    # built on them, read their input in place: no padded or contiguous copy.
    def no_copy(*args, **kwargs):
        raise AssertionError("input copied")

    monkeypatch.setattr(np, "pad", no_copy)
    monkeypatch.setattr(arrays, "zero_pad", no_copy)
    monkeypatch.setattr(np, "ascontiguousarray", no_copy)
    for case in bordered_views(rng):
        conv2d(*case)
    buf = rng.standard_normal((2, 20, 16, 17))  # a row-blocked conv on a window
    conv2d(buf[:, 2:18, 1:-1, 2:-2], rng.standard_normal((16, 16, 3, 3)), None,
           ConvSpec(kernel=(3, 3), dilation=(2, 2)))
    stack = model.dilated_dense("dense", 4, (1, 2, 4, 8))
    for shape in ((2, 4, 9, 10), (2, 4, 10, 9)):  # (H, W) and transposed plane
        stack(init_store(stack.manifest()), rng.standard_normal(shape))
    with pytest.raises(AssertionError, match="input copied"):
        conv2d(x, rng.standard_normal((3, 4, 3, 3)), None, ConvSpec(kernel=(3, 3), padding=(1, 1)))



def transposed_view(x, border=(2, 3)):
    """x's values as a (B, C, H, W) view of a zero-bordered (B, C, W, H)
    plane, as the transposed dense stacks hand their output over."""
    b, c, h, w = x.shape
    bw, bh = border
    buf = np.zeros((b, c, w + 2 * bw, h + 2 * bh))
    buf[:, :, bw : bw + w, bh : bh + h] = x.transpose(0, 1, 3, 2)
    view = buf[:, :, bw : bw + w, bh : bh + h].transpose(0, 1, 3, 2)
    assert arrays._transposed_view(view)
    return view


@pytest.mark.parametrize("seed", range(4))
def test_transposed_views_match_reference_and_the_contiguous_input(seed):
    """Strided and transposed convs run on the plane a transposed view lies
    in. With two or more output channels each output is the same GEMM dot
    product as for the contiguous input, bit for bit; with one, numpy's
    matmul is a vector product whose BLAS kernel may sum a column in an
    order set by its position, so only the oracle's tolerance holds."""
    rng = np.random.default_rng(400 + seed)
    for _ in range(25):
        for transposed in (False, True):
            x, w, b, spec = random_case(rng, transposed=transposed)
            view = transposed_view(x)
            assert_matches_reference(view, w, b, spec)
            if w.shape[1 if transposed else 0] > 1:
                assert np.array_equal(conv2d(view, w, b, spec), conv2d(x, w, b, spec)), spec


def test_resampling_convs_make_no_transposing_copy_of_a_transposed_view(monkeypatch):
    """The encoder's `down_f` and the decoders' `up_f` read a transposed
    view on its own plane and return their result as a transposed view;
    any copy they make of the input keeps its unit-stride axis."""
    rng = np.random.default_rng(19)
    cases = []
    for spec in (ConvSpec(kernel=(1, 3), stride=(1, 2), padding=(0, 1)),
                 ConvSpec(kernel=(1, 3), stride=(1, 2), padding=(0, 1), out_pad=(0, 1),
                          transposed=True)):
        for bsz in (1, 2):
            x = rng.standard_normal((bsz, 16, 21, 12))
            w, b = rng.standard_normal((16, 16, 1, 3)), rng.standard_normal(16)
            cases.append((transposed_view(x), w, b, spec, conv2d(x, w, b, spec)))

    def row_copy(copy):
        def checked(x, *args, **kwargs):
            assert x.strides[-1] == x.itemsize, "transposing copy"
            return copy(x, *args, **kwargs)
        return checked

    monkeypatch.setattr(arrays, "zero_pad", row_copy(arrays.zero_pad))
    monkeypatch.setattr(np, "ascontiguousarray", row_copy(np.ascontiguousarray))
    for view, w, b, spec, want in cases:
        out = conv2d(view, w, b, spec)
        assert arrays._transposed_view(out)
        assert np.array_equal(out, want)


# ---------------------------------------------------------------------------
# The row-blocked engine

# (kernel, dilation, plane): every kernel shape the network runs row-blocked,
# at dilations 1 to 8, on planes that leave full rows in each phase at padding 0
ROW_SPECS = [((3, 3), (d, d), (45, 23)) for d in (1, 2, 4, 8)] + [
    ((3, 3), (8, 1), (45, 23)),
    *[((19, 1), (d, 1), (80, 5)) for d in (1, 2, 4)],
    *[((1, 19), (1, d), (5, 80)) for d in (1, 2, 4)],
]


def count_row_calls(monkeypatch):
    """The kernel shape of every `_conv_rows` call, in call order: a kernel
    along W only calls again with its taps along rows."""
    calls, rows = [], arrays._conv_rows

    def counted(x, w, *args):
        calls.append(w.shape[2:])
        return rows(x, w, *args)

    monkeypatch.setattr(arrays, "_conv_rows", counted)
    return calls


@pytest.mark.parametrize("same", [False, True], ids=["pad0", "same"])
@pytest.mark.parametrize("kernel,dilation,plane", ROW_SPECS,
                         ids=[f"{k[0]}x{k[1]}_d{d[0]}x{d[1]}" for k, d, _ in ROW_SPECS])
def test_row_engine_matches_reference_in_small_blocks(monkeypatch, kernel, dilation, plane,
                                                      same):
    """With the caps patched small, a phase spans several row blocks, the
    columns several column blocks with their halo, GEMMs take two rows,
    phases differ in length, and edge rows contract fewer taps. A bordered
    window and a transposed view give the contiguous input's result bit
    for bit (Cout >= 2)."""
    rng = np.random.default_rng(sum(kernel) * 10 + sum(dilation) + same)
    cin, cout = 17, 16  # 272 weight pairs per tap: row-blocked
    padding = same_pad(kernel, dilation) if same else (0, 0)
    (kh, kw), (h, w), pw = kernel, plane, padding[1]
    if kh == 1 < kw:  # the engine runs on the transposed plane
        kh, kw, w, pw = kw, kh, h, padding[0]
    monkeypatch.setattr(arrays, "_ROW_BLOCK_ELEMS", (kh + 2) * cin * (w + 2 * pw))
    monkeypatch.setattr(arrays, "_ROW_PRODUCT_ELEMS", 2 * kw * cout * (w + 2 * pw))
    calls = count_row_calls(monkeypatch)
    spec = ConvSpec(kernel=kernel, dilation=dilation, padding=padding)
    x = rng.standard_normal((2, cin, *plane))
    wt, b = rng.standard_normal((cout, cin, *kernel)), rng.standard_normal(cout)
    assert_matches_reference(x, wt, b, spec)
    want = conv2d(x, wt, b, spec)
    buf = rng.standard_normal((2, cin + 3, plane[0] + 6, plane[1] + 6))
    bordered = buf[:, 1 : 1 + cin, 3 : 3 + plane[0], 3 : 3 + plane[1]]
    bordered[...] = x
    for view in (bordered, transposed_view(x)):
        assert np.array_equal(conv2d(view, wt, b, spec), want)
    assert calls == ([kernel, kernel[::-1]] if kernel[0] == 1 else [kernel]) * 4


def test_row_engine_reads_border_data_and_promotes_like_the_flat_path():
    """At padding 0 a window's border is data; a float32 input with float64
    weights computes in float64, and a complex bias makes the result complex."""
    rng = np.random.default_rng(41)
    buf = rng.standard_normal((2, 18, 30, 27))
    x = buf[:, 1:17, 2:-2, 3:-3]
    w, b = rng.standard_normal((16, 16, 3, 3)), rng.standard_normal(16)
    spec = ConvSpec(kernel=(3, 3), dilation=(4, 2))
    assert arrays._runs_rows(w.shape, spec)
    assert_matches_reference(x, w, b, spec)
    for xb, bb, tol in [(x.astype(np.float32), b, 1e-6), (x, b + 1j * b[::-1], RTOL)]:
        ref = conv2d_reference(xb, w, bb, spec)
        out = conv2d(xb, w, bb, spec)
        assert out.dtype == ref.dtype == np.result_type(xb, w, bb)
        assert np.abs(out - ref).max() <= tol * np.abs(ref).max()


def model_convs(value):
    """Every Conv a layer tree holds."""
    if isinstance(value, layers.Conv):
        yield value
    elif isinstance(value, (layers.Layer, list, tuple)):
        for item in vars(value).values() if isinstance(value, layers.Layer) else value:
            yield from model_convs(item)


def test_shape_split_pins_both_sides():
    """Dense multi-tap convs with at least 256 weight pairs per tap run
    row-blocked; 1x1, depthwise and narrower convs stay on the flat plane.
    So does every conv of micro_config(), while every dense multi-tap conv
    of the reference config but the one-channel SCEA kernels runs
    row-blocked."""
    def rows(cout, cin, kernel, groups=1):
        spec = ConvSpec(kernel=kernel, groups=groups)
        return arrays._runs_rows((cout, cin, *kernel), spec)

    assert rows(16, 16, (3, 3)) and rows(1, 256, (3, 3)) and rows(16, 16, (1, 19))
    assert not rows(15, 17, (3, 3))  # 255 pairs
    assert not rows(16, 16, (1, 1))
    assert not rows(256, 1, (3, 3), groups=256)  # depthwise

    def flat_convs(cfg):
        """Names of the config's stride-1 dense multi-tap convs, each with
        whether it runs row-blocked."""
        return {conv.name: arrays._runs_rows(conv.w.shape, conv.spec)
                for conv in model_convs(model.build_model(cfg))
                if conv.spec.stride == (1, 1) and not conv.spec.transposed
                and conv.spec.kernel != (1, 1) and conv.spec.groups == 1}

    micro = flat_convs(micro_config())
    assert micro and not any(micro.values())
    ref = flat_convs(model.ModelConfig())
    assert {name for name, rowed in ref.items() if not rowed} == {
        f"block{i}.scea.{k}" for i in range(4) for k in ("ch", "sp")}


def test_micro_forward_runs_no_conv_row_blocked(monkeypatch):
    calls = count_row_calls(monkeypatch)
    cfg = micro_config()
    model.forward(Waveform(0.1 * np.random.default_rng(42).standard_normal(2000)),
                  model.init_weights(cfg), cfg)
    assert calls == []


@pytest.mark.parametrize("cin,cout,kernel,dilation,plane,padding", [
    (48, 48, (19, 1), (4, 1), (160, 64), "same"),  # a DLC time conv
    (48, 48, (1, 19), (1, 2), (160, 64), "same"),  # a DLC frequency conv
    (64, 16, (3, 3), (8, 8), (144, 337), (0, 0)),  # a decoder's dilation-8 layer
], ids=["dlc_t", "dlc_f", "dense_d8"])
def test_row_engine_allocates_its_output_and_its_block_budget(cin, cout, kernel, dilation,
                                                              plane, padding):
    """Beside its output, a row-blocked conv holds the relayout of its
    weights, one row block and one GEMM product with its tap sum."""
    rng = np.random.default_rng(43)
    if padding == "same":
        padding = same_pad(kernel, dilation)
    spec = ConvSpec(kernel=kernel, dilation=dilation, padding=padding)
    x = rng.standard_normal((1, cin, *plane))
    w, b = rng.standard_normal((cout, cin, *kernel)), rng.standard_normal(cout)
    conv2d(x, w, b, spec)  # warm any lazily allocated state
    tracemalloc.start()
    try:
        out = conv2d(x, w, b, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    budget = (arrays._ROW_BLOCK_ELEMS + 2 * arrays._ROW_PRODUCT_ELEMS) * x.itemsize
    assert peak <= out.nbytes + w.nbytes + budget, (peak, out.nbytes, budget)
