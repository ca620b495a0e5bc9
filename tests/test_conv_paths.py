"""The fast conv2d paths against the window-view oracle `conv2d_reference`.

Specs are drawn from a seeded generator so every run checks the same cases.
"""
import numpy as np
import pytest

from lort import arrays
from lort.arrays import ConvSpec, FlopMeter, conv2d, conv2d_reference, same_pad

RTOL = 1e-12


def assert_matches_reference(x, w, b, spec):
    with FlopMeter() as ref_meter:
        ref = conv2d_reference(x, w, b, spec)
    with FlopMeter() as meter:
        out = conv2d(x, w, b, spec)
    assert out.shape == ref.shape
    assert meter.macs == ref_meter.macs
    assert np.abs(out - ref).max() <= RTOL * np.abs(ref).max(), spec


def random_case(rng, transposed=False):
    """One (x, w, b, spec) with a valid, non-empty output."""
    c = int(rng.integers(1, 6))
    depthwise = not transposed and rng.random() < 0.4
    cout = c if depthwise else int(rng.integers(1, 6))
    kernel = [int(k) for k in rng.integers(1, 6, 2)]
    axis = rng.integers(0, 4)  # 0, 1: a kernel along one axis only
    if axis < 2:
        kernel[axis] = 1
    dilation = tuple(int(d) for d in rng.integers(1, 9, 2))
    h, wid = (int(n) for n in rng.integers(1, 16, 2))
    if transposed:
        stride = tuple(int(s) for s in rng.integers(1, 4, 2))
        out_pad = tuple(int(rng.integers(0, s)) for s in stride)
        padding = tuple(int(rng.integers(0, d * (k - 1) + 2)) for d, k in zip(dilation, kernel))
        # enough extent that the padding crop leaves an output
        h = max(h, -(-2 * padding[0] // stride[0]) + 1)
        wid = max(wid, -(-2 * padding[1] // stride[1]) + 1)
    else:
        stride, out_pad = (1, 1), (0, 0)
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
    for spec in (ConvSpec(kernel=(1, 1)), ConvSpec(kernel=(1, 3), dilation=(1, 2))):
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


def test_fast_paths_build_no_window_view(monkeypatch):
    """Stride-1 dense/depthwise and single-group transposed convs never
    reach the window path; strided and grouped convs still do."""
    def no_windows(*args):
        raise AssertionError("window path used")

    monkeypatch.setattr(arrays, "_windows", no_windows)
    rng = np.random.default_rng(15)
    x = rng.standard_normal((1, 4, 6, 7))
    conv2d(x, rng.standard_normal((3, 4, 3, 3)), None, ConvSpec(kernel=(3, 3), padding=(1, 1)))
    conv2d(x, rng.standard_normal((4, 1, 3, 3)), None,
           ConvSpec(kernel=(3, 3), groups=4, padding=(1, 1)))
    conv2d(x, rng.standard_normal((4, 2, 2, 2)), None,
           ConvSpec(kernel=(2, 2), stride=(2, 2), transposed=True))
    with pytest.raises(AssertionError, match="window path"):
        conv2d(x, rng.standard_normal((3, 4, 3, 3)), None,
               ConvSpec(kernel=(3, 3), stride=(2, 2), padding=(1, 1)))
    with pytest.raises(AssertionError, match="window path"):
        conv2d(x, rng.standard_normal((2, 2, 3, 3)), None,
               ConvSpec(kernel=(3, 3), groups=2, padding=(1, 1)))
