import numpy as np
import numpy.testing as npt
import pytest

from lort.arrays import ConvSpec, conv2d
from lort.attention import (
    AttentionInput,
    count_ops,
    msar_correct,
    scea,
    softmax_attention,
    taylor_attention,
)
from lort.errors import DegenerateAttentionError, ShapeError
from lort.layers import Conv
from lort.verify import taylor_reference
from lort.weights import WeightStore


def random_input(h=2, t=4, f=8, dh=6, seed=0):
    rng = np.random.default_rng(seed)
    n = t * f
    return AttentionInput(rng.standard_normal((h, n, dh)),
                          rng.standard_normal((h, n, dh)),
                          rng.standard_normal((h, n, dh)))


def test_attention_input_validation():
    with pytest.raises(ShapeError):
        AttentionInput(np.zeros((2, 8, 4)), np.zeros((2, 8, 4)), np.zeros((2, 9, 4)))
    with pytest.raises(ShapeError):
        AttentionInput(np.zeros((8, 4)), np.zeros((8, 4)), np.zeros((8, 4)))


def test_taylor_matches_bruteforce_reference():
    for seed in range(5):
        ain = random_input(seed=seed)
        npt.assert_allclose(taylor_attention(ain), taylor_reference(ain), atol=1e-12)


def test_taylor_on_head_views_of_channel_major_maps():
    """The model cuts its heads as (H, N, Dh) transposed views of (H, Dh, N)
    channel-major maps; the result lies in that plane too, so transposing
    it back to channel-major order copies nothing."""
    rng = np.random.default_rng(5)
    q, k, v = (rng.standard_normal((3, 8, 5 * 7)).transpose(0, 2, 1) for _ in range(3))
    ain = AttentionInput(q, k, v)
    got = taylor_attention(ain)
    want = taylor_reference(ain)
    assert got.shape == want.shape == (3, 35, 8)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert got.transpose(0, 2, 1).flags.c_contiguous


def test_unnormalized_integer_taylor_divides_like_floats():
    q = np.arange(2 * 5 * 3).reshape(2, 5, 3) % 4
    got = taylor_attention(AttentionInput(q, q[:, ::-1], q + 1), normalize=False)
    want = taylor_attention(AttentionInput(q * 1.0, q[:, ::-1] * 1.0, q + 1.0), normalize=False)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def test_zero_query_reduces_to_row_mean():
    ain = random_input(seed=1)
    zero_q = AttentionInput(np.zeros_like(ain.q), ain.k, ain.v)
    mean = np.broadcast_to(ain.v.mean(axis=1, keepdims=True), ain.v.shape)
    npt.assert_allclose(taylor_attention(zero_q, normalize=False), mean, atol=1e-12)
    npt.assert_allclose(softmax_attention(zero_q), mean, atol=1e-12)


def test_softmax_attention_rows_are_convex_combinations():
    ain = random_input(seed=2)
    out = softmax_attention(ain)
    lo = ain.v.min(axis=1, keepdims=True)
    hi = ain.v.max(axis=1, keepdims=True)
    assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


def test_degenerate_taylor_denominator_raises():
    n, dh = 6, 3
    q = np.zeros((1, n, dh))
    q[..., 0] = 1.0
    k = -q
    with pytest.raises(DegenerateAttentionError):
        taylor_attention(AttentionInput(q, k, np.ones((1, n, dh))))


def msar_params(c, seed=None):
    ws = WeightStore()
    if seed is None:
        ws["m.local.w"] = np.zeros((c, 1, 3, 3))
        ws["m.local.b"] = np.zeros(c)
        ws["m.gate.w"] = np.zeros((c, 2 * c, 1, 1))
        ws["m.gate.b"] = np.zeros(c)
    else:
        rng = np.random.default_rng(seed)
        ws["m.local.w"] = rng.standard_normal((c, 1, 3, 3))
        ws["m.local.b"] = rng.standard_normal(c)
        ws["m.gate.w"] = rng.standard_normal((c, 2 * c, 1, 1))
        ws["m.gate.b"] = rng.standard_normal(c)
    return ws, Conv("m.local", c, c, (3, 3), groups=c), Conv("m.gate", 2 * c, c, (1, 1))


def to_map(x, grid):
    # (H, N, Dh) -> (1, H*Dh, t, f), head-major channel layout
    h, _, dh = x.shape
    return x.transpose(0, 2, 1).reshape(1, h * dh, *grid)


def msar_maps(ain, grid=(4, 8)):
    vp = taylor_attention(ain)
    return [to_map(x, grid) for x in (ain.q, ain.k, ain.v, vp)]


def test_msar_zero_params_is_identity_on_vprime():
    maps = msar_maps(random_input(seed=3))
    npt.assert_array_equal(msar_correct(*maps, *msar_params(2 * 6)), maps[3])


def test_msar_correction_is_bounded_by_local_branch():
    maps = msar_maps(random_input(seed=4))
    vp = maps[3]
    out = msar_correct(*maps, *msar_params(2 * 6, seed=5))
    assert out.shape == vp.shape
    assert np.all(np.isfinite(out))
    assert not np.allclose(out, vp)


def test_msar_gates_the_local_conv_of_v_by_q_and_k():
    q, k, v, vp = msar_maps(random_input(seed=4))
    ws, _, _ = msar_params(2 * 6, seed=5)
    local = conv2d(v, ws["m.local.w"], ws["m.local.b"],
                   ConvSpec(kernel=(3, 3), groups=12, padding=(1, 1)))
    gate = conv2d(np.concatenate([q, k], axis=1), ws["m.gate.w"], ws["m.gate.b"],
                  ConvSpec(kernel=(1, 1)))
    want = vp + local / (1.0 + np.exp(-gate))
    npt.assert_allclose(msar_correct(q, k, v, vp, *msar_params(2 * 6, seed=5)), want,
                        rtol=1e-12)


def test_msar_rejects_maps_of_unequal_shape():
    q, k, v, vp = msar_maps(random_input(seed=3))
    with pytest.raises(ShapeError):
        msar_correct(q, k, v[:, :, :2], vp, *msar_params(2 * 6))


def scea_params(c, seed=0):
    rng = np.random.default_rng(seed)
    ws = WeightStore()
    ws["s.ch.w"] = rng.standard_normal((1, 1, 3, 1))
    ws["s.ch.b"] = rng.standard_normal(1)
    ws["s.sp.w"] = rng.standard_normal((1, 2, 5, 5))
    ws["s.sp.b"] = rng.standard_normal(1)
    return ws, Conv("s.ch", 1, 1, (3, 1), padding=(1, 0)), Conv("s.sp", 2, 1, (5, 5))


def test_scea_gates_shrink_the_input():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 8, 5, 7))
    out = scea(x, *scea_params(8))
    assert out.shape == x.shape
    assert np.all(np.abs(out) <= np.abs(x) + 1e-12)  # both gates are in (0,1)
    with pytest.raises(ShapeError):
        scea(x[0], *scea_params(8))


def test_count_ops_closed_forms():
    ops = count_ops(8, 8, 16)
    assert ops.mhsa_ops == 196608
    assert ops.tmsa_ops == 51200
    ops2 = count_ops(2, 3, 5)
    assert ops2.mhsa_ops == 4 * 6 * 25 + 2 * 36 * 5
    assert ops2.tmsa_ops == 18 * 6 * 5 + 2 * 6 * 25
    with pytest.raises(ShapeError):
        count_ops(0, 4, 4)
