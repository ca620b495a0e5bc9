import tracemalloc

import numpy as np
import numpy.testing as npt

from lort.layers import init_store, zero_store
from lort.local_refine import Lrc, cfn, lrc_block, tf_dlc


C = 6
LRC = Lrc("lrc", C)


def lrc_manifest():
    return list(LRC.manifest())


def test_zero_weights_make_each_piece_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, C, 12, 10))
    ws = zero_store(lrc_manifest())
    npt.assert_array_equal(cfn(LRC, ws, x), x)
    npt.assert_array_equal(LRC.dlc_t(ws, x), x)
    npt.assert_array_equal(tf_dlc(LRC, ws, x), x)
    npt.assert_array_equal(lrc_block(LRC, ws, x), x)


def test_lrc_block_interpolates_between_input_and_value():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, C, 16, 9))
    ws = init_store(lrc_manifest(), seed=2)
    out = lrc_block(LRC, ws, x)
    value = tf_dlc(LRC, ws, x)
    lo = np.minimum(x, value) - 1e-12
    hi = np.maximum(x, value) + 1e-12
    assert np.all((out >= lo) & (out <= hi))


def test_time_dlc_is_frequency_permutation_equivariant():
    # (k, 1) kernels never mix frequency bins; instance-norm statistics are
    # permutation-invariant, so any bin shuffle commutes with the block.
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, C, 20, 7))
    ws = init_store(lrc_manifest(), seed=4)
    perm = rng.permutation(7)
    a = LRC.dlc_t(ws, x[:, :, :, perm])
    b = LRC.dlc_t(ws, x)[:, :, :, perm]
    npt.assert_allclose(a, b, atol=1e-12)


def test_shapes_preserved_with_random_weights():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, C, 24, 11))
    ws = init_store(lrc_manifest(), seed=6)
    for fn in (lambda z: cfn(LRC, ws, z),
               lambda z: tf_dlc(LRC, ws, z),
               lambda z: lrc_block(LRC, ws, z)):
        out = fn(x)
        assert out.shape == x.shape
        assert np.all(np.isfinite(out))


def test_lrc_block_peak_memory():
    """Each DLC's stack runs pw_in as its stem, so no caller holds pw_in's
    output, and the CFN gate is computed after TF-DLC, so it is not alive
    while the DLCs run; either map held across the DLCs exceeds the bound."""
    lrc = Lrc("lrc", 48)
    ws = init_store(lrc.manifest(), seed=8)
    x = np.random.default_rng(9).standard_normal((1, 48, 160, 64))
    lrc_block(lrc, ws, x)  # warm any lazily allocated state
    tracemalloc.start()
    try:
        lrc_block(lrc, ws, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.5 * x.nbytes, (peak, x.nbytes)
