"""The whole network against its kernel oracles.

`forward` runs once with every fast kernel swapped for its oracle from
`oracles.py` (conv2d, the dense stacks, the deformable embed, Taylor
attention and overlap-add) and once as it ships, on weights that exercise
every branch (`exercised_store`). Wave and mask agree to 1e-12 relative
L2, and so they do with every block cap patched small, so that the fast
kernels cross their block edges inside the network. The phase is not
bounded: it is atan2 of the phase heads' outputs, which amplifies errors
near (0, 0).
"""
import numpy as np
import pytest

from lort import arrays, attention, layers, model, signal
from lort.signal import Waveform
from lort.verify import micro_config, taylor_reference
from oracles import (
    conv2d_reference,
    dense_concat,
    exercised_store,
    full_map_dsdcn,
    overlap_add_per_frame,
)

RTOL = 1e-12
# micro_config(), whose convs all run on the flat plane, and two blocks at
# C = 8, whose wider dense layers and DLCs run row-blocked
CONFIGS = {
    "micro": micro_config(),
    "two_blocks_c8": model.ModelConfig(n_blocks=2, channels=8, fft_len=64, win_len=64, hop=16),
}
# caps small enough that most convs and the embed run in several blocks
SMALL_CAPS = [(arrays, "_TAP_ELEMS", 1 << 12), (arrays, "_ROW_BLOCK_ELEMS", 1 << 14),
              (arrays, "_ROW_PRODUCT_ELEMS", 1 << 10), (model, "_EMBED_BLOCK_ELEMS", 1 << 8)]


def enhance(cfg, seed=3):
    wav = Waveform(0.1 * np.random.default_rng(seed).standard_normal(4000))
    return model.forward(wav, exercised_store(cfg, seed), cfg)


def use_oracles(monkeypatch):
    monkeypatch.setattr(layers, "conv2d", conv2d_reference)
    monkeypatch.setattr(layers.DenseStack, "__call__", lambda self, ws, x, stem=None:
                        dense_concat(self, ws, x if stem is None else stem(ws, x)))
    monkeypatch.setattr(model.Dsdcn, "__call__", full_map_dsdcn)
    monkeypatch.setattr(attention, "taylor_attention", taylor_reference)
    monkeypatch.setattr(signal, "_overlap_add", overlap_add_per_frame)


def rel_l2(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("name", CONFIGS)
def test_forward_matches_its_kernel_oracles(monkeypatch, name):
    cfg = CONFIGS[name]
    rows, engine = [], arrays._conv_rows
    monkeypatch.setattr(arrays, "_conv_rows", lambda *a: rows.append(1) or engine(*a))
    runs = [enhance(cfg)]
    with monkeypatch.context() as m:
        for module, cap, value in SMALL_CAPS:
            m.setattr(module, cap, value)
        runs.append(enhance(cfg))
    assert bool(rows) == (name == "two_blocks_c8")
    with monkeypatch.context() as m:
        use_oracles(m)
        want = enhance(cfg)
    for got in runs:
        assert rel_l2(got.wave.samples, want.wave.samples) <= RTOL
        assert rel_l2(got.mask, want.mask) <= RTOL
