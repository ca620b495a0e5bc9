"""Smoke test of the benchmark's tracing hooks (`perfbench/tracing.py`).

The hooks rebind the public layer functions of `lort` by module and name.
A rename the hooks' target table does not follow breaks the traced
benchmark run; this traced micro-config op makes it fail here first.
"""
import lort
from lort.model import init_discriminator
from lort.verify import make_toy_task, micro_config
from perfbench.tracing import Recorder, op_layers, tracing

SPANS = (
    "attention.taylor_attention",
    "local_refine.lrc_block",
    "local_refine.cfn",
    "local_refine.tf_dlc",
    "attention.msar_correct",
    "attention.scea",
    "model.blocks",
)


def test_traced_op_covers_the_layers_and_their_macs():
    cfg = micro_config()
    noisy, clean = make_toy_task(cfg, seed=7, duration_s=0.25)
    ref = lort.stft(clean, cfg.fft_len, cfg.win_len, cfg.hop)
    ws = lort.init_weights(cfg, seed=7)
    disc = init_discriminator(lort.WeightStore(), seed=7)
    untraced = lort.local_refine.lrc_block
    rec = Recorder()
    # a target missing from its module raises TracingError on entry
    with tracing(rec), lort.FlopMeter() as meter:
        res = lort.forward(noisy, ws, cfg)
        lort.evaluate_losses(res.spec, ref, lort.LossWeights(*cfg.loss_weights), disc=disc)
    assert lort.local_refine.lrc_block is untraced
    layers = op_layers(rec.spans, 0)
    assert meter.macs > 0
    assert sum(row["macs"] for row in layers.values()) == meter.macs
    for name in SPANS:
        assert layers.get(name, {}).get("calls", 0) == cfg.n_blocks, name
    assert layers.get("model.embed", {}).get("calls", 0) == 1
