"""Smoke test of the benchmark's workloads (`perfbench/workloads.py`).

The workloads call `lort` through its public surface: `LossWeights(*...)`,
`make_toy_task(duration_s=)`, `build_model(cfg).param_names()` and
`.manifest()`, and `init_discriminator`. A change to that surface breaks
the benchmark run; setting the workloads up and running two train_micro
ops against their goldens makes it fail here first.
"""
from perfbench.workloads import WORKLOADS


def test_train_micro_ops_match_their_goldens(tmp_path):
    wl = WORKLOADS["train_micro"]
    st = wl.setup(tmp_path)
    for p in range(2):
        assert wl.check(st, p, wl.run(st, wl.prepare(st, p))) == []


def test_enhance_2s_sets_up(tmp_path):
    wl = WORKLOADS["enhance_2s"]
    st = wl.setup(tmp_path)
    assert len(st["clips"]) == wl.pool and st["golden"].shape[0] == wl.pool
