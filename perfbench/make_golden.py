#!/usr/bin/env python3
"""Write the golden outputs that every benchmark op is checked against.

    python3 perfbench/make_golden.py [workload ...]

The goldens define a correct output, so write them only at a commit whose
outputs are known good. One file per workload in perfbench/golden/: the
float waveform (as float32) of each pool clip for the audio workloads, and
the loss total of each pool perturbation for train_micro.
"""
from __future__ import annotations

import os
import shutil
import sys

import run  # pins BLAS threads and puts the package source on sys.path


def main(names: list[str]) -> int:
    import numpy as np

    from workloads import GOLDEN_DIR, WORKLOADS

    GOLDEN_DIR.mkdir(exist_ok=True)
    workdir = run.OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in names or list(WORKLOADS):
            wl = WORKLOADS[name]
            st = wl.setup(workdir, golden=False)
            outs = [wl.run(st, wl.prepare(st, p)) for p in range(wl.pool)]
            st["golden"] = np.array([wl.golden_of(out) for out in outs])
            for p, out in enumerate(outs):
                problems = wl.check(st, p, out)
                if problems:
                    raise SystemExit(f"{name} pool item {p}: {problems}")
            np.save(GOLDEN_DIR / f"{name}.npy", st["golden"])
            print(f"{name}: {st['golden'].shape} {st['golden'].dtype}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
