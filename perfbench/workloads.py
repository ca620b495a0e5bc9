"""The benchmark's workloads: seeded inputs, one op, and output checks.

Every op's output is compared with a golden output stored in `golden/`
(written by `make_golden.py`). So that each input has a golden, inputs come
from a fixed pool of seeded items; the run seed sets the order in which the
pool is visited. The package is reached through `lort.<name>` at call time,
never through names bound at import, so that traced runs see the wrappers.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import lort
from lort import verify

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Relative L2 error allowed against a golden. float64 re-orderings of the
# same arithmetic stay below 1e-12; a wrong tap, row or gate is far above.
RTOL = 1e-6
RATE = 16000
WEIGHT_SEED = 0
CLIP_SEED = 20250923
PERTURB_SEED = 20250924
WARMUP_CLIP_S = 0.5
WARMUP_S = 1.0
WARMUP_SEED = 1_000_000


def make_clip(seed: int, seconds: float) -> np.ndarray:
    """Seeded synthetic noisy speech: a gliding harmonic voice under a
    syllable-rate envelope, in white noise at 0-10 dB SNR, peak 0.5."""
    rng = np.random.default_rng([CLIP_SEED, seed])
    n = int(round(seconds * RATE))
    t = np.arange(n) / RATE
    f0 = rng.uniform(90.0, 260.0) * (1.0 + 0.08 * np.sin(2 * np.pi * rng.uniform(0.5, 3.0) * t))
    phase = 2 * np.pi * np.cumsum(f0) / RATE
    voice = sum(np.sin(h * phase + rng.uniform(0, 2 * np.pi)) / h for h in range(1, 11))
    clean = voice * np.sin(np.pi * rng.uniform(2.0, 5.0) * t + rng.uniform(0, np.pi)) ** 2
    noise = rng.standard_normal(n)
    noise *= np.sqrt(np.mean(clean**2) / np.mean(noise**2)) * 10 ** (-rng.uniform(0.0, 10.0) / 20)
    x = clean + noise
    return 0.5 * x / np.abs(x).max()


def rel_err(out: np.ndarray, golden: np.ndarray) -> float:
    return float(np.linalg.norm(out - golden) / np.linalg.norm(golden))


def check_forward(res, n: int) -> list[str]:
    """Checks every op makes on a `ForwardResult` for an `n`-sample input."""
    problems = []
    if len(res.wave) != n:
        problems.append(f"output has {len(res.wave)} samples, input {n}")
    if not np.all(np.isfinite(res.wave.samples)):
        problems.append("output waveform is not finite")
    m = res.mask
    if not (np.all(np.isfinite(m)) and m.min() > 0.0 and m.max() < 2.0):
        problems.append(f"mask outside (0, 2): [{m.min()}, {m.max()}]")
    return problems


@dataclass
class Audio:
    """`read_wav` -> `forward` -> `write_wav` at the reference config, with
    one `WeightStore` loaded at setup and reused by every op."""

    name: str
    audio_s: float
    pool: int

    cfg = lort.ModelConfig()

    def setup(self, workdir: Path, golden: bool = True) -> dict:
        clips = [lort.write_wav(lort.Waveform(make_clip(p, self.audio_s), RATE))
                 for p in range(self.pool)]
        path = workdir / "weights.lortw"
        lort.init_weights(self.cfg, seed=WEIGHT_SEED).save(str(path))
        ws = lort.WeightStore.load(str(path))
        missing = ws.missing(lort.build_model(self.cfg).param_names())
        if missing:
            raise RuntimeError(f"loaded weights miss {missing[:4]}")
        st = {"clips": clips, "ws": ws, "weight_bytes": path.stat().st_size}
        if golden:
            st["golden"] = np.load(GOLDEN_DIR / f"{self.name}.npy")
        return st

    def prepare(self, st: dict, p: int):
        return st["clips"][p]

    def run(self, st: dict, wav: bytes):
        res = lort.forward(lort.read_wav(wav), st["ws"], self.cfg)
        return res, lort.write_wav(res.wave)

    def golden_of(self, out) -> np.ndarray:
        return out[0].wave.samples.astype(np.float32)

    def warmup(self, st: dict) -> None:
        """One forward on a short clip, so BLAS and the allocator
        are warm before the first timed op (a full op of long_8s takes ~20 s)."""
        lort.forward(lort.Waveform(make_clip(WARMUP_SEED, WARMUP_CLIP_S), RATE), st["ws"], self.cfg)

    def check(self, st: dict, p: int, out) -> list[str]:
        res, wav = out
        n = int(round(self.audio_s * RATE))
        problems = check_forward(res, n)
        if len(wav) != 44 + 2 * n:
            problems.append(f"written WAV has {len(wav)} bytes, expected {44 + 2 * n}")
        if not problems:
            err = rel_err(res.wave.samples, st["golden"][p].astype(np.float64))
            if not err <= RTOL:
                problems.append(f"waveform differs from golden {p}: rel L2 {err:.3g} > {RTOL}")
        return problems


@dataclass
class SpsaEval:
    """One SPSA evaluation as `verify.spsa_train` makes it: a freshly
    perturbed `WeightStore`, `forward`, and `evaluate_losses` with the
    frozen discriminator, on the micro config and its 0.25 s toy task."""

    name: str
    pool: int

    task_seed = 7
    perturb = 0.02
    audio_s = 0.25

    def setup(self, workdir: Path, golden: bool = True) -> dict:
        cfg = verify.micro_config()
        noisy, clean = verify.make_toy_task(cfg, seed=self.task_seed, duration_s=self.audio_s)
        ref = lort.stft(clean, cfg.fft_len, cfg.win_len, cfg.hop)
        disc = lort.model.init_discriminator(lort.WeightStore(), seed=self.task_seed)
        path = workdir / "weights.lortw"
        lort.init_weights(cfg, seed=self.task_seed).save(str(path))
        ws = lort.WeightStore.load(str(path))
        layout = [(name, shape) for name, shape, _ in lort.build_model(cfg).manifest()]
        st = {
            "cfg": cfg, "noisy": noisy, "ref": ref, "disc": disc, "layout": layout,
            "theta": np.concatenate([ws[name].ravel() for name, _ in layout]),
            "loss_weights": lort.LossWeights(*cfg.loss_weights),
            "weight_bytes": path.stat().st_size,
        }
        if golden:
            st["golden"] = np.load(GOLDEN_DIR / f"{self.name}.npy")
        return st

    def prepare(self, st: dict, p: int) -> np.ndarray:
        rng = np.random.default_rng([PERTURB_SEED, p])
        return st["theta"] + self.perturb * rng.choice((-1.0, 1.0), size=st["theta"].size)

    def run(self, st: dict, theta: np.ndarray):
        ws = lort.WeightStore()
        pos = 0
        for name, shape in st["layout"]:
            size = int(np.prod(shape))
            ws[name] = theta[pos : pos + size].reshape(shape)
            pos += size
        res = lort.forward(st["noisy"], ws, st["cfg"])
        return res, lort.evaluate_losses(res.spec, st["ref"], st["loss_weights"], disc=st["disc"])

    def golden_of(self, out) -> float:
        return out[1].total

    def warmup(self, st: dict) -> None:
        """Untimed, unchecked ops for WARMUP_S: the first few ops after
        start-up run several times slower."""
        t0 = perf_counter()
        while perf_counter() - t0 < WARMUP_S:
            self.run(st, self.prepare(st, 0))

    def check(self, st: dict, p: int, out) -> list[str]:
        res, report = out
        problems = check_forward(res, len(st["noisy"]))
        if not problems:
            gold = float(st["golden"][p])
            err = abs(report.total - gold) / abs(gold)
            if not err <= RTOL:
                problems.append(f"loss total {report.total!r} differs from golden {p} "
                                f"{gold!r}: rel {err:.3g} > {RTOL}")
        return problems


# Why each workload exists is stated in BENCHMARK.json.
WORKLOADS = {
    wl.name: wl
    for wl in (Audio("enhance_2s", 2.0, 4), SpsaEval("train_micro", 512), Audio("long_8s", 8.0, 2))
}
