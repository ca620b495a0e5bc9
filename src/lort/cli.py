"""Command-line entry point: enhancement, weight and loss utilities, and
the built-in verification workflows, each as a subcommand. Numeric reports
print with 6 significant digits; tabular output is CSV on stdout.
"""
from __future__ import annotations

import argparse
import sys

from .errors import LortError
from .model import ModelConfig, forward, init_discriminator, init_weights
from .objectives import evaluate_losses
from .signal import read_wav, stft, write_wav
from .verify import (
    SpsaConfig,
    gradcheck_losses,
    spsa_train,
    table2_trend,
    taylor_error_sweep,
)
from .weights import WeightStore

__all__ = ["main", "run"]


_MODEL_FIELDS = ("n_blocks", "channels", "fft_len", "win_len", "hop")


def _add_model_args(p: argparse.ArgumentParser) -> None:
    defaults = ModelConfig()
    for name in _MODEL_FIELDS:
        p.add_argument("--" + name.replace("_", "-"), type=int, default=getattr(defaults, name))


def _cfg_from(args) -> ModelConfig:
    return ModelConfig(**{name: getattr(args, name) for name in _MODEL_FIELDS})


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lort", description="Taylor-transformer speech enhancement toolkit")
    sub = p.add_subparsers(dest="cmd", required=True)

    e = sub.add_parser("enhance", help="denoise a WAV file")
    e.add_argument("--in", dest="infile", required=True)
    e.add_argument("--weights", required=True)
    e.add_argument("--out", required=True)
    _add_model_args(e)

    g = sub.add_parser("gradcheck", help="analytic-vs-numeric gradient check")
    g.add_argument("--seed", type=int, default=0)

    s = sub.add_parser("sweep", help="Taylor-vs-softmax error sweep")
    s.add_argument("--scales", default="1e-1,1e-2,1e-3")
    s.add_argument("--trials", type=int, default=20)
    s.add_argument("--seed", type=int, default=0)

    t = sub.add_parser("train-toy", help="SPSA descent on the synthetic micro task")
    t.add_argument("--iterations", type=int, default=200)
    t.add_argument("--seed", type=int, default=7)
    t.add_argument("--step", type=float, default=SpsaConfig.a)
    t.add_argument("--perturb", type=float, default=SpsaConfig.c)

    r = sub.add_parser("trend", help="parameter/FLOP trend across depths")
    r.add_argument("--duration", type=float, default=1.0)

    lo = sub.add_parser("losses", help="loss report for a reference/estimate pair")
    lo.add_argument("--ref", required=True)
    lo.add_argument("--est", required=True)
    _add_model_args(lo)

    iw = sub.add_parser("init-weights", help="write freshly initialized weights")
    iw.add_argument("--out", required=True)
    iw.add_argument("--seed", type=int, default=0)
    _add_model_args(iw)
    return p


def _cmd_enhance(args) -> int:
    cfg = _cfg_from(args)
    with open(args.infile, "rb") as fh:
        noisy = read_wav(fh.read())
    ws = WeightStore.load(args.weights)
    res = forward(noisy, ws, cfg)
    with open(args.out, "wb") as fh:
        fh.write(write_wav(res.wave))
    print(f"wrote {args.out}: {len(res.wave)} samples at {res.wave.sample_rate} Hz")
    return 0


def _cmd_gradcheck(args) -> int:
    r = gradcheck_losses(seed=args.seed)
    print(f"max_rel_err={r.max_rel_err:.6g} at={r.argmax_location} n_checked={r.n_checked}")
    return 0


def _cmd_sweep(args) -> int:
    scales = tuple(float(s) for s in args.scales.split(","))
    r = taylor_error_sweep(scales, trials=args.trials, seed=args.seed)
    print("scale,max_err")
    for s, e in r.points:
        print(f"{s:.6g},{e:.6g}")
    print(f"slope,{r.slope:.6g}")
    return 0


def _cmd_train_toy(args) -> int:
    spsa = SpsaConfig(iterations=args.iterations, a=args.step, c=args.perturb, seed=args.seed)
    r = spsa_train(spsa=spsa)
    print("iteration,total")
    for i, v in enumerate(r.trajectory):
        print(f"{i},{v:.6g}")
    print(f"ratio,{r.ratio:.6g}")
    return 0


def _cmd_trend(args) -> int:
    print("n_blocks,channels,params,flops")
    for row in table2_trend(duration_s=args.duration):
        print(f"{row['n_blocks']},{row['channels']},{row['params']},{row['flops']}")
    return 0


def _cmd_losses(args) -> int:
    cfg = _cfg_from(args)
    specs = []
    for path in (args.est, args.ref):
        with open(path, "rb") as fh:
            wav = read_wav(fh.read())
        specs.append(stft(wav, cfg.fft_len, cfg.win_len, cfg.hop))
    disc = init_discriminator(WeightStore(), seed=0)
    report = evaluate_losses(specs[0], specs[1], disc=disc)
    print(report.to_line())
    return 0


def _cmd_init_weights(args) -> int:
    cfg = _cfg_from(args)
    ws = init_weights(cfg, seed=args.seed)
    init_discriminator(ws, seed=args.seed)
    ws.save(args.out)
    print(f"wrote {args.out}: {len(ws)} tensors, {ws.n_params} parameters")
    return 0


_COMMANDS = {
    "enhance": _cmd_enhance,
    "gradcheck": _cmd_gradcheck,
    "sweep": _cmd_sweep,
    "train-toy": _cmd_train_toy,
    "trend": _cmd_trend,
    "losses": _cmd_losses,
    "init-weights": _cmd_init_weights,
}


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.cmd](args)
    except (LortError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
