#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `lort` enhancer.

    python3 perfbench/run.py --workload enhance_2s --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload + scaling

One client runs ops in a closed loop in this process until `--seconds`
have passed (workloads.py defines the ops). `--trace 0` times every op
untraced and reports the end-to-end metrics of BENCHMARK.json. `--trace 1`
alternates untraced and traced ops, reports the per-layer metrics, and
writes the spans to perfbench/out/ when the run ends. Every op's output is
checked; a failed check or an exception is a failed op and makes the exit
code nonzero. Stdout ends with one JSON line: correct, attempted, failed
and metrics. Run from any directory; the package is imported from ../src.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUPS = 11  # setup_s is the median of this many full set-ups
# One BLAS thread: the model's GEMMs are small, so a second thread gains
# under 10% per op, while on a shared host its barrier waits make op times
# swing by tens of percent from run to run.
BLAS_THREADS = 1
NPROC = len(os.sched_getaffinity(0))
# Must be set before numpy loads OpenBLAS; pinned so runs compare.
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
sys.path.insert(0, str(ROOT / "src"))


# ---------------------------------------------------------------------------
# Environment record

def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_info() -> dict:
    """BLAS vendor from numpy's build config; live thread count from the
    OpenBLAS that numpy bundles, when it can be found."""
    import ctypes
    import glob

    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        vendor = "unknown"
    threads = None
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"blas": vendor, "blas_threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]}


def environment() -> dict:
    import numpy as np

    return {"git_sha": git_sha(), "nproc": NPROC, "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine(), **blas_info()}


# ---------------------------------------------------------------------------
# One op

def run_op(wl, st: dict, i: int, p: int, rec) -> dict:
    """Prepare, time and check op `i` on pool item `p`; traced when `rec`."""
    import lort
    import tracing

    op = {"i": i, "p": p, "traced": rec is not None, "latency": None, "macs": None,
          "problems": [], "layers": None}
    try:
        x = wl.prepare(st, p)
        first = len(rec.spans) if rec else 0
        with (tracing.tracing(rec, op=i) if rec else contextlib.nullcontext()), \
                lort.FlopMeter() as meter:
            t0 = perf_counter()
            out = wl.run(st, x)
            op["latency"] = perf_counter() - t0
        op["macs"] = meter.macs
        op["problems"] += wl.check(st, p, out)
        if rec:
            op["layers"] = tracing.op_layers(rec.spans, first)
            counted = sum(row["macs"] for row in op["layers"].values())
            if counted != meter.macs:
                op["problems"].append(
                    f"per-layer MACs {counted} != FlopMeter {meter.macs}: a call bypassed the trace")
    except Exception:  # a failed op is counted, reported and the run goes on
        op["problems"].append(traceback.format_exc())
    return op


def cross_check(ops: list[dict]) -> None:
    """MAC counts and traced call counts must repeat exactly across ops."""
    done = [o for o in ops if o["macs"] is not None]
    if done:
        macs = statistics.mode(o["macs"] for o in done)
        for o in done:
            if o["macs"] != macs:
                o["problems"].append(f"MAC count {o['macs']} != {macs} of the other ops")
    traced = [o for o in ops if o["layers"] is not None]
    if traced:
        calls = {k: v["calls"] for k, v in traced[0]["layers"].items()}
        for o in traced[1:]:
            mine = {k: v["calls"] for k, v in o["layers"].items()}
            if mine != calls:
                o["problems"].append(f"per-layer call counts {mine} != first traced op {calls}")


# ---------------------------------------------------------------------------
# Metrics

def end_to_end(wl, ok: list[dict], setup_times: list[float]) -> dict:
    lat = [o["latency"] for o in ok if not o["traced"]]
    p50 = statistics.median(lat)
    return {
        "setup_s": statistics.median(setup_times),
        "latency_s.p50": p50,
        "ops_per_s": len(lat) / sum(lat),
        "rtf": p50 / wl.audio_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "gmac_per_op": ok[0]["macs"] / 1e9,
    }


def per_layer(ok: list[dict], rec, st: dict) -> dict:
    import tracing

    traced = [o for o in ok if o["traced"]]
    plain = [o["latency"] for o in ok if not o["traced"]]
    names = set(tracing.LAYER_NAMES).union(*(o["layers"] for o in traced))
    names.discard("weights.load")  # a set-up layer, reported below
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "macs": 0}
    values = {}
    for name in sorted(names):
        rows = [o["layers"].get(name, zero) for o in traced]
        self_s = statistics.median(r["self_s"] for r in rows)
        gmac = rows[0]["macs"] / 1e9
        values.update({
            f"{name}.calls": rows[0]["calls"],
            f"{name}.s": statistics.median(r["s"] for r in rows),
            f"{name}.self_s": self_s,
            f"{name}.gmac": gmac,
            f"{name}.gmac_per_s": gmac / self_s if self_s > 0 else 0.0,
        })
    loads = [s[tracing.END] - s[tracing.START] for s in rec.spans
             if s[tracing.OP] is None and s[tracing.NAME] == "weights.load"]
    values["weights.load.s"] = statistics.median(loads)
    values["weights.load.bytes"] = st["weight_bytes"]
    covered = sum(r["self_s"] for o in traced for r in o["layers"].values())
    values["trace.coverage"] = covered / sum(o["latency"] for o in traced)
    values["trace.overhead"] = (statistics.median(o["latency"] for o in traced)
                                / statistics.median(plain))
    return values


def print_table(workload: str, values: dict, spec: dict) -> None:
    """Every measured value: end-to-end and set-up metrics by name and unit,
    then one row per traced layer."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    fields = ("calls", "s", "self_s", "gmac", "gmac_per_s")
    layers = sorted({k.rsplit(".", 1)[0] for k in values if k.endswith(".self_s")})
    rows = {f"{layer}.{f}" for layer in layers for f in fields}
    for name in sorted(set(values) - rows):
        print(f"{workload:12s} {name:36s} {values[name]:<12.6g} {units.get(name, '')}")
    if layers:
        print(f"{workload:12s} {'layer (per op)':36s} {'calls':>6s} {'s':>11s} {'self_s':>11s} "
              f"{'GMAC':>11s} {'GMAC/s':>8s}")
    for layer in layers:
        v = [values[f"{layer}.{f}"] for f in fields]
        print(f"{workload:12s} {layer:36s} {v[0]:6d} {v[1]:11.4g} {v[2]:11.4g} {v[3]:11.4g} {v[4]:8.3g}")


def write_spans(rec, path: Path, meta: dict) -> None:
    """JSON: `meta` plus `spans`, each with name, start and end in seconds
    from the first span, parent (index into `spans` or null) and op id
    (null for set-up)."""
    import tracing

    t0 = rec.spans[0][tracing.START] if rec.spans else 0.0
    spans = [{"name": s[tracing.NAME], "start": s[tracing.START] - t0, "end": s[tracing.END] - t0,
              "parent": s[tracing.PARENT], "op": s[tracing.OP]} for s in rec.spans]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**meta, "spans": spans}))


def declared(spec: dict, trace: int, values: dict) -> dict:
    """The metrics BENCHMARK.json declares for this mode, with their units."""
    out = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        if m["name"] not in values:
            raise KeyError(f"declared metric {m['name']!r} was not measured")
        v = values[m["name"]]
        out[m["name"]] = {"value": v if isinstance(v, int) else float(v), "unit": m["unit"]}
    return out


# ---------------------------------------------------------------------------
# Runs

def run_one(args, spec: dict) -> int:
    import numpy as np

    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    rec = tracing.Recorder() if args.trace else None
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    setup_times = []
    try:
        for _ in range(SETUPS):
            with tracing.tracing(rec) if rec else contextlib.nullcontext():
                t0 = perf_counter()
                st = wl.setup(workdir)
                setup_times.append(perf_counter() - t0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wl.warmup(st)

    order = np.random.default_rng(args.seed).permutation(wl.pool)
    ops: list[dict] = []
    t_start = perf_counter()
    while True:
        i = len(ops)
        ops.append(run_op(wl, st, i, int(order[i % wl.pool]), rec if rec and i % 2 else None))
        if perf_counter() - t_start >= args.seconds and (len(ops) >= 2 or not rec):
            break
    cross_check(ops)

    ok = [o for o in ops if not o["problems"]]
    failed = len(ops) - len(ok)
    for o in ops:
        for problem in o["problems"]:
            print(f"op {o['i']} (pool item {o['p']}) FAILED: {problem}", file=sys.stderr)
    have_plain = any(not o["traced"] for o in ok)
    have_traced = any(o["traced"] for o in ok)
    values = {}
    if have_plain:
        values = end_to_end(wl, ok, setup_times)
    if rec and have_plain and have_traced:
        values.update(per_layer(ok, rec, st))

    lat = sorted(o["latency"] for o in ok if not o["traced"])
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": environment(), "attempted": len(ops), "failed": failed,
        "fail_ratio": failed / len(ops), "latency_samples": len(lat),
        # the highest percentile with at least ten samples beyond it
        "latency_s.p90": statistics.quantiles(lat, n=10)[-1] if len(lat) >= 100 else None,
    }
    print_table(wl.name, values, spec)
    print(f"{wl.name:12s} {'fail_ratio':36s} {record['fail_ratio']:<12.6g} ({failed}/{len(ops)} ops)")
    p90 = record["latency_s.p90"]
    print(f"{wl.name:12s} {'latency_s.p90':36s} {'n/a' if p90 is None else f'{p90:<12.6g} s'} "
          f"(n={len(lat)}; reported when n >= 100)")
    print("record: " + json.dumps(record))
    if rec:
        write_spans(rec, OUT_DIR / f"spans-{wl.name}-seed{args.seed}.json", record)

    correct = failed == 0 and have_plain and (have_traced or not rec)
    metrics = declared(spec, args.trace, values) if correct else {}
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args, spec: dict) -> int:
    """Each workload in its own process, then the linearity record."""
    results = {}
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            lines = []
            for line in proc.stdout:
                print(line, end="", flush=True)
                lines.append(line)
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            res = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        res["correct"] = res["correct"] and proc.returncode == 0
        results[w["name"]] = res

    metrics = {f"{name}.{k}": v for name, res in results.items()
               for k, v in res["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    if not args.trace and correct and {"enhance_2s", "long_8s"} <= results.keys():
        from workloads import WORKLOADS

        ratio = math.log(WORKLOADS["long_8s"].audio_s / WORKLOADS["enhance_2s"].audio_s)
        short, long_ = results["enhance_2s"]["metrics"], results["long_8s"]["metrics"]
        for key, metric in (("mac_exponent", "gmac_per_op"), ("time_exponent", "latency_s.p50")):
            exp = math.log(long_[metric]["value"] / short[metric]["value"]) / ratio
            metrics[f"scaling.{key}"] = {"value": exp, "unit": "1"}
            print(f"{'scaling':12s} {key:36s} {exp:<12.6g}")
        # the paper's claim: work grows linearly with the clip's patch count
        if abs(metrics["scaling.mac_exponent"]["value"] - 1.0) > 0.01:
            print("scaling.mac_exponent is not within 0.01 of 1", file=sys.stderr)
            correct = False
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        import lort
        # benchmark the checkout's source, never an installed copy
        if not Path(lort.__file__).resolve().is_relative_to(ROOT / "src"):
            raise ImportError(f"lort imported from {lort.__file__}, not from {ROOT / 'src'}")
    except (OSError, ValueError, ImportError) as e:
        print(f"perfbench: cannot start: {e}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run_all(args, spec) if args.workload == "all" else run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
