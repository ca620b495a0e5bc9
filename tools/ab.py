#!/usr/bin/env python3
"""Interleaved A/B of the benchmark: a parent revision against this tree.

    python3 tools/ab.py --parent REV [--workload W ...] [--dry-run]
                        --out BENCH_<n>.json

The parent side is REV, unpacked with `git archive` into a temporary
directory that is removed afterwards; the change side is this working tree.
Pair i (1..10) runs BENCHMARK.json's `command` (`python3 perfbench/run.py`,
a path relative to the tree, as the benchmark runs it) with `--workload W
--seed i --trace 0` for its `run_seconds` once in each tree, each in a
fresh process, one process at a time: the change first in odd pairs, the parent
first in even ones, and every workload's pair i before any pair i + 1. The
output holds, per workload, side and end-to-end metric of BENCHMARK.json,
the runs, median and quartiles, the pairs the change won (ties count for
neither), the parent's quartile spread and the metric's verdict against
its bound (`within_bound`), over the seeds at which both sides measured
the metric, and whether a claimed gain on it would hold (`claim_met`).
`--dry-run` prints the schedule and runs nothing.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("change", "parent")
PAIRS = 10
# Metrics whose sides stand apart in 10 of 10 pairs for code that does the
# same work (peak RSS: 1.1-3.6 MB on long_8s, lower or higher on the change
# side from one A/B to the next), so no claim on them is met until the
# cause is found.
BIASED = frozenset({"peak_rss_mb"})


# ---------------------------------------------------------------------------
# Statistics (pure)

def quartiles(runs: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of the runs, linearly interpolated between order
    statistics (numpy's default, statistics' "inclusive" method)."""
    if len(runs) == 1:
        return runs[0], runs[0], runs[0]
    q1, med, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return q1, med, q3


def pairs_won(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change reads strictly better than the parent."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (p - c) > 0 for p, c in zip(parent, change, strict=True))


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Per side the runs, median and quartiles; the pairs the change won
    and the parent's quartile spread."""
    out = {}
    for side, runs in (("parent", parent), ("change", change)):
        q1, med, q3 = quartiles(runs)
        out[side] = {"q1": q1, "median": med, "q3": q3, "runs": runs}
    out["change_better_in_pairs"] = f"{pairs_won(parent, change, better)}/{len(parent)}"
    out["parent_iqr"] = out["parent"]["q3"] - out["parent"]["q1"]
    return out


def within_bound(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The verdict on a metric the change makes no claim on, against its
    relative `bound`: "unresolved" when the parent's quartile spread
    exceeds `bound` of its median, unless every change run beats every
    parent run ("ok"); else "ok" when the change's median is worse than
    the parent's by at most `bound` of the parent's median, and "worse"
    otherwise."""
    sign = 1 if better == "lower" else -1
    q1, med, q3 = quartiles(parent)
    if q3 - q1 > bound * abs(med):
        beats = all(sign * (p - c) > 0 for p in parent for c in change)
        return "ok" if beats else "unresolved"
    return "worse" if sign * (quartiles(change)[1] - med) > bound * abs(med) else "ok"


def claim_met(parent: list[float], change: list[float], better: str) -> bool:
    """Whether a claimed gain holds on the pairs both sides measured:
    the change wins at least 9 in 10 of the PAIRS scheduled (a pair not
    measured, like a tie, counts for neither), and its median beats the
    parent's by more than the parent's quartile spread."""
    sign = 1 if better == "lower" else -1
    q1, med, q3 = quartiles(parent)
    return (10 * pairs_won(parent, change, better) >= 9 * PAIRS
            and sign * (med - quartiles(change)[1]) > q3 - q1)


def schedule(workloads: list[str]) -> list[tuple[int, str, str]]:
    """(seed, workload, side) of every run in order: pair by pair, each
    workload in turn, the change first in odd pairs."""
    return [(i, w, side) for i in range(1, PAIRS + 1) for w in workloads
            for side in (SIDES if i % 2 else SIDES[::-1])]


def summarize(results: dict, metrics: list[dict]) -> dict:
    """The per-workload record from `results[workload][side]`, a list of
    perfbench result lines in seed order, for the declared `metrics`. A
    metric's pairs are the seeds at which both sides measured it. No
    claim is met where the change fails more ops than the parent, a run
    on either side is not correct, or the metric is BIASED."""
    out = {}
    for wl, sides in results.items():
        rec = {
            "pairs": len(sides["parent"]),
            "failed_ops": {s: sum(r["failed"] for r in sides[s]) for s in SIDES},
            "attempted_ops": {s: sum(r["attempted"] for r in sides[s]) for s in SIDES},
            "correct": {s: all(r["correct"] for r in sides[s]) for s in SIDES},
            "metrics": {},
        }
        clean = (rec["failed_ops"]["change"] <= rec["failed_ops"]["parent"]
                 and all(rec["correct"].values()))
        for m in metrics:
            pairs = [(p["metrics"][m["name"]]["value"], c["metrics"][m["name"]]["value"])
                     for p, c in zip(sides["parent"], sides["change"], strict=True)
                     if m["name"] in p["metrics"] and m["name"] in c["metrics"]]
            if pairs:
                parent, change = map(list, zip(*pairs))
                rec["metrics"][m["name"]] = {
                    "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                    **compare(parent, change, m["better"]),
                    "within_bound": within_bound(parent, change, m["better"], m["bound"]),
                    "claim_met": (clean and m["name"] not in BIASED
                                  and claim_met(parent, change, m["better"]))}
        out[wl] = rec
    return out


# ---------------------------------------------------------------------------
# Runs

def run_side(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One run of the benchmark's `command` in `tree`: its final JSON line
    (correct, attempted, failed, metrics), correct only if the process
    exited 0."""
    cmd = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=tree, check=False)
    try:
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        res = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    res["correct"] = res["correct"] and proc.returncode == 0
    return res


def unpack(rev: str, dest: Path) -> str:
    """Extract the tree of `rev` into dest; return its full commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    archive = dest / "parent.tar"
    with archive.open("wb") as f:
        subprocess.run(["git", "archive", sha], cwd=ROOT, stdout=f, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree", filter="data")
    archive.unlink()
    return sha


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--workload", action="append", choices=names,
                    help="workload to run (repeatable; default: every workload)")
    ap.add_argument("--dry-run", action="store_true", help="print the schedule, run nothing")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]
    workloads = args.workload or names
    plan = schedule(workloads)
    if args.dry_run:
        for seed, wl, side in plan:
            print(f"{side:6s} {wl:12s} --seed {seed} --seconds {seconds:g}")
        return 0

    results = {wl: {s: [] for s in SIDES} for wl in workloads}
    with tempfile.TemporaryDirectory(prefix="ab-parent-") as tmp:
        sha = unpack(args.parent, Path(tmp))
        trees = {"change": ROOT, "parent": Path(tmp) / "tree"}
        for n, (seed, wl, side) in enumerate(plan, 1):
            res = run_side(trees[side], spec["command"], wl, seed, seconds)
            results[wl][side].append(res)
            p50 = res["metrics"].get("latency_s.p50", {}).get("value")
            print(f"[{n}/{len(plan)}] {side:6s} {wl:12s} seed {seed}: p50 {p50} "
                  f"failed {res['failed']}/{res['attempted']}", flush=True)
    first = {i: SIDES[0] if i % 2 else SIDES[1] for i in range(1, PAIRS + 1)}
    record = {
        "parent": sha,
        "change": "the working tree of " + subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=False).stdout.strip(),
        "method": f"tools/ab.py: {' '.join(spec['command'])} --trace 0 --seconds {seconds:g}, seeds "
                  f"1..{PAIRS}, one fresh process per run, one at a time, the change "
                  f"first in odd pairs, workloads interleaved pair by pair",
        "env": {"python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
                "machine": platform.machine(), "nproc": len(os.sched_getaffinity(0))},
        "workloads": {wl: {"seeds": list(first), "first_in_pair": list(first.values()), **rec}
                      for wl, rec in summarize(results, spec["end_to_end"]).items()},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(all(rec["correct"].values()) for rec in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
