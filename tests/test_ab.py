"""The A/B command's statistics and schedule (`tools/ab.py`), run nothing."""
import json
import subprocess

import pytest

from tools import ab


def test_quartiles_interpolate_between_order_statistics():
    assert ab.quartiles([3.0, 1.0, 2.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_pairs_won_counts_strict_wins_in_the_metric_direction():
    parent, change = [1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 3.5, 3.0]
    assert ab.pairs_won(parent, change, "lower") == 2  # the tie counts for neither
    assert ab.pairs_won(parent, change, "higher") == 1
    with pytest.raises(ValueError):
        ab.pairs_won(parent, change[:3], "lower")


def test_compare_reports_each_side_and_the_parent_spread():
    got = ab.compare([1.0, 2.0, 3.0, 4.0, 5.0], [0.9, 1.9, 2.9, 3.9, 5.1], "lower")
    assert got["parent"] == {"q1": 2.0, "median": 3.0, "q3": 4.0,
                             "runs": [1.0, 2.0, 3.0, 4.0, 5.0]}
    assert got["change"]["median"] == 2.9
    assert got["change_better_in_pairs"] == "4/5"
    assert got["parent_iqr"] == 2.0


def test_within_bound_reads_the_median_against_the_bound():
    parent = [1.0, 1.0, 1.0, 1.0, 1.0]
    assert ab.within_bound(parent, [1.05, 1.05, 1.05, 1.05, 1.05], "lower", 0.1) == "ok"
    assert ab.within_bound(parent, [1.2, 1.2, 1.2, 1.2, 1.2], "lower", 0.1) == "worse"
    assert ab.within_bound(parent, [0.5, 0.5, 0.5, 0.5, 0.5], "lower", 0.1) == "ok"
    assert ab.within_bound(parent, [1.2, 1.2, 1.2, 1.2, 1.2], "higher", 0.1) == "ok"
    assert ab.within_bound(parent, [0.85, 0.85, 0.85, 0.85, 0.85], "higher", 0.1) == "worse"


def test_within_bound_is_unresolved_on_a_wide_parent_unless_every_run_beats_it():
    parent = [1.0, 1.5, 2.0, 2.5, 3.0]  # quartile spread 1.0 against median 2.0
    assert ab.within_bound(parent, parent, "lower", 0.25) == "unresolved"
    assert ab.within_bound(parent, [0.9, 0.8, 0.7, 0.6, 0.5], "lower", 0.25) == "ok"
    assert ab.within_bound(parent, [3.1, 3.2, 3.3, 3.4, 3.5], "higher", 0.25) == "ok"
    assert ab.within_bound(parent, [0.9, 0.8, 0.7, 0.6, 1.0], "lower", 0.25) == "unresolved"
    assert ab.within_bound(parent, parent, "lower", 0.5) == "ok"  # spread 0.5 of the median


def test_claim_met_needs_9_of_10_wins_beyond_the_parent_spread():
    parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]  # spread 0.045
    clear = [p - 0.2 for p in parent]
    assert ab.claim_met(parent, clear, "lower")
    eight = clear[:8] + [1.5, 1.5]  # 8 of 10 wins, the median still far ahead
    assert not ab.claim_met(parent, eight, "lower")
    inside = [p - 0.02 for p in parent]  # 10 of 10 wins by less than the spread
    assert not ab.claim_met(parent, inside, "lower")
    tied = clear[:9] + parent[9:]  # a tie counts for neither side
    assert ab.claim_met(parent, tied, "lower")
    assert not ab.claim_met(parent, clear[:8] + parent[8:], "lower")
    assert not ab.claim_met(parent, clear, "higher")
    assert ab.claim_met(parent, [p + 0.2 for p in parent], "higher")
    assert ab.claim_met(parent[:9], clear[:9], "lower")  # 9 of the 10 pairs measured
    assert not ab.claim_met(parent[:8], clear[:8], "lower")  # 8 of 8 measured, of 10 run


def test_summarize_meets_no_claim_on_failed_ops_an_incorrect_run_or_a_biased_metric():
    def line(value, failed=0, correct=True):
        return {"correct": correct, "attempted": 10, "failed": failed,
                "metrics": {"latency_s.p50": {"value": value}, "peak_rss_mb": {"value": value}}}
    metrics = [{"name": n, "unit": "", "better": "lower", "bound": 0.1}
               for n in ("latency_s.p50", "peak_rss_mb")]
    parent = [line(1.0 + 0.01 * i) for i in range(10)]
    change = [line(0.8 + 0.01 * i) for i in range(10)]  # a clear win on both metrics

    def met(change):
        got = ab.summarize({"w": {"parent": parent, "change": change}}, metrics)["w"]["metrics"]
        return got["latency_s.p50"]["claim_met"], got["peak_rss_mb"]["claim_met"]

    assert met(change) == (True, False)
    assert met(change[:9] + [line(0.89, failed=1)]) == (False, False)
    assert met(change[:9] + [line(0.89, correct=False)]) == (False, False)


def test_schedule_alternates_the_first_side_and_interleaves_workloads():
    plan = ab.schedule(["a", "b"])
    assert len(plan) == 4 * ab.PAIRS == 40
    assert plan[:8] == [(1, "a", "change"), (1, "a", "parent"), (1, "b", "change"),
                        (1, "b", "parent"), (2, "a", "parent"), (2, "a", "change"),
                        (2, "b", "parent"), (2, "b", "change")]
    assert [seed for seed, _, _ in plan[::4]] == list(range(1, 11))


def test_summarize_keeps_declared_metrics_and_counts_ops():
    def line(p50, failed=0):
        return {"correct": not failed, "attempted": 10, "failed": failed,
                "metrics": {"latency_s.p50": {"value": p50}}}
    results = {"w": {"parent": [line(2.0), line(3.0)], "change": [line(1.0), line(4.0, 1)]}}
    metrics = [{"name": "latency_s.p50", "unit": "s", "better": "lower", "bound": 0.1},
               {"name": "rtf", "unit": "s/s", "better": "lower", "bound": 0.1}]
    got = ab.summarize(results, metrics)["w"]
    assert got["pairs"] == 2
    assert got["failed_ops"] == {"change": 1, "parent": 0}
    assert got["attempted_ops"] == {"change": 20, "parent": 20}
    assert got["correct"] == {"change": False, "parent": True}
    assert list(got["metrics"]) == ["latency_s.p50"]  # rtf was not measured
    assert got["metrics"]["latency_s.p50"]["change_better_in_pairs"] == "1/2"
    assert got["metrics"]["latency_s.p50"]["bound"] == 0.1
    assert got["metrics"]["latency_s.p50"]["within_bound"] == "unresolved"  # spread 0.5, median 2.5


def test_summarize_pairs_runs_by_seed_when_each_side_loses_one():
    def line(p50):
        return {"correct": p50 is not None, "attempted": 10, "failed": 0,
                "metrics": {} if p50 is None else {"latency_s.p50": {"value": p50}}}
    # seed 2 failed on the parent side, seed 3 on the change side
    results = {"w": {"parent": [line(1.0), line(None), line(5.0), line(2.0)],
                     "change": [line(0.5), line(9.0), line(None), line(3.0)]}}
    got = ab.summarize(results, [{"name": "latency_s.p50", "unit": "s", "better": "lower",
                                  "bound": 0.25}])
    rec = got["w"]["metrics"]["latency_s.p50"]
    assert rec["parent"]["runs"] == [1.0, 2.0]  # seeds 1 and 4 only
    assert rec["change"]["runs"] == [0.5, 3.0]
    assert rec["change_better_in_pairs"] == "1/2"


def test_dry_run_prints_the_schedule_and_runs_nothing(monkeypatch, capsys, tmp_path):
    def no_process(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(subprocess, "run", no_process)
    out = tmp_path / "bench.json"
    assert ab.main(["--parent", "HEAD", "--workload", "train_micro", "--dry-run",
                    "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["change", "parent", "parent", "change"] * 5
    seconds = json.loads((ab.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert all("train_micro" in line and f"--seconds {seconds:g}" in line for line in lines)
    assert not out.exists()
