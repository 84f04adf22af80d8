"""tools/bench_diff.py: the paired report and its verdicts, on
hand-made run logs (no benchmark is run)."""

from __future__ import annotations

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_diff", os.path.join(ROOT, "tools", "bench_diff.py"))
bench_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_diff)

QPS = {"name": "search_qps", "better": "higher", "bound": 0.25}
P50 = {"name": "search_p50_ms", "better": "lower", "bound": 0.25}


def test_seed_range():
    assert bench_diff.seed_range("401-404") == [401, 402, 403, 404]
    assert bench_diff.seed_range("7") == [7]


def test_verdicts():
    v = bench_diff.verdict
    par = [100.0, 102, 98, 101, 99, 100, 103, 97, 100, 101]
    # 10 of 10 wins and a median gap far past the parent's quartiles
    assert v(QPS, par, [x * 1.5 for x in par], 10, 10) == "gain"
    # the same gap over fewer than 10 pairs is not a claim
    assert v(QPS, par[:5], [x * 1.5 for x in par[:5]], 5, 5) == "same"
    # 8 of 10 wins is short of 9 in 10
    assert v(QPS, par, [x * 1.5 for x in par], 8, 10) == "same"
    # lower-is-better: 40% slower is past the 0.25 bound
    assert v(P50, par, [x * 1.4 for x in par], 0, 10) == "worse"
    # within the bound, but the change's spread is wider than the bound
    wide = [60.0, 140, 70, 130, 100, 100, 65, 135, 100, 100]
    assert v(P50, par, wide, 4, 10) == "unresolved"
    # a larger share of the change's operations failed: no gain
    assert v(QPS, par, [x * 1.5 for x in par], 10, 10,
             more_failures=True) == "same"
    # per-layer metrics have no bound
    assert v({"name": "shard.topk_us", "better": "lower"},
             par, par, 0, 10) == "-"


def rec(side, seed, qps, failed=0):
    return {"side": side, "workload": "short_turns", "seed": seed,
            "result": {"failed": failed, "attempted": 100,
                       "metrics": {"search_qps": {"value": qps}}}}


def qps_row(out):
    return next(line for line in out.splitlines()
                if line.startswith("search_qps"))


def test_report_pairs_by_seed_and_counts_failures():
    runs = []
    for seed in range(10):
        runs += [rec("parent", seed, 100.0 + seed),
                 rec("change", seed, 150.0 + seed, failed=seed == 3)]
    runs.append({"side": "change", "workload": "short_turns", "seed": 10,
                 "result": None})
    out = bench_diff.report(runs)
    assert "parent 0/1000 ops failed, 1 runs without result" in out
    assert "change 1/1000 ops failed, 1 runs without result" in out
    # the change fails 1 in 1000 operations, the parent none: no gain
    assert "the change fails more" in out
    row = qps_row(out)
    assert " 10/11 " in row and row.endswith("same")
    # without the failure and the crashed run, the same values are a gain
    runs = [r for r in runs if r["seed"] != 10]
    runs[7]["result"]["failed"] = 0
    row = qps_row(bench_diff.report(runs))
    assert " 10/10 " in row and row.endswith("gain")


def test_report_counts_a_missing_change_result_as_a_loss():
    runs = []
    for seed in range(10):
        runs += [rec("parent", seed, 100.0 + seed),
                 rec("change", seed, 150.0 + seed)]
    for r in runs[3:6:2]:  # the change's runs for seeds 1 and 2 crashed
        assert r["side"] == "change"
        r["result"] = None
    row = qps_row(bench_diff.report(runs))
    assert " 8/10 " in row and row.endswith("same")


def test_report_gives_a_fixed_seed_bootstrap_interval_beside_the_verdict():
    par = [100, 104, 97, 110, 101, 99, 103, 95, 108, 100]
    chg = [60, 58, 66, 61, 52, 63, 57, 70, 59, 62]
    runs = []
    for seed, (p, c) in enumerate(zip(par, chg)):
        for side, v in (("parent", p), ("change", c)):
            runs.append({"side": side, "workload": "short_turns",
                         "seed": seed,
                         "result": {"failed": 0, "attempted": 10,
                                    "metrics": {"aggregate_s":
                                                {"value": float(v)}}}})
    out = bench_diff.report(runs)
    row = next(line for line in out.splitlines()
               if line.startswith("aggregate_s"))
    # the interval sits between the median ratio and the verdict, which
    # it does not change
    assert row.split()[-5:] == ["10/10", "0.579", "[0.552,", "0.640]",
                                "gain"]
    lo, hi = bench_diff.ratio_interval([c / p for p, c in zip(par, chg)])
    assert (round(lo, 6), round(hi, 6)) == (0.551994, 0.640206)
    assert bench_diff.report(runs) == out  # same log, same interval
    assert bench_diff.ratio_interval([0.5]) is None
