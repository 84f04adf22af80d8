"""Paired benchmark comparison of two commits.

    python tools/bench_diff.py run --parent REF --change REF \
        --seeds 401-410 --log runs.jsonl
    python tools/bench_diff.py report runs.jsonl

``run`` exports each commit with ``git archive`` into a fresh directory
of its own (nothing is registered in the repository, unlike a worktree),
then for every seed and every workload ``BENCHMARK.json`` lists runs
``perfbench/run.py`` once on each side, one run at a time, for the
benchmark's ``run_seconds``. The side that goes first alternates from seed to
seed, so drift in the host's load falls on both sides alike. Every run is
appended to the log as one JSON line as soon as it ends, and the report
is printed at the end; ``report`` prints it again from a log.

The report has one row per workload and metric: each side's median and
quartiles, how many pairs (same seed, same workload) the change won out
of all pairs run, and the median of the paired ratios change / parent. A
tie, or a pair where either side has no result, is no win. Directions
and bounds come from ``BENCHMARK.json``. The verdict follows the
repository's rules for a gain or a regression:

- ``gain``: over at least 10 pairs, the change won at least 9 in 10 of
  them, the medians differ by more than the distance between the
  parent's quartiles, and no larger share of the change's operations
  failed than of the parent's;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's bound;
- ``unresolved``: no bound is crossed, but a side's spread (quartile
  distance over median) is wider than the bound, and not every run of the
  change reads better than every run of the parent;
- ``same`` otherwise. Per-layer metrics have no bound: gain or ``-``.

Next to the verdict, not in place of it, each row gives a 95% bootstrap
interval on the median paired ratio: the pairs' ratios are resampled
with replacement 2000 times, with a fixed seed so a log always reports
the same interval, and the 2.5th and 97.5th percentiles of the
resampled medians are printed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def seed_range(text: str) -> list[int]:
    """``401-410``, or one seed ``401``."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def export(ref: str, dest: str) -> str:
    """The committed files of ``ref`` in the new directory ``dest``."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", ref],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return dest


def benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run → its result (None when it printed none), the
    host's CPU steal over the run, and the tail of stderr on failure."""
    t0 = time.monotonic()
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    steal = 0
    for line in p.stderr.splitlines():
        if line.startswith("perfbench-cycle: "):
            steal += json.loads(line[len("perfbench-cycle: "):])["steal"]
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if p.returncode == 0 and lines else None
    rec = {"result": result, "steal": steal,
           "wall_s": round(time.monotonic() - t0, 1)}
    if result is None:
        rec["stderr_tail"] = p.stderr.splitlines()[-20:]
    return rec


def cmd_run(args) -> int:
    seeds = seed_range(args.seeds)
    bench = benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    work = tempfile.mkdtemp(prefix="bd")
    try:
        dirs = {side: export(ref, os.path.join(work, side))
                for side, ref in zip(SIDES, (args.parent, args.change))}
        with open(args.log, "a") as log:
            for i, seed in enumerate(seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for workload in workloads:
                    for side in order:
                        rec = run_once(dirs[side], workload, seed,
                                       bench["run_seconds"])
                        rec.update(side=side, workload=workload, seed=seed,
                                   first=order[0])
                        log.write(json.dumps(rec) + "\n")
                        log.flush()
                        ok = "ok" if rec["result"] else "NO RESULT"
                        print(f"seed {seed} {workload} {side}: {ok} "
                              f"({rec['wall_s']} s, steal {rec['steal']})",
                              file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(report(load(args.log)))
    return 0


def load(path: str) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(v: list[float]) -> tuple[float, float, float]:
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4, method="inclusive")
    return q1, q2, q3


def ratio_interval(ratios: list[float], n: int = 2000,
                   seed: int = 0) -> tuple[float, float] | None:
    """95% percentile-bootstrap interval on the median of ``ratios``
    (None for fewer than two)."""
    if len(ratios) < 2:
        return None
    rng = random.Random(seed)
    meds = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                  for _ in range(n))
    return meds[int(0.025 * n)], meds[int(0.975 * n) - 1]


def verdict(spec: dict, par: list[float], chg: list[float], wins: int,
            pairs: int, more_failures: bool = False) -> str:
    """``par`` and ``chg`` are each side's values; ``pairs`` counts every
    pair run, with or without results; ``more_failures`` is whether a
    larger share of the change's operations failed."""
    sign = 1 if spec["better"] == "higher" else -1
    pq1, pmed, pq3 = quartiles(par)
    cq1, cmed, cq3 = quartiles(chg)
    if (pairs >= 10 and wins >= 0.9 * pairs and not more_failures
            and sign * (cmed - pmed) > pq3 - pq1):
        return "gain"
    bound = spec.get("bound")
    if bound is None:
        return "-"
    if sign * (pmed - cmed) > bound * abs(pmed):
        return "worse"
    spread = max((pq3 - pq1) / abs(pmed) if pmed else 0.0,
                 (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    all_better = min(chg) > max(par) if sign > 0 else max(chg) < min(par)
    if spread > bound and not all_better:
        return "unresolved"
    return "same"


def report(runs: list[dict]) -> str:
    bench = benchmark()
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    by = {}  # (workload, seed, side) → result of the last such run
    for r in runs:
        by[(r["workload"], r["seed"], r["side"])] = r["result"]
    out = []
    for workload in sorted({r["workload"] for r in runs}):
        seeds = sorted({r["seed"] for r in runs if r["workload"] == workload})
        res = {side: [by.get((workload, s, side)) for s in seeds]
               for side in SIDES}
        fails, share = {}, {}
        for side in SIDES:
            done = [x for x in res[side] if x]
            failed = sum(x["failed"] for x in done)
            attempted = sum(x["attempted"] for x in done)
            share[side] = failed / attempted if attempted else 0.0
            fails[side] = (f"{failed}/{attempted} ops failed, "
                           f"{len(seeds) - len(done)} runs without result")
        more_failures = share["change"] > share["parent"]
        out.append(f"== {workload}: seeds {seeds[0]}-{seeds[-1]} "
                   f"({len(seeds)}); parent {fails['parent']}; "
                   f"change {fails['change']}"
                   + ("; the change fails more" if more_failures else ""))
        out.append(f"{'metric':34} {'parent med [q1, q3]':>30} "
                   f"{'change med [q1, q3]':>30} {'wins':>7} "
                   f"{'ratio':>7} {'95% interval':>16}  verdict")
        names = [n for n in specs
                 if any(x and n in x["metrics"]
                        for side in SIDES for x in res[side])]
        for name in names:
            spec = specs[name]

            # every pair run; a side without a value is None, and no win
            pairs = [tuple(x["metrics"][name]["value"]
                           if x and name in x["metrics"] else None
                           for x in pc)
                     for pc in zip(res["parent"], res["change"])]
            par = [p for p, _ in pairs if p is not None]
            chg = [c for _, c in pairs if c is not None]
            if not par or not chg:
                continue
            both = [(p, c) for p, c in pairs if p is not None and c is not None]
            sign = 1 if spec["better"] == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in both)
            ratios = [c / p for p, c in both if p]
            ratio = f"{statistics.median(ratios):.3f}" if ratios else "-"
            ci = ratio_interval(ratios)
            ci = f"[{ci[0]:.3f}, {ci[1]:.3f}]" if ci else "-"

            def cell(v):
                q1, med, q3 = quartiles(v)
                return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"

            v = verdict(spec, par, chg, wins, len(pairs), more_failures)
            out.append(f"{name:34} {cell(par):>30} {cell(chg):>30} "
                       f"{wins:>3}/{len(pairs):<3} {ratio:>7} {ci:>16}  {v}")
    return "\n".join(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run both commits, then report")
    r.add_argument("--parent", required=True, help="git ref of the parent")
    r.add_argument("--change", required=True, help="git ref of the change")
    r.add_argument("--seeds", required=True, help="e.g. 401-410")
    r.add_argument("--log", required=True, help="JSON lines, appended")
    p = sub.add_parser("report", help="report from a log")
    p.add_argument("log")
    args = ap.parse_args(argv)
    if args.cmd == "run":
        return cmd_run(args)
    print(report(load(args.log)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
