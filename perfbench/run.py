"""Benchmark entry point.

    python3 perfbench/run.py --workload {short_turns,long_turns} \
        --seed N --seconds S --trace {0,1}

Runs from the root of a checkout of the repository. One run is one fresh
process (``workloads.py``) with its own local Ray cluster, in its own
session, under a per-run directory in ``.pbtmp/`` that is removed
at exit. That process's output, Ray's logs included, goes to stderr;
stdout carries only the last line, the JSON result. A run that outlives
its wall-clock limit is killed with every process of its session, and the
operations of the round it was in count as failed. A run that cannot
start (no ``excelastic_ray`` package beside this directory, say) exits
with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from gen import SHAPES  # noqa: E402

WORKLOADS = tuple(SHAPES)
#: wall-clock limit of the workload process; cleanup fits in what is left
#: of the 180 s a run may take
LIMIT_S = 160


def session_pids(sid: int) -> list[int]:
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[3]) == sid and fields[0] != "Z":
            pids.append(int(name))
    return pids


def stop_session(proc: subprocess.Popen) -> None:
    """Kill every process left in the run's session and wait until all
    are gone (Ray's raylet, GCS and workers live there too)."""
    end = time.monotonic() + 10
    while time.monotonic() < end:
        pids = session_pids(proc.pid)
        if not pids:
            break
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.poll() is None:
            try:
                proc.wait(timeout=0.2)
            except subprocess.TimeoutExpired:
                pass
        time.sleep(0.05)
    proc.wait()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "excelastic_ray")):
        print("perfbench: no excelastic_ray package in this checkout", file=sys.stderr)
        return 1

    base = os.path.join(ROOT, ".pbtmp")
    os.makedirs(base, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="r", dir=base)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [ROOT, HERE] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", tmp]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    hung = False
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr.fileno(),
                            start_new_session=True)
    try:
        proc.wait(timeout=LIMIT_S)
    except subprocess.TimeoutExpired:
        hung = True
        print(f"perfbench: run exceeded {LIMIT_S} s; killing it", file=sys.stderr)
    finally:
        stop_session(proc)
        result = read_result(tmp, hung, proc.returncode)
        ray_dir = os.path.join(tmp, "ray_dir")
        if os.path.exists(ray_dir):
            with open(ray_dir) as f:
                shutil.rmtree(f.read(), ignore_errors=True)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass  # another run's directory is still there
    if result is None:
        print(f"perfbench: workload process failed (exit {proc.returncode})", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


def read_result(tmp: str, hung: bool, returncode: int | None) -> dict | None:
    if hung:
        # the round in progress never ended: its operations count as failed
        try:
            with open(os.path.join(tmp, "progress.json")) as f:
                p = json.load(f)
        except (OSError, ValueError):
            return None
        pending = max(1, p["pending"])
        return {"correct": p["correct"], "attempted": p["attempted"] + pending,
                "failed": p["failed"] + pending, "metrics": {}}
    if returncode != 0:
        return None
    try:
        with open(os.path.join(tmp, "result.json")) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


if __name__ == "__main__":
    sys.exit(main())
