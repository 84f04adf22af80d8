"""``build_index`` finishes on a one-CPU Ray cluster.

The build runs in a subprocess that starts its own local cluster with
one CPU (the pytest session's cluster has four), under a hard timeout:
a build whose actor pool takes the only CPU away from its read tasks
hangs instead of failing, so only the timeout can catch it."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = textwrap.dedent(
    """
    import sys

    import ray

    from excelastic_ray.config import IndexConfig
    from excelastic_ray.corpus import write_transcripts
    from excelastic_ray.index.build import build_index

    corpus, index = sys.argv[1], sys.argv[2]
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False
    write_transcripts(corpus, n_files=2, n_convs=50, seed=5)
    cfg = IndexConfig(turn_bits=6, convs_per_chunk_bits=4, num_shards=2)
    result = build_index(corpus, index, cfg, clear=True)
    print("n_docs", result.n_docs)
    ray.shutdown()
    """
)


def test_build_finishes_on_one_cpu(tmp_path):
    # its own session, so a hung build's Ray processes die with it
    proc = subprocess.Popen(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "corpus"),
         str(tmp_path / "idx")],
        cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("build_index did not finish within 120 s on one CPU")
    assert proc.returncode == 0, err[-2000:]
    [line] = [x for x in out.splitlines() if x.startswith("n_docs ")]
    assert int(line.split()[1]) > 0
