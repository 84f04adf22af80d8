"""Two ``build_index`` calls at once on the session's four-CPU cluster.

Both run the shuffle chunk phase (the corpus rows are shuffled), so both
stamp, exchange and merge at the same time. Neither may wait on the
other for ever, and each must write the shards a build alone writes."""

from __future__ import annotations

import os
import threading

import pyarrow.parquet as pq

from excelastic_ray.config import IndexConfig
from excelastic_ray.corpus import generate_transcripts
from excelastic_ray.index.build import build_index

CFG = IndexConfig(turn_bits=6, convs_per_chunk_bits=3, num_shards=3)
TIMEOUT_S = 300


def _shard_postings(index_dir: str) -> dict:
    root = os.path.join(index_dir, "shards")
    return {s: pq.read_table(os.path.join(root, s, "postings.parquet"))
            for s in sorted(os.listdir(root))}


def test_two_concurrent_builds_finish_and_match(ray_session, tmp_path):
    corpus = str(tmp_path / "corpus")
    os.makedirs(corpus)
    table = generate_transcripts(n_convs=60, seed=11)
    half = table.num_rows // 2
    for i, part in enumerate((table.slice(0, half), table.slice(half))):
        pq.write_table(part, os.path.join(corpus, f"part-{i}.parquet"))

    alone = str(tmp_path / "alone")
    build_index(corpus, alone, CFG, clear=True)
    want = _shard_postings(alone)

    dirs = [str(tmp_path / f"together{i}") for i in range(2)]
    errors: list[BaseException] = []

    def build(d: str) -> None:
        try:
            build_index(corpus, d, CFG, clear=True)
        except BaseException as e:  # noqa: BLE001 — reported below
            errors.append(e)

    threads = [threading.Thread(target=build, args=(d,), daemon=True)
               for d in dirs]
    for t in threads:
        t.start()
    for t in threads:
        t.join(TIMEOUT_S)
    assert not any(t.is_alive() for t in threads), (
        f"concurrent builds did not finish within {TIMEOUT_S} s"
    )
    assert not errors, errors
    for d in dirs:
        got = _shard_postings(d)
        assert got.keys() == want.keys()
        for s, t in want.items():
            assert got[s].equals(t), (d, s)
