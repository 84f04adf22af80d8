"""Many threads over one in-process engine: every answer equals the
sequential one, and at most one shard call is ever in flight (the
engine admits one query at a time per process)."""

from __future__ import annotations

import random
import sys
import threading
import time

import pyarrow as pa
import pytest

from excelastic_ray.config import IndexConfig
from excelastic_ray.corpus import generate_transcripts
from excelastic_ray.index.build import build_index
from excelastic_ray.query.engine import QueryEngine, ShardSearcher
from excelastic_ray.query.multi import MultiIndexEngine

CFG = IndexConfig(turn_bits=8, convs_per_chunk_bits=3, num_shards=4)
THREADS = 8
ROUNDS = 2


def _shrink_caches(eng: QueryEngine) -> None:
    """Budgets of a few hundred entries, so the decode and positions
    LRUs evict on almost every query instead of only filling once."""
    r = eng.reader
    for s in range(r.num_shards):
        sr = r.searcher(s)
        sr._cache_budget = 300
        sr._pos_budget = 600


@pytest.fixture(scope="module")
def engines(tmp_path_factory, ray_session):
    import ray.data as rd

    root = tmp_path_factory.mktemp("conc")
    main, other = str(root / "main"), str(root / "other")
    build_index(rd.from_arrow(generate_transcripts(n_convs=40, seed=5)),
                main, CFG, clear=True)
    build_index(rd.from_arrow(generate_transcripts(n_convs=20, seed=6)),
                other, CFG, clear=True)
    eng = QueryEngine(main)
    pit = eng.open_pit()
    # after this delete the PIT is served by a pinned view of its own
    eng.delete_by_query(filters={"role": "tool"})
    assert eng.pit(pit) is not eng
    multi = MultiIndexEngine([main, other])
    for e in (eng, eng.pit(pit), *multi.engines):
        _shrink_caches(e)
    return eng, pit, multi


def _jobs(eng: QueryEngine, pit: str, multi: MultiIndexEngine):
    dsl = {"bool": {"must": [{"match": "run"}],
                    "should": [{"phrase": "call run"}, {"term": "ok"}],
                    "must_not": [{"match": "w00002"}]}}
    return [
        lambda: eng.search("the call run w00001", k=20),
        lambda: eng.search("call run", k=15, mode="and"),
        lambda: eng.search("ok w00003 of", k=10,
                           filters={"role": ["user", "assistant"]}),
        lambda: eng.search("w00004 and to", k=10, mode="and",
                           filters={"role": "user"}),
        lambda: eng.search_phrase("call run", k=20),
        lambda: eng.search_phrase("w00001 w00001", k=10),
        lambda: eng.search_bool(must="run", should="ok the",
                                must_not="w00002", k=20),
        lambda: eng.search_dsl(dsl, k=20),
        lambda: eng.count("the ok"),
        lambda: eng.count("call run", mode="and"),
        lambda: eng.facets("the run", "role"),
        lambda: eng.pit(pit).search("the call run w00001", k=20),
        lambda: eng.pit(pit).search_phrase("call run", k=20),
        lambda: multi.search("the call run w00001", k=20),
        lambda: multi.count("ok w00003"),
    ]


def _value(out):
    return out.to_pylist() if isinstance(out, pa.Table) else out


def test_threads_match_sequential_one_shard_call_in_flight(
        engines, monkeypatch):
    eng, pit, multi = engines
    jobs = _jobs(eng, pit, multi)
    want = [_value(job()) for job in jobs]

    lock = threading.Lock()
    flight = {"now": 0, "max": 0}
    topk = ShardSearcher.topk

    def probed_topk(self, *a, **kw):
        with lock:
            flight["now"] += 1
            flight["max"] = max(flight["max"], flight["now"])
        try:
            time.sleep(0.0005)  # yields the interpreter to other threads
            return topk(self, *a, **kw)
        finally:
            with lock:
                flight["now"] -= 1

    monkeypatch.setattr(ShardSearcher, "topk", probed_topk)
    wrong: list[str] = []

    def client(seed: int) -> None:
        order = list(range(len(jobs))) * ROUNDS
        random.Random(seed).shuffle(order)
        for j in order:
            try:
                got = _value(jobs[j]())
            except Exception as e:  # noqa: BLE001 — reported below
                got = f"{type(e).__name__}: {e}"
            if got != want[j]:
                with lock:
                    wrong.append(f"job {j}: {str(got)[:200]}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(i,), daemon=True)
                   for i in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "a client never finished"
    assert not wrong, wrong[:5]
    assert flight["max"] == 1
