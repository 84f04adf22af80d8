"""Many threads over one in-process engine: every answer equals the
sequential one, and at most one shard call is ever in flight (the
engine admits one query at a time per process). Over HTTP, searches
racing bulks answer as the index stood before or after a bulk."""

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


def test_http_searches_while_bulks_land(tmp_path, ray_session):
    """4 threads search over HTTP while bulks of new conversations land
    on the same index. No request errors, and each answer equals a fresh
    engine's answer over the index as it stood before or after one of
    the bulks in flight while the request was."""
    import json
    import urllib.parse
    import urllib.request

    import ray.data as rd

    from excelastic_ray.web import ImportServer

    root = tmp_path / "root"
    d = str(root / "main")
    build_index(rd.from_arrow(generate_transcripts(n_convs=40, seed=5)),
                d, CFG, clear=True)
    queries = ["the call run w00001", "ok w00003 of", "landmark the"]

    def fresh() -> list:
        eng = QueryEngine(d)
        return [json.loads(json.dumps(
            eng.search(q, 10, include_source=True).to_pylist(), default=str))
            for q in queries]

    srv = ImportServer(str(root)).start()
    base = f"http://127.0.0.1:{srv.port}"

    def call(url: str, body: bytes | None = None):
        req = urllib.request.Request(url, data=body,
                                     method="POST" if body else "GET")
        with urllib.request.urlopen(req, timeout=120) as r:
            return r.status, json.loads(r.read())

    states = [fresh()]  # states[j]: answers after j bulks
    begun = [0]  # bulks begun; len(states) - 1 bulks done
    lock = threading.Lock()
    stop = threading.Event()
    seen: list[tuple] = []  # (query, first state, last state, answer)
    errors: list[str] = []

    def client(c: int) -> None:
        i = c
        while not stop.is_set():
            qi = i % len(queries)
            i += 1
            with lock:
                lo = len(states) - 1
            qs = urllib.parse.urlencode({"index": "main", "k": 10,
                                         "q": queries[qi]})
            try:
                status, out = call(f"{base}/api/search?{qs}")
            except Exception as e:  # noqa: BLE001 — reported below
                status, out = None, repr(e)
            with lock:
                hi = begun[0]
                if status != 200:
                    errors.append(f"{queries[qi]}: {status} {out}")
                else:
                    seen.append((qi, lo, hi, out["hits"]))

    try:
        call(f"{base}/api/search?index=main&q=the")  # the first engine
        threads = [threading.Thread(target=client, args=(c,), daemon=True)
                   for c in range(4)]
        for t in threads:
            t.start()
        for b in range(3):
            docs = [{"conv_id": f"land-{b}", "turn_idx": t, "role": "user",
                     "text": f"landmark {b} turn {t}"} for t in range(2)]
            body = "".join(
                json.dumps({"index": {"conv_id": x["conv_id"],
                                      "turn_idx": x["turn_idx"]}})
                + "\n" + json.dumps(x) + "\n" for x in docs).encode()
            with lock:
                begun[0] += 1
            status, out = call(f"{base}/api/bulk?index=main", body)
            assert status == 200 and not out["errors"], out
            after = fresh()
            with lock:
                states.append(after)
            # let the clients answer from the new state before the next
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and not any(
                    lo == b + 1 for _, lo, _, _ in list(seen)):
                time.sleep(0.01)
        stop.set()
        for t in threads:
            t.join(timeout=120)
    finally:
        stop.set()
        srv.stop()
    assert not any(t.is_alive() for t in threads), "a client never finished"
    assert not errors, errors[:5]
    assert {lo for _, lo, _, _ in seen} == set(range(len(states)))
    for qi, lo, hi, hits in seen:
        assert any(hits == states[j][qi] for j in range(lo, hi + 1)), (
            queries[qi], lo, hi)
