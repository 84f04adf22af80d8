"""Refresh over HTTP reopens only what a write changed: the server's next
engine keeps the ``ShardSearcher`` of every shard whose files the write
left alone, and every search (with ``_source``) answers as a fresh
``QueryEngine`` over the same directory does."""

from __future__ import annotations

import json
import os
import shutil
import urllib.parse
import urllib.request

import pyarrow.parquet as pq
import pytest

from excelastic_ray.config import IndexConfig
from excelastic_ray.corpus import generate_transcripts
from excelastic_ray.index.build import build_index
from excelastic_ray.query.engine import QueryEngine
from excelastic_ray.query.multi import MultiIndexEngine

CFG = IndexConfig(turn_bits=8, convs_per_chunk_bits=2, num_shards=4)
QUERIES = ["the call run w00001", "ok w00003 of", "refreshmark the"]


@pytest.fixture(scope="module")
def template(tmp_path_factory, ray_session):
    """Two built indices, copied (new files) into each test's root."""
    import ray.data as rd

    root = tmp_path_factory.mktemp("refresh_template")
    for name, seed in (("main", 7), ("other", 8)):
        build_index(rd.from_arrow(generate_transcripts(n_convs=24, seed=seed)),
                    str(root / name), CFG, clear=True)
    return root


@pytest.fixture()
def served(template, tmp_path):
    from excelastic_ray.web import ImportServer

    root = tmp_path / "root"
    for name in ("main", "other"):
        shutil.copytree(template / name, root / name)
    srv = ImportServer(str(root)).start()
    try:
        yield srv, f"http://127.0.0.1:{srv.port}", str(root)
    finally:
        srv.stop()


def _call(url: str, method: str = "GET", body: bytes | None = None):
    req = urllib.request.Request(url, data=body, method=method)
    with urllib.request.urlopen(req) as r:
        assert r.status == 200
        return json.loads(r.read())


def _hits(base: str, index: str, q: str) -> list:
    qs = urllib.parse.urlencode({"index": index, "q": q, "k": 20})
    return _call(f"{base}/api/search?{qs}")["hits"]


def _fresh(eng, q: str) -> list:
    """What the server returns for ``q`` when served by ``eng`` (an
    alias's multi-index search returns no ``_source``)."""
    t = (eng.search(q, 20) if isinstance(eng, MultiIndexEngine)
         else eng.search(q, 20, include_source=True))
    return json.loads(json.dumps(t.to_pylist(), default=str))


def _answers_fresh(base: str, index: str, dirs: list[str]) -> None:
    fresh = (QueryEngine(dirs[0]) if len(dirs) == 1
             else MultiIndexEngine(dirs))
    for q in QUERIES:
        assert _hits(base, index, q) == _fresh(fresh, q), q


def _searchers(srv, name: str = "main", sub: int = 0) -> dict:
    eng = srv._engines[name][1]
    eng = eng.engines[sub] if hasattr(eng, "engines") else eng
    return dict(eng.reader._searchers)


def _bulk(base: str, index: str, conv: str) -> int:
    """One new conversation over HTTP; returns the shard it lands in."""
    docs = [{"conv_id": conv, "turn_idx": t, "role": "user",
             "text": f"refreshmark {conv} turn {t}"} for t in range(2)]
    body = "".join(
        json.dumps({"index": {"conv_id": d["conv_id"],
                              "turn_idx": d["turn_idx"]}})
        + "\n" + json.dumps(d) + "\n" for d in docs).encode()
    out = _call(f"{base}/api/bulk?index={index}", "POST", body)
    assert not out["errors"], out
    chunk = out["items"][0]["docid"] >> (CFG.turn_bits
                                         + CFG.convs_per_chunk_bits)
    return chunk % CFG.num_shards


def _kept(before: dict, after: dict, changed: set) -> None:
    assert sorted(after) == list(range(CFG.num_shards))
    for s in range(CFG.num_shards):
        if s in changed:
            assert after[s] is not before[s], s
        else:
            assert after[s] is before[s], s


def test_bulk_reopens_only_the_changed_shard(served):
    srv, base, root = served
    d = os.path.join(root, "main")
    _answers_fresh(base, "main", [d])
    before = _searchers(srv)
    meta_before = set(srv._engines["main"][1].reader._store_meta)
    assert meta_before  # the _source fetches filled the docstore cache

    shard = _bulk(base, "main", "new-0")
    _answers_fresh(base, "main", [d])
    _kept(before, _searchers(srv), {shard})
    # docstore entries of unchanged chunks carry over too
    assert meta_before <= set(srv._engines["main"][1].reader._store_meta)

    # a second bulk takes over from the refreshed engine in turn
    before = _searchers(srv)
    shard = _bulk(base, "main", "new-1")
    _answers_fresh(base, "main", [d])
    _kept(before, _searchers(srv), {shard})


def test_doc_delete_and_update_reopen_their_shard(served):
    srv, base, root = served
    d = os.path.join(root, "main")
    hit = _hits(base, "main", QUERIES[0])[0]
    shard = (hit["docid"] >> (CFG.turn_bits + CFG.convs_per_chunk_bits)) \
        % CFG.num_shards
    doc = f"index=main&conv_id={hit['conv_id']}&turn_idx={hit['turn_idx']}"

    before = _searchers(srv)
    _call(f"{base}/api/doc/update?{doc}", "POST",
          json.dumps({"role": "assistant"}).encode())
    _answers_fresh(base, "main", [d])
    _kept(before, _searchers(srv), {shard})

    before = _searchers(srv)
    _call(f"{base}/api/doc?{doc}", "DELETE")
    assert hit["docid"] not in [h["docid"] for h in
                                _hits(base, "main", QUERIES[0])]
    _answers_fresh(base, "main", [d])
    _kept(before, _searchers(srv), {shard})


def test_forcemerge_and_clear_reimport_reopen_every_shard(served, tmp_path):
    srv, base, root = served
    d = os.path.join(root, "main")
    _bulk(base, "main", "new-0")  # two chunk segments to merge away
    _answers_fresh(base, "main", [d])
    before = _searchers(srv)
    _call(f"{base}/api/forcemerge?index=main&max_num_segments=2", "POST")
    _answers_fresh(base, "main", [d])
    after = _searchers(srv)
    assert sorted(after) == [0, 1]
    assert all(after[s] is not before[s] for s in after)

    src = str(tmp_path / "reimport.parquet")
    pq.write_table(generate_transcripts(n_convs=12, seed=9), src)
    srv.import_file(src, "main", 0, clear=True)
    _answers_fresh(base, "main", [d])
    assert not set(map(id, _searchers(srv).values())) & set(
        map(id, after.values()))


def test_snapshot_restore_over_the_index(served):
    """Restored files are hard links to the snapshot's, which share the
    inodes a reader opened before the snapshot; a searcher changed in
    place since (``delete_by_query``) must still not be taken over."""
    srv, base, root = served
    d = os.path.join(root, "main")
    _answers_fresh(base, "main", [d])
    _call(f"{base}/api/snapshot?name=s1&indices=main", "POST")
    _bulk(base, "main", "new-0")
    _answers_fresh(base, "main", [d])
    eng = srv._engines["main"][1]
    assert eng.delete_by_query(query="the") > 0
    shutil.rmtree(d)  # ES restores only over a deleted index
    _call(f"{base}/api/restore?name=s1&index=main", "POST")
    _answers_fresh(base, "main", [d])


def test_alias_takes_over_each_sub_index(served):
    srv, base, root = served
    dirs = [os.path.join(root, n) for n in ("main", "other")]
    _call(f"{base}/api/aliases", "POST", json.dumps({"actions": [
        {"add": {"alias": "both", "index": n}} for n in ("main", "other")
    ]}).encode())
    _answers_fresh(base, "both", dirs)
    before = [_searchers(srv, "both", i) for i in range(2)]

    shard = _bulk(base, "main", "new-0")
    _answers_fresh(base, "both", dirs)
    _kept(before[0], _searchers(srv, "both", 0), {shard})
    _kept(before[1], _searchers(srv, "both", 1), set())
