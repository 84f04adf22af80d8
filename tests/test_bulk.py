"""ES _bulk analog: ordered application, item-scoped errors, and the
new-conversation batch fast path (one append for a run of new convs)."""

from __future__ import annotations

import json
import urllib.request

import pyarrow as pa
import pytest

from excelastic_ray.bulk import bulk_apply, parse_ndjson
from excelastic_ray.config import IndexConfig
from excelastic_ray.index.build import build_index
from excelastic_ray.query.engine import QueryEngine

CFG = IndexConfig(turn_bits=6, convs_per_chunk_bits=2, num_shards=2)


def _base_table() -> pa.Table:
    import numpy as np

    rows = [
        ("c0", 0, "user", "alpha beta", "", "2026-01-01T00:00:00"),
        ("c0", 1, "assistant", "beta gamma", "", "2026-01-01T00:01:00"),
        ("c1", 0, "user", "delta", "search", "2026-01-01T00:02:00"),
    ]
    return pa.table(
        {
            "conv_id": pa.array([r[0] for r in rows]),
            "turn_idx": pa.array([r[1] for r in rows], type=pa.int32()),
            "role": pa.array([r[2] for r in rows]),
            "text": pa.array([r[3] for r in rows]),
            "tool": pa.array([r[4] for r in rows]),
            "ts": pa.array(
                [np.datetime64(r[5], "us") for r in rows],
                type=pa.timestamp("us"),
            ),
        }
    )


@pytest.fixture()
def bulk_index(tmp_path, ray_session):
    import ray.data as rd

    d = str(tmp_path / "idx")
    build_index(rd.from_arrow(_base_table()), d, CFG, clear=True)
    return d


def test_bulk_mixed_actions_ordered(bulk_index):
    actions = [
        # a RUN of new-conversation docs -> one append
        {"op": "index", "doc": {"conv_id": "n0", "turn_idx": 0,
                                "role": "user", "text": "zeta eta"}},
        {"op": "index", "doc": {"conv_id": "n0", "turn_idx": 1,
                                "role": "assistant", "text": "eta theta"}},
        {"op": "index", "doc": {"conv_id": "n1", "turn_idx": 0,
                                "role": "user", "text": "iota"}},
        # an overwrite of an EXISTING doc breaks the run
        {"op": "index", "overwrite": True,
         "doc": {"conv_id": "c0", "turn_idx": 0, "role": "user",
                 "text": "alpha rewritten"}},
        # tombstone
        {"op": "delete", "conv_id": "c1", "turn_idx": 0},
        # attr overlay
        {"op": "update", "conv_id": "c0", "turn_idx": 1,
         "attrs": {"role": "tool"}},
        # item-scoped error: unknown doc
        {"op": "delete", "conv_id": "zzz", "turn_idx": 0},
        {"op": "nonsense"},
    ]
    res = bulk_apply(bulk_index, actions)
    assert [r["status"] for r in res] == [
        "ok", "ok", "ok", "ok", "ok", "ok", "error", "error"
    ]
    eng = QueryEngine(bulk_index)
    # the batched new convs are searchable
    assert eng.search("zeta", 5).num_rows == 1
    assert eng.search("iota", 5).num_rows == 1
    # the overwrite replaced the text
    assert eng.search("rewritten", 5).num_rows == 1
    assert eng.search("alpha", 5).num_rows == 1  # only the rewrite hit
    # the delete tombstoned c1
    assert eng.search("delta", 5).num_rows == 0
    # the update overlaid the role attr
    t = eng.search("gamma", 5, filters={"role": "tool"})
    assert t.num_rows == 1


def test_bulk_duplicate_new_doc_in_batch_is_item_error(bulk_index):
    actions = [
        {"op": "index", "doc": {"conv_id": "d0", "turn_idx": 0,
                                "role": "user", "text": "first"}},
        # same (conv, turn) again: flushes the run, then op_type=create
        # (overwrite unset) refuses the duplicate — item error, batch
        # continues
        {"op": "index", "doc": {"conv_id": "d0", "turn_idx": 0,
                                "role": "user", "text": "second"}},
        {"op": "index", "doc": {"conv_id": "d1", "turn_idx": 0,
                                "role": "user", "text": "third"}},
    ]
    res = bulk_apply(bulk_index, actions)
    assert res[0]["status"] == "ok"
    assert res[1]["status"] == "error"
    assert res[2]["status"] == "ok"
    eng = QueryEngine(bulk_index)
    assert eng.search("first", 5).num_rows == 1
    assert eng.search("second", 5).num_rows == 0
    assert eng.search("third", 5).num_rows == 1


def test_parse_ndjson_shapes():
    body = "\n".join(
        [
            json.dumps({"index": {"conv_id": "x", "turn_idx": 0}}),
            json.dumps({"text": "hello", "role": "user"}),
            json.dumps({"delete": {"conv_id": "y", "turn_idx": 2}}),
            json.dumps({"update": {"conv_id": "x", "turn_idx": 0}}),
            json.dumps({"doc": {"role": "tool"}}),
            json.dumps({"create": {"conv_id": "z", "turn_idx": 0}}),
            json.dumps({"text": "made"}),
        ]
    )
    a = parse_ndjson(body)
    assert [x["op"] for x in a] == ["index", "delete", "update", "index"]
    assert a[0]["doc"]["conv_id"] == "x" and a[0]["overwrite"] is True
    assert a[1] == {"op": "delete", "conv_id": "y", "turn_idx": 2}
    assert a[2]["attrs"] == {"role": "tool"}
    assert a[3]["overwrite"] is False  # create refuses duplicates
    with pytest.raises(ValueError, match="unknown bulk op"):
        parse_ndjson(json.dumps({"frobnicate": {}}))
    with pytest.raises(ValueError, match="missing its doc"):
        parse_ndjson(json.dumps({"index": {"conv_id": "q", "turn_idx": 0}}))


def test_bulk_over_http(bulk_index, tmp_path, ray_session):
    import os
    import shutil

    from excelastic_ray.web import ImportServer

    root = str(tmp_path / "root")
    os.makedirs(root)
    shutil.move(bulk_index, os.path.join(root, "b"))
    srv = ImportServer(root).start()
    try:
        body = "\n".join(
            [
                json.dumps({"index": {"conv_id": "h0", "turn_idx": 0}}),
                json.dumps({"text": "kappa http", "role": "user"}),
                json.dumps({"delete": {"conv_id": "c0", "turn_idx": 1}}),
            ]
        ).encode()
        req = urllib.request.Request(
            f"http://127.0.0.1:{srv.port}/api/bulk?index=b",
            data=body, method="POST",
        )
        with urllib.request.urlopen(req) as r:
            out = json.loads(r.read())
        assert out["errors"] is False
        assert [it["status"] for it in out["items"]] == ["ok", "ok"]
        # searches see the bulk's effects immediately (engine refreshed)
        _, sr = None, urllib.request.urlopen(
            f"http://127.0.0.1:{srv.port}/api/search?index=b&q=kappa&k=5"
        )
        hits = json.loads(sr.read())["hits"]
        assert len(hits) == 1
    finally:
        srv.stop()


def test_bulk_never_raises_on_bad_doc_in_run(bulk_index):
    """A malformed ts inside a batched new-conv run must item-scope,
    not raise (the never-raise contract); good docs still land."""
    actions = [
        {"op": "index", "doc": {"conv_id": "g0", "turn_idx": 0,
                                "role": "user", "text": "good one"}},
        {"op": "index", "doc": {"conv_id": "g1", "turn_idx": 0,
                                "role": "user", "text": "bad ts",
                                "ts": "not-a-date"}},
        {"op": "index", "doc": {"conv_id": "g2", "turn_idx": 0,
                                "role": "user", "text": "good two"}},
    ]
    res = bulk_apply(bulk_index, actions)
    assert [r["status"] for r in res] == ["ok", "error", "ok"]
    eng = QueryEngine(bulk_index)
    assert eng.search("good", 5).num_rows == 2


def test_bulk_index_requires_ids(bulk_index):
    """An id-less index action is an item error — never a doc filed
    under the literal conversation id 'None'."""
    res = bulk_apply(bulk_index, [
        {"op": "index", "doc": {"turn_idx": 0, "text": "ghost"}},
        {"op": "index", "doc": {"conv_id": "ok0", "turn_idx": 0,
                                "role": "user", "text": "real"}},
    ])
    assert res[0]["status"] == "error"
    assert "conv_id" in res[0]["error"]
    assert res[1]["status"] == "ok"
    eng = QueryEngine(bulk_index)
    assert eng.search("ghost", 5).num_rows == 0


def test_parse_ndjson_metadata_id_wins():
    """The action line's conv_id/turn_idx override same-named doc-body
    fields (ES: the metadata _id is authoritative)."""
    body = "\n".join([
        json.dumps({"index": {"conv_id": "a", "turn_idx": 1}}),
        json.dumps({"conv_id": "stale", "turn_idx": 0, "text": "x"}),
    ])
    a = parse_ndjson(body)
    assert a[0]["doc"]["conv_id"] == "a"
    assert a[0]["doc"]["turn_idx"] == 1


def test_bulk_delete_then_create_succeeds(bulk_index):
    """ES create succeeds over a tombstoned doc: delete + create of the
    same (conv_id, turn_idx) inside one bulk both report ok and the new
    text is live."""
    res = bulk_apply(bulk_index, [
        {"op": "delete", "conv_id": "c0", "turn_idx": 0},
        {"op": "index", "doc": {"conv_id": "c0", "turn_idx": 0,
                                "role": "user", "text": "reborn doc"}},
    ])
    assert [r["status"] for r in res] == ["ok", "ok"]
    eng = QueryEngine(bulk_index)
    assert eng.search("reborn", 5).num_rows == 1
    assert eng.search("alpha", 5).num_rows == 0  # old text gone
