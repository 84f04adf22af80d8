"""Snapshot/restore + alias lifecycle — the ES ``_snapshot`` and
``_aliases`` analogs (the index-management half the reference delegates
to Elasticsearch operators)."""

from __future__ import annotations

import json
import os
import shutil
import urllib.request

import pytest

from excelastic_ray.config import IndexConfig
from excelastic_ray.corpus import generate_transcripts
from excelastic_ray.index.build import build_index
from excelastic_ray.index.snapshot import (
    create_snapshot,
    delete_snapshot,
    list_snapshots,
    restore_snapshot,
    resolve_alias,
    update_aliases,
)
from excelastic_ray.query.engine import QueryEngine

CFG = IndexConfig(turn_bits=8, convs_per_chunk_bits=3, num_shards=2)

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def _build(root: str, name: str, seed: int, n_convs: int = 25) -> str:
    import ray.data as rd

    path = os.path.join(root, name)
    table = generate_transcripts(n_convs=n_convs, seed=seed)
    build_index(rd.from_arrow(table), path, CFG, clear=True)
    return path


def _hits(path_or_eng, q: str = "the tool", k: int = 20):
    eng = (path_or_eng if isinstance(path_or_eng, QueryEngine)
           else QueryEngine(path_or_eng))
    t = eng.search(q, k=k)
    return [(r["conv_id"], r["turn_idx"], round(r["score"], 6))
            for r in t.to_pylist()]


def test_snapshot_restore_roundtrip(ray_session, tmp_path):
    root = str(tmp_path / "indexes")
    repo = str(tmp_path / "repo")
    a = _build(root, "a", seed=3)
    want = _hits(a)

    snap = create_snapshot(repo, "s1", {"a": a})
    assert snap["state"] == "SUCCESS"
    assert snap["indices"]["a"]["n_files"] > 0

    # the live index is wiped; restore brings back identical results
    shutil.rmtree(a)
    out = restore_snapshot(repo, "s1", "a", root)
    assert out["restored_as"] == "a"
    assert _hits(a) == want

    # restore-with-rename → a second identical index; restoring over
    # an existing index refuses (ES cannot-restore-into-open-index)
    out = restore_snapshot(repo, "s1", "a", root, rename_to="a2")
    assert _hits(os.path.join(root, "a2")) == want
    with pytest.raises(FileExistsError):
        restore_snapshot(repo, "s1", "a", root)

    # a partial snapshot dir (no manifest — crashed mid-copy) is hidden
    os.makedirs(os.path.join(repo, "crashed", "a"))
    assert [s["snapshot"] for s in list_snapshots(repo)] == ["s1"]

    delete_snapshot(repo, "s1")
    assert list_snapshots(repo) == []


def test_snapshot_survives_index_mutation(ray_session, tmp_path):
    """Hard-linked snapshots stay valid because mutations replace files
    atomically (new inode), never write in place: delete_by_query on
    the live index must not leak into an existing snapshot."""
    root = str(tmp_path / "indexes")
    repo = str(tmp_path / "repo")
    a = _build(root, "a", seed=5)
    want = _hits(a)
    create_snapshot(repo, "pre", {"a": a})

    eng = QueryEngine(a)
    assert eng.delete_by_query(filters={"role": "tool"}) > 0
    assert _hits(a) != want  # live index changed

    restore_snapshot(repo, "pre", "a", root, rename_to="a_pre")
    assert _hits(os.path.join(root, "a_pre")) == want


def test_snapshot_refuses_incomplete_index(ray_session, tmp_path):
    from excelastic_ray.index.segments import (
        load_global_manifest,
        save_global_manifest,
    )

    root = str(tmp_path / "indexes")
    a = _build(root, "a", seed=7)
    m = load_global_manifest(a)
    m["status"] = "building"
    save_global_manifest(a, m)
    with pytest.raises(RuntimeError, match="not complete"):
        create_snapshot(str(tmp_path / "repo"), "s", {"a": a})


def test_alias_add_swap_remove(ray_session, tmp_path):
    root = str(tmp_path / "indexes")
    _build(root, "v1", seed=1)
    _build(root, "v2", seed=2)

    update_aliases(root, [{"add": {"alias": "live", "index": "v1"}}])
    assert resolve_alias(root, "live") == ["v1"]
    assert resolve_alias(root, "v1") == ["v1"]  # concrete = itself

    # the zero-downtime swap is one atomic action batch
    update_aliases(root, [
        {"remove": {"alias": "live", "index": "v1"}},
        {"add": {"alias": "live", "index": "v2"}},
    ])
    assert resolve_alias(root, "live") == ["v2"]

    # multi-target alias
    update_aliases(root, [{"add": {"alias": "all", "index": "v1"}},
                          {"add": {"alias": "all", "index": "v2"}}])
    assert resolve_alias(root, "all") == ["v1", "v2"]

    update_aliases(root, [{"remove": {"alias": "live", "index": "v2"}}])
    assert resolve_alias(root, "live") == ["live"]  # gone → concrete

    with pytest.raises(FileNotFoundError):
        update_aliases(root, [{"add": {"alias": "x", "index": "nope"}}])
    with pytest.raises(ValueError, match="collides"):
        update_aliases(root, [{"add": {"alias": "v1", "index": "v2"}}])
    with pytest.raises(KeyError):
        update_aliases(root, [{"remove": {"alias": "all", "index": "zz"}}])


def _get(url: str):
    try:
        with urllib.request.urlopen(url) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read())


def _post(url: str, body: dict | None = None):
    data = json.dumps(body).encode() if body is not None else b""
    req = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(req) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read())


def test_http_alias_and_snapshot_surface(ray_session, tmp_path):
    """End-to-end over HTTP: alias swap routes search, multi-alias fans
    out, snapshot + restore-with-rename round-trips."""
    from excelastic_ray.web import ImportServer

    root = str(tmp_path / "indexes")
    _build(root, "v1", seed=1)
    _build(root, "v2", seed=2)
    v1_hits = _hits(os.path.join(root, "v1"))
    v2_hits = _hits(os.path.join(root, "v2"))
    assert v1_hits != v2_hits

    srv = ImportServer(root).start()
    base = f"http://127.0.0.1:{srv.port}"
    try:
        st, _ = _post(base + "/api/aliases", {"actions": [
            {"add": {"alias": "live", "index": "v1"}},
        ]})
        assert st == 200

        def search_via(name):
            st, out = _get(base + f"/api/search?index={name}&q=the+tool&k=20")
            assert st == 200, out
            return [(h["conv_id"], h["turn_idx"], round(h["score"], 6))
                    for h in out["hits"]]

        assert search_via("live") == v1_hits
        st, _ = _post(base + "/api/aliases", {"actions": [
            {"remove": {"alias": "live", "index": "v1"}},
            {"add": {"alias": "live", "index": "v2"}},
        ]})
        assert st == 200
        assert search_via("live") == v2_hits  # retarget invalidates cache

        st, out = _get(base + "/api/aliases")
        assert st == 200 and out["aliases"] == {
            "live": {"indices": ["v2"], "filter": None}
        }

        # multi-target alias: plain search fans out; modal search 500s
        _post(base + "/api/aliases", {"actions": [
            {"add": {"alias": "both", "index": "v1"}},
            {"add": {"alias": "both", "index": "v2"}},
        ]})
        st, out = _get(base + "/api/search?index=both&q=the+tool&k=40")
        assert st == 200
        convs = {(h["index"], h["conv_id"], h["turn_idx"])
                 for h in out["hits"]}
        assert {i for i, _, _ in convs} == {"v1", "v2"}
        st, out = _get(base + "/api/search?index=both&q=a+b&phrase=1")
        assert st == 500 and "plain unpaged search" in out["error"]

        # uploads cannot target a multi-index alias (write-alias rule)
        payload = open(
            f"{FIXTURES}/test.csv", "rb"
        ).read()
        import tests.test_web as tw

        st, out = tw._post_multipart(
            base + "/api/upload",
            {"index": b"both", "options": b"clear"},
            ("file", "t.csv", payload),
        )
        assert st == 500 and "concrete" in out["error"]

        # snapshot all complete indices, restore v1 under a new name
        st, snap = _post(base + "/api/snapshot?name=nightly")
        assert st == 200 and set(snap["indices"]) == {"v1", "v2"}, snap
        st, out = _get(base + "/api/snapshots")
        assert st == 200 and [s["snapshot"] for s in out["snapshots"]] \
            == ["nightly"]
        st, out = _post(
            base + "/api/restore?name=nightly&index=v1&rename=v1r"
        )
        assert st == 200 and out["restored_as"] == "v1r", out
        assert search_via("v1r") == v1_hits
        # restoring onto the live index name refuses
        st, out = _post(base + "/api/restore?name=nightly&index=v1")
        assert st == 400 and "exists" in out["error"]
    finally:
        srv.stop()


def test_cli_snapshot_restore_alias(ray_session, tmp_path):
    """CLI lifecycle parity: snapshot -> snapshots -> restore --rename,
    alias add/swap/list; search --syn exercises synonym expansion."""
    import contextlib
    import io as _io

    from excelastic_ray.__main__ import main

    root = str(tmp_path / "indexes")
    repo = str(tmp_path / "repo")
    a = _build(root, "v1", seed=1)
    _build(root, "v2", seed=2)
    want = _hits(a)

    out = _io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["snapshot", root, repo, "nightly"]) == 0
        assert main(["snapshots", repo]) == 0
        assert main(["restore", root, repo, "nightly", "v1",
                     "--rename", "v1r"]) == 0
        assert main(["alias", root, "add", "live", "v1"]) == 0
        assert main(["alias", root, "swap", "live", "v1", "v2"]) == 0
        assert main(["alias", root, "list"]) == 0
        assert main(["search", a, "the tool", "-k", "3",
                     "--syn", "tool=run|call"]) == 0
    text = out.getvalue()
    assert '"nightly"' in text and '"v1r"' in text
    assert '"v2"' in text and '"live"' in text  # alias list shows v2
    assert _hits(os.path.join(root, "v1r")) == want


def test_alias_engine_invalidated_by_member_rebuild(ray_session, tmp_path):
    """Review r3 #1: a cached alias engine spanning index 'a' must not
    serve stale results after 'a' is clear+rebuilt (fresh revs == old
    revs; detection is build_id/manifest identity)."""
    import ray.data as rd

    from excelastic_ray.web import ImportServer

    root = str(tmp_path / "indexes")
    a = _build(root, "a", seed=3)
    _build(root, "b", seed=4)
    update_aliases(root, [{"add": {"alias": "ab", "index": "a"}},
                          {"add": {"alias": "ab", "index": "b"}}])
    srv = ImportServer(root)
    before = srv.search("ab", "the tool", k=20)["hits"]

    # rebuild 'a' through the server path (clear), different corpus
    build_index(
        rd.from_arrow(generate_transcripts(n_convs=25, seed=99)),
        a, CFG, clear=True,
    )
    after = srv.search("ab", "the tool", k=20)["hits"]
    assert after != before  # stale cache would return `before`
    # and the fresh engine actually reflects the new 'a' corpus
    assert any(h["index"] == "a" for h in after)


def test_concurrent_alias_updates_do_not_lose_writes(ray_session, tmp_path):
    import threading

    root = str(tmp_path / "indexes")
    for i in range(6):
        _build(root, f"i{i}", seed=i, n_convs=3)

    errs = []

    def add(i):
        try:
            update_aliases(
                root, [{"add": {"alias": f"al{i}", "index": f"i{i}"}}]
            )
        except Exception as e:  # pragma: no cover
            errs.append(e)

    threads = [threading.Thread(target=add, args=(i,)) for i in range(6)]
    [t.start() for t in threads]
    [t.join() for t in threads]
    from excelastic_ray.index.snapshot import load_aliases

    assert not errs
    assert set(load_aliases(root)) == {f"al{i}" for i in range(6)}


def test_restore_refuses_alias_shadow(ray_session, tmp_path):
    root = str(tmp_path / "indexes")
    repo = str(tmp_path / "repo")
    a = _build(root, "a", seed=5)
    _build(root, "b", seed=6)
    update_aliases(root, [{"add": {"alias": "prod", "index": "b"}}])
    create_snapshot(repo, "s", {"a": a})
    with pytest.raises(ValueError, match="existing alias"):
        restore_snapshot(repo, "s", "a", root, rename_to="prod")


def test_snapshot_staging_is_invisible_and_crash_safe(ray_session, tmp_path):
    """A leftover pre-commit staging dir is hidden from list_snapshots
    and a later same-name snapshot succeeds cleanly."""
    root = str(tmp_path / "indexes")
    repo = str(tmp_path / "repo")
    a = _build(root, "a", seed=7)
    os.makedirs(os.path.join(repo, ".snap-s1-dead", "a"))
    create_snapshot(repo, "s1", {"a": a})
    names = [s["snapshot"] for s in list_snapshots(repo)]
    assert names == ["s1"]
    # restored content comes from the committed snapshot only
    restore_snapshot(repo, "s1", "a", root, rename_to="a2")
    assert _hits(os.path.join(root, "a2")) == _hits(a)


def test_filtered_alias_store(ray_session, tmp_path):
    """ES filtered alias: the filter is alias state, last add wins;
    pre-filter stores (bare target lists) normalize on read."""
    import json
    import os

    import ray.data as rd

    from excelastic_ray.config import IndexConfig
    from excelastic_ray.corpus import generate_transcripts
    from excelastic_ray.index.build import build_index
    from excelastic_ray.index.snapshot import (
        alias_filter,
        load_aliases,
        resolve_alias,
        update_aliases,
    )

    root = str(tmp_path / "fa")
    build_index(
        rd.from_arrow(generate_transcripts(n_convs=6, seed=2)),
        f"{root}/a",
        IndexConfig(turn_bits=8, convs_per_chunk_bits=2, num_shards=2),
        clear=True,
    )
    update_aliases(root, [{"add": {"alias": "users", "index": "a",
                                   "filter": {"role": "user"}}}])
    assert resolve_alias(root, "users") == ["a"]
    assert alias_filter(root, "users") == {"role": "user"}
    assert alias_filter(root, "a") is None
    # last add wins (ES semantics); add without filter keeps it
    update_aliases(root, [{"add": {"alias": "users", "index": "a",
                                   "filter": {"role": "tool"}}}])
    assert alias_filter(root, "users") == {"role": "tool"}
    with pytest.raises(ValueError, match="filter"):
        update_aliases(root, [{"add": {"alias": "x", "index": "a",
                                       "filter": "role=user"}}])
    # pre-filter file format (bare lists) reads as unfiltered
    with open(os.path.join(root, "aliases.json"), "w") as f:
        json.dump({"old": ["a"]}, f)
    assert resolve_alias(root, "old") == ["a"]
    assert alias_filter(root, "old") is None


def test_filtered_alias_atomic_swap_keeps_filter(ray_session, tmp_path):
    """A remove+add retarget in ONE atomic batch (the rollover shape)
    keeps the alias's filter; removing in one call and re-adding in a
    LATER call starts clean; an explicit filter in the add still wins."""
    import ray.data as rd

    from excelastic_ray.config import IndexConfig
    from excelastic_ray.corpus import generate_transcripts
    from excelastic_ray.index.build import build_index
    from excelastic_ray.index.snapshot import alias_filter, update_aliases

    root = str(tmp_path / "swap")
    for name in ("v1", "v2"):
        build_index(
            rd.from_arrow(generate_transcripts(n_convs=4, seed=2)),
            f"{root}/{name}",
            IndexConfig(turn_bits=8, convs_per_chunk_bits=2,
                        num_shards=2),
            clear=True,
        )
    update_aliases(root, [{"add": {"alias": "live", "index": "v1",
                                   "filter": {"role": "user"}}}])
    update_aliases(root, [
        {"remove": {"alias": "live", "index": "v1"}},
        {"add": {"alias": "live", "index": "v2"}},
    ])
    assert alias_filter(root, "live") == {"role": "user"}
    # explicit filter in the swap's add wins
    update_aliases(root, [
        {"remove": {"alias": "live", "index": "v2"}},
        {"add": {"alias": "live", "index": "v1",
                 "filter": {"role": "tool"}}},
    ])
    assert alias_filter(root, "live") == {"role": "tool"}
    # separate-call removal genuinely drops the filter
    update_aliases(root, [{"remove": {"alias": "live", "index": "v1"}}])
    update_aliases(root, [{"add": {"alias": "live", "index": "v2"}}])
    assert alias_filter(root, "live") is None
