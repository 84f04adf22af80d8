"""HTTP upload + progress surface (Website.java analog) end-to-end."""

from __future__ import annotations

import json
import os
import time
import urllib.request

import pytest

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def _post_multipart(url: str, fields: dict[str, bytes],
                    file_field: tuple[str, str, bytes] | None = None):
    boundary = "testboundary123"
    parts = []
    for name, val in fields.items():
        parts.append(
            f'--{boundary}\r\nContent-Disposition: form-data; '
            f'name="{name}"\r\n\r\n'.encode() + val + b"\r\n"
        )
    if file_field:
        fname, filename, payload = file_field
        parts.append(
            f'--{boundary}\r\nContent-Disposition: form-data; '
            f'name="{fname}"; filename="{filename}"\r\n'
            f"Content-Type: application/octet-stream\r\n\r\n".encode()
            + payload + b"\r\n"
        )
    body = b"".join(parts) + f"--{boundary}--\r\n".encode()
    req = urllib.request.Request(
        url, data=body,
        headers={"Content-Type": f"multipart/form-data; boundary={boundary}"},
    )
    try:
        with urllib.request.urlopen(req) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read())


def _get(url: str):
    with urllib.request.urlopen(url) as r:
        return r.status, r.read()


def test_upload_import_status_search(ray_session, tmp_path):
    from excelastic_ray.web import ImportServer

    srv = ImportServer(str(tmp_path / "indexes")).start()
    base = f"http://127.0.0.1:{srv.port}"
    try:
        # upload form renders (TestWebsite.java:39-47 start-page analog)
        status, html = _get(base + "/")
        assert status == 200 and b"excelastic_ray" in html

        payload = open(f"{FIXTURES}/test.csv", "rb").read()
        status, resp = _post_multipart(
            base + "/api/upload",
            {"index": b"csvtest", "options": b"clear", "offset": b"1"},
            ("file", "test.csv", payload),
        )
        assert status == 200, resp
        imp_id = resp["id"]

        for _ in range(300):
            status, out = _get(base + f"/api/status?id={imp_id}")
            rec = json.loads(out)
            if rec["status"] in ("complete", "error"):
                break
            time.sleep(0.2)
        assert rec["status"] == "complete", rec
        assert rec["rows"] == 2  # the golden fixture's 2 data rows
        assert rec["progress"]["status"] == "complete"
        assert rec["progress"]["percent"] == 100.0

        # the indexed docs are searchable (name=test_0 / name=test_1)
        status, resp = _get(base + "/api/search?index=csvtest&q=test_1&k=5")
        hits = json.loads(resp)["hits"]
        assert len(hits) == 1
        assert "test_1" in hits[0]["text"]
    finally:
        srv.stop()


def test_upload_without_file_is_error(ray_session, tmp_path):
    from excelastic_ray.web import ImportServer

    srv = ImportServer(str(tmp_path / "indexes2")).start()
    base = f"http://127.0.0.1:{srv.port}"
    try:
        status, resp = _post_multipart(
            base + "/api/upload", {"index": b"x"}, None
        )
        assert status == 400
        assert "no file" in resp["error"]
    finally:
        srv.stop()


def test_index_lock_forces_default_index(ray_session, tmp_path):
    """index_lock (Configuration.java:130-132): uploads land in the
    locked index regardless of the form's index field."""
    from excelastic_ray.web import ImportServer

    srv = ImportServer(str(tmp_path / "indexes3"), index_lock="locked").start()
    base = f"http://127.0.0.1:{srv.port}"
    try:
        payload = open(f"{FIXTURES}/test.csv", "rb").read()
        status, resp = _post_multipart(
            base + "/api/upload",
            {"index": b"evil", "options": b"clear"},
            ("file", "test.csv", payload),
        )
        assert status == 200 and resp["index"] == "locked"
        # wait for the import thread: a build leaking past the test
        # would race the NEXT test's build for the tiny test cluster
        deadline = time.time() + 120
        while time.time() < deadline:
            _, body = _get(base + f"/api/status?id={resp['id']}")
            if json.loads(body)["status"] in ("complete", "error"):
                break
            time.sleep(0.2)
        else:
            raise AssertionError("import did not finish")
    finally:
        srv.stop()


def test_cli_search_flags(ray_session, tmp_path):
    """CLI smoke: build then search with --phrase / --from / --highlight."""
    import contextlib
    import io as _io

    import pyarrow as pa
    import pyarrow.parquet as pq

    from excelastic_ray.__main__ import main
    from excelastic_ray.corpus import generate_transcripts

    src = str(tmp_path / "src")
    import os

    os.makedirs(src)
    pq.write_table(generate_transcripts(n_convs=40, seed=1),
                   os.path.join(src, "p.parquet"))
    idx = str(tmp_path / "idx")
    out = _io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["build", src, idx, "--clear", "--shards", "2"]) == 0
        assert main(["search", idx, "the", "-k", "3", "--from", "2",
                     "--highlight"]) == 0
        assert main(["search", idx, "the", "-k", "3", "--phrase"]) == 0
        assert main(["search", idx, "th*", "-k", "3", "--wildcard"]) == 0
        assert main(["search", idx, "teh", "--suggest"]) == 0
        assert main(["search", idx, "the", "-k", "3",
                     "--collapse", "role"]) == 0
        assert main(["search", idx, "", "-k", "3",
                     "--mlt", "conv-000003:1"]) == 0
        assert main(["search", idx, "call the", "-k", "3",
                     "--must", "w00001", "--must-not", "w00002"]) == 0
        assert main(["search", idx, "the", "-k", "3",
                     "--span-first", "2"]) == 0
        assert main(["search", idx, "the and", "-k", "3",
                     "--span-near", "1"]) == 0
        assert main(["search", idx, "the", "-k", "3",
                     "--span-not", "and:1"]) == 0
        assert main(["status", idx]) == 0
    text = out.getvalue()
    assert "<em>" in text and "docid" in text and '"percent": 100.0' in text
    assert "suggestion" in text and "role" in text


def test_upload_xls_via_http(ray_session, tmp_path):
    """Legacy .xls upload end-to-end through the HTTP surface: BIFF8
    parse -> transcript adapter -> index -> search."""
    from excelastic_ray.web import ImportServer

    srv = ImportServer(str(tmp_path / "indexes_xls")).start()
    base = f"http://127.0.0.1:{srv.port}"
    try:
        payload = open(f"{FIXTURES}/test.xls", "rb").read()
        status, resp = _post_multipart(
            base + "/api/upload",
            {"index": b"xlstest", "options": b"clear", "offset": b"5"},
            ("file", "test.xls", payload),
        )
        assert status == 200, resp
        imp_id = resp["id"]
        for _ in range(300):
            status, out = _get(base + f"/api/status?id={imp_id}")
            rec = json.loads(out)
            if rec["status"] in ("complete", "error"):
                break
            time.sleep(0.2)
        assert rec["status"] == "complete", rec
        assert rec["rows"] == 2
        status, resp = _get(base + "/api/search?index=xlstest&q=7&k=5")
        hits = json.loads(resp)["hits"]
        assert len(hits) == 1 and "cell 7" in hits[0]["text"]
    finally:
        srv.stop()


def _ws_handshake(sock, port: int, path: str) -> None:
    import base64
    import os as _os

    key = base64.b64encode(_os.urandom(16)).decode()
    sock.sendall(
        (
            f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n"
            f"Upgrade: websocket\r\nConnection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\nSec-WebSocket-Version: 13\r\n\r\n"
        ).encode()
    )
    head = b""
    while b"\r\n\r\n" not in head:
        chunk = sock.recv(4096)
        assert chunk, "connection closed during handshake"
        head += chunk
    assert b"101" in head.split(b"\r\n", 1)[0], head


def _ws_frames(sock, deadline: float):
    """Yield (opcode, payload) server frames until close/timeout."""
    import time as _time

    buf = b""

    def need(n: int) -> bool:
        nonlocal buf
        while len(buf) < n:
            if _time.time() > deadline:
                return False
            chunk = sock.recv(4096)
            if not chunk:
                return False
            buf += chunk
        return True

    while need(2):
        op = buf[0] & 0x0F
        n = buf[1] & 0x7F
        off = 2
        if n == 126:
            if not need(4):
                return
            n = int.from_bytes(buf[2:4], "big")
            off = 4
        if not need(off + n):
            return
        payload = buf[off : off + n]
        buf = buf[off + n :]
        yield op, payload
        if op == 0x8:
            return


def test_websocket_progress_push(ray_session, tmp_path):
    """Website.java:94-119 parity: a /ws client receives ≥2 progress
    frames during an import and a final complete frame."""
    import socket

    from excelastic_ray.web import ImportServer

    srv = ImportServer(str(tmp_path / "wsidx")).start()
    base = f"http://127.0.0.1:{srv.port}"
    try:
        payload = open(f"{FIXTURES}/test.csv", "rb").read()
        status, resp = _post_multipart(
            base + "/api/upload",
            {"index": b"wstest", "options": b"clear", "offset": b"1"},
            ("file", "test.csv", payload),
        )
        assert status == 200, resp
        imp_id = resp["id"]

        sock = socket.create_connection(("127.0.0.1", srv.port), timeout=30)
        _ws_handshake(sock, srv.port, f"/ws?id={imp_id}")
        frames = []
        for op, payload in _ws_frames(sock, time.time() + 60):
            if op == 1:
                frames.append(json.loads(payload))
        sock.close()
        assert len(frames) >= 2, frames
        assert frames[-1]["status"] == "complete"
        assert frames[-1]["progress"]["percent"] == 100.0
    finally:
        srv.stop()


def test_websocket_id_via_first_frame(ray_session, tmp_path):
    """Like the reference's application.js: the client sends its
    uploadId as the first text frame after the upgrade."""
    import socket

    from excelastic_ray.web import ImportServer

    srv = ImportServer(str(tmp_path / "wsidx2")).start()
    try:
        sock = socket.create_connection(("127.0.0.1", srv.port), timeout=30)
        _ws_handshake(sock, srv.port, "/ws")
        # send masked text frame "nope" (clients MUST mask)
        mask = b"\x01\x02\x03\x04"
        data = bytes(b ^ mask[i % 4] for i, b in enumerate(b"nope"))
        sock.sendall(bytes([0x81, 0x80 | len(data)]) + mask + data)
        frames = [
            json.loads(p)
            for op, p in _ws_frames(sock, time.time() + 10)
            if op == 1
        ]
        sock.close()
        # unknown id → one error frame, then close
        assert len(frames) == 1 and "error" in frames[0]
    finally:
        srv.stop()


def test_list_indices(ray_session, tmp_path):
    from excelastic_ray.web import ImportServer

    srv = ImportServer(str(tmp_path / "multi")).start()
    base = f"http://127.0.0.1:{srv.port}"
    try:
        payload = open(f"{FIXTURES}/test.csv", "rb").read()
        for name in (b"alpha", b"beta"):
            status, resp = _post_multipart(
                base + "/api/upload",
                {"index": name, "options": b"clear", "offset": b"1"},
                ("file", "test.csv", payload),
            )
            assert status == 200
            imp_id = resp["id"]
            deadline = time.time() + 60
            while time.time() < deadline:
                _, body = _get(base + f"/api/status?id={imp_id}")
                if json.loads(body)["status"] in ("complete", "error"):
                    break
                time.sleep(0.2)
        status, body = _get(base + "/api/indices")
        got = json.loads(body)["indices"]
        assert [i["index"] for i in got] == ["alpha", "beta"]
        assert all(i["status"] == "complete" and i["n_docs"] == 2
                   for i in got)
    finally:
        srv.stop()


def test_analyze_endpoint(ray_session, tmp_path):
    """ES _analyze analog: the index-time analyzer over arbitrary text."""
    from excelastic_ray.web import ImportServer

    srv = ImportServer(str(tmp_path / "idx_an")).start()
    try:
        _, body = _get(
            f"http://127.0.0.1:{srv.port}/api/analyze?q=Hello%2C+World_42%21"
        )
        assert json.loads(body) == {
            "tokens": ["hello", "world_42"], "analyzer": "standard"
        }
    finally:
        srv.stop()


def test_analyze_endpoint_uses_index_analyzer(ray_session, tmp_path):
    """?index= applies THAT index's configured analyzer (round-4 review
    fix: an english-mapping index previously analyzed with standard)."""
    import ray.data as rd

    from excelastic_ray.config import IndexConfig
    from excelastic_ray.corpus import generate_transcripts
    from excelastic_ray.index.build import build_index
    from excelastic_ray.web import ImportServer

    root = str(tmp_path / "an_en")
    build_index(
        rd.from_arrow(generate_transcripts(n_convs=4, seed=1)),
        f"{root}/en",
        IndexConfig(turn_bits=8, convs_per_chunk_bits=2, num_shards=1,
                    analyzer="english"),
        clear=True,
    )
    srv = ImportServer(root).start()
    try:
        _, body = _get(
            f"http://127.0.0.1:{srv.port}/api/analyze"
            f"?q=running+the+tests&index=en"
        )
        assert json.loads(body) == {
            "tokens": ["run", "test"], "analyzer": "english"
        }
    finally:
        srv.stop()


def test_count_and_mget_endpoints(ray_session, tmp_path):
    """ES _count and _mget analogs over HTTP."""
    import ray.data as rd

    from excelastic_ray.config import IndexConfig
    from excelastic_ray.corpus import generate_transcripts
    from excelastic_ray.index.build import build_index
    from excelastic_ray.web import ImportServer

    root = str(tmp_path / "cm")
    build_index(
        rd.from_arrow(generate_transcripts(n_convs=10, seed=2)),
        f"{root}/a",
        IndexConfig(turn_bits=8, convs_per_chunk_bits=3, num_shards=2),
        clear=True,
    )
    srv = ImportServer(root).start()
    base = f"http://127.0.0.1:{srv.port}"
    try:
        _, body = _get(base + "/api/count?index=a&q=the")
        n = json.loads(body)["count"]
        _, body = _get(base + "/api/search?index=a&q=the&k=100000")
        assert n == len(json.loads(body)["hits"]) > 0

        _, body = _get(
            base + "/api/mget?index=a&ids=conv-000003:1,conv-999999:0"
        )
        docs = json.loads(body)["docs"]
        assert docs[0]["found"] and "text" in docs[0]
        assert docs[0]["conv_id"] == "conv-000003"
        assert not docs[1]["found"]
    finally:
        srv.stop()


def test_complete_endpoint(ray_session, tmp_path):
    import ray.data as rd

    from excelastic_ray.config import IndexConfig
    from excelastic_ray.corpus import generate_transcripts
    from excelastic_ray.index.build import build_index
    from excelastic_ray.web import ImportServer

    root = str(tmp_path / "cp")
    build_index(
        rd.from_arrow(generate_transcripts(n_convs=10, seed=2)),
        f"{root}/a",
        IndexConfig(turn_bits=8, convs_per_chunk_bits=3, num_shards=2),
        clear=True,
    )
    srv = ImportServer(root).start()
    try:
        _, body = _get(
            f"http://127.0.0.1:{srv.port}/api/complete?index=a&q=w0&k=5"
        )
        comps = json.loads(body)["completions"]
        assert comps and all(c["term"].startswith("w0") for c in comps)
        assert [c["df"] for c in comps] == sorted(
            (c["df"] for c in comps), reverse=True
        )
    finally:
        srv.stop()


def test_search_mode_params_over_http(ray_session, tmp_path):
    """fields / sort_ts / fuzzy / syn search modes through the HTTP
    surface match the engine's direct results."""
    import ray.data as rd

    from excelastic_ray.config import IndexConfig
    from excelastic_ray.corpus import generate_transcripts
    from excelastic_ray.index.build import build_index
    from excelastic_ray.query.engine import QueryEngine
    from excelastic_ray.web import ImportServer

    root = str(tmp_path / "modes")
    idx = f"{root}/a"
    build_index(
        rd.from_arrow(generate_transcripts(n_convs=15, seed=4)),
        idx,
        IndexConfig(turn_bits=8, convs_per_chunk_bits=3, num_shards=2,
                    field_index_fields=("role",)),
        clear=True,
    )
    eng = QueryEngine(idx)
    srv = ImportServer(root).start()
    base = f"http://127.0.0.1:{srv.port}"

    def hits(params):
        _, body = _get(base + f"/api/search?index=a&{params}")
        return [(h["docid"], h["score"])
                for h in json.loads(body)["hits"]]

    try:
        want = eng.search_fields("user the", ["role", "text"], k=5)
        assert hits("q=user+the&k=5&fields=role,text") == list(
            zip(want["docid"].to_pylist(), want["score"].to_pylist())
        )
        want = eng.search_sorted("the", 5, order="desc")
        _, body = _get(base + "/api/search?index=a&q=the&k=5&sort_ts=1")
        got_ids = [h["docid"] for h in json.loads(body)["hits"]]
        assert got_ids == want["docid"].to_pylist()
        want = eng.search_fuzzy("teh", 5, fuzziness=1)
        assert hits("q=teh&k=5&fuzzy=1") == list(
            zip(want["docid"].to_pylist(), want["score"].to_pylist())
        )
        want = eng.search_synonyms("run", {"run": ["call"]}, 5)
        assert hits("q=run&k=5&syn=run%3Dcall") == list(
            zip(want["docid"].to_pylist(), want["score"].to_pylist())
        )
        # phrase_prefix=1: ES match_phrase_prefix (search-as-you-type)
        want = eng.search_phrase_prefix("the us", 5)
        assert hits("q=the+us&k=5&phrase_prefix=1") == list(
            zip(want["docid"].to_pylist(), want["score"].to_pylist())
        )
        # highlight=1: plain search with the <em>-wrapped source text
        want = eng.search("the", 5, include_source=True, highlight=True)
        _, body = _get(base + "/api/search?index=a&q=the&k=5&highlight=1")
        got = json.loads(body)["hits"]
        assert [h["highlight"] for h in got] == want[
            "highlight"].to_pylist()
        assert all("<em>" in h["highlight"] for h in got)
        # explain=conv:turn: per-term BM25 breakdown of that doc
        top = eng.search("the", 1)
        conv = top["conv_id"][0].as_py()
        turn = top["turn_idx"][0].as_py()
        _, body = _get(
            base + f"/api/search?index=a&q=the&k=1&explain={conv}:{turn}"
        )
        ex = json.loads(body)
        direct = eng.explain("the", eng.reader.docid_of(conv, int(turn)))
        assert ex["matched"] is True
        assert ex["score"] == direct["score"]
        assert ex["terms"] == direct["terms"]
    finally:
        srv.stop()


def _req(url: str, method: str, body: bytes | None = None):
    req = urllib.request.Request(url, data=body, method=method)
    if body is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read())


def test_doc_crud_endpoints(ray_session, tmp_path):
    """ES single-doc _index/_delete over HTTP: create, search, refuse
    duplicate create, overwrite, tombstone, 404 on re-delete."""
    from excelastic_ray.web import ImportServer

    srv = ImportServer(str(tmp_path / "indexes")).start()
    base = f"http://127.0.0.1:{srv.port}"
    try:
        payload = open(
            f"{FIXTURES}/test.csv", "rb"
        ).read()
        status, resp = _post_multipart(
            base + "/api/upload",
            {"index": b"crudidx", "options": b"clear", "offset": b"1"},
            ("file", "test.csv", payload),
        )
        assert status == 200, resp
        for _ in range(200):
            status, s = _get(base + f"/api/status?id={resp['id']}")
            if json.loads(s)["status"] in ("complete", "error"):
                break
            time.sleep(0.1)
        assert json.loads(s)["status"] == "complete"

        doc = {"conv_id": "crudconv", "turn_idx": 0, "role": "user",
               "text": "zebra quagga sentinel"}
        status, r = _req(
            base + "/api/doc?index=crudidx", "POST",
            json.dumps(doc).encode(),
        )
        assert status == 200 and r["result"] == "created", r

        status, hits = _get(base + "/api/search?index=crudidx&q=quagga")
        hits = json.loads(hits)["hits"]
        assert len(hits) == 1
        assert hits[0]["conv_id"] == "crudconv"

        # duplicate create refused; overwrite allowed
        status, r = _req(
            base + "/api/doc?index=crudidx", "POST",
            json.dumps(doc).encode(),
        )
        assert status == 400
        doc["text"] = "zebra okapi rewritten"
        status, r = _req(
            base + "/api/doc?index=crudidx&overwrite=true", "POST",
            json.dumps(doc).encode(),
        )
        assert status == 200 and r["result"] == "updated"
        status, hits = _get(base + "/api/search?index=crudidx&q=okapi")
        assert len(json.loads(hits)["hits"]) == 1
        status, hits = _get(base + "/api/search?index=crudidx&q=quagga")
        assert len(json.loads(hits)["hits"]) == 0

        # delete → gone; re-delete → 404
        status, r = _req(
            base + "/api/doc?index=crudidx&conv_id=crudconv&turn_idx=0",
            "DELETE",
        )
        assert status == 200 and r["result"] == "deleted"
        status, hits = _get(base + "/api/search?index=crudidx&q=okapi")
        assert len(json.loads(hits)["hits"]) == 0
        status, r = _req(
            base + "/api/doc?index=crudidx&conv_id=crudconv&turn_idx=0",
            "DELETE",
        )
        assert status == 404
    finally:
        srv.stop()


def test_doc_update_endpoint(ray_session, tmp_path):
    """ES single-doc _update over HTTP: attr overlay reflects in
    filtered search; unknown doc is a 404."""
    from excelastic_ray.web import ImportServer

    srv = ImportServer(str(tmp_path / "indexes")).start()
    base = f"http://127.0.0.1:{srv.port}"
    try:
        payload = open(
            f"{FIXTURES}/test.csv", "rb"
        ).read()
        status, resp = _post_multipart(
            base + "/api/upload",
            {"index": b"updidx", "options": b"clear", "offset": b"1"},
            ("file", "test.csv", payload),
        )
        assert status == 200, resp
        for _ in range(200):
            status, s = _get(base + f"/api/status?id={resp['id']}")
            if json.loads(s)["status"] in ("complete", "error"):
                break
            time.sleep(0.1)
        assert json.loads(s)["status"] == "complete"
        status, r = _req(
            base + "/api/doc?index=updidx", "POST",
            json.dumps({"conv_id": "u1", "turn_idx": 0, "role": "user",
                        "text": "pangolin text"}).encode(),
        )
        assert status == 200
        status, r = _req(
            base + "/api/doc/update?index=updidx&conv_id=u1&turn_idx=0",
            "POST", json.dumps({"role": "assistant"}).encode(),
        )
        assert status == 200 and r["result"] == "updated"
        # the overlay is a doc-values update: FILTER context sees the
        # new value (the stored _source keeps the original, Lucene's
        # updatable-DV contract — the documented ES deviation)
        from excelastic_ray.query.engine import QueryEngine

        eng = QueryEngine(str(tmp_path / "indexes" / "updidx"))
        t = eng.search("pangolin", k=5, filters={"role": "assistant"})
        assert t.num_rows == 1
        t = eng.search("pangolin", k=5, filters={"role": "user"})
        assert t.num_rows == 0
        status, r = _req(
            base + "/api/doc/update?index=updidx&conv_id=ghost&turn_idx=0",
            "POST", json.dumps({"role": "x"}).encode(),
        )
        assert status == 404
    finally:
        srv.stop()


def test_scroll_api(ray_session, tmp_path):
    """ES scroll analog: open → page until short page → pages
    concatenated equal one deep search; clear releases the context."""
    import ray.data as rd

    from excelastic_ray.config import IndexConfig
    from excelastic_ray.corpus import generate_transcripts
    from excelastic_ray.index.build import build_index
    from excelastic_ray.query.engine import QueryEngine
    from excelastic_ray.web import ImportServer

    root = str(tmp_path / "scroll")
    idx = f"{root}/a"
    build_index(
        rd.from_arrow(generate_transcripts(n_convs=15, seed=4)),
        idx,
        IndexConfig(turn_bits=8, convs_per_chunk_bits=3, num_shards=2),
        clear=True,
    )
    eng = QueryEngine(idx)
    # pick a term matching comfortably more than one page
    q = "the"
    total = eng.count(q)
    assert total > 7
    srv = ImportServer(root).start()
    try:
        base = f"http://127.0.0.1:{srv.port}"
        _, body = _get(base + f"/api/search?index=a&q={q}&k=5&scroll=1")
        page = json.loads(body)
        sid = page["scroll_id"]
        got = [(h["docid"], h["score"]) for h in page["hits"]]
        for _ in range(1000):
            _, body = _get(base + f"/api/scroll?scroll_id={sid}")
            hits = json.loads(body)["hits"]
            got.extend((h["docid"], h["score"]) for h in hits)
            if len(hits) < 5:
                break
        deep = eng.search(q, k=total + 10)
        want = list(zip(deep["docid"].to_pylist(),
                        deep["score"].to_pylist()))
        assert got == want
        # a further pull on the exhausted scroll returns empty, not 500
        _, body = _get(base + f"/api/scroll?scroll_id={sid}")
        assert json.loads(body)["hits"] == []
        # clear releases; a second clear reports released=False
        req = urllib.request.Request(
            base + f"/api/scroll?scroll_id={sid}", method="DELETE"
        )
        with urllib.request.urlopen(req) as r:
            assert json.loads(r.read())["released"] is True
        with urllib.request.urlopen(req) as r:
            assert json.loads(r.read())["released"] is False
    finally:
        srv.stop()


def test_index_templates_apply_on_creation(ray_session, tmp_path):
    """ES index templates: PUT a template (english mapping for
    logs-*), an upload CREATING a matching index inherits the mapping,
    an explicit param overrides it, an existing index keeps its
    manifest settings, and list/delete round-trip."""
    from excelastic_ray.web import ImportServer

    srv = ImportServer(str(tmp_path / "tpl")).start()
    base = f"http://127.0.0.1:{srv.port}"

    def put_template(name, body):
        req = urllib.request.Request(
            base + f"/api/template?name={name}",
            data=json.dumps(body).encode(),
            method="PUT",
        )
        with urllib.request.urlopen(req) as r:
            return json.loads(r.read())

    def wait(imp_id):
        for _ in range(300):
            _, out = _get(base + f"/api/status?id={imp_id}")
            rec = json.loads(out)
            if rec["status"] in ("complete", "error"):
                return rec
            time.sleep(0.2)
        raise TimeoutError

    def upload(index, extra=None):
        payload = open(
            f"{FIXTURES}/test.csv", "rb"
        ).read()
        fields = {"index": index.encode(), "options": b"add",
                  "offset": b"1"}
        fields.update(extra or {})
        _, resp = _post_multipart(
            base + "/api/upload", fields, ("file", "test.csv", payload)
        )
        rec = wait(resp["id"])
        assert rec["status"] == "complete", rec

    def analyzer_of(index):
        _, body = _get(base + f"/api/analyze?q=running+tests&index={index}")
        return json.loads(body)["analyzer"]

    try:
        # unknown mapping name fails the PUT itself
        req = urllib.request.Request(
            base + "/api/template?name=bad",
            data=json.dumps({"index_patterns": ["x-*"],
                             "mapping": "nope"}).encode(),
            method="PUT",
        )
        try:
            urllib.request.urlopen(req)
            raise AssertionError("expected 400")
        except urllib.error.HTTPError as e:
            assert e.code == 400

        assert put_template(
            "logs", {"index_patterns": ["logs-*"], "mapping": "english"}
        ) == {"acknowledged": True, "name": "logs"}

        upload("logs-1")
        assert analyzer_of("logs-1") == "english"

        # explicit param beats the template
        upload("logs-2", {"mapping": b"fielded"})
        assert analyzer_of("logs-2") == "standard"

        # existing index: the template does NOT re-apply on append
        upload("other")
        assert analyzer_of("other") == "standard"
        assert put_template(
            "all", {"index_patterns": ["*"], "mapping": "english"}
        )["acknowledged"]
        upload("other")  # append into the existing standard index
        assert analyzer_of("other") == "standard"

        _, body = _get(base + "/api/templates")
        assert set(json.loads(body)["templates"]) == {"logs", "all"}
        req = urllib.request.Request(
            base + "/api/template?name=all", method="DELETE"
        )
        with urllib.request.urlopen(req) as r:
            assert json.loads(r.read())["acknowledged"] is True
        _, body = _get(base + "/api/templates")
        assert set(json.loads(body)["templates"]) == {"logs"}
    finally:
        srv.stop()


def test_field_caps_and_msearch(ray_session, tmp_path):
    """ES _field_caps (per-field type/searchable/aggregatable, alias
    union) and _msearch (NDJSON pairs, item-scoped errors)."""
    import ray.data as rd

    from excelastic_ray.config import IndexConfig
    from excelastic_ray.corpus import generate_transcripts
    from excelastic_ray.index.build import build_index
    from excelastic_ray.web import ImportServer

    root = str(tmp_path / "caps")
    build_index(
        rd.from_arrow(generate_transcripts(n_convs=6, seed=2)),
        f"{root}/a",
        IndexConfig(turn_bits=8, convs_per_chunk_bits=2, num_shards=1,
                    field_index_fields=("role",)),
        clear=True,
    )
    build_index(
        rd.from_arrow(generate_transcripts(n_convs=4, seed=3)),
        f"{root}/b",
        IndexConfig(turn_bits=8, convs_per_chunk_bits=2, num_shards=1,
                    analyzer="english"),
        clear=True,
    )
    srv = ImportServer(root).start()
    try:
        base = f"http://127.0.0.1:{srv.port}"
        _, body = _get(base + "/api/field_caps?index=a")
        caps = json.loads(body)
        assert caps["indices"] == ["a"]
        f = caps["fields"]
        assert f["text"] == {"type": "text", "searchable": True,
                             "aggregatable": False, "analyzer": "standard"}
        assert f["role"]["type"] == "keyword" and f["role"]["searchable"]
        assert f["ts"]["type"] == "date"
        assert f["turn_idx"]["type"] == "integer"

        nd = "\n".join([
            json.dumps({"index": "a"}), json.dumps({"q": "the", "k": 3}),
            json.dumps({"index": "nope"}), json.dumps({"q": "x"}),
            json.dumps({"index": "a"}), json.dumps({"q": "the", "k": 2}),
        ])
        req = urllib.request.Request(
            base + "/api/msearch", data=nd.encode(), method="POST"
        )
        with urllib.request.urlopen(req) as r:
            resp = json.loads(r.read())["responses"]
        assert len(resp) == 3
        assert len(resp[0]["hits"]) == 3
        assert "error" in resp[1]
        assert len(resp[2]["hits"]) == 2
    finally:
        srv.stop()


def test_search_dsl_over_http(ray_session, tmp_path):
    """POST /api/search with a JSON query-DSL body == engine direct."""
    import ray.data as rd

    from excelastic_ray.config import IndexConfig
    from excelastic_ray.corpus import generate_transcripts
    from excelastic_ray.index.build import build_index
    from excelastic_ray.query.engine import QueryEngine
    from excelastic_ray.web import ImportServer

    root = str(tmp_path / "dsl")
    idx = f"{root}/a"
    build_index(
        rd.from_arrow(generate_transcripts(n_convs=10, seed=7)),
        idx,
        IndexConfig(turn_bits=8, convs_per_chunk_bits=2, num_shards=2),
        clear=True,
    )
    eng = QueryEngine(idx)
    q = {"bool": {"must": [{"match": "the"}],
                  "should": [{"match": "for with"}],
                  "must_not": [{"match": "zz_nope"}]}}
    srv = ImportServer(root).start()
    try:
        req = urllib.request.Request(
            f"http://127.0.0.1:{srv.port}/api/search?index=a",
            data=json.dumps({"query": q, "k": 7}).encode(),
            method="POST",
        )
        with urllib.request.urlopen(req) as r:
            hits = json.loads(r.read())["hits"]
        want = eng.search_dsl(q, 7).to_pylist()
        assert hits == want and len(hits) > 0
    finally:
        srv.stop()


def test_span_queries_over_http(ray_session, tmp_path):
    """span_first / span_near / span_not GET params match the engine."""
    import ray.data as rd

    from excelastic_ray.config import IndexConfig
    from excelastic_ray.corpus import generate_transcripts
    from excelastic_ray.index.build import build_index
    from excelastic_ray.query.engine import QueryEngine
    from excelastic_ray.web import ImportServer

    root = str(tmp_path / "span")
    idx = f"{root}/a"
    build_index(
        rd.from_arrow(generate_transcripts(n_convs=10, seed=3)),
        idx,
        IndexConfig(turn_bits=8, convs_per_chunk_bits=2, num_shards=2),
        clear=True,
    )
    eng = QueryEngine(idx)
    srv = ImportServer(root).start()
    try:
        base = f"http://127.0.0.1:{srv.port}"

        def hits(params):
            _, body = _get(base + f"/api/search?index=a&{params}")
            return json.loads(body)["hits"]

        assert hits("q=the&span_first=2") == eng.search_span_first(
            "the", 2, 10
        ).to_pylist()
        assert hits("q=the+and&span_near=1") == eng.search_span_near(
            "the and", slop=1, k=10
        ).to_pylist()
        assert hits("q=the&span_not=and:1") == eng.search_span_not(
            "the", "and", dist=1, k=10
        ).to_pylist()
    finally:
        srv.stop()


def test_rollover_api(ray_session, tmp_path):
    """ES _rollover: condition check, atomic alias swap, sequence
    naming, template application on the rolled index's first import."""
    import ray.data as rd

    from excelastic_ray.config import IndexConfig
    from excelastic_ray.corpus import generate_transcripts
    from excelastic_ray.index.build import build_index
    from excelastic_ray.web import ImportServer

    root = str(tmp_path / "roll")
    build_index(
        rd.from_arrow(generate_transcripts(n_convs=8, seed=5)),
        f"{root}/logs-000001",
        IndexConfig(turn_bits=8, convs_per_chunk_bits=2, num_shards=1),
        clear=True,
    )
    srv = ImportServer(root).start()
    try:
        base = f"http://127.0.0.1:{srv.port}"
        req = urllib.request.Request(
            base + "/api/aliases",
            data=json.dumps({"actions": [
                {"add": {"alias": "logs", "index": "logs-000001"}}
            ]}).encode(),
            method="POST",
        )
        urllib.request.urlopen(req).read()

        def post(url):
            req = urllib.request.Request(url, data=b"", method="POST")
            with urllib.request.urlopen(req) as r:
                return r.read()

        # condition not met -> no rollover
        body = post(base + "/api/rollover?alias=logs&max_docs=100000")
        r = json.loads(body)
        assert r == {"rolled_over": False, "old_index": "logs-000001",
                     "doc_count": r["doc_count"]}

        # unconditional rollover swaps the alias to logs-000002
        body = post(base + "/api/rollover?alias=logs")
        r = json.loads(body)
        assert r["rolled_over"] and r["new_index"] == "logs-000002"
        _, body = _get(base + "/api/aliases")
        assert json.loads(body)["aliases"]["logs"]["indices"] == ["logs-000002"]

        # a template matching logs-* applies on the rolled index's
        # first import (placeholder manifest is not "created")
        req = urllib.request.Request(
            base + "/api/template?name=logs",
            data=json.dumps({"index_patterns": ["logs-*"],
                             "mapping": "english"}).encode(),
            method="PUT",
        )
        urllib.request.urlopen(req).read()
        payload = open(
            f"{FIXTURES}/test.csv", "rb"
        ).read()
        _, resp = _post_multipart(
            base + "/api/upload",
            {"index": b"logs", "options": b"add", "offset": b"1"},
            ("file", "test.csv", payload),
        )
        for _ in range(300):
            _, out = _get(base + f"/api/status?id={resp['id']}")
            rec = json.loads(out)
            if rec["status"] in ("complete", "error"):
                break
            time.sleep(0.2)
        assert rec["status"] == "complete", rec
        _, body = _get(base + "/api/analyze?q=running+tests&index=logs-000002")
        assert json.loads(body)["analyzer"] == "english"
        # old index still searchable by concrete name
        _, body = _get(base + "/api/search?index=logs-000001&q=the&k=3")
        assert len(json.loads(body)["hits"]) > 0
    finally:
        srv.stop()


def test_search_template_over_http(ray_session, tmp_path):
    """POST /api/search/template: mustache render + DSL exec == engine
    direct; missing params are a 400, not a silent empty render."""
    import ray.data as rd

    from excelastic_ray.config import IndexConfig
    from excelastic_ray.corpus import generate_transcripts
    from excelastic_ray.index.build import build_index
    from excelastic_ray.query.engine import QueryEngine
    from excelastic_ray.web import ImportServer

    root = str(tmp_path / "tpl")
    idx = f"{root}/a"
    build_index(
        rd.from_arrow(generate_transcripts(n_convs=10, seed=11)),
        idx,
        IndexConfig(turn_bits=8, convs_per_chunk_bits=2, num_shards=2),
        clear=True,
    )
    eng = QueryEngine(idx)
    tpl = '{"bool": {"must": [{"match": "{{q}}"}]}}'
    srv = ImportServer(root).start()
    try:
        base = f"http://127.0.0.1:{srv.port}"
        req = urllib.request.Request(
            base + "/api/search/template?index=a",
            data=json.dumps(
                {"source": tpl, "params": {"q": "the"}, "k": 6}
            ).encode(),
            method="POST",
        )
        with urllib.request.urlopen(req) as r:
            hits = json.loads(r.read())["hits"]
        want = eng.search_dsl(
            {"bool": {"must": [{"match": "the"}]}}, 6
        ).to_pylist()
        assert hits == want and len(hits) > 0

        req = urllib.request.Request(
            base + "/api/search/template?index=a",
            data=json.dumps({"source": tpl, "params": {}}).encode(),
            method="POST",
        )
        status, body = _req_status(req)
        assert status == 400 and "missing param" in body
    finally:
        srv.stop()


def _req_status(req) -> tuple[int, str]:
    import urllib.error

    try:
        with urllib.request.urlopen(req) as r:
            return r.status, r.read().decode()
    except urllib.error.HTTPError as e:
        return e.code, e.read().decode()


def test_round5_search_params_over_http(ray_session, tmp_path):
    """min_score / fuzzy completion / script_fields through the HTTP
    surface match the engine's direct results."""
    import ray.data as rd

    from excelastic_ray.config import IndexConfig
    from excelastic_ray.corpus import generate_transcripts
    from excelastic_ray.index.build import build_index
    from excelastic_ray.query.engine import QueryEngine
    from excelastic_ray.web import ImportServer

    root = str(tmp_path / "r5")
    idx = f"{root}/a"
    build_index(
        rd.from_arrow(generate_transcripts(n_convs=10, seed=2)),
        idx,
        IndexConfig(turn_bits=8, convs_per_chunk_bits=3, num_shards=2),
        clear=True,
    )
    eng = QueryEngine(idx)
    srv = ImportServer(root).start()
    base = f"http://127.0.0.1:{srv.port}"
    try:
        # min_score: pick a threshold inside the score range
        full = eng.search("the call", k=20)
        thr = float(full["score"].to_numpy()[min(5, full.num_rows - 1)])
        _, body = _get(
            base + f"/api/search?index=a&q=the+call&k=20&min_score={thr}"
        )
        hits = json.loads(body)["hits"]
        exp = eng.search("the call", k=20, min_score=thr)
        assert [h["docid"] for h in hits] == exp["docid"].to_pylist()

        # fuzzy completion
        _, body = _get(
            base + "/api/complete?index=a&q=w1&k=5&fuzziness=1"
            "&prefix_length=1"
        )
        comps = json.loads(body)["completions"]
        exp = eng.complete_fuzzy("w1", k=5, fuzziness=1, prefix_length=1)
        assert [c["term"] for c in comps] == exp["term"].to_pylist()
        assert [c["dist"] for c in comps] == exp["dist"].to_pylist()

        # script_fields via the POST body (ES nested script shape)
        req = urllib.request.Request(
            base + "/api/search?index=a",
            data=json.dumps(
                {
                    "q": "the call",
                    "k": 5,
                    "script_fields": {
                        "dl_ln": {"script": {"source": "ln(dl)"}},
                        "sw": "_score * w",
                    },
                    "params": {"w": 2.0},
                }
            ).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req) as r:
            hits = json.loads(r.read())["hits"]
        exp = eng.search_script_fields(
            "the call", {"dl_ln": "ln(dl)", "sw": "_score * w"},
            k=5, params={"w": 2.0},
        )
        assert [h["dl_ln"] for h in hits] == exp["dl_ln"].to_pylist()
        assert [h["sw"] for h in hits] == exp["sw"].to_pylist()
    finally:
        srv.stop()


def test_filtered_alias_over_http(ray_session, tmp_path):
    """Searching/counting through a filtered alias applies the alias's
    filter; special query modes through it refuse."""
    import ray.data as rd

    from excelastic_ray.config import IndexConfig
    from excelastic_ray.corpus import generate_transcripts
    from excelastic_ray.index.build import build_index
    from excelastic_ray.index.snapshot import update_aliases
    from excelastic_ray.query.engine import QueryEngine
    from excelastic_ray.web import ImportServer

    root = str(tmp_path / "falias")
    idx = f"{root}/a"
    build_index(
        rd.from_arrow(generate_transcripts(n_convs=12, seed=2)),
        idx,
        IndexConfig(turn_bits=8, convs_per_chunk_bits=3, num_shards=2),
        clear=True,
    )
    update_aliases(root, [{"add": {"alias": "users", "index": "a",
                                   "filter": {"role": "user"}}}])
    eng = QueryEngine(idx)
    srv = ImportServer(root).start()
    base = f"http://127.0.0.1:{srv.port}"
    try:
        _, body = _get(base + "/api/search?index=users&q=the+call&k=20")
        hits = json.loads(body)["hits"]
        exp = eng.search("the call", k=20, filters={"role": "user"})
        assert [h["docid"] for h in hits] == exp["docid"].to_pylist()
        assert hits and all(h["role"] == "user" for h in hits)

        _, body = _get(base + "/api/count?index=users&q=the")
        assert json.loads(body)["count"] == eng.count(
            "the", filters={"role": "user"})

        # special modes through a filtered alias refuse loudly
        try:
            _get(base + "/api/search?index=users&q=the+call&phrase=1")
            raise AssertionError("expected HTTP 500")
        except urllib.error.HTTPError as e:
            assert e.code == 500
            assert b"plain relevance" in e.read()
    finally:
        srv.stop()


def test_pit_over_http(ray_session, tmp_path):
    """ES _pit over HTTP: open a point-in-time, mutate via the doc
    DELETE endpoint, and verify pit-routed searches keep serving the
    pre-mutation state while plain searches see the new one."""
    import ray.data as rd

    from excelastic_ray.config import IndexConfig
    from excelastic_ray.corpus import generate_transcripts
    from excelastic_ray.index.build import build_index
    from excelastic_ray.web import ImportServer

    root = str(tmp_path / "pitroot")
    build_index(
        rd.from_arrow(generate_transcripts(n_convs=12, seed=5)),
        f"{root}/p",
        IndexConfig(turn_bits=8, convs_per_chunk_bits=3, num_shards=2),
        clear=True,
    )
    srv = ImportServer(root).start()
    base = f"http://127.0.0.1:{srv.port}"
    try:
        _, body = _get(base + "/api/search?index=p&q=the+tool+run&k=50")
        before = [h["docid"] for h in json.loads(body)["hits"]]
        assert before

        _, body = _req(base + "/api/pit?index=p&keep_alive=600", "POST")
        pit_id = body["id"]
        assert pit_id.startswith("pit_")

        # tombstone the top hit via the single-doc DELETE endpoint
        _, hits_body = _get(base + "/api/search?index=p&q=the+tool+run")
        top = json.loads(hits_body)["hits"][0]
        status, _r = _req(
            base + f"/api/doc?index=p&conv_id={top['conv_id']}"
            f"&turn_idx={top['turn_idx']}", "DELETE")
        assert status == 200

        _, body = _get(base + "/api/search?index=p&q=the+tool+run&k=50")
        live = [h["docid"] for h in json.loads(body)["hits"]]
        assert top["docid"] not in live

        _, body = _get(
            base + f"/api/search?index=p&q=the+tool+run&k=50&pit={pit_id}")
        pinned = [h["docid"] for h in json.loads(body)["hits"]]
        assert pinned == before  # the PIT still serves the old state

        status, body = _req(
            base + f"/api/pit?index=p&id={pit_id}", "DELETE")
        assert status == 200

        # a garbage pit id surfaces as an error, not a crash
        try:
            _get(base + "/api/search?index=p&q=the&pit=bogus")
            raise AssertionError("expected HTTP 500")
        except urllib.error.HTTPError as e:
            assert e.code == 500
    finally:
        srv.stop()


def test_terms_enum_endpoint(ray_session, tmp_path):
    import ray.data as rd

    from excelastic_ray.config import IndexConfig
    from excelastic_ray.corpus import generate_transcripts
    from excelastic_ray.index.build import build_index
    from excelastic_ray.query.engine import QueryEngine
    from excelastic_ray.web import ImportServer

    root = str(tmp_path / "te")
    build_index(
        rd.from_arrow(generate_transcripts(n_convs=10, seed=2)),
        f"{root}/a",
        IndexConfig(turn_bits=8, convs_per_chunk_bits=3, num_shards=2),
        clear=True,
    )
    eng = QueryEngine(f"{root}/a")
    srv = ImportServer(root).start()
    try:
        base = f"http://127.0.0.1:{srv.port}/api/terms_enum?index=a"
        _, body = _get(base + "&string=w0&size=6")
        got = json.loads(body)
        assert got["complete"] is True
        assert got["terms"] == eng.terms_enum(
            "w0", size=6)["term"].to_pylist()
        # pagination + case-insensitive params route through
        after = got["terms"][-1]
        _, body2 = _get(
            base + f"&string=W0&size=6&case_insensitive=1"
            f"&search_after={after}"
        )
        assert json.loads(body2)["terms"] == eng.terms_enum(
            "w0", size=6, search_after=after)["term"].to_pylist()
    finally:
        srv.stop()


def test_async_search_endpoints(ray_session, tmp_path):
    """ES _async_search over HTTP: submit returns an id immediately,
    polling converges to the synchronous /api/search response, unknown
    params refuse up front, unknown ids 404, delete acknowledges."""
    import time

    import ray.data as rd

    from excelastic_ray.config import IndexConfig
    from excelastic_ray.corpus import generate_transcripts
    from excelastic_ray.index.build import build_index
    from excelastic_ray.web import ImportServer

    root = str(tmp_path / "as")
    build_index(
        rd.from_arrow(generate_transcripts(n_convs=10, seed=2)),
        f"{root}/a",
        IndexConfig(turn_bits=8, convs_per_chunk_bits=3, num_shards=2),
        clear=True,
    )
    srv = ImportServer(root).start()
    try:
        base = f"http://127.0.0.1:{srv.port}"
        code, sub = _req(
            base + "/api/async_search?index=a", "POST",
            json.dumps({"q": "w1 the", "k": 5}).encode(),
        )
        assert code == 200 and sub["is_running"] is True and sub["id"]
        for _ in range(200):
            code, got = _req(
                base + f"/api/async_search?id={sub['id']}", "GET")
            assert code == 200
            if not got["is_running"]:
                break
            time.sleep(0.05)
        assert got["error"] is None
        _, sync = _req(base + "/api/search?index=a&q=w1+the&k=5", "GET")
        assert got["response"] == sync

        # unknown params refuse at submit (no silent drops)
        code, bad = _req(
            base + "/api/async_search?index=a", "POST",
            json.dumps({"q": "w1", "nonsense": 1}).encode(),
        )
        assert code == 400 and "nonsense" in bad["error"]

        # unknown id 404s; delete acknowledges once
        code, _missing = _req(
            base + "/api/async_search?id=deadbeef", "GET")
        assert code == 404
        code, d1 = _req(
            base + f"/api/async_search?id={sub['id']}", "DELETE")
        assert code == 200 and d1["acknowledged"] is True
        code, d2 = _req(
            base + f"/api/async_search?id={sub['id']}", "DELETE")
        assert d2["acknowledged"] is False
        code, _gone = _req(
            base + f"/api/async_search?id={sub['id']}", "GET")
        assert code == 404
    finally:
        srv.stop()


def test_async_search_cap_evicts_completed_before_running(tmp_path):
    """Past the async-search cap the oldest COMPLETED context goes; a
    still-running search is evicted only when no completed one is
    stored, so a poller of a live search does not get a 404."""
    import threading

    from excelastic_ray.web import ImportServer

    srv = ImportServer(str(tmp_path / "root"))
    srv._async_cap = 2
    gates = {q: threading.Event() for q in ("slow", "slow2", "slow3")}

    def search(index, query):
        if query in gates:
            assert gates[query].wait(10)
        return {"hits": [query]}

    srv.search = search

    def submit(q: str) -> str:
        return srv.async_search_submit("a", {"q": q})["id"]

    def done(sid: str) -> dict:
        for _ in range(200):
            got = srv.async_search_get(sid)
            if not got["is_running"]:
                return got
            time.sleep(0.01)
        raise AssertionError(f"async search {sid} never completed")

    slow = submit("slow")
    fast = submit("fast")
    done(fast)
    fast2 = submit("fast2")  # over the cap: the completed "fast" goes
    assert srv.async_search_get(slow)["is_running"] is True
    with pytest.raises(KeyError):
        srv.async_search_get(fast)
    done(fast2)
    submit("slow2")  # over the cap again: the completed "fast2" goes
    with pytest.raises(KeyError):
        srv.async_search_get(fast2)
    # only running contexts left: the oldest running one goes
    submit("slow3")
    with pytest.raises(KeyError):
        srv.async_search_get(slow)
    for g in gates.values():
        g.set()
