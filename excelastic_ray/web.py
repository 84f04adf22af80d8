"""HTTP upload + progress surface — the ``Website`` verticle analog.

The reference serves a browser upload form, accepts multipart file
uploads, runs the import on a worker thread, and fans progress out over
a WebSocket (``/root/reference/src/main/java/com/codingchili/excelastic/
controller/Website.java:50-151`` + ``webroot/js/application.js``). The
stdlib re-expression:

- ``GET  /``                     minimal upload form (index.jade analog)
- ``POST /api/upload``           multipart upload → temp file → registry
                                 parser → ``build_index`` on a worker
                                 thread (``vertx.executeBlocking`` analog)
- ``GET  /api/status?id=...``    import progress — percent + the
                                 per-partition counters from
                                 ``build_status`` (the WebSocket progress
                                 fan-out re-expressed as polling; no
                                 websocket implementation in the stdlib)
- ``GET  /api/search?index=...&q=...&k=...``  BM25 top-k over a built
                                 index (the half the reference delegates
                                 to Elasticsearch/Kibana); ``index`` may
                                 be an alias (multi-target aliases fan
                                 out with combined stats)
- ``GET/POST /api/aliases``      ES ``_aliases`` analog: atomic
                                 add/remove batches (zero-downtime swap)
- ``POST /api/snapshot?name=...[&indices=a,b]``  hard-link snapshot of
                                 complete indices into the repo dir
- ``GET  /api/snapshots``        list committed snapshots
- ``POST /api/restore?name=...&index=...[&rename=...]``  all-or-nothing
                                 restore (ES ``_restore`` analog)
- ``POST /api/doc?index=...[&overwrite=true]``  single-doc index
                                 (ES ``PUT /<index>/_doc`` analog; JSON
                                 body = one turn; default op_type=create)
- ``DELETE /api/doc?index=...&conv_id=...&turn_idx=...``  single-doc
                                 tombstone (ES ``_delete``; 404 when
                                 absent or already deleted)
- ``POST /api/doc/update?index=...&conv_id=...&turn_idx=...``  attr
                                 overlay on one doc (ES ``_update``;
                                 JSON body = {attr: value})
- ``POST /api/bulk?index=...``   ES ``_bulk``: NDJSON action/doc lines
                                 (index/create/update/delete), ordered,
                                 per-item results; runs of NEW
                                 conversations batch into one append

Upload params mirror ``ImportEvent.fromParams`` (ImportEvent.java:40-48):
``index`` (required unless the server was started with ``index_lock``,
Configuration.java:130-132), ``offset`` (1-based title row, default 1),
``options`` = ``clear`` | ``add``. The whole-file validation-before-
import guarantee holds: ``build_index`` validates before any segment is
written, and a failed import reports ``error`` status without touching
a complete index.
"""

from __future__ import annotations

import io
import json
import os
import re
import tempfile
import threading
import traceback
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

_FORM = """<!doctype html><title>excelastic_ray</title>
<h2>excelastic_ray import</h2>
<form method="post" action="/api/upload" enctype="multipart/form-data">
  <p>file: <input type="file" name="file"></p>
  <p>index: <input type="text" name="index"></p>
  <p>offset: <input type="text" name="offset" value="1"></p>
  <p>pipeline: <input type="text" name="pipeline"></p>
  <p>mapping: <input type="text" name="mapping"></p>
  <p><label><input type="radio" name="options" value="clear" checked>
     Clear existing index</label>
     <label><input type="radio" name="options" value="add">
     Add to existing</label></p>
  <p><input type="submit" value="import"></p>
</form>"""


def _parse_multipart(body: bytes, content_type: str) -> dict[str, tuple[str, bytes]]:
    """Tiny multipart/form-data parser → {field: (filename, payload)}."""
    m = re.search(r'boundary="?([^";]+)"?', content_type)
    if not m:
        raise ValueError("multipart body without boundary")
    boundary = b"--" + m.group(1).encode()
    out: dict[str, tuple[str, bytes]] = {}
    for part in body.split(boundary)[1:]:
        part = part.strip(b"\r\n")
        if part in (b"", b"--"):
            continue
        head, _, payload = part.partition(b"\r\n\r\n")
        head_s = head.decode("utf-8", "replace")
        name_m = re.search(r'name="([^"]+)"', head_s)
        if not name_m:
            continue
        fn_m = re.search(r'filename="([^"]*)"', head_s)
        out[name_m.group(1)] = (
            fn_m.group(1) if fn_m else "",
            payload.rstrip(b"\r\n"),
        )
    return out


def _before_append(manifest: dict) -> dict:
    """The manifest an append in flight started from (an append writes
    it back with status ``appending`` and two keys of its own). The
    append only adds chunks and swaps shard files whole, so an engine
    over that manifest, every shard open, still serves the state before
    it, and searches need not fail while a bulk lands."""
    if manifest.get("status") != "appending":
        return manifest
    return {**{k: v for k, v in manifest.items()
               if k not in ("append_fingerprint", "append_base_chunks")},
            "status": "complete"}


class ImportServer:
    """Embeddable HTTP server over an index root directory.

    Imports run on daemon worker threads; their state lives in
    ``self.imports`` ({id: {status, index, rows, error}}) and on-disk
    progress comes from ``build_status`` — both surfaced by
    ``/api/status``.
    """

    def __init__(self, index_root: str, port: int = 0,
                 index_lock: str | None = None, config=None,
                 snapshot_repo: str | None = None):
        from excelastic_ray.config import IndexConfig

        self.index_root = index_root
        self.index_lock = index_lock
        # the ES "registered repository" — a sibling of the index root
        # by default so list_indices never mistakes it for an index
        self.snapshot_repo = snapshot_repo or (
            os.path.normpath(index_root) + "_snapshots"
        )
        self.config = config or IndexConfig()
        self.imports: dict[str, dict] = {}
        # one import at a time per index dir (concurrent builds into the
        # same directory would race on clear + manifests); different
        # indexes import concurrently like the reference's per-upload
        # worker threads
        self._index_locks: dict[str, threading.Lock] = {}
        self._locks_guard = threading.Lock()
        # one cached QueryEngine per index or alias (postings stay
        # resident across requests); _acquire_engine replaces an entry
        # whose manifest moved, so a write needs no eviction here
        self._engines: dict[str, object] = {}
        self._engines_guard = threading.Lock()
        # ES scroll contexts: id -> {index, query, k, cursor, done}.
        # State per context is ONE (score, docid) cursor (the engine's
        # stateless search_after does the actual paging), so an open
        # scroll costs O(1) memory; oldest contexts evict past the cap
        # (the ES keep-alive analog in a clock-free sandbox).
        self._scrolls: dict[str, dict] = {}
        self._scrolls_guard = threading.Lock()
        # ES async-search contexts: id -> {is_running, response,
        # error}. Searches run on daemon threads like imports; oldest
        # contexts evict past the cap (the keep-alive analog in a
        # clock-free sandbox, same rule as scroll contexts).
        self._async: dict[str, dict] = {}
        self._async_guard = threading.Lock()
        self._async_cap = 128
        self._templates_guard = threading.Lock()
        self._rollover_guard = threading.Lock()
        self._scroll_seq = 0
        self._scroll_cap = 128
        os.makedirs(index_root, exist_ok=True)
        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *a):  # quiet
                pass

            def _json(self, code: int, obj: dict) -> None:
                body = json.dumps(obj, default=str).encode()
                self.send_response(code)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            # -- minimal RFC6455 server push (Website.java:94-119) -----

            def _ws_send(self, text: str) -> None:
                data = text.encode()
                n = len(data)
                if n < 126:
                    head = bytes([0x81, n])
                elif n < 65536:
                    head = bytes([0x81, 126]) + n.to_bytes(2, "big")
                else:
                    head = bytes([0x81, 127]) + n.to_bytes(8, "big")
                self.wfile.write(head + data)
                self.wfile.flush()

            def _ws_read(self) -> tuple[int | None, bytes]:
                h = self.rfile.read(2)
                if len(h) < 2:
                    return None, b""
                op = h[0] & 0x0F
                masked = h[1] & 0x80
                n = h[1] & 0x7F
                if n == 126:
                    n = int.from_bytes(self.rfile.read(2), "big")
                elif n == 127:
                    n = int.from_bytes(self.rfile.read(8), "big")
                if n > 4096:
                    # the only expected client frame is a short upload
                    # id — never buffer an attacker-chosen length (the
                    # same pin-a-worker class bounded in xls.py)
                    return None, b""
                mask = self.rfile.read(4) if masked else b"\x00\x00\x00\x00"
                data = bytearray(self.rfile.read(n))
                for i in range(len(data)):
                    data[i] ^= mask[i % 4]
                return op, bytes(data)

            def _websocket(self, imp_id: str) -> None:
                """``GET /ws[?id=...]`` upgrade: pushes one JSON progress
                frame per tick until the import completes — the
                reference's per-socket progress fan-out
                (``Website.java:94-119`` + ``application.js:1-32``),
                with ``/api/status`` polling kept as the fallback. The
                import id comes from the query string or, like the
                reference's JS, from the client's first text frame."""
                import base64
                import hashlib
                import time as _time

                key = self.headers.get("Sec-WebSocket-Key")
                if not key or "websocket" not in (
                    self.headers.get("Upgrade", "").lower()
                ):
                    self._json(400, {"error": "not a websocket request"})
                    return
                accept = base64.b64encode(
                    hashlib.sha1(
                        (key + "258EAFA5-E914-47DA-95CA-C5AB0DC85B11").encode()
                    ).digest()
                ).decode()
                self.send_response(101, "Switching Protocols")
                self.send_header("Upgrade", "websocket")
                self.send_header("Connection", "Upgrade")
                self.send_header("Sec-WebSocket-Accept", accept)
                self.end_headers()
                self.close_connection = True
                if not imp_id:
                    op, payload = self._ws_read()
                    if op == 1:  # text frame carrying the uploadId
                        imp_id = payload.decode("utf-8", "replace").strip()
                try:
                    while True:
                        st = server.status(imp_id)
                        self._ws_send(json.dumps(st, default=str))
                        if st.get("error") or st.get("status") in (
                            "complete", "error",
                        ):
                            break
                        _time.sleep(0.05)
                    self.wfile.write(bytes([0x88, 0]))  # close frame
                    self.wfile.flush()
                except (BrokenPipeError, ConnectionResetError):
                    pass  # client went away mid-import

            def do_GET(self):
                u = urlparse(self.path)
                q = {k: v[0] for k, v in parse_qs(u.query).items()}
                try:
                    if u.path == "/ws":
                        self._websocket(q.get("id", ""))
                        return
                    if u.path == "/":
                        body = _FORM.encode()
                        self.send_response(200)
                        self.send_header("Content-Type", "text/html")
                        self.send_header("Content-Length", str(len(body)))
                        self.end_headers()
                        self.wfile.write(body)
                    elif u.path == "/api/indices":
                        self._json(200, server.list_indices())
                    elif u.path == "/api/aliases":
                        from excelastic_ray.index.snapshot import (
                            load_aliases,
                        )

                        self._json(
                            200,
                            {"aliases": load_aliases(server.index_root)},
                        )
                    elif u.path == "/api/snapshots":
                        self._json(200, server.list_snapshots())
                    elif u.path == "/api/complete":
                        # ES completion suggester (search-as-you-type);
                        # ?fuzziness= switches to the fuzzy variant
                        self._json(
                            200,
                            server.complete(
                                q["index"], q.get("q", ""),
                                int(q.get("k", "10")),
                                fuzziness=(int(q["fuzziness"])
                                           if q.get("fuzziness")
                                           else None),
                                prefix_length=int(
                                    q.get("prefix_length", "1")
                                ),
                            ),
                        )
                    elif u.path == "/api/async_search":
                        # ES GET /_async_search/<id> analog
                        try:
                            self._json(
                                200, server.async_search_get(q["id"]))
                        except KeyError as e:
                            self._json(404, {"error": str(e)})
                    elif u.path == "/api/terms_enum":
                        # ES _terms_enum analog: ascending dictionary
                        # terms under a prefix, pageable
                        self._json(
                            200,
                            server.terms_enum(
                                q["index"], q.get("string", ""),
                                int(q.get("size", "10")),
                                field=q.get("field") or None,
                                case_insensitive=(
                                    q.get("case_insensitive") == "1"),
                                search_after=q.get("search_after")
                                or None,
                            ),
                        )
                    elif u.path == "/api/count":
                        # ES _count analog: matching-doc count, no hits
                        self._json(
                            200, server.count(q["index"], q.get("q", ""))
                        )
                    elif u.path == "/api/mget":
                        # ES _mget analog: batch point fetch by
                        # ids=conv:turn,conv:turn
                        self._json(
                            200,
                            server.mget(
                                q["index"],
                                [s for s in q.get("ids", "").split(",")
                                 if s],
                            ),
                        )
                    elif u.path == "/api/mtermvectors":
                        # ES _mtermvectors analog: batched term
                        # vectors, ids=conv:turn,conv:turn
                        self._json(
                            200,
                            server.mtermvectors(
                                q["index"],
                                [s for s in q.get("ids", "").split(",")
                                 if s],
                            ),
                        )
                    elif u.path == "/api/analyze":
                        # ES _analyze analog: with ?index=, THAT
                        # index's configured analyzer (e.g. english);
                        # without, the standard default
                        from excelastic_ray.analysis import tokenize

                        analyzer = "standard"
                        if q.get("index"):
                            from excelastic_ray.index.segments import (
                                load_global_manifest,
                            )
                            from excelastic_ray.index.snapshot import (
                                resolve_alias,
                            )

                            t0 = os.path.join(
                                server.index_root,
                                resolve_alias(
                                    server.index_root, q["index"]
                                )[0],
                            )
                            analyzer = load_global_manifest(t0)[
                                "config"].get("analyzer", "standard")
                        self._json(
                            200,
                            {"tokens": tokenize(q.get("q", ""), analyzer),
                             "analyzer": analyzer},
                        )
                    elif u.path == "/api/status":
                        self._json(200, server.status(q.get("id", "")))
                    elif u.path == "/api/templates":
                        self._json(200, server.list_templates())
                    elif u.path == "/api/field_caps":
                        self._json(200, server.field_caps(q["index"]))
                    elif u.path == "/api/scroll":
                        # ES GET _search/scroll analog: next page
                        self._json(200, server.scroll_next(q["scroll_id"]))
                    elif u.path == "/api/search" and q.get("scroll") == "1":
                        # ES ?scroll= analog: open a scroll context
                        self._json(
                            200,
                            server.scroll_open(
                                q["index"], q["q"], int(q.get("k", "10"))
                            ),
                        )
                    elif u.path == "/api/search":
                        self._json(
                            200,
                            server.search(
                                q["index"], q["q"], int(q.get("k", "10")),
                                phrase=q.get("phrase") == "1",
                                offset=int(q.get("from", "0")),
                                slop=int(q.get("slop", "0")),
                                qs=q.get("qs") == "1",
                                qstring=q.get("qstring") == "1",
                                combined=q.get("combined") or None,
                                cross=q.get("cross") or None,
                                wildcard=q.get("wildcard") == "1",
                                regexp=q.get("regexp") == "1",
                                suggest=q.get("suggest") == "1",
                                collapse=q.get("collapse") or None,
                                mlt=q.get("mlt") or None,
                                must=q.get("must") or None,
                                must_not=q.get("must_not") or None,
                                msm=(int(q["msm"]) if q.get("msm")
                                     else None),
                                decay_origin=q.get("decay_origin") or None,
                                decay_scale=q.get("decay_scale", "24h"),
                                search_after=q.get("search_after") or None,
                                fields=q.get("fields") or None,
                                sort_ts=q.get("sort_ts") == "1",
                                fuzzy=q.get("fuzzy") or None,
                                syn=q.get("syn") or None,
                                highlight=q.get("highlight") == "1",
                                explain=q.get("explain") or None,
                                phrase_prefix=q.get(
                                    "phrase_prefix") == "1",
                                span_first=(int(q["span_first"])
                                            if q.get("span_first")
                                            else None),
                                span_near=(int(q["span_near"])
                                           if q.get("span_near")
                                           else None),
                                span_not=q.get("span_not") or None,
                                min_score=(float(q["min_score"])
                                           if q.get("min_score")
                                           else None),
                                say=q.get("say") == "1",
                                fragment_size=(int(q["fragment_size"])
                                               if q.get("fragment_size")
                                               else None),
                                number_of_fragments=int(
                                    q.get("number_of_fragments", "5")
                                ),
                                indices_boost=q.get("indices_boost")
                                or None,
                                inner_hits=(int(q["inner_hits"])
                                            if q.get("inner_hits")
                                            else None),
                                pit=q.get("pit") or None,
                            ),
                        )
                    else:
                        self._json(404, {"error": "not found"})
                except Exception as e:  # surface, never crash the server
                    self._json(500, {"error": str(e)})

            def do_PUT(self):
                # ES PUT /_index_template analog
                u = urlparse(self.path)
                q = {k: v[0] for k, v in parse_qs(u.query).items()}
                if u.path == "/api/template":
                    try:
                        length = int(self.headers.get("Content-Length", "0"))
                        body = json.loads(self.rfile.read(length) or b"{}")
                        self._json(
                            200,
                            server.put_template(
                                q["name"],
                                body.get("index_patterns", []),
                                mapping=body.get("mapping"),
                                pipeline=body.get("pipeline"),
                                priority=int(body.get("priority", 0)),
                            ),
                        )
                    except Exception as e:
                        self._json(400, {"error": str(e)})
                    return
                self._json(404, {"error": "not found"})

            def do_POST(self):
                u = urlparse(self.path)
                q = {k: v[0] for k, v in parse_qs(u.query).items()}
                if u.path == "/api/search":
                    # ES POST _search with a JSON query-DSL body:
                    # {"query": {nested bool/match tree}, "k": n} — or
                    # the script_fields shape {"q": "text",
                    # "script_fields": {name: expr | {"script":
                    # {"source": expr}}}, "params": {...}, "k": n}
                    try:
                        length = int(self.headers.get("Content-Length", "0"))
                        body = json.loads(self.rfile.read(length) or b"{}")
                        if "script_fields" in body:
                            self._json(
                                200,
                                server.search_script_fields(
                                    q["index"], body.get("q", ""),
                                    body["script_fields"],
                                    int(body.get("k", 10)),
                                    body.get("params"),
                                ),
                            )
                        elif "script" in body:
                            # ES script query in filter context:
                            # {"q": text, "script": bool-expr}
                            self._json(
                                200,
                                server.search_script_query(
                                    q["index"], body.get("q", ""),
                                    body["script"],
                                    int(body.get("k", 10)),
                                    body.get("params"),
                                ),
                            )
                        else:
                            self._json(
                                200,
                                server.search_dsl(
                                    q["index"], body["query"],
                                    int(body.get("k", 10)),
                                ),
                            )
                    except Exception as e:
                        self._json(400, {"error": str(e)})
                    return
                if u.path == "/api/validate":
                    # ES GET /<index>/_validate/query analog: compile
                    # the DSL body without serving hits; malformed
                    # queries report valid=false + the compile error
                    try:
                        length = int(self.headers.get("Content-Length", "0"))
                        body = json.loads(self.rfile.read(length) or b"{}")
                        self._json(
                            200,
                            server.validate_query(
                                q["index"], body["query"]
                            ),
                        )
                    except Exception as e:
                        self._json(400, {"error": str(e)})
                    return
                if u.path == "/api/search/template":
                    # ES POST _search/template: {"source": mustache
                    # template string, "params": {...}, "k": n}
                    try:
                        length = int(self.headers.get("Content-Length", "0"))
                        body = json.loads(self.rfile.read(length) or b"{}")
                        self._json(
                            200,
                            server.search_template(
                                q["index"], body["source"],
                                body.get("params"),
                                int(body.get("k", 10)),
                            ),
                        )
                    except Exception as e:
                        self._json(400, {"error": str(e)})
                    return
                if u.path == "/api/msearch":
                    try:
                        length = int(self.headers.get("Content-Length", "0"))
                        body = self.rfile.read(length).decode(
                            "utf-8", "replace"
                        )
                        self._json(200, server.msearch(body))
                    except Exception as e:
                        self._json(400, {"error": str(e)})
                    return
                if u.path == "/api/async_search":
                    # ES POST /<index>/_async_search analog: submit,
                    # returns an id to poll
                    try:
                        length = int(self.headers.get("Content-Length", "0"))
                        body = json.loads(self.rfile.read(length) or b"{}")
                        self._json(
                            200,
                            server.async_search_submit(q["index"], body),
                        )
                    except Exception as e:
                        self._json(400, {"error": str(e)})
                    return
                if u.path == "/api/pit":
                    # ES POST /<index>/_pit analog: open a point-in-time
                    try:
                        self._json(
                            200,
                            server.open_pit(
                                q["index"],
                                float(q.get("keep_alive", "300")),
                            ),
                        )
                    except Exception as e:
                        self._json(400, {"error": str(e)})
                    return
                if u.path == "/api/aliases":
                    try:
                        length = int(self.headers.get("Content-Length", "0"))
                        body = json.loads(self.rfile.read(length) or b"{}")
                        self._json(
                            200,
                            server.update_aliases(body.get("actions", [])),
                        )
                    except Exception as e:
                        self._json(400, {"error": str(e)})
                    return
                if u.path == "/api/rollover":
                    try:
                        self._json(
                            200,
                            server.rollover(
                                q["alias"],
                                (int(q["max_docs"])
                                 if q.get("max_docs") else None),
                            ),
                        )
                    except KeyError as e:
                        self._json(404, {"error": str(e)})
                    except Exception as e:
                        self._json(400, {"error": str(e)})
                    return
                if u.path == "/api/snapshot":
                    try:
                        names = [s for s in
                                 (q.get("indices", "").split(","))
                                 if s] or None
                        self._json(
                            200, server.snapshot(q["name"], names)
                        )
                    except Exception as e:
                        self._json(400, {"error": str(e)})
                    return
                if u.path == "/api/restore":
                    try:
                        self._json(
                            200,
                            server.restore(
                                q["name"], q["index"],
                                q.get("rename") or None,
                            ),
                        )
                    except Exception as e:
                        self._json(400, {"error": str(e)})
                    return
                if u.path == "/api/forcemerge":
                    try:
                        self._json(
                            200,
                            server.forcemerge(
                                q["index"],
                                int(q.get("max_num_segments", "1")),
                            ),
                        )
                    except Exception as e:
                        self._json(400, {"error": str(e)})
                    return
                if u.path in ("/api/shrink", "/api/split"):
                    # ES POST /<index>/_shrink/<target> | _split
                    try:
                        self._json(
                            200,
                            server.resize(
                                q["index"], q["target"],
                                int(q["num_shards"]),
                                u.path.rsplit("/", 1)[1],
                            ),
                        )
                    except KeyError as e:
                        self._json(400, {"error": f"missing param {e}"})
                    except Exception as e:
                        self._json(400, {"error": str(e)})
                    return
                if u.path == "/api/doc/update":
                    # ES POST /<index>/_update analog: overlay attr
                    # values on ONE doc (doc-values update; text keeps
                    # scoring as indexed until reindex)
                    try:
                        length = int(self.headers.get("Content-Length",
                                                      "0"))
                        body = json.loads(self.rfile.read(length) or b"{}")
                        try:
                            index = q["index"]
                            conv = q["conv_id"]
                            turn = int(q["turn_idx"])
                        except KeyError as e:  # malformed REQUEST: 400
                            self._json(
                                400, {"error": f"missing param {e}"}
                            )
                            return
                        self._json(
                            200,
                            server.doc_update(index, conv, turn, body),
                        )
                    except KeyError as e:  # unknown doc/attr: 404
                        self._json(404, {"error": str(e)})
                    except Exception as e:
                        self._json(400, {"error": str(e)})
                    return
                if u.path == "/api/doc":
                    # ES PUT /<index>/_doc analog: index ONE turn; the
                    # doc id is (conv_id, turn_idx); ?overwrite=true is
                    # ES op_type=index, default op_type=create
                    try:
                        length = int(self.headers.get("Content-Length",
                                                      "0"))
                        body = json.loads(self.rfile.read(length) or b"{}")
                        self._json(
                            200,
                            server.doc_index(
                                q["index"], body,
                                overwrite=q.get("overwrite") == "true",
                            ),
                        )
                    except Exception as e:
                        self._json(400, {"error": str(e)})
                    return
                if u.path == "/api/bulk":
                    # ES _bulk analog: NDJSON action/doc lines, ordered
                    # application, per-item results (errors item-scoped)
                    try:
                        length = int(self.headers.get("Content-Length",
                                                      "0"))
                        body = self.rfile.read(length).decode()
                        self._json(200, server.bulk(q["index"], body))
                    except Exception as e:
                        self._json(400, {"error": str(e)})
                    return
                if u.path != "/api/upload":
                    self._json(404, {"error": "not found"})
                    return
                try:
                    length = int(self.headers.get("Content-Length", "0"))
                    body = self.rfile.read(length)
                    fields = _parse_multipart(
                        body, self.headers.get("Content-Type", "")
                    )
                    if "file" not in fields or not fields["file"][0]:
                        # the reference renders the error page for an
                        # upload without a file (TestWebsite.java:70-81)
                        self._json(400, {"error": "no file uploaded"})
                        return
                    params = {
                        k: v[1].decode("utf-8", "replace")
                        for k, v in fields.items()
                        if k != "file"
                    }
                    imp = server.start_import(
                        fields["file"][0], fields["file"][1], params
                    )
                    self._json(200, imp)
                except Exception as e:
                    self._json(500, {"error": str(e)})

            def do_DELETE(self):
                # ES DELETE /<index>/_doc analog: tombstone ONE turn
                u = urlparse(self.path)
                q = {k: v[0] for k, v in parse_qs(u.query).items()}
                if u.path == "/api/doc":
                    try:
                        self._json(
                            200,
                            server.doc_delete(
                                q["index"], q["conv_id"],
                                int(q["turn_idx"]),
                            ),
                        )
                    except KeyError as e:
                        self._json(404, {"error": str(e)})
                    except Exception as e:
                        self._json(400, {"error": str(e)})
                    return
                if u.path == "/api/scroll":
                    # ES DELETE /_search/scroll analog
                    try:
                        self._json(
                            200, server.scroll_clear(q["scroll_id"])
                        )
                    except Exception as e:
                        self._json(400, {"error": str(e)})
                    return
                if u.path == "/api/pit":
                    # ES DELETE /_pit analog
                    try:
                        self._json(
                            200, server.close_pit(q["index"], q["id"])
                        )
                    except Exception as e:
                        self._json(400, {"error": str(e)})
                    return
                if u.path == "/api/async_search":
                    # ES DELETE /_async_search/<id> analog
                    try:
                        self._json(
                            200, server.async_search_delete(q["id"])
                        )
                    except Exception as e:
                        self._json(400, {"error": str(e)})
                    return
                if u.path == "/api/template":
                    try:
                        self._json(200, server.delete_template(q["name"]))
                    except Exception as e:
                        self._json(400, {"error": str(e)})
                    return
                self._json(404, {"error": "not found"})

        self.httpd = ThreadingHTTPServer(("127.0.0.1", port), Handler)
        self.port = self.httpd.server_address[1]
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, daemon=True
        )

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ImportServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()

    # -- operations ------------------------------------------------------

    def index_dir(self, name: str) -> str:
        if not re.fullmatch(r"[A-Za-z0-9_.-]+", name):
            raise ValueError(f"invalid index name {name!r}")
        return os.path.join(self.index_root, name)

    def _manifest_status(self, index: str) -> str | None:
        """The index's manifest status, or None when there is no
        readable manifest (the one convention for "does this index
        exist yet" checks — creation detection and the rollover
        placeholder rule both read it)."""
        try:
            with open(os.path.join(self.index_dir(index),
                                   "manifest.json")) as f:
                return json.load(f).get("status")
        except (FileNotFoundError, ValueError):
            return None

    def start_import(self, filename: str, payload: bytes,
                     params: dict) -> dict:
        """Save the upload to a temp file, parse + index on a worker
        thread, return the import id immediately (the reference replies
        after completion for the CLI but streams progress for the web —
        we return at once and let /api/status poll)."""
        from excelastic_ray.index.snapshot import resolve_alias

        index = self.index_lock or params.get("index") or "imports"
        targets = resolve_alias(self.index_root, index)
        if len(targets) > 1:
            # ES write-alias rule: an alias spanning several indices
            # cannot accept writes
            raise ValueError(
                f"alias {index!r} points at {len(targets)} indices; "
                f"imports need a single concrete target"
            )
        index = targets[0]
        offset = int(params.get("offset", "1") or "1")
        clear = params.get("options", "clear") != "add"
        pipeline = params.get("pipeline") or None
        mapping = params.get("mapping") or None
        # index templates apply at CREATION only (ES rule): an import
        # into a fresh index inherits the matching template's settings
        # unless the upload overrides them explicitly. "Fresh" = no
        # COMPLETE manifest — a rollover-placeholder or crashed-build
        # manifest still counts as creation.
        if (mapping is None or pipeline is None) and (
            self._manifest_status(index) != "complete"
        ):
            tpl = self._match_template(index)
            if tpl is not None:
                mapping = mapping or tpl.get("mapping")
                pipeline = pipeline or tpl.get("pipeline")
        imp_id = uuid.uuid4().hex[:12]
        ext = os.path.splitext(filename)[1] or ".bin"
        fd, tmp = tempfile.mkstemp(suffix=ext)
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
        rec = {
            "id": imp_id,
            "index": index,
            "file": filename,
            "status": "importing",
            "rows": None,
            "error": None,
        }
        self.imports[imp_id] = rec

        with self._locks_guard:
            lock = self._index_locks.setdefault(index, threading.Lock())

        def run() -> None:
            try:
                with lock:
                    rec["rows"] = self.import_file(
                        tmp, index, offset, clear,
                        pipeline=pipeline, mapping=mapping,
                    )
                rec["status"] = "complete"
            except Exception as e:
                rec["status"] = "error"
                rec["error"] = f"{type(e).__name__}: {e}"
                traceback.print_exc(file=io.StringIO())
            finally:
                os.unlink(tmp)

        threading.Thread(target=run, daemon=True).start()
        return {"id": imp_id, "index": index}

    def import_file(self, path: str, index: str, offset: int,
                    clear: bool, pipeline: str | None = None,
                    mapping: str | None = None) -> int:
        from excelastic_ray.index.build import build_index
        from excelastic_ray.ingest import resolve_mapping, resolve_pipelines
        from excelastic_ray.sources import registry
        from excelastic_ray.sources.adapt import dataset_as_transcripts

        # resolve BEFORE any index mutation: an unknown pipeline or
        # mapping name fails the import without touching the index
        # (ImportEvent.java parity: the params ride the upload form)
        transforms = resolve_pipelines(pipeline) or None
        cfg = resolve_mapping(mapping, self.config)

        reader = registry.get_by_filename(path)
        try:
            ds = reader(path, offset=offset)
        except TypeError:
            ds = reader(path)
        ds, n_rows = dataset_as_transcripts(ds, conv_prefix=index)
        # a rollover placeholder ("empty" status) holds no data: its
        # first import IS index creation, whatever options= says —
        # appending into it would trip the config-match rule against
        # the placeholder's default config
        if self._manifest_status(index) == "empty":
            clear = True
        build_index(ds, self.index_dir(index), cfg, clear=clear,
                    transforms=transforms)
        return n_rows

    def doc_index(self, index: str, body: dict,
                  overwrite: bool = False) -> dict:
        """ES single-doc ``_index`` (``PUT /<index>/_doc``): index one
        turn into an existing index. Serializes with imports on the
        per-index lock; the next search sees the new manifest and
        reopens the changed shard."""
        from excelastic_ray.index.build import index_doc

        d = self.index_dir(index)
        with self._locks_guard:
            lock = self._index_locks.setdefault(index, threading.Lock())
        with lock:
            docid = index_doc(d, body, overwrite=overwrite)
        return {
            "index": index,
            "conv_id": str(body.get("conv_id")),
            "turn_idx": int(body.get("turn_idx", 0)),
            "docid": int(docid),
            "result": "updated" if overwrite else "created",
        }

    def doc_update(self, index: str, conv_id: str, turn_idx: int,
                   set_values: dict) -> dict:
        """ES single-doc ``_update``: attribute overlay on one turn."""
        from excelastic_ray.index.build import update_doc

        d = self.index_dir(index)
        with self._locks_guard:
            lock = self._index_locks.setdefault(index, threading.Lock())
        with lock:
            docid = update_doc(d, conv_id, int(turn_idx), set_values)
        return {
            "index": index,
            "conv_id": conv_id,
            "turn_idx": int(turn_idx),
            "docid": int(docid),
            "result": "updated",
        }

    def bulk(self, index: str, ndjson: str) -> dict:
        """ES ``_bulk``: NDJSON action/doc lines applied in order with
        per-item results; consecutive new-conversation index actions
        batch into one append (the bulk-ingest fast path)."""
        from excelastic_ray.bulk import bulk_apply, parse_ndjson

        actions = parse_ndjson(ndjson)
        d = self.index_dir(index)
        with self._locks_guard:
            lock = self._index_locks.setdefault(index, threading.Lock())
        with lock:
            items = bulk_apply(d, actions)
        return {
            "index": index,
            "items": items,
            "errors": any(it["status"] == "error" for it in items),
        }

    def doc_delete(self, index: str, conv_id: str, turn_idx: int) -> dict:
        """ES single-doc ``_delete``: tombstone one turn (pre-merge
        semantics; ``reindex`` is the expunge path)."""
        from excelastic_ray.index.build import delete_doc

        d = self.index_dir(index)
        with self._locks_guard:
            lock = self._index_locks.setdefault(index, threading.Lock())
        with lock:
            docid = delete_doc(d, conv_id, int(turn_idx))
        return {
            "index": index,
            "conv_id": conv_id,
            "turn_idx": int(turn_idx),
            "docid": int(docid),
            "result": "deleted",
        }

    def list_indices(self) -> dict:
        """ES ``_cat/indices`` analog: every index under the root with
        its status and headline stats from the global manifest."""
        from excelastic_ray.index.segments import load_global_manifest

        out = []
        for name in sorted(os.listdir(self.index_root)):
            d = os.path.join(self.index_root, name)
            if not os.path.isdir(d):
                continue
            try:
                m = load_global_manifest(d)
            except FileNotFoundError:
                continue
            out.append(
                {
                    "index": name,
                    "status": m.get("status"),
                    "n_docs": m.get("n_docs"),
                    "n_convs": m.get("n_convs"),
                    "num_shards": m.get("num_shards"),
                    "bytes": (m.get("segment_bytes") or 0)
                    + (m.get("shard_bytes") or 0),
                }
            )
        return {"indices": out}

    # -- lifecycle APIs: aliases + snapshot/restore ----------------------

    # -- index templates (ES PUT /_index_template analog) ------------------

    def _templates_path(self) -> str:
        return os.path.join(self.index_root, "_templates.json")

    def _load_templates(self) -> dict:
        try:
            with open(self._templates_path()) as f:
                return json.load(f)
        except FileNotFoundError:
            return {}

    def put_template(self, name: str, index_patterns: list[str],
                     mapping: str | None = None,
                     pipeline: str | None = None,
                     priority: int = 0) -> dict:
        """ES index template: auto-applies its mapping preset /
        ingest pipeline when an import CREATES an index whose name
        matches a pattern (existing indexes keep their manifest
        settings — ES applies templates at creation only). Unknown
        mapping/pipeline names fail the PUT, not the later import."""
        from excelastic_ray.ingest import resolve_mapping, resolve_pipelines

        if not re.fullmatch(r"[A-Za-z0-9_.-]+", name):
            raise ValueError(f"invalid template name {name!r}")
        if not index_patterns:
            raise ValueError("index_patterns must be non-empty")
        resolve_pipelines(pipeline)
        resolve_mapping(mapping, self.config)
        with self._templates_guard:
            tpls = self._load_templates()
            tpls[name] = {
                "index_patterns": list(index_patterns),
                "mapping": mapping,
                "pipeline": pipeline,
                "priority": int(priority),
            }
            tmp = self._templates_path() + ".tmp"
            with open(tmp, "w") as f:
                json.dump(tpls, f, indent=1)
            os.replace(tmp, self._templates_path())
        return {"acknowledged": True, "name": name}

    def list_templates(self) -> dict:
        with self._templates_guard:
            return {"templates": self._load_templates()}

    def delete_template(self, name: str) -> dict:
        with self._templates_guard:
            tpls = self._load_templates()
            found = tpls.pop(name, None) is not None
            if found:
                tmp = self._templates_path() + ".tmp"
                with open(tmp, "w") as f:
                    json.dump(tpls, f, indent=1)
                os.replace(tmp, self._templates_path())
        return {"acknowledged": found}

    def _match_template(self, index: str) -> dict | None:
        """Highest-priority template whose pattern matches (ties break
        by name, the ES rule)."""
        import fnmatch

        with self._templates_guard:
            tpls = self._load_templates()
        best = None
        for name in sorted(tpls):
            t = tpls[name]
            if any(fnmatch.fnmatchcase(index, p)
                   for p in t["index_patterns"]):
                key = (-t.get("priority", 0), name)
                if best is None or key < best[0]:
                    best = (key, t)
        return best[1] if best else None

    def update_aliases(self, actions: list[dict]) -> dict:
        """ES ``POST /_aliases`` analog — atomic add/remove batch."""
        from excelastic_ray.index.snapshot import update_aliases

        for act in actions:  # validate names before touching state
            for body in act.values():
                self.index_dir(body["alias"])
                self.index_dir(body["index"])
        # a retargeted alias fails _acquire_engine's resolution check
        return {"aliases": update_aliases(self.index_root, actions)}

    def snapshot(self, name: str, indices: list[str] | None = None) -> dict:
        """ES ``PUT /_snapshot/<repo>/<name>`` analog.  Holds each
        index's import lock (sorted order) so no import clears files
        mid-link; hard links make this metadata-cheap."""
        import contextlib

        from excelastic_ray.index.segments import load_global_manifest
        from excelastic_ray.index.snapshot import create_snapshot

        if not re.fullmatch(r"[A-Za-z0-9_.-]+", name):
            raise ValueError(f"invalid snapshot name {name!r}")
        if indices is None:
            indices = []
            for nm in sorted(os.listdir(self.index_root)):
                try:
                    if load_global_manifest(
                        os.path.join(self.index_root, nm)
                    ).get("status") == "complete":
                        indices.append(nm)
                except (FileNotFoundError, NotADirectoryError):
                    continue
        if not indices:
            raise ValueError("no complete indices to snapshot")
        with contextlib.ExitStack() as stack:
            for nm in sorted(indices):
                with self._locks_guard:
                    lock = self._index_locks.setdefault(
                        nm, threading.Lock()
                    )
                stack.enter_context(lock)
            return create_snapshot(
                self.snapshot_repo, name,
                {nm: self.index_dir(nm) for nm in indices},
            )

    def list_snapshots(self) -> dict:
        from excelastic_ray.index.snapshot import list_snapshots

        return {"snapshots": list_snapshots(self.snapshot_repo)}

    def restore(self, name: str, index: str,
                rename_to: str | None = None) -> dict:
        """ES ``POST /_snapshot/<repo>/<name>/_restore`` analog."""
        from excelastic_ray.index.snapshot import restore_snapshot

        target = rename_to or index
        self.index_dir(target)  # validate before creating anything
        with self._locks_guard:
            lock = self._index_locks.setdefault(target, threading.Lock())
        with lock:
            return restore_snapshot(
                self.snapshot_repo, name, index, self.index_root,
                rename_to=rename_to,
            )

    def complete(self, index: str, prefix: str, k: int = 10,
                 fuzziness: int | None = None,
                 prefix_length: int = 1) -> dict:
        from excelastic_ray.index.snapshot import resolve_alias

        targets = resolve_alias(self.index_root, index)
        if len(targets) > 1:
            raise ValueError("completion needs a concrete index")
        eng = self._acquire_engine(index, targets)
        if fuzziness is not None:
            t = eng.complete_fuzzy(prefix, k, fuzziness=fuzziness,
                                   prefix_length=prefix_length)
        else:
            t = eng.complete(prefix, k)
        return {"completions": t.to_pylist()}

    def terms_enum(self, index: str, string: str = "", size: int = 10,
                   field: str | None = None,
                   case_insensitive: bool = False,
                   search_after: str | None = None) -> dict:
        """ES ``_terms_enum``: ascending index terms under a prefix,
        pageable via ``search_after`` (see QueryEngine.terms_enum)."""
        from excelastic_ray.index.snapshot import resolve_alias

        targets = resolve_alias(self.index_root, index)
        if len(targets) > 1:
            raise ValueError("terms_enum needs a concrete index")
        eng = self._acquire_engine(index, targets)
        t = eng.terms_enum(string, size, field=field,
                           case_insensitive=case_insensitive,
                           search_after=search_after)
        return {"terms": t["term"].to_pylist(), "complete": True}

    def search_script_fields(self, index: str, query: str, fields: dict,
                             k: int = 10,
                             params: dict | None = None) -> dict:
        """ES ``script_fields``: accepts both the bare-expression shape
        ({name: expr}) and ES's nested one ({name: {"script":
        {"source": expr}}})."""
        from excelastic_ray.index.snapshot import resolve_alias

        targets = resolve_alias(self.index_root, index)
        if len(targets) > 1:
            raise ValueError("script_fields needs a concrete index")
        eng = self._acquire_engine(index, targets)
        norm = {}
        for name, spec in fields.items():
            if isinstance(spec, dict):
                spec = spec.get("script", spec)
            if isinstance(spec, dict):
                spec = spec.get("source", "")
            norm[name] = spec
        t = eng.search_script_fields(query, norm, k=k, params=params)
        return {"hits": t.to_pylist()}

    def search_script_query(self, index: str, query: str, script: str,
                            k: int = 10,
                            params: dict | None = None) -> dict:
        """ES ``script`` query (filter context) over the plain match."""
        from excelastic_ray.index.snapshot import resolve_alias

        targets = resolve_alias(self.index_root, index)
        if len(targets) > 1:
            raise ValueError("script query needs a concrete index")
        eng = self._acquire_engine(index, targets)
        t = eng.search_script_query(query, script, k=k, params=params)
        return {"hits": t.to_pylist()}

    def validate_query(self, index: str, query: dict) -> dict:
        """ES ``_validate/query`` analog: run the DSL compile + a
        k=1 probe (the executor validates the whole tree up front —
        grammar errors raise before any scoring; ES likewise rewrites
        the query, which walks every leaf). → {"valid": bool,
        "error": str?} — 200 either way, like ES."""
        from excelastic_ray.index.snapshot import resolve_alias

        targets = resolve_alias(self.index_root, index)
        if len(targets) > 1:
            raise ValueError("validate needs a concrete index")
        eng = self._acquire_engine(index, targets)
        try:
            eng.search_dsl(query, 1)
            return {"valid": True}
        except (ValueError, KeyError) as e:
            # KeyError covers unknown-field / unknown-attribute typos —
            # the primary _validate use case
            return {"valid": False, "error": str(e)}

    def mtermvectors(self, index: str, ids: list[str]) -> dict:
        """ES ``_mtermvectors`` analog. Each id is
        ``conv_id:turn_idx``; missing docs are skipped (flat-table
        found:false analog)."""
        from excelastic_ray.index.snapshot import resolve_alias

        targets = resolve_alias(self.index_root, index)
        if len(targets) > 1:
            raise ValueError("mtermvectors needs a concrete index")
        eng = self._acquire_engine(index, targets)
        pairs = []
        for s in ids:
            conv, _, turn = s.rpartition(":")
            pairs.append((conv, int(turn)))
        return {"docs": eng.mtermvectors(pairs).to_pylist()}

    def count(self, index: str, query: str) -> dict:
        from excelastic_ray.index.snapshot import alias_filter, resolve_alias

        targets = resolve_alias(self.index_root, index)
        eng = self._acquire_engine(index, targets)
        aflt = alias_filter(self.index_root, index)
        if aflt is not None and len(targets) > 1:
            raise ValueError(
                f"filtered alias {index!r} must target one index"
            )
        return {"count": int(eng.count(query, filters=aflt))}

    def mget(self, index: str, ids: list[str]) -> dict:
        """Batch point fetch. Each id is ``conv_id:turn_idx``; missing
        docs report found=false like ES."""
        from excelastic_ray.index.snapshot import resolve_alias

        targets = resolve_alias(self.index_root, index)
        if len(targets) > 1:
            raise ValueError("mget needs a concrete index")
        eng = self._acquire_engine(index, targets)
        docs = []
        for s in ids:
            conv, _, turn = s.rpartition(":")
            try:
                docid = eng.reader.docid_of(conv, int(turn))
                src = eng.reader.fetch_docs([docid]).to_pylist()[0]
                docs.append({"id": s, "found": True, **src})
            except (KeyError, ValueError, IndexError):
                docs.append({"id": s, "found": False})
        return {"docs": docs}

    def forcemerge(self, index: str, max_num_segments: int = 1) -> dict:
        """ES ``POST /<index>/_forcemerge`` analog: compact to fewer
        shards under the index's import lock; readers re-open on the
        new build_id."""
        from excelastic_ray.index.build import force_merge

        self.index_dir(index)  # name validation
        with self._locks_guard:
            lock = self._index_locks.setdefault(index, threading.Lock())
        with lock:
            m = force_merge(self.index_dir(index),
                            num_shards=max_num_segments)
        return {"index": index, "num_shards": m["num_shards"],
                "status": m["status"]}

    def resize(self, index: str, target: str, num_shards: int,
               mode: str) -> dict:
        """ES ``POST /<index>/_shrink/<target>`` / ``_split`` analog:
        a NEW index at a different shard fan-out from hard-linked
        chunk segments. Runs under the SOURCE's import lock (the ES
        read-only requirement); the target gets its own entry in the
        repo dir and serves immediately after."""
        from excelastic_ray.index.build import shrink_index, split_index

        self.index_dir(index)
        self.index_dir(target)  # name validation for both
        with self._locks_guard:
            lock = self._index_locks.setdefault(index, threading.Lock())
        with lock:
            fn = shrink_index if mode == "shrink" else split_index
            m = fn(self.index_dir(index), self.index_dir(target),
                   num_shards)
        return {"index": index, "target": target,
                "num_shards": m["num_shards"], "status": m["status"]}

    def status(self, imp_id: str) -> dict:
        from excelastic_ray.index.build import build_status

        rec = self.imports.get(imp_id)
        if rec is None:
            return {"error": f"unknown import id {imp_id!r}"}
        out = dict(rec)
        out["progress"] = build_status(self.index_dir(rec["index"]))
        return out

    def _acquire_engine(self, name: str, targets: list[str]):
        """Cached engine for a concrete index or alias.  Cache entries
        are (resolution, engine); an entry is replaced when the alias
        was retargeted or any target's manifest moved (every write
        rewrites it), and is dropped while a target is not complete
        (import mid-clear). Writes evict nothing: this check is the one
        invalidation rule, and it keeps the stale engine until here, so
        its readers are there to take over from.

        Each replacement reader opens every shard now, taking over from
        the stale engine's reader of the same directory what the write
        left unchanged (:meth:`IndexReader.open_all`); an alias's
        sub-indices go through the same loop. A server's first engine
        for a name has nothing to take over and opens every shard."""
        from excelastic_ray.index.segments import load_global_manifest
        from excelastic_ray.query.engine import IndexReader, QueryEngine
        from excelastic_ray.query.multi import MultiIndexEngine

        dirs = [self.index_dir(t) for t in targets]
        with self._engines_guard:
            old = {}
            hit = self._engines.pop(name, None)
            if hit is not None:
                cached_targets, eng = hit
                subs = eng.engines if hasattr(eng, "engines") else [eng]
                # full-manifest equality, not just the mutation revs: a
                # clear+rebuild writes a NEW manifest whose revs may
                # still be 0
                if cached_targets == targets and all(
                    _before_append(load_global_manifest(d))
                    == sub.reader.manifest for sub, d in zip(subs, dirs)
                ):
                    self._engines[name] = hit
                    return eng
                old = {sub.reader.index_dir: sub.reader for sub in subs}
            # read-gate: only serve complete indices — a concurrent
            # import into the same dir may be mid-clear/rebuild
            # (imports hold the per-index lock; reads check status)
            for t, d in zip(targets, dirs):
                m = load_global_manifest(d)
                if m.get("status") != "complete":
                    raise RuntimeError(
                        f"index {t!r} is not complete "
                        f"(status={m.get('status')!r}); retry when the "
                        f"import finishes"
                    )
            readers = [IndexReader(d) for d in dirs]
            for r in readers:
                r.open_all(old.get(r.index_dir))
            eng = (QueryEngine(readers[0]) if len(readers) == 1
                   else MultiIndexEngine(readers))
            self._engines[name] = (targets, eng)
            return eng

    def rollover(self, alias: str, max_docs: int | None = None) -> dict:
        """ES ``_rollover`` analog: when the alias's single write index
        has reached ``max_docs`` (always, when no condition is given),
        atomically point the alias at a FRESH ``<base>-NNNNNN`` index
        (created on its first import — index templates apply then,
        exactly ES + template interplay). The old index stays on disk
        and searchable by its concrete name; readers of the alias see
        the swap atomically (the update_aliases os.replace). Between
        the rollover and the new index's first import, searching the
        alias raises "not complete" — the placeholder manifest keeps
        the alias machinery valid but is not a queryable index
        (documented divergence from ES, whose rollover creates a real
        empty index)."""
        import json as _json

        from excelastic_ray.index.segments import load_global_manifest
        from excelastic_ray.index.snapshot import (
            load_aliases,
            resolve_alias,
        )

        aliases = load_aliases(self.index_root)
        if alias not in aliases:
            raise KeyError(f"no alias {alias!r}")
        targets = resolve_alias(self.index_root, alias)
        if len(targets) != 1:
            raise ValueError(
                f"rollover needs a single write index; alias {alias!r} "
                f"spans {len(targets)}"
            )
        old = targets[0]
        n_docs = load_global_manifest(
            os.path.join(self.index_root, old)
        )["n_docs"]
        if max_docs is not None and n_docs < max_docs:
            return {"rolled_over": False, "old_index": old,
                    "doc_count": n_docs}
        m = re.fullmatch(r"(.*)-(\d{6})", old)
        base, seq = (m.group(1), int(m.group(2))) if m else (old, 0)
        new = f"{base}-{seq + 1:06d}"
        # serialize racing rollovers (both would otherwise pass the
        # isdir check); a leftover placeholder from a crashed previous
        # attempt is reusable, not a hard error
        with self._rollover_guard:
            new_dir = self.index_dir(new)
            if os.path.isdir(new_dir) and self._manifest_status(
                new
            ) != "empty":
                raise ValueError(
                    f"rollover target {new!r} already exists"
                )
            # the new index is CREATED by its first import; the alias
            # swap is the atomic step (update_aliases' add rule needs a
            # manifest, so write a rollover-shaped empty one). Any
            # failure past this point removes the placeholder so a
            # retry is clean.
            os.makedirs(new_dir, exist_ok=True)
            manifest_p = os.path.join(new_dir, "manifest.json")
            with open(manifest_p, "w") as f:
                # a VALID manifest shape (config + zero counters) so
                # status/listing endpoints read it; status "empty"
                # keeps the reader refusing it until the first import
                _json.dump(
                    {
                        "status": "empty",
                        "n_docs": 0,
                        "n_convs": 0,
                        "n_chunks": 0,
                        "config": self.config.to_dict(),
                        "rolled_from": old,
                    },
                    f,
                )
            try:
                self.update_aliases(
                    [
                        {"remove": {"alias": alias, "index": old}},
                        {"add": {"alias": alias, "index": new}},
                    ]
                )
            except Exception:
                try:
                    os.unlink(manifest_p)
                    os.rmdir(new_dir)
                except OSError:
                    pass
                raise
        return {"rolled_over": True, "old_index": old, "new_index": new,
                "doc_count": n_docs}

    def field_caps(self, index: str) -> dict:
        """ES ``_field_caps`` analog (the endpoint Kibana calls to
        build its field list): per-field type/searchable/aggregatable
        from the index manifest(s); an alias unions its targets and
        marks type conflicts like ES does."""
        from excelastic_ray.config import IndexConfig
        from excelastic_ray.index.segments import load_global_manifest
        from excelastic_ray.index.snapshot import resolve_alias

        targets = resolve_alias(self.index_root, index)
        fields: dict[str, dict] = {}

        def add(name: str, ftype: str, searchable: bool,
                aggregatable: bool, **extra) -> None:
            cur = fields.get(name)
            if cur is None:
                fields[name] = {"type": ftype, "searchable": searchable,
                                "aggregatable": aggregatable, **extra}
            elif cur["type"] != ftype:
                cur["conflict"] = True

        for t in targets:
            m = load_global_manifest(self.index_dir(t))
            cfg = IndexConfig.from_dict(m["config"])
            for f in cfg.index_fields:
                add(f, "text", True, False, analyzer=cfg.analyzer)
            for f in cfg.field_index_fields:
                add(f, "keyword", True, True)
            for f in cfg.attr_fields:
                if f == "ts":
                    add("ts", "date", True, True)
                elif f not in cfg.field_index_fields:
                    add(f, "keyword", True, True)
            add("conv_id", "keyword", True, True)
            add("turn_idx", "integer", True, True)
        return {"indices": targets, "fields": fields}

    def msearch(self, ndjson: str) -> dict:
        """ES ``_msearch`` analog: NDJSON header/body line pairs
        ({"index": ...} then {"q": ..., "k": ...}), item-scoped errors
        (one failing search never fails the batch — the _bulk rule)."""
        lines = [ln for ln in ndjson.splitlines() if ln.strip()]
        if len(lines) % 2:
            raise ValueError("msearch body must be header/body line pairs")
        out: list[dict] = []
        for i in range(0, len(lines), 2):
            try:
                head = json.loads(lines[i])
                body = json.loads(lines[i + 1])
                out.append(
                    self.search(head["index"], body["q"],
                                int(body.get("k", 10)))
                )
            except Exception as e:  # item-scoped, never batch-fatal
                out.append({"error": f"{type(e).__name__}: {e}"})
        return {"responses": out}

    def search_dsl(self, index: str, query: dict, k: int = 10) -> dict:
        """ES POST _search analog: nested query-DSL body (single
        concrete index, like the other advanced modes)."""
        from excelastic_ray.index.snapshot import resolve_alias

        targets = resolve_alias(self.index_root, index)
        if len(targets) > 1:
            raise ValueError(
                f"alias {index!r} spans {len(targets)} indices; DSL "
                f"search is single-index"
            )
        eng = self._acquire_engine(index, targets)
        if isinstance(query, dict) and set(query) == {"intervals"}:
            # ES intervals query body: {"query": {"intervals": rule}}
            return {"hits": eng.search_intervals(query["intervals"],
                                                 k).to_pylist()}
        return {"hits": eng.search_dsl(query, k).to_pylist()}

    def search_template(self, index: str, source: str,
                        params: dict | None = None, k: int = 10) -> dict:
        """ES POST _search/template analog: render the mustache-subset
        ``source`` with ``params`` (loud refusal on missing params),
        then execute it as a DSL search."""
        from excelastic_ray.query.engine import render_search_template

        return self.search_dsl(
            index, render_search_template(source, dict(params or {})), k
        )

    def async_search_submit(self, index: str, body: dict | None) -> dict:
        """ES ``POST /<index>/_async_search`` analog: run the search on
        a worker thread and return an id immediately; poll with
        :meth:`async_search_get`. ``body`` carries ``q`` (the query
        string) plus any keyword the synchronous ``search`` method
        accepts — unknown keys raise up front (the offset rule: no
        silently-dropped parameters). Documented deviation: no partial
        per-shard results mid-flight (``response`` is null until the
        search completes — the engine's shard merge is one step) and no
        ``wait_for_completion_timeout`` (poll instead)."""
        import inspect

        params = dict(body or {})
        query = params.pop("q", "")
        allowed = set(
            inspect.signature(self.search).parameters) - {"index", "query"}
        bad = set(params) - allowed
        if bad:
            raise ValueError(
                f"unsupported async_search params: {sorted(bad)}")
        sid = uuid.uuid4().hex[:12]
        rec: dict = {"id": sid, "is_running": True, "response": None,
                     "error": None}
        with self._async_guard:
            self._async[sid] = rec
            while len(self._async) > self._async_cap:
                # oldest completed context first; a running one only
                # when every stored search is still running
                old = next((k for k, r in self._async.items()
                            if not r["is_running"]), next(iter(self._async)))
                self._async.pop(old)

        def run() -> None:
            try:
                rec["response"] = self.search(index, query, **params)
            except Exception as e:
                rec["error"] = f"{type(e).__name__}: {e}"
            finally:
                rec["is_running"] = False

        threading.Thread(target=run, daemon=True).start()
        return {"id": sid, "is_running": True}

    def async_search_get(self, sid: str) -> dict:
        """ES ``GET /_async_search/<id>``: current state — running,
        completed (``response`` set), or failed (``error`` set)."""
        rec = self._async.get(sid)
        if rec is None:
            raise KeyError(f"unknown async search id {sid!r}")
        return {k: rec[k]
                for k in ("id", "is_running", "response", "error")}

    def async_search_delete(self, sid: str) -> dict:
        """ES ``DELETE /_async_search/<id>``: drop the stored result
        (a still-running search finishes but its result is discarded)."""
        with self._async_guard:
            return {"acknowledged": self._async.pop(sid, None)
                    is not None}

    def open_pit(self, index: str, keep_alive_s: float = 300.0) -> dict:
        """ES POST /<index>/_pit: open a point-in-time and return its
        stateless id (encodes the tombstone/doc-values generations +
        expiry; backed by the generational files every mutation
        writes). Single-index, like ES."""
        from excelastic_ray.index.snapshot import resolve_alias

        targets = resolve_alias(self.index_root, index)
        if len(targets) > 1:
            raise ValueError(
                f"alias {index!r} spans {len(targets)} indices; _pit "
                "is single-index"
            )
        eng = self._acquire_engine(index, targets)
        return {"id": eng.open_pit(keep_alive_s), "index": targets[0],
                "keep_alive_s": float(keep_alive_s)}

    def close_pit(self, index: str, pit_id: str) -> dict:
        """ES DELETE /_pit: evict the cached pinned view."""
        from excelastic_ray.index.snapshot import resolve_alias

        targets = resolve_alias(self.index_root, index)
        eng = self._acquire_engine(index, targets)
        return {"closed": bool(eng.close_pit(pit_id))}

    def scroll_open(self, index: str, query: str, k: int = 10) -> dict:
        """ES scroll analog (relevance order): first page + scroll_id.

        ES keeps a point-in-time snapshot per scroll; here segments are
        immutable between imports, which IS the PIT semantics — with
        one documented divergence: an import that completes mid-scroll
        replaces the cached engine and later pages serve from the new
        reader (ES would keep the old snapshot alive)."""
        from excelastic_ray.index.snapshot import resolve_alias

        targets = resolve_alias(self.index_root, index)
        if len(targets) > 1:
            raise ValueError(
                f"alias {index!r} spans {len(targets)} indices; scroll "
                f"is single-index"
            )
        eng = self._acquire_engine(index, targets)
        t = eng.search(query, k, include_source=True)
        hits = t.to_pylist()
        with self._scrolls_guard:
            self._scroll_seq += 1
            sid = f"scroll-{self._scroll_seq}"
            self._scrolls[sid] = {
                "index": index,
                "query": query,
                "k": k,
                "cursor": (
                    (hits[-1]["score"], hits[-1]["docid"]) if hits else None
                ),
                "done": len(hits) < k,
            }
            while len(self._scrolls) > self._scroll_cap:
                self._scrolls.pop(next(iter(self._scrolls)))
        return {"scroll_id": sid, "hits": hits}

    def scroll_next(self, scroll_id: str) -> dict:
        """Next scroll page; empty hits once exhausted (the ES
        behavior — the caller stops when a page comes back short)."""
        from excelastic_ray.index.snapshot import resolve_alias

        with self._scrolls_guard:
            ctx = self._scrolls.get(scroll_id)
            if ctx is None:
                raise KeyError(f"unknown scroll_id {scroll_id!r}")
            if ctx["done"] or ctx["cursor"] is None:
                return {"scroll_id": scroll_id, "hits": []}
            index, query, k, cursor = (
                ctx["index"], ctx["query"], ctx["k"], ctx["cursor"]
            )
        targets = resolve_alias(self.index_root, index)
        eng = self._acquire_engine(index, targets)
        t = eng.search(query, k, include_source=True,
                       search_after=(float(cursor[0]), int(cursor[1])))
        hits = t.to_pylist()
        with self._scrolls_guard:
            ctx = self._scrolls.get(scroll_id)
            if ctx is not None:
                if hits:
                    ctx["cursor"] = (hits[-1]["score"], hits[-1]["docid"])
                if len(hits) < k:
                    ctx["done"] = True
        return {"scroll_id": scroll_id, "hits": hits}

    def scroll_clear(self, scroll_id: str) -> dict:
        """ES DELETE /_search/scroll analog."""
        with self._scrolls_guard:
            found = self._scrolls.pop(scroll_id, None) is not None
        return {"released": found}

    def search(self, index: str, query: str, k: int = 10,
               phrase: bool = False, offset: int = 0, slop: int = 0,
               qs: bool = False, qstring: bool = False,
               wildcard: bool = False,
               regexp: bool = False,
               suggest: bool = False, collapse: str | None = None,
               mlt: str | None = None, must: str | None = None,
               must_not: str | None = None,
               msm: int | None = None,
               decay_origin: str | None = None,
               decay_scale: str = "24h",
               search_after: str | None = None,
               fields: str | None = None,
               combined: str | None = None,
               cross: str | None = None, sort_ts: bool = False,
               fuzzy: str | None = None,
               syn: str | None = None, highlight: bool = False,
               explain: str | None = None,
               phrase_prefix: bool = False,
               span_first: int | None = None,
               span_near: int | None = None,
               span_not: str | None = None,
               min_score: float | None = None,
               say: bool = False,
               fragment_size: int | None = None,
               number_of_fragments: int = 5,
               indices_boost: str | None = None,
               inner_hits: int | None = None,
               pit: str | None = None) -> dict:
        from excelastic_ray.index.snapshot import alias_filter, resolve_alias

        targets = resolve_alias(self.index_root, index)
        eng = self._acquire_engine(index, targets)
        if pit is not None:
            # ES point-in-time search: route through the pinned view so
            # concurrent delete/update_by_query don't shift the results
            if len(targets) > 1:
                raise ValueError("pit search must target one index")
            eng = eng.pit(pit)
        # ES filtered alias: the alias's own filter applies to every
        # search through it; supported on the plain relevance modes
        # (incl. paging/highlight/min_score) — the special query modes
        # through a FILTERED alias raise rather than silently ignoring
        # the filter
        aflt = alias_filter(self.index_root, index)
        # every dispatch branch other than the plain relevance modes
        # (incl. paging/highlight/search_after)
        special_mode = bool(
            phrase or qs or qstring or wildcard or regexp or suggest
            or collapse or mlt or must or must_not
            or msm is not None or decay_origin or fields
            or combined or cross or sort_ts or fuzzy or syn
            or explain or phrase_prefix or say
            or span_first is not None or span_near is not None
            or span_not
        )
        if aflt is not None:
            if len(targets) > 1:
                raise ValueError(
                    f"filtered alias {index!r} must target one index"
                )
            if special_mode:
                raise ValueError(
                    f"filtered alias {index!r} supports only the plain "
                    "relevance search modes"
                )
        # parameters that only the plain modes honor must not be
        # silently dropped on the others (the same rule offset follows)
        if min_score is not None and special_mode:
            raise ValueError(
                "min_score rides only the plain relevance search modes"
            )
        if fragment_size is not None and (special_mode or not highlight):
            raise ValueError(
                "fragment_size requires highlight=1 on a plain "
                "relevance search"
            )
        if indices_boost and len(targets) == 1:
            raise ValueError(
                "indices_boost applies to a multi-index alias search"
            )
        if len(targets) > 1:
            # an alias over several indices fans out with combined
            # corpus stats (dfs_query_then_fetch); only the plain
            # relevance search mode is exposed through it, like the
            # reference's Kibana index-pattern default view
            if (phrase or qs or qstring or wildcard or regexp
                    or suggest or collapse
                    or mlt or must or must_not or msm is not None
                    or decay_origin or offset or search_after
                    or fields or combined or cross or sort_ts or fuzzy
                    or syn or highlight
                    or explain or phrase_prefix
                    or span_first is not None or span_near is not None
                    or span_not or min_score is not None or say):
                raise ValueError(
                    f"alias {index!r} spans {len(targets)} indices; "
                    f"only plain unpaged search is supported across "
                    f"indices"
                )
            boosts = None
            if indices_boost:
                boosts = {}
                for spec in indices_boost.split(","):
                    nm, _, mul = spec.rpartition(":")
                    boosts[nm] = float(mul)
            return {"hits": eng.search(query, k,
                                       boosts=boosts).to_pylist()}
        if explain:
            # ES _explain analog: per-term BM25 breakdown of one doc's
            # score for q= (explain="conv_id:turn_idx")
            conv, _, turn = explain.rpartition(":")
            docid = eng.reader.docid_of(conv, int(turn))
            return eng.explain(query, docid)
        if must or must_not or msm is not None:
            # ES bool: q= is the should clause, must=/must_not=/msm=
            # the remaining clauses
            t = eng.search_bool(must=must or "", should=query,
                                must_not=must_not or "", k=k,
                                minimum_should_match=msm)
        elif suggest:
            t = eng.suggest(query)
        elif wildcard:
            t = eng.search_wildcard(query, k)
        elif regexp:
            t = eng.search_regexp(query, k)
        elif mlt:  # "conv_id:turn_idx" of the source doc
            conv, _, turn = mlt.rpartition(":")
            t = eng.more_like_this(conv, int(turn), k=k)
        elif collapse and inner_hits is not None:
            # ES collapse + inner_hits: top-N hits per collapsed group
            t = eng.search_collapse_inner(query, collapse, k=k,
                                          inner_hits=inner_hits)
        elif collapse:
            t = eng.search_collapse(query, collapse, k=k)
        elif decay_origin:
            # ES function_score gauss date decay (recency boost)
            t = eng.search_decay(query, k, origin=decay_origin,
                                 scale=decay_scale)
        elif fields:
            # multi_match over per-field posting streams
            t = eng.search_fields(query, fields.split(","), k=k,
                                  offset=offset)
        elif sort_ts:
            t = eng.search_sorted(query, k, order="desc")
        elif fuzzy:
            fz = fuzzy if fuzzy == "AUTO" else int(fuzzy)
            t = eng.search_fuzzy(query, k, fuzziness=fz)
        elif syn:
            # syn=term=alt|alt2,term2=alt (the CLI --syn format)
            table = {}
            for spec in syn.split(","):
                term, _, alts = spec.partition("=")
                table[term.lower()] = alts.split("|")
            t = eng.search_synonyms(query, table, k)
        elif span_first is not None:
            # ES span_first: q= is the term, span_first= the boundary
            t = eng.search_span_first(query, span_first, k)
        elif span_near is not None:
            # ES span_near: q= two terms, span_near= the slop
            t = eng.search_span_near(query, slop=span_near, k=k)
        elif span_not:
            # ES span_not: q= include term, span_not="exclude:dist"
            exc, sep, dist = span_not.rpartition(":")
            if not sep or not exc or not dist.isdigit():
                raise ValueError(
                    f"span_not expects 'exclude:dist', got {span_not!r}"
                )
            t = eng.search_span_not(query, exc, dist=int(dist), k=k)
        elif say:
            # ES search_as_you_type (multi_match bool_prefix over the
            # root + shingle streams; needs index_shingles >= 2)
            t = eng.search_say(query, k)
        elif phrase_prefix:
            # ES match_phrase_prefix (search-as-you-type)
            t = eng.search_phrase_prefix(query, k, slop=slop)
        elif phrase:
            t = eng.search_phrase(query, k, slop=slop)
        elif combined:
            # ES combined_fields (BM25F): one combined stream across
            # the listed fields (union df, summed tf/dl)
            t = eng.search_combined(query, combined.split(","), k=k)
        elif cross:
            # ES multi_match cross_fields: blended max-df idf,
            # best-field contribution per term
            t = eng.search_cross(query, cross.split(","), k=k)
        elif qstring:
            # full Lucene query_string syntax (quotes, parens,
            # AND/OR/NOT, field:term, wildcards) on the DSL executor
            t = eng.search_string(query, k=k, highlight=highlight)
        elif qs:  # Kibana-style field:term query strings
            t = eng.search_qs(query, k=k, offset=offset)
        elif search_after:
            # stateless deep-paging cursor "score:docid" — the last
            # hit of the previous page (ES search_after). offset passes
            # through so combining the two raises the engine's
            # exclusivity error instead of silently ignoring from=
            s, _, d = search_after.rpartition(":")
            t = eng.search(query, k, include_source=True, offset=offset,
                           search_after=(float(s), int(d)),
                           min_score=min_score, filters=aflt)
        else:
            # highlight rides only the plain relevance mode
            # (fragment_size unset = ES number_of_fragments=0, the
            # whole field; set = the ES default fragment list)
            t = eng.search(query, k, include_source=True, offset=offset,
                           highlight=highlight, min_score=min_score,
                           fragment_size=fragment_size,
                           number_of_fragments=number_of_fragments,
                           filters=aflt)
        return {"hits": t.to_pylist()}
