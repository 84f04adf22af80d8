"""Named ingest pipelines + mapping presets (the reference's
``--pipeline`` / ``--mapping`` import params, ImportEvent.java:19-29)."""

from __future__ import annotations

import json
import os
import time

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from excelastic_ray import ingest
from excelastic_ray.config import IndexConfig

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def test_pipeline_stages_pure():
    b = pa.table({"text": ["  mail me: a@b.co  now ", "", None, "keep"]})
    assert ingest.redact_pii(b)["text"].to_pylist()[0] == \
        "  mail me: <email>  now "
    assert ingest.strip_whitespace(b)["text"].to_pylist()[0] == \
        "mail me: a@b.co now"
    assert ingest.drop_empty_text(b).num_rows == 2


def test_registry_resolution_and_errors():
    assert ingest.resolve_pipelines(None) == []
    chain = ingest.resolve_pipelines("clean,redact_pii")
    assert [f.__name__ for f in chain] == [
        "strip_whitespace", "drop_empty_text", "redact_pii",
    ]
    with pytest.raises(KeyError, match="unknown ingest pipeline"):
        ingest.resolve_pipelines("nope")
    with pytest.raises(KeyError, match="unknown mapping"):
        ingest.resolve_mapping("nope")
    cfg = ingest.resolve_mapping("no_source",
                                 IndexConfig(num_shards=3))
    assert cfg.store_source is False and cfg.num_shards == 3

    ingest.register_pipeline("custom", [ingest.redact_pii])
    assert ingest.resolve_pipelines("custom") == [ingest.redact_pii]
    with pytest.raises(ValueError):
        ingest.register_pipeline("bad", ["not callable"])
    ingest.register_mapping("tiny", {"num_shards": 1})
    assert ingest.resolve_mapping("tiny").num_shards == 1
    with pytest.raises(TypeError):
        ingest.register_mapping("bad", {"no_such_field": 1})


def test_cli_build_with_pipeline_and_mapping(ray_session, tmp_path):
    """--pipeline redacts before indexing; --mapping no_source builds
    without a docstore."""
    import contextlib
    import io as _io

    from excelastic_ray.__main__ import main
    from excelastic_ray.corpus import generate_transcripts
    from excelastic_ray.index.segments import load_global_manifest
    from excelastic_ray.query.engine import QueryEngine

    table = generate_transcripts(n_convs=10, seed=3).to_pandas()
    table.loc[0, "text"] = "contact someone@example.com about the bug"
    src = str(tmp_path / "src")
    os.makedirs(src)
    pq.write_table(pa.Table.from_pandas(table, preserve_index=False),
                   os.path.join(src, "p.parquet"))
    idx = str(tmp_path / "idx")
    out = _io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["build", src, idx, "--clear", "--shards", "2",
                     "--pipeline", "clean,redact_pii",
                     "--mapping", "no_source"]) == 0
    eng = QueryEngine(idx)
    # the email was replaced by <email> BEFORE tokenization: the
    # 'example' term is gone, the 'email' token is findable
    assert eng.search("example", k=5).num_rows == 0
    assert eng.search("email", k=5).num_rows == 1
    assert load_global_manifest(idx)["config"]["store_source"] is False
    with pytest.raises(FileNotFoundError, match="store_source=False"):
        eng.reader.fetch_docs([0])


def test_upload_with_unknown_pipeline_fails_cleanly(ray_session, tmp_path):
    """Validation-before-import: an unknown pipeline name errors the
    import without creating index state."""
    from tests.test_web import _get, _post_multipart

    from excelastic_ray.web import ImportServer

    srv = ImportServer(str(tmp_path / "root")).start()
    base = f"http://127.0.0.1:{srv.port}"
    try:
        payload = open(
            f"{FIXTURES}/test.csv", "rb"
        ).read()
        st, resp = _post_multipart(
            base + "/api/upload",
            {"index": b"p1", "pipeline": b"no_such"},
            ("file", "t.csv", payload),
        )
        assert st == 200  # import id handed out; failure is async
        for _ in range(100):
            _, body = _get(base + f"/api/status?id={resp['id']}")
            rec = json.loads(body)
            if rec["status"] in ("complete", "error"):
                break
            time.sleep(0.1)
        assert rec["status"] == "error"
        assert "unknown ingest pipeline" in rec["error"]
        assert not os.path.exists(srv.index_dir("p1"))
    finally:
        srv.stop()


def test_upload_with_pipeline_redacts(ray_session, tmp_path):
    from tests.test_web import _get, _post_multipart

    from excelastic_ray.web import ImportServer

    srv = ImportServer(str(tmp_path / "root2")).start()
    base = f"http://127.0.0.1:{srv.port}"
    try:
        csv = b"name,mail\ntest_0,a@b.co\ntest_1,plain\n"
        st, resp = _post_multipart(
            base + "/api/upload",
            {"index": b"p2", "pipeline": b"redact_pii"},
            ("file", "t.csv", csv),
        )
        assert st == 200
        for _ in range(200):
            _, body = _get(base + f"/api/status?id={resp['id']}")
            rec = json.loads(body)
            if rec["status"] in ("complete", "error"):
                break
            time.sleep(0.1)
        assert rec["status"] == "complete", rec
        _, body = _get(base + "/api/search?index=p2&q=email&k=5")
        hits = json.loads(body)["hits"]
        assert len(hits) == 1 and "<email>" in hits[0]["text"]
    finally:
        srv.stop()
