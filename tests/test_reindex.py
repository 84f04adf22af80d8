"""ES ``_reindex`` analog: rebuilding from the docstore under a new
config equals a from-scratch build over the equivalent (mutated)
corpus — tombstones drop out, DV overlays bake in, and the new index
carries no mutation files."""

from __future__ import annotations

import os

import pyarrow as pa
import pytest

from excelastic_ray.config import IndexConfig
from excelastic_ray.corpus import generate_transcripts
from excelastic_ray.index.build import build_index, reindex
from excelastic_ray.query.engine import QueryEngine

CFG = IndexConfig(turn_bits=8, convs_per_chunk_bits=3, num_shards=4)


@pytest.fixture()
def src(tmp_path, ray_session):
    import ray.data as rd

    table = generate_transcripts(n_convs=24, seed=21)
    path = str(tmp_path / "src")
    build_index(rd.from_arrow(table), path, CFG, clear=True)
    return path, table


def test_plain_reindex_equals_source_results(src, tmp_path):
    path, table = src
    dst = str(tmp_path / "dst")
    res = reindex(path, dst)
    assert res.n_docs == table.num_rows
    a, b = QueryEngine(path), QueryEngine(dst)
    for q in ("the run", "call tool", "ok a of"):
        assert a.search(q, k=50).equals(b.search(q, k=50))
    # per-turn text equality through the new docstore
    docid = a.search("the", k=1)["docid"][0].as_py()
    assert (
        a.reader.fetch_docs([docid], columns=["text"])["text"][0]
        == b.reader.fetch_docs([docid], columns=["text"])["text"][0]
    )


def test_reindex_new_config_and_mutations_baked(src, tmp_path):
    import ray.data as rd

    path, table = src
    eng = QueryEngine(path)
    n_del = eng.delete_by_query(filters={"role": "tool"})
    assert n_del > 0
    eng = QueryEngine(path)
    eng.update_by_query(filters={"role": "user"},
                        set_values={"tool": "archived"})

    new_cfg = IndexConfig(turn_bits=8, convs_per_chunk_bits=2,
                          num_shards=2)
    dst = str(tmp_path / "dst")
    reindex(path, dst, new_cfg)

    # equivalent from-scratch corpus: drop tool-role rows, overlay tool
    df = table.to_pandas()
    df = df[df["role"] != "tool"].copy()
    df.loc[df["role"] == "user", "tool"] = "archived"
    ref = str(tmp_path / "ref")
    build_index(rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False)),
                ref, new_cfg, clear=True, strict_turns=False)

    a, b = QueryEngine(dst), QueryEngine(ref)
    assert a.reader.n_docs == b.reader.n_docs == len(df)
    for q in ("the run", "call tool", "ok a of"):
        assert a.search(q, k=100).equals(b.search(q, k=100))
    assert a.facets("the", "tool") == b.facets("the", "tool")
    # mutation files do not carry over
    for s in range(new_cfg.num_shards):
        from excelastic_ray.index import segments as seg

        sd = seg.shard_dir(dst, s)
        assert not os.path.exists(os.path.join(sd, "deletes.parquet"))
        assert not os.path.exists(os.path.join(sd, "updates.parquet"))


def test_reindex_incomplete_source_raises(tmp_path, ray_session):
    with pytest.raises((FileNotFoundError, RuntimeError)):
        reindex(str(tmp_path / "nope"), str(tmp_path / "out"))


def test_reindex_all_null_attr_column(tmp_path, ray_session):
    """Regression: a docstore column that is ALL null (e.g. `tool` in a
    corpus with no tool turns) used to round-trip as Arrow `null` type
    and explode into a null Categorical category inside the reindex
    shuffle — the docstore now writes explicit string types and the
    stamp stage casts any legacy null-typed column."""
    import numpy as np
    import ray.data as rd

    n = 30
    t = pa.table(
        {
            "conv_id": pa.array([f"c{i // 3:03d}" for i in range(n)]),
            "turn_idx": pa.array([i % 3 for i in range(n)],
                                 type=pa.int32()),
            "role": pa.array(["user"] * n),
            "tool": pa.array([None] * n, type=pa.string()),
            "ts": pa.array([np.datetime64("2026-01-01", "us")] * n),
            "text": pa.array([f"alpha w{i}" for i in range(n)]),
        }
    )
    cfg = IndexConfig(turn_bits=6, convs_per_chunk_bits=2, num_shards=2)
    src = str(tmp_path / "src")
    dst = str(tmp_path / "dst")
    build_index(rd.from_arrow(t), src, cfg, clear=True)
    reindex(src, dst)
    a, b = QueryEngine(src), QueryEngine(dst)
    assert a.reader.n_docs == b.reader.n_docs == n
    assert a.search("alpha", k=50).equals(b.search("alpha", k=50))


def test_reindex_runs_no_schema_probe(src, tmp_path, monkeypatch):
    """reindex takes its columns from the docstore's Parquet footer.
    Asking Ray Data for the schema of ``live_source`` (a Dataset ending
    in ``map_batches``) would run it up to its first block, and a cancel
    of that run can abort Ray's core worker; so no ``Dataset.schema()``
    call may happen, and the result still equals a from-scratch build
    of the live, overlaid corpus."""
    import ray.data as rd

    path, table = src
    eng = QueryEngine(path)
    assert eng.delete_by_query(filters={"role": "tool"}) > 0
    QueryEngine(path).update_by_query(filters={"role": "user"},
                                      set_values={"tool": "archived"})

    real_schema = rd.Dataset.schema

    def refuse(self, fetch_if_missing=True):
        # Ray's own key checks pass fetch_if_missing=False: never runs
        if fetch_if_missing:
            raise AssertionError("Dataset.schema() called during reindex")
        return real_schema(self, fetch_if_missing=False)

    dst = str(tmp_path / "dst")
    with monkeypatch.context() as m:
        m.setattr(rd.Dataset, "schema", refuse)
        reindex(path, dst)

    df = table.to_pandas()
    df = df[df["role"] != "tool"].copy()
    df.loc[df["role"] == "user", "tool"] = "archived"
    ref = str(tmp_path / "ref")
    build_index(rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False)),
                ref, CFG, clear=True, strict_turns=False)
    a, b = QueryEngine(dst), QueryEngine(ref)
    assert a.reader.n_docs == b.reader.n_docs == len(df)
    for q in ("the run", "call tool", "ok a of"):
        assert a.search(q, k=100).equals(b.search(q, k=100))
    assert a.facets("the", "tool") == b.facets("the", "tool")
