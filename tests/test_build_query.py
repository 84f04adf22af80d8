"""End-to-end: distributed build + query vs the pure-Python oracle.

The distributed engine must be RANK-IDENTICAL — same docids AND same
float64 scores, compared with ``==``, never approx — to the
single-process oracle on the reference query set (SURVEY.md §5;
north_star "rank-identical top-k docIDs and scores").
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from excelastic_ray.index.build import ValidationError, build_index
from excelastic_ray.query.engine import IndexReader, QueryEngine


@pytest.fixture(scope="module")
def engine(tiny_index):
    d, _ = tiny_index
    return QueryEngine(IndexReader(d))


def _frequency_ranked(tiny_table) -> list[str]:
    from collections import Counter

    from excelastic_ray.analysis import tokenize

    counts = Counter()
    for t in tiny_table["text"].to_pylist():
        counts.update(tokenize(t))
    return [t for t, _ in counts.most_common()]


def _live_terms(eng, q):
    """(term, global idf) for the query's terms with df > 0, sorted —
    what :meth:`QueryEngine.search` hands every shard's ``topk``."""
    from excelastic_ray.query.bm25 import idf

    r = eng.reader
    terms = eng._qt(q)
    dfs = eng._global_dfs(terms)
    return [(t, idf(r.n_docs, int(d))) for t, d in zip(terms, dfs) if d > 0]


def _assert_skip_equals_taat(eng, q, k, mode, filters=None):
    """On every shard searcher, the skip scorer for ``mode`` returns
    exactly what ``_topk_taat`` returns for the same shard query."""
    r = eng.reader
    live = _live_terms(eng, q)
    for s in range(r.num_shards):
        ss = r.searcher(s)
        present = [(t, f) for t, f in live if ss.lookup(t) >= 0]
        if not present or (mode == "and" and len(present) < len(live)):
            continue  # topk answers these before any scorer runs
        mask = ss.filter_mask(filters)
        if mode == "and":
            a = ss._topk_and_skip(present, r.avgdl, k, mask)
            b = ss._topk_taat(present, r.avgdl, k, mask, len(present))
        else:
            a = ss._topk_or_skip(present, r.avgdl, k, mask)
            b = ss._topk_taat(present, r.avgdl, k, mask)
        assert np.array_equal(a[0], b[0]), (q, k, s)
        assert np.array_equal(a[1], b[1]), (q, k, s)


def test_manifest_counts(tiny_index, tiny_table, tiny_oracle):
    d, res = tiny_index
    assert res.n_docs == tiny_table.num_rows
    assert res.n_convs == 120
    assert res.n_chunks == 8  # 120 convs / 16 per chunk
    assert res.avgdl == pytest.approx(tiny_oracle.avgdl)
    assert res.n_postings > 0 and res.bytes_compressed > 0


@pytest.mark.parametrize("k", [1, 10, 100])
def test_rank_identical_vs_oracle(engine, tiny_oracle, query_set, k):
    for q in query_set:
        expect = tiny_oracle.search(q, k)
        got = engine.search_topk(q, k)
        assert got == expect, (q, got[:3], expect[:3])


def test_and_skip_equals_taat_randomized(engine, tiny_table, tiny_oracle):
    """The vectorized block-skip conjunction scorer must be
    bit-identical to TAAT (and the oracle) on random AND queries mixing
    frequency classes — the rare+hot shape it is gated in for, plus
    degenerate all-rare / all-hot mixes, with and without filters."""
    ranked = _frequency_ranked(tiny_table)
    hot, rare = ranked[:20], ranked[-40:]
    rng = np.random.default_rng(11)
    for _ in range(40):
        n_h = int(rng.integers(1, 3))
        n_r = int(rng.integers(1, 3))
        picks = (
            [hot[int(rng.integers(0, len(hot)))] for _ in range(n_h)]
            + [rare[int(rng.integers(0, len(rare)))] for _ in range(n_r)]
        )
        q = " ".join(picks)
        for k in (1, 5, 25):
            _assert_skip_equals_taat(engine, q, k, "and")
    # filters compose identically
    q = f"{hot[0]} {rare[0]}"
    _assert_skip_equals_taat(engine, q, 10, "and", filters={"role": "user"})
    # oracle anchor on a conjunctive query with survivors
    got = engine.search(q, 10, mode="and")
    exp = tiny_oracle.search(q, 10, mode="and")
    assert list(zip(got["docid"].to_pylist(),
                    got["score"].to_pylist())) == exp


def test_or_skip_equals_taat_randomized(engine, tiny_table, tiny_oracle):
    """The vectorized MaxScore disjunction scorer must be bit-identical
    to TAAT (and the oracle) on random OR queries mixing frequency
    classes — rare+hot (the pruning shape), all-hot / all-rare (the
    TAAT-fallback shape), single-term (degenerate fallback), with and
    without filters, at k small enough for θ0 to exist and large
    enough to force the fallback."""
    ranked = _frequency_ranked(tiny_table)
    hot, rare = ranked[:20], ranked[-40:]
    rng = np.random.default_rng(23)
    for _ in range(40):
        n_h = int(rng.integers(0, 3))
        n_r = int(rng.integers(1, 3))
        picks = (
            [hot[int(rng.integers(0, len(hot)))] for _ in range(n_h)]
            + [rare[int(rng.integers(0, len(rare)))] for _ in range(n_r)]
        )
        q = " ".join(picks)
        for k in (1, 5, 25, 500):
            _assert_skip_equals_taat(engine, q, k, "or")
    # filters compose identically (θ0 must come from masked docs only)
    q = f"{hot[0]} {rare[0]}"
    _assert_skip_equals_taat(engine, q, 10, "or", filters={"role": "user"})
    # oracle anchor on the pruning shape
    got = engine.search(q, 10, mode="or")
    exp = tiny_oracle.search(q, 10, mode="or")
    assert list(zip(got["docid"].to_pylist(),
                    got["score"].to_pylist())) == exp


def test_auto_gates_and_skip_on_skew(engine, tiny_table, tiny_oracle):
    """topk picks and_skip exactly when the query is conjunctive AND
    the shard-local dfs are skewed, or_skip when it is disjunctive,
    skewed and the rare term carries >= k postings, TAAT otherwise and
    always under search_after; results equal the oracle either way.
    Swept over each shard's hottest term paired with every other term,
    so df ratios on both sides of the skew bound are covered."""
    r = engine.reader
    after = (1.0, 0)
    picked = set()
    near_bound = [0, 0]  # df ratio in [32, 64) / [64, 128)
    for s in range(r.num_shards):
        ss = r.searcher(s)
        hot = int(np.argmax(ss.df))
        for i in range(len(ss.terms)):
            if i == hot:
                continue
            present = [(ss.terms[hot], 1.0), (ss.terms[i], 1.0)]
            lo, hi = int(ss.df[i]), int(ss.df[hot])
            skewed = lo <= 65536 and lo * 64 <= hi
            if lo * 32 <= hi < lo * 128:
                near_bound[skewed] += 1
            assert ss._pick_scorer(present, 10, 2, None) == (
                "and_skip" if skewed else "taat")
            assert ss._pick_scorer(present, 10, 2, after) == "taat"
            assert ss._pick_scorer(present, 10, 1, None) == "taat"
            assert ss._pick_scorer(present[:1], 10, 1, None) == "taat"
            for k in (1, 10):
                pick = ss._pick_scorer(present, k, 0, None)
                assert pick == (
                    "or_skip" if skewed and k <= lo else "taat")
                assert ss._pick_scorer(present, k, 0, after) == "taat"
                picked.add(pick)
            picked.add(ss._pick_scorer(present, 10, 2, None))
    # the tiny corpus exercises every scorer and both sides of the bound
    assert picked == {"and_skip", "or_skip", "taat"}
    assert min(near_bound) > 0
    ranked = _frequency_ranked(tiny_table)
    hot_rare = f"{ranked[0]} {ranked[-1]}"  # hottest + rarest
    for mode in ("and", "or"):
        t = engine.search(hot_rare, 10, mode=mode)
        assert list(zip(t["docid"].to_pylist(), t["score"].to_pylist())) \
            == tiny_oracle.search(hot_rare, 10, mode=mode)


def test_actor_mode_matches_local(tiny_index, query_set):
    d, _ = tiny_index
    eng = QueryEngine(d, use_actors=True)
    local = QueryEngine(d)
    try:
        for q in query_set[:5]:
            assert eng.search_topk(q, 10) == local.search_topk(q, 10)
    finally:
        eng.close()


def test_search_result_keys(engine, tiny_oracle, query_set):
    t = engine.search(query_set[5], 10)
    assert t.column_names == ["rank", "docid", "conv_id", "turn_idx", "score"]
    for docid, conv, turn in zip(
        t["docid"].to_pylist(), t["conv_id"].to_pylist(), t["turn_idx"].to_pylist()
    ):
        assert tiny_oracle.keys_of(docid) == (conv, turn)


def test_df_and_global_stats(tiny_index, tiny_oracle, query_set):
    d, _ = tiny_index
    eng = QueryEngine(d)
    r = eng.reader
    assert r.n_docs == tiny_oracle.n_docs
    assert r.avgdl == pytest.approx(tiny_oracle.avgdl)
    from excelastic_ray.analysis import query_terms

    terms = sorted({t for q in query_set for t in query_terms(q)})
    dfs = eng._global_dfs(terms)
    for t, df in zip(terms, dfs):
        assert int(df) == tiny_oracle.df(t), t


def test_docid_order_is_conv_turn_order(tiny_index):
    """Docid ascending == (conv_id, turn_idx) lexicographic — the stable
    turn ordering invariant (ExcelParser.java:147-153 analog)."""
    from excelastic_ray.index.segments import read_docstore

    d, _ = tiny_index
    r = IndexReader(d)
    store = read_docstore(d)
    docids = np.sort(store["docid"].to_numpy())
    conv, turn = r.keys_of(docids)
    order = np.lexsort((turn, conv.astype(str)))
    assert (order == np.arange(len(order))).all()


def test_docstore_text_equality(tiny_index, tiny_table):
    """Per-turn text equality vs the source Parquet under stable turn
    ordering (the input_hint per-row invariant)."""
    from excelastic_ray.index.segments import read_docstore

    d, _ = tiny_index
    store = read_docstore(d).to_pandas()
    src = tiny_table.select(["conv_id", "turn_idx", "text"]).to_pandas()
    store = store.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    src = src.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    assert len(store) == len(src)
    assert (store["conv_id"] == src["conv_id"]).all()
    assert (store["turn_idx"].to_numpy() == src["turn_idx"].to_numpy()).all()
    assert (store["text"] == src["text"]).all()


def test_resume_skips_completed_and_rebuilds_missing(
    tmp_path, tiny_corpus_dir, tiny_config, tiny_index
):
    """Delete a chunk segment + a shard from a complete index; a resumed
    build must rebuild exactly those, byte-identical to the original."""
    import shutil

    d0, _ = tiny_index
    d = str(tmp_path / "idx_resume")
    shutil.copytree(d0, d)

    victim_chunk = os.path.join(d, "segments", "chunk=00000003")
    victim_shard = os.path.join(d, "shards", "shard=00003")
    orig_seg = open(os.path.join(victim_chunk, "postings.parquet"), "rb").read()
    orig_shard = open(os.path.join(victim_shard, "postings.parquet"), "rb").read()
    shutil.rmtree(victim_chunk)
    shutil.rmtree(victim_shard)

    res = build_index(tiny_corpus_dir, d, tiny_config, resume=True)
    assert res.chunks_built == 1
    assert res.chunks_skipped == 7
    assert open(os.path.join(victim_chunk, "postings.parquet"), "rb").read() == orig_seg
    assert (
        open(os.path.join(victim_shard, "postings.parquet"), "rb").read() == orig_shard
    )


def test_build_is_deterministic_across_parallelism(
    tmp_path, tiny_corpus_dir, tiny_config, tiny_index
):
    """Same input at a different parallelism/batch size → byte-identical
    segments (the docid-determinism requirement, SURVEY.md §7.4)."""
    from dataclasses import replace

    d0, _ = tiny_index
    d = str(tmp_path / "idx_par")
    cfg = replace(tiny_config, batch_size=37)
    build_index(tiny_corpus_dir, d, cfg, clear=True, parallelism=2)
    for name in sorted(os.listdir(os.path.join(d0, "segments"))):
        a = open(os.path.join(d0, "segments", name, "postings.parquet"), "rb").read()
        b = open(os.path.join(d, "segments", name, "postings.parquet"), "rb").read()
        assert a == b, name


def test_validation_duplicate_turn(tmp_path, tiny_config):
    import pyarrow as pa
    import ray.data as rd

    bad = pa.table(
        {
            "conv_id": ["c1", "c1", "c1"],
            "turn_idx": pa.array([0, 1, 1], type=pa.int32()),
            "text": ["a", "b", "c"],
        }
    )
    with pytest.raises(ValidationError):
        build_index(rd.from_arrow(bad), str(tmp_path / "i1"), tiny_config, clear=True)


def test_validation_gapped_turns(tmp_path, tiny_config):
    import pyarrow as pa
    import ray.data as rd

    bad = pa.table(
        {
            "conv_id": ["c1", "c1"],
            "turn_idx": pa.array([0, 2], type=pa.int32()),
            "text": ["a", "b"],
        }
    )
    with pytest.raises(ValidationError):
        build_index(rd.from_arrow(bad), str(tmp_path / "i2"), tiny_config, clear=True)


def test_validation_missing_column(tmp_path, tiny_config):
    import pyarrow as pa
    import ray.data as rd

    bad = pa.table({"conv_id": ["c1"], "turn_idx": pa.array([0], type=pa.int32())})
    with pytest.raises(ValidationError):
        build_index(rd.from_arrow(bad), str(tmp_path / "i3"), tiny_config, clear=True)


def test_config_mismatch_refuses(tmp_path, tiny_corpus_dir, tiny_config, tiny_index):
    from dataclasses import replace

    d0, _ = tiny_index
    other = replace(tiny_config, num_shards=2)
    with pytest.raises(ValidationError):
        build_index(tiny_corpus_dir, d0, other, resume=True)


def test_empty_text_counts_toward_stats(tmp_path, tiny_config):
    import pyarrow as pa
    import ray.data as rd

    from excelastic_ray.query.oracle import BM25Oracle

    t = pa.table(
        {
            "conv_id": ["c1", "c1", "c2"],
            "turn_idx": pa.array([0, 1, 0], type=pa.int32()),
            "text": ["hello world", None, "hello"],
        }
    )
    d = str(tmp_path / "i4")
    res = build_index(rd.from_arrow(t), d, tiny_config, clear=True)
    assert res.n_docs == 3
    oracle = BM25Oracle(t, tiny_config)
    eng = QueryEngine(d)
    assert eng.search_topk("hello", 5) == oracle.search("hello", 5)


def test_ingest_transforms_and_build_status(tmp_path, tiny_config):
    """ES ingest-pipeline knob (ImportEvent.java:44,61) + progress
    accounting (ElasticWriter.java:147-156 analogs)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from excelastic_ray.index.build import build_status

    t = pa.table(
        {
            "conv_id": ["c1", "c1", "c2"],
            "turn_idx": pa.array([0, 1, 0], type=pa.int32()),
            "text": ["Hello WORLD", "MiXeD Case", "UPPER"],
        }
    )

    def lower_text(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index("text"),
            "text",
            pc.utf8_lower(batch["text"]),
        )

    d = str(tmp_path / "i_tr")
    build_index(rd.from_arrow(t), d, tiny_config, clear=True,
                transforms=[lower_text])
    from excelastic_ray.index.segments import read_docstore

    store = read_docstore(d, columns=["text"])
    assert set(store["text"].to_pylist()) == {"hello world", "mixed case", "upper"}

    st = build_status(d)
    assert st["status"] == "complete"
    assert st["percent"] == 100.0
    assert st["turns_tokenized"] == 3
    assert st["postings_emitted"] > 0
    assert build_status(str(tmp_path / "nope"))["status"] == "absent"


def test_filtered_search_matches_clientside_filter(tiny_index, tiny_table):
    """ES filter-context parity: filters restrict results WITHOUT
    changing BM25 stats; equal to filtering an exhaustive unfiltered
    result client-side."""
    import pandas as pd

    d, _ = tiny_index
    eng = QueryEngine(d)
    role_of = {
        (c, t): r
        for c, t, r in zip(
            tiny_table["conv_id"].to_pylist(),
            tiny_table["turn_idx"].to_pylist(),
            tiny_table["role"].to_pylist(),
        )
    }
    for q in ("the w00001", "w00042 the to"):
        full = eng.search(q, 10_000).to_pandas()
        expect = full[
            [
                role_of[(c, t)] == "assistant"
                for c, t in zip(full["conv_id"], full["turn_idx"])
            ]
        ]
        got = eng.search(q, 10_000, filters={"role": "assistant"}).to_pandas()
        assert list(got["docid"]) == list(expect["docid"])
        assert list(got["score"]) == list(expect["score"])
        # list-valued filter agrees
        got2 = eng.search(q, 10_000, filters={"role": ["assistant"]}).to_pandas()
        assert got2["docid"].tolist() == got["docid"].tolist()


def test_filtered_search_unknown_attr_raises(tiny_index):
    d, _ = tiny_index
    eng = QueryEngine(d)
    with pytest.raises(KeyError):
        eng.search("the", 5, filters={"nosuch": "x"})


def test_and_mode_matches_oracle(engine, tiny_oracle, query_set):
    """ES operator=and parity: every query term must match; scores are
    identical to OR mode; rank identity vs the oracle holds."""
    for q in query_set:
        expect = tiny_oracle.search(q, 25, mode="and")
        t = engine.search(q, 25, mode="and")
        got = list(zip(t["docid"].to_pylist(), t["score"].to_pylist()))
        assert got == expect, q
        # AND results are a subset of OR results with equal scores
        or_scores = dict(tiny_oracle.search(q, 100_000))
        for docid, score in got:
            assert or_scores[docid] == score


def test_and_mode_absent_term_empty(tiny_index):
    d, _ = tiny_index
    eng = QueryEngine(d)
    assert eng.search("the zz_never_seen", 10, mode="and").num_rows == 0
    assert eng.search("the", 10, mode="or").num_rows > 0


def test_search_many_matches_single(tiny_index, query_set):
    d, _ = tiny_index
    local = QueryEngine(d)
    eng = QueryEngine(d, use_actors=True)
    try:
        batch = eng.search_many(query_set, 10)
        for i, q in enumerate(query_set):
            single = local.search(q, 10)
            sub = batch.filter(
                __import__("pyarrow").compute.equal(batch["query_id"], i)
            )
            assert sub["docid"].to_pylist() == single["docid"].to_pylist()
            assert sub["score"].to_pylist() == single["score"].to_pylist()
    finally:
        eng.close()


def test_unicode_punctuation_analyzer_parity(tmp_path, tiny_config):
    """Analyzer contract on messy text: unicode letters fall outside
    [a-z0-9_] (documented deviation from ES standard analyzer, shared
    identically by engine/oracle/SQL), punctuation splits tokens."""
    import pyarrow as pa
    import ray.data as rd

    from excelastic_ray.query.oracle import BM25Oracle

    t = pa.table(
        {
            "conv_id": ["c1", "c1", "c2"],
            "turn_idx": pa.array([0, 1, 0], type=pa.int32()),
            "text": [
                "Café-au-lait, naïve RÉSUMÉ!",
                "snake_case and CamelCase 42x",
                "emoji 🙂 and\ttabs\nnewlines",
            ],
        }
    )
    d = str(tmp_path / "uni")
    build_index(rd.from_arrow(t), d, tiny_config, clear=True)
    oracle = BM25Oracle(t, tiny_config)
    eng = QueryEngine(d)
    for q in ("caf", "au lait", "snake_case", "camelcase", "42x", "emoji",
              "tabs newlines", "résumé"):
        assert eng.search_topk(q, 10) == oracle.search(q, 10), q


def test_count_and_facets(tiny_index, tiny_oracle, query_set, tiny_table):
    """ES _count + terms-agg analogs vs brute-force oracle counts."""
    d, _ = tiny_index
    role_of = {
        (c, t): r
        for c, t, r in zip(
            tiny_table["conv_id"].to_pylist(),
            tiny_table["turn_idx"].to_pylist(),
            tiny_table["role"].to_pylist(),
        )
    }
    for use_actors in (False, True):
        eng = QueryEngine(d, use_actors=use_actors)
        try:
            for q in query_set[:6]:
                full = tiny_oracle.search(q, 100_000)
                assert eng.count(q) == len(full), q
                expect: dict = {}
                for docid, _ in full:
                    r = role_of[tiny_oracle.keys_of(docid)]
                    expect[r] = expect.get(r, 0) + 1
                assert eng.facets(q, "role") == dict(sorted(expect.items())), q
            and_full = tiny_oracle.search(query_set[-2], 100_000, mode="and")
            assert eng.count(query_set[-2], mode="and") == len(and_full)
        finally:
            eng.close()


def test_search_include_source(tiny_index, tiny_table):
    """ES _source fetch phase: hits carry the stored turn columns,
    fetched by chunk-pruned point lookups."""
    d, _ = tiny_index
    eng = QueryEngine(d)
    t = eng.search("the w00001", 10, include_source=True)
    assert "text" in t.column_names and "role" in t.column_names
    text_of = {
        (c, ti): x
        for c, ti, x in zip(
            tiny_table["conv_id"].to_pylist(),
            tiny_table["turn_idx"].to_pylist(),
            tiny_table["text"].to_pylist(),
        )
    }
    for c, ti, x in zip(
        t["conv_id"].to_pylist(), t["turn_idx"].to_pylist(), t["text"].to_pylist()
    ):
        assert text_of[(c, ti)] == x


def test_empty_corpus_and_empty_query(tmp_path, tiny_config):
    """Degenerate inputs: an empty corpus builds an empty-but-valid
    index; empty/whitespace queries return empty results."""
    import pyarrow as pa
    import ray.data as rd

    empty = pa.table(
        {
            "conv_id": pa.array([], type=pa.string()),
            "turn_idx": pa.array([], type=pa.int32()),
            "text": pa.array([], type=pa.string()),
        }
    )
    d = str(tmp_path / "empty_idx")
    res = build_index(rd.from_arrow(empty), d, tiny_config, clear=True)
    assert res.n_docs == 0 and res.n_convs == 0
    eng = QueryEngine(d)
    assert eng.search("anything", 10).num_rows == 0
    assert eng.count("anything") == 0

    d2, _ = None, None  # noqa: F841 (clarity)


def test_blank_query_on_real_index(tiny_index):
    d, _ = tiny_index
    eng = QueryEngine(d)
    assert eng.search("", 10).num_rows == 0
    assert eng.search("   ,,, !!", 10).num_rows == 0
    assert eng.count("") == 0
    assert eng.facets("", "role") == {}


def test_streaming_merge_flush_size_invariant(
    ray_session, tiny_config, tiny_index, tmp_path
):
    """Shard postings are byte-identical whether the streaming merger
    flushes every 2 terms or holds everything — the row-group size is a
    memory knob, not a semantic one (the merge never needs the whole
    shard in memory). Re-merges the built chunk segments locally with a
    tiny flush threshold and compares against the pooled-merge shards."""
    import json
    import shutil

    import pyarrow.parquet as pq

    from excelastic_ray.index.build import SegmentMerger

    base_dir, _ = tiny_index
    d2 = str(tmp_path / "idx_smallflush")
    os.makedirs(d2)
    shutil.copytree(os.path.join(base_dir, "segments"),
                    os.path.join(d2, "segments"))
    merger = SegmentMerger(d2, tiny_config.to_dict(), flush_bytes=1,
                           flush_terms=2)
    shards = sorted(os.listdir(os.path.join(base_dir, "shards")))
    for shard in shards:
        with open(os.path.join(base_dir, "shards", shard, "MANIFEST.json")) as f:
            chunks = json.load(f)["chunks"]
        merger._merge_shard(int(shard.split("=")[1]), chunks)
        a = pq.read_table(os.path.join(base_dir, "shards", shard, "postings.parquet"))
        b = pq.read_table(os.path.join(d2, "shards", shard, "postings.parquet"))
        assert a.equals(b), shard
        # the tiny flush threshold really did produce many row groups
        meta = pq.ParquetFile(
            os.path.join(d2, "shards", shard, "postings.parquet")
        ).metadata
        assert meta.num_row_groups >= meta.num_rows // 2


def test_fetch_docs_missing_docid_raises(ray_session, tiny_index):
    """fetch_docs must KeyError on a docid absent from the docstore, not
    silently return a neighboring row (searchsorted guard). A fetch
    spanning every chunk reads them in the calling thread, starting no
    thread, and returns rows in request order with or without
    ``columns=``."""
    import threading

    import pytest as _pytest

    idx_dir, result = tiny_index
    reader = IndexReader(idx_dir)
    cfg = reader.cfg
    ranks = np.flatnonzero(reader.conv_ids != None)  # noqa: E711
    # turns 0 and 1 of every conversation (each has at least two)
    want = np.concatenate([ranks << cfg.turn_bits,
                           (ranks << cfg.turn_bits) | 1])
    np.random.default_rng(0).shuffle(want)
    chunks = want >> (cfg.turn_bits + cfg.convs_per_chunk_bits)
    assert len(set(chunks.tolist())) == reader.manifest["n_chunks"] > 1
    threads = threading.active_count()
    for cols in (None, ["text"], ["role", "conv_id"]):
        got = IndexReader(idx_dir).fetch_docs(want, columns=cols)
        assert got["docid"].to_pylist() == want.tolist()
        if cols:
            assert got.column_names == ["docid", *cols]
    assert threading.active_count() == threads
    store = reader.fetch_docs([0])  # docid 0 exists (first conv, turn 0)
    assert store["docid"].to_pylist() == [0]
    absent = (1 << 40) | 63  # far outside any built chunk... but same chunk math
    with _pytest.raises((KeyError, FileNotFoundError)):
        reader.fetch_docs([absent])
    # absent docid inside an EXISTING chunk must also raise
    with _pytest.raises(KeyError):
        reader.fetch_docs([63])  # turn 63 of conv 0 doesn't exist


def test_phrase_rank_identity_vs_oracle(
    ray_session, tiny_index, tiny_table, tiny_config, tiny_oracle
):
    """match_phrase engine (local + actor-served) is bit-identical to
    the pure-Python phrase oracle: bigram, trigram, absent phrase,
    duplicate-term phrase, single-term phrase."""
    from excelastic_ray.analysis import tokenize

    idx_dir, _ = tiny_index
    texts = tiny_table["text"].to_pylist()
    t0 = tokenize(texts[0])
    t7 = tokenize(texts[7])
    phrases = [
        " ".join(t0[:2]),
        " ".join(t0[1:4]),
        " ".join(t7[2:4]),
        "zzz absent phrase",
        t0[0],
        f"{t0[0]} {t0[0]}",  # duplicate-term phrase
    ]
    eng = QueryEngine(idx_dir)
    eng_actors = QueryEngine(idx_dir, use_actors=True)
    try:
        for q in phrases:
            exp = tiny_oracle.phrase_search(q, 10)
            for e in (eng, eng_actors):
                t = e.search_phrase(q, 10)
                got = list(zip(t["docid"].to_pylist(), t["score"].to_pylist()))
                assert got == exp, q
    finally:
        eng_actors.close()


def test_positions_survive_merge(ray_session, tiny_index, tiny_table,
                                 tiny_config, tiny_oracle):
    """Decoded shard positions equal the oracle's token positions for a
    sample of terms (the merge concat preserved every position list)."""
    from excelastic_ray.query.engine import IndexReader

    idx_dir, _ = tiny_index
    r = IndexReader(idx_dir)
    import numpy as np

    checked = 0
    for s in range(r.num_shards):
        sr = r.searcher(s)
        for i in range(0, len(sr.terms), max(1, len(sr.terms) // 7)):
            term = str(sr.terms[i])
            ids, tfs = sr.posting_list(i).decode_all()
            pos = sr.positions_of(i, tfs)
            flat_docs = np.repeat(sr.docids[ids], tfs)
            shard_docs = set(sr.docids.tolist())
            exp = {
                d: p
                for d, p in tiny_oracle.positions.get(term, {}).items()
                if d in shard_docs  # shards are doc-partitioned
            }
            got: dict[int, list[int]] = {}
            for d, p in zip(flat_docs, pos):
                got.setdefault(int(d), []).append(int(p))
            assert got == exp, term
            checked += 1
    assert checked > 10


def test_pagination_equals_client_side_slice(ray_session, tiny_index):
    """search(offset=f) == full ranking sliced [f:f+k], ranks f+1.."""
    idx_dir, _ = tiny_index
    eng = QueryEngine(idx_dir)
    full = eng.search("w00005 w00004 the", 500)
    for f, k in ((0, 5), (3, 4), (10, 10), (25, 10), (100, 5)):
        page = eng.search("w00005 w00004 the", k, offset=f)
        exp_ids = full["docid"].to_pylist()[f : f + k]
        assert page["docid"].to_pylist() == exp_ids, (f, k)
        assert page["score"].to_pylist() == full["score"].to_pylist()[f : f + k]
        assert page["rank"].to_pylist() == list(range(f + 1, f + 1 + len(exp_ids)))


def test_highlight_wraps_query_terms(ray_session, tiny_index):
    from excelastic_ray.query.engine import highlight_text

    assert highlight_text("The cat AND the dog", ["the", "dog"]) == (
        "<em>The</em> cat AND <em>the</em> <em>dog</em>"
    )
    assert highlight_text("", ["x"]) == ""
    assert highlight_text("no match here", ["zzz"]) == "no match here"

    idx_dir, _ = tiny_index
    eng = QueryEngine(idx_dir)
    t = eng.search("w00005", 5, highlight=True)
    assert "highlight" in t.column_names
    for snip in t["highlight"].to_pylist():
        assert "<em>w00005</em>" in snip.lower()


def test_distributed_ranks_byte_identical(
    ray_session, tmp_path, tiny_corpus_dir, tiny_config, tiny_index, query_set,
    tiny_oracle,
):
    """driver_conv_budget=0 forces the fully-distributed rank path
    (groupby partials -> distributed sort -> range-file offsets ->
    bucket-join stamping). The resulting segments must be byte-identical
    to the broadcast build, and queries rank-identical to the oracle."""
    from dataclasses import replace

    d0, _ = tiny_index
    d = str(tmp_path / "idx_dist")
    cfg = replace(tiny_config, driver_conv_budget=0)
    res = build_index(tiny_corpus_dir, d, cfg, clear=True)
    assert res.n_convs == 120
    assert os.path.isdir(os.path.join(d, "convs.parquet"))
    for name in sorted(os.listdir(os.path.join(d0, "segments"))):
        a = open(os.path.join(d0, "segments", name, "postings.parquet"), "rb").read()
        b = open(os.path.join(d, "segments", name, "postings.parquet"), "rb").read()
        assert a == b, name
    eng = QueryEngine(d)
    for q in query_set[:6]:
        assert eng.search_topk(q, 10) == tiny_oracle.search(q, 10), q


def test_distributed_ranks_validation_still_fires(ray_session, tmp_path):
    import pyarrow as pa
    import ray.data as rd

    from excelastic_ray.config import IndexConfig

    cfg = IndexConfig(turn_bits=6, convs_per_chunk_bits=4, num_shards=2,
                      driver_conv_budget=0)
    bad = pa.table(
        {
            "conv_id": ["c1", "c1", "c1"],
            "turn_idx": pa.array([0, 1, 1], type=pa.int32()),
            "text": ["a", "b", "c"],
        }
    )
    with pytest.raises(ValidationError):
        build_index(rd.from_arrow(bad), str(tmp_path / "i1"), cfg, clear=True)


def test_empty_corpus_distributed_path(ray_session, tmp_path):
    import pyarrow as pa
    import ray.data as rd

    from dataclasses import replace

    from excelastic_ray.config import IndexConfig

    cfg = IndexConfig(turn_bits=6, convs_per_chunk_bits=4, num_shards=2,
                      driver_conv_budget=0)
    empty = pa.table(
        {
            "conv_id": pa.array([], type=pa.string()),
            "turn_idx": pa.array([], type=pa.int32()),
            "text": pa.array([], type=pa.string()),
        }
    )
    d = str(tmp_path / "empty_dist")
    res = build_index(rd.from_arrow(empty), d, cfg, clear=True)
    assert res.n_docs == 0 and res.n_convs == 0
    eng = QueryEngine(d)
    assert eng.search("anything", 5).num_rows == 0


def test_prefix_search_matches_expansion(ray_session, tiny_index, tiny_oracle):
    """search_prefix == search over the client-computed expansion set
    (lexicographically first max_expansions dictionary terms), incl.
    the cap and an absent prefix; actor mode agrees."""
    idx_dir, _ = tiny_index
    eng = QueryEngine(idx_dir)
    eng_a = QueryEngine(idx_dir, use_actors=True)
    vocab = sorted(tiny_oracle.postings)
    try:
        for prefix, cap in (("w0000", 3), ("w", 5), ("zzzq", 10), ("w00051", 50)):
            exp_terms = [t for t in vocab if t.startswith(prefix)][:cap]
            got = eng.search_prefix(prefix, 10, max_expansions=cap)
            if exp_terms:
                want = eng.search(" ".join(exp_terms), 10)
                assert got.equals(want), prefix
            else:
                assert got.num_rows == 0
            got_a = eng_a.search_prefix(prefix, 10, max_expansions=cap)
            assert got_a.equals(got), prefix
    finally:
        eng_a.close()


def test_range_filter_and_date_histogram(ray_session, tiny_index, tiny_table):
    """ts range filters (ES range in filter context) restrict results
    to the window without changing scores; date_histogram counts
    matching docs per bucket — both checked against client-side
    computation over the source table."""
    import numpy as np
    import pandas as pd

    idx_dir, _ = tiny_index
    eng = QueryEngine(idx_dir)
    src = tiny_table.to_pandas()
    ts_by_key = {
        (c, t): v
        for c, t, v in zip(src["conv_id"], src["turn_idx"], src["ts"])
    }
    lo = src["ts"].quantile(0.3).to_datetime64()
    hi = src["ts"].quantile(0.7).to_datetime64()

    full = eng.search("w00005 the", 5000)
    filt = eng.search(
        "w00005 the", 5000, filters={"ts": {"gte": lo, "lt": hi}}
    )
    # filtered = full ranking restricted to the window, scores unchanged
    keep = [
        (c, t)
        for c, t in zip(full["conv_id"].to_pylist(), full["turn_idx"].to_pylist())
        if lo <= ts_by_key[(c, t)].to_datetime64() < hi
    ]
    got = list(zip(filt["conv_id"].to_pylist(), filt["turn_idx"].to_pylist()))
    assert got == keep[: len(got)]
    fscore = dict(zip(got, filt["score"].to_pylist()))
    full_score = dict(
        zip(
            zip(full["conv_id"].to_pylist(), full["turn_idx"].to_pylist()),
            full["score"].to_pylist(),
        )
    )
    for key, sc in fscore.items():
        assert sc == full_score[key]

    hist = eng.date_histogram("w00005 the", "ts", interval_hours=1)
    us = 3_600_000_000
    exp: dict[int, int] = {}
    for c, t in zip(full["conv_id"].to_pylist(), full["turn_idx"].to_pylist()):
        b = int(ts_by_key[(c, t)].to_datetime64().astype(np.int64)) // us * us
        exp[b] = exp.get(b, 0) + 1
    # full ranking at k=5000 covers all matches on the tiny corpus
    assert hist == dict(sorted(exp.items()))


def test_pfor_codec_end_to_end(ray_session, tmp_path, tiny_corpus_dir,
                               tiny_config, tiny_oracle, query_set):
    """Full build + query with the true PForDelta codec: rank-identical
    to the oracle, phrase queries still work (positions
    are varint regardless of the postings codec)."""
    from dataclasses import replace

    d = str(tmp_path / "idx_pfor")
    cfg = replace(tiny_config, codec="pfor")
    build_index(tiny_corpus_dir, d, cfg, clear=True)
    eng = QueryEngine(d)
    for q in query_set[:6]:
        assert eng.search_topk(q, 10) == tiny_oracle.search(q, 10), q
    t = eng.search_phrase("w00005", 5)
    assert t.num_rows > 0


def test_distributed_path_resume(ray_session, tmp_path, tiny_corpus_dir,
                                 tiny_config):
    """Resume semantics hold on the distributed-rank path: delete one
    chunk segment from a complete distributed build; the resumed build
    rebuilds exactly that chunk, byte-identical."""
    import shutil
    from dataclasses import replace

    cfg = replace(tiny_config, driver_conv_budget=0)
    d = str(tmp_path / "idx_dist_resume")
    build_index(tiny_corpus_dir, d, cfg, clear=True)
    victim = os.path.join(d, "segments", "chunk=00000002")
    orig = open(os.path.join(victim, "postings.parquet"), "rb").read()
    shutil.rmtree(victim)
    res = build_index(tiny_corpus_dir, d, cfg, resume=True)
    assert res.chunks_built == 1 and res.chunks_skipped == 7
    assert open(os.path.join(victim, "postings.parquet"), "rb").read() == orig


def test_explain_reconstructs_scores(tiny_index, ray_session):
    """_explain parity: the per-term contributions of every top-k hit
    must sum to exactly the search score (same float math, sorted-term
    order)."""
    from excelastic_ray.query.engine import QueryEngine

    idx_dir, _ = tiny_index
    eng = QueryEngine(idx_dir)
    for q in ("the call", "w00001", "the a of call run"):
        t = eng.search(q, 10)
        assert t.num_rows
        for docid, score in zip(t["docid"].to_pylist(),
                                t["score"].to_pylist()):
            ex = eng.explain(q, docid)
            assert ex["matched"]
            assert ex["score"] == score  # bit-identical summation
    import pytest as _pytest

    with _pytest.raises(KeyError):
        eng.explain("the", 1 << 60)


def test_rank_eval_hand_metrics(tiny_index, tiny_table):
    """rank_eval metrics recomputed independently from raw text
    containment (NOT the engine's AND-window shortcut): relevance =
    doc token set contains every query term."""
    from collections import Counter

    from excelastic_ray.analysis import tokenize
    from excelastic_ray.pipelines.textstats import trunc6
    from excelastic_ray.query.engine import QueryEngine

    import numpy as np

    d, _ = tiny_index
    eng = QueryEngine(d)

    counts = Counter()
    for t in tiny_table["text"].to_pylist():
        counts.update(set(tokenize(t)))
    hot = [t for t, _ in counts.most_common(3)]
    mid = [t for t, c in counts.items() if 5 <= c <= 50][:2]
    queries = [
        ("qa", f"{hot[0]} {mid[0]}"),
        ("qb", f"{hot[0]} {hot[1]} {mid[1]}"),
        ("qc", "term_not_in_corpus"),
    ]
    out = eng.rank_eval(queries, k=10).set_index("query_id")

    docsets = {
        (c, i): set(tokenize(t))
        for c, i, t in zip(
            tiny_table["conv_id"].to_pylist(),
            tiny_table["turn_idx"].to_pylist(),
            tiny_table["text"].to_pylist(),
        )
    }
    for qid, q in queries:
        terms = set(tokenize(q))
        n_rel = sum(1 for s in docsets.values() if terms <= s)
        top = eng.search(q, 10)
        keys = list(zip(top["conv_id"].to_pylist(),
                        top["turn_idx"].to_pylist()))
        flags = [terms <= docsets[kk] for kk in keys]
        hits = sum(flags)
        first = next((i + 1 for i, f in enumerate(flags) if f), 0)
        dcg = sum(1.0 / np.log2(i + 2) for i, f in enumerate(flags) if f)
        ideal = min(10, n_rel)
        idcg = float(np.sum(1.0 / np.log2(np.arange(ideal) + 2)))
        row = out.loc[qid]
        assert row["n_rel"] == n_rel and row["hits"] == hits
        assert row["retrieved"] == len(keys)
        assert row["precision"] == (
            float(trunc6(hits / len(keys))) if keys else 0.0
        )
        assert row["recall"] == (
            float(trunc6(hits / n_rel)) if n_rel else 0.0
        )
        assert row["rr"] == (float(trunc6(1.0 / first)) if first else 0.0)
        assert row["dcg"] == float(trunc6(dcg))
        assert row["ndcg"] == (
            float(trunc6(dcg / idcg)) if idcg > 0 else 0.0
        )


def test_exists_filter(tiny_index, tiny_table):
    """{"exists": bool} filter context: matches docs with a non-empty
    attr / its complement; scores identical to the unfiltered query."""
    from excelastic_ray.query.engine import QueryEngine

    d, _ = tiny_index
    eng = QueryEngine(d)
    tools = {
        (c, i): t or ""
        for c, i, t in zip(
            tiny_table["conv_id"].to_pylist(),
            tiny_table["turn_idx"].to_pylist(),
            tiny_table["tool"].to_pylist(),
        )
    }
    assert any(v == "" for v in tools.values())
    assert any(v != "" for v in tools.values())
    q = "the"
    full = eng.search(q, k=100000)
    full_scores = dict(zip(
        zip(full["conv_id"].to_pylist(), full["turn_idx"].to_pylist()),
        full["score"].to_pylist(),
    ))
    with_tool = eng.search(q, k=100000,
                           filters={"tool": {"exists": True}})
    keys_with = set(zip(with_tool["conv_id"].to_pylist(),
                        with_tool["turn_idx"].to_pylist()))
    without = eng.search(q, k=100000,
                         filters={"tool": {"exists": False}})
    keys_without = set(zip(without["conv_id"].to_pylist(),
                           without["turn_idx"].to_pylist()))
    assert keys_with == {kk for kk in full_scores if tools[kk] != ""}
    assert keys_without == {kk for kk in full_scores if tools[kk] == ""}
    assert keys_with.isdisjoint(keys_without)
    for ck, sc in zip(
        zip(with_tool["conv_id"].to_pylist(),
            with_tool["turn_idx"].to_pylist()),
        with_tool["score"].to_pylist(),
    ):
        assert full_scores[ck] == sc


def test_search_dsl_flat_equals_search_bool(tiny_index, tiny_table):
    """A one-level DSL tree must reproduce search_bool exactly."""
    from collections import Counter

    from excelastic_ray.analysis import tokenize
    from excelastic_ray.query.engine import QueryEngine

    d, _ = tiny_index
    eng = QueryEngine(d)
    counts = Counter()
    for t in tiny_table["text"].to_pylist():
        counts.update(set(tokenize(t)))
    h = [t for t, _ in counts.most_common(4)]  # hot terms co-occur
    cases = [
        dict(must=f"{h[0]} {h[1]}", should=f"{h[2]} {h[3]}",
             must_not="never_in_corpus", minimum_should_match=None),
        dict(must="", should=f"{h[0]} {h[1]}", must_not="",
             minimum_should_match=2),
        dict(must=h[0], should="", must_not=h[3],
             minimum_should_match=None),
    ]
    for c in cases:
        want = eng.search_bool(
            must=c["must"], should=c["should"], must_not=c["must_not"],
            k=25, minimum_should_match=c["minimum_should_match"],
        )
        node = {"bool": {}}
        if c["must"]:
            node["bool"]["must"] = [
                {"match": t} for t in c["must"].split()
            ]
        if c["should"]:
            # one clause per term: search_bool's msm counts TERMS, the
            # DSL's counts CLAUSES — per-term clauses align the two
            node["bool"]["should"] = [
                {"match": t} for t in c["should"].split()
            ]
        if c["must_not"]:
            node["bool"]["must_not"] = [{"match": c["must_not"]}]
        if c["minimum_should_match"] is not None:
            node["bool"]["minimum_should_match"] = (
                c["minimum_should_match"]
            )
        got = eng.search_dsl(node, k=25)
        assert want.num_rows > 0, c  # non-vacuous case
        assert got.equals(want), c


def test_search_dsl_nested_brute_force(tiny_index, tiny_table):
    """Nested bool with inner minimum_should_match=2 (inexpressible
    flat) against a brute-force evaluation over tokenized docs, with
    per-term scores taken from single-term searches."""
    from collections import Counter

    from excelastic_ray.analysis import tokenize
    from excelastic_ray.query.engine import QueryEngine

    d, _ = tiny_index
    eng = QueryEngine(d)
    counts = Counter()
    for t in tiny_table["text"].to_pylist():
        counts.update(set(tokenize(t)))
    hot = [t for t, _ in counts.most_common(4)]
    mids = [t for t, c in counts.items() if 5 <= c <= 60][:4]
    a, b, c2, d2 = mids if len(mids) >= 4 else (mids + hot)[:4]
    q = {
        "bool": {
            "must": [{"match": hot[0]}],
            "should": [{"match": f"{a} {b}"}],
            "must_not": [{"match": hot[3]}],
        }
    }
    inner = {"bool": {"should": [{"match": f"{a} {b}"},
                                 {"match": f"{c2} {d2}"}],
                      "minimum_should_match": 2}}
    q["bool"]["must"].append(inner)

    per_term = {}
    for t in {hot[0], hot[3], a, b, c2, d2}:
        res = eng.search(t, k=10**6)
        per_term[t] = dict(zip(
            zip(res["conv_id"].to_pylist(), res["turn_idx"].to_pylist()),
            res["score"].to_pylist(),
        ))
    docs = {
        (c, i): set(tokenize(txt))
        for c, i, txt in zip(
            tiny_table["conv_id"].to_pylist(),
            tiny_table["turn_idx"].to_pylist(),
            tiny_table["text"].to_pylist(),
        )
    }
    exp = {}
    for kk, toks in docs.items():
        if hot[0] not in toks or hot[3] in toks:
            continue
        if not ({a, b} & toks) or not ({c2, d2} & toks):
            continue
        s = per_term[hot[0]][kk]
        for t in sorted({a, b, c2, d2}):
            s += per_term[t].get(kk, 0.0)
        # outer should (same clause as a+b) adds again when matched
        for t in sorted({a, b}):
            s += per_term[t].get(kk, 0.0)
        exp[kk] = s
    got = eng.search_dsl(q, k=10**6)
    got_map = dict(zip(
        zip(got["conv_id"].to_pylist(), got["turn_idx"].to_pylist()),
        got["score"].to_pylist(),
    ))
    assert set(got_map) == set(exp)
    for kk in exp:
        assert abs(got_map[kk] - exp[kk]) < 1e-9, kk

    actor_eng = QueryEngine(d, use_actors=True)
    assert actor_eng.search_dsl(q, k=50).equals(eng.search_dsl(q, k=50))


def test_search_dsl_validation(tiny_index):
    import pytest as _pytest

    from excelastic_ray.query.engine import QueryEngine

    d, _ = tiny_index
    eng = QueryEngine(d)
    with _pytest.raises(ValueError, match="unknown DSL op"):
        eng.search_dsl({"matchh": "x"})
    with _pytest.raises(ValueError, match="minimum_should_match without"):
        eng.search_dsl({"bool": {"must": [{"match": "the"}],
                                 "minimum_should_match": 1}})
    with _pytest.raises(ValueError, match="rank the whole corpus"):
        eng.search_dsl({"bool": {"should": [{"match": "the"}],
                                 "minimum_should_match": 0}})
    with _pytest.raises(ValueError, match="at least one must or should"):
        eng.search_dsl({"bool": {"must_not": [{"match": "the"}]}})
    # dead must term -> empty, not error
    assert eng.search_dsl(
        {"bool": {"must": [{"match": "zzz_nope"}]}}
    ).num_rows == 0


def test_search_dsl_term_level_leaves(tiny_index, tiny_table):
    """term / prefix / wildcard / regexp DSL leaves: each standalone
    leaf must equal its dedicated query API (same scoring_boolean
    rewrite), and leaves must compose inside nested bools exactly like
    a match over the expansion."""
    from collections import Counter

    from excelastic_ray.analysis import tokenize
    from excelastic_ray.query.engine import QueryEngine

    d, _ = tiny_index
    eng = QueryEngine(d)
    counts = Counter()
    for t in tiny_table["text"].to_pylist():
        counts.update(tokenize(t))
    hot = [t for t, _ in counts.most_common(6)]
    tok = hot[0]
    pre = tok[:2]

    def pairs(t):
        return list(zip(t["conv_id"].to_pylist(),
                        t["turn_idx"].to_pylist(),
                        t["score"].to_pylist()))

    # standalone leaves == their dedicated APIs
    assert pairs(eng.search_dsl({"term": tok}, k=25)) == pairs(
        eng.search(tok, k=25))
    assert pairs(eng.search_dsl({"prefix": pre}, k=25)) == pairs(
        eng.search_prefix(pre, k=25))
    assert pairs(eng.search_dsl({"wildcard": f"{pre}*"}, k=25)) == pairs(
        eng.search_wildcard(f"{pre}*", k=25))
    assert pairs(eng.search_dsl({"regexp": f"{pre}.*"}, k=25)) == pairs(
        eng.search_regexp(f"{pre}.*", k=25))
    # max_expansions is honored (cap to 1 = single-term match)
    exp = eng.expand_wildcard(f"{pre}*", 1)
    assert len(exp) == 1
    assert pairs(eng.search_dsl(
        {"wildcard": {"value": f"{pre}*", "max_expansions": 1}}, k=25
    )) == pairs(eng.search(exp[0], k=25))
    # a leaf composes inside a nested bool exactly like a match over
    # its (deterministic, global) expansion
    expansion = eng.expand_wildcard(f"{pre}*", 50)
    tree_leaf = {"bool": {"must": [{"match": hot[1]}],
                          "should": [{"wildcard": f"{pre}*"}],
                          "must_not": [{"term": hot[2]}]}}
    tree_match = {"bool": {"must": [{"match": hot[1]}],
                           "should": [{"match": " ".join(expansion)}],
                           "must_not": [{"match": hot[2]}]}}
    a, b = eng.search_dsl(tree_leaf, k=50), eng.search_dsl(tree_match, k=50)
    assert a.num_rows > 0 and a.equals(b)
    # dead leaves drop cleanly
    assert eng.search_dsl(
        {"bool": {"must": [{"match": hot[1]}],
                  "must_not": [{"wildcard": "zz_nope*"}]}}, k=10
    ).num_rows > 0
    assert eng.search_dsl({"term": "zz_nope"}, k=10).num_rows == 0
    # validation
    with pytest.raises(ValueError, match="exactly one analyzer token"):
        eng.search_dsl({"term": f"{hot[0]} {hot[1]}"})
    with pytest.raises(ValueError, match="'value', 'max_expansions'"):
        eng.search_dsl({"wildcard": {"pattern": "x*"}})


def test_search_dsl_randomized_trees(tiny_index, tiny_table):
    """Property test: 30 random DSL trees (depth <= 3) against a pure-
    Python reference evaluator over tokenized docs with per-term score
    maps from single-term searches."""
    from collections import Counter

    import numpy as np

    from excelastic_ray.analysis import tokenize
    from excelastic_ray.query.engine import QueryEngine

    d, _ = tiny_index
    eng = QueryEngine(d)
    counts = Counter()
    for t in tiny_table["text"].to_pylist():
        counts.update(set(tokenize(t)))
    vocab = [t for t, c in counts.items() if c >= 3][:12]
    assert len(vocab) >= 6
    per_term = {}
    for t in vocab:
        res = eng.search(t, k=10**6)
        per_term[t] = dict(zip(
            zip(res["conv_id"].to_pylist(), res["turn_idx"].to_pylist()),
            res["score"].to_pylist(),
        ))
    docs = {
        (c, i): set(tokenize(txt))
        for c, i, txt in zip(
            tiny_table["conv_id"].to_pylist(),
            tiny_table["turn_idx"].to_pylist(),
            tiny_table["text"].to_pylist(),
        )
    }
    rng = np.random.RandomState(17)

    def rand_match():
        n = int(rng.randint(1, 3))
        terms = [vocab[int(rng.randint(0, len(vocab)))]
                 for _ in range(n)]
        return {"match": " ".join(terms)}

    def rand_tree(depth):
        if depth == 0 or rng.rand() < 0.4:
            return rand_match()
        must = [rand_tree(depth - 1) for _ in range(int(rng.randint(1, 3)))]
        should = [rand_tree(depth - 1)
                  for _ in range(int(rng.randint(0, 3)))]
        must_not = ([rand_match()] if rng.rand() < 0.5 else [])
        node = {"bool": {"must": must}}
        if should:
            node["bool"]["should"] = should
            if rng.rand() < 0.5:
                node["bool"]["minimum_should_match"] = int(
                    rng.randint(1, len(should) + 1)
                )
        if must_not:
            node["bool"]["must_not"] = must_not
        return node

    def ref_score(node, kk, toks):
        """→ (matches, score) with ES clause semantics: a child's
        score is already 0 when it does not match (leaves sum matched
        terms only; bools zero themselves), so parents just add."""
        op, body = next(iter(node.items()))
        if op == "match":
            terms = sorted(set(body.lower().split()))
            m = any(t in toks for t in terms)
            s = sum(per_term.get(t, {}).get(kk, 0.0) for t in terms
                    if t in toks)
            return m, s
        b = body
        m_all, score = True, 0.0
        for c in b.get("must", []):
            cm, cs = ref_score(c, kk, toks)
            m_all &= cm
            score += cs
        cnt = 0
        for c in b.get("should", []):
            cm, cs = ref_score(c, kk, toks)
            cnt += cm
            score += cs if cm else 0.0
        msm = b.get("minimum_should_match")
        if msm is None:
            msm = 1 if (b.get("should") and not b.get("must")) else 0
        if b.get("should") and cnt < msm:
            m_all = False
        for c in b.get("must_not", []):
            cm, _ = ref_score(c, kk, toks)
            m_all &= not cm
        return m_all, (score if m_all else 0.0)

    n_nonempty = 0
    for _ in range(30):
        tree = rand_tree(2)
        try:
            got = eng.search_dsl(tree, k=10**6)
        except ValueError:
            continue  # match-all guard trees are allowed to raise
        got_map = dict(zip(
            zip(got["conv_id"].to_pylist(), got["turn_idx"].to_pylist()),
            got["score"].to_pylist(),
        ))
        exp = {}
        for kk, toks in docs.items():
            m, s = ref_score(tree, kk, toks)
            if m:
                exp[kk] = s
        assert set(got_map) == set(exp), tree
        for kk, s in exp.items():
            assert abs(got_map[kk] - s) < 1e-9, (tree, kk)
        n_nonempty += bool(exp)
    assert n_nonempty >= 10  # the property exercised real matches


def test_search_dsl_phrase_leaf(tiny_index, tiny_table):
    """A phrase leaf inside a bool: scores equal search_phrase for the
    same docs; composition with must_not restricts the match set; dead
    phrases collapse to empty; slop rides through."""
    from collections import Counter

    from excelastic_ray.analysis import tokenize
    from excelastic_ray.query.engine import QueryEngine

    d, _ = tiny_index
    eng = QueryEngine(d)
    # find a 2-gram that actually occurs
    big = Counter()
    for t in tiny_table["text"].to_pylist():
        toks = tokenize(t)
        big.update(zip(toks, toks[1:]))
    (w1, w2), n_occ = big.most_common(1)[0]
    assert n_occ >= 2
    phrase = f"{w1} {w2}"

    direct = eng.search_phrase(phrase, k=10**6)
    via_dsl = eng.search_dsl({"phrase": phrase}, k=10**6)
    assert via_dsl.equals(direct)

    slop_direct = eng.search_phrase(phrase, k=10**6, slop=2)
    slop_dsl = eng.search_dsl(
        {"phrase": {"query": phrase, "slop": 2}}, k=10**6
    )
    assert slop_dsl.equals(slop_direct)

    # composed: phrase must + must_not shrinks to a subset with
    # identical scores (phrase contribution + nothing else)
    hot = [t for t, _ in Counter(
        tok for txt in tiny_table["text"].to_pylist()
        for tok in set(tokenize(txt))
    ).most_common(3)]
    excl = next(t for t in hot if t not in (w1, w2))
    comp = eng.search_dsl(
        {"bool": {"must": [{"phrase": phrase}],
                  "must_not": [{"match": excl}]}},
        k=10**6,
    )
    direct_map = dict(zip(
        zip(direct["conv_id"].to_pylist(), direct["turn_idx"].to_pylist()),
        direct["score"].to_pylist(),
    ))
    comp_keys = set(zip(comp["conv_id"].to_pylist(),
                        comp["turn_idx"].to_pylist()))
    assert comp_keys < set(direct_map)
    for ck, sc in zip(
        zip(comp["conv_id"].to_pylist(), comp["turn_idx"].to_pylist()),
        comp["score"].to_pylist(),
    ):
        assert direct_map[ck] == sc

    # dead phrase -> empty
    assert eng.search_dsl(
        {"phrase": f"{w1} zz_nope"}, k=10
    ).num_rows == 0


def test_search_dsl_filter_bounded_should(tiny_index, tiny_table):
    """A no-must bool with should + filter is legal (the filter bounds
    the match set): every filter-passing doc matches, scored by its
    matched should clauses (ES msm default 0 in the presence of
    filter); without the filter the same tree raises."""
    from collections import Counter

    from excelastic_ray.analysis import tokenize
    from excelastic_ray.query.engine import QueryEngine

    d, _ = tiny_index
    eng = QueryEngine(d)
    hot = Counter(
        t for txt in tiny_table["text"].to_pylist()
        for t in set(tokenize(txt))
    ).most_common(1)[0][0]
    tree = {"bool": {"should": [{"match": hot}],
                     "filter": {"role": "user"}}}
    got = eng.search_dsl(tree, k=10**6)
    roles = {
        (c, i): r
        for c, i, r in zip(
            tiny_table["conv_id"].to_pylist(),
            tiny_table["turn_idx"].to_pylist(),
            tiny_table["role"].to_pylist(),
        )
    }
    keys = set(zip(got["conv_id"].to_pylist(),
                   got["turn_idx"].to_pylist()))
    assert keys == {kk for kk, r in roles.items() if r == "user"}
    # docs whose should matched carry the term score; others score 0
    term = eng.search(hot, k=10**6)
    term_map = dict(zip(
        zip(term["conv_id"].to_pylist(), term["turn_idx"].to_pylist()),
        term["score"].to_pylist(),
    ))
    for ck, sc in zip(
        zip(got["conv_id"].to_pylist(), got["turn_idx"].to_pylist()),
        got["score"].to_pylist(),
    ):
        assert sc == term_map.get(ck, 0.0)
    with pytest.raises(ValueError, match="rank the whole corpus"):
        eng.search_dsl({"bool": {"should": [{"match": hot}],
                                 "minimum_should_match": 0}})


def test_search_pinned(engine, tiny_table):
    """Pinned docs rank first in the given order (matching the query
    or not), organic ranking follows deduplicated; unknown pins skip
    silently (the ES semantic)."""
    from collections import Counter

    from excelastic_ray.analysis import tokenize

    eng = engine
    counts = Counter()
    for t in tiny_table["text"].to_pylist():
        counts.update(tokenize(t))
    q = counts.most_common(1)[0][0]
    organic = eng.search(q, k=12)
    o = list(zip(organic["conv_id"].to_pylist(),
                 organic["turn_idx"].to_pylist()))
    # pin the 3rd organic hit + one non-matching doc + one unknown
    non_match = None
    hits = set(zip(*[eng.search(q, k=10**6)[c].to_pylist()
                     for c in ("conv_id", "turn_idx")]))
    for c, t_, in zip(tiny_table["conv_id"].to_pylist(),
                      tiny_table["turn_idx"].to_pylist()):
        if (c, t_) not in hits:
            non_match = (c, int(t_))
            break
    assert non_match is not None
    pins = [o[2], non_match, ("zz_unknown_conv", 0)]
    res = eng.search_pinned(q, pins, k=10)
    got = list(zip(res["conv_id"].to_pylist(),
                   res["turn_idx"].to_pylist()))
    assert got[0] == o[2] and got[1] == non_match
    # organic follows with the pinned hit removed, order preserved
    rest = [d for d in o if d != o[2]][:8]
    assert got[2:] == rest
    # scores are monotone non-increasing and ranks sequential
    sc = res["score"].to_pylist()
    assert all(a >= b for a, b in zip(sc, sc[1:]))
    assert res["rank"].to_pylist() == list(range(1, len(got) + 1))


def test_distance_feature(engine, tiny_table):
    """distance_feature: additive recency bonus — exactly boost/2 at
    distance pivot; ranking reorders toward the origin; actor parity."""
    from collections import Counter

    import numpy as np

    from excelastic_ray.analysis import tokenize

    eng = engine
    counts = Counter()
    for t in tiny_table["text"].to_pylist():
        counts.update(tokenize(t))
    q = counts.most_common(1)[0][0]
    ts = tiny_table["ts"].to_numpy().astype("datetime64[us]")
    origin = ts.max()
    res = eng.search_distance_feature(q, k=10**6, origin=origin,
                                      pivot="1h", boost=5.0)
    base = eng.search(q, k=10**6)
    assert res.num_rows == base.num_rows > 0  # same match set
    # verify the exact bonus on every hit
    base_by_id = dict(zip(base["docid"].to_pylist(),
                          base["score"].to_pylist()))
    ts_by_key = {
        (c, int(t)): v for c, t, v in zip(
            tiny_table["conv_id"].to_pylist(),
            tiny_table["turn_idx"].to_pylist(),
            ts.astype(np.int64),
        )
    }
    piv = 3_600_000_000.0
    o_us = origin.astype(np.int64)
    for d, c, t, s in zip(res["docid"].to_pylist(),
                          res["conv_id"].to_pylist(),
                          res["turn_idx"].to_pylist(),
                          res["score"].to_pylist()):
        dist = abs(ts_by_key[(c, int(t))] - o_us)
        assert s == base_by_id[d] + 5.0 * (piv / (piv + dist))
    with pytest.raises(ValueError, match="origin"):
        eng.search_distance_feature(q, k=5, origin=None)


def test_search_random(engine, tiny_table):
    """random_score: same match set as the query, scores in [0,1),
    deterministic per (doc, seed), different seeds reorder; validation."""
    from collections import Counter

    from excelastic_ray.analysis import tokenize

    eng = engine
    counts = Counter()
    for t in tiny_table["text"].to_pylist():
        counts.update(tokenize(t))
    q = counts.most_common(1)[0][0]
    base = eng.search(q, k=10**6)
    a = eng.search_random(q, k=10**6, seed=7)
    b = eng.search_random(q, k=10**6, seed=7)
    c = eng.search_random(q, k=10**6, seed=8)
    assert a.equals(b)  # deterministic
    docs = lambda t: set(zip(t["conv_id"].to_pylist(),  # noqa: E731
                             t["turn_idx"].to_pylist()))
    assert docs(a) == docs(base) == docs(c)  # same match set
    assert a["conv_id"].to_pylist() != c["conv_id"].to_pylist()  # reorder
    sc = a["score"].to_pylist()
    assert all(0.0 <= s < 1.0 for s in sc)
    assert sc == sorted(sc, reverse=True)
    with pytest.raises(ValueError, match="seed"):
        eng.search_random(q, seed=-1)
