"""Shard-count independence: the df-sum-at-query-time design means
every query mode's results are a pure function of the corpus, not the
partitioning. Building the SAME corpus at 4 and 16 shards must return
bit-identical tables across the mode matrix — the strongest
multi-node-correctness evidence a single box can produce (a real
cluster only changes WHERE shards live, never how many ways the
df/top-k merge happens)."""

from __future__ import annotations

import pytest

from excelastic_ray.config import IndexConfig
from excelastic_ray.corpus import generate_transcripts
from excelastic_ray.index.build import build_index
from excelastic_ray.query.engine import QueryEngine


@pytest.fixture(scope="module")
def two_builds(tmp_path_factory, ray_session):
    import ray.data as rd

    table = generate_transcripts(n_convs=60, seed=23)
    engines = []
    for shards in (4, 16):
        cfg = IndexConfig(turn_bits=8, convs_per_chunk_bits=2,
                          num_shards=shards,
                          field_index_fields=("role", "tool"),
                          index_shingles=2)
        idx = str(tmp_path_factory.mktemp(f"shards{shards}") / "idx")
        build_index(rd.from_arrow(table), idx, cfg, clear=True)
        engines.append(QueryEngine(idx))
    return engines


MODES = [
    ("bm25_or", lambda e: e.search("table hash value", k=25)),
    ("bm25_filters", lambda e: e.search(
        "table hash", k=25, filters={"role": "user"})),
    ("fields", lambda e: e.search_fields("user", ["role"], k=25)),
    ("phrase", lambda e: e.search_phrase("table hash", k=25)),
    ("phrase_slop", lambda e: e.search_phrase("table hash", k=25,
                                              slop=2)),
    ("phrase_lucene", lambda e: e.search_phrase(
        "hash table", k=25, slop=2, slop_mode="lucene")),
    ("phrase_prefix", lambda e: e.search_phrase_prefix("table ha",
                                                       k=25)),
    ("prefix", lambda e: e.search_prefix("tab", k=25)),
    ("wildcard", lambda e: e.search_wildcard("ta*le", k=25)),
    ("regexp", lambda e: e.search_regexp("ta.le", k=25)),
    ("fuzzy", lambda e: e.search_fuzzy("tabel", k=25)),
    ("bool", lambda e: e.search_bool(must="table", should="hash",
                                     must_not="zzz", k=25)),
    ("dsl", lambda e: e.search_dsl(
        {"bool": {"must": [{"match": "table"}],
                  "should": [{"phrase": {"query": "slow hash",
                                         "slop": 1}},
                             {"prefix": "val"}],
                  "must_not": [{"term": "qqqq"}]}}, k=25)),
    ("query_string", lambda e: e.search_string(
        'table AND (hash OR "slow batch"~1) -zzz', k=25)),
    ("intervals", lambda e: e.search_intervals(
        {"match": {"query": "table hash", "ordered": False,
                   "max_gaps": 3}}, k=25)),
    ("span_first", lambda e: e.search_span_first("table", end=3,
                                                 k=25)),
    ("span_near", lambda e: e.search_span_near("table hash", slop=2,
                                               k=25)),
    ("span_containing", lambda e: e.search_span_contain(
        "table key", "hash", slop=4, k=25, mode="containing")),
    ("span_within", lambda e: e.search_span_contain(
        "table key", "hash", slop=4, k=25, mode="within")),
    ("span_or", lambda e: e.search_span_or_near("merge scan", "table",
                                                slop=2, k=25)),
    ("collapse", lambda e: e.search_collapse("table hash", "conv_id",
                                             k=25)),
    ("rescore", lambda e: e.search_rescore("table hash", "slow batch",
                                           k=25)),
    ("decay", lambda e: e.search_decay(
        "table hash", k=25, origin="2026-01-03T00:00:00", scale="48h")),
    ("random_score", lambda e: e.search_random("table hash", k=25,
                                               seed=7)),
    ("suggest", lambda e: e.suggest("tabel windo", max_edits=2)),
    ("suggest_phrase", lambda e: e.suggest_phrase("tabel hash")),
    ("complete", lambda e: e.complete("tab", k=10)),
    ("mlt", lambda e: _mlt(e)),
    ("termvectors", lambda e: _tv(e)),
    # round-5 modes: the join family's reduceat/bisect paths and the
    # scripted scorers must be partitioning-blind too
    ("has_child", lambda e: e.search_has_child(
        "table hash", k=25, score_mode="sum", min_children=2)),
    ("has_parent", lambda e: e.search_has_parent("table hash", k=25)),
    ("dismax", lambda e: e.search_dismax(
        ["table hash", "slow batch"], k=25, tie_breaker=0.3)),
    ("rank_feature", lambda e: e.search_rank_feature(
        "table hash", k=25, pivot=25.0, boost=2.0)),
    ("terms_set", lambda e: e.search_terms_set(
        "the to a and of call", k=25)),
    ("script_score", lambda e: e.search_script_score(
        "table hash", "_score * 0.5 + ln(1 + dl) - 0.1 * turn_idx",
        k=25)),
    # round-5 session-3 modes
    ("min_score", lambda e: e.search("table hash value", k=25,
                                     min_score=0.5)),
    ("script_fields", lambda e: e.search_script_fields(
        "table hash", {"x": "ln(dl) + _score"}, k=25)),
    ("script_query", lambda e: e.search_script_query(
        "table hash", "dl >= 10 and turn_idx < 12", k=25)),
    ("complete_fuzzy", lambda e: e.complete_fuzzy("tabel", k=10,
                                                  fuzziness=1)),
    ("mtermvectors", lambda e: e.mtermvectors(
        [("conv-000002", 0), ("conv-000003", 1), ("nope", 0)])),
    ("say", lambda e: e.search_say("table ha", k=25)),
    ("collapse_inner", lambda e: e.search_collapse_inner(
        "table hash", "role", k=3, inner_hits=3)),
    # the score modifiers under operator=and plus a filter, over terms
    # the generated corpus holds
    ("decay_and", lambda e: e.search_decay(
        "w00003 the", k=25, origin="2026-01-03T00:00:00", scale="48h",
        mode="and", filters={"role": "user"})),
    ("distance_feature_and", lambda e: e.search_distance_feature(
        "w00003 the", k=25, origin="2026-01-02T00:00:00", pivot="12h",
        boost=2.0, mode="and", filters={"role": "user"})),
    ("boosting_and", lambda e: e.search_boosting(
        "w00003 the", "w00001", negative_boost=0.3, k=25, mode="and",
        filters={"role": "user"})),
]


def _mlt(e):
    return e.more_like_this("conv-000002", 0, k=25)


def _tv(e):
    return e.termvectors("conv-000002", 0)


@pytest.mark.parametrize("name,run", MODES, ids=[m[0] for m in MODES])
def test_shard_count_invariance(two_builds, name, run):
    e4, e16 = two_builds
    a, b = run(e4), run(e16)
    assert a.num_rows == b.num_rows, name
    # docid encodes (conv, turn) deterministically; every column must
    # agree bit-for-bit, scores included
    assert a.equals(b), name


def _dsl_query(q: str, mode: str) -> dict:
    if mode == "or":
        return {"match": q}
    return {"bool": {"must": [{"match": t} for t in q.split()]}}


@pytest.mark.parametrize("mode", ["or", "and"])
def test_score_modifiers_equal_function_score(two_builds, mode):
    """search_random and search_boosting equal their public search_dsl
    ``function_score`` forms bit for bit, at both shard counts."""
    non_empty = 0
    for e in two_builds:
        for q in ("w00003 the", "w00001 call", "w00002 zzzq"):
            for filters in (None, {"role": "user"}):
                for seed in (0, 7):
                    got = e.search_random(q, k=25, seed=seed, mode=mode,
                                          filters=filters)
                    want = e.search_dsl({"function_score": {
                        "query": _dsl_query(q, mode),
                        "functions": [{"random_score": {"seed": seed}}],
                        "boost_mode": "replace"}}, k=25, filters=filters)
                    assert got.equals(want), (q, mode, filters, seed)
                    non_empty += got.num_rows > 0
                for nb in (0.5, 0.2):
                    got = e.search_boosting(q, "w00001 ok",
                                            negative_boost=nb, k=25,
                                            mode=mode, filters=filters)
                    want = e.search_dsl({"function_score": {
                        "query": _dsl_query(q, mode),
                        "functions": [{"filter": {"match": "w00001 ok"},
                                       "weight": nb}],
                        "score_mode": "multiply",
                        "boost_mode": "multiply"}}, k=25, filters=filters)
                    assert got.equals(want), (q, mode, filters, nb)
                    non_empty += got.num_rows > 0
    assert non_empty >= 16
