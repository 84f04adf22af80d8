"""Actor mode equals local mode, method by method.

One table of (method, kwargs) rows runs on an in-process engine and on a
``use_actors=True`` engine over the same 4-shard index. The session's
4-CPU cluster gives a pool of 3 actors, so one actor serves 2 shards:
every row exercises the grouped dispatch, not one shard per actor."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from excelastic_ray.query.engine import QueryEngine

Q = "the w00001 w00002 call"

CASES = [
    ("search", dict(query=Q, k=25)),
    ("search", dict(query=Q, k=10, offset=5, filters={"role": "user"})),
    ("search", dict(query="the call", k=10, mode="and",
                    search_after=(3.0, 10))),
    ("search_many", dict(queries=[Q, "w00003 ok", "zz_absent"], k=10)),
    ("search_many", dict(queries=["the run", "w00001"], k=5, mode="and",
                         filters={"role": "assistant"})),
    ("count", dict(query=Q)),
    ("count", dict(query="the call", mode="and", filters={"role": "tool"})),
    ("facets", dict(query=Q, attr="role")),
    ("facets", dict(query="the call", attr="tool", mode="and")),
    ("top_facets", dict(query=Q, attr="tool", size=3)),
    ("date_histogram", dict(query=Q, attr="ts", interval_hours=24)),
    ("adjacency_matrix", dict(named={"a": "the", "b": "call",
                                     "c": "w00001"})),
    ("search_dismax", dict(queries=["the w00001", "call w00002"], k=25,
                           tie_breaker=0.3)),
    ("search_rank_feature", dict(query=Q, k=25, pivot=25.0, boost=2.0)),
    ("search_terms_set", dict(query="the to a and of call", k=25)),
    ("search_script_score", dict(
        query=Q, script="_score * 0.5 + ln(1 + dl) - 0.1 * turn_idx",
        k=25)),
    ("search_script_query", dict(query=Q, script="dl >= 10", k=25)),
    ("search_script_fields", dict(query=Q, fields={"x": "ln(dl) + _score"},
                                  k=25)),
    ("search_sampler", dict(query=Q, attr="role", shard_size=20,
                            max_per_conv=2)),
    ("search_random", dict(query=Q, k=25, seed=7)),
    ("search_distance_feature", dict(query=Q, k=25,
                                     origin="2026-01-03T00:00:00",
                                     pivot="24h", boost=2.0)),
    ("search_decay", dict(query=Q, k=25, origin="2026-01-03T00:00:00",
                          scale="48h")),
    ("search_sorted", dict(query=Q, k=25, sort="ts", order="asc")),
    ("search_has_parent", dict(query=Q, k=25)),
    ("search_has_parent", dict(query="the call", k=25, score=False)),
    ("search_has_child", dict(query=Q, k=25, score_mode="sum",
                              min_children=2)),
    ("search_has_child", dict(query=Q, k=10, inner_hits=2)),
    ("search_collapse", dict(query=Q, attr="role", k=25)),
    ("search_collapse_inner", dict(query=Q, attr="role", k=3,
                                   inner_hits=3)),
    ("search_top_hits", dict(query=Q, attr="role", per_k=3)),
    ("search_boosting", dict(positive=Q, negative="ok", k=25)),
    ("search_rescore", dict(query=Q, rescore_query="the call", k=25)),
    ("more_like_this", dict(conv_id="conv-000002", turn_idx=0, k=25)),
    ("search_fields", dict(query="the call", fields=[None], k=25)),
    ("search_phrase", dict(query="the call", k=25, slop=2)),
    ("search_phrase_prefix", dict(query="the w0000", k=25)),
    ("search_prefix", dict(prefix="w0001", k=25)),
    ("search_wildcard", dict(pattern="w0*2", k=25)),
    ("search_regexp", dict(pattern="w0001.", k=25)),
    ("search_fuzzy", dict(query="w00010", k=25, fuzziness=1)),
    ("search_bool", dict(must="the", should="call w00001", must_not="ok",
                         k=25)),
    ("search_dsl", dict(query={"bool": {
        "must": [{"match": "the"}],
        "should": [{"phrase": {"query": "the call", "slop": 1}},
                   {"prefix": "w000"}],
        "must_not": [{"term": "ok"}]}}, k=25)),
    ("search_synonyms", dict(query="the call", synonyms={"call": ["run"]},
                             k=25)),
    ("search_span_first", dict(query="call", end=3, k=25)),
    ("search_span_near", dict(query="the call", slop=2, k=25)),
    ("search_span_not", dict(include="the", exclude="call", dist=1, k=25)),
    ("search_span_or_near", dict(variants="call run", anchor="the", slop=2,
                                 k=25)),
    ("search_span_contain", dict(big="the call", little="a", slop=4,
                                 k=25)),
    ("search_intervals", dict(rule={"match": {
        "query": "the call", "ordered": False, "max_gaps": 3}}, k=25)),
    ("search_ids", dict(ids=[("conv-000002", 0), ("conv-000005", 1),
                             ("nope", 0)], k=10)),
    ("search_terms_lookup", dict(conv_id="conv-000002", turn_idx=0, k=10)),
    ("suggest", dict(text="w00010 tha", max_edits=2)),
    ("suggest_phrase", dict(text="tha call")),
    ("mtermvectors", dict(ids=[("conv-000002", 0), ("conv-000003", 1),
                               ("nope", 0)])),
    ("termvectors", dict(conv_id="conv-000002", turn_idx=0)),
    ("complete", dict(prefix="w000", k=10)),
    ("complete_fuzzy", dict(prefix="w0001", k=10, fuzziness=1)),
    ("terms_enum", dict(string="w00", size=10, search_after="w0001")),
    ("significant_text", dict(query="call", k=10)),
    ("search_string", dict(query='the AND (call OR "w00001 w00002"~1) -ok',
                           k=25)),
    ("search_simple_string", dict(query='the +call -ok', k=25)),
    ("search_bool_prefix", dict(query="the w000", k=25)),
    ("search_span_multi_near", dict(pattern="w000", anchor="the", slop=2,
                                    k=25)),
    ("search_pinned", dict(query=Q, pinned=[("conv-000002", 0)], k=10)),
    ("search_combined", dict(query="the call", fields=[None], k=25)),
    ("search_cross", dict(query="the call", fields=[None], k=25)),
]


@pytest.fixture(scope="module")
def engines(tiny_index):
    d, _ = tiny_index
    local = QueryEngine(d)
    actors = QueryEngine(d, use_actors=True)
    yield local, actors
    actors.close()


def _same(a, b) -> bool:
    if isinstance(a, (pa.Table, pd.DataFrame)):
        return type(a) is type(b) and a.equals(b)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, dict):
        return (isinstance(b, dict) and list(a) == list(b)
                and all(_same(a[x], b[x]) for x in a))
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    return type(a) is type(b) and a == b


def _nonempty(out) -> bool:
    if isinstance(out, (pa.Table, pd.DataFrame, dict, list, tuple)):
        return len(out) > 0
    return bool(out)


@pytest.mark.parametrize(
    "method,kw", CASES, ids=[f"{m}-{i}" for i, (m, _) in enumerate(CASES)]
)
def test_actor_mode_equals_local(engines, method, kw):
    local, actors = engines
    want = getattr(local, method)(**kw)
    got = getattr(actors, method)(**kw)
    # an empty answer would pass vacuously: every row must hit something
    assert _nonempty(want), method
    assert _same(want, got), method
