"""The coarse-bucket exchange (``hashing.combine_by_key``) and its K rule
(``hashing.resolve_buckets``): outputs do not depend on the bucket
count, and K follows the metadata row count."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from excelastic_ray.hashing import cluster_cpus, combine_by_key, resolve_buckets

FANOUT_SPEC = {
    "by_role": {
        "terms": {"field": "role", "size": 4},
        "aggs": {
            "by_tool": {"terms": {"field": "tool", "size": 5}},
            "per_day": {
                "date_histogram": {"field": "ts", "interval_hours": 24},
                "aggs": {"last_turn": {"max": {"field": "turn_idx"}},
                         "avg_turn": {"avg": {"field": "turn_idx"}}},
            },
        },
    },
    "n_turns": {"value_count": {"field": "turn_idx"}},
}


def _canon(out) -> pd.DataFrame:
    df = out if isinstance(out, pd.DataFrame) else out.to_pandas()
    cols = sorted(df.columns)
    return (df[cols].sort_values(cols, kind="mergesort", na_position="first")
            .reset_index(drop=True))


def _events_ds():
    import ray.data as rd

    rng = np.random.default_rng(7)
    n = 2000
    base = np.datetime64("2024-01-01T00:00:00", "us")
    t = pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "user_id": pa.array(rng.integers(0, 60, n).astype(np.int64)),
        "event_type": pa.array(rng.choice(["click", "view", "buy"], n)),
        "ts": pa.array(base + rng.integers(0, 3 * 86_400, n).astype(
            "timedelta64[s]").astype("timedelta64[us]")),
        "value": pa.array(rng.random(n).round(3)),
    })
    return rd.from_arrow([t.slice(i, 500) for i in range(0, n, 500)])


def _pipelines():
    from excelastic_ray.pipelines.aggtree import agg_tree_fanout
    from excelastic_ray.pipelines.convs import conv_stats, role_transitions
    from excelastic_ray.pipelines.events import sessionize
    from excelastic_ray.pipelines.textstats import term_df

    return {
        "conv_stats": lambda ds, k: conv_stats(ds, n_buckets=k),
        "term_df": lambda ds, k: term_df(ds, n_buckets=k),
        "agg_tree_fanout": lambda ds, k: agg_tree_fanout(
            ds, FANOUT_SPEC, n_buckets=k),
        "role_transitions": lambda ds, k: role_transitions(ds, n_buckets=k),
        "sessionize": lambda ds, k: sessionize(ds, gap_minutes=30,
                                               n_buckets=k),
    }


@pytest.mark.parametrize("name", ["conv_stats", "term_df", "agg_tree_fanout",
                                  "role_transitions", "sessionize"])
def test_outputs_equal_across_bucket_counts(name, tiny_corpus_dir,
                                            ray_session):
    import ray.data as rd

    ds = (_events_ds() if name == "sessionize"
          else rd.read_parquet(tiny_corpus_dir))
    fn = _pipelines()[name]
    want = _canon(fn(ds, 64).to_pandas())
    assert len(want)
    for k in (1, 4, None):
        pd.testing.assert_frame_equal(_canon(fn(ds, k).to_pandas()), want)


class _Stub:
    """A dataset stand-in that only knows its metadata row count."""

    def __init__(self, n):
        self.n = n

    def _meta_count(self):
        if isinstance(self.n, Exception):
            raise self.n
        return self.n


def test_resolve_buckets_rule(ray_session):
    floor = 64  # max(64, 2 × (pool + 2)) on the 4-CPU test cluster
    assert resolve_buckets(_Stub(10 ** 12), 7) == 7
    assert resolve_buckets(None, 3) == 3
    assert resolve_buckets(_Stub(10_000), bytes_per_row=16) == cluster_cpus()
    assert cluster_cpus() == 4
    for unknown in (_Stub(None), _Stub(RuntimeError("no metadata")), None):
        assert resolve_buckets(unknown, bytes_per_row=16) == floor
    n, bpr = 10 ** 10, 16
    assert resolve_buckets(_Stub(n), bytes_per_row=bpr) == \
        n * bpr // (256 << 20) + 1
    assert resolve_buckets(_Stub(n), bytes_per_row=bpr) > cluster_cpus()


def test_combine_by_key_int_key_with_nulls_meets_in_one_call(ray_session):
    """An int key column with a null in one Arrow block and none in
    another still hashes each key to one bucket."""
    import ray.data as rd

    a = pa.table({"k": pa.array([5, None, 7], type=pa.int64()),
                  "n": pa.array([1, 1, 1])})
    b = pa.table({"k": pa.array([5, 7], type=pa.int64()),
                  "n": pa.array([10, 10])})

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("k", sort=False, dropna=False)["n"].sum() \
            .reset_index()

    for k in (2, 3, 16):
        out = combine_by_key(rd.from_arrow([a, b]), ["k"], combine,
                             size_from=None, bytes_per_row=8,
                             n_buckets=k).to_pandas()
        got = sorted(zip(out["k"].fillna(-1).astype(int), out["n"]))
        assert got == [(-1, 1), (5, 11), (7, 11)], k
