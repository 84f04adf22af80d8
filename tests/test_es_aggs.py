"""ES composite aggregation + pipeline aggregations: paging chain
covers every bucket exactly once; window metrics match a brute-force
pandas oracle."""

from __future__ import annotations

import json

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from excelastic_ray.pipelines import events
from excelastic_ray.pipelines.textstats import trunc6


def _events(n=3000, seed=4):
    rng = np.random.default_rng(seed)
    ts = np.datetime64("2024-01-01", "us") + rng.integers(
        0, 20 * 86_400_000_000, size=n
    ).astype("timedelta64[us]")
    return pa.table(
        {
            "ts": pa.array(ts),
            "event_type": pa.array(
                rng.choice(["a", "b", "c"], size=n), type=pa.string()
            ),
            "value": pa.array(rng.normal(size=n)),
        }
    )


def _bucket_oracle(t: pa.Table) -> pd.DataFrame:
    df = t.to_pandas()
    df["day"] = df["ts"].dt.floor("D")
    g = (
        df.groupby(["event_type", "day"])
        .agg(doc_count=("value", "size"), sum_value=("value", "sum"))
        .reset_index()
        .sort_values(["event_type", "day"])
        .reset_index(drop=True)
    )
    g["sum_value"] = trunc6(g["sum_value"].to_numpy())
    return g


def test_composite_first_page_is_key_ordered_prefix(ray_session):
    import ray.data as rd

    t = _events()
    want = _bucket_oracle(t)
    got = (
        events.composite_agg(rd.from_arrow(t), size=7)
        .to_pandas()
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got, want.head(7), check_dtype=False
    )


def test_composite_paging_chain_covers_all_buckets(ray_session):
    import ray.data as rd

    t = _events(seed=11)
    want = _bucket_oracle(t)
    pages, after = [], None
    for _ in range(100):
        page = events.composite_agg(
            rd.from_arrow(t), size=13, after=after
        ).to_pandas()
        if page.empty:
            break
        pages.append(page)
        last = page.iloc[-1]
        after = (last["event_type"], last["day"].to_numpy())
    got = pd.concat(pages, ignore_index=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_pipeline_aggs_match_bruteforce(ray_session):
    import ray.data as rd

    t = _events(seed=13)
    got = (
        events.date_histogram_pipeline(rd.from_arrow(t), hours=24, window=3)
        .to_pandas()
        .sort_values("window_start")
        .reset_index(drop=True)
    )
    df = t.to_pandas()
    n = (
        df.groupby(df["ts"].dt.floor("D"))
        .size()
        .sort_index()
    )
    assert got["n"].tolist() == n.tolist()
    assert got["cum_n"].tolist() == n.cumsum().tolist()
    assert got["deriv"].tolist() == [0] + list(np.diff(n.to_numpy()))
    mov = [
        0.0 if i == 0 else float(np.mean(n.to_numpy()[max(i - 3, 0):i]))
        for i in range(len(n))
    ]
    assert got["moving_avg"].tolist() == list(trunc6(np.array(mov)))


def test_pipeline_diffs_match_bruteforce(ray_session):
    import ray.data as rd

    t = _events(seed=17)
    got = (
        events.pipeline_diffs(rd.from_arrow(t), hours=24, lag=2,
                              window=4, percents=(50, 90))
        .to_pandas()
        .sort_values("window_start")
        .reset_index(drop=True)
    )
    df = t.to_pandas()
    n = df.groupby(df["ts"].dt.floor("D")).size().sort_index().to_numpy()
    assert got["n"].tolist() == n.tolist()
    sd = [0 if i < 2 else int(n[i] - n[i - 2]) for i in range(len(n))]
    assert got["serial_diff"].tolist() == sd
    for p, col in [(50, "mp_50"), (90, "mp_90")]:
        exp = [
            0.0 if i == 0
            else float(np.percentile(n[max(i - 4, 0):i], p))
            for i in range(len(n))
        ]
        assert got[col].tolist() == list(trunc6(np.array(exp)))


def test_bucket_metrics_match_bruteforce(ray_session):
    import ray.data as rd

    t = _events(seed=19)
    got = events.bucket_metrics(rd.from_arrow(t), hours=24).to_pandas()
    assert len(got) == 1
    df = t.to_pandas()
    n = df.groupby(df["ts"].dt.floor("D")).size().sort_index()
    row = got.iloc[0]
    assert row["n_buckets"] == len(n)
    assert row["avg_n"] == trunc6(np.array([n.mean()]))[0]
    assert row["min_n"] == n.min() and row["max_n"] == n.max()
    # earliest tied bucket owns the extremum
    assert row["min_key"] == n.index[np.argmin(n.to_numpy())]
    assert row["max_key"] == n.index[np.argmax(n.to_numpy())]
    assert row["sum_n"] == n.sum()
    assert row["p50_n"] == trunc6(
        np.array([np.percentile(n.to_numpy(), 50)])
    )[0]
    assert row["p90_n"] == trunc6(
        np.array([np.percentile(n.to_numpy(), 90)])
    )[0]


@pytest.mark.parametrize("method", ["rescale_0_1", "percent_of_sum",
                                    "mean"])
def test_normalize_buckets_match_bruteforce(ray_session, method):
    import ray.data as rd

    t = _events(seed=23)
    got = (
        events.normalize_buckets(rd.from_arrow(t), hours=24,
                                 method=method)
        .to_pandas()
        .sort_values("window_start")
        .reset_index(drop=True)
    )
    df = t.to_pandas()
    n = (
        df.groupby(df["ts"].dt.floor("D")).size().sort_index().to_numpy()
        .astype(float)
    )
    if method == "rescale_0_1":
        exp = (n - n.min()) / (n.max() - n.min())
    elif method == "percent_of_sum":
        exp = n / n.sum()
    else:
        exp = (n - n.mean()) / (n.max() - n.min())
    assert got["n"].tolist() == n.astype(int).tolist()
    assert got["normalized"].tolist() == list(trunc6(exp))


def test_normalize_buckets_rejects_unknown_method(ray_session):
    import ray.data as rd

    with pytest.raises(ValueError):
        events.normalize_buckets(rd.from_arrow(_events()), method="zzz")


# -- range aggregation ------------------------------------------------------


def test_range_agg_matches_bruteforce(ray_session):
    import ray.data as rd

    t = _events(n=5000, seed=9)
    ranges = [(None, -1), (-1, 0), (-0.5, 0.5), (0, None), (5, 9)]
    got = (
        events.range_agg(rd.from_arrow(t), ranges)
        .to_pandas()
        .set_index("range_key")
    )
    v = t["value"].to_numpy()
    assert len(got) == len(ranges)
    for lo, hi in ranges:
        key = (
            f"{'*' if lo is None else repr(float(lo))}"
            f"-{'*' if hi is None else repr(float(hi))}"
        )
        m = np.ones(len(v), dtype=bool)
        if lo is not None:
            m &= v >= lo
        if hi is not None:
            m &= v < hi
        row = got.loc[key]
        assert row["n"] == m.sum()
        np.testing.assert_allclose(row["sum_value"], v[m].sum(), atol=1e-6)
    # the (5, 9) bucket is empty but present
    assert got.loc["5.0-9.0"]["n"] == 0
    assert got.loc["5.0-9.0"]["avg_value"] == 0.0
    # overlap: (-0.5, 0.5) double-counts docs also in (-1, 0) / (0, *)
    assert got["n"].sum() > len(v)


def test_percentile_ranks_exact(ray_session):
    import ray.data as rd

    t = _events(n=4000, seed=11)
    v = t["value"].to_numpy()
    probes = [-1.0, 0.0, 0.5, 10.0]
    got = (
        events.percentile_ranks(rd.from_arrow(t), probes)
        .to_pandas()
        .set_index("value")
    )
    for p in probes:
        want = trunc6(np.array([100.0 * (v <= p).sum() / len(v)]))[0]
        assert got.loc[p, "pct"] == want
    assert got.loc[10.0, "pct"] == 100.0


def test_filters_agg_named_buckets(ray_session):
    """ES filters agg: overlapping membership, conjunction specs, and
    an empty bucket (kept, zeros)."""
    import ray.data as rd

    t = _events()
    df = t.to_pandas()
    specs = {
        "ab": {"eq": {"event_type": ["a", "b"]}},
        "pos": {"gte": {"value": 0.0}},
        "a_small": {"eq": {"event_type": "a"}, "lt": {"value": 0.5}},
        "never": {"gte": {"value": 1e12}},
    }
    got = (
        events.filters_agg(rd.from_arrow(t), specs)
        .to_pandas()
        .set_index("filter_key")
        .sort_index()
    )
    masks = {
        "ab": df.event_type.isin(["a", "b"]),
        "pos": df.value >= 0.0,
        "a_small": (df.event_type == "a") & (df.value < 0.5),
        "never": df.value >= 1e12,
    }
    assert set(got.index) == set(specs)
    for k, m in masks.items():
        assert got.loc[k, "n"] == int(m.sum())
        assert got.loc[k, "sum_value"] == trunc6(
            np.array([df.value[m].sum()])
        )[0]
    assert got.loc["never", "n"] == 0 and got.loc["never", "avg_value"] == 0.0


def test_rare_terms_long_tail(ray_session):
    import ray.data as rd

    from excelastic_ray.pipelines.textstats import rare_terms

    docs = pa.table(
        {
            "doc_id": list(range(6)),
            "text": [
                "common common unique1",
                "common twice",
                "common twice",
                "common",
                "common unique2 unique2",  # df(unique2)=1 despite tf 2
                "common",
            ],
        }
    )
    got = rare_terms(rd.from_arrow(docs), max_df=2, k=10).to_pandas()
    assert list(map(tuple, got.to_numpy())) == [
        ("unique1", 1), ("unique2", 1), ("twice", 2),
    ]
    # the k limit truncates the sorted tail deterministically
    got1 = rare_terms(rd.from_arrow(docs), max_df=2, k=2).to_pandas()
    assert list(got1["term"]) == ["unique1", "unique2"]


def test_filters_agg_rejects_unknown_op(ray_session):
    import pytest
    import ray.data as rd

    t = _events(100)
    with pytest.raises(ValueError, match="unknown ops"):
        events.filters_agg(rd.from_arrow(t), {"x": {"gt": {"value": 1}}})


def test_bucket_script_selector(ray_session):
    """Derived avg per bucket + HAVING-style selector against a pandas
    oracle."""
    import ray.data as rd

    t = _events(2000, seed=9)
    got = (
        events.bucket_script_selector(rd.from_arrow(t), hours=24,
                                      min_avg=0.0)
        .to_pandas()
        .sort_values("window_start")
        .reset_index(drop=True)
    )
    df = t.to_pandas()
    us = 24 * 3_600_000_000
    df["w"] = (df.ts.astype("int64") // us) * us
    g = df.groupby("w").value.agg(["size", "sum"]).reset_index()
    g["sum6"] = trunc6(g["sum"].to_numpy())
    g["avg6"] = trunc6(g["sum6"].to_numpy() / g["size"].to_numpy())
    g = g[g.avg6 >= 0.0]
    assert got.window_start.tolist() == g.w.tolist()
    assert got.avg_value.tolist() == g.avg6.tolist()
    # selector actually filters at a higher cut
    cut = float(g.avg6.median())
    sel = (
        events.bucket_script_selector(rd.from_arrow(t), hours=24,
                                      min_avg=cut)
        .to_pandas()
    )
    assert 0 < len(sel) < len(g)
    assert (sel.avg_value >= cut).all()


def test_auto_date_histogram_picks_smallest_fitting_rung(ray_session):
    import ray.data as rd

    from excelastic_ray.pipelines.events import (
        AUTO_HIST_LADDER,
        auto_date_histogram,
    )

    t = _events(1500, seed=2)  # 20-day span
    got = (
        auto_date_histogram(rd.from_arrow(t), target_buckets=25)
        .to_pandas()
        .sort_values("window_start")
        .reset_index(drop=True)
    )
    df = t.to_pandas()
    lo = int(df.ts.astype("int64").min())
    hi = int(df.ts.astype("int64").max())
    iv = next(
        (i for i in AUTO_HIST_LADDER if hi // i - lo // i + 1 <= 25),
        AUTO_HIST_LADDER[-1],
    )
    assert (got.interval_us == iv).all()
    assert len(got) <= 25
    want = (
        ((df.ts.astype("int64") // iv) * iv)
        .value_counts()
        .sort_index()
    )
    assert got.window_start.tolist() == want.index.tolist()
    assert got.n.tolist() == want.tolist()
    # tiny target forces the coarsest rung fallback path
    one = auto_date_histogram(rd.from_arrow(t), target_buckets=1).to_pandas()
    assert (one.interval_us == AUTO_HIST_LADDER[-1]).all()


def test_agg_tree_hand_computed(ray_session):
    """Composable nested-agg executor on a hand-checked tiny tree:
    terms(size=2) → histogram(10) with sum/avg/min/max/value_count."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from excelastic_ray.pipelines.aggtree import agg_tree

    t = pa.table(
        {
            "kind": ["a", "a", "a", "b", "b", "c"],
            "v": pa.array([1.0, 2.0, 11.0, 5.0, 15.0, 99.0]),
        }
    )
    spec = {
        "by_kind": {
            "terms": {"field": "kind", "size": 2},
            "aggs": {
                "by_bin": {
                    "histogram": {"field": "v", "interval": 10.0},
                    "aggs": {
                        "s": {"sum": {"field": "v"}},
                        "m": {"min": {"field": "v"}},
                        "x": {"max": {"field": "v"}},
                        "c": {"value_count": {"field": "v"}},
                    },
                }
            },
        }
    }
    out = agg_tree(rd.from_arrow(t), spec).to_pydict()
    # size=2 keeps a (3 docs) and b (2 docs); c is pruned
    assert out["by_kind_key"] == ["a", "a", "b", "b"]
    assert out["by_bin_key"] == [0.0, 10.0, 0.0, 10.0]
    assert out["doc_count"] == [2, 1, 1, 1]
    assert out["s"] == [3.0, 11.0, 5.0, 15.0]
    assert out["m"] == [1.0, 11.0, 5.0, 15.0]
    assert out["x"] == [2.0, 11.0, 5.0, 15.0]
    assert out["c"] == [2, 1, 1, 1]


def test_agg_tree_range_drops_unmatched_and_validates(ray_session):
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from excelastic_ray.pipelines.aggtree import agg_tree

    t = pa.table({"kind": ["a", "a"], "v": pa.array([1.0, 200.0])})
    spec = {
        "r": {
            "range": {"field": "v", "ranges": [[None, 100]]},
            "aggs": {"s": {"sum": {"field": "v"}}},
        }
    }
    out = agg_tree(rd.from_arrow(t), spec).to_pydict()
    assert out["r_key"] == ["*-100.0"] and out["doc_count"] == [1]
    assert out["s"] == [1.0]

    with pytest.raises(ValueError, match="bucket kind"):
        agg_tree(rd.from_arrow(t), {"x": {"sum": {"field": "v"}}})
    with pytest.raises(ValueError, match="deepest"):
        agg_tree(
            rd.from_arrow(t),
            {"x": {"terms": {"field": "kind"},
                   "aggs": {"s": {"sum": {"field": "v"}},
                            "y": {"terms": {"field": "kind"}}}}},
        )


def test_agg_tree_range_counts_ancestors_before_filtering(ray_session):
    """ES semantics: docs outside every child range still count toward
    the PARENT terms ranking. type a (4 docs, all outside the range)
    must win size=1 over type b (1 doc inside) — so b must NOT appear;
    a has no leaf range bucket, so the flattened output is empty."""
    import pyarrow as pa
    import ray.data as rd

    from excelastic_ray.pipelines.aggtree import agg_tree

    t = pa.table(
        {
            "kind": ["a", "a", "a", "a", "b"],
            "v": pa.array([50.0, 60.0, 70.0, 80.0, 1.0]),
        }
    )
    spec = {
        "by_kind": {
            "terms": {"field": "kind", "size": 1},
            "aggs": {"band": {"range": {"field": "v",
                                        "ranges": [[0, 10]]}}},
        }
    }
    out = agg_tree(rd.from_arrow(t), spec).to_pydict()
    assert "b" not in out["by_kind_key"]  # a outranks b on TRUE counts
    assert out["by_kind_key"] == []  # a has no in-range leaf bucket


def test_agg_tree_overlapping_ranges_multi_membership(ray_session):
    """ES range buckets may overlap: a doc lands in EVERY bucket whose
    range contains it, and ancestor counts still count it once."""
    import pyarrow as pa
    import ray.data as rd

    from excelastic_ray.pipelines.aggtree import agg_tree

    t = pa.table({"kind": ["a", "a"], "v": pa.array([75.0, 5.0])})
    spec = {
        "r": {
            "range": {"field": "v", "ranges": [[0, 100], [50, 150]]},
            "aggs": {"s": {"sum": {"field": "v"}}},
        }
    }
    out = agg_tree(rd.from_arrow(t), spec).to_pydict()
    assert out["r_key"] == ["0.0-100.0", "50.0-150.0"]
    assert out["doc_count"] == [2, 1]  # 75 in both, 5 only in [0,100)
    assert out["s"] == [80.0, 75.0]


def test_agg_tree_null_metric_semantics(ray_session):
    """value_count counts VALUES (nulls excluded); avg divides by the
    non-null count; sum skips nulls; an all-null bucket's avg is null."""
    import pyarrow as pa
    import ray.data as rd

    from excelastic_ray.pipelines.aggtree import agg_tree

    t = pa.table(
        {
            "kind": ["a", "a", "a", "b"],
            "v": pa.array([10.0, None, 20.0, None]),
        }
    )
    spec = {
        "by_kind": {
            "terms": {"field": "kind", "size": 10},
            "aggs": {
                "c": {"value_count": {"field": "v"}},
                "s": {"sum": {"field": "v"}},
                "m": {"avg": {"field": "v"}},
            },
        }
    }
    out = agg_tree(rd.from_arrow(t), spec).to_pydict()
    assert out["by_kind_key"] == ["a", "b"]
    assert out["doc_count"] == [3, 1]
    assert out["c"] == [2, 0]       # nulls are not values
    assert out["s"] == [30.0, 0.0]  # null-skipping sum
    assert out["m"] == [15.0, None]  # sum/non-null-count; all-null -> null


def test_agg_tree_empty_result_schema_is_typed(ray_session):
    """An empty result keeps each level's real key type (timestamp for
    date_histogram) so schema unions with non-empty results work."""
    import pyarrow as pa
    import ray.data as rd

    from excelastic_ray.pipelines.aggtree import agg_tree

    t = pa.table(
        {
            "ts": pa.array([], type=pa.timestamp("us")),
            "v": pa.array([], type=pa.float64()),
        }
    )
    spec = {
        "per_day": {
            "date_histogram": {"field": "ts", "interval_hours": 24},
            "aggs": {"s": {"sum": {"field": "v"}}},
        }
    }
    out = agg_tree(rd.from_arrow(t), spec)
    assert out.schema.field("per_day_key").type == pa.timestamp("us")
    assert out.schema.field("s").type == pa.float64()
    assert out.num_rows == 0


def test_extended_stats_hand_computed(ray_session):
    """extended_stats vs direct numpy moments on a tiny column,
    including the truncate-sums-first discipline."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from excelastic_ray.pipelines.events import extended_stats

    v = np.array([1.5, 2.0, 2.5, 10.0, -3.0])
    out = extended_stats(
        rd.from_arrow(pa.table({"value": pa.array(v)})), sigma=2.0
    ).iloc[0]
    assert out["n"] == 5
    assert out["min_v"] == -3.0 and out["max_v"] == 10.0
    assert out["sum_v"] == 13.0
    assert out["avg_v"] == 2.6
    assert out["sum_sq"] == 121.5
    var = 121.5 / 5 - 2.6 * 2.6
    assert abs(out["variance"] - var) < 1e-6
    assert abs(out["std_dev"] - np.sqrt(out["variance"])) < 1e-6
    assert abs(out["std_upper"] - (2.6 + 2 * out["std_dev"])) < 1e-6


def test_median_abs_deviation_exact(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from excelastic_ray.pipelines.events import median_abs_deviation

    rng = np.random.RandomState(3)
    v = rng.normal(50, 10, 501)
    out = median_abs_deviation(
        rd.from_arrow(pa.table({"value": pa.array(v)}))
    ).iloc[0]
    m = np.sort(v)[250]  # discrete median, odd count
    mad = np.sort(np.abs(v - m))[250]
    assert out["median"] == m and out["mad"] == mad


def test_multi_terms_order_and_cut(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from excelastic_ray.pipelines.events import multi_terms

    t = pa.table(
        {
            "event_type": ["a", "a", "a", "b", "b", "c"],
            "user_id": pa.array([1, 1, 2, 1, 1, 9], type=pa.int64()),
        }
    )
    out = multi_terms(rd.from_arrow(t), size=3)
    assert list(zip(out["event_type"], out["user_id"], out["n"])) == [
        ("a", 1, 2), ("b", 1, 2), ("a", 2, 1),
    ]


def test_matrix_stats_matches_numpy(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from excelastic_ray.pipelines.events import matrix_stats

    rng = np.random.RandomState(5)
    x = rng.normal(0, 1, 400)
    y = 0.5 * x + rng.normal(0, 1, 400)
    out = matrix_stats(
        rd.from_arrow(pa.table({"x": pa.array(x), "y": pa.array(y)})),
        "x", "y",
    ).iloc[0]
    cov = float(np.mean(x * y) - np.mean(x) * np.mean(y))
    corr = cov / float(np.std(x) * np.std(y))
    assert out["n"] == 400
    assert abs(out["cov"] - cov) < 1e-5
    assert abs(out["corr"] - corr) < 1e-5


def test_string_stats_hand_computed(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from excelastic_ray.pipelines.textstats import string_stats

    texts = ["ab", "abb", None, ""]
    out = string_stats(
        rd.from_arrow(pa.table({"text": pa.array(texts)}))
    ).iloc[0]
    # chars over the corpus: a=2, b=3 (None -> "", counts rows though)
    assert out["count"] == 4
    assert out["min_length"] == 0 and out["max_length"] == 3
    assert out["avg_length"] == 1.25
    p = np.array([2, 3]) / 5
    ent = float(-np.sum(p * np.log2(p)))
    assert abs(out["entropy"] - ent) < 1e-6


def test_boxplot_exact(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from excelastic_ray.pipelines.events import boxplot

    rng = np.random.RandomState(9)
    v = rng.normal(0, 5, 401)
    out = boxplot(rd.from_arrow(pa.table({"value": pa.array(v)}))).iloc[0]
    s = np.sort(v)
    assert out["min_v"] == s[0] and out["max_v"] == s[-1]
    # discrete quantile: smallest value with cum count >= ceil(q*n)
    for q, col in ((0.25, "q1"), (0.5, "median"), (0.75, "q3")):
        assert out[col] == s[int(np.ceil(q * len(s))) - 1]


def test_weighted_avg_hand(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from excelastic_ray.pipelines.events import weighted_avg

    t = pa.table({"v": [1.0, 2.0, 10.0], "w": [1.0, 1.0, 3.0]})
    out = weighted_avg(rd.from_arrow(t), "v", "w").iloc[0]
    assert out["wsum"] == 33.0 and out["weight"] == 5.0
    assert out["wavg"] == 6.6


def test_top_metrics_latest_per_bucket(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from excelastic_ray.pipelines.events import top_metrics

    ts = np.array([3, 1, 2, 2, 5], dtype="datetime64[us]")
    t = pa.table(
        {
            "event_type": ["a", "a", "b", "b", "b"],
            "ts": pa.array(ts),
            "event_id": pa.array([10, 11, 12, 13, 14], type=pa.int64()),
            "value": [1.0, 2.0, 3.0, 4.0, 5.0],
        }
    )
    out = top_metrics(rd.from_arrow(t))
    assert list(out["event_type"]) == ["a", "b"]
    assert list(out["value"]) == [1.0, 5.0]
    # tie on ts broken by event_id: duplicate max ts within b
    t2 = pa.table(
        {
            "event_type": ["b", "b"],
            "ts": pa.array(np.array([5, 5], dtype="datetime64[us]")),
            "event_id": pa.array([20, 19], type=pa.int64()),
            "value": [7.0, 8.0],
        }
    )
    out2 = top_metrics(rd.from_arrow(t2))
    assert list(out2["value"]) == [7.0]


def test_t_test_welch_hand(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from excelastic_ray.pipelines.events import t_test

    rng = np.random.RandomState(2)
    a = rng.normal(10, 2, 150)
    b = rng.normal(9.5, 3, 90)
    t = pa.table(
        {
            "event_type": ["click"] * 150 + ["error"] * 90 + ["view"] * 5,
            "value": np.concatenate([a, b, np.ones(5)]),
        }
    )
    out = t_test(rd.from_arrow(t)).iloc[0]
    na, nb = len(a), len(b)
    va, vb = a.var(ddof=1), b.var(ddof=1)
    se2 = va / na + vb / nb
    tt = (a.mean() - b.mean()) / np.sqrt(se2)
    dof = se2**2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    assert out["n_a"] == na and out["n_b"] == nb
    assert abs(out["t"] - tt) < 1e-4
    assert abs(out["dof"] - dof) < 1e-2


def test_cumulative_cardinality_first_seen(ray_session):
    """Users re-appearing on later days must not re-count; running sum
    equals brute-force distinct-to-date."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from excelastic_ray.pipelines.events import cumulative_cardinality

    rng = np.random.RandomState(6)
    n = 3000
    users = rng.randint(0, 300, n)
    days = rng.randint(0, 12, n)
    ts = (
        np.datetime64("2024-03-01", "us")
        + days.astype("timedelta64[D]").astype("timedelta64[us]")
        + rng.randint(0, 86_400_000_000, n).astype("timedelta64[us]")
    )
    t = pa.table({"user_id": pa.array(users, type=pa.int64()),
                  "ts": pa.array(ts)})
    out = cumulative_cardinality(rd.from_arrow(t))
    df = pd.DataFrame({"u": users, "day": ts.astype("datetime64[D]")})
    expect = []
    seen: set = set()
    for day in sorted(df["day"].unique()):
        new = set(df[df["day"] == day]["u"]) - seen
        seen |= new
        if new:  # days with no first-seen user are absent (engine+SQL)
            expect.append((np.datetime64(day, "us"), len(new), len(seen)))
    got = list(zip(out["day"].to_numpy(), out["n_new"], out["cum_users"]))
    assert got == expect
    assert out["cum_users"].iloc[-1] == len(set(users))


def test_missing_agg_null_and_empty(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from excelastic_ray.pipelines.events import missing_agg

    t = pa.table(
        {
            "role": ["u", "u", "a", "a", "a", "t"],
            "tool": [None, "", "x", None, "y", "z"],
        }
    )
    out = missing_agg(rd.from_arrow(t), "tool", "role").to_pandas()
    assert dict(zip(out["role"], out["n_missing"])) == {
        "u": 2, "a": 1, "t": 0,
    }
    assert list(out["role"]) == ["a", "t", "u"]  # sorted


def test_agg_tree_fanout_hand_computed(ray_session):
    """Tree with SIBLING sub-aggs, a metric at an interior level, and
    a top-level metric — the full ES request-body shape the path
    executor refuses."""
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from excelastic_ray.pipelines.aggtree import agg_tree, agg_tree_fanout

    t = pa.table(
        {
            "kind": ["a", "a", "a", "b", "b", "c"],
            "v": pa.array([1.0, 2.0, 11.0, 5.0, 15.0, 99.0]),
        }
    )
    spec = {
        "by_kind": {
            "terms": {"field": "kind", "size": 2},
            "aggs": {
                "s_k": {"sum": {"field": "v"}},  # interior metric
                "by_bin": {
                    "histogram": {"field": "v", "interval": 10.0},
                    "aggs": {"s_b": {"sum": {"field": "v"}}},
                },
                "by_band": {  # SIBLING of by_bin
                    "range": {"field": "v",
                              "ranges": [[None, 10], [10, None]]},
                    "aggs": {"c_r": {"value_count": {"field": "v"}}},
                },
            },
        },
        "total": {"value_count": {"field": "v"}},  # top-level metric
    }
    # the path executor refuses this shape
    with pytest.raises(ValueError, match="sibling|deepest|a path"):
        agg_tree(rd.from_arrow(t), spec)
    out = agg_tree_fanout(rd.from_arrow(t), spec).to_pydict()
    # pre-order: _root, by_kind(a,b), by_bin(a0,a10,b0,b10), by_band
    assert out["agg"] == ["_root", "by_kind", "by_kind",
                          "by_bin", "by_bin", "by_bin", "by_bin",
                          "by_band", "by_band", "by_band", "by_band"]
    assert out["doc_count"] == [6, 3, 2, 2, 1, 1, 1, 2, 1, 1, 1]
    assert out["total"] == [6] + [None] * 10
    assert out["s_k"] == [None, 14.0, 20.0] + [None] * 8
    assert out["s_b"] == [None] * 3 + [3.0, 11.0, 5.0, 15.0] + [None] * 4
    assert out["c_r"] == [None] * 7 + [2, 1, 1, 1]
    assert out["by_kind_key"] == [None, "a", "b", "a", "a", "b", "b",
                                  "a", "a", "b", "b"]
    assert out["by_band_key"] == [None] * 7 + ["*-10.0", "10.0-*",
                                               "*-10.0", "10.0-*"]


def test_agg_tree_fanout_matches_bruteforce_randomized(ray_session):
    """Every node's grouping set vs an independent pandas oracle with
    top-down terms pruning, on a randomized table with nulls and
    overlapping ranges."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from excelastic_ray.pipelines.aggtree import agg_tree_fanout
    from excelastic_ray.pipelines.textstats import trunc6

    rng = np.random.default_rng(97)
    n = 4000
    df = pd.DataFrame(
        {
            "kind": rng.choice(["a", "b", "c", "d", None], size=n),
            "grp": rng.choice(["x", "y", "z"], size=n),
            "v": np.where(rng.random(n) < 0.1, np.nan,
                          rng.random(n) * 100),
        }
    )
    spec = {
        "by_kind": {
            "terms": {"field": "kind", "size": 2},
            "aggs": {
                "v_avg": {"avg": {"field": "v"}},
                "by_band": {
                    "range": {"field": "v",
                              "ranges": [[None, 60], [40, None]]},
                    "aggs": {
                        "by_grp": {"terms": {"field": "grp",
                                             "size": 2},
                                   "aggs": {"v_min": {"min":
                                                      {"field": "v"}}}},
                    },
                },
            },
        }
    }
    got = agg_tree_fanout(
        rd.from_arrow(pa.Table.from_pandas(df)), spec
    ).to_pandas()

    # --- independent oracle -------------------------------------------
    base = df[df["kind"].notna()]
    top = (base.groupby("kind").size().reset_index(name="n")
           .sort_values(["n", "kind"], ascending=[False, True]))
    kept = set(top["kind"].head(2))
    lvl1 = base[base["kind"].isin(kept)]
    # node by_kind
    g1 = got[got["agg"] == "by_kind"]
    for k in kept:
        rows = lvl1[lvl1["kind"] == k]
        mine = g1[g1["by_kind_key"] == k]
        assert int(mine["doc_count"].iloc[0]) == len(rows)
        s = trunc6(np.array([rows["v"].sum()]))[0]
        want = trunc6(np.array([s / rows["v"].notna().sum()]))[0]
        assert mine["v_avg"].iloc[0] == want
    # node by_band: overlapping ranges — each doc in every matching band
    g2 = got[got["agg"] == "by_band"]
    bands = {"*-60.0": lambda v: v < 60, "60.0-*": None,
             "40.0-*": lambda v: v >= 40}
    exp_rows = []
    for k in kept:
        sub = lvl1[lvl1["kind"] == k]
        for bk, pred in (("*-60.0", lambda v: v < 60),
                         ("40.0-*", lambda v: v >= 40)):
            m = sub[pred(sub["v"]) & sub["v"].notna()]
            exp_rows.append((k, bk, len(m)))
    for k, bk, cnt in exp_rows:
        mine = g2[(g2["by_kind_key"] == k) & (g2["by_band_key"] == bk)]
        assert int(mine["doc_count"].iloc[0]) == cnt, (k, bk)
    assert len(g2) == len(exp_rows)
    # node by_grp: terms size=2 PER (kind, band) parent bucket, ranked
    # on the per-path doc_count (post range expansion)
    g3 = got[got["agg"] == "by_grp"]
    for k, bk, _ in exp_rows:
        sub = lvl1[(lvl1["kind"] == k) & lvl1["v"].notna()]
        sub = sub[sub["v"] < 60] if bk == "*-60.0" else sub[sub["v"] >= 40]
        r = (sub.groupby("grp").size().reset_index(name="n")
             .sort_values(["n", "grp"], ascending=[False, True]).head(2))
        mine = g3[(g3["by_kind_key"] == k) & (g3["by_band_key"] == bk)]
        assert sorted(mine["by_grp_key"]) == sorted(r["grp"]), (k, bk)
        for _, row in r.iterrows():
            got_n = mine[mine["by_grp_key"] == row["grp"]]
            assert int(got_n["doc_count"].iloc[0]) == row["n"]
            want_min = trunc6(np.array(
                [sub[sub["grp"] == row["grp"]]["v"].min()]))[0]
            assert got_n["v_min"].iloc[0] == want_min


def test_agg_tree_fanout_path_spec_matches_agg_tree(ray_session):
    """On a pure-path spec the fanout executor's deepest grouping set
    equals the path executor's output (same keys, counts, metrics)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from excelastic_ray.pipelines.aggtree import agg_tree, agg_tree_fanout

    rng = np.random.default_rng(11)
    n = 3000
    t = pa.Table.from_pandas(pd.DataFrame(
        {
            "kind": rng.choice(["a", "b", "c", "d"], size=n),
            "v": rng.random(n) * 100,
        }
    ))
    spec = {
        "by_kind": {
            "terms": {"field": "kind", "size": 3},
            "aggs": {
                "by_bin": {
                    "histogram": {"field": "v", "interval": 25.0},
                    "aggs": {"s": {"sum": {"field": "v"}},
                             "a": {"avg": {"field": "v"}},
                             "m": {"min": {"field": "v"}},
                             "x": {"max": {"field": "v"}},
                             "c": {"value_count": {"field": "v"}}},
                }
            },
        }
    }
    path = agg_tree(rd.from_arrow(t), spec).to_pandas()
    fan = agg_tree_fanout(rd.from_arrow(t), spec).to_pandas()
    leaf = (fan[fan["agg"] == "by_bin"]
            .drop(columns=["agg"])
            .sort_values(["by_kind_key", "by_bin_key"])
            .reset_index(drop=True))
    path = path.sort_values(["by_kind_key", "by_bin_key"]).reset_index(
        drop=True)
    assert list(leaf.columns) == list(path.columns)
    for col in path.columns:
        assert leaf[col].tolist() == path[col].tolist(), col


def test_agg_tree_fanout_validates(ray_session):
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from excelastic_ray.pipelines.aggtree import agg_tree_fanout

    t = pa.table({"k": ["a"], "v": [1.0]})
    with pytest.raises(ValueError, match="unique"):
        agg_tree_fanout(rd.from_arrow(t), {
            "x": {"terms": {"field": "k"},
                  "aggs": {"x": {"sum": {"field": "v"}}}}})
    with pytest.raises(ValueError, match="neither"):
        agg_tree_fanout(rd.from_arrow(t), {"x": {"median": {"field": "v"}}})
    with pytest.raises(ValueError, match="empty"):
        agg_tree_fanout(rd.from_arrow(t), {})


def test_agg_tree_fanout_bucket_sort(ray_session):
    """ES bucket_sort pipeline agg: orders the parent's buckets by a
    sibling metric and keeps the [from, from+size) window, cascading
    the truncation to the whole subtree."""
    import pyarrow as pa
    import ray.data as rd

    from excelastic_ray.pipelines.aggtree import agg_tree_fanout

    t = pa.table(
        {
            "kind": ["a", "a", "b", "b", "c", "d"],
            "v": pa.array([10.0, 20.0, 50.0, 60.0, 5.0, 30.0]),
        }
    )
    # avgs: a=15, b=55, c=5, d=30 → desc rank: b, d, a, c
    spec = {
        "by_kind": {
            "terms": {"field": "kind", "size": 10},
            "aggs": {
                "v_avg": {"avg": {"field": "v"}},
                "win": {"bucket_sort": {
                    "sort": [{"v_avg": {"order": "desc"}}],
                    "from": 1, "size": 2}},
                "by_bin": {
                    "histogram": {"field": "v", "interval": 100.0},
                    "aggs": {"s": {"sum": {"field": "v"}}},
                },
            },
        }
    }
    out = agg_tree_fanout(rd.from_arrow(t), spec).to_pandas()
    own = out[out["agg"] == "by_kind"]
    assert sorted(own["by_kind_key"]) == ["a", "d"]  # ranks 2 and 3
    assert set(out[out["agg"] == "by_bin"]["by_kind_key"]) == {"a", "d"}

    # _count sort key, ascending, no size → pure reorder keeps all
    spec2 = {
        "by_kind": {
            "terms": {"field": "kind", "size": 10},
            "aggs": {
                "w": {"bucket_sort": {
                    "sort": [{"_count": {"order": "asc"}}]}},
            },
        }
    }
    out2 = agg_tree_fanout(rd.from_arrow(t), spec2).to_pandas()
    assert sorted(out2["by_kind_key"]) == ["a", "b", "c", "d"]

    # validation: unknown sort metric, bucket_sort at the root
    import pytest as _pytest

    with _pytest.raises(ValueError, match="not a sibling metric"):
        agg_tree_fanout(rd.from_arrow(t), {
            "by_kind": {"terms": {"field": "kind"},
                        "aggs": {"w": {"bucket_sort": {
                            "sort": [{"nope": {"order": "asc"}}]}}}}
        })
    with _pytest.raises(ValueError, match="must nest under"):
        agg_tree_fanout(rd.from_arrow(t), {
            "w": {"bucket_sort": {"sort": [{"_count": "asc"}]}}
        })


def test_agg_tree_fanout_new_metrics_hand_computed(ray_session):
    """weighted_avg / extended_stats / cardinality / rate vs a pandas
    oracle, incl. the doc_count rate (no field) and the trunc6
    conventions each metric documents."""
    import math

    import pyarrow as pa
    import ray.data as rd

    from excelastic_ray.pipelines.aggtree import agg_tree_fanout

    t = pa.table(
        {
            "kind": ["a", "a", "a", "b", "b", "b"],
            "v": pa.array([1.0, 2.0, None, 4.0, 8.0, 12.0]),
            "w": pa.array([1.0, 3.0, 5.0, 2.0, None, 2.0]),
            "u": pa.array([7, 7, 9, 7, 8, 8], type=pa.int64()),
            "ts": pa.array(
                np.array(
                    ["2024-01-01T00", "2024-01-01T12", "2024-01-02T00",
                     "2024-01-01T06", "2024-01-02T06", "2024-01-02T18"],
                    dtype="datetime64[us]",
                )
            ),
        }
    )
    spec = {
        "by_kind": {
            "terms": {"field": "kind", "size": 5},
            "aggs": {
                "wa": {"weighted_avg": {"value": {"field": "v"},
                                        "weight": {"field": "w"}}},
                "st": {"extended_stats": {"field": "v"}},
                "cu": {"cardinality": {"field": "u"}},
                "per_day": {
                    "date_histogram": {"field": "ts",
                                       "interval_hours": 24},
                    "aggs": {
                        "r_v": {"rate": {"field": "v", "unit": "hour"}},
                        "r_n": {"rate": {"unit": "day"}},
                    },
                },
            },
        },
        "gu": {"cardinality": {"field": "u"}},
    }
    out = agg_tree_fanout(rd.from_arrow(t), spec).to_pandas()
    root = out[out["agg"] == "_root"].iloc[0]
    assert root["gu"] == 3  # {7, 8, 9}
    bk = out[out["agg"] == "by_kind"].set_index("by_kind_key")
    # weighted_avg: rows with BOTH v and w non-null
    # a: (1*1 + 2*3) / (1+3) = 1.75 ; b: (4*2 + 12*2) / 4 = 8.0
    assert bk.loc["a", "wa"] == 1.75
    assert bk.loc["b", "wa"] == 8.0
    # extended_stats over a: v = [1, 2] → var = 2.5 - 1.5² = 0.25
    assert bk.loc["a", "st_count"] == 2
    assert bk.loc["a", "st_sum"] == 3.0
    assert bk.loc["a", "st_sum_of_squares"] == 5.0
    assert bk.loc["a", "st_avg"] == 1.5
    assert bk.loc["a", "st_variance"] == 0.25
    assert bk.loc["a", "st_std_deviation"] == 0.5
    assert bk.loc["a", "st_min"] == 1.0 and bk.loc["a", "st_max"] == 2.0
    # b: v = [4, 8, 12] → mean 8, var = (16+64+144)/3 - 64 = 10.666666
    assert bk.loc["b", "st_variance"] == trunc6(
        np.array([224 / 3 - 64.0])
    )[0]
    assert bk.loc["b", "st_std_deviation"] == trunc6(
        np.array([math.sqrt(trunc6(np.array([224 / 3 - 64.0]))[0])])
    )[0]
    # exact cardinality per bucket
    assert bk.loc["a", "cu"] == 2  # {7, 9}
    assert bk.loc["b", "cu"] == 2  # {7, 8}
    # rate: per-day buckets; a/day1 v=[1,2] → 3/24 per hour
    pd_rows = out[out["agg"] == "per_day"].set_index(
        ["by_kind_key", "per_day_key"])
    d1 = np.datetime64("2024-01-01", "us")
    d2 = np.datetime64("2024-01-02", "us")
    assert pd_rows.loc[("a", d1), "r_v"] == 0.125
    # doc_count rate, unit=day over a 24 h bucket → the count itself
    assert pd_rows.loc[("a", d1), "r_n"] == 2.0
    assert pd_rows.loc[("b", d2), "r_n"] == 2.0
    # all-null v bucket (a/day2 has only the null-v row): count 0,
    # sum 0, min/max/avg/variance null — the ES empty-stats shape
    assert pd_rows.loc[("a", d2), "r_v"] == 0.0


def test_agg_tree_fanout_date_range_and_terms_missing(ray_session):
    """date_range buckets key by the given ISO strings, nulls drop;
    terms `missing` buckets null keys under the stand-in."""
    import pyarrow as pa
    import ray.data as rd

    from excelastic_ray.pipelines.aggtree import agg_tree_fanout

    t = pa.table(
        {
            "kind": pa.array(["a", None, "b", None, "a"]),
            "ts": pa.array(
                np.array(["2024-01-05", "2024-02-10", "2024-03-15",
                          "NaT", "2024-02-20"],
                         dtype="datetime64[us]")
            ),
            "v": pa.array([1.0, 2.0, 3.0, 4.0, 5.0]),
        }
    )
    spec = {
        "by_kind": {"terms": {"field": "kind", "size": 5,
                              "missing": "N/A"}},
        "by_when": {
            "date_range": {
                "field": "ts",
                "ranges": [[None, "2024-02-01"],
                           ["2024-02-01", "2024-03-01"],
                           ["2024-03-01", None]],
            },
            "aggs": {"s": {"sum": {"field": "v"}}},
        },
    }
    out = agg_tree_fanout(rd.from_arrow(t), spec).to_pandas()
    bk = out[out["agg"] == "by_kind"].set_index("by_kind_key")
    assert bk.loc["a", "doc_count"] == 2
    assert bk.loc["N/A", "doc_count"] == 2  # the two null kinds
    bw = out[out["agg"] == "by_when"].set_index("by_when_key")
    assert bw.loc["*-2024-02-01", "doc_count"] == 1
    assert bw.loc["*-2024-02-01", "s"] == 1.0
    assert bw.loc["2024-02-01-2024-03-01", "doc_count"] == 2
    assert bw.loc["2024-02-01-2024-03-01", "s"] == 7.0
    assert bw.loc["2024-03-01-*", "s"] == 3.0
    assert len(bw) == 3  # the NaT row is in no date_range bucket


def test_agg_tree_fanout_cardinality_budget_and_validation(ray_session):
    """The exact-cardinality budget refuses loudly before collecting;
    spec validation rejects rate outside date_histogram, bucket_sort
    on multi-valued metrics, and malformed weighted_avg."""
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from excelastic_ray.pipelines import aggtree
    from excelastic_ray.pipelines.aggtree import agg_tree_fanout

    t = pa.table({"kind": ["a", "b"] * 50,
                  "u": pa.array(np.arange(100), type=pa.int64()),
                  "v": pa.array(np.arange(100), type=pa.float64())})
    old = aggtree.CARDINALITY_BUDGET
    aggtree.CARDINALITY_BUDGET = 10
    try:
        with pytest.raises(RuntimeError, match="kmv_distinct"):
            agg_tree_fanout(rd.from_arrow(t), {
                "c": {"cardinality": {"field": "u"}}})
    finally:
        aggtree.CARDINALITY_BUDGET = old

    with pytest.raises(ValueError, match="date_histogram"):
        agg_tree_fanout(rd.from_arrow(t), {
            "by_kind": {"terms": {"field": "kind"},
                        "aggs": {"r": {"rate": {"field": "v"}}}}})
    with pytest.raises(ValueError, match="unit"):
        agg_tree_fanout(rd.from_arrow(t), {
            "per_day": {"date_histogram": {"field": "ts",
                                           "interval_hours": 24},
                        "aggs": {"r": {"rate": {"unit": "month"}}}}})
    with pytest.raises(ValueError, match="weight.field"):
        agg_tree_fanout(rd.from_arrow(t), {
            "w": {"weighted_avg": {"value": {"field": "v"}}}})
    with pytest.raises(ValueError, match="multi-valued|driver-computed"):
        agg_tree_fanout(rd.from_arrow(t), {
            "by_kind": {"terms": {"field": "kind"},
                        "aggs": {"st": {"extended_stats": {"field": "v"}},
                                 "w": {"bucket_sort": {
                                     "sort": [{"st": "asc"}]}}}}})


def test_agg_tree_fanout_quantile_metrics_hand_computed(ray_session):
    """percentiles / median_absolute_deviation / stats vs hand values,
    incl. quantile_cont interpolation between order stats, repeated
    values merging counts, and the all-null empty-bucket shape."""
    import pyarrow as pa
    import ray.data as rd

    from excelastic_ray.pipelines.aggtree import agg_tree_fanout

    t = pa.table(
        {
            "kind": ["a"] * 5 + ["b"] * 4,
            # a: v = [1, 2, 2, 10]  (one null)
            # b: all null
            "v": pa.array([1.0, 2.0, 2.0, 10.0, None,
                           None, None, None, None]),
        }
    )
    spec = {
        "by_kind": {
            "terms": {"field": "kind", "size": 5},
            "aggs": {
                "pq": {"percentiles": {"field": "v",
                                       "percents": [0, 50, 75, 100]}},
                "md": {"median_absolute_deviation": {"field": "v"}},
                "st": {"stats": {"field": "v"}},
            },
        },
        "gq": {"percentiles": {"field": "v", "percents": [50]}},
    }
    before = json.dumps(spec)
    out = agg_tree_fanout(rd.from_arrow(t), spec).to_pandas()
    # the caller's spec is only read: its int percents stay ints
    assert json.dumps(spec) == before
    bk = out[out["agg"] == "by_kind"].set_index("by_kind_key")
    # a: sorted [1, 2, 2, 10]; p0 = 1; p50: pos 1.5 → 2; p75: pos
    # 2.25 → 2 + 0.25·(10−2) = 4; p100 = 10
    assert bk.loc["a", "pq_p0"] == 1.0
    assert bk.loc["a", "pq_p50"] == 2.0
    assert bk.loc["a", "pq_p75"] == 4.0
    assert bk.loc["a", "pq_p100"] == 10.0
    # mad(a): med = 2; |v−2| = [1, 0, 0, 8] sorted [0, 0, 1, 8];
    # median at pos 1.5 → 0 + 0.5·(1−0) = 0.5
    assert bk.loc["a", "md"] == 0.5
    # stats(a)
    assert bk.loc["a", "st_count"] == 4
    assert bk.loc["a", "st_min"] == 1.0 and bk.loc["a", "st_max"] == 10.0
    assert bk.loc["a", "st_sum"] == 15.0 and bk.loc["a", "st_avg"] == 3.75
    # b: doc_count 4, every value metric null (ES empty-bucket shape)
    assert bk.loc["b", "doc_count"] == 4
    assert pd.isna(bk.loc["b", "pq_p50"]) and pd.isna(bk.loc["b", "md"])
    assert bk.loc["b", "st_count"] == 0 and pd.isna(bk.loc["b", "st_avg"])
    # root percentiles over every non-null v
    root = out[out["agg"] == "_root"].iloc[0]
    assert root["gq_p50"] == 2.0
    assert root["doc_count"] == 9


def test_agg_tree_fanout_quantiles_match_duckdb_randomized(ray_session):
    """percentiles + mad match DuckDB's quantile_cont (and the two-pass
    mad CTE) bit-for-bit after trunc6 on a randomized corpus — the same
    protocol the driver gate runs."""
    import duckdb
    import pyarrow as pa
    import ray.data as rd

    from excelastic_ray.pipelines.aggtree import agg_tree_fanout

    rng = np.random.default_rng(11)
    n = 4000
    df = pd.DataFrame(
        {
            "kind": rng.choice(["x", "y", "z"], n),
            "v": np.round(rng.normal(100, 30, n), 2),
        }
    )
    df.loc[rng.random(n) < 0.07, "v"] = np.nan
    spec = {
        "by_kind": {
            "terms": {"field": "kind", "size": 3},
            "aggs": {
                "pq": {"percentiles": {"field": "v",
                                       "percents": [1, 25, 50, 99]}},
                "md": {"median_absolute_deviation": {"field": "v"}},
            },
        },
    }
    out = agg_tree_fanout(rd.from_pandas(df), spec).to_pandas()
    eng = (out[out["agg"] == "by_kind"].sort_values("by_kind_key")
           .reset_index(drop=True))
    con = duckdb.connect()
    con.register("t", df)
    T = "floor({} * 1000000 + 0.5) / 1000000"
    ref = con.sql(f"""
WITH med AS (SELECT kind, quantile_cont(v, 0.5) AS m FROM t GROUP BY 1)
SELECT t.kind,
  {T.format('quantile_cont(t.v, 0.01)')} AS p1,
  {T.format('quantile_cont(t.v, 0.25)')} AS p25,
  {T.format('quantile_cont(t.v, 0.50)')} AS p50,
  {T.format('quantile_cont(t.v, 0.99)')} AS p99,
  {T.format('quantile_cont(abs(t.v - med.m), 0.5)')} AS mad
FROM t JOIN med USING (kind) GROUP BY 1 ORDER BY 1
""").df()
    for ec, rc in [("pq_p1", "p1"), ("pq_p25", "p25"),
                   ("pq_p50", "p50"), ("pq_p99", "p99"), ("md", "mad")]:
        assert list(eng[ec]) == list(ref[rc]), (ec, eng[ec], ref[rc])


def test_agg_tree_fanout_missing_filter_buckets(ray_session):
    """The single-bucket kinds: `missing` holds exactly the docs
    without the field, `filter` exactly the term-filter matches; both
    nest sub-aggs; spec validation rejects malformed bodies."""
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from excelastic_ray.pipelines.aggtree import agg_tree_fanout

    t = pa.table(
        {
            "u": pa.array([None, 1.0, None, 2.0, 3.0, None]),
            "kind": pa.array(["a", "a", "b", "b", "a", None]),
            "v": pa.array([10.0, 20.0, 30.0, 40.0, 50.0, 60.0]),
        }
    )
    spec = {
        "no_u": {
            "missing": {"field": "u"},
            "aggs": {
                "v_sum": {"sum": {"field": "v"}},
                "by_kind": {"terms": {"field": "kind", "size": 5}},
            },
        },
        "just_a": {
            "filter": {"field": "kind", "value": "a"},
            "aggs": {"v_avg": {"avg": {"field": "v"}}},
        },
    }
    out = agg_tree_fanout(rd.from_arrow(t), spec).to_pandas()
    m = out[out["agg"] == "no_u"]
    assert len(m) == 1 and m["no_u_key"].iloc[0] == "missing"
    assert m["doc_count"].iloc[0] == 3 and m["v_sum"].iloc[0] == 100.0
    # nested terms under missing: kinds of the 3 u-less docs — a, b
    # (the null-kind doc drops from the terms set but not from no_u)
    sub = out[out["agg"] == "by_kind"].set_index("by_kind_key")
    assert sub.loc["a", "doc_count"] == 1
    assert sub.loc["b", "doc_count"] == 1
    f = out[out["agg"] == "just_a"]
    assert len(f) == 1 and f["just_a_key"].iloc[0] == "match"
    assert f["doc_count"].iloc[0] == 3
    assert f["v_avg"].iloc[0] == trunc6(np.array([80.0 / 3]))[0]

    ds = rd.from_arrow(t)
    with pytest.raises(ValueError, match="needs a field"):
        agg_tree_fanout(ds, {"m": {"missing": {}}})
    with pytest.raises(ValueError, match="field and value"):
        agg_tree_fanout(ds, {"f": {"filter": {"field": "kind"}}})
    with pytest.raises(ValueError, match="percents"):
        agg_tree_fanout(ds, {"p": {"percentiles": {
            "field": "v", "percents": [150]}}})
    with pytest.raises(ValueError, match="multi-valued|driver-computed"):
        agg_tree_fanout(ds, {
            "by_kind": {"terms": {"field": "kind"},
                        "aggs": {"pq": {"percentiles": {"field": "v"}},
                                 "w": {"bucket_sort": {
                                     "sort": [{"pq": "asc"}]}}}}})


def test_agg_tree_fanout_value_count_on_keyword(ray_session):
    """ES value_count works on any field type: counting a STRING
    field's non-null values must not hit the numeric cast."""
    import pyarrow as pa
    import ray.data as rd

    from excelastic_ray.pipelines.aggtree import agg_tree_fanout

    t = pa.table(
        {
            "kind": ["a", "a", "b", "b"],
            "tag": pa.array(["x", None, "y", "z"]),
        }
    )
    out = agg_tree_fanout(rd.from_arrow(t), {
        "by_kind": {"terms": {"field": "kind", "size": 5},
                    "aggs": {"tags": {"value_count": {
                        "field": "tag"}}}},
    }).to_pandas()
    bk = out.set_index("by_kind_key")
    assert bk.loc["a", "tags"] == 1 and bk.loc["b", "tags"] == 2
