"""Composable aggregation-tree executor — the generic form of the ES
nested-aggregation surface (any bucket agg under any bucket agg, metric
aggs at the deepest level), replacing the fixed per-shape executors for
arbitrary user trees. ES request-body analog:

    {"by_type": {"terms": {"field": "event_type", "size": 3},
      "aggs": {"per_day": {"date_histogram": {"field": "ts",
                                              "interval_hours": 24},
        "aggs": {"v_sum": {"sum": {"field": "value"}},
                 "v_avg": {"avg": {"field": "value"}}}}}}}

Supported bucket kinds: ``terms`` (size N, ordered doc_count DESC /
key ASC — the ES default, computed EXACTLY on full counts, no
shard_size approximation), ``date_histogram`` (fixed
``interval_hours``), ``histogram`` (numeric ``interval``), ``range``
(``ranges`` list of [lo, hi) with null = unbounded). Metric kinds:
``value_count``, ``sum``, ``avg``, ``min``, ``max`` — additive partials,
so one corpus pass suffices at any tree depth. v1 restriction: each
level nests at most ONE bucket agg (a path); metric aggs live at the
deepest level (every level implicitly reports ``doc_count``).

ES semantics honored exactly (round-4 review fixes):

- A doc missing a level's field (null terms value, NaT timestamp, NaN
  numeric) or outside every configured range is EXCLUDED from that
  level and below but still counts toward every ANCESTOR level's
  doc_count/ranking — carried as a marker key (None/NaN) through the
  combine and dropped only from the final output.
- ``range`` buckets may OVERLAP: a doc lands in every bucket whose
  range contains it (rows expand per matching range). Ancestor terms
  ranking counts each source doc once via a ``__once`` column (exact
  for non-overlapping ranges — the usual shape — and for any terms
  level ABOVE the range level; a terms level BELOW overlapping ranges
  under-ranks the doc's second path, documented corner).
- ``value_count`` counts non-null values, not rows; ``avg`` divides by
  the non-null value count (null when a bucket has no values); min/max
  skip nulls (pandas skipna).

Shuffle shape (the repo-standard two-level combine): one
``map_batches`` pass computes every level's bucket key column
vectorized and pre-aggregates per batch (one row per distinct key
TUPLE per batch — the exchange moves key-tuple partials, never
events), then a coarse hash-bucket combine sums the additive partials.
The combined frame is bucket-space-sized (the product of level
cardinalities — the same boundedness assumption ES itself makes via
``size``/interval; ``terms`` pruning is applied on the driver over
exact rolled-up counts). → flattened leaf rows: one per surviving
deepest-level bucket carrying every ancestor key, ``doc_count``, and
the metrics (floats trunc6'd; avg from the truncated sum, matching
``range_agg``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from excelastic_ray.hashing import combine_by_key
from excelastic_ray.pipelines.textstats import trunc6

__all__ = ["agg_tree", "agg_tree_fanout"]

BUCKET_KINDS = ("terms", "date_histogram", "histogram", "range")
METRIC_KINDS = ("value_count", "sum", "avg", "min", "max")

# the fanout executor's wider surface (the path executor keeps v1's set)
FANOUT_BUCKET_KINDS = BUCKET_KINDS + ("date_range", "missing", "filter")
FANOUT_METRIC_KINDS = METRIC_KINDS + (
    "weighted_avg", "extended_stats", "rate", "cardinality",
    "stats", "percentiles", "median_absolute_deviation",
)
#: exact-cardinality / exact-quantile distinct-pair budget: the combine's
#: output holds one row per distinct (bucket, value) pair; past this the
#: driver refuses and points at the approximate scale path (KMV for
#: cardinality; pre-discretizing the metric field for quantiles — ES
#: itself goes approximate here via HLL / t-digest)
CARDINALITY_BUDGET = 2_000_000

#: bucket-key kinds whose key column is a string (vs timestamp / float)
_STR_KEY_KINDS = ("terms", "range", "date_range", "missing", "filter")

#: ES percentiles default percents
_DEFAULT_PERCENTS = (1.0, 5.0, 25.0, 50.0, 75.0, 95.0, 99.0)


def _pct_tag(p: float) -> str:
    """25 → 'p25', 99.9 → 'p99_9' — the flat-column suffix for a
    percentile (the ES response keys percents as strings)."""
    return "p" + ("%g" % float(p)).replace(".", "_")
_RATE_UNIT_S = {"second": 1.0, "minute": 60.0, "hour": 3600.0,
                "day": 86400.0, "week": 604800.0}


def _parse_spec(spec: dict):
    """→ (levels, metrics): levels = [(name, kind, params)] root→leaf;
    metrics = [(name, op, field)] at the deepest level."""
    levels: list[tuple[str, str, dict]] = []
    metrics: list[tuple[str, str, str]] = []
    node = spec
    while True:
        if len(node) != 1:
            raise ValueError(
                "each level nests exactly one bucket agg (a path); got "
                f"{sorted(node)}"
            )
        (name, body), = node.items()
        kind = next((k for k in BUCKET_KINDS if k in body), None)
        if kind is None:
            raise ValueError(
                f"agg {name!r} has no bucket kind (supported: "
                f"{BUCKET_KINDS})"
            )
        levels.append((name, kind, body[kind]))
        subs = body.get("aggs", {})
        bucket_subs = {
            k: v for k, v in subs.items()
            if any(b in v for b in BUCKET_KINDS)
        }
        metric_subs = {k: v for k, v in subs.items() if k not in bucket_subs}
        if bucket_subs and metric_subs:
            raise ValueError(
                "metric aggs are supported at the deepest level only"
            )
        if len(bucket_subs) > 1:
            raise ValueError(
                "sibling bucket aggs are not supported (one path per tree)"
            )
        if bucket_subs:
            node = bucket_subs
            continue
        for mname, mbody in metric_subs.items():
            op = next((k for k in METRIC_KINDS if k in mbody), None)
            if op is None:
                raise ValueError(
                    f"metric {mname!r} has no supported op "
                    f"(supported: {METRIC_KINDS})"
                )
            metrics.append((mname, op, mbody[op]["field"]))
        return levels, metrics


def _range_key(lo, hi) -> str:
    return (f"{'*' if lo is None else repr(float(lo))}-"
            f"{'*' if hi is None else repr(float(hi))}")


def _norm_ranges(kind: str, params: dict) -> list[tuple]:
    """→ [(lo_float, hi_float, bucket_key_str)]. ``range`` bounds are
    numeric; ``date_range`` bounds are ISO-8601 strings (or None =
    unbounded) compared in µs-since-epoch space, keyed by the given
    strings verbatim (`*` for an open end) — stable and
    SQL-reproducible."""
    out = []
    for lo, hi in params["ranges"]:
        if kind == "date_range":
            lo_f = (-np.inf if lo is None
                    else float(np.datetime64(lo, "us").astype(np.int64)))
            hi_f = (np.inf if hi is None
                    else float(np.datetime64(hi, "us").astype(np.int64)))
            key = f"{'*' if lo is None else lo}-{'*' if hi is None else hi}"
        else:
            lo_f = -np.inf if lo is None else float(lo)
            hi_f = np.inf if hi is None else float(hi)
            key = _range_key(lo, hi)
        out.append((lo_f, hi_f, key))
    return out


def _level_keys(batch: pa.Table, kind: str, params: dict) -> np.ndarray:
    """Vectorized bucket key per row for one non-range level. Missing
    values (null terms, NaT timestamps, NaN numerics) become the
    marker key (None for terms, NaN for the histogram kinds): excluded
    from this level's output but still counted at ancestor levels."""
    if kind == "terms":
        vals = batch[params["field"]].to_numpy(zero_copy_only=False)
        out = vals.astype(object)
        na = pd.isna(out)  # vectorized None/NaN detection
        if na.any():
            # ES `missing` parameter: docs without the field bucket
            # under the configured stand-in key instead of dropping out
            out[na] = params.get("missing")
        return out
    if kind == "date_histogram":
        raw = batch[params["field"]].to_numpy().astype("datetime64[us]")
        us = raw.astype(np.int64).astype(np.float64)
        us[np.isnat(raw)] = np.nan
        step = float(int(params.get("interval_hours", 24)) * 3_600_000_000)
        return np.floor(us / step) * step
    if kind == "histogram":
        v = batch[params["field"]].to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        interval = float(params["interval"])
        return np.floor(v / interval) * interval
    if kind == "missing":
        # ES `missing` agg: ONE bucket holding the docs WITHOUT the
        # field; everything else keys to None (excluded from the set)
        vals = batch[params["field"]].to_numpy(zero_copy_only=False)
        out = np.full(len(vals), None, dtype=object)
        out[np.asarray(pd.isna(vals))] = "missing"
        return out
    if kind == "filter":
        # ES `filter` agg (single-bucket): docs matching the term
        # filter {field, value} — the engine's filter-context analog
        # of the ES query-DSL filter body
        vals = batch[params["field"]].to_numpy(zero_copy_only=False)
        eq = pd.Series(vals).eq(params["value"]).to_numpy()
        out = np.full(len(vals), None, dtype=object)
        out[eq & ~np.asarray(pd.isna(vals))] = "match"
        return out
    raise ValueError(f"unknown bucket kind {kind!r}")


def agg_tree(ds, spec: dict, n_buckets: int | None = None) -> pa.Table:
    levels, metrics = _parse_spec(spec)
    key_cols = [f"{name}_key" for name, _, _ in levels]

    def partial(batch: pa.Table) -> pd.DataFrame:
        n_rows = batch.num_rows
        df = pd.DataFrame(index=np.arange(n_rows))
        range_levels: list[tuple[str, list]] = []
        for kc, (_, kind, params) in zip(key_cols, levels):
            if kind == "range":
                # the raw value rides as a temp column so a SECOND
                # range level's masks stay aligned after the first
                # level's row expansion
                df[f"{kc}__v"] = batch[params["field"]].to_numpy(
                    zero_copy_only=False
                ).astype(np.float64)
                range_levels.append((kc, params["ranges"]))
                df[kc] = None  # filled by the expansion below
            else:
                df[kc] = _level_keys(batch, kind, params)
        df["doc_count"] = np.ones(n_rows, dtype=np.int64)
        # __once: 1 on the FIRST expanded copy of each source row —
        # ancestor doc_counts/terms ranking count each doc once even
        # when overlapping ranges expand it into several leaf buckets
        df["__once"] = np.ones(n_rows, dtype=np.int64)
        aggs = {"doc_count": ("doc_count", "sum"),
                "__once": ("__once", "sum")}
        for mname, op, field in metrics:
            col = batch[field].to_numpy(zero_copy_only=False).astype(
                np.float64
            )
            if op in ("sum", "avg"):
                df[f"{mname}__sum"] = col  # NaN skipped by pandas sum
                aggs[f"{mname}__sum"] = (f"{mname}__sum", "sum")
            if op == "avg":
                df[f"{mname}__n"] = (~np.isnan(col)).astype(np.int64)
                aggs[f"{mname}__n"] = (f"{mname}__n", "sum")
            elif op == "min":
                df[f"{mname}__min"] = col
                aggs[f"{mname}__min"] = (f"{mname}__min", "min")
            elif op == "max":
                df[f"{mname}__max"] = col
                aggs[f"{mname}__max"] = (f"{mname}__max", "max")
            elif op == "value_count":
                # ES value_count counts VALUES, not rows: nulls excluded
                df[f"{mname}__cnt"] = (~np.isnan(col)).astype(np.int64)
                aggs[f"{mname}__cnt"] = (f"{mname}__cnt", "sum")
        # range expansion: one copy per MATCHING range (ES puts a doc in
        # every bucket whose range contains it — buckets may overlap);
        # rows matching nothing keep the None marker (ancestors still
        # count them, the output drops them)
        for kc, ranges in range_levels:
            v = df[f"{kc}__v"].to_numpy()
            parts = []
            seen = np.zeros(len(df), dtype=bool)
            first = np.ones(len(df), dtype=bool)
            for lo, hi in ranges:
                lo_f = -np.inf if lo is None else float(lo)
                hi_f = np.inf if hi is None else float(hi)
                m = (v >= lo_f) & (v < hi_f)
                if not m.any():
                    continue
                sub = df[m].copy()
                sub[kc] = _range_key(lo, hi)
                # only each row's first copy keeps __once=1 (a copy of
                # a row that was already a non-first copy at an OUTER
                # range level starts at 0 and stays 0)
                dup = ~first[m]
                if dup.any():
                    sub.loc[dup, "__once"] = 0
                parts.append(sub)
                first = first & ~m
                seen |= m
            if not seen.all():
                parts.append(df[~seen])  # marker rows (no range matched)
            df = pd.concat(parts, ignore_index=True) if parts else df[:0]
            df = df.drop(columns=f"{kc}__v")
        return (
            df.groupby(key_cols, sort=False, dropna=False)
            .agg(**aggs)
            .reset_index()
        )

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        aggs = {}
        for c in g.columns:
            if c in key_cols:
                continue
            aggs[c] = (c, "min" if c.endswith("__min")
                       else "max" if c.endswith("__max") else "sum")
        return (
            g.groupby(key_cols, sort=False, dropna=False)
            .agg(**aggs)
            .reset_index()
        )

    fine = combine_by_key(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=16384),
        key_cols, combine, size_from=ds, bytes_per_row=8,
        n_buckets=n_buckets,
    ).to_pandas()

    def _typed_empty() -> pa.Table:
        cols: dict = {}
        for kc, (_n, kind, _p) in zip(key_cols, levels):
            if kind == "date_histogram":
                cols[kc] = pa.array([], type=pa.timestamp("us"))
            elif kind == "histogram":
                cols[kc] = pa.array([], type=pa.float64())
            else:
                cols[kc] = pa.array([], type=pa.string())
        cols["doc_count"] = pa.array([], type=pa.int64())
        for mname, op, _f in metrics:
            cols[mname] = pa.array(
                [], type=pa.int64() if op == "value_count" else pa.float64()
            )
        return pa.table(cols)

    if not len(fine):
        return _typed_empty()

    # driver tree pass: terms levels prune top-down over EXACT rolled-up
    # ONCE-counts (size per parent bucket, doc_count DESC / key ASC) —
    # __once counts each source doc a single time even after range
    # expansion, and marker rows contribute to their ancestors
    for li, (name, kind, params) in enumerate(levels):
        if kind != "terms":
            continue
        size = int(params.get("size", 10))
        parent = key_cols[:li]
        kc = key_cols[li]
        roll = (
            fine.groupby(parent + [kc], sort=False, dropna=False)["__once"]
            .sum()
            .reset_index()
            .rename(columns={"__once": "doc_count"})
        )
        roll = roll[roll[kc].notna()]  # marker keys never become buckets
        if parent:
            roll = roll.sort_values(
                parent + ["doc_count", kc],
                ascending=[True] * len(parent) + [False, True],
            )
            roll["__rank"] = roll.groupby(
                parent, sort=False, dropna=False
            ).cumcount()
        else:
            roll = roll.sort_values(["doc_count", kc],
                                    ascending=[False, True])
            roll["__rank"] = np.arange(len(roll))
        keep = roll[roll["__rank"] < size][parent + [kc]]
        # NaN parent keys don't join (pandas merge semantics) — correct:
        # a row already marker-excluded at an ancestor level is outside
        # every deeper bucket in ES too
        fine = fine.merge(keep, on=parent + [kc])

    # marker rows served their ancestor-counting purpose; the output
    # holds only fully-bucketed leaf paths
    for kc in key_cols:
        fine = fine[fine[kc].notna()]
    if not len(fine):
        return _typed_empty()

    fine = fine.sort_values(key_cols, kind="mergesort").reset_index(drop=True)

    out: dict = {}
    for kc, (_n, kind, _p) in zip(key_cols, levels):
        if kind == "date_histogram":
            out[kc] = pa.array(
                fine[kc].to_numpy().astype(np.int64).astype("datetime64[us]")
            )
        elif kind == "histogram":
            out[kc] = pa.array(fine[kc].to_numpy().astype(np.float64))
        else:
            out[kc] = pa.array(fine[kc].astype(str), type=pa.string())
    out["doc_count"] = pa.array(
        fine["doc_count"].to_numpy().astype(np.int64)
    )
    for mname, op, _f in metrics:
        if op == "value_count":
            out[mname] = pa.array(
                fine[f"{mname}__cnt"].to_numpy().astype(np.int64)
            )
        elif op == "sum":
            out[mname] = pa.array(
                trunc6(fine[f"{mname}__sum"].to_numpy()),
                type=pa.float64(),
            )
        elif op == "avg":
            s = trunc6(fine[f"{mname}__sum"].to_numpy())
            n = fine[f"{mname}__n"].to_numpy().astype(np.int64)
            vals = np.where(n > 0, s / np.where(n > 0, n, 1), np.nan)
            out[mname] = pa.array(
                [None if v != v else v for v in trunc6(vals)],
                type=pa.float64(),
            )
        elif op == "min":
            out[mname] = pa.array(
                trunc6(fine[f"{mname}__min"].to_numpy()), type=pa.float64()
            )
        elif op == "max":
            out[mname] = pa.array(
                trunc6(fine[f"{mname}__max"].to_numpy()), type=pa.float64()
            )
    return pa.table(out)


# ---------------------------------------------------------------------------
# Generalized tree executor (fan-out): sibling bucket aggs under any
# level, metric aggs at ANY level — the full ES request-body shape
# (Kibana dashboards nest several sub-aggs per bucket routinely).
# ---------------------------------------------------------------------------


def _parse_fanout(spec: dict) -> list[dict]:
    """ES aggs request body → pre-order node list. Each node:
    {"name", "kind" (None for the synthetic metrics-only root),
     "params", "path" (ancestor bucket names, root→self, EXCLUDING
     the synthetic root), "metrics": [(mname, op, field)]}.
    Agg and metric names must be globally unique — the flattened
    grouping-set output keys columns by name."""
    nodes: list[dict] = []
    seen: set[str] = set()

    def claim(name: str) -> None:
        if name in seen:
            raise ValueError(
                f"agg/metric name {name!r} appears twice — the "
                "flattened output needs globally unique names"
            )
        seen.add(name)

    def walk(body_aggs: dict, path: list[str], owner: dict) -> None:
        for name, body in body_aggs.items():
            if "bucket_sort" in body:
                # ES bucket_sort PIPELINE agg: sorts/truncates its
                # PARENT's buckets by sibling metrics (or _count);
                # recorded on the owner, applied on the driver after
                # terms pruning
                if owner["kind"] is None:
                    raise ValueError(
                        "bucket_sort must nest under a bucket agg"
                    )
                if "bucket_sort" in owner:
                    raise ValueError(
                        f"bucket {owner['name']!r} has two bucket_sort "
                        "pipeline aggs"
                    )
                bs = body["bucket_sort"]
                sort = []
                for item in bs.get("sort", []):
                    (m, spec), = item.items()
                    order = (spec.get("order", "asc")
                             if isinstance(spec, dict) else str(spec))
                    if order not in ("asc", "desc"):
                        raise ValueError(
                            f"bucket_sort order {order!r}")
                    sort.append((m, order))
                owner["bucket_sort"] = {
                    "sort": sort,
                    "from": int(bs.get("from", 0)),
                    "size": (None if bs.get("size") is None
                             else int(bs["size"])),
                }
                continue
            kind = next((k for k in FANOUT_BUCKET_KINDS if k in body), None)
            if kind is None:
                op = next(
                    (k for k in FANOUT_METRIC_KINDS if k in body), None)
                if op is None:
                    raise ValueError(
                        f"agg {name!r} is neither a bucket kind "
                        f"{FANOUT_BUCKET_KINDS} nor a metric kind "
                        f"{FANOUT_METRIC_KINDS} nor a bucket_sort"
                    )
                claim(name)
                mspec = dict(body[op])
                if op == "weighted_avg":
                    # ES shape: {"value": {"field": v}, "weight":
                    # {"field": w}} — both required
                    for part in ("value", "weight"):
                        if "field" not in mspec.get(part, {}):
                            raise ValueError(
                                f"weighted_avg {name!r} needs "
                                f"{part}.field"
                            )
                elif op == "rate":
                    unit = mspec.get("unit", "hour")
                    if unit not in _RATE_UNIT_S:
                        raise ValueError(
                            f"rate {name!r}: unit {unit!r} not in "
                            f"{sorted(_RATE_UNIT_S)} (calendar units "
                            "need calendar-aware histograms)"
                        )
                elif "field" not in mspec:
                    raise ValueError(f"metric {name!r} needs a field")
                if op == "percentiles":
                    pcts = [float(p) for p in
                            mspec.get("percents", _DEFAULT_PERCENTS)]
                    if not pcts or any(
                            not (0.0 <= p <= 100.0) for p in pcts):
                        raise ValueError(
                            f"percentiles {name!r}: percents must be "
                            f"in [0, 100], got {pcts}"
                        )
                    if len({_pct_tag(p) for p in pcts}) != len(pcts):
                        raise ValueError(
                            f"percentiles {name!r}: duplicate percents"
                        )
                    mspec["percents"] = pcts
                owner["metrics"].append((name, op, mspec))
                continue
            claim(name)
            if kind == "missing" and "field" not in body[kind]:
                raise ValueError(f"missing agg {name!r} needs a field")
            if kind == "filter" and not (
                    "field" in body[kind] and "value" in body[kind]):
                raise ValueError(
                    f"filter agg {name!r} needs field and value (the "
                    "term-filter analog of the ES filter body)"
                )
            node = {"name": name, "kind": kind, "params": body[kind],
                    "path": path + [name], "metrics": []}
            nodes.append(node)
            walk(body.get("aggs", {}), node["path"], node)

    root = {"name": "_root", "kind": None, "params": {}, "path": [],
            "metrics": []}
    walk(spec, [], root)
    if root["metrics"]:
        nodes.insert(0, root)
    if not nodes:
        raise ValueError("empty aggregation spec")
    for n in nodes:
        for mname, op, _s in n["metrics"]:
            if op == "rate" and n["kind"] != "date_histogram":
                # ES: rate is only defined inside a date_histogram —
                # its value is the bucket sum scaled by bucket width
                raise ValueError(
                    f"rate {mname!r} must nest directly under a "
                    "date_histogram bucket"
                )
        bs = n.get("bucket_sort")
        if bs:
            own = {m[0]: m[1] for m in n["metrics"]}
            for m, _o in bs["sort"]:
                if m != "_count" and m not in own:
                    raise ValueError(
                        f"bucket_sort under {n['name']!r} sorts by "
                        f"{m!r}, which is not a sibling metric of that "
                        "bucket (nor _count)"
                    )
                if own.get(m) in ("extended_stats", "cardinality",
                                  "stats", "percentiles",
                                  "median_absolute_deviation"):
                    raise ValueError(
                        f"bucket_sort cannot sort by the multi-valued/"
                        f"driver-computed metric {m!r}"
                    )
    return nodes


def _weighted_quantiles(vs: np.ndarray, cs: np.ndarray,
                        qs: list) -> list:
    """quantile_cont over a (value, count) histogram: order-stat
    interpolation identical to SQL ``quantile_cont`` — pos = (n−1)·q,
    linear between the floor/ceil order stats, found by binary search
    over the cumulative counts (never expanding the histogram)."""
    order = np.argsort(vs, kind="mergesort")
    vs, cs = vs[order], cs[order]
    n = int(cs.sum())
    if n == 0:
        return [np.nan] * len(qs)
    cum = np.cumsum(cs)
    out = []
    for q in qs:
        pos = (n - 1) * float(q)
        k0, k1 = int(np.floor(pos)), int(np.ceil(pos))
        frac = pos - k0
        i0 = int(np.searchsorted(cum, k0, side="right"))
        i1 = int(np.searchsorted(cum, k1, side="right"))
        out.append(float(vs[i0] + (vs[i1] - vs[i0]) * frac))
    return out


def _weighted_mad(vs: np.ndarray, cs: np.ndarray) -> float:
    """median(|x − median(x)|) over the histogram — both medians via
    quantile_cont interpolation (the two-pass SQL twin). The abs-diff
    transform folds symmetric values, so counts re-merge by unique."""
    med = _weighted_quantiles(vs, cs, [0.5])[0]
    if med != med:
        return float("nan")
    ad = np.abs(np.asarray(vs, dtype=np.float64) - med)
    u, inv = np.unique(ad, return_inverse=True)
    w = np.bincount(inv, weights=np.asarray(cs, dtype=np.float64))
    return _weighted_quantiles(u, w, [0.5])[0]


def agg_tree_fanout(ds, spec: dict, n_buckets: int | None = None
                    ) -> pa.Table:
    """Execute a full ES aggregation TREE (sibling sub-aggs, metrics
    at interior levels) in one corpus pass. Output is the flattened
    GROUPING-SETS form — one row per bucket per tree NODE:

    - ``agg``: the node's name (``_root`` for top-level metrics)
    - one ``<name>_key`` column per bucket node (pre-order); NULL on
      rows whose node doesn't have that level on its path
    - ``doc_count``: the node bucket's own exact count
    - one column per metric name; NULL on rows of other nodes

    Semantics sharpen ``agg_tree``'s path executor: every node gets
    its OWN grouping set (keys = its ancestor chain), so doc_count,
    terms ranking, and metrics are exact at every level — including
    below overlapping ``range`` levels (each (range bucket, descendant
    bucket) pair is its own group; the path executor's ``__once``
    corner disappears). Docs null at any level on a node's path are
    excluded from that node's buckets but still count at ancestors —
    automatically, since ancestors group separately.

    Shuffle shape: ONE ``map_batches`` pass computes every level's
    bucket key vectorized, then per node a per-batch groupby over its
    path keys (nodes are few; each groupby is over an already-keyed
    16 k frame) → union frame tagged by ``agg`` → coarse hash-bucket
    exchange on (agg, key tuple) → additive combine. The combined
    frame is Σ per-node bucket-space sizes (the ES ``size``/interval
    boundedness assumption); ``terms`` pruning runs on the driver over
    exact per-node counts, root→leaf, pruning every descendant set.

    ``bucket_sort`` (the ES pipeline agg) may nest under any bucket
    node: ``{"sort": [{metric_or__count: {"order": ...}}], "from": F,
    "size": S}`` orders that node's buckets per parent bucket by its
    sibling metrics and keeps the [from, from+size) window, filtering
    the node's whole subtree — exact, since it runs on the driver over
    the combined exact metric values (trunc6'd, so the sort key equals
    the emitted value). Ties break key-ASC; NaN metric values sort
    last (the ES gap_policy=skip analog). Output rows stay in the
    canonical (node, key) order — bucket_sort's observable effect here
    is the truncation window (the flat table carries no response-order
    channel).

    Single-bucket kinds: ``missing`` (docs WITHOUT the field — the ES
    missing agg; key = ``"missing"``) and ``filter`` (docs matching a
    ``{field, value}`` term filter — the engine's filter-context
    analog of the ES filter body; key = ``"match"``) nest anywhere a
    bucket agg can. Quantile metrics: ``percentiles`` (ES percents
    list, default 1/5/25/50/75/95/99) and ``median_absolute_deviation``
    are EXACT — (bucket, value, count) histogram rows ride the same
    exchange as the cardinality pairs, quantile_cont interpolation on
    the driver, budget-gated by ``CARDINALITY_BUDGET`` (ES itself is
    approximate here via t-digest — exactness is the documented
    deviation; pre-discretize the field to bound the value space at
    scale). ``stats`` is the count/min/max/avg/sum bundle from the
    additive partials.
    """
    nodes = _parse_fanout(spec)
    by_name = {n["name"]: n for n in nodes}
    key_cols = [f"{n['name']}_key" for n in nodes if n["kind"]]
    kind_of = {f"{n['name']}_key": n["kind"] for n in nodes if n["kind"]}
    all_metrics = [m for n in nodes for m in n["metrics"]]
    has_card = any(op == "cardinality" for _m, op, _s in all_metrics)
    has_vals = any(op in ("percentiles", "median_absolute_deviation")
                   for _m, op, _s in all_metrics)
    norm_ranges = {
        f"{n['name']}_key": _norm_ranges(n["kind"], n["params"])
        for n in nodes if n["kind"] in ("range", "date_range")
    }

    def _metric_partial_cols(metrics) -> list[str]:
        cols = []
        for mname, op, spec_ in metrics:
            if op in ("sum", "avg"):
                cols.append(f"{mname}__sum")
            if op == "avg":
                cols.append(f"{mname}__n")
            elif op == "min":
                cols.append(f"{mname}__min")
            elif op == "max":
                cols.append(f"{mname}__max")
            elif op == "value_count":
                cols.append(f"{mname}__cnt")
            elif op == "weighted_avg":
                cols += [f"{mname}__wsum", f"{mname}__wn"]
            elif op == "extended_stats":
                cols += [f"{mname}__sum", f"{mname}__sumsq",
                         f"{mname}__n", f"{mname}__min", f"{mname}__max"]
            elif op == "stats":
                cols += [f"{mname}__sum", f"{mname}__n",
                         f"{mname}__min", f"{mname}__max"]
            elif op == "rate" and spec_.get("field"):
                cols.append(f"{mname}__sum")
            # cardinality / percentiles / median_absolute_deviation:
            # no partial column — they ride as tagged
            # (bucket, value)-pair rows (see partial)
        return cols

    union_metric_cols = _metric_partial_cols(all_metrics)
    union_cols = (["agg"] + key_cols + ["doc_count"] + union_metric_cols
                  + (["__cardv"] if has_card else [])
                  + (["__valv"] if has_vals else []))

    def partial(batch: pa.Table) -> pd.DataFrame:
        n_rows = batch.num_rows
        # every non-range level's key array, computed once per batch
        keys: dict[str, np.ndarray] = {}
        for node in nodes:
            if node["kind"] in ("terms", "date_histogram", "histogram",
                                "missing", "filter"):
                keys[node["name"]] = _level_keys(
                    batch, node["kind"], node["params"])
        parts: list[pd.DataFrame] = []
        for node in nodes:
            path_nodes = [by_name[p] for p in node["path"]]
            pcols = [f"{p['name']}_key" for p in path_nodes]
            df = pd.DataFrame(index=np.arange(n_rows))
            valid = np.ones(n_rows, dtype=bool)
            range_levels: list[tuple[str, list]] = []
            for p in path_nodes:
                kc = f"{p['name']}_key"
                if p["kind"] in ("range", "date_range"):
                    f = p["params"]["field"]
                    if p["kind"] == "date_range":
                        raw = batch[f].to_numpy().astype("datetime64[us]")
                        v = raw.astype(np.int64).astype(np.float64)
                        v[np.isnat(raw)] = np.nan
                    else:
                        v = batch[f].to_numpy(
                            zero_copy_only=False).astype(np.float64)
                    df[f"{kc}__v"] = v
                    range_levels.append((kc, norm_ranges[kc]))
                    df[kc] = None
                else:
                    kv = keys[p["name"]]
                    df[kc] = kv
                    valid &= ~pd.isna(kv)
            card_metrics = []
            vals_metrics = []
            for mname, op, spec_ in node["metrics"]:
                if op in ("percentiles", "median_absolute_deviation"):
                    # exact quantiles: the raw values ride alongside so
                    # the (bucket, value) pair rows see the SAME range
                    # expansion as the bucket rows; counts merge in the
                    # combine, quantiles interpolate on the driver
                    df[f"{mname}__valv"] = batch[
                        spec_["field"]
                    ].to_numpy(zero_copy_only=False).astype(np.float64)
                    vals_metrics.append(mname)
                    continue
                if op == "cardinality":
                    # raw values ride alongside so the distinct pairs
                    # see the SAME range expansion as the bucket rows
                    df[f"{mname}__cardv"] = batch[
                        spec_["field"]
                    ].to_numpy(zero_copy_only=False).astype(object)
                    card_metrics.append(mname)
                    continue
                if op == "weighted_avg":
                    v = batch[spec_["value"]["field"]].to_numpy(
                        zero_copy_only=False).astype(np.float64)
                    w = batch[spec_["weight"]["field"]].to_numpy(
                        zero_copy_only=False).astype(np.float64)
                    ok = ~np.isnan(v) & ~np.isnan(w)
                    df[f"{mname}__wsum"] = np.where(ok, v * w, np.nan)
                    df[f"{mname}__wn"] = np.where(ok, w, np.nan)
                    continue
                if op == "rate" and not spec_.get("field"):
                    continue  # doc_count rate: no value column needed
                if op == "value_count":
                    # ES value_count works on ANY field type (keyword
                    # included) — count non-null values without the
                    # numeric cast the other metrics need
                    raw = batch[spec_["field"]].to_numpy(
                        zero_copy_only=False)
                    df[f"{mname}__cnt"] = (
                        ~np.asarray(pd.isna(raw))).astype(np.int64)
                    continue
                col = batch[spec_["field"]].to_numpy(
                    zero_copy_only=False).astype(np.float64)
                if op in ("sum", "avg", "rate"):
                    df[f"{mname}__sum"] = col
                if op == "avg":
                    df[f"{mname}__n"] = (~np.isnan(col)).astype(np.int64)
                elif op == "min":
                    df[f"{mname}__min"] = col
                elif op == "max":
                    df[f"{mname}__max"] = col
                elif op == "extended_stats":
                    df[f"{mname}__sum"] = col
                    df[f"{mname}__sumsq"] = col * col
                    df[f"{mname}__n"] = (~np.isnan(col)).astype(np.int64)
                    df[f"{mname}__min"] = col
                    df[f"{mname}__max"] = col
                elif op == "stats":
                    df[f"{mname}__sum"] = col
                    df[f"{mname}__n"] = (~np.isnan(col)).astype(np.int64)
                    df[f"{mname}__min"] = col
                    df[f"{mname}__max"] = col
            df = df[valid]
            # range expansion on THIS node's path: one copy per
            # matching range (overlaps legal); rows matching no range
            # drop out of this node's grouping set entirely
            for kc, ranges in range_levels:
                v = df[f"{kc}__v"].to_numpy()
                subs = []
                for lo_f, hi_f, keystr in ranges:
                    m = (v >= lo_f) & (v < hi_f)
                    if not m.any():
                        continue
                    sub = df[m].copy()
                    sub[kc] = keystr
                    subs.append(sub)
                df = (pd.concat(subs, ignore_index=True)
                      if subs else df[:0])
                df = df.drop(columns=f"{kc}__v")
            df["doc_count"] = np.ones(len(df), dtype=np.int64)
            aggs = {"doc_count": ("doc_count", "sum")}
            for c in _metric_partial_cols(node["metrics"]):
                aggs[c] = (c, "min" if c.endswith("__min")
                           else "max" if c.endswith("__max") else "sum")
            if pcols:
                g = (df.groupby(pcols, sort=False)
                     .agg(**aggs).reset_index())
            else:  # the synthetic root: one grand-total partial row
                g = pd.DataFrame(
                    {k: [getattr(df[c], how)()]
                     for k, (c, how) in aggs.items()}
                )
            g["agg"] = node["name"]
            for c in union_cols:
                if c not in g.columns:
                    g[c] = (None if kind_of.get(c) in _STR_KEY_KINDS
                            or c in ("agg", "__cardv") else np.nan)
            parts.append(g[union_cols])
            # exact-cardinality pair rows: one per distinct
            # (bucket-key tuple, value) in this batch, tagged by
            # metric — the combine's groupby dedups them globally
            for mname in card_metrics:
                cv = df[pcols + [f"{mname}__cardv"]]
                cv = cv[pd.notna(cv[f"{mname}__cardv"])].copy()
                cv["__cardv"] = cv.pop(f"{mname}__cardv").astype(str)
                cv = cv.drop_duplicates()
                cv["agg"] = "__card__" + mname
                cv["doc_count"] = np.ones(len(cv), dtype=np.int64)
                for c in union_cols:
                    if c not in cv.columns:
                        cv[c] = (None if kind_of.get(c) in
                                 _STR_KEY_KINDS else np.nan)
                parts.append(cv[union_cols])
            # exact-quantile pair rows: one per distinct (bucket-key
            # tuple, value) per batch with its in-batch count riding
            # doc_count — the combine SUMS counts globally, the driver
            # interpolates quantiles over the merged histogram
            for mname in vals_metrics:
                vv = df[pcols + [f"{mname}__valv"]]
                vv = vv[pd.notna(vv[f"{mname}__valv"])].copy()
                vv["__valv"] = vv.pop(f"{mname}__valv").astype(
                    np.float64)
                g2 = (vv.groupby(pcols + ["__valv"], sort=False)
                      .size().reset_index(name="doc_count"))
                g2["agg"] = "__vals__" + mname
                for c in union_cols:
                    if c not in g2.columns:
                        g2[c] = (None if kind_of.get(c) in
                                 _STR_KEY_KINDS else np.nan)
                parts.append(g2[union_cols])
        return pd.concat(parts, ignore_index=True)

    # __cardv / __valv join the hash so one hot bucket's distinct
    # values spread over the exchange instead of piling on one reducer
    hash_cols = (["agg"] + key_cols + (["__cardv"] if has_card else [])
                 + (["__valv"] if has_vals else []))

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        aggs = {"doc_count": ("doc_count", "sum")}
        for c in union_metric_cols:
            aggs[c] = (c, "min" if c.endswith("__min")
                       else "max" if c.endswith("__max") else "sum")
        return (
            g.groupby(hash_cols, sort=False, dropna=False)
            .agg(**aggs)
            .reset_index()
        )

    pipe = combine_by_key(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=16384),
        hash_cols, combine, size_from=ds, bytes_per_row=8,
        n_buckets=n_buckets,
    )
    if has_card or has_vals:
        # exact cardinality / exact quantiles hold one combined row per
        # distinct (bucket, value) pair; count distributed BEFORE
        # collecting and refuse past the budget (the scale paths:
        # sketch.kmv_distinct for cardinality; pre-discretizing the
        # metric field — a histogram level — for quantiles)
        mat = pipe.materialize()
        n_comb = mat.count()
        if n_comb > CARDINALITY_BUDGET:
            raise RuntimeError(
                f"exact cardinality/quantiles would collect {n_comb} "
                f"combined rows (> budget {CARDINALITY_BUDGET}); use "
                "excelastic_ray.pipelines.sketch.kmv_distinct for an "
                "approximate distinct count, or pre-discretize the "
                "quantile field to bound its value space"
            )
        fine = mat.to_pandas()
    else:
        fine = pipe.to_pandas()

    def _typed_empty() -> pa.Table:
        cols: dict = {"agg": pa.array([], type=pa.string())}
        for kc in key_cols:
            kind = kind_of[kc]
            if kind == "date_histogram":
                cols[kc] = pa.array([], type=pa.timestamp("us"))
            elif kind == "histogram":
                cols[kc] = pa.array([], type=pa.float64())
            else:
                cols[kc] = pa.array([], type=pa.string())
        cols["doc_count"] = pa.array([], type=pa.int64())
        for mname, op, spec_ in all_metrics:
            if op == "extended_stats":
                cols[f"{mname}_count"] = pa.array([], type=pa.int64())
                for sub in ("min", "max", "avg", "sum",
                            "sum_of_squares", "variance",
                            "std_deviation"):
                    cols[f"{mname}_{sub}"] = pa.array(
                        [], type=pa.float64())
            elif op == "stats":
                cols[f"{mname}_count"] = pa.array([], type=pa.int64())
                for sub in ("min", "max", "avg", "sum"):
                    cols[f"{mname}_{sub}"] = pa.array(
                        [], type=pa.float64())
            elif op == "percentiles":
                for p in spec_["percents"]:
                    cols[f"{mname}_{_pct_tag(p)}"] = pa.array(
                        [], type=pa.float64())
            else:
                cols[mname] = pa.array(
                    [], type=pa.int64()
                    if op in ("value_count", "cardinality")
                    else pa.float64())
        return pa.table(cols)

    if not len(fine):
        return _typed_empty()

    # split off the exact-cardinality pair rows: count distinct pairs
    # per owner bucket → per-metric lookup frames joined in at output
    card_counts: dict[str, tuple] = {}
    if has_card:
        is_card = fine["agg"].str.startswith("__card__", na=False)
        card = fine[is_card]
        fine = (fine[~is_card].drop(columns="__cardv")
                .reset_index(drop=True))
        for node in nodes:
            for mname, op, _s in node["metrics"]:
                if op != "cardinality":
                    continue
                pc = [f"{p}_key" for p in node["path"]]
                rows = card[card["agg"] == "__card__" + mname]
                if pc:
                    cnt = (rows.groupby(pc, sort=False, dropna=False)
                           .size().reset_index(name=f"__{mname}_cnt"))
                else:
                    cnt = pd.DataFrame({f"__{mname}_cnt": [len(rows)]})
                card_counts[mname] = (pc, cnt)
        if not len(fine):
            return _typed_empty()

    # split off the exact-quantile (bucket, value, count) rows:
    # interpolate each metric's quantiles per owner bucket over the
    # merged histogram → per-metric lookup frames joined in at output
    vals_tables: dict[str, tuple] = {}
    if has_vals:
        is_vals = fine["agg"].str.startswith("__vals__", na=False)
        vrows = fine[is_vals]
        fine = (fine[~is_vals].drop(columns="__valv")
                .reset_index(drop=True))
        for node in nodes:
            for mname, op, spec_ in node["metrics"]:
                if op not in ("percentiles",
                              "median_absolute_deviation"):
                    continue
                pc = [f"{p}_key" for p in node["path"]]
                rows = vrows[vrows["agg"] == "__vals__" + mname]
                qs = (spec_["percents"] if op == "percentiles"
                      else None)
                vcols = ([f"__{mname}_{_pct_tag(p)}" for p in qs]
                         if qs is not None else [f"__{mname}_mad"])

                def _qvals(sub: pd.DataFrame) -> list:
                    vs = sub["__valv"].to_numpy(dtype=np.float64)
                    cs = sub["doc_count"].to_numpy(dtype=np.float64)
                    if qs is None:
                        return [_weighted_mad(vs, cs)]
                    return _weighted_quantiles(
                        vs, cs, [p / 100.0 for p in qs])

                if pc:
                    recs = []
                    for gk, sub in rows.groupby(pc, sort=False,
                                                dropna=False):
                        gk = gk if isinstance(gk, tuple) else (gk,)
                        recs.append(tuple(gk) + tuple(_qvals(sub)))
                    cnt = pd.DataFrame(recs, columns=pc + vcols)
                else:
                    cnt = pd.DataFrame([tuple(_qvals(rows))],
                                       columns=vcols)
                vals_tables[mname] = (pc, cnt)
        if not len(fine):
            return _typed_empty()

    # normalize object-key missing markers (groupby round-trips can
    # surface NaN where partials wrote None)
    for kc in key_cols:
        if kind_of[kc] in _STR_KEY_KINDS:
            fine[kc] = fine[kc].where(pd.notna(fine[kc]), None)

    # terms pruning, root→leaf: rank a terms node's buckets from its
    # OWN grouping set (exact counts), keep size per parent bucket,
    # filter the node's set AND every descendant set
    pre_order = [n["name"] for n in nodes]
    subtree = {
        n["name"]: [m["name"] for m in nodes
                    if m["path"][:len(n["path"])] == n["path"]]
        for n in nodes
    }
    for node in nodes:
        if node["kind"] != "terms":
            continue
        size = int(node["params"].get("size", 10))
        kc = f"{node['name']}_key"
        parent = [f"{p}_key" for p in node["path"][:-1]]
        own = fine[fine["agg"] == node["name"]]
        roll = own[parent + [kc, "doc_count"]]
        if parent:
            roll = roll.sort_values(
                parent + ["doc_count", kc],
                ascending=[True] * len(parent) + [False, True],
            )
            rank = roll.groupby(parent, sort=False).cumcount()
        else:
            roll = roll.sort_values(["doc_count", kc],
                                    ascending=[False, True])
            rank = pd.Series(np.arange(len(roll)), index=roll.index)
        keep = roll[rank < size][parent + [kc]]
        in_set = fine["agg"].isin(subtree[node["name"]])
        kept_rows = fine[in_set].merge(keep, on=parent + [kc])
        fine = pd.concat([fine[~in_set], kept_rows], ignore_index=True)

    # bucket_sort pipeline aggs, root→leaf: order the node's buckets
    # per parent bucket by the sibling-metric sort spec (values
    # computed from the combined partials — trunc6'd like the output,
    # so the sort key equals what the caller sees), apply from/size,
    # and filter the node's whole subtree to the surviving buckets.
    # Ties and NaN metric values: key-ASC tiebreak, NaN buckets last
    # (ES gap_policy=skip analog, documented).
    def _metric_values(sub: pd.DataFrame, node: dict,
                       mname: str) -> np.ndarray:
        if mname == "_count":
            return sub["doc_count"].to_numpy(dtype=np.float64)
        op, spec_ = next(
            (o, s) for n_, o, s in node["metrics"] if n_ == mname)
        if op == "value_count":
            return sub[f"{mname}__cnt"].to_numpy(dtype=np.float64)
        if op == "avg":
            s = trunc6(sub[f"{mname}__sum"].to_numpy(dtype=np.float64))
            n = sub[f"{mname}__n"].to_numpy(dtype=np.float64)
            return trunc6(np.where(n > 0, s / np.where(n > 0, n, 1),
                                   np.nan))
        if op == "weighted_avg":
            num = trunc6(sub[f"{mname}__wsum"].to_numpy(
                dtype=np.float64))
            den = trunc6(sub[f"{mname}__wn"].to_numpy(dtype=np.float64))
            return trunc6(np.where(den != 0,
                                   num / np.where(den != 0, den, 1),
                                   np.nan))
        if op == "rate":
            width = (float(node["params"].get("interval_hours", 24))
                     * 3600.0 / _RATE_UNIT_S[spec_.get("unit", "hour")])
            base = (trunc6(sub[f"{mname}__sum"].to_numpy(
                dtype=np.float64)) if spec_.get("field")
                else sub["doc_count"].to_numpy(dtype=np.float64))
            return trunc6(base / width)
        return trunc6(sub[f"{mname}__{op}"].to_numpy(dtype=np.float64))

    for node in nodes:
        bs = node.get("bucket_sort")
        if not bs:
            continue
        kc = f"{node['name']}_key"
        parent = [f"{p}_key" for p in node["path"][:-1]]
        own = fine[fine["agg"] == node["name"]].copy()
        for i, (m, _o) in enumerate(bs["sort"]):
            own[f"__s{i}"] = _metric_values(own, node, m)
        own = own.sort_values(
            [f"__s{i}" for i in range(len(bs["sort"]))] + [kc],
            ascending=[o == "asc" for _m, o in bs["sort"]] + [True],
            kind="mergesort", na_position="last",
        )
        rank = (own.groupby(parent, sort=False).cumcount()
                if parent else pd.Series(np.arange(len(own)),
                                         index=own.index))
        keep_m = rank >= bs["from"]
        if bs["size"] is not None:
            keep_m &= rank < bs["from"] + bs["size"]
        keep = own[keep_m][parent + [kc]]
        in_set = fine["agg"].isin(subtree[node["name"]])
        kept_rows = fine[in_set].merge(keep, on=parent + [kc])
        fine = pd.concat([fine[~in_set], kept_rows], ignore_index=True)

    if not len(fine):
        return _typed_empty()

    fine["__ord"] = fine["agg"].map(
        {name: i for i, name in enumerate(pre_order)})
    sort_cols = ["__ord"] + key_cols
    fine = fine.sort_values(
        sort_cols, kind="mergesort", na_position="first"
    ).reset_index(drop=True)

    out: dict = {"agg": pa.array(fine["agg"].astype(str),
                                 type=pa.string())}
    for kc in key_cols:
        kind = kind_of[kc]
        if kind == "date_histogram":
            v = fine[kc].to_numpy(dtype=np.float64)
            out[kc] = pa.array(
                [None if x != x else
                 np.int64(x).astype("datetime64[us]") for x in v],
                type=pa.timestamp("us"))
        elif kind == "histogram":
            v = fine[kc].to_numpy(dtype=np.float64)
            out[kc] = pa.array(
                [None if x != x else float(x) for x in v],
                type=pa.float64())
        else:
            out[kc] = pa.array(
                [None if x is None else str(x) for x in fine[kc]],
                type=pa.string())
    out["doc_count"] = pa.array(
        fine["doc_count"].to_numpy().astype(np.int64))
    owner_of = {m[0]: n["name"] for n in nodes for m in n["metrics"]}

    def _floats(vals: np.ndarray, mine: np.ndarray) -> pa.Array:
        return pa.array(
            [float(x) if keep_ and x == x else None
             for x, keep_ in zip(vals, mine)], type=pa.float64())

    for mname, op, spec_ in all_metrics:
        mine = (fine["agg"] == owner_of[mname]).to_numpy()
        if op == "value_count":
            v = fine[f"{mname}__cnt"].to_numpy(dtype=np.float64)
            out[mname] = pa.array(
                [int(x) if keep_ and x == x else None
                 for x, keep_ in zip(v, mine)], type=pa.int64())
        elif op == "sum":
            out[mname] = _floats(
                trunc6(fine[f"{mname}__sum"].to_numpy(dtype=np.float64)),
                mine)
        elif op == "avg":
            s = trunc6(fine[f"{mname}__sum"].to_numpy(dtype=np.float64))
            n = fine[f"{mname}__n"].to_numpy(dtype=np.float64)
            out[mname] = _floats(
                trunc6(np.where(n > 0, s / np.where(n > 0, n, 1),
                                np.nan)), mine)
        elif op == "weighted_avg":
            # ES weighted_avg = Σ(v·w)/Σw over rows where both are
            # non-null; trunc6 conventions mirror avg (truncated
            # numerator and denominator, truncated quotient)
            num = trunc6(fine[f"{mname}__wsum"].to_numpy(
                dtype=np.float64))
            den = trunc6(fine[f"{mname}__wn"].to_numpy(
                dtype=np.float64))
            out[mname] = _floats(
                trunc6(np.where(den != 0,
                                num / np.where(den != 0, den, 1),
                                np.nan)), mine)
        elif op == "rate":
            # ES rate: the bucket sum (or doc_count without a field)
            # scaled to per-`unit`, from the OWNER date_histogram's
            # fixed interval
            width = (float(by_name[owner_of[mname]]["params"]
                           .get("interval_hours", 24)) * 3600.0
                     / _RATE_UNIT_S[spec_.get("unit", "hour")])
            base = (trunc6(fine[f"{mname}__sum"].to_numpy(
                dtype=np.float64)) if spec_.get("field")
                else fine["doc_count"].to_numpy(dtype=np.float64))
            out[mname] = _floats(trunc6(base / width), mine)
        elif op == "cardinality":
            pc, cnt = card_counts[mname]
            if pc:
                merged = fine[pc].merge(
                    cnt, on=pc, how="left"
                )[f"__{mname}_cnt"].to_numpy(dtype=np.float64)
            else:
                merged = np.full(
                    len(fine), float(cnt[f"__{mname}_cnt"].iloc[0]))
            out[mname] = pa.array(
                [(int(x) if x == x else 0) if keep_ else None
                 for x, keep_ in zip(merged, mine)], type=pa.int64())
        elif op == "extended_stats":
            # ES extended_stats: population variance from the additive
            # (n, Σv, Σv²) partials; trunc6 conventions — avg from the
            # truncated sum, variance from the truncated sum-of-squares
            # and the UNtruncated mean of the truncated sum, std from
            # the truncated variance (all SQL-reproducible)
            n = fine[f"{mname}__n"].to_numpy(dtype=np.float64)
            s6 = trunc6(fine[f"{mname}__sum"].to_numpy(
                dtype=np.float64))
            q6 = trunc6(fine[f"{mname}__sumsq"].to_numpy(
                dtype=np.float64))
            safe_n = np.where(n > 0, n, 1)
            mean = np.where(n > 0, s6 / safe_n, np.nan)
            var6 = trunc6(np.where(
                n > 0, np.maximum(q6 / safe_n - mean * mean, 0.0),
                np.nan))
            out[f"{mname}_count"] = pa.array(
                [int(x) if keep_ and x == x else None
                 for x, keep_ in zip(n, mine)], type=pa.int64())
            out[f"{mname}_min"] = _floats(
                trunc6(fine[f"{mname}__min"].to_numpy(
                    dtype=np.float64)), mine)
            out[f"{mname}_max"] = _floats(
                trunc6(fine[f"{mname}__max"].to_numpy(
                    dtype=np.float64)), mine)
            out[f"{mname}_avg"] = _floats(trunc6(mean), mine)
            out[f"{mname}_sum"] = _floats(s6, mine)
            out[f"{mname}_sum_of_squares"] = _floats(q6, mine)
            out[f"{mname}_variance"] = _floats(var6, mine)
            out[f"{mname}_std_deviation"] = _floats(
                trunc6(np.sqrt(var6)), mine)
        elif op == "stats":
            # ES stats: count/min/max/avg/sum — the extended_stats
            # additive partials minus the squared terms
            n = fine[f"{mname}__n"].to_numpy(dtype=np.float64)
            s6 = trunc6(fine[f"{mname}__sum"].to_numpy(
                dtype=np.float64))
            safe_n = np.where(n > 0, n, 1)
            out[f"{mname}_count"] = pa.array(
                [int(x) if keep_ and x == x else None
                 for x, keep_ in zip(n, mine)], type=pa.int64())
            out[f"{mname}_min"] = _floats(
                trunc6(fine[f"{mname}__min"].to_numpy(
                    dtype=np.float64)), mine)
            out[f"{mname}_max"] = _floats(
                trunc6(fine[f"{mname}__max"].to_numpy(
                    dtype=np.float64)), mine)
            out[f"{mname}_avg"] = _floats(
                trunc6(np.where(n > 0, s6 / safe_n, np.nan)), mine)
            out[f"{mname}_sum"] = _floats(s6, mine)
        elif op in ("percentiles", "median_absolute_deviation"):
            # exact quantiles off the merged (bucket, value, count)
            # histogram (quantile_cont interpolation — ES reports
            # t-digest approximations here; exactness is this
            # engine's documented deviation, budget-gated above)
            pc, cnt = vals_tables[mname]
            vcols = ([f"{mname}_{_pct_tag(p)}"
                      for p in spec_["percents"]]
                     if op == "percentiles" else [mname])
            for outc in vcols:
                srcc = (f"__{outc}" if op == "percentiles"
                        else f"__{mname}_mad")
                if not len(cnt):
                    merged = np.full(len(fine), np.nan)
                elif pc:
                    merged = fine[pc].merge(
                        cnt, on=pc, how="left"
                    )[srcc].to_numpy(dtype=np.float64)
                else:
                    merged = np.full(len(fine),
                                     float(cnt[srcc].iloc[0]))
                out[outc] = _floats(trunc6(merged), mine)
        else:  # min / max
            out[mname] = _floats(
                trunc6(fine[f"{mname}__{op}"].to_numpy(
                    dtype=np.float64)), mine)
    return pa.table(out)
