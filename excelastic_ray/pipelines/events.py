"""Windowed aggregation over the events stream table.

Ray Data is a batch engine; stream-shaped semantics are expressed over
the ordered log: partition by key, sort by (ts, event_id) within the
partition (the deterministic tie-break), window with vectorized pandas
inside ``map_groups`` (ray_guide.md streaming-shaped workloads).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from excelastic_ray.hashing import combine_by_key
from excelastic_ray.pipelines.textstats import trunc6


def sessionize(ds, gap_minutes: int = 30, n_buckets: int | None = None):
    """Session windows per user: a new session starts when the gap since
    the previous event exceeds ``gap_minutes``. → one row per session:
    (user_id, session_idx, n_events, sum_value, start_ts, end_ts).

    Shuffle shape: users are bucketed by ``hash(user_id) % n_buckets``
    so the Ray groupby sees coarse groups instead of one tiny group per user
    (millions of users = the per-group overhead pitfall measured in
    round 1). Inside each bucket the whole frame is sorted once by
    (user_id, ts, event_id) and the session-break scan plus the
    per-session aggregation run vectorized over the bucket — no
    per-user Python loop. A pathologically hot user still lands in one
    bucket, but costs O(rows log rows) of vectorized work there, not an
    unbounded per-group pandas session.
    """
    gap = np.timedelta64(gap_minutes * 60, "s")

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        n = len(g)
        if n == 0:
            return pd.DataFrame(
                {
                    "user_id": np.zeros(0, np.int64),
                    "session_idx": np.zeros(0, np.int64),
                    "n_events": np.zeros(0, np.int64),
                    "sum_value": np.zeros(0, np.float64),
                    "start_ts": np.zeros(0, "datetime64[us]"),
                    "end_ts": np.zeros(0, "datetime64[us]"),
                }
            )
        ts = g["ts"].to_numpy()
        uid = g["user_id"].to_numpy()
        val = g["value"].to_numpy()
        new_user = np.ones(n, dtype=bool)
        new_user[1:] = uid[1:] != uid[:-1]
        brk = new_user.copy()
        brk[1:] |= (ts[1:] - ts[:-1]) > gap
        s = np.cumsum(brk) - 1  # global session ordinal in this bucket
        # session_idx within user = s - s at the user's first row
        ustarts = np.flatnonzero(new_user)
        per_user_base = np.repeat(
            s[ustarts], np.diff(np.append(ustarts, n))
        )
        bounds = np.flatnonzero(brk)  # first row of each session
        ends = np.append(bounds[1:], n) - 1  # last row of each session
        return pd.DataFrame(
            {
                "user_id": uid[bounds],
                "session_idx": (s - per_user_base)[bounds],
                "n_events": np.diff(np.append(bounds, n)).astype(np.int64),
                "sum_value": trunc6(np.add.reduceat(val, bounds)),
                "start_ts": ts[bounds],
                "end_ts": ts[ends],
            }
        )

    return combine_by_key(ds, ["user_id"], per_bucket, size_from=ds,
                          bytes_per_row=48, n_buckets=n_buckets)


def _bucketed_sum_combine(partials, key_cols: list[str], *,
                          size_from=None, n_buckets: int | None = None):
    """:func:`~excelastic_ray.hashing.combine_by_key` with the sum
    combine: every non-key column of ``partials`` is an additive
    partial (a Ray groupby over thousands of tiny (type, window) groups
    cost seconds of per-group machinery — it regressed tumbling 2.4→4 s
    in round 2's bench). ``size_from`` is the source dataset the
    partials derive from; K follows its row count, and without one the
    unknown-count floor applies."""

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(key_cols, sort=False).sum().reset_index()

    return combine_by_key(partials, key_cols, combine, size_from=size_from,
                          bytes_per_row=16, n_buckets=n_buckets)


def sliding_counts(ds, size_hours: int = 2, step_hours: int = 1):
    """Sliding-window counts: each event lands in size/step consecutive
    windows; window_start identifies the window's left edge. Implemented
    as a vectorized per-batch explode (np.repeat over offsets) + the
    same partial + bucketed-final aggregation as tumbling."""
    step_us = step_hours * 3_600_000_000
    n_win = size_hours // step_hours

    def partial(batch: pa.Table) -> pd.DataFrame:
        ts = batch["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        last = (ts // step_us) * step_us  # newest window containing event
        offs = np.arange(n_win, dtype=np.int64) * step_us
        win = np.repeat(last, n_win) - np.tile(offs, len(ts))
        df = pd.DataFrame(
            {
                "event_type": np.repeat(
                    batch["event_type"].to_numpy(zero_copy_only=False), n_win
                ),
                "window_start": win,
                "n": 1,
                "sum_value": np.repeat(batch["value"].to_numpy(), n_win),
            }
        )
        return (
            df.groupby(["event_type", "window_start"], sort=False)
            .agg(n=("n", "sum"), sum_value=("sum_value", "sum"))
            .reset_index()
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=16384)
    out = _bucketed_sum_combine(partials, ["event_type", "window_start"],
                                size_from=ds)

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch["event_type"],
                "window_start": batch["window_start"]
                .to_numpy()
                .astype("datetime64[us]"),
                "n": batch["n"],
                "sum_value": pa.array(trunc6(batch["sum_value"].to_numpy())),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def stats_by_type(ds, n_buckets: int = 8):
    """ES ``stats`` aggregation analog: per event_type → count, min,
    max, sum, avg of ``value`` (Elasticsearch's stats agg over a
    numeric field, the Kibana metric-panel staple).

    Shape: per-batch partial (count/min/max/sum per type, one row per
    (batch, type)), then a coarse-bucket final combine — the shuffle
    moves O(batches × types) tiny partial rows, never events. avg is
    computed once at the end from the combined sum/count (not averaged
    across partials, which would weight batches wrongly)."""

    def partial(batch: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "event_type": batch["event_type"].to_pandas(),
                "value": batch["value"].to_numpy(),
            }
        )
        return (
            df.groupby("event_type", sort=False)["value"]
            .agg(n="size", sum_value="sum", min_value="min", max_value="max")
            .reset_index()
        )

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            g.groupby("event_type", sort=False)
            .agg(
                n=("n", "sum"),
                sum_value=("sum_value", "sum"),
                min_value=("min_value", "min"),
                max_value=("max_value", "max"),
            )
            .reset_index()
        )
        out["avg_value"] = trunc6(
            out["sum_value"].to_numpy() / out["n"].to_numpy()
        )
        out["sum_value"] = trunc6(out["sum_value"].to_numpy())
        out["min_value"] = trunc6(out["min_value"].to_numpy())
        out["max_value"] = trunc6(out["max_value"].to_numpy())
        return out

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=16384)
    return combine_by_key(partials, ["event_type"], combine, size_from=ds,
                          bytes_per_row=16, n_buckets=n_buckets)


def distinct_users(ds, n_buckets: int | None = None):
    """ES ``cardinality`` aggregation, exact: distinct user_id per
    event_type.

    Shape: per-batch dedup of (event_type, user_id) pairs (the partial
    — shrinks the exchange to unique-pairs-per-batch), shuffle keyed by
    ``hash(user_id) % n_buckets``. Distinct users split DISJOINTLY
    across buckets (bucket is a function of user_id alone), so each
    bucket counts its unique pairs independently and the final per-type
    count is a small sum of n_buckets partial rows — no global distinct
    structure anywhere. Reducer memory is O(unique pairs / n_buckets);
    ``n_buckets=None`` auto-sizes per the SCALE.md K rule."""
    def partial(batch: pa.Table) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": batch["event_type"].to_pandas(),
                "user_id": batch["user_id"].to_numpy().astype(np.int64),
            }
        ).drop_duplicates()

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.drop_duplicates(["event_type", "user_id"])
            .groupby("event_type", sort=False)
            .size()
            .rename("n_users")
            .reset_index()
        )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.groupby("event_type", sort=False)["n_users"]
            .sum()
            .reset_index()
        )

    counts = combine_by_key(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=16384),
        ["user_id"], per_bucket, size_from=ds, bytes_per_row=16,
        n_buckets=n_buckets,
    )
    # n_buckets × n_types tiny rows remain; one small final groupby
    return counts.groupby("event_type").map_groups(
        final, batch_format="pandas"
    )


#: HLL registers-per-sketch exponent: m = 2^12 = 4096 registers → ~1.6%
#: standard error (1.04/sqrt(m)), 4 KiB per (batch, type) partial.
HLL_P = 12


def hll_cardinality(ds, p: int = HLL_P):
    """ES ``cardinality`` aggregation as Elasticsearch actually runs it:
    a HyperLogLog ESTIMATE of distinct user_id per event_type
    (Flajolet et al. 2007, with the linear-counting small-range
    correction ES/Lucene also applies).

    Shape: each batch folds its user_ids into one m-register uint8
    sketch per type (``np.maximum.at`` over splitmix64 hashes — fully
    deterministic, so the result is parallelism-invariant); partials
    are (event_type, 4 KiB register blob) rows and the merge is an
    elementwise max per type. The exchange is O(batches × types × m)
    bytes — independent of event count, the whole point of the sketch
    vs ``distinct_users``. No SQL twin exists for the estimate; the
    pytest pin bounds it against the exact count (±5 σ) and checks
    merge associativity."""
    from excelastic_ray.hashing import bit_length_u64, splitmix64

    m = 1 << p

    def partial(batch: pa.Table) -> pd.DataFrame:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        h = splitmix64(batch["user_id"].to_numpy().astype(np.uint64))
        idx = (h >> np.uint64(64 - p)).astype(np.int64)
        w = h << np.uint64(p)  # remaining 64-p bits, top-aligned
        # rho = leading zeros of w + 1, capped at 64-p+1 when w == 0
        rho = np.where(
            w > 0, 64 - bit_length_u64(w) + 1, 64 - p + 1
        ).astype(np.uint8)
        types, inv = np.unique(et, return_inverse=True)
        regs = np.zeros((len(types), m), dtype=np.uint8)
        np.maximum.at(regs, (inv, idx), rho)
        return pd.DataFrame(
            {
                "event_type": types,
                "regs": [r.tobytes() for r in regs],
            }
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        regs = np.maximum.reduce(
            [np.frombuffer(b, dtype=np.uint8) for b in g["regs"]]
        )
        alpha = 0.7213 / (1 + 1.079 / m)
        est = alpha * m * m / np.sum(np.float64(2.0) ** -regs.astype(np.float64))
        zeros = int(np.count_nonzero(regs == 0))
        if est <= 2.5 * m and zeros:
            est = m * np.log(m / zeros)
        return pd.DataFrame(
            {
                "event_type": [g["event_type"].iloc[0]],
                "est_users": trunc6(np.asarray([est])),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=16384)
    return partials.groupby("event_type").map_groups(
        merge, batch_format="pandas"
    )


def tumbling_counts(ds, hours: int = 1):
    """Tumbling-window counts: (event_type, window_start) → n, sum_value.
    Pre-aggregated per batch (partial) before the coarse-bucketed final
    combine: the shuffle moves one row per (batch, type, window) into
    ~32 reducer frames."""
    us = hours * 3_600_000_000

    def partial(batch: pa.Table) -> pd.DataFrame:
        ts = batch["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        win = (ts // us) * us
        df = pd.DataFrame(
            {
                "event_type": batch["event_type"].to_pandas(),
                "window_start": win,
                "n": 1,
                "sum_value": batch["value"].to_numpy(),
            }
        )
        return (
            df.groupby(["event_type", "window_start"], sort=False)
            .agg(n=("n", "sum"), sum_value=("sum_value", "sum"))
            .reset_index()
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=16384)
    out = _bucketed_sum_combine(partials, ["event_type", "window_start"],
                                size_from=ds)

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch["event_type"],
                "window_start": batch["window_start"]
                .to_numpy()
                .astype("datetime64[us]"),
                "n": batch["n"],
                "sum_value": pa.array(trunc6(batch["sum_value"].to_numpy())),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def value_histogram(ds, interval: float = 0.5, col: str = "value"):
    """ES ``histogram`` aggregation analog over a numeric field:
    fixed-``interval`` buckets keyed by ``floor(value / interval) *
    interval`` (Elasticsearch's bucket rule, negatives included), each
    with count / sum / avg of ``value``.

    Per-batch pandas partials grouped on the float bucket key (exact
    equality is safe — every engine computes the key with the identical
    float64 expression), then the coarse-bucket sum combine; the
    exchange moves O(batches x buckets) partial rows, never events.

    → Dataset (bucket_lo, n, sum_value, avg_value), sums trunc6'd."""

    def partial(batch: pa.Table) -> pd.DataFrame:
        v = batch[col].to_numpy()
        df = pd.DataFrame(
            {
                "bucket_lo": np.floor(v / interval) * interval,
                "n": 1,
                "sum_value": v,
            }
        )
        return (
            df.groupby("bucket_lo", sort=False)
            .agg(n=("n", "sum"), sum_value=("sum_value", "sum"))
            .reset_index()
        )

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=16384)
    out = _bucketed_sum_combine(partials, ["bucket_lo"], size_from=ds)

    def finish(batch: pa.Table) -> pa.Table:
        n = batch["n"].to_numpy()
        # avg from the TRUNCATED sum: the raw float sum depends on
        # summation order (engine vs SQL differ in the last bits), and
        # sum/n can land exactly on a .5 rounding boundary (e.g.
        # 1687.71 / 32); rounding the sum once first gives both engines
        # the identical dividend
        s = trunc6(batch["sum_value"].to_numpy())
        return pa.table(
            {
                "bucket_lo": batch["bucket_lo"],
                "n": batch["n"],
                "sum_value": pa.array(s),
                "avg_value": pa.array(trunc6(s / n)),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def range_agg(ds, ranges, col: str = "value"):
    """ES ``range`` aggregation analog: explicit (from, to) buckets —
    ``from`` inclusive, ``to`` exclusive, ``None`` = open end — which
    MAY overlap (a doc can land in several buckets, exactly ES). Keyed
    by the ES bucket-key format ``"<from>-<to>"`` with ``*`` for open
    ends; empty buckets are kept.

    Every batch emits ONE tiny row per range (count + sum via boolean
    masks — ranges is small by contract), then the coarse-bucket sum
    combine; the exchange moves O(batches × ranges) rows, never events.

    → Dataset (range_key, n, sum_value, avg_value), sums trunc6'd,
    avg from the truncated sum (see value_histogram for why)."""

    def fmt(x):
        return "*" if x is None else repr(float(x))

    keys = [f"{fmt(lo)}-{fmt(hi)}" for lo, hi in ranges]
    bounds = [
        (-np.inf if lo is None else float(lo),
         np.inf if hi is None else float(hi))
        for lo, hi in ranges
    ]

    def partial(batch: pa.Table) -> pd.DataFrame:
        v = batch[col].to_numpy()
        ns, sums = [], []
        for lo, hi in bounds:
            m = (v >= lo) & (v < hi)
            ns.append(int(m.sum()))
            sums.append(float(v[m].sum()))
        return pd.DataFrame(
            {"range_key": keys, "n": ns, "sum_value": sums}
        )

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=16384)
    out = _bucketed_sum_combine(partials, ["range_key"], size_from=ds)

    def finish(batch: pa.Table) -> pa.Table:
        n = batch["n"].to_numpy()
        s = trunc6(batch["sum_value"].to_numpy())
        safe = np.where(n > 0, n, 1)
        return pa.table(
            {
                "range_key": batch["range_key"],
                "n": batch["n"],
                "sum_value": pa.array(s),
                "avg_value": pa.array(
                    np.where(n > 0, trunc6(s / safe), 0.0)
                ),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def percentile_ranks(ds, values, col: str = "value"):
    """ES ``percentile_ranks`` aggregation analog: for each probe value
    the percentage of docs with ``col`` ≤ value — EXACT (one tiny
    count-partial per batch; ES itself approximates with t-digest).
    → Dataset (value, pct trunc6'd)."""
    probes = np.asarray(sorted(float(v) for v in values), dtype=np.float64)

    def partial(batch: pa.Table) -> pd.DataFrame:
        v = np.sort(batch[col].to_numpy())
        le = np.searchsorted(v, probes, side="right").astype(np.int64)
        return pd.DataFrame(
            {"value": probes, "le": le, "n": len(v)}
        )

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=16384)
    out = _bucketed_sum_combine(partials, ["value"], size_from=ds)

    def finish(batch: pa.Table) -> pa.Table:
        le = batch["le"].to_numpy().astype(np.float64)
        n = batch["n"].to_numpy().astype(np.float64)
        return pa.table(
            {
                "value": batch["value"],
                "pct": pa.array(trunc6(100.0 * le / n)),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


_F64_SIGN = np.uint64(1) << np.uint64(63)


def _f64_to_ordered(v: np.ndarray) -> np.ndarray:
    """Order-preserving float64 → uint64 bijection (the radix-sort
    trick): flip all bits of negatives, set the sign bit of
    non-negatives; ``a < b`` over doubles iff ``key(a) < key(b)``
    unsigned. ``-0.0`` is normalized to ``+0.0`` first (SQL ordering
    treats them equal)."""
    v = np.asarray(v, dtype=np.float64) + 0.0
    u = v.view(np.uint64)
    return np.where(u >> np.uint64(63) != 0, ~u, u | _F64_SIGN)


def _ordered_to_f64(k: np.uint64) -> float:
    k = np.uint64(k)
    u = k ^ _F64_SIGN if k >> np.uint64(63) else ~k
    return float(np.uint64(u).view(np.float64))


def value_percentiles(ds, qs=(0.5, 0.9, 0.99), col: str = "value"):
    """ES ``percentiles`` aggregation analog over a continuous double
    column — EXACT (discrete quantiles: the smallest value whose
    cumulative count reaches ``ceil(q * n)``, = DuckDB
    ``quantile_disc``), where ES itself ships a t-digest approximation.

    Exact continuous quantiles normally need a global sort; instead this
    runs distributed radix SELECTION on the order-preserving uint64
    image of the doubles: each of <= 4 streaming passes histograms the
    next 16 bits of the key, per-batch partials are SPARSE (only
    patterns that occur, never a dense 2^16 vector) and carry per-bucket
    min/max full keys, the driver combine is histogram-sized, and the
    next pass filters to the <= len(qs) active prefixes. A bucket whose
    min == max key resolves its targets early (degenerate distributions
    finish in one pass). Nothing row-sized ever reaches the driver and
    no shuffle moves events — the cost is at most 4 scans of ONE pruned
    column.

    → pandas.DataFrame (quantile, value), exact data values."""
    targets: dict[float, dict] = {}  # q -> {"rank": r, "prefix": p}

    def make_pass(shift: int, active: np.ndarray | None):
        pshift = np.uint64(shift + 16)
        sh = np.uint64(shift)

        def partial(batch: pa.Table) -> pa.Table:
            arr = batch[col].drop_null().to_numpy(zero_copy_only=False)
            key = _f64_to_ordered(arr)
            if active is not None:
                key = key[np.isin(key >> pshift, active)]
            bucket = key >> sh
            order = np.argsort(bucket, kind="stable")
            bucket, key = bucket[order], key[order]
            ub, start = np.unique(bucket, return_index=True)
            cnt = np.diff(np.append(start, len(bucket)))
            kmin = np.minimum.reduceat(key, start) if len(key) else key
            kmax = np.maximum.reduceat(key, start) if len(key) else key
            return pa.table(
                {
                    "prefix": pa.array(ub, type=pa.uint64()),
                    "cnt": pa.array(cnt.astype(np.int64)),
                    "kmin": pa.array(kmin, type=pa.uint64()),
                    "kmax": pa.array(kmax, type=pa.uint64()),
                }
            )

        return partial

    resolved: dict[float, float] = {}
    shifts = [48, 32, 16, 0]
    for level, shift in enumerate(shifts):
        if level == 0:
            active = None
        else:
            need = {t["prefix"] for q, t in targets.items()
                    if q not in resolved}
            if not need:
                break
            active = np.array(sorted(need), dtype=np.uint64)
        part = ds.map_batches(
            make_pass(shift, active), batch_format="pyarrow",
            batch_size=65536,
        ).to_pandas()  # histogram-sized: sparse (prefix, cnt) partials
        if part.empty:  # zero valid rows: a no-column frame, no groupby
            return pd.DataFrame({"quantile": list(qs),
                                 "value": [np.nan] * len(qs)})
        hist = (
            part.groupby("prefix")
            .agg(cnt=("cnt", "sum"), kmin=("kmin", "min"),
                 kmax=("kmax", "max"))
            .sort_index()
        )
        if level == 0:
            n = int(hist["cnt"].sum()) if len(hist) else 0
            if n == 0:
                return pd.DataFrame({"quantile": list(qs),
                                     "value": [np.nan] * len(qs)})
            for q in qs:
                targets[q] = {"rank": max(1, int(np.ceil(q * n)))}
        for q in qs:
            if q in resolved:
                continue
            # the rank is scoped to THIS target's parent prefix: restrict
            # the walk to that prefix's sub-buckets (level 0: all rows)
            if level == 0:
                sub = hist
            else:
                parents = hist.index.to_numpy() >> np.uint64(16)
                sub = hist[parents == targets[q]["prefix"]]
            cum = sub["cnt"].cumsum()
            i = int(np.searchsorted(cum.to_numpy(), targets[q]["rank"]))
            # scalar column access, NEVER sub.iloc[i]: a mixed-dtype row
            # Series promotes the uint64 keys to float64 and rounds off
            # the low mantissa bits (wrong value, silently)
            kmin = np.uint64(sub["kmin"].iloc[i])
            kmax = np.uint64(sub["kmax"].iloc[i])
            before = int(cum.iloc[i - 1]) if i else 0
            if kmin == kmax or shift == 0:
                resolved[q] = _ordered_to_f64(kmin)
            else:
                targets[q] = {"rank": targets[q]["rank"] - before,
                              "prefix": np.uint64(sub.index[i])}
    return pd.DataFrame(
        {"quantile": list(qs), "value": [resolved[q] for q in qs]}
    )


def composite_agg(ds, size: int = 10, after: tuple | None = None,
                  day_us: int = 86_400_000_000):
    """ES ``composite`` aggregation analog: buckets over the composite
    source ``(event_type, day)`` in ascending key order, paginated by an
    exclusive ``after`` key — THE way to page through a high-cardinality
    aggregation without deep bucket trees (ES composite-agg contract).

    Scale shape: per-batch partials → coarse-bucket combine (exchange is
    O(batches × buckets), never events) → vectorized tuple filter
    ``key > after`` → distributed sort over the BUCKET table (tiny
    relative to the corpus) → limit ``size``. The ``after`` filter
    prunes before the sort, so deep pages never re-sort skipped keys.

    → Dataset (event_type, day, doc_count, sum_value) with ``day`` a
    date32-style midnight timestamp; sums trunc6'd for oracle parity.
    """

    def partial(batch: pa.Table) -> pd.DataFrame:
        ts = batch["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        day = (ts // day_us) * day_us
        df = pd.DataFrame(
            {
                "event_type": batch["event_type"].to_pandas(),
                "day": day,
                "n": 1,
                "sum_value": batch["value"].to_numpy(),
            }
        )
        return (
            df.groupby(["event_type", "day"], sort=False)
            .agg(n=("n", "sum"), sum_value=("sum_value", "sum"))
            .reset_index()
        )

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=16384)
    buckets = _bucketed_sum_combine(partials, ["event_type", "day"],
                                    size_from=ds)

    def finish(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_pandas().to_numpy(dtype=object)
        day = batch["day"].to_numpy()
        keep = np.ones(len(et), dtype=bool)
        if after is not None:
            a_et, a_day = after
            a_day = int(np.datetime64(a_day, "us").astype(np.int64))
            keep = (et > a_et) | ((et == a_et) & (day > a_day))
        return pa.table(
            {
                "event_type": pa.array(et[keep], type=pa.string()),
                "day": pa.array(day[keep].astype("datetime64[us]")),
                "doc_count": batch["n"].to_numpy()[keep],
                "sum_value": pa.array(
                    trunc6(batch["sum_value"].to_numpy()[keep])
                ),
            }
        )

    return (
        buckets.map_batches(finish, batch_format="pyarrow")
        .sort(["event_type", "day"])
        .limit(size)
    )


def date_histogram_pipeline(ds, hours: int = 24, window: int = 3):
    """ES pipeline aggregations over a date_histogram: per time bucket
    the event count plus ``cumulative_sum``, ``derivative`` (ES null
    for the first bucket → 0 here, both sides coalesce) and a centered-
    trailing ``moving_fn`` avg of the previous ``window`` counts — the
    Kibana time-series panel primitives.

    The histogram itself is the scalable part (partial+final combine as
    in :func:`tumbling_counts`); the pipeline stage then runs over the
    BUCKET table, which is O(time range / interval), so it collapses to
    one ordered block (``repartition(1)``) for the exact window scan —
    documented driver-independent but single-block by design (ES
    computes pipeline aggs on the coordinating node the same way).

    → Dataset (window_start, n, cum_n, deriv, moving_avg).
    """
    us = hours * 3_600_000_000

    def partial(batch: pa.Table) -> pd.DataFrame:
        ts = batch["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        win = (ts // us) * us
        df = pd.DataFrame({"window_start": win, "n": 1, "sum_value": 0.0})
        return (
            df.groupby("window_start", sort=False)
            .agg(n=("n", "sum"), sum_value=("sum_value", "sum"))
            .reset_index()
        )

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=16384)
    buckets = _bucketed_sum_combine(partials, ["window_start"], size_from=ds)

    def scan(batch: pa.Table) -> pa.Table:
        order = np.argsort(batch["window_start"].to_numpy(), kind="stable")
        win = batch["window_start"].to_numpy()[order]
        n = batch["n"].to_numpy()[order].astype(np.int64)
        cum = np.cumsum(n)
        deriv = np.concatenate([[0], np.diff(n)])
        # trailing moving average of the previous `window` buckets
        # (current excluded — ES moving_fn shift default), first bucket 0
        csum = np.concatenate([[0], cum])
        lo = np.maximum(np.arange(len(n)) - window, 0)
        width = np.arange(len(n)) - lo
        mov = np.zeros(len(n), dtype=np.float64)
        nz = width > 0
        mov[nz] = (csum[np.arange(len(n))[nz]] - csum[lo[nz]]) / width[nz]
        return pa.table(
            {
                "window_start": pa.array(win.astype("datetime64[us]")),
                "n": pa.array(n),
                "cum_n": pa.array(cum),
                "deriv": pa.array(deriv),
                "moving_avg": pa.array(trunc6(mov)),
            }
        )

    return buckets.repartition(1).map_batches(
        scan, batch_format="pyarrow", batch_size=None
    )


def pipeline_diffs(ds, hours: int = 24, lag: int = 2, window: int = 4,
                   percents: tuple = (50, 90)):
    """ES ``serial_diff`` + ``moving_percentiles`` pipeline aggs over a
    date_histogram of the event stream: per time bucket, the event
    count, its lag-``lag`` serial difference (ES null for the first
    ``lag`` buckets → 0 here, both sides coalesce — the
    date_histogram_pipeline convention), and linear-interpolated
    percentiles of the PREVIOUS ``window`` bucket counts (current
    excluded — the ES ``moving_fn``/``moving_percentiles`` trailing
    window with default shift; empty leading window → 0).

    Same scale shape as :func:`date_histogram_pipeline`: the histogram
    is partial+final combined; the pipeline stage runs over the
    O(time range / interval) BUCKET table as one ordered block.

    → Dataset (window_start, n, serial_diff, mp_<p>...).
    """
    us = hours * 3_600_000_000

    def partial(batch: pa.Table) -> pd.DataFrame:
        ts = batch["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        win = (ts // us) * us
        df = pd.DataFrame({"window_start": win, "n": 1, "sum_value": 0.0})
        return (
            df.groupby("window_start", sort=False)
            .agg(n=("n", "sum"), sum_value=("sum_value", "sum"))
            .reset_index()
        )

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=16384)
    buckets = _bucketed_sum_combine(partials, ["window_start"], size_from=ds)

    def scan(batch: pa.Table) -> pa.Table:
        order = np.argsort(batch["window_start"].to_numpy(), kind="stable")
        win = batch["window_start"].to_numpy()[order]
        n = batch["n"].to_numpy()[order].astype(np.int64)
        m = len(n)
        sd = np.zeros(m, dtype=np.int64)
        if m > lag:
            sd[lag:] = n[lag:] - n[:-lag]
        # trailing windows via a NaN-padded sliding view: row i holds
        # buckets [i-window, i); leading pads are NaN and fall out of
        # nanpercentile (ragged leading edge = ES partial window)
        padded = np.concatenate([np.full(window, np.nan), n.astype(float)])
        view = np.lib.stride_tricks.sliding_window_view(
            padded[:-1], window
        )  # view[i] = padded[i : i + window] == counts of [i-window, i)
        cols = {
            "window_start": pa.array(win.astype("datetime64[us]")),
            "n": pa.array(n),
            "serial_diff": pa.array(sd),
        }
        import warnings

        with warnings.catch_warnings():
            # the first bucket's window is all-NaN by construction
            warnings.simplefilter("ignore", category=RuntimeWarning)
            for p in percents:
                vals = np.nanpercentile(view, p, axis=1)
                cols[f"mp_{int(p)}"] = pa.array(
                    trunc6(np.nan_to_num(vals, nan=0.0))
                )
        return pa.table(cols)

    return buckets.repartition(1).map_batches(
        scan, batch_format="pyarrow", batch_size=None
    )


def bucket_metrics(ds, hours: int = 24):
    """ES SIBLING pipeline aggregations (`avg_bucket` / `min_bucket` /
    `max_bucket` / `sum_bucket` / `stats_bucket` /
    `percentiles_bucket`) over a date_histogram of the event stream:
    one row summarizing the per-bucket event counts. `max_bucket` /
    `min_bucket` also report the owning bucket key (ES returns a keys
    LIST on ties; this engine reports the EARLIEST tied bucket —
    documented deviation, deterministic). Percentiles are
    linear-interpolated (p50/p90), matching quantile_cont.

    The histogram is partial+final combined; the sibling stage reduces
    the O(time range / interval) bucket table in one block — the ES
    coordinating-node shape.

    → Dataset (1 row: n_buckets, avg_n, min_n, min_key, max_n,
    max_key, sum_n, p50_n, p90_n).
    """
    us = hours * 3_600_000_000

    def partial(batch: pa.Table) -> pd.DataFrame:
        ts = batch["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        win = (ts // us) * us
        df = pd.DataFrame({"window_start": win, "n": 1, "sum_value": 0.0})
        return (
            df.groupby("window_start", sort=False)
            .agg(n=("n", "sum"), sum_value=("sum_value", "sum"))
            .reset_index()
        )

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=16384)
    buckets = _bucketed_sum_combine(partials, ["window_start"], size_from=ds)

    def reduce_(batch: pa.Table) -> pa.Table:
        order = np.argsort(batch["window_start"].to_numpy(), kind="stable")
        win = (
            batch["window_start"].to_numpy()[order].astype("datetime64[us]")
        )
        n = batch["n"].to_numpy()[order].astype(np.int64)
        imin = int(np.argmin(n))  # first occurrence == earliest tie
        imax = int(np.argmax(n))
        return pa.table(
            {
                "n_buckets": pa.array([len(n)], type=pa.int64()),
                "avg_n": pa.array(
                    trunc6(np.array([n.sum() / len(n)]))
                ),
                "min_n": pa.array([int(n[imin])], type=pa.int64()),
                "min_key": pa.array(
                    [win[imin]], type=pa.timestamp("us")
                ),
                "max_n": pa.array([int(n[imax])], type=pa.int64()),
                "max_key": pa.array(
                    [win[imax]], type=pa.timestamp("us")
                ),
                "sum_n": pa.array([int(n.sum())], type=pa.int64()),
                "p50_n": pa.array(
                    trunc6(np.array([np.percentile(n, 50)]))
                ),
                "p90_n": pa.array(
                    trunc6(np.array([np.percentile(n, 90)]))
                ),
            }
        )

    return buckets.repartition(1).map_batches(
        reduce_, batch_format="pyarrow", batch_size=None
    )


def normalize_buckets(ds, hours: int = 24, method: str = "rescale_0_1"):
    """ES ``normalize`` pipeline agg over a date_histogram of the event
    stream: per time bucket the event count plus its normalized value —
    ``rescale_0_1`` (n - min) / (max - min), ``percent_of_sum``
    n / Σn, or ``mean`` (n - avg) / (max - min) — the three ES methods
    users reach for in Kibana (z-score et al. are the same one-pass
    shape). Degenerate ranges (max == min) normalize to 0, ES's
    single-bucket behavior. Same scale shape as the other pipeline
    stages: combined histogram, one O(buckets) block scan.

    → Dataset (window_start, n, normalized).
    """
    if method not in ("rescale_0_1", "percent_of_sum", "mean"):
        raise ValueError(f"unknown normalize method {method!r}")
    us = hours * 3_600_000_000

    def partial(batch: pa.Table) -> pd.DataFrame:
        ts = batch["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        win = (ts // us) * us
        df = pd.DataFrame({"window_start": win, "n": 1, "sum_value": 0.0})
        return (
            df.groupby("window_start", sort=False)
            .agg(n=("n", "sum"), sum_value=("sum_value", "sum"))
            .reset_index()
        )

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=16384)
    buckets = _bucketed_sum_combine(partials, ["window_start"], size_from=ds)

    def scan(batch: pa.Table) -> pa.Table:
        order = np.argsort(batch["window_start"].to_numpy(), kind="stable")
        win = batch["window_start"].to_numpy()[order]
        n = batch["n"].to_numpy()[order].astype(np.float64)
        rng = n.max() - n.min() if len(n) else 0.0
        if method == "rescale_0_1":
            norm = (n - n.min()) / rng if rng else np.zeros_like(n)
        elif method == "percent_of_sum":
            norm = n / n.sum() if n.sum() else np.zeros_like(n)
        else:  # mean
            norm = (n - n.mean()) / rng if rng else np.zeros_like(n)
        return pa.table(
            {
                "window_start": pa.array(win.astype("datetime64[us]")),
                "n": pa.array(n.astype(np.int64)),
                "normalized": pa.array(trunc6(norm)),
            }
        )

    return buckets.repartition(1).map_batches(
        scan, batch_format="pyarrow", batch_size=None
    )


def filters_agg(ds, named_filters: dict[str, dict], col: str = "value"):
    """ES ``filters`` aggregation analog: NAMED predicate buckets — a
    row may land in several buckets (or none), empty buckets are kept,
    exactly ES. Each named filter is a spec dict with optional keys:

      ``eq``  {column: value or [values]}   membership
      ``gte`` {column: number}              column >= number
      ``lt``  {column: number}              column <  number

    (the conjunction of everything present — the ES bool-filter
    context shape). Every batch emits ONE tiny row per bucket (count +
    sum of ``col`` via boolean masks), then the coarse-bucket sum
    combine — the exchange moves O(batches × buckets) rows, never
    events.

    → Dataset (filter_key, n, sum_value, avg_value); sums trunc6'd,
    avg from the truncated sum (see value_histogram for why)."""
    keys = sorted(named_filters)
    for k in keys:  # a typo'd op must error, not match everything
        unknown = set(named_filters[k]) - {"eq", "gte", "lt"}
        if unknown:
            raise ValueError(
                f"filter {k!r} has unknown ops {sorted(unknown)}; "
                f"supported: eq, gte, lt"
            )

    def mask_for(batch: pa.Table, spec: dict) -> np.ndarray:
        m = np.ones(batch.num_rows, dtype=bool)
        for c, v in spec.get("eq", {}).items():
            vals = v if isinstance(v, (list, tuple, set)) else [v]
            m &= np.isin(
                batch[c].to_numpy(zero_copy_only=False), list(vals)
            )
        for c, v in spec.get("gte", {}).items():
            m &= batch[c].to_numpy(zero_copy_only=False) >= v
        for c, v in spec.get("lt", {}).items():
            m &= batch[c].to_numpy(zero_copy_only=False) < v
        return m

    def partial(batch: pa.Table) -> pd.DataFrame:
        v = batch[col].to_numpy()
        ns, sums = [], []
        for k in keys:
            m = mask_for(batch, named_filters[k])
            ns.append(int(m.sum()))
            sums.append(float(v[m].sum()))
        return pd.DataFrame({"filter_key": keys, "n": ns, "sum_value": sums})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=16384)
    out = _bucketed_sum_combine(partials, ["filter_key"], size_from=ds)

    def finish(batch: pa.Table) -> pa.Table:
        n = batch["n"].to_numpy()
        s = trunc6(batch["sum_value"].to_numpy())
        safe = np.where(n > 0, n, 1)
        return pa.table(
            {
                "filter_key": batch["filter_key"],
                "n": batch["n"],
                "sum_value": pa.array(s),
                "avg_value": pa.array(
                    np.where(n > 0, trunc6(s / safe), 0.0)
                ),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def bucket_script_selector(ds, hours: int = 24,
                           min_avg: float | None = None):
    """ES ``bucket_script`` + ``bucket_selector`` pipeline aggs over a
    date_histogram of value sums: per time bucket compute a derived
    metric with a script — here ``avg = sum_value / n`` (trunc6 of the
    trunc6'd sum, the engine-wide avg rule) — then keep only buckets
    passing the selector predicate (``avg >= min_avg``; None keeps
    all), the ES HAVING clause.

    The histogram is the scalable part (partial+final combine); the
    script/selector run vectorized over the O(range/interval) bucket
    table — no extra exchange beyond the combine.

    → Dataset (window_start, n, sum_value, avg_value), selector
    applied."""
    us = hours * 3_600_000_000

    def partial(batch: pa.Table) -> pd.DataFrame:
        ts = batch["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        v = batch["value"].to_numpy()
        df = pd.DataFrame(
            {"window_start": (ts // us) * us, "n": 1, "sum_value": v}
        )
        return (
            df.groupby("window_start", sort=False)
            .agg(n=("n", "sum"), sum_value=("sum_value", "sum"))
            .reset_index()
        )

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=16384)
    buckets = _bucketed_sum_combine(partials, ["window_start"], size_from=ds)

    def script_and_select(batch: pa.Table) -> pa.Table:
        n = batch["n"].to_numpy().astype(np.int64)
        s = trunc6(batch["sum_value"].to_numpy())
        avg = trunc6(s / np.where(n > 0, n, 1))
        out = pa.table(
            {
                "window_start": batch["window_start"],
                "n": pa.array(n),
                "sum_value": pa.array(s),
                "avg_value": pa.array(avg),
            }
        )
        if min_avg is not None:
            out = out.filter(pa.array(avg >= min_avg))
        return out

    return buckets.map_batches(script_and_select, batch_format="pyarrow")


#: auto_date_histogram rounding ladder (a fixed subset of ES's):
#: 1m, 5m, 15m, 1h, 3h, 12h, 1d, 7d, 30d — in microseconds.
AUTO_HIST_LADDER = tuple(
    m * 60_000_000 for m in (1, 5, 15, 60, 180, 720, 1440, 10080, 43200)
)


def auto_date_histogram(ds, target_buckets: int = 20):
    """ES ``auto_date_histogram`` analog: pick the smallest interval
    from the rounding ladder whose bucket count fits
    ``target_buckets``, then bucket. Interval choice needs only the
    (min, max) timestamp — one tiny aggregate — and the bucket count
    uses the ROUNDED edges (hi//i - lo//i + 1), the same arithmetic
    the SQL twin runs; ties on the ladder are impossible (strictly
    increasing intervals). Falls back to the coarsest rung when even
    it overflows the target.

    → Dataset (window_start int64-us, n, interval_us), the chosen
    interval attached to every row like ES's response metadata."""
    # one pass: per-batch (min, max) partials, driver combine; empty
    # blocks (empty row groups / upstream filters) emit no partial
    def mmpart(batch: pa.Table) -> pd.DataFrame:
        ts = batch["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        if not len(ts):
            return pd.DataFrame({"lo": np.zeros(0, np.int64),
                                 "hi": np.zeros(0, np.int64)})
        return pd.DataFrame({"lo": [int(ts.min())], "hi": [int(ts.max())]})

    parts = ds.map_batches(mmpart, batch_format="pyarrow",
                           batch_size=65536).to_pandas()
    if not len(parts):  # zero events: an empty, correctly-typed result
        import ray.data as rd

        return rd.from_arrow(
            pa.table({"window_start": pa.array([], type=pa.int64()),
                      "n": pa.array([], type=pa.int64()),
                      "interval_us": pa.array([], type=pa.int64())})
        )
    lo, hi = int(parts["lo"].min()), int(parts["hi"].max())
    interval = AUTO_HIST_LADDER[-1]
    for i in AUTO_HIST_LADDER:
        if hi // i - lo // i + 1 <= target_buckets:
            interval = i
            break

    def partial(batch: pa.Table) -> pd.DataFrame:
        ts = batch["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        df = pd.DataFrame(
            {"window_start": (ts // interval) * interval, "n": 1}
        )
        return (
            df.groupby("window_start", sort=False)
            .agg(n=("n", "sum"))
            .reset_index()
        )

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=16384)
    out = _bucketed_sum_combine(partials, ["window_start"], size_from=ds)

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "window_start": batch["window_start"],
                "n": batch["n"],
                "interval_us": pa.array(
                    np.full(batch.num_rows, interval, dtype=np.int64)
                ),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def extended_stats(ds, col: str = "value", sigma: float = 2.0):
    """ES ``extended_stats`` aggregation analog over a numeric field:
    count / min / max / sum / avg / sum_of_squares / population
    variance / std_deviation / std_deviation_bounds.

    One tiny moment-partial row per batch (n, sum, sumsq, min, max),
    combined on the driver (batch-count-sized, never rows). The float
    sums are trunc6'd BEFORE any derived value so engine and SQL twin
    divide the identical dividend (the ``value_histogram`` rule), and
    every derived value reuses already-truncated inputs:

        s = T(sum); ss = T(sumsq); avg = T(s/n)
        var = T(ss/n - (s/n)^2);  std = T(sqrt(var))
        bounds = T(avg +/- sigma*std)

    → pandas.DataFrame, one row."""

    def partial(batch: pa.Table) -> pd.DataFrame:
        v = batch[col].drop_null().to_numpy(zero_copy_only=False)
        if not len(v):
            return pd.DataFrame(
                {"n": [0], "s": [0.0], "ss": [0.0],
                 "mn": [np.inf], "mx": [-np.inf]}
            )
        return pd.DataFrame(
            {
                "n": [len(v)],
                "s": [float(np.sum(v))],
                "ss": [float(np.sum(v * v))],
                "mn": [float(np.min(v))],
                "mx": [float(np.max(v))],
            }
        )

    p = ds.map_batches(partial, batch_format="pyarrow",
                       batch_size=65536).to_pandas()
    n = int(p["n"].sum())
    if n == 0:
        return pd.DataFrame(
            {"n": [0], "min_v": [np.nan], "max_v": [np.nan],
             "sum_v": [np.nan], "avg_v": [np.nan], "sum_sq": [np.nan],
             "variance": [np.nan], "std_dev": [np.nan],
             "std_upper": [np.nan], "std_lower": [np.nan]}
        )
    s = float(trunc6(p["s"].sum()))
    ss = float(trunc6(p["ss"].sum()))
    avg = float(trunc6(s / n))
    var = float(trunc6(ss / n - (s / n) * (s / n)))
    std = float(trunc6(np.sqrt(max(var, 0.0))))
    return pd.DataFrame(
        {
            "n": [n],
            "min_v": [float(p["mn"].min())],
            "max_v": [float(p["mx"].max())],
            "sum_v": [s],
            "avg_v": [avg],
            "sum_sq": [ss],
            "variance": [var],
            "std_dev": [std],
            "std_upper": [float(trunc6(avg + sigma * std))],
            "std_lower": [float(trunc6(avg - sigma * std))],
        }
    )


def median_abs_deviation(ds, col: str = "value"):
    """ES ``median_absolute_deviation`` aggregation analog — EXACT via
    two distributed radix selections (ES itself ships a t-digest
    approximation): the discrete median m of ``col`` (smallest value
    whose cumulative count reaches ceil(n/2) = DuckDB
    ``quantile_disc``), then the discrete median of ``|x - m|``. Both
    passes reuse ``value_percentiles``' streaming histogram selection —
    nothing row-sized reaches the driver and no shuffle moves events.
    |x - m| is a single exact float64 op, so the output is exact data
    values (no truncation needed for SQL parity).

    → pandas.DataFrame (median, mad), one row."""
    m = float(value_percentiles(ds, qs=(0.5,), col=col)["value"].iloc[0])

    def dev(batch: pa.Table) -> pa.Table:
        v = batch[col].drop_null().to_numpy(zero_copy_only=False)
        return pa.table({"dev": pa.array(np.abs(v - m))})

    devs = ds.map_batches(dev, batch_format="pyarrow", batch_size=65536)
    mad = float(value_percentiles(devs, qs=(0.5,), col="dev")["value"].iloc[0])
    return pd.DataFrame({"median": [m], "mad": [mad]})


def multi_terms(ds, keys=("event_type", "user_id"), size: int = 10):
    """ES ``multi_terms`` aggregation analog: buckets keyed by the
    COMPOUND key tuple, ordered by doc count DESC then key ASC,
    truncated to ``size``.

    Per-batch pandas groupby partials → the coarse-bucket sum combine
    (exchange moves O(batches × live keys) partial rows, never events)
    → per-block top-``size`` candidates → driver-side final top-k over
    ≤ blocks × size candidate rows. The driver never sees the full key
    cardinality.

    → pandas.DataFrame (*keys, n), ``size`` rows."""
    keys = list(keys)

    def partial(batch: pa.Table) -> pd.DataFrame:
        df = batch.select(keys).to_pandas()
        df["n"] = 1
        return df.groupby(keys, sort=False).agg(n=("n", "sum")).reset_index()

    p = ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
    comb = _bucketed_sum_combine(p, keys, size_from=ds)

    def topn(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["n"] + keys, ascending=[False] + [True] * len(keys)
        ).head(size)

    cand = comb.map_batches(
        topn, batch_format="pandas", batch_size=None
    ).to_pandas()
    return (
        cand.sort_values(["n"] + keys, ascending=[False] + [True] * len(keys))
        .head(size)
        .reset_index(drop=True)
    )


def matrix_stats(ds, x_col: str, y_col: str):
    """ES ``matrix_stats`` aggregation analog for one field pair:
    population covariance and Pearson correlation between two numeric
    columns, from one pass of tiny moment partials (n, sx, sy, sxx,
    syy, sxy) per batch combined on the driver.

    Float sums are trunc6'd BEFORE any derived value (the
    ``extended_stats`` rule) and the SQL twin spells out the identical
    moment formula — DuckDB's native ``covar_pop``/``corr`` use Welford
    accumulation whose last-bit behavior differs from the moment form:

        cov_raw = T(sxy)/n - (T(sx)/n)(T(sy)/n)
        cov  = T(cov_raw)
        corr = T(cov_raw / sqrt(varx_raw * vary_raw))

    → pandas.DataFrame (n, cov, corr), one row."""

    def partial(batch: pa.Table) -> pd.DataFrame:
        x = batch[x_col].to_numpy(zero_copy_only=False).astype(np.float64)
        y = batch[y_col].to_numpy(zero_copy_only=False).astype(np.float64)
        ok = ~(np.isnan(x) | np.isnan(y))
        x, y = x[ok], y[ok]
        return pd.DataFrame(
            {
                "n": [len(x)],
                "sx": [float(np.sum(x))],
                "sy": [float(np.sum(y))],
                "sxx": [float(np.sum(x * x))],
                "syy": [float(np.sum(y * y))],
                "sxy": [float(np.sum(x * y))],
            }
        )

    p = ds.map_batches(partial, batch_format="pyarrow",
                       batch_size=65536).to_pandas()
    n = int(p["n"].sum())
    if n == 0:
        return pd.DataFrame({"n": [0], "cov": [np.nan], "corr": [np.nan]})
    sx = float(trunc6(p["sx"].sum()))
    sy = float(trunc6(p["sy"].sum()))
    sxx = float(trunc6(p["sxx"].sum()))
    syy = float(trunc6(p["syy"].sum()))
    sxy = float(trunc6(p["sxy"].sum()))
    mx, my = sx / n, sy / n
    cov_raw = sxy / n - mx * my
    varx = sxx / n - mx * mx
    vary = syy / n - my * my
    corr = cov_raw / np.sqrt(varx * vary) if varx > 0 and vary > 0 else np.nan
    return pd.DataFrame(
        {
            "n": [n],
            "cov": [float(trunc6(cov_raw))],
            "corr": [float(trunc6(corr))],
        }
    )


def boxplot(ds, col: str = "value"):
    """ES ``boxplot`` aggregation analog — EXACT (ES approximates with
    t-digest): min, q1, median, q3, max. The three quartiles are three
    targets of ONE distributed radix-selection run (discrete quantiles,
    = DuckDB ``quantile_disc``); min/max ride a tiny moment partial.
    Exact data values — no rounding needed for SQL parity.

    → pandas.DataFrame (min_v, q1, median, q3, max_v), one row."""
    q = value_percentiles(ds, qs=(0.25, 0.5, 0.75), col=col)
    vals = dict(zip(q["quantile"], q["value"]))

    def partial(batch: pa.Table) -> pd.DataFrame:
        v = batch[col].drop_null().to_numpy(zero_copy_only=False)
        if not len(v):
            return pd.DataFrame({"mn": [np.inf], "mx": [-np.inf]})
        return pd.DataFrame({"mn": [float(np.min(v))],
                             "mx": [float(np.max(v))]})

    p = ds.map_batches(partial, batch_format="pyarrow",
                       batch_size=65536).to_pandas()
    return pd.DataFrame(
        {
            "min_v": [float(p["mn"].min())],
            "q1": [vals[0.25]],
            "median": [vals[0.5]],
            "q3": [vals[0.75]],
            "max_v": [float(p["mx"].max())],
        }
    )


def weighted_avg(ds, value_col: str, weight_col: str):
    """ES ``weighted_avg`` aggregation analog: Σ(v·w) / Σ(w) from one
    pass of tiny moment partials; both sums trunc6'd BEFORE the divide
    (the ``extended_stats`` rule) so the SQL twin divides identical
    operands. → pandas.DataFrame (wsum, weight, wavg), one row."""

    def partial(batch: pa.Table) -> pd.DataFrame:
        v = batch[value_col].to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        w = batch[weight_col].to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        ok = ~(np.isnan(v) | np.isnan(w))
        return pd.DataFrame(
            {"vw": [float(np.sum(v[ok] * w[ok]))],
             "w": [float(np.sum(w[ok]))]}
        )

    p = ds.map_batches(partial, batch_format="pyarrow",
                       batch_size=65536).to_pandas()
    vw = float(trunc6(p["vw"].sum()))
    w = float(trunc6(p["w"].sum()))
    return pd.DataFrame(
        {
            "wsum": [vw],
            "weight": [w],
            "wavg": [float(trunc6(vw / w)) if w else np.nan],
        }
    )


def top_metrics(ds, bucket_col: str = "event_type",
                metric_col: str = "value", sort_col: str = "ts",
                tie_col: str = "event_id"):
    """ES ``top_metrics`` aggregation analog: per bucket, the metric
    value on the row with the LARGEST (sort, tie) key — "latest value
    per type". Per-batch argmax partial (one row per live bucket per
    batch), driver combine re-applies the same argmax over the
    bucket-count-sized partial frame; (sort, tie) is a total order, so
    the result is deterministic at any partitioning.

    → pandas.DataFrame (bucket_col, sort_col, metric_col), sorted by
    bucket."""

    def partial(batch: pa.Table) -> pd.DataFrame:
        df = batch.select([bucket_col, sort_col, tie_col,
                           metric_col]).to_pandas()
        idx = (
            df.sort_values([sort_col, tie_col])
            .groupby(bucket_col, sort=False)
            .tail(1)
        )
        return idx

    p = ds.map_batches(partial, batch_format="pyarrow",
                       batch_size=65536).to_pandas()
    out = (
        p.sort_values([sort_col, tie_col])
        .groupby(bucket_col, sort=False)
        .tail(1)
        .sort_values(bucket_col)
        .reset_index(drop=True)
    )
    return out[[bucket_col, sort_col, metric_col]]


def t_test(ds, col: str = "value", group_col: str = "event_type",
           group_a: str = "click", group_b: str = "error"):
    """ES ``t_test`` aggregation analog (heteroscedastic / Welch,
    ES's default type): t statistic + Welch–Satterthwaite dof between
    two groups' values, from one pass of per-group moment partials.
    Raw sums are trunc6'd before any derived value (the
    ``extended_stats`` rule); sample variance uses the n−1 moment form
    the SQL twin spells out. ES reports the p-value, which needs the
    Student CDF — t and dof are the deterministic core both engines
    can compute exactly; the CDF is monotone in |t| for fixed dof, so
    assertions on t order carry to p.

    → pandas.DataFrame (n_a, n_b, mean_a, mean_b, t, dof), one row."""

    def partial(batch: pa.Table) -> pd.DataFrame:
        g = batch[group_col].to_numpy(zero_copy_only=False).astype(str)
        v = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        rows = []
        for label, name in ((group_a, "a"), (group_b, "b")):
            m = (g == label) & ~np.isnan(v)
            rows.append(
                {"grp": name, "n": int(m.sum()),
                 "s": float(np.sum(v[m])), "ss": float(np.sum(v[m] ** 2))}
            )
        return pd.DataFrame(rows)

    p = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .to_pandas()
        .groupby("grp")
        .agg(n=("n", "sum"), s=("s", "sum"), ss=("ss", "sum"))
    )
    stats = {}
    for name in ("a", "b"):
        n = int(p.loc[name, "n"])
        s = float(trunc6(p.loc[name, "s"]))
        ss = float(trunc6(p.loc[name, "ss"]))
        mean = s / n if n else np.nan
        var = (ss - s * s / n) / (n - 1) if n > 1 else np.nan
        stats[name] = (n, mean, var)
    na, ma, va = stats["a"]
    nb, mb, vb = stats["b"]
    se2 = va / na + vb / nb
    t = (ma - mb) / np.sqrt(se2)
    dof = se2 * se2 / (
        (va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1)
    )
    return pd.DataFrame(
        {
            "n_a": [na], "n_b": [nb],
            "mean_a": [float(trunc6(ma))], "mean_b": [float(trunc6(mb))],
            "t": [float(trunc6(t))], "dof": [float(trunc6(dof))],
        }
    )


def cumulative_cardinality(ds, user_col: str = "user_id",
                           ts_col: str = "ts",
                           n_buckets: int | None = None):
    """ES ``cumulative_cardinality`` pipeline agg — EXACT (ES stacks
    HLL sketches): distinct users seen up to each day. The classic
    first-seen reduction: a user contributes exactly to the bucket of
    their FIRST event, so cumulative cardinality = running sum of
    new-user counts. One pass of (user, min day) batch partials → a
    user-hash bucketed min-combine (the only exchange; user-sized,
    narrow) → per-day new-user count partials → tiny day-level sum
    combine → O(days) driver cumsum. Nothing user-sized reaches the
    driver.

    Days where no user is first seen are ABSENT (their cumulative
    value is the previous row's — the caller forward-fills if a dense
    histogram is wanted; the SQL twin shares the sparse convention).

    → pandas.DataFrame (day, n_new, cum_users) sorted by day."""
    day_us = np.int64(86_400_000_000)

    def partial(batch: pa.Table) -> pd.DataFrame:
        u = batch[user_col].to_numpy().astype(np.int64)
        ts = batch[ts_col].to_numpy().astype("datetime64[us]").astype(
            np.int64
        )
        day = (ts // day_us) * day_us
        df = pd.DataFrame({"u": u, "d": day})
        return df.groupby("u", sort=False)["d"].min().reset_index()

    def first_seen(g: pd.DataFrame) -> pd.DataFrame:
        f = g.groupby("u", sort=False)["d"].min()
        cnt = f.value_counts().sort_index()
        return pd.DataFrame(
            {"d": cnt.index.to_numpy(), "n_new": cnt.to_numpy()}
        )

    per_day = combine_by_key(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        ["u"], first_seen, size_from=ds, bytes_per_row=16,
        n_buckets=n_buckets,
    )
    days = _bucketed_sum_combine(per_day, ["d"], size_from=ds).to_pandas()
    days = days.sort_values("d").reset_index(drop=True)
    return pd.DataFrame(
        {
            "day": days["d"].to_numpy().astype("datetime64[us]"),
            "n_new": days["n_new"].astype(np.int64),
            "cum_users": days["n_new"].cumsum().astype(np.int64),
        }
    )


def missing_agg(ds, attr_col: str, group_col: str):
    """ES ``missing`` aggregation (under a terms bucket): per group
    value, how many rows MISS ``attr_col`` (null or empty — the same
    absent-value convention as the exists query). Tiny per-batch
    indicator-sum partials → the coarse-bucket combine; groups with
    zero missing rows are present (count 0), matching the SQL twin's
    FILTER count. → Dataset (group_col, n_missing) sorted by group."""

    def partial(batch: pa.Table) -> pd.DataFrame:
        df = batch.select([group_col, attr_col]).to_pandas()
        s = df[attr_col]
        missing = (s.isna() | (s.fillna("").astype(str) == "")).astype(
            np.int64
        )
        return (
            pd.DataFrame({group_col: df[group_col], "n_missing": missing})
            .groupby(group_col, sort=False)
            .agg(n_missing=("n_missing", "sum"))
            .reset_index()
        )

    out = _bucketed_sum_combine(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        [group_col], size_from=ds,
    )
    return out.sort(group_col)


def scripted_metric(ds, map_script: str, group_col: str = "event_type",
                    params: dict | None = None, reduce: str = "sum"):
    """ES ``scripted_metric`` aggregation: a user script maps each doc
    to a number, per-partition state combines, and a reduce folds the
    partition states — exactly Ray Data's partial/final split, so the
    agg IS the engine's native shape: map_script runs numpy-vectorized
    once per batch (never per doc), each batch emits one (group,
    partial) row, and the coarse-bucket combine is the reduce_script.

    ``map_script`` is the engine's safe arithmetic expression language
    (query.script — the ES-Painless score-shaping subset) evaluated
    over the batch's NUMERIC columns by name plus ``params``.
    ``reduce``: sum | min | max | avg (the combinable folds; avg is
    sum/count computed once at the end, never averaged across
    partials). → Dataset (group_col, value), value trunc6 for SQL
    parity."""
    from excelastic_ray.query.script import compile_score_script

    if reduce not in ("sum", "min", "max", "avg"):
        raise ValueError("reduce must be sum, min, max or avg")
    fn = compile_score_script(map_script)
    params = dict(params or {})

    def partial(batch: pa.Table) -> pd.DataFrame:
        import pyarrow.types as pt

        env = dict(params)
        for name in batch.column_names:
            if name == group_col:
                continue
            f = batch.schema.field(name)
            if pt.is_integer(f.type) or pt.is_floating(f.type):
                env[name] = batch[name].to_numpy().astype(np.float64)
        v = np.asarray(fn(env), dtype=np.float64)
        if v.ndim == 0:  # constant expression broadcasts over the batch
            v = np.full(batch.num_rows, float(v))
        df = pd.DataFrame({group_col: batch[group_col].to_pandas(),
                           "v": v})
        g = df.groupby(group_col, sort=False)["v"]
        out = g.agg(n="size", v_sum="sum", v_min="min", v_max="max")
        return out.reset_index()

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            g.groupby(group_col, sort=False)
            .agg(n=("n", "sum"), v_sum=("v_sum", "sum"),
                 v_min=("v_min", "min"), v_max=("v_max", "max"))
            .reset_index()
        )
        if reduce == "sum":
            val = out["v_sum"].to_numpy()
        elif reduce == "min":
            val = out["v_min"].to_numpy()
        elif reduce == "max":
            val = out["v_max"].to_numpy()
        else:
            val = out["v_sum"].to_numpy() / out["n"].to_numpy()
        return pd.DataFrame({group_col: out[group_col],
                             "value": trunc6(val)})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=65536)
    return combine_by_key(partials, [group_col], combine, size_from=ds,
                          bytes_per_row=16).sort(group_col)
