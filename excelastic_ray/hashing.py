"""Shared hash kernels (FNV-1a) — scalar reference + vectorized batch form.

``fnv1a_bytes`` is the scalar reference implementation (one Python loop
per byte — test/oracle use only). ``fnv1a_rows`` computes the identical
hash for a whole batch of byte strings with a column-wise fold: rows are
sorted by length descending, their bytes concatenated once, and each
fold step is one vectorized gather+xor+multiply over every row still
active at that byte position. Work is O(total bytes) vector ops instead
of O(total bytes) Python iterations — the round-1 per-byte loops were
the slowest code in the repo (VERDICT.md "What's wrong" #1).

FNV-1a is sequential per row by construction (h = (h ^ b) * p), so the
vectorization axis is *rows*, which is exactly the batch shape
map_batches hands us.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

FNV_OFFSET = np.uint64(14695981039346656037)
FNV_PRIME = np.uint64(1099511628211)


def fnv1a_bytes(data: bytes) -> np.uint64:
    """Scalar FNV-1a 64 (reference implementation)."""
    h = FNV_OFFSET
    with np.errstate(over="ignore"):
        for byte in data:
            h = (h ^ np.uint64(byte)) * FNV_PRIME
    return h


def fnv1a_rows(data: list[bytes]) -> np.ndarray:
    """Vectorized FNV-1a 64 per row; identical to ``fnv1a_bytes`` on
    each element. Empty input → empty array; empty rows hash to the
    FNV offset basis (same as the scalar form)."""
    n = len(data)
    out = np.full(n, FNV_OFFSET, dtype=np.uint64)
    if n == 0:
        return out
    lens = np.fromiter((len(d) for d in data), dtype=np.int64, count=n)
    maxlen = int(lens.max())
    if maxlen == 0:
        return out
    # Descending-length order makes the active rows at byte position c a
    # prefix [0:k), so the per-column gather is a slice of `starts`.
    order = np.argsort(-lens, kind="stable")
    slens = lens[order]
    flat = np.frombuffer(b"".join(data[int(i)] for i in order), dtype=np.uint8)
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(slens[:-1], out=starts[1:])
    # active[c] = number of rows with length >= c
    counts = np.bincount(slens, minlength=maxlen + 1)
    active = np.cumsum(counts[::-1])[::-1]
    h = np.full(n, FNV_OFFSET, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for c in range(maxlen):
            k = int(active[c + 1]) if c + 1 <= maxlen else 0
            if k == 0:
                break
            col = flat[starts[:k] + c].astype(np.uint64)
            h[:k] = (h[:k] ^ col) * FNV_PRIME
    out[order] = h
    return out


def fnv1a_int64(vals: np.ndarray) -> np.ndarray:
    """Vectorized FNV-1a 64 over the 8 little-endian bytes of each
    int64 — identical to ``fnv1a_bytes(struct.pack('<q', v))``. The
    SAME eight-step expression exists in DuckDB SQL
    (``fnv64_int_sql`` in __ray_entry__), so integer-keyed sketches
    and deterministic shuffles can have FULL-MATCH oracle twins."""
    u = np.asarray(vals, dtype=np.int64).view(np.uint64)
    h = np.full(len(u), FNV_OFFSET, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for i in range(8):
            b = (u >> np.uint64(8 * i)) & np.uint64(0xFF)
            h = (h ^ b) * FNV_PRIME
    return h


def fnv1a_str_rows(strings) -> np.ndarray:
    """``fnv1a_rows`` over UTF-8 encodings of ``strings`` (None → b"")."""
    return fnv1a_rows([(s or "").encode() if not isinstance(s, bytes) else s
                       for s in strings])


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finalizer (Steele et al., the JDK
    ``SplittableRandom`` mixer): a full-avalanche 64-bit mix used where
    integer keys feed sketches (HLL register selection) — FNV is for
    byte strings; for int64 keys this is one constant-time mix instead
    of an encode + fold."""
    with np.errstate(over="ignore"):
        z = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def bit_length_u64(x: np.ndarray) -> np.ndarray:
    """Vectorized ``int.bit_length`` for uint64 arrays (6 shift/compare
    steps — exact for all 64-bit values, unlike float log2 which
    misrounds near powers of two above 2^53)."""
    v = x.astype(np.uint64).copy()
    bl = np.zeros(len(v), dtype=np.uint64)
    for s in (32, 16, 8, 4, 2, 1):
        m = v >= np.uint64(1 << s)
        bl[m] += np.uint64(s)
        v[m] >>= np.uint64(s)
    return (bl + (v > 0)).astype(np.int64)


def resolve_buckets(ds=None, n_buckets: int | None = None,
                    bytes_per_row: int = 16,
                    target_bytes: int = 256 << 20) -> int:
    """Shuffle-bucket count K for the coarse-bucket combine pattern.

    ``n_buckets`` explicit → returned verbatim. ``None`` → sized to the
    data by the SCALE.md rule: one bucket materializes as one reducer
    frame, so K = max(cluster CPUs, rows × bytes_per_row / 256 MB + 1)
    — one frame per core for a small corpus (every extra bucket is one
    more pandas call per exchange), and ~256 MB frames at scale. The
    row count comes from ``ds._meta_count()`` (metadata only — parquet
    footers or a materialized dataset's block metadata; NEVER executes a
    derived pipeline). When the count is unknown (derived dataset,
    ``ds=None``) the wide ``max(64, 2 × (pool + 2))`` floor applies, so
    an unsized exchange never piles a large input onto a few frames."""
    if n_buckets is not None:
        return n_buckets
    try:
        n = ds._meta_count() if ds is not None else None
    except Exception:
        n = None
    if not n:
        return max(64, 2 * (default_pool() + 2))
    return max(cluster_cpus(), int(n) * bytes_per_row // target_bytes + 1)


def _key_frame(t: pa.Table, key_cols: list[str]) -> pd.DataFrame:
    """``key_cols`` of an Arrow batch as pandas, with integer and bool
    nulls filled: a null would turn the column float/object in one
    block and leave it int/bool in another, and the same key would then
    hash to two buckets."""
    cols = {}
    for c in key_cols:
        a = t[c]
        if a.null_count and (pa.types.is_integer(a.type)
                             or pa.types.is_boolean(a.type)):
            a = pc.fill_null(a, pa.scalar(0).cast(a.type))
        cols[c] = a.to_pandas()
    return pd.DataFrame(cols)


def combine_by_key(partials, key_cols: list[str], combine, *, size_from,
                   bytes_per_row: int, n_buckets: int | None = None):
    """The partial → bucket → combine exchange: hash ``key_cols`` into
    ``__bucket`` (K buckets), group by it, and run ``combine`` on each
    bucket's pandas frame (``__bucket`` dropped). Every row of one key
    lands in one call, so ``combine`` does the fine per-key grouping
    vectorized — a Ray groupby over millions of tiny key groups pays
    per-group machinery instead (the round-1 tiny-group pitfall).

    K comes from :func:`resolve_buckets` over ``size_from`` — the SOURCE
    dataset whose metadata row count ``partials`` derives from (pass
    ``None`` when there is none), with ``bytes_per_row`` the bytes one
    source row puts into a reducer frame. Sizing from the source keeps
    a derived partial stream off the unknown-count floor."""
    k = resolve_buckets(size_from, n_buckets, bytes_per_row=bytes_per_row)

    def add_bucket(b):
        # blocks stay in their native format: partials a pandas UDF
        # returned are pandas blocks, a parquet read's are Arrow
        native = isinstance(b, pd.DataFrame)
        keys = b[key_cols] if native else _key_frame(b, key_cols)
        h = pd.util.hash_pandas_object(keys, index=False).to_numpy()
        bucket = (h % k).astype(np.int64)
        if native:
            return b.assign(__bucket=bucket)
        return b.append_column("__bucket", pa.array(bucket))

    def run(g: pd.DataFrame) -> pd.DataFrame:
        return combine(g.drop(columns="__bucket"))

    return (
        partials.map_batches(add_bucket, batch_format=None, batch_size=None)
        .groupby("__bucket")
        .map_groups(run, batch_format="pandas")
    )


def cluster_cpus() -> int:
    """CPUs of the connected Ray cluster (8 when Ray is not
    initialized)."""
    try:
        import ray

        if ray.is_initialized():
            return int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        pass
    return 8


def default_pool(headroom: int = 2, floor: int = 2) -> int:
    """Actor-pool size for pipeline stages: cluster CPUs minus headroom
    for the read/shuffle task pools (an actor pool that reserves every
    CPU deadlocks the streaming executor — measured in round 1)."""
    return max(floor, cluster_cpus() - headroom)
