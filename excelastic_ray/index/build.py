"""Distributed inverted-index build — the core Ray Data pipeline.

Reimplements the reference's ingest-and-index purpose (parse → validate
whole input → batched index writes with progress accounting,
``/root/reference/src/main/java/com/codingchili/excelastic/model/
ElasticWriter.java`` + ``ExcelParser.java:90-102``) as a streaming Ray
Data pipeline, with the indexing half (delegated to Elasticsearch by the
reference) built natively:

    read_parquet(transcripts)
      → [validation pass] per-batch conv partials → driver combine (small)
      → driver: sorted distinct conv_ids → conv_rank broadcast (ray.put)
      → map_batches(_stamp_batch, plain tasks fused with the read):
            + (docid, chunk) columns
      → groupby(chunk).map_groups(fused tokenize + level-0 segment build
            + docstore slice, atomic writes + per-chunk manifest)
      → one plain task per shard (SegmentMerger._merge_shard), fired as
            soon as the shard's last chunk summary arrives
      → manifest.json (N, avgdl, config, per-chunk lineage/counters)

ONE shuffle moves the raw rows, keyed by docid-range *chunk*, never by
term: stopword-like hot terms (role/tool skew) cannot concentrate on a
reducer because every reducer owns a bounded doc range and builds ALL
terms' postings for it; a hot term's postings are split across all
chunks and re-joined at merge time, docid-disjoint sub-postings in
chunk order, by a windowed vectorized decode + re-encode (the explicit
salting strategy — SURVEY.md §4, config.py docstring). Tokenization
happens INSIDE the chunk group (after the shuffle), so the bytes
shuffled are the raw text — smaller than any exploded token
representation — and the per-chunk segment + docstore slice are
written in the same task (single pass, per-chunk resumable).

Scale notes (10^12 turns):
- Only *distinct conv_ids* are collected to the driver for rank
  assignment (#convs ≈ #turns / avg_turns_per_conv). Beyond driver
  memory, the same rank assignment is a distributed sort of distinct
  conv_ids + block-offset prefix sum; the broadcast then becomes a
  range-partitioned lookup dataset. The per-row docid math is unchanged.
- Every other stage is per-chunk-bounded: no stage ever holds state
  proportional to corpus size.
"""

from __future__ import annotations

import os
import shutil
import time
import uuid
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa

from excelastic_ray.analysis import TOKEN_RE
from excelastic_ray.codecs import (
    decode_postings,
    encode_postings_many,
    varint_decode,
)
from excelastic_ray.config import IndexConfig
from excelastic_ray.index import segments as seg

TRANSCRIPT_COLUMNS = ("conv_id", "turn_idx", "role", "text", "tool", "ts")


class ValidationError(ValueError):
    """Input failed the validate-before-import pass (the analog of the
    reference's whole-file dry-run parse, README.md:15 /
    ColumnsHeadersMismatchException.java:15-18)."""


# ---------------------------------------------------------------------------
# Validation + conversation ranks
# ---------------------------------------------------------------------------


def _conv_partials(batch: pa.Table) -> pd.DataFrame:
    """Per-batch partial aggregates for the validation pass — classic
    partial+final so only one row per (batch, conv) leaves the task."""
    t = batch["turn_idx"].to_numpy().astype(np.int64)
    df = pd.DataFrame(
        {"conv_id": batch["conv_id"].to_pandas(), "t": t, "sq": t * t}
    )
    if df["conv_id"].isna().any():
        raise ValidationError("null conv_id")
    g = df.groupby("conv_id", sort=False)
    out = g.agg(cnt=("t", "count"), mn=("t", "min"), mx=("t", "max"),
                sm=("t", "sum"), sq=("sq", "sum"))
    return out.reset_index()


def conversation_table(ds, config: IndexConfig,
                       strict: bool = True, return_counts: bool = False):
    """Validate the corpus and return the sorted distinct conv_id array
    (row position == conv_rank); with ``return_counts`` also the
    per-conversation row counts in the same order (the ranged
    no-shuffle chunk phase derives its row offsets from them).

    Validation semantics (per conversation): turn_idx must be exactly
    {0..n-1} with no duplicates and n ≤ 2**turn_bits. Checked with
    count/min/max/sum/sum-of-squares moments here (exact for min=0 +
    contiguity in all non-adversarial cases) and *exactly* re-checked by
    the per-chunk duplicate-docid guard in the segment builder.
    """
    partials = ds.select_columns(["conv_id", "turn_idx"]).map_batches(
        _conv_partials, batch_format="pyarrow", batch_size=65536
    )
    # Final combine on the driver: the partial stream has one row per
    # (batch, conv) — far smaller than the corpus — and a pandas C
    # groupby beats a distributed string-keyed aggregate by orders of
    # magnitude at this cardinality. (At 10^12-turn scale, where the
    # conv census outgrows the driver, this final combine becomes a
    # groupby over the partials dataset + a distributed rank sort; the
    # per-row docid math downstream is unchanged.)
    pdf = partials.to_pandas()
    if len(pdf) == 0:
        empty = np.zeros(0, dtype=object)
        return (empty, np.zeros(0, dtype=np.int64)) if return_counts else empty
    stats = (
        pdf
        .groupby("conv_id", sort=False)
        .agg(
            cnt=("cnt", "sum"),
            mn=("mn", "min"),
            mx=("mx", "max"),
            sm=("sm", "sum"),
            sq=("sq", "sum"),
        )
        .reset_index()
    )
    _validate_moments(
        stats["cnt"].to_numpy(), stats["mn"].to_numpy(),
        stats["mx"].to_numpy(), stats["sm"].to_numpy(),
        stats["sq"].to_numpy(), config.max_turns,
        stats["conv_id"].to_numpy(), strict=strict,
    )
    ids = stats["conv_id"].to_numpy().astype(object)
    order = np.argsort(ids)
    if return_counts:
        return ids[order], stats["cnt"].to_numpy().astype(np.int64)[order]
    return ids[order]


def _validate_moments(cnt, mn, mx, sm, sq, max_turns, sample_ids,
                      strict: bool = True) -> None:
    """Shared turn-sequence validity check over moment arrays: each
    conversation's turn_idx must be exactly {0..n-1} (min=0, max=n-1,
    sum and sum-of-squares match — exact for non-adversarial inputs and
    exactly re-checked by the per-chunk duplicate-docid guard).

    ``strict=False`` (the reindex-from-tombstoned-docstore mode) keeps
    only the structural bounds — 0 ≤ turn_idx < max_turns — since
    deletions punch holes in the 0..n-1 sequence; uniqueness is still
    exactly enforced by the chunk builder's duplicate-docid guard."""
    n = cnt.astype(np.int64)
    if not strict:
        if len(mn) and (int(mn.min()) < 0 or int(mx.max()) > max_turns - 1):
            bad0 = (mn < 0) | (mx > max_turns - 1)
            culprit = sample_ids[int(np.flatnonzero(bad0)[0])]
            raise ValidationError(
                f"conversation {culprit!r}: turn_idx outside "
                f"[0, {max_turns - 1}] (raise IndexConfig.turn_bits)"
            )
        return
    exp_sm = n * (n - 1) // 2
    exp_sq = (n - 1) * n * (2 * n - 1) // 6
    bad = (mn != 0) | (mx != n - 1) | (sm != exp_sm) | (sq != exp_sq)
    if bad.any():
        culprit = sample_ids[int(np.flatnonzero(bad)[0])]
        raise ValidationError(
            f"conversation {culprit!r}: turn_idx is not a duplicate-free "
            f"0..n-1 sequence"
        )
    if (n > max_turns).any():
        raise ValidationError(
            f"a conversation exceeds max_turns={max_turns} "
            f"(raise IndexConfig.turn_bits)"
        )


def distributed_conversation_ranks(ds, config: IndexConfig,
                                   index_dir: str,
                                   strict: bool = True) -> int:
    """Beyond-driver-budget rank assignment: the driver NEVER holds the
    conversation table. Returns n_convs; writes ``convs.parquet`` as a
    DIRECTORY of (rank, conv_id) files.

    Shape: per-batch conv partials → distributed groupby(conv_id)
    moment aggregate → per-batch validation → distributed sort by
    conv_id → one parquet file per sorted block. Ranks are then
    file-offset + row-offset: sorted blocks hold DISJOINT conv_id
    ranges (ids are distinct post-groupby), so ordering files by their
    first conv_id and exclusive-scanning their row counts reproduces
    exactly the broadcast path's sorted-position ranks. The driver
    touches only per-file footers (count + first id) — O(files).
    """
    import shutil

    import pyarrow.parquet as pq
    import ray
    from ray.data.aggregate import Max, Min, Sum

    partials = ds.select_columns(["conv_id", "turn_idx"]).map_batches(
        _conv_partials, batch_format="pyarrow", batch_size=65536
    )
    stats = partials.groupby("conv_id").aggregate(
        Sum("cnt", alias_name="cnt"),
        Min("mn", alias_name="mn"),
        Max("mx", alias_name="mx"),
        Sum("sm", alias_name="sm"),
        Sum("sq", alias_name="sq"),
    )

    def validate(batch: pa.Table) -> pa.Table:
        ids = batch["conv_id"].to_numpy(zero_copy_only=False).astype(object)
        _validate_moments(
            batch["cnt"].to_numpy(), batch["mn"].to_numpy(),
            batch["mx"].to_numpy(), batch["sm"].to_numpy(),
            batch["sq"].to_numpy(), config.max_turns, ids,
            strict=strict,
        )
        # cnt rides along: the ranged (no-shuffle) chunk phase derives
        # per-chunk row offsets from the census counts
        return pa.table(
            {
                "conv_id": pa.array(ids, type=pa.string()),
                "cnt": batch["cnt"].cast(pa.int64()),
            }
        )

    ranked = stats.map_batches(validate, batch_format="pyarrow").sort("conv_id")

    convs_dir = os.path.join(index_dir, "convs.parquet")
    if os.path.exists(convs_dir):
        (shutil.rmtree if os.path.isdir(convs_dir) else os.remove)(convs_dir)
    tmp_dir = convs_dir + ".tmp"
    shutil.rmtree(tmp_dir, ignore_errors=True)
    try:
        ranked.write_parquet(tmp_dir)
    except Exception as e:  # unwrap ValidationError from Ray's task error
        cause = e
        while cause is not None:
            if isinstance(cause, ValidationError):
                raise ValidationError(str(cause)) from e
            msg = str(cause)
            if "ValidationError" in msg and "turn_idx" in msg:
                raise ValidationError(msg.split("ValidationError:")[-1].strip()) from e
            cause = cause.__cause__
        raise

    os.makedirs(tmp_dir, exist_ok=True)  # empty corpus writes no files
    # order files by their first conv_id (ranges are disjoint) and
    # rewrite each with its explicit rank range — distributed, one task
    # per file; the driver sees only (path, count, first_id) triples
    files = []
    for name in sorted(os.listdir(tmp_dir)):
        if not name.endswith(".parquet"):
            continue
        path = os.path.join(tmp_dir, name)
        f = pq.ParquetFile(path)
        if f.metadata.num_rows == 0:
            continue
        first = next(f.iter_batches(batch_size=1, columns=["conv_id"]))
        files.append((str(first["conv_id"][0]), path, f.metadata.num_rows))
    files.sort()

    @ray.remote
    def stamp_ranks(path: str, out_path: str, base: int) -> int:
        t = pq.read_table(path)
        cols = {
            "rank": pa.array(base + np.arange(t.num_rows, dtype=np.int64)),
            "conv_id": t["conv_id"],
        }
        if "cnt" in t.column_names:
            cols["cnt"] = t["cnt"]
        pq.write_table(pa.table(cols), out_path, compression="zstd")
        return t.num_rows

    os.makedirs(convs_dir, exist_ok=True)
    base = 0
    tasks = []
    for i, (_, path, n) in enumerate(files):
        out_path = os.path.join(convs_dir, f"part-{i:06d}.parquet")
        tasks.append(stamp_ranks.remote(path, out_path, base))
        base += n
    ray.get(tasks)
    if not files:  # degenerate empty corpus: keep convs.parquet readable
        pq.write_table(
            pa.table(
                {
                    "rank": pa.array([], type=pa.int64()),
                    "conv_id": pa.array([], type=pa.string()),
                }
            ),
            os.path.join(convs_dir, "part-000000.parquet"),
        )
    shutil.rmtree(tmp_dir)
    return base


def _chunk_phase_joined(
    ds,
    schema: pa.Schema,
    config: IndexConfig,
    index_dir: str,
    skip: list[int],
    cpus: int,
    store_cols: list[str],
    rank_offset: int = 0,
    n_rows: int | None = None,
):
    """Stamping via a bucket-partitioned join against the rank files
    → LAZY Dataset of per-chunk summary rows (like :func:`_chunk_phase`).
    (the distributed-ranks sibling of :func:`_chunk_phase`): transcript
    rows and (rank, conv_id) rows are both keyed by a conv_id hash
    bucket, a pandas merge inside each bucket attaches the rank, and the
    stamped rows flow into the same groupby(chunk) fused builder. Two
    exchanges instead of one — the cost of never broadcasting the
    conversation table."""
    import ray.data as rd

    from excelastic_ray.hashing import fnv1a_str_rows

    # one bucket == one reducer frame: scale the join width with the
    # corpus (~200 B/row of carried text) so a bucket stays ~256 MB
    n_buckets = max(64, 2 * cpus,
                    (n_rows or 0) * 200 // (256 << 20) + 1)
    schema_names = set(schema.names)
    col_types = dict(zip(schema.names, schema.types))  # pyarrow types
    carry_cols = sorted(
        {"conv_id", "turn_idx", *config.index_fields,
         *config.field_index_fields, *store_cols}
        | {a for a in config.attr_fields if a in schema_names}
    )
    cfg_dict = config.to_dict()
    skip_arr = sorted(skip)

    def key_rows(b: pa.Table) -> pa.Table:
        b = b.select(carry_cols)
        bucket = fnv1a_str_rows(b["conv_id"].to_pylist()) % np.uint64(n_buckets)
        return b.append_column(
            "bucket", pa.array(bucket.astype(np.int64))
        ).append_column(
            "rank", pa.array(np.full(b.num_rows, -1, dtype=np.int64))
        )

    def key_ranks(b: pa.Table) -> pa.Table:
        bucket = fnv1a_str_rows(b["conv_id"].to_pylist()) % np.uint64(n_buckets)
        cols = {}
        for c in carry_cols:
            if c == "conv_id":
                cols[c] = b["conv_id"]
            else:
                cols[c] = pa.nulls(b.num_rows, col_types[c])
        t = pa.table(cols)
        return t.append_column(
            "bucket", pa.array(bucket.astype(np.int64))
        ).append_column("rank", b["rank"])

    ranks_ds = rd.read_parquet(os.path.join(index_dir, "convs.parquet"))
    keyed_rows = ds.map_batches(
        key_rows, batch_format="pyarrow", batch_size=config.batch_size
    )
    keyed_ranks = ranks_ds.map_batches(key_ranks, batch_format="pyarrow")

    def attach(g: pd.DataFrame) -> pd.DataFrame:
        cfg = IndexConfig.from_dict(cfg_dict)
        ranks = g[g["rank"] >= 0][["conv_id", "rank"]]
        rows = g[g["rank"] < 0].drop(columns=["rank", "bucket"])
        out = rows.merge(ranks, on="conv_id", how="left")
        if out["rank"].isna().any():
            raise ValidationError("conv_id not seen in validation pass")
        rank = out["rank"].to_numpy().astype(np.int64) + rank_offset
        turn = out["turn_idx"].to_numpy().astype(np.int64)
        out = out.drop(columns=["rank"])
        out["docid"] = (rank << cfg.turn_bits) | turn
        out["chunk"] = rank >> cfg.convs_per_chunk_bits
        if skip_arr:
            out = out[~out["chunk"].isin(skip_arr)]
        return out

    stamped = (
        keyed_rows.union(keyed_ranks)
        .groupby("bucket")
        .map_groups(attach, batch_format="pandas")
    )
    return stamped.groupby("chunk").map_groups(
        make_chunk_builder(index_dir, config.to_dict(), store_cols),
        batch_format="pandas",
    )  # LAZY: callers stream it (overlapped merge) or to_pandas()


# ---------------------------------------------------------------------------
# Docid stamping (plain map_batches tasks: one rank lookup per worker)
# ---------------------------------------------------------------------------


class StampChunk:
    """Append (docid, chunk) to raw transcript rows. __init__ builds
    the conv-rank hash index; per batch it's one vectorized lookup +
    shift math. With ``skip_chunks`` (resume), rows of completed chunks
    are dropped here, BEFORE the shuffle, so finished partitions cost
    nothing on a resumed build.

    ``conv_path`` is a (rank, conv_id) parquet path, or the sorted
    conv_ids themselves (any array-like; row position == rank). The
    build calls it through :func:`_stamp_batch`, which keeps one
    instance per worker process."""

    def __init__(self, conv_path, config_dict: dict, skip_chunks=(),
                 rank_offset: int = 0):
        import pyarrow.parquet as pq

        if isinstance(conv_path, str):
            t = pq.read_table(conv_path)
            ids = t["conv_id"].to_numpy(zero_copy_only=False).astype(object)
            ranks = (
                t["rank"].to_numpy()
                if "rank" in t.column_names
                else np.arange(len(ids), dtype=np.int64)
            )
        else:  # in-memory ids: row position == rank
            ids = np.asarray(conv_path, dtype=object)
            ranks = np.arange(len(ids), dtype=np.int64)
        self.index = pd.Index(ids)
        self.ranks = ranks.astype(np.int64)
        self.cfg = IndexConfig.from_dict(config_dict)
        self.skip = np.asarray(sorted(skip_chunks), dtype=np.int64)
        self.rank_offset = int(rank_offset)

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        pos = self.index.get_indexer(batch["conv_id"].to_pandas().to_numpy(object))
        if (pos < 0).any():
            raise ValidationError("conv_id not seen in validation pass")
        ranks = self.ranks[pos] + self.rank_offset
        turn = batch["turn_idx"].to_numpy().astype(np.int64)
        docids = (ranks.astype(np.int64) << cfg.turn_bits) | turn
        chunks = ranks.astype(np.int64) >> cfg.convs_per_chunk_bits
        if len(self.skip):
            keep = ~np.isin(chunks, self.skip)
            if not keep.all():
                batch = batch.filter(pa.array(keep))
                docids, chunks = docids[keep], chunks[keep]
        # Dictionary-encode the low-cardinality string columns so the
        # chunk exchange ships indices + a small dictionary per block
        # instead of repeated strings (conv_id repeats ~turns-per-conv
        # times; role/tool are near-constant). The chunk builder decodes
        # after the shuffle.
        import pyarrow.compute as pc

        for name in ("conv_id", "role", "tool"):
            i = batch.schema.get_field_index(name)
            if i < 0:
                continue
            ftype = batch.schema.field(i).type
            if pa.types.is_null(ftype):
                # an all-null column arrives typed `null` (e.g. a
                # docstore written before types were made explicit):
                # cast to string so downstream schema unification and
                # the categorical decode never see a null category
                batch = batch.set_column(
                    i, name, batch[name].cast(pa.string())
                )
                ftype = pa.string()
            if not pa.types.is_dictionary(ftype):
                batch = batch.set_column(
                    i, name, pc.dictionary_encode(batch[name].combine_chunks())
                )
        return batch.append_column(
            "docid", pa.array(docids, type=pa.int64())
        ).append_column("chunk", pa.array(chunks, type=pa.int64()))


# DocidStamper is the docstore/verification alias of StampChunk minus the
# chunk column; kept for external tooling.
class DocidStamper(StampChunk):
    def __call__(self, batch: pa.Table) -> pa.Table:  # noqa: D102
        out = StampChunk.__call__(self, batch)
        return out.drop_columns(["chunk"])


#: this worker process's stampers, keyed by the id of the ObjectRef that
#: holds their conv table. Each build puts its own table, and a ref id
#: is never reused, so an entry cannot serve another build's ranks.
#: Two entries cover two concurrent builds.
_STAMPERS: dict[str, StampChunk] = {}


def _stamp_batch(batch: pa.Table, convs_ref, config_dict: dict, skip,
                 rank_offset: int) -> pa.Table:
    """map_batches function of the shuffle chunk phase: stamps with the
    worker's cached :class:`StampChunk`, whose hash index over the conv
    table is built on the worker's first batch of the build only."""
    key = convs_ref.hex()
    stamper = _STAMPERS.get(key)
    if stamper is None:
        import ray

        if len(_STAMPERS) >= 2:
            _STAMPERS.pop(next(iter(_STAMPERS)))
        stamper = _STAMPERS[key] = StampChunk(
            ray.get(convs_ref), config_dict, skip, rank_offset
        )
    return stamper(batch)


# ---------------------------------------------------------------------------
# Fused per-chunk build: tokenize + postings + docstore slice
# ---------------------------------------------------------------------------


def _posting_columns(toks: list[list[str]], cfg: IndexConfig):
    """Posting columns for ONE token stream over a chunk's docs (ordinal
    = row position): term-sorted (uniq, df, n_blocks, postings, blockmax,
    positions) plus the per-doc length array and its total. The hot path
    of the build — factorize + lexsort + run-length, no Python loop over
    tokens."""
    n_docs = len(toks)
    dl_arr = np.fromiter((len(t) for t in toks), dtype=np.int64, count=n_docs)
    total_dl = int(dl_arr.sum())

    flat = [w for row in toks for w in row]
    if flat:
        codes, uniq = pd.factorize(np.asarray(flat, dtype=object), sort=True)
        rep_ord = np.repeat(np.arange(n_docs, dtype=np.int64), dl_arr)
        order = np.lexsort((rep_ord, codes))
        c_s, o_s = codes[order], rep_ord[order]
        new_grp = np.empty(len(c_s), dtype=bool)
        new_grp[0] = True
        new_grp[1:] = (c_s[1:] != c_s[:-1]) | (o_s[1:] != o_s[:-1])
        starts = np.flatnonzero(new_grp)
        p_ord = o_s[starts]
        p_tf = np.diff(np.append(starts, len(c_s)))
        p_dl = dl_arr[p_ord]
        n_postings = len(p_ord)
        t_new = np.empty(n_postings, dtype=bool)
        t_new[0] = True
        t_new[1:] = c_s[starts[1:]] != c_s[starts[:-1]]
        bounds = np.append(np.flatnonzero(t_new), n_postings)
    else:
        uniq = np.zeros(0, dtype=object)
        bounds = np.array([0])
        n_postings = 0

    if n_postings:
        rows_post, rows_bm, rows_nb = encode_postings_many(
            bounds, p_ord, p_tf, p_dl, cfg.codec, cfg.block_size
        )
        rows_df = np.diff(bounds)
    else:
        rows_post, rows_bm, rows_nb = [], [], []
        rows_df = np.zeros(0, dtype=np.int64)

    if cfg.store_positions and n_postings:
        # token position within its doc, in the SAME (term, doc)
        # sorted order as the postings (lexsort is stable →
        # positions ascend within each posting); delta-encode per
        # posting and slice the one varint stream per TERM
        from excelastic_ray.codecs import varint_encode

        tot = len(c_s)
        row_starts = np.cumsum(dl_arr) - dl_arr
        pos_flat = np.arange(tot, dtype=np.int64) - np.repeat(
            row_starts, dl_arr
        )
        pos_s = pos_flat[order]
        deltas = np.empty(tot, dtype=np.uint64)
        np.subtract(pos_s[1:], pos_s[:-1], out=deltas[1:], casting="unsafe")
        deltas[starts] = pos_s[starts].astype(np.uint64)
        p_buf, p_starts = varint_encode(deltas)
        p_starts = np.append(p_starts, len(p_buf))
        term_tok = np.append(starts[bounds[:-1]], tot)
        rows_pos = [
            p_buf[p_starts[term_tok[i]] : p_starts[term_tok[i + 1]]]
            for i in range(len(uniq))
        ]
    else:
        rows_pos = [b""] * len(uniq)

    return (
        np.asarray(uniq, dtype=object), rows_df, list(rows_nb),
        list(rows_post), list(rows_bm), rows_pos, dl_arr, total_dl,
        int(n_postings),
    )


def make_chunk_builder(index_dir: str, config_dict: dict, store_cols: list[str]):
    """Group fn for groupby('chunk').map_groups: tokenizes the chunk's
    rows, builds + atomically writes its level-0 segment (postings +
    doc table + optional docstore slice), returns a counters row."""
    cfg = IndexConfig.from_dict(config_dict)

    def build_chunk(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame()
        # decode the shuffle's dictionary-encoded columns (arrive as
        # pandas Categorical) back to plain objects
        for c in g.columns:
            if isinstance(g[c].dtype, pd.CategoricalDtype):
                col = g[c].astype(object)
                g[c] = col.where(col.notna(), None)  # NaN → None for Arrow
        chunk = int(g["chunk"].iloc[0])
        g = g.sort_values("docid", kind="mergesort")
        doc_arr = g["docid"].to_numpy()
        if len(doc_arr) > 1 and (doc_arr[1:] == doc_arr[:-1]).any():
            raise ValidationError(
                f"duplicate (conv_id, turn_idx) detected in chunk {chunk}"
            )
        n_docs = len(doc_arr)

        # ---- tokenize (C-level findall; loop is rows-of-one-chunk) ----
        # cfg.analyzer applies to the CATCH-ALL stream only (per-field
        # streams below are ES-keyword-style, never analyzed);
        # tokenize_many memoizes stems per chunk so the english chain
        # costs one stem per distinct token, not per occurrence
        findall = TOKEN_RE.findall
        if len(cfg.index_fields) == 1:
            texts = g[cfg.index_fields[0]].tolist()
        else:
            cols = [g[f].tolist() for f in cfg.index_fields]
            texts = [" ".join(v for v in vals if v) for vals in zip(*cols)]
        if cfg.analyzer == "standard":
            toks = [findall(t.lower()) if t else [] for t in texts]
        else:
            from excelastic_ray.analysis import tokenize_many

            toks = tokenize_many(texts, cfg.analyzer)
        (uniq, rows_df, rows_nb, rows_post, rows_bm, rows_pos,
         dl_arr, total_dl, n_postings) = _posting_columns(toks, cfg)

        # ---- per-field streams (ES dynamic-mapping analog) ----------
        # each configured field is tokenized on its own, keyed
        # field_key(field, term) in the SAME dictionary, with its own
        # per-doc length column + length total (per-field BM25 stats)
        field_dl_arrs: dict[str, np.ndarray] = {}
        field_dl_totals: dict[str, int] = {}
        if cfg.field_index_fields or cfg.index_shingles >= 2:
            from excelastic_ray.analysis import field_key

            parts_t = [uniq]
            parts_df = [rows_df]
            parts_nb, parts_post = [rows_nb], [rows_post]
            parts_bm, parts_pos = [rows_bm], [rows_pos]
            def tok_cell(v):
                # strings tokenize; None/''/NaN are EMPTY (matching the
                # SQL twin's regexp_extract_all(lower(NULL)) → no
                # tokens); other scalars (ints etc.) tokenize via str()
                if isinstance(v, str):
                    return findall(v.lower()) if v else []
                if v is None or (isinstance(v, float) and v != v):
                    return []
                return findall(str(v).lower())

            # extra streams: per-column keyword streams + the word
            # n-gram (shingle) streams derived from the MAIN analyzed
            # tokens (ES search_as_you_type ._2gram/._3gram subfields)
            streams: list[tuple[str, list[list[str]]]] = [
                (f, [tok_cell(v) for v in (
                    g[f].tolist() if f in g.columns else [None] * n_docs
                )])
                for f in cfg.field_index_fields
            ]
            for n, sname in zip(range(2, cfg.index_shingles + 1),
                                cfg.shingle_streams):
                streams.append((sname, [
                    [" ".join(r[i:i + n]) for i in range(len(r) - n + 1)]
                    for r in toks
                ]))

            for f, ftoks in streams:
                (fu, fdf, fnb, fpost, fbm, fpos, fdl, ftot,
                 fnp) = _posting_columns(ftoks, cfg)
                parts_t.append(
                    np.asarray([field_key(f, t) for t in fu], dtype=object)
                )
                parts_df.append(fdf)
                parts_nb.append(fnb)
                parts_post.append(fpost)
                parts_bm.append(fbm)
                parts_pos.append(fpos)
                field_dl_arrs[f] = fdl
                field_dl_totals[f] = ftot
                n_postings += fnp
            terms_all = np.concatenate(parts_t) if parts_t else uniq
            # one chunk-dictionary sort: field-prefixed regions splice
            # into the term order the merge cursors require
            order_t = np.argsort(terms_all, kind="mergesort")
            uniq = terms_all[order_t]
            rows_df = np.concatenate(parts_df)[order_t]
            cat = lambda ps: np.asarray(  # noqa: E731
                [x for p in ps for x in p], dtype=object
            )[order_t].tolist()
            rows_nb = cat(parts_nb)
            rows_post = cat(parts_post)
            rows_bm = cat(parts_bm)
            rows_pos = cat(parts_pos)

        table = pa.table(
            {
                "term": pa.array(uniq, type=pa.string()),
                "df": pa.array(rows_df, type=pa.int64()),
                "n_blocks": pa.array(rows_nb, type=pa.int32()),
                "postings": pa.array(rows_post, type=pa.large_binary()),
                "blockmax": pa.array(rows_bm, type=pa.large_binary()),
                "positions": pa.array(rows_pos, type=pa.large_binary()),
            }
        )
        d = seg.chunk_dir(index_dir, chunk)
        nbytes = seg.atomic_write_parquet(os.path.join(d, "postings.parquet"), table)
        doc_cols = {
            "docid": pa.array(doc_arr, type=pa.int64()),
            "dl": pa.array(dl_arr, type=pa.int64()),
        }
        # per-field doc lengths ("dl@<field>"): the BM25 length norm of
        # each field's own stream
        for f, arr in field_dl_arrs.items():
            doc_cols[f"dl@{f}"] = pa.array(arr, type=pa.int64())
        for attr in cfg.attr_fields:
            if attr in g.columns:
                # filterable doc attribute (ES filter-context analog);
                # datetime columns keep their type (range filters +
                # date_histogram), everything else stores as string
                col = g[attr]
                if np.issubdtype(col.dtype, np.datetime64):
                    doc_cols[attr] = pa.array(
                        col.to_numpy().astype("datetime64[us]")
                    )
                else:
                    doc_cols[attr] = pa.array(
                        col.to_numpy(object), type=pa.string()
                    )
        nbytes += seg.atomic_write_parquet(
            os.path.join(d, "docs.parquet"), pa.table(doc_cols)
        )
        if store_cols:
            # docstore slice (ES `_source` analog), docid-ordered.
            # Types are made EXPLICIT: pandas infers an all-null object
            # column as Arrow `null`, which (a) breaks docstore schema
            # unification across chunks and (b) dictionary-encodes into
            # a null category on reindex (pandas refuses null
            # categories) — force string for non-numeric columns.
            s_cols = {"docid": pa.array(doc_arr, type=pa.int64())}
            for c in store_cols:
                col = g[c]
                if np.issubdtype(col.dtype, np.datetime64):
                    s_cols[c] = pa.array(
                        col.to_numpy().astype("datetime64[us]")
                    )
                elif np.issubdtype(col.dtype, np.number):
                    s_cols[c] = pa.array(col.to_numpy())
                else:
                    s_cols[c] = pa.array(
                        col.to_numpy(object), type=pa.string()
                    )
            nbytes += seg.atomic_write_parquet(
                os.path.join(d, "store.parquet"), pa.table(s_cols),
                # small docid-ordered row groups: point fetches
                # (fetch_docs) prune to the row groups that hold the
                # requested ids instead of decoding the whole slice
                row_group_size=1024,
            )
        manifest = {
            "chunk": chunk,
            "n_docs": n_docs,
            "total_dl": total_dl,
            "field_dl": {f: int(v) for f, v in field_dl_totals.items()},
            "n_terms": len(uniq),
            "n_postings": int(n_postings),
            "bytes_compressed": int(nbytes),
            "lineage": {
                "conv_rank_start": chunk << cfg.convs_per_chunk_bits,
                "conv_rank_end": (chunk + 1) << cfg.convs_per_chunk_bits,
            },
        }
        seg.write_done(d, manifest)
        return pd.DataFrame(
            [
                {
                    "chunk": chunk,
                    "n_docs": n_docs,
                    "total_dl": total_dl,
                    "n_terms": len(uniq),
                    "n_postings": int(n_postings),
                    "bytes_compressed": int(nbytes),
                }
            ]
        )

    return build_chunk


# ---------------------------------------------------------------------------
# Segment merge — level-0 chunks → queryable shards
# ---------------------------------------------------------------------------


def _binary_buffers(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(offsets [n+1], value bytes) of a large_binary array, zero-copy."""
    _, offs, vals = arr.buffers()
    offsets = np.frombuffer(offs, dtype=np.int64)[
        arr.offset : arr.offset + len(arr) + 1
    ]
    values = (
        np.frombuffer(vals, dtype=np.uint8) if vals is not None
        else np.zeros(0, dtype=np.uint8)
    )
    return offsets, values


def _grouped_arange(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The ranges [starts[i], starts[i] + lens[i]), back to back."""
    excl = np.cumsum(lens) - lens
    return np.arange(int(lens.sum()), dtype=np.int64) + np.repeat(
        starts - excl, lens
    )


def _decode_many(post: pa.Array, codec: str, block_size: int):
    """Decode every posting list of a large_binary column → (ids, tfs,
    postings per list), the lists back to back. varint gathers all doc
    delta streams into one ``varint_decode`` and all tf streams into
    another; blockpack/pfor streams are framed per block and decode per
    list."""
    if codec != "varint":
        lists = [decode_postings(p, codec, block_size) for p in post.to_pylist()]
        n = np.fromiter((len(i) for i, _ in lists), dtype=np.int64,
                        count=len(lists))
        return (np.concatenate([i for i, _ in lists]),
                np.concatenate([t for _, t in lists]).astype(np.int64), n)
    offs, data = _binary_buffers(post)
    # per list: [u32 n][u32 len_d][doc delta varints][tf varints]
    head = data[offs[:-1, None] + np.arange(8)].view("<u4")
    n = head[:, 0].astype(np.int64)
    d0 = offs[:-1] + 8
    t0 = d0 + head[:, 1].astype(np.int64)
    deltas = varint_decode(data[_grouped_arange(d0, t0 - d0)])
    tfs = varint_decode(data[_grouped_arange(t0, offs[1:] - t0)])
    if len(deltas) != n.sum() or len(tfs) != n.sum():
        raise ValueError("corrupt posting list: stream length mismatch")
    run = np.cumsum(deltas.astype(np.int64))
    first = np.cumsum(n) - n
    ids = run - np.repeat(np.concatenate(([0], run))[first], n)
    return ids, tfs.astype(np.int64), n


def _term_windows(paths: list[str], batch_rows: int):
    """Windows over term-sorted chunk files for the shard merge. One
    record batch per file is buffered; a window takes, from every
    buffer, the rows whose term is ≤ the smallest last buffered term.
    Later rows of every file sort after that term, so each term in a
    window is complete, and memory stays one batch per file.
    → lists of (file ordinal, batch slice, its terms), in file order."""
    import pyarrow.parquet as pq

    def fill(j, it):
        for b in it:
            if b.num_rows:
                terms = b.column("term").to_numpy(zero_copy_only=False)
                return [j, it, b, terms, 0]
        return None

    live = [fill(j, pq.ParquetFile(p).iter_batches(batch_size=batch_rows))
            for j, p in enumerate(paths)]
    live = [c for c in live if c is not None]
    while live:
        bound = min(c[3][-1] for c in live)
        window = []
        for c in live:
            j, _, b, terms, start = c
            stop = int(np.searchsorted(terms, bound, side="right"))
            if stop > start:
                window.append((j, b.slice(start, stop - start),
                               terms[start:stop]))
            c[4] = stop
        yield window
        live = [c if c[4] < len(c[3]) else fill(c[0], c[1]) for c in live]
        live = [c for c in live if c is not None]


class _RowGroupWriter:
    """Writes merged term rows to a parquet file. A row group ends at
    the first term at which the buffered rows reach ``flush_bytes``
    posting bytes or ``flush_terms`` terms, so the file is the same
    whatever sizes the merge windows come in."""

    def __init__(self, path: str, flush_bytes: int, flush_terms: int):
        import pyarrow.parquet as pq

        self._writer = pq.ParquetWriter(path, seg.SEGMENT_SCHEMA,
                                        compression="zstd")
        self.flush_bytes, self.flush_terms = flush_bytes, flush_terms
        self._parts: list[pa.Table] = []
        self._bytes = self._terms = 0

    def add(self, table: pa.Table, sizes: np.ndarray) -> None:
        i, n = 0, table.num_rows
        while i < n:
            reach = self._bytes + np.cumsum(sizes[i:])
            k = min(int(np.searchsorted(reach, self.flush_bytes)),
                    self.flush_terms - self._terms - 1)
            if k >= n - i:
                self._parts.append(table.slice(i))
                self._bytes, self._terms = int(reach[-1]), self._terms + n - i
                return
            self._parts.append(table.slice(i, k + 1))
            self.flush()
            i += k + 1

    def flush(self) -> None:
        if self._parts:
            self._writer.write_table(
                pa.concat_tables(self._parts).combine_chunks()
            )
        self._parts, self._bytes, self._terms = [], 0, 0

    def close(self) -> None:
        self.flush()
        self._writer.close()


class SegmentMerger:
    """Merges level-0 chunk segments into one queryable shard; the build
    runs one plain ``_merge_remote`` task per shard. A term's
    sub-postings live in docid-disjoint chunks, ascending with the chunk
    order, so a merged list is the chunks' lists in chunk order, each
    shifted by its chunk's ordinal offset in the shard.

    The merge is vectorized per WINDOW (:func:`_term_windows`): every
    term of a window is decoded in one pass (:func:`_decode_many`),
    shifted, stable-sorted by (term, chunk) and re-encoded with one
    ``encode_postings_many``, so merged lists get regular
    ``block_size`` blocks. Output rows stream to an atomic
    ParquetWriter. Peak memory = one record batch per chunk + one
    window's decoded postings + the unflushed output buffer — bounded
    regardless of shard size."""

    #: flush the output buffer at this many buffered posting bytes
    FLUSH_BYTES = 32 << 20
    FLUSH_TERMS = 8192
    #: rows read from each chunk file per merge window
    WINDOW_ROWS = 4096

    def __init__(self, index_dir: str, config_dict: dict,
                 flush_bytes: int | None = None,
                 flush_terms: int | None = None):
        self.index_dir = index_dir
        self.cfg = IndexConfig.from_dict(config_dict)
        self.flush_bytes = flush_bytes or self.FLUSH_BYTES
        self.flush_terms = flush_terms or self.FLUSH_TERMS

    def _merge_window(self, window, offsets: np.ndarray, dl_all: np.ndarray,
                      dl_source, n_docs: int):
        """One window's merged rows → (SEGMENT_SCHEMA table, bytes per
        term as the flush counts them)."""
        cfg = self.cfg
        terms = np.concatenate([t for _, _, t in window])
        chunk_of = np.concatenate(
            [np.full(len(t), j, dtype=np.int64) for j, _, t in window]
        )
        # the parts arrive in chunk order: a stable sort is (term, chunk)
        order = np.argsort(terms, kind="stable")
        terms = terms[order]

        def column(name: str) -> pa.Array:
            return pa.concat_arrays([
                b.column(name) if name in b.schema.names
                else pa.array([b""] * b.num_rows, type=pa.large_binary())
                for _, b, _ in window
            ]).take(order)

        n_rows = len(terms)
        starts = np.flatnonzero(
            np.concatenate(([True], terms[1:] != terms[:-1]))
        )
        ends = np.append(starts, n_rows)
        uniq = terms[starts]
        df = np.add.reduceat(column("df").to_numpy(), starts)

        ids, tfs, n = _decode_many(column("postings"), cfg.codec,
                                   cfg.block_size)
        ids += np.repeat(offsets[chunk_of[order]], n)
        bounds = np.concatenate(([0], np.cumsum(n)))[ends]
        # block-max min_dl: a field-qualified term uses its field's
        # lengths (dl_all stacks the shard's dl arrays, n_docs apart)
        src = np.fromiter(map(dl_source, uniq), dtype=np.int64,
                          count=len(uniq))
        dls = dl_all[np.repeat(src * n_docs, np.diff(bounds)) + ids]
        post, bm, nb = encode_postings_many(
            bounds, ids, tfs, dls, cfg.codec, cfg.block_size
        )

        # positions are doc-internal → a merged term's stream is its
        # rows' streams back to back, already in chunk order
        pos = column("positions")
        pos_offs, _ = _binary_buffers(pos)
        pos_offs = np.ascontiguousarray(pos_offs[ends])
        pos = pa.LargeBinaryArray.from_buffers(
            pa.large_binary(), len(uniq),
            [None, pa.py_buffer(pos_offs), pos.buffers()[2] or pa.py_buffer(b"")],
        )
        sizes = (
            np.fromiter(map(len, post), dtype=np.int64, count=len(uniq))
            + np.fromiter(map(len, bm), dtype=np.int64, count=len(uniq))
            + np.diff(pos_offs)
        )
        table = pa.table(
            {
                "term": pa.array(uniq, type=pa.string()),
                "df": pa.array(df, type=pa.int64()),
                "n_blocks": pa.array(nb, type=pa.int32()),
                "postings": pa.array(post, type=pa.large_binary()),
                "blockmax": pa.array(bm, type=pa.large_binary()),
                "positions": pos,
            },
            schema=seg.SEGMENT_SCHEMA,
        )
        return table, sizes

    def _merge_shard(self, shard: int, chunks: list[int]) -> dict:
        import tempfile

        import pyarrow.parquet as pq

        d = seg.shard_dir(self.index_dir, shard)
        existing = seg.read_manifest(d)
        if existing is not None and existing.get("chunks") == chunks:
            return existing

        if len(chunks) == 1:
            # single-chunk shard: the chunk segment IS the shard
            # verbatim (ordinal offset 0, one term stream) — copy the
            # files instead of re-encoding them through the merge
            import shutil as _shutil

            c = chunks[0]
            cd = seg.chunk_dir(self.index_dir, c)
            cm = seg.read_manifest(cd)
            if cm is None:
                raise RuntimeError(f"chunk {c} segment missing for shard {shard}")
            os.makedirs(d, exist_ok=True)
            nbytes = 0
            for fname in ("postings.parquet", "docs.parquet"):
                src = os.path.join(cd, fname)
                tmp = os.path.join(d, fname + ".tmp")
                _shutil.copyfile(src, tmp)
                os.replace(tmp, os.path.join(d, fname))
                nbytes += os.path.getsize(os.path.join(d, fname))
            manifest = {
                "shard": shard,
                "chunks": chunks,
                "n_docs": int(cm["n_docs"]),
                "total_dl": int(cm["total_dl"]),
                "n_terms": int(cm["n_terms"]),
                "bytes_compressed": int(nbytes),
            }
            seg.write_done(d, manifest)
            return manifest

        doc_parts = []
        offsets: list[int] = []
        n_docs = 0
        total_dl = 0
        ordered = sorted(chunks)
        for c in ordered:
            m = seg.read_manifest(seg.chunk_dir(self.index_dir, c))
            if m is None:
                raise RuntimeError(f"chunk {c} segment missing for shard {shard}")
            offsets.append(n_docs)  # ordinal offset of this chunk in the shard
            n_docs += m["n_docs"]
            total_dl += m["total_dl"]
            doc_parts.append(
                pq.read_table(
                    os.path.join(seg.chunk_dir(self.index_dir, c), "docs.parquet")
                )
            )
        docs = (
            pa.concat_tables(doc_parts)
            if doc_parts
            else pa.table({"docid": pa.array([], pa.int64()),
                           "dl": pa.array([], pa.int64())})
        )
        # per-field dl arrays: block-max metadata of a field-qualified
        # term must be computed with THAT field's lengths, or future
        # pruning over field keys would use wrong bounds
        fields = [name[3:] for name in docs.column_names
                  if name.startswith("dl@")]
        dl_all = np.concatenate(
            [docs["dl"].to_numpy()]
            + [docs[f"dl@{f}"].to_numpy() for f in fields]
        ).astype(np.int64)
        source_of = {f: i + 1 for i, f in enumerate(fields)}

        def dl_source(term: str) -> int:
            if term and term[0] == "\x01":
                return source_of.get(term[1:].split("\x1f", 1)[0], 0)
            return 0

        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        os.close(fd)
        out = _RowGroupWriter(tmp, self.flush_bytes, self.flush_terms)
        n_terms = 0
        paths = [
            os.path.join(seg.chunk_dir(self.index_dir, c), "postings.parquet")
            for c in ordered
        ]
        offsets_arr = np.asarray(offsets, dtype=np.int64)
        for window in _term_windows(paths, self.WINDOW_ROWS):
            table, sizes = self._merge_window(
                window, offsets_arr, dl_all, dl_source, int(n_docs)
            )
            out.add(table, sizes)
            n_terms += table.num_rows
        out.close()
        os.replace(tmp, os.path.join(d, "postings.parquet"))
        nbytes = os.path.getsize(os.path.join(d, "postings.parquet"))
        nbytes += seg.atomic_write_parquet(os.path.join(d, "docs.parquet"), docs)
        manifest = {
            "shard": shard,
            "chunks": chunks,
            "n_docs": int(n_docs),
            "total_dl": int(total_dl),
            "n_terms": int(n_terms),
            "bytes_compressed": int(nbytes),
        }
        seg.write_done(d, manifest)
        return manifest


# ---------------------------------------------------------------------------
# Driver orchestration
# ---------------------------------------------------------------------------


def _store_cols(config: IndexConfig, schema_names: set[str]) -> list[str]:
    return (
        [c for c in TRANSCRIPT_COLUMNS if c in schema_names and c != "docid"]
        if config.store_source
        else []
    )


def _chunk_phase(
    ds,
    schema: pa.Schema,
    conv_ids,
    config: IndexConfig,
    index_dir: str,
    skip: list[int],
    store_cols: list[str],
    rank_offset: int = 0,
):
    """stamp → chunk shuffle → fused tokenize + level-0 segment writes
    → LAZY Dataset of per-chunk summary rows (callers stream it for the
    overlapped merge, or to_pandas()).

    Stamping is a plain task function, so Ray Data fuses it into the
    read tasks, and no long-lived worker holds a CPU the read and
    shuffle tasks of a concurrent build need. ``conv_ids`` (sorted; row
    position == rank before ``rank_offset``) is put in the object store
    once; each worker builds its hash index from it once
    (:func:`_stamp_batch`). ``schema`` is ``ds``'s schema, learned once
    by the caller."""
    import ray

    schema_names = set(schema.names)
    carry_cols = sorted(
        {"conv_id", "turn_idx", *config.index_fields,
         *config.field_index_fields, *store_cols}
        | {a for a in config.attr_fields if a in schema_names}
    )
    convs_ref = ray.put(pa.array(conv_ids, type=pa.string()))
    cfg_dict = config.to_dict()

    def stamp(batch: pa.Table) -> pa.Table:
        # a closure, not fn_args: Ray would resolve a top-level ref
        # argument to its value, and the worker cache keys on the ref
        return _stamp_batch(batch, convs_ref, cfg_dict, skip, rank_offset)

    stamped = ds.select_columns(carry_cols).map_batches(
        stamp, batch_format="pyarrow", batch_size=config.batch_size,
    )
    return stamped.groupby("chunk").map_groups(
        make_chunk_builder(index_dir, config.to_dict(), store_cols),
        batch_format="pandas",
    )  # LAZY: callers stream it (overlapped merge) or to_pandas()


def _sum_field_dl(all_chunks: dict[int, dict]) -> dict[str, int]:
    """Per-field total token counts summed over chunk manifests (the
    numerators of the per-field avgdl stats)."""
    out: dict[str, int] = {}
    for m in all_chunks.values():
        for f, v in m.get("field_dl", {}).items():
            out[f] = out.get(f, 0) + int(v)
    return out


class _NotConvSorted(ValidationError):
    """A ranged chunk task found a row outside its conversation set —
    the source is not globally conv-sorted after all. The build falls
    back to the shuffle chunk phase (already-verified chunks keep)."""


def _is_missort(e: BaseException) -> bool:
    """True when an exception (possibly a RayTaskError wrapper) is a
    ranged-phase missort detection — the only error class that falls
    back to the shuffle path instead of propagating."""
    if isinstance(e, _NotConvSorted):
        return True
    cause = getattr(e, "cause", None)
    if isinstance(cause, _NotConvSorted):
        return True
    return "_NotConvSorted" in repr(e)


def _sorted_layout(source):
    """Row-group-statistics evidence that a parquet source is globally
    conv-sorted: files in sorted path order, row groups in file order,
    conv_id [min, max] ranges non-decreasing and non-overlapping (equal
    endpoints allowed — a conversation may straddle a boundary). The
    check reads METADATA only, never data. → list of
    (path, rg_index, n_rows) in global row order, or None when the
    evidence is unavailable or negative.

    Within-row-group order is NOT visible in metadata; each ranged
    chunk task proves it at read time (membership check), so a
    statistics-passing-but-scattered source degrades to the shuffle
    path instead of building a wrong index."""
    import pyarrow.parquet as pq

    if isinstance(source, str):
        if os.path.isdir(source):
            files = [
                os.path.join(source, n)
                for n in sorted(os.listdir(source))
                if n.endswith(".parquet")
            ]
        else:
            files = [source]
    elif isinstance(source, (list, tuple)):
        files = [p for p in source if isinstance(p, str)]
        if len(files) != len(source):
            return None
    else:
        return None
    if not files:
        return None
    out: list[tuple[str, int, int]] = []
    prev_max = None
    for p in files:
        try:
            md = pq.ParquetFile(p).metadata
            names = [md.schema.column(j).name for j in range(md.num_columns)]
            ci = names.index("conv_id")
        except Exception:
            return None
        for i in range(md.num_row_groups):
            rg = md.row_group(i)
            st = rg.column(ci).statistics
            if st is None or not st.has_min_max:
                return None
            mn, mx = st.min, st.max
            if isinstance(mn, bytes):
                mn, mx = mn.decode(), mx.decode()
            if prev_max is not None and mn < prev_max:
                return None
            prev_max = mx
            out.append((p, i, rg.num_rows))
    return out


def _ranged_chunk_build(layout, columns, start: int, stop: int, chunk: int,
                        conv_base: int, chunk_convs, index_dir: str,
                        cfg_dict: dict, store_cols: list[str]) -> dict:
    """One no-shuffle chunk build: read global rows [start, stop) of a
    conv-sorted parquet source (row-group pruned — only groups
    overlapping the range are read, only ``columns`` decoded), stamp
    docids locally (rank = conv_base + position in the chunk's own
    sorted conv list), then run the standard fused chunk builder.

    CORRECTNESS PROOF carried by the membership check: the range's
    size equals the census row total of exactly this chunk's
    conversations, so if every row in the slice BELONGS to those
    conversations and docids are duplicate-free (the builder's guard),
    the slice is exactly their row set — any misordering in the source
    surfaces as a foreign row here or a duplicate docid there, raising
    instead of building a wrong chunk."""
    import pyarrow.parquet as pq

    tables = []
    off = 0
    for path, rgi, nrows in layout:
        lo, hi = off, off + nrows
        off = hi
        if hi <= start:
            continue
        if lo >= stop:
            break
        t = pq.ParquetFile(path).read_row_group(rgi, columns=columns)
        a = max(start - lo, 0)
        tables.append(t.slice(a, min(stop, hi) - lo - a))
    if not tables:
        raise _NotConvSorted(f"chunk {chunk}: empty ranged read")
    tbl = pa.concat_tables(tables).combine_chunks()
    if tbl.num_rows != stop - start:
        raise _NotConvSorted(f"chunk {chunk}: ranged read size mismatch")
    cfg = IndexConfig.from_dict(cfg_dict)
    g = tbl.to_pandas()
    pos = pd.Index(np.asarray(chunk_convs, dtype=object)).get_indexer(
        g["conv_id"].to_numpy(object)
    )
    if (pos < 0).any():
        raise _NotConvSorted(
            f"chunk {chunk}: row from a foreign conversation "
            "(source not conv-sorted)"
        )
    ranks = conv_base + pos.astype(np.int64)
    g["docid"] = (ranks << cfg.turn_bits) | g["turn_idx"].to_numpy().astype(
        np.int64
    )
    g["chunk"] = chunk
    out = make_chunk_builder(index_dir, cfg_dict, store_cols)(g)
    return out.iloc[0].to_dict()


def _ranged_chunk_build_dist(layout, columns, chunk: int, lo_rank: int,
                             conv_pieces, row_base: int, index_dir: str,
                             cfg_dict: dict, store_cols: list[str]) -> dict:
    """Distributed-census variant of :func:`_ranged_chunk_build`: the
    chunk's conversation slice lives in the rank-ordered
    ``convs.parquet`` directory, so the task first assembles its conv
    list + row offsets from its files' (conv_id, cnt) columns
    (``conv_pieces`` = [(path, start, stop)] in rank order; ``row_base``
    is the global row offset of the FIRST piece's file), then runs the
    standard ranged build. The driver never holds the conversation
    table — its state stays O(files)."""
    import pyarrow.parquet as pq

    convs, cnts = [], []
    row_start = row_base
    for j, (path, a, b) in enumerate(conv_pieces):
        t = pq.read_table(path, columns=["conv_id", "cnt"])
        ids = t["conv_id"].to_numpy(zero_copy_only=False).astype(object)
        cn = t["cnt"].to_numpy()
        if j == 0 and a:
            row_start += int(cn[:a].sum())
        convs.append(ids[a:b])
        cnts.append(cn[a:b])
    convs = np.concatenate(convs) if convs else np.zeros(0, dtype=object)
    n_rows = int(np.concatenate(cnts).sum()) if cnts else 0
    return _ranged_chunk_build(
        layout, columns, row_start, row_start + n_rows, chunk, lo_rank,
        convs, index_dir, cfg_dict, store_cols,
    )


def _chunk_phase_ranged_dist(source, config: IndexConfig, index_dir: str,
                             skip: list[int], store_cols: list[str],
                             n_convs: int):
    """Ranged (no-shuffle) chunk phase on top of the DISTRIBUTED census:
    per-file census cnt sums give the driver O(files) row offsets, and
    each chunk task assembles its own conv slice from the rank-ordered
    convs.parquet directory. Same correctness proof and shuffle
    fallback as the broadcast variant. → generator of summary frames,
    or None when evidence/metadata is unavailable."""
    import ray

    layout = _sorted_layout(source)
    if layout is None:
        return None
    convs_dir = os.path.join(index_dir, "convs.parquet")
    if not os.path.isdir(convs_dir):
        return None
    import pyarrow.parquet as pq

    conv_files, conv_rows = [], []
    for name in sorted(os.listdir(convs_dir)):
        if not name.endswith(".parquet"):
            continue
        p = os.path.join(convs_dir, name)
        md = pq.ParquetFile(p).metadata
        names = [md.schema.column(j).name for j in range(md.num_columns)]
        if "cnt" not in names:
            return None  # census written by an older build: no counts
        if md.num_rows:
            conv_files.append(p)
            conv_rows.append(md.num_rows)
    if not conv_files:
        return None

    @ray.remote(num_cpus=1)
    def cnt_sum(path: str) -> int:
        import pyarrow.compute as _pc
        import pyarrow.parquet as _pq

        return int(
            _pc.sum(_pq.read_table(path, columns=["cnt"])["cnt"]).as_py()
        )

    sums = ray.get([cnt_sum.remote(p) for p in conv_files])
    if sum(sums) != sum(n for _, _, n in layout):
        return None
    rank_base = np.zeros(len(conv_files) + 1, dtype=np.int64)
    np.cumsum(conv_rows, out=rank_base[1:])
    row_base = np.zeros(len(conv_files) + 1, dtype=np.int64)
    np.cumsum(sums, out=row_base[1:])

    bits = config.convs_per_chunk_bits
    n_chunks = ((n_convs - 1) >> bits) + 1 if n_convs else 0
    columns = list(TRANSCRIPT_COLUMNS)
    layout_ref = ray.put(layout)
    remote = ray.remote(num_cpus=1)(_ranged_chunk_build_dist)
    skipset = set(skip)
    cfg_dict = config.to_dict()
    todo = (c for c in range(n_chunks) if c not in skipset)

    def submit(c: int):
        lo, hi = c << bits, min((c + 1) << bits, n_convs)
        fi = int(np.searchsorted(rank_base, lo, side="right")) - 1
        base = int(row_base[fi])
        pieces = []
        r = lo
        while r < hi:
            fe = int(min(hi, rank_base[fi + 1]))
            pieces.append(
                (conv_files[fi], int(r - rank_base[fi]),
                 int(fe - rank_base[fi]))
            )
            r = fe
            fi += 1
        return remote.remote(
            layout_ref, columns, c, lo, pieces, base, index_dir,
            cfg_dict, store_cols,
        )

    return _windowed_task_stream(todo, submit)


_RANGED_REMOTE = None


def _ranged_remote():
    global _RANGED_REMOTE
    if _RANGED_REMOTE is None:
        import ray

        _RANGED_REMOTE = ray.remote(num_cpus=1)(_ranged_chunk_build)
    return _RANGED_REMOTE


def _chunk_phase_ranged(source, config: IndexConfig, index_dir: str,
                        skip: list[int], store_cols: list[str],
                        conv_ids, conv_counts, rank_offset: int = 0):
    """NO-SHUFFLE chunk phase for conv-sorted parquet input: chunk c is
    a contiguous row range (offsets from the census counts), so one
    plain task per chunk reads its range directly — the groupby
    exchange (the dominant build cost) disappears entirely. This is
    the 100 TB shape for ingest from conversation-bucketed storage:
    zero data movement, per-chunk resumability, and the same atomic
    chunk files as the shuffle paths.

    → generator of per-chunk summary frames (consumed by the
    overlapped merge), or None when the source lacks sortedness
    evidence (caller uses the shuffle path)."""
    import ray

    # appends rank new convs after the base corpus at the next chunk
    # boundary; a chunk-aligned offset shifts chunk ids and conv ranks
    if rank_offset % (1 << config.convs_per_chunk_bits):
        return None  # unaligned offset: shuffle path handles it
    layout = _sorted_layout(source)
    if layout is None:
        return None
    if int(conv_counts.sum()) != sum(n for _, _, n in layout):
        return None
    starts = np.zeros(len(conv_counts) + 1, dtype=np.int64)
    np.cumsum(conv_counts, out=starts[1:])
    bits = config.convs_per_chunk_bits
    n_convs = len(conv_ids)
    n_chunks = ((n_convs - 1) >> bits) + 1 if n_convs else 0
    columns = list(TRANSCRIPT_COLUMNS)
    remote = _ranged_remote()
    layout_ref = ray.put(layout)
    skipset = set(skip)
    cfg_dict = config.to_dict()
    chunk_base = rank_offset >> bits
    todo = (c for c in range(n_chunks) if (chunk_base + c) not in skipset)

    def submit(c: int):
        lo, hi = c << bits, min((c + 1) << bits, n_convs)
        return remote.remote(
            layout_ref, columns, int(starts[lo]), int(starts[hi]),
            chunk_base + c, rank_offset + lo, conv_ids[lo:hi], index_dir,
            cfg_dict, store_cols,
        )

    return _windowed_task_stream(todo, submit)


def _windowed_task_stream(chunk_iter, submit, window: int | None = None):
    """Generator of single-row summary frames over a WINDOWED task
    stream: at most ``window`` (default 4x cluster CPUs) ranged chunk
    tasks are in flight at once, refilled as results drain — at 10^6
    chunks the driver never holds 10^6 pending futures, just a
    cluster-width window plus an iterator. On error (the
    missort-fallback path) it waits for the window to finish rather
    than cancel it: ``ray.cancel`` racing a finishing task can abort
    this process's Ray core worker ("Tried to complete task that was
    not pending")."""
    import ray

    if window is None:
        window = 4 * max(int(ray.cluster_resources().get("CPU", 8)), 1)
    inflight = []
    try:
        for c in chunk_iter:
            inflight.append(submit(c))
            if len(inflight) >= window:
                done, inflight = ray.wait(inflight, num_returns=1)
                yield pd.DataFrame([ray.get(done[0])])
        while inflight:
            done, inflight = ray.wait(inflight, num_returns=1)
            yield pd.DataFrame([ray.get(done[0])])
    except BaseException:
        if inflight:
            ray.wait(inflight, num_returns=len(inflight))
        raise


def _merge_shard_task(index_dir: str, cfg_dict: dict, shard: int,
                      chunks: list[int]) -> dict:
    """Plain-task form of one shard merge: the overlapped path fires
    one as soon as a shard's chunk set completes, and ``_merge_phase``
    fires one per shard."""
    return SegmentMerger(index_dir, cfg_dict)._merge_shard(shard, chunks)


_MERGE_REMOTE = None


def _merge_remote():
    global _MERGE_REMOTE
    if _MERGE_REMOTE is None:
        import ray

        _MERGE_REMOTE = ray.remote(num_cpus=1)(_merge_shard_task)
    return _MERGE_REMOTE


def _overlapped_chunk_merge(
    summaries_ds,
    index_dir: str,
    config: IndexConfig,
    n_chunks: int,
    num_shards: int,
    skip: list[int],
    cpus: int,
    expected_chunks: list[int] | None = None,
) -> tuple[pd.DataFrame, int, float, float]:
    """Consume the chunk-summary STREAM and fire each shard's merge the
    moment its chunk set is complete — the merge overlaps the tail of
    the chunk phase instead of waiting for a global barrier (the shard
    merge only needs ITS chunks' files, which are written atomically
    with per-chunk manifests before their summary row is emitted).

    Resume/fault story unchanged: chunk files + per-shard manifests are
    idempotent; a failed run re-fires exactly the missing work. At most
    min(num_shards, cpus - 1) merges are in flight, so the chunk stage
    keeps a CPU.

    → (summaries df, shard bytes, t_last_chunk, t_all_merged) —
    monotonic timestamps for phase accounting."""
    import ray

    chunk_ids = (
        sorted(expected_chunks) if expected_chunks is not None
        else list(range(n_chunks))
    )
    shard_chunks: dict[int, list[int]] = {
        s: [c for c in chunk_ids if c % num_shards == s]
        for s in range(num_shards)
    }
    pending: dict[int, set] = {
        s: set(cs) - set(skip) for s, cs in shard_chunks.items()
    }
    merge_pool = max(1, min(num_shards, cpus - 1))
    remote = _merge_remote()
    inflight: list = []
    merged: list[dict] = []

    def _launch(s: int) -> None:
        nonlocal inflight
        while len(inflight) >= merge_pool:
            done_refs, inflight = ray.wait(inflight, num_returns=1)
            merged.extend(ray.get(done_refs))
        inflight.append(
            remote.remote(index_dir, config.to_dict(), s, shard_chunks[s])
        )

    # shards whose chunks were all skipped (resume) merge immediately
    # (their per-shard manifest short-circuits if already merged)
    for s in range(num_shards):
        if shard_chunks[s] and not pending[s]:
            _launch(s)

    # batch_size=None yields each block as it lands, so a shard merges
    # as soon as its chunks exist, not after the last chunk is built
    it = (
        summaries_ds.iter_batches(batch_size=None, batch_format="pandas")
        if hasattr(summaries_ds, "iter_batches")
        else summaries_ds  # plain iterator of frames (ranged chunk phase)
    )
    frames: list[pd.DataFrame] = []
    try:
        for batch in it:
            if not len(batch):
                continue
            frames.append(batch)
            for c in batch["chunk"].tolist():
                s = int(c) % num_shards
                if pending[s]:
                    pending[s].discard(int(c))
                    if not pending[s]:
                        _launch(s)
    except BaseException:
        # a failing chunk stream (e.g. the ranged phase detecting a
        # missorted source) must not leave merge tasks running behind
        # the caller's fallback: wait for them (not ray.cancel, see
        # _windowed_task_stream); shard merges are atomic + idempotent
        if inflight:
            ray.wait(inflight, num_returns=len(inflight))
        raise
    t_last_chunk = time.monotonic()
    still = [s for s, p in pending.items() if p and shard_chunks[s]]
    if still:
        # defensive: a chunk whose summary never arrived (e.g. every
        # chunk was skipped upstream) — fall back to direct launches;
        # the global completeness check after us raises if files are
        # genuinely missing
        for s in still:
            _launch(s)
    if inflight:
        merged.extend(ray.get(inflight))
    t_all_merged = time.monotonic()
    shard_bytes = int(sum(m["bytes_compressed"] for m in merged))
    summaries = (
        pd.concat(frames, ignore_index=True) if frames else pd.DataFrame()
    )
    return summaries, shard_bytes, t_last_chunk, t_all_merged


def _chunks_with_fallback(ranged, shuffle_thunk, index_dir: str,
                          config: IndexConfig, n_chunks: int,
                          num_shards: int, skip: list[int], cpus: int,
                          expected_chunks: list[int] | None = None):
    """Consume the RANGED summary stream through the overlapped merge;
    on a missort detection fall back to the shuffle phase for whatever
    the aborted attempt didn't finish (atomic chunk files + shard
    manifests make both the rebuild and the re-merge idempotent). The
    ONE copy of this control flow serves build and append.
    → (summaries, shard_bytes, t_chunk_end, t_merge_end)."""
    if ranged is not None:
        try:
            return _overlapped_chunk_merge(
                ranged, index_dir, config, n_chunks, num_shards, skip,
                cpus, expected_chunks=expected_chunks,
            )
        except Exception as e:  # noqa: BLE001
            if not _is_missort(e):
                raise
            skip = sorted(seg.completed_chunks(index_dir))
    sds = shuffle_thunk(skip)
    out = _overlapped_chunk_merge(
        sds, index_dir, config, n_chunks, num_shards, skip, cpus,
        expected_chunks=expected_chunks,
    )
    if os.environ.get("EXCELASTIC_BUILD_STATS"):
        print(sds.stats())
    return out


def _merge_phase(
    index_dir: str,
    config: IndexConfig,
    chunk_ids: list[int],
    num_shards: int,
) -> int:
    """Merge level-0 chunk segments into shards, one plain task per
    shard; returns shard bytes. A shard whose chunk set is unchanged
    short-circuits on its manifest."""
    import ray

    remote = _merge_remote()
    cfg_dict = config.to_dict()
    merged = ray.get([
        remote.remote(index_dir, cfg_dict, s,
                      [c for c in chunk_ids if c % num_shards == s])
        for s in range(num_shards)
    ])
    return int(sum(m["bytes_compressed"] for m in merged))


@dataclass
class BuildResult:
    index_dir: str
    n_docs: int
    n_convs: int
    n_chunks: int
    num_shards: int
    avgdl: float
    total_dl: int
    n_postings: int
    bytes_compressed: int
    chunks_built: int
    chunks_skipped: int
    seconds: float
    #: wall time per phase: validate (conv census), chunks (stamp +
    #: shuffle + fused tokenize/segment build, up to the LAST chunk
    #: summary), merge (the shard-merge TAIL after the last chunk —
    #: most merge work overlaps the chunk phase, round 4)
    phase_seconds: dict | None = None


def build_index(
    source,
    index_dir: str,
    config: IndexConfig | None = None,
    *,
    clear: bool = False,
    resume: bool = True,
    parallelism: int | None = None,
    transforms: list | None = None,
    strict_turns: bool = True,
    schema: pa.Schema | None = None,
) -> BuildResult:
    """Build (or resume building) an index over a transcript corpus.

    ``source``: parquet path(s) or an existing ``ray.data.Dataset`` with
    the transcript schema. ``clear=True`` wipes any existing index first
    (the reference's clear-vs-append lifecycle,
    ``ElasticWriter.java:186-194``); with ``resume=True`` (default) a
    partially-built index is completed, skipping finished chunks.

    ``transforms``: optional list of batch UDFs (Arrow table → Arrow
    table) applied between read and validation — the ES ingest-pipeline
    knob (``ImportEvent.java:44,61``; README.md:16) re-expressed as
    ``map_batches`` stages. Each must preserve the transcript schema.

    ``schema``: the column schema of a ``Dataset`` source, when the
    caller knows it without executing anything (e.g. from Parquet
    footers). Ray Data learns the schema of a Dataset ending in
    ``map_batches`` only by running it up to its first block; with
    ``schema`` given (and no ``transforms``) the build probes nothing.
    """
    import ray.data as rd
    from ray.data.context import ShuffleStrategy

    # Pull-based sort shuffle: with the round-4 few-large-blocks read
    # rule (~cpus/2 blocks) the pull scheduler beats push-based on the
    # full build at every measured CPU level (the round-1 1.6x
    # push-over-pull result held only at 2x-cpus block counts).
    ctx = rd.DataContext.get_current()
    prior_strategy = ctx.shuffle_strategy
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PULL_BASED
    try:
        return _build_index_impl(
            source, index_dir, config, clear=clear, resume=resume,
            parallelism=parallelism, transforms=transforms,
            strict_turns=strict_turns, schema=schema,
        )
    finally:
        ctx.shuffle_strategy = prior_strategy


def _build_index_impl(
    source,
    index_dir: str,
    config: IndexConfig | None,
    *,
    clear: bool,
    resume: bool,
    parallelism: int | None,
    transforms: list | None = None,
    strict_turns: bool = True,
    schema: pa.Schema | None = None,
) -> BuildResult:
    import ray
    import ray.data as rd

    t0 = time.monotonic()
    config = config or IndexConfig()

    if clear and os.path.isdir(index_dir):
        shutil.rmtree(index_dir)
    os.makedirs(index_dir, exist_ok=True)

    if os.path.exists(os.path.join(index_dir, "manifest.json")):
        prior = seg.load_global_manifest(index_dir)
        if prior.get("status") == "complete" and not resume:
            raise FileExistsError(
                f"{index_dir} already holds a complete index (use clear=True)"
            )
        if prior.get("config") != config.to_dict():
            raise ValidationError(
                "existing index was built with a different config; use clear=True"
            )

    cpus = parallelism or int(ray.cluster_resources().get("CPU", 8))
    if isinstance(source, (str, list, tuple)):
        # Few, large blocks: the chunk exchange's cost grows with block
        # count (partition fan-out + per-task overhead), while the map
        # side (read + stamp) is cheap — round-4 full-build sweeps put
        # ~cpus/2 blocks (floor 16) 20-30% ahead of the old 2x-cpus
        # rule at every CPU level. Per NODE at cluster scale this is
        # the same rule (each node's share of blocks stays ~cores/2).
        from excelastic_ray.io import read_parquet_clean

        ds = read_parquet_clean(
            source,
            columns=list(TRANSCRIPT_COLUMNS),
            override_num_blocks=max(cpus // 2, 16),
        )
    else:
        ds = source

    for t in transforms or ():
        ds = ds.map_batches(t, batch_format="pyarrow")

    if schema is None or transforms:
        schema = ds.schema()
    schema_names = set(schema.names)
    missing = {"conv_id", "turn_idx", *config.index_fields,
               *config.field_index_fields} - schema_names
    if missing:
        raise ValidationError(f"input is missing required columns {sorted(missing)}")

    # ---- validation + conversation ranks -------------------------------
    # Distributed rank path when the corpus exceeds the driver budget
    # (or the budget is 0 — the test forcing knob). The row count is a
    # conservative upper bound on the conv census and is free for
    # parquet sources; transformed/Dataset inputs stay on the broadcast
    # path unless forced (count() would re-execute their pipeline).
    phases: dict[str, float] = {}
    t_phase = time.monotonic()
    n_rows_hint = None
    if config.driver_conv_budget == 0:
        use_dist = True
    elif isinstance(source, (str, list, tuple)) and not transforms:
        n_rows_hint = ds.count()
        use_dist = n_rows_hint > config.driver_conv_budget
    else:
        use_dist = False

    conv_ids = conv_counts = None
    if use_dist:
        n_convs = distributed_conversation_ranks(ds, config, index_dir,
                                                 strict=strict_turns)
    else:
        conv_ids, conv_counts = conversation_table(
            ds, config, strict=strict_turns, return_counts=True
        )
        n_convs = len(conv_ids)
        cp = os.path.join(index_dir, "convs.parquet")
        if os.path.isdir(cp):  # prior distributed build left a directory
            shutil.rmtree(cp)
        seg.atomic_write_parquet(
            os.path.join(index_dir, "convs.parquet"),
            pa.table(
                {
                    "rank": pa.array(np.arange(n_convs, dtype=np.int64)),
                    "conv_id": pa.array(conv_ids, type=pa.string()),
                }
            ),
        )
    phases["validate"] = round(time.monotonic() - t_phase, 3)
    n_chunks = ((n_convs - 1) >> config.convs_per_chunk_bits) + 1 if n_convs else 0
    seg.save_global_manifest(
        index_dir,
        {"status": "building", "config": config.to_dict(), "n_convs": n_convs},
    )

    done = seg.completed_chunks(index_dir) if resume else {}
    skip = sorted(done)
    n_resumed = len(skip)  # the fallback path may widen `skip` with
    # chunks the aborted ranged attempt already built — those count as
    # BUILT this run, not skipped

    store_cols = _store_cols(config, schema_names)
    num_shards = min(config.num_shards, n_chunks) or 1
    summaries = pd.DataFrame()
    if len(skip) < n_chunks:
        # ---- chunk build OVERLAPPED with shard merge --------------------
        # the chunk-summary stream is consumed on the driver; each
        # shard's merge fires the moment its chunk set completes, so the
        # merge wall-time hides behind the chunk phase's tail instead of
        # waiting on a global barrier. Conv-sorted parquet sources take
        # the RANGED phase: no shuffle at all, one plain task per chunk
        # reading its contiguous row range (membership-verified, with
        # automatic fallback to the shuffle path on a missorted source).
        ranged = None
        if not transforms and isinstance(source, (str, list, tuple)):
            if use_dist:
                ranged = _chunk_phase_ranged_dist(
                    source, config, index_dir, skip, store_cols, n_convs
                )
            else:
                ranged = _chunk_phase_ranged(
                    source, config, index_dir, skip, store_cols,
                    conv_ids, conv_counts,
                )

        def _shuffle(sk):
            if use_dist:
                return _chunk_phase_joined(
                    ds, schema, config, index_dir, sk, cpus, store_cols,
                    n_rows=n_rows_hint,
                )
            return _chunk_phase(
                ds, schema, conv_ids, config, index_dir, sk, store_cols,
            )

        summaries, shard_bytes, t_chunk_end, t_merge_end = (
            _chunks_with_fallback(
                ranged, _shuffle, index_dir, config, n_chunks,
                num_shards, skip, cpus,
            )
        )
    else:  # nothing to build: plain merge (resume completing a merge)
        t_chunk_end = time.monotonic()
        shard_bytes = _merge_phase(
            index_dir, config, list(range(n_chunks)), num_shards
        )
        t_merge_end = time.monotonic()

    phases["chunks"] = round(t_chunk_end - t_phase - phases["validate"], 3)
    phases["merge"] = round(t_merge_end - t_chunk_end, 3)
    all_chunks = seg.completed_chunks(index_dir)
    if sorted(all_chunks) != list(range(n_chunks)):
        missing_c = sorted(set(range(n_chunks)) - set(all_chunks))
        raise RuntimeError(f"build incomplete: missing chunks {missing_c[:10]}")

    n_docs = sum(m["n_docs"] for m in all_chunks.values())
    total_dl = sum(m["total_dl"] for m in all_chunks.values())
    n_postings = sum(m["n_postings"] for m in all_chunks.values())
    seg_bytes = sum(m["bytes_compressed"] for m in all_chunks.values())
    field_totals = _sum_field_dl(all_chunks)

    manifest = {
        "status": "complete",
        "format_version": 2,
        # unique per completed build: readers cache an engine per
        # manifest identity, and a clear+rebuild must never look
        # identical to the manifest it replaced (web.py read gate)
        "build_id": uuid.uuid4().hex,
        "config": config.to_dict(),
        "n_docs": int(n_docs),
        "n_convs": int(n_convs),
        "n_chunks": int(n_chunks),
        "num_shards": int(num_shards),
        "total_dl": int(total_dl),
        "avgdl": (total_dl / n_docs) if n_docs else 0.0,
        "field_avgdl": {
            f: (v / n_docs) if n_docs else 0.0
            for f, v in field_totals.items()
        },
        "n_postings": int(n_postings),
        "segment_bytes": int(seg_bytes),
        "shard_bytes": int(shard_bytes),
        "store_source": bool(store_cols),
        "phase_seconds": phases,
    }
    # per-chunk counters + lineage live in chunks.parquet (O(1) global
    # manifest even at 10^6 chunks; SCALE.md chunk-census note)
    seg.write_chunk_census(index_dir, all_chunks)
    seg.save_global_manifest(index_dir, manifest)

    return BuildResult(
        index_dir=index_dir,
        n_docs=int(n_docs),
        n_convs=int(n_convs),
        n_chunks=int(n_chunks),
        num_shards=int(num_shards),
        avgdl=(total_dl / n_docs) if n_docs else 0.0,
        total_dl=int(total_dl),
        n_postings=int(n_postings),
        bytes_compressed=int(seg_bytes + shard_bytes),
        chunks_built=int(n_chunks - n_resumed),
        chunks_skipped=n_resumed,
        seconds=time.monotonic() - t0,
        phase_seconds=phases,
    )


def append_index(
    source,
    index_dir: str,
    *,
    parallelism: int | None = None,
) -> BuildResult:
    """Append NEW conversations to a complete index — the "add to
    existing index" half of the reference's clear-vs-append lifecycle
    (``ElasticWriter.java:186-194``; the form's "Add to existing"
    option, ``ImportEvent.java:45,62``).

    New conversations are ranked after the existing corpus, starting at
    the next chunk boundary, so every closed chunk segment is immutable
    and only the shards receiving new chunks re-merge. Re-importing a
    conv_id that already exists raises ``ValidationError`` (the docid
    space cannot hold two copies of one turn; the reference would
    silently double-index — we refuse instead). Docid order remains
    stable *within* each import batch; across batches it is import
    order, like ES's append semantics.

    A crashed append resumes: completed new chunks are skipped by
    manifest scan, and the in-progress append is pinned by a fingerprint
    of its conversation set (appending *different* data over a broken
    append is rejected).
    """
    import ray
    import ray.data as rd
    import zlib

    from ray.data.context import ShuffleStrategy

    t0 = time.monotonic()
    manifest = seg.load_global_manifest(index_dir)
    config = IndexConfig.from_dict(manifest["config"])
    if manifest.get("status") not in ("complete", "appending"):
        raise ValidationError(
            f"index at {index_dir} is not complete (status="
            f"{manifest.get('status')!r}); append needs a finished base"
        )

    ctx = rd.DataContext.get_current()
    prior_strategy = ctx.shuffle_strategy
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PULL_BASED
    try:
        cpus = parallelism or int(ray.cluster_resources().get("CPU", 8))
        if isinstance(source, (str, list, tuple)):
            from excelastic_ray.io import read_parquet_clean

            ds = read_parquet_clean(
                source,
                columns=list(TRANSCRIPT_COLUMNS),
                override_num_blocks=max(cpus // 2, 16),
            )
        else:
            ds = source
        schema = ds.schema()
        schema_names = set(schema.names)
        missing = {"conv_id", "turn_idx", *config.index_fields,
               *config.field_index_fields} - schema_names
        if missing:
            raise ValidationError(
                f"input is missing required columns {sorted(missing)}"
            )

        new_convs, new_counts = conversation_table(
            ds, config, return_counts=True
        )
        import pyarrow.parquet as pq

        old = pq.read_table(os.path.join(index_dir, "convs.parquet"))
        old_ids = old["conv_id"].to_numpy(zero_copy_only=False).astype(object)
        overlap = np.intersect1d(old_ids.astype(str), new_convs.astype(str))
        if len(overlap):
            raise ValidationError(
                f"conv_ids already indexed (append would duplicate turns): "
                f"{overlap[:5].tolist()}"
            )

        fingerprint = zlib.crc32("\x00".join(map(str, new_convs)).encode())
        base_chunks = int(manifest["n_chunks"])
        if manifest.get("status") == "appending":
            if manifest.get("append_fingerprint") != fingerprint:
                raise ValidationError(
                    "a different append is in progress; finish it with the "
                    "same data or rebuild with clear=True"
                )
            base_chunks = int(manifest["append_base_chunks"])
        else:
            manifest = {
                **manifest,
                "status": "appending",
                "append_fingerprint": fingerprint,
                "append_base_chunks": base_chunks,
            }
            seg.save_global_manifest(index_dir, manifest)

        # the NEW convs take ranks base_rank.. in sorted order
        base_rank = base_chunks << config.convs_per_chunk_bits
        done = seg.completed_chunks(index_dir)
        skip = sorted(done)

        store_cols = _store_cols(config, schema_names)
        n_new_chunks = ((len(new_convs) - 1) >> config.convs_per_chunk_bits) + 1
        expected = sorted(
            set(range(base_chunks))
            | {base_chunks + c for c in range(n_new_chunks)}
        )
        num_shards = int(manifest["num_shards"])
        # chunk build overlapped with shard merge (see _build_index_impl):
        # shards with only-base chunks launch immediately and short-circuit
        # on their unchanged manifests; shards receiving new chunks merge
        # as soon as their last new chunk lands
        n_resumed = len(skip)  # pre-fallback: counters stay honest
        ranged = None
        if isinstance(source, (str, list, tuple)):
            # conv-sorted increments (the daily-batch shape) append
            # with NO shuffle — same ranged phase as the fresh build,
            # chunk ids and conv ranks shifted past the base corpus
            ranged = _chunk_phase_ranged(
                source, config, index_dir, skip, store_cols,
                new_convs, new_counts, rank_offset=base_rank,
            )
        summaries, shard_bytes, _tc, _tm = _chunks_with_fallback(
            ranged,
            lambda sk: _chunk_phase(
                ds, schema, new_convs, config, index_dir, sk, store_cols,
                rank_offset=base_rank,
            ),
            index_dir, config, len(expected), num_shards, skip, cpus,
            expected_chunks=expected,
        )

        all_chunks = seg.completed_chunks(index_dir)
        if sorted(all_chunks) != expected:
            missing_c = sorted(set(expected) - set(all_chunks))
            raise RuntimeError(f"append incomplete: missing chunks {missing_c[:10]}")

        # extended conv-rank table (explicit ranks: gap before base_rank)
        new_rank = base_rank + np.arange(len(new_convs), dtype=np.int64)
        cp = os.path.join(index_dir, "convs.parquet")
        if os.path.isdir(cp):  # base was built with distributed ranks
            shutil.rmtree(cp)
        seg.atomic_write_parquet(
            os.path.join(index_dir, "convs.parquet"),
            pa.table(
                {
                    "rank": pa.array(
                        np.concatenate(
                            [old["rank"].to_numpy()
                             if "rank" in old.column_names
                             else np.arange(len(old_ids), dtype=np.int64),
                             new_rank]
                        )
                    ),
                    "conv_id": pa.array(
                        np.concatenate([old_ids, new_convs]), type=pa.string()
                    ),
                }
            ),
        )

        n_docs = sum(m["n_docs"] for m in all_chunks.values())
        total_dl = sum(m["total_dl"] for m in all_chunks.values())
        field_totals = _sum_field_dl(all_chunks)
        n_postings = sum(m["n_postings"] for m in all_chunks.values())
        seg_bytes = sum(m["bytes_compressed"] for m in all_chunks.values())
        n_convs = len(old_ids) + len(new_convs)
        out_manifest = {
            k: v
            for k, v in manifest.items()
            if k not in ("append_fingerprint", "append_base_chunks")
        }
        out_manifest.update(
            {
                "status": "complete",
                "n_docs": int(n_docs),
                "n_convs": int(n_convs),
                "n_chunks": int(base_chunks + n_new_chunks),
                "total_dl": int(total_dl),
                "avgdl": (total_dl / n_docs) if n_docs else 0.0,
                "field_avgdl": {
                    f: (v / n_docs) if n_docs else 0.0
                    for f, v in field_totals.items()
                },
                "n_postings": int(n_postings),
                "segment_bytes": int(seg_bytes),
                "shard_bytes": int(shard_bytes),
            }
        )
        seg.write_chunk_census(index_dir, all_chunks)
        seg.save_global_manifest(index_dir, out_manifest)

        return BuildResult(
            index_dir=index_dir,
            n_docs=int(n_docs),
            n_convs=int(n_convs),
            n_chunks=int(base_chunks + n_new_chunks),
            num_shards=num_shards,
            avgdl=(total_dl / n_docs) if n_docs else 0.0,
            total_dl=int(total_dl),
            n_postings=int(n_postings),
            bytes_compressed=int(seg_bytes + shard_bytes),
            chunks_built=int(len(expected) - n_resumed),
            chunks_skipped=n_resumed,
            seconds=time.monotonic() - t0,
        )
    finally:
        ctx.shuffle_strategy = prior_strategy


def _conv_ranks_table(index_dir: str):
    """(rank ndarray, conv_id object ndarray) from convs.parquet —
    explicit ranks when present (post-append), positional otherwise."""
    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(index_dir, "convs.parquet"))
    ids = t["conv_id"].to_numpy(zero_copy_only=False).astype(object)
    ranks = (
        t["rank"].to_numpy()
        if "rank" in t.column_names
        else np.arange(len(ids), dtype=np.int64)
    )
    return ranks.astype(np.int64), ids


def delete_doc(index_dir: str, conv_id: str, turn_idx: int) -> int:
    """ES single-document ``_delete`` analog: tombstone ONE (conv_id,
    turn_idx) in its owning shard's ``deletes.parquet`` — the same
    pre-merge semantics as ``delete_by_query`` (the doc drops from
    results; df/N/avgdl still cover it until a ``reindex`` expunge,
    exactly Lucene's deleted-doc contract). → the tombstoned docid.
    Raises ``KeyError`` when the doc does not exist or is already
    deleted (the ES 404)."""
    import pyarrow.parquet as pq

    manifest = seg.load_global_manifest(index_dir)
    if manifest.get("status") != "complete":
        raise ValidationError("index is not complete")
    cfg = IndexConfig.from_dict(manifest["config"])
    ranks, ids = _conv_ranks_table(index_dir)
    hit = np.flatnonzero(ids == conv_id)
    if not len(hit):
        raise KeyError(f"conv_id {conv_id!r} not in the index")
    rank = int(ranks[hit[0]])
    docid = int(cfg.docid(rank, int(turn_idx)))
    # shard placement uses the manifest's EFFECTIVE shard count (build
    # caps num_shards at the chunk count; force_merge can change it) —
    # the config's num_shards is only the requested fan-out
    shard = int(cfg.chunk_of_rank(rank)) % int(manifest["num_shards"])
    sd = seg.shard_dir(index_dir, shard)
    docids = pq.read_table(
        os.path.join(sd, "docs.parquet"), columns=["docid"]
    )["docid"].to_numpy()
    p = int(np.searchsorted(docids, docid))
    if p >= len(docids) or docids[p] != docid:
        raise KeyError(f"({conv_id!r}, {turn_idx}) not in the index")
    dpath = os.path.join(sd, "deletes.parquet")
    dead = (
        pq.read_table(dpath)["docid"].to_numpy()
        if os.path.exists(dpath)
        else np.zeros(0, dtype=np.int64)
    )
    if docid in dead:
        raise KeyError(f"({conv_id!r}, {turn_idx}) is already deleted")
    tomb = pa.table({"docid": pa.array(np.union1d(dead, [docid]),
                                       type=pa.int64())})
    seg.atomic_write_parquet(dpath, tomb)
    new_drev = int(manifest.get("deletes_rev", 0)) + 1
    manifest["deletes_rev"] = new_drev
    # generational copy: point-in-time readers pin this exact set
    seg.atomic_write_parquet(
        os.path.join(sd, f"deletes_g{new_drev}.parquet"), tomb
    )
    seg.save_global_manifest(index_dir, manifest)
    return docid


def update_doc(index_dir: str, conv_id: str, turn_idx: int,
               set_values: dict) -> int:
    """ES single-document partial ``_update``: overwrite ONE doc's
    ATTRIBUTE values (role/tool/ts — the filter/facet/sort surface)
    via the per-shard ``updates.parquet`` doc-values overlay, exactly
    ``update_by_query``'s mechanism scoped to one (conv_id, turn_idx).
    The inverted index keeps scoring the originally indexed text until
    a reindex (Lucene's updatable-DV contract); changing the TEXT is
    :func:`index_doc` with ``overwrite=True``. → the doc's docid;
    ``KeyError`` when the doc or an attribute does not exist."""
    import pyarrow.parquet as pq

    if not set_values:
        raise ValueError("set_values must name at least one attr")
    manifest = seg.load_global_manifest(index_dir)
    if manifest.get("status") != "complete":
        raise ValidationError("index is not complete")
    cfg = IndexConfig.from_dict(manifest["config"])
    ranks, ids = _conv_ranks_table(index_dir)
    hit = np.flatnonzero(ids == conv_id)
    if not len(hit):
        raise KeyError(f"conv_id {conv_id!r} not in the index")
    rank = int(ranks[hit[0]])
    docid = int(cfg.docid(rank, int(turn_idx)))
    shard = int(cfg.chunk_of_rank(rank)) % int(manifest["num_shards"])
    sd = seg.shard_dir(index_dir, shard)
    docs_schema = pq.read_schema(os.path.join(sd, "docs.parquet"))
    attrs = [c for c in docs_schema.names
             if c not in ("docid", "dl") and not c.startswith("dl@")]
    for name in set_values:
        if name not in attrs:
            raise KeyError(
                f"unknown doc attribute {name!r} (have {sorted(attrs)})"
            )
    docids = pq.read_table(
        os.path.join(sd, "docs.parquet"), columns=["docid"]
    )["docid"].to_numpy()
    p = int(np.searchsorted(docids, docid))
    if p >= len(docids) or docids[p] != docid:
        raise KeyError(f"({conv_id!r}, {turn_idx}) not in the index")
    upath = os.path.join(sd, "updates.parquet")
    names = sorted(set_values)
    new_docid = np.full(len(names), docid, dtype=np.int64)
    new_attr = np.asarray(names, dtype=object)
    new_value = np.asarray([str(set_values[a]) for a in names],
                           dtype=object)
    if os.path.exists(upath):
        old = pq.read_table(upath)
        o_id = old["docid"].to_numpy()
        o_attr = old["attr"].to_numpy(zero_copy_only=False)
        o_val = old["value"].to_numpy(zero_copy_only=False)
        # keep-last per (docid, attr): drop prior rows this call rewrites
        drop = (o_id == docid) & np.isin(o_attr.astype(str), names)
        new_docid = np.concatenate([o_id[~drop], new_docid])
        new_attr = np.concatenate([o_attr[~drop], new_attr])
        new_value = np.concatenate([o_val[~drop], new_value])
    merged = pa.table(
        {
            "docid": pa.array(new_docid, type=pa.int64()),
            "attr": pa.array(new_attr, type=pa.string()),
            "value": pa.array(new_value, type=pa.string()),
        }
    )
    seg.atomic_write_parquet(upath, merged)
    new_urev = int(manifest.get("updates_rev", 0)) + 1
    manifest["updates_rev"] = new_urev
    # generational copy for point-in-time readers
    seg.atomic_write_parquet(
        os.path.join(sd, f"updates_g{new_urev}.parquet"), merged
    )
    seg.save_global_manifest(index_dir, manifest)
    return docid


def rows_to_transcript_table(rows: list[dict],
                             max_turns: int | None = None) -> pa.Table:
    """dict rows → a typed transcript table (the ONE coercion shared by
    index_doc and bulk_apply): conv_id/role/text/tool as string,
    turn_idx int32 (range-checked when ``max_turns`` given), ts parsed
    from ISO-8601 strings to timestamp[us]."""
    cols: dict[str, list] = {c: [] for c in TRANSCRIPT_COLUMNS}
    for row in rows:
        t = int(row["turn_idx"])
        if max_turns is not None and not (0 <= t < max_turns):
            raise ValidationError(
                f"turn_idx {t} out of range (max_turns={max_turns})"
            )
        for c in TRANSCRIPT_COLUMNS:
            cols[c].append(row.get(c))
    arrays: dict[str, pa.Array] = {}
    for c, vals in cols.items():
        if c == "turn_idx":
            arrays[c] = pa.array([int(v) for v in vals], type=pa.int32())
        elif c == "ts":
            arrays[c] = pa.array(
                [np.datetime64(v, "us") if isinstance(v, str) else v
                 for v in vals],
                type=pa.timestamp("us"),
            )
        else:
            arrays[c] = pa.array(
                [None if v is None else str(v) for v in vals],
                type=pa.string(),
            )
    return pa.table(arrays)


def index_doc(index_dir: str, row: dict, *, overwrite: bool = False,
              parallelism: int | None = None) -> int:
    """ES single-document ``_index`` analog: add (or, with
    ``overwrite=True``, replace — ES default ``op_type=index``) ONE
    turn. → the doc's docid.

    Shape: a NEW conversation delegates to :func:`append_index` with a
    one-row table (ranked after the corpus, new chunk, one shard
    re-merge — the write path already built for batches). A turn of an
    EXISTING conversation rebuilds ONLY its owning chunk's level-0
    segment from that chunk's docstore slice ± the row (driver-side —
    one chunk is bounded by config, ~2^convs_per_chunk_bits convs) and
    re-merges ONLY the owning shard via the normal streaming merge; all
    other chunks/shards are untouched (their manifests short-circuit
    their merge tasks). There is deliberately NO in-memory indexing
    buffer: per-doc cost is one chunk rebuild + one shard merge, so
    BULK writes belong in ``append_index``/``build_index`` — this is
    the interactive CRUD surface (the reference's ES users do per-doc
    ``_index`` constantly, ElasticWriter.java:158-171).

    Requires ``store_source=True`` (the chunk rebuild re-reads its
    docstore slice). Overwriting a tombstoned doc resurrects it."""
    import pyarrow.parquet as pq
    import ray.data as rd

    manifest = seg.load_global_manifest(index_dir)
    if manifest.get("status") != "complete":
        raise ValidationError("index is not complete")
    cfg = IndexConfig.from_dict(manifest["config"])
    if not cfg.store_source:
        raise ValidationError(
            "index_doc needs store_source=True (chunk rebuild reads "
            "the docstore slice)"
        )
    conv_id = str(row["conv_id"])
    turn_idx = int(row["turn_idx"])
    if not (0 <= turn_idx < cfg.max_turns):
        raise ValidationError(
            f"turn_idx {turn_idx} out of range (max_turns={cfg.max_turns})"
        )
    ranks, ids = _conv_ranks_table(index_dir)
    hit = np.flatnonzero(ids == conv_id)

    if not len(hit):
        # ---- new conversation: the append path is the write path ----
        append_index(
            rd.from_arrow(
                rows_to_transcript_table(
                    [{**row, "conv_id": conv_id, "turn_idx": turn_idx}]
                )
            ),
            index_dir, parallelism=parallelism,
        )
        ranks, ids = _conv_ranks_table(index_dir)
        rank = int(ranks[np.flatnonzero(ids == conv_id)[0]])
        return int(cfg.docid(rank, turn_idx))

    # ---- existing conversation: rebuild the owning chunk ------------
    rank = int(ranks[hit[0]])
    docid = int(cfg.docid(rank, turn_idx))
    chunk = int(cfg.chunk_of_rank(rank))
    # effective (manifest) shard count, NOT the config's requested one:
    # build caps num_shards at the chunk count and force_merge changes it
    shard = chunk % int(manifest["num_shards"])
    cd = seg.chunk_dir(index_dir, chunk)
    store = pq.read_table(os.path.join(cd, "store.parquet"))
    store_cols = [c for c in store.column_names if c != "docid"]
    g = store.to_pandas()
    orig_dtypes = {c: g[c].dtype for c in g.columns}
    exists = bool((g["docid"] == docid).any())
    if exists and not overwrite:
        # ES create succeeds over a DELETED doc (the tombstone counts
        # as absent); only a LIVE doc refuses
        dpath0 = os.path.join(seg.shard_dir(index_dir, shard),
                              "deletes.parquet")
        tombstoned = False
        if os.path.exists(dpath0):
            tombstoned = docid in pq.read_table(
                dpath0
            )["docid"].to_numpy()
        if not tombstoned:
            raise ValidationError(
                f"({conv_id!r}, {turn_idx}) already indexed; pass "
                "overwrite=True (ES op_type=index) or delete_doc first"
            )
    if exists:
        g = g[g["docid"] != docid]
    new_row = {"docid": docid}
    for c in store_cols:
        if c == "conv_id":
            new_row[c] = conv_id
        elif c == "turn_idx":
            new_row[c] = turn_idx
        elif c == "ts":
            v = row.get("ts")
            new_row[c] = (
                pd.Timestamp(v) if v is not None else pd.NaT
            )
        else:
            new_row[c] = row.get(c)
    # typed single-row frame (a bare dict frame would carry all-NA
    # object columns into concat — pandas FutureWarning + dtype drift)
    row_df = pd.DataFrame(
        {
            k: pd.Series([v], dtype=g[k].dtype)
            if g[k].dtype != object
            else pd.Series([v], dtype=object)
            for k, v in new_row.items()
        }
    )
    g = pd.concat([g, row_df], ignore_index=True)
    if "ts" in g.columns:
        g["ts"] = pd.to_datetime(g["ts"]).astype("datetime64[us]")
    # keep the docstore slice's dtypes EXACTLY (turn_idx stays int32
    # etc.) so per-chunk store files never drift schema
    for c, dt in orig_dtypes.items():
        if c != "ts" and str(g[c].dtype) != str(dt):
            g[c] = g[c].astype(dt)
    g["chunk"] = chunk
    # atomic chunk rewrite (same builder as the distributed path)
    make_chunk_builder(index_dir, cfg.to_dict(), store_cols)(g)

    # force ONLY the owning shard to re-merge (its manifest would
    # otherwise short-circuit on the unchanged chunk set)
    sd = seg.shard_dir(index_dir, shard)
    mp = os.path.join(sd, seg.MANIFEST)
    if os.path.exists(mp):
        os.unlink(mp)
    all_chunks = seg.completed_chunks(index_dir)
    shard_bytes = _merge_phase(
        index_dir, cfg, sorted(all_chunks), int(manifest["num_shards"])
    )

    # resurrect: an overwrite makes the doc live again
    dpath = os.path.join(sd, "deletes.parquet")
    if os.path.exists(dpath):
        dead = pq.read_table(dpath)["docid"].to_numpy()
        if docid in dead:
            left = dead[dead != docid]
            tomb = pa.table({"docid": pa.array(left, type=pa.int64())})
            if len(left):
                seg.atomic_write_parquet(dpath, tomb)
            else:
                os.unlink(dpath)
            new_drev = int(manifest.get("deletes_rev", 0)) + 1
            manifest["deletes_rev"] = new_drev
            # generational copy (possibly empty) for PIT readers
            seg.atomic_write_parquet(
                os.path.join(sd, f"deletes_g{new_drev}.parquet"), tomb
            )
    upath = os.path.join(sd, "updates.parquet")
    if os.path.exists(upath):
        import pyarrow.compute as pc

        ut = pq.read_table(upath)
        keep = pc.not_equal(ut["docid"], docid)
        if pc.any(pc.invert(keep)).as_py():
            seg.atomic_write_parquet(upath, ut.filter(keep))
            new_urev = int(manifest.get("updates_rev", 0)) + 1
            manifest["updates_rev"] = new_urev
            seg.atomic_write_parquet(
                os.path.join(sd, f"updates_g{new_urev}.parquet"),
                ut.filter(keep),
            )

    # refresh the global stats from the chunk census
    n_docs = sum(m["n_docs"] for m in all_chunks.values())
    total_dl = sum(m["total_dl"] for m in all_chunks.values())
    field_totals = _sum_field_dl(all_chunks)
    manifest.update(
        {
            "n_docs": int(n_docs),
            "total_dl": int(total_dl),
            "avgdl": (total_dl / n_docs) if n_docs else 0.0,
            "field_avgdl": {
                f: (v / n_docs) if n_docs else 0.0
                for f, v in field_totals.items()
            },
            "n_postings": int(
                sum(m["n_postings"] for m in all_chunks.values())
            ),
            "segment_bytes": int(
                sum(m["bytes_compressed"] for m in all_chunks.values())
            ),
            "shard_bytes": int(shard_bytes),
            "build_id": uuid.uuid4().hex,
        }
    )
    seg.write_chunk_census(index_dir, all_chunks)
    seg.save_global_manifest(index_dir, manifest)
    return docid


def build_status(index_dir: str) -> dict:
    """Progress accounting for a (possibly in-flight) build — the analog
    of the reference's per-import progress percent published over the
    event bus (``ElasticWriter.java:147-156``): percent = finished
    chunks / expected chunks, plus the per-partition counters (turns
    tokenized, postings emitted, bytes compressed) from the chunk
    manifests."""
    try:
        manifest = seg.load_global_manifest(index_dir)
    except FileNotFoundError:
        return {"status": "absent", "percent": 0.0}
    done = seg.completed_chunks(index_dir)
    n_convs = manifest.get("n_convs", 0)
    cfg = IndexConfig.from_dict(manifest["config"])
    expected = manifest.get(
        "n_chunks",
        ((n_convs - 1) >> cfg.convs_per_chunk_bits) + 1 if n_convs else 0,
    )
    return {
        "status": manifest.get("status"),
        "chunks_done": len(done),
        "chunks_expected": int(expected),
        "percent": round(100.0 * len(done) / expected, 2) if expected else 0.0,
        "turns_tokenized": sum(m["n_docs"] for m in done.values()),
        "postings_emitted": sum(m["n_postings"] for m in done.values()),
        "bytes_compressed": sum(m["bytes_compressed"] for m in done.values()),
    }


def reindex(src_index: str, dst_index: str,
            config: IndexConfig | None = None, *,
            clear: bool = True, transforms: list | None = None,
            parallelism: int | None = None) -> "BuildResult":
    """ES ``_reindex`` analog: build a NEW index from the source
    index's docstore (the ``_source`` scan), optionally under a
    different :class:`IndexConfig` (changed shard count, field streams,
    analyzer attrs — the reasons ES users reindex).

    Mutation semantics match a Lucene merge: ``delete_by_query``
    tombstones are honored (only live docs survive — ES reindex copies
    live docs), and ``update_by_query`` doc-values overlays are BAKED
    IN (the overlay value becomes the stored attribute, exactly what a
    segment merge does with updatable DVs). Both mutation tables are
    mutation-sized, collected once and broadcast via ``ray.put`` —
    never per batch. The docstore itself streams through the normal
    distributed build path: one parquet file per source chunk read as
    a Dataset, never driver-materialized.
    """
    import pyarrow.parquet as pq
    import ray
    import ray.data  # noqa: F401  (ray.data.read_parquet below)

    files = seg.docstore_files(src_index)
    if not files:
        raise FileNotFoundError(f"no docstore slices under {src_index}")
    m = seg.load_global_manifest(src_index)
    if m.get("status") != "complete":
        raise RuntimeError(
            f"source index {src_index!r} is not complete "
            f"(status={m.get('status')!r})"
        )
    if config is None:
        config = IndexConfig.from_dict(m["config"])

    dead_parts, upd_parts = [], []
    for s in range(int(m["num_shards"])):
        sd = seg.shard_dir(src_index, s)
        dp = os.path.join(sd, "deletes.parquet")
        if os.path.exists(dp):
            dead_parts.append(pq.read_table(dp)["docid"].to_numpy())
        up = os.path.join(sd, "updates.parquet")
        if os.path.exists(up):
            upd_parts.append(pq.read_table(up))
    dead = (
        np.unique(np.concatenate(dead_parts)) if dead_parts
        else np.zeros(0, dtype=np.int64)
    )
    overlays: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    if upd_parts:
        upd = pa.concat_tables(upd_parts)
        ua = upd["attr"].to_numpy(zero_copy_only=False)
        uid = upd["docid"].to_numpy()
        uval = upd["value"].to_numpy(zero_copy_only=False)
        for name in np.unique(ua):
            mm = ua == name
            o = np.argsort(uid[mm], kind="stable")
            overlays[str(name)] = (uid[mm][o], uval[mm][o])
    ref = ray.put((dead, overlays))

    footer = pq.ParquetFile(files[0]).schema_arrow
    src_cols = [
        c for c in ("docid", *TRANSCRIPT_COLUMNS) if c in footer.names
    ]
    out_cols = [c for c in src_cols if c != "docid"]

    def live_source(batch: pa.Table) -> pa.Table:
        b_dead, b_over = ray.get(ref)
        ids = batch["docid"].to_numpy()
        if len(b_dead):
            batch = batch.filter(
                pa.array(~np.isin(ids, b_dead), type=pa.bool_())
            )
            ids = batch["docid"].to_numpy()
        for name, (o_ids, o_vals) in b_over.items():
            if name not in batch.column_names or not len(ids):
                continue
            pos = np.searchsorted(o_ids, ids)
            hit = (pos < len(o_ids)) & (
                o_ids[np.minimum(pos, len(o_ids) - 1)] == ids
            )
            if not hit.any():
                continue
            col = batch[name]
            if pa.types.is_timestamp(col.type):
                vals = col.to_numpy().astype("datetime64[us]").copy()
                vals[hit] = [
                    np.datetime64(v, "us") for v in o_vals[pos[hit]]
                ]
                new = pa.array(vals)
            else:
                vals = col.to_numpy(zero_copy_only=False).astype(object)
                vals[hit] = o_vals[pos[hit]]
                new = pa.array(vals, type=col.type)
            batch = batch.set_column(
                batch.column_names.index(name), name, new
            )
        return batch.select(out_cols)

    from excelastic_ray.io import read_parquet_clean

    ds = read_parquet_clean(files, columns=src_cols).map_batches(
        live_source, batch_format="pyarrow"
    )
    # strict_turns=False: tombstones punch holes in the 0..n-1 turn
    # sequence; bounds still checked, duplicates still caught by the
    # chunk builder's docid guard
    # the output schema comes from the footer: asking Ray Data for it
    # would run live_source up to its first block, and cancelling that
    # run can abort Ray's core worker
    return build_index(
        ds, dst_index, config, clear=clear, transforms=transforms,
        parallelism=parallelism, strict_turns=not len(dead),
        schema=pa.schema([footer.field(c) for c in out_cols]),
    )


def force_merge(index_dir: str, num_shards: int = 1) -> dict:
    """ES ``_forcemerge`` analog: re-merge the retained level-0 chunk
    segments into ``num_shards`` larger shards (ES
    ``max_num_segments``). Fewer, larger shards = lower per-query
    fan-out — the read-optimized compaction an index gets after its
    write phase ends.

    Reuses the build's streaming merge verbatim (chunk segments are
    immutable and still on disk), so peak memory stays one record
    batch per chunk and results are byte-equivalent to having built
    with the target shard count. Not a new exchange: the chunks were
    already term-sorted at build time.

    Refuses when delete/update overlays exist (their docid→shard
    placement would change): ES's expunge-deletes variant is the
    ``reindex`` path here, which rewrites the corpus without the dead
    docs. Crash-safe: the manifest leaves ``complete`` before any
    shard file changes and returns only at the end with a fresh
    ``build_id``; re-running after a crash completes idempotently
    (per-shard manifests skip finished work).
    """
    import shutil

    m = seg.load_global_manifest(index_dir)
    if m.get("status") not in ("complete", "force_merging"):
        raise RuntimeError(
            f"index is not complete (status={m.get('status')!r})"
        )
    if m.get("deletes_rev", 0) or m.get("updates_rev", 0):
        raise RuntimeError(
            "force_merge with delete/update overlays is not supported; "
            "run reindex() to expunge them first"
        )
    if int(num_shards) < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    config = IndexConfig.from_dict(m["config"])
    chunks = sorted(seg.completed_chunks(index_dir))
    target = min(int(num_shards), len(chunks)) or 1
    if target == int(m["num_shards"]) and m.get("status") == "complete":
        # the no-op shortcut only applies to a HEALTHY index: after a
        # crashed merge (status force_merging) a re-run must rebuild
        # even at the recorded fan-out
        return m
    m["status"] = "force_merging"
    seg.save_global_manifest(index_dir, m)  # readers gate on complete

    # drop stale shard dirs first: a crash between merge and cleanup
    # must never leave shard files that a smaller target would not
    # rewrite (the merge itself replaces files atomically per shard)
    shards_root = os.path.join(index_dir, "shards")
    if os.path.isdir(shards_root):
        for name in sorted(os.listdir(shards_root)):
            if name.startswith("shard=") and \
                    int(name.split("=")[1]) >= target:
                shutil.rmtree(os.path.join(shards_root, name))
            elif name.startswith("shard="):
                # chunk sets change for every shard on a fan-out
                # change; clear the manifest so the merger rebuilds
                p = os.path.join(shards_root, name, seg.MANIFEST)
                if os.path.exists(p):
                    os.unlink(p)

    shard_bytes = _merge_phase(index_dir, config, chunks, target)

    m["num_shards"] = target
    m["shard_bytes"] = int(shard_bytes)
    m["status"] = "complete"
    m["build_id"] = uuid.uuid4().hex
    seg.save_global_manifest(index_dir, m)
    return m


def shrink_index(src_dir: str, dst_dir: str, num_shards: int) -> dict:
    """ES ``_shrink`` analog: a NEW index at a smaller shard fan-out
    (the target must be a FACTOR of the source count, the ES rule),
    built from the source's immutable level-0 chunk segments. See
    ``_resize_index`` for the mechanics and guarantees."""
    return _resize_index(src_dir, dst_dir, num_shards, "shrink")


def split_index(src_dir: str, dst_dir: str, num_shards: int) -> dict:
    """ES ``_split`` analog: a NEW index at a larger shard fan-out
    (the target must be a MULTIPLE of the source count, the ES rule).
    See ``_resize_index``."""
    return _resize_index(src_dir, dst_dir, num_shards, "split")


def _resize_index(src_dir: str, dst_dir: str, num_shards: int,
                  mode: str) -> dict:
    """Shared ``_shrink``/``_split`` body. ES resizes by hard-linking
    Lucene segments into a new index and re-distributing; this engine
    does the literal analog — the chunk segments and the census/rank
    tables hard-link into ``dst_dir`` (copy fallback across
    filesystems; chunk segments are immutable so sharing is safe) and
    ONLY the shard merge re-runs at the new fan-out. Because the
    merge is a deterministic function of (chunk set, target count),
    the resized shards are byte-identical to a fresh build at the
    target fan-out (pinned in tests/test_resize.py), and df-at-query-
    time makes results identical at ANY fan-out regardless.

    Refuses delete/update overlays (their docid→shard placement would
    change — same rule as ``force_merge``; ES likewise requires a
    read-only healthy source). The target directory must not already
    contain an index (ES: the target must not exist). Crash-safe: the
    destination manifest stays ``resizing`` until the merge completes,
    so readers never open a half-merged resize; re-running completes
    idempotently (per-shard manifests skip finished work)."""
    from excelastic_ray.index.snapshot import _link_or_copy

    m = seg.load_global_manifest(src_dir)
    if m.get("status") != "complete":
        raise RuntimeError(
            f"source index is not complete (status={m.get('status')!r})"
        )
    if m.get("deletes_rev", 0) or m.get("updates_rev", 0):
        raise RuntimeError(
            f"{mode} with delete/update overlays is not supported; "
            "run reindex() to expunge them first"
        )
    src_n = int(m["num_shards"])
    target = int(num_shards)
    if target < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if mode == "shrink":
        if target > src_n or src_n % target:
            raise ValueError(
                f"_shrink target {target} must be a factor of the "
                f"source shard count {src_n}"
            )
    elif mode == "split":
        if target < src_n or target % src_n:
            raise ValueError(
                f"_split target {target} must be a multiple of the "
                f"source shard count {src_n}"
            )
    else:
        raise ValueError(f"unknown resize mode {mode!r}")
    chunks = sorted(seg.completed_chunks(src_dir))
    if target > len(chunks):
        raise ValueError(
            f"cannot {mode} to {target} shards: the index has only "
            f"{len(chunks)} chunk segments (shard = chunk % num_shards "
            "would leave empty shards)"
        )
    if os.path.isdir(dst_dir) and os.listdir(dst_dir):
        # the one legal non-empty target: OUR OWN crashed resize (same
        # source geometry, still mid-merge) — resume it; per-shard
        # manifests skip finished work. Anything else is refused (ES:
        # the resize target must not exist).
        try:
            dm = seg.load_global_manifest(dst_dir)
        except Exception:
            dm = None
        resumable = (
            dm is not None
            and dm.get("status") == "resizing"
            and int(dm.get("num_shards", -1)) == target
            and dm.get("config") == {**m["config"],
                                     "num_shards": target}
        )
        if not resumable:
            raise RuntimeError(
                f"target index dir {dst_dir!r} is not empty (and is "
                "not a resumable crashed resize of this source)"
            )
    os.makedirs(dst_dir, exist_ok=True)
    # the 'resizing' manifest goes down FIRST: a crash anywhere in the
    # link phase then leaves a resumable target (the links below are
    # idempotent via the exists checks), never an unidentifiable
    # non-empty dir
    nm = dict(m)
    nm["config"] = {**m["config"], "num_shards": target}
    nm["num_shards"] = target
    nm["status"] = "resizing"
    seg.save_global_manifest(dst_dir, nm)

    def _link_tree(src: str, dst: str) -> None:
        """Hard-link a file OR a directory of files (convs.parquet is
        a DIRECTORY on distributed-census builds); resume-safe — a
        path already linked by a crashed run stays as-is (chunk
        segments are immutable, so existence == correctness)."""
        if os.path.isdir(src):
            for name in sorted(os.listdir(src)):
                _link_tree(os.path.join(src, name),
                           os.path.join(dst, name))
        elif not os.path.exists(dst):
            _link_or_copy(src, dst)

    for name in ("chunks.parquet", "convs.parquet"):
        p = os.path.join(src_dir, name)
        if os.path.exists(p):
            _link_tree(p, os.path.join(dst_dir, name))
    for c in chunks:
        _link_tree(seg.chunk_dir(src_dir, c), seg.chunk_dir(dst_dir, c))
    config = IndexConfig.from_dict(nm["config"])
    shard_bytes = _merge_phase(dst_dir, config, chunks, target)
    nm["shard_bytes"] = int(shard_bytes)
    nm["status"] = "complete"
    nm["build_id"] = uuid.uuid4().hex
    seg.save_global_manifest(dst_dir, nm)
    return nm
