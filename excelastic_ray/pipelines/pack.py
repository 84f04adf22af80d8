"""Sequence packing (concat-and-chunk) for LLM training data.

GPT-style packing: documents are laid end-to-end in a deterministic
order (ascending ``doc_id``), each followed by one end-of-document
separator token, and the resulting token stream is cut into fixed
``seq_len`` training sequences. The operator assigns every document its
global token offset and the sequence range it lands in — the manifest a
trainer needs to build packed batches without ever materializing the
token stream.

Reference relationship: the reference (codingchili/excelastic) has no
training-data surface; this extends the engine the same way the other
``pipelines/`` operators do (SURVEY §2 "beyond-the-reference" ops).

Scale shape (the interesting part — a global exclusive prefix-sum
without a global sort):

1. ONE pass over ``text`` computes per-doc token counts with Arrow C
   kernels (``utf8_lower`` + ``count_substring_regex`` on the analyzer
   pattern — zero Python tokens), emitting a narrow
   ``(doc_id, n_tokens, bucket)`` dataset that is materialized and
   reused (≈20 B/doc in the object store, spillable).
2. ``bucket`` is an ORDER-PRESERVING linear map of ``doc_id`` onto
   ``n_buckets`` ranges (computed from one min/max aggregate pass over
   the narrow dataset), so cross-bucket order equals doc_id order by
   construction — no sort shuffle anywhere. Assumes roughly uniform
   doc_id coverage; a hot bucket degrades to corpus/K rows in one
   group, never the corpus.
3. Per-bucket token sums (``groupby(bucket).sum``, K rows) come to the
   driver — O(K), never O(docs) — and an exclusive scan over them
   yields each bucket's global token offset, broadcast via the closure.
4. ``groupby(bucket).map_groups`` sorts WITHIN each bucket (bounded
   group, vectorized argsort) and adds the in-bucket exclusive cumsum
   to the bucket offset → exact global offsets, parallelism-invariant.

Exactly two shuffles of the NARROW table (the groupby in 3 reuses the
materialized input of 4's groupby; text is read once), which is why this
holds at 10^12 tokens: the wide text column never enters a shuffle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from excelastic_ray.analysis import TOKEN_PATTERN


def _count_tokens(batch: pa.Table, text_col: str, eod: int) -> pa.Table:
    """Narrow projection: (doc_id, n_tokens) with n_tokens including the
    ``eod`` separator — pure Arrow/RE2, no Python per row."""
    low = pc.utf8_lower(pc.coalesce(batch[text_col], ""))
    n = pc.count_substring_regex(low, pattern=TOKEN_PATTERN)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_tokens": pc.add(pc.cast(n, pa.int64()), eod),
        }
    )


def pack_sequences(ds, seq_len: int = 2048, eod: int = 1,
                   n_buckets: int = 64, text_col: str = "text"):
    """→ Dataset(doc_id, n_tokens, tok_start, seq_first, seq_off,
    seq_last) — the packing manifest for a fixed ``seq_len`` context.

    ``n_tokens`` includes ``eod`` separator token(s); ``tok_start`` is
    the doc's global offset in the concatenated stream (exclusive
    prefix-sum in ascending doc_id order); ``seq_first``/``seq_last``
    are the first/last training sequences the doc touches and
    ``seq_off`` its offset within ``seq_first``. Deterministic and
    parallelism-invariant: the only order used is ``doc_id`` itself.
    """
    if seq_len <= 0:
        raise ValueError("seq_len must be positive")

    narrow = ds.map_batches(
        _count_tokens, batch_format="pyarrow",
        fn_kwargs={"text_col": text_col, "eod": eod},
    )

    # Order-preserving bucket map from one min/max pass. The narrow
    # dataset is materialized so the census pass and the scan pass both
    # reuse it instead of re-tokenizing the corpus.
    from ray.data.aggregate import Max, Min

    narrow = narrow.materialize()
    mm = narrow.aggregate(
        Min("doc_id", alias_name="mn"), Max("doc_id", alias_name="mx")
    )
    if mm is None or mm.get("mn") is None:
        return narrow  # empty corpus: empty manifest
    lo, hi = int(mm["mn"]), int(mm["mx"])
    span = max(hi - lo + 1, 1)
    k = max(1, min(n_buckets, span))

    def bucketed(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        b = ((ids - lo).astype(np.uint64) * np.uint64(k) //
             np.uint64(span)).astype(np.int64)
        return batch.append_column("bucket", pa.array(b, type=pa.int64()))

    narrow = narrow.map_batches(bucketed, batch_format="pyarrow").materialize()

    # Per-bucket token sums → driver (O(k) rows) → exclusive scan.
    from ray.data.aggregate import Sum

    census = narrow.groupby("bucket").aggregate(
        Sum("n_tokens", alias_name="tok")
    ).to_pandas()
    census = census.sort_values("bucket").reset_index(drop=True)
    offs = np.zeros(k, dtype=np.int64)
    cum = np.concatenate(
        [[0], np.cumsum(census["tok"].to_numpy(dtype=np.int64))[:-1]]
    )
    offs[census["bucket"].to_numpy()] = cum

    def scan_bucket(g: pd.DataFrame) -> pa.Table:
        order = np.argsort(g["doc_id"].to_numpy(), kind="stable")
        ids = g["doc_id"].to_numpy()[order]
        nt = g["n_tokens"].to_numpy()[order]
        start = offs[int(g["bucket"].iloc[0])] + np.concatenate(
            [[0], np.cumsum(nt)[:-1]]
        )
        last_tok = start + nt - 1
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "n_tokens": pa.array(nt, type=pa.int64()),
                "tok_start": pa.array(start, type=pa.int64()),
                "seq_first": pa.array(start // seq_len, type=pa.int64()),
                "seq_off": pa.array(start % seq_len, type=pa.int64()),
                "seq_last": pa.array(last_tok // seq_len, type=pa.int64()),
            }
        )

    return narrow.groupby("bucket").map_groups(
        scan_bucket, batch_format="pandas"
    )


def pack_stats(ds, seq_len: int = 2048, eod: int = 1,
               n_buckets: int = 64, text_col: str = "text"):
    """Packing efficiency summary → 1-row Dataset: total docs / tokens,
    number of ``seq_len`` sequences, fill ratio of the final (ragged)
    sequence, and how many docs straddle a sequence boundary — the
    numbers that decide whether ``seq_len`` fits the corpus."""
    import ray.data  # noqa: F401  (ds comes in as a Dataset already)

    manifest = pack_sequences(ds, seq_len, eod, n_buckets, text_col)

    def partial(batch: pa.Table) -> pa.Table:
        nt = batch["n_tokens"].to_numpy()
        straddle = (
            batch["seq_last"].to_numpy() > batch["seq_first"].to_numpy()
        )
        return pa.table(
            {
                "docs": pa.array([len(nt)], type=pa.int64()),
                "tokens": pa.array([int(nt.sum())], type=pa.int64()),
                "straddlers": pa.array([int(straddle.sum())],
                                       type=pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    agg = manifest.map_batches(partial, batch_format="pyarrow").aggregate(
        Sum("docs", alias_name="docs"),
        Sum("tokens", alias_name="tokens"),
        Sum("straddlers", alias_name="straddlers"),
    )
    docs = int(agg["docs"] or 0)
    tokens = int(agg["tokens"] or 0)
    n_seqs = -(-tokens // seq_len) if tokens else 0
    fill = (tokens - (n_seqs - 1) * seq_len) / seq_len if n_seqs else 0.0
    from excelastic_ray.pipelines.textstats import trunc6

    return pa.table(
        {
            "docs": pa.array([docs], type=pa.int64()),
            "tokens": pa.array([tokens], type=pa.int64()),
            "n_seqs": pa.array([n_seqs], type=pa.int64()),
            "last_fill": pa.array(
                trunc6(np.array([fill])), type=pa.float64()
            ),
            "straddlers": pa.array([int(agg["straddlers"] or 0)],
                                   type=pa.int64()),
        }
    )


def chunk_documents(ds, chunk_tokens: int = 64, overlap: int = 16,
                    id_col: str = "doc_id", text_col: str = "text"):
    """Sliding token-window document chunking — the RAG / long-context
    preprocessing splitter: each document's analyzer-token stream is
    cut into windows of ``chunk_tokens`` tokens advancing by
    ``stride = chunk_tokens - overlap``, so consecutive chunks share
    ``overlap`` tokens. Emits one row per chunk:
    (id, chunk_idx, start_tok, n_tokens, chunk_text) with chunk_text
    the space-joined analyzer tokens (the retrieval unit an embedder
    consumes).

    Fully-specified window rule (shared by the SQL twin): a doc with
    cnt tokens emits 0 chunks when cnt = 0, 1 when cnt ≤ chunk_tokens,
    else ceil((cnt - chunk_tokens) / stride) + 1 — the final window is
    the only one allowed to be short, and every token is covered.

    Scale shape: a PURE per-batch map (no shuffle, no state) — chunking
    10^12 tokens is embarrassingly parallel; output is ~(1 +
    overlap/stride)× the input tokens, streamed straight to the
    consumer or sink. Window offsets are deterministic per doc, so
    re-running a failed block reproduces identical chunks (resumable
    partitioned export composes)."""
    if not 0 <= overlap < chunk_tokens:
        raise ValueError("need 0 <= overlap < chunk_tokens")
    stride = chunk_tokens - overlap
    from excelastic_ray.analysis import TOKEN_RE

    def batch_fn(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        ids = batch[id_col]
        findall = TOKEN_RE.findall
        toks = [findall(t.lower()) if t else [] for t in texts]
        cnt = np.fromiter((len(t) for t in toks), dtype=np.int64,
                          count=len(toks))
        n_chunks = np.where(
            cnt == 0, 0,
            np.where(cnt <= chunk_tokens, 1,
                     (cnt - chunk_tokens + stride - 1) // stride + 1),
        )
        doc_of = np.repeat(np.arange(len(toks), dtype=np.int64), n_chunks)
        # chunk_idx = position within each doc's run
        offs = np.concatenate(([0], np.cumsum(n_chunks)))[:-1]
        chunk_idx = np.arange(len(doc_of), dtype=np.int64) - offs[doc_of]
        start = chunk_idx * stride
        end = np.minimum(start + chunk_tokens, cnt[doc_of])
        text_out = [
            " ".join(toks[d][s:e])
            for d, s, e in zip(doc_of.tolist(), start.tolist(),
                               end.tolist())
        ]
        return pa.table(
            {
                id_col: ids.take(pa.array(doc_of)),
                "chunk_idx": pa.array(chunk_idx, type=pa.int64()),
                "start_tok": pa.array(start, type=pa.int64()),
                "n_tokens": pa.array(end - start, type=pa.int64()),
                "chunk_text": pa.array(text_out, type=pa.string()),
            }
        )

    return ds.map_batches(batch_fn, batch_format="pyarrow")
