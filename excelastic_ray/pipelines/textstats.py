"""Text analysis: token stats, quality scoring, language id, fingerprints.

Every metric here has an exact DuckDB-SQL twin (see __ray_entry__
oracle_sql) built on the same tokenizer expression
``regexp_extract_all(lower(text), '[a-z0-9_]+')``; ratios are rounded
HALF-UP to 6 decimals (floor(x*1e6 + 0.5)/1e6) on both sides so IEEE
float noise can't flip a digit (see :func:`trunc6`).

Vectorization: one ``map_batches`` pass; per-batch tokens are
factorized once (pandas C code path) and every per-language /
per-metric count is a numpy ``bincount`` over row indices — no Python
loop over tokens in the hot path.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from excelastic_ray.analysis import TOKEN_RE
from excelastic_ray.hashing import combine_by_key, fnv1a_rows

# Tiny per-language stopword lists (the langid heuristic). Keep in exact
# lockstep with the SQL lists in __ray_entry__.py.
STOPWORDS = {
    "de": ["der", "die", "und", "das", "ist", "ein", "zu", "mit", "den", "von"],
    "en": ["the", "and", "of", "to", "a", "in", "is", "it", "you", "that"],
    "es": ["el", "la", "de", "que", "y", "en", "un", "es", "se", "no"],
    "fr": ["le", "la", "de", "et", "un", "est", "que", "pour", "dans", "ce"],
}
LANG_ORDER = sorted(STOPWORDS)  # alphabetical tie-break precedence

FNV_OFFSET = np.uint64(14695981039346656037)
FNV_PRIME = np.uint64(1099511628211)


def trunc6(x: np.ndarray) -> np.ndarray:
    """floor(x * 1e6 + 0.5) / 1e6 — SQL-parity round-half-up to 6
    decimals. Half-up (not banker's) because the identical expression is
    used in the oracle SQL; the 0.5 offset keeps the decision boundary
    away from exactly-representable values (e.g. a cosine of 1.0 vs
    0.9999999999999998 must land on the same digit in both engines)."""
    return np.floor(np.asarray(x, dtype=np.float64) * 1e6 + 0.5) / 1e6


def _tokenize_batch(texts: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """→ (codes, uniques, row_idx): factorized tokens + row attribution."""
    findall = TOKEN_RE.findall
    toks = [findall(t.lower()) if t else [] for t in texts]
    counts = np.fromiter((len(t) for t in toks), dtype=np.int64, count=len(toks))
    flat = [w for row in toks for w in row]
    if flat:
        codes, uniques = pd.factorize(np.asarray(flat, dtype=object), sort=False)
    else:
        codes, uniques = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=object)
    row_idx = np.repeat(np.arange(len(texts), dtype=np.int64), counts)
    return codes, uniques, row_idx


def token_stats_batch(batch: pa.Table, id_col: str = "doc_id",
                      text_col: str = "text") -> pa.Table:
    """Per-doc token statistics (vectorized)."""
    texts = batch[text_col].to_pylist()
    n = len(texts)
    codes, uniques, row_idx = _tokenize_batch(texts)
    n_tokens = np.bincount(row_idx, minlength=n).astype(np.int64)
    # distinct terms per row: dedup (row, code) pairs then count rows
    if len(codes):
        pair = pd.DataFrame({"r": row_idx, "c": codes}).drop_duplicates()
        n_distinct = np.bincount(pair["r"].to_numpy(), minlength=n).astype(np.int64)
        tok_lens = np.fromiter(
            (len(u) for u in uniques), dtype=np.int64, count=len(uniques)
        )[codes]
        len_sum = np.bincount(row_idx, weights=tok_lens, minlength=n)
    else:
        n_distinct = np.zeros(n, dtype=np.int64)
        len_sum = np.zeros(n, dtype=np.float64)
    n_chars = np.fromiter(
        (len(t) if t else 0 for t in texts), dtype=np.int64, count=n
    )
    mean_tok_len = trunc6(
        np.divide(len_sum, n_tokens, out=np.zeros(n), where=n_tokens > 0)
    )
    return pa.table(
        {
            id_col: batch[id_col],
            "n_chars": pa.array(n_chars),
            "n_tokens": pa.array(n_tokens),
            "n_distinct": pa.array(n_distinct),
            "mean_tok_len": pa.array(mean_tok_len),
        }
    )


def quality_batch(batch: pa.Table, id_col: str = "doc_id",
                  text_col: str = "text") -> pa.Table:
    """Quality signals: token count, EN-stopword ratio, distinct ratio."""
    texts = batch[text_col].to_pylist()
    n = len(texts)
    codes, uniques, row_idx = _tokenize_batch(texts)
    n_tokens = np.bincount(row_idx, minlength=n).astype(np.int64)
    if len(codes):
        stop_u = np.isin(uniques.astype(str), STOPWORDS["en"])
        mask = stop_u[codes]
        stop_hits = np.bincount(row_idx[mask], minlength=n).astype(np.int64)
        pair = pd.DataFrame({"r": row_idx, "c": codes}).drop_duplicates()
        n_distinct = np.bincount(pair["r"].to_numpy(), minlength=n).astype(np.int64)
    else:
        stop_hits = np.zeros(n, dtype=np.int64)
        n_distinct = np.zeros(n, dtype=np.int64)
    safe = np.maximum(n_tokens, 1)
    stop_ratio = trunc6(np.where(n_tokens > 0, stop_hits / safe, 0.0))
    distinct_ratio = trunc6(np.where(n_tokens > 0, n_distinct / safe, 0.0))
    return pa.table(
        {
            id_col: batch[id_col],
            "n_tokens": pa.array(n_tokens),
            "stop_hits": pa.array(stop_hits),
            "stop_ratio": pa.array(stop_ratio),
            "distinct_ratio": pa.array(distinct_ratio),
        }
    )


def langid_batch(batch: pa.Table, id_col: str = "doc_id",
                 text_col: str = "text") -> pa.Table:
    """N-gram-free language id: stopword-hit argmax with alphabetical
    tie-break; 'und' when no list matches."""
    texts = batch[text_col].to_pylist()
    n = len(texts)
    codes, uniques, row_idx = _tokenize_batch(texts)
    hits = np.zeros((len(LANG_ORDER), n), dtype=np.int64)
    if len(codes):
        u = uniques.astype(str)
        for li, lang in enumerate(LANG_ORDER):
            mask = np.isin(u, STOPWORDS[lang])[codes]
            hits[li] = np.bincount(row_idx[mask], minlength=n)
    best = hits.argmax(axis=0)  # first max → alphabetical precedence
    guess = np.asarray(LANG_ORDER, dtype=object)[best]
    guess[hits.max(axis=0) == 0] = "und"
    out = {id_col: batch[id_col], "lang_guess": pa.array(guess, type=pa.string())}
    for li, lang in enumerate(LANG_ORDER):
        out[f"hits_{lang}"] = pa.array(hits[li])
    return pa.table(out)


def fingerprint_batch(batch: pa.Table, id_col: str = "doc_id",
                      text_col: str = "text") -> pa.Table:
    """Order-sensitive document fingerprint: FNV-1a over the token
    stream (rolling hash). Two docs share a fingerprint iff their token
    sequences are identical — exact-dedup on analyzed content."""
    # The fingerprint is FNV-1a over the byte stream
    # token1 + 0x20 + token2 + 0x20 + ... (trailing separator included),
    # which equals hashing b" ".join(tokens) + b" " — so the whole batch
    # folds through the vectorized row hasher at once.
    findall = TOKEN_RE.findall
    streams = []
    for t in batch[text_col].to_pylist():
        ws = findall(t.lower()) if t else []
        streams.append((" ".join(ws) + " ").encode() if ws else b"")
    out = fnv1a_rows(streams)
    return pa.table(
        {id_col: batch[id_col], "fingerprint": pa.array(out.astype(np.int64))}
    )


def token_stats(ds, **kw):
    return ds.map_batches(lambda b: token_stats_batch(b, **kw),
                          batch_format="pyarrow", batch_size=4096)


def quality(ds, **kw):
    return ds.map_batches(lambda b: quality_batch(b, **kw),
                          batch_format="pyarrow", batch_size=4096)


def langid(ds, **kw):
    return ds.map_batches(lambda b: langid_batch(b, **kw),
                          batch_format="pyarrow", batch_size=4096)


def fingerprints(ds, **kw):
    return ds.map_batches(lambda b: fingerprint_batch(b, **kw),
                          batch_format="pyarrow", batch_size=4096)


def quality_filter_batch(batch: pa.Table, id_col: str = "doc_id",
                         text_col: str = "text", min_tokens: int = 5,
                         max_stop_ratio: float = 0.6,
                         langs: tuple = ("de", "en", "es", "fr")) -> pa.Table:
    """Fused pretraining-corpus filter: token count, EN-stopword ratio
    and language gate computed in ONE pass; emits only surviving ids.
    (Chaining quality() + langid() + a filter would scan the text twice;
    this fuses the metrics over one factorize.)"""
    texts = batch[text_col].to_pylist()
    n = len(texts)
    codes, uniques, row_idx = _tokenize_batch(texts)
    n_tokens = np.bincount(row_idx, minlength=n).astype(np.int64)
    hits = np.zeros((len(LANG_ORDER), n), dtype=np.int64)
    stop_hits = np.zeros(n, dtype=np.int64)
    if len(codes):
        u = uniques.astype(str)
        for li, lang in enumerate(LANG_ORDER):
            mask = np.isin(u, STOPWORDS[lang])[codes]
            hits[li] = np.bincount(row_idx[mask], minlength=n)
        stop_hits = hits[LANG_ORDER.index("en")]
    best = hits.argmax(axis=0)
    guess = np.asarray(LANG_ORDER, dtype=object)[best]
    guess[hits.max(axis=0) == 0] = "und"
    safe = np.maximum(n_tokens, 1)
    stop_ratio = trunc6(np.where(n_tokens > 0, stop_hits / safe, 0.0))
    keep = (
        (n_tokens >= min_tokens)
        & (stop_ratio <= max_stop_ratio)
        & np.isin(guess.astype(str), list(langs))
    )
    return pa.table({id_col: batch[id_col].filter(pa.array(keep))})


def quality_filter(ds, **kw):
    return ds.map_batches(lambda b: quality_filter_batch(b, **kw),
                          batch_format="pyarrow", batch_size=4096)


#: BPE-ish pre-tokenizer pattern (GPT-2-style split into letter runs,
#: digit runs, punctuation runs and whitespace — lookahead-free so the
#: SAME RE2 pattern runs in Arrow and DuckDB). Counting its matches
#: estimates LLM token counts without a vocab.
BPE_SPLIT_RE = r" ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+|\s+"


def bpe_token_count_batch(batch: pa.Table, id_col: str = "doc_id",
                          text_col: str = "text") -> pa.Table:
    """Per-doc BPE-ish token estimate: one count_substring_regex pass
    (C-level RE2 over the Arrow string buffer — no Python tokens)."""
    import pyarrow.compute as pc

    n = pc.count_substring_regex(batch[text_col], pattern=BPE_SPLIT_RE)
    return pa.table(
        {
            id_col: batch[id_col],
            "bpe_tokens": n.cast(pa.int64()),
        }
    )


def bpe_token_count(ds, **kw):
    return ds.map_batches(lambda b: bpe_token_count_batch(b, **kw),
                          batch_format="pyarrow", batch_size=8192)


def term_df(ds, text_col: str = "text", n_buckets: int | None = None):
    """Corpus-wide (term, df, cf): pre-aggregated per batch (one row per
    distinct term per batch), then a COARSE hash-bucketed final combine
    — the fine distributed groupby over a vocabulary of tiny term groups
    paid seconds of per-group machinery (the same pitfall as the window
    combines); bucketing keys into coarse reducer frames with a
    vectorized pandas groupby inside each is cardinality-independent.
    ``n_buckets=None`` auto-sizes by the SCALE.md K rule."""

    def partial(batch: pa.Table) -> pa.Table:
        codes, uniques, row_idx = _tokenize_batch(batch[text_col].to_pylist())
        if not len(codes):
            return pa.table({"term": pa.array([], type=pa.string()),
                             "df": pa.array([], type=pa.int64()),
                             "cf": pa.array([], type=pa.int64())})
        cf = np.bincount(codes, minlength=len(uniques)).astype(np.int64)
        pair = pd.DataFrame({"r": row_idx, "c": codes}).drop_duplicates()
        df = np.bincount(pair["c"].to_numpy(), minlength=len(uniques)).astype(np.int64)
        return pa.table({"term": pa.array(uniques.astype(str)),
                         "df": pa.array(df), "cf": pa.array(cf)})

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.groupby("term", sort=False)
            .agg(df=("df", "sum"), cf=("cf", "sum"))
            .reset_index()
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=8192)
    return combine_by_key(partials, ["term"], combine, size_from=ds,
                          bytes_per_row=8, n_buckets=n_buckets)


def token_quantiles(ds, qs=(0.5, 0.9, 0.99), id_col: str = "doc_id",
                    text_col: str = "text") -> pa.Table:
    """EXACT token-length quantiles over the corpus — no sort, no
    sampling: token counts are small integers, so each batch emits a
    (n_tokens, count) partial HISTOGRAM and the final combine merges
    histograms (bounded by distinct lengths × batches, never by rows).
    Quantile definition matches DuckDB ``quantile_disc``: the smallest
    value v with cumulative_count(v) >= ceil(q * n).

    → pa.Table (q float64, n_tokens int64), one row per requested q.
    At 10^12 docs the partial stream stays tiny (distinct lengths are
    a few thousand); the driver combine is histogram-sized."""

    def partial(batch: pa.Table) -> pd.DataFrame:
        texts = batch[text_col].to_pylist()
        counts = np.fromiter(
            (len(TOKEN_RE.findall(t.lower())) if t else 0 for t in texts),
            dtype=np.int64, count=len(texts),
        )
        vals, cnt = np.unique(counts, return_counts=True)
        return pd.DataFrame({"v": vals, "c": cnt})

    hist = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=8192)
        .to_pandas()
        .groupby("v")["c"].sum().sort_index()
    )
    n = int(hist.sum())
    cum = hist.cumsum().to_numpy()
    vals = hist.index.to_numpy()
    out_q, out_v = [], []
    for q in qs:
        target = int(np.ceil(q * n)) if n else 0
        i = int(np.searchsorted(cum, max(target, 1)))
        out_q.append(float(q))
        out_v.append(int(vals[min(i, len(vals) - 1)]) if n else 0)
    return pa.table(
        {"q": pa.array(out_q, type=pa.float64()),
         "n_tokens": pa.array(out_v, type=pa.int64())}
    )


def keywords(ds, k: int = 3, id_col: str = "doc_id",
             text_col: str = "text", df_budget: int = 50_000_000):
    """Per-doc top-k salient terms ordered by (tf DESC, df ASC, term
    ASC) — "frequent here, rare everywhere" keyword extraction with a
    PURELY INTEGER ordering (no float tf-idf ties to diverge from the
    SQL twin). Two passes: the global df table (partial+final, same as
    term_df) is collected and broadcast via ``ray.put`` (vocabulary-
    sized — bounded by distinct analyzer tokens; beyond ``df_budget``
    terms this must become a term-keyed bucket join, documented not
    built), then one vectorized map ranks each doc's terms against it.

    → Dataset (doc_id, rank, term, tf, df)."""
    import ray

    from excelastic_ray.pipelines.textstats import term_df as _term_df

    # budget gate BEFORE the collect: count the materialized term
    # Dataset (O(1) block metadata) so an over-budget vocabulary never
    # lands on the driver in the first place
    df_ds = _term_df(ds, text_col=text_col).materialize()
    n_terms = df_ds.count()
    if n_terms > df_budget:
        raise ValueError(
            f"vocabulary {n_terms} exceeds df_budget={df_budget}; "
            "use a term-keyed bucket join for this corpus"
        )
    df_pdf = df_ds.to_pandas()
    # sorted term array + df array: term ranks double as the ASC
    # tie-break key. Broadcast as fixed-width numpy (U dtype + int64),
    # NOT object arrays — numeric/unicode buffers come out of the
    # object store zero-copy, object arrays re-unpickle per task.
    df_terms = df_pdf["term"].to_numpy().astype(object)
    order = np.argsort(df_terms)
    df_terms_u = df_terms[order].astype("U")
    df_vals = np.ascontiguousarray(
        df_pdf["df"].to_numpy().astype(np.int64)[order]
    )
    df_ref = ray.put((df_terms_u, df_vals))

    def topk(batch: pa.Table) -> pa.Table:
        terms_sorted, dfs_sorted = ray.get(df_ref)
        texts = batch[text_col].to_pylist()
        ids = batch[id_col].to_numpy().astype(np.int64)
        codes, uniques, row_idx = _tokenize_batch(texts)
        if not len(codes):
            return pa.table(
                {
                    id_col: pa.array([], type=pa.int64()),
                    "rank": pa.array([], type=pa.int32()),
                    "term": pa.array([], type=pa.string()),
                    "tf": pa.array([], type=pa.int64()),
                    "df": pa.array([], type=pa.int64()),
                }
            )
        # per-(row, term) tf via sort + run-length
        key_order = np.lexsort((codes, row_idx))
        r_s, c_s = row_idx[key_order], codes[key_order]
        new = np.empty(len(r_s), dtype=bool)
        new[0] = True
        new[1:] = (r_s[1:] != r_s[:-1]) | (c_s[1:] != c_s[:-1])
        starts = np.flatnonzero(new)
        g_row = r_s[starts]
        g_code = c_s[starts]
        g_tf = np.diff(np.append(starts, len(r_s)))
        # df + global term order per local code (searchsorted into the
        # broadcast dictionary; every corpus term is present)
        u_pos = np.searchsorted(terms_sorted, uniques.astype(str))
        g_pos = u_pos[g_code]           # global term rank (ASC tie-break)
        g_df = dfs_sorted[g_pos]
        sel = np.lexsort((g_pos, g_df, -g_tf, g_row))
        rr = g_row[sel]
        first = np.empty(len(rr), dtype=bool)
        first[0] = True
        first[1:] = rr[1:] != rr[:-1]
        pos_in_row = np.arange(len(rr)) - np.repeat(
            np.flatnonzero(first), np.diff(np.append(np.flatnonzero(first), len(rr)))
        )
        keep = pos_in_row < k
        sel = sel[keep]
        return pa.table(
            {
                id_col: pa.array(ids[g_row[sel]]),
                "rank": pa.array((pos_in_row[keep] + 1).astype(np.int32)),
                "term": pa.array(
                    terms_sorted[g_pos[sel]].astype(object),
                    type=pa.string(),
                ),
                "tf": pa.array(g_tf[sel].astype(np.int64)),
                "df": pa.array(g_df[sel].astype(np.int64)),
            }
        )

    return ds.map_batches(topk, batch_format="pyarrow", batch_size=4096)


def doc_signals(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Gopher-style per-doc quality SIGNALS (beyond the stopword/lang
    gates): line structure, character-class fractions, extreme token
    length — the standard pre-training filter inputs. Fully vectorized:
    character-class counts are RE2 ``count_substring_regex`` kernels
    over the Arrow buffers (shared semantics with the DuckDB twin's
    regexp_extract_all counts); token extremes ride the factorized
    token stream.

    → Dataset (doc_id, n_chars, n_lines, mean_line_len, alpha_frac,
    digit_frac, space_frac, max_token_len), ratios trunc6'd."""
    import pyarrow.compute as pc

    def batch_fn(batch: pa.Table) -> pa.Table:
        col = batch[text_col]
        n = batch.num_rows
        n_chars = pc.utf8_length(col).to_numpy(zero_copy_only=False)
        n_chars = np.where(np.isnan(n_chars.astype(np.float64)), 0,
                           n_chars).astype(np.int64)
        nl = pc.count_substring(col, "\n").to_numpy(zero_copy_only=False)
        nl = np.where(np.isnan(nl.astype(np.float64)), 0, nl).astype(np.int64)
        n_lines = nl + 1
        alpha = pc.count_substring_regex(col, "[A-Za-z]").to_numpy(
            zero_copy_only=False
        )
        alpha = np.where(np.isnan(alpha.astype(np.float64)), 0,
                         alpha).astype(np.int64)
        digit = pc.count_substring_regex(col, "[0-9]").to_numpy(
            zero_copy_only=False
        )
        digit = np.where(np.isnan(digit.astype(np.float64)), 0,
                         digit).astype(np.int64)
        space = pc.count_substring(col, " ").to_numpy(zero_copy_only=False)
        space = np.where(np.isnan(space.astype(np.float64)), 0,
                         space).astype(np.int64)
        codes, uniques, row_idx = _tokenize_batch(col.to_pylist())
        max_tok = np.zeros(n, dtype=np.int64)
        if len(codes):
            tok_lens = np.fromiter(
                (len(u) for u in uniques), dtype=np.int64, count=len(uniques)
            )[codes]
            np.maximum.at(max_tok, row_idx, tok_lens)
        safe = np.maximum(n_chars, 1)
        return pa.table(
            {
                id_col: batch[id_col],
                "n_chars": pa.array(n_chars),
                "n_lines": pa.array(n_lines),
                "mean_line_len": pa.array(trunc6(n_chars / n_lines)),
                "alpha_frac": pa.array(
                    trunc6(np.where(n_chars > 0, alpha / safe, 0.0))
                ),
                "digit_frac": pa.array(
                    trunc6(np.where(n_chars > 0, digit / safe, 0.0))
                ),
                "space_frac": pa.array(
                    trunc6(np.where(n_chars > 0, space / safe, 0.0))
                ),
                "max_token_len": pa.array(max_tok),
            }
        )

    return ds.map_batches(batch_fn, batch_format="pyarrow", batch_size=8192)


def significant_terms(ds, fg_col: str = "source", fg_value: str = "src0",
                      n: int = 10, min_doc_count: int = 3,
                      text_col: str = "text",
                      n_buckets: int | None = None):
    """ES ``significant_terms`` aggregation: terms over-represented in
    a FOREGROUND slice (``fg_col == fg_value``) relative to the whole
    corpus, scored with the JLH heuristic — ``(fg_pct - bg_pct) *
    (fg_pct / bg_pct)`` with fg_pct = fg_df / fg_size and bg_pct =
    df / N (ES: absolute change × relative change; terms with fg_pct
    <= bg_pct score 0 and are dropped, as are terms below
    ``min_doc_count`` foreground docs — the ES default gate of the
    same name).

    One corpus pass: each batch emits per-term (df, fg_df) partials
    PLUS one sentinel row carrying the batch's (docs, fg docs) totals
    (the sentinel term starts with ``\\x00``, outside the analyzer
    alphabet — it can never collide); a coarse hash-bucket combine
    (term_df's cardinality-independent shape) sums both. The totals
    are then a one-group lookup, scoring is a vectorized map over the
    combined term frame, and only the global top-``n`` (score DESC,
    term ASC) — computed via distributed sort + limit — ever reaches
    the driver.

    → pyarrow.Table (rank, term, fg_df, df, score), score trunc6'd.
    """
    _SENTINEL = "\x00__totals__"

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        fg_mask = np.asarray(
            [v == fg_value for v in batch[fg_col].to_pylist()], dtype=bool
        )
        codes, uniques, row_idx = _tokenize_batch(texts)
        terms = [_SENTINEL]
        dfs = [len(texts)]
        fg_dfs = [int(fg_mask.sum())]
        if len(codes):
            pair = pd.DataFrame({"r": row_idx, "c": codes}).drop_duplicates()
            r, c = pair["r"].to_numpy(), pair["c"].to_numpy()
            df = np.bincount(c, minlength=len(uniques)).astype(np.int64)
            fg_df = np.bincount(
                c[fg_mask[r]], minlength=len(uniques)
            ).astype(np.int64)
            terms += [str(u) for u in uniques]
            dfs += df.tolist()
            fg_dfs += fg_df.tolist()
        return pa.table({
            "term": pa.array(terms, type=pa.string()),
            "df": pa.array(dfs, type=pa.int64()),
            "fg_df": pa.array(fg_dfs, type=pa.int64()),
        })

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.groupby("term", sort=False)
            .agg(df=("df", "sum"), fg_df=("fg_df", "sum"))
            .reset_index()
        )

    combined = combine_by_key(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=8192),
        ["term"], combine, size_from=ds, bytes_per_row=8,
        n_buckets=n_buckets,
    ).materialize()
    def _sentinel_only(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.equal(t["term"], _SENTINEL))

    tot = combined.map_batches(
        _sentinel_only, batch_format="pyarrow"
    ).take_all()
    n_docs, fg_size = int(tot[0]["df"]), int(tot[0]["fg_df"])
    if fg_size == 0:
        return pa.table({
            "rank": pa.array([], type=pa.int32()),
            "term": pa.array([], type=pa.string()),
            "fg_df": pa.array([], type=pa.int64()),
            "df": pa.array([], type=pa.int64()),
            "score": pa.array([], type=pa.float64()),
        })

    def score(batch: pa.Table) -> pa.Table:
        terms = np.asarray(batch["term"].to_pylist(), dtype=object)
        df = batch["df"].to_numpy().astype(np.float64)
        fg_df = batch["fg_df"].to_numpy().astype(np.float64)
        keep = (terms != _SENTINEL) & (fg_df >= min_doc_count)
        fg_pct = fg_df / fg_size
        bg_pct = df / n_docs
        with np.errstate(divide="ignore", invalid="ignore"):
            jlh = (fg_pct - bg_pct) * (fg_pct / bg_pct)
        keep &= fg_pct > bg_pct
        return pa.table({
            "term": pa.array(terms[keep].astype(str)),
            "fg_df": pa.array(fg_df[keep].astype(np.int64)),
            "df": pa.array(df[keep].astype(np.int64)),
            "score": pa.array(trunc6(jlh[keep]), type=pa.float64()),
        })

    top = (
        combined.map_batches(score, batch_format="pyarrow")
        .sort(["score", "term"], descending=[True, False])
        .limit(n)
        .to_pandas()
    )
    return pa.table({
        "rank": pa.array(np.arange(1, len(top) + 1, dtype=np.int32)),
        "term": pa.array(top["term"].astype(str)),
        "fg_df": pa.array(top["fg_df"].to_numpy().astype(np.int64)),
        "df": pa.array(top["df"].to_numpy().astype(np.int64)),
        "score": pa.array(top["score"].to_numpy(), type=pa.float64()),
    })


def lm_score(ds, min_count: int = 2, k_smooth: float = 0.1,
             id_col: str = "doc_id", text_col: str = "text",
             n_buckets: int | None = None,
             vocab_budget: int = 5_000_000,
             bigram_budget: int = 50_000_000):
    """CCNet-style n-gram language-model quality scoring: train an
    add-k-smoothed BIGRAM word LM on the corpus and score every doc by
    its average per-bigram log-probability / perplexity (the KenLM
    wikipedia-perplexity filter of the CCNet pre-training pipeline,
    self-trained here — low-probability docs are gibberish/boilerplate
    candidates, high are natural text).

    Model: tokens with corpus occurrence count < ``min_count`` collapse
    to one ``<unk>`` symbol; P(w2|w1) = (c(w1,w2) + k) / (c(w1) + k*V)
    with V = vocab size + 1 (the unk) and c(.) occurrence counts over
    the mapped stream.

    Exactness trick — INTEGER MICRO-NATS: each bigram's log-prob is
    quantized to ``floor(ln(p) * 1e6 + 0.5)`` as an int64 BEFORE the
    per-doc summation. Both engines compute the per-bigram double with
    the identical expression (same inputs, same libm), so the quantized
    integers are equal by construction, and integer sums are exact in
    ANY order — float summation-order drift (engine pairwise vs SQL
    sequential) can never flip a rounded digit of the doc totals.

    Scale shape: pass A = unigram occurrence counts (per-batch bincount
    partials, coarse-bucket combine); pass B = bigram counts over the
    mapped stream keyed ``c1 * V + c2`` (same shape); both model tables
    are budget-GATED by a count before they are collected and
    ``ray.put`` once; pass C is a pure scoring map (searchsorted lookups
    against the broadcast arrays). Reducers and the driver hold
    model-sized tables, never the corpus.

    → Dataset (id, n_bigrams, logprob_u6, avg_logprob, ppl) over docs
    with >= 1 bigram (>= 2 tokens); avg/ppl trunc6'd.
    """
    import ray

    def uni_partial(batch: pa.Table) -> pa.Table:
        codes, uniques, _ = _tokenize_batch(batch[text_col].to_pylist())
        if len(codes):
            c = np.bincount(codes, minlength=len(uniques)).astype(np.int64)
            terms = [str(u) for u in uniques]
        else:
            terms, c = [], np.zeros(0, dtype=np.int64)
        return pa.table({"term": pa.array(terms, type=pa.string()),
                         "c": pa.array(c)})

    def uni_combine(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("term", sort=False)["c"].sum().reset_index()

    ucnt_ds = combine_by_key(
        ds.map_batches(uni_partial, batch_format="pyarrow", batch_size=8192),
        ["term"], uni_combine, size_from=ds, bytes_per_row=8,
        n_buckets=n_buckets,
    ).materialize()
    n_raw_terms = ucnt_ds.count()
    if n_raw_terms > vocab_budget:
        raise ValueError(
            f"{n_raw_terms} distinct tokens exceed vocab_budget="
            f"{vocab_budget}; raise min_count or the budget"
        )
    ucnt = ucnt_ds.to_pandas()
    in_vocab = ucnt["c"].to_numpy() >= min_count
    order = np.argsort(ucnt["term"].to_numpy()[in_vocab].astype(str))
    vocab = ucnt["term"].to_numpy()[in_vocab].astype(str)[order]  # U-dtype
    cu = np.append(
        ucnt["c"].to_numpy()[in_vocab][order].astype(np.float64),
        float(ucnt["c"].to_numpy()[~in_vocab].sum()),  # <unk> count
    )
    n_vocab = len(vocab)
    v_total = float(n_vocab + 1)
    vocab_ref = ray.put(vocab)  # fixed-width buffer: zero-copy reads

    def mapped_pairs(batch: pa.Table):
        """→ (pair_row, c1, c2, n_rows) for in-doc adjacent pairs."""
        voc = ray.get(vocab_ref)
        texts = batch[text_col].to_pylist()
        codes, uniques, row_idx = _tokenize_batch(texts)
        uniq_s = uniques.astype(str) if len(uniques) else np.zeros(0, "U1")
        pos = np.searchsorted(voc, uniq_s)
        pos_c = np.minimum(pos, max(n_vocab - 1, 0))
        hit = (
            (pos < n_vocab) & (voc[pos_c] == uniq_s) if n_vocab
            else np.zeros(len(uniq_s), dtype=bool)
        )
        ucode = np.where(hit, pos, n_vocab).astype(np.int64)
        mc = ucode[codes] if len(codes) else np.zeros(0, dtype=np.int64)
        if len(mc) < 2:
            e = np.zeros(0, dtype=np.int64)
            return e, e, e, len(texts)
        keep = row_idx[:-1] == row_idx[1:]
        return (row_idx[:-1][keep], mc[:-1][keep], mc[1:][keep],
                len(texts))

    def bi_partial(batch: pa.Table) -> pa.Table:
        _, c1, c2, _ = mapped_pairs(batch)
        keys, cnts = np.unique(c1 * np.int64(v_total) + c2,
                               return_counts=True)
        return pa.table({"key": pa.array(keys.astype(np.int64)),
                         "c": pa.array(cnts.astype(np.int64))})

    def bi_combine(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("key", sort=False)["c"].sum().reset_index()

    bcnt_ds = combine_by_key(
        ds.map_batches(bi_partial, batch_format="pyarrow", batch_size=8192),
        ["key"], bi_combine, size_from=ds, bytes_per_row=8,
        n_buckets=n_buckets,
    ).materialize()
    n_bigram_keys = bcnt_ds.count()
    if n_bigram_keys > bigram_budget:
        raise ValueError(
            f"{n_bigram_keys} distinct bigrams exceed bigram_budget="
            f"{bigram_budget}; raise min_count or the budget"
        )
    bdf = bcnt_ds.to_pandas()
    border = np.argsort(bdf["key"].to_numpy())
    bkeys = bdf["key"].to_numpy()[border]
    bc = bdf["c"].to_numpy()[border].astype(np.float64)
    bigram_ref = ray.put((bkeys, bc))
    cu_ref = ray.put(cu)

    def score(batch: pa.Table) -> pa.Table:
        bkeys_, bc_ = ray.get(bigram_ref)
        cu_ = ray.get(cu_ref)
        pair_row, c1, c2, n_rows = mapped_pairs(batch)
        keys = c1 * np.int64(v_total) + c2
        pos = np.searchsorted(bkeys_, keys)
        pos_c = np.minimum(pos, max(len(bkeys_) - 1, 0))
        found = (pos < len(bkeys_)) & (bkeys_[pos_c] == keys)
        cb = np.where(found, bc_[pos_c], 0.0)
        logp = np.log((cb + k_smooth) / (cu_[c1] + k_smooth * v_total))
        u6 = np.floor(logp * 1e6 + 0.5)  # integer micro-nats (as f64)
        lp = np.bincount(pair_row, weights=u6, minlength=n_rows)
        nb = np.bincount(pair_row, minlength=n_rows).astype(np.int64)
        keep = nb >= 1
        lp = lp[keep].astype(np.int64)
        nbk = nb[keep]
        avg = (lp / 1e6) / nbk
        return pa.table({
            id_col: batch[id_col].filter(pa.array(keep)),
            "n_bigrams": pa.array(nbk),
            "logprob_u6": pa.array(lp),
            "avg_logprob": pa.array(trunc6(avg), type=pa.float64()),
            "ppl": pa.array(trunc6(np.exp(-avg)), type=pa.float64()),
        })

    return ds.map_batches(score, batch_format="pyarrow", batch_size=8192)


def vocab_coverage(ds, vocab_size: int = 500, text_col: str = "text",
                   id_col: str = "doc_id"):
    """Per-doc OOV rate against the corpus's own top-``vocab_size``
    vocabulary (cf DESC, term ASC ties) — the tokenizer-coverage check
    a pretraining pipeline runs before committing to a vocab.

    Scale shape: the vocabulary comes from :func:`term_df`
    (partial+final, cardinality-independent combine) → distributed
    sort + limit → ONE vocab-sized driver collect, broadcast once via
    ``ray.put`` and read per task (never re-shipped per batch). The
    scoring pass is one ``map_batches`` over the text: per-batch
    factorize once, one ``np.isin`` over the batch's UNIQUE tokens
    (vocab-hash lookup per distinct token, not per occurrence), then
    bincount per row. → (doc_id, n_tokens, oov, oov_ratio trunc6)."""
    import ray

    top = (
        term_df(ds, text_col=text_col)
        .sort(["cf", "term"], descending=[True, False])
        .limit(vocab_size)
        .to_pandas()
    )
    vref = ray.put(set(top["term"]))

    def score(batch: pa.Table) -> pa.Table:
        vocab = ray.get(vref)
        texts = batch[text_col].to_pylist()
        codes, uniques, row_idx = _tokenize_batch(texts)
        n = np.bincount(row_idx, minlength=len(texts)).astype(np.int64)
        if len(codes):
            known_u = np.fromiter(
                (u in vocab for u in uniques), dtype=bool,
                count=len(uniques),
            )
            oov_tok = ~known_u[codes]
            oov = np.bincount(
                row_idx, weights=oov_tok, minlength=len(texts)
            ).astype(np.int64)
        else:
            oov = np.zeros(len(texts), dtype=np.int64)
        ratio = np.where(n > 0, oov / np.maximum(n, 1), 0.0)
        return pa.table(
            {
                id_col: batch[id_col],
                "n_tokens": pa.array(n),
                "oov": pa.array(oov),
                "oov_ratio": pa.array(trunc6(ratio), type=pa.float64()),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


_NGRAM_P = np.uint64(0x100000001B3)  # FNV prime: position-sensitive mix


def _ngram_occurrences(texts: list, n: int):
    """→ (hashes, row_idx) — one 64-bit polynomial rolling hash per
    token n-gram OCCURRENCE (not deduped), fully vectorized across the
    batch: the polynomial runs over the concatenated token-hash array
    and windows crossing a doc boundary are masked out. Position-
    sensitive (unlike the xor shingle mix) so reordered n-grams never
    collide by construction."""
    codes, uniques, row_idx = _tokenize_batch(texts)
    if len(codes) < n:
        return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)
    uh = fnv1a_rows([str(u).encode() for u in uniques])
    th = uh[codes]
    L = len(th) - n + 1
    with np.errstate(over="ignore"):
        s = th[:L].copy()
        for j in range(1, n):
            s = s * _NGRAM_P + th[j:L + j]
    valid = row_idx[:L] == row_idx[n - 1:]
    return s[valid], row_idx[:L][valid]


def dup_ngram_stats(ds, n: int = 3, id_col: str = "doc_id",
                    text_col: str = "text",
                    n_buckets: int | None = None):
    """Per-doc duplicated n-gram span fraction — the exact-substring
    contamination signal (GPT-3 / MassiveText dedup reports it at 13-gram
    granularity; ``n`` is configurable): an n-gram occurrence is
    "duplicated" when that n-gram appears ≥ 2 times CORPUS-WIDE (within
    or across docs). Docs with fewer than ``n`` tokens emit no rows.

    Scale shape: occurrences are hash-partitioned by n-gram hash (all
    occurrences of one n-gram land in one bucket, so its global count is
    computable bucket-locally), each bucket emits per-doc (occ, dup)
    partials, and a second coarse-bucket combine sums them per doc. Two
    exchanges, both over bounded key spaces; the driver never sees
    occurrence rows. → (doc_id, n_ngrams, dup_frac trunc6'd).

    ``n_buckets=None`` auto-sizes per doc COUNT × ~2 KB (the occurrence
    exchange is token-sized — one 24 B row per n-gram occurrence, so
    the per-row budget assumes ~100 tokens/doc)."""

    def emit(batch: pa.Table) -> pa.Table:
        h, rows = _ngram_occurrences(batch[text_col].to_pylist(), n)
        ids = batch[id_col].to_numpy()[rows] if len(rows) else rows
        return pa.table(
            {
                "h": pa.array(h.astype(np.int64)),
                id_col: pa.array(ids.astype(np.int64)),
            }
        )

    def per_hash_bucket(g: pd.DataFrame) -> pd.DataFrame:
        codes, _ = pd.factorize(g["h"].to_numpy(), sort=False)
        cnt = np.bincount(codes)
        dup = (cnt[codes] >= 2).astype(np.int64)
        return (
            pd.DataFrame({id_col: g[id_col].to_numpy(), "dup": dup})
            .groupby(id_col, sort=False)
            .agg(occ=("dup", "size"), dup=("dup", "sum"))
            .reset_index()
        )

    def per_doc(g: pd.DataFrame) -> pd.DataFrame:
        s = (
            g.groupby(id_col, sort=False)
            .agg(n_ngrams=("occ", "sum"), dup=("dup", "sum"))
            .reset_index()
        )
        s["dup_frac"] = trunc6(
            s["dup"].to_numpy() / s["n_ngrams"].to_numpy()
        )
        return s[[id_col, "n_ngrams", "dup_frac"]]

    occ = ds.map_batches(emit, batch_format="pyarrow", batch_size=8192)
    partials = combine_by_key(occ, ["h"], per_hash_bucket, size_from=ds,
                              bytes_per_row=2048, n_buckets=n_buckets)
    return combine_by_key(partials, [id_col], per_doc, size_from=ds,
                          bytes_per_row=2048, n_buckets=n_buckets)


def rare_terms(ds, max_df: int = 2, k: int = 50,
               text_col: str = "text", n_buckets: int | None = None):
    """ES ``rare_terms`` aggregation analog: the long-tail terms whose
    corpus document frequency is <= ``max_df``, ordered (df ASC, term
    ASC) — the opposite end of the distribution from ``top_terms``.
    Built on the same partial+final ``term_df`` combine (exchange moves
    per-batch distinct terms, never tokens), then a distributed
    predicate filter + sort + limit. ES bounds the bucket set with a
    CuckooFilter precision knob; the exact equivalent here is the hard
    ``k`` limit on the sorted tail.

    → Dataset (term, df), deterministic under any parallelism."""

    def tail_only(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(
            pc.less_equal(batch["df"], max_df)
        ).select(["term", "df"])

    return (
        term_df(ds, text_col=text_col, n_buckets=n_buckets)
        .map_batches(tail_only, batch_format="pyarrow")
        .sort(["df", "term"])
        .limit(k)
    )


def dsir_importance(ds, target: tuple[str, str] = ("lang", "en"),
                    alpha: float = 1.0, max_vocab: int | None = 50_000_000,
                    id_col: str = "doc_id", text_col: str = "text",
                    n_buckets: int | None = None):
    """DSIR-style importance scores (Xie et al. 2023, arXiv:2302.03169):
    rank raw documents by how target-like they are under unigram
    bag-of-words language models — the data-selection score
    ``log p_target(doc) - log p_raw(doc)``.

    Per-token log ratio ``ln(((c_t + α)/(N_t + αV)) / ((c_s + α)/(N_s
    + αV)))`` with Laplace-α smoothing over the shared corpus
    vocabulary V; per-doc scores sum the ratios as INTEGER micro-units
    (each token's ratio is floored to 1e-6 units first — lm_ppl's
    trick), so the sum is order-free and exactly SQL-comparable.

    Shape: ONE corpus pass emits per-term (corpus tf, target tf)
    partials plus a sentinel totals row (significant_terms' shape),
    combined by coarse hash buckets; the vocab ratio table is then
    broadcast once (``max_vocab`` caps it — terms beyond the top-V by
    (corpus tf DESC, term ASC) fall back to the constant
    smoothing-only ratio ln((N_s + αV)/(N_t + αV)), the DSIR hashed-
    feature analog of an OOV bucket) and pass 2 is a pure map.

    → Dataset (id, n_tokens, logratio_u6, avg_logratio)."""
    import ray

    tgt_col, tgt_val = target
    _SENT = "\x00__totals__"

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        is_tgt = np.asarray(
            [v == tgt_val for v in batch[tgt_col].to_pylist()], dtype=bool
        )
        codes, uniques, row_idx = _tokenize_batch(texts)
        terms = [_SENT]
        n_tok = int(len(codes))
        n_tgt_tok = int(is_tgt[row_idx].sum()) if len(codes) else 0
        c_all = [n_tok]
        c_tgt = [n_tgt_tok]
        if len(codes):
            c_all += np.bincount(codes, minlength=len(uniques)) \
                .astype(np.int64).tolist()
            c_tgt += np.bincount(
                codes[is_tgt[row_idx]], minlength=len(uniques)
            ).astype(np.int64).tolist()
            terms += [str(u) for u in uniques]
        return pa.table({"term": pa.array(terms, type=pa.string()),
                         "c_all": pa.array(c_all, type=pa.int64()),
                         "c_tgt": pa.array(c_tgt, type=pa.int64())})

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("term", sort=False).sum().reset_index()

    vocab_ds = combine_by_key(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=16384),
        ["term"], combine, size_from=ds, bytes_per_row=8,
        n_buckets=n_buckets,
    ).materialize()
    # budget gate (materialize → count → collect-or-cap): the combined
    # vocab frame is vocabulary-sized; past max_vocab the cap runs as
    # a DISTRIBUTED sort + limit so the driver only ever collects the
    # capped frame (plus the sentinel totals via a filter scan)
    n_vocab = vocab_ds.count()
    if max_vocab is not None and n_vocab - 1 > max_vocab:
        import pyarrow.compute as pc

        sent_rows = vocab_ds.map_batches(
            lambda t: t.filter(
                pc.equal(t["term"], _SENT)
            ),
            batch_format="pyarrow",
        ).to_pandas()
        capped = (
            vocab_ds.map_batches(
                lambda t: t.filter(pc.not_equal(t["term"], _SENT)),
                batch_format="pyarrow",
            )
            .sort(["c_all", "term"], descending=[True, False])
            .limit(max_vocab)
            .to_pandas()
        )
        n_s = float(sent_rows["c_all"].sum())
        n_t = float(sent_rows["c_tgt"].sum())
        v_size = float(n_vocab - len(sent_rows))
        vocab = capped
    else:
        vocab = vocab_ds.to_pandas()
        sent = vocab.term == _SENT
        n_s = float(vocab.loc[sent, "c_all"].sum())
        n_t = float(vocab.loc[sent, "c_tgt"].sum())
        vocab = vocab[~sent]
        v_size = float(len(vocab))
        if max_vocab is not None and len(vocab) > max_vocab:
            vocab = vocab.sort_values(
                ["c_all", "term"], ascending=[False, True]
            ).head(max_vocab)
    denom_t = n_t + alpha * v_size
    denom_s = n_s + alpha * v_size
    ratios = np.log(
        ((vocab.c_tgt.to_numpy() + alpha) / denom_t)
        / ((vocab.c_all.to_numpy() + alpha) / denom_s)
    )
    u6 = np.floor(ratios * 1e6 + 0.5).astype(np.int64)
    oov_u6 = int(np.floor(np.log(denom_s / denom_t) * 1e6 + 0.5))
    order = np.argsort(vocab.term.to_numpy().astype(np.str_))
    terms_arr = vocab.term.to_numpy().astype(np.str_)[order]
    u6 = u6[order]
    ref = ray.put((terms_arr, u6))

    def score(batch: pa.Table) -> pa.Table:
        b_terms, b_u6 = ray.get(ref)
        texts = batch[text_col].to_pylist()
        n = len(texts)
        codes, uniques, row_idx = _tokenize_batch(texts)
        tok_u6 = np.zeros(0, dtype=np.int64)
        if len(codes):
            uq = np.asarray(uniques, dtype=np.str_)
            ins = np.searchsorted(b_terms, uq)
            ins[ins == len(b_terms)] = 0
            hit = (b_terms[ins] == uq) if len(b_terms) else \
                np.zeros(len(uq), dtype=bool)
            per_uniq = np.where(hit, b_u6[ins] if len(b_terms) else 0,
                                oov_u6)
            tok_u6 = per_uniq[codes]
        n_tokens = np.bincount(row_idx, minlength=n).astype(np.int64)
        sums = np.bincount(row_idx, weights=tok_u6, minlength=n) \
            .astype(np.int64)
        safe = np.where(n_tokens > 0, n_tokens, 1)
        avg = trunc6(sums / 1e6 / safe)
        avg[n_tokens == 0] = 0.0
        return pa.table(
            {
                id_col: batch[id_col],
                "n_tokens": pa.array(n_tokens),
                "logratio_u6": pa.array(sums),
                "avg_logratio": pa.array(avg),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


def bpe_train(ds, n_merges: int = 50, text_col: str = "text",
              n_buckets: int | None = None,
              vocab_budget: int = 50_000_000):
    """Train a BPE merge table on the corpus (Sennrich et al. 2016) —
    the fit-a-tokenizer-on-your-data pipeline stage.

    Split of work is the standard tokenizer-trainer shape (HF /
    sentencepiece): the DISTRIBUTED part is word counting (term_df's
    partial + coarse-bucket combine — the exchange moves per-batch
    distinct words, never tokens), and the merge loop then runs on the
    aggregated (word, count) table, which is VOCABULARY-sized driver
    work by design. Each word is a char sequence ending in the
    word-boundary marker; every iteration merges the most frequent
    adjacent symbol pair, ties broken by the lexicographically
    smallest pair — fully deterministic.

    Scale shape: the vocabulary collect is budget-GATED (materialize →
    count → collect-or-raise, the ``keywords`` ``df_budget`` pattern —
    vocabulary-sized driver state is the standard trainer split, but a
    web-scale vocab must not land silently), and the merge loop keeps an
    INCREMENTAL pair→count table plus a pair→words inverted index: each
    merge touches only the words that actually contain the merged pair
    (subtract their old adjacent-pair counts, re-segment, add the new
    ones) instead of rescanning the whole vocabulary per iteration —
    the standard trainer optimization (HF tokenizers / the original
    subword-nmt ``learn_bpe`` both maintain exactly this index).

    → pyarrow.Table (merge_idx, left, right, pair_count)."""
    words_ds = term_df(ds, text_col=text_col, n_buckets=n_buckets) \
        .materialize()
    n_vocab = words_ds.count()
    if n_vocab > vocab_budget:
        raise ValueError(
            f"vocabulary {n_vocab} exceeds vocab_budget={vocab_budget}; "
            "pre-filter the corpus or raise the budget explicitly"
        )
    words = words_ds.to_pandas()
    counts = dict(zip(words["term"], words["cf"].astype(int)))
    # symbol sequences: chars + end-of-word marker on the last char
    seqs = {w: tuple(w[:-1]) + (w[-1] + "</w>",) for w in counts}

    def _word_pairs(s):
        return zip(s[:-1], s[1:])

    # one full pass builds the pair-count table and the inverted index;
    # every later iteration updates both incrementally
    pair_counts: dict[tuple[str, str], int] = {}
    pair_words: dict[tuple[str, str], set[str]] = {}
    for w, c in counts.items():
        for p in _word_pairs(seqs[w]):
            pair_counts[p] = pair_counts.get(p, 0) + c
            pair_words.setdefault(p, set()).add(w)

    def _resegment(s, a, b, ab):
        out = []
        i = 0
        while i < len(s):
            if i + 1 < len(s) and s[i] == a and s[i + 1] == b:
                out.append(ab)
                i += 2
            else:
                out.append(s[i])
                i += 1
        return tuple(out)

    merges = []
    for idx in range(n_merges):
        if not pair_counts:
            break
        best = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        (a, b), n = best
        if n < 2:
            break  # nothing left worth merging
        merges.append((idx, a, b, n))
        ab = a + b
        # touch ONLY the words containing (a, b)
        for w in list(pair_words.get((a, b), ())):
            c = counts[w]
            old = seqs[w]
            for p in set(_word_pairs(old)):
                pair_words[p].discard(w)
            for p in _word_pairs(old):
                left = pair_counts[p] - c
                if left:
                    pair_counts[p] = left
                else:
                    del pair_counts[p]
                    pair_words.pop(p, None)
            new = _resegment(old, a, b, ab)
            seqs[w] = new
            for p in _word_pairs(new):
                pair_counts[p] = pair_counts.get(p, 0) + c
                pair_words.setdefault(p, set()).add(w)
    return pa.table(
        {
            "merge_idx": pa.array([m[0] for m in merges], type=pa.int32()),
            "left": pa.array([m[1] for m in merges], type=pa.string()),
            "right": pa.array([m[2] for m in merges], type=pa.string()),
            "pair_count": pa.array([m[3] for m in merges],
                                   type=pa.int64()),
        }
    )


def string_stats(ds, text_col: str = "text"):
    """ES ``string_stats`` aggregation analog over a string field:
    count, min/max/avg length (codepoints) and the Shannon entropy of
    the corpus-wide CHARACTER distribution (``show_distribution``'s
    underlying statistic).

    Two streaming passes over the one pruned column:

    1. length moments — a tiny (n, sum, min, max) partial per batch,
       driver combine (batch-count-sized). Lengths are ints, so the
       sums are exact — only the derived avg is trunc6'd.
    2. character counts — each batch joins its strings once (C-level),
       decodes to UTF-32, and bincounts codepoints via ``np.unique``;
       the sparse (codepoint, cnt) partials go through the
       coarse-bucket sum combine and the final alphabet-sized table
       computes entropy on the driver in ASCENDING codepoint order
       (deterministic summation; the SQL twin's SUM order is
       unspecified but trunc6 absorbs last-bit spread).

    → pandas.DataFrame (count, min_length, max_length, avg_length,
    entropy), one row."""
    import pyarrow.compute as pc

    from excelastic_ray.pipelines.events import _bucketed_sum_combine

    # both passes read this one pruned column; materializing it means
    # the second pass re-reads object-store blocks instead of
    # re-scanning + re-decoding the source (the dominant cost at scale)
    pruned = ds.select_columns([text_col]).materialize()

    def len_partial(batch: pa.Table) -> pd.DataFrame:
        ln = pc.utf8_length(
            pc.coalesce(batch[text_col], "")
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        if not len(ln):
            return pd.DataFrame({"n": [0], "s": [0], "mn": [2**62], "mx": [-1]})
        return pd.DataFrame(
            {"n": [len(ln)], "s": [int(ln.sum())],
             "mn": [int(ln.min())], "mx": [int(ln.max())]}
        )

    lp = pruned.map_batches(len_partial, batch_format="pyarrow",
                            batch_size=65536).to_pandas()
    n = int(lp["n"].sum())
    if n == 0:
        return pd.DataFrame(
            {"count": [0], "min_length": [0], "max_length": [0],
             "avg_length": [np.nan], "entropy": [np.nan]}
        )

    def char_partial(batch: pa.Table) -> pd.DataFrame:
        joined = "".join(
            pc.coalesce(batch[text_col], "").to_pylist()
        )
        if not joined:
            return pd.DataFrame(
                {"c": np.zeros(0, np.int64), "cnt": np.zeros(0, np.int64)}
            )
        codes = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
        u, cnt = np.unique(codes, return_counts=True)
        return pd.DataFrame(
            {"c": u.astype(np.int64), "cnt": cnt.astype(np.int64)}
        )

    chars = (
        _bucketed_sum_combine(
            pruned.map_batches(char_partial, batch_format="pyarrow",
                               batch_size=65536),
            ["c"], size_from=pruned,
        )
        .to_pandas()  # alphabet-sized, never rows
        .sort_values("c")
    )
    tot = float(chars["cnt"].sum())
    p = chars["cnt"].to_numpy(dtype=np.float64) / tot
    entropy = float(-np.sum(p * np.log2(p)))
    return pd.DataFrame(
        {
            "count": [n],
            "min_length": [int(lp["mn"].min())],
            "max_length": [int(lp["mx"].max())],
            "avg_length": [float(trunc6(int(lp["s"].sum()) / n))],
            "entropy": [float(trunc6(entropy))],
        }
    )


def repetition_signals(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Gopher-style WITHIN-document repetition filters (Rae et al. 2021
    §A1.1 — the signals ``doc_signals``/``dup_ngram_stats`` do NOT
    cover: those are structure- and corpus-level): per doc,

    - ``dup_line_frac``       — duplicate lines / lines (count-based)
    - ``dup_line_char_frac``  — chars in occurrences beyond a line's
                                first / total line chars
    - ``top2_frac``/``top3_frac`` — tokens covered by the single most
      frequent 2-/3-gram: max_count × n / n_tokens (the paper's
      top-n-gram fraction, token-denominated)

    Fully vectorized, embarrassingly parallel (no shuffle): line stats
    ride one Arrow split + a C-level pandas groupby; n-gram max counts
    pack adjacent token codes base-|vocab| into uint64 keys and reduce
    with one groupby per n. → Dataset (doc_id, n_lines, dup_line_frac,
    dup_line_char_frac, top2_frac, top3_frac), fracs trunc6'd."""
    import pyarrow.compute as pc

    def batch_fn(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        texts = pc.coalesce(batch[text_col], "")
        lines = pc.split_pattern(texts, "\n")
        sizes = pc.list_value_length(lines).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        row = np.repeat(np.arange(n, dtype=np.int64), sizes)
        flat = pc.list_flatten(lines)
        ln = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        lc = (
            pd.DataFrame({"r": row, "line": flat.to_pandas(), "ln": ln})
            .groupby(["r", "line"], sort=False)
            .agg(cnt=("ln", "size"), ln=("ln", "first"))
            .reset_index()
        )
        n_lines = np.bincount(row, minlength=n).astype(np.int64)
        n_distinct = np.bincount(
            lc["r"].to_numpy(), minlength=n
        ).astype(np.int64)
        tot_chars = np.bincount(
            lc["r"].to_numpy(),
            weights=(lc["cnt"] * lc["ln"]).to_numpy(),
            minlength=n,
        )
        dup_chars = np.bincount(
            lc["r"].to_numpy(),
            weights=((lc["cnt"] - 1) * lc["ln"]).to_numpy(),
            minlength=n,
        )

        codes, uniques, row_idx = _tokenize_batch(texts.to_pylist())
        n_tokens = np.bincount(row_idx, minlength=n).astype(np.int64)
        m = np.uint64(max(len(uniques), 1))

        def max_ngram_count(k: int) -> np.ndarray:
            out = np.zeros(n, dtype=np.int64)
            w = len(codes) - (k - 1)
            if w <= 0:
                return out
            r0 = row_idx[:w]
            ok = np.ones(w, dtype=bool)
            with np.errstate(over="ignore"):
                key = codes[:w].astype(np.uint64)
                for j in range(1, k):
                    ok &= row_idx[j:w + j] == r0
                    key = key * m + codes[j:w + j].astype(np.uint64)
            r, key = r0[ok], key[ok]
            if not len(r):
                return out
            mx = (
                pd.DataFrame({"r": r, "key": key})
                .groupby(["r", "key"], sort=False)
                .size()
                .groupby(level=0)
                .max()
            )
            out[mx.index.to_numpy()] = mx.to_numpy()
            return out

        c2 = max_ngram_count(2)
        c3 = max_ngram_count(3)
        safe_t = np.maximum(n_tokens, 1).astype(np.float64)
        safe_l = np.maximum(n_lines, 1).astype(np.float64)
        safe_c = np.maximum(tot_chars, 1.0)
        return pa.table(
            {
                id_col: batch[id_col],
                "n_lines": pa.array(n_lines),
                "dup_line_frac": pa.array(
                    trunc6((n_lines - n_distinct) / safe_l)
                ),
                "dup_line_char_frac": pa.array(
                    trunc6(np.where(tot_chars > 0, dup_chars / safe_c, 0.0))
                ),
                "top2_frac": pa.array(
                    trunc6(np.where(n_tokens >= 2, c2 * 2 / safe_t, 0.0))
                ),
                "top3_frac": pa.array(
                    trunc6(np.where(n_tokens >= 3, c3 * 3 / safe_t, 0.0))
                ),
            }
        )

    return ds.map_batches(batch_fn, batch_format="pyarrow",
                          batch_size=4096)


def categorize_text(ds, text_col: str = "text", n_tokens: int = 4,
                    size: int = 10, n_buckets: int | None = None):
    """ES ``categorize_text`` aggregation analog: cluster messages into
    log-pattern categories and count docs per category.

    Deterministic variant (documented deviation — ES uses an
    order-dependent incremental token-similarity clusterer that is not
    reproducible across shard orders): a doc's category is its first
    ``n_tokens`` analyzer tokens with every digit-bearing token
    replaced by the ``<num>`` placeholder (ES likewise treats numeric
    tokens as non-identifying). Empty-token docs are skipped, ES
    semantics. Top ``size`` categories by (doc_count DESC, category
    ASC).

    Shape: per-batch partial (one row per distinct category per
    batch — the digit masking is one vectorized regex over the batch's
    UNIQUE tokens, never per occurrence), coarse hash-bucket combine,
    then a ``size``-row sort+limit — the shuffle moves O(batches ×
    categories) tiny rows, never docs."""

    def partial(batch: pa.Table) -> pa.Table:
        codes, uniques, row_idx = _tokenize_batch(batch[text_col].to_pylist())
        if not len(codes):
            return pa.table({"category": pa.array([], type=pa.string()),
                             "doc_count": pa.array([], type=pa.int64())})
        has_digit = (
            pd.Series(uniques, dtype=object)
            .str.contains(r"[0-9]", regex=True)
            .to_numpy(dtype=bool)
        )
        masked = np.where(has_digit, "<num>", uniques.astype(object))
        # position within row → keep only each doc's first n_tokens
        starts = np.flatnonzero(np.diff(row_idx, prepend=-1))
        pos = np.arange(len(row_idx)) - np.repeat(
            starts, np.diff(np.append(starts, len(row_idx)))
        )
        keep = pos < n_tokens
        cats = (
            pd.DataFrame({"r": row_idx[keep], "t": masked[codes[keep]]})
            .groupby("r", sort=False)["t"]
            .agg(" ".join)
        )
        vc = cats.value_counts()
        return pa.table({
            "category": pa.array(vc.index.to_numpy(dtype=object).astype(str)),
            "doc_count": pa.array(vc.to_numpy().astype(np.int64)),
        })

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.groupby("category", sort=False)
            .agg(doc_count=("doc_count", "sum"))
            .reset_index()
        )

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=8192)
    combined = combine_by_key(partials, ["category"], combine, size_from=ds,
                              bytes_per_row=48, n_buckets=n_buckets)
    return combined.sort(["doc_count", "category"],
                         descending=[True, False]).limit(size)
