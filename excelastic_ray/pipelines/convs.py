"""Conversation-level analytics over the transcript table — the
aggregate views an operator of a transcript corpus actually reads
(turns per conversation, role mix, tool usage, duration, and the
role-transition structure).

Shuffle shape: conversations are TINY groups (a handful of turns), so
a fine distributed groupby per conv would hit the measured per-group
overhead pitfall. Both ops use the repo-standard two-level shape:
per-batch vectorized partials (one row per conv per batch / one row
per transition pair per batch) → coarse hash-bucket combine → final
vectorized reduce inside each bucket frame. The exchange moves
O(batches × convs-in-batch) partial rows, never turns.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from excelastic_ray.analysis import TOKEN_RE
from excelastic_ray.hashing import combine_by_key
from excelastic_ray.pipelines.events import _bucketed_sum_combine


def conv_stats(ds, n_buckets: int | None = None):
    """Per-conversation rollup → (conv_id, n_turns, n_user,
    n_assistant, n_tool_role, n_tool_calls, n_tokens, duration_s).

    ``n_tool_role`` counts turns whose role is ``tool``;
    ``n_tool_calls`` counts turns with a non-empty ``tool`` attribute
    (the reference's tool column). Duration is (max ts - min ts) in
    whole seconds. min/max survive the sum-combine as negated-max
    tricks are avoided by carrying both endpoints explicitly.

    ``n_buckets=None`` auto-sizes by the SCALE.md K rule (one bucket =
    one reducer frame of conv partial rows)."""

    def partial(batch: pa.Table) -> pd.DataFrame:
        roles = batch["role"].to_numpy(zero_copy_only=False)
        tools = batch["tool"].to_numpy(zero_copy_only=False)
        texts = batch["text"].to_pylist()
        findall = TOKEN_RE.findall
        n_tok = np.fromiter(
            (len(findall(t.lower())) if t else 0 for t in texts),
            dtype=np.int64, count=len(texts),
        )
        ts = batch["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        df = pd.DataFrame(
            {
                "conv_id": batch["conv_id"].to_numpy(zero_copy_only=False),
                "n_turns": 1,
                "n_user": (roles == "user").astype(np.int64),
                "n_assistant": (roles == "assistant").astype(np.int64),
                "n_tool_role": (roles == "tool").astype(np.int64),
                "n_tool_calls": np.asarray(
                    [bool(t) for t in tools], dtype=np.int64
                ),
                "n_tokens": n_tok,
                "ts_min": ts,
                "ts_max": ts,
            }
        )
        return (
            df.groupby("conv_id", sort=False)
            .agg(
                n_turns=("n_turns", "sum"),
                n_user=("n_user", "sum"),
                n_assistant=("n_assistant", "sum"),
                n_tool_role=("n_tool_role", "sum"),
                n_tool_calls=("n_tool_calls", "sum"),
                n_tokens=("n_tokens", "sum"),
                ts_min=("ts_min", "min"),
                ts_max=("ts_max", "max"),
            )
            .reset_index()
        )

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=16384)

    # min/max are not additive: the generic sum-combine cannot be used
    # verbatim, so the bucket reducer aggregates each column correctly
    def combine(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.groupby("conv_id", sort=False)
            .agg(
                n_turns=("n_turns", "sum"),
                n_user=("n_user", "sum"),
                n_assistant=("n_assistant", "sum"),
                n_tool_role=("n_tool_role", "sum"),
                n_tool_calls=("n_tool_calls", "sum"),
                n_tokens=("n_tokens", "sum"),
                ts_min=("ts_min", "min"),
                ts_max=("ts_max", "max"),
            )
            .reset_index()
        )

    combined = combine_by_key(partials, ["conv_id"], combine, size_from=ds,
                              bytes_per_row=16, n_buckets=n_buckets)

    def finish(batch: pa.Table) -> pa.Table:
        dur = (
            batch["ts_max"].to_numpy() - batch["ts_min"].to_numpy()
        ) // 1_000_000
        keep = [c for c in batch.column_names
                if c not in ("ts_min", "ts_max")]
        return batch.select(keep).append_column(
            "duration_s", pa.array(dur.astype(np.int64))
        )

    return combined.map_batches(finish, batch_format="pyarrow")


def role_transitions(ds, n_buckets: int | None = None):
    """Role-transition counts over consecutive turns within each
    conversation → (from_role, to_role, n) — the Markov structure of
    the corpus (user→assistant→tool loops).

    Consecutive means ``turn_idx + 1``: each batch pairs its rows via
    a vectorized sorted self-alignment on (conv_id, turn_idx), and
    cross-BATCH adjacency is preserved by bucketing whole
    conversations first (conv-hash bucket groupby → per-bucket sort →
    shift compare), so no pair is ever split. The FIRST bucketing is
    corpus-row-sized, so ``n_buckets=None`` auto-sizes by the K rule;
    the final combine's key space is roles², a constant."""

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        n = len(g)
        cid = g["conv_id"].to_numpy()
        ti = g["turn_idx"].to_numpy()
        role = g["role"].to_numpy()
        # n <= 1 emits an empty pair set via EMPTY SLICES of the real
        # role array — a literal [] would type the empty block float64
        # and poison Ray's schema unification with the string blocks
        same = np.zeros(n, dtype=bool)
        if n > 1:
            same[1:] = (cid[1:] == cid[:-1]) & (ti[1:] == ti[:-1] + 1)
        m = same[1:]
        pair = pd.DataFrame(
            {"from_role": pd.array(role[:-1][m], dtype="string"),
             "to_role": pd.array(role[1:][m], dtype="string")}
        )
        return (
            pair.groupby(["from_role", "to_role"], sort=False)
            .size()
            .rename("n")
            .reset_index()
        )

    partials = combine_by_key(ds, ["conv_id"], per_bucket, size_from=ds,
                              bytes_per_row=64, n_buckets=n_buckets)
    return _bucketed_sum_combine(partials, ["from_role", "to_role"],
                                 n_buckets=8)


def tool_funnel(ds, n_buckets: int | None = None):
    """Tool-invocation funnels: within each conversation the
    tool-bearing turns (non-null, non-empty ``tool`` — the engine's
    exists convention), ordered by ``turn_idx`` with non-tool turns
    SKIPPED, form (from_tool, to_tool) bigrams; global counts expose
    the corpus's tool-chain structure (search→code→code loops) — the
    transcript-native funnel a tool-use analyst asks for.

    Same conv-hash bucket shape as :func:`role_transitions` (whole
    conversations co-locate so a funnel edge never splits across
    batches), but the input first prunes to the three narrow columns —
    the wide ``text`` never enters the shuffle. The final combine's
    key space is tools², a constant."""

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g["tool"].notna() & (g["tool"].astype(str) != "")]
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        n = len(g)
        cid = g["conv_id"].to_numpy()
        tool = g["tool"].to_numpy()
        same = np.zeros(n, dtype=bool)
        if n > 1:
            same[1:] = cid[1:] == cid[:-1]
        m = same[1:]
        pair = pd.DataFrame(
            {"from_tool": pd.array(tool[:-1][m], dtype="string"),
             "to_tool": pd.array(tool[1:][m], dtype="string")}
        )
        return (
            pair.groupby(["from_tool", "to_tool"], sort=False)
            .size()
            .rename("n")
            .reset_index()
        )

    partials = combine_by_key(
        ds.select_columns(["conv_id", "turn_idx", "tool"]), ["conv_id"],
        per_bucket, size_from=ds, bytes_per_row=40, n_buckets=n_buckets,
    )
    return _bucketed_sum_combine(partials, ["from_tool", "to_tool"],
                                 n_buckets=8)


def context_windows(ds, window: int = 3, n_buckets: int | None = None):
    """Training-example assembly: for every turn, the concatenation of
    its previous ``window`` turns in the same conversation (newline-
    joined, oldest first) plus the turn itself as the target — the
    (context, target) constructor for next-turn prediction / RAG eval
    sets.

    Whole conversations bucket together (conv-hash groupby), each
    bucket frame sorts once by (conv_id, turn_idx), and the window
    assembles with ``window`` vectorized shifted-array passes — no
    per-conversation Python. The window is ROW-based within the
    conversation (SQL ``ROWS BETWEEN w PRECEDING AND 1 PRECEDING``):
    turn-idx gaps from deleted turns do not break the chain, matching
    the window-function semantics a SQL twin computes.

    → Dataset (conv_id, turn_idx, context, target).

    ``n_buckets=None`` auto-sizes by the K rule with a full-text
    per-row budget (each bucket frame carries the turn text × (window
    + 1) after assembly)."""

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        n = len(g)
        cid = g["conv_id"].to_numpy()
        ti = g["turn_idx"].to_numpy()
        texts = np.asarray(
            ["" if t is None else t for t in g["text"]], dtype=object
        )
        ctx = np.full(n, "", dtype=object)
        # `has` tracks "context already holds a turn" separately from
        # the string value: an EMPTY-TEXT turn still occupies a window
        # slot and must contribute its newline separator, exactly like
        # the SQL twin's array_to_string over the list window
        has = np.zeros(n, dtype=bool)
        for k in range(window, 0, -1):  # oldest shift first
            if k >= n:
                continue
            valid = np.zeros(n, dtype=bool)
            valid[k:] = cid[k:] == cid[:-k]
            piece = np.empty(n, dtype=object)
            piece[k:] = texts[:-k]
            first = valid & ~has
            grow = valid & has
            if first.any():
                ctx[first] = piece[first]
            if grow.any():
                ctx[grow] = ctx[grow] + "\n" + piece[grow]
            has |= valid
        return pd.DataFrame(
            {
                "conv_id": cid,
                "turn_idx": ti,
                "context": ctx,
                "target": texts,
            }
        )

    return combine_by_key(ds, ["conv_id"], per_bucket, size_from=ds,
                          bytes_per_row=2048, n_buckets=n_buckets)


def children_agg(ds, interval_hours: int = 24, child_field: str = "role",
                 n_buckets: int | None = None) -> pa.Table:
    """ES ``children`` join-field aggregation on the transcript
    hierarchy: bucket PARENT docs (the conversation opener,
    turn_idx == 0 — the repo's parent-doc convention, see
    query/engine.py search_has_parent) by their ``ts`` floored to
    ``interval_hours`` (a date_histogram over parents), then the
    ``children`` agg switches context to the CHILD turns
    (turn_idx >= 1) of each cohort's conversations: a terms agg over
    ``child_field`` with a char-length avg metric. ES request analog::

        {"cohort": {"date_histogram": {"field": "ts", ...},
          "aggs": {"to_children": {"children": {"type": "turn"},
            "aggs": {"by_role": {"terms": {"field": "role"},
              "aggs": {"len_avg": {"avg": ...}}}}}}}}

    → (cohort timestamp, child key, doc_count, avg_len), avg trunc6'd
    from the trunc6'd sum (the repo metric convention). Conversations
    with no opener row are excluded (no parent, ES semantics); child
    rows with a null/empty ``child_field`` are excluded from the terms
    level (ES missing handling).

    Shuffle shape: per-batch partials — opener (conv, cohort) pairs
    and per-(conv, child key) child partials — exchange ONCE on the
    conv hash (a conversation's opener and children meet in one
    reducer), per-bucket join + rollup to (cohort, key) partials, and
    a final key-space-sized combine on the driver. The exchange moves
    O(convs + convs × distinct child keys) partial rows, never turns.
    """
    from excelastic_ray.pipelines.textstats import trunc6

    step = np.int64(interval_hours) * 3_600_000_000

    def partial(batch: pa.Table) -> pd.DataFrame:
        cid = batch["conv_id"].to_numpy(zero_copy_only=False)
        ti = batch["turn_idx"].to_numpy(zero_copy_only=False)
        texts = batch["text"].to_pylist()
        lens = np.fromiter((len(t) if t else 0 for t in texts),
                           dtype=np.int64, count=len(texts))
        is_par = ti == 0
        out = []
        if is_par.any():
            ts = batch["ts"].to_numpy().astype("datetime64[us]"
                                               ).astype(np.int64)
            cohort = (ts[is_par] // step) * step
            op = pd.DataFrame(
                {"conv_id": cid[is_par], "cohort": cohort,
                 "ckey": None, "n": 0, "len_sum": 0}
            )
            # a NaT opener ts has no cohort: parent excluded
            op = op[ts[is_par] == ts[is_par]]
            out.append(op)
        is_child = ~is_par
        if is_child.any():
            ck = batch[child_field].to_numpy(zero_copy_only=False)
            kids = pd.DataFrame(
                {"conv_id": cid[is_child],
                 "ckey": pd.Series(ck[is_child], dtype=object),
                 "n": 1, "len_sum": lens[is_child]}
            )
            kids = kids[kids["ckey"].notna() & (kids["ckey"] != "")]
            kids = (kids.groupby(["conv_id", "ckey"], sort=False)
                    .agg(n=("n", "sum"), len_sum=("len_sum", "sum"))
                    .reset_index())
            kids["cohort"] = np.int64(-1)  # filled by the opener join
            out.append(kids[["conv_id", "cohort", "ckey", "n",
                             "len_sum"]])
        if not out:
            return pd.DataFrame(
                {"conv_id": pd.Series(dtype=object),
                 "cohort": pd.Series(dtype=np.int64),
                 "ckey": pd.Series(dtype=object),
                 "n": pd.Series(dtype=np.int64),
                 "len_sum": pd.Series(dtype=np.int64)}
            )
        return pd.concat(out, ignore_index=True)

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        opener = (g[g["ckey"].isna()][["conv_id", "cohort"]]
                  .drop_duplicates("conv_id"))
        kids = g[g["ckey"].notna()]
        if not len(opener) or not len(kids):
            return pd.DataFrame(
                {"cohort": pd.Series(dtype=np.int64),
                 "ckey": pd.Series(dtype=object),
                 "n": pd.Series(dtype=np.int64),
                 "len_sum": pd.Series(dtype=np.int64)}
            )
        j = kids.drop(columns="cohort").merge(
            opener, on="conv_id")  # inner: parentless children drop
        return (j.groupby(["cohort", "ckey"], sort=False)
                .agg(n=("n", "sum"), len_sum=("len_sum", "sum"))
                .reset_index())

    fine = combine_by_key(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=16384),
        ["conv_id"], combine, size_from=ds, bytes_per_row=16,
        n_buckets=n_buckets,
    ).to_pandas()
    if not len(fine):
        return pa.table(
            {"cohort": pa.array([], type=pa.timestamp("us")),
             "child_key": pa.array([], type=pa.string()),
             "doc_count": pa.array([], type=pa.int64()),
             "avg_len": pa.array([], type=pa.float64())}
        )
    top = (fine.groupby(["cohort", "ckey"], sort=False)
           .agg(n=("n", "sum"), len_sum=("len_sum", "sum"))
           .reset_index()
           .sort_values(["cohort", "ckey"], kind="mergesort"))
    s = trunc6(top["len_sum"].to_numpy(dtype=np.float64))
    n = top["n"].to_numpy(dtype=np.float64)
    return pa.table(
        {
            "cohort": pa.array(
                top["cohort"].to_numpy().astype("datetime64[us]")),
            "child_key": pa.array(top["ckey"].astype(str),
                                  type=pa.string()),
            "doc_count": pa.array(top["n"].to_numpy().astype(np.int64)),
            "avg_len": pa.array(trunc6(s / n), type=pa.float64()),
        }
    )


def parent_agg(ds, child_field: str = "tool",
               n_buckets: int | None = None) -> pa.Table:
    """ES ``parent`` join-field aggregation (the reverse of
    :func:`children_agg`): bucket CHILD turns (turn_idx >= 1) by
    ``child_field`` (a terms agg over children; null/empty excluded —
    ES missing handling), then the ``parent`` agg switches context to
    the PARENT docs: each bucket counts its children's DISTINCT parent
    conversations — a parent counts ONCE per bucket no matter how many
    of its children land there (exactly ES's parent-agg doc_count) —
    with a char-length avg over those openers' text. ES analog::

        {"by_tool": {"terms": {"field": "tool"},
          "aggs": {"to_parent": {"parent": {"type": "turn"},
            "aggs": {"len_avg": {"avg": ...}}}}}}

    → (child key, parent_count, avg_opener_len). Conversations without
    an opener row are excluded (no parent doc to count).

    Shuffle shape: per-batch partials — DEDUPED (child key, conv)
    pairs and opener (conv, len) rows — one conv-hash exchange (a
    conversation's pairs land in one reducer, so the distinct-parent
    dedup is exact there), per-bucket dedup + join + rollup, final
    key-space combine on the driver (parent sets are disjoint across
    buckets, so counts add)."""
    from excelastic_ray.pipelines.textstats import trunc6

    def partial(batch: pa.Table) -> pd.DataFrame:
        cid = batch["conv_id"].to_numpy(zero_copy_only=False)
        ti = batch["turn_idx"].to_numpy(zero_copy_only=False)
        texts = batch["text"].to_pylist()
        is_par = ti == 0
        out = []
        if is_par.any():
            lens = np.fromiter(
                (len(texts[i]) if texts[i] else 0
                 for i in np.flatnonzero(is_par)),
                dtype=np.int64, count=int(is_par.sum()))
            out.append(pd.DataFrame(
                {"conv_id": cid[is_par], "ckey": None, "olen": lens}
            ))
        is_child = ~is_par
        if is_child.any():
            ck = batch[child_field].to_numpy(zero_copy_only=False)
            pairs = pd.DataFrame(
                {"conv_id": cid[is_child],
                 "ckey": pd.Series(ck[is_child], dtype=object),
                 "olen": 0}
            )
            pairs = pairs[pairs["ckey"].notna() & (pairs["ckey"] != "")]
            pairs = pairs.drop_duplicates(["conv_id", "ckey"])
            out.append(pairs)
        if not out:
            return pd.DataFrame(
                {"conv_id": pd.Series(dtype=object),
                 "ckey": pd.Series(dtype=object),
                 "olen": pd.Series(dtype=np.int64)}
            )
        return pd.concat(out, ignore_index=True)

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        opener = (g[g["ckey"].isna()][["conv_id", "olen"]]
                  .drop_duplicates("conv_id"))
        pairs = (g[g["ckey"].notna()][["conv_id", "ckey"]]
                 .drop_duplicates())
        if not len(opener) or not len(pairs):
            return pd.DataFrame(
                {"ckey": pd.Series(dtype=object),
                 "n_parents": pd.Series(dtype=np.int64),
                 "len_sum": pd.Series(dtype=np.int64)}
            )
        j = pairs.merge(opener, on="conv_id")
        j["n_parents"] = 1
        return (j.groupby("ckey", sort=False)
                .agg(n_parents=("n_parents", "sum"),
                     len_sum=("olen", "sum"))
                .reset_index())

    fine = combine_by_key(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=16384),
        ["conv_id"], combine, size_from=ds, bytes_per_row=16,
        n_buckets=n_buckets,
    ).to_pandas()
    if not len(fine):
        return pa.table(
            {"child_key": pa.array([], type=pa.string()),
             "parent_count": pa.array([], type=pa.int64()),
             "avg_opener_len": pa.array([], type=pa.float64())}
        )
    top = (fine.groupby("ckey", sort=False)
           .agg(n_parents=("n_parents", "sum"),
                len_sum=("len_sum", "sum"))
           .reset_index()
           .sort_values("ckey", kind="mergesort"))
    s = trunc6(top["len_sum"].to_numpy(dtype=np.float64))
    n = top["n_parents"].to_numpy(dtype=np.float64)
    return pa.table(
        {
            "child_key": pa.array(top["ckey"].astype(str),
                                  type=pa.string()),
            "parent_count": pa.array(
                top["n_parents"].to_numpy().astype(np.int64)),
            "avg_opener_len": pa.array(trunc6(s / n),
                                       type=pa.float64()),
        }
    )


def frequent_item_sets(ds, item_col: str = "tool",
                       txn_col: str = "conv_id",
                       min_support: float = 0.1, min_set_size: int = 1,
                       max_set_size: int = 3, k: int = 10,
                       n_buckets: int | None = None,
                       candidate_budget: int = 5_000_000):
    """ES ``frequent_item_sets`` aggregation (market-basket): item
    sets appearing together in at least ``min_support`` of the
    transactions, CLOSED sets only (a set is dropped when a strict
    superset has the same doc_count — the ES rule; closure is judged
    within the ``max_set_size`` enumeration cap, documented deviation
    from ES's unbounded Eclat). Transaction = one ``txn_col`` value
    (a conversation), items = its distinct non-null ``item_col``
    values (the tools it invoked).

    Shape: per-batch distinct (txn, item) projection → ONE txn-hash
    bucket exchange (a transaction's items meet in one reducer; the
    exchange moves distinct pairs, never turns) → per-bucket itemset
    enumeration by iterative self-merge (size-k candidates = size-k-1
    frame ⋈ items on txn with item > last, all pandas merges — no
    per-transaction Python), each level gated by
    ``candidate_budget`` with a loud refusal pointing at
    ``min_support``/``max_set_size`` (the guard for unbounded
    items-per-transaction domains; tool vocabularies are small, so
    the merge frames stay near-linear in transactions). Per-bucket
    counts + a per-bucket transaction tally ride one combine; the
    driver folds ONLY itemset-space rows (aggregate-sized by the
    budget), applies support + closure, and returns the top ``k`` by
    (doc_count DESC, size ASC, item_set ASC).

    → pyarrow.Table (item_set `|`-joined sorted, size, doc_count,
    support trunc6'd)."""
    from excelastic_ray.pipelines.textstats import trunc6

    if not (0.0 < min_support <= 1.0):
        raise ValueError(f"min_support must be in (0, 1], got "
                         f"{min_support}")
    if min_set_size < 1 or max_set_size < min_set_size:
        raise ValueError(
            f"need 1 <= min_set_size <= max_set_size, got "
            f"{min_set_size}/{max_set_size}"
        )
    def partial(batch: pa.Table) -> pd.DataFrame:
        txn = batch[txn_col].to_numpy(zero_copy_only=False)
        item = batch[item_col].to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"txn": txn, "item": item})
        df = df[df["item"].notna() & (df["item"] != "")]
        # '|' is the item_set join character; an item containing it
        # would corrupt set identity AND the closure decomposition —
        # refuse loudly rather than emit wrong closed sets
        bad = df["item"].astype(str).str.contains("|", regex=False)
        if bad.any():
            raise ValueError(
                f"frequent_item_sets: {item_col} values may not "
                f"contain '|' (the item_set separator); got "
                f"{df.loc[bad, 'item'].iloc[0]!r}"
            )
        return df.drop_duplicates()

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        base = g[["txn", "item"]].drop_duplicates()
        n_txn = int(base["txn"].nunique())
        frames = []
        cur = base.rename(columns={"item": "i1"})
        for size in range(1, max_set_size + 1):
            if size > 1:
                cur = cur.merge(base, on="txn", how="inner")
                cur = cur[cur["item"] > cur[f"i{size - 1}"]]
                cur = cur.rename(columns={"item": f"i{size}"})
            if len(cur) > candidate_budget:
                raise RuntimeError(
                    f"frequent_item_sets: size-{size} candidate frame "
                    f"({len(cur)} rows) exceeds candidate_budget="
                    f"{candidate_budget}; raise min_support, lower "
                    f"max_set_size, or raise the budget explicitly"
                )
            if not len(cur):
                break
            keys = [f"i{j}" for j in range(1, size + 1)]
            cnt = (cur.groupby(keys, sort=False).size()
                   .rename("cnt").reset_index())
            items = cnt[keys[0]].astype(str)
            for kk in keys[1:]:
                items = items + "|" + cnt[kk].astype(str)
            frames.append(pd.DataFrame(
                {"item_set": items, "size": size,
                 "cnt": cnt["cnt"].to_numpy(dtype=np.int64)}
            ))
        frames.append(pd.DataFrame(
            {"item_set": [""], "size": [0], "cnt": [n_txn]}
        ))
        return pd.concat(frames, ignore_index=True)

    fine = combine_by_key(
        ds.select_columns([txn_col, item_col])
        .map_batches(partial, batch_format="pyarrow", batch_size=16384),
        ["txn"], per_bucket, size_from=ds, bytes_per_row=24,
        n_buckets=n_buckets,
    ).to_pandas()  # aggregate-sized: itemset space × buckets
    empty = pa.table(
        {"item_set": pa.array([], type=pa.string()),
         "size": pa.array([], type=pa.int64()),
         "doc_count": pa.array([], type=pa.int64()),
         "support": pa.array([], type=pa.float64())}
    )
    if not len(fine):
        return empty
    tot = (fine.groupby(["item_set", "size"], sort=False)["cnt"]
           .sum().reset_index())
    n_txn = int(tot.loc[tot["size"] == 0, "cnt"].sum())
    tot = tot[tot["size"] > 0]
    if not n_txn or not len(tot):
        return empty
    support = tot["cnt"].to_numpy(dtype=np.float64) / n_txn
    keep = (support >= min_support) & (tot["size"] >= min_set_size)
    tot = tot[keep].reset_index(drop=True)
    support = support[keep.to_numpy()] if hasattr(keep, "to_numpy") \
        else support[keep]
    # closed-set rule: drop s when a strict superset counts the same
    sets = [frozenset(s.split("|")) for s in tot["item_set"]]
    cnts = tot["cnt"].to_numpy()
    closed = np.ones(len(tot), dtype=bool)
    by_cnt: dict[int, list[int]] = {}
    for i, c in enumerate(cnts.tolist()):
        by_cnt.setdefault(c, []).append(i)
    for idxs in by_cnt.values():
        for i in idxs:
            for j in idxs:
                if len(sets[j]) > len(sets[i]) and sets[i] <= sets[j]:
                    closed[i] = False
                    break
    tot = tot[closed]
    support = support[closed]
    order = np.lexsort(
        (tot["item_set"].to_numpy(), tot["size"].to_numpy(),
         -tot["cnt"].to_numpy())
    )[:k]
    tot = tot.iloc[order]
    return pa.table(
        {
            "item_set": pa.array(tot["item_set"].astype(str),
                                 type=pa.string()),
            "size": pa.array(tot["size"].to_numpy().astype(np.int64)),
            "doc_count": pa.array(
                tot["cnt"].to_numpy().astype(np.int64)),
            "support": pa.array(trunc6(support[order]),
                                type=pa.float64()),
        }
    )
