"""Answers computed apart from the program, and the checks that compare.

The search oracle re-tokenizes the raw Parquet text with its own regex
(lowercase, runs of ``[a-z0-9_]+``: the documented standard analyzer) and
scores Lucene BM25 (k1=1.2, b=0.75, exact document lengths) with numpy.
The aggregate oracle is DuckDB SQL over the same Parquet files. Every
check returns ``None`` when the answer is right and a one-line reason when
it is wrong; callers count a reason as one failed operation.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pandas as pd

K1, B = 1.2, 0.75
#: scores agree to this relative tolerance; a 1e-6 shift is caught
SCORE_TOL = 1e-9
_TOKEN = re.compile(r"[a-z0-9_]+")


def tokenize(text) -> list[str]:
    return _TOKEN.findall(text.lower()) if text else []


def _idf(n: int, df: int) -> float:
    return math.log(1.0 + (n - df + 0.5) / (df + 0.5))


class SearchOracle:
    """BM25 over (conv_id, turn_idx, tokens) rows, with the inverted index
    held as term-sorted numpy arrays."""

    def __init__(self, conv_ids, turn_idx, tokens: list[list[str]]):
        self.keys = list(zip(conv_ids, (int(t) for t in turn_idx)))
        self.tokens = tokens
        self.row_of = {k: i for i, k in enumerate(self.keys)}
        self.dl = np.array([len(t) for t in tokens], dtype=np.float64)
        self.n = len(tokens)
        self.avgdl = float(self.dl.sum()) / self.n
        flat = [w for row in tokens for w in row]
        rows = np.repeat(np.arange(self.n), self.dl.astype(np.int64))
        codes, uniq = pd.factorize(np.asarray(flat, dtype=object))
        self._flat_codes, self._flat_rows = codes, rows
        order = np.lexsort((rows, codes))
        self._codes, self._rows = codes[order], rows[order]
        self._code_of = {t: i for i, t in enumerate(uniq)}
        self._post: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    @classmethod
    def from_table(cls, table) -> "SearchOracle":
        return cls(table["conv_id"].to_pylist(), table["turn_idx"].to_pylist(),
                   [tokenize(t) for t in table["text"].to_pylist()])

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """(rows, tf) of ``term``."""
        hit = self._post.get(term)
        if hit is None:
            c = self._code_of.get(term)
            if c is None:
                hit = (np.zeros(0, np.int64), np.zeros(0, np.int64))
            else:
                lo, hi = np.searchsorted(self._codes, [c, c + 1])
                hit = np.unique(self._rows[lo:hi], return_counts=True)
            self._post[term] = hit
        return hit

    def _contrib(self, idf: float, tf, rows):
        return idf * (tf * (K1 + 1.0)
                      / (tf + K1 * (1.0 - B + B * (self.dl[rows] / self.avgdl))))

    def _ranked(self, scores: np.ndarray, match: np.ndarray, k: int):
        cand = np.flatnonzero(match)
        if len(cand) > k:
            kth = np.partition(scores[cand], len(cand) - k)[len(cand) - k]
            cand = cand[scores[cand] >= kth]
        ranked = sorted(cand.tolist(), key=lambda r: (-scores[r], self.keys[r]))[:k]
        return [(*self.keys[r], float(scores[r])) for r in ranked], scores

    def match(self, query: str, k: int, require_all: bool = False):
        """ES match (operator or/and) → (top-k hits, full score array)."""
        terms = sorted(set(tokenize(query)))
        acc = np.zeros(self.n)
        hits = np.zeros(self.n, np.int64)
        live = 0
        for t in terms:
            rows, tf = self.postings(t)
            if not len(rows):
                continue
            live += 1
            acc[rows] += self._contrib(_idf(self.n, len(rows)), tf, rows)
            hits[rows] += 1
        if require_all:
            match = hits == live if live == len(terms) else np.zeros(self.n, bool)
        else:
            match = hits > 0
        return self._ranked(acc, match & (live > 0), k)

    def phrase(self, query: str, k: int):
        """match_phrase, scored as one pseudo-term: tf = occurrences of the
        exact token sequence in the turn, df = turns holding it."""
        codes = [self._code_of.get(t) for t in tokenize(query)]
        ptf = np.zeros(self.n)
        n, fc, fr = len(codes), self._flat_codes, self._flat_rows
        if n and None not in codes and len(fc) >= n:
            span = len(fc) - n + 1
            at = fr[:span] == fr[n - 1:n - 1 + span]  # within one turn
            for j, c in enumerate(codes):
                at &= fc[j:j + span] == c
            rows, counts = np.unique(fr[:span][at], return_counts=True)
            ptf[rows] = counts
        acc = np.zeros(self.n)
        rows = np.flatnonzero(ptf)
        if len(rows):
            acc[rows] = self._contrib(_idf(self.n, len(rows)), ptf[rows], rows)
        return self._ranked(acc, ptf > 0, k)

    def boolean(self, must: str, should: str, must_not: str, k: int):
        """ES bool with one or more must terms: required ``must``, optional
        ``should``, excluded ``must_not``; score sums the must and should
        terms a turn holds."""
        m, s, x = (set(tokenize(q)) for q in (must, should, must_not))
        ok = np.ones(self.n, bool)
        for t in m:
            has = np.zeros(self.n, bool)
            has[self.postings(t)[0]] = True
            ok &= has
        for t in x:
            ok[self.postings(t)[0]] = False
        if m & x:
            ok[:] = False
        acc = np.zeros(self.n)
        for t in sorted(m | (s - x)):
            rows, tf = self.postings(t)
            if len(rows):
                acc[rows] += self._contrib(_idf(self.n, len(rows)), tf, rows)
        return self._ranked(acc, ok, k)

    def answer(self, q: dict, k: int):
        if q["kind"] == "phrase":
            return self.phrase(q["q"], k)
        if q["kind"] == "bool":
            return self.boolean(q["must"], q["should"], q["must_not"], k)
        return self.match(q["q"], k, require_all=q["kind"] == "and")

    def check(self, q: dict, hits, k: int, expected=None) -> str | None:
        """``hits`` [(conv_id, turn_idx, score)] against this oracle's answer
        (or the precomputed ``expected``) to query ``q``."""
        top, scores = expected or self.answer(q, k)
        err = compare_hits(hits, top, scores, self)
        if err is None and q["kind"] == "bool":
            err = self.bool_violation(q, hits)
        return err

    def bool_violation(self, q: dict, hits) -> str | None:
        """Each hit holds every must term and no must_not term."""
        m, x = set(tokenize(q["must"])), set(tokenize(q["must_not"]))
        for conv, turn, _ in hits:
            row = self.row_of.get((conv, turn))
            toks = set(self.tokens[row]) if row is not None else set()
            if not m <= toks or toks & x:
                return f"bool hit {conv}:{turn} breaks must/must_not"
        return None


def compare_hits(got, expected, scores, oracle: SearchOracle) -> str | None:
    """``got`` and ``expected`` are [(conv_id, turn_idx, score)] in rank
    order. Equal when rank i has the expected score at every i and each
    returned turn truly has that score (turns tied on score may come in
    either order); ``scores`` is the oracle's full score array."""
    if len(got) != len(expected):
        return f"{len(got)} hits, expected {len(expected)}"
    seen = set()
    for i, ((c, t, s), (_, _, e)) in enumerate(zip(got, expected)):
        tol = SCORE_TOL * max(1.0, abs(e))
        if abs(s - e) > tol:
            return f"rank {i + 1} score {s!r}, expected {e!r}"
        row = oracle.row_of.get((c, int(t)))
        if row is None or (c, t) in seen or abs(scores[row] - e) > tol:
            return f"rank {i + 1} is {c}:{t}, not a turn scoring {e!r}"
        seen.add((c, t))
    return None


# ---------------------------------------------------------------------------
# aggregate twins (DuckDB over the same Parquet files)
# ---------------------------------------------------------------------------

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

_TOKENS_SQL = "regexp_extract_all(lower(text), '[a-z0-9_]+')"


def aggregate_twins(parquet_glob: str) -> dict[str, pd.DataFrame]:
    """Expected outputs of conv_stats, term_df and agg_tree_fanout with
    FANOUT_SPEC, each in the canonical form ``canon`` gives."""
    import duckdb

    con = duckdb.connect()
    con.execute(f"CREATE VIEW t AS SELECT * FROM read_parquet('{parquet_glob}')")
    conv = con.execute(f"""
        SELECT conv_id, count(*) AS n_turns,
          sum((role = 'user')::BIGINT) AS n_user,
          sum((role = 'assistant')::BIGINT) AS n_assistant,
          sum((role = 'tool')::BIGINT) AS n_tool_role,
          sum((coalesce(tool, '') <> '')::BIGINT) AS n_tool_calls,
          sum(len({_TOKENS_SQL})) AS n_tokens,
          (epoch_us(max(ts)) - epoch_us(min(ts))) // 1000000 AS duration_s
        FROM t GROUP BY conv_id""").df()
    terms = con.execute(f"""
        WITH r AS (SELECT row_number() OVER () AS rid, text FROM t),
             u AS (SELECT rid, unnest({_TOKENS_SQL}) AS term FROM r)
        SELECT term, count(DISTINCT rid) AS df, count(*) AS cf
        FROM u GROUP BY term""").df()
    roles = con.execute("""
        SELECT role AS by_role_key, count(*) AS doc_count FROM t
        WHERE role IS NOT NULL GROUP BY role
        ORDER BY doc_count DESC, role LIMIT 4""").df()
    kept = ", ".join(f"'{r}'" for r in roles["by_role_key"])
    tools = con.execute(f"""
        SELECT by_role_key, by_tool_key, doc_count FROM (
          SELECT role AS by_role_key, tool AS by_tool_key, count(*) AS doc_count,
                 row_number() OVER (PARTITION BY role
                                    ORDER BY count(*) DESC, tool) AS rk
          FROM t WHERE tool IS NOT NULL AND role IN ({kept})
          GROUP BY role, tool) WHERE rk <= 5""").df()
    days = con.execute(f"""
        SELECT role AS by_role_key,
               make_timestamp((epoch_us(ts) // 86400000000) * 86400000000)
                 AS per_day_key,
               count(*) AS doc_count, max(turn_idx)::DOUBLE AS last_turn,
               floor(avg(turn_idx) * 1e6 + 0.5) / 1e6 AS avg_turn
        FROM t WHERE role IN ({kept}) GROUP BY ALL""").df()
    total = con.execute("SELECT count(*) AS doc_count, count(turn_idx)::DOUBLE "
                        "AS n_turns FROM t").df()
    con.close()
    fan = pd.concat([total.assign(agg="_root"), roles.assign(agg="by_role"),
                     tools.assign(agg="by_tool"), days.assign(agg="per_day")],
                    ignore_index=True)
    return {"conv_stats": canon("conv_stats", conv),
            "term_df": canon("term_df", terms),
            "agg_tree_fanout": canon("agg_tree_fanout", fan)}


_FAN_COLS = ["agg", "by_role_key", "by_tool_key", "per_day_key", "doc_count",
             "n_turns", "last_turn", "avg_turn"]


def canon(name: str, df: pd.DataFrame) -> pd.DataFrame:
    """Row order and dtypes fixed so two frames compare cell by cell."""
    df = df.copy()
    if name == "agg_tree_fanout":
        for c in _FAN_COLS:
            if c not in df:
                df[c] = None
        df = df[_FAN_COLS]
        for c in ("agg", "by_role_key", "by_tool_key"):
            df[c] = df[c].astype(object).where(df[c].notna(), "")
        day = pd.to_datetime(df["per_day_key"])
        df["per_day_key"] = day.dt.strftime("%Y-%m-%dT%H").fillna("")
        df["doc_count"] = df["doc_count"].astype(np.int64)
        for c in ("n_turns", "last_turn", "avg_turn"):
            df[c] = pd.to_numeric(df[c], errors="coerce").astype(np.float64)
        keys = ["agg", "by_role_key", "by_tool_key", "per_day_key"]
    elif name == "conv_stats":
        keys = ["conv_id"]
        for c in df.columns.drop("conv_id"):
            df[c] = df[c].astype(np.int64)
        df = df[["conv_id", "n_turns", "n_user", "n_assistant", "n_tool_role",
                 "n_tool_calls", "n_tokens", "duration_s"]]
    else:
        keys = ["term"]
        df = df[["term", "df", "cf"]].astype({"df": np.int64, "cf": np.int64})
    return df.sort_values(keys, kind="mergesort").reset_index(drop=True)


def compare_frames(got: pd.DataFrame, expected: pd.DataFrame) -> str | None:
    """Cell-by-cell equality of two canonical frames; floats to 1.5e-6
    (both sides round to six decimals)."""
    if len(got) != len(expected):
        return f"{len(got)} rows, expected {len(expected)}"
    for c in expected.columns:
        a, e = got[c].to_numpy(), expected[c].to_numpy()
        if e.dtype.kind == "f":
            bad = ~(np.isclose(a, e, rtol=0, atol=1.5e-6) | (np.isnan(a) & np.isnan(e)))
        else:
            bad = a != e
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            return f"column {c} row {i}: {a[i]!r}, expected {e[i]!r}"
    return None


# ---------------------------------------------------------------------------
# build and bulk checks
# ---------------------------------------------------------------------------


def check_build(n_docs: int, n_rows: int) -> str | None:
    return None if n_docs == n_rows else f"n_docs {n_docs} != {n_rows} Parquet rows"


def check_bulk(status: int, out: dict, docs: list[dict]) -> str | None:
    """One ok item per document sent, in order."""
    items = out.get("items", []) if status == 200 else []
    if status != 200 or len(items) != len(docs):
        return f"status {status}, {len(items)} items for {len(docs)} docs: {str(out)[:200]}"
    bad = [it for it in items if it.get("status") != "ok"]
    return f"item errors: {str(bad)[:200]}" if bad else None


def check_marker(hits: list[dict], doc: dict) -> str | None:
    """A search for a document's marker token finds that document alone."""
    got = [(h.get("conv_id"), h.get("turn_idx")) for h in hits]
    want = [(doc["conv_id"], doc["turn_idx"])]
    return None if got == want else f"marker {doc['marker']} found {got}, expected {want}"


def check_count(out: dict, n_inserted: int) -> str | None:
    return (None if out.get("count") == n_inserted
            else f"count {out.get('count')} after {n_inserted} inserted")
