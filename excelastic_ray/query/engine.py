"""Query engine: shard readers, TAAT scorer, skip scorers, actor pool.

The native replacement for the query half the reference delegates to
Elasticsearch (``/root/reference/README.md:3``). Shards are
doc-partitioned (config.py), so every shard answers exact top-k locally
using *global* collection stats (N, avgdl, df summed across shards at
query time) and the driver merges k-sized per-shard heaps — no posting
list ever leaves a shard at query time.

Three scoring strategies, required to be result-identical (tests
assert); ``ShardSearcher.topk`` picks one per shard:

- ``taat`` — vectorized term-at-a-time over fully decoded postings
  (numpy); the reference scorer for exactness checks and the fallback
  everywhere pruning cannot help.
- ``and_skip`` — vectorized block-skip intersection for conjunctive
  queries with skewed dfs (the rarest term bounds the candidate set;
  hot terms decode only candidate-bearing skip blocks).
- ``or_skip`` — vectorized MaxScore (Turtle & Flood 1995) with
  block-max term bounds for disjunctive queries with skewed dfs: terms
  whose cumulative upper bound falls below the rarest term's k-th best
  score never fully decode. Provably exact with a TAAT fallback.

Per-cursor block-max WAND (Ding & Suel, SIGIR 2011) was retired: its
per-posting Python overhead lost to TAAT at every measured shape
(57-202x, BASELINE.md round 3); and_skip / or_skip are its skip ideas,
vectorized.

All exact top-k — pruning only, never approximation. Tie-break is
(score DESC, docid ASC), and docid order == (conv_id, turn_idx) order
by construction.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import re
import threading

import numpy as np
import pyarrow.parquet as pq

from excelastic_ray.analysis import TOKEN_RE, query_terms
from excelastic_ray.codecs import BLOCKMAX_DTYPE, PostingList
from excelastic_ray.config import IndexConfig
from excelastic_ray.index import segments as seg
from excelastic_ray.query.bm25 import contribution, idf, tf_norm
from excelastic_ray.query.script import (
    compile_filter_script,
    compile_score_script,
)


def _file_id(path) -> tuple | None:
    """Identity of one file as opened now, or None when it is absent:
    every index write replaces files (``os.replace``), so an equal id
    means the same bytes."""
    if not path:  # False: a pinned empty generation reads no file
        return None
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)


class ShardSearcher:
    """In-memory searcher over one shard's postings.parquet. Stateful:
    term dictionary + encoded postings loaded once, queries reuse it.

    ``deletes_path`` / ``updates_path`` select which tombstone /
    doc-values-update generation this searcher serves: ``None`` (the
    default) reads the CURRENT ``deletes.parquet`` / ``updates.parquet``,
    ``False`` pins the empty generation (no deletes / no updates), and a
    string path pins a specific ``*_g{rev}.parquet`` file — the
    point-in-time mechanism (see :meth:`QueryEngine.open_pit`).

    ``file_ids`` holds the :func:`_file_id` of the postings, docs,
    deletes and updates files, taken before they are read, so a file
    replaced mid-open never matches (:meth:`IndexReader.open_all`);
    it is None once ``delete_by_query``/``update_by_query`` changed the
    searcher in place."""

    def __init__(self, shard_path: str, config: IndexConfig,
                 deletes_path=None, updates_path=None):
        self.cfg = config
        self._deletes_path = deletes_path
        self._updates_path = updates_path
        dpath = (os.path.join(shard_path, "deletes.parquet")
                 if deletes_path is None else deletes_path)
        upath = (os.path.join(shard_path, "updates.parquet")
                 if updates_path is None else updates_path)
        self.file_ids = tuple(map(_file_id, (
            os.path.join(shard_path, "postings.parquet"),
            os.path.join(shard_path, "docs.parquet"), dpath, upath)))
        t = pq.read_table(os.path.join(shard_path, "postings.parquet"))
        self.terms = t["term"].to_numpy(zero_copy_only=False).astype(object)
        self.df = t["df"].to_numpy()
        # Keep the binary columns as Arrow arrays (buffer views over the
        # decoded table) instead of to_pylist()-ing every posting into
        # Python bytes — halves resident serving memory; a query copies
        # only the terms it touches (.as_py() per lookup).
        self.postings = t["postings"].combine_chunks()
        self.blockmax = t["blockmax"].combine_chunks()
        self.positions = (
            t["positions"].combine_chunks()
            if "positions" in t.schema.names and config.store_positions
            else None
        )
        # Decoded-postings LRU (hot query terms decode once per
        # searcher, like Lucene's term-state reuse): bounded by total
        # cached postings so worst-case memory is ~12 B x budget.
        from collections import OrderedDict

        self._decode_cache: "OrderedDict[int, tuple]" = OrderedDict()
        self._cache_budget = 4_000_000  # postings
        self._cache_size = 0
        # slot → (avgdl, idf-free MaxScore upper bound); static per
        # searcher for a fixed avgdl (block-max metadata never changes)
        self._ub_norm_cache: dict[int, tuple[float, float]] = {}
        # Decoded-positions LRU (slot → flat position array): a stopword
        # inside a phrase otherwise re-decodes a shard-sized positional
        # stream per query (phrase p50 was ~2x term p50).
        self._pos_cache: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._pos_budget = 8_000_000  # position entries
        self._pos_size = 0
        # exists-filter presence bitmaps (pure function of the
        # immutable attr columns; one bool array per attr)
        self._exists_cache: dict[str, np.ndarray] = {}
        docs = pq.read_table(os.path.join(shard_path, "docs.parquet"))
        # Ordinal → global docid / doc length (postings store ordinals).
        self.docids = docs["docid"].to_numpy()
        self.dls = docs["dl"].to_numpy().astype(np.float64)
        # delete_by_query tombstones: deleted docs drop out of every
        # RESULT path (the live mask composes into filter_mask, which
        # all result paths consult) while postings / df / avgdl stay
        # untouched until a merge — exactly ES's pre-merge delete
        # semantics (deletes don't immediately change scoring stats)
        self.live_mask: np.ndarray | None = None
        if dpath and os.path.exists(dpath):
            dead = pq.read_table(dpath)["docid"].to_numpy()
            if len(dead):
                self.live_mask = ~np.isin(self.docids, dead)
        # Filterable doc attributes (ES filter-context analog): strings
        # filter by equality; timestamp columns (kept as int64 µs) also
        # support range filters + date_histogram.
        self.attrs = {}
        self.time_attrs: dict[str, np.ndarray] = {}
        # per-field BM25 doc lengths ("dl@<field>" columns) for the
        # field-qualified posting streams (ES dynamic-mapping analog)
        self.field_dls: dict[str, np.ndarray] = {}
        import pyarrow.types as pt

        for name in docs.column_names:
            if name in ("docid", "dl"):
                continue
            if name.startswith("dl@"):
                self.field_dls[name[3:]] = (
                    docs[name].to_numpy().astype(np.float64)
                )
                continue
            f = docs.schema.field(name)
            if pt.is_timestamp(f.type):
                self.time_attrs[name] = (
                    docs[name].to_numpy().astype("datetime64[us]").astype(np.int64)
                )
            else:
                self.attrs[name] = (
                    docs[name].to_numpy(zero_copy_only=False).astype(object)
                )
        # update_by_query doc-values overlay (Lucene updateDocValues
        # analog): filter/facet/sort attrs reflect the new values;
        # postings — including field-qualified streams — stay as
        # indexed until a reindex, exactly Lucene's updatable-DV
        # contract.
        if upath and os.path.exists(upath):
            upd = pq.read_table(upath)
            u_ids = upd["docid"].to_numpy()
            u_attr = upd["attr"].to_numpy(zero_copy_only=False)
            u_val = upd["value"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(self.docids, u_ids)
            ok = (pos < len(self.docids)) & (
                self.docids[np.minimum(pos, len(self.docids) - 1)] == u_ids
            )
            for name in np.unique(u_attr[ok]):
                m = ok & (u_attr == name)
                if name in self.attrs:
                    self.attrs[name][pos[m]] = u_val[m]
                elif name in self.time_attrs:
                    self.time_attrs[name][pos[m]] = [
                        self._as_us(v) for v in u_val[m]
                    ]

    @staticmethod
    def _as_us(v) -> int:
        """ISO string / datetime64 / int → µs since epoch."""
        if isinstance(v, (int, np.integer)):
            return int(v)
        return int(np.datetime64(v, "us").astype(np.int64))

    def filter_mask(self, filters: dict | None) -> np.ndarray | None:
        """Ordinal-space bool mask. String attrs: value or value list
        (equality / IN). Timestamp attrs: {"gte"/"gt"/"lte"/"lt": bound}
        dicts with ISO-8601, datetime64 or µs-int bounds — the ES range
        query in filter context. Tombstoned docs (delete_by_query) are
        composed in here, so every result path excludes them."""
        if not filters:
            return self.live_mask  # None when no deletes; callers never
            # mutate the returned mask (they write into their own acc)
        mask = (
            self.live_mask.copy() if self.live_mask is not None
            else np.ones(len(self.docids), dtype=bool)
        )
        for name, want in filters.items():
            if isinstance(want, dict) and set(want) == {"exists"}:
                # ES exists query in filter context: a doc "has" a
                # string attr when it is neither null nor empty (both
                # conventions appear in the corpora: the generator
                # stores absent tools as None, the SQL-lockstep corpus
                # as ''). The presence bitmap is a pure function of the
                # immutable attr column, so it is computed once per
                # searcher and cached (pd.notna is the C-level null
                # scan over the object column).
                present = self._exists_cache.get(name)
                if present is None:
                    import pandas as pd

                    col = self.attrs.get(name)
                    if col is None:
                        raise KeyError(
                            f"attribute {name!r} not stored in this "
                            f"index (have {sorted(self.attrs)})"
                        )
                    s = pd.Series(col)
                    present = (
                        pd.notna(s) & (s.fillna("").astype(str) != "")
                    ).to_numpy()
                    self._exists_cache[name] = present
                mask &= present if want["exists"] else ~present
                continue
            if isinstance(want, dict):
                col = self._time_col(name)
                for op, bound in want.items():
                    b = self._as_us(bound)
                    if op == "gte":
                        mask &= col >= b
                    elif op == "gt":
                        mask &= col > b
                    elif op == "lte":
                        mask &= col <= b
                    elif op == "lt":
                        mask &= col < b
                    else:
                        raise ValueError(f"unknown range op {op!r}")
                continue
            col = self.attrs.get(name)
            if col is None:
                raise KeyError(
                    f"attribute {name!r} not stored in this index "
                    f"(have {sorted(self.attrs)})"
                )
            vals = [want] if isinstance(want, str) else list(want)
            mask &= np.isin(col.astype(str), vals)
        return mask

    def date_histogram(self, terms: list[str], attr: str, interval_us: int,
                       n_required: int = 0,
                       filters: dict | None = None) -> dict[int, int]:
        """Matching-doc counts per time bucket (floor(ts / interval) *
        interval, µs) — the ES date_histogram agg over the query's
        filter context."""
        col = self._time_col(attr)
        m = self.matching_mask(terms, n_required, filters)
        buckets = (col[m] // interval_us) * interval_us
        vals, counts = np.unique(buckets, return_counts=True)
        return dict(zip(vals.tolist(), counts.tolist()))

    def _time_col(self, attr: str) -> np.ndarray:
        col = self.time_attrs.get(attr)
        if col is None:
            raise KeyError(
                f"no timestamp attribute {attr!r} in this index "
                f"(have {sorted(self.time_attrs)})"
            )
        return col

    def lookup(self, term: str) -> int:
        i = int(np.searchsorted(self.terms, term))
        if i < len(self.terms) and self.terms[i] == term:
            return i
        return -1

    def dfs(self, terms: list[str]) -> list[int]:
        return [int(self.df[i]) if (i := self.lookup(t)) >= 0 else 0 for t in terms]

    def ctfs(self, terms: list[str]) -> list[int]:
        """Collection term frequency (total occurrence count) per term
        in this shard — the unigram counts of the phrase suggester's
        corpus LM."""
        out = []
        for t in terms:
            i = self.lookup(t)
            out.append(int(self.decoded(i)[1].sum()) if i >= 0 else 0)
        return out

    def adj_counts(self, pairs: list[tuple[str, str]]) -> list[int]:
        """Total adjacent-occurrence count per (a, b) bigram in this
        shard (the sum of exact-phrase anchors over docs) — the bigram
        counts of the phrase suggester's corpus LM."""
        return [
            int(self.phrase_matches([a, b], 0)[1].sum())
            for a, b in pairs
        ]

    def prefix_dfs(self, prefix: str) -> tuple[np.ndarray, np.ndarray]:
        """(terms, dfs) of the whole prefix range as ARRAY SLICES —
        zero per-term lookups (the completion suggester's hot path:
        per-term ``dfs()`` over thousands of candidates costs
        O(candidates · log V) binary searches; the range slice is two
        searches total)."""
        lo = int(np.searchsorted(self.terms, max(prefix, "\x02")))
        hi = int(np.searchsorted(self.terms, prefix + "\U0010ffff"))
        return self.terms[lo:hi], self.df[lo:hi]

    def terms_with_prefix(self, prefix: str, cap: int,
                          field: str | None = None) -> list[str]:
        """First ``cap`` dictionary terms starting with ``prefix`` —
        a contiguous range of the sorted term dictionary (two binary
        searches), the Lucene TermEnum seek the ES prefix query uses.
        With ``field``, the seek happens inside that field's key region
        and the bare terms are returned (field-scoped prefix query).
        The field-qualified key region (keys starting FIELD_MARK =
        "\\x01") sits contiguously at the dictionary head; clamping lo
        past it keeps field streams invisible to unqualified expansion
        (any non-empty analyzer prefix already lands past it)."""
        if field is not None:
            from excelastic_ray.analysis import field_key

            base = field_key(field, prefix)
            lo = int(np.searchsorted(self.terms, base))
            hi = int(np.searchsorted(self.terms, base + "\U0010ffff"))
            strip = len(base) - len(prefix)
            return [
                str(t)[strip:]
                for t in self.terms[lo : min(hi, lo + cap)]
            ]
        lo = int(np.searchsorted(self.terms, max(prefix, "\x02")))
        hi = int(np.searchsorted(self.terms, prefix + "\U0010ffff"))
        return [str(t) for t in self.terms[lo : min(hi, lo + cap)]]

    def terms_enum_scan(self, prefix: str, cap: int,
                        after: str | None = None,
                        field: str | None = None) -> list[str]:
        """First ``cap`` dictionary terms with ``prefix`` strictly
        AFTER ``after`` in term order — the per-shard half of the ES
        ``_terms_enum`` API: the same two-binary-search TermEnum seek
        as :meth:`terms_with_prefix` plus the pagination seek (a third
        binary search), never a scan from the dictionary head."""
        if field is not None:
            from excelastic_ray.analysis import field_key

            base = field_key(field, prefix)
            lo = int(np.searchsorted(self.terms, base))
            hi = int(np.searchsorted(self.terms, base + "\U0010ffff"))
            if after is not None:
                lo = max(lo, int(np.searchsorted(
                    self.terms, field_key(field, after), side="right")))
            strip = len(base) - len(prefix)
            return [
                str(t)[strip:]
                for t in self.terms[lo : min(hi, lo + cap)]
            ]
        lo = int(np.searchsorted(self.terms, max(prefix, "\x02")))
        hi = int(np.searchsorted(self.terms, prefix + "\U0010ffff"))
        if after is not None:
            lo = max(lo, int(np.searchsorted(self.terms, after,
                                             side="right")))
        return [str(t) for t in self.terms[lo : min(hi, lo + cap)]]

    def terms_matching(self, pattern: str, cap: int,
                       field: str | None = None) -> list[str]:
        """First ``cap`` dictionary terms matching an ES wildcard
        pattern (``*`` = any run of chars, ``?`` = exactly one).
        Lucene rewrites a wildcard query to an automaton intersected
        with the term dict; the dense-dictionary analog is a
        literal-prefix seek (two binary searches bound the scan to the
        prefix region) + one compiled-regex pass over the surviving
        slice. A leading wildcard degenerates to a full
        dictionary-region scan — the same cost cliff the ES docs warn
        about for leading-wildcard queries."""
        lit = re.split(r"[*?]", pattern, maxsplit=1)[0]
        rx = re.compile(
            "".join(
                ".*" if c == "*" else "." if c == "?" else re.escape(c)
                for c in pattern
            )
        )
        if field is not None:
            from excelastic_ray.analysis import field_key

            base = field_key(field, lit)
            lo = int(np.searchsorted(self.terms, base))
            hi = int(np.searchsorted(self.terms, base + "\U0010ffff"))
            strip = len(base) - len(lit)
            out = []
            for t in self.terms[lo:hi]:
                bare = str(t)[strip:]
                if rx.fullmatch(bare):
                    out.append(bare)
                    if len(out) >= cap:
                        break
            return out
        lo = int(np.searchsorted(self.terms, max(lit, "\x02")))
        hi = (
            int(np.searchsorted(self.terms, lit + "\U0010ffff"))
            if lit else len(self.terms)
        )
        out = []
        for t in self.terms[lo:hi]:
            ts = str(t)
            if rx.fullmatch(ts):
                out.append(ts)
                if len(out) >= cap:
                    break
        return out

    def terms_regexp(self, pattern: str, cap: int,
                     field: str | None = None) -> list[str]:
        """First ``cap`` dictionary terms whose WHOLE text matches the
        regex (ES ``regexp`` query is anchored — Lucene wraps the
        expression in an automaton matched against full terms). Same
        dictionary-seek shape as :meth:`terms_matching`: the regex's
        literal prefix bounds the scan with two binary searches, then
        one compiled ``fullmatch`` pass over the surviving slice. A
        pattern with no literal prefix scans the whole region — the
        documented ES cost cliff."""
        lit = _regex_literal_prefix(pattern)
        rx = re.compile(pattern)
        if field is not None:
            from excelastic_ray.analysis import field_key

            base = field_key(field, lit)
            lo = int(np.searchsorted(self.terms, base))
            hi = int(np.searchsorted(self.terms, base + "\U0010ffff"))
            strip = len(base) - len(lit)
            out = []
            for t in self.terms[lo:hi]:
                bare = str(t)[strip:]
                if rx.fullmatch(bare):
                    out.append(bare)
                    if len(out) >= cap:
                        break
            return out
        lo = int(np.searchsorted(self.terms, max(lit, "\x02")))
        hi = (
            int(np.searchsorted(self.terms, lit + "\U0010ffff"))
            if lit else len(self.terms)
        )
        out = []
        for t in self.terms[lo:hi]:
            ts = str(t)
            if rx.fullmatch(ts):
                out.append(ts)
                if len(out) >= cap:
                    break
        return out

    def fuzzy_candidates(self, term: str, max_edits: int,
                         prefix_length: int = 0) -> list[tuple[str, int]]:
        """Dictionary terms within Levenshtein distance ``max_edits`` of
        ``term`` (the ES fuzziness expansion; Lucene walks a Levenshtein
        automaton against the term dict — the dense-dictionary analog is
        a vectorized banded DP over the candidate block). Candidates are
        pre-pruned by the sorted dictionary itself: ``prefix_length``
        exact leading chars (two binary searches) and a ±max_edits
        length window; the DP then runs len(term)×maxlen numpy ops over
        the surviving rows, no Python loop over terms."""
        lo, hi = self._unprefixed_region()
        if prefix_length > 0:
            p = term[:prefix_length]
            lo = max(lo, int(np.searchsorted(self.terms, p)))
            hi = min(hi, int(np.searchsorted(self.terms, p + "\U0010ffff")))
        if hi <= lo:
            return []
        cands = self.terms[lo:hi]
        lens = self._term_lengths()[lo:hi]
        m = len(term)
        sel = np.abs(lens - m) <= max_edits
        cands = cands[sel]
        if not len(cands):
            return []
        dists = _levenshtein_all(term, cands, lens[sel])
        ok = dists <= max_edits
        return list(zip((str(t) for t in cands[ok]), dists[ok].tolist()))

    def _unprefixed_region(self) -> tuple[int, int]:
        """[lo, hi) of the catch-all (non-field-qualified) dictionary
        region — field keys start with FIELD_MARK = '\\x01' < '\\x02'."""
        return int(np.searchsorted(self.terms, "\x02")), len(self.terms)

    def _term_lengths(self) -> np.ndarray:
        """Per-slot term lengths, computed once per searcher (lazy: only
        fuzzy queries need it)."""
        lens = getattr(self, "_term_lens", None)
        if lens is None:
            lens = np.fromiter(
                (len(t) for t in self.terms), np.int64, len(self.terms)
            )
            self._term_lens = lens
        return lens

    def posting_list(self, i: int) -> PostingList:
        return PostingList(
            self.postings[i].as_py(), self.blockmax[i].as_py(),
            self.cfg.codec, self.cfg.block_size,
        )

    def decoded(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Fully decoded (ids, tfs) for term slot ``i``, LRU-cached.
        Callers must treat the arrays as read-only."""
        c = self._decode_cache.get(i)
        if c is not None:
            self._decode_cache.move_to_end(i)
            return c
        ids, tfs = self.posting_list(i).decode_all()
        n = len(ids)
        if n <= self._cache_budget:
            while (self._cache_size + n > self._cache_budget
                   and self._decode_cache):
                _, (old_ids, _) = self._decode_cache.popitem(last=False)
                self._cache_size -= len(old_ids)
            self._decode_cache[i] = (ids, tfs)
            self._cache_size += n
        return ids, tfs

    def positions_of(self, i: int, tfs: np.ndarray) -> np.ndarray:
        """Decoded token positions for term slot ``i``, flat-aligned to
        ``np.repeat(ids, tfs)`` (grouped cumsum of the delta stream).
        LRU-cached beside the ids/tfs cache: a stopword inside a phrase
        otherwise re-decodes its whole positional stream every query.
        Callers must treat the array as read-only."""
        from excelastic_ray.codecs import varint_decode

        if self.positions is None:
            raise RuntimeError(
                "index was built with store_positions=False; phrase "
                "queries need a rebuild"
            )
        c = self._pos_cache.get(i)
        if c is not None and len(c) == int(tfs.sum()):
            # the cached array is a function of the FULL tf stream; a
            # caller passing filtered tfs must not hit it (length guard)
            self._pos_cache.move_to_end(i)
            return c
        vals = varint_decode(self.positions[i].as_py()).astype(np.int64)
        cum = np.cumsum(vals)
        starts = np.cumsum(tfs.astype(np.int64))[:-1]
        base = np.concatenate(([0], cum[starts - 1]))
        out = cum - np.repeat(base, tfs.astype(np.int64))
        n = len(out)
        if n <= self._pos_budget:
            while self._pos_size + n > self._pos_budget and self._pos_cache:
                _, old = self._pos_cache.popitem(last=False)
                self._pos_size -= len(old)
            self._pos_cache[i] = out
            self._pos_size += n
        return out

    def phrase_count(self, terms: list[str], slop: int = 0,
                     field: str | None = None,
                     slop_mode: str = "windowed") -> int:
        """Phase 1 of phrase scoring: compute + cache this shard's
        phrase matches, return only their count (the phrase-df partial).
        The match set stays shard-local so the driver never receives
        more than counts + k-sized results."""
        key = (tuple(terms), slop, field, slop_mode)
        m = self.phrase_matches(terms, slop, field, slop_mode)
        self._phrase_cache = (key, m)
        return len(m[0])

    def phrase_topk(self, terms: list[str], p_idf: float, avgdl: float,
                    k: int, slop: int = 0,
                    field: str | None = None,
                    slop_mode: str = "windowed"
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Phase 2: score the cached matches with the now-known global
        phrase idf, return this shard's top-k only."""
        key = (tuple(terms), slop, field, slop_mode)
        cached = getattr(self, "_phrase_cache", None)
        if cached is not None and cached[0] == key:
            docids, ptfs, dls = cached[1]
        else:
            docids, ptfs, dls = self.phrase_matches(terms, slop, field,
                                                    slop_mode)
        if not len(docids):
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        sc = contribution(
            p_idf, ptfs.astype(np.float64), dls, avgdl,
            self.cfg.k1, self.cfg.b,
        )
        order = np.lexsort((docids, -sc))[:k]
        return docids[order], sc[order]

    def intervals_matches(self, node: dict):
        """ES ``intervals`` rule evaluation → (docids, itf, dls) for
        docs with ≥ 1 matching interval; itf = the minimal-interval
        count (the pseudo-term tf, the phrase-scoring convention).
        ``node`` is a VALIDATED rule tree (query.intervals) whose leaf
        terms are analyzer tokens. Candidate docs are bounded by the
        rule's structure (intersection under match/all_of, union under
        any_of), so per-doc interval algebra runs only on docs that
        could match; cached per searcher keyed by the canonical rule
        (the count and topk phases share one evaluation)."""
        import json

        from excelastic_ray.query import intervals as iv

        key = json.dumps(node, sort_keys=True)
        cached = getattr(self, "_intervals_cache", None)
        if cached is not None and cached[0] == key:
            return cached[1]
        empty = (np.zeros(0, np.int64), np.zeros(0, np.int64),
                 np.zeros(0, np.float64))
        data: dict = {}
        for t in sorted(iv.leaf_terms(node)):
            i = self.lookup(t)
            if i < 0:
                data[t] = None
                continue
            ids, tfs = self.decoded(i)
            pos = self.positions_of(i, tfs)
            offs = np.concatenate(([0], np.cumsum(tfs)))
            data[t] = (ids, offs, pos)

        none = np.zeros(0, dtype=np.int64)

        def cand(n) -> np.ndarray:
            if n["op"] == "match":
                cur = None
                for t in n["terms"]:
                    d = data[t]
                    if d is None:
                        return none
                    cur = d[0] if cur is None else np.intersect1d(
                        cur, d[0], assume_unique=True
                    )
                    if not len(cur):
                        return none
                return cur
            parts = [cand(c) for c in n["children"]]
            if n["op"] == "any_of":
                return np.unique(np.concatenate(parts))
            cur = parts[0]
            for p in parts[1:]:
                cur = np.intersect1d(cur, p, assume_unique=True)
                if not len(cur):
                    return none
            return cur

        docs = cand(node)
        if not len(docs):
            self._intervals_cache = (key, empty)
            return empty
        out_ord, out_tf = [], []
        for d in docs.tolist():
            def pos_of(t, _d=d):
                rec = data[t]
                if rec is None:
                    return np.zeros(0, dtype=np.int64)
                ids, offs, pos = rec
                j = int(np.searchsorted(ids, _d))
                if j >= len(ids) or ids[j] != _d:
                    return np.zeros(0, dtype=np.int64)
                return pos[offs[j]:offs[j + 1]]

            s, _e = iv.eval_node(node, pos_of)
            if len(s):
                out_ord.append(d)
                out_tf.append(len(s))
        if not out_ord:
            self._intervals_cache = (key, empty)
            return empty
        ords = np.asarray(out_ord, dtype=np.int64)
        result = (
            self.docids[ords],
            np.asarray(out_tf, dtype=np.int64),
            self.dls[ords].astype(np.float64),
        )
        self._intervals_cache = (key, result)
        return result

    def intervals_count(self, node: dict) -> int:
        """Phase 1 of intervals scoring (the phrase_count shape)."""
        return len(self.intervals_matches(node)[0])

    def intervals_topk(self, node: dict, p_idf: float, avgdl: float,
                       k: int):
        """Phase 2: score the cached interval matches as ONE
        pseudo-term with the global rule idf; shard top-k."""
        docids, itfs, dls = self.intervals_matches(node)
        if not len(docids):
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        sc = contribution(
            p_idf, itfs.astype(np.float64), dls, avgdl,
            self.cfg.k1, self.cfg.b,
        )
        order = np.lexsort((docids, -sc))[:k]
        return docids[order], sc[order]

    def span_first_topk(self, term: str, end: int, t_idf: float,
                        avgdl: float, k: int, filters: dict | None = None):
        """ES ``span_first`` (a ``span_term`` bounded by ``end``):
        matches docs whose first occurrence of ``term`` spans inside
        the first ``end`` positions — 0-based, a term at position p
        spans (p, p+1), so match iff min position + 1 <= end. Scored
        EXACTLY like the plain term query (ES scores span queries with
        the underlying term's BM25 statistics; the span bound restricts
        matches, not stats). Positions come from the same stream the
        phrase scorer decodes; first-per-doc is the group-start gather."""
        cfg = self.cfg
        empty = (np.zeros(0, np.int64), np.zeros(0, np.float64))
        slot = self.lookup(term)
        if slot < 0:
            return empty
        ids, tfs = self.decoded(slot)
        pos = self.positions_of(slot, tfs)
        starts = np.concatenate(
            ([0], np.cumsum(tfs.astype(np.int64))[:-1])
        )
        keep = pos[starts] + 1 <= end
        ids, tfs = ids[keep], tfs[keep]
        mask = self.filter_mask(filters)
        if mask is not None and len(ids):
            m2 = mask[ids]
            ids, tfs = ids[m2], tfs[m2]
        if not len(ids):
            return empty
        sc = contribution(
            t_idf, tfs.astype(np.float64), self.dls[ids], avgdl,
            cfg.k1, cfg.b,
        )
        docids = self.docids[ids]
        order = np.lexsort((docids, -sc))[:k]
        return docids[order], sc[order]

    def span_near_topk(self, ta: str, tb: str, slop: int, idfa: float,
                       idfb: float, avgdl: float, k: int,
                       filters: dict | None = None):
        """ES ``span_near`` with two single-term clauses, UNORDERED
        (in_order=false): a doc matches when some occurrence pair sits
        within ``slop`` (min |pos_a − pos_b| ≤ slop + 1 — positions are
        distinct, so the gap between adjacent terms is 1). Implemented
        as the union of the two in-order sloppy phrases "a b" and
        "b a" over the SAME tested anchor machinery. Scoring: the
        positional constraint only FILTERS matches; matched docs score
        as the bool-must sum of both terms' BM25 contributions
        (deviation from Lucene's SpanWeight sloppy-frequency scoring,
        chosen because it is deterministic and SQL-twinnable — the
        constraint-filters-scoring-stays split the engine's decay and
        exists filters already use)."""
        cfg = self.cfg
        empty = (np.zeros(0, np.int64), np.zeros(0, np.float64))
        if self.lookup(ta) < 0 or self.lookup(tb) < 0:
            return empty
        d1, _, _ = self.phrase_matches([ta, tb], slop)
        d2, _, _ = self.phrase_matches([tb, ta], slop)
        matched = np.union1d(d1, d2)
        if not len(matched):
            return empty
        acc = np.zeros(len(self.docids), dtype=np.float64)
        for t, t_idf in sorted(((ta, idfa), (tb, idfb))):
            ids, tfs = self.decoded(self.lookup(t))
            acc[ids] += contribution(
                t_idf, tfs.astype(np.float64), self.dls[ids], avgdl,
                cfg.k1, cfg.b,
            )
        ords = np.searchsorted(self.docids, matched)
        if not np.array_equal(self.docids[ords], matched):
            raise RuntimeError("span_near: shard docids not sorted")
        mask = self.filter_mask(filters)
        if mask is not None:
            keep = mask[ords]
            matched, ords = matched[keep], ords[keep]
        scores = acc[ords]
        order = np.lexsort((matched, -scores))[:k]
        return matched[order], scores[order]

    def span_not_topk(self, ta: str, tb: str, dist: int, t_idf: float,
                      avgdl: float, k: int,
                      filters: dict | None = None):
        """ES ``span_not`` (include = span_term ``ta``, exclude =
        span_term ``tb`` within ``dist`` positions, pre = post =
        dist): a doc matches when AT LEAST ONE occurrence of ``ta``
        has no ``tb`` within ``dist`` positions (docs without ``tb``
        match wherever ``ta`` does). Scored exactly like the plain
        ``ta`` term query — the exclusion filters matches, never stats
        (the span_first rule).

        Kernel is fully vectorized across docs: positions become
        global keys (ordinal << 32 | pos), one ``searchsorted`` of
        every a-key into the sorted b-keys finds each a-occurrence's
        flanking b-occurrences, and a doc survives when some a-key's
        nearest same-doc b is farther than ``dist``."""
        cfg = self.cfg
        empty = (np.zeros(0, np.int64), np.zeros(0, np.float64))
        ia = self.lookup(ta)
        if ia < 0:
            return empty
        ids_a, tfs_a = self.decoded(ia)
        pos_a = self.positions_of(ia, tfs_a)
        a_keys = (
            np.repeat(ids_a.astype(np.int64), tfs_a.astype(np.int64))
            << np.int64(32)
        ) | pos_a
        ib = self.lookup(tb)
        if ib < 0:
            good = np.ones(len(a_keys), dtype=bool)
        else:
            ids_b, tfs_b = self.decoded(ib)
            pos_b = self.positions_of(ib, tfs_b)
            if len(ids_a) < len(ids_b):
                # the exclusion term only matters inside a's docs —
                # prune b's key set to them (candidate-pruning rule)
                p = np.searchsorted(ids_b, ids_a)
                ok = (p < len(ids_b)) & (
                    ids_b[np.minimum(p, len(ids_b) - 1)] == ids_a
                )
                pk = p[ok]
                tfs_r = tfs_b[pk].astype(np.int64)
                offs = np.concatenate(
                    ([0], np.cumsum(tfs_b, dtype=np.int64))
                )
                cum_r = np.concatenate(([0], np.cumsum(tfs_r)))
                flat = np.repeat(offs[pk] - cum_r[:-1], tfs_r) + \
                    np.arange(int(cum_r[-1]), dtype=np.int64)
                ids_b, tfs_b = ids_a[ok], tfs_r
                pos_b = pos_b[flat]
            b_keys = (
                np.repeat(ids_b.astype(np.int64), tfs_b.astype(np.int64))
                << np.int64(32)
            ) | pos_b
            # positions are doc-internal and sorted per doc, so the
            # global keys are globally sorted
            lo = np.searchsorted(b_keys, a_keys)
            d = np.int64(dist)
            near = np.zeros(len(a_keys), dtype=bool)
            has_next = lo < len(b_keys)
            if has_next.any():
                nxt = b_keys[np.minimum(lo, len(b_keys) - 1)]
                near |= has_next & (nxt - a_keys >= 0) & (
                    nxt - a_keys <= d
                ) & ((nxt >> np.int64(32)) == (a_keys >> np.int64(32)))
            has_prev = lo > 0
            if has_prev.any():
                prv = b_keys[np.maximum(lo - 1, 0)]
                near |= has_prev & (a_keys - prv >= 0) & (
                    a_keys - prv <= d
                ) & ((prv >> np.int64(32)) == (a_keys >> np.int64(32)))
            good = ~near
        if not good.any():
            return empty
        surv_ord = np.unique(a_keys[good] >> np.int64(32))
        mask = self.filter_mask(filters)
        if mask is not None:
            surv_ord = surv_ord[mask[surv_ord]]
        if not len(surv_ord):
            return empty
        # score = the plain term query's contribution for these docs
        pos_map = np.searchsorted(ids_a, surv_ord)
        tfs = tfs_a[pos_map].astype(np.float64)
        sc = contribution(
            t_idf, tfs, self.dls[surv_ord], avgdl, cfg.k1, cfg.b
        )
        docids = self.docids[surv_ord]
        order = np.lexsort((docids, -sc))[:k]
        return docids[order], sc[order]

    def _term_keys(self, term: str):
        """(global keys, ords, tfs) for a term's occurrences: key =
        ordinal << 32 | position. Positions are doc-internal and
        sorted per doc, so the keys are globally sorted."""
        slot = self.lookup(term)
        if slot < 0:
            z = np.zeros(0, dtype=np.int64)
            return z, z, z
        ids, tfs = self.decoded(slot)
        pos = self.positions_of(slot, tfs)
        keys = (
            np.repeat(ids.astype(np.int64), tfs.astype(np.int64))
            << np.int64(32)
        ) | pos
        return keys, ids.astype(np.int64), tfs.astype(np.int64)

    def _span_pair_windows(self, ta: str, tb: str, slop: int):
        """Every same-doc occurrence pair (pa, pb) of the two terms
        with |pa − pb| <= slop + 1 — the ES ``span_near`` (unordered,
        two span_term clauses) match windows — as (ord, lo, hi)
        arrays, lo/hi = the window's position bounds. Fully
        vectorized: one searchsorted range probe per a-occurrence
        against the sorted b-key array; the per-a fan-out is bounded
        by b's occurrences inside a 2(slop+1)+1-position window, so
        the pair count stays O(occurrences × density), never O(n²)."""
        z = np.zeros(0, dtype=np.int64)
        a_keys, _, _ = self._term_keys(ta)
        b_keys, _, _ = self._term_keys(tb)
        if not len(a_keys) or not len(b_keys):
            return z, z, z
        w = np.int64(slop + 1)
        lo_idx = np.searchsorted(b_keys, a_keys - w)
        hi_idx = np.searchsorted(b_keys, a_keys + w, side="right")
        counts = hi_idx - lo_idx
        total = int(counts.sum())
        if total == 0:
            return z, z, z
        rep = np.repeat(np.arange(len(a_keys), dtype=np.int64), counts)
        cum = np.concatenate(([0], np.cumsum(counts)))
        flat_b = (
            np.repeat(lo_idx, counts)
            + np.arange(total, dtype=np.int64)
            - np.repeat(cum[:-1], counts)
        )
        ka, kb = a_keys[rep], b_keys[flat_b]
        # the ±w key range can dip into a neighboring doc's positions
        # when pa < slop+1 or pa is near the doc end — mask those out
        same = (ka >> np.int64(32)) == (kb >> np.int64(32))
        ka, kb = ka[same], kb[same]
        if not len(ka):
            return z, z, z
        pa = ka & np.int64(0xFFFFFFFF)
        pb = kb & np.int64(0xFFFFFFFF)
        return ka >> np.int64(32), np.minimum(pa, pb), np.maximum(pa, pb)

    def span_contain_topk(self, ta: str, tb: str, slop: int, tc: str,
                          idfa: float, idfb: float, idfc: float,
                          avgdl: float, k: int, mode: str,
                          filters: dict | None = None):
        """ES ``span_containing`` / ``span_within`` with big =
        span_near(span_term ta, span_term tb, slop, in_order=false)
        and little = span_term tc. A doc matches when some big window
        [min(pa,pb), max(pa,pb)] contains an occurrence of ``tc`` —
        the SAME match set for both modes (a little span inside a big
        span exists symmetrically); what differs is which operand's
        statistics score the doc (ES scores the RETURNED span's
        underlying terms): ``containing`` returns big spans → bool-sum
        of ta+tb contributions; ``within`` returns little spans → tc's
        plain term contribution. The positional test filters matches,
        never stats (the span_first rule)."""
        cfg = self.cfg
        empty = (np.zeros(0, np.int64), np.zeros(0, np.float64))
        ords, lo, hi = self._span_pair_windows(ta, tb, slop)
        if not len(ords):
            return empty
        c_keys, _, _ = self._term_keys(tc)
        if not len(c_keys):
            return empty
        lo_key = (ords << np.int64(32)) | lo
        hi_key = (ords << np.int64(32)) | hi
        contained = (
            np.searchsorted(c_keys, hi_key, side="right")
            > np.searchsorted(c_keys, lo_key, side="left")
        )
        if not contained.any():
            return empty
        matched = np.unique(ords[contained])
        mask = self.filter_mask(filters)
        if mask is not None:
            matched = matched[mask[matched]]
        if not len(matched):
            return empty
        acc = np.zeros(len(self.docids), dtype=np.float64)
        score_terms = (
            sorted(((ta, idfa), (tb, idfb))) if mode == "containing"
            else [(tc, idfc)]
        )
        for t, t_idf in score_terms:
            ids, tfs = self.decoded(self.lookup(t))
            acc[ids] += contribution(
                t_idf, tfs.astype(np.float64), self.dls[ids], avgdl,
                cfg.k1, cfg.b,
            )
        scores = acc[matched]
        docids = self.docids[matched]
        order = np.lexsort((docids, -scores))[:k]
        return docids[order], scores[order]

    def span_or_near_topk(self, variants: list[str], anchor: str,
                          slop: int, v_idfs: list[float],
                          anchor_idf: float, avgdl: float, k: int,
                          filters: dict | None = None):
        """ES ``span_near`` whose first clause is a ``span_or`` over
        single-term spans: span_near(span_or(v1, v2, …), span_term
        anchor, slop, in_order=false). A doc matches when ANY variant
        occurs within ``slop`` of the anchor (min |pv − pc| <=
        slop + 1, the engine's span_near rule). Scoring follows the
        engine's constraint-filters/scoring-sums convention: anchor's
        BM25 contribution + each variant's contribution ON THE DOCS
        WHERE THAT VARIANT positionally matched (a variant present in
        the doc but never near the anchor contributes nothing) —
        deterministic and SQL-twinnable, documented deviation from
        Lucene's SpanWeight sloppy-frequency scoring as with
        span_near_topk."""
        cfg = self.cfg
        empty = (np.zeros(0, np.int64), np.zeros(0, np.float64))
        if self.lookup(anchor) < 0:
            return empty
        acc = np.zeros(len(self.docids), dtype=np.float64)
        matched_any = np.zeros(0, dtype=np.int64)
        per_variant: list[np.ndarray] = []
        for v in variants:
            if self.lookup(v) < 0:
                per_variant.append(np.zeros(0, dtype=np.int64))
                continue
            d1, _, _ = self.phrase_matches([v, anchor], slop)
            d2, _, _ = self.phrase_matches([anchor, v], slop)
            dv = np.union1d(d1, d2)
            per_variant.append(dv)
            matched_any = np.union1d(matched_any, dv)
        if not len(matched_any):
            return empty
        # phrase_matches returns global DOCIDS; score accumulation is
        # per shard ORDINAL — map (the span_near convention)
        ords_any = np.searchsorted(self.docids, matched_any)
        if not np.array_equal(self.docids[ords_any], matched_any):
            raise RuntimeError("span_or_near: shard docids not sorted")
        # anchor scores every matched doc; each variant only its own
        ids, tfs = self.decoded(self.lookup(anchor))
        acc[ids] += contribution(
            anchor_idf, tfs.astype(np.float64), self.dls[ids], avgdl,
            cfg.k1, cfg.b,
        )
        for v, v_idf, dv in zip(variants, v_idfs, per_variant):
            if not len(dv):
                continue
            ords_v = np.searchsorted(self.docids, dv)
            ids, tfs = self.decoded(self.lookup(v))
            pos = np.searchsorted(ids, ords_v)
            ok = (pos < len(ids)) & (
                ids[np.minimum(pos, len(ids) - 1)] == ords_v
            )
            sel = pos[ok]
            acc[ords_v[ok]] += contribution(
                v_idf, tfs[sel].astype(np.float64),
                self.dls[ords_v[ok]], avgdl, cfg.k1, cfg.b,
            )
        mask = self.filter_mask(filters)
        if mask is not None:
            keep = mask[ords_any]
            matched_any, ords_any = matched_any[keep], ords_any[keep]
        if not len(matched_any):
            return empty
        scores = acc[ords_any]
        order = np.lexsort((matched_any, -scores))[:k]
        return matched_any[order], scores[order]

    def contains_docids(self, docids) -> np.ndarray:
        """Membership mask: which of the probe docids live in this
        shard (one binary search over the shard's sorted docid array —
        the ES ``ids`` query's existence check)."""
        docids = np.asarray(docids, dtype=np.int64)
        if not len(self.docids):
            return np.zeros(len(docids), dtype=bool)
        pos = np.searchsorted(self.docids, docids)
        return (pos < len(self.docids)) & (
            self.docids[np.minimum(pos, len(self.docids) - 1)] == docids
        )

    def any_terms_docs(self, terms: list[str], k: int):
        """First ``k`` docids (ascending) matching ANY of ``terms`` —
        the ES ``terms`` query's match set (constant-score: a terms
        query never ranks by BM25; every match scores boost = 1.0).
        One postings decode per present term, then a k-capped sorted
        union — no scoring pass."""
        parts = [
            self.decoded(s)[0]
            for s in (self.lookup(t) for t in terms) if s >= 0
        ]
        if not parts:
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        ords = np.unique(np.concatenate(parts))[:k]
        return (
            self.docids[ords],
            np.ones(len(ords), dtype=np.float64),
        )

    def phrase_matches(self, terms: list[str], slop: int = 0,
                       field: str | None = None,
                       slop_mode: str = "windowed"
                       ) -> tuple[np.ndarray, ...]:
        """Docs matching the phrase → (docids, ptf, dl) where ptf =
        number of distinct match anchors. ``slop=0`` is exact adjacency
        (match_phrase); ``slop=s`` relaxes it per ``slop_mode``:

        - ``"windowed"`` (default): the in-order relaxation — an
          anchor a (a position of the FIRST term) matches when every
          later term j occurs somewhere in [a+j, a+j+s] — each term
          may trail its exact slot by at most s positions. (Documented
          deviation from Lucene's SloppyPhraseScorer; deterministic
          and SQL-twinnable.)
        - ``"lucene"``: the Lucene move-budget rule — pick one
          occurrence p_j per term; the match width is
          max_j(p_j − j) − min_j(p_j − j) and the doc matches when
          some assignment has width ≤ s. Equivalent form used here:
          ∃ window start m with every term's ADJUSTED position set
          {p − j} intersecting [m, m+s]. Reordered terms match
          ("b a"~2 matches "a b", as in ES); an anchor (a first-term
          occurrence) counts toward ptf when some valid window
          contains its adjusted position. Documented deviation for
          REPEATED query terms: doc-level multiplicity is enforced
          (a doc needs tf ≥ the term's query multiplicity) but
          assignment-level occurrence-distinctness inside one window
          is not (Lucene would reject a window whose repeated terms
          reuse one occurrence); pinned in pytest.

        Encoding trick, generalized: term j's occurrence at position p
        emits candidate-anchor keys ord*M + (p - j - d + L + s) for
        d in 0..s (in windowed mode the first term emits its own
        position only; in lucene mode EVERY term fans — keys are then
        window STARTS m); a match anchor/window survives the
        intersection of all terms' key sets (M bounds the shifted
        positions so keys can't collide across docs)."""
        if slop_mode not in ("windowed", "lucene"):
            raise ValueError("slop_mode must be 'windowed' or 'lucene'")
        empty = (np.zeros(0, np.int64), np.zeros(0, np.int64),
                 np.zeros(0, np.float64))
        if field is None:
            dls = self.dls
            keys_of = terms
        else:  # field-scoped phrase: prefixed keys + that field's dl
            from excelastic_ray.analysis import field_key

            fdl = self.field_dls.get(field)
            if fdl is None:
                raise KeyError(
                    f"field {field!r} has no per-field stream in this index"
                )
            dls = fdl
            keys_of = [field_key(field, t) for t in terms]
        idxs = []
        for t in keys_of:
            i = self.lookup(t)
            if i < 0:
                return empty
            idxs.append(i)
        L = len(terms)
        max_dl = int(dls.max()) if len(dls) else 0
        M = np.int64(max_dl + L + slop + 2)
        # Candidate pruning: an anchor needs EVERY term in the doc, so
        # intersect the (already decoded) doc sets first and build keys
        # only for candidate docs — a rare+hot phrase then expands the
        # hot term's (slop+1)-way key fan only inside the rare term's
        # doc set instead of over its whole posting list. Results are
        # identical (non-candidates can never survive the key
        # intersection); the restriction is one searchsorted + flat
        # gather per term.
        mult: dict[int, int] = {}
        if slop_mode == "lucene":
            for i in idxs:
                mult[i] = mult.get(i, 0) + 1
        cand = None
        for i in idxs:
            ids, tfs_c = self.decoded(i)
            if mult.get(i, 1) > 1:
                # repeated query term: the doc needs at least that
                # many occurrences (doc-level multiplicity)
                ids = ids[tfs_c >= mult[i]]
            cand = ids if cand is None else np.intersect1d(
                cand, ids, assume_unique=True
            )
            if not len(cand):
                return empty
        inter = None
        anchor_base = anchor_adj = None
        for j, i in enumerate(idxs):
            ids, tfs = self.decoded(i)  # LRU-cached, read-only
            pos = self.positions_of(i, tfs)
            if len(cand) < len(ids):
                p = np.searchsorted(ids, cand)
                tfs_r = tfs[p].astype(np.int64)
                offs = np.concatenate(
                    ([0], np.cumsum(tfs, dtype=np.int64))
                )
                cum_r = np.concatenate(([0], np.cumsum(tfs_r)))
                flat = np.repeat(offs[p] - cum_r[:-1], tfs_r) + \
                    np.arange(int(cum_r[-1]), dtype=np.int64)
                pos_j = pos[flat]
                base = np.repeat(cand, tfs_r) * M
            else:
                pos_j = pos
                base = np.repeat(ids, tfs) * M
            if slop_mode == "lucene" and j == 0:
                anchor_base, anchor_adj = base, pos_j
            fan = (j != 0 if slop_mode == "windowed" else True)
            if slop == 0 or not fan:
                keys = base + (pos_j - j + L + slop)
            else:
                keys = np.unique(
                    np.concatenate(
                        [base + (pos_j - j - d + L + slop)
                         for d in range(slop + 1)]
                    )
                )
            inter = keys if inter is None else np.intersect1d(
                inter, keys, assume_unique=True
            )
            if not len(inter):
                return empty
        if slop_mode == "lucene" and slop > 0:
            # ptf = first-term occurrences whose adjusted position
            # lies inside SOME valid window [m, m+slop]: any window
            # start in [a−slop, a] — a key range scan per anchor over
            # the sorted intersection
            lo = anchor_base + (anchor_adj + L)          # m = a − slop
            hi = anchor_base + (anchor_adj + L + slop)   # m = a
            has = (np.searchsorted(inter, lo, side="left")
                   < np.searchsorted(inter, hi, side="right"))
            ords_a = (anchor_base[has] // M).astype(np.int64)
            uniq, counts = np.unique(ords_a, return_counts=True)
        else:
            ords = (inter // M).astype(np.int64)
            uniq, counts = np.unique(ords, return_counts=True)
        return (
            self.docids[uniq],
            counts.astype(np.int64),
            dls[uniq],
        )

    def _prefix_slot_range(self, prefix: str,
                           field: str | None) -> tuple[int, int]:
        """Dictionary slot range [lo, hi) of terms starting with
        ``prefix`` (field-scoped keys when ``field`` given)."""
        if field is None:
            lo = int(np.searchsorted(self.terms, max(prefix, "\x02")))
            hi = int(np.searchsorted(self.terms, prefix + "\U0010ffff"))
        else:
            from excelastic_ray.analysis import field_key

            base = field_key(field, prefix)
            lo = int(np.searchsorted(self.terms, base))
            hi = int(np.searchsorted(self.terms, base + "\U0010ffff"))
        return lo, hi

    def phrase_prefix_matches(self, terms: list[str], prefix: str,
                              slop: int = 0, field: str | None = None,
                              max_expansions: int | None = None):
        """ES ``match_phrase_prefix``: the phrase ``terms`` followed by
        ANY dictionary term starting with ``prefix`` (search-as-you-type).
        Expansion is UNBOUNDED — exact semantics; ES's max_expansions
        truncation is a performance knob that CHANGES results, so it is
        deliberately not replicated (a shard only ever expands terms
        that actually occur in it, and each expansion's postings decode
        through the LRU). → (docids, ptf, dl); ptf counts distinct
        anchors — an anchor counts once however many completions exist
        at it, the same existence semantics as the SQL twin."""
        empty = (np.zeros(0, np.int64), np.zeros(0, np.int64),
                 np.zeros(0, np.float64))
        if field is None:
            dls = self.dls
            keys_of = list(terms)
        else:
            from excelastic_ray.analysis import field_key

            fdl = self.field_dls.get(field)
            if fdl is None:
                raise KeyError(
                    f"field {field!r} has no per-field stream in this index"
                )
            dls = fdl
            keys_of = [field_key(field, t) for t in terms]
        idxs = []
        for t in keys_of:
            i = self.lookup(t)
            if i < 0:
                return empty
            idxs.append(i)
        lo, hi = self._prefix_slot_range(prefix, field)
        if max_expansions is not None:
            # ES max_expansions: first N dictionary terms PER SHARD
            # (ES truncates per segment the same way) — a wide prefix
            # ("w0" over a 20k vocab) otherwise decodes every
            # expansion's positions; the cap trades recall for latency
            hi = min(hi, lo + int(max_expansions))
        if hi <= lo:
            return empty
        L = len(terms) + 1
        max_dl = int(dls.max()) if len(dls) else 0
        M = np.int64(max_dl + L + slop + 2)
        j_last = L - 1
        # candidate pruning (the phrase_matches rule): an anchor needs
        # every HEAD term in the doc, so expansions and head terms
        # build keys only inside the head-term doc intersection
        cand = None
        for i in idxs:
            ids, _ = self.decoded(i)
            cand = ids if cand is None else np.intersect1d(
                cand, ids, assume_unique=True
            )
            if not len(cand):
                return empty

        def slot_arrays(slot):
            ids, tfs = self.decoded(slot)
            pos = self.positions_of(slot, tfs)
            if cand is None or len(cand) >= len(ids):
                return np.repeat(ids, tfs) * M, pos
            p = np.searchsorted(ids, cand)
            ok = (p < len(ids)) & (
                ids[np.minimum(p, len(ids) - 1)] == cand
            )
            pk = p[ok]
            tfs_r = tfs[pk].astype(np.int64)
            offs = np.concatenate(([0], np.cumsum(tfs, dtype=np.int64)))
            cum_r = np.concatenate(([0], np.cumsum(tfs_r)))
            flat = np.repeat(offs[pk] - cum_r[:-1], tfs_r) + \
                np.arange(int(cum_r[-1]), dtype=np.int64)
            return np.repeat(cand[ok], tfs_r) * M, pos[flat]

        # the last slot's key set is the UNION over all expansions
        parts = []
        for slot in range(lo, hi):
            base, pos = slot_arrays(slot)
            if j_last == 0 or slop == 0:
                parts.append(base + (pos - j_last + L + slop))
            else:
                parts.extend(
                    base + (pos - j_last - d + L + slop)
                    for d in range(slop + 1)
                )
        inter = np.unique(np.concatenate(parts))
        for j, i in enumerate(idxs):
            base, pos = slot_arrays(i)
            if j == 0 or slop == 0:
                keys = base + (pos - j + L + slop)
            else:
                keys = np.unique(
                    np.concatenate(
                        [base + (pos - j - d + L + slop)
                         for d in range(slop + 1)]
                    )
                )
            inter = np.intersect1d(inter, keys, assume_unique=True)
            if not len(inter):
                return empty
        ords = (inter // M).astype(np.int64)
        uniq, counts = np.unique(ords, return_counts=True)
        return (
            self.docids[uniq],
            counts.astype(np.int64),
            dls[uniq],
        )

    def phrase_prefix_count(self, terms: list[str], prefix: str,
                            slop: int = 0, field: str | None = None,
                            max_expansions: int | None = None) -> int:
        """Phase 1 (match_phrase_prefix): cache matches, return count."""
        key = ("pp", tuple(terms), prefix, slop, field, max_expansions)
        m = self.phrase_prefix_matches(terms, prefix, slop, field,
                                       max_expansions)
        self._phrase_cache = (key, m)
        return len(m[0])

    def phrase_prefix_topk(self, terms: list[str], prefix: str,
                           p_idf: float, avgdl: float, k: int,
                           slop: int = 0, field: str | None = None,
                           max_expansions: int | None = None):
        """Phase 2: score the cached prefix-phrase matches."""
        key = ("pp", tuple(terms), prefix, slop, field, max_expansions)
        cached = getattr(self, "_phrase_cache", None)
        if cached is not None and cached[0] == key:
            docids, ptfs, dls = cached[1]
        else:
            docids, ptfs, dls = self.phrase_prefix_matches(
                terms, prefix, slop, field, max_expansions
            )
        if not len(docids):
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        sc = contribution(
            p_idf, ptfs.astype(np.float64), dls, avgdl,
            self.cfg.k1, self.cfg.b,
        )
        order = np.lexsort((docids, -sc))[:k]
        return docids[order], sc[order]

    # -- scoring ---------------------------------------------------------

    def topk(
        self,
        terms: list[str],
        idfs: list[float],
        avgdl: float,
        k: int,
        filters: dict | None = None,
        n_required: int = 0,
        after: tuple[float, int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact shard-local top-k → (docids int64, scores float64),
        ordered (score DESC, docid ASC). ``terms`` must be sorted unique;
        ``idfs`` are GLOBAL idfs (df summed across shards by the caller).

        ``after`` = (score, docid): keep only docs strictly after that
        cursor in the (score DESC, docid ASC) sort — the ES
        ``search_after`` stateless deep-paging cursor. Scores are
        deterministic float64 (fixed summation order), so the equality
        half of the comparison is exact across calls.

        ``filters``: {attr: value or list} restricts results to matching
        docs WITHOUT changing BM25 stats (ES filter context).

        ``n_required`` > 0 keeps only docs matching at least that many
        GLOBAL query terms (== len(global live terms) → conjunctive AND,
        the ES ``operator=and`` analog; scores unchanged, OR-identical).

        The scorer is picked per shard by :meth:`_pick_scorer`: the
        vectorized block-skip scorers on skewed shard-local dfs, TAAT
        otherwise and always under ``after``; all three return
        bit-identical results.
        """
        present = [(t, f) for t, f in zip(terms, idfs) if self.lookup(t) >= 0]
        if not present:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
        if n_required > len(present):
            # a required term has no postings in this shard → no doc here
            # can match all required terms
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
        mask = self.filter_mask(filters)
        scorer = self._pick_scorer(present, k, n_required, after)
        if scorer == "and_skip":
            return self._topk_and_skip(present, avgdl, k, mask)
        if scorer == "or_skip":
            return self._topk_or_skip(present, avgdl, k, mask)
        return self._topk_taat(present, avgdl, k, mask, n_required, after)

    def _pick_scorer(self, present, k, n_required, after) -> str:
        """``and_skip``, ``or_skip`` or ``taat`` for one shard's query.

        Conjunctive + skewed dfs → the block-skip intersection: the
        rare term bounds the candidate set, so only candidate-bearing
        blocks of the hot terms decode — 3.3× faster than TAAT on
        rare+hot 2-term AND at 254k docs (BASELINE.md round 4).
        Candidates must be few in absolute terms (the block probe has a
        per-block Python step) AND much rarer than the hottest term
        (else TAAT's full vector decode is simply faster).

        Disjunctive + skewed dfs → vectorized MaxScore: the hot term is
        probed only at rare-term candidate positions IF its upper bound
        falls below the rare term's k-th best score (checked inside;
        TAAT fallback otherwise). The rare side must carry ≥ k postings
        for the θ0 bound to exist at all."""
        if after is not None or len(present) < 2:
            return "taat"
        if n_required not in (0, len(present)):
            return "taat"
        ldfs = [int(self.df[self.lookup(t)]) for t, _ in present]
        if not (min(ldfs) <= 65536 and min(ldfs) * 64 <= max(ldfs)):
            return "taat"
        if n_required:
            return "and_skip"
        return "or_skip" if k <= min(ldfs) else "taat"

    def bool_topk(self, terms, idfs, must_flags, should_flags, mnot,
                  avgdl, k, filters=None, n_must=0, msm=0):
        """ES ``bool`` query, shard phase. ``terms`` is the sorted
        unique union of the must and should clause terms (summation
        order matches the oracle); ``must_flags``/``should_flags`` mark
        each term's role(s); ``mnot`` is the must_not term list. A doc
        survives iff it matched all ``n_must`` GLOBAL must terms, at
        least ``msm`` should terms (minimum_should_match), no must_not
        term, and the attribute filter. Score = sum of BM25
        contributions of its matched must∪should terms — must and
        should both score, must_not and filters are non-scoring (ES
        filter context). Per-doc predicates are shard-local facts (a
        doc lives in exactly one shard), so shard evaluation is
        globally exact."""
        cfg = self.cfg
        acc = np.zeros(len(self.docids), dtype=np.float64)
        mhits = np.zeros(len(self.docids), dtype=np.int32) if n_must else None
        shits = np.zeros(len(self.docids), dtype=np.int32) if msm else None
        for t, t_idf, is_m, is_s in zip(terms, idfs, must_flags, should_flags):
            i = self.lookup(t)
            if i < 0:
                continue
            ids, tfs = self.decoded(i)
            acc[ids] += contribution(
                t_idf, tfs.astype(np.float64), self.dls[ids], avgdl,
                cfg.k1, cfg.b,
            )
            if is_m and mhits is not None:
                mhits[ids] += 1
            if is_s and shits is not None:
                shits[ids] += 1
        if mhits is not None:
            acc[mhits < n_must] = 0.0
        if shits is not None:
            acc[shits < msm] = 0.0
        for t in mnot:
            i = self.lookup(t)
            if i < 0:
                continue
            ids, _ = self.decoded(i)
            acc[ids] = 0.0
        fmask = self.filter_mask(filters)
        if fmask is not None:
            acc[~fmask] = 0.0
        nz = np.flatnonzero(acc)
        scores = acc[nz]
        docids = self.docids[nz]
        order = np.lexsort((docids, -scores))[:k]
        return docids[order], scores[order]

    def _dsl_eval(self, node: dict, avgdl: float):
        """Evaluate one compiled DSL node, then apply its per-clause
        ``boost`` (the ES any-clause score multiplier; never changes
        the match set). Kept as a thin wrapper so EVERY node kind —
        leaf, bool, const, fscore — boosts through one code path."""
        s, m = self._dsl_eval_raw(node, avgdl)
        b = node.get("boost")
        if b is not None and b != 1.0:
            s = s * b
        return s, m

    def _dsl_eval_raw(self, node: dict, avgdl: float):
        """Recursive dense evaluation of a compiled query-DSL tree →
        (score float64, match bool) arrays over this shard's ordinal
        space. Leaves are ``match`` nodes carrying (term, idf) pairs
        sorted by term (the fixed summation order); ``bool`` nodes
        combine children with ES semantics — must: AND + scoring,
        must_not: NOT + non-scoring, should: scoring with
        minimum_should_match, filter: non-scoring attr mask scoped to
        the node. Each bool zeroes score outside its own match set, so
        a parent's ``score += child_score`` adds exactly the matching
        clauses (the ES rule that a should clause contributes iff IT
        matched, inside a query that matched)."""
        cfg = self.cfg
        n = len(self.docids)
        if node["op"] == "none":
            return np.zeros(n), np.zeros(n, dtype=bool)
        if node["op"] == "match":
            acc = np.zeros(n)
            match = np.zeros(n, dtype=bool)
            for t, t_idf in node["terms"]:
                i = self.lookup(t)
                if i < 0:
                    continue
                ids, tfs = self.decoded(i)
                acc[ids] += contribution(
                    t_idf, tfs.astype(np.float64), self.dls[ids], avgdl,
                    cfg.k1, cfg.b,
                )
                match[ids] = True
            return acc, match
        if node["op"] == "match_field":
            # field-scoped match: terms are dictionary keys of the
            # field's own posting stream, normalized by the field's
            # per-doc lengths and global avgdl (the topk_fields
            # convention) — `role:user` scores differently from
            # `text:user`
            acc = np.zeros(n)
            match = np.zeros(n, dtype=bool)
            dls = (
                self.dls if node["field"] is None
                else self.field_dls.get(node["field"])
            )
            if dls is None:
                raise KeyError(
                    f"field {node['field']!r} has no per-field stream "
                    f"in this index (have {sorted(self.field_dls)})"
                )
            for key_, t_idf in node["terms"]:
                i = self.lookup(key_)
                if i < 0:
                    continue
                ids, tfs = self.decoded(i)
                acc[ids] += contribution(
                    t_idf, tfs.astype(np.float64), dls[ids],
                    node["avgdl"], cfg.k1, cfg.b,
                )
                match[ids] = True
            return acc, match
        if node["op"] == "phrase":
            # one pseudo-term whose tf is the anchor count and whose
            # idf was computed globally at compile (the search_phrase
            # two-phase shape); the phrase_count cache avoids a
            # re-match when compile just counted this shard
            acc = np.zeros(n)
            match = np.zeros(n, dtype=bool)
            pmode = node.get("slop_mode", "windowed")
            key = (tuple(node["terms"]), node["slop"], None, pmode)
            cached = getattr(self, "_phrase_cache", None)
            if cached is not None and cached[0] == key:
                docids, ptfs, dls = cached[1]
            else:
                docids, ptfs, dls = self.phrase_matches(
                    node["terms"], node["slop"], None, pmode
                )
            if len(docids):
                ords = np.searchsorted(self.docids, docids)
                if not np.array_equal(self.docids[ords], docids):
                    raise RuntimeError("dsl phrase: docids not sorted")
                acc[ords] = contribution(
                    node["idf"], ptfs.astype(np.float64), dls, avgdl,
                    cfg.k1, cfg.b,
                )
                match[ords] = True
            return acc, match
        if node["op"] == "const":
            # ES constant_score: the child's MATCH SET at a fixed
            # score — boost per matching doc, the child's BM25 scores
            # discarded (filter context)
            _, m = self._dsl_eval(node["child"], avgdl)
            return np.where(m, node["score"], 0.0), m
        if node["op"] == "fscore":
            # ES function_score: the child's match set; each function
            # yields a per-doc value (× its weight) where its filter
            # matches, the applied values combine per score_mode, and
            # the combined factor joins the query score per boost_mode.
            # Docs where NO function applies keep factor 1 (ES rule).
            qs, qm = self._dsl_eval(node["child"], avgdl)
            vals: list[tuple[np.ndarray, np.ndarray, float]] = []
            for f in node["funcs"]:
                filt = f.get("filter")
                if filt is not None:
                    if filt["op"] == "none":
                        continue  # filter matches nothing anywhere
                    _, fm = self._dsl_eval(filt, avgdl)
                else:
                    fm = np.ones(n, dtype=bool)
                fvf = f.get("fvf")
                if fvf is not None:
                    v = (
                        (self.docids & (self.cfg.max_turns - 1))
                        if fvf["field"] == "turn_idx" else self.dls
                    ).astype(np.float64) * fvf["factor"]
                    mod = fvf["modifier"]
                    if mod in ("log1p", "ln1p"):
                        v = np.log1p(v)
                    elif mod == "sqrt":
                        v = np.sqrt(v)
                    elif mod == "square":
                        v = v * v
                elif "random" in f:
                    from excelastic_ray.hashing import fnv1a_int64

                    v = fnv1a_int64(
                        self.docids + np.int64(f["random"])
                    ).astype(np.float64) / float(1 << 64)
                elif "gauss" in f or "recency" in f:
                    # date sources, computed on the child's match set
                    # only: no other doc's value reaches a score
                    g = f.get("gauss") or f["recency"]
                    d = np.abs(self._time_col(g["attr"])[qm]
                               - np.int64(g["origin"]))
                    v = np.ones(n)
                    if "gauss" in f:
                        # decay^((d/scale)^2), the oracle's float64
                        # expression: exactly `decay` at d = scale
                        r = d / g["scale"]
                        v[qm] = np.power(g["decay"], r * r)
                    else:
                        # pivot/(pivot + d): exactly 1/2 at d = pivot
                        v[qm] = g["pivot"] / (g["pivot"]
                                              + d.astype(np.float64))
                elif "dl_feature" in f:
                    # the ES rank_feature functions over the doc length,
                    # on the match set only (outside it dl may be 0)
                    g = f["dl_feature"]
                    dl = self.dls[qm]
                    v = np.ones(n)
                    if g["function"] == "saturation":
                        v[qm] = dl / (dl + g["pivot"])
                    elif g["function"] == "log":
                        v[qm] = np.log(g["scale"] * dl + 1.0)
                    else:  # sigmoid
                        e = g["exponent"]
                        v[qm] = dl ** e / (dl ** e + g["pivot"] ** e)
                else:
                    v = np.ones(n)
                vals.append((fm, v * f["weight"], f["weight"]))
            sm = node["score_mode"]
            if not vals:
                factor = np.ones(n)
            elif sm == "multiply":
                factor = np.ones(n)
                for fm, v, _ in vals:
                    factor[fm] *= v[fm]
            elif sm == "sum":
                factor = np.zeros(n)
                hit = np.zeros(n, dtype=bool)
                for fm, v, _ in vals:
                    factor[fm] += v[fm]
                    hit |= fm
                factor[~hit] = 1.0
            elif sm == "avg":
                # ES: weighted average — Σ(wᵢ·rawᵢ) / Σwᵢ over the
                # functions that apply (v already carries the weight)
                num = np.zeros(n)
                den = np.zeros(n)
                for fm, v, w in vals:
                    num[fm] += v[fm]
                    den[fm] += w
                factor = np.where(den > 0, num / np.where(den > 0, den, 1.0),
                                  1.0)
            elif sm in ("max", "min"):
                init = -np.inf if sm == "max" else np.inf
                op_ = np.maximum if sm == "max" else np.minimum
                factor = np.full(n, init)
                hit = np.zeros(n, dtype=bool)
                for fm, v, _ in vals:
                    factor[fm] = op_(factor[fm], v[fm])
                    hit |= fm
                factor[~hit] = 1.0
            else:  # first
                factor = np.ones(n)
                taken = np.zeros(n, dtype=bool)
                for fm, v, _ in vals:
                    use = fm & ~taken
                    factor[use] = v[use]
                    taken |= fm
            if node["max_boost"] is not None:
                factor = np.minimum(factor, node["max_boost"])
            bm = node["boost_mode"]
            if bm == "multiply":
                s = qs * factor
            elif bm == "sum":
                s = qs + factor
            elif bm == "replace":
                s = factor.astype(np.float64, copy=True)
            elif bm == "avg":
                s = (qs + factor) / 2.0
            elif bm == "max":
                s = np.maximum(qs, factor)
            else:  # min
                s = np.minimum(qs, factor)
            s = np.where(qm, s, 0.0)
            return s, qm
        score = np.zeros(n)
        match = np.ones(n, dtype=bool)
        for c in node["must"]:
            s, m = self._dsl_eval(c, avgdl)
            match &= m
            score += s
        if node.get("filter"):
            fm = self.filter_mask(node["filter"])
            if fm is not None:
                match &= fm
        for c in node["must_not"]:
            _, m = self._dsl_eval(c, avgdl)
            match &= ~m
        if node["should"]:
            cnt = np.zeros(n, dtype=np.int32)
            for c in node["should"]:
                s, m = self._dsl_eval(c, avgdl)
                cnt += m
                score += s
            if node["msm"]:
                match &= cnt >= node["msm"]
        score[~match] = 0.0
        return score, match

    def dsl_topk(self, tree: dict, avgdl: float, k: int,
                 filters: dict | None = None):
        """Shard top-k for a compiled DSL tree (score DESC, docid ASC)."""
        score, match = self._dsl_eval(tree, avgdl)
        mask = self.filter_mask(filters)
        if mask is not None:
            match &= mask
        score[~match] = 0.0
        nz = np.flatnonzero(match)
        scores = score[nz]
        docids = self.docids[nz]
        order = np.lexsort((docids, -scores))[:k]
        return docids[order], scores[order]

    def topk_fields(self, entries, avgdls: dict, k: int,
                    filters: dict | None = None, combine: str = "sum",
                    tie_breaker: float = 0.0):
        """Field-qualified exact top-k (TAAT; exact like _topk_taat).
        ``entries`` = [(key, idf, field)] sorted by key, where ``key``
        is the dictionary key (field_key(field, term), or the bare term
        for the catch-all stream with field=None) and ``field`` selects
        which per-doc length array normalizes that clause. ``avgdls``
        maps field (incl. None) → its global avgdl.

        ``combine="sum"`` → per-doc score = Σ per-(field, term)
        contributions (ES multi_match most_fields). ``combine="max"`` →
        best_fields: the best FIELD's clause-sum wins, plus
        ``tie_breaker`` × the other fields' sums (DisMax)."""
        cfg = self.cfg
        n = len(self.docids)
        accs: dict = {}
        for key, t_idf, field in entries:
            i = self.lookup(key)
            if i < 0:
                continue
            dls = self.dls if field is None else self.field_dls.get(field)
            if dls is None:
                raise KeyError(
                    f"field {field!r} has no per-field stream in this "
                    f"index (have {sorted(self.field_dls)})"
                )
            acc = accs.get(field)
            if acc is None:
                acc = accs[field] = np.zeros(n, dtype=np.float64)
            ids, tfs = self.decoded(i)
            acc[ids] += contribution(
                t_idf, tfs.astype(np.float64), dls[ids], avgdls[field],
                cfg.k1, cfg.b,
            )
        if not accs:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
        stack = list(accs.values())
        if combine == "sum" or len(stack) == 1:
            acc = stack[0] if len(stack) == 1 else np.sum(stack, axis=0)
            if combine == "max" and len(stack) == 1:
                pass  # max of one field == that field's sum
        elif combine == "max":
            m = np.maximum.reduce(stack)
            acc = m + tie_breaker * (np.sum(stack, axis=0) - m)
        else:
            raise ValueError(f"unknown combine {combine!r}")
        mask = self.filter_mask(filters)
        if mask is not None:
            acc[~mask] = 0.0
        nz = np.flatnonzero(acc)
        scores = acc[nz]
        docids = self.docids[nz]
        order = np.lexsort((docids, -scores))[:k]
        return docids[order], scores[order]

    def df_union(self, groups: list[list[str]]) -> np.ndarray:
        """Per group of dictionary keys, the number of docs in this
        shard matching ANY key — the combined_fields (BM25F) union df.
        A doc lives in exactly one shard, so the global union df is the
        exact sum of these across shards."""
        out = np.zeros(len(groups), dtype=np.int64)
        for g, keys in enumerate(groups):
            ids_list = [
                self.decoded(i)[0]
                for i in (self.lookup(key_) for key_ in keys)
                if i >= 0
            ]
            if len(ids_list) == 1:
                out[g] = len(ids_list[0])
            elif ids_list:
                out[g] = len(np.unique(np.concatenate(ids_list)))
        return out

    def topk_combined(self, groups, idfs, field_weights, avgdl, k,
                      filters=None):
        """combined_fields (BM25F — Robertson/Zaragoza's simple BM25F,
        the ES combined_fields model) shard top-k: per TERM group, the
        combined tf = Σ_f weight_f × tf_f and the combined per-doc
        length dl = Σ_f weight_f × dl_f feed ONE BM25 contribution
        using the group's union-df idf — a term saturates across
        fields instead of scoring once per field (most_fields).
        ``groups`` = [[(dictionary key, weight)]] aligned with
        ``idfs``, in sorted-term order (the fixed summation order);
        ``field_weights`` = [(field | None, weight)] builds the length
        accumulator; ``avgdl`` is the combined global average."""
        cfg = self.cfg
        n = len(self.docids)
        cdl = np.zeros(n, dtype=np.float64)
        for f, w in field_weights:
            dls = self.dls if f is None else self.field_dls.get(f)
            if dls is None:
                raise KeyError(
                    f"field {f!r} has no per-field stream in this "
                    f"index (have {sorted(self.field_dls)})"
                )
            cdl += w * dls.astype(np.float64)
        acc = np.zeros(n, dtype=np.float64)
        for keys_ws, g_idf in zip(groups, idfs):
            tfv = np.zeros(n, dtype=np.float64)
            for key_, w in keys_ws:
                i = self.lookup(key_)
                if i < 0:
                    continue
                ids, tfs = self.decoded(i)
                tfv[ids] += w * tfs
            nz = np.flatnonzero(tfv)
            acc[nz] += contribution(
                g_idf, tfv[nz], cdl[nz], avgdl, cfg.k1, cfg.b
            )
        mask = self.filter_mask(filters)
        if mask is not None:
            acc[~mask] = 0.0
        nz = np.flatnonzero(acc)
        scores = acc[nz]
        docids = self.docids[nz]
        order = np.lexsort((docids, -scores))[:k]
        return docids[order], scores[order]

    def topk_cross(self, groups, idfs, avgdls: dict, k,
                   filters=None):
        """multi_match ``cross_fields`` shard top-k (Lucene
        BlendedTermQuery, fully specified): per TERM group, each field
        clause scores with its OWN tf / dl / avgdl but the group's
        BLENDED idf (from the max per-field df), and the doc takes the
        MAX field contribution for that term — "the term lives in
        whichever field matches best". Scores sum over groups in
        sorted-term order. ``groups`` = [[(dictionary key, field)]]
        aligned with the blended ``idfs``."""
        cfg = self.cfg
        n = len(self.docids)
        acc = np.zeros(n, dtype=np.float64)
        for keys_fs, g_idf in zip(groups, idfs):
            best = np.zeros(n, dtype=np.float64)
            for key_, field in keys_fs:
                i = self.lookup(key_)
                if i < 0:
                    continue
                dls = (self.dls if field is None
                       else self.field_dls.get(field))
                if dls is None:
                    raise KeyError(
                        f"field {field!r} has no per-field stream in "
                        f"this index (have {sorted(self.field_dls)})"
                    )
                ids, tfs = self.decoded(i)
                c = contribution(
                    g_idf, tfs.astype(np.float64), dls[ids],
                    avgdls[field], cfg.k1, cfg.b,
                )
                np.maximum.at(best, ids, c)
            acc += best
        mask = self.filter_mask(filters)
        if mask is not None:
            acc[~mask] = 0.0
        nz = np.flatnonzero(acc)
        scores = acc[nz]
        docids = self.docids[nz]
        order = np.lexsort((docids, -scores))[:k]
        return docids[order], scores[order]

    def matching_mask(self, terms: list[str], n_required: int = 0,
                      filters: dict | None = None) -> np.ndarray:
        """Ordinal-space bool mask of docs matching the query (OR, or
        ≥ n_required terms) under optional attribute filters — the
        scoreless machinery behind count and facet endpoints."""
        hits = np.zeros(len(self.docids), dtype=np.int32)
        for t in terms:
            i = self.lookup(t)
            if i < 0:
                continue
            ids, _ = self.decoded(i)
            hits[ids] += 1
        out = hits >= max(n_required, 1)
        fmask = self.filter_mask(filters)
        if fmask is not None:
            out &= fmask
        return out

    def count(self, terms, n_required=0, filters=None) -> int:
        return int(self.matching_mask(terms, n_required, filters).sum())

    def adjacency_counts(self, specs, filters=None) -> np.ndarray:
        """ES ``adjacency_matrix`` agg, shard phase: for ``specs`` a
        list of (terms, n_required) named filters, the F×F int64 matrix
        whose [i, j] is the count of this shard's docs matching BOTH
        filter i and filter j (diagonal = per-filter counts). Additive
        across shards, so the driver just sums the matrices."""
        if not specs:
            return np.zeros((0, 0), dtype=np.int64)
        M = np.stack(
            [self.matching_mask(t, n, filters) for t, n in specs]
        ).astype(np.int64)
        return M @ M.T

    def sorted_matches(self, terms, attr: str, k: int, order: str = "desc",
                       search_after: tuple[int, int] | None = None,
                       n_required: int = 0, filters: dict | None = None):
        """This shard's first ``k`` query matches ordered by a timestamp
        attribute — the ES sort-by-field result mode (Kibana Discover's
        default time-ordered view). Sort key is (ts, docid) with docid
        ASC as the deterministic tie-break; ``search_after`` = (ts_us,
        docid) of the last row already served resumes strictly after
        that cursor (ES search_after deep pagination — O(k) per page at
        any depth, unlike offset's O(depth))."""
        col = self._time_col(attr)
        if order not in ("asc", "desc"):
            raise ValueError(f"unknown order {order!r}")
        m = self.matching_mask(terms, n_required, filters)
        ts = col[m]
        ids = self.docids[m]
        if search_after is not None:
            a_ts, a_id = int(search_after[0]), int(search_after[1])
            if order == "asc":
                keep = (ts > a_ts) | ((ts == a_ts) & (ids > a_id))
            else:
                keep = (ts < a_ts) | ((ts == a_ts) & (ids > a_id))
            ts, ids = ts[keep], ids[keep]
        pos = (
            np.lexsort((ids, ts)) if order == "asc"
            else np.lexsort((ids, -ts))
        )[:k]
        return ids[pos], ts[pos]

    def rescore_topk(self, terms, idfs, avgdl, k, window, p_terms,
                     p_idf, p_slop, query_weight, rescore_weight,
                     filters=None, n_required=0):
        """ES ``rescore`` (window rescorer), shard phase: BM25-score
        every matching doc, take this shard's top-``window`` hits
        (score DESC, docid ASC) — the rescore window — and re-rank
        those by ``query_weight * bm25 + rescore_weight * phrase``
        where ``phrase`` is the sloppy-phrase pseudo-term score (0 for
        window docs not matching the phrase — ES ``score_mode: total``).
        Hits OUTSIDE the window keep their original score and original
        order BELOW the rescored window, exactly ES's contract that the
        rescore phase reorders only the top window_size hits."""
        cfg = self.cfg
        empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64))
        present = [(t, f) for t, f in zip(terms, idfs) if self.lookup(t) >= 0]
        if not present or (n_required and n_required > len(present)):
            return empty
        nz, scores = self._taat_all(present, avgdl, filters, n_required)
        if not len(nz):
            return empty
        docids = self.docids[nz]
        order = np.lexsort((docids, -scores))
        win, rest = order[:window], order[window:]
        # phrase score joined onto the window by docid
        w_scores = scores[win] * query_weight
        if p_idf > 0.0:
            p_ids, ptfs, p_dls = self.phrase_matches(p_terms, p_slop)
            if len(p_ids):
                psc = contribution(
                    p_idf, ptfs.astype(np.float64), p_dls, avgdl,
                    cfg.k1, cfg.b,
                )
                pos = np.searchsorted(p_ids, docids[win])
                hit = (pos < len(p_ids)) & (
                    p_ids[np.minimum(pos, len(p_ids) - 1)] == docids[win]
                )
                w_scores[hit] += rescore_weight * psc[pos[hit]]
        w_order = np.lexsort((docids[win], -w_scores))
        out_ids = np.concatenate([docids[win][w_order], docids[rest]])[:k]
        out_sc = np.concatenate([w_scores[w_order], scores[rest]])[:k]
        return out_ids, out_sc

    def facet(self, terms, attr: str, n_required=0, filters=None) -> dict:
        m = self.matching_mask(terms, n_required, filters)
        col = self.attrs.get(attr)
        if col is None:
            raise KeyError(f"attribute {attr!r} not stored in this index")
        vals, counts = np.unique(col[m].astype(str), return_counts=True)
        return dict(zip(vals.tolist(), counts.tolist()))

    def collapse_topk(self, terms, idfs, avgdl, attr, k,
                      filters=None, n_required=0):
        """ES field collapse, shard phase: TAAT-score every matching
        doc, keep ONE best hit (score DESC, docid ASC) per distinct
        ``attr`` value, return the shard's top-``k`` groups →
        (docids, scores, group values). Shard-local top-k groups are
        sufficient for an exact global merge: if a group misses this
        shard's k best groups, at least k other groups beat its best
        hit here, and each of those has a global best at least that
        good — so it cannot reach the global top-k either."""
        col = self.attrs.get(attr)
        if col is None:
            raise KeyError(f"attribute {attr!r} not stored in this index")
        empty = (np.zeros(0, np.int64), np.zeros(0, np.float64), [])
        present = [(t, f) for t, f in zip(terms, idfs) if self.lookup(t) >= 0]
        if not present or (n_required and n_required > len(present)):
            return empty
        nz, scores = self._taat_all(present, avgdl, filters, n_required)
        if not len(nz):
            return empty
        docids = self.docids[nz]
        groups = col[nz].astype(str)
        order = np.lexsort((docids, -scores))
        # first occurrence of each group along the ranked order == that
        # group's best hit (np.unique returns first-occurrence indices)
        uniq, first = np.unique(groups[order], return_index=True)
        best = order[first]
        bd, bs = docids[best], scores[best]
        sel = np.lexsort((bd, -bs))[:k]
        return bd[sel], bs[sel], uniq[sel].tolist()

    def top_hits_topk(self, terms, idfs, avgdl, attr, per_k,
                      filters=None, n_required=0):
        """ES terms-agg + ``top_hits`` sub-agg, shard phase: TAAT-score
        every matching doc, then keep the per-group top-``per_k`` hits
        (score DESC, docid ASC) for EVERY distinct ``attr`` value seen
        in this shard → (docids, scores, group values). Exact global
        merge: each doc lives in exactly one shard, so any hit in a
        group's global top-``per_k`` is necessarily in that group's
        shard-local top-``per_k``; the driver just re-selects per group
        over the concatenated candidates (≤ shards × per_k per group)."""
        col = self.attrs.get(attr)
        if col is None:
            raise KeyError(f"attribute {attr!r} not stored in this index")
        empty = (np.zeros(0, np.int64), np.zeros(0, np.float64), [])
        present = [(t, f) for t, f in zip(terms, idfs) if self.lookup(t) >= 0]
        if not present or (n_required and n_required > len(present)):
            return empty
        nz, scores = self._taat_all(present, avgdl, filters, n_required)
        if not len(nz):
            return empty
        return _per_group_topk(
            self.docids[nz], scores, nz_groups=col[nz].astype(str),
            per_k=per_k,
        )

    def _taat_all(self, present, avgdl, filters=None, n_required=0):
        """TAAT-score EVERY matching doc (no top-k cut) → (nz ordinals,
        scores at nz). The shared shard phase of the group-shaped
        queries (collapse / top_hits / the parent-child joins): per-doc
        contributions sum in sorted-term order, n_required zeroes docs
        missing a globally-required term, filters apply after scoring
        (ES filter context — BM25 stats untouched)."""
        cfg = self.cfg
        acc = np.zeros(len(self.docids), dtype=np.float64)
        hits = (
            np.zeros(len(self.docids), dtype=np.int32) if n_required else None
        )
        for t, t_idf in present:
            ids, tfs = self.decoded(self.lookup(t))
            acc[ids] += contribution(
                t_idf, tfs.astype(np.float64), self.dls[ids], avgdl,
                cfg.k1, cfg.b,
            )
            if hits is not None:
                hits[ids] += 1
        if hits is not None:
            acc[hits < n_required] = 0.0
        mask = self.filter_mask(filters)
        if mask is not None:
            acc[~mask] = 0.0
        nz = np.flatnonzero(acc)
        return nz, acc[nz]

    def has_child_topk(self, terms, idfs, avgdl, k, score_mode="max",
                       min_children=1, max_children=None, filters=None,
                       n_required=0):
        """ES ``has_child`` join query, shard phase: TAAT-score every
        matching CHILD turn, aggregate per parent conversation —
        ``score_mode`` max / sum / avg / min over the matching
        children's BM25 scores, or ``none`` (constant 1.0) — filter
        parents on their matching-children count
        (``min_children`` / ``max_children``, ES semantics: the count
        of children matching the query), and return the shard's
        top-``k`` parents → (conv ranks int64, scores float64,
        match counts int64), ordered (score DESC, conv rank ASC).

        A conversation never spans shards (all its turns share a chunk
        and chunk → shard is modular — the docid layout in
        index/build.py), so each parent is finalized entirely here and
        the driver's merge is exact by concatenation."""
        empty = (np.zeros(0, np.int64), np.zeros(0, np.float64),
                 np.zeros(0, np.int64))
        if score_mode not in ("max", "sum", "avg", "min", "none"):
            raise ValueError(f"unknown score_mode {score_mode!r}")
        present = [(t, f) for t, f in zip(terms, idfs) if self.lookup(t) >= 0]
        if not present or (n_required and n_required > len(present)):
            return empty
        nz, scores = self._taat_all(present, avgdl, filters, n_required)
        if not len(nz):
            return empty
        docids = self.docids[nz]
        convs = docids >> self.cfg.turn_bits
        # docids ascend, so conv ranks arrive grouped and nondecreasing:
        # one reduceat per aggregate, no sort
        bounds = np.flatnonzero(np.r_[True, convs[1:] != convs[:-1]])
        keys = convs[bounds]
        counts = np.diff(np.r_[bounds, len(convs)]).astype(np.int64)
        if score_mode == "sum":
            agg = np.add.reduceat(scores, bounds)
        elif score_mode == "avg":
            agg = np.add.reduceat(scores, bounds) / counts
        elif score_mode == "max":
            agg = np.maximum.reduceat(scores, bounds)
        elif score_mode == "min":
            agg = np.minimum.reduceat(scores, bounds)
        else:  # none
            agg = np.ones(len(keys), dtype=np.float64)
        keep = counts >= min_children
        if max_children is not None:
            keep &= counts <= max_children
        keys, agg, counts = keys[keep], agg[keep], counts[keep]
        sel = np.lexsort((keys, -agg))[:k]
        return keys[sel], agg[sel], counts[sel]

    def has_parent_topk(self, terms, idfs, avgdl, k, filters=None,
                        n_required=0, score=True):
        """ES ``has_parent`` join query, shard phase over the PARENT
        side: score the parent docs matching the parent query — the
        conversation opener, turn_idx == 0, the repo's parent-doc
        convention (see QueryEngine.search_has_parent) — and return
        the shard's top-``k`` parents → (conv ranks, parent scores).

        Parent BM25 stats are the GLOBAL index stats (df / N / avgdl
        over ALL turns): the ES shared-field-name semantics, where
        parent and child types live in one Lucene index and a field
        both types use accumulates both types' statistics.

        ``score=False`` (ES score mode ``none``): matching parents
        rank by conv rank ascending with constant score 1.0."""
        empty = (np.zeros(0, np.int64), np.zeros(0, np.float64))
        present = [(t, f) for t, f in zip(terms, idfs) if self.lookup(t) >= 0]
        if not present or (n_required and n_required > len(present)):
            return empty
        nz, scores = self._taat_all(present, avgdl, filters, n_required)
        if not len(nz):
            return empty
        docids = self.docids[nz]
        is_parent = (docids & (self.cfg.max_turns - 1)) == 0
        keys = docids[is_parent] >> self.cfg.turn_bits
        ps = scores[is_parent]
        if not score:
            # keys are already unique ascending (one turn-0 per conv)
            keys = keys[:k]
            return keys, np.ones(len(keys), dtype=np.float64)
        sel = np.lexsort((keys, -ps))[:k]
        return keys[sel], ps[sel]

    def children_of(self, conv_keys) -> np.ndarray:
        """docids of the CHILD turns (turn_idx >= 1) of the given parent
        conversations that live in this shard, ascending. Pure bisect
        per conversation over the sorted docid column — no scan; a
        shard that doesn't own a conversation contributes nothing.
        Deleted docs (delete_by_query tombstones) drop out, matching
        every other result path."""
        tb = self.cfg.turn_bits
        out = []
        for key in np.asarray(conv_keys, dtype=np.int64):
            lo = int(np.searchsorted(self.docids, (int(key) << tb) | 1))
            hi = int(np.searchsorted(self.docids, (int(key) + 1) << tb))
            if hi > lo:
                kids = self.docids[lo:hi]
                if self.live_mask is not None:
                    kids = kids[self.live_mask[lo:hi]]
                out.append(kids)
        if not out:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(out)

    def child_hits_for_convs(self, terms, idfs, avgdl, conv_keys,
                             per_parent, filters=None, n_required=0):
        """ES ``has_child`` ``inner_hits``, shard phase: the top
        ``per_parent`` child turns MATCHING the child query (score
        DESC, docid ASC) for each requested parent conversation that
        lives in this shard → (conv ranks, child docids, child
        scores), grouped by conversation. Same TAAT pass as
        has_child_topk (the decoded-postings LRU makes the second
        pass cheap when it follows the parent phase), masked to the
        requested conversations — never the full match set shipped.
        A conversation never spans shards, so each parent's hits are
        finalized here and the driver merge is pure concatenation."""
        empty = (np.zeros(0, np.int64), np.zeros(0, np.int64),
                 np.zeros(0, np.float64))
        ck = np.unique(np.asarray(conv_keys, dtype=np.int64))
        present = [(t, f) for t, f in zip(terms, idfs) if self.lookup(t) >= 0]
        if not len(ck) or not present or (
                n_required and n_required > len(present)):
            return empty
        nz, scores = self._taat_all(present, avgdl, filters, n_required)
        if not len(nz):
            return empty
        docids = self.docids[nz]
        convs = docids >> self.cfg.turn_bits
        # membership of each hit's conversation in the parent set
        idx = np.searchsorted(ck, convs)
        keep = (idx < len(ck)) & (ck[np.minimum(idx, len(ck) - 1)] == convs)
        if not keep.any():
            return empty
        docids, scores, convs = docids[keep], scores[keep], convs[keep]
        # docids ascend ⇒ convs nondecreasing: rank within each group
        # by (score DESC, docid ASC) and keep the first per_parent
        order = np.lexsort((docids, -scores, convs))
        convs_o = convs[order]
        bounds = np.flatnonzero(np.r_[True, convs_o[1:] != convs_o[:-1]])
        ranks = np.arange(len(order)) - np.repeat(
            bounds, np.diff(np.r_[bounds, len(order)]))
        sel = order[ranks < per_parent]
        return convs[sel], docids[sel], scores[sel]

    def dismax_topk(self, groups, avgdl, k, tie_breaker=0.0, filters=None):
        """ES ``dis_max``, shard phase: each group of (term, global-idf)
        pairs TAAT-scores as an independent subquery into its own
        accumulator; a doc's score is its best subquery score plus
        ``tie_breaker`` × the sum of the other subqueries' scores.
        Matched = matched by ANY subquery (pure disjunction across
        groups). Accumulator memory is n_groups × shard docs × 8 B —
        bounded by the (small, query-shaped) group count."""
        cfg = self.cfg
        n = len(self.docids)
        accs = np.zeros((max(len(groups), 1), n), dtype=np.float64)
        for gi, grp in enumerate(groups):
            for t, t_idf in grp:
                i = self.lookup(t)
                if i < 0:
                    continue
                ids, tfs = self.decoded(i)
                accs[gi, ids] += contribution(
                    t_idf, tfs.astype(np.float64), self.dls[ids], avgdl,
                    cfg.k1, cfg.b,
                )
        best = accs.max(axis=0)
        mask = self.filter_mask(filters)
        if mask is not None:
            best[~mask] = 0.0
        nz = np.flatnonzero(best)
        if not len(nz):
            return np.zeros(0, np.int64), np.zeros(0, np.float64)
        sub = accs[:, nz]
        bs = sub.max(axis=0)
        scores = (
            bs + tie_breaker * (sub.sum(axis=0) - bs) if tie_breaker else bs
        )
        docids = self.docids[nz]
        order = np.lexsort((docids, -scores))[:k]
        return docids[order], scores[order]

    def terms_set_topk(self, terms, idfs, avgdl, k, filters=None):
        """ES ``terms_set``, shard phase: a doc matches when the count
        of DISTINCT query terms it contains reaches its own per-doc
        threshold — ``minimum_should_match_field`` served from the
        turn index (max(turn_idx, 1), the repo's numeric doc value;
        pure docid arithmetic, no stored field needed). Matching docs
        score as the bool-should sum of their matched terms' BM25
        contributions (exactly the ES terms_set scoring shape)."""
        cfg = self.cfg
        empty = (np.zeros(0, np.int64), np.zeros(0, np.float64))
        present = [(t, f) for t, f in zip(terms, idfs) if self.lookup(t) >= 0]
        if not present:
            return empty
        acc = np.zeros(len(self.docids), dtype=np.float64)
        hits = np.zeros(len(self.docids), dtype=np.int32)
        for t, t_idf in present:
            ids, tfs = self.decoded(self.lookup(t))
            acc[ids] += contribution(
                t_idf, tfs.astype(np.float64), self.dls[ids], avgdl,
                cfg.k1, cfg.b,
            )
            hits[ids] += 1
        required = np.maximum(
            self.docids & (self.cfg.max_turns - 1), 1
        ).astype(np.int32)
        acc[hits < required] = 0.0
        mask = self.filter_mask(filters)
        if mask is not None:
            acc[~mask] = 0.0
        nz = np.flatnonzero(acc)
        if not len(nz):
            return empty
        scores = acc[nz]
        docids = self.docids[nz]
        order = np.lexsort((docids, -scores))[:k]
        return docids[order], scores[order]

    def script_score_topk(self, terms, idfs, avgdl, k, script, params=None,
                          filters=None, n_required=0):
        """ES ``script_score``, shard phase: docs matching the query
        have their BM25 score REPLACED by the compiled script
        expression, evaluated vectorized over the match set. The
        script reads ``_score`` (the BM25 sum), ``dl`` (the indexed
        doc length), ``turn_idx`` (docid arithmetic) and any name in
        ``params``; see ``compile_score_script`` for the (safe,
        arithmetic-only) expression language."""
        empty = (np.zeros(0, np.int64), np.zeros(0, np.float64))
        present = [(t, f) for t, f in zip(terms, idfs) if self.lookup(t) >= 0]
        if not present or (n_required and n_required > len(present)):
            return empty
        fn = compile_score_script(script)
        nz, scores = self._taat_all(present, avgdl, filters, n_required)
        if not len(nz):
            return empty
        docids = self.docids[nz]
        env = dict(params or {})
        env["_score"] = scores
        env["dl"] = self.dls[nz]
        env["turn_idx"] = (
            docids & (self.cfg.max_turns - 1)
        ).astype(np.float64)
        out = np.asarray(fn(env), dtype=np.float64)
        if out.ndim == 0:  # constant expression broadcasts
            out = np.full(len(nz), float(out))
        order = np.lexsort((docids, -out))[:k]
        return docids[order], out[order]

    def script_filter_topk(self, terms, idfs, avgdl, k, script,
                           params=None, filters=None, n_required=0):
        """ES ``script`` query in FILTER context, shard phase: the
        BM25 ranking is untouched; docs whose boolean script evaluates
        false drop from the match set. No ``_score`` in the env —
        filter context never sees scores (ES semantics); doc values
        are ``dl`` / ``turn_idx`` plus params, evaluated vectorized
        over the match set in one pass."""
        empty = (np.zeros(0, np.int64), np.zeros(0, np.float64))
        present = [(t, f) for t, f in zip(terms, idfs) if self.lookup(t) >= 0]
        if not present or (n_required and n_required > len(present)):
            return empty
        fn = compile_filter_script(script)
        nz, scores = self._taat_all(present, avgdl, filters, n_required)
        if not len(nz):
            return empty
        docids = self.docids[nz]
        env = dict(params or {})
        env["dl"] = self.dls[nz]
        env["turn_idx"] = (
            docids & (self.cfg.max_turns - 1)
        ).astype(np.float64)
        keep = fn(env)
        if keep.ndim == 0:  # constant predicate broadcasts
            keep = np.full(len(nz), bool(keep))
        docids, scores = docids[keep], scores[keep]
        order = np.lexsort((docids, -scores))[:k]
        return docids[order], scores[order]

    def script_fields_topk(self, terms, idfs, avgdl, k, fields: dict,
                           params=None, filters=None, n_required=0):
        """ES ``script_fields``, shard phase: ranking is the standard
        BM25 TAAT top-k (scores untouched, unlike ``script_score``);
        each named script evaluates vectorized over ONLY the k
        surviving docs' values (``_score``, ``dl``, ``turn_idx``,
        params) — the ES fetch-phase contract (scripts run per
        returned hit, never per match). → (docids, scores,
        {name: float64 array})."""
        empty = (np.zeros(0, np.int64), np.zeros(0, np.float64),
                 {name: np.zeros(0, np.float64) for name in fields})
        present = [(t, f) for t, f in zip(terms, idfs) if self.lookup(t) >= 0]
        if not present or (n_required and n_required > len(present)):
            return empty
        fns = {name: compile_score_script(src)
               for name, src in fields.items()}
        nz, scores = self._taat_all(present, avgdl, filters, n_required)
        if not len(nz):
            return empty
        docids = self.docids[nz]
        order = np.lexsort((docids, -scores))[:k]
        nz, docids, scores = nz[order], docids[order], scores[order]
        env = dict(params or {})
        env["_score"] = scores
        env["dl"] = self.dls[nz]
        env["turn_idx"] = (
            docids & (self.cfg.max_turns - 1)
        ).astype(np.float64)
        out = {}
        for name, fn in fns.items():
            v = np.asarray(fn(env), dtype=np.float64)
            if v.ndim == 0:  # constant expression broadcasts
                v = np.full(len(nz), float(v))
            out[name] = v
        return docids, scores, out

    def sampler_agg(self, terms, idfs, avgdl, shard_size, attr,
                    max_per_conv=None, filters=None, n_required=0):
        """ES ``sampler`` / ``diversified_sampler`` + ``terms`` sub-agg,
        shard phase: walk the shard's matches in (score DESC, docid
        ASC) order, optionally skipping docs whose conversation already
        contributed ``max_per_conv`` docs (the diversified dedup, field
        = the conversation — pure docid arithmetic), keep the first
        ``shard_size``, and count the sample's ``attr`` values →
        {value: count}. Deterministic, unlike ES's best-effort
        sampler: the walk order is total, so the sample is a pure
        function of the corpus."""
        present = [(t, f) for t, f in zip(terms, idfs) if self.lookup(t) >= 0]
        if not present or (n_required and n_required > len(present)):
            return {}
        col = self.attrs.get(attr)
        if col is None:
            raise KeyError(f"attribute {attr!r} not stored in this index")
        nz, scores = self._taat_all(present, avgdl, filters, n_required)
        if not len(nz):
            return {}
        docids = self.docids[nz]
        order = np.lexsort((docids, -scores))
        if max_per_conv is not None:
            keys = docids[order] >> self.cfg.turn_bits
            # occurrence rank of each conv along the walk order:
            # stable sort by conv keeps walk order inside each group
            o2 = np.argsort(keys, kind="stable")
            sk = keys[o2]
            starts = np.r_[0, np.flatnonzero(sk[1:] != sk[:-1]) + 1]
            sizes = np.diff(np.r_[starts, len(sk)])
            occ = np.empty(len(sk), dtype=np.int64)
            occ[o2] = np.arange(len(sk)) - np.repeat(starts, sizes)
            order = order[occ < max_per_conv]
        sample = nz[order[:shard_size]]
        vals, counts = np.unique(col[sample].astype(str),
                                 return_counts=True)
        return dict(zip(vals.tolist(), counts.tolist()))

    def _topk_taat(self, present, avgdl, k, mask=None, n_required=0,
                   after=None):
        """Dense term-at-a-time: accumulate into a float64 array over the
        shard's ordinal space (bounded by shard doc count). Per-doc
        contributions sum in sorted-term order — bit-identical to the
        oracle. A doc's score is never exactly 0 (idf > 0, tfnorm > 0),
        so nonzero slots == matched docs."""
        cfg = self.cfg
        acc = np.zeros(len(self.docids), dtype=np.float64)
        hits = (
            np.zeros(len(self.docids), dtype=np.int32) if n_required else None
        )
        for t, t_idf in present:
            ids, tfs = self.decoded(self.lookup(t))
            acc[ids] += contribution(
                t_idf, tfs.astype(np.float64), self.dls[ids], avgdl, cfg.k1, cfg.b
            )
            if hits is not None:
                hits[ids] += 1
        if hits is not None:
            acc[hits < n_required] = 0.0
        if mask is not None:
            acc[~mask] = 0.0
        if after is not None:
            s0, d0 = after
            keep = (acc < s0) | ((acc == s0) & (self.docids > d0))
            acc[~keep] = 0.0
        nz = np.flatnonzero(acc)
        scores = acc[nz]
        docids = self.docids[nz]
        order = np.lexsort((docids, -scores))[:k]
        return docids[order], scores[order]

    def topk_synonyms(self, groups, idfs, avgdl, k, filters=None):
        """Lucene ``SynonymQuery`` TAAT: each group of analyzer terms
        scores as ONE pseudo-term — per-doc tf = Σ member tfs, one
        contribution per group using the group's (global) idf.  Groups
        arrive sorted; contributions sum in that order, matching the
        SQL twin's per-group aggregation."""
        cfg = self.cfg
        acc = np.zeros(len(self.docids), dtype=np.float64)
        for g, g_idf in zip(groups, idfs):
            slots = [s for s in (self.lookup(t) for t in g) if s >= 0]
            if not slots:
                continue
            if len(slots) == 1:
                ids, tfs = self.decoded(slots[0])
                tfv = tfs.astype(np.float64)
            else:
                tf_acc = np.zeros(len(self.docids), dtype=np.float64)
                for s in slots:
                    ids, tfs = self.decoded(s)
                    tf_acc[ids] += tfs
                ids = np.flatnonzero(tf_acc)
                tfv = tf_acc[ids]
            acc[ids] += contribution(
                g_idf, tfv, self.dls[ids], avgdl, cfg.k1, cfg.b
            )
        mask = self.filter_mask(filters)
        if mask is not None:
            acc[~mask] = 0.0
        nz = np.flatnonzero(acc)
        scores = acc[nz]
        docids = self.docids[nz]
        order = np.lexsort((docids, -scores))[:k]
        return docids[order], scores[order]

    def _topk_and_skip(self, present, avgdl, k, mask=None):
        """Conjunctive (operator=and) exact top-k via VECTORIZED
        block-skip intersection — the numpy form of block-max WAND's
        per-posting cursors on the rare-term-conjunction shape:

        1. seed = full decode of the LOCALLY rarest term (bounds the
           candidate set);
        2. every other term is probed ONLY in the blocks its surviving
           candidates land in (block routing via one searchsorted over
           the block-max ``last_id`` skip table; each needed block
           decodes once, candidates resolve with one searchsorted per
           block) — hot terms never fully decode;
        3. survivors' scores sum per term in sorted-term order with
           the same float64 kernels as ``_topk_taat`` — results are
           bit-identical to TAAT/oracle.

        Cost ≈ Σ_t min(df_seed, blocks_t) block decodes vs TAAT's
        Σ_t df_t full decode; wins when min(df) ≪ max(df) (the `auto`
        gate). A term already in the decoded-postings LRU short-cuts
        to a direct searchsorted membership probe (no block loop)."""
        cfg = self.cfg
        slots = [(t, t_idf, self.lookup(t)) for t, t_idf in present]
        ldfs = np.asarray([int(self.df[s]) for _, _, s in slots])
        seed_j = int(np.argmin(ldfs))
        cand, seed_tfs = self.decoded(slots[seed_j][2])
        if not len(cand):
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
        n_cand = len(cand)
        tf_vecs: list[np.ndarray | None] = [None] * len(slots)
        tf_vecs[seed_j] = seed_tfs.astype(np.float64)
        alive = np.ones(n_cand, dtype=bool)
        # probe rarer terms first: they kill candidates fastest
        for j in np.argsort(ldfs):
            j = int(j)
            if j == seed_j:
                continue
            if not alive.any():
                break
            tf_full = self._probe_tfs(slots[j][2], cand, alive)
            alive &= tf_full > 0
            tf_vecs[j] = tf_full
        if not alive.any():
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
        ids = cand[alive]
        dlv = self.dls[ids]
        acc = np.zeros(len(ids), dtype=np.float64)
        for j in range(len(slots)):  # present order == sorted-term order
            acc += contribution(
                slots[j][1], tf_vecs[j][alive], dlv, avgdl, cfg.k1, cfg.b
            )
        if mask is not None:
            keep = mask[ids]
            ids, acc = ids[keep], acc[keep]
        docids = self.docids[ids]
        order = np.lexsort((docids, -acc))[:k]
        return docids[order], acc[order]

    def _probe_tfs(self, slot: int, cand: np.ndarray,
                   alive: np.ndarray | None = None) -> np.ndarray:
        """tf vector (float64, 0 where the term misses) aligned to the
        SORTED candidate ordinals ``cand``, decoding ONLY the
        skip-blocks a candidate lands in — the vectorized realization
        of a WAND cursor's next_geq probes (one searchsorted over the
        block-max ``last_id`` table routes every candidate to its
        block; each needed block decodes once). ``alive`` optionally
        restricts which candidates are worth probing. A term already
        in the decoded-postings LRU short-cuts to a direct
        searchsorted membership probe (no block loop)."""
        n_cand = len(cand)
        tf_full = np.zeros(n_cand, dtype=np.float64)
        if alive is None:
            alive = np.ones(n_cand, dtype=bool)
        if slot in self._decode_cache:
            ids_t, tfs_t = self.decoded(slot)  # LRU hit: no block loop
            p = np.searchsorted(ids_t, cand)
            ok = alive & (p < len(ids_t)) & (
                ids_t[np.minimum(p, len(ids_t) - 1)] == cand
            )
            tf_full[ok] = tfs_t[p[ok]]
            return tf_full
        pl = self.posting_list(slot)
        last = pl.bm["last_id"].astype(np.int64)
        bi = np.searchsorted(last, cand, side="left")
        valid = alive & (bi < pl.n_blocks)
        for b in np.unique(bi[valid]):
            sel = np.flatnonzero(valid & (bi == b))
            bids, btfs = pl.decode_block(int(b))
            p = np.searchsorted(bids, cand[sel])
            ok = (p < len(bids)) & (
                bids[np.minimum(p, len(bids) - 1)] == cand[sel]
            )
            hit = sel[ok]
            tf_full[hit] = btfs[p[ok]]
        return tf_full

    def _term_ub_norm(self, slot: int, avgdl: float) -> float:
        """idf-free MaxScore upper bound for term slot ``slot``: max
        over skip blocks of tf_norm(max_tf, min_dl) — computed from
        the block-max METADATA alone (no posting decode, the blockmax
        byte string is one 16-byte row per block), cached per searcher.
        The 1e-12 inflation keeps float summation-order noise from
        ever pruning a true candidate."""
        c = self._ub_norm_cache.get(slot)
        if c is not None and c[0] == avgdl:
            return c[1]
        bm = np.frombuffer(self.blockmax[slot].as_py(),
                           dtype=BLOCKMAX_DTYPE)
        v = float(tf_norm(
            bm["max_tf"].astype(np.float64),
            bm["min_dl"].astype(np.float64),
            avgdl, self.cfg.k1, self.cfg.b,
        ).max()) * (1.0 + 1e-12)
        self._ub_norm_cache[slot] = (avgdl, v)
        return v

    def _topk_or_skip(self, present, avgdl, k, mask=None):
        """Disjunctive exact top-k via VECTORIZED MaxScore (Turtle &
        Flood, IP&M 1995, with block-max bounds per Ding & Suel, SIGIR
        2011) — the numpy realization of WAND's pruning for the
        rare-term-OR-hot-term shape, without per-posting Python:

        1. per-term upper bounds UB_t = idf_t × max-block
           tf_norm(max_tf, min_dl), from block-max metadata only;
        2. phase A fully decodes the single highest-UB term; θ0 = its
           k-th best (filter-masked) single-term score — a lower bound
           on the final k-th best score, because contributions are
           non-negative and every phase-A doc is a candidate;
        3. the largest UB-ascending prefix of terms whose cumulative
           UB is STRICTLY below θ0 becomes non-essential: a doc
           matching ONLY those terms scores ≤ Σ UB < θ0 ≤ final θ, so
           it cannot enter the top-k even on ties ((score DESC, docid
           ASC) needs strict score inequality to exclude — which this
           is). Non-essential (hot) terms never fully decode — they
           are block-probed at candidate positions only;
        4. candidates = union of the essential terms' postings; every
           term's contribution accumulates over candidates in
           sorted-term order (a zero tf adds exactly +0.0), so scores
           are bit-identical to TAAT/oracle.

        Falls back to TAAT when nothing is prunable; the decoded
        phase-A list stays in the LRU, so the fallback reuses it."""
        cfg = self.cfg
        slots = [(t, t_idf, self.lookup(t)) for t, t_idf in present]
        ubs = np.asarray([
            t_idf * self._term_ub_norm(s, avgdl) for _, t_idf, s in slots
        ])
        order = np.argsort(ubs, kind="stable")
        top_j = int(order[-1])
        ids0, tfs0 = self.decoded(slots[top_j][2])
        c0 = contribution(slots[top_j][1], tfs0.astype(np.float64),
                          self.dls[ids0], avgdl, cfg.k1, cfg.b)
        if mask is not None:
            c0 = c0[mask[ids0]]
        if len(c0) < k:
            return self._topk_taat(present, avgdl, k, mask)
        theta0 = float(np.partition(c0, len(c0) - k)[len(c0) - k])
        csum = np.cumsum(ubs[order])
        n_skip = int(np.searchsorted(csum, theta0, side="left"))
        if n_skip == 0:
            return self._topk_taat(present, avgdl, k, mask)
        skip = np.zeros(len(slots), dtype=bool)
        skip[order[:n_skip]] = True
        cand = np.unique(np.concatenate([
            self.decoded(slots[j][2])[0]
            for j in range(len(slots)) if not skip[j]
        ]))
        dlv = self.dls[cand]
        acc = np.zeros(len(cand), dtype=np.float64)
        for j, (_, t_idf, slot) in enumerate(slots):
            if skip[j]:
                tfv = self._probe_tfs(slot, cand)
            else:
                ids_t, tfs_t = self.decoded(slot)
                p = np.searchsorted(ids_t, cand)
                ok = (p < len(ids_t)) & (
                    ids_t[np.minimum(p, len(ids_t) - 1)] == cand
                )
                tfv = np.zeros(len(cand), dtype=np.float64)
                tfv[ok] = tfs_t[p[ok]]
            acc += contribution(t_idf, tfv, dlv, avgdl, cfg.k1, cfg.b)
        if mask is not None:
            keep = mask[cand]
            cand, acc = cand[keep], acc[keep]
        docids = self.docids[cand]
        srt = np.lexsort((docids, -acc))[:k]
        return docids[srt], acc[srt]


def _levenshtein_all(query: str, cands: np.ndarray,
                     lens: np.ndarray) -> np.ndarray:
    """Levenshtein distance from ``query`` to every candidate term —
    Wagner-Fischer vectorized ACROSS candidates: the O(m×L) cell loops
    stay, each cell update is one numpy op over all rows. numpy's
    unicode dtype is UCS4, so the char matrix is a zero-copy view."""
    n = len(cands)
    m = len(query)
    L = int(lens.max()) if n else 0
    if L == 0:
        return np.full(n, m, dtype=np.int64)
    arr = np.asarray(cands, dtype=f"U{L}").view(np.uint32).reshape(n, L)
    q = np.frombuffer(query.encode("utf-32-le"), dtype=np.uint32)
    prev = np.tile(np.arange(L + 1, dtype=np.int64), (n, 1))
    cur = np.empty_like(prev)
    for i in range(1, m + 1):
        cur[:, 0] = i
        sub = arr != q[i - 1]  # n × L substitution costs for query char i
        for j in range(1, L + 1):
            np.minimum(cur[:, j - 1] + 1, prev[:, j] + 1, out=cur[:, j])
            np.minimum(cur[:, j], prev[:, j - 1] + sub[:, j - 1],
                       out=cur[:, j])
        prev, cur = cur, prev
    return prev[np.arange(n), lens]


def _min_prefix_lev(cands: np.ndarray, query: str,
                    cutoff: int) -> np.ndarray:
    """min over j of levenshtein(cand[:j], query) — the Lucene
    FuzzyCompletionQuery matching metric (the typed input may stop
    mid-word, so it is matched against every PREFIX of each candidate,
    not the whole term). Same Wagner-Fischer-across-candidates kernel
    as ``_levenshtein_all``; the final DP row IS the per-prefix
    distance vector (prev[:, j] = lev(cand[:j], query)), so the answer
    is one masked row-min. Only the first len(query) + cutoff
    candidate chars participate: a longer prefix is at least its
    length excess (> cutoff) away and can never bind."""
    n = len(cands)
    m = len(query)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    lens = np.fromiter((len(t) for t in cands), count=n, dtype=np.int64)
    L = int(min(lens.max(), m + max(cutoff, 0)))
    if L == 0:
        return np.full(n, m, dtype=np.int64)
    arr = np.asarray(cands, dtype=f"U{L}").view(np.uint32).reshape(n, L)
    q = np.frombuffer(query.encode("utf-32-le"), dtype=np.uint32)
    prev = np.tile(np.arange(L + 1, dtype=np.int64), (n, 1))
    cur = np.empty_like(prev)
    for i in range(1, m + 1):
        cur[:, 0] = i
        sub = arr != q[i - 1]
        for j in range(1, L + 1):
            np.minimum(cur[:, j - 1] + 1, prev[:, j] + 1, out=cur[:, j])
            np.minimum(cur[:, j], prev[:, j - 1] + sub[:, j - 1],
                       out=cur[:, j])
        prev, cur = cur, prev
    # columns past a candidate's own length are padding, not prefixes
    dead = np.arange(L + 1)[None, :] > np.minimum(lens, L)[:, None]
    return np.where(dead, np.iinfo(np.int64).max, prev).min(axis=1)


def _pinned_state_path(shard_path: str, base: str, rev: int,
                       current_rev: int):
    """Resolve one shard's tombstone/updates file for GLOBAL generation
    ``rev``. Mutations write a ``{base}_g{v}.parquet`` copy only for
    the shards they touch, so a shard's state at generation ``rev`` is
    its newest copy at-or-before ``rev``; with no copy: ``False`` when
    the shard was never mutated (generation 0 at any rev), the CURRENT
    file while the pinned generation is still live (pre-generational
    indexes), and a loud error when the pre-generational state has
    since been overwritten."""
    if rev <= 0:
        return False
    best = 0
    prefix = f"{base}_g"
    for fn in os.listdir(shard_path):
        if fn.startswith(prefix) and fn.endswith(".parquet"):
            try:
                v = int(fn[len(prefix):-8])
            except ValueError:
                continue
            if best < v <= rev:
                best = v
    if best:
        return os.path.join(shard_path, f"{base}_g{best}.parquet")
    cur = os.path.join(shard_path, f"{base}.parquet")
    if not os.path.exists(cur):
        return False  # shard never mutated
    if rev == current_rev:
        return cur
    raise RuntimeError(
        f"point-in-time state {base}@g{rev} is no longer available in "
        f"{shard_path} (current generation {current_rev}; generational "
        "copies start with the first mutation after the PIT feature)"
    )


class IndexReader:
    """Opens an index directory: manifest, conv-rank table, shard access.

    Shards open lazily on first use, or all at once through
    :meth:`open_all`, which takes over from an earlier reader of the
    same index whatever it opened over files that are still the same
    (Lucene's ``DirectoryReader.openIfChanged``). The docstore caches
    (the ``_source`` fetch phase) fill as :meth:`fetch_docs` reads.

    ``pinned=(deletes_rev, updates_rev)`` serves the tombstone and
    doc-values-update state as-of those generations instead of the
    current files — the point-in-time reader (postings, docstore and
    collection stats are immutable between merges, so only these two
    mutable overlays need pinning). A pinned reader neither gives nor
    takes in :meth:`open_all`."""

    def __init__(self, index_dir: str,
                 pinned: tuple[int, int] | None = None):
        self.index_dir = index_dir
        self._pinned = pinned
        self.manifest = seg.load_global_manifest(index_dir)
        if self.manifest.get("status") != "complete":
            raise RuntimeError(f"index at {index_dir} is not complete")
        self.cfg = IndexConfig.from_dict(self.manifest["config"])
        self.n_docs = self.manifest["n_docs"]
        self.avgdl = self.manifest["avgdl"]
        self.num_shards = self.manifest["num_shards"]
        convs = pq.read_table(os.path.join(index_dir, "convs.parquet"))
        ids = convs["conv_id"].to_numpy(zero_copy_only=False).astype(object)
        if "rank" in convs.column_names:
            # explicit ranks (appends leave gaps before each batch's
            # chunk-aligned base rank) → dense rank→conv_id array
            ranks = convs["rank"].to_numpy()
            dense = np.empty(int(ranks.max()) + 1 if len(ranks) else 0,
                             dtype=object)
            dense[ranks] = ids
            self.conv_ids = dense
        else:
            self.conv_ids = ids
        self._searchers: dict[int, ShardSearcher] = {}
        # Docstore caches (the _source fetch phase): per-chunk row-group
        # docid ranges (tiny, metadata-only) and an LRU of DECODED row
        # groups — point fetches hitting the same hot chunks (top-k
        # pages, significant_text samples, _mget) decode each group
        # once instead of per call. Budgets bound worst-case memory.
        from collections import OrderedDict

        self._store_meta: "OrderedDict[int, tuple]" = OrderedDict()
        self._store_meta_cap = 65536  # chunks
        self._store_cache: "OrderedDict[tuple, object]" = OrderedDict()
        self._store_budget = 262_144  # cached docstore rows
        self._store_size = 0
        # fetch_docs runs outside the engine's admission lock (the HTTP
        # _mget reads through the reader), so callers may overlap
        self._store_lock = threading.Lock()

    def shard_path(self, s: int) -> str:
        return seg.shard_dir(self.index_dir, s)

    def open_all(self, old: "IndexReader | None" = None) -> None:
        """Open every shard now. From ``old``, an earlier reader of the
        same index with the same config, take over the searcher of
        every shard whose postings/docs/deletes/updates files are the
        ones it read, and the docstore entries of every chunk whose
        ``store.parquet`` is; read the rest. A write that changed one
        shard then costs one shard open, not all of them."""
        if (old is None or old._pinned or self._pinned
                or old.index_dir != self.index_dir or old.cfg != self.cfg):
            old = None
        for s in range(self.num_shards):
            sr = old and old._searchers.get(s)
            if sr is not None and sr.file_ids == tuple(
                    _file_id(os.path.join(self.shard_path(s), f"{n}.parquet"))
                    for n in ("postings", "docs", "deletes", "updates")):
                self._searchers[s] = sr
            else:
                self.searcher(s)
        if old is None:
            return
        with old._store_lock:
            meta = list(old._store_meta.items())
            cached = list(old._store_cache.items())
        kept = {c for c, m in meta if _file_id(m[0]) == m[4]}
        self._store_meta.update((c, m) for c, m in meta if c in kept)
        for key, t in cached:
            if key[0] in kept:
                self._store_cache[key] = t
                self._store_size += t.num_rows

    def searcher(self, s: int) -> ShardSearcher:
        if s not in self._searchers:
            sp = self.shard_path(s)
            if self._pinned is None:
                self._searchers[s] = ShardSearcher(sp, self.cfg)
            else:
                drev, urev = self._pinned
                self._searchers[s] = ShardSearcher(
                    sp, self.cfg,
                    deletes_path=_pinned_state_path(
                        sp, "deletes", drev,
                        int(self.manifest.get("deletes_rev", 0))),
                    updates_path=_pinned_state_path(
                        sp, "updates", urev,
                        int(self.manifest.get("updates_rev", 0))),
                )
        return self._searchers[s]

    def fetch_docs(self, docids, columns: list[str] | None = None):
        """Fetch stored source rows for specific docids (the ES _source
        fetch phase): docid → chunk is pure arithmetic, so only the
        owning chunks' docstore slices are read (chunk-pruned point
        lookups; k-sized, never a scan)."""
        import pyarrow as pa
        import pyarrow.compute as pc

        from excelastic_ray.index import segments as segmod

        docids = np.asarray(docids, dtype=np.int64)
        chunks = (docids >> self.cfg.turn_bits) >> self.cfg.convs_per_chunk_bits
        read_cols = columns and ["docid", *columns]

        cols_key = tuple(read_cols) if read_cols else None

        def _chunk_meta(c: int):
            """(path, rg_lo, rg_hi): per-row-group docid ranges, cached
            (metadata-only; the store is docid-ordered)."""
            with self._store_lock:
                m = self._store_meta.get(c)
                if m is not None:
                    self._store_meta.move_to_end(c)
                    return m
            path = os.path.join(
                segmod.chunk_dir(self.index_dir, int(c)), "store.parquet"
            )
            fid = _file_id(path)  # before the read, like ShardSearcher
            if fid is None:
                raise FileNotFoundError(
                    "index was built with store_source=False; no docstore"
                )
            md = pq.ParquetFile(path).metadata
            names = [md.schema.column(j).name for j in range(md.num_columns)]
            di = names.index("docid")
            nrg = md.num_row_groups
            lo = np.empty(nrg, dtype=np.int64)
            hi = np.empty(nrg, dtype=np.int64)
            nrows = np.empty(nrg, dtype=np.int64)
            for i in range(nrg):
                rg = md.row_group(i)
                nrows[i] = rg.num_rows
                st = rg.column(di).statistics
                if st is None or not st.has_min_max:
                    lo[i], hi[i] = np.iinfo(np.int64).min, np.iinfo(np.int64).max
                else:
                    lo[i], hi[i] = int(st.min), int(st.max)
            m = (path, lo, hi, nrows, fid)
            with self._store_lock:
                self._store_meta[c] = m
                while len(self._store_meta) > self._store_meta_cap:
                    self._store_meta.popitem(last=False)
            return m

        def _cache_put(key, t: pa.Table) -> None:
            n = t.num_rows
            if n > self._store_budget:
                return
            with self._store_lock:
                if key in self._store_cache:
                    return
                while (self._store_size + n > self._store_budget
                       and self._store_cache):
                    _, old = self._store_cache.popitem(last=False)
                    self._store_size -= old.num_rows
                self._store_cache[key] = t
                self._store_size += n

        def _read_chunk(c: int) -> pa.Table:
            want = np.sort(docids[chunks == c])
            path, lo, hi, nrows, _ = _chunk_meta(c)
            # a group matters only if some wanted id lands in its range
            pos = np.searchsorted(want, lo)
            sel = np.flatnonzero((pos < len(want)) & (np.take(
                want, np.minimum(pos, len(want) - 1)) <= hi))
            if not len(sel):
                return None
            parts: dict[int, pa.Table] = {}
            misses = []
            with self._store_lock:
                for i in sel:
                    key = (c, int(i), cols_key)
                    t = self._store_cache.get(key)
                    if t is not None:
                        self._store_cache.move_to_end(key)
                        parts[int(i)] = t
                    else:
                        misses.append(int(i))
            if misses:
                # ONE batched read for all missing groups (one file
                # open), split back per group by the known row counts
                t = pq.ParquetFile(path).read_row_groups(
                    misses, columns=read_cols
                )
                off = 0
                for i in misses:
                    part = t.slice(off, int(nrows[i]))
                    off += int(nrows[i])
                    parts[i] = part
                    _cache_put((c, i, cols_key), part)
            cat = (
                parts[int(sel[0])]
                if len(sel) == 1
                else pa.concat_tables([parts[int(i)] for i in sel])
            )
            # the store is docid-ordered, so membership is a bisect +
            # take, never a full is_in scan of the decoded groups
            ids_np = cat["docid"].to_numpy()
            at = np.searchsorted(ids_np, want)
            ok = at < len(ids_np)
            ok[ok] = ids_np[at[ok]] == want[ok]
            return cat.take(pa.array(at[ok])) if ok.any() else None

        uniq_chunks = sorted(set(chunks.tolist()))
        if not uniq_chunks:
            raise KeyError("fetch_docs called with no docids")
        # chunk by chunk in the calling thread: queries already take
        # turns (the admission lock), and warm fetches hit the cache
        tables = [t for t in map(_read_chunk, uniq_chunks) if t is not None]
        if not tables:
            raise KeyError(
                f"docids not present in docstore: {docids[:5].tolist()}"
            )
        cat = pa.concat_tables(tables)
        # return in the requested docid order
        found = cat["docid"].to_numpy()
        order = np.argsort(found)
        pos = np.searchsorted(found[order], docids)
        # searchsorted returns a neighbor position for absent keys —
        # verify the gathered ids actually equal the requested ones
        bad = (pos >= len(found)) | (
            found[order[np.minimum(pos, max(len(found) - 1, 0))]] != docids
        ) if len(found) else np.ones(len(docids), dtype=bool)
        if bad.any():
            raise KeyError(
                f"docids not present in docstore: "
                f"{docids[bad][:5].tolist()}"
            )
        return cat.take(pa.array(order[pos]))

    def keys_of(self, docids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """docid → (conv_id, turn_idx); docid order == (conv_id, turn_idx)."""
        docids = np.asarray(docids, dtype=np.int64)
        return (
            self.conv_ids[docids >> self.cfg.turn_bits],
            (docids & (self.cfg.max_turns - 1)).astype(np.int32),
        )

    def docid_of(self, conv_id: str, turn_idx: int) -> int:
        """(conv_id, turn_idx) → docid: one scan of the (small,
        driver-resident) conv-rank table + pure arithmetic. The turn is
        NOT validated here — fetch_docs raises KeyError for a docid the
        docstore has never seen."""
        hit = np.flatnonzero(self.conv_ids == conv_id)
        if not len(hit):
            raise KeyError(f"unknown conv_id {conv_id!r}")
        return (int(hit[0]) << self.cfg.turn_bits) | int(turn_idx)


#: TOKEN_RE matched case-insensitively over the ORIGINAL text: offsets
#: stay valid even for characters whose lowercase form changes length
#: ('İ' → 'i̇', ligatures), which text.lower()-based offsets would shift.
_TOKEN_RE_CI = re.compile(TOKEN_RE.pattern, re.IGNORECASE)

#: analyzer-token chars plus the two ES wildcard metacharacters — what
#: survives wildcard-pattern normalization (mirrors search_prefix's
#: TOKEN_RE normalization of the prefix string).
_WILDCARD_TOKEN_RE = re.compile(r"[a-z0-9_*?]+")

_RE_META = set(".^$*+?{}[]()|\\")


def _regex_literal_prefix(pattern: str) -> str:
    """Longest leading literal run of a regex (the dictionary-seek
    anchor). Stops at the first metacharacter; a quantifier consumes
    the PREVIOUS char, so that char leaves the literal too
    (``err(or)?`` → ``err``, ``ab*c`` → ``a``)."""
    lit: list[str] = []
    for c in pattern:
        if c in _RE_META:
            if c in "*+?{" and lit:
                lit.pop()
            break
        lit.append(c)
    return "".join(lit)


def highlight_text(text: str | None, terms, analyzer: str = "standard") -> str:
    """Wrap every analyzer-token occurrence of ``terms`` in <em></em>
    (ES highlighter default tags). Token boundaries come from the SAME
    TOKEN_RE pattern as indexing (matched case-insensitively in place,
    comparing each match ANALYZED — lowercased, and stemmed when the
    index analyzer stems), so highlights match exactly what scored and
    slice offsets always refer to the original string."""
    if not text:
        return ""
    want = set(terms)
    _norm = _norm_of(analyzer)
    out = []
    last = 0
    for s, e in _match_spans(text, want, _norm):
        out.append(text[last:s])
        out.append("<em>")
        out.append(text[s:e])
        out.append("</em>")
        last = e
    out.append(text[last:])
    return "".join(out)


def _norm_of(analyzer: str):
    """Per-call token normalizer for the highlighters (memoized stem
    for non-standard analyzers, identity otherwise)."""
    if analyzer == "standard":
        return str
    from excelastic_ray.analysis import analyze_tokens

    memo: dict[str, str] = {}

    def _norm(t: str) -> str:
        r = memo.get(t)
        if r is None:
            a = analyze_tokens([t], analyzer)
            memo[t] = r = a[0] if a else ""
        return r

    return _norm


def _match_spans(text: str, want: set, _norm) -> list:
    """(start, end) char spans of every analyzer-token occurrence of a
    wanted term, in position order."""
    return [
        (m.start(), m.end())
        for m in _TOKEN_RE_CI.finditer(text)
        if _norm(m.group(0).lower()) in want
    ]


def highlight_fragments(text: str | None, terms,
                        analyzer: str = "standard",
                        fragment_size: int = 100,
                        number_of_fragments: int = 5) -> list[str]:
    """ES highlighter with fragments (the ES DEFAULT response shape —
    ``fragment_size=100, number_of_fragments=5``): snippets of the doc
    around the matches, each with the matches wrapped in <em></em>.

    Fully-specified passage rule (documented deviation from Lucene's
    sentence BreakIterator, which is locale-dependent): passages grow
    GREEDILY — each starts at the first unconsumed match and absorbs
    following matches while the covered span stays within
    ``fragment_size`` chars — then pad symmetrically toward
    ``fragment_size``, snapping outward-trimmed edges to token
    boundaries so a fragment never splits a word. Passages score by
    match-occurrence count; the top ``number_of_fragments`` by
    (count DESC, position ASC) are returned in POSITION order (the ES
    default order). No matches → [] (ES omits the field)."""
    if not text:
        return []
    want = set(terms)
    _norm = _norm_of(analyzer)
    spans = _match_spans(text, want, _norm)
    if not spans:
        return []
    # greedy passage construction over the match spans
    passages = []  # (start_span_idx, end_span_idx_exclusive)
    i = 0
    while i < len(spans):
        j = i + 1
        while j < len(spans) and spans[j][1] - spans[i][0] <= fragment_size:
            j += 1
        passages.append((i, j))
        i = j
    scored = sorted(
        range(len(passages)),
        key=lambda p: (-(passages[p][1] - passages[p][0]), p),
    )[:number_of_fragments]
    out = []
    for p in sorted(scored):  # ES default: position order
        i, j = passages[p]
        core_s, core_e = spans[i][0], spans[j - 1][1]
        pad = max(0, fragment_size - (core_e - core_s))
        lo = max(0, core_s - pad // 2)
        hi = min(len(text), core_e + (pad - pad // 2))
        # snap cut edges inward to token boundaries (never split a
        # word): a cut splits a token iff word chars straddle it
        while 0 < lo < core_s and _WORD_CHAR.match(text[lo - 1]) \
                and _WORD_CHAR.match(text[lo]):
            lo += 1
        while core_e < hi < len(text) and _WORD_CHAR.match(text[hi - 1]) \
                and _WORD_CHAR.match(text[hi]):
            hi -= 1
        frag = []
        last = lo
        for s, e in spans[i:j]:
            frag.append(text[last:s])
            frag.append("<em>")
            frag.append(text[s:e])
            frag.append("</em>")
            last = e
        frag.append(text[last:hi])
        out.append("".join(frag))
    return out


_WORD_CHAR = re.compile(r"[A-Za-z0-9_]")


def _merge_has_child(parts, k):
    """Merge per-shard has_child results (conv ranks, scores, counts):
    conversations never span shards, so the merge is a concatenate +
    global (score DESC, conv rank ASC) top-k — no per-group combine."""
    if not parts:
        return (np.zeros(0, np.int64), np.zeros(0, np.float64),
                np.zeros(0, np.int64))
    keys = np.concatenate([p[0] for p in parts])
    scores = np.concatenate([p[1] for p in parts])
    counts = np.concatenate([p[2] for p in parts])
    sel = np.lexsort((keys, -scores))[:k]
    return keys[sel], scores[sel], counts[sel]


def _merge_collapse(parts, k):
    """Merge per-shard collapse results: per group keep the global best
    hit (score DESC, docid ASC), then rank groups by their best hit —
    identical logic to the shard phase, over pool-size × k rows."""
    docids = np.concatenate([p[0] for p in parts]) if parts else np.zeros(0, np.int64)
    scores = np.concatenate([p[1] for p in parts]) if parts else np.zeros(0, np.float64)
    groups = np.asarray(
        [g for p in parts for g in p[2]], dtype=object
    )
    if not len(docids):
        return np.zeros(0, np.int64), np.zeros(0, np.float64), []
    order = np.lexsort((docids, -scores))
    uniq, first = np.unique(groups[order].astype(str), return_index=True)
    best = order[first]
    bd, bs = docids[best], scores[best]
    sel = np.lexsort((bd, -bs))[:k]
    return bd[sel], bs[sel], uniq[sel].tolist()


def _per_group_topk(docids, scores, nz_groups, per_k):
    """Per-group top-``per_k`` selection (score DESC, docid ASC within
    each group) → (docids, scores, groups) in group-ASC, rank-ASC order.
    Shared by the shard phase and the driver merge of the ES
    terms-agg + ``top_hits`` analog."""
    groups = np.asarray(nz_groups)
    o = np.lexsort((docids, -scores, groups))
    g = groups[o]
    starts = np.r_[0, np.flatnonzero(g[1:] != g[:-1]) + 1]
    sizes = np.diff(np.r_[starts, len(g)])
    rank_in_group = np.arange(len(g)) - np.repeat(starts, sizes)
    sel = o[rank_in_group < per_k]
    return docids[sel], scores[sel], groups[sel].tolist()


def _parse_span_us(v) -> int:
    """µs int, or an ES-style duration string "<N>m"/"<N>h"/"<N>d"."""
    if isinstance(v, (int, np.integer, float)):
        return int(v)
    s = str(v).strip().lower()
    units = {"m": 60_000_000, "h": 3_600_000_000, "d": 86_400_000_000}
    if s and s[-1] in units:
        return int(float(s[:-1]) * units[s[-1]])
    raise ValueError(f"cannot parse time span {v!r} (use µs or N[mhd])")


def _unwrap_wrappers(node, depth: int = 0):
    """ES ``wrapper`` query: a node whose body is the base64 of a JSON
    query splices into the tree at COMPILE time (ES decodes wrappers
    before planning too). Recursion is depth-capped — a wrapper
    containing a wrapper is legal, an unbounded chain is not."""
    if depth > 8:
        raise ValueError("wrapper queries nested more than 8 deep")
    if isinstance(node, list):
        return [_unwrap_wrappers(c, depth) for c in node]
    if not isinstance(node, dict):
        return node
    if len(node) == 1 and "wrapper" in node:
        import base64
        import json

        body = node["wrapper"]
        if isinstance(body, dict):  # ES request-body shape
            body = body.get("query")
        if not isinstance(body, str):
            raise ValueError(
                "wrapper takes a base64 string or {'query': base64}"
            )
        try:
            inner = json.loads(base64.b64decode(body, validate=True))
        except Exception as e:
            raise ValueError(f"wrapper: invalid base64 JSON: {e}") from None
        return _unwrap_wrappers(inner, depth + 1)
    return {k_: _unwrap_wrappers(v, depth) for k_, v in node.items()}


_FSCORE_SCORE_MODES = ("multiply", "sum", "avg", "first", "max", "min")
_FSCORE_BOOST_MODES = ("multiply", "sum", "replace", "avg", "max", "min")
_FVF_MODIFIERS = ("none", "log1p", "ln1p", "sqrt", "square")
_FVF_FIELDS = ("turn_idx", "dl")


def _fscore_validate(body) -> None:
    """ES ``function_score`` request validation (loud, at compile):
    {'query', 'functions', 'score_mode', 'boost_mode', 'max_boost'};
    each function is at most one value source (``field_value_factor``
    over the numeric doc values turn_idx / dl, or seeded
    ``random_score``), plus optional 'filter' and 'weight'. Modifiers
    are the ES monotone set that stays total over non-negative doc
    values (log/ln/reciprocal would diverge at 0 — refused rather than
    silently clamped)."""
    if not (isinstance(body, dict) and "query" in body
            and set(body) <= {"query", "functions", "score_mode",
                              "boost_mode", "max_boost"}):
        raise ValueError(
            "function_score takes {'query', 'functions', 'score_mode', "
            "'boost_mode', 'max_boost'}"
        )
    if body.get("score_mode", "multiply") not in _FSCORE_SCORE_MODES:
        raise ValueError(f"score_mode must be one of {_FSCORE_SCORE_MODES}")
    if body.get("boost_mode", "multiply") not in _FSCORE_BOOST_MODES:
        raise ValueError(f"boost_mode must be one of {_FSCORE_BOOST_MODES}")
    fns = body.get("functions", [])
    if not isinstance(fns, list):
        raise ValueError("functions must be a list")
    for fn in fns:
        if not (isinstance(fn, dict) and set(fn) <= {
                "filter", "weight", "field_value_factor", "random_score"}):
            raise ValueError(
                "function takes {'filter', 'weight', "
                "'field_value_factor', 'random_score'}"
            )
        if "field_value_factor" in fn and "random_score" in fn:
            raise ValueError("function has two value sources")
        if "field_value_factor" in fn:
            fvf = fn["field_value_factor"]
            if not (isinstance(fvf, dict) and "field" in fvf
                    and set(fvf) <= {"field", "factor", "modifier"}):
                raise ValueError(
                    "field_value_factor takes {'field', 'factor', "
                    "'modifier'}"
                )
            if fvf["field"] not in _FVF_FIELDS:
                raise ValueError(
                    f"field_value_factor field must be one of "
                    f"{_FVF_FIELDS} (the indexed numeric doc values)"
                )
            if fvf.get("modifier", "none") not in _FVF_MODIFIERS:
                raise ValueError(
                    f"modifier must be one of {_FVF_MODIFIERS}"
                )


def render_search_template(template: str, params: dict) -> dict:
    """ES search-template rendering (the mustache subset users write):
    every ``{{name}}`` in the template string substitutes its param —
    strings are JSON-escaped in place, numbers/bools render as JSON
    literals, so a quoted "{{q}}" receives a string and an unquoted
    {{n}} receives a number, exactly like ES's mustache + JSON parse.
    Unknown placeholders raise (ES renders empty, which silently
    corrupts queries — the engine's loud-refusal convention).
    → the rendered query dict."""
    import json
    import re as _re

    def sub(m: "_re.Match[str]") -> str:
        name = m.group(1)
        if name not in params:
            raise ValueError(f"search template: missing param {name!r}")
        v = params[name]
        if isinstance(v, str):
            return json.dumps(v)[1:-1]  # escape, drop the added quotes
        return json.dumps(v)

    rendered = _re.sub(r"\{\{\s*([A-Za-z0-9_.]+)\s*\}\}", sub, template)
    try:
        out = json.loads(rendered)
    except json.JSONDecodeError as e:
        raise ValueError(
            f"search template: rendered JSON is invalid: {e}"
        ) from None
    if not isinstance(out, dict):
        raise ValueError("search template must render to a query object")
    return out


def _merge_script_fields(parts, k):
    """Merge per-shard (docids, scores, {name: values}) triples into
    the global top-k, carrying the script-field columns through the
    same (score DESC, docid ASC) order as ``_merge_shard_topk``."""
    parts = [p for p in parts if len(p[0])]
    if not parts:
        return (np.zeros(0, np.int64), np.zeros(0, np.float64), {})
    docids = np.concatenate([p[0] for p in parts])
    scores = np.concatenate([p[1] for p in parts])
    cols = {
        n: np.concatenate([p[2][n] for p in parts]) for n in parts[0][2]
    }
    order = np.lexsort((docids, -scores))[:k]
    return (docids[order], scores[order],
            {n: c[order] for n, c in cols.items()})


def _merge_shard_topk(parts, k):
    if not parts:
        return np.zeros(0, np.int64), np.zeros(0, np.float64)
    docids = np.concatenate([p[0] for p in parts])
    scores = np.concatenate([p[1] for p in parts])
    order = np.lexsort((docids, -scores))[:k]
    return docids[order], scores[order]


#: The admission point of in-process query execution (see QueryEngine).
#: Reentrant, so a public method may call another, and PIT views and
#: multi-index engines may call their sub-engines.
_ADMISSION = threading.RLock()


def _admitted(fn):
    @functools.wraps(fn)
    def admitted(self, *a, **kw):
        with self._admission:
            return fn(self, *a, **kw)

    return admitted


def admission(use_actors: bool):
    """The context an engine's public methods run in: the process-wide
    lock, or a no-op for an actor engine, which keeps its unlocked
    behaviour."""
    return contextlib.nullcontext() if use_actors else _ADMISSION


def admit_one_at_a_time(cls):
    """Class decorator: every public method of ``cls`` runs inside its
    instance's ``_admission`` context (see :func:`admission`)."""
    for name, fn in list(vars(cls).items()):
        if not name.startswith("_") and inspect.isfunction(fn):
            setattr(cls, name, _admitted(fn))
    return cls


@admit_one_at_a_time
class QueryEngine:
    """Top-level query API over a built index.

    ``use_actors=True`` serves the shards from a fixed pool of
    ``min(num_shards, CPUs - 1)`` Ray actors, each holding a contiguous
    group of shards whose postings stay resident in the actor (the
    multi-node serving shape). Default is in-process shard searchers,
    which is faster single-node (no RPC per query). Either way every
    per-shard call goes through :meth:`_scatter`, the one dispatch
    point, and every merge runs here in the driver. Each shard picks
    its own scorer (:meth:`ShardSearcher.topk`).

    In-process engines admit one call at a time per process: every
    public method holds one process-wide reentrant lock, across all
    indices. Threads running a query's many short numpy calls side by
    side convoy on the interpreter-lock hand-off: on a 4-CPU host, 4
    threads together ran 450 queries/s where 1 ran 1047; taking turns
    keeps the one-thread rate. The cost is that a long call, such as
    ``delete_by_query``/``update_by_query`` (Parquet and manifest
    writes), a lazy shard open, a ``pit()`` view's construction or a
    batch call (``search_many``, ``rank_eval``, ``mtermvectors``,
    ``significant_text``), blocks every query on every in-process
    engine in the process until it returns; the lock is not FIFO, so
    waiting callers are not served in arrival order. An actor engine
    takes no lock and behaves as before; how concurrent callers fare on
    one is not measured (its merges and document fetches still run in
    the calling process).
    """

    def __init__(
        self,
        index: str | IndexReader,
        use_actors: bool = False,
    ):
        self.reader = index if isinstance(index, IndexReader) else IndexReader(index)
        self.use_actors = use_actors
        self._admission = admission(use_actors)
        self._df_cache: dict[str, int] = {}
        # point-in-time views: (deletes_rev, updates_rev) → pinned
        # QueryEngine, LRU-bounded (each view holds its own shard
        # searchers — postings reload per generation, the simple-and-
        # correct trade; close_pit evicts eagerly)
        from collections import OrderedDict as _OD

        self._pit_cache: "_OD[tuple[int, int], QueryEngine]" = _OD()
        self._actors = None
        if use_actors:
            import ray

            # Fixed pool sized to the cluster: each actor serves a
            # contiguous group of shards, so the pool never demands more
            # CPUs than exist (16 shards on an 8-CPU node = 8 actors x 2
            # shards) and the groups concatenate back into shard order.
            r = self.reader
            cpus = max(1, int(ray.cluster_resources().get("CPU", 1)) - 1)
            n_actors = max(1, min(r.num_shards, cpus))
            actor_cls = ray.remote(num_cpus=1)(ShardActor)
            self._actors = [
                actor_cls.remote([r.shard_path(s) for s in group.tolist()],
                                 r.cfg.to_dict())
                for group in np.array_split(np.arange(r.num_shards),
                                            n_actors)
            ]

    def _scatter(self, name: str, *args, **kw) -> list:
        """The one dispatch point of the query path: runs
        ``ShardSearcher.<name>(*args, **kw)`` on every shard and returns
        one result per shard, in shard order; the caller reduces. In
        process the reader opens each shard lazily on first use; with
        actors, each actor answers for its contiguous shard group and
        the groups flatten back into shard order, so every reduce sees
        the same list in both modes."""
        if self._actors is None:
            r = self.reader
            return [getattr(r.searcher(s), name)(*args, **kw)
                    for s in range(r.num_shards)]
        import ray

        groups = ray.get(
            [a.call.remote(name, *args, **kw) for a in self._actors]
        )
        return [part for group in groups for part in group]

    # -- core ------------------------------------------------------------

    def _global_dfs(self, terms: list[str]) -> np.ndarray:
        """Global df per term. Cached: the index is immutable while open
        (append builds a new reader), so term stats never change — a
        repeated term costs zero RPC rounds."""
        missing = [t for t in terms if t not in self._df_cache]
        if missing:
            per_shard = self._scatter("dfs", missing)
            totals = np.asarray(per_shard, dtype=np.int64).sum(axis=0)
            self._df_cache.update(zip(missing, totals.tolist()))
        return np.asarray([self._df_cache[t] for t in terms], dtype=np.int64)

    # -- analyzer plumbing (catch-all text stream) ------------------------
    # Every text-stream query path analyzes with the INDEX's configured
    # analyzer (manifest config.analyzer): same stopword removal + stem
    # chain the build applied, so query terms hit the same dictionary.
    # Per-field streams (role/tool) are keyword-style and never analyzed.

    def _qt(self, query: str) -> list[str]:
        """``query_terms`` under the index analyzer (sorted, distinct)."""
        return query_terms(query, self.reader.cfg.analyzer)

    def _tok(self, text) -> list[str]:
        """``tokenize`` under the index analyzer (ordered, stops out)."""
        from excelastic_ray.analysis import tokenize

        return tokenize(text, self.reader.cfg.analyzer)

    def _tok_ordered(self, query: str) -> list[str]:
        """Phrase-shaped analysis: IN ORDER, duplicates kept. Positions
        were assigned over the analyzed stream at build time, so phrase
        adjacency is adjacency AFTER stopword removal."""
        from excelastic_ray.analysis import analyze_tokens

        return analyze_tokens(
            TOKEN_RE.findall(query.lower()), self.reader.cfg.analyzer
        )

    def search(self, query: str, k: int = 10, filters: dict | None = None,
               mode: str = "or", include_source: bool = False,
               offset: int = 0, highlight: bool = False,
               search_after: tuple[float, int] | None = None,
               min_score: float | None = None,
               fragment_size: int | None = None,
               number_of_fragments: int = 5):
        """Exact top-k → pyarrow.Table (rank, docid, conv_id, turn_idx,
        score), tie-break (score DESC, docid ASC). ``filters`` ({attr:
        value or list}, e.g. {"role": "user"}) restricts results without
        changing BM25 stats — the ES filter-context analog. ``mode``:
        "or" (default ES match behavior) or "and" (operator=and — every
        query term must match; scores identical to "or").

        ``offset`` is the ES ``from`` parameter: each shard returns its
        top (offset + k), the merged ranking is sliced [offset, offset+k)
        and ``rank`` numbers from offset + 1 — identical to slicing the
        full ranking client-side (O(depth) per shard: fine shallow).
        ``search_after`` = (score, docid) of the LAST hit of the
        previous page: each shard skips everything at-or-before that
        cursor in the (score DESC, docid ASC) sort and returns only k
        rows — the ES stateless deep-paging cursor, O(k) per page at
        any depth. Mutually exclusive with ``offset``; ``rank`` restarts
        at 1 per page (the absolute position is the caller's running
        count, exactly as in ES). ``highlight=True`` adds a
        ``highlight`` column: the stored text with every query-term
        occurrence wrapped in <em></em> (the ES highlighter default),
        produced by the SAME analyzer that built the index (needs
        store_source). ``min_score`` is the ES parameter of the same
        name: hits scoring below it drop from the ranking BEFORE
        ``offset``/``k`` pagination (exact, not approximate: the
        merged ranking is score-descending, so everything past the
        first sub-threshold hit is sub-threshold too — filtering the
        merged top ``offset + k`` equals filtering the full
        ranking). With ``fragment_size`` set, the highlight column
        holds a LIST of snippet fragments instead of the whole text
        (the ES default response shape — see
        :func:`highlight_fragments` for the passage rule)."""
        import pyarrow as pa

        if mode not in ("or", "and"):
            raise ValueError(f"unknown mode {mode!r}")
        if offset < 0:
            raise ValueError("offset must be >= 0")
        if search_after is not None and offset:
            raise ValueError("search_after and offset are exclusive")
        r = self.reader
        terms = self._qt(query)
        docids = np.zeros(0, dtype=np.int64)
        scores = np.zeros(0, dtype=np.float64)
        if terms and r.n_docs:
            dfs = self._global_dfs(terms)
            live = [(t, int(d)) for t, d in zip(terms, dfs) if d > 0]
            dead = len(live) < len(terms)
            if live and not (mode == "and" and dead):
                n_required = len(live) if mode == "and" else 0
                lterms = [t for t, _ in live]
                idfs = [idf(r.n_docs, d) for _, d in live]
                depth = k if search_after is not None else offset + k
                parts = self._scatter(
                    "topk", lterms, idfs, r.avgdl, depth, filters,
                    n_required, search_after,
                )
                docids, scores = _merge_shard_topk(parts, depth)
                if min_score is not None:
                    keep = scores >= min_score
                    docids, scores = docids[keep], scores[keep]
                docids = docids[offset:]
                scores = scores[offset:]
        conv, turn = r.keys_of(docids)
        out = pa.table(
            {
                "rank": pa.array(
                    np.arange(offset + 1, offset + len(docids) + 1,
                              dtype=np.int32)
                ),
                "docid": pa.array(docids, type=pa.int64()),
                "conv_id": pa.array(conv, type=pa.string()),
                "turn_idx": pa.array(turn, type=pa.int32()),
                "score": pa.array(scores, type=pa.float64()),
            }
        )
        if include_source and len(docids):
            src = r.fetch_docs(docids)
            for name in src.column_names:
                if name not in out.column_names:
                    out = out.append_column(name, src[name])
        if highlight:
            if len(docids):
                texts = r.fetch_docs(docids, columns=["text"])["text"].to_pylist()
                if fragment_size is not None:
                    snips = [
                        highlight_fragments(
                            t, terms, r.cfg.analyzer, fragment_size,
                            number_of_fragments,
                        )
                        for t in texts
                    ]
                else:
                    snips = [highlight_text(t, terms, r.cfg.analyzer)
                             for t in texts]
            else:
                snips = []
            out = out.append_column(
                "highlight",
                pa.array(snips, type=(
                    pa.list_(pa.string()) if fragment_size is not None
                    else pa.string()
                )),
            )
        return out

    def search_topk(self, query: str, k: int = 10) -> list[tuple[int, float]]:
        """Oracle-comparable form: [(docid, score)]."""
        t = self.search(query, k)
        return list(zip(t["docid"].to_pylist(), t["score"].to_pylist()))

    def explain(self, query: str, docid: int) -> dict:
        """ES ``_explain`` analog: the per-term BM25 breakdown of one
        doc's score for ``query`` → {matched, score, terms: [{term, tf,
        df, idf, dl, contribution}]}. The owning shard is pure docid
        arithmetic (chunk % num_shards); each term costs one dictionary
        seek + one ordinal bisect — no scan."""
        from excelastic_ray.query.bm25 import contribution as _contrib

        r = self.reader
        cfg = r.cfg
        chunk = (int(docid) >> cfg.turn_bits) >> cfg.convs_per_chunk_bits
        s = r.searcher(chunk % r.num_shards)
        ordi = int(np.searchsorted(s.docids, docid))
        if ordi >= len(s.docids) or s.docids[ordi] != docid:
            raise KeyError(f"docid {docid} not in the index")
        dl = float(s.dls[ordi])
        terms = self._qt(query)
        dfs = self._global_dfs(terms)
        rows = []
        total = 0.0
        for t, d in zip(terms, dfs):
            if d == 0:
                continue
            i = s.lookup(t)
            tf = 0.0
            if i >= 0:
                ids, tfs = s.decoded(i)
                p = int(np.searchsorted(ids, ordi))
                if p < len(ids) and ids[p] == ordi:
                    tf = float(tfs[p])
            t_idf = idf(r.n_docs, int(d))
            c = (
                float(_contrib(t_idf, np.float64(tf), np.float64(dl),
                               r.avgdl, cfg.k1, cfg.b))
                if tf
                else 0.0
            )
            total += c
            rows.append(
                {
                    "term": t, "tf": tf, "df": int(d),
                    "idf": t_idf, "dl": dl, "contribution": c,
                }
            )
        return {
            "docid": int(docid),
            "matched": any(x["tf"] > 0 for x in rows),
            "score": total,
            "terms": rows,
        }

    # -- field-qualified search (ES dynamic-mapping / multi_match) -------

    def _result_table(self, docids, scores, offset: int = 0):
        import pyarrow as pa

        conv, turn = self.reader.keys_of(docids)
        return pa.table(
            {
                "rank": pa.array(
                    np.arange(offset + 1, offset + len(docids) + 1,
                              dtype=np.int32)
                ),
                "docid": pa.array(docids, type=pa.int64()),
                "conv_id": pa.array(conv, type=pa.string()),
                "turn_idx": pa.array(turn, type=pa.int32()),
                "score": pa.array(scores, type=pa.float64()),
            }
        )

    def _field_key_of(self, field: str | None, term: str):
        """→ (dictionary key | None, normalized field). The catch-all
        stream (field None, or the single configured index_field —
        identical by definition, so it is served from the main stream
        rather than duplicated) uses the term ANALYZED with the index
        analyzer (key None when the analyzer drops it — a stopword);
        everything else must have its own stream in
        config.field_index_fields and stays keyword-raw."""
        from excelastic_ray.analysis import analyze_tokens, field_key

        cfg = self.reader.cfg
        if field is None or (
            len(cfg.index_fields) == 1 and field == cfg.index_fields[0]
        ):
            toks = analyze_tokens([term], cfg.analyzer)
            return (toks[0] if toks else None), None
        if field in cfg.shingle_streams:
            # shingle streams hold pre-joined word n-grams; the term
            # arrives already in stream form ("a b") — keyword-raw
            return field_key(field, term), field
        if field not in cfg.field_index_fields:
            raise KeyError(
                f"field {field!r} is not indexed per-field "
                f"(field_index_fields={list(cfg.field_index_fields)})"
            )
        return field_key(field, term), field

    def _field_avgdls(self) -> dict:
        avg = {None: self.reader.avgdl}
        avg.update(self.reader.manifest.get("field_avgdl", {}))
        return avg

    def _search_field_pairs(self, pairs, k: int, filters: dict | None,
                            offset: int, combine: str = "sum",
                            tie_breaker: float = 0.0):
        """Score a set of (field | None, term) clauses as one query
        (most_fields sum, or best_fields max + tie_breaker), exact
        top-k across shards."""
        r = self.reader
        seen: dict[str, str | None] = {}
        for field, term in pairs:
            key, fnorm = self._field_key_of(field, term)
            if key is None:  # analyzer dropped the term (stopword)
                continue
            seen.setdefault(key, fnorm)
        keys = sorted(seen)  # deterministic scoring order
        docids = np.zeros(0, dtype=np.int64)
        scores = np.zeros(0, dtype=np.float64)
        if keys and r.n_docs:
            dfs = self._global_dfs(keys)
            entries = [
                (kk, idf(r.n_docs, int(d)), seen[kk])
                for kk, d in zip(keys, dfs)
                if d > 0
            ]
            if entries:
                avgdls = self._field_avgdls()
                depth = offset + k
                parts = self._scatter(
                    "topk_fields", entries, avgdls, depth, filters, combine,
                    tie_breaker,
                )
                docids, scores = _merge_shard_topk(parts, depth)
                docids, scores = docids[offset:], scores[offset:]
        return self._result_table(docids, scores, offset)

    def search_fields(self, query: str, fields: list[str], k: int = 10,
                      filters: dict | None = None, offset: int = 0,
                      match_type: str = "most_fields",
                      tie_breaker: float = 0.0):
        """ES multi_match: every analyzer term of ``query`` is scored in
        every listed field with that field's own df / doc-length /
        avgdl stats. ``match_type="most_fields"`` sums every
        (field, term) contribution per doc; ``"best_fields"`` (the ES
        default) takes the best field's clause-sum plus ``tie_breaker``
        × the rest (DisMax). Field-scoped scoring is the
        per-field-indexing parity gap vs the reference's ES dynamic
        mapping (ExcelParser.java:222-261): `text:error` and
        `tool:error` now score differently."""
        from excelastic_ray.analysis import query_terms as qt

        if match_type not in ("most_fields", "best_fields"):
            raise ValueError(f"unknown match_type {match_type!r}")
        combine = "sum" if match_type == "most_fields" else "max"
        terms = qt(query)
        return self._search_field_pairs(
            [(f, t) for f in fields for t in terms], k, filters, offset,
            combine, tie_breaker,
        )

    def search_qs(self, query: str, default_fields: list[str] | None = None,
                  k: int = 10, filters: dict | None = None,
                  offset: int = 0):
        """Kibana-style query_string search: ``field:term`` clauses are
        scored in that field's stream, bare terms in ``default_fields``
        (the catch-all stream when None) — e.g.
        ``search_qs("tool:search table")``."""
        from excelastic_ray.analysis import parse_query_string

        pairs: list[tuple[str | None, str]] = []
        for field, term in parse_query_string(query):
            if field is None:
                for f in default_fields or [None]:
                    pairs.append((f, term))
            else:
                pairs.append((field, term))
        return self._search_field_pairs(pairs, k, filters, offset)

    def search_combined(self, query: str, fields: list[str | None],
                        k: int = 10, weights: dict | None = None,
                        filters: dict | None = None):
        """ES ``combined_fields`` query (the BM25F member of the
        multi_match family, beside best_fields and most_fields):
        term-centric scoring that treats the listed fields as ONE
        combined field — per term, tf = Σ_f weight_f × tf_f, df = the
        UNION of the term's per-field doc sets (summed exactly across
        shards), per-doc length dl = Σ_f weight_f × dl_f and
        avgdl = Σ_f weight_f × avgdl_f. One BM25 contribution per
        TERM: a term repeated across fields saturates instead of
        scoring once per field. ``fields`` name per-field streams (or
        None / the single index_field for the catch-all text stream);
        ``weights`` maps field → per-field weight (default 1.0).
        Deviation from ES (documented): the query analyzes once with
        the index analyzer and the analyzed token is looked up raw in
        each field's stream (ES requires same-analyzer fields, which
        this realizes by construction)."""
        import pyarrow as pa

        from excelastic_ray.analysis import field_key

        r = self.reader
        weights = weights or {}
        fnorm_w: list[tuple[str | None, float]] = []
        for f in fields:
            w = float(weights.get(f, 1.0))
            if f is None or (
                len(r.cfg.index_fields) == 1 and f == r.cfg.index_fields[0]
            ):
                fnorm_w.append((None, w))
            elif f in r.cfg.field_index_fields:
                fnorm_w.append((f, w))
            else:
                raise KeyError(
                    f"field {f!r} is not indexed per-field "
                    f"(have {sorted(r.cfg.field_index_fields)})"
                )
        if not fnorm_w:
            raise ValueError("combined_fields needs at least one field")
        toks = self._qt(query)
        groups = [
            [(t if f is None else field_key(f, t), w) for f, w in fnorm_w]
            for t in toks
        ]
        docids = np.zeros(0, dtype=np.int64)
        scores = np.zeros(0, dtype=np.float64)
        if groups and r.n_docs:
            key_groups = [[kk for kk, _ in g] for g in groups]
            per_shard = self._scatter("df_union", key_groups)
            dfs = np.asarray(per_shard, dtype=np.int64).sum(axis=0)
            live = [
                (g, idf(r.n_docs, int(d)))
                for g, d in zip(groups, dfs) if d > 0
            ]
            if live:
                avgdls = self._field_avgdls()
                avgdl_comb = sum(w * avgdls[f] for f, w in fnorm_w)
                lg = [g for g, _ in live]
                li = [i_ for _, i_ in live]
                parts = self._scatter(
                    "topk_combined", lg, li, fnorm_w, avgdl_comb, k, filters,
                )
                docids, scores = _merge_shard_topk(parts, k)
        return self._result_table(docids, scores)

    def search_cross(self, query: str, fields: list[str | None],
                     k: int = 10, filters: dict | None = None):
        """ES multi_match ``cross_fields``: term-centric scoring where
        each analyzed term may match in ANY of the listed fields — per
        term the df is BLENDED (the max of the per-field dfs, Lucene's
        BlendedTermQuery rule) and the doc takes the best single
        field's contribution for that term (per-field tf/dl/avgdl,
        shared blended idf), summed over terms. Completes the
        multi_match family: best_fields / most_fields (search_fields),
        phrase / phrase_prefix (field-scoped), bool_prefix
        (search_bool_prefix), combined_fields (search_combined) and
        cross_fields. Same analyze-once convention as
        search_combined."""
        import pyarrow as pa

        from excelastic_ray.analysis import field_key

        r = self.reader
        fnorm: list[str | None] = []
        for f in fields:
            if f is None or (
                len(r.cfg.index_fields) == 1 and f == r.cfg.index_fields[0]
            ):
                fnorm.append(None)
            elif f in r.cfg.field_index_fields:
                fnorm.append(f)
            else:
                raise KeyError(
                    f"field {f!r} is not indexed per-field "
                    f"(have {sorted(r.cfg.field_index_fields)})"
                )
        if not fnorm:
            raise ValueError("cross_fields needs at least one field")
        toks = self._qt(query)
        groups = [
            [(t if f is None else field_key(f, t), f) for f in fnorm]
            for t in toks
        ]
        docids = np.zeros(0, dtype=np.int64)
        scores = np.zeros(0, dtype=np.float64)
        if groups and r.n_docs:
            flat = sorted({kk for g in groups for kk, _ in g})
            dfs = dict(zip(flat, self._global_dfs(flat).tolist()))
            live, idfs = [], []
            for g in groups:
                d = max(dfs[kk] for kk, _ in g)
                if d > 0:
                    live.append(g)
                    idfs.append(idf(r.n_docs, int(d)))
            if live:
                avgdls = self._field_avgdls()
                parts = self._scatter(
                    "topk_cross", live, idfs, avgdls, k, filters,
                )
                docids, scores = _merge_shard_topk(parts, k)
        return self._result_table(docids, scores)

    def search_pinned(self, query: str, pinned: list[tuple[str, int]],
                      k: int = 10, filters: dict | None = None):
        """ES ``pinned`` query: the listed documents rank FIRST in the
        given order (ES pins by id), the organic BM25 ranking follows
        with pinned docs deduplicated out. Pinned docs appear whether
        or not they match the query (the ES semantic — pins are
        curated promotions); their reported score is the ES
        convention's descending pin ordinal (1.7014124e38 magnitudes
        in ES — here simply max(organic)+pin_rank so the result table
        stays monotone). ``pinned`` = [(conv_id, turn_idx), ...]."""
        import pyarrow as pa

        r = self.reader
        organic = self.search(query, k + len(pinned), filters=filters)
        pin_ids = []
        for conv, turn in pinned:
            try:
                pin_ids.append(r.docid_of(conv, int(turn)))
            except KeyError:
                continue  # unknown pin: ES silently skips it
        pin_set = set(pin_ids)
        o_doc = organic["docid"].to_pylist()
        o_score = organic["score"].to_pylist()
        top = max(o_score, default=0.0)
        rows = [(d, top + len(pin_ids) - i)
                for i, d in enumerate(pin_ids)]
        rows += [(d, s) for d, s in zip(o_doc, o_score)
                 if d not in pin_set]
        rows = rows[:k]
        docids = np.asarray([d for d, _ in rows], dtype=np.int64)
        scores = np.asarray([s for _, s in rows], dtype=np.float64)
        return self._result_table(docids, scores)

    def search_string(self, query: str, k: int = 10,
                      default_operator: str = "or",
                      filters: dict | None = None,
                      highlight: bool = False):
        """ES query_string search: full Lucene-style syntax — AND/OR/
        NOT (also &&/||/!/leading -), parentheses, "quoted phrases"
        with ~slop, field:token clauses scored in that field's own
        posting stream, and * / ? wildcard terms — compiled onto the
        DSL executor (one tree, one scoring pass). See
        :mod:`excelastic_ray.query.qs` for the grammar and the
        documented precedence deviation from Lucene's classic parser
        (NOT > AND > OR, left-associative). ``highlight=True`` adds a
        snippet column marking the POSITIVE text leaves' tokens
        (must_not branches never highlight; wildcard expansions are
        skipped — they live engine-side)."""
        import pyarrow as pa

        from excelastic_ray.query.qs import (parse_query_string_dsl,
                                             positive_terms)

        tree = parse_query_string_dsl(query, default_operator)
        out = self.search_dsl(tree, k, filters=filters)
        if highlight:
            r = self.reader
            terms = sorted(positive_terms(tree, self._qt))
            docids = out["docid"].to_numpy()
            if len(docids):
                texts = r.fetch_docs(docids,
                                     columns=["text"])["text"].to_pylist()
                snips = [highlight_text(t, terms, r.cfg.analyzer)
                         for t in texts]
            else:
                snips = []
            out = out.append_column(
                "highlight", pa.array(snips, type=pa.string())
            )
        return out

    def search_simple_string(self, query: str, k: int = 10,
                             default_operator: str = "or",
                             flags="ALL",
                             filters: dict | None = None,
                             highlight: bool = False):
        """ES ``simple_query_string`` search: the lenient end-user
        syntax (``+`` AND, ``|`` OR, clause-initial ``-`` NOT, quoted
        phrases with ``~slop``, parens, trailing-``*`` prefix,
        ``term~n`` fuzzy, ``\\`` escapes) compiled onto the DSL
        executor. Malformed input degrades to literal text instead of
        erroring — see :mod:`excelastic_ray.query.sqs` for the repair
        rules; ``flags`` disables operators ES-style ("ALL",
        "OR|AND|PREFIX", …). Scoring is identical to the equivalent
        query_string/DSL tree (one compiler, one executor)."""
        import pyarrow as pa

        from excelastic_ray.query.qs import positive_terms
        from excelastic_ray.query.sqs import parse_simple_query_string_dsl

        tree = parse_simple_query_string_dsl(query, default_operator, flags)
        out = self.search_dsl(tree, k, filters=filters)
        if highlight:
            r = self.reader
            terms = sorted(positive_terms(tree, self._qt))
            docids = out["docid"].to_numpy()
            if len(docids):
                texts = r.fetch_docs(docids,
                                     columns=["text"])["text"].to_pylist()
                snips = [highlight_text(t, terms, r.cfg.analyzer)
                         for t in texts]
            else:
                snips = []
            out = out.append_column(
                "highlight", pa.array(snips, type=pa.string())
            )
        return out

    def expand_prefix(self, prefix: str, max_expansions: int = 50,
                      field: str | None = None) -> list[str]:
        """Global prefix expansion: union of per-shard dictionary ranges,
        sorted, capped at ``max_expansions`` (the ES prefix-query
        expansion rule). Deterministic: the cap keeps the
        lexicographically FIRST terms. ``field`` scopes the expansion to
        that field's own dictionary region."""
        parts = self._scatter(
            "terms_with_prefix", prefix, max_expansions, field,
        )
        out: set[str] = set()
        for p in parts:
            out.update(p)
        return sorted(out)[:max_expansions]

    def search_prefix(self, prefix: str, k: int = 10,
                      max_expansions: int = 50, filters: dict | None = None,
                      field: str | None = None):
        """ES prefix query: expand the prefix to the first
        ``max_expansions`` matching dictionary terms and score them as
        an OR query (constant-score is ES's default for prefix; we keep
        BM25 like a rewritten bool-of-terms, which is the
        ``rewrite=scoring_boolean`` mode — fully specified, so the SQL
        twin matches exactly)."""
        import pyarrow as pa

        norm = "".join(TOKEN_RE.findall(prefix.lower()))
        if field is not None:
            terms = self.expand_prefix(norm, max_expansions, field=field)
            if terms:
                return self._search_field_pairs(
                    [(field, t) for t in terms], k, filters, 0
                )
        else:
            terms = self.expand_prefix(norm, max_expansions)
            if terms:
                return self.search(" ".join(terms), k, filters=filters)
        return pa.table(
            {
                "rank": pa.array([], type=pa.int32()),
                "docid": pa.array([], type=pa.int64()),
                "conv_id": pa.array([], type=pa.string()),
                "turn_idx": pa.array([], type=pa.int32()),
                "score": pa.array([], type=pa.float64()),
            }
        )

    def expand_wildcard(self, pattern: str, max_expansions: int = 50,
                        field: str | None = None) -> list[str]:
        """Global wildcard expansion: union of per-shard dictionary
        matches, sorted, capped at ``max_expansions`` — deterministic
        (the lexicographically FIRST matches win the cap, mirroring
        expand_prefix)."""
        parts = self._scatter("terms_matching", pattern, max_expansions, field)
        out: set[str] = set()
        for p in parts:
            out.update(p)
        return sorted(out)[:max_expansions]

    def search_wildcard(self, pattern: str, k: int = 10,
                        max_expansions: int = 50,
                        filters: dict | None = None,
                        field: str | None = None):
        """ES wildcard query (``*`` = any run, ``?`` = one char):
        expand against the term dictionary, then score the expansion
        as a bool-of-terms OR (the ``rewrite=scoring_boolean`` mode,
        same fully-specified shape as search_prefix, so a SQL GLOB
        expansion twins it exactly)."""
        import pyarrow as pa

        norm = "".join(_WILDCARD_TOKEN_RE.findall(pattern.lower()))
        if field is not None:
            terms = self.expand_wildcard(norm, max_expansions, field=field)
            if terms:
                return self._search_field_pairs(
                    [(field, t) for t in terms], k, filters, 0
                )
        else:
            terms = self.expand_wildcard(norm, max_expansions)
            if terms:
                return self.search(" ".join(terms), k, filters=filters)
        return pa.table(
            {
                "rank": pa.array([], type=pa.int32()),
                "docid": pa.array([], type=pa.int64()),
                "conv_id": pa.array([], type=pa.string()),
                "turn_idx": pa.array([], type=pa.int32()),
                "score": pa.array([], type=pa.float64()),
            }
        )

    def expand_regexp(self, pattern: str, max_expansions: int = 50,
                      field: str | None = None) -> list[str]:
        """Global regexp expansion: union of per-shard anchored-match
        dictionary scans, sorted, capped — lexicographically first
        matches win the cap (mirrors expand_wildcard)."""
        parts = self._scatter("terms_regexp", pattern, max_expansions, field)
        out: set[str] = set()
        for p in parts:
            out.update(p)
        return sorted(out)[:max_expansions]

    def search_regexp(self, pattern: str, k: int = 10,
                      max_expansions: int = 50,
                      filters: dict | None = None,
                      field: str | None = None):
        """ES ``regexp`` query: anchored regex expanded against the
        term dictionary, scored as a bool-of-terms OR
        (``rewrite=scoring_boolean`` — same shape as wildcard/prefix,
        so a DuckDB ``regexp_full_match`` expansion twins it exactly).
        Patterns must stay in the Python-re ∩ RE2 common subset (no
        Lucene ``~``/``#`` operators, which ES itself gates behind
        flags)."""
        import pyarrow as pa

        terms = self.expand_regexp(pattern, max_expansions, field=field)
        if terms:
            if field is not None:
                return self._search_field_pairs(
                    [(field, t) for t in terms], k, filters, 0
                )
            return self.search(" ".join(terms), k, filters=filters)
        return pa.table(
            {
                "rank": pa.array([], type=pa.int32()),
                "docid": pa.array([], type=pa.int64()),
                "conv_id": pa.array([], type=pa.string()),
                "turn_idx": pa.array([], type=pa.int32()),
                "score": pa.array([], type=pa.float64()),
            }
        )

    def search_dsl(self, query: dict, k: int = 10,
                   filters: dict | None = None):
        """ES query-DSL executor: arbitrarily NESTED ``bool`` over
        ``match`` leaves — the composable generalization of
        :meth:`search_bool` (which covers the flat one-level shape).

        Grammar (each node a single-key dict):

            {"match": "free text"}   — OR of the analyzed terms,
                score = Σ matched-term BM25 contributions
            {"match": {"field": f, "query": "..."}} — field-scoped
                match: whitespace tokens scored in field f's own
                posting stream with f's doc lengths and avgdl (the
                multi_match per-field stats; `role:user` ≠
                `text:user`)
            {"phrase": "exact words"} or {"phrase": {"query": ...,
                "slop": n}} — match_phrase as ONE pseudo-term (tf =
                anchor count, idf from the global phrase df computed
                at compile via per-shard counts, the search_phrase
                two-phase shape)
            {"term": "token"}        — exactly one analyzer token
                (the ES term query; normalized with the index
                analyzer so it can ever match)
            {"prefix": "pre"} / {"wildcard": "pa?t*"} /
                {"regexp": "pat+ern"} — multi-term leaves expanded
                once against the GLOBAL term dictionary at compile
                (deterministic: lexicographically first
                ``max_expansions`` matches, default 50 — pass
                {"value": ..., "max_expansions": n} to change), then
                scored as a bool-of-terms OR — Lucene's
                ``rewrite=scoring_boolean``, the same fully-specified
                shape as search_prefix/search_wildcard/search_regexp,
                so SQL GLOB / regexp expansions twin them exactly
            {"fuzzy": "token"} or {"fuzzy": {"value": ..., "fuzziness":
                int|"AUTO", "prefix_length": n, "max_expansions": m}} —
                one token expanded to its closest dictionary terms
                (distance ASC, term ASC cap — the search_fuzzy
                expansion), scored as a bool-of-terms OR
            {"bool": {"must": [...], "should": [...], "must_not":
                [...], "filter": {attr filters},
                "minimum_should_match": int}}

        ES semantics throughout: must clauses are required and score;
        should clauses score when they match, with
        ``minimum_should_match`` required (default 1 when the bool has
        no must and no filter, else 0); must_not and filter are
        non-scoring. Scores sum clause-by-clause in declaration order,
        terms inside a leaf in sorted order (the engine-wide summation
        convention). Dead terms (df = 0) drop from leaves; a must leaf
        going fully dead empties the result; dead should clauses count
        against minimum_should_match exactly like Lucene's
        unmatchable optional clauses. Deviation from ES (the
        search_bool rule): a bool whose only matching predicate would
        be "everything" (no must, msm = 0) raises instead of ranking
        the whole corpus."""
        r = self.reader
        query = _unwrap_wrappers(query)
        terms: set[str] = set()
        phrases: set[tuple[tuple[str, ...], int, str]] = set()
        expansions: dict[tuple, list[str]] = {}

        def leaf_boost(body) -> float | None:
            # per-clause ES boost: any leaf/bool dict body may carry it
            if isinstance(body, dict) and "boost" in body:
                return float(body["boost"])
            return None

        def expand_spec(op, body) -> tuple[str, int]:
            if isinstance(body, str):
                return body, 50
            if (isinstance(body, dict) and "value" in body
                    and set(body) <= {"value", "max_expansions", "boost"}):
                return body["value"], int(body.get("max_expansions", 50))
            raise ValueError(
                f"{op} takes a string or {{'value', 'max_expansions', "
                f"'boost'}}"
            )

        def fuzzy_spec(body) -> tuple:
            if isinstance(body, str):
                body = {"value": body}
            if not (isinstance(body, dict) and "value" in body
                    and set(body) <= {"value", "fuzziness",
                                      "prefix_length",
                                      "max_expansions", "boost"}):
                raise ValueError(
                    "fuzzy takes a string or {'value', 'fuzziness', "
                    "'prefix_length', 'max_expansions', 'boost'}"
                )
            toks = self._qt(str(body["value"]))
            if len(toks) != 1:
                raise ValueError(
                    f"fuzzy takes exactly one analyzer token, "
                    f"got {toks!r}"
                )
            fz = body.get("fuzziness", "AUTO")
            return ("fuzzy", toks[0],
                    fz if fz == "AUTO" else int(fz),
                    int(body.get("prefix_length", 0)),
                    int(body.get("max_expansions", 50)))

        def term_token(body) -> str:
            if (isinstance(body, dict) and "value" in body
                    and set(body) <= {"value", "boost"}):
                body = body["value"]
            if not isinstance(body, str):
                raise ValueError(
                    "term takes a token string or {'value', 'boost'}"
                )
            toks = self._qt(body)
            if len(toks) != 1:
                raise ValueError(
                    f"term takes exactly one analyzer token, got {toks!r}"
                )
            return toks[0]

        def phrase_spec(body) -> tuple[tuple[str, ...], int, str]:
            if isinstance(body, str):
                q, slop, mode = body, 0, "windowed"
            elif isinstance(body, dict) and set(body) <= {"query",
                                                          "slop",
                                                          "slop_mode",
                                                          "boost"}:
                q, slop = body["query"], int(body.get("slop", 0))
                mode = body.get("slop_mode", "windowed")
                if mode not in ("windowed", "lucene"):
                    raise ValueError(
                        "slop_mode must be 'windowed' or 'lucene'"
                    )
            else:
                raise ValueError(
                    "phrase takes a string or {'query', 'slop', "
                    "'slop_mode', 'boost'}"
                )
            return tuple(self._tok_ordered(q)), slop, mode

        def collect(node) -> None:
            if not isinstance(node, dict) or len(node) != 1:
                raise ValueError(
                    f"DSL node must be a single-key dict: {node!r}"
                )
            op, body = next(iter(node.items()))
            if op == "match":
                if isinstance(body, dict):
                    if not ("query" in body
                            and set(body) <= {"field", "query", "boost"}):
                        raise ValueError(
                            "match takes a string or {'field', 'query', "
                            "'boost'}"
                        )
                    if "field" in body:
                        for tok in str(body["query"]).split():
                            key, _ = self._field_key_of(body["field"], tok)
                            if key is not None:
                                terms.add(key)
                    else:
                        terms.update(self._qt(str(body["query"])))
                elif isinstance(body, str):
                    terms.update(self._qt(body))
                else:
                    raise ValueError("match takes a query string")
            elif op == "phrase":
                phrases.add(phrase_spec(body))
            elif op == "term":
                terms.add(term_token(body))
            elif op in ("prefix", "wildcard", "regexp"):
                val, maxexp = expand_spec(op, body)
                key = (op, val, maxexp)
                if key not in expansions:
                    if op == "prefix":
                        norm = "".join(TOKEN_RE.findall(val.lower()))
                        expansions[key] = self.expand_prefix(norm, maxexp)
                    elif op == "wildcard":
                        norm = "".join(
                            _WILDCARD_TOKEN_RE.findall(val.lower())
                        )
                        expansions[key] = self.expand_wildcard(
                            norm, maxexp
                        )
                    else:
                        expansions[key] = self.expand_regexp(val, maxexp)
                terms.update(expansions[key])
            elif op == "fuzzy":
                key = fuzzy_spec(body)
                if key not in expansions:
                    _, t, d, plen, maxexp = key
                    dd = self.auto_fuzziness(t) if d == "AUTO" else int(d)
                    expansions[key] = (
                        [t] if dd == 0
                        else self.expand_fuzzy(t, dd, plen, maxexp)
                    )
                terms.update(expansions[key])
            elif op == "constant_score":
                if not (isinstance(body, dict) and "filter" in body
                        and set(body) <= {"filter", "boost"}):
                    raise ValueError(
                        "constant_score takes {'filter', 'boost'}"
                    )
                collect(body["filter"])
            elif op == "function_score":
                _fscore_validate(body)
                collect(body["query"])
                for fn in body.get("functions", []):
                    if "filter" in fn:
                        collect(fn["filter"])
            elif op == "bool":
                unknown = set(body) - {
                    "must", "should", "must_not", "filter",
                    "minimum_should_match", "boost",
                }
                if unknown:
                    raise ValueError(
                        f"unknown bool keys {sorted(unknown)}"
                    )
                if body.get("minimum_should_match") and not body.get(
                    "should"
                ):
                    raise ValueError(
                        "minimum_should_match without should clauses"
                    )
                for key in ("must", "should", "must_not"):
                    for c in body.get(key, []):
                        collect(c)
            else:
                raise ValueError(f"unknown DSL op {op!r}")

        collect(query)
        empty = self._result_table(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
        )
        if not r.n_docs:
            return empty
        tl = sorted(terms)
        dfs = dict(zip(tl, self._global_dfs(tl).tolist())) if tl else {}
        idf_map = {t: idf(r.n_docs, d) for t, d in dfs.items() if d > 0}
        # phrase idfs need the phrase df (docs with >= 1 anchor), a
        # query-dependent global stat: phase-1 counts per shard, the
        # search_phrase shape (shards cache their matches for eval)
        phrase_idf: dict = {}
        for pterms, pslop, pmode in sorted(phrases):
            if not pterms:
                continue
            counts = self._scatter(
                "phrase_count", list(pterms), pslop, None, pmode,
            )
            dfp = int(sum(counts))
            if dfp:
                phrase_idf[(pterms, pslop, pmode)] = idf(r.n_docs, dfp)

        def build(node) -> dict:
            op, body = next(iter(node.items()))
            out = build_node(op, body)
            # attach the per-clause boost (constant_score's 'boost' IS
            # its score, already consumed by its own node)
            if op != "constant_score" and out["op"] != "none":
                b = leaf_boost(body)
                if b is not None:
                    out["boost"] = b
            return out

        def build_node(op, body) -> dict:
            if op == "match":
                if isinstance(body, dict) and "field" not in body:
                    body = str(body["query"])
                if isinstance(body, dict):
                    f = body["field"]
                    fnorm = None
                    pairs: dict[str, float] = {}
                    for tok in str(body["query"]).split():
                        key, fn = self._field_key_of(f, tok)
                        if key is not None and key in idf_map:
                            pairs[key] = idf_map[key]
                            fnorm = fn
                    if not pairs:
                        return {"op": "none"}
                    return {"op": "match_field",
                            "terms": sorted(pairs.items()),
                            "field": fnorm,
                            "avgdl": self._field_avgdls()[fnorm]}
                live = sorted(
                    {t for t in self._qt(body) if t in idf_map}
                )
                if not live:
                    return {"op": "none"}
                return {"op": "match",
                        "terms": [(t, idf_map[t]) for t in live]}
            if op == "phrase":
                pterms, pslop, pmode = phrase_spec(body)
                p_idf = phrase_idf.get((pterms, pslop, pmode))
                if p_idf is None:
                    return {"op": "none"}
                return {"op": "phrase", "terms": list(pterms),
                        "slop": pslop, "slop_mode": pmode,
                        "idf": p_idf}
            if op == "term":
                t = term_token(body)
                if t not in idf_map:
                    return {"op": "none"}
                return {"op": "match", "terms": [(t, idf_map[t])]}
            if op in ("prefix", "wildcard", "regexp"):
                val, maxexp = expand_spec(op, body)
                live = sorted(
                    t for t in expansions[(op, val, maxexp)]
                    if t in idf_map
                )
                if not live:
                    return {"op": "none"}
                return {"op": "match",
                        "terms": [(t, idf_map[t]) for t in live]}
            if op == "fuzzy":
                live = sorted(
                    t for t in expansions[fuzzy_spec(body)]
                    if t in idf_map
                )
                if not live:
                    return {"op": "none"}
                return {"op": "match",
                        "terms": [(t, idf_map[t]) for t in live]}
            if op == "constant_score":
                child = build(body["filter"])
                if child["op"] == "none":
                    return {"op": "none"}
                return {"op": "const", "child": child,
                        "score": float(body.get("boost", 1.0))}
            if op == "function_score":
                child = build(body["query"])
                if child["op"] == "none":
                    return {"op": "none"}
                funcs = []
                for fn in body.get("functions", []):
                    f: dict = {"weight": float(fn.get("weight", 1.0))}
                    if "filter" in fn:
                        f["filter"] = build(fn["filter"])
                    if "field_value_factor" in fn:
                        fvf = fn["field_value_factor"]
                        f["fvf"] = {
                            "field": fvf["field"],
                            "factor": float(fvf.get("factor", 1.0)),
                            "modifier": fvf.get("modifier", "none"),
                        }
                    elif "random_score" in fn:
                        f["random"] = int(
                            (fn["random_score"] or {}).get("seed", 0)
                        )
                    funcs.append(f)
                mb = body.get("max_boost")
                return {"op": "fscore", "child": child, "funcs": funcs,
                        "score_mode": body.get("score_mode", "multiply"),
                        "boost_mode": body.get("boost_mode", "multiply"),
                        "max_boost": None if mb is None else float(mb)}
            b = body
            if not b.get("must") and not b.get("should"):
                raise ValueError(
                    "bool node needs at least one must or should clause"
                )
            must = [build(c) for c in b.get("must", [])]
            should = [build(c) for c in b.get("should", [])]
            must_not = [c for c in (build(c) for c in
                                    b.get("must_not", []))
                        if c["op"] != "none"]
            filt = b.get("filter")
            msm = b.get("minimum_should_match")
            if msm is None:
                msm = 1 if (b.get("should") and not b.get("must")
                            and not filt) else 0
            if not b.get("must") and msm == 0 and not filt:
                # a filter clause bounds the match set, so this guard
                # (the search_bool never-rank-the-whole-corpus rule)
                # only applies to truly unbounded bools
                raise ValueError(
                    "bool with only optional should clauses would rank "
                    "the whole corpus; set minimum_should_match >= 1, "
                    "add a must clause, or bound it with a filter"
                )
            if any(c["op"] == "none" for c in must):
                return {"op": "none"}
            live_should = [c for c in should if c["op"] != "none"]
            if b.get("should") and msm > len(live_should):
                return {"op": "none"}  # required shoulds can't be met
            return {"op": "bool", "must": must, "should": live_should,
                    "must_not": must_not, "msm": msm, "filter": filt}

        tree = build(query)
        if tree["op"] == "none":
            return empty
        parts = self._scatter("dsl_topk", tree, r.avgdl, k, filters)
        docids, scores = _merge_shard_topk(parts, k)
        return self._result_table(docids, scores)

    def _match_child(self, query: str, mode: str) -> dict | None:
        """The DSL tree of a plain ``query`` under ``mode``: one
        ``match`` leaf of the live terms for "or", a ``bool`` of one
        ``must`` leaf per term for "and". Either way scores sum in
        sorted-term order, so they equal :meth:`search`'s. → None when
        nothing can match (no live term, or a dead term under "and")."""
        if mode not in ("or", "and"):
            raise ValueError(f"unknown mode {mode!r}")
        r = self.reader
        terms = self._qt(query)
        if not terms or not r.n_docs:
            return None
        dfs = self._global_dfs(terms)
        live = [(t, idf(r.n_docs, int(d)))
                for t, d in zip(terms, dfs) if d > 0]
        if not live or (mode == "and" and len(live) < len(terms)):
            return None
        if mode == "or":
            return {"op": "match", "terms": live}
        return {"op": "bool", "must": [{"op": "match", "terms": [p]}
                                       for p in live],
                "should": [], "must_not": [], "msm": 0, "filter": None}

    def _fscore_search(self, query: str, mode: str, funcs: list,
                       boost_mode: str, k: int, filters: dict | None):
        """``query`` (see :meth:`_match_child`) under one DSL ``fscore``
        node whose ``funcs`` join its score per ``boost_mode`` — the
        executor of the score-modifier searches. Each shard ranks on the
        joined score, which keeps the merge exact: a modifier can lift a
        doc above a higher-BM25 one, so relevance-first pruning would be
        wrong, and every doc lives in exactly one shard."""
        child = self._match_child(query, mode)
        docids = np.zeros(0, dtype=np.int64)
        scores = np.zeros(0, dtype=np.float64)
        if child is not None:
            tree = {"op": "fscore", "child": child, "funcs": funcs,
                    "score_mode": "multiply", "boost_mode": boost_mode,
                    "max_boost": None}
            parts = self._scatter("dsl_topk", tree, self.reader.avgdl, k,
                                  filters)
            docids, scores = _merge_shard_topk(parts, k)
        return self._result_table(docids, scores)

    def search_template(self, template: str, params: dict | None = None,
                        k: int = 10, filters: dict | None = None):
        """ES search template: render the mustache-subset ``template``
        with ``params`` (see :func:`render_search_template`), then
        execute the rendered query through the DSL executor. The
        stored-template workflow is the caller's side (templates are
        strings; keep them wherever requests are built)."""
        return self.search_dsl(
            render_search_template(template, dict(params or {})), k,
            filters,
        )

    def search_bool(self, must: str = "", should: str = "",
                    must_not: str = "", k: int = 10,
                    minimum_should_match: int | None = None,
                    filters: dict | None = None):
        """ES ``bool`` query: ``must`` terms all required (scoring),
        ``should`` terms optional (scoring, at least
        ``minimum_should_match`` of them — ES default: 1 when there is
        no must clause, else 0), ``must_not`` terms excluded
        (non-scoring), ``filters`` the non-scoring attribute filter
        context. Clause strings are analyzed with the index analyzer;
        duplicate terms within a clause dedup (Lucene BooleanQuery
        behavior). A term in both must and should counts toward both
        predicates but scores once. Deviation from ES: a query with no
        scoring clause (must_not/filter only — ES matches everything at
        score 0) raises ValueError instead of ranking the whole corpus.

        Edge semantics (all mirrored exactly by the SQL twin): a must
        term absent from the corpus ⇒ empty result; a should term
        absent ⇒ drops out (can never match or score); must ∩ must_not
        ⇒ empty (the clauses contradict); should ∩ must_not terms can
        never contribute (any doc containing one is excluded)."""
        m_terms = self._qt(must)
        s_terms = self._qt(should)
        n_terms = self._qt(must_not)
        if not m_terms and not s_terms:
            raise ValueError("bool query needs at least one must or "
                             "should term")
        msm = (
            minimum_should_match
            if minimum_should_match is not None
            else (1 if s_terms and not m_terms else 0)
        )
        empty = self._result_table(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
        )
        nset = set(n_terms)
        if nset & set(m_terms):
            return empty  # contradiction: must t AND must_not t
        s_terms = [t for t in s_terms if t not in nset]
        r = self.reader
        if not r.n_docs:
            return empty
        n_must = len(m_terms)
        union = sorted(set(m_terms) | set(s_terms))
        dfs = dict(zip(union, self._global_dfs(union).tolist()))
        if any(dfs[t] == 0 for t in m_terms):
            return empty  # a required term matches nothing
        live = [t for t in union if dfs[t] > 0]
        s_live = sum(1 for t in s_terms if dfs[t] > 0)
        if msm > s_live:
            return empty  # fewer live should terms than required
        if not live:
            return empty
        mset, sset = set(m_terms), set(s_terms)
        idfs = [idf(r.n_docs, dfs[t]) for t in live]
        must_flags = [t in mset for t in live]
        should_flags = [t in sset for t in live]
        mnot = [t for t in n_terms if t not in self._df_cache
                or self._df_cache[t] != 0]
        parts = self._scatter(
            "bool_topk", live, idfs, must_flags, should_flags, mnot, r.avgdl,
            k, filters, n_must, msm,
        )
        docids, scores = _merge_shard_topk(parts, k)
        return self._result_table(docids, scores)

    @staticmethod
    def auto_fuzziness(term: str) -> int:
        """ES ``fuzziness: AUTO``: 0 edits below 3 chars, 1 for 3-5,
        2 from 6 up."""
        n = len(term)
        return 0 if n < 3 else (1 if n <= 5 else 2)

    def expand_fuzzy(self, term: str, max_edits: int,
                     prefix_length: int = 0,
                     max_expansions: int = 50) -> list[str]:
        """Global fuzzy expansion of one term: union of per-shard
        dictionary candidates within ``max_edits`` Levenshtein distance,
        ordered (distance ASC, term ASC) — closest matches win the
        ``max_expansions`` cap deterministically (the exact-term match,
        distance 0, always survives)."""
        best = self._fuzzy_union(term, max_edits, prefix_length)
        ranked = sorted(best.items(), key=lambda kv: (kv[1], kv[0]))
        return [t for t, _ in ranked[:max_expansions]]

    def _fuzzy_union(self, term: str, max_edits: int,
                     prefix_length: int = 0) -> dict[str, int]:
        """Union of per-shard Levenshtein candidates → {term: distance}
        (min distance across shards; the metric is shard-invariant, so
        min is just dedup)."""
        parts = self._scatter(
            "fuzzy_candidates", term, max_edits, prefix_length,
        )
        best: dict[str, int] = {}
        for p in parts:
            for t, d in p:
                if t not in best or d < best[t]:
                    best[t] = d
        return best

    def suggest(self, text: str, max_edits: int = 2,
                max_suggestions: int = 3, prefix_length: int = 0,
                suggest_mode: str = "always"):
        """ES term suggester ("did you mean"): per analyzer token of
        ``text``, the ``max_suggestions`` closest dictionary terms
        within ``max_edits`` Levenshtein edits → pyarrow.Table (term,
        rank, suggestion, distance, df). The input term itself
        (distance 0) is never suggested. Ranking is the deterministic
        integer ordering (distance ASC, global df DESC, suggestion
        ASC) — ES ranks by a frequency-scaled similarity score; the
        integer proxy keeps the SQL ``levenshtein()`` twin exact.
        ``suggest_mode="missing"`` (an ES mode) only suggests for
        terms absent from the index; default "always" suggests for
        every token."""
        import pyarrow as pa

        from excelastic_ray.analysis import tokenize

        if suggest_mode not in ("always", "missing"):
            raise ValueError(f"unknown suggest_mode {suggest_mode!r}")
        cols: dict[str, list] = {
            "term": [], "rank": [], "suggestion": [], "distance": [],
            "df": [],
        }
        for t in dict.fromkeys(self._tok(text)):  # unique, input order
            if suggest_mode == "missing" and int(self._global_dfs([t])[0]) > 0:
                continue
            best = self._fuzzy_union(t, max_edits, prefix_length)
            cands = sorted(c for c, d in best.items() if d > 0)
            if not cands:
                continue
            dfs = self._global_dfs(cands)
            ranked = sorted(
                zip(cands, (best[c] for c in cands), dfs.tolist()),
                key=lambda x: (x[1], -x[2], x[0]),
            )[:max_suggestions]
            for i, (c, d, df_) in enumerate(ranked, start=1):
                cols["term"].append(t)
                cols["rank"].append(i)
                cols["suggestion"].append(c)
                cols["distance"].append(d)
                cols["df"].append(df_)
        return pa.table(
            {
                "term": pa.array(cols["term"], type=pa.string()),
                "rank": pa.array(cols["rank"], type=pa.int32()),
                "suggestion": pa.array(cols["suggestion"], type=pa.string()),
                "distance": pa.array(cols["distance"], type=pa.int32()),
                "df": pa.array(cols["df"], type=pa.int64()),
            }
        )

    def _global_ctfs(self, terms: list[str]) -> np.ndarray:
        """Global collection term frequency per term (immutable-index
        cached, like _global_dfs)."""
        cache = getattr(self, "_ctf_cache", None)
        if cache is None:
            cache = self._ctf_cache = {}
        missing = [t for t in terms if t not in cache]
        if missing:
            per = self._scatter("ctfs", missing)
            totals = np.asarray(per, dtype=np.int64).sum(axis=0)
            cache.update(zip(missing, totals.tolist()))
        return np.asarray([cache[t] for t in terms], dtype=np.int64)

    def _global_adj(self, pairs: list[tuple[str, str]]) -> np.ndarray:
        """Global adjacent-bigram occurrence count per (a, b) pair."""
        if not pairs:
            return np.zeros(0, dtype=np.int64)
        per = self._scatter("adj_counts", pairs)
        return np.asarray(per, dtype=np.int64).sum(axis=0)

    def suggest_phrase(self, text: str, max_edits: int = 2,
                       max_term_candidates: int = 3,
                       max_suggestions: int = 5,
                       prefix_length: int = 0,
                       combo_budget: int = 20_000):
        """ES ``phrase`` suggester ("did you mean" over the WHOLE
        phrase): per analyzer token, candidates = the original term
        (when indexed) plus its ``max_term_candidates`` closest
        dictionary terms (the term suggester's deterministic ranking:
        distance ASC, df DESC, term ASC); every slot combination is
        re-ranked by an add-one bigram corpus LM read straight off the
        index —

            score = ln((ctf(w1)+1)/(T+1))
                  + Σ_i ln((adj(w_i, w_{i+1})+1)/(ctf(w_i)+1))

        with ctf = collection term frequency, adj = adjacent-occurrence
        count (exact-phrase anchors), T = total indexed tokens. The
        identity suggestion (== the analyzed input) is excluded like
        the term suggester excludes self; ties break suggestion ASC on
        the trunc6'd score. (Deviation from ES, documented: ES
        re-ranks by a Stupid-Backoff LM with ``real_word_error_
        likelihood`` discounting and optional collate queries; the
        add-one bigram form is deterministic and SQL-twinnable.)

        Scale shape: candidate stats are gathered in THREE batched
        engine calls (dfs / ctfs / adj_counts over the distinct
        candidate vocabulary and slot-adjacent pairs — never one RPC
        per pair); the combo product is budget-gated with a loud
        refusal. → pyarrow.Table (rank, suggestion, score)."""
        import pyarrow as pa

        from excelastic_ray.pipelines.textstats import trunc6

        toks = self._tok_ordered(text)
        if not toks:
            raise ValueError("suggest_phrase needs at least one "
                             "analyzer token")
        slots: list[list[str]] = []
        for t in toks:
            best = self._fuzzy_union(t, max_edits, prefix_length)
            cands = sorted(c for c, d in best.items() if d > 0)
            ranked = []
            if cands:
                dfs_ = self._global_dfs(cands)
                ranked = [
                    c for c, _d, _f in sorted(
                        zip(cands, (best[c] for c in cands),
                            dfs_.tolist()),
                        key=lambda x: (x[1], -x[2], x[0]),
                    )[:max_term_candidates]
                ]
            orig = [t] if int(self._global_dfs([t])[0]) > 0 else []
            slot = orig + ranked
            slots.append(slot if slot else [t])
        n_combos = int(np.prod([len(s) for s in slots]))
        if n_combos > combo_budget:
            raise ValueError(
                f"suggest_phrase: {n_combos} candidate combinations "
                f"exceed combo_budget={combo_budget}; lower "
                "max_term_candidates or raise the budget"
            )
        vocab = sorted({c for s in slots for c in s})
        ctf = dict(zip(vocab, self._global_ctfs(vocab).tolist()))
        pairs = sorted({
            (a, b)
            for i in range(len(slots) - 1)
            for a in slots[i] for b in slots[i + 1]
        })
        adj = dict(zip(pairs, self._global_adj(pairs).tolist()))
        T = float(self.reader.manifest["total_dl"])

        grids = np.indices([len(s) for s in slots]).reshape(
            len(slots), -1)
        uni0 = np.array([
            np.log((ctf[c] + 1.0) / (T + 1.0)) for c in slots[0]
        ])
        score = uni0[grids[0]]
        for i in range(len(slots) - 1):
            bi = np.array([
                [np.log((adj[(a, b)] + 1.0) / (ctf[a] + 1.0))
                 for b in slots[i + 1]]
                for a in slots[i]
            ])
            score = score + bi[grids[i], grids[i + 1]]
        sugg = np.array([
            " ".join(slots[i][g] for i, g in enumerate(combo))
            for combo in grids.T
        ], dtype=object)
        keep = sugg != " ".join(toks)
        sugg, score = sugg[keep], trunc6(score[keep])
        order = np.lexsort((sugg, -score))[:max_suggestions]
        return pa.table(
            {
                "rank": pa.array(
                    np.arange(1, len(order) + 1, dtype=np.int32)),
                "suggestion": pa.array(sugg[order].astype(str),
                                       type=pa.string()),
                "score": pa.array(score[order], type=pa.float64()),
            }
        )

    def search_fuzzy(self, query: str, k: int = 10,
                     fuzziness: int | str = "AUTO",
                     prefix_length: int = 0, max_expansions: int = 50,
                     filters: dict | None = None):
        """ES fuzzy match: every query term expands to its
        ``max_expansions`` closest dictionary terms within ``fuzziness``
        edits (AUTO = ES's length-scaled default), and the union is
        scored as a bool-of-terms OR query — the ``scoring_boolean``
        rewrite, same fully-specified scoring shape as search_prefix, so
        results twin a SQL ``levenshtein()`` expansion exactly."""
        import pyarrow as pa

        from excelastic_ray.analysis import tokenize

        expanded: set[str] = set()
        for t in self._tok(query):
            d = self.auto_fuzziness(t) if fuzziness == "AUTO" else int(fuzziness)
            if d == 0:
                expanded.add(t)
            else:
                expanded.update(
                    self.expand_fuzzy(t, d, prefix_length, max_expansions)
                )
        if expanded:
            return self.search(" ".join(sorted(expanded)), k, filters=filters)
        return self._result_table(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
        )

    def complete(self, prefix: str, k: int = 10,
                 max_candidates: int | None = None):
        """ES completion-suggester analog (search-as-you-type): the
        top-``k`` dictionary terms starting with ``prefix``, ranked by
        corpus document frequency (popularity) with (df DESC, term
        ASC) ties — served from the sorted term dictionary (two binary
        searches per shard, the same TermEnum seek the prefix query
        uses), no postings decoded. Candidates are unbounded by
        default (the range is vocabulary-bounded); ``max_candidates``
        caps the per-shard range for enormous vocabularies, which
        makes the ranking approximate (alphabetically-late popular
        terms past the cap are not seen) — documented ES-suggester-
        style truncation, off unless asked for.

        → pyarrow.Table (rank, term, df)."""
        import pyarrow as pa

        from excelastic_ray.analysis import tokenize

        toks = tokenize(prefix)
        out_empty = pa.table(
            {
                "rank": pa.array([], type=pa.int32()),
                "term": pa.array([], type=pa.string()),
                "df": pa.array([], type=pa.int64()),
            }
        )
        if len(toks) != 1:
            return out_empty
        p = toks[0]
        terms, dfs = self._prefix_df_sum(p, max_candidates)
        if not len(terms):
            return out_empty
        order = np.lexsort((terms, -dfs))[:k]
        return pa.table(
            {
                "rank": pa.array(
                    np.arange(1, len(order) + 1, dtype=np.int32)
                ),
                "term": pa.array(terms[order], type=pa.string()),
                "df": pa.array(dfs[order].astype(np.int64)),
            }
        )

    def _prefix_df_sum(self, p: str, max_candidates: int | None):
        """Per-shard dictionary slice + cross-shard df sum for prefix
        ``p`` → (terms object array, dfs int64). The (terms, dfs) parts
        arrive as contiguous array slices; the merge is a hash-based
        factorize + bincount (np.unique comparison-sorts PyObjects,
        ~12x slower on wide prefixes; a pandas groupby cost ~3x) — no
        per-term dictionary lookups anywhere on this path."""
        parts_t, parts_d = [], []
        for t_arr, d_arr in self._scatter("prefix_dfs", p):
            if max_candidates is not None:
                t_arr, d_arr = (t_arr[:max_candidates],
                                d_arr[:max_candidates])
            if len(t_arr):
                parts_t.append(t_arr)
                parts_d.append(d_arr)
        if not parts_t:
            return (np.zeros(0, dtype=object), np.zeros(0, dtype=np.int64))
        import pandas as pd

        inv, uniq = pd.factorize(np.concatenate(parts_t), sort=False)
        # float64 weights are exact for any real df (< 2^53)
        dfs = np.bincount(
            inv, weights=np.concatenate(parts_d).astype(np.float64)
        ).astype(np.int64)
        return np.asarray(uniq, dtype=object), dfs

    def terms_enum(self, string: str = "", size: int = 10,
                   field: str | None = None,
                   case_insensitive: bool = False,
                   search_after: str | None = None):
        """ES ``_terms_enum`` analog: up to ``size`` index terms
        starting with ``string``, in ascending term order — served
        straight from the sorted per-shard term dictionaries (two
        binary searches per shard plus a pagination seek, no postings
        decoded), merged by sorted-set union on the driver. Each shard
        contributes at most ``size`` terms, so the merge is
        O(shards × size) regardless of vocabulary size.

        ``search_after`` resumes strictly after a term (the ES
        pagination contract — chain pages by passing the last term of
        the previous page). ``case_insensitive`` folds the probe into
        the analyzer's lowercase dictionary space (the dictionary is
        lowercased at build time, so an exact-case probe containing
        uppercase matches nothing — the documented analog of ES's
        normalizer-dependent matching). ``field`` scopes the
        enumeration to that field's keyword stream (role/tool).
        Results are exact and complete — the ES ``complete`` response
        flag is always true here (no timeout cutoff path). Like ES,
        terms that survive only in not-yet-merged tombstoned docs may
        still appear (the dictionary is immutable between merges).

        → pyarrow.Table (term,) ascending. Reference purpose: the
        reference delegates the term dictionary to Elasticsearch
        (``ElasticWriter.java``); this is the native form of its
        term-browse surface."""
        import pyarrow as pa

        if case_insensitive:
            string = string.lower()
            if search_after is not None:
                search_after = search_after.lower()
        size = max(0, int(size))
        merged: set = set()
        for part in self._scatter("terms_enum_scan", string, size,
                                  after=search_after, field=field):
            merged.update(part)
        terms = sorted(merged)[:size]
        return pa.table({"term": pa.array(terms, type=pa.string())})

    def complete_fuzzy(self, prefix: str, k: int = 10, fuzziness: int = 1,
                       prefix_length: int = 1,
                       max_candidates: int | None = None):
        """ES completion suggester with ``fuzzy`` options: dictionary
        terms some PREFIX of which lies within ``fuzziness`` edits of
        the typed input (Lucene FuzzyCompletionQuery semantics — the
        user may still be mid-word, so the input is matched against
        term prefixes, not whole terms), sharing the first
        ``prefix_length`` characters exactly (the ES option of the same
        name). Distance is plain Levenshtein — a documented deviation
        from Lucene's default transpositions=true (kept plain so the
        DuckDB ``levenshtein`` twin computes the identical metric).

        Execution: candidates come from the SAME sorted-dictionary
        range scan the exact completer uses, seeded with the exact
        ``prefix_length``-char stem; the min-over-prefixes edit
        distance is ONE numpy DP over the candidate char matrix
        (O(len(input) × (len(input)+fuzziness) × candidates) vector
        ops, no per-term Python). Term prefixes longer than
        len(input)+fuzziness never bind (their distance is at least
        the length excess), so the DP stops there.

        Ranked like ``complete`` — (df DESC, term ASC), popularity
        first — with the distance reported per suggestion.
        → pyarrow.Table (rank, term, dist, df)."""
        import pyarrow as pa

        from excelastic_ray.analysis import tokenize

        if fuzziness < 0:
            raise ValueError("fuzziness must be >= 0")
        if prefix_length < 1:
            raise ValueError(
                "prefix_length must be >= 1 (0 would scan the whole "
                "dictionary per shard)"
            )
        toks = tokenize(prefix)
        out_empty = pa.table(
            {
                "rank": pa.array([], type=pa.int32()),
                "term": pa.array([], type=pa.string()),
                "dist": pa.array([], type=pa.int64()),
                "df": pa.array([], type=pa.int64()),
            }
        )
        if len(toks) != 1:
            return out_empty
        p = toks[0]
        stem = p[: min(prefix_length, len(p))]
        terms, dfs = self._prefix_df_sum(stem, max_candidates)
        if not len(terms):
            return out_empty
        dist = _min_prefix_lev(terms, p, fuzziness)
        keep = dist <= fuzziness
        terms, dfs, dist = terms[keep], dfs[keep], dist[keep]
        order = np.lexsort((terms, -dfs))[:k]
        return pa.table(
            {
                "rank": pa.array(
                    np.arange(1, len(order) + 1, dtype=np.int32)
                ),
                "term": pa.array(terms[order], type=pa.string()),
                "dist": pa.array(dist[order].astype(np.int64)),
                "df": pa.array(dfs[order].astype(np.int64)),
            }
        )

    def significant_text(self, query: str, k: int = 10,
                         sample_size: int = 200, min_doc_count: int = 3,
                         filters: dict | None = None):
        """ES ``significant_text``: terms over-represented in the top
        hits of a query relative to the whole corpus, scored with the
        same JLH heuristic as ``significant_terms`` — ``(fg_pct -
        bg_pct) * (fg_pct / bg_pct)``, fg_pct = fg_df / |sample|,
        bg_pct = global df / N; terms with fg_pct <= bg_pct or fewer
        than ``min_doc_count`` foreground docs drop.

        Foreground = the top-``sample_size`` BM25 hits, exactly ES's
        recommended sampler-wrapped usage: the driver-side analysis is
        bounded by the sample window, never the hit count; the
        expensive parts (ranking, global dfs) stay distributed.

        → pyarrow.Table (rank, term, fg_df, df, score), trunc6'd."""
        import pyarrow as pa

        from excelastic_ray.analysis import tokenize
        from excelastic_ray.pipelines.textstats import trunc6

        empty = pa.table(
            {
                "rank": pa.array([], type=pa.int32()),
                "term": pa.array([], type=pa.string()),
                "fg_df": pa.array([], type=pa.int64()),
                "df": pa.array([], type=pa.int64()),
                "score": pa.array([], type=pa.float64()),
            }
        )
        hits = self.search(query, k=sample_size, filters=filters)
        if hits.num_rows == 0:
            return empty
        docids = hits["docid"].to_numpy()
        texts = self.reader.fetch_docs(
            docids, columns=["text"]
        )["text"].to_pylist()
        fg: dict[str, int] = {}
        for t in texts:
            for term in set(self._tok(t)):
                fg[term] = fg.get(term, 0) + 1
        cands = sorted(t for t, c in fg.items() if c >= min_doc_count)
        if not cands:
            return empty
        bg = self._global_dfs(cands).astype(np.float64)
        fg_df = np.asarray([fg[t] for t in cands], dtype=np.float64)
        n_fg = float(len(docids))
        n_bg = float(self.reader.n_docs)
        fg_pct = fg_df / n_fg
        bg_pct = bg / n_bg
        keep = fg_pct > bg_pct
        jlh = np.zeros(len(cands))
        jlh[keep] = (fg_pct[keep] - bg_pct[keep]) * (
            fg_pct[keep] / bg_pct[keep]
        )
        order = np.lexsort(
            (np.asarray(cands, dtype=object)[keep], -jlh[keep])
        )[:k]
        sel = np.flatnonzero(keep)[order]
        return pa.table(
            {
                "rank": pa.array(
                    np.arange(1, len(sel) + 1, dtype=np.int32)
                ),
                "term": pa.array(
                    [cands[i] for i in sel], type=pa.string()
                ),
                "fg_df": pa.array(fg_df[sel].astype(np.int64)),
                "df": pa.array(bg[sel].astype(np.int64)),
                "score": pa.array(trunc6(jlh[sel]), type=pa.float64()),
            }
        )

    def search_synonyms(self, query: str, synonyms: dict[str, list[str]],
                        k: int = 10, filters: dict | None = None):
        """ES query-time synonym expansion (analyzer ``synonym_graph``
        filter + Lucene ``SynonymQuery``): each query term expands to
        its synonym set and the group scores as ONE pseudo-term —
        per-doc tf = Σ member tfs, df = max member df (Lucene's
        SynonymQuery docFreq rule), one BM25 contribution per group.
        Synonym table values are run through the INDEX analyzer (same
        chain as the query terms — on an english index a member like
        "jogging" stems to the dictionary form), so multi-word synonyms
        contribute each of their tokens to the group. Duplicate groups
        (two query terms expanding to the same set) score once, like
        BooleanQuery term dedup."""
        r = self.reader
        groups: list[tuple[str, ...]] = []
        seen: set[tuple[str, ...]] = set()
        for t in self._qt(query):
            members = {t}
            for s in synonyms.get(t, []):
                members.update(self._tok(s))
            g = tuple(sorted(members))
            if g not in seen:
                seen.add(g)
                groups.append(g)
        groups.sort()
        docids = np.zeros(0, dtype=np.int64)
        scores = np.zeros(0, dtype=np.float64)
        if groups and r.n_docs:
            all_terms = sorted({t for g in groups for t in g})
            dfs = dict(zip(all_terms, self._global_dfs(all_terms)))
            live = [
                (g, max(int(dfs[t]) for t in g))
                for g in groups
                if max(int(dfs[t]) for t in g) > 0
            ]
            if live:
                lgroups = [g for g, _ in live]
                idfs = [idf(r.n_docs, d) for _, d in live]
                parts = self._scatter(
                    "topk_synonyms", lgroups, idfs, r.avgdl, k, filters,
                )
                docids, scores = _merge_shard_topk(parts, k)
        return self._result_table(docids, scores)

    def more_like_this(self, conv_id: str, turn_idx: int, k: int = 10,
                       max_query_terms: int = 25, min_term_freq: int = 1,
                       min_doc_freq: int = 1,
                       filters: dict | None = None):
        """ES more_like_this: find the docs most similar to one stored
        doc. The source doc's text is fetched (chunk-pruned point
        lookup), analyzed, and its ``max_query_terms`` most
        characteristic terms become a bool-of-terms OR query; the
        source doc itself is excluded from the results.

        Term selection: ES ranks candidate terms by tf·idf; we use the
        deterministic integer ordering (tf DESC, global df ASC, term
        ASC) — the same monotone tf·idf proxy keywords() uses — so the
        SQL twin selects identical terms with no float-cutoff
        ambiguity (documented deviation). ``min_term_freq`` /
        ``min_doc_freq`` are the ES gates of the same names."""
        import pyarrow as pa

        from excelastic_ray.analysis import tokenize

        r = self.reader
        src = r.docid_of(conv_id, turn_idx)
        text = r.fetch_docs([src], columns=["text"])["text"][0].as_py()
        tf: dict[str, int] = {}
        for t in self._tok(text):
            tf[t] = tf.get(t, 0) + 1
        cands = sorted(t for t, n in tf.items() if n >= min_term_freq)
        dfs = self._global_dfs(cands) if cands else np.zeros(0, np.int64)
        sel = [
            (t, tf[t], int(d))
            for t, d in zip(cands, dfs)
            if d >= max(min_doc_freq, 1)
        ]
        sel.sort(key=lambda x: (-x[1], x[2], x[0]))
        terms = [t for t, _, _ in sel[:max_query_terms]]
        if not terms:
            return self._result_table(
                np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
            )
        # depth k+1: the source doc may (usually does) rank first;
        # dropping it afterwards still leaves an exact top-k
        t = self.search(" ".join(terms), k + 1, filters=filters)
        keep = [
            i for i, d in enumerate(t["docid"].to_pylist()) if d != src
        ][:k]
        t = t.take(keep)
        return t.set_column(
            t.schema.get_field_index("rank"), "rank",
            pa.array(np.arange(1, len(keep) + 1, dtype=np.int32)),
        )

    def termvectors(self, conv_id: str, turn_idx: int):
        """ES ``_termvectors`` analog: one stored doc's term vector —
        (term, tf, df) sorted by term. ES without stored vectors
        re-analyzes the ``_source`` exactly like this (our analyzer IS
        the index analyzer, so tf matches the postings bit-for-bit);
        ``df`` comes from the live dictionary via the same cached
        global-df path the scorers use. Cost: one chunk-pruned doc
        fetch + one dictionary seek per distinct term — no postings
        scan."""
        import pyarrow as pa

        from excelastic_ray.analysis import tokenize

        r = self.reader
        src = r.docid_of(conv_id, turn_idx)
        text = r.fetch_docs([src], columns=["text"])["text"][0].as_py()
        tf: dict[str, int] = {}
        for t in self._tok(text):
            tf[t] = tf.get(t, 0) + 1
        terms = sorted(tf)
        dfs = (
            self._global_dfs(terms) if terms else np.zeros(0, np.int64)
        )
        return pa.table(
            {
                "term": pa.array(terms, type=pa.string()),
                "tf": pa.array([tf[t] for t in terms], type=pa.int64()),
                "df": pa.array(np.asarray(dfs, dtype=np.int64)),
            }
        )

    def mtermvectors(self, ids):
        """ES ``_mtermvectors``: the batched ``_termvectors``. Missing
        ids (unknown conv OR never-indexed turn) are skipped silently —
        the flat-table analog of ES's per-doc found:false entries
        (``mget`` is the point-existence API). The batch is WHY this
        API exists: one membership probe sweep, ONE chunk-pruned batch
        doc fetch, and one dictionary df pass over the UNION of the
        docs' distinct terms (df seeks dedupe across docs instead of
        repeating per doc). ``ids`` like ``search_ids``: (conv_id,
        turn_idx) pairs or "conv#turn" strings. → (conv_id, turn_idx,
        term, tf, df), docs in input order, terms sorted per doc."""
        import pyarrow as pa

        r = self.reader
        cand = []
        for item in ids:
            if isinstance(item, str):
                conv, _, turn = item.rpartition("#")
                item = (conv, int(turn))
            turn = int(item[1])
            # out-of-range turns must skip BEFORE docid arithmetic: a
            # turn >= max_turns would alias into another doc's id
            if not (0 <= turn < r.cfg.max_turns):
                continue
            try:
                cand.append(r.docid_of(item[0], turn))
            except KeyError:
                continue  # unknown conv_id: ES reports found=false
        empty = pa.table(
            {
                "conv_id": pa.array([], type=pa.string()),
                "turn_idx": pa.array([], type=pa.int32()),
                "term": pa.array([], type=pa.string()),
                "tf": pa.array([], type=pa.int64()),
                "df": pa.array([], type=pa.int64()),
            }
        )
        if not cand or not r.n_docs:
            return empty
        probe = np.unique(np.asarray(cand, dtype=np.int64))
        masks = self._scatter("contains_docids", probe)
        exists = np.zeros(len(probe), dtype=bool)
        for m in masks:
            exists |= m
        alive = set(probe[exists].tolist())
        docids = [d for d in dict.fromkeys(cand) if d in alive]
        if not docids:
            return empty
        texts = r.fetch_docs(docids, columns=["text"])["text"].to_pylist()
        per_doc = []
        union: set[str] = set()
        for text in texts:
            tf: dict[str, int] = {}
            for t in self._tok(text):
                tf[t] = tf.get(t, 0) + 1
            per_doc.append(tf)
            union.update(tf)
        uterms = sorted(union)
        df_of = dict(zip(uterms, (
            np.asarray(self._global_dfs(uterms), dtype=np.int64).tolist()
            if uterms else []
        )))
        conv_col, turn_col, term_col, tf_col, df_col = [], [], [], [], []
        convs, turns = r.keys_of(np.asarray(docids, dtype=np.int64))
        for c, t, tf in zip(convs, turns, per_doc):
            for term in sorted(tf):
                conv_col.append(str(c))
                turn_col.append(int(t))
                term_col.append(term)
                tf_col.append(tf[term])
                df_col.append(df_of[term])
        return pa.table(
            {
                "conv_id": pa.array(conv_col, type=pa.string()),
                "turn_idx": pa.array(turn_col, type=pa.int32()),
                "term": pa.array(term_col, type=pa.string()),
                "tf": pa.array(tf_col, type=pa.int64()),
                "df": pa.array(df_col, type=pa.int64()),
            }
        )

    def search_collapse(self, query: str, attr: str, k: int = 10,
                        filters: dict | None = None, mode: str = "or"):
        """ES field collapse: the top-``k`` hits with at most one hit —
        the best (score DESC, docid ASC) — per distinct value of doc
        attribute ``attr``; groups are ranked by their best hit.
        Exact across shards: each shard returns its k best groups
        (see ShardSearcher.collapse_topk for why that suffices), the
        driver merges per-group maxima. Output adds an ``attr`` column
        with the group value."""
        import pyarrow as pa

        if mode not in ("or", "and"):
            raise ValueError(f"unknown mode {mode!r}")
        r = self.reader
        terms = self._qt(query)
        bd = np.zeros(0, dtype=np.int64)
        bs = np.zeros(0, dtype=np.float64)
        bg: list[str] = []
        if terms and r.n_docs:
            dfs = self._global_dfs(terms)
            live = [(t, int(d)) for t, d in zip(terms, dfs) if d > 0]
            dead = len(live) < len(terms)
            if live and not (mode == "and" and dead):
                n_required = len(live) if mode == "and" else 0
                lterms = [t for t, _ in live]
                idfs = [idf(r.n_docs, d) for _, d in live]
                parts = self._scatter(
                    "collapse_topk", lterms, idfs, r.avgdl, attr, k, filters,
                    n_required,
                )
                bd, bs, bg = _merge_collapse(parts, k)
        conv, turn = r.keys_of(bd)
        return pa.table(
            {
                "rank": pa.array(np.arange(1, len(bd) + 1, dtype=np.int32)),
                "docid": pa.array(bd, type=pa.int64()),
                "conv_id": pa.array(conv, type=pa.string()),
                "turn_idx": pa.array(turn, type=pa.int32()),
                attr: pa.array(bg, type=pa.string()),
                "score": pa.array(bs, type=pa.float64()),
            }
        )

    def search_has_child(self, query: str, k: int = 10,
                         score_mode: str = "max", min_children: int = 1,
                         max_children: int | None = None,
                         mode: str = "or", filters: dict | None = None,
                         inner_hits: int | None = None):
        """ES ``has_child`` join query: rank parent CONVERSATIONS by
        their child turns matching ``query`` — ``score_mode``
        max / sum / avg / min aggregates the matching children's BM25
        scores (``none`` → constant 1.0, parents in conv order), and
        ``min_children`` / ``max_children`` bound the count of MATCHING
        children (ES semantics). → (rank, conv_id, n_children, score).

        ``inner_hits=N`` (ES ``inner_hits: {size: N}``) additionally
        returns the top-N matching children per ranked parent — the
        flat analog of ES's nested inner_hits block: one row per
        (parent, child) with ``child_turn_idx`` / ``child_score`` /
        ``child_rank`` (1-based, score DESC then turn ASC) beside the
        parent columns. Only the k ranked parents' conversations are
        re-probed (a second shard pass over the same decoded postings
        — LRU-warm), never the full child match set.

        The document model is the transcript hierarchy itself: the
        conversation is the parent, its turns are the children (the ES
        ``join`` field relation). Distribution shape: one TAAT pass per
        shard + per-conv reduceat (conversations never span shards, so
        no cross-shard combine), driver merges pool-size × k parent
        rows."""
        import pyarrow as pa

        if mode not in ("or", "and"):
            raise ValueError(f"unknown mode {mode!r}")
        if inner_hits is not None and inner_hits < 1:
            raise ValueError("inner_hits must be >= 1")
        r = self.reader
        terms = self._qt(query)
        keys = np.zeros(0, dtype=np.int64)
        scores = np.zeros(0, dtype=np.float64)
        counts = np.zeros(0, dtype=np.int64)
        lterms: list[str] = []
        idfs: list[float] = []
        n_required = 0
        if terms and r.n_docs:
            dfs = self._global_dfs(terms)
            live = [(t, int(d)) for t, d in zip(terms, dfs) if d > 0]
            dead = len(live) < len(terms)
            if live and not (mode == "and" and dead):
                n_required = len(live) if mode == "and" else 0
                lterms = [t for t, _ in live]
                idfs = [idf(r.n_docs, d) for _, d in live]
                parts = self._scatter(
                    "has_child_topk", lterms, idfs, r.avgdl, k, score_mode,
                    min_children, max_children, filters, n_required,
                )
                keys, scores, counts = _merge_has_child(parts, k)
        parent = pa.table(
            {
                "rank": pa.array(
                    np.arange(1, len(keys) + 1, dtype=np.int32)
                ),
                "conv_id": pa.array(r.conv_ids[keys], type=pa.string()),
                "n_children": pa.array(counts, type=pa.int64()),
                "score": pa.array(scores, type=pa.float64()),
            }
        )
        if inner_hits is None:
            return parent
        if not len(keys):
            return parent.append_column(
                "child_turn_idx", pa.array([], type=pa.int32())
            ).append_column(
                "child_score", pa.array([], type=pa.float64())
            ).append_column(
                "child_rank", pa.array([], type=pa.int32())
            )
        hparts = self._scatter(
            "child_hits_for_convs", lterms, idfs, r.avgdl, keys, inner_hits,
            filters, n_required,
        )
        hconvs = np.concatenate([p[0] for p in hparts])
        hdocs = np.concatenate([p[1] for p in hparts])
        hscores = np.concatenate([p[2] for p in hparts])
        # map each hit's conversation to its parent rank (keys is the
        # rank order; sort once, invert)
        key_order = np.argsort(keys, kind="stable")
        pos = np.searchsorted(keys[key_order], hconvs)
        prank = key_order[pos]  # 0-based parent rank index
        # rows ordered (parent rank, child score DESC, docid ASC)
        order = np.lexsort((hdocs, -hscores, prank))
        prank, hdocs, hscores = prank[order], hdocs[order], hscores[order]
        bounds = np.flatnonzero(np.r_[True, prank[1:] != prank[:-1]])
        crank = (np.arange(len(prank))
                 - np.repeat(bounds, np.diff(np.r_[bounds, len(prank)]))
                 + 1)
        turn = (hdocs & (r.cfg.max_turns - 1)).astype(np.int32)
        return pa.table(
            {
                "rank": pa.array((prank + 1).astype(np.int32)),
                "conv_id": pa.array(r.conv_ids[keys[prank]],
                                    type=pa.string()),
                "n_children": pa.array(counts[prank], type=pa.int64()),
                "score": pa.array(scores[prank], type=pa.float64()),
                "child_turn_idx": pa.array(turn, type=pa.int32()),
                "child_score": pa.array(hscores, type=pa.float64()),
                "child_rank": pa.array(crank.astype(np.int32)),
            }
        )

    def search_has_parent(self, query: str, k: int = 10,
                          score: bool = True, mode: str = "or",
                          filters: dict | None = None):
        """ES ``has_parent`` join query: return CHILD turns whose parent
        conversation matches the parent ``query``, each child inheriting
        its parent's score (``score=True``; ``score=False`` = ES score
        mode ``none`` — constant 1.0, children in docid order).

        Parent-doc convention: the conversation opener (turn_idx == 0)
        carries the conversation's own searchable text — the parent
        query matches against openers only; turns 1+ are the children.
        Parent BM25 stats are the global index stats (ES
        shared-field-name semantics; see ShardSearcher.has_parent_topk).

        Exactness under pagination: children rank by (parent score DESC,
        docid ASC), so the global top-``k`` children are children of a
        PREFIX of the (score DESC, conv ASC)-ranked parents. The driver
        fetches parent candidates at depth d (= k, doubling while the
        prefix's children run short and a shard still had more parents),
        then pulls only those conversations' children — never the full
        match set."""
        if mode not in ("or", "and"):
            raise ValueError(f"unknown mode {mode!r}")
        r = self.reader
        terms = self._qt(query)
        empty_ids = np.zeros(0, dtype=np.int64)
        empty_sc = np.zeros(0, dtype=np.float64)
        if not terms or not r.n_docs:
            return self._result_table(empty_ids, empty_sc)
        dfs = self._global_dfs(terms)
        live = [(t, int(d)) for t, d in zip(terms, dfs) if d > 0]
        dead = len(live) < len(terms)
        if not live or (mode == "and" and dead):
            return self._result_table(empty_ids, empty_sc)
        n_required = len(live) if mode == "and" else 0
        lterms = [t for t, _ in live]
        idfs = [idf(r.n_docs, d) for _, d in live]

        def _parents(depth):
            parts = self._scatter(
                "has_parent_topk", lterms, idfs, r.avgdl, depth, filters,
                n_required, score,
            )
            merged = _merge_shard_topk(parts, depth)
            exhausted = all(len(p[0]) < depth for p in parts)
            return merged, exhausted

        def _children(keys):
            kids = self._scatter("children_of", keys)
            return np.concatenate(kids) if kids else empty_ids

        depth = k
        while True:
            (pkeys, pscores), exhausted = _parents(depth)
            kids = _children(pkeys)
            if not len(kids):
                if exhausted:
                    return self._result_table(empty_ids, empty_sc)
                depth *= 2
                continue
            kid_conv = kids >> r.cfg.turn_bits
            # walk parents in ranked order, children docid-ASC within
            out_d, out_s, n = [], [], 0
            for key, ps in zip(pkeys, pscores):
                mine = np.sort(kids[kid_conv == key])
                if not len(mine):
                    continue
                out_d.append(mine)
                out_s.append(np.full(len(mine), ps, dtype=np.float64))
                n += len(mine)
                if n >= k:
                    break
            if n >= k or exhausted:
                docids = (
                    np.concatenate(out_d)[:k] if out_d else empty_ids
                )
                scores_ = (
                    np.concatenate(out_s)[:k] if out_s else empty_sc
                )
                return self._result_table(docids, scores_)
            depth *= 2

    def search_dismax(self, queries: list[str], k: int = 10,
                      tie_breaker: float = 0.0,
                      filters: dict | None = None):
        """ES ``dis_max``: each entry of ``queries`` is an independent
        match subquery; a doc scores its BEST subquery plus
        ``tie_breaker`` × the sum of its other matching subqueries —
        Lucene's DisjunctionMaxQuery. A doc matches if any subquery
        matches. Exact top-k across shards (one accumulator per
        subquery per shard, single decode pass per term)."""
        r = self.reader
        docids = np.zeros(0, dtype=np.int64)
        scores = np.zeros(0, dtype=np.float64)
        groups: list[list[tuple[str, float]]] = []
        if r.n_docs:
            all_terms = sorted(
                {t for q in queries for t in self._qt(q)}
            )
            dfs = dict(zip(all_terms, self._global_dfs(all_terms)))
            for q in queries:
                grp = [
                    (t, idf(r.n_docs, int(dfs[t])))
                    for t in self._qt(q)
                    if int(dfs[t]) > 0
                ]
                if grp:
                    groups.append(grp)
        if groups:
            parts = self._scatter(
                "dismax_topk", groups, r.avgdl, k, tie_breaker, filters,
            )
            docids, scores = _merge_shard_topk(parts, k)
        return self._result_table(docids, scores)

    def search_rank_feature(self, query: str, k: int = 10,
                            function: str = "saturation",
                            pivot: float | None = None,
                            boost: float = 1.0, scale: float = 1.0,
                            exponent: float = 1.0, mode: str = "or",
                            filters: dict | None = None):
        """ES ``bool`` of a match query (``must``) plus a
        ``rank_feature`` clause (``should``) over the indexed BM25 doc
        length as the rank feature: docs matching ``query`` score
        BM25 + boost × f(dl) with f = ``saturation`` dl/(dl+pivot),
        ``log`` ln(scale·dl + 1) or ``sigmoid``
        dl^e/(dl^e + pivot^e) — the three ES rank_feature functions.
        The feature is served from the resident doc-length column."""
        if function in ("saturation", "sigmoid") and pivot is None:
            raise ValueError(f"{function} needs an explicit pivot")
        if function not in ("saturation", "log", "sigmoid"):
            raise ValueError(f"unknown rank_feature function {function!r}")
        feature = {"function": function,
                   "pivot": None if pivot is None else float(pivot),
                   "scale": float(scale), "exponent": float(exponent)}
        return self._fscore_search(
            query, mode, [{"weight": float(boost), "dl_feature": feature}],
            "sum", k, filters,
        )

    def search_terms_set(self, query: str, k: int = 10,
                         filters: dict | None = None):
        """ES ``terms_set``: a doc matches when it contains at least
        its OWN per-doc threshold of the query's distinct analyzed
        terms — ``minimum_should_match_field`` served from the turn
        index (max(turn_idx, 1); the per-doc numeric value every ES
        terms_set mapping stores, here free via docid arithmetic).
        Matching docs score as the bool-should sum of their matched
        terms' BM25 contributions. → the standard result table."""
        r = self.reader
        terms = self._qt(query)
        docids = np.zeros(0, dtype=np.int64)
        scores = np.zeros(0, dtype=np.float64)
        if terms and r.n_docs:
            dfs = self._global_dfs(terms)
            live = [(t, int(d)) for t, d in zip(terms, dfs) if d > 0]
            if live:
                lterms = [t for t, _ in live]
                idfs = [idf(r.n_docs, d) for _, d in live]
                parts = self._scatter(
                    "terms_set_topk", lterms, idfs, r.avgdl, k, filters,
                )
                docids, scores = _merge_shard_topk(parts, k)
        return self._result_table(docids, scores)

    def search_script_score(self, query: str, script: str, k: int = 10,
                            params: dict | None = None, mode: str = "or",
                            filters: dict | None = None):
        """ES ``script_score``: docs matching ``query`` are re-scored by
        ``script``, a safe arithmetic expression over ``_score`` (the
        BM25 sum), ``dl`` (indexed doc length), ``turn_idx`` and
        ``params`` names — see query/script.py for the grammar
        (validated at compile time here on the driver, so a bad script
        fails fast, never on a shard). The script REPLACES the score,
        exactly ES. → the standard result table."""
        if mode not in ("or", "and"):
            raise ValueError(f"unknown mode {mode!r}")
        compile_score_script(script)  # fail fast on the driver
        if params:
            bad = [
                n for n, v in params.items()
                if not isinstance(v, (int, float))
                or n in ("_score", "dl", "turn_idx")
            ]
            if bad:
                raise ValueError(
                    f"script_score params must be numeric and not shadow "
                    f"doc values: {bad}"
                )
        r = self.reader
        terms = self._qt(query)
        docids = np.zeros(0, dtype=np.int64)
        scores = np.zeros(0, dtype=np.float64)
        if terms and r.n_docs:
            dfs = self._global_dfs(terms)
            live = [(t, int(d)) for t, d in zip(terms, dfs) if d > 0]
            dead = len(live) < len(terms)
            if live and not (mode == "and" and dead):
                n_required = len(live) if mode == "and" else 0
                lterms = [t for t, _ in live]
                idfs = [idf(r.n_docs, d) for _, d in live]
                parts = self._scatter(
                    "script_score_topk", lterms, idfs, r.avgdl, k, script,
                    params, filters, n_required,
                )
                docids, scores = _merge_shard_topk(parts, k)
        return self._result_table(docids, scores)

    def search_script_query(self, query: str, script: str, k: int = 10,
                            params: dict | None = None,
                            mode: str = "or",
                            filters: dict | None = None):
        """ES ``script`` query composed as a bool filter: docs matching
        ``query`` AND satisfying the boolean ``script`` (comparisons +
        and/or/not over ``dl`` / ``turn_idx`` / params — see
        ``compile_filter_script``), ranked by the UNTOUCHED BM25 score
        (filter context never affects scoring, ES semantics). The
        script compiles on the driver, so malformed or non-boolean
        expressions fail fast. → the standard result table."""
        if mode not in ("or", "and"):
            raise ValueError(f"unknown mode {mode!r}")
        fn = compile_filter_script(script)  # fail fast on the driver
        if params:
            bad = [
                n for n, v in params.items()
                if not isinstance(v, (int, float))
                or n in ("dl", "turn_idx")
            ]
            if bad:
                raise ValueError(
                    f"script query params must be numeric and not "
                    f"shadow doc values: {bad}"
                )
        unknown = fn.names - {"dl", "turn_idx"} - set(params or {})
        if unknown:
            raise ValueError(
                f"script query references unknown names "
                f"{sorted(unknown)} (doc values: dl, turn_idx)"
            )
        r = self.reader
        terms = self._qt(query)
        docids = np.zeros(0, dtype=np.int64)
        scores = np.zeros(0, dtype=np.float64)
        if terms and r.n_docs:
            dfs = self._global_dfs(terms)
            live = [(t, int(d)) for t, d in zip(terms, dfs) if d > 0]
            dead = len(live) < len(terms)
            if live and not (mode == "and" and dead):
                n_required = len(live) if mode == "and" else 0
                lterms = [t for t, _ in live]
                idfs = [idf(r.n_docs, d) for _, d in live]
                parts = self._scatter(
                    "script_filter_topk", lterms, idfs, r.avgdl, k, script,
                    params, filters, n_required,
                )
                docids, scores = _merge_shard_topk(parts, k)
        return self._result_table(docids, scores)

    def search_script_fields(self, query: str, fields: dict[str, str],
                             k: int = 10, params: dict | None = None,
                             mode: str = "or",
                             filters: dict | None = None):
        """ES ``script_fields``: the standard BM25 ranking (scores
        untouched), plus one computed column per named script — each a
        safe arithmetic expression over ``_score`` / ``dl`` /
        ``turn_idx`` / ``params`` (query/script.py grammar, validated
        here on the driver). Scripts run only over RETURNED hits (the
        ES fetch-phase contract), evaluated numpy-vectorized on the
        owning shard where the doc values are resident. → the standard
        result table + one float64 column per field, in ``fields``
        order."""
        import pyarrow as pa

        if mode not in ("or", "and"):
            raise ValueError(f"unknown mode {mode!r}")
        if not fields:
            raise ValueError("script_fields needs at least one field")
        reserved = {"rank", "docid", "conv_id", "turn_idx", "score"}
        bad_names = [n for n in fields if n in reserved]
        if bad_names:
            raise ValueError(
                f"script_fields names collide with result columns: "
                f"{bad_names}"
            )
        doc_values = {"_score", "dl", "turn_idx"}
        for name, src in fields.items():
            fn = compile_score_script(src)  # fail fast on the driver
            unknown = fn.names - doc_values - set(params or {})
            if unknown:
                raise ValueError(
                    f"script_fields[{name!r}] references unknown names "
                    f"{sorted(unknown)} (doc values: {sorted(doc_values)})"
                )
        if params:
            bad = [
                n for n, v in params.items()
                if not isinstance(v, (int, float))
                or n in ("_score", "dl", "turn_idx")
            ]
            if bad:
                raise ValueError(
                    f"script_fields params must be numeric and not "
                    f"shadow doc values: {bad}"
                )
        r = self.reader
        terms = self._qt(query)
        docids = np.zeros(0, dtype=np.int64)
        scores = np.zeros(0, dtype=np.float64)
        cols: dict = {}
        if terms and r.n_docs:
            dfs = self._global_dfs(terms)
            live = [(t, int(d)) for t, d in zip(terms, dfs) if d > 0]
            dead = len(live) < len(terms)
            if live and not (mode == "and" and dead):
                n_required = len(live) if mode == "and" else 0
                lterms = [t for t, _ in live]
                idfs = [idf(r.n_docs, d) for _, d in live]
                parts = self._scatter(
                    "script_fields_topk", lterms, idfs, r.avgdl, k, fields,
                    params, filters, n_required,
                )
                docids, scores, cols = _merge_script_fields(parts, k)
        out = self._result_table(docids, scores)
        for name in fields:
            vals = cols.get(name, np.zeros(len(docids), dtype=np.float64))
            out = out.append_column(
                name, pa.array(vals, type=pa.float64())
            )
        return out

    def search_sampler(self, query: str, attr: str = "role",
                       shard_size: int = 50,
                       max_per_conv: int | None = None,
                       mode: str = "or", filters: dict | None = None):
        """ES ``sampler`` (``max_per_conv=None``) or
        ``diversified_sampler`` (dedup field = the conversation, at
        most ``max_per_conv`` docs per conversation in each shard's
        sample) with a ``terms`` sub-aggregation over doc attribute
        ``attr``: each shard walks its matches in (score DESC, docid
        ASC) order, keeps its first ``shard_size`` (post-dedup), and
        the sub-agg counts are summed across shards — exactly the ES
        execution shape, made deterministic by the total walk order.
        → (attr value, doc_count), doc_count DESC then value ASC."""
        import pyarrow as pa

        if mode not in ("or", "and"):
            raise ValueError(f"unknown mode {mode!r}")
        r = self.reader
        terms = self._qt(query)
        counts: dict = {}
        if terms and r.n_docs:
            dfs = self._global_dfs(terms)
            live = [(t, int(d)) for t, d in zip(terms, dfs) if d > 0]
            dead = len(live) < len(terms)
            if live and not (mode == "and" and dead):
                n_required = len(live) if mode == "and" else 0
                lterms = [t for t, _ in live]
                idfs = [idf(r.n_docs, d) for _, d in live]
                parts = self._scatter(
                    "sampler_agg", lterms, idfs, r.avgdl, shard_size, attr,
                    max_per_conv, filters, n_required,
                )
                for p in parts:
                    for v, c in p.items():
                        counts[v] = counts.get(v, 0) + c
        rows = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return pa.table(
            {
                attr: pa.array([v for v, _ in rows], type=pa.string()),
                "doc_count": pa.array([c for _, c in rows],
                                      type=pa.int64()),
            }
        )

    def search_boosting(self, positive: str, negative: str,
                        negative_boost: float = 0.5, k: int = 10,
                        filters: dict | None = None, mode: str = "or"):
        """ES ``boosting`` query: rank by the positive query's BM25,
        with docs matching the negative query multiplied by
        ``negative_boost`` (demoted in place, never excluded — the
        soft counterpart of bool must_not). Output matches search()."""
        neg = self._match_child(negative, "or")
        funcs = ([] if neg is None
                 else [{"weight": float(negative_boost), "filter": neg}])
        return self._fscore_search(positive, mode, funcs, "multiply", k,
                                   filters)

    def search_rescore(self, query: str, rescore_query: str,
                       k: int = 10, window_size: int = 100,
                       query_weight: float = 1.0,
                       rescore_weight: float = 1.0, slop: int = 0,
                       filters: dict | None = None, mode: str = "or"):
        """ES ``rescore``: a cheap BM25 match ranks everything, then
        each shard's top ``window_size`` hits are re-ranked by
        ``query_weight * bm25 + rescore_weight * phrase_score`` where
        the rescore query is a (sloppy) match_phrase — the classic
        proximity-rescore pattern. Per-shard windows are ES's own
        semantics (its rescorer runs on each shard before the merge);
        with ``window_size`` ≥ every shard's match count the result is
        the exact global combined ranking. Output matches search()."""
        if mode not in ("or", "and"):
            raise ValueError(f"unknown mode {mode!r}")
        r = self.reader
        terms = self._qt(query)
        p_terms = self._tok_ordered(rescore_query)
        bd = np.zeros(0, dtype=np.int64)
        bs = np.zeros(0, dtype=np.float64)
        if terms and r.n_docs:
            dfs = self._global_dfs(terms)
            live = [(t, int(d)) for t, d in zip(terms, dfs) if d > 0]
            dead = len(live) < len(terms)
            if live and not (mode == "and" and dead):
                n_required = len(live) if mode == "and" else 0
                lterms = [t for t, _ in live]
                idfs = [idf(r.n_docs, d) for _, d in live]
                df_p = sum(self._scatter("phrase_count", p_terms, slop, None))
                p_idf = idf(r.n_docs, df_p) if df_p else 0.0
                parts = self._scatter(
                    "rescore_topk", lterms, idfs, r.avgdl, k, window_size,
                    p_terms, p_idf, slop, query_weight, rescore_weight,
                    filters, n_required,
                )
                bd, bs = _merge_shard_topk(parts, k)
        return self._result_table(bd, bs)

    def search_collapse_inner(self, query: str, attr: str, k: int = 10,
                              inner_hits: int = 3,
                              filters: dict | None = None,
                              mode: str = "or"):
        """ES field collapse WITH ``inner_hits``: the top-``k`` groups
        ranked by their best hit (exactly :meth:`search_collapse`),
        each carrying its global top-``inner_hits`` hits. Two phases
        like ES's own execution (ES fires an extra query per collapsed
        group; here ONE batched per-group top-N pass serves all k —
        the ``top_hits_topk`` exact-merge machinery — then filters to
        the winning groups; for very-high-cardinality collapse fields
        a value-masked probe would prune further, noted as the scale
        refinement). → one row per (group, inner hit): (rank = group
        rank, ``attr``, group_score, inner_rank, docid, conv_id,
        turn_idx, score), group-major order."""
        import pyarrow as pa

        groups = self.search_collapse(query, attr, k, filters=filters,
                                      mode=mode)
        out_empty = pa.table(
            {
                "rank": pa.array([], type=pa.int32()),
                attr: pa.array([], type=pa.string()),
                "group_score": pa.array([], type=pa.float64()),
                "inner_rank": pa.array([], type=pa.int32()),
                "docid": pa.array([], type=pa.int64()),
                "conv_id": pa.array([], type=pa.string()),
                "turn_idx": pa.array([], type=pa.int32()),
                "score": pa.array([], type=pa.float64()),
            }
        )
        if not groups.num_rows:
            return out_empty
        hits = self.search_top_hits(query, attr, inner_hits,
                                    filters=filters, mode=mode)
        gvals = groups[attr].to_pylist()
        grank = {v: i + 1 for i, v in enumerate(gvals)}
        gscore = dict(zip(gvals, groups["score"].to_pylist()))
        hvals = hits[attr].to_pylist()
        keep = [i for i, v in enumerate(hvals) if v in grank]
        keep.sort(key=lambda i: (grank[hvals[i]],
                                 hits["rank"][i].as_py()))
        ht = hits.take(pa.array(keep, type=pa.int64()))
        hv = ht[attr].to_pylist()
        return pa.table(
            {
                "rank": pa.array([grank[v] for v in hv],
                                 type=pa.int32()),
                attr: pa.array(hv, type=pa.string()),
                "group_score": pa.array([gscore[v] for v in hv],
                                        type=pa.float64()),
                "inner_rank": ht["rank"],
                "docid": ht["docid"],
                "conv_id": ht["conv_id"],
                "turn_idx": ht["turn_idx"],
                "score": ht["score"],
            }
        )

    def search_top_hits(self, query: str, attr: str, per_k: int = 3,
                        filters: dict | None = None, mode: str = "or"):
        """ES terms aggregation with a ``top_hits`` sub-aggregation:
        for EVERY distinct value of doc attribute ``attr`` among the
        matching docs, the per-bucket top-``per_k`` hits (score DESC,
        docid ASC). Unlike field collapse (one best hit per group,
        globally top-k groups), this returns all buckets, each with up
        to ``per_k`` ranked hits — the "show me the best examples per
        category" ES shape. Exact across shards: every doc lives in
        exactly one shard, so the global per-bucket top-``per_k`` is a
        re-selection over the shards' per-bucket candidates.
        Output: (attr, rank, docid, conv_id, turn_idx, score) ordered
        by (attr ASC, rank ASC)."""
        import pyarrow as pa

        if mode not in ("or", "and"):
            raise ValueError(f"unknown mode {mode!r}")
        r = self.reader
        terms = self._qt(query)
        bd = np.zeros(0, dtype=np.int64)
        bs = np.zeros(0, dtype=np.float64)
        bg: list[str] = []
        if terms and r.n_docs:
            dfs = self._global_dfs(terms)
            live = [(t, int(d)) for t, d in zip(terms, dfs) if d > 0]
            dead = len(live) < len(terms)
            if live and not (mode == "and" and dead):
                n_required = len(live) if mode == "and" else 0
                lterms = [t for t, _ in live]
                idfs = [idf(r.n_docs, d) for _, d in live]
                parts = self._scatter(
                    "top_hits_topk", lterms, idfs, r.avgdl, attr, per_k,
                    filters, n_required,
                )
                cd = np.concatenate([p[0] for p in parts])
                cs = np.concatenate([p[1] for p in parts])
                cg = [g for p in parts for g in p[2]]
                if len(cd):
                    bd, bs, bg = _per_group_topk(cd, cs, cg, per_k)
        conv, turn = r.keys_of(bd)
        garr = np.asarray(bg, dtype=object)
        # rank restarts at 1 inside each bucket (group-major order is
        # what _per_group_topk returns)
        starts = np.r_[0, np.flatnonzero(garr[1:] != garr[:-1]) + 1] if len(
            garr
        ) else np.zeros(0, np.int64)
        sizes = np.diff(np.r_[starts, len(garr)])
        rank = (
            np.arange(len(garr)) - np.repeat(starts, sizes) + 1
            if len(garr) else np.zeros(0, np.int64)
        )
        return pa.table(
            {
                attr: pa.array(bg, type=pa.string()),
                "rank": pa.array(rank.astype(np.int32), type=pa.int32()),
                "docid": pa.array(bd, type=pa.int64()),
                "conv_id": pa.array(conv, type=pa.string()),
                "turn_idx": pa.array(turn, type=pa.int32()),
                "score": pa.array(bs, type=pa.float64()),
            }
        )

    def search_span_first(self, query: str, end: int, k: int = 10,
                          filters: dict | None = None):
        """ES ``span_first`` query: a single-term span whose end
        position is <= ``end`` (the match must start inside the first
        ``end`` token positions). Scored exactly like the plain term
        query — the span boundary restricts MATCHES, never statistics
        (df/idf stay the term's corpus-wide values, ES semantics). →
        the standard (rank, docid, conv_id, turn_idx, score) table,
        tie-break (score DESC, docid ASC)."""
        r = self.reader
        terms = self._qt(query)
        if len(terms) != 1:
            raise ValueError("span_first takes exactly one analyzed term")
        t = terms[0]
        docids = np.zeros(0, dtype=np.int64)
        scores = np.zeros(0, dtype=np.float64)
        if r.n_docs:
            df = int(self._global_dfs([t])[0])
            if df > 0:
                t_idf = idf(r.n_docs, df)
                parts = self._scatter(
                    "span_first_topk", t, end, t_idf, r.avgdl, k, filters,
                )
                docids, scores = _merge_shard_topk(parts, k)
        return self._result_table(docids, scores)

    def search_span_near(self, query: str, slop: int = 1, k: int = 10,
                         filters: dict | None = None):
        """ES ``span_near`` (two span_term clauses, in_order=false):
        docs where the two analyzed terms occur within ``slop`` of each
        other in either order, scored as the bool-must term sum (the
        positional constraint filters matches only; see
        ShardSearcher.span_near_topk). → the standard result table,
        ties (score DESC, docid ASC)."""
        r = self.reader
        terms = self._qt(query)
        if len(terms) != 2:
            raise ValueError(
                "span_near takes exactly two distinct analyzed terms"
            )
        ta, tb = terms
        docids = np.zeros(0, dtype=np.int64)
        scores = np.zeros(0, dtype=np.float64)
        if r.n_docs:
            dfs = self._global_dfs([ta, tb])
            if int(dfs[0]) > 0 and int(dfs[1]) > 0:
                idfa = idf(r.n_docs, int(dfs[0]))
                idfb = idf(r.n_docs, int(dfs[1]))
                parts = self._scatter(
                    "span_near_topk", ta, tb, slop, idfa, idfb, r.avgdl, k,
                    filters,
                )
                docids, scores = _merge_shard_topk(parts, k)
        return self._result_table(docids, scores)

    def search_span_not(self, include: str, exclude: str, dist: int = 0,
                        k: int = 10, filters: dict | None = None):
        """ES ``span_not``: docs where some occurrence of ``include``
        has no ``exclude`` within ``dist`` positions (pre = post);
        scored exactly like the plain ``include`` term query (the
        exclusion filters matches, never stats)."""
        r = self.reader
        ta = self._qt(include)
        tb = self._qt(exclude)
        if len(ta) != 1 or len(tb) != 1:
            raise ValueError("span_not takes one include and one "
                             "exclude term")
        docids = np.zeros(0, dtype=np.int64)
        scores = np.zeros(0, dtype=np.float64)
        if r.n_docs:
            df = int(self._global_dfs([ta[0]])[0])
            if df > 0:
                t_idf = idf(r.n_docs, df)
                parts = self._scatter(
                    "span_not_topk", ta[0], tb[0], dist, t_idf, r.avgdl, k,
                    filters,
                )
                docids, scores = _merge_shard_topk(parts, k)
        return self._result_table(docids, scores)

    def search_span_or_near(self, variants: str, anchor: str,
                            slop: int = 1, k: int = 10,
                            filters: dict | None = None):
        """ES ``span_near`` with a ``span_or`` clause:
        span_near(span_or(variant span_terms…), span_term anchor,
        slop, in_order=false). Matches docs where ANY variant occurs
        within ``slop`` of the anchor; scores as anchor BM25 + each
        positionally-matched variant's BM25 (see
        ShardSearcher.span_or_near_topk for the documented scoring
        convention). → the standard result table."""
        vts = self._qt(variants)
        ats = self._qt(anchor)
        if len(ats) != 1 or not vts:
            raise ValueError("span_or_near takes >=1 variant terms and "
                             "exactly one anchor term")
        if ats[0] in vts:
            raise ValueError("anchor must be distinct from the variants")
        return self._span_or_near_exec(vts, ats[0], slop, k, filters)

    def search_span_multi_near(self, pattern: str, anchor: str,
                               slop: int = 1, k: int = 10,
                               kind: str = "prefix",
                               max_expansions: int = 50,
                               filters: dict | None = None):
        """ES ``span_multi``: a multi-term query (prefix / wildcard /
        regexp) wrapped as a span clause, here inside
        span_near(span_or(expansion span_terms…), span_term anchor,
        slop, in_order=false) — the top_terms_N rewrite ES applies to
        span_multi under the hood, with the repo's expansion
        convention (lexicographically-first ``max_expansions`` against
        the global dictionary). The anchor token is excluded from the
        expansion set (a span can't pair with itself). → the standard
        result table."""
        ats = self._qt(anchor)
        if len(ats) != 1:
            raise ValueError(
                "span_multi takes exactly one anchor analyzer token"
            )
        if kind == "prefix":
            norm = "".join(TOKEN_RE.findall(pattern.lower()))
            vts = self.expand_prefix(norm, max_expansions)
        elif kind == "wildcard":
            norm = "".join(_WILDCARD_TOKEN_RE.findall(pattern.lower()))
            vts = self.expand_wildcard(norm, max_expansions)
        elif kind == "regexp":
            vts = self.expand_regexp(pattern, max_expansions)
        else:
            raise ValueError(
                "span_multi kind must be 'prefix', 'wildcard' or "
                "'regexp'"
            )
        vts = [t for t in vts if t != ats[0]]
        if not vts:
            return self._result_table(
                np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
            )
        return self._span_or_near_exec(vts, ats[0], slop, k, filters)

    def _span_or_near_exec(self, vts: list[str], anchor_tok: str,
                           slop: int, k: int,
                           filters: dict | None):
        r = self.reader
        ats = [anchor_tok]
        docids = np.zeros(0, dtype=np.int64)
        scores = np.zeros(0, dtype=np.float64)
        if r.n_docs:
            dfs = self._global_dfs(vts + ats)
            if int(dfs[-1]) > 0:
                v_idfs = [
                    idf(r.n_docs, int(d)) if int(d) > 0 else 0.0
                    for d in dfs[:-1]
                ]
                a_idf = idf(r.n_docs, int(dfs[-1]))
                parts = self._scatter(
                    "span_or_near_topk", vts, ats[0], slop, v_idfs, a_idf,
                    r.avgdl, k, filters,
                )
                docids, scores = _merge_shard_topk(parts, k)
        return self._result_table(docids, scores)

    def search_span_contain(self, big: str, little: str, slop: int = 1,
                            k: int = 10, mode: str = "containing",
                            filters: dict | None = None):
        """ES ``span_containing`` (mode="containing") / ``span_within``
        (mode="within"): big = span_near of the two analyzed ``big``
        terms (unordered, ``slop``), little = the single ``little``
        span_term. A doc matches when some big window contains a
        little occurrence; ``containing`` scores the big terms'
        BM25 sum, ``within`` scores the little term (ES scores the
        RETURNED span's terms; the containment test filters matches,
        never stats). → the standard result table."""
        if mode not in ("containing", "within"):
            raise ValueError("mode must be 'containing' or 'within'")
        r = self.reader
        bts = self._qt(big)
        lts = self._qt(little)
        if len(bts) != 2 or len(lts) != 1:
            raise ValueError("span_contain takes two big terms and one "
                             "little term")
        if lts[0] in bts:
            raise ValueError("little term must be distinct from the "
                             "big terms")
        docids = np.zeros(0, dtype=np.int64)
        scores = np.zeros(0, dtype=np.float64)
        if r.n_docs:
            dfs = self._global_dfs(bts + lts)
            if all(int(d) > 0 for d in dfs):
                idfa = idf(r.n_docs, int(dfs[0]))
                idfb = idf(r.n_docs, int(dfs[1]))
                idfc = idf(r.n_docs, int(dfs[2]))
                parts = self._scatter(
                    "span_contain_topk", bts[0], bts[1], slop, lts[0], idfa,
                    idfb, idfc, r.avgdl, k, mode, filters,
                )
                docids, scores = _merge_shard_topk(parts, k)
        return self._result_table(docids, scores)

    def search_ids(self, ids, k: int = 10):
        """ES ``ids`` query: fetch-by-id as a query — every existing
        probe id matches with constant score 1.0 (ES's ids query is
        not ranked); unknown conv_ids and never-indexed turns are
        silently skipped, ES semantics. ``ids`` is a list of
        ``(conv_id, turn_idx)`` pairs or ``"conv_id#turn_idx"``
        strings (the engine's _id convention). Existence is one
        binary-search membership probe per shard — never a doc fetch.
        → the standard result table, ordered docid ASC (the ES _doc
        tie-break for uniform scores)."""
        r = self.reader
        cand = []
        for item in ids:
            if isinstance(item, str):
                conv, _, turn = item.rpartition("#")
                item = (conv, int(turn))
            turn = int(item[1])
            # out-of-range turns skip BEFORE docid arithmetic: a turn
            # >= max_turns would alias into another doc's id and the
            # existence probe would then "find" the wrong doc
            if not (0 <= turn < r.cfg.max_turns):
                continue
            try:
                cand.append(r.docid_of(item[0], turn))
            except KeyError:
                continue  # unknown conv_id: ES skips silently
        docids = np.zeros(0, dtype=np.int64)
        scores = np.zeros(0, dtype=np.float64)
        if cand and r.n_docs:
            probe = np.unique(np.asarray(cand, dtype=np.int64))
            masks = self._scatter("contains_docids", probe)
            exists = np.zeros(len(probe), dtype=bool)
            for m in masks:
                exists |= m
            docids = probe[exists][:k]
            scores = np.ones(len(docids), dtype=np.float64)
        return self._result_table(docids, scores)

    def search_terms_lookup(self, conv_id: str, turn_idx: int,
                            k: int = 10):
        """ES ``terms`` query with TERMS LOOKUP: the term set is read
        from another document's field at query time ({"terms":
        {"text": {"index": ..., "id": ..., "path": "text"}}}) — here
        the lookup doc's analyzed text tokens. Matching docs are the
        union of the looked-up terms' postings with constant score
        1.0 (a terms query is never BM25-ranked, ES semantics). The
        lookup itself is ONE chunk-pruned docstore point read; the
        match is one postings decode per term with a k-capped union
        per shard. → the standard result table, docid ASC."""
        r = self.reader
        docid = r.docid_of(conv_id, int(turn_idx))
        t = r.fetch_docs(np.asarray([docid]), columns=["text"])
        terms = sorted(set(self._qt(t["text"][0].as_py())))
        docids = np.zeros(0, dtype=np.int64)
        scores = np.zeros(0, dtype=np.float64)
        if terms and r.n_docs:
            parts = self._scatter("any_terms_docs", terms, k)
            docids, scores = _merge_shard_topk(parts, k)
        return self._result_table(docids, scores)

    def search_intervals(self, rule: dict, k: int = 10):
        """ES ``intervals`` query: positional interval algebra —
        ``match`` leaves (ordered / unordered with ``max_gaps``)
        composed by ``all_of`` / ``any_of`` — evaluated per doc with
        greedy-minimal semantics (see query.intervals for the grammar
        and documented deviations). The whole rule scores as ONE
        pseudo-term: tf = the doc's minimal-interval count, df = the
        global matching-doc count — the engine's phrase convention, so
        an ordered max_gaps=0 match rule is scored identically to the
        exact phrase. Two-phase like search_phrase: shards count (and
        cache) matches, then score with the global idf and return
        k-sized heaps."""
        import pyarrow as pa

        from excelastic_ray.query.intervals import validate_rule

        r = self.reader
        node = validate_rule(rule, self._tok_ordered)
        docids = np.zeros(0, dtype=np.int64)
        scores = np.zeros(0, dtype=np.float64)
        if r.n_docs:
            df_iv = sum(self._scatter("intervals_count", node))
            if df_iv:
                p_idf = idf(r.n_docs, df_iv)
                parts = self._scatter("intervals_topk", node, p_idf, r.avgdl, k)
                docids, scores = _merge_shard_topk(parts, k)
        return self._result_table(docids, scores)

    def search_phrase(self, query: str, k: int = 10, slop: int = 0,
                      field: str | None = None,
                      slop_mode: str = "windowed"):
        """match_phrase: docs where the query terms appear consecutively
        (``slop`` relaxes each later term's slot by up to ``slop``
        positions — the windowed in-order sloppy-phrase semantics by
        default; ``slop_mode="lucene"`` opts into Lucene's move-budget
        rule where reordered terms match, e.g. "b a"~2 — see
        ShardSearcher.phrase_matches). ``field`` scopes the phrase to a
        per-field stream (Kibana ``field:"exact phrase"``) with that
        field's own positions, dl and avgdl; None = the catch-all
        stream,
        scored like a single pseudo-term whose tf is the phrase-occurrence
        count and whose df is the phrase's doc count (the Lucene
        PhraseQuery shape). Two-phase because phrase df is
        query-dependent: phase 1 asks every shard for its match COUNT
        (matches stay cached shard-local); phase 2 ships the global idf
        back and each shard returns only its k best — the driver never
        receives a match set, just counts + k-sized heaps
        (score DESC, docid ASC)."""
        import pyarrow as pa

        r = self.reader
        if field is not None and (
            len(r.cfg.index_fields) == 1 and field == r.cfg.index_fields[0]
        ):
            field = None  # the catch-all stream IS that field's stream
        avgdl = (
            r.avgdl if field is None
            else r.manifest.get("field_avgdl", {})[field]
        )
        terms = self._tok_ordered(query)  # IN ORDER, duplicates kept
        docids = np.zeros(0, dtype=np.int64)
        scores = np.zeros(0, dtype=np.float64)
        if terms and r.n_docs:
            df_phrase = sum(
                self._scatter("phrase_count", terms, slop, field, slop_mode)
            )
            if df_phrase:
                p_idf = idf(r.n_docs, df_phrase)
                parts = self._scatter(
                    "phrase_topk", terms, p_idf, avgdl, k, slop, field,
                    slop_mode,
                )
                docids, scores = _merge_shard_topk(parts, k)
        conv, turn = r.keys_of(docids)
        return pa.table(
            {
                "rank": pa.array(np.arange(1, len(docids) + 1, dtype=np.int32)),
                "docid": pa.array(docids, type=pa.int64()),
                "conv_id": pa.array(conv, type=pa.string()),
                "turn_idx": pa.array(turn, type=pa.int32()),
                "score": pa.array(scores, type=pa.float64()),
            }
        )

    def search_bool_prefix(self, query: str, k: int = 10,
                           operator: str = "or",
                           max_expansions: int = 50,
                           filters: dict | None = None):
        """ES ``match_bool_prefix`` (the non-positional
        search-as-you-type sibling of match_phrase_prefix): every
        analyzed token except the last matches as a term clause, the
        LAST token as a prefix clause (dictionary expansion, capped
        deterministically at ``max_expansions`` like search_prefix) —
        all composed in one bool. ``operator="or"`` (ES default):
        should clauses with minimum_should_match=1;
        ``"and"``: every clause required. Compiled onto the DSL
        executor, so scoring (BM25 sum of matched clauses,
        scoring_boolean prefix rewrite) and tie-break are identical to
        the equivalent hand-written DSL tree."""
        if operator not in ("or", "and"):
            raise ValueError("operator must be 'or' or 'and'")
        toks = self._tok_ordered(query)
        if not toks:
            raise ValueError("match_bool_prefix needs at least one "
                             "analyzer token")
        clauses: list[dict] = [{"term": t} for t in toks[:-1]]
        clauses.append({"prefix": {"value": toks[-1],
                                   "max_expansions": max_expansions}})
        tree = (
            {"bool": {"must": clauses}} if operator == "and"
            else {"bool": {"should": clauses,
                           "minimum_should_match": 1}}
        )
        return self.search_dsl(tree, k, filters=filters)

    def search_say(self, query: str, k: int = 10,
                   max_expansions: int = 50,
                   filters: dict | None = None):
        """ES ``search_as_you_type`` field queried with ``multi_match
        type=bool_prefix`` — the as-you-type ranking that rewards
        PHRASE-SHAPED matches without positions at query time: every
        full analyzer token scores as a term clause on the root
        stream, the LAST (possibly mid-word) token as a prefix clause
        (scoring_boolean dictionary expansion, capped deterministically
        at ``max_expansions``), and every word n-gram of the query
        scores as a term clause on the index-time shingle stream(s)
        (``_2gram``/``_3gram`` — ES's ._2gram/._3gram subfields),
        each with its OWN df / doc-length / avgdl stats. Scores sum
        across all clauses (the ES most_fields combine). Requires an
        index built with ``IndexConfig(index_shingles>=2)``.

        Deviation from ES, documented: ES's ._index_prefix subfield
        materializes edge n-grams at index time; the prefix clause
        here is the same dictionary-expansion rewrite the engine's
        other prefix queries use (identical ranking law, no extra
        index stream). Duplicate clauses dedupe (the engine-wide
        convention, matching query_terms)."""
        r = self.reader
        cfg = r.cfg
        if cfg.index_shingles < 2:
            raise ValueError(
                "search_as_you_type needs an index built with "
                "IndexConfig(index_shingles=2 or 3)"
            )
        toks = self._tok_ordered(query)
        if not toks:
            raise ValueError(
                "search_as_you_type needs at least one analyzer token"
            )
        pairs: list[tuple[str | None, str]] = [
            (None, t) for t in toks[:-1]
        ]
        for e in self.expand_prefix(toks[-1], max_expansions):
            pairs.append((None, e))
        for n, sname in zip(range(2, cfg.index_shingles + 1),
                            cfg.shingle_streams):
            for i in range(len(toks) - n + 1):
                pairs.append((sname, " ".join(toks[i:i + n])))
        return self._search_field_pairs(pairs, k, filters, 0)

    def search_phrase_prefix(self, query: str, k: int = 10,
                             slop: int = 0, field: str | None = None,
                             max_expansions: int | None = None):
        """ES ``match_phrase_prefix`` (search-as-you-type): the query's
        LAST analyzed token is a prefix completed by ANY dictionary
        term; the phrase scores as one pseudo-term whose tf is the
        anchor count and whose df is the prefix-phrase doc count —
        the same two-phase shape as :meth:`search_phrase`. Expansion
        is unbounded (exact; ES's max_expansions truncation changes
        results and is deliberately not replicated)."""
        import pyarrow as pa

        r = self.reader
        if field is not None and (
            len(r.cfg.index_fields) == 1 and field == r.cfg.index_fields[0]
        ):
            field = None
        avgdl = (
            r.avgdl if field is None
            else r.manifest.get("field_avgdl", {})[field]
        )
        toks = self._tok_ordered(query)
        docids = np.zeros(0, dtype=np.int64)
        scores = np.zeros(0, dtype=np.float64)
        if toks and r.n_docs:
            head, prefix = toks[:-1], toks[-1]
            df_phrase = sum(self._scatter(
                "phrase_prefix_count", head, prefix, slop, field,
                max_expansions,
            ))
            if df_phrase:
                p_idf = idf(r.n_docs, df_phrase)
                parts = self._scatter(
                    "phrase_prefix_topk", head, prefix, p_idf, avgdl, k,
                    slop, field, max_expansions,
                )
                docids, scores = _merge_shard_topk(parts, k)
        conv, turn = r.keys_of(docids)
        return pa.table(
            {
                "rank": pa.array(
                    np.arange(1, len(docids) + 1, dtype=np.int32)
                ),
                "docid": pa.array(docids, type=pa.int64()),
                "conv_id": pa.array(conv, type=pa.string()),
                "turn_idx": pa.array(turn, type=pa.int32()),
                "score": pa.array(scores, type=pa.float64()),
            }
        )

    def _query_shape(self, query: str, mode: str):
        """→ (live terms, n_required, dead) for count/facet endpoints."""
        terms = self._qt(query)
        if not terms:
            return [], 0, False
        dfs = self._global_dfs(terms)
        live = [t for t, d in zip(terms, dfs) if d > 0]
        dead = len(live) < len(terms)
        n_required = len(live) if mode == "and" else 0
        return live, n_required, dead

    def rank_eval(self, queries, k: int = 10):
        """ES ``_rank_eval`` API analog: ranking-quality metrics per
        query over the BM25 top-``k`` window — precision@k (hits /
        retrieved), recall@k (hits / total relevant), reciprocal rank
        (0 when no relevant doc is in the window, ES's convention),
        binary DCG@k and NDCG@k (ideal = the first min(k, n_rel)
        positions all relevant).

        Binary relevance judgment = CONJUNCTIVE CONTAINMENT: a doc is
        relevant iff it matches every query term — a judgment both the
        engine and the SQL twin derive deterministically from the
        corpus, standing in for ES's caller-supplied ratings. The
        window's relevant subset is recovered from the AND-mode top-k
        (a conjunctive doc inside the OR window is beaten by < k docs
        overall, hence by < k conjunctive docs, so it is always inside
        the AND window too); the total relevant count is the _count
        endpoint in AND mode — no full result-set materialization.

        ``queries``: iterable of (query_id, query_string).
        → pandas.DataFrame (query_id, n_rel, retrieved, hits,
        precision, recall, rr, dcg, ndcg), floats trunc6'd."""
        import pandas as pd

        from excelastic_ray.pipelines.textstats import trunc6

        def t6(x: float) -> float:
            return float(trunc6(x))

        rows = []
        for qid, q in queries:
            top = self.search(q, k)
            keys = list(zip(top["conv_id"].to_pylist(),
                            top["turn_idx"].to_pylist()))
            and_top = self.search(q, k, mode="and")
            rel_keys = set(zip(and_top["conv_id"].to_pylist(),
                               and_top["turn_idx"].to_pylist()))
            n_rel = self.count(q, mode="and")
            flags = [kk in rel_keys for kk in keys]
            retrieved = len(keys)
            hits = sum(flags)
            first = next((i + 1 for i, f in enumerate(flags) if f), 0)
            dcg = float(
                np.sum([1.0 / np.log2(i + 2) for i, f in enumerate(flags)
                        if f])
            )
            ideal = min(k, n_rel)
            idcg = float(np.sum(1.0 / np.log2(np.arange(ideal) + 2)))
            rows.append(
                {
                    "query_id": qid,
                    "n_rel": int(n_rel),
                    "retrieved": int(retrieved),
                    "hits": int(hits),
                    "precision": t6(hits / retrieved) if retrieved else 0.0,
                    "recall": t6(hits / n_rel) if n_rel else 0.0,
                    "rr": t6(1.0 / first) if first else 0.0,
                    "dcg": t6(dcg),
                    "ndcg": t6(dcg / idcg) if idcg > 0 else 0.0,
                }
            )
        return pd.DataFrame(rows)

    def count(self, query: str, filters: dict | None = None,
              mode: str = "or") -> int:
        """Matching-doc count (the ES _count endpoint analog)."""
        live, n_required, dead = self._query_shape(query, mode)
        if not live or (mode == "and" and dead):
            return 0
        return sum(self._scatter("count", live, n_required, filters))

    def adjacency_matrix(self, named: dict[str, str],
                         filters: dict | None = None, mode: str = "or"):
        """ES ``adjacency_matrix`` aggregation (the ``filters`` agg plus
        pairwise intersections): for each named query and each unordered
        pair, the count of docs matching both. Buckets are emitted for
        every pair a ≤ b — including empty ones, for a stable schema —
        ordered by (a, b). → table (a, b, n)."""
        import pyarrow as pa

        names = sorted(named)
        specs = []
        for nm in names:
            live, n_required, dead = self._query_shape(named[nm], mode)
            if not live or (mode == "and" and dead):
                specs.append(([], 0))
            else:
                specs.append((live, n_required))
        F = len(names)
        total = np.zeros((F, F), dtype=np.int64)
        r = self.reader
        if F and r.n_docs:
            parts = self._scatter("adjacency_counts", specs, filters)
            for p in parts:
                total += p
        ai, bi = np.triu_indices(F)
        return pa.table(
            {
                "a": pa.array([names[i] for i in ai], type=pa.string()),
                "b": pa.array([names[j] for j in bi], type=pa.string()),
                "n": pa.array(total[ai, bi], type=pa.int64()),
            }
        )

    def facets(self, query: str, attr: str, filters: dict | None = None,
               mode: str = "or") -> dict:
        """Matching-doc counts per attribute value (the ES terms-agg
        analog in filter context). → {value: n} sorted by value."""
        live, n_required, dead = self._query_shape(query, mode)
        if not live or (mode == "and" and dead):
            return {}
        parts = self._scatter("facet", live, attr, n_required, filters)
        out: dict = {}
        for p in parts:
            for v, n in p.items():
                out[v] = out.get(v, 0) + n
        return dict(sorted(out.items()))

    def top_facets(self, query: str, attr: str, size: int = 10,
                   filters: dict | None = None, mode: str = "or"):
        """ES ``terms`` aggregation with ``size``: the top-``size``
        buckets by (doc count DESC, value ASC) plus one ``__other__``
        row carrying the remainder — ES's ``sum_other_doc_count``,
        except EXACT here (the full per-shard facet dicts are merged
        before truncation, where ES truncates per shard at shard_size
        and can under-count). → table (value, n)."""
        import pyarrow as pa

        merged = self.facets(query, attr, filters=filters, mode=mode)
        ranked = sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))
        top = ranked[:size]
        other = sum(n for _, n in ranked[size:])
        vals = [v for v, _ in top] + ["__other__"]
        ns = [n for _, n in top] + [other]
        return pa.table(
            {
                "value": pa.array(vals, type=pa.string()),
                "n": pa.array(ns, type=pa.int64()),
            }
        )

    def date_histogram(self, query: str, attr: str = "ts",
                       interval_hours: int = 24,
                       filters: dict | None = None,
                       mode: str = "or") -> dict:
        """ES date_histogram over the query's matching docs →
        {µs-bucket-start: count}, sorted by bucket."""
        live, n_required, dead = self._query_shape(query, mode)
        if not live or (mode == "and" and dead):
            return {}
        interval_us = interval_hours * 3_600_000_000
        parts = self._scatter(
            "date_histogram", live, attr, interval_us, n_required, filters,
        )
        out: dict[int, int] = {}
        for p in parts:
            for b, n in p.items():
                out[b] = out.get(b, 0) + n
        return dict(sorted(out.items()))

    def search_sorted(self, query: str, k: int = 10, sort: str = "ts",
                      order: str = "desc",
                      search_after: tuple | None = None,
                      filters: dict | None = None, mode: str = "or"):
        """Query matches ordered by a timestamp attribute instead of
        relevance — ES sort-by-field + ``search_after`` (Kibana
        Discover's default time-sorted view). Each shard returns its
        first k matches past the cursor, the driver merges k-sized
        lists; paging with ``search_after=(last_ts, last_docid)`` is
        exact deep pagination (identical to slicing the full ordering).

        → pyarrow.Table (rank, docid, conv_id, turn_idx, ts). ``ts``
        values are the sort cursor: pass the last row's (ts, docid) to
        resume. ``search_after`` accepts µs ints, ISO strings or
        datetime64 for the ts part."""
        import pyarrow as pa

        live, n_required, dead = self._query_shape(query, mode)
        docids = np.zeros(0, dtype=np.int64)
        tss = np.zeros(0, dtype=np.int64)
        if live and not (mode == "and" and dead):
            after = None
            if search_after is not None:
                after = (
                    ShardSearcher._as_us(search_after[0]),
                    int(search_after[1]),
                )
            parts = self._scatter(
                "sorted_matches", live, sort, k, order, after, n_required,
                filters,
            )
            docids = np.concatenate([p[0] for p in parts])
            tss = np.concatenate([p[1] for p in parts])
            pos = (
                np.lexsort((docids, tss)) if order == "asc"
                else np.lexsort((docids, -tss))
            )[:k]
            docids, tss = docids[pos], tss[pos]
        conv, turn = self.reader.keys_of(docids)
        return pa.table(
            {
                "rank": pa.array(np.arange(1, len(docids) + 1, dtype=np.int32)),
                "docid": pa.array(docids, type=pa.int64()),
                "conv_id": pa.array(conv, type=pa.string()),
                "turn_idx": pa.array(turn, type=pa.int32()),
                "ts": pa.array(tss.astype("datetime64[us]")),
            }
        )

    def search_random(self, query: str, k: int = 10, seed: int = 0,
                      filters: dict | None = None, mode: str = "or"):
        """ES ``function_score`` with ``random_score`` (seeded): the
        query bounds the match set, the ranking is a deterministic
        uniform hash — score = FNV-1a64(docid + seed) / 2^64 — the
        reproducible result-sampling tool (A/B buckets, spot-check
        audits). A pure function of (docid, seed): parallelism- and
        segment-layout-invariant, unlike ES's per-segment
        interpolation (documented deviation)."""
        if seed < 0:
            raise ValueError("seed must be non-negative")
        return self._fscore_search(
            query, mode, [{"weight": 1.0, "random": int(seed)}], "replace",
            k, filters,
        )

    def search_distance_feature(self, query: str, k: int = 10,
                                attr: str = "ts", origin=None,
                                pivot="24h", boost: float = 1.0,
                                filters: dict | None = None,
                                mode: str = "or"):
        """ES ``distance_feature`` query (date variant) composed with
        the match query in a bool should: ranked by ``bm25 + boost ×
        pivot / (pivot + |ts − origin|)`` — the ADDITIVE recency bonus
        that equals ``boost/2`` at distance ``pivot`` (contrast
        search_decay's multiplicative gauss). BM25 stats untouched.
        ``origin`` accepts ISO strings / datetime64 / µs ints;
        ``pivot`` µs ints or "<N>h"/"<N>d" strings."""
        if origin is None:
            raise ValueError("origin is required (ES has no default)")
        recency = {"attr": attr, "origin": ShardSearcher._as_us(origin),
                   "pivot": float(_parse_span_us(pivot))}
        return self._fscore_search(
            query, mode, [{"weight": float(boost), "recency": recency}],
            "sum", k, filters,
        )

    def search_decay(self, query: str, k: int = 10, attr: str = "ts",
                     origin=None, scale="24h", decay: float = 0.5,
                     filters: dict | None = None, mode: str = "or"):
        """ES ``function_score`` with a gauss date-decay multiplier:
        ranked by ``bm25 * decay ** ((|ts - origin| / scale)^2)`` — the
        recency-boosted relevance query (ES ``gauss`` decay with offset
        0; the multiplier equals ``decay`` at distance ``scale`` from
        ``origin``). BM25 stats are untouched; only the ranking score is
        rescaled, per the ES multiply boost_mode default.

        ``origin`` accepts ISO strings / datetime64 / µs ints; ``scale``
        accepts µs ints or "<N>h"/"<N>d" strings.

        → pyarrow.Table (rank, docid, conv_id, turn_idx, score)."""
        if origin is None:
            raise ValueError("origin is required (ES has no default)")
        gauss = {"attr": attr, "origin": ShardSearcher._as_us(origin),
                 "scale": float(_parse_span_us(scale)),
                 "decay": float(decay)}
        return self._fscore_search(
            query, mode, [{"weight": 1.0, "gauss": gauss}], "multiply", k,
            filters,
        )

    def delete_by_query(self, query: str | None = None,
                        filters: dict | None = None,
                        mode: str = "or") -> int:
        """ES ``_delete_by_query``: tombstone every doc matching the
        query/filters. Deleted docs disappear from every result path
        (search/count/facets/sorted/decay/...) immediately, while
        postings, df and avgdl stay untouched — ES's own pre-merge
        delete semantics (stats shift only when segments merge).

        ``query=None`` with ``filters`` is delete-by-filter;
        ``query=None, filters=None`` is ES ``match_all`` (delete every
        doc). Tombstones persist as a per-shard ``deletes.parquet``
        (atomic replace, union with prior deletes — idempotent and
        monotone), and the manifest's ``deletes_rev`` counter bumps so
        cached engines (e.g. the web server's) know to reopen.

        → number of docids in the union tombstone set after this call.
        Only supported on a local (non-actor) engine: actor pools hold
        immutable searcher state; reopen after deleting."""
        import pyarrow as pa

        if self._actors is not None:
            raise NotImplementedError(
                "delete_by_query needs a local engine (actor searchers "
                "are immutable); open QueryEngine(index) without actors"
            )
        r = self.reader
        terms: list[str] = []
        n_required = 0
        if query is not None:
            terms = self._qt(query)
            if not terms:
                return sum(
                    0 if r.searcher(s).live_mask is None
                    else int((~r.searcher(s).live_mask).sum())
                    for s in range(r.num_shards)
                )
            dfs = self._global_dfs(terms)
            live = [t for t, d in zip(terms, dfs) if d > 0]
            if mode == "and":
                if len(live) < len(terms):
                    live = []
                n_required = len(live)
            terms = live
        total = 0
        for s in range(r.num_shards):
            sr = r.searcher(s)
            if query is not None:
                if not terms:
                    mask = np.zeros(len(sr.docids), dtype=bool)
                else:
                    mask = sr.matching_mask(terms, n_required, filters)
            else:
                fm = sr.filter_mask(filters)
                mask = (
                    fm.copy() if fm is not None
                    else np.ones(len(sr.docids), dtype=bool)
                )
            dead = sr.docids[mask]
            if sr.live_mask is not None:  # union with prior tombstones
                dead = np.union1d(dead, sr.docids[~sr.live_mask])
            else:
                dead = np.sort(dead)
            total += len(dead)
            tomb = pa.table({"docid": pa.array(dead, type=pa.int64())})
            seg.atomic_write_parquet(
                os.path.join(r.shard_path(s), "deletes.parquet"), tomb
            )
            # generational copy: open point-in-time readers pin this
            # exact tombstone set even after later delete calls
            new_drev = int(r.manifest.get("deletes_rev", 0)) + 1
            seg.atomic_write_parquet(
                os.path.join(r.shard_path(s),
                             f"deletes_g{new_drev}.parquet"), tomb
            )
            sr.live_mask = (
                ~np.isin(sr.docids, dead) if len(dead) else None
            )
            sr.file_ids = None  # changed in place: never taken over
        m = seg.load_global_manifest(r.index_dir)
        m["deletes_rev"] = int(m.get("deletes_rev", 0)) + 1
        seg.save_global_manifest(r.index_dir, m)
        r.manifest = m
        return total

    def update_by_query(self, query: str | None = None,
                        filters: dict | None = None,
                        set_values: dict | None = None,
                        mode: str = "or") -> int:
        """ES ``_update_by_query`` with set-field semantics, implemented
        as Lucene updatable doc-values: every doc matching
        ``query``/``filters`` gets its ATTRIBUTE columns overwritten
        with ``set_values`` — filter context, facets, sort-by-field and
        fetched attrs all see the new values immediately, while the
        inverted index (including field-qualified posting streams)
        keeps scoring the originally indexed text until a reindex.
        That split is exactly Lucene's ``updateDocValues`` contract
        (documented deviation from ES, which reindexes the doc).

        Updates persist as a per-shard long-format ``updates.parquet``
        (docid, attr, value) with keep-last merge semantics (a later
        update of the same (docid, attr) wins); the manifest's
        ``updates_rev`` bumps so cached engines reopen. Timestamp
        attrs accept ISO-8601 strings. → number of docs touched by
        THIS call. Local (non-actor) engines only, like
        delete_by_query."""
        import pyarrow as pa

        if not set_values:
            raise ValueError("set_values must name at least one attr")
        if self._actors is not None:
            raise NotImplementedError(
                "update_by_query needs a local engine (actor searchers "
                "are immutable); open QueryEngine(index) without actors"
            )
        r = self.reader
        probe = r.searcher(0)
        for name in set_values:
            if name not in probe.attrs and name not in probe.time_attrs:
                raise KeyError(
                    f"unknown doc attribute {name!r} "
                    f"(have {sorted(probe.attrs) + sorted(probe.time_attrs)})"
                )
        terms: list[str] = []
        n_required = 0
        if query is not None:
            terms = self._qt(query)
            dfs = self._global_dfs(terms) if terms else []
            live = [t for t, d in zip(terms, dfs) if d > 0]
            if mode == "and":
                if len(live) < len(terms):
                    live = []
                n_required = len(live)
            terms = live
        total = 0
        for s in range(r.num_shards):
            sr = r.searcher(s)
            if query is not None:
                if not terms:
                    continue
                mask = sr.matching_mask(terms, n_required, filters)
            else:
                fm = sr.filter_mask(filters)
                mask = (
                    fm.copy() if fm is not None
                    else np.ones(len(sr.docids), dtype=bool)
                )
            hit = sr.docids[mask]
            total += len(hit)
            new = {
                "docid": np.repeat(hit, len(set_values)),
                "attr": np.tile(
                    np.array(sorted(set_values), dtype=object), len(hit)
                ),
                "value": np.tile(
                    np.array(
                        [str(set_values[a]) for a in sorted(set_values)],
                        dtype=object,
                    ),
                    len(hit),
                ),
            }
            upath = os.path.join(r.shard_path(s), "updates.parquet")
            frames = []
            if os.path.exists(upath):
                old = pq.read_table(upath)
                frames.append(
                    {
                        "docid": old["docid"].to_numpy(),
                        "attr": old["attr"].to_numpy(zero_copy_only=False),
                        "value": old["value"].to_numpy(zero_copy_only=False),
                    }
                )
            frames.append(new)
            docid = np.concatenate([f["docid"] for f in frames])
            attr = np.concatenate([f["attr"] for f in frames])
            value = np.concatenate([f["value"] for f in frames])
            # keep-last per (docid, attr): encode the pair as one int64
            # key (docids are rank<<turn_bits — far below 2^63/n_attrs),
            # stable-sort, keep each run's last element (newest append)
            uniq_attr, code = np.unique(attr, return_inverse=True)
            key = docid * np.int64(len(uniq_attr)) + code
            order = np.argsort(key, kind="stable")
            sk = key[order]
            # a shard with zero prior + zero new rows has nothing to
            # write (np.append on an empty diff would fabricate one)
            run_end = (
                np.append(sk[1:] != sk[:-1], True)
                if len(sk) else np.zeros(0, dtype=bool)
            )
            keep = order[run_end]
            merged = pa.table(
                {
                    "docid": pa.array(docid[keep], type=pa.int64()),
                    "attr": pa.array(attr[keep], type=pa.string()),
                    "value": pa.array(value[keep], type=pa.string()),
                }
            )
            if len(keep):
                seg.atomic_write_parquet(upath, merged)
            # generational copy (written even when empty, so PIT
            # resolution can tell "no updates at g{rev}" from "state
            # discarded")
            new_urev = int(r.manifest.get("updates_rev", 0)) + 1
            seg.atomic_write_parquet(
                os.path.join(r.shard_path(s),
                             f"updates_g{new_urev}.parquet"), merged
            )
            # apply in place so this engine serves the new values
            # without a reopen
            if len(hit):
                sr.file_ids = None  # changed in place: never taken over
                pos = np.searchsorted(sr.docids, hit)
                for name, v in set_values.items():
                    if name in sr.attrs:
                        sr.attrs[name][pos] = str(v)
                    else:
                        sr.time_attrs[name][pos] = sr._as_us(v)
        m = seg.load_global_manifest(r.index_dir)
        m["updates_rev"] = int(m.get("updates_rev", 0)) + 1
        seg.save_global_manifest(r.index_dir, m)
        r.manifest = m
        return total

    # -- point-in-time (ES _pit) ------------------------------------------

    def open_pit(self, keep_alive_s: float = 300.0) -> str:
        """ES open-point-in-time: returns an opaque id that pins the
        index state a search sees — later ``delete_by_query`` /
        ``update_by_query`` calls do not affect searches routed through
        :meth:`pit`. Like ES, the id is STATELESS encoded state (here:
        the tombstone and doc-values generation numbers plus an expiry
        wall-clock), so it survives engine reopens and process
        restarts; the generational ``deletes_g{rev}`` /
        ``updates_g{rev}`` files written by every mutation back it.
        Postings, docstore and collection stats are immutable between
        merges, so those two overlays are the whole mutable surface —
        ``_forcemerge``/``_reindex`` build a NEW index dir and
        naturally invalidate PITs, exactly ES's segment-handle
        semantics."""
        import base64
        import json
        import time

        m = self.reader.manifest
        payload = {
            "d": int(m.get("deletes_rev", 0)),
            "u": int(m.get("updates_rev", 0)),
            "exp": time.time() + float(keep_alive_s),
        }
        return "pit_" + base64.urlsafe_b64encode(
            json.dumps(payload).encode()
        ).decode()

    def pit(self, pit_id: str) -> "QueryEngine":
        """→ the QueryEngine view serving ``pit_id``'s pinned state;
        every query mode works on it unchanged. When the pinned
        generations ARE the live ones this returns ``self`` (no extra
        memory); otherwise a pinned local engine is built and cached
        per generation pair (LRU 4 — a pinned view reloads the shard
        searchers, the correctness-over-memory trade)."""
        import base64
        import json
        import time

        if not pit_id.startswith("pit_"):
            raise ValueError(f"not a point-in-time id: {pit_id!r}")
        try:
            p = json.loads(base64.urlsafe_b64decode(pit_id[4:].encode()))
            key = (int(p["d"]), int(p["u"]))
            exp = float(p["exp"])
        except Exception as e:  # malformed id
            raise ValueError(f"malformed point-in-time id: {e}") from e
        if time.time() > exp:
            raise KeyError(f"point-in-time {pit_id!r} has expired")
        m = self.reader.manifest
        if key == (int(m.get("deletes_rev", 0)),
                   int(m.get("updates_rev", 0))) and self._actors is None:
            return self
        if key in self._pit_cache:
            self._pit_cache.move_to_end(key)
            return self._pit_cache[key]
        view = QueryEngine(
            IndexReader(self.reader.index_dir, pinned=key)
        )
        self._pit_cache[key] = view
        while len(self._pit_cache) > 4:
            self._pit_cache.popitem(last=False)
        return view

    def close_pit(self, pit_id: str) -> bool:
        """ES close-point-in-time: evict the cached pinned view (the
        id itself is stateless — closing frees the searcher memory).
        → True when a cached view was dropped."""
        import base64
        import json

        try:
            p = json.loads(base64.urlsafe_b64decode(pit_id[4:].encode()))
            key = (int(p["d"]), int(p["u"]))
        except Exception:
            return False
        return self._pit_cache.pop(key, None) is not None

    def search_many(self, queries: list[str], k: int = 10,
                    filters: dict | None = None, mode: str = "or"):
        """Batch search (the ES _msearch analog) → pyarrow.Table with a
        leading query_id column (position in ``queries``). In actor mode
        all shard RPCs for all queries are submitted before any result is
        awaited, so latency ≈ one query's, not the sum."""
        import pyarrow as pa

        if self._actors is None:
            tables = [self.search(q, k, filters, mode) for q in queries]
        else:
            import ray

            r = self.reader
            per_query = []
            for q in queries:
                terms = self._qt(q)
                dfs = self._global_dfs(terms) if terms else []
                live = [(t, int(d)) for t, d in zip(terms, dfs) if d > 0]
                dead = len(live) < len(terms)
                if not live or (mode == "and" and dead):
                    per_query.append(None)
                    continue
                n_required = len(live) if mode == "and" else 0
                lterms = [t for t, _ in live]
                idfs = [idf(r.n_docs, d) for _, d in live]
                per_query.append(
                    [
                        a.call.remote("topk", lterms, idfs, r.avgdl, k,
                                      filters, n_required)
                        for a in self._actors
                    ]
                )
            tables = []
            for refs in per_query:
                if refs is None:
                    docids = np.zeros(0, dtype=np.int64)
                    scores = np.zeros(0, dtype=np.float64)
                else:
                    parts = [p for group in ray.get(refs) for p in group]
                    docids, scores = _merge_shard_topk(parts, k)
                tables.append(self._result_table(docids, scores))
        out = []
        for i, t in enumerate(tables):
            out.append(
                t.add_column(0, "query_id",
                             pa.array([i] * t.num_rows, type=pa.int32()))
            )
        return pa.concat_tables(out)

    def close(self) -> None:
        if self._actors:
            import ray

            for a in self._actors:
                ray.kill(a)
            self._actors = None


class ShardActor:
    """Ray actor serving a contiguous group of shards (instantiated via
    ray.remote in QueryEngine; kept import-safe as a plain class). It
    only dispatches: every reduce happens in the driver, on the same
    per-shard list the in-process path produces."""

    def __init__(self, shard_paths: list[str], config_dict: dict):
        cfg = IndexConfig.from_dict(config_dict)
        self.searchers = [ShardSearcher(p, cfg) for p in shard_paths]

    def call(self, name: str, *args, **kw) -> list:
        """``ShardSearcher.<name>(*args, **kw)`` on each shard of the
        group → one result per shard, in shard order."""
        if name.startswith("_"):
            raise AttributeError(f"ShardActor.call refuses {name!r}")
        return [getattr(s, name)(*args, **kw) for s in self.searchers]
