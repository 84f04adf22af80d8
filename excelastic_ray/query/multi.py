"""Multi-index search — the ES index-pattern analog (Kibana's
``logstash-*``): one query fanned out over SEVERAL indices with
COMBINED corpus statistics.

ES's default ``query_then_fetch`` scores each shard with shard-local
stats (scores drift between shards); its exact mode is
``dfs_query_then_fetch`` — collect global df / doc counts first, then
score every shard with them. This engine implements the exact mode:

  df(term)  = Σ over indices of the index's global df
  N         = Σ n_docs
  avgdl     = Σ (n_docs_i × avgdl_i) / N   (the combined corpus mean)

so searching a PARTITION of a corpus split across two indices returns
bit-identical scores to searching one index holding the whole corpus —
the invariant the tests and the driver oracle pin (the oracle twin is
the plain single-corpus BM25 SQL).

Cross-index merge ties break on (score DESC, conv_id ASC, turn_idx
ASC): docids are index-local (conv ranks are assigned per index) so
they cannot order rows across indices, but within one index docid
order IS (conv_id, turn_idx) order, making the two tie-break schemes
identical on any single index.
"""

from __future__ import annotations

import os

import numpy as np

from excelastic_ray.analysis import query_terms
from excelastic_ray.query.engine import (
    QueryEngine,
    ShardSearcher,
    admission,
    admit_one_at_a_time,
    idf,
)


@admit_one_at_a_time
class MultiIndexEngine:
    """Search over a list of index directories (or open
    ``IndexReader``s) as one logical index. Admits one query at a time
    per process, like ``QueryEngine``."""

    def __init__(self, index_dirs: list, use_actors: bool = False):
        if not index_dirs:
            raise ValueError("need at least one index directory")
        self._admission = admission(use_actors)
        self.engines = [QueryEngine(d, use_actors=use_actors)
                        for d in index_dirs]
        self.names = [os.path.basename(os.path.normpath(e.reader.index_dir))
                      for e in self.engines]
        self.n_docs = sum(e.reader.n_docs for e in self.engines)
        sum_dl = sum(e.reader.n_docs * e.reader.avgdl for e in self.engines)
        self.avgdl = sum_dl / self.n_docs if self.n_docs else 0.0

    # -- stats -----------------------------------------------------------

    def _dfs(self, terms: list[str]) -> np.ndarray:
        out = np.zeros(len(terms), dtype=np.int64)
        for e in self.engines:
            out += e._global_dfs(terms)
        return out

    def _shape(self, query: str, mode: str):
        terms = query_terms(query)
        if not terms:
            return [], [], 0, True
        dfs = self._dfs(terms)
        live = [(t, int(d)) for t, d in zip(terms, dfs) if d > 0]
        dead = len(live) < len(terms)
        n_required = len(live) if mode == "and" else 0
        lterms = [t for t, _ in live]
        idfs = [idf(self.n_docs, d) for _, d in live]
        skip = not live or (mode == "and" and dead)
        return lterms, idfs, n_required, skip

    # -- endpoints -------------------------------------------------------

    def search(self, query: str, k: int = 10,
               filters: dict | None = None, mode: str = "or",
               boosts: dict | None = None):
        """Exact combined top-k → (rank, index, conv_id, turn_idx,
        score). Every shard of every index scores with the combined
        stats, so per-shard top-k merges exactly. ``boosts`` is the ES
        ``indices_boost`` parameter ({index name: multiplier}, default
        1.0): a per-index constant multiplier preserves each index's
        internal order, so the unboosted per-index top-k candidate
        sets stay sufficient and the boosted merge is still exact."""
        import pyarrow as pa

        if mode not in ("or", "and"):
            raise ValueError(f"unknown mode {mode!r}")
        if boosts:
            unknown = sorted(set(boosts) - set(self.names))
            if unknown:
                raise KeyError(f"indices_boost names not in this "
                               f"search: {unknown}")
        lterms, idfs, n_required, skip = self._shape(query, mode)
        rows = []  # (score, conv_id, turn_idx, index_name)
        if not skip:
            for name, e in zip(self.names, self.engines):
                bmul = float((boosts or {}).get(name, 1.0))
                parts = e._scatter("topk", lterms, idfs, self.avgdl, k,
                                   filters=filters, n_required=n_required)
                for docids, scores in parts:
                    conv, turn = e.reader.keys_of(docids)
                    rows.extend(zip(scores * bmul, conv,
                                    turn.astype(int),
                                    [name] * len(docids)))
        rows.sort(key=lambda t: (-t[0], t[1], t[2]))
        rows = rows[:k]
        return pa.table(
            {
                "rank": pa.array(
                    np.arange(1, len(rows) + 1, dtype=np.int32)
                ),
                "index": pa.array([t[3] for t in rows], type=pa.string()),
                "conv_id": pa.array([t[1] for t in rows],
                                    type=pa.string()),
                "turn_idx": pa.array([t[2] for t in rows],
                                     type=pa.int32()),
                "score": pa.array([t[0] for t in rows],
                                  type=pa.float64()),
            }
        )

    def count(self, query: str, filters: dict | None = None,
              mode: str = "or") -> int:
        return sum(e.count(query, filters=filters, mode=mode)
                   for e in self.engines)

    def facets(self, query: str, attr: str,
               filters: dict | None = None, mode: str = "or") -> dict:
        out: dict = {}
        for e in self.engines:
            for v, n in e.facets(query, attr, filters=filters,
                                 mode=mode).items():
                out[v] = out.get(v, 0) + n
        return dict(sorted(out.items()))

    def search_sorted(self, query: str, k: int = 10, sort: str = "ts",
                      order: str = "desc",
                      search_after: tuple | None = None,
                      filters: dict | None = None, mode: str = "or"):
        """Time-ordered matches across every index (the multi-index
        Kibana Discover view). Cross-index ties on equal ``ts`` break by
        (conv_id, turn_idx); ``search_after`` is (ts, conv_id,
        turn_idx) — the row-identity cursor that stays valid across
        indices."""
        import pyarrow as pa

        if order not in ("asc", "desc"):
            raise ValueError(f"unknown order {order!r}")
        after = None
        if search_after is not None:
            after = (ShardSearcher._as_us(search_after[0]),
                     str(search_after[1]), int(search_after[2]))
        # The per-index cursor is (ts, docid), but docids are index-
        # local — so push a ts-only SUPERSET cursor into each index
        # (every row with ts on the cursor's side survives it), then
        # filter exactly by the row-identity triple below. Tie rows at
        # the cursor ts are bounded, so per-index fetch stays O(k) at
        # any depth.
        sub_after = None
        if after is not None:
            sub_after = (
                (after[0] - 1, 1 << 62) if order == "asc"
                else (after[0] + 1, 1 << 62)
            )
        def survives(r) -> bool:
            if after is None:
                return True
            if order == "asc":
                return (r[0], r[1], r[2]) > after
            return (r[0] < after[0]) or (
                r[0] == after[0] and (r[1], r[2]) > after[1:]
            )

        rows = []  # (ts_us, conv_id, turn_idx, index_name)
        for name, e in zip(self.names, self.engines):
            # doubling refetch: superset-cursor ties may eat into the
            # first k rows, so grow until k survivors or the index is
            # exhausted (ties at one ts are bounded, so this terminates
            # in O(log ties) rounds, each O(fetch))
            n = k
            while True:
                t = e.search_sorted(query, k=n, sort=sort, order=order,
                                    search_after=sub_after,
                                    filters=filters, mode=mode)
                ts = (
                    t["ts"].to_numpy().astype("datetime64[us]")
                    .astype(np.int64)
                )
                cand = [
                    r for r in zip(
                        ts, t["conv_id"].to_pylist(),
                        (int(x) for x in t["turn_idx"].to_pylist()),
                        [name] * t.num_rows,
                    )
                    if survives(r)
                ]
                if len(cand) >= k or t.num_rows < n:
                    rows.extend(cand[:k])
                    break
                n *= 2
        rows.sort(
            key=(lambda r: (r[0], r[1], r[2])) if order == "asc"
            else (lambda r: (-r[0], r[1], r[2]))
        )
        rows = rows[:k]
        return pa.table(
            {
                "rank": pa.array(
                    np.arange(1, len(rows) + 1, dtype=np.int32)
                ),
                "index": pa.array([r[3] for r in rows], type=pa.string()),
                "conv_id": pa.array([r[1] for r in rows],
                                    type=pa.string()),
                "turn_idx": pa.array([r[2] for r in rows],
                                     type=pa.int32()),
                "ts": pa.array(
                    np.asarray([r[0] for r in rows],
                               dtype=np.int64).astype("datetime64[us]")
                ),
            }
        )

    def close(self) -> None:
        for e in self.engines:
            e.close()
