"""Per-layer metrics from the spans of a traced run.

Each figure is normalised by the operations of the phase it belongs to
(per build, per query, per bulk round, per pipeline pass), so it does not
grow with ``--seconds``. Worker spans are CPU time summed over workers,
not wall time.
"""

from __future__ import annotations

import tracing

S, MS, US = 1e9, 1e6, 1e3
PHASES = ("build", "search", "bulk_mixed", "aggregate")


def per_layer(run, spans: list[tuple], wspans: list[tuple]) -> dict:
    by_id = {s[0]: s for s in spans}
    out: dict[str, tuple[float, str]] = {}

    def sel(pool, name: str, phase: str, parent: str | None = None):
        spans_in = run.phases[phase]
        return [s for s in pool if s[2] == name
                and any(t0 <= s[3] < t1 for t0, t1 in spans_in)
                and (parent is None or by_id.get(s[1], (0, 0, ""))[2] == parent)]

    def dur(pool, name, phase, parent=None) -> float:
        return sum(s[4] - s[3] for s in sel(pool, name, phase, parent))

    def cnt(pool, name, phase) -> int:
        return sum(s[5] for s in sel(pool, name, phase))

    def put(name, value, unit):
        out[name] = (float(value), unit)

    res = run.build_results
    nb = max(1, len(res))
    for p in ("validate", "chunks", "merge"):
        put(f"build.{p}_s", sum(r.phase_seconds[p] for r in res) / nb, "s")
    put("build.postings", sum(r.n_postings for r in res) / nb, "count")
    put("build.bytes_compressed", sum(r.bytes_compressed for r in res) / nb, "bytes")
    put("build.chunks", sum(r.n_chunks for r in res) / nb, "count")
    put("build.chunk_s", dur(wspans, "build.chunk", "build") / S / nb, "s")
    put("analysis.tokenize_s", dur(wspans, "analysis.tokenize", "build") / S / nb, "s")
    put("analysis.tokens", cnt(wspans, "analysis.tokenize", "build") / nb, "count")
    put("codecs.encode_s", dur(wspans, "codecs.encode", "build") / S / nb, "s")
    put("codecs.bytes", cnt(wspans, "codecs.encode", "build") / nb, "bytes")
    put("segments.merge_s", dur(wspans, "segments.merge", "build") / S / nb, "s")
    put("segments.bytes_written", cnt(wspans, "segments.write", "build") / nb, "bytes")

    n_open = max(1, len(sel(spans, "op.open", "search")))
    put("engine.shard_load_s",
        dur(spans, "engine.shard_load", "search", parent="op.open") / S / n_open, "s")
    nq = max(1, len(run.samples["search_ms"]))
    n_search = max(1, len(sel(spans, "engine.search", "search")))
    # the engine caches global dfs, so ShardSearcher.dfs runs on a term's
    # first use only: it is counted over the whole phase
    put("shard.dfs_us", dur(spans, "shard.dfs", "search") / US / n_search, "us")
    for name in ("query.analyze", "shard.topk", "shard.phrase_count",
                 "shard.phrase_topk", "shard.bool_topk", "shard.decoded"):
        put(f"{name}_us", dur(spans, name, "search.single") / US / nq, "us")
    put("shard.decoded_calls", len(sel(spans, "shard.decoded", "search.single")) / nq, "count")
    selfs = tracing.self_times(spans)
    put("engine.merge_us", sum(selfs[s[0]] for s in sel(spans, "engine.search", "search.single"))
        / US / nq, "us")
    put("codecs.decode_s", dur(spans, "codecs.decode", "search") / S / n_search, "s")

    nh = max(1, len(sel(spans, "op.http_search", "bulk_mixed")))
    nbulk = max(1, len(run.samples["bulk_docs_per_s"]))
    web = dur(spans, "web.search", "bulk_mixed")
    put("reader.fetch_docs_us", dur(spans, "reader.fetch_docs", "bulk_mixed") / US / nh, "us")
    put("web.search_ms", web / MS / nh, "ms")
    put("web.http_overhead_ms", (dur(spans, "op.http_search", "bulk_mixed") - web) / MS / nh, "ms")
    put("web.bulk_s", dur(spans, "web.bulk", "bulk_mixed") / S / nbulk, "s")
    put("bulk.apply_s", dur(spans, "bulk.apply", "bulk_mixed") / S / nbulk, "s")
    put("build.append_s", dur(spans, "build.append", "bulk_mixed") / S / nbulk, "s")

    npass = max(1, len(run.samples["aggregate_s"]))
    for name in ("conv_stats", "term_df", "agg_tree_fanout"):
        put(f"pipelines.{name}_s", dur(spans, f"pipelines.{name}", "aggregate") / S / npass, "s")
    put("pipelines.rows_in", sum(run.samples["pipeline_rows_in"]) / npass, "count")

    # the share of each phase's wall time in which no layer span was open
    # in any process: time in code no wrapper covers (Ray Data scheduling
    # and exchange, HTTP plumbing, the benchmark's own bookkeeping)
    layer = [s for s in spans + wspans if not s[2].startswith(("op.", "phase."))]
    for phase in PHASES:
        put(f"trace.{phase}.unattributed_share",
            unattributed(run.phases[phase], layer), "ratio")
    return out


def unattributed(windows: list[tuple[int, int]], spans: list[tuple]) -> float:
    """Share of the time in ``windows`` that no span of ``spans`` covers."""
    wall = sum(t1 - t0 for t0, t1 in windows)
    covered = 0
    for t0, t1 in windows:
        end = t0
        for a, b in sorted((max(s[3], t0), min(s[4], t1)) for s in spans
                           if s[4] > t0 and s[3] < t1):
            if b > end:
                covered += b - max(a, end)
                end = b
    return 1 - covered / wall if wall else 0.0
