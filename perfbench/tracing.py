"""Spans timed from outside the program, around calls into its modules.

A span is the tuple (id, parent id, name, start_ns, end_ns, count, thread):
``count`` is a unit of work the call did (tokens, bytes), or 0; parent 0
marks an outermost span of its thread. Spans stay in memory.
In the benchmark process they are read when the run ends; in Ray workers
the setup hook ``worker_hook`` installs the same wrappers, and each worker
appends its spans to ``$PERFBENCH_SPAN_DIR/spans-<pid>.pkl`` whenever one
of its outermost spans closes (the worker may be killed at shutdown, so it
cannot wait for the end of the run). ``perf_counter_ns`` reads
CLOCK_MONOTONIC, so times from all processes share one clock.
"""

from __future__ import annotations

import contextlib
import functools
import os
import pickle
import threading
import time

SPAN_DIR_ENV = "PERFBENCH_SPAN_DIR"


class Tracer:
    def __init__(self, flush_path: str | None = None):
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        self._flush_path = flush_path

    def inside(self, name: str) -> bool:
        """Whether this thread is in an open span called ``name``."""
        return any(r[2] == name for r in self._local.__dict__.get("stack", ()))

    def begin(self, name: str) -> list:
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            self._next += 1
            sid = self._next
        rec = [sid, stack[-1][0] if stack else 0, name, time.perf_counter_ns(), 0, 0,
               threading.get_ident()]
        stack.append(rec)
        return rec

    def end(self, rec: list, count: int = 0) -> None:
        rec[4] = time.perf_counter_ns()
        rec[5] = count
        stack = self._local.stack
        stack.pop()
        with self._lock:
            self.spans.append(tuple(rec))
        if not stack and self._flush_path:
            self.flush()

    def flush(self) -> None:
        with self._lock:
            out, self.spans = self.spans, []
        if out:
            with open(self._flush_path, "ab") as f:
                pickle.dump(out, f)

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self.begin(name)
        try:
            yield
        finally:
            self.end(rec)


#: the tracer of this process, set by ``install`` (None: tracing off)
_active: Tracer | None = None


def _timed(name: str, fn, count=None):
    """``fn`` wrapped in a span of the active tracer; ``count(result)``
    gives the span's work count. A call made inside a span of the same
    name (``decode_all`` reaching the wrapped ``varint_decode``, say) is
    part of that span and gets none of its own, so no time or count is
    summed twice."""

    @functools.wraps(fn)
    def wrapper(*a, **kw):
        tr = _active
        if tr is None or tr.inside(name):
            return fn(*a, **kw)
        rec = tr.begin(name)
        n = 0
        try:
            out = fn(*a, **kw)
            n = count(out) if count else 0
            return out
        finally:
            tr.end(rec, n)

    wrapper.__perfbench_wrapped__ = fn
    return wrapper


def traced_call(name: str, fn, *a, **kw):
    """Module-level, so a function Ray pickles to workers can carry it."""
    return _timed(name, fn)(*a, **kw)


class _TimedRegex:
    """Stands in for a compiled regex whose ``findall`` is timed; the count
    is the number of tokens found."""

    def __init__(self, regex, name: str):
        self._regex, self._name = regex, name
        self.findall = _timed(name, regex.findall, len)

    def __getattr__(self, attr):
        return getattr(self._regex, attr)

    def __reduce__(self):
        # a chunk-builder closure pickles the regex it reads; rebuilt in
        # the worker, the wrapper times into that worker's tracer
        return (_TimedRegex, (self._regex, self._name))


def _posting_bytes(out) -> int:
    return sum(len(p) for p in out[0])


def _patch(obj, attr: str, name: str, count=None) -> None:
    fn = getattr(obj, attr)
    if not hasattr(fn, "__perfbench_wrapped__"):
        setattr(obj, attr, _timed(name, fn, count))


def _patch_worker_layers() -> None:
    """Wrappers for code that runs inside Ray workers during a build."""
    from excelastic_ray import codecs
    from excelastic_ray.index import build, segments

    if not isinstance(build.TOKEN_RE, _TimedRegex):
        build.TOKEN_RE = _TimedRegex(build.TOKEN_RE, "analysis.tokenize")
    _patch(build, "encode_postings_many", "codecs.encode", _posting_bytes)
    _patch(codecs, "varint_encode", "codecs.encode", lambda out: len(out[0]))
    _patch(segments, "atomic_write_parquet", "segments.write", int)
    _patch(build.SegmentMerger, "_merge_shard", "segments.merge")


def _patch_local_layers() -> None:
    """Wrappers for code that runs in the benchmark's own process."""
    from excelastic_ray import bulk, codecs, web
    from excelastic_ray.index import build
    from excelastic_ray.query import engine

    _patch(engine.QueryEngine, "search", "engine.search")
    _patch(engine.QueryEngine, "search_phrase", "engine.search")
    _patch(engine.QueryEngine, "search_bool", "engine.search")
    _patch(engine.QueryEngine, "count", "engine.search")
    _patch(engine.QueryEngine, "_qt", "query.analyze")
    _patch(engine.QueryEngine, "_tok_ordered", "query.analyze")
    for meth in ("dfs", "topk", "phrase_count", "phrase_topk", "bool_topk",
                 "decoded"):
        _patch(engine.ShardSearcher, meth, f"shard.{meth}")
    _patch(engine.IndexReader, "searcher", "engine.shard_load")
    _patch(engine.IndexReader, "fetch_docs", "reader.fetch_docs")
    _patch(codecs.PostingList, "decode_all", "codecs.decode")
    _patch(codecs.PostingList, "decode_block", "codecs.decode")
    _patch(codecs, "varint_decode", "codecs.decode")
    _patch(web.ImportServer, "search", "web.search")
    _patch(web.ImportServer, "bulk", "web.bulk")
    _patch(bulk, "bulk_apply", "bulk.apply")
    _patch(build, "append_index", "build.append")
    # the chunk-builder closure runs in workers: wrap what this process
    # hands to Ray, so each chunk build is a span there
    orig = build.make_chunk_builder
    if not hasattr(orig, "__perfbench_wrapped__"):
        def make_chunk_builder(*a, **kw):
            return functools.partial(traced_call, "build.chunk", orig(*a, **kw))

        make_chunk_builder.__perfbench_wrapped__ = orig
        build.make_chunk_builder = make_chunk_builder


def install(span_dir: str) -> Tracer:
    """Turn tracing on in this process; Ray workers started afterwards by
    a ``ray.init`` carrying ``worker_hook`` as setup hook do the same."""
    global _active
    os.environ[SPAN_DIR_ENV] = span_dir
    _active = Tracer()
    _patch_local_layers()
    _patch_worker_layers()
    return _active


def worker_hook() -> None:
    global _active
    span_dir = os.environ.get(SPAN_DIR_ENV)
    if span_dir:
        _active = Tracer(os.path.join(span_dir, f"spans-{os.getpid()}.pkl"))
        _patch_worker_layers()


def read_worker_spans(span_dir: str) -> list[tuple]:
    spans = []
    for name in sorted(os.listdir(span_dir)):
        if name.startswith("spans-"):
            with open(os.path.join(span_dir, name), "rb") as f:
                while True:
                    try:
                        spans.extend(pickle.load(f))
                    except EOFError:
                        break
    return spans


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Span id → its duration minus the time its direct children cover
    (children of one span run one after another on its thread)."""
    child = {}
    for sid, parent, _n, t0, t1, _c, _th in spans:
        if parent:
            child[parent] = child.get(parent, 0) + (t1 - t0)
    return {s[0]: (s[4] - s[3]) - child.get(s[0], 0) for s in spans}
