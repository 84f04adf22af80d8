"""One benchmark run, in a process of its own (started by ``run.py``).

The workload names the corpus shape (``gen.SHAPES``); every input is made
from it and ``--seed``. A run goes CYCLES times through four phases, in
this order:

- ``build``, the cycle's set-up: the corpus written as Parquet and indexed
  by a cold ``build_index``;
- ``search``: open a ``QueryEngine`` on that index, then the query mix from
  one client and from one client per core;
- ``bulk_mixed``: an ``ImportServer`` on a copy of that index, HTTP
  ``/api/bulk`` rounds interleaved with HTTP ``/api/search``;
- ``aggregate``: the pipeline set over the corpus as a Ray Dataset.

Each phase runs one whole round a cycle; the search phase's single-client
and multi-client parts repeat whole rounds until each has had half of
``--seconds / CYCLES``. Every run reports every end-to-end metric. Answers
are checked against ``oracle``; a wrong answer or an exception is one
failed operation and the run goes on. Besides the result, stderr gets
per-cycle medians (and 99th percentiles), the host's CPU steal in each
cycle and the run's raw samples.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import http.client
import json
import logging
import math
import os
import shutil
import statistics
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracle as orc  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = tuple(gen.SHAPES)
K = 10
CYCLES = 3
#: distinct queries a cycle sends; each cycle sends its own, so the slowest
#: 1% of a run's searches is many different queries
QUERIES_PER_CYCLE = 400
#: queries in one closed-loop sample of the multi-client throughput; short
#: samples let the median pass over bursts of CPU steal on a shared host
QPS_WINDOW = 50
#: a bulk's time swings by up to 3x from one to the next on a busy host;
#: two a cycle give the median six samples
BULK_ROUNDS = 2
#: query-mix searches per bulk round, after one marker search per new
#: document
HTTP_POOL_SEARCHES = 100
MB = 1 << 20


def now() -> int:
    return time.perf_counter_ns()


class Tally:
    """Operation counts, written to ``progress_path`` at each round start so
    the supervisor can count a round that never ends as failed."""

    def __init__(self, progress_path: str):
        self.attempted = self.failed = self.wrong = 0
        self.path = progress_path
        self._lock = threading.Lock()
        self.round(0)

    def round(self, pending: int) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            json.dump({"attempted": self.attempted, "failed": self.failed,
                       "correct": self.wrong == 0, "pending": pending}, f)
        os.replace(tmp, self.path)

    def ok(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, what: str, why: str, wrong: bool = True) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1
            self.wrong += wrong
            if self.failed <= 20:
                print(f"FAILED {what}: {why}", file=sys.stderr)

    def check(self, what: str, err: str | None) -> None:
        if err is None:
            self.ok()
        else:
            self.fail(what, err)


def cores() -> int:
    """Cores in this process's CPU affinity set, at most 4 (``nproc``
    follows OMP_NUM_THREADS, not the cores the process may use)."""
    return min(4, len(os.sched_getaffinity(0)))


def rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def steal_ticks() -> int:
    with open("/proc/stat") as f:
        return int(f.readline().split()[8])


def release_free_memory() -> None:
    """Hand freed heap and Arrow pool memory back to the OS, so the next
    RSS reading counts live memory only."""
    import ctypes

    import pyarrow as pa

    pa.default_memory_pool().release_unused()
    ctypes.CDLL("libc.so.6").malloc_trim(0)


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def pct(values, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def hits_of(table) -> list[tuple]:
    d = table.to_pydict()
    return list(zip(d["conv_id"], d["turn_idx"], d["score"]))


class Run:
    """One run: CYCLES cycles of the four phases, the first of which is the
    cycle's set-up, so that a burst of load from outside the run hits some
    samples of every metric rather than all samples of one; each metric is
    a median, or a percentile over the latencies pooled from all cycles."""

    def __init__(self, args, tally: Tally, tracer):
        self.args, self.tally, self.tracer = args, tally, tracer
        self.tmp = args.tmp
        self.metrics: dict[str, tuple[float, str]] = {}
        self.samples: dict[str, list] = defaultdict(list)
        self.phases: dict[str, list[tuple[int, int]]] = defaultdict(list)
        self.build_results: list = []
        self.clients = cores()
        self.shape = gen.SHAPES[args.workload]

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def repeat(self, run_round, share: float) -> None:
        """Whole rounds until ``share`` of this cycle's part of
        ``--seconds`` has passed; at least one."""
        deadline = now() + int(self.args.seconds / CYCLES * share * 1e9)
        n = 0
        while n == 0 or now() < deadline:
            run_round(n)
            n += 1

    def index_config(self):
        from excelastic_ray.config import IndexConfig

        # 8 chunks over 4 shards: every shard merges two
        return IndexConfig(num_shards=4,
                           convs_per_chunk_bits=self.shape.convs_per_chunk_bits)

    def phase(self, name: str, fn, *a) -> None:
        t0 = now()
        with self.span(f"phase.{name}"):
            fn(*a)
        self.phases[name].append((t0, now()))
        print(f"perfbench: {name} {(now() - t0) / 1e9:.2f} s", file=sys.stderr)

    # -- preparation, untimed ----------------------------------------------

    def prepare_inputs(self) -> None:
        """Inputs and their independent answers; needs no Ray, so it runs
        while Ray starts."""
        table = self.table = gen.corpus(self.args.seed, self.shape)
        self.text_bytes = sum(len(t.encode()) for t in table["text"].to_pylist())
        self.index_dir = os.path.join(self.tmp, "index", "main")
        self.corpus_dir = gen.write_parquet(table, os.path.join(self.tmp, "corpus"))
        self.oracle = orc.SearchOracle.from_table(table)
        self.pool, self.stream = gen.queries(self.args.seed, self.oracle.tokens,
                                             QUERIES_PER_CYCLE * CYCLES)
        self.expected = [self.oracle.answer(q, K) for q in self.pool]
        self.agg_expected = orc.aggregate_twins(os.path.join(self.corpus_dir, "*.parquet"))

    # -- build: the cycle's set-up -----------------------------------------

    def phase_build(self, cycle: int) -> None:
        """Timed as a ``setup_s`` sample: the corpus written as Parquet
        and indexed."""
        from excelastic_ray.index.build import build_index

        self.tally.round(1)
        t0 = now()
        try:
            corpus_dir = gen.write_parquet(self.table, os.path.join(self.tmp, f"corpus{cycle}"))
            with self.span("op.build"):
                t1 = now()
                res = build_index(corpus_dir, self.index_dir, self.index_config(), clear=True)
                t2 = now()
        except Exception as e:  # noqa: BLE001 — counted, run goes on
            self.tally.fail("build", repr(e), wrong=False)
            raise RuntimeError("no index to search") from e
        self.samples["setup_s"].append((t2 - t0) / 1e9)
        self.samples["build_turns_per_s"].append(res.n_docs / ((t2 - t1) / 1e9))
        self.samples["index_size_ratio"].append(dir_bytes(self.index_dir) / self.text_bytes)
        self.build_results.append(res)
        self.tally.check("build", orc.check_build(res.n_docs, self.table.num_rows))

    # -- search ------------------------------------------------------------

    def _query(self, eng, qi: int):
        q = self.pool[qi]
        if q["kind"] == "phrase":
            return eng.search_phrase(q["q"], K)
        if q["kind"] == "bool":
            return eng.search_bool(must=q["must"], should=q["should"],
                                   must_not=q["must_not"], k=K)
        return eng.search(q["q"], K, mode=q["kind"])

    def _check_search(self, qi: int, hits) -> None:
        q = self.pool[qi]
        self.tally.check(f"search {q}", self.oracle.check(q, hits, K, self.expected[qi]))

    def _search_checked(self, eng, qi: int) -> int | None:
        """One timed query, checked after the clock stops → latency in ns,
        or None when it raised."""
        t0 = now()
        try:
            with self.span("op.search"):
                out = self._query(eng, qi)
        except Exception as e:  # noqa: BLE001
            self.tally.fail(f"search {self.pool[qi]}", repr(e), wrong=False)
            return None
        dt = now() - t0
        self._check_search(qi, hits_of(out))
        return dt

    def phase_search(self, cycle: int) -> None:
        from excelastic_ray.query.engine import QueryEngine

        stream = self.stream[cycle::CYCLES]
        gc.collect()
        release_free_memory()
        rss0 = rss_bytes()
        with self.span("op.open"):  # every shard, before the first query
            eng = QueryEngine(self.index_dir)
            for s in range(eng.reader.num_shards):
                eng.reader.searcher(s)
        # one untimed pass fills the decode caches; resident memory is read
        # after it, before any result is kept. Only the first engine of the
        # run is weighed: later ones reuse heap the earlier ones freed.
        self.tally.round(len(stream))
        for qi in stream:
            self._search_checked(eng, qi)
        if cycle == 0:
            gc.collect()
            release_free_memory()
            self.samples["serve_rss_mb"].append((rss_bytes() - rss0) / MB)

        lat = self.samples["search_ms"]

        def single(_):
            self.tally.round(len(stream))
            for qi in stream:
                t = self._search_checked(eng, qi)
                if t is not None:
                    lat.append(t / 1e6)

        t0 = now()
        self.repeat(single, share=0.5)
        self.phases["search.single"].append((t0, now()))

        # one closed-loop client per core; a round sends the stream in
        # windows of QPS_WINDOW queries, each client an interleaved share
        # of the window, and each window is one throughput sample
        per_client: list[list] = [[] for _ in range(self.clients)]

        def clients(_):
            self.tally.round(len(stream))
            for w in range(0, len(stream), QPS_WINDOW):
                window = stream[w:w + QPS_WINDOW]
                threads = [threading.Thread(target=client, args=(c, window[c::self.clients]))
                           for c in range(self.clients)]
                t0 = now()
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                self.samples["search_qps"].append(len(window) / ((now() - t0) / 1e9))

        def client(c: int, qis: list[int]) -> None:
            mine = per_client[c]
            for qi in qis:
                try:
                    with self.span("op.search_mt"):
                        mine.append((qi, self._query(eng, qi)))
                except Exception as e:  # noqa: BLE001
                    mine.append((qi, e))

        self.repeat(clients, share=0.5)
        for mine in per_client:
            for qi, out in mine:
                if isinstance(out, Exception):
                    self.tally.fail(f"search {self.pool[qi]}", repr(out), wrong=False)
                else:
                    self._check_search(qi, hits_of(out))

    # -- bulk_mixed --------------------------------------------------------

    def _http(self, method: str, path: str, body: bytes | None = None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            conn.request(method, path, body=body)
            r = conn.getresponse()
            return r.status, json.loads(r.read())
        finally:
            conn.close()

    def _http_query(self, q: dict) -> str:
        from urllib.parse import urlencode

        p = {"index": "main", "k": K}
        if q["kind"] == "bool":
            p.update(q=q["should"], must=q["must"], must_not=q["must_not"])
        else:
            p["q"] = q["q"]
            if q["kind"] == "phrase":
                p["phrase"] = 1
        return "/api/search?" + urlencode(p)

    def _timed_http(self, path: str, what: str):
        """GET ``path`` → (latency ns, status, body), or None when it raised."""
        t0 = now()
        try:
            with self.span("op.http_search"):
                status, out = self._http("GET", path)
        except Exception as e:  # noqa: BLE001
            self.tally.fail(what, repr(e), wrong=False)
            return None
        return now() - t0, status, out

    def phase_bulk(self, cycle: int) -> None:
        """BULK_ROUNDS rounds against a fresh copy of the built index (the
        search phase keeps the original), each one HTTP bulk of new
        conversations, a search for each new document's marker (the
        first one times the refresh), a count, then HTTP_POOL_SEARCHES
        searches from the query mix."""
        from excelastic_ray.web import ImportServer

        root = os.path.join(self.tmp, f"bulk{cycle}")
        shutil.copytree(self.index_dir, os.path.join(root, "main"))
        server = ImportServer(root).start()
        self.port = server.port
        pool_qis = [qi for qi in self.stream[cycle::CYCLES] if self.pool[qi]["kind"] != "and"]
        lat = self.samples["http_search_ms"]
        searches = []  # (docs inserted before it, qi, hits): checked at the end
        inserted: list[dict] = []

        def one(r: int) -> None:
            docs = gen.bulk_batch(self.args.seed, cycle * 1000 + r, self.shape)
            self.tally.round(1 + len(docs) + 1 + HTTP_POOL_SEARCHES)
            body = "".join(
                json.dumps({"index": {"conv_id": d["conv_id"], "turn_idx": d["turn_idx"]}})
                + "\n" + json.dumps({k: v for k, v in d.items() if k != "marker"}) + "\n"
                for d in docs).encode()
            t0 = now()
            try:
                with self.span("op.bulk"):
                    status, out = self._http("POST", "/api/bulk?index=main", body)
            except Exception as e:  # noqa: BLE001
                self.tally.fail("bulk", repr(e), wrong=False)
                return
            self.samples["bulk_docs_per_s"].append(len(docs) / ((now() - t0) / 1e9))
            self.tally.check("bulk", orc.check_bulk(status, out, docs))
            inserted.extend(docs)
            for i, d in enumerate(docs):
                got = self._timed_http(f"/api/search?index=main&k={K}&q={d['marker']}",
                                       "marker search")
                if got is not None:
                    if i == 0:
                        self.samples["refresh_ms"].append(got[0] / 1e6)
                    self.tally.check("marker search", orc.check_marker(got[2].get("hits", []), d))
            try:
                status, out = self._http("GET", f"/api/count?index=main&q={gen.BULK_TOKEN}")
                self.tally.check("count", orc.check_count(out, len(inserted)))
            except Exception as e:  # noqa: BLE001
                self.tally.fail("count", repr(e), wrong=False)
            for j in range(HTTP_POOL_SEARCHES):
                qi = pool_qis[(r * HTTP_POOL_SEARCHES + j) % len(pool_qis)]
                got = self._timed_http(self._http_query(self.pool[qi]), "http search")
                if got is not None:
                    lat.append(got[0] / 1e6)
                    hits = got[2].get("hits") if got[1] == 200 else None
                    searches.append((len(inserted), qi, hits and [
                        (h["conv_id"], h["turn_idx"], h["score"]) for h in hits]))

        try:
            for r in range(BULK_ROUNDS):
                one(r)
        finally:
            server.stop()
        self._check_http_searches(searches, inserted)

    def _check_http_searches(self, searches, inserted) -> None:
        """Each HTTP search against BM25 over the corpus plus the documents
        inserted before it."""
        t = self.table
        oracles: dict[int, orc.SearchOracle] = {}
        answers: dict[tuple[int, int], tuple] = {}
        for n_new, qi, hits in searches:
            q = self.pool[qi]
            if hits is None:
                self.tally.fail(f"http search {q}", "error response", wrong=False)
                continue
            o = oracles.get(n_new)
            if o is None:
                new = inserted[:n_new]
                o = oracles[n_new] = orc.SearchOracle(
                    t["conv_id"].to_pylist() + [d["conv_id"] for d in new],
                    t["turn_idx"].to_pylist() + [d["turn_idx"] for d in new],
                    self.oracle.tokens + [orc.tokenize(d["text"]) for d in new])
            if (n_new, qi) not in answers:
                answers[n_new, qi] = o.answer(q, K)
            self.tally.check(f"http search {q}", o.check(q, hits, K, answers[n_new, qi]))

    # -- aggregate ---------------------------------------------------------

    def phase_aggregate(self, cycle: int) -> None:
        from excelastic_ray.pipelines.aggtree import agg_tree_fanout
        from excelastic_ray.pipelines.convs import conv_stats
        from excelastic_ray.pipelines.textstats import term_df

        pipes = (("conv_stats", conv_stats), ("term_df", term_df),
                 ("agg_tree_fanout", lambda ds: agg_tree_fanout(ds, orc.FANOUT_SPEC)))

        self.tally.round(len(pipes))
        t0 = now()
        for name, fn in pipes:
            try:
                with self.span(f"pipelines.{name}"):
                    out = fn(self.ds).to_pandas()
            except Exception as e:  # noqa: BLE001
                self.tally.fail(name, repr(e), wrong=False)
                continue
            self.tally.check(name, orc.compare_frames(
                orc.canon(name, out), self.agg_expected[name]))
            if name == "conv_stats":
                # rows the pass read, as the pipeline itself counted them
                self.samples["pipeline_rows_in"].append(int(out["n_turns"].sum()))
        self.samples["aggregate_s"].append((now() - t0) / 1e9)

    def run(self) -> None:
        import ray.data as rd

        # reading the corpus into a Ray Dataset also starts Ray's workers,
        # before any timed call
        self.ds = rd.read_parquet(self.corpus_dir).materialize()
        # the oracle's object graph is large and lives all run: keep the
        # cyclic collector from walking it during timed calls
        gc.collect()
        gc.freeze()
        phases = (("build", self.phase_build), ("search", self.phase_search),
                  ("bulk_mixed", self.phase_bulk), ("aggregate", self.phase_aggregate))
        for cycle in range(CYCLES):
            marks = {k: len(v) for k, v in self.samples.items()}
            steal0 = steal_ticks()
            for name, fn in phases:
                self.phase(name, fn, cycle)
            per = {k: v[marks.get(k, 0):] for k, v in self.samples.items()}
            print("perfbench-cycle: " + json.dumps({
                "steal": steal_ticks() - steal0,
                **{k: [statistics.median(v), pct(v, 0.99) if len(v) > 50 else max(v), len(v)]
                   for k, v in per.items() if v}}), file=sys.stderr)
        med = statistics.median
        s = self.samples
        print("perfbench-samples: " + json.dumps(s), file=sys.stderr)
        for name, unit in (("setup_s", "s"), ("build_turns_per_s", "turns/s"),
                           ("index_size_ratio", "ratio"),
                           ("serve_rss_mb", "MB"),
                           ("search_qps", "1/s"), ("bulk_docs_per_s", "docs/s"),
                           ("refresh_ms", "ms"), ("aggregate_s", "s")):
            if s[name]:
                self.put(name, med(s[name]), unit)
        if s["search_ms"]:
            self.put("search_p50_ms", med(s["search_ms"]), "ms")
            self.put("search_p99_ms", pct(s["search_ms"], 0.99), "ms")
        if s["http_search_ms"]:
            self.put("http_search_p50_ms", med(s["http_search_ms"]), "ms")


def init_ray(tmp: str, trace: bool) -> None:
    import ray
    import ray.data as rd

    kw = {}
    if trace:
        kw["runtime_env"] = {"worker_process_setup_hook": "tracing.worker_hook"}
    # never fewer than 2: build_index does not finish on one CPU
    ray.init(address="local", num_cpus=max(2, cores()), include_dashboard=False,
             logging_level="ERROR", object_store_memory=400 * MB,
             _temp_dir=ray_temp_dir(tmp), **kw)
    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def ray_temp_dir(tmp: str) -> str:
    """Ray puts unix sockets about 64 bytes deep under its temp dir, and a
    socket path may not exceed 107 bytes: a deep checkout falls back to a
    directory under /tmp (removed by run.py like the rest)."""
    path = os.path.join(tmp, "ray")
    if len(path) > 43:
        import tempfile

        path = tempfile.mkdtemp(prefix="pbray")
        with open(os.path.join(tmp, "ray_dir"), "w") as f:
            f.write(path)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tmp", required=True)
    args = ap.parse_args(argv)

    import selftest

    tally = Tally(os.path.join(args.tmp, "progress.json"))
    tracer = None
    if args.trace:
        span_dir = os.path.join(args.tmp, "spans")
        os.makedirs(span_dir)
        tracer = tracing.install(span_dir)
    run = Run(args, tally, tracer)

    def untimed() -> None:
        os.makedirs(os.path.join(args.tmp, "selftest"))
        selftest.run(os.path.join(args.tmp, "selftest"))  # raises if a check misses
        run.prepare_inputs()

    t0 = now()
    with ThreadPoolExecutor(1) as ex:
        prepared = ex.submit(untimed)
        init_ray(args.tmp, bool(args.trace))
        prepared.result()
    print(f"perfbench: ray.init and inputs {(now() - t0) / 1e9:.2f} s", file=sys.stderr)
    import ray

    try:
        run.run()
    finally:
        t0 = now()
        ray.shutdown()
        print(f"perfbench: ray.shutdown {(now() - t0) / 1e9:.2f} s", file=sys.stderr)
    if args.trace:
        import layers

        metrics = layers.per_layer(run, tracer.spans,
                                   tracing.read_worker_spans(span_dir))
        print("end-to-end under tracing: " + json.dumps(
            {k: v[0] for k, v in run.metrics.items()}), file=sys.stderr)
    else:
        print("end-to-end: " + json.dumps({k: v[0] for k, v in run.metrics.items()}),
              file=sys.stderr)
        metrics = run.metrics
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(args.tmp, "result.json"), "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
