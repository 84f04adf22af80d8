"""Seeded inputs for the benchmark: transcript corpus, query mix, bulk batches.

Everything here depends only on numpy/pyarrow and the seed, never on the
engine package, so a change to the program cannot change what it is fed.
The corpus keeps the shape of the root ``bench.py`` corpus: a Zipf
vocabulary, stopword-like hot tokens, df=1 marker tokens and rows shuffled
on disk, so (conv_id, turn_idx) order is never the physical order.
"""

from __future__ import annotations

import os
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

HOT = ("the", "to", "a", "and", "of", "call", "run", "ok")
ROLES = ("user", "assistant", "system", "tool")
TOOLS = ("search", "code", "browser", "files", "shell", "sql", "fetch", "math")
VOCAB = 20_000
EPOCH_US = int(np.datetime64("2026-01-01T00:00:00", "us").astype(np.int64))
#: token carried by every bulk document, so ``/api/count?q=bulkdoc`` counts
#: exactly the documents the benchmark inserted
BULK_TOKEN = "bulkdoc"


class Shape(NamedTuple):
    """Corpus make-up of a workload: conversation count, turns per
    conversation (uniform, inclusive), the lognormal turn length in tokens
    (median, sigma, clip) and the conversations per build chunk (log2)."""

    n_convs: int
    turns: tuple[int, int]
    median_tokens: int
    sigma: float
    clip: tuple[int, int]
    convs_per_chunk_bits: int


#: the two workloads hold about the same number of tokens (~370k), cut
#: into ~10.5k chat-sized turns or ~1.8k tool-output-sized ones; either
#: builds 8 chunks, so each of 4 shards merges two
SHAPES = {
    "short_turns": Shape(500, (2, 40), 30, 0.6, (5, 200), 6),
    "long_turns": Shape(256, (2, 12), 180, 0.5, (40, 1500), 5),
}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _zipf_words(rng: np.random.Generator, n: int) -> np.ndarray:
    ids = rng.zipf(1.3, size=n) % VOCAB
    words = np.array([f"w{i:05d}" for i in range(VOCAB)], dtype=object)
    toks = words[ids]
    hot = rng.random(n) < 0.15
    toks[hot] = np.array(HOT, dtype=object)[rng.integers(0, len(HOT), int(hot.sum()))]
    return toks


def _turn_texts(rng: np.random.Generator, n_rows: int, shape: Shape,
                extra=None) -> list[str]:
    n_tok = np.clip(rng.lognormal(np.log(shape.median_tokens), shape.sigma, n_rows)
                    .astype(np.int64), *shape.clip)
    toks = _zipf_words(rng, int(n_tok.sum())).tolist()
    rare = rng.random(n_rows) < 0.02
    offs = np.concatenate(([0], np.cumsum(n_tok)))
    out = []
    for i in range(n_rows):
        row = toks[offs[i]:offs[i + 1]]
        if rare[i]:
            row = row + [f"rare{rng.integers(1 << 40):x}z{i}"]  # df == 1
        if extra is not None:
            row = row + extra[i]
        out.append(" ".join(row))
    return out


def corpus(seed: int, shape: Shape, n_convs: int | None = None) -> pa.Table:
    """Transcript table (conv_id, turn_idx, role, text, tool, ts), rows
    shuffled; ``n_convs`` overrides the shape's conversation count."""
    rng = _rng(seed, 1)
    n_convs = n_convs or shape.n_convs
    turns = rng.integers(shape.turns[0], shape.turns[1] + 1, size=n_convs)
    n = int(turns.sum())
    conv = np.repeat(np.arange(n_convs), turns)
    turn_idx = np.concatenate([np.arange(k) for k in turns]).astype(np.int32)
    roles = np.array(ROLES, dtype=object)[turn_idx % len(ROLES)]
    tools = np.where(roles == "tool",
                     np.array(TOOLS, dtype=object)[rng.integers(0, len(TOOLS), n)],
                     None)
    ts = EPOCH_US + conv.astype(np.int64) * 86_400_000_000 // 7 \
        + turn_idx.astype(np.int64) * 60_000_000
    table = pa.table({
        "conv_id": pa.array([f"c{i:06d}" for i in conv], pa.string()),
        "turn_idx": pa.array(turn_idx, pa.int32()),
        "role": pa.array(roles, pa.string()),
        "text": pa.array(_turn_texts(rng, n, shape), pa.string()),
        "tool": pa.array(tools, pa.string()),
        "ts": pa.array(ts, pa.timestamp("us")),
    })
    return table.take(pa.array(rng.permutation(n)))


def write_parquet(table: pa.Table, path: str, n_files: int = 4) -> str:
    os.makedirs(path, exist_ok=True)
    per = -(-table.num_rows // n_files)
    for i in range(n_files):
        part = table.slice(i * per, per)
        if part.num_rows:
            pq.write_table(part, os.path.join(path, f"part-{i:05d}.parquet"))
    return path


def queries(seed: int, tokens: list[list[str]], n_distinct: int
            ) -> tuple[list[dict], list[int]]:
    """A pool of distinct queries and the stream that sends each once.

    Pool make-up: 40% match-or (1-3 terms), 25% match-and (2 terms), 20%
    phrase (2-3 adjacent tokens cut from a random turn), 15% bool (one
    must, one or two should, one must_not hot token). Terms are drawn by
    Zipf rank, so hot terms recur across queries: the skewed term traffic
    of streaming top-k term workloads."""
    rng = _rng(seed, 2)

    def word(lo: int = 0) -> str:
        if lo == 0 and rng.random() < 0.3:
            return HOT[rng.integers(len(HOT))]
        return f"w{lo + int(rng.zipf(1.3)) % (VOCAB - lo):05d}"

    kinds = (["or"] * 40 + ["and"] * 25 + ["phrase"] * 20 + ["bool"] * 15)
    pool = []
    for i in range(n_distinct):
        kind = kinds[i * len(kinds) // n_distinct]
        if kind == "or":
            q = {"kind": "or", "q": " ".join(word() for _ in range(rng.integers(1, 4)))}
        elif kind == "and":
            q = {"kind": "and", "q": f"{word(10)} {word()}"}
        elif kind == "phrase":
            while True:
                row = tokens[rng.integers(len(tokens))]
                n = int(rng.integers(2, 4))
                if len(row) >= n:
                    p = int(rng.integers(len(row) - n + 1))
                    q = {"kind": "phrase", "q": " ".join(row[p:p + n])}
                    break
        else:
            q = {"kind": "bool", "must": word(1),
                 "should": " ".join(word() for _ in range(rng.integers(1, 3))),
                 "must_not": HOT[rng.integers(len(HOT))]}
        pool.append(q)
    return pool, [int(i) for i in rng.permutation(n_distinct)]


def bulk_batch(seed: int, rnd: int, shape: Shape, n_convs: int = 4) -> list[dict]:
    """New conversations for bulk round ``rnd``: 3-6 turns each, text
    drawn like the corpus of ``shape``. Every turn carries ``BULK_TOKEN``
    and a marker token unique to it."""
    rng = _rng(seed, 1000 + rnd)
    turns = rng.integers(3, 7, size=n_convs)
    n = int(turns.sum())
    markers = [f"mk{seed}x{rnd}x{i}" for i in range(n)]
    texts = _turn_texts(rng, n, shape, extra=[[BULK_TOKEN, m] for m in markers])
    docs, i = [], 0
    for c in range(n_convs):
        for t in range(int(turns[c])):
            role = ROLES[t % len(ROLES)]
            docs.append({
                "conv_id": f"n{seed}r{rnd:05d}c{c:02d}", "turn_idx": t,
                "role": role, "text": texts[i],
                "tool": TOOLS[rng.integers(len(TOOLS))] if role == "tool" else None,
                "ts": str(np.datetime64(EPOCH_US + rnd * 3_600_000_000 + t * 60_000_000, "us")),
                "marker": markers[i],
            })
            i += 1
    return docs
