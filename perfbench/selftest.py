"""Shows that each answer check catches a wrong answer.

Every check is fed the right answer, which it must pass, and a broken copy
(a score moved by 1e-6, two hits swapped, a dropped bulk document, one
altered aggregate row, ...), which it must report. Needs no Ray and no
engine; every benchmark run calls ``run`` first. Standalone:
``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
import layers  # noqa: E402
import oracle as orc  # noqa: E402
import tracing  # noqa: E402


class SelfTestError(AssertionError):
    pass


def _bites(name: str, err_right, err_broken) -> None:
    if err_right is not None:
        raise SelfTestError(f"{name}: right answer rejected: {err_right}")
    if err_broken is None:
        raise SelfTestError(f"{name}: broken answer accepted")


def _search_cases(o: orc.SearchOracle, pool: list[dict]) -> int:
    n = 0
    for q in pool:
        top, scores = o.answer(q, 10)
        distinct = [i for i in range(len(top) - 1) if top[i][2] != top[i + 1][2]]
        if not distinct:
            continue
        i = distinct[0]
        moved = list(top)
        c, t, s = moved[i]
        moved[i] = (c, t, s + 1e-6)
        _bites(f"{q} score+1e-6", o.check(q, top, 10), o.check(q, moved, 10))
        swapped = list(top)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        _bites(f"{q} swapped", None, o.check(q, swapped, 10))
        _bites(f"{q} dropped hit", None, o.check(q, top[:-1], 10))
        n += 1
    return n


def _tracing_cases() -> None:
    """A wrapped call inside a span of its own name adds no span (no time
    or count summed twice); one under another name does. The unattributed
    share counts overlapping spans once."""
    tr = tracing.Tracer()
    inner = tracing._timed("codecs.decode", lambda n: n)
    outer = tracing._timed("codecs.decode", lambda n: inner(n) + inner(n))
    other = tracing._timed("shard.decoded", inner)
    saved, tracing._active = tracing._active, tr
    try:
        outer(1)
        other(1)
    finally:
        tracing._active = saved
    names = sorted(s[2] for s in tr.spans)
    if names != ["codecs.decode", "codecs.decode", "shard.decoded"]:
        raise SelfTestError(f"nested spans of one name counted apart: {names}")
    spans = [(1, 0, "a", 10, 30, 0, 0), (2, 0, "b", 20, 40, 0, 0)]
    if abs(layers.unattributed([(0, 100)], spans) - 0.7) > 1e-12:
        raise SelfTestError("overlapping spans counted twice as attributed")


def run(scratch: str) -> None:
    """``scratch``: an empty directory for a small Parquet file."""
    _tracing_cases()
    shape = gen.SHAPES["short_turns"]
    table = gen.corpus(7, shape, 40)
    o = orc.SearchOracle.from_table(table)
    pool, _ = gen.queries(7, o.tokens, n_distinct=40)
    kinds = {q["kind"] for q in pool}
    if _search_cases(o, pool) < 10 or kinds != {"or", "and", "phrase", "bool"}:
        raise SelfTestError("too few query cases exercised")
    # a bool hit that holds the must_not term
    q = {"kind": "bool", "must": "the", "should": "", "must_not": "and"}
    row = next(i for i, t in enumerate(o.tokens) if {"the", "and"} <= set(t))
    bad = [(*o.keys[row], 1.0)]
    if o.bool_violation(q, bad) is None:
        raise SelfTestError("bool hit holding a must_not term accepted")

    _bites("build n_docs", orc.check_build(5, 5), orc.check_build(4, 5))
    docs = gen.bulk_batch(7, 0, shape)
    items = {"items": [{"op": "index", "status": "ok"} for _ in docs]}
    _bites("bulk dropped doc", orc.check_bulk(200, items, docs),
           orc.check_bulk(200, {"items": items["items"][1:]}, docs))
    _bites("bulk item error", None, orc.check_bulk(
        200, {"items": items["items"][:-1] + [{"status": "error"}]}, docs))
    d = docs[0]
    _bites("marker", orc.check_marker([{"conv_id": d["conv_id"], "turn_idx": 0}], d),
           orc.check_marker([], d))
    _bites("count", orc.check_count({"count": 9}, 9), orc.check_count({"count": 8}, 9))

    gen.write_parquet(table, scratch, n_files=2)
    twins = orc.aggregate_twins(os.path.join(scratch, "*.parquet"))
    alter = {"conv_stats": "n_tokens", "term_df": "df", "agg_tree_fanout": "doc_count"}
    for name, col in alter.items():
        right = twins[name]
        broken = right.copy()
        broken.loc[len(broken) // 2, col] += 1
        _bites(f"{name} altered row", orc.compare_frames(right.copy(), right),
               orc.compare_frames(broken, right))
        _bites(f"{name} dropped row", None, orc.compare_frames(right.iloc[1:], right))
    avg = twins["agg_tree_fanout"].copy()
    i = int(avg["avg_turn"].first_valid_index())
    avg.loc[i, "avg_turn"] += 1e-5
    _bites("fanout avg", None, orc.compare_frames(avg, twins["agg_tree_fanout"]))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="pbselftest") as tmp:
        run(tmp)
    print("selftest: every check caught its broken answer")
