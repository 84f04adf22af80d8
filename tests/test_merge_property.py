"""Property-based tests (hypothesis) of the windowed shard merge.

Random term-sorted chunk segments, written the way the chunk builder
writes them, are merged by ``SegmentMerger._merge_shard`` at several
window sizes. The merged shard must decode to each term's chunk lists
back to back, block-max ``min_dl`` of a field-qualified term must come
from that field's lengths, and the window size must not change a byte
of ``postings.parquet``."""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
from hypothesis import given, settings
from hypothesis import strategies as st

from excelastic_ray.analysis import field_key
from excelastic_ray.codecs import PostingList, decode_postings, encode_postings
from excelastic_ray.config import IndexConfig
from excelastic_ray.index import segments as seg
from excelastic_ray.index.build import SegmentMerger

FIELDS = ("role", "tool")
#: plain words, keys of indexed fields, and a key of a field without
#: its own lengths (its block-max falls back to the catch-all lengths)
VOCAB = sorted(
    [f"w{i}" for i in range(8)]
    + [field_key(f, f"v{i}") for f in FIELDS for i in range(3)]
    + [field_key("ghost", "x")]
)


def _lengths_of(term: str, dl: dict) -> np.ndarray:
    if term.startswith("\x01"):
        return dl.get(term[1:].split("\x1f", 1)[0], dl[None])
    return dl[None]


@st.composite
def shards(draw):
    codec = draw(st.sampled_from(["varint", "blockpack", "pfor"]))
    block_size = draw(st.sampled_from([2, 4, 128]))
    chunks = []
    for _ in range(draw(st.integers(2, 4))):
        n_docs = draw(st.integers(1, 24))
        dl = {k: np.asarray(draw(st.lists(st.integers(0, 60), min_size=n_docs,
                                          max_size=n_docs)), dtype=np.int64)
              for k in (None, *FIELDS)}
        terms = {}
        for term in draw(st.lists(st.sampled_from(VOCAB), unique=True,
                                  max_size=len(VOCAB))):
            ids = sorted(draw(st.sets(st.integers(0, n_docs - 1), min_size=1)))
            tfs = draw(st.lists(st.integers(1, 9), min_size=len(ids),
                                max_size=len(ids)))
            pos = draw(st.binary(max_size=6))
            terms[term] = (np.asarray(ids, dtype=np.int64),
                           np.asarray(tfs, dtype=np.int64), pos)
        chunks.append((n_docs, dl, terms))
    return codec, block_size, chunks


def _write_chunks(index_dir: str, chunks, codec: str, block_size: int) -> None:
    docid = 0
    for c, (n_docs, dl, terms) in enumerate(chunks):
        rows = {name: [] for name in seg.SEGMENT_SCHEMA.names}
        for term in sorted(terms):
            ids, tfs, pos = terms[term]
            p, b, nb = encode_postings(ids, tfs, _lengths_of(term, dl)[ids],
                                       codec, block_size)
            for name, v in zip(seg.SEGMENT_SCHEMA.names,
                               (term, len(ids), nb, p, b, pos)):
                rows[name].append(v)
        d = seg.chunk_dir(index_dir, c)
        seg.atomic_write_parquet(os.path.join(d, "postings.parquet"),
                                 pa.table(rows, schema=seg.SEGMENT_SCHEMA))
        docs = {"docid": np.arange(docid, docid + n_docs, dtype=np.int64),
                "dl": dl[None]}
        docs.update({f"dl@{f}": dl[f] for f in FIELDS})
        seg.atomic_write_parquet(os.path.join(d, "docs.parquet"), pa.table(docs))
        seg.write_done(d, {"n_docs": n_docs, "total_dl": int(dl[None].sum()),
                           "n_terms": len(terms)})
        docid += n_docs


@given(shards(), st.sampled_from([(None, None), (1, 2), (200, 3)]))
@settings(max_examples=60, deadline=None)
def test_windowed_merge_property(shard, flush):
    codec, block_size, chunks = shard
    cfg = IndexConfig(codec=codec, block_size=block_size).to_dict()
    n_rows = sum(len(terms) for _, _, terms in chunks)
    with tempfile.TemporaryDirectory() as root:
        src = os.path.join(root, "src")
        _write_chunks(src, chunks, codec, block_size)
        files = []
        for w in sorted({1, 2, 3, max(n_rows, 1)}):
            d = os.path.join(root, f"w{w}")
            os.makedirs(d)
            os.symlink(os.path.join(src, "segments"),
                       os.path.join(d, "segments"))
            merger = SegmentMerger(d, cfg, flush_bytes=flush[0],
                                   flush_terms=flush[1])
            merger.WINDOW_ROWS = w
            merger._merge_shard(0, list(range(len(chunks))))
            files.append(os.path.join(seg.shard_dir(d, 0), "postings.parquet"))
        blobs = [open(f, "rb").read() for f in files]
        assert all(b == blobs[0] for b in blobs[1:])
        got = pq.read_table(files[0]).to_pylist()
    offsets = np.cumsum([0] + [n for n, _, _ in chunks])
    shard_dl = {k: np.concatenate([dl[k] for _, dl, _ in chunks])
                for k in (None, *FIELDS)}
    want_terms = sorted({t for _, _, terms in chunks for t in terms})
    assert [r["term"] for r in got] == want_terms
    for row in got:
        term = row["term"]
        parts = [(terms[term], off) for (_, _, terms), off
                 in zip(chunks, offsets) if term in terms]
        ids = np.concatenate([p[0] + off for p, off in parts])
        tfs = np.concatenate([p[1] for p, _ in parts])
        assert row["df"] == len(ids)
        assert row["positions"] == b"".join(p[2] for p, _ in parts)
        got_ids, got_tfs = decode_postings(row["postings"], codec, block_size)
        assert got_ids.tolist() == ids.tolist()
        assert got_tfs.tolist() == tfs.tolist()
        pl = PostingList(row["postings"], row["blockmax"], codec, block_size)
        assert pl.n_blocks == row["n_blocks"] == -(-len(ids) // block_size)
        lengths = _lengths_of(term, shard_dl)
        for k in range(pl.n_blocks):
            blk = slice(k * block_size, (k + 1) * block_size)
            b_ids, b_tfs = pl.decode_block(k)
            assert b_ids.tolist() == ids[blk].tolist()
            assert pl.bm[k]["min_dl"] == lengths[ids[blk]].min()
            assert pl.bm[k]["max_tf"] == tfs[blk].max()
