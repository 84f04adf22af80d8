"""Posting-list compression codecs + block-max skip metadata.

The reference stores no postings (Elasticsearch does); this module is the
native replacement for Lucene's postings format that the reference relies
on (``/root/reference/README.md:3``). Two codecs:

- ``varint``   — delta + LEB128 varint (vectorized numpy encode/decode).
- ``blockpack``— delta + per-block fixed-width packing (1/2/4/8-byte
  little-endian lanes per skip block), a PForDelta-simplified layout that
  trades a little compression for frombuffer-speed decode.

A posting list for one (term, segment) is two parallel streams —
doc-ordinal deltas and term frequencies — each encoded per *skip block*
of ``block_size`` postings, so a block can be decoded (or skipped)
independently. Postings reference docs by their ORDINAL in the owning
segment's sorted doc table (the Lucene per-segment-docid design): doc
lengths live once in the doc table, not per posting, so the third
stream disappears and scoring gathers dl by ordinal. Per-block skip
metadata ("block-max"):

    last_id   int64   — last doc ordinal in the block (skip pointer)
    max_tf    int32   — max term frequency in the block
    min_dl    int32   — min doc length in the block (for score bounds)
    off_d/tf  int32   — byte offsets of the block in each stream

``max_tf`` with ``min_dl`` give an upper bound on the BM25 contribution of
any posting in the block (BM25 is increasing in tf, decreasing in dl),
which is what the or_skip scorer prunes with — valid without knowing avgdl
at build time.
"""

from __future__ import annotations

import numpy as np

BLOCKMAX_DTYPE = np.dtype(
    [
        ("last_id", "<i8"),
        ("max_tf", "<i4"),
        ("min_dl", "<i4"),
        ("off_d", "<i4"),
        ("off_tf", "<i4"),
        ("count", "<i4"),
    ]
)

_PACK_WIDTHS = (1, 2, 4, 8)


# ---------------------------------------------------------------------------
# varint (LEB128), vectorized
# ---------------------------------------------------------------------------

def varint_encode(a: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Encode a non-negative int array as LEB128. Returns (buf,
    start_offsets) where start_offsets[i] is the byte offset of element i.
    Fully vectorized (10 fixed passes over byte slots, no per-element loop).
    """
    a = np.ascontiguousarray(a, dtype=np.uint64)
    n = len(a)
    if n == 0:
        return b"", np.zeros(0, dtype=np.int64)
    lens = np.ones(n, dtype=np.int64)
    for k in range(1, 10):
        lens += (a >= np.uint64(1) << np.uint64(7 * k)).astype(np.int64)
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    out = np.zeros(int(lens.sum()), dtype=np.uint8)
    for j in range(10):
        mask = lens > j
        if not mask.any():
            break
        vals = (a[mask] >> np.uint64(7 * j)).astype(np.uint64) & np.uint64(0x7F)
        cont = (lens[mask] - 1 > j).astype(np.uint8) << 7
        out[starts[mask] + j] = vals.astype(np.uint8) | cont
    return out.tobytes(), starts


def varint_decode(buf: bytes | memoryview, count: int | None = None) -> np.ndarray:
    """Decode a LEB128 stream → uint64 array. Vectorized over elements."""
    data = np.frombuffer(buf, dtype=np.uint8)
    if len(data) == 0:
        return np.zeros(0, dtype=np.uint64)
    ends = np.flatnonzero((data & 0x80) == 0)
    starts = np.concatenate(([0], ends[:-1] + 1))
    if count is not None:
        starts, ends = starts[:count], ends[:count]
    vals = np.zeros(len(starts), dtype=np.uint64)
    max_len = int((ends - starts).max()) + 1 if len(starts) else 0
    for j in range(max_len):
        idx = starts + j
        valid = idx <= ends
        vals[valid] |= (data[idx[valid]] & np.uint64(0x7F)).astype(np.uint64) << np.uint64(7 * j)
    return vals


# ---------------------------------------------------------------------------
# blockpack (fixed-width lanes per block)
# ---------------------------------------------------------------------------

def _pack_width(max_val: int) -> int:
    for w in _PACK_WIDTHS:
        if max_val < 1 << (8 * w):
            return w
    raise ValueError("value too large")


def blockpack_encode(a: np.ndarray, block_size: int) -> tuple[bytes, np.ndarray]:
    """Encode as per-block [width:u8][items × width bytes LE]. Returns
    (buf, block_start_offsets)."""
    a = np.ascontiguousarray(a, dtype=np.uint64)
    n = len(a)
    pieces: list[bytes] = []
    offsets = []
    off = 0
    for s in range(0, max(n, 1), block_size):
        if s >= n:
            break
        blk = a[s : s + block_size]
        w = _pack_width(int(blk.max())) if len(blk) else 1
        piece = bytes([w]) + blk.astype(f"<u{w}").tobytes()
        offsets.append(off)
        pieces.append(piece)
        off += len(piece)
    if n == 0:
        return b"", np.zeros(0, dtype=np.int64)
    return b"".join(pieces), np.asarray(offsets, dtype=np.int64)


def blockpack_decode(
    buf: bytes | memoryview, n: int, block_size: int
) -> np.ndarray:
    """Decode a full blockpack stream → uint64 array of n elements."""
    out = np.empty(n, dtype=np.uint64)
    data = memoryview(buf)
    off = 0
    for s in range(0, n, block_size):
        cnt = min(block_size, n - s)
        w = data[off]
        out[s : s + cnt] = np.frombuffer(data, dtype=f"<u{w}", count=cnt, offset=off + 1)
        off += 1 + cnt * w
    return out


def blockpack_decode_range(buf: bytes | memoryview, off: int, count: int) -> np.ndarray:
    """Decode one block that starts at byte offset `off`."""
    data = memoryview(buf)
    w = data[off]
    return np.frombuffer(data, dtype=f"<u{w}", count=count, offset=off + 1).astype(np.uint64)


# ---------------------------------------------------------------------------
# PForDelta (patched frame-of-reference): per block, pack every value in
# the small width that covers ~90% of them; the outliers ("exceptions")
# store their positions and full values after the packed lanes. Layout
# per block:
#     [u8 width_b][u8 n_exceptions]
#     [ceil(count*b/8) bytes packed little-endian b-bit lanes]
#     [n_exc × u8 position][n_exc × u64 value]
# (Zukowski et al., "Super-Scalar RAM-CPU Cache Compression", ICDE 2006.)
# ---------------------------------------------------------------------------


def _pfor_choose_width(blk: np.ndarray) -> int:
    """Smallest width covering the 90th-percentile value (≥1 bit)."""
    q = np.quantile(blk, 0.9) if len(blk) else 0
    return max(1, int(q).bit_length())


def _pack_lanes(vals: np.ndarray, b: int) -> bytes:
    """Pack uint64 values (< 2^b) as little-endian b-bit lanes."""
    bits = (
        (vals[:, None] >> np.arange(b, dtype=np.uint64)) & np.uint64(1)
    ).astype(np.uint8)
    return np.packbits(bits.reshape(-1), bitorder="little").tobytes()


def _unpack_lanes(buf: bytes | memoryview, n: int, b: int) -> np.ndarray:
    bits = np.unpackbits(
        np.frombuffer(buf, dtype=np.uint8), count=n * b, bitorder="little"
    )
    return (
        bits.reshape(n, b).astype(np.uint64)
        << np.arange(b, dtype=np.uint64)[None, :]
    ).sum(axis=1, dtype=np.uint64)


def pfor_encode(a: np.ndarray, block_size: int) -> tuple[bytes, np.ndarray]:
    """Encode as per-block PForDelta. Returns (buf, block_start_offsets).
    Block size must stay ≤ 256 (positions are u8)."""
    a = np.ascontiguousarray(a, dtype=np.uint64)
    n = len(a)
    if n == 0:
        return b"", np.zeros(0, dtype=np.int64)
    pieces: list[bytes] = []
    offsets = []
    off = 0
    for s in range(0, n, block_size):
        blk = a[s : s + block_size]
        b = _pfor_choose_width(blk)
        mask = np.uint64((1 << b) - 1)
        exc_pos = np.flatnonzero(blk > mask)
        low = blk & mask
        piece = (
            bytes([b, len(exc_pos)])
            + _pack_lanes(low, b)
            + exc_pos.astype(np.uint8).tobytes()
            + blk[exc_pos].astype("<u8").tobytes()
        )
        offsets.append(off)
        pieces.append(piece)
        off += len(piece)
    return b"".join(pieces), np.asarray(offsets, dtype=np.int64)


def pfor_decode_range(buf: bytes | memoryview, off: int, count: int) -> np.ndarray:
    """Decode one PFor block starting at byte offset ``off``."""
    mv = memoryview(buf)
    b = mv[off]
    n_exc = mv[off + 1]
    lane_bytes = (count * b + 7) // 8
    p = off + 2
    vals = _unpack_lanes(mv[p : p + lane_bytes], count, b)
    p += lane_bytes
    if n_exc:
        pos = np.frombuffer(mv, dtype=np.uint8, count=n_exc, offset=p)
        p += n_exc
        full = np.frombuffer(mv, dtype="<u8", count=n_exc, offset=p)
        vals[pos] = full
    return vals


def pfor_decode(buf: bytes | memoryview, n: int, block_size: int) -> np.ndarray:
    out = np.empty(n, dtype=np.uint64)
    mv = memoryview(buf)
    off = 0
    for s in range(0, n, block_size):
        cnt = min(block_size, n - s)
        out[s : s + cnt] = pfor_decode_range(mv, off, cnt)
        b = mv[off]
        n_exc = mv[off + 1]
        off += 2 + (cnt * b + 7) // 8 + n_exc * 9
    return out


# ---------------------------------------------------------------------------
# posting streams
# ---------------------------------------------------------------------------

def _encode_stream(a: np.ndarray, codec: str, block_size: int) -> tuple[bytes, np.ndarray]:
    if codec == "varint":
        buf, starts = varint_encode(a)
        return buf, starts[::block_size].copy()
    if codec == "pfor":
        return pfor_encode(a, block_size)
    return blockpack_encode(a, block_size)


def _decode_stream(buf, n: int, codec: str, block_size: int) -> np.ndarray:
    if codec == "varint":
        return varint_decode(buf, count=n)
    if codec == "pfor":
        return pfor_decode(buf, n, block_size)
    return blockpack_decode(buf, n, block_size)


def _decode_stream_range(buf, off: int, end: int, count: int, codec: str) -> np.ndarray:
    if codec == "varint":
        return varint_decode(memoryview(buf)[off:end], count=count)
    if codec == "pfor":
        return pfor_decode_range(buf, off, count)
    return blockpack_decode_range(buf, off, count)


def _blockmax_fill(bm, ids, tfs, dls, starts: np.ndarray, n: int) -> None:
    """Vectorized block-max stats: per-block last id, max tf, min dl."""
    ends = np.append(starts[1:], n)
    bm["last_id"] = ids[ends - 1]
    bm["max_tf"] = np.maximum.reduceat(tfs, starts)
    bm["min_dl"] = np.minimum.reduceat(dls, starts)
    bm["count"] = ends - starts


def encode_postings(
    ids: np.ndarray,
    tfs: np.ndarray,
    dls: np.ndarray,
    codec: str = "varint",
    block_size: int = 128,
) -> tuple[bytes, bytes, int]:
    """Encode one posting list (doc ordinals strictly ascending) →
    (postings_bytes, blockmax_bytes, n_blocks). ``dls`` (doc length per
    posting) feeds ONLY the per-block min_dl score bound; it is not
    stored as a stream — lengths live in the segment doc table.

    Layout of postings_bytes:
        [u32 n][u32 len_d][stream_d][stream_tf]
    """
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    n = len(ids)
    if n == 0:
        raise ValueError("empty posting list")
    deltas = np.empty(n, dtype=np.uint64)
    deltas[0] = ids[0]
    np.subtract(ids[1:], ids[:-1], out=deltas[1:], casting="unsafe")
    tfs = np.ascontiguousarray(tfs, dtype=np.int64)
    dls = np.ascontiguousarray(dls, dtype=np.int64)

    sd, off_d = _encode_stream(deltas, codec, block_size)
    st, off_tf = _encode_stream(tfs.astype(np.uint64), codec, block_size)

    n_blocks = (n + block_size - 1) // block_size
    starts = np.arange(n_blocks, dtype=np.int64) * block_size
    bm = np.zeros(n_blocks, dtype=BLOCKMAX_DTYPE)
    _blockmax_fill(bm, ids, tfs, dls, starts, n)
    bm["off_d"], bm["off_tf"] = off_d, off_tf

    header = np.array([n, len(sd)], dtype="<u4").tobytes()
    return header + sd + st, bm.tobytes(), n_blocks


def encode_postings_many(
    bounds: np.ndarray,
    ids: np.ndarray,
    tfs: np.ndarray,
    dls: np.ndarray,
    codec: str = "varint",
    block_size: int = 128,
) -> tuple[list[bytes], list[bytes], list[int]]:
    """Batch-encode many posting lists in ONE vectorized pass.

    ``bounds`` (len = n_lists + 1) delimits each list's slice of the
    flat ``ids/tfs/dls`` arrays (each list's ids strictly ascending).
    Semantically identical to calling :func:`encode_postings` per list,
    but the delta computation, varint encode, and block-max reduceat run
    once over the concatenation — the per-list Python work is byte
    slicing only. This is what makes the segment builder's per-term loop
    cheap at ~10-token average postings. blockpack falls back to
    per-list encoding (its stream is per-block framed).
    """
    n_total = len(ids)
    n_lists = len(bounds) - 1
    if codec != "varint":
        out_p, out_b, out_n = [], [], []
        for i in range(n_lists):
            s, e = int(bounds[i]), int(bounds[i + 1])
            p, b, nb = encode_postings(ids[s:e], tfs[s:e], dls[s:e], codec, block_size)
            out_p.append(p)
            out_b.append(b)
            out_n.append(nb)
        return out_p, out_b, out_n

    ids = np.ascontiguousarray(ids, dtype=np.int64)
    tfs_i = np.ascontiguousarray(tfs, dtype=np.int64)
    dls = np.ascontiguousarray(dls, dtype=np.int64)
    deltas = np.empty(n_total, dtype=np.uint64)
    if n_total:
        deltas[0] = ids[0]
        np.subtract(ids[1:], ids[:-1], out=deltas[1:], casting="unsafe")
        deltas[bounds[:-1][bounds[:-1] < n_total]] = ids[
            bounds[:-1][bounds[:-1] < n_total]
        ].astype(np.uint64)

    d_buf, d_starts = varint_encode(deltas)
    t_buf, t_starts = varint_encode(tfs_i.astype(np.uint64))
    d_starts = np.append(d_starts, len(d_buf))
    t_starts = np.append(t_starts, len(t_buf))

    # global block starts: per list, every block_size elements
    counts = np.diff(bounds)
    nblocks_per = (counts + block_size - 1) // block_size
    total_blocks = int(nblocks_per.sum())
    # start index of each block in the flat arrays; grouped arange is
    # global arange minus each group's exclusive-scan offset (one
    # vector op — a per-list np.arange loop costs more than the encode)
    rep_bounds = np.repeat(bounds[:-1], nblocks_per)
    if total_blocks:
        grp_starts = np.cumsum(nblocks_per) - nblocks_per
        within = np.arange(total_blocks, dtype=np.int64) - np.repeat(
            grp_starts, nblocks_per
        )
    else:
        within = np.zeros(0, dtype=np.int64)
    blk_starts = rep_bounds + within * block_size

    bm_all = np.zeros(total_blocks, dtype=BLOCKMAX_DTYPE)
    if total_blocks:
        ends = np.empty(total_blocks, dtype=np.int64)
        ends[:-1] = blk_starts[1:]
        ends[-1] = n_total
        # block end never crosses its list end
        list_ends = np.repeat(bounds[1:], nblocks_per)
        np.minimum(ends, list_ends, out=ends)
        bm_all["last_id"] = ids[ends - 1]
        bm_all["max_tf"] = np.maximum.reduceat(tfs_i, blk_starts)
        bm_all["min_dl"] = np.minimum.reduceat(dls, blk_starts)
        bm_all["count"] = ends - blk_starts
        bm_all["off_d"] = d_starts[blk_starts] - d_starts[rep_bounds]
        bm_all["off_tf"] = t_starts[blk_starts] - t_starts[rep_bounds]

    out_p, out_b, out_n = [], [], []
    blk_bounds = np.concatenate(([0], np.cumsum(nblocks_per)))
    for i in range(n_lists):
        s, e = int(bounds[i]), int(bounds[i + 1])
        ds_, de_ = int(d_starts[s]), int(d_starts[e])
        ts_, te_ = int(t_starts[s]), int(t_starts[e])
        header = np.array([e - s, de_ - ds_], dtype="<u4").tobytes()
        out_p.append(header + d_buf[ds_:de_] + t_buf[ts_:te_])
        out_b.append(bm_all[int(blk_bounds[i]) : int(blk_bounds[i + 1])].tobytes())
        out_n.append(int(nblocks_per[i]))
    return out_p, out_b, out_n


def decode_postings(
    postings: bytes | memoryview,
    codec: str = "varint",
    block_size: int = 128,
    bm: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Decode a full posting list → (ids int64 asc, tfs int32). The
    streams decode without the block table; ``bm`` is not read."""
    mv = memoryview(postings)
    n, len_d = np.frombuffer(mv, dtype="<u4", count=2)
    n, len_d = int(n), int(len_d)
    p = 8
    deltas = _decode_stream(mv[p : p + len_d], n, codec, block_size)
    tfs = _decode_stream(mv[p + len_d :], n, codec, block_size)
    ids = np.cumsum(deltas.astype(np.int64))
    return ids, tfs.astype(np.int32)


class PostingList:
    """Random-access view over one encoded posting list + its block-max
    metadata. Blocks decode lazily — the unit the skip scorers skip over.
    Block sizes come from bm["count"]: every block holds ``block_size``
    postings but the last, and varint shards merged by older builds
    also have short blocks at the seams between chunks."""

    __slots__ = ("n", "n_blocks", "block_size", "codec", "bm", "_mv", "_p", "_len_d")

    def __init__(self, postings: bytes, blockmax: bytes, codec: str, block_size: int):
        self._mv = memoryview(postings)
        n, len_d = np.frombuffer(self._mv, dtype="<u4", count=2)
        self.n, self._len_d = int(n), int(len_d)
        self._p = 8
        self.codec = codec
        self.block_size = block_size
        self.bm = np.frombuffer(blockmax, dtype=BLOCKMAX_DTYPE)
        self.n_blocks = len(self.bm)

    def block_count(self, i: int) -> int:
        return int(self.bm[i]["count"])

    def decode_block(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Decode block i → (ids, tfs)."""
        cnt = self.block_count(i)
        bm = self.bm
        p = self._p
        end_d = int(bm[i + 1]["off_d"]) if i + 1 < self.n_blocks else self._len_d
        end_tf = (
            int(bm[i + 1]["off_tf"])
            if i + 1 < self.n_blocks
            else len(self._mv) - p - self._len_d
        )
        d0 = p
        t0 = p + self._len_d
        deltas = _decode_stream_range(
            self._mv, d0 + int(bm[i]["off_d"]), d0 + end_d, cnt, self.codec
        )
        tfs = _decode_stream_range(
            self._mv, t0 + int(bm[i]["off_tf"]), t0 + end_tf, cnt, self.codec
        )
        prev = int(bm[i - 1]["last_id"]) if i > 0 else 0
        ids = prev + np.cumsum(deltas.astype(np.int64))
        return ids, tfs.astype(np.int32)

    def decode_all(self) -> tuple[np.ndarray, np.ndarray]:
        return decode_postings(self._mv, self.codec, self.block_size, self.bm)
