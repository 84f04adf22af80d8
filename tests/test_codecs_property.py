"""Property-based codec tests (hypothesis): round-trips and batch-encode
equivalence over adversarial shapes. The shard merge's properties are
in tests/test_merge_property.py."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from excelastic_ray.codecs import (
    PostingList,
    decode_postings,
    encode_postings,
    encode_postings_many,
    varint_decode,
    varint_encode,
)


@given(
    st.lists(st.integers(min_value=0, max_value=2**63 - 1), min_size=1, max_size=300)
)
@settings(max_examples=200, deadline=None)
def test_varint_roundtrip_property(vals):
    a = np.asarray(vals, dtype=np.uint64)
    buf, starts = varint_encode(a)
    out = varint_decode(buf)
    assert out.tolist() == vals
    assert len(starts) == len(vals)


def _posting_strategy(max_n: int):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.integers(min_value=0, max_value=100_000),
                min_size=n, max_size=n, unique=True,
            ),
            st.lists(st.integers(min_value=1, max_value=1000), min_size=n, max_size=n),
            st.lists(st.integers(min_value=0, max_value=5000), min_size=n, max_size=n),
        )
    )


posting_lists = _posting_strategy(400)
small_posting_lists = _posting_strategy(60)


@given(posting_lists, st.sampled_from(["varint", "blockpack", "pfor"]),
       st.sampled_from([4, 128]))
@settings(max_examples=100, deadline=None)
def test_postings_roundtrip_property(data, codec, block_size):
    ids_l, tfs_l, dls_l = data
    ids = np.sort(np.asarray(ids_l, dtype=np.int64))
    tfs = np.asarray(tfs_l, dtype=np.int64)
    dls = np.asarray(dls_l, dtype=np.int64)
    post, bm, nb = encode_postings(ids, tfs, dls, codec, block_size)
    got_ids, got_tfs = decode_postings(post, codec, block_size)
    assert (got_ids == ids).all()
    assert (got_tfs == tfs).all()
    pl = PostingList(post, bm, codec, block_size)
    assert pl.n == len(ids) and pl.n_blocks == nb
    cat_i, cat_t = [], []
    for i in range(nb):
        bi, bt = pl.decode_block(i)
        cat_i.append(bi)
        cat_t.append(bt)
    assert (np.concatenate(cat_i) == ids).all()
    assert (np.concatenate(cat_t) == tfs).all()


@given(
    st.lists(small_posting_lists, min_size=1, max_size=8),
    st.sampled_from(["varint", "blockpack", "pfor"]),
)
@settings(max_examples=40, deadline=None)
def test_encode_many_equals_per_list(parts, codec):
    bounds = [0]
    ids_all, tfs_all, dls_all = [], [], []
    for ids_l, tfs_l, dls_l in parts:
        ids_all.append(np.sort(np.asarray(ids_l, dtype=np.int64)))
        tfs_all.append(np.asarray(tfs_l, dtype=np.int64))
        dls_all.append(np.asarray(dls_l, dtype=np.int64))
        bounds.append(bounds[-1] + len(ids_l))
    bounds = np.asarray(bounds)
    ids = np.concatenate(ids_all)
    tfs = np.concatenate(tfs_all)
    dls = np.concatenate(dls_all)
    mp, mb, mn = encode_postings_many(bounds, ids, tfs, dls, codec, 128)
    for i in range(len(parts)):
        p1, b1, n1 = encode_postings(ids_all[i], tfs_all[i], dls_all[i], codec, 128)
        assert mp[i] == p1 and mb[i] == b1 and mn[i] == n1
