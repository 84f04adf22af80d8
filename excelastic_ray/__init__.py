"""excelastic_ray — a Ray-Data-native inverted-index + BM25 engine.

A from-scratch reimplementation of the *capabilities* of
codingchili/excelastic (ingest → validate → index → full-text query),
re-expressed Ray-Data-first over Parquet transcript tables with columns
``(conv_id:string, turn_idx:int32, role:string, text:string, tool:string,
ts:timestamp)``.

The reference delegates indexing/query to Elasticsearch; here both halves
are native:

- ingest parity: schema-from-header CSV ingest with the reference's scalar
  type-inference semantics (``/root/reference/src/main/java/com/codingchili/
  excelastic/model/DataTypes.java:15-45``), validate-before-import
  (``README.md:15``), clear-vs-append index lifecycle
  (``ElasticWriter.java:186-194``).
- index/query: distributed posting-list construction (delta + varint or
  block-packed compression, block-max skip metadata), doc-partitioned
  shards, Lucene-default BM25 (k1=1.2, b=0.75) exact top-k via TAAT and
  block-skip scorers, resumable builds with per-partition lineage +
  counters.

Nothing here calls ``ray.init()``; callers own the Ray session.
"""

from excelastic_ray.config import IndexConfig

__all__ = [
    "IndexConfig",
    "build_index",
    "append_index",
    "build_status",
    "force_merge",
    "shrink_index",
    "split_index",
    "IndexReader",
    "QueryEngine",
]
__version__ = "0.1.0"


def __getattr__(name):  # lazy: keep `import excelastic_ray` Ray-free
    if name in ("build_index", "append_index", "build_status",
                "force_merge", "shrink_index", "split_index"):
        from excelastic_ray.index import build

        return getattr(build, name)
    if name in ("IndexReader", "QueryEngine"):
        from excelastic_ray.query import engine

        return getattr(engine, name)
    raise AttributeError(name)
