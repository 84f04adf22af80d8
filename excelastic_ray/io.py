"""Dataset IO helpers."""

from __future__ import annotations

import threading

#: Ray Data resolves a read's filesystem with a lazy
#: ``from fsspec.implementations.http import HTTPFileSystem``. Without
#: aiohttp that import fails on every call, and two threads failing it
#: at once can see the half-imported module: one then raises
#: ImportError where Ray expects ModuleNotFoundError, and its build
#: fails. Concurrent builds in one process take turns here.
_READ_LOCK = threading.Lock()


def read_parquet_clean(paths, **kwargs):
    """``ray.data.read_parquet`` with the schema's key-value metadata
    stripped. Parquet written via pandas carries a ``b'pandas'``
    metadata blob that makes ``hash(pa.Schema)`` raise (pyarrow 16), so
    every Ray block-concat logs "Failed to hash the schemas (for
    deduplication)" and skips its fast path; a metadata-free schema
    restores it."""
    import pyarrow.parquet as pq
    import ray.data as rd

    if "schema" not in kwargs:
        first = paths if isinstance(paths, str) else paths[0]
        try:
            import os

            if os.path.isdir(first):
                names = [n for n in sorted(os.listdir(first))
                         if n.endswith(".parquet")]
                first = os.path.join(first, names[0]) if names else first
            schema = pq.read_schema(first).remove_metadata()
            if "columns" in kwargs and kwargs["columns"] is not None:
                import pyarrow as pa

                schema = pa.schema(
                    [schema.field(c) for c in kwargs["columns"]]
                )
            kwargs["schema"] = schema
        except Exception:
            pass  # fall back to Ray's own inference
    with _READ_LOCK:
        return rd.read_parquet(paths, **kwargs)
