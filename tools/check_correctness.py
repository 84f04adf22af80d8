"""Mimics the driver's correctness gate: run every queries() entry and
its oracle_sql() twin over an sf dir, compare row count, schema (sorted
column names) and an order-insensitive value hash.

Every entry's line also ends in ``raw=<digest>``, an order-sensitive
digest of the entry's output as returned (row order, column order,
dtypes and values), so two runs are bit-identical exactly where
``diff`` of their outputs shows nothing.

Usage: python tools/check_correctness.py [sf_dir] [name ...]
"""

from __future__ import annotations

import hashlib
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import numpy as np
import pandas as pd

TABLES = (
    "region nation customer supplier part orders lineitem events documents "
    "embeddings"
).split()


def to_pandas(obj) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(obj, pd.DataFrame):
        return obj
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj.to_pandas()  # ray Dataset


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        if str(df[c].dtype).startswith("datetime64"):
            df[c] = df[c].astype("datetime64[us]")
        if df[c].dtype in (np.int32, np.int16, np.uint64):
            df[c] = df[c].astype(np.int64)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def value_hash(df: pd.DataFrame) -> int:
    return int(pd.util.hash_pandas_object(df, index=False).sum())


def raw_digest(df: pd.DataFrame) -> str:
    """Order-sensitive digest: rows and columns in the order given."""
    h = hashlib.sha256(
        repr([(str(c), str(t)) for c, t in df.dtypes.items()]).encode()
    )
    cols = {
        i: (s.astype(str) if s.dtype == object else s)
        for i, (_, s) in enumerate(df.items())
    }
    h.update(pd.util.hash_pandas_object(
        pd.DataFrame(cols, index=df.index), index=False
    ).to_numpy().tobytes())
    return h.hexdigest()[:16]


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)

    import __ray_entry__ as e

    qs, sqls = e.queries(), e.oracle_sql()
    con = duckdb.connect()
    for t in TABLES:
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            raw = to_pandas(fn(sf_dir))
            digest = f"raw={raw_digest(raw)}"
            got = canon(raw)
        except Exception as ex:  # noqa: BLE001
            print(f"ERROR  {name}: query raised {type(ex).__name__}: {ex}")
            failures += 1
            continue
        if name not in sqls:
            print(f"rows   {name}: {len(got)} rows (no oracle; rows-only "
                  f"check) {digest}")
            continue
        try:
            exp = canon(con.sql(sqls[name]).df())
        except Exception as ex:  # noqa: BLE001
            print(f"ERROR  {name}: oracle SQL raised {type(ex).__name__}: "
                  f"{ex} {digest}")
            failures += 1
            continue
        problems = []
        if len(got) != len(exp):
            problems.append(f"rows {len(got)} vs {len(exp)}")
        if list(got.columns) != list(exp.columns):
            problems.append(f"cols {list(got.columns)} vs {list(exp.columns)}")
        if not problems and value_hash(got) != value_hash(exp):
            diff = (got != exp) if got.shape == exp.shape else None
            problems.append("value-hash mismatch")
            if diff is not None:
                bad = diff.any(axis=1)
                problems.append(f"{int(bad.sum())} differing rows")
                ex_rows = np.flatnonzero(bad.to_numpy())[:3]
                for r in ex_rows:
                    problems.append(
                        f"row {r}: got={got.iloc[r].to_dict()} exp={exp.iloc[r].to_dict()}"
                    )
        if problems:
            failures += 1
            print(f"FAIL   {name}: " + " | ".join(str(p) for p in problems)
                  + f" {digest}")
        else:
            print(f"match  {name}: {len(got)} rows {digest}")
    print("FAILURES:", failures)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
