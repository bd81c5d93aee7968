"""Local mirror of the driver's correctness gate: run every queries() entry
and its oracle_sql() side-by-side on sf0.01 and compare row count, schema
and an order-insensitive value hash (columns sorted by name, rows sorted).

Usage: python tools/check_correctness.py [sf_dir]
"""

from __future__ import annotations

import hashlib
import os
import sys

import duckdb
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def to_pandas(obj) -> pd.DataFrame:
    if isinstance(obj, pd.DataFrame):
        return obj
    if hasattr(obj, "to_pandas"):
        return obj.to_pandas()
    raise TypeError(type(obj))


def value_hash(df: pd.DataFrame) -> str:
    df = df.reindex(sorted(df.columns), axis=1)
    # normalize: round floats, cast ints, stringify
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(6)
    rows = sorted(df.astype(str).itertuples(index=False, name=None))
    return hashlib.md5(repr(rows).encode()).hexdigest()


def main(sf_dir: str) -> int:
    import ray

    from akf_cdparser_ray.logquiet import worker_runtime_env

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=8, include_dashboard=False,
            ignore_reinit_error=True, logging_level="ERROR",
            runtime_env=worker_runtime_env(),
        )
    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        path = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(path):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{path}')")

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    failures = 0
    for name, fn in qs.items():
        try:
            mine = to_pandas(fn(sf_dir))
        except Exception as exc:
            print(f"[FAIL] {name}: query raised {exc!r}")
            failures += 1
            continue
        if name not in oracles:
            print(f"[rows-only] {name}: {len(mine)} rows")
            continue
        theirs = con.execute(oracles[name]).fetchdf()
        ok_rows = len(mine) == len(theirs)
        ok_cols = sorted(mine.columns) == sorted(theirs.columns)
        ok_hash = ok_cols and value_hash(mine) == value_hash(theirs)
        status = "OK" if (ok_rows and ok_cols and ok_hash) else "FAIL"
        if status == "FAIL":
            failures += 1
            print(
                f"[{status}] {name}: rows {len(mine)}/{len(theirs)} cols "
                f"{sorted(mine.columns)} vs {sorted(theirs.columns)} hash_eq={ok_hash}"
            )
        else:
            print(f"[OK] {name}: {len(mine)} rows")
    ray.shutdown()
    return failures


if __name__ == "__main__":
    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    sys.exit(min(1, main(sf)))
