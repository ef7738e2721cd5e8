"""Local mirror of the driver's correctness gate.

Runs every ``queries()`` entry at the given sf_dir and compares the
SQL-oracled subset against DuckDB: row count, sorted column names, and
an order-insensitive value hash.  Usage:

    python scripts/check_correctness.py [sf_dir] [query ...]
"""

from __future__ import annotations

import hashlib
import sys
import time

import numpy as np
import pandas as pd


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
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype("float64")
        else:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def value_hash(df: pd.DataFrame) -> str:
    h = hashlib.md5()
    for c in df.columns:
        col = df[c]
        if pd.api.types.is_float_dtype(col):
            h.update(np.round(col.to_numpy(), 9).tobytes())
        elif pd.api.types.is_integer_dtype(col):
            h.update(col.to_numpy().tobytes())
        else:
            h.update("\x1f".join(col.tolist()).encode())
    return h.hexdigest()


def main() -> int:
    # hang watchdog (see bench.py): dump stacks + exit instead of
    # blocking forever on a wedged Ray session
    import faulthandler

    faulthandler.dump_traceback_later(1800, exit=True, file=sys.stderr)

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    # report-table oracles read the engine's visited/skipped parquet at
    # a path derived from the correctness sf_dir
    import os

    os.environ["GRAFT_ORACLE_SF"] = sf_dir

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import duckdb

    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in "region nation customer supplier part orders lineitem events documents embeddings".split():
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs = entrymod.queries()
    sqls = entrymod.oracle_sql()
    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            got = canon(to_pandas(fn(sf_dir)))
        except Exception as e:  # noqa: BLE001
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            failures += 1
            continue
        dt = time.perf_counter() - t0
        if name not in sqls:
            print(f"ok   {name}: rows-only ({len(got)} rows, {dt:.1f}s)")
            continue
        try:
            want = canon(con.execute(sqls[name]).fetchdf())
        except duckdb.Error as e:
            # a failing oracle fails its slot, not the whole check
            print(f"FAIL {name}: oracle raised {type(e).__name__}: {e}")
            failures += 1
            continue
        problems = []
        if len(got) != len(want):
            problems.append(f"rows {len(got)} != {len(want)}")
        if list(got.columns) != list(want.columns):
            problems.append(f"cols {list(got.columns)} != {list(want.columns)}")
        elif value_hash(got) != value_hash(want):
            problems.append("value-hash mismatch")
            if len(got) == len(want):
                for c in got.columns:
                    a, b = got[c], want[c]
                    if pd.api.types.is_float_dtype(a):
                        bad = ~np.isclose(a, b, rtol=0, atol=1e-9)
                    else:
                        bad = a.ne(b)
                    if bad.any():
                        i = int(np.nonzero(bad.to_numpy())[0][0])
                        problems.append(f"  col {c} first diff row {i}: {a.iloc[i]!r} vs {b.iloc[i]!r}")
        if problems:
            print(f"FAIL {name}: " + "; ".join(problems))
            failures += 1
        else:
            print(f"PASS {name} ({len(got)} rows, {dt:.1f}s)")
    print("FAILURES:", failures)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
