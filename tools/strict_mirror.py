#!/usr/bin/env python
"""STRICT local mirror of the driver's correctness gate: run every
queries() entry against its oracle_sql() twin on the same parquet and
compare with DTYPE-EXACT hashing (values rendered to strings before
hashing, so an int64 column that drifts to float64 fails even when
the numbers match — this is what caught the bucketed-join null-padding
dtype drift in round 3). Rows-only queries are executed and must
return a non-empty schema.

Usage: python tools/strict_mirror.py [sf_dir] [query ...]
Prints one line per query (with the seconds the query itself took)
and a JSON summary with the total wall time and the session's Ray CPU
count (``RAY_GRAFT_CPUS``, default 8); non-zero exit on any failure.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
import warnings

warnings.filterwarnings("ignore")

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def norm(df):
    import pandas as pd
    df = pd.DataFrame(df)
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def strict_hash(df):
    import pandas as pd
    return hashlib.md5(pd.util.hash_pandas_object(
        df.astype(str), index=False).values.tobytes()).hexdigest()


def main() -> int:
    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray
    cpus = int(os.environ.get("RAY_GRAFT_CPUS", "8"))
    ray.init(address="local", num_cpus=cpus,
             include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import duckdb
    import pandas as pd
    import __ray_entry__ as em

    con = duckdb.connect()
    for t in TABLES:
        p = f"{sf.rstrip('/')}/{t}.parquet"
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                        f"read_parquet('{p}')")

    qs, sqls = em.queries(), em.oracle_sql()
    names = [n for n in qs if not only or n in only]
    ok = bad = rows_only = 0
    failed = []
    t_all = time.perf_counter()
    for name in names:
        t0 = time.perf_counter()
        res = qs[name](sf)
        if hasattr(res, "to_pandas"):
            res = res.to_pandas()
        secs = time.perf_counter() - t0
        got = norm(pd.DataFrame(res))
        if name not in sqls:
            rows_only += 1
            print(f"{name}: ROWS_ONLY rows={len(got)} s={secs:.3f}",
                  flush=True)
            continue
        want = norm(con.execute(sqls[name]).fetchdf())
        good = (list(got.columns) == list(want.columns)
                and len(got) == len(want)
                and strict_hash(got) == strict_hash(want))
        if good:
            ok += 1
        else:
            bad += 1
            failed.append(name)
        print(f"{name}: {'OK' if good else 'FAIL'} rows={len(got)} "
              f"s={secs:.3f}", flush=True)
    wall = time.perf_counter() - t_all
    ray.shutdown()
    print(json.dumps({"metric": "strict_mirror", "sf": sf, "cpus": cpus,
                      "wall_s": round(wall, 3),
                      "oracle_ok": ok, "oracle_fail": bad,
                      "rows_only": rows_only, "failed": failed}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
