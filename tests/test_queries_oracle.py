"""Local mirror of the driver's correctness gate: every queries()
entry with an oracle_sql() twin must match DuckDB on the same parquet
(column names, row count, and a dtype-exact value hash), at sf0.001
for speed (the driver runs sf0.01). The hash is the one
``tools/strict_mirror.py`` uses: values are rendered to strings
before hashing, so an int64 column that drifts to float64 fails even
when the numbers match."""

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

import __ray_entry__ as entrymod
from tools.strict_mirror import norm, strict_hash

SF = "/root/testdata/sf0.001"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                  f"read_parquet('{SF}/{t}.parquet')")
    return c


_QUERIES = entrymod.queries()
_SQLS = entrymod.oracle_sql()
_CHECKED = sorted(set(_QUERIES) & set(_SQLS))
_ROWS_ONLY = sorted(set(_QUERIES) - set(_SQLS))


def _run(name):
    res = _QUERIES[name](SF)
    if hasattr(res, "to_pandas"):
        res = res.to_pandas()
    elif isinstance(res, pa.Table):
        res = res.to_pandas()
    return pd.DataFrame(res)


def assert_matches_oracle(con, name: str, result) -> None:
    got = norm(result)
    want = norm(con.execute(_SQLS[name]).fetchdf())
    assert list(got.columns) == list(want.columns), \
        f"{name}: columns {list(got.columns)} != {list(want.columns)}"
    assert len(got) == len(want), f"{name}: rows {len(got)} != {len(want)}"
    assert strict_hash(got) == strict_hash(want), \
        f"{name}: values or dtypes differ\n{got.dtypes}\n{want.dtypes}"


@pytest.mark.parametrize("name", _CHECKED)
def test_query_matches_oracle(ray_session, con, name):
    assert_matches_oracle(con, name, _run(name))


@pytest.mark.parametrize("name", _ROWS_ONLY)
def test_rows_only_query_runs(ray_session, name):
    got = _run(name)
    assert isinstance(got, pd.DataFrame)
    assert len(got.columns) > 0
