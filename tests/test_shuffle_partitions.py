"""Shuffle width: every hash shuffle takes its partition count from
``functions.bucketing.shuffle_partitions()``, and no result depends on
that count — only row order does, which the oracle comparison
normalises."""

import pathlib
import re
import sys

import duckdb
import pytest

from crawling_infrastructure_ray.functions import bucketing
from test_queries_oracle import SF, TABLES, _run, assert_matches_oracle

PKG = pathlib.Path(bucketing.__file__).resolve().parents[1]

# one query per shuffle shape: merge_partials_ray (o6, g4, g6), the
# j2 bucketed join (key % B, B not a power of two at width 5), a
# windowed per-bucket reduce, a stages/joins semi-join, and the
# shingle-partitioned exact and prefix-filtered dedup joins
QUERIES = ["o6_top35_parts", "events_hourly_window",
           "j2_bucketed_join_revenue", "g4_fleet_stats",
           "g6_distinct_users", "q4_priority_exists",
           "dedup_jaccard_exact", "ppjoin_pairs"]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                  f"read_parquet('{SF}/{t}.parquet')")
    return c


def _force_width(monkeypatch, width: int) -> None:
    """Patch ``shuffle_partitions`` in bucketing and in every module
    that imported it by name."""
    orig = bucketing.shuffle_partitions
    for mod in list(sys.modules.values()):
        if getattr(mod, "shuffle_partitions", None) is orig:
            monkeypatch.setattr(mod, "shuffle_partitions", lambda: width)


def test_shuffle_partitions_follows_cluster_cpus(ray_session):
    import ray
    cpus = int(ray.cluster_resources()["CPU"])
    assert bucketing.shuffle_partitions() == max(1, min(32, cpus))


@pytest.mark.parametrize("width", [1, 5])
@pytest.mark.parametrize("name", QUERIES)
def test_results_do_not_depend_on_shuffle_width(ray_session, monkeypatch,
                                                con, width, name):
    _force_width(monkeypatch, width)
    assert bucketing.shuffle_partitions() == width
    assert_matches_oracle(con, name, _run(name))


def test_repartition_width_has_one_home():
    """No package module but functions/bucketing.py picks a shuffle
    width with an integer literal: widths come from
    shuffle_partitions()."""
    literal = re.compile(r"\.repartition\(\s*\d")
    offenders = [f"{p.relative_to(PKG)}:{i}"
                 for p in sorted(PKG.rglob("*.py"))
                 if p.name != "bucketing.py"
                 for i, line in enumerate(p.read_text().splitlines(), 1)
                 if literal.search(line)]
    assert offenders == []
