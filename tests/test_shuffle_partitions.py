"""Shuffle width: every hash shuffle takes its partition count from
``functions.bucketing.shuffle_partitions()``, and no result depends on
that count — only row order does, which the oracle comparison
normalises."""

import ast
import json
import os
import pathlib
import re
import signal
import subprocess
import sys

import duckdb
import pytest

from crawling_infrastructure_ray.functions import bucketing
from test_queries_oracle import SF, TABLES, _run, assert_matches_oracle

PKG = pathlib.Path(bucketing.__file__).resolve().parents[1]

REPO = PKG.parent

# one query per shuffle shape: merge_partials_ray (o6, g4, g6), the
# j2 bucketed join (key % B, B not a power of two at width 5), a
# windowed per-bucket reduce, the stages/joins semi- and anti-joins,
# the shingle-partitioned exact and prefix-filtered dedup joins, the
# LSH band-partition join, the training token packer, and the
# two-exchange bounds join of normalize_value_per_user
QUERIES = ["o6_top35_parts", "events_hourly_window",
           "j2_bucketed_join_revenue", "g4_fleet_stats",
           "g6_distinct_users", "q4_priority_exists",
           "j4_customers_without_p_orders",
           "dedup_jaccard_exact", "ppjoin_pairs", "dedup_minhash_pairs",
           "pack_sequences", "normalize_value_per_user"]

# groupby(...).map_groups sites that group by a real key, or by a tag
# whose range is not known when the plan is built: every other
# per-bucket stage goes through bucketing.map_buckets
REAL_KEY_GROUPBYS = {
    ("pipelines/analytics.py", "event_type"),     # per-type quantiles
    ("pipelines/analytics.py", "bkt"),            # id >> 12 ranges
    ("pipelines/training.py", "source"),          # per-source KMV merge
    ("stages/sampling.py", "n_chars"),            # within-value rank
    ("sources/storage.py", "partition_col"),      # one dir per value
}


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


def _calls(attr: str):
    """(module path, call node) for every ``<x>.<attr>(...)`` call in
    the package."""
    for p in sorted(PKG.rglob("*.py")):
        for node in ast.walk(ast.parse(p.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == attr):
                yield str(p.relative_to(PKG)), node


def test_bucket_exchange_has_one_home():
    """No package module but functions/bucketing.py runs
    ``groupby(<bucket tag>).map_groups``: bucket exchanges go through
    ``map_buckets``, and only the real-key sites group natively."""
    sites = set()
    for path, node in _calls("map_groups"):
        gb = node.func.value
        assert (isinstance(gb, ast.Call) and isinstance(gb.func, ast.Attribute)
                and gb.func.attr == "groupby"), f"{path}:{node.lineno}"
        key = gb.args[0]
        sites.add((path, key.value if isinstance(key, ast.Constant)
                   else ast.unparse(key)))
    assert sites == REAL_KEY_GROUPBYS


def _function(path: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((PKG / path).read_text())
    return next(n for n in ast.walk(tree)
                if isinstance(n, ast.FunctionDef) and n.name == name)


def _called(fn: ast.FunctionDef) -> set[str]:
    return {n.func.id if isinstance(n.func, ast.Name) else n.func.attr
            for n in ast.walk(fn) if isinstance(n, ast.Call)
            and isinstance(n.func, (ast.Name, ast.Attribute))}


def test_reads_go_through_the_sized_readers():
    """Every parquet read is ``readers.read_table`` or
    ``storage.read_dataset``, both run ``storage.scan_parquet``, and
    that scan asks for ``shuffle_partitions()`` blocks, so every read
    is as wide as the session. No ``read_parquet`` is left in the
    package, and the scan is the one ``read_datasource`` call."""
    assert [path for path, _ in _calls("read_parquet")] == []
    sources = list(_calls("read_datasource"))
    assert [path for path, _ in sources] == ["sources/storage.py"]
    widths = {k.arg: ast.unparse(k.value) for k in sources[0][1].keywords}
    assert widths["override_num_blocks"] == "shuffle_partitions()"
    assert "read_datasource" in _called(_function("sources/storage.py",
                                                  "scan_parquet"))
    assert "scan_parquet" in _called(_function("sources/readers.py",
                                               "read_table"))
    assert "scan_parquet" in _called(_function("sources/storage.py",
                                               "read_dataset"))


def test_one_cpu_session_finishes():
    """On a one-CPU Ray session (the benchmark's), the two-exchange
    normalize query and the j2 join finish and match their oracles.
    Before the bucket exchange, normalize_value_per_user never
    finished there. The other three read the scan's other input
    shapes: a hive ``shard=K/`` tree (export_shards), hive
    ``centroid=C/`` directories (ann_ivf_full_probe) and a crawl's
    fragment directory (crawl_doc_stats)."""
    names = ["normalize_value_per_user", "j2_bucketed_join_revenue",
             "export_shards", "ann_ivf_full_probe", "crawl_doc_stats"]
    proc = subprocess.Popen(
        [sys.executable, "tools/strict_mirror.py", SF, *names],
        cwd=REPO, env={**os.environ, "RAY_GRAFT_CPUS": "1"},
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("one-CPU strict mirror did not finish in 120 s")
    summary = json.loads(out.strip().splitlines()[-1])
    assert proc.returncode == 0, out
    assert (summary["cpus"], summary["oracle_ok"]) == (1, len(names)), out
