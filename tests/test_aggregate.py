"""The engine's one keyed aggregate (``bucketing.aggregate``) and one
bounded top-k (``bucketing.top_k``), checked against pandas on both
merge paths, plus the guard that keeps every per-batch keyed partial
on them."""

import ast
import pathlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data as rd

from crawling_infrastructure_ray.functions import bucketing

PKG = pathlib.Path(bucketing.__file__).resolve().parents[1]
KEYS = ["host", "ts", "sig"]
AGGS = {"n": ("v", "count"), "w": ("w", "sum"), "lo": ("v", "min"),
        "hi": ("v", "max"), "first_ts": ("at", "min")}
DTYPES = {"host": np.dtype(object), "ts": np.dtype("datetime64[us]"),
          "sig": np.dtype("uint64"), "n": np.dtype("int64"),
          "w": np.dtype("float64"), "lo": np.dtype("int64"),
          "hi": np.dtype("int64"), "first_ts": np.dtype("datetime64[us]")}


def _rows(seed: int, n: int) -> pa.Table:
    rng = np.random.default_rng(seed)
    k = rng.integers(0, 40, n)
    # uint64 keys straddle 2^63: half of them have the top bit set
    sig = (k.astype(np.uint64) << np.uint64(59)) | np.uint64(12345)
    t0 = np.datetime64("2024-01-01", "us")
    return pa.table({
        "host": pa.array([f"h{x % 7}.example" for x in k], pa.string()),
        "ts": pa.array(t0 + (k % 5).astype("timedelta64[h]")),
        "sig": pa.array(sig, pa.uint64()),
        "w": pa.array(rng.random(n) * 1e3),
        "v": pa.array(rng.integers(-500, 500, n), pa.int64()),
        "at": pa.array(t0 + rng.integers(0, 10**6, n).astype("timedelta64[s]"))})


def _keep_at_least(lo: int):
    """``prep`` that keeps rows with ``v >= lo``. A closure, so Ray
    ships it by value to workers that cannot import this test module."""
    def prep(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater_equal(batch["v"], lo))

    return prep


def _want(raw: pa.Table) -> pd.DataFrame:
    return (raw.to_pandas().groupby(KEYS, as_index=False)
            .agg(n=("v", "count"), w=("w", "sum"), lo=("v", "min"),
                 hi=("v", "max"), first_ts=("at", "min"))
            .sort_values(KEYS).reset_index(drop=True))


@pytest.fixture(params=[1, 3])
def width(request, monkeypatch):
    """P = 1 takes the single-task path; P = 3 routes the Ray merge
    through a sort even on a small session."""
    monkeypatch.setattr(bucketing, "shuffle_partitions",
                        lambda: request.param)
    return request.param


@pytest.mark.parametrize("in_ray", [False, True])
def test_aggregate_matches_pandas(ray_session, width, in_ray):
    blocks = [_rows(s, 300) for s in range(6)]
    out = bucketing.aggregate(rd.from_arrow(blocks), KEYS, AGGS,
                              prep=_keep_at_least(0), in_ray=in_ray)
    if in_ray:
        out = out.to_pandas()
    got = out.sort_values(KEYS).reset_index(drop=True)
    want = _want(_keep_at_least(0)(pa.concat_tables(blocks)))
    assert list(got.columns) == KEYS + list(AGGS)
    assert got.dtypes.to_dict() == DTYPES
    assert (got["sig"] >= np.uint64(1 << 63)).any()
    pd.testing.assert_frame_equal(got.drop(columns="w"),
                                  want.drop(columns="w"))
    np.testing.assert_allclose(got["w"], want["w"], rtol=1e-12)


def test_driver_merge_of_nothing_is_typed(ray_session):
    """A driver merge whose input filters to zero rows returns the
    right columns and dtypes, learned from the zero-row partial."""
    ds = rd.from_arrow([_rows(s, 50) for s in range(3)])
    got = bucketing.aggregate(ds, KEYS, AGGS, prep=_keep_at_least(1000))
    assert len(got) == 0
    assert list(got.columns) == KEYS + list(AGGS)
    assert got.dtypes.to_dict() == DTYPES


def test_ray_merge_of_nothing_is_empty(ray_session, width):
    """The Ray merge of zero rows is zero rows. It carries no columns:
    Ray 2.49 drops zero-row blocks, schema and all."""
    ds = rd.from_arrow([_rows(s, 50) for s in range(3)])
    got = bucketing.aggregate(ds, KEYS, AGGS, prep=_keep_at_least(1000), in_ray=True)
    assert len(got.to_pandas()) == 0


def test_top_k_ties_match_pandas(ray_session):
    """Ties on the first sort column are broken by the second, the
    same way across blocks as ``sort_values().head(k)`` over all rows."""
    rng = np.random.default_rng(5)
    blocks = [pa.table({"score": pa.array(rng.integers(0, 4, 40), pa.int64()),
                        "id": pa.array(rng.permutation(40) + 40 * i)})
              for i in range(5)]
    by = [("score", "descending"), ("id", "ascending")]
    got = bucketing.top_k(rd.from_arrow(blocks), by, 17)
    want = (pa.concat_tables(blocks).to_pandas()
            .sort_values(["score", "id"], ascending=[False, True])
            .head(17).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want)


# Functions that still call ``merge_partials*`` themselves. Each one
# merges the output of a join, a bucket exchange or a union: a plan whose
# schema Ray learns only by running it, where ``aggregate`` would pay a
# ``limit(1)`` execution for its output types.
MERGE_SITES = {
    "pipelines/analytics.py": {
        "q_j2_bucketed_join_revenue", "q_q4_priority_exists",
        "q_q12_shipmode", "q_profile_events", "q_basket_rules",
        "q_event_trigrams", "q_q5_local_supplier_volume",
        "q_q10_returned_items", "q_q7_volume_shipping",
        "q_q22_sales_opportunity", "q_q8_market_share",
        "q_q9_profit_by_nation", "q_q21_waiting_suppliers",
        "q_hopping_distinct_users", "q_distinct_users_per_type",
        "q_cohort_retention", "q_event_transitions",
        "q_q16_supplier_relationship", "q_gini_revenue"},
    "pipelines/curate.py": {"curate_documents"},
    "pipelines/training.py": {
        "q_dedup_incremental", "q_heavy_hitter_tokens",
        "q_source_vocab_overlap", "q_kmeans_lloyd", "q_lm_bigram_score",
        "q_typo_token_pairs", "q_dsir_importance", "q_dup_cluster_sizes",
        "q_dedup_savings_by_source", "q_token_length_histogram",
        "q_ngram_novelty_by_source", "q_cross_source_dup_matrix",
        "q_hapax_stats", "q_freq_of_freqs", "q_source_cosine_matrix",
        "q_simpson_diversity"},
    "stages/dedup.py": {"dup_window_stats"},
}


def _merge_calls(fn: ast.AST) -> list[ast.Call]:
    return [n for n in ast.walk(fn) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name)
            and n.func.id in ("merge_partials", "merge_partials_ray")]


def _hand_partial(fn: ast.FunctionDef) -> bool:
    """``fn`` renames the output of an Arrow ``group_by(...).aggregate``
    and merges it with ``merge_partials*``: the shape ``aggregate``
    owns."""
    grouped = any(isinstance(n, ast.Attribute) and n.attr == "aggregate"
                  and isinstance(n.value, ast.Call)
                  and isinstance(n.value.func, ast.Attribute)
                  and n.value.func.attr == "group_by"
                  for n in ast.walk(fn))
    renamed = any(isinstance(n, ast.Attribute) and n.attr == "rename_columns"
                  for n in ast.walk(fn))
    return grouped and renamed and bool(_merge_calls(fn))


def test_keyed_partials_have_one_home():
    """Outside functions/bucketing.py no ``merge_partials*`` call
    passes a list as ``aggs``, only the functions ``MERGE_SITES`` names
    call ``merge_partials*``, and no other ``q_`` function hand-writes
    the group_by → rename → merge that ``aggregate`` owns."""
    lists, callers, hand = [], {}, []
    for p in sorted(PKG.rglob("*.py")):
        if p.name == "bucketing.py":
            continue
        rel = str(p.relative_to(PKG))
        tree = ast.parse(p.read_text())
        for call in _merge_calls(tree):
            aggs = call.args[2] if len(call.args) > 2 else next(
                k.value for k in call.keywords if k.arg == "aggs")
            if isinstance(aggs, ast.List):
                lists.append(f"{rel}:{call.lineno}")
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            if _merge_calls(fn):
                callers.setdefault(rel, set()).add(fn.name)
            if (fn.name.startswith("q_") and _hand_partial(fn)
                    and fn.name not in MERGE_SITES.get(rel, ())):
                hand.append(f"{rel}:{fn.name}")
    assert lists == []
    assert callers == MERGE_SITES
    assert hand == []
