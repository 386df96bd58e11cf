"""The engine's one keyed reduce (``bucketing.merge_partials_ray``) and
the one top-k merge (``simsearch.merge_topk``), checked against pandas
and numpy references, plus guards that keep every keyed combine on
them."""

import ast
import pathlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from crawling_infrastructure_ray.functions import bucketing
from crawling_infrastructure_ray.stages import simsearch
from crawling_infrastructure_ray.stages.simsearch import (IVFIndex,
                                                          brute_force_topk)

PKG = pathlib.Path(bucketing.__file__).resolve().parents[1]
KEYS = ["host", "ts", "sig"]
SPEC = {"n": "sum", "w": "sum", "lo": "min", "hi": "max"}


def _rows(seed: int, n: int) -> pa.Table:
    rng = np.random.default_rng(seed)
    k = rng.integers(0, 40, n)
    # uint64 keys straddle 2^63: half of them have the top bit set
    sig = (k.astype(np.uint64) << np.uint64(59)) | np.uint64(12345)
    return pa.table({
        "host": pa.array([f"h{x % 7}.example" for x in k], pa.string()),
        "ts": pa.array(np.datetime64("2024-01-01", "us")
                       + (k % 5).astype("timedelta64[h]")),
        "sig": pa.array(sig, pa.uint64()),
        "w": pa.array(rng.random(n) * 1e3),
        "v": pa.array(rng.integers(-500, 500, n), pa.int64())})


def _partial_fn(empty: bool = False):
    """Per-batch combine: one row per key per batch, with a count. A
    closure, so Ray ships it by value to workers that cannot import
    this test module."""
    keys = list(KEYS)

    def partial(batch: pa.Table) -> pa.Table:
        if empty:
            batch = batch.slice(0, 0)
        g = batch.group_by(keys).aggregate(
            [("v", "count"), ("w", "sum"), ("v", "min"), ("v", "max")])
        return g.rename_columns(keys + ["n", "w", "lo", "hi"])

    return partial


def _reduce(blocks: list[pa.Table]) -> pd.DataFrame:
    ds = rd.from_arrow(blocks).map_batches(_partial_fn(),
                                           batch_format="pyarrow")
    out = bucketing.merge_partials_ray(ds, KEYS, SPEC).to_pandas()
    return out.sort_values(KEYS).reset_index(drop=True)


@pytest.fixture(params=[1, 3])
def width(request, monkeypatch):
    """P = 1 takes the single-task path; P = 3 routes buckets through a
    sort even on a small session."""
    monkeypatch.setattr(bucketing, "shuffle_partitions",
                        lambda: request.param)
    return request.param


def test_reduce_matches_pandas(ray_session, width):
    blocks = [_rows(s, 300) for s in range(6)] + [_rows(99, 0)]
    got = _reduce(blocks)
    raw = pa.concat_tables(blocks).to_pandas()
    want = (raw.groupby(KEYS, as_index=False)
            .agg(n=("v", "size"), w=("w", "sum"), lo=("v", "min"),
                 hi=("v", "max"))
            .sort_values(KEYS).reset_index(drop=True))
    assert list(got.columns) == KEYS + list(SPEC)
    assert got.dtypes.to_dict() == {
        "host": np.dtype(object), "ts": np.dtype("datetime64[us]"),
        "sig": np.dtype("uint64"), "n": np.dtype("int64"),
        "w": np.dtype("float64"), "lo": np.dtype("int64"),
        "hi": np.dtype("int64")}
    assert (got["sig"] >= np.uint64(1 << 63)).any()
    pd.testing.assert_frame_equal(got.drop(columns="w"),
                                  want.drop(columns="w"))
    np.testing.assert_allclose(got["w"], want["w"], rtol=1e-12)


def test_float_sums_ignore_block_order(ray_session, width):
    """The same blocks arriving in another order give bit-identical
    float sums: the reduce sorts before it adds."""
    blocks = [_rows(s, 150) for s in range(8)]
    a = _reduce(blocks)
    for order in ([7, 6, 5, 4, 3, 2, 1, 0], [3, 0, 6, 1, 7, 2, 5, 4]):
        b = _reduce([blocks[i] for i in order])
        assert a["w"].to_numpy().tobytes() == b["w"].to_numpy().tobytes()
        pd.testing.assert_frame_equal(a, b, check_exact=True)


def test_input_filtered_to_nothing(ray_session, width):
    """Zero rows in, zero rows out, no error. Column names cannot be
    checked: Ray's ``to_pandas`` drops zero-row blocks."""
    ds = (rd.from_arrow([_rows(s, 50) for s in range(3)])
          .map_batches(_partial_fn(empty=True), batch_format="pyarrow"))
    assert len(bucketing.merge_partials_ray(ds, KEYS, SPEC).to_pandas()) == 0


def test_driver_merge_shares_the_kernel():
    raw = _rows(3, 400)
    parts = [_partial_fn()(raw.slice(i, 100)).to_pandas()
             for i in range(0, 400, 100)]
    got = bucketing.reduce_partials(pd.concat(parts), KEYS, SPEC)
    again = bucketing.reduce_partials(pd.concat(parts[::-1]), KEYS, SPEC)
    pd.testing.assert_frame_equal(got, again, check_exact=True)
    assert int(got["n"].sum()) == 400


def _calls(fn: ast.AST) -> set[str]:
    return {n.func.attr if isinstance(n.func, ast.Attribute) else n.func.id
            for n in ast.walk(fn) if isinstance(n, ast.Call)
            and isinstance(n.func, (ast.Attribute, ast.Name))}


def test_no_native_keyed_aggregate():
    """No package function runs ``groupby(...).aggregate(<ray.data.aggregate
    fn>)``: keyed combines go through ``merge_partials_ray``. The one
    exception is ``q_j3_native_hash_join``, kept unregistered on
    purpose as the native-join reference."""
    offenders = []
    for p in sorted(PKG.rglob("*.py")):
        tree = ast.parse(p.read_text())
        ray_aggs = {a.asname or a.name for n in ast.walk(tree)
                    if isinstance(n, ast.ImportFrom)
                    and n.module == "ray.data.aggregate" for a in n.names}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) \
                    or fn.name == "q_j3_native_hash_join":
                continue
            for n in ast.walk(fn):
                if (isinstance(n, ast.Call)
                        and isinstance(n.func, ast.Attribute)
                        and n.func.attr == "aggregate"
                        and isinstance(n.func.value, ast.Call)
                        and isinstance(n.func.value.func, ast.Attribute)
                        and n.func.value.func.attr == "groupby"
                        and any(isinstance(a, ast.Call)
                                and isinstance(a.func, ast.Name)
                                and a.func.id in ray_aggs
                                for a in n.args)):
                    offenders.append(f"{p.relative_to(PKG)}:{n.lineno}")
    assert offenders == []


def test_topk_searches_share_one_merge():
    tree = ast.parse(pathlib.Path(simsearch.__file__).read_text())
    fns = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    for name in ("brute_force_topk", "search"):
        assert {"merge_topk", "_block_topk"} <= _calls(fns[name]), name
    assert "map_groups" not in pathlib.Path(simsearch.__file__).read_text()


def _tie_ds():
    """Forty 4-d vectors in two blocks, ids interleaved across the
    blocks and stored in descending order: ids 3..39 are duplicates of
    (1, 1, 0, 0), ids 0..2 are orthogonal to the query (1, 0, 0, 0)."""
    def block(ids):
        vecs = [[1.0, 1.0, 0.0, 0.0] if i >= 3 else [0.0, 1.0, 1.0, 0.0]
                for i in ids]
        return pa.table({"vec_id": pa.array(ids, pa.int64()),
                         "embedding": pa.array(vecs, pa.list_(pa.float32()))})
    return rd.from_arrow([block(list(range(39, -1, -2))),
                          block(list(range(38, -1, -2)))])


@pytest.mark.parametrize("search", ["brute", "ivf"])
def test_equal_cosines_rank_by_neighbor_id(ray_session, search):
    q = np.array([[1.0, 0.0, 0.0, 0.0]])
    ds = _tie_ds()
    if search == "brute":
        out = brute_force_topk(ds, q, [0], k=5)
    else:
        out = IVFIndex(ds, n_centroids=2, seed=0).search(q, [0], k=5,
                                                         nprobe=2)
    assert out["neighbor_id"].tolist() == [3, 4, 5, 6, 7]
    assert out["rank"].tolist() == [1, 2, 3, 4, 5]
    assert set(out["cosine"]) == {0.7071}


@pytest.mark.parametrize("search", ["brute", "ivf"])
def test_topk_merge_over_many_blocks(ray_session, search):
    """Twenty blocks give twenty partials of k rows per query (60 rows
    for k = 3); the merge keeps the same top k as numpy over the whole
    table."""
    rng = np.random.default_rng(7)
    vecs = rng.normal(size=(400, 8)).astype(np.float32)
    ids = rng.permutation(400)
    ds = rd.from_arrow([
        pa.table({"vec_id": pa.array(ids[i:i + 20], pa.int64()),
                  "embedding": pa.array(vecs[i:i + 20].tolist(),
                                        pa.list_(pa.float32()))})
        for i in range(0, 400, 20)])
    assert ds.materialize().num_blocks() == 20
    q = rng.normal(size=(4, 8))
    if search == "brute":
        out = brute_force_topk(ds, q, [10, 11, 12, 13], k=3)
    else:
        out = IVFIndex(ds, n_centroids=3, seed=0).search(
            q, [10, 11, 12, 13], k=3, nprobe=3)
    mat = vecs.astype(np.float64)
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    sims = (q / np.linalg.norm(q, axis=1, keepdims=True)) @ mat.T
    for qi in range(4):
        top = np.lexsort((ids, -sims[qi]))[:3]
        got = out[out["query_id"] == 10 + qi]
        assert got["neighbor_id"].tolist() == ids[top].tolist()
        assert got["rank"].tolist() == [1, 2, 3]
        np.testing.assert_allclose(got["cosine"], sims[qi, top], atol=1e-4)
