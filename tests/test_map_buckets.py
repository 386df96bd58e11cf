"""The engine's one bucket exchange (``bucketing.map_buckets``),
checked against a pandas groupby-apply over the same bucket tags at
plan widths 1, 3 and 5."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from crawling_infrastructure_ray.functions import bucketing

KEYS = ["host", "sig", "ts"]


def _rows(seed: int, n: int) -> pa.Table:
    rng = np.random.default_rng(seed)
    k = rng.integers(0, 50, n)
    # uint64 keys straddle 2^63: half of them have the top bit set
    sig = (k.astype(np.uint64) << np.uint64(58)) | np.uint64(777)
    return pa.table({
        "host": pa.array([f"h{x % 11}.example" for x in k], pa.string()),
        "sig": pa.array(sig, pa.uint64()),
        "ts": pa.array(np.datetime64("2024-01-01", "us")
                       + (k % 6).astype("timedelta64[h]")),
        "v": pa.array(rng.integers(-500, 500, n), pa.int64())})


def _per_bucket_fn():
    """One row per key, plus the bucket and its size: a key split over
    two calls, or a bucket seen twice, shows in the result. A closure,
    so Ray ships it by value to workers that cannot import this test
    module."""
    keys = list(KEYS)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby(keys, as_index=False)
               .agg(n=("v", "size"), s=("v", "sum")))
        out["bucket"] = int(g["_kb"].iloc[0])
        out["bucket_rows"] = len(g)
        return out

    return per_bucket


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(KEYS).reset_index(drop=True)


@pytest.fixture(params=[1, 3, 5])
def width(request, monkeypatch):
    """P = 1 takes the single-task path; P = 3 and 5 route buckets
    through the boundary sort even on a small session."""
    monkeypatch.setattr(bucketing, "shuffle_partitions",
                        lambda: request.param)
    return request.param


@pytest.mark.parametrize("num_buckets", [7, 1])
def test_matches_groupby_apply(ray_session, width, num_buckets):
    # B = 7 is a multiple of neither width; B = 1 is one bucket only;
    # the zero-row block is an empty input block
    blocks = [_rows(s, 250) for s in range(5)] + [_rows(99, 0)]
    fn = _per_bucket_fn()
    got = bucketing.map_buckets(rd.from_arrow(blocks), KEYS, fn,
                                num_buckets).to_pandas()
    tagged = bucketing.tag_bucket_fn(KEYS, num_buckets)(
        pa.concat_tables(blocks)).to_pandas()
    want = pd.concat([fn(g) for _, g in tagged.groupby("_kb")],
                     ignore_index=True)
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want))
    assert got["bucket"].between(0, num_buckets - 1).all()


def test_fn_called_once_per_bucket(ray_session, width):
    blocks = [_rows(s, 200) for s in range(8)]
    calls = bucketing.map_buckets(
        rd.from_arrow(blocks), ["host"],
        lambda g: pd.DataFrame({"bucket": [int(g["_kb"].iloc[0])],
                                "n": [len(g)]}), 5).to_pandas()
    tags = bucketing.tag_bucket_fn(["host"], 5)(pa.concat_tables(blocks))
    want = pd.Series(tags["_kb"].to_numpy()).value_counts()
    assert calls["bucket"].is_unique
    assert dict(zip(calls["bucket"], calls["n"])) == want.to_dict()


def test_caller_tag_and_arrow_batches(ray_session, width):
    """A tag column the caller already holds, with Arrow batches."""
    t = pa.table({"t": pa.array(np.arange(60) % 4, pa.int64()),
                  "v": pa.array(np.arange(60), pa.int64())})
    blocks = [t.slice(0, 25), t.slice(25, 0), t.slice(25, 35)]

    def fn(g: pa.Table) -> pa.Table:
        assert isinstance(g, pa.Table)
        return pa.table({"t": g["t"].slice(0, 1),
                         "s": pa.array([sum(g["v"].to_pylist())])})

    got = (bucketing.map_buckets(rd.from_arrow(blocks), "t", fn, 4,
                                 "pyarrow")
           .to_pandas().sort_values("t").reset_index(drop=True))
    v = np.arange(60)
    assert got["t"].tolist() == [0, 1, 2, 3]
    assert got["s"].tolist() == [int(v[v % 4 == b].sum()) for b in range(4)]
