"""The engine's ONE bucket tagger, ONE plan width, ONE bucket exchange,
ONE keyed reduce, ONE keyed aggregate and ONE bounded top-k.

Every shuffle-by-hash stage (final reduces in pipelines/analytics,
semi/anti joins in stages/joins, LSH bucket→partition routing in
stages/dedup) tags rows with the same vectorized batch fn so the
"key combination → exactly one bucket" invariant is enforced in a
single place and no shuffle-tag stage ever hashes per row in Python.
How wide a plan runs is ``shuffle_partitions()``. Every per-bucket
stage runs through ``map_buckets``. A query whose plan is read →
per-batch keyed partial → keyed merge calls ``aggregate``: one fused
map per batch (``prep``, the Arrow group-by, the renaming), then the
merge on the driver or in Ray, typed from the zero-row partial. A
top-k over any Dataset is ``top_k``. Both merges, ``merge_partials``
on the driver and ``merge_partials_ray`` in Ray, reduce with
``reduce_partials``; only partials of a join, a bucket exchange or a
union call them directly. They live here, not next to the queries,
because reduce tasks import their module and this one is cheap to
import.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data.block import BlockAccessor

from .hashing import stable_hash64


def shuffle_partitions() -> int:
    """Width of every Ray Data plan: the cluster's CPU count, capped at
    32. Table reads ask for this many blocks
    (``sources.readers.read_table``, ``sources.storage.read_dataset``)
    and every bucket exchange (``map_buckets``) routes into this many
    partitions. A width only sets parallelism (every key lands wholly
    in one bucket and every per-bucket reduce sorts before it sums),
    so it follows the CPUs that run the tasks: on one CPU a 32-way
    shuffle is 64 queued tasks of pure per-task overhead, and a read
    split into 1 MiB blocks is one partial task per block. Key-bucket
    counts are often twice this (64 at 32 CPUs). Call it on the
    driver once per query plan, never inside a batch function."""
    return max(1, min(32, int(ray.cluster_resources().get("CPU", 1))))


def reduce_partials(g: pd.DataFrame, keys: list[str],
                    spec: dict[str, str]) -> pd.DataFrame:
    """Reduce combiner partials by ``keys``: ``spec`` maps each value
    column to ``"sum"``, ``"min"`` or ``"max"``. Row order follows
    block ARRIVAL (scheduling-dependent) and float addition is not
    associative, so rows are sorted by keys and summed columns first:
    the reduce is bit-reproducible."""
    order = keys + [c for c, op in spec.items() if op == "sum"]
    g = g.sort_values(order).reset_index(drop=True)
    return g.groupby(keys, as_index=False).agg(spec)


def merge_partials(partials: rd.Dataset, keys: list[str],
                   aggs: dict[str, str]) -> pd.DataFrame:
    """Final reduce of per-batch partials on the driver: ``aggs`` maps
    each value column to ``"sum"``, ``"min"`` or ``"max"``. For
    partial sets bounded by the schema (enum keys: order statuses,
    event types), where the driver merge is O(keys x batches).
    ``aggregate`` covers the partials of a read; a query calls this
    directly only for partials of a join, a bucket exchange or a
    union."""
    pdf = partials.to_pandas()
    if pdf.empty:
        return pdf
    return reduce_partials(pdf, keys, aggs)


def merge_partials_ray(partials: rd.Dataset, keys: list[str],
                       aggs: dict[str, str]) -> rd.Dataset:
    """``merge_partials`` IN RAY, for data-dependent key sets (hosts,
    users, parts): the driver never holds the partial set. Shape:
    ``map_buckets`` over ``shuffle_partitions()`` key buckets, each
    reduced with ``reduce_partials``. Every key lands wholly in one
    bucket, so per-bucket results are exact global results whatever
    the width. No query runs Ray's native ``groupby(keys).aggregate``.

    Input that filters to zero rows gives zero rows and no schema: Ray
    2.49 skips batch functions on empty blocks, and ``to_pandas``
    drops zero-row blocks."""
    return map_buckets(partials, keys,
                       lambda g: reduce_partials(g, keys, aggs))


def aggregate(ds: rd.Dataset, keys: list[str],
              aggs: dict[str, tuple[str, str]], prep=None,
              in_ray: bool = False):
    """The engine's one keyed aggregate: per-batch partial, then final
    merge. ``aggs`` maps each output column to ``(source column, op)``
    with op ``count``, ``sum``, ``min`` or ``max``; ``prep`` is an
    optional Arrow batch function that filters rows or derives the
    source columns.

    Each batch runs one fused map: ``prep``, the Arrow
    ``group_by(keys).aggregate``, the renaming. The merge reduces the
    partials with ``reduce_partials`` (a count merges as a sum) on the
    driver, which returns a pandas frame, or with ``in_ray=True`` in
    Ray over ``map_buckets``, which returns a Dataset. Use the driver
    for key sets bounded by the schema (enum keys) and Ray for key
    sets that grow with the data (hosts, users, parts).

    Output types come from running ``prep`` and the partial once on
    the driver, on a zero-row table of ``ds.schema()``: free for a
    table read (the footer scan knows it), one ``limit(1)`` execution
    for any other plan. Every merged column is cast to its partial's
    type, and a driver merge of zero rows returns a typed empty frame.
    A Ray merge of zero rows returns zero blocks, with no schema: Ray
    2.49 drops zero-row blocks."""
    names = keys + list(aggs)
    cols = list(aggs.values())
    spec = {c: "sum" if op == "count" else op for c, (_, op) in aggs.items()}

    def partial(batch: pa.Table) -> pa.Table:
        if prep is not None:
            batch = prep(batch)
        return batch.group_by(keys).aggregate(cols).rename_columns(names)

    empty = partial(ds.schema().base_schema.empty_table()).to_pandas()
    dtypes = empty.dtypes

    def reduce(g: pd.DataFrame) -> pd.DataFrame:
        return reduce_partials(g, keys, spec).astype(dtypes)

    partials = ds.map_batches(partial, batch_format="pyarrow")
    if in_ray:
        return map_buckets(partials, keys, reduce)
    pdf = partials.to_pandas()
    return reduce(pdf) if len(pdf) else empty


def top_k(ds: rd.Dataset, by: list[tuple[str, str]], k: int) -> pd.DataFrame:
    """The first ``k`` rows of ``ds`` in ``by`` order (``(column,
    "ascending" | "descending")`` pairs): sort and slice inside each
    block, then sort the ≤ k x blocks survivors and take ``head(k)``
    on the driver. A top-k never needs the distributed sort. Zero rows
    give an empty frame with no columns (see ``merge_partials_ray``)."""
    def block_top(batch: pa.Table) -> pa.Table:
        return batch.sort_by(by).slice(0, k)

    df = ds.map_batches(block_top, batch_format="pyarrow").to_pandas()
    if df.empty:
        return df
    return (df.sort_values([c for c, _ in by],
                           ascending=[o == "ascending" for _, o in by])
            .head(k).reset_index(drop=True))


def map_buckets(ds: rd.Dataset, keys_or_tag: list[str] | str, fn,
                num_buckets: int | None = None,
                batch_format: str = "pandas") -> rd.Dataset:
    """The engine's one bucket exchange: call ``fn`` once per bucket
    with all of that bucket's rows, as ``ds.groupby(tag).map_groups(fn)``
    would, and return the concatenated results.

    ``keys_or_tag`` is either the key columns, which are tagged here
    into column ``_kb`` = hash(keys) % B by ``tag_bucket_fn``, or the
    name of an integer tag column the caller already holds, whose
    values lie in [0, B). B = ``num_buckets``, by default
    ``shuffle_partitions()``. ``fn`` sees the tag column, and gets a
    pandas frame or an Arrow table as ``batch_format`` says.

    Plan, with P = min(B, ``shuffle_partitions()``): at P = 1 there is
    nothing to route, so one map task takes the whole input as one
    batch and splits it by bucket. At P > 1, one range sort on the tag
    with boundaries given up front (no sampling pass, no repartition)
    sends the buckets [⌈iB/P⌉, ⌈(i+1)B/P⌉) to output block i, and a
    whole-block map splits each block by bucket. That is the plan of
    Ray's own ``map_groups``, less the sampling pass, and with one
    partition per CPU instead of one per input block."""
    width = shuffle_partitions()
    b = num_buckets or width
    p = min(b, width)
    if isinstance(keys_or_tag, str):
        tag = keys_or_tag
    else:
        tag = "_kb"
        ds = ds.map_batches(tag_bucket_fn(keys_or_tag, b),
                            batch_format="pyarrow")

    def split_block(block):
        acc = BlockAccessor.for_block(block)
        t = np.asarray(acc.to_numpy(tag))
        if len(t) == 0:
            return
        if (t[1:] < t[:-1]).any():
            order = np.argsort(t, kind="stable")
            acc = BlockAccessor.for_block(acc.take(order))
            t = t[order]
        cuts = [0, *(np.flatnonzero(t[1:] != t[:-1]) + 1).tolist(), len(t)]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            group = BlockAccessor.for_block(acc.slice(lo, hi, copy=False))
            yield fn(group.to_batch_format(batch_format))

    if p == 1:
        return ds.map_batches(split_block, batch_size=1 << 62,
                              batch_format=None)
    bounds = [-(-i * b // p) for i in range(1, p)]
    return (ds.sort(tag, boundaries=bounds)
            .map_batches(split_block, batch_size=None, batch_format=None))


def tag_bucket_fn(keys: list[str], num_buckets: int | None = None,
                  col_name: str = "_kb"):
    """Batch fn: append an integer bucket column = hash(keys) % B,
    B = ``num_buckets`` or, by default, ``shuffle_partitions()``.
    Vectorized — string keys are dictionary-encoded so only distinct
    values are hashed; numeric/timestamp keys use a splitmix-style
    multiply. Every key combination lands wholly in ONE bucket, which
    is the invariant the bucketed reduces/joins/windows rely on."""
    if num_buckets is None:
        num_buckets = shuffle_partitions()

    def tag(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if num_buckets == 1:
            return batch.append_column(col_name,
                                       pa.array(np.zeros(n, np.int64)))
        acc = np.zeros(n, dtype=np.uint64)
        with np.errstate(over="ignore"):
            for c in keys:
                col = batch[c]
                if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
                    enc = pc.dictionary_encode(col.combine_chunks())
                    # byte-position vectorized FNV over the DISTINCT
                    # values (bit-identical to stable_hash64)
                    from .hashing import stable_hash64_col_np
                    dh = stable_hash64_col_np(enc.dictionary)
                    h = dh[enc.indices.to_numpy(zero_copy_only=False)]
                else:
                    v = col.to_numpy(zero_copy_only=False)
                    h = v.astype("int64", copy=False).astype(np.uint64)
                    h = h * np.uint64(0xFF51AFD7ED558CCD)
                    h ^= h >> np.uint64(33)
                acc = acc * np.uint64(0x9E3779B97F4A7C15) ^ h
        kb = (acc % np.uint64(num_buckets)).astype(np.int64)
        return batch.append_column(col_name, pa.array(kb))

    return tag
