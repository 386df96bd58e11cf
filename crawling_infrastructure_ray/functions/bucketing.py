"""The engine's ONE bucket tagger, ONE plan width, ONE bucket exchange
and ONE keyed reduce.

Every shuffle-by-hash stage (final reduces in pipelines/analytics,
semi/anti joins in stages/joins, LSH bucket→partition routing in
stages/dedup) tags rows with the same vectorized batch fn so the
"key combination → exactly one bucket" invariant is enforced in a
single place and no shuffle-tag stage ever hashes per row in Python.
How wide a plan runs is ``shuffle_partitions()``. Every per-bucket
stage runs through ``map_buckets``. Both final merges of a combiner
aggregation, ``merge_partials`` on the driver and
``merge_partials_ray`` in Ray, reduce with ``reduce_partials``. They
live here, not next to the queries, because reduce tasks import their
module and this one is cheap to import.
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


def _agg_spec(aggs: list[str] | dict[str, str]) -> dict[str, str]:
    """A merge's ``aggs``: a list of columns to sum, or the spec itself."""
    return aggs if isinstance(aggs, dict) else dict.fromkeys(aggs, "sum")


def merge_partials(partials: rd.Dataset, keys: list[str],
                   aggs: list[str] | dict[str, str]) -> pd.DataFrame:
    """Final reduce of a combiner aggregation with PROVABLY-SMALL key
    cardinality (enum-like keys: order statuses, return flags, event
    types — bounded by the schema, not the data): the per-batch
    partials are already one row per key per batch, so the driver-side
    merge is O(keys x batches). Anything whose key set grows with the
    data (hosts, users, parts) must use ``merge_partials_ray``
    instead — at web scale those keys number 10^7+ and a driver-side
    pandas merge is a memory cliff. ``aggs`` is as in
    ``merge_partials_ray``."""
    pdf = partials.to_pandas()
    if pdf.empty:
        return pdf
    return reduce_partials(pdf, keys, _agg_spec(aggs))


def merge_partials_ray(partials: rd.Dataset, keys: list[str],
                       aggs: list[str] | dict[str, str]) -> rd.Dataset:
    """Final reduce of a combiner aggregation IN RAY, for
    data-dependent key sets (per-host counts, per-user stats, per-part
    counts): the driver never holds the partial set. This is the
    engine's one keyed reduce; no query runs Ray's native
    ``groupby(keys).aggregate``.

    ``aggs`` maps each value column to ``"sum"``, ``"min"`` or
    ``"max"``; a plain list means every column is summed. A count is
    the sum of per-batch counts.

    Shape: ``map_buckets`` over B = P = ``shuffle_partitions()`` key
    buckets, each reduced with one vectorized pandas groupby. The tag
    fuses with the partial's own map task. Every key lands wholly in
    one bucket, so per-bucket results are exact global results
    whatever P is.

    Input that filters to zero rows gives zero rows. It carries no
    schema: Ray skips batch functions on empty blocks, and
    ``to_pandas`` drops zero-row blocks."""
    spec = _agg_spec(aggs)

    def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return reduce_partials(g, keys, spec)

    return map_buckets(partials, keys, reduce_bucket)


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
