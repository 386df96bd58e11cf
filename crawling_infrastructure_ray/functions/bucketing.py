"""The engine's ONE bucket tagger and ONE shuffle width.

Every shuffle-by-hash stage (final reduces in pipelines/analytics,
semi/anti joins in stages/joins, LSH bucket→partition routing in
stages/dedup) tags rows with the same vectorized batch fn so the
"key combination → exactly one bucket" invariant is enforced in a
single place and no shuffle-tag stage ever hashes per row in Python.
How many partitions such a shuffle uses is ``shuffle_partitions()``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .hashing import stable_hash64


def shuffle_partitions() -> int:
    """Width of every hash shuffle: the cluster's CPU count, capped at
    32. A partition count only sets parallelism (every key lands
    wholly in one bucket and every per-bucket reduce sorts before it
    sums), so the width follows the CPUs that run the shuffle's map
    and reduce tasks: on one CPU a 32-way shuffle is 64 queued tasks
    of pure per-task overhead. Key-bucket counts are twice this (64
    at 32 CPUs). Call it on the driver once per query plan, never
    inside a batch function."""
    return max(1, min(32, int(ray.cluster_resources().get("CPU", 1))))


def u64_as_i64(batch: pa.Table, cols: list[str]) -> pa.Table:
    """Bit-cast uint64 columns to int64 before a Ray groupby. Ray
    Data's sort-based aggregate rebuilds key columns from Python ints;
    a uint64 key ≥ 2^63 overflows the default int64 array build and
    the block silently degrades to a pickled-object extension column
    (seen as 'OverflowError: Python int too large to convert to C
    long' warnings). The view is value-preserving under i64_as_u64."""
    for c in cols:
        v = batch[c].to_numpy(zero_copy_only=False).view(np.int64)
        batch = batch.set_column(batch.schema.get_field_index(c), c,
                                 pa.array(v, pa.int64()))
    return batch


def i64_as_u64(batch: pa.Table, cols: list[str]) -> pa.Table:
    """Inverse bit-cast of u64_as_i64 (after the groupby)."""
    for c in cols:
        v = batch[c].to_numpy(zero_copy_only=False).view(np.uint64)
        batch = batch.set_column(batch.schema.get_field_index(c), c,
                                 pa.array(v, pa.uint64()))
    return batch


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
