"""Reusable distributed join operators.

Ray Data has no semi/anti-join primitive, and this Ray version's
native ``Dataset.join`` measured slower and hang-prone at low CPU
(see pipelines/analytics.q_j3_native_hash_join); these are the
explicit bucketed shapes the engine standardizes on (SURVEY.md §2.5
J1/J4 RD mapping): hash both sides on the join key into a bounded
number of buckets, resolve membership per bucket inside
``bucketing.map_buckets`` with vectorized pandas — one exchange, zero
driver-side key sets.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray.data as rd

from ..functions.bucketing import (map_buckets, shuffle_partitions,
                                   tag_bucket_fn)


def _int_casts(schema: pa.Schema) -> dict:
    """Dtype-restore map for the bucketed joins: the key side pads
    non-join columns with nulls, which promotes int64 columns to
    float64 in the per-bucket pandas frame; after the key rows are
    dropped the values are loss-free, so cast integers back so the
    output schema matches the input's exactly."""
    return {name: "int64" for name, typ in zip(schema.names, schema.types)
            if pa.types.is_integer(typ)}


def _tagged_union(data: rd.Dataset, keys: rd.Dataset, on: str,
                  num_buckets: int, salt: int = 1) -> rd.Dataset:
    """Shared front half of the bucketed semi/anti joins: tag both
    sides with the engine's vectorized bucket tagger
    (functions/bucketing — dictionary-encoded string hashing, no
    per-row Python), pad the key side to the data schema with nulls,
    and union into ONE stream keyed on ``jbucket``, hashed into
    ``num_buckets`` buckets (``num_buckets * salt`` tags).

    ``salt > 1`` is the HOT-KEY SKEW path (the north rule's salted
    repartitioning): each data row lands in one of ``salt``
    sub-buckets of its key's bucket (round-robin over the batch —
    vectorized, deterministic given block layout, and irrelevant to
    results since every sub-bucket sees the full key set), while the
    key side is REPLICATED into all ``salt`` sub-buckets. A key
    carrying 90% of the rows then spreads over ``salt`` parallel
    groups instead of serializing one straggler bucket; the price is
    key-side duplication × salt, which is the right trade exactly when
    the key side is the small one."""
    schema = data.schema()
    names, types = list(schema.names), list(schema.types)
    tag = tag_bucket_fn([on], num_buckets, "jbucket")

    def _subsplit(t: pa.Table, s) -> pa.Table:
        b = t["jbucket"].to_numpy(zero_copy_only=False)
        return t.set_column(t.schema.get_field_index("jbucket"), "jbucket",
                            pa.array(b * salt + s, pa.int64()))

    def tag_data(t: pa.Table) -> pa.Table:
        out = tag(t).append_column("is_key", pa.array([False] * t.num_rows))
        if salt > 1:
            import numpy as np
            out = _subsplit(out, np.arange(out.num_rows) % salt)
        return out

    def tag_keys(t: pa.Table) -> pa.Table:
        n = t.num_rows
        cols = {}
        for name, typ in zip(names, types):
            cols[name] = t[on] if name == on else pa.nulls(n, typ)
        out = tag(pa.table(cols))
        out = out.append_column("is_key", pa.array([True] * n))
        if salt > 1:
            out = pa.concat_tables([_subsplit(out, s) for s in range(salt)])
        return out

    # no consolidating repartition: the exchange's boundary sort (or,
    # on one CPU, its single map task) already gathers the union's
    # small blocks into one block per partition
    return (data.map_batches(tag_data, batch_format="pyarrow")
            .union(keys.map_batches(tag_keys, batch_format="pyarrow")))


def _membership_join(data: rd.Dataset, keys: rd.Dataset, on: str,
                     num_buckets: int | None, salt: int,
                     keep_hits: bool) -> rd.Dataset:
    """Semi (``keep_hits``) or anti join: resolve each bucket of the
    tagged union in one ``map_buckets`` call."""
    num_buckets = num_buckets or 2 * shuffle_partitions()
    both = _tagged_union(data, keys, on, num_buckets, salt)
    casts = _int_casts(data.schema())

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        hit = g[on].isin(set(g.loc[g["is_key"], on]))
        out = g[~g["is_key"] & (hit if keep_hits else ~hit)]
        return out.drop(columns=["jbucket", "is_key"]).astype(casts)

    return map_buckets(both, "jbucket", per_bucket, num_buckets * salt)


def bucketed_semi_join(data: rd.Dataset, keys: rd.Dataset, *, on: str,
                       num_buckets: int | None = None,
                       salt: int = 1) -> rd.Dataset:
    """Distributed semi-join: keep ``data`` rows whose ``on`` value
    appears in ``keys`` (a single-column Dataset named ``on``).

    Both sides are hash-bucketed on the join key; the key side is
    padded to the data schema with nulls so the union shuffles one
    stream; per-bucket membership is a vectorized pandas ``isin``
    inside ``map_buckets``. One exchange of the (already filtered) data,
    zero driver-side key sets — the portable semi-join shape for
    data-sized key sets (same family as q_j2's bucketed hash join).
    """
    return _membership_join(data, keys, on, num_buckets, salt, True)


def bucketed_anti_join(data: rd.Dataset, keys: rd.Dataset, *, on: str,
                       num_buckets: int | None = None,
                       salt: int = 1) -> rd.Dataset:
    """Distributed anti-join: keep ``data`` rows whose ``on`` value
    does NOT appear in ``keys`` — same bucketed shape as
    ``bucketed_semi_join`` with the membership inverted (the J4
    truly-failed-audit shape at data-sized key cardinality)."""
    return _membership_join(data, keys, on, num_buckets, salt, False)


def union_find_components(pairs) -> dict:
    """Connected components over an edge list (path-halving union-find;
    public algorithm). ``pairs`` is an iterable of (a, b). Returns
    node → root. Driver-side by design: the edge list is the OUTPUT of
    an LSH pairing pipeline, i.e. output-sized, not corpus-sized.

    Keep-first contract: each component's representative is its
    SMALLEST id under the ids' native ordering, so all ids must be
    mutually comparable (all str or all int — mixing raises)."""
    parent: dict = {}

    def find(x):
        r = parent.setdefault(x, x)
        while r != parent[r]:
            parent[r] = parent[parent[r]]   # path halving
            r = parent[r]
        parent[x] = r
        return r

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            # deterministic root: smaller id wins (keep-first semantics,
            # native ordering — 2 beats 10 for ints)
            lo, hi = (ra, rb) if ra <= rb else (rb, ra)
            parent[hi] = lo
    return {x: find(x) for x in list(parent)}


def bloom_semi_join(data: rd.Dataset, keys: rd.Dataset, *, on: str,
                    nbits: int = 1 << 20, n_hashes: int = 4) -> rd.Dataset:
    """RUNTIME-FILTER (bloom) pushdown semi-join for integer keys —
    the modern engines' build-side runtime filter, composed from Ray
    stages: output is EXACTLY the plain semi-join, but the all-to-all
    only ever carries the bloom survivors.

    Stage 1 (build): per-block bloom bitmap partials over ``keys``
    (vectorized double-hash bit set), OR-merged on the driver — the
    reduce is bitmap-sized (nbits/8 bytes × blocks), never key-sized.
    Stage 2 (probe): the merged bitmap rides the object store once
    (``ray.put``); each data batch tests membership vectorized.
    Bloom filters have NO false negatives, so survivors are a
    guaranteed superset of the matches. Stage 3 (exact): the standard
    ``bucketed_semi_join`` over survivors removes the ~FPP false
    positives. At 1% FPP the exchange volume drops from |data| to
    ~|matches| + 1%·|data| — the win that motivates runtime filters.
    """
    import numpy as np
    import ray as _ray

    C1 = np.uint64(0xFF51AFD7ED558CCD)
    C2 = np.uint64(0x9E3779B97F4A7C15)

    def _h1h2(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(over="ignore"):
            h = v.astype("int64", copy=False).astype(np.uint64)
            h1 = h * C1
            h1 ^= h1 >> np.uint64(33)
            h2 = (h1 * C2) | np.uint64(1)  # odd stride
        return h1, h2

    def build_partial(batch: pa.Table) -> pa.Table:
        import numpy as np
        v = batch[on].to_numpy(zero_copy_only=False)
        words = np.zeros(nbits // 64, dtype=np.uint64)
        h1, h2 = _h1h2(v)
        with np.errstate(over="ignore"):
            for i in range(n_hashes):
                pos = (h1 + np.uint64(i) * h2) % np.uint64(nbits)
                np.bitwise_or.at(words, (pos >> np.uint64(6)).astype(np.int64),
                                 np.uint64(1) << (pos & np.uint64(63)))
        return pa.table({"bm": pa.array([words.tobytes()], pa.binary())})

    merged = np.zeros(nbits // 64, dtype=np.uint64)
    for row in (keys.map_batches(build_partial, batch_format="pyarrow")
                .iter_rows()):
        merged |= np.frombuffer(row["bm"], dtype=np.uint64)
    bm_ref = _ray.put(merged)

    def probe(batch: pa.Table) -> pa.Table:
        import numpy as np
        words = _ray.get(bm_ref)
        v = batch[on].to_numpy(zero_copy_only=False)
        h1, h2 = _h1h2(v)
        hit = np.ones(len(v), dtype=bool)
        with np.errstate(over="ignore"):
            for i in range(n_hashes):
                pos = (h1 + np.uint64(i) * h2) % np.uint64(nbits)
                bits = (words[(pos >> np.uint64(6)).astype(np.int64)]
                        >> (pos & np.uint64(63))) & np.uint64(1)
                hit &= bits.astype(bool)
        return batch.filter(pa.array(hit))

    survivors = data.map_batches(probe, batch_format="pyarrow")
    return bucketed_semi_join(survivors, keys, on=on)


def snapshot_diff(snap_a: rd.Dataset, snap_b: rd.Dataset, *, on: str,
                  value: str) -> rd.Dataset:
    """CHANGE-DATA-CAPTURE diff between two keyed snapshots — the
    recrawl operator (the reference's scheduler re-runs crawl tasks on
    an interval, `scheduler/` daemon; diffing the previous result set
    against the new one is how a consumer turns recrawls into change
    feeds). Emits one row per changed key:
    ``(on, change ∈ {added, removed, changed}, old, new)`` where
    ``old``/``new`` are the ``value`` column of each side (-1
    sentinel for the absent side so the schema stays non-null int64).
    Unchanged keys are dropped.

    Shape: ONE bucket exchange — both snapshots are tagged with the
    shared vectorized bucket tagger, unioned into a single stream
    (side flag 0/1), and each bucket resolves its keys with ONE
    vectorized pandas outer merge. No driver-side key sets; exchange
    volume = |A| + |B| exactly once, which is the lower bound for an
    arbitrary two-snapshot diff."""
    import numpy as np

    num_buckets = 2 * shuffle_partitions()
    tag = tag_bucket_fn([on], num_buckets, "jbucket")

    def tag_side(side: int):
        def fn(t: pa.Table) -> pa.Table:
            out = pa.table({on: t[on], "val": t[value]})
            out = tag(out)
            return out.append_column(
                "side", pa.array(np.full(t.num_rows, side, dtype=np.int8)))
        return fn

    both = (snap_a.map_batches(tag_side(0), batch_format="pyarrow")
            .union(snap_b.map_batches(tag_side(1), batch_format="pyarrow")))

    def diff_bucket(g: pd.DataFrame) -> pd.DataFrame:
        import numpy as np
        a = g.loc[g["side"] == 0, [on, "val"]].rename(columns={"val": "old"})
        b = g.loc[g["side"] == 1, [on, "val"]].rename(columns={"val": "new"})
        m = a.merge(b, on=on, how="outer")
        added = m["old"].isna().to_numpy()
        removed = m["new"].isna().to_numpy()
        changed = ~added & ~removed & (m["old"] != m["new"]).to_numpy()
        keepm = added | removed | changed
        m = m[keepm]
        lab = np.where(added[keepm], "added",
                       np.where(removed[keepm], "removed", "changed"))
        return pd.DataFrame({
            on: m[on].to_numpy().astype("int64"),
            "change": pd.Series(lab, dtype="object", index=m.index),
            "old": m["old"].fillna(-1).to_numpy().astype("int64"),
            "new": m["new"].fillna(-1).to_numpy().astype("int64")})

    return map_buckets(both, "jbucket", diff_bucket, num_buckets)
