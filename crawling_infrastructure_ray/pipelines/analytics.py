"""Wide analytics operators over the synthetic tables.

Each ``q_*`` function is the Ray-Data implementation of one operator
from SURVEY.md §2 (aggregations G1-G9, sorts/top-k O2-O6, joins J1/J4,
maps M3/M5/M7/M10, plus TPC-H-style anchors and the training-data
ops); ``ORACLE_SQL`` holds the DuckDB-equivalent SQL with IDENTICAL
output column names and rounding, used by the driver's correctness
gate (__ray_entry__.oracle_sql).

Scale notes baked in:
- reads prune columns (``columns=[...]``) — only needed columns leave
  storage;
- every read → per-batch keyed partial → keyed merge runs through
  ``bucketing.aggregate`` (``prep`` + Arrow group-by fused in one map,
  one row per key per batch crosses the merge, columns typed from the
  zero-row partial), and every top-k through ``bucketing.top_k``
  (per-block sort + slice, then a driver merge of ≤ k x blocks rows);
- every plan is as wide as the session: tables are read into
  ``shuffle_partitions()`` blocks, one per CPU, so a one-CPU session
  runs one task per stage;
- every per-bucket stage (windows, per-key reduces, bucketed joins)
  runs through the one bucket exchange, ``bucketing.map_buckets``: one
  map task on one CPU, one boundary sort (no sampling pass, no
  repartition) on more; only real keys (event types, sources) still
  group natively;
- data-sized key sets (hosts, parts, content hashes) merge in Ray
  (``aggregate(..., in_ray=True)``: per-column sum/min/max on
  ``map_buckets``); no query runs Ray's native ``groupby().aggregate``;
- partials bounded by the schema or the request (enum keys, top-k
  rows, ≤ queries × k neighbours per block) merge on the driver
  (``aggregate`` by default; ``simsearch.merge_topk`` streams the
  blocks and keeps only the running top k): each Ray Data
  execution and all-to-all stage costs tens of milliseconds of
  scheduling, which a few hundred rows never repay. Only partials
  of a join, a bucket exchange or a union call
  ``merge_partials``/``merge_partials_ray`` themselves;
- small join sides are read directly on the driver
  (``sources.readers.read_local``, no Ray Data execution), broadcast
  via ``ray.put`` and looked up inside ``map_batches`` — no shuffle;
- the one deliberate large-large join (j2) is an explicit bucketed
  hash join: both sides keyed bucket = key % B, one Arrow join and
  group-by per bucket inside ``map_buckets``.
"""

from __future__ import annotations

import json

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data.aggregate import Count, Sum

# the engine's one keyed reduce and single vectorized shuffle tagger —
# shared with pipelines/training, stages/joins and stages/dedup so the
# bucket invariant and the no-per-row-Python rule are enforced in one
# place
from ..functions.bucketing import (aggregate, map_buckets, merge_partials,
                                   merge_partials_ray, shuffle_partitions,
                                   top_k)
from ..functions.bucketing import tag_bucket_fn as _tag_bucket
from ..sources.readers import read_local, read_table
from ..stages.html import clean_html_string


# ----------------------------------------------------------------------
# aggregations (G1-G9)
# ----------------------------------------------------------------------

def q_g1_status_histogram(sf_dir: str):
    """G1 queue-status histogram analog (queue.model.ts:98-106):
    per-batch status counts → tiny enum-keyed driver merge (3 statuses;
    no all-to-all needed for a histogram)."""
    ds = read_table(sf_dir, "orders", columns=["o_orderstatus"])
    return aggregate(ds, ["o_orderstatus"],
                     {"n_items": ("o_orderstatus", "count")})


def q_g2_task_finished(sf_dir: str):
    """G2 finished predicate analog (queue.model.ts:116-127): counts of
    terminal vs open statuses in one scan."""
    ds = read_table(sf_dir, "orders", columns=["o_orderstatus"])

    def partial(batch: pa.Table) -> pa.Table:
        s = batch["o_orderstatus"]
        return pa.table({
            "n_completed": pa.array([pc.sum(pc.equal(s, "F")).as_py() or 0]),
            "n_open": pa.array([pc.sum(pc.equal(s, "O")).as_py() or 0]),
            "n_total": pa.array([len(s)])})

    out = ds.map_batches(partial, batch_format="pyarrow").to_pandas().sum()
    return pd.DataFrame([{"n_completed": int(out["n_completed"]),
                          "n_open": int(out["n_open"]),
                          "n_total": int(out["n_total"])}])


def q_g3_window_progress(sf_dir: str):
    """G3 time-window progress (queue.model.ts:172-199): completed
    newer than a cutoff, per type — filter + per-batch count + tiny
    enum-keyed merge."""
    ds = read_table(sf_dir, "events", columns=["event_type", "ts"])
    cutoff = pa.scalar(np.datetime64("2024-01-24T00:00:00", "us"))
    return aggregate(
        ds, ["event_type"], {"n_recent": ("event_type", "count")},
        lambda b: b.filter(pc.greater_equal(b["ts"], cutoff)))


def q_g4_fleet_stats(sf_dir: str):
    """G4 worker-meta fleet stats analog (workermeta.model.ts:78-117):
    per-worker counts/averages — pre-aggregated per batch, final
    reduce as a Ray groupby (workers number 10^4+ at fleet scale; the
    key set is data-dependent so the merge must not land on the
    driver), then a vectorized per-batch finisher for the averages."""
    ds = read_table(sf_dir, "events", columns=["user_id", "value"])

    # exact-integer units (repo convention, README "why the hashes
    # hold"): per-row cents are exact for the 2-decimal value column,
    # integer sums are associative, and the half-away average is pure
    # integer arithmetic — no float-sum order sensitivity, so the
    # reduce is bit-identical to DuckDB on ANY data, not just data
    # whose averages dodge the .0005 rounding midpoints
    def prep(batch: pa.Table) -> pa.Table:
        v_c = pc.cast(pc.round(pc.multiply(batch["value"], 100.0)), pa.int64())
        return pa.table({"user_id": batch["user_id"], "v_c": v_c})

    merged = aggregate(ds, ["user_id"], {"n_events": ("v_c", "count"),
                                         "sum_value_c": ("v_c", "sum")},
                       prep, in_ray=True)

    def finish(batch: pa.Table) -> pa.Table:
        s = batch["sum_value_c"].to_numpy()
        n = batch["n_events"].to_numpy()
        # avg_value_e3 = round-half-away(1000 * (s/100) / n), in integers
        return batch.append_column("avg_value_e3",
                                   pa.array((20 * s + n) // (2 * n)))

    return merged.map_batches(finish, batch_format="pyarrow")


def q_g5_avg_rate(sf_dir: str):
    """G5 running-average items/s analog (crawler/src/metadata.ts:85-96):
    mean value per type."""
    ds = read_table(sf_dir, "events", columns=["event_type", "value"])

    # exact-integer cents (see q_g4_fleet_stats): integer sums +
    # integer half-away average — order-insensitive, hash-stable
    df = aggregate(ds, ["event_type"],
                   {"sum_c": ("v_c", "sum"), "n_v": ("v_c", "count")},
                   _type_cents)
    df["avg_value_e3"] = (20 * df["sum_c"] + df["n_v"]) // (2 * df["n_v"])
    return df[["event_type", "avg_value_e3"]]


def q_g6_distinct_users(sf_dir: str):
    """G6 distinct worker IPs analog (stats.service.ts:132-157).

    Exact distinct count, distributed: per-batch distinct (one row per
    value per batch) → bucketed merge → per-bucket distinct COUNT —
    the driver receives one integer per bucket, never the distinct
    value list (``len(ds.unique())`` would ship all 10^? values)."""
    ds = read_table(sf_dir, "events", columns=["user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        return pa.table({"user_id": pc.unique(batch["user_id"].combine_chunks())})

    def count_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame([{"n": np.int64(g["user_id"].nunique())}])

    counts = (map_buckets(ds.map_batches(partial, batch_format="pyarrow"),
                          ["user_id"], count_bucket)
              .to_pandas())
    return pd.DataFrame([{"n_distinct_users": int(counts["n"].sum())}])


def q_g7_host_counts(sf_dir: str):
    """G7 per-host doc counts (domain_count.js:40-56) — the canonical
    wide shuffle. Hosts are the reference's signature HIGH-cardinality
    key (10^7-10^8 at web scale), so the final reduce is a Ray groupby
    over the per-batch partials — the driver never materializes the
    partial set."""
    ds = read_table(sf_dir, "documents", columns=["source"])
    return aggregate(ds, ["host"], {"n_docs": ("host", "count")},
                     lambda b: b.rename_columns(["host"]), in_ray=True)


def q_g8_totals(sf_dir: str):
    """G8 totals across tasks (crawltask.model.ts:480-492)."""
    ds = read_table(sf_dir, "orders", columns=["o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        c = (np.asarray(batch["o_totalprice"].to_pylist()) * 100).round().astype(np.int64)
        return pa.table({"n_orders": pa.array([len(c)], pa.int64()),
                         "total_price_c": pa.array([int(c.sum())], pa.int64())})

    out = ds.map_batches(partial, batch_format="pyarrow").to_pandas().sum()
    return pd.DataFrame([{"n_orders": int(out["n_orders"]),
                          "total_price_c": int(out["total_price_c"])}])


def q_g9_bytes_total(sf_dir: str):
    """G9 bytes-uploaded accumulator (crawler/src/metadata.ts:53,69)."""
    ds = read_table(sf_dir, "documents", columns=["n_chars"])
    out = ds.aggregate(Sum("n_chars", alias_name="total_bytes"))
    return pd.DataFrame([{"total_bytes": int(out["total_bytes"])}])


# ----------------------------------------------------------------------
# sorts / top-k (O2, O3, O5, O6)
# ----------------------------------------------------------------------

def q_o2_proxy_claim_order(sf_dir: str):
    """O2 proxy claim ordering (crawler/src/proxy.ts:129-144): rank by
    asc (fail analog, recency analog, id). The full sort + driver
    collect is deliberate: a proxy POOL is a config-scale table
    (hundreds to low thousands of rows in the reference), and the
    global rank IS the output — not a data-sized shuffle."""
    ds = read_table(sf_dir, "supplier",
                    columns=["s_suppkey", "s_name", "s_acctbal", "s_nationkey"])
    df = ds.sort(["s_acctbal", "s_nationkey", "s_suppkey"]).to_pandas()
    df["claim_order"] = np.arange(1, len(df) + 1, dtype=np.int64)
    return df[["s_suppkey", "s_name", "claim_order"]]


def q_o3_recent_topk(sf_dir: str):
    """O3 recent-completed top-k (queue.model.ts:201-207): top-100 by
    ts desc — per-batch partial top-k then a tiny driver merge (a
    top-k never needs the full distributed sort; ≤100 x blocks rows
    reach the driver)."""
    ds = read_table(sf_dir, "events", columns=["event_id", "ts", "event_type"])
    return top_k(ds, [("ts", "descending"), ("event_id", "ascending")], 100)


def q_o5_sample_topk_docs(sf_dir: str):
    """O5/K7 result sampling — N 'largest/most recent' docs
    (crawltask.service.ts:564-601): partial top-k per batch + tiny
    driver merge (same shape as o3)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])
    return top_k(ds, [("n_chars", "descending"), ("doc_id", "ascending")], 50)


def q_o6_top35_parts(sf_dir: str):
    """O6 domain-count top-35 (domain_count.js:57-61): group, count,
    sort desc, limit 35 with deterministic tie-break."""
    ds = read_table(sf_dir, "lineitem", columns=["l_partkey"])
    # pre-aggregate per batch; final reduce as a distributed bucketed
    # merge (partkeys are a data-sized key set), then PARTIAL top-35
    # per block — each key lives in exactly one block after the merge,
    # so the global top-35 is within the union of per-block top-35s
    merged = aggregate(ds, ["l_partkey"], {"n_lines": ("l_partkey", "count")},
                       in_ray=True)
    return top_k(merged, [("n_lines", "descending"),
                          ("l_partkey", "ascending")], 35)


def q_o7_latency_stats(sf_dir: str):
    """O7 latency-stats sort (master/scheduler/runner.ts:266: sort the
    invocation latencies, report mean/median/p95): per event_type over
    the events value column. Quantiles are exact order statistics
    (inverted-CDF / quantile_disc semantics — element selection, so the
    values are bit-identical across engines); computed per group inside
    ``map_groups`` (groups are per-type latency arrays, the same shape
    the reference sorts driver-side)."""
    ds = read_table(sf_dir, "events", columns=["event_type", "value"])

    def stats(g: pd.DataFrame) -> pd.DataFrame:
        # sorted values feed the exact order-statistic quantiles; the
        # mean is exact-integer cents (see q_g4_fleet_stats) so it is
        # order-insensitive and bit-identical to DuckDB on any data
        v = np.sort(g["value"].to_numpy())
        s_c = np.round(v * 100.0).astype(np.int64).sum()
        n = np.int64(v.size)
        return pd.DataFrame([{
            "event_type": g["event_type"].iloc[0],
            "n_lat": n,
            "avg_value_e3": np.int64((20 * s_c + n) // (2 * n)),
            "p50_value": float(np.quantile(v, 0.5, method="inverted_cdf")),
            "p95_value": float(np.quantile(v, 0.95, method="inverted_cdf")),
            "max_value": float(v.max())}])

    return ds.groupby("event_type").map_groups(stats, batch_format="pandas")


# ----------------------------------------------------------------------
# joins (J1, J4, bucketed large-large)
# ----------------------------------------------------------------------

def q_j1_order_customer_join(sf_dir: str):
    """J1 result↔mapping broadcast hash join
    (crawltask.service.ts:374-504): small side read on the driver and
    broadcast via ray.put, lookup inside map_batches — no shuffle."""
    cust = read_local(sf_dir, "customer", columns=["c_custkey", "c_name"])
    # broadcast the small side as SORTED parallel arrays: probe via
    # np.searchsorted (vectorized binary search) instead of a per-row
    # Python dict lookup
    order_idx = np.argsort(cust["c_custkey"].to_numpy())
    keys_sorted = cust["c_custkey"].to_numpy()[order_idx]
    names_sorted = cust["c_name"].to_numpy()[order_idx]
    lookup_ref = ray.put((keys_sorted, names_sorted))
    orders = read_table(sf_dir, "orders",
                        columns=["o_orderkey", "o_custkey", "o_totalprice"])

    def join_batch(batch: pa.Table) -> pa.Table:
        ks, vs = ray.get(lookup_ref)
        probe = batch["o_custkey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(ks, probe)
        pos = np.clip(pos, 0, len(ks) - 1)
        hit = ks[pos] == probe
        names = np.where(hit, vs[pos], None)
        return pa.table({"o_orderkey": batch["o_orderkey"],
                         "c_name": pa.array(names, pa.string()),
                         "o_totalprice": batch["o_totalprice"]})

    return orders.map_batches(join_batch, batch_format="pyarrow")


def q_j4_customers_without_p_orders(sf_dir: str, *, broadcast: bool = False):
    """J4 anti-join (mergeScript truly-failed audit,
    crawltask.service.ts:496-503): customers with no 'P'-status order.

    DEFAULT path: the distributed bucketed anti-join (stages/joins) —
    both sides stay in the cluster, no driver key set, so the shape
    holds when the key side is data-sized. ``broadcast=True`` is the
    documented small-side fast path (key set collected + ``ray.put``,
    ``pc.is_in`` inside map_batches — no shuffle) for when the key
    cardinality is known-small (e.g. the reference's failed-item sets)."""
    p_orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_orderstatus"])
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_name"])

    if broadcast:
        keys_ds = p_orders.map_batches(
            lambda t: t.filter(pc.equal(t["o_orderstatus"], "P")).select(["o_custkey"]),
            batch_format="pyarrow")
        keys_ref = ray.put(pa.array(sorted(keys_ds.unique("o_custkey"))))

        def anti(batch: pa.Table) -> pa.Table:
            ks = ray.get(keys_ref)
            mask = pc.invert(pc.is_in(batch["c_custkey"], value_set=ks))
            return batch.filter(mask)

        return cust.map_batches(anti, batch_format="pyarrow")

    from ..stages.joins import bucketed_anti_join
    keys_ds = p_orders.map_batches(
        lambda t: pa.table({"c_custkey": pc.unique(
            t.filter(pc.equal(t["o_orderstatus"], "P"))["o_custkey"]
            .combine_chunks())}),
        batch_format="pyarrow")
    return bucketed_anti_join(cust, keys_ds, on="c_custkey")


def q_j2_bucketed_join_revenue(sf_dir: str):
    """Large-large partitioned hash join: lineitem ⋈ orders on
    orderkey, explicit bucket = key % B on both sides, one Arrow join
    and status group-by per bucket, then a driver merge of the
    per-bucket status sums (the ray_guide portable join pattern;
    skew-salting would split hot buckets). Both sides union into one
    ``map_buckets`` exchange with B = 2P key buckets,
    P = ``shuffle_partitions()``: on one CPU that is a single map task,
    and at P CPUs one boundary sort into P partitions. This Ray
    version's native Dataset.join measured ~4x slower at 32 CPUs (see
    q_j3_native_hash_join)."""
    num_buckets = 2 * shuffle_partitions()
    li = read_table(sf_dir, "lineitem",
                    columns=["l_orderkey", "l_extendedprice", "l_discount"])
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_orderstatus"])

    def side(key: pa.Array, revenue, n_lines, status, is_l: bool) -> pa.Table:
        b = key.to_numpy(zero_copy_only=False) % num_buckets
        return pa.table({"key": key, "bucket": pa.array(b.astype(np.int64)),
                         "revenue_e4": revenue, "n_lines": n_lines,
                         "status": status,
                         "is_l": pa.array(np.full(len(b), is_l))})

    def tag_li(batch: pa.Table) -> pa.Table:
        # exact integer 1e-4 units (see q_q1 determinism note)
        price_c = (batch["l_extendedprice"].to_numpy(zero_copy_only=False) * 100).round().astype(np.int64)
        disc_c = (batch["l_discount"].to_numpy(zero_copy_only=False) * 100).round().astype(np.int64)
        rev = pa.array(price_c * (100 - disc_c), pa.int64())
        # map-side combine BEFORE the shuffle: lineitem has ~4 rows per
        # orderkey, so pre-summing (revenue, n_lines) per key per batch
        # shrinks the bucket exchange ~4x when a batch is a whole row
        # group (the scan's batches): 120,000 -> 29,428 rows at sf0.02
        # on one CPU, against 101,983 from 10,000-row batches
        t = pa.table({"key": batch["l_orderkey"], "revenue_e4": rev})
        g = t.group_by("key").aggregate([("revenue_e4", "sum"),
                                         ("revenue_e4", "count")])
        return side(g["key"], g["revenue_e4_sum"],
                    pc.cast(g["revenue_e4_count"], pa.int64()),
                    pa.nulls(g.num_rows, pa.string()), True)

    def tag_o(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return side(batch["o_orderkey"], pa.nulls(n, pa.int64()),
                    pa.nulls(n, pa.int64()), batch["o_orderstatus"], False)

    def join_bucket(g: pa.Table) -> pa.Table:
        left = g.filter(g["is_l"]).select(["key", "revenue_e4", "n_lines"])
        right = g.filter(pc.invert(g["is_l"])).select(["key", "status"])
        m = left.join(right, "key", join_type="inner")
        out = m.group_by("status").aggregate([("n_lines", "sum"),
                                              ("revenue_e4", "sum")])
        return pa.table({"o_orderstatus": out["status"],
                         "n_lines": out["n_lines_sum"],
                         "revenue_e4": out["revenue_e4_sum"]})

    both = (li.map_batches(tag_li, batch_format="pyarrow")
            .union(orders.map_batches(tag_o, batch_format="pyarrow")))
    partials = map_buckets(both, "bucket", join_bucket, num_buckets, "pyarrow")
    final = merge_partials(partials, ["o_orderstatus"],
                           {"n_lines": "sum", "revenue_e4": "sum"})
    final["revenue_e4"] = final["revenue_e4"].astype("int64")
    final["n_lines"] = final["n_lines"].astype("int64")
    return final


def q_j3_native_hash_join(sf_dir: str):
    """J1-family large-large join via the native ``Dataset.join``
    (hash-partitioned). Kept for API parity but NOT registered in
    queries(): on this Ray version (2.49) the hash-shuffle join hangs
    when the session has few CPUs (observed at num_cpus=4 with
    num_partitions 2..32) and is ~4x slower than the explicit bucketed
    join (q_j2) at 32 cpus. q_j2 is the default large-large join.
    Re-tested 2026-08-20 (r05, ray 2.49.2 unchanged): still hangs at
    num_cpus=4 past a 180 s timeout on sf0.01 — skip stands."""
    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_linenumber"])
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_orderstatus"])
    j = li.join(orders, join_type="inner", num_partitions=32,
                on=("l_orderkey",), right_on=("o_orderkey",))
    return j.groupby("o_orderstatus").aggregate(Count(alias_name="n_lines"))


# ----------------------------------------------------------------------
# TPC-H anchor (pre-aggregated wide groupby)
# ----------------------------------------------------------------------

def q_q1_pricing_summary(sf_dir: str):
    """TPC-H Q1 shape: filter + multi-aggregate groupby with map-side
    partial aggregation (one row per key per batch crosses the
    shuffle).

    All money aggregates are computed in EXACT integer units (cents /
    1e-4 / 1e-6): floating-point sums are order-dependent and a
    distributed engine's summation order differs from a sequential
    oracle's, which flips values at rounding midpoints. Integer
    arithmetic makes the result bit-deterministic at any parallelism.
    Suffixes: _c cents, _e4 = 1e-4 units, _e6 = 1e-6 units.
    """
    ds = read_table(sf_dir, "lineitem",
                    columns=["l_returnflag", "l_linestatus", "l_quantity",
                             "l_extendedprice", "l_discount", "l_tax",
                             "l_shipdate"])
    cutoff = pa.scalar(np.datetime64("1998-09-02T00:00:00", "us"))

    def prep(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.less_equal(batch["l_shipdate"], cutoff))
        # exact integer units, all-arrow kernels (no pandas, no pylist)
        qty = pc.cast(pc.round(batch["l_quantity"]), pa.int64())
        price_c = pc.cast(pc.round(pc.multiply(batch["l_extendedprice"], 100.0)), pa.int64())
        disc_c = pc.cast(pc.round(pc.multiply(batch["l_discount"], 100.0)), pa.int64())
        tax_c = pc.cast(pc.round(pc.multiply(batch["l_tax"], 100.0)), pa.int64())
        dp_e4 = pc.multiply(price_c, pc.subtract(pa.scalar(100, pa.int64()), disc_c))
        ch_e6 = pc.multiply(dp_e4, pc.add(pa.scalar(100, pa.int64()), tax_c))
        return pa.table({"l_returnflag": batch["l_returnflag"],
                         "l_linestatus": batch["l_linestatus"],
                         "qty": qty, "price_c": price_c, "dp_e4": dp_e4,
                         "ch_e6": ch_e6, "disc_c": disc_c})

    agg = aggregate(ds, ["l_returnflag", "l_linestatus"], {
        "sum_qty": ("qty", "sum"), "sum_base_price_c": ("price_c", "sum"),
        "sum_disc_price_e4": ("dp_e4", "sum"),
        "sum_charge_e6": ("ch_e6", "sum"), "sum_disc_c": ("disc_c", "sum"),
        "count_order": ("qty", "count")}, prep)
    cnt = agg["count_order"]
    agg["avg_qty_e4"] = agg["sum_qty"] * 10000 // cnt
    agg["avg_price_e4"] = agg["sum_base_price_c"] * 100 // cnt
    agg["avg_disc_e4"] = agg["sum_disc_c"] * 100 // cnt
    return agg[["l_returnflag", "l_linestatus", "sum_qty", "sum_base_price_c",
                "sum_disc_price_e4", "sum_charge_e6", "avg_qty_e4",
                "avg_price_e4", "avg_disc_e4", "count_order"]]


def q_q6_revenue_delta(sf_dir: str):
    """TPC-H Q6 shape: selective filter + single scalar aggregate in
    exact integer units (one pass, partial sums, no shuffle)."""
    ds = read_table(sf_dir, "lineitem",
                    columns=["l_quantity", "l_extendedprice", "l_discount",
                             "l_shipdate"])
    lo = pa.scalar(np.datetime64("1995-01-01T00:00:00", "us"))
    hi = pa.scalar(np.datetime64("1997-01-01T00:00:00", "us"))

    def partial(batch: pa.Table) -> pa.Table:
        m = pc.and_(pc.and_(pc.greater_equal(batch["l_shipdate"], lo),
                            pc.less(batch["l_shipdate"], hi)),
                    pc.and_(pc.less(batch["l_quantity"], 24.0),
                            pc.and_(pc.greater_equal(batch["l_discount"], 0.05),
                                    pc.less_equal(batch["l_discount"], 0.07))))
        b = batch.filter(m)
        price_c = pc.cast(pc.round(pc.multiply(b["l_extendedprice"], 100.0)), pa.int64())
        disc_c = pc.cast(pc.round(pc.multiply(b["l_discount"], 100.0)), pa.int64())
        rev = int(pc.sum(pc.multiply(price_c, disc_c)).as_py() or 0)
        return pa.table({"revenue_e4": pa.array([rev], pa.int64()),
                         "n_rows": pa.array([b.num_rows], pa.int64())})

    out = ds.map_batches(partial, batch_format="pyarrow").to_pandas().sum()
    return pd.DataFrame([{"revenue_e4": int(out["revenue_e4"]),
                          "n_rows": int(out["n_rows"])}])


def q_q3_shipping_priority(sf_dir: str):
    """TPC-H Q3 shape: 3-way join (segment-filtered customers →
    broadcast keys → date-filtered orders → broadcast order set →
    lineitem partial revenue) + groupby + top-10."""
    cutoff = pa.scalar(np.datetime64("1995-03-15T00:00:00", "us"))
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    ckeys_ref = ray.put(pa.array(sorted(cust.map_batches(
        lambda t: t.filter(pc.equal(t["c_mktsegment"], "BUILDING"))
                   .select(["c_custkey"]), batch_format="pyarrow")
        .unique("c_custkey"))))
    orders = read_table(sf_dir, "orders",
                        columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def ord_filter(batch: pa.Table) -> pa.Table:
        ks = ray.get(ckeys_ref)
        m = pc.and_(pc.less(batch["o_orderdate"], cutoff),
                    pc.is_in(batch["o_custkey"], value_set=ks))
        return batch.filter(m).select(["o_orderkey"])

    # only the KEY LIST comes back for the broadcast build — never the
    # (data-sized) selected-order rows; the winners' o_orderdate is
    # fetched at the end with a 10-key filtered read
    okeys_ref = ray.put(pa.array(sorted(
        orders.map_batches(ord_filter, batch_format="pyarrow")
        .unique("o_orderkey"))))

    li = read_table(sf_dir, "lineitem",
                    columns=["l_orderkey", "l_extendedprice", "l_discount",
                             "l_shipdate"])

    def prep(batch: pa.Table) -> pa.Table:
        ks = ray.get(okeys_ref)
        m = pc.and_(pc.greater(batch["l_shipdate"], cutoff),
                    pc.is_in(batch["l_orderkey"], value_set=ks))
        b = batch.filter(m)
        return pa.table({"l_orderkey": b["l_orderkey"],
                         "revenue_e4": _rev_e4(b)})

    # final reduce distributed (selected orderkeys are data-sized),
    # then per-block partial top-10 — only ~10 x blocks rows reach the
    # driver, where the (tiny) winner set picks up o_orderdate
    merged = aggregate(li, ["l_orderkey"], {"revenue_e4": ("revenue_e4", "sum")},
                       prep, in_ray=True)
    agg = top_k(merged, [("revenue_e4", "descending"),
                         ("l_orderkey", "ascending")], 10)
    # o_orderdate for the ≤10 winners only: predicate-pushdown read
    # (row-group pruning) — the full selected-order set never leaves
    # the cluster
    win = read_local(
        sf_dir, "orders",
        columns=["o_orderkey", "o_orderdate"],
        filters=[("o_orderkey", "in", [int(k) for k in agg["l_orderkey"]])])
    odate = dict(zip(win["o_orderkey"], win["o_orderdate"]))
    agg["o_orderdate"] = agg["l_orderkey"].map(odate)
    return agg[["l_orderkey", "revenue_e4", "o_orderdate"]]


def q_q4_priority_exists(sf_dir: str):
    """TPC-H Q4 shape: EXISTS semi-join + priority histogram — orders
    in a date window having at least one heavy lineitem (qty > 45),
    counted per o_orderpriority. The semi-join runs through the
    DISTRIBUTED bucketed operator (stages/joins — both sides
    data-sized), then an enum-keyed count merge."""
    from ..stages.joins import bucketed_semi_join
    lo = pa.scalar(np.datetime64("1996-01-01T00:00:00", "us"))
    hi = pa.scalar(np.datetime64("1997-01-01T00:00:00", "us"))

    orders = read_table(sf_dir, "orders",
                        columns=["o_orderkey", "o_orderdate", "o_orderpriority"])
    orders = orders.map_batches(
        lambda t: t.filter(pc.and_(pc.greater_equal(t["o_orderdate"], lo),
                                   pc.less(t["o_orderdate"], hi))),
        batch_format="pyarrow")

    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])

    def heavy_keys(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.greater(batch["l_quantity"], 45.0))
        return pa.table({"o_orderkey": pc.unique(b["l_orderkey"].combine_chunks())})

    keys = li.map_batches(heavy_keys, batch_format="pyarrow")
    sel = bucketed_semi_join(orders, keys, on="o_orderkey")

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.select(["o_orderpriority"]).group_by("o_orderpriority") \
                 .aggregate([("o_orderpriority", "count")])
        return g.rename_columns(["o_orderpriority", "n_orders"])

    df = merge_partials(sel.map_batches(partial, batch_format="pyarrow"),
                        ["o_orderpriority"], {"n_orders": "sum"})
    df["n_orders"] = df["n_orders"].astype("int64")
    return df.sort_values("o_orderpriority").reset_index(drop=True)


def q_q12_shipmode(sf_dir: str):
    """TPC-H Q12 shape: shipmode priority-class counts — lines shipped
    in 1995 grouped by l_linestatus (stands in for l_shipmode; the
    testdata lineitem carries no shipmode/commitdate columns), each
    group counting lines whose ORDER is high priority
    ('1-URGENT'/'2-HIGH') vs low. Large-large join through the
    tagged-union bucketed hash join with map-side combine: lineitem
    collapses to (l_orderkey, l_linestatus, n) count partials BEFORE
    the shuffle (≤ 2 rows per orderkey per block) and orders ships
    only (o_orderkey, is_high); the per-bucket merge emits enum-keyed
    (l_linestatus, high/low) partials so the final merge is
    driver-side over ≤ 2 × buckets rows."""
    lo = pa.scalar(np.datetime64("1995-01-01T00:00:00", "us"))
    hi = pa.scalar(np.datetime64("1996-01-01T00:00:00", "us"))

    li = read_table(sf_dir, "lineitem",
                    columns=["l_orderkey", "l_linestatus", "l_shipdate"])

    def li_side(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.and_(pc.greater_equal(batch["l_shipdate"], lo),
                                 pc.less(batch["l_shipdate"], hi)))
        g = (b.select(["l_orderkey", "l_linestatus"])
             .group_by(["l_orderkey", "l_linestatus"])
             .aggregate([("l_orderkey", "count")]))
        g = g.rename_columns(["key", "l_linestatus", "n"])
        return pa.table({"key": pc.cast(g["key"], pa.int64()),
                         "l_linestatus": g["l_linestatus"],
                         "n": pc.cast(g["n"], pa.int64()),
                         "is_high": pa.nulls(g.num_rows, pa.int64()),
                         "side": pa.array(["l"] * g.num_rows)})

    orders = read_table(sf_dir, "orders",
                        columns=["o_orderkey", "o_orderpriority"])

    def ord_side(batch: pa.Table) -> pa.Table:
        hi_flag = pc.is_in(batch["o_orderpriority"],
                           value_set=pa.array(["1-URGENT", "2-HIGH"]))
        n = batch.num_rows
        return pa.table({"key": pc.cast(batch["o_orderkey"], pa.int64()),
                         "l_linestatus": pa.nulls(n, pa.string()),
                         "n": pa.nulls(n, pa.int64()),
                         "is_high": pc.cast(hi_flag, pa.int64()),
                         "side": pa.array(["o"] * n)})

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == "l"][["key", "l_linestatus", "n"]]
        right = g[g["side"] == "o"][["key", "is_high"]]
        m = left.merge(right, on="key", how="inner")
        if m.empty:
            return pd.DataFrame({
                "l_linestatus": pd.Series([], dtype="object"),
                "high_line_count": pd.Series([], dtype="int64"),
                "low_line_count": pd.Series([], dtype="int64")})
        n = m["n"].to_numpy().astype(np.int64)
        ishi = m["is_high"].to_numpy().astype(np.int64)
        m = m.assign(high_line_count=n * ishi,
                     low_line_count=n * (1 - ishi))
        out = (m.groupby("l_linestatus", as_index=False)
               [["high_line_count", "low_line_count"]].sum())
        return out

    fact = _tagged_union_join(
        li.map_batches(li_side, batch_format="pyarrow"),
        orders.map_batches(ord_side, batch_format="pyarrow"),
        "key", join_bucket)

    df = merge_partials(fact, ["l_linestatus"],
                        {"high_line_count": "sum", "low_line_count": "sum"})
    for c in ("high_line_count", "low_line_count"):
        df[c] = df[c].astype("int64")
    return df.sort_values("l_linestatus").reset_index(drop=True)


def q_part_ntile(sf_dir: str, k: int = 4):
    """NTILE(k) window — equal-height tile assignment per brand over
    the total order (p_retailprice, p_partkey); the quantile-bucket
    member of the window family (DENSE_RANK: part_price_rank_dense;
    global quantile bins: length_bins). SQL fill rule reproduced
    exactly: the first n % k tiles carry one extra row. Ordering uses
    the RAW double price (ties broken by partkey) so both engines
    compare identical IEEE values; cents appear only as an output
    column. Shape: brand-hash bucket shuffle → per-brand vectorized
    lexsort + repeat assignment. part is dimension-sized; for a
    fact-sized input the count-table plan (length_bins) is the
    documented scale path — NTILE needs each partition's total order."""
    part = read_table(sf_dir, "part",
                      columns=["p_partkey", "p_brand", "p_retailprice"])
    def tile_bucket(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for brand, grp in g.groupby("p_brand"):
            price = grp["p_retailprice"].to_numpy()
            pk = grp["p_partkey"].to_numpy().astype(np.int64)
            order = np.lexsort((pk, price))
            n = len(order)
            base, extra = divmod(n, k)
            sizes = np.full(k, base, np.int64)
            sizes[:extra] += 1
            tiles = np.repeat(np.arange(1, k + 1, dtype=np.int64), sizes)
            t = np.empty(n, np.int64)
            t[order] = tiles
            outs.append(pd.DataFrame({
                "p_partkey": pk, "p_brand": brand,
                "price_c": np.round(price * 100).astype(np.int64),
                "tile": t}))
        return pd.concat(outs, ignore_index=True) if outs else \
            pd.DataFrame({"p_partkey": pd.Series([], dtype="int64"),
                          "p_brand": pd.Series([], dtype="object"),
                          "price_c": pd.Series([], dtype="int64"),
                          "tile": pd.Series([], dtype="int64")})

    out = map_buckets(part, ["p_brand"], tile_bucket).to_pandas()
    return out.sort_values(["p_brand", "p_partkey"]).reset_index(drop=True)


def q_percentile_rank_parts(sf_dir: str):
    """PERCENT_RANK + CUME_DIST per brand over p_retailprice — the
    remaining rank-window pair, with SQL tie semantics exactly: ties
    share the (min) rank for percent_rank and count inclusively for
    cume_dist, both emitted as exact integer e6 floors. Per brand the
    whole computation is two vectorized searchsorteds against the
    brand's sorted price array (rank = left + 1, cume = right) — no
    per-row work, no per-tie grouping."""
    part = read_table(sf_dir, "part",
                      columns=["p_partkey", "p_brand", "p_retailprice"])
    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for brand, grp in g.groupby("p_brand"):
            price = grp["p_retailprice"].to_numpy()
            pk = grp["p_partkey"].to_numpy().astype(np.int64)
            n = len(price)
            sp = np.sort(price)
            rank = np.searchsorted(sp, price, side="left") + 1
            cume = np.searchsorted(sp, price, side="right")
            pr = ((rank - 1) * 1_000_000 // (n - 1)) if n > 1 \
                else np.zeros(n, np.int64)
            outs.append(pd.DataFrame({
                "p_partkey": pk, "p_brand": brand,
                "price_c": np.round(price * 100).astype(np.int64),
                "pr_e6": pr.astype(np.int64),
                "cd_e6": (cume * 1_000_000 // n).astype(np.int64)}))
        return pd.concat(outs, ignore_index=True) if outs else \
            pd.DataFrame({"p_partkey": pd.Series([], dtype="int64"),
                          "p_brand": pd.Series([], dtype="object"),
                          "price_c": pd.Series([], dtype="int64"),
                          "pr_e6": pd.Series([], dtype="int64"),
                          "cd_e6": pd.Series([], dtype="int64")})

    out = map_buckets(part, ["p_brand"], rank_bucket).to_pandas()
    return out.sort_values(["p_brand", "p_partkey"]).reset_index(drop=True)


def q_value_histogram(sf_dir: str):
    """EQUI-WIDTH HISTOGRAM (width_bucket): event values in cents
    into 20 fixed $10 bins (clamped), count + exact sum per
    (event_type, bin) — zero-shuffle enum-keyed combine; the profiler
    complement for distribution shape."""
    ds = read_table(sf_dir, "events", columns=["event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        vc = np.round(batch["value"].to_numpy(zero_copy_only=False)
                      * 100).astype(np.int64)
        return pa.table({"event_type": batch["event_type"],
                         "bin": pa.array(np.clip(vc // 1000, 0, 19)),
                         "vc": pa.array(vc)})

    df = aggregate(ds, ["event_type", "bin"],
                   {"n": ("vc", "count"), "sum_value_c": ("vc", "sum")}, prep)
    return df.sort_values(["event_type", "bin"]).reset_index(drop=True)


def q_user_timeline(sf_dir: str):
    """HETEROGENEOUS STREAM ZIPPER: merge the events stream and the
    orders stream (custkey read in the same id space, as the synthetic
    corpus intends) into one per-user timeline with a global sequence
    ordinal per user — the stream-merge every CDP/session store runs.
    Order = (ts, source flag, entity id), fully deterministic. One
    user-hash bucket shuffle over the union; per user one lexsort."""
    ev = read_table(sf_dir, "events", columns=["user_id", "event_id",
                                               "ts", "event_type"])
    od = read_table(sf_dir, "orders", columns=["o_custkey", "o_orderkey",
                                               "o_orderdate",
                                               "o_orderstatus"])

    def ev_side(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "ts": t["ts"],
            "src": pa.array(np.zeros(t.num_rows, np.int64)),
            "eid": pc.cast(t["event_id"], pa.int64()),
            "item": pc.binary_join_element_wise(
                pa.scalar("event:"), t["event_type"], "")})

    def od_side(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": pc.cast(t["o_custkey"], pa.int64()),
            "ts": t["o_orderdate"],
            "src": pa.array(np.ones(t.num_rows, np.int64)),
            "eid": pc.cast(t["o_orderkey"], pa.int64()),
            "item": pc.binary_join_element_wise(
                pa.scalar("order:"), t["o_orderstatus"], "")})

    both = (ev.map_batches(ev_side, batch_format="pyarrow")
            .union(od.map_batches(od_side, batch_format="pyarrow")))

    def seq_bucket(g: pd.DataFrame) -> pd.DataFrame:
        ts = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        order = np.lexsort((g["eid"].to_numpy(np.int64),
                            g["src"].to_numpy(np.int64), ts,
                            g["user_id"].to_numpy(np.int64)))
        g = g.iloc[order].reset_index(drop=True)
        seq = g.groupby("user_id").cumcount().to_numpy() + 1
        return pd.DataFrame({
            "user_id": g["user_id"].to_numpy(np.int64),
            "ts": g["ts"].to_numpy(),
            "item": g["item"],
            "seq": seq.astype(np.int64)})

    return map_buckets(both, ["user_id"], seq_bucket)


def q_crawl_fairness(sf_dir: str):
    """CRAWL-BUDGET FAIRNESS: the Gini coefficient of per-host
    (source) document counts in exact integer e6 units — the skew
    metric a frontier scheduler watches to decide when hot-host
    salting / budgets must kick in (the north rule's skew concern as
    a measurable). G = (2·Σ i·x_(i) − (n+1)·Σx) / (n·Σx) over counts
    sorted ascending; within tied counts the index assignment is a
    permutation of a constant multiset, so the sum — and the gate —
    is order-invariant. Counts come from the combiner + enum-keyed
    merge (host domain is config-sized here; the g7 Ray-side reduce
    is the data-sized path)."""
    ds = read_table(sf_dir, "documents", columns=["source"])
    counts = aggregate(ds, ["source"], {"n": ("source", "count")})
    x = np.sort(counts["n"].to_numpy())
    n, tot = len(x), int(x.sum())
    i = np.arange(1, n + 1, dtype=np.int64)
    gini_e6 = int((2 * int((i * x).sum()) - (n + 1) * tot) * 1_000_000
                  // (n * tot)) if n and tot else 0
    return pd.DataFrame([{"n_hosts": n, "total_docs": tot,
                          "gini_e6": gini_e6}])


def q_unpivot_part(sf_dir: str):
    """UNPIVOT / melt — wide part measures (retail price in cents,
    size) to long (p_partkey, measure, value) rows; the inverse of
    pivot_priority_status and the reshape every metrics store needs.
    Pure per-batch vectorized explode (two concats), zero shuffle,
    output streams."""
    ds = read_table(sf_dir, "part",
                    columns=["p_partkey", "p_size", "p_retailprice"])

    def melt(t: pa.Table) -> pa.Table:
        pk = t["p_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        size_v = t["p_size"].to_numpy(zero_copy_only=False).astype(np.int64)
        price_c = np.round(t["p_retailprice"].to_numpy(zero_copy_only=False)
                           * 100).astype(np.int64)
        n = len(pk)
        return pa.table({
            "p_partkey": pa.array(np.concatenate([pk, pk]), pa.int64()),
            "measure": pa.array(["p_retailprice_c"] * n + ["p_size"] * n),
            "value": pa.array(np.concatenate([price_c, size_v]), pa.int64())})

    return ds.map_batches(melt, batch_format="pyarrow")


def q_q14_promo_share(sf_dir: str):
    """TPC-H Q14 shape: conditional revenue share — the fraction of
    one month's revenue from 'promo' parts (p_size < 25 stands in for
    the p_type LIKE 'PROMO%' class; the testdata has no p_type promo
    tags). Part side broadcast as sorted arrays (np.searchsorted
    probe); exact integer units end to end, ratio as an integer e6."""
    part = read_local(sf_dir, "part", columns=["p_partkey", "p_size"])
    order_idx = np.argsort(part["p_partkey"].to_numpy())
    pkeys = part["p_partkey"].to_numpy()[order_idx]
    promo = (part["p_size"].to_numpy()[order_idx] < 25)
    bcast = ray.put((pkeys, promo))
    lo = pa.scalar(np.datetime64("1995-09-01T00:00:00", "us"))
    hi = pa.scalar(np.datetime64("1995-10-01T00:00:00", "us"))

    li = read_table(sf_dir, "lineitem",
                    columns=["l_partkey", "l_extendedprice", "l_discount",
                             "l_shipdate"])

    def partial(batch: pa.Table) -> pa.Table:
        ks, pm = ray.get(bcast)
        b = batch.filter(pc.and_(pc.greater_equal(batch["l_shipdate"], lo),
                                 pc.less(batch["l_shipdate"], hi)))
        price_c = (b["l_extendedprice"].to_numpy(zero_copy_only=False)
                   * 100).round().astype(np.int64)
        disc_c = (b["l_discount"].to_numpy(zero_copy_only=False)
                  * 100).round().astype(np.int64)
        rev = price_c * (100 - disc_c)
        probe = b["l_partkey"].to_numpy(zero_copy_only=False)
        pos = np.clip(np.searchsorted(ks, probe), 0, len(ks) - 1)
        is_promo = (ks[pos] == probe) & pm[pos]
        return pa.table({
            "promo_revenue_e4": pa.array([int(rev[is_promo].sum())], pa.int64()),
            "total_revenue_e4": pa.array([int(rev.sum())], pa.int64())})

    out = li.map_batches(partial, batch_format="pyarrow").to_pandas().sum()
    promo_e4, total_e4 = int(out["promo_revenue_e4"]), int(out["total_revenue_e4"])
    share_e6 = (promo_e4 * 1_000_000) // total_e4 if total_e4 else 0
    return pd.DataFrame([{"promo_revenue_e4": promo_e4,
                          "total_revenue_e4": total_e4,
                          "promo_share_e6": share_e6}])


# ----------------------------------------------------------------------
# per-record maps (M3, M5, M7, M10)
# ----------------------------------------------------------------------

_HTML_SUFFIX = '</p><script>var x=1;</script><style>.a{b:1}</style><!--c-->'


def q_m3_clean_html(sf_dir: str):
    """M3 regex clean_html (http_worker.ts:131-164): wrap text in
    synthetic html, strip script/style/comments, report clean length."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def clean(batch: pa.Table) -> pa.Table:
        html = pc.binary_join_element_wise(
            pa.scalar("<p>"), batch["text"], pa.scalar(_HTML_SUFFIX), "")
        cleaned = clean_html_string(html)
        return pa.table({"doc_id": batch["doc_id"],
                         "clean_len": pc.cast(pc.utf8_length(cleaned), pa.int64())})

    return ds.map_batches(clean, batch_format="pyarrow")


def q_m5_extract_links(sf_dir: str):
    """M5 link extraction + host parse (domain_count.js:30-52):
    construct anchor html, extract href + host via the compiled-regex
    stage."""
    from ..stages.html import extract_links_batch
    ds = read_table(sf_dir, "documents", columns=["doc_id", "source", "text"])

    def build(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        srcs = batch["source"].to_pylist()
        texts = batch["text"].to_pylist()
        html = [f'<a href="http://{s}.example/d{d}">x</a>{t}'
                for d, s, t in zip(ids, srcs, texts)]
        t = pa.table({"doc_id": pa.array([str(d) for d in ids], pa.string()),
                      "text": pa.array(html, pa.string())})
        out = extract_links_batch(t)
        return pa.table({"doc_id": pc.cast(out["src_doc"], pa.int64()),
                         "href": out["href"], "out_host": out["out_host"]})

    return ds.map_batches(build, batch_format="pyarrow")


def q_m7_id_item_mapping(sf_dir: str):
    """M7 id→item projection (crawltask.service.ts:315-332)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "source"])
    return ds.map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"], "item": t["source"]}),
        batch_format="pyarrow")


def q_m10_parse_props(sf_dir: str):
    """M10 inflate+JSON.parse analog (crawltask.service.ts:288-307):
    parse the events props JSON column."""
    ds = read_table(sf_dir, "events", columns=["event_id", "props"])

    def parse(batch: pa.Table) -> pa.Table:
        ks = [json.loads(p)["k"] for p in batch["props"].to_pylist()]
        return pa.table({"event_id": batch["event_id"],
                         "k": pa.array(ks, pa.int64())})

    return ds.map_batches(parse, batch_format="pyarrow")


# ----------------------------------------------------------------------
# windowed aggregate (streaming-shaped, SURVEY.md §2.11)
# ----------------------------------------------------------------------

def q_events_hourly_window(sf_dir: str):
    """Tumbling 1h processing-time window per user (G3 family):
    groupby (user, floor_hour(ts)) — event time truncated per batch,
    partial per-batch combine, small final groupby."""
    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "value"])

    # exact-integer cents (see q_g4_fleet_stats): the partial sums are
    # integers, so the two-level reduce is order-insensitive
    def prep(batch: pa.Table) -> pa.Table:
        v_c = pc.cast(pc.round(pc.multiply(batch["value"], 100.0)), pa.int64())
        return pa.table({"user_id": batch["user_id"],
                         "window_start": pc.floor_temporal(batch["ts"], unit="hour"),
                         "v_c": v_c})

    # (user x hour) is a data-sized key set → final reduce in Ray
    return aggregate(ds, ["user_id", "window_start"],
                     {"n_events": ("v_c", "count"),
                      "sum_value_c": ("v_c", "sum")}, prep, in_ray=True)


# ----------------------------------------------------------------------
# window functions / sessionization / set ops (SURVEY.md §2.11 +
# training-pipeline additions)
# ----------------------------------------------------------------------

def q_events_session_window(sf_dir: str, gap_minutes: int = 30):
    """Gap-based sessionization: per user, a new session starts when
    the inter-event gap exceeds ``gap_minutes``.

    Scale shape: users are hash-bucketed into 32 coarse partitions
    (``groupby(user)``-then-``map_groups`` would make one Python call
    PER USER — 10^8 calls at fleet scale); inside each bucket the
    whole sessionization is vectorized pandas over the (user, ts)-
    sorted frame — break detection via shift/diff masked at user
    boundaries, per-user session ids via a grouped cumsum, session
    aggregates via one groupby. Every user lives wholly in one bucket,
    so per-bucket results are exact."""
    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])
    gap = np.timedelta64(gap_minutes, "m")

    def sessionize_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"]).reset_index(drop=True)
        same_user = g["user_id"].eq(g["user_id"].shift())
        brk = (g["ts"].diff().gt(gap) & same_user).astype("int64")
        g["session_id"] = brk.groupby(g["user_id"], sort=False).cumsum()
        out = g.groupby(["user_id", "session_id"], as_index=False).agg(
            n_events=("ts", "size"), session_start=("ts", "min"),
            session_end=("ts", "max"))
        return out[["user_id", "session_id", "n_events",
                    "session_start", "session_end"]]

    return map_buckets(ds, ["user_id"], sessionize_bucket)


def q_latest_event_per_user(sf_dir: str):
    """Window top-1 (row_number over ts desc): the last event per user.

    Scale shape: per-BATCH reduce first (keep each user's latest row
    within the batch — shrinks the shuffle to one row per user per
    batch), then bucketed merge with the same vectorized
    sort + drop_duplicates reduce per bucket. No per-user Python calls."""
    ds = read_table(sf_dir, "events", columns=["user_id", "event_id", "ts",
                                               "event_type"])

    def latest_in(df: pd.DataFrame) -> pd.DataFrame:
        return (df.sort_values(["user_id", "ts", "event_id"],
                               ascending=[True, False, True])
                .drop_duplicates("user_id"))

    partials = ds.map_batches(latest_in, batch_format="pandas")

    def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return latest_in(g)[["user_id", "event_id", "ts", "event_type"]]

    return map_buckets(partials, ["user_id"], reduce_bucket)


def q_events_ffill_daily(sf_dir: str):
    """FORWARD-FILL RESAMPLING to a daily grid (time-series gap
    filling): per user, one row per calendar day from the user's first
    to last event day; ``value_c`` carries the latest event value (in
    cents) at-or-before the end of that day, ``is_observed`` flags
    days with at least one event. Per-day 'latest' = max (ts,
    event_id), so the fill is deterministic under equal timestamps.

    Shape: ONE user-hash bucket shuffle; per user the per-day last
    value is a vectorized lexsort + boundary mask, the grid an arange
    of day ordinals, and the fill a single searchsorted — never a
    row-at-a-time scan. Output is grid-sized (users × span days), not
    event-sized, and each user's grid is built wholly inside its
    bucket."""
    DAY_US = 86_400_000_000
    ds = read_table(sf_dir, "events",
                    columns=["user_id", "event_id", "ts", "value"])

    def fill_bucket(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for uid, grp in g.groupby("user_id"):
            ts = grp["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
            eid = grp["event_id"].to_numpy().astype(np.int64)
            vc = np.round(grp["value"].to_numpy() * 100).astype(np.int64)
            day = ts // DAY_US
            order = np.lexsort((eid, ts))
            day_o, vc_o = day[order], vc[order]
            last_mask = np.r_[day_o[1:] != day_o[:-1], True]
            days, vals = day_o[last_mask], vc_o[last_mask]
            grid = np.arange(days[0], days[-1] + 1, dtype=np.int64)
            idx = np.searchsorted(days, grid, side="right") - 1
            outs.append(pd.DataFrame({
                "user_id": np.full(len(grid), uid, np.int64),
                "grid_day": (grid * DAY_US).astype("datetime64[us]"),
                "value_c": vals[idx],
                "is_observed": (days[idx] == grid).astype(np.int64)}))
        return pd.concat(outs, ignore_index=True) if outs else \
            pd.DataFrame({"user_id": pd.Series([], dtype="int64"),
                          "grid_day": pd.Series([], dtype="datetime64[us]"),
                          "value_c": pd.Series([], dtype="int64"),
                          "is_observed": pd.Series([], dtype="int64")})

    return map_buckets(ds, ["user_id"], fill_bucket)


def q_profile_events(sf_dir: str):
    """DATA PROFILER over the events table: one row per column with
    n, n_null, exact n_distinct, and min/max (numeric columns in
    integer units — value as cents, ts as epoch µs — string columns
    as strings; the inapplicable pair carries the -1/'' sentinel so
    the schema is uniform). The operator every ingestion pipeline
    runs before trusting a new dump.

    Shape: ONE scan emits per-batch per-column partials (count/null/
    min/max fold to one row per batch; distinct folds to the batch's
    value set tagged by column); the distinct sets merge through a
    single (column, value)-bucketed shuffle and each bucket reports
    only counts (the g6 shape generalized to all columns at once —
    the driver never sees a value list)."""
    ds = read_table(sf_dir, "events",
                    columns=["user_id", "event_type", "value", "ts"])

    NUM = {"user_id", "value_c", "ts_us"}

    def to_cols(batch: pa.Table) -> dict:
        ts = batch["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        return {
            "user_id": batch["user_id"].to_numpy(zero_copy_only=False)
            .astype(np.int64),
            "event_type": batch["event_type"].to_pylist(),
            "value_c": np.round(batch["value"].to_numpy(
                zero_copy_only=False) * 100).astype(np.int64),
            "ts_us": ts}

    def stats_partial(batch: pa.Table) -> pa.Table:
        cols = to_cols(batch)
        rows = []
        for name, v in cols.items():
            if name in NUM:
                rows.append({"column": name, "n": len(v),
                             "n_null": 0,
                             "min_i": int(v.min()), "max_i": int(v.max()),
                             "min_s": "", "max_s": ""})
            else:
                arr = batch[name]
                mm = pc.min_max(arr).as_py()
                rows.append({"column": name, "n": len(arr),
                             "n_null": arr.null_count,
                             "min_i": -1, "max_i": -1,
                             "min_s": mm["min"] or "",
                             "max_s": mm["max"] or ""})
        return pa.Table.from_pylist(rows)

    def distinct_partial(batch: pa.Table) -> pa.Table:
        cols = to_cols(batch)
        names: list = []
        vals: list = []
        for name, v in cols.items():
            u = np.unique(v if name in NUM
                          else np.asarray([x for x in v if x is not None],
                                          dtype=object)).tolist()
            names.extend([name] * len(u))
            vals.extend(str(x) for x in u)
        return pa.table({"column": pa.array(names, pa.string()),
                         "val": pa.array(vals, pa.string())})

    def count_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.drop_duplicates(["column", "val"]) \
            .groupby("column", as_index=False)["val"].count() \
            .rename(columns={"val": "n_distinct"})
        out["n_distinct"] = out["n_distinct"].astype("int64")
        return out

    dist = merge_partials(
        map_buckets(ds.map_batches(distinct_partial, batch_format="pyarrow"),
                    ["column", "val"], count_bucket),
        ["column"], {"n_distinct": "sum"})

    st = ds.map_batches(stats_partial, batch_format="pyarrow").to_pandas()
    base = st.groupby("column", as_index=False).agg(
        n=("n", "sum"), n_null=("n_null", "sum"),
        min_i=("min_i", "min"), max_i=("max_i", "max"),
        min_s=("min_s", "min"), max_s=("max_s", "max"))
    out = base.merge(dist, on="column")
    for c in ("n", "n_null", "min_i", "max_i", "n_distinct"):
        out[c] = out[c].astype("int64")
    return out[["column", "n", "n_null", "n_distinct",
                "min_i", "max_i", "min_s", "max_s"]] \
        .sort_values("column").reset_index(drop=True)


def q_basket_rules(sf_dir: str):
    """MARKET-BASKET ASSOCIATION RULES: baskets = (user, hour), items
    = event types; for every co-occurring unordered type pair emit
    n_ab, the marginals, and integer-quantized support / confidence
    (a→b) / lift. The item domain is enum-sized, so the whole plan
    collapses to a BITMASK HISTOGRAM: per-batch OR-partials of each
    basket's type bits (OR is mergeable), one basket-hash bucket
    shuffle to finish the per-basket OR, then a ≤2^|types| mask
    histogram — the exchange after the basket shuffle is mask-sized
    (≤32 rows per bucket), never pair- or basket-sized. Type→bit
    codes are the alphabetical rank, derived identically in SQL."""
    HOUR_US = 3_600_000_000
    ds = read_table(sf_dir, "events",
                    columns=["user_id", "event_id", "ts", "event_type"])

    # enum-sized type domain: per-block distinct partials, tiny driver
    # merge (never a data-sized ds.unique collect)
    types_df = ds.map_batches(
        lambda t: pa.table({"event_type":
                            pc.unique(t["event_type"].combine_chunks())}),
        batch_format="pyarrow").to_pandas()
    types = sorted(types_df["event_type"].unique())
    code = {t: i for i, t in enumerate(types)}

    def mask_partial(df: pd.DataFrame) -> pd.DataFrame:
        ts = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        bitmap = np.asarray([1 << code[t] for t in types], dtype=np.int64)
        tcode = pd.Categorical(df["event_type"], categories=types).codes
        d = pd.DataFrame({"user_id": df["user_id"].to_numpy()
                          .astype(np.int64),
                          "h": (ts // HOUR_US),
                          "bit": bitmap[tcode]})
        # within a basket each bit is a distinct power of two, so
        # OR == sum over DISTINCT bits — fully vectorized
        d = d.drop_duplicates(["user_id", "h", "bit"])
        return d.groupby(["user_id", "h"], as_index=False)["bit"] \
            .sum().rename(columns={"bit": "mask"})

    def mask_hist(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({"mask": pd.Series([], dtype="int64"),
                                 "n": pd.Series([], dtype="int64")})
        g = g.sort_values(["user_id", "h"])
        u = g["user_id"].to_numpy(np.int64)
        h = g["h"].to_numpy(np.int64)
        chg = (u[1:] != u[:-1]) | (h[1:] != h[:-1])
        starts = np.r_[0, np.flatnonzero(chg) + 1]
        m = np.bitwise_or.reduceat(g["mask"].to_numpy(np.int64), starts)
        vals, cnts = np.unique(m, return_counts=True)
        return pd.DataFrame({"mask": vals.astype("int64"),
                             "n": cnts.astype("int64")})

    hist = merge_partials(
        map_buckets(ds.map_batches(mask_partial, batch_format="pandas"),
                    ["user_id", "h"], mask_hist),
        ["mask"], {"n": "sum"})

    masks = hist["mask"].to_numpy().astype(np.int64)
    cnt = hist["n"].to_numpy().astype(np.int64)
    total = int(cnt.sum())
    rows = []
    for a in range(len(types)):
        for b in range(a + 1, len(types)):
            n_a = int(cnt[(masks >> a) & 1 == 1].sum())
            n_b = int(cnt[(masks >> b) & 1 == 1].sum())
            both = ((masks >> a) & 1 == 1) & ((masks >> b) & 1 == 1)
            n_ab = int(cnt[both].sum())
            if n_ab == 0:
                continue
            rows.append({
                "type_a": types[a], "type_b": types[b],
                "n_ab": n_ab, "n_a": n_a, "n_b": n_b,
                "n_baskets": total,
                "support_e6": n_ab * 1_000_000 // total,
                "confidence_e6": n_ab * 1_000_000 // n_a,
                "lift_e6": n_ab * total * 1_000_000 // (n_a * n_b)})
    out = pd.DataFrame(rows)
    return out.sort_values(["type_a", "type_b"]).reset_index(drop=True)


def q_events_ohlc_hourly(sf_dir: str):
    """OHLC DOWNSAMPLING (candles): per (user, hour) the opening value
    (first event by ts, event_id), closing value (last), high, low and
    count, in exact cents — the time-series reduction every monitoring
    / viz store runs, and the canonical NON-additive mergeable
    aggregate (first/last merge by keeping the extremal key, not by
    summing). Shape: per-batch OHLC partials (each carries its open/
    close keys), then a bucketed exact merge — two vectorized sorts +
    groupby per bucket, no per-key Python."""
    ds = read_table(sf_dir, "events",
                    columns=["user_id", "event_id", "ts", "value"])
    HOUR_US = 3_600_000_000

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ts = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        d = pd.DataFrame({
            "user_id": df["user_id"].to_numpy().astype(np.int64),
            "h": (ts // HOUR_US) * HOUR_US,
            "ts_i": ts,
            "event_id": df["event_id"].to_numpy().astype(np.int64),
            "value_c": np.round(df["value"].to_numpy() * 100)
            .astype(np.int64)})
        d = d.sort_values(["user_id", "h", "ts_i", "event_id"])
        g = d.groupby(["user_id", "h"], as_index=False)
        out = g.agg(open_ts=("ts_i", "first"), open_eid=("event_id", "first"),
                    open_c=("value_c", "first"), close_ts=("ts_i", "last"),
                    close_eid=("event_id", "last"), close_c=("value_c", "last"),
                    high_c=("value_c", "max"), low_c=("value_c", "min"),
                    n=("value_c", "size"))
        return out

    def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
        keys = ["user_id", "h"]
        g = g.sort_values(keys + ["open_ts", "open_eid"])
        opens = g.groupby(keys, as_index=False)[["open_c"]].first()
        g2 = g.sort_values(keys + ["close_ts", "close_eid"])
        closes = g2.groupby(keys, as_index=False)[["close_c"]].last()
        aggs = g.groupby(keys, as_index=False).agg(
            high_c=("high_c", "max"), low_c=("low_c", "min"),
            n=("n", "sum"))
        out = opens.merge(closes, on=keys).merge(aggs, on=keys)
        out["hour"] = out.pop("h").astype("datetime64[us]")
        return out[["user_id", "hour", "open_c", "high_c", "low_c",
                    "close_c", "n"]].astype(
            {c: "int64" for c in ("user_id", "open_c", "high_c",
                                  "low_c", "close_c", "n")})

    partials = ds.map_batches(partial, batch_format="pandas")
    return map_buckets(partials, ["user_id", "h"], reduce_bucket)


def q_throttle_events(sf_dir: str, gap_hours: int = 24):
    """DEBOUNCE / THROTTLE (the notification/recrawl rate-limit): per
    user keep an event only if it is ≥ gap after the LAST KEPT event.
    Unlike sessionize (gap vs the previous RAW event) the predicate
    depends on the operator's own output — the greedy chain is
    inherently sequential per key, the stateful-streaming case the
    Dataset API can't express directly.

    Shape: one user-hash bucket shuffle; per user the chain advances
    with ONE searchsorted per KEPT event over the sorted timestamp
    array (O(kept · log n), never a per-event Python step, never
    O(n²)); equal timestamps order by event_id and only the first can
    be kept. SQL twin: recursive CTE whose recursive term advances
    every user's frontier one kept event per iteration (min_by over
    the qualifying suffix)."""
    gap_us = gap_hours * 3_600_000_000
    ds = read_table(sf_dir, "events", columns=["user_id", "event_id", "ts"])

    def chain_bucket(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for uid, grp in g.groupby("user_id"):
            ts = grp["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
            eid = grp["event_id"].to_numpy().astype(np.int64)
            order = np.lexsort((eid, ts))
            ts_o, eid_o = ts[order], eid[order]
            kept = []
            i, n = 0, len(ts_o)
            while i < n:
                kept.append(i)
                # first index with ts >= kept_ts + gap; target exceeds
                # ts_o[i], so the chain strictly advances
                i = int(np.searchsorted(ts_o, ts_o[i] + gap_us,
                                        side="left"))
            ki = np.asarray(kept, dtype=np.int64)
            outs.append(pd.DataFrame({
                "user_id": np.full(len(ki), uid, np.int64),
                "event_id": eid_o[ki],
                "ts": ts_o[ki].astype("datetime64[us]"),
                "keep_rank": np.arange(1, len(ki) + 1, dtype=np.int64)}))
        return pd.concat(outs, ignore_index=True) if outs else \
            pd.DataFrame({"user_id": pd.Series([], dtype="int64"),
                          "event_id": pd.Series([], dtype="int64"),
                          "ts": pd.Series([], dtype="datetime64[us]"),
                          "keep_rank": pd.Series([], dtype="int64")})

    return map_buckets(ds, ["user_id"], chain_bucket)


def q_events_cumsum(sf_dir: str):
    """Running per-user cumulative count ordered by ts (window frame
    rows unbounded preceding).

    Scale shape: hash-bucket users into coarse partitions, then one
    vectorized grouped ``cumcount`` per bucket — no per-user Python."""
    ds = read_table(sf_dir, "events", columns=["user_id", "event_id", "ts"])

    def cum_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
        g["running_n"] = (g.groupby("user_id", sort=False).cumcount()
                          .astype("int64") + 1)
        return g[["user_id", "event_id", "running_n"]]

    return map_buckets(ds, ["user_id"], cum_bucket)


# ----------------------------------------------------------------------
# extended joins / windows the Dataset API lacks natively (r03):
# as-of join, range join, grouped top-k, rolling frame, pivot, rollup.
# Each is a composition of map_batches + map_buckets (the
# partitioning assumption: every key lives wholly in one bucket), per
# the custom-operator guidance — no raw actors needed.
# ----------------------------------------------------------------------

def q_asof_last_click(sf_dir: str):
    """AS-OF JOIN (last-click attribution): for each 'purchase' event,
    the most recent 'click' by the same user at-or-before the purchase
    timestamp. The reference attributes results to the lease that
    produced them by recency (worker_meta started_ts vs item crawled
    ts, SURVEY.md §1.3); this generalizes that shape to a first-class
    as-of join operator.

    Scale shape: one pruned read of the two event types, users
    hash-bucketed (every user wholly in one bucket), then ONE
    vectorized ``pandas.merge_asof`` per bucket — no per-user Python
    calls, no all-pairs blowup (merge_asof is a linear merge over the
    two ts-sorted sides). Inner semantics: purchases with no prior
    click are dropped (keeps the output null-free — gate-safe).
    Tie-break on equal click ts: highest click event_id (merge_asof
    takes the LAST right row; the right side is sorted
    [ts, event_id])."""
    ds = read_table(sf_dir, "events", columns=["event_id", "user_id",
                                               "ts", "event_type"])

    def keep(batch: pa.Table) -> pa.Table:
        m = pc.is_in(batch["event_type"],
                     value_set=pa.array(["purchase", "click"]))
        return batch.filter(m)

    out_cols = ["event_id", "user_id", "ts", "click_event_id", "click_ts"]

    def asof_bucket(g: pd.DataFrame) -> pd.DataFrame:
        p = (g[g["event_type"] == "purchase"]
             .sort_values(["ts", "event_id"]).reset_index(drop=True))
        c = (g[g["event_type"] == "click"]
             .sort_values(["ts", "event_id"]).reset_index(drop=True))
        if p.empty or c.empty:
            return pd.DataFrame({
                "event_id": pd.Series([], dtype="int64"),
                "user_id": pd.Series([], dtype="int64"),
                "ts": pd.Series([], dtype="datetime64[us]"),
                "click_event_id": pd.Series([], dtype="int64"),
                "click_ts": pd.Series([], dtype="datetime64[us]")})
        right = c[["event_id", "user_id", "ts"]].rename(
            columns={"event_id": "click_event_id", "ts": "click_ts"})
        out = pd.merge_asof(p[["event_id", "user_id", "ts"]], right,
                            left_on="ts", right_on="click_ts",
                            by="user_id", direction="backward")
        out = out.dropna(subset=["click_event_id"])
        out["click_event_id"] = out["click_event_id"].astype("int64")
        return out[out_cols]

    return map_buckets(ds.map_batches(keep, batch_format="pyarrow"),
                       ["user_id"], asof_bucket)


def q_range_join_click_views(sf_dir: str):
    """RANGE JOIN (post-click attribution window): for each 'click'
    event, the number of 'view' events by the same user in
    (click_ts, click_ts + 10 minutes].

    Scale shape: users hash-bucketed; inside each bucket the count is
    two ``np.searchsorted`` calls over a composite
    (user_code x time_offset) int64 key — views and clicks are jointly
    factorized so each user owns one contiguous key segment, and the
    10-minute margin built into the segment span guarantees a window
    can never spill into the next user's segment. Fully vectorized:
    no per-user Python, no pairwise expansion (the classic inequality-
    join blowup). Capacity: span ~= bucket time range in us, so int64
    holds ~2^63/span users per bucket (~3.5M at a 1-month range x 32
    buckets ~= 10^8 users); asserted, and widening to per-table passes
    is the documented fallback."""
    ds = read_table(sf_dir, "events", columns=["event_id", "user_id",
                                               "ts", "event_type"])
    win_us = np.int64(10 * 60 * 1_000_000)

    def keep(batch: pa.Table) -> pa.Table:
        m = pc.is_in(batch["event_type"],
                     value_set=pa.array(["click", "view"]))
        return batch.filter(m)

    def count_bucket(g: pd.DataFrame) -> pd.DataFrame:
        is_click = (g["event_type"] == "click").to_numpy()
        ts = g["ts"].to_numpy().astype("datetime64[us]").view("int64")
        users = g["user_id"].to_numpy()
        if not is_click.any():
            return pd.DataFrame({
                "event_id": pd.Series([], dtype="int64"),
                "user_id": pd.Series([], dtype="int64"),
                "n_views_10m": pd.Series([], dtype="int64")})
        codes, _ = pd.factorize(users)  # joint: clicks AND views
        base = ts.min()
        span = np.int64(ts.max() - base) + win_us + np.int64(2)
        assert span * np.int64(codes.max() + 1) >= 0, \
            "composite range-join key overflow: split into narrower buckets"
        key = codes.astype(np.int64) * span + (ts - base)
        v_key = np.sort(key[~is_click & (g["event_type"] == "view").to_numpy()])
        c_key = key[is_click]
        lo = np.searchsorted(v_key, c_key, side="right")
        hi = np.searchsorted(v_key, c_key + win_us, side="right")
        return pd.DataFrame({
            "event_id": g["event_id"].to_numpy()[is_click],
            "user_id": users[is_click],
            "n_views_10m": (hi - lo).astype("int64")})

    return map_buckets(ds.map_batches(keep, batch_format="pyarrow"),
                       ["user_id"], count_bucket)


def q_topk_per_group(sf_dir: str, k: int = 3):
    """GROUPED TOP-K: the k longest documents per source (ties broken
    by doc_id). The per-GROUP analog of O3's global top-k (the
    reference's per-task recent-N page, SURVEY.md §2.6).

    Scale shape: per-BATCH partial top-k per group first (shrinks the
    shuffle to <= k rows per group per batch), then a bucketed merge
    re-running the same vectorized sort + groupby-head reduce — never
    a full sort of the table, no per-group Python calls."""
    ds = read_table(sf_dir, "documents", columns=["source", "doc_id",
                                                  "n_chars"])

    def partial_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["source", "n_chars", "doc_id"],
                            ascending=[True, False, True])
        return df.groupby("source", sort=False).head(k)

    partials = ds.map_batches(partial_topk, batch_format="pandas")

    def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = partial_topk(g).reset_index(drop=True)
        g["rank"] = (g.groupby("source", sort=False).cumcount()
                     .astype("int64") + 1)
        return g[["source", "doc_id", "n_chars", "rank"]]

    return map_buckets(partials, ["source"], reduce_bucket)


def q_rolling_window_value(sf_dir: str):
    """ROLLING FRAME aggregate: per user, ordered by (ts, event_id),
    the sum of ``value`` (exact integer cents) and row count over the
    window ROWS 2 PRECEDING .. CURRENT ROW — the sliding-window twin
    of the reference's 10-minute progress windows (SURVEY.md §2.11).

    Scale shape: users hash-bucketed; inside each bucket one grouped
    vectorized rolling sum (C path) over the sorted frame. Exact
    integer cents so the gate column never meets float rounding."""
    ds = read_table(sf_dir, "events", columns=["user_id", "event_id",
                                               "ts", "value"])

    def roll_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
        v_c = (g["value"] * 100).round().astype("int64")
        grp = g.groupby("user_id", sort=False)
        roll = v_c.groupby(g["user_id"], sort=False).rolling(
            3, min_periods=1)
        g["rolling_sum_c"] = roll.sum().reset_index(level=0, drop=True) \
                                 .astype("int64")
        g["n_in_window"] = np.minimum(grp.cumcount() + 1, 3).astype("int64")
        return g[["user_id", "event_id", "rolling_sum_c", "n_in_window"]]

    return map_buckets(ds, ["user_id"], roll_bucket)


def q_bloom_semi_orders(sf_dir: str):
    """RUNTIME-FILTER pushdown semi-join: orders of 'BUILDING'-segment
    customers via a bloom filter built over the key side, broadcast
    once, probed vectorized per batch, then made exact by the bucketed
    semi-join over the survivors only (stages/joins.bloom_semi_join).
    Output equals the plain IN-subquery semi-join; the all-to-all
    carries ~|matches| + FPP·|orders| instead of |orders|."""
    from ..stages.joins import bloom_semi_join
    orders = read_table(sf_dir, "orders",
                        columns=["o_orderkey", "o_custkey"])
    cust = read_table(sf_dir, "customer",
                      columns=["c_custkey", "c_mktsegment"])
    keys = cust.map_batches(
        lambda t: t.filter(pc.equal(t["c_mktsegment"], "BUILDING"))
        .select(["c_custkey"]).rename_columns(["o_custkey"]),
        batch_format="pyarrow")
    return bloom_semi_join(orders, keys, on="o_custkey")


def q_scd2_intervals(sf_dir: str):
    """SCD TYPE-2 HISTORY BUILD (the LEAD-window dimension-versioning
    op): treat each user's events as a change stream and emit one
    validity interval per change — valid_from_us = the event's
    timestamp, valid_to_us = the NEXT event's timestamp in
    (ts, event_id) order (−1 for the open current version), plus the
    version ordinal. The LEAD counterpart of events_lag_gaps' LAG, and
    the CDC-apply step downstream of snapshot_diff.

    Scale shape: one user-hash bucket shuffle; per bucket the lead is
    a grouped shift over the (user, ts, event_id)-sorted frame — two
    vectorized ops, no per-user Python."""
    ds = read_table(sf_dir, "events", columns=["user_id", "event_id",
                                               "ts", "value"])

    def scd_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"]) \
             .reset_index(drop=True)
        ts = g["ts"].astype("int64").to_numpy()
        u = g["user_id"].to_numpy()
        nxt = np.empty_like(ts)
        nxt[:-1] = ts[1:]
        nxt[-1] = -1
        last = np.zeros(len(g), dtype=bool)
        last[-1] = True
        last[:-1] = u[:-1] != u[1:]
        nxt[last] = -1
        ver = g.groupby("user_id", sort=False).cumcount().to_numpy() + 1
        return pd.DataFrame({
            "user_id": g["user_id"].astype("int64"),
            "event_id": g["event_id"].astype("int64"),
            "version": ver.astype(np.int64),
            "valid_from_us": ts,
            "valid_to_us": nxt,
            "value_c": (g["value"] * 100).round().astype("int64")})

    return map_buckets(ds, ["user_id"], scd_bucket)


def _scd2_oracle_sql() -> str:
    return (
        "SELECT user_id, event_id, "
        "CAST(row_number() OVER w AS BIGINT) AS version, "
        "epoch_us(ts) AS valid_from_us, "
        "CAST(coalesce(lead(epoch_us(ts)) OVER w, -1) AS BIGINT) "
        "AS valid_to_us, "
        "CAST(round(value * 100) AS BIGINT) AS value_c "
        "FROM events "
        "WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id) "
        "ORDER BY 1, 2")


def q_normalize_value_per_user(sf_dir: str):
    """PER-GROUP MIN-MAX FEATURE SCALING: each event's value rescaled
    to [0, 1e6] within its user's own range —
    norm_e6 = (v − min_u) * 1e6 // (max_u − min_u), with single-value
    (or constant) users pinned to 0 — the feature-engineering
    normalization step (winsorize_value's clipping sibling).

    Scale shape: grouped min/max are combiner partials (one row per
    user per batch) merged in Ray; the data-sized rescale pass
    re-reads events and probes the per-user bounds via a user-bucketed
    tagged-union join — never a driver-held bounds map (users are
    data-sized)."""
    b = 2 * shuffle_partitions()
    ds = read_table(sf_dir, "events", columns=["user_id", "event_id",
                                               "value"])

    def bounds_partial(batch: pa.Table) -> pa.Table:
        v = pc.cast(pc.round(pc.multiply(batch["value"],
                                         pa.scalar(100.0))),
                    pa.int64()).to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"user_id": batch["user_id"]
                           .to_numpy(zero_copy_only=False), "v": v})
        g = df.groupby("user_id", as_index=False)["v"].agg(["min", "max"])
        g.columns = ["user_id", "vmin", "vmax"]
        return pa.Table.from_pandas(g, preserve_index=False)

    def bounds_reduce(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("user_id", as_index=False).agg(
            vmin=("vmin", "min"), vmax=("vmax", "max"))

    bounds = map_buckets(
        ds.map_batches(bounds_partial, batch_format="pyarrow"),
        ["user_id"], bounds_reduce, b)

    def b_side(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({"user_id": pc.cast(batch["user_id"], pa.int64()),
                         "event_id": pa.nulls(n, pa.int64()),
                         "v": pa.nulls(n, pa.int64()),
                         "vmin": pc.cast(batch["vmin"], pa.int64()),
                         "vmax": pc.cast(batch["vmax"], pa.int64()),
                         "side": pa.array(["b"] * n)})

    def e_side(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        v = pc.cast(pc.round(pc.multiply(batch["value"],
                                         pa.scalar(100.0))), pa.int64())
        return pa.table({"user_id": pc.cast(batch["user_id"], pa.int64()),
                         "event_id": pc.cast(batch["event_id"], pa.int64()),
                         "v": v,
                         "vmin": pa.nulls(n, pa.int64()),
                         "vmax": pa.nulls(n, pa.int64()),
                         "side": pa.array(["e"] * n)})

    def norm_bucket(g: pd.DataFrame) -> pd.DataFrame:
        b = g[g["side"] == "b"]
        e = g[g["side"] == "e"]
        lo = pd.Series(b["vmin"].to_numpy(), index=b["user_id"].to_numpy())
        hi = pd.Series(b["vmax"].to_numpy(), index=b["user_id"].to_numpy())
        u = e["user_id"].to_numpy()
        v = e["v"].to_numpy().astype(np.int64)
        vmin = lo.reindex(u).to_numpy().astype(np.int64)
        vmax = hi.reindex(u).to_numpy().astype(np.int64)
        span = vmax - vmin
        norm = np.where(span > 0, (v - vmin) * 1_000_000
                        // np.maximum(span, 1), 0)
        return pd.DataFrame({"user_id": u.astype(np.int64),
                             "event_id": e["event_id"].to_numpy()
                             .astype(np.int64),
                             "norm_e6": norm.astype(np.int64)})

    both = (bounds.map_batches(b_side, batch_format="pyarrow")
            .union(ds.map_batches(e_side, batch_format="pyarrow")))
    return map_buckets(both, ["user_id"], norm_bucket, b)


def _normalize_value_oracle_sql() -> str:
    return (
        "WITH nv AS (SELECT user_id, event_id, "
        "CAST(round(value * 100) AS BIGINT) AS v FROM events), "
        "nb AS (SELECT user_id, min(v) AS vmin, max(v) AS vmax "
        "FROM nv GROUP BY 1) "
        "SELECT nv.user_id AS user_id, event_id, "
        "CAST(CASE WHEN vmax > vmin THEN "
        "((v - vmin) * 1000000) // (vmax - vmin) ELSE 0 END AS BIGINT) "
        "AS norm_e6 FROM nv JOIN nb ON nv.user_id = nb.user_id "
        "ORDER BY 1, 2")


def q_hourofday_profile(sf_dir: str):
    """CYCLIC SEASONALITY PROFILE (hour-of-day, the time-FEATURE
    counterpart of the absolute-hour windows): per (event_type,
    hour-of-day 0-23) the event count, exact value sum in cents, and
    the hour's e6 share within its type — the load-shape statistic
    schedulers and anomaly baselines are built from. Scale shape:
    pure per-batch combiner into the enum×24 domain; tiny driver
    merge, no shuffle."""
    ds = read_table(sf_dir, "events", columns=["event_type", "ts",
                                               "value"])

    def prep(batch: pa.Table) -> pa.Table:
        tsu = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        vc = pc.cast(pc.round(pc.multiply(batch["value"], 100.0)), pa.int64())
        return pa.table({"event_type": batch["event_type"],
                         "hod": pa.array((tsu // 3_600_000_000) % 24),
                         "vc": vc})

    out = aggregate(ds, ["event_type", "hod"],
                    {"n": ("vc", "count"), "sum_value_c": ("vc", "sum")}, prep)
    tot = out.groupby("event_type")["n"].transform("sum")
    out["share_e6"] = out["n"] * 1_000_000 // tot
    return out.sort_values(["event_type", "hod"]).reset_index(drop=True)


def _hourofday_oracle_sql() -> str:
    return (
        "WITH hp AS (SELECT event_type, "
        "(epoch_us(ts) // 3600000000) % 24 AS hod, "
        "CAST(count(*) AS BIGINT) AS n, "
        "CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) "
        "AS sum_value_c FROM events GROUP BY 1, 2) "
        "SELECT event_type, CAST(hod AS BIGINT) AS hod, n, sum_value_c, "
        "CAST(n * 1000000 // (sum(n) OVER (PARTITION BY event_type)) "
        "AS BIGINT) AS share_e6 FROM hp ORDER BY 1, 2")


TREND_WEEKS = 8  # decay horizon (weights 2^7 .. 2^0)


def _week_of(batch: pa.Table) -> pa.Table:
    """``prep``: each event's type and week number since the epoch."""
    wk = pc.cast(pc.divide(batch["ts"].cast(pa.int64()),
                           pa.scalar(604_800_000_000, pa.int64())), pa.int64())
    return pa.table({"event_type": batch["event_type"], "wk": wk})


def q_trending_types(sf_dir: str):
    """TRENDING SCORE (decayed counting — the 'hot items' ranking):
    per event_type, score = Σ_{j=0..7} n(maxwk − j) · 2^(7−j) over the
    last TREND_WEEKS weekly counts — exponential half-life decay kept
    exact-integer with power-of-two weights (the ewma trick at the
    aggregate level). Emits (event_type, score, n_last) ordered by
    score DESC. Scale shape: weekly counts are a per-batch combiner
    into the enum×weeks domain; the decay fold runs on the tiny
    merged series."""
    ds = read_table(sf_dir, "events", columns=["event_type", "ts"])
    out = aggregate(ds, ["event_type", "wk"], {"n": ("wk", "count")},
                    _week_of)
    maxwk = int(out["wk"].max())
    recent = out[out["wk"] > maxwk - TREND_WEEKS].copy()
    exp = (TREND_WEEKS - 1 - (maxwk - recent["wk"])).to_numpy()
    recent["score"] = recent["n"].to_numpy() * np.left_shift(np.int64(1), exp)
    res = recent.groupby("event_type", as_index=False).agg(
        score=("score", "sum"))
    last = out[out["wk"] == maxwk][["event_type", "n"]] \
        .rename(columns={"n": "n_last"})
    res = res.merge(last, on="event_type", how="left").fillna(0)
    for c in ("score", "n_last"):
        res[c] = res[c].astype("int64")
    return (res.sort_values(["score", "event_type"],
                            ascending=[False, True])
            .reset_index(drop=True))


def _trending_oracle_sql() -> str:
    return (
        "WITH tr AS (SELECT event_type, epoch_us(ts) // 604800000000 "
        "AS wk, CAST(count(*) AS BIGINT) AS n FROM events GROUP BY 1, 2), "
        "mx AS (SELECT max(wk) AS maxwk FROM tr) "
        "SELECT event_type, "
        f"CAST(sum(n * (1 << ({TREND_WEEKS} - 1 - (maxwk - wk)))) "
        "AS BIGINT) AS score, "
        "CAST(coalesce(sum(n) FILTER (WHERE wk = maxwk), 0) AS BIGINT) "
        "AS n_last "
        f"FROM tr, mx WHERE wk > maxwk - {TREND_WEEKS} "
        "GROUP BY 1 ORDER BY score DESC, event_type")


BOOT_R = 3
BOOT_SALTS = (0x37E151628AED2A6A, 0x1E3779B97F4A7C15,
              0x3C6EF372FE94F82B)  # all < 2^63: plain SQL literals
# Poisson(1) tail probabilities quantized to e9 (shared constants on
# both engines — determinism comes from the table, not from float exp)
BOOT_T_E9 = (632_120_558, 264_241_117, 80_301_397, 18_988_156)


def q_bootstrap_sums(sf_dir: str):
    """DETERMINISTIC POISSON BOOTSTRAP (the online-bootstrap /
    resampling-inference primitive): each event enters replicate r
    with multiplicity = #(u_r < T_k) where u_r =
    splitmix64(event_id XOR salt_r) % 1e9 and T is the fixed
    e9-quantized Poisson(1) tail table (counts capped at 4) — the
    streaming bootstrap without any RNG state, reproducible across
    engines. Emits per replicate (replicate, n_effective,
    sum_value_c): the spread across replicates IS the uncertainty
    estimate for the corpus total.

    Scale shape: zero shuffle — per-batch hash draws + one partial
    row per replicate; driver merges BOOT_R rows."""
    from ..functions.hashing import splitmix64_np

    ds = read_table(sf_dir, "events", columns=["event_id", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        eid = batch["event_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64).astype(np.uint64)
        v = pc.cast(pc.round(pc.multiply(batch["value"],
                                         pa.scalar(100.0))),
                    pa.int64()).to_numpy(zero_copy_only=False)
        rows = []
        for r, s in enumerate(BOOT_SALTS):
            u = (splitmix64_np(eid ^ np.uint64(s))
                 % np.uint64(1_000_000_000)).astype(np.int64)
            mult = np.zeros(len(eid), dtype=np.int64)
            for t in BOOT_T_E9:
                mult += (u < t)
            rows.append((r, int(mult.sum()), int((mult * v).sum())))
        return pa.table({
            "replicate": pa.array([r for r, _, _ in rows], pa.int64()),
            "n_effective": pa.array([n for _, n, _ in rows], pa.int64()),
            "sum_value_c": pa.array([sv for _, _, sv in rows],
                                    pa.int64())})

    out = aggregate(ds, ["replicate"],
                    {"n_effective": ("n_effective", "sum"),
                     "sum_value_c": ("sum_value_c", "sum")}, prep)
    return out.sort_values("replicate").reset_index(drop=True)


def _bootstrap_oracle_sql() -> str:
    from ..functions.sqlmirror import splitmix64_cte
    sql_parts = []
    sels = []
    first = True
    for r, s in enumerate(BOOT_SALTS):
        part, lr = splitmix64_cte(
            "SELECT CAST(round(value * 100) AS BIGINT) AS vc, "
            f"xor(CAST(event_id AS UBIGINT), CAST({s} AS UBIGINT)) "
            "AS x "
            "FROM events", "x", f"u{r}", carry_cols=("vc",),
            prefix=f"__bt{r}_", include_with=first)
        sql_parts.append(part)
        first = False
        mult = " + ".join(
            f"CASE WHEN u{r} % 1000000000 < {t} THEN 1 ELSE 0 END"
            for t in BOOT_T_E9)
        sels.append(
            f"SELECT {r} AS replicate, "
            f"CAST(sum({mult}) AS BIGINT) AS n_effective, "
            f"CAST(sum(({mult}) * vc) AS BIGINT) AS sum_value_c "
            f"FROM {lr}")
    return "".join(sql_parts) + " " + \
        " UNION ALL ".join(sels) + " ORDER BY replicate"


def q_event_trigrams(sf_dir: str):
    """SEQUENCE-PATTERN MINING one rank above event_transitions:
    counts of consecutive event-type TRIGRAMS in each user's
    (ts, event_id)-ordered stream (windows never cross users),
    ordered by (n DESC, trigram asc). The funnel-discovery statistic —
    transitions tell you edges, trigrams tell you paths.

    Scale shape: one user-hash bucket shuffle (a user's stream must
    be contiguous to window over it); per bucket the trigrams are a
    vectorized composite-code fold (two shifted compares + one
    np.unique); the merge key space is the enum³ type domain, so the
    final reduce is a tiny driver merge."""
    ds = read_table(sf_dir, "events", columns=["user_id", "ts",
                                               "event_id", "event_type"])

    def tri_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"]) \
             .reset_index(drop=True)
        codes, uniq = pd.factorize(g["event_type"], sort=True)
        u = g["user_id"].to_numpy()
        n = len(g)
        if n < 3:
            return pd.DataFrame({"t1": pd.Series([], dtype=object),
                                 "t2": pd.Series([], dtype=object),
                                 "t3": pd.Series([], dtype=object),
                                 "n": pd.Series([], dtype="int64")})
        same3 = (u[:-2] == u[1:-1]) & (u[1:-1] == u[2:])
        k = len(uniq)
        comp = (codes[:-2].astype(np.int64) * k + codes[1:-1]) * k \
            + codes[2:]
        comp = comp[same3]
        vals, cnts = np.unique(comp, return_counts=True)
        return pd.DataFrame({
            "t1": uniq[(vals // (k * k)).astype(np.int64)],
            "t2": uniq[((vals // k) % k).astype(np.int64)],
            "t3": uniq[(vals % k).astype(np.int64)],
            "n": cnts.astype(np.int64)})

    parts = map_buckets(ds, ["user_id"], tri_bucket)
    out = merge_partials(parts, ["t1", "t2", "t3"], {"n": "sum"})
    out["n"] = out["n"].astype("int64")
    return (out.sort_values(["n", "t1", "t2", "t3"],
                            ascending=[False, True, True, True])
            .reset_index(drop=True))


def _event_trigrams_oracle_sql() -> str:
    return (
        "WITH tg AS (SELECT user_id, event_type, "
        "lead(event_type, 1) OVER w AS e2, "
        "lead(event_type, 2) OVER w AS e3 FROM events "
        "WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)) "
        "SELECT event_type AS t1, e2 AS t2, e3 AS t3, "
        "CAST(count(*) AS BIGINT) AS n FROM tg "
        "WHERE e2 IS NOT NULL AND e3 IS NOT NULL "
        "GROUP BY 1, 2, 3 ORDER BY n DESC, 1, 2, 3")


F2_D, F2_W = 4, 256  # CMS registers for the F2 / join-size estimate
F2_SEEDS = (0x243F6A8885A308D3, 0x13198A2E03707344,
            0x452821E638D01377, 0x6C0CE934CF6654BE)


def q_f2_selfjoin_estimate(sf_dir: str):
    """SELF-JOIN SIZE / F2 MOMENT ESTIMATION — the query-optimizer
    cardinality-estimation primitive: |lineitem ⋈ lineitem on
    l_partkey| = Σ_k c(k)² (the second frequency moment), computed
    BOTH exactly (per-key combiner counts → bucketed merge → Σ c² as
    distributed partials) and as the classic CMS inner-product
    estimate (min over depth rows of Σ_reg cnt[reg]²) — always >= the
    exact value, equal when no register collisions. One row:
    (n_rows, n_keys, exact_f2, est_f2).

    Scale shape: the sketch side is a per-batch np.add.at into D×W
    int64 registers (enum-sized mergeable partials — the cms shape on
    a NUMERIC key, splitmix-hashed, no string FNV walk); the exact
    side's Σ c² reduces per key-bucket so no key set ever centralizes.
    ORACLE: DuckDB recomputes registers via the shared splitmix
    chains and both moments in exact integers."""
    from ..functions.hashing import splitmix64_np

    ds = read_table(sf_dir, "lineitem", columns=["l_partkey"])

    def regs_partial(batch: pa.Table) -> pa.Table:
        k = batch["l_partkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64).astype(np.uint64)
        h0 = splitmix64_np(k)
        mat = np.zeros((F2_D, F2_W), dtype=np.int64)
        for r, s in enumerate(F2_SEEDS):
            reg = (splitmix64_np(h0 ^ np.uint64(s))
                   % np.uint64(F2_W)).astype(np.int64)
            np.add.at(mat[r], reg, 1)
        rr = np.repeat(np.arange(F2_D, dtype=np.int64), F2_W)
        gg = np.tile(np.arange(F2_W, dtype=np.int64), F2_D)
        return pa.table({"r": pa.array(rr), "reg": pa.array(gg),
                         "cnt": pa.array(mat.reshape(-1))})

    regs = aggregate(ds, ["r", "reg"], {"cnt": ("cnt", "sum")}, regs_partial)
    table = np.zeros((F2_D, F2_W), dtype=np.int64)
    table[regs["r"].to_numpy(), regs["reg"].to_numpy()] = \
        regs["cnt"].to_numpy()
    est_f2 = int(min((row.astype(object) ** 2).sum()
                     for row in table))

    # exact side: per-key counts (combiner → bucketed merge) → Σ c²
    # reduced per bucket, so the key set never centralizes
    merged = aggregate(ds, ["k"], {"c": ("k", "count")},
                       lambda t: t.rename_columns(["k"]), in_ray=True)

    def moment_partial(batch: pa.Table) -> pa.Table:
        c = batch["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"f2": pa.array([int((c.astype(object) ** 2)
                                             .sum())], pa.int64()),
                         "nk": pa.array([len(c)], pa.int64()),
                         "nr": pa.array([int(c.sum())], pa.int64())})

    mm = merged.map_batches(moment_partial,
                            batch_format="pyarrow").to_pandas()
    res = pd.DataFrame([{
        "n_rows": int(mm["nr"].sum()),
        "n_keys": int(mm["nk"].sum()),
        "exact_f2": int(mm["f2"].sum()),
        "est_f2": est_f2}])
    assert int(res["est_f2"].iloc[0]) >= int(res["exact_f2"].iloc[0]), \
        "CMS F2 invariant violated: estimate below exact moment"
    return res


def _f2_oracle_sql() -> str:
    from ..functions.sqlmirror import splitmix64_cte
    sql, l0 = splitmix64_cte(
        "SELECT CAST(l_partkey AS UBIGINT) AS k FROM lineitem",
        "k", "h0", carry_cols=(), prefix="__f2h")
    finals = []
    for r, s in enumerate(F2_SEEDS):
        part, lr = splitmix64_cte(
            f"SELECT xor(h0, CAST({s} AS UBIGINT)) AS x FROM {l0}",
            "x", f"g{r}", carry_cols=(), prefix=f"__f2_{r}_",
            include_with=False)
        sql += part
        finals.append((r, lr))
    rows = " UNION ALL ".join(
        f"SELECT {r} AS r, CAST(g{r} % {F2_W} AS BIGINT) AS reg "
        f"FROM {lr}" for r, lr in finals)
    return sql + (
        f", f2_a AS ({rows}), "
        "f2_regs AS (SELECT r, reg, CAST(count(*) AS BIGINT) AS cnt "
        "FROM f2_a GROUP BY 1, 2), "
        "f2_est AS (SELECT CAST(min(s2) AS BIGINT) AS est_f2 FROM "
        "(SELECT r, sum(cnt * cnt) AS s2 FROM f2_regs GROUP BY 1)), "
        "f2_ex AS (SELECT CAST(count(*) AS BIGINT) AS nk, "
        "CAST(sum(c) AS BIGINT) AS nr, "
        "CAST(sum(c * c) AS BIGINT) AS exact_f2 FROM "
        "(SELECT l_partkey, CAST(count(*) AS BIGINT) AS c "
        "FROM lineitem GROUP BY 1)) "
        "SELECT nr AS n_rows, nk AS n_keys, exact_f2, est_f2 "
        "FROM f2_ex, f2_est")


def q_weekly_growth(sf_dir: str):
    """PERIOD-OVER-PERIOD GROWTH (the WoW/MoM BI staple — a window
    over an AGGREGATED series, not raw rows): weekly event counts per
    event_type with the previous week's count and integer-exact
    growth_e6 = (n − prev_n)·1e6 // prev_n (first week: prev_n = -1,
    growth_e6 = 0). Scale shape: the count is a per-batch combiner
    into the enum×weeks domain (driver-merged, config-sized); the lag
    over the aggregated series is a vectorized shift on the tiny
    result."""
    ds = read_table(sf_dir, "events", columns=["event_type", "ts"])
    out = aggregate(ds, ["event_type", "wk"], {"n": ("wk", "count")},
                    _week_of)
    out = out.sort_values(["event_type", "wk"]).reset_index(drop=True)
    n = out["n"].to_numpy()
    prev = np.empty_like(n)
    prev[1:] = n[:-1]
    prev[0] = -1
    et = out["event_type"].to_numpy()
    first = np.zeros(len(out), dtype=bool)
    first[0] = True
    first[1:] = et[1:] != et[:-1]
    prev[first] = -1
    # TRUNCATING division (DuckDB's integer // truncates toward zero
    # on negatives; numpy // floors — match SQL semantics here since
    # growth is signed, unlike the repo's nonnegative _e6 columns)
    d6 = (n - prev) * 1_000_000
    growth = np.where(prev > 0,
                      np.sign(d6) * (np.abs(d6) // np.maximum(prev, 1)),
                      0)
    return pd.DataFrame({"event_type": out["event_type"], "wk": out["wk"],
                         "n": n, "prev_n": prev,
                         "growth_e6": growth.astype(np.int64)})


def _weekly_growth_oracle_sql() -> str:
    return (
        "WITH wg AS (SELECT event_type, "
        "epoch_us(ts) // 604800000000 AS wk, "
        "CAST(count(*) AS BIGINT) AS n FROM events GROUP BY 1, 2) "
        "SELECT event_type, wk, n, "
        "CAST(coalesce(lag(n) OVER w, -1) AS BIGINT) AS prev_n, "
        "CAST(CASE WHEN coalesce(lag(n) OVER w, -1) > 0 THEN "
        "((n - lag(n) OVER w) * 1000000) // lag(n) OVER w "
        "ELSE 0 END AS BIGINT) AS growth_e6 "
        "FROM wg WINDOW w AS (PARTITION BY event_type ORDER BY wk) "
        "ORDER BY 1, 2")


def q_benford_digits(sf_dir: str):
    """BENFORD FIRST-DIGIT AUDIT (the fraud/data-quality screen):
    distribution of the leading digit of value_cents across events —
    per digit 1-9 the count and exact share_e6 of all positive values.
    Scale shape: per-batch digit histogram (vectorized
    log10-free: repeated integer division by 10), 9-row enum merge."""
    ds = read_table(sf_dir, "events", columns=["value"])

    def prep(batch: pa.Table) -> pa.Table:
        v = pc.cast(pc.round(pc.multiply(batch["value"],
                                         pa.scalar(100.0))),
                    pa.int64()).to_numpy(zero_copy_only=False).copy()
        v = v[v > 0]
        while (v >= 10).any():
            v = np.where(v >= 10, v // 10, v)
        cnt = np.bincount(v, minlength=10)[1:10].astype(np.int64)
        return pa.table({"digit": pa.array(np.arange(1, 10,
                                                     dtype=np.int64)),
                         "n": pa.array(cnt)})

    out = aggregate(ds, ["digit"], {"n": ("n", "sum")}, prep)
    out["share_e6"] = out["n"] * 1_000_000 // max(int(out["n"].sum()), 1)
    return out.sort_values("digit").reset_index(drop=True)


def _benford_oracle_sql() -> str:
    return (
        "WITH bf AS (SELECT CAST(substr(CAST(CAST(round(value * 100) "
        "AS BIGINT) AS VARCHAR), 1, 1) AS BIGINT) AS digit "
        "FROM events WHERE CAST(round(value * 100) AS BIGINT) > 0), "
        "bc AS (SELECT digit, CAST(count(*) AS BIGINT) AS n "
        "FROM bf GROUP BY 1), "
        "bd AS (SELECT CAST(unnest(range(1, 10)) AS BIGINT) AS digit) "
        "SELECT bd.digit AS digit, CAST(coalesce(bc.n, 0) AS BIGINT) "
        "AS n, CAST(coalesce(bc.n, 0) * 1000000 // "
        "greatest((SELECT sum(n) FROM bc), 1) AS BIGINT) AS share_e6 "
        "FROM bd LEFT JOIN bc ON bc.digit = bd.digit ORDER BY 1")


COVISIT_MIN_SHARED = 3


def q_covisit_user_pairs(sf_dir: str):
    """CO-VISITATION PAIRS (the collaborative-filtering co-occurrence
    statistic): pairs of users active in >= COVISIT_MIN_SHARED of the
    same (day, event_type) context buckets — the user-user (or
    item-item, transposed) similarity matrix recommenders precompute.
    Output (user_a < user_b, n_shared).

    Scale shape: distinct (user, day, type) triples are a per-batch
    combiner; pair emission runs per (day, type) group after a
    context-bucketed shuffle (inherently quadratic in group size —
    same documented trade as dedup_jaccard_exact; cap or LSH-bucket
    hot contexts at web scale); pair counts reduce through the
    standard pair-bucketed merge, and only >= threshold pairs leave."""
    ds = read_table(sf_dir, "events", columns=["user_id", "ts",
                                               "event_type"])

    def triples(batch: pa.Table) -> pa.Table:
        day = pc.cast(pc.divide(batch["ts"].cast(pa.int64()),
                                pa.scalar(86_400_000_000, pa.int64())),
                      pa.int64())
        t = pa.table({"user_id": pc.cast(batch["user_id"], pa.int64()),
                      "day": day, "event_type": batch["event_type"]})
        return t.group_by(["user_id", "day", "event_type"]) \
            .aggregate([]).select(["user_id", "day", "event_type"])

    trip = ds.map_batches(triples, batch_format="pyarrow")

    def dedup_ctx(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["user_id", "day", "event_type"])[
            ["user_id", "day", "event_type"]]

    def pairs_in_ctx(g: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for _, grp in g.groupby(["day", "event_type"], sort=False):
            u = np.sort(grp["user_id"].to_numpy().astype(np.int64))
            if len(u) < 2:
                continue
            iu, ju = np.triu_indices(len(u), k=1)
            frames.append(pd.DataFrame({"user_a": u[iu],
                                        "user_b": u[ju]}))
        if not frames:
            return pd.DataFrame({"user_a": pd.Series([], dtype=np.int64),
                                 "user_b": pd.Series([], dtype=np.int64),
                                 "n_shared": pd.Series([], dtype=np.int64)})
        out = pd.concat(frames, ignore_index=True)
        out["n_shared"] = 1
        return out.groupby(["user_a", "user_b"],
                           as_index=False)["n_shared"].sum()

    def reduce_pairs(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["user_a", "user_b"],
                        as_index=False)["n_shared"].sum()
        out = out[out["n_shared"] >= COVISIT_MIN_SHARED]
        for c in out.columns:
            out[c] = out[c].astype("int64")
        return out

    b = 2 * shuffle_partitions()
    pairs = map_buckets(trip, ["day", "event_type"],
                        lambda g: pairs_in_ctx(dedup_ctx(g)), b)
    return map_buckets(pairs, ["user_a", "user_b"], reduce_pairs, b)


def _covisit_oracle_sql() -> str:
    return (
        "WITH cv AS (SELECT DISTINCT user_id, "
        "epoch_us(ts) // 86400000000 AS day, event_type FROM events) "
        "SELECT a.user_id AS user_a, b.user_id AS user_b, "
        "CAST(count(*) AS BIGINT) AS n_shared "
        "FROM cv a JOIN cv b ON a.day = b.day "
        "AND a.event_type = b.event_type AND a.user_id < b.user_id "
        f"GROUP BY 1, 2 HAVING count(*) >= {COVISIT_MIN_SHARED} "
        "ORDER BY 1, 2")


def q_trailing_window_value(sf_dir: str):
    """RANGE-frame (time-based) windowed aggregate — the
    variable-width counterpart of q_rolling_window_value's ROWS
    frame: per event, the user's Σ value_cents and row count over
    RANGE INTERVAL 1 HOUR PRECEDING .. CURRENT ROW (peers at equal ts
    included, per SQL RANGE semantics).

    Scale shape: users hash-bucketed; inside each bucket ONE
    vectorized pass — factorize users, build a composite int64 key
    (user_code · SPAN + ts_rel) whose per-user gap exceeds the window
    so a single global prefix-sum + two np.searchsorted calls resolve
    every row's frame (no per-user Python, no per-row loop). Composite
    overflow asserted like the range-join's (split buckets to
    narrow)."""
    WIN_US = 3_600_000_000

    ds = read_table(sf_dir, "events", columns=["user_id", "event_id",
                                               "ts", "value"])

    def trail_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"]) \
             .reset_index(drop=True)
        ts = g["ts"].astype("int64").to_numpy()
        ts_rel = ts - ts.min()
        codes, _ = pd.factorize(g["user_id"], sort=True)
        span = int(ts_rel.max()) + 2 * WIN_US + 1
        assert (int(codes.max()) + 1) * span < 2**63, \
            "composite window key overflow: split into narrower buckets"
        key = codes.astype(np.int64) * span + ts_rel
        v_c = (g["value"] * 100).round().astype("int64").to_numpy()
        pref = np.concatenate(([0], np.cumsum(v_c)))
        lo = np.searchsorted(key, key - WIN_US, side="left")
        hi = np.searchsorted(key, key, side="right")
        g["trailing_sum_c"] = (pref[hi] - pref[lo]).astype("int64")
        g["n_in_range"] = (hi - lo).astype("int64")
        return g[["user_id", "event_id", "trailing_sum_c", "n_in_range"]]

    return map_buckets(ds, ["user_id"], trail_bucket)


EWMA_W = 16  # EWMA window: alpha=1/2 truncated to 16 terms


def q_events_ewma(sf_dir: str):
    """EXPONENTIAL SMOOTHING (EWMA) per user — the weighted member of
    the rolling-window family (ROWS frame = q_rolling_window_value,
    RANGE frame = q_trailing_window_value): per event, ordered by
    (ts, event_id), ewma16_c = Σ_{j=0..15} vc[i-j] · 2^(15-j) over the
    user's own rows (missing lags contribute 0), vc = value cents.
    alpha = 1/2 with the weights kept UNNORMALIZED as powers of two so
    the gate column is exact integer — the standard trick for
    integer-exact exponential decay.

    Scale shape: users hash-bucketed; inside each bucket the smoothing
    is 16 shifted vector adds over the (user, ts, event_id)-sorted
    frame with a same-user mask — no per-user Python, no per-row
    loop."""
    ds = read_table(sf_dir, "events", columns=["user_id", "event_id",
                                               "ts", "value"])

    def ewma_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"]) \
             .reset_index(drop=True)
        v = (g["value"] * 100).round().astype("int64").to_numpy()
        u = g["user_id"].to_numpy()
        n = len(g)
        out = v * (1 << (EWMA_W - 1))
        for j in range(1, EWMA_W):
            w = 1 << (EWMA_W - 1 - j)
            shifted = np.zeros(n, dtype=np.int64)
            shifted[j:] = v[:-j]
            same = np.zeros(n, dtype=bool)
            same[j:] = u[j:] == u[:-j]
            out = out + np.where(same, shifted, 0) * w
        return pd.DataFrame({
            "user_id": g["user_id"].astype("int64"),
            "event_id": g["event_id"].astype("int64"),
            "ewma16_c": out.astype("int64")})

    return map_buckets(ds, ["user_id"], ewma_bucket)


REGR_EPOCH_US = 1_704_067_200_000_000  # 2024-01-01, the corpus origin


def q_value_trend_per_user(sf_dir: str):
    """GROUPED LINEAR REGRESSION (SQL REGR_SLOPE/REGR_INTERCEPT family)
    in exact integer sufficient statistics: per user, fit value_cents
    against event-time in HOURS since the corpus epoch and emit the
    slope as an exact integer rational —
    slope_num = n·Σxy − Σx·Σy, slope_den = n·Σx² − (Σx)² — plus n.
    Hour granularity keeps n·Σx² far inside int64 (asserted; at finer
    granularity lift to object ints). Completes the moments family:
    variance (value_stats_per_type), covariance (covar_qty_discount),
    now the regression fit itself.

    Scale shape: zero shuffle — per-batch (user, n, Σx, Σy, Σxy, Σx²)
    combiner partials, bucketed merge, final rational computed from
    merged sums."""
    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        x = (ts - REGR_EPOCH_US) // 3_600_000_000
        y = pc.cast(pc.round(pc.multiply(batch["value"],
                                         pa.scalar(100.0))),
                    pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"user_id": batch["user_id"], "x": x, "y": y,
                         "xy": x * y, "xx": x * x})

    out = aggregate(ds, ["user_id"], {
        "n": ("x", "count"), "sx": ("x", "sum"), "sy": ("y", "sum"),
        "sxy": ("xy", "sum"), "sxx": ("xx", "sum")},
        prep, in_ray=True).to_pandas()
    n, sx, sy, sxy, sxx = (out[c] for c in ("n", "sx", "sy", "sxy", "sxx"))
    assert int((n * sxx).abs().max()) < 2 ** 62, \
        "regression moment overflow: coarsen x granularity"
    res = pd.DataFrame({"user_id": out["user_id"], "n": n,
                        "slope_num": n * sxy - sx * sy,
                        "slope_den": n * sxx - sx * sx})
    return res.sort_values("user_id").reset_index(drop=True)


def _value_trend_oracle_sql() -> str:
    return (
        "WITH vt AS (SELECT user_id, "
        f"(epoch_us(ts) - {REGR_EPOCH_US}) // 3600000000 AS x, "
        "CAST(round(value * 100) AS BIGINT) AS y FROM events), "
        "vs AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n, "
        "CAST(sum(x) AS BIGINT) AS sx, CAST(sum(y) AS BIGINT) AS sy, "
        "CAST(sum(x * y) AS BIGINT) AS sxy, "
        "CAST(sum(x * x) AS BIGINT) AS sxx FROM vt GROUP BY 1) "
        "SELECT user_id, n, "
        "CAST(n * sxy - sx * sy AS BIGINT) AS slope_num, "
        "CAST(n * sxx - sx * sx AS BIGINT) AS slope_den "
        "FROM vs ORDER BY 1")


LATE_GRACE_US = 3_600_000_000  # allowed lateness: 1 hour


def q_late_event_flags(sf_dir: str):
    """STREAMING WATERMARK semantics — late-event detection: events
    arrive in event_id order; a user's watermark before event i is the
    max ts among their earlier-arriving events, and an event is LATE
    when ts + 1h < watermark (it missed its window even with 1h
    allowed lateness — exactly what a streaming ingest would drop or
    side-channel). Emits per-user totals: n_events, n_late, and the
    worst lateness in µs.

    Scale shape: one user-hash bucket shuffle; per bucket the
    watermark is a grouped shifted cummax (vectorized), no per-row
    Python."""
    ds = read_table(sf_dir, "events", columns=["user_id", "event_id",
                                               "ts"])

    def late_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "event_id"]).reset_index(drop=True)
        ts = g["ts"].astype("int64").to_numpy()
        u = g["user_id"].to_numpy()
        # per-user running max (grouped cummax, C path), shifted by
        # one row; the first row of each user has no watermark
        wm = pd.Series(ts).groupby(g["user_id"], sort=False) \
            .cummax().to_numpy()
        prev = np.empty_like(wm)
        prev[1:] = wm[:-1]
        prev[0] = np.iinfo(np.int64).min
        first = np.zeros(len(g), dtype=bool)
        first[0] = True
        first[1:] = u[1:] != u[:-1]
        prev[first] = np.iinfo(np.int64).min
        late = ts + LATE_GRACE_US < prev
        lateness = np.where(late, prev - ts, 0)
        out = pd.DataFrame({"user_id": g["user_id"].astype("int64"),
                            "late": late.astype("int64"),
                            "lateness": lateness.astype("int64")})
        agg = out.groupby("user_id", as_index=False).agg(
            n_events=("late", "size"), n_late=("late", "sum"),
            max_lateness_us=("lateness", "max"))
        for c in ("n_events", "n_late", "max_lateness_us"):
            agg[c] = agg[c].astype("int64")
        return agg

    return map_buckets(ds, ["user_id"], late_bucket)


def _late_events_oracle_sql() -> str:
    return (
        "WITH le AS (SELECT user_id, epoch_us(ts) AS tu, "
        "max(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY event_id "
        "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS wm "
        "FROM events) "
        "SELECT user_id, CAST(count(*) AS BIGINT) AS n_events, "
        f"CAST(count(*) FILTER (WHERE tu + {LATE_GRACE_US} < wm) "
        "AS BIGINT) AS n_late, "
        f"CAST(coalesce(max(wm - tu) FILTER (WHERE tu + {LATE_GRACE_US} "
        "< wm), 0) AS BIGINT) AS max_lateness_us "
        "FROM le GROUP BY 1 ORDER BY 1")


def _ewma_oracle_sql() -> str:
    terms = " + ".join(
        f"coalesce(lag(vc, {j}) OVER w, 0) * {1 << (EWMA_W - 1 - j)}"
        if j else f"vc * {1 << (EWMA_W - 1)}"
        for j in range(EWMA_W))
    return (
        "SELECT user_id, event_id, "
        f"CAST({terms} AS BIGINT) AS ewma16_c "
        "FROM (SELECT user_id, event_id, ts, "
        "CAST(round(value * 100) AS BIGINT) AS vc FROM events) "
        "WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id) "
        "ORDER BY 1, 2")


def q_pivot_priority_status(sf_dir: str):
    """PIVOT: order counts as one row per o_orderpriority with one
    column per o_orderstatus (wide layout). Statuses are a bounded
    enum, so the pivot is a per-batch filtered-count combine → tiny
    enum-keyed driver merge — no shuffle at all."""
    ds = read_table(sf_dir, "orders", columns=["o_orderpriority",
                                               "o_orderstatus"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderpriority": batch["o_orderpriority"],
            **{s: pc.cast(pc.equal(batch["o_orderstatus"], s), pa.int64())
               for s in "FOP"}})

    df = aggregate(ds, ["o_orderpriority"], {
        "n_f": ("F", "sum"), "n_o": ("O", "sum"), "n_p": ("P", "sum")}, prep)
    df["n_total"] = df["n_f"] + df["n_o"] + df["n_p"]
    return df


def q_rollup_revenue(sf_dir: str):
    """ROLLUP / grouping sets: lineitem revenue at three levels —
    (returnflag, linestatus), (returnflag, ALL), (ALL, ALL) — exact
    integer e4 units. The (flag, status) key set is a bounded enum, so
    the heavy scan is a per-batch combine (one partial row per key per
    batch) and the rollup levels are derived from the merged base
    aggregate on the driver — the 6-row frame, not the data."""
    ds = read_table(sf_dir, "lineitem", columns=[
        "l_returnflag", "l_linestatus", "l_extendedprice", "l_discount"])

    def prep(batch: pa.Table) -> pa.Table:
        price_c = pc.cast(pc.round(pc.multiply(batch["l_extendedprice"],
                                               pa.scalar(100.0))), pa.int64())
        disc_c = pc.cast(pc.round(pc.multiply(batch["l_discount"],
                                              pa.scalar(100.0))), pa.int64())
        rev = pc.multiply(price_c,
                          pc.subtract(pa.scalar(100, pa.int64()), disc_c))
        return pa.table({"l_returnflag": batch["l_returnflag"],
                         "l_linestatus": batch["l_linestatus"],
                         "revenue_e4": rev})

    base = aggregate(ds, ["l_returnflag", "l_linestatus"],
                     {"revenue_e4": ("revenue_e4", "sum"),
                      "n_rows": ("revenue_e4", "count")}, prep)
    lvl1 = base.groupby("l_returnflag", as_index=False)[
        ["revenue_e4", "n_rows"]].sum()
    lvl1["l_linestatus"] = "ALL"
    lvl0 = pd.DataFrame({"l_returnflag": ["ALL"], "l_linestatus": ["ALL"],
                         "revenue_e4": [base["revenue_e4"].sum()],
                         "n_rows": [base["n_rows"].sum()]})
    out = pd.concat([base, lvl1[base.columns], lvl0[base.columns]],
                    ignore_index=True)
    return out.sort_values(["l_returnflag", "l_linestatus"]) \
              .reset_index(drop=True)


def q_part_stats_by_brand(sf_dir: str):
    """Multi-aggregate groupby with min/max (exact on any engine):
    per-batch count/min/max partials → enum-keyed driver merge
    (brands are a bounded catalog key)."""
    ds = read_table(sf_dir, "part", columns=["p_brand", "p_size"])

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("p_brand").aggregate(
            [("p_size", "count"), ("p_size", "min"), ("p_size", "max")])
        return g.rename_columns(["p_brand", "n_parts", "min_size", "max_size"])

    pdf = (ds.map_batches(partial, batch_format="pyarrow").to_pandas()
           .sort_values(["p_brand", "n_parts", "min_size", "max_size"]))
    out = pdf.groupby("p_brand", as_index=False).agg(
        n_parts=("n_parts", "sum"), min_size=("min_size", "min"),
        max_size=("max_size", "max"))
    out["n_parts"] = out["n_parts"].astype("int64")
    return out.reset_index(drop=True)


def q_union_names(sf_dir: str):
    """Set op: region ∪ nation names via Dataset.union."""
    r = read_table(sf_dir, "region", columns=["r_name"]).map_batches(
        lambda t: pa.table({"name": t["r_name"]}), batch_format="pyarrow")
    n = read_table(sf_dir, "nation", columns=["n_name"]).map_batches(
        lambda t: pa.table({"name": t["n_name"]}), batch_format="pyarrow")
    return r.union(n)


def q_q13_customer_distribution(sf_dir: str):
    """TPC-H Q13 shape — LEFT OUTER join + distribution histogram:
    orders per customer INCLUDING zero-order customers, then the
    (c_count, custdist) histogram.

    Scale shape: per-batch order counts by custkey (combiner) →
    bucketed merge; the left join is the tagged-union bucketed shape
    (customer keys + count rows share one token-bucketed shuffle, no
    broadcast of the data-sized customer side); each bucket emits its
    c_count histogram PARTIAL, and the final merge is enum-keyed
    (c_count has a config-sized domain) so the driver reduce is a few
    dozen rows."""
    b = 2 * shuffle_partitions()

    ords = read_table(sf_dir, "orders", columns=["o_custkey"])
    cust = read_table(sf_dir, "customer", columns=["c_custkey"])

    counts = aggregate(ords, ["c_custkey"], {"n_orders": ("c_custkey", "count")},
                       lambda t: t.rename_columns(["c_custkey"]), in_ray=True)

    tag = _tag_bucket(["c_custkey"], b, "jbucket")

    def tag_cust(t: pa.Table) -> pa.Table:
        return tag(pa.table({
            "c_custkey": pc.cast(t["c_custkey"], pa.int64()),
            "n_orders": pa.nulls(t.num_rows, pa.int64())}))

    both = (cust.map_batches(tag_cust, batch_format="pyarrow")
            .union(counts.map_batches(tag, batch_format="pyarrow")))

    def hist_bucket(g: pd.DataFrame) -> pd.DataFrame:
        cnt_rows = g[g["n_orders"].notna()]
        per_cust = dict(zip(cnt_rows["c_custkey"],
                            cnt_rows["n_orders"].astype("int64")))
        keys = g.loc[g["n_orders"].isna(), "c_custkey"]
        cc = keys.map(per_cust).fillna(0).astype("int64")
        u, n = np.unique(cc.to_numpy(), return_counts=True)
        return pd.DataFrame({"c_count": u.astype("int64"),
                             "custdist": n.astype("int64")})

    parts = map_buckets(both, "jbucket", hist_bucket, b).to_pandas()
    out = (parts.groupby("c_count", as_index=False)["custdist"].sum()
           .sort_values(["custdist", "c_count"],
                        ascending=[False, False])
           .reset_index(drop=True))
    return out.astype("int64")


def q_approx_distinct_users(sf_dir: str):
    """HLL distinct estimate (mergeable sketch per batch → tiny
    merge). ORACLE-CHECKED end to end: the sketch registers are a
    deterministic function of the hashed values, so DuckDB recomputes
    them (stable_hash64 via the m8-style recursive-CTE mirror, then
    register index / leading-zero rank / per-register max in SQL) and
    the query exposes exact-integer register summaries (hll_zeros,
    hll_harmonic_e) alongside the estimate — the hash gate thereby
    verifies the DISTRIBUTED register construction, not just the final
    scalar. The exact audit count runs the distributed per-bucket
    distinct shape (q_g6), never a driver-side ``ds.unique``."""
    from ..functions.sketches import HyperLogLog
    ds = read_table(sf_dir, "events", columns=["user_id"])

    def sketch(batch: pa.Table) -> pa.Table:
        h = HyperLogLog(p=12)
        h.add_arrow(batch["user_id"])
        return pa.table({"sketch": pa.array([h.state()], pa.binary())})

    merged = HyperLogLog(p=12)
    for b in ds.map_batches(sketch, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"):
        for s in b["sketch"].to_pylist():
            merged.merge(HyperLogLog.from_state(s, p=12))
    exact = int(q_g6_distinct_users(sf_dir)["n_distinct_users"].iloc[0])
    zeros, harmonic = merged.stats()
    import math
    return pd.DataFrame([{
        "approx_distinct": math.floor(merged.estimate() + 0.5),
        "exact_distinct": exact,
        "hll_zeros": zeros,
        "hll_harmonic_e": harmonic}])


def q_crawl_direct(sf_dir: str):
    """Entry point B scatter-gather (§3.3): static list → map_batches →
    collect. ORACLE-CHECKED (training._crawl_direct_oracle_sql):
    attempt-0 outcomes over the embedded seed list, duplicates kept —
    this path has no queue and no dedup."""
    from ..pipelines.crawl import direct_crawl
    from ..sources.corpus import make_seed_urls
    seeds = make_seed_urls(200, seed=42)["url"].to_pylist()
    out = direct_crawl(seeds, seed=42)
    return out.select(["url", "status", "latency_ms", "doc_id"])


# ----------------------------------------------------------------------
# extended TPC-H anchors (round 3): multi-way joins, having, top-k
# ----------------------------------------------------------------------

def _rev_e4(batch: pa.Table, price: str = "l_extendedprice",
            disc: str = "l_discount") -> pa.Array:
    """Exact-integer revenue units: round(price*100) * (100 -
    round(disc*100)) — the q1/j2 determinism convention."""
    price_c = pc.cast(pc.round(pc.multiply(batch[price], 100.0)), pa.int64())
    disc_c = pc.cast(pc.round(pc.multiply(batch[disc], 100.0)), pa.int64())
    return pc.multiply(price_c, pc.subtract(pa.scalar(100, pa.int64()), disc_c))


def _tagged_union_join(left: rd.Dataset, right: rd.Dataset, key: str,
                       join_bucket) -> rd.Dataset:
    """Large-large bucketed hash join core (the j2/q13 shape, shared):
    both sides already carry aligned schemas plus a ``side`` column;
    tag bucket = hash(key) % B on each, union, and run ``join_bucket``
    (a pandas group fn) per bucket through ``map_buckets``. Every key
    lands wholly in one bucket, so per-bucket joins are exact."""
    b = 2 * shuffle_partitions()
    tag = _tag_bucket([key], b, "_jb")
    both = (left.map_batches(tag, batch_format="pyarrow")
            .union(right.map_batches(tag, batch_format="pyarrow")))
    return map_buckets(both, "_jb", join_bucket, b)


def q_q5_local_supplier_volume(sf_dir: str):
    """TPC-H Q5 shape — the engine's widest join: revenue by nation
    where the CUSTOMER and the SUPPLIER sit in the same ASIA nation,
    for 1996 orders. Six tables, three join strategies, each chosen by
    side size (the hybrid plan a 100-TB run needs):

    - nation ⋈ region: config-sized (25 x 5 rows) — resolved on the
      driver into a qualifying-nationkey set;
    - lineitem ⋈ supplier: fact ⋈ dimension — supplier's
      (s_suppkey → s_nationkey) map is broadcast once via ``ray.put``
      as sorted parallel arrays and probed with ``np.searchsorted``
      inside ``map_batches`` (the j1 pattern; supplier is ~1/10^4 of
      lineitem at any TPC-H scale);
    - lineitem ⋈ orders on orderkey, then ⋈ customer on custkey:
      large-large — BOTH run the tagged-union bucketed hash join (the
      j2 shape), with map-side combine shrinking the exchanged fact
      rows before each shuffle.

    The final group key is n_nationkey (enum-sized) so the last merge
    is driver-side over ≤25 x buckets rows."""
    lo = pa.scalar(np.datetime64("1996-01-01T00:00:00", "us"))
    hi = pa.scalar(np.datetime64("1997-01-01T00:00:00", "us"))

    # config-sized dimension resolve on the driver (25 x 5 rows)
    nat = read_local(sf_dir, "nation")
    reg = read_local(sf_dir, "region")
    asia_rk = set(reg.loc[reg["r_name"] == "ASIA", "r_regionkey"])
    nat_asia = nat[nat["n_regionkey"].isin(asia_rk)]
    asia_nk = np.sort(nat_asia["n_nationkey"].to_numpy().astype(np.int64))
    n_name = dict(zip(nat_asia["n_nationkey"].astype(int), nat_asia["n_name"]))

    # supplier dimension broadcast: sorted (s_suppkey, s_nationkey),
    # pre-filtered to ASIA so non-qualifying rows drop at the probe
    supp = read_local(sf_dir, "supplier",
                      columns=["s_suppkey", "s_nationkey"])
    supp = supp[supp["s_nationkey"].astype(np.int64).isin(asia_nk)]
    order_idx = np.argsort(supp["s_suppkey"].to_numpy())
    sk_sorted = supp["s_suppkey"].to_numpy().astype(np.int64)[order_idx]
    snk_sorted = supp["s_nationkey"].to_numpy().astype(np.int64)[order_idx]
    supp_ref = ray.put((sk_sorted, snk_sorted))

    orders = read_table(sf_dir, "orders",
                        columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def ord_side(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.and_(pc.greater_equal(batch["o_orderdate"], lo),
                                 pc.less(batch["o_orderdate"], hi)))
        n = b.num_rows
        return pa.table({
            "key": pc.cast(b["o_orderkey"], pa.int64()),
            "o_custkey": pc.cast(b["o_custkey"], pa.int64()),
            "s_nationkey": pa.nulls(n, pa.int64()),
            "revenue_e4": pa.nulls(n, pa.int64()),
            "side": pa.array(["o"] * n)})

    li = read_table(sf_dir, "lineitem",
                    columns=["l_orderkey", "l_suppkey",
                             "l_extendedprice", "l_discount"])

    def li_side(batch: pa.Table) -> pa.Table:
        ks, nks = ray.get(supp_ref)
        probe = batch["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.clip(np.searchsorted(ks, probe), 0, max(len(ks) - 1, 0))
        hit = (ks[pos] == probe) if len(ks) else np.zeros(len(probe), bool)
        b = batch.filter(pa.array(hit))
        snk = nks[np.clip(np.searchsorted(ks, b["l_suppkey"].to_numpy(
            zero_copy_only=False).astype(np.int64)), 0, max(len(ks) - 1, 0))] \
            if len(ks) else np.empty(0, np.int64)
        t = pa.table({"key": pc.cast(b["l_orderkey"], pa.int64()),
                      "s_nationkey": pa.array(snk, pa.int64()),
                      "revenue_e4": _rev_e4(b)})
        # map-side combine before shuffle #1
        g = t.group_by(["key", "s_nationkey"]).aggregate([("revenue_e4", "sum")])
        g = g.rename_columns(["key", "s_nationkey", "revenue_e4"])
        return pa.table({"key": g["key"],
                         "o_custkey": pa.nulls(g.num_rows, pa.int64()),
                         "s_nationkey": g["s_nationkey"],
                         "revenue_e4": g["revenue_e4"],
                         "side": pa.array(["l"] * g.num_rows)})

    def join1(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == "l"][["key", "s_nationkey", "revenue_e4"]]
        right = g[g["side"] == "o"][["key", "o_custkey"]]
        m = left.merge(right, on="key", how="inner")
        if m.empty:
            return pd.DataFrame({"key": pd.Series([], dtype="int64"),
                                 "s_nationkey": pd.Series([], dtype="int64"),
                                 "revenue_e4": pd.Series([], dtype="int64")})
        # combine per (custkey, s_nationkey) before shuffle #2
        out = (m.groupby(["o_custkey", "s_nationkey"], as_index=False)
               ["revenue_e4"].sum())
        return pd.DataFrame({"key": out["o_custkey"].astype("int64"),
                             "s_nationkey": out["s_nationkey"].astype("int64"),
                             "revenue_e4": out["revenue_e4"].astype("int64")})

    fact1 = _tagged_union_join(
        li.map_batches(li_side, batch_format="pyarrow"),
        orders.map_batches(ord_side, batch_format="pyarrow"),
        "key", join1)

    cust = read_table(sf_dir, "customer",
                      columns=["c_custkey", "c_nationkey"])

    def cust_side(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.is_in(pc.cast(batch["c_nationkey"], pa.int64()),
                                  value_set=pa.array(asia_nk, pa.int64())))
        n = b.num_rows
        return pa.table({"key": pc.cast(b["c_custkey"], pa.int64()),
                         "s_nationkey": pa.nulls(n, pa.int64()),
                         "revenue_e4": pa.nulls(n, pa.int64()),
                         "c_nationkey": pc.cast(b["c_nationkey"], pa.int64()),
                         "side": pa.array(["c"] * n)})

    def fact_side(batch: pa.Table) -> pa.Table:
        return pa.table({"key": batch["key"],
                         "s_nationkey": batch["s_nationkey"],
                         "revenue_e4": batch["revenue_e4"],
                         "c_nationkey": pa.nulls(batch.num_rows, pa.int64()),
                         "side": pa.array(["f"] * batch.num_rows)})

    def join2(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == "f"][["key", "s_nationkey", "revenue_e4"]]
        right = g[g["side"] == "c"][["key", "c_nationkey"]]
        m = left.merge(right, on="key", how="inner")
        m = m[m["s_nationkey"] == m["c_nationkey"]]
        if m.empty:
            return pd.DataFrame({"n_nationkey": pd.Series([], dtype="int64"),
                                 "revenue_e4": pd.Series([], dtype="int64")})
        out = m.groupby("s_nationkey", as_index=False)["revenue_e4"].sum()
        return pd.DataFrame({"n_nationkey": out["s_nationkey"].astype("int64"),
                             "revenue_e4": out["revenue_e4"].astype("int64")})

    parts = _tagged_union_join(
        fact1.map_batches(fact_side, batch_format="pyarrow"),
        cust.map_batches(cust_side, batch_format="pyarrow"),
        "key", join2)

    final = merge_partials(parts, ["n_nationkey"], {"revenue_e4": "sum"})
    if final.empty:
        return pd.DataFrame({"n_name": pd.Series([], dtype="object"),
                             "revenue_e4": pd.Series([], dtype="int64")})
    final["n_name"] = final["n_nationkey"].map(n_name)
    final["revenue_e4"] = final["revenue_e4"].astype("int64")
    return (final[["n_name", "revenue_e4"]]
            .sort_values(["revenue_e4", "n_name"], ascending=[False, True])
            .reset_index(drop=True))


def q_q10_returned_items(sf_dir: str, k: int = 20):
    """TPC-H Q10 shape — returned-item revenue top-k: customers ranked
    by revenue from 'R'-flag lineitems on 1996-Q1 orders. Plan:
    date-filtered orders ⋈ flag-filtered lineitem on orderkey via the
    tagged-union bucketed join (both sides data-sized), per-custkey
    revenue merged IN RAY (custkeys are data-sized), per-block partial
    top-k, and only the ≤k winners pick up c_name through a
    predicate-pushdown read."""
    lo = pa.scalar(np.datetime64("1996-01-01T00:00:00", "us"))
    hi = pa.scalar(np.datetime64("1996-04-01T00:00:00", "us"))

    orders = read_table(sf_dir, "orders",
                        columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def ord_side(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.and_(pc.greater_equal(batch["o_orderdate"], lo),
                                 pc.less(batch["o_orderdate"], hi)))
        return pa.table({"key": pc.cast(b["o_orderkey"], pa.int64()),
                         "o_custkey": pc.cast(b["o_custkey"], pa.int64()),
                         "revenue_e4": pa.nulls(b.num_rows, pa.int64()),
                         "side": pa.array(["o"] * b.num_rows)})

    li = read_table(sf_dir, "lineitem",
                    columns=["l_orderkey", "l_returnflag",
                             "l_extendedprice", "l_discount"])

    def li_side(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.equal(batch["l_returnflag"], "R"))
        t = pa.table({"key": pc.cast(b["l_orderkey"], pa.int64()),
                      "revenue_e4": _rev_e4(b)})
        g = t.group_by("key").aggregate([("revenue_e4", "sum")])
        g = g.rename_columns(["key", "revenue_e4"])
        return pa.table({"key": g["key"],
                         "o_custkey": pa.nulls(g.num_rows, pa.int64()),
                         "revenue_e4": g["revenue_e4"],
                         "side": pa.array(["l"] * g.num_rows)})

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == "l"][["key", "revenue_e4"]]
        right = g[g["side"] == "o"][["key", "o_custkey"]]
        m = left.merge(right, on="key", how="inner")
        if m.empty:
            return pd.DataFrame({"c_custkey": pd.Series([], dtype="int64"),
                                 "revenue_e4": pd.Series([], dtype="int64")})
        out = m.groupby("o_custkey", as_index=False)["revenue_e4"].sum()
        return pd.DataFrame({"c_custkey": out["o_custkey"].astype("int64"),
                             "revenue_e4": out["revenue_e4"].astype("int64")})

    per_cust = merge_partials_ray(
        _tagged_union_join(li.map_batches(li_side, batch_format="pyarrow"),
                           orders.map_batches(ord_side, batch_format="pyarrow"),
                           "key", join_bucket),
        ["c_custkey"], {"revenue_e4": "sum"})
    agg = top_k(per_cust, [("revenue_e4", "descending"),
                           ("c_custkey", "ascending")], k)
    if agg.empty:
        return pd.DataFrame({"c_custkey": pd.Series([], dtype="int64"),
                             "c_name": pd.Series([], dtype="object"),
                             "revenue_e4": pd.Series([], dtype="int64")})
    win = read_local(
        sf_dir, "customer",
        columns=["c_custkey", "c_name"],
        filters=[("c_custkey", "in", [int(x) for x in agg["c_custkey"]])])
    agg = agg.merge(win, on="c_custkey", how="left")
    return agg[["c_custkey", "c_name", "revenue_e4"]]


def q_q15_top_supplier(sf_dir: str):
    """TPC-H Q15 shape — top supplier by quarter revenue (the view +
    max subquery): per-suppkey revenue partials merged IN RAY, global
    max via per-block partial max (≤1 row per block reaches the
    driver), winners filtered in the cluster, names via a
    predicate-pushdown read. Returns ALL max-tied suppliers, like the
    spec."""
    lo = pa.scalar(np.datetime64("1996-01-01T00:00:00", "us"))
    hi = pa.scalar(np.datetime64("1996-04-01T00:00:00", "us"))

    li = read_table(sf_dir, "lineitem",
                    columns=["l_suppkey", "l_shipdate",
                             "l_extendedprice", "l_discount"])

    def prep(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.and_(pc.greater_equal(batch["l_shipdate"], lo),
                                 pc.less(batch["l_shipdate"], hi)))
        return pa.table({"s_suppkey": b["l_suppkey"], "rev": _rev_e4(b)})

    per_supp = aggregate(li, ["s_suppkey"],
                         {"total_revenue_e4": ("rev", "sum")}, prep, in_ray=True)

    def max_block(batch: pa.Table) -> pa.Table:
        m = pc.max(batch["total_revenue_e4"])
        return pa.table({"m": pa.array([m.as_py()], pa.int64())})

    blocks = per_supp.map_batches(max_block, batch_format="pyarrow").to_pandas()
    if blocks.empty or blocks["m"].isna().all():
        return pd.DataFrame({"s_suppkey": pd.Series([], dtype="int64"),
                             "s_name": pd.Series([], dtype="object"),
                             "total_revenue_e4": pd.Series([], dtype="int64")})
    best = int(blocks["m"].max())

    winners = per_supp.map_batches(
        lambda t: t.filter(pc.equal(t["total_revenue_e4"], best)),
        batch_format="pyarrow").to_pandas()
    win = read_local(
        sf_dir, "supplier",
        columns=["s_suppkey", "s_name"],
        filters=[("s_suppkey", "in", [int(x) for x in winners["s_suppkey"]])])
    out = winners.merge(win, on="s_suppkey", how="left")
    return (out[["s_suppkey", "s_name", "total_revenue_e4"]]
            .sort_values("s_suppkey").reset_index(drop=True))


def q_q18_large_volume_customers(sf_dir: str, qty_threshold: int = 300):
    """TPC-H Q18 shape — GROUP BY ... HAVING semi-join: orders whose
    total lineitem quantity exceeds the threshold, joined back to
    orders + customer. The having-filter runs INSIDE the distributed
    merge (per-bucket groups filter locally before anything reaches
    the driver); only the spec-tiny winner set is collected and both
    back-joins are predicate-pushdown reads over it."""
    li = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])

    merged = aggregate(
        li, ["o_orderkey"], {"total_qty": ("qty", "sum")},
        lambda t: pa.table({"o_orderkey": t["l_orderkey"], "qty": pc.cast(
            pc.round(t["l_quantity"]), pa.int64())}), in_ray=True)
    winners = merged.map_batches(
        lambda t: t.filter(pc.greater(t["total_qty"], qty_threshold)),
        batch_format="pyarrow").to_pandas()
    if winners.empty:
        return pd.DataFrame({
            "c_custkey": pd.Series([], dtype="int64"),
            "c_name": pd.Series([], dtype="object"),
            "o_orderkey": pd.Series([], dtype="int64"),
            "o_orderdate": pd.Series([], dtype="datetime64[us]"),
            "o_totalprice_c": pd.Series([], dtype="int64"),
            "total_qty": pd.Series([], dtype="int64")})

    ords = read_local(
        sf_dir, "orders",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
        filters=[("o_orderkey", "in", [int(x) for x in winners["o_orderkey"]])])
    cust = read_local(
        sf_dir, "customer",
        columns=["c_custkey", "c_name"],
        filters=[("c_custkey", "in", [int(x) for x in ords["o_custkey"]])])
    out = (winners.merge(ords, on="o_orderkey")
           .merge(cust, left_on="o_custkey", right_on="c_custkey"))
    out["o_totalprice_c"] = (out["o_totalprice"] * 100).round().astype("int64")
    return (out[["c_custkey", "c_name", "o_orderkey", "o_orderdate",
                 "o_totalprice_c", "total_qty"]]
            .sort_values(["o_totalprice_c", "o_orderkey"],
                         ascending=[False, True])
            .reset_index(drop=True))


def q_q7_volume_shipping(sf_dir: str, nation_a: str = "NATION_11",
                         nation_b: str = "NATION_12"):
    """TPC-H Q7 shape — two-nation volume shipping: revenue by
    (supplier nation, customer nation, ship year) for 1996-1997
    lineitems where the supplier sits in one named nation and the
    customer in the other (both directions). Same hybrid plan as Q5
    (config dims on the driver, supplier broadcast probe, two chained
    tagged-union bucketed joins) with the cross-nation pair filter in
    the second join and a (2 x 2 x 2)-row enum merge at the end."""
    lo = pa.scalar(np.datetime64("1996-01-01T00:00:00", "us"))
    hi = pa.scalar(np.datetime64("1998-01-01T00:00:00", "us"))

    nat = read_local(sf_dir, "nation")
    sel = nat[nat["n_name"].isin([nation_a, nation_b])]
    nks = np.sort(sel["n_nationkey"].to_numpy().astype(np.int64))
    nk_name = dict(zip(sel["n_nationkey"].astype(int), sel["n_name"]))

    supp = read_local(sf_dir, "supplier",
                      columns=["s_suppkey", "s_nationkey"])
    supp = supp[supp["s_nationkey"].astype(np.int64).isin(nks)]
    order_idx = np.argsort(supp["s_suppkey"].to_numpy())
    sk_sorted = supp["s_suppkey"].to_numpy().astype(np.int64)[order_idx]
    snk_sorted = supp["s_nationkey"].to_numpy().astype(np.int64)[order_idx]
    supp_ref = ray.put((sk_sorted, snk_sorted))

    li = read_table(sf_dir, "lineitem",
                    columns=["l_orderkey", "l_suppkey", "l_shipdate",
                             "l_extendedprice", "l_discount"])

    def li_side(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.and_(pc.greater_equal(batch["l_shipdate"], lo),
                                 pc.less(batch["l_shipdate"], hi)))
        ks, nkv = ray.get(supp_ref)
        probe = b["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.clip(np.searchsorted(ks, probe), 0, max(len(ks) - 1, 0))
        hit = (ks[pos] == probe) if len(ks) else np.zeros(len(probe), bool)
        b = b.filter(pa.array(hit))
        probe = b["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        snk = nkv[np.clip(np.searchsorted(ks, probe), 0,
                          max(len(ks) - 1, 0))] \
            if len(ks) else np.empty(0, np.int64)
        yr = pc.cast(pc.year(b["l_shipdate"]), pa.int64())
        t = pa.table({"key": pc.cast(b["l_orderkey"], pa.int64()),
                      "s_nationkey": pa.array(snk, pa.int64()),
                      "l_year": yr, "revenue_e4": _rev_e4(b)})
        g = t.group_by(["key", "s_nationkey", "l_year"]).aggregate(
            [("revenue_e4", "sum")])
        g = g.rename_columns(["key", "s_nationkey", "l_year", "revenue_e4"])
        return pa.table({"key": g["key"],
                         "o_custkey": pa.nulls(g.num_rows, pa.int64()),
                         "s_nationkey": g["s_nationkey"],
                         "l_year": g["l_year"],
                         "revenue_e4": g["revenue_e4"],
                         "side": pa.array(["l"] * g.num_rows)})

    orders = read_table(sf_dir, "orders",
                        columns=["o_orderkey", "o_custkey"])

    def ord_side(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({"key": pc.cast(batch["o_orderkey"], pa.int64()),
                         "o_custkey": pc.cast(batch["o_custkey"], pa.int64()),
                         "s_nationkey": pa.nulls(n, pa.int64()),
                         "l_year": pa.nulls(n, pa.int64()),
                         "revenue_e4": pa.nulls(n, pa.int64()),
                         "side": pa.array(["o"] * n)})

    def join1(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == "l"][["key", "s_nationkey", "l_year",
                                    "revenue_e4"]]
        right = g[g["side"] == "o"][["key", "o_custkey"]]
        m = left.merge(right, on="key", how="inner")
        if m.empty:
            return pd.DataFrame({
                "key": pd.Series([], dtype="int64"),
                "s_nationkey": pd.Series([], dtype="int64"),
                "l_year": pd.Series([], dtype="int64"),
                "revenue_e4": pd.Series([], dtype="int64")})
        out = (m.groupby(["o_custkey", "s_nationkey", "l_year"],
                         as_index=False)["revenue_e4"].sum())
        return pd.DataFrame({
            "key": out["o_custkey"].astype("int64"),
            "s_nationkey": out["s_nationkey"].astype("int64"),
            "l_year": out["l_year"].astype("int64"),
            "revenue_e4": out["revenue_e4"].astype("int64")})

    fact1 = _tagged_union_join(
        li.map_batches(li_side, batch_format="pyarrow"),
        orders.map_batches(ord_side, batch_format="pyarrow"),
        "key", join1)

    cust = read_table(sf_dir, "customer",
                      columns=["c_custkey", "c_nationkey"])

    def cust_side(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.is_in(pc.cast(batch["c_nationkey"], pa.int64()),
                                  value_set=pa.array(nks, pa.int64())))
        n = b.num_rows
        return pa.table({"key": pc.cast(b["c_custkey"], pa.int64()),
                         "s_nationkey": pa.nulls(n, pa.int64()),
                         "l_year": pa.nulls(n, pa.int64()),
                         "revenue_e4": pa.nulls(n, pa.int64()),
                         "c_nationkey": pc.cast(b["c_nationkey"], pa.int64()),
                         "side": pa.array(["c"] * n)})

    def fact_side(batch: pa.Table) -> pa.Table:
        return pa.table({"key": batch["key"],
                         "s_nationkey": batch["s_nationkey"],
                         "l_year": batch["l_year"],
                         "revenue_e4": batch["revenue_e4"],
                         "c_nationkey": pa.nulls(batch.num_rows, pa.int64()),
                         "side": pa.array(["f"] * batch.num_rows)})

    def join2(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == "f"][["key", "s_nationkey", "l_year",
                                    "revenue_e4"]]
        right = g[g["side"] == "c"][["key", "c_nationkey"]]
        m = left.merge(right, on="key", how="inner")
        m = m[m["s_nationkey"] != m["c_nationkey"]]   # cross-nation pairs
        if m.empty:
            return pd.DataFrame({
                "s_nationkey": pd.Series([], dtype="int64"),
                "c_nationkey": pd.Series([], dtype="int64"),
                "l_year": pd.Series([], dtype="int64"),
                "revenue_e4": pd.Series([], dtype="int64")})
        return (m.groupby(["s_nationkey", "c_nationkey", "l_year"],
                          as_index=False)["revenue_e4"].sum())

    parts = _tagged_union_join(
        fact1.map_batches(fact_side, batch_format="pyarrow"),
        cust.map_batches(cust_side, batch_format="pyarrow"),
        "key", join2)
    final = merge_partials(parts, ["s_nationkey", "c_nationkey", "l_year"],
                           {"revenue_e4": "sum"})
    if final.empty:
        return pd.DataFrame({"supp_nation": pd.Series([], dtype="object"),
                             "cust_nation": pd.Series([], dtype="object"),
                             "l_year": pd.Series([], dtype="int64"),
                             "revenue_e4": pd.Series([], dtype="int64")})
    final["supp_nation"] = final["s_nationkey"].map(nk_name)
    final["cust_nation"] = final["c_nationkey"].map(nk_name)
    final["l_year"] = final["l_year"].astype("int64")
    final["revenue_e4"] = final["revenue_e4"].astype("int64")
    return (final[["supp_nation", "cust_nation", "l_year", "revenue_e4"]]
            .sort_values(["supp_nation", "cust_nation", "l_year"])
            .reset_index(drop=True))


def q_q19_discounted_revenue(sf_dir: str):
    """TPC-H Q19 shape — DISJUNCTIVE compound predicate across two
    tables: total revenue of lineitems whose (part brand, part size,
    line quantity) satisfy any of three AND-clauses. Plan: part's
    (p_partkey → brand-class, p_size) is a data-sized dimension —
    joined via the tagged-union bucketed join on partkey (no
    broadcast), with the OR-of-ANDs evaluated VECTORIZED inside the
    per-bucket merge; the lineitem side pre-filters to the union of
    quantity ranges before the shuffle (predicate pushdown across the
    disjunction: qty in [1,40] covers all three clauses)."""
    li = read_table(sf_dir, "lineitem",
                    columns=["l_partkey", "l_quantity",
                             "l_extendedprice", "l_discount"])

    def li_side(batch: pa.Table) -> pa.Table:
        q = batch["l_quantity"]
        b = batch.filter(pc.and_(pc.greater_equal(q, 1.0),
                                 pc.less_equal(q, 40.0)))
        return pa.table({"key": pc.cast(b["l_partkey"], pa.int64()),
                         "qty": pc.cast(pc.round(b["l_quantity"]), pa.int64()),
                         "revenue_e4": _rev_e4(b),
                         "p_brand": pa.nulls(b.num_rows, pa.string()),
                         "p_size": pa.nulls(b.num_rows, pa.int64()),
                         "side": pa.array(["l"] * b.num_rows)})

    part = read_table(sf_dir, "part",
                      columns=["p_partkey", "p_brand", "p_size"])

    def part_side(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.is_in(batch["p_brand"], value_set=pa.array(
            ["Brand#1", "Brand#2", "Brand#3"])))
        return pa.table({"key": pc.cast(b["p_partkey"], pa.int64()),
                         "qty": pa.nulls(b.num_rows, pa.int64()),
                         "revenue_e4": pa.nulls(b.num_rows, pa.int64()),
                         "p_brand": b["p_brand"],
                         "p_size": pc.cast(b["p_size"], pa.int64()),
                         "side": pa.array(["p"] * b.num_rows)})

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == "l"][["key", "qty", "revenue_e4"]]
        right = g[g["side"] == "p"][["key", "p_brand", "p_size"]]
        m = left.merge(right, on="key", how="inner")
        if m.empty:
            return pd.DataFrame({"revenue_e4": pd.Series([], dtype="int64"),
                                 "n_lines": pd.Series([], dtype="int64")})
        qty, sz, br = m["qty"], m["p_size"], m["p_brand"]
        keep = (((br == "Brand#1") & qty.between(1, 20) & sz.between(1, 15)) |
                ((br == "Brand#2") & qty.between(10, 30) & sz.between(5, 25)) |
                ((br == "Brand#3") & qty.between(20, 40) & sz.between(10, 40)))
        m = m[keep]
        return pd.DataFrame({"revenue_e4": [int(m["revenue_e4"].sum())],
                             "n_lines": [int(len(m))]})

    parts = _tagged_union_join(
        li.map_batches(li_side, batch_format="pyarrow"),
        part.map_batches(part_side, batch_format="pyarrow"),
        "key", join_bucket)
    df = parts.to_pandas()
    return pd.DataFrame([{"revenue_e4": int(df["revenue_e4"].sum()),
                          "n_lines": int(df["n_lines"].sum())}])


def q_q17_small_qty_revenue(sf_dir: str):
    """TPC-H Q17 shape — CORRELATED-AVG subquery: revenue of lineitems
    whose quantity is below 20% of the per-part average, for one
    brand/type slice. The correlated ``avg`` is rewritten as exact
    integer cross-multiplication (qty < sum/5n ⇔ 5·qty·n < sum), so no
    float division touches the gate. Plan: the brand×type part slice
    is ~1/150 of the part table — dimension-sized at any SF — so its
    key set is broadcast once (``ray.put``), and BOTH lineitem passes
    prune to it at the probe: pass 1 builds the per-part (sum_qty, n)
    sufficient statistic as a combiner aggregation; pass 2 re-probes
    the (slice-sized) stats arrays and keeps qualifying lines. Two
    pruned scans beat one shuffle of the full fact table."""
    part = read_local(sf_dir, "part",
                      columns=["p_partkey", "p_brand", "p_type"])
    pk = np.sort(part.loc[(part["p_brand"] == "Brand#3") &
                          (part["p_type"] == "SMALL"),
                          "p_partkey"].to_numpy().astype(np.int64))
    pk_ref = ray.put(pk)

    li = read_table(sf_dir, "lineitem", columns=["l_partkey", "l_quantity"])

    def prep(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.is_in(batch["l_partkey"], value_set=pa.array(
            ray.get(pk_ref), pa.int64())))
        return pa.table({"p_partkey": b["l_partkey"],
                         "qty": pc.cast(pc.round(b["l_quantity"]), pa.int64())})

    # the merged stats table is slice-sized (== the broadcast key set),
    # so collecting it to build the pass-2 broadcast is not a leak
    stats = aggregate(li, ["p_partkey"],
                      {"sum_qty": ("qty", "sum"), "n": ("qty", "count")},
                      prep, in_ray=True).to_pandas()
    if stats.empty:
        return pd.DataFrame([{"revenue_c": 0, "n_lines": 0}])
    stats = stats.sort_values("p_partkey")
    st_ref = ray.put(tuple(stats[c].to_numpy()
                           for c in ("p_partkey", "sum_qty", "n")))

    li2 = read_table(sf_dir, "lineitem",
                     columns=["l_partkey", "l_quantity", "l_extendedprice"])

    def qual_partial(batch: pa.Table) -> pa.Table:
        ks, sums, ns = ray.get(st_ref)
        probe = batch["l_partkey"].to_numpy(
            zero_copy_only=False).astype(np.int64)
        pos = np.clip(np.searchsorted(ks, probe), 0, max(len(ks) - 1, 0))
        hit = (ks[pos] == probe) if len(ks) else np.zeros(len(probe), bool)
        qty = np.rint(batch["l_quantity"].to_numpy(
            zero_copy_only=False)).astype(np.int64)
        keep = hit & (5 * qty * ns[pos] < sums[pos])
        b = batch.filter(pa.array(keep))
        price_c = pc.cast(pc.round(pc.multiply(b["l_extendedprice"], 100.0)),
                          pa.int64())
        return pa.table({
            "revenue_c": pa.array([pc.sum(price_c).as_py() or 0], pa.int64()),
            "n_lines": pa.array([b.num_rows], pa.int64())})

    df = li2.map_batches(qual_partial, batch_format="pyarrow").to_pandas()
    return pd.DataFrame([{"revenue_c": int(df["revenue_c"].sum()),
                          "n_lines": int(df["n_lines"].sum())}])


def q_q22_sales_opportunity(sf_dir: str):
    """TPC-H Q22 shape — SCALAR-SUBQUERY threshold + ANTI-JOIN +
    grouped counts: customers in selected 'country codes' (adapted:
    cntrycode := c_custkey % 7 — the testdata schema has no c_phone)
    whose balance beats the positive-balance average and who have no
    recent orders (adapted: NOT EXISTS is tested against orders from
    1999 on — in the synthetic corpus every customer has SOME order,
    so the unfiltered anti-join is degenerate; the date filter keeps
    Q22's shape with a non-trivial result). The average threshold is
    applied as exact integer cross-multiplication (bal > sum/n ⇔
    bal·n > sum). Plan: pass 1 is a two-scalar combiner over customer
    (sum of positive balances, count); pass 2 anti-joins the
    thresholded customers against date-filtered orders via the
    tagged-union bucketed join (orders side map-side deduped per
    batch to custkey only), with per-bucket partials over the 3-value
    cntrycode enum merged on the driver."""
    codes = (1, 3, 5)
    cutoff = pa.scalar(np.datetime64("1999-01-01T00:00:00", "us"))
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_acctbal"])

    def avg_partial(batch: pa.Table) -> pa.Table:
        bal = pc.cast(pc.round(pc.multiply(batch["c_acctbal"], 100.0)),
                      pa.int64())
        pos = pc.filter(bal, pc.greater(bal, 0))
        return pa.table({"s": pa.array([pc.sum(pos).as_py() or 0], pa.int64()),
                         "n": pa.array([len(pos)], pa.int64())})

    ap = cust.map_batches(avg_partial, batch_format="pyarrow").to_pandas()
    s_pos, n_pos = int(ap["s"].sum()), int(ap["n"].sum())

    def cust_side(batch: pa.Table) -> pa.Table:
        ck = pc.cast(batch["c_custkey"], pa.int64())
        bal = pc.cast(pc.round(pc.multiply(batch["c_acctbal"], 100.0)),
                      pa.int64())
        code = np.mod(ck.to_numpy(zero_copy_only=False), 7)
        keep = np.isin(code, codes) & \
            (bal.to_numpy(zero_copy_only=False) * n_pos > s_pos)
        b = pa.table({"key": ck, "bal_c": bal,
                      "cntrycode": pa.array(code, pa.int64())}).filter(
            pa.array(keep))
        return pa.table({"key": b["key"], "bal_c": b["bal_c"],
                         "cntrycode": b["cntrycode"],
                         "side": pa.array(["c"] * b.num_rows)})

    orders = read_table(sf_dir, "orders",
                        columns=["o_custkey", "o_orderdate"])

    def ord_side(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.greater_equal(batch["o_orderdate"], cutoff))
        g = b.group_by("o_custkey").aggregate([])  # map-side dedup
        ck = pc.cast(g["o_custkey"], pa.int64())
        n = len(ck)
        return pa.table({"key": ck, "bal_c": pa.nulls(n, pa.int64()),
                         "cntrycode": pa.nulls(n, pa.int64()),
                         "side": pa.array(["o"] * n)})

    def anti_bucket(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == "c"]
        have = set(g.loc[g["side"] == "o", "key"])
        left = left[~left["key"].isin(have)]
        if left.empty:
            return pd.DataFrame({"cntrycode": pd.Series([], dtype="int64"),
                                 "numcust": pd.Series([], dtype="int64"),
                                 "totacctbal_c": pd.Series([], dtype="int64")})
        out = left.groupby("cntrycode", as_index=False).agg(
            numcust=("key", "size"), totacctbal_c=("bal_c", "sum"))
        return out.astype({"cntrycode": "int64", "numcust": "int64",
                           "totacctbal_c": "int64"})

    parts = _tagged_union_join(
        cust.map_batches(cust_side, batch_format="pyarrow"),
        orders.map_batches(ord_side, batch_format="pyarrow"),
        "key", anti_bucket)
    final = merge_partials(parts, ["cntrycode"],
                           {"numcust": "sum", "totacctbal_c": "sum"})
    if final.empty:
        return pd.DataFrame({"cntrycode": pd.Series([], dtype="int64"),
                             "numcust": pd.Series([], dtype="int64"),
                             "totacctbal_c": pd.Series([], dtype="int64")})
    for c in final.columns:
        final[c] = final[c].astype("int64")
    return final.sort_values("cntrycode").reset_index(drop=True)


def q_q8_market_share(sf_dir: str):
    """TPC-H Q8 shape — NATIONAL MARKET SHARE: per order-year, the
    revenue fraction supplied by one target nation, over PROMO-type
    parts sold to ASIA-region customers in 1995–1996. The share is
    returned as exact integer numerator/denominator columns
    (target_e4 / total_e4) — no float division near the gate. Plan
    (the q5 hybrid, one more hop): nation⋈region resolved on the
    driver (config-sized); supplier's nationkey broadcast-probed into
    every lineitem (dimension-sized); part's PROMO slice joined via
    the tagged-union bucketed join on partkey (part is data-sized —
    never broadcast); then orderkey ⋈ date-filtered orders and
    custkey ⋈ region-filtered customer, each a bucketed join with
    map-side combine shrinking the fact stream before the shuffle;
    final merge is enum-keyed (2 years × 2 flags)."""
    lo = pa.scalar(np.datetime64("1995-01-01T00:00:00", "us"))
    hi = pa.scalar(np.datetime64("1997-01-01T00:00:00", "us"))

    nat = read_local(sf_dir, "nation")
    reg = read_local(sf_dir, "region")
    asia_rk = set(reg.loc[reg["r_name"] == "ASIA", "r_regionkey"])
    asia_nk = np.sort(nat.loc[nat["n_regionkey"].isin(asia_rk),
                              "n_nationkey"].to_numpy().astype(np.int64))
    target_nk = int(nat.loc[nat["n_name"] == "NATION_11",
                            "n_nationkey"].iloc[0])

    supp = read_local(sf_dir, "supplier",
                      columns=["s_suppkey", "s_nationkey"])
    order_idx = np.argsort(supp["s_suppkey"].to_numpy())
    sk_sorted = supp["s_suppkey"].to_numpy().astype(np.int64)[order_idx]
    s_is_tgt = (supp["s_nationkey"].to_numpy().astype(np.int64)[order_idx]
                == target_nk)
    supp_ref = ray.put((sk_sorted, s_is_tgt))

    li = read_table(sf_dir, "lineitem",
                    columns=["l_orderkey", "l_partkey", "l_suppkey",
                             "l_extendedprice", "l_discount"])

    def li_side(batch: pa.Table) -> pa.Table:
        ks, tgt = ray.get(supp_ref)
        probe = batch["l_suppkey"].to_numpy(
            zero_copy_only=False).astype(np.int64)
        pos = np.clip(np.searchsorted(ks, probe), 0, max(len(ks) - 1, 0))
        is_tgt = tgt[pos] & (ks[pos] == probe) if len(ks) \
            else np.zeros(len(probe), bool)
        n = batch.num_rows
        return pa.table({"key": pc.cast(batch["l_partkey"], pa.int64()),
                         "o_orderkey": pc.cast(batch["l_orderkey"],
                                               pa.int64()),
                         "is_tgt": pa.array(is_tgt),
                         "revenue_e4": _rev_e4(batch),
                         "side": pa.array(["l"] * n)})

    part = read_table(sf_dir, "part", columns=["p_partkey", "p_type"])

    def part_side(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.equal(batch["p_type"], "PROMO"))
        n = b.num_rows
        return pa.table({"key": pc.cast(b["p_partkey"], pa.int64()),
                         "o_orderkey": pa.nulls(n, pa.int64()),
                         "is_tgt": pa.nulls(n, pa.bool_()),
                         "revenue_e4": pa.nulls(n, pa.int64()),
                         "side": pa.array(["p"] * n)})

    def join1(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == "l"][["key", "o_orderkey", "is_tgt",
                                    "revenue_e4"]]
        pkeys = set(g.loc[g["side"] == "p", "key"])
        m = left[left["key"].isin(pkeys)]
        if m.empty:
            return pd.DataFrame({
                "key": pd.Series([], dtype="int64"),
                "num_e4": pd.Series([], dtype="int64"),
                "den_e4": pd.Series([], dtype="int64")})
        m = m.assign(num_e4=m["revenue_e4"].where(
            m["is_tgt"].astype(bool), 0))
        out = (m.groupby("o_orderkey", as_index=False)
               .agg(num_e4=("num_e4", "sum"), den_e4=("revenue_e4", "sum")))
        return pd.DataFrame({"key": out["o_orderkey"].astype("int64"),
                             "num_e4": out["num_e4"].astype("int64"),
                             "den_e4": out["den_e4"].astype("int64")})

    fact1 = _tagged_union_join(
        li.map_batches(li_side, batch_format="pyarrow"),
        part.map_batches(part_side, batch_format="pyarrow"),
        "key", join1)

    orders = read_table(sf_dir, "orders",
                        columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def ord_side(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.and_(pc.greater_equal(batch["o_orderdate"], lo),
                                 pc.less(batch["o_orderdate"], hi)))
        n = b.num_rows
        return pa.table({"key": pc.cast(b["o_orderkey"], pa.int64()),
                         "o_custkey": pc.cast(b["o_custkey"], pa.int64()),
                         "o_year": pc.cast(pc.year(b["o_orderdate"]),
                                           pa.int64()),
                         "num_e4": pa.nulls(n, pa.int64()),
                         "den_e4": pa.nulls(n, pa.int64()),
                         "side": pa.array(["o"] * n)})

    def fact1_side(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({"key": batch["key"],
                         "o_custkey": pa.nulls(n, pa.int64()),
                         "o_year": pa.nulls(n, pa.int64()),
                         "num_e4": batch["num_e4"],
                         "den_e4": batch["den_e4"],
                         "side": pa.array(["f"] * n)})

    def join2(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == "f"][["key", "num_e4", "den_e4"]]
        right = g[g["side"] == "o"][["key", "o_custkey", "o_year"]]
        m = left.merge(right, on="key", how="inner")
        if m.empty:
            return pd.DataFrame({
                "key": pd.Series([], dtype="int64"),
                "o_year": pd.Series([], dtype="int64"),
                "num_e4": pd.Series([], dtype="int64"),
                "den_e4": pd.Series([], dtype="int64")})
        out = (m.groupby(["o_custkey", "o_year"], as_index=False)
               [["num_e4", "den_e4"]].sum())
        return pd.DataFrame({"key": out["o_custkey"].astype("int64"),
                             "o_year": out["o_year"].astype("int64"),
                             "num_e4": out["num_e4"].astype("int64"),
                             "den_e4": out["den_e4"].astype("int64")})

    fact2 = _tagged_union_join(
        fact1.map_batches(fact1_side, batch_format="pyarrow"),
        orders.map_batches(ord_side, batch_format="pyarrow"),
        "key", join2)

    cust = read_table(sf_dir, "customer",
                      columns=["c_custkey", "c_nationkey"])

    def cust_side(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.is_in(pc.cast(batch["c_nationkey"], pa.int64()),
                                  value_set=pa.array(asia_nk, pa.int64())))
        n = b.num_rows
        return pa.table({"key": pc.cast(b["c_custkey"], pa.int64()),
                         "o_year": pa.nulls(n, pa.int64()),
                         "num_e4": pa.nulls(n, pa.int64()),
                         "den_e4": pa.nulls(n, pa.int64()),
                         "side": pa.array(["c"] * n)})

    def fact2_side(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({"key": batch["key"], "o_year": batch["o_year"],
                         "num_e4": batch["num_e4"],
                         "den_e4": batch["den_e4"],
                         "side": pa.array(["f"] * n)})

    def join3(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == "f"][["key", "o_year", "num_e4", "den_e4"]]
        ckeys = set(g.loc[g["side"] == "c", "key"])
        m = left[left["key"].isin(ckeys)]
        if m.empty:
            return pd.DataFrame({
                "o_year": pd.Series([], dtype="int64"),
                "target_e4": pd.Series([], dtype="int64"),
                "total_e4": pd.Series([], dtype="int64")})
        out = (m.groupby("o_year", as_index=False)
               .agg(target_e4=("num_e4", "sum"), total_e4=("den_e4", "sum")))
        return out.astype({"o_year": "int64", "target_e4": "int64",
                           "total_e4": "int64"})

    parts = _tagged_union_join(
        fact2.map_batches(fact2_side, batch_format="pyarrow"),
        cust.map_batches(cust_side, batch_format="pyarrow"),
        "key", join3)
    final = merge_partials(parts, ["o_year"],
                           {"target_e4": "sum", "total_e4": "sum"})
    if final.empty:
        return pd.DataFrame({"o_year": pd.Series([], dtype="int64"),
                             "target_e4": pd.Series([], dtype="int64"),
                             "total_e4": pd.Series([], dtype="int64")})
    for c in final.columns:
        final[c] = final[c].astype("int64")
    return final.sort_values("o_year").reset_index(drop=True)


def q_q9_profit_by_nation(sf_dir: str):
    """TPC-H Q9 shape — PRODUCT-TYPE PROFIT by supplier nation and
    order year, for parts whose name contains 'widget'. The testdata
    schema has no partsupp, so unit cost is adapted to p_retailprice
    (documented substitution; the operator shape — two chained
    large-large joins with an arithmetic measure combining columns
    from three tables — is unchanged). profit_e4 = rev_e4 −
    retail_c·100·qty, exact integers. Plan: supplier nationkey
    broadcast-probed into lineitem; name-filtered part joined on
    partkey via the tagged-union bucketed join (attaching retail_c);
    order year via a second bucketed join on orderkey; final group
    key (nationkey, year) is bounded (25 × ~7) so the last merge is
    driver-side."""
    nat = read_local(sf_dir, "nation")
    nk_name = dict(zip(nat["n_nationkey"].astype(int), nat["n_name"]))

    supp = read_local(sf_dir, "supplier",
                      columns=["s_suppkey", "s_nationkey"])
    order_idx = np.argsort(supp["s_suppkey"].to_numpy())
    sk_sorted = supp["s_suppkey"].to_numpy().astype(np.int64)[order_idx]
    snk_sorted = supp["s_nationkey"].to_numpy().astype(np.int64)[order_idx]
    supp_ref = ray.put((sk_sorted, snk_sorted))

    li = read_table(sf_dir, "lineitem",
                    columns=["l_orderkey", "l_partkey", "l_suppkey",
                             "l_quantity", "l_extendedprice", "l_discount"])

    def li_side(batch: pa.Table) -> pa.Table:
        ks, nks = ray.get(supp_ref)
        probe = batch["l_suppkey"].to_numpy(
            zero_copy_only=False).astype(np.int64)
        pos = np.clip(np.searchsorted(ks, probe), 0, max(len(ks) - 1, 0))
        snk = np.where(ks[pos] == probe, nks[pos], -1) if len(ks) \
            else np.full(len(probe), -1, np.int64)
        n = batch.num_rows
        return pa.table({"key": pc.cast(batch["l_partkey"], pa.int64()),
                         "o_orderkey": pc.cast(batch["l_orderkey"],
                                               pa.int64()),
                         "s_nationkey": pa.array(snk, pa.int64()),
                         "qty": pc.cast(pc.round(batch["l_quantity"]),
                                        pa.int64()),
                         "rev_e4": _rev_e4(batch),
                         "retail_c": pa.nulls(n, pa.int64()),
                         "side": pa.array(["l"] * n)})

    part = read_table(sf_dir, "part",
                      columns=["p_partkey", "p_name", "p_retailprice"])

    def part_side(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.match_substring(batch["p_name"], "widget"))
        n = b.num_rows
        return pa.table({"key": pc.cast(b["p_partkey"], pa.int64()),
                         "o_orderkey": pa.nulls(n, pa.int64()),
                         "s_nationkey": pa.nulls(n, pa.int64()),
                         "qty": pa.nulls(n, pa.int64()),
                         "rev_e4": pa.nulls(n, pa.int64()),
                         "retail_c": pc.cast(pc.round(pc.multiply(
                             b["p_retailprice"], 100.0)), pa.int64()),
                         "side": pa.array(["p"] * n)})

    def join1(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == "l"][["key", "o_orderkey", "s_nationkey",
                                    "qty", "rev_e4"]]
        right = g[g["side"] == "p"][["key", "retail_c"]]
        m = left.merge(right, on="key", how="inner")
        if m.empty:
            return pd.DataFrame({
                "key": pd.Series([], dtype="int64"),
                "s_nationkey": pd.Series([], dtype="int64"),
                "profit_e4": pd.Series([], dtype="int64")})
        m = m.assign(profit_e4=m["rev_e4"] - m["retail_c"] * 100 * m["qty"])
        out = (m.groupby(["o_orderkey", "s_nationkey"], as_index=False)
               ["profit_e4"].sum())
        return pd.DataFrame({"key": out["o_orderkey"].astype("int64"),
                             "s_nationkey": out["s_nationkey"].astype("int64"),
                             "profit_e4": out["profit_e4"].astype("int64")})

    fact1 = _tagged_union_join(
        li.map_batches(li_side, batch_format="pyarrow"),
        part.map_batches(part_side, batch_format="pyarrow"),
        "key", join1)

    orders = read_table(sf_dir, "orders",
                        columns=["o_orderkey", "o_orderdate"])

    def ord_side(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({"key": pc.cast(batch["o_orderkey"], pa.int64()),
                         "o_year": pc.cast(pc.year(batch["o_orderdate"]),
                                           pa.int64()),
                         "s_nationkey": pa.nulls(n, pa.int64()),
                         "profit_e4": pa.nulls(n, pa.int64()),
                         "side": pa.array(["o"] * n)})

    def fact_side(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({"key": batch["key"],
                         "o_year": pa.nulls(n, pa.int64()),
                         "s_nationkey": batch["s_nationkey"],
                         "profit_e4": batch["profit_e4"],
                         "side": pa.array(["f"] * n)})

    def join2(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == "f"][["key", "s_nationkey", "profit_e4"]]
        right = g[g["side"] == "o"][["key", "o_year"]]
        m = left.merge(right, on="key", how="inner")
        if m.empty:
            return pd.DataFrame({
                "s_nationkey": pd.Series([], dtype="int64"),
                "o_year": pd.Series([], dtype="int64"),
                "profit_e4": pd.Series([], dtype="int64")})
        return (m.groupby(["s_nationkey", "o_year"], as_index=False)
                ["profit_e4"].sum())

    parts = _tagged_union_join(
        fact1.map_batches(fact_side, batch_format="pyarrow"),
        orders.map_batches(ord_side, batch_format="pyarrow"),
        "key", join2)
    final = merge_partials(parts, ["s_nationkey", "o_year"], {
                                                              "profit_e4": "sum"})
    if final.empty:
        return pd.DataFrame({"n_name": pd.Series([], dtype="object"),
                             "o_year": pd.Series([], dtype="int64"),
                             "profit_e4": pd.Series([], dtype="int64")})
    final["n_name"] = final["s_nationkey"].map(nk_name)
    final["o_year"] = final["o_year"].astype("int64")
    final["profit_e4"] = final["profit_e4"].astype("int64")
    return (final[["n_name", "o_year", "profit_e4"]]
            .sort_values(["n_name", "o_year"], ascending=[True, False])
            .reset_index(drop=True))


def q_q21_waiting_suppliers(sf_dir: str, k: int = 10):
    """TPC-H Q21 shape — GROUPED EXISTS / NOT-EXISTS over a self-join:
    suppliers who were the SOLE 'problem' supplier on a multi-supplier
    finished order. Adapted lateness predicate: the testdata lineitem
    has no commit/receipt dates, so 'problem line' := l_returnflag='R'
    (documented substitution; the operator shape — per-order analysis
    requiring ≥2 distinct suppliers and exactly one with the flag —
    is Q21's). Plan: lineitem combines map-side to one row per
    (orderkey, suppkey) carrying any_r; the tagged-union bucketed join
    on orderkey brings in status-'F' order keys; per-order
    qualification is a vectorized per-bucket groupby (size + flag
    sum); per-supplier counts merge in Ray; partial top-k; the ≤k
    winners read s_name via predicate pushdown."""
    li = read_table(sf_dir, "lineitem",
                    columns=["l_orderkey", "l_suppkey", "l_returnflag"])

    def li_side(batch: pa.Table) -> pa.Table:
        t = pa.table({"key": pc.cast(batch["l_orderkey"], pa.int64()),
                      "suppkey": pc.cast(batch["l_suppkey"], pa.int64()),
                      "any_r": pc.cast(pc.equal(batch["l_returnflag"], "R"),
                                       pa.int64())})
        g = t.group_by(["key", "suppkey"]).aggregate([("any_r", "max")])
        g = g.rename_columns(["key", "suppkey", "any_r"])
        return pa.table({"key": g["key"], "suppkey": g["suppkey"],
                         "any_r": g["any_r"],
                         "side": pa.array(["l"] * g.num_rows)})

    orders = read_table(sf_dir, "orders",
                        columns=["o_orderkey", "o_orderstatus"])

    def ord_side(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.equal(batch["o_orderstatus"], "F"))
        n = b.num_rows
        return pa.table({"key": pc.cast(b["o_orderkey"], pa.int64()),
                         "suppkey": pa.nulls(n, pa.int64()),
                         "any_r": pa.nulls(n, pa.int64()),
                         "side": pa.array(["o"] * n)})

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == "l"][["key", "suppkey", "any_r"]]
        okeys = set(g.loc[g["side"] == "o", "key"])
        m = left[left["key"].isin(okeys)]
        if m.empty:
            return pd.DataFrame({"s_suppkey": pd.Series([], dtype="int64"),
                                 "numwait": pd.Series([], dtype="int64")})
        # the map-side combine is per BATCH, so a (key, suppkey) pair
        # split across batches arrives as several rows — re-combine
        # before counting distinct suppliers per order
        m = m.groupby(["key", "suppkey"], as_index=False)["any_r"].max()
        st = m.groupby("key").agg(nsupp=("suppkey", "size"),
                                  nr=("any_r", "sum"))
        ok = st[(st["nsupp"] >= 2) & (st["nr"] == 1)].index
        w = m[m["key"].isin(ok) & (m["any_r"] == 1)]
        if w.empty:
            return pd.DataFrame({"s_suppkey": pd.Series([], dtype="int64"),
                                 "numwait": pd.Series([], dtype="int64")})
        out = w.groupby("suppkey", as_index=False).size()
        return pd.DataFrame({"s_suppkey": out["suppkey"].astype("int64"),
                             "numwait": out["size"].astype("int64")})

    per_supp = merge_partials_ray(
        _tagged_union_join(li.map_batches(li_side, batch_format="pyarrow"),
                           orders.map_batches(ord_side,
                                              batch_format="pyarrow"),
                           "key", join_bucket),
        ["s_suppkey"], {"numwait": "sum"})
    agg = top_k(per_supp, [("numwait", "descending"),
                           ("s_suppkey", "ascending")], k)
    if agg.empty:
        return pd.DataFrame({"s_suppkey": pd.Series([], dtype="int64"),
                             "s_name": pd.Series([], dtype="object"),
                             "numwait": pd.Series([], dtype="int64")})
    win = read_local(
        sf_dir, "supplier",
        columns=["s_suppkey", "s_name"],
        filters=[("s_suppkey", "in", [int(x) for x in agg["s_suppkey"]])])
    agg = agg.merge(win, on="s_suppkey", how="left")
    return agg[["s_suppkey", "s_name", "numwait"]]


def q_events_hopping_window(sf_dir: str):
    """HOPPING (sliding) window aggregate — 2-hour windows every hour,
    so each event lands in exactly TWO overlapping windows (the
    streaming-window kind tumbling/session don't cover): the event is
    replicated to its two window starts VECTORIZED inside the batch
    (concat of two shifted columns — no per-row logic, 2× partial rows
    enter the combine, never 2× raw events through an exchange), then
    the standard combiner → Ray merge on the data-sized window
    domain."""
    ds = read_table(sf_dir, "events", columns=["ts", "value"])
    hour_us = 3_600_000_000

    def prep(batch: pa.Table) -> pa.Table:
        base = pc.cast(pc.floor_temporal(batch["ts"], unit="hour"),
                       pa.int64())
        v_c = pc.cast(pc.round(pc.multiply(batch["value"], 100.0)),
                      pa.int64())
        w = pa.chunked_array([base, pc.subtract(
            base, pa.scalar(hour_us, pa.int64()))])
        return pa.table({"window_start": pc.cast(w, pa.timestamp("us")),
                         "v_c": pa.chunked_array([v_c, v_c])})

    out = aggregate(ds, ["window_start"], {"n_events": ("v_c", "count"),
                                           "sum_value_c": ("v_c", "sum")},
                    prep, in_ray=True).to_pandas()
    return out.sort_values("window_start").reset_index(drop=True)


def q_hopping_distinct_users(sf_dir: str):
    """DISTINCT-over-sliding-window: distinct active users per
    overlapping 2-hour/1-hour-hop window (composes the hopping-window
    replication with the exact distributed distinct-count shape).
    Map side: events replicate to their two window starts and dedup
    to (window, user) pairs per batch; the pairs hash-bucket by
    (window, user) so the global dedup is per-bucket-local; per-window
    count partials merge in Ray. Raw events never cross an exchange
    twice — only deduped pair partials."""
    ds = read_table(sf_dir, "events", columns=["ts", "user_id"])
    hour_us = 3_600_000_000

    def pairs(batch: pa.Table) -> pa.Table:
        base = pc.cast(pc.floor_temporal(batch["ts"], unit="hour"),
                       pa.int64()).to_numpy(zero_copy_only=False)
        u = pc.cast(batch["user_id"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        # pack (hour index, user) into one int64 for a single
        # np.unique — hour index < 2^31 (fine past year 200k),
        # user_id < 2^32 (asserted; wider ids would switch the pack
        # to a (wh, u) lexsort-unique instead)
        assert not len(u) or int(u.max()) < (1 << 32)
        wh = np.concatenate([base // hour_us, base // hour_us - 1])
        uu = np.concatenate([u, u])
        key = np.unique(wh * np.int64(1 << 32) + uu)
        return pa.table({"w_us": pa.array((key >> 32) * hour_us),
                         "user_id": pa.array(key & ((1 << 32) - 1))})

    def count_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["w_us", "user_id"])
        return (d.groupby("w_us", as_index=False)
                .agg(n_users=("user_id", "size")))

    parts = map_buckets(ds.map_batches(pairs, batch_format="pyarrow"),
                        ["w_us", "user_id"], count_bucket)
    out = merge_partials_ray(parts, ["w_us"], {"n_users": "sum"}).to_pandas()
    out["window_start"] = pd.to_datetime(out.pop("w_us"), unit="us")
    out["n_users"] = out["n_users"].astype("int64")
    return out[["window_start", "n_users"]] \
        .sort_values("window_start").reset_index(drop=True)


def q_cube_order_counts(sf_dir: str):
    """GROUPING SETS / CUBE (rollup's complete lattice): order counts
    and totalprice cents at ALL FOUR levels of (priority, status) —
    (p,s), (p,ALL), (ALL,s), (ALL,ALL). The base key set is a bounded
    enum (5 priorities × 3 statuses), so the scan is a per-batch
    combine and the cube lattice is derived from the ≤15-row merged
    base on the driver — the frame, not the data, pays for the 4
    grouping sets."""
    ds = read_table(sf_dir, "orders",
                    columns=["o_orderpriority", "o_orderstatus",
                             "o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({"o_orderpriority": batch["o_orderpriority"],
                         "o_orderstatus": batch["o_orderstatus"],
                         "total_c": pc.cast(pc.round(pc.multiply(
                             batch["o_totalprice"], 100.0)), pa.int64())})

    base = aggregate(ds, ["o_orderpriority", "o_orderstatus"],
                     {"n_orders": ("total_c", "count"),
                      "total_c": ("total_c", "sum")}, prep)
    sums = ["n_orders", "total_c"]
    lvl_p = base.groupby("o_orderpriority", as_index=False)[sums].sum()
    lvl_p["o_orderstatus"] = "ALL"
    lvl_s = base.groupby("o_orderstatus", as_index=False)[sums].sum()
    lvl_s["o_orderpriority"] = "ALL"
    lvl_0 = pd.DataFrame({"o_orderpriority": ["ALL"],
                          "o_orderstatus": ["ALL"],
                          "n_orders": [base["n_orders"].sum()],
                          "total_c": [base["total_c"].sum()]})
    out = pd.concat([base, lvl_p[base.columns], lvl_s[base.columns],
                     lvl_0[base.columns]], ignore_index=True)
    return (out.sort_values(["o_orderpriority", "o_orderstatus"])
            .reset_index(drop=True))


def q_sessionize_events(sf_dir: str, session_gap_us: int = 28_800_000_000):
    """SESSIONIZATION (gaps-and-islands over inactivity): split each
    user's event stream into sessions wherever the inter-event gap
    exceeds the threshold, then emit one row per (user, session) with
    its event count and exact start/end microseconds — the classic
    web-analytics operator the reference's `elasticsearch` log views
    imply (crawl_worker logs grouped into per-worker activity bursts).
    Threshold 8h: the synthetic corpus's median inter-event gap is
    ~7.3h, so 8h yields multi-event sessions AND multi-session users
    (the real-web default would be 30min).

    Plan: one hash-bucket shuffle on user_id so each user's history
    lands wholly in one bucket; per bucket ONE sort + diff + cumsum
    over the flat frame assigns session ordinals (a user's first row
    always starts a session, so per-user ordinals are the global
    boundary cumsum minus the user's first boundary index — no
    per-user Python loop); session stats are a grouped min/max/size.
    Session boundaries depend on ts diffs only, so equal-ts tie order
    cannot change the output (the SQL twin needs no total order)."""
    ds = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id"])

    def to_us(batch: pa.Table) -> pa.Table:
        return pa.table({"user_id": pc.cast(batch["user_id"], pa.int64()),
                         "ts_us": pc.cast(batch["ts"], pa.int64())})

    def sessions_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts_us"])
        u = g["user_id"].to_numpy()
        t = g["ts_us"].to_numpy()
        if not len(u):
            return pd.DataFrame({"user_id": [], "session_id": [],
                                 "n_events": [], "start_us": [],
                                 "end_us": []})
        gap = np.diff(t, prepend=t[:1])
        same = np.concatenate([[False], u[1:] == u[:-1]])
        new = (~same) | (gap > session_gap_us)
        sid_global = np.cumsum(new) - 1
        # first row of each user is always a boundary -> subtracting
        # the user's first global sid yields the per-user ordinal
        base = np.where(~same, sid_global, 0)
        np.maximum.accumulate(base, out=base)
        sid = sid_global - base
        out = pd.DataFrame({"user_id": u, "session_id": sid, "ts_us": t})
        res = out.groupby(["user_id", "session_id"], as_index=False).agg(
            n_events=("ts_us", "size"), start_us=("ts_us", "min"),
            end_us=("ts_us", "max"))
        return res.astype({"user_id": "int64", "session_id": "int64",
                           "n_events": "int64", "start_us": "int64",
                           "end_us": "int64"})

    out = (map_buckets(ds.map_batches(to_us, batch_format="pyarrow"),
                       ["user_id"], sessions_bucket)
           .to_pandas())
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return (out.sort_values(["user_id", "session_id"])
            .reset_index(drop=True))


def q_events_lag_gaps(sf_dir: str, long_gap_us: int = 3_600_000_000):
    """LAG WINDOW FUNCTION per partition: inter-event gap per user
    (ordered by ts, event_id) — the per-user max gap and the count of
    gaps over an hour pin every individual LAG value, not just the
    telescoped sum. Plan: ts is cast to integer microseconds in Arrow
    (exact, engine-independent), rows bucket by user hash so each
    user's history lands wholly in one bucket, and the gap vector is
    ONE diff over the bucket-sorted frame with a same-user mask — no
    per-user Python loop."""
    ds = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id"])

    def to_us(batch: pa.Table) -> pa.Table:
        return pa.table({"user_id": pc.cast(batch["user_id"], pa.int64()),
                         "ts_us": pc.cast(batch["ts"], pa.int64()),
                         "event_id": pc.cast(batch["event_id"], pa.int64())})

    def gaps_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts_us", "event_id"])
        u = g["user_id"].to_numpy()
        t = g["ts_us"].to_numpy()
        d = np.diff(t, prepend=t[:1] if len(t) else 0)
        same = np.concatenate([[False], u[1:] == u[:-1]]) if len(u) \
            else np.zeros(0, bool)
        gap = np.where(same, d, 0)
        out = pd.DataFrame({"user_id": u, "gap": gap})
        res = out.groupby("user_id", as_index=False).agg(
            n_events=("gap", "size"), max_gap_us=("gap", "max"))
        res["n_long_gaps"] = out.assign(lg=(out["gap"] > long_gap_us)
                                        .astype(np.int64)) \
            .groupby("user_id")["lg"].sum().to_numpy()
        return res.astype({"user_id": "int64", "n_events": "int64",
                           "max_gap_us": "int64", "n_long_gaps": "int64"})

    out = (map_buckets(ds.map_batches(to_us, batch_format="pyarrow"),
                       ["user_id"], gaps_bucket)
           .to_pandas())
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def q_full_outer_nation_accounts(sf_dir: str):
    """FULL OUTER JOIN (completes the engine's join family: inner /
    left / semi / anti / as-of / range / broadcast): per-nationkey
    customer account stats vs supplier account stats, keeping nations
    present on EITHER side with zeros for the absent side (the
    supplier table covers far fewer nations than customer). Plan:
    both sides reduce to combiner partials first, then the
    tagged-union bucketed join runs a per-bucket OUTER pandas merge —
    each nationkey lands wholly in one bucket, so null-filling is
    exact."""
    cust = read_table(sf_dir, "customer",
                      columns=["c_nationkey", "c_acctbal"])

    def cust_partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"key": pc.cast(batch["c_nationkey"], pa.int64()),
                      "n_customers": pa.array(
                          np.ones(batch.num_rows, np.int64)),
                      "cust_bal_c": pc.cast(pc.round(pc.multiply(
                          batch["c_acctbal"], 100.0)), pa.int64())})
        g = t.group_by("key").aggregate([("n_customers", "sum"),
                                         ("cust_bal_c", "sum")])
        g = g.rename_columns(["key", "n_customers", "cust_bal_c"])
        return pa.table({"key": g["key"], "n_customers": g["n_customers"],
                         "cust_bal_c": g["cust_bal_c"],
                         "n_suppliers": pa.nulls(g.num_rows, pa.int64()),
                         "supp_bal_c": pa.nulls(g.num_rows, pa.int64()),
                         "side": pa.array(["c"] * g.num_rows)})

    supp = read_table(sf_dir, "supplier",
                      columns=["s_nationkey", "s_acctbal"])

    def supp_partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"key": pc.cast(batch["s_nationkey"], pa.int64()),
                      "n_suppliers": pa.array(
                          np.ones(batch.num_rows, np.int64)),
                      "supp_bal_c": pc.cast(pc.round(pc.multiply(
                          batch["s_acctbal"], 100.0)), pa.int64())})
        g = t.group_by("key").aggregate([("n_suppliers", "sum"),
                                         ("supp_bal_c", "sum")])
        g = g.rename_columns(["key", "n_suppliers", "supp_bal_c"])
        return pa.table({"key": g["key"],
                         "n_customers": pa.nulls(g.num_rows, pa.int64()),
                         "cust_bal_c": pa.nulls(g.num_rows, pa.int64()),
                         "n_suppliers": g["n_suppliers"],
                         "supp_bal_c": g["supp_bal_c"],
                         "side": pa.array(["s"] * g.num_rows)})

    def outer_bucket(g: pd.DataFrame) -> pd.DataFrame:
        left = (g[g["side"] == "c"]
                .groupby("key", as_index=False)
                [["n_customers", "cust_bal_c"]].sum())
        right = (g[g["side"] == "s"]
                 .groupby("key", as_index=False)
                 [["n_suppliers", "supp_bal_c"]].sum())
        m = left.merge(right, on="key", how="outer").fillna(0)
        return pd.DataFrame({
            "n_nationkey": m["key"].astype("int64"),
            "n_customers": m["n_customers"].astype("int64"),
            "cust_bal_c": m["cust_bal_c"].astype("int64"),
            "n_suppliers": m["n_suppliers"].astype("int64"),
            "supp_bal_c": m["supp_bal_c"].astype("int64")})

    out = _tagged_union_join(
        cust.map_batches(cust_partial, batch_format="pyarrow"),
        supp.map_batches(supp_partial, batch_format="pyarrow"),
        "key", outer_bucket).to_pandas()
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("n_nationkey").reset_index(drop=True)


# quantile fractions as exact rationals: DuckDB quantile_disc picks
# the element at 0-based index ceil(q*n)-1; integer arithmetic
# ((a*n + b - 1)//b - 1) reproduces it without float q*n
def _type_cents(batch: pa.Table) -> pa.Table:
    """``prep``: each event's type and value in exact integer cents."""
    return pa.table({"event_type": batch["event_type"], "v_c": pc.cast(
        pc.round(pc.multiply(batch["value"], 100.0)), pa.int64())})


def _cents_histogram(ds: rd.Dataset) -> rd.Dataset:
    """(event_type, v_c, n): how many events of each type carry each
    value in cents, merged in Ray (the value set grows with the data).
    The exact order statistics below read it bucket by event type."""
    return aggregate(ds, ["event_type", "v_c"], {"n": ("v_c", "count")},
                     _type_cents, in_ray=True)


_QUANTILES = (("p25_c", 1, 4), ("p50_c", 1, 2),
              ("p75_c", 3, 4), ("p95_c", 19, 20))


def q_quantiles_value_per_type(sf_dir: str):
    """Exact distributed QUANTILE VECTOR per group (p25/p50/p75/p95)
    without a global sort — the median machinery generalized: the
    integer-cent value domain makes per-batch (group, value) counts a
    complete sufficient statistic, so every quantile is a cumsum
    lookup in the domain-sized merged count table."""
    ds = read_table(sf_dir, "events", columns=["event_type", "value"])

    merged = _cents_histogram(ds)

    def quant_bucket(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, grp in g.groupby("event_type", sort=False):
            grp = grp.sort_values("v_c")
            n = int(grp["n"].sum())
            cum = grp["n"].cumsum().to_numpy()
            vals = grp["v_c"].to_numpy()
            row = {"event_type": et, "n_events": n}
            for col, a, b in _QUANTILES:
                idx = max(0, (a * n + b - 1) // b - 1)
                row[col] = int(vals[np.searchsorted(cum, idx + 1)])
            rows.append(row)
        return pd.DataFrame(rows)

    out = (map_buckets(merged, ["event_type"], quant_bucket)
           .to_pandas())
    return out.sort_values("event_type").reset_index(drop=True)


def q_winsorize_value(sf_dir: str):
    """Per-group QUANTILE WINSORIZATION (outlier clipping, the
    data-cleaning normalizer): every event's value clipped to its
    type's [p05, p95] — exact quantile_disc bounds from the
    domain-sized count-table plan (no global sort), the enum-sized
    (type → lo, hi) table broadcast once, then one vectorized clip
    pass. Two reads of the input, zero data-sized driver state."""
    import ray as _ray

    ds = read_table(sf_dir, "events",
                    columns=["event_id", "event_type", "value"])

    merged = _cents_histogram(ds)

    def bounds_bucket(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, grp in g.groupby("event_type", sort=False):
            grp = grp.sort_values("v_c")
            n = int(grp["n"].sum())
            cum = grp["n"].cumsum().to_numpy()
            vals = grp["v_c"].to_numpy()
            pick = lambda a, b: int(vals[np.searchsorted(
                cum, max(0, (a * n + b - 1) // b - 1) + 1)])
            rows.append({"event_type": et,
                         "lo": pick(1, 20), "hi": pick(19, 20)})
        return pd.DataFrame(rows)

    bounds = (map_buckets(merged, ["event_type"], bounds_bucket)
              .to_pandas())  # enum-sized: one row per event type
    bmap = {r.event_type: (int(r.lo), int(r.hi))
            for r in bounds.itertuples()}
    bref = _ray.put(bmap)

    def clip(batch: pa.Table) -> pa.Table:
        bm = _ray.get(bref)
        enc = pc.dictionary_encode(batch["event_type"].combine_chunks())
        dvals = enc.dictionary.to_pylist()  # enum-sized lookup only
        lo_d = np.array([bm[e][0] for e in dvals], np.int64)
        hi_d = np.array([bm[e][1] for e in dvals], np.int64)
        idx = enc.indices.to_numpy(zero_copy_only=False)
        v_c = pc.cast(pc.round(pc.multiply(batch["value"], 100.0)),
                      pa.int64()).to_numpy(zero_copy_only=False)
        out = np.clip(v_c, lo_d[idx], hi_d[idx])
        return pa.table({"event_id": batch["event_id"],
                         "event_type": batch["event_type"],
                         "value_clip_c": pa.array(out)})

    return ds.map_batches(clip, batch_format="pyarrow")


def q_distinct_users_per_type(sf_dir: str):
    """Exact PER-GROUP COUNT DISTINCT, distributed (the grouped form
    of g6): per-batch (event_type, user_id) pair dedup (map-side
    combine — repeated pairs never enter the exchange), bucket by the
    pair hash so each pair lands wholly in one bucket, per-bucket
    global dedup + per-type partial counts, tiny enum-keyed final
    merge. The driver never sees a user id."""
    ds = read_table(sf_dir, "events", columns=["event_type", "user_id"])

    def pair_dedup(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["event_type", "user_id"]).aggregate([])
        return g

    def count_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["event_type", "user_id"])
        out = g.groupby("event_type", as_index=False).size()
        return out.rename(columns={"size": "n_users"})

    partials = map_buckets(ds.map_batches(pair_dedup, batch_format="pyarrow"),
                           ["event_type", "user_id"], count_bucket)
    out = merge_partials(partials, ["event_type"], {"n_users": "sum"})
    out["n_users"] = out["n_users"].astype("int64")
    return out.reset_index(drop=True)


def q_median_value_per_type(sf_dir: str):
    """Exact DISTRIBUTED MEDIAN per group WITHOUT a global sort: the
    value domain is integer cents (bounded), so per-batch
    (event_type, v_c) counts are the combiner, the merged count table
    is domain-sized, and the median falls out of a per-type cumsum at
    index (n-1)//2 — the quantile_disc convention. Same shape scales
    to any quantile vector; only counts cross the exchange."""
    ds = read_table(sf_dir, "events", columns=["event_type", "value"])

    merged = _cents_histogram(ds)

    def median_bucket(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, grp in g.groupby("event_type", sort=False):
            grp = grp.sort_values("v_c")
            n = int(grp["n"].sum())
            cum = grp["n"].cumsum().to_numpy()
            idx = (n - 1) // 2
            med = int(grp["v_c"].to_numpy()[np.searchsorted(cum, idx + 1)])
            rows.append({"event_type": et, "n_events": n,
                         "median_value_c": med})
        return pd.DataFrame(rows)

    out = (map_buckets(merged, ["event_type"], median_bucket)
           .to_pandas())
    return out.sort_values("event_type").reset_index(drop=True)


def q_median_cont_value_per_type(sf_dir: str):
    """INTERPOLATED (percentile_cont) median per group, exactly: the
    two middle order statistics at indices (n-1)//2 and n//2 are
    picked from the same domain-sized count-table plan as the
    discrete median, and the gate column is their SUM (med2x_c =
    2×median in cents — integer, so no ½ ever touches a float). For
    odd n the indices coincide and the value doubles. Only counts
    cross the exchange; no global sort."""
    ds = read_table(sf_dir, "events", columns=["event_type", "value"])

    merged = _cents_histogram(ds)

    def pick_bucket(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, grp in g.groupby("event_type", sort=False):
            grp = grp.sort_values("v_c")
            n = int(grp["n"].sum())
            cum = grp["n"].cumsum().to_numpy()
            vals = grp["v_c"].to_numpy()
            lo = int(vals[np.searchsorted(cum, (n - 1) // 2 + 1)])
            hi = int(vals[np.searchsorted(cum, n // 2 + 1)])
            rows.append({"event_type": et, "n_events": n,
                         "med2x_c": lo + hi})
        return pd.DataFrame(rows)

    out = (map_buckets(merged, ["event_type"], pick_bucket)
           .to_pandas())
    return out.sort_values("event_type").reset_index(drop=True)


def q_weighted_median_chars(sf_dir: str):
    """WEIGHTED MEDIAN per group (lower-median convention): the doc
    length L per source such that ≥50% of the source's total
    characters live in docs of length ≤ L — 'the median byte's
    document length', a curriculum/packing statistic. Extends the
    distributed-median count-table plan with weights: per-batch
    (source, n_chars) weight-sum combiner, domain-sized bucketed
    merge, per-source cumsum pick at 2·cumw ≥ totw. Exact integers
    throughout; only (group, value, weight) partials cross the
    exchange."""
    ds = read_table(sf_dir, "documents", columns=["source", "n_chars"])

    merged = aggregate(ds, ["source", "n_chars"], {"w": ("n_chars", "sum")},
                       in_ray=True)

    def wmedian_bucket(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for src, grp in g.groupby("source", sort=False):
            grp = grp.sort_values("n_chars")
            w = grp["w"].to_numpy(dtype=np.int64)
            cum = np.cumsum(w)
            tot = int(cum[-1])
            idx = int(np.searchsorted(cum * 2, tot))
            rows.append({"source": src,
                         "wmedian_chars":
                             int(grp["n_chars"].to_numpy()[idx])})
        return pd.DataFrame(rows)

    out = (map_buckets(merged, ["source"], wmedian_bucket)
           .to_pandas())
    return out.sort_values("source").reset_index(drop=True)


def q_mode_chars_per_source(sf_dir: str):
    """Grouped MODE (most frequent value) with deterministic
    tie-break (count desc, value asc): per-batch (source, n_chars)
    count combiner, bucketed merge over the pair domain, per-source
    vectorized argmax. Only (group, value, count) partials cross the
    exchange — never rows — so the plan is bounded by the value
    domain exactly like the distributed-median family."""
    ds = read_table(sf_dir, "documents", columns=["source", "n_chars"])

    merged = aggregate(ds, ["source", "n_chars"], {"n": ("n_chars", "count")},
                       in_ray=True)

    def mode_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["source", "n", "n_chars"],
                          ascending=[True, False, True])
        out = g.drop_duplicates("source", keep="first")
        return out.rename(columns={"n_chars": "mode_chars",
                                   "n": "n_mode"})[
            ["source", "mode_chars", "n_mode"]]

    out = (map_buckets(merged, ["source"], mode_bucket)
           .to_pandas())
    return out.sort_values("source").reset_index(drop=True)


def _set_op_users(sf_dir: str, keep_right: bool, min_cents: int = 9500):
    """Shared plan for INTERSECT / EXCEPT over distinct user sets
    (left = users with a high-value 'click', right = users with a
    high-value 'purchase'; the value floor keeps both sets proper
    subsets so the ops are non-degenerate): per-batch distinct
    (user_id, side) flag partials, bucketed merge keyed on user_id
    (presence = sum > 0), vectorized set filter per bucket. The
    driver never holds a user set; output is the result rows only."""
    ds = read_table(sf_dir, "events",
                    columns=["user_id", "event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        et = batch["event_type"]
        v_c = pc.cast(pc.round(pc.multiply(batch["value"], 100.0)),
                      pa.int64())
        keep = pc.and_(
            pc.or_(pc.equal(et, "click"), pc.equal(et, "purchase")),
            pc.greater(v_c, min_cents))
        t = batch.filter(keep)
        in_click = pc.cast(pc.equal(t["event_type"], "click"), pa.int64())
        return pa.table({"user_id": t["user_id"], "in_click": in_click,
                         "in_purch": pc.subtract(pa.scalar(1, pa.int64()),
                                                 in_click)})

    merged = aggregate(ds, ["user_id"], {"in_click": ("in_click", "max"),
                                         "in_purch": ("in_purch", "max")},
                       prep, in_ray=True)

    def pick(batch: pa.Table) -> pa.Table:
        lhs = pc.greater(batch["in_click"], 0)
        rhs = pc.greater(batch["in_purch"], 0)
        mask = pc.and_(lhs, rhs) if keep_right else \
            pc.and_(lhs, pc.invert(rhs))
        return batch.filter(mask).select(["user_id"])

    out = merged.map_batches(pick, batch_format="pyarrow").to_pandas()
    if out.empty:
        out = pd.DataFrame({"user_id": pd.Series([], dtype="int64")})
    return out.sort_values("user_id").reset_index(drop=True)


def q_intersect_users(sf_dir: str):
    """Set op INTERSECT: distinct user_ids with at least one
    high-value 'click' AND at least one high-value 'purchase' event
    (one pass, no self-join)."""
    return _set_op_users(sf_dir, keep_right=True)


def q_except_users(sf_dir: str):
    """Set op EXCEPT: distinct user_ids with a high-value 'click'
    but NO high-value 'purchase' event (one pass, no anti-join
    materialization)."""
    return _set_op_users(sf_dir, keep_right=False)


def q_value_outliers_mad(sf_dir: str):
    """Robust OUTLIER DETECTION per group — median / MAD (median
    absolute deviation) in exact integer cents, outliers = values
    with |v − med| > 3·MAD. Extends the distributed-median plan: the
    same domain-sized (event_type, v_c) count table yields the median
    by cumsum pick at (n−1)//2 (quantile_disc convention), the
    absolute-deviation count table is derived IN the bucket (counts
    re-grouped by |v−med|), MAD falls out of a second cumsum pick,
    and the outlier count is one masked sum — only counts ever cross
    the exchange, never raw events."""
    ds = read_table(sf_dir, "events", columns=["event_type", "value"])

    merged = _cents_histogram(ds)

    def _disc_pick(vals: np.ndarray, cnts: np.ndarray) -> int:
        order = np.argsort(vals)
        vals, cnts = vals[order], cnts[order]
        n = int(cnts.sum())
        cum = np.cumsum(cnts)
        return int(vals[np.searchsorted(cum, (n - 1) // 2 + 1)])

    def mad_bucket(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, grp in g.groupby("event_type", sort=False):
            v = grp["v_c"].to_numpy()
            n_ = grp["n"].to_numpy()
            med = _disc_pick(v, n_)
            ad = np.abs(v - med)
            adf = pd.DataFrame({"ad": ad, "n": n_}) \
                .groupby("ad", as_index=False)["n"].sum()
            mad = _disc_pick(adf["ad"].to_numpy(), adf["n"].to_numpy())
            rows.append({"event_type": et, "n_events": int(n_.sum()),
                         "median_value_c": med, "mad_c": mad,
                         "n_outliers": int(n_[ad > 3 * mad].sum())})
        return pd.DataFrame(rows)

    out = (map_buckets(merged, ["event_type"], mad_bucket)
           .to_pandas())
    return out.sort_values("event_type").reset_index(drop=True)


def q_part_pareto_frontier(sf_dir: str):
    """SKYLINE / PARETO-FRONTIER query per brand: parts not dominated
    on (price, size) — s dominates r iff s is ≤ on both and < on at
    least one (minimize both). Duplicated points survive together
    (neither strictly dominates).

    Scale shape: brands hash-bucket (each brand wholly in one
    bucket); inside a bucket the 2-D skyline is VECTORIZED — sort by
    (brand, price, size), per-(brand, price) min size, prefix-cummin
    of that over the brand's price groups, two comparisons. No
    pairwise dominance test (the SQL twin's NOT EXISTS is the
    quadratic formulation, valid at gate scale)."""
    ds = read_table(sf_dir, "part",
                    columns=["p_partkey", "p_brand", "p_retailprice",
                             "p_size"])

    def to_c(batch: pa.Table) -> pa.Table:
        return pa.table({
            "p_partkey": pc.cast(batch["p_partkey"], pa.int64()),
            "p_brand": batch["p_brand"],
            "price_c": pc.cast(pc.round(pc.multiply(
                batch["p_retailprice"], 100.0)), pa.int64()),
            "p_size": pc.cast(batch["p_size"], pa.int64())})

    def skyline_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["p_brand", "price_c", "p_size"]) \
            .reset_index(drop=True)
        # min size within each (brand, price) group
        minz_bp = g.groupby(["p_brand", "price_c"], sort=False)["p_size"] \
            .transform("min")
        dominated_same_p = g["p_size"] > minz_bp
        # min size over all STRICTLY cheaper price groups of the brand
        bp = (g.groupby(["p_brand", "price_c"], as_index=False)
              ["p_size"].min().rename(columns={"p_size": "minz"}))
        bp["prevmin"] = (bp.groupby("p_brand", sort=False)["minz"]
                         .cummin().shift())
        first = ~bp["p_brand"].eq(bp["p_brand"].shift())
        bp.loc[first, "prevmin"] = np.nan
        g = g.merge(bp[["p_brand", "price_c", "prevmin"]],
                    on=["p_brand", "price_c"], how="left")
        dominated_cheaper = g["prevmin"].notna() & \
            (g["prevmin"] <= g["p_size"])
        out = g[~(dominated_same_p.to_numpy()
                  | dominated_cheaper.to_numpy())]
        return out[["p_partkey", "p_brand", "price_c", "p_size"]]

    out = (map_buckets(ds.map_batches(to_c, batch_format="pyarrow"),
                       ["p_brand"], skyline_bucket)
           .to_pandas())
    for c in ["p_partkey", "price_c", "p_size"]:
        out[c] = out[c].astype("int64")
    return out.sort_values("p_partkey").reset_index(drop=True)


# ----------------------------------------------------------------------
# oracle SQL (column names and rounding MUST match the fns above)
# ----------------------------------------------------------------------

def _hll_oracle_sql(p: int = 12) -> str:
    """DuckDB twin of the HLL sketch (functions/sketches.py): recompute
    stable_hash64(str(user_id)) per DISTINCT user via the shared SQL
    hash mirror, derive register index (top p bits) and rank (leading
    zeros of the sentinel-padded remainder + 1, via a binary-search
    msb chain — no float log2), take the per-register max, and emit
    the same exact-integer summaries (hll_zeros, hll_harmonic_e) plus
    the estimate with an expression tree kept IDENTICAL to
    HyperLogLog.estimate() so the IEEE doubles agree."""
    from ..functions.sqlmirror import stable_hash64_cte
    m = 1 << p
    S = 64 - p + 1                       # max rank; 2^(S-rank) >= 1
    alpha = 0.7213 / (1 + 1.079 / m)
    numer = alpha * m * m * float(1 << S)
    with_sql, last = stable_hash64_cte(
        "SELECT DISTINCT CAST(user_id AS VARCHAR) AS s FROM events",
        "s", {"h": 0})
    # rest = (h << p | 2^(p-1)) mod 2^64; msb via 6-step binary search
    sql = with_sql + (
        f", __rest AS (SELECT CAST(h >> {64 - p} AS BIGINT) AS idx, "
        f"CAST((CAST(h AS HUGEINT) * {1 << p}) % {1 << 64} AS UBIGINT) "
        f"| {1 << (p - 1)} AS x FROM {last})")
    prev, shift, msb_terms = "__rest", 32, []
    for k in range(6):
        t = f"t{k}"
        sql += (f", __m{k} AS (SELECT idx, "
                f"CASE WHEN x >= {1 << shift} THEN {shift} ELSE 0 END AS {t}, "
                f"x >> (CASE WHEN x >= {1 << shift} THEN {shift} ELSE 0 END) "
                f"AS x{''.join(f', {c}' for c in msb_terms)} FROM {prev})")
        msb_terms.append(t)
        prev = f"__m{k}"
        shift //= 2
    msb = " + ".join(msb_terms)
    sql += (
        f", __reg AS (SELECT idx, MAX(64 - ({msb})) AS r FROM {prev} "
        f"GROUP BY idx), "
        f"__agg AS (SELECT CAST({m} - count(*) AS BIGINT) AS hll_zeros, "
        f"CAST(sum(CAST(1 AS BIGINT) << ({S} - r)) AS BIGINT) "
        f"AS hll_harmonic_e FROM __reg), "
        f"__est AS (SELECT hll_zeros, hll_harmonic_e, "
        f"{numer!r} / CAST(CAST(hll_harmonic_e AS HUGEINT) + "
        f"CAST(hll_zeros AS HUGEINT) * {1 << S} AS DOUBLE) AS e0 FROM __agg) "
        f"SELECT CAST(floor(CASE WHEN e0 <= {2.5 * m!r} AND hll_zeros > 0 "
        f"THEN {m} * ln(CAST({m} AS DOUBLE) / hll_zeros) ELSE e0 END + 0.5) "
        f"AS BIGINT) AS approx_distinct, "
        f"(SELECT count(DISTINCT user_id) FROM events) AS exact_distinct, "
        f"hll_zeros, hll_harmonic_e FROM __est")
    return sql


def q_events_funnel(sf_dir: str):
    """Ordered FUNNEL analysis over the per-user event stream —
    view -> click -> purchase, each step's timestamp being the
    earliest qualifying event STRICTLY AFTER the previous step (the
    classic product-analytics funnel the Dataset API has no primitive
    for). Output is per-user (strong gate: every min-ts chain is
    pinned), missing steps filled with -1.

    Scale shape: rows prune to the three step types at the read, cast
    to integer microseconds in Arrow, and hash-bucket by user so each
    user's history lands wholly in one bucket; inside a bucket the
    whole chain is three vectorized groupby-min / merge / filter
    passes over the bucket frame — no per-user Python."""
    ds = read_table(sf_dir, "events", columns=["ts", "user_id",
                                               "event_type"])
    s1, s2, s3 = "view", "click", "purchase"

    def to_us(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.is_in(batch["event_type"],
                                  value_set=pa.array([s1, s2, s3])))
        return pa.table({"user_id": pc.cast(t["user_id"], pa.int64()),
                         "ts_us": pc.cast(t["ts"], pa.int64()),
                         "event_type": t["event_type"]})

    def funnel_bucket(g: pd.DataFrame) -> pd.DataFrame:
        v = (g[g["event_type"] == s1]
             .groupby("user_id", as_index=False)["ts_us"].min()
             .rename(columns={"ts_us": "view_us"}))
        c = g[g["event_type"] == s2].merge(v, on="user_id")
        c = (c[c["ts_us"] > c["view_us"]]
             .groupby("user_id", as_index=False)["ts_us"].min()
             .rename(columns={"ts_us": "click_us"}))
        p = g[g["event_type"] == s3].merge(c, on="user_id")
        p = (p[p["ts_us"] > p["click_us"]]
             .groupby("user_id", as_index=False)["ts_us"].min()
             .rename(columns={"ts_us": "purchase_us"}))
        out = (v.merge(c, on="user_id", how="left")
               .merge(p, on="user_id", how="left").fillna(-1))
        return out[["user_id", "view_us", "click_us", "purchase_us"]] \
            .astype("int64")

    out = (map_buckets(ds.map_batches(to_us, batch_format="pyarrow"),
                       ["user_id"], funnel_bucket)
           .to_pandas())
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def q_interval_coverage(sf_dir: str):
    """GAPS-AND-ISLANDS interval merge: each event spans
    [ts, ts + value minutes); overlapping spans per user merge, and
    the query reports merged-interval count and total covered time.
    Duration is exact integer micros — value has 2 decimals, so
    floor(value*100 + 0.5) * 600_000 us is the SAME IEEE expression
    in numpy and DuckDB (np.round's banker's rounding would diverge).

    Scale shape: users hash-bucket so every user's spans share a
    bucket; inside a bucket the island detection is one grouped
    cummax + shift over the (user, start, end)-sorted frame — island
    ids and the per-island aggregates are invariant to tie order, so
    engine and oracle agree without a total order."""
    ds = read_table(sf_dir, "events", columns=["ts", "user_id", "value"])

    def to_iv(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        dur = np.floor(v * 100.0 + 0.5).astype(np.int64) * 600_000
        s = pc.cast(batch["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"user_id": pc.cast(batch["user_id"], pa.int64()),
                         "s": pa.array(s), "e": pa.array(s + dur)})

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "s", "e"]).reset_index(drop=True)
        pmax = g.groupby("user_id", sort=False)["e"].cummax().shift()
        first = ~g["user_id"].eq(g["user_id"].shift())
        isl = (first | (g["s"] > pmax)).cumsum()
        islands = (pd.DataFrame({"user_id": g["user_id"], "isl": isl,
                                 "s": g["s"], "e": g["e"]})
                   .groupby(["user_id", "isl"], as_index=False)
                   .agg(ms=("s", "min"), me=("e", "max")))
        islands["cov"] = islands["me"] - islands["ms"]
        return (islands.groupby("user_id", as_index=False)
                .agg(n_intervals=("isl", "size"), covered_us=("cov", "sum")))

    out = (map_buckets(ds.map_batches(to_iv, batch_format="pyarrow"),
                       ["user_id"], merge_bucket)
           .to_pandas())
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def q_cohort_retention(sf_dir: str):
    """COHORT RETENTION: users grouped by their first-activity week;
    for each (cohort_week, week_offset) the count of DISTINCT users
    active that many weeks after their cohort week — the classic
    product-analytics retention triangle.

    Scale shape: users hash-bucket so a user's whole history (and
    hence their cohort = min week) is bucket-local; the per-bucket
    distinct (cohort, offset, user) dedup is globally exact for the
    same reason, so only additive (cohort, offset) count partials
    enter the final merge. Key domain is TIME-sized (weeks²), not
    data-sized, but the merge still runs in Ray."""
    ds = read_table(sf_dir, "events", columns=["ts", "user_id"])
    week_us = 604_800_000_000

    def to_wk(batch: pa.Table) -> pa.Table:
        t = pc.cast(batch["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"user_id": pc.cast(batch["user_id"], pa.int64()),
                         "wk": pa.array(t // week_us)})

    def cohort_bucket(g: pd.DataFrame) -> pd.DataFrame:
        cw = g.groupby("user_id", sort=False)["wk"].transform("min")
        d = pd.DataFrame({"cohort_week": cw, "week_offset": g["wk"] - cw,
                          "user_id": g["user_id"]}).drop_duplicates()
        return (d.groupby(["cohort_week", "week_offset"], as_index=False)
                .agg(n_users=("user_id", "size")))

    parts = map_buckets(ds.map_batches(to_wk, batch_format="pyarrow"),
                        ["user_id"], cohort_bucket)
    out = merge_partials_ray(parts, ["cohort_week", "week_offset"],
                             {"n_users": "sum"}).to_pandas()
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values(["cohort_week", "week_offset"]) \
        .reset_index(drop=True)


def q_time_weighted_value(sf_dir: str):
    """TIME-WEIGHTED aggregation: per user, each event's value holds
    until the NEXT event (step interpolation); the query returns the
    exact integer time-weighted sum Σ gap_us × value_cents (the
    numerator of a time-weighted average — division stays out of the
    gate), total covered time, and segment count. int64 bound: the
    corpus time span (µs) × max value (cents) stays far below 2^63;
    asserted per bucket.

    Scale shape: the lag-gaps plan — user-bucketed, ONE shift/diff
    pass over the bucket-sorted frame, no per-user Python."""
    ds = read_table(sf_dir, "events",
                    columns=["event_id", "ts", "user_id", "value"])

    def to_us(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": pc.cast(batch["user_id"], pa.int64()),
            "ts_us": pc.cast(batch["ts"], pa.int64()),
            "event_id": pc.cast(batch["event_id"], pa.int64()),
            "v_c": pc.cast(pc.round(pc.multiply(batch["value"], 100.0)),
                           pa.int64())})

    def tw_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts_us", "event_id"])
        u = g["user_id"].to_numpy()
        t = g["ts_us"].to_numpy()
        v = g["v_c"].to_numpy()
        if len(u):
            same = np.concatenate([u[:-1] == u[1:], [False]])
            gap = np.where(same, np.concatenate([t[1:] - t[:-1], [0]]), 0)
        else:
            same = np.zeros(0, bool)
            gap = np.zeros(0, np.int64)
        assert not len(gap) or \
            gap.max(initial=0) <= (1 << 62) // max(int(np.abs(v).max(
                initial=1)), 1), "tw product would overflow int64"
        out = pd.DataFrame({"user_id": u,
                            "n_segments": same.astype(np.int64),
                            "total_us": gap,
                            "tw_value_c_us": gap * v})
        return out.groupby("user_id", as_index=False).sum()

    out = (map_buckets(ds.map_batches(to_us, batch_format="pyarrow"),
                       ["user_id"], tw_bucket)
           .to_pandas())
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def q_value_stats_per_type(sf_dir: str):
    """Grouped SECOND MOMENTS: per event_type the exact integer
    (n, Σ value_cents, Σ value_cents²) — the sufficient statistic for
    variance / z-score normalization, kept as raw moments so the gate
    never meets float math (the derived variance divides outside the
    engine). Pure combiner, zero shuffle: per-batch Arrow group_by
    partials → enum-keyed driver merge (event types are schema-
    bounded)."""
    ds = read_table(sf_dir, "events", columns=["event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        t = _type_cents(batch)
        return t.append_column("vv", pc.multiply(t["v_c"], t["v_c"]))

    out = aggregate(ds, ["event_type"], {"n_events": ("v_c", "count"),
                                         "sum_value_c": ("v_c", "sum"),
                                         "sumsq_value_c2": ("vv", "sum")},
                    prep)
    return out.sort_values("event_type").reset_index(drop=True)


def q_covar_qty_discount(sf_dir: str):
    """Grouped COVARIANCE/CORRELATION sufficient statistics: per
    l_returnflag the exact integer (n, Σq, Σd_e2, Σq², Σd_e2², Σq·d_e2)
    — everything COVAR_POP/CORR divides outside the engine, kept as
    raw cross-moments so the gate never meets float math (the
    value_stats_per_type convention extended to the CROSS moment).
    Pure combiner, zero shuffle; overflow bound: q ≤ 50, d_e2 ≤ 10 →
    Σq·q ≤ 2.5e3/row, safe in int64 past 10^15 rows."""
    ds = read_table(sf_dir, "lineitem",
                    columns=["l_returnflag", "l_quantity", "l_discount"])

    def prep(batch: pa.Table) -> pa.Table:
        q = pc.cast(pc.round(batch["l_quantity"]), pa.int64())
        d = pc.cast(pc.round(pc.multiply(batch["l_discount"], 100.0)),
                    pa.int64())
        return pa.table({"l_returnflag": batch["l_returnflag"],
                         "q": q, "d": d, "qq": pc.multiply(q, q),
                         "dd": pc.multiply(d, d), "qd": pc.multiply(q, d)})

    out = aggregate(ds, ["l_returnflag"], {
        "n": ("q", "count"), "sum_q": ("q", "sum"), "sum_d_e2": ("d", "sum"),
        "sumsq_q": ("qq", "sum"), "sumsq_d_e4": ("dd", "sum"),
        "sum_qd_e2": ("qd", "sum")}, prep)
    return out.sort_values("l_returnflag").reset_index(drop=True)


def q_pearson_corr(sf_dir: str):
    """PEARSON CORRELATION per return flag, carried all the way to the
    final float (the covar_qty_discount sufficient statistics were the
    stop-short version): r = (n·Σxy − Σx·Σy) / (√(n·Σxx − Σx²) ·
    √(n·Σyy − Σy²)). The inner terms are EXACT integers at any scale —
    arbitrary-precision Python ints on the (enum-sized) driver merge,
    HUGEINT in the SQL twin — and the only floats are the final
    int→double conversions (round-to-nearest-even in both engines)
    followed by the identical sqrt/multiply/divide expression, so the
    hash gate holds on the double column. Degenerate flags (zero
    variance) report r = 0.0 in both engines.

    Scale shape: the covar combiner (pure per-batch, zero shuffle) →
    3-row driver merge → per-flag bigint arithmetic."""
    import math

    stats = q_covar_qty_discount(sf_dir)
    rows = []
    for _, s in stats.iterrows():
        n, sx, sy = int(s["n"]), int(s["sum_q"]), int(s["sum_d_e2"])
        sxx, syy = int(s["sumsq_q"]), int(s["sumsq_d_e4"])
        sxy = int(s["sum_qd_e2"])
        num = n * sxy - sx * sy
        vx = n * sxx - sx * sx
        vy = n * syy - sy * sy
        if vx <= 0 or vy <= 0:
            r = 0.0
        else:
            r = float(num) / (math.sqrt(float(vx)) * math.sqrt(float(vy)))
        rows.append((s["l_returnflag"], n, r))
    out = pd.DataFrame(rows, columns=["l_returnflag", "n", "corr"])
    out["n"] = out["n"].astype("int64")
    return out.sort_values("l_returnflag").reset_index(drop=True)


def _pearson_oracle_sql() -> str:
    return (
        "WITH s AS (SELECT l_returnflag, "
        "CAST(count(*) AS HUGEINT) AS n, "
        "CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS HUGEINT) AS sx, "
        "CAST(sum(CAST(round(l_discount * 100) AS BIGINT)) AS HUGEINT) "
        "AS sy, "
        "CAST(sum(CAST(round(l_quantity) AS BIGINT) * "
        "CAST(round(l_quantity) AS BIGINT)) AS HUGEINT) AS sxx, "
        "CAST(sum(CAST(round(l_discount * 100) AS BIGINT) * "
        "CAST(round(l_discount * 100) AS BIGINT)) AS HUGEINT) AS syy, "
        "CAST(sum(CAST(round(l_quantity) AS BIGINT) * "
        "CAST(round(l_discount * 100) AS BIGINT)) AS HUGEINT) AS sxy "
        "FROM lineitem GROUP BY 1), "
        "t AS (SELECT l_returnflag, n, n * sxy - sx * sy AS num, "
        "n * sxx - sx * sx AS vx, n * syy - sy * sy AS vy FROM s) "
        "SELECT l_returnflag, CAST(n AS BIGINT) AS n, "
        "CASE WHEN vx <= 0 OR vy <= 0 THEN 0.0 ELSE "
        "CAST(num AS DOUBLE) / (sqrt(CAST(vx AS DOUBLE)) "
        "* sqrt(CAST(vy AS DOUBLE))) END AS corr "
        "FROM t ORDER BY 1")


def q_join_size_estimate(sf_dir: str):
    """EXACT JOIN CARDINALITY WITHOUT THE JOIN (the planner statistic
    every bucketed join in this repo sizes its exchange by):
    |orders ⋈ lineitem on orderkey| = Σ_k cO(k)·cL(k), computed from
    per-key count vectors that never materialize the join. Also
    reports both sides' row counts, the shared-key count, and each
    side's max key multiplicity (the skew bound — a hot key at 100 TB
    is max_mult² join rows in one bucket).

    Scale shape: per-batch (key, n) combiner partials on each side →
    key-bucketed tagged union so a key's full (cO, cL) pair completes
    in one bucket → per-bucket Σ products / maxima → one-row driver
    merge. The exchange carries distinct keys only."""
    orders = read_table(sf_dir, "orders", columns=["o_orderkey"])
    li = read_table(sf_dir, "lineitem", columns=["l_orderkey"])

    def side(col: str, tag: str):
        def part(batch: pa.Table) -> pa.Table:
            g = pa.table({"key": batch[col]}).group_by("key") \
                .aggregate([("key", "count")])
            t = g.rename_columns(["key", "n"])
            return t.append_column("side",
                                   pa.array([tag] * len(t)))
        return part

    def bucket_stats(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby(["key", "side"], as_index=False)["n"].sum()
        o = c[c["side"] == "o"].set_index("key")["n"]
        l = c[c["side"] == "l"].set_index("key")["n"]
        shared = o.index.intersection(l.index)
        join_rows = int((o.loc[shared].to_numpy(dtype=np.int64)
                         * l.loc[shared].to_numpy(dtype=np.int64)).sum()) \
            if len(shared) else 0
        return pd.DataFrame({
            "n_left": [int(o.sum())], "n_right": [int(l.sum())],
            "n_shared_keys": [int(len(shared))],
            "join_rows": [join_rows],
            "max_mult_left": [int(o.max()) if len(o) else 0],
            "max_mult_right": [int(l.max()) if len(l) else 0]})

    both = _tagged_union_join(
        orders.map_batches(side("o_orderkey", "o"),
                           batch_format="pyarrow"),
        li.map_batches(side("l_orderkey", "l"), batch_format="pyarrow"),
        "key", bucket_stats)
    pdf = both.to_pandas()
    out = pd.DataFrame({
        "n_left": [int(pdf["n_left"].sum())],
        "n_right": [int(pdf["n_right"].sum())],
        "n_shared_keys": [int(pdf["n_shared_keys"].sum())],
        "join_rows": [int(pdf["join_rows"].sum())],
        "max_mult_left": [int(pdf["max_mult_left"].max())],
        "max_mult_right": [int(pdf["max_mult_right"].max())]})
    return out.astype("int64")


def _join_size_oracle_sql() -> str:
    return (
        "WITH co AS (SELECT o_orderkey AS key, "
        "CAST(count(*) AS BIGINT) AS n FROM orders GROUP BY 1), "
        "cl AS (SELECT l_orderkey AS key, "
        "CAST(count(*) AS BIGINT) AS n FROM lineitem GROUP BY 1), "
        "j AS (SELECT co.n AS no, cl.n AS nl FROM co "
        "JOIN cl USING (key)) "
        "SELECT (SELECT CAST(sum(n) AS BIGINT) FROM co) AS n_left, "
        "(SELECT CAST(sum(n) AS BIGINT) FROM cl) AS n_right, "
        "CAST(count(*) AS BIGINT) AS n_shared_keys, "
        "CAST(coalesce(sum(no * nl), 0) AS BIGINT) AS join_rows, "
        "(SELECT CAST(max(n) AS BIGINT) FROM co) AS max_mult_left, "
        "(SELECT CAST(max(n) AS BIGINT) FROM cl) AS max_mult_right "
        "FROM j")


def q_activity_islands(sf_dir: str):
    """GAPS-AND-ISLANDS per user: maximal runs of CONSECUTIVE active
    days (a day is active if the user has ≥1 event). The classic SQL
    pattern the registry lacked: islands via day − row_number() in the
    twin, via a vectorized run-break cumsum in Ray. Days are int64
    epoch days (date_diff from 1970-01-01 — dtype-exact across both
    engines). Output per user: active days, island count, longest
    run, first active day, last active day.

    Scale shape: per-batch distinct (user, day) partials →
    user-bucketed exchange (a user's full day set completes in one
    bucket) → per-bucket vectorized island scan (sort + run-break
    cumsum + bincount, no per-user Python) → concat; users are
    data-sized so the result stays in Ray until the final collect."""
    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])

    def part(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        day = ts // 86_400_000_000
        t = pa.table({"user_id": batch["user_id"],
                      "day": pa.array(day.astype(np.int64))})
        g = t.group_by(["user_id", "day"]).aggregate([])
        return g

    def island_stats(g: pd.DataFrame) -> pd.DataFrame:
        g = g[["user_id", "day"]].drop_duplicates() \
            .sort_values(["user_id", "day"])
        u = g["user_id"].to_numpy(dtype=np.int64)
        d = g["day"].to_numpy(dtype=np.int64)
        if len(u) == 0:
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in ["user_id", "n_active_days",
                                           "n_islands", "longest_run",
                                           "first_day", "last_day"]})
        brk = np.ones(len(u), dtype=bool)
        brk[1:] = (u[1:] != u[:-1]) | (d[1:] - d[:-1] > 1)
        isl = np.cumsum(brk) - 1
        sizes = np.bincount(isl).astype(np.int64)
        i = pd.DataFrame({"user_id": u[brk], "len": sizes,
                          "start": d[brk]})
        i["end"] = i["start"] + i["len"] - 1
        out = i.groupby("user_id", as_index=False).agg(
            n_active_days=("len", "sum"), n_islands=("len", "count"),
            longest_run=("len", "max"), first_day=("start", "min"),
            last_day=("end", "max"))
        return out.astype("int64")

    res = map_buckets(ds.map_batches(part, batch_format="pyarrow"),
                      ["user_id"], island_stats)
    out = res.to_pandas()
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def _activity_islands_oracle_sql() -> str:
    return (
        "WITH d AS (SELECT DISTINCT user_id, CAST(date_diff('day', "
        "DATE '1970-01-01', CAST(ts AS DATE)) AS BIGINT) AS day "
        "FROM events), "
        "r AS (SELECT user_id, day, day - row_number() OVER "
        "(PARTITION BY user_id ORDER BY day) AS grp FROM d), "
        "i AS (SELECT user_id, grp, CAST(count(*) AS BIGINT) AS len, "
        "min(day) AS start FROM r GROUP BY 1, 2) "
        "SELECT user_id, CAST(sum(len) AS BIGINT) AS n_active_days, "
        "CAST(count(*) AS BIGINT) AS n_islands, "
        "CAST(max(len) AS BIGINT) AS longest_run, "
        "CAST(min(start) AS BIGINT) AS first_day, "
        "CAST(max(start + len - 1) AS BIGINT) AS last_day "
        "FROM i GROUP BY user_id ORDER BY user_id")


def q_conversion_lag(sf_dir: str):
    """Per-user CONVERSION LAG: µs from the user's first 'view' to
    their first 'purchase' (users with both; negative = purchased
    before ever viewing). A MIN-merge aggregation — the non-additive
    counterpart of the sum combiners: per-batch min-ts per (user,
    side), user-bucketed global min in one map_buckets, vectorized
    diff. Only (user, 2 timestamps) partials cross the exchange."""
    ds = read_table(sf_dir, "events",
                    columns=["user_id", "event_type", "ts"])
    BIG = np.int64(2**62)

    def part(batch: pa.Table) -> pa.Table:
        et = batch["event_type"]
        keep = pc.or_(pc.equal(et, "view"), pc.equal(et, "purchase"))
        t = batch.filter(keep)
        ts = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        is_view = pc.equal(t["event_type"], "view") \
            .to_numpy(zero_copy_only=False)
        g = pa.table({
            "user_id": t["user_id"],
            "min_view": pa.array(np.where(is_view, ts, BIG)),
            "min_purch": pa.array(np.where(is_view, BIG, ts)),
        }).group_by("user_id").aggregate(
            [("min_view", "min"), ("min_purch", "min")])
        return g.rename_columns(["user_id", "min_view", "min_purch"])

    def min_bucket(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("user_id", as_index=False)[
            ["min_view", "min_purch"]].min()
        m = m[(m["min_view"] < BIG) & (m["min_purch"] < BIG)]
        m["lag_us"] = m["min_purch"] - m["min_view"]
        return m[["user_id", "lag_us"]]

    partials = ds.map_batches(part, batch_format="pyarrow")
    out = (map_buckets(partials, ["user_id"], min_bucket)
           .to_pandas())
    if out.empty:
        out = pd.DataFrame({"user_id": pd.Series([], dtype="int64"),
                            "lag_us": pd.Series([], dtype="int64")})
    for c in ("user_id", "lag_us"):
        out[c] = out[c].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def q_event_transitions(sf_dir: str):
    """MARKOV TRANSITION MATRIX over the per-user event stream: counts
    of consecutive (from_type → to_type) transitions ordered by
    (ts, event_id) — the sequence-pattern statistic behind session
    modeling (BPE pair counting's shape on the categorical/temporal
    axis). Scale shape: user-bucketed, ONE shift comparison over the
    bucket-sorted frame; the transition domain is enum² so the final
    merge is enum-keyed."""
    ds = read_table(sf_dir, "events",
                    columns=["event_id", "ts", "user_id", "event_type"])

    def to_us(batch: pa.Table) -> pa.Table:
        return pa.table({"user_id": pc.cast(batch["user_id"], pa.int64()),
                         "ts_us": pc.cast(batch["ts"], pa.int64()),
                         "event_id": pc.cast(batch["event_id"], pa.int64()),
                         "event_type": batch["event_type"]})

    def trans_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts_us", "event_id"])
        u = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy()
        same = u[:-1] == u[1:] if len(u) else np.zeros(0, bool)
        d = pd.DataFrame({"from_type": et[:-1][same],
                          "to_type": et[1:][same]})
        return d.groupby(["from_type", "to_type"], as_index=False) \
            .agg(n=("to_type", "size"))

    parts = map_buckets(ds.map_batches(to_us, batch_format="pyarrow"),
                        ["user_id"], trans_bucket)
    out = merge_partials(parts, ["from_type", "to_type"], {"n": "sum"})
    out["n"] = out["n"].astype("int64")
    return out.sort_values(["from_type", "to_type"]).reset_index(drop=True)


def q_part_price_rank_dense(sf_dir: str):
    """DENSE_RANK window function (completes the rank family next to
    row_number / partial top-k): each part's dense rank by retail
    price (cents, descending) within its brand — ties share a rank,
    no gaps. Scale shape: parts hash-bucket by brand (each brand
    wholly in one bucket); the rank inside a bucket is pandas'
    vectorized dense rank, no per-part Python."""
    ds = read_table(sf_dir, "part",
                    columns=["p_partkey", "p_brand", "p_retailprice"])

    def to_c(batch: pa.Table) -> pa.Table:
        return pa.table({
            "p_partkey": pc.cast(batch["p_partkey"], pa.int64()),
            "p_brand": batch["p_brand"],
            "price_c": pc.cast(pc.round(pc.multiply(
                batch["p_retailprice"], 100.0)), pa.int64())})

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["rank_dense"] = (g.groupby("p_brand", sort=False)["price_c"]
                           .rank(method="dense", ascending=False)
                           .astype("int64"))
        return g[["p_partkey", "p_brand", "price_c", "rank_dense"]]

    out = (map_buckets(ds.map_batches(to_c, batch_format="pyarrow"),
                       ["p_brand"], rank_bucket)
           .to_pandas())
    for c in ["p_partkey", "price_c", "rank_dense"]:
        out[c] = out[c].astype("int64")
    return out.sort_values("p_partkey").reset_index(drop=True)


def q_part_price_rank(sf_dir: str):
    """RANK() — the with-gaps member completing the rank-function
    triple (row_number → NTILE/top-k, dense_rank →
    part_price_rank_dense): each part's rank by price (cents, DESC)
    within its brand, ties share a rank and the next rank skips by
    the tie count (SQL RANK semantics). Same brand-bucket shape as
    the dense sibling; pandas' vectorized 'min' rank per bucket."""
    ds = read_table(sf_dir, "part",
                    columns=["p_partkey", "p_brand", "p_retailprice"])

    def to_c(batch: pa.Table) -> pa.Table:
        return pa.table({
            "p_partkey": pc.cast(batch["p_partkey"], pa.int64()),
            "p_brand": batch["p_brand"],
            "price_c": pc.cast(pc.round(pc.multiply(
                batch["p_retailprice"], 100.0)), pa.int64())})

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["rank_gaps"] = (g.groupby("p_brand", sort=False)["price_c"]
                          .rank(method="min", ascending=False)
                          .astype("int64"))
        return g[["p_partkey", "p_brand", "price_c", "rank_gaps"]]

    out = (map_buckets(ds.map_batches(to_c, batch_format="pyarrow"),
                       ["p_brand"], rank_bucket)
           .to_pandas())
    for c in ["p_partkey", "price_c", "rank_gaps"]:
        out[c] = out[c].astype("int64")
    return out.sort_values("p_partkey").reset_index(drop=True)


def q_nation_revenue_share(sf_dir: str):
    """RATIO_TO_REPORT (percent-of-total window aggregate): each
    nation's customer-order revenue and its e6-exact share of the
    global total — share_e6 = rev_c * 1e6 // total_c (the SUM() OVER
    () pattern every BI rollup needs). Scale shape: revenue per
    nation via the j1 broadcast-dimension probe inside a per-batch
    combiner (nation key is enum-sized), tiny driver merge, exact
    integer division for the share."""
    import ray as _ray

    cust = read_local(sf_dir, "customer",
                      columns=["c_custkey", "c_nationkey"])
    order_idx = np.argsort(cust["c_custkey"].to_numpy())
    ck = cust["c_custkey"].to_numpy().astype(np.int64)[order_idx]
    nk = cust["c_nationkey"].to_numpy().astype(np.int64)[order_idx]
    ref = _ray.put((ck, nk))

    orders = read_table(sf_dir, "orders",
                        columns=["o_custkey", "o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        import ray as _rayw
        bck, bnk = _rayw.get(ref)
        c = batch["o_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        # guarded probe: an o_custkey absent from customer must fail
        # loudly, not attribute revenue to a neighboring nation (or
        # index past the end) — FK integrity is asserted, not assumed
        pos = np.clip(np.searchsorted(bck, c), 0, max(len(bck) - 1, 0))
        assert len(bck) and bool(np.all(bck[pos] == c)), \
            "o_custkey not in customer: FK violation in input"
        return pa.table({"n_nationkey": pa.array(bnk[pos]),
                         "rev_c": pc.cast(pc.round(pc.multiply(
                             batch["o_totalprice"], 100.0)), pa.int64())})

    out = aggregate(orders, ["n_nationkey"], {"rev_c": ("rev_c", "sum")}, prep)
    out["share_e6"] = out["rev_c"] * 1_000_000 // int(out["rev_c"].sum())
    return out.sort_values("n_nationkey").reset_index(drop=True)


def q_q2_min_cost_supplier(sf_dir: str):
    """TPC-H Q2 shape — CORRELATED MIN subquery: for each qualifying
    part, the EUROPE supplier(s) achieving the minimum cost, ties
    kept. The testdata has no partsupp, so the part↔supplier relation
    is the observed (l_partkey, l_suppkey) pairs and cost is the
    minimum observed line price (documented substitution; the operator
    shape — per-part argmin over a region-filtered supplier set, then
    decoration from dimension tables — is Q2's). Plan: nation⋈region
    resolved on the driver (config-sized); the region-filtered
    supplier key set broadcast once and probed in the lineitem scan
    (non-EUROPE rows drop at the probe); pair mins combine map-side;
    the tagged-union bucketed join on partkey brings in the
    size/type-filtered part keys and the per-part min + tie-keeping
    winner filter completes IN-BUCKET (a partkey lands wholly in one
    bucket); winners are output-sized (Q2 returns a top-slice), so the
    dimension decoration is driver-side."""
    nat = read_local(sf_dir, "nation")
    reg = read_local(sf_dir, "region")
    eur_rk = set(reg.loc[reg["r_name"] == "EUROPE", "r_regionkey"])
    nat_eur = nat[nat["n_regionkey"].isin(eur_rk)]
    nk_name = dict(zip(nat_eur["n_nationkey"].astype(int), nat_eur["n_name"]))

    supp = read_local(sf_dir, "supplier")
    supp = supp[supp["s_nationkey"].astype(int).isin(set(nk_name))]
    sk_sorted = np.sort(supp["s_suppkey"].to_numpy().astype(np.int64))
    supp_ref = ray.put(sk_sorted)

    li = read_table(sf_dir, "lineitem",
                    columns=["l_partkey", "l_suppkey", "l_extendedprice"])

    def li_side(batch: pa.Table) -> pa.Table:
        ks = ray.get(supp_ref)
        probe = batch["l_suppkey"].to_numpy(
            zero_copy_only=False).astype(np.int64)
        pos = np.clip(np.searchsorted(ks, probe), 0, max(len(ks) - 1, 0))
        hit = (ks[pos] == probe) if len(ks) else np.zeros(len(probe), bool)
        b = batch.filter(pa.array(hit))
        t = pa.table({"key": pc.cast(b["l_partkey"], pa.int64()),
                      "suppkey": pc.cast(b["l_suppkey"], pa.int64()),
                      "cost_c": pc.cast(pc.round(pc.multiply(
                          b["l_extendedprice"], 100.0)), pa.int64())})
        g = t.group_by(["key", "suppkey"]).aggregate([("cost_c", "min")])
        g = g.rename_columns(["key", "suppkey", "cost_c"])
        return pa.table({"key": g["key"], "suppkey": g["suppkey"],
                         "cost_c": g["cost_c"],
                         "side": pa.array(["l"] * g.num_rows)})

    part = read_table(sf_dir, "part",
                      columns=["p_partkey", "p_type", "p_size"])

    def part_side(batch: pa.Table) -> pa.Table:
        sz = batch["p_size"].to_numpy(zero_copy_only=False).astype(np.int64)
        tp = batch["p_type"].to_numpy(zero_copy_only=False)
        b = batch.filter(pa.array((sz % 5 == 0) & (tp == "LARGE")))
        n = b.num_rows
        return pa.table({"key": pc.cast(b["p_partkey"], pa.int64()),
                         "suppkey": pa.nulls(n, pa.int64()),
                         "cost_c": pa.nulls(n, pa.int64()),
                         "side": pa.array(["p"] * n)})

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == "l"][["key", "suppkey", "cost_c"]]
        pkeys = set(g.loc[g["side"] == "p", "key"])
        m = left[left["key"].isin(pkeys)]
        if m.empty:
            return pd.DataFrame({
                "p_partkey": pd.Series([], dtype="int64"),
                "s_suppkey": pd.Series([], dtype="int64"),
                "cost_c": pd.Series([], dtype="int64")})
        # map-side combine is per BATCH — re-combine pair mins before
        # the per-part argmin
        m = m.groupby(["key", "suppkey"], as_index=False)["cost_c"].min()
        mc = m.groupby("key")["cost_c"].transform("min")
        w = m[m["cost_c"] == mc]
        return pd.DataFrame({"p_partkey": w["key"].astype("int64"),
                             "s_suppkey": w["suppkey"].astype("int64"),
                             "cost_c": w["cost_c"].astype("int64")})

    winners = _tagged_union_join(
        li.map_batches(li_side, batch_format="pyarrow"),
        part.map_batches(part_side, batch_format="pyarrow"),
        "key", join_bucket).to_pandas()

    cols = {"s_acctbal_c": "int64", "s_name": "object", "n_name": "object",
            "p_partkey": "int64", "s_suppkey": "int64", "cost_c": "int64"}
    if winners.empty:
        return pd.DataFrame({c: pd.Series([], dtype=d)
                             for c, d in cols.items()})
    sd = supp.set_index(supp["s_suppkey"].astype(int))
    winners["s_name"] = winners["s_suppkey"].map(sd["s_name"])
    winners["s_acctbal_c"] = winners["s_suppkey"].map(
        (sd["s_acctbal"] * 100).round()).astype("int64")
    winners["n_name"] = winners["s_suppkey"].map(
        sd["s_nationkey"].astype(int)).map(nk_name)
    out = winners[list(cols)].sort_values(
        ["s_acctbal_c", "n_name", "s_name", "p_partkey"],
        ascending=[False, True, True, True]).reset_index(drop=True)
    for c in ("s_acctbal_c", "p_partkey", "s_suppkey", "cost_c"):
        out[c] = out[c].astype("int64")
    return out


def q_q11_important_parts(sf_dir: str):
    """TPC-H Q11 shape — HAVING against a SCALAR SUBQUERY over the
    same aggregate: parts whose ASIA-supplied value exceeds 0.1% of
    the corpus total. No partsupp, so value := Σ price_c·qty over
    lineitems whose supplier sits in ASIA (documented substitution;
    the shape — grouped sum filtered by a global-total fraction,
    integer cross-multiplied — is Q11's). Plan: region-filtered
    supplier keys broadcast and probed at the lineitem scan; per-part
    partial sums combine map-side then reduce in Ray (partkey is
    data-sized — never a driver merge); the reduced per-part table is
    pinned ONCE (object-store/spill-resident, not driver heap) because
    it is consumed twice: a tiny total-sum pass, then the share
    filter with the total as a closure constant."""
    nat = read_local(sf_dir, "nation")
    reg = read_local(sf_dir, "region")
    asia_rk = set(reg.loc[reg["r_name"] == "ASIA", "r_regionkey"])
    asia_nk = set(nat.loc[nat["n_regionkey"].isin(asia_rk),
                          "n_nationkey"].astype(int))
    supp = read_local(sf_dir, "supplier",
                      columns=["s_suppkey", "s_nationkey"])
    sk = np.sort(supp.loc[supp["s_nationkey"].astype(int).isin(asia_nk),
                          "s_suppkey"].to_numpy().astype(np.int64))
    supp_ref = ray.put(sk)

    li = read_table(sf_dir, "lineitem",
                    columns=["l_partkey", "l_suppkey",
                             "l_extendedprice", "l_quantity"])

    def partial(batch: pa.Table) -> pa.Table:
        ks = ray.get(supp_ref)
        probe = batch["l_suppkey"].to_numpy(
            zero_copy_only=False).astype(np.int64)
        pos = np.clip(np.searchsorted(ks, probe), 0, max(len(ks) - 1, 0))
        hit = (ks[pos] == probe) if len(ks) else np.zeros(len(probe), bool)
        b = batch.filter(pa.array(hit))
        price_c = pc.cast(pc.round(pc.multiply(
            b["l_extendedprice"], 100.0)), pa.int64())
        qty = pc.cast(pc.round(b["l_quantity"]), pa.int64())
        return pa.table({"p_partkey": b["l_partkey"],
                         "value_c": pc.multiply(price_c, qty)})

    per_part = aggregate(li, ["p_partkey"], {"value_c": ("value_c", "sum")},
                         partial, in_ray=True)
    # part-cardinality-sized intermediate consumed TWICE (global
    # total, then the share filter) — pinned in the object store
    # (spills to disk at scale), never the driver heap
    per_part = per_part.materialize()
    tot = per_part.map_batches(
        lambda b: pa.table({"t": pa.array(
            [pc.sum(b["value_c"]).as_py() or 0], pa.int64())}),
        batch_format="pyarrow").to_pandas()["t"].sum()
    total = int(tot)
    assert total < 2 ** 62, "q11 total_c approaching int64 range"

    def keep(batch: pa.Table) -> pa.Table:
        v = batch["value_c"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(v):
            assert int(v.max()) < 2 ** 62 // 1000, \
                "q11 share cross-multiply would overflow int64"
        return batch.filter(pa.array(v * 1000 > total)).select(
            ["p_partkey", "value_c"])

    out = per_part.map_batches(keep, batch_format="pyarrow").to_pandas()
    if out.empty:
        return pd.DataFrame({"p_partkey": pd.Series([], dtype="int64"),
                             "value_c": pd.Series([], dtype="int64")})
    return out.sort_values(["value_c", "p_partkey"],
                           ascending=[False, True]).reset_index(drop=True)


def q_q16_supplier_relationship(sf_dir: str):
    """TPC-H Q16 shape — COUNT DISTINCT over an excluded-subquery
    relation: suppliers per (brand, type, size) for non-excluded parts,
    dropping 'complaint' suppliers. No partsupp, so the relation is
    distinct (l_partkey, l_suppkey) pairs, and the complaint predicate
    is s_acctbal < 0 (documented substitutions; the shape — NOT-IN
    subquery exclusion + grouped distinct count — is Q16's). Plan: the
    complaint key set (dimension-sized) broadcasts and excludes at the
    lineitem scan; per-batch distinct pairs combine map-side; the
    bucketed join on partkey attaches the filtered part attributes and
    dedups pairs IN-BUCKET; the cross-bucket (brand,type,size,suppkey)
    distinct runs in Ray (suppliers × groups is data-sized); the final
    group count merges driver-side (brand×type×size is enum-bounded)."""
    supp = read_local(sf_dir, "supplier",
                      columns=["s_suppkey", "s_acctbal"])
    bad = np.sort(supp.loc[supp["s_acctbal"] < 0,
                           "s_suppkey"].to_numpy().astype(np.int64))
    bad_ref = ray.put(bad)

    li = read_table(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"])

    def li_side(batch: pa.Table) -> pa.Table:
        bk = ray.get(bad_ref)
        if len(bk):
            probe = batch["l_suppkey"].to_numpy(
                zero_copy_only=False).astype(np.int64)
            pos = np.clip(np.searchsorted(bk, probe), 0, len(bk) - 1)
            batch = batch.filter(pa.array(bk[pos] != probe))
        t = pa.table({"key": pc.cast(batch["l_partkey"], pa.int64()),
                      "suppkey": pc.cast(batch["l_suppkey"], pa.int64())})
        g = t.group_by(["key", "suppkey"]).aggregate([])
        n = g.num_rows
        return pa.table({"key": g["key"], "suppkey": g["suppkey"],
                         "p_brand": pa.nulls(n, pa.string()),
                         "p_type": pa.nulls(n, pa.string()),
                         "p_size": pa.nulls(n, pa.int64()),
                         "side": pa.array(["l"] * n)})

    part = read_table(sf_dir, "part",
                      columns=["p_partkey", "p_brand", "p_type", "p_size"])
    q16_sizes = np.array([1, 4, 9, 16, 25, 36, 49], np.int64)

    def part_side(batch: pa.Table) -> pa.Table:
        sz = batch["p_size"].to_numpy(zero_copy_only=False).astype(np.int64)
        br = batch["p_brand"].to_numpy(zero_copy_only=False)
        tp = batch["p_type"].to_numpy(zero_copy_only=False)
        b = batch.filter(pa.array(
            np.isin(sz, q16_sizes) & (br != "Brand#5") & (tp != "PROMO")))
        n = b.num_rows
        return pa.table({"key": pc.cast(b["p_partkey"], pa.int64()),
                         "suppkey": pa.nulls(n, pa.int64()),
                         "p_brand": pc.cast(b["p_brand"], pa.string()),
                         "p_type": pc.cast(b["p_type"], pa.string()),
                         "p_size": pc.cast(b["p_size"], pa.int64()),
                         "side": pa.array(["p"] * n)})

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == "l"][["key", "suppkey"]]
        right = g[g["side"] == "p"][["key", "p_brand", "p_type", "p_size"]]
        m = left.merge(right, on="key", how="inner")
        if m.empty:
            return pd.DataFrame({
                "p_brand": pd.Series([], dtype="object"),
                "p_type": pd.Series([], dtype="object"),
                "p_size": pd.Series([], dtype="int64"),
                "suppkey": pd.Series([], dtype="int64"),
                "one": pd.Series([], dtype="int64")})
        d = m[["p_brand", "p_type", "p_size", "suppkey"]].drop_duplicates()
        return d.assign(one=1).astype({"p_size": "int64",
                                       "suppkey": "int64", "one": "int64"})

    dist = merge_partials_ray(
        _tagged_union_join(li.map_batches(li_side, batch_format="pyarrow"),
                           part.map_batches(part_side,
                                            batch_format="pyarrow"),
                           "key", join_bucket),
        ["p_brand", "p_type", "p_size", "suppkey"], {"one": "sum"})

    def cnt_partial(batch: pa.Table) -> pa.Table:
        # post-merge each (brand,type,size,suppkey) is globally unique
        # — a plain count per group IS the distinct-supplier count
        g = batch.select(["p_brand", "p_type", "p_size", "one"]).group_by(
            ["p_brand", "p_type", "p_size"]).aggregate([("one", "count")])
        return g.rename_columns(["p_brand", "p_type", "p_size",
                                 "supplier_cnt"])

    df = merge_partials(dist.map_batches(cnt_partial,
                                          batch_format="pyarrow"),
                        ["p_brand", "p_type", "p_size"],
                        {"supplier_cnt": "sum"})
    if df.empty:
        return pd.DataFrame({"p_brand": pd.Series([], dtype="object"),
                             "p_type": pd.Series([], dtype="object"),
                             "p_size": pd.Series([], dtype="int64"),
                             "supplier_cnt": pd.Series([], dtype="int64")})
    df["p_size"] = df["p_size"].astype("int64")
    df["supplier_cnt"] = df["supplier_cnt"].astype("int64")
    return df.sort_values(
        ["supplier_cnt", "p_brand", "p_type", "p_size"],
        ascending=[False, True, True, True]).reset_index(drop=True)


def q_q20_potential_promotion(sf_dir: str):
    """TPC-H Q20 shape — NESTED IN-subqueries with a correlated
    threshold: AMERICA suppliers who shipped >25% of some red-prefix
    part's 1996 volume. No partsupp/availqty, so the threshold is the
    pair's share of the part's total windowed quantity (documented
    substitution; the shape — name-prefix part subquery, correlated
    per-part quantity sum, supplier-nation outer filter — is Q20's).
    Plan: per-(part,supplier) quantity sums combine map-side from the
    date-windowed lineitem scan; the bucketed join on partkey brings
    in the prefix-filtered part keys; the correlated share test
    completes IN-BUCKET; qualifying suppkeys are dimension-bounded so
    the region decoration reads supplier with key pushdown."""
    lo = pa.scalar(np.datetime64("1996-01-01T00:00:00", "us"))
    hi = pa.scalar(np.datetime64("1997-01-01T00:00:00", "us"))

    li = read_table(sf_dir, "lineitem",
                    columns=["l_partkey", "l_suppkey",
                             "l_quantity", "l_shipdate"])

    def li_side(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.and_(pc.greater_equal(batch["l_shipdate"], lo),
                                 pc.less(batch["l_shipdate"], hi)))
        t = pa.table({"key": pc.cast(b["l_partkey"], pa.int64()),
                      "suppkey": pc.cast(b["l_suppkey"], pa.int64()),
                      "q": pc.cast(pc.round(b["l_quantity"]), pa.int64())})
        g = t.group_by(["key", "suppkey"]).aggregate([("q", "sum")])
        g = g.rename_columns(["key", "suppkey", "q"])
        return pa.table({"key": g["key"], "suppkey": g["suppkey"],
                         "q": g["q"],
                         "side": pa.array(["l"] * g.num_rows)})

    part = read_table(sf_dir, "part", columns=["p_partkey", "p_name"])

    def part_side(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.starts_with(batch["p_name"], "red "))
        n = b.num_rows
        return pa.table({"key": pc.cast(b["p_partkey"], pa.int64()),
                         "suppkey": pa.nulls(n, pa.int64()),
                         "q": pa.nulls(n, pa.int64()),
                         "side": pa.array(["p"] * n)})

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == "l"][["key", "suppkey", "q"]]
        pkeys = set(g.loc[g["side"] == "p", "key"])
        m = left[left["key"].isin(pkeys)]
        if m.empty:
            return pd.DataFrame({"suppkey": pd.Series([], dtype="int64")})
        # re-combine cross-batch pair partials before the share test
        m = m.groupby(["key", "suppkey"], as_index=False)["q"].sum()
        tq = m.groupby("key")["q"].transform("sum")
        w = m.loc[4 * m["q"] > tq, "suppkey"].drop_duplicates()
        return pd.DataFrame({"suppkey": w.astype("int64")})

    w = _tagged_union_join(
        li.map_batches(li_side, batch_format="pyarrow"),
        part.map_batches(part_side, batch_format="pyarrow"),
        "key", join_bucket).to_pandas()

    cols = {"s_suppkey": "int64", "s_name": "object"}
    if w.empty:
        return pd.DataFrame({c: pd.Series([], dtype=d)
                             for c, d in cols.items()})
    wk = sorted({int(x) for x in w["suppkey"]})
    nat = read_local(sf_dir, "nation")
    reg = read_local(sf_dir, "region")
    am_rk = set(reg.loc[reg["r_name"] == "AMERICA", "r_regionkey"])
    am_nk = set(nat.loc[nat["n_regionkey"].isin(am_rk),
                        "n_nationkey"].astype(int))
    sp = read_local(sf_dir, "supplier",
                    columns=["s_suppkey", "s_name", "s_nationkey"],
                    filters=[("s_suppkey", "in", wk)])
    sp = sp[sp["s_nationkey"].astype(int).isin(am_nk)]
    if sp.empty:
        return pd.DataFrame({c: pd.Series([], dtype=d)
                             for c, d in cols.items()})
    out = pd.DataFrame({"s_suppkey": sp["s_suppkey"].astype("int64"),
                        "s_name": sp["s_name"]})
    return out.sort_values("s_suppkey").reset_index(drop=True)


def q_cusum_alerts(sf_dir: str, h_mult: int = 8):
    """CUSUM CHANGE-POINT ALERTS over hourly event counts per type —
    the streaming anomaly detector next to EWMA/trending, hash-gated
    by a closed form: the one-sided CUSUM recurrence
    S_t = max(0, S_{t-1} + x_t − k) equals A_t − min_{0≤j≤t} A_j for
    A_t = Σ(x_i − k), so the SQL twin needs only two window functions
    (running sum + running min), no recursion. The allowance k is the
    per-type mean hourly count, kept scale-free and integer by
    multiplying through by den = the type's observed-hour count:
    A_t = Σ(x·den − num) with num = the type's total events. Alert
    when the scaled statistic exceeds h_mult·num (i.e. the unscaled
    CUSUM exceeds h_mult hourly means). Hours with zero events carry
    no row (the statistic runs over the observed-hour sequence —
    documented contract, identical in both engines).

    Scale shape: per-batch (type, hour) count partials → enum×time-
    bounded driver merge (the same bounded-domain contract as the
    hourly/OHLC windows) → vectorized per-type cumsum / running-min.
    At web scale the per-type series scan is a tiny map_buckets over
    a type-bucketed exchange; the data-sized pass stays the combiner."""
    ds = read_table(sf_dir, "events", columns=["event_type", "ts"])

    hc = aggregate(ds, ["event_type", "window_start"],
                   {"n": ("window_start", "count")},
                   lambda t: pa.table({"event_type": t["event_type"],
                                       "window_start": pc.floor_temporal(
                                           t["ts"], unit="hour")}))
    hc = hc.sort_values(["event_type", "window_start"]) \
        .reset_index(drop=True)
    out = []
    for et, g in hc.groupby("event_type", sort=True):
        x = g["n"].to_numpy(dtype=np.int64)
        num = int(x.sum())
        den = len(x)
        assert num * den < 2 ** 61, "cusum scaling would overflow"
        a = np.cumsum(x * den - num)
        mn = np.minimum(np.minimum.accumulate(a), 0)
        s = a - mn
        out.append(pd.DataFrame({
            "event_type": et,
            "window_start": g["window_start"].to_numpy(),
            "n_events": x,
            "cusum_sc": s.astype(np.int64),
            "alert": (s > h_mult * num).astype(np.int64)}))
    return pd.concat(out, ignore_index=True)


def q_bucket_skew_audit(sf_dir: str, num_buckets: int = 32):
    """SHUFFLE-TAGGER SKEW AUDIT — hash-gates the engine's ONE bucket
    tagger (functions/bucketing.tag_bucket_fn) itself in SQL: every
    bucketed reduce/join/window in the repo trusts this function's
    placement, so the audit recomputes both of its code paths in
    DuckDB — the numeric splitmix-style multiply+xorshift over orders
    custkeys and the dictionary-encoded FNV+splitmix string hash over
    document sources — and compares per-bucket row counts and value
    mass. A skewed bucket here is a hot shuffle partition at 100 TB;
    a placement mismatch would silently break every bucketed exact
    aggregate, which is why the tagger deserves its own oracle.

    Scale shape: pure per-batch combiner (the production tagger runs
    unchanged, then an Arrow group-by per batch) → ≤2·B-row driver
    merge."""
    orders = read_table(sf_dir, "orders",
                        columns=["o_custkey", "o_totalprice"])
    docs = read_table(sf_dir, "documents", columns=["source"])
    tag_o = _tag_bucket(["o_custkey"], num_buckets)
    tag_d = _tag_bucket(["source"], num_buckets)

    def prep_o(batch: pa.Table) -> pa.Table:
        p = pc.cast(pc.round(pc.multiply(batch["o_totalprice"], 100.0)),
                    pa.int64())
        return pa.table({"bucket": tag_o(batch)["_kb"], "p": p})

    def prep_d(batch: pa.Table) -> pa.Table:
        return pa.table({"bucket": tag_d(batch)["_kb"],
                         "p": pa.array(np.zeros(len(batch), np.int64))})

    aggs = {"n_rows": ("p", "count"), "sum_price_c": ("p", "sum")}
    oa = aggregate(orders, ["bucket"], aggs, prep_o)
    da = aggregate(docs, ["bucket"], aggs, prep_d)
    oa.insert(0, "key_kind", "orders_custkey")
    da.insert(0, "key_kind", "documents_source")
    out = pd.concat([oa, da], ignore_index=True)
    return out.sort_values(["key_kind", "bucket"]).reset_index(drop=True)


def _bucket_skew_oracle_sql(num_buckets: int = 32) -> str:
    from ..functions.sqlmirror import mul_mod64, stable_hash64_cte
    w, last = stable_hash64_cte(
        "SELECT DISTINCT source FROM documents", "source", {"h": 0},
        prefix="bk_")
    m = mul_mod64("CAST(o_custkey AS UBIGINT)", 0xFF51AFD7ED558CCD)
    return w + (
        f", bk_ok AS (SELECT CAST(round(o_totalprice * 100) AS BIGINT) "
        f"AS p, {m} AS m FROM orders), "
        f"bk_ob AS (SELECT p, CAST(xor(m, m >> 33) % {num_buckets} "
        "AS BIGINT) AS bucket FROM bk_ok), "
        "bk_oa AS (SELECT 'orders_custkey' AS key_kind, bucket, "
        "CAST(count(*) AS BIGINT) AS n_rows, "
        "CAST(sum(p) AS BIGINT) AS sum_price_c FROM bk_ob GROUP BY 2), "
        f"bk_sb AS (SELECT source, CAST(h % {num_buckets} AS BIGINT) "
        f"AS bucket FROM {last}), "
        "bk_da AS (SELECT 'documents_source' AS key_kind, s.bucket, "
        "CAST(count(*) AS BIGINT) AS n_rows, "
        "CAST(0 AS BIGINT) AS sum_price_c "
        "FROM documents d JOIN bk_sb s ON s.source = d.source "
        "GROUP BY 2) "
        "SELECT * FROM bk_oa UNION ALL SELECT * FROM bk_da "
        "ORDER BY 1, 2")


def _cusum_oracle_sql(h_mult: int = 8) -> str:
    return (
        "WITH hc AS (SELECT event_type, date_trunc('hour', ts) AS ws, "
        "CAST(count(*) AS BIGINT) AS n FROM events GROUP BY 1, 2), "
        "tot AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS num, "
        "CAST(count(*) AS BIGINT) AS den FROM hc GROUP BY 1), "
        "a AS (SELECT h.event_type, h.ws, h.n, t.num, "
        "sum(h.n * t.den - t.num) OVER (PARTITION BY h.event_type "
        "ORDER BY h.ws) AS at FROM hc h JOIN tot t USING (event_type)), "
        "m AS (SELECT *, least(min(at) OVER (PARTITION BY event_type "
        "ORDER BY ws), 0) AS mn FROM a) "
        "SELECT event_type, ws AS window_start, n AS n_events, "
        "CAST(at - mn AS BIGINT) AS cusum_sc, "
        f"CASE WHEN at - mn > {h_mult} * num THEN 1 ELSE 0 END AS alert "
        "FROM m ORDER BY 1, 2")


RB_INIT = 60     # initial revisit interval (minutes)
RB_MIN = 15      # floor after a change (halving clamp)
RB_MAX = 1440    # ceiling while unchanged (doubling clamp)


def q_recrawl_backoff(sf_dir: str):
    """ADAPTIVE RECRAWL SCHEDULING (the Cho & Garcia-Molina revisit-
    policy primitive every incremental crawler runs): each user_id
    stands for a URL and its events for successive re-fetches in ts
    order (tie-break event_id); a fetch observes content CHANGED iff
    event_id % 3 == 0 (a deterministic stand-in for a digest diff —
    both engines derive it identically). The revisit interval is an
    AIMD-style integer state machine folded over the history:
    changed → max(15, iv // 2), unchanged → min(1440, iv * 2), from
    iv = 60. Output per URL: n_obs, n_changed, final_interval and the
    summed schedule (total minutes of planned waiting) — all exact
    int64, so the DuckDB twin replays the ENTIRE fold via a recursive
    CTE and the gate hashes the whole trajectory's end state.

    Scale shape: ONE user-bucket shuffle; the per-bucket fold is
    vectorized across URLs by observation INDEX (the loop is over the
    max history LENGTH, each step a full-width numpy select over the
    k-th observation of every live URL — never a per-row loop)."""
    ds = read_table(sf_dir, "events",
                    columns=["event_id", "ts", "user_id"])

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        codes, uniq = pd.factorize(g["user_id"])
        changed = (g["event_id"].to_numpy(np.int64) % 3 == 0)
        k = len(uniq)
        ln = np.bincount(codes, minlength=k).astype(np.int64)
        starts = np.cumsum(ln) - ln
        iv = np.full(k, RB_INIT, np.int64)
        tot = np.zeros(k, np.int64)
        for step in range(int(ln.max(initial=0))):
            act = ln > step
            idx = starts[act] + step
            ch = changed[idx]
            cur = iv[act]
            niv = np.where(ch, np.maximum(RB_MIN, cur // 2),
                           np.minimum(RB_MAX, cur * 2))
            iv[act] = niv
            tot[act] += niv
        nch = np.zeros(k, np.int64)
        np.add.at(nch, codes, changed.astype(np.int64))
        out = pd.DataFrame({
            "url_id": pd.Series(uniq, dtype="int64"),
            "n_obs": ln, "n_changed": nch,
            "final_interval": iv, "interval_sum": tot})
        return out

    res = map_buckets(ds, ["user_id"], fold).to_pandas()
    for c in res.columns:
        res[c] = res[c].astype("int64")
    return res.sort_values("url_id").reset_index(drop=True)


def _recrawl_oracle_sql() -> str:
    step = ("CASE WHEN o.changed = 1 "
            f"THEN greatest({RB_MIN}, s.iv // 2) "
            f"ELSE least({RB_MAX}, s.iv * 2) END")
    first = ("CASE WHEN changed = 1 "
             f"THEN greatest({RB_MIN}, {RB_INIT} // 2) "
             f"ELSE least({RB_MAX}, {RB_INIT} * 2) END")
    return (
        "WITH RECURSIVE rbo AS (SELECT user_id AS url_id, "
        "CASE WHEN event_id % 3 = 0 THEN 1 ELSE 0 END AS changed, "
        "row_number() OVER (PARTITION BY user_id "
        "ORDER BY ts, event_id) AS rn FROM events), "
        "rbs(url_id, rn, iv, tot) AS ("
        f"SELECT url_id, 1, {first}, {first} FROM rbo WHERE rn = 1 "
        f"UNION ALL SELECT o.url_id, o.rn, {step}, s.tot + {step} "
        "FROM rbs s JOIN rbo o ON o.url_id = s.url_id "
        "AND o.rn = s.rn + 1), "
        "rbl AS (SELECT url_id, iv, tot FROM (SELECT *, row_number() "
        "OVER (PARTITION BY url_id ORDER BY rn DESC) AS rr FROM rbs) "
        "WHERE rr = 1), "
        "rba AS (SELECT url_id, CAST(count(*) AS BIGINT) AS n_obs, "
        "CAST(sum(changed) AS BIGINT) AS n_changed FROM rbo "
        "GROUP BY 1) "
        "SELECT a.url_id, a.n_obs, a.n_changed, "
        "CAST(l.iv AS BIGINT) AS final_interval, "
        "CAST(l.tot AS BIGINT) AS interval_sum "
        "FROM rba a JOIN rbl l USING (url_id) ORDER BY a.url_id")


# ----------------------------------------------------------------------
# rank statistics (Mann-Whitney AUC, Spearman, Kolmogorov-Smirnov,
# chi-square independence, Gini) — the classifier-evaluation /
# distribution-shift toolkit a training-data pipeline audits with.
# All four rank tests exploit that ``value`` is a BOUNDED-PRECISION
# metric (integer cents): the distinct-value domain is bounded by the
# value RANGE, not the row count, so the final rank scan is over a
# range-bounded histogram no matter how many rows streamed in.
# ----------------------------------------------------------------------

AUC_POS, AUC_NEG = "purchase", "click"
KS_A, KS_B = "purchase", "error"


def _value_type_counts(sf_dir: str, type_a: str, type_b: str) -> pd.DataFrame:
    """Shared combiner for the two-sample rank tests: per distinct
    value-cents, how many events of each of the two types carried it.
    Per-batch (cents, n_a, n_b) partials (zero shuffle) → Ray-side
    bucketed merge → driver holds only the range-bounded histogram."""
    ds = read_table(sf_dir, "events", columns=["event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch["event_type"],
                        value_set=pa.array([type_a, type_b]))
        t = batch.filter(mask)
        a = pc.cast(pc.equal(t["event_type"], type_a), pa.int64())
        return pa.table({"c": pc.cast(pc.round(pc.multiply(
            t["value"], 100.0)), pa.int64()), "a": a,
            "b": pc.subtract(pa.scalar(1, pa.int64()), a)})

    m = aggregate(ds, ["c"], {"n_a": ("a", "sum"), "n_b": ("b", "sum")},
                  partial, in_ray=True).to_pandas()
    return m.sort_values("c").reset_index(drop=True)


def q_auc_mannwhitney(sf_dir: str):
    """MANN-WHITNEY U / ROC-AUC of ``value`` separating purchase
    (positive) from click (negative) events, with EXACT average-tie
    rank handling: all rank arithmetic in DOUBLED integer units
    (2x the tie-averaged rank sum is always an integer), so
    U·2 is an exact int in both engines and the only float is the
    final int→double divide (round-to-nearest-even both sides).
    R1·2 = Σ_v n_a(v)·(2·C_before(v) + t(v) + 1) over distinct values.

    Scale shape: per-batch combiner → Ray bucketed merge → driver
    scan over the range-bounded cents histogram (Python-int
    accumulation — arbitrary precision, no overflow cliff)."""
    m = _value_type_counts(sf_dir, AUC_POS, AUC_NEG)
    na = m["n_a"].to_numpy(np.int64)
    nb = m["n_b"].to_numpy(np.int64)
    t = na + nb
    cb = np.concatenate([[0], np.cumsum(t)[:-1]])
    r1_x2 = sum(int(p) * (2 * int(c) + int(tt) + 1)
                for p, c, tt in zip(na, cb, t) if p)
    n1, n2 = int(na.sum()), int(nb.sum())
    u_x2 = r1_x2 - n1 * (n1 + 1)
    assert abs(u_x2) < 2 ** 62, "AUC doubled-U overflow: widen dtype"
    assert n1 and n2, "AUC needs both classes non-empty (documented contract)"
    auc = float(u_x2) / float(2 * n1 * n2)
    return pd.DataFrame({"n_pos": pd.Series([n1], dtype="int64"),
                         "n_neg": pd.Series([n2], dtype="int64"),
                         "u_x2": pd.Series([u_x2], dtype="int64"),
                         "auc": [auc]})


def _auc_oracle_sql() -> str:
    return (
        "WITH au_f AS (SELECT CAST(round(value * 100) AS BIGINT) AS c, "
        f"CASE WHEN event_type = '{AUC_POS}' THEN 1 ELSE 0 END AS p "
        f"FROM events WHERE event_type IN ('{AUC_POS}', '{AUC_NEG}')), "
        "au_g AS (SELECT c, CAST(sum(p) AS BIGINT) AS np, "
        "CAST(count(*) - sum(p) AS BIGINT) AS nn FROM au_f GROUP BY c), "
        "au_w AS (SELECT np, nn, np + nn AS t, "
        "CAST(coalesce(sum(np + nn) OVER (ORDER BY c ROWS BETWEEN "
        "UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS HUGEINT) AS cb "
        "FROM au_g), "
        "au_s AS (SELECT CAST(sum(CAST(np AS HUGEINT) * "
        "(2 * cb + t + 1)) AS HUGEINT) AS r1x2, "
        "CAST(sum(np) AS HUGEINT) AS n1, "
        "CAST(sum(nn) AS HUGEINT) AS n2 FROM au_w) "
        "SELECT CAST(n1 AS BIGINT) AS n_pos, CAST(n2 AS BIGINT) AS n_neg, "
        "CAST(r1x2 - n1 * (n1 + 1) AS BIGINT) AS u_x2, "
        "CAST(r1x2 - n1 * (n1 + 1) AS DOUBLE) / "
        "CAST(2 * n1 * n2 AS DOUBLE) AS auc FROM au_s")


def q_ks_test_value(sf_dir: str):
    """TWO-SAMPLE KOLMOGOROV-SMIRNOV distance between the value
    distributions of purchase vs error events, as an EXACT RATIONAL:
    D·n1·n2 = max_v |C1(v)·n2 − C2(v)·n1| is an integer (the ECDFs
    only step at distinct cents values, so the max over the histogram
    scan IS the sup over the real line). The only float is the final
    d_num/(n1·n2) divide, identical int→double both engines.

    Scale shape: same combiner + range-bounded histogram scan as the
    AUC; driver work is O(distinct cents)."""
    m = _value_type_counts(sf_dir, KS_A, KS_B)
    ca = np.cumsum(m["n_a"].to_numpy(np.int64))
    cbn = np.cumsum(m["n_b"].to_numpy(np.int64))
    n1, n2 = int(ca[-1]) if len(ca) else 0, int(cbn[-1]) if len(cbn) else 0
    d_num = max((abs(int(a) * n2 - int(b) * n1)
                 for a, b in zip(ca, cbn)), default=0)
    assert d_num < 2 ** 62, "KS numerator overflow: widen dtype"
    assert n1 and n2, "KS needs both samples non-empty (documented contract)"
    ks = float(d_num) / float(n1 * n2)
    return pd.DataFrame({"n_a": pd.Series([n1], dtype="int64"),
                         "n_b": pd.Series([n2], dtype="int64"),
                         "d_num": pd.Series([d_num], dtype="int64"),
                         "ks_stat": [ks]})


def _ks_oracle_sql() -> str:
    return (
        "WITH ks_f AS (SELECT CAST(round(value * 100) AS BIGINT) AS c, "
        f"CASE WHEN event_type = '{KS_A}' THEN 1 ELSE 0 END AS a "
        f"FROM events WHERE event_type IN ('{KS_A}', '{KS_B}')), "
        "ks_g AS (SELECT c, CAST(sum(a) AS BIGINT) AS na, "
        "CAST(count(*) - sum(a) AS BIGINT) AS nb FROM ks_f GROUP BY c), "
        "ks_w AS (SELECT "
        "CAST(sum(na) OVER (ORDER BY c) AS HUGEINT) AS ca, "
        "CAST(sum(nb) OVER (ORDER BY c) AS HUGEINT) AS cb FROM ks_g), "
        "ks_n AS (SELECT CAST(sum(na) AS HUGEINT) AS n1, "
        "CAST(sum(nb) AS HUGEINT) AS n2 FROM ks_g), "
        "ks_d AS (SELECT max(abs(ca * (SELECT n2 FROM ks_n) - "
        "cb * (SELECT n1 FROM ks_n))) AS d FROM ks_w) "
        "SELECT CAST(n1 AS BIGINT) AS n_a, CAST(n2 AS BIGINT) AS n_b, "
        "CAST(d AS BIGINT) AS d_num, "
        "CAST(d AS DOUBLE) / CAST(n1 * n2 AS DOUBLE) AS ks_stat "
        "FROM ks_n CROSS JOIN ks_d")


def q_spearman_rank_corr(sf_dir: str):
    """SPEARMAN RANK CORRELATION between l_quantity and l_discount
    with exact average-tie ranks: both domains are schema-bounded
    (50 quantities × 11 discount steps), so tie-averaged ranks come
    from the marginal counts of a 550-cell contingency table. Ranks
    in DOUBLED units (integers even at ties), Pearson over the
    doubled ranks in arbitrary-precision ints (HUGEINT twin), only
    the final sqrt/divide in float — the pearson_corr recipe applied
    to ranks.

    Scale shape: per-batch (q, d) count combiner, zero shuffle,
    enum-sized driver merge."""
    import math

    ds = read_table(sf_dir, "lineitem",
                    columns=["l_quantity", "l_discount"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "q": pc.cast(pc.round(batch["l_quantity"]), pa.int64()),
            "d": pc.cast(pc.round(pc.multiply(batch["l_discount"], 100.0)),
                         pa.int64())})

    cells = aggregate(ds, ["q", "d"], {"n": ("q", "count")}, prep)

    def doubled_ranks(marg: pd.Series) -> dict[int, int]:
        # tie-averaged rank of value v, doubled: 2·C_before + cnt + 1
        marg = marg.sort_index()
        cb = marg.cumsum().shift(fill_value=0)
        return {int(v): 2 * int(cb[v]) + int(marg[v]) + 1
                for v in marg.index}

    rq = doubled_ranks(cells.groupby("q")["n"].sum())
    rd_ = doubled_ranks(cells.groupby("d")["n"].sum())
    n = sx = sy = sxy = sxx = syy = 0
    for _, row in cells.iterrows():
        cnt, x, y = int(row["n"]), rq[int(row["q"])], rd_[int(row["d"])]
        n += cnt
        sx += cnt * x
        sy += cnt * y
        sxy += cnt * x * y
        sxx += cnt * x * x
        syy += cnt * y * y
    num = n * sxy - sx * sy
    vx = n * sxx - sx * sx
    vy = n * syy - sy * sy
    rho = 0.0 if vx <= 0 or vy <= 0 else \
        float(num) / (math.sqrt(float(vx)) * math.sqrt(float(vy)))
    return pd.DataFrame({"n": pd.Series([n], dtype="int64"),
                         "rho": [rho]})


def _spearman_oracle_sql() -> str:
    return (
        "WITH sp_v AS (SELECT CAST(round(l_quantity) AS BIGINT) AS q, "
        "CAST(round(l_discount * 100) AS BIGINT) AS d FROM lineitem), "
        # doubled tie-averaged ranks from the marginals
        "sp_rq AS (SELECT q, CAST(2 * (coalesce(sum(cnt) OVER (ORDER "
        "BY q ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)) "
        "+ cnt + 1 AS HUGEINT) AS x FROM (SELECT q, count(*) AS cnt "
        "FROM sp_v GROUP BY q)), "
        "sp_rd AS (SELECT d, CAST(2 * (coalesce(sum(cnt) OVER (ORDER "
        "BY d ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)) "
        "+ cnt + 1 AS HUGEINT) AS y FROM (SELECT d, count(*) AS cnt "
        "FROM sp_v GROUP BY d)), "
        "sp_j AS (SELECT x, y FROM sp_v v JOIN sp_rq USING (q) "
        "JOIN sp_rd USING (d)), "
        "sp_s AS (SELECT CAST(count(*) AS HUGEINT) AS n, "
        "sum(x) AS sx, sum(y) AS sy, sum(x * y) AS sxy, "
        "sum(x * x) AS sxx, sum(y * y) AS syy FROM sp_j), "
        "sp_t AS (SELECT n, n * sxy - sx * sy AS num, "
        "n * sxx - sx * sx AS vx, n * syy - sy * sy AS vy FROM sp_s) "
        "SELECT CAST(n AS BIGINT) AS n, "
        "CASE WHEN vx <= 0 OR vy <= 0 THEN 0.0 ELSE "
        "CAST(num AS DOUBLE) / (sqrt(CAST(vx AS DOUBLE)) * "
        "sqrt(CAST(vy AS DOUBLE))) END AS rho FROM sp_t")


def q_chi2_type_hour(sf_dir: str):
    """CHI-SQUARE TEST OF INDEPENDENCE between event_type and
    hour-of-day, per cell, ENTIRELY IN INTEGERS: the per-cell
    statistic (O−E)²/E = (O·N − R·C)² / (N·R·C) is emitted as an
    exact e6 floor — (O·N − R·C)²·10⁶ // (N·R·C) — computed in
    arbitrary-precision ints (HUGEINT twin), so no float ever enters
    the gate. Zero cells of the full type × hour grid are included
    (they carry E > 0 and contribute R·C²·10⁶-scale mass).

    Scale shape: enum × 24 contingency combiner, zero shuffle, tiny
    driver merge; the statistic is O(cells) driver arithmetic."""
    ds = read_table(sf_dir, "events", columns=["event_type", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        us = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"event_type": batch["event_type"],
                         "hour": (us // 3_600_000_000) % 24})

    cells = aggregate(ds, ["event_type", "hour"], {"o": ("hour", "count")},
                      prep)
    r = {k: int(v) for k, v in
         cells.groupby("event_type")["o"].sum().items()}
    c = {int(k): int(v) for k, v in
         cells.groupby("hour")["o"].sum().items()}
    n = sum(r.values())
    obs = {(t, int(h)): int(o) for t, h, o in
           zip(cells["event_type"], cells["hour"], cells["o"])}
    rows = []
    for t in sorted(r):
        for h in sorted(c):
            o = obs.get((t, h), 0)
            num = (o * n - r[t] * c[h]) ** 2 * 10 ** 6
            den = n * r[t] * c[h]
            chi2_e6 = num // den
            assert chi2_e6 < 2 ** 62, "chi2 e6 overflow: drop to e3"
            rows.append((t, h, o, chi2_e6))
    return pd.DataFrame(rows, columns=["event_type", "hour", "o",
                                       "chi2_e6"])


def _chi2_oracle_sql() -> str:
    return (
        "WITH c2_e AS (SELECT event_type, "
        "CAST((epoch_us(ts) // 3600000000) % 24 AS BIGINT) AS hr "
        "FROM events), "
        "c2_c AS (SELECT event_type, hr, CAST(count(*) AS BIGINT) AS o "
        "FROM c2_e GROUP BY 1, 2), "
        "c2_r AS (SELECT event_type, CAST(count(*) AS HUGEINT) AS rt "
        "FROM c2_e GROUP BY 1), "
        "c2_h AS (SELECT hr, CAST(count(*) AS HUGEINT) AS ch "
        "FROM c2_e GROUP BY 1), "
        "c2_n AS (SELECT CAST(count(*) AS HUGEINT) AS nn FROM c2_e), "
        "c2_x AS (SELECT r.event_type, h.hr, "
        "CAST(coalesce(c.o, 0) AS HUGEINT) AS o, r.rt, h.ch "
        "FROM c2_r r CROSS JOIN c2_h h LEFT JOIN c2_c c "
        "ON c.event_type = r.event_type AND c.hr = h.hr) "
        "SELECT event_type, hr AS hour, CAST(o AS BIGINT) AS o, "
        "CAST(((o * nn - rt * ch) * (o * nn - rt * ch) * 1000000) "
        "// (nn * rt * ch) AS BIGINT) AS chi2_e6 "
        "FROM c2_x CROSS JOIN c2_n ORDER BY 1, 2")


def q_theil_sen_trend(sf_dir: str):
    """THEIL–SEN ROBUST TREND per user over purchase events: the
    median of all pairwise slopes (Δcents/Δhours), emitted as the
    EXACT RATIONAL (med_num, med_den) of the selected pair — no float
    in the gate. Median selection is fully deterministic both
    engines: order by (slope as IEEE double, then dy, then dx) and
    take the lower median; two distinct pairs that collide on all
    three keys emit identical values. Pairs at equal x (vertical) are
    excluded, per the standard estimator.

    Scale shape: user-bucketed map_buckets; the per-user pair
    enumeration is quadratic in that user's PURCHASE count, which the
    event stream bounds at ~tens per user (documented per-group
    bound — a pathological power user is capped by the groupby
    bucket, not the driver)."""
    ds = read_table(sf_dir, "events",
                    columns=["user_id", "ts", "value", "event_type"])

    def to_xy(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["event_type"], "purchase"))
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "user_id": t["user_id"],
            "x": pa.array((us - REGR_EPOCH_US) // 3_600_000_000),
            "y": pc.cast(pc.round(pc.multiply(t["value"],
                                              pa.scalar(100.0))),
                         pa.int64())})

    def med_bucket(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for uid, grp in g.groupby("user_id"):
            order = np.lexsort((grp["y"].to_numpy(np.int64),
                                grp["x"].to_numpy(np.int64)))
            x = grp["x"].to_numpy(np.int64)[order]
            y = grp["y"].to_numpy(np.int64)[order]
            i, j = np.triu_indices(len(x), 1)
            keep = x[j] > x[i]
            if not keep.any():
                continue
            dy = y[j][keep] - y[i][keep]
            dx = x[j][keep] - x[i][keep]
            slope = dy / dx
            sel = np.lexsort((dx, dy, slope))[(len(dy) - 1) // 2]
            outs.append((int(uid), len(dy), int(dy[sel]),
                         int(dx[sel])))
        return pd.DataFrame(outs, columns=["user_id", "n_pairs",
                                           "med_num", "med_den"]) \
            if outs else pd.DataFrame({
                "user_id": pd.Series([], dtype="int64"),
                "n_pairs": pd.Series([], dtype="int64"),
                "med_num": pd.Series([], dtype="int64"),
                "med_den": pd.Series([], dtype="int64")})

    out = (map_buckets(ds.map_batches(to_xy, batch_format="pyarrow"),
                       ["user_id"], med_bucket)
           .to_pandas())
    cols = ["user_id", "n_pairs", "med_num", "med_den"]
    if out.empty or "user_id" not in out.columns:
        return pd.DataFrame({c: pd.Series([], dtype="int64")
                             for c in cols})
    out = out[cols]
    for c in cols:
        out[c] = out[c].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def _theil_sen_oracle_sql() -> str:
    return (
        "WITH th_e AS (SELECT user_id, "
        f"(epoch_us(ts) - {REGR_EPOCH_US}) // 3600000000 AS x, "
        "CAST(round(value * 100) AS BIGINT) AS y FROM events "
        "WHERE event_type = 'purchase'), "
        "th_p AS (SELECT a.user_id, b.y - a.y AS dy, b.x - a.x AS dx "
        "FROM th_e a JOIN th_e b ON b.user_id = a.user_id "
        "AND b.x > a.x), "
        "th_r AS (SELECT user_id, dy, dx, row_number() OVER "
        "(PARTITION BY user_id ORDER BY CAST(dy AS DOUBLE) / dx, "
        "dy, dx) AS rn, count(*) OVER (PARTITION BY user_id) AS m "
        "FROM th_p) "
        "SELECT user_id, CAST(m AS BIGINT) AS n_pairs, "
        "CAST(dy AS BIGINT) AS med_num, CAST(dx AS BIGINT) AS med_den "
        "FROM th_r WHERE rn = (m + 1) // 2 ORDER BY user_id")


def q_gini_revenue(sf_dir: str):
    """GINI COEFFICIENT of per-customer order revenue (the inequality
    summary a crawl-budget allocator reads before rebalancing):
    G = (2·Σᵢ i·xᵢ − (n+1)·Σx) / (n·Σx) over rank-sorted totals.
    Tie blocks make Σ i·x order-invariant, so row_number semantics
    are deterministic; all inner terms exact ints (Python bigint /
    HUGEINT), final float is one int→double divide.

    Scale shape: per-customer totals via Ray bucketed merge
    (distributed), then a DISTINCT-TOTALS histogram (second bucketed
    merge) — the driver scan is over distinct cent-totals, which
    integer cents compress far below row count; at 10⁸+ customers
    with near-unique totals, swap the final scan for a distributed
    sort + per-block offset pass (same formula)."""
    ds = read_table(sf_dir, "orders",
                    columns=["o_custkey", "o_totalprice"])

    totals = aggregate(ds, ["o_custkey"], {"x": ("x", "sum")},
                       lambda t: pa.table({
                           "o_custkey": t["o_custkey"],
                           "x": pc.cast(pc.round(pc.multiply(
                               t["o_totalprice"], 100.0)), pa.int64())}),
                       in_ray=True)

    def hist_partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({"x": batch["x"]
                           .to_numpy(zero_copy_only=False), "cnt": 1})
        return pa.Table.from_pandas(
            df.groupby("x", as_index=False).sum(), preserve_index=False)

    hist = merge_partials_ray(
        totals.map_batches(hist_partial, batch_format="pyarrow"),
        ["x"], {"cnt": "sum"}).to_pandas().sort_values("x") \
        .reset_index(drop=True)
    n = s1 = sx = 0
    for v, cnt in zip(hist["x"], hist["cnt"]):
        v, cnt = int(v), int(cnt)
        s1 += v * (cnt * n + cnt * (cnt + 1) // 2)
        n += cnt
        sx += v * cnt
    assert n and sx, "Gini needs >=1 customer with non-zero revenue"
    gini = float(2 * s1 - (n + 1) * sx) / float(n * sx)
    return pd.DataFrame({"n_customers": pd.Series([n], dtype="int64"),
                         "total_cents": pd.Series([sx], dtype="int64"),
                         "gini": [gini]})


def _gini_oracle_sql() -> str:
    return (
        "WITH gi_t AS (SELECT o_custkey, "
        "CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) "
        "AS x FROM orders GROUP BY 1), "
        "gi_r AS (SELECT x, CAST(row_number() OVER (ORDER BY x) "
        "AS HUGEINT) AS i FROM gi_t), "
        "gi_s AS (SELECT CAST(sum(CAST(x AS HUGEINT) * i) AS HUGEINT) "
        "AS s1, CAST(count(*) AS HUGEINT) AS n, "
        "CAST(sum(CAST(x AS HUGEINT)) AS HUGEINT) AS sx FROM gi_r) "
        "SELECT CAST(n AS BIGINT) AS n_customers, "
        "CAST(sx AS BIGINT) AS total_cents, "
        "CAST(2 * s1 - (n + 1) * sx AS DOUBLE) / "
        "CAST(n * sx AS DOUBLE) AS gini FROM gi_s")


POLITE_REPLAY_T_US = 30_000_000  # 30 s per-host min fetch interval
POLITE_REPLAY_HOSTS = 64


def q_politeness_wait_replay(sf_dir: str):
    """POLITENESS WAIT-TIME REPLAY: the per-host FIFO min-interval
    schedule (the semantics the frontier's token buckets enforce with
    rate = 1/T — reference feedback controller
    master/src/models/crawltask.model.ts:449-478, our
    state/politeness.py) replayed EXACTLY over a deterministic claim
    stream. Claims = events rows, host = user_id % 64, claim time =
    event ts in µs. Each host serves claims FIFO (by ts, event_id)
    no closer than T=30 s apart:

        sched_i = max(t_i, sched_{i-1} + T)

    which is max-plus and has the closed form
    sched_i = i*T + max_{j<=i}(t_j - j*T) — a per-host RUNNING MAX, so
    both engines compute it with one window/cummax instead of a
    sequential fold. Output per host: claim count, total/max wait and
    the schedule end, all exact int64 µs.

    Scale shape: claims are host-bucketed (tag_bucket_fn) so each
    map_buckets bucket holds whole hosts; inside a bucket the fold is
    a vectorized pandas groupby cummax, never a Python loop."""
    T = POLITE_REPLAY_T_US
    ds = read_table(sf_dir, "events",
                    columns=["event_id", "ts", "user_id"])

    def to_claims(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "host": pa.array(uid % POLITE_REPLAY_HOSTS,
                             type=pa.int64()),
            "t": batch["ts"].cast(pa.int64()),
            "event_id": batch["event_id"]})

    def sched_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["host", "t", "event_id"],
                          kind="mergesort").reset_index(drop=True)
        host = g["host"].to_numpy(np.int64)
        t = g["t"].to_numpy(np.int64)
        i = g.groupby("host").cumcount().to_numpy(np.int64)
        mx = pd.Series(t - i * T).groupby(host).cummax() \
            .to_numpy(np.int64)
        sched = mx + i * T
        wait = sched - t
        out = pd.DataFrame({"host": host, "wait": wait,
                            "sched": sched})
        r = out.groupby("host", as_index=False).agg(
            n_claims=("wait", "size"),
            total_wait_us=("wait", "sum"),
            max_wait_us=("wait", "max"),
            last_sched_us=("sched", "max"))
        for c in r.columns:
            r[c] = r[c].astype("int64")
        return r

    out = (map_buckets(ds.map_batches(to_claims, batch_format="pyarrow"),
                       ["host"], sched_bucket)
           .to_pandas())
    cols = ["host", "n_claims", "total_wait_us", "max_wait_us",
            "last_sched_us"]
    if out.empty or "host" not in out.columns:
        return pd.DataFrame({c: pd.Series([], dtype="int64")
                             for c in cols})
    out = out[cols]
    for c in cols:
        out[c] = out[c].astype("int64")
    return out.sort_values("host").reset_index(drop=True)


def _politeness_wait_oracle_sql() -> str:
    T = POLITE_REPLAY_T_US
    H = POLITE_REPLAY_HOSTS
    return (
        f"WITH pw AS (SELECT user_id % {H} AS host, epoch_us(ts) AS t, "
        "event_id FROM events), "
        "pr AS (SELECT host, t, row_number() OVER (PARTITION BY host "
        "ORDER BY t, event_id) - 1 AS i FROM pw), "
        f"pm AS (SELECT host, t, i, max(t - i * {T}) OVER "
        "(PARTITION BY host ORDER BY i) AS mx FROM pr), "
        f"ps AS (SELECT host, t, mx + i * {T} AS sched FROM pm) "
        "SELECT CAST(host AS BIGINT) AS host, "
        "CAST(count(*) AS BIGINT) AS n_claims, "
        "CAST(sum(sched - t) AS BIGINT) AS total_wait_us, "
        "CAST(max(sched - t) AS BIGINT) AS max_wait_us, "
        "CAST(max(sched) AS BIGINT) AS last_sched_us "
        "FROM ps GROUP BY host ORDER BY host")


LRU_KEYS = 512
LRU_CAPS = (16, 64, 256)


def q_lru_cache_stats(sf_dir: str):
    """EXACT LRU CACHE REPLAY (robots/DNS cache sizing — the caches
    the crawl engine keeps per host, state/politeness.py; reference
    keeps robots state per task in proxy handlers) via the classic
    STACK-DISTANCE property (Mattson et al. 1970): access i to key k
    hits an LRU cache of capacity C iff the number of DISTINCT keys
    accessed strictly between k's previous access and i is < C —
    so ONE replay grades every capacity at once, no sequential cache
    simulation in either engine. Access stream = events ordered by
    ts (µs timestamps are unique in this corpus — asserted at the
    index build, so both engines see the same total order); key =
    user_id % 512 (the host universe). Output: per capacity in
    {16,64,256}: total accesses, compulsory misses (first touch),
    capacity misses and hits, all exact int64.

    Dominance form used by both engines: with prev_i = previous
    access time of key_i (−1 if none), the stack distance is
    d_i = #{j : prev_i < t_j < t_i and prev_j <= prev_i} — each such
    j is the FIRST occurrence of its key inside the interval. The
    oracle computes d_i with one inequality join; the Ray side probes
    a per-key CSR occurrence index with two vectorized searchsorteds
    per key (a loop over the 512-key UNIVERSE, not over rows).

    Scale shape: prev is a key-bucketed grouped shift; the occurrence
    index is O(stream) int64s assembled from streamed blocks and
    ray.put once — exact replay is the documented ≤10^8-access audit
    tier, with sampled-stream replay (SHARDS) as the 100-TB path."""
    K, CAPS = LRU_KEYS, LRU_CAPS
    ds = read_table(sf_dir, "events", columns=["ts", "user_id"])

    def to_claims(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "k": pa.array(uid % K, type=pa.int64()),
            "t": batch["ts"].cast(pa.int64())})

    # corpus-sized pin (two consumers: the index build and the probe
    # pass) — object-store/spill-resident blocks, never driver heap
    claims = ds.map_batches(to_claims,
                            batch_format="pyarrow").materialize()

    # occurrence index: per-key sorted access times, CSR layout.
    # Assembled from streamed blocks (never a full-corpus pandas
    # frame); one ray.put, zero-copy reads in every probe task.
    karr, tarr = [], []
    for b in claims.iter_batches(batch_format="pyarrow",
                                 batch_size=65536):
        karr.append(b["k"].to_numpy(zero_copy_only=False))
        tarr.append(b["t"].to_numpy(zero_copy_only=False))
    kv = np.concatenate(karr) if karr else np.empty(0, np.int64)
    tv = np.concatenate(tarr) if tarr else np.empty(0, np.int64)
    order = np.lexsort((tv, kv))
    kv, tv = kv[order], tv[order]
    n_total = len(tv)
    assert len(np.unique(tv)) == n_total, \
        "duplicate access timestamps: LRU order undefined"
    off = np.searchsorted(kv, np.arange(K + 1))
    idx_ref = ray.put((off, tv))

    def prev_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["k", "t"], kind="mergesort") \
             .reset_index(drop=True)
        prev = g.groupby("k")["t"].shift(1).fillna(-1).astype("int64")
        return pd.DataFrame({"t": g["t"].astype("int64"),
                             "prev": prev})

    def count_batch(batch: pa.Table) -> pa.Table:
        off_, pos_ = ray.get(idx_ref)
        t = batch["t"].to_numpy(zero_copy_only=False)
        p = batch["prev"].to_numpy(zero_copy_only=False)
        q = p >= 0
        tq, pq = t[q], p[q]
        d = np.zeros(len(tq), dtype=np.int64)
        for key in range(K):
            occ = pos_[off_[key]:off_[key + 1]]
            if len(occ) == 0:
                continue
            lb = np.searchsorted(occ, pq, side="right")
            ub = np.searchsorted(occ, tq, side="left")
            d += (ub > lb).astype(np.int64)
        row = {"compulsory": [int(len(t) - q.sum())],
               "n_seen": [int(len(t))]}
        for c in CAPS:
            row[f"hits_{c}"] = [int((d < c).sum())]
        return pa.table({k2: pa.array(v, pa.int64())
                         for k2, v in row.items()})

    partials = (map_buckets(claims, ["k"], prev_bucket)
                .map_batches(count_batch, batch_format="pyarrow")
                .to_pandas())
    comp = int(partials["compulsory"].sum())
    n_seen = int(partials["n_seen"].sum())
    assert n_seen == n_total
    rows = []
    for c in CAPS:
        hits = int(partials[f"hits_{c}"].sum())
        rows.append((c, n_total, comp, n_total - comp - hits, hits))
    out = pd.DataFrame(rows, columns=[
        "capacity", "n_accesses", "compulsory_misses",
        "capacity_misses", "hits"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _lru_oracle_sql() -> str:
    caps = ",".join(f"({c})" for c in LRU_CAPS)
    return (
        f"WITH la AS (SELECT epoch_us(ts) AS t, user_id % {LRU_KEYS} "
        "AS k FROM events), "
        "lv AS (SELECT t, lag(t, 1, -1) OVER (PARTITION BY k "
        "ORDER BY t) AS prev FROM la), "
        "lq AS (SELECT t, prev FROM lv WHERE prev >= 0), "
        "ld AS (SELECT x.t, count(y.t) AS sd FROM lq x "
        "LEFT JOIN lv y ON y.t > x.prev AND y.t < x.t "
        "AND y.prev <= x.prev GROUP BY x.t), "
        "lt AS (SELECT count(*) AS na, "
        "count(*) FILTER (prev < 0) AS cm FROM lv), "
        # driven from the capacities VALUES list (not ld): a corpus
        # where every access is compulsory (no key reuse) leaves ld
        # empty, yet the engine still emits one row per capacity with
        # zero hits/capacity-misses — LEFT JOIN keeps those rows.
        "ls AS (SELECT c2.capacity, "
        "count(*) FILTER (ld.sd >= c2.capacity) AS capmiss, "
        "count(*) FILTER (ld.sd < c2.capacity) AS hit "
        f"FROM ld CROSS JOIN (VALUES {caps}) c2(capacity) GROUP BY 1) "
        "SELECT CAST(c.capacity AS BIGINT) AS capacity, "
        "CAST(lt.na AS BIGINT) AS n_accesses, "
        "CAST(lt.cm AS BIGINT) AS compulsory_misses, "
        "CAST(coalesce(ls.capmiss, 0) AS BIGINT) AS capacity_misses, "
        "CAST(coalesce(ls.hit, 0) AS BIGINT) AS hits "
        f"FROM (VALUES {caps}) c(capacity) CROSS JOIN lt "
        "LEFT JOIN ls ON ls.capacity = c.capacity "
        "ORDER BY c.capacity")


def _hourly_type_counts(sf_dir: str) -> pd.DataFrame:
    """(event_type, h, n): events of each type in each hour since the
    epoch. Enum types x clock hours, so the merge runs on the driver."""
    ds = read_table(sf_dir, "events", columns=["event_type", "ts"])
    return aggregate(ds, ["event_type", "h"], {"n": ("h", "count")},
                     lambda t: pa.table({
                         "event_type": t["event_type"],
                         "h": pc.divide(pc.cast(t["ts"], pa.int64()),
                                        pa.scalar(3_600_000_000, pa.int64()))}))


ACF_LAGS = (1, 2, 3, 6, 12, 24)


def q_acf_hourly(sf_dir: str):
    """AUTOCORRELATION COMPONENTS of the hourly event-count series
    per type, at lags {1,2,3,6,12,24} — the seasonality probe behind
    crawl-rate scheduling (is traffic hourly-periodic? daily?). The
    series is DENSE over the global [min,max] hour range (missing
    hours count 0 — unlike CUSUM's observed-hours contract, zeros
    carry signal here). Per (type, lag) the output is the exact
    integer Pearson building blocks over the aligned pairs
    (x_t, x_{t+L}): n_pairs, Σxy, Σx, Σy, Σx², Σy² — no float ever,
    so the gate is exact; r is one downstream divide.

    Scale shape: one data-sized combiner pass (per-batch Arrow
    group_by on (type, hour)) → enum×time-bounded driver merge (the
    CUSUM/OHLC contract) → vectorized densify + shifted dot products
    per type. The lag products never touch row data."""
    hc = _hourly_type_counts(sf_dir)
    h0, h1 = int(hc["h"].min()), int(hc["h"].max())
    grid = np.arange(h0, h1 + 1, dtype=np.int64)
    rows = []
    for et, g in hc.groupby("event_type", sort=True):
        x = np.zeros(len(grid), dtype=np.int64)
        x[g["h"].to_numpy(np.int64) - h0] = g["n"].to_numpy(np.int64)
        assert int(x.max(initial=0)) ** 2 * len(x) < 2 ** 62, \
            "acf sums would overflow int64"
        for lag in ACF_LAGS:
            if lag >= len(x):
                continue
            a, b = x[:-lag], x[lag:]
            rows.append((et, lag, len(a), int(a @ b), int(a.sum()),
                         int(b.sum()), int(a @ a), int(b @ b)))
    out = pd.DataFrame(rows, columns=[
        "event_type", "lag", "n_pairs", "sum_xy", "sum_x", "sum_y",
        "sum_x2", "sum_y2"])
    return out.sort_values(["event_type", "lag"]) \
        .reset_index(drop=True)


def _acf_oracle_sql() -> str:
    lags = ",".join(f"({v})" for v in ACF_LAGS)
    return (
        "WITH af_e AS (SELECT event_type, "
        "epoch_us(ts) // 3600000000 AS h FROM events), "
        "af_c AS (SELECT event_type, h, CAST(count(*) AS BIGINT) AS n "
        "FROM af_e GROUP BY 1, 2), "
        "af_b AS (SELECT min(h) AS h0, max(h) AS h1 FROM af_e), "
        "af_t AS (SELECT DISTINCT event_type FROM af_e), "
        "af_g AS (SELECT t.event_type, "
        "unnest(generate_series(b.h0, b.h1)) AS h "
        "FROM af_t t CROSS JOIN af_b b), "
        "af_d AS (SELECT g.event_type, g.h, "
        "CAST(coalesce(c.n, 0) AS BIGINT) AS x FROM af_g g "
        "LEFT JOIN af_c c ON c.event_type = g.event_type "
        "AND c.h = g.h), "
        f"af_l AS (SELECT CAST(l.lag AS BIGINT) AS lag, a.event_type, "
        "a.x AS x, b.x AS y "
        f"FROM (VALUES {lags}) l(lag) "
        "JOIN af_d a ON true "
        "JOIN af_d b ON b.event_type = a.event_type "
        "AND b.h = a.h + l.lag) "
        "SELECT event_type, lag, CAST(count(*) AS BIGINT) AS n_pairs, "
        "CAST(sum(x * y) AS BIGINT) AS sum_xy, "
        "CAST(sum(x) AS BIGINT) AS sum_x, "
        "CAST(sum(y) AS BIGINT) AS sum_y, "
        "CAST(sum(x * x) AS BIGINT) AS sum_x2, "
        "CAST(sum(y * y) AS BIGINT) AS sum_y2 "
        "FROM af_l GROUP BY 1, 2 ORDER BY 1, 2")


def q_orphan_audit(sf_dir: str):
    """REFERENTIAL-INTEGRITY ORPHAN AUDIT across every FK edge of the
    corpus (the data-quality gate a 100-TB ingest runs before joins
    are trusted — the engine's broadcast probes assert FK membership,
    ADVICE r03 item 3; this op measures it corpus-wide instead of
    asserting): per edge, child row count, orphan row count and
    distinct orphan keys. Includes one cross-domain probe
    (events.user_id vs customer.c_custkey) with no schema-level FK
    guarantee (it happens to hold in this corpus; the non-zero path
    is pinned by the crafted test instead).

    Scale shape: dimension-parent edges broadcast the parent key set
    (ray.put once, vectorized pc.is_in per batch — dimension tables
    are the documented small side); the one fact→fact edge
    (lineitem→orders) runs the distributed bucketed anti-join, no
    driver key set. Orphan-key sets are violation-sized by contract
    (healthy corpora: zero)."""
    from ..stages.joins import bucketed_anti_join

    def bcast_edge(name, child, ckey, parent, pkey):
        keys_ref = ray.put(pa.array(sorted(
            read_table(sf_dir, parent, columns=[pkey]).unique(pkey))))
        ds = read_table(sf_dir, child, columns=[ckey])

        def part(batch: pa.Table) -> pa.Table:
            ks = ray.get(keys_ref)
            miss = batch.filter(
                pc.invert(pc.is_in(batch[ckey], value_set=ks)))
            u = pc.unique(miss[ckey].combine_chunks())
            return pa.table({
                "n_child": pa.array([batch.num_rows], pa.int64()),
                "n_orphan_rows": pa.array([miss.num_rows], pa.int64()),
                "orphan_keys": pa.array(
                    [u.to_pylist()], pa.list_(pa.int64()))})

        p = ds.map_batches(part, batch_format="pyarrow").to_pandas()
        keys = set()
        for lst in p["orphan_keys"]:
            keys.update(lst)
        return (name, int(p["n_child"].sum()),
                int(p["n_orphan_rows"].sum()), len(keys))

    rows = [
        bcast_edge("customer->nation", "customer", "c_nationkey",
                   "nation", "n_nationkey"),
        bcast_edge("events->customer", "events", "user_id",
                   "customer", "c_custkey"),
        bcast_edge("lineitem->part", "lineitem", "l_partkey",
                   "part", "p_partkey"),
        bcast_edge("lineitem->supplier", "lineitem", "l_suppkey",
                   "supplier", "s_suppkey"),
        bcast_edge("nation->region", "nation", "n_regionkey",
                   "region", "r_regionkey"),
        bcast_edge("orders->customer", "orders", "o_custkey",
                   "customer", "c_custkey"),
        bcast_edge("supplier->nation", "supplier", "s_nationkey",
                   "nation", "n_nationkey"),
    ]
    # the fact->fact edge: distributed bucketed anti-join, then
    # violation-sized counts
    li = read_table(sf_dir, "lineitem", columns=["l_orderkey"])
    ok = read_table(sf_dir, "orders", columns=["o_orderkey"]) \
        .map_batches(lambda t: pa.table(
            {"l_orderkey": pc.unique(t["o_orderkey"].combine_chunks())}),
            batch_format="pyarrow")
    orph = bucketed_anti_join(li, ok, on="l_orderkey").materialize()
    rows.append(("lineitem->orders", li.count(), orph.count(),
                 len(orph.unique("l_orderkey")) if orph.count() else 0))
    out = pd.DataFrame(rows, columns=["fk_edge", "n_child",
                                      "n_orphan_rows",
                                      "n_orphan_keys"])
    for c in out.columns[1:]:
        out[c] = out[c].astype("int64")
    return out.sort_values("fk_edge").reset_index(drop=True)


def _orphan_oracle_sql() -> str:
    def edge(name, child, ckey, parent, pkey):
        return (
            f"SELECT '{name}' AS fk_edge, "
            f"(SELECT CAST(count(*) AS BIGINT) FROM {child}) AS n_child, "
            f"CAST(count({ckey}) AS BIGINT) AS n_orphan_rows, "
            f"CAST(count(DISTINCT {ckey}) AS BIGINT) AS n_orphan_keys "
            f"FROM {child} LEFT JOIN {parent} ON {ckey} = {pkey} "
            f"WHERE {pkey} IS NULL")
    parts = [
        edge("customer->nation", "customer", "c_nationkey",
             "nation", "n_nationkey"),
        edge("events->customer", "events", "user_id",
             "customer", "c_custkey"),
        edge("lineitem->orders", "lineitem", "l_orderkey",
             "orders", "o_orderkey"),
        edge("lineitem->part", "lineitem", "l_partkey",
             "part", "p_partkey"),
        edge("lineitem->supplier", "lineitem", "l_suppkey",
             "supplier", "s_suppkey"),
        edge("nation->region", "nation", "n_regionkey",
             "region", "r_regionkey"),
        edge("orders->customer", "orders", "o_custkey",
             "customer", "c_custkey"),
        edge("supplier->nation", "supplier", "s_nationkey",
             "nation", "n_nationkey"),
    ]
    return " UNION ALL ".join(parts) + " ORDER BY fk_edge"


ROBOTS_SEED = 42


def q_robots_verdict_stats(sf_dir: str):
    """ROBOTS VERDICT AUDIT — hash-gates the engine's ACTUAL
    RobotsCache (state/politeness.py:117-160; the north star's robots
    layer, absent from the reference) against a full SQL replay of
    its hash algebra: per host the disallow mask is built from the
    first two DISTINCT nibbles of stable_hash64(host, seed^0x0B07)
    under 4-bit rotation, and a URL is denied when
    stable_hash64(first_path_segment, seed^0x70B0) & 0xF lands in the
    mask. URL universe: one URL per document,
    http://{source}.example/d{doc_id} — so hosts are the sources and
    every segment is distinct. Output per source: host, mask, URL /
    allowed / denied counts. The Ray side takes each host's mask from
    the LIVE RobotsCache object (so any drift in the engine function
    breaks the gate) and vectorizes the per-URL verdict with the
    byte-position FNV (hashing.stable_hash64_col_np — bit-identical,
    no per-row Python on the corpus-scale segment column).

    Scale shape: masks are host-universe-sized (broadcast once);
    verdicts are one vectorized hash + bit probe per batch; counts
    are enum-keyed combiner partials."""
    from ..functions.hashing import stable_hash64_col_np
    from ..state.politeness import RobotsCache

    ds = read_table(sf_dir, "documents", columns=["doc_id", "source"])
    parts = ds.map_batches(
        lambda t: pa.table({"source": pc.unique(t["source"])}),
        batch_format="pyarrow").to_pandas()
    srcs = sorted(set(parts["source"]))
    rc = RobotsCache(seed=ROBOTS_SEED)
    src_arr = np.array(srcs, dtype=object)
    masks = np.array([rc._rules(f"{s}.example") for s in srcs],
                     np.int64)
    mref = ray.put((src_arr, masks))

    def prep(batch: pa.Table) -> pa.Table:
        sa, mk = ray.get(mref)
        seg = pa.array(np.char.add(
            "d", batch["doc_id"].to_numpy(zero_copy_only=False)
            .astype("U")))
        shard = (stable_hash64_col_np(seg, ROBOTS_SEED ^ 0x70B0)
                 & np.uint64(0xF)).astype(np.int64)
        codes, uniq = pd.factorize(
            batch["source"].to_numpy(zero_copy_only=False))
        mrow = mk[np.searchsorted(sa, uniq)][codes]
        return pa.table({"source": batch["source"],
                         "denied": pa.array((mrow >> shard) & 1)})

    agg = aggregate(ds, ["source"], {"n_urls": ("denied", "count"),
                                     "n_denied": ("denied", "sum")}, prep)
    agg["host"] = agg["source"].astype(str) + ".example"
    agg["mask"] = masks[np.searchsorted(src_arr,
                                        agg["source"].to_numpy())]
    agg["n_allowed"] = agg["n_urls"] - agg["n_denied"]
    out = agg[["source", "host", "mask", "n_urls", "n_allowed",
               "n_denied"]]
    return out.sort_values("source").reset_index(drop=True)


def _robots_oracle_sql() -> str:
    from ..functions.sqlmirror import stable_hash64_cte
    w1, c1 = stable_hash64_cte(
        "SELECT source, source || '.example' AS host FROM "
        "(SELECT DISTINCT source FROM documents)",
        "host", {"hh": ROBOTS_SEED ^ 0x0B07},
        carry_cols=("source",), prefix="rh_")
    w2, c2 = stable_hash64_cte(
        "SELECT source, 'd' || CAST(doc_id AS VARCHAR) AS seg "
        "FROM documents",
        "seg", {"sh": ROBOTS_SEED ^ 0x70B0},
        carry_cols=("source",), prefix="rg_", include_with=False)
    return w1 + w2 + (
        ", rb_h AS (SELECT source, host, hh, "
        f"CAST(hh % 16 AS BIGINT) AS n0 FROM {c1}), "
        "rb_j AS (SELECT h.source, h.n0, gs.generate_series AS j, "
        "CAST((h.hh >> CAST(4 * gs.generate_series AS INTEGER)) "
        "& 15 AS BIGINT) AS nj "
        "FROM rb_h h CROSS JOIN generate_series(1, 15) gs), "
        "rb_d AS (SELECT source, nj AS n1, row_number() OVER "
        "(PARTITION BY source ORDER BY j) AS rn FROM rb_j "
        "WHERE nj != n0), "
        "rb_m AS (SELECT h.source, h.host, CASE WHEN h.hh = 0 THEN 1 "
        "ELSE ((CAST(1 AS BIGINT) << h.n0) | "
        "(CAST(1 AS BIGINT) << coalesce(d.n1, h.n0))) END AS mask "
        "FROM rb_h h LEFT JOIN (SELECT source, n1 FROM rb_d "
        "WHERE rn = 1) d USING (source)), "
        f"rb_v AS (SELECT source, CAST(sh % 16 AS BIGINT) AS shard "
        f"FROM {c2}), "
        "rb_c AS (SELECT v.source, CAST(count(*) AS BIGINT) AS n_urls, "
        "CAST(sum(CASE WHEN ((m.mask >> CAST(v.shard AS INTEGER)) & 1) "
        "= 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_denied "
        "FROM rb_v v JOIN rb_m m USING (source) GROUP BY 1) "
        "SELECT c.source, m.host, CAST(m.mask AS BIGINT) AS mask, "
        "c.n_urls, CAST(c.n_urls - c.n_denied AS BIGINT) AS n_allowed, "
        "c.n_denied FROM rb_c c JOIN rb_m m USING (source) "
        "ORDER BY c.source")


HOLT_CKPT = 64  # checkpoint stride on the smoothing trajectory


def q_holt_linear(sf_dir: str):
    """HOLT'S LINEAR (double exponential) SMOOTHING of the hourly
    event-count series per type, α=β=1/4, carried in EXACT e6 integer
    units with TRUNCATING division (DuckDB's `//` truncates toward
    zero; the numpy fold mirrors it exactly) — the trend-aware
    forecasting companion to events_ewma, hash-gated over the whole
    trajectory via checkpoints every 64 hours plus the final state:

        l_t = trunc((x_t·10⁶ + 3·(l_{t-1} + b_{t-1})) / 4)
        b_t = trunc(((l_t − l_{t-1}) + 3·b_{t-1}) / 4)

    init l_0 = x_0·10⁶, b_0 = (x_1 − x_0)·10⁶. Series are DENSE over
    the global hour range (zeros are signal, the acf_hourly
    contract). Output rows (event_type, t, x, level_e6, trend_e6) at
    the checkpoints.

    Scale shape: the data-sized pass is the same (type, hour) count
    combiner; the fold is a config-sized driver iteration vectorized
    ACROSS types per step (the pagerank/HITS convention — the series
    length is clock-bounded, not data-bounded). The SQL twin replays
    the recursion with a recursive CTE advancing all types per
    step."""
    hc = _hourly_type_counts(sf_dir)
    h0, h1 = int(hc["h"].min()), int(hc["h"].max())
    T = h1 - h0  # last t index
    types = sorted(hc["event_type"].unique())
    k = len(types)
    x = np.zeros((k, T + 1), dtype=np.int64)
    ti = {t2: i for i, t2 in enumerate(types)}
    x[hc["event_type"].map(ti).to_numpy(np.int64),
      hc["h"].to_numpy(np.int64) - h0] = hc["n"].to_numpy(np.int64)
    assert T >= 1, "holt needs at least two hours of data"
    assert int(x.max()) < 2 ** 40, "holt e6 scaling would overflow"

    def tdiv4(a: np.ndarray) -> np.ndarray:
        return np.where(a >= 0, a // 4, -((-a) // 4))

    E6 = 1_000_000
    level = x[:, 0] * E6
    trend = (x[:, 1] - x[:, 0]) * E6
    rows = [(0, x[:, 0].copy(), level.copy(), trend.copy())]
    for t in range(1, T + 1):
        l_new = tdiv4(x[:, t] * E6 + 3 * (level + trend))
        trend = tdiv4((l_new - level) + 3 * trend)
        level = l_new
        if t % HOLT_CKPT == 0 or t == T:
            rows.append((t, x[:, t].copy(), level.copy(),
                         trend.copy()))
    recs = []
    for t, xv, lv, bv in rows:
        for i, et in enumerate(types):
            recs.append((et, t, int(xv[i]), int(lv[i]), int(bv[i])))
    out = pd.DataFrame(recs, columns=["event_type", "t", "x",
                                      "level_e6", "trend_e6"])
    return out.sort_values(["event_type", "t"]).reset_index(drop=True)


def _holt_oracle_sql() -> str:
    return (
        "WITH RECURSIVE hl_e AS (SELECT event_type, "
        "epoch_us(ts) // 3600000000 AS h FROM events), "
        "hl_c AS (SELECT event_type, h, CAST(count(*) AS BIGINT) AS n "
        "FROM hl_e GROUP BY 1, 2), "
        "hl_b AS (SELECT min(h) AS h0, max(h) AS h1 FROM hl_e), "
        "hl_t AS (SELECT DISTINCT event_type FROM hl_e), "
        "hl_g AS (SELECT t.event_type, "
        "unnest(generate_series(b.h0, b.h1)) AS h "
        "FROM hl_t t CROSS JOIN hl_b b), "
        "hl_d AS (SELECT g.event_type, "
        "CAST(g.h - (SELECT h0 FROM hl_b) AS BIGINT) AS t, "
        "CAST(coalesce(c.n, 0) AS BIGINT) AS x FROM hl_g g "
        "LEFT JOIN hl_c c ON c.event_type = g.event_type "
        "AND c.h = g.h), "
        "hl_m AS (SELECT max(t) AS tmax FROM hl_d), "
        "hl_r AS (SELECT d0.event_type, CAST(0 AS BIGINT) AS t, "
        "d0.x * 1000000 AS l, (d1.x - d0.x) * 1000000 AS b "
        "FROM hl_d d0 JOIN hl_d d1 ON d1.event_type = d0.event_type "
        "AND d1.t = 1 WHERE d0.t = 0 "
        "UNION ALL "
        "SELECT event_type, t, l2, ((l2 - l) + 3 * b) // 4 FROM "
        "(SELECT r.event_type, r.t + 1 AS t, "
        "(d.x * 1000000 + 3 * (r.l + r.b)) // 4 AS l2, r.l AS l, "
        "r.b AS b FROM hl_r r JOIN hl_d d "
        "ON d.event_type = r.event_type AND d.t = r.t + 1 "
        "WHERE r.t < (SELECT tmax FROM hl_m)) __h) "
        "SELECT r.event_type, r.t, d.x, CAST(r.l AS BIGINT) "
        "AS level_e6, CAST(r.b AS BIGINT) AS trend_e6 "
        "FROM hl_r r JOIN hl_d d ON d.event_type = r.event_type "
        "AND d.t = r.t "
        f"WHERE r.t % {HOLT_CKPT} = 0 OR r.t = "
        "(SELECT tmax FROM hl_m) ORDER BY 1, 2")


PM_PATTERNS = ("join", "sort", "merge", "table", "stream", "the")


def q_pattern_match_counts(sf_dir: str):
    """MULTI-PATTERN SUBSTRING MATCH COUNTS (the content-filter /
    keyword-screen primitive — the reference greps crawl results for
    needles in its test suite; curation pipelines count banned-word
    and boilerplate markers the same way): for each (source, pattern)
    over a config-sized pattern set, the number of docs containing
    the pattern, total occurrences and the max per doc. Patterns are
    chosen border-free (no proper prefix = suffix), so non-overlapping
    occurrence counting is unambiguous and Arrow's count_substring
    equals DuckDB's replace-length arithmetic exactly.

    Scale shape: one streaming pass; per batch a loop over the
    PATTERN SET (config-sized), each iteration one vectorized Arrow
    count_substring + bincount partial; the driver merges
    sources × patterns rows."""
    ds = read_table(sf_dir, "documents", columns=["source", "text"])

    def part(batch: pa.Table) -> pa.Table:
        text = pc.fill_null(batch["text"], "")
        src = batch["source"].to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(src)
        k = len(uniq)
        outs = {"source": [], "pattern": [], "n_docs": [],
                "n_occ": [], "max_occ": []}
        for p in PM_PATTERNS:
            cnt = pc.count_substring(text, p).to_numpy(
                zero_copy_only=False).astype(np.int64)
            occ = np.bincount(codes, weights=cnt,
                              minlength=k).astype(np.int64)
            nd = np.bincount(codes, weights=(cnt > 0),
                             minlength=k).astype(np.int64)
            mx = np.zeros(k, dtype=np.int64)
            np.maximum.at(mx, codes, cnt)
            outs["source"].extend(uniq)
            outs["pattern"].extend([p] * k)
            outs["n_docs"].extend(nd)
            outs["n_occ"].extend(occ)
            outs["max_occ"].extend(mx)
        return pa.table({
            "source": pa.array(outs["source"], pa.string()),
            "pattern": pa.array(outs["pattern"], pa.string()),
            "n_docs": pa.array(outs["n_docs"], pa.int64()),
            "n_occ": pa.array(outs["n_occ"], pa.int64()),
            "max_occ": pa.array(outs["max_occ"], pa.int64())})

    pdf = ds.map_batches(part, batch_format="pyarrow").to_pandas()
    pdf = pdf.sort_values(["source", "pattern"]).reset_index(drop=True)
    sums = pdf.groupby(["source", "pattern"], as_index=False)[
        ["n_docs", "n_occ"]].sum()
    mx = pdf.groupby(["source", "pattern"], as_index=False)[
        "max_occ"].max()
    out = sums.merge(mx, on=["source", "pattern"])
    for c in ["n_docs", "n_occ", "max_occ"]:
        out[c] = out[c].astype("int64")
    return out.sort_values(["source", "pattern"]) \
        .reset_index(drop=True)


def _pattern_match_oracle_sql() -> str:
    pats = ",".join(f"('{p}')" for p in PM_PATTERNS)
    return (
        f"WITH pm_p AS (SELECT * FROM (VALUES {pats}) v(pattern)), "
        "pm_d AS (SELECT source, coalesce(text, '') AS text "
        "FROM documents), "
        "pm_c AS (SELECT d.source, p.pattern, "
        "CAST((length(d.text) - length(replace(d.text, p.pattern, "
        "''))) // length(p.pattern) AS BIGINT) AS cnt "
        "FROM pm_d d CROSS JOIN pm_p p) "
        "SELECT source, pattern, "
        "CAST(count(*) FILTER (cnt > 0) AS BIGINT) AS n_docs, "
        "CAST(sum(cnt) AS BIGINT) AS n_occ, "
        "CAST(max(cnt) AS BIGINT) AS max_occ "
        "FROM pm_c GROUP BY 1, 2 ORDER BY 1, 2")


BLOOM_CAP, BLOOM_FPP, BLOOM_SEED = 100_000, 0.01, 0


def _bloom_h2_vec(h1_u: np.ndarray, seed: int) -> np.ndarray:
    """Vectorized mirror of BloomFilter._positions's second hash:
    stable_hash64 over the 8 little-endian bytes of h1 (seed^0xA5A5),
    then |1 — the Kirsch-Mitzenmacher double-hash step
    (state/filters.py:44-48), bit-identical."""
    from ..functions import hashing as hh
    with np.errstate(over="ignore"):
        t = np.full(h1_u.shape,
                    np.uint64((hh._FNV_OFFSET ^ ((seed ^ 0xA5A5)
                                                 & hh._MASK))
                              & hh._MASK))
        for i in range(8):
            b = (h1_u >> np.uint64(8 * i)) & np.uint64(0xFF)
            t = (t ^ b) * np.uint64(hh._FNV_PRIME)
        return hh.splitmix64_np(t) | np.uint64(1)


def q_urlseen_bloom_audit(sf_dir: str, capacity: int = BLOOM_CAP):
    """URL-SEEN BLOOM FILTER AUDIT — hash-gates the engine's A6
    north-star membership filter (state/filters.py BloomFilter: the
    cold-shard URL-seen structure) against a full SQL replay of its
    double-hash algebra: every inserted URL's k bit positions are
    g_i = (h1 + i·h2) mod 2⁶⁴ mod m with h1 = stable_hash64(url) and
    h2 = stable_hash64(bytes_le(h1), seed^0xA5A5)|1, exactly as the
    live filter computes them. Inserted keys: one canonical URL per
    document; probes: a disjoint same-shaped URL set — every probe
    hit is by construction a FALSE POSITIVE, so the filter's realized
    FP behavior (not just its bit count) is pinned. Output: key/
    distinct-hash counts, the filter geometry (m, k from the LIVE
    class formula), exact popcount of the bit array, probe count and
    false-positive count.

    The Ray side computes positions vectorized (the same algebra;
    test_round4d pins it bit-for-bit against a live BloomFilter
    object, bits AND membership); the bit-position set is bounded by
    m (CONFIG-sized), broadcast once for the probe pass. The
    distinct-h1 union is the documented audit-tier driver bound (8
    bytes per key; sampled replay is the 100-TB path).

    Scale shape: two streaming passes (insert-positions, probe), each
    a vectorized hash + searchsorted per batch; no shuffle."""
    from ..functions.hashing import stable_hash64_col_np
    from ..state.filters import BloomFilter

    proto = BloomFilter(capacity, BLOOM_FPP, BLOOM_SEED)
    m, k = proto.num_bits, proto.num_hashes
    ds = read_table(sf_dir, "documents", columns=["doc_id", "source"])

    def _urls(batch: pa.Table, pfx: str) -> pa.Array:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype("U")
        src = batch["source"].to_numpy(zero_copy_only=False) \
            .astype("U")
        return pa.array(np.char.add(np.char.add(np.char.add(
            "http://", src), f".example/{pfx}"), ids))

    def _positions(h1: np.ndarray) -> np.ndarray:
        h2 = _bloom_h2_vec(h1, BLOOM_SEED)
        with np.errstate(over="ignore"):
            pos = (h1[:, None]
                   + np.arange(k, dtype=np.uint64)[None, :]
                   * h2[:, None]) % np.uint64(m)
        return pos.astype(np.int64)

    def ins_part(batch: pa.Table) -> pa.Table:
        h1 = stable_hash64_col_np(_urls(batch, "d"), BLOOM_SEED)
        pos = np.unique(_positions(h1))
        return pa.table({
            "pos": pa.array([pos.tolist()],
                            pa.list_(pa.int64())),
            "h1": pa.array([np.unique(h1).view(np.int64).tolist()],
                           pa.list_(pa.int64())),
            "n": pa.array([len(h1)], pa.int64())})

    parts = ds.map_batches(ins_part, batch_format="pyarrow") \
        .to_pandas()
    n_keys = int(parts["n"].sum())
    S = np.unique(np.concatenate(
        [np.asarray(p, np.int64) for p in parts["pos"]])) \
        if len(parts) else np.empty(0, np.int64)
    h1_all = np.unique(np.concatenate(
        [np.asarray(p, np.int64) for p in parts["h1"]])) \
        if len(parts) else np.empty(0, np.int64)
    sref = ray.put(S)

    def probe_part(batch: pa.Table) -> pa.Table:
        S_ = ray.get(sref)
        h1 = stable_hash64_col_np(_urls(batch, "p"), BLOOM_SEED)
        pos = _positions(h1)
        idx = np.clip(np.searchsorted(S_, pos), 0,
                      max(len(S_) - 1, 0))
        hit = (S_[idx] == pos) if len(S_) else \
            np.zeros_like(pos, bool)
        fp = hit.all(axis=1)
        return pa.table({
            "n_probes": pa.array([len(h1)], pa.int64()),
            "n_fp": pa.array([int(fp.sum())], pa.int64())})

    pr = ds.map_batches(probe_part, batch_format="pyarrow") \
        .to_pandas()
    out = pd.DataFrame([(n_keys, len(h1_all), m, k, len(S),
                         int(pr["n_probes"].sum()),
                         int(pr["n_fp"].sum()))],
                       columns=["n_keys", "n_distinct_hashes",
                                "num_bits", "num_hashes", "bits_set",
                                "n_probes", "n_false_positives"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _bloom_oracle_sql() -> str:
    from ..functions.sqlmirror import (FNV_OFF, FNV_P, M64, mul_mod64,
                                       splitmix_stage_exprs,
                                       stable_hash64_cte)
    from ..state.filters import BloomFilter
    proto = BloomFilter(BLOOM_CAP, BLOOM_FPP, BLOOM_SEED)
    m, k = proto.num_bits, proto.num_hashes
    seed2 = (BLOOM_SEED ^ 0xA5A5) & (M64 - 1)

    w1, c1 = stable_hash64_cte(
        "SELECT 'http://' || source || '.example/d' || "
        "CAST(doc_id AS VARCHAR) AS u FROM documents",
        "u", {"h1": BLOOM_SEED}, prefix="bi_")
    w2, c2 = stable_hash64_cte(
        "SELECT 'http://' || source || '.example/p' || "
        "CAST(doc_id AS VARCHAR) AS u FROM documents",
        "u", {"h1": BLOOM_SEED}, prefix="bq_", include_with=False)

    def h2_chain(prefix: str, src_cte: str) -> tuple[str, str]:
        sql = (f", {prefix}f0 AS (SELECT u, h1, "
               f"CAST({(FNV_OFF ^ seed2) & (M64 - 1)} AS UBIGINT) "
               f"AS t FROM {src_cte})")
        prev = f"{prefix}f0"
        for i in range(8):
            sql += (f", {prefix}x{i} AS (SELECT u, h1, "
                    f"CAST(xor(t, (h1 >> {8 * i}) & 255) AS UBIGINT) "
                    f"AS t FROM {prev})")
            sql += (f", {prefix}m{i} AS (SELECT u, h1, "
                    f"{mul_mod64('t', FNV_P)} AS t "
                    f"FROM {prefix}x{i})")
            prev = f"{prefix}m{i}"
        for j, st in enumerate(splitmix_stage_exprs("t")):
            sql += (f", {prefix}s{j} AS (SELECT u, h1, {st} AS t "
                    f"FROM {prev})")
            prev = f"{prefix}s{j}"
        sql += (f", {prefix}h AS (SELECT u, h1, "
                f"CAST(t | 1 AS UBIGINT) AS h2 FROM {prev})")
        return sql, f"{prefix}h"

    hi, ci = h2_chain("bh_", c1)
    hp, cp = h2_chain("ph_", c2)
    pos_expr = (f"CAST(((CAST(h1 AS HUGEINT) + gs.generate_series * "
                f"CAST(h2 AS HUGEINT)) % {M64}) % {m} AS BIGINT)")
    return w1 + w2 + hi + hp + (
        f", bi_pos AS (SELECT DISTINCT {pos_expr} AS pos FROM {ci} "
        f"CROSS JOIN generate_series(0, {k - 1}) gs), "
        f"bq_pos AS (SELECT u, {pos_expr} AS pos FROM {cp} "
        f"CROSS JOIN generate_series(0, {k - 1}) gs), "
        "bq_g AS (SELECT p.u, count(DISTINCT p.pos) AS np, "
        "count(DISTINCT s.pos) AS nm FROM bq_pos p "
        "LEFT JOIN bi_pos s ON s.pos = p.pos GROUP BY p.u), "
        f"b_ins AS (SELECT CAST(count(*) AS BIGINT) AS n_keys, "
        f"CAST(count(DISTINCT h1) AS BIGINT) AS n_distinct_hashes "
        f"FROM {ci}), "
        "b_bits AS (SELECT CAST(count(*) AS BIGINT) AS bits_set "
        "FROM bi_pos), "
        "b_pr AS (SELECT CAST(count(*) AS BIGINT) AS n_probes, "
        "CAST(count(*) FILTER (np = nm) AS BIGINT) "
        "AS n_false_positives FROM bq_g) "
        "SELECT i.n_keys, i.n_distinct_hashes, "
        f"CAST({m} AS BIGINT) AS num_bits, "
        f"CAST({k} AS BIGINT) AS num_hashes, b.bits_set, "
        "p.n_probes, p.n_false_positives "
        "FROM b_ins i CROSS JOIN b_bits b CROSS JOIN b_pr p")


CRAWL_BUDGET = 10_000


def q_crawl_budget_apportionment(sf_dir: str):
    """CRAWL BUDGET APPORTIONMENT (Hamilton / largest-remainder): a
    fixed per-cycle fetch budget of 10 000 slots divided across
    sources proportionally to their total character mass — the
    host-budget policy seat of the frontier's priority key
    (crawl-depth, HOST-BUDGET, enqueue-time; reference: per-task
    max_items caps, crawltask.model.ts). Exact integer apportionment:
    base_i = B·mass_i // M, then the B − Σbase leftover slots go to
    the largest remainders (B·mass_i mod M), ties broken by source
    name — so Σ budget_i = B exactly, no float shares. Output per
    source: mass, base, extra flag, final budget.

    Scale shape: one n_chars-sum combiner (enum-keyed), then the
    apportionment runs on the source-universe-sized driver frame; the
    oracle replays base/remainder arithmetic with one rank window."""
    ds = read_table(sf_dir, "documents", columns=["source", "n_chars"])

    agg = aggregate(ds, ["source"], {"mass": ("n_chars", "sum")})
    agg = agg.sort_values("source").reset_index(drop=True)
    mass = agg["mass"].to_numpy(np.int64)
    M = int(mass.sum())
    B = CRAWL_BUDGET
    assert B * int(mass.max(initial=0)) < 2 ** 62, \
        "budget*mass would overflow int64"
    base = B * mass // M
    rem = B * mass % M
    extra = B - int(base.sum())
    order = np.lexsort((agg["source"].to_numpy(), -rem))
    flag = np.zeros(len(agg), dtype=np.int64)
    flag[order[:extra]] = 1
    out = pd.DataFrame({
        "source": agg["source"],
        "mass": mass,
        "base": base,
        "extra": flag,
        "budget": base + flag})
    assert int(out["budget"].sum()) == B
    return out.sort_values("source").reset_index(drop=True)


def _budget_oracle_sql() -> str:
    B = CRAWL_BUDGET
    return (
        "WITH cb_m AS (SELECT source, CAST(sum(n_chars) AS BIGINT) "
        "AS mass FROM documents GROUP BY source), "
        "cb_t AS (SELECT CAST(sum(mass) AS BIGINT) AS total, "
        "CAST(count(*) AS BIGINT) AS s FROM cb_m), "
        f"cb_b AS (SELECT m.source, m.mass, "
        f"CAST({B} * m.mass // t.total AS BIGINT) AS base, "
        f"CAST({B} * m.mass % t.total AS BIGINT) AS rem "
        "FROM cb_m m CROSS JOIN cb_t t), "
        "cb_e AS (SELECT CAST(" + str(B) + " - sum(base) AS BIGINT) "
        "AS extra FROM cb_b), "
        "cb_r AS (SELECT source, mass, base, row_number() OVER "
        "(ORDER BY rem DESC, source) AS rk FROM cb_b) "
        "SELECT r.source, r.mass, r.base, "
        "CAST(CASE WHEN r.rk <= e.extra THEN 1 ELSE 0 END AS BIGINT) "
        "AS extra, "
        "CAST(r.base + CASE WHEN r.rk <= e.extra THEN 1 ELSE 0 END "
        "AS BIGINT) AS budget "
        "FROM cb_r r CROSS JOIN cb_e e ORDER BY r.source")


# the corpus schema contract (TESTDATA.md) — single source for the
# profile audit's Ray pass and its generated oracle
CORPUS_COLUMNS: dict[str, list[str]] = {
    "region": ["r_regionkey", "r_name"],
    "nation": ["n_nationkey", "n_name", "n_regionkey"],
    "customer": ["c_custkey", "c_name", "c_nationkey", "c_acctbal",
                 "c_mktsegment"],
    "supplier": ["s_suppkey", "s_name", "s_nationkey", "s_acctbal"],
    "part": ["p_partkey", "p_name", "p_brand", "p_type", "p_size",
             "p_retailprice"],
    "orders": ["o_orderkey", "o_custkey", "o_orderstatus",
               "o_totalprice", "o_orderdate", "o_orderpriority"],
    "lineitem": ["l_orderkey", "l_partkey", "l_suppkey",
                 "l_linenumber", "l_quantity", "l_extendedprice",
                 "l_discount", "l_tax", "l_returnflag",
                 "l_linestatus", "l_shipdate"],
    "events": ["event_id", "ts", "user_id", "event_type", "value",
               "props"],
    "documents": ["doc_id", "text", "lang", "source", "n_chars"],
    "embeddings": ["vec_id", "embedding", "label"],
}


def q_table_profile_audit(sf_dir: str):
    """CORPUS-WIDE COLUMN PROFILE (the ingest data-quality sweep a
    100-TB pipeline runs before trusting any table): for every
    (table, column) across all ten tables — row count, null count,
    and for string columns the empty-string count. The schema
    contract is pinned as a constant (CORPUS_COLUMNS) shared by the
    Ray pass and the generated oracle, so a silently added/dropped
    column fails the gate, not just a value drift.

    Scale shape: one streaming pass per table; per batch one
    vectorized null_count/equality per column (Arrow C, no row
    loops); the merge is schema-sized."""
    rows = []
    for tbl, cols in CORPUS_COLUMNS.items():
        ds = read_table(sf_dir, tbl)

        def part(batch: pa.Table, _cols=tuple(cols)) -> pa.Table:
            out = {"n_rows": [batch.num_rows]}
            for c in _cols:
                col = batch[c]
                out[f"null__{c}"] = [col.null_count]
                if pa.types.is_string(col.type) or \
                        pa.types.is_large_string(col.type):
                    out[f"empty__{c}"] = [pc.sum(
                        pc.equal(pc.fill_null(col, ""), "")
                    ).as_py() or 0]
            return pa.table({k2: pa.array(v, pa.int64())
                             for k2, v in out.items()})

        pdf = ds.map_batches(part, batch_format="pyarrow").to_pandas()
        n = int(pdf["n_rows"].sum())
        for c in cols:
            nn = int(pdf[f"null__{c}"].sum())
            ne = int(pdf[f"empty__{c}"].sum()) \
                if f"empty__{c}" in pdf.columns else -1
            rows.append((tbl, c, n, nn, ne))
    out = pd.DataFrame(rows, columns=["tbl", "col", "n_rows",
                                      "n_nulls", "n_empty"])
    for c in ["n_rows", "n_nulls", "n_empty"]:
        out[c] = out[c].astype("int64")
    return out.sort_values(["tbl", "col"]).reset_index(drop=True)


def _profile_oracle_sql() -> str:
    # string columns mirror the Ray side's is_string branch; -1 marks
    # non-string columns (schema-pinned, not data-derived)
    STR_COLS = {
        "region": {"r_name"}, "nation": {"n_name"},
        "customer": {"c_name", "c_mktsegment"},
        "supplier": {"s_name"},
        "part": {"p_name", "p_brand", "p_type"},
        "orders": {"o_orderstatus", "o_orderpriority"},
        "lineitem": {"l_returnflag", "l_linestatus"},
        "events": {"event_type", "props"},
        "documents": {"text", "lang", "source"},
        "embeddings": set(),
    }
    parts = []
    for tbl, cols in CORPUS_COLUMNS.items():
        for c in cols:
            empty = (f"CAST(count(*) FILTER (coalesce({c}, '') = '') "
                     "AS BIGINT)") if c in STR_COLS[tbl] \
                else "CAST(-1 AS BIGINT)"
            parts.append(
                f"SELECT '{tbl}' AS tbl, '{c}' AS col, "
                f"CAST(count(*) AS BIGINT) AS n_rows, "
                f"CAST(count(*) FILTER ({c} IS NULL) AS BIGINT) "
                f"AS n_nulls, {empty} AS n_empty FROM {tbl}")
    return " UNION ALL ".join(parts) + " ORDER BY tbl, col"


CK_CAP = 200_000


def _cuckoo_h2_vec(fp_u: np.ndarray, seed: int) -> np.ndarray:
    """Vectorized mirror of CuckooFilter._alt_index's hash:
    stable_hash64 over the 2 little-endian bytes of the fingerprint,
    seed^0x5C5C (state/filters.py:110-111), bit-identical."""
    from ..functions import hashing as hh
    with np.errstate(over="ignore"):
        t = np.full(fp_u.shape,
                    np.uint64((hh._FNV_OFFSET ^ ((seed ^ 0x5C5C)
                                                 & hh._MASK))
                              & hh._MASK))
        for i in range(2):
            b = (fp_u >> np.uint64(8 * i)) & np.uint64(0xFF)
            t = (t ^ b) * np.uint64(hh._FNV_PRIME)
        return hh.splitmix64_np(t)


def q_urlseen_cuckoo_audit(sf_dir: str, capacity: int = CK_CAP):
    """URL-SEEN CUCKOO FILTER AUDIT — the A6 primary structure
    (state/filters.py CuckooFilter: 4-slot buckets, 16-bit partial-key
    fingerprints, i2 = i1 ^ H(fp)). The filter's OBSERVABLE state is
    order-independent: add_hash dedupes via contains (so the stored
    set is exactly the distinct (bucket-pair, fp) keys — which slot
    holds an fp depends on eviction order, but membership probes both
    buckets of the pair, and pairs for a given fp partition the
    bucket space because the alternate map is an fp-parameterized
    involution). That makes count, membership and false-positive
    behavior exactly SQL-replayable without replaying kicks. Inserted
    keys / probes: the bloom audit's URL universes. Output: key
    count, stored-entry count (= the live filter's .count), bucket
    count, the max bucket-pair load (must be ≤ 2·SLOTS for the
    no-insert-failure precondition), probe count and false positives.

    The Ray side vectorizes fp/i1/i2 (the 2-byte FNV mirrored by
    _cuckoo_h2_vec); test_round4d pins it against a LIVE CuckooFilter
    (count, per-probe contains). The distinct-entry union is the
    documented audit-tier driver bound.

    Scale shape: two streaming passes, vectorized hash + searchsorted
    probes; no shuffle."""
    from ..functions.hashing import stable_hash64_col_np
    from ..state.filters import CuckooFilter

    proto = CuckooFilter(capacity, BLOOM_SEED)
    nb = proto.nbuckets
    ds = read_table(sf_dir, "documents", columns=["doc_id", "source"])

    def _urls(batch: pa.Table, pfx: str) -> pa.Array:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype("U")
        src = batch["source"].to_numpy(zero_copy_only=False) \
            .astype("U")
        return pa.array(np.char.add(np.char.add(np.char.add(
            "http://", src), f".example/{pfx}"), ids))

    def _entries(h1: np.ndarray):
        fp = (h1 & np.uint64(0xFFFF))
        fp = np.where(fp == 0, np.uint64(1), fp)
        i1 = ((h1 >> np.uint64(16)) & np.uint64(nb - 1)) \
            .astype(np.int64)
        i2 = (i1 ^ (_cuckoo_h2_vec(fp, BLOOM_SEED)
                    & np.uint64(nb - 1)).astype(np.int64))
        cb, ca = np.minimum(i1, i2), np.maximum(i1, i2)
        mem = cb * 65536 + fp.astype(np.int64)   # membership key
        pair = cb * nb + ca                      # pair-load key
        return mem, pair

    def ins_part(batch: pa.Table) -> pa.Table:
        h1 = stable_hash64_col_np(_urls(batch, "d"), BLOOM_SEED)
        mem, pair = _entries(h1)
        u, first = np.unique(mem, return_index=True)
        return pa.table({
            "mem": pa.array([u.tolist()], pa.list_(pa.int64())),
            "pair": pa.array([pair[first].tolist()],
                             pa.list_(pa.int64())),
            "n": pa.array([len(h1)], pa.int64())})

    parts = ds.map_batches(ins_part, batch_format="pyarrow") \
        .to_pandas()
    n_keys = int(parts["n"].sum())
    mem_all = np.concatenate([np.asarray(p, np.int64)
                              for p in parts["mem"]]) \
        if len(parts) else np.empty(0, np.int64)
    pair_all = np.concatenate([np.asarray(p, np.int64)
                               for p in parts["pair"]]) \
        if len(parts) else np.empty(0, np.int64)
    stored, first = np.unique(mem_all, return_index=True)
    pair_stored = pair_all[first]
    _, pl = np.unique(pair_stored, return_counts=True)
    max_pair_load = int(pl.max(initial=0))
    assert max_pair_load <= 2 * CuckooFilter.SLOTS, \
        "bucket-pair overload: live-filter equivalence not guaranteed"
    sref = ray.put(stored)

    def probe_part(batch: pa.Table) -> pa.Table:
        S_ = ray.get(sref)
        h1 = stable_hash64_col_np(_urls(batch, "p"), BLOOM_SEED)
        mem, _ = _entries(h1)
        idx = np.clip(np.searchsorted(S_, mem), 0,
                      max(len(S_) - 1, 0))
        fp = (S_[idx] == mem) if len(S_) else np.zeros_like(mem, bool)
        return pa.table({
            "n_probes": pa.array([len(h1)], pa.int64()),
            "n_fp": pa.array([int(fp.sum())], pa.int64())})

    pr = ds.map_batches(probe_part, batch_format="pyarrow") \
        .to_pandas()
    out = pd.DataFrame([(n_keys, len(stored), nb, max_pair_load,
                         int(pr["n_probes"].sum()),
                         int(pr["n_fp"].sum()))],
                       columns=["n_keys", "n_stored", "nbuckets",
                                "max_pair_load", "n_probes",
                                "n_false_positives"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _cuckoo_oracle_sql() -> str:
    from ..functions.sqlmirror import (FNV_OFF, FNV_P, M64, mul_mod64,
                                       splitmix_stage_exprs,
                                       stable_hash64_cte)
    from ..state.filters import CuckooFilter
    proto = CuckooFilter(CK_CAP, BLOOM_SEED)
    nb = proto.nbuckets
    seed2 = (BLOOM_SEED ^ 0x5C5C) & (M64 - 1)

    w1, c1 = stable_hash64_cte(
        "SELECT 'http://' || source || '.example/d' || "
        "CAST(doc_id AS VARCHAR) AS u FROM documents",
        "u", {"h1": BLOOM_SEED}, prefix="ci_")
    w2, c2 = stable_hash64_cte(
        "SELECT 'http://' || source || '.example/p' || "
        "CAST(doc_id AS VARCHAR) AS u FROM documents",
        "u", {"h1": BLOOM_SEED}, prefix="cq_", include_with=False)

    def fp_chain(prefix: str, src_cte: str) -> tuple[str, str]:
        # fp/i1, then H(fp) over the 2 LE fingerprint bytes
        sql = (f", {prefix}a AS (SELECT u, "
               "CASE WHEN h1 % 65536 = 0 THEN CAST(1 AS UBIGINT) "
               "ELSE h1 % 65536 END AS fp, "
               f"CAST((h1 >> 16) % {nb} AS BIGINT) AS i1 "
               f"FROM {src_cte})")
        sql += (f", {prefix}f0 AS (SELECT u, fp, i1, "
                f"CAST({(FNV_OFF ^ seed2) & (M64 - 1)} AS UBIGINT) "
                f"AS t FROM {prefix}a)")
        prev = f"{prefix}f0"
        for i in range(2):
            sql += (f", {prefix}x{i} AS (SELECT u, fp, i1, "
                    f"CAST(xor(t, (fp >> {8 * i}) & 255) AS UBIGINT) "
                    f"AS t FROM {prev})")
            sql += (f", {prefix}m{i} AS (SELECT u, fp, i1, "
                    f"{mul_mod64('t', FNV_P)} AS t "
                    f"FROM {prefix}x{i})")
            prev = f"{prefix}m{i}"
        for j, st in enumerate(splitmix_stage_exprs("t")):
            sql += (f", {prefix}s{j} AS (SELECT u, fp, i1, {st} AS t "
                    f"FROM {prev})")
            prev = f"{prefix}s{j}"
        sql += (f", {prefix}e AS (SELECT u, CAST(fp AS BIGINT) AS fp, "
                "i1, CAST(xor(CAST(i1 AS UBIGINT), "
                f"t % {nb}) AS BIGINT) AS i2 FROM {prev})")
        sql += (f", {prefix}k AS (SELECT u, "
                "least(i1, i2) * 65536 + fp AS mem, "
                f"least(i1, i2) * {nb} + greatest(i1, i2) AS pair "
                f"FROM {prefix}e)")
        return sql, f"{prefix}k"

    fi, ki = fp_chain("ch_", c1)
    fq, kq = fp_chain("cp_", c2)
    return w1 + w2 + fi + fq + (
        f", ck_s AS (SELECT mem, min(pair) AS pair FROM {ki} "
        "GROUP BY mem), "
        "ck_l AS (SELECT CAST(max(cnt) AS BIGINT) AS mpl FROM "
        "(SELECT pair, count(*) AS cnt FROM ck_s GROUP BY pair)), "
        f"ck_i AS (SELECT CAST(count(*) AS BIGINT) AS n_keys "
        f"FROM {ki}), "
        "ck_n AS (SELECT CAST(count(*) AS BIGINT) AS n_stored "
        "FROM ck_s), "
        f"ck_p AS (SELECT CAST(count(*) AS BIGINT) AS n_probes, "
        "CAST(count(*) FILTER (s.mem IS NOT NULL) AS BIGINT) "
        f"AS n_fp FROM {kq} q LEFT JOIN ck_s s ON s.mem = q.mem) "
        "SELECT i.n_keys, n.n_stored, "
        f"CAST({nb} AS BIGINT) AS nbuckets, l.mpl AS max_pair_load, "
        "p.n_probes, p.n_fp AS n_false_positives "
        "FROM ck_i i CROSS JOIN ck_n n CROSS JOIN ck_l l "
        "CROSS JOIN ck_p p")


def q_kendall_tau(sf_dir: str):
    """KENDALL TAU-B COMPONENTS per event type — is hourly traffic
    monotonically trending? Completes the rank-statistics family
    (Mann-Whitney / KS / Spearman / chi² / Gini) with the
    concordance statistic: over the DENSE hourly count series
    (acf_hourly contract), for every hour pair h1 < h2 count
    concordant (count strictly rose), discordant (strictly fell) and
    y-ties — exact int64 all the way (x = the hour index is never
    tied; tau-b itself is one downstream divide).

    Scale shape: the (type, hour) combiner again; the pair counting
    runs per type on the clock-bounded dense vector — vectorized as
    'pairs with larger count among later hours' via a per-prefix
    running tally (O(H·maxcount) bincount cumsum), never a Python
    pair loop. The oracle is one self-join per type over the dense
    grid."""
    hc = _hourly_type_counts(sf_dir)
    h0, h1 = int(hc["h"].min()), int(hc["h"].max())
    grid_n = h1 - h0 + 1
    rows = []
    for et, g in hc.groupby("event_type", sort=True):
        x = np.zeros(grid_n, dtype=np.int64)
        x[g["h"].to_numpy(np.int64) - h0] = g["n"].to_numpy(np.int64)
        # running-tally pair count: for each later hour, how many
        # earlier hours had smaller / equal / larger counts — a
        # cumulative bincount over the value domain (counts are
        # small ints), fully vectorized per prefix step via cumsum
        vmax = int(x.max(initial=0))
        seen = np.zeros(vmax + 2, dtype=np.int64)
        conc = disc = ties = 0
        for v in x:  # clock-bounded loop (hours), not data-bounded
            c = seen.cumsum()
            conc += int(c[v - 1]) if v > 0 else 0
            ties += int(seen[v])
            disc += int(c[-1] - c[v])
            seen[v] += 1
        n_pairs = grid_n * (grid_n - 1) // 2
        assert conc + disc + ties == n_pairs
        rows.append((et, n_pairs, conc, disc, ties))
    out = pd.DataFrame(rows, columns=["event_type", "n_pairs",
                                      "n_concordant", "n_discordant",
                                      "n_ties_y"])
    return out.sort_values("event_type").reset_index(drop=True)


def _kendall_oracle_sql() -> str:
    return (
        "WITH kt_e AS (SELECT event_type, "
        "epoch_us(ts) // 3600000000 AS h FROM events), "
        "kt_c AS (SELECT event_type, h, CAST(count(*) AS BIGINT) AS n "
        "FROM kt_e GROUP BY 1, 2), "
        "kt_b AS (SELECT min(h) AS h0, max(h) AS h1 FROM kt_e), "
        "kt_t AS (SELECT DISTINCT event_type FROM kt_e), "
        "kt_g AS (SELECT t.event_type, "
        "unnest(generate_series(b.h0, b.h1)) AS h "
        "FROM kt_t t CROSS JOIN kt_b b), "
        "kt_d AS (SELECT g.event_type, g.h, "
        "CAST(coalesce(c.n, 0) AS BIGINT) AS x FROM kt_g g "
        "LEFT JOIN kt_c c ON c.event_type = g.event_type "
        "AND c.h = g.h), "
        "kt_p AS (SELECT a.event_type, "
        "CASE WHEN b.x > a.x THEN 1 ELSE 0 END AS co, "
        "CASE WHEN b.x < a.x THEN 1 ELSE 0 END AS di, "
        "CASE WHEN b.x = a.x THEN 1 ELSE 0 END AS ti "
        "FROM kt_d a JOIN kt_d b ON b.event_type = a.event_type "
        "AND b.h > a.h) "
        "SELECT event_type, CAST(count(*) AS BIGINT) AS n_pairs, "
        "CAST(sum(co) AS BIGINT) AS n_concordant, "
        "CAST(sum(di) AS BIGINT) AS n_discordant, "
        "CAST(sum(ti) AS BIGINT) AS n_ties_y "
        "FROM kt_p GROUP BY 1 ORDER BY 1")


FRONTIER_SHARDS_AUDIT = 8
FRONTIER_SEED = 42


def q_frontier_shard_balance(sf_dir: str):
    """FRONTIER SHARD-ROUTING BALANCE — hash-gates the frontier's
    host→shard map (``state.frontier.shard_of_hosts``, host-affine so
    per-host politeness and FIFO live wholly in one shard) at K=8 over
    the corpus host universe: per shard, host count, document count
    and character mass. A placement drift here would silently break
    per-host FIFO conformance; a skewed shard is a hot frontier actor
    at 10^10 URLs. The Ray side routes each DISTINCT host through the
    live router itself; the oracle replays the hash with the shared
    recursive-CTE mirror.

    Scale shape: one enum-keyed mass combiner; routing touches only
    the host universe."""
    from ..state.frontier import shard_of_hosts

    ds = read_table(sf_dir, "documents", columns=["source", "n_chars"])

    agg = aggregate(ds, ["source"], {"mass": ("n_chars", "sum"),
                                     "n_docs": ("n_chars", "count")})
    hosts = (agg["source"].astype(str) + ".example").tolist()
    agg = agg.assign(shard=shard_of_hosts(hosts, FRONTIER_SEED,
                                          FRONTIER_SHARDS_AUDIT))
    out = agg.groupby("shard", as_index=False).agg(
        n_hosts=("source", "size"), n_docs=("n_docs", "sum"),
        chars_mass=("mass", "sum"))
    return out.sort_values("shard").reset_index(drop=True)


def _frontier_shard_oracle_sql() -> str:
    from ..functions.sqlmirror import stable_hash64_cte
    w, c = stable_hash64_cte(
        "SELECT source, source || '.example' AS host, mass, n_docs "
        "FROM (SELECT source, CAST(sum(n_chars) AS BIGINT) AS mass, "
        "CAST(count(*) AS BIGINT) AS n_docs FROM documents "
        "GROUP BY source)",
        "host", {"hh": FRONTIER_SEED},
        carry_cols=("source", "mass", "n_docs"), prefix="fs_")
    return w + (
        f" SELECT CAST(hh % {FRONTIER_SHARDS_AUDIT} AS BIGINT) "
        "AS shard, CAST(count(*) AS BIGINT) AS n_hosts, "
        "CAST(sum(n_docs) AS BIGINT) AS n_docs, "
        "CAST(sum(mass) AS BIGINT) AS chars_mass "
        f"FROM {c} GROUP BY 1 ORDER BY 1")


GAP_BUCKET_BITS = 12  # 4096-wide id ranges per bucket


def q_event_id_gap_ranges(sf_dir: str):
    """SEQUENCE GAP DETECTION over a sparse id set (the completeness
    audit for any id-keyed ingest — which ranges of the keyspace are
    missing?): every maximal run of ids ABSENT from the purchase
    events' id set, between that set's min and max, as
    (gap_start, gap_end, gap_len). Demonstrates the one distributed
    pattern the islands family hadn't: RANGE-partitioned order
    statistics with driver-side boundary stitching — ids are bucketed
    by id >> 12 (contiguous, disjoint ranges, so each bucket's
    internal gaps are decidable locally), each bucket emits its
    internal gaps plus its (first, last) boundary, and the driver
    stitches adjacent non-consecutive boundaries into cross-bucket
    gaps (bucket summaries are data/4096-sized — the documented
    driver bound; empty id ranges fall out of the stitch naturally).

    The oracle is the classic islands/LEAD twin over the distinct
    ids."""
    ds = read_table(sf_dir, "events", columns=["event_id",
                                               "event_type"])

    def to_ids(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["event_type"], "purchase"))
        ids = pc.unique(t["event_id"].combine_chunks())
        return pa.table({
            "id": ids,
            "bkt": pc.shift_right(ids, GAP_BUCKET_BITS)})

    def bucket_gaps(g: pd.DataFrame) -> pd.DataFrame:
        ids = np.unique(g["id"].to_numpy(np.int64))
        brk = np.flatnonzero(np.diff(ids) > 1)
        return pd.DataFrame({
            "gap_start": np.concatenate(
                [ids[brk] + 1, [ids[0]]]),        # last row: boundary
            "gap_end": np.concatenate(
                [ids[brk + 1] - 1, [ids[-1]]]),   # marker (first/last)
            "is_boundary": np.concatenate(
                [np.zeros(len(brk), np.int64), [1]])})

    pdf = (ds.map_batches(to_ids, batch_format="pyarrow")
           .groupby("bkt").map_groups(bucket_gaps,
                                      batch_format="pandas")
           .to_pandas())
    inner = pdf[pdf["is_boundary"] == 0][["gap_start", "gap_end"]]
    bounds = pdf[pdf["is_boundary"] == 1].sort_values("gap_start")
    firsts = bounds["gap_start"].to_numpy(np.int64)  # bucket min id
    lasts = bounds["gap_end"].to_numpy(np.int64)     # bucket max id
    stitch_mask = firsts[1:] - lasts[:-1] > 1
    stitched = pd.DataFrame({
        "gap_start": lasts[:-1][stitch_mask] + 1,
        "gap_end": firsts[1:][stitch_mask] - 1})
    out = pd.concat([inner, stitched], ignore_index=True)
    out["gap_len"] = out["gap_end"] - out["gap_start"] + 1
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("gap_start").reset_index(drop=True)


def _gap_ranges_oracle_sql() -> str:
    return (
        "WITH gp_e AS (SELECT DISTINCT event_id AS id FROM events "
        "WHERE event_type = 'purchase'), "
        "gp_r AS (SELECT id, id - row_number() OVER (ORDER BY id) "
        "AS grp FROM gp_e), "
        "gp_i AS (SELECT min(id) AS s, max(id) AS e FROM gp_r "
        "GROUP BY grp), "
        "gp_l AS (SELECT e + 1 AS gap_start, "
        "lead(s) OVER (ORDER BY s) - 1 AS gap_end FROM gp_i) "
        "SELECT CAST(gap_start AS BIGINT) AS gap_start, "
        "CAST(gap_end AS BIGINT) AS gap_end, "
        "CAST(gap_end - gap_start + 1 AS BIGINT) AS gap_len "
        "FROM gp_l WHERE gap_end IS NOT NULL ORDER BY 1")


WS_CAP = 12  # intervals per user entering the DP (deterministic cap)


def q_interval_scheduling(sf_dir: str):
    """WEIGHTED INTERVAL SCHEDULING (the classic exact DP — first
    member of the dynamic-programming family next to the greedy
    selectors): per user, from their first 12 purchases (by ts,
    event_id), build intervals [t, t + cents·1 s) weighted by cents
    and compute the maximum total weight of a non-overlapping subset
    via M(i) = max(M(i−1), v_i + M(p(i))) over end-sorted intervals,
    p(i) = last interval ending ≤ start_i. All arithmetic exact
    int64. Output: (user_id, n_intervals, best_weight_c).

    Scale shape: user-bucketed map_buckets; inside a bucket the DP is
    vectorized ACROSS users — a (users × 12 × 12) broadcast computes
    every p(i), then 12 DP steps of take_along_axis/maximum advance
    all users at once (the loop is over the CONFIG cap, not rows).
    The oracle unrolls the same 12 DP steps as chained CTEs, each
    joining the accumulated M table."""
    ds = read_table(sf_dir, "events",
                    columns=["user_id", "event_id", "ts", "value",
                             "event_type"])

    def to_iv(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["event_type"], "purchase"))
        v_c = pc.cast(pc.round(pc.multiply(t["value"],
                                           pa.scalar(100.0))),
                      pa.int64())
        t = pa.table({"user_id": t["user_id"],
                      "event_id": t["event_id"],
                      "s": t["ts"].cast(pa.int64()),
                      "v": v_c})
        # v > 0 keeps every interval strictly positive-length, which
        # is what makes p(i) self-count-free (e_i > s_i) — the DP's
        # correctness precondition, enforced identically in the twin
        return t.filter(pc.greater(t["v"], 0))

    def dp_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "s", "event_id"],
                          kind="mergesort").reset_index(drop=True)
        g = g[g.groupby("user_id").cumcount() < WS_CAP].copy()
        g["e"] = g["s"] + g["v"] * 1_000_000
        g = g.sort_values(["user_id", "e", "s", "event_id"],
                          kind="mergesort").reset_index(drop=True)
        uid, uidx = np.unique(g["user_id"].to_numpy(np.int64),
                              return_inverse=True)
        nu = len(uid)
        k = g.groupby("user_id", sort=True).cumcount() \
            .to_numpy(np.int64)
        S = np.full((nu, WS_CAP), np.iinfo(np.int64).min, np.int64)
        E = np.full((nu, WS_CAP), np.iinfo(np.int64).max, np.int64)
        V = np.zeros((nu, WS_CAP), np.int64)
        ok = np.zeros((nu, WS_CAP), bool)
        S[uidx, k] = g["s"].to_numpy(np.int64)
        E[uidx, k] = g["e"].to_numpy(np.int64)
        V[uidx, k] = g["v"].to_numpy(np.int64)
        ok[uidx, k] = True
        # p[u,i] = number of valid intervals of u ending <= start_i
        P = ((E[:, :, None] <= S[:, None, :])
             & ok[:, :, None]).sum(axis=1)
        M = np.zeros((nu, WS_CAP + 1), np.int64)
        for i in range(1, WS_CAP + 1):
            take = V[:, i - 1] + np.take_along_axis(
                M, P[:, i - 1:i], axis=1)[:, 0]
            M[:, i] = np.where(ok[:, i - 1],
                               np.maximum(M[:, i - 1], take),
                               M[:, i - 1])
        n_iv = ok.sum(axis=1).astype(np.int64)
        return pd.DataFrame({"user_id": uid, "n_intervals": n_iv,
                             "best_weight_c": M[np.arange(nu), n_iv]})

    out = (map_buckets(ds.map_batches(to_iv, batch_format="pyarrow"),
                       ["user_id"], dp_bucket)
           .to_pandas())
    cols = ["user_id", "n_intervals", "best_weight_c"]
    if out.empty or "user_id" not in out.columns:
        return pd.DataFrame({c: pd.Series([], dtype="int64")
                             for c in cols})
    out = out[cols]
    for c in cols:
        out[c] = out[c].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def _interval_sched_oracle_sql() -> str:
    K = WS_CAP
    sql = (
        "WITH ws_e AS MATERIALIZED (SELECT user_id, event_id, epoch_us(ts) AS s, "
        "CAST(round(value * 100) AS BIGINT) AS v, "
        "row_number() OVER (PARTITION BY user_id "
        "ORDER BY ts, event_id) AS rn FROM events "
        "WHERE event_type = 'purchase' AND round(value * 100) > 0), "
        f"ws_c AS MATERIALIZED (SELECT user_id, event_id, s, v, "
        f"s + v * 1000000 AS e FROM ws_e WHERE rn <= {K}), "
        "ws_i AS MATERIALIZED (SELECT user_id, s, v, e, CAST(row_number() OVER "
        "(PARTITION BY user_id ORDER BY e, s, event_id) AS BIGINT) "
        "AS i FROM ws_c), "
        "ws_p AS MATERIALIZED (SELECT a.user_id, a.i, a.v, "
        "CAST(coalesce((SELECT max(b.i) FROM ws_i b "
        "WHERE b.user_id = a.user_id AND b.e <= a.s), 0) AS BIGINT) "
        "AS p FROM ws_i a), "
        "ws_m0 AS (SELECT DISTINCT user_id, CAST(0 AS BIGINT) AS i, "
        "CAST(0 AS BIGINT) AS m FROM ws_i)")
    prev = "ws_m0"
    for k in range(1, K + 1):
        sql += (
            f", ws_s{k} AS MATERIALIZED (SELECT r.user_id, r.i, "
            f"greatest(pv.m, r.v + pm.m) AS m FROM ws_p r "
            f"JOIN {prev} pv ON pv.user_id = r.user_id "
            f"AND pv.i = r.i - 1 "
            f"JOIN {prev} pm ON pm.user_id = r.user_id "
            f"AND pm.i = r.p WHERE r.i = {k}), "
            f"ws_m{k} AS MATERIALIZED (SELECT * FROM {prev} "
            f"UNION ALL SELECT * FROM ws_s{k})")
        prev = f"ws_m{k}"
    sql += (
        f", ws_b AS (SELECT user_id, i, m, row_number() OVER "
        f"(PARTITION BY user_id ORDER BY i DESC) AS rk FROM {prev}) "
        "SELECT b.user_id, CAST(c.n AS BIGINT) AS n_intervals, "
        "CAST(b.m AS BIGINT) AS best_weight_c FROM ws_b b "
        "JOIN (SELECT user_id, count(*) AS n FROM ws_i GROUP BY 1) c "
        "ON c.user_id = b.user_id WHERE b.rk = 1 ORDER BY b.user_id")
    return sql


LIS_CAP = 12  # purchases per user entering the LIS DP


def q_lis_per_user(sf_dir: str):
    """LONGEST STRICTLY-INCREASING SUBSEQUENCE of purchase amounts
    per user (is the user's spend escalating?) — the second
    exact-DP-family member next to interval_scheduling: over each
    user's first 12 purchases in (ts, event_id) order, the classic
    L(k) = 1 + max{L(j) : j < k, v_j < v_k} with cent-exact values.
    Output: (user_id, n_items, lis_len).

    Scale shape: user-bucketed map_buckets; inside a bucket the DP is
    vectorized ACROSS users — one (users × 12 × 12) strict-less mask,
    then 12 steps of masked column-max (the loop is over the CONFIG
    cap). The oracle unrolls the same 12 steps as chained
    MATERIALIZED CTEs accumulating (user, k, L)."""
    ds = read_table(sf_dir, "events",
                    columns=["user_id", "event_id", "ts", "value",
                             "event_type"])

    def to_v(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["event_type"], "purchase"))
        return pa.table({
            "user_id": t["user_id"],
            "event_id": t["event_id"],
            "s": t["ts"].cast(pa.int64()),
            "v": pc.cast(pc.round(pc.multiply(t["value"],
                                              pa.scalar(100.0))),
                         pa.int64())})

    def lis_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "s", "event_id"],
                          kind="mergesort").reset_index(drop=True)
        g = g[g.groupby("user_id").cumcount() < LIS_CAP]
        uid, uidx = np.unique(g["user_id"].to_numpy(np.int64),
                              return_inverse=True)
        nu = len(uid)
        k = g.groupby("user_id", sort=True).cumcount() \
            .to_numpy(np.int64)
        V = np.zeros((nu, LIS_CAP), np.int64)
        ok = np.zeros((nu, LIS_CAP), bool)
        V[uidx, k] = g["v"].to_numpy(np.int64)
        ok[uidx, k] = True
        L = np.zeros((nu, LIS_CAP), np.int64)
        L[:, 0] = ok[:, 0].astype(np.int64)
        less = (V[:, :, None] < V[:, None, :]) \
            & ok[:, :, None] & ok[:, None, :]
        for i in range(1, LIS_CAP):
            prior = np.where(less[:, :i, i], L[:, :i], 0)
            L[:, i] = np.where(ok[:, i],
                               1 + prior.max(axis=1, initial=0), 0)
        return pd.DataFrame({
            "user_id": uid,
            "n_items": ok.sum(axis=1).astype(np.int64),
            "lis_len": L.max(axis=1)})

    out = (map_buckets(ds.map_batches(to_v, batch_format="pyarrow"),
                       ["user_id"], lis_bucket)
           .to_pandas())
    cols = ["user_id", "n_items", "lis_len"]
    if out.empty or "user_id" not in out.columns:
        return pd.DataFrame({c: pd.Series([], dtype="int64")
                             for c in cols})
    out = out[cols]
    for c in cols:
        out[c] = out[c].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def _lis_oracle_sql() -> str:
    K = LIS_CAP
    sql = (
        "WITH li_e AS MATERIALIZED (SELECT user_id, "
        "CAST(round(value * 100) AS BIGINT) AS v, "
        "CAST(row_number() OVER (PARTITION BY user_id "
        "ORDER BY ts, event_id) AS BIGINT) AS k FROM events "
        "WHERE event_type = 'purchase'), "
        f"li_c AS MATERIALIZED (SELECT * FROM li_e WHERE k <= {K}), "
        "li_l1 AS MATERIALIZED (SELECT user_id, k, "
        "CAST(1 AS BIGINT) AS l FROM li_c WHERE k = 1)")
    prev = "li_l1"
    for k in range(2, K + 1):
        sql += (
            f", li_s{k} AS MATERIALIZED (SELECT c.user_id, c.k, "
            "CAST(1 + coalesce((SELECT max(p.l) FROM "
            f"{prev} p JOIN li_c pc ON pc.user_id = p.user_id "
            "AND pc.k = p.k WHERE p.user_id = c.user_id "
            "AND pc.v < c.v), 0) AS BIGINT) AS l "
            f"FROM li_c c WHERE c.k = {k}), "
            f"li_l{k} AS MATERIALIZED (SELECT * FROM {prev} "
            f"UNION ALL SELECT * FROM li_s{k})")
        prev = f"li_l{k}"
    sql += (
        f" SELECT c.user_id, CAST(count(*) AS BIGINT) AS n_items, "
        f"CAST(max(l.l) AS BIGINT) AS lis_len FROM li_c c "
        f"JOIN {prev} l ON l.user_id = c.user_id AND l.k = c.k "
        "GROUP BY c.user_id ORDER BY c.user_id")
    return sql


ORACLE_SQL: dict[str, str] = {
    # politeness wait replay: max-plus closed form, one window max
    "politeness_wait_replay": _politeness_wait_oracle_sql(),
    # LIS per user: second exact-DP member, 12-step unrolled twin
    "lis_per_user": _lis_oracle_sql(),
    # weighted interval scheduling: exact DP, 12-step unrolled twin
    "interval_scheduling": _interval_sched_oracle_sql(),
    # id-keyspace gap ranges: range buckets + boundary stitch
    "event_id_gap_ranges": _gap_ranges_oracle_sql(),
    # frontier host->shard routing balance, live hash replayed
    "frontier_shard_balance": _frontier_shard_oracle_sql(),
    # Kendall tau-b components over the dense hourly series
    "kendall_tau": _kendall_oracle_sql(),
    # the live CuckooFilter membership algebra replayed in SQL
    "urlseen_cuckoo_audit": _cuckoo_oracle_sql(),
    # corpus-wide column profile, schema contract pinned
    "table_profile_audit": _profile_oracle_sql(),
    # Hamilton largest-remainder crawl budget apportionment
    "crawl_budget_apportionment": _budget_oracle_sql(),
    # the live BloomFilter double-hash algebra replayed in SQL
    "urlseen_bloom_audit": _bloom_oracle_sql(),
    # multi-pattern substring counts, border-free pattern set
    "pattern_match_counts": _pattern_match_oracle_sql(),
    # Holt linear smoothing trajectory, recursive-CTE replay
    "holt_linear": _holt_oracle_sql(),
    # the live RobotsCache hash algebra replayed end-to-end
    "robots_verdict_stats": _robots_oracle_sql(),
    # FK orphan audit: broadcast probes + one bucketed anti-join
    "orphan_audit": _orphan_oracle_sql(),
    # hourly-lag autocorrelation: exact integer Pearson components
    "acf_hourly": _acf_oracle_sql(),
    # LRU replay via stack distance: one pass grades every capacity
    "lru_cache_stats": _lru_oracle_sql(),
    # rank-statistics family: exact integer rank arithmetic, one
    # final int->double divide
    "auc_mannwhitney": _auc_oracle_sql(),
    "ks_test_value": _ks_oracle_sql(),
    "spearman_rank_corr": _spearman_oracle_sql(),
    "chi2_type_hour": _chi2_oracle_sql(),
    "gini_revenue": _gini_oracle_sql(),
    # Theil–Sen robust trend: exact rational median pairwise slope
    "theil_sen_trend": _theil_sen_oracle_sql(),
    # adaptive revisit policy: the whole AIMD fold replayed via a
    # recursive CTE
    "recrawl_backoff": _recrawl_oracle_sql(),
    # CUSUM closed form: running sum + clamped running min windows
    "cusum_alerts": _cusum_oracle_sql(),
    # the shuffle tagger's own oracle: both hash paths recomputed
    "bucket_skew_audit": _bucket_skew_oracle_sql(),
    # Pearson r to the final float: HUGEINT/bigint inner terms
    "pearson_corr": _pearson_oracle_sql(),
    # exact join cardinality + skew bound, no join materialized
    "join_size_estimate": _join_size_oracle_sql(),
    # gaps-and-islands: consecutive active-day runs per user
    "activity_islands": _activity_islands_oracle_sql(),
    "q2_min_cost_supplier":
        "WITH rs AS (SELECT s_suppkey, s_name, "
        "CAST(round(s_acctbal * 100) AS BIGINT) AS s_acctbal_c, n_name "
        "FROM supplier JOIN nation ON s_nationkey = n_nationkey "
        "JOIN region ON n_regionkey = r_regionkey "
        "WHERE r_name = 'EUROPE'), "
        "fp AS (SELECT p_partkey FROM part "
        "WHERE p_type = 'LARGE' AND p_size % 5 = 0), "
        "pcost AS (SELECT l_partkey AS p_partkey, l_suppkey, "
        "min(CAST(round(l_extendedprice * 100) AS BIGINT)) AS cost_c "
        "FROM lineitem JOIN rs ON l_suppkey = rs.s_suppkey "
        "JOIN fp ON l_partkey = fp.p_partkey GROUP BY 1, 2), "
        "mn AS (SELECT p_partkey, min(cost_c) AS mc FROM pcost "
        "GROUP BY 1) "
        "SELECT rs.s_acctbal_c, rs.s_name, rs.n_name, "
        "CAST(pcost.p_partkey AS BIGINT) AS p_partkey, "
        "CAST(pcost.l_suppkey AS BIGINT) AS s_suppkey, pcost.cost_c "
        "FROM pcost JOIN mn USING (p_partkey) "
        "JOIN rs ON pcost.l_suppkey = rs.s_suppkey "
        "WHERE pcost.cost_c = mn.mc ORDER BY 1 DESC, 3, 2, 4",
    "q11_important_parts":
        "WITH rs AS (SELECT s_suppkey FROM supplier "
        "JOIN nation ON s_nationkey = n_nationkey "
        "JOIN region ON n_regionkey = r_regionkey WHERE r_name = 'ASIA'), "
        "v AS (SELECT CAST(l_partkey AS BIGINT) AS p_partkey, "
        "CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT) * "
        "CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS value_c "
        "FROM lineitem JOIN rs ON l_suppkey = rs.s_suppkey GROUP BY 1) "
        "SELECT p_partkey, value_c FROM v "
        "WHERE value_c * 1000 > (SELECT sum(value_c) FROM v) "
        "ORDER BY 2 DESC, 1",
    "q16_supplier_relationship":
        "WITH px AS (SELECT p_partkey, p_brand, p_type, "
        "CAST(p_size AS BIGINT) AS p_size FROM part "
        "WHERE p_brand <> 'Brand#5' AND p_type <> 'PROMO' "
        "AND p_size IN (1, 4, 9, 16, 25, 36, 49)), "
        "pr AS (SELECT DISTINCT l_partkey, l_suppkey FROM lineitem "
        "WHERE l_suppkey NOT IN (SELECT s_suppkey FROM supplier "
        "WHERE s_acctbal < 0)) "
        "SELECT p_brand, p_type, p_size, "
        "CAST(count(DISTINCT l_suppkey) AS BIGINT) AS supplier_cnt "
        "FROM pr JOIN px ON l_partkey = p_partkey "
        "GROUP BY 1, 2, 3 ORDER BY 4 DESC, 1, 2, 3",
    "q20_potential_promotion":
        "WITH fp AS (SELECT p_partkey FROM part "
        "WHERE p_name LIKE 'red %'), "
        "lq AS (SELECT l_partkey, l_suppkey, "
        "CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS q "
        "FROM lineitem JOIN fp ON l_partkey = p_partkey "
        "WHERE l_shipdate >= DATE '1996-01-01' "
        "AND l_shipdate < DATE '1997-01-01' GROUP BY 1, 2), "
        "w AS (SELECT DISTINCT l_suppkey FROM "
        "(SELECT l_suppkey, q, sum(q) OVER (PARTITION BY l_partkey) "
        "AS tq FROM lq) WHERE 4 * q > tq) "
        "SELECT CAST(s_suppkey AS BIGINT) AS s_suppkey, s_name "
        "FROM supplier JOIN w ON s_suppkey = l_suppkey "
        "JOIN nation ON s_nationkey = n_nationkey "
        "JOIN region ON n_regionkey = r_regionkey "
        "WHERE r_name = 'AMERICA' ORDER BY 1",
    "part_price_rank":
        "SELECT CAST(p_partkey AS BIGINT) AS p_partkey, p_brand, "
        "CAST(round(p_retailprice * 100) AS BIGINT) AS price_c, "
        "CAST(rank() OVER (PARTITION BY p_brand "
        "ORDER BY round(p_retailprice * 100) DESC) AS BIGINT) "
        "AS rank_gaps FROM part ORDER BY 1",
    "nation_revenue_share":
        "WITH nr AS (SELECT c_nationkey AS n_nationkey, "
        "CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) "
        "AS rev_c FROM orders JOIN customer ON o_custkey = c_custkey "
        "GROUP BY 1) "
        "SELECT n_nationkey, rev_c, "
        "CAST((rev_c * 1000000) // (SELECT sum(rev_c) FROM nr) "
        "AS BIGINT) AS share_e6 FROM nr ORDER BY 1",
    "hopping_distinct_users":
        "WITH hd AS (SELECT date_trunc('hour', ts) AS h, user_id "
        "FROM events), "
        "hx AS (SELECT h + to_microseconds(CAST(u.off * -3600000000 "
        "AS BIGINT)) AS window_start, user_id "
        "FROM hd, unnest([0, 1]) AS u(off)) "
        "SELECT window_start, CAST(count(DISTINCT user_id) AS BIGINT) "
        "AS n_users FROM hx GROUP BY 1 ORDER BY 1",
    "part_pareto_frontier":
        "WITH pf AS (SELECT p_partkey, p_brand, "
        "CAST(round(p_retailprice * 100) AS BIGINT) AS price_c, "
        "CAST(p_size AS BIGINT) AS p_size FROM part) "
        "SELECT CAST(a.p_partkey AS BIGINT) AS p_partkey, a.p_brand, "
        "a.price_c, a.p_size FROM pf a WHERE NOT EXISTS ("
        "SELECT 1 FROM pf b WHERE b.p_brand = a.p_brand "
        "AND b.price_c <= a.price_c AND b.p_size <= a.p_size "
        "AND (b.price_c < a.price_c OR b.p_size < a.p_size)) "
        "ORDER BY 1",
    "value_outliers_mad":
        "WITH om_b AS (SELECT event_type, "
        "CAST(round(value * 100) AS BIGINT) AS v_c FROM events), "
        "om_m AS (SELECT event_type, quantile_disc(v_c, 0.5) AS med "
        "FROM om_b GROUP BY 1), "
        "om_d AS (SELECT b.event_type, abs(v_c - med) AS ad, v_c, med "
        "FROM om_b b JOIN om_m USING (event_type)), "
        "om_md AS (SELECT event_type, quantile_disc(ad, 0.5) AS mad "
        "FROM om_d GROUP BY 1) "
        "SELECT d.event_type, CAST(count(*) AS BIGINT) AS n_events, "
        "CAST(min(d.med) AS BIGINT) AS median_value_c, "
        "CAST(min(m.mad) AS BIGINT) AS mad_c, "
        "CAST(sum(CASE WHEN d.ad > 3 * m.mad THEN 1 ELSE 0 END) "
        "AS BIGINT) AS n_outliers "
        "FROM om_d d JOIN om_md m USING (event_type) "
        "GROUP BY 1 ORDER BY 1",
    "event_transitions":
        "WITH et AS (SELECT user_id, event_type, "
        "lead(event_type) OVER (PARTITION BY user_id "
        "ORDER BY ts, event_id) AS nxt FROM events) "
        "SELECT event_type AS from_type, nxt AS to_type, "
        "CAST(count(*) AS BIGINT) AS n FROM et WHERE nxt IS NOT NULL "
        "GROUP BY 1, 2 ORDER BY 1, 2",
    "part_price_rank_dense":
        "SELECT CAST(p_partkey AS BIGINT) AS p_partkey, p_brand, "
        "CAST(round(p_retailprice * 100) AS BIGINT) AS price_c, "
        "CAST(dense_rank() OVER (PARTITION BY p_brand "
        "ORDER BY round(p_retailprice * 100) DESC) AS BIGINT) "
        "AS rank_dense FROM part ORDER BY 1",
    "cohort_retention":
        "WITH cr_w AS (SELECT user_id, epoch_us(ts) // 604800000000 "
        "AS wk FROM events), "
        "cr_c AS (SELECT user_id, min(wk) AS cw FROM cr_w GROUP BY 1) "
        "SELECT CAST(cw AS BIGINT) AS cohort_week, "
        "CAST(wk - cw AS BIGINT) AS week_offset, "
        "CAST(count(DISTINCT w.user_id) AS BIGINT) AS n_users "
        "FROM cr_w w JOIN cr_c c ON w.user_id = c.user_id "
        "GROUP BY 1, 2 ORDER BY 1, 2",
    "time_weighted_value":
        "WITH tw AS (SELECT user_id, epoch_us(ts) AS t, "
        "CAST(round(value * 100) AS BIGINT) AS v_c, "
        "lead(epoch_us(ts)) OVER (PARTITION BY user_id "
        "ORDER BY ts, event_id) AS nt FROM events) "
        "SELECT CAST(user_id AS BIGINT) AS user_id, "
        "CAST(count(nt) AS BIGINT) AS n_segments, "
        "CAST(coalesce(sum(nt - t), 0) AS BIGINT) AS total_us, "
        "CAST(coalesce(sum((nt - t) * v_c), 0) AS BIGINT) "
        "AS tw_value_c_us FROM tw GROUP BY 1 ORDER BY 1",
    "value_stats_per_type":
        "SELECT event_type, CAST(count(*) AS BIGINT) AS n_events, "
        "CAST(sum(v_c) AS BIGINT) AS sum_value_c, "
        "CAST(sum(v_c * v_c) AS BIGINT) AS sumsq_value_c2 FROM "
        "(SELECT event_type, CAST(round(value * 100) AS BIGINT) AS v_c "
        "FROM events) GROUP BY 1 ORDER BY 1",
    "events_funnel":
        "WITH fn_v AS (SELECT user_id, min(epoch_us(ts)) AS view_us "
        "FROM events WHERE event_type = 'view' GROUP BY 1), "
        "fn_c AS (SELECT e.user_id, min(epoch_us(e.ts)) AS click_us "
        "FROM events e JOIN fn_v v ON e.user_id = v.user_id "
        "AND epoch_us(e.ts) > v.view_us "
        "WHERE e.event_type = 'click' GROUP BY 1), "
        "fn_p AS (SELECT e.user_id, min(epoch_us(e.ts)) AS purchase_us "
        "FROM events e JOIN fn_c c ON e.user_id = c.user_id "
        "AND epoch_us(e.ts) > c.click_us "
        "WHERE e.event_type = 'purchase' GROUP BY 1) "
        "SELECT CAST(v.user_id AS BIGINT) AS user_id, "
        "CAST(v.view_us AS BIGINT) AS view_us, "
        "CAST(coalesce(c.click_us, -1) AS BIGINT) AS click_us, "
        "CAST(coalesce(p.purchase_us, -1) AS BIGINT) AS purchase_us "
        "FROM fn_v v LEFT JOIN fn_c c ON v.user_id = c.user_id "
        "LEFT JOIN fn_p p ON v.user_id = p.user_id ORDER BY 1",
    "interval_coverage":
        "WITH iv_b AS (SELECT CAST(user_id AS BIGINT) AS user_id, "
        "epoch_us(ts) AS s, epoch_us(ts) + "
        "CAST(floor(value * 100 + 0.5) AS BIGINT) * 600000 AS e "
        "FROM events), "
        "iv_m AS (SELECT user_id, s, e, max(e) OVER (PARTITION BY user_id "
        "ORDER BY s, e ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) "
        "AS pmax FROM iv_b), "
        "iv_g AS (SELECT user_id, s, e, sum(CASE WHEN pmax IS NULL "
        "OR s > pmax THEN 1 ELSE 0 END) OVER (PARTITION BY user_id "
        "ORDER BY s, e ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) "
        "AS isl FROM iv_m), "
        "iv_i AS (SELECT user_id, isl, min(s) AS ms, max(e) AS me "
        "FROM iv_g GROUP BY 1, 2) "
        "SELECT user_id, CAST(count(*) AS BIGINT) AS n_intervals, "
        "CAST(sum(me - ms) AS BIGINT) AS covered_us "
        "FROM iv_i GROUP BY 1 ORDER BY 1",
    "q17_small_qty_revenue":
        "WITH pq AS (SELECT p_partkey FROM part "
        "WHERE p_brand = 'Brand#3' AND p_type = 'SMALL'), "
        "st AS (SELECT l_partkey, "
        "CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty, "
        "CAST(count(*) AS BIGINT) AS n FROM lineitem "
        "JOIN pq ON l_partkey = p_partkey GROUP BY 1) "
        "SELECT CAST(coalesce(sum(CAST(round(l_extendedprice * 100) "
        "AS BIGINT)), 0) AS BIGINT) AS revenue_c, "
        "CAST(count(*) AS BIGINT) AS n_lines "
        "FROM lineitem JOIN st ON lineitem.l_partkey = st.l_partkey "
        "WHERE 5 * CAST(round(l_quantity) AS BIGINT) * n < sum_qty",
    "q22_sales_opportunity":
        "WITH avgb AS (SELECT "
        "CAST(sum(CAST(round(c_acctbal * 100) AS BIGINT)) AS BIGINT) AS s, "
        "CAST(count(*) AS BIGINT) AS n FROM customer "
        "WHERE CAST(round(c_acctbal * 100) AS BIGINT) > 0), "
        "cust AS (SELECT c_custkey % 7 AS cntrycode, "
        "CAST(round(c_acctbal * 100) AS BIGINT) AS bal_c, c_custkey "
        "FROM customer, avgb WHERE c_custkey % 7 IN (1, 3, 5) "
        "AND CAST(round(c_acctbal * 100) AS BIGINT) * n > s) "
        "SELECT CAST(cntrycode AS BIGINT) AS cntrycode, "
        "CAST(count(*) AS BIGINT) AS numcust, "
        "CAST(sum(bal_c) AS BIGINT) AS totacctbal_c FROM cust "
        "WHERE NOT EXISTS (SELECT 1 FROM orders WHERE o_custkey = c_custkey "
        "AND o_orderdate >= DATE '1999-01-01') "
        "GROUP BY 1 ORDER BY 1",
    "q8_market_share":
        "WITH tgt AS (SELECT n_nationkey FROM nation "
        "WHERE n_name = 'NATION_11'), "
        "vol AS (SELECT CAST(year(o_orderdate) AS BIGINT) AS o_year, "
        "CAST(round(l_extendedprice * 100) AS BIGINT) * "
        "(100 - CAST(round(l_discount * 100) AS BIGINT)) AS r, s_nationkey "
        "FROM lineitem JOIN part ON l_partkey = p_partkey "
        "JOIN supplier ON l_suppkey = s_suppkey "
        "JOIN orders ON l_orderkey = o_orderkey "
        "JOIN customer ON o_custkey = c_custkey "
        "JOIN nation cn ON c_nationkey = cn.n_nationkey "
        "JOIN region ON cn.n_regionkey = r_regionkey "
        "WHERE p_type = 'PROMO' AND r_name = 'ASIA' "
        "AND o_orderdate >= DATE '1995-01-01' "
        "AND o_orderdate < DATE '1997-01-01') "
        "SELECT o_year, CAST(sum(CASE WHEN s_nationkey = "
        "(SELECT n_nationkey FROM tgt) THEN r ELSE 0 END) AS BIGINT) "
        "AS target_e4, CAST(sum(r) AS BIGINT) AS total_e4 "
        "FROM vol GROUP BY 1 ORDER BY 1",
    "q9_profit_by_nation":
        "WITH prof AS (SELECT n_name, "
        "CAST(year(o_orderdate) AS BIGINT) AS o_year, "
        "CAST(round(l_extendedprice * 100) AS BIGINT) * "
        "(100 - CAST(round(l_discount * 100) AS BIGINT)) - "
        "CAST(round(p_retailprice * 100) AS BIGINT) * 100 * "
        "CAST(round(l_quantity) AS BIGINT) AS p "
        "FROM lineitem JOIN part ON l_partkey = p_partkey "
        "JOIN supplier ON l_suppkey = s_suppkey "
        "JOIN nation ON s_nationkey = n_nationkey "
        "JOIN orders ON l_orderkey = o_orderkey "
        "WHERE p_name LIKE '%widget%') "
        "SELECT n_name, o_year, CAST(sum(p) AS BIGINT) AS profit_e4 "
        "FROM prof GROUP BY 1, 2 ORDER BY 1, 2 DESC",
    "events_hopping_window":
        "WITH e AS (SELECT ts, CAST(round(value * 100) AS BIGINT) AS v_c "
        "FROM events), "
        "x AS (SELECT date_trunc('hour', ts) - to_hours(u.off) "
        "AS window_start, v_c FROM e, unnest([0, 1]) AS u(off)) "
        "SELECT window_start, CAST(count(*) AS BIGINT) AS n_events, "
        "CAST(sum(v_c) AS BIGINT) AS sum_value_c "
        "FROM x GROUP BY 1 ORDER BY 1",
    "cube_order_counts":
        "SELECT coalesce(o_orderpriority, 'ALL') AS o_orderpriority, "
        "coalesce(o_orderstatus, 'ALL') AS o_orderstatus, "
        "CAST(count(*) AS BIGINT) AS n_orders, "
        "CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) "
        "AS total_c FROM orders "
        "GROUP BY CUBE(o_orderpriority, o_orderstatus) ORDER BY 1, 2",
    "sessionize_events":
        "WITH se_d AS (SELECT user_id, epoch_us(ts) AS t, "
        "lag(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts) "
        "AS pt FROM events), "
        "se_b AS (SELECT user_id, t, CASE WHEN pt IS NULL "
        "OR t - pt > 28800000000 THEN 1 ELSE 0 END AS new FROM se_d), "
        "se_s AS (SELECT user_id, t, sum(new) OVER (PARTITION BY "
        "user_id ORDER BY t ROWS UNBOUNDED PRECEDING) - 1 "
        "AS session_id FROM se_b) "
        "SELECT CAST(user_id AS BIGINT) AS user_id, "
        "CAST(session_id AS BIGINT) AS session_id, "
        "CAST(count(*) AS BIGINT) AS n_events, "
        "CAST(min(t) AS BIGINT) AS start_us, "
        "CAST(max(t) AS BIGINT) AS end_us "
        "FROM se_s GROUP BY 1, 2 ORDER BY 1, 2",
    "events_lag_gaps":
        "WITH d AS (SELECT user_id, epoch_us(ts) AS t, "
        "lag(epoch_us(ts)) OVER (PARTITION BY user_id "
        "ORDER BY ts, event_id) AS pt FROM events), "
        "g AS (SELECT user_id, CASE WHEN pt IS NULL THEN 0 "
        "ELSE t - pt END AS gap FROM d) "
        "SELECT CAST(user_id AS BIGINT) AS user_id, "
        "CAST(count(*) AS BIGINT) AS n_events, "
        "CAST(max(gap) AS BIGINT) AS max_gap_us, "
        "CAST(sum(CASE WHEN gap > 3600000000 THEN 1 ELSE 0 END) "
        "AS BIGINT) AS n_long_gaps FROM g GROUP BY 1 ORDER BY 1",
    "full_outer_nation_accounts":
        "WITH c AS (SELECT CAST(c_nationkey AS BIGINT) AS n_nationkey, "
        "CAST(count(*) AS BIGINT) AS n_customers, "
        "CAST(sum(CAST(round(c_acctbal * 100) AS BIGINT)) AS BIGINT) "
        "AS cust_bal_c FROM customer GROUP BY 1), "
        "s AS (SELECT CAST(s_nationkey AS BIGINT) AS n_nationkey, "
        "CAST(count(*) AS BIGINT) AS n_suppliers, "
        "CAST(sum(CAST(round(s_acctbal * 100) AS BIGINT)) AS BIGINT) "
        "AS supp_bal_c FROM supplier GROUP BY 1) "
        "SELECT n_nationkey, "
        "coalesce(n_customers, 0) AS n_customers, "
        "coalesce(cust_bal_c, 0) AS cust_bal_c, "
        "coalesce(n_suppliers, 0) AS n_suppliers, "
        "coalesce(supp_bal_c, 0) AS supp_bal_c "
        "FROM c FULL OUTER JOIN s USING (n_nationkey) ORDER BY 1",
    "q21_waiting_suppliers":
        "WITH lf AS (SELECT l_orderkey, l_suppkey, "
        "max(CASE WHEN l_returnflag = 'R' THEN 1 ELSE 0 END) AS any_r "
        "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
        "WHERE o_orderstatus = 'F' GROUP BY 1, 2), "
        "g AS (SELECT l_orderkey, count(*) AS nsupp, sum(any_r) AS nr "
        "FROM lf GROUP BY 1), "
        "w AS (SELECT l_suppkey FROM lf JOIN g USING (l_orderkey) "
        "WHERE nsupp >= 2 AND nr = 1 AND any_r = 1) "
        "SELECT CAST(l_suppkey AS BIGINT) AS s_suppkey, s_name, "
        "CAST(count(*) AS BIGINT) AS numwait "
        "FROM w JOIN supplier ON l_suppkey = s_suppkey "
        "GROUP BY 1, 2 ORDER BY numwait DESC, s_suppkey LIMIT 10",
    "q5_local_supplier_volume":
        "WITH rev AS (SELECT n_name, "
        "CAST(round(l_extendedprice * 100) AS BIGINT) * "
        "(100 - CAST(round(l_discount * 100) AS BIGINT)) AS r "
        "FROM customer, orders, lineitem, supplier, nation, region "
        "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
        "AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey "
        "AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey "
        "AND r_name = 'ASIA' AND o_orderdate >= DATE '1996-01-01' "
        "AND o_orderdate < DATE '1997-01-01') "
        "SELECT n_name, CAST(sum(r) AS BIGINT) AS revenue_e4 FROM rev "
        "GROUP BY n_name ORDER BY revenue_e4 DESC, n_name",
    "q10_returned_items":
        "WITH rev AS (SELECT o_custkey AS c_custkey, "
        "CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT) * "
        "(100 - CAST(round(l_discount * 100) AS BIGINT))) AS BIGINT) AS revenue_e4 "
        "FROM orders JOIN lineitem ON l_orderkey = o_orderkey "
        "WHERE l_returnflag = 'R' AND o_orderdate >= DATE '1996-01-01' "
        "AND o_orderdate < DATE '1996-04-01' GROUP BY 1) "
        "SELECT c_custkey, c_name, revenue_e4 FROM rev JOIN customer USING (c_custkey) "
        "ORDER BY revenue_e4 DESC, c_custkey LIMIT 20",
    "q15_top_supplier":
        "WITH rev AS (SELECT l_suppkey AS s_suppkey, "
        "CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT) * "
        "(100 - CAST(round(l_discount * 100) AS BIGINT))) AS BIGINT) "
        "AS total_revenue_e4 FROM lineitem "
        "WHERE l_shipdate >= DATE '1996-01-01' AND l_shipdate < DATE '1996-04-01' "
        "GROUP BY 1) "
        "SELECT s_suppkey, s_name, total_revenue_e4 FROM rev "
        "JOIN supplier USING (s_suppkey) "
        "WHERE total_revenue_e4 = (SELECT max(total_revenue_e4) FROM rev) "
        "ORDER BY s_suppkey",
    "q18_large_volume_customers":
        "WITH big AS (SELECT l_orderkey AS o_orderkey, "
        "CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS total_qty "
        "FROM lineitem GROUP BY 1 "
        "HAVING sum(CAST(round(l_quantity) AS BIGINT)) > 300) "
        "SELECT c_custkey, c_name, o_orderkey, o_orderdate, "
        "CAST(round(o_totalprice * 100) AS BIGINT) AS o_totalprice_c, total_qty "
        "FROM big JOIN orders USING (o_orderkey) "
        "JOIN customer ON o_custkey = c_custkey "
        "ORDER BY o_totalprice_c DESC, o_orderkey",
    "q19_discounted_revenue":
        "SELECT CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT) * "
        "(100 - CAST(round(l_discount * 100) AS BIGINT))) AS BIGINT) "
        "AS revenue_e4, CAST(count(*) AS BIGINT) AS n_lines "
        "FROM lineitem JOIN part ON l_partkey = p_partkey "
        "WHERE (p_brand = 'Brand#1' AND round(l_quantity) BETWEEN 1 AND 20 "
        "AND p_size BETWEEN 1 AND 15) "
        "OR (p_brand = 'Brand#2' AND round(l_quantity) BETWEEN 10 AND 30 "
        "AND p_size BETWEEN 5 AND 25) "
        "OR (p_brand = 'Brand#3' AND round(l_quantity) BETWEEN 20 AND 40 "
        "AND p_size BETWEEN 10 AND 40)",
    "q7_volume_shipping":
        "WITH rev AS (SELECT sn.n_name AS supp_nation, cn.n_name AS "
        "cust_nation, CAST(year(l_shipdate) AS BIGINT) AS l_year, "
        "CAST(round(l_extendedprice * 100) AS BIGINT) * "
        "(100 - CAST(round(l_discount * 100) AS BIGINT)) AS r "
        "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
        "JOIN customer ON o_custkey = c_custkey "
        "JOIN supplier ON l_suppkey = s_suppkey "
        "JOIN nation sn ON s_nationkey = sn.n_nationkey "
        "JOIN nation cn ON c_nationkey = cn.n_nationkey "
        "WHERE l_shipdate >= DATE '1996-01-01' "
        "AND l_shipdate < DATE '1998-01-01' "
        "AND ((sn.n_name = 'NATION_11' AND cn.n_name = 'NATION_12') OR "
        "(sn.n_name = 'NATION_12' AND cn.n_name = 'NATION_11'))) "
        "SELECT supp_nation, cust_nation, l_year, "
        "CAST(sum(r) AS BIGINT) AS revenue_e4 FROM rev "
        "GROUP BY 1, 2, 3 ORDER BY 1, 2, 3",
    "quantiles_value_per_type":
        "WITH c AS (SELECT event_type, "
        "CAST(round(value * 100) AS BIGINT) AS v_c FROM events) "
        "SELECT event_type, CAST(count(*) AS BIGINT) AS n_events, "
        "quantile_disc(v_c, 0.25) AS p25_c, "
        "quantile_disc(v_c, 0.50) AS p50_c, "
        "quantile_disc(v_c, 0.75) AS p75_c, "
        "quantile_disc(v_c, 0.95) AS p95_c FROM c GROUP BY event_type",
    "distinct_users_per_type":
        "SELECT event_type, CAST(count(DISTINCT user_id) AS BIGINT) "
        "AS n_users FROM events GROUP BY event_type",
    "median_value_per_type":
        "WITH c AS (SELECT event_type, "
        "CAST(round(value * 100) AS BIGINT) AS v_c FROM events) "
        "SELECT event_type, CAST(count(*) AS BIGINT) AS n_events, "
        "quantile_disc(v_c, 0.5) AS median_value_c FROM c "
        "GROUP BY event_type",
    "winsorize_value":
        "WITH c AS (SELECT event_id, event_type, "
        "CAST(round(value * 100) AS BIGINT) AS v_c FROM events), "
        "q AS (SELECT event_type, quantile_disc(v_c, 0.05) AS lo, "
        "quantile_disc(v_c, 0.95) AS hi FROM c GROUP BY 1) "
        "SELECT event_id, c.event_type AS event_type, "
        "CAST(least(greatest(v_c, lo), hi) AS BIGINT) AS value_clip_c "
        "FROM c JOIN q ON q.event_type = c.event_type "
        "ORDER BY event_id",
    "bloom_semi_orders":
        "SELECT o_orderkey, o_custkey FROM orders WHERE o_custkey IN "
        "(SELECT c_custkey FROM customer "
        "WHERE c_mktsegment = 'BUILDING') ORDER BY o_orderkey",
    "events_ewma": _ewma_oracle_sql(),
    "value_trend_per_user": _value_trend_oracle_sql(),
    "late_event_flags": _late_events_oracle_sql(),
    "scd2_intervals": _scd2_oracle_sql(),
    "normalize_value_per_user": _normalize_value_oracle_sql(),
    "covisit_user_pairs": _covisit_oracle_sql(),
    "weekly_growth": _weekly_growth_oracle_sql(),
    "benford_digits": _benford_oracle_sql(),
    "f2_selfjoin_estimate": _f2_oracle_sql(),
    "event_trigrams": _event_trigrams_oracle_sql(),
    "trending_types": _trending_oracle_sql(),
    "bootstrap_sums": _bootstrap_oracle_sql(),
    "hourofday_profile": _hourofday_oracle_sql(),
    "trailing_window_value":
        "SELECT user_id, event_id, "
        "CAST(sum(CAST(round(value * 100) AS BIGINT)) OVER w AS BIGINT) "
        "AS trailing_sum_c, "
        "CAST(count(*) OVER w AS BIGINT) AS n_in_range "
        "FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts "
        "RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)",
    "weighted_median_chars":
        "WITH c AS (SELECT source, n_chars, "
        "CAST(sum(n_chars) AS BIGINT) AS w FROM documents "
        "GROUP BY 1, 2), "
        "t AS (SELECT source, sum(w) AS tw FROM c GROUP BY 1), "
        "r AS (SELECT c.source, n_chars, sum(w) OVER "
        "(PARTITION BY c.source ORDER BY n_chars) AS cw, tw "
        "FROM c JOIN t USING (source)) "
        "SELECT source, CAST(min(n_chars) AS BIGINT) AS wmedian_chars "
        "FROM r WHERE cw * 2 >= tw GROUP BY source ORDER BY source",
    "mode_chars_per_source":
        "WITH c AS (SELECT source, n_chars, count(*) AS n "
        "FROM documents GROUP BY 1, 2), "
        "r AS (SELECT source, n_chars, n, row_number() OVER "
        "(PARTITION BY source ORDER BY n DESC, n_chars) AS rn FROM c) "
        "SELECT source, CAST(n_chars AS BIGINT) AS mode_chars, "
        "CAST(n AS BIGINT) AS n_mode FROM r WHERE rn = 1 "
        "ORDER BY source",
    "intersect_users":
        "SELECT user_id FROM events WHERE event_type = 'click' "
        "AND CAST(round(value * 100) AS BIGINT) > 9500 "
        "INTERSECT "
        "SELECT user_id FROM events WHERE event_type = 'purchase' "
        "AND CAST(round(value * 100) AS BIGINT) > 9500 "
        "ORDER BY user_id",
    "except_users":
        "SELECT user_id FROM events WHERE event_type = 'click' "
        "AND CAST(round(value * 100) AS BIGINT) > 9500 "
        "EXCEPT "
        "SELECT user_id FROM events WHERE event_type = 'purchase' "
        "AND CAST(round(value * 100) AS BIGINT) > 9500 "
        "ORDER BY user_id",
    "covar_qty_discount":
        "WITH c AS (SELECT l_returnflag, "
        "CAST(round(l_quantity) AS BIGINT) AS q, "
        "CAST(round(l_discount * 100) AS BIGINT) AS d FROM lineitem) "
        "SELECT l_returnflag, CAST(count(*) AS BIGINT) AS n, "
        "CAST(sum(q) AS BIGINT) AS sum_q, "
        "CAST(sum(d) AS BIGINT) AS sum_d_e2, "
        "CAST(sum(q * q) AS BIGINT) AS sumsq_q, "
        "CAST(sum(d * d) AS BIGINT) AS sumsq_d_e4, "
        "CAST(sum(q * d) AS BIGINT) AS sum_qd_e2 "
        "FROM c GROUP BY l_returnflag ORDER BY l_returnflag",
    "conversion_lag":
        "SELECT user_id, "
        "CAST(epoch_us(min(CASE WHEN event_type = 'purchase' THEN ts "
        "END)) - epoch_us(min(CASE WHEN event_type = 'view' THEN ts "
        "END)) AS BIGINT) AS lag_us "
        "FROM events GROUP BY user_id "
        "HAVING min(CASE WHEN event_type = 'purchase' THEN ts END) "
        "IS NOT NULL AND min(CASE WHEN event_type = 'view' THEN ts "
        "END) IS NOT NULL ORDER BY user_id",
    "q13_customer_distribution":
        "SELECT c_count, CAST(count(*) AS BIGINT) AS custdist FROM "
        "(SELECT c.c_custkey, CAST(count(o.o_custkey) AS BIGINT) AS c_count "
        "FROM customer c LEFT JOIN orders o ON o.o_custkey = c.c_custkey "
        "GROUP BY 1) GROUP BY c_count "
        "ORDER BY custdist DESC, c_count DESC",
    "approx_distinct_users": _hll_oracle_sql(),
    "g1_status_histogram":
        "SELECT o_orderstatus, count(*) AS n_items FROM orders GROUP BY o_orderstatus",
    "g2_task_finished":
        "SELECT count(*) FILTER (o_orderstatus = 'F') AS n_completed, "
        "count(*) FILTER (o_orderstatus = 'O') AS n_open, count(*) AS n_total FROM orders",
    "g3_window_progress":
        "SELECT event_type, count(*) AS n_recent FROM events "
        "WHERE ts >= TIMESTAMP '2024-01-24 00:00:00' GROUP BY event_type",
    "g4_fleet_stats":
        "WITH c AS (SELECT user_id, CAST(round(value * 100) AS BIGINT) AS v_c "
        "FROM events) SELECT user_id, count(*) AS n_events, "
        "CAST(sum(v_c) AS BIGINT) AS sum_value_c, "
        "CAST((20 * sum(v_c) + count(*)) // (2 * count(*)) AS BIGINT) "
        "AS avg_value_e3 FROM c GROUP BY user_id",
    "g5_avg_rate":
        "WITH c AS (SELECT event_type, CAST(round(value * 100) AS BIGINT) AS v_c "
        "FROM events) SELECT event_type, "
        "CAST((20 * sum(v_c) + count(*)) // (2 * count(*)) AS BIGINT) "
        "AS avg_value_e3 FROM c GROUP BY event_type",
    "g6_distinct_users":
        "SELECT count(DISTINCT user_id) AS n_distinct_users FROM events",
    "g7_host_counts":
        "SELECT source AS host, count(*) AS n_docs FROM documents GROUP BY source",
    "g8_totals":
        "SELECT count(*) AS n_orders, "
        "CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS total_price_c FROM orders",
    "g9_bytes_total":
        "SELECT CAST(sum(n_chars) AS BIGINT) AS total_bytes FROM documents",
    "o2_proxy_claim_order":
        "SELECT s_suppkey, s_name, row_number() OVER "
        "(ORDER BY s_acctbal, s_nationkey, s_suppkey) AS claim_order FROM supplier",
    "o3_recent_topk":
        "SELECT event_id, ts, event_type FROM events ORDER BY ts DESC, event_id LIMIT 100",
    "o5_sample_topk_docs":
        "SELECT doc_id, n_chars FROM documents ORDER BY n_chars DESC, doc_id LIMIT 50",
    "o6_top35_parts":
        "SELECT l_partkey, count(*) AS n_lines FROM lineitem GROUP BY l_partkey "
        "ORDER BY n_lines DESC, l_partkey LIMIT 35",
    "o7_latency_stats":
        "SELECT event_type, count(*) AS n_lat, "
        "CAST((20 * sum(CAST(round(value * 100) AS BIGINT)) + count(*)) "
        "// (2 * count(*)) AS BIGINT) AS avg_value_e3, "
        "quantile_disc(value, 0.5) AS p50_value, "
        "quantile_disc(value, 0.95) AS p95_value, max(value) AS max_value "
        "FROM events GROUP BY event_type",
    "j1_order_customer_join":
        "SELECT o_orderkey, c_name, o_totalprice FROM orders "
        "JOIN customer ON o_custkey = c_custkey",
    "j4_customers_without_p_orders":
        "SELECT c_custkey, c_name FROM customer WHERE c_custkey NOT IN "
        "(SELECT o_custkey FROM orders WHERE o_orderstatus = 'P')",
    "j2_bucketed_join_revenue":
        "SELECT o_orderstatus, count(*) AS n_lines, "
        "CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT) * "
        "(100 - CAST(round(l_discount * 100) AS BIGINT))) AS BIGINT) AS revenue_e4 "
        "FROM lineitem JOIN orders ON l_orderkey = o_orderkey GROUP BY o_orderstatus",
    "q1_pricing_summary":
        "WITH c AS (SELECT l_returnflag, l_linestatus, "
        "CAST(round(l_quantity) AS BIGINT) AS qty, "
        "CAST(round(l_extendedprice * 100) AS BIGINT) AS price_c, "
        "CAST(round(l_discount * 100) AS BIGINT) AS disc_c, "
        "CAST(round(l_tax * 100) AS BIGINT) AS tax_c FROM lineitem "
        "WHERE l_shipdate <= TIMESTAMP '1998-09-02 00:00:00') "
        "SELECT l_returnflag, l_linestatus, CAST(sum(qty) AS BIGINT) AS sum_qty, "
        "CAST(sum(price_c) AS BIGINT) AS sum_base_price_c, "
        "CAST(sum(price_c * (100 - disc_c)) AS BIGINT) AS sum_disc_price_e4, "
        "CAST(sum(price_c * (100 - disc_c) * (100 + tax_c)) AS BIGINT) AS sum_charge_e6, "
        "CAST((sum(qty) * 10000) // count(*) AS BIGINT) AS avg_qty_e4, "
        "CAST((sum(price_c) * 100) // count(*) AS BIGINT) AS avg_price_e4, "
        "CAST((sum(disc_c) * 100) // count(*) AS BIGINT) AS avg_disc_e4, "
        "count(*) AS count_order FROM c GROUP BY l_returnflag, l_linestatus",
    "q6_revenue_delta":
        "SELECT CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT) * "
        "CAST(round(l_discount * 100) AS BIGINT)) AS BIGINT) AS revenue_e4, "
        "count(*) AS n_rows FROM lineitem "
        "WHERE l_shipdate >= TIMESTAMP '1995-01-01' AND l_shipdate < TIMESTAMP '1997-01-01' "
        "AND l_quantity < 24 AND l_discount BETWEEN 0.05 AND 0.07",
    "q4_priority_exists":
        "SELECT o_orderpriority, count(*) AS n_orders FROM orders "
        "WHERE o_orderdate >= TIMESTAMP '1996-01-01' AND o_orderdate < TIMESTAMP '1997-01-01' "
        "AND EXISTS (SELECT 1 FROM lineitem WHERE l_orderkey = o_orderkey AND l_quantity > 45) "
        "GROUP BY o_orderpriority ORDER BY o_orderpriority",
    "median_cont_value_per_type":
        "WITH mc_v AS (SELECT event_type, "
        "CAST(round(value * 100) AS BIGINT) AS vc FROM events), "
        "mc_r AS (SELECT event_type, vc, row_number() OVER ("
        "PARTITION BY event_type ORDER BY vc) - 1 AS i, "
        "count(*) OVER (PARTITION BY event_type) AS n FROM mc_v) "
        "SELECT event_type, CAST(max(n) AS BIGINT) AS n_events, "
        "CAST(sum(CASE WHEN i = (n - 1) // 2 THEN vc ELSE 0 END) + "
        "sum(CASE WHEN i = n // 2 THEN vc ELSE 0 END) AS BIGINT) "
        "AS med2x_c FROM mc_r GROUP BY event_type ORDER BY event_type",
    "percentile_rank_parts":
        "WITH prk AS (SELECT p_partkey, p_brand, p_retailprice, "
        "rank() OVER (PARTITION BY p_brand ORDER BY p_retailprice) AS rk, "
        "count(*) OVER (PARTITION BY p_brand ORDER BY p_retailprice) "
        "AS cume, "
        "count(*) OVER (PARTITION BY p_brand) AS cnt FROM part) "
        "SELECT p_partkey, p_brand, "
        "CAST(round(p_retailprice * 100) AS BIGINT) AS price_c, "
        "CAST((rk - 1) * 1000000 // greatest(cnt - 1, 1) AS BIGINT) "
        "AS pr_e6, "
        "CAST(cume * 1000000 // cnt AS BIGINT) AS cd_e6 "
        "FROM prk ORDER BY p_brand, p_partkey",
    "value_histogram":
        "WITH vh AS (SELECT event_type, "
        "CAST(round(value * 100) AS BIGINT) AS vc FROM events) "
        "SELECT event_type, "
        "CAST(least(greatest(vc // 1000, 0), 19) AS BIGINT) AS bin, "
        "CAST(count(*) AS BIGINT) AS n, "
        "CAST(sum(vc) AS BIGINT) AS sum_value_c "
        "FROM vh GROUP BY 1, 2 ORDER BY 1, 2",
    "user_timeline":
        "WITH ut AS ("
        "SELECT user_id, ts, 0 AS src, event_id AS eid, "
        "'event:' || event_type AS item FROM events "
        "UNION ALL "
        "SELECT o_custkey, o_orderdate, 1, o_orderkey, "
        "'order:' || o_orderstatus FROM orders) "
        "SELECT user_id, ts, item, "
        "CAST(row_number() OVER (PARTITION BY user_id "
        "ORDER BY ts, src, eid) AS BIGINT) AS seq "
        "FROM ut ORDER BY user_id, seq",
    "crawl_fairness":
        "WITH cf_c AS (SELECT source, CAST(count(*) AS BIGINT) AS n "
        "FROM documents GROUP BY 1), "
        "cf_r AS (SELECT n, row_number() OVER (ORDER BY n, source) AS i "
        "FROM cf_c) "
        "SELECT CAST(count(*) AS BIGINT) AS n_hosts, "
        "CAST(sum(n) AS BIGINT) AS total_docs, "
        "CAST((2 * sum(i * n) - (count(*) + 1) * sum(n)) * 1000000 "
        "// (count(*) * sum(n)) AS BIGINT) AS gini_e6 "
        "FROM cf_r",
    "part_ntile":
        "SELECT p_partkey, p_brand, "
        "CAST(round(p_retailprice * 100) AS BIGINT) AS price_c, "
        "CAST(NTILE(4) OVER (PARTITION BY p_brand "
        "ORDER BY p_retailprice, p_partkey) AS BIGINT) AS tile "
        "FROM part ORDER BY p_brand, p_partkey",
    "unpivot_part":
        "SELECT p_partkey, 'p_retailprice_c' AS measure, "
        "CAST(round(p_retailprice * 100) AS BIGINT) AS value FROM part "
        "UNION ALL SELECT p_partkey, 'p_size' AS measure, "
        "CAST(p_size AS BIGINT) AS value FROM part "
        "ORDER BY p_partkey, measure",
    "q12_shipmode":
        "SELECT l_linestatus, "
        "CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') "
        "THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count, "
        "CAST(sum(CASE WHEN o_orderpriority NOT IN ('1-URGENT', '2-HIGH') "
        "THEN 1 ELSE 0 END) AS BIGINT) AS low_line_count "
        "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
        "WHERE l_shipdate >= TIMESTAMP '1995-01-01' "
        "AND l_shipdate < TIMESTAMP '1996-01-01' "
        "GROUP BY l_linestatus ORDER BY l_linestatus",
    "q14_promo_share":
        "WITH f AS (SELECT CAST(round(l_extendedprice * 100) AS BIGINT) * "
        "(100 - CAST(round(l_discount * 100) AS BIGINT)) AS rev_e4, p_size "
        "FROM lineitem JOIN part ON l_partkey = p_partkey "
        "WHERE l_shipdate >= TIMESTAMP '1995-09-01' AND l_shipdate < TIMESTAMP '1995-10-01') "
        "SELECT CAST(sum(rev_e4) FILTER (p_size < 25) AS BIGINT) AS promo_revenue_e4, "
        "CAST(sum(rev_e4) AS BIGINT) AS total_revenue_e4, "
        "CAST((sum(rev_e4) FILTER (p_size < 25) * 1000000) // sum(rev_e4) AS BIGINT) "
        "AS promo_share_e6 FROM f",
    "q3_shipping_priority":
        "SELECT l_orderkey, CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT) * "
        "(100 - CAST(round(l_discount * 100) AS BIGINT))) AS BIGINT) AS revenue_e4, "
        "o_orderdate FROM customer JOIN orders ON c_custkey = o_custkey "
        "JOIN lineitem ON l_orderkey = o_orderkey "
        "WHERE c_mktsegment = 'BUILDING' AND o_orderdate < TIMESTAMP '1995-03-15' "
        "AND l_shipdate > TIMESTAMP '1995-03-15' "
        "GROUP BY l_orderkey, o_orderdate "
        "ORDER BY revenue_e4 DESC, l_orderkey LIMIT 10",
    "m3_clean_html":
        "SELECT doc_id, length(regexp_replace(regexp_replace(regexp_replace("
        "'<p>' || text || '</p><script>var x=1;</script><style>.a{b:1}</style><!--c-->', "
        "'<\\s*script[^>]*>.*?<\\s*/\\s*script\\s*>', '', 'gs'), "
        "'<\\s*style[^>]*>.*?<\\s*/\\s*style\\s*>', '', 'gs'), "
        "'<!--.*?-->', '', 'gs')) AS clean_len FROM documents",
    "m5_extract_links":
        "SELECT doc_id, 'http://' || source || '.example/d' || CAST(doc_id AS VARCHAR) AS href, "
        "source || '.example' AS out_host FROM documents",
    "m7_id_item_mapping":
        "SELECT doc_id, source AS item FROM documents",
    "m10_parse_props":
        "SELECT event_id, CAST(json_extract(props, '$.k') AS BIGINT) AS k FROM events",
    "events_hourly_window":
        "SELECT user_id, date_trunc('hour', ts) AS window_start, count(*) AS n_events, "
        "CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sum_value_c "
        "FROM events GROUP BY user_id, date_trunc('hour', ts)",
    "events_session_window":
        "WITH g AS (SELECT user_id, ts, CASE WHEN ts - lag(ts) OVER "
        "(PARTITION BY user_id ORDER BY ts) > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS brk "
        "FROM events), s AS (SELECT user_id, ts, "
        "CAST(sum(brk) OVER (PARTITION BY user_id ORDER BY ts) AS BIGINT) AS session_id FROM g) "
        "SELECT user_id, session_id, count(*) AS n_events, "
        "min(ts) AS session_start, max(ts) AS session_end "
        "FROM s GROUP BY user_id, session_id",
    "profile_events":
        "WITH pr_e AS (SELECT user_id, event_type, "
        "CAST(round(value * 100) AS BIGINT) AS value_c, "
        "CAST(epoch_us(ts) AS BIGINT) AS ts_us FROM events) "
        "SELECT 'event_type' AS \"column\", CAST(count(*) AS BIGINT) AS n, "
        "CAST(count(*) - count(event_type) AS BIGINT) AS n_null, "
        "CAST(count(DISTINCT event_type) AS BIGINT) AS n_distinct, "
        "CAST(-1 AS BIGINT) AS min_i, CAST(-1 AS BIGINT) AS max_i, "
        "min(event_type) AS min_s, max(event_type) AS max_s FROM pr_e "
        "UNION ALL SELECT 'ts_us', count(*), 0, count(DISTINCT ts_us), "
        "min(ts_us), max(ts_us), '', '' FROM pr_e "
        "UNION ALL SELECT 'user_id', count(*), 0, "
        "count(DISTINCT user_id), min(user_id), max(user_id), '', '' "
        "FROM pr_e "
        "UNION ALL SELECT 'value_c', count(*), 0, "
        "count(DISTINCT value_c), min(value_c), max(value_c), '', '' "
        "FROM pr_e ORDER BY 1",
    "basket_rules":
        "WITH br_bt AS (SELECT DISTINCT user_id, "
        "date_trunc('hour', ts) AS h, event_type FROM events), "
        "br_tot AS (SELECT count(*) AS total FROM ("
        "SELECT DISTINCT user_id, h FROM br_bt)), "
        "br_na AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n "
        "FROM br_bt GROUP BY 1), "
        "br_p AS (SELECT a.event_type AS type_a, b.event_type AS type_b, "
        "CAST(count(*) AS BIGINT) AS n_ab "
        "FROM br_bt a JOIN br_bt b ON a.user_id = b.user_id "
        "AND a.h = b.h AND a.event_type < b.event_type GROUP BY 1, 2) "
        "SELECT type_a, type_b, n_ab, na.n AS n_a, nb.n AS n_b, "
        "CAST(total AS BIGINT) AS n_baskets, "
        "CAST(n_ab * 1000000 // total AS BIGINT) AS support_e6, "
        "CAST(n_ab * 1000000 // na.n AS BIGINT) AS confidence_e6, "
        "CAST(n_ab * total * 1000000 // (na.n * nb.n) AS BIGINT) "
        "AS lift_e6 "
        "FROM br_p JOIN br_na na ON na.event_type = type_a "
        "JOIN br_na nb ON nb.event_type = type_b, br_tot "
        "ORDER BY 1, 2",
    "events_ohlc_hourly":
        "WITH oh_e AS (SELECT user_id, date_trunc('hour', ts) AS hour, "
        "ts, event_id, CAST(round(value * 100) AS BIGINT) AS value_c "
        "FROM events), "
        "oh_o AS (SELECT user_id, hour, value_c AS open_c FROM ("
        "SELECT *, row_number() OVER (PARTITION BY user_id, hour "
        "ORDER BY ts, event_id) AS rn FROM oh_e) WHERE rn = 1), "
        "oh_c AS (SELECT user_id, hour, value_c AS close_c FROM ("
        "SELECT *, row_number() OVER (PARTITION BY user_id, hour "
        "ORDER BY ts DESC, event_id DESC) AS rn FROM oh_e) WHERE rn = 1), "
        "oh_a AS (SELECT user_id, hour, max(value_c) AS high_c, "
        "min(value_c) AS low_c, CAST(count(*) AS BIGINT) AS n "
        "FROM oh_e GROUP BY 1, 2) "
        "SELECT a.user_id, a.hour, o.open_c, a.high_c, a.low_c, "
        "c.close_c, a.n FROM oh_a a "
        "JOIN oh_o o ON o.user_id = a.user_id AND o.hour = a.hour "
        "JOIN oh_c c ON c.user_id = a.user_id AND c.hour = a.hour "
        "ORDER BY 1, 2",
    "throttle_events":
        "WITH RECURSIVE te_e AS (SELECT user_id, event_id, ts, "
        "row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) "
        "AS rn FROM events), "
        "te_k AS ("
        "SELECT user_id, event_id, ts, rn, 1 AS keep_rank "
        "FROM te_e WHERE rn = 1 "
        "UNION ALL "
        "SELECT e.user_id, min_by(e.event_id, e.rn), min_by(e.ts, e.rn), "
        "min(e.rn), min(k.keep_rank) + 1 "
        "FROM te_k k JOIN te_e e ON e.user_id = k.user_id "
        "AND e.ts >= k.ts + INTERVAL 24 HOUR AND e.rn > k.rn "
        "GROUP BY e.user_id) "
        "SELECT user_id, event_id, ts, CAST(keep_rank AS BIGINT) "
        "AS keep_rank FROM te_k ORDER BY user_id, keep_rank",
    "events_ffill_daily":
        "WITH ff_e AS (SELECT user_id, ts, event_id, "
        "CAST(round(value * 100) AS BIGINT) AS value_c, "
        "date_trunc('day', ts) AS d FROM events), "
        "ff_last AS (SELECT user_id, d, value_c FROM ("
        "SELECT user_id, d, value_c, row_number() OVER ("
        "PARTITION BY user_id, d ORDER BY ts DESC, event_id DESC) AS rn "
        "FROM ff_e) WHERE rn = 1), "
        "ff_b AS (SELECT user_id, min(d) AS d0, max(d) AS d1 "
        "FROM ff_e GROUP BY 1), "
        "ff_g AS (SELECT user_id, unnest(generate_series(d0, d1, "
        "INTERVAL 1 DAY)) AS grid_day FROM ff_b) "
        "SELECT g.user_id, g.grid_day, "
        "last_value(l.value_c IGNORE NULLS) OVER ("
        "PARTITION BY g.user_id ORDER BY g.grid_day) AS value_c, "
        "CAST(l.value_c IS NOT NULL AS BIGINT) AS is_observed "
        "FROM ff_g g LEFT JOIN ff_last l "
        "ON l.user_id = g.user_id AND l.d = g.grid_day "
        "ORDER BY 1, 2",
    "latest_event_per_user":
        "SELECT user_id, event_id, ts, event_type FROM events "
        "QUALIFY row_number() OVER (PARTITION BY user_id ORDER BY ts DESC, event_id) = 1",
    "events_cumsum":
        "SELECT user_id, event_id, CAST(row_number() OVER "
        "(PARTITION BY user_id ORDER BY ts, event_id) AS BIGINT) AS running_n FROM events",
    "part_stats_by_brand":
        "SELECT p_brand, count(*) AS n_parts, min(p_size) AS min_size, "
        "max(p_size) AS max_size FROM part GROUP BY p_brand",
    "union_names":
        "SELECT r_name AS name FROM region UNION ALL SELECT n_name AS name FROM nation",
    # extended joins / windows (r03) — each mirrors the Ray operator's
    # exact tie-breaks and integer units
    "asof_last_click":
        "WITH p AS (SELECT event_id, user_id, ts FROM events WHERE event_type = 'purchase'), "
        "c AS (SELECT event_id, user_id, ts FROM events WHERE event_type = 'click') "
        "SELECT p.event_id, p.user_id, p.ts, c.event_id AS click_event_id, c.ts AS click_ts "
        "FROM p JOIN c ON p.user_id = c.user_id AND c.ts <= p.ts "
        "QUALIFY row_number() OVER (PARTITION BY p.event_id "
        "ORDER BY c.ts DESC, c.event_id DESC) = 1",
    "range_join_click_views":
        "WITH c AS (SELECT event_id, user_id, ts FROM events WHERE event_type = 'click'), "
        "v AS (SELECT user_id, ts FROM events WHERE event_type = 'view') "
        "SELECT c.event_id, c.user_id, count(v.ts) AS n_views_10m "
        "FROM c LEFT JOIN v ON v.user_id = c.user_id AND v.ts > c.ts "
        "AND v.ts <= c.ts + INTERVAL 10 MINUTE "
        "GROUP BY c.event_id, c.user_id",
    "topk_per_group":
        "SELECT source, doc_id, n_chars, CAST(row_number() OVER "
        "(PARTITION BY source ORDER BY n_chars DESC, doc_id) AS BIGINT) AS rank "
        "FROM documents QUALIFY row_number() OVER "
        "(PARTITION BY source ORDER BY n_chars DESC, doc_id) <= 3",
    "rolling_window_value":
        "WITH b AS (SELECT user_id, event_id, ts, "
        "CAST(round(value * 100) AS BIGINT) AS v_c FROM events) "
        "SELECT user_id, event_id, CAST(sum(v_c) OVER w AS BIGINT) AS rolling_sum_c, "
        "CAST(count(*) OVER w AS BIGINT) AS n_in_window FROM b "
        "WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id "
        "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)",
    "pivot_priority_status":
        "SELECT o_orderpriority, "
        "count(*) FILTER (o_orderstatus = 'F') AS n_f, "
        "count(*) FILTER (o_orderstatus = 'O') AS n_o, "
        "count(*) FILTER (o_orderstatus = 'P') AS n_p, "
        "count(*) FILTER (o_orderstatus = 'F') + count(*) FILTER (o_orderstatus = 'O') "
        "+ count(*) FILTER (o_orderstatus = 'P') AS n_total "
        "FROM orders GROUP BY o_orderpriority",
    "rollup_revenue":
        "WITH c AS (SELECT l_returnflag, l_linestatus, "
        "CAST(round(l_extendedprice * 100) AS BIGINT) * "
        "(100 - CAST(round(l_discount * 100) AS BIGINT)) AS rev FROM lineitem) "
        "SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag, "
        "COALESCE(l_linestatus, 'ALL') AS l_linestatus, "
        "CAST(sum(rev) AS BIGINT) AS revenue_e4, count(*) AS n_rows "
        "FROM c GROUP BY ROLLUP(l_returnflag, l_linestatus)",
}
