"""Flagship composition: crawl output → curated training dataset.

The end-to-end training-data story on the engine's own documents
table, all Ray-Data-native:

  read (prune columns) → flatten span text → text analysis tasks
  (lang-ID, quality features) → vectorized quality filter → exact
  dedup (content-hash partial-agg) → near-dup removal using the
  simhash computed AT INGEST (no re-shingling pass) → curated parquet.

Every stage is a ``map_batches`` transform; the only shuffles are the
keyed reduces of the two dedup passes, both over pre-aggregated rows.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..functions.bucketing import aggregate, merge_partials_ray
from ..functions.hashing import md5_id
from ..stages.joins import bucketed_semi_join
from ..stages.text import langid_batch, quality_score_batch, span_text


def flatten_text_batch(batch: pa.Table) -> pa.Table:
    """doc spans → one text column (text spans joined in order)."""
    return pa.table({"doc_id": batch["doc_id"], "url": batch["url"],
                     "host": batch["host"], "simhash": batch["simhash"],
                     "text": span_text(batch["spans"])})


def analyze_batch(batch: pa.Table) -> pa.Table:
    """Language-ID + quality features in one pass."""
    q = quality_score_batch(batch)
    l = langid_batch(batch)
    return (batch
            .append_column("n_chars_q", q["n_chars_q"])
            .append_column("avg_token_len_e3", q["avg_token_len_e3"])
            .append_column("lang_pred", l["lang_pred"]))


def quality_filter_batch(batch: pa.Table, *, min_chars: int = 200,
                         min_avg_token_len_e3: int = 2000) -> pa.Table:
    mask = pc.and_(pc.greater_equal(batch["n_chars_q"], min_chars),
                   pc.greater_equal(batch["avg_token_len_e3"],
                                    min_avg_token_len_e3))
    return batch.filter(mask)


def curate_documents(docs: rd.Dataset, out_dir: str, *,
                     min_chars: int = 200) -> dict:
    """Run the curation pipeline; returns a summary dict and writes
    the curated table to ``out_dir``."""
    flat = docs.map_batches(flatten_text_batch, batch_format="pyarrow")
    analyzed = flat.map_batches(analyze_batch, batch_format="pyarrow")
    # materialize ONCE: four consumers below (count, exact-hash pass,
    # simhash pass, final semi-join) would otherwise each re-run the
    # analyzer over the corpus. SPILL ASSUMPTION: this pin is
    # corpus-sized (post-filter); it lives in the object store, which
    # spills to disk under pressure — driver heap stays O(1), and at
    # 100 TB the pin costs disk, not memory.
    filtered = analyzed.map_batches(
        quality_filter_batch, fn_kwargs={"min_chars": min_chars},
        batch_format="pyarrow").materialize()
    n_input = docs.count()
    n_filtered = filtered.count()

    # exact dedup: content-hash partial combine → keep min doc_id
    def with_hash(batch: pa.Table) -> pa.Table:
        return pa.table({"content_hash": pa.array(
            [md5_id(t) for t in batch["text"].to_pylist()], pa.string()),
            "doc_id": batch["doc_id"]})

    keep_exact = aggregate(filtered, ["content_hash"],
                           {"keep_doc_id": ("doc_id", "min")}, with_hash,
                           in_ray=True)

    # near-dup removal via ingest-time simhash: exact-collision groups
    # (hamming 0 — the conservative tier; banded hamming≤k is
    # stages.dedup.simhash_near_pairs)
    keep_sim = aggregate(filtered, ["simhash"],
                         {"keep_doc_id": ("doc_id", "min")}, in_ray=True)

    # keep set = intersection of the two keep sets, computed IN RAY
    # (a doc survives iff it is the representative of BOTH its exact
    # group and its simhash group): union the keep-id streams, count
    # per id, keep n==2 — no driver-side set of O(kept docs)
    def id_counts(t: pa.Table) -> pa.Table:
        g = t.group_by("keep_doc_id").aggregate([("keep_doc_id", "count")])
        return g.rename_columns(["keep_doc_id", "n_sources"])

    both = merge_partials_ray(
        keep_exact.map_batches(id_counts, batch_format="pyarrow")
        .union(keep_sim.map_batches(id_counts, batch_format="pyarrow")),
        ["keep_doc_id"], {"n_sources": "sum"})

    # final filter = bucketed SEMI-JOIN of the filtered docs against the
    # keep ids (hash both sides on doc_id into jbuckets, per-bucket
    # vectorized isin inside map_buckets) — the scale path; a broadcast
    # keep-set would be O(all kept doc ids) driver memory
    # materialize ONCE: the semi-join would otherwise re-execute for
    # the write AND the count (lazy Dataset re-run). SPILL ASSUMPTION:
    # curated-output-sized, object-store-resident, disk-spillable
    curated = bucketed_semi_join(
        filtered,
        both.map_batches(
            lambda t: pa.table(
                {"doc_id": t.filter(pc.equal(t["n_sources"], 2))["keep_doc_id"]}),
            batch_format="pyarrow"),
        on="doc_id").materialize()
    os.makedirs(out_dir, exist_ok=True)
    curated.write_parquet(out_dir)
    n_curated = curated.count()
    return {"n_input": n_input, "n_quality_filtered": n_filtered,
            "n_curated": n_curated, "out_dir": out_dir}


def q_curate_documents(sf_dir: str):
    """queries() wrapper: curate the flagship crawl's output; returns
    the per-stage funnel counts (rows-only)."""
    from .crawl import read_documents
    from .training import _flagship_crawl
    out = _flagship_crawl(sf_dir)
    docs = read_documents(out)
    summary = curate_documents(docs, os.path.join(out, "curated"),
                               min_chars=200)
    return pd.DataFrame([{k: v for k, v in summary.items() if k != "out_dir"}])
