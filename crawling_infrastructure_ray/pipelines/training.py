"""Training-data-pipeline queries: dedup, text analysis, similarity
search, multimodal plumbing, and the crawl-engine queries themselves.

Each ``q_*`` takes ``sf_dir`` and returns a Dataset / DataFrame /
Table. SQL-expressible ones have oracle SQL in ``ORACLE_SQL_TRAINING``;
the rest are rows-only checks (stateful / iterative / model-scoring
semantics the driver grades without a SQL twin).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.bucketing import (aggregate, map_buckets, merge_partials,
                                   merge_partials_ray, shuffle_partitions,
                                   tag_bucket_fn, top_k)
from ..functions.tokenize import split_ws
from ..sources.corpus import (fetch_audio_payloads, fetch_media_payloads,
                              fetch_video_payloads, make_seed_urls)
from ..sources.readers import read_local, read_table
from ..stages import dedup as dd
from ..stages import multimodal as mm
from ..stages import simsearch as ss
from ..stages.text import (langid_batch, quality_score_batch,
                           token_count_batch)
from ..state.frontier import Frontier
from .crawl import read_documents, run_crawl_pump
from .oracle import oracle_crawl

def _token_counts(ds: rd.Dataset) -> rd.Dataset:
    """(token, n): whitespace-token counts of the ``text`` column,
    merged in Ray (a vocabulary grows with the data)."""
    from ..stages.sampling import vocab_partial_counts
    return aggregate(ds, ["token"], {"n": ("n", "sum")},
                     vocab_partial_counts, in_ray=True)


def _pair_counts(ds: rd.Dataset) -> rd.Dataset:
    """(left_tok, right_tok, n): adjacent-token pair counts of the
    ``text`` column, merged in Ray."""
    from ..stages.sampling import bpe_pair_partial_counts
    return aggregate(ds, ["left_tok", "right_tok"], {"n": ("n", "sum")},
                     bpe_pair_partial_counts, in_ray=True)


# ----------------------------------------------------------------------
# dedup
# ----------------------------------------------------------------------

def q_dedup_exact(sf_dir: str):
    """Exact dedup groups: (content_hash, keep_doc_id, n_dups)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return dd.exact_dedup_groups(ds)


def q_dedup_exact_remove(sf_dir: str):
    """Exact-dedup REMOVAL end to end, ORACLE-CHECKED: content-hash
    groups (distributed partial combine → groupby Min) pick the
    smallest doc_id per content, then the corpus is filtered through
    the DISTRIBUTED bucketed semi-join (stages/joins) — the same
    keep-set removal shape the rows-only minhash_remove pipeline uses,
    here with a DuckDB twin so the driver hash-gates it."""
    from ..stages.joins import bucketed_semi_join
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text", "n_chars"])
    groups = dd.exact_dedup_groups(ds)
    keys = groups.map_batches(
        lambda t: pa.table({"doc_id": t["keep_doc_id"]}),
        batch_format="pyarrow")
    kept = bucketed_semi_join(
        ds.map_batches(lambda t: t.select(["doc_id", "n_chars"]),
                       batch_format="pyarrow"),
        keys, on="doc_id")
    return kept


def q_dedup_incremental(sf_dir: str):
    """INCREMENTAL exact dedup of a new shard against an existing
    corpus (the CCNet/RefinedWeb-style ingestion shape: each new crawl
    dump is deduped against everything already kept). The split is a
    pure function of the data — split = max(doc_id) * 6 // 10,
    computed identically in both engines — so the operator is
    hash-gated end to end.

    Scale shape: the corpus side ships one (batch-distinct) content
    hash per document, never text; increment-vs-corpus membership is
    the DISTRIBUTED bucketed anti-join on content_hash and keep-first
    within the increment is the bucketed semi-join on doc_id — no
    driver-side key set at any step. At 100 TB the corpus hash set is
    itself data-sized, which is exactly what the bucketed join handles
    (every hash lives wholly in one bucket)."""
    from ..functions.hashing import md5_id
    from ..stages.joins import bucketed_anti_join, bucketed_semi_join

    ids = read_table(sf_dir, "documents", columns=["doc_id"])
    split = int(ids.max("doc_id")) * 6 // 10  # O(1) scalar to driver

    ds = read_table(sf_dir, "documents",
                    columns=["doc_id", "text", "n_chars"])

    def hash_inc(batch: pa.Table) -> pa.Table:
        m = pc.greater_equal(batch["doc_id"], split)
        b = batch.filter(m)
        h = pa.array([md5_id(t or "") for t in b["text"].to_pylist()])
        return pa.table({"doc_id": b["doc_id"], "n_chars": b["n_chars"],
                         "content_hash": h})

    def hash_corpus(batch: pa.Table) -> pa.Table:
        m = pc.less(batch["doc_id"], split)
        b = batch.filter(m)
        h = sorted({md5_id(t or "") for t in b["text"].to_pylist()})
        return pa.table({"content_hash": pa.array(h, pa.string())})

    inc = ds.map_batches(hash_inc, batch_format="pyarrow")
    corpus = ds.map_batches(hash_corpus, batch_format="pyarrow")
    survivors = bucketed_anti_join(inc, corpus, on="content_hash")

    def min_per_hash(batch: pa.Table) -> pa.Table:
        g = batch.select(["content_hash", "doc_id"]) \
            .group_by("content_hash").aggregate([("doc_id", "min")])
        return g.rename_columns(["content_hash", "keep_doc_id"])

    keep = merge_partials_ray(
        survivors.map_batches(min_per_hash, batch_format="pyarrow"),
        ["content_hash"], {"keep_doc_id": "min"}).map_batches(
        lambda t: pa.table({"doc_id": t["keep_doc_id"]}),
        batch_format="pyarrow")
    kept = bucketed_semi_join(
        survivors.map_batches(lambda t: t.select(["doc_id", "n_chars"]),
                              batch_format="pyarrow"),
        keep, on="doc_id")
    return kept


def q_snapshot_diff(sf_dir: str):
    """RECRAWL SNAPSHOT DIFF (change-data-capture): diff two crawl
    snapshots of the documents table keyed by doc_id and emit
    added / removed / changed rows — how a consumer of the reference's
    interval-rescheduled crawl tasks (`scheduler/` daemon re-enqueues
    finished tasks) turns recrawls into a change feed.

    Snapshot B is derived from snapshot A by a DETERMINISTIC edit
    rule both engines apply independently (no synthetic side data):
    doc_id % 7 == 0 → page disappeared (removed); surviving pages with
    doc_id % 5 == 0 → content grew by 17 chars (changed); doc_id % 11
    == 0 → a new page was discovered at doc_id + 10_000_000 with
    n_chars + 3 (added). The diff itself is the generic
    ``stages.joins.snapshot_diff``: one hash shuffle of A ∪ B,
    per-bucket vectorized outer merge, no driver key sets."""
    from ..stages.joins import snapshot_diff

    ds = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def derive_b(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy()
        nch = t["n_chars"].to_numpy()
        keep = did % 7 != 0
        chg = (did % 5 == 0)[keep]
        add = did % 11 == 0
        ids = np.concatenate([did[keep], did[add] + 10_000_000])
        chs = np.concatenate([nch[keep] + np.where(chg, 17, 0),
                              nch[add] + 3])
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "n_chars": pa.array(chs, pa.int64())})

    snap_b = ds.map_batches(derive_b, batch_format="pyarrow")
    out = snapshot_diff(ds, snap_b, on="doc_id", value="n_chars") \
        .to_pandas()
    out = out.rename(columns={"old": "old_chars", "new": "new_chars"})
    return out.sort_values(["doc_id", "change"]).reset_index(drop=True)


def q_zorder_layout(sf_dir: str):
    """Z-ORDER (Morton) DATA-LAYOUT MANIFEST: interleave the bits of
    two scan-predicate columns into one sort key, range-partition the
    key space into 16 shards, and emit each shard's file-level pruning
    stats (count, zkey span, n_chars span) — the multi-dimensional
    clustering trick (Z-order / Hilbert layouts in analytic stores)
    that lets a 100-TB scan skip shards on EITHER column's predicate
    from manifest min/max alone. x = least(n_chars, 1023) (10 bits,
    even positions), y = doc_id % 1024 (10 bits, odd positions) — 10
    bits per dimension matches the corpus domains (n_chars tops out
    in the hundreds) so the 4 shard-prefix bits actually stratify
    BOTH columns instead of sitting in always-zero high bits.

    Shape: the Morton key is a per-batch vectorized magic-number bit
    spread (no shuffle); shard stats are per-batch partial aggregates
    over the 16-value shard domain → a driver merge of at most 16
    rows per block — nothing row-sized leaves the map tasks. At real
    scale the same zkey feeds ``write_parquet`` partitioned by shard;
    here the manifest itself is the output (it is what pruning
    reads)."""

    ds = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def _spread(v: np.ndarray) -> np.ndarray:
        # <=16-bit value -> bits at even positions (magic-number spread)
        v = v.astype(np.uint64)
        v = (v | (v << 8)) & np.uint64(0x00FF00FF)
        v = (v | (v << 4)) & np.uint64(0x0F0F0F0F)
        v = (v | (v << 2)) & np.uint64(0x33333333)
        v = (v | (v << 1)) & np.uint64(0x55555555)
        return v

    def partial(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy()
        nch = t["n_chars"].to_numpy()
        x = np.minimum(nch, 1023)
        y = did % 1024
        zkey = (_spread(x) | (_spread(y) << np.uint64(1))) \
            .astype(np.int64)
        return pa.table({"shard": pa.array(zkey >> 16), "z": pa.array(zkey),
                         "nch": pa.array(nch)})

    out = aggregate(ds, ["shard"], {
        "n_docs": ("z", "count"), "min_zkey": ("z", "min"),
        "max_zkey": ("z", "max"), "min_chars": ("nch", "min"),
        "max_chars": ("nch", "max")}, partial)
    return out.sort_values("shard").reset_index(drop=True)


def _zorder_oracle_sql() -> str:
    def spread(col: str, shift: int) -> str:
        return "(" + " + ".join(
            f"((({col} >> {i}) & 1) << {2 * i + shift})"
            for i in range(10)) + ")"

    return (
        "WITH zo_v AS (SELECT doc_id, n_chars, "
        "least(n_chars, 1023) AS xv, doc_id % 1024 AS yv "
        "FROM documents), "
        f"zo_k AS (SELECT n_chars, {spread('xv', 0)} + {spread('yv', 1)} "
        "AS zkey FROM zo_v) "
        "SELECT CAST(zkey >> 16 AS BIGINT) AS shard, "
        "CAST(count(*) AS BIGINT) AS n_docs, "
        "CAST(min(zkey) AS BIGINT) AS min_zkey, "
        "CAST(max(zkey) AS BIGINT) AS max_zkey, "
        "CAST(min(n_chars) AS BIGINT) AS min_chars, "
        "CAST(max(n_chars) AS BIGINT) AS max_chars "
        "FROM zo_k GROUP BY 1 ORDER BY 1")


def q_pack_sequences(sf_dir: str, budget: int = 2048):
    """Sequence PACKING for training-data assembly: per source shard,
    documents in doc_id order are packed into fixed token-budget
    sequences. Packing rule (deterministic AND fully vectorized): a
    document belongs to the pack its cumulative token offset starts
    in — pack_id = (tokens before it in the shard) // budget — so the
    boundary document stays in the earlier pack and a pack overflows
    by at most one document. Token counts are the engine's ASCII
    whitespace contract (stages/text).

    Scale shape: sources hash-bucketed (each shard wholly in one
    bucket), one vectorized grouped cumsum per bucket — no per-shard
    Python calls, text never leaves the counting stage."""
    from ..stages.text import _ws_token_counts
    ds = read_table(sf_dir, "documents",
                    columns=["doc_id", "source", "text"])

    def count_tokens(batch: pa.Table) -> pa.Table:
        n = _ws_token_counts(batch["text"])
        return pa.table({"source": batch["source"],
                         "doc_id": batch["doc_id"],
                         "n_tokens": pa.array(n, pa.int64())})

    counted = ds.map_batches(count_tokens, batch_format="pyarrow")

    def pack_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["source", "doc_id"]).reset_index(drop=True)
        cum_before = (g.groupby("source", sort=False)["n_tokens"].cumsum()
                      - g["n_tokens"])
        g["pack_id"] = (cum_before // budget).astype("int64")
        return g[["source", "doc_id", "n_tokens", "pack_id"]]

    return map_buckets(counted, ["source"], pack_bucket)


def q_stratified_split(sf_dir: str):
    """Deterministic train/val/test split assignment (90/5/5 by a
    per-doc splitmix64 draw over doc_id — reproducible across runs,
    machines, and engines), reported as the 3-row split summary.
    Combiner-first: per-batch partials, enum-keyed final reduce.
    ORACLE-CHECKED: DuckDB recomputes the identical hash draw
    (sqlmirror.splitmix64_cte, bit-for-bit) and the bucketing."""
    from ..stages import sampling as sp
    ds = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])
    parts = ds.map_batches(sp.assign_split_batch,
                           batch_format="pyarrow").to_pandas()
    out = (parts.groupby("split", as_index=False)
           [["n_docs", "n_chars_total"]].sum()
           .sort_values("split").reset_index(drop=True))
    out["n_docs"] = out["n_docs"].astype("int64")
    out["n_chars_total"] = out["n_chars_total"].astype("int64")
    return out


def q_mixture_sample(sf_dir: str):
    """Weighted SOURCE MIXTURE sampling for training-data assembly:
    each source keeps a deterministic fraction of its docs (rate by
    source index, exact integer micro-units) via an independent
    per-doc splitmix64 draw — one vectorized hash per row, no
    shuffle, no state; at scale the kept rows stream straight to
    partitioned parquet. ORACLE-CHECKED bit-for-bit
    (sqlmirror.splitmix64_cte + the same rate formula)."""
    from ..stages import sampling as sp
    ds = read_table(sf_dir, "documents", columns=["doc_id", "source"])
    return sp.mixture_sample_ds(ds, sp.source_rate_e6)


PPS_SALT = 0x5EED_D0C5_1ED0_0007  # length-weighted sampling draw


def q_pps_sample(sf_dir: str):
    """Probability-proportional-to-size (PPS) SAMPLING: each doc is
    kept with probability min(1, n_chars / 600) — longer documents
    are proportionally more likely to survive (the length-weighted
    counterpart of mixture_sample's per-source rates). Deterministic:
    keep iff splitmix64(doc_id ^ PPS_SALT) % 600 < n_chars, one
    vectorized hash per row, no shuffle, no state. ORACLE-CHECKED
    bit-for-bit (shared splitmix mirror + the same inequality)."""
    from ..stages.sampling import row_hash

    ds = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def keep(batch: pa.Table) -> pa.Table:
        draws = (row_hash(batch["doc_id"], PPS_SALT)
                 % np.uint64(600)).astype(np.int64)
        n = batch["n_chars"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(draws < n))

    out = ds.map_batches(keep, batch_format="pyarrow").to_pandas()
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def _pps_oracle_sql() -> str:
    from ..functions.sqlmirror import splitmix64_cte
    w, c = splitmix64_cte(
        "SELECT doc_id, n_chars FROM documents",
        f"xor(CAST(doc_id AS UBIGINT), CAST({PPS_SALT} AS UBIGINT))",
        "h", carry_cols=("doc_id", "n_chars"), prefix="pp_")
    return w + (
        f" SELECT doc_id, CAST(n_chars AS BIGINT) AS n_chars FROM {c} "
        "WHERE CAST(h % 600 AS BIGINT) < n_chars ORDER BY 1")


WS_SALT = 0x7A3E_09B4_D512_000F  # A-ES weighted-sample draw (< 2^63)
AES_K = 64  # fixed sample size


def q_weighted_sample_aes(sf_dir: str):
    """FIXED-SIZE WEIGHTED SAMPLING WITHOUT REPLACEMENT
    (Efraimidis–Spirakis A-ES): the top-k documents by key
    ln(u)/w with u = (splitmix64(doc_id ^ salt)→double + 1)/2⁶⁴ and
    w = n_chars — the distributed one-pass primitive for drawing a
    length-weighted corpus sample of EXACTLY k docs (pps_sample is
    its Bernoulli cousin: fixed rate, random size). Deterministic:
    the draw is the shared splitmix mirror; the uint64→double→ln
    chain is identical IEEE arithmetic in numpy and DuckDB, and a
    boundary-separation assert (relative key gap at rank k) makes
    the selected SET robust to last-ulp libm divergence. Only ids
    and weights are emitted — no floats in the gate.

    Scale shape: per-batch vectorized key + per-block top-k partial
    (argpartition), driver merges k·num_blocks candidate rows —
    O(k) per block, never the corpus."""
    from ..stages.sampling import row_hash

    ds = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def topk_partial(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        w = batch["n_chars"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        assert (w > 0).all(), "A-ES needs positive weights"
        h = row_hash(batch["doc_id"], WS_SALT)
        u = (h.astype(np.float64) + 1.0) / 18446744073709551616.0
        key = np.log(u) / w
        if len(ids) > AES_K:
            top = np.argpartition(-key, AES_K - 1)[:AES_K]
        else:
            top = np.arange(len(ids))
        return pa.table({"doc_id": pa.array(ids[top].astype(np.int64)),
                         "n_chars": pa.array(w[top]),
                         "key": pa.array(key[top])})

    cand = ds.map_batches(topk_partial,
                          batch_format="pyarrow").to_pandas()
    cand = cand.sort_values(["key", "doc_id"],
                            ascending=[False, True]) \
        .reset_index(drop=True)
    if len(cand) > AES_K:
        gap = cand["key"].iloc[AES_K - 1] - cand["key"].iloc[AES_K]
        scale = max(abs(cand["key"].iloc[AES_K - 1]), 1e-30)
        assert gap / scale > 1e-9, \
            "A-ES boundary tie: keys at rank k indistinguishable"
    out = cand.head(AES_K)[["doc_id", "n_chars"]].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def _weighted_sample_oracle_sql() -> str:
    from ..functions.sqlmirror import splitmix64_cte
    w, c = splitmix64_cte(
        "SELECT doc_id, n_chars FROM documents",
        f"xor(CAST(doc_id AS UBIGINT), CAST({WS_SALT} AS UBIGINT))",
        "h", carry_cols=("doc_id", "n_chars"), prefix="ws_")
    return w + (
        f", ws_k AS (SELECT doc_id, n_chars, "
        "ln((CAST(h AS DOUBLE) + 1.0) / 18446744073709551616.0) "
        f"/ n_chars AS key FROM {c}), "
        f"ws_t AS (SELECT doc_id, n_chars FROM ws_k "
        f"ORDER BY key DESC, doc_id LIMIT {AES_K}) "
        "SELECT doc_id, CAST(n_chars AS BIGINT) AS n_chars "
        "FROM ws_t ORDER BY doc_id")


def q_decontaminate(sf_dir: str):
    """Eval-set DECONTAMINATION: remove train-split docs sharing any
    token 8-gram with any test-split doc (the train/benchmark overlap
    gate every LLM data pipeline runs). Broadcast shape: the test
    split's distinct shingle-hash index rides the object store once;
    each train batch probes it vectorized — never a corpus-vs-corpus
    shuffle (the eval side is benchmark-sized by construction).
    ORACLE-CHECKED: DuckDB assigns the same splits (splitmix mirror)
    and joins 8-gram STRINGS — equal token sequences hash equal, so
    the surviving sets agree (64-bit collision odds documented
    negligible in stages/sampling.py)."""
    from ..stages import sampling as sp
    ds = read_table(sf_dir, "documents",
                    columns=["doc_id", "text", "n_chars"])
    return sp.decontaminate_ds(ds, k=8)


def q_vocab_topk(sf_dir: str):
    """Corpus VOCABULARY: top-100 whitespace tokens by frequency with
    deterministic tie-break (count desc, token asc) — the classic
    combiner map-reduce: per-batch factorize+bincount partials, the
    bucketed all-to-all carries distinct-token rows only, partial
    top-k per merged block, tiny driver head. ORACLE-CHECKED."""
    ds = read_table(sf_dir, "documents", columns=["text"])
    merged = _token_counts(ds)
    return top_k(merged, [("n", "descending"), ("token", "ascending")], 100)


def q_bm25_topk(sf_dir: str, k: int = 20):
    """BM25-SHAPED SEARCH RANKING, integer-quantized so the gate can
    hash it: top-k docs for a two-term query by
    score = Σ_t idf'(t) * tf*(k1+1) / (tf + k1*(1-b+b*dl/avgdl)),
    with k1 = 6/5 and b = 3/4 chosen RATIONAL so the per-term factor
    is the exact integer (idf' * tf*44*avgdl) // (20*avgdl*tf +
    6*avgdl + 18*dl), and idf'(t) = ((N-df)*1e6) // df (the
    source_terms integer-idf proxy standing in for the float log).
    The query is derived from the corpus in both engines — frequency
    ranks 5 and 6 (count desc, token asc) — so there is no side data.

    Shape: pass 1 is the vocab combiner (terms + total token count
    fall out of the same distributed merge; N from parquet metadata);
    pass 2 scans once, computes per-doc (tf1, tf2, dl) vectorized via
    a flattened token stream, and ships ONLY matching docs; df and
    the final top-k reduce over that match-sized set (partial top-k
    per block, ≤ k × blocks rows to the driver)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    # pass 1: distributed vocab — query terms (ranks 5/6) + total
    # token count from the same merged result
    merged = _token_counts(ds)
    head = top_k(merged, [("n", "descending"), ("token", "ascending")], 6)
    t1, t2 = head.iloc[4]["token"], head.iloc[5]["token"]

    # corpus totals: one tiny (1 row per block) combiner + metadata count
    def ntok_partial(batch: pa.Table) -> pa.Table:
        n = sum(len((s or "").split()) for s in batch["text"].to_pylist())
        return pa.table({"n_tok": pa.array([n], pa.int64())})

    total_tokens = int(ds.map_batches(ntok_partial, batch_format="pyarrow")
                       .to_pandas()["n_tok"].sum())
    n_docs = read_table(sf_dir, "documents", columns=["doc_id"]).count()
    avgdl = max(total_tokens // n_docs, 1)

    # pass 2: per-doc (tf1, tf2, dl), matches only leave the worker
    def tf_batch(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        toks: list = []
        docix: list = []
        dl = np.zeros(len(texts), np.int64)
        for i, s in enumerate(texts):
            tt = (s or "").split()
            dl[i] = len(tt)
            toks.extend(tt)
            docix.extend([i] * len(tt))
        ta = np.asarray(toks, dtype=object)
        di = np.asarray(docix, dtype=np.int64)
        tf1 = np.bincount(di[ta == t1], minlength=len(texts)) \
            if len(ta) else np.zeros(len(texts), np.int64)
        tf2 = np.bincount(di[ta == t2], minlength=len(texts)) \
            if len(ta) else np.zeros(len(texts), np.int64)
        m = (tf1 + tf2) > 0
        return pa.table({"doc_id": pa.array(ids[m], pa.int64()),
                         "tf1": pa.array(tf1[m].astype(np.int64)),
                         "tf2": pa.array(tf2[m].astype(np.int64)),
                         "dl": pa.array(dl[m], pa.int64())})

    # materialize ONCE: the df scan and the score pass both consume
    # these rows. SPILL ASSUMPTION: matched-doc rows only (docs
    # containing a query term — query-selectivity-sized, far below
    # corpus size), pinned in the object store which spills to disk
    # under pressure; driver heap is untouched.
    matches = ds.map_batches(tf_batch, batch_format="pyarrow").materialize()

    def df_partial(batch: pa.Table) -> pa.Table:
        return pa.table({
            "df1": pa.array([int(pc.sum(pc.greater(batch["tf1"], 0))
                                 .as_py() or 0)], pa.int64()),
            "df2": pa.array([int(pc.sum(pc.greater(batch["tf2"], 0))
                                 .as_py() or 0)], pa.int64())})

    dfs = matches.map_batches(df_partial, batch_format="pyarrow") \
        .to_pandas().sum()
    df1, df2 = int(dfs["df1"]), int(dfs["df2"])
    idf1 = ((n_docs - df1) * 1_000_000) // df1 if df1 else 0
    idf2 = ((n_docs - df2) * 1_000_000) // df2 if df2 else 0

    def score_block(batch: pa.Table) -> pa.Table:
        tf1a = batch["tf1"].to_numpy()
        tf2a = batch["tf2"].to_numpy()
        dla = batch["dl"].to_numpy()
        den_base = 6 * avgdl + 18 * dla
        s1 = (idf1 * tf1a * 44 * avgdl) // (20 * avgdl * tf1a + den_base)
        s2 = (idf2 * tf2a * 44 * avgdl) // (20 * avgdl * tf2a + den_base)
        s1 = np.where(tf1a > 0, s1, 0)
        s2 = np.where(tf2a > 0, s2, 0)
        return batch.append_column("score_e6", pa.array(s1 + s2, pa.int64()))

    return top_k(matches.map_batches(score_block, batch_format="pyarrow"),
                 [("score_e6", "descending"), ("doc_id", "ascending")], k)


def _bm25_oracle_sql(k: int = 20) -> str:
    from ..functions.sqlmirror import tokens_sql
    toks = tokens_sql("coalesce(text,'')")
    return (
        f"WITH bm_tok AS (SELECT doc_id, unnest({toks}) AS tok "
        "FROM documents), "
        "bm_v AS (SELECT tok, count(*) AS n FROM bm_tok GROUP BY 1), "
        "bm_rk AS (SELECT tok, row_number() OVER (ORDER BY n DESC, tok) "
        "AS rk FROM bm_v), "
        "bm_q AS (SELECT (SELECT tok FROM bm_rk WHERE rk = 5) AS t1, "
        "(SELECT tok FROM bm_rk WHERE rk = 6) AS t2), "
        "bm_c AS (SELECT (SELECT count(*) FROM documents) AS n_docs, "
        "(SELECT count(*) FROM bm_tok) AS n_tok), "
        "bm_a AS (SELECT n_docs, greatest(n_tok // n_docs, 1) AS avgdl "
        "FROM bm_c), "
        "bm_tf AS (SELECT doc_id, "
        "CAST(sum(CASE WHEN tok = (SELECT t1 FROM bm_q) THEN 1 ELSE 0 "
        "END) AS BIGINT) AS tf1, "
        "CAST(sum(CASE WHEN tok = (SELECT t2 FROM bm_q) THEN 1 ELSE 0 "
        "END) AS BIGINT) AS tf2, "
        "CAST(count(*) AS BIGINT) AS dl "
        "FROM bm_tok GROUP BY 1 HAVING tf1 + tf2 > 0), "
        "bm_df AS (SELECT sum(CASE WHEN tf1 > 0 THEN 1 ELSE 0 END) AS df1, "
        "sum(CASE WHEN tf2 > 0 THEN 1 ELSE 0 END) AS df2 FROM bm_tf), "
        "bm_idf AS (SELECT CASE WHEN df1 > 0 THEN ((SELECT n_docs FROM "
        "bm_a) - df1) * 1000000 // df1 ELSE 0 END AS idf1, "
        "CASE WHEN df2 > 0 THEN ((SELECT n_docs FROM bm_a) - df2) "
        "* 1000000 // df2 ELSE 0 END AS idf2 FROM bm_df) "
        "SELECT doc_id, tf1, tf2, dl, "
        "CAST((CASE WHEN tf1 > 0 THEN (SELECT idf1 FROM bm_idf) * tf1 "
        "* 44 * (SELECT avgdl FROM bm_a) // (20 * (SELECT avgdl FROM "
        "bm_a) * tf1 + 6 * (SELECT avgdl FROM bm_a) + 18 * dl) "
        "ELSE 0 END) + "
        "(CASE WHEN tf2 > 0 THEN (SELECT idf2 FROM bm_idf) * tf2 "
        "* 44 * (SELECT avgdl FROM bm_a) // (20 * (SELECT avgdl FROM "
        "bm_a) * tf2 + 6 * (SELECT avgdl FROM bm_a) + 18 * dl) "
        "ELSE 0 END) AS BIGINT) AS score_e6 "
        "FROM bm_tf "
        f"ORDER BY score_e6 DESC, doc_id LIMIT {k}")


def q_heavy_hitter_tokens(sf_dir: str, phi_recip: int = 31):
    """HEAVY HITTERS (frequency ≥ total/phi_recip) via the
    local-frequency candidate lemma + an exact verification pass —
    the SpaceSaving-style workflow with a deterministic, provably
    exact output. By pigeonhole, any token with global count
    ≥ N/phi_recip has batch count ≥ N_b/phi_recip in at least one
    batch (if it were below the local threshold everywhere, the sum
    would be below N/phi_recip), so the union of per-batch local
    heavy hitters is a guaranteed candidate superset of size
    ≤ phi_recip per batch. At 100 TB that candidate set — not the
    full vocabulary — is what gets broadcast and exactly counted; the
    false positives are removed by the exact filter, so the output is
    identical to the brute GROUP BY / HAVING. (On the synthetic
    corpus the vocab is ~31 tokens so pruning is invisible; the shape
    is what scales.) ORACLE-CHECKED (GROUP BY + HAVING n*phi_recip >=
    total twin)."""
    import ray as _ray

    from ..stages import sampling as sp
    ds = read_table(sf_dir, "documents", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        t = sp.vocab_partial_counts(batch)
        n = t["n"].to_numpy(zero_copy_only=False)
        local_hh = n * phi_recip >= int(n.sum())
        return t.append_column("local_hh", pa.array(local_hh))

    # combiner partials are distinct-token-sized per batch — small;
    # materialized once so candidates + exact counts share one pass
    # over the corpus text
    partials = ds.map_batches(partial, batch_format="pyarrow").materialize()

    def only_hh(batch: pa.Table) -> pa.Table:
        return batch.filter(batch["local_hh"]).select(["token"])

    cand = (partials.map_batches(only_hh, batch_format="pyarrow")
            .unique("token"))
    cand_ref = _ray.put(np.asarray(sorted(cand), dtype=object))
    total = int(partials.sum("n"))

    def keep_candidates(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(batch["token"],
                        value_set=pa.array(_ray.get(cand_ref)))
        return batch.filter(keep).select(["token", "n"])

    merged = merge_partials_ray(
        partials.map_batches(keep_candidates, batch_format="pyarrow"),
        ["token"], {"n": "sum"})
    df = merged.to_pandas()
    df["n"] = df["n"].astype("int64")
    df = df[df["n"] * phi_recip >= total]
    return (df.sort_values(["n", "token"], ascending=[False, True])
            .reset_index(drop=True))


def q_source_vocab_overlap(sf_dir: str):
    """CROSS-SOURCE VOCABULARY OVERLAP matrix (exact set similarity
    between corpus slices): for every source pair (a < b) the distinct
    tokens they share, plus each side's vocabulary size — the integer
    sufficient statistics of Jaccard (inter / (n_a + n_b − inter),
    divided outside the engine so the gate never meets float math).

    Scale shape: per-batch distinct (source, token) pairs (map-side
    dedup), token-bucketed global dedup so every token's source list
    co-locates, then pair emission per token — a loop bounded by the
    VOCAB domain in the bucket, never corpus rows, with ≤ |sources|²
    pairs per token — and an enum²-keyed final merge (the source-pair
    domain is config-sized). The inverted-index pairing shape shared
    with dedup_jaccard_exact, one level up (sets are sources, not
    docs)."""
    ds = read_table(sf_dir, "documents", columns=["source", "text"])

    def pairs_partial(batch: pa.Table) -> pa.Table:
        # ONE whitespace split over the batch (the vocab_partial_counts
        # recipe, byte-identical to str.split on ASCII), row-index
        # repeat to pair each flat token with its source, and a single
        # Arrow group_by for the per-batch distinct — no per-doc
        # Python loop in this corpus-scale stage.
        stripped = pc.utf8_trim_whitespace(pc.fill_null(batch["text"],
                                                        ""))
        lists = split_ws(stripped)
        raw_lens = np.diff(lists.offsets.to_numpy(zero_copy_only=False)
                           .astype(np.int64))
        empty = np.asarray(pc.equal(stripped, "")
                           .to_numpy(zero_copy_only=False))
        flat = lists.flatten()
        doc_idx = np.repeat(np.arange(len(raw_lens), dtype=np.int64),
                            raw_lens)
        # drop the '' phantom token empty/whitespace-only docs emit
        keep = pa.array(~np.repeat(empty, raw_lens))
        src = pc.cast(batch["source"], pa.string()).take(
            pa.array(doc_idx))
        t = pa.table({"source": src,
                      "token": pc.cast(flat, pa.string())}).filter(keep)
        return t.group_by(["source", "token"]).aggregate([])

    def emit_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["source", "token"])
        rows_a: list = []
        rows_b: list = []
        for _, grp in g.groupby("token", sort=False):
            ss = sorted(grp["source"].tolist())
            for i, a in enumerate(ss):
                rows_a.extend([a] * (len(ss) - 1 - i))
                rows_b.extend(ss[i + 1:])
        pair = pd.DataFrame({"src_a": rows_a, "src_b": rows_b})
        out = pair.groupby(["src_a", "src_b"], as_index=False).size()
        return out.rename(columns={"size": "n_common"})

    # distinct (source, token) partials are vocab-x-sources-sized —
    # materialized once so pairs and sizes share a single corpus pass
    dedup = ds.map_batches(pairs_partial, batch_format="pyarrow").materialize()
    pair_partials = map_buckets(dedup, ["token"], emit_bucket)
    out = merge_partials(pair_partials, ["src_a", "src_b"],
                         {"n_common": "sum"})

    def size_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["source", "token"])
        return g.groupby("source", as_index=False).size() \
            .rename(columns={"size": "n_vocab"})

    sizes = merge_partials(
        map_buckets(dedup, ["token"], size_bucket),
        ["source"], {"n_vocab": "sum"})
    sz = dict(zip(sizes["source"], sizes["n_vocab"].astype("int64")))
    out["n_a"] = out["src_a"].map(sz).astype("int64")
    out["n_b"] = out["src_b"].map(sz).astype("int64")
    out["n_common"] = out["n_common"].astype("int64")
    return (out.sort_values(["src_a", "src_b"])
            .reset_index(drop=True))


def q_bpe_pair_counts(sf_dir: str, k: int = 20):
    """BPE-MERGE STEP counting: the corpus's top-k adjacent token
    pairs (bigrams, never crossing doc boundaries) with deterministic
    tie-break (count desc, left asc, right asc) — the statistic one
    BPE training iteration merges on, and the vocab_topk shape one
    rank up: per-batch composite-code combiner partials → bucketed
    merge on the pair → partial top-k per block → tiny driver head.
    ORACLE-CHECKED (unnest + positional indexing bigrams in SQL)."""
    ds = read_table(sf_dir, "documents", columns=["text"])
    merged = _pair_counts(ds)
    return top_k(merged, [("n", "descending"), ("left_tok", "ascending"),
                          ("right_tok", "ascending")], k)


def q_contrastive_pairs(sf_dir: str, negs: int = 2):
    """CONTRASTIVE TRAINING-PAIR assembly: positives = (anchor,
    candidate) pairs from a BLOCKING KEY — docs sharing
    (source, n_chars), the record-linkage blocking step (the driver
    corpus has no exact text dups, so the block key is what a real
    pipeline would pair on before verification; anchor = min doc_id
    per block), negatives = ``negs`` deterministic splitmix draws
    per positive over the id range, each flagged ``neg_clean`` = the
    drawn id is NOT itself a member of any dup group (the real
    pipeline drops unclean draws and redraws; the flag keeps the op
    closed-form for the gate). The retrieval/embedding-training data
    op (in-batch negatives' offline twin).

    Shape: one content-hash bucket shuffle builds the pairs (per
    bucket: vectorized min + non-min pairing); draws are pure hash
    arithmetic in the same pass; the membership flag is ONE
    neg_id-bucketed shuffle against the (output-sized) member-id
    stream — isin per bucket, the semi-join machinery as a flag."""
    from ..functions.hashing import splitmix64_np

    ds = read_table(sf_dir, "documents",
                    columns=["doc_id", "source", "n_chars"])
    ids = read_table(sf_dir, "documents", columns=["doc_id"])
    mod = int(ids.max("doc_id")) + 1

    def hash_rows(batch: pa.Table) -> pa.Table:
        key = pc.binary_join_element_wise(
            batch["source"], pc.cast(batch["n_chars"], pa.string()), ":")
        return pa.table({"content_hash": key,
                         "doc_id": pc.cast(batch["doc_id"], pa.int64())})

    b = 2 * shuffle_partitions()

    def pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["content_hash", "doc_id"])
        anchor = g.groupby("content_hash")["doc_id"].transform("min")
        m = g["doc_id"].to_numpy() != anchor.to_numpy()
        return pd.DataFrame({
            "anchor": anchor.to_numpy()[m].astype("int64"),
            "positive": g["doc_id"].to_numpy()[m].astype("int64")})

    # output-sized (one row per duplicate member): safe to pin so the
    # content-hash shuffle runs once for both consumers below
    pairs = map_buckets(ds.map_batches(hash_rows, batch_format="pyarrow"),
                        ["content_hash"], pairs_bucket, b).materialize()

    def draw(t: pa.Table) -> pa.Table:
        a = t["anchor"].to_numpy(zero_copy_only=False).astype(np.int64)
        p = t["positive"].to_numpy(zero_copy_only=False).astype(np.int64)
        an = np.repeat(a, negs)
        pn = np.repeat(p, negs)
        j = np.tile(np.arange(negs, dtype=np.int64), len(a))
        neg = (splitmix64_np((an * negs + j).astype(np.uint64))
               % np.uint64(mod)).astype(np.int64)
        return pa.table({"anchor": pa.array(an), "positive": pa.array(pn),
                         "neg_slot": pa.array(j),
                         "neg_id": pa.array(neg),
                         "is_member": pa.array(np.zeros(len(an), np.int64)),
                         "side": pa.array(["d"] * len(an))})

    def member_side(t: pa.Table) -> pa.Table:
        # dup-group members = anchors ∪ positives of this block
        ids_ = np.unique(np.concatenate([
            t["anchor"].to_numpy(zero_copy_only=False).astype(np.int64),
            t["positive"].to_numpy(zero_copy_only=False).astype(np.int64)]))
        n = len(ids_)
        return pa.table({"anchor": pa.array(np.full(n, -1, np.int64)),
                         "positive": pa.array(np.full(n, -1, np.int64)),
                         "neg_slot": pa.array(np.full(n, -1, np.int64)),
                         "neg_id": pa.array(ids_, pa.int64()),
                         "is_member": pa.array(np.ones(n, np.int64)),
                         "side": pa.array(["m"] * n)})

    both = (pairs.map_batches(draw, batch_format="pyarrow")
            .union(pairs.map_batches(member_side, batch_format="pyarrow")))

    def flag_bucket(g: pd.DataFrame) -> pd.DataFrame:
        mem = set(g.loc[g["side"] == "m", "neg_id"])
        d = g[g["side"] == "d"]
        return pd.DataFrame({
            "anchor": d["anchor"].to_numpy().astype("int64"),
            "positive": d["positive"].to_numpy().astype("int64"),
            "neg_slot": d["neg_slot"].to_numpy().astype("int64"),
            "neg_id": d["neg_id"].to_numpy().astype("int64"),
            "neg_clean": (~d["neg_id"].isin(mem)).to_numpy()
            .astype("int64")})

    out = map_buckets(both, ["neg_id"], flag_bucket, b).to_pandas()
    return out.sort_values(["anchor", "positive", "neg_slot"]) \
        .reset_index(drop=True)


def _contrastive_oracle_sql(negs: int = 2) -> str:
    from ..functions.sqlmirror import splitmix64_cte
    wth, fin = splitmix64_cte(
        f"SELECT anchor, positive, j, CAST(anchor * {negs} + j AS UBIGINT) "
        "AS seed FROM (SELECT g.anchor, d.doc_id AS positive "
        "FROM documents d JOIN (SELECT source, n_chars, "
        "min(doc_id) AS anchor, count(*) AS n FROM documents "
        "GROUP BY source, n_chars) g ON d.source = g.source "
        "AND d.n_chars = g.n_chars AND g.n > 1 "
        "AND d.doc_id <> g.anchor) "
        f", (SELECT unnest(range({negs})) AS j)",
        "seed", "h", carry_cols=("anchor", "positive", "j"),
        prefix="cph")
    return wth + (
        ", cp_mx AS (SELECT max(doc_id) + 1 AS mod FROM documents), "
        "cp_mem AS (SELECT DISTINCT doc_id FROM documents d "
        "JOIN (SELECT source, n_chars, count(*) AS n FROM documents "
        "GROUP BY source, n_chars) g ON d.source = g.source "
        "AND d.n_chars = g.n_chars AND g.n > 1) "
        "SELECT anchor, positive, CAST(j AS BIGINT) AS neg_slot, "
        "CAST(h % (SELECT mod FROM cp_mx) AS BIGINT) AS neg_id, "
        "CAST(CAST(h % (SELECT mod FROM cp_mx) AS BIGINT) NOT IN "
        "(SELECT doc_id FROM cp_mem) AS BIGINT) AS neg_clean "
        f"FROM {fin} ORDER BY anchor, positive, neg_slot")


def q_pq_codes(sf_dir: str, m_sub: int = 4, k_cent: int = 16):
    """PRODUCT QUANTIZATION encode — the IVF-PQ second half: each
    64-dim vector splits into 4 16-dim subvectors, each assigned to
    its nearest of 16 per-subspace centroids; output = the 4 codes +
    the total quantization error, all exact integers. Centroids are
    DERIVED, not trained — component c[m,k,d] = splitmix64(m·256 +
    k·16 + d) % 2001 − 1000 in the same e3 units as the quantized
    vectors (floor(x·1000+0.5), the knn_graph IEEE-stable expression)
    — so both engines build the identical codebook with no side data.
    A trained codebook would broadcast via ``ray.put`` into the same
    batch fn.

    Shape: codebook built once per process (1024 ints), one matmul
    per (batch, subspace) for the −2·x·c cross term; argmin ties
    break to the smallest k (np.argmin first-hit == SQL
    row_number ORDER BY dist, k). Zero shuffle; output streams."""
    from ..functions.hashing import splitmix64_np

    sub = 64 // m_sub
    comp = splitmix64_np(np.arange(m_sub * k_cent * sub, dtype=np.uint64))
    cb = ((comp % np.uint64(2001)).astype(np.int64) - 1000) \
        .reshape(m_sub, k_cent, sub)

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def encode(batch: pa.Table) -> pa.Table:
        emb = np.stack(batch["embedding"].to_numpy(zero_copy_only=False))
        x = np.floor(emb.astype(np.float64) * 1000.0 + 0.5).astype(np.int64)
        n = x.shape[0]
        cols = {"vec_id": pc.cast(batch["vec_id"], pa.int64())}
        err = np.zeros(n, np.int64)
        for m in range(m_sub):
            xm = x[:, m * sub:(m + 1) * sub]
            cm = cb[m]
            d = (xm * xm).sum(axis=1)[:, None] \
                + (cm * cm).sum(axis=1)[None, :] - 2 * (xm @ cm.T)
            code = np.argmin(d, axis=1)
            err += d[np.arange(n), code]
            cols[f"code{m}"] = pa.array(code.astype(np.int64))
        cols["err"] = pa.array(err)
        return pa.table(cols)

    out = ds.map_batches(encode, batch_format="pyarrow").to_pandas()
    return out.sort_values("vec_id").reset_index(drop=True)


def _pq_oracle_sql(m_sub: int = 4, k_cent: int = 16) -> str:
    from ..functions.sqlmirror import splitmix64_cte
    sub = 64 // m_sub
    wth, fin = splitmix64_cte(
        f"SELECT unnest(range({m_sub * k_cent * sub})) AS idx",
        "idx", "h", carry_cols=("idx",), prefix="pqh")
    return wth + (
        f", pq_c AS (SELECT idx // {k_cent * sub} AS m, "
        f"(idx % {k_cent * sub}) // {sub} AS k, idx % {sub} AS d, "
        f"CAST(h % 2001 AS BIGINT) - 1000 AS c FROM {fin}), "
        "pq_x AS (SELECT vec_id, "
        f"CAST((i - 1) // {sub} AS BIGINT) AS m, "
        f"CAST((i - 1) % {sub} AS BIGINT) AS d, "
        "CAST(floor(CAST(embedding[i] AS DOUBLE) * 1000 + 0.5) AS BIGINT) "
        "AS x FROM (SELECT vec_id, embedding, "
        "unnest(range(1, len(embedding) + 1)) AS i FROM embeddings)), "
        "pq_d AS (SELECT vec_id, x.m, k, "
        "CAST(sum((x - c) * (x - c)) AS BIGINT) AS dist "
        "FROM pq_x x JOIN pq_c c ON c.m = x.m AND c.d = x.d "
        "GROUP BY 1, 2, 3), "
        "pq_a AS (SELECT vec_id, m, k, dist, row_number() OVER ("
        "PARTITION BY vec_id, m ORDER BY dist, k) AS rn FROM pq_d) "
        "SELECT vec_id, "
        + ", ".join(
            f"CAST(max(CASE WHEN m = {m} THEN k END) AS BIGINT) AS code{m}"
            for m in range(m_sub)) + ", "
        "CAST(sum(dist) AS BIGINT) AS err "
        "FROM pq_a WHERE rn = 1 GROUP BY vec_id ORDER BY vec_id")


def q_hierarchy_rollup(sf_dir: str):
    """HIERARCHICAL (recursive) subtree rollup: docs live in a
    deterministic decimal id-tree (parent(v) = v // 10, root 0) and
    every node reports its SUBTREE doc count and char sum — the
    org-chart / category-tree aggregation relational engines need a
    recursive CTE for. Ray shape: no iteration at all — each doc
    emits its ≤ ceil(log10(max_id))+1 ancestors (a log-bounded
    vectorized explode, 7 levels at 1e6 ids), per-batch combine, then
    ONE bucketed merge on node; exchange ≤ depth × docs. SQL twin is
    the textbook WITH RECURSIVE ancestor walk."""

    ds = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ch = batch["n_chars"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cur = ids
        alln: list = [ids]
        allc: list = [ch]
        while cur.max(initial=0) > 0:
            m = cur > 0
            cur = cur[m] // 10
            ch = ch[m]
            alln.append(cur)
            allc.append(ch)
        return pa.table({"node": pa.array(np.concatenate(alln), pa.int64()),
                         "ch": pa.array(np.concatenate(allc), pa.int64())})

    out = aggregate(ds, ["node"], {"n_docs": ("ch", "count"),
                                   "sum_chars": ("ch", "sum")},
                    explode, in_ray=True).to_pandas()
    return out.sort_values("node").reset_index(drop=True)


def q_search_phrase(sf_dir: str):
    """PHRASE SEARCH: per-doc occurrence counts of the corpus's most
    frequent bigram — the adjacency-constrained search-engine query
    (boolean AND is the weaker form; phrase needs positions). The
    query phrase is derived from the corpus itself (count desc,
    left/right asc tie-break) so both engines agree on it without
    side data. Two passes: (1) the bpe_pair combiner → bucketed merge
    → top-1 (config-sized driver result — the 'query'), (2) per-batch
    per-doc bigram combiner filtered to the phrase BEFORE the
    exchange; a doc never splits across batches, so each doc's count
    is complete with no further merge — the second pass ships only
    matching (doc, phrase) rows."""
    from ..stages import sampling as sp

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    merged = _pair_counts(ds)
    head = top_k(merged, [("n", "descending"), ("left_tok", "ascending"),
                          ("right_tok", "ascending")], 1)
    left, right = head.iloc[0]["left_tok"], head.iloc[0]["right_tok"]

    def phrase_hits(batch: pa.Table) -> pa.Table:
        g = sp.doc_bigram_partial_counts(batch)
        m = pc.and_(pc.equal(g["left_tok"], left),
                    pc.equal(g["right_tok"], right))
        g = g.filter(m)
        return pa.table({"doc_id": g["doc_id"],
                         "left_tok": g["left_tok"],
                         "right_tok": g["right_tok"],
                         "n_hits": g["occ"]})

    out = ds.map_batches(phrase_hits, batch_format="pyarrow").to_pandas()
    out["n_hits"] = out["n_hits"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def _search_phrase_oracle_sql() -> str:
    from ..functions.sqlmirror import tokens_sql
    toks = tokens_sql("coalesce(text,'')")
    return (
        f"WITH sp_d AS (SELECT doc_id, {toks} AS t FROM documents), "
        "sp_i AS (SELECT doc_id, t, unnest(range(1, len(t))) AS i "
        "FROM sp_d WHERE len(t) >= 2), "
        "sp_p AS (SELECT doc_id, t[i] AS left_tok, t[i + 1] AS right_tok "
        "FROM sp_i), "
        "sp_top AS (SELECT left_tok, right_tok FROM sp_p GROUP BY 1, 2 "
        "ORDER BY count(*) DESC, left_tok, right_tok LIMIT 1) "
        "SELECT p.doc_id, p.left_tok, p.right_tok, "
        "CAST(count(*) AS BIGINT) AS n_hits "
        "FROM sp_p p JOIN sp_top USING (left_tok, right_tok) "
        "GROUP BY 1, 2, 3 ORDER BY doc_id")


def q_length_bins(sf_dir: str, k_bins: int = 8):
    """CURRICULUM BINNING: exact K-quantile bins over the global
    (n_chars, doc_id) order WITHOUT a global sort — per-length counts
    (combiner + small groupby over the config-sized length domain)
    give broadcast base offsets; within-length rank is assigned per
    group. ORACLE-CHECKED against the straightforward row_number()
    formulation."""
    from ..stages import sampling as sp
    ds = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])
    return sp.length_bins_ds(ds, k_bins=k_bins)


def q_repetition_stats(sf_dir: str):
    """Gopher-style REPETITION quality filters: token diversity
    (n_distinct / n_tokens) and most-frequent-word-2-gram share, per
    doc in exact e4 integer units. One vectorized pass, no shuffle.
    ORACLE-CHECKED: DuckDB recomputes both via unnest + lead() window
    bigrams (_repetition_oracle_sql)."""
    from ..stages.text import repetition_stats_batch
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(repetition_stats_batch, batch_format="pyarrow")


def q_quality_classifier(sf_dir: str):
    """Hashed LINEAR QUALITY CLASSIFIER scoring (the fasttext /
    hashing-trick shape, integer-quantized so the gate can hash it):
    logit(doc) = sum of w(token) over token occurrences, w(token) =
    (stable_hash64(token) % 2001) - 1000. One vectorized pass, no
    shuffle — a learned model would broadcast its weight array via
    ``ray.put`` into the same batch fn. ORACLE-CHECKED: DuckDB
    recomputes every distinct token's hash (shared recursive-CTE
    mirror), derives the same weights, and re-sums per doc."""
    from ..stages.text import classifier_score_batch
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(classifier_score_batch, batch_format="pyarrow")


def _quality_classifier_oracle_sql() -> str:
    from ..functions.sqlmirror import stable_hash64_cte, tokens_sql
    from ..stages.text import QC_BIAS, QC_MOD
    toks = tokens_sql("coalesce(text,'')")
    tok_with, tok_cte = stable_hash64_cte(
        f"SELECT DISTINCT unnest({toks}) AS s FROM documents",
        "s", {"h": 0}, prefix="qc_h")
    return tok_with + (
        f", qc_tok AS (SELECT doc_id, unnest({toks}) AS tok "
        "FROM documents), "
        f"qc_w AS (SELECT s, CAST(h % {QC_MOD} AS BIGINT) - {QC_BIAS} "
        f"AS w FROM {tok_cte}), "
        "qc_sum AS (SELECT doc_id, CAST(sum(w) AS BIGINT) AS logit, "
        "CAST(count(*) AS BIGINT) AS n_tokens "
        "FROM qc_tok JOIN qc_w ON tok = s GROUP BY doc_id) "
        "SELECT d.doc_id, coalesce(s.logit, 0) AS logit, "
        "coalesce(s.n_tokens, 0) AS n_tokens, "
        "CAST(coalesce(s.logit, 0) > 0 AS BIGINT) AS keep "
        "FROM documents d LEFT JOIN qc_sum s USING (doc_id)")


def q_chunk_documents(sf_dir: str):
    """Context-window CHUNKING: explode each doc into 64-token
    windows at stride 48 (the training-sequence slicing op);
    each chunk row carries the wrapping-uint64 sum of its token
    hashes so content is pinned, not just geometry. No shuffle.
    ORACLE-CHECKED: DuckDB recomputes token hashes (shared
    recursive-CTE stable_hash64 mirror over the distinct token set),
    expands the same stride arithmetic with range(), and sums per
    chunk (_chunk_oracle_sql)."""
    from ..stages.sampling import chunk_batch
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(chunk_batch, batch_format="pyarrow")


def q_shuffle_shards(sf_dir: str):
    """Deterministic GLOBAL SHUFFLE for training output: shard =
    splitmix64(doc_id ^ salt) % 32, pos_in_shard = rank of the key
    within the shard — a seeded random_shuffle + reshard that is
    reproducible across engines and resumable per shard. Shard
    assignment is zero-shuffle; the rank costs only 32 independent
    per-shard sorts, never a global sort. ORACLE-CHECKED bit-for-bit
    (splitmix mirror + row_number per shard)."""
    from ..stages import sampling as sp
    ds = read_table(sf_dir, "documents", columns=["doc_id"])
    return sp.shuffle_shards_ds(ds)


def q_sample_per_source(sf_dir: str, k: int = 5):
    """Deterministic PER-GROUP RESERVOIR sample: the k docs with the
    smallest splitmix64(doc_id ^ salt) per source — a uniform k-sample
    per group, reproducible across engines/runs (the distributed
    answer to 'give me 5 random docs from every source' without a
    global sort or RNG state). Scale shape: per-batch partial top-k
    per group (≤ k rows per group per batch enter the exchange) →
    bucketed re-reduce, like topk_per_group. ORACLE-CHECKED
    bit-for-bit (splitmix mirror + row_number per source)."""
    from ..stages.sampling import SAMPLE_SALT, row_hash

    ds = read_table(sf_dir, "documents", columns=["doc_id", "source"])

    def add_draw(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "draw", pa.array(row_hash(batch["doc_id"], SAMPLE_SALT),
                             pa.uint64()))

    def partial_sample(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["source", "draw", "doc_id"])
        return df.groupby("source", sort=False).head(k)

    partials = (ds.map_batches(add_draw, batch_format="pyarrow")
                .map_batches(partial_sample, batch_format="pandas"))

    def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = partial_sample(g).reset_index(drop=True)
        g["sample_rank"] = (g.groupby("source", sort=False).cumcount()
                            .astype("int64") + 1)
        return g[["source", "doc_id", "draw", "sample_rank"]]

    return map_buckets(partials, ["source"], reduce_bucket)


def _sample_per_source_oracle_sql(k: int = 5) -> str:
    from ..functions.sqlmirror import splitmix64_cte
    from ..stages.sampling import SAMPLE_SALT
    w, c = splitmix64_cte(
        "SELECT doc_id, source FROM documents",
        f"xor(CAST(doc_id AS UBIGINT), CAST({SAMPLE_SALT} AS UBIGINT))",
        "draw", carry_cols=("doc_id", "source"), prefix="sps_")
    return w + (
        " SELECT source, doc_id, draw, CAST(rn AS BIGINT) AS sample_rank "
        "FROM (SELECT source, doc_id, draw, row_number() OVER "
        "(PARTITION BY source ORDER BY draw, doc_id) AS rn "
        f"FROM {c}) WHERE rn <= {k}")


def q_oov_stats(sf_dir: str, top: int = 10):
    """Out-of-vocabulary quality filter: per doc, the count and e4
    fraction of tokens OUTSIDE the corpus top-``top`` vocabulary —
    the classic dictionary-word-ratio signal, and the canonical
    TWO-PASS broadcast shape: pass 1 computes the (config-sized)
    vocabulary with the combiner-first vocab machinery, `ray.put`s it
    once; pass 2 probes it per batch with a factorize + membership
    lookup (only DISTINCT batch tokens are tested). ORACLE-CHECKED:
    DuckDB recomputes the same top-K (same tie-break: count desc,
    token asc) and the same integer units."""
    import ray as _ray

    vocab_df = q_vocab_topk(sf_dir)
    vocab = np.asarray(vocab_df["token"].head(top), dtype=object)
    vref = _ray.put(frozenset(vocab.tolist()))

    def stats(batch: pa.Table) -> pa.Table:
        voc = _ray.get(vref)
        stripped = pc.utf8_trim_whitespace(pc.fill_null(batch["text"], ""))
        lists = split_ws(stripped)
        ndocs = len(lists)
        raw_lens = np.diff(lists.offsets.to_numpy(zero_copy_only=False))
        empty = np.asarray(pc.equal(stripped, "")
                           .to_numpy(zero_copy_only=False))
        n_tok = np.where(empty, 0, raw_lens).astype(np.int64)
        flat = lists.flatten().to_numpy(zero_copy_only=False)
        n_oov = np.zeros(ndocs, dtype=np.int64)
        if len(flat):
            codes, uniq = pd.factorize(flat)
            oov_u = np.fromiter((u not in voc for u in uniq),
                                dtype=bool, count=len(uniq))
            doc_idx = np.repeat(np.arange(ndocs), raw_lens)
            n_oov = np.bincount(doc_idx, weights=oov_u[codes],
                                minlength=ndocs).astype(np.int64)
        n_oov = np.where(empty, 0, n_oov)
        frac = np.where(n_tok > 0,
                        n_oov * 10000 // np.maximum(n_tok, 1), 0)
        return pa.table({"doc_id": batch["doc_id"],
                         "n_tokens": pa.array(n_tok),
                         "n_oov": pa.array(n_oov),
                         "oov_frac_e4": pa.array(frac.astype(np.int64))})

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(stats, batch_format="pyarrow")


def _oov_oracle_sql(top: int = 10) -> str:
    from ..functions.sqlmirror import tokens_sql
    toks = tokens_sql("coalesce(text,'')")
    return (
        f"WITH ov_d AS (SELECT doc_id, {toks} AS t FROM documents), "
        "ov_u AS (SELECT doc_id, unnest(t) AS tok FROM ov_d), "
        "ov_v AS (SELECT tok FROM (SELECT tok, count(*) AS n FROM ov_u "
        f"GROUP BY tok ORDER BY n DESC, tok LIMIT {top})), "
        "ov_c AS (SELECT doc_id, count(*) AS n_tokens, "
        "sum(CASE WHEN tok IN (SELECT tok FROM ov_v) THEN 0 ELSE 1 END) "
        "AS n_oov FROM ov_u GROUP BY doc_id) "
        "SELECT d.doc_id, CAST(coalesce(c.n_tokens, 0) AS BIGINT) "
        "AS n_tokens, CAST(coalesce(c.n_oov, 0) AS BIGINT) AS n_oov, "
        "CAST(CASE WHEN coalesce(c.n_tokens, 0) = 0 THEN 0 "
        "ELSE c.n_oov * 10000 // c.n_tokens END AS BIGINT) "
        "AS oov_frac_e4 "
        "FROM ov_d d LEFT JOIN ov_c c USING (doc_id)")


def q_export_shards(sf_dir: str, num_shards: int = 16):
    """Resumable partitioned EXPORT round trip, ORACLE-CHECKED:
    assign deterministic shards (splitmix draw), export one hive
    ``shard=N`` directory per shard via
    ``storage.export_partitioned_resumable`` (atomic fragment +
    _SUCCESS marker per partition), RE-READ the exported tree with
    ``read_dataset`` (hive discovery restores the shard column), and
    return per-shard doc counts + doc_id sums — so the gate pins
    assignment, write, marker commit, AND read-back. The export root
    is a fresh ``mkdtemp``, removed once the counts materialize
    (ADVICE r02: never a fixed /tmp path)."""
    import shutil
    import tempfile

    from ..sources.storage import export_partitioned_resumable, read_dataset
    from ..stages.sampling import SHUF_SALT, row_hash

    ds = read_table(sf_dir, "documents", columns=["doc_id"])

    def assign(batch: pa.Table) -> pa.Table:
        key = row_hash(batch["doc_id"], SHUF_SALT)
        return pa.table({
            "doc_id": pc.cast(batch["doc_id"], pa.int64()),
            "shard": pa.array((key % np.uint64(num_shards))
                              .astype(np.int64))})

    out = tempfile.mkdtemp(prefix="export_shards_")
    try:
        export_partitioned_resumable(
            ds.map_batches(assign, batch_format="pyarrow"), out, "shard")
        back = read_dataset(out)

        def partial(batch: pa.Table) -> pa.Table:
            sh = np.asarray(batch["shard"].to_numpy(zero_copy_only=False),
                            dtype=np.int64)
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            u, inv = np.unique(sh, return_inverse=True)
            return pa.table({
                "shard": pa.array(u),
                "n_docs": pa.array(np.bincount(inv).astype(np.int64)),
                "docid_sum": pa.array(
                    np.bincount(inv, weights=ids).astype(np.int64))})

        parts = back.map_batches(partial, batch_format="pyarrow").to_pandas()
        outdf = (parts.groupby("shard", as_index=False)
                 [["n_docs", "docid_sum"]].sum()
                 .sort_values("shard").reset_index(drop=True))
        for c in outdf.columns:
            outdf[c] = outdf[c].astype("int64")
        return outdf
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _export_shards_oracle_sql(num_shards: int = 16) -> str:
    from ..functions.sqlmirror import splitmix64_cte
    from ..stages.sampling import SHUF_SALT
    w, c = splitmix64_cte(
        "SELECT doc_id FROM documents",
        f"xor(CAST(doc_id AS UBIGINT), CAST({SHUF_SALT} AS UBIGINT))",
        "skey", carry_cols=("doc_id",), prefix="ex_")
    return w + (
        f" SELECT CAST(skey % {num_shards} AS BIGINT) AS shard, "
        "CAST(count(*) AS BIGINT) AS n_docs, "
        "CAST(sum(doc_id) AS BIGINT) AS docid_sum "
        f"FROM {c} GROUP BY 1")


# boilerplate removal (CCNet-style hot-line dedup): injected line +
# detection threshold, shared with the SQL twin
BP_LINE = ("subscribe to our newsletter and accept all cookies "
           "to continue reading this site")
BP_EVERY = 3
BP_MIN_COUNT = 50


def q_boilerplate_stats(sf_dir: str):
    """CCNet-style BOILERPLATE LINE REMOVAL, ORACLE-CHECKED: lines
    occurring >= BP_MIN_COUNT times corpus-wide are boilerplate; per
    doc return (n_lines, n_boiler, n_chars_kept). The synthetic corpus
    is single-line, so the query INJECTS a shared boilerplate line
    (newline + BP_LINE for doc_id % BP_EVERY == 0 — mirrored verbatim
    in SQL) that detection must find and strip.

    Scale shape: pass 1 is the honest all-to-all — per-batch line-hash
    count partials (factorize + bincount, only DISTINCT lines pay the
    string hash) merged by the bucketed `merge_partials_ray`; the hot
    set (count >= T) is boilerplate-sized BY CONSTRUCTION, collected
    once and broadcast via `ray.put`; pass 2 filters per batch with a
    sorted `np.isin`. The Ray side matches on 64-bit line hashes, the
    SQL twin on line STRINGS (equal strings <=> equal hashes; the
    collision caveat is documented in stages/sampling.py)."""
    import ray as _ray

    from ..functions.hashing import stable_hash64_np

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def lines_of(batch: pa.Table):
        ids = np.asarray(batch["doc_id"].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        txt = pc.fill_null(batch["text"], "")
        inj = pc.if_else(pa.array(ids % BP_EVERY == 0),
                         pa.scalar("\n" + BP_LINE), pa.scalar(""))
        t = pc.binary_join_element_wise(txt, inj, "")
        lists = pc.split_pattern(t, "\n")
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        return ids, lists

    def line_partials(batch: pa.Table) -> pa.Table:
        _, lists = lines_of(batch)
        flat = lists.flatten().to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(flat)
        h = stable_hash64_np(uniq).view(np.int64)
        cnt = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        return pa.table({"line_hash": pa.array(h),
                         "cnt": pa.array(cnt)})

    counts = aggregate(ds, ["line_hash"], {"cnt": ("cnt", "sum")},
                       line_partials, in_ray=True)
    hot = counts.map_batches(
        lambda t: t.filter(pc.greater_equal(t["cnt"], BP_MIN_COUNT))
        .select(["line_hash"]), batch_format="pyarrow").to_pandas()
    hot_ref = _ray.put(np.sort(hot["line_hash"].to_numpy(dtype=np.int64)))

    def doc_stats(batch: pa.Table) -> pa.Table:
        hot_arr = _ray.get(hot_ref)
        ids, lists = lines_of(batch)
        offs = lists.offsets.to_numpy(zero_copy_only=False)
        nlines = np.diff(offs).astype(np.int64)
        flat_arr = lists.flatten()
        flat = flat_arr.to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(flat)
        is_hot = np.isin(stable_hash64_np(uniq).view(np.int64),
                         hot_arr)[codes]
        lens = pc.utf8_length(flat_arr).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        doc_idx = np.repeat(np.arange(len(ids)), nlines)
        n_boiler = np.bincount(doc_idx, weights=is_hot,
                               minlength=len(ids)).astype(np.int64)
        kept = np.bincount(doc_idx, weights=np.where(is_hot, 0, lens),
                           minlength=len(ids)).astype(np.int64)
        return pa.table({"doc_id": pa.array(ids),
                         "n_lines": pa.array(nlines),
                         "n_boiler": pa.array(n_boiler),
                         "n_chars_kept": pa.array(kept)})

    return ds.map_batches(doc_stats, batch_format="pyarrow")


def _boilerplate_oracle_sql() -> str:
    bp = BP_LINE.replace("'", "''")
    return (
        "WITH bp_d AS (SELECT doc_id, coalesce(text, '') || "
        f"CASE WHEN doc_id % {BP_EVERY} = 0 THEN chr(10) || '{bp}' "
        "ELSE '' END AS t FROM documents), "
        "bp_l AS (SELECT doc_id, unnest(string_split(t, chr(10))) "
        "AS line FROM bp_d), "
        "bp_hot AS (SELECT line FROM (SELECT line, count(*) AS n "
        f"FROM bp_l GROUP BY line) WHERE n >= {BP_MIN_COUNT}) "
        "SELECT doc_id, CAST(count(*) AS BIGINT) AS n_lines, "
        "CAST(sum(CASE WHEN line IN (SELECT line FROM bp_hot) "
        "THEN 1 ELSE 0 END) AS BIGINT) AS n_boiler, "
        "CAST(sum(CASE WHEN line IN (SELECT line FROM bp_hot) "
        "THEN 0 ELSE length(line) END) AS BIGINT) AS n_chars_kept "
        "FROM bp_l GROUP BY doc_id")


def q_source_terms(sf_dir: str, k: int = 5):
    """Distinctive TERMS PER SOURCE — tf-idf with an exact-integer idf
    proxy (score = tf * n_docs // df, so the gate never meets float
    log), top-k per source with deterministic tie-break (score desc,
    token asc).

    Scale shape: tf (source×token) and df (token → distinct docs) are
    combiner-first partials merged through `merge_partials_ray`; the
    tf⋈df join is a TAGGED-UNION bucketed hash join on the token
    (both sides data-sized — no broadcast); each token-bucket emits
    its per-source partial top-k (global top-k ⊆ union of bucket
    top-ks), and a final source-bucketed reduce ranks. Never a global
    sort, never a driver-side token table."""
    p = shuffle_partitions()

    ds = read_table(sf_dir, "documents",
                    columns=["doc_id", "source", "text"])
    n_docs = ds.count()

    def tok_lists(batch: pa.Table):
        stripped = pc.utf8_trim_whitespace(pc.fill_null(batch["text"], ""))
        lists = split_ws(stripped)
        raw_lens = np.diff(lists.offsets.to_numpy(zero_copy_only=False))
        empty = np.asarray(pc.equal(stripped, "")
                           .to_numpy(zero_copy_only=False))
        flat = lists.flatten().to_numpy(zero_copy_only=False)
        # drop the bogus [""] token of empty docs from the flat stream
        keep = np.repeat(~empty, raw_lens)
        doc_idx = np.repeat(np.arange(len(batch)), raw_lens)[keep]
        return flat[keep], doc_idx

    def tf_partials(batch: pa.Table) -> pa.Table:
        flat, doc_idx = tok_lists(batch)
        if not len(flat):
            return pa.table({"source": pa.array([], pa.string()),
                             "token": pa.array([], pa.string()),
                             "tf": pa.array([], pa.int64())})
        src = batch["source"].to_numpy(zero_copy_only=False)[doc_idx]
        scodes, suniq = pd.factorize(src)
        tcodes, tuniq = pd.factorize(flat)
        key = scodes.astype(np.int64) * len(tuniq) + tcodes
        u, cnt = np.unique(key, return_counts=True)
        return pa.table({"source": pa.array(suniq[u // len(tuniq)]),
                         "token": pa.array(tuniq[u % len(tuniq)]),
                         "tf": pa.array(cnt.astype(np.int64))})

    def df_partials(batch: pa.Table) -> pa.Table:
        flat, doc_idx = tok_lists(batch)
        if not len(flat):
            return pa.table({"token": pa.array([], pa.string()),
                             "df": pa.array([], pa.int64())})
        tcodes, tuniq = pd.factorize(flat)
        pair = np.unique(doc_idx.astype(np.int64) * len(tuniq) + tcodes)
        tok_of_pair = (pair % len(tuniq)).astype(np.int64)
        df = np.bincount(tok_of_pair, minlength=len(tuniq)).astype(np.int64)
        return pa.table({"token": pa.array(tuniq),
                         "df": pa.array(df)})

    tf = aggregate(ds, ["source", "token"], {"tf": ("tf", "sum")},
                   tf_partials, in_ray=True)
    dfreq = aggregate(ds, ["token"], {"df": ("df", "sum")}, df_partials,
                      in_ray=True)

    # tagged-union bucketed join on token (both sides data-sized)
    tag = tag_bucket_fn(["token"], 2 * p, "jbucket")

    def tag_tf(t: pa.Table) -> pa.Table:
        return tag(t).append_column("df", pa.nulls(t.num_rows, pa.int64()))

    def tag_df(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return tag(pa.table({"source": pa.nulls(n, pa.string()),
                             "token": t["token"],
                             "tf": pa.nulls(n, pa.int64())})) \
            .append_column("df", pc.cast(t["df"], pa.int64()))

    both = (tf.map_batches(tag_tf, batch_format="pyarrow")
            .union(dfreq.map_batches(tag_df, batch_format="pyarrow")))

    def score_bucket(g: pd.DataFrame) -> pd.DataFrame:
        dfs = g[g["tf"].isna()]
        rows = g[g["tf"].notna()].copy()
        if not len(rows):
            return pd.DataFrame({"source": [], "token": [], "tf": [],
                                 "df": [], "score": []})
        rows["df"] = rows["token"].map(
            dict(zip(dfs["token"], dfs["df"].astype("int64"))))
        rows["tf"] = rows["tf"].astype("int64")
        rows["df"] = rows["df"].astype("int64")
        rows["score"] = rows["tf"] * n_docs // rows["df"]
        rows = rows.sort_values(["score", "token"],
                                ascending=[False, True])
        return (rows.groupby("source", sort=False).head(k)
                [["source", "token", "tf", "df", "score"]])

    cands = map_buckets(both, "jbucket", score_bucket, 2 * p)

    def final_rank(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["score", "token"], ascending=[False, True])
        g = g.groupby("source", sort=False).head(k).copy()
        g["term_rank"] = (g.groupby("source", sort=False).cumcount()
                          .astype("int64") + 1)
        return g[["source", "token", "tf", "df", "score", "term_rank"]]

    return map_buckets(cands, ["source"], final_rank)


def _source_terms_oracle_sql(k: int = 5) -> str:
    from ..functions.sqlmirror import tokens_sql
    toks = tokens_sql("coalesce(text,'')")
    return (
        f"WITH st_d AS (SELECT doc_id, source, {toks} AS t "
        "FROM documents), "
        "st_u AS (SELECT doc_id, source, unnest(t) AS token FROM st_d), "
        "st_tf AS (SELECT source, token, CAST(count(*) AS BIGINT) AS tf "
        "FROM st_u GROUP BY 1, 2), "
        "st_df AS (SELECT token, CAST(count(DISTINCT doc_id) AS BIGINT) "
        "AS df FROM st_u GROUP BY 1), "
        "st_n AS (SELECT count(*) AS n FROM documents), "
        "st_s AS (SELECT f.source, f.token, f.tf, d.df, "
        "CAST(f.tf * (SELECT n FROM st_n) // d.df AS BIGINT) AS score "
        "FROM st_tf f JOIN st_df d USING (token)) "
        "SELECT source, token, tf, df, score, "
        "CAST(term_rank AS BIGINT) AS term_rank FROM "
        "(SELECT *, row_number() OVER (PARTITION BY source "
        "ORDER BY score DESC, token) AS term_rank FROM st_s) "
        f"WHERE term_rank <= {k}")


def q_top_terms_concat(sf_dir: str, k: int = 3):
    """ORDERED STRING_AGG (the collect-to-list aggregate family):
    each source's top-k tf-idf terms concatenated in rank order —
    the distributed source_terms plan does all data-sized work; the
    final concat runs over the config-sized (source × k) result on
    the driver (documented — the aggregate's output is the per-group
    string itself)."""
    df = q_source_terms(sf_dir, k=k)
    if hasattr(df, "to_pandas"):
        df = df.to_pandas()
    df = df.sort_values(["source", "term_rank"])
    out = df.groupby("source", as_index=False).agg(
        terms=("token", ",".join), n_terms=("token", "size"))
    out["n_terms"] = out["n_terms"].astype("int64")
    return out.sort_values("source").reset_index(drop=True)


def _top_terms_concat_oracle_sql(k: int = 3) -> str:
    return (f"WITH tc AS ({_source_terms_oracle_sql(k)}) "
            "SELECT source, string_agg(token, ',' ORDER BY term_rank) "
            "AS terms, CAST(count(*) AS BIGINT) AS n_terms "
            "FROM tc GROUP BY 1 ORDER BY 1")


PR_SALT = 0x7A6E_4A9B_0C71_0005  # pagerank edge draw (< 2^63)


def q_host_pagerank(sf_dir: str, iters: int = 5, damping_e2: int = 85):
    """ITERATIVE GRAPH op — PageRank over the source link graph, in
    EXACT integer e9 units so 5 unrolled iterations hash-match an
    unrolled SQL twin (iterative algorithms are normally rows-only;
    integer arithmetic makes this one gate-able). Edges are derived
    deterministically from the corpus: every doc links its source to
    sorted_sources[splitmix64(doc_id ^ salt) % n_sources] — the same
    draw in both engines.

    Scale shape: the DATA-sized pass is distributed edge aggregation
    (per-batch factorize + bincount partials → one small groupby);
    the node domain (sources/hosts) is config-sized BY ASSUMPTION
    (documented), so power iterations run on the driver over the
    ≤ S² aggregated edge list — never over the doc stream. For
    web-scale host graphs the same combiner shape feeds a bucketed
    iteration instead."""
    import ray as _ray  # noqa: F401 (parity with sibling queries)

    from ..stages.sampling import row_hash

    ds = read_table(sf_dir, "documents", columns=["doc_id", "source"])

    # node set: distinct sources (config-sized by assumption)
    parts = ds.map_batches(
        lambda t: pa.table({"source": pc.unique(t["source"])}),
        batch_format="pyarrow").to_pandas()
    nodes = sorted(set(parts["source"]))
    S = len(nodes)
    node_arr = np.array(nodes, dtype=object)

    def edge_partials(batch: pa.Table) -> pa.Table:
        h = row_hash(batch["doc_id"], PR_SALT)
        dst_idx = (h % np.uint64(S)).astype(np.int64)
        src = batch["source"].to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(src)
        key = codes.astype(np.int64) * S + dst_idx
        u, cnt = np.unique(key, return_counts=True)
        return pa.table({"src": pa.array(uniq[u // S]),
                         "dst": pa.array(node_arr[u % S]),
                         "cnt": pa.array(cnt.astype(np.int64))})

    edges = (ds.map_batches(edge_partials, batch_format="pyarrow")
             .to_pandas().groupby(["src", "dst"], as_index=False)["cnt"]
             .sum())
    idx = {s: i for i, s in enumerate(nodes)}
    e_src = edges["src"].map(idx).to_numpy(dtype=np.int64)
    e_dst = edges["dst"].map(idx).to_numpy(dtype=np.int64)
    e_cnt = edges["cnt"].to_numpy(dtype=np.int64)
    # int64 accumulation throughout (bincount's float64 weights would
    # lose exactness above 2^53 — the gate column is exact-integer)
    outdeg = np.zeros(S, dtype=np.int64)
    np.add.at(outdeg, e_src, e_cnt)

    r = np.full(S, 10**9 // S, dtype=np.int64)
    base = (100 - damping_e2) * 10**9 // (100 * S)
    for _ in range(iters):
        contrib = (damping_e2 * r[e_src] * e_cnt) // (100 * outdeg[e_src])
        nxt = np.full(S, base, dtype=np.int64)
        np.add.at(nxt, e_dst, contrib)
        r = nxt
    return pd.DataFrame({"source": nodes,
                         "n_out": outdeg,
                         "pagerank_e9": r})


def _pagerank_oracle_sql(iters: int = 5, damping_e2: int = 85) -> str:
    from ..functions.sqlmirror import splitmix64_cte
    w, c = splitmix64_cte(
        "SELECT doc_id, source FROM documents",
        f"xor(CAST(doc_id AS UBIGINT), CAST({PR_SALT} AS UBIGINT))",
        "h", carry_cols=("doc_id", "source"), prefix="pg_")
    sql = w + (
        ", pg_s AS (SELECT source AS node, CAST(row_number() OVER "
        "(ORDER BY source) - 1 AS BIGINT) AS idx FROM "
        "(SELECT DISTINCT source FROM documents)), "
        "pg_n AS (SELECT count(*) AS n_nodes FROM pg_s), "
        f"pg_e AS (SELECT d.source AS src, s.node AS dst, count(*) AS cnt "
        f"FROM {c} d JOIN pg_s s ON s.idx = CAST(d.h % CAST("
        "(SELECT n_nodes FROM pg_n) AS UBIGINT) AS BIGINT) "
        "GROUP BY 1, 2), "
        "pg_o AS (SELECT src, CAST(sum(cnt) AS BIGINT) AS outdeg "
        "FROM pg_e GROUP BY src), "
        "pg_r0 AS (SELECT node, CAST(1000000000 // "
        "(SELECT n_nodes FROM pg_n) AS BIGINT) AS r FROM pg_s)")
    base = (f"CAST(CAST({(100 - damping_e2)} AS BIGINT) * 1000000000 // "
            "(100 * (SELECT n_nodes FROM pg_n)) AS BIGINT)")
    for t in range(1, iters + 1):
        sql += (
            f", pg_r{t} AS (SELECT s.node, {base} + "
            f"CAST(coalesce(sum(({damping_e2} * r.r * e.cnt) // "
            "(100 * o.outdeg)), 0) AS BIGINT) AS r "
            "FROM pg_s s LEFT JOIN (pg_e e JOIN pg_o o ON o.src = e.src "
            f"JOIN pg_r{t - 1} r ON r.node = e.src) ON e.dst = s.node "
            "GROUP BY s.node)")
    return sql + (
        " SELECT s.node AS source, coalesce(o.outdeg, 0) AS n_out, "
        f"r.r AS pagerank_e9 FROM pg_s s "
        f"JOIN pg_r{iters} r ON r.node = s.node "
        "LEFT JOIN pg_o o ON o.src = s.node")


HC_SALT = 0x3C0A_11E5_77E0_0006  # components edge draw (< 2^63)
LP_SALT = 0x3C0A_11E5_77E0_0016  # link-prediction short-step draw


def q_host_components(sf_dir: str):
    """CONNECTED COMPONENTS over a deterministic source link graph —
    the second iterative graph op next to host_pagerank, hash-gated:
    doc with source index i (rank in sorted source order) links
    i -> (i + 4*(1 + h % 8)) % S, h = splitmix64(doc_id ^ HC_SALT);
    stepping by multiples of 4 keeps components non-trivial
    (residues mod gcd(4, S) stay separated). Per source the query
    reports its component representative (lexicographically smallest
    member), the component size, and its distinct out-neighbor count.

    Scale shape: the DATA-sized pass is distributed edge aggregation
    (per-batch factorize + composite-code unique partials → one small
    driver groupby); the node domain is config-sized BY ASSUMPTION
    (documented, same as host_pagerank), so min-label propagation runs
    on the driver over the ≤ S·8 aggregated undirected edge list with
    pointer-jumping until fixpoint. For web-scale host graphs the same
    combiner shape feeds an iterated bucketed hash-min exchange
    instead. The SQL twin recomputes the identical edge set (shared
    splitmix mirror) and takes min over the recursive transitive
    closure."""
    from ..stages.sampling import row_hash

    ds = read_table(sf_dir, "documents", columns=["doc_id", "source"])

    parts = ds.map_batches(
        lambda t: pa.table({"source": pc.unique(t["source"])}),
        batch_format="pyarrow").to_pandas()
    nodes = sorted(set(parts["source"]))
    S = len(nodes)
    idx = {s: i for i, s in enumerate(nodes)}

    def edge_partials(batch: pa.Table) -> pa.Table:
        h = row_hash(batch["doc_id"], HC_SALT)
        step = 4 * (1 + (h % np.uint64(8)).astype(np.int64))
        src = batch["source"].to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(src)
        u_idx = np.fromiter((idx[u] for u in uniq), np.int64, len(uniq))
        si = u_idx[codes]
        di = (si + step) % S
        u = np.unique(si * S + di)
        return pa.table({"si": pa.array((u // S).astype(np.int64)),
                         "di": pa.array((u % S).astype(np.int64))})

    edges = (ds.map_batches(edge_partials, batch_format="pyarrow")
             .to_pandas().drop_duplicates())
    a = edges["si"].to_numpy(dtype=np.int64)
    b = edges["di"].to_numpy(dtype=np.int64)

    lab = np.arange(S, dtype=np.int64)
    while True:
        nl = lab.copy()
        np.minimum.at(nl, a, lab[b])  # undirected: both directions
        np.minimum.at(nl, b, lab[a])
        nl = np.minimum(nl, nl[nl])   # pointer jumping
        if np.array_equal(nl, lab):
            break
        lab = nl

    n_out = np.zeros(S, dtype=np.int64)
    np.add.at(n_out, a, 1)  # edges is already distinct (si, di) pairs
    sizes = np.bincount(lab, minlength=S)
    node_arr = np.array(nodes, dtype=object)
    return pd.DataFrame({"source": nodes,
                         "component_rep": node_arr[lab],
                         "component_size": sizes[lab].astype(np.int64),
                         "n_neighbors": n_out})


def _host_components_oracle_sql() -> str:
    from ..functions.sqlmirror import splitmix64_cte
    w, c = splitmix64_cte(
        "SELECT doc_id, source FROM documents",
        f"xor(CAST(doc_id AS UBIGINT), CAST({HC_SALT} AS UBIGINT))",
        "h", carry_cols=("doc_id", "source"), prefix="hc_")
    # the recursive closure member needs WITH RECURSIVE at the head
    w = w.replace("WITH ", "WITH RECURSIVE ", 1)
    return w + (
        ", hc_s AS (SELECT source AS node, CAST(row_number() OVER "
        "(ORDER BY source) - 1 AS BIGINT) AS idx FROM "
        "(SELECT DISTINCT source FROM documents)), "
        "hc_n AS (SELECT count(*) AS n FROM hc_s), "
        f"hc_e0 AS (SELECT DISTINCT s1.node AS src, s2.node AS dst "
        f"FROM {c} d JOIN hc_s s1 ON s1.node = d.source "
        "JOIN hc_s s2 ON s2.idx = (s1.idx + 4 * (1 + "
        "CAST(d.h % 8 AS BIGINT))) % (SELECT n FROM hc_n)), "
        "hc_e AS (SELECT src, dst FROM hc_e0 "
        "UNION SELECT dst, src FROM hc_e0), "
        "hc_r AS (SELECT node AS a, node AS b FROM hc_s "
        "UNION SELECT r.a, e.dst FROM hc_r r JOIN hc_e e ON e.src = r.b), "
        "hc_rep AS (SELECT a AS source, min(b) AS component_rep "
        "FROM hc_r GROUP BY 1), "
        "hc_sz AS (SELECT component_rep, CAST(count(*) AS BIGINT) "
        "AS component_size FROM hc_rep GROUP BY 1), "
        "hc_out AS (SELECT src AS source, CAST(count(*) AS BIGINT) "
        "AS n_neighbors FROM hc_e0 GROUP BY 1) "
        "SELECT r.source, r.component_rep, z.component_size, "
        "coalesce(o.n_neighbors, 0) AS n_neighbors "
        "FROM hc_rep r JOIN hc_sz z USING (component_rep) "
        "LEFT JOIN hc_out o ON o.source = r.source ORDER BY 1")


def q_host_bfs_depth(sf_dir: str):
    """BFS SHORTEST-PATH DEPTH over the source link graph (fourth
    graph op next to PageRank / components / triangles): per source
    its hop distance from the lexicographically-smallest source in
    the undirected distinct-edge set (unreached nodes omitted,
    matching the recursive-CTE twin). Reuses q_host_components' edge
    derivation verbatim — i → (i + 4·(1 + h % 8)) % S,
    h = splitmix64(doc_id ^ HC_SALT) — so the SQL mirror shares the
    same closed-form edge CTEs.

    Scale shape: identical split to the siblings — the DATA-sized
    pass is the distributed distinct-edge combiner over the doc
    stream; the node domain is config-sized BY ASSUMPTION, so the
    level-synchronous frontier expansion runs on the driver over the
    ≤ S·8 aggregated edges (each level one vectorized neighbor
    lookup). For web-scale host graphs the same combiner feeds an
    iterated bucketed frontier exchange instead."""
    from ..stages.sampling import row_hash

    ds = read_table(sf_dir, "documents", columns=["doc_id", "source"])

    parts = ds.map_batches(
        lambda t: pa.table({"source": pc.unique(t["source"])}),
        batch_format="pyarrow").to_pandas()
    nodes = sorted(set(parts["source"]))
    S = len(nodes)
    idx = {s: i for i, s in enumerate(nodes)}

    def edge_partials(batch: pa.Table) -> pa.Table:
        h = row_hash(batch["doc_id"], HC_SALT)
        step = 4 * (1 + (h % np.uint64(8)).astype(np.int64))
        src = batch["source"].to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(src)
        u_idx = np.fromiter((idx[u] for u in uniq), np.int64, len(uniq))
        si = u_idx[codes]
        di = (si + step) % S
        u = np.unique(si * S + di)
        return pa.table({"si": pa.array((u // S).astype(np.int64)),
                         "di": pa.array((u % S).astype(np.int64))})

    edges = (ds.map_batches(edge_partials, batch_format="pyarrow")
             .to_pandas().drop_duplicates())
    a = edges["si"].to_numpy(dtype=np.int64)
    b = edges["di"].to_numpy(dtype=np.int64)
    # undirected adjacency as a boolean matrix (S is config-sized)
    adj = np.zeros((S, S), dtype=bool)
    adj[a, b] = True
    adj[b, a] = True

    dist = np.full(S, -1, dtype=np.int64)
    dist[0] = 0  # nodes is sorted -> index 0 IS min(source)
    frontier = np.zeros(S, dtype=bool)
    frontier[0] = True
    d = 0
    while frontier.any():
        d += 1
        nxt = adj[frontier].any(axis=0) & (dist < 0)
        dist[nxt] = d
        frontier = nxt

    reached = dist >= 0
    return pd.DataFrame({
        "source": [n for n, r in zip(nodes, reached) if r],
        "depth": dist[reached].astype("int64")})


def _host_bfs_oracle_sql() -> str:
    from ..functions.sqlmirror import splitmix64_cte
    w, c = splitmix64_cte(
        "SELECT doc_id, source FROM documents",
        f"xor(CAST(doc_id AS UBIGINT), CAST({HC_SALT} AS UBIGINT))",
        "h", carry_cols=("doc_id", "source"), prefix="hb_")
    w = w.replace("WITH ", "WITH RECURSIVE ", 1)
    return w + (
        ", hb_s AS (SELECT source AS node, CAST(row_number() OVER "
        "(ORDER BY source) - 1 AS BIGINT) AS idx FROM "
        "(SELECT DISTINCT source FROM documents)), "
        "hb_n AS (SELECT count(*) AS n FROM hb_s), "
        f"hb_e0 AS (SELECT DISTINCT s1.node AS src, s2.node AS dst "
        f"FROM {c} d JOIN hb_s s1 ON s1.node = d.source "
        "JOIN hb_s s2 ON s2.idx = (s1.idx + 4 * (1 + "
        "CAST(d.h % 8 AS BIGINT))) % (SELECT n FROM hb_n)), "
        "hb_e AS (SELECT src, dst FROM hb_e0 "
        "UNION SELECT dst, src FROM hb_e0), "
        "hb_b(node, d) AS ("
        "SELECT (SELECT min(node) FROM hb_s), 0 "
        "UNION "
        "SELECT e.dst, b.d + 1 FROM hb_b b JOIN hb_e e "
        "ON e.src = b.node WHERE b.d < (SELECT n FROM hb_n)) "
        "SELECT node AS source, CAST(min(d) AS BIGINT) AS depth "
        "FROM hb_b GROUP BY 1 ORDER BY 1")


def q_label_centroids(sf_dir: str):
    """LIST-COLUMN AGGREGATE: per-label embedding centroid sums — the
    k-means / IVF-training update step. Each component is e3-quantized
    (floor(x·1000+0.5), the knn_graph convention) and summed per
    (label, dim) in exact int64; the centroid itself is sum/n outside
    the gate (no float division touches the hash). Combiner shape:
    one np.add.at over the batch's (label × dim) matrix — vector sums
    enter the exchange as enum-sized partials (labels × 64 dims), the
    raw vectors never move."""
    from ..stages.simsearch import _to_matrix, quantize_e3

    ds = read_table(sf_dir, "embeddings", columns=["embedding", "label"])

    def part(batch: pa.Table) -> pa.Table:
        lab = batch["label"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        q = quantize_e3(_to_matrix(batch["embedding"])).astype(np.int64)
        codes, uniq = pd.factorize(lab)
        dim = q.shape[1]
        sums = np.zeros((len(uniq), dim), dtype=np.int64)
        np.add.at(sums, codes, q)
        n = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        return pa.table({
            "label": pa.array(np.repeat(uniq, dim)),
            "dim": pa.array(np.tile(np.arange(dim, dtype=np.int64),
                                    len(uniq))),
            "sum_q_e3": pa.array(sums.reshape(-1)),
            "n_vecs": pa.array(np.repeat(n, dim))})

    out = aggregate(ds, ["label", "dim"], {"sum_q_e3": ("sum_q_e3", "sum"),
                                           "n_vecs": ("n_vecs", "sum")}, part)
    return out.sort_values(["label", "dim"]).reset_index(drop=True)


def q_centroid_similarity(sf_dir: str):
    """CENTROID SIMILARITY MATRIX: exact-integer cosine sufficient
    statistics between every pair of label centroids — dot_num =
    Σ_d s_a[d]·s_b[d], nrm2_a/nrm2_b = squared norms of the e3-
    quantized per-label SUM vectors (cosine is scale-invariant, so the
    sums stand in for the means with no float division anywhere near
    the gate; cos = dot_num/√(nrm2_a·nrm2_b) is one float away for
    consumers). The cluster-quality / label-confusion diagnostic on
    top of label_centroids.

    Scale shape: the data-sized work is the distributed per-(label,
    dim) integer sum combine (label_centroids' plan); the pairwise
    matrix is computed on the driver over the enum-sized label domain
    (labels² × dims — config-sized BY ASSUMPTION, like
    host_triangles' adjacency). Overflow asserted."""
    from ..stages.simsearch import _to_matrix, quantize_e3

    ds = read_table(sf_dir, "embeddings", columns=["embedding", "label"])

    def part(batch: pa.Table) -> pa.Table:
        lab = batch["label"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        q = quantize_e3(_to_matrix(batch["embedding"])).astype(np.int64)
        codes, uniq = pd.factorize(lab)
        dim = q.shape[1]
        sums = np.zeros((len(uniq), dim), dtype=np.int64)
        np.add.at(sums, codes, q)
        return pa.table({
            "label": pa.array(np.repeat(uniq, dim)),
            "dim": pa.array(np.tile(np.arange(dim, dtype=np.int64),
                                    len(uniq))),
            "sum_q_e3": pa.array(sums.reshape(-1))})

    out = aggregate(ds, ["label", "dim"], {"sum_q_e3": ("sum_q_e3", "sum")},
                    part)
    piv = out.pivot_table(index="label", columns="dim",
                          values="sum_q_e3", aggfunc="sum").sort_index()
    labels = piv.index.to_numpy().astype(np.int64)
    m = piv.to_numpy().astype(np.int64)
    # promote to Python int BEFORE squaring: np.int64**2 itself wraps
    # silently once max|m| exceeds ~3.04e9, defeating the guard
    assert int(np.abs(m).max(initial=0)) ** 2 * m.shape[1] < 2 ** 62, \
        "centroid dot overflow: coarsen quantization"
    gram = m @ m.T  # exact: int64 within the asserted bound
    nrm2 = np.diag(gram)
    iu, ju = np.triu_indices(len(labels), k=1)
    res = pd.DataFrame({
        "label_a": labels[iu], "label_b": labels[ju],
        "dot_num": gram[iu, ju],
        "nrm2_a": nrm2[iu], "nrm2_b": nrm2[ju]})
    return res.sort_values(["label_a", "label_b"]).reset_index(drop=True)


def _centroid_similarity_oracle_sql() -> str:
    return (
        "WITH cs_e AS (SELECT label, embedding, "
        "unnest(range(1, len(embedding) + 1)) AS i FROM embeddings), "
        "cs_s AS (SELECT CAST(label AS BIGINT) AS label, "
        "CAST(i - 1 AS BIGINT) AS dim, "
        "CAST(sum(CAST(floor(CAST(embedding[i] AS DOUBLE) * 1000 + 0.5) "
        "AS BIGINT)) AS BIGINT) AS s FROM cs_e GROUP BY 1, 2), "
        "cs_n AS (SELECT label, CAST(sum(s * s) AS BIGINT) AS nrm2 "
        "FROM cs_s GROUP BY 1) "
        "SELECT a.label AS label_a, b.label AS label_b, "
        "CAST(sum(a.s * b.s) AS BIGINT) AS dot_num, "
        "CAST(min(na.nrm2) AS BIGINT) AS nrm2_a, "
        "CAST(min(nb.nrm2) AS BIGINT) AS nrm2_b "
        "FROM cs_s a JOIN cs_s b ON a.dim = b.dim AND a.label < b.label "
        "JOIN cs_n na ON na.label = a.label "
        "JOIN cs_n nb ON nb.label = b.label "
        "GROUP BY 1, 2 ORDER BY 1, 2")


KM_K = 8        # kmeans_lloyd cluster count
KM_ITERS = 2    # fixed Lloyd iterations (deterministic, SQL-replayed)


def q_kmeans_lloyd(sf_dir: str):
    """DISTRIBUTED LLOYD'S K-MEANS (k=8, 2 fixed iterations) over the
    e3-quantized embeddings — the iterative-ML operator class: a train
    loop where each iteration is ONE streaming map_batches pass (no
    corpus pin; the input re-streams each pass). Init is the k
    smallest vec_ids' vectors (deterministic, found by a distributed
    partial top-k-min); each pass assigns against a BROADCAST k×dim
    centroid matrix and emits enum-sized (cluster, dim) integer
    partial sums (the label_centroids combiner), merged driver-side
    (k×dims is config-bounded) into floor-div integer centroids;
    empty clusters drop. Exact-integer throughout — quantize_e3
    vectors, Σ(q−c)² distances, numpy floor-division mirrored by
    explicit floor semantics in SQL — so the DuckDB twin replays the
    ENTIRE training trajectory bit-identically, not just the final
    stats. Output: (vec_id, cluster, d2) after a final assignment
    pass.

    Scale shape: vectors never shuffle — ITERS+1 streaming passes
    against a broadcast centroid matrix; the exchange per pass is
    k×dim integer partials per batch."""
    import ray as _ray
    from ..stages.simsearch import _to_matrix, quantize_e3

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def min_ids(batch: pa.Table) -> pa.Table:
        v = np.sort(batch["vec_id"].to_numpy(zero_copy_only=False)
                    .astype(np.int64))[:KM_K]
        return pa.table({"vec_id": pa.array(v, pa.int64())})

    seed_ids = np.sort(ds.map_batches(min_ids, batch_format="pyarrow")
                       .to_pandas()["vec_id"].to_numpy()
                       .astype(np.int64))[:KM_K]
    seed = read_local(sf_dir, "embeddings", columns=["vec_id", "embedding"],
                      filters=[("vec_id", "in", [int(x) for x in seed_ids])])
    seed = seed.sort_values("vec_id").reset_index(drop=True)
    cents = quantize_e3(np.stack([np.asarray(e, np.float64)
                                  for e in seed["embedding"]])
                        ).astype(np.int64)
    # cluster i := i-th smallest seed vec_id (SQL: dense_rank − 1)
    cids = np.arange(len(seed), dtype=np.int64)

    def assign(q: np.ndarray, c: np.ndarray):
        # d2 = ||q||² − 2 q·c + ||c||² — exact int64 within the
        # asserted bound; argmin first-min = smallest cluster id,
        # matching the SQL (d2, c) tie-break
        assert int(np.abs(q).max(initial=0)) < 2 ** 20 and \
            int(np.abs(c).max(initial=0)) < 2 ** 20, \
            "kmeans quantized magnitude exceeds exact-int64 envelope"
        qq = np.einsum("ij,ij->i", q, q)
        cc = np.einsum("ij,ij->i", c, c)
        d2 = qq[:, None] - 2 * (q @ c.T) + cc[None, :]
        j = np.argmin(d2, axis=1)
        return j, d2[np.arange(len(q)), j]

    for _ in range(KM_ITERS):
        cref = _ray.put((cids.copy(), cents.copy()))

        def part(batch: pa.Table, _cref=cref) -> pa.Table:
            ids, c = _ray.get(_cref)
            q = quantize_e3(_to_matrix(batch["embedding"])).astype(np.int64)
            j, _ = assign(q, c)
            dim = q.shape[1]
            sums = np.zeros((len(ids), dim), dtype=np.int64)
            np.add.at(sums, j, q)
            n = np.bincount(j, minlength=len(ids)).astype(np.int64)
            return pa.table({
                "cluster": pa.array(np.repeat(ids, dim)),
                "dim": pa.array(np.tile(np.arange(dim, dtype=np.int64),
                                        len(ids))),
                "s": pa.array(sums.reshape(-1)),
                "n": pa.array(np.repeat(n, dim))})

        st = merge_partials(ds.map_batches(part, batch_format="pyarrow"),
                            ["cluster", "dim"], {"s": "sum", "n": "sum"})
        st = st[st["n"] > 0]  # empty clusters drop (as in the SQL twin)
        piv = st.pivot_table(index="cluster", columns="dim", values="s",
                             aggfunc="sum").sort_index()
        nn = st.groupby("cluster")["n"].max().sort_index()
        cids = piv.index.to_numpy().astype(np.int64)
        cents = np.floor_divide(piv.to_numpy().astype(np.int64),
                                nn.to_numpy().astype(np.int64)[:, None])

    cref = _ray.put((cids, cents))

    def final_assign(batch: pa.Table) -> pa.Table:
        ids, c = _ray.get(cref)
        q = quantize_e3(_to_matrix(batch["embedding"])).astype(np.int64)
        j, d2 = assign(q, c)
        return pa.table({
            "vec_id": pc.cast(batch["vec_id"], pa.int64()),
            "cluster": pa.array(ids[j]),
            "d2": pa.array(d2.astype(np.int64))})

    out = ds.map_batches(final_assign, batch_format="pyarrow").to_pandas()
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("vec_id").reset_index(drop=True)


def _kmeans_oracle_sql(k: int = KM_K, iters: int = KM_ITERS) -> str:
    # exact floor division: (s - ((s % n) + n) % n) // n — DuckDB %
    # truncates toward zero, this forces floor semantics to match
    # numpy's //; the adjusted numerator divides exactly
    parts = [
        "WITH km_e AS (SELECT CAST(vec_id AS BIGINT) AS vec_id, "
        "embedding, unnest(range(1, len(embedding) + 1)) AS i "
        "FROM embeddings), "
        "km_q AS (SELECT vec_id, CAST(i - 1 AS BIGINT) AS dim, "
        "CAST(floor(CAST(embedding[i] AS DOUBLE) * 1000 + 0.5) AS BIGINT) "
        "AS q FROM km_e), "
        "km_c0 AS (SELECT CAST(dense_rank() OVER (ORDER BY vec_id) - 1 "
        "AS BIGINT) AS c, dim, q AS cv FROM km_q WHERE vec_id IN "
        f"(SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT {k}))"]
    prev = "km_c0"
    for it in range(1, iters + 1):
        parts.append(
            f", km_d{it} AS (SELECT km_q.vec_id, {prev}.c, "
            "sum((q - cv) * (q - cv)) AS d2 "
            f"FROM km_q JOIN {prev} USING (dim) GROUP BY 1, 2)"
            f", km_a{it} AS (SELECT vec_id, c FROM (SELECT vec_id, c, "
            "row_number() OVER (PARTITION BY vec_id ORDER BY d2, c) AS rn "
            f"FROM km_d{it}) WHERE rn = 1)"
            f", km_s{it} AS (SELECT a.c, q.dim, CAST(sum(q.q) AS BIGINT) "
            "AS s, CAST(count(*) AS BIGINT) AS n FROM km_q q "
            f"JOIN km_a{it} a USING (vec_id) GROUP BY 1, 2)"
            f", km_c{it} AS (SELECT c, dim, "
            "CAST((s - ((s % n) + n) % n) // n AS BIGINT) AS cv "
            f"FROM km_s{it})")
        prev = f"km_c{it}"
    parts.append(
        f", km_df AS (SELECT km_q.vec_id, {prev}.c, "
        "CAST(sum((q - cv) * (q - cv)) AS BIGINT) AS d2 "
        f"FROM km_q JOIN {prev} USING (dim) GROUP BY 1, 2) "
        "SELECT vec_id, c AS cluster, d2 FROM (SELECT vec_id, c, d2, "
        "row_number() OVER (PARTITION BY vec_id ORDER BY d2, c) AS rn "
        "FROM km_df) WHERE rn = 1 ORDER BY vec_id")
    return "".join(parts)


KC_K = 8  # kcenter_coreset selection count


def q_kcenter_coreset(sf_dir: str):
    """GREEDY K-CENTER CORESET SELECTION (Gonzalez farthest-point,
    k=8) over the e3-quantized embeddings — the diverse-subset
    selection step of a data-curation pipeline, and the second member
    of the iterative-operator family next to kmeans_lloyd. Seed = the
    smallest vec_id; each of the k−1 rounds streams the corpus ONCE
    against the broadcast selected-set matrix, computes each point's
    min-d2 to the selected set (exact int64), and emits a per-batch
    partial argmax (max d2, tie-break smallest vec_id) — the driver
    merges one row per block per round. Stateless recompute per round
    (O(k²·n·dim) total) keeps every pass a pure streaming map with no
    per-point state dataset; the k is config-sized so the recompute
    factor is a constant. The SQL twin replays every selection round
    exactly. Output: (rank, vec_id, d2) — d2 is the point's distance²
    to the previously-selected set at selection time (−1 for the
    seed)."""
    import ray as _ray
    from ..stages.simsearch import _to_matrix, quantize_e3

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def min_id(batch: pa.Table) -> pa.Table:
        v = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"vec_id": pa.array([int(v.min())], pa.int64())})

    seed_id = int(ds.map_batches(min_id, batch_format="pyarrow")
                  .to_pandas()["vec_id"].min())

    def read_vec(vid: int) -> np.ndarray:
        t = read_local(sf_dir, "embeddings",
                       columns=["vec_id", "embedding"],
                       filters=[("vec_id", "=", vid)])
        return quantize_e3(np.asarray(t["embedding"].iloc[0], np.float64)
                           [None, :]).astype(np.int64)[0]

    sel_ids = [seed_id]
    sel_mat = read_vec(seed_id)[None, :]
    picks = [(0, seed_id, -1)]

    for r in range(1, KC_K):
        sref = _ray.put((np.asarray(sel_ids, np.int64), sel_mat.copy()))

        def far_partial(batch: pa.Table, _sref=sref) -> pa.Table:
            ids, s = _ray.get(_sref)
            q = quantize_e3(_to_matrix(batch["embedding"])).astype(np.int64)
            vid = batch["vec_id"].to_numpy(
                zero_copy_only=False).astype(np.int64)
            assert int(np.abs(q).max(initial=0)) < 2 ** 20 and \
                int(np.abs(s).max(initial=0)) < 2 ** 20, \
                "kcenter quantized magnitude exceeds exact-int64 envelope"
            qq = np.einsum("ij,ij->i", q, q)
            ss = np.einsum("ij,ij->i", s, s)
            d2 = qq[:, None] - 2 * (q @ s.T) + ss[None, :]
            md = d2.min(axis=1)
            keep = ~np.isin(vid, ids)
            if not keep.any():
                return pa.table({"vec_id": pa.array([], pa.int64()),
                                 "d2": pa.array([], pa.int64())})
            md, vid = md[keep], vid[keep]
            # per-batch argmax with (d2 desc, vec_id asc) tie-break
            best = np.lexsort((vid, -md))[0]
            return pa.table({"vec_id": pa.array([int(vid[best])], pa.int64()),
                             "d2": pa.array([int(md[best])], pa.int64())})

        cand = (ds.map_batches(far_partial, batch_format="pyarrow")
                .to_pandas())
        cand = cand.sort_values(["d2", "vec_id"],
                                ascending=[False, True]).head(1)
        vid, d2 = int(cand["vec_id"].iloc[0]), int(cand["d2"].iloc[0])
        picks.append((r, vid, d2))
        sel_ids.append(vid)
        sel_mat = np.vstack([sel_mat, read_vec(vid)[None, :]])

    out = pd.DataFrame(picks, columns=["rank", "vec_id", "d2"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _kcenter_oracle_sql(k: int = KC_K) -> str:
    # INCREMENTAL replay, O(k·n·dim): each round joins the corpus
    # against ONLY the newest pick's 64 dim rows and folds a running
    # least() min-distance column — min over the selected set equals
    # the incremental least-chain exactly in int64, so the output is
    # identical to the Ray side's full-set recompute. (A naive
    # set-join replay was measured minutes-slow at 2000 vectors.)
    # Every CTE is MATERIALIZED so the pick chain is evaluated once.
    parts = [
        "WITH kc_e AS MATERIALIZED (SELECT CAST(vec_id AS BIGINT) AS vec_id, "
        "embedding, unnest(range(1, len(embedding) + 1)) AS i "
        "FROM embeddings), "
        "kc_q AS MATERIALIZED (SELECT vec_id, CAST(i - 1 AS BIGINT) AS dim, "
        "CAST(floor(CAST(embedding[i] AS DOUBLE) * 1000 + 0.5) AS BIGINT) "
        "AS q FROM kc_e), "
        "kc_sel0 AS MATERIALIZED (SELECT min(vec_id) AS v FROM kc_q)"]
    for r in range(1, k):
        newest = ("(SELECT v FROM kc_sel0)" if r == 1
                  else f"(SELECT vec_id FROM kc_p{r - 1})")
        excl = " OR ".join(
            ["m.vec_id = (SELECT v FROM kc_sel0)"]
            + [f"m.vec_id = (SELECT vec_id FROM kc_p{j})"
               for j in range(1, r)])
        # the newest pick's dim rows first (64 rows — keeps the
        # distance join's build side pick-sized; a scalar subquery in
        # the join condition defeats pushdown and goes quadratic)
        parts.append(
            f", kc_s{r} AS MATERIALIZED (SELECT dim, q FROM kc_q "
            f"WHERE vec_id = {newest})")
        parts.append(
            f", kc_nd{r} AS MATERIALIZED (SELECT p.vec_id, "
            "CAST(sum((p.q - s.q) * (p.q - s.q)) AS BIGINT) AS dd "
            f"FROM kc_q p JOIN kc_s{r} s USING (dim) GROUP BY 1)")
        # running min distance to the selected set
        if r == 1:
            parts.append(", kc_m1 AS MATERIALIZED "
                         "(SELECT vec_id, dd AS m FROM kc_nd1)")
        else:
            parts.append(
                f", kc_m{r} AS MATERIALIZED (SELECT m.vec_id, "
                f"least(m.m, nd.dd) AS m FROM kc_m{r - 1} m "
                f"JOIN kc_nd{r} nd USING (vec_id))")
        parts.append(
            f", kc_p{r} AS MATERIALIZED (SELECT vec_id, "
            f"CAST(m AS BIGINT) AS d2 FROM kc_m{r} m "
            f"WHERE NOT ({excl}) "
            "ORDER BY m DESC, vec_id LIMIT 1)")
    union = [f"SELECT CAST(0 AS BIGINT) AS rank, v AS vec_id, "
             "CAST(-1 AS BIGINT) AS d2 FROM kc_sel0"]
    union += [f"SELECT CAST({r} AS BIGINT), vec_id, d2 FROM kc_p{r}"
              for r in range(1, k)]
    parts.append(" " + " UNION ALL ".join(union) + " ORDER BY 1")
    return "".join(parts)


LP_SALT = 0x5B21_9D3E_44AA_0007  # label-propagation edge draw (< 2^63)
LP_ROUNDS = 4


def q_host_label_propagation(sf_dir: str, rounds: int = LP_ROUNDS):
    """WEIGHTED MAJORITY LABEL PROPAGATION (community detection) over
    the source link graph — the fourth iterative graph op next to
    host_pagerank / host_components / host_bfs_depth, hash-gated:
    edges are the pagerank draw shape under LP_SALT (each doc links
    its source to sorted_sources[splitmix64(doc_id ^ LP_SALT) % S])
    with multiplicity as weight, symmetrized, self-loops dropped.
    Labels start as each node's sorted rank; each of the 4 SYNCHRONOUS
    rounds relabels every node to the label with the largest total
    incident weight among its neighbors (tie-break smallest label);
    isolated nodes keep their label. Output: (source, label_source,
    cluster_size).

    Scale shape: the DATA-sized pass is the distributed edge
    aggregation combiner (per-batch factorize + composite-key unique
    partials → one small driver groupby); the node domain is
    config-sized BY ASSUMPTION (the documented host_pagerank
    assumption), so the ≤S² vote iteration runs on the driver. For
    web-scale host graphs the identical vote shape is a per-round
    bucketed (dst, label) weight aggregation + per-dst argmax. The
    SQL twin unrolls every round with a window-function argmax over
    the identical edge set."""
    from ..stages.sampling import row_hash

    ds = read_table(sf_dir, "documents", columns=["doc_id", "source"])
    parts = ds.map_batches(
        lambda t: pa.table({"source": pc.unique(t["source"])}),
        batch_format="pyarrow").to_pandas()
    nodes = sorted(set(parts["source"]))
    S = len(nodes)
    idx = {s: i for i, s in enumerate(nodes)}

    def edge_partials(batch: pa.Table) -> pa.Table:
        h = row_hash(batch["doc_id"], LP_SALT)
        dst = (h % np.uint64(S)).astype(np.int64)
        src = batch["source"].to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(src)
        u_idx = np.fromiter((idx[u] for u in uniq), np.int64, len(uniq))
        key = u_idx[codes] * S + dst
        u, cnt = np.unique(key, return_counts=True)
        return pa.table({"si": pa.array((u // S).astype(np.int64)),
                         "di": pa.array((u % S).astype(np.int64)),
                         "cnt": pa.array(cnt.astype(np.int64))})

    edges = (ds.map_batches(edge_partials, batch_format="pyarrow")
             .to_pandas().groupby(["si", "di"], as_index=False)["cnt"]
             .sum())
    a0 = edges["si"].to_numpy(dtype=np.int64)
    b0 = edges["di"].to_numpy(dtype=np.int64)
    w0 = edges["cnt"].to_numpy(dtype=np.int64)
    keep = a0 != b0
    aa = np.concatenate([a0[keep], b0[keep]])
    bb = np.concatenate([b0[keep], a0[keep]])
    ww = np.concatenate([w0[keep], w0[keep]])
    e = (pd.DataFrame({"a": aa, "b": bb, "w": ww})
         .groupby(["a", "b"], as_index=False)["w"].sum())
    ea = e["a"].to_numpy(dtype=np.int64)
    eb = e["b"].to_numpy(dtype=np.int64)
    ew = e["w"].to_numpy(dtype=np.int64)

    lab = np.arange(S, dtype=np.int64)
    has_nbr = np.zeros(S, dtype=bool)
    has_nbr[ea] = True
    for _ in range(rounds):
        votes = np.zeros((S, S), dtype=np.int64)
        np.add.at(votes, (ea, lab[eb]), ew)
        # argmax returns the FIRST max → smallest-label tie-break
        lab = np.where(has_nbr, votes.argmax(axis=1), lab)
    counts = np.bincount(lab, minlength=S)
    node_arr = np.array(nodes, dtype=object)
    return pd.DataFrame({"source": nodes,
                         "label_source": node_arr[lab],
                         "cluster_size": counts[lab].astype(np.int64)})


def _label_prop_oracle_sql(rounds: int = LP_ROUNDS) -> str:
    from ..functions.sqlmirror import splitmix64_cte
    w, c = splitmix64_cte(
        "SELECT doc_id, source FROM documents",
        f"xor(CAST(doc_id AS UBIGINT), CAST({LP_SALT} AS UBIGINT))",
        "h", carry_cols=("doc_id", "source"), prefix="lp_")
    sql = w + (
        ", lp_s AS (SELECT source AS name, CAST(row_number() OVER "
        "(ORDER BY source) - 1 AS BIGINT) AS idx FROM "
        "(SELECT DISTINCT source FROM documents)), "
        "lp_n AS (SELECT count(*) AS n FROM lp_s), "
        f"lp_e0 AS (SELECT s1.idx AS a, CAST(d.h % CAST("
        "(SELECT n FROM lp_n) AS UBIGINT) AS BIGINT) AS b, "
        f"CAST(count(*) AS BIGINT) AS w FROM {c} d "
        "JOIN lp_s s1 ON s1.name = d.source GROUP BY 1, 2), "
        "lp_e AS MATERIALIZED (SELECT a, b, CAST(sum(w) AS BIGINT) AS w "
        "FROM (SELECT a, b, w FROM lp_e0 WHERE a <> b "
        "UNION ALL SELECT b, a, w FROM lp_e0 WHERE a <> b) "
        "GROUP BY 1, 2), "
        "lp_r0 AS (SELECT idx AS node, idx AS lab FROM lp_s)")
    for t in range(1, rounds + 1):
        sql += (
            f", lp_r{t} AS MATERIALIZED ("
            "SELECT node, lab FROM ("
            "SELECT e.a AS node, r.lab AS lab, "
            "row_number() OVER (PARTITION BY e.a "
            "ORDER BY sum(e.w) DESC, r.lab ASC) AS rn "
            f"FROM lp_e e JOIN lp_r{t - 1} r ON r.node = e.b "
            "GROUP BY e.a, r.lab) WHERE rn = 1 "
            f"UNION ALL SELECT r.node, r.lab FROM lp_r{t - 1} r "
            "WHERE r.node NOT IN (SELECT DISTINCT a FROM lp_e))")
    return sql + (
        f" SELECT s.name AS source, s2.name AS label_source, "
        "sz.cluster_size "
        f"FROM lp_r{rounds} r JOIN lp_s s ON s.idx = r.node "
        "JOIN lp_s s2 ON s2.idx = r.lab "
        "JOIN (SELECT lab, CAST(count(*) AS BIGINT) AS cluster_size "
        f"FROM lp_r{rounds} GROUP BY 1) sz ON sz.lab = r.lab "
        "ORDER BY 1")


HT_SALT = 0x2D88_61C4_0F39_000A  # HITS edge draw (< 2^63)
HT_ROUNDS = 4


def q_host_hits(sf_dir: str, rounds: int = HT_ROUNDS):
    """HITS HUBS & AUTHORITIES (Kleinberg) over the directed source
    link graph — the mutual-reinforcement ranking next to pagerank,
    hash-gated in exact integer e9 units: 4 rounds of
    a ← Aᵀh, h ← A·a with weighted edges (the pagerank draw shape
    under HT_SALT), each vector re-normalized to a 10⁹ total by exact
    integer floor division. The normalization products exceed int64
    (raw · 10⁹), so the per-round scaling runs in arbitrary-precision
    Python ints on the driver (the node domain is config-sized BY
    ASSUMPTION — the documented host_pagerank assumption) and in
    HUGEINT in the SQL twin: both exact, both identical. Output:
    (source, hub_e9, auth_e9, n_out, n_in).

    Scale shape: the DATA-sized pass is the distributed edge
    aggregation combiner; the iteration is ≤S² on the driver, a
    per-round bucketed (dst ← src·w) exchange at web scale."""
    from ..stages.sampling import row_hash

    ds = read_table(sf_dir, "documents", columns=["doc_id", "source"])
    parts = ds.map_batches(
        lambda t: pa.table({"source": pc.unique(t["source"])}),
        batch_format="pyarrow").to_pandas()
    nodes = sorted(set(parts["source"]))
    S = len(nodes)
    idx = {s: i for i, s in enumerate(nodes)}

    def edge_partials(batch: pa.Table) -> pa.Table:
        h = row_hash(batch["doc_id"], HT_SALT)
        dst = (h % np.uint64(S)).astype(np.int64)
        src = batch["source"].to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(src)
        u_idx = np.fromiter((idx[u] for u in uniq), np.int64, len(uniq))
        key = u_idx[codes] * S + dst
        u, cnt = np.unique(key, return_counts=True)
        return pa.table({"si": pa.array((u // S).astype(np.int64)),
                         "di": pa.array((u % S).astype(np.int64)),
                         "cnt": pa.array(cnt.astype(np.int64))})

    edges = (ds.map_batches(edge_partials, batch_format="pyarrow")
             .to_pandas().groupby(["si", "di"], as_index=False)["cnt"]
             .sum())
    ea = [int(x) for x in edges["si"]]
    eb = [int(x) for x in edges["di"]]
    ew = [int(x) for x in edges["cnt"]]

    def norm(v: list[int]) -> list[int]:
        tot = sum(v)
        if tot == 0:
            return v
        return [x * 10**9 // tot for x in v]

    hub = [10**9 // S] * S
    auth = [0] * S
    for _ in range(rounds):
        raw_a = [0] * S
        for a, b, w in zip(ea, eb, ew):
            raw_a[b] += w * hub[a]
        auth = norm(raw_a)
        raw_h = [0] * S
        for a, b, w in zip(ea, eb, ew):
            raw_h[a] += w * auth[b]
        hub = norm(raw_h)
    n_out = np.zeros(S, dtype=np.int64)
    n_in = np.zeros(S, dtype=np.int64)
    for a, b, w in zip(ea, eb, ew):
        n_out[a] += w
        n_in[b] += w
    return pd.DataFrame({"source": nodes,
                         "hub_e9": np.array(hub, dtype=np.int64),
                         "auth_e9": np.array(auth, dtype=np.int64),
                         "n_out": n_out,
                         "n_in": n_in})


def _hits_oracle_sql(rounds: int = HT_ROUNDS) -> str:
    from ..functions.sqlmirror import splitmix64_cte
    w, c = splitmix64_cte(
        "SELECT doc_id, source FROM documents",
        f"xor(CAST(doc_id AS UBIGINT), CAST({HT_SALT} AS UBIGINT))",
        "h", carry_cols=("doc_id", "source"), prefix="ht_")
    sql = w + (
        ", ht_s AS (SELECT source AS name, CAST(row_number() OVER "
        "(ORDER BY source) - 1 AS BIGINT) AS idx FROM "
        "(SELECT DISTINCT source FROM documents)), "
        "ht_n AS (SELECT count(*) AS n FROM ht_s), "
        f"ht_e AS MATERIALIZED (SELECT s1.idx AS a, CAST(d.h % CAST("
        "(SELECT n FROM ht_n) AS UBIGINT) AS BIGINT) AS b, "
        f"CAST(count(*) AS BIGINT) AS w FROM {c} d "
        "JOIN ht_s s1 ON s1.name = d.source GROUP BY 1, 2), "
        "ht_h0 AS (SELECT idx AS node, CAST(1000000000 // "
        "(SELECT n FROM ht_n) AS HUGEINT) AS v FROM ht_s)")
    for t in range(1, rounds + 1):
        # a_t raw = A^T h_{t-1}, normalized to a 1e9 total (HUGEINT
        # keeps raw*1e9 exact — it exceeds int64)
        sql += (
            f", ht_ar{t} AS MATERIALIZED (SELECT s.idx AS node, "
            "CAST(coalesce(sum(e.w * h.v), 0) AS HUGEINT) AS raw "
            f"FROM ht_s s LEFT JOIN (ht_e e JOIN ht_h{t - 1} h "
            "ON h.node = e.a) ON e.b = s.idx GROUP BY 1)"
            f", ht_a{t} AS MATERIALIZED (SELECT node, CASE WHEN "
            f"(SELECT sum(raw) FROM ht_ar{t}) = 0 THEN raw ELSE "
            f"raw * 1000000000 // (SELECT sum(raw) FROM ht_ar{t}) "
            f"END AS v FROM ht_ar{t})"
            f", ht_hr{t} AS MATERIALIZED (SELECT s.idx AS node, "
            "CAST(coalesce(sum(e.w * a.v), 0) AS HUGEINT) AS raw "
            f"FROM ht_s s LEFT JOIN (ht_e e JOIN ht_a{t} a "
            "ON a.node = e.b) ON e.a = s.idx GROUP BY 1)"
            f", ht_h{t} AS MATERIALIZED (SELECT node, CASE WHEN "
            f"(SELECT sum(raw) FROM ht_hr{t}) = 0 THEN raw ELSE "
            f"raw * 1000000000 // (SELECT sum(raw) FROM ht_hr{t}) "
            f"END AS v FROM ht_hr{t})")
    return sql + (
        f" SELECT s.name AS source, "
        f"CAST(h.v AS BIGINT) AS hub_e9, CAST(a.v AS BIGINT) AS auth_e9, "
        "CAST(coalesce(oo.w, 0) AS BIGINT) AS n_out, "
        "CAST(coalesce(ii.w, 0) AS BIGINT) AS n_in "
        f"FROM ht_s s JOIN ht_h{rounds} h ON h.node = s.idx "
        f"JOIN ht_a{rounds} a ON a.node = s.idx "
        "LEFT JOIN (SELECT a, sum(w) AS w FROM ht_e GROUP BY 1) oo "
        "ON oo.a = s.idx "
        "LEFT JOIN (SELECT b, sum(w) AS w FROM ht_e GROUP BY 1) ii "
        "ON ii.b = s.idx ORDER BY 1")


KCORE_SALT = 0x19F7_33B1_8E55_0008  # k-core edge draw (< 2^63)
KCORE_K = 3
KCORE_ROUNDS = 5


def q_host_kcore(sf_dir: str, k: int = KCORE_K, rounds: int = KCORE_ROUNDS):
    """K-CORE PEELING (R synchronous rounds, k=3) over a SPARSE
    deterministic source link graph — the degeneracy / influential-hub
    audit next to triangles and pagerank, hash-gated: only docs with
    splitmix64(doc_id ^ KCORE_SALT) % 16 == 0 draw an edge (the
    sparsity that makes peeling non-trivial), source rank i →
    (i + 1 + (h >> 8) % (S-1)) % S, undirected, distinct, self-loops
    impossible by construction. Each round SIMULTANEOUSLY removes
    every surviving node whose distinct-surviving-neighbor degree is
    < k; exactly R rounds (the spec is R-round peeling, not fixpoint,
    so both engines replay the same bounded cascade). Output per
    source: removed_round (1-based; 0 = survives all R rounds),
    deg0 (initial distinct degree), deg_final (degree among final
    survivors; 0 if removed).

    Scale shape: distributed distinct-edge aggregation (composite-key
    unique partials) → driver peel over the ≤S² edge list under the
    documented config-sized node-domain assumption; at web scale each
    round is one bucketed degree count + broadcast removal filter.
    The SQL twin unrolls the R rounds over the identical edge set."""
    from ..stages.sampling import row_hash

    ds = read_table(sf_dir, "documents", columns=["doc_id", "source"])
    parts = ds.map_batches(
        lambda t: pa.table({"source": pc.unique(t["source"])}),
        batch_format="pyarrow").to_pandas()
    nodes = sorted(set(parts["source"]))
    S = len(nodes)
    idx = {s: i for i, s in enumerate(nodes)}

    def edge_partials(batch: pa.Table) -> pa.Table:
        h = row_hash(batch["doc_id"], KCORE_SALT)
        pick = (h % np.uint64(16)) == 0
        h = h[pick]
        src = batch["source"].to_numpy(zero_copy_only=False)[pick]
        if len(src) == 0:
            return pa.table({"si": pa.array([], pa.int64()),
                             "di": pa.array([], pa.int64())})
        step = 1 + ((h >> np.uint64(8)) % np.uint64(S - 1)).astype(np.int64)
        codes, uniq = pd.factorize(src)
        u_idx = np.fromiter((idx[u] for u in uniq), np.int64, len(uniq))
        si = u_idx[codes]
        di = (si + step) % S
        u = np.unique(si * S + di)
        return pa.table({"si": pa.array((u // S).astype(np.int64)),
                         "di": pa.array((u % S).astype(np.int64))})

    edges = (ds.map_batches(edge_partials, batch_format="pyarrow")
             .to_pandas().drop_duplicates())
    a0 = edges["si"].to_numpy(dtype=np.int64)
    b0 = edges["di"].to_numpy(dtype=np.int64)
    # undirected distinct neighbor pairs
    u = np.unique(np.concatenate([a0 * S + b0, b0 * S + a0]))
    ea, eb = (u // S).astype(np.int64), (u % S).astype(np.int64)

    deg0 = np.bincount(ea, minlength=S).astype(np.int64)
    alive = np.ones(S, dtype=bool)
    removed_round = np.zeros(S, dtype=np.int64)
    for t in range(1, rounds + 1):
        live = alive[ea] & alive[eb]
        deg = np.bincount(ea[live], minlength=S).astype(np.int64)
        drop = alive & (deg < k)
        if not drop.any():
            break
        removed_round[drop] = t
        alive = alive & ~drop
    live = alive[ea] & alive[eb]
    deg_final = np.bincount(ea[live], minlength=S).astype(np.int64)
    deg_final[~alive] = 0
    return pd.DataFrame({"source": nodes,
                         "removed_round": removed_round,
                         "deg0": deg0,
                         "deg_final": deg_final})


def _kcore_oracle_sql(k: int = KCORE_K, rounds: int = KCORE_ROUNDS) -> str:
    from ..functions.sqlmirror import splitmix64_cte
    w, c = splitmix64_cte(
        "SELECT doc_id, source FROM documents",
        f"xor(CAST(doc_id AS UBIGINT), CAST({KCORE_SALT} AS UBIGINT))",
        "h", carry_cols=("doc_id", "source"), prefix="kk_")
    sql = w + (
        ", kk_s AS (SELECT source AS name, CAST(row_number() OVER "
        "(ORDER BY source) - 1 AS BIGINT) AS idx FROM "
        "(SELECT DISTINCT source FROM documents)), "
        "kk_n AS (SELECT count(*) AS n FROM kk_s), "
        f"kk_d0 AS (SELECT s1.idx AS a, "
        "(s1.idx + 1 + CAST((d.h >> 8) % CAST((SELECT n FROM kk_n) - 1 "
        "AS UBIGINT) AS BIGINT)) % (SELECT n FROM kk_n) AS b "
        f"FROM {c} d JOIN kk_s s1 ON s1.name = d.source "
        "WHERE d.h % 16 = 0), "
        "kk_e AS MATERIALIZED (SELECT DISTINCT a, b FROM "
        "(SELECT a, b FROM kk_d0 UNION ALL SELECT b, a FROM kk_d0)), "
        "kk_a0 AS (SELECT idx AS node FROM kk_s)")
    for t in range(1, rounds + 1):
        sql += (
            f", kk_g{t} AS MATERIALIZED (SELECT x.node, "
            "CAST(coalesce(cnt, 0) AS BIGINT) AS deg FROM "
            f"kk_a{t - 1} x LEFT JOIN (SELECT e.a AS node, count(*) AS cnt "
            f"FROM kk_e e JOIN kk_a{t - 1} p ON p.node = e.a "
            f"JOIN kk_a{t - 1} q ON q.node = e.b GROUP BY 1) g "
            "USING (node))"
            f", kk_rm{t} AS MATERIALIZED (SELECT node FROM kk_g{t} "
            f"WHERE deg < {k})"
            f", kk_a{t} AS MATERIALIZED (SELECT node FROM kk_g{t} "
            f"WHERE deg >= {k})")
    rm_union = " UNION ALL ".join(
        f"SELECT node, CAST({t} AS BIGINT) AS removed_round FROM kk_rm{t}"
        for t in range(1, rounds + 1))
    return sql + (
        f", kk_rm AS ({rm_union}), "
        "kk_deg0 AS (SELECT a AS node, CAST(count(*) AS BIGINT) AS deg0 "
        "FROM kk_e GROUP BY 1), "
        f"kk_df AS (SELECT e.a AS node, CAST(count(*) AS BIGINT) AS deg "
        f"FROM kk_e e JOIN kk_a{rounds} p ON p.node = e.a "
        f"JOIN kk_a{rounds} q ON q.node = e.b GROUP BY 1) "
        "SELECT s.name AS source, "
        "coalesce(rm.removed_round, 0) AS removed_round, "
        "coalesce(d0.deg0, 0) AS deg0, "
        "CASE WHEN rm.node IS NOT NULL THEN 0 "
        "ELSE coalesce(df.deg, 0) END AS deg_final "
        "FROM kk_s s LEFT JOIN kk_rm rm ON rm.node = s.idx "
        "LEFT JOIN kk_deg0 d0 ON d0.node = s.idx "
        "LEFT JOIN kk_df df ON df.node = s.idx ORDER BY 1")


def q_host_triangles(sf_dir: str):
    """TRIANGLE COUNTING over the source link graph (third graph op
    next to PageRank and components): per node, the number of
    triangles through it in the undirected distinct-edge set
    (self-loops excluded), plus its degree. Same scale split as the
    siblings: distributed distinct-edge combiner over the doc stream,
    then diag(A³)/2 on the driver's ≤S² adjacency matrix
    (config-sized node domain BY ASSUMPTION; web-scale uses the
    standard per-edge wedge-join). SQL twin: three-way self-join over
    the identical mirrored edge set."""
    from ..stages.sampling import row_hash

    ds = read_table(sf_dir, "documents", columns=["doc_id", "source"])
    parts = ds.map_batches(
        lambda t: pa.table({"source": pc.unique(t["source"])}),
        batch_format="pyarrow").to_pandas()
    nodes = sorted(set(parts["source"]))
    S = len(nodes)
    idx = {s: i for i, s in enumerate(nodes)}

    def edge_partials(batch: pa.Table) -> pa.Table:
        h = row_hash(batch["doc_id"], HC_SALT)
        step = 4 * (1 + (h % np.uint64(8)).astype(np.int64))
        src = batch["source"].to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(src)
        u_idx = np.fromiter((idx[u] for u in uniq), np.int64, len(uniq))
        si = u_idx[codes]
        di = (si + step) % S
        u = np.unique(si * S + di)
        return pa.table({"si": pa.array((u // S).astype(np.int64)),
                         "di": pa.array((u % S).astype(np.int64))})

    edges = (ds.map_batches(edge_partials, batch_format="pyarrow")
             .to_pandas().drop_duplicates())
    a = edges["si"].to_numpy(dtype=np.int64)
    b = edges["di"].to_numpy(dtype=np.int64)
    keep = a != b  # self-loops never form triangles
    A = np.zeros((S, S), dtype=np.int64)
    A[a[keep], b[keep]] = 1
    A |= A.T  # undirected
    tri = np.diag(A @ A @ A) // 2
    deg = A.sum(axis=1)
    return pd.DataFrame({"source": nodes,
                         "degree": deg.astype(np.int64),
                         "n_triangles": tri.astype(np.int64)})


def _host_edges_ctes(prefix: str, salt: int = HC_SALT,
                     step_sql: str =
                     "4 * (1 + CAST(d.h % 8 AS BIGINT))") -> str:
    """Shared WITH-fragment for a deterministic undirected host graph
    (splitmix edge draw, as components / triangles / clustering /
    link prediction use): defines ``{p}s`` (node, idx), ``{p}e``
    (both-direction distinct edge set, self-loops excluded) and
    ``{p}d`` (degree per node). ``step_sql`` is the ring-step
    expression over the draw ``d.h``."""
    from ..functions.sqlmirror import splitmix64_cte
    p = prefix
    w, c = splitmix64_cte(
        "SELECT doc_id, source FROM documents",
        f"xor(CAST(doc_id AS UBIGINT), CAST({salt} AS UBIGINT))",
        "h", carry_cols=("doc_id", "source"), prefix=p)
    return w + (
        f", {p}s AS (SELECT source AS node, CAST(row_number() OVER "
        "(ORDER BY source) - 1 AS BIGINT) AS idx FROM "
        "(SELECT DISTINCT source FROM documents)), "
        f"{p}n AS (SELECT count(*) AS n FROM {p}s), "
        f"{p}e0 AS (SELECT DISTINCT s1.node AS src, s2.node AS dst "
        f"FROM {c} d JOIN {p}s s1 ON s1.node = d.source "
        f"JOIN {p}s s2 ON s2.idx = (s1.idx + {step_sql}"
        f") % (SELECT n FROM {p}n) "
        "WHERE s1.node <> s2.node), "
        f"{p}e AS (SELECT src, dst FROM {p}e0 "
        f"UNION SELECT dst, src FROM {p}e0), "
        f"{p}d AS (SELECT src AS node, CAST(count(*) AS BIGINT) "
        f"AS degree FROM {p}e GROUP BY 1)")


def _host_triangles_oracle_sql() -> str:
    return _host_edges_ctes("ht_") + (
        ", ht_t AS (SELECT e1.src AS a, e1.dst AS b, e2.dst AS c_ "
        "FROM ht_e e1 JOIN ht_e e2 ON e2.src = e1.dst "
        "JOIN ht_e e3 ON e3.src = e2.dst AND e3.dst = e1.src "
        "WHERE e1.src < e1.dst AND e1.dst < e2.dst), "
        "ht_m AS (SELECT a AS node FROM ht_t UNION ALL "
        "SELECT b FROM ht_t UNION ALL SELECT c_ FROM ht_t), "
        "ht_c AS (SELECT node, CAST(count(*) AS BIGINT) AS n_triangles "
        "FROM ht_m GROUP BY 1) "
        "SELECT s.node AS source, coalesce(d.degree, 0) AS degree, "
        "coalesce(t.n_triangles, 0) AS n_triangles FROM ht_s s "
        "LEFT JOIN ht_d d ON d.node = s.node "
        "LEFT JOIN ht_c t ON t.node = s.node ORDER BY 1")


def q_host_clustering(sf_dir: str):
    """LOCAL CLUSTERING COEFFICIENT per node — cc = 2·tri/(deg·(deg−1))
    as an EXACT e6 floor (integer both engines; deg < 2 defined 0) —
    the density summary on top of the triangle counts. Same scale
    split as the graph siblings: distributed distinct-edge combiner,
    config-sized node domain on the driver BY ASSUMPTION (web-scale
    swaps in the per-edge wedge join)."""
    t = q_host_triangles(sf_dir)
    deg = t["degree"].to_numpy(np.int64)
    tri = t["n_triangles"].to_numpy(np.int64)
    den = deg * (deg - 1)
    cc = np.where(den > 0, 2 * tri * 1_000_000 // np.maximum(den, 1), 0)
    out = t.copy()
    out["cc_e6"] = cc.astype(np.int64)
    return out


def _host_clustering_oracle_sql() -> str:
    base = _host_triangles_oracle_sql().replace("ht_", "hcc_")
    return (
        f"WITH hcc_base AS ({base}) "
        "SELECT source, degree, n_triangles, "
        "CASE WHEN degree < 2 THEN CAST(0 AS BIGINT) ELSE "
        "CAST((2 * n_triangles * 1000000) // (degree * (degree - 1)) "
        "AS BIGINT) END AS cc_e6 FROM hcc_base ORDER BY source")


def q_link_prediction(sf_dir: str):
    """LINK PREDICTION by common-neighbor Jaccard: for every
    NON-adjacent unordered pair (a < b) with ≥1 common neighbor,
    emit |N(a)∩N(b)| and the Jaccard score over neighbor sets as an
    exact e6 floor — cn·10⁶ // (deg_a + deg_b − cn) (non-adjacent, so
    the union has no shared-edge correction). The recommender-style
    "which hosts should link next" statistic; scores are candidate
    crawl edges. Uses its OWN short-step edge draw (ring step
    1 + h%4 under LP_SALT): the component siblings' step-4 draw makes
    every mod-4 residue class complete, which would leave no
    non-adjacent pair with a common neighbor (a vacuous gate).
    Driver computes from the dense S×S adjacency (config-sized node
    domain BY ASSUMPTION, as the graph siblings); web-scale is the
    standard neighbor-list self-join, which the SQL twin spells
    out."""
    from ..stages.sampling import row_hash
    ds = read_table(sf_dir, "documents", columns=["doc_id", "source"])
    parts = ds.map_batches(
        lambda t: pa.table({"source": pc.unique(t["source"])}),
        batch_format="pyarrow").to_pandas()
    nodes = sorted(set(parts["source"]))
    S = len(nodes)
    idx = {s: i for i, s in enumerate(nodes)}

    def edge_partials(batch: pa.Table) -> pa.Table:
        h = row_hash(batch["doc_id"], LP_SALT)
        step = 1 + (h % np.uint64(4)).astype(np.int64)
        src = batch["source"].to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(src)
        u_idx = np.fromiter((idx[u] for u in uniq), np.int64, len(uniq))
        si = u_idx[codes]
        di = (si + step) % S
        u = np.unique(si * S + di)
        return pa.table({"si": pa.array((u // S).astype(np.int64)),
                         "di": pa.array((u % S).astype(np.int64))})

    edges = (ds.map_batches(edge_partials, batch_format="pyarrow")
             .to_pandas().drop_duplicates())
    a = edges["si"].to_numpy(np.int64)
    b = edges["di"].to_numpy(np.int64)
    keep = a != b
    A = np.zeros((S, S), dtype=np.int64)
    A[a[keep], b[keep]] = 1
    A |= A.T
    deg = A.sum(axis=1)
    C = A @ A  # common-neighbor counts
    ia, ib = np.nonzero(np.triu(C, 1) * (1 - A))
    cn = C[ia, ib]
    union = deg[ia] + deg[ib] - cn
    out = pd.DataFrame({
        "src_a": [nodes[i] for i in ia],
        "src_b": [nodes[i] for i in ib],
        "n_common": cn.astype(np.int64),
        "jaccard_e6": (cn * 1_000_000 // union).astype(np.int64)})
    return out.sort_values(["src_a", "src_b"]).reset_index(drop=True)


def _link_prediction_oracle_sql() -> str:
    return _host_edges_ctes(
        "lp_", salt=LP_SALT,
        step_sql="1 + CAST(d.h % 4 AS BIGINT)") + (
        ", lp_cn AS (SELECT ea.src AS a, eb.src AS b, "
        "CAST(count(*) AS BIGINT) AS cn "
        "FROM lp_e ea JOIN lp_e eb ON eb.dst = ea.dst "
        "AND ea.src < eb.src GROUP BY 1, 2), "
        "lp_f AS (SELECT c.a, c.b, c.cn FROM lp_cn c "
        "LEFT JOIN lp_e j ON j.src = c.a AND j.dst = c.b "
        "WHERE j.src IS NULL) "
        "SELECT f.a AS src_a, f.b AS src_b, f.cn AS n_common, "
        "CAST((f.cn * 1000000) // (da.degree + db.degree - f.cn) "
        "AS BIGINT) AS jaccard_e6 FROM lp_f f "
        "JOIN lp_d da ON da.node = f.a "
        "JOIN lp_d db ON db.node = f.b ORDER BY 1, 2")


def q_text_normalize(sf_dir: str):
    """Canonical TEXT NORMALIZATION (the pre-dedup pass): lowercase +
    non-[a-z0-9] runs collapse to one space + trim; per doc the gate
    pins token count, normalized length, and the wrapping token-hash
    sum (content, not just geometry). Embarrassingly parallel
    map_batches — no shuffle. ORACLE-CHECKED: DuckDB applies the
    IDENTICAL RE2 replacement and recomputes token hashes via the
    shared recursive stable_hash64 mirror."""
    from ..stages.text import normalize_text_batch
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(normalize_text_batch, batch_format="pyarrow")


_NORM_EXPR = ("trim(regexp_replace(lower(coalesce(text, '')), "
              "'[^a-z0-9]+', ' ', 'g'))")


def _normalize_oracle_sql() -> str:
    from ..functions.sqlmirror import M64, stable_hash64_cte
    toks = ("list_filter(string_split(norm, ' '), __x -> __x <> '')")
    tok_with, tok_cte = stable_hash64_cte(
        f"SELECT DISTINCT unnest(list_filter(string_split({_NORM_EXPR}, "
        "' '), __x -> __x <> '')) AS s FROM documents",
        "s", {"h": 0}, prefix="nm_h")
    return tok_with + (
        f", nm_d AS (SELECT doc_id, {_NORM_EXPR} AS norm FROM documents), "
        f"nm_t AS (SELECT doc_id, unnest({toks}) AS tok FROM nm_d), "
        f"nm_j AS (SELECT t.doc_id, th.h FROM nm_t t "
        f"JOIN {tok_cte} th ON t.tok = th.s), "
        f"nm_s AS (SELECT doc_id, CAST(count(*) AS BIGINT) "
        "AS n_norm_tokens, "
        f"CAST(sum(CAST(h AS HUGEINT)) % {M64} AS UBIGINT) "
        "AS tokhash_sum FROM nm_j GROUP BY 1) "
        "SELECT d.doc_id, coalesce(s.n_norm_tokens, 0) AS n_norm_tokens, "
        "CAST(length(d.norm) AS BIGINT) AS norm_len, "
        "CAST(coalesce(s.tokhash_sum, 0) AS UBIGINT) AS tokhash_sum "
        "FROM nm_d d LEFT JOIN nm_s s USING (doc_id) ORDER BY 1")


def q_lm_bigram_score(sf_dir: str):
    """Bigram LANGUAGE-MODEL quality scoring (the KenLM-style corpus-
    probability filter, integer-exact): each doc scores
    sum over its bigram occurrences of floor(1e4 * c(w1,w2) / c(w1·)),
    where c(w1,w2) is the corpus bigram count and c(w1·) the prefix
    count — i.e. an e4-quantized empirical P(w2|w1) summed per doc.
    Docs with < 2 tokens have no bigrams and are excluded (both
    engines).

    Scale shape — ONE shuffle total: per-batch (doc, left, right, occ)
    combiner partials bucket by the PREFIX token, so the global pair
    count, the prefix count, and every doc's partial score for that
    prefix are all computed inside one bucket (two grouped transforms,
    no join); per-doc partials then merge through the standard
    bucketed partial reduce. The model table is never materialized on
    the driver."""
    from ..stages.sampling import doc_bigram_partial_counts
    p = shuffle_partitions()

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    partials = ds.map_batches(doc_bigram_partial_counts,
                              batch_format="pyarrow")
    def score_bucket(g: pd.DataFrame) -> pd.DataFrame:
        pair_n = g.groupby(["left_tok", "right_tok"], sort=False)["occ"] \
            .transform("sum")
        pre_n = g.groupby("left_tok", sort=False)["occ"].transform("sum")
        score = (10000 * pair_n) // pre_n
        part = pd.DataFrame({"doc_id": g["doc_id"].astype("int64"),
                             "n_bigrams": g["occ"].astype("int64"),
                             "lm_score": (g["occ"] * score).astype("int64")})
        return part.groupby("doc_id", as_index=False).sum()

    parts = map_buckets(partials, ["left_tok"], score_bucket, 2 * p)
    out = merge_partials_ray(parts, ["doc_id"],
                             {"n_bigrams": "sum",
                              "lm_score": "sum"}).to_pandas()
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def _lm_bigram_oracle_sql() -> str:
    from ..functions.sqlmirror import tokens_sql
    toks = tokens_sql("coalesce(text,'')")
    return (
        f"WITH lm_t AS (SELECT doc_id, {toks} AS t FROM documents), "
        "lm_p AS (SELECT doc_id, t[i] AS l, t[i + 1] AS r FROM "
        "(SELECT doc_id, t, unnest(range(1, len(t))) AS i FROM lm_t "
        "WHERE len(t) >= 2)), "
        "lm_bg AS (SELECT l, r, CAST(count(*) AS BIGINT) AS n_bg "
        "FROM lm_p GROUP BY 1, 2), "
        "lm_pre AS (SELECT l, CAST(count(*) AS BIGINT) AS c_pre "
        "FROM lm_p GROUP BY 1), "
        "lm_sc AS (SELECT l, r, CAST((10000 * n_bg) // c_pre AS BIGINT) "
        "AS score FROM lm_bg JOIN lm_pre USING (l)), "
        "lm_d AS (SELECT doc_id, l, r, CAST(count(*) AS BIGINT) AS occ "
        "FROM lm_p GROUP BY 1, 2, 3) "
        "SELECT doc_id, CAST(sum(occ) AS BIGINT) AS n_bigrams, "
        "CAST(sum(occ * score) AS BIGINT) AS lm_score "
        "FROM lm_d JOIN lm_sc ON lm_d.l = lm_sc.l AND lm_d.r = lm_sc.r "
        "GROUP BY 1 ORDER BY 1")


COLLOC_MIN_COUNT = 5


def q_collocation_stats(sf_dir: str):
    """COLLOCATION EXTRACTION (the PMI/likelihood-ratio sufficient
    statistics): for every adjacent token pair occurring >=
    COLLOC_MIN_COUNT times in the corpus, emit the exact integers PMI
    is computed from — c_ab (pair count), c_a / c_b (unigram counts) —
    plus cond_ab_e6 = floor(1e6 * c_ab / c_a), the e6-exact P(b|a).
    PMI itself is log(c_ab * N^2 / (NB * c_a * c_b)), a float of these
    integers; gating on the integer sufficient statistics avoids both
    engine-vs-SQL log divergence and the N^2 int64 overflow a direct
    e6 lift would hit at web-corpus N.

    Scale shape: pair and unigram counts are per-batch combiner
    partials merged in Ray (the bpe/vocab combiners); attaching c_a
    then c_b to each surviving pair is TWO chained tagged-union
    bucketed hash joins keyed on the token — the vocabulary is
    data-sized (grows with the corpus), so neither side is broadcast.
    The >= COLLOC_MIN_COUNT filter runs before the first join, so the
    joins move only the collocation-candidate pairs."""
    ds = read_table(sf_dir, "documents", columns=["text"])
    pair = _pair_counts(ds)
    # vocab-sized; feeds BOTH joins — materialize so the corpus
    # combiner runs once, not once per join
    uni = _token_counts(ds).materialize()

    def pair_side(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.greater_equal(batch["n"], COLLOC_MIN_COUNT))
        return pa.table({"key": b["left_tok"], "other": b["right_tok"],
                         "c_ab": pc.cast(b["n"], pa.int64()),
                         "cnt": pa.nulls(b.num_rows, pa.int64()),
                         "side": pa.array(["p"] * b.num_rows)})

    def uni_side(with_c_first: bool):
        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            cols = {"key": batch["token"],
                    "other": pa.nulls(n, pa.string()),
                    "c_ab": pa.nulls(n, pa.int64()),
                    "cnt": pc.cast(batch["n"], pa.int64()),
                    "side": pa.array(["u"] * n)}
            if with_c_first:
                cols["c_first"] = pa.nulls(n, pa.int64())
            return pa.table(cols)
        return fn

    def attach(out_col: str, carry: list[str]):
        def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
            u = g[g["side"] == "u"]
            p = g[g["side"] == "p"].copy()
            lut = pd.Series(u["cnt"].to_numpy(),
                            index=u["key"].to_numpy())
            p[out_col] = p["key"].map(lut).astype("int64")
            # the unioned null-padded columns promote to float64 in
            # pandas; restore exact integer dtypes before the next hop
            for c in ("c_ab", *carry):
                p[c] = p[c].astype("int64")
            return p[["key", "other", "c_ab", out_col] +
                     [c for c in carry if c in p.columns]]
        return join_bucket

    b = 2 * shuffle_partitions()

    # join 1: attach c_a, keyed on the left token
    j1 = map_buckets(
        pair.map_batches(pair_side, batch_format="pyarrow")
        .union(uni.map_batches(uni_side(False), batch_format="pyarrow")),
        ["key"], attach("c_first", []), b)

    # re-key on the right token for join 2 (sides realigned)
    def rekey(batch: pa.Table) -> pa.Table:
        return pa.table({"key": batch["other"], "other": batch["key"],
                         "c_ab": batch["c_ab"],
                         "cnt": pa.nulls(batch.num_rows, pa.int64()),
                         "side": pa.array(["p"] * batch.num_rows),
                         "c_first": batch["c_first"]})

    j2 = map_buckets(
        j1.map_batches(rekey, batch_format="pyarrow")
        .union(uni.map_batches(uni_side(True), batch_format="pyarrow")),
        ["key"], attach("c_second", ["c_first"]), b)

    def finish(batch: pa.Table) -> pa.Table:
        c_ab = batch["c_ab"].to_numpy(zero_copy_only=False)
        c_a = batch["c_first"].to_numpy(zero_copy_only=False)
        return pa.table({
            "token_a": batch["other"], "token_b": batch["key"],
            "c_ab": pa.array(c_ab, pa.int64()),
            "c_a": pa.array(c_a, pa.int64()),
            "c_b": pc.cast(batch["c_second"], pa.int64()),
            "cond_ab_e6": pa.array(c_ab * 1_000_000 // c_a, pa.int64())})

    return j2.map_batches(finish, batch_format="pyarrow")


def _collocation_oracle_sql() -> str:
    from ..functions.sqlmirror import tokens_sql
    toks = tokens_sql("coalesce(text,'')")
    return (
        f"WITH cl_t AS (SELECT {toks} AS t FROM documents), "
        "cl_p AS (SELECT t[i] AS token_a, t[i + 1] AS token_b FROM "
        "(SELECT t, unnest(range(1, len(t))) AS i FROM cl_t "
        "WHERE len(t) >= 2)), "
        "cl_ab AS (SELECT token_a, token_b, "
        "CAST(count(*) AS BIGINT) AS c_ab FROM cl_p GROUP BY 1, 2 "
        f"HAVING count(*) >= {COLLOC_MIN_COUNT}), "
        "cl_u AS (SELECT u AS token, CAST(count(*) AS BIGINT) AS c "
        "FROM (SELECT unnest(t) AS u FROM cl_t) GROUP BY 1) "
        "SELECT token_a, token_b, c_ab, ua.c AS c_a, ub.c AS c_b, "
        "CAST((1000000 * c_ab) // ua.c AS BIGINT) AS cond_ab_e6 "
        "FROM cl_ab JOIN cl_u ua ON ua.token = token_a "
        "JOIN cl_u ub ON ub.token = token_b ORDER BY 1, 2")


ER_JACCARD_E6 = 800_000  # entity-resolution match threshold


def q_entity_resolution(sf_dir: str, block: int = 4096):
    """END-TO-END ENTITY RESOLUTION (blocking → similarity
    verification → clustering → canonicalization), the record-linkage
    pipeline composed from this engine's primitives: (1) BLOCKING by
    sorted neighborhood — global (n_chars, doc_id) rank via the
    count-table trick, candidates = rank distance <= SNB_WINDOW; (2)
    VERIFICATION — exact distinct-token-set Jaccard >= 0.8, computed
    IN-BLOCK: each rank row carries its doc's distinct token-hash set
    through the same halo-block shuffle, so no candidate list or
    token map ever sits on the driver; (3) CLUSTERING — union-find
    over the match edges (output-sized, the minhash_remove
    convention); (4) CANONICAL record = min doc_id per cluster.
    Emits (doc_id, canon_id, cluster_size) for every clustered doc.

    ORACLE: rank window self-join + list_intersect Jaccard + WITH
    RECURSIVE transitive closure in DuckDB (equal-string ⇔ equal-hash
    convention for the token sets)."""
    import ray as _ray

    from ..functions.hashing import stable_hash64_np
    from ..stages.joins import union_find_components
    p = shuffle_partitions()

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text",
                                                    "n_chars"])

    def feats(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        toksets = []
        for t in batch["text"].to_pylist():
            toks = np.unique(np.asarray((t or "").split(), dtype=object))
            toksets.append(np.sort(
                stable_hash64_np(toks).view(np.int64)))
        return pa.table({
            "doc_id": pa.array(ids),
            "n_chars": pc.cast(batch["n_chars"], pa.int64()),
            "toks": pa.array([s.tolist() for s in toksets],
                             pa.list_(pa.int64()))})

    fds = docs.map_batches(feats, batch_format="pyarrow")

    # rank offsets need ONLY n_chars — a separate column-pruned read,
    # so the tokenizing feats pass runs exactly once (in the rank
    # shuffle below), never twice
    counts = aggregate(read_table(sf_dir, "documents", columns=["n_chars"]),
                       ["n_chars"], {"cnt": ("n_chars", "count")}) \
        .sort_values("n_chars").reset_index(drop=True)
    vals = counts["n_chars"].to_numpy().astype(np.int64)
    base = np.concatenate(
        [[0], counts["cnt"].cumsum().to_numpy()[:-1]]).astype(np.int64)
    base_ref = _ray.put((vals, base))

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        import ray as _rayw
        bvals, bbase = _rayw.get(base_ref)
        g = g.sort_values(["n_chars", "doc_id"]).reset_index(drop=True)
        v = g["n_chars"].to_numpy().astype(np.int64)
        first = np.zeros(len(g), dtype=bool)
        first[0] = True
        first[1:] = v[1:] != v[:-1]
        starts = np.where(first, np.arange(len(g)), 0)
        np.maximum.accumulate(starts, out=starts)
        rank = bbase[np.searchsorted(bvals, v)] + \
            (np.arange(len(g)) - starts)
        return pd.DataFrame({"doc_id": g["doc_id"].astype("int64"),
                             "rank": rank.astype(np.int64),
                             "toks": g["toks"]})

    ranked = map_buckets(fds, ["n_chars"], rank_bucket, 2 * p)

    def to_blocks(batch: pa.Table) -> pa.Table:
        r = batch["rank"].to_numpy(zero_copy_only=False)
        blk = r // block
        halo = (r % block < SNB_WINDOW) & (blk > 0)
        idx = np.concatenate([np.arange(len(r)),
                              np.nonzero(halo)[0]])
        taken = batch.take(pa.array(idx, pa.int64()))
        return pa.table({
            "blk": pa.array(np.concatenate([blk, blk[halo] - 1])),
            "rank": taken["rank"], "doc_id": taken["doc_id"],
            "toks": taken["toks"],
            "home": pa.array(np.concatenate(
                [np.ones(len(r), bool),
                 np.zeros(int(halo.sum()), bool)]))})

    def match_in_block(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("rank").reset_index(drop=True)
        r = g["rank"].to_numpy()
        ids = g["doc_id"].to_numpy()
        home = g["home"].to_numpy()
        toks = [np.asarray(t, dtype=np.int64)
                for t in g["toks"].tolist()]
        out = []
        for d in range(1, SNB_WINDOW + 1):
            j = np.searchsorted(r, r + d)
            ok = j < len(r)
            ok[ok] &= r[j[ok]] == r[ok] + d
            ok &= home
            for i in np.nonzero(ok)[0]:
                sa, sb = toks[i], toks[j[i]]
                inter = np.intersect1d(sa, sb,
                                       assume_unique=True).size
                union = sa.size + sb.size - inter
                if union and inter * 1_000_000 // union >= ER_JACCARD_E6:
                    out.append((ids[i], ids[j[i]]))
        return pd.DataFrame(out, columns=["a", "b"]).astype("int64")

    n_blocks = max(1, -(-int(counts["cnt"].sum()) // block))
    edges = map_buckets(ranked.map_batches(to_blocks, batch_format="pyarrow"),
                        "blk", match_in_block, n_blocks).to_pandas()
    if edges.empty:
        return pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                             "canon_id": pd.Series([], dtype=np.int64),
                             "cluster_size": pd.Series([],
                                                       dtype=np.int64)})
    roots = union_find_components(
        (int(a), int(b)) for a, b in edges[["a", "b"]].values)
    canon = {d: r for d, r in
             ((d, roots[d]) for d in roots)}
    from collections import Counter
    sizes = Counter(canon.values())
    res = pd.DataFrame(
        [(d, c, sizes[c]) for d, c in sorted(canon.items())],
        columns=["doc_id", "canon_id", "cluster_size"])
    for c in res.columns:
        res[c] = res[c].astype("int64")
    return res


def _entity_resolution_oracle_sql() -> str:
    from ..functions.sqlmirror import tokens_sql
    toks = tokens_sql("coalesce(text,'')")
    return (
        f"WITH RECURSIVE er_r AS (SELECT doc_id, n_chars, "
        f"list_distinct({toks}) AS t, row_number() OVER "
        "(ORDER BY n_chars, doc_id) - 1 AS rk FROM documents), "
        "er_e AS (SELECT a.doc_id AS a, b.doc_id AS b FROM er_r a "
        "JOIN er_r b ON b.rk > a.rk AND "
        f"b.rk <= a.rk + {SNB_WINDOW} "
        "AND len(a.t) + len(b.t) - len(list_intersect(a.t, b.t)) > 0 "
        "AND len(list_intersect(a.t, b.t)) * 1000000 // "
        "(len(a.t) + len(b.t) - len(list_intersect(a.t, b.t))) "
        f">= {ER_JACCARD_E6}), "
        "er_d AS (SELECT a, b FROM er_e UNION "
        "SELECT b, a FROM er_e), "
        "er_n AS (SELECT a AS node FROM er_e UNION "
        "SELECT b FROM er_e) "
        # set-at-a-time (semi-naive) closure: ONE recursive relation
        # for all nodes — orders of magnitude faster than a correlated
        # per-node recursion, though still O(Σ component²) pairs
        ", er_reach(n, x) AS (SELECT node, node "
        "FROM er_n UNION SELECT r.n, d.b FROM er_reach r "
        "JOIN er_d d ON d.a = r.x), "
        "er_c AS (SELECT n AS node, min(x) AS canon FROM er_reach "
        "GROUP BY 1) "
        "SELECT CAST(node AS BIGINT) AS doc_id, "
        "CAST(canon AS BIGINT) AS canon_id, "
        "CAST(count(*) OVER (PARTITION BY canon) AS BIGINT) "
        "AS cluster_size FROM er_c ORDER BY 1")


RRF_K = 60           # standard reciprocal-rank-fusion damping constant
RRF_TOPK = 20


def q_rank_fusion(sf_dir: str):
    """RECIPROCAL RANK FUSION (Cormack et al.) of two retrieval-style
    rankings — the standard way to combine heterogeneous relevance
    signals without score calibration. Ranking 1 orders docs by
    (n_chars DESC, doc_id), ranking 2 by (whitespace-token count DESC,
    doc_id); each doc scores rrf_e9 = floor(1e9/(60+r1)) +
    floor(1e9/(60+r2)) (integer-exact — the float 1/(k+r) sum is not
    gate-safe), and the top RRF_TOPK fused docs are returned with both
    ranks.

    Scale shape: each global DESC rank is computed WITHOUT a global
    sort via the count-table trick (per-value counts are combiner
    partials; the value domains — doc length, token count — are
    config-sized; driver base offsets broadcast once); the two rank
    streams meet in a doc_id-bucketed tagged-union join, and the fused
    top-k is a per-bucket partial top-k (a doc's score is bucket-local,
    so the global top-k is contained in the union of bucket top-ks)."""
    import ray as _ray

    from ..stages.text import _ws_token_counts
    p = shuffle_partitions()

    docs = read_table(sf_dir, "documents",
                      columns=["doc_id", "text", "n_chars"])

    def feats(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.cast(batch["doc_id"], pa.int64()),
            "n_chars": pc.cast(batch["n_chars"], pa.int64()),
            "n_toks": pa.array(_ws_token_counts(
                pc.fill_null(batch["text"], "")))})

    # materialize the per-doc feature rows (3 ints/doc): four
    # consumers below (two count scans, two rank passes) would
    # otherwise each re-read and re-tokenize the corpus. SPILL
    # ASSUMPTION: the pin is rows x 3 ints (~24 B/doc — 0.2% of a
    # 10 KB doc), object-store-resident and disk-spillable; never a
    # driver-heap structure
    fds = docs.map_batches(feats, batch_format="pyarrow").materialize()

    def desc_ranks(col: str) -> "object":
        """(doc_id, rank) with rank = 1-based position in the global
        (col DESC, doc_id ASC) order; count-table offsets, one
        col-bucketed shuffle."""
        counts = aggregate(fds, [col], {"cnt": (col, "count")}) \
            .sort_values(col).reset_index(drop=True)
        vals = counts[col].to_numpy().astype(np.int64)
        c = counts["cnt"].to_numpy().astype(np.int64)
        # docs with value strictly GREATER rank earlier (DESC order)
        greater = np.concatenate([c[1:][::-1].cumsum()[::-1], [0]])
        ref = _ray.put((vals, greater))

        def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
            import ray as _rayw
            bvals, bgreater = _rayw.get(ref)
            g = g.sort_values([col, "doc_id"]).reset_index(drop=True)
            v = g[col].to_numpy().astype(np.int64)
            first = np.zeros(len(g), dtype=bool)
            first[0] = True
            first[1:] = v[1:] != v[:-1]
            starts = np.where(first, np.arange(len(g)), 0)
            np.maximum.accumulate(starts, out=starts)
            pos = np.arange(len(g)) - starts
            rank = bgreater[np.searchsorted(bvals, v)] + pos + 1
            return pd.DataFrame({"doc_id": g["doc_id"].astype("int64"),
                                 "rank": rank.astype(np.int64)})

        return map_buckets(fds, [col], rank_bucket, 2 * p)

    r1 = desc_ranks("n_chars")
    r2 = desc_ranks("n_toks")

    def side(tagval: str):
        def fn(batch: pa.Table) -> pa.Table:
            return pa.table({"doc_id": batch["doc_id"],
                             "rank": batch["rank"],
                             "side": pa.array([tagval] * batch.num_rows)})
        return fn

    def fuse_bucket(g: pd.DataFrame) -> pd.DataFrame:
        a = g[g["side"] == "1"].set_index("doc_id")["rank"]
        b = g[g["side"] == "2"].set_index("doc_id")["rank"]
        j = pd.DataFrame({"r1": a, "r2": b}).reset_index()
        rr1 = j["r1"].to_numpy().astype(np.int64)
        rr2 = j["r2"].to_numpy().astype(np.int64)
        j["rrf_e9"] = (1_000_000_000 // (RRF_K + rr1)
                       + 1_000_000_000 // (RRF_K + rr2))
        for c in j.columns:
            j[c] = j[c].astype("int64")
        # partial top-k: a doc's fused score is bucket-local
        return (j.sort_values(["rrf_e9", "doc_id"],
                              ascending=[False, True]).head(RRF_TOPK)
                [["doc_id", "r1", "r2", "rrf_e9"]])

    fused = map_buckets(
        r1.map_batches(side("1"), batch_format="pyarrow")
        .union(r2.map_batches(side("2"), batch_format="pyarrow")),
        ["doc_id"], fuse_bucket, 2 * p)
    out = fused.to_pandas()
    return (out.sort_values(["rrf_e9", "doc_id"],
                            ascending=[False, True])
            .head(RRF_TOPK).reset_index(drop=True))


def _rank_fusion_oracle_sql() -> str:
    from ..functions.sqlmirror import tokens_sql
    toks = tokens_sql("coalesce(text,'')")
    return (
        f"WITH rf_t AS (SELECT doc_id, n_chars, len({toks}) AS n_toks "
        "FROM documents), "
        "rf_1 AS (SELECT doc_id, row_number() OVER "
        "(ORDER BY n_chars DESC, doc_id) AS r1 FROM rf_t), "
        "rf_2 AS (SELECT doc_id, row_number() OVER "
        "(ORDER BY n_toks DESC, doc_id) AS r2 FROM rf_t) "
        "SELECT rf_1.doc_id AS doc_id, CAST(r1 AS BIGINT) AS r1, "
        "CAST(r2 AS BIGINT) AS r2, "
        f"CAST(1000000000 // ({RRF_K} + r1) + "
        f"1000000000 // ({RRF_K} + r2) AS BIGINT) AS rrf_e9 "
        "FROM rf_1 JOIN rf_2 ON rf_1.doc_id = rf_2.doc_id "
        f"ORDER BY rrf_e9 DESC, doc_id LIMIT {RRF_TOPK}")


SNB_WINDOW = 3       # compare each record with the next w in sort order
SNB_BLOCK = 4096     # ranks per comparison block (halo width = w)


def q_sorted_neighborhood_pairs(sf_dir: str,
                                block: int = SNB_BLOCK):
    """SORTED-NEIGHBORHOOD blocking (the classic record-linkage /
    dedup candidate generator, Hernandez & Stolfo): order all records
    by a sort key — here (n_chars, doc_id) — and emit a candidate
    pair for every two records at most SNB_WINDOW apart in that
    order. Output: (doc_a, doc_b, rank_diff, chars_diff) with doc_a
    the lower-ranked record.

    Distributed WITHOUT a global sort: (1) per-value counts of the
    sort key's first component (combiner; the doc-length domain is
    config-sized) give exact global base offsets on the driver —
    the length_bins trick; (2) one n_chars-bucketed pass assigns each
    row its global rank (base + within-value doc_id position); (3)
    rows map to comparison block rank // SNB_BLOCK, and the first
    SNB_WINDOW rows of each block are REPLICATED to the previous
    block (halo exchange), so every window lies wholly inside one
    block; (4) per-block vectorized searchsorted emits each pair
    exactly once, anchored at its home-block lower rank. Exchange =
    N + N·w/B rows; never a global all-to-all sort."""
    import ray as _ray

    p = shuffle_partitions()

    docs = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])

    counts = aggregate(docs, ["n_chars"], {"cnt": ("n_chars", "count")}) \
        .sort_values("n_chars").reset_index(drop=True)
    vals = counts["n_chars"].to_numpy().astype(np.int64)
    base = np.concatenate(
        [[0], counts["cnt"].cumsum().to_numpy()[:-1]]).astype(np.int64)
    base_ref = _ray.put((vals, base))

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        import ray as _rayw
        bvals, bbase = _rayw.get(base_ref)
        g = g.sort_values(["n_chars", "doc_id"]).reset_index(drop=True)
        v = g["n_chars"].to_numpy().astype(np.int64)
        # within-value position: arange minus each value-run's start
        first = np.zeros(len(g), dtype=bool)
        first[0] = True
        first[1:] = v[1:] != v[:-1]
        starts = np.where(first, np.arange(len(g)), 0)
        np.maximum.accumulate(starts, out=starts)
        pos = np.arange(len(g)) - starts
        rank = bbase[np.searchsorted(bvals, v)] + pos
        return pd.DataFrame({"doc_id": g["doc_id"].astype("int64"),
                             "n_chars": v,
                             "rank": rank.astype(np.int64)})

    ranked = map_buckets(docs, ["n_chars"], rank_bucket, 2 * p)

    def to_blocks(batch: pa.Table) -> pa.Table:
        r = batch["rank"].to_numpy(zero_copy_only=False)
        blk = r // block
        halo = (r % block < SNB_WINDOW) & (blk > 0)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        nc = batch["n_chars"].to_numpy(zero_copy_only=False)
        return pa.table({
            "blk": pa.array(np.concatenate([blk, blk[halo] - 1])),
            "rank": pa.array(np.concatenate([r, r[halo]])),
            "doc_id": pa.array(np.concatenate([ids, ids[halo]])),
            "n_chars": pa.array(np.concatenate([nc, nc[halo]])),
            "home": pa.array(np.concatenate(
                [np.ones(len(r), bool), np.zeros(int(halo.sum()), bool)]))})

    def pairs_in_block(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("rank").reset_index(drop=True)
        r = g["rank"].to_numpy()
        ids = g["doc_id"].to_numpy()
        nc = g["n_chars"].to_numpy()
        home = g["home"].to_numpy()
        frames = []
        for d in range(1, SNB_WINDOW + 1):
            j = np.searchsorted(r, r + d)
            ok = (j < len(r))
            ok[ok] &= r[j[ok]] == r[ok] + d
            # anchor must be a home row of this block (halo rows are
            # partners only — their pairs belong to the next block)
            ok &= home
            frames.append(pd.DataFrame({
                "doc_a": ids[ok], "doc_b": ids[j[ok]],
                "rank_diff": np.int64(d),
                "chars_diff": np.abs(nc[j[ok]] - nc[ok])}))
        out = pd.concat(frames, ignore_index=True)
        for c in out.columns:
            out[c] = out[c].astype("int64")
        return out

    n_blocks = max(1, -(-int(counts["cnt"].sum()) // block))
    return map_buckets(ranked.map_batches(to_blocks, batch_format="pyarrow"),
                       "blk", pairs_in_block, n_blocks)


def _snb_oracle_sql() -> str:
    return (
        "WITH snb_r AS (SELECT doc_id, n_chars, row_number() OVER "
        "(ORDER BY n_chars, doc_id) - 1 AS rk FROM documents) "
        "SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, "
        "CAST(b.rk - a.rk AS BIGINT) AS rank_diff, "
        "CAST(abs(b.n_chars - a.n_chars) AS BIGINT) AS chars_diff "
        "FROM snb_r a JOIN snb_r b ON b.rk > a.rk AND "
        f"b.rk <= a.rk + {SNB_WINDOW} ORDER BY 1, 2")


def q_typo_token_pairs(sf_dir: str):
    """EDIT-DISTANCE-1 token pairs via the SymSpell deletion index —
    the typo-clustering / OOV-correction primitive: two tokens are
    candidates iff they share a deletion variant (delete ≤1 char from
    either), then exact edit distance 1 is verified. The synthetic
    corpus vocabulary contains no typos, so deterministic variants
    are INJECTED first: every vocab token with
    stable_hash64(token) % 3 == 0 and length ≥ 3 contributes
    'q'+tok[1:] ('z'+... if it already starts with q) at count 1 —
    the same draw in both engines, the redact_pii injection pattern.

    Scale shape: the DATA-sized pass is the distributed vocab count;
    everything after runs on the VOCAB domain (documented assumption —
    deletion-variant rows are vocab×len-sized, bucketed by variant so
    candidate groups are tiny, pair dedup + DP verification are
    candidate-output-sized). The SQL twin verifies with DuckDB's
    levenshtein over the mirrored vocabulary — quadratic, valid at
    gate scale only (the engine side is the scale path)."""
    from ..functions.hashing import stable_hash64_np

    ds = read_table(sf_dir, "documents", columns=["text"])
    vocab = _token_counts(ds)

    def inject(batch: pa.Table) -> pa.Table:
        toks = batch["token"].to_numpy(zero_copy_only=False)
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = stable_hash64_np(toks)
        pick = (h % np.uint64(3) == 0) & \
            (np.char.str_len(toks.astype(str)) >= 3)
        var = np.array([("z" + t[1:]) if t[0] == "q" else ("q" + t[1:])
                        for t in toks[pick]], dtype=object)
        return pa.table({
            "token": pa.array(np.concatenate([toks, var])),
            "n": pa.array(np.concatenate(
                [n, np.ones(len(var), np.int64)]))})

    # re-merge (an injected variant may collide with a real token)
    vocab = merge_partials_ray(
        vocab.map_batches(inject, batch_format="pyarrow"),
        ["token"], {"n": "sum"})

    def variants(batch: pa.Table) -> pa.Table:
        toks = batch["token"].to_numpy(zero_copy_only=False)
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        keys, owner = [], []
        for i, t in enumerate(toks):  # VOCAB-domain loop (documented)
            keys.append(t)
            owner.append(i)
            seen = {t}
            for p in range(len(t)):
                d = t[:p] + t[p + 1:]
                if d not in seen:
                    seen.add(d)
                    keys.append(d)
                    owner.append(i)
        owner = np.asarray(owner, np.int64)
        return pa.table({"vkey": pa.array(keys, pa.string()),
                         "token": pa.array(toks[owner]),
                         "n": pa.array(n[owner])})

    def pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        m = g.merge(g, on="vkey", suffixes=("_a", "_b"))
        m = m[m["token_a"] < m["token_b"]]
        return m[["token_a", "token_b", "n_a", "n_b"]].drop_duplicates(
            ["token_a", "token_b"])

    def _ed1(a: str, b: str) -> bool:
        if len(a) == len(b):
            return sum(x != y for x, y in zip(a, b)) == 1
        if len(a) > len(b):
            a, b = b, a
        if len(b) - len(a) != 1:
            return False
        i = 0
        while i < len(a) and a[i] == b[i]:
            i += 1
        return a[i:] == b[i + 1:]

    def verify_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["token_a", "token_b"])
        keep = [_ed1(a, b) for a, b in  # candidate-output-sized
                zip(g["token_a"], g["token_b"])]
        out = g[np.asarray(keep, bool)].rename(
            columns={"token_a": "tok_a", "token_b": "tok_b"})
        return out[["tok_a", "tok_b", "n_a", "n_b"]]

    cands = map_buckets(vocab.map_batches(variants, batch_format="pyarrow"),
                        ["vkey"], pairs_bucket, 2 * shuffle_partitions())
    out = (map_buckets(cands, ["token_a", "token_b"], verify_bucket)
           .to_pandas())
    out["n_a"] = out["n_a"].astype("int64")
    out["n_b"] = out["n_b"].astype("int64")
    return out.sort_values(["tok_a", "tok_b"]).reset_index(drop=True)


def _typo_pairs_oracle_sql() -> str:
    from ..functions.sqlmirror import stable_hash64_cte, tokens_sql
    toks = tokens_sql("coalesce(text,'')")
    base = (f"SELECT tok AS s, CAST(count(*) AS BIGINT) AS n FROM "
            f"(SELECT unnest({toks}) AS tok FROM documents) GROUP BY 1")
    w, cte = stable_hash64_cte(base, "s", {"h": 0}, carry_cols=("n",),
                               prefix="tp_h")
    return w + (
        f", tp_inj AS (SELECT CASE WHEN substr(s, 1, 1) = 'q' "
        "THEN 'z' || substr(s, 2) ELSE 'q' || substr(s, 2) END AS token, "
        f"CAST(1 AS BIGINT) AS n FROM {cte} "
        "WHERE h % 3 = 0 AND length(s) >= 3), "
        f"tp_v AS (SELECT token, CAST(sum(n) AS BIGINT) AS n FROM "
        f"(SELECT s AS token, n FROM {cte} "
        "UNION ALL SELECT token, n FROM tp_inj) GROUP BY 1) "
        "SELECT a.token AS tok_a, b.token AS tok_b, a.n AS n_a, "
        "b.n AS n_b FROM tp_v a JOIN tp_v b ON a.token < b.token "
        "AND levenshtein(a.token, b.token) = 1 ORDER BY 1, 2")


def q_dedup_minhash_pairs(sf_dir: str):
    """MinHash+LSH near-dup verified pairs. ORACLE-CHECKED end to end:
    DuckDB re-runs the WHOLE pipeline — token hashes via the shared
    recursive-CTE mirror, shingle chains, the 64 permutation minima
    against the same (a, b) draw, band-tuple candidate join, exact
    integer Jaccard — so the hash gate verifies banding, candidate
    generation AND verification, not just the final pair set
    (_minhash_pairs_oracle_sql)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.map_batches(
        lambda t: pa.table({"doc_id": pa.array([str(x) for x in t["doc_id"].to_pylist()]),
                            "text": t["text"]}), batch_format="pyarrow")
    # max_bucket=None: the gate semantics are exact "shared >= 1 band"
    # (the SQL mirror's self-join has no cap); the capped form stays
    # the documented hot-bucket option at scale
    out = dd.minhash_dedup_pairs(ds, bands=16, rows_per_band=4, threshold=0.4,
                                 shingle_k=3, max_bucket=None)
    return out[["a", "b", "jaccard_e6"]]


def q_dedup_minhash_remove(sf_dir: str):
    """Near-dup REMOVAL end to end, ORACLE-CHECKED: MinHash pairs →
    union-find components → distributed anti-join keeps one
    representative per cluster; DuckDB mirrors the whole chain incl.
    components via a recursive transitive-closure CTE
    (_minhash_remove_oracle_sql). Returns the kept doc ids."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.map_batches(
        lambda t: pa.table({"doc_id": pa.array([str(x) for x in t["doc_id"].to_pylist()]),
                            "text": t["text"]}), batch_format="pyarrow")
    kept = dd.minhash_dedup_remove(ds, bands=16, rows_per_band=4,
                                   threshold=0.4, shingle_k=3,
                                   max_bucket=None)
    out = kept.map_batches(lambda t: t.select(["doc_id"]),
                           batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_dedup_simhash(sf_dir: str):
    """SimHash signatures. ORACLE-CHECKED: DuckDB recomputes the
    64-bit signature per doc — distinct-token stable_hash64 via the
    shared recursive-CTE mirror, count-weighted per-bit majority over
    an unnested 64-bit lattice, UBIGINT bit reassembly — so the hash
    gate verifies every signature bit-for-bit."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(dd.simhash_batch, fn_kwargs={"seed": 42},
                          batch_format="pyarrow")


def q_dedup_simhash_pairs(sf_dir: str):
    """SimHash hamming≤6 near-dup pairs via 7-block pigeonhole LSH —
    COMPLETE for ≤6 by construction, so ORACLE-CHECKED against a
    DuckDB bit_count(xor) self-join over the mirrored signatures."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.map_batches(
        lambda t: pa.table({"doc_id": pa.array([str(x) for x in t["doc_id"].to_pylist()]),
                            "text": t["text"]}), batch_format="pyarrow")
    return dd.simhash_near_pairs(ds, seed=42, max_hamming=6)


def q_dedup_embedding_pairs(sf_dir: str):
    """Embedding-cosine near-dup pairs via multi-table hyperplane LSH,
    ORACLE-CHECKED (_embedding_pairs_oracle_sql re-runs hyperplane
    projection, bucketing, candidate join and cosine verification in
    DuckDB) — the SCALE path: bucketed in-group pairwise, never a
    whole-table n² matmul. bits=4 x tables=12 gives ~0.9 recall at this
    threshold (the brute lsh_bits=0 path is kept as the verification
    oracle in tests/test_dedup.py).

    The synthetic embeddings are random (no true near-dups), so the
    threshold is set at the top of the cosine distribution to return a
    small non-empty candidate set — exercising the full pipeline."""
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = dd.embedding_near_dup_pairs(ds, threshold=0.45, lsh_bits=4,
                                      tables=12, seed=42)
    # pairs only: the PAIR SET is float-robust cross-engine (flips
    # need a projection/cosine within ~1e-15 of a boundary); the
    # rounded cosine VALUE is not — see _embedding_pairs_oracle_sql
    return out[["a", "b"]]


NGRAM_MAX_DF = 1024  # df-bound for the char-5-gram pair join (see below)


def q_dedup_ngram_pairs(sf_dir: str):
    """Character 5-gram Jaccard near-dup pairs via the distributed
    shingle inverted index (jaccard_exact_pairs_ds, kind='char') —
    ORACLE-CHECKED against a DuckDB substring self-join. r05: runs in
    DF-BOUNDED mode (max_df=1024, r04 verdict item 3): shingles
    shared by more than 1024 docs leave candidate generation and
    intersection counts (set sizes stay full), capping per-shingle
    pair emission at 1024·1023/2 rows. The sf0.1 word-salad corpus
    (5000 docs, only 2041 distinct 5-grams) put 622M of its 769M
    co-occurrence rows in 151 df>1024 stopword shingles — the r04
    sweep's one disk blow-up; the cap removes exactly that tail
    (~146M rows remain, 244 of the 1113 uncapped pairs survive) and
    is a NO-OP at df<=corpus scales (sf0.01's 500 docs can't exceed
    it, so the driver-graded result is unchanged). Mirrored
    term-for-term in the oracle's HAVING filter. The MinHash-LSH char
    variant remains the unbounded 100-TB scale path
    (``minhash_dedup_pairs(kind='char')``; recall vs this baseline
    pinned in test_dedup)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = dd.jaccard_exact_pairs_ds(ds, shingle_k=5, kind="char",
                                    threshold_e6=300_000,
                                    max_df=NGRAM_MAX_DF).to_pandas()
    if out.empty:  # schema-stable empty (a hot-only corpus)
        out = pd.DataFrame({"a": pd.Series([], dtype="int64"),
                            "b": pd.Series([], dtype="int64"),
                            "inter": pd.Series([], dtype="int64"),
                            "jaccard_e6": pd.Series([], dtype="int64")})
    return out.sort_values(["a", "b"]).reset_index(drop=True)


CMS_D, CMS_W = 4, 64     # count-min sketch: depth x width
CMS_TOPK = 20
# xor salts per row (pi-digit constants, all < 2^63 so the SQL xor
# needs no HUGEINT decomposition)
CMS_SEEDS = (0x243F6A8885A308D3, 0x13198A2E03707344,
             0x452821E638D01377, 0x6C0CE934CF6654BE)


def q_cms_token_counts(sf_dir: str):
    """COUNT-MIN SKETCH over the token stream — the frequency-
    estimation sketch completing the family next to HLL
    (approx_distinct_users): CMS_D x CMS_W registers, register
    (r, splitmix64(stable_hash64(token) XOR seed_r) % W) accumulates
    the token's occurrence count; a token's estimate is the MIN over
    its D registers (always >= the true count). Emits the CMS_TOPK
    true-most-frequent tokens with (true_n, est_n) — est_n == true_n
    when no collision landed on all D registers.

    Scale shape: register partials are a per-batch np.add.at over the
    D x W matrix (distinct tokens hashed once per batch) — the
    exchange carries 256-row enum-sized partials, the canonical
    mergeable-sketch shape; the true counts reuse the vocab combiner
    with partial top-k. ORACLE-CHECKED end to end like the HLL: DuckDB
    recomputes every register from the shared hash mirror (recursive
    FNV CTE + 4 splitmix chains), so the gate verifies the DISTRIBUTED
    register construction bit-for-bit, not just the estimates."""
    from ..functions.hashing import splitmix64_np, stable_hash64_np

    ds = read_table(sf_dir, "documents", columns=["text"])

    def regs_partial(batch: pa.Table) -> pa.Table:
        flat = [t for s in batch["text"].to_pylist()
                for t in (s or "").split()]
        if not flat:
            return pa.table({"r": pa.array([], pa.int64()),
                             "reg": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        codes, uniq = pd.factorize(np.asarray(flat, dtype=object))
        occ = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        h = stable_hash64_np(uniq.astype(str))
        mat = np.zeros((CMS_D, CMS_W), dtype=np.int64)
        for r, s in enumerate(CMS_SEEDS):
            reg = (splitmix64_np(h ^ np.uint64(s))
                   % np.uint64(CMS_W)).astype(np.int64)
            np.add.at(mat[r], reg, occ)
        rr = np.repeat(np.arange(CMS_D, dtype=np.int64), CMS_W)
        gg = np.tile(np.arange(CMS_W, dtype=np.int64), CMS_D)
        return pa.table({"r": pa.array(rr), "reg": pa.array(gg),
                         "cnt": pa.array(mat.reshape(-1))})

    regs = aggregate(ds, ["r", "reg"], {"cnt": ("cnt", "sum")}, regs_partial)
    table = np.zeros((CMS_D, CMS_W), dtype=np.int64)
    table[regs["r"].to_numpy(), regs["reg"].to_numpy()] = \
        regs["cnt"].to_numpy()

    vocab = _token_counts(ds)
    top = top_k(vocab, [("n", "descending"), ("token", "ascending")],
                CMS_TOPK)

    th = stable_hash64_np(top["token"].to_numpy().astype(str))
    est = np.full(len(top), np.iinfo(np.int64).max, dtype=np.int64)
    for r, s in enumerate(CMS_SEEDS):
        reg = (splitmix64_np(th ^ np.uint64(s))
               % np.uint64(CMS_W)).astype(np.int64)
        est = np.minimum(est, table[r, reg])
    res = pd.DataFrame({"token": top["token"],
                        "true_n": top["n"],
                        "est_n": est.astype(np.int64)})
    assert (res["est_n"] >= res["true_n"]).all(), \
        "CMS invariant violated: estimate below true count"
    return res


def _cms_oracle_sql() -> str:
    from ..functions.sqlmirror import (splitmix64_cte, stable_hash64_cte,
                                       tokens_sql)
    toks = tokens_sql("coalesce(text,'')")
    base = (f"SELECT tok, CAST(count(*) AS BIGINT) AS n FROM "
            f"(SELECT unnest({toks}) AS tok FROM documents) GROUP BY 1")
    sql, last = stable_hash64_cte(base, "tok", {"h": 0},
                                  carry_cols=("n",), prefix="__cmsh")
    finals = []
    for r, s in enumerate(CMS_SEEDS):
        part, lr = splitmix64_cte(
            f"SELECT tok, n, xor(h, CAST({s} AS UBIGINT)) AS x "
            f"FROM {last}", "x", f"g{r}", carry_cols=("tok", "n"),
            prefix=f"__cms{r}_", include_with=False)
        sql += part
        finals.append((r, lr))
    assign = " UNION ALL ".join(
        f"SELECT tok, n, {r} AS r, CAST(g{r} % {CMS_W} AS BIGINT) AS reg "
        f"FROM {lr}" for r, lr in finals)
    return sql + (
        f", cms_a AS ({assign}), "
        "cms_regs AS (SELECT r, reg, CAST(sum(n) AS BIGINT) AS cnt "
        "FROM cms_a GROUP BY 1, 2), "
        "cms_est AS (SELECT tok, CAST(min(cnt) AS BIGINT) AS est_n "
        "FROM cms_a JOIN cms_regs USING (r, reg) GROUP BY tok), "
        f"cms_top AS (SELECT tok, n FROM {last} "
        f"ORDER BY n DESC, tok LIMIT {CMS_TOPK}) "
        "SELECT t.tok AS token, t.n AS true_n, e.est_n AS est_n "
        "FROM cms_top t JOIN cms_est e ON e.tok = t.tok "
        "ORDER BY true_n DESC, token")


VCC_KS = (1, 5, 10, 1000)  # coverage-curve cut points


def q_vocab_coverage_curve(sf_dir: str):
    """TOKENIZER COVERAGE CURVE: what share of the corpus token stream
    a top-k vocabulary covers, at each cut k — the statistic that
    sizes a tokenizer's vocab (share_e6 = covered·1e6 // total, exact
    integers; cuts beyond the vocab clamp to full coverage). Rows:
    (k, covered, total, share_e6).

    Scale shape: vocab counts are the combiner + bucketed merge;
    the max cut bounds a partial top-k per block (global top-k ⊆
    union of block top-ks), so the driver sees max(VCC_KS) rows plus
    one scalar total — never the vocabulary."""
    ds = read_table(sf_dir, "documents", columns=["text"])
    # materialize the vocab-sized merge: it feeds BOTH the top-k and
    # the total below — without this the whole corpus combiner would
    # lazily re-execute per consumer
    vocab = _token_counts(ds).materialize()

    def total_block(batch: pa.Table) -> pa.Table:
        return pa.table({"t": pa.array(
            [int(pc.sum(batch["n"]).as_py() or 0)], pa.int64())})

    top = top_k(vocab, [("n", "descending"), ("token", "ascending")],
                max(VCC_KS))
    total = int(vocab.map_batches(total_block, batch_format="pyarrow")
                .to_pandas()["t"].sum())
    csum = top["n"].cumsum().to_numpy()
    rows = []
    for k in VCC_KS:
        covered = int(csum[min(k, len(csum)) - 1]) if len(csum) else 0
        rows.append((k, covered, total,
                     covered * 1_000_000 // max(total, 1)))
    return pd.DataFrame(rows, columns=["k", "covered", "total", "share_e6"])


def _vocab_coverage_oracle_sql() -> str:
    from ..functions.sqlmirror import tokens_sql
    toks = tokens_sql("coalesce(text,'')")
    ks = ", ".join(str(k) for k in VCC_KS)
    return (
        f"WITH vcc AS (SELECT tok, CAST(count(*) AS BIGINT) AS n FROM "
        f"(SELECT unnest({toks}) AS tok FROM documents) GROUP BY 1), "
        "vcr AS (SELECT n, row_number() OVER (ORDER BY n DESC, tok) "
        "AS rk FROM vcc), "
        "vct AS (SELECT CAST(sum(n) AS BIGINT) AS total FROM vcc) "
        f"SELECT CAST(kk AS BIGINT) AS k, "
        "CAST((SELECT coalesce(sum(n), 0) FROM vcr WHERE rk <= kk) "
        "AS BIGINT) AS covered, "
        "(SELECT total FROM vct) AS total, "
        "CAST((SELECT coalesce(sum(n), 0) FROM vcr WHERE rk <= kk) "
        "* 1000000 // (SELECT total FROM vct) AS BIGINT) AS share_e6 "
        f"FROM unnest([{ks}]) AS u(kk) ORDER BY 1")


GVC_K = 5  # greedy max-coverage selection steps


def q_greedy_vocab_cover(sf_dir: str):
    """GREEDY SUBMODULAR SELECTION (max-coverage coreset, the
    Nemhauser-greedy data-curation primitive): pick GVC_K documents
    one at a time, each maximizing the number of NOT-YET-COVERED
    distinct tokens (tie-break doc_id asc; already-chosen and
    token-less docs excluded). Emits (step, doc_id, gain,
    covered_total) — the classic 1−1/e-approximate coverage
    curriculum/coreset selector.

    Scale shape: inherently iterative (each pick conditions the next),
    but each of the K rounds is ONE distributed pass — the covered
    token set (bounded by the K chosen docs' vocabularies, tiny by
    construction) broadcasts via ray.put; per batch a vectorized
    factorize + isin + bincount yields every doc's marginal gain and
    only the batch's top-1 row leaves the worker; the winner's token
    set comes back through a doc_id predicate-pushdown parquet read.
    Driver state is O(K · doc_vocab), never corpus-sized. ORACLE: the
    K rounds unrolled as chained CTEs (the host_pagerank convention
    for gate-able iterative algorithms)."""
    import ray as _ray

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    covered: set = set()
    chosen_ids: set = set()
    rows_out = []
    sfp = f"{sf_dir.rstrip('/')}/documents.parquet"
    for step in range(1, GVC_K + 1):
        cov_arr = np.asarray(sorted(covered), dtype=object)
        ref = _ray.put((cov_arr, frozenset(chosen_ids)))

        def gains(batch: pa.Table) -> pa.Table:
            import ray as _rayw
            carr, cids = _rayw.get(ref)
            ids = batch["doc_id"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            tok_lists = [(t or "").split()
                         for t in batch["text"].to_pylist()]
            lens = np.fromiter((len(t) for t in tok_lists), np.int64,
                               count=len(tok_lists))
            flat = [t for toks in tok_lists for t in toks]
            keepdoc = lens > 0
            if not flat or not keepdoc.any():
                return pa.table({"doc_id": pa.array([], pa.int64()),
                                 "gain": pa.array([], pa.int64())})
            codes, uniq = pd.factorize(np.asarray(flat, dtype=object))
            unc = ~np.isin(uniq, carr)
            doc_idx = np.repeat(np.arange(len(ids), dtype=np.int64),
                                lens)
            comp = np.unique(codes.astype(np.int64) * len(ids) + doc_idx)
            gain = np.bincount(
                (comp % len(ids)).astype(np.int64),
                weights=unc[(comp // len(ids)).astype(np.int64)],
                minlength=len(ids)).astype(np.int64)
            ok = keepdoc & ~np.isin(ids, np.asarray(sorted(cids),
                                                    dtype=np.int64))
            d = pd.DataFrame({"doc_id": ids[ok], "gain": gain[ok]})
            d = d.sort_values(["gain", "doc_id"],
                              ascending=[False, True]).head(1)
            return pa.Table.from_pandas(d, preserve_index=False)

        parts = ds.map_batches(gains, batch_format="pyarrow").to_pandas()
        win = parts.sort_values(["gain", "doc_id"],
                                ascending=[False, True]).iloc[0]
        wid, wgain = int(win["doc_id"]), int(win["gain"])
        import pyarrow.dataset as pads
        wtbl = pads.dataset(sfp).to_table(
            filter=pads.field("doc_id") == wid, columns=["text"])
        covered |= set((wtbl["text"][0].as_py() or "").split())
        chosen_ids.add(wid)
        rows_out.append((step, wid, wgain, len(covered)))
    res = pd.DataFrame(rows_out, columns=["step", "doc_id", "gain",
                                          "covered_total"])
    for c in res.columns:
        res[c] = res[c].astype("int64")
    return res


def _greedy_cover_oracle_sql() -> str:
    from ..functions.sqlmirror import tokens_sql
    toks = tokens_sql("coalesce(text,'')")
    parts = [f"WITH gv_t AS (SELECT DISTINCT doc_id, unnest({toks}) "
             "AS tok FROM documents)"]
    sel = []
    prev_w: list[str] = []
    for i in range(1, GVC_K + 1):
        notin_docs = (" WHERE doc_id NOT IN ("
                      + " UNION ALL ".join(
                          f"SELECT doc_id FROM w{j}" for j in prev_w)
                      + ")") if prev_w else ""
        gain_expr = ("count(*)" if i == 1 else
                     f"count(*) FILTER (WHERE tok NOT IN "
                     f"(SELECT tok FROM c{i - 1}))")
        parts.append(
            f", w{i} AS (SELECT doc_id, CAST({gain_expr} AS BIGINT) "
            f"AS gain FROM gv_t{notin_docs} GROUP BY doc_id "
            "ORDER BY gain DESC, doc_id LIMIT 1)")
        cov_prev = (f"SELECT tok FROM c{i - 1} UNION "
                    if i > 1 else "")
        parts.append(
            f", c{i} AS ({cov_prev}SELECT DISTINCT tok FROM gv_t "
            f"WHERE doc_id IN (SELECT doc_id FROM w{i}))")
        sel.append(
            f"SELECT {i} AS step, doc_id, gain, "
            f"(SELECT CAST(count(*) AS BIGINT) FROM c{i}) "
            f"AS covered_total FROM w{i}")
        prev_w.append(str(i))
    return "".join(parts) + " " + " UNION ALL ".join(sel) + \
        " ORDER BY step"


PIDX_TOPK = 50
PIDX_DOC_MULT = 100_000  # position-hash mixing: doc_id*M + pos


def q_positional_index(sf_dir: str):
    """POSITIONAL INVERTED-INDEX BUILD (the search-engine index step
    behind search_phrase/bm25): per token, the posting-list summary —
    df (distinct docs), cf (total occurrences), and poshash =
    Σ over occurrences of (doc_id · 1e5 + position) — an exact-integer
    fold of the full positional posting list, so the gate pins every
    (doc, position) pair without shipping the list itself. Returns the
    top PIDX_TOPK tokens by (cf DESC, token ASC).

    Scale shape: per-batch combiner emits one (token, df, cf, poshash)
    partial per distinct token (positions fold in-batch via int64
    np.add.at — float64 bincount weights would lose exactness past
    2^53); bucketed merge; partial top-k per block before the tiny
    driver head. One shuffle of vocabulary-sized partials."""

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def postings_partial(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        texts = batch["text"].to_pylist()
        tok_lists = [(t or "").split() for t in texts]
        lens = np.fromiter((len(t) for t in tok_lists), np.int64,
                           count=len(tok_lists))
        flat = [t for toks in tok_lists for t in toks]
        if not flat:
            return pa.table({"token": pa.array([], pa.string()),
                             "df": pa.array([], pa.int64()),
                             "cf": pa.array([], pa.int64()),
                             "poshash": pa.array([], pa.int64())})
        codes, uniq = pd.factorize(np.asarray(flat, dtype=object))
        doc_idx = np.repeat(np.arange(len(ids), dtype=np.int64), lens)
        pos = np.arange(len(flat), dtype=np.int64) - \
            np.repeat(np.concatenate(([0], lens.cumsum()[:-1])), lens) + 1
        w = ids[doc_idx] * PIDX_DOC_MULT + pos
        cf = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        poshash = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(poshash, codes, w)
        # int64 headroom check: the merged cross-block sum only has
        # 8x (2^63/2^60) room over this per-batch bound, so the MERGED
        # result is re-asserted below — this check alone can pass
        # while 32+ near-bound partials overflow the global sum
        assert int(poshash.max(initial=0)) < 2 ** 60, \
            "poshash overflow risk: shrink PIDX_DOC_MULT or batch size"
        # df: distinct (token, doc) — docs never split across batches
        comp = codes.astype(np.int64) * len(ids) + doc_idx
        ucomp = np.unique(comp)
        df = np.bincount((ucomp // len(ids)).astype(np.int64),
                         minlength=len(uniq)).astype(np.int64)
        return pa.table({"token": pa.array(uniq.astype(str)),
                         "df": pa.array(df), "cf": pa.array(cf),
                         "poshash": pa.array(poshash)})

    merged = aggregate(ds, ["token"], {"df": ("df", "sum"), "cf": ("cf", "sum"),
                                       "poshash": ("poshash", "sum")},
                       postings_partial, in_ray=True)

    def unwrapped(batch: pa.Table) -> pa.Table:
        # the global bound the per-batch 2^60 check cannot guarantee:
        # every MERGED poshash must be a non-wrapped int64 (terms are
        # all positive, so a wrap shows as a negative sum) — checked
        # over ALL merged tokens, before the top-k cut
        assert (pc.min(batch["poshash"]).as_py() or 0) >= 0, \
            "merged poshash wrapped int64: shrink PIDX_DOC_MULT"
        return batch

    return top_k(merged.map_batches(unwrapped, batch_format="pyarrow"),
                 [("cf", "descending"), ("token", "ascending")], PIDX_TOPK)


def _positional_index_oracle_sql() -> str:
    from ..functions.sqlmirror import tokens_sql
    toks = tokens_sql("coalesce(text,'')")
    return (
        f"WITH pi_t AS (SELECT doc_id, {toks} AS t FROM documents), "
        "pi_p AS (SELECT doc_id, t[i] AS token, i AS pos FROM "
        "(SELECT doc_id, t, unnest(range(1, len(t) + 1)) AS i "
        "FROM pi_t WHERE len(t) >= 1)) "
        "SELECT token, CAST(count(DISTINCT doc_id) AS BIGINT) AS df, "
        "CAST(count(*) AS BIGINT) AS cf, "
        f"CAST(sum(doc_id * {PIDX_DOC_MULT} + pos) AS BIGINT) AS poshash "
        "FROM pi_p GROUP BY 1 "
        f"ORDER BY cf DESC, token LIMIT {PIDX_TOPK}")


def q_ppjoin_pairs(sf_dir: str):
    """PREFIX-FILTERED exact set-similarity join (PPJoin/All-Pairs):
    identical semantics to ``dedup_jaccard_exact`` — every doc pair
    with exact distinct token-3-gram Jaccard >= 0.5 — through the
    prefix-filtered plan (``dedup.ppjoin_pairs_ds``): only the
    df-rarest n - ceil(t*n) + 1 shingles of each doc enter the
    inverted index, so hot shingles never fan out quadratically.
    ORACLE-CHECKED against the same brute-force shingle self-join as
    dedup_jaccard_exact (the two registered plans must agree with the
    oracle AND each other)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return dd.ppjoin_pairs_ds(ds, shingle_k=3, kind="token",
                              threshold_e6=500_000)


def q_dedup_jaccard_exact(sf_dir: str):
    """EXACT all-pairs token-3-gram Jaccard >= 0.5 via the distributed
    shingle inverted index (dedup.jaccard_exact_pairs_ds) — the
    no-recall-gap exactness baseline for the MinHash/LSH path.
    ORACLE-CHECKED: DuckDB recomputes the same pairs with a shingle
    self-join (distinct token trigrams, |A ∩ B| by equi-join count,
    integer-units Jaccard)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return dd.jaccard_exact_pairs_ds(ds, shingle_k=3, kind="token",
                                     threshold_e6=500_000)


# ----------------------------------------------------------------------
# text analysis
# ----------------------------------------------------------------------

def q_text_token_count(sf_dir: str):
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(token_count_batch, batch_format="pyarrow") \
             .map_batches(lambda t: t.select(["doc_id", "n_tokens"]),
                          batch_format="pyarrow")


def q_text_quality(sf_dir: str):
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(quality_score_batch, batch_format="pyarrow")


def q_text_langid(sf_dir: str):
    """Language-ID heuristic — oracle-SQL-checked: integer hit-count
    argmax + floor-1e4 score make the model scoring expressible as a
    DuckDB list_filter/greatest query (ORACLE_SQL_TRAINING)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(langid_batch, batch_format="pyarrow")


def q_text_fingerprint(sf_dir: str):
    """Winnowing fingerprints, exploded to scalar rows
    (doc_id, fp_rank, fp_hash) — ORACLE-CHECKED: DuckDB recomputes
    every window hash (16-term weighted byte sum mod 2^64 + xorshift
    mix, weights shared via functions.hashing.fp_weights) and keeps
    the 8 smallest distinct per doc with row_number()."""
    from ..functions.hashing import rolling_fingerprint_col
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def explode(batch: pa.Table) -> pa.Table:
        fps = rolling_fingerprint_col(batch["text"])
        parent = pc.list_parent_indices(fps).to_numpy(zero_copy_only=False)
        offs = fps.offsets.to_numpy(zero_copy_only=False)
        rank = np.arange(1, len(parent) + 1) - offs[parent]
        return pa.table({"doc_id": pc.take(batch["doc_id"], parent),
                         "fp_rank": pa.array(rank, pa.int64()),
                         "fp_hash": fps.flatten()})

    return ds.map_batches(explode, batch_format="pyarrow")


def q_redact_pii(sf_dir: str):
    """PII redaction (training-data scrub), ORACLE-CHECKED: the
    synthetic corpus contains no PII, so this query first INJECTS
    deterministic spans — email for doc_id%7==0, IPv4 for %11==0,
    phone for %13==0, plain string concatenation mirrored verbatim in
    the SQL twin — then scrubs them with the vectorized RE2 redactor
    (stages/text.redact_batch). pyarrow and DuckDB both run RE2, and
    the SQL is BUILT from the same stages/text.PII_PATTERNS list, so
    replace semantics and counts match by construction."""
    from ..stages.text import redact_batch

    def inject(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"]
        ids = pc.cast(did, pa.string())
        d = did.to_numpy(zero_copy_only=False)
        email = pc.if_else(
            pa.array(d % 7 == 0),
            pc.binary_join_element_wise(
                " contact user", ids, "@example.com", ""), "")
        ip = pc.if_else(
            pa.array(d % 11 == 0),
            pc.binary_join_element_wise(
                " from 10.", pc.cast(pa.array(d % 256), pa.string()),
                ".0.", pc.cast(pa.array((d // 7) % 256), pa.string()),
                ""), "")
        phone = pc.if_else(
            pa.array(d % 13 == 0),
            pc.binary_join_element_wise(
                " call 415-555-",
                pc.utf8_lpad(pc.cast(pa.array(d % 10000), pa.string()),
                             4, "0"), ""), "")
        text = pc.binary_join_element_wise(
            pc.fill_null(batch["text"], ""), email, ip, phone, "")
        return pa.table({"doc_id": did, "text": text})

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return (ds.map_batches(inject, batch_format="pyarrow")
              .map_batches(redact_batch, batch_format="pyarrow"))


def _redact_oracle_sql() -> str:
    """SQL twin of q_redact_pii, generated from the SAME pattern list
    the Ray stage compiles (stages/text.PII_PATTERNS) — progressive
    count-then-replace per pattern, exactly like redact_batch."""
    from ..stages.text import PII_PATTERNS
    sql = ("WITH s0 AS (SELECT doc_id, coalesce(text,'') "
           "|| CASE WHEN doc_id % 7 = 0 THEN ' contact user' || "
           "CAST(doc_id AS VARCHAR) || '@example.com' ELSE '' END "
           "|| CASE WHEN doc_id % 11 = 0 THEN ' from 10.' || "
           "CAST(doc_id % 256 AS VARCHAR) || '.0.' || "
           "CAST((doc_id // 7) % 256 AS VARCHAR) ELSE '' END "
           "|| CASE WHEN doc_id % 13 = 0 THEN ' call 415-555-' || "
           "lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0') ELSE '' END "
           "AS t0 FROM documents)")
    cnt = []
    for i, (_, pat, repl) in enumerate(PII_PATTERNS):
        p = pat.replace("'", "''")
        sql += (f", s{i + 1} AS (SELECT doc_id, "
                + (", ".join(cnt) + ", " if cnt else "")
                + f"len(regexp_extract_all(t{i}, '{p}')) AS n{i + 1}, "
                f"regexp_replace(t{i}, '{p}', '{repl}', 'g') AS t{i + 1} "
                f"FROM s{i})")
        cnt.append(f"n{i + 1}")
    last = len(PII_PATTERNS)
    return (sql + f" SELECT doc_id, t{last} AS text, "
            f"CAST({' + '.join(cnt)} AS BIGINT) AS n_redactions "
            f"FROM s{last}")


# ----------------------------------------------------------------------
# similarity search
# ----------------------------------------------------------------------

def _load_queries(sf_dir: str, n: int = 4) -> tuple[np.ndarray, list[int]]:
    # predicate pushdown: only the n query rows leave storage (row-group
    # pruning) — never the whole embedding table
    df = read_local(sf_dir, "embeddings", columns=["vec_id", "embedding"],
                    filters=[("vec_id", "<", n)]).sort_values("vec_id")
    return np.stack(df["embedding"].to_numpy()).astype(np.float64), \
        df["vec_id"].tolist()


def q_ann_brute_topk(sf_dir: str):
    """Brute-force cosine top-10 for query vectors vec_id<4
    (broadcast query matrix, per-batch matmul, partial top-k merge)."""
    q, qids = _load_queries(sf_dir, 4)
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return ss.brute_force_topk(ds, q, qids, k=10)


def q_ann_ivf_topk(sf_dir: str):
    """IVF-bucketed ANN (rows-only — approximate by construction)."""
    q, qids = _load_queries(sf_dir, 4)
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    index = ss.IVFIndex(ds, n_centroids=8, seed=42)
    return index.search(q, qids, k=10, nprobe=3)


def q_knn_graph(sf_dir: str, k: int = 5):
    """Exact k-NN GRAPH over the embeddings table (the SemDeDup /
    clustering prerequisite): each vector's top-5 neighbors by
    integer-exact e3-quantized dot product. ORACLE-CHECKED bit-for-bit
    — DuckDB re-quantizes with the same floor(x*1000+0.5) double
    expression and re-ranks via list_dot_product (products and sums
    are integers far below 2^53, so the double kernel is exact)."""
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return ss.knn_graph_brute(ds, k=k)


def _knn_graph_oracle_sql(k: int = 5) -> str:
    return (
        "WITH q AS (SELECT vec_id, list_transform(embedding, "
        "x -> floor(CAST(x AS DOUBLE) * 1000 + 0.5)) AS qe FROM embeddings), "
        "sims AS (SELECT a.vec_id AS vec_id, b.vec_id AS neighbor_id, "
        "CAST(list_dot_product(a.qe, b.qe) AS BIGINT) AS dot_e6 "
        "FROM q a CROSS JOIN q b WHERE a.vec_id <> b.vec_id), "
        "ranked AS (SELECT vec_id, neighbor_id, dot_e6, "
        "row_number() OVER (PARTITION BY vec_id "
        "ORDER BY dot_e6 DESC, neighbor_id) AS rank FROM sims) "
        "SELECT vec_id, neighbor_id, dot_e6, CAST(rank AS BIGINT) AS rank "
        f"FROM ranked WHERE rank <= {k}")


def q_dedup_spans(sf_dir: str):
    """SUBSTRING-LEVEL duplicate detection (Lee et al. 2022 shape,
    fixed 16-token width at stride 1): per-doc count of token windows
    whose rolling Rabin-Karp hash occurs in >= 2 distinct docs.
    ORACLE-CHECKED bit-for-bit: DuckDB recomputes every window hash
    directly (distinct-token stable_hash64 via the shared recursive
    CTE, then the 16-term positional polynomial sum mod 2^64 — the
    closed form of the engine's rolling-prefix computation) and
    re-derives the same hot set and per-doc counts."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return dd.dup_window_stats(ds)


def _dedup_spans_oracle_sql(window: int = 16) -> str:
    from ..functions.sqlmirror import M64, mul_mod64, stable_hash64_cte, tokens_sql
    from ..stages.dedup import RK_P
    toks = tokens_sql("coalesce(text,'')")
    tok_with, tok_cte = stable_hash64_cte(
        f"SELECT DISTINCT unnest({toks}) AS s FROM documents",
        "s", {"h": 0}, prefix="ds_h")
    consts = [pow(RK_P, window - 1 - j, 1 << 64) for j in range(window)]
    case = ("CASE t.i - w.i " + " ".join(
        f"WHEN {j} THEN CAST({mul_mod64('t.h', c)} AS HUGEINT)"
        for j, c in enumerate(consts)) + " END")
    return tok_with + (
        f", ds_d AS (SELECT doc_id, {toks} AS t FROM documents), "
        "ds_tok AS (SELECT doc_id, unnest(range(1, len(t) + 1)) AS i, t "
        "FROM ds_d), "
        "ds_th AS (SELECT p.doc_id, p.i, th.h FROM "
        "(SELECT doc_id, i, t[i] AS tok FROM ds_tok) p "
        f"JOIN {tok_cte} th ON p.tok = th.s), "
        f"ds_w AS (SELECT doc_id, unnest(range(1, len(t) - {window - 2})) "
        f"AS i FROM ds_d WHERE len(t) >= {window}), "
        f"ds_wh AS (SELECT w.doc_id, w.i, "
        f"CAST(sum({case}) % {M64} AS UBIGINT) AS whash "
        "FROM ds_w w JOIN ds_th t ON t.doc_id = w.doc_id "
        f"AND t.i >= w.i AND t.i < w.i + {window} GROUP BY w.doc_id, w.i), "
        "ds_hot AS (SELECT whash FROM ds_wh GROUP BY whash "
        "HAVING count(DISTINCT doc_id) >= 2), "
        "ds_dup AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_dup "
        "FROM ds_wh WHERE whash IN (SELECT whash FROM ds_hot) "
        "GROUP BY doc_id), "
        f"ds_tot AS (SELECT doc_id, CAST(greatest(len({toks}) - "
        f"{window - 1}, 0) AS BIGINT) AS n_windows FROM documents) "
        "SELECT t.doc_id, t.n_windows, coalesce(d.n_dup, 0) "
        "AS n_dup_windows FROM ds_tot t LEFT JOIN ds_dup d USING (doc_id)")


def q_dedup_spans_remove(sf_dir: str):
    """Substring-level duplicate REMOVAL (Lee et al.'s acting half —
    q_dedup_spans detects, this one strips): per doc, every token
    covered by any corpus-duplicated 16-token window is removed;
    result rows pin (n_tokens, n_covered, kept_sum) where kept_sum is
    the wrapping-uint64 sum of the surviving tokens' stable hashes.
    ORACLE-CHECKED bit-for-bit: DuckDB recomputes window hashes via
    the closed-form positional polynomial, derives the same hot set,
    marks covered positions with a range EXISTS, and sums surviving
    token hashes mod 2^64."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return dd.dup_window_remove_stats(ds)


def _dedup_spans_remove_oracle_sql(window: int = 16) -> str:
    from ..functions.sqlmirror import M64, mul_mod64, stable_hash64_cte, tokens_sql
    from ..stages.dedup import RK_P
    toks = tokens_sql("coalesce(text,'')")
    tok_with, tok_cte = stable_hash64_cte(
        f"SELECT DISTINCT unnest({toks}) AS s FROM documents",
        "s", {"h": 0}, prefix="dr_h")
    consts = [pow(RK_P, window - 1 - j, 1 << 64) for j in range(window)]
    case = ("CASE t.i - w.i " + " ".join(
        f"WHEN {j} THEN CAST({mul_mod64('t.h', c)} AS HUGEINT)"
        for j, c in enumerate(consts)) + " END")
    return tok_with + (
        f", dr_d AS (SELECT doc_id, {toks} AS t FROM documents), "
        "dr_tok AS (SELECT doc_id, unnest(range(1, len(t) + 1)) AS i, t "
        "FROM dr_d), "
        "dr_th AS (SELECT p.doc_id, p.i, th.h FROM "
        "(SELECT doc_id, i, t[i] AS tok FROM dr_tok) p "
        f"JOIN {tok_cte} th ON p.tok = th.s), "
        f"dr_w AS (SELECT doc_id, unnest(range(1, len(t) - {window - 2})) "
        f"AS i FROM dr_d WHERE len(t) >= {window}), "
        f"dr_wh AS (SELECT w.doc_id, w.i, "
        f"CAST(sum({case}) % {M64} AS UBIGINT) AS whash "
        "FROM dr_w w JOIN dr_th t ON t.doc_id = w.doc_id "
        f"AND t.i >= w.i AND t.i < w.i + {window} GROUP BY w.doc_id, w.i), "
        "dr_hot AS (SELECT whash FROM dr_wh GROUP BY whash "
        "HAVING count(DISTINCT doc_id) >= 2), "
        "dr_dupw AS (SELECT doc_id, i FROM dr_wh "
        "WHERE whash IN (SELECT whash FROM dr_hot)), "
        "dr_cov AS (SELECT t.doc_id, t.i, "
        "CASE WHEN EXISTS (SELECT 1 FROM dr_dupw w "
        f"WHERE w.doc_id = t.doc_id AND w.i <= t.i "
        f"AND w.i > t.i - {window}) THEN 1 ELSE 0 END AS cov, t.h "
        "FROM dr_th t), "
        "dr_agg AS (SELECT doc_id, "
        "CAST(sum(cov) AS BIGINT) AS n_covered, "
        f"CAST(coalesce(sum(CASE WHEN cov = 0 THEN "
        f"CAST(h AS HUGEINT) END), 0) % {M64} AS UBIGINT) AS kept_sum "
        "FROM dr_cov GROUP BY doc_id), "
        f"dr_tot AS (SELECT doc_id, CAST(len({toks}) AS BIGINT) "
        "AS n_tokens FROM documents) "
        "SELECT t.doc_id, t.n_tokens, coalesce(a.n_covered, 0) "
        "AS n_covered, coalesce(a.kept_sum, CAST(0 AS UBIGINT)) "
        "AS kept_sum FROM dr_tot t LEFT JOIN dr_agg a USING (doc_id)")


def q_semdedup_remove(sf_dir: str, k: int = 5, threshold_e6: int = 400_000):
    """SemDeDup-style EMBEDDING near-dup removal (public SemDeDup
    shape: prune all-but-one of each semantic-duplicate cluster):
    k-NN-graph edges with quantized dot >= threshold → connected
    components (driver-side union-find over the OUTPUT-sized edge
    list, the minhash_remove convention) → distributed bucketed
    anti-join keeps each cluster's least vec_id. ORACLE-CHECKED end to
    end: DuckDB re-ranks the same integer-exact k-NN graph, applies
    the same threshold, and closes components with a recursive
    transitive-closure CTE."""
    from ..stages.joins import bucketed_anti_join, union_find_components
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    g = ss.knn_graph_brute(ds, k=k)
    edges = g.map_batches(
        lambda t: t.filter(pc.greater_equal(t["dot_e6"], threshold_e6))
                   .select(["vec_id", "neighbor_id"]),
        batch_format="pyarrow").to_pandas()
    comp = union_find_components(
        zip((int(x) for x in edges["vec_id"]),
            (int(x) for x in edges["neighbor_id"])))
    import ray.data as rd
    removed = sorted(x for x, r in comp.items() if r != x)
    rm = rd.from_arrow(
        pa.table({"vec_id": pa.array(removed, pa.int64())}))
    ids = ds.map_batches(lambda t: t.select(["vec_id"]),
                         batch_format="pyarrow")
    if not removed:
        return ids
    return bucketed_anti_join(ids, rm, on="vec_id")


def _semdedup_oracle_sql(k: int = 5, threshold_e6: int = 400_000) -> str:
    return (
        "WITH RECURSIVE q AS (SELECT vec_id, list_transform(embedding, "
        "x -> floor(CAST(x AS DOUBLE) * 1000 + 0.5)) AS qe FROM embeddings), "
        "sims AS (SELECT a.vec_id AS vec_id, b.vec_id AS neighbor_id, "
        "CAST(list_dot_product(a.qe, b.qe) AS BIGINT) AS dot_e6 "
        "FROM q a CROSS JOIN q b WHERE a.vec_id <> b.vec_id), "
        "ranked AS (SELECT vec_id, neighbor_id, dot_e6, "
        "row_number() OVER (PARTITION BY vec_id "
        "ORDER BY dot_e6 DESC, neighbor_id) AS rank FROM sims), "
        f"pairs AS (SELECT vec_id AS u, neighbor_id AS v FROM ranked "
        f"WHERE rank <= {k} AND dot_e6 >= {threshold_e6}), "
        "__e AS (SELECT u, v FROM pairs UNION SELECT v, u FROM pairs), "
        "__r AS (SELECT u, v FROM __e "
        "UNION SELECT r.u, e.v FROM __r r JOIN __e e ON r.v = e.u), "
        "__rep AS (SELECT u, least(u, min(v)) AS rep FROM __r GROUP BY u) "
        "SELECT vec_id FROM embeddings WHERE vec_id NOT IN "
        "(SELECT u FROM __rep WHERE rep <> u)")


def q_ann_ivf_full_probe(sf_dir: str):
    """IVF search with nprobe = n_centroids: every partition is
    scanned, so the result is EXACT by construction — which makes the
    whole IVF machinery (deterministic k-means build, centroid
    routing, per-partition probe, top-k merge) hash-gatable against
    the brute-force SQL oracle. The approximate nprobe<n_centroids
    path (q_ann_ivf_topk) shares all of that code and is additionally
    pinned by the recall/determinism goldens (tests/test_goldens.py)."""
    q, qids = _load_queries(sf_dir, 4)
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    index = ss.IVFIndex(ds, n_centroids=8, seed=42)
    return index.search(q, qids, k=10, nprobe=8)


# ----------------------------------------------------------------------
# crawl engine queries (rows-only: stateful/iterative semantics)
# ----------------------------------------------------------------------

_CRAWL_SEEDS = 300
# crawl mirrors this process wrote: a /tmp directory left by another
# process (possibly by older code) is rebuilt, never read
_CRAWLS_BUILT: set[str] = set()


def _crawl_out_dir(sf_dir: str) -> str:
    tag = os.path.basename(os.path.normpath(sf_dir)) or "sf"
    return f"/tmp/ci_ray_crawl_{tag}"


def _crawl_fifo_out_dir(sf_dir: str) -> str:
    return _crawl_out_dir(sf_dir) + "_fifo"


def _run_fifo_crawl(sf_dir: str) -> str:
    """Conformance-mode engine run (K=1 global FIFO — the reference's
    single Mongo queue, SURVEY.md §3.2): distributed fetch over a
    single-shard frontier, cached per sf_dir."""
    out = _crawl_fifo_out_dir(sf_dir)
    if out not in _CRAWLS_BUILT:
        seeds = make_seed_urls(_CRAWL_SEEDS, seed=42)["url"].to_pylist()
        run_crawl_pump(seeds, frontier=Frontier(1, dedup=True), seed=42,
                       max_depth=1, chunk_size=256, rounds="shard",
                       out_dir=out)
        _CRAWLS_BUILT.add(out)
    return out


def _run_fifo_crawl_sharded(sf_dir: str) -> str:
    """K=8 conformance run in the GLOBAL-FIFO interleave mode (SURVEY
    §7.4: claim by global enqueue_seq min-heap across shards —
    Frontier.lease_wave_global): same seeds as the K=1 run; the claim
    stream must be bit-identical to K=1's, and the same closed-form
    DuckDB replay gates it."""
    out = _crawl_fifo_out_dir(sf_dir) + "_k8"
    if out not in _CRAWLS_BUILT:
        seeds = make_seed_urls(_CRAWL_SEEDS, seed=42)["url"].to_pylist()
        run_crawl_pump(seeds, frontier=Frontier(8, dedup=True), seed=42,
                       max_depth=1, chunk_size=256, rounds="global",
                       out_dir=out)
        _CRAWLS_BUILT.add(out)
    return out


def q_crawl_documents(sf_dir: str):
    """Flagship: frontier crawl over synthetic seeds → documents table
    projection (doc_id, url, host, depth, enqueue_seq, n_spans,
    n_text_chars). Deterministic (seed=42). Persists the engine's
    final frontier histogram next to the output (consumed by the
    ORACLE-CHECKED q_crawl_status_histogram)."""
    import json

    seeds = make_seed_urls(_CRAWL_SEEDS, seed=42)["url"].to_pylist()
    out = _crawl_out_dir(sf_dir)
    res = run_crawl_pump(seeds, frontier=Frontier(2, dedup=True), seed=42,
                         max_depth=1, chunk_size=128, rounds="shard",
                         out_dir=out)
    with open(os.path.join(out, "engine_summary.json"), "w") as fh:
        json.dump({"histogram": res.histogram,
                   "seen_set_size": res.seen_set_size,
                   "docs_written": res.docs_written,
                   "waves": res.waves}, fh)
    _CRAWLS_BUILT.add(out)
    docs = read_documents(out)

    def project(batch: pa.Table) -> pa.Table:
        spans = batch["spans"].to_pylist()
        n_spans = [len(s) for s in spans]
        n_chars = [sum(len(sp["text"]) for sp in s) for s in spans]
        return pa.table({"doc_id": batch["doc_id"], "url": batch["url"],
                         "host": batch["host"], "depth": batch["depth"],
                         "enqueue_seq": batch["enqueue_seq"],
                         "n_spans": pa.array(n_spans, pa.int64()),
                         "n_text_chars": pa.array(n_chars, pa.int64())})

    return docs.map_batches(project, batch_format="pyarrow")


def _flagship_crawl(sf_dir: str) -> str:
    """The flagship crawl's directory, crawled by this process."""
    out = _crawl_out_dir(sf_dir)
    if out not in _CRAWLS_BUILT:
        q_crawl_documents(sf_dir)
    return out


def q_crawl_doc_stats(sf_dir: str):
    """Flagship crawl output audit, ORACLE-CHECKED end to end: every
    engine-crawled document's (doc_id, url, host, depth, n_spans,
    n_text_chars), hash-gated against a DuckDB oracle that
    INDEPENDENTLY re-runs the whole crawl — seed list → fetch-hash
    terminal statuses → child-link expansion → URL dedup → md5 doc
    ids → span-hash layout (_crawl_doc_stats_oracle_sql). A row
    mismatch means the distributed frontier fetched a wrong URL set
    or the fetch stage produced wrong document content geometry.
    (enqueue_seq stays in the rows-only crawl_documents query: it
    depends on claim scheduling, which SQL cannot replay.)"""
    out = _flagship_crawl(sf_dir)
    docs = read_documents(out)

    def project(batch: pa.Table) -> pa.Table:
        spans = batch["spans"].to_pylist()
        n_spans = [len(s) for s in spans]
        n_chars = [sum(len(sp["text"]) for sp in s) for s in spans]
        return pa.table({"doc_id": batch["doc_id"], "url": batch["url"],
                         "host": batch["host"], "depth": batch["depth"],
                         "n_spans": pa.array(n_spans, pa.int64()),
                         "n_text_chars": pa.array(n_chars, pa.int64())})

    return docs.map_batches(project, batch_format="pyarrow")


def q_crawl_order(sf_dir: str):
    """The ENGINE's claim stream: the claims audit log the distributed
    conformance-mode (K=1 FIFO, ``run_crawl_pump`` round mode) run
    itself wrote, one ``claims/part-<lease_id>.parquet`` per lease
    with the round number in its ``wave`` column, ordered by (wave,
    enqueue_seq) = the global claim order (§3.2: within a round,
    claims run in ascending enqueue_seq).

    ORACLE-CHECKED (r03): DuckDB independently replays the whole K=1
    queue state machine closed-form (_crawl_replay_ctes) and predicts
    every (claim_idx, enqueue_seq, url, attempt) row — the reference's
    queue-integration golden order (queue.model.ts:245-308), now a
    driver hash gate instead of a pytest-only golden. The output IS
    the full claim stream, so materializing it driver-side is the
    query's contract, not a scale shortcut."""
    import pyarrow.dataset as pads

    out = _run_fifo_crawl(sf_dir)
    tbl = pads.dataset(os.path.join(out, "claims")).to_table()
    tbl = tbl.sort_by([("wave", "ascending"), ("enqueue_seq", "ascending")])
    return pa.table({
        "claim_idx": pa.array(np.arange(tbl.num_rows, dtype=np.int64)),
        "enqueue_seq": pc.cast(tbl["enqueue_seq"], pa.int64()),
        "url": tbl["url"],
        "attempt": pc.cast(tbl["attempt"], pa.int64())})


def q_crawl_order_sharded(sf_dir: str):
    """K>1 ORDER SEMANTICS, driver-gated: the claim stream of a K=8
    run in the cross-shard global-FIFO interleave mode
    (``Frontier.lease_wave_global`` — peek every shard's smallest open
    enqueue_seqs, merge on the driver, claim the globally smallest;
    SURVEY §7.4's promised min-heap interleave). Because the
    interleave is exact, the stream must equal the K=1 conformance
    stream bit-for-bit, and the SAME closed-form DuckDB replay
    (_crawl_replay_ctes) is this query's oracle — the gate therefore
    pins BOTH the K=8 sharded engine (routing, shard-local dedup,
    per-shard commit/retry) and the interleave itself."""
    import pyarrow.dataset as pads

    out = _run_fifo_crawl_sharded(sf_dir)
    tbl = pads.dataset(os.path.join(out, "claims")).to_table()
    tbl = tbl.sort_by([("wave", "ascending"), ("enqueue_seq", "ascending")])
    return pa.table({
        "claim_idx": pa.array(np.arange(tbl.num_rows, dtype=np.int64)),
        "enqueue_seq": pc.cast(tbl["enqueue_seq"], pa.int64()),
        "url": tbl["url"],
        "attempt": pc.cast(tbl["attempt"], pa.int64())})


def q_crawl_status_histogram(sf_dir: str):
    """Final queue histogram of the flagship crawl (G1/G2 analog) —
    the ENGINE's own frontier counts (persisted by q_crawl_documents),
    ORACLE-CHECKED: DuckDB re-runs the deterministic crawl (seed
    VALUES → fetch-hash terminal statuses → child expansion → dedup)
    and recomputes the histogram independently
    (_crawl_status_histogram_oracle_sql)."""
    import json

    with open(os.path.join(_flagship_crawl(sf_dir),
                           "engine_summary.json")) as fh:
        h = json.load(fh)["histogram"]
    return pd.DataFrame([{"status": k, "n_items": v} for k, v in sorted(h.items())])


def q_crawl_host_counts(sf_dir: str):
    """G7 over the REAL crawl output: per-host document counts — the
    canonical wide shuffle on the engine's own documents table
    (domain_count.js:40-56). Pre-aggregated per batch. ORACLE-CHECKED:
    DuckDB re-runs the deterministic crawl and recomputes the per-host
    counts independently (_crawl_host_counts_oracle_sql)."""
    out = _flagship_crawl(sf_dir)
    docs = read_documents(out)

    return aggregate(docs, ["host"], {"n_docs": ("host", "count")},
                     in_ray=True)


def q_crawl_simhash_audit(sf_dir: str):
    """Signature-at-ingest consumer: exact-simhash collision groups on
    the crawl output (near-dup audit without re-reading text).
    ORACLE-CHECKED: DuckDB re-runs the crawl AND recomputes every
    ingest-time signature from the closed-form token stream
    (_crawl_simhash_audit_oracle_sql)."""
    out = _flagship_crawl(sf_dir)
    docs = read_documents(out)

    return aggregate(docs, ["simhash"], {"n_docs": ("doc_id", "count"),
                                         "first_doc": ("doc_id", "min")},
                     in_ray=True)


def q_k7_sample_export(sf_dir: str):
    """K7 export bundling (crawltask.service.ts:208-253): tar the 20
    most recent documents of the flagship crawl; returns the member
    listing (rows-only — tar side effect + audit record)."""
    from .crawl import read_documents
    from .export import export_sample_tar
    out = _flagship_crawl(sf_dir)
    docs = read_documents(out)
    return export_sample_tar(docs, os.path.join(out, "sample_export.tar.gz"),
                             n=20)


def q_m8_randomizers(sf_dir: str):
    """M8 UA/accept-language/viewport randomizer columns
    (crawler/src/helpers.ts:28-59) over the documents-derived URL
    universe (same construction as m5's oracle) — per-URL hash draws
    replace the reference's unseeded randomness. ORACLE-CHECKED: the
    FNV-1a + splitmix64 draw is mirrored bit-for-bit in DuckDB (a
    recursive CTE over the URL bytes with HUGEINT mod-2^64 arithmetic
    — see _m8_oracle_sql), so the hash gate verifies every row's draw
    independently of Ray's batching."""
    from ..functions.randomizers import randomize_batch
    ds = read_table(sf_dir, "documents", columns=["doc_id", "source"])

    def build(batch: pa.Table) -> pa.Table:
        urls = [f"http://{s}.example/d{d}"
                for d, s in zip(batch["doc_id"].to_pylist(),
                                batch["source"].to_pylist())]
        return pa.table({"url": pa.array(urls, pa.string())})

    return (ds.map_batches(build, batch_format="pyarrow")
            .map_batches(randomize_batch, fn_kwargs={"seed": 42},
                         batch_format="pyarrow"))


def q_crawl_wave_stats(sf_dir: str):
    """G4/K5 on the ENGINE's own lineage: per-wave worker-meta rows
    (leased / completed / failed / discovered) from the conformance-
    mode crawl's manifest — the reference's worker_meta fleet-stats
    surface (workermeta.model.ts:78-117) over our own run record.

    ORACLE-CHECKED (r03): DuckDB replays the entire K=1 queue state
    machine closed-form (_crawl_replay_ctes — rounds from the fetch-
    hash claim profiles, seq-ordered claims, availability-aware
    256-lease chunking) and predicts every manifest row independently.
    A mismatch in any count means the frontier leased the wrong items,
    retried at the wrong time, or mis-sequenced a discovery. The
    sharded (K=2) run's lineage stays covered by
    tests/test_crawl_pipeline.py::test_sharded_mode_matches_seen_set
    and the pump lineage tests."""
    import json as _json
    out = _run_fifo_crawl(sf_dir)
    manifest = os.path.join(out, "manifest.jsonl")
    rows = []
    with open(manifest) as f:
        for line in f:
            r = _json.loads(line)
            rows.append({"wave": r["wave"], "leased": r["leased"],
                         "completed": r["completed"], "failed": r["failed"],
                         "discovered": r["discovered"]})
    return pd.DataFrame(rows).sort_values("wave").reset_index(drop=True)


def q_crawl_fifo_documents(sf_dir: str):
    """Conformance-mode flagship crawl documents INCLUDING the
    enqueue_seq assignment, ORACLE-CHECKED end to end: the engine runs
    the real distributed pipeline (Ray fetch tasks over a K=1
    frontier) and DuckDB independently replays the whole queue state
    machine (_crawl_replay_ctes) plus the document-geometry mirror —
    so the hash gate pins the URL set, the md5 ids, the span geometry
    AND the exact insertion-order seq every document was enqueued at
    (the reference's Mongo ``_id`` order, queue.model.ts:32-68)."""
    out = _run_fifo_crawl(sf_dir)
    docs = read_documents(out)

    def project(batch: pa.Table) -> pa.Table:
        spans = batch["spans"].to_pylist()
        n_spans = [len(s) for s in spans]
        n_chars = [sum(len(sp["text"]) for sp in s) for s in spans]
        return pa.table({"doc_id": batch["doc_id"], "url": batch["url"],
                         "host": batch["host"], "depth": batch["depth"],
                         "enqueue_seq": pc.cast(batch["enqueue_seq"],
                                                pa.int64()),
                         "n_spans": pa.array(n_spans, pa.int64()),
                         "n_text_chars": pa.array(n_chars, pa.int64())})

    return docs.map_batches(project, batch_format="pyarrow")


def q_o4_multi_task_schedule(sf_dir: str):
    """O4 multi-task priority scheduling end to end (daemon cycle,
    daemon.ts:220-241/308-391): two tasks under the absolute policy —
    the allocation log shows the low-priority task starved until the
    high-priority one finishes (rows-only: stateful scheduler)."""
    import tempfile
    from ..config import JobConfig
    from .scheduler import run_multi_task
    # unique per invocation: a fixed /tmp path keyed on sf_dir lets two
    # concurrent runs delete each other's in-flight output
    out_root = tempfile.mkdtemp(prefix="ci_ray_multi_")
    tasks = [
        (JobConfig(name="hi", priority=5, priority_policy="absolute"),
         [f"http://mt-hi.example/a{i}" for i in range(60)]),
        (JobConfig(name="lo", priority=2, priority_policy="absolute"),
         [f"http://mt-lo.example/b{i}" for i in range(30)]),
    ]
    import shutil
    try:
        res = run_multi_task(tasks, seed=42, chunk_size=8,
                             total_chunks_per_cycle=4, out_root=out_root)
        return pd.DataFrame(res["alloc_log"],
                            columns=["cycle", "task", "n_chunks"])
    finally:
        shutil.rmtree(out_root, ignore_errors=True)


def q_a3_warm_crawl(sf_dir: str):
    """A3 warm persistent handler (persistant_handler.ts:25-157): a
    long-lived actor pool serves three consecutive crawl calls; the
    fetcher is built once per actor and stays warm across calls.
    ORACLE-CHECKED (_a3_warm_oracle_sql): the round-robin call→actor
    mapping and attempt-0 fetch outcomes are deterministic, so DuckDB
    recomputes every row plus the warmth audit constants."""
    from ..stages.warm import WarmCrawlPool
    seeds = make_seed_urls(120, seed=42)["url"].to_pylist()
    pool = WarmCrawlPool(size=2, seed=42)
    try:
        frames = []
        for i in range(3):
            out = pool.crawl(seeds[i * 40:(i + 1) * 40])
            frames.append(pd.DataFrame(out).assign(call=i))
        stats = pool.stats()
        df = pd.concat(frames, ignore_index=True)
        # audit columns: the pool stayed warm (one construction per actor)
        df["pool_cache_misses"] = sum(s["cache_misses"] for s in stats)
        df["pool_calls"] = sum(s["counter"] for s in stats)
        return df.sort_values(["call", "url"]).reset_index(drop=True)
    finally:
        pool.shutdown()


def q_media_spans(sf_dir: str):
    """Multimodal plumbing: media spans of the crawl output exploded to
    typed rows (doc_id, media_ref, media_type, width, height,
    duration_ms) — decode itself is stubbed (no codecs in container).
    ORACLE-CHECKED: DuckDB re-runs the crawl and recomputes every
    media row's ref + hash-derived metadata (_media_spans_oracle_sql)."""
    out = _flagship_crawl(sf_dir)
    docs = read_documents(out)
    return docs.map_batches(mm.media_rows_from_spans, batch_format="pyarrow")


def q_media_frame_plan(sf_dir: str):
    """Multimodal FRAME-SAMPLING plan: the crawl's video spans exploded
    to one row per planned frame timestamp (every 30 s, frames at
    0..duration_ms-1) — the schedule a real extractor actor pool would
    consume; actual frame decode is q_video_decode_stats. Vectorized
    explode (stages/multimodal.frame_sample_plan), zero shuffle.
    ORACLE-CHECKED: DuckDB recomputes every video's hash-derived
    duration from the crawl mirror and unrolls generate_series."""
    out = _flagship_crawl(sf_dir)
    docs = read_documents(out)
    media = docs.map_batches(mm.media_rows_from_spans,
                             batch_format="pyarrow")
    return media.map_batches(
        lambda b: mm.frame_sample_plan(b, every_ms=30_000),
        batch_format="pyarrow")


def _media_frame_plan_oracle_sql(seed: int = 42,
                                 every_ms: int = 30_000) -> str:
    """Wraps the media-spans mirror: video rows only, one row per
    frame offset. generate_series is end-INCLUSIVE so the stop is
    duration_ms - 1 (matching Python range(0, dur, step)); dur = 0
    yields an empty series on both sides."""
    base = _media_spans_oracle_sql(seed=seed)
    return (
        f"WITH mfp AS ({base}) "
        f"SELECT media_ref, CAST(f AS INTEGER) AS frame_ts_ms "
        f"FROM mfp, unnest(generate_series(0, duration_ms - 1, "
        f"{every_ms})) AS t(f) "
        f"WHERE media_type = 'video' ORDER BY 1, 2")


def q_media_ann_topk(sf_dir: str):
    """Multimodal → similarity-search END TO END: media spans exploded
    to typed rows, feature extraction as map_batches TASKS
    (hash_features_batch — the declared-synthetic embedding stand-in; real
    image DECODE is the separate oracle-gated q_media_decode_stats
    chain), then exact cosine top-5 over the feature column for 3
    deterministic query refs via the partial-top-k ANN stage.
    Exercises the full multimodal plumbing chain the way a real
    image-embedding pipeline would run. ORACLE-CHECKED end to end
    (_media_ann_topk_oracle_sql — integer-dot cosine re-ranked in
    DuckDB over the crawl mirror's refs)."""
    import numpy as np
    from .crawl import read_documents
    out = _flagship_crawl(sf_dir)
    docs = read_documents(out)
    media = docs.map_batches(mm.media_rows_from_spans, batch_format="pyarrow")
    feats = media.map_batches(mm.hash_features_batch, batch_format="pyarrow")

    # query set: the 3 lexicographically-smallest media refs (partial
    # min-3 per batch → tiny driver merge), features recomputed via the
    # same deterministic featurizer
    def min3(batch: pa.Table) -> pa.Table:
        return batch.select(["media_ref"]).sort_by("media_ref").slice(0, 3)

    refs = sorted(media.map_batches(min3, batch_format="pyarrow")
                  .to_pandas()["media_ref"])[:3]
    qtbl = mm.hash_features_batch(pa.table({"media_ref": pa.array(refs)}))
    qmat = np.asarray(qtbl["features"].to_pylist(), dtype=np.float64)
    return ss.brute_force_topk(feats, qmat, refs, k=5,
                               id_column="media_ref", column="features")


def q_media_decode_stats(sf_dir: str):
    """IMAGE DECODE end to end — real bytes through a real parser
    (r04 verdict item 4, replacing the r01–r04 DecodeStub): the
    crawl's image refs are fetched from the synthetic origin as
    binary PPM (P6) payloads (corpus.make_media_payload — magic +
    comment + dims + maxval header, raw RGB raster), decoded by the
    pure-numpy P6 parser in the decode_image_batch TASKS
    (stages/multimodal.decode_ppm), and reduced to exact integer
    pixel statistics per image. ORACLE-CHECKED: DuckDB never sees a
    byte — it replays the generator's closed form from each ref's
    hash (every full 256-pixel run is a complete residue cycle
    contributing 32640 / 5559680 to the sum / sum-of-squares; the
    partial run is enumerated, ≤255 terms per image), so the gate
    proves decode(encode(ref)) recovers every pixel the origin drew.
    Reference analog: the browser worker's media fetch+store
    (crawler/src/browser_worker.ts:26-748). batch_size=256: wide
    binary rows (≤ ~2.2 KB/payload) keep task heaps small."""
    out = _flagship_crawl(sf_dir)
    docs = read_documents(out)
    media = docs.map_batches(mm.media_rows_from_spans,
                             batch_format="pyarrow")
    imgs = media.map_batches(
        lambda b: b.filter(pc.equal(b["media_type"], "image")),
        batch_format="pyarrow")
    stats = (imgs.map_batches(fetch_media_payloads,
                              batch_format="pyarrow")
             .map_batches(mm.decode_image_batch, batch_size=256,
                          batch_format="pyarrow"))
    cols = ["media_ref", "img_w", "img_h", "n_bytes", "pixel_sum",
            "pixel_sq_sum", "mean_e3"]
    return stats.select_columns(cols).to_pandas() \
        .sort_values("media_ref").reset_index(drop=True)


def q_audio_decode_stats(sf_dir: str):
    """AUDIO DECODE end to end — the WAV sibling of
    q_media_decode_stats: the crawl's audio refs are fetched from the
    synthetic origin as REAL RIFF/WAVE PCM16 files (fmt chunk with
    optional cbSize, a junk 'cue ' chunk the parser must skip, then
    data), decoded by the chunk-walking pure-numpy parser inside the
    decode_audio_batch TASKS, and reduced to exact integer sample
    statistics. ORACLE-CHECKED from the generator's closed form: the
    int16 samples are an affine map (257·v − 32768) of the stride-31
    residue walk, so Σs and Σs² are affine in the walk's Σv / Σv²
    (full-cycle constants + ≤255-term enumerated partial) — DuckDB
    never sees a byte. batch_size=256 (≤ ~4 KB/payload)."""
    out = _flagship_crawl(sf_dir)
    docs = read_documents(out)
    media = docs.map_batches(mm.media_rows_from_spans,
                             batch_format="pyarrow")
    auds = media.map_batches(
        lambda b: b.filter(pc.equal(b["media_type"], "audio")),
        batch_format="pyarrow")
    stats = (auds.map_batches(fetch_audio_payloads,
                              batch_format="pyarrow")
             .map_batches(mm.decode_audio_batch, batch_size=256,
                          batch_format="pyarrow"))
    cols = ["media_ref", "sample_rate", "n_samples", "sample_sum",
            "sample_sq_sum", "duration_us"]
    return stats.select_columns(cols).to_pandas() \
        .sort_values("media_ref").reset_index(drop=True)


def _audio_decode_oracle_sql(seed: int = 42) -> str:
    """DuckDB twin of the WAV decode chain: audio refs (hh % 3 = 1)
    from the crawl mirror; n = 256 + (hh>>48) % 1792 samples whose
    residue-walk sums come from full-cycle constants + an enumerated
    partial (each 256-run of (b + 31·i) mod 256 repeats identically,
    since 31·256 ≡ 0 mod 256); int16 affine map applied in exact
    integer arithmetic."""
    from ..functions.sqlmirror import stable_hash64_cte

    with_sql, docs = _crawl_docs_ctes(seed=seed)
    sql = with_sql + (
        f", aud_ref AS (SELECT 'm://' || host || '/' || "
        f"substr(md5(doc_id || '|' || CAST(i AS VARCHAR)), 1, 10) AS ref "
        f"FROM {docs}, unnest(generate_series(1, n_spans - 1, 2)) AS t(i))")
    w, c = stable_hash64_cte("SELECT ref FROM aud_ref", "ref", {"hh": 0},
                             prefix="aud_", include_with=False)
    sql += w + (
        f", aud_n AS (SELECT ref, "
        f"CAST(256 + (hh >> 48) % 1792 AS BIGINT) AS n, "
        f"CAST(hh % 256 AS BIGINT) AS b FROM {c} WHERE hh % 3 = 1), "
        "aud_p AS (SELECT ref, "
        "CAST(sum((b + 31 * i) % 256) AS BIGINT) AS psum, "
        "CAST(sum(((b + 31 * i) % 256) * ((b + 31 * i) % 256)) AS BIGINT) "
        "AS sqsum "
        "FROM aud_n, unnest(generate_series(0, n % 256 - 1)) AS u(i) "
        "GROUP BY 1), "
        "aud_s AS (SELECT m.ref AS media_ref, m.n, "
        "(m.n // 256) * 32640 + coalesce(p.psum, 0) AS sv, "
        "(m.n // 256) * 5559680 + coalesce(p.sqsum, 0) AS sv2 "
        "FROM aud_n m LEFT JOIN aud_p p ON m.ref = p.ref) "
        "SELECT media_ref, CAST(8000 AS INTEGER) AS sample_rate, "
        "CAST(n AS BIGINT) AS n_samples, "
        "CAST(257 * sv - 32768 * n AS BIGINT) AS sample_sum, "
        "CAST(66049 * sv2 - 16842752 * sv + 1073741824 * n AS BIGINT) "
        "AS sample_sq_sum, "
        "CAST(n * 1000000 // 8000 AS BIGINT) AS duration_us "
        "FROM aud_s ORDER BY media_ref")
    return sql


def q_video_decode_stats(sf_dir: str):
    """VIDEO DECODE end to end — the Y4M member completing the decode
    trio (image PPM / audio WAV / video YUV4MPEG2): the crawl's video
    refs are fetched from the synthetic origin as REAL .y4m streams
    (ASCII parameter line with tagged W/H/F/I/A/C fields, FRAME
    markers, raw 4:4:4 planes), decoded by the tag-parsing frame
    walker in the decode_video_batch TASKS, and reduced to exact
    integer statistics INCLUDING a luma-plane-only sum (y_sum) that
    gates the plane split, not just the flat byte walk.
    ORACLE-CHECKED from the generator's closed form: the flat stream
    is one stride-31 residue walk across all frames, and each frame's
    Y plane is a contiguous sub-range whose start offset shifts the
    walk's base by 31·a mod 256 — w·h ≤ 165 < 256, so the per-frame
    luma sum is a fully enumerated partial cycle. DuckDB never sees a
    byte. batch_size=256 (≤ ~3.5 KB/payload)."""
    out = _flagship_crawl(sf_dir)
    docs = read_documents(out)
    media = docs.map_batches(mm.media_rows_from_spans,
                             batch_format="pyarrow")
    vids = media.map_batches(
        lambda b: b.filter(pc.equal(b["media_type"], "video")),
        batch_format="pyarrow")
    stats = (vids.map_batches(fetch_video_payloads,
                              batch_format="pyarrow")
             .map_batches(mm.decode_video_batch, batch_size=256,
                          batch_format="pyarrow"))
    cols = ["media_ref", "frm_w", "frm_h", "fps_num", "n_frames",
            "n_bytes", "byte_sum", "byte_sq_sum", "y_sum"]
    return stats.select_columns(cols).to_pandas() \
        .sort_values("media_ref").reset_index(drop=True)


def q_media_resize_stats(sf_dir: str):
    """DECODE + RESIZE end to end — the geometric-transform stage of
    the image path made real: PPM payloads decoded (decode_ppm), then
    aspect-preserving NEAREST-NEIGHBOR resampled to a 16-px box with
    the integer floor mapping sy = y'·h // rh, sx = x'·w // rw (pure
    numpy fancy indexing in the resize_image_batch TASKS), reduced
    to exact integer statistics of the RESAMPLED raster.
    ORACLE-CHECKED: DuckDB enumerates the target grid (three chained
    unnest CTEs: rows, cols, channels — ≤768 terms/image) and reads
    the generator's stride-31 walk at each mapped source index, so
    the gate pins the resample's exact source-pixel selection, not
    just its dimensions. The corpus mixes pass-through (max(w,h)≤16)
    and downscale images, so both branches are exercised."""
    out = _flagship_crawl(sf_dir)
    docs = read_documents(out)
    media = docs.map_batches(mm.media_rows_from_spans,
                             batch_format="pyarrow")
    imgs = media.map_batches(
        lambda b: b.filter(pc.equal(b["media_type"], "image")),
        batch_format="pyarrow")
    stats = (imgs.map_batches(fetch_media_payloads,
                              batch_format="pyarrow")
             .map_batches(mm.resize_image_batch,
                          fn_kwargs={"max_side": 16}, batch_size=256,
                          batch_format="pyarrow"))
    cols = ["media_ref", "resized_w", "resized_h", "resized_sum",
            "resized_sq_sum"]
    return stats.select_columns(cols).to_pandas() \
        .sort_values("media_ref").reset_index(drop=True)


def _media_resize_oracle_sql(seed: int = 42, max_side: int = 16) -> str:
    """DuckDB twin of decode+NN-resize: target dims by integer floor
    (pass-through when max(w,h) <= max_side), then the resampled
    value at (y', x', c) is the walk at flat source index
    3·(sy·w + sx) + c with sy = y'·h // rh, sx = x'·w // rw."""
    from ..functions.sqlmirror import stable_hash64_cte

    with_sql, docs = _crawl_docs_ctes(seed=seed)
    sql = with_sql + (
        f", mrs_ref AS (SELECT 'm://' || host || '/' || "
        f"substr(md5(doc_id || '|' || CAST(i AS VARCHAR)), 1, 10) AS ref "
        f"FROM {docs}, unnest(generate_series(1, n_spans - 1, 2)) AS t(i))")
    w, c = stable_hash64_cte("SELECT ref FROM mrs_ref", "ref", {"hh": 0},
                             prefix="mrs_", include_with=False)
    S = max_side
    sql += w + (
        f", mrs_d AS (SELECT ref, "
        f"CAST(8 + (hh >> 32) % 24 AS BIGINT) AS w, "
        f"CAST(8 + (hh >> 40) % 16 AS BIGINT) AS h, "
        f"CAST(hh % 256 AS BIGINT) AS b FROM {c} WHERE hh % 3 = 0), "
        f"mrs_r AS (SELECT ref, w, h, b, "
        f"CASE WHEN greatest(w, h) <= {S} THEN w "
        f"ELSE w * {S} // greatest(w, h) END AS rw, "
        f"CASE WHEN greatest(w, h) <= {S} THEN h "
        f"ELSE h * {S} // greatest(w, h) END AS rh FROM mrs_d), "
        "mrs_y AS (SELECT ref, w, b, rw, (y * h) // rh AS sy "
        "FROM mrs_r, unnest(generate_series(0, rh - 1)) AS ty(y)), "
        "mrs_x AS (SELECT ref, w, b, sy, (x * w) // rw AS sx "
        "FROM mrs_y, unnest(generate_series(0, rw - 1)) AS tx(x)), "
        "mrs_v AS (SELECT ref, "
        "(b + 31 * (3 * (sy * w + sx) + ch)) % 256 AS v "
        "FROM mrs_x, unnest(generate_series(0, 2)) AS tc(ch)), "
        "mrs_s AS (SELECT ref, CAST(sum(v) AS BIGINT) AS s, "
        "CAST(sum(v * v) AS BIGINT) AS s2 FROM mrs_v GROUP BY 1) "
        "SELECT r.ref AS media_ref, CAST(r.rw AS INTEGER) AS resized_w, "
        "CAST(r.rh AS INTEGER) AS resized_h, "
        "CAST(s.s AS BIGINT) AS resized_sum, "
        "CAST(s.s2 AS BIGINT) AS resized_sq_sum "
        "FROM mrs_r r JOIN mrs_s s ON r.ref = s.ref ORDER BY 1")
    return sql


def _video_decode_oracle_sql(seed: int = 42) -> str:
    """DuckDB twin of the Y4M decode chain: video refs (hh % 3 = 2)
    from the crawl mirror; totals from full-cycle constants + an
    enumerated partial over n = f·3·w·h bytes; the luma sum expands
    (ref × frame × plane-index) in two chained unnest CTEs — per
    frame k the Y plane covers flat offsets [k·3wh, k·3wh + wh), a
    base-shifted partial cycle since 31·256 ≡ 0 (mod 256)."""
    from ..functions.sqlmirror import stable_hash64_cte

    with_sql, docs = _crawl_docs_ctes(seed=seed)
    sql = with_sql + (
        f", vid_ref AS (SELECT 'm://' || host || '/' || "
        f"substr(md5(doc_id || '|' || CAST(i AS VARCHAR)), 1, 10) AS ref "
        f"FROM {docs}, unnest(generate_series(1, n_spans - 1, 2)) AS t(i))")
    w, c = stable_hash64_cte("SELECT ref FROM vid_ref", "ref", {"hh": 0},
                             prefix="vid_", include_with=False)
    sql += w + (
        f", vid_n AS (SELECT ref, "
        f"CAST(4 + (hh >> 32) % 12 AS BIGINT) AS w, "
        f"CAST(4 + (hh >> 40) % 8 AS BIGINT) AS h, "
        f"CAST(2 + (hh >> 56) % 6 AS BIGINT) AS f, "
        f"CAST(hh % 256 AS BIGINT) AS b FROM {c} WHERE hh % 3 = 2), "
        "vid_t AS (SELECT ref, w, h, f, b, w * h AS wh, "
        "f * w * h * 3 AS n FROM vid_n), "
        "vid_p AS (SELECT ref, "
        "CAST(sum((b + 31 * i) % 256) AS BIGINT) AS psum, "
        "CAST(sum(((b + 31 * i) % 256) * ((b + 31 * i) % 256)) AS BIGINT) "
        "AS sqsum "
        "FROM vid_t, unnest(generate_series(0, n % 256 - 1)) AS u(i) "
        "GROUP BY 1), "
        # luma: expand frames, then plane offsets (wh <= 165 < 256,
        # so the per-frame partial IS the whole plane)
        "vid_fk AS (SELECT ref, b, wh, 3 * wh * k AS a FROM vid_t, "
        "unnest(generate_series(0, f - 1)) AS fk(k)), "
        "vid_y AS (SELECT ref, "
        "CAST(sum((b + 31 * a + 31 * i) % 256) AS BIGINT) AS ysum "
        "FROM vid_fk, unnest(generate_series(0, wh - 1)) AS yi(i) "
        "GROUP BY 1), "
        "vid_s AS (SELECT t.ref AS media_ref, t.w, t.h, t.f, t.n, "
        "(t.n // 256) * 32640 + coalesce(p.psum, 0) AS byte_sum, "
        "(t.n // 256) * 5559680 + coalesce(p.sqsum, 0) AS byte_sq_sum, "
        "y.ysum AS y_sum "
        "FROM vid_t t LEFT JOIN vid_p p ON t.ref = p.ref "
        "JOIN vid_y y ON t.ref = y.ref) "
        "SELECT media_ref, CAST(w AS INTEGER) AS frm_w, "
        "CAST(h AS INTEGER) AS frm_h, CAST(25 AS INTEGER) AS fps_num, "
        "CAST(f AS BIGINT) AS n_frames, CAST(n AS BIGINT) AS n_bytes, "
        "CAST(byte_sum AS BIGINT) AS byte_sum, "
        "CAST(byte_sq_sum AS BIGINT) AS byte_sq_sum, "
        "CAST(y_sum AS BIGINT) AS y_sum "
        "FROM vid_s ORDER BY media_ref")
    return sql


ROBOTS_N_URLS = 500


def _robots_gate_urls(seed: int = 42) -> pa.Table:
    """The robots gates' (url, host) rows: the seed list's hosts with
    path ids drawn over the full 24 bits. ``make_seed_urls`` draws path
    ids below 4n, so at n = 500 every path starts ``/p00`` and the
    rules keyed on the first two hex digits (the Allow override)
    would almost never fire."""
    hosts = make_seed_urls(ROBOTS_N_URLS, seed=seed)["host"]
    paths = np.random.default_rng(seed).integers(0, 1 << 24, len(hosts))
    return pa.table({"url": [f"http://{h}/p{p:06x}" for h, p in
                             zip(hosts.to_pylist(), paths)],
                     "host": hosts})


class _RobotsVerdictStage:
    """Actor-pool robots evaluation: RealRobots built ONCE per actor
    (per-host parse results cache inside it), per-URL decisions per
    batch — the A1 stateful-stage shape."""

    def __init__(self, seed: int = 42):
        from ..state.politeness import RealRobots
        self.robots = RealRobots(seed=seed)

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        hosts = batch["host"].to_pylist()
        allowed = np.empty(len(urls), np.bool_)
        mlen = np.empty(len(urls), np.int64)
        delay = np.empty(len(urls), np.int64)
        for i, (u, h) in enumerate(zip(urls, hosts)):
            a, ln = self.robots.decision(u)
            allowed[i], mlen[i] = a, ln
            delay[i] = int(self.robots.crawl_delay(h) or 0)
        return pa.table({"host": batch["host"],
                         "allowed": pa.array(allowed),
                         "match_len": pa.array(mlen, pa.int64()),
                         "crawl_delay": pa.array(delay, pa.int64())})


def q_robots_real_verdicts(sf_dir: str):
    """REAL robots.txt END TO END — generate → parse → match, no
    hash-simulated verdicts anywhere on this path: every host's
    synthetic robots.txt TEXT (decoy bot record, stacked user-agents,
    Crawl-delay, wildcard + $-anchored patterns, an Allow override
    inside a disallowed tree — corpus.make_robots_txt) is parsed by
    the REP parser (functions.robots, RFC 9309 / Google-REP
    longest-match + allow-wins-tie), and the seed corpus's URLs are
    matched through the compiled rules inside an ACTOR-POOL stage.
    Output: per-host verdict aggregate (n_urls, n_allowed,
    n_disallowed, sum of winning pattern lengths, crawl_delay).
    ORACLE-CHECKED: the DuckDB twin replays every verdict from the
    generator's closed form (rule nibbles from the host-hash mirror,
    path hex digits read straight off the URL text) without parsing
    any robots.txt — so text-parsing, group selection, and precedence
    must all be exactly right for the aggregate to hash-match.
    The LIVE engine keeps the checkpoint-stable simulated
    RobotsCache; RealRobots is its drop-in production twin (same
    interface + state contract)."""
    import ray.data as rd
    ds = rd.from_arrow(_robots_gate_urls(42))
    verdicts = ds.map_batches(_RobotsVerdictStage,
                              fn_constructor_kwargs={"seed": 42},
                              concurrency=(1, 2), num_cpus=1,
                              batch_format="pyarrow")
    out = verdicts.to_pandas()
    g = out.groupby("host", as_index=False).agg(
        n_urls=("allowed", "size"),
        n_allowed=("allowed", "sum"),
        sum_match_len=("match_len", "sum"),
        crawl_delay=("crawl_delay", "max"))
    g["n_allowed"] = g["n_allowed"].astype("int64")
    g["n_disallowed"] = (g["n_urls"] - g["n_allowed"]).astype("int64")
    g["n_urls"] = g["n_urls"].astype("int64")
    return g[["host", "crawl_delay", "n_urls", "n_allowed",
              "n_disallowed", "sum_match_len"]] \
        .sort_values("host").reset_index(drop=True)


def _robots_real_oracle_sql(seed: int = 42) -> str:
    """DuckDB twin of the robots text chain: rule nibbles
    d1/d2/e/g/delay from the host-hash mirror; per URL the path hex
    digits h1 (first), h2 (second), h6 (last) come from substr over
    the URL text ('http://hN.example/pXXXXXX'); precedence replayed
    as CASE in winning-length order (allow len-4 first — the
    allow-wins-tie against the $-anchored len-4 disallow)."""
    from ..functions.sqlmirror import stable_hash64_cte
    from ..sources.corpus import _ROBOTS_SALT

    urls = _robots_gate_urls(seed)["url"].to_pylist()
    values = ", ".join(f"('{u}')" for u in urls)
    w, c = stable_hash64_cte(
        f"SELECT DISTINCT split_part(column0, '/', 3) AS host "
        f"FROM (VALUES {values}) v(column0)", "host",
        {"rh": seed ^ _ROBOTS_SALT}, prefix="rb_")
    return w + (
        f", rb_rules AS (SELECT host, "
        f"substr('0123456789abcdef', CAST(rh % 16 AS INTEGER) + 1, 1) AS d1, "
        f"substr('0123456789abcdef', CAST((rh >> 4) % 16 AS INTEGER) + 1, 1) AS d2, "
        f"substr('0123456789abcdef', CAST((rh >> 8) % 16 AS INTEGER) + 1, 1) AS e, "
        f"substr('0123456789abcdef', CAST((rh >> 16) % 16 AS INTEGER) + 1, 1) AS g, "
        f"CAST(1 + (rh >> 12) % 5 AS BIGINT) AS delay FROM {c}), "
        f"rb_u AS (SELECT column0 AS url, "
        f"split_part(column0, '/', 3) AS host, "
        f"split_part(column0, '/', 4) AS pseg "
        f"FROM (VALUES {values}) v(column0)), "
        "rb_v AS (SELECT u.host, r.delay, "
        "substr(u.pseg, 2, 1) AS h1, substr(u.pseg, 3, 1) AS h2, "
        "substr(u.pseg, 7, 1) AS h6, r.d1, r.d2, r.e, r.g "
        "FROM rb_u u JOIN rb_rules r ON u.host = r.host), "
        "rb_d AS (SELECT host, delay, "
        "CASE WHEN h1 = d1 AND h2 = e THEN TRUE "
        "WHEN h6 = g THEN FALSE "
        "WHEN h1 = d1 OR h1 = d2 THEN FALSE "
        "ELSE TRUE END AS allowed, "
        "CASE WHEN (h1 = d1 AND h2 = e) OR h6 = g THEN 4 "
        "WHEN h1 = d1 OR h1 = d2 THEN 3 ELSE 0 END AS mlen "
        "FROM rb_v) "
        "SELECT host, CAST(delay AS BIGINT) AS crawl_delay, "
        "CAST(count(*) AS BIGINT) AS n_urls, "
        "CAST(count(*) FILTER (allowed) AS BIGINT) AS n_allowed, "
        "CAST(count(*) FILTER (NOT allowed) AS BIGINT) AS n_disallowed, "
        "CAST(sum(mlen) AS BIGINT) AS sum_match_len "
        "FROM rb_d GROUP BY 1, 2 ORDER BY 1")


def _sitemap_batch(batch: pa.Table, *, seed: int = 42) -> pa.Table:
    """Sitemap fetch+parse: one generate → parse per host row, entries
    exploded to output rows; an entry without ``<priority>`` gets a
    null ``priority_e1``."""
    from ..functions.sitemap import parse_sitemap
    from ..sources.corpus import make_sitemap_xml
    hosts, locs, mods, freqs, prios = [], [], [], [], []
    for host in batch["host"].to_pylist():
        for e in parse_sitemap(make_sitemap_xml(host, seed)):
            hosts.append(host)
            locs.append(e["loc"])
            mods.append(e["lastmod"])
            freqs.append(e["changefreq"])
            prios.append(None if e["priority"] is None
                         else int(round(e["priority"] * 10)))
    return pa.table({"host": pa.array(hosts, pa.string()),
                     "loc": pa.array(locs, pa.string()),
                     "lastmod": pa.array(mods, pa.string()),
                     "changefreq": pa.array(freqs, pa.string()),
                     "priority_e1": pa.array(prios, pa.int64())})


def q_sitemap_extract(sf_dir: str):
    """SITEMAP DISCOVERY end to end — the parsing half of the
    Sitemap: line every synthetic robots.txt advertises: per host a
    REAL sitemaps.org urlset document is generated
    (corpus.make_sitemap_xml — XML declaration, namespaced root, a
    commented-out DECOY <url> block that must not be emitted,
    optional fields omitted on every 5th entry) and parsed by the
    streaming scanner (functions.sitemap.parse_sitemap, no XML lib —
    one linear pass, the 100-TB per-fetched-sitemap shape), entries
    exploded to one row each by map_batches tasks.
    ORACLE-CHECKED: the DuckDB twin replays every entry — loc hex
    path, lastmod day, changefreq cycle, priority nibble, and the
    every-5th omission — from the generator's closed form without
    touching XML."""
    import ray.data as rd
    tbl = make_seed_urls(ROBOTS_N_URLS, seed=42)
    hosts = sorted(set(tbl["host"].to_pylist()))
    ds = rd.from_arrow(pa.table({"host": pa.array(hosts, pa.string())}))
    out = ds.map_batches(_sitemap_batch, fn_kwargs={"seed": 42},
                         batch_format="pyarrow").to_pandas()
    return out.sort_values(["host", "loc"]).reset_index(drop=True)


def _sitemap_oracle_sql(seed: int = 42) -> str:
    """DuckDB twin of the sitemap chain: hosts from the seed VALUES,
    sh from the hash mirror, entries k via generate_series with the
    generator's closed forms (hex path via lpad(hex(..)), every-5th
    optional-field omission as NULL)."""
    from ..functions.sqlmirror import stable_hash64_cte
    from ..sources.corpus import _SITEMAP_SALT

    urls = make_seed_urls(ROBOTS_N_URLS, seed=seed)["url"].to_pylist()
    values = ", ".join(f"('{u}')" for u in urls)
    w, c = stable_hash64_cte(
        f"SELECT DISTINCT split_part(column0, '/', 3) AS host "
        f"FROM (VALUES {values}) v(column0)", "host",
        {"sh": seed ^ _SITEMAP_SALT}, prefix="sm_")
    return w + (
        f", sm_n AS (SELECT host, sh, "
        f"CAST(5 + sh % 20 AS BIGINT) AS n FROM {c}), "
        "sm_k AS (SELECT host, sh, k FROM sm_n, "
        "unnest(generate_series(0, n - 1)) AS t(k)), "
        "sm_e AS (SELECT host, k, "
        "CAST(xor(sh >> 8, CAST(k * 2654435761 AS UBIGINT)) % 16777216 "
        "AS BIGINT) AS pid, "
        "CAST(1 + ((sh >> (k % 32)) & 7) AS BIGINT) AS prio, "
        "CAST(1 + ((sh >> (k % 16)) & 15) AS BIGINT) AS day "
        "FROM sm_k) "
        "SELECT host, "
        "'http://' || host || '/p' || lower(lpad(hex(pid), 6, '0')) AS loc, "
        "CASE WHEN k % 5 = 4 THEN NULL "
        "ELSE '2026-07-' || lpad(CAST(day AS VARCHAR), 2, '0') END "
        "AS lastmod, "
        "CASE WHEN k % 5 = 4 THEN NULL "
        "WHEN k % 3 = 0 THEN 'daily' WHEN k % 3 = 1 THEN 'weekly' "
        "ELSE 'monthly' END AS changefreq, "
        "prio AS priority_e1 "
        "FROM sm_e ORDER BY host, loc")


def _http_fetch_batch(batch: pa.Table, *, seed: int = 42) -> pa.Table:
    """Raw-HTTP fetch+parse: per URL, the synthetic origin
    serves real HTTP/1.1 bytes (chunked 200s, 301s with Location,
    error statuses), the wire parser de-frames them, and 301s are
    followed ONE hop (the bounded-redirect policy; the second
    response's status is reported, not chased further)."""
    from ..functions.http import parse_http_response
    from ..sources.corpus import make_http_response
    urls = batch["url"].to_pylist()
    k = len(urls)
    st = np.empty(k, np.int64)
    nh = np.empty(k, np.int64)
    hops = np.empty(k, np.int64)
    fin = np.empty(k, np.int64)
    bl = np.empty(k, np.int64)
    bs = np.empty(k, np.int64)
    bq = np.empty(k, np.int64)
    for i, url in enumerate(urls):
        status, headers, body = parse_http_response(
            make_http_response(url, seed))
        arr = np.frombuffer(body, np.uint8).astype(np.int64)
        st[i], nh[i] = status, len(headers)
        bl[i], bs[i], bq[i] = arr.size, arr.sum(), (arr * arr).sum()
        if status == 301:
            s2, _, _ = parse_http_response(
                make_http_response(headers["location"], seed))
            hops[i], fin[i] = 1, s2
        else:
            hops[i], fin[i] = 0, status
    return pa.table({"url": batch["url"],
                     "status": pa.array(st, pa.int64()),
                     "n_headers": pa.array(nh, pa.int64()),
                     "hops": pa.array(hops, pa.int64()),
                     "final_status": pa.array(fin, pa.int64()),
                     "body_len": pa.array(bl, pa.int64()),
                     "body_sum": pa.array(bs, pa.int64()),
                     "body_sq_sum": pa.array(bq, pa.int64())})


def q_http_fetch_stats(sf_dir: str):
    """RAW HTTP END TO END — real wire bytes through a real parser:
    every seed URL gets a synthetic-origin HTTP/1.1 response
    (corpus.make_http_response — chunked transfer coding with a chunk
    extension on 200s, Location redirects on 301s, error statuses),
    parsed by functions.http.parse_http_response (status line, header
    block, chunk de-framing), with 301s followed one hop. Per-URL
    output: status, header count, redirect hops + final status, and
    exact integer body statistics that gate the chunk de-framing
    byte-for-byte. ORACLE-CHECKED: the DuckDB twin replays everything
    from the URL-hash closed form — including a SECOND hash recursion
    over the constructed redirect-target URL strings to reproduce
    final_status — without seeing a single response byte. DISTINCT
    urls (the seed list's ~2% dup rate would double identical rows
    on both sides; DISTINCT keeps the gate sharp)."""
    import ray.data as rd
    tbl = make_seed_urls(ROBOTS_N_URLS, seed=42)
    urls = sorted(set(tbl["url"].to_pylist()))
    ds = rd.from_arrow(pa.table({"url": pa.array(urls, pa.string())}))
    out = ds.map_batches(_http_fetch_batch, fn_kwargs={"seed": 42},
                         batch_format="pyarrow").to_pandas()
    return out.sort_values("url").reset_index(drop=True)


def _http_parse_oracle_sql(seed: int = 42) -> str:
    """DuckDB twin of the raw-HTTP chain: r = h % 100 splits the
    status classes; 200 bodies are the stride-31 walk (full-cycle
    constants + enumerated partial over n % 256 terms); 404/500
    bodies are the fixed 'error' (Σ 554, Σ² 61510); redirect targets
    are REBUILT as strings and hashed in a second recursion to
    replay final_status."""
    from ..functions.sqlmirror import stable_hash64_cte
    from ..sources.corpus import _HTTP_SALT

    urls = sorted(set(
        make_seed_urls(ROBOTS_N_URLS, seed=seed)["url"].to_pylist()))
    values = ", ".join(f"('{u}')" for u in urls)
    w1, c1 = stable_hash64_cte(
        f"SELECT column0 AS url FROM (VALUES {values}) v(column0)",
        "url", {"h": seed ^ _HTTP_SALT}, prefix="ht_")
    sql = w1 + (
        f", ht_c AS (SELECT url, h, h % 100 AS r, "
        f"split_part(url, '/', 3) AS host FROM {c1}), "
        # 200 bodies: walk parameters
        "ht_200 AS (SELECT url, CAST(100 + (h >> 8) % 400 AS BIGINT) AS n, "
        "CAST((h >> 16) % 256 AS BIGINT) AS b FROM ht_c WHERE r < 80), "
        "ht_p AS (SELECT url, CAST(sum((b + 31 * i) % 256) AS BIGINT) "
        "AS psum, CAST(sum(((b + 31 * i) % 256) * ((b + 31 * i) % 256)) "
        "AS BIGINT) AS sqsum FROM ht_200, "
        "unnest(generate_series(0, n % 256 - 1)) AS u(i) GROUP BY 1), "
        # redirect targets, rebuilt as strings
        "ht_loc AS (SELECT url, 'http://' || host || '/p' || "
        "lower(lpad(hex(CAST((h >> 8) % 16777216 AS BIGINT)), 6, '0')) "
        "AS target FROM ht_c WHERE r >= 80 AND r < 90)")
    w2, c2 = stable_hash64_cte(
        "SELECT target, url FROM ht_loc", "target",
        {"h2": seed ^ _HTTP_SALT}, carry_cols=("url",), prefix="ht2_",
        include_with=False)
    sql += w2 + (
        f", ht_fin AS (SELECT url, CASE WHEN h2 % 100 < 80 THEN 200 "
        f"WHEN h2 % 100 < 90 THEN 301 WHEN h2 % 100 < 95 THEN 404 "
        f"ELSE 500 END AS fin FROM {c2}) "
        "SELECT c.url, "
        "CAST(CASE WHEN c.r < 80 THEN 200 WHEN c.r < 90 THEN 301 "
        "WHEN c.r < 95 THEN 404 ELSE 500 END AS BIGINT) AS status, "
        # 200s: content-type, x-request-id, etag, transfer-encoding,
        # + content-encoding on the gzip half ((h>>40)&1)
        "CAST(CASE WHEN c.r < 80 THEN 4 + ((c.h >> 40) & 1) "
        "ELSE 2 END AS BIGINT) AS n_headers, "
        "CAST(CASE WHEN c.r >= 80 AND c.r < 90 THEN 1 ELSE 0 END "
        "AS BIGINT) AS hops, "
        "CAST(CASE WHEN c.r >= 80 AND c.r < 90 THEN f.fin "
        "WHEN c.r < 80 THEN 200 WHEN c.r < 95 THEN 404 ELSE 500 END "
        "AS BIGINT) AS final_status, "
        "CAST(CASE WHEN c.r < 80 THEN t.n "
        "WHEN c.r < 90 THEN 0 ELSE 5 END AS BIGINT) AS body_len, "
        "CAST(CASE WHEN c.r < 80 THEN (t.n // 256) * 32640 "
        "+ coalesce(p.psum, 0) WHEN c.r < 90 THEN 0 ELSE 554 END "
        "AS BIGINT) AS body_sum, "
        "CAST(CASE WHEN c.r < 80 THEN (t.n // 256) * 5559680 "
        "+ coalesce(p.sqsum, 0) WHEN c.r < 90 THEN 0 ELSE 61510 END "
        "AS BIGINT) AS body_sq_sum "
        "FROM ht_c c "
        "LEFT JOIN ht_200 t ON c.url = t.url "
        "LEFT JOIN ht_p p ON c.url = p.url "
        "LEFT JOIN ht_fin f ON c.url = f.url "
        "ORDER BY c.url")
    return sql


def _http_revalidate_batch(batch: pa.Table, *, seed: int = 42) -> pa.Table:
    """Conditional refetch: first GET parses the response
    and captures the ETag; a second GET presents it via
    If-None-Match and must observe the 304 path (empty body, ETag
    echoed) — the recrawl-without-redownload pattern a 100-TB
    refresh crawl lives on."""
    from ..functions.http import parse_http_response
    from ..sources.corpus import make_http_response
    urls = batch["url"].to_pylist()
    k = len(urls)
    st = np.empty(k, np.int64)
    st2 = np.empty(k, np.int64)
    b2 = np.empty(k, np.int64)
    etags = []
    for i, url in enumerate(urls):
        status, headers, _ = parse_http_response(
            make_http_response(url, seed))
        st[i] = status
        if status == 200:
            s2, h2, body2 = parse_http_response(make_http_response(
                url, seed, if_none_match=headers["etag"]))
            st2[i], b2[i] = s2, len(body2)
            etags.append(h2["etag"].strip('"'))
        else:
            st2[i], b2[i] = status, -1
            etags.append("")
    return pa.table({"url": batch["url"],
                     "status": pa.array(st, pa.int64()),
                     "second_status": pa.array(st2, pa.int64()),
                     "second_body_len": pa.array(b2, pa.int64()),
                     "etag_hex": pa.array(etags, pa.string())})


def q_http_revalidate_stats(sf_dir: str):
    """HTTP CONDITIONAL REVALIDATION end to end: fetch → capture the
    200's ETag from the parsed header block → refetch with
    If-None-Match → the origin's 304 Not Modified must come back with
    an empty body and the validator echoed. Per-URL output gates the
    full loop: first/second status, second body length (0 on the 304
    path), and the ETag hex parsed OUT OF the 304 response's headers.
    ORACLE-CHECKED: second_status/body are closed-form in the status
    class; the validator is substr(md5(url), 1, 8) computed by DuckDB
    directly — so the ETag must survive generate → header-emit →
    parse → conditional-request → 304-echo → re-parse unchanged."""
    import ray.data as rd
    tbl = make_seed_urls(ROBOTS_N_URLS, seed=42)
    urls = sorted(set(tbl["url"].to_pylist()))
    ds = rd.from_arrow(pa.table({"url": pa.array(urls, pa.string())}))
    out = ds.map_batches(_http_revalidate_batch, fn_kwargs={"seed": 42},
                         batch_format="pyarrow").to_pandas()
    return out.sort_values("url").reset_index(drop=True)


def _http_revalidate_oracle_sql(seed: int = 42) -> str:
    from ..functions.sqlmirror import stable_hash64_cte
    from ..sources.corpus import _HTTP_SALT

    urls = sorted(set(
        make_seed_urls(ROBOTS_N_URLS, seed=seed)["url"].to_pylist()))
    values = ", ".join(f"('{u}')" for u in urls)
    w, c = stable_hash64_cte(
        f"SELECT column0 AS url FROM (VALUES {values}) v(column0)",
        "url", {"h": seed ^ _HTTP_SALT}, prefix="hr_")
    return w + (
        f", hr_c AS (SELECT url, h % 100 AS r FROM {c}) "
        "SELECT url, "
        "CAST(CASE WHEN r < 80 THEN 200 WHEN r < 90 THEN 301 "
        "WHEN r < 95 THEN 404 ELSE 500 END AS BIGINT) AS status, "
        "CAST(CASE WHEN r < 80 THEN 304 WHEN r < 90 THEN 301 "
        "WHEN r < 95 THEN 404 ELSE 500 END AS BIGINT) AS second_status, "
        "CAST(CASE WHEN r < 80 THEN 0 ELSE -1 END AS BIGINT) "
        "AS second_body_len, "
        "CASE WHEN r < 80 THEN substr(md5(url), 1, 8) ELSE '' END "
        "AS etag_hex "
        "FROM hr_c ORDER BY url")


def _indexability_batch(batch: pa.Table, *, seed: int = 42) -> pa.Table:
    """Page fetch + indexability parse: the synthetic
    origin serves a real HTML page per URL; the stage reads robots
    meta directives (order-independent attribute parsing), the
    canonical link, and the post-clean_html followable link count."""
    from ..stages.html import page_indexability
    from ..sources.corpus import make_html_page
    urls = batch["url"].to_pylist()
    rows = [page_indexability(make_html_page(u, seed))
            for u in urls]
    return pa.table({
        "url": batch["url"],
        "noindex": pa.array([r["noindex"] for r in rows]),
        "nofollow": pa.array([r["nofollow"] for r in rows]),
        "canonical": pa.array([r["canonical"] for r in rows],
                              pa.string()),
        "n_links": pa.array([r["n_links"] for r in rows],
                            pa.int64())})


def q_indexability_stats(sf_dir: str):
    """PAGE INDEXABILITY end to end — the fetch→enqueue decision
    layer over real HTML: per seed URL the origin serves a page
    (corpus.make_html_page) whose ``<meta name="robots">`` attribute
    ORDER is hash-flipped (defeating fixed-pattern matching), whose
    ``<script>`` block hides a decoy anchor (link counting must run
    AFTER clean_html), and whose canonical link / anchor list are
    closed-form. The stage (stages.html.page_indexability) emits
    per-URL noindex/nofollow flags, canonical target, and followable
    link count. ORACLE-CHECKED: the DuckDB twin replays all four
    columns from the URL-hash closed form without parsing HTML."""
    import ray.data as rd
    tbl = make_seed_urls(ROBOTS_N_URLS, seed=42)
    urls = sorted(set(tbl["url"].to_pylist()))
    ds = rd.from_arrow(pa.table({"url": pa.array(urls, pa.string())}))
    out = ds.map_batches(_indexability_batch, fn_kwargs={"seed": 42},
                         batch_format="pyarrow").to_pandas()
    return out.sort_values("url").reset_index(drop=True)


def _indexability_oracle_sql(seed: int = 42) -> str:
    from ..functions.sqlmirror import stable_hash64_cte
    from ..sources.corpus import _HTML_SALT

    urls = sorted(set(
        make_seed_urls(ROBOTS_N_URLS, seed=seed)["url"].to_pylist()))
    values = ", ".join(f"('{u}')" for u in urls)
    w, c = stable_hash64_cte(
        f"SELECT column0 AS url FROM (VALUES {values}) v(column0)",
        "url", {"h": seed ^ _HTML_SALT}, prefix="ix_")
    return w + (
        f", ix_c AS (SELECT url, h, h % 100 AS m, "
        f"split_part(url, '/', 3) AS host FROM {c}) "
        "SELECT url, "
        "m < 15 AS noindex, "
        "m >= 10 AND m < 25 AS nofollow, "
        "CASE WHEN (h >> 8) % 100 < 20 THEN 'http://' || host || '/p' || "
        "lower(lpad(hex(CAST((h >> 16) % 16777216 AS BIGINT)), 6, '0')) "
        "ELSE '' END AS canonical, "
        "CAST(2 + (h >> 40) % 4 AS BIGINT) AS n_links "
        "FROM ix_c ORDER BY url")


class _FetchDecisionStage:
    """Actor-pool composition of the whole per-URL decision chain a
    production crawl loop runs between dequeue and enqueue-children:
    REAL robots.txt verdict → REAL HTTP fetch+parse → REAL HTML
    indexability — every layer the text/wire path, nothing
    hash-simulated."""

    def __init__(self, seed: int = 42):
        from ..state.politeness import RealRobots
        self.seed = seed
        self.robots = RealRobots(seed=seed)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.http import parse_http_response
        from ..sources.corpus import make_html_page, make_http_response
        from ..stages.html import page_indexability
        urls = batch["url"].to_pylist()
        k = len(urls)
        disp, st, nl = [], np.zeros(k, np.int64), np.zeros(k, np.int64)
        for i, url in enumerate(urls):
            if not self.robots.allowed(url):
                disp.append("denied_robots")
                continue
            status, _, _ = parse_http_response(
                make_http_response(url, self.seed))
            st[i] = status
            if status == 301:
                disp.append("redirect")
            elif status != 200:
                disp.append("error")
            else:
                ix = page_indexability(make_html_page(url, self.seed))
                if ix["noindex"]:
                    disp.append("noindex")
                else:
                    disp.append("indexed")
                nl[i] = 0 if ix["nofollow"] else ix["n_links"]
        return pa.table({"url": batch["url"],
                         "disposition": pa.array(disp, pa.string()),
                         "status": pa.array(st, pa.int64()),
                         "n_follow_links": pa.array(nl, pa.int64())})


def q_fetch_decision_chain(sf_dir: str):
    """THE COMPOSED CRAWL DECISION CHAIN — robots.txt → HTTP → HTML
    indexability per URL, every layer running its REAL text/wire
    parser over synthetic-origin bytes (nothing hash-simulated on
    this path): a robots-denied URL never fetches; a 301 is
    'redirect'; a 4xx/5xx is 'error'; a 200 parses to 'noindex' or
    'indexed', and nofollow zeroes its followable link count. This is
    the per-URL disposition function a 100-TB crawl loop applies a
    billion times. ORACLE-CHECKED: the DuckDB twin composes the THREE
    independent closed forms (robots nibbles from the host hash, HTTP
    status class from the URL hash, robots-meta class from a third
    salt's hash) through the same precedence — any cross-layer
    composition slip (running indexability on an error page, counting
    links under nofollow, fetching a denied URL) hash-mismatches."""
    import ray.data as rd
    urls = sorted(set(_robots_gate_urls(42)["url"].to_pylist()))
    ds = rd.from_arrow(pa.table({"url": pa.array(urls, pa.string())}))
    out = ds.map_batches(_FetchDecisionStage,
                         fn_constructor_kwargs={"seed": 42},
                         concurrency=(1, 2), num_cpus=1,
                         batch_format="pyarrow").to_pandas()
    return out.sort_values("url").reset_index(drop=True)


def _fetch_decision_oracle_sql(seed: int = 42) -> str:
    from ..functions.sqlmirror import stable_hash64_cte
    from ..sources.corpus import _HTML_SALT, _HTTP_SALT, _ROBOTS_SALT

    urls = sorted(set(_robots_gate_urls(seed)["url"].to_pylist()))
    values = ", ".join(f"('{u}')" for u in urls)
    w1, c1 = stable_hash64_cte(
        f"SELECT DISTINCT split_part(column0, '/', 3) AS host "
        f"FROM (VALUES {values}) v(column0)", "host",
        {"rh": seed ^ _ROBOTS_SALT}, prefix="fd_")
    sql = w1
    w2, c2 = stable_hash64_cte(
        f"SELECT column0 AS url FROM (VALUES {values}) v(column0)",
        "url", {"hh": seed ^ _HTTP_SALT, "hx": seed ^ _HTML_SALT},
        prefix="fd2_", include_with=False)
    sql += w2 + (
        f", fd_r AS (SELECT host, "
        f"substr('0123456789abcdef', CAST(rh % 16 AS INTEGER) + 1, 1) AS d1, "
        f"substr('0123456789abcdef', CAST((rh >> 4) % 16 AS INTEGER) + 1, 1) AS d2, "
        f"substr('0123456789abcdef', CAST((rh >> 8) % 16 AS INTEGER) + 1, 1) AS e, "
        f"substr('0123456789abcdef', CAST((rh >> 16) % 16 AS INTEGER) + 1, 1) AS g "
        f"FROM {c1}), "
        f"fd_u AS (SELECT url, hh % 100 AS r, hx % 100 AS m, "
        f"CAST(2 + (hx >> 40) % 4 AS BIGINT) AS nl, "
        f"split_part(url, '/', 3) AS host, "
        f"split_part(url, '/', 4) AS pseg FROM {c2}), "
        "fd_v AS (SELECT u.url, u.r, u.m, u.nl, "
        "CASE WHEN substr(u.pseg, 2, 1) = x.d1 "
        "AND substr(u.pseg, 3, 1) = x.e THEN TRUE "
        "WHEN substr(u.pseg, 7, 1) = x.g THEN FALSE "
        "WHEN substr(u.pseg, 2, 1) = x.d1 "
        "OR substr(u.pseg, 2, 1) = x.d2 THEN FALSE "
        "ELSE TRUE END AS rob_ok "
        "FROM fd_u u JOIN fd_r x ON u.host = x.host) "
        "SELECT url, "
        "CASE WHEN NOT rob_ok THEN 'denied_robots' "
        "WHEN r >= 80 AND r < 90 THEN 'redirect' "
        "WHEN r >= 90 THEN 'error' "
        "WHEN m < 15 THEN 'noindex' ELSE 'indexed' END AS disposition, "
        "CAST(CASE WHEN NOT rob_ok THEN 0 WHEN r < 80 THEN 200 "
        "WHEN r < 90 THEN 301 WHEN r < 95 THEN 404 ELSE 500 END "
        "AS BIGINT) AS status, "
        "CAST(CASE WHEN rob_ok AND r < 80 AND NOT (m >= 10 AND m < 25) "
        "THEN nl ELSE 0 END AS BIGINT) AS n_follow_links "
        "FROM fd_v ORDER BY url")
    return sql


def _media_decode_oracle_sql(seed: int = 42) -> str:
    """DuckDB twin of the PPM decode chain: image refs (hh % 3 = 0)
    from the crawl mirror, pixel statistics from the generator's
    closed form — (n // 256) full residue cycles at Σv = 32640 and
    Σv² = 5,559,680, plus an enumerated partial cycle of n % 256
    terms (b + 31·i mod 256). LEFT JOIN keeps images whose raster
    length is an exact multiple of 256 (empty partial)."""
    from ..functions.sqlmirror import stable_hash64_cte

    with_sql, docs = _crawl_docs_ctes(seed=seed)
    sql = with_sql + (
        f", mdd_ref AS (SELECT 'm://' || host || '/' || "
        f"substr(md5(doc_id || '|' || CAST(i AS VARCHAR)), 1, 10) AS ref "
        f"FROM {docs}, unnest(generate_series(1, n_spans - 1, 2)) AS t(i))")
    w, c = stable_hash64_cte("SELECT ref FROM mdd_ref", "ref", {"hh": 0},
                             prefix="mdd_", include_with=False)
    sql += w + (
        f", mdd_img AS (SELECT ref, "
        f"CAST(8 + (hh >> 32) % 24 AS BIGINT) AS w, "
        f"CAST(8 + (hh >> 40) % 16 AS BIGINT) AS h, "
        f"CAST(hh % 256 AS BIGINT) AS b FROM {c} WHERE hh % 3 = 0), "
        "mdd_n AS (SELECT ref, w, h, b, 3 * w * h AS n FROM mdd_img), "
        "mdd_p AS (SELECT ref, "
        "CAST(sum((b + 31 * i) % 256) AS BIGINT) AS psum, "
        "CAST(sum(((b + 31 * i) % 256) * ((b + 31 * i) % 256)) AS BIGINT) "
        "AS sqsum "
        "FROM mdd_n, unnest(generate_series(0, n % 256 - 1)) AS u(i) "
        "GROUP BY 1), "
        "mdd_s AS (SELECT m.ref AS media_ref, m.w, m.h, m.n, "
        "(m.n // 256) * 32640 + coalesce(p.psum, 0) AS pixel_sum, "
        "(m.n // 256) * 5559680 + coalesce(p.sqsum, 0) AS pixel_sq_sum "
        "FROM mdd_n m LEFT JOIN mdd_p p ON m.ref = p.ref) "
        "SELECT media_ref, CAST(w AS INTEGER) AS img_w, "
        "CAST(h AS INTEGER) AS img_h, CAST(n AS BIGINT) AS n_bytes, "
        "CAST(pixel_sum AS BIGINT) AS pixel_sum, "
        "CAST(pixel_sq_sum AS BIGINT) AS pixel_sq_sum, "
        "CAST(pixel_sum * 1000 // n AS BIGINT) AS mean_e3 "
        "FROM mdd_s ORDER BY media_ref")
    return sql


def _m8_oracle_sql() -> str:
    """DuckDB twin of randomize_batch: recompute stable_hash64 per URL
    for the three salted seeds via the shared SQL hash mirror
    (functions/sqlmirror.py), then draw from the literal lists."""
    from ..functions.randomizers import (ACCEPT_LANGUAGES, USER_AGENTS,
                                         VIEWPORTS, _LANG_SALT, _UA_SALT,
                                         _VP_SALT)
    from ..functions.sqlmirror import stable_hash64_cte
    SEED = 42

    def lst(values) -> str:
        inner = ", ".join("'" + str(v).replace("'", "''") + "'"
                          for v in values)
        return f"[{inner}]"

    with_sql, last = stable_hash64_cte(
        "SELECT 'http://' || source || '.example/d' || "
        "CAST(doc_id AS VARCHAR) AS url FROM documents", "url",
        {"hua": SEED ^ _UA_SALT, "hlg": SEED ^ _LANG_SALT,
         "hvp": SEED ^ _VP_SALT})
    vw = [v[0] for v in VIEWPORTS]
    vh = [v[1] for v in VIEWPORTS]
    return with_sql + (
        f" SELECT url, "
        f"list_extract({lst(USER_AGENTS)}, 1 + CAST(hua % {len(USER_AGENTS)} "
        f"AS INT)) AS user_agent, "
        f"list_extract({lst(ACCEPT_LANGUAGES)}, 1 + CAST(hlg % "
        f"{len(ACCEPT_LANGUAGES)} AS INT)) AS accept_language, "
        f"list_extract([{', '.join(map(str, vw))}], 1 + CAST(hvp % "
        f"{len(VIEWPORTS)} AS INT)) AS viewport_w, "
        f"list_extract([{', '.join(map(str, vh))}], 1 + CAST(hvp % "
        f"{len(VIEWPORTS)} AS INT)) AS viewport_h FROM {last}")


def _simhash_sig_cte(seed: int = 42) -> tuple[str, str]:
    """DuckDB twin of simhash64 (stages/dedup.py:534-564): hash each
    DISTINCT token with the shared recursive-CTE stable_hash64 mirror,
    take the count-weighted majority per bit (bit j set iff
    2 * Σ c·bit_j(h) > Σ c — identical integer arithmetic to the
    numpy signed column sums), and reassemble the 64-bit signature in
    UBIGINT (HUGEINT sums lose exactness in pandas, so the final sum
    is cast back). Empty/whitespace-only docs get signature 0 via the
    LEFT JOIN, matching the Python early-return. Returns
    (with_clause, cte_name) where the CTE has (doc_id, simhash)."""
    from ..functions.sqlmirror import stable_hash64_cte
    with_sql, last = stable_hash64_cte(
        "SELECT DISTINCT unnest(list_filter(string_split_regex(text, '[ \t\n\r\f\v]+'), __x -> __x <> '')) AS s "
        "FROM documents", "s", {"h": seed})
    return with_sql + (
        ", __tk AS (SELECT doc_id, unnest(list_filter(string_split_regex(text, '[ \t\n\r\f\v]+'), __x -> __x <> '')) AS tok "
        "FROM documents), "
        "__tc AS (SELECT doc_id, tok, count(*) AS c FROM __tk "
        "GROUP BY doc_id, tok), "
        "__tt AS (SELECT doc_id, CAST(sum(c) AS BIGINT) AS n FROM __tc "
        "GROUP BY doc_id), "
        f"__bt AS (SELECT doc_id, j, CAST(sum(c * CAST((h >> CAST(j AS INT)) "
        f"& 1 AS BIGINT)) AS BIGINT) AS s1 FROM "
        f"(SELECT tc.doc_id, tc.c, hh.h, unnest(range(0, 64)) AS j "
        f"FROM __tc tc JOIN {last} hh ON tc.tok = hh.s) GROUP BY doc_id, j), "
        "__sig AS (SELECT bt.doc_id, CAST(sum(CASE WHEN 2 * bt.s1 > tt.n "
        "THEN CAST(1 AS UBIGINT) << CAST(bt.j AS INT) ELSE "
        "CAST(0 AS UBIGINT) END) AS UBIGINT) AS sig "
        "FROM __bt bt JOIN __tt tt ON bt.doc_id = tt.doc_id "
        "GROUP BY bt.doc_id), "
        "__allsig AS (SELECT d.doc_id, "
        "CAST(COALESCE(s.sig, 0) AS UBIGINT) AS simhash "
        "FROM documents d LEFT JOIN __sig s ON d.doc_id = s.doc_id)"
    ), "__allsig"


def _simhash_oracle_sql(seed: int = 42) -> str:
    with_sql, cte = _simhash_sig_cte(seed)
    return with_sql + f" SELECT doc_id, simhash FROM {cte}"


def _simhash_pairs_oracle_sql(max_hamming: int = 6, seed: int = 42) -> str:
    """DuckDB twin of simhash_near_pairs: exact hamming self-join over
    the mirrored signatures (valid as an oracle because the k+1-block
    pigeonhole LSH is COMPLETE for hamming <= k). Ids compare as
    VARCHAR — the Ray query casts doc_id to string, so pair order is
    lexicographic on both sides."""
    with_sql, cte = _simhash_sig_cte(seed)
    return with_sql + (
        f" SELECT CAST(x.doc_id AS VARCHAR) AS a, "
        f"CAST(y.doc_id AS VARCHAR) AS b, "
        f"CAST(bit_count(xor(x.simhash, y.simhash)) AS BIGINT) AS hamming "
        f"FROM {cte} x JOIN {cte} y "
        f"ON CAST(x.doc_id AS VARCHAR) < CAST(y.doc_id AS VARCHAR) "
        f"WHERE bit_count(xor(x.simhash, y.simhash)) <= {max_hamming}")


def _minhash_pairs_cte(bands: int = 16, rows_per_band: int = 4,
                       threshold_e6: int = 400_000,
                       seed: int = 42, k: int = 3) -> tuple[str, str]:
    """DuckDB twin of the FULL MinHash-LSH pipeline
    (minhash_dedup_pairs): token hashes via the shared recursive-CTE
    stable_hash64 mirror, k-token shingle chains via window lead()
    (s = ((h_i·G ⊕ h_{i+1})·G) ⊕ h_{i+2}, the _token_shingles mix),
    per-permutation minima of mix(sh·a+b) against the embedded
    (a, b) literal table (same np.default_rng draw), band keys as the
    ORDERED LIST of per-band minima (tuple equality == band-hash
    equality, no byte-level band hash needed), candidate pairs via
    band self-join, and exact integer Jaccard over the same shingle
    sets. Float-threshold equivalence: j >= t/1e6 with j = n/d and
    d bounded far below 1e6 means the integer floor test
    (1e6·n)//d >= t is exact — no boundary risk.

    Cost scales as docs × distinct-shingles × permutations (the
    literal MinHash work) — fine at the driver gate scale, skipped by
    the sf1 gate like the other intentionally-heavy mirrors."""
    from ..functions.sqlmirror import M64, mul_mod64, stable_hash64_cte
    from ..stages.dedup import _minhash_params
    a, b = _minhash_params(bands * rows_per_band, seed)
    perms = ", ".join(f"({p}, {int(a[p])}, {int(b[p])})"
                      for p in range(bands * rows_per_band))
    GOLD = 0x9E3779B97F4A7C15
    MIX = 0xFF51AFD7ED558CCD
    # token-hash recursion over the corpus-wide DISTINCT token set
    tok_with, tok_cte = stable_hash64_cte(
        f"SELECT DISTINCT unnest(list_filter(string_split_regex(text, '[ \t\n\r\f\v]+'), __x -> __x <> '')) AS s "
        f"FROM documents WHERE len(list_filter(string_split_regex(text, '[ \t\n\r\f\v]+'), __x -> __x <> '')) >= {k}",
        "s", {"h": 0}, prefix="__t")
    # short docs (< k tokens): single shingle = hash of the re-joined
    # token string (whitespace-normalized), like the Python branch
    short_with, short_cte = stable_hash64_cte(
        f"SELECT coalesce(array_to_string(list_filter(string_split_regex(text, '[ \t\n\r\f\v]+'), __x -> __x <> ''), ' '), '') AS s, "
        f"CAST(doc_id AS VARCHAR) AS doc_id FROM documents "
        f"WHERE len(list_filter(string_split_regex(text, '[ \t\n\r\f\v]+'), __x -> __x <> '')) < {k}",
        "s", {"h": 0}, carry_cols=("doc_id",), prefix="__s",
        include_with=False)
    chain = "h"
    for step in range(1, k):
        chain = f"xor({mul_mod64(chain, GOLD)}, h{step})"
    leads = ", ".join(f"lead(h, {j}) OVER (PARTITION BY doc_id ORDER BY i) "
                      f"AS h{j}" for j in range(1, k))
    v0 = f"CAST((CAST(h AS HUGEINT) * pa + pb) % {M64} AS UBIGINT)"
    x1 = f"xor({v0}, {v0} >> 33)"
    x2 = mul_mod64(x1, MIX)
    mixed = f"xor({x2}, {x2} >> 33)"
    return tok_with + short_with + (
        f", __pos AS (SELECT CAST(doc_id AS VARCHAR) AS doc_id, "
        f"unnest(range(1, len(t) + 1)) AS i, t FROM "
        f"(SELECT doc_id, list_filter(string_split_regex(text, '[ \t\n\r\f\v]+'), __x -> __x <> '') AS t "
        f"FROM documents WHERE len(list_filter(string_split_regex(text, '[ \t\n\r\f\v]+'), __x -> __x <> '')) >= {k})), "
        f"__tokh AS (SELECT p.doc_id, p.i, th.h FROM "
        f"(SELECT doc_id, i, t[i] AS tok FROM __pos) p "
        f"JOIN {tok_cte} th ON p.tok = th.s), "
        f"__lead AS (SELECT doc_id, h, {leads} FROM __tokh), "
        f"__shl AS (SELECT DISTINCT doc_id, {chain} AS h FROM __lead "
        f"WHERE h{k - 1} IS NOT NULL), "
        f"__sh AS (SELECT doc_id, h FROM __shl UNION ALL "
        f"SELECT doc_id, h FROM {short_cte}), "
        f"__perms(p, pa, pb) AS (SELECT * FROM (VALUES {perms})), "
        f"__minh AS (SELECT doc_id, p, MIN({mixed}) AS m "
        f"FROM __sh CROSS JOIN __perms GROUP BY doc_id, p), "
        f"__band AS (SELECT doc_id, p // {rows_per_band} AS band, "
        f"list(m ORDER BY p) AS key FROM __minh "
        f"GROUP BY doc_id, p // {rows_per_band}), "
        f"__cand AS (SELECT DISTINCT x.doc_id AS a, y.doc_id AS b "
        f"FROM __band x JOIN __band y ON x.band = y.band "
        f"AND x.key = y.key AND x.doc_id < y.doc_id), "
        f"__isz AS (SELECT doc_id, count(*) AS n FROM __sh "
        f"GROUP BY doc_id), "
        f"__inter AS (SELECT c.a, c.b, count(*) AS inter FROM __cand c "
        f"JOIN __sh sa ON sa.doc_id = c.a "
        f"JOIN __sh sb ON sb.doc_id = c.b AND sa.h = sb.h "
        f"GROUP BY c.a, c.b), "
        f"__mhp AS (SELECT a, b, jaccard_e6 FROM "
        f"(SELECT i.a, i.b, CAST(i.inter * 1000000 // "
        f"(za.n + zb.n - i.inter) AS BIGINT) AS jaccard_e6 "
        f"FROM __inter i JOIN __isz za ON i.a = za.doc_id "
        f"JOIN __isz zb ON i.b = zb.doc_id) "
        f"WHERE jaccard_e6 >= {threshold_e6})"), "__mhp"


def _minhash_pairs_oracle_sql(**kw) -> str:
    with_sql, cte = _minhash_pairs_cte(**kw)
    return with_sql + f" SELECT a, b, jaccard_e6 FROM {cte}"


def _minhash_remove_oracle_sql(**kw) -> str:
    """DuckDB twin of minhash_dedup_remove: verified pairs (the full
    mirrored pipeline above) → connected components via a recursive
    transitive-closure CTE (UNION-dedup recursion terminates; closure
    size is Σ component² over output-sized clusters) → each node's
    representative is the LEAST reachable id (lexicographic VARCHAR,
    matching union_find_components over string ids) → keep documents
    that are not non-representative members."""
    with_sql, cte = _minhash_pairs_cte(**kw)
    return with_sql + (
        f", __e AS (SELECT a AS u, b AS v FROM {cte} "
        f"UNION SELECT b, a FROM {cte}), "
        f"__r AS (SELECT u, v FROM __e "
        f"UNION SELECT r.u, e.v FROM __r r JOIN __e e ON r.v = e.u), "
        f"__rep AS (SELECT u, least(u, min(v)) AS rep FROM __r "
        f"GROUP BY u) "
        f"SELECT CAST(doc_id AS VARCHAR) AS doc_id FROM documents "
        f"WHERE CAST(doc_id AS VARCHAR) NOT IN "
        f"(SELECT u FROM __rep WHERE rep <> u)")


def _embedding_pairs_oracle_sql(threshold: float = 0.45, lsh_bits: int = 4,
                                tables: int = 12, seed: int = 42,
                                dim: int = 64) -> str:
    """DuckDB twin of embedding_near_dup_pairs (LSH path): the
    hyperplanes (same np.default_rng draw) are embedded as a literal
    (table, dim-index, bit, weight) relation; DuckDB renormalizes each
    vector, projects it onto every plane (strict > 0 sign, matching
    the numpy comparison), reassembles the per-table bucket id,
    self-joins for candidates sharing >= 1 (table, bucket), and
    verifies cosine >= threshold over the normalized components.

    Float note: the only cross-engine divergence is summation order
    (numpy pairwise vs DuckDB sequential), i.e. ~1 ulp on dots and
    norms — a sign/threshold flip needs a projection within ~1e-15 of
    zero or a cosine within ~1e-15 of the threshold, so the PAIR SET
    is robust; the rounded cosine VALUE is not (4dp midpoints), which
    is why the registered query returns pairs only."""
    import numpy as np
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((tables, dim, lsh_bits))
    rows = ", ".join(
        f"({t}, {k + 1}, {j}, {planes[t, k, j]!r})"
        for t in range(tables) for k in range(dim) for j in range(lsh_bits))
    return (
        f"WITH __pl(t, kk, j, w) AS (SELECT * FROM (VALUES {rows})), "
        f"__ve AS (SELECT vec_id, unnest(range(1, {dim} + 1)) AS k, "
        f"embedding FROM embeddings), "
        f"__vv AS (SELECT vec_id, k, CAST(embedding[k] AS DOUBLE) AS val "
        f"FROM __ve), "
        f"__nr AS (SELECT vec_id, sqrt(sum(val * val)) AS nrm FROM __vv "
        f"GROUP BY vec_id), "
        f"__nv AS (SELECT v.vec_id, v.k, v.val / "
        f"(CASE WHEN n.nrm = 0 THEN 1 ELSE n.nrm END) AS nv "
        f"FROM __vv v JOIN __nr n ON v.vec_id = n.vec_id), "
        f"__dot AS (SELECT nv.vec_id, pl.t, pl.j, sum(nv.nv * pl.w) AS d "
        f"FROM __nv nv JOIN __pl pl ON pl.kk = nv.k "
        f"GROUP BY nv.vec_id, pl.t, pl.j), "
        f"__bkt AS (SELECT vec_id, t, CAST(sum(CASE WHEN d > 0 "
        f"THEN (CAST(1 AS BIGINT) << CAST(j AS INT)) ELSE 0 END) AS BIGINT) "
        f"AS bucket FROM __dot GROUP BY vec_id, t), "
        f"__cand AS (SELECT DISTINCT x.vec_id AS a, y.vec_id AS b "
        f"FROM __bkt x JOIN __bkt y ON x.t = y.t AND x.bucket = y.bucket "
        f"AND x.vec_id < y.vec_id), "
        f"__cos AS (SELECT c.a, c.b, sum(na.nv * nb.nv) AS cos "
        f"FROM __cand c JOIN __nv na ON na.vec_id = c.a "
        f"JOIN __nv nb ON nb.vec_id = c.b AND nb.k = na.k "
        f"GROUP BY c.a, c.b) "
        f"SELECT a, b FROM __cos WHERE cos >= {threshold!r}")


def _fingerprint_oracle_sql(window: int = 16, keep: int = 8) -> str:
    """DuckDB twin of rolling_fingerprint (hashing.py): texts longer
    than the window hash every byte window as a 16-term weighted sum
    mod 2^64 (HUGEINT accumulation) followed by the xorshift mix;
    texts of 1..window bytes hash whole via the shared stable_hash64
    mirror; empty texts contribute NO rows (the Python early-return).
    Distinct hashes per doc, 8 smallest kept via row_number()."""
    from ..functions.hashing import fp_weights
    from ..functions.sqlmirror import M64, mul_mod64, stable_hash64_cte
    w = [int(x) for x in fp_weights(window)]
    terms = " + ".join(
        f"ord(substr(text, i + {k}, 1)) * CAST({wk} AS HUGEINT)"
        for k, wk in enumerate(w))
    short_with, short_cte = stable_hash64_cte(
        f"SELECT text, doc_id FROM documents "
        f"WHERE length(text) BETWEEN 1 AND {window}", "text", {"h": 0},
        carry_cols=("doc_id",))
    mix_mul = mul_mod64("h", 0xFF51AFD7ED558CCD)
    return short_with + (
        f", __win AS (SELECT doc_id, unnest(range(1, length(text) - "
        f"{window - 2})) AS i, text FROM documents "
        f"WHERE length(text) > {window}), "
        f"__wh AS (SELECT doc_id, CAST(({terms}) % {M64} AS UBIGINT) AS h "
        f"FROM __win), "
        f"__x1 AS (SELECT doc_id, xor(h, h >> 33) AS h FROM __wh), "
        f"__x2 AS (SELECT doc_id, {mix_mul} AS h FROM __x1), "
        f"__x3 AS (SELECT doc_id, xor(h, h >> 29) AS h FROM __x2), "
        f"__all AS (SELECT DISTINCT doc_id, h FROM "
        f"(SELECT doc_id, h FROM __x3 UNION ALL "
        f"SELECT doc_id, h FROM {short_cte})), "
        f"__rk AS (SELECT doc_id, h, row_number() OVER "
        f"(PARTITION BY doc_id ORDER BY h) AS fp_rank FROM __all) "
        f"SELECT doc_id, CAST(fp_rank AS BIGINT) AS fp_rank, "
        f"h AS fp_hash FROM __rk WHERE fp_rank <= {keep}")


def _crawl_universe_ctes(seed: int = 42, n_seeds: int = _CRAWL_SEEDS,
                         num_hosts: int = 64) -> tuple[str, str]:
    """WITH-clause re-running the FLAGSHIP CRAWL itself in DuckDB.

    The fetch simulation is a pure function of (seed, url, attempt)
    (sources/corpus.py fetch_outcome/link_children), so the crawl's
    final URL universe is SQL-computable from the seed list alone:

      seeds (embedded VALUES — the same input run_crawl_pump gets)
        → per-URL fetch hash (stable_hash64 recursive-CTE mirror)
        → terminal status: failed iff hash%100 IN (6,7) — transient
          fails (r<6, fail_until≤2<max_retries) and blocked-once
          (8≤r<10) URLs always complete after retries
        → completed depth-0 URLs expand k=linkhash%6 children
          (corpus.py link_children: 70% same-host via hash%10<7,
          '/c'+6-hex-digit paths), deduped against the seen set
        → depth-1 URLs fetch but never expand (max_depth=1).

    Returns (with_sql, uni_cte); ``uni`` has one row per unique
    enqueued URL: (url, host, depth, r) with r = fetch-hash mod 100.
    Seed paths are '/p…' and child paths '/c…', so seed/child URL
    collisions are impossible by construction; the NOT IN guard keeps
    the mirror faithful to the engine's seen-set semantics anyway."""
    from ..functions.sqlmirror import stable_hash64_cte
    from ..sources.corpus import _FETCH_SALT, _LINK_SALT

    urls = make_seed_urls(n_seeds, seed=seed)["url"].to_pylist()
    values = ", ".join(f"('{u}')" for u in urls)
    seeds_src = (f"SELECT DISTINCT column0 AS url "
                 f"FROM (VALUES {values}) v(column0)")
    w1, c1 = stable_hash64_cte(
        seeds_src, "url",
        {"fh": seed ^ _FETCH_SALT, "lh": seed ^ _LINK_SALT}, prefix="cs_")
    sql = w1 + (
        f", cu_seed AS (SELECT url, split_part(url, '/', 3) AS host, "
        f"fh % 100 AS r, CAST(lh % 6 AS INT) AS k FROM {c1}), "
        f"cu_childstr AS (SELECT url || '#' || CAST(i AS VARCHAR) AS cs, "
        f"host FROM cu_seed, unnest(generate_series(0, k - 1)) AS t(i) "
        f"WHERE r NOT IN (6, 7))")
    w2, c2 = stable_hash64_cte(
        "SELECT cs, host FROM cu_childstr", "cs",
        {"hi": seed ^ _LINK_SALT}, carry_cols=("host",), prefix="cc_",
        include_with=False)
    sql += w2 + (
        f", cu_childurl AS (SELECT DISTINCT "
        f"'http://' || (CASE WHEN hi % 10 < 7 THEN host "
        f"ELSE 'h' || CAST(hi % {num_hosts} AS VARCHAR) || '.example' END) "
        f"|| '/c' || printf('%06x', CAST((hi >> 8) % 16777216 AS BIGINT)) "
        f"AS url FROM {c2}), "
        f"cu_childnew AS (SELECT url FROM cu_childurl "
        f"WHERE url NOT IN (SELECT url FROM cu_seed))")
    w3, c3 = stable_hash64_cte(
        "SELECT url FROM cu_childnew", "url", {"fh": seed ^ _FETCH_SALT},
        prefix="ct_", include_with=False)
    sql += w3 + (
        f", cu_uni AS ("
        f"SELECT url, host, 0 AS depth, r FROM cu_seed "
        f"UNION ALL "
        f"SELECT url, split_part(url, '/', 3) AS host, 1 AS depth, "
        f"fh % 100 AS r FROM {c3})")
    return sql, "cu_uni"


def _crawl_replay_ctes(seed: int = 42, n_seeds: int = _CRAWL_SEEDS,
                       num_hosts: int = 64,
                       items_per_wave: int = 256) -> tuple[str, str, str]:
    """WITH-clause replaying the ENTIRE K=1 queue state machine in SQL
    — closed form, no wave-by-wave iteration.

    Why closed form is possible (conformance mode: global FIFO, wave
    commits, retries only after full drain — frontier.py lease/commit
    with eager_retry=False + retry_failed, exactly the reference's
    single Mongo queue semantics, queue.model.ts:245-308):

    1. ROUNDS. A failed/blocked item re-opens only when the queue
       drains, so every live item is claimed exactly once per "round"
       (drain-to-drain). An item's claim profile is a pure function of
       its fetch hash: r=h%100 → transient (r<6, completes at attempt
       1+((h>>8)%2)), permafail (6-7, 3 failed attempts), blocked-once
       (8-9, completes at attempt 1 with NO retry consumed —
       handler.ts:171-176 R6), clean (completes at attempt 0). Claim
       in round j happens at attempt j - birth_round.
    2. BIRTH. Seeds are born in round 0; a child is born in the round
       its parent completes (birth = parent a*), because children
       enqueued mid-round are always claimed before the same round's
       drain (their seqs exceed every open seq, FIFO reaches them).
    3. ORDER. Within a round the claim order is EXACTLY ascending
       enqueue_seq: the heap pops the smallest open seq, and children
       born mid-round always carry larger seqs than everything already
       open. Hence the global claim stream is ORDER BY (round, seq).
    4. WAVES. 256-chunking the per-round seq-sorted stream equals the
       wave lease structure: a child born in wave w has seq rank
       > 256*(w+1) within its round (its seq exceeds all items claimed
       in waves <= w), so pure rank-chunking never schedules an item
       before it exists.
    5. SEQS. Seeds consume seqs 0..n-1 (duplicates consume a seq but
       are never inserted — the seen-filter semantics of
       frontier.enqueue); discovered children consume seqs in the
       global discovery order (parent completion round, parent seq,
       link index), duplicates again consuming without inserting.

    Returns (with_sql, claims_cte, items_cte):
      claims_cte: (url, seq, depth, k, round, attempt, status,
                   claim_idx, wave)
      items_cte:  (url, seq, depth, birth, r, h8, k, a_star, n_claims)
    """
    from ..functions.sqlmirror import stable_hash64_cte
    from ..sources.corpus import _FETCH_SALT, _LINK_SALT

    urls = make_seed_urls(n_seeds, seed=seed)["url"].to_pylist()
    values = ", ".join(f"({i}, '{u}')" for i, u in enumerate(urls))
    profile = (
        "CASE WHEN r < 6 THEN 1 + h8 WHEN r >= 10 THEN 0 "
        "WHEN r >= 8 THEN 1 ELSE NULL END AS a_star, "
        "CASE WHEN r < 6 THEN 2 + h8 WHEN r >= 10 THEN 1 "
        "WHEN r >= 8 THEN 2 ELSE 3 END AS n_claims")

    sql = (f"WITH RECURSIVE rp_seedlist(pos, url) AS (VALUES {values}), "
           f"rp_seed0 AS (SELECT url, CAST(min(pos) AS BIGINT) AS seq "
           f"FROM rp_seedlist GROUP BY url)")
    w1, c1 = stable_hash64_cte(
        "SELECT url, seq FROM rp_seed0", "url",
        {"fh": seed ^ _FETCH_SALT, "lh": seed ^ _LINK_SALT},
        carry_cols=("seq",), prefix="rh_", include_with=False)
    sql += w1 + (
        f", rp_seedp AS (SELECT url, seq, 0 AS depth, 0 AS birth, "
        f"fh % 100 AS r, CAST((fh >> 8) % 2 AS BIGINT) AS h8, "
        f"CAST(lh % 6 AS BIGINT) AS k, {profile} FROM (SELECT url, seq, "
        f"fh % 100 AS r, CAST((fh >> 8) % 2 AS BIGINT) AS h8, fh, lh "
        f"FROM {c1}) __s), "
        # discovery stream: children of COMPLETED seeds, in
        # (parent completion round, parent seq, link idx) order
        f"rp_childstr AS (SELECT url || '#' || CAST(i AS VARCHAR) AS cs, "
        f"seq AS pseq, a_star AS pcomp, i AS lidx, "
        f"split_part(url, '/', 3) AS phost FROM rp_seedp, "
        f"unnest(generate_series(0, CAST(k AS INT) - 1)) AS t(i) "
        f"WHERE a_star IS NOT NULL AND k > 0)")
    w2, c2 = stable_hash64_cte(
        "SELECT cs, pseq, pcomp, lidx, phost FROM rp_childstr", "cs",
        {"hi": seed ^ _LINK_SALT},
        carry_cols=("pseq", "pcomp", "lidx", "phost"), prefix="rc_",
        include_with=False)
    sql += w2 + (
        f", rp_disc AS (SELECT pseq, pcomp, lidx, "
        f"'http://' || (CASE WHEN hi % 10 < 7 THEN phost "
        f"ELSE 'h' || CAST(hi % {num_hosts} AS VARCHAR) || '.example' END) "
        f"|| '/c' || printf('%06x', CAST((hi >> 8) % 16777216 AS BIGINT)) "
        f"AS url FROM {c2}), "
        # every discovery occurrence (duplicates included) consumes a seq
        f"rp_disc2 AS (SELECT url, pcomp, pseq, CAST({n_seeds} + "
        f"row_number() OVER (ORDER BY pcomp, pseq, lidx) - 1 AS BIGINT) "
        f"AS seq FROM rp_disc), "
        # seen-filter: only the FIRST occurrence of a url inserts (and
        # seed/child paths '/p…' vs '/c…' can never collide — the NOT
        # IN guard keeps the mirror faithful anyway)
        f"rp_childfirst AS (SELECT url, seq, pcomp AS birth, pseq FROM "
        f"(SELECT url, seq, pcomp, pseq, row_number() OVER "
        f"(PARTITION BY url ORDER BY seq) AS rn FROM rp_disc2) __c "
        f"WHERE rn = 1 AND url NOT IN (SELECT url FROM rp_seed0))")
    w3, c3 = stable_hash64_cte(
        "SELECT url, seq, birth, pseq FROM rp_childfirst", "url",
        {"cfh": seed ^ _FETCH_SALT}, carry_cols=("seq", "birth", "pseq"),
        prefix="rf_", include_with=False)
    sql += w3 + (
        f", rp_childp AS (SELECT url, seq, 1 AS depth, birth, pseq, r, h8, "
        f"CAST(0 AS BIGINT) AS k, {profile} FROM (SELECT url, seq, birth, "
        f"pseq, cfh % 100 AS r, CAST((cfh >> 8) % 2 AS BIGINT) AS h8 "
        f"FROM {c3}) __f), "
        f"rp_items AS (SELECT url, seq, depth, birth, "
        f"CAST(NULL AS BIGINT) AS pseq, r, h8, k, a_star, "
        f"n_claims FROM rp_seedp UNION ALL SELECT url, seq, depth, birth, "
        f"pseq, r, h8, k, a_star, n_claims FROM rp_childp), "
        f"rp_claims0 AS (SELECT url, seq, depth, k, birth, pseq, "
        f"birth + j AS round, CAST(j AS BIGINT) AS attempt, "
        # an item is OPEN at round start ('original') unless it was
        # born mid-round (children in their discovery round); seeds
        # (depth 0) are open at round 0 start
        f"(birth < birth + j OR depth = 0) AS is_orig, "
        f"CASE WHEN j = a_star THEN 'completed' "
        f"WHEN r >= 8 AND r < 10 AND j = 0 THEN 'blocked' "
        f"ELSE 'failed' END AS status FROM rp_items, "
        f"unnest(generate_series(0, CAST(n_claims AS INT) - 1)) AS t(j)), "
        # wave assignment within a round: claims run in seq order in
        # up-to-256 leases, but a child born mid-round (by its parent's
        # completing claim in local wave pw) is only claimable from
        # local wave pw+1. The greedy lease structure over an ordered
        # stream with nondecreasing release waves has the closed form
        #   lw(i) = max_{j<=i} (release_j + (i-j) // 256)
        # (originals have release 0, so their term is the pure chunk
        # (rank-1)//256; children add the availability terms).
        f"rp_orig AS (SELECT round, seq, CAST((row_number() OVER "
        f"(PARTITION BY round ORDER BY seq) - 1) // {items_per_wave} "
        f"AS BIGINT) AS lw FROM rp_claims0 WHERE is_orig), "
        f"rp_norig AS (SELECT round, count(*) AS n_orig FROM rp_orig "
        f"GROUP BY round), "
        f"rp_kid AS (SELECT c.round, c.seq, c.pseq, row_number() OVER "
        f"(PARTITION BY c.round ORDER BY c.seq) AS p FROM rp_claims0 c "
        f"WHERE NOT is_orig), "
        f"rp_kid2 AS (SELECT k.round, k.seq, k.p, pw.lw + 1 AS avail "
        f"FROM rp_kid k JOIN rp_orig pw "
        f"ON pw.round = k.round AND pw.seq = k.pseq), "
        f"rp_kidw AS (SELECT a.round, a.seq, CAST(greatest("
        f"max(b.avail + (a.p - b.p) // {items_per_wave}), "
        f"(any_value(n.n_orig) + a.p - 1) // {items_per_wave}) AS BIGINT) "
        f"AS lw FROM rp_kid2 a JOIN rp_kid2 b "
        f"ON b.round = a.round AND b.p <= a.p "
        f"JOIN rp_norig n ON n.round = a.round "
        f"GROUP BY a.round, a.seq, a.p), "
        f"rp_lw AS (SELECT round, seq, lw FROM rp_orig "
        f"UNION ALL SELECT round, seq, lw FROM rp_kidw), "
        f"rp_rounds AS (SELECT round, max(lw) + 1 AS n_waves FROM rp_lw "
        f"GROUP BY round), "
        f"rp_roff AS (SELECT round, COALESCE(sum(n_waves) OVER "
        f"(ORDER BY round ROWS BETWEEN UNBOUNDED PRECEDING AND 1 "
        f"PRECEDING), 0) AS wave_off FROM rp_rounds), "
        f"rp_claims AS (SELECT c.url, c.seq, c.depth, c.k, c.round, "
        f"c.attempt, c.status, CAST(row_number() OVER "
        f"(ORDER BY c.round, c.seq) - 1 AS BIGINT) AS claim_idx, "
        f"CAST(o.wave_off + w.lw AS BIGINT) AS wave "
        f"FROM rp_claims0 c JOIN rp_roff o USING (round) "
        f"JOIN rp_lw w ON w.round = c.round AND w.seq = c.seq)")
    return sql, "rp_claims", "rp_items"


def _crawl_order_oracle_sql() -> str:
    """The K=1 golden claim stream, replayed closed-form in SQL."""
    with_sql, claims, _ = _crawl_replay_ctes()
    return with_sql + (
        f" SELECT claim_idx, seq AS enqueue_seq, url, attempt "
        f"FROM {claims}")


def _crawl_wave_stats_oracle_sql() -> str:
    """Per-wave lease lineage of the conformance-mode run, predicted
    closed-form: leased/completed/failed per wave from the claim
    stream; discovered = Σ children (duplicates included — the engine
    counts flattened disc_urls) over that wave's completing depth-0
    claims."""
    with_sql, claims, _ = _crawl_replay_ctes()
    return with_sql + (
        f" SELECT wave, count(*) AS leased, "
        f"CAST(count(*) FILTER (status = 'completed') AS BIGINT) "
        f"AS completed, "
        f"CAST(count(*) FILTER (status <> 'completed') AS BIGINT) "
        f"AS failed, "
        f"CAST(COALESCE(sum(k) FILTER (status = 'completed' "
        f"AND depth = 0), 0) AS BIGINT) AS discovered "
        f"FROM {claims} GROUP BY wave")


def _crawl_fifo_documents_oracle_sql() -> str:
    """Conformance-run documents INCLUDING enqueue_seq: the replay's
    completed items joined with the doc-geometry mirror (md5 doc ids,
    span-hash n_spans / n_text_chars — same derivation as
    _crawl_doc_stats_oracle_sql, built over the replay's item set)."""
    from ..functions.sqlmirror import stable_hash64_cte
    from ..sources.corpus import _SPAN_SALT

    seed = 42
    with_sql, _, items = _crawl_replay_ctes(seed=seed)
    sql = with_sql + (
        f", rd_doc AS (SELECT url, split_part(url, '/', 3) AS host, "
        f"depth, seq, 'd-' || substr(md5(url), 1, 12) AS doc_id "
        f"FROM {items} WHERE a_star IS NOT NULL)")
    w4, c4 = stable_hash64_cte(
        "SELECT doc_id, url, host, depth, seq FROM rd_doc", "doc_id",
        {"ih": seed ^ _SPAN_SALT}, carry_cols=("url", "host", "depth", "seq"),
        prefix="rd_", include_with=False)
    sql += w4 + (
        f", rd_n AS (SELECT url, host, depth, seq, doc_id, "
        f"CAST(1 + ((ih % 13) * 3) % 13 AS INT) AS n_spans FROM {c4}), "
        f"rd_spanstr AS (SELECT doc_id, doc_id || '|' || CAST(i AS VARCHAR) "
        f"AS ss FROM rd_n, unnest(generate_series(0, n_spans - 1, 2)) "
        f"AS t(i))")
    w5, c5 = stable_hash64_cte(
        "SELECT ss, doc_id FROM rd_spanstr", "ss",
        {"sh": seed ^ _SPAN_SALT}, carry_cols=("doc_id",), prefix="rq_",
        include_with=False)
    sql += w5 + (
        f", rd_chars AS (SELECT doc_id, "
        f"CAST(sum(7 * (96 + sh % 192) - 1) AS BIGINT) AS n_text_chars "
        f"FROM {c5} GROUP BY doc_id) "
        f"SELECT d.doc_id, d.url, d.host, d.depth, d.seq AS enqueue_seq, "
        f"CAST(d.n_spans AS BIGINT) AS n_spans, c.n_text_chars "
        f"FROM rd_n d JOIN rd_chars c USING (doc_id)")
    return sql


def _crawl_status_histogram_oracle_sql() -> str:
    with_sql, uni = _crawl_universe_ctes()
    return with_sql + (
        f" SELECT s.status, CAST(coalesce(c.n, 0) AS BIGINT) AS n_items "
        f"FROM (VALUES ('completed'), ('failed'), ('initial'), ('running')) "
        f"s(status) LEFT JOIN ("
        f"SELECT CASE WHEN r IN (6, 7) THEN 'failed' ELSE 'completed' END "
        f"AS status, count(*) AS n FROM {uni} GROUP BY 1) c USING (status)")


def _crawl_host_counts_oracle_sql() -> str:
    with_sql, uni = _crawl_universe_ctes()
    return with_sql + (
        f" SELECT host, CAST(count(*) AS BIGINT) AS n_docs FROM {uni} "
        f"WHERE r NOT IN (6, 7) GROUP BY host")


def _crawl_doc_stats_oracle_sql() -> str:
    """Extends the crawl-universe mirror to full document geometry:
    doc_id = 'd-'+md5(url)[:12] (corpus.py doc_id_for_url), n_spans =
    1 + (spanhash * 2654435761) % 13 computed in UNBOUNDED integers —
    (h*c) % 13 == ((h%13) * (c%13)) % 13, NOT (h*c mod 2^64) % 13 —
    and n_text_chars = Σ over even span indices of 7*(96 + sh%192) - 1
    (each token is 'tokNNN' = 6 chars, space-joined)."""
    from ..functions.sqlmirror import stable_hash64_cte
    from ..sources.corpus import _SPAN_SALT

    seed = 42
    with_sql, docs = _crawl_docs_ctes(seed=seed)
    sql = with_sql + (
        f", cd_spanstr AS (SELECT doc_id, "
        f"doc_id || '|' || CAST(i AS VARCHAR) AS ss "
        f"FROM {docs}, unnest(generate_series(0, n_spans - 1, 2)) AS t(i))")
    w5, c5 = stable_hash64_cte(
        "SELECT ss, doc_id FROM cd_spanstr", "ss",
        {"sh": seed ^ _SPAN_SALT}, carry_cols=("doc_id",), prefix="cp_",
        include_with=False)
    sql += w5 + (
        f", cd_chars AS (SELECT doc_id, "
        f"CAST(sum(7 * (96 + sh % 192) - 1) AS BIGINT) AS n_text_chars "
        f"FROM {c5} GROUP BY doc_id) "
        f"SELECT d.doc_id, d.url, d.host, d.depth, "
        f"CAST(d.n_spans AS BIGINT) AS n_spans, c.n_text_chars "
        f"FROM cd_n d JOIN cd_chars c USING (doc_id)")
    return sql


def _crawl_docs_ctes(seed: int = 42) -> tuple[str, str]:
    """Crawl-universe mirror extended to per-document span layout:
    (url, host, depth, doc_id, n_spans) for every completed URL.
    Returns (with_sql, cte_name)."""
    from ..functions.sqlmirror import stable_hash64_cte
    from ..sources.corpus import _SPAN_SALT

    with_sql, uni = _crawl_universe_ctes(seed=seed)
    sql = with_sql + (
        f", cd_doc AS (SELECT url, host, depth, "
        f"'d-' || substr(md5(url), 1, 12) AS doc_id "
        f"FROM {uni} WHERE r NOT IN (6, 7))")
    w4, c4 = stable_hash64_cte(
        "SELECT doc_id, url, host, depth FROM cd_doc", "doc_id",
        {"ih": seed ^ _SPAN_SALT}, carry_cols=("url", "host", "depth"),
        prefix="cd_", include_with=False)
    # (ih * 2654435761) % 13 in unbounded ints; 2654435761 % 13 == 3
    sql += w4 + (
        f", cd_n AS (SELECT url, host, depth, doc_id, "
        f"CAST(1 + ((ih % 13) * 3) % 13 AS INT) AS n_spans FROM {c4})")
    return sql, "cd_n"


def _crawl_sig_ctes(seed: int = 42) -> tuple[str, str, str]:
    """Crawl mirror extended to the SIGNATURE-AT-INGEST path (fetch.py
    fetch_store_batch → dedup.simhash64): the span texts draw every
    token from the 512-word vocabulary by closed-form index
    ((sh >> (j%48)) % 512 * ((j+1) % 512)) % 512 (corpus.py
    make_spans), so the mirror derives per-doc positioned TOKEN
    STREAMS directly from the span hashes — no text parsing — hashes
    the 512 possible tokens once, and reassembles each signature via
    the same count-weighted per-bit majority as _simhash_sig_cte.
    Returns (with_sql, sig_cte, tokpos_cte) where sig_cte has
    (doc_id, simhash) and tokpos_cte has (doc_id, si, j, idx) — one
    row per token in span order, for mirrors that need the flattened
    text itself."""
    from ..functions.sqlmirror import stable_hash64_cte

    with_sql, docs = _crawl_docs_ctes(seed=seed)
    sql = with_sql + (
        f", sa_spanstr AS (SELECT doc_id, i AS si, "
        f"doc_id || '|' || CAST(i AS VARCHAR) AS ss "
        f"FROM {docs}, unnest(generate_series(0, n_spans - 1, 2)) AS t(i))")
    from ..sources.corpus import _SPAN_SALT
    w5, c5 = stable_hash64_cte(
        "SELECT ss, doc_id, si FROM sa_spanstr", "ss",
        {"sh": seed ^ _SPAN_SALT}, carry_cols=("doc_id", "si"), prefix="sa_",
        include_with=False)
    # token index per (span, j): all operands < 2^18, plain arithmetic
    sql += w5 + (
        f", sa_tok AS (SELECT doc_id, si, j, "
        f"CAST((((sh >> CAST(j % 48 AS INT)) % 512) * ((j + 1) % 512)) % 512 "
        f"AS INT) AS idx "
        f"FROM {c5}, unnest(generate_series(0, "
        f"CAST(96 + sh % 192 AS INT) - 1)) AS t(j)), "
        f"sa_tc AS (SELECT doc_id, idx, count(*) AS c FROM sa_tok "
        f"GROUP BY doc_id, idx), "
        f"sa_tt AS (SELECT doc_id, CAST(sum(c) AS BIGINT) AS n FROM sa_tc "
        f"GROUP BY doc_id)")
    w6, c6 = stable_hash64_cte(
        "SELECT 'tok' || printf('%03d', v) AS tok, v "
        "FROM unnest(generate_series(0, 511)) AS u(v)", "tok",
        {"h": seed}, carry_cols=("v",), prefix="sv_", include_with=False)
    sql += w6 + (
        f", sa_bt AS (SELECT doc_id, j, CAST(sum(c * CAST((h >> "
        f"CAST(j AS INT)) & 1 AS BIGINT)) AS BIGINT) AS s1 FROM "
        f"(SELECT tc.doc_id, tc.c, hh.h, unnest(range(0, 64)) AS j "
        f"FROM sa_tc tc JOIN {c6} hh ON tc.idx = hh.v) GROUP BY doc_id, j), "
        f"sa_sig AS (SELECT bt.doc_id, CAST(sum(CASE WHEN 2 * bt.s1 > tt.n "
        f"THEN CAST(1 AS UBIGINT) << CAST(bt.j AS INT) ELSE "
        f"CAST(0 AS UBIGINT) END) AS UBIGINT) AS simhash "
        f"FROM sa_bt bt JOIN sa_tt tt ON bt.doc_id = tt.doc_id "
        f"GROUP BY bt.doc_id)")
    return sql, "sa_sig", "sa_tok"


def _crawl_simhash_audit_oracle_sql(seed: int = 42) -> str:
    """Gates the engine's ingest-computed simhash column groupwise
    (simhash, n_docs, first_doc) — see _crawl_sig_ctes."""
    with_sql, sig, _ = _crawl_sig_ctes(seed=seed)
    return with_sql + (
        f" SELECT simhash, CAST(count(*) AS BIGINT) AS n_docs, "
        f"min(doc_id) AS first_doc FROM {sig} GROUP BY simhash")


def _curate_documents_oracle_sql(seed: int = 42) -> str:
    """DuckDB twin of the CURATION FUNNEL (pipelines/curate.py): from
    the crawl mirror's positioned token stream it rebuilds each doc's
    flattened text (every token is 'tokNNN', spans and tokens alike
    joined by single spaces → string_agg ordered by (span, pos)),
    recomputes the quality gate in the same exact-integer units
    (n_chars_q = text length; avg_token_len_e3 = 1000*non_ws // n_toks
    = 6000 here since every token is 6 chars — computed, not assumed),
    exact-dedups on md5 of the rebuilt text, intersects with the
    min-doc_id representative of each ingest-simhash group, and
    returns the same one-row funnel (n_input, n_quality_filtered,
    n_curated)."""
    with_sql, sig, tokpos = _crawl_sig_ctes(seed=seed)
    return with_sql + (
        f", cf_flat AS (SELECT doc_id, "
        f"string_agg('tok' || printf('%03d', idx), ' ' ORDER BY si, j) "
        f"AS text, CAST(count(*) AS BIGINT) AS n_toks "
        f"FROM {tokpos} GROUP BY doc_id), "
        f"cf_q AS (SELECT doc_id, text, length(text) AS n_chars_q, "
        f"(6 * n_toks * 1000) // n_toks AS avg_token_len_e3 FROM cf_flat), "
        f"cf_filt AS (SELECT doc_id, md5(text) AS content_hash FROM cf_q "
        f"WHERE n_chars_q >= 200 AND avg_token_len_e3 >= 2000), "
        f"cf_keep_exact AS (SELECT min(doc_id) AS doc_id FROM cf_filt "
        f"GROUP BY content_hash), "
        f"cf_keep_sim AS (SELECT min(s.doc_id) AS doc_id FROM {sig} s "
        f"JOIN cf_filt f ON s.doc_id = f.doc_id GROUP BY s.simhash), "
        f"cf_curated AS (SELECT e.doc_id FROM cf_keep_exact e "
        f"JOIN cf_keep_sim s ON e.doc_id = s.doc_id) "
        f"SELECT (SELECT CAST(count(*) AS BIGINT) FROM cf_flat) AS n_input, "
        f"(SELECT CAST(count(*) AS BIGINT) FROM cf_filt) "
        f"AS n_quality_filtered, "
        f"(SELECT CAST(count(*) AS BIGINT) FROM cf_curated) AS n_curated")


def _media_spans_oracle_sql(seed: int = 42) -> str:
    """DuckDB twin of media_rows_from_spans over the crawl output:
    media spans sit at ODD span indices with ref
    'm://'+host+'/'+md5(doc_id|i)[:10] (corpus.py make_spans), and
    every metadata column is arithmetic on stable_hash64(ref, 0)
    (stages/multimodal.py:42-48)."""
    from ..functions.sqlmirror import stable_hash64_cte

    with_sql, docs = _crawl_docs_ctes(seed=seed)
    sql = with_sql + (
        f", md_ref AS (SELECT doc_id, "
        f"'m://' || host || '/' || "
        f"substr(md5(doc_id || '|' || CAST(i AS VARCHAR)), 1, 10) AS ref "
        f"FROM {docs}, unnest(generate_series(1, n_spans - 1, 2)) AS t(i))")
    w, c = stable_hash64_cte(
        "SELECT ref, doc_id FROM md_ref", "ref", {"hh": 0},
        carry_cols=("doc_id",), prefix="md_", include_with=False)
    sql += w + (
        f" SELECT doc_id, ref AS media_ref, "
        f"CASE hh % 3 WHEN 0 THEN 'image' WHEN 1 THEN 'audio' "
        f"ELSE 'video' END AS media_type, "
        f"CAST(160 + (hh >> 8) % 1920 AS INTEGER) AS width, "
        f"CAST(120 + (hh >> 16) % 1080 AS INTEGER) AS height, "
        f"CAST((hh >> 24) % 300000 AS INTEGER) AS duration_ms "
        f"FROM {c}")
    return sql


def _media_ann_topk_oracle_sql(seed: int = 42, k: int = 5) -> str:
    """DuckDB twin of the multimodal→ANN chain: media refs from the
    crawl mirror, features = bytes of stable_hash64(ref)/255
    (multimodal.hash_features_batch), exact cosine top-k. The /255 scaling
    cancels in cosine, so the dot products and norms are computed on
    INTEGER byte values with float entering only at the final
    divide+sqrt. Float-safety is corpus-checked, not hoped: the crawl
    (hence this output) is FIXED for every sf_dir, and the 15 result
    cosines sit ≥ 2.2e-3 from any 4dp rounding midpoint with rank-5/6
    gaps ≥ 2.4e-4 — eleven orders above cross-engine float noise."""
    from ..functions.sqlmirror import stable_hash64_cte

    with_sql, docs = _crawl_docs_ctes(seed=seed)
    sql = with_sql + (
        f", md_ref AS (SELECT doc_id, 'm://' || host || '/' || "
        f"substr(md5(doc_id || '|' || CAST(i AS VARCHAR)), 1, 10) AS ref "
        f"FROM {docs}, unnest(generate_series(1, n_spans - 1, 2)) AS t(i))")
    w, c = stable_hash64_cte(
        "SELECT ref, doc_id FROM md_ref", "ref", {"hh": 0},
        carry_cols=("doc_id",), prefix="md_", include_with=False)
    bytes_expr = ", ".join(
        f"CAST((hh >> {8 * j}) & 255 AS BIGINT) AS b{j}" for j in range(8))
    dot = " + ".join(f"q.b{j} * m.b{j}" for j in range(8))
    nrm = " + ".join(f"b{j} * b{j}" for j in range(8))
    sql += w + (
        f", ma_feat AS (SELECT ref, {bytes_expr} FROM {c}), "
        f"ma_featn AS (SELECT *, sqrt(CAST({nrm} AS DOUBLE)) AS nn "
        f"FROM ma_feat), "
        f"ma_q AS (SELECT * FROM ma_featn ORDER BY ref LIMIT 3), "
        f"ma_sims AS (SELECT q.ref AS query_id, m.ref AS neighbor_id, "
        f"CAST({dot} AS DOUBLE) / (q.nn * m.nn) AS cs "
        f"FROM ma_q q, ma_featn m), "
        f"ma_rk AS (SELECT query_id, neighbor_id, cs, row_number() OVER "
        f"(PARTITION BY query_id ORDER BY cs DESC, neighbor_id) AS rank "
        f"FROM ma_sims) "
        f"SELECT query_id, neighbor_id, round(cs, 4) AS cosine, "
        f"CAST(rank AS BIGINT) AS rank FROM ma_rk WHERE rank <= {k}")
    return sql


def _crawl_direct_oracle_sql(seed: int = 42, n: int = 200) -> str:
    """DuckDB twin of the S8 direct scatter-gather path
    (crawl.direct_crawl → analytics.q_crawl_direct): every seed URL —
    DUPLICATES KEPT, there is no queue and no dedup on this path —
    fetched once at attempt 0. Statuses/latency from the fetch hash
    (corpus.py fetch_outcome); doc_id empty unless completed."""
    from ..functions.sqlmirror import stable_hash64_cte
    from ..sources.corpus import _FETCH_SALT

    urls = make_seed_urls(n, seed=seed)["url"].to_pylist()
    values = ", ".join(f"('{u}')" for u in urls)
    w, c = stable_hash64_cte(
        f"SELECT column0 AS url FROM (VALUES {values}) v(column0)", "url",
        {"fh": seed ^ _FETCH_SALT}, prefix="dc_")
    return w + (
        f" SELECT url, "
        f"CASE WHEN fh % 100 < 8 THEN 'failed' "
        f"WHEN fh % 100 < 10 THEN 'blocked' ELSE 'completed' END AS status, "
        f"CAST(5 + (fh >> 16) % 95 AS INTEGER) AS latency_ms, "
        f"CASE WHEN fh % 100 < 10 THEN '' "
        f"ELSE 'd-' || substr(md5(url), 1, 12) END AS doc_id "
        f"FROM {c}")


def _a3_warm_oracle_sql(seed: int = 42) -> str:
    """DuckDB twin of the A3 warm-pool surface: three round-robin
    crawl calls over seeds[40i:40i+40] at attempt 0 (the pool serves
    calls 0/1/2 from actors 0/1/0), plus the warmth audit constants —
    2 constructions across 2 actors (pool_cache_misses) and 3 calls
    total (pool_calls). The per-row fetch mirror is the same
    closed-form as crawl_direct's."""
    from ..functions.sqlmirror import stable_hash64_cte
    from ..sources.corpus import _FETCH_SALT

    urls = make_seed_urls(120, seed=seed)["url"].to_pylist()
    values = ", ".join(f"('{u}', {i // 40})" for i, u in enumerate(urls))
    w, c = stable_hash64_cte(
        f"SELECT column0 AS url, column1 AS call "
        f"FROM (VALUES {values}) v(column0, column1)", "url",
        {"fh": seed ^ _FETCH_SALT}, carry_cols=("call",), prefix="wa_")
    return w + (
        f" SELECT url, "
        f"CASE WHEN fh % 100 < 8 THEN 'failed' "
        f"WHEN fh % 100 < 10 THEN 'blocked' ELSE 'completed' END AS status, "
        f"CASE WHEN fh % 100 < 10 THEN '' "
        f"ELSE 'd-' || substr(md5(url), 1, 12) END AS doc_id, "
        f"CAST(5 + (fh >> 16) % 95 AS BIGINT) AS latency_ms, "
        f"CAST(call AS BIGINT) AS call, "
        f"CAST(2 AS BIGINT) AS pool_cache_misses, "
        f"CAST(3 AS BIGINT) AS pool_calls "
        f"FROM {c}")


def _split_hash_cte(carry_cols: tuple[str, ...], prefix: str = "spl_"):
    """Shared splitmix draw over doc_id ^ SPLIT_SALT (bit-for-bit
    hashing.splitmix64_np) with the given documents columns carried."""
    from ..functions.sqlmirror import splitmix64_cte
    from ..stages.sampling import SPLIT_SALT
    cols = ", ".join(carry_cols)
    return splitmix64_cte(
        f"SELECT {cols} FROM documents",
        f"xor(CAST(doc_id AS UBIGINT), CAST({SPLIT_SALT} AS UBIGINT))",
        "h", carry_cols=carry_cols, prefix=prefix)


def _stratified_split_oracle_sql() -> str:
    w, c = _split_hash_cte(("doc_id", "n_chars"))
    return w + (
        " SELECT CASE WHEN h % 100 < 90 THEN 'train' "
        "WHEN h % 100 >= 95 THEN 'test' ELSE 'val' END AS split, "
        "CAST(count(*) AS BIGINT) AS n_docs, "
        "CAST(sum(n_chars) AS BIGINT) AS n_chars_total "
        f"FROM {c} GROUP BY 1")


def _mixture_oracle_sql() -> str:
    from ..functions.sqlmirror import splitmix64_cte
    from ..stages.sampling import MIX_SALT
    w, c = splitmix64_cte(
        "SELECT doc_id, source FROM documents",
        f"xor(CAST(doc_id AS UBIGINT), CAST({MIX_SALT} AS UBIGINT))",
        "h", carry_cols=("doc_id", "source"), prefix="mx_")
    return w + (
        f" SELECT doc_id, source FROM {c} WHERE h % 1000000 < "
        "(1 + CAST(substr(source, 4) AS BIGINT) % 4) * 200000")


def _decontaminate_oracle_sql(k: int = 8) -> str:
    from ..functions.sqlmirror import tokens_sql
    w, c = _split_hash_cte(("doc_id", "text", "n_chars"), prefix="dc_")
    gram = " || ' ' || ".join(f"t[i + {j}]" for j in range(k))
    return w + (
        f", dc_b AS (SELECT doc_id, text, n_chars, h % 100 AS b FROM {c}), "
        f"dc_toks AS (SELECT doc_id, b, {tokens_sql('text')} AS t "
        f"FROM dc_b WHERE b < 90 OR b >= 95), "
        f"dc_sh AS (SELECT doc_id, b, unnest(CASE WHEN len(t) < {k} "
        f"THEN [coalesce(array_to_string(t, ' '), '')] "
        f"ELSE list_distinct(list_transform(range(1, len(t) - {k - 2}), "
        f"i -> {gram})) END) AS s FROM dc_toks), "
        "dc_ev AS (SELECT DISTINCT s FROM dc_sh WHERE b >= 95), "
        "dc_contam AS (SELECT DISTINCT doc_id FROM dc_sh "
        "WHERE b < 90 AND s IN (SELECT s FROM dc_ev)) "
        "SELECT doc_id, n_chars FROM dc_b WHERE b < 90 "
        "AND doc_id NOT IN (SELECT doc_id FROM dc_contam)")


def _repetition_oracle_sql() -> str:
    from ..functions.sqlmirror import tokens_sql
    toks = tokens_sql("coalesce(text,'')")
    return (
        f"WITH rp_t AS (SELECT doc_id, {toks} AS t FROM documents), "
        "rp_n AS (SELECT doc_id, len(t) AS n FROM rp_t), "
        "rp_u AS (SELECT doc_id, unnest(t) AS tok, "
        "generate_subscripts(t, 1) AS pos FROM rp_t), "
        "rp_d AS (SELECT doc_id, count(DISTINCT tok) AS nd "
        "FROM rp_u GROUP BY doc_id), "
        "rp_bg AS (SELECT doc_id, tok AS t1, "
        "lead(tok) OVER (PARTITION BY doc_id ORDER BY pos) AS t2 "
        "FROM rp_u), "
        "rp_bc AS (SELECT doc_id, t1, t2, count(*) AS c FROM rp_bg "
        "WHERE t2 IS NOT NULL GROUP BY doc_id, t1, t2), "
        "rp_tb AS (SELECT doc_id, max(c) AS tb FROM rp_bc "
        "GROUP BY doc_id) "
        "SELECT n.doc_id, CAST(n.n AS BIGINT) AS n_tokens, "
        "CAST(coalesce(d.nd, 0) AS BIGINT) AS n_distinct, "
        "CAST(CASE WHEN n.n = 0 THEN 0 "
        "ELSE coalesce(d.nd, 0) * 10000 // n.n END AS BIGINT) "
        "AS distinct_frac_e4, "
        "CAST(coalesce(tb.tb, 0) AS BIGINT) AS top_bigram_n, "
        "CAST(CASE WHEN n.n < 2 THEN 0 "
        "ELSE coalesce(tb.tb, 0) * 10000 // (n.n - 1) END AS BIGINT) "
        "AS top_bigram_frac_e4 "
        "FROM rp_n n LEFT JOIN rp_d d USING (doc_id) "
        "LEFT JOIN rp_tb tb USING (doc_id)")


def _chunk_oracle_sql(window: int = 64, stride: int = 48) -> str:
    from ..functions.sqlmirror import M64, stable_hash64_cte, tokens_sql
    toks = tokens_sql("coalesce(text,'')")
    tok_with, tok_cte = stable_hash64_cte(
        f"SELECT DISTINCT unnest({toks}) AS s FROM documents",
        "s", {"h": 0}, prefix="ck_h")
    return tok_with + (
        f", ck_d AS (SELECT doc_id, {toks} AS t FROM documents), "
        "ck_n AS (SELECT doc_id, len(t) AS n FROM ck_d), "
        "ck_p AS (SELECT doc_id, unnest(range(1, len(t) + 1)) AS i, t "
        "FROM ck_d), "
        f"ck_th AS (SELECT p.doc_id, p.i, th.h FROM "
        "(SELECT doc_id, i, t[i] AS tok FROM ck_p) p "
        f"JOIN {tok_cte} th ON p.tok = th.s), "
        "ck_k AS (SELECT doc_id, n, unnest(range(0, "
        f"CASE WHEN n = 0 THEN 0 ELSE (greatest(n - {window}, 0) + "
        f"{stride - 1}) // {stride} + 1 END)) AS chunk_id FROM ck_n) "
        "SELECT c.doc_id, CAST(c.chunk_id AS BIGINT) AS chunk_id, "
        f"CAST(c.chunk_id * {stride} AS BIGINT) AS start_tok, "
        f"CAST(least(c.chunk_id * {stride} + {window}, c.n) - "
        f"c.chunk_id * {stride} AS BIGINT) AS n_tok, "
        f"CAST(sum(CAST(h.h AS HUGEINT)) % {M64} AS UBIGINT) "
        "AS tokhash_sum "
        "FROM ck_k c JOIN ck_th h ON h.doc_id = c.doc_id "
        f"AND h.i > c.chunk_id * {stride} "
        f"AND h.i <= least(c.chunk_id * {stride} + {window}, c.n) "
        "GROUP BY c.doc_id, c.chunk_id, c.n")


def _shuffle_shards_oracle_sql() -> str:
    from ..functions.sqlmirror import splitmix64_cte
    from ..stages.sampling import N_SHUF_SHARDS, SHUF_SALT
    w, c = splitmix64_cte(
        "SELECT doc_id FROM documents",
        f"xor(CAST(doc_id AS UBIGINT), CAST({SHUF_SALT} AS UBIGINT))",
        "skey", carry_cols=("doc_id",), prefix="sh_")
    return w + (
        f" SELECT doc_id, CAST(skey % {N_SHUF_SHARDS} AS BIGINT) AS shard, "
        "skey AS shuffle_key, "
        f"CAST(row_number() OVER (PARTITION BY skey % {N_SHUF_SHARDS} "
        "ORDER BY skey, doc_id) - 1 AS BIGINT) AS pos_in_shard "
        f"FROM {c}")


def _bpe_pair_oracle_sql(k: int = 20) -> str:
    from ..functions.sqlmirror import tokens_sql
    toks = tokens_sql("coalesce(text,'')")
    return (
        f"WITH d AS (SELECT {toks} AS t FROM documents), "
        "p AS (SELECT t, unnest(range(1, len(t))) AS i FROM d "
        "WHERE len(t) >= 2), "
        "pairs AS (SELECT t[i] AS left_tok, t[i + 1] AS right_tok FROM p) "
        "SELECT left_tok, right_tok, CAST(count(*) AS BIGINT) AS n "
        "FROM pairs GROUP BY 1, 2 "
        f"ORDER BY n DESC, left_tok, right_tok LIMIT {k}")


def _vocab_topk_oracle_sql() -> str:
    from ..functions.sqlmirror import tokens_sql
    return (
        f"WITH vt AS (SELECT unnest({tokens_sql('text')}) AS token "
        "FROM documents) "
        "SELECT token, CAST(count(*) AS BIGINT) AS n FROM vt "
        "GROUP BY token ORDER BY n DESC, token LIMIT 100")


def _source_vocab_overlap_oracle_sql() -> str:
    from ..functions.sqlmirror import tokens_sql
    return (
        f"WITH raw AS (SELECT source, unnest({tokens_sql('text')}) "
        "AS token FROM documents), "
        "st AS (SELECT DISTINCT source, token FROM raw), "
        "sz AS (SELECT source, count(*) AS n FROM st GROUP BY source) "
        "SELECT a.source AS src_a, b.source AS src_b, "
        "CAST(count(*) AS BIGINT) AS n_common, "
        "CAST(min(za.n) AS BIGINT) AS n_a, "
        "CAST(min(zb.n) AS BIGINT) AS n_b "
        "FROM st a JOIN st b ON a.token = b.token "
        "AND a.source < b.source "
        "JOIN sz za ON za.source = a.source "
        "JOIN sz zb ON zb.source = b.source "
        "GROUP BY 1, 2 ORDER BY 1, 2")


def _heavy_hitter_oracle_sql(phi_recip: int = 31) -> str:
    from ..functions.sqlmirror import tokens_sql
    return (
        f"WITH vt AS (SELECT unnest({tokens_sql('text')}) AS token "
        "FROM documents), "
        "c AS (SELECT token, CAST(count(*) AS BIGINT) AS n FROM vt "
        "GROUP BY token), "
        "t AS (SELECT sum(n) AS tot FROM c) "
        f"SELECT token, n FROM c, t WHERE n * {phi_recip} >= tot "
        "ORDER BY n DESC, token")


def _length_bins_oracle_sql(k_bins: int = 8) -> str:
    return (
        "WITH lb AS (SELECT n_chars, row_number() OVER "
        "(ORDER BY n_chars, doc_id) - 1 AS rk FROM documents), "
        "tot AS (SELECT count(*) AS total FROM documents) "
        f"SELECT CAST((rk * {k_bins}) // total AS BIGINT) AS bin, "
        "CAST(count(*) AS BIGINT) AS n_docs, "
        "CAST(min(n_chars) AS BIGINT) AS min_chars, "
        "CAST(max(n_chars) AS BIGINT) AS max_chars "
        "FROM lb, tot GROUP BY 1")


def q_dsir_importance(sf_dir: str):
    """DSIR-style importance scoring (Xie et al. 2023, "Data Selection
    for Language Models via Importance Resampling"): score every raw
    doc by how much more likely its hashed-bigram profile is under a
    TARGET corpus (here: the lexicographically-smallest source) than
    under the raw corpus — the standard select-web-data-that-looks-
    like-the-target primitive. Integer-exact variant: per bigram b,
    w(b) = floor(1e4 * (c_t(b)+1) * (N_r+1) / ((c_r(b)+1) * (N_t+1)))
    (add-1 smoothed probability ratio, e4-quantized), and
    dsir_score(doc) = sum over the doc's bigram occurrences of w(b).
    Docs with < 2 tokens have no bigrams and are excluded.

    Scale shape: pass 1 is a cheap vectorized token-count scan
    reducing to TWO scalars (N_r, N_t); pass 2 reuses the
    doc_bigram_partial_counts combiner, buckets by the FULL bigram so
    c_t, c_r and every doc's partial score for that bigram are
    bucket-local (no model table ever materializes), then the per-doc
    partials merge through the standard bucketed reduce. Overflow
    bound asserted: 1e4*(c_t+1)*(N_r+1) must fit int64 (holds to
    ~sf100 on this corpus; beyond, lift w to object ints)."""
    from ..stages.sampling import doc_bigram_partial_counts
    p = shuffle_partitions()

    ds = read_table(sf_dir, "documents",
                    columns=["doc_id", "text", "source"])
    # config-sized: per-batch distinct sources, merged on the driver
    target = ds.map_batches(
        lambda t: pa.table({"source": pc.unique(t["source"])}),
        batch_format="pyarrow").to_pandas()["source"].min()

    def totals_batch(batch: pa.Table) -> pa.Table:
        stripped = pc.utf8_trim_whitespace(
            pc.coalesce(batch["text"], ""))
        lists = split_ws(stripped)
        n_tok = pc.list_value_length(lists).to_numpy(
            zero_copy_only=False).astype(np.int64)
        n_tok[np.asarray(pc.equal(stripped, "").to_numpy(
            zero_copy_only=False))] = 0
        n_bg = np.maximum(n_tok - 1, 0)
        is_t = pc.equal(batch["source"], target).to_numpy(
            zero_copy_only=False)
        return pa.table({"n_r": pa.array([int(n_bg.sum())], pa.int64()),
                         "n_t": pa.array([int(n_bg[is_t].sum())],
                                         pa.int64())})

    tot = ds.map_batches(totals_batch, batch_format="pyarrow") \
        .sum(["n_r", "n_t"])
    n_r, n_t = int(tot["sum(n_r)"]), int(tot["sum(n_t)"])

    def pair_partials(batch: pa.Table) -> pa.Table:
        part = doc_bigram_partial_counts(batch)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        is_t = pc.equal(batch["source"], target).to_numpy(
            zero_copy_only=False)
        pd_ids = part["doc_id"].to_numpy(zero_copy_only=False)
        # vectorized doc -> is_target lookup (pandas hash reindex)
        flags = pd.Series(is_t.astype(np.int64), index=ids) \
            .reindex(pd_ids).to_numpy()
        return part.append_column("is_t", pa.array(flags, pa.int64()))

    partials = ds.map_batches(pair_partials, batch_format="pyarrow")
    def score_bucket(g: pd.DataFrame) -> pd.DataFrame:
        grp = g.groupby(["left_tok", "right_tok"], sort=False)
        c_r = grp["occ"].transform("sum").to_numpy()
        c_t = g.assign(_t=g["occ"] * g["is_t"]).groupby(
            ["left_tok", "right_tok"], sort=False)["_t"] \
            .transform("sum").to_numpy()
        assert 10000 * (int(c_t.max()) + 1) * (n_r + 1) < 2 ** 63
        w = (10000 * (c_t + 1) * (n_r + 1)) // ((c_r + 1) * (n_t + 1))
        part = pd.DataFrame({
            "doc_id": g["doc_id"].astype("int64"),
            "n_bigrams": g["occ"].astype("int64"),
            "dsir_score": (g["occ"].to_numpy() * w).astype("int64")})
        return part.groupby("doc_id", as_index=False).sum()

    parts = map_buckets(partials, ["left_tok", "right_tok"], score_bucket,
                        2 * p)
    out = merge_partials_ray(parts, ["doc_id"],
                             {"n_bigrams": "sum",
                              "dsir_score": "sum"}).to_pandas()
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def _dsir_oracle_sql() -> str:
    from ..functions.sqlmirror import tokens_sql
    toks = tokens_sql("coalesce(text,'')")
    return (
        f"WITH di_t AS (SELECT doc_id, source, {toks} AS t "
        "FROM documents), "
        "di_p AS (SELECT doc_id, source, t[i] AS l, t[i + 1] AS r FROM "
        "(SELECT doc_id, source, t, unnest(range(1, len(t))) AS i "
        "FROM di_t WHERE len(t) >= 2)), "
        "di_tgt AS (SELECT min(source) AS tgt FROM documents), "
        "di_c AS (SELECT l, r, CAST(count(*) AS BIGINT) AS c_r, "
        "CAST(count(*) FILTER (WHERE source = (SELECT tgt FROM di_tgt)) "
        "AS BIGINT) AS c_t FROM di_p GROUP BY 1, 2), "
        "di_n AS (SELECT CAST(count(*) AS BIGINT) AS n_r, "
        "CAST(count(*) FILTER (WHERE source = (SELECT tgt FROM di_tgt)) "
        "AS BIGINT) AS n_t FROM di_p), "
        "di_w AS (SELECT l, r, CAST((CAST(10000 AS HUGEINT) * (c_t + 1) "
        "* (n_r + 1)) // ((c_r + 1) * (n_t + 1)) AS BIGINT) AS w "
        "FROM di_c, di_n), "
        "di_d AS (SELECT doc_id, l, r, CAST(count(*) AS BIGINT) AS occ "
        "FROM di_p GROUP BY 1, 2, 3) "
        "SELECT doc_id, CAST(sum(occ) AS BIGINT) AS n_bigrams, "
        "CAST(sum(occ * w) AS BIGINT) AS dsir_score "
        "FROM di_d JOIN di_w ON di_d.l = di_w.l AND di_d.r = di_w.r "
        "GROUP BY 1 ORDER BY 1")


def _messy_urls_np(ids: np.ndarray) -> pd.Series:
    """Deterministic MESSY URL per doc_id (the synthetic corpus has no
    URL column, so — like redact_pii's injected spans — both engines
    derive the same input from doc_id): mixed-case scheme/host,
    default and explicit ports, empty paths, bounded path/query
    residues (so canonical groups have real size), bare '?', and
    fragments. The SQL twin builds the identical string with CASE
    arithmetic, then canonicalizes it with its own string ops."""
    i = ids.astype(np.int64)
    scheme = np.where(i % 2 == 0, "HTTP", "https").astype(object)
    site = pd.Series((i % 7).astype(str), dtype="object")
    host = np.where(i % 4 == 0,
                    "WWW.Site" + site + ".Example.COM",
                    "www.site" + site + ".example.com").astype(object)
    defport = np.where(i % 2 == 0, ":80", ":443").astype(object)
    port = np.where(i % 3 == 0, defport,
                    np.where(i % 3 == 1, ":8080", "")).astype(object)
    path = np.where(i % 5 == 0, "",
                    "/p/" + pd.Series((i % 50).astype(str),
                                      dtype="object")).astype(object)
    query = np.where(i % 4 == 0,
                     "?a=" + pd.Series((i % 9).astype(str),
                                       dtype="object"),
                     np.where(i % 4 == 2, "?", "")).astype(object)
    frag = np.where(i % 6 == 0,
                    "#s" + pd.Series((i % 3).astype(str),
                                     dtype="object"), "").astype(object)
    return pd.Series(scheme) + "://" + host + port + path + query + frag


def q_url_canonical_dedup(sf_dir: str):
    """URL CANONICALIZATION dedup — the crawl north-star's URL-seen
    primitive as a batch operator: canonicalize every (deterministic
    messy) URL with the VECTORIZED canonicalizer
    (functions/urltools.canonicalize_urls_series — pinned equal to the
    scalar urlsplit path by pytest), then group by canonical form:
    (canonical_url, n_urls, n_forms=distinct messy spellings,
    keeper_doc=min doc_id). This is what seed-list ingest runs at
    10^10 URLs before the frontier ever sees them.

    Scale shape: canonicalization is zero-shuffle vectorized
    map_batches; the group is ONE canonical-hash bucket shuffle with a
    per-bucket vectorized nunique/min/count reduce (keys are
    data-sized, the driver never holds them)."""
    from ..functions.urltools import canonicalize_urls_series
    p = shuffle_partitions()

    ds = read_table(sf_dir, "documents", columns=["doc_id"])

    def canon_batch(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        messy = _messy_urls_np(ids)
        canon = canonicalize_urls_series(messy)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "messy_url": pa.array(messy, pa.string()),
                         "canonical_url": pa.array(canon, pa.string())})

    def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
        grp = g.groupby("canonical_url", as_index=False)
        out = grp.agg(n_urls=("doc_id", "size"),
                      n_forms=("messy_url", "nunique"),
                      keeper_doc=("doc_id", "min"))
        for c in ("n_urls", "n_forms", "keeper_doc"):
            out[c] = out[c].astype("int64")
        return out

    return map_buckets(ds.map_batches(canon_batch, batch_format="pyarrow"),
                       ["canonical_url"], reduce_bucket, 2 * p)


def _url_canonical_oracle_sql() -> str:
    # identical messy construction, then canonicalization via SQL
    # string ops (lower / split / default-port strip / '' -> '/'),
    # exercising the same parse the engine's vectorized path does
    messy = (
        "(CASE WHEN doc_id % 2 = 0 THEN 'HTTP' ELSE 'https' END || "
        "'://' || "
        "CASE WHEN doc_id % 4 = 0 THEN 'WWW.Site' || (doc_id % 7) || "
        "'.Example.COM' ELSE 'www.site' || (doc_id % 7) || "
        "'.example.com' END || "
        "CASE WHEN doc_id % 3 = 0 THEN "
        "(CASE WHEN doc_id % 2 = 0 THEN ':80' ELSE ':443' END) "
        "WHEN doc_id % 3 = 1 THEN ':8080' ELSE '' END || "
        "CASE WHEN doc_id % 5 = 0 THEN '' "
        "ELSE '/p/' || (doc_id % 50) END || "
        "CASE WHEN doc_id % 4 = 0 THEN '?a=' || (doc_id % 9) "
        "WHEN doc_id % 4 = 2 THEN '?' ELSE '' END || "
        "CASE WHEN doc_id % 6 = 0 THEN '#s' || (doc_id % 3) "
        "ELSE '' END)")
    return (
        f"WITH uc_m AS (SELECT doc_id, {messy} AS u FROM documents), "
        "uc_s AS (SELECT doc_id, u, split_part(u, '#', 1) AS nf "
        "FROM uc_m), "
        "uc_p AS (SELECT doc_id, u, "
        "lower(split_part(nf, '://', 1)) AS sch, "
        "substr(nf, length(split_part(nf, '://', 1)) + 4) AS rest "
        "FROM uc_s), "
        "uc_q AS (SELECT doc_id, u, sch, "
        "CASE WHEN strpos(rest, '?') > 0 "
        "THEN substr(rest, 1, strpos(rest, '?') - 1) ELSE rest END "
        "AS pre, "
        "CASE WHEN strpos(rest, '?') > 0 "
        "THEN substr(rest, strpos(rest, '?') + 1) ELSE '' END AS q "
        "FROM uc_p), "
        "uc_n AS (SELECT doc_id, u, sch, q, "
        "split_part(pre, '/', 1) AS netloc, "
        "substr(pre, length(split_part(pre, '/', 1)) + 1) AS path "
        "FROM uc_q), "
        "uc_h AS (SELECT doc_id, u, sch, q, path, "
        "lower(split_part(netloc, ':', 1)) AS host, "
        "CASE WHEN strpos(netloc, ':') > 0 "
        "THEN split_part(netloc, ':', 2) ELSE '' END AS port "
        "FROM uc_n), "
        "uc_c AS (SELECT doc_id, u, sch || '://' || host || "
        "CASE WHEN port <> '' AND port <> "
        "(CASE WHEN sch = 'http' THEN '80' "
        "WHEN sch = 'https' THEN '443' ELSE '' END) "
        "THEN ':' || port ELSE '' END || "
        "CASE WHEN path = '' THEN '/' ELSE path END || "
        "CASE WHEN q <> '' THEN '?' || q ELSE '' END AS canon "
        "FROM uc_h) "
        "SELECT canon AS canonical_url, "
        "CAST(count(*) AS BIGINT) AS n_urls, "
        "CAST(count(DISTINCT u) AS BIGINT) AS n_forms, "
        "CAST(min(doc_id) AS BIGINT) AS keeper_doc "
        "FROM uc_c GROUP BY 1 ORDER BY 1")


# ----------------------------------------------------------------------
# round-4 additions: corpus profiling / novelty / containment family
# ----------------------------------------------------------------------

_CHARCLASS_PATTERNS = [("n_digits", "[0-9]"), ("n_upper", "[A-Z]"),
                       ("n_space", r"\s"), ("n_punct", "[[:punct:]]")]


def q_charclass_profile(sf_dir: str):
    """PER-SOURCE CHARACTER-CLASS PROFILE (the corpus quality screen
    behind digit-/caps-/punct-ratio filters in C4/Gopher-style
    cleaning): docs, code points, and digit / uppercase / whitespace /
    punctuation character counts per source — all exact integers.
    Both engines count with the SAME RE2 single-char classes (pyarrow
    count_substring_regex here, length-delta of regexp_replace in
    DuckDB), so the gate never meets float math.

    Scale shape: vectorized per-batch class counts + one Arrow
    group_by partial per batch → enum-keyed driver merge (sources are
    config-sized). Zero shuffle."""
    ds = read_table(sf_dir, "documents", columns=["source", "text"])
    def prep(batch: pa.Table) -> pa.Table:
        txt = pc.fill_null(pc.cast(batch["text"], pa.string()), "")
        cols = {"source": pc.cast(batch["source"], pa.string()),
                "n_chars": pc.cast(pc.utf8_length(txt), pa.int64())}
        for name, pat in _CHARCLASS_PATTERNS:
            cols[name] = pc.cast(pc.count_substring_regex(txt, pat),
                                 pa.int64())
        return pa.table(cols)

    out = aggregate(ds, ["source"], {
        "n_docs": ("n_chars", "count"), "n_chars": ("n_chars", "sum"),
        **{n: (n, "sum") for n, _ in _CHARCLASS_PATTERNS}}, prep)
    return out.sort_values("source").reset_index(drop=True)


def q_dup_cluster_sizes(sf_dir: str):
    """EXACT-DUP CLUSTER SIZE DISTRIBUTION: how many content-identical
    groups exist of each size — the shape that tells you whether dup
    mass is a few huge boilerplate clusters or a long tail of pairs
    (decides LSH banding and removal policy before a big dedup run).

    Scale shape: rides exact_dedup_groups (per-batch combiner → Ray
    groupby on content_hash), then histogramming n_dups is a per-block
    bincount partial → tiny merge (the size domain is bounded by the
    largest cluster, not the corpus)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    groups = dd.exact_dedup_groups(ds)

    def hist(batch: pa.Table) -> pa.Table:
        n = batch["n_dups"].to_numpy(zero_copy_only=False).astype(np.int64)
        cnt = np.bincount(n)
        sizes = np.nonzero(cnt)[0]
        return pa.table({"cluster_size": pa.array(sizes.astype(np.int64)),
                         "n_clusters": pa.array(cnt[sizes].astype(np.int64))})

    out = merge_partials(groups.map_batches(hist, batch_format="pyarrow"),
                         ["cluster_size"], {"n_clusters": "sum"})
    out = out.astype({"cluster_size": "int64", "n_clusters": "int64"})
    return out.sort_values("cluster_size").reset_index(drop=True)


def q_dedup_savings_by_source(sf_dir: str):
    """WHAT EXACT DEDUP SAVES, BY SOURCE — the reporting surface of
    dedup_exact_remove: keeper = GLOBAL min doc_id per content hash;
    per source the docs kept vs removed and the character mass each
    way (the number a curation run reports per dump).

    Scale shape: (content_hash, doc_id, source, n_chars) rows bucketed
    BY HASH so each content group co-locates; the keeper is decided
    in-bucket (vectorized transform-min) and only per-source partial
    sums leave the bucket → enum-keyed merge. No driver key set."""
    from ..functions.hashing import md5_id
    ds = read_table(sf_dir, "documents",
                    columns=["doc_id", "source", "text", "n_chars"])
    vals = ["n_docs", "n_removed", "chars_removed", "chars_kept"]

    def tag(batch: pa.Table) -> pa.Table:
        return pa.table({
            "content_hash": pa.array([md5_id(t or "") for t in
                                      batch["text"].to_pylist()]),
            "doc_id": batch["doc_id"],
            "source": pc.cast(batch["source"], pa.string()),
            "n_chars": pc.cast(batch["n_chars"], pa.int64())})

    def bucket_stats(g: pd.DataFrame) -> pd.DataFrame:
        keep = g.groupby("content_hash")["doc_id"].transform("min")
        kept = (g["doc_id"] == keep).to_numpy()
        nch = g["n_chars"].to_numpy().astype(np.int64)
        out = pd.DataFrame({
            "source": g["source"].to_numpy(),
            "n_docs": np.ones(len(g), dtype=np.int64),
            "n_removed": (~kept).astype(np.int64),
            "chars_removed": np.where(kept, 0, nch),
            "chars_kept": np.where(kept, nch, 0)})
        return out.groupby("source", as_index=False)[vals].sum()

    partials = map_buckets(ds.map_batches(tag, batch_format="pyarrow"),
                           ["content_hash"], bucket_stats)
    out = merge_partials(partials, ["source"], dict.fromkeys(vals, "sum"))
    for v in vals:
        out[v] = out[v].astype("int64")
    return out.sort_values("source").reset_index(drop=True)


def q_token_length_histogram(sf_dir: str, cap: int = 20):
    """TOKEN LENGTH DISTRIBUTION (tokenizer-design statistic: where
    the mass sits decides BPE vocab size and max-merge length):
    occurrence and DISTINCT-token counts per token length, clipped at
    ``cap`` (ASCII-whitespace tokenizer contract, = text_token_count).

    Scale shape: occurrences are a pure per-batch bincount over the
    flat Arrow split — zero shuffle; distinct counts ride the vocab
    substrate (per-batch distinct tokens → token-bucketed global
    dedup → per-bucket length bincount → tiny merge over the ≤cap
    length domain)."""
    ds = read_table(sf_dir, "documents", columns=["text"])

    def _flat_tokens(batch: pa.Table) -> pa.Array:
        stripped = pc.utf8_trim_whitespace(
            pc.fill_null(pc.cast(batch["text"], pa.string()), ""))
        lists = split_ws(stripped)
        return pc.cast(lists.flatten(), pa.string())

    def occ_partial(batch: pa.Table) -> pa.Table:
        lens = pc.utf8_length(_flat_tokens(batch)) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        lens = lens[lens > 0]          # drop empty-doc phantom tokens
        cnt = np.bincount(np.minimum(lens, cap), minlength=cap + 1)
        nz = np.nonzero(cnt)[0]
        return pa.table({"token_len": pa.array(nz.astype(np.int64)),
                         "n_tokens": pa.array(cnt[nz].astype(np.int64))})

    def tok_partial(batch: pa.Table) -> pa.Table:
        flat = _flat_tokens(batch)
        t = pa.table({"token": flat}).filter(
            pc.greater(pc.utf8_length(flat), 0))
        return t.group_by(["token"]).aggregate([])

    def bucket_hist(g: pd.DataFrame) -> pd.DataFrame:
        toks = g["token"].drop_duplicates()
        lens = np.minimum(toks.str.len().to_numpy().astype(np.int64), cap)
        cnt = np.bincount(lens, minlength=cap + 1)
        nz = np.nonzero(cnt)[0]
        return pd.DataFrame({"token_len": nz.astype(np.int64),
                             "n_distinct": cnt[nz].astype(np.int64)})

    occ = aggregate(ds, ["token_len"], {"n_tokens": ("n_tokens", "sum")},
                    occ_partial)
    dst = merge_partials(
        map_buckets(ds.map_batches(tok_partial, batch_format="pyarrow"),
                    ["token"], bucket_hist),
        ["token_len"], {"n_distinct": "sum"})
    out = occ.merge(dst, on="token_len", how="outer").fillna(0)
    out = out.astype({"token_len": "int64", "n_tokens": "int64",
                      "n_distinct": "int64"})
    return out.sort_values("token_len").reset_index(drop=True)


def q_ngram_novelty_by_source(sf_dir: str):
    """N-GRAM NOVELTY vs the BASE slice (the dump-over-dump content-
    growth audit behind CCNet/RefinedWeb-style incremental ingestion):
    distinct token-trigram shingles per source, and how many do NOT
    occur in the base source (= lexicographically smallest source).
    Shingle contract identical to dedup_jaccard_exact's oracle (docs
    with < 3 tokens contribute their whole joined text as one
    shingle).

    Scale shape: fully vectorized trigram emission (one Arrow split,
    offset arithmetic for the sliding window, binary_join_element_wise
    — no per-doc Python), per-batch distinct (source, shingle) →
    shingle-bucketed global dedup; base membership is decided
    IN-BUCKET (bucketing is by shingle, so a shingle's base row lands
    in the same bucket) → per-source partial → enum merge."""
    ds = read_table(sf_dir, "documents", columns=["source", "text"])

    def sh_partial(batch: pa.Table) -> pa.Table:
        stripped = pc.utf8_trim_whitespace(
            pc.fill_null(pc.cast(batch["text"], pa.string()), ""))
        lists = split_ws(stripped)
        offs = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        lens = np.diff(offs)
        empty = np.asarray(pc.equal(stripped, "")
                           .to_numpy(zero_copy_only=False))
        eff = np.where(empty, 0, lens)   # '' phantom token of empty docs
        flat = pc.cast(lists.flatten(), pa.string())
        src = pc.cast(batch["source"], pa.string())
        n_tri = np.maximum(eff - 2, 0)
        total = int(n_tri.sum())
        if total:
            base0 = np.repeat(offs[:-1], n_tri)
            csum = np.concatenate(([0], np.cumsum(n_tri)[:-1]))
            within = np.arange(total, dtype=np.int64) - np.repeat(csum,
                                                                  n_tri)
            starts = base0 + within
            tri = pc.binary_join_element_wise(
                flat.take(pa.array(starts)),
                flat.take(pa.array(starts + 1)),
                flat.take(pa.array(starts + 2)), " ")
            doc_idx = np.repeat(np.arange(len(lens), dtype=np.int64),
                                n_tri)
            t1 = pa.table({"source": src.take(pa.array(doc_idx)),
                           "shingle": pc.cast(tri, pa.string())})
        else:
            t1 = pa.table({"source": pa.array([], pa.string()),
                           "shingle": pa.array([], pa.string())})
        short = np.nonzero(eff < 3)[0]
        if short.size:
            whole = pc.cast(pc.binary_join(lists, " "), pa.string())
            t2 = pa.table({"source": src.take(pa.array(short)),
                           "shingle": whole.take(pa.array(short))})
            t1 = pa.concat_tables([t1, t2])
        return t1.group_by(["source", "shingle"]).aggregate([])

    # base source: tiny distinct-source scan (config-sized domain)
    base = min(
        s
        for b in ds.map_batches(
            lambda b: pa.table(
                {"source": pc.unique(pc.cast(b["source"], pa.string()))}),
            batch_format="pyarrow").iter_batches(batch_format="pyarrow")
        for s in b["source"].to_pylist())

    def bucket_novel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["source", "shingle"])
        base_set = set(g.loc[g["source"] == base, "shingle"])
        out = pd.DataFrame({
            "source": g["source"].to_numpy(),
            "n_shingles": np.ones(len(g), dtype=np.int64),
            "n_new": (~g["shingle"].isin(base_set)).to_numpy()
            .astype(np.int64)})
        return out.groupby("source", as_index=False)[
            ["n_shingles", "n_new"]].sum()

    parts = map_buckets(ds.map_batches(sh_partial, batch_format="pyarrow"),
                        ["shingle"], bucket_novel)
    out = merge_partials(parts, ["source"], {"n_shingles": "sum",
                                             "n_new": "sum"})
    out = out.astype({"n_shingles": "int64", "n_new": "int64"})
    return out.sort_values("source").reset_index(drop=True)


def q_containment_pairs(sf_dir: str):
    """ASYMMETRIC NEAR-DUP: exact token-trigram CONTAINMENT ≥ 0.6 —
    C(A,B) = |A ∩ B| / min(|A|, |B|) (Broder's containment, the other
    half of the resemblance/containment pair): catches a document
    EMBEDDED in a larger one (boilerplate-wrapped article, quote
    farm), which symmetric Jaccard's union denominator dilutes below
    any useful threshold. Same distributed shingle inverted-index
    shape as dedup_jaccard_exact; only the reduce's denominator
    changes."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return dd.jaccard_exact_pairs_ds(ds, shingle_k=3, kind="token",
                                     threshold_e6=600_000,
                                     metric="containment")


def q_cross_source_dup_matrix(sf_dir: str, prefix_chars: int = 40):
    """CROSS-SOURCE SHARED-BOILERPLATE MATRIX: for every source pair,
    how many DISTINCT content keys appear in both — the provenance
    audit that tells you which dumps re-crawl each other's sites
    before you budget a cross-dump dedup. The key is md5 of the first
    ``prefix_chars`` characters (the shared-boilerplate prefix key;
    full-text exact dups never cross sources in this corpus shape, so
    the prefix key is the informative variant — both engines use the
    same key so the gate is exact either way).

    Scale shape: per-batch DISTINCT (key, source) combiner → rows
    bucketed BY KEY so every source set of a key co-locates → pair
    emission is an in-bucket self-merge over key groups (group size
    bounded by the source domain, not the data) → per-pair partial
    counts → enum²-keyed driver merge. The corpus never moves; the
    exchange carries distinct (key, source) rows only."""
    from ..functions.hashing import md5_id
    ds = read_table(sf_dir, "documents", columns=["source", "text"])

    def tag(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "h": pa.array([md5_id((t or "")[:prefix_chars]) for t in
                           batch["text"].to_pylist()]),
            "source": pc.cast(batch["source"], pa.string())})
        return t.group_by(["h", "source"]).aggregate([])

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["h", "source"])[["h", "source"]]
        m = g.merge(g, on="h")
        m = m[m["source_x"] < m["source_y"]]
        out = pd.DataFrame({"src_a": m["source_x"].to_numpy(),
                            "src_b": m["source_y"].to_numpy(),
                            "n_shared": np.ones(len(m), dtype=np.int64)})
        return out.groupby(["src_a", "src_b"], as_index=False)[
            "n_shared"].sum()

    parts = map_buckets(ds.map_batches(tag, batch_format="pyarrow"), ["h"],
                        bucket_pairs)
    out = merge_partials(parts, ["src_a", "src_b"], {"n_shared": "sum"})
    out["n_shared"] = out["n_shared"].astype("int64")
    return out.sort_values(["src_a", "src_b"]).reset_index(drop=True)


def q_hapax_stats(sf_dir: str):
    """HAPAX LEGOMENA PER SOURCE (the classic lexical-richness audit:
    a high hapax share predicts OOV pressure and flags OCR noise /
    spam sources before tokenizer training): per source the total
    token occurrences, distinct tokens, and tokens occurring EXACTLY
    ONCE in that source. Tokenizer contract = text_token_count
    (ASCII-whitespace split, empties dropped).

    Scale shape: a source-keyed variant of the vocab combiner — ONE
    Arrow split per batch, per-batch (source, token, n) partials →
    bucketed by (source, token) so each pair's global count completes
    in one bucket → per-source partial (sum n / count / count n==1)
    → enum-keyed driver merge. Distinct-token rows only in the
    exchange; no per-doc Python."""
    ds = read_table(sf_dir, "documents", columns=["source", "text"])

    def part(batch: pa.Table) -> pa.Table:
        stripped = pc.utf8_trim_whitespace(
            pc.fill_null(pc.cast(batch["text"], pa.string()), ""))
        lists = split_ws(stripped)
        raw_lens = np.diff(lists.offsets.to_numpy(zero_copy_only=False)
                           .astype(np.int64))
        empty = np.asarray(pc.equal(stripped, "")
                           .to_numpy(zero_copy_only=False))
        keep = ~np.repeat(empty, raw_lens)   # '' phantom of empty docs
        flat = pc.cast(lists.flatten(), pa.string()).filter(
            pa.array(keep))
        doc_idx = np.repeat(np.arange(len(raw_lens), dtype=np.int64),
                            raw_lens)[keep]
        src = pc.cast(batch["source"], pa.string())
        t = pa.table({"source": src.take(pa.array(doc_idx)),
                      "token": flat,
                      "n": pa.array(np.ones(len(doc_idx), np.int64))})
        g = t.group_by(["source", "token"]).aggregate([("n", "sum")])
        return pa.table({"source": g["source"], "token": g["token"],
                         "n": g["n_sum"]})

    def bucket_stats(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby(["source", "token"], as_index=False)["n"].sum()
        n = c["n"].to_numpy().astype(np.int64)
        out = pd.DataFrame({
            "source": c["source"].to_numpy(),
            "n_tokens": n,
            "n_distinct": np.ones(len(c), dtype=np.int64),
            "n_hapax": (n == 1).astype(np.int64)})
        return out.groupby("source", as_index=False)[
            ["n_tokens", "n_distinct", "n_hapax"]].sum()

    parts = map_buckets(ds.map_batches(part, batch_format="pyarrow"),
                        ["source", "token"], bucket_stats)
    out = merge_partials(parts, ["source"],
                         {"n_tokens": "sum", "n_distinct": "sum",
                          "n_hapax": "sum"})
    for c in ["n_tokens", "n_distinct", "n_hapax"]:
        out[c] = out[c].astype("int64")
    return out.sort_values("source").reset_index(drop=True)


def q_freq_of_freqs(sf_dir: str):
    """FREQUENCY-OF-FREQUENCIES TABLE (the Good–Turing / Zipf-tail
    input: N_r = number of vocabulary types occurring exactly r
    times; N_1/N estimates unseen mass — the smoothing statistic
    every n-gram LM and vocab-size decision needs): global token
    counts via the vocab combiner, then how many distinct tokens sit
    at each count value.

    Scale shape: per-batch (token, n) partials → token-bucketed
    global merge IN RAY (one exact row per token, driver never holds
    the vocabulary) → per-block np.unique histogram over n → driver
    merge over the count-value domain (≤ distinct count values —
    O(√occurrences) by Zipf, trivially enum-sized)."""
    ds = read_table(sf_dir, "documents", columns=["text"])
    merged = _token_counts(ds)

    def hist(batch: pa.Table) -> pa.Table:
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, cnt = np.unique(n, return_counts=True)
        return pa.table({"freq": pa.array(uniq.astype(np.int64)),
                         "n_types": pa.array(cnt.astype(np.int64))})

    out = merge_partials(merged.map_batches(hist, batch_format="pyarrow"),
                         ["freq"], {"n_types": "sum"})
    out = out.astype({"freq": "int64", "n_types": "int64"})
    return out.sort_values("freq").reset_index(drop=True)


def q_embedding_covariance(sf_dir: str):
    """EXACT EMBEDDING COVARIANCE NUMERATORS (the PCA / whitening
    prep pass): for every dimension pair i ≤ j, emit
    cov_num = n·Σxᵢxⱼ − Σxᵢ·Σxⱼ over the e3-quantized vectors
    (floor(x·1000+0.5), the knn_graph IEEE-stable expression) —
    exact integers end to end (Python bigint driver merge, HUGEINT
    twin), so the d(d+1)/2-cell covariance surface is hash-gated
    with no float epsilon.

    Scale shape: one zero-shuffle combiner — per batch a single
    int64 Gram matmul qᵀq plus a column sum, emitted as d(d+1)/2+d+1
    partial rows per block (dimension-bounded, NOT corpus-bounded);
    driver merges O(d² × blocks) ints. The vectors never move."""
    from ..stages.simsearch import _to_matrix, quantize_e3
    ds = read_table(sf_dir, "embeddings", columns=["embedding"])

    def part(batch: pa.Table) -> pa.Table:
        q = quantize_e3(_to_matrix(batch["embedding"])).astype(np.int64)
        n, d = q.shape
        assert int(np.abs(q).max(initial=0)) ** 2 * max(n, 1) < 2 ** 62, \
            "gram partial would overflow int64"
        gram = q.T @ q
        s = q.sum(axis=0)
        iu, ju = np.triu_indices(d)
        i = np.concatenate([iu, np.arange(d), [-1]])
        j = np.concatenate([ju, np.full(d, -1), [-1]])
        v = np.concatenate([gram[iu, ju], s, [n]])
        return pa.table({"i": pa.array(i.astype(np.int64)),
                         "j": pa.array(j.astype(np.int64)),
                         "v": pa.array(v.astype(np.int64))})

    m = aggregate(ds, ["i", "j"], {"v": ("v", "sum")}, part)
    lut = {(int(a), int(b)): int(c)
           for a, b, c in zip(m["i"], m["j"], m["v"])}
    n = lut[(-1, -1)]
    d = 1 + max(a for a, b in lut if b == -1 and a >= 0)
    rows = []
    for i in range(d):
        for j in range(i, d):
            cov = n * lut[(i, j)] - lut[(i, -1)] * lut[(j, -1)]
            assert abs(cov) < 2 ** 62, "cov numerator overflow"
            rows.append((i, j, n, cov))
    return pd.DataFrame(rows, columns=["i", "j", "n_vecs", "cov_num"])


def _embedding_cov_oracle_sql() -> str:
    return (
        "WITH ec_x AS (SELECT vec_id, CAST(i - 1 AS BIGINT) AS i, "
        "CAST(floor(CAST(embedding[i] AS DOUBLE) * 1000 + 0.5) "
        "AS BIGINT) AS x FROM (SELECT vec_id, embedding, "
        "unnest(range(1, len(embedding) + 1)) AS i FROM embeddings)), "
        "ec_n AS (SELECT CAST(count(*) AS HUGEINT) AS n "
        "FROM embeddings), "
        "ec_s AS (SELECT i, CAST(sum(x) AS HUGEINT) AS s "
        "FROM ec_x GROUP BY 1), "
        "ec_p AS (SELECT a.i AS i, b.i AS j, "
        "CAST(sum(a.x * b.x) AS HUGEINT) AS sp FROM ec_x a "
        "JOIN ec_x b ON b.vec_id = a.vec_id AND b.i >= a.i "
        "GROUP BY 1, 2) "
        "SELECT p.i, p.j, CAST(n AS BIGINT) AS n_vecs, "
        "CAST(n * sp - sa.s * sb.s AS BIGINT) AS cov_num "
        "FROM ec_p p CROSS JOIN ec_n "
        "JOIN ec_s sa ON sa.i = p.i JOIN ec_s sb ON sb.i = p.j "
        "ORDER BY 1, 2")


def q_embedding_norm_audit(sf_dir: str):
    """EMBEDDING NORM AUDIT PER LABEL (the drift / collapse check run
    before any ANN build: un-normalized or degenerate vectors break
    cosine assumptions silently): per label the vector count, the
    summed e3-quantized component mass, the summed squared-norm mass,
    and the min/max per-vector squared norm — all exact int64 on the
    shared quantize_e3 contract (label_centroids' convention), so the
    gate never meets float math.

    Scale shape: pure per-batch combiner (one matmul-free (q*q).sum
    per batch + factorize/bincount over labels) → enum-sized partials
    (labels × 6 ints per block); sums merge by +, extrema by min/max
    in one tiny driver groupby. The vectors never move. Overflow:
    per-vector nrm2 ≤ dim·max_q² is asserted < 2^62 / corpus-block
    headroom at the partial."""
    from ..stages.simsearch import _to_matrix, quantize_e3
    ds = read_table(sf_dir, "embeddings", columns=["embedding", "label"])

    def part(batch: pa.Table) -> pa.Table:
        lab = batch["label"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        q = quantize_e3(_to_matrix(batch["embedding"])).astype(np.int64)
        assert int(np.abs(q).max(initial=0)) ** 2 * q.shape[1] \
            * max(len(lab), 1) < 2 ** 62, "nrm2 partial would overflow"
        nrm2 = (q * q).sum(axis=1)
        codes, uniq = pd.factorize(lab)
        k = len(uniq)
        n = np.bincount(codes, minlength=k).astype(np.int64)
        s1 = np.zeros(k, np.int64)
        np.add.at(s1, codes, q.sum(axis=1))
        s2 = np.zeros(k, np.int64)
        np.add.at(s2, codes, nrm2)
        mn = np.full(k, np.iinfo(np.int64).max)
        np.minimum.at(mn, codes, nrm2)
        mx = np.full(k, np.iinfo(np.int64).min)
        np.maximum.at(mx, codes, nrm2)
        return pa.table({"label": pa.array(uniq), "n_vecs": pa.array(n),
                         "sum_q": pa.array(s1), "sum_q2": pa.array(s2),
                         "min_nrm2": pa.array(mn), "max_nrm2": pa.array(mx)})

    pdf = ds.map_batches(part, batch_format="pyarrow").to_pandas()
    if pdf.empty:
        return pdf
    # enum-sized (labels × blocks) partial set; sums merge by +,
    # extrema by min/max — sorted first so the reduce is bit-stable
    pdf = pdf.sort_values(list(pdf.columns)).reset_index(drop=True)
    out = pdf.groupby("label", as_index=False).agg(
        n_vecs=("n_vecs", "sum"), sum_q=("sum_q", "sum"),
        sum_q2=("sum_q2", "sum"), min_nrm2=("min_nrm2", "min"),
        max_nrm2=("max_nrm2", "max"))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("label").reset_index(drop=True)


def _charclass_oracle_sql() -> str:
    classes = ", ".join(
        f"CAST(sum(length(text) - length(regexp_replace(text, "
        f"'{pat}', '', 'g'))) AS BIGINT) AS {name}"
        for name, pat in [("n_digits", "[0-9]"), ("n_upper", "[A-Z]"),
                          ("n_space", "\\s"), ("n_punct", "[[:punct:]]")])
    return (
        "SELECT source, CAST(count(*) AS BIGINT) AS n_docs, "
        "CAST(sum(length(text)) AS BIGINT) AS n_chars, "
        f"{classes} FROM documents GROUP BY source ORDER BY source")


def _token_length_hist_oracle_sql() -> str:
    from ..functions.sqlmirror import tokens_sql
    return (
        f"WITH vt AS (SELECT unnest({tokens_sql('text')}) AS tok "
        "FROM documents), "
        "t2 AS (SELECT tok, least(length(tok), 20) AS token_len FROM vt) "
        "SELECT CAST(token_len AS BIGINT) AS token_len, "
        "CAST(count(*) AS BIGINT) AS n_tokens, "
        "CAST(count(DISTINCT tok) AS BIGINT) AS n_distinct "
        "FROM t2 GROUP BY 1 ORDER BY 1")


def _ngram_novelty_oracle_sql() -> str:
    from ..functions.sqlmirror import tokens_sql
    return (
        f"WITH toks AS (SELECT source, {tokens_sql('text')} AS t "
        "FROM documents), "
        "sh0 AS (SELECT source, unnest(CASE WHEN len(t) < 3 "
        "THEN [coalesce(array_to_string(t, ' '), '')] "
        "ELSE list_distinct(list_transform(range(1, len(t) - 1), "
        "i -> t[i] || ' ' || t[i + 1] || ' ' || t[i + 2])) END) AS s "
        "FROM toks), "
        "sh AS (SELECT DISTINCT source, s FROM sh0), "
        "b AS (SELECT min(source) AS bs FROM documents), "
        "bset AS (SELECT s FROM sh, b WHERE source = bs) "
        "SELECT source, CAST(count(*) AS BIGINT) AS n_shingles, "
        "CAST(sum(CASE WHEN s IN (SELECT s FROM bset) THEN 0 ELSE 1 "
        "END) AS BIGINT) AS n_new "
        "FROM sh GROUP BY source ORDER BY source")


def _containment_pairs_oracle_sql() -> str:
    # dedup_jaccard_exact's shingle CTEs with Broder's containment
    # denominator least(|A|, |B|) instead of the union
    return (
        "WITH toks AS (SELECT doc_id, "
        "list_filter(string_split_regex(text, '[ \t\n\r\f\v]+'), "
        "__x -> __x <> '') AS t FROM documents), "
        "sh AS (SELECT doc_id, unnest(CASE WHEN len(t) < 3 "
        "THEN [coalesce(array_to_string(t, ' '), '')] "
        "ELSE list_distinct(list_transform(range(1, len(t) - 1), "
        "i -> t[i] || ' ' || t[i + 1] || ' ' || t[i + 2])) END) AS s "
        "FROM toks), "
        "sz AS (SELECT doc_id, count(*) AS n_sh FROM sh GROUP BY doc_id), "
        "p AS (SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS inter "
        "FROM sh x JOIN sh y ON x.s = y.s AND x.doc_id < y.doc_id "
        "GROUP BY 1, 2) "
        "SELECT a, b, CAST(inter AS BIGINT) AS inter, "
        "CAST((inter * 1000000) // least(sa.n_sh, sb.n_sh) AS BIGINT) "
        "AS containment_e6 FROM p "
        "JOIN sz sa ON p.a = sa.doc_id JOIN sz sb ON p.b = sb.doc_id "
        "WHERE (inter * 1000000) // least(sa.n_sh, sb.n_sh) >= 600000")


def _hapax_oracle_sql() -> str:
    from ..functions.sqlmirror import tokens_sql
    return (
        f"WITH vt AS (SELECT source, unnest({tokens_sql('text')}) AS tok "
        "FROM documents), "
        "c AS (SELECT source, tok, count(*) AS n FROM vt GROUP BY 1, 2) "
        "SELECT source, CAST(sum(n) AS BIGINT) AS n_tokens, "
        "CAST(count(*) AS BIGINT) AS n_distinct, "
        "CAST(sum(CASE WHEN n = 1 THEN 1 ELSE 0 END) AS BIGINT) "
        "AS n_hapax FROM c GROUP BY source ORDER BY source")


def q_source_cosine_matrix(sf_dir: str):
    """SOURCE-PAIR TOKEN-DISTRIBUTION COSINE MATRIX (the domain-
    mixture audit: near-1 cosine between two sources means redundant
    domains, near-0 means a distribution shift worth a mixture
    weight): cosine similarity between every pair of per-source token
    count vectors on the shared tokenizer contract. Dots and norms
    are exact int64; the final cosine is the one float —
    dot / (sqrt(norm_a) * sqrt(norm_b)) — every operation IEEE
    correctly-rounded and evaluated in the same order in both
    engines, so the gate stays hash-exact.

    Scale shape: per-batch (source, token, n) partials (one Arrow
    split per batch) → bucketed by TOKEN so each token's full
    cross-source count vector completes in one bucket → per-bucket
    count matrix (tokens × sources) and ONE int64 matmul M.T @ M
    emits enum²-sized (src_a, src_b, partial_dot) rows (diagonal =
    norm partials) → tiny driver merge. The vocabulary never reaches
    the driver; the exchange is distinct (source, token) rows only."""
    ds = read_table(sf_dir, "documents", columns=["source", "text"])

    def part(batch: pa.Table) -> pa.Table:
        stripped = pc.utf8_trim_whitespace(
            pc.fill_null(pc.cast(batch["text"], pa.string()), ""))
        lists = split_ws(stripped)
        raw_lens = np.diff(lists.offsets.to_numpy(zero_copy_only=False)
                           .astype(np.int64))
        empty = np.asarray(pc.equal(stripped, "")
                           .to_numpy(zero_copy_only=False))
        keep = ~np.repeat(empty, raw_lens)
        flat = pc.cast(lists.flatten(), pa.string()).filter(pa.array(keep))
        doc_idx = np.repeat(np.arange(len(raw_lens), dtype=np.int64),
                            raw_lens)[keep]
        src = pc.cast(batch["source"], pa.string())
        t = pa.table({"source": src.take(pa.array(doc_idx)),
                      "token": flat,
                      "n": pa.array(np.ones(len(doc_idx), np.int64))})
        g = t.group_by(["source", "token"]).aggregate([("n", "sum")])
        return pa.table({"source": g["source"], "token": g["token"],
                         "n": g["n_sum"]})

    def bucket_dots(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby(["token", "source"], as_index=False)["n"].sum()
        ti, _ = pd.factorize(c["token"])
        si, src = pd.factorize(c["source"])
        m = np.zeros((ti.max() + 1, si.max() + 1), dtype=np.int64)
        m[ti, si] = c["n"].to_numpy(dtype=np.int64)
        assert int(m.max(initial=0)) ** 2 * m.shape[0] < 2 ** 62, \
            "cosine matmul would overflow int64"
        dots = m.T @ m
        assert int(dots.max(initial=0)) < 2 ** 53, \
            "cosine dot exceeds the exact-double envelope"
        a, b = np.triu_indices(dots.shape[0])
        order = np.argsort(np.asarray(src, dtype=object), kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        # canonical pair orientation: lexicographically smaller first
        sa, sb = rank[a], rank[b]
        lo, hi = np.minimum(sa, sb), np.maximum(sa, sb)
        names = np.asarray(src, dtype=object)[order]
        d = dots[a, b]
        keep = d > 0
        return pd.DataFrame({"src_a": names[lo[keep]],
                             "src_b": names[hi[keep]],
                             "dot": d[keep].astype(np.int64)})

    parts = map_buckets(ds.map_batches(part, batch_format="pyarrow"),
                        ["token"], bucket_dots)
    merged = merge_partials(parts, ["src_a", "src_b"], {"dot": "sum"})
    merged["dot"] = merged["dot"].astype("int64")
    nrm = (merged[merged["src_a"] == merged["src_b"]]
           .set_index("src_a")["dot"])
    out = merged[merged["src_a"] != merged["src_b"]].copy()
    out["norm_a"] = out["src_a"].map(nrm).astype("int64")
    out["norm_b"] = out["src_b"].map(nrm).astype("int64")
    out["cos_sim"] = (out["dot"].to_numpy(dtype=np.float64)
                      / (np.sqrt(out["norm_a"].to_numpy(np.float64))
                         * np.sqrt(out["norm_b"].to_numpy(np.float64))))
    return (out[["src_a", "src_b", "dot", "norm_a", "norm_b", "cos_sim"]]
            .sort_values(["src_a", "src_b"]).reset_index(drop=True))


def _source_cosine_oracle_sql() -> str:
    from ..functions.sqlmirror import tokens_sql
    return (
        f"WITH vt AS (SELECT source, unnest({tokens_sql('text')}) AS tok "
        "FROM documents), "
        "c AS MATERIALIZED (SELECT source, tok, "
        "CAST(count(*) AS BIGINT) AS n FROM vt GROUP BY 1, 2), "
        "d AS (SELECT a.source AS src_a, b.source AS src_b, "
        "CAST(sum(a.n * b.n) AS BIGINT) AS dot "
        "FROM c a JOIN c b ON a.tok = b.tok AND a.source < b.source "
        "GROUP BY 1, 2), "
        "nrm AS (SELECT source, CAST(sum(n * n) AS BIGINT) AS nrm "
        "FROM c GROUP BY 1) "
        "SELECT d.src_a, d.src_b, d.dot, "
        "na.nrm AS norm_a, nb.nrm AS norm_b, "
        "CAST(d.dot AS DOUBLE) / (sqrt(CAST(na.nrm AS DOUBLE)) "
        "* sqrt(CAST(nb.nrm AS DOUBLE))) AS cos_sim "
        "FROM d JOIN nrm na ON na.source = d.src_a "
        "JOIN nrm nb ON nb.source = d.src_b ORDER BY 1, 2")


JR_SALT = 0x41C9_2E07_BB16_000B  # jsonl round-trip id draw (< 2^63)
CR_SALT = 0x66A0_1F5D_290C_000C  # csv round-trip id draw (< 2^63)
WR_SALT = 0x2D83_7A4E_51F0_000D  # warc round-trip id draw (< 2^63)
IR_SALT = 0x59B1_C6D2_8E34_000E  # arrow-ipc round-trip id draw (< 2^63)
GZ_SALT = 0x1E47_9A20_D6B8_0019  # gzip-jsonl round-trip id draw (< 2^63)


def _parse_warc_batch(batch: pa.Table) -> pa.Table:
    """Parse whole WARC files (one ``bytes`` row per file from
    ``read_binary_files``) into document rows. Sequential within a
    file by WARC's framing; header parse is a dict comprehension over
    CRLF lines, the body is a Content-Length slice (never scanned)."""
    import json as _json
    out = {"doc_id": [], "text": [], "lang": [], "source": [],
           "n_chars": []}
    for buf in batch["bytes"].to_pylist():
        pos = 0
        n = len(buf)
        while pos < n:
            hend = buf.index(b"\r\n\r\n", pos)
            hdr = {}
            for line in buf[pos:hend].decode("utf-8").split("\r\n")[1:]:
                k, _, v = line.partition(": ")
                hdr[k] = v
            clen = int(hdr["Content-Length"])
            body = buf[hend + 4:hend + 4 + clen]
            out["doc_id"].append(int(
                hdr["WARC-Record-ID"].rsplit(":", 1)[1].rstrip(">")))
            out["text"].append(body.decode("utf-8"))
            out["source"].append(_json.loads(hdr["X-Graft-Source"]))
            out["lang"].append(_json.loads(hdr["X-Graft-Lang"]))
            out["n_chars"].append(int(hdr["X-Graft-NChars"]))
            pos = hend + 4 + clen + 4   # skip body + record CRLFCRLF
    return pa.table({"doc_id": pa.array(out["doc_id"], pa.int64()),
                     "text": pa.array(out["text"], pa.string()),
                     "lang": pa.array(out["lang"], pa.string()),
                     "source": pa.array(out["source"], pa.string()),
                     "n_chars": pa.array(out["n_chars"], pa.int64())})


def _roundtrip_stats(sf_dir: str, fmt: str, salt: int):
    """Shared body of the JSONL/CSV source-format gates: export the
    documents table to ``fmt`` shards (one per block, written IN the
    map task — the driver never holds the corpus), read them back
    with the corresponding ``ray.data.read_*`` reader, and emit
    per-source integrity stats computed FROM THE PARSED ROWS: doc
    count, characters of parsed text, the carried n_chars sum, parsed
    token total, and the XOR of splitmix64(doc_id ^ salt). The DuckDB
    twin computes the same stats from the original parquet, so any
    escaping / quoting / parsing / dtype corruption breaks the hash.

    Scale shape: write and read are both block-parallel streaming
    stages; stats are enum-keyed combiner partials (XOR and sums merge
    associatively). The /tmp shard dir is single-node scratch — a
    cluster export writes per-shard files + _SUCCESS markers to shared
    storage (sources/storage.export_partitioned_resumable is the
    production path; these ops gate the READERS)."""
    import csv as _csv
    import glob as _glob
    import gzip as _gzip
    import json as _json
    import shutil

    import ray.data as rd

    from ..stages.sampling import row_hash

    root = os.path.join("/tmp", f"graft_{fmt}_rt",
                        os.path.basename(sf_dir.rstrip("/")))
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root, exist_ok=True)

    ds = read_table(sf_dir, "documents")

    def write_shard(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table({"path": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        path = os.path.join(root, f"shard_{int(ids.min()):012d}.{fmt}")
        if fmt == "arrow":
            # Arrow IPC file format: zero-escaping binary columnar
            # shards (the on-disk twin of the object-store block
            # format Ray ships between stages)
            with pa.ipc.new_file(path, batch.schema) as w:
                w.write_table(batch)
            return pa.table({"path": pa.array([path]),
                             "n": pa.array([len(batch)], pa.int64())})
        cols = batch.column_names
        rows = zip(*(batch[c].to_pylist() for c in cols))
        if fmt == "warc":
            # WARC/1.0-style records: CRLF headers, blank line, a
            # Content-Length-framed utf-8 payload (so ANY text body —
            # embedded CR/LF/quotes — round-trips byte-exact), two
            # CRLFs between records. String header values are
            # JSON-quoted (headers may not contain CR/LF).
            with open(path, "wb") as f:
                for row in rows:
                    d = dict(zip(cols, row))
                    body = (d.get("text") or "").encode("utf-8")
                    hdr = (
                        "WARC/1.0\r\n"
                        "WARC-Type: resource\r\n"
                        f"WARC-Record-ID: <urn:graft:doc:{d['doc_id']}>\r\n"
                        f"X-Graft-Source: {_json.dumps(d.get('source') or '', ensure_ascii=False)}\r\n"
                        f"X-Graft-Lang: {_json.dumps(d.get('lang') or '', ensure_ascii=False)}\r\n"
                        f"X-Graft-NChars: {d['n_chars']}\r\n"
                        "Content-Type: text/plain\r\n"
                        f"Content-Length: {len(body)}\r\n\r\n")
                    f.write(hdr.encode("utf-8"))
                    f.write(body)
                    f.write(b"\r\n\r\n")
        else:
            opener = ((lambda: _gzip.open(path, "wt", encoding="utf-8",
                                          newline=""))
                      if fmt.endswith(".gz") else
                      (lambda: open(path, "w", encoding="utf-8",
                                    newline="")))
            with opener() as f:
                if fmt.startswith("jsonl"):
                    for row in rows:
                        f.write(_json.dumps(dict(zip(cols, row)),
                                            ensure_ascii=False) + "\n")
                else:
                    wr = _csv.writer(f)  # QUOTE_MINIMAL
                    wr.writerow(cols)
                    wr.writerows(rows)
        return pa.table({"path": pa.array([path]),
                         "n": pa.array([len(batch)], pa.int64())})

    manifest = ds.map_batches(write_shard,
                              batch_format="pyarrow").to_pandas()
    assert int(manifest["n"].sum()) > 0, f"{fmt} export wrote nothing"

    files = sorted(_glob.glob(os.path.join(root, f"*.{fmt}")))
    if fmt == "jsonl":
        back = rd.read_json(files)
    elif fmt == "jsonl.gz":
        # the reference's gzip items-file path (S3 reader family,
        # lib/misc/helpers.ts gunzip): pyarrow decompresses inside
        # each read task — file-parallel, never a driver gunzip
        back = rd.read_json(
            files, arrow_open_stream_args={"compression": "gzip"})
    elif fmt == "warc":
        # file-parallel WARC parse (the Common Crawl processing
        # shape: record boundaries are only discoverable sequentially
        # WITHIN a file via Content-Length jumps — the loop is per
        # RECORD with O(header)+slice work, the payload is never
        # scanned; the distribution axis is one task per WARC file)
        back = rd.read_binary_files(files).map_batches(
            _parse_warc_batch, batch_format="pyarrow")
    elif fmt == "arrow":
        # file-parallel IPC reader: one task per shard, zero-copy
        # column access once mapped
        def _parse_ipc(batch: pa.Table) -> pa.Table:
            outs = [pa.ipc.open_file(pa.BufferReader(buf)).read_all()
                    for buf in batch["bytes"].to_pylist()]
            return pa.concat_tables(outs)
        back = rd.read_binary_files(files).map_batches(
            _parse_ipc, batch_format="pyarrow")
    else:
        from pyarrow import csv as pacsv
        back = rd.read_csv(
            files,
            parse_options=pacsv.ParseOptions(newlines_in_values=True))

    def part(batch: pa.Table) -> pa.Table:
        src = pc.cast(batch["source"], pa.string()) \
            .to_numpy(zero_copy_only=False)
        text = pc.fill_null(pc.cast(batch["text"], pa.string()), "")
        chars = pc.utf8_length(text).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        stripped = pc.utf8_trim_whitespace(text)
        lists = split_ws(stripped)
        raw_lens = np.diff(lists.offsets.to_numpy(zero_copy_only=False)
                           .astype(np.int64))
        empty = np.asarray(pc.equal(stripped, "")
                           .to_numpy(zero_copy_only=False))
        toks = np.where(empty, 0, raw_lens)
        nch = batch["n_chars"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        h = row_hash(batch["doc_id"], salt)
        si, names = pd.factorize(src)
        k = len(names)
        xor = np.zeros(k, dtype=np.uint64)
        np.bitwise_xor.at(xor, si, h)
        return pa.table({
            "source": pa.array(names.astype(object)),
            "n_docs": pa.array(np.bincount(si, minlength=k)
                               .astype(np.int64)),
            "chars_sum": pa.array(np.bincount(
                si, weights=chars, minlength=k).astype(np.int64)),
            "n_chars_sum": pa.array(np.bincount(
                si, weights=nch, minlength=k).astype(np.int64)),
            "tok_total": pa.array(np.bincount(
                si, weights=toks, minlength=k).astype(np.int64)),
            "id_xor": pa.array(xor.view(np.int64)),
        })

    pdf = back.map_batches(part, batch_format="pyarrow").to_pandas()
    pdf = pdf.sort_values(["source", "id_xor"]).reset_index(drop=True)
    sums = pdf.groupby("source", as_index=False)[
        ["n_docs", "chars_sum", "n_chars_sum", "tok_total"]].sum()
    xors = pdf.groupby("source")["id_xor"].apply(
        lambda s: np.bitwise_xor.reduce(
            s.to_numpy(dtype=np.int64).view(np.uint64)).view(np.int64)
        .item()).reset_index()
    out = sums.merge(xors, on="source")
    for c in ["n_docs", "chars_sum", "n_chars_sum", "tok_total",
              "id_xor"]:
        out[c] = out[c].astype("int64")
    return out.sort_values("source").reset_index(drop=True)


def q_jsonl_roundtrip_stats(sf_dir: str):
    """JSONL SOURCE-FORMAT GATE — see ``_roundtrip_stats`` (ingest
    surface next to the items-file/gzip readers, reference S2/S3
    family): block-parallel JSONL export → ``ray.data.read_json`` →
    parsed-content stats hash-gated against the original parquet."""
    return _roundtrip_stats(sf_dir, "jsonl", JR_SALT)


def q_gzip_roundtrip_stats(sf_dir: str):
    """GZIP-JSONL SOURCE-FORMAT GATE — see ``_roundtrip_stats``: the
    compressed ingest path (the reference reads gzipped items files
    from S3 — crawler task item sources, S2/S3 family): block-parallel
    gzip-compressed JSONL export → ``ray.data.read_json`` with
    per-task pyarrow gzip decompression → parsed-content stats
    hash-gated against the original parquet under an independent
    salt. Exercises the compression codec seam on top of the JSONL
    escaping surface."""
    return _roundtrip_stats(sf_dir, "jsonl.gz", GZ_SALT)


def q_csv_roundtrip_stats(sf_dir: str):
    """CSV SOURCE-FORMAT GATE — see ``_roundtrip_stats``:
    block-parallel QUOTE_MINIMAL csv export → ``ray.data.read_csv``
    (newlines-in-values enabled, exercising quoted embedded
    newlines/tabs) → parsed-content stats hash-gated against the
    original parquet under an independent salt."""
    return _roundtrip_stats(sf_dir, "csv", CR_SALT)


def q_warc_roundtrip_stats(sf_dir: str):
    """WARC SOURCE-FORMAT GATE — see ``_roundtrip_stats``: the
    crawl-archive standard (ISO 28500, what Common Crawl ships and
    the reference's S3 result files stand in for): block-parallel
    export of Content-Length-framed WARC/1.0-style records → a
    file-parallel sequential-within-file record parser
    (``_parse_warc_batch``) → parsed-content stats hash-gated against
    the original parquet under an independent salt. Exercises binary
    framing rather than escaping: embedded CR/LF/quotes in the body
    round-trip byte-exact because the payload is length-framed."""
    return _roundtrip_stats(sf_dir, "warc", WR_SALT)


def q_ipc_roundtrip_stats(sf_dir: str):
    """ARROW IPC SOURCE-FORMAT GATE — see ``_roundtrip_stats``: the
    binary columnar interchange format (what Ray's object store
    blocks serialize as, and the cheapest shard format for
    engine-to-engine handoff): block-parallel ``pa.ipc.new_file``
    export → file-parallel IPC parse → parsed-content stats
    hash-gated against the original parquet under an independent
    salt. No escaping surface at all — the gate guards framing,
    schema fidelity and dtype preservation instead."""
    return _roundtrip_stats(sf_dir, "arrow", IR_SALT)


def _roundtrip_oracle_sql(salt: int) -> str:
    from ..functions.sqlmirror import splitmix64_cte, tokens_sql
    w, c = splitmix64_cte(
        "SELECT doc_id, source, n_chars, text FROM documents",
        f"xor(CAST(doc_id AS UBIGINT), CAST({salt} AS UBIGINT))",
        "h", carry_cols=("doc_id", "source", "n_chars", "text"),
        prefix="jr_")
    return w + (
        f" SELECT source, CAST(count(*) AS BIGINT) AS n_docs, "
        "CAST(sum(length(coalesce(text, ''))) AS BIGINT) AS chars_sum, "
        "CAST(sum(n_chars) AS BIGINT) AS n_chars_sum, "
        "CAST(sum(len(" + tokens_sql("coalesce(text, '')")
        + ")) AS BIGINT) AS tok_total, "
        "CAST(CAST(bit_xor(h) AS HUGEINT) - CASE WHEN bit_xor(h) >= "
        "9223372036854775808 THEN 18446744073709551616 ELSE 0 END "
        "AS BIGINT) AS id_xor "
        f"FROM {c} GROUP BY source ORDER BY source")


def q_surprisal_bits(sf_dir: str):
    """UNIGRAM SURPRISAL SCORING IN WHOLE BITS (the LM-quality ranking
    without a float log: per token occurrence the surprisal is
    msb(N) − msb(c) — floor-log2 is EXACT integer in both engines, so
    an iterative-LM-flavored score stays hash-gateable): per source,
    the summed surprisal of all its docs, the max per-doc surprisal,
    and the most surprising doc (tie-break smallest doc_id). Docs with
    zero tokens carry no score row in either engine.

    Scale shape: two streaming passes. Pass A: the vocab combiner →
    token-bucketed global counts IN RAY (driver holds only per-bucket
    sums for N). Pass B: per-batch (doc, source, token, k) partials →
    tagged-union bucketed hash join against the count table (the j2
    shape — both sides data-sized, no broadcast of the vocabulary) →
    per-doc bit partials → doc-bucketed exact totals → enum-sized
    per-source partials with argmax carried, tiny driver merge. msb
    via float64 frexp, exact for counts < 2^53 (asserted)."""
    from .analytics import _tagged_union_join

    ds = read_table(sf_dir, "documents",
                    columns=["doc_id", "source", "text"])

    # pass A: global token counts, merged in Ray; N from bucket sums
    vc = _token_counts(ds)

    def _bucket_n(batch: pa.Table) -> pa.Table:
        return pa.table({"n": pa.array(
            [int(batch["n"].to_numpy(zero_copy_only=False).sum())],
            pa.int64())})

    n_total = int(vc.map_batches(_bucket_n, batch_format="pyarrow")
                  .to_pandas()["n"].sum())
    assert 0 < n_total < 2 ** 50, "msb exactness envelope"
    msb_n = int(np.frexp(np.float64(n_total))[1]) - 1

    def _msb(v: np.ndarray) -> np.ndarray:
        assert int(v.max(initial=1)) < 2 ** 50, "msb exactness envelope"
        return np.frexp(v.astype(np.float64))[1].astype(np.int64) - 1

    # pass B left side: (doc_id, source, token, k) per batch
    def doc_tok(batch: pa.Table) -> pa.Table:
        stripped = pc.utf8_trim_whitespace(
            pc.fill_null(pc.cast(batch["text"], pa.string()), ""))
        lists = split_ws(stripped)
        raw_lens = np.diff(lists.offsets.to_numpy(zero_copy_only=False)
                           .astype(np.int64))
        empty = np.asarray(pc.equal(stripped, "")
                           .to_numpy(zero_copy_only=False))
        keep = ~np.repeat(empty, raw_lens)
        flat = pc.cast(lists.flatten(), pa.string()).filter(pa.array(keep))
        doc_idx = np.repeat(np.arange(len(raw_lens), dtype=np.int64),
                            raw_lens)[keep]
        ids = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)[doc_idx]
        src = pc.cast(batch["source"], pa.string()) \
            .to_numpy(zero_copy_only=False)[doc_idx]
        t = pa.table({"doc_id": pa.array(ids), "source": pa.array(src),
                      "token": flat,
                      "k": pa.array(np.ones(len(ids), np.int64))})
        g = t.group_by(["doc_id", "source", "token"]).aggregate(
            [("k", "sum")])
        return pa.table({"doc_id": g["doc_id"], "source": g["source"],
                         "token": g["token"], "k": g["k_sum"],
                         "side": pa.array(["d"] * len(g))})

    def count_side(batch: pa.Table) -> pa.Table:
        z = np.zeros(len(batch), dtype=np.int64)
        return pa.table({"doc_id": pa.array(z),
                         "source": pa.array([""] * len(batch)),
                         "token": batch["token"],
                         "k": pc.cast(batch["n"], pa.int64()),
                         "side": pa.array(["c"] * len(batch))})

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        c = g[g["side"] == "c"][["token", "k"]] \
            .rename(columns={"k": "n"})
        d = g[g["side"] == "d"]
        if d.empty or c.empty:
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "source": pd.Series([], dtype="object"),
                                 "bits": pd.Series([], dtype="int64")})
        # cross-block doc-token fragments re-combine before scoring
        d = d.groupby(["doc_id", "source", "token"],
                      as_index=False)["k"].sum()
        m = d.merge(c, on="token", how="inner")
        assert len(m) == len(d), "token missing from the count table"
        bits = m["k"].to_numpy(dtype=np.int64) * (
            msb_n - _msb(m["n"].to_numpy(dtype=np.int64)))
        out = pd.DataFrame({"doc_id": m["doc_id"].to_numpy(np.int64),
                            "source": m["source"].to_numpy(),
                            "bits": bits})
        return out.groupby(["doc_id", "source"],
                           as_index=False)["bits"].sum()

    per_doc_parts = _tagged_union_join(
        ds.map_batches(doc_tok, batch_format="pyarrow"),
        vc.map_batches(count_side, batch_format="pyarrow"),
        "token", join_bucket)

    # doc-bucketed exact per-doc totals → per-source argmax partials
    def source_partial(g: pd.DataFrame) -> pd.DataFrame:
        d = g.groupby(["doc_id", "source"], as_index=False)["bits"].sum()
        d = d.sort_values(["bits", "doc_id"],
                          ascending=[False, True])
        top = d.groupby("source", as_index=False).first()
        agg = d.groupby("source", as_index=False)["bits"].sum() \
            .rename(columns={"bits": "sum_bits"})
        out = agg.merge(top.rename(columns={"bits": "max_bits",
                                            "doc_id": "top_doc_id"}),
                        on="source")
        return out[["source", "sum_bits", "max_bits", "top_doc_id"]]

    parts = map_buckets(per_doc_parts, ["doc_id"], source_partial)
    pdf = parts.to_pandas()
    pdf = pdf.sort_values(["source", "max_bits", "top_doc_id"]) \
        .reset_index(drop=True)
    sums = pdf.groupby("source", as_index=False)["sum_bits"].sum()
    best = pdf.sort_values(["max_bits", "top_doc_id"],
                           ascending=[False, True]) \
        .groupby("source", as_index=False).first()
    out = sums.merge(best[["source", "max_bits", "top_doc_id"]],
                     on="source")
    for c in ["sum_bits", "max_bits", "top_doc_id"]:
        out[c] = out[c].astype("int64")
    return out.sort_values("source").reset_index(drop=True)


def _surprisal_oracle_sql() -> str:
    from ..functions.sqlmirror import tokens_sql
    return (
        f"WITH vt AS (SELECT doc_id, source, "
        f"unnest({tokens_sql('text')}) AS tok FROM documents), "
        "c AS MATERIALIZED (SELECT tok, CAST(count(*) AS BIGINT) AS n "
        "FROM vt GROUP BY 1), "
        "nn AS (SELECT CAST(sum(n) AS BIGINT) AS nt, "
        "CAST(length(format('{:b}', CAST(sum(n) AS BIGINT))) - 1 "
        "AS BIGINT) AS msbn FROM c), "
        "d AS (SELECT v.doc_id, v.source, CAST(sum((SELECT msbn FROM nn) "
        "- (length(format('{:b}', CAST(c.n AS BIGINT))) - 1)) "
        "AS BIGINT) AS bits "
        "FROM vt v JOIN c ON c.tok = v.tok GROUP BY 1, 2), "
        "r AS (SELECT *, row_number() OVER (PARTITION BY source "
        "ORDER BY bits DESC, doc_id ASC) AS rn FROM d) "
        "SELECT d.source, CAST(sum(d.bits) AS BIGINT) AS sum_bits, "
        "max(r.bits) AS max_bits, max(r.doc_id) AS top_doc_id "
        "FROM d JOIN r ON r.source = d.source AND r.rn = 1 "
        "GROUP BY d.source ORDER BY d.source")


CDC_SALT = 0x7E15_49AC_D203_000D  # merge-apply change draw (< 2^63)


def q_cdc_merge_stats(sf_dir: str):
    """CDC MERGE / UPSERT APPLY (the write-side counterpart to the
    read-side ``snapshot_diff``): a deterministic change batch —
    per doc h = splitmix64(doc_id ^ salt) % 10; h=0 → UPDATE
    (n_chars += 1000), h=1 → DELETE, h=2 → additionally INSERT a new
    row (doc_id + 10⁹, n_chars + 7) — is applied to the documents
    table with MERGE semantics in one streaming pass, and the merged
    table's per-source stats (rows, n_chars mass, doc_id mass) are
    hash-gated against a DuckDB twin that applies the identical
    change batch in SQL.

    Scale shape: pure per-batch transform (the change draw, the
    update, the delete filter and the insert emission are all
    vectorized on the block) → enum-keyed stats combiner → tiny
    driver merge. No shuffle: MERGE against a STREAMED change source
    keyed by the same id needs no exchange at all when changes are
    derived in place; a keyed external change feed would route through
    the bucketed semi-join instead (stages/joins)."""
    from ..stages.sampling import row_hash

    ds = read_table(sf_dir, "documents",
                    columns=["doc_id", "source", "n_chars"])

    def apply_and_stats(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        nch = batch["n_chars"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        src = pc.cast(batch["source"], pa.string()) \
            .to_numpy(zero_copy_only=False)
        h = (row_hash(batch["doc_id"], CDC_SALT)
             % np.uint64(10)).astype(np.int64)
        upd = np.where(h == 0, nch + 1000, nch)
        keep = h != 1
        ins = h == 2
        out_ids = np.concatenate([ids[keep], ids[ins] + 10 ** 9])
        out_nch = np.concatenate([upd[keep], nch[ins] + 7])
        out_src = np.concatenate([src[keep], src[ins]])
        # arrow sums int64 exactly (float bincount weights would lose
        # exactness once a partial id mass crosses 2^53)
        return pa.table({"source": pa.array(out_src, pa.string()),
                         "id": out_ids, "nch": out_nch})

    out = aggregate(ds, ["source"], {"n_docs": ("id", "count"),
                                     "n_chars_sum": ("nch", "sum"),
                                     "id_sum": ("id", "sum")},
                    apply_and_stats)
    return out.sort_values("source").reset_index(drop=True)


def _cdc_merge_oracle_sql() -> str:
    from ..functions.sqlmirror import splitmix64_cte
    w, c = splitmix64_cte(
        "SELECT doc_id, source, n_chars FROM documents",
        f"xor(CAST(doc_id AS UBIGINT), CAST({CDC_SALT} AS UBIGINT))",
        "h", carry_cols=("doc_id", "source", "n_chars"), prefix="cd_")
    return w + (
        f", cd_h AS (SELECT doc_id, source, n_chars, "
        f"CAST(h % 10 AS BIGINT) AS hh FROM {c}), "
        "cd_m AS (SELECT doc_id, source, "
        "CASE WHEN hh = 0 THEN n_chars + 1000 ELSE n_chars END "
        "AS n_chars FROM cd_h WHERE hh <> 1 "
        "UNION ALL SELECT doc_id + 1000000000, source, n_chars + 7 "
        "FROM cd_h WHERE hh = 2) "
        "SELECT source, CAST(count(*) AS BIGINT) AS n_docs, "
        "CAST(sum(n_chars) AS BIGINT) AS n_chars_sum, "
        "CAST(sum(doc_id) AS BIGINT) AS id_sum "
        "FROM cd_m GROUP BY source ORDER BY source")


def q_gopher_rules(sf_dir: str):
    """GOPHER-STYLE COMPOSITE QUALITY RULES (Rae et al. 2021's
    document-filter shape, thresholds tuned to this corpus so every
    rule actually fires): per source, how many docs fail each rule
    and how many pass all of them. Rules, all integer-exact
    (cross-multiplied — the gate never meets a float ratio):
    short (n_words < 30), long (n_words > 80), word-length (mean
    token length outside [4.0, 4.6] via 10·chars vs 40·n / 46·n),
    stopword (< 2 occurrences of 'a'/'the'), repetition (type-token
    ratio < 0.5 via 2·distinct < n_words).

    Scale shape: pure per-batch combiner — one Arrow split, bincount
    per-doc stats (words, token chars, stopword hits, distinct via
    composite-key unique), flags vectorized, factorize-by-source sums
    → enum-sized partials, tiny driver merge. Zero shuffle; the
    tokens never leave the batch."""
    ds = read_table(sf_dir, "documents", columns=["source", "text"])
    cols = ["n_docs", "n_short", "n_long", "n_wordlen", "n_stop",
            "n_ttr", "n_pass"]

    def part(batch: pa.Table) -> pa.Table:
        stripped = pc.utf8_trim_whitespace(
            pc.fill_null(pc.cast(batch["text"], pa.string()), ""))
        lists = split_ws(stripped)
        n_docs = len(stripped)
        raw_lens = np.diff(lists.offsets.to_numpy(zero_copy_only=False)
                           .astype(np.int64))
        empty = np.asarray(pc.equal(stripped, "")
                           .to_numpy(zero_copy_only=False))
        keep = ~np.repeat(empty, raw_lens)
        flat = pc.cast(lists.flatten(), pa.string()).filter(pa.array(keep))
        doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64),
                            raw_lens)[keep]
        nw = np.bincount(doc_idx, minlength=n_docs).astype(np.int64)
        tlen = pc.utf8_length(flat).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        chars = np.zeros(n_docs, dtype=np.int64)
        np.add.at(chars, doc_idx, tlen)
        stop_mask = pc.is_in(flat, value_set=pa.array(["a", "the"])) \
            .to_numpy(zero_copy_only=False)
        stop = np.bincount(doc_idx[stop_mask],
                           minlength=n_docs).astype(np.int64)
        codes, uniq = pd.factorize(flat.to_numpy(zero_copy_only=False))
        kdoc = np.unique(doc_idx * max(len(uniq), 1) + codes) \
            // max(len(uniq), 1)
        nd = np.bincount(kdoc, minlength=n_docs).astype(np.int64)
        f_short = nw < 30
        f_long = nw > 80
        f_wl = (10 * chars < 40 * nw) | (10 * chars > 46 * nw)
        f_stop = stop < 2
        f_ttr = 2 * nd < nw
        f_pass = ~(f_short | f_long | f_wl | f_stop | f_ttr)
        src = batch["source"].to_numpy(zero_copy_only=False)
        si, names = pd.factorize(src)
        k = len(names)
        sums = [np.bincount(si, minlength=k).astype(np.int64)]
        for f in (f_short, f_long, f_wl, f_stop, f_ttr, f_pass):
            sums.append(np.bincount(si, weights=f.astype(np.int64),
                                    minlength=k).astype(np.int64))
        return pa.table({"source": pa.array(names.astype(object)),
                         **{c: pa.array(v) for c, v in zip(cols, sums)}})

    out = aggregate(ds, ["source"], {c: (c, "sum") for c in cols}, part)
    return out.sort_values("source").reset_index(drop=True)


def _gopher_rules_oracle_sql() -> str:
    from ..functions.sqlmirror import tokens_sql
    return (
        f"WITH t AS (SELECT source, {tokens_sql('text')} AS toks, "
        "CAST(length(regexp_replace(coalesce(text, ''), "
        r"'[ \t\n\r\f\v]+', '', 'g')) AS BIGINT) AS chars "
        "FROM documents), "
        "p AS (SELECT source, CAST(len(toks) AS BIGINT) AS nw, chars, "
        "CAST(len(list_filter(toks, __x -> __x = 'a' OR __x = 'the')) "
        "AS BIGINT) AS stop_hits, "
        "CAST(len(list_distinct(toks)) AS BIGINT) AS nd FROM t), "
        "f AS (SELECT source, "
        "CASE WHEN nw < 30 THEN 1 ELSE 0 END AS f_short, "
        "CASE WHEN nw > 80 THEN 1 ELSE 0 END AS f_long, "
        "CASE WHEN 10 * chars < 40 * nw OR 10 * chars > 46 * nw "
        "THEN 1 ELSE 0 END AS f_wl, "
        "CASE WHEN stop_hits < 2 THEN 1 ELSE 0 END AS f_stop, "
        "CASE WHEN 2 * nd < nw THEN 1 ELSE 0 END AS f_ttr FROM p) "
        "SELECT source, CAST(count(*) AS BIGINT) AS n_docs, "
        "CAST(sum(f_short) AS BIGINT) AS n_short, "
        "CAST(sum(f_long) AS BIGINT) AS n_long, "
        "CAST(sum(f_wl) AS BIGINT) AS n_wordlen, "
        "CAST(sum(f_stop) AS BIGINT) AS n_stop, "
        "CAST(sum(f_ttr) AS BIGINT) AS n_ttr, "
        "CAST(sum(CASE WHEN f_short + f_long + f_wl + f_stop + f_ttr "
        "= 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_pass "
        "FROM f GROUP BY source ORDER BY source")


def q_simpson_diversity(sf_dir: str):
    """SIMPSON LEXICAL DIVERSITY PER SOURCE (the collision-probability
    diversity index: the chance two random token draws from a source
    are the same type — the no-log alternative to entropy, so the
    whole statistic stays integer-exact until one final IEEE-exact
    float): per source the total tokens N, the collision mass
    Σ n·(n−1) over token types, and simpson_d = 1 − coll/(N·(N−1)).

    Scale shape: the hapax combiner with a quadratic column —
    per-batch (source, token, n) partials → (source, token)-bucketed
    global counts → per-bucket Σn / Σn(n−1) partials → enum-keyed
    driver merge; the final float is computed once per source with
    the identical expression in SQL."""
    ds = read_table(sf_dir, "documents", columns=["source", "text"])

    def part(batch: pa.Table) -> pa.Table:
        stripped = pc.utf8_trim_whitespace(
            pc.fill_null(pc.cast(batch["text"], pa.string()), ""))
        lists = split_ws(stripped)
        raw_lens = np.diff(lists.offsets.to_numpy(zero_copy_only=False)
                           .astype(np.int64))
        empty = np.asarray(pc.equal(stripped, "")
                           .to_numpy(zero_copy_only=False))
        keep = ~np.repeat(empty, raw_lens)
        flat = pc.cast(lists.flatten(), pa.string()).filter(pa.array(keep))
        doc_idx = np.repeat(np.arange(len(raw_lens), dtype=np.int64),
                            raw_lens)[keep]
        src = pc.cast(batch["source"], pa.string())
        t = pa.table({"source": src.take(pa.array(doc_idx)),
                      "token": flat,
                      "n": pa.array(np.ones(len(doc_idx), np.int64))})
        g = t.group_by(["source", "token"]).aggregate([("n", "sum")])
        return pa.table({"source": g["source"], "token": g["token"],
                         "n": g["n_sum"]})

    def bucket_stats(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby(["source", "token"], as_index=False)["n"].sum()
        n = c["n"].to_numpy(dtype=np.int64)
        assert int(n.max(initial=0)) ** 2 * max(len(n), 1) < 2 ** 62, \
            "collision mass would overflow int64"
        out = pd.DataFrame({"source": c["source"].to_numpy(),
                            "n_tokens": n,
                            "coll": n * (n - 1)})
        return out.groupby("source", as_index=False)[
            ["n_tokens", "coll"]].sum()

    parts = map_buckets(ds.map_batches(part, batch_format="pyarrow"),
                        ["source", "token"], bucket_stats)
    out = merge_partials(parts, ["source"], {"n_tokens": "sum", "coll": "sum"})
    out["n_tokens"] = out["n_tokens"].astype("int64")
    out["coll"] = out["coll"].astype("int64")
    nt = out["n_tokens"].to_numpy(dtype=np.int64)
    assert int(nt.max(initial=0)) < 94_000_000, \
        "N*(N-1) exceeds the exact-double envelope"
    coll = out["coll"].to_numpy(dtype=np.float64)
    denom = nt.astype(np.float64) * (nt - 1).astype(np.float64)
    # a <=1-token source has no token pair: define its diversity as 1
    out["simpson_d"] = np.where(nt >= 2, 1.0 - coll / np.where(
        denom > 0, denom, 1.0), 1.0)
    return out.sort_values("source").reset_index(drop=True)


def _simpson_oracle_sql() -> str:
    from ..functions.sqlmirror import tokens_sql
    return (
        f"WITH vt AS (SELECT source, unnest({tokens_sql('text')}) AS tok "
        "FROM documents), "
        "c AS (SELECT source, tok, CAST(count(*) AS BIGINT) AS n "
        "FROM vt GROUP BY 1, 2), "
        "s AS (SELECT source, CAST(sum(n) AS BIGINT) AS n_tokens, "
        "CAST(sum(n * (n - 1)) AS BIGINT) AS coll FROM c GROUP BY 1) "
        "SELECT source, n_tokens, coll, "
        "CASE WHEN n_tokens >= 2 THEN "
        "1.0 - (CAST(coll AS DOUBLE) / (CAST(n_tokens AS DOUBLE) "
        "* CAST(n_tokens - 1 AS DOUBLE))) ELSE 1.0 END AS simpson_d "
        "FROM s ORDER BY source")


def _freq_of_freqs_oracle_sql() -> str:
    from ..functions.sqlmirror import tokens_sql
    return (
        f"WITH vt AS (SELECT unnest({tokens_sql('text')}) AS tok "
        "FROM documents), "
        "c AS (SELECT tok, count(*) AS n FROM vt GROUP BY tok) "
        "SELECT CAST(n AS BIGINT) AS freq, "
        "CAST(count(*) AS BIGINT) AS n_types "
        "FROM c GROUP BY n ORDER BY n")


KMV_K = 128     # k-minimum-values sketch size
KMV_SEED = 0    # token-hash seed (stable_hash64)


def q_kmv_source_jaccard(sf_dir: str):
    """K-MINIMUM-VALUES set sketches per source + pairwise Jaccard and
    union-cardinality ESTIMATES — the mergeable distinct-sketch family
    member beyond HLL (functions/sketches.py counts only; KMV supports
    set OPERATIONS): per source keep the k=128 smallest DISTINCT
    stable_hash64 token values; for a source pair the Jaccard
    estimator is |U_k ∩ S_a ∩ S_b| / |U_k| with U_k the k smallest of
    the sketch union (Beyer et al., SIGMOD'07), and the union-size
    estimate is (k−1)·2^64 / h_(k) (exact count when the union sketch
    is unsaturated — then both sides' sketches are their whole sets).
    Sketch contents are exact uint64 (the SQL twin recomputes every
    hash via the FNV/splitmix recursion); the two estimates are single
    final IEEE divisions over exact ints, identical both engines.

    Scale shape: per-batch combiner emits ≤ sources×k rows (ONE
    whitespace split, per-batch distinct via Arrow group_by, hash once per
    DISTINCT token via dictionary encode); the merge is a Ray groupby
    over sketch-sized partials (sources × k × blocks rows — never the
    corpus); the pairing is driver-side over sources²×k ints, a
    config-bounded domain. The corpus never shuffles. ORACLE-CHECKED
    bit-for-bit."""
    from itertools import combinations
    from ..functions.hashing import stable_hash64
    ds = read_table(sf_dir, "documents", columns=["source", "text"])

    def sketch_partial(batch: pa.Table) -> pa.Table:
        # (source, token) distinct per batch — the pairs_partial
        # recipe (one whitespace split + row-repeat + Arrow group_by)
        stripped = pc.utf8_trim_whitespace(pc.fill_null(batch["text"],
                                                        ""))
        lists = split_ws(stripped)
        raw_lens = np.diff(lists.offsets.to_numpy(zero_copy_only=False)
                           .astype(np.int64))
        empty = np.asarray(pc.equal(stripped, "")
                           .to_numpy(zero_copy_only=False))
        doc_idx = np.repeat(np.arange(len(raw_lens), dtype=np.int64),
                            raw_lens)
        keep = pa.array(~np.repeat(empty, raw_lens))
        src = pc.cast(batch["source"], pa.string()).take(
            pa.array(doc_idx))
        t = pa.table({"source": src, "token": pc.cast(
            lists.flatten(), pa.string())}).filter(keep)
        t = t.group_by(["source", "token"]).aggregate([])
        if not t.num_rows:
            return pa.table({"source": pa.array([], pa.string()),
                             "h": pa.array([], pa.uint64())})
        # hash once per DISTINCT token (the HLL add_arrow recipe)
        tok = t["token"]
        enc = pc.dictionary_encode(
            tok.combine_chunks() if isinstance(tok, pa.ChunkedArray)
            else tok)
        uniq = enc.dictionary.to_pylist()
        hs = np.fromiter((stable_hash64(v, KMV_SEED) for v in uniq),
                         dtype=np.uint64, count=len(uniq))
        h = hs[enc.indices.to_numpy(zero_copy_only=False)]
        df = pd.DataFrame({
            "source": t["source"].to_numpy(zero_copy_only=False),
            "h": h}).drop_duplicates()
        df = df.sort_values(["source", "h"]) \
            .groupby("source", sort=False).head(KMV_K)
        return pa.table({"source": pa.array(df["source"].astype(str)),
                         "h": pa.array(df["h"].to_numpy(np.uint64),
                                       pa.uint64())})

    def merge_sketch(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.drop_duplicates(["source", "h"])
               .sort_values(["source", "h"])
               .groupby("source", sort=False).head(KMV_K))
        return out.reset_index(drop=True)

    partials = ds.map_batches(sketch_partial, batch_format="pyarrow")
    pdf = partials.groupby("source").map_groups(
        merge_sketch, batch_format="pandas").to_pandas()
    if pdf.empty:
        return pd.DataFrame({"src_a": pd.Series([], dtype=object),
                             "src_b": pd.Series([], dtype=object),
                             "k_used": pd.Series([], dtype="int64"),
                             "n_inter": pd.Series([], dtype="int64"),
                             "jaccard_kmv": pd.Series([], dtype="float64"),
                             "union_est": pd.Series([], dtype="float64")})
    sk = {s: np.sort(g["h"].to_numpy().astype(np.uint64))
          for s, g in pdf.groupby("source")}
    rows = []
    for a, b in combinations(sorted(sk), 2):
        u = np.union1d(sk[a], sk[b])
        ku = int(min(KMV_K, len(u)))
        uk = u[:ku]
        inter = np.intersect1d(np.intersect1d(uk, sk[a]), sk[b])
        # saturated union sketch: estimate from the k-th minimum;
        # unsaturated: both sketches are complete sets → exact count
        if len(u) < KMV_K:
            est = float(ku)
        else:
            est = float(KMV_K - 1) * 18446744073709551616.0 \
                / float(uk[-1])
        rows.append((a, b, ku, int(len(inter)),
                     float(len(inter)) / float(ku), est))
    out = pd.DataFrame(rows, columns=["src_a", "src_b", "k_used",
                                      "n_inter", "jaccard_kmv",
                                      "union_est"])
    out["k_used"] = out["k_used"].astype("int64")
    out["n_inter"] = out["n_inter"].astype("int64")
    return out.sort_values(["src_a", "src_b"]).reset_index(drop=True)


def _kmv_oracle_sql() -> str:
    from ..functions.sqlmirror import stable_hash64_cte, tokens_sql
    k = KMV_K
    src = (f"SELECT DISTINCT unnest({tokens_sql('text')}) AS tok "
           "FROM documents")
    hcte, hfin = stable_hash64_cte(src, "tok", {"h": KMV_SEED},
                                   prefix="__kmv")
    return (
        f"{hcte}, "
        "kst AS (SELECT DISTINCT d.source, hh.h FROM "
        f"(SELECT DISTINCT source, unnest({tokens_sql('text')}) AS tok "
        f"FROM documents) d JOIN {hfin} hh ON d.tok = hh.tok), "
        "ksk AS (SELECT source, h FROM (SELECT source, h, "
        "row_number() OVER (PARTITION BY source ORDER BY h) AS rn "
        f"FROM kst) WHERE rn <= {k}), "
        "ksrc AS (SELECT DISTINCT source FROM ksk), "
        "kpair AS (SELECT a.source AS sa, b.source AS sb "
        "FROM ksrc a JOIN ksrc b ON a.source < b.source), "
        "kun AS (SELECT DISTINCT p.sa, p.sb, s.h FROM kpair p "
        "JOIN ksk s ON s.source = p.sa OR s.source = p.sb), "
        "kuk AS (SELECT sa, sb, h, rn FROM (SELECT sa, sb, h, "
        "row_number() OVER (PARTITION BY sa, sb ORDER BY h) AS rn "
        f"FROM kun) WHERE rn <= {k}), "
        "kagg AS (SELECT u.sa, u.sb, "
        "CAST(count(*) AS BIGINT) AS k_used, "
        "CAST(count(CASE WHEN xa.h IS NOT NULL AND xb.h IS NOT NULL "
        "THEN 1 END) AS BIGINT) AS n_inter, "
        f"max(CASE WHEN u.rn = {k} THEN u.h END) AS kth "
        "FROM kuk u "
        "LEFT JOIN ksk xa ON xa.source = u.sa AND xa.h = u.h "
        "LEFT JOIN ksk xb ON xb.source = u.sb AND xb.h = u.h "
        "GROUP BY 1, 2) "
        "SELECT sa AS src_a, sb AS src_b, k_used, n_inter, "
        "CAST(n_inter AS DOUBLE) / CAST(k_used AS DOUBLE) "
        "AS jaccard_kmv, "
        f"CASE WHEN k_used < {k} THEN CAST(k_used AS DOUBLE) "
        f"ELSE {k - 1}.0 * 18446744073709551616.0 / "
        "CAST(kth AS DOUBLE) END AS union_est "
        "FROM kagg ORDER BY 1, 2")


def _ed1_urls_np(ids: np.ndarray) -> pd.Series:
    """Deterministic URL set for the fuzzy-dup operator (the corpus
    has no URL column — the _messy_urls_np convention): one clean URL
    per doc_id, plus INJECTED edit-distance-1 variants so real fuzzy
    pairs exist — doc_id % 11 == 3 appends 'x' (insertion), % 11 == 7
    substitutes the final char with 'x' (substitution). Bases never
    end in 'x' (they end in a digit), so variants never collide with
    bases. The SQL twin builds the identical strings."""
    i = ids.astype(np.int64)
    u = ("https://site" + pd.Series((i % 7).astype(str), dtype=object)
         + ".example.com/p/" + pd.Series((i % 50).astype(str),
                                         dtype=object)
         + "/doc/" + pd.Series(i.astype(str), dtype=object))
    app = u[i % 11 == 3] + "x"
    sub = u[i % 11 == 7].str[:-1] + "x"
    return pd.concat([u, app, sub], ignore_index=True)


def _ed1_verify(pairs: pd.DataFrame) -> pd.DataFrame:
    """Exact edit-distance-1 check over candidate pairs, vectorized
    per (len_a, len_b) subgroup (the length domain is tiny): equal
    length → hamming == 1; length diff 1 → the longer equals the
    shorter with one char inserted (first-mismatch split + shifted
    gather). Candidate-scale stage — pairs only, never the corpus."""
    if pairs.empty:
        return pd.DataFrame({"url_a": pd.Series([], dtype=object),
                             "url_b": pd.Series([], dtype=object),
                             "ed": pd.Series([], dtype="int64")})
    la = pairs["url_a"].str.len().to_numpy(np.int64)
    lb = pairs["url_b"].str.len().to_numpy(np.int64)

    def mat(series: pd.Series, width: int) -> np.ndarray:
        padded = series.str.pad(width, side="right", fillchar="\0")
        buf = "".join(padded.tolist()).encode("ascii")
        return np.frombuffer(buf, np.uint8).reshape(len(series), width)

    keep_parts = []
    for (ga, gb), sub in pairs.groupby([la, lb], sort=False):
        if abs(ga - gb) > 1:
            continue
        if ga == gb:
            ma = mat(sub["url_a"], ga)
            mb = mat(sub["url_b"], ga)
            ok = (ma != mb).sum(axis=1) == 1
        else:
            # orient: S = shorter, L = longer (length diff exactly 1)
            if ga < gb:
                ms, ml = mat(sub["url_a"], ga), mat(sub["url_b"], gb)
            else:
                ms, ml = mat(sub["url_b"], gb), mat(sub["url_a"], ga)
            n, w = ms.shape
            neq = ms != ml[:, :w]
            p = np.where(neq.any(axis=1), neq.argmax(axis=1), w)
            idx = np.arange(w, dtype=np.int64)[None, :]
            shift = (idx >= p[:, None]).astype(np.int64)
            ldel = ml[np.arange(n)[:, None], idx + shift]
            ok = (ldel == ms).all(axis=1)
        keep_parts.append(sub[ok])
    if not keep_parts:
        return pd.DataFrame({"url_a": pd.Series([], dtype=object),
                             "url_b": pd.Series([], dtype=object),
                             "ed": pd.Series([], dtype="int64")})
    out = pd.concat(keep_parts, ignore_index=True)[["url_a", "url_b"]]
    out["ed"] = np.int64(1)
    return out


def q_url_edit_pairs(sf_dir: str):
    """FUZZY URL DEDUP: all distinct URL pairs at edit distance
    EXACTLY 1 via SymSpell delete-1 blocking (Garbe's symmetric-delete
    index, the typo_token_pairs primitive promoted to record scale):
    each URL emits itself plus every delete-one-char variant as a
    blocking signature; two URLs are candidates iff they share a
    signature (COMPLETE for ed ≤ 1 — a substitution shares the
    delete-at-edit-position variant, an indel shares the shorter
    string itself), then exact ed == 1 is verified vectorized. The
    URL set derives deterministically from doc_id with injected ed-1
    variants (_ed1_urls_np) so both engines see identical input.

    Scale shape: signature emission is per-batch vectorized (np.delete
    per position over per-length char matrices — loops over the
    LENGTH domain, never rows); candidates co-locate via ONE
    signature-bucket shuffle whose per-group pair loop touches only
    collision groups (candidate-sized); global pair dedup + verify is
    a second bucket groupby over pair rows (output-sized). At 10^10
    URLs the signature exchange is O(urls × avg_len) rows — the
    documented cost of complete ed-1 blocking; hash the signatures to
    uint64 to shrink the exchange width if needed (verify makes
    collisions harmless). ORACLE-CHECKED: the SQL twin replays the
    same delete-1 blocking with unnest(range) + string splice and
    verifies with DuckDB's exact levenshtein()."""
    ds = read_table(sf_dir, "documents", columns=["doc_id"])

    def sig_batch(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        urls = _ed1_urls_np(ids)
        lens = urls.str.len().to_numpy(np.int64)
        sig_rows: list[pd.DataFrame] = []
        # self-signature (catches indels where one side IS the sig)
        sig_rows.append(pd.DataFrame({"sig": urls, "url": urls}))
        for L in np.unique(lens):
            grp = urls[lens == L].reset_index(drop=True)
            buf = "".join(grp.tolist()).encode("ascii")
            m = np.frombuffer(buf, np.uint8).reshape(len(grp), L)
            for p in range(L):
                var = np.delete(m, p, axis=1)
                sigs = np.frombuffer(var.tobytes(),
                                     dtype=f"S{L - 1}").astype(str)
                sig_rows.append(pd.DataFrame({"sig": sigs,
                                              "url": grp}))
        out = pd.concat(sig_rows, ignore_index=True) \
            .drop_duplicates()
        return pa.table({"sig": pa.array(out["sig"].astype(str)),
                         "url": pa.array(out["url"].astype(str))})

    def emit_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["sig", "url"])
        cnt = g.groupby("sig")["url"].transform("size")
        g = g[cnt >= 2]
        empty = pd.DataFrame({"url_a": pd.Series([], dtype=object),
                              "url_b": pd.Series([], dtype=object)})
        if g.empty:
            return empty
        rows_a: list = []
        rows_b: list = []
        # loop bounded by COLLISION groups only (candidate-sized)
        for _, grp in g.groupby("sig", sort=False):
            us = sorted(set(grp["url"]))
            for ii, x in enumerate(us):
                rows_a.extend([x] * (len(us) - 1 - ii))
                rows_b.extend(us[ii + 1:])
        if not rows_a:
            return empty
        return pd.DataFrame({"url_a": rows_a,
                             "url_b": rows_b}).drop_duplicates()

    def verify_group(g: pd.DataFrame) -> pd.DataFrame:
        return _ed1_verify(g.drop_duplicates(["url_a", "url_b"]))

    sigs = ds.map_batches(sig_batch, batch_format="pyarrow")
    cand = map_buckets(sigs, ["sig"], emit_pairs, 2 * shuffle_partitions())
    pdf = map_buckets(cand, ["url_a", "url_b"], verify_group).to_pandas()
    if "_kb" in pdf.columns:
        pdf = pdf.drop(columns=["_kb"])
    pdf["ed"] = pdf["ed"].astype("int64") if len(pdf) else \
        pd.Series([], dtype="int64")
    return pdf.sort_values(["url_a", "url_b"]).reset_index(drop=True)


def _url_edit_oracle_sql() -> str:
    base = ("'https://site' || CAST(doc_id % 7 AS VARCHAR) || "
            "'.example.com/p/' || CAST(doc_id % 50 AS VARCHAR) || "
            "'/doc/' || CAST(doc_id AS VARCHAR)")
    return (
        f"WITH eb AS (SELECT doc_id, {base} AS url FROM documents), "
        "eu AS (SELECT DISTINCT url FROM ("
        "SELECT url FROM eb "
        "UNION ALL SELECT url || 'x' FROM eb WHERE doc_id % 11 = 3 "
        "UNION ALL SELECT substr(url, 1, length(url) - 1) || 'x' "
        "FROM eb WHERE doc_id % 11 = 7)), "
        # SymSpell delete-1 blocking replayed: i = 0 keeps the URL
        # itself, i >= 1 deletes char i
        "ev AS (SELECT DISTINCT url, CASE WHEN i = 0 THEN url "
        "ELSE substr(url, 1, i - 1) || substr(url, i + 1) END AS sig "
        "FROM (SELECT url, unnest(range(0, length(url) + 1)) AS i "
        "FROM eu)), "
        "ec AS (SELECT DISTINCT a.url AS url_a, b.url AS url_b "
        "FROM ev a JOIN ev b ON a.sig = b.sig AND a.url < b.url) "
        "SELECT url_a, url_b, CAST(1 AS BIGINT) AS ed FROM ec "
        "WHERE levenshtein(url_a, url_b) = 1 ORDER BY 1, 2")


JL_DOUT = 16    # JL target dimensionality
_JL_SIGNS: dict[int, np.ndarray] = {}


def _jl_signs(dim: int) -> np.ndarray:
    """±1 JL sign matrix (dim × JL_DOUT), entry (d, j) = +1 iff
    splitmix64(d·JL_DOUT + j + 1) is odd — deterministic, tiny, and
    recomputable in SQL via the splitmix64 chained-CTE mirror."""
    m = _JL_SIGNS.get(dim)
    if m is None:
        from ..functions.hashing import splitmix64_np
        x = np.arange(dim * JL_DOUT, dtype=np.uint64) + np.uint64(1)
        bits = splitmix64_np(x) & np.uint64(1)
        m = np.where(bits.reshape(dim, JL_DOUT).astype(np.int64) == 1,
                     np.int64(1), np.int64(-1))
        _JL_SIGNS[dim] = m
    return m


def q_jl_projection_audit(sf_dir: str):
    """JOHNSON-LINDENSTRAUSS ±1 RANDOM PROJECTION audit (Achlioptas'
    database-friendly JL, the dimensionality-reduction primitive ANN /
    clustering pipelines run before distance computations): project
    the e3-quantized embeddings D→16 with a deterministic ±1 sign
    matrix (splitmix64 parity — SQL-replayable) and report, per label,
    how well projected squared norms track originals: n_vecs,
    Σ‖proj‖² and Σ‖q‖² (exact int64), the aggregate distortion
    Σ‖proj‖² / (16·Σ‖q‖²) (expected 1 under JL), and the per-vector
    ratio extremes. Integer matmul end-to-end; the three floats are
    single final IEEE divisions over exact ints, the identical
    expression both engines.

    Scale shape: zero-shuffle — one streaming map_batches pass; each
    batch emits labels×7 partial rows (sums merge by +, extrema by
    min/max) and the sign matrix is a module-level constant (dim×16
    ints), not shipped per batch. Overflow asserted at the partial.
    ORACLE-CHECKED bit-for-bit."""
    from ..stages.simsearch import _to_matrix, quantize_e3
    ds = read_table(sf_dir, "embeddings", columns=["embedding",
                                                   "label"])

    def part(batch: pa.Table) -> pa.Table:
        lab = batch["label"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        q = quantize_e3(_to_matrix(batch["embedding"])) \
            .astype(np.int64)
        s = _jl_signs(q.shape[1])
        # |proj_j| <= dim·max|q| → proj² bound asserted per batch
        mx = int(np.abs(q).max(initial=0)) * q.shape[1]
        assert mx * mx * JL_DOUT * max(len(lab), 1) < 2 ** 62, \
            "JL proj2 partial would overflow int64"
        proj = q @ s
        proj2 = (proj * proj).sum(axis=1)
        orig2 = (q * q).sum(axis=1)
        r = proj2.astype(np.float64) / (
            16.0 * np.where(orig2 > 0, orig2, 1).astype(np.float64))
        r = np.where(orig2 > 0, r, 1.0)
        codes, uniq = pd.factorize(lab)
        k = len(uniq)
        n = np.bincount(codes, minlength=k).astype(np.int64)
        sp = np.zeros(k, np.int64)
        np.add.at(sp, codes, proj2)
        so = np.zeros(k, np.int64)
        np.add.at(so, codes, orig2)
        rmin = np.full(k, np.inf)
        np.minimum.at(rmin, codes, r)
        rmax = np.full(k, -np.inf)
        np.maximum.at(rmax, codes, r)
        return pa.table({"label": pa.array(uniq),
                         "n_vecs": pa.array(n),
                         "sum_proj2": pa.array(sp),
                         "sum_orig2": pa.array(so),
                         "min_ratio": pa.array(rmin),
                         "max_ratio": pa.array(rmax)})

    pdf = ds.map_batches(part, batch_format="pyarrow").to_pandas()
    if pdf.empty:
        return pd.DataFrame({
            "label": pd.Series([], dtype="int64"),
            "n_vecs": pd.Series([], dtype="int64"),
            "sum_proj2": pd.Series([], dtype="int64"),
            "sum_orig2": pd.Series([], dtype="int64"),
            "distortion": pd.Series([], dtype="float64"),
            "min_ratio": pd.Series([], dtype="float64"),
            "max_ratio": pd.Series([], dtype="float64")})
    # enum-sized (labels × blocks) partials; bit-stable tiny reduce
    pdf = pdf.sort_values(list(pdf.columns)).reset_index(drop=True)
    out = pdf.groupby("label", as_index=False).agg(
        n_vecs=("n_vecs", "sum"), sum_proj2=("sum_proj2", "sum"),
        sum_orig2=("sum_orig2", "sum"), min_ratio=("min_ratio", "min"),
        max_ratio=("max_ratio", "max"))
    assert int(out["sum_proj2"].max()) < 2 ** 62, "global sum overflow"
    out["distortion"] = out["sum_proj2"].to_numpy(np.float64) / (
        16.0 * out["sum_orig2"].to_numpy(np.float64))
    for c in ("label", "n_vecs", "sum_proj2", "sum_orig2"):
        out[c] = out[c].astype("int64")
    out = out[["label", "n_vecs", "sum_proj2", "sum_orig2",
               "distortion", "min_ratio", "max_ratio"]]
    return out.sort_values("label").reset_index(drop=True)


def _jl_oracle_sql() -> str:
    from ..functions.sqlmirror import splitmix64_cte
    sign_src = (
        "SELECT d, j, CAST(d * 16 + j + 1 AS UBIGINT) AS x "
        "FROM (SELECT CAST(unnest(range(0, len(embedding))) AS BIGINT) "
        "AS d FROM (SELECT embedding FROM embeddings LIMIT 1)) "
        f"CROSS JOIN (SELECT unnest(range(0, {JL_DOUT})) AS j)")
    smcte, smfin = splitmix64_cte(sign_src, "x", "sm",
                                  carry_cols=("d", "j"),
                                  prefix="__jl")
    return (
        f"{smcte}, "
        "jsg AS (SELECT d, j, CASE WHEN sm % 2 = 1 THEN 1 ELSE -1 END "
        f"AS sgn FROM {smfin}), "
        "jqv AS (SELECT vec_id, CAST(label AS BIGINT) AS label, "
        "CAST(i - 1 AS BIGINT) AS dim, "
        "CAST(floor(CAST(embedding[i] AS DOUBLE) * 1000 + 0.5) "
        "AS BIGINT) AS q FROM (SELECT vec_id, label, embedding, "
        "unnest(range(1, len(embedding) + 1)) AS i FROM embeddings)), "
        "jpr AS (SELECT v.vec_id, v.label, g.j, "
        "CAST(sum(v.q * g.sgn) AS BIGINT) AS p "
        "FROM jqv v JOIN jsg g ON g.d = v.dim GROUP BY 1, 2, 3), "
        "jv AS (SELECT vec_id, label, CAST(sum(p * p) AS BIGINT) "
        "AS proj2 FROM jpr GROUP BY 1, 2), "
        "jo AS (SELECT vec_id, CAST(sum(q * q) AS BIGINT) AS orig2 "
        "FROM jqv GROUP BY 1), "
        "jr AS (SELECT v.label, v.proj2, o.orig2, "
        "CASE WHEN o.orig2 > 0 THEN CAST(v.proj2 AS DOUBLE) / "
        "(16.0 * CAST(o.orig2 AS DOUBLE)) ELSE 1.0 END AS r "
        "FROM jv v JOIN jo o ON o.vec_id = v.vec_id) "
        "SELECT label, CAST(count(*) AS BIGINT) AS n_vecs, "
        "CAST(sum(proj2) AS BIGINT) AS sum_proj2, "
        "CAST(sum(orig2) AS BIGINT) AS sum_orig2, "
        "CAST(sum(proj2) AS DOUBLE) / "
        "(16.0 * CAST(sum(orig2) AS DOUBLE)) AS distortion, "
        "min(r) AS min_ratio, max(r) AS max_ratio "
        "FROM jr GROUP BY label ORDER BY label")


MMR_K = 8


def q_mmr_selection(sf_dir: str):
    """MAXIMAL MARGINAL RELEVANCE selection (Carbonell & Goldstein
    1998) over the e3-quantized embeddings — the relevance-diversity
    greedy picker that complements kcenter's pure-diversity Gonzalez:
    query = the smallest vec_id's vector; each of the k=8 rounds
    picks argmax over unselected candidates of
    score = rel(x) − max_{s∈selected} sim(x, s), i.e. λ=1/2 with the
    float halves cleared by doubling — every rel/sim is an exact
    int64 dot of e3 ints, so the whole trajectory hash-gates. First
    pick: max_sim defined 0 (pinned contract, replayed identically
    in SQL). Tie-break (score desc, vec_id asc). The query vector
    itself is not a candidate.

    Scale shape: identical to kcenter — each round streams the corpus
    once against the broadcast (query, selected-matrix) and emits a
    per-batch argmax partial; the driver merges one row per block per
    round, k config-sized. The SQL twin replays incrementally (the
    newest pick's 64 dim rows joined per round, running greatest()
    max-sim chain)."""
    import ray as _ray

    from ..stages.simsearch import _to_matrix, quantize_e3

    ds = read_table(sf_dir, "embeddings",
                    columns=["vec_id", "embedding"])

    def min_id(batch: pa.Table) -> pa.Table:
        v = batch["vec_id"].to_numpy(
            zero_copy_only=False).astype(np.int64)
        return pa.table({"vec_id": pa.array([int(v.min())],
                                            pa.int64())})

    qid = int(ds.map_batches(min_id, batch_format="pyarrow")
              .to_pandas()["vec_id"].min())

    def read_vec(vid: int) -> np.ndarray:
        t = read_local(sf_dir, "embeddings",
                       columns=["vec_id", "embedding"],
                       filters=[("vec_id", "=", vid)])
        return quantize_e3(np.asarray(t["embedding"].iloc[0],
                                      np.float64)[None, :]) \
            .astype(np.int64)[0]

    qvec = read_vec(qid)
    sel_mat = None
    excl = [qid]
    picks = []

    for r in range(MMR_K):
        sref = _ray.put((np.asarray(excl, np.int64),
                         None if sel_mat is None else sel_mat.copy(),
                         qvec))

        def mmr_partial(batch: pa.Table, _sref=sref) -> pa.Table:
            ids, s, qv = _ray.get(_sref)
            x = quantize_e3(_to_matrix(batch["embedding"])) \
                .astype(np.int64)
            vid = batch["vec_id"].to_numpy(
                zero_copy_only=False).astype(np.int64)
            assert int(np.abs(x).max(initial=0)) < 2 ** 20 and \
                int(np.abs(qv).max(initial=0)) < 2 ** 20, \
                "mmr quantized magnitude exceeds exact-int64 envelope"
            rel = x @ qv
            ms = np.zeros(len(rel), np.int64) if s is None \
                else (x @ s.T).max(axis=1)
            keep = ~np.isin(vid, ids)
            if not keep.any():
                return pa.table({c: pa.array([], pa.int64())
                                 for c in ("vec_id", "rel",
                                           "max_sim")})
            vid, rel, ms = vid[keep], rel[keep], ms[keep]
            best = np.lexsort((vid, -(rel - ms)))[0]
            return pa.table({
                "vec_id": pa.array([int(vid[best])], pa.int64()),
                "rel": pa.array([int(rel[best])], pa.int64()),
                "max_sim": pa.array([int(ms[best])], pa.int64())})

        cand = (ds.map_batches(mmr_partial, batch_format="pyarrow")
                .to_pandas())
        cand["score"] = cand["rel"] - cand["max_sim"]
        cand = cand.sort_values(["score", "vec_id"],
                                ascending=[False, True]).head(1)
        vid = int(cand["vec_id"].iloc[0])
        picks.append((r, vid, int(cand["rel"].iloc[0]),
                      int(cand["max_sim"].iloc[0]),
                      int(cand["score"].iloc[0])))
        excl.append(vid)
        nv = read_vec(vid)[None, :]
        sel_mat = nv if sel_mat is None else np.vstack([sel_mat, nv])

    out = pd.DataFrame(picks, columns=["rank", "vec_id", "rel",
                                       "max_sim", "score"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def _mmr_oracle_sql(k: int = MMR_K) -> str:
    # incremental replay (the kcenter recipe): rel once, then per
    # round join ONLY the newest pick's dim rows and fold a running
    # greatest() max-sim chain
    parts = [
        "WITH mm_e AS MATERIALIZED (SELECT CAST(vec_id AS BIGINT) "
        "AS vec_id, embedding, "
        "unnest(range(1, len(embedding) + 1)) AS i FROM embeddings), "
        "mm_q AS MATERIALIZED (SELECT vec_id, "
        "CAST(i - 1 AS BIGINT) AS dim, "
        "CAST(floor(CAST(embedding[i] AS DOUBLE) * 1000 + 0.5) "
        "AS BIGINT) AS q FROM mm_e), "
        "mm_q0 AS MATERIALIZED (SELECT min(vec_id) AS v FROM mm_q), "
        "mm_qd AS MATERIALIZED (SELECT dim, q FROM mm_q "
        "WHERE vec_id = (SELECT v FROM mm_q0)), "
        "mm_rel AS MATERIALIZED (SELECT p.vec_id, "
        "CAST(sum(p.q * s.q) AS BIGINT) AS rel "
        "FROM mm_q p JOIN mm_qd s USING (dim) GROUP BY 1), "
        "mm_p0 AS MATERIALIZED (SELECT vec_id, rel, "
        "CAST(0 AS BIGINT) AS ms FROM mm_rel "
        "WHERE vec_id != (SELECT v FROM mm_q0) "
        "ORDER BY rel DESC, vec_id LIMIT 1)"]
    for r in range(1, k):
        excl = " OR ".join(
            ["m.vec_id = (SELECT v FROM mm_q0)"]
            + [f"m.vec_id = (SELECT vec_id FROM mm_p{j})"
               for j in range(r)])
        parts.append(
            f", mm_s{r} AS MATERIALIZED (SELECT dim, q FROM mm_q "
            f"WHERE vec_id = (SELECT vec_id FROM mm_p{r - 1}))")
        parts.append(
            f", mm_nd{r} AS MATERIALIZED (SELECT p.vec_id, "
            "CAST(sum(p.q * s.q) AS BIGINT) AS sim "
            f"FROM mm_q p JOIN mm_s{r} s USING (dim) GROUP BY 1)")
        if r == 1:
            parts.append(", mm_m1 AS MATERIALIZED (SELECT n.vec_id, "
                         "n.sim AS ms FROM mm_nd1 n)")
        else:
            parts.append(
                f", mm_m{r} AS MATERIALIZED (SELECT m.vec_id, "
                f"greatest(m.ms, nd.sim) AS ms FROM mm_m{r - 1} m "
                f"JOIN mm_nd{r} nd USING (vec_id))")
        parts.append(
            f", mm_p{r} AS MATERIALIZED (SELECT m.vec_id, rl.rel, "
            f"CAST(m.ms AS BIGINT) AS ms FROM mm_m{r} m "
            "JOIN mm_rel rl ON rl.vec_id = m.vec_id "
            f"WHERE NOT ({excl}) "
            "ORDER BY rl.rel - m.ms DESC, m.vec_id LIMIT 1)")
    union = [
        f"SELECT CAST({r} AS BIGINT) AS rank, vec_id, rel, "
        f"ms AS max_sim, rel - ms AS score FROM mm_p{r}"
        for r in range(k)]
    parts.append(" " + " UNION ALL ".join(union) + " ORDER BY 1")
    return "".join(parts)


BLS_SALT = 0x19F4_7C2B_A803_0011  # balanced-sample draw (< 2^63)


def q_balanced_label_sample(sf_dir: str):
    """BALANCED CLASS DOWNSAMPLING: every embedding label downsampled
    to the globally smallest label count m, membership decided by the
    m smallest splitmix64(vec_id ^ salt) draws per label — the
    class-rebalancing step before training a probe/classifier, fully
    deterministic (splitmix64 is a bijection, so draws never tie and
    the per-label cut is unambiguous). Output: the selected
    (label, vec_id) rows — exactly m per label.

    Scale shape: label counts via a per-batch Arrow group_by combiner
    (labels are enum-sized) → the driver takes one min; the selection
    pass is a label-bucketed map_buckets doing one vectorized sort +
    grouped cumcount cut — the per-label top-m, never a global sort.
    The oracle replays the same draw (shared splitmix mirror) with a
    row_number window."""
    from ..stages.sampling import row_hash

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "label"])

    counts = aggregate(ds, ["label"], {"n": ("vec_id", "count")})
    m = int(counts["n"].min())

    def pick_bucket(g: pd.DataFrame, _m=m) -> pd.DataFrame:
        h = row_hash(pa.array(g["vec_id"].astype("int64")), BLS_SALT)
        g = g.assign(_h=h).sort_values(["label", "_h"],
                                       kind="mergesort")
        keep = g.groupby("label").cumcount() < _m
        out = g.loc[keep, ["label", "vec_id"]].copy()
        out["label"] = out["label"].astype("int64")
        out["vec_id"] = out["vec_id"].astype("int64")
        return out

    out = (map_buckets(ds, ["label"], pick_bucket)
           .to_pandas())
    out = out[["label", "vec_id"]]
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values(["label", "vec_id"]).reset_index(drop=True)


def _balanced_sample_oracle_sql() -> str:
    from ..functions.sqlmirror import splitmix64_cte
    w, c = splitmix64_cte(
        "SELECT CAST(label AS BIGINT) AS label, vec_id FROM embeddings",
        f"xor(CAST(vec_id AS UBIGINT), CAST({BLS_SALT} AS UBIGINT))",
        "h", carry_cols=("label", "vec_id"), prefix="bl_")
    return w + (
        ", bl_m AS (SELECT min(n) AS m FROM (SELECT count(*) AS n "
        "FROM embeddings GROUP BY label)), "
        f"bl_r AS (SELECT label, vec_id, row_number() OVER "
        f"(PARTITION BY label ORDER BY h) AS rn FROM {c}) "
        "SELECT label, CAST(vec_id AS BIGINT) AS vec_id FROM bl_r "
        "WHERE rn <= (SELECT m FROM bl_m) ORDER BY 1, 2")


RW_SALT = 0x3D91_55AC_2E07_0013       # walk edge draw (< 2^63)
RW_STEP_SALT = 0x66B0_1F8D_9C24_0017  # per-(walk,step) choice draw
RW_STEPS = 6


def q_host_random_walks(sf_dir: str, steps: int = RW_STEPS):
    """DETERMINISTIC RANDOM WALKS over the source link graph (the
    node2vec/DeepWalk sampling primitive, and the crawl-frontier
    exploration model): edges are the pagerank-shaped draw under
    RW_SALT (doc links its source to
    sorted_sources[splitmix64(doc_id ^ salt) % S], de-duplicated,
    unweighted, self-loops kept); one walk starts at every node and
    takes up to 6 steps, choosing
    neighbors_sorted[splitmix64(u64(walk_id·64 + step) ^ step_salt)
    % outdeg] at each step — a walk dies at a node with no
    out-edges. The whole trajectory set hash-gates: the SQL twin
    precomputes the (walk, step) draw grid with the shared splitmix
    mirror and replays the steps as a recursive CTE joining a
    row-numbered adjacency list.

    Scale shape: the data-sized pass is the distributed distinct-edge
    combiner (per-batch factorize + unique); the walk replay runs on
    the aggregated ≤S² edge list under the documented config-sized
    host-universe assumption (host_pagerank's) — at web scale the
    same step is a bucketed iterated join keyed on the walk's
    current node."""
    from ..functions.hashing import splitmix64_np
    from ..stages.sampling import row_hash

    ds = read_table(sf_dir, "documents", columns=["doc_id", "source"])

    parts = ds.map_batches(
        lambda t: pa.table({"source": pc.unique(t["source"])}),
        batch_format="pyarrow").to_pandas()
    nodes = sorted(set(parts["source"]))
    S = len(nodes)
    node_arr = np.array(nodes, dtype=object)

    def edge_partials(batch: pa.Table) -> pa.Table:
        h = row_hash(batch["doc_id"], RW_SALT)
        dst_idx = (h % np.uint64(S)).astype(np.int64)
        src = batch["source"].to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(src)
        key = np.unique(codes.astype(np.int64) * S + dst_idx)
        return pa.table({"src": pa.array(uniq[key // S]),
                         "dst": pa.array(node_arr[key % S])})

    edges = (ds.map_batches(edge_partials, batch_format="pyarrow")
             .to_pandas().drop_duplicates())
    idx = {s: i for i, s in enumerate(nodes)}
    e_src = edges["src"].map(idx).to_numpy(dtype=np.int64)
    e_dst = edges["dst"].map(idx).to_numpy(dtype=np.int64)
    order = np.lexsort((e_dst, e_src))
    e_src, e_dst = e_src[order], e_dst[order]
    off = np.searchsorted(e_src, np.arange(S + 1))

    wid = np.arange(S, dtype=np.int64)
    cur = wid.copy()
    rows = [(wid, np.zeros(S, np.int64), wid.copy())]
    for step in range(1, steps + 1):
        deg = off[cur + 1] - off[cur]
        alive = deg > 0
        if not alive.any():
            break
        wid, cur, deg = wid[alive], cur[alive], deg[alive]
        draw = splitmix64_np(
            (wid * 64 + step).view(np.uint64)
            ^ np.uint64(RW_STEP_SALT))
        nxt = e_dst[off[cur] + (draw % deg.view(np.uint64))
                    .astype(np.int64)]
        rows.append((wid.copy(), np.full(len(wid), step, np.int64),
                     nxt.copy()))
        cur = nxt
    w_all = np.concatenate([r[0] for r in rows])
    s_all = np.concatenate([r[1] for r in rows])
    n_all = np.concatenate([r[2] for r in rows])
    out = pd.DataFrame({"start_source": node_arr[w_all],
                        "step": s_all,
                        "at_source": node_arr[n_all]})
    out["step"] = out["step"].astype("int64")
    return out.sort_values(["start_source", "step"]) \
        .reset_index(drop=True)


def _random_walks_oracle_sql(steps: int = RW_STEPS) -> str:
    from ..functions.sqlmirror import splitmix64_cte
    w, c = splitmix64_cte(
        "SELECT doc_id, source FROM documents",
        f"xor(CAST(doc_id AS UBIGINT), CAST({RW_SALT} AS UBIGINT))",
        "h", carry_cols=("source",), prefix="rw_")
    w2, g = splitmix64_cte(
        "SELECT s.idx AS walk_id, gs.generate_series AS step "
        "FROM rw_s s CROSS JOIN generate_series(1, "
        f"{steps}) gs",
        f"xor(CAST(walk_id * 64 + step AS UBIGINT), "
        f"CAST({RW_STEP_SALT} AS UBIGINT))",
        "d", carry_cols=("walk_id", "step"), prefix="rg_",
        include_with=False)
    sql = w + (
        ", rw_s AS (SELECT source AS node, CAST(row_number() OVER "
        "(ORDER BY source) - 1 AS BIGINT) AS idx FROM "
        "(SELECT DISTINCT source FROM documents)), "
        "rw_n AS (SELECT count(*) AS n_nodes FROM rw_s), "
        f"rw_e AS (SELECT DISTINCT d.source AS src, s.node AS dst "
        f"FROM {c} d JOIN rw_s s ON s.idx = CAST(d.h % CAST("
        "(SELECT n_nodes FROM rw_n) AS UBIGINT) AS BIGINT)), "
        "rw_adj AS (SELECT src, dst, CAST(row_number() OVER "
        "(PARTITION BY src ORDER BY dst) - 1 AS BIGINT) AS j, "
        "CAST(count(*) OVER (PARTITION BY src) AS BIGINT) AS deg "
        "FROM rw_e)"
        + w2 +
        ", rw_walk AS (SELECT s.idx AS walk_id, CAST(0 AS BIGINT) "
        "AS step, s.node AS node FROM rw_s s "
        "UNION ALL "
        "SELECT wk.walk_id, wk.step + 1, a.dst FROM rw_walk wk "
        f"JOIN {g} g ON g.walk_id = wk.walk_id "
        "AND g.step = wk.step + 1 "
        "JOIN rw_adj a ON a.src = wk.node AND a.j = "
        "CAST(g.d % CAST(a.deg AS UBIGINT) AS BIGINT) "
        f"WHERE wk.step < {steps}) "
        "SELECT s.node AS start_source, wk.step, wk.node AS at_source "
        "FROM rw_walk wk JOIN rw_s s ON s.idx = wk.walk_id "
        "ORDER BY 1, 2")
    return sql.replace("WITH ", "WITH RECURSIVE ", 1)


PRIO_SALT = 0x5AD7_33C1_0B29_001D  # seed-priority draw (< 2^63)


def _run_priority_crawl(sf_dir: str) -> str:
    """Conformance run of the NORTH-STAR PRIORITY HEAP (frontier
    order='priority', key = (crawl_depth, -priority, enqueue_seq) —
    frontier.py:176-182): seeds-only (max_depth=0) so no births land
    mid-round and the claim order is closed-form; per-seed priorities
    are a deterministic splitmix draw over the enqueue position,
    replayed identically by the oracle."""
    from ..functions.hashing import splitmix64_np

    out = _crawl_fifo_out_dir(sf_dir) + "_prio"
    if out not in _CRAWLS_BUILT:
        seeds = make_seed_urls(_CRAWL_SEEDS, seed=42)["url"].to_pylist()
        prios = (splitmix64_np(
            np.arange(len(seeds), dtype=np.int64).view(np.uint64)
            ^ np.uint64(PRIO_SALT)) % np.uint64(3)).astype(np.int64)
        fr = Frontier(1, dedup=True, order="priority")
        fr.enqueue(seeds, priorities=prios.tolist())
        run_crawl_pump(None, frontier=fr, seed=42, max_depth=0,
                       chunk_size=256, rounds="shard", out_dir=out)
        _CRAWLS_BUILT.add(out)
    return out


def q_crawl_order_priority(sf_dir: str):
    """PRIORITY-MODE CLAIM STREAM, driver-gated — the north star's
    priority heap (crawl-depth, -priority, enqueue-time) finally gets
    its own ORACLE next to the FIFO/K=8 gates: a seeds-only
    (depth-0) run with splitmix-drawn priorities 0..2, whose claim
    order is closed-form — within each drain-to-drain round the open
    set is static (no mid-round births), so the stream is exactly
    ORDER BY (round, priority DESC, enqueue_seq), with the same
    per-item round/attempt algebra as the FIFO replay (claim profile
    a pure function of the fetch hash: transient/permafail/
    blocked-once/clean). Wave chunking follows the rank order, so
    (round, key) ordering equals the engine's (wave, key) ordering.
    Output: (claim_idx, enqueue_seq, url, attempt, priority).

    The engine side reconstructs each claim's priority from its seq
    (priority = draw(first-occurrence position) = draw(seq) — the
    frontier discards duplicate occurrences' draws exactly like
    seqs); the oracle replays the hash profile + priority draw with
    the shared mirrors."""
    import pyarrow.dataset as pads

    from ..functions.hashing import splitmix64_np

    out = _run_priority_crawl(sf_dir)
    tbl = pads.dataset(os.path.join(out, "claims")).to_table()
    seq = tbl["enqueue_seq"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    wave = tbl["wave"].to_numpy(zero_copy_only=False).astype(np.int64)
    prio = (splitmix64_np(seq.view(np.uint64)
                          ^ np.uint64(PRIO_SALT))
            % np.uint64(3)).astype(np.int64)
    order = np.lexsort((seq, -prio, wave))
    return pa.table({
        "claim_idx": pa.array(np.arange(len(seq), dtype=np.int64)),
        "enqueue_seq": pa.array(seq[order]),
        "url": tbl["url"].take(pa.array(order)),
        "attempt": pc.cast(tbl["attempt"].take(pa.array(order)),
                           pa.int64()),
        "priority": pa.array(prio[order])})


def _crawl_priority_oracle_sql(seed: int = 42,
                               n_seeds: int = _CRAWL_SEEDS) -> str:
    from ..functions.sqlmirror import splitmix64_cte, stable_hash64_cte
    from ..sources.corpus import _FETCH_SALT

    urls = make_seed_urls(n_seeds, seed=seed)["url"].to_pylist()
    values = ", ".join(f"({i}, '{u}')" for i, u in enumerate(urls))
    sql = (f"WITH RECURSIVE cp_seedlist(pos, url) AS (VALUES {values}), "
           "cp_seed0 AS (SELECT url, CAST(min(pos) AS BIGINT) AS seq "
           "FROM cp_seedlist GROUP BY url)")
    w1, c1 = stable_hash64_cte(
        "SELECT url, seq FROM cp_seed0", "url",
        {"fh": seed ^ _FETCH_SALT}, carry_cols=("seq",),
        prefix="cph_", include_with=False)
    sql += w1
    w2, c2 = splitmix64_cte(
        f"SELECT url, seq, fh FROM {c1}",
        f"xor(CAST(seq AS UBIGINT), CAST({PRIO_SALT} AS UBIGINT))",
        "pd", carry_cols=("url", "seq", "fh"), prefix="cpp_",
        include_with=False)
    sql += w2 + (
        f", cp_items AS (SELECT url, seq, "
        "CAST(pd % 3 AS BIGINT) AS prio, "
        "CASE WHEN fh % 100 < 6 THEN 2 + CAST((fh >> 8) % 2 AS BIGINT) "
        "WHEN fh % 100 >= 10 THEN 1 WHEN fh % 100 >= 8 THEN 2 "
        f"ELSE 3 END AS n_claims FROM {c2}), "
        "cp_claims AS (SELECT url, seq, prio, t.i AS round "
        "FROM cp_items, "
        "unnest(generate_series(0, CAST(n_claims AS INT) - 1)) "
        "AS t(i)) "
        "SELECT CAST(row_number() OVER (ORDER BY round, prio DESC, "
        "seq) - 1 AS BIGINT) AS claim_idx, seq AS enqueue_seq, url, "
        "CAST(round AS BIGINT) AS attempt, prio AS priority "
        "FROM cp_claims ORDER BY 1")
    return sql


BPE_ROUNDS = 5


def q_bpe_train_merges(sf_dir: str, rounds: int = BPE_ROUNDS):
    """BPE TOKENIZER TRAINING LOOP (Sennrich et al. 2016) — the full
    iterative trainer, not just one pair count (bpe_pair_counts is
    the single-round primitive): 5 merge rounds over the corpus
    word-frequency table, each selecting the most frequent adjacent
    symbol pair (tie-break lexicographic on 'left right') and
    rewriting every word's symbol sequence with a boundary-padded
    left-to-right replace (' l r ' → ' lr ' on ' '+s+' ' — the
    padding is what stops a pair matching across symbol boundaries,
    e.g. symbols 'xa b' vs pair 'a b'). MERGE-CHAIN CONTRACT: the
    replace consumes the separator, so in a run like 'a a a a' one
    ROUND merges alternating occurrences ('aa a a' after round 1,
    'aa aa' after the pair re-wins a later round) — a deliberate,
    documented variant of canonical BPE's within-round chain merge,
    chosen because Python str.replace and SQL replace() share these
    exact left-to-right non-overlap semantics, which is what makes
    the whole trajectory hash-gateable. Output:
    (round, left, right, merged, pair_count) — the merge table a
    tokenizer ships.

    Scale shape: the corpus-sized pass is the distributed
    word-frequency combiner (vocab_partial_counts →
    merge_partials_ray); the trainer loop runs on the VOCAB-sized
    word table on the driver — the standard BPE shape (every real
    trainer iterates a word-count table, not the corpus). The oracle
    replays the rounds as chained MATERIALIZED CTEs over the same
    unnested token counts."""
    ds = read_table(sf_dir, "documents", columns=["text"])
    vc = _token_counts(ds).to_pandas()
    words = [(" ".join(w), int(f))
             for w, f in zip(vc["token"], vc["n"])]
    out = []
    for r in range(1, rounds + 1):
        counts: dict[tuple[str, str], int] = {}
        for s, f in words:
            syms = s.split(" ")
            for a, b in zip(syms, syms[1:]):
                counts[(a, b)] = counts.get((a, b), 0) + f
        if not counts:
            break
        (left, right), cnt = min(
            counts.items(),
            key=lambda kv: (-kv[1], f"{kv[0][0]} {kv[0][1]}"))
        merged = left + right
        pat, rep = f" {left} {right} ", f" {merged} "
        words = [((" " + s + " ").replace(pat, rep).strip(" "), f)
                 for s, f in words]
        out.append((r, left, right, merged, cnt))
    res = pd.DataFrame(out, columns=["round", "lhs", "rhs",
                                     "merged", "pair_count"])
    res["round"] = res["round"].astype("int64")
    res["pair_count"] = res["pair_count"].astype("int64")
    return res


def _bpe_train_oracle_sql(rounds: int = BPE_ROUNDS) -> str:
    from ..functions.sqlmirror import tokens_sql
    sql = (
        "WITH bt_t AS MATERIALIZED (SELECT unnest("
        + tokens_sql("coalesce(text, '')") + ") AS w FROM documents), "
        "bt_w0 AS MATERIALIZED (SELECT trim(regexp_replace(w, "
        "'(.)', '\\1 ', 'g')) AS s, CAST(count(*) AS BIGINT) AS f "
        "FROM bt_t WHERE w <> '' GROUP BY 1)")
    prev = "bt_w0"
    sel = []
    for r in range(1, rounds + 1):
        sql += (
            f", bt_p{r} AS MATERIALIZED (SELECT syms[i] AS l, "
            "syms[i + 1] AS r, CAST(sum(f) AS BIGINT) AS cnt FROM "
            f"(SELECT string_split(s, ' ') AS syms, f FROM {prev}), "
            "unnest(generate_series(1, len(syms) - 1)) AS t(i) "
            "GROUP BY 1, 2), "
            f"bt_k{r} AS MATERIALIZED (SELECT l, r, cnt FROM bt_p{r} "
            "ORDER BY cnt DESC, l || ' ' || r LIMIT 1), "
            f"bt_w{r} AS MATERIALIZED (SELECT trim(replace("
            f"' ' || s || ' ', "
            f"(SELECT ' ' || l || ' ' || r || ' ' FROM bt_k{r}), "
            f"(SELECT ' ' || l || r || ' ' FROM bt_k{r})), ' ') AS s, "
            f"f FROM {prev})")
        sel.append(
            f"SELECT CAST({r} AS BIGINT) AS round, l AS lhs, "
            f"r AS rhs, l || r AS merged, cnt AS pair_count "
            f"FROM bt_k{r}")
        prev = f"bt_w{r}"
    return sql + " " + " UNION ALL ".join(sel) + " ORDER BY 1"


def q_crawl_span_sequences(sf_dir: str):
    """FULL SPAN-SEQUENCE EQUALITY, driver-gated — the north rule's
    per-row invariant ("span-sequence equality: kind, text,
    media_ref, order") stated as an oracle query instead of a pytest
    golden: every document of the K=1 conformance crawl exploded to
    one row per span (doc_id, span_idx, kind, media_ref, offset,
    text) with the FULL text payload, and DuckDB reconstructs every
    row independently — the queue replay for the doc universe, the
    span-hash chain for per-span geometry, md5 for media refs, and
    the LITERAL token stream ('tok' || lpad(((sh >> (j%48)) % 512) ·
    ((j+1) % 512) % 512, 3, '0') space-joined) for the text, offsets
    as the windowed sum of preceding text lengths. A single character
    of drift anywhere in the fetch path fails the hash.

    Scale shape: one vectorized list-explode over the crawl output
    (Arrow list_flatten + length arithmetic, no row loops); the
    output IS the span table, so materializing it is the contract."""
    out = _run_fifo_crawl(sf_dir)
    docs = read_documents(out)

    def explode(batch: pa.Table) -> pa.Table:
        spans = batch["spans"]
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        lens = pc.list_value_length(spans).to_numpy(
            zero_copy_only=False).astype(np.int64)
        total = int(lens.sum())
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]]) \
            .astype(np.int64)
        span_idx = np.arange(total, dtype=np.int64) \
            - np.repeat(starts, lens)
        flat = pc.list_flatten(spans)
        doc_rep = np.repeat(
            batch["doc_id"].to_numpy(zero_copy_only=False), lens)
        return pa.table({
            "doc_id": pa.array(doc_rep, pa.string()),
            "span_idx": pa.array(span_idx),
            "kind": flat.field("kind"),
            "media_ref": flat.field("media_ref"),
            "offset": pc.cast(flat.field("offset"), pa.int64()),
            "text": flat.field("text")})

    return docs.map_batches(explode, batch_format="pyarrow")


def _span_sequences_oracle_sql() -> str:
    from ..functions.sqlmirror import stable_hash64_cte
    from ..sources.corpus import _SPAN_SALT, _VOCAB

    seed = 42
    V = len(_VOCAB)
    with_sql, _, items = _crawl_replay_ctes(seed=seed)
    sql = with_sql + (
        f", sq_doc AS (SELECT url, split_part(url, '/', 3) AS host, "
        f"'d-' || substr(md5(url), 1, 12) AS doc_id "
        f"FROM {items} WHERE a_star IS NOT NULL)")
    w1, c1 = stable_hash64_cte(
        "SELECT doc_id, host FROM sq_doc", "doc_id",
        {"ih": seed ^ _SPAN_SALT}, carry_cols=("host",),
        prefix="sq_", include_with=False)
    sql += w1 + (
        f", sq_n AS (SELECT doc_id, host, "
        f"CAST(1 + ((ih % 13) * 3) % 13 AS INT) AS n_spans FROM {c1}), "
        "sq_si AS (SELECT doc_id, host, t.i AS si, "
        "doc_id || '|' || CAST(t.i AS VARCHAR) AS ss FROM sq_n, "
        "unnest(generate_series(0, n_spans - 1)) AS t(i))")
    w2, c2 = stable_hash64_cte(
        "SELECT ss, doc_id, host, si FROM sq_si", "ss",
        {"sh": seed ^ _SPAN_SALT}, carry_cols=("doc_id", "host", "si"),
        prefix="sr_", include_with=False)
    sql += w2 + (
        f", sq_sp AS MATERIALIZED (SELECT doc_id, host, si AS i, ss, sh, "
        "CAST(96 + sh % 192 AS BIGINT) AS ntok FROM "
        f"{c2}), "
        # literal token stream for text (even) spans
        "sq_tx AS MATERIALIZED (SELECT doc_id, i, "
        "string_agg('tok' || lpad(CAST("
        f"(((sh >> CAST(t.j % 48 AS INTEGER)) % {V}) "
        f"* ((t.j + 1) % {V})) % {V} AS VARCHAR), 3, '0'), "
        "' ' ORDER BY t.j) AS text FROM sq_sp, "
        "unnest(generate_series(0, CAST(ntok AS INT) - 1)) AS t(j) "
        "WHERE i % 2 = 0 GROUP BY doc_id, i), "
        "sq_rows AS (SELECT s.doc_id, s.i AS span_idx, "
        "CASE WHEN s.i % 2 = 0 THEN 'text' ELSE 'media' END AS kind, "
        "CASE WHEN s.i % 2 = 0 THEN '' ELSE "
        "'m://' || s.host || '/' || substr(md5(s.ss), 1, 10) END "
        "AS media_ref, "
        "CAST(coalesce(sum(CASE WHEN s.i % 2 = 0 "
        "THEN 7 * s.ntok - 1 ELSE 0 END) OVER "
        "(PARTITION BY s.doc_id ORDER BY s.i "
        "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) "
        "AS BIGINT) AS \"offset\", "
        "coalesce(t.text, '') AS text "
        "FROM sq_sp s LEFT JOIN sq_tx t "
        "ON t.doc_id = s.doc_id AND t.i = s.i) "
        "SELECT doc_id, CAST(span_idx AS BIGINT) AS span_idx, kind, "
        "media_ref, \"offset\", text FROM sq_rows "
        "ORDER BY doc_id, span_idx")
    return sql


def _ed2_banded(a_urls: np.ndarray, b_urls: np.ndarray) -> np.ndarray:
    """Exact Levenshtein distance CAPPED AT 3 for pair arrays, via
    the classic k=2 banded DP (5 diagonal lanes), vectorized ACROSS
    PAIRS — the row loop is over string LENGTH, never pairs. Returns
    int64 distances (3 means '>2'). ASCII inputs."""
    n = len(a_urls)
    if n == 0:
        return np.empty(0, np.int64)
    la = np.fromiter((len(s) for s in a_urls), np.int64, n)
    lb = np.fromiter((len(s) for s in b_urls), np.int64, n)
    L = int(max(la.max(initial=0), lb.max(initial=0)))
    A = np.zeros((n, L), np.uint8)
    B = np.zeros((n, L), np.uint8)
    for r in range(n):  # pair-setup loop: byte copy only, no DP here
        A[r, :la[r]] = np.frombuffer(a_urls[r].encode("ascii"),
                                     np.uint8)
        B[r, :lb[r]] = np.frombuffer(b_urls[r].encode("ascii"),
                                     np.uint8)
    INF = np.int64(9)
    prev = np.full((n, 5), INF, np.int64)
    prev[:, 2], prev[:, 3], prev[:, 4] = 0, 1, 2  # row 0: D[0][j]=j
    res = np.full(n, INF, np.int64)
    done0 = la == 0
    res[done0] = np.minimum(lb[done0], 3)
    for i in range(1, L + 1):
        cur = np.full((n, 5), INF, np.int64)
        for lane in range(5):
            j = i + lane - 2
            if j < 0:
                continue
            if j == 0:
                cur[:, lane] = np.minimum(i, INF)
                continue
            sub = prev[:, lane] + (A[:, i - 1] != B[:, j - 1]) \
                if j - 1 < L else np.full(n, INF, np.int64)
            dele = prev[:, lane + 1] + 1 if lane < 4 \
                else np.full(n, INF, np.int64)
            ins = cur[:, lane - 1] + 1 if lane > 0 \
                else np.full(n, INF, np.int64)
            v = np.minimum(np.minimum(sub, dele), ins)
            v = np.where(j <= lb, v, INF)
            cur[:, lane] = np.minimum(v, INF)
        prev = cur
        fin = la == i
        if fin.any():
            lane_f = (lb - la + 2)
            ok = fin & (lane_f >= 0) & (lane_f <= 4)
            res[ok] = prev[ok, lane_f[ok]]
    return np.minimum(res, 3)


def q_url_levenshtein_pairs(sf_dir: str):
    """FUZZY URL DEDUP AT EDIT DISTANCE ≤ 2 — extends the ed-1
    SymSpell operator (url_edit_pairs) with full exact Levenshtein:
    candidates are all URL pairs sharing the (site, p) PREFIX GROUP
    (split_part components 3 and 5 — the documented blocking
    contract: every injected variant shares its base's prefix, and
    the contract is replayed verbatim in SQL; cross-prefix ed-2 pairs
    are out-of-block by design, the sorted-neighborhood trade), then
    verified with the exact k=2 BANDED Levenshtein DP (_ed2_banded —
    5 diagonal lanes vectorized across pairs, the row loop is over
    string length). URL universe: _ed1_urls_np. Output:
    (url_a, url_b, ed) for ed ∈ {1, 2}.

    Scale shape: prefix groups shrink the pair space to
    Σ per-group C(m,2) (group sizes = n/350 in this corpus —
    documented; a web-scale run adds a tail-length sub-key); one
    group-key bucket shuffle; the verify is candidate-scale. The
    oracle replays blocking verbatim and verifies with DuckDB's
    levenshtein()."""

    ds = read_table(sf_dir, "documents", columns=["doc_id"])

    def to_urls(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        urls = _ed1_urls_np(ids)
        grp = urls.str.split("/").str[2] + "|" \
            + urls.str.split("/").str[4]
        return pa.table({"url": pa.array(urls, pa.string()),
                         "grp": pa.array(grp, pa.string())})

    def pair_bucket(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, gg in g.groupby("grp", sort=False):
            u = np.unique(gg["url"].to_numpy())
            if len(u) < 2:
                continue
            i, j = np.triu_indices(len(u), 1)
            la = np.fromiter((len(s) for s in u), np.int64, len(u))
            keep = np.abs(la[i] - la[j]) <= 2
            i, j = i[keep], j[keep]
            if not len(i):
                continue
            d = _ed2_banded(u[i], u[j])
            hit = d <= 2
            if hit.any():
                outs.append(pd.DataFrame({
                    "url_a": u[i[hit]], "url_b": u[j[hit]],
                    "ed": d[hit]}))
        if not outs:
            return pd.DataFrame({
                "url_a": pd.Series([], dtype=object),
                "url_b": pd.Series([], dtype=object),
                "ed": pd.Series([], dtype="int64")})
        out = pd.concat(outs, ignore_index=True)
        out["ed"] = out["ed"].astype("int64")
        return out

    out = (map_buckets(ds.map_batches(to_urls, batch_format="pyarrow"),
                       ["grp"], pair_bucket)
           .to_pandas())
    cols = ["url_a", "url_b", "ed"]
    if out.empty or "url_a" not in out.columns:
        return pd.DataFrame({"url_a": pd.Series([], dtype=object),
                             "url_b": pd.Series([], dtype=object),
                             "ed": pd.Series([], dtype="int64")})
    out = out[cols].drop_duplicates()
    out["ed"] = out["ed"].astype("int64")
    return out.sort_values(["url_a", "url_b"]).reset_index(drop=True)


def _url_lev_oracle_sql() -> str:
    base = ("'https://site' || CAST(doc_id % 7 AS VARCHAR) || "
            "'.example.com/p/' || CAST(doc_id % 50 AS VARCHAR) || "
            "'/doc/' || CAST(doc_id AS VARCHAR)")
    return (
        f"WITH lv_b AS (SELECT doc_id, {base} AS url FROM documents), "
        "lv_u AS (SELECT DISTINCT url FROM ("
        "SELECT url FROM lv_b "
        "UNION ALL SELECT url || 'x' FROM lv_b WHERE doc_id % 11 = 3 "
        "UNION ALL SELECT substr(url, 1, length(url) - 1) || 'x' "
        "FROM lv_b WHERE doc_id % 11 = 7)), "
        "lv_g AS (SELECT url, split_part(url, '/', 3) || '|' || "
        "split_part(url, '/', 5) AS grp FROM lv_u) "
        "SELECT a.url AS url_a, b.url AS url_b, "
        "CAST(levenshtein(a.url, b.url) AS BIGINT) AS ed "
        "FROM lv_g a JOIN lv_g b ON a.grp = b.grp AND a.url < b.url "
        "WHERE abs(length(a.url) - length(b.url)) <= 2 "
        "AND levenshtein(a.url, b.url) <= 2 ORDER BY 1, 2")


ORACLE_SQL_TRAINING: dict[str, str] = {
    # MMR greedy selection trajectory, incremental replay
    "mmr_selection": _mmr_oracle_sql(),
    # fuzzy URL pairs at ed<=2: prefix-group blocking + banded DP
    "url_levenshtein_pairs": _url_lev_oracle_sql(),
    # the north rule's per-row span-sequence invariant, end to end
    "crawl_span_sequences": _span_sequences_oracle_sql(),
    # the full iterative BPE trainer, chained-CTE round replay
    "bpe_train_merges": _bpe_train_oracle_sql(),
    # the north-star priority heap's own ordering oracle
    "crawl_order_priority": _crawl_priority_oracle_sql(),
    # deterministic random walks, recursive-CTE trajectory replay
    "host_random_walks": _random_walks_oracle_sql(),
    # balanced class downsampling: per-label top-m splitmix draws
    "balanced_label_sample": _balanced_sample_oracle_sql(),
    # round-4 corpus profiling / novelty / containment family
    "charclass_profile": _charclass_oracle_sql(),
    "cross_source_dup_matrix":
        "WITH h AS (SELECT DISTINCT md5(substr(text, 1, 40)) AS h, "
        "source FROM documents) "
        "SELECT a.source AS src_a, b.source AS src_b, "
        "CAST(count(*) AS BIGINT) AS n_shared "
        "FROM h a JOIN h b ON a.h = b.h WHERE a.source < b.source "
        "GROUP BY 1, 2 ORDER BY 1, 2",
    "hapax_stats": _hapax_oracle_sql(),
    "freq_of_freqs": _freq_of_freqs_oracle_sql(),
    # per-vector squared norms on the shared quantize_e3 contract
    # (floor(x*1000 + 0.5) over DOUBLE — IEEE-identical both engines)
    "embedding_norm_audit":
        "WITH e AS (SELECT vec_id, label, embedding, "
        "unnest(range(1, len(embedding) + 1)) AS i FROM embeddings), "
        "qv AS (SELECT vec_id, label, "
        "CAST(floor(CAST(embedding[i] AS DOUBLE) * 1000 + 0.5) AS BIGINT) "
        "AS q FROM e), "
        "v AS (SELECT vec_id, label, sum(q) AS sq, sum(q * q) AS nrm2 "
        "FROM qv GROUP BY 1, 2) "
        "SELECT CAST(label AS BIGINT) AS label, "
        "CAST(count(*) AS BIGINT) AS n_vecs, "
        "CAST(sum(sq) AS BIGINT) AS sum_q, "
        "CAST(sum(nrm2) AS BIGINT) AS sum_q2, "
        "CAST(min(nrm2) AS BIGINT) AS min_nrm2, "
        "CAST(max(nrm2) AS BIGINT) AS max_nrm2 "
        "FROM v GROUP BY label ORDER BY label",
    "dup_cluster_sizes":
        "WITH g AS (SELECT md5(text) AS h, count(*) AS sz "
        "FROM documents GROUP BY 1) "
        "SELECT CAST(sz AS BIGINT) AS cluster_size, "
        "CAST(count(*) AS BIGINT) AS n_clusters "
        "FROM g GROUP BY 1 ORDER BY 1",
    "dedup_savings_by_source":
        "WITH d AS (SELECT doc_id, source, n_chars, md5(text) AS h "
        "FROM documents), "
        "k AS (SELECT h, min(doc_id) AS keep FROM d GROUP BY h) "
        "SELECT source, CAST(count(*) AS BIGINT) AS n_docs, "
        "CAST(sum(CASE WHEN doc_id <> keep THEN 1 ELSE 0 END) AS BIGINT) "
        "AS n_removed, "
        "CAST(sum(CASE WHEN doc_id <> keep THEN n_chars ELSE 0 END) "
        "AS BIGINT) AS chars_removed, "
        "CAST(sum(CASE WHEN doc_id = keep THEN n_chars ELSE 0 END) "
        "AS BIGINT) AS chars_kept "
        "FROM d JOIN k USING (h) GROUP BY source ORDER BY source",
    "token_length_histogram": _token_length_hist_oracle_sql(),
    "ngram_novelty_by_source": _ngram_novelty_oracle_sql(),
    "containment_pairs": _containment_pairs_oracle_sql(),
    # session-11 additions: DSIR importance resampling scores and
    # URL-canonicalization dedup (the vectorized seed-ingest primitive)
    "dsir_importance": _dsir_oracle_sql(),
    "url_canonical_dedup": _url_canonical_oracle_sql(),
    "media_frame_plan": _media_frame_plan_oracle_sql(),
    # session-11: PMI collocation sufficient statistics (two chained
    # token-keyed bucketed joins; integer-exact gate columns)
    "collocation_stats": _collocation_oracle_sql(),
    # session-11: sorted-neighborhood blocking (global rank without a
    # global sort + halo-block windowed pair emission)
    "sorted_neighborhood_pairs": _snb_oracle_sql(),
    # session-11: positional inverted-index posting summaries
    "positional_index": _positional_index_oracle_sql(),
    # session-11: centroid cosine sufficient statistics
    "centroid_similarity": _centroid_similarity_oracle_sql(),
    # full Lloyd trajectory replay (init → 2 assignment/update
    # rounds → final assignment), exact-integer in both engines
    "kmeans_lloyd": _kmeans_oracle_sql(),
    # greedy farthest-point selection, every round replayed
    "kcenter_coreset": _kcenter_oracle_sql(),
    # weighted majority label propagation, 4 unrolled vote rounds
    "host_label_propagation": _label_prop_oracle_sql(),
    # HITS hubs/authorities: exact-integer e9, HUGEINT normalization
    "host_hits": _hits_oracle_sql(),
    # R-round k-core peel over the sparse deterministic link graph
    "host_kcore": _kcore_oracle_sql(),
    # source-pair token cosine: int64 dots, one IEEE-exact final float
    "source_cosine_matrix": _source_cosine_oracle_sql(),
    # Gopher-style composite quality rules, integer cross-multiplied
    "gopher_rules": _gopher_rules_oracle_sql(),
    # JSONL/CSV export→read-back round-trips, parsed-content gated
    "jsonl_roundtrip_stats": _roundtrip_oracle_sql(JR_SALT),
    "gzip_roundtrip_stats": _roundtrip_oracle_sql(GZ_SALT),
    "csv_roundtrip_stats": _roundtrip_oracle_sql(CR_SALT),
    "warc_roundtrip_stats": _roundtrip_oracle_sql(WR_SALT),
    "ipc_roundtrip_stats": _roundtrip_oracle_sql(IR_SALT),
    # A-ES fixed-size weighted sample (ids only; boundary-gap assert)
    "weighted_sample_aes": _weighted_sample_oracle_sql(),
    # exact covariance numerators over e3-quantized embeddings
    "embedding_covariance": _embedding_cov_oracle_sql(),
    # MERGE/upsert apply: identical change batch replayed in SQL
    "cdc_merge_stats": _cdc_merge_oracle_sql(),
    # KMV set sketch: every sketch value recomputed via the hash CTE
    "kmv_source_jaccard": _kmv_oracle_sql(),
    # SymSpell ed-1 blocking replayed + exact levenshtein verify
    "url_edit_pairs": _url_edit_oracle_sql(),
    # JL ±1 projection: sign matrix replayed via the splitmix mirror
    "jl_projection_audit": _jl_oracle_sql(),
    # unigram surprisal in whole bits: exact integer floor-log2
    "surprisal_bits": _surprisal_oracle_sql(),
    # Simpson collision-probability diversity, one final exact float
    "simpson_diversity": _simpson_oracle_sql(),
    # session-11: greedy max-coverage selection (K unrolled CTE rounds)
    "greedy_vocab_cover": _greedy_cover_oracle_sql(),
    # session-11: count-min sketch registers mirrored bit-for-bit
    "cms_token_counts": _cms_oracle_sql(),
    # session-11: tokenizer coverage curve at vocab cut points
    "vocab_coverage_curve": _vocab_coverage_oracle_sql(),
    # session-11: end-to-end entity resolution (block/verify/cluster)
    "entity_resolution": _entity_resolution_oracle_sql(),
    # session-11: reciprocal-rank fusion of two count-table rankings
    "rank_fusion": _rank_fusion_oracle_sql(),
    # training-data assembly additions (r03): deterministic splits /
    # mixture sampling / decontamination / vocabulary / curriculum
    # bins — split+mixture draws mirrored bit-for-bit via
    # sqlmirror.splitmix64_cte
    "snapshot_diff":
        "WITH sd_a AS (SELECT doc_id, n_chars FROM documents), "
        "sd_b AS ("
        "SELECT doc_id, CASE WHEN doc_id % 5 = 0 THEN n_chars + 17 "
        "ELSE n_chars END AS n_chars FROM documents WHERE doc_id % 7 <> 0 "
        "UNION ALL SELECT doc_id + 10000000, n_chars + 3 FROM documents "
        "WHERE doc_id % 11 = 0), "
        "sd_j AS (SELECT coalesce(sd_a.doc_id, sd_b.doc_id) AS doc_id, "
        "sd_a.n_chars AS old_c, sd_b.n_chars AS new_c "
        "FROM sd_a FULL OUTER JOIN sd_b ON sd_a.doc_id = sd_b.doc_id) "
        "SELECT CAST(doc_id AS BIGINT) AS doc_id, "
        "CASE WHEN old_c IS NULL THEN 'added' "
        "WHEN new_c IS NULL THEN 'removed' ELSE 'changed' END AS change, "
        "CAST(coalesce(old_c, -1) AS BIGINT) AS old_chars, "
        "CAST(coalesce(new_c, -1) AS BIGINT) AS new_chars "
        "FROM sd_j WHERE old_c IS NULL OR new_c IS NULL OR old_c <> new_c "
        "ORDER BY 1, 2",
    "zorder_layout": _zorder_oracle_sql(),
    "search_phrase": _search_phrase_oracle_sql(),
    "pq_codes": _pq_oracle_sql(),
    "contrastive_pairs": _contrastive_oracle_sql(),
    "hierarchy_rollup":
        "WITH RECURSIVE hr AS ("
        "SELECT doc_id AS node, n_chars FROM documents "
        "UNION ALL SELECT node // 10, n_chars FROM hr WHERE node > 0) "
        "SELECT node, CAST(count(*) AS BIGINT) AS n_docs, "
        "CAST(sum(n_chars) AS BIGINT) AS sum_chars "
        "FROM hr GROUP BY node ORDER BY node",
    "bm25_topk": _bm25_oracle_sql(),
    "stratified_split": _stratified_split_oracle_sql(),
    "mixture_sample": _mixture_oracle_sql(),
    "pps_sample": _pps_oracle_sql(),
    "decontaminate": _decontaminate_oracle_sql(),
    "vocab_topk": _vocab_topk_oracle_sql(),
    "heavy_hitter_tokens": _heavy_hitter_oracle_sql(),
    "source_vocab_overlap": _source_vocab_overlap_oracle_sql(),
    "bpe_pair_counts": _bpe_pair_oracle_sql(),
    "length_bins": _length_bins_oracle_sql(),
    # K=1 conformance run replayed closed-form in SQL (r03): the
    # claim stream, the per-wave lease lineage, and the documents
    # table INCLUDING enqueue_seq
    "crawl_order": _crawl_order_oracle_sql(),
    # K=8 global-FIFO interleave (r04): exact same replay — the K>1
    # engine must reproduce the K=1 stream bit-for-bit
    "crawl_order_sharded": _crawl_order_oracle_sql(),
    "crawl_wave_stats": _crawl_wave_stats_oracle_sql(),
    "crawl_fifo_documents": _crawl_fifo_documents_oracle_sql(),
    "crawl_direct": _crawl_direct_oracle_sql(),
    "a3_warm_crawl": _a3_warm_oracle_sql(),
    "crawl_status_histogram": _crawl_status_histogram_oracle_sql(),
    "crawl_simhash_audit": _crawl_simhash_audit_oracle_sql(),
    "media_spans": _media_spans_oracle_sql(),
    "media_ann_topk": _media_ann_topk_oracle_sql(),
    "media_decode_stats": _media_decode_oracle_sql(),
    "audio_decode_stats": _audio_decode_oracle_sql(),
    "video_decode_stats": _video_decode_oracle_sql(),
    "media_resize_stats": _media_resize_oracle_sql(),
    "robots_real_verdicts": _robots_real_oracle_sql(),
    "sitemap_extract": _sitemap_oracle_sql(),
    "http_fetch_stats": _http_parse_oracle_sql(),
    "http_revalidate_stats": _http_revalidate_oracle_sql(),
    "indexability_stats": _indexability_oracle_sql(),
    "fetch_decision_chain": _fetch_decision_oracle_sql(),
    "curate_documents": _curate_documents_oracle_sql(),
    "crawl_host_counts": _crawl_host_counts_oracle_sql(),
    "crawl_doc_stats": _crawl_doc_stats_oracle_sql(),
    "text_fingerprint": _fingerprint_oracle_sql(),
    "redact_pii": _redact_oracle_sql(),
    "repetition_stats": _repetition_oracle_sql(),
    "quality_classifier": _quality_classifier_oracle_sql(),
    "chunk_documents": _chunk_oracle_sql(),
    "shuffle_shards": _shuffle_shards_oracle_sql(),
    "sample_per_source": _sample_per_source_oracle_sql(),
    "oov_stats": _oov_oracle_sql(),
    "export_shards": _export_shards_oracle_sql(),
    "host_pagerank": _pagerank_oracle_sql(),
    "host_components": _host_components_oracle_sql(),
    "host_bfs_depth": _host_bfs_oracle_sql(),
    "text_normalize": _normalize_oracle_sql(),
    "lm_bigram_score": _lm_bigram_oracle_sql(),
    "typo_token_pairs": _typo_pairs_oracle_sql(),
    "top_terms_concat": _top_terms_concat_oracle_sql(),
    "label_centroids":
        "WITH lc_e AS (SELECT label, embedding, "
        "unnest(range(1, len(embedding) + 1)) AS i FROM embeddings) "
        "SELECT CAST(label AS BIGINT) AS label, "
        "CAST(i - 1 AS BIGINT) AS dim, "
        "CAST(sum(CAST(floor(CAST(embedding[i] AS DOUBLE) * 1000 + 0.5) "
        "AS BIGINT)) AS BIGINT) AS sum_q_e3, "
        "CAST(count(*) AS BIGINT) AS n_vecs "
        "FROM lc_e GROUP BY 1, 2 ORDER BY 1, 2",
    "host_triangles": _host_triangles_oracle_sql(),
    # clustering coefficient / link prediction over the same edge draw
    "host_clustering": _host_clustering_oracle_sql(),
    "link_prediction": _link_prediction_oracle_sql(),
    "boilerplate_stats": _boilerplate_oracle_sql(),
    "source_terms": _source_terms_oracle_sql(),
    "dedup_minhash_pairs": _minhash_pairs_oracle_sql(),
    "dedup_minhash_remove": _minhash_remove_oracle_sql(),
    "dedup_embedding_pairs": _embedding_pairs_oracle_sql(),
    "m8_randomizers": _m8_oracle_sql(),
    "dedup_simhash": _simhash_oracle_sql(),
    "dedup_simhash_pairs": _simhash_pairs_oracle_sql(),
    # mirrors jaccard_exact_pairs_ds: distinct token-trigram shingles
    # per doc (docs with < 3 tokens contribute the whole joined text
    # as their single shingle), |A ∩ B| via shingle equi-join,
    # integer-units Jaccard filter
    "dedup_jaccard_exact":
        "WITH toks AS (SELECT doc_id, "
        "list_filter(string_split_regex(text, '[ \t\n\r\f\v]+'), __x -> __x <> '') AS t FROM documents), "
        "sh AS (SELECT doc_id, unnest(CASE WHEN len(t) < 3 "
        "THEN [coalesce(array_to_string(t, ' '), '')] "
        "ELSE list_distinct(list_transform(range(1, len(t) - 1), "
        "i -> t[i] || ' ' || t[i + 1] || ' ' || t[i + 2])) END) AS s "
        "FROM toks), "
        "sz AS (SELECT doc_id, count(*) AS n_sh FROM sh GROUP BY doc_id), "
        "p AS (SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS inter "
        "FROM sh x JOIN sh y ON x.s = y.s AND x.doc_id < y.doc_id "
        "GROUP BY 1, 2) "
        "SELECT a, b, CAST(inter AS BIGINT) AS inter, "
        "CAST((inter * 1000000) // (sa.n_sh + sb.n_sh - inter) AS BIGINT) "
        "AS jaccard_e6 FROM p "
        "JOIN sz sa ON p.a = sa.doc_id JOIN sz sb ON p.b = sb.doc_id "
        "WHERE (inter * 1000000) // (sa.n_sh + sb.n_sh - inter) >= 500000",
    # same shape over DISTINCT character 5-grams (docs of <= 5 chars
    # contribute the whole text as their single shingle); df-bounded
    # (max_df=NGRAM_MAX_DF): hot shingles leave the candidate join,
    # set sizes sz stay FULL — mirrors jaccard_exact_pairs_ds(max_df)
    "dedup_ngram_pairs":
        "WITH sh AS (SELECT doc_id, unnest(CASE WHEN length(text) <= 5 "
        "THEN [text] ELSE list_distinct(list_transform("
        "range(1, length(text) - 3), i -> substr(text, i, 5))) END) AS s "
        "FROM documents), "
        "sz AS (SELECT doc_id, count(*) AS n_sh FROM sh GROUP BY doc_id), "
        "shc AS (SELECT s FROM sh GROUP BY s "
        f"HAVING count(*) <= {NGRAM_MAX_DF}), "
        "p AS (SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS inter "
        "FROM sh x JOIN shc f ON x.s = f.s "
        "JOIN sh y ON x.s = y.s AND x.doc_id < y.doc_id "
        "GROUP BY 1, 2) "
        "SELECT a, b, CAST(inter AS BIGINT) AS inter, "
        "CAST((inter * 1000000) // (sa.n_sh + sb.n_sh - inter) AS BIGINT) "
        "AS jaccard_e6 FROM p "
        "JOIN sz sa ON p.a = sa.doc_id JOIN sz sb ON p.b = sb.doc_id "
        "WHERE (inter * 1000000) // (sa.n_sh + sb.n_sh - inter) >= 300000",
    "dedup_exact":
        "SELECT md5(text) AS content_hash, min(doc_id) AS keep_doc_id, "
        "count(*) AS n_dups FROM documents GROUP BY md5(text)",
    "dedup_exact_remove":
        "SELECT doc_id, n_chars FROM documents WHERE doc_id IN "
        "(SELECT min(doc_id) FROM documents GROUP BY md5(text))",
    # incremental dedup: split = max(doc_id)*6//10 in BOTH engines
    "dedup_incremental":
        "WITH s AS (SELECT CAST(max(doc_id) * 6 // 10 AS BIGINT) AS split FROM documents), "
        "corp AS (SELECT DISTINCT md5(text) AS content_hash FROM documents, s "
        "WHERE doc_id < split), "
        "inc AS (SELECT doc_id, md5(text) AS content_hash, n_chars FROM documents, s "
        "WHERE doc_id >= split), "
        "surv AS (SELECT * FROM inc WHERE content_hash NOT IN "
        "(SELECT content_hash FROM corp)) "
        "SELECT doc_id, n_chars FROM surv WHERE doc_id IN "
        "(SELECT min(doc_id) FROM surv GROUP BY content_hash)",
    # first-crossing token-budget packing (budget 2048), token counts
    # per the engine's ASCII whitespace contract (= text_token_count)
    "pack_sequences":
        "WITH t AS (SELECT source, doc_id, "
        "len(list_filter(string_split_regex(text, '\\s+'), __x -> __x <> '')) "
        "AS n_tokens FROM documents), "
        "c AS (SELECT source, doc_id, n_tokens, "
        "COALESCE(sum(n_tokens) OVER (PARTITION BY source ORDER BY doc_id "
        "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS cb FROM t) "
        "SELECT source, doc_id, CAST(n_tokens AS BIGINT) AS n_tokens, "
        "CAST(cb // 2048 AS BIGINT) AS pack_id FROM c",
    "text_token_count":
        "SELECT doc_id, len(list_filter(string_split_regex(text, '\\s+'), "
        "__x -> __x <> '')) AS n_tokens FROM documents",
    "text_quality":
        "SELECT doc_id, length(text) AS n_chars_q, "
        "CAST((list_aggregate(list_transform(string_split(text, ' '), "
        "x -> CAST(length(x) AS BIGINT)), 'sum') * 1000) "
        "// length(string_split(text, ' ')) AS BIGINT) AS avg_token_len_e3, "
        "CAST((length(regexp_replace(text, '[\\w\\s]', '', 'g')) * 10000) "
        "// length(text) AS BIGINT) AS punct_ratio_e4 FROM documents",
    # mirrors langid_batch exactly: shared-denominator integer hit-count
    # argmax (ties first-wins in en>es>de>fr order), CJK short-circuit
    # over the first 200 chars, floor-1e4 integer score
    "text_langid":
        "WITH t AS (SELECT doc_id, "
        "list_filter(string_split_regex(lower(coalesce(text,'')), '[ \t\n\r\f\v]+'), __x -> __x <> '') AS toks, "
        "regexp_matches(substr(lower(coalesce(text,'')), 1, 200), '[一-鿿]') AS cjk "
        "FROM documents), "
        "h AS (SELECT doc_id, cjk, len(toks) AS n, "
        "len(list_filter(toks, x -> x IN ('the','a','of','and','to','in','is','it','that','for'))) AS h_en, "
        "len(list_filter(toks, x -> x IN ('el','la','de','que','y','en','un','una','los','por'))) AS h_es, "
        "len(list_filter(toks, x -> x IN ('der','die','das','und','ist','von','mit','den','ein','zu'))) AS h_de, "
        "len(list_filter(toks, x -> x IN ('le','la','de','et','les','des','un','une','est','dans'))) AS h_fr "
        "FROM t) "
        "SELECT doc_id, "
        "CASE WHEN cjk THEN 'zh' "
        "WHEN n = 0 OR greatest(h_en, h_es, h_de, h_fr) = 0 THEN 'und' "
        "WHEN h_en >= h_es AND h_en >= h_de AND h_en >= h_fr THEN 'en' "
        "WHEN h_es >= h_de AND h_es >= h_fr THEN 'es' "
        "WHEN h_de >= h_fr THEN 'de' ELSE 'fr' END AS lang_pred, "
        "CAST(CASE WHEN cjk THEN 10000 WHEN n = 0 THEN 0 "
        "ELSE (greatest(h_en, h_es, h_de, h_fr) * 10000) // n END AS BIGINT) "
        "AS lang_score_e4 FROM h",
    "knn_graph": _knn_graph_oracle_sql(),
    "semdedup_remove": _semdedup_oracle_sql(),
    "dedup_spans": _dedup_spans_oracle_sql(),
    "dedup_spans_remove": _dedup_spans_remove_oracle_sql(),
    "ann_brute_topk":
        "WITH sims AS (SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id, "
        "list_cosine_similarity(q.embedding::DOUBLE[], e.embedding::DOUBLE[]) AS sim "
        "FROM embeddings q CROSS JOIN embeddings e WHERE q.vec_id < 4), "
        "ranked AS (SELECT query_id, neighbor_id, round(sim, 4) AS cosine, "
        "row_number() OVER (PARTITION BY query_id ORDER BY sim DESC, neighbor_id) "
        "AS rank FROM sims) "
        "SELECT query_id, neighbor_id, cosine, rank FROM ranked WHERE rank <= 10",
    # IVF at nprobe = n_centroids is exact, so the brute-force SQL is
    # a valid oracle for the full IVF build+probe machinery
    "ann_ivf_full_probe":
        "WITH sims AS (SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id, "
        "list_cosine_similarity(q.embedding::DOUBLE[], e.embedding::DOUBLE[]) AS sim "
        "FROM embeddings q CROSS JOIN embeddings e WHERE q.vec_id < 4), "
        "ranked AS (SELECT query_id, neighbor_id, round(sim, 4) AS cosine, "
        "row_number() OVER (PARTITION BY query_id ORDER BY sim DESC, neighbor_id) "
        "AS rank FROM sims) "
        "SELECT query_id, neighbor_id, cosine, rank FROM ranked WHERE rank <= 10",
}

# PPJoin shares dedup_jaccard_exact's brute-force oracle: two
# registered plans (plain inverted index / prefix-filtered), one
# ground truth.
ORACLE_SQL_TRAINING["ppjoin_pairs"] = ORACLE_SQL_TRAINING["dedup_jaccard_exact"]
