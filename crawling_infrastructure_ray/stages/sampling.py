"""Training-data assembly: deterministic sampling, split assignment,
eval-set decontamination, vocabulary extraction, curriculum binning.

No single reference analog — these are the LLM-pipeline additions the
graft brief lists as first-class (the reference's nearest neighbors
are its result-sampling endpoint, crawltask.service.ts:564-601, and
the domain-count map-reduce, domain_count.js:40-56; the shapes here
generalize those to corpus assembly).

Scale notes (100 TB):
- All per-doc decisions are ONE vectorized hash of an integer id
  (splitmix64_np) — no shuffle, no state, embarrassingly parallel.
- Decontamination is the canonical broadcast-join: the eval side is
  small BY CONSTRUCTION (held-out benchmarks), so its distinct
  shingle-hash set is `ray.put` once and probed per batch with
  `np.isin` — never a corpus-vs-corpus shuffle.
- Vocabulary is combiner-first: per-batch token counts (factorize →
  bincount) before the bucketed all-to-all (`merge_partials_ray`),
  so the exchange carries distinct-token partials, not the token
  stream.
- Curriculum binning computes a GLOBAL rank without a global sort:
  per-value counts (small value domain: document lengths) give
  driver-side base offsets; within-value rank is assigned in
  `groupby(value).map_groups`. Partitioning assumption: the distinct
  value domain is config-sized (lengths, scores) — for unbounded
  domains quantize first.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..functions.bucketing import map_buckets
from ..functions.hashing import splitmix64_np
from ..functions.tokenize import split_ws

# salts for the two independent per-doc hash draws (split assignment
# and mixture sampling must be uncorrelated)
SPLIT_SALT = 0x51A5_0F75_11D5_0001
MIX_SALT = 0xA11C_E5A1_7B00_0002

# split buckets over h % 100: train < 90, val 90-94, test >= 95
TRAIN_LT, TEST_GE = 90, 95


def row_hash(doc_id_col, salt: int) -> np.ndarray:
    """The per-doc draw: splitmix64(u64(doc_id) ^ salt)."""
    ids = np.asarray(doc_id_col.to_numpy(zero_copy_only=False),
                     dtype=np.int64).view(np.uint64)
    return splitmix64_np(ids ^ np.uint64(salt))


def split_bucket(doc_id_col) -> np.ndarray:
    """Deterministic 0-99 split bucket per doc."""
    return (row_hash(doc_id_col, SPLIT_SALT) % np.uint64(100)).astype(np.int64)


def assign_split_batch(batch: pa.Table) -> pa.Table:
    """(split, n_docs, n_chars_total) partials per batch — combiner
    for the 3-row (enum-keyed) final reduce."""
    b = split_bucket(batch["doc_id"])
    names = np.where(b < TRAIN_LT, "train",
                     np.where(b >= TEST_GE, "test", "val"))
    nch = batch["n_chars"].to_numpy(zero_copy_only=False)
    rows = []
    for s in ("test", "train", "val"):
        m = names == s
        if m.any():
            rows.append({"split": s, "n_docs": int(m.sum()),
                         "n_chars_total": int(nch[m].sum())})
    return pa.Table.from_pylist(rows) if rows else pa.table(
        {"split": pa.array([], pa.string()),
         "n_docs": pa.array([], pa.int64()),
         "n_chars_total": pa.array([], pa.int64())})


def mixture_keep_mask(batch: pa.Table, rate_e6_of_src: dict[str, int]) -> np.ndarray:
    """Deterministic Bernoulli keep per doc: draw % 1e6 < the source's
    rate (exact integer micro-units — the cross-engine convention).
    Unknown sources drop (rate 0)."""
    draws = (row_hash(batch["doc_id"], MIX_SALT) % np.uint64(1_000_000)) \
        .astype(np.int64)
    src = batch["source"].to_numpy(zero_copy_only=False)
    codes, uniq = pd.factorize(src)
    getter = rate_e6_of_src if callable(rate_e6_of_src) \
        else lambda s: rate_e6_of_src.get(s, 0)
    rates = np.array([getter(s) for s in uniq], dtype=np.int64)
    return draws < rates[codes]


def source_rate_e6(source: str) -> int:
    """The bench/driver mixture weights: rate by source index —
    (1 + idx % 4) * 200000 micro-units (0.2/0.4/0.6/0.8). Mirrored
    verbatim in the SQL oracle (training._mixture_oracle_sql)."""
    try:
        idx = int(source[3:])
    except (ValueError, IndexError):
        return 0
    return (1 + idx % 4) * 200_000


def mixture_sample_ds(docs: rd.Dataset,
                      rate_e6_of_src: dict[str, int]) -> rd.Dataset:
    """Weighted per-source mixture sample → the kept (doc_id, source)
    rows. One vectorized hash per row, no shuffle; at scale the
    output streams straight to partitioned parquet."""
    def keep(batch: pa.Table) -> pa.Table:
        m = mixture_keep_mask(batch, rate_e6_of_src)
        t = batch.filter(pa.array(m))
        return t.select(["doc_id", "source"])

    return docs.map_batches(keep, batch_format="pyarrow")


# ----------------------------------------------------------------------
# decontamination (eval n-gram overlap)
# ----------------------------------------------------------------------
def eval_shingle_index(docs: rd.Dataset, k: int = 8) -> np.ndarray:
    """Distinct token-k-gram hashes of the TEST split — the broadcast
    side. Computed distributed (per-batch shingle + unique), unioned
    on the driver; eval sets are benchmark-sized by construction, so
    the index is small."""
    from .dedup import _batch_token_shingles

    def shingles(batch: pa.Table) -> pa.Table:
        b = split_bucket(batch["doc_id"])
        t = batch.filter(pa.array(b >= TEST_GE))
        if t.num_rows == 0:
            return pa.table({"sh": pa.array([], pa.int64())})
        hs = _batch_token_shingles(t["text"].to_pylist(), k=k)
        u = np.unique(np.concatenate(hs))
        return pa.table({"sh": pa.array(u.view(np.int64))})

    parts = docs.map_batches(shingles, batch_format="pyarrow")
    arrs = [b["sh"].to_numpy(zero_copy_only=False)
            for b in parts.iter_batches(batch_format="pyarrow")]
    return np.unique(np.concatenate(arrs)) if arrs \
        else np.empty(0, dtype=np.int64)


def decontaminate_ds(docs: rd.Dataset, k: int = 8) -> rd.Dataset:
    """Remove TRAIN docs sharing any token k-gram with any TEST doc —
    the train/eval contamination gate every LLM data pipeline needs.

    Broadcast shape: the eval shingle index rides the object store
    once (`ray.put`); each train batch probes it with sorted
    `np.isin`. Match is on 64-bit shingle hashes (equal token
    sequences ⇒ equal hashes; false-positive removal odds ~n²/2⁶⁴ —
    documented, negligible)."""
    from .dedup import _batch_token_shingles

    idx_ref = ray.put(eval_shingle_index(docs, k=k))

    def survivors(batch: pa.Table) -> pa.Table:
        idx = ray.get(idx_ref)
        b = split_bucket(batch["doc_id"])
        train = batch.filter(pa.array(b < TRAIN_LT))
        if train.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_chars": pa.array([], pa.int64())})
        sh = _batch_token_shingles(train["text"].to_pylist(), k=k)
        lens = np.array([len(h) for h in sh], dtype=np.int64)
        allh = (np.concatenate(sh) if lens.sum()
                else np.empty(0, dtype=np.uint64))
        hit = np.isin(allh.view(np.int64), idx)
        docidx = np.repeat(np.arange(len(sh)), lens)
        clean = np.bincount(docidx, weights=hit,
                            minlength=len(sh)) == 0
        out = train.filter(pa.array(clean))
        return pa.table({"doc_id": out["doc_id"],
                         "n_chars": pc.cast(out["n_chars"], pa.int64())})

    return docs.map_batches(survivors, batch_format="pyarrow")


# ----------------------------------------------------------------------
# vocabulary (token frequency top-k)
# ----------------------------------------------------------------------
def vocab_partial_counts(batch: pa.Table, column: str = "text") -> pa.Table:
    """Per-batch (token, n) combiner: ONE whitespace split over the
    batch (byte-identical to Python str.split for ASCII — the
    chunk_batch recipe), factorize the flat token stream once (C
    path) and bincount — the exchange then carries distinct-token
    partials only; no per-doc Python loop."""
    stripped = pc.utf8_trim_whitespace(pc.fill_null(batch[column], ""))
    lists = split_ws(stripped)
    raw_lens = np.diff(lists.offsets.to_numpy(zero_copy_only=False)
                       .astype(np.int64))
    empty = np.asarray(pc.equal(stripped, "")
                       .to_numpy(zero_copy_only=False))
    flat = lists.flatten().to_numpy(zero_copy_only=False)
    # drop the '' phantom token empty/whitespace-only docs emit
    keep = ~np.repeat(empty, raw_lens)
    flat = flat[keep]
    if not len(flat):
        return pa.table({"token": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    codes, uniq = pd.factorize(flat)
    counts = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
    return pa.table({"token": pa.array(uniq.astype(str)),
                     "n": pa.array(counts)})


def _flat_adjacent_pairs(batch: pa.Table, column: str):
    """Shared vectorized bigram extraction: ONE whitespace split over
    the batch (the chunk_batch tokenizer recipe, byte-identical to
    Python str.split on ASCII), one factorize over the flat token
    stream, and a same-doc adjacency mask — no per-doc Python loop.
    Returns (codes, uniq, ok_mask, doc_idx) where pairs are
    (codes[:-1][ok], codes[1:][ok]) and doc_idx[:-1][ok] maps each
    pair to its row."""
    stripped = pc.utf8_trim_whitespace(pc.fill_null(batch[column], ""))
    lists = split_ws(stripped)
    offs = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    raw_lens = np.diff(offs)
    empty = np.asarray(pc.equal(stripped, "")
                       .to_numpy(zero_copy_only=False))
    flat = lists.flatten().to_numpy(zero_copy_only=False)
    if len(flat) < 2:
        return None
    codes, uniq = pd.factorize(flat)
    doc_idx = np.repeat(np.arange(len(raw_lens), dtype=np.int64),
                        raw_lens)
    ok = doc_idx[:-1] == doc_idx[1:]
    ok &= ~empty[doc_idx[:-1]]  # '' phantom rows of empty docs
    if not ok.any():
        return None
    return codes, uniq, ok, doc_idx


def bpe_pair_partial_counts(batch: pa.Table,
                            column: str = "text") -> pa.Table:
    """Per-batch ADJACENT-TOKEN-PAIR (bigram) combiner — the counting
    core of one BPE-merge training step: each doc's token stream
    contributes (tok[i], tok[i+1]) pairs (never across doc
    boundaries). Fully vectorized via _flat_adjacent_pairs (one Arrow
    split + one factorize + composite-code np.unique)."""
    res = _flat_adjacent_pairs(batch, column)
    if res is None:
        return pa.table({"left_tok": pa.array([], pa.string()),
                         "right_tok": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    codes, uniq, ok, _ = res
    u = len(uniq)
    key = codes[:-1][ok].astype(np.int64) * u + codes[1:][ok]
    ukey, counts = np.unique(key, return_counts=True)
    return pa.table({"left_tok": pa.array(uniq[ukey // u].astype(str)),
                     "right_tok": pa.array(uniq[ukey % u].astype(str)),
                     "n": pa.array(counts.astype(np.int64))})


def doc_bigram_partial_counts(batch: pa.Table,
                              column: str = "text") -> pa.Table:
    """(doc_id, left_tok, right_tok, occ) per-DOC bigram occurrence
    combiner — the bpe_pair shape keeping the doc dimension, feeding
    the bigram-LM scoring join. One composite factorize + np.unique
    per batch; a doc never splits across batches, so each (doc, pair)
    key appears in exactly one partial row."""
    ids = batch["doc_id"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    res = _flat_adjacent_pairs(batch, column)
    if res is None:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "left_tok": pa.array([], pa.string()),
                         "right_tok": pa.array([], pa.string()),
                         "occ": pa.array([], pa.int64())})
    codes, uniq, ok, doc_idx = res
    u = len(uniq)
    lc = codes[:-1][ok].astype(np.int64)
    rc = codes[1:][ok].astype(np.int64)
    dpos = doc_idx[:-1][ok]
    assert len(ids) * u * u < 2 ** 62, \
        "composite bigram code overflow: shrink batch size"
    key = (dpos * u + lc) * u + rc
    ukey, counts = np.unique(key, return_counts=True)
    pair = ukey % (u * u)
    return pa.table({
        "doc_id": pa.array(ids[(ukey // (u * u)).astype(np.int64)],
                           pa.int64()),
        "left_tok": pa.array(uniq[pair // u].astype(str)),
        "right_tok": pa.array(uniq[pair % u].astype(str)),
        "occ": pa.array(counts.astype(np.int64))})


# ----------------------------------------------------------------------
# curriculum binning (global rank → K quantile bins, no global sort)
# ----------------------------------------------------------------------
def length_bins_ds(docs: rd.Dataset, k_bins: int = 8) -> pd.DataFrame:
    """Exact K-quantile bins over the global (n_chars, doc_id) order:
    bin = rank0 * K // N, rank0 = position in the sorted order.

    Distributed WITHOUT a global sort: per-value counts (combiner +
    small groupby — the value domain is document lengths, config-
    sized) → driver cumulative offsets → broadcast → within-value
    rank assigned per `groupby(n_chars)` group. Output is the K-row
    bin summary (n_docs, min/max chars)."""
    def val_counts(batch: pa.Table) -> pa.Table:
        v = batch["n_chars"].to_numpy(zero_copy_only=False)
        u, c = np.unique(v, return_counts=True)
        return pa.table({"n_chars": pa.array(u.astype(np.int64)),
                         "cnt": pa.array(c.astype(np.int64))})

    counts = (docs.map_batches(val_counts, batch_format="pyarrow")
              .groupby("n_chars").sum("cnt").to_pandas()
              .sort_values("n_chars").reset_index(drop=True))
    total = int(counts["sum(cnt)"].sum())
    base = np.concatenate([[0], counts["sum(cnt)"].cumsum().to_numpy()[:-1]])
    base_of = dict(zip(counts["n_chars"].astype(int), base.astype(int)))
    base_ref = ray.put(base_of)

    def bin_group(g: pd.DataFrame) -> pd.DataFrame:
        b = ray.get(base_ref)
        v = int(g["n_chars"].iloc[0])
        ranks = b[v] + np.argsort(np.argsort(g["doc_id"].to_numpy()))
        bins = (ranks * k_bins) // total
        return (pd.DataFrame({"bin": bins.astype(np.int64),
                              "n_chars": g["n_chars"].to_numpy()})
                .groupby("bin", as_index=False)
                .agg(n_docs=("n_chars", "size"),
                     min_chars=("n_chars", "min"),
                     max_chars=("n_chars", "max")))

    parts = (docs.select_columns(["doc_id", "n_chars"])
             .groupby("n_chars").map_groups(bin_group, batch_format="pandas")
             .to_pandas())
    # final reduce over <= K x groups tiny partial rows (enum-keyed:
    # bin ids are 0..K-1)
    out = (parts.groupby("bin", as_index=False)
           .agg(n_docs=("n_docs", "sum"), min_chars=("min_chars", "min"),
                max_chars=("max_chars", "max"))
           .sort_values("bin").reset_index(drop=True))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


# ----------------------------------------------------------------------
# context-window chunking (fixed token windows with stride overlap)
# ----------------------------------------------------------------------
CHUNK_WINDOW, CHUNK_STRIDE = 64, 48


def chunk_batch(batch: pa.Table, window: int = CHUNK_WINDOW,
                stride: int = CHUNK_STRIDE,
                column: str = "text") -> pa.Table:
    """Explode each doc into fixed-size token windows: chunk i covers
    tokens [i*stride, min(i*stride + window, n)); docs with 0 tokens
    emit nothing. Output rows carry ``tokhash_sum`` — the wrapping
    uint64 sum of stable_hash64(token) over the chunk — so the gate
    pins chunk CONTENT, not just geometry.

    Fully vectorized: one whitespace split, factorize so only DISTINCT
    tokens pay the string hash, then a single wrap-around cumsum gives
    every chunk sum as two lookups (csum[end] - csum[start]).
    Embarrassingly parallel per doc — no shuffle; at 100 TB the
    chunks stream straight to partitioned parquet."""
    import pandas as pd

    from ..functions.hashing import stable_hash64_np

    stripped = pc.utf8_trim_whitespace(pc.fill_null(batch[column], ""))
    lists = split_ws(stripped)
    ndocs = len(lists)
    offs = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    raw_lens = np.diff(offs)
    empty = np.asarray(pc.equal(stripped, "").to_numpy(zero_copy_only=False))
    n = np.where(empty, 0, raw_lens)

    n_chunks = np.where(
        n > 0, (np.maximum(n - window, 0) + stride - 1) // stride + 1, 0)
    tot = int(n_chunks.sum())
    if tot == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "chunk_id": pa.array([], pa.int64()),
                         "start_tok": pa.array([], pa.int64()),
                         "n_tok": pa.array([], pa.int64()),
                         "tokhash_sum": pa.array([], pa.uint64())})

    flat = lists.flatten().to_numpy(zero_copy_only=False)
    codes, uniq = pd.factorize(flat)
    th = stable_hash64_np(uniq)[codes]
    csum = np.zeros(len(flat) + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        np.cumsum(th, out=csum[1:])

    doc_rep = np.repeat(np.arange(ndocs, dtype=np.int64), n_chunks)
    cum_prior = np.concatenate(([0], np.cumsum(n_chunks)[:-1]))
    chunk_id = np.arange(tot, dtype=np.int64) - np.repeat(cum_prior, n_chunks)
    start = chunk_id * stride
    end = np.minimum(start + window, n[doc_rep])
    base = offs[:-1][doc_rep]
    with np.errstate(over="ignore"):
        chsum = csum[base + end] - csum[base + start]

    ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    return pa.table({"doc_id": pa.array(ids[doc_rep], pa.int64()),
                     "chunk_id": pa.array(chunk_id),
                     "start_tok": pa.array(start),
                     "n_tok": pa.array((end - start).astype(np.int64)),
                     "tokhash_sum": pa.array(chsum, pa.uint64())})


# ----------------------------------------------------------------------
# deterministic global shuffle (training-output sharding)
# ----------------------------------------------------------------------
SHUF_SALT = 0x0D5E_ED5E_ED00_0003
N_SHUF_SHARDS = 32


def shuffle_shards_ds(docs: rd.Dataset,
                      num_shards: int = N_SHUF_SHARDS) -> rd.Dataset:
    """Deterministic global shuffle for training output: every doc
    gets shuffle_key = splitmix64(u64(doc_id) ^ SHUF_SALT); shard =
    key % num_shards, pos_in_shard = rank of (key, doc_id) within the
    shard. Equivalent to a seeded random_shuffle + reshard, but
    reproducible across engines and resumable per shard.

    Scale shape: shard assignment is one vectorized hash (zero
    shuffle); the rank needs only a PER-SHARD sort — num_shards
    independent per-shard sorts of ~N/num_shards keys each, never a
    global sort. Partitioning assumption: num_shards is a CONFIG that
    must scale with the corpus (pick ≈ corpus_rows / rows-per-shard
    so one shard's keys fit a worker; at 100 TB that is 10⁴-10⁵
    shards, not 32 — the default is sized for the driver gate). Each
    shard group then streams to its own parquet directory."""
    def assign(batch: pa.Table) -> pa.Table:
        key = row_hash(batch["doc_id"], SHUF_SALT)
        return pa.table({
            "doc_id": pc.cast(batch["doc_id"], pa.int64()),
            "shard": pa.array((key % np.uint64(num_shards)).astype(np.int64)),
            # bit-cast for the groupby exchange (uint64 keys fall back
            # to pickled objects in the sort path)
            "skey_i64": pa.array(key.view(np.int64)),
        })

    def rank_group(g: pd.DataFrame) -> pd.DataFrame:
        k = g["skey_i64"].to_numpy().view(np.uint64)
        ids = g["doc_id"].to_numpy()
        order = np.lexsort((ids, k))
        pos = np.empty(len(k), dtype=np.int64)
        pos[order] = np.arange(len(k), dtype=np.int64)
        return pd.DataFrame({
            "doc_id": ids, "shard": g["shard"].to_numpy(),
            "shuffle_key": pd.array(k, dtype="UInt64"),
            "pos_in_shard": pos})

    return map_buckets(docs.map_batches(assign, batch_format="pyarrow"),
                       "shard", rank_group, num_shards)


# deterministic per-group reservoir: keep the k docs with the
# smallest splitmix64(doc_id ^ SAMPLE_SALT) per group — a uniform
# k-sample per group that is reproducible across engines and runs
SAMPLE_SALT = 0x7E5A_3B1D_5A3E_0004
