"""Deduplication suite over the ``documents`` table.

The reference has NO dedup (duplicates allowed, SURVEY.md §2.8 R9);
these are the training-data-pipeline additions: exact, MinHash+LSH,
SimHash, n-gram Jaccard, and embedding-cosine near-dup.

Scale shape (the part that matters at 100 TB):
- exact: content-hash per batch (vectorized) → PARTIAL per-batch
  combine (one row per hash per batch) → the engine's keyed reduce
  (min id, summed counts) — the pre-aggregate-before-shuffle
  pattern, so the all-to-all exchange moves one row per distinct
  hash per batch, not per doc.
- MinHash/SimHash: sketches computed per batch with numpy; candidates
  via groupby on (band_id, band_hash) — the shuffle key is the band
  bucket, bounded by band width; verification is per-bucket pairwise
  (buckets are small by construction; hot buckets are capped and
  logged, not silently exploded).
- embedding: normalize per batch; random-hyperplane LSH bucket key →
  groupby → in-bucket pairwise cosine (exact brute-force path for
  small inputs).

Public algorithms: MinHash (Broder 1997), LSH banding (Mining of
Massive Datasets ch.3), SimHash (Charikar 2002).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..functions.bucketing import (aggregate, map_buckets, merge_partials_ray,
                                   shuffle_partitions, tag_bucket_fn)
from ..functions.hashing import md5_id, stable_hash64
from ..functions.tokenize import split_ws

_MERSENNE = (1 << 61) - 1


# ----------------------------------------------------------------------
# exact dedup
# ----------------------------------------------------------------------
def exact_dedup_groups(ds: rd.Dataset, id_column: str = "doc_id",
                       column: str = "text") -> rd.Dataset:
    """(content_hash, keep_doc_id, n_dups): first (min id) per content,
    merged in Ray (content hashes are a data-sized key set)."""

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table({"content_hash": pa.array(
            [md5_id(t or "") for t in batch[column].to_pylist()], pa.string()),
            "doc_id": batch[id_column]})

    return aggregate(ds, ["content_hash"], {"keep_doc_id": ("doc_id", "min"),
                                            "n_dups": ("doc_id", "count")},
                     prep, in_ray=True)


# ----------------------------------------------------------------------
# shingling + MinHash + LSH
# ----------------------------------------------------------------------
def _token_shingles(text: str, k: int = 3) -> np.ndarray:
    """k-token shingle hashes, vectorized: hash each token once
    (memoized — real corpora reuse tokens heavily), then mix k
    consecutive token hashes with multiply-xor chaining in wrapping
    uint64. ~20x cheaper than hashing each joined shingle string."""
    toks = (text or "").split()
    if len(toks) < k:
        return np.array([stable_hash64(" ".join(toks))], dtype=np.uint64)
    cache = _TOKEN_HASH_CACHE
    hs = np.empty(len(toks), dtype=np.uint64)
    for i, t in enumerate(toks):
        key = (t, -1)
        h = cache.get(key)
        if h is None:
            if len(cache) > 1_000_000:
                cache.clear()
            h = cache[key] = stable_hash64(t)
        hs[i] = h
    n = len(toks) - k + 1
    with np.errstate(over="ignore"):
        out = hs[:n].copy()
        for j in range(1, k):
            out *= np.uint64(0x9E3779B97F4A7C15)
            out ^= hs[j:n + j]
    return np.unique(out)


def _batch_token_shingles(texts: list[str], k: int = 3) -> list[np.ndarray]:
    """Batch form of _token_shingles with IDENTICAL hashes: factorize
    the whole batch's token stream once (C path), hash each DISTINCT
    token once, then chain per doc with two vector ops — replacing
    ~10^6 per-token dict lookups per batch with ~10^4 distinct-token
    hashes plus gathers."""
    tok_lists = [(t or "").split() for t in texts]
    flat = [t for toks in tok_lists for t in toks]
    if flat:
        codes, uniques = pd.factorize(np.asarray(flat, dtype=object))
        cache = _TOKEN_HASH_CACHE
        dh = np.empty(len(uniques), dtype=np.uint64)
        for i, t in enumerate(uniques):
            key = (t, -1)
            h = cache.get(key)
            if h is None:
                if len(cache) > 1_000_000:
                    cache.clear()
                h = cache[key] = stable_hash64(t)
            dh[i] = h
        hs_flat = dh[codes]
    else:
        hs_flat = np.empty(0, dtype=np.uint64)
    out: list[np.ndarray] = []
    pos = 0
    G = np.uint64(0x9E3779B97F4A7C15)
    for toks in tok_lists:
        m = len(toks)
        hs = hs_flat[pos:pos + m]
        pos += m
        if m < k:
            out.append(np.array([stable_hash64(" ".join(toks))],
                                dtype=np.uint64))
            continue
        n = m - k + 1
        with np.errstate(over="ignore"):
            acc = hs[:n].copy()
            for j in range(1, k):
                acc *= G
                acc ^= hs[j:n + j]
        out.append(np.unique(acc))
    return out


_CHAR_SHINGLE_W: dict[int, np.ndarray] = {}


def _char_shingles(text: str, k: int = 5) -> np.ndarray:
    """Character k-gram hashes, vectorized (sliding byte windows ×
    odd-constant weights in wrapping uint64 + xorshift mix)."""
    t = text or ""
    # strictly < k: a len==k text IS its single window, and must hash
    # with the window family — the whole-text stable_hash64 fallback
    # would put it in a different hash space than an identical k-gram
    # inside a longer doc (the string-level SQL oracle treats them as
    # equal, so the engine must too)
    if len(t) < k:
        return np.array([stable_hash64(t)], dtype=np.uint64)
    w = _CHAR_SHINGLE_W.get(k)
    if w is None:
        rng = np.random.default_rng(0x5819)
        w = rng.integers(0, 1 << 62, size=k, dtype=np.uint64) | np.uint64(1)
        _CHAR_SHINGLE_W[k] = w
    from numpy.lib.stride_tricks import sliding_window_view
    data = np.frombuffer(t.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    if data.size < k:
        return np.array([stable_hash64(t)], dtype=np.uint64)
    with np.errstate(over="ignore"):
        wins = sliding_window_view(data, k).astype(np.uint64)
        h = (wins * w[None, :]).sum(axis=1)
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(31)
    return np.unique(h)


def _minhash_params(num_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)
    return a, b


def minhash_band_rows(batch: pa.Table, *, bands: int = 16,
                      rows_per_band: int = 8, seed: int = 42,
                      shingle_k: int = 3, shingle_kind: str = "token",
                      column: str = "text",
                      id_column: str = "doc_id") -> pa.Table:
    """Batch stage: doc → LSH band rows (band_id, band_hash, doc_id).

    num_perm = bands × rows_per_band; the permutation params are two
    seeded draws, cheap enough to rebuild per batch, so the stage runs
    as plain tasks fused with the read.
    """
    ids = batch[id_column].to_pylist()
    texts = batch[column].to_pylist()
    n = len(ids)
    if n == 0:
        return pa.table({"band_id": pa.array([], pa.int32()),
                         "band_hash": pa.array([], pa.uint64()),
                         "doc_id": pa.array([], pa.string())})
    a, b = _minhash_params(bands * rows_per_band, seed)
    # one mixed-hash matrix over the batch's CONCATENATED shingles,
    # per-doc minima via minimum.reduceat — the per-doc Python work
    # is only the tokenization; the MinHash math runs once per batch
    shs = (_batch_token_shingles(texts, shingle_k)
           if shingle_kind == "token"
           else [_char_shingles(t, shingle_k) for t in texts])
    counts = np.fromiter((s.size for s in shs), dtype=np.int64, count=n)
    cat = np.concatenate(shs)
    with np.errstate(over="ignore"):
        h = cat[None, :] * a[:, None] + b[:, None]
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(33)
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    sigs = np.minimum.reduceat(h, offsets, axis=1).T  # (n, perms)
    # vectorized band hashing: fold each band's row values with the
    # multiply-xor chain (any deterministic equality-preserving
    # hash of the tuple works — band hashes only bucket rows; the
    # SQL oracle joins on the raw minima tuples, not this hash).
    # Replaces n x bands Python stable_hash64(bytes) calls.
    chunks = sigs.reshape(n, bands, rows_per_band)
    with np.errstate(over="ignore"):
        bh = chunks[:, :, 0].copy()
        for j in range(1, rows_per_band):
            bh *= np.uint64(0x9E3779B97F4A7C15)
            bh ^= chunks[:, :, j]
    band_ids = np.tile(np.arange(bands, dtype=np.int32), n)
    return pa.table({"band_id": pa.array(band_ids),
                     "band_hash": pa.array(bh.reshape(-1), pa.uint64()),
                     "doc_id": pa.array(np.repeat(np.asarray(ids, dtype=object),
                                                  bands))})


def _tag_bucket_partition(num_parts: int):
    """Batch fn: append ``part = hash(band_id, band_hash) % num_parts``
    — the coarse shuffle key that co-locates every row of an LSH bucket
    (same (band_id, band_hash)) in one partition while keeping the
    number of per-bucket Python calls at O(num_parts), not
    O(buckets). This is the partitioning assumption the distributed
    pairing relies on: bucket → exactly one partition. Delegates to
    the engine's single vectorized tagger (functions/bucketing)."""
    return tag_bucket_fn(["band_id", "band_hash"], num_parts, "part")


def lsh_candidate_pairs_ds(band_rows: rd.Dataset, *,
                           max_bucket: int | None = 64) -> rd.Dataset:
    """(band_id, band_hash) buckets with ≥2 docs → unordered candidate
    pairs, FULLY DISTRIBUTED.

    Shape: hash-partition band rows on the bucket key (twice
    ``shuffle_partitions()`` coarse partitions so the per-group Python
    cost is O(partitions), not O(buckets)) → build pairs inside
    ``map_buckets`` with a vectorized pandas groupby per partition,
    deduped WITHIN the partition. The driver never materializes
    bucket counts or band rows — only pair rows leave the cluster.
    Cross-partition duplicates (a pair found by several bands)
    remain: the stream is OUTPUT-sized, so the consumer dedupes it
    driver-side — a Ray
    groupby over a few hundred pairs costs a whole extra shuffle
    (measured ~2s) for nothing. Buckets larger than ``max_bucket``
    are truncated (hot-bucket cap: bound the worst-case pairwise
    work; at scale salt hot buckets, don't explode them);
    ``max_bucket=None`` disables the cap (exact "shared ≥1 bucket"
    semantics — the embedding path). Works for any hashable id dtype
    (string doc ids, int vec ids).
    """
    def pairs_in_partition(g: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for _, grp in g.groupby(["band_id", "band_hash"], sort=False):
            if len(grp) < 2:
                continue
            docs = np.array(sorted(set(grp["doc_id"])))[:max_bucket]
            if len(docs) < 2:
                continue
            iu, ju = np.triu_indices(len(docs), k=1)
            frames.append(pd.DataFrame({"a": docs[iu], "b": docs[ju]}))
        if not frames:
            return pd.DataFrame({"a": pd.Series([], dtype=g["doc_id"].dtype),
                                 "b": pd.Series([], dtype=g["doc_id"].dtype)})
        return pd.concat(frames, ignore_index=True).drop_duplicates()

    num_parts = 2 * shuffle_partitions()
    return map_buckets(band_rows.map_batches(_tag_bucket_partition(num_parts),
                                             batch_format="pyarrow"),
                       "part", pairs_in_partition, num_parts)


def verify_jaccard_ds(ds: rd.Dataset, cand_pairs: pd.DataFrame, *,
                      shingle_k: int = 3, kind: str = "token",
                      threshold: float = 0.5, column: str = "text",
                      id_column: str = "doc_id",
                      num_vbuckets: int = 64) -> pd.DataFrame:
    """Exact-Jaccard verification of candidate pairs, DISTRIBUTED.

    The candidate set is output-sized (small by construction); the
    corpus is not. Each pair is assigned a verification bucket; the
    docs table is semi-join-filtered to candidate ids (broadcast
    ``pc.is_in`` — O(pairs) driver memory, never O(corpus)) and each
    candidate text is routed to the buckets of the pairs that need it.
    Verification runs per-bucket inside ``map_buckets`` with a local
    shingle cache. No whole-corpus dict ever exists anywhere.
    """
    if cand_pairs.empty:
        return pd.DataFrame({"a": [], "b": [], "jaccard": [],
                             "jaccard_e6": []})
    ds = ds.select_columns([id_column, column])  # prune before the scan
    pairs = cand_pairs.sort_values(["a", "b"]).reset_index(drop=True)
    vb = np.fromiter((stable_hash64(a + "\x00" + b) % num_vbuckets
                      for a, b in zip(pairs["a"], pairs["b"])),
                     dtype=np.int64, count=len(pairs))
    doc_vb: dict[str, list[int]] = {}
    for a, b, v in zip(pairs["a"], pairs["b"], vb):
        doc_vb.setdefault(a, []).append(int(v))
        doc_vb.setdefault(b, []).append(int(v))
    for d in doc_vb:
        doc_vb[d] = sorted(set(doc_vb[d]))
    cand_arr = pa.array(sorted(doc_vb))
    route_ref = ray.put((cand_arr, doc_vb))

    def texts_to_buckets(batch: pa.Table) -> pa.Table:
        arr, routes = ray.get(route_ref)
        b = batch.filter(pc.is_in(batch[id_column], value_set=arr))
        vbs, ids, txts = [], [], []
        for i, t in zip(b[id_column].to_pylist(), b[column].to_pylist()):
            for v in routes.get(i, ()):
                vbs.append(v)
                ids.append(i)
                txts.append(t)
        return pa.table({"vbucket": pa.array(vbs, pa.int64()),
                         "role": pa.array(["t"] * len(vbs), pa.string()),
                         "a": pa.array(ids, pa.string()),
                         "b": pa.array([""] * len(vbs), pa.string()),
                         "text": pa.array(txts, pa.string())})

    text_rows = ds.map_batches(texts_to_buckets, batch_format="pyarrow")
    pair_rows = rd.from_arrow(pa.table({
        "vbucket": pa.array(vb, pa.int64()),
        "role": pa.array(["p"] * len(pairs), pa.string()),
        "a": pa.array(pairs["a"], pa.string()),
        "b": pa.array(pairs["b"], pa.string()),
        "text": pa.array([""] * len(pairs), pa.string())}))

    def verify_group(g: pd.DataFrame) -> pd.DataFrame:
        texts = dict(zip(g.loc[g["role"] == "t", "a"],
                         g.loc[g["role"] == "t", "text"]))
        cache: dict[str, np.ndarray] = {}

        def sh(doc):
            s = cache.get(doc)
            if s is None:
                t = texts.get(doc, "")
                s = cache[doc] = (_token_shingles(t, shingle_k)
                                  if kind == "token"
                                  else _char_shingles(t, shingle_k))
            return s

        rows = []
        p = g[g["role"] == "p"]
        for a, b in zip(p["a"], p["b"]):
            sa, sb = sh(a), sh(b)
            inter = np.intersect1d(sa, sb, assume_unique=True).size
            union = sa.size + sb.size - inter
            j = inter / union if union else 0.0
            if j >= threshold:
                # jaccard_e6 is the hash-gate column (exact integer,
                # cross-engine stable); the rounded float is for humans
                rows.append((a, b, round(j, 4),
                             inter * 1_000_000 // union if union else 0))
        return pd.DataFrame(rows, columns=["a", "b", "jaccard",
                                           "jaccard_e6"])

    out = map_buckets(text_rows.union(pair_rows), "vbucket", verify_group,
                      num_vbuckets).to_pandas()
    if out.empty:
        return pd.DataFrame({"a": [], "b": [], "jaccard": [],
                             "jaccard_e6": []})
    return out.sort_values(["a", "b"]).reset_index(drop=True)


def jaccard_exact_pairs_ds(ds: rd.Dataset, *, shingle_k: int = 3,
                           kind: str = "token",
                           threshold_e6: int = 500_000,
                           id_column: str = "doc_id",
                           column: str = "text",
                           metric: str = "jaccard",
                           max_df: int | None = None) -> rd.Dataset:
    """EXACT all-pairs n-gram Jaccard >= threshold, fully distributed
    (shingle inverted-index join; no LSH recall gap, no driver state).

    Shape: (1) explode each doc into (shingle-hash, id, n_shingles)
    rows partitioned by shingle hash — the inverted index; (2) per
    shingle-partition ``map_buckets`` emits one (a, b, na, nb) row per
    co-occurrence (each pair of docs sharing that shingle); (3)
    per-block partial count, then a bucketed Ray reduce sums
    co-occurrences into |A ∩ B| — the per-doc set sizes ride along in
    the pair key, so the final Jaccard needs NO join back to the
    corpus; (4) integer-units filter
    jaccard_e6 = 1e6 * inter // (na + nb - inter) >= threshold_e6
    (exact integer arithmetic — hash-gate stable, mirrored by a
    DuckDB shingle self-join oracle).

    Exactness costs what it costs: a shingle shared by m docs emits
    O(m^2) co-occurrence rows, so a document-frequency-skewed corpus
    (stopword shingles) grows quadratically — inherent to exact
    all-pairs semantics, not to this implementation. At 100 TB use
    the MinHash/LSH path (minhash_dedup_pairs); keep this operator
    for bounded-df corpora and as the exactness baseline.

    ``max_df`` bounds that quadratic explicitly (r04 verdict item 3):
    shingles whose document frequency exceeds ``max_df`` are dropped
    from candidate generation AND intersection counting, capping
    per-shingle pair emission at max_df·(max_df−1)/2 rows. Set sizes
    (the union denominator) stay FULL, so the reported score is the
    exact "df-bounded Jaccard" — a deterministic lower bound on true
    Jaccard, mirrored term-for-term in the DuckDB oracle (a HAVING
    count(*) <= max_df filter on the shingle self-join). df is
    computed part-locally, which IS global df: a shingle's partition
    is a pure function of its hash, so every occurrence lands in one
    part. This is the classic stopword-prefix bound from the
    All-Pairs/PPJoin family (Bayardo et al., WWW'07).
    """
    p = shuffle_partitions()
    num_parts = 2 * p

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch[id_column].to_pylist()
        texts = batch[column].to_pylist()
        shs = [(_token_shingles(t, shingle_k) if kind == "token"
                else _char_shingles(t, shingle_k)) for t in texts]
        counts = np.fromiter((s.size for s in shs), dtype=np.int64,
                             count=len(shs))
        sh = (np.concatenate(shs) if shs
              else np.array([], dtype=np.uint64))
        rid = np.repeat(np.arange(len(ids), dtype=np.int64), counts)
        id_arr = pc.take(batch[id_column].combine_chunks(),
                         pa.array(rid, pa.int64()))
        return pa.table({
            "part": pa.array((sh % np.uint64(num_parts)).astype(np.int64)),
            "shingle": pa.array(sh, pa.uint64()),
            id_column: id_arr,
            "n_sh": pa.array(counts[rid], pa.int64())})

    rows = ds.select_columns([id_column, column]).map_batches(
        explode, batch_format="pyarrow")

    def pairs_in_part(g: pd.DataFrame) -> pd.DataFrame:
        id_dtype = g[id_column].dtype
        # vectorized pre-filter: almost all shingles occur in ONE doc;
        # drop them before the per-group Python loop so the loop runs
        # only over genuinely shared shingles
        g = g[g["shingle"].duplicated(keep=False)]
        if max_df is not None and len(g):
            # df-bounded mode: drop hot shingles before pair emission
            # (part-local size == global df, see docstring)
            g = g[g.groupby("shingle")["shingle"].transform("size")
                  <= max_df]
        frames = []
        for _, grp in g.groupby("shingle", sort=False):
            if len(grp) < 2:
                continue
            # per-doc shingles are pre-deduped (np.unique), so each doc
            # appears once per shingle group
            order = np.argsort(grp[id_column].to_numpy())
            docs = grp[id_column].to_numpy()[order]
            ns = grp["n_sh"].to_numpy()[order]
            iu, ju = np.triu_indices(len(docs), k=1)
            frames.append(pd.DataFrame({"a": docs[iu], "b": docs[ju],
                                        "na": ns[iu], "nb": ns[ju]}))
        if not frames:
            return pd.DataFrame({"a": pd.Series([], dtype=id_dtype),
                                 "b": pd.Series([], dtype=id_dtype),
                                 "na": pd.Series([], dtype=np.int64),
                                 "nb": pd.Series([], dtype=np.int64)})
        return pd.concat(frames, ignore_index=True)

    co = map_buckets(rows, "part", pairs_in_part, num_parts)

    def combine(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["a", "b", "na", "nb"]).aggregate(
            [("na", "count")])
        return g.rename_columns(["a", "b", "na", "nb", "inter"])

    partials = co.map_batches(combine, batch_format="pyarrow")

    def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["a", "b", "na", "nb"], as_index=False)["inter"].sum()
        inter = out["inter"].to_numpy().astype(np.int64)
        if metric == "containment":
            # Broder containment: |A ∩ B| / min(|A|, |B|) — the
            # asymmetric resemblance that catches a doc EMBEDDED in a
            # larger one, which the symmetric union denominator dilutes
            denom = np.minimum(out["na"].to_numpy(),
                               out["nb"].to_numpy()).astype(np.int64)
            score_col = "containment_e6"
        else:
            denom = (out["na"].to_numpy() + out["nb"].to_numpy()
                     - inter).astype(np.int64)
            score_col = "jaccard_e6"
        score = inter * 1_000_000 // denom
        keep = score >= threshold_e6
        out = out[keep].drop(columns=["na", "nb"]).reset_index(drop=True)
        out[score_col] = score[keep]
        return out[["a", "b", "inter", score_col]]

    return map_buckets(partials, ["a", "b"], reduce_bucket, p)


def ppjoin_pairs_ds(ds: rd.Dataset, *, shingle_k: int = 3,
                    kind: str = "token",
                    threshold_e6: int = 500_000,
                    id_column: str = "doc_id",
                    column: str = "text") -> pd.DataFrame:
    """PREFIX-FILTERED exact set-similarity join (the All-Pairs /
    PPJoin plan, Bayardo et al. / Xiao et al.): same OUTPUT as
    ``jaccard_exact_pairs_ds`` — every pair with exact distinct-shingle
    Jaccard >= t — but candidates come only from PREFIX shingles, not
    every shared shingle. Each doc's shingles are globally ordered by
    (document frequency asc, shingle), and only the first
    n - ceil(t*n) + 1 enter the inverted index: if J(A,B) >= t, the
    order-minimal shared shingle provably lies in BOTH prefixes (the
    suffix holds ceil(t*n)-1 < |A∩B| shingles), so prefix-prefix
    candidate generation is complete; a size filter
    (1+t)*min(na,nb) >= t*(na+nb) drops pairs that cannot reach t.
    At sf0.01 this cuts candidate pairs ~15x vs the plain inverted
    index (772 vs 11,533 co-occurring pairs) — the scale path for
    exact-threshold dedup on df-skewed corpora, where hot (stopword)
    shingles never enter a prefix.

    Shape: explode distinct shingles (int64-bitcast hashes) → df
    combiner + shingle-bucketed merge → df attached back via a
    shingle-bucketed tagged-union join → per-doc prefix selection in a
    doc-bucketed pass → per-shingle pair emission with the size filter
    → pair-bucketed dedup. Exact |A∩B| verification routes each
    candidate doc's full shingle set to the pair-buckets that need it
    (the ``verify_jaccard_ds`` routing; candidate set is output-sized
    by construction and is the only driver-held state). Integer ids
    required (doc_id int64); threshold exact in e6 units.
    """
    p = shuffle_partitions()
    num_buckets = 2 * p
    t_num, t_den = threshold_e6, 1_000_000

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch[id_column].to_numpy(zero_copy_only=False)
        texts = batch[column].to_pylist()
        shs = [(_token_shingles(t, shingle_k) if kind == "token"
                else _char_shingles(t, shingle_k)) for t in texts]
        counts = np.fromiter((s.size for s in shs), dtype=np.int64,
                             count=len(shs))
        sh = (np.concatenate(shs) if shs
              else np.array([], dtype=np.uint64))
        rid = np.repeat(np.arange(len(ids), dtype=np.int64), counts)
        return pa.table({
            "shingle": pa.array(sh.view(np.int64), pa.int64()),
            id_column: pa.array(ids[rid].astype(np.int64), pa.int64()),
            "n_sh": pa.array(counts[rid], pa.int64())})

    rows = ds.select_columns([id_column, column]).map_batches(
        explode, batch_format="pyarrow")

    # --- document frequency per shingle (per-doc shingles are
    # pre-deduped, so a plain count is the df) ---
    def df_partial(batch: pa.Table) -> pa.Table:
        u, c = np.unique(batch["shingle"].to_numpy(zero_copy_only=False),
                         return_counts=True)
        return pa.table({"shingle": pa.array(u.astype(np.int64)),
                         "df": pa.array(c.astype(np.int64))})

    def df_reduce(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("shingle", as_index=False)["df"].sum()

    dfm = map_buckets(rows.map_batches(df_partial, batch_format="pyarrow"),
                      ["shingle"], df_reduce, num_buckets)

    # --- attach df to each (doc, shingle) row: tagged-union join ---
    def row_side(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({"shingle": batch["shingle"],
                         id_column: batch[id_column],
                         "n_sh": batch["n_sh"],
                         "df": pa.nulls(n, pa.int64()),
                         "side": pa.array(["r"] * n)})

    def df_side(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({"shingle": batch["shingle"],
                         id_column: pa.nulls(n, pa.int64()),
                         "n_sh": pa.nulls(n, pa.int64()),
                         "df": pc.cast(batch["df"], pa.int64()),
                         "side": pa.array(["d"] * n)})

    def attach_df(g: pd.DataFrame) -> pd.DataFrame:
        d = g[g["side"] == "d"]
        r = g[g["side"] == "r"].copy()
        lut = pd.Series(d["df"].to_numpy(), index=d["shingle"].to_numpy())
        r["df"] = r["shingle"].map(lut).astype("int64")
        for c in (id_column, "n_sh"):  # undo null-padding float drift
            r[c] = r[c].astype("int64")
        return r[["shingle", id_column, "n_sh", "df"]]

    rows_df = map_buckets(
        rows.map_batches(row_side, batch_format="pyarrow")
        .union(dfm.map_batches(df_side, batch_format="pyarrow")),
        ["shingle"], attach_df, num_buckets)

    # --- per-doc prefix selection ---
    def prefix_rows(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_column, "df", "shingle"]) \
             .reset_index(drop=True)
        pos = g.groupby(id_column, sort=False).cumcount().to_numpy()
        n = g["n_sh"].to_numpy().astype(np.int64)
        ceil_tn = -((-n * t_num) // t_den)
        keep = pos < (n - ceil_tn + 1)
        return g.loc[keep, ["shingle", id_column, "n_sh"]]

    pref = map_buckets(rows_df, [id_column], prefix_rows, num_buckets)

    # --- candidate pairs from prefix-shingle groups (+ size filter) ---
    def cand_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g["shingle"].duplicated(keep=False)]
        frames = []
        for _, grp in g.groupby("shingle", sort=False):
            if len(grp) < 2:
                continue
            order = np.argsort(grp[id_column].to_numpy())
            docs = grp[id_column].to_numpy()[order]
            ns = grp["n_sh"].to_numpy()[order]
            iu, ju = np.triu_indices(len(docs), k=1)
            na, nb = ns[iu], ns[ju]
            ok = ((t_den + t_num) * np.minimum(na, nb)
                  >= t_num * (na + nb))
            frames.append(pd.DataFrame({
                "a": docs[iu][ok], "b": docs[ju][ok],
                "na": na[ok], "nb": nb[ok]}))
        if not frames:
            return pd.DataFrame({"a": pd.Series([], dtype=np.int64),
                                 "b": pd.Series([], dtype=np.int64),
                                 "na": pd.Series([], dtype=np.int64),
                                 "nb": pd.Series([], dtype=np.int64)})
        return (pd.concat(frames, ignore_index=True)
                .drop_duplicates(["a", "b"]))

    def cand_dedup(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["a", "b"])[["a", "b", "na", "nb"]]

    cand = map_buckets(map_buckets(pref, ["shingle"], cand_in_bucket,
                                   num_buckets),
                       ["a", "b"], cand_dedup, num_buckets).to_pandas()
    if cand.empty:
        return pd.DataFrame({"a": pd.Series([], dtype=np.int64),
                             "b": pd.Series([], dtype=np.int64),
                             "inter": pd.Series([], dtype=np.int64),
                             "jaccard_e6": pd.Series([], dtype=np.int64)})

    # --- exact verification: route candidate docs' full shingle sets
    # to the pair-buckets that need them (candidate set is
    # output-sized; the only driver-held state) ---
    G = np.uint64(0x9E3779B97F4A7C15)
    a_arr = cand["a"].to_numpy().astype(np.int64)
    b_arr = cand["b"].to_numpy().astype(np.int64)
    vb = ((a_arr.astype(np.uint64) * G) ^ b_arr.astype(np.uint64)) \
        % np.uint64(num_buckets)
    doc_vb: dict[int, set] = {}
    pairs_by_vb: dict[int, list] = {}
    for a, b, v in zip(a_arr.tolist(), b_arr.tolist(), vb.tolist()):
        v = int(v)
        doc_vb.setdefault(a, set()).add(v)
        doc_vb.setdefault(b, set()).add(v)
        pairs_by_vb.setdefault(v, []).append((a, b))
    cand_ids = pa.array(sorted(doc_vb), pa.int64())
    route_ref = ray.put((cand_ids, {d: sorted(vs)
                                    for d, vs in doc_vb.items()},
                         pairs_by_vb))

    def route(batch: pa.Table) -> pa.Table:
        ids_arr, routes, _ = ray.get(route_ref)
        b = batch.filter(pc.is_in(batch[id_column], value_set=ids_arr))
        ids = b[id_column].to_numpy(zero_copy_only=False)
        shs = b["shingle"].to_numpy(zero_copy_only=False)
        vbs, oid, osh = [], [], []
        # routes per doc are few (its pair count); loop is
        # candidate-sized, not corpus-sized
        uid, inv = np.unique(ids, return_inverse=True)
        for k, d in enumerate(uid.tolist()):
            mask = inv == k
            for v in routes.get(int(d), ()):
                vbs.append(np.full(int(mask.sum()), v, dtype=np.int64))
                oid.append(ids[mask])
                osh.append(shs[mask])
        if not vbs:
            return pa.table({"vb": pa.array([], pa.int64()),
                             id_column: pa.array([], pa.int64()),
                             "shingle": pa.array([], pa.int64())})
        return pa.table({"vb": pa.array(np.concatenate(vbs)),
                         id_column: pa.array(np.concatenate(oid)),
                         "shingle": pa.array(np.concatenate(osh))})

    def verify_bucket(g: pd.DataFrame) -> pd.DataFrame:
        _, _, pairs_map = ray.get(route_ref)
        v = int(g["vb"].iloc[0])
        sets = {int(d): grp["shingle"].to_numpy()
                for d, grp in g.groupby(id_column, sort=False)}
        out = []
        for a, b in pairs_map.get(v, ()):
            sa, sb = sets.get(a), sets.get(b)
            if sa is None or sb is None:
                continue
            inter = np.intersect1d(sa, sb, assume_unique=True).size
            union = sa.size + sb.size - inter
            jac = inter * 1_000_000 // union
            if jac >= threshold_e6:
                out.append((a, b, inter, jac))
        return pd.DataFrame(out, columns=["a", "b", "inter",
                                          "jaccard_e6"]) \
            .astype("int64")

    verified = map_buckets(rows.map_batches(route, batch_format="pyarrow"),
                           "vb", verify_bucket, num_buckets).to_pandas()
    if verified.empty:
        return pd.DataFrame({"a": pd.Series([], dtype=np.int64),
                             "b": pd.Series([], dtype=np.int64),
                             "inter": pd.Series([], dtype=np.int64),
                             "jaccard_e6": pd.Series([], dtype=np.int64)})
    for c in verified.columns:
        verified[c] = verified[c].astype("int64")
    return verified.sort_values(["a", "b"]).reset_index(drop=True)


def minhash_dedup_pairs(ds: rd.Dataset, *, bands: int = 16, rows_per_band: int = 8,
                        seed: int = 42, shingle_k: int = 3, kind: str = "token",
                        threshold: float = 0.5, column: str = "text",
                        id_column: str = "doc_id",
                        max_bucket: int | None = 64) -> pd.DataFrame:
    """Full MinHash-LSH near-dup pipeline → verified pairs DataFrame.

    shingle → minhash → band rows (``minhash_band_rows`` tasks) →
    distributed bucket pairing (``lsh_candidate_pairs_ds``) →
    distributed exact-Jaccard verification (``verify_jaccard_ds``).
    Only the final pair set is driver-side; everything corpus-sized
    stays in the cluster.
    """
    band_rows = ds.map_batches(
        minhash_band_rows,
        fn_kwargs=dict(bands=bands, rows_per_band=rows_per_band, seed=seed,
                       shingle_k=shingle_k, shingle_kind=kind, column=column,
                       id_column=id_column),
        batch_format="pyarrow",
        # small batches: the shingling stage is the CPU-heavy part and
        # the default 1024-row batches leave most of the CPUs idle on
        # 5k-row inputs
        batch_size=128)
    cands = (lsh_candidate_pairs_ds(band_rows, max_bucket=max_bucket)
             .to_pandas()
             .drop_duplicates(["a", "b"]))   # cross-band dup collapse
    if cands.empty:
        return pd.DataFrame({"a": [], "b": [], "jaccard": [],
                             "jaccard_e6": []})
    return verify_jaccard_ds(ds, cands, shingle_k=shingle_k, kind=kind,
                             threshold=threshold, column=column,
                             id_column=id_column)


def minhash_dedup_remove(ds: rd.Dataset, *, bands: int = 16,
                         rows_per_band: int = 8, seed: int = 42,
                         shingle_k: int = 3, kind: str = "token",
                         threshold: float = 0.5, column: str = "text",
                         id_column: str = "doc_id",
                         max_bucket: int | None = 64) -> rd.Dataset:
    """End-to-end near-dup REMOVAL: verified pairs → connected
    components (union-find over the output-sized edge list, smallest
    id is each cluster's representative) → distributed ANTI-join drops
    every non-representative from the corpus. The returned Dataset is
    the deduplicated corpus; only the pair list and the drop-id set
    (both output-sized) ever live on the driver."""
    from .joins import bucketed_anti_join, union_find_components
    pairs = minhash_dedup_pairs(ds, bands=bands, rows_per_band=rows_per_band,
                                seed=seed, shingle_k=shingle_k, kind=kind,
                                threshold=threshold, column=column,
                                id_column=id_column, max_bucket=max_bucket)
    if pairs.empty:
        return ds
    roots = union_find_components(zip(pairs["a"], pairs["b"]))
    drop = sorted(x for x, r in roots.items() if x != r)
    drop_ds = rd.from_arrow(pa.table({id_column: pa.array(drop, pa.string())}))
    return bucketed_anti_join(ds, drop_ds, on=id_column)


# ----------------------------------------------------------------------
# SimHash
# ----------------------------------------------------------------------
_TOKEN_HASH_CACHE: dict[tuple[str, int], int] = {}
_BIT_POS = np.arange(64, dtype=np.uint64)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (SWAR bit-twiddling) for hamming
    distances over simhash signatures."""
    x = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x -= (x >> np.uint64(1)) & np.uint64(0x5555555555555555)
        x = (x & np.uint64(0x3333333333333333)) + \
            ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
        x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        x = (x * np.uint64(0x0101010101010101)) >> np.uint64(56)
    return x.astype(np.int64)


def simhash64(text: str, seed: int = 42) -> int:
    """64-bit SimHash over whitespace tokens.

    Weighted-distinct form (exactly equal to summing per token): hash
    each DISTINCT token once (memoized — real corpora have
    heavy-tailed token reuse), expand to a (ndistinct, 64) bit matrix,
    and take count-weighted signed column sums. Cuts both the memo
    lookups and the bit-matrix rows from O(tokens) to O(distinct
    tokens) — measured ~3x on the ingest hot path."""
    toks = (text or "").split()
    if not toks:
        return 0
    from collections import Counter
    counts = Counter(toks)        # C-accelerated distinct counting
    cache = _TOKEN_HASH_CACHE
    n = len(counts)
    hs = np.empty(n, dtype=np.uint64)
    w = np.empty(n, dtype=np.int64)
    for i, (t, c) in enumerate(counts.items()):
        key = (t, seed)
        h = cache.get(key)
        if h is None:
            if len(cache) > 1_000_000:  # bound memory per worker
                cache.clear()
            h = cache[key] = stable_hash64(t, seed)
        hs[i] = h
        w[i] = c
    bits = ((hs[:, None] >> _BIT_POS[None, :]) & np.uint64(1)).astype(np.int64)
    # Σ_tokens (2*bit - 1) == Σ_distinct count * (2*bit - 1)
    acc = (w[:, None] * bits).sum(axis=0) * 2 - len(toks)
    return int(((acc > 0).astype(np.uint64) << _BIT_POS).sum())


def simhash64_batch(texts, seed: int = 42) -> np.ndarray:
    """Batch SimHash, bit-identical to ``simhash64`` per text: ONE
    whitespace split over the whole batch (byte-identical to str.split
    for ASCII), ONE factorize of the flat token stream,
    ``stable_hash64`` once per batch-distinct token (through the same
    memo cache), then a contiguous ``np.add.reduceat`` over per-doc
    token runs for the signed column sums — no per-doc Python loop.
    Measured ~6x over the per-doc memoized form on the fetch ingest
    path (the simhash was 43% of per-URL CPU).

    ``texts`` is a pyarrow string Array/ChunkedArray or a list[str].
    Returns uint64 signatures (0 for empty/whitespace-only docs)."""
    if not isinstance(texts, (pa.Array, pa.ChunkedArray)):
        texts = pa.array([t or "" for t in texts], pa.string())
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    ndocs = len(texts)
    if ndocs == 0:
        return np.empty(0, dtype=np.uint64)
    import pyarrow.compute as _pc
    stripped = _pc.utf8_trim_whitespace(_pc.fill_null(texts, ""))
    lists = split_ws(stripped)
    raw_lens = np.diff(lists.offsets.to_numpy(zero_copy_only=False)
                       .astype(np.int64))
    empty = np.asarray(_pc.equal(stripped, "")
                       .to_numpy(zero_copy_only=False))
    flat_arr = lists.flatten()
    lens = np.where(empty, 0, raw_lens)     # '' phantom token rows
    if empty.any():
        flat_arr = flat_arr.filter(pa.array(~np.repeat(empty, raw_lens)))
    sigs = np.zeros(ndocs, dtype=np.uint64)
    if not len(flat_arr):
        return sigs
    # Arrow C dictionary-encode instead of a numpy-object factorize:
    # the flat token stream never becomes Python objects — only the
    # (tiny) distinct dictionary does
    enc = _pc.dictionary_encode(flat_arr)
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64,
                                                              copy=False)
    uniq = enc.dictionary.to_pylist()
    cache = _TOKEN_HASH_CACHE
    nuniq = len(uniq)
    if nuniq > 65536:
        # vocabulary-heavy batch: the dense doc x token count matrix
        # below would not fit; the memoized per-doc form is the right
        # shape there (distinct-per-doc stays small)
        import pyarrow.compute as _pc2
        return np.fromiter((simhash64(t, seed)
                            for t in stripped.to_pylist()),
                           dtype=np.uint64, count=ndocs)
    hs = np.empty(nuniq, dtype=np.uint64)
    for i, t in enumerate(uniq):
        key = (t, seed)
        h = cache.get(key)
        if h is None:
            if len(cache) > 1_000_000:      # bound memory per worker
                cache.clear()
            h = cache[key] = stable_hash64(t, seed)
        hs[i] = h
    # signed bit matrix (nuniq, 64) once per batch; per-doc token
    # counts via ONE bincount over a composite (doc, code) index; the
    # signed column sums are then a single BLAS matmul. Exact: counts
    # and their +/-1-weighted sums are small integers, far inside
    # float64's 2^53 — same acc values as the per-doc form.
    bits_pm = (((hs[:, None] >> _BIT_POS[None, :]) & np.uint64(1))
               .astype(np.float64) * 2.0 - 1.0)
    nz = np.flatnonzero(lens)
    doc_local = np.repeat(np.arange(len(nz), dtype=np.int64), lens[nz])
    sig_nz = np.zeros(len(nz), dtype=np.uint64)
    # chunk the doc axis so W stays < ~64 MB whatever the batch shape
    chunk = max(1, (1 << 23) // max(nuniq, 1))
    for lo in range(0, len(nz), chunk):
        hi = min(lo + chunk, len(nz))
        tlo = np.searchsorted(doc_local, lo)
        thi = np.searchsorted(doc_local, hi)
        comp = (doc_local[tlo:thi] - lo) * nuniq + codes[tlo:thi]
        W = np.bincount(comp, minlength=(hi - lo) * nuniq) \
            .reshape(hi - lo, nuniq).astype(np.float64)
        acc = W @ bits_pm                   # Σ count * (2*bit - 1)
        sig_nz[lo:hi] = ((acc > 0).astype(np.uint64)
                         << _BIT_POS[None, :]).sum(axis=1, dtype=np.uint64)
    sigs[nz] = sig_nz
    return sigs


def simhash_batch(batch: pa.Table, seed: int = 42, column: str = "text",
                  id_column: str = "doc_id") -> pa.Table:
    sigs = simhash64_batch(batch[column], seed)
    return pa.table({id_column: batch[id_column],
                     "simhash": pa.array(sigs, pa.uint64())})


def simhash_near_pairs(ds: rd.Dataset, *, seed: int = 42, max_hamming: int = 3,
                       column: str = "text", id_column: str = "doc_id") -> pd.DataFrame:
    """Near-dup pairs with hamming(simhash) ≤ k, COMPLETE by
    construction: block LSH with k+1 contiguous bit blocks
    (pigeonhole: ≤ k differing bits across k+1 blocks ⇒ at least one
    block identical), so the output is EXACTLY the ≤-k pair set — no
    recall gap at any threshold, which is what lets the DuckDB
    bit_count self-join serve as the hash-gate oracle."""
    sig_ds = ds.map_batches(simhash_batch, fn_kwargs={"seed": seed, "column": column,
                                                      "id_column": id_column},
                            batch_format="pyarrow")

    n_blocks = max_hamming + 1
    widths = [64 // n_blocks + (1 if i < 64 % n_blocks else 0)
              for i in range(n_blocks)]
    starts = np.cumsum([0] + widths[:-1])

    def explode_blocks(batch: pa.Table) -> pa.Table:
        ids = batch[id_column].to_pylist()
        sigs = np.array(batch["simhash"].to_pylist(), dtype=np.uint64)
        n = len(ids)
        b_id = np.repeat(np.arange(n_blocks, dtype=np.int32), n)
        keys = np.concatenate([
            (sigs >> np.uint64(st)) & np.uint64((1 << w) - 1)
            for st, w in zip(starts, widths)]) if n else np.array([], np.uint64)
        return pa.table({"band_id": pa.array(b_id),
                         "band_hash": pa.array(keys, pa.uint64()),
                         "doc_id": pa.array(ids * n_blocks, pa.string()),
                         "simhash": pa.array(np.tile(sigs, n_blocks),
                                             pa.uint64())})

    blocks = sig_ds.map_batches(explode_blocks, batch_format="pyarrow")

    # distributed bucket pairing (same shape as lsh_candidate_pairs_ds):
    # coarse-partition on the block key, vectorized pairwise hamming
    # inside map_buckets; cross-block pair dedup happens driver-side on
    # the OUTPUT-sized pair stream — nothing corpus-sized touches the
    # driver
    def pairs_in_partition(g: pd.DataFrame) -> pd.DataFrame:
        rows_a, rows_b, rows_h = [], [], []
        for _, grp in g.groupby(["band_id", "band_hash"], sort=False):
            if len(grp) < 2:
                continue
            gg = grp.drop_duplicates("doc_id").sort_values("doc_id")
            docs = gg["doc_id"].tolist()
            sigs = gg["simhash"].to_numpy().astype(np.uint64)
            n = len(docs)
            if n < 2:
                continue
            ham = _popcount64(sigs[:, None] ^ sigs[None, :])
            iu, ju = np.triu_indices(n, k=1)
            ok = ham[iu, ju] <= max_hamming
            for i, j, h in zip(iu[ok], ju[ok], ham[iu, ju][ok]):
                rows_a.append(docs[i])
                rows_b.append(docs[j])
                rows_h.append(int(h))
        return pd.DataFrame({"a": pd.Series(rows_a, dtype=object),
                             "b": pd.Series(rows_b, dtype=object),
                             "hamming": pd.Series(rows_h, dtype="int64")})

    pdf = map_buckets(blocks.map_batches(_tag_bucket_partition(64),
                                         batch_format="pyarrow"),
                      "part", pairs_in_partition, 64).to_pandas()
    if pdf.empty:
        return pd.DataFrame({"a": [], "b": [], "hamming": []})
    # a pair found via several blocks has the SAME hamming everywhere —
    # plain drop_duplicates on the output-sized stream
    pdf = pdf.drop_duplicates(["a", "b"])
    pdf["hamming"] = pdf["hamming"].astype("int64")
    return pdf.sort_values(["a", "b"]).reset_index(drop=True)


# ----------------------------------------------------------------------
# embedding near-dup
# ----------------------------------------------------------------------
def embedding_near_dup_pairs(ds: rd.Dataset, *, threshold: float = 0.95,
                             lsh_bits: int = 0, tables: int = 1,
                             seed: int = 42,
                             id_column: str = "vec_id",
                             column: str = "embedding") -> pd.DataFrame:
    """Pairs with cosine ≥ threshold.

    lsh_bits=0 → exact brute-force (verification oracle / tiny
    inputs ONLY: whole-table n² — never the registered path);
    lsh_bits>0 → multi-table random-hyperplane LSH, the scale path:
    each vector emits one (table_id, bucket) row per table; shuffle
    key = bucket, exact pairwise cosine only in-bucket inside
    ``map_buckets``, cross-table pair dedup via a Ray groupby. Recall
    for a pair at angle θ is 1-(1-(1-θ/π)^bits)^tables (Charikar 2002
    hyperplane LSH; tune bits↑ for tighter thresholds, tables↑ for
    recall). The driver only ever holds the final pair set.
    """
    def normalize(batch: pa.Table) -> pa.Table:
        mat = np.asarray(batch[column].to_pylist(), dtype=np.float64)
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        mat = mat / norms
        return pa.table({id_column: batch[id_column],
                         "nvec": pa.array(list(mat), pa.list_(pa.float64()))})

    norm_ds = ds.map_batches(normalize, batch_format="pyarrow")

    if lsh_bits <= 0:
        pdf = norm_ds.to_pandas()
        ids = pdf[id_column].to_numpy()
        mat = np.stack(pdf["nvec"].to_numpy())
        sims = mat @ mat.T
        iu, ju = np.triu_indices(len(ids), k=1)
        mask = sims[iu, ju] >= threshold
        out = pd.DataFrame({"a": ids[iu[mask]], "b": ids[ju[mask]],
                            "cosine": np.round(sims[iu, ju][mask], 4)})
        return out.sort_values(["a", "b"]).reset_index(drop=True)

    rng = np.random.default_rng(seed)
    dim = len(ds.take(1)[0][column])
    planes = rng.standard_normal((tables, dim, lsh_bits))
    planes_ref = ray.put(planes)
    weights = (1 << np.arange(lsh_bits)).astype(np.int64)

    def bucketize(batch: pa.Table) -> pa.Table:
        # one (band_id=table, band_hash=bucket, id) row per vector per
        # table — IDS ONLY: the vectors themselves are NOT replicated
        # tables× through the shuffle (that would be a tables× exchange
        # amplification at 100 TB); they are semi-joined into the
        # verification buckets afterwards, once per needed pair bucket.
        pl = ray.get(planes_ref)
        mat = np.stack([np.asarray(v) for v in batch["nvec"].to_pylist()])
        n = mat.shape[0]
        tids, keys = [], []
        for t in range(pl.shape[0]):
            bits = (mat @ pl[t]) > 0
            keys.append((bits * weights).sum(axis=1).astype(np.uint64))
            tids.append(np.full(n, t, dtype=np.int64))
        reps = pl.shape[0]
        return pa.table({
            "band_id": pa.array(np.concatenate(tids)),
            "band_hash": pa.array(np.concatenate(keys), pa.uint64()),
            "doc_id": pa.concat_arrays(
                [batch[id_column].combine_chunks()] * reps)})

    bucket_rows = norm_ds.map_batches(bucketize, batch_format="pyarrow")
    # distributed candidate pairing over id-only rows (the minhash
    # shape); max_bucket=None — no hot-bucket truncation, so the pair
    # set is exactly "shared ≥1 LSH bucket" (raise lsh_bits, not the
    # cap, when buckets run hot at scale)
    cands = (lsh_candidate_pairs_ds(bucket_rows, max_bucket=None)
             .to_pandas().drop_duplicates(["a", "b"]))
    if cands.empty:
        return pd.DataFrame({"a": [], "b": [], "cosine": []})
    return verify_cosine_ds(norm_ds, cands, threshold=threshold,
                            id_column=id_column)


def verify_cosine_ds(norm_ds: rd.Dataset, cand_pairs: pd.DataFrame, *,
                     threshold: float, id_column: str = "vec_id",
                     num_vbuckets: int = 64) -> pd.DataFrame:
    """Exact-cosine verification of candidate id pairs, DISTRIBUTED —
    the embedding twin of ``verify_jaccard_ds``: each pair is assigned
    a verification bucket; the (normalized) vector table is
    semi-join-filtered to candidate ids with a broadcast ``pc.is_in``
    (O(pairs) driver memory) and each candidate vector is routed ONCE
    to each bucket of the pairs that need it — exchange volume is
    O(candidate-touched vectors), never O(corpus × tables)."""
    pairs = cand_pairs.sort_values(["a", "b"]).reset_index(drop=True)
    sch = norm_ds.schema()
    id_type = dict(zip(sch.names, sch.types))[id_column]
    vb = np.fromiter(
        (stable_hash64(f"{a}\x00{b}") % num_vbuckets
         for a, b in zip(pairs["a"], pairs["b"])),
        dtype=np.int64, count=len(pairs))
    vec_vb: dict = {}
    for a, b, v in zip(pairs["a"], pairs["b"], vb):
        vec_vb.setdefault(a, []).append(int(v))
        vec_vb.setdefault(b, []).append(int(v))
    for d in vec_vb:
        vec_vb[d] = sorted(set(vec_vb[d]))
    cand_arr = pa.array(sorted(vec_vb), id_type)
    route_ref = ray.put((cand_arr, vec_vb))

    def vectors_to_buckets(batch: pa.Table) -> pa.Table:
        arr, routes = ray.get(route_ref)
        b = batch.filter(pc.is_in(batch[id_column], value_set=arr))
        vbs, ids, vecs = [], [], []
        for i, vec in zip(b[id_column].to_pylist(), b["nvec"].to_pylist()):
            for v in routes.get(i, ()):
                vbs.append(v)
                ids.append(i)
                vecs.append(vec)
        return pa.table({"vbucket": pa.array(vbs, pa.int64()),
                         "role": pa.array(["v"] * len(vbs), pa.string()),
                         "a": pa.array(ids, id_type),
                         "b": pa.array(ids, id_type),   # unused for role=v
                         "nvec": pa.array(vecs, pa.list_(pa.float64()))})

    vec_rows = norm_ds.map_batches(vectors_to_buckets, batch_format="pyarrow")
    pair_rows = rd.from_arrow(pa.table({
        "vbucket": pa.array(vb, pa.int64()),
        "role": pa.array(["p"] * len(pairs), pa.string()),
        "a": pa.array(pairs["a"], id_type),
        "b": pa.array(pairs["b"], id_type),
        "nvec": pa.array([[]] * len(pairs), pa.list_(pa.float64()))}))

    def verify_group(g: pd.DataFrame) -> pd.DataFrame:
        vrows = g[g["role"] == "v"].drop_duplicates("a")
        vecs = {i: np.asarray(v) for i, v in zip(vrows["a"], vrows["nvec"])}
        p = g[g["role"] == "p"]
        if p.empty:
            return pd.DataFrame({"a": pd.Series([], dtype=vrows["a"].dtype),
                                 "b": pd.Series([], dtype=vrows["a"].dtype),
                                 "cosine": pd.Series([], dtype="float64")})
        av = np.stack([vecs[x] for x in p["a"]])
        bv = np.stack([vecs[x] for x in p["b"]])
        sims = np.einsum("ij,ij->i", av, bv)
        mask = sims >= threshold
        return pd.DataFrame({"a": p["a"].to_numpy()[mask],
                             "b": p["b"].to_numpy()[mask],
                             "cosine": np.round(sims[mask], 4)})

    out = map_buckets(vec_rows.union(pair_rows), "vbucket", verify_group,
                      num_vbuckets).to_pandas()
    if out.empty:
        return pd.DataFrame({"a": [], "b": [], "cosine": []})
    return out.sort_values(["a", "b"]).reset_index(drop=True)


# ----------------------------------------------------------------------
# substring-level duplicate windows (Lee et al. 2022, "Deduplicating
# Training Data Makes Language Models Better" — rolling-hash
# approximation of suffix-array substring dedup at fixed token width)
# ----------------------------------------------------------------------

RK_WINDOW = 16
RK_P = 0x100000001B3                      # FNV prime; odd => invertible mod 2^64
_RK_PINV = pow(RK_P, -1, 1 << 64)


def window_hash_batch(batch: pa.Table, window: int = RK_WINDOW,
                      column: str = "text",
                      emit_pos: bool = False) -> pa.Table:
    """(doc_id, whash) for EVERY token window of width ``window`` —
    stride 1, so duplicated substrings are found at ANY alignment.
    whash is the positional Rabin-Karp hash
    sum_j th[i+j] * P^(window-1-j) mod 2^64 over stable_hash64 token
    hashes, computed with the rolling O(1)-per-window trick: P is odd
    hence invertible mod 2^64, so B_k = th_k * Pinv^k prefix-sums once
    and every window is two lookups and one multiply. One whitespace split,
    factorize so only DISTINCT tokens pay the string hash; fully
    vectorized; embarrassingly parallel per doc."""
    import pandas as pd

    from ..functions.hashing import stable_hash64_np

    stripped = pc.utf8_trim_whitespace(pc.fill_null(batch[column], ""))
    lists = split_ws(stripped)
    ndocs = len(lists)
    offs = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    raw_lens = np.diff(offs)
    empty = np.asarray(pc.equal(stripped, "").to_numpy(zero_copy_only=False))
    n = np.where(empty, 0, raw_lens)
    n_win = np.maximum(n - window + 1, 0)
    tot = int(n_win.sum())
    if tot == 0:
        out = {"doc_id": pa.array([], batch["doc_id"].type),
               "whash": pa.array([], pa.int64())}
        if emit_pos:
            out["pos"] = pa.array([], pa.int64())
        return pa.table(out)

    flat = lists.flatten().to_numpy(zero_copy_only=False)
    codes, uniq = pd.factorize(flat)
    th = stable_hash64_np(uniq)[codes]
    total_toks = th.size
    local = np.arange(total_toks, dtype=np.int64) \
        - np.repeat(offs[:-1], raw_lens)
    max_n = int(raw_lens.max())
    with np.errstate(over="ignore"):
        pw = np.empty(max_n + 1, np.uint64)
        pw[0] = 1
        np.multiply.accumulate(np.full(max_n, RK_P, np.uint64), out=pw[1:])
        pvi = np.empty(max_n + 1, np.uint64)
        pvi[0] = 1
        np.multiply.accumulate(np.full(max_n, _RK_PINV, np.uint64),
                               out=pvi[1:])
        b = th * pvi[local]
        s = np.zeros(total_toks + 1, np.uint64)
        np.cumsum(b, out=s[1:])
        doc_for_win = np.repeat(np.arange(ndocs), n_win)
        base = np.repeat(offs[:-1], n_win)
        within = np.arange(tot, dtype=np.int64) \
            - np.repeat(np.cumsum(n_win) - n_win, n_win)
        gstart = base + within
        whash = (s[gstart + window] - s[gstart]) * pw[within + window - 1]
    # bit-cast to int64: whash is engine-internal (the query outputs
    # only counts) and an int64 view avoids uint64>=2^63 promotion
    # failures in Ray block concat / pandas group reduces
    out = {"doc_id": batch["doc_id"].take(pa.array(doc_for_win, pa.int64())),
           "whash": pa.array(whash.view(np.int64), pa.int64())}
    if emit_pos:
        out["pos"] = pa.array(within, pa.int64())  # 0-based window start
    return pa.table(out)


def window_totals_batch(batch: pa.Table, window: int = RK_WINDOW,
                        column: str = "text") -> pa.Table:
    """One row per doc: total window count (and a zero dup column, so
    totals union dup-partials and merge in one bucketed reduce)."""
    stripped = pc.utf8_trim_whitespace(pc.fill_null(batch[column], ""))
    lists = split_ws(stripped)
    offs = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    raw_lens = np.diff(offs)
    empty = np.asarray(pc.equal(stripped, "").to_numpy(zero_copy_only=False))
    n = np.where(empty, 0, raw_lens)
    n_win = np.maximum(n - window + 1, 0)
    return pa.table({"doc_id": batch["doc_id"],
                     "n_windows": pa.array(n_win, pa.int64()),
                     "n_dup_windows": pa.nulls(len(n_win), pa.int64())
                     .fill_null(0)})


def dup_window_stats(ds: rd.Dataset, *, window: int = RK_WINDOW,
                     column: str = "text") -> rd.Dataset:
    """Per-doc duplicated-substring stats: (doc_id, n_windows,
    n_dup_windows) where a window is DUP if its hash occurs in >= 2
    distinct docs corpus-wide.

    Scale shape: the exchange carries one (doc_id, whash) row per
    token (the honest cost of substring-level dedup — suffix-array
    approaches pay the same O(total tokens)); map-side (whash, doc)
    dedup shrinks repeated windows before the shuffle; the hot-hash
    set is computed per hash-bucket (never on the driver) and dup
    membership is the distributed bucketed semi-join; per-doc counts
    merge in Ray."""
    from .joins import bucketed_semi_join

    wins = ds.map_batches(window_hash_batch,
                          fn_kwargs={"window": window, "column": column},
                          batch_format="pyarrow")

    def pair_dedup(t: pa.Table) -> pa.Table:
        return t.group_by(["whash", "doc_id"]).aggregate([])

    def hot_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["whash", "doc_id"])
        cnt = g.groupby("whash", sort=False)["doc_id"].nunique()
        hot = cnt[cnt >= 2].index.to_numpy()
        return pd.DataFrame({"whash": hot})

    hot = map_buckets(wins.map_batches(pair_dedup, batch_format="pyarrow"),
                      ["whash"], hot_bucket)

    dup = bucketed_semi_join(wins, hot, on="whash")

    def dup_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("doc_id").aggregate([("doc_id", "count")])
        g = g.rename_columns(["doc_id", "n_dup_windows"])
        return pa.table({"doc_id": g["doc_id"],
                         "n_windows": pa.nulls(g.num_rows, pa.int64())
                         .fill_null(0),
                         "n_dup_windows": pc.cast(g["n_dup_windows"],
                                                  pa.int64())})

    totals = ds.map_batches(window_totals_batch,
                            fn_kwargs={"window": window, "column": column},
                            batch_format="pyarrow")
    return merge_partials_ray(
        totals.union(dup.map_batches(dup_partial, batch_format="pyarrow")),
        ["doc_id"], {"n_windows": "sum", "n_dup_windows": "sum"})


def dup_window_remove_stats(ds: rd.Dataset, *, window: int = RK_WINDOW,
                            column: str = "text") -> rd.Dataset:
    """Substring-level duplicate REMOVAL (the acting half of Lee et
    al.: `dup_window_stats` detects, this strips): every token covered
    by ANY corpus-duplicated window (hash in ≥ 2 distinct docs) is
    removed, and the per-doc result is pinned by (n_tokens, n_covered,
    kept_sum) where kept_sum is the wrapping-uint64 sum of the SURVIVING
    tokens' stable hashes — content evidence, not just counts.

    Scale shape: window hashes ride WITH their start position through
    the same semi-join as the stats op; coverage per doc is computed
    in the doc-bucketed merge as one +1/−1 delta scatter + a single
    cumsum over the bucket's flattened token stream (a window never
    crosses its doc's boundary, so the running sum returns to zero at
    every doc edge and one global cumsum is exact) — no per-doc
    Python loop, no driver state."""
    import pandas as pd

    from ..functions.hashing import stable_hash64_np
    from .joins import bucketed_semi_join
    wins = ds.map_batches(window_hash_batch,
                          fn_kwargs={"window": window, "column": column,
                                     "emit_pos": True},
                          batch_format="pyarrow")

    def pair_dedup(t: pa.Table) -> pa.Table:
        return t.select(["whash", "doc_id"]).group_by(
            ["whash", "doc_id"]).aggregate([])

    def hot_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["whash", "doc_id"])
        cnt = g.groupby("whash", sort=False)["doc_id"].nunique()
        hot = cnt[cnt >= 2].index.to_numpy()
        return pd.DataFrame({"whash": hot})

    hot = map_buckets(wins.map_batches(pair_dedup, batch_format="pyarrow"),
                      ["whash"], hot_bucket)

    dup = bucketed_semi_join(wins, hot, on="whash")

    def doc_side(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": pc.cast(batch["doc_id"], pa.int64()),
                         "text": pc.fill_null(batch[column], ""),
                         "pos": pa.nulls(batch.num_rows, pa.int64()),
                         "side": pa.array(["d"] * batch.num_rows)})

    def dup_side(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": pc.cast(batch["doc_id"], pa.int64()),
                         "text": pa.nulls(batch.num_rows, pa.string()),
                         "pos": batch["pos"],
                         "side": pa.array(["w"] * batch.num_rows)})

    def strip_bucket(g: pd.DataFrame) -> pd.DataFrame:
        docs = g[g["side"] == "d"].sort_values("doc_id")
        dups = g[g["side"] == "w"]
        if docs.empty:
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "n_tokens": pd.Series([], dtype="int64"),
                                 "n_covered": pd.Series([], dtype="int64"),
                                 "kept_sum": pd.Series([], dtype="uint64")})
        texts = pa.array(docs["text"].to_numpy(), pa.string())
        stripped = pc.utf8_trim_whitespace(texts)
        lists = split_ws(stripped)
        offs = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        raw_lens = np.diff(offs)
        empty = np.asarray(pc.equal(stripped, "")
                           .to_numpy(zero_copy_only=False))
        n_tok = np.where(empty, 0, raw_lens)
        ndocs = len(docs)
        total = int(raw_lens.sum())
        doc_ids = docs["doc_id"].to_numpy().astype(np.int64)
        if total == 0:
            return pd.DataFrame({"doc_id": doc_ids,
                                 "n_tokens": n_tok.astype(np.int64),
                                 "n_covered": np.zeros(ndocs, np.int64),
                                 "kept_sum": np.zeros(ndocs, np.uint64)})
        flat = lists.flatten().to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(flat)
        th = stable_hash64_np(uniq)[codes]
        doc_for_tok = np.repeat(np.arange(ndocs), raw_lens)
        # empty/whitespace-only docs split to one phantom '' token —
        # mask it out of coverage and kept_sum (n_tok already 0)
        tok_valid = ~np.repeat(empty, raw_lens)
        delta = np.zeros(total + window, np.int64)
        if not dups.empty:
            didx = np.searchsorted(doc_ids,
                                   dups["doc_id"].to_numpy().astype(np.int64))
            gpos = offs[:-1][didx] + dups["pos"].to_numpy().astype(np.int64)
            np.add.at(delta, gpos, 1)
            np.add.at(delta, gpos + window, -1)
        cov = (np.cumsum(delta[:total]) > 0) & tok_valid
        n_covered = np.zeros(ndocs, np.int64)
        np.add.at(n_covered, doc_for_tok, cov.astype(np.int64))
        kept_sum = np.zeros(ndocs, np.uint64)
        with np.errstate(over="ignore"):
            np.add.at(kept_sum, doc_for_tok,
                      np.where(cov | ~tok_valid, np.uint64(0), th))
        return pd.DataFrame({"doc_id": doc_ids,
                             "n_tokens": n_tok.astype(np.int64),
                             "n_covered": n_covered,
                             "kept_sum": kept_sum})

    both = (ds.map_batches(doc_side, batch_format="pyarrow")
            .union(dup.map_batches(dup_side, batch_format="pyarrow")))
    return map_buckets(both, ["doc_id"], strip_bucket)

