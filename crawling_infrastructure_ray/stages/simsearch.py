"""Similarity search over an embedding column (list<float>).

Brute-force cosine top-k is the exact baseline: the query matrix is
broadcast once with ``ray.put`` and every ``map_batches`` task does one
numpy matmul against its batch, emitting per-batch top-k partials
(``_block_topk``); the driver merges them into the global top-k
(``merge_topk``). Partials are at most k × queries rows per batch —
never the full corpus — so no shuffle is needed.

The IVF variant is the scale path: k-means-ish centroids (sampled,
seeded), each vector assigned to its nearest centroid at index build;
queries probe only ``nprobe`` nearest centroid partitions.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..sources.storage import read_dataset


def _to_matrix(col) -> np.ndarray:
    """(n, dim) float64 matrix from a list<float> column. Zero-copy
    Arrow flatten + reshape when the lists are rectangular (the
    embeddings table always is) — the to_pylist fallback only runs for
    ragged/null inputs. No rows give a (0, 0) matrix."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if pa.types.is_fixed_size_list(t):
        flat = col.values.to_numpy(zero_copy_only=False)
        return flat.astype(np.float64, copy=False).reshape(-1, t.list_size)
    if (pa.types.is_list(t) or pa.types.is_large_list(t)) \
            and col.null_count == 0:
        lens = np.diff(col.offsets.to_numpy(zero_copy_only=False)
                       .astype(np.int64))
        if len(lens) and (lens == lens[0]).all() and lens[0] > 0:
            flat = col.flatten().to_numpy(zero_copy_only=False)
            return (flat.astype(np.float64, copy=False)
                    .reshape(-1, int(lens[0])))
    m = np.asarray(col.to_pylist(), dtype=np.float64)
    return m if len(col) else m.reshape(0, 0)


def _normalize(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return mat / norms


def _block_topk(sims: np.ndarray, ids: np.ndarray, qids: list,
                k: int) -> pa.Table:
    """Per-block partial of the top-k: for each query row of ``sims``
    (queries × block), its k best finite entries by (cosine desc,
    neighbor_id asc). Candidates are every entry at or above the k-th
    best cosine, so ties at the k-th place keep the smallest ids."""
    out_q, out_n, out_s = [], [], []
    for qi, s in enumerate(sims):
        cand = np.flatnonzero(np.isfinite(s))
        if len(cand) > k:
            cut = len(cand) - k
            cand = cand[s[cand] >= np.partition(s[cand], cut)[cut]]
        top = cand[np.lexsort((ids[cand], -s[cand]))][:k]
        out_q.extend([qids[qi]] * len(top))
        out_n.extend(ids[top].tolist())
        out_s.extend(s[top].tolist())
    return pa.table({"query_id": pa.array(out_q),
                     "neighbor_id": pa.array(out_n),
                     "cosine": pa.array(out_s, pa.float64())})


def merge_topk(partials: rd.Dataset, k: int) -> pd.DataFrame:
    """Driver merge of ``_block_topk`` partials into (query_id,
    neighbor_id, cosine, rank): rank 1..k per query by (cosine desc,
    neighbor_id asc), cosine rounded to 4 places. Blocks stream in one
    at a time and only the running top k per query is kept, so the
    driver holds queries × k rows plus one block's partial however many
    blocks the corpus has, and no Ray shuffle runs."""
    cols = ["query_id", "neighbor_id", "cosine", "rank"]
    df = None
    for b in partials.iter_batches(batch_size=None, batch_format="pandas"):
        if df is not None:
            b = pd.concat([df, b], ignore_index=True)
        df = (b.sort_values(["query_id", "cosine", "neighbor_id"],
                            ascending=[True, False, True])
              .groupby("query_id").head(k))
    if df is None or df.empty:
        return pd.DataFrame({c: [] for c in cols})
    df["rank"] = df.groupby("query_id").cumcount() + 1
    df["cosine"] = np.round(df["cosine"], 4)
    return df[cols].reset_index(drop=True)


def brute_force_topk(ds: rd.Dataset, queries: np.ndarray, query_ids: list,
                     k: int = 10, *, id_column: str = "vec_id",
                     column: str = "embedding") -> pd.DataFrame:
    """Exact cosine top-k: (query_id, neighbor_id, cosine, rank).

    Deterministic tie-break (cosine desc, neighbor_id asc).
    """
    qn = _normalize(np.asarray(queries, dtype=np.float64))
    q_ref = ray.put((qn, list(query_ids)))

    def partial_topk(batch: pa.Table) -> pa.Table:
        q, qids = ray.get(q_ref)
        ids = np.asarray(batch[id_column].to_pylist())
        sims = q @ _normalize(_to_matrix(batch[column])).T
        return _block_topk(sims, ids, qids, k)

    return merge_topk(ds.map_batches(partial_topk, batch_format="pyarrow"), k)


class IVFIndex:
    """IVF-flat index: seeded sampled centroids; assignment via one
    matmul per batch; queries probe nprobe partitions.

    Two physical layouts:
    - in-memory (default): the assigned Dataset is materialized and
      every search prunes it with a vectorized ``pc.is_in`` filter;
    - on-disk (``save``/``load``): one parquet PARTITION DIRECTORY per
      centroid (``centroid=<c>/``), so a search only READS the probed
      partitions — storage-level partition pruning, the layout that
      matters when the index is 100 TB and nprobe/n_centroids is small.
    """

    def __init__(self, ds: rd.Dataset, n_centroids: int = 16, seed: int = 42,
                 id_column: str = "vec_id", column: str = "embedding"):
        self.id_column = id_column
        self.column = column
        # deterministic hash-based sample for the k-means seed set:
        # Dataset.random_sample seeds PER BLOCK, so its row set shifts
        # with block boundaries/scheduling — a hash draw on the row id
        # is block-independent and exactly reproducible
        frac = min(1.0, (n_centroids * 40) / max(1, ds.count()))
        thresh = np.uint64(int(frac * 65536))
        sseed = np.uint64(seed & 0xFFFFFFFF)

        def sample_batch(t: pa.Table) -> pa.Table:
            v = t[id_column].to_numpy(zero_copy_only=False).astype(np.uint64)
            with np.errstate(over="ignore"):
                h = (v + sseed) * np.uint64(0xFF51AFD7ED558CCD)
                h ^= h >> np.uint64(33)
                h *= np.uint64(0xC4CEB9FE1A85EC53)
                h ^= h >> np.uint64(33)
            return t.filter(pa.array((h % np.uint64(65536)) < thresh))

        # sort by id: to_pandas row ORDER follows block arrival, which
        # varies with scheduling — k-means init (rng.choice over row
        # positions) needs a canonical order to be reproducible
        sample = (ds.map_batches(sample_batch, batch_format="pyarrow")
                  .to_pandas().sort_values(id_column).reset_index(drop=True))
        mat = _normalize(np.stack(sample[column].to_numpy()).astype(np.float64))
        rng = np.random.default_rng(seed)
        # k-means with a few Lloyd iterations over the sample
        cent = mat[rng.choice(len(mat), size=min(n_centroids, len(mat)),
                              replace=False)]
        for _ in range(5):
            assign = np.argmax(mat @ cent.T, axis=1)
            for c in range(cent.shape[0]):
                members = mat[assign == c]
                if len(members):
                    v = members.mean(axis=0)
                    n = np.linalg.norm(v)
                    if n > 0:
                        cent[c] = v / n
        self.centroids = cent
        cent_ref = ray.put(cent)

        def assign_batch(batch: pa.Table) -> pa.Table:
            cc = ray.get(cent_ref)
            m = _normalize(_to_matrix(batch[column]))
            a = np.argmax(m @ cc.T, axis=1)
            return pa.table({id_column: batch[id_column],
                             "nvec": pa.array(list(m), pa.list_(pa.float64())),
                             "centroid": pa.array(a.astype(np.int32))})

        self.assigned = ds.map_batches(assign_batch,
                                       batch_format="pyarrow").materialize()

    # -- on-disk partition layout (the scale path) ---------------------
    def save(self, path: str) -> str:
        """Write the index hive-partitioned by centroid: one directory
        ``centroid=<c>/`` per centroid (Ray writes one file set per
        partition value). Probed searches then read ONLY those
        directories — no full-index scan, no full-index memory."""
        self.assigned.write_parquet(path, partition_cols=["centroid"])
        import json
        import os
        with open(os.path.join(path, "_centroids.json"), "w") as f:
            json.dump({"centroids": self.centroids.tolist(),
                       "id_column": self.id_column}, f)
        return path

    @classmethod
    def load(cls, path: str) -> "IVFIndex":
        """Rebuild a handle from a saved partition layout (no data
        read happens here — partitions load lazily at search time)."""
        import json
        import os
        with open(os.path.join(path, "_centroids.json")) as f:
            meta = json.load(f)
        idx = cls.__new__(cls)
        idx.id_column = meta["id_column"]
        idx.column = "nvec"
        idx.centroids = np.asarray(meta["centroids"], dtype=np.float64)
        idx.assigned = None
        idx._path = path
        return idx

    def search_partitions(self, queries: np.ndarray, query_ids: list,
                          k: int = 10, nprobe: int = 4) -> pd.DataFrame:
        """Search the on-disk layout: read ONLY the probed
        ``centroid=<c>/`` partition directories (storage-level pruning),
        then the same partial-top-k merge as ``search``."""
        import os
        qn = _normalize(np.asarray(queries, dtype=np.float64))
        probe = np.argsort(-(qn @ self.centroids.T), axis=1)[:, :nprobe]
        wanted = sorted({int(c) for row in probe for c in row})
        paths = [os.path.join(self._path, f"centroid={c}") for c in wanted]
        paths = [p for p in paths if os.path.isdir(p)]
        if not paths:
            return pd.DataFrame({"query_id": [], "neighbor_id": [],
                                 "cosine": [], "rank": []})
        # read each probed partition dir (hive column re-inferred from
        # the dir name — as a STRING, so cast back) and union —
        # unprobed partitions never leave disk
        def fix_types(t: pa.Table) -> pa.Table:
            i = t.column_names.index("centroid")
            return t.set_column(i, "centroid",
                                pc.cast(t["centroid"], pa.int32()))

        parts = [read_dataset(p, "parquet").map_batches(
                     fix_types, batch_format="pyarrow") for p in paths]
        part = parts[0] if len(parts) == 1 else parts[0].union(*parts[1:])
        saved_assigned, self.assigned = self.assigned, part
        try:
            return self.search(queries, query_ids, k=k, nprobe=nprobe)
        finally:
            self.assigned = saved_assigned

    def search(self, queries: np.ndarray, query_ids: list, k: int = 10,
               nprobe: int = 4) -> pd.DataFrame:
        """Distributed probe: prune to the probed centroid partitions
        with a vectorized ``pc.is_in`` filter (NOT a per-row Python
        lambda), compute per-batch partial top-k for every query in one
        matmul per batch (entries outside a query's probed partitions
        score -inf), and merge the partials on the driver — the same
        partial-top-k shape as ``brute_force_topk``, restricted to the
        probed partitions. The full index is never collected."""
        qn = _normalize(np.asarray(queries, dtype=np.float64))
        probe = np.argsort(-(qn @ self.centroids.T), axis=1)[:, :nprobe]
        wanted_arr = pa.array(sorted({int(c) for row in probe for c in row}),
                              pa.int32())
        # per-query probed-centroid sets, broadcast once
        probe_sets = [set(int(c) for c in probe[qi])
                      for qi in range(qn.shape[0])]
        bcast = ray.put((qn, list(query_ids), probe_sets, wanted_arr))
        id_column = self.id_column

        def partial_topk(batch: pa.Table) -> pa.Table:
            q, qids, psets, warr = ray.get(bcast)
            b = batch.filter(pc.is_in(batch["centroid"], value_set=warr))
            if b.num_rows == 0:
                return pa.table({"query_id": pa.array([], pa.int64()),
                                 "neighbor_id": pa.array([], pa.int64()),
                                 "cosine": pa.array([], pa.float64())})
            ids = np.asarray(b[id_column].to_pylist())
            cents = b["centroid"].to_numpy(zero_copy_only=False)
            mat = np.stack([np.asarray(v) for v in b["nvec"].to_pylist()])
            sims = q @ mat.T                      # (nq, batch)
            for qi in range(q.shape[0]):
                sims[qi, ~np.isin(cents, list(psets[qi]))] = -np.inf
            return _block_topk(sims, ids, qids, k)

        return merge_topk(self.assigned.map_batches(partial_topk,
                                                    batch_format="pyarrow"), k)


# ----------------------------------------------------------------------
# k-NN graph construction (SemDeDup / clustering prerequisite)
# ----------------------------------------------------------------------

def quantize_e3(mat: np.ndarray) -> np.ndarray:
    """Half-up e3 quantization, float64-exact: floor(x*1000 + 0.5).
    Deliberately NOT np.round (banker's): DuckDB's round() is
    half-away-from-zero, and float32 multiples of 1/16 hit exact .5
    midpoints under *1000 — floor(+0.5) is the same IEEE double
    expression on both engines, so quantized values agree bit-for-bit."""
    return np.floor(mat * 1000.0 + 0.5)


def knn_graph_brute(ds: rd.Dataset, k: int = 5, *,
                    id_column: str = "vec_id",
                    column: str = "embedding") -> rd.Dataset:
    """Exact k-NN GRAPH over an embedding column: every vector's top-k
    neighbors by integer dot product of e3-quantized vectors
    (|dot| <= dim x 10^6 — exact in the float64 matmul, exact in the
    gate). Output: (vec_id, neighbor_id, dot_e6, rank), rank 1..k with
    the (dot desc, neighbor_id asc) tie-break.

    BRUTE baseline: the quantized corpus is broadcast ONCE via
    ``ray.put`` and each batch does one matmul against it — O(n^2)
    compute, O(n x dim) broadcast. That is the correct shape up to
    ~10^6 vectors (a few GB of plasma, shared per node, never
    re-shipped per batch); past that the scale path is the IVF layout
    (``IVFIndex``): assign vectors to centroid partitions and build
    the graph within probed partitions only, trading exactness for
    O(n^2 / n_centroids) — same per-batch kernel, corpus side swapped
    for the partition.

    Broadcast ASSEMBLY streams: blocks arrive via ``iter_batches`` and
    are quantized to numpy per block, so the driver never holds a
    full-corpus pandas frame (object columns cost ~10x the numpy
    payload) — its peak is the (n, dim) float64 broadcast itself,
    which the brute baseline inherently needs."""
    ids_parts: list = []
    q_parts: list = []
    for b in ds.select_columns([id_column, column]).iter_batches(
            batch_format="pyarrow", batch_size=8192):
        ids_parts.append(b[id_column].to_numpy(zero_copy_only=False)
                         .astype(np.int64))
        q_parts.append(quantize_e3(_to_matrix(b[column])))
    ids_c = (np.concatenate(ids_parts) if ids_parts
             else np.empty(0, np.int64))
    q_c = (np.concatenate(q_parts, axis=0) if q_parts
           else np.empty((0, 0), np.float64))
    order = np.argsort(ids_c, kind="stable")
    ids_c = ids_c[order]
    q_c = np.ascontiguousarray(q_c[order])
    ref = ray.put((ids_c, q_c))

    def partial(batch: pa.Table) -> pa.Table:
        cids, cq = ray.get(ref)
        n = len(cids)
        ids_b = batch[id_column].to_numpy(zero_copy_only=False).astype(np.int64)
        empty = pa.table({"vec_id": pa.array([], pa.int64()),
                          "neighbor_id": pa.array([], pa.int64()),
                          "dot_e6": pa.array([], pa.int64()),
                          "rank": pa.array([], pa.int64())})
        if n == 0 or not len(ids_b):
            return empty
        bq = quantize_e3(_to_matrix(batch[column]))
        sims = bq @ cq.T                    # float64, integer-exact
        # composite sort key: dot primary DESC, corpus position (==
        # neighbor_id asc — cids is sorted) secondary. key = s*M - pos
        # is exact in float64 while |s|*M + n < 2^53 (asserted: dots
        # are integers, so any dot difference ≥ 1 dominates pos < M).
        M = float(max(n, 1))
        smax = int(np.abs(sims).max(initial=0.0))
        assert smax * max(n, 1) + n < 2**53, \
            "dot*M composite key would lose float64 exactness"
        keys = sims * M - np.arange(n, dtype=np.float64)
        pos = np.clip(np.searchsorted(cids, ids_b), 0, n - 1)
        is_self = cids[pos] == ids_b
        rows = np.arange(len(ids_b))
        keys[rows[is_self], pos[is_self]] = -np.inf  # exclude self
        kk = min(k, n)
        if kk < n:
            part = np.argpartition(-keys, kk - 1, axis=1)[:, :kk]
        else:
            part = np.broadcast_to(np.arange(n), (len(ids_b), n)).copy()
        subk = np.take_along_axis(keys, part, axis=1)
        ordr = np.argsort(-subk, axis=1, kind="stable")
        top = np.take_along_axis(part, ordr, axis=1)
        topk = np.take_along_axis(subk, ordr, axis=1)
        valid = np.isfinite(topk)           # self's -inf sorts last
        counts = valid.sum(axis=1)
        dots = np.take_along_axis(sims, top, axis=1)
        return pa.table({
            "vec_id": pa.array(np.repeat(ids_b, counts), pa.int64()),
            "neighbor_id": pa.array(cids[top[valid]], pa.int64()),
            "dot_e6": pa.array(dots[valid].astype(np.int64), pa.int64()),
            "rank": pa.array(
                np.broadcast_to(np.arange(1, kk + 1), top.shape)[valid]
                .astype(np.int64), pa.int64())})

    return ds.map_batches(partial, batch_format="pyarrow")
