"""Stable hashing utilities.

``md5_id`` mirrors the reference's md5 request ids
(crawler/src/persistant_handler.ts:159-162). ``stable_hash64`` is the
partitioning hash used for frontier sharding and hash-partitioned
output layout — a splitmix64-finalized FNV-1a, stable across processes
(unlike Python's ``hash``). ``rolling_fingerprint`` is a winnowing
document fingerprint (training-data pipeline addition; no reference
analog): each 16-byte window is hashed from scratch as a weighted byte
sum plus a mix — nothing rolls from one window to the next — and the
smallest distinct hashes are kept. ``rolling_fingerprint_col`` computes
the same sketch for a whole Arrow column in one kernel.
"""

from __future__ import annotations

import hashlib

import numpy as np

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF


def stable_hash64(s: str | bytes, seed: int = 0) -> int:
    """64-bit stable string hash (FNV-1a + splitmix64 finalizer)."""
    if isinstance(s, str):
        s = s.encode("utf-8", "surrogatepass")
    h = (_FNV_OFFSET ^ (seed & _MASK)) & _MASK
    for b in s:
        h = ((h ^ b) * _FNV_PRIME) & _MASK
    # splitmix64 finalizer for avalanche
    h = (h + 0x9E3779B97F4A7C15) & _MASK
    z = h
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def stable_hash64_np(arr, seed: int = 0) -> np.ndarray:
    """Vectorized stable 64-bit hash over an iterable of strings.

    Large inputs route through the byte-position FNV
    (stable_hash64_col_np — bit-identical, no per-row Python); small
    ones and anything Arrow can't ingest fall back to the per-row
    fold."""
    n = len(arr)
    if n >= 64:
        try:
            import pyarrow as _pa
        except ImportError:
            _pa = None
        if _pa is not None:
            try:
                col = arr if isinstance(arr, (_pa.Array, _pa.ChunkedArray)) \
                    else _pa.array(arr)
                return stable_hash64_col_np(col, seed)
            except (_pa.lib.ArrowInvalid, TypeError, UnicodeEncodeError):
                # lone-surrogate strings: pa.array() cannot UTF-8-encode
                # them; the per-row fold (surrogatepass) still can.
                pass
    if hasattr(arr, "to_pylist"):  # Arrow column below the fast-path cut
        arr = arr.to_pylist()
    return np.fromiter((stable_hash64(s, seed) for s in arr), dtype=np.uint64, count=n)


def md5_id(s: str | bytes) -> str:
    """Hex md5, used for doc ids (reference crawler/src/persistant_handler.ts:159-162)."""
    if isinstance(s, str):
        s = s.encode("utf-8", "surrogatepass")
    return hashlib.md5(s).hexdigest()


_FP_WEIGHTS: dict[int, np.ndarray] = {}


def fp_weights(window: int) -> np.ndarray:
    """The winnowing window's odd uint64 weights — deterministic per
    window size; single source for rolling_fingerprint AND its DuckDB
    oracle mirror (training._fingerprint_oracle_sql)."""
    w = _FP_WEIGHTS.get(window)
    if w is None:
        rng = np.random.default_rng(0xF19E)
        w = (rng.integers(0, 1 << 62, size=window, dtype=np.uint64)
             | np.uint64(1))
        _FP_WEIGHTS[window] = w
    return w


def rolling_fingerprint(text: str, window: int = 16, keep: int = 8) -> list[int]:
    """Winnowing-style document fingerprint.

    Hash every ``window``-byte character window (vectorized: sliding
    windows × odd-constant weights in wrapping uint64, xorshift mix),
    keep the ``keep`` smallest distinct window hashes — a
    deterministic, order-insensitive sketch. Public algorithm family
    (Schleimer et al., 'Winnowing', SIGMOD 2003).
    """
    if not text:
        return []
    data = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    n = data.size
    if n <= window:
        return [stable_hash64(data.tobytes())]
    w = fp_weights(window)
    from numpy.lib.stride_tricks import sliding_window_view
    with np.errstate(over="ignore"):
        wins = sliding_window_view(data, window)
        # matmul on the strided uint8 view via einsum with uint64
        # accumulation — no (n, window) uint64 intermediate copy
        h = np.einsum("ij,j->i", wins, w, dtype=np.uint64, casting="unsafe")
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(29)
    return [int(x) for x in _smallest_distinct(h, keep)]


def _smallest_distinct(h: np.ndarray, keep: int) -> np.ndarray:
    """The ``keep`` smallest distinct values of ``h``, ascending."""
    # without sorting all windows: partition the 4*keep smallest
    # values, dedupe those; any distinct value smaller than the keep-th
    # distinct must be among them. Fall back to the full unique only
    # when duplicates crowd the partition (identical windows — rare).
    m = 4 * keep
    if h.size > m:
        cand = np.unique(np.partition(h, m - 1)[:m])
        if cand.size >= keep:
            return cand[:keep]
    return np.unique(h)[:keep]


def rolling_fingerprint_col(texts, window: int = 16, keep: int = 8):
    """``rolling_fingerprint`` over a whole Arrow string/binary column
    → ``list<uint64>`` (nulls give ``[]``), equal row for row to
    ``[rolling_fingerprint(t or "") for t in texts]``.

    The window hashes come from one weighted sum over the column's
    flat data buffer (windows that cross a document boundary are
    computed and never read), so the transient cost is about two
    uint64 arrays of the buffer's size; each document then selects
    from its own slice of them."""
    import pyarrow as pa
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(texts)
    large = pa.types.is_large_string(texts.type) \
        or pa.types.is_large_binary(texts.type)
    off_dtype = np.dtype(np.int64 if large else np.int32)
    bufs = texts.buffers()
    off = np.frombuffer(bufs[1], off_dtype, count=n + 1,
                        offset=texts.offset * off_dtype.itemsize) \
        .astype(np.int64)
    lens = off[1:] - off[:-1]
    if texts.null_count:
        lens[texts.is_null().to_numpy(zero_copy_only=False)] = 0
    starts = off[:-1] - off[0]
    parts = [np.empty(0, np.uint64)] * n
    short = np.flatnonzero((lens > 0) & (lens <= window))
    if short.size:
        sh = stable_hash64_col_np(texts.take(short))
        for i, d in enumerate(short.tolist()):
            parts[d] = sh[i:i + 1]
    long_docs = np.flatnonzero(lens > window)
    if long_docs.size:
        h = _window_hashes(np.frombuffer(bufs[2], np.uint8)[off[0]:off[-1]],
                           fp_weights(window))
        for d, s, ln in zip(long_docs.tolist(), starts[long_docs].tolist(),
                            lens[long_docs].tolist()):
            parts[d] = _smallest_distinct(h[s:s + ln - window + 1], keep)
    out_off = np.zeros(n + 1, np.int32)
    np.cumsum([p.size for p in parts], out=out_off[1:])
    return pa.ListArray.from_arrays(
        pa.array(out_off),
        pa.array(np.concatenate(parts) if n else np.empty(0, np.uint64),
                 pa.uint64()))


def _window_hashes(data: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Mixed hash of every ``len(w)``-byte window of ``data``: the
    weighted byte sum in wrapping uint64 (one ``np.correlate`` over
    the buffer), then an xorshift-multiply mix."""
    with np.errstate(over="ignore"):
        h = np.correlate(data.astype(np.uint64), w, "valid")
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(29)
    return h


def splitmix64_np(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array — the same
    6 stages stable_hash64 applies after FNV (and that
    sqlmirror.splitmix64_cte mirrors in DuckDB). Used as the numeric
    row-hash for deterministic sampling / split assignment: cheap on
    both engines (no per-character FNV walk when the key is already an
    integer)."""
    x = np.ascontiguousarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = x + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def stable_hash64_col_np(col, seed: int = 0) -> np.ndarray:
    """VECTORIZED stable_hash64 over an Arrow string/binary array:
    the FNV-1a fold runs as a bounded loop over BYTE POSITIONS
    (vectorized across rows via the array's zero-copy offsets/data
    buffers), then the shared splitmix64_np finalizer — bit-identical
    to stable_hash64 for any utf-8 input. Use for corpus-scale
    columns of SHORT, mostly-distinct keys (url segments, tokens)
    where the dictionary-encode trick doesn't help and the per-row
    generator would be the hot loop. Rows are processed in
    length-sorted order so each byte step touches a SUFFIX slice —
    total cost O(total_bytes + n log n) regardless of length skew
    (one long outlier doesn't tax the short rows). Nulls hash as
    empty strings."""
    import pyarrow as pa
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_string(col.type):
        col = col.cast(pa.binary())
    elif pa.types.is_large_string(col.type):
        col = col.cast(pa.large_binary())
    n = len(col)
    if n == 0:
        return np.empty(0, np.uint64)
    off_dtype = np.int64 if pa.types.is_large_binary(col.type) \
        else np.int32
    bufs = col.buffers()
    off = np.frombuffer(bufs[1], off_dtype,
                        count=n + 1 + col.offset)[col.offset:]
    off = off.astype(np.int64)
    data = np.frombuffer(bufs[2], np.uint8) if bufs[2] is not None \
        else np.empty(0, np.uint8)
    lens = off[1:] - off[:-1]
    order = np.argsort(lens, kind="stable")
    lens_s = lens[order]
    start_s = off[:-1][order]
    L = int(lens_s[-1])
    hs = np.full(n, (_FNV_OFFSET ^ (seed & _MASK)) & _MASK,
                 dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(L):
            s = int(np.searchsorted(lens_s, j, side="right"))
            if s == n:
                break
            b = data[start_s[s:] + j].astype(np.uint64)
            hs[s:] = (hs[s:] ^ b) * np.uint64(_FNV_PRIME)
    out = np.empty(n, np.uint64)
    out[order] = splitmix64_np(hs)
    return out
