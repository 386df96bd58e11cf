"""Multimodal column stages.

Media is carried as opaque references/bytes with typed metadata (the
input_hint documents table stores ``media_ref`` strings inside spans;
a payload variant stores a ``binary`` column). Image DECODE is REAL:
``decode_ppm`` is a pure-numpy parser for the binary PPM (P6)
container — the uncompressed format the synthetic origin
(sources/corpus.make_media_payload) emits — and ``decode_image_batch``
is the batch stage that decodes payloads into exact integer pixel
statistics, oracle-gated end to end (training.q_media_decode_stats).
The decode stages are plain functions run as tasks: they hold no
state, and an actor pool fed by a parquet read can take a one-CPU
cluster's only CPU before the read runs. Compressed codecs
(JPEG/PNG/libav) are not in this container; a production deployment
swaps decode_ppm for the codec call inside the SAME batch signature
(an actor class once the codec has load-once state).

``hash_features_batch`` is the declared-synthetic embedding stand-in for
the media→ANN chain (real image embedders aren't in the container):
8 bytes of stable_hash64(ref) scaled to [0,1] — not a decode path,
just a deterministic feature draw the oracle replays.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import stable_hash64_np

MEDIA_SCHEMA = pa.schema([
    ("media_ref", pa.string()),
    ("media_type", pa.string()),       # "image" | "audio" | "video"
    ("payload", pa.binary()),          # opaque bytes (empty when ref-only)
    ("width", pa.int32()),
    ("height", pa.int32()),
    ("duration_ms", pa.int32()),
])


def media_rows_from_spans(batch: pa.Table) -> pa.Table:
    """Explode documents' media spans into one row per media_ref with
    deterministic typed metadata (pure function of the ref), in one
    pass of Arrow kernels and one batch hash of the refs."""
    spans = batch["spans"]
    flat = pc.list_flatten(spans)
    media = pc.equal(pc.struct_field(flat, "kind"), "media")
    refs = pc.struct_field(flat, "media_ref").filter(media)
    hh = stable_hash64_np(refs)
    return pa.table({
        "doc_id": batch["doc_id"].take(
            pc.list_parent_indices(spans).filter(media)),
        "media_ref": refs,
        "media_type": pa.array(["image", "audio", "video"]).take(hh % 3),
        "width": pa.array(160 + (hh >> 8) % 1920, pa.int32()),
        "height": pa.array(120 + (hh >> 16) % 1080, pa.int32()),
        "duration_ms": pa.array((hh >> 24) % 300_000, pa.int32())})


def decode_ppm(buf: bytes) -> tuple[int, int, np.ndarray]:
    """Pure-numpy decoder for the binary PPM (P6) container.

    A real parser, not a fixed-offset slice: the header is tokenized
    with arbitrary-whitespace and ``#``-comment handling per the
    netpbm spec (magic, width, height, maxval, then exactly ONE
    whitespace byte before the raster), and the raster length is
    validated. Returns (width, height, H×W×3 uint8 array) — the
    raster view is zero-copy over the input buffer.
    """
    if buf[:2] != b"P6":
        raise ValueError("not a binary PPM (P6 magic missing)")
    pos, vals = 2, []
    while len(vals) < 3:
        while pos < len(buf) and buf[pos] in b" \t\n\r\x0b\x0c":
            pos += 1
        if pos < len(buf) and buf[pos] in b"#":
            pos = buf.index(b"\n", pos) + 1
            continue
        start = pos
        while pos < len(buf) and buf[pos] not in b" \t\n\r\x0b\x0c":
            pos += 1
        if pos == start:
            raise ValueError("truncated PPM header")
        vals.append(int(buf[start:pos]))
    w, h, maxval = vals
    if maxval != 255:
        raise ValueError(f"unsupported PPM maxval {maxval} (8-bit only)")
    pos += 1  # the single whitespace byte separating header and raster
    n = w * h * 3
    raster = np.frombuffer(buf, dtype=np.uint8, offset=pos)
    if raster.size < n:
        raise ValueError(f"PPM raster short: {raster.size} < {n}")
    return w, h, raster[:n].reshape(h, w, 3)


def decode_image_batch(batch: pa.Table) -> pa.Table:
    """IMAGE DECODE batch stage. Input batches carry
    (media_ref, payload[binary]); output appends exact integer pixel
    statistics per image — the columns the DuckDB oracle replays from
    the generator's closed form (training._media_decode_oracle_sql):

      img_w, img_h      decoded dimensions (int32)
      n_bytes           w·h·3 raster bytes (int64)
      pixel_sum         Σ raster (int64)
      pixel_sq_sum      Σ raster² (int64)
      mean_e3           pixel_sum·1000 // n_bytes (int64, exact)

    Per-image decode is inherent (variable-size binary rows — the
    WARC-writer contract); the per-image reductions are numpy. Batch
    small (wide binary rows): the callers pass batch_size<=512.
    """
    payloads = batch["payload"].to_pylist()
    k = len(payloads)
    ws = np.empty(k, np.int32)
    hs = np.empty(k, np.int32)
    ps = np.empty(k, np.int64)
    sq = np.empty(k, np.int64)
    for i, buf in enumerate(payloads):
        w, h, px = decode_ppm(buf)
        flat = px.reshape(-1).astype(np.int64)
        ws[i], hs[i] = w, h
        ps[i] = flat.sum()
        sq[i] = (flat * flat).sum()
    nb = ws.astype(np.int64) * hs.astype(np.int64) * 3
    return (batch.drop_columns(["payload"])
            .append_column("img_w", pa.array(ws, pa.int32()))
            .append_column("img_h", pa.array(hs, pa.int32()))
            .append_column("n_bytes", pa.array(nb, pa.int64()))
            .append_column("pixel_sum", pa.array(ps, pa.int64()))
            .append_column("pixel_sq_sum", pa.array(sq, pa.int64()))
            .append_column("mean_e3", pa.array(
                ps * 1000 // nb, pa.int64())))


def decode_wav(buf: bytes) -> tuple[int, np.ndarray]:
    """Pure-numpy decoder for RIFF/WAVE PCM16 mono.

    A real chunk-walking parser: validates the RIFF/WAVE container,
    iterates chunks honoring their declared sizes (word-aligned per
    the RIFF spec), reads 'fmt ' (PCM16 mono only), SKIPS unknown
    chunks (the synthetic origin plants a 'cue ' chunk precisely so a
    fixed-offset slice would fail), and returns
    (sample_rate, int16 sample array) from 'data' — zero-copy view.
    """
    import struct

    if buf[:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE file")
    declared = struct.unpack("<I", buf[4:8])[0]
    if declared + 8 != len(buf):
        raise ValueError(f"RIFF size {declared} != file {len(buf) - 8}")
    pos, rate, samples = 12, None, None
    while pos + 8 <= len(buf):
        cid = buf[pos:pos + 4]
        sz = struct.unpack("<I", buf[pos + 4:pos + 8])[0]
        body = buf[pos + 8:pos + 8 + sz]
        if cid == b"fmt ":
            tag, ch, rate, _br, _ba, bits = struct.unpack(
                "<HHIIHH", body[:16])
            if (tag, ch, bits) != (1, 1, 16):
                raise ValueError(
                    f"unsupported WAV format tag={tag} ch={ch} bits={bits}"
                    " (PCM16 mono only)")
        elif cid == b"data":
            if sz % 2:
                raise ValueError("odd PCM16 data size")
            samples = np.frombuffer(body, dtype="<i2")
        pos += 8 + sz + (sz & 1)  # chunks are word-aligned
    if rate is None or samples is None:
        raise ValueError("WAV missing fmt/data chunk")
    return rate, samples


def decode_audio_batch(batch: pa.Table) -> pa.Table:
    """AUDIO DECODE batch stage — the WAV sibling of
    decode_image_batch: (media_ref, payload[binary]) batches in, exact
    integer sample statistics out (the columns
    training._audio_decode_oracle_sql replays from the generator's
    closed form): sample_rate (int32), n_samples, sample_sum,
    sample_sq_sum, duration_us = n·1e6 // rate (all int64)."""
    payloads = batch["payload"].to_pylist()
    k = len(payloads)
    rates = np.empty(k, np.int32)
    ns = np.empty(k, np.int64)
    ss = np.empty(k, np.int64)
    sq = np.empty(k, np.int64)
    for i, buf in enumerate(payloads):
        rate, s = decode_wav(buf)
        s64 = s.astype(np.int64)
        rates[i], ns[i] = rate, s64.size
        ss[i] = s64.sum()
        sq[i] = (s64 * s64).sum()
    return (batch.drop_columns(["payload"])
            .append_column("sample_rate", pa.array(rates, pa.int32()))
            .append_column("n_samples", pa.array(ns, pa.int64()))
            .append_column("sample_sum", pa.array(ss, pa.int64()))
            .append_column("sample_sq_sum", pa.array(sq, pa.int64()))
            .append_column("duration_us", pa.array(
                ns * 1_000_000 // rates, pa.int64())))


def decode_y4m(buf: bytes) -> tuple[int, int, tuple[int, int], np.ndarray]:
    """Pure-numpy decoder for YUV4MPEG2 (.y4m) 4:4:4 streams.

    A real parser: tokenizes the ASCII parameter line (magic word,
    then tagged W/H/F/I/A/C parameters in ANY order, unknown X tags
    ignored per the spec), requires C444 8-bit, then walks frames —
    each introduced by a 'FRAME' marker line that may carry its own
    parameters up to the newline — validating every raster length.
    Returns (width, height, (fps_num, fps_den),
    frames uint8 array of shape (n_frames, 3, h, w)) — planes are
    zero-copy views reshaped over the input buffer.
    """
    nl = buf.find(b"\n")
    if nl < 0:
        raise ValueError("y4m: no stream header line")
    toks = buf[:nl].split(b" ")
    if toks[0] != b"YUV4MPEG2":
        raise ValueError("not a YUV4MPEG2 stream")
    w = h = None
    fps = (25, 1)
    colorspace = b"C420"  # the spec's default when absent
    for t in toks[1:]:
        if not t:
            continue
        tag, val = t[:1], t[1:]
        if tag == b"W":
            w = int(val)
        elif tag == b"H":
            h = int(val)
        elif tag == b"F":
            num, den = val.split(b":")
            fps = (int(num), int(den))
        elif tag == b"C":
            colorspace = t
        # I/A/X tags: legal, irrelevant to raster layout here
    if w is None or h is None:
        raise ValueError("y4m: header missing W or H")
    if colorspace != b"C444":
        raise ValueError(f"unsupported y4m colorspace {colorspace!r}"
                         " (C444 8-bit only)")
    per_frame = w * h * 3
    pos, frames = nl + 1, []
    while pos < len(buf):
        fnl = buf.find(b"\n", pos)
        if fnl < 0 or buf[pos:pos + 5] != b"FRAME":
            raise ValueError("y4m: malformed FRAME marker")
        pos = fnl + 1
        if pos + per_frame > len(buf):
            raise ValueError("y4m: truncated frame raster")
        frames.append(np.frombuffer(buf, np.uint8, per_frame, pos)
                      .reshape(3, h, w))
        pos += per_frame
    if not frames:
        raise ValueError("y4m: zero frames")
    return w, h, fps, np.stack(frames)


def decode_video_batch(batch: pa.Table) -> pa.Table:
    """VIDEO DECODE batch stage — the Y4M member of the decode trio
    (decode_image_batch/decode_audio_batch/this): (media_ref,
    payload[binary]) in, exact integer plane statistics out (the
    columns training._video_decode_oracle_sql replays): frm_w, frm_h
    (int32), fps_num (int32, proves the F tag parsed), n_frames,
    n_bytes = frames·w·h·3, byte_sum, byte_sq_sum, y_sum (Σ of the
    luma plane only — exercises the plane SPLIT, not just the flat
    walk; all int64)."""
    payloads = batch["payload"].to_pylist()
    k = len(payloads)
    ws = np.empty(k, np.int32)
    hs = np.empty(k, np.int32)
    fn = np.empty(k, np.int32)
    nf = np.empty(k, np.int64)
    bs = np.empty(k, np.int64)
    sq = np.empty(k, np.int64)
    ys = np.empty(k, np.int64)
    for i, buf in enumerate(payloads):
        w, h, fps, frames = decode_y4m(buf)
        flat = frames.reshape(-1).astype(np.int64)
        ws[i], hs[i], fn[i] = w, h, fps[0]
        nf[i] = frames.shape[0]
        bs[i] = flat.sum()
        sq[i] = (flat * flat).sum()
        ys[i] = frames[:, 0].astype(np.int64).sum()
    nb = nf * ws.astype(np.int64) * hs.astype(np.int64) * 3
    return (batch.drop_columns(["payload"])
            .append_column("frm_w", pa.array(ws, pa.int32()))
            .append_column("frm_h", pa.array(hs, pa.int32()))
            .append_column("fps_num", pa.array(fn, pa.int32()))
            .append_column("n_frames", pa.array(
                nf.astype(np.int64), pa.int64()))
            .append_column("n_bytes", pa.array(nb, pa.int64()))
            .append_column("byte_sum", pa.array(bs, pa.int64()))
            .append_column("byte_sq_sum", pa.array(sq, pa.int64()))
            .append_column("y_sum", pa.array(ys, pa.int64())))


HASH_FEATURE_DIM = 8


def hash_features_batch(batch: pa.Table) -> pa.Table:
    """Deterministic 8-dim feature from the ref hash — the embedding
    stand-in for the media→ANN chain (bytes of stable_hash64(ref),
    scaled /255; the scaling cancels in cosine so the oracle re-ranks
    on integer dots). Declared synthetic: NOT a decode path — see
    decode_image_batch for actual image decode. Vectorized: one
    stable_hash64_np pass + a byte-plane shift matrix per batch. A
    real embedder with load-once weights would be an actor class."""
    h = stable_hash64_np(batch["media_ref"])
    shifts = np.uint64(8) * np.arange(HASH_FEATURE_DIM, dtype=np.uint64)
    feats = ((h[:, None] >> shifts[None, :]) & np.uint64(0xFF)) / 255.0
    offsets = pa.array(
        np.arange(0, (len(h) + 1) * HASH_FEATURE_DIM,
                  HASH_FEATURE_DIM, dtype=np.int32))
    col = pa.ListArray.from_arrays(
        offsets, pa.array(feats.reshape(-1), pa.float64()))
    return batch.append_column("features", col)


class ResizeStub:
    """Metadata-only resize PLAN: recomputes the target box
    (aspect-preserving) from claimed metadata without touching
    payload bytes — the cheap planning pass that runs before payloads
    are fetched. Actual pixel resampling is resize_image_batch below."""

    def __init__(self, max_side: int = 256):
        self.max_side = max_side

    def __call__(self, batch: pa.Table) -> pa.Table:
        w = np.asarray(batch["width"].to_pylist(), dtype=np.float64)
        h = np.asarray(batch["height"].to_pylist(), dtype=np.float64)
        scale = np.minimum(1.0, self.max_side / np.maximum(w, h))
        return (batch.append_column("resized_w", pa.array((w * scale).astype(np.int32)))
                     .append_column("resized_h", pa.array((h * scale).astype(np.int32))))


def resize_nn(px: np.ndarray, rw: int, rh: int) -> np.ndarray:
    """Nearest-neighbor resample of an H×W×3 uint8 raster to rh×rw×3,
    with the integer floor source mapping sy = y'·h // rh,
    sx = x'·w // rw (exactly mirrorable in SQL) — pure numpy fancy
    indexing, no per-pixel Python."""
    h, w = px.shape[:2]
    sy = (np.arange(rh, dtype=np.int64) * h) // rh
    sx = (np.arange(rw, dtype=np.int64) * w) // rw
    return px[sy][:, sx]


def resize_image_batch(batch: pa.Table, max_side: int = 16) -> pa.Table:
    """DECODE + RESIZE batch stage: PPM payloads in, exact
    integer statistics of the aspect-preserving nearest-neighbor
    thumbnail out (the real-pixel upgrade of the ResizeStub plan;
    oracle: training._media_resize_oracle_sql enumerates the target
    grid and reads the generator walk at each mapped source index).
    Target box: rw = w·S // max(w,h), rh = h·S // max(w,h) when the
    image exceeds max_side S, else pass-through — all integer floor.
    Emits resized_w/resized_h (int32), resized_sum, resized_sq_sum
    (int64)."""
    payloads = batch["payload"].to_pylist()
    k = len(payloads)
    rws = np.empty(k, np.int32)
    rhs = np.empty(k, np.int32)
    ss = np.empty(k, np.int64)
    sq = np.empty(k, np.int64)
    for i, buf in enumerate(payloads):
        w, h, px = decode_ppm(buf)
        m = max(w, h)
        rw, rh = ((w, h) if m <= max_side else
                  (w * max_side // m, h * max_side // m))
        small = resize_nn(px, rw, rh).reshape(-1).astype(np.int64)
        rws[i], rhs[i] = rw, rh
        ss[i] = small.sum()
        sq[i] = (small * small).sum()
    return (batch.drop_columns(["payload"])
            .append_column("resized_w", pa.array(rws, pa.int32()))
            .append_column("resized_h", pa.array(rhs, pa.int32()))
            .append_column("resized_sum", pa.array(ss, pa.int64()))
            .append_column("resized_sq_sum", pa.array(sq, pa.int64())))


def frame_sample_plan(batch: pa.Table, every_ms: int = 1000) -> pa.Table:
    """Video frame-sampling plan: one row per planned frame timestamp
    (the planning pass; actual frame decode is decode_video_batch).
    Vectorized explode: per-video frame counts via ceil-div, then one
    np.repeat + offset arange — no per-ref Python loop."""
    mask = pc.equal(batch["media_type"], "video").to_numpy(
        zero_copy_only=False)
    refs = np.asarray(batch["media_ref"].to_pylist(), dtype=object)[mask]
    dur = batch["duration_ms"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)[mask]
    n = (dur + every_ms - 1) // every_ms  # frames at 0..dur-1
    idx = np.repeat(np.arange(len(refs)), n)
    total = int(n.sum())
    starts = np.concatenate(([0], np.cumsum(n)))[:-1]
    offs = np.arange(total, dtype=np.int64) - np.repeat(starts, n)
    return pa.table({"media_ref": pa.array(refs[idx], pa.string()),
                     "frame_ts_ms": pa.array(
                         (offs * every_ms).astype(np.int32), pa.int32())})
