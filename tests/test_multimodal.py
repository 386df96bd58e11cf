import numpy as np
import pyarrow as pa
import pytest

from crawling_infrastructure_ray.sources.corpus import (
    fetch_audio_payloads, fetch_media_payloads, fetch_video_payloads,
    make_audio_payload, make_media_payload, make_spans, make_video_payload,
    spans_arrow_type)
from crawling_infrastructure_ray.functions.hashing import stable_hash64
from crawling_infrastructure_ray.stages.multimodal import (
    HASH_FEATURE_DIM, ResizeStub, decode_audio_batch, decode_image_batch,
    decode_ppm, decode_video_batch, decode_wav, decode_y4m,
    frame_sample_plan, hash_features_batch, media_rows_from_spans,
    resize_image_batch)


def _doc_batch():
    spans = [make_spans(f"http://h{i}.example/p{i}", seed=42) for i in range(20)]
    return pa.table({"doc_id": pa.array([f"d{i}" for i in range(20)]),
                     "spans": pa.array(spans, spans_arrow_type())})


def test_media_rows_from_spans():
    out = media_rows_from_spans(_doc_batch())
    assert out.num_rows > 0
    assert set(out["media_type"].to_pylist()) <= {"image", "audio", "video"}
    assert all(r.startswith("m://") for r in out["media_ref"].to_pylist())
    # deterministic
    assert out.equals(media_rows_from_spans(_doc_batch()))


def _media_rows_loop(batch):
    """The per-span reference for media_rows_from_spans."""
    cols = {c: [] for c in ("doc_id", "media_ref", "media_type", "width",
                            "height", "duration_ms")}
    for doc, spans in zip(batch["doc_id"].to_pylist(),
                          batch["spans"].to_pylist()):
        for s in spans or []:
            if s["kind"] != "media":
                continue
            hh = stable_hash64(s["media_ref"])
            for c, v in zip(cols, (doc, s["media_ref"],
                                   ("image", "audio", "video")[hh % 3],
                                   160 + (hh >> 8) % 1920,
                                   120 + (hh >> 16) % 1080,
                                   (hh >> 24) % 300_000)):
                cols[c].append(v)
    return pa.table({c: pa.array(v, pa.string() if i < 3 else pa.int32())
                     for i, (c, v) in enumerate(cols.items())})


@pytest.mark.parametrize("n", [0, 5, 150])
def test_media_rows_from_spans_matches_span_loop(n):
    """Vectorized explode == the per-span loop, with empty span lists,
    text-only documents and a multi-chunk column (150 docs take the
    batch-hash path of stable_hash64_np, 5 the per-row one)."""
    spans = [make_spans(f"http://h{i % 9}.example/p{i}", seed=42)
             for i in range(n)]
    for i in range(0, n, 4):
        spans[i] = []
    for i in range(1, n, 4):
        spans[i] = [s for s in spans[i] if s["kind"] == "text"]
    batch = pa.table({"doc_id": pa.array([f"d{i}" for i in range(n)],
                                         pa.string()),
                      "spans": pa.array(spans, spans_arrow_type())})
    want = _media_rows_loop(batch)
    assert media_rows_from_spans(batch).equals(want)
    chunked = pa.Table.from_batches(batch.to_batches(max_chunksize=3),
                                    batch.schema)
    assert media_rows_from_spans(chunked).equals(want)


def test_ppm_roundtrip_exact():
    """decode(encode(ref)) recovers the generator's closed form
    pixel-for-pixel — the contract the DuckDB oracle replays."""
    for ref in ["m://h0.example/abc", "m://h1.example/0123456789", "m://x/y"]:
        buf = make_media_payload(ref)
        w, h, px = decode_ppm(buf)
        hh = stable_hash64(ref)
        assert (w, h) == (8 + (hh >> 32) % 24, 8 + (hh >> 40) % 16)
        n = w * h * 3
        want = ((hh % 256 + 31 * np.arange(n, dtype=np.uint64)) % 256) \
            .astype(np.uint8)
        assert np.array_equal(px.reshape(-1), want)


def test_decode_ppm_header_handling():
    # comments and arbitrary whitespace in the header are legal P6
    raster = bytes(range(12))  # 2x2 RGB
    buf = b"P6\n# a comment\n  2\t2\n# another\n255\n" + raster
    w, h, px = decode_ppm(buf)
    assert (w, h) == (2, 2) and px.reshape(-1).tolist() == list(range(12))
    with pytest.raises(ValueError):
        decode_ppm(b"P5\n2 2\n255\n" + raster)       # wrong magic
    with pytest.raises(ValueError):
        decode_ppm(b"P6\n2 2\n65535\n" + raster)     # 16-bit maxval
    with pytest.raises(ValueError):
        decode_ppm(b"P6\n4 4\n255\n" + raster)       # short raster


def test_media_decoder_stage():
    media = media_rows_from_spans(_doc_batch())
    imgs = media.filter(pa.compute.equal(media["media_type"], "image"))
    out = decode_image_batch(fetch_media_payloads(imgs))
    assert out.num_rows == imgs.num_rows
    assert "payload" not in out.column_names
    nb = out["n_bytes"].to_numpy()
    assert np.array_equal(
        nb, out["img_w"].to_numpy().astype(np.int64)
        * out["img_h"].to_numpy() * 3)
    # stats against the closed form, independently of decode
    for ref, psum, sq in zip(out["media_ref"].to_pylist(),
                             out["pixel_sum"].to_pylist(),
                             out["pixel_sq_sum"].to_pylist()):
        hh = stable_hash64(ref)
        w, h = 8 + (hh >> 32) % 24, 8 + (hh >> 40) % 16
        n = w * h * 3
        v = (hh % 256 + 31 * np.arange(n, dtype=np.int64)) % 256
        assert psum == v.sum() and sq == (v * v).sum()


def test_wav_roundtrip_exact():
    """decode(encode(ref)) recovers the affine-mapped residue walk
    sample-for-sample — the contract the audio oracle replays."""
    for ref in ["m://h0.example/abc", "m://h1.example/0123456789"]:
        buf = make_audio_payload(ref)
        rate, s = decode_wav(buf)
        hh = stable_hash64(ref)
        n = 256 + (hh >> 48) % 1792
        assert rate == 8000 and s.size == n
        v = (hh % 256 + 31 * np.arange(n, dtype=np.int64)) % 256
        assert np.array_equal(s.astype(np.int64), v * 257 - 32768)


def test_decode_wav_chunk_walking():
    import struct
    ref = "m://h0.example/abc"
    buf = make_audio_payload(ref)
    # the generator plants a junk 'cue ' chunk BEFORE data — a
    # fixed-offset parser would misread; the walker must skip it
    assert b"cue " in buf[:48]
    with pytest.raises(ValueError):
        decode_wav(b"RIFF" + struct.pack("<I", 4) + b"AIFF")
    with pytest.raises(ValueError):  # declared size mismatch
        decode_wav(buf[:-2])
    # stereo rejected
    stereo = bytearray(buf)
    fpos = buf.index(b"fmt ") + 8
    stereo[fpos + 2:fpos + 4] = struct.pack("<H", 2)
    with pytest.raises(ValueError):
        decode_wav(bytes(stereo))


def test_audio_decoder_stage():
    media = media_rows_from_spans(_doc_batch())
    auds = media.filter(pa.compute.equal(media["media_type"], "audio"))
    out = decode_audio_batch(fetch_audio_payloads(auds))
    assert out.num_rows == auds.num_rows
    for ref, n, ssum, sq in zip(out["media_ref"].to_pylist(),
                                out["n_samples"].to_pylist(),
                                out["sample_sum"].to_pylist(),
                                out["sample_sq_sum"].to_pylist()):
        hh = stable_hash64(ref)
        want_n = 256 + (hh >> 48) % 1792
        v = (hh % 256 + 31 * np.arange(want_n, dtype=np.int64)) % 256
        s = v * 257 - 32768
        assert (n, ssum, sq) == (want_n, s.sum(), (s * s).sum())


def test_y4m_roundtrip_exact():
    for ref in ["m://h0.example/abc", "m://h1.example/0123456789"]:
        buf = make_video_payload(ref)
        w, h, fps, frames = decode_y4m(buf)
        hh = stable_hash64(ref)
        assert (w, h) == (4 + (hh >> 32) % 12, 4 + (hh >> 40) % 8)
        assert fps == (25, 1)
        f = 2 + (hh >> 56) % 6
        assert frames.shape == (f, 3, h, w)
        n = f * w * h * 3
        want = ((hh % 256 + 31 * np.arange(n, dtype=np.uint64)) % 256) \
            .astype(np.uint8)
        assert np.array_equal(frames.reshape(-1), want)


def test_decode_y4m_tag_parsing():
    raster = bytes(range(12))  # 2x2 C444 frame
    # tags out of order, unknown X tag, FRAME with parameters
    buf = (b"YUV4MPEG2 C444 Xsome=thing H2 W2 F30:1\n"
           b"FRAME Iextra\n" + raster + b"FRAME\n" + raster)
    w, h, fps, frames = decode_y4m(buf)
    assert (w, h, fps, frames.shape) == (2, 2, (30, 1), (2, 3, 2, 2))
    with pytest.raises(ValueError):
        decode_y4m(b"MPEG4 W2 H2\n" + raster)        # wrong magic
    with pytest.raises(ValueError):                  # default C420 raster
        decode_y4m(b"YUV4MPEG2 W2 H2\nFRAME\n" + raster)
    with pytest.raises(ValueError):
        decode_y4m(b"YUV4MPEG2 W2 H2 C444\nFRAME\n" + raster[:6])
    with pytest.raises(ValueError):                  # zero frames
        decode_y4m(b"YUV4MPEG2 W2 H2 C444\n")


def test_video_decoder_stage():
    media = media_rows_from_spans(_doc_batch())
    vids = media.filter(pa.compute.equal(media["media_type"], "video"))
    out = decode_video_batch(fetch_video_payloads(vids))
    assert out.num_rows == vids.num_rows
    for ref, f, bsum, ysum in zip(out["media_ref"].to_pylist(),
                                  out["n_frames"].to_pylist(),
                                  out["byte_sum"].to_pylist(),
                                  out["y_sum"].to_pylist()):
        hh = stable_hash64(ref)
        w, h = 4 + (hh >> 32) % 12, 4 + (hh >> 40) % 8
        want_f = 2 + (hh >> 56) % 6
        n = want_f * w * h * 3
        v = (hh % 256 + 31 * np.arange(n, dtype=np.int64)) % 256
        planes = v.reshape(want_f, 3, h * w)
        assert (f, bsum, ysum) == (want_f, v.sum(),
                                   planes[:, 0].sum())


def test_resize_nn_exact():
    from crawling_infrastructure_ray.stages.multimodal import resize_nn
    px = np.arange(6 * 4 * 3, dtype=np.uint8).reshape(4, 6, 3)
    small = resize_nn(px, 3, 2)
    assert small.shape == (2, 3, 3)
    for yy in range(2):
        for xx in range(3):
            assert (small[yy, xx] == px[(yy * 4) // 2, (xx * 6) // 3]).all()
    # pass-through dims give the identity
    assert np.array_equal(resize_nn(px, 6, 4), px)


def test_media_resizer_stage():
    media = media_rows_from_spans(_doc_batch())
    imgs = media.filter(pa.compute.equal(media["media_type"], "image"))
    out = resize_image_batch(fetch_media_payloads(imgs), max_side=16)
    assert out.num_rows == imgs.num_rows
    from crawling_infrastructure_ray.stages.multimodal import resize_nn
    for ref, rw, rh, s, s2 in zip(out["media_ref"].to_pylist(),
                                  out["resized_w"].to_pylist(),
                                  out["resized_h"].to_pylist(),
                                  out["resized_sum"].to_pylist(),
                                  out["resized_sq_sum"].to_pylist()):
        w, h, px = decode_ppm(make_media_payload(ref))
        m = max(w, h)
        ew, eh = (w, h) if m <= 16 else (w * 16 // m, h * 16 // m)
        assert (rw, rh) == (ew, eh)
        small = resize_nn(px, ew, eh).reshape(-1).astype(np.int64)
        assert (s, s2) == (small.sum(), (small * small).sum())


def test_hash_featurizer():
    media = media_rows_from_spans(_doc_batch())
    out = hash_features_batch(media)
    feats = out["features"].to_pylist()
    assert all(len(f) == HASH_FEATURE_DIM for f in feats)
    assert all(0.0 <= x <= 1.0 for f in feats for x in f)
    # bit-identical to the scalar definition
    ref = out["media_ref"][0].as_py()
    h = stable_hash64(ref)
    want = [((h >> (8 * j)) & 0xFF) / 255.0 for j in range(8)]
    assert feats[0] == want


def test_resize_stub_aspect():
    media = media_rows_from_spans(_doc_batch())
    out = ResizeStub(max_side=256)(media)
    for w, h, rw, rh in zip(out["width"].to_pylist(), out["height"].to_pylist(),
                            out["resized_w"].to_pylist(), out["resized_h"].to_pylist()):
        assert 1 <= max(rw, rh) <= 256
        assert (w >= h) == (rw >= rh)  # orientation preserved
        if max(w, h) <= 256:           # no upscaling
            assert (rw, rh) == (w, h)


def test_frame_sample_plan():
    media = media_rows_from_spans(_doc_batch())
    plan = frame_sample_plan(media, every_ms=60_000)
    vids = media.filter(pa.compute.equal(media["media_type"], "video"))
    if vids.num_rows:
        assert plan.num_rows >= vids.num_rows  # ≥1 frame per video
        assert all(t % 60_000 == 0 for t in plan["frame_ts_ms"].to_pylist())


def test_decode_queries_finish_on_one_cpu(tmp_path):
    """The four decode queries and media_ann_topk run their stages as
    tasks, so they must
    finish on a one-CPU session (an actor pool would take the only CPU
    before the parquet read feeding it ran) and still match their
    DuckDB oracles."""
    import os
    import subprocess
    import sys

    import duckdb
    import pandas as pd

    import __ray_entry__ as entrymod
    from test_queries_oracle import SF as sf
    names = ["media_decode_stats", "audio_decode_stats",
             "video_decode_stats", "media_resize_stats", "media_ann_topk"]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = (
        "import ray\n"
        "ray.init(address='local', num_cpus=1, include_dashboard=False,"
        " logging_level='ERROR')\n"
        "import __ray_entry__ as e\n"
        "q = e.queries()\n"
        f"for n in {names!r}:\n"
        f"    q[n]({sf!r}).to_parquet({str(tmp_path)!r} + '/' + n + '.parquet')\n"
        "ray.shutdown()\n")
    res = subprocess.run([sys.executable, "-c", code], cwd=root,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr[-2000:]
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    for n in names:
        want = con.execute(entrymod.oracle_sql()[n]).fetchdf()
        got = pd.read_parquet(tmp_path / f"{n}.parquet")
        cols = sorted(want.columns)
        assert sorted(got.columns) == cols, n
        got = got[cols].sort_values(cols).reset_index(drop=True)
        want = want[cols].sort_values(cols).reset_index(drop=True)
        assert len(got) > 0, n
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
