import numpy as np
import pandas as pd
import pandas as pd
import pyarrow as pa
import ray.data as rd

from crawling_infrastructure_ray.stages.simsearch import IVFIndex, brute_force_topk
from crawling_infrastructure_ray.stages.text import (
    langid_batch, quality_score_batch, token_count_batch)


def _docs():
    return pa.table({
        "doc_id": pa.array(["a", "b", "c", "d"]),
        "text": pa.array([
            "the cat sat on the mat and it is a good day for the cat",
            "el gato y la casa de la madre en un lugar que era grande",
            "der hund und die katze ist mit den kindern von zu haus",
            "一个中文文档的示例内容",
        ])})


def test_token_count():
    out = token_count_batch(_docs())
    assert out["n_tokens"].to_pylist()[0] == len(_docs()["text"][0].as_py().split())
    assert all(n > 0 for n in out["n_bpeish"].to_pylist())


def test_quality_scores_exact_integers():
    out = quality_score_batch(_docs())
    row0_len = len(_docs()["text"][0].as_py())
    assert out["n_chars_q"].to_pylist()[0] == row0_len
    toks = _docs()["text"][0].as_py().split()
    want = (sum(len(t) for t in toks) * 1000) // len(toks)
    assert out["avg_token_len_e3"].to_pylist()[0] == want
    assert out["punct_ratio_e4"].to_pylist()[0] == 0


def test_langid_heuristic():
    out = langid_batch(_docs())
    assert out["lang_pred"].to_pylist() == ["en", "es", "de", "zh"]


def _emb_ds(n=64, d=16, seed=3):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n, d))
    return rd.from_arrow(pa.table({
        "vec_id": pa.array(range(n), pa.int64()),
        "embedding": pa.array([list(v) for v in mat], pa.list_(pa.float32()))})), mat


def _exact_topk(mat, q, k):
    qn = q / np.linalg.norm(q)
    mn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = mn @ qn
    order = np.lexsort((np.arange(len(sims)), -sims))
    return order[:k].tolist()


def test_brute_force_topk_matches_numpy(ray_session):
    ds, mat = _emb_ds()
    q = mat[5]
    out = brute_force_topk(ds, q[None, :], [99], k=5)
    assert out["neighbor_id"].tolist() == _exact_topk(mat, q, 5)
    assert out["rank"].tolist() == [1, 2, 3, 4, 5]
    assert out.iloc[0]["neighbor_id"] == 5       # self is nearest
    assert out.iloc[0]["cosine"] == 1.0


def test_ivf_recall(ray_session):
    ds, mat = _emb_ds(128, 16)
    index = IVFIndex(ds, n_centroids=4, seed=0)
    q = mat[7]
    out = index.search(q[None, :], [0], k=5, nprobe=4)  # all partitions → exact
    assert out["neighbor_id"].tolist() == _exact_topk(mat, q, 5)
    part = index.search(q[None, :], [0], k=5, nprobe=1)  # probe 1 → still finds self
    assert 7 in part["neighbor_id"].tolist()


def test_ivf_disk_partition_layout(ray_session, tmp_path):
    """save/load round-trip: the on-disk per-centroid partition layout
    must return IDENTICAL results to the in-memory search while only
    reading the probed partition directories."""
    import os
    ds, mat = _emb_ds(128, 16)
    index = IVFIndex(ds, n_centroids=4, seed=0)
    path = str(tmp_path / "ivf")
    index.save(path)
    dirs = sorted(d for d in os.listdir(path) if d.startswith("centroid="))
    assert len(dirs) == 4
    loaded = IVFIndex.load(path)
    q = mat[7]
    mem = index.search(q[None, :], [0], k=5, nprobe=2)
    disk = loaded.search_partitions(q[None, :], [0], k=5, nprobe=2)
    pd.testing.assert_frame_equal(mem.reset_index(drop=True),
                                  disk.reset_index(drop=True),
                                  check_dtype=False)
    # full probe from disk == exact brute
    full = loaded.search_partitions(q[None, :], [0], k=5, nprobe=4)
    assert full["neighbor_id"].tolist() == _exact_topk(mat, q, 5)


def test_redact_batch_scrubs_pii_vectorized():
    import pyarrow as pa
    from crawling_infrastructure_ray.stages.text import redact_batch
    batch = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array([
            "contact bob.smith+x@example.co.uk today",
            "call +1 (415) 555-0199 or 020-7946-0958 now",
            "host 192.168.0.1 responded, no pii here otherwise",
            None]),
    })
    out = redact_batch(batch)
    texts = out["text"].to_pylist()
    assert texts[0] == "contact <EMAIL> today"
    assert "<PHONE>" in texts[1] and "555" not in texts[1] \
        and "7946" not in texts[1]
    assert texts[2].startswith("host <IP> responded")
    assert texts[3] == ""
    assert out["n_redactions"].to_pylist() == [1, 2, 1, 0]


def test_span_text_joins_text_spans():
    """span_text == the per-document join of text spans, "" for empty
    and media-only span lists, on slices and multi-chunk columns."""
    from crawling_infrastructure_ray.sources.corpus import (make_spans,
                                                            spans_arrow_type)
    from crawling_infrastructure_ray.stages.text import span_text
    spans = [make_spans(f"http://h{i}.example/p{i}", seed=42)
             for i in range(12)]
    spans[0] = []
    spans[5] = [s for s in spans[5] if s["kind"] != "text"]
    want = [" ".join(s["text"] for s in sp if s["kind"] == "text")
            for sp in spans]
    assert want[0] == want[5] == ""
    col = pa.array(spans, spans_arrow_type())
    assert span_text(col).to_pylist() == want
    assert span_text(col.slice(3, 6)).to_pylist() == want[3:9]
    assert span_text(pa.chunked_array([col.slice(0, 7), col.slice(7)])) \
        .to_pylist() == want
    assert span_text(col.slice(0, 0)).to_pylist() == []
