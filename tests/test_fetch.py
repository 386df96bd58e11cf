import glob
import os

import pyarrow as pa
import pytest

from crawling_infrastructure_ray.sources.corpus import (
    doc_id_for_url, fetch_outcome, link_children, make_seed_urls, make_spans)
from crawling_infrastructure_ray.stages.fetch import FetchSim


def test_make_seed_urls_deterministic():
    t1 = make_seed_urls(500, seed=42)
    t2 = make_seed_urls(500, seed=42)
    assert t1.equals(t2)
    assert t1.num_rows == 500
    # ~2% duplicates present (FIXTURES F2 — reference allows dups)
    urls = t1["url"].to_pylist()
    assert len(set(urls)) < len(urls)
    # zipf host skew: top host has many more urls than median host
    hosts = t1["host"].to_pylist()
    from collections import Counter
    counts = sorted(Counter(hosts).values(), reverse=True)
    assert counts[0] >= 3 * counts[len(counts) // 2]


def test_fetch_outcome_deterministic_and_mixed():
    urls = make_seed_urls(1000, seed=42)["url"].to_pylist()
    outs = [fetch_outcome(u, 0, 42) for u in urls]
    assert outs == [fetch_outcome(u, 0, 42) for u in urls]
    statuses = {o["status"] for o in outs}
    assert statuses == {"completed", "failed", "blocked"}
    # transient failures eventually succeed (fail_until ≤ 2 < max_retries 3)
    for u, o in zip(urls, outs):
        if o["status"] == "failed" and o["error"].startswith("net::"):
            assert fetch_outcome(u, 2, 42)["status"] == "completed"
        if o["status"] == "blocked":
            assert fetch_outcome(u, 1, 42)["status"] == "completed"


def test_make_spans_invariants():
    spans = make_spans("http://h1.example/p1", seed=42)
    assert 1 <= len(spans) <= 13
    offset = 0
    for i, s in enumerate(spans):
        # alternation: even = text, odd = media (FIXTURES F1)
        if i % 2 == 0:
            assert s["kind"] == "text" and s["text"] and s["media_ref"] == ""
        else:
            assert s["kind"] == "media" and s["text"] == "" and s["media_ref"].startswith("m://")
        assert s["offset"] == offset  # cumulative text offsets
        offset += len(s["text"])
    assert make_spans("http://h1.example/p1", seed=42) == spans
    assert make_spans("http://h1.example/p1", seed=7) != spans


def test_link_children_bounds_and_depth_cap():
    kids = link_children("http://h1.example/p1", 0, seed=42, max_depth=2)
    assert 0 <= len(kids) <= 5
    assert link_children("http://h1.example/p1", 2, seed=42, max_depth=2) == []
    assert kids == link_children("http://h1.example/p1", 0, seed=42, max_depth=2)


def test_fetchsim_batch_schema():
    urls = ["http://h1.example/a", "http://h2.example/b"]
    batch = pa.table({"url": pa.array(urls),
                      "depth": pa.array([0, 0], pa.int32()),
                      "attempt": pa.array([0, 0], pa.int32())})
    out = FetchSim(seed=42)(batch)
    assert out.num_rows == 2
    for col in ("status", "error", "latency_ms", "doc_id", "spans", "discovered"):
        assert col in out.column_names
    ok_rows = [i for i, s in enumerate(out["status"].to_pylist()) if s == "completed"]
    for i in ok_rows:
        assert out["doc_id"][i].as_py() == doc_id_for_url(urls[i])
        assert len(out["spans"][i].as_py()) >= 1


def test_fetchsim_randomize_columns(ray_session):
    """M8 in the fetch stage: FetchSim(randomize=True) emits the same
    deterministic per-URL draws as the standalone randomize_batch."""
    import pyarrow as pa
    from crawling_infrastructure_ray.functions.randomizers import randomize_batch
    from crawling_infrastructure_ray.stages.fetch import FetchSim
    urls = [f"http://rz.example/u{i}" for i in range(20)]
    batch = pa.table({"url": pa.array(urls),
                      "depth": pa.array([0] * 20, pa.int32()),
                      "retries": pa.array([0] * 20, pa.int32())})
    out = FetchSim(seed=42, randomize=True)(batch)
    for c in ("user_agent", "accept_language", "viewport_w", "viewport_h"):
        assert c in out.column_names
    want = randomize_batch(pa.table({"url": pa.array(urls)}), seed=42)
    assert out["user_agent"].to_pylist() == want["user_agent"].to_pylist()
    assert out["viewport_w"].to_pylist() == want["viewport_w"].to_pylist()
    # default path emits no randomizer columns (schema unchanged)
    plain = FetchSim(seed=42)(batch)
    assert "user_agent" not in plain.column_names


# ----------------------------------------------------------------------
# the documents table a crawl writes, and fingerprints derived from it
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def pump_docs(ray_session, tmp_path_factory):
    from crawling_infrastructure_ray.pipelines.crawl import run_crawl_pump
    from crawling_infrastructure_ray.state.frontier import Frontier
    out = str(tmp_path_factory.mktemp("pump_docs"))
    seeds = make_seed_urls(200, seed=7)["url"].to_pylist()
    res = run_crawl_pump(seeds, frontier=Frontier(2, seed=7, dedup=True),
                         seed=7, max_depth=1, chunk_size=64, out_dir=out)
    files = sorted(glob.glob(os.path.join(out, "documents", "part-*.parquet")))
    assert files and res.docs_written > 0
    return files


def test_crawl_fragments_have_docs_schema(pump_docs):
    import pyarrow.parquet as pq

    from crawling_infrastructure_ray.stages.fetch import DOCS_SCHEMA
    assert "fingerprint" not in DOCS_SCHEMA.names
    for f in pump_docs:
        assert pq.read_schema(f).equals(DOCS_SCHEMA), f


def test_on_demand_fingerprints_match_scalar(pump_docs):
    """A reader's fingerprints (span_text + rolling_fingerprint_col over
    the stored spans) are the scalar fingerprint of each document's
    text spans joined by a space."""
    import pyarrow.parquet as pq

    from crawling_infrastructure_ray.functions.hashing import (
        rolling_fingerprint, rolling_fingerprint_col)
    from crawling_infrastructure_ray.stages.text import span_text
    docs = pa.concat_tables(pq.read_table(f, columns=["spans"])
                            for f in pump_docs)
    got = rolling_fingerprint_col(span_text(docs["spans"])).to_pylist()
    want = [rolling_fingerprint(" ".join(s["text"] for s in spans
                                         if s["kind"] == "text"))
            for spans in docs["spans"].to_pylist()]
    assert len(got) == docs.num_rows and got == want
