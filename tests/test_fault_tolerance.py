"""Lost-worker fault tolerance: crashed fetch tasks roll their lease
back (reference J5/R3 healing) and repeated losses trip the
circuit breaker (CrawlQuarantined) instead of crashing the pump or
silently dropping items."""

import pytest

from crawling_infrastructure_ray.config import JobConfig
from crawling_infrastructure_ray.pipelines.crawl import (CrawlQuarantined,
                                                         run_crawl_pump)
from crawling_infrastructure_ray.state.filters import ScalableSeenFilter
from crawling_infrastructure_ray.state.frontier import Frontier


def test_poisoned_tasks_trip_quarantine(ray_session, tmp_path):
    # every chunk containing a poisoned URL crashes; the lease rolls
    # back, gets re-leased, crashes again → quarantine trips rather
    # than looping forever or raising an unhandled RayTaskError
    urls = [f"http://hq.example/ok{i}" for i in range(40)] + \
           ["http://hq.example/POISON"]
    with pytest.raises(CrawlQuarantined):
        run_crawl_pump(urls, frontier=Frontier(1, dedup=True), seed=42,
                       max_depth=0, chunk_size=64, out_dir=str(tmp_path / "q"),
                       faults={"fail_marker": "POISON"},
                       config=JobConfig(storage_policy="merged",
                                        max_lost_workers=5))


def test_clean_run_without_marker(ray_session, tmp_path):
    urls = [f"http://hq.example/ok{i}" for i in range(40)]
    res = run_crawl_pump(urls, frontier=Frontier(1, dedup=True), seed=42,
                         max_depth=0, chunk_size=16,
                         out_dir=str(tmp_path / "c"),
                         faults={"fail_marker": "POISON"})
    assert res.histogram["completed"] + res.histogram["failed"] == 40


def test_scalable_filter_grows_past_capacity():
    f = ScalableSeenFilter(capacity=256, seed=1)
    keys = [f"http://h{i}.example/p{i}" for i in range(5000)]
    added = sum(f.add(k) for k in keys)   # never raises despite 20x capacity
    assert added >= 4990                  # ≤0.2% false-positive dedupe
    assert len(f.filters) > 1             # grew tiers
    assert all(f.contains(k) for k in keys)
    assert sum(f.add(k) for k in keys) == 0   # all duplicates now
    fp = sum(f.contains(f"http://x{i}.other/") for i in range(5000))
    assert fp / 5000 < 0.02


def test_scalable_filter_state_roundtrip():
    f = ScalableSeenFilter(capacity=128, seed=1)
    for i in range(2000):
        f.add(f"k{i}")
    g = ScalableSeenFilter.from_state(f.state())
    assert g.count == f.count
    assert all(g.contains(f"k{i}") for i in range(2000))


def test_post_store_crash_leaves_no_orphan_fragment(ray_session, tmp_path):
    # worker dies AFTER writing its document fragment but BEFORE the
    # commit: the lease rolls back, the retry (attempt=1) succeeds and
    # writes a NEW part-<lease_id> fragment — the rollback path must
    # delete the orphan so the documents table never double-counts
    import pyarrow.parquet as pq
    from crawling_infrastructure_ray.pipelines.crawl import read_documents

    urls = [f"http://orph.example/ok{i}" for i in range(30)] + \
           ["http://orph.example/POISON"]
    out = str(tmp_path / "orphan")
    res = run_crawl_pump(urls, frontier=Frontier(1, dedup=True), seed=42,
                         max_depth=0, chunk_size=64, out_dir=out,
                         faults={"fail_after_store_marker": "POISON"},
                         config=JobConfig(storage_policy="merged",
                                          max_lost_workers=50))
    assert res.histogram["completed"] == 31
    docs = read_documents(out).to_pandas()
    # every document exactly once — the orphan fragment was removed
    assert len(docs) == 31
    assert docs["doc_id"].is_unique
