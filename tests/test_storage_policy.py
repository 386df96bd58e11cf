"""K1/K2 storage-policy conformance (reference crawler/src/index.ts:220-276).

itemwise (K1): an item whose store fails is reset to initial ALONE —
the rest of the lease commits normally (index.ts:265-268) and the
reset does NOT consume a retry (R7).
merged (K2): one blob per worker, all-or-nothing — a storage failure
resets EVERY item of the lease to initial (index.ts:237-243).
"""

import pyarrow.compute as pc

from crawling_infrastructure_ray.config import JobConfig
from crawling_infrastructure_ray.pipelines.crawl import (read_documents,
                                                         run_crawl_pump)
from crawling_infrastructure_ray.sources.corpus import fetch_outcome
from crawling_infrastructure_ray.state.frontier import Frontier

STOREFAIL = {"store_fail_marker": "STOREFAIL"}


def _urls(n):
    """n clean urls + 1 STOREFAIL url, all chosen to COMPLETE on
    attempt 0 (the corpus injects ~10% deterministic transient fetch
    failures — exclude them so wave counts isolate STORAGE failures)."""
    out, i = [], 0
    while len(out) < n:
        u = f"http://sp.example/ok{i}"
        if fetch_outcome(u, 0, 42)["status"] == "completed":
            out.append(u)
        i += 1
    i = 0
    while True:
        u = f"http://sp.example/STOREFAIL{i}"
        if fetch_outcome(u, 0, 42)["status"] == "completed" \
                and fetch_outcome(u, 1, 42)["status"] == "completed":
            return out + [u]
        i += 1


def test_itemwise_storage_failure_resets_only_that_item(ray_session, tmp_path):
    out = str(tmp_path / "iw")
    res = run_crawl_pump(_urls(9), frontier=Frontier(1, dedup=True), seed=42,
                         max_depth=0, chunk_size=64, rounds="shard",
                         out_dir=out,
                         config=JobConfig(storage_policy="itemwise"),
                         faults=STOREFAIL)
    # first wave: 9 items commit, 1 rolls back alone; second wave
    # re-leases just that item (attempt=1) and succeeds
    assert res.histogram == {"initial": 0, "running": 0,
                             "completed": 10, "failed": 0}
    assert res.counters["rolled_back"] == 1
    docs = read_documents(out).to_pandas()
    assert len(docs) == 10 and docs["doc_id"].is_unique
    # wave 0 wrote the 9 good items; the recovered item landed in a
    # later wave's fragment
    assert sorted(docs["wave"].unique()) == [0, 1]
    assert (docs["wave"] == 1).sum() == 1   # only the recovered item


def test_merged_storage_failure_resets_whole_lease(ray_session, tmp_path):
    out = str(tmp_path / "mg")
    res = run_crawl_pump(_urls(9), frontier=Frontier(1, dedup=True), seed=42,
                         max_depth=0, chunk_size=64, rounds="shard",
                         out_dir=out,
                         config=JobConfig(storage_policy="merged"),
                         faults=STOREFAIL)
    # first wave: the whole 10-item lease rolls back (nothing written);
    # second wave re-leases all 10 (attempt=1) and succeeds
    assert res.histogram == {"initial": 0, "running": 0,
                             "completed": 10, "failed": 0}
    assert res.counters["rolled_back"] == 10
    docs = read_documents(out).to_pandas()
    assert len(docs) == 10 and docs["doc_id"].is_unique
    # all-or-nothing: every document was written by the SECOND wave
    assert sorted(docs["wave"].unique()) == [1]


def test_retries_not_consumed_by_storage_failure(ray_session, tmp_path):
    # drive the frontier directly so we can inspect per-item retries
    out = str(tmp_path / "rt")
    fr = Frontier(1, seed=42, dedup=True)
    run_crawl_pump(_urls(4), frontier=fr, seed=42, max_depth=0,
                   chunk_size=64, rounds="shard", out_dir=out,
                   config=JobConfig(storage_policy="itemwise"),
                   faults=STOREFAIL)
    tbl = fr.dump_table()
    assert pc.max(tbl["retries"]).as_py() == 0   # R7: no retry consumed
    # the storage-failed item was leased twice (attempt counter)
    fail_rows = tbl.filter(pc.match_substring(tbl["url"], "STOREFAIL"))
    assert fail_rows["attempts"].to_pylist() == [2]


def test_storage_policies_in_pump_mode(ray_session, tmp_path):
    """Same K1/K2 semantics through the async pump: both policies
    recover to full completion with unique docs; merged rolls the whole
    lease back (rolled_back == lease size), itemwise only the item."""
    from crawling_infrastructure_ray.pipelines.crawl import run_crawl_pump

    urls = _urls(7)   # 7 clean + 1 STOREFAIL, all complete on attempt 0
    for policy, min_rb in (("itemwise", 1), ("merged", len(urls))):
        out = str(tmp_path / f"p_{policy}")
        res = run_crawl_pump(urls, frontier=Frontier(1, dedup=True), seed=42,
                             max_depth=0, chunk_size=64, out_dir=out,
                             config=JobConfig(storage_policy=policy),
                             faults=STOREFAIL)
        assert res.histogram["completed"] == len(urls), policy
        assert res.counters["rolled_back"] >= min_rb, policy
        docs = read_documents(out).to_pandas()
        assert len(docs) == len(urls) and docs["doc_id"].is_unique, policy


def test_unstored_rows_route_no_children_in_either_driver(ray_session,
                                                          tmp_path):
    """An itemwise storage failure rolls its row back before any child
    is enqueued; the retry that stores it enqueues them once. Without
    URL dedup an early enqueue would crawl those children twice, so
    both drivers must process the same URLs."""
    from crawling_infrastructure_ray.pipelines.crawl import run_crawl_pump

    fails, i = [], 0
    while len(fails) < 6:
        u = f"http://sp.example/STOREFAIL{i}"
        if fetch_outcome(u, 0, 42)["status"] == "completed" \
                and fetch_outcome(u, 1, 42)["status"] == "completed":
            fails.append(u)
        i += 1
    seeds = _urls(20)[:-1] + fails
    kw = dict(seed=42, max_depth=1, chunk_size=64,
              config=JobConfig(storage_policy="itemwise"), faults=STOREFAIL)
    rw = run_crawl_pump(seeds, frontier=Frontier(1), rounds="shard",
                        out_dir=str(tmp_path / "w"), **kw)
    rp = run_crawl_pump(seeds, frontier=Frontier(1),
                        out_dir=str(tmp_path / "p"), **kw)
    assert rw.counters["rolled_back"] == rp.counters["rolled_back"] == 6
    assert rw.histogram == rp.histogram
    assert rw.urls_processed == rp.urls_processed
