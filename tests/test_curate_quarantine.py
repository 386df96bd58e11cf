import pytest

from crawling_infrastructure_ray.pipelines.crawl import (CrawlQuarantined,
                                                         check_quarantine,
                                                         run_crawl_pump)
from crawling_infrastructure_ray.pipelines.curate import curate_documents
from crawling_infrastructure_ray.pipelines.crawl import read_documents
from crawling_infrastructure_ray.sources.corpus import make_seed_urls
from crawling_infrastructure_ray.state.frontier import Frontier, FrontierShardCore


def test_check_quarantine_rule():
    # daemon.ts:141-149: BOTH thresholds must trip
    check_quarantine({"expired_leases": 5, "leases_issued": 100})   # lost < 10
    check_quarantine({"expired_leases": 10, "leases_issued": 5000})  # ratio < 1%
    with pytest.raises(CrawlQuarantined):
        check_quarantine({"expired_leases": 10, "leases_issued": 100})


def test_lost_lease_counters():
    sh = FrontierShardCore(0, lease_ttl=10.0)
    sh.enqueue(list(range(4)), [f"http://h.example/{i}" for i in range(4)],
               [0] * 4)
    sh.lease(2, now=0.0)
    sh.lease(2, now=0.0)
    assert sh.get_counters()["leases_issued"] == 2
    sh.expire_leases(now=100.0)
    assert sh.get_counters()["expired_leases"] == 2


def test_cross_task_enqueue_six_rows(ray_session):
    """remote_tests.ts:178-211 analog: a crawl of task A enqueues 1
    child per item into task B's queue ⇒ B has exactly 3 + 3 = 6 rows
    (its own seeds + cross-enqueued)."""
    import ray
    fa = Frontier(1, seed=1, dedup=False)
    fb = Frontier(1, seed=2, dedup=False)
    fa.enqueue([f"http://ha.example/{i}" for i in range(3)])
    fb.enqueue([f"http://hb.example/{i}" for i in range(3)])
    lease = fa.lease_wave(3)[0]
    ray.get(fa.commit(0, lease["lease_id"], lease["seq"], ["completed"] * 3))
    # worker-side enqueue() to ANOTHER task's queue (enqueue.ts:71-116)
    fb.enqueue([f"{u}/child" for u in lease["url"]], [1, 1, 1])
    assert fb.dump_table().num_rows == 6
    assert fa.dump_table().num_rows == 3


def test_curation_pipeline(ray_session, tmp_path):
    seeds = make_seed_urls(300, seed=42)["url"].to_pylist()
    res = run_crawl_pump(seeds, frontier=Frontier(2, dedup=True), seed=42,
                         max_depth=1, chunk_size=64,
                         out_dir=str(tmp_path / "crawl"))
    docs = read_documents(res.out_dir)
    summary = curate_documents(docs, str(tmp_path / "curated"))
    assert summary["n_input"] == res.docs_written
    assert 0 < summary["n_curated"] <= summary["n_quality_filtered"] <= summary["n_input"]
    # curated table readable and schema-stable
    import ray.data as rd
    cur = rd.read_parquet(str(tmp_path / "curated"))
    assert cur.count() == summary["n_curated"]
    cols = set(cur.schema().names)
    assert {"doc_id", "text", "lang_pred", "n_chars_q"} <= cols
    # deduped: content hashes unique
    texts = cur.to_pandas()["text"]
    assert texts.nunique() == len(texts)
