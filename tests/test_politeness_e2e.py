"""Politeness end-to-end: the pump obeys per-host token buckets —
per-host claim rate never exceeds the budget (FIXTURES.md politeness
scenario), and robots-denied URLs are terminally failed."""

import time

from crawling_infrastructure_ray.pipelines.crawl import run_crawl_pump
from crawling_infrastructure_ray.state.frontier import Frontier


def test_pump_respects_host_budget(ray_session, tmp_path):
    # 2 hosts x 40 URLs, budget 40/s with burst 4 → the crawl MUST take
    # ≥ ~0.8s (politeness-bound), vs milliseconds unbounded
    urls = [f"http://h{h}.example/p{i}" for h in range(2) for i in range(40)]
    t0 = time.perf_counter()
    fr = Frontier(2, dedup=True, politeness=True, default_rate=40.0)
    res = run_crawl_pump(urls, frontier=fr, seed=42, max_depth=0,
                         chunk_size=8, out_dir=str(tmp_path / "pol"))
    elapsed = time.perf_counter() - t0
    assert res.histogram["completed"] + res.histogram["failed"] == 80
    # (40 urls - burst 4) / 40 per sec ≈ 0.9s minimum per host (parallel hosts)
    assert elapsed >= 0.8
    h = res.histogram
    assert h["initial"] == 0 and h["running"] == 0


def test_pump_waits_out_a_slow_host(ray_session, tmp_path):
    """One host at 0.1 URL/s, burst 1: the second URL can be claimed
    10 s after the first. The pump sleeps until the host's bucket
    refills (``Frontier.claim_wait``) instead of giving up on an open
    item."""
    fr = Frontier(1, dedup=True, politeness=True, default_rate=0.1,
                  default_burst=1.0)
    t0 = time.perf_counter()
    res = run_crawl_pump(["http://slow.example/p1", "http://slow.example/p2"],
                         frontier=fr, seed=42, max_depth=0, chunk_size=4,
                         out_dir=str(tmp_path / "slow"))
    assert res.histogram == {"initial": 0, "running": 0, "completed": 2,
                             "failed": 0}
    assert time.perf_counter() - t0 >= 9.5


def test_pump_ends_when_only_paused_hosts_remain(ray_session, tmp_path):
    """A host at rate 0 never refills: once its burst is spent the pump
    ends at once, leaving its other item open."""
    fr = Frontier(1, dedup=True, politeness=True, default_rate=100.0,
                  politeness_overrides={"paused.example": (0.0, 1.0)})
    t0 = time.perf_counter()
    res = run_crawl_pump(["http://paused.example/p1",
                          "http://paused.example/p2",
                          "http://open.example/p1"],
                         frontier=fr, seed=42, max_depth=0, chunk_size=4,
                         out_dir=str(tmp_path / "paused"))
    assert res.histogram["initial"] == 1
    assert res.histogram["completed"] + res.histogram["failed"] == 2
    assert time.perf_counter() - t0 < 3.0


def test_pump_unbounded_is_fast(ray_session, tmp_path):
    urls = [f"http://h{h}.example/p{i}" for h in range(2) for i in range(40)]
    t0 = time.perf_counter()
    run_crawl_pump(urls, frontier=Frontier(2, dedup=True), seed=42,
                   max_depth=0, chunk_size=40, out_dir=str(tmp_path / "nopol"))
    assert time.perf_counter() - t0 < 5.0


def test_robots_in_engine(ray_session, tmp_path):
    urls = [f"http://h1.example/s{i}/p" for i in range(60)]
    res = run_crawl_pump(urls, frontier=Frontier(1, dedup=True, robots=True),
                         seed=42, max_depth=0, chunk_size=16,
                         out_dir=str(tmp_path / "rob"))
    denied = res.counters["robots_denied"]
    assert denied > 0
    h = res.histogram
    # every item terminal; denied items are failed without ever fetching
    assert h["completed"] + h["failed"] == 60
    assert h["failed"] >= denied
    # fetch attempts (incl. retries) cover exactly the non-denied items
    assert res.urls_processed >= 60 - denied


def _step_clock(dt=1.0):
    t = [0.0]

    def now():
        t[0] += dt
        return t[0]
    return now


def test_politeness_ordering_matches_oracle(ray_session, tmp_path):
    """North-rule conformance: identical crawl ORDERING under the same
    seed list AND politeness budget. Engine (K=1 wave mode) and the
    single-threaded oracle run on identical virtual step clocks with a
    3-host token-bucket budget; claim sequences must match exactly —
    and must differ from the unbounded ordering (the budget actually
    shaped the order)."""
    import glob
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from crawling_infrastructure_ray.pipelines.oracle import oracle_crawl
    from crawling_infrastructure_ray.pipelines.crawl import run_crawl_pump

    urls = [f"http://h{h}.example/q{i}" for i in range(20) for h in range(3)]
    # ASYMMETRIC budget: h0 is slow (1/s, burst 2), others fast — h0's
    # items fall behind their FIFO positions, reshaping the claim order
    budget = dict(politeness=True, default_rate=8.0, default_burst=4.0,
                  politeness_overrides={"h0.example": (1.0, 2.0)})

    golden = oracle_crawl(urls, seed=42, dedup=True, max_depth=0,
                          items_per_wave=64, now_fn=_step_clock(), **budget)
    out = str(tmp_path / "polconf")
    res = run_crawl_pump(urls, frontier=Frontier(1, dedup=True, **budget),
                         seed=42, max_depth=0, chunk_size=64, rounds="shard",
                         out_dir=out, now_fn=_step_clock())

    files = sorted(glob.glob(os.path.join(out, "claims", "*.parquet")))
    claims = pa.concat_tables([pq.read_table(f) for f in files]) \
        .sort_by([("wave", "ascending"), ("enqueue_seq", "ascending")])
    got = list(zip(claims["enqueue_seq"].to_pylist(),
                   claims["url"].to_pylist(),
                   claims["attempt"].to_pylist()))
    want = [(s, u, a) for (_, s, u, a) in golden["claim_order"]]
    assert got == want
    assert res.histogram == golden["histogram"]

    # sanity: the budget reshaped the order vs the unbounded golden
    free = oracle_crawl(urls, seed=42, dedup=True, max_depth=0,
                        items_per_wave=64)
    assert [x[1] for x in free["claim_order"]] != [x[1] for x in
                                                  golden["claim_order"]]
