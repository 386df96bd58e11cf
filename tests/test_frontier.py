"""Frontier state-machine tests — pytest ports of the reference's
queue-semantics assertions (crawler/test/remote_tests.ts, SURVEY.md §5):
observable row counts and statuses after orchestrated lease/commit/
rollback/retry sequences, plus the SURVEY.md §3.2 ordering invariant.

These run on FrontierShardCore directly (no Ray) — the single-writer
core IS the semantics; the actor wrapper adds only message passing.
"""

import pytest

from crawling_infrastructure_ray.state.filters import ExactSeenSet
from crawling_infrastructure_ray.state.frontier import (
    COMPLETED, FAILED, INITIAL, RUNNING, FrontierShardCore)

SEED = 42


def make_shard(**kw):
    kw.setdefault("order", "fifo")
    return FrontierShardCore(0, **kw)


def enqueue_urls(shard, urls, start_seq=0, depth=0):
    shard.enqueue(list(range(start_seq, start_seq + len(urls))), urls,
                  [depth] * len(urls))
    return start_seq + len(urls)


def test_fifo_claim_order():
    # §3.2: claim = first n rows in enqueue_seq order with status==initial
    sh = make_shard()
    enqueue_urls(sh, [f"http://h.example/{i}" for i in range(10)])
    lease = sh.lease(4, now=0.0)
    assert lease["seq"] == [0, 1, 2, 3]
    lease2 = sh.lease(4, now=0.0)
    assert lease2["seq"] == [4, 5, 6, 7]


def test_lease_marks_running_and_commit_completes():
    # remote_tests.ts:26-110 — lease of 3 → 3 completed
    sh = make_shard()
    enqueue_urls(sh, [f"http://h.example/{i}" for i in range(3)])
    lease = sh.lease(3, now=0.0)
    assert sh.status_histogram() == {"initial": 0, "running": 3, "completed": 0, "failed": 0}
    sh.commit(lease["lease_id"], lease["seq"], ["completed"] * 3, now=1.0)
    assert sh.status_histogram() == {"initial": 0, "running": 0, "completed": 3, "failed": 0}
    assert sh.is_finished()


def test_rollback_on_abort():
    # remote_tests.ts:112-145 — no-proxy failure rolls ALL lease items
    # back to initial, zero crawled
    sh = make_shard()
    enqueue_urls(sh, [f"http://h.example/{i}" for i in range(5)])
    lease = sh.lease(5, now=0.0)
    n = sh.rollback(lease["lease_id"])
    assert n == 5
    assert sh.status_histogram()["initial"] == 5
    # retries unchanged by rollback (R5)
    release = sh.lease(5, now=0.0)
    assert release["retries"] == [0] * 5
    # and FIFO position preserved
    assert release["seq"] == [0, 1, 2, 3, 4]


def test_partial_commit_rolls_back_remainder():
    # R5/R7: uncommitted lease members return to initial
    sh = make_shard()
    enqueue_urls(sh, [f"http://h.example/{i}" for i in range(4)])
    lease = sh.lease(4, now=0.0)
    sh.commit(lease["lease_id"], lease["seq"][:2], ["completed", "failed"], now=1.0)
    h = sh.status_histogram()
    assert h == {"initial": 2, "running": 0, "completed": 1, "failed": 1}


def test_retry_at_original_position():
    # R1 (queue.model.ts:258-266): failed→initial keeps original seq position
    sh = make_shard(max_retries=3)
    enqueue_urls(sh, [f"http://h.example/{i}" for i in range(4)])
    lease = sh.lease(2, now=0.0)           # seqs 0,1
    sh.commit(lease["lease_id"], lease["seq"], ["failed", "completed"], now=1.0)
    assert sh.retry_failed() == 1          # seq 0 back to initial
    lease2 = sh.lease(3, now=2.0)
    # seq 0 re-claimed FIRST (original position), before 2 and 3
    assert lease2["seq"] == [0, 2, 3]
    assert lease2["retries"][0] == 1


def test_retry_exhaustion_terminal():
    sh = make_shard(max_retries=3)
    enqueue_urls(sh, ["http://h.example/x"])
    for attempt in range(3):
        lease = sh.lease(1, now=float(attempt))
        assert lease["seq"] == [0]
        sh.commit(lease["lease_id"], [0], ["failed"], now=float(attempt))
        retried = sh.retry_failed()
        if attempt < 2:
            assert retried == 1
        else:
            assert retried == 0            # retries==3 → terminal
    assert sh.status_histogram()["failed"] == 1
    assert sh.is_finished()
    assert sh.seen_set() == ["http://h.example/x"]


def test_blocked_does_not_consume_retry():
    # R6 (handler.ts:171-176): block-detected failure keeps retries
    sh = make_shard(max_retries=3)
    enqueue_urls(sh, ["http://h.example/x"])
    lease = sh.lease(1, now=0.0)
    assert lease["attempt"] == [0]
    sh.commit(lease["lease_id"], [0], ["blocked"], ["HTTP 429"], now=0.0)
    assert sh.retry_failed() == 1
    lease2 = sh.lease(1, now=1.0)
    assert lease2["retries"] == [0]        # unchanged
    assert lease2["attempt"] == [1]        # but attempt advanced


def test_requeue_all_failed_resets():
    # R4 (queue.model.ts:274-287)
    sh = make_shard(max_retries=1)
    enqueue_urls(sh, ["http://h.example/a", "http://h.example/b"])
    lease = sh.lease(2, now=0.0)
    sh.commit(lease["lease_id"], lease["seq"], ["failed", "failed"], now=0.0)
    assert sh.status_histogram()["failed"] == 2
    assert sh.requeue_all_failed() == 2
    lease2 = sh.lease(2, now=1.0)
    assert lease2["retries"] == [0, 0]     # counters reset


def test_heal_running():
    # R2 (queue.model.ts:295-308)
    sh = make_shard()
    enqueue_urls(sh, ["http://h.example/a", "http://h.example/b"])
    sh.lease(2, now=0.0)
    assert sh.heal_running() == 2
    assert sh.status_histogram()["initial"] == 2


def test_lease_ttl_expiry():
    # R3 lost-worker healing via lease TTL
    sh = make_shard(lease_ttl=10.0)
    enqueue_urls(sh, ["http://h.example/a"])
    sh.lease(1, now=0.0)
    assert sh.expire_leases(now=5.0) == 0
    assert sh.expire_leases(now=10.0) == 1
    assert sh.status_histogram()["initial"] == 1


def test_duplicates_allowed_fidelity_mode():
    # reference allows duplicates (crawltask.service.ts:782-785)
    sh = make_shard(dedup=False)
    enqueue_urls(sh, ["http://h.example/x", "http://h.example/x"])
    assert sh.status_histogram()["initial"] == 2


def test_dedup_mode_filters():
    sh = make_shard(dedup=True)
    n = sh.enqueue([0, 1, 2], ["http://h.example/x", "http://h.example/x",
                               "http://h.example/y"], [0, 0, 0])
    assert n == 2
    assert sh.get_counters()["deduped"] == 1
    # canonicalization-aware: same canonical form is a duplicate
    n2 = sh.enqueue([3], ["HTTP://H.EXAMPLE:80/x#frag"], [0])
    assert n2 == 0


def test_robots_denial_is_terminal():
    sh = make_shard(robots=True, seed=42)
    urls = [f"http://h1.example/s{i}/p" for i in range(40)]
    enqueue_urls(sh, urls)
    lease = sh.lease(40, now=0.0)
    h = sh.status_histogram()
    denied = h["failed"]
    assert denied > 0 and lease["seq"]     # some denied, some leased
    assert sh.get_counters()["robots_denied"] == denied
    sh.commit(lease["lease_id"], lease["seq"],
              ["completed"] * len(lease["seq"]), now=0.0)
    assert sh.retry_failed() == 0          # robots denial never retried
    assert sh.is_finished()


def test_politeness_defers_but_preserves_order():
    # FIXTURES.md scenario: per-host gaps ≥ budget, order within host kept
    sh = make_shard(politeness=True, default_rate=1.0, default_burst=1.0)
    enqueue_urls(sh, ["http://a.example/1", "http://a.example/2",
                      "http://b.example/1"])
    lease = sh.lease(3, now=0.0)
    # one token per host: a/1 and b/1 claimed, a/2 deferred
    assert lease["url"] == ["http://a.example/1", "http://b.example/1"]
    sh.commit(lease["lease_id"], lease["seq"], ["completed"] * 2, now=0.0)
    assert sh.lease(3, now=0.5)["seq"] == []   # bucket not refilled yet
    lease2 = sh.lease(3, now=1.0)
    assert lease2["url"] == ["http://a.example/2"]


def test_claim_wait_reports_when_a_parked_host_refills():
    sh = make_shard(politeness=True, default_rate=0.5, default_burst=1.0,
                    politeness_overrides={"paused.example": (0.0, 1.0)})
    assert sh.claim_wait(now=0.0) == float("inf")          # nothing open
    enqueue_urls(sh, ["http://a.example/1", "http://a.example/2"])
    assert sh.claim_wait(now=0.0) == 0.0                   # heap holds items
    assert sh.lease(2, now=0.0)["url"] == ["http://a.example/1"]
    assert sh.claim_wait(now=0.5) == pytest.approx(1.5)    # refill at t=2
    assert sh.claim_wait(now=3.0) == 0.0
    assert sh.lease(2, now=2.0)["url"] == ["http://a.example/2"]
    enqueue_urls(sh, ["http://paused.example/1", "http://paused.example/2"],
                 start_seq=2)
    assert sh.lease(2, now=2.0)["url"] == ["http://paused.example/1"]
    assert sh.claim_wait(now=2.0) == float("inf")          # rate 0: never


def test_priority_order_mode():
    # north-star heap: (crawl_depth, -priority, enqueue_seq)
    sh = make_shard(order="priority")
    sh.enqueue([0], ["http://h.example/deep"], [2], [1])
    sh.enqueue([1], ["http://h.example/shallow"], [0], [1])
    sh.enqueue([2], ["http://h.example/hi-prio"], [0], [5])
    lease = sh.lease(3, now=0.0)
    assert lease["url"] == ["http://h.example/hi-prio",
                            "http://h.example/shallow",
                            "http://h.example/deep"]


def test_evict_terminal_keeps_histogram():
    sh = make_shard()
    enqueue_urls(sh, [f"http://h.example/{i}" for i in range(6)])
    lease = sh.lease(4, now=0.0)
    sh.commit(lease["lease_id"], lease["seq"],
              ["completed", "completed", "failed", "completed"], now=1.0)
    before = sh.status_histogram()
    seen_before = sh.seen_set()
    assert sh.evict_terminal() == 3        # 3 completed evicted (failed not terminal yet)
    assert sh.status_histogram() == before
    assert sh.seen_set() == seen_before


def test_snapshot_restore_roundtrip(tmp_path):
    sh = make_shard(dedup=True, max_retries=3)
    enqueue_urls(sh, [f"http://h{i % 3}.example/{i}" for i in range(10)])
    lease = sh.lease(4, now=0.0)
    sh.commit(lease["lease_id"], lease["seq"][:3],
              ["completed", "failed", "blocked"], now=1.0)
    # seq 3 still running (in-flight lease) at snapshot time
    sh.snapshot(str(tmp_path / "s0"))
    sh2 = FrontierShardCore(0)
    sh2.restore(str(tmp_path / "s0"))
    h2 = sh2.status_histogram()
    # running item healed to initial on restore
    assert h2 == {"initial": 7, "running": 0, "completed": 1, "failed": 2}
    assert sh2.seen_set() == sh.seen_set()
    assert sh2.get_counters() == sh.get_counters()
    # dedup filter survives: re-enqueue of a seen URL is filtered
    assert sh2.enqueue([99], ["http://h0.example/0"], [0]) == 0
    # FIFO resumes at correct position (healed 3 first, then 4..)
    assert sh2.lease(3, now=2.0)["seq"] == [3, 4, 5]


def test_enqueue_dataset_distributed_ingest(ray_session, tmp_path):
    """S1/S2 at scale: Dataset-driven ingest routes batches to shards
    from inside map_batches tasks — same final state as driver-side
    enqueue (histogram totals, dedup, host→shard affinity), and the
    crawl over it drains normally."""
    import ray.data as rd
    import pyarrow as pa
    from crawling_infrastructure_ray.pipelines.crawl import run_crawl_pump
    from crawling_infrastructure_ray.sources.corpus import make_seed_urls

    seeds = make_seed_urls(2000, seed=7, num_hosts=64)
    urls = seeds["url"].to_pylist()
    n_distinct = len(set(urls))

    from crawling_infrastructure_ray.state.frontier import Frontier
    fr = Frontier(4, seed=42, dedup=True)
    ds = rd.from_arrow(pa.table({"url": seeds["url"]}))
    inserted = fr.enqueue_dataset(ds)
    assert inserted == n_distinct               # dedup inside shards
    assert fr.status_histogram()["initial"] == n_distinct

    # same totals as the driver-side path
    from crawling_infrastructure_ray.state.frontier import Frontier
    fr2 = Frontier(4, seed=42, dedup=True)
    assert fr2.enqueue(urls) == n_distinct

    # host→shard affinity: re-inserting a URL (any route) dedups
    assert fr.enqueue([urls[0]]) == 0

    res = run_crawl_pump(None, frontier=fr, seed=42, max_depth=0,
                         chunk_size=256, out_dir=str(tmp_path / "di"))
    h = res.histogram
    assert h["initial"] == 0 and h["running"] == 0
    assert h["completed"] + h["failed"] == n_distinct


# ----------------------------------------------------------------------
# one host rule for routing (functions.urltools.url_host)
# ----------------------------------------------------------------------
ROUTING_URLS = ["http://a.com?x=1", "http://a.com#f", "HTTP://A.com:81/p",
                "http://u@a.com/p", "https://a.com"]


@pytest.mark.parametrize("url", ROUTING_URLS)
def test_canonical_forms_agree_on_host(url):
    from crawling_infrastructure_ray.functions.urltools import (
        canonicalize_and_host, canonicalize_url, parse_host, url_host)
    canon = canonicalize_url(url)
    assert canonicalize_and_host(url) == (canon, parse_host(canon))
    assert url_host(url) == parse_host(canon) == "a.com"


@pytest.fixture(scope="module")
def routing_frontier(ray_session):
    from crawling_infrastructure_ray.state.frontier import Frontier
    return Frontier(4, seed=42, dedup=True)


def _check_every_router(fr, url, host, filler):
    """Each router sends ``url`` to the shard of ``host``: the driver
    enqueue (alone and in a batch), the Dataset ingest and the chunk
    task's child routing all hit the shard-local seen filter, and
    ``requeue_matching`` finds the crawled item where it lives."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    import ray.data as rd

    from crawling_infrastructure_ray.functions.hashing import stable_hash64
    from crawling_infrastructure_ray.pipelines.requeue import \
        requeue_matching
    from crawling_infrastructure_ray.state.frontier import (
        route_discovered, shard_of_urls)

    sh = stable_hash64(host, 42) % 4
    assert shard_of_urls([url], 42, 4).tolist() == [sh]
    assert shard_of_urls([url] + filler, 42, 4)[0] == sh
    seq = fr.next_seq
    assert fr.enqueue([url]) == 1
    assert fr.enqueue([url] + filler) == len(filler)
    assert fr.enqueue_dataset(rd.from_arrow(pa.table({"url": [url]}))) == 0
    refs = route_discovered(fr.shards, pa.array([url]), [1], 42, lease_id=7)
    assert list(refs) == [sh] and ray.get(refs[sh]) == 0
    # crawl the item on its shard, then requeue it by its host
    lease = ray.get(fr.shards[sh].lease_seqs.remote([seq]))
    assert lease["seq"] == [seq] and lease["host"] == [host]
    ray.get(fr.commit(sh, lease["lease_id"], [seq], ["completed"]))
    docs = rd.from_arrow(pa.table({"enqueue_seq": pa.array([seq], pa.uint64()),
                                   "host": [host]}))
    assert requeue_matching(fr, docs, lambda b: pc.is_valid(b["host"])) == 1


@pytest.mark.parametrize("url", ROUTING_URLS)
def test_every_router_sends_url_to_its_host_shard(routing_frontier, url):
    """The router (``shard_of_urls``, on one URL and in a batch), the
    driver enqueue, the Dataset ingest, the chunk task's child routing
    and ``requeue_matching`` all pick the host's shard, so shard-local
    dedup sees every later insert of the URL."""
    filler = [f"http://f{i}.example/{ROUTING_URLS.index(url)}"
              for i in range(300)]
    _check_every_router(routing_frontier, url, "a.com", filler)


# inputs the synthetic corpus never produces: (url, canonical form, host)
UNUSUAL_ROUTING_URLS = [
    ("http://[::1]:80/x", "http://[::1]/x", "::1"),
    ("http://[2001:db8::1]/p", "http://[2001:db8::1]/p", "2001:db8::1"),
    ("a.com/x", "http://a.com/x", "a.com"),
    ("a.com:81/x", "http://a.com:81/x", "a.com"),
]


@pytest.mark.parametrize("url,canon,host", UNUSUAL_ROUTING_URLS)
def test_unusual_urls_route_by_their_host(routing_frontier, url, canon,
                                          host):
    """IPv6 literals keep their brackets and scheme-less URLs read as
    http://: canonicalize_and_host, the router and every site that
    calls it agree on the host."""
    from crawling_infrastructure_ray.functions.urltools import (
        canonicalize_and_host, canonicalize_url, url_host)

    assert canonicalize_url(url) == canon
    assert canonicalize_and_host(url) == (canon, host) == \
        canonicalize_and_host(canon)
    assert url_host(url) == host
    k = [u for u, _, _ in UNUSUAL_ROUTING_URLS].index(url)
    filler = [f"http://g{i}.example/{k}" for i in range(300)]
    _check_every_router(routing_frontier, url, host, filler)


def test_router_matches_url_host_per_url():
    """``shard_of_urls`` routes each URL exactly as hashing its
    ``url_host`` would, in small and large batches (the hash changes
    path at 64 distinct hosts), on mixed case, userinfo, ports,
    whitespace, scheme-less rows, a host whose lower case Arrow and
    Python spell differently ("İ") and lone surrogates, which Arrow
    cannot hold."""
    import numpy as np

    from crawling_infrastructure_ray.functions.hashing import stable_hash64
    from crawling_infrastructure_ray.functions.urltools import url_host
    from crawling_infrastructure_ray.sources.corpus import make_seed_urls
    from crawling_infrastructure_ray.state.frontier import (
        shard_of_hosts, shard_of_urls)

    odd = ROUTING_URLS + [u for u, _, _ in UNUSUAL_ROUTING_URLS] + [
        "http://İX.com/p", "HTTP://ÄB.com/x", "  http://a.com/x",
        "http://a.com /x", "//a.com/x", "ftp://Files.Example/x",
        "http://user:pw@B.com:8080/p?q#f", "https://a.com:443/",
        "http://a.com?x/y"]
    urls = odd + make_seed_urls(2000, seed=7)["url"].to_pylist() + \
        [f"http://h{i}.example/p" for i in range(100)]
    surrogates = ["http://a\ud800.com/x", "http://A\ud800B.com:81/x"]
    for k in (1, 4, 7):
        for batch in (odd[:1], odd, urls, surrogates, urls + surrogates):
            want = [stable_hash64(url_host(u), 42) % k for u in batch]
            assert shard_of_urls(batch, 42, k).tolist() == want
            hosts = [url_host(u) for u in batch]
            assert shard_of_hosts(hosts, 42, k).tolist() == want
    assert shard_of_urls([], 42, 4).dtype == np.int64


def test_host_routing_has_one_home():
    """No package module but state/frontier.py computes a host's shard:
    nothing else takes ``stable_hash64…(host…) % k`` or calls
    ``url_host`` to route; every router calls ``shard_of_urls`` or
    ``shard_of_hosts``."""
    import pathlib
    import re
    pkg = pathlib.Path(__file__).resolve().parents[1] / \
        "crawling_infrastructure_ray"
    rule = re.compile(r"stable_hash64\w*\(\s*\w*host\w*\b[^)]*\)\s*%")
    offenders = []
    for p in sorted(pkg.rglob("*.py")):
        rel = str(p.relative_to(pkg))
        if rel in ("state/frontier.py", "functions/urltools.py"):
            continue
        code = p.read_text()
        offenders += [f"{rel}: {m.group(0)}" for m in rule.finditer(code)]
        offenders += [f"{rel}:{i}" for i, line in
                      enumerate(code.splitlines(), 1)
                      if re.search(r"\burl_host\b", line)]
    assert offenders == []

    import inspect

    from crawling_infrastructure_ray.pipelines import analytics, crawl, requeue
    from crawling_infrastructure_ray.state.frontier import Frontier
    for fn, router in [
            (Frontier.enqueue_async, "shard_of_urls("),
            (Frontier.enqueue_dataset, "route_discovered("),
            (crawl._fetch_store_route_task._function, "route_discovered("),
            (requeue.requeue_matching, "shard_of_hosts("),
            (analytics.q_frontier_shard_balance, "shard_of_hosts(")]:
        assert router in inspect.getsource(fn), fn.__qualname__


def test_url_splitting_has_one_home():
    """No package module but functions/urltools.py splits a URL on
    its scheme separator: routers call url_host."""
    import pathlib
    pkg = pathlib.Path(__file__).resolve().parents[1] / \
        "crawling_infrastructure_ray"
    offenders = [f"{p.relative_to(pkg)}:{i}"
                 for p in sorted(pkg.rglob("*.py"))
                 if p.name != "urltools.py"
                 for i, line in enumerate(p.read_text().splitlines(), 1)
                 if '.split("://"' in line]
    assert offenders == []


def test_exact_seen_shard_snapshot_roundtrip(tmp_path):
    """exact_seen threads through FrontierShardCore and survives
    snapshot/restore (the soak's kill/resume relies on this)."""
    core = FrontierShardCore(dedup=True, exact_seen=True, seed=SEED)
    assert isinstance(core.seen, ExactSeenSet)
    urls = [f"http://h{i % 5}.example/p{i}" for i in range(40)]
    core.enqueue(list(range(40)), urls, [0] * 40)
    n_seen = len(core.seen)
    assert n_seen == 40
    core.snapshot(str(tmp_path / "snap"))
    fresh = FrontierShardCore()
    fresh.restore(str(tmp_path / "snap"))
    assert isinstance(fresh.seen, ExactSeenSet)
    assert len(fresh.seen) == n_seen
    # restored set still deduplicates the same URLs
    before = fresh.status_histogram()["initial"]
    fresh.enqueue([100, 101], [urls[0], urls[1]], [0, 0])
    assert fresh.status_histogram()["initial"] == before


@pytest.mark.parametrize("k", [1, 4])
def test_seen_count_matches_seen_set(ray_session, tmp_path, k):
    """``seen_count`` (what the pump reports as ``seen_set_size``) equals
    ``len(seen_set())`` on a crawl with retries, terminal fetch
    failures, robots denials and mixed-case and ported hosts; -1 when
    the frontier does not track seen URLs."""
    from crawling_infrastructure_ray.pipelines.crawl import run_crawl_pump
    from crawling_infrastructure_ray.sources.corpus import make_seed_urls
    from crawling_infrastructure_ray.state.frontier import Frontier

    seeds = make_seed_urls(150, seed=SEED)["url"].to_pylist() + [
        "http://Mixed.Example/a", "http://mixed.example:80/a",
        "http://MIXED.example:8080/a", "HTTP://mixed.example:8080/b"]
    for track in (True, False):
        fr = Frontier(k, seed=SEED, dedup=True, robots=True, max_retries=2,
                      track_seen_urls=track)
        res = run_crawl_pump(seeds, frontier=fr, seed=SEED, max_depth=1,
                             chunk_size=32,
                             out_dir=str(tmp_path / f"k{k}_{track}"))
        c, h = res.counters, res.histogram
        assert c["retried"] > 0 and c["robots_denied"] > 0
        assert h["failed"] > c["robots_denied"]      # retries spent too
        assert h["initial"] == h["running"] == 0
        if track:
            assert res.seen_set_size == fr.seen_count() == \
                len(fr.seen_set()) == h["completed"] + h["failed"]
            assert "http://mixed.example:8080/a" in fr.seen_set()
        else:
            assert res.seen_set_size == fr.seen_count() == -1
