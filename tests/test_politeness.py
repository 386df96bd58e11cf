from crawling_infrastructure_ray.state.politeness import (
    HostPoliteness, RobotsCache, TokenBucket)


def test_token_bucket_basic():
    b = TokenBucket(rate=1.0, burst=2.0, now=0.0)
    assert b.try_take(0.0)
    assert b.try_take(0.0)
    assert not b.try_take(0.0)       # burst exhausted
    assert not b.try_take(0.5)       # only 0.5 tokens refilled
    assert b.try_take(1.0)           # 1 token refilled at t=1


def test_token_bucket_burst_cap():
    b = TokenBucket(rate=10.0, burst=3.0, now=0.0)
    assert b.available(100.0) == 3.0  # never exceeds burst


def test_host_politeness_isolation():
    p = HostPoliteness(default_rate=1.0, default_burst=1.0)
    assert p.try_take("a.example", 0.0)
    assert not p.try_take("a.example", 0.0)
    assert p.try_take("b.example", 0.0)  # separate bucket per host


def test_host_politeness_overrides_and_cap():
    p = HostPoliteness(default_rate=1.0, default_burst=1.0,
                       overrides={"fast.example": (1000.0, 5.0)})
    b = p._bucket("fast.example", 0.0)
    assert b.rate == HostPoliteness.MAX_RATE  # reference MAX_IPS=200 cap


def test_politeness_state_roundtrip():
    p = HostPoliteness(2.0, 3.0)
    p.try_take("a.example", 1.0)
    q = HostPoliteness.from_state(p.state())
    assert q.buckets["a.example"].state() == p.buckets["a.example"].state()


def test_robots_deterministic():
    r1 = RobotsCache(seed=42)
    r2 = RobotsCache(seed=42)
    urls = [f"http://h{i % 7}.example/s{i % 20}/x" for i in range(200)]
    v1 = [r1.allowed(u) for u in urls]
    v2 = [r2.allowed(u) for u in urls]
    assert v1 == v2
    assert any(v1) and not all(v1)  # some allowed, some denied
    # different seed → different rules somewhere
    r3 = RobotsCache(seed=7)
    assert [r3.allowed(u) for u in urls] != v1


def test_robots_per_prefix_consistency():
    r = RobotsCache(seed=42)
    # same host + same first path segment → same verdict
    assert r.allowed("http://h1.example/s3/a") == r.allowed("http://h1.example/s3/b?z=1")


def test_parked_host_does_not_starve_others():
    """Review regression: >1024 URLs of a never-refilling (rate~0)
    host at the heap head must not starve items of healthy hosts
    queued behind them — the parking lot moves blocked entries out of
    the main heap so later claims reach the healthy hosts."""
    from crawling_infrastructure_ray.state.frontier import FrontierShardCore
    core = FrontierShardCore(politeness=True, default_rate=100.0,
                             default_burst=4.0,
                             politeness_overrides={"paused.example": (1e-9, 0.0)})
    urls = [f"http://paused.example/p{i}" for i in range(1500)]
    urls += [f"http://ok.example/p{i}" for i in range(20)]
    core.enqueue(list(range(len(urls))), urls,
                 [0] * len(urls), [1] * len(urls))
    claimed_hosts = []
    now = 1000.0
    for _ in range(8):          # a few pump polls
        lease = core.lease(64, now)
        claimed_hosts += lease["host"]
        now += 0.1
    assert "ok.example" in claimed_hosts          # healthy host progressed
    assert claimed_hosts.count("ok.example") == 20  # fully drained
    assert "paused.example" not in claimed_hosts  # budget honored
    # and the paused items are parked, not lost
    hist = core.status_histogram()
    assert hist["initial"] == 1500


def test_robots_verdict_ignores_the_port():
    """Canonical URLs keep a non-default port; the simulated verdict
    reads the path with urlsplit, so a ported URL gets its portless
    twin's verdict."""
    import numpy as np

    from crawling_infrastructure_ray.functions.urltools import \
        canonicalize_url
    assert canonicalize_url("http://h1.example:8080/p1") == \
        "http://h1.example:8080/p1"
    r = RobotsCache(seed=42)
    rng = np.random.default_rng(42)
    pairs = [(f"h{h}.example", f"p{p:06x}") for h, p in
             zip(rng.integers(0, 400, 2000), rng.integers(0, 1 << 24, 2000))]
    verdicts = [r.allowed(f"http://{h}/{p}") for h, p in pairs]
    assert 0 < sum(verdicts) < len(pairs)
    assert [r.allowed(f"http://{h}:8080/{p}") for h, p in pairs] == verdicts
    assert [r.allowed(f"http://{h}:8080/{p}/x?q=1")
            for h, p in pairs] == verdicts


def test_robots_gate_urls_reach_the_allow_override():
    """The robots oracle gates' URL set has paths under a disallowed
    ``/p<d1>`` prefix that the nested ``Allow: /p<d1><e>`` re-allows
    (longest match wins), so the gates hash that branch too."""
    from crawling_infrastructure_ray.pipelines.training import \
        _robots_gate_urls
    from crawling_infrastructure_ray.sources.corpus import make_robots_txt
    from crawling_infrastructure_ray.state.politeness import RealRobots

    robots = RealRobots(seed=42)
    overridden = 0
    for url, host in zip(*_robots_gate_urls(42).to_pydict().values()):
        allow = [ln.split()[1] for ln in
                 make_robots_txt(host, 42).splitlines()
                 if ln.startswith("Allow:")]
        path = "/" + url.split("/", 3)[3]
        if robots.allowed(url) and any(path.startswith(a) for a in allow):
            overridden += 1
    assert overridden > 0
