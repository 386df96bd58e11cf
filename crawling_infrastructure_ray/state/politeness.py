"""Per-host politeness: token buckets + synthetic robots cache.

Replaces the reference's politeness mechanisms — the per-task
``max_items_per_second`` feedback controller
(master/src/models/crawltask.model.ts:449-478) and the gaussian
random sleep between items (lib/misc/stats.ts:29-54, applied at
crawler/src/worker.ts:292-304) — with per-HOST token buckets evaluated
at claim time inside the frontier shard (SURVEY.md §7.2 step 5).

Time is injected (``now`` argument everywhere) so tests run on a
virtual clock and the engine stays deterministic; the crawl driver
passes wall-clock time.

The reference has no robots.txt handling; the north star requires a
robots cache. Since the sandbox has no network, robots verdicts are a
deterministic pure function of (seed, host, path) — FIXTURES.md F4
``robots_allow``.
"""

from __future__ import annotations

from urllib.parse import urlsplit

from ..functions.hashing import stable_hash64
from ..functions.urltools import parse_host


class TokenBucket:
    """Standard token bucket: ``rate`` tokens/sec, burst capacity ``burst``."""

    __slots__ = ("rate", "burst", "tokens", "last")

    def __init__(self, rate: float, burst: float, now: float = 0.0):
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.last = float(now)

    def _refill(self, now: float) -> None:
        if now > self.last:
            self.tokens = min(self.burst, self.tokens + (now - self.last) * self.rate)
            self.last = now

    def try_take(self, now: float, n: float = 1.0) -> bool:
        self._refill(now)
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False

    def available(self, now: float) -> float:
        self._refill(now)
        return self.tokens

    def next_available(self, now: float) -> float:
        """Earliest time at which one token will exist (inf for
        rate<=0 — a permanently paused host)."""
        self._refill(now)
        if self.tokens >= 1.0:
            return now
        if self.rate <= 0:
            return float("inf")
        return now + (1.0 - self.tokens) / self.rate

    def state(self) -> tuple:
        return (self.rate, self.burst, self.tokens, self.last)

    @classmethod
    def from_state(cls, st: tuple) -> "TokenBucket":
        b = cls.__new__(cls)
        b.rate, b.burst, b.tokens, b.last = st
        return b


class HostPoliteness:
    """Lazy map host → TokenBucket.

    ``default_rate`` mirrors the reference default
    ``max_items_per_second = 1.0`` (crawltask.model.ts:382-388); the
    reference cap MAX_IPS=200/s (constants/crawlTaskApi.constants.ts:2)
    bounds configured rates.
    """

    MAX_RATE = 200.0  # reference MAX_IPS

    def __init__(self, default_rate: float = 1.0, default_burst: float = 4.0,
                 overrides: dict[str, tuple[float, float]] | None = None):
        self.default_rate = min(default_rate, self.MAX_RATE)
        self.default_burst = default_burst
        self.overrides = dict(overrides or {})
        self.buckets: dict[str, TokenBucket] = {}

    def _bucket(self, host: str, now: float) -> TokenBucket:
        b = self.buckets.get(host)
        if b is None:
            rate, burst = self.overrides.get(host, (self.default_rate, self.default_burst))
            b = TokenBucket(min(rate, self.MAX_RATE), burst, now)
            self.buckets[host] = b
        return b

    def try_take(self, host: str, now: float) -> bool:
        return self._bucket(host, now).try_take(now)

    def next_available(self, host: str, now: float) -> float:
        return self._bucket(host, now).next_available(now)

    def state(self) -> dict:
        return {"default_rate": self.default_rate, "default_burst": self.default_burst,
                "overrides": self.overrides,
                "buckets": {h: b.state() for h, b in self.buckets.items()}}

    @classmethod
    def from_state(cls, st: dict) -> "HostPoliteness":
        p = cls(st["default_rate"], st["default_burst"], st["overrides"])
        p.buckets = {h: TokenBucket.from_state(s) for h, s in st["buckets"].items()}
        return p


class RobotsCache:
    """Deterministic synthetic robots.txt verdicts, cached per host.

    For each host, a seeded hash picks ~``disallow_frac`` of 16 path
    shards to disallow; a URL is disallowed when
    hash(first path segment) falls in a disallowed shard. Pure
    function of (seed, host, path) → reproducible across processes,
    shards, and resumes.
    """

    def __init__(self, seed: int = 42, disallow_frac: float = 0.125):
        self.seed = seed
        self.nshards = 16
        self.ndisallowed = max(0, min(self.nshards, round(disallow_frac * self.nshards)))
        self._host_rules: dict[str, int] = {}  # host -> bitmask of disallowed shards

    def _rules(self, host: str) -> int:
        mask = self._host_rules.get(host)
        if mask is None:
            h = stable_hash64(host, self.seed ^ 0x0B07)
            mask = 0
            # pick ndisallowed distinct shards from successive hash nibbles
            chosen = set()
            while len(chosen) < self.ndisallowed:
                chosen.add(h & 0xF)
                h = (h >> 4) | ((h & 0xF) << 60)
                if h == 0:
                    break
            for c in chosen:
                mask |= 1 << c
            self._host_rules[host] = mask
        return mask

    def allowed(self, url: str) -> bool:
        host = parse_host(url)
        if not host:
            return True
        mask = self._rules(host)
        if mask == 0:
            return True
        seg = urlsplit(url).path.lstrip("/").split("/", 1)[0]
        shard = stable_hash64(seg, self.seed ^ 0x70B0) & 0xF
        return not (mask >> shard) & 1

    def state(self) -> dict:
        return {"kind": "simulated", "seed": self.seed,
                "ndisallowed": self.ndisallowed}

    @classmethod
    def from_state(cls, st: dict) -> "RobotsCache":
        r = cls(st["seed"])
        r.ndisallowed = st["ndisallowed"]
        return r


class RealRobots:
    """Robots verdicts from REAL robots.txt text — fetch the host's
    file from the synthetic origin (corpus.make_robots_txt; in
    production: the HTTP GET), parse it ONCE per host with the REP
    parser (functions.robots.parse_robots_txt), cache the compiled
    rules, and answer ``allowed(url)`` through longest-match /
    allow-wins-tie semantics. Drop-in for RobotsCache (same
    interface + state()/from_state checkpoint contract — the cache
    rebuilds from (seed, agent), rules being a pure function of the
    host). Oracle-gated end to end by ``robots_real_verdicts``."""

    def __init__(self, seed: int = 42, agent: str = "graft-crawler"):
        self.seed = seed
        self.agent = agent
        self._rules: dict[str, object] = {}

    def _host_rules(self, host: str):
        r = self._rules.get(host)
        if r is None:
            from ..functions.robots import parse_robots_txt
            from ..sources.corpus import make_robots_txt
            r = parse_robots_txt(make_robots_txt(host, self.seed),
                                 self.agent)
            self._rules[host] = r
        return r

    def decision(self, url: str) -> tuple[bool, int]:
        host = parse_host(url)
        if not host:
            return True, 0
        parts = urlsplit(url)
        path = parts.path or "/"
        if parts.query:
            path += "?" + parts.query
        return self._host_rules(host).decision(path)

    def allowed(self, url: str) -> bool:
        return self.decision(url)[0]

    def crawl_delay(self, host: str) -> float | None:
        return self._host_rules(host).crawl_delay

    def state(self) -> dict:
        return {"kind": "real", "seed": self.seed, "agent": self.agent}

    @classmethod
    def from_state(cls, st: dict) -> "RealRobots":
        return cls(st["seed"], st["agent"])
