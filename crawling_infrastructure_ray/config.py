"""Job configuration with reference-default normalization (M11).

Mirrors the reference's ``getDefaultConfig`` (~25 defaulted fields,
crawler/src/config.ts:185-279) and the crawl-task schema knobs
(master/src/models/crawltask.model.ts:271-435), as a typed dataclass
with JSON passthrough for unknown options (the mongoose schemas let
extra fields through; we keep them in ``extra``).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

# reference constants (master/src/constants/crawlTaskApi.constants.ts)
MAX_IPS = 200.0            # max items/sec per task
HARD_LIMIT_MAX_WORKERS = 500
MIN_AVG_IPS = 0.01
UNHEALTHY_RUNNING_WORKERS = 200

WORKER_TYPES = ("http", "browser")
STORAGE_POLICIES = ("itemwise", "merged")
PRIORITY_POLICIES = ("absolute", "relative")
MAX_LOST_RATIO = 0.01      # lost-lease breaker ratio (models/config.ts:23)
LEASE_TTL_S = 600.0        # a lease older than this is lost (lost-worker analog)


@dataclass
class CrawlOptions:
    """Per-task crawl options (crawltask.model.ts:54-89)."""
    user_agent: str = ""
    random_user_agent: bool = True
    headers: dict = field(default_factory=dict)
    cookies: list = field(default_factory=list)
    default_navigation_timeout_ms: int = 40_000  # config.ts:203-210
    request_timeout_ms: int = 15_000
    viewport_width: int = 1366
    viewport_height: int = 768
    random_accept_language: bool = False
    apply_evasion: bool = True
    block_webrtc: bool = False


@dataclass
class JobConfig:
    """The crawl-task descriptor (reference ICrawlTask analog)."""
    name: str = "task"
    worker_type: str = "http"                 # inferred in reference from UDF base class
    function_name: str = "fetch_sim"          # registry key — replaces eval'd function_code (S4)
    storage_policy: str = "itemwise"
    priority: int = 1                         # 1-10 (crawltask.model.ts:35-40)
    priority_policy: str = "absolute"
    max_items_per_second: float = 1.0         # crawltask.model.ts:382-388
    max_workers: int = HARD_LIMIT_MAX_WORKERS
    max_items_per_worker: int | None = None
    retry_failed_items: int = 3               # crawltask.model.ts:399-403
    max_lost_workers: int = 10                # crawltask.model.ts:323-327
    max_lost_workers_ratio: float = MAX_LOST_RATIO
    longliving: bool = False                  # crawltask.model.ts:194-196
    num_items_browser: int = 15               # scheduler.conf.json:6
    num_items_http: int = 30                  # scheduler.conf.json:7
    max_crawling_time_s: int = 240            # scheduler.conf.json:19
    lease_ttl_s: float = LEASE_TTL_S
    crawl_options: CrawlOptions = field(default_factory=CrawlOptions)
    extra: dict = field(default_factory=dict)  # schema passthrough

    def __post_init__(self):
        if self.worker_type not in WORKER_TYPES:
            raise ValueError(f"worker_type must be one of {WORKER_TYPES}")
        if self.storage_policy not in STORAGE_POLICIES:
            raise ValueError(f"storage_policy must be one of {STORAGE_POLICIES}")
        if self.priority_policy not in PRIORITY_POLICIES:
            raise ValueError(f"priority_policy must be one of {PRIORITY_POLICIES}")
        if not 1 <= self.priority <= 10:
            raise ValueError("priority must be in 1..10")  # crawltask.service validation
        self.max_items_per_second = min(float(self.max_items_per_second), MAX_IPS)
        self.max_workers = min(int(self.max_workers), HARD_LIMIT_MAX_WORKERS)

    @classmethod
    def from_json(cls, payload: str | dict) -> "JobConfig":
        obj = json.loads(payload) if isinstance(payload, str) else dict(payload)
        co = obj.pop("crawl_options", {})
        known = {f.name for f in dataclasses.fields(cls)} - {"extra", "crawl_options"}
        kwargs = {k: obj.pop(k) for k in list(obj) if k in known}
        co_known = {f.name for f in dataclasses.fields(CrawlOptions)}
        co_kwargs = {k: v for k, v in co.items() if k in co_known}
        return cls(crawl_options=CrawlOptions(**co_kwargs), extra=obj, **kwargs)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)
