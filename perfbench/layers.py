"""Per-layer metrics of the traced run: name -> (unit, better).

Which end-to-end metric each one should move, and on which workload,
is in README.md.
"""

from __future__ import annotations

from .wl_queries import NAMES

_S, _US, _N, _R = "s", "us", "count", "ratio"

LAYERS: dict[str, tuple[str, str]] = {
    "setup.import_s": (_S, "lower"),
    "setup.ray_init_s": (_S, "lower"),
    "setup.warmup_s": (_S, "lower"),
    "pipelines.crawl.pump_s": (_S, "lower"),
    "pipelines.crawl.leases": (_N, "lower"),
    "pipelines.crawl.lease_busy_s": (_S, "lower"),
    "pipelines.crawl.cpu_busy_ratio": (_R, "higher"),
    "pipelines.crawl.useful_fetch_ratio": (_R, "higher"),
    "state.frontier.enqueue_s": (_S, "lower"),
    "state.frontier.lease_wave_s": (_S, "lower"),
    "state.frontier.commit_s": (_S, "lower"),
    "state.frontier.rounds": (_N, "lower"),
    "state.frontier.leases_issued": (_N, "lower"),
    "state.frontier.checkpoint_s": (_S, "lower"),
    "state.frontier.restore_s": (_S, "lower"),
    "state.frontier.rpc_s": (_S, "lower"),
    "state.frontier.shard_enqueue_us_per_url": (_US, "lower"),
    "state.frontier.shard_lease_us_per_item": (_US, "lower"),
    "state.frontier.shard_commit_us_per_item": (_US, "lower"),
    "state.filters.seen_add_us_per_url": (_US, "lower"),
    "state.politeness.try_take_us": (_US, "lower"),
    "state.politeness.robots_allowed_us": (_US, "lower"),
    "functions.urltools.canonicalize_us_per_url": (_US, "lower"),
    "stages.fetch.fetch_store_us_per_url": (_US, "lower"),
    "stages.fetch.origin_us_per_url": (_US, "lower"),
    "stages.dedup.simhash_us_per_url": (_US, "lower"),
    "functions.hashing.fingerprint_us_per_url": (_US, "lower"),
    "sources.storage.write_us_per_url": (_US, "lower"),
    "sources.readers.read_s": (_S, "lower"),
    **{f"queries.{n}_s": (_S, "lower") for n in NAMES},
    "bench.frontier_self_s": (_S, "lower"),
    "trace.overhead_s": (_S, "lower"),
}

PER_LAYER = {name: unit for name, (unit, _) in LAYERS.items()}
