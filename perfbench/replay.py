"""Layer replay for the traced run: drive the workloads' inputs through
single layer functions in this process, with no Ray, and time each
call. Every figure is the median of ``REPEATS`` timings."""

from __future__ import annotations

import gc
import os
import time
from statistics import median
from contextlib import contextmanager

from . import wl_frontier

REPEATS = 3
FETCH_SAMPLE = 512      # seed URLs pushed through the fetch-side layers


@contextmanager
def frozen_heap():
    """Move the benchmark driver's own objects out of the collector's
    reach while a layer is timed, so a collection pays for the layer's
    objects only, as it would in a worker or shard process."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def _timed(fn) -> float:
    times = []
    with frozen_heap():
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
    return median(times)


def fetch_layers(seed: int, tmp: str) -> dict:
    """``stages.fetch``, ``stages.dedup``, ``functions.hashing`` and
    ``sources.storage`` on a sample of the crawl workload's seed list,
    as one depth-0 lease on its first attempt."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from crawling_infrastructure_ray.functions.hashing import \
        rolling_fingerprint
    from crawling_infrastructure_ray.sources.corpus import make_seed_urls
    from crawling_infrastructure_ray.sources.storage import write_fragment
    from crawling_infrastructure_ray.stages.dedup import simhash64_batch
    from crawling_infrastructure_ray.stages.fetch import (FetchSim,
                                                          fetch_store_batch)

    from .wl_crawl import CRAWL_SEEDS, MAX_DEPTH

    seeds = make_seed_urls(CRAWL_SEEDS, seed=seed)
    n = min(FETCH_SAMPLE, seeds.num_rows)
    lease = pa.table({
        "enqueue_seq": seeds["enqueue_seq"][:n],
        "url": seeds["url"][:n], "host": seeds["host"][:n],
        "depth": seeds["depth"][:n],
        "attempt": pa.array([0] * n, pa.int32()),
        "shard": pa.array([0] * n, pa.int32()),
        "lease_id": pa.array([0] * n, pa.int64())})
    docs_dir = os.path.join(tmp, "replay_docs")
    fetched = FetchSim(seed=seed, max_depth=MAX_DEPTH)(lease)
    ok = fetched.filter(pc.equal(fetched["status"], "completed"))
    texts = [" ".join(s["text"] for s in spans if s["kind"] == "text")
             for spans in ok["spans"].to_pylist()]
    texts_arr = pa.array(texts, pa.string())
    doc_tbl = pa.table({"doc_id": ok["doc_id"], "url": ok["url"],
                        "host": ok["host"], "spans": ok["spans"]})
    return {
        "stages.fetch.origin_us_per_url": _timed(
            lambda: FetchSim(seed=seed, max_depth=MAX_DEPTH)(lease)) / n * 1e6,
        "stages.fetch.fetch_store_us_per_url": _timed(
            lambda: fetch_store_batch(lease, seed=seed, max_depth=MAX_DEPTH,
                                      docs_dir=docs_dir,
                                      part_label="replay")) / n * 1e6,
        "stages.dedup.simhash_us_per_url": _timed(
            lambda: simhash64_batch(texts_arr, seed)) / n * 1e6,
        "functions.hashing.fingerprint_us_per_url": _timed(
            lambda: [rolling_fingerprint(t) for t in texts]) / n * 1e6,
        "sources.storage.write_us_per_url": _timed(
            lambda: write_fragment(doc_tbl, docs_dir, "replay_write"))
        / n * 1e6,
    }


def url_layers(seed: int) -> dict:
    """``state.filters``, ``state.politeness`` and ``functions.urltools``
    fed the frontier workload's submission stream, one call per URL."""
    from crawling_infrastructure_ray.functions.urltools import \
        canonicalize_and_host
    from crawling_infrastructure_ray.sources.corpus import make_seed_urls
    from crawling_infrastructure_ray.state.filters import ScalableSeenFilter
    from crawling_infrastructure_ray.state.politeness import (HostPoliteness,
                                                              RobotsCache)

    subs = wl_frontier.submissions(make_seed_urls(
        wl_frontier.FRONTIER_SEEDS, seed=seed)["url"].to_pylist())
    pairs = [canonicalize_and_host(u) for u in subs]
    n = len(subs)

    def seen():
        f = ScalableSeenFilter(1 << 20, seed)
        for c, _ in pairs:
            f.add(c)

    def take():
        p = HostPoliteness(wl_frontier.RATE, wl_frontier.BURST)
        for i, (_, h) in enumerate(pairs):
            p.try_take(h, float(i // wl_frontier.LEASE_N))

    def robots():
        r = RobotsCache(seed)
        for c, _ in pairs:
            r.allowed(c)

    def canon():
        for u in subs:
            canonicalize_and_host(u)

    return {
        "state.filters.seen_add_us_per_url": _timed(seen) / n * 1e6,
        "state.politeness.try_take_us": _timed(take) / n * 1e6,
        "state.politeness.robots_allowed_us": _timed(robots) / n * 1e6,
        "functions.urltools.canonicalize_us_per_url": _timed(canon) / n * 1e6,
    }


def shard_core(seed: int, num_shards: int) -> dict:
    """The frontier workload's ingest and drain on ``FrontierShardCore``
    objects in this process: same routing, batches, virtual clock and
    lease size as the actor path, without the checkpoint. Returns the
    per-call figures and the in-process total in seconds."""
    from crawling_infrastructure_ray.functions.hashing import stable_hash64
    from crawling_infrastructure_ray.sources.corpus import make_seed_urls
    from crawling_infrastructure_ray.state.frontier import FrontierShardCore

    subs = wl_frontier.submissions(make_seed_urls(
        wl_frontier.FRONTIER_SEEDS, seed=seed)["url"].to_pylist())
    route: dict[str, int] = {}
    shard_of = []
    for u in subs:
        host = u.split("://", 1)[-1].split("/", 1)[0]
        if host not in route:
            route[host] = stable_hash64(host, seed) % num_shards
        shard_of.append(route[host])

    def drive() -> tuple[float, float, float, int]:
        cores = [FrontierShardCore(i, dedup=True, politeness=True,
                                   robots=True,
                                   default_rate=wl_frontier.RATE,
                                   default_burst=wl_frontier.BURST,
                                   seed=seed)
                 for i in range(num_shards)]
        t_enq = t_lease = t_commit = 0.0
        step = wl_frontier.INGEST_BATCH
        for base in range(0, len(subs), step):
            per = [([], [], []) for _ in cores]
            for i in range(base, min(base + step, len(subs))):
                b = per[shard_of[i]]
                b[0].append(i)
                b[1].append(subs[i])
                b[2].append(0)
            t0 = time.perf_counter()
            for core, b in zip(cores, per):
                if b[0]:
                    core.enqueue(*b)
            t_enq += time.perf_counter() - t0
        now, items = 0.0, 0
        while True:
            t0 = time.perf_counter()
            leases = [c.lease(wl_frontier.LEASE_N, now) for c in cores]
            t1 = time.perf_counter()
            for c, ls in zip(cores, leases):
                if ls["seq"]:
                    c.commit(ls["lease_id"], ls["seq"],
                             ["completed"] * len(ls["seq"]), None, now)
            t2 = time.perf_counter()
            t_lease += t1 - t0
            t_commit += t2 - t1
            n = sum(len(ls["seq"]) for ls in leases)
            items += n
            if n == 0 and not any(c.status_histogram()["initial"]
                                  for c in cores):
                break
            now += wl_frontier.DT
        return t_enq, t_lease, t_commit, items

    with frozen_heap():
        runs = [drive() for _ in range(REPEATS)]
    t_enq = median([r[0] for r in runs])
    t_lease = median([r[1] for r in runs])
    t_commit = median([r[2] for r in runs])
    items = runs[0][3]
    return {
        "state.frontier.shard_enqueue_us_per_url": t_enq / len(subs) * 1e6,
        "state.frontier.shard_lease_us_per_item": t_lease / items * 1e6,
        "state.frontier.shard_commit_us_per_item": t_commit / items * 1e6,
        "inprocess_total_s": t_enq + t_lease + t_commit,
    }
