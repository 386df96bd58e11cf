#!/usr/bin/env python
"""Multi-node-SHAPED rehearsal on one box (r04 verdict item 8).

The one 100x-cluster risk the single-node soaks cannot see is the
driver pump <-> frontier-shard round-trip: on a real cluster the
shards live on OTHER nodes, so every lease/commit/enqueue crosses the
network. This rehearsal measures the two halves of that risk that ARE
observable locally:

  1. PLACEMENT SKEW — run the same pump twice, once with shards
     scheduled freely and once with the 8 shards pinned to two
     disjoint custom-resource groups ("nodeA"/"nodeB", 4 shards
     each, the placement a 2-node cluster would force). Throughput
     delta isolates scheduling/placement effects from compute.
  2. LEASE-ROUND RTT BUDGET — a microbench of the pump's actual
     control-plane verbs against pinned shards: T rounds of
     scatter (lease_many to all K shards) -> gather -> commit,
     recording per-round wall latency and payload bytes. With the
     local RTT distribution and bytes/round in hand, the cross-node
     extrapolation is arithmetic: a cluster adds ~rtt_net per verb
     (0.2-1 ms TCP same-rack) + bytes/bandwidth, and the pump
     overlaps lease rounds with fetch compute (refill() is
     fire-and-collect-later), so the added latency is hidden unless
     it exceeds a chunk's compute time (~chunk_size x 536 us).

Prints one JSON line; recorded in BASELINE.md.

Usage: python tools/remote_shards.py [n_seeds]
"""

from __future__ import annotations

import json
import os
import sys
import time
import warnings

warnings.filterwarnings("ignore")
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

N_SEEDS = int(sys.argv[1]) if len(sys.argv) > 1 else 200_000
K = 8


def run_pump(tag: str, shard_resources):
    from crawling_infrastructure_ray.pipelines.crawl import run_crawl_pump
    from crawling_infrastructure_ray.sources.corpus import make_seed_urls
    from crawling_infrastructure_ray.state.frontier import Frontier

    seeds = make_seed_urls(N_SEEDS, seed=42)["url"].to_pylist()
    fr = Frontier(K, seed=42, dedup=True, track_seen_urls=False,
                  shard_resources=shard_resources)
    t0 = time.perf_counter()
    res = run_crawl_pump(seeds, frontier=fr, seed=42,
                         out_dir=f"/tmp/remote_shards_{tag}")
    dt = time.perf_counter() - t0
    return {"tag": tag, "urls": res.urls_processed,
            "sec": round(dt, 2),
            "urls_per_sec": round(res.urls_processed / dt, 1)}


def lease_rtt_bench(rounds: int = 200, chunk: int = 256):
    """Scatter/gather/commit RTT against PINNED shards — the exact
    verbs refill() and the commit path issue, minus fetch compute."""
    import ray
    from crawling_infrastructure_ray.sources.corpus import make_seed_urls
    from crawling_infrastructure_ray.state.frontier import Frontier

    res_map = [{"nodeA" if i < K // 2 else "nodeB": 0.25}
               for i in range(K)]
    fr = Frontier(K, seed=42, dedup=False, shard_resources=res_map)
    urls = make_seed_urls(N_SEEDS, seed=42)["url"].to_pylist()
    fr.enqueue(urls)
    lat_lease, lat_commit, bytes_rounds = [], [], []
    now = 0.0
    done = 0
    for _ in range(rounds):
        t0 = time.perf_counter()
        refs = [sh.lease_many.remote(1, chunk, now) for sh in fr.shards]
        leases_per_shard = ray.get(refs)
        lat_lease.append(time.perf_counter() - t0)
        nbytes = sum(len(u) for ls in leases_per_shard for l in ls
                     for u in l["url"])
        bytes_rounds.append(nbytes)
        t1 = time.perf_counter()
        crefs = []
        for shard, leases in enumerate(leases_per_shard):
            for lease in leases:
                n = len(lease["seq"])
                done += n
                crefs.append(fr.commit(
                    shard, lease["lease_id"], lease["seq"],
                    ["completed"] * n, [""] * n))
        if crefs:
            ray.get(crefs)
        lat_commit.append(time.perf_counter() - t1)
        if done >= len(urls):
            break

    def pct(xs, q):
        xs = sorted(xs)
        return round(xs[min(len(xs) - 1, int(q * len(xs)))] * 1000, 2)

    return {"rounds": len(lat_lease), "chunk": chunk,
            "urls_committed": done,
            "lease_ms_p50": pct(lat_lease, 0.50),
            "lease_ms_p95": pct(lat_lease, 0.95),
            "commit_ms_p50": pct(lat_commit, 0.50),
            "commit_ms_p95": pct(lat_commit, 0.95),
            "payload_kb_per_round": round(
                sum(bytes_rounds) / max(1, len(bytes_rounds)) / 1024, 1)}


def main() -> int:
    import ray
    ray.init(address="local", num_cpus=32,
             resources={"nodeA": 8, "nodeB": 8},
             include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    free = run_pump("free", None)
    pinned = run_pump("pinned", [
        {"nodeA" if i < K // 2 else "nodeB": 0.25} for i in range(K)])
    rtt = lease_rtt_bench()
    out = {"metric": "remote_shards_rehearsal", "n_seeds": N_SEEDS,
           "free": free, "pinned": pinned,
           "pinned_over_free": round(
               pinned["urls_per_sec"] / free["urls_per_sec"], 3),
           "lease_rtt": rtt}
    print(json.dumps(out), flush=True)
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
