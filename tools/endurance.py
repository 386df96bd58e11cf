#!/usr/bin/env python
"""Endurance soak (r03 verdict item 8): one driver session combining

  1. the multi-task PRIORITY SCHEDULER (O4 daemon cycle, 3 concurrent
     tasks with distinct priorities),
  2. a LONGLIVING pump segment (drains, waits, accepts an externally
     enqueued second batch — the reference's never-finishing task,
     crawltask.model.ts:194-196),
  3. a 1M+-URL pump run with CHECKPOINT / KILL / RESUME, whose final
     documents table must match an uninterrupted run of the same
     seeds on every deterministic column (pump completion order is
     nondeterministic, so enqueue_seq/lease ids differ by design —
     doc content is a pure function of (seed, url)).

Prints one JSON line with per-segment results and the driver RSS/time
series (sampled every 2 s for the whole session). Recorded in
BASELINE.md.

Usage: python tools/endurance.py [n_seeds]  (default 350000)
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import sys
import threading
import time
import warnings

warnings.filterwarnings("ignore")
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

N_SEEDS = int(sys.argv[1]) if len(sys.argv) > 1 else 350_000
OUT = "/tmp/endurance"


def rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return -1.0


class RssSampler(threading.Thread):
    def __init__(self, period: float = 2.0):
        super().__init__(daemon=True)
        self.period = period
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self.t0 = time.perf_counter()

    def run(self):
        while not self._stop.is_set():
            self.samples.append((round(time.perf_counter() - self.t0, 1),
                                 round(rss_mb(), 1)))
            self._stop.wait(self.period)

    def stop(self):
        self._stop.set()


def doc_table_digest(out_dir: str) -> tuple[str, int]:
    """Order-insensitive digest over every DETERMINISTIC documents
    column (everything except enqueue_seq, which encodes pump
    completion order) plus each document's winnowing fingerprint,
    derived from its stored spans: per-row md5 of the canonical row
    rendering, XOR-free order-independent fold via sorted concat."""
    import pyarrow.parquet as pq

    from crawling_infrastructure_ray.functions.hashing import \
        rolling_fingerprint_col
    from crawling_infrastructure_ray.stages.text import span_text
    stored = ["doc_id", "url", "host", "depth", "url_hash_part", "simhash"]
    cols = stored + ["fingerprint"]
    rows: list[str] = []
    nrows = 0
    for f in sorted(glob.glob(os.path.join(out_dir, "documents",
                                           "part-*.parquet"))):
        t = pq.read_table(f, columns=stored + ["spans"])
        nrows += t.num_rows
        d = t.select(stored).to_pydict()
        d["fingerprint"] = rolling_fingerprint_col(
            span_text(t["spans"])).to_pylist()
        for i in range(t.num_rows):
            rows.append("|".join(str(d[c][i]) for c in cols))
    rows.sort()
    h = hashlib.md5()
    for r in rows:
        h.update(r.encode())
        h.update(b"\n")
    return h.hexdigest(), nrows


def main() -> int:
    import ray
    ray.init(address="local",
             num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
             include_dashboard=False, logging_level="ERROR")
    from crawling_infrastructure_ray.config import JobConfig
    from crawling_infrastructure_ray.pipelines.crawl import run_crawl_pump
    from crawling_infrastructure_ray.pipelines.scheduler import run_multi_task
    from crawling_infrastructure_ray.sources.corpus import make_seed_urls
    from crawling_infrastructure_ray.state.frontier import Frontier

    sampler = RssSampler()
    sampler.start()
    result: dict = {"metric": "endurance", "n_seeds": N_SEEDS}
    session_t0 = time.perf_counter()

    # ---- segment 1: multi-task priority scheduler -------------------
    t0 = time.perf_counter()
    tasks = []
    for i, prio in enumerate((9, 5, 1)):
        cfg = JobConfig(name=f"soak_task_{i}", priority=prio)
        urls = make_seed_urls(20_000, seed=100 + i)["url"].to_pylist()
        tasks.append((cfg, urls))
    mt = run_multi_task(tasks, seed=42, num_shards=2, chunk_size=512,
                        total_chunks_per_cycle=12,
                        out_root=os.path.join(OUT, "multi"))
    # priority policy observable: the highest-priority task must own
    # the earliest allocation cycles
    first_alloc = {}
    for cycle, name, n in mt["alloc_log"]:
        first_alloc.setdefault(name, cycle)
    result["multi_task"] = {
        "sec": round(time.perf_counter() - t0, 1),
        "histograms": mt["histograms"],
        "first_alloc_cycle": first_alloc}

    # ---- segment 2: longliving pump with external enqueue -----------
    t0 = time.perf_counter()
    fr = Frontier(4, seed=42, dedup=True, track_seen_urls=False)
    batch1 = make_seed_urls(30_000, seed=7)["url"].to_pylist()
    batch2 = make_seed_urls(30_000, seed=8)["url"].to_pylist()
    fr.enqueue(batch1)
    injected = {"done": False}

    def injector():
        # wait until the first batch drains, then enqueue the second —
        # the longliving task must pick it up without restarting
        while True:
            h = fr.status_histogram()
            if h["initial"] == 0 and h["running"] == 0 and h["completed"] > 0:
                break
            time.sleep(0.5)
        fr.enqueue(batch2)
        injected["done"] = True

    inj = threading.Thread(target=injector, daemon=True)
    inj.start()

    def stop_when():
        if not injected["done"]:
            return False
        h = fr.status_histogram()
        return h["initial"] == 0 and h["running"] == 0

    ll = run_crawl_pump(None, frontier=fr, seed=42, max_depth=0,
                        chunk_size=1024, config=JobConfig(
                            storage_policy="merged", longliving=True),
                        stop_when=stop_when,
                        out_dir=os.path.join(OUT, "longliving"))
    result["longliving"] = {
        "sec": round(time.perf_counter() - t0, 1),
        "urls_processed": ll.urls_processed,
        "picked_up_injection": injected["done"]
                               and ll.urls_processed > len(batch1)}

    # ---- segment 3: 1M+ URLs, checkpoint / kill / resume ------------
    seeds = make_seed_urls(N_SEEDS, seed=42, num_hosts=512,
                           host_dist="zipf")["url"].to_pylist()
    # exact_seen: the soak's equality gate needs a deterministic
    # final document SET — cuckoo-filter false positives are
    # insertion-order-dependent (~1 URL per 10^6 differs between runs;
    # found BY this soak), so conformance comparisons use ExactSeenSet
    def frontier():
        return Frontier(8, dedup=True, exact_seen=True, track_seen_urls=False)
    kw = dict(seed=42, max_depth=1, evict_every_commits=64, chunk_size=1024)

    t0 = time.perf_counter()
    full = run_crawl_pump(seeds, frontier=frontier(),
                          out_dir=os.path.join(OUT, "full"), **kw)
    full_sec = time.perf_counter() - t0
    result["full_run"] = {
        "sec": round(full_sec, 1), "urls": full.urls_processed,
        "urls_per_sec": round(full.urls_processed / full_sec, 1),
        "docs": full.docs_written}

    # interrupt ~40% through (expected commits ≈ urls / chunk_size),
    # with at least one checkpoint well before the kill
    exp_commits = max(60, int(N_SEEDS * 3.2 / 1024))
    max_commits = max(40, int(exp_commits * 0.4))
    ckpt_every = max(15, max_commits // 3)
    result["kill_plan"] = {"expected_commits": exp_commits,
                           "max_commits": max_commits,
                           "checkpoint_every": ckpt_every}
    t0 = time.perf_counter()
    interrupted = run_crawl_pump(seeds, frontier=frontier(),
                                 out_dir=os.path.join(OUT, "cut"),
                                 checkpoint_every_commits=ckpt_every,
                                 max_commits=max_commits, **kw)
    time.sleep(3)  # let the killed run's in-flight tasks die off
    resumed = run_crawl_pump(None, resume=True,
                             out_dir=os.path.join(OUT, "cut"),
                             checkpoint_every_commits=ckpt_every, **kw)
    cut_sec = time.perf_counter() - t0

    dig_full, n_full = doc_table_digest(os.path.join(OUT, "full"))
    dig_cut, n_cut = doc_table_digest(os.path.join(OUT, "cut"))
    result["kill_resume"] = {
        "sec": round(cut_sec, 1),
        "interrupted_at_commits": max_commits,
        "histogram_match": resumed.histogram == full.histogram,
        "docs_full": n_full, "docs_resumed": n_cut,
        "content_digest_match": dig_full == dig_cut,
        "digest": dig_full}

    sampler.stop()
    result["session_sec"] = round(time.perf_counter() - session_t0, 1)
    result["rss_mb_series"] = sampler.samples[::5]  # every ~10 s
    result["rss_mb_peak"] = max(s[1] for s in sampler.samples)
    result["ok"] = bool(
        result["kill_resume"]["histogram_match"]
        and result["kill_resume"]["content_digest_match"]
        and result["longliving"]["picked_up_injection"]
        and n_full == n_cut)
    print(json.dumps(result))
    ray.shutdown()
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
