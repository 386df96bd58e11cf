"""The async pump's drain: children that tasks route straight to their
shards are fire-and-forget inserts, so the driver waits for each
lease's inserts by lease id (``FrontierShardCore.ack_routed``) instead
of sleeping until they have probably landed."""

import glob
import os
import pickle
import time

import pyarrow.parquet as pq
import ray

from crawling_infrastructure_ray.pipelines import crawl
from crawling_infrastructure_ray.pipelines.crawl import run_crawl_pump
from crawling_infrastructure_ray.sources.corpus import make_seed_urls
from crawling_infrastructure_ray.state.frontier import (Frontier,
                                                        FrontierShardCore)

SEED = 42


def _ingested(ckpt_dir: str) -> int:
    """enqueued + deduped over the snapshot's shards: every URL a
    shard was asked to insert, kept or not."""
    n = 0
    for d in glob.glob(os.path.join(ckpt_dir, "shard_*")):
        with open(os.path.join(d, "control.pkl"), "rb") as f:
            c = pickle.load(f)["counters"]
        n += c["enqueued"] + c["deduped"]
    return n


def test_ack_routed_reports_unapplied_leases():
    sh = FrontierShardCore(0, dedup=True)
    sh.enqueue_discovered(["http://a.example/x"], [1], 7)
    sh.enqueue_discovered(["http://a.example/y"], [1])     # seed ingest
    assert sh.ack_routed([7, 8]) == [8]
    assert sh.ack_routed([7]) == [7]                       # acked once


def test_checkpoints_see_every_routed_child(ray_session, tmp_path,
                                             monkeypatch):
    """At every snapshot the shards have ingested the seeds plus the
    children of every lease collected so far (lineage ``n_children``)."""
    seeds = make_seed_urls(150, seed=SEED)["url"].to_pylist()
    snaps, checks = [], []
    real_checkpoint, real_lineage = Frontier.checkpoint, crawl._write_lineage

    def checkpoint(self, path):
        real_checkpoint(self, path)
        snaps.append(_ingested(path))

    def write_lineage(out_dir, rows):
        if snaps:    # the lineage written right after a snapshot
            checks.append((snaps.pop(), sum(r[7] for r in rows)))
        real_lineage(out_dir, rows)

    monkeypatch.setattr(Frontier, "checkpoint", checkpoint)
    monkeypatch.setattr(crawl, "_write_lineage", write_lineage)
    res = run_crawl_pump(seeds, frontier=Frontier(2, seed=SEED, dedup=True),
                         seed=SEED, max_depth=1, chunk_size=16,
                         checkpoint_every_commits=1,
                         out_dir=str(tmp_path / "run"))
    assert len(checks) >= 5
    assert all(ingested == len(seeds) + children
               for ingested, children in checks), checks
    lin = pq.read_table(str(tmp_path / "run" / "lineage.parquet"))
    assert sum(lin["n_children"].to_pylist()) > 0
    c = res.counters
    assert c["enqueued"] + c["deduped"] == \
        len(seeds) + sum(lin["n_children"].to_pylist())


def test_busy_run_keeps_routed_ids_bounded(ray_session, tmp_path):
    """A long busy run reaches neither the drained check nor a
    snapshot. The driver still acknowledges routed leases as it goes,
    so the ids the shards remember stay near the in-flight depth
    instead of growing with the run's lease count."""
    seeds = make_seed_urls(3000, seed=SEED)["url"].to_pylist()
    fr = Frontier(2, seed=SEED, dedup=True)
    res = run_crawl_pump(seeds, frontier=fr, seed=SEED, max_depth=1,
                         chunk_size=8, max_commits=240,
                         out_dir=str(tmp_path / "run"))
    routed = ray.get([sh.__ray_call__.remote(lambda s: len(s._routed))
                      for sh in fr.shards])
    depth = 3 * int(ray.cluster_resources()["CPU"])
    lin = pq.read_table(str(tmp_path / "run" / "lineage.parquet"))
    assert res.waves >= 240
    assert sum(n > 0 for n in lin["n_children"].to_pylist()) > 8 * depth
    assert sum(routed) <= 4 * depth, routed
    for sh in fr.shards:
        ray.kill(sh)


class _CountingTime:
    """Stands in for ``pipelines.crawl``'s ``time`` module and counts
    its ``sleep`` calls."""

    def __init__(self):
        self.sleeps = 0

    def sleep(self, s):
        self.sleeps += 1
        time.sleep(s)

    def __getattr__(self, name):
        return getattr(time, name)


def test_politeness_off_pump_never_sleeps(ray_session, tmp_path,
                                          monkeypatch):
    seeds = make_seed_urls(200, seed=SEED)["url"].to_pylist()
    clock = _CountingTime()
    monkeypatch.setattr(crawl, "time", clock)
    kw = dict(seed=SEED, max_depth=1, chunk_size=32)
    plain = run_crawl_pump(seeds, frontier=Frontier(2, seed=SEED, dedup=True),
                           out_dir=str(tmp_path / "plain"), **kw)
    ckpt = run_crawl_pump(seeds, frontier=Frontier(2, seed=SEED, dedup=True),
                          out_dir=str(tmp_path / "ckpt"),
                          checkpoint_every_commits=2, **kw)
    assert clock.sleeps == 0
    assert plain.histogram == ckpt.histogram
    assert plain.histogram["initial"] == plain.histogram["running"] == 0
