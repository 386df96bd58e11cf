"""Round-4 surfaces: exact-seen conformance mode, the K>1 global-FIFO
interleave (SURVEY §7.4), and the two checkpoint bugs the endurance
soak found (phantom RUNNING leases in snapshots; exact-multiple
checkpoint triggers skipped when commits advance by several per pump
round)."""

import glob
import os
import time

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from crawling_infrastructure_ray.pipelines.crawl import run_crawl_pump
from crawling_infrastructure_ray.sources.corpus import make_seed_urls
from crawling_infrastructure_ray.state.filters import ExactSeenSet
from crawling_infrastructure_ray.state.frontier import FrontierShardCore

SEED = 42


def test_exact_seen_set_basic():
    s = ExactSeenSet(seed=7)
    assert s.add("http://a.example/x") is True
    assert s.add("http://a.example/x") is False      # duplicate
    assert s.add("http://a.example/y") is True
    assert s.contains("http://a.example/x")
    assert not s.contains("http://a.example/z")
    assert len(s) == 2
    # state round-trip (checkpoint format)
    st = s.state()
    assert st["kind"] == "exact"
    r = ExactSeenSet.from_state(st)
    assert len(r) == 2 and r.contains("http://a.example/y")
    assert r.add("http://a.example/y") is False


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


def _claims(out_dir):
    tbl = pads.dataset(os.path.join(out_dir, "claims")).to_table()
    tbl = tbl.sort_by([("wave", "ascending"), ("enqueue_seq", "ascending")])
    return list(zip(tbl["enqueue_seq"].to_pylist(), tbl["url"].to_pylist(),
                    tbl["attempt"].to_pylist()))


def test_global_fifo_k8_matches_k1(ray_session, tmp_path):
    """SURVEY §7.4: the cross-shard global-FIFO interleave
    (lease_wave_global peek→merge→claim) makes a K=8 run's claim
    stream bit-identical to the K=1 conformance stream."""
    seeds = make_seed_urls(150, seed=SEED)["url"].to_pylist()
    kw = dict(seed=SEED, dedup=True, max_depth=1, chunk_size=64)
    r1 = run_crawl_pump(seeds, num_shards=1, rounds="shard",
                        out_dir=str(tmp_path / "k1"), **kw)
    r8 = run_crawl_pump(seeds, num_shards=8, rounds="global",
                        out_dir=str(tmp_path / "k8"), **kw)
    assert r1.histogram == r8.histogram
    c1, c8 = _claims(str(tmp_path / "k1")), _claims(str(tmp_path / "k8"))
    assert len(c1) == len(c8) > 0
    assert c1 == c8


def _doc_rows(out_dir):
    files = sorted(glob.glob(f"{out_dir}/documents/part-*.parquet"))
    tbl = pa.concat_tables([pq.read_table(f, columns=["doc_id", "url",
                                                      "simhash"])
                            for f in files])
    return sorted(zip(tbl["doc_id"].to_pylist(), tbl["url"].to_pylist(),
                      tbl["simhash"].to_pylist())), tbl.num_rows


def test_pump_exact_dedup_kill_resume_no_dup_docs(ray_session, tmp_path):
    """The soak's segment-3 gate at test scale: with exact_dedup, an
    interrupted+resumed pump converges to the SAME document multiset
    as an uninterrupted run (no phantom-lease double-crawl, no
    orphan-fragment re-insertion), and a checkpoint actually exists
    at the interrupt point even when commits jump past the exact
    multiple (the ``commits % N`` bug)."""
    seeds = make_seed_urls(600, seed=SEED)["url"].to_pylist()
    kw = dict(seed=SEED, num_shards=4, dedup=True, exact_dedup=True,
              max_depth=1, chunk_size=32)
    full = run_crawl_pump(seeds, out_dir=str(tmp_path / "full"), **kw)
    cut = run_crawl_pump(seeds, out_dir=str(tmp_path / "cut"),
                         checkpoint_every_commits=5, max_commits=12, **kw)
    assert cut.histogram["initial"] + cut.histogram["running"] > 0
    # the checkpoint-threshold fix: a checkpoint must exist even though
    # the pump commits several leases per round (exact multiples skip)
    assert os.path.isdir(str(tmp_path / "cut" / "ckpt"))
    time.sleep(2)  # stragglers from the killed run die off
    resumed = run_crawl_pump(None, resume=True, out_dir=str(tmp_path / "cut"),
                             checkpoint_every_commits=5, **kw)
    assert resumed.histogram == full.histogram
    rows_full, n_full = _doc_rows(str(tmp_path / "full"))
    rows_cut, n_cut = _doc_rows(str(tmp_path / "cut"))
    assert n_full == n_cut
    assert rows_full == rows_cut
