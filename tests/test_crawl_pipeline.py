"""End-to-end conformance: the distributed engine must reproduce the
single-threaded oracle exactly (FIXTURES.md golden artifacts):
golden_crawl_order, golden_seen_set, golden_status_histogram,
golden_spans (per-row span-sequence equality — BASELINE.json
input_hint), plus the reference row-count scenarios (12-row
self-enqueue expansion, remote_tests.ts:147-176) and kill+resume
equality (north rule).
"""

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from crawling_infrastructure_ray.pipelines.crawl import (direct_crawl,
                                                         run_crawl_pump)
from crawling_infrastructure_ray.pipelines.oracle import oracle_crawl
from crawling_infrastructure_ray.sources.corpus import make_seed_urls
from crawling_infrastructure_ray.state.frontier import Frontier

SEED = 42
N_SEEDS = 120
WAVE = 48


@pytest.fixture(scope="module")
def seeds():
    return make_seed_urls(N_SEEDS, seed=SEED)["url"].to_pylist()


@pytest.fixture(scope="module")
def golden(seeds):
    return oracle_crawl(seeds, seed=SEED, dedup=True, max_depth=1,
                        items_per_wave=WAVE)


@pytest.fixture(scope="module")
def engine_run(ray_session, seeds, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("crawl") / "run")
    res = run_crawl_pump(seeds, frontier=Frontier(1, seed=SEED, dedup=True),
                         seed=SEED, max_depth=1, chunk_size=WAVE,
                         rounds="shard", out_dir=out)
    return res


def _read_sorted(dir_glob, sort_key):
    files = sorted(glob.glob(dir_glob, recursive=True))
    assert files
    return pa.concat_tables([pq.read_table(f) for f in files]).sort_by(sort_key)


def test_golden_crawl_order(golden, engine_run):
    claims = _read_sorted(os.path.join(engine_run.out_dir, "claims", "*.parquet"),
                          [("wave", "ascending"), ("enqueue_seq", "ascending")])
    got = list(zip(range(claims.num_rows),
                   claims["enqueue_seq"].to_pylist(),
                   claims["url"].to_pylist(),
                   claims["attempt"].to_pylist()))
    want = [(i, s, u, a) for (i, s, u, a) in golden["claim_order"]]
    assert got == want


def test_golden_seen_set_and_histogram(golden, engine_run):
    assert engine_run.histogram == golden["histogram"]
    assert engine_run.seen_set_size == len(golden["seen_set"])


def test_golden_spans_equality(golden, engine_run):
    docs = _read_sorted(os.path.join(engine_run.out_dir, "documents", "**", "*.parquet"),
                        "enqueue_seq")
    want = golden["documents"].sort_by("enqueue_seq")
    assert docs.num_rows == want.num_rows
    assert docs["doc_id"].to_pylist() == want["doc_id"].to_pylist()
    assert docs["url"].to_pylist() == want["url"].to_pylist()
    # per-row span-sequence equality (kind, text, media_ref, order)
    assert docs["spans"].to_pylist() == want["spans"].to_pylist()


def test_sharded_mode_matches_seen_set(ray_session, seeds, golden, tmp_path):
    """K=4 shards: per-shard FIFO, same final seen set + histogram
    totals (global claim order differs by design — SURVEY.md §7.4)."""
    res = run_crawl_pump(seeds, frontier=Frontier(4, seed=SEED, dedup=True),
                         seed=SEED, max_depth=1, chunk_size=WAVE // 4,
                         rounds="shard",
                         out_dir=str(tmp_path / "sharded"))
    assert res.histogram["completed"] == golden["histogram"]["completed"]
    assert res.histogram["failed"] == golden["histogram"]["failed"]
    assert res.seen_set_size == len(golden["seen_set"])


def test_self_enqueue_expansion_row_count(ray_session):
    """remote_tests.ts:147-176 analog: 3 items each discovering 3
    children ⇒ exactly 12 queue rows."""
    fr = Frontier(1, seed=SEED, dedup=False)
    fr.enqueue([f"http://h9.example/seed{i}" for i in range(3)])
    leases = fr.lease_wave(3)
    assert len(leases) == 1 and len(leases[0]["seq"]) == 3
    import ray
    ray.get(fr.commit(0, leases[0]["lease_id"], leases[0]["seq"],
                      ["completed"] * 3))
    for url in leases[0]["url"]:
        fr.enqueue([f"{url}/child{i}" for i in range(3)], [1, 1, 1])
    tbl = fr.dump_table()
    assert tbl.num_rows == 12
    # children appended at the tail with fresh seqs (§3.2)
    assert tbl["enqueue_seq"].to_pylist() == list(range(12))


def test_fidelity_mode_crawls_duplicates(ray_session, tmp_path):
    """FIXTURES duplicate-handling scenario: fidelity mode (dedup=False)
    crawls duplicates twice; dedup mode crawls once."""
    dup_seeds = ["http://hd.example/a", "http://hd.example/a", "http://hd.example/b"]
    fid = run_crawl_pump(dup_seeds, frontier=Frontier(1, seed=SEED),
                         seed=SEED, max_depth=0, chunk_size=10,
                         rounds="shard", out_dir=str(tmp_path / "fid"))
    ded = run_crawl_pump(dup_seeds, frontier=Frontier(1, seed=SEED, dedup=True),
                         seed=SEED, max_depth=0, chunk_size=10,
                         rounds="shard", out_dir=str(tmp_path / "ded"))
    assert fid.urls_processed == 3
    assert ded.urls_processed == 2
    assert ded.counters["deduped"] == 1


def test_direct_crawl_scatter_gather(ray_session, seeds):
    out = direct_crawl(seeds[:30], seed=SEED)
    assert out.num_rows == 30
    assert set(out["status"].to_pylist()) <= {"completed", "failed", "blocked"}


def test_kill_and_resume_byte_identical(ray_session, seeds, tmp_path):
    """North rule: a killed run resumes exactly — final documents table
    byte-identical to an uninterrupted run."""
    kw = dict(seed=SEED, max_depth=1, chunk_size=WAVE // 2, rounds="shard",
              checkpoint_every_commits=1)
    full = run_crawl_pump(seeds, frontier=Frontier(2, seed=SEED, dedup=True),
                          out_dir=str(tmp_path / "full"), **kw)
    # interrupted: stop after 2 leases (checkpointing every round)...
    run_crawl_pump(seeds, frontier=Frontier(2, seed=SEED, dedup=True),
                   max_commits=2, out_dir=str(tmp_path / "cut"), **kw)
    # ...then resume to drain
    resumed = run_crawl_pump(None, resume=True,
                             out_dir=str(tmp_path / "cut"), **kw)
    t_full = _read_sorted(str(tmp_path / "full" / "documents" / "**" / "*.parquet"),
                          "enqueue_seq")
    t_res = _read_sorted(str(tmp_path / "cut" / "documents" / "**" / "*.parquet"),
                         "enqueue_seq")
    assert t_full.equals(t_res)
    assert resumed.histogram == full.histogram


def test_priority_order_engine(ray_session, tmp_path):
    """North-star priority heap end to end: order='priority' claims
    shallow (low-depth) items before deep ones across waves."""
    import pyarrow.parquet as pq
    fr = Frontier(1, seed=SEED, dedup=True, order="priority")
    fr.enqueue(["http://hp.example/deep1", "http://hp.example/deep2"], [2, 2])
    fr.enqueue(["http://hp.example/shallow"], [0])
    res = run_crawl_pump(None, frontier=fr, seed=SEED, max_depth=0,
                         chunk_size=1, rounds="shard", max_commits=3,
                         out_dir=str(tmp_path / "prio"))
    claims = _read_sorted(str(tmp_path / "prio" / "claims" / "*.parquet"),
                          [("wave", "ascending")])
    assert claims["url"].to_pylist()[0] == "http://hp.example/shallow"


def test_robots_ordering_matches_oracle(ray_session, seeds, tmp_path):
    """Conformance with robots enabled: robots-denied URLs go terminal
    at claim time in both the oracle and the engine, and the claim
    sequence still matches exactly."""
    golden = oracle_crawl(seeds, seed=SEED, dedup=True, robots=True,
                          max_depth=0, items_per_wave=WAVE)
    out = str(tmp_path / "rob_conf")
    res = run_crawl_pump(seeds, frontier=Frontier(1, seed=SEED, dedup=True,
                                                  robots=True),
                         seed=SEED, max_depth=0, chunk_size=WAVE,
                         rounds="shard", out_dir=out)
    claims = _read_sorted(os.path.join(out, "claims", "*.parquet"),
                          [("wave", "ascending"), ("enqueue_seq", "ascending")])
    got = list(zip(claims["enqueue_seq"].to_pylist(),
                   claims["url"].to_pylist(),
                   claims["attempt"].to_pylist()))
    want = [(s, u, a) for (_, s, u, a) in golden["claim_order"]]
    assert got == want
    assert res.histogram == golden["histogram"]
    assert res.histogram["failed"] > 0          # robots actually denied some
