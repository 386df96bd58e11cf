"""Round mode of the crawl driver gets the pump's fault handling and
lineage, and the cached crawl mirrors are rebuilt unless this process
wrote them."""

import os
import shutil
import uuid

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from crawling_infrastructure_ray.config import JobConfig
from crawling_infrastructure_ray.pipelines.crawl import (read_documents,
                                                         read_lineage,
                                                         run_crawl_pump)
from crawling_infrastructure_ray.sources.corpus import make_seed_urls
from crawling_infrastructure_ray.state.frontier import Frontier

SEED = 42


def _seeds():
    return make_seed_urls(80, seed=SEED)["url"].to_pylist() + \
        ["http://rounds.example/POISON"]


def _docs(out_dir):
    return read_documents(out_dir).to_pandas()[["doc_id", "url", "simhash"]] \
        .sort_values("doc_id").reset_index(drop=True)


def test_round_mode_post_store_crash_matches_clean_run(ray_session, tmp_path):
    """A task that dies after writing its fragment (K=2 shard rounds):
    its lease rolls back, the orphan fragment is deleted, and the crawl
    ends with the documents and histogram of a clean run."""
    kw = dict(seed=SEED, max_depth=1, chunk_size=16, rounds="shard",
              config=JobConfig(storage_policy="merged", max_lost_workers=50))

    def frontier():
        return Frontier(2, seed=SEED, dedup=True, exact_seen=True)
    clean = run_crawl_pump(_seeds(), frontier=frontier(),
                           out_dir=str(tmp_path / "clean"), **kw)
    crash = run_crawl_pump(_seeds(), frontier=frontier(),
                           out_dir=str(tmp_path / "crash"),
                           faults={"fail_after_store_marker": "POISON"}, **kw)
    assert crash.counters["rolled_back"] > 0       # a task really died
    assert crash.histogram == clean.histogram
    assert crash.docs_written == clean.docs_written
    got, want = _docs(str(tmp_path / "crash")), _docs(str(tmp_path / "clean"))
    assert got["doc_id"].is_unique
    pd.testing.assert_frame_equal(got, want)


def test_round_mode_lineage_one_row_per_committed_lease(ray_session, tmp_path):
    out = str(tmp_path / "lin")
    res = run_crawl_pump(_seeds(), frontier=Frontier(2, seed=SEED, dedup=True),
                         seed=SEED, max_depth=1, chunk_size=16,
                         rounds="global", out_dir=out)
    lin = read_lineage(out)
    assert lin.num_rows == res.waves > 0
    assert len(set(lin["lease_id"].to_pylist())) == lin.num_rows
    assert sum(lin["n_items"].to_pylist()) == res.urls_processed
    assert sum(lin["n_ok"].to_pylist()) == res.docs_written


def test_crawl_mirror_left_by_another_process_is_rebuilt(ray_session,
                                                          tmp_path):
    """A doctored fragment in the mirror's /tmp path (what an older
    commit's crawl would leave there) must not reach the oracle gate."""
    from crawling_infrastructure_ray.pipelines import training as qt
    from crawling_infrastructure_ray.stages.fetch import DOCS_SCHEMA

    sf = str(tmp_path / f"sf_{uuid.uuid4().hex[:12]}")
    out = qt._crawl_out_dir(sf)
    try:
        os.makedirs(os.path.join(out, "documents"))
        pq.write_table(pa.Table.from_pylist([{
            "doc_id": "stale", "url": "http://stale.example/", "host":
            "stale.example", "depth": 0, "enqueue_seq": 0,
            "url_hash_part": 0, "wave": 0, "simhash": 0, "spans": []}],
            schema=DOCS_SCHEMA),
            os.path.join(out, "documents", "part-000000000000000.parquet"))
        got = qt.q_crawl_doc_stats(sf).to_pandas()
        want = duckdb.connect().execute(
            qt._crawl_doc_stats_oracle_sql()).fetchdf()
        key = sorted(want.columns)
        got = got[key].sort_values(key).reset_index(drop=True)
        want = want[key].sort_values(key).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
    finally:
        shutil.rmtree(out, ignore_errors=True)


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
    kw = dict(seed=SEED, max_depth=1, chunk_size=64)
    r1 = run_crawl_pump(seeds, frontier=Frontier(1, seed=SEED, dedup=True),
                        rounds="shard", out_dir=str(tmp_path / "k1"), **kw)
    r8 = run_crawl_pump(seeds, frontier=Frontier(8, seed=SEED, dedup=True),
                        rounds="global", out_dir=str(tmp_path / "k8"), **kw)
    assert r1.histogram == r8.histogram
    c1, c8 = _claims(str(tmp_path / "k1")), _claims(str(tmp_path / "k8"))
    assert len(c1) == len(c8) > 0
    assert c1 == c8
