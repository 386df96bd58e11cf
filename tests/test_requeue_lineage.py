import os

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from crawling_infrastructure_ray.pipelines.crawl import (
    read_documents, read_lineage, run_crawl_pump)
from crawling_infrastructure_ray.pipelines.requeue import requeue_matching
from crawling_infrastructure_ray.sources.corpus import make_seed_urls
from crawling_infrastructure_ray.sources.readers import read_items_file


@pytest.fixture(scope="module")
def pump_run(ray_session, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("pump") / "run")
    seeds = make_seed_urls(300, seed=42)["url"].to_pylist()
    from crawling_infrastructure_ray.state.frontier import Frontier
    fr = Frontier(2, seed=42, dedup=True, max_retries=3, order="fifo")
    res = run_crawl_pump(seeds, frontier=fr, seed=42, max_depth=1,
                         chunk_size=64, out_dir=out)
    return res, fr


def test_lineage_table(pump_run):
    res, _ = pump_run
    lin = read_lineage(res.out_dir)
    assert lin.num_rows == res.waves           # one row per committed lease
    assert int(pc.sum(lin["n_items"]).as_py()) == res.urls_processed
    assert int(pc.sum(lin["n_ok"]).as_py()) == res.docs_written
    # G4-style fleet stats over lineage
    assert pc.min(lin["started"]).as_py() <= pc.max(lin["ended"]).as_py()


def test_requeue_matching(pump_run, ray_session):
    res, fr = pump_run
    docs = read_documents(res.out_dir)
    hist0 = fr.status_histogram()
    assert hist0["initial"] == 0
    # M6: predicate — re-crawl every doc from host h0.example
    def pred(batch: pa.Table):
        return pc.equal(batch["host"], "h0.example")
    n = requeue_matching(fr, docs, pred)
    assert n > 0
    hist1 = fr.status_histogram()
    assert hist1["initial"] == n
    assert hist1["completed"] == hist0["completed"] - n


def test_read_items_file(ray_session, tmp_path):
    # S2 chunked newline reader analog (lib/misc/helpers.ts:49-94).
    # File order is carried as DATA ((chunk_start, line_idx) keys),
    # not assumed from execution order — the streaming executor may
    # emit blocks out of order under load.
    from crawling_infrastructure_ray.sources.readers import strict_items
    path = tmp_path / "items.txt"
    urls = [f"http://h{i}.example/p{i}" for i in range(500)]
    path.write_text("\n".join(urls) + "\n")
    ds = read_items_file(str(path))
    assert strict_items(ds) == urls
    # tail-carry across chunk boundaries: tiny chunks force every
    # split mid-line; no trailing newline exercises the last-line path
    path2 = tmp_path / "items2.txt"
    path2.write_text("\n".join(urls))
    ds2 = read_items_file(str(path2), chunk_bytes=97)
    assert strict_items(ds2) == urls
    # gzip single-stream path
    import gzip
    path3 = tmp_path / "items.txt.gz"
    path3.write_bytes(gzip.compress(("\n".join(urls) + "\n").encode()))
    assert strict_items(read_items_file(str(path3))) == urls
