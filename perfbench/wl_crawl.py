"""``crawl`` workload: the async pump drains a Zipf-host seed list to
depth 1 with the engine defaults (cuckoo dedup, no politeness)."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import pyarrow.parquet as pq

from .checks import check_crawl, cuckoo_fp_allowance
from .harness import ncpu, shard_count

CRAWL_SEEDS = 1000      # about 3.9k fetch attempts per pass
WARMUP_SEEDS = 100
MAX_DEPTH = 1


@dataclass
class CrawlPass:
    wall: float          # pump wall time
    attempted: int       # fetch attempts
    failed: int
    result: object       # CrawlResult
    out_dir: str

    @property
    def ops_per_s(self) -> float:
        return self.attempted / self.wall


class CrawlWorkload:
    name = "crawl"

    def __init__(self, seed: int, tmp: str):
        from crawling_infrastructure_ray.sources.corpus import make_seed_urls
        self.seed = seed
        self.tmp = tmp
        self.num_shards = shard_count()
        self.seeds = make_seed_urls(CRAWL_SEEDS, seed=seed)["url"].to_pylist()
        self.warm_seeds = make_seed_urls(
            WARMUP_SEEDS, seed=seed + 1)["url"].to_pylist()
        self._replay: set | None = None
        self._fr = None                  # shard actors of the session
        self._empty = os.path.join(tmp, "crawl_empty_frontier")

    def _pump(self, seeds: list[str], out_dir: str, tracer):
        """One pump run over ``seeds`` on the session's shard actors."""
        from crawling_infrastructure_ray.pipelines.crawl import run_crawl_pump
        t0 = time.perf_counter()
        with tracer.span("pipelines.crawl.run_crawl_pump"):
            res = run_crawl_pump(seeds, frontier=self._fr, seed=self.seed,
                                 max_depth=MAX_DEPTH, out_dir=out_dir)
        return res, time.perf_counter() - t0

    def _reset_frontier(self) -> None:
        """Empty the shard actors by restoring the snapshot taken when
        they were new, so no pass pays for starting actor processes."""
        import ray
        ray.get([sh.restore.remote(os.path.join(self._empty, f"shard_{i:04d}"))
                 for i, sh in enumerate(self._fr.shards)])
        self._fr.next_seq = 0

    def warmup(self) -> None:
        """Start this session's shard actors, snapshot them empty, and
        crawl a small seed list on them."""
        import ray
        from crawling_infrastructure_ray.state.frontier import Frontier

        from .harness import Tracer
        self._fr = Frontier(self.num_shards, seed=self.seed, dedup=True)
        ray.get([sh.get_counters.remote() for sh in self._fr.shards])
        self._fr.checkpoint(self._empty)
        self._pump(self.warm_seeds, os.path.join(self.tmp, "crawl_warm"),
                   Tracer(False))

    def run_pass(self, tracer) -> CrawlPass:
        self._reset_frontier()
        out_dir = os.path.join(self.tmp, "crawl")
        res, wall = self._pump(self.seeds, out_dir, tracer)
        return CrawlPass(wall, res.urls_processed, 0, res, out_dir)

    def replay_completed(self) -> set:
        """URLs the DuckDB replay of the crawl universe completes for
        this seed list (``_crawl_universe_ctes``), computed once."""
        if self._replay is None:
            import duckdb
            from crawling_infrastructure_ray.pipelines.training import \
                _crawl_universe_ctes
            with_sql, uni = _crawl_universe_ctes(seed=self.seed,
                                                 n_seeds=CRAWL_SEEDS)
            rows = duckdb.connect().execute(
                with_sql + f" SELECT url FROM {uni} WHERE r NOT IN (6, 7)"
            ).fetchall()
            self._replay = {r[0] for r in rows}
        return self._replay

    def check(self, p: CrawlPass) -> list[str]:
        docs = pq.read_table(os.path.join(p.out_dir, "documents"),
                             columns=["doc_id", "url"])
        replay = self.replay_completed()
        return check_crawl(
            docs, docs_written=p.result.docs_written,
            histogram=p.result.histogram, replay_completed=replay,
            allowance=cuckoo_fp_allowance(p.attempted, self.num_shards))

    def layer_metrics(self, p: CrawlPass, tracer) -> dict:
        """Per-lease figures from the pump's ``lineage.parquet``."""
        from crawling_infrastructure_ray.pipelines.crawl import read_lineage
        lin = read_lineage(p.out_dir).to_pydict()
        busy = sum(e - s for s, e in zip(lin["started"], lin["ended"]))
        return {
            "pipelines.crawl.pump_s": tracer.total(
                "pipelines.crawl.run_crawl_pump"),
            "pipelines.crawl.leases": len(lin["lease_id"]),
            "pipelines.crawl.lease_busy_s": busy,
            "pipelines.crawl.cpu_busy_ratio": busy / (p.wall * ncpu()),
            "pipelines.crawl.useful_fetch_ratio":
                p.result.docs_written / p.attempted,
        }
