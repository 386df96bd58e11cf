"""``queries`` workload: eight oracle-gated registry queries over Ray
Data (read -> partial -> shuffle/merge), on a table set generated from
the workload seed by ``tools/make_sf.py``."""

from __future__ import annotations

import importlib.util
import os
import sys
import time
from dataclasses import dataclass

from .checks import check_query
from .harness import ROOT

SCALE = 0.02          # lineitem 120k rows, orders 30k, events 20k
WARMUP_SCALE = 0.001
NAMES = ["q1_pricing_summary", "j2_bucketed_join_revenue",
         "j1_order_customer_join", "events_hourly_window", "o6_top35_parts",
         "dedup_exact", "text_quality", "ann_brute_topk"]
# dedup_minhash_pairs is left out: its MinHasher pool asks for two
# one-CPU actors and never finishes on a one-CPU session (README.md).
WARMUP_NAMES = ["q1_pricing_summary", "text_quality"]
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]
READ_TABLES = ["customer", "orders", "lineitem", "part", "events",
               "documents", "embeddings"]


def make_tables(out_dir: str, scale: float, seed: int) -> None:
    spec = importlib.util.spec_from_file_location(
        "make_sf", os.path.join(ROOT, "tools", "make_sf.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    mod.make_tables(out_dir, scale, seed=seed)


@dataclass
class QueriesPass:
    wall: float
    results: dict
    failed: int

    @property
    def attempted(self) -> int:
        return len(NAMES)

    @property
    def ops_per_s(self) -> float:
        return len(NAMES) / self.wall


def _run(fn, sf_dir: str):
    out = fn(sf_dir)
    return out.to_pandas() if hasattr(out, "to_pandas") else out


class QueriesWorkload:
    name = "queries"

    def __init__(self, seed: int, tmp: str):
        self.seed = seed
        self.sf = os.path.join(tmp, "sf")
        self.warm_sf = os.path.join(tmp, "sf_warm")
        make_tables(self.sf, SCALE, seed)
        make_tables(self.warm_sf, WARMUP_SCALE, seed + 1)
        self._oracle: dict | None = None

    @staticmethod
    def _registry() -> dict:
        import __ray_entry__ as entry
        return entry.queries()

    def warmup(self) -> None:
        qs = self._registry()
        for name in WARMUP_NAMES:
            _run(qs[name], self.warm_sf)

    def run_pass(self, tracer) -> QueriesPass:
        qs = self._registry()
        results, failed = {}, 0
        t0 = time.perf_counter()
        for name in NAMES:
            with tracer.span(f"queries.{name}"):
                try:
                    results[name] = _run(qs[name], self.sf)
                except Exception as exc:  # counted, reported, run goes on
                    print(f"query {name} failed: {exc!r}", file=sys.stderr)
                    failed += 1
        wall = time.perf_counter() - t0
        return QueriesPass(wall, results, failed)

    def oracle(self) -> dict:
        """Every query's ``oracle_sql()`` result in DuckDB over the same
        parquet files, computed once."""
        if self._oracle is None:
            import duckdb
            import __ray_entry__ as entry
            sqls = entry.oracle_sql()
            con = duckdb.connect()
            for t in TABLES:
                path = os.path.join(self.sf, f"{t}.parquet")
                con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                            f"read_parquet('{path}')")
            self._oracle = {n: con.execute(sqls[n]).fetchdf() for n in NAMES}
        return self._oracle

    def check(self, p: QueriesPass) -> list[str]:
        want = self.oracle()
        problems = []
        for name, got in p.results.items():
            problems += [f"{name}: {m}" for m in check_query(got, want[name])]
        return problems

    def read_s(self) -> float:
        """Wall time of ``read_table`` over every table the eight
        queries touch, materialised."""
        from crawling_infrastructure_ray.sources.readers import read_table
        t0 = time.perf_counter()
        for t in READ_TABLES:
            read_table(self.sf, t).materialize()
        return time.perf_counter() - t0

    def layer_metrics(self, p: QueriesPass, tracer) -> dict:
        out = {f"queries.{n}_s": tracer.total(f"queries.{n}") for n in NAMES}
        out["sources.readers.read_s"] = self.read_s()
        return out
