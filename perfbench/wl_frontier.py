"""``frontier`` workload: the queue service alone, through ``Frontier``'s
public methods, with no fetch.

One pass: a duplicate-heavy submission list is ingested (the seed list
followed by its first half again, so about a third of the submissions
are rejected by the seen filter); politeness and robots are on; items
are drained by ``lease_wave`` + ``commit`` on a virtual clock passed as
``now``, so the token buckets bind without any wall-clock sleep; once
half the items are claimed the frontier is checkpointed, its shard
actors are killed, ``Frontier.restore`` brings it back and the drain
finishes on the restored shards.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field

from .checks import check_frontier, cuckoo_fp_allowance
from .harness import shard_count

FRONTIER_SEEDS = 8000    # 12k submissions, ~7.8k distinct URLs
WARMUP_SEEDS = 200
RATE = 40.0              # tokens per virtual second per host
BURST = 40.0
DT = 1.0                 # virtual seconds per lease round
LEASE_N = 1024           # items per shard per lease round
INGEST_BATCH = 4096
MAX_ROUNDS = 100_000     # a drain that never ends is a fault, not a figure


def submissions(urls: list[str]) -> list[str]:
    return urls + urls[: len(urls) // 2]


@dataclass
class FrontierPass:
    ingest_s: float
    drain_s: float
    resume_s: float
    n_submitted: int
    n_claimed: int
    rounds: int
    failed: int = 0
    check_data: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.ingest_s + self.drain_s + self.resume_s

    @property
    def attempted(self) -> int:
        return self.n_submitted + self.n_claimed

    @property
    def ops_per_s(self) -> float:
        """Queue operations (submissions and claims) per second of
        ingest and drain wall time."""
        return self.attempted / (self.ingest_s + self.drain_s)


def _ready(frontier) -> None:
    import ray
    ray.get([sh.get_counters.remote() for sh in frontier.shards])


def _kill(frontier) -> None:
    import ray
    for sh in frontier.shards:
        ray.kill(sh)


class FrontierWorkload:
    name = "frontier"

    def __init__(self, seed: int, tmp: str):
        from crawling_infrastructure_ray.sources.corpus import make_seed_urls
        self.seed = seed
        self.tmp = tmp
        self.num_shards = shard_count()
        self.subs = submissions(
            make_seed_urls(FRONTIER_SEEDS, seed=seed)["url"].to_pylist())
        self.warm_subs = submissions(
            make_seed_urls(WARMUP_SEEDS, seed=seed + 1)["url"].to_pylist())
        self._denied: set | None = None

    def _new_frontier(self):
        from crawling_infrastructure_ray.state.frontier import Frontier
        fr = Frontier(self.num_shards, seed=self.seed, dedup=True,
                      politeness=True, robots=True, default_rate=RATE,
                      default_burst=BURST)
        _ready(fr)
        return fr

    def _drive(self, subs: list[str], tracer, keep: bool) -> FrontierPass:
        import ray
        from crawling_infrastructure_ray.state.frontier import Frontier

        fr = self._new_frontier()
        ckpt = os.path.join(self.tmp, "frontier_ckpt")
        shutil.rmtree(ckpt, ignore_errors=True)
        with tracer.span("bench.frontier.pass"):
            t0 = time.perf_counter()
            inserted = 0
            for i in range(0, len(subs), INGEST_BATCH):
                with tracer.span("state.frontier.enqueue"):
                    inserted += fr.enqueue(subs[i:i + INGEST_BATCH])
            ingest_s = time.perf_counter() - t0

            now, rounds, claimed = 0.0, 0, 0
            claims: list = []          # (now, hosts of one lease)
            committed: list[int] = []
            resumed = False
            drain_s = resume_s = 0.0
            hist_before = hist_after = {}
            t0 = time.perf_counter()
            while True:
                with tracer.span("state.frontier.lease_wave"):
                    leases = fr.lease_wave(LEASE_N, now)
                with tracer.span("state.frontier.commit"):
                    ray.get([fr.commit(ls["shard"], ls["lease_id"],
                                       ls["seq"],
                                       ["completed"] * len(ls["seq"]),
                                       None, now) for ls in leases])
                rounds += 1
                n = 0
                for ls in leases:
                    n += len(ls["seq"])
                    claims.append((now, ls["host"]))
                    committed.extend(ls["seq"])
                claimed += n
                if n == 0:
                    with tracer.span("state.frontier.status_histogram"):
                        if fr.status_histogram()["initial"] == 0:
                            break
                if not resumed and 2 * claimed >= inserted:
                    drain_s += time.perf_counter() - t0
                    hist_before = fr.status_histogram()
                    t1 = time.perf_counter()
                    with tracer.span("state.frontier.checkpoint"):
                        fr.checkpoint(ckpt)
                    _kill(fr)
                    with tracer.span("state.frontier.restore"):
                        fr = Frontier.restore(ckpt)
                    resume_s = time.perf_counter() - t1
                    hist_after = fr.status_histogram()
                    resumed = True
                    t0 = time.perf_counter()
                if rounds >= MAX_ROUNDS:
                    raise RuntimeError(f"frontier not drained after "
                                       f"{rounds} lease rounds")
                now += DT
            drain_s += time.perf_counter() - t0
        p = FrontierPass(ingest_s, drain_s, resume_s, len(subs), claimed,
                         rounds)
        if keep:
            p.check_data = {
                "items": fr.dump_table().to_pydict(),
                "robots_denied_counter": fr.counters()["robots_denied"],
                "final_hist": fr.status_histogram(),
                "hist_before": hist_before, "hist_after": hist_after,
                "committed": committed,
                "claims": [(t, h) for t, hosts in claims for h in hosts],
                "leases_issued": sum(1 for _, hosts in claims if hosts),
            }
        _kill(fr)
        shutil.rmtree(ckpt, ignore_errors=True)
        return p

    def warmup(self) -> None:
        from .harness import Tracer
        self._drive(self.warm_subs, Tracer(False), keep=False)

    def run_pass(self, tracer) -> FrontierPass:
        return self._drive(self.subs, tracer, keep=True)

    def robots_denied(self) -> set:
        """URLs the robots hash algebra disallows, replayed in DuckDB
        (the ``sqlmirror`` transliteration the robots oracle uses)."""
        if self._denied is None:
            self._denied = robots_denied_replay(sorted(set(self.subs)),
                                                self.seed)
        return self._denied

    def check(self, p: FrontierPass) -> list[str]:
        d = p.check_data
        distinct = set(self.subs)
        return check_frontier(
            submitted=distinct, items=d["items"],
            committed_seqs=d["committed"],
            robots_denied=self.robots_denied(),
            robots_denied_counter=d["robots_denied_counter"],
            claims=d["claims"], rate=RATE, burst=BURST,
            hist_before=d["hist_before"], hist_after=d["hist_after"],
            final_hist=d["final_hist"],
            allowance=cuckoo_fp_allowance(len(distinct), self.num_shards))

    def layer_metrics(self, p: FrontierPass, tracer) -> dict:
        return {
            "state.frontier.enqueue_s": tracer.total("state.frontier.enqueue"),
            "state.frontier.lease_wave_s":
                tracer.total("state.frontier.lease_wave"),
            "state.frontier.commit_s": tracer.total("state.frontier.commit"),
            "state.frontier.rounds": p.rounds,
            "state.frontier.leases_issued": p.check_data["leases_issued"],
            "state.frontier.checkpoint_s":
                tracer.total("state.frontier.checkpoint"),
            "state.frontier.restore_s": tracer.total("state.frontier.restore"),
            "bench.frontier_self_s": tracer.self_time("bench.frontier.pass"),
        }


def robots_denied_replay(urls: list[str], seed: int) -> set:
    """DuckDB replay of ``RobotsCache.allowed`` over ``urls``: per host
    a 2-of-16 disallowed path-shard mask from the host hash nibbles,
    per URL the shard of its first path segment's hash."""
    import duckdb
    import pyarrow as pa
    from crawling_infrastructure_ray.functions.sqlmirror import \
        stable_hash64_cte

    con = duckdb.connect()
    con.register("bench_urls", pa.table({"url": pa.array(urls, pa.string())}))
    w1, hosts = stable_hash64_cte(
        "SELECT DISTINCT split_part(url, '/', 3) AS host FROM bench_urls",
        "host", {"hh": seed ^ 0x0B07}, prefix="rbh_")
    w2, segs = stable_hash64_cte(
        "SELECT url, split_part(url, '/', 3) AS host, "
        "split_part(split_part(url, '/', 4), '?', 1) AS seg FROM bench_urls",
        "seg", {"sh": seed ^ 0x70B0}, carry_cols=("url", "host"),
        prefix="rbs_", include_with=False)
    sql = w1 + w2 + (
        f", rb_h AS (SELECT host, hh, CAST(hh % 16 AS BIGINT) AS n0 "
        f"FROM {hosts}), "
        "rb_j AS (SELECT h.host, h.n0, gs.generate_series AS j, "
        "CAST((h.hh >> CAST(4 * gs.generate_series AS INTEGER)) & 15 "
        "AS BIGINT) AS nj FROM rb_h h CROSS JOIN generate_series(1, 15) gs), "
        "rb_d AS (SELECT host, nj AS n1, row_number() OVER "
        "(PARTITION BY host ORDER BY j) AS rn FROM rb_j WHERE nj != n0), "
        "rb_m AS (SELECT h.host, CASE WHEN h.hh = 0 THEN 1 "
        "ELSE ((CAST(1 AS BIGINT) << h.n0) | "
        "(CAST(1 AS BIGINT) << coalesce(d.n1, h.n0))) END AS mask "
        "FROM rb_h h LEFT JOIN (SELECT host, n1 FROM rb_d WHERE rn = 1) d "
        "USING (host)) "
        f"SELECT s.url FROM {segs} s JOIN rb_m m USING (host) "
        "WHERE ((m.mask >> CAST(s.sh % 16 AS INTEGER)) & 1) = 1")
    return {r[0] for r in con.execute(sql).fetchall()}
