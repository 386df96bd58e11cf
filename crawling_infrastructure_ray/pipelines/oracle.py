"""Single-threaded conformance oracle for the crawl engine.

Replays the reference queue semantics (SURVEY.md §3.2) with NO Ray:
one ``FrontierShardCore`` (global FIFO — the K=1 conformance mode),
``fetch_outcome`` / ``make_spans`` / ``link_children`` evaluated
inline, the same round structure as ``run_crawl_pump``'s round mode.
Produces the golden artifacts of FIXTURES.md: ``golden_crawl_order``,
``golden_seen_set``, ``golden_status_histogram``, ``golden_spans`` —
the engine's distributed output must match them exactly (per-row
span-sequence equality per BASELINE.json input_hint).

This is the analog of the reference's observable-row-count test
strategy (crawler/test/remote_tests.ts asserts queue row counts and
statuses after orchestrated runs; SURVEY.md §5).
"""

from __future__ import annotations

import pyarrow as pa

from ..sources.corpus import (doc_id_for_url, fetch_outcome, link_children,
                              make_spans, spans_arrow_type)
from ..state.frontier import FrontierShardCore


def oracle_crawl(seed_urls: list[str], *, seed: int = 42, dedup: bool = True,
                 robots: bool = False, politeness: bool = False,
                 default_rate: float = 1.0, default_burst: float = 4.0,
                 politeness_overrides: dict | None = None,
                 now_fn=None,
                 max_depth: int = 2, max_retries: int = 3,
                 num_hosts: int = 64, items_per_wave: int = 4096,
                 max_waves: int | None = None) -> dict:
    """``politeness`` + ``now_fn`` let the oracle replay the ordering
    under a host token-bucket budget on a VIRTUAL clock: the loop calls
    ``now_fn`` once per iteration exactly like ``run_crawl_pump``'s
    round mode, so an engine run driven by an identical step clock
    sees the same token states and must claim in the same order (north
    rule: identical crawl ordering under the same seed list AND
    politeness budget)."""
    shard = FrontierShardCore(0, dedup=dedup, robots=robots,
                              politeness=politeness,
                              default_rate=default_rate,
                              default_burst=default_burst,
                              politeness_overrides=politeness_overrides,
                              max_retries=max_retries, order="fifo", seed=seed)
    next_seq = 0
    shard.enqueue(list(range(len(seed_urls))), seed_urls, [0] * len(seed_urls))
    next_seq = len(seed_urls)

    claim_order: list[tuple] = []  # (claim_idx, enqueue_seq, url, attempt)
    docs: list[dict] = []
    claim_idx = 0
    waves = 0
    while True:
        if max_waves is not None and waves >= max_waves:
            break
        now = now_fn() if now_fn else 0.0
        lease = shard.lease(items_per_wave, now=now)
        if not lease["seq"]:
            if shard.status_histogram()["running"] == 0 and shard.retry_failed() > 0:
                continue
            break
        statuses, errors = [], []
        disc: list[tuple[str, int]] = []
        for seq, url, depth, attempt in zip(lease["seq"], lease["url"],
                                            lease["depth"], lease["attempt"]):
            claim_order.append((claim_idx, seq, url, attempt))
            claim_idx += 1
            out = fetch_outcome(url, attempt, seed)
            statuses.append(out["status"])
            errors.append(out["error"])
            if out["status"] == "completed":
                docs.append({"doc_id": doc_id_for_url(url), "url": url,
                             "depth": depth, "enqueue_seq": seq,
                             "spans": make_spans(url, seed)})
                for c in link_children(url, depth, seed, max_depth, num_hosts):
                    disc.append((c, depth + 1))
        shard.commit(lease["lease_id"], lease["seq"], statuses, errors, now=now)
        if disc:
            seqs = list(range(next_seq, next_seq + len(disc)))
            shard.enqueue(seqs, [u for u, _ in disc], [d for _, d in disc])
            next_seq += len(disc)
        waves += 1

    docs_tbl = pa.table({
        "doc_id": pa.array([d["doc_id"] for d in docs], pa.string()),
        "url": pa.array([d["url"] for d in docs], pa.string()),
        "depth": pa.array([d["depth"] for d in docs], pa.int32()),
        "enqueue_seq": pa.array([d["enqueue_seq"] for d in docs], pa.uint64()),
        "spans": pa.array([d["spans"] for d in docs], spans_arrow_type()),
    })
    return {
        "claim_order": claim_order,
        "seen_set": shard.seen_set(),
        "histogram": shard.status_histogram(),
        "documents": docs_tbl,
        "waves": waves,
    }
