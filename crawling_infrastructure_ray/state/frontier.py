"""Sharded URL frontier — the rebuild of the reference's MongoDB queue.

The reference keeps one MongoDB collection per task
(``item_queue_<task_id>``) with a per-item state machine
{initial=0, running=1, completed=2, failed=3} (lib/types/queue.ts:3-13)
and these semantics (SURVEY.md §3.2 invariant):

  Claim = first ``n`` rows in ``enqueue_seq`` order with
  ``status==initial``, marked ``running`` atomically
  (crawler/src/crawl_queue.ts:89-117); commit in lease order
  (crawl_queue.ts:119-149); ``failed→initial`` restores eligibility at
  the item's ORIGINAL position (master/src/models/queue.model.ts:258-266
  updates in place); worker-side ``enqueue()`` appends at the tail with
  a fresh ``enqueue_seq`` (crawler/src/enqueue.ts:71-116); block
  detection does not consume a retry (crawler/src/handler.ts:171-176);
  worker abort / storage failure rolls uncommitted lease items back to
  ``initial`` (crawler/src/handler.ts:90-103, crawler/src/index.ts:237-243).

Here each ``FrontierShardCore`` is a single-writer owner of one hash
partition of the URL space (shard = stable_hash64(host) % K, computed
only by ``shard_of_urls`` / ``shard_of_hosts``, so per-host
politeness state is shard-local). Single-writer actors make the
reference's "atom write operation" claims (crawl_queue.ts:82-88)
trivially race-free — the known ``num_workers_running`` races
(crawltask.model.ts:202-204) disappear by construction.

North-star additions the reference lacks: cuckoo/bloom URL-seen dedup
(mode flag — fidelity mode allows duplicates like the reference),
per-host token-bucket politeness, robots verdicts, lease TTL healing,
and parquet+pickle shard checkpoints for exact resume.

Scale notes (10^10 URLs, 256 nodes): state per shard is O(in-flight +
not-yet-terminal) items plus an O(1)-per-URL cuckoo filter; terminal
items are evicted to the lineage/documents tables (``evict_terminal``)
so shard memory stays bounded. Leases move as columnar dicts (one
message per lease, not per item).
"""

from __future__ import annotations

import heapq
import os
import pickle
import tempfile
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..config import LEASE_TTL_S
from ..functions.hashing import stable_hash64_np
from ..functions.urltools import canonicalize_and_host, url_host
from .filters import (BloomFilter, CuckooFilter, ExactSeenSet,
                      ScalableSeenFilter)
from .politeness import HostPoliteness, RealRobots, RobotsCache

# per-item states — values match the reference enum (lib/types/queue.ts:13)
INITIAL, RUNNING, COMPLETED, FAILED = 0, 1, 2, 3

# item tuple layout inside a shard. retries = the reference's retry
# counter (block-detection doesn't consume one, R6); attempts = total
# number of times the item was actually leased (always increments) —
# what the reference's `retries += 1; if blocked: retries -= 1`
# sequence transiently counts (crawler/src/handler.ts:109,171-176).
_URL, _HOST, _DEPTH, _PRIORITY, _STATUS, _RETRIES, _ERROR, _CRAWLED, _ATTEMPTS = range(9)


class FrontierShardCore:
    """Single shard of the frontier. Pure Python — wrapped by ray.remote
    below; used directly (K=1) as the single-threaded conformance oracle."""

    def __init__(self, shard_id: int = 0, *, dedup: bool = False,
                 use_cuckoo: bool = True, exact_seen: bool = False,
                 filter_capacity: int = 1 << 20,
                 politeness: bool = False, default_rate: float = 1.0,
                 default_burst: float = 4.0,
                 politeness_overrides: dict | None = None,
                 robots: bool = False, robots_impl: str = "simulated",
                 max_retries: int = 3, lease_ttl: float = LEASE_TTL_S,
                 order: str = "fifo", seed: int = 42,
                 track_seen_urls: bool = True):
        self.shard_id = shard_id
        self.dedup = dedup
        self.max_retries = max_retries  # reference retry_failed_items default 3 (crawltask.model.ts:399-403)
        self.lease_ttl = lease_ttl
        self.order = order  # "fifo" (reference fidelity) | "priority" (north-star heap)
        self.seed = seed
        self.items: dict[int, list] = {}
        self.heap: list[tuple] = []        # (order_key..., seq) lazy-deleted
        self.leases: dict[int, tuple[list[int], float]] = {}
        self.next_lease_id = shard_id * 1_000_000_000
        # shard-local seq block for task-routed discovered URLs (async
        # pump): disjoint from driver-assigned seqs and from other
        # shards; per-shard FIFO tail-append is preserved because local
        # seqs sort after all driver seqs
        self.next_local_seq = (shard_id + 1) * 10 ** 12
        self.seen = None
        if dedup:
            # scalable cuckoo chain: no hard capacity ceiling (grows by
            # tiers as the frontier exceeds the initial estimate).
            # exact_seen (conformance/soak runs): a filter false
            # positive silently drops a genuinely-new URL, and which
            # URL collides depends on insertion order — runs needing a
            # deterministic final document SET use the exact set
            # (~35 B/key; the cuckoo chain is the 10^10 path).
            if exact_seen:
                self.seen = ExactSeenSet(seed)
            else:
                self.seen = (ScalableSeenFilter(filter_capacity, seed)
                             if use_cuckoo
                             else BloomFilter(filter_capacity, 0.001, seed))
        # per-host budget table (FIXTURES F5): host → (rate, burst)
        self.politeness = (HostPoliteness(default_rate, default_burst,
                                          politeness_overrides)
                           if politeness else None)
        # robots_impl: 'simulated' (hash verdicts, checkpoint-stable —
        # the conformance default) | 'real' (RealRobots: the RFC-9309
        # text parser over the synthetic per-host robots.txt origin;
        # same interface, oracle-gated by robots_real_verdicts)
        if not robots:
            self.robots = None
        elif robots_impl == "real":
            self.robots = RealRobots(seed)
        else:
            self.robots = RobotsCache(seed)
        # lineage counters (reference worker_meta analog, lib/types/workermeta.ts)
        self.counters = {"enqueued": 0, "deduped": 0, "robots_denied": 0,
                         "leased": 0, "leases_issued": 0,
                         "committed_ok": 0, "committed_fail": 0,
                         "committed_blocked": 0, "rolled_back": 0,
                         "retried": 0, "expired_leases": 0, "evicted": 0}
        # terminal counts survive eviction so histograms stay exact
        self._evicted_completed = 0
        self._evicted_failed = 0
        # politeness parking lot (see lease()): host → blocked heap
        # entries; ready-time heap readmits them; pending guards
        # against duplicate ready-time rows per host
        self._parked: dict[str, list[tuple]] = {}
        self._park_heap: list[tuple] = []
        self._park_pending: set[str] = set()
        # exact seen-set audit (conformance mode). At 10^10-URL scale
        # this list is the one O(corpus) structure — disable it
        # (track_seen_urls=False) and membership lives only in the
        # cuckoo filter + counters.
        self.track_seen_urls = track_seen_urls
        self._terminal_seen: list[str] = []
        # lease ids whose routed children this shard has inserted and
        # the pump has not yet acknowledged (``ack_routed``); driver
        # bookkeeping only, so neither counted nor snapshotted
        self._routed: set[int] = set()

    # ------------------------------------------------------------------
    # ingest (reference S1 insertItems, queue.model.ts:32-68)
    # ------------------------------------------------------------------
    def enqueue(self, seqs: list[int], urls: list[str], depths: list[int],
                priorities: list[int] | None = None) -> int:
        """Insert items with caller-assigned global enqueue seqs.

        Returns number actually inserted (dedup mode may skip). The
        caller (Frontier facade / commit pump) assigns monotonically
        increasing seqs — the Mongo ``_id`` insertion-order analog.
        """
        priorities = priorities or [1] * len(urls)
        inserted = 0
        for seq, url, depth, prio in zip(seqs, urls, depths, priorities):
            curl, host = canonicalize_and_host(url)
            if self.seen is not None:
                if not self.seen.add(curl):  # already present → duplicate
                    self.counters["deduped"] += 1
                    continue
            self.items[seq] = [curl, host, depth, prio, INITIAL, 0, "", 0.0, 0]
            heapq.heappush(self.heap, self._key(seq, depth, prio))
            inserted += 1
        self.counters["enqueued"] += inserted
        return inserted

    def enqueue_discovered(self, urls: list[str], depths: list[int],
                           lease_id: int | None = None) -> int:
        """Tail-append discovered URLs with SHARD-ALLOCATED seqs —
        called directly from fetch tasks in the async pump so child
        routing never transits the driver (the reference's worker-side
        enqueue, crawler/src/enqueue.ts:71-116, similarly writes
        straight to the queue). A call that carries the routing task's
        ``lease_id`` is remembered until ``ack_routed`` confirms it."""
        n = len(urls)
        seqs = list(range(self.next_local_seq, self.next_local_seq + n))
        self.next_local_seq += n
        try:
            return self.enqueue(seqs, urls, depths)
        finally:
            # even a failed insert is acknowledged: a waiting drain
            # must not poll forever for it
            if lease_id is not None:
                self._routed.add(lease_id)

    def ack_routed(self, lease_ids: list[int]) -> list[int]:
        """The ``lease_ids`` whose ``enqueue_discovered`` call has not
        reached this shard yet; the others are acknowledged and
        forgotten. The pump polls until the list is empty, so a drained
        check or a snapshot sees every routed child."""
        missing = [lid for lid in lease_ids if lid not in self._routed]
        self._routed.difference_update(lease_ids)
        return missing

    def _key(self, seq: int, depth: int, prio: int) -> tuple:
        if self.order == "priority":
            # north-star heap: (crawl_depth, enqueue_seq); host budget is
            # enforced at claim time via the token buckets (BASELINE.json
            # north_star: priority heap keyed by crawl-depth, host-budget,
            # enqueue-time)
            return (depth, -prio, seq)
        return (seq,)

    # ------------------------------------------------------------------
    # claim (reference S7 getItemsToCrawlSafe, crawl_queue.ts:89-117)
    # ------------------------------------------------------------------
    def lease(self, n: int, now: float | None = None) -> dict:
        """Atomically claim up to ``n`` eligible items: initial→running.

        Returns a columnar dict {lease_id, seq[], url[], host[],
        depth[], retries[], priority[]}. Politeness-blocked items stay
        eligible (skipped this claim); robots-disallowed items go
        terminal ``failed`` with error='robots_disallowed'.
        """
        now = time.monotonic() if now is None else now
        claimed: list[int] = []
        # politeness PARKING LOT: a blocked item leaves the main heap
        # into a per-host side buffer and only returns when that
        # host's bucket has a token again (ready-time heap). This is
        # the classic polite-frontier structure and fixes two failure
        # modes of scan-and-restore designs at once: the O(frontier)
        # busy-scan when the heap head is a blocked hot-host run
        # (every claim call re-walked it), and the starvation of items
        # queued BEHIND a never-refilling (rate≈0) host's window —
        # parked items don't block the scan from reaching other hosts.
        if self.politeness is not None:
            while self._park_heap and self._park_heap[0][0] <= now:
                _, h = heapq.heappop(self._park_heap)
                self._park_pending.discard(h)
                for entry in self._parked.pop(h, ()):
                    heapq.heappush(self.heap, entry)
        blocked_hosts: set[str] = set()
        # per-call work bound: park at most this many blocked entries
        # per claim call (the rest stay in the heap for the next call,
        # which resumes deeper because parked entries are gone)
        max_park = max(8 * n, 1024)
        n_parked = 0
        while self.heap and len(claimed) < n and n_parked < max_park:
            entry = heapq.heappop(self.heap)
            seq = entry[-1]
            it = self.items.get(seq)
            if it is None or it[_STATUS] != INITIAL:
                continue  # stale heap entry (lazy deletion)
            if self.robots is not None and not self.robots.allowed(it[_URL]):
                it[_STATUS] = FAILED
                it[_RETRIES] = self.max_retries  # terminal — robots never flips
                it[_ERROR] = "robots_disallowed"
                self.counters["robots_denied"] += 1
                if self.track_seen_urls:
                    self._terminal_seen.append(it[_URL])
                continue
            if self.politeness is not None:
                host = it[_HOST]
                if host in blocked_hosts or not self.politeness.try_take(host, now):
                    self._parked.setdefault(host, []).append(entry)
                    blocked_hosts.add(host)
                    n_parked += 1
                    continue
            it[_STATUS] = RUNNING
            it[_ATTEMPTS] += 1
            claimed.append(seq)
        for h in blocked_hosts:
            if h not in self._park_pending:
                self._park_pending.add(h)
                heapq.heappush(self._park_heap,
                               (self.politeness.next_available(h, now), h))
        if not claimed:
            return {"lease_id": -1, "seq": [], "url": [], "host": [],
                    "depth": [], "retries": [], "priority": [], "attempt": []}
        lease_id = self.next_lease_id
        self.next_lease_id += 1
        self.leases[lease_id] = (claimed, now + self.lease_ttl)
        self.counters["leased"] += len(claimed)
        self.counters["leases_issued"] += 1
        its = [self.items[s] for s in claimed]
        return {"lease_id": lease_id, "seq": claimed,
                "url": [i[_URL] for i in its], "host": [i[_HOST] for i in its],
                "depth": [i[_DEPTH] for i in its],
                "retries": [i[_RETRIES] for i in its],
                "priority": [i[_PRIORITY] for i in its],
                "attempt": [i[_ATTEMPTS] - 1 for i in its]}

    def lease_many(self, k: int, n: int, now: float | None = None) -> list[dict]:
        """Up to ``k`` leases of ``n`` items in one actor round-trip
        (amortizes RPC cost for the async pump).

        Stops early when a lease comes back PARTIAL (< n items): that
        means current supply — eligible items or politeness tokens —
        is exhausted, and issuing the remaining k-1 leases would only
        fragment it into tiny chunks (measured: polite chunk=1024
        requests came back as median-39-item leases, 4x the task count
        for the same URLs). The next pump round re-asks after tokens
        refill."""
        out = []
        for _ in range(k):
            lease = self.lease(n, now)
            if not lease["seq"]:
                break
            out.append(lease)
            if len(lease["seq"]) < n:
                break
        return out

    def get_next_lease_id(self) -> int:
        return self.next_lease_id

    def claim_wait(self, now: float | None = None) -> float:
        """Seconds until ``lease`` can claim an item: 0 while the heap
        holds entries, the earliest time a parked host's bucket refills
        when every open item is parked, inf when none ever can (nothing
        open, or only items of paused hosts)."""
        now = time.monotonic() if now is None else now
        if self.heap:
            return 0.0
        if self._park_heap:
            return max(0.0, self._park_heap[0][0] - now)
        return float("inf")

    # ------------------------------------------------------------------
    # global-FIFO interleave mode (SURVEY §7.4): two-phase claim
    # ------------------------------------------------------------------
    def peek_open(self, n: int) -> list[int]:
        """The shard's ``n`` smallest OPEN enqueue_seqs, without
        claiming — phase 1 of the cross-shard global-FIFO interleave
        (``Frontier.lease_wave_global``): the driver merges every
        shard's peek and claims the globally smallest seqs, so a K>1
        run reproduces the K=1 claim stream EXACTLY. Stale heap
        entries encountered are dropped (the usual lazy deletion);
        valid ones are re-pushed. Conformance-mode primitive —
        throughput mode is the pump."""
        valid: list[tuple] = []
        while self.heap and len(valid) < n:
            entry = heapq.heappop(self.heap)
            it = self.items.get(entry[-1])
            if it is None or it[_STATUS] != INITIAL:
                continue
            valid.append(entry)
        for entry in valid:
            heapq.heappush(self.heap, entry)
        return [e[-1] for e in valid]

    def lease_seqs(self, seqs: list[int], now: float | None = None) -> dict:
        """Phase 2 of the global-FIFO interleave: claim EXACTLY these
        seqs (all must be open — the driver just peeked them; wave
        mode has no concurrent mutation between the phases). Same
        lease bookkeeping as ``lease``; heap entries stay behind as
        stale rows for lazy deletion."""
        now = time.monotonic() if now is None else now
        claimed: list[int] = []
        for seq in seqs:
            it = self.items.get(seq)
            if it is None or it[_STATUS] != INITIAL:
                continue
            it[_STATUS] = RUNNING
            it[_ATTEMPTS] += 1
            claimed.append(seq)
        if not claimed:
            return {"lease_id": -1, "seq": [], "url": [], "host": [],
                    "depth": [], "retries": [], "priority": [],
                    "attempt": []}
        lease_id = self.next_lease_id
        self.next_lease_id += 1
        self.leases[lease_id] = (claimed, now + self.lease_ttl)
        self.counters["leased"] += len(claimed)
        self.counters["leases_issued"] += 1
        its = [self.items[s] for s in claimed]
        return {"lease_id": lease_id, "seq": claimed,
                "url": [i[_URL] for i in its],
                "host": [i[_HOST] for i in its],
                "depth": [i[_DEPTH] for i in its],
                "retries": [i[_RETRIES] for i in its],
                "priority": [i[_PRIORITY] for i in its],
                "attempt": [i[_ATTEMPTS] - 1 for i in its]}

    # ------------------------------------------------------------------
    # commit (reference K4 updateQueueNew, crawl_queue.ts:119-149)
    # ------------------------------------------------------------------
    def commit(self, lease_id: int, seqs: list[int], statuses: list[str],
               errors: list[str] | None = None, now: float | None = None,
               eager_retry: bool = False) -> dict:
        """Write back results for (part of) a lease.

        ``statuses[i]`` ∈ {'completed', 'failed', 'blocked'}:
          completed → COMPLETED, crawled_at stamped
          failed    → FAILED, retries += 1   (handler.ts:109,161-162)
          blocked   → FAILED, retries unchanged (R6, handler.ts:171-176)
        Uncommitted lease members roll back to INITIAL (R5).

        ``eager_retry=True`` (async-pump mode) applies R1 at commit
        time: a retryable failure goes straight back to INITIAL at its
        original seq instead of waiting for the global
        failed>0 ∧ running==0 gate — same final states and retry
        counts, no full-drain barrier between retry rounds.
        """
        now = time.time() if now is None else now
        errors = errors or [""] * len(seqs)
        lease = self.leases.pop(lease_id, None)
        lease_seqs = set(lease[0]) if lease else set()
        for seq, st, err in zip(seqs, statuses, errors):
            it = self.items.get(seq)
            if it is None or it[_STATUS] != RUNNING:
                continue
            lease_seqs.discard(seq)
            if st == "completed":
                it[_STATUS] = COMPLETED
                it[_CRAWLED] = now
                self.counters["committed_ok"] += 1
                if self.track_seen_urls:
                    self._terminal_seen.append(it[_URL])
            elif st == "blocked":
                it[_ERROR] = err or "blocked"
                self.counters["committed_blocked"] += 1
                if eager_retry:
                    it[_STATUS] = INITIAL
                    heapq.heappush(self.heap, self._key(seq, it[_DEPTH], it[_PRIORITY]))
                    self.counters["retried"] += 1
                else:
                    it[_STATUS] = FAILED
            else:
                it[_RETRIES] += 1
                it[_ERROR] = err or "failed"
                self.counters["committed_fail"] += 1
                if it[_RETRIES] >= self.max_retries:
                    it[_STATUS] = FAILED
                    if self.track_seen_urls:
                        self._terminal_seen.append(it[_URL])
                elif eager_retry:
                    it[_STATUS] = INITIAL
                    heapq.heappush(self.heap, self._key(seq, it[_DEPTH], it[_PRIORITY]))
                    self.counters["retried"] += 1
                else:
                    it[_STATUS] = FAILED
        # R5: anything leased but not reported rolls back to initial
        rolled = 0
        for seq in lease_seqs:
            it = self.items.get(seq)
            if it is not None and it[_STATUS] == RUNNING:
                it[_STATUS] = INITIAL
                heapq.heappush(self.heap, self._key(seq, it[_DEPTH], it[_PRIORITY]))
                rolled += 1
        self.counters["rolled_back"] += rolled
        return {"rolled_back": rolled}

    def rollback(self, lease_id: int) -> int:
        """Worker-abort rollback (R5): every lease item running→initial."""
        lease = self.leases.pop(lease_id, None)
        if lease is None:
            return 0
        n = 0
        for seq in lease[0]:
            it = self.items.get(seq)
            if it is not None and it[_STATUS] == RUNNING:
                it[_STATUS] = INITIAL
                heapq.heappush(self.heap, self._key(seq, it[_DEPTH], it[_PRIORITY]))
                n += 1
        self.counters["rolled_back"] += n
        return n

    def expire_leases(self, now: float | None = None) -> int:
        """Lease-TTL healing (maps reference R3 lost-worker healing,
        workermeta.model.ts:175-203)."""
        now = time.monotonic() if now is None else now
        expired = [lid for lid, (_, exp) in self.leases.items() if exp <= now]
        n = 0
        for lid in expired:
            n += self.rollback(lid)
            self.counters["expired_leases"] += 1
        return n

    # ------------------------------------------------------------------
    # retry / heal (reference R1-R4, queue.model.ts:245-308)
    # ------------------------------------------------------------------
    def retry_failed(self) -> int:
        """R1: failed ∧ retries < max → initial, at ORIGINAL seq position.

        The reference updates rows in place so a retried item keeps its
        queue position (queue.model.ts:258-266); re-pushing the original
        seq into the heap reproduces that exactly.
        """
        n = 0
        for seq, it in self.items.items():
            if it[_STATUS] == FAILED and not self._terminal(it):
                it[_STATUS] = INITIAL
                heapq.heappush(self.heap, self._key(seq, it[_DEPTH], it[_PRIORITY]))
                n += 1
        self.counters["retried"] += n
        return n

    def requeue_all_failed(self) -> int:
        """R4 manual re-enqueue: failed → initial, retries/error reset
        (queue.model.ts:274-287)."""
        n = 0
        for seq, it in self.items.items():
            if it[_STATUS] == FAILED:
                it[_STATUS] = INITIAL
                it[_RETRIES] = 0
                it[_ERROR] = ""
                heapq.heappush(self.heap, self._key(seq, it[_DEPTH], it[_PRIORITY]))
                n += 1
        return n

    def requeue_seqs(self, seqs: list[int], reset_retries: bool = True) -> int:
        """M6 enqueue-check requeue (queue.service.ts:106-180): reset
        the given (already-crawled) items to INITIAL so they re-crawl;
        unknown seqs are ignored (callers broadcast to shards)."""
        n = 0
        for seq in seqs:
            it = self.items.get(seq)
            if it is None or it[_STATUS] == RUNNING:
                continue
            if it[_STATUS] != INITIAL:
                it[_STATUS] = INITIAL
                if reset_retries:
                    it[_RETRIES] = 0
                    it[_ERROR] = ""
                heapq.heappush(self.heap, self._key(seq, it[_DEPTH], it[_PRIORITY]))
                n += 1
        return n

    def heal_running(self) -> int:
        """R2 manual heal: every running → initial (queue.model.ts:295-308)."""
        n = 0
        for seq, it in self.items.items():
            if it[_STATUS] == RUNNING:
                it[_STATUS] = INITIAL
                heapq.heappush(self.heap, self._key(seq, it[_DEPTH], it[_PRIORITY]))
                n += 1
        self.leases.clear()
        return n

    # ------------------------------------------------------------------
    # aggregates (reference G1/G2, queue.model.ts:98-127)
    # ------------------------------------------------------------------
    def status_histogram(self) -> dict[str, int]:
        h = {"initial": 0, "running": 0, "completed": self._evicted_completed,
             "failed": self._evicted_failed}
        names = ("initial", "running", "completed", "failed")
        for it in self.items.values():
            h[names[it[_STATUS]]] += 1
        return h

    def _terminal(self, it: list) -> bool:
        """Completed, or failed for good (retries spent or robots-denied)."""
        return it[_STATUS] == COMPLETED or (it[_STATUS] == FAILED and (
            it[_RETRIES] >= self.max_retries
            or it[_ERROR] == "robots_disallowed"))

    def is_finished(self) -> bool:
        """G2 task-finished predicate: nothing initial/running and every
        failed item is terminally failed (retries exhausted)."""
        return all(self._terminal(it) for it in self.items.values())

    def _seen(self) -> set[str]:
        out = set(self._terminal_seen)
        out.update(it[_URL] for it in self.items.values() if self._terminal(it))
        return out

    def seen_set(self) -> list[str]:
        """Distinct canonical URLs that reached completed or terminal
        failed — the derived 'URL-seen set' (SURVEY.md §1.1)."""
        return sorted(self._seen())

    def seen_count(self) -> int:
        """``len(seen_set())`` without sending the set; -1 when the shard
        does not track seen URLs (``track_seen_urls=False``)."""
        return len(self._seen()) if self.track_seen_urls else -1

    def get_counters(self) -> dict:
        return dict(self.counters)

    def dump_items(self) -> dict:
        """Full item table as a columnar dict (small shards / tests)."""
        seqs = sorted(self.items)
        cols = {"enqueue_seq": seqs}
        for name, idx in [("url", _URL), ("host", _HOST), ("depth", _DEPTH),
                          ("priority", _PRIORITY), ("status", _STATUS),
                          ("retries", _RETRIES), ("error", _ERROR),
                          ("crawled_at", _CRAWLED), ("attempts", _ATTEMPTS)]:
            cols[name] = [self.items[s][idx] for s in seqs]
        return cols

    def evict_terminal(self) -> int:
        """Drop terminal items from memory (counts preserved) — keeps
        shard memory O(active frontier) at 10^10-URL scale."""
        gone = [s for s, it in self.items.items() if self._terminal(it)]
        for s in gone:
            it = self.items.pop(s)
            if it[_STATUS] == COMPLETED:
                self._evicted_completed += 1
            else:
                self._evicted_failed += 1
        self.counters["evicted"] += len(gone)
        return len(gone)

    # ------------------------------------------------------------------
    # checkpoint / restore (north rule: resumable from checkpoint)
    # ------------------------------------------------------------------
    def snapshot(self, path: str) -> str:
        """Write shard state atomically: items → parquet, control state
        (filter/buckets/counters/heap) → pickle. Returns the path."""
        os.makedirs(path, exist_ok=True)
        cols = self.dump_items()
        tbl = pa.table({
            "enqueue_seq": pa.array(cols["enqueue_seq"], pa.uint64()),
            "url": pa.array(cols["url"], pa.string()),
            "host": pa.array(cols["host"], pa.string()),
            "depth": pa.array(cols["depth"], pa.int32()),
            "priority": pa.array(cols["priority"], pa.int32()),
            "status": pa.array(cols["status"], pa.uint8()),
            "retries": pa.array(cols["retries"], pa.uint8()),
            "error": pa.array(cols["error"], pa.string()),
            "crawled_at": pa.array(cols["crawled_at"], pa.float64()),
            "attempts": pa.array(cols["attempts"], pa.int32()),
        })
        ctrl = {
            "shard_id": self.shard_id, "dedup": self.dedup,
            "max_retries": self.max_retries, "lease_ttl": self.lease_ttl,
            "order": self.order, "seed": self.seed,
            "next_lease_id": self.next_lease_id,
            "next_local_seq": self.next_local_seq,
            "counters": self.counters,
            "evicted_completed": self._evicted_completed,
            "evicted_failed": self._evicted_failed,
            "track_seen_urls": self.track_seen_urls,
            "terminal_seen": self._terminal_seen,
            "seen": self.seen.state() if self.seen is not None else None,
            "politeness": self.politeness.state() if self.politeness is not None else None,
            "robots": self.robots.state() if self.robots is not None else None,
        }
        # atomic: write temp then rename (ray_guide resumable-output pattern)
        fd, tmp = tempfile.mkstemp(dir=path, suffix=".tmp")
        os.close(fd)
        pq.write_table(tbl, tmp)
        os.replace(tmp, os.path.join(path, "items.parquet"))
        fd, tmp = tempfile.mkstemp(dir=path, suffix=".tmp")
        with os.fdopen(fd, "wb") as f:
            pickle.dump(ctrl, f)
        os.replace(tmp, os.path.join(path, "control.pkl"))
        return path

    def restore(self, path: str) -> int:
        """Load state written by ``snapshot``. In-flight leases become
        running items healed back to initial (a killed run never
        committed them). Returns item count."""
        with open(os.path.join(path, "control.pkl"), "rb") as f:
            ctrl = pickle.load(f)
        self.shard_id = ctrl["shard_id"]
        self.dedup = ctrl["dedup"]
        self.max_retries = ctrl["max_retries"]
        self.lease_ttl = ctrl["lease_ttl"]
        self.order = ctrl["order"]
        self.seed = ctrl["seed"]
        self.next_lease_id = ctrl["next_lease_id"]
        # parking lot resets: parked items are in the item table and
        # re-enter the rebuilt heap below (ready times are recomputed
        # lazily on the next blocked claim)
        self._parked = {}
        self._park_heap = []
        self._park_pending = set()
        self._routed = set()
        self.next_local_seq = ctrl.get("next_local_seq",
                                       (self.shard_id + 1) * 10 ** 12)
        self.counters = ctrl["counters"]
        self._evicted_completed = ctrl["evicted_completed"]
        self._evicted_failed = ctrl["evicted_failed"]
        self.track_seen_urls = ctrl.get("track_seen_urls", True)
        self._terminal_seen = ctrl["terminal_seen"]
        st = ctrl["seen"]
        if st is None:
            self.seen = None
        elif st["kind"] == "exact":
            self.seen = ExactSeenSet.from_state(st)
        elif st["kind"] == "scalable":
            self.seen = ScalableSeenFilter.from_state(st)
        elif st["kind"] == "cuckoo":
            self.seen = CuckooFilter.from_state(st)
        else:
            self.seen = BloomFilter.from_state(st)
        self.politeness = (HostPoliteness.from_state(ctrl["politeness"])
                           if ctrl["politeness"] is not None else None)
        rst = ctrl["robots"]
        if rst is None:
            self.robots = None
        elif rst.get("kind") == "real":
            self.robots = RealRobots.from_state(rst)
        else:
            self.robots = RobotsCache.from_state(rst)
        tbl = pq.read_table(os.path.join(path, "items.parquet"))
        self.items = {}
        self.heap = []
        self.leases = {}
        cols = {name: tbl[name].to_pylist() for name in tbl.column_names}
        for i in range(tbl.num_rows):
            seq = cols["enqueue_seq"][i]
            status = cols["status"][i]
            if status == RUNNING:  # heal in-flight leases (R3)
                status = INITIAL
            self.items[seq] = [cols["url"][i], cols["host"][i], cols["depth"][i],
                               cols["priority"][i], status, cols["retries"][i],
                               cols["error"][i], cols["crawled_at"][i],
                               cols["attempts"][i]]
            if status == INITIAL:
                heapq.heappush(self.heap, self._key(seq, cols["depth"][i], cols["priority"][i]))
        return len(self.items)


FrontierShard = ray.remote(FrontierShardCore)


# the ``scheme://netloc`` prefix of a URL. It is not lower-cased in
# Arrow: Arrow's simple case mapping turns "İ" into "i" where Python's
# gives "i̇", and the shard keys an item by Python's form (url_host)
_NETLOC = r"(?P<p>^[A-Za-z0-9+.-]+://[^/?#]+)"


def _strings(values) -> pa.Array:
    if isinstance(values, pa.ChunkedArray):
        return values.combine_chunks()
    return values if isinstance(values, pa.Array) \
        else pa.array(values, pa.string())


def shard_of_hosts(hosts, seed: int, k: int) -> np.ndarray:
    """The frontier's routing rule: shard = stable_hash64(host, seed) % k,
    hashed once per distinct host. ``hosts`` is a list or an Arrow
    string column; returns one int64 shard per row."""
    try:
        enc = pc.dictionary_encode(_strings(hosts))
        distinct = enc.dictionary
        idx = enc.indices.to_numpy(zero_copy_only=False)
    except UnicodeEncodeError:  # lone surrogates: Arrow cannot hold them
        distinct, idx = np.unique(np.asarray(hosts, dtype=object),
                                  return_inverse=True)
    shard = stable_hash64_np(distinct, seed) % np.uint64(k)
    return shard.astype(np.int64)[idx]


def shard_of_urls(urls, seed: int, k: int) -> np.ndarray:
    """The shard of each URL: its host's shard (``url_host``, the
    shard's own host rule), so a canonical URL and its host always land
    on the same shard and URL dedup and politeness stay shard-local.
    ``url_host`` runs once per distinct ``scheme://netloc`` prefix, and
    once per distinct scheme-less URL (which it reads as http://)."""
    try:
        arr = _strings(urls)
    except UnicodeEncodeError:  # lone surrogates: route URL by URL
        return shard_of_hosts([url_host(u) for u in urls], seed, k)
    prefix = pc.struct_field(pc.extract_regex(arr, _NETLOC), "p")
    enc = pc.dictionary_encode(pc.coalesce(prefix, arr))
    hosts = [url_host(p) for p in enc.dictionary.to_pylist()]
    return shard_of_hosts(hosts, seed, k)[
        enc.indices.to_numpy(zero_copy_only=False)]


def by_shard(shard_ids: np.ndarray):
    """(shard, row indices in input order) for each shard present."""
    return [(int(sh), np.flatnonzero(shard_ids == sh))
            for sh in np.unique(shard_ids)]


def route_discovered(shards: list, urls, depths, seed: int,
                     lease_id: int | None = None) -> dict:
    """Send discovered URLs to their host shards' ``enqueue_discovered``
    (which allocate their own seqs); ``{shard: insert ref}``."""
    shard = shard_of_urls(urls, seed, len(shards))
    urls = np.asarray(urls, dtype=object)
    depths = np.asarray(depths, dtype=np.int64)
    return {sh: shards[sh].enqueue_discovered.remote(
                urls[idx].tolist(), depths[idx].tolist(), lease_id)
            for sh, idx in by_shard(shard)}


class Frontier:
    """Driver-side facade over K FrontierShard actors.

    Routing: every ingest path (``enqueue``, ``enqueue_dataset``, the
    chunk task's child routing) and every requeue sends a URL to
    ``shard_of_urls`` and a host to ``shard_of_hosts``, the one home of
    the rule shard = stable_hash64(host) % K. It is host-affine, so
    per-host politeness and URL dedup are shard-local (a canonical URL
    always lands on the same shard). The facade owns the global
    ``enqueue_seq`` counter — the single ingest point, like the
    reference master API (queue.model.ts:32-68). Conformance mode is
    K=1 (global FIFO identical to the reference, SURVEY.md §7.4);
    K>1 gives per-shard FIFO with deterministic shard interleaving.
    """

    def __init__(self, num_shards: int = 1, *, seed: int = 42,
                 shard_resources: list[dict] | None = None,
                 **shard_kwargs):
        # shard_resources: optional per-shard custom-resource demands
        # (len == num_shards), e.g. [{"nodeA": 0.5}, {"nodeB": 0.5}, …]
        # — lets a multi-node deployment (or the single-box placement
        # rehearsal, tools/remote_shards.py) pin each shard to a node
        # group; placement changes WHERE a shard runs, never routing
        # (shard_of_hosts is placement-independent).
        self.num_shards = num_shards
        self.seed = seed
        self.shard_kwargs = dict(shard_kwargs, seed=seed)
        if shard_resources is not None:
            assert len(shard_resources) == num_shards
            self.shards = [FrontierShard.options(
                resources=shard_resources[i]).remote(
                    i, **self.shard_kwargs)
                for i in range(num_shards)]
        else:
            self.shards = [FrontierShard.remote(i, **self.shard_kwargs)
                           for i in range(num_shards)]
        self.next_seq = 0

    def enqueue(self, urls: list[str], depths: list[int] | None = None,
                priorities: list[int] | None = None) -> int:
        """Assign global seqs in list order, scatter to the shards and
        wait; returns the number inserted (dedup mode may skip)."""
        return sum(ray.get(self.enqueue_async(urls, depths, priorities)))

    def enqueue_async(self, urls: list[str], depths: list[int] | None = None,
                      priorities: list[int] | None = None) -> list:
        """Non-blocking enqueue: returns the shard insert refs instead
        of waiting (the async pump overlaps inserts with fetches;
        callers must drain the refs before trusting drained-ness)."""
        n = len(urls)
        if n == 0:
            return []
        urls_np = np.asarray(urls, dtype=object)
        depths_np = (np.asarray(depths, dtype=np.int64) if depths is not None
                     else np.zeros(n, dtype=np.int64))
        prios_np = (np.asarray(priorities, dtype=np.int64) if priorities is not None
                    else np.ones(n, dtype=np.int64))
        base = self.next_seq
        self.next_seq += n
        return [self.shards[sh].enqueue.remote(
                    (base + idx).tolist(), urls_np[idx].tolist(),
                    depths_np[idx].tolist(), prios_np[idx].tolist())
                for sh, idx in by_shard(
                    shard_of_urls(urls, self.seed, self.num_shards))]

    def enqueue_dataset(self, ds, url_column: str = "url") -> int:
        """DISTRIBUTED seed ingest (S1/S2 at 10^10 scale): consume a
        ``ray.data.Dataset`` of URLs with map_batches tasks that route
        each batch straight to the owning shards — the driver never
        reads the seed list. Shards allocate their own seq blocks
        (``enqueue_discovered``), so per-shard FIFO holds while global
        interleaving follows block scheduling — the same documented
        trade as async-pump child routing; use ``enqueue`` (driver
        seqs) when exact global FIFO conformance is required.
        Returns the number of URLs inserted (after dedup)."""
        shards = self.shards
        seed = self.seed

        def route(batch: pa.Table) -> pa.Table:
            refs = route_discovered(shards, batch[url_column],
                                    np.zeros(batch.num_rows, np.int64), seed)
            inserted = sum(ray.get(list(refs.values())))  # consumption == landed
            return pa.table({"inserted": pa.array([inserted], pa.int64())})

        out = ds.map_batches(route, batch_format="pyarrow").to_pandas()
        return int(out["inserted"].sum())

    def lease_wave(self, n_per_shard: int, now: float | None = None) -> list[dict]:
        """One synchronized claim across all shards (deterministic shard
        order). Returns non-empty lease dicts tagged with 'shard'."""
        refs = [sh.lease.remote(n_per_shard, now) for sh in self.shards]
        out = []
        for i, lease in enumerate(ray.get(refs)):
            if lease["seq"]:
                lease["shard"] = i
                out.append(lease)
        return out

    def lease_wave_global(self, n: int,
                          now: float | None = None) -> list[dict]:
        """Cross-shard GLOBAL-FIFO wave (SURVEY §7.4): claim the ``n``
        globally smallest open enqueue_seqs across all K shards, via
        peek-merge-claim. A K>1 run in this mode produces the exact
        K=1 claim stream — the same closed-form DuckDB replay gates
        both (q_crawl_order / q_crawl_order_sharded). Two actor
        round-trips per wave instead of one: the conformance-mode
        price; throughput mode is the async pump."""
        peeks = ray.get([sh.peek_open.remote(n) for sh in self.shards])
        ranked = sorted((seq, i) for i, seqs in enumerate(peeks)
                        for seq in seqs)[:n]
        per_shard: dict[int, list[int]] = {}
        for seq, i in ranked:
            per_shard.setdefault(i, []).append(seq)
        refs = {i: self.shards[i].lease_seqs.remote(seqs, now)
                for i, seqs in per_shard.items()}
        out = []
        for i in sorted(refs):
            lease = ray.get(refs[i])
            if lease["seq"]:
                lease["shard"] = i
                out.append(lease)
        return out

    def commit(self, shard: int, lease_id: int, seqs, statuses, errors=None,
               now: float | None = None, eager_retry: bool = False):
        return self.shards[shard].commit.remote(lease_id, seqs, statuses,
                                                errors, now, eager_retry)

    def rollback(self, shard: int, lease_id: int) -> int:
        return ray.get(self.shards[shard].rollback.remote(lease_id))

    def retry_failed(self) -> int:
        """R1 with the reference gate: only fires when no items are
        running (daemon.ts:188-194)."""
        h = self.status_histogram()
        if h["running"] > 0 or h["failed"] == 0:
            return 0
        return sum(ray.get([sh.retry_failed.remote() for sh in self.shards]))

    def expire_leases(self, now: float | None = None) -> int:
        return sum(ray.get([sh.expire_leases.remote(now) for sh in self.shards]))

    def evict_terminal(self) -> int:
        """Bound shard memory: drop terminal items (counts preserved)."""
        return sum(ray.get([sh.evict_terminal.remote() for sh in self.shards]))

    def status_histogram(self) -> dict[str, int]:
        hists = ray.get([sh.status_histogram.remote() for sh in self.shards])
        out = {"initial": 0, "running": 0, "completed": 0, "failed": 0}
        for h in hists:
            for k, v in h.items():
                out[k] += v
        return out

    def is_finished(self) -> bool:
        return all(ray.get([sh.is_finished.remote() for sh in self.shards]))

    def seen_set(self) -> list[str]:
        out: set[str] = set()
        for part in ray.get([sh.seen_set.remote() for sh in self.shards]):
            out.update(part)
        return sorted(out)

    def seen_count(self) -> int:
        """``len(seen_set())``, summed per shard (a URL's host fixes its
        shard, so no URL is on two); -1 when seen URLs are not tracked."""
        counts = ray.get([sh.seen_count.remote() for sh in self.shards])
        return -1 if -1 in counts else sum(counts)

    def claim_wait(self, now: float | None = None) -> float:
        """Seconds until some shard can claim an item (``claim_wait``)."""
        return min(ray.get([sh.claim_wait.remote(now) for sh in self.shards]))

    def counters(self) -> dict:
        parts = ray.get([sh.get_counters.remote() for sh in self.shards])
        out: dict[str, int] = {}
        for p in parts:
            for k, v in p.items():
                out[k] = out.get(k, 0) + v
        return out

    def dump_table(self) -> pa.Table:
        dumps = ray.get([sh.dump_items.remote() for sh in self.shards])
        tables = []
        for cols in dumps:
            if cols["enqueue_seq"]:
                tables.append(pa.table({
                    "enqueue_seq": pa.array(cols["enqueue_seq"], pa.uint64()),
                    "url": pa.array(cols["url"], pa.string()),
                    "host": pa.array(cols["host"], pa.string()),
                    "depth": pa.array(cols["depth"], pa.int32()),
                    "priority": pa.array(cols["priority"], pa.int32()),
                    "status": pa.array(cols["status"], pa.uint8()),
                    "retries": pa.array(cols["retries"], pa.uint8()),
                    "error": pa.array(cols["error"], pa.string()),
                    "crawled_at": pa.array(cols["crawled_at"], pa.float64()),
                    "attempts": pa.array(cols["attempts"], pa.int32()),
                }))
        if not tables:
            return pa.table({"enqueue_seq": pa.array([], pa.uint64())})
        tbl = pa.concat_tables(tables)
        return tbl.sort_by("enqueue_seq")

    # ---- checkpoint / resume -----------------------------------------
    def checkpoint(self, ckpt_dir: str) -> None:
        os.makedirs(ckpt_dir, exist_ok=True)
        ray.get([sh.snapshot.remote(os.path.join(ckpt_dir, f"shard_{i:04d}"))
                 for i, sh in enumerate(self.shards)])
        meta = {"num_shards": self.num_shards, "seed": self.seed,
                "next_seq": self.next_seq, "shard_kwargs": self.shard_kwargs}
        fd, tmp = tempfile.mkstemp(dir=ckpt_dir, suffix=".tmp")
        with os.fdopen(fd, "wb") as f:
            pickle.dump(meta, f)
        os.replace(tmp, os.path.join(ckpt_dir, "frontier.pkl"))

    @classmethod
    def restore(cls, ckpt_dir: str) -> "Frontier":
        with open(os.path.join(ckpt_dir, "frontier.pkl"), "rb") as f:
            meta = pickle.load(f)
        fr = cls.__new__(cls)
        fr.num_shards = meta["num_shards"]
        fr.seed = meta["seed"]
        fr.shard_kwargs = meta["shard_kwargs"]
        fr.next_seq = meta["next_seq"]
        fr.shards = [FrontierShard.remote(i, **fr.shard_kwargs)
                     for i in range(fr.num_shards)]
        ray.get([sh.restore.remote(os.path.join(ckpt_dir, f"shard_{i:04d}"))
                 for i, sh in enumerate(fr.shards)])
        return fr
