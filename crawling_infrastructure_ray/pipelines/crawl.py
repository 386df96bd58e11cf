"""End-to-end crawl job: frontier → fetch+store chunk tasks → documents.

Rebuild of the reference's main path (SURVEY.md §3.1): scheduler
daemon launches waves of ephemeral workers, each worker leases a batch
from the queue, crawls sequentially, persists blobs to S3, writes back
statuses, and the daemon heals/retries between waves
(master/scheduler/daemon.ts:308-391, crawler/src/index.ts:69-173).

One driver, ``run_crawl_pump``, runs one data plane, as every
reference worker runs one loop (lease, crawl, store, write back):
each frontier lease becomes one raw Ray task,
``_fetch_store_route_task``, which fetches through ``FetchSim``,
writes the lease's completed documents as one parquet fragment
(``documents/part-<lease_id>.parquet``), and returns the lease's
write-back. The driver sends the commit. The loop has two modes:

- the async pump (``rounds=None``, throughput mode) keeps chunks in
  flight with no barrier; the tasks route children straight to their
  shards.
- round mode (``rounds="shard"`` or ``"global"``, conformance mode)
  leases one round — one lease per shard, or the globally smallest
  open seqs — and waits for all of its tasks; commits land, then the
  round's children are appended in parent ``enqueue_seq`` order, so
  the claim stream, the frontier state and the documents table are
  independent of Ray's task scheduling.

Both modes share resume (the lease-id watermark), checkpoints, the
lineage table and the lost-task rollback.

Ray-level retries are disabled on the fetch tasks (``max_retries=0``
mirror of the reference's deliberate Lambda ``maxRetries: 0``,
master/scheduler/runner.ts:449-452): the frontier is the single retry
authority (SURVEY.md §7.4).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..functions.urltools import url_host
from ..stages.fetch import fetch_sim_batch, fetch_store_batch
from ..state.frontier import Frontier

@ray.remote(num_cpus=1)
def _fetch_store_route_task(seqs: list, urls: list, hosts: list,
                            depths: list, attempts: list, shard: int,
                            lease_id: int, all_shards=None,
                            route_seed: int = 42, **kwargs):
    """One lease's chunk: fetch + store (+ route) inside the task; the
    driver commits. Both modes of the crawl driver run it, one task
    per lease.

    The task writes the lease's fragment, then returns the lease's
    write-back as plain lists ``(seqs, statuses, errors)``; the driver
    sends that commit to the owning shard actor when it collects the
    result (store-then-commit ordering, reference R7). The task itself
    never blocks on another actor: a blocked one-CPU task would lend
    its CPU to the next queued chunk and make Ray start a new worker
    process for it. Ray runs one caller's calls to an actor in
    submission order, so every later driver call to that shard (lease,
    histogram, retry, checkpoint) sees the commit. A task that dies
    never commits, and its lease rolls back.

    Children come only from rows the task stored and reports as
    ``completed``: a ``storage_failed`` row rolls back, and its retry
    discovers them again. Given the shard handle list (the pump), the
    task routes them DIRECTLY to their host shards (which allocate
    their own seq blocks) — child URLs never transit the driver, whose
    loop stays O(chunks) — and reports the shards it routed to, so the
    driver can wait for exactly those inserts (``ack_routed``). Without
    it (round mode) it returns them as ``(urls, depths, parent_seqs)``
    for the driver to append in parent-seq order.

    The lease arrives as the shard's RAW column lists and the Arrow
    table is built HERE, in the task: pickling a small pa.Table on the
    driver costs ~1.3 ms/chunk (Arrow-IPC fixed cost) vs ~0.06 ms for
    the plain lists — at 256-item polite chunks that difference alone
    was ~25% of the driver pump's busy time at 32 cpus."""
    from ..functions.hashing import stable_hash64

    t_start = time.time()
    n = len(seqs)
    tbl = pa.table({
        "enqueue_seq": pa.array(seqs, pa.uint64()),
        "url": pa.array(urls, pa.string()),
        "host": pa.array(hosts, pa.string()),
        "depth": pa.array(depths, pa.int32()),
        "attempt": pa.array(attempts, pa.int32()),
        "shard": pa.array([shard] * n, pa.int32()),
        "lease_id": pa.array([lease_id] * n, pa.int64()),
    })
    ctl = fetch_store_batch(tbl, **kwargs)
    # itemwise storage failures are NOT reported in the commit — the
    # lease's unreported members roll back to INITIAL (R5) without
    # consuming a retry, mirroring the reference's per-item upload
    # failure reset (crawler/src/index.ts:265-268, R7)
    rep = ctl.filter(pc.not_equal(ctl["status"], "storage_failed"))
    statuses = rep["status"].to_pylist()
    commit = (rep["enqueue_seq"].to_pylist(), statuses,
              rep["error"].to_pylist())
    n_ok = statuses.count("completed")
    ok = ctl.filter(pc.equal(ctl["status"], "completed"))
    flat = pc.list_flatten(ok["discovered"])
    # children=None unless the driver must relay them: returning even
    # an EMPTY pa.Table costs the driver ~1 ms of Arrow-IPC
    # deserialization per chunk on ray.get — plain lists (or None)
    # keep the per-chunk result msgpack-cheap
    children = None
    routed: list[int] = []
    if len(flat):
        lens = pc.list_value_length(ok["discovered"]).to_numpy(zero_copy_only=False)
        depths = np.repeat(ok["depth"].to_numpy(zero_copy_only=False) + 1,
                           lens).astype(np.int64)
        if all_shards is None:
            parents = np.repeat(
                ok["enqueue_seq"].to_numpy(zero_copy_only=False), lens)
            children = (flat.to_pylist(), depths.tolist(), parents.tolist())
        else:
            k = len(all_shards)
            per: dict[int, tuple[list, list]] = {}
            host_shard: dict[str, int] = {}
            for u, d in zip(flat.to_pylist(), depths.tolist()):
                # the Frontier's host rule: a divergent router would
                # split one canonical URL or one host across shards,
                # breaking shard-local URL dedup and per-host politeness
                host = url_host(u)
                sh = host_shard.get(host)
                if sh is None:
                    sh = stable_hash64(host, route_seed) % k
                    host_shard[host] = sh
                b = per.get(sh)
                if b is None:
                    b = per.setdefault(sh, ([], []))
                b[0].append(u)
                b[1].append(d)
            # fire-and-forget: an insert may land after this task is
            # observed complete, so each call carries the lease id the
            # driver's drain waits for (``ack_routed``)
            for sh, (us, ds) in per.items():
                all_shards[sh].enqueue_discovered.remote(us, ds, lease_id)
            routed = list(per)
    return {"n": ctl.num_rows, "n_ok": n_ok, "n_children": len(flat),
            "routed": routed, "started": t_start,
            "ended": time.time()}, commit, children


class CrawlQuarantined(RuntimeError):
    """Raised when lost-lease thresholds are exceeded — the job-level
    circuit breaker (reference task quarantine: lost-ratio ≥
    max_lost_workers_ratio ∧ lost ≥ max_lost_workers,
    master/scheduler/daemon.ts:141-149)."""


def check_quarantine(counters: dict, max_lost_leases: int = 10,
                     max_lost_ratio: float = 0.01) -> None:
    """Evaluate the reference circuit-breaker rule on frontier
    counters; raises CrawlQuarantined when tripped."""
    lost = counters.get("expired_leases", 0)
    started = max(1, counters.get("leases_issued", 1))
    if lost >= max_lost_leases and lost / started >= max_lost_ratio:
        raise CrawlQuarantined(
            f"lost leases {lost}/{started} exceeds thresholds "
            f"(max_lost_leases={max_lost_leases}, ratio≥{max_lost_ratio})")


@dataclass
class CrawlResult:
    out_dir: str
    waves: int
    histogram: dict
    counters: dict
    seen_set_size: int
    docs_written: int
    elapsed_sec: float
    urls_processed: int = 0

    @property
    def throughput(self) -> float:
        """URLs scheduled+fetched per second (BASELINE.json metric)."""
        return self.urls_processed / self.elapsed_sec if self.elapsed_sec else 0.0


def _atomic_write_parquet(tbl: pa.Table, path: str) -> None:
    d = os.path.dirname(path)
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    os.close(fd)
    pq.write_table(tbl, tmp, compression="snappy")
    os.replace(tmp, path)


def _append_manifest(path: str, row: dict) -> None:
    with open(path, "a") as f:
        f.write(json.dumps(row) + "\n")


def _write_lineage(out_dir: str, rows: list[tuple]) -> None:
    """Per-lease lineage table (reference worker_meta analog)."""
    if not rows:
        return
    tbl = pa.table({
        "lease_id": pa.array([r[0] for r in rows], pa.int64()),
        "shard": pa.array([r[1] for r in rows], pa.int32()),
        "n_items": pa.array([r[2] for r in rows], pa.int64()),
        "n_ok": pa.array([r[3] for r in rows], pa.int64()),
        "n_failed": pa.array([r[4] for r in rows], pa.int64()),
        "started": pa.array([r[5] for r in rows], pa.float64()),
        "ended": pa.array([r[6] for r in rows], pa.float64()),
        "n_children": pa.array([r[7] for r in rows], pa.int64()),
    })
    _atomic_write_parquet(tbl, os.path.join(out_dir, "lineage.parquet"))


def read_lineage(out_dir: str) -> pa.Table:
    return pq.read_table(os.path.join(out_dir, "lineage.parquet"))


def _read_manifest(path: str) -> list[dict]:
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def run_crawl_pump(seed_urls: list[str] | None = None, *,
                   frontier: Frontier | None = None,
                   seed: int = 42,
                   num_shards: int = 8,
                   dedup: bool = True,
                   exact_dedup: bool = False,
                   politeness: bool = False,
                   politeness_overrides: dict | None = None,
                   robots: bool = False,
                   default_rate: float = 1.0,
                   default_burst: float = 4.0,
                   max_depth: int = 2,
                   max_retries: int = 3,
                   num_hosts: int = 64,
                   chunk_size: int = 512,
                   rounds: str | None = None,
                   out_dir: str = "/tmp/crawl_pump",
                   resume: bool = False,
                   checkpoint_every_commits: int = 0,
                   longliving: bool = False,
                   stop_when=None,
                   max_commits: int | None = None,
                   track_seen: bool = True,
                   evict_every_commits: int = 0,
                   max_lost_leases: int = 10,
                   fetch_fail_marker: str = "",
                   fetch_fail_after_store_marker: str = "",
                   order: str = "fifo",
                   storage_policy: str = "merged",
                   store_fail_marker: str = "",
                   config=None,
                   now_fn=None) -> CrawlResult:
    """Run a crawl to drain (or to ``max_commits`` committed leases).

    ``rounds=None`` is the async pump, the throughput mode. The driver
    keeps 3 × the session's CPUs (``ray.cluster_resources``) fetch
    CHUNKS in flight: each chunk is one frontier lease of
    ``chunk_size`` items running as one raw Ray task; as chunks
    complete (``ray.wait``) their commits are sent and fresh leases
    are issued immediately. There is no floor above that: a deeper
    queue on a small session only leases whatever is open at that
    moment and splits supply into more, smaller chunks. No barrier
    → no straggler tail, CPUs stay saturated — the Ray analog of the
    reference scheduler's endless launch loop
    (master/scheduler/daemon.ts:61-79,308-391). The tasks route
    discovered URLs to their shards in task COMPLETION order, so
    ``enqueue_seq`` assignment (and claim order) is not deterministic
    across runs; the final seen SET, histogram totals, and
    per-document contents are (documents are a pure function of
    (seed, url)). Those inserts are fire-and-forget; before its
    drained check and before a snapshot the driver polls each shard a
    task routed to until the shard has applied that lease's children
    (``FrontierShardCore.ack_routed``), so neither rests on a sleep.
    A busy run acknowledges as it goes, once more than the in-flight
    depth of lease ids waits, so neither side's bookkeeping grows with
    the run.

    ``rounds="shard"`` or ``"global"`` is round mode, the conformance
    mode. Each loop iteration reads ``now_fn`` once and leases one
    round: one ``chunk_size`` lease per shard (``"shard"``,
    ``Frontier.lease_wave``), or the ``chunk_size`` globally smallest
    open seqs (``"global"``, ``Frontier.lease_wave_global``: a K>1
    claim stream equal to K=1's). The round's claims go to
    ``claims/part-<lease_id>.parquet``; its chunk tasks run and the
    driver waits for every one (the round barrier). Commits keep the
    reference retry gate (R1 fires only when a round finds nothing to
    lease), and once they have landed the round's children are
    appended in parent ``enqueue_seq`` order, so the claim stream, the
    frontier state and the documents table do not depend on Ray's
    task scheduling. An empty round retries failed items, expires
    stale leases, or ends the crawl (``longliving`` and ``stop_when``
    apply to the pump only). The round number is the documents' and
    claims' ``wave`` column and one ``manifest.jsonl`` row.

    Both modes write ``lineage.parquet`` (one row per committed lease,
    with the children it routed or relayed; ``CrawlResult.waves``
    counts them) and checkpoint at soft
    barriers (drain in-flight → snapshot) every
    ``checkpoint_every_commits`` commits. On resume, fragments and
    claims written after the checkpoint (lease_id ≥ the snapshot's
    per-shard next_lease_id) are deleted and the manifest is cut back
    to its last checkpoint row, so the documents table never
    double-counts. A task that dies has its lease rolled back and
    its orphan fragment deleted.
    """
    if rounds not in (None, "shard", "global"):
        raise ValueError(f"rounds must be None, 'shard' or 'global': {rounds!r}")
    if config is not None:
        storage_policy = config.storage_policy
        max_retries = config.retry_failed_items
        max_lost_leases = config.max_lost_workers
        longliving = longliving or config.longliving
    docs_dir = os.path.join(out_dir, "documents")
    claims_dir = os.path.join(out_dir, "claims")
    ckpt_dir = os.path.join(out_dir, "ckpt")
    manifest = os.path.join(out_dir, "manifest.jsonl")
    pending_enq: list = []     # seed inserts in flight
    rnd = 0                    # round number (round mode)

    if resume and os.path.exists(os.path.join(ckpt_dir, "frontier.pkl")):
        frontier = Frontier.restore(ckpt_dir)
        next_ids = ray.get([sh.get_next_lease_id.remote() for sh in frontier.shards])
        for d in (docs_dir, claims_dir):
            for f in os.listdir(d) if os.path.isdir(d) else ():
                if f.startswith("part-") and f.endswith(".parquet"):
                    lid = int(f[5:-8])
                    sh = lid // 1_000_000_000
                    if sh < len(next_ids) and lid >= next_ids[sh]:
                        os.remove(os.path.join(d, f))
        rows = _read_manifest(manifest)
        while rows and not rows[-1].get("checkpointed"):
            rows.pop()
        with open(manifest, "w") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in rows)
        rnd = rows[-1].get("wave", -1) + 1 if rows else 0
    else:
        if os.path.isdir(out_dir):
            shutil.rmtree(out_dir)
        os.makedirs(docs_dir, exist_ok=True)
        if frontier is None:
            frontier = Frontier(num_shards, seed=seed, dedup=dedup,
                                exact_seen=exact_dedup,
                                politeness=politeness,
                                politeness_overrides=politeness_overrides,
                                robots=robots,
                                default_rate=default_rate,
                                default_burst=default_burst,
                                max_retries=max_retries, order=order,
                                track_seen_urls=track_seen)
        if seed_urls is not None and hasattr(seed_urls, "map_batches"):
            # Dataset seed list (S1/S2 at 10^10 scale): distributed
            # ingest — map_batches tasks route straight to the shards,
            # the driver never holds the seed list
            frontier.enqueue_dataset(seed_urls)
        elif seed_urls:
            # ramp overlap: land the first slice synchronously so leasing
            # can start, stream the rest in asynchronously (the refs join
            # pending_enq, so drained-ness checks stay correct; a shard
            # runs them before any later lease call from this driver)
            head = min(len(seed_urls), 8192)
            frontier.enqueue(seed_urls[:head])
            if len(seed_urls) > head:
                pending_enq.extend(frontier.enqueue_async(seed_urls[head:]))

    # three chunks per CPU of the session; no floor above that, which
    # on one or two CPUs only split supply into more, smaller leases
    target_inflight = 3 * max(1, int(ray.cluster_resources().get("CPU", 1)))
    # the pump's tasks route children to their shards and its commits
    # retry a failed item at once; round mode relays children through
    # the driver and keeps the reference retry gate (R1 between rounds)
    route_to = None if rounds else frontier.shards

    t0 = time.perf_counter()
    inflight: dict = {}            # ObjectRef -> (shard, lease_id, now)
    commit_refs: list = []         # commits sent, not yet awaited
    unacked: dict = {}             # shard -> lease ids routed, not acked
    acks: list = []                # (ack_routed ref, shard), not awaited
    relay: list = []               # round mode: children of the round
    urls_processed = 0
    docs_written = 0
    commits = 0
    # lineage = per-lease worker-meta rows (reference K5/G4,
    # lib/types/workermeta.ts): (lease_id, shard, n, ok, failed,
    # started, ended, children) — written as out_dir/lineage.parquet
    lineage_rows: list[tuple] = []
    lost_tasks = 0
    fetch_kwargs = {"seed": seed, "max_depth": max_depth,
                    "num_hosts": num_hosts, "docs_dir": docs_dir,
                    "storage_policy": storage_policy,
                    "store_fail_marker": store_fail_marker,
                    "fail_marker": fetch_fail_marker,
                    "fail_after_store_marker": fetch_fail_after_store_marker}

    def drop_orphan_fragment(lease_id: int) -> None:
        """A task that died between its fragment write and its commit
        leaves an orphan part-<lease_id>.parquet; the lease rolls back
        and the retry writes a NEW part-<new_lease_id> fragment, so the
        orphan would double-count those docs within the run. Delete it
        on the rollback path (the reference analog is the merged-sink
        all-or-nothing rollback, crawler/src/index.ts:237-243)."""
        p = os.path.join(docs_dir, f"part-{lease_id:015d}.parquet")
        if os.path.exists(p):
            os.remove(p)

    def await_enqueues() -> None:
        ray.get(pending_enq)
        pending_enq.clear()

    def settle_acks(block: bool) -> None:
        """Send every unacknowledged lease id to its shard, then take
        back the ids the finished ``ack_routed`` calls report as not
        yet applied (all calls if ``block``)."""
        for sh in list(unacked):
            acks.append((frontier.shards[sh].ack_routed.remote(
                unacked.pop(sh)), sh))
        refs = [r for r, _ in acks]
        done = set(refs if block else ray.wait(
            refs, num_returns=len(refs), timeout=0)[0])
        for r, sh in [a for a in acks if a[0] in done]:
            lids = ray.get(r)
            if lids:
                unacked.setdefault(sh, []).extend(lids)
        acks[:] = [a for a in acks if a[0] not in done]

    def await_children() -> None:
        """Poll the shards the collected tasks routed to until each has
        applied those leases' children. A task that died is never
        waited on: its rolled-back lease is re-crawled, and the retry
        re-sends the same children under a new lease id."""
        while unacked or acks:
            settle_acks(block=True)

    def submit(lease: dict, shard: int, now) -> None:
        # raw lists, not a pa.Table — the table is built in the task
        # (see _fetch_store_route_task docstring: ~20x cheaper
        # driver-side serialization per chunk)
        ref = _fetch_store_route_task.options(max_retries=0).remote(
            lease["seq"], lease["url"], lease["host"], lease["depth"],
            lease["attempt"], shard, lease["lease_id"],
            all_shards=route_to, route_seed=frontier.seed,
            part_label=f"{lease['lease_id']:015d}", **fetch_kwargs)
        # the loop iteration's clock stamps the commit
        inflight[ref] = (shard, lease["lease_id"], now)

    def collect(ref) -> None:
        """Account one finished chunk (one more ``commits``) and send
        its commit without waiting for it. A task that died has its
        lease rolled back and any orphan fragment deleted, and counts
        toward the circuit breaker."""
        nonlocal commits, docs_written, urls_processed, lost_tasks
        shard, lease_id, now = inflight.pop(ref)
        try:
            counts, commit, children = ray.get(ref)
        except Exception:
            # lost worker (reference J5/R3): the lease was never
            # committed — roll it back to INITIAL and delete any
            # orphan fragment the task wrote before it died
            frontier.rollback(shard, lease_id)
            drop_orphan_fragment(lease_id)
            lost_tasks += 1
            c = frontier.counters()
            c["expired_leases"] = c.get("expired_leases", 0) + lost_tasks
            check_quarantine(c, max_lost_leases=max_lost_leases)
            return
        commit_refs.append(frontier.commit(shard, lease_id, *commit,
                                           now, rounds is None))
        if len(commit_refs) > target_inflight:
            # bound the list on long runs; a failed commit still raises
            done_c, rest = ray.wait(commit_refs,
                                    num_returns=len(commit_refs), timeout=0)
            ray.get(done_c)
            commit_refs[:] = rest
        if children is not None:
            relay.append(children)
        for sh in counts["routed"]:
            unacked.setdefault(sh, []).append(lease_id)
        if sum(map(len, unacked.values())) > target_inflight:
            # bound the ids held here and on the shards on long busy
            # runs, which reach neither the drained check nor a snapshot
            settle_acks(block=False)
        commits += 1
        docs_written += counts["n_ok"]
        urls_processed += counts["n"]
        lineage_rows.append((lease_id, shard, counts["n"], counts["n_ok"],
                             counts["n"] - counts["n_ok"],
                             counts["started"], counts["ended"],
                             counts["n_children"]))

    def await_commits() -> None:
        ray.get(commit_refs)
        commit_refs.clear()

    def run_round(leases: list, now) -> dict:
        """Claims log, one chunk task per lease, the barrier, the
        commits, then the children; returns the round's manifest row."""
        nonlocal rnd
        n0, ok0 = urls_processed, docs_written
        fetch_kwargs["wave"] = rnd
        for lease in leases:
            # claims audit log — the engine's crawl order (golden-order
            # test; within a round, claim order = ascending enqueue_seq)
            _atomic_write_parquet(pa.table({
                "enqueue_seq": pa.array(lease["seq"], pa.uint64()),
                "url": pa.array(lease["url"], pa.string()),
                "attempt": pa.array(lease["attempt"], pa.int32()),
                "wave": pa.array([rnd] * len(lease["seq"]), pa.int32()),
            }).sort_by("enqueue_seq"), os.path.join(
                claims_dir, f"part-{lease['lease_id']:015d}.parquet"))
            submit(lease, lease["shard"], now)
        for ref in list(inflight):
            collect(ref)
        await_commits()
        # discovered URLs → tail append in parent enqueue_seq order
        # (reference enqueue() appends with fresh _ids, enqueue.ts:71-116);
        # the stable sort keeps each parent's children in link order
        urls = [u for c in relay for u in c[0]]
        if urls:
            depths = [d for c in relay for d in c[1]]
            by_parent = np.argsort([p for c in relay for p in c[2]],
                                   kind="stable")
            frontier.enqueue([urls[i] for i in by_parent],
                             [depths[i] for i in by_parent])
        relay.clear()
        n, ok = urls_processed - n0, docs_written - ok0
        rnd += 1
        return {"wave": rnd - 1, "leased": n, "completed": ok,
                "failed": n - ok, "discovered": len(urls)}

    lease_pending: dict = {}   # lease_many ObjectRef -> shard index
    last_ckpt_commits = 0

    def refill(now, block: bool = False):
        """Overlapped refill: lease_many rounds run while fetch tasks
        compute. Responses are collected PER SHARD as each becomes
        ready (no all-8-shards barrier — one slow shard, e.g. one
        mid-enqueue, must not delay the other seven's leases; measured
        on the polite 32-cpu pump this barrier plus the 8-completion
        main-loop wait capped lease supply at ~105 leases/s and
        starved a third of the CPUs). ``block`` awaits everything —
        the drained-ness path needs a definite answer."""
        got = 0
        if lease_pending:
            if block:
                ready = list(lease_pending.keys())
            else:
                ready, _ = ray.wait(list(lease_pending.keys()),
                                    num_returns=len(lease_pending),
                                    timeout=0)
            for ref in ready:
                shard = lease_pending.pop(ref)
                for lease in ray.get(ref):
                    submit(lease, shard, now)
                    got += 1
        if not lease_pending and len(inflight) + got < target_inflight:
            want = target_inflight - len(inflight) - got
            per_shard = max(1, -(-want // frontier.num_shards))
            refs = [sh.lease_many.remote(per_shard, chunk_size, now)
                    for sh in frontier.shards]
            if block and not got:
                for shard, leases in enumerate(ray.get(refs)):
                    for lease in leases:
                        submit(lease, shard, now)
                        got += 1
            else:
                for i, ref in enumerate(refs):
                    lease_pending[ref] = i
        return got

    def checkpoint() -> None:
        """Soft barrier: drain, snapshot, continue. The OUTSTANDING
        lease round must be drained too: its leases are already
        RUNNING on the shards but no task was ever submitted for them
        — snapshotting them as phantom RUNNING leases (with
        next_lease_id already advanced past them) means the original
        run later writes their fragments BELOW the snapshot's
        orphan-cleanup watermark, while the resumed run heals and
        re-crawls the same items → duplicated documents. Roll them
        back before the snapshot; the next refill re-leases them."""
        for ref_, shard_i in list(lease_pending.items()):
            for lease_ in ray.get(ref_):
                frontier.rollback(shard_i, lease_["lease_id"])
        lease_pending.clear()
        while inflight:
            done, _ = ray.wait(list(inflight.keys()),
                               num_returns=len(inflight))
            for ref in done:
                collect(ref)
        await_commits()
        await_enqueues()
        await_children()    # the drained tasks' child inserts
        frontier.checkpoint(ckpt_dir)
        _write_lineage(out_dir, lineage_rows)

    idle_rounds = 0
    while True:
        if max_commits is not None and commits >= max_commits:
            # interrupt point (kill simulation / bounded runs): cancel
            # in-flight tasks the way a real driver death would (Ray
            # reclaims tasks owned by a dead driver) — a straggler
            # finishing AFTER a resume's orphan-fragment cleanup would
            # otherwise re-insert its fragment and double-count docs.
            # Their leases TTL-heal; a resume restores from the last
            # checkpoint anyway.
            for ref in inflight:
                try:
                    ray.cancel(ref, force=True)
                except Exception:
                    pass
            break
        now = now_fn() if now_fn else None
        if rounds:
            leases = (frontier.lease_wave_global(chunk_size, now)
                      if rounds == "global"
                      else frontier.lease_wave(chunk_size, now))
            busy = bool(leases)
        else:
            refill(now)
            busy = bool(inflight)
        if not busy:
            if not rounds:
                await_commits()
                await_enqueues()              # inserts must land before the
                await_children()              # drained check can be trusted
                if refill(now, block=True):
                    continue
            # healing (reference daemon cycle: R1 retry gate, R3 lease
            # expiry)
            if frontier.retry_failed() > 0:
                continue
            if frontier.expire_leases(now) > 0:
                check_quarantine(frontier.counters())  # daemon.ts:141-149
                continue
            if rounds:
                break
            hist = frontier.status_histogram()
            if hist["initial"] > 0 and idle_rounds < 200:
                # politeness back-off: eligible items exist but all
                # host buckets are empty right now
                idle_rounds += 1
                time.sleep(0.02)
                continue
            if longliving and not (stop_when and stop_when()):
                # reference longliving tasks never finish — they wait
                # for externally-enqueued items (crawltask.model.ts:194-196;
                # finish check skipped, daemon.ts:96-100)
                time.sleep(0.05)
                continue
            break
        row = {}
        if rounds:
            row = run_round(leases, now)
        else:
            idle_rounds = 0
            # event wait: wake on the FIRST completion of either kind —
            # a fetch task (commit) or a lease response (more tasks to
            # submit). Waiting for a fixed batch of task completions
            # here (the old num_returns=8) delayed lease collection by
            # ~8/completion-rate and starved the pool whenever leases
            # are small (politeness chunk 256).
            pool = list(inflight.keys()) + list(lease_pending.keys())
            ray.wait(pool, num_returns=1)
            # then drain every task that is ready right now (batch commit)
            done, _ = ray.wait(list(inflight.keys()),
                               num_returns=len(inflight), timeout=0)
            for ref in done:
                collect(ref)
        if evict_every_commits and commits and \
                commits % evict_every_commits == 0:
            # bound shard memory at scale: terminal items leave the
            # actors (histogram counts preserved; docs/lineage tables
            # are the durable record)
            frontier.evict_terminal()
        if checkpoint_every_commits and \
                commits - last_ckpt_commits >= checkpoint_every_commits:
            # threshold on commits-since-last-checkpoint, NOT
            # ``commits % N == 0``: commits advances by several per
            # pump round, so an exact multiple can be skipped —
            # observed as an interrupted run with no checkpoint at all,
            # which a resume then rmtree'd
            checkpoint()
            row.update(commits=commits, docs=docs_written,
                       checkpointed=True)
            last_ckpt_commits = commits
        if row:
            _append_manifest(manifest, row)

    await_commits()
    _write_lineage(out_dir, lineage_rows)
    elapsed = time.perf_counter() - t0
    return CrawlResult(out_dir=out_dir, waves=commits,
                       histogram=frontier.status_histogram(),
                       counters=frontier.counters(),
                       seen_set_size=(len(frontier.seen_set())
                                      if track_seen else -1),
                       docs_written=docs_written, elapsed_sec=elapsed,
                       urls_processed=urls_processed)


def read_documents(out_dir: str) -> rd.Dataset:
    """The crawled documents table as a Dataset (one fragment per
    lease/wave). Goes through the storage seam — Lance when available,
    parquet in this container (see sources/storage.py)."""
    from ..sources.storage import read_dataset
    return read_dataset(os.path.join(out_dir, "documents"))


def direct_crawl(items: list[str], *, seed: int = 42,
                 batch_size: int = 1024) -> pa.Table:
    """Entry point B — synchronous scatter-gather crawl (no queue, no
    retries): the reference's POST /crawl path chunks items across
    concurrent Lambdas and merges responses
    (master/src/api.service.ts:169-222, runner.ts:156-273). In Ray Data
    this is exactly from_items → map_batches → collect (SURVEY.md §3.3).
    """
    tbl = pa.table({"url": pa.array(items, pa.string()),
                    "depth": pa.array([0] * len(items), pa.int32()),
                    "retries": pa.array([0] * len(items), pa.int32())})
    ds = rd.from_arrow(tbl).map_batches(
        fetch_sim_batch, fn_kwargs={"seed": seed},
        batch_format="pyarrow", batch_size=batch_size, max_retries=0)
    out = pa.concat_tables(ds.iter_batches(batch_size=batch_size * 8,
                                           batch_format="pyarrow"))
    return out.sort_by("url")
