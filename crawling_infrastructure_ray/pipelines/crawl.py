"""End-to-end crawl job: frontier → fetch+store chunk tasks → documents.

Rebuild of the reference's main path (SURVEY.md §3.1): the scheduler
daemon launches waves of ephemeral workers, each worker leases a batch
from the queue, crawls sequentially, persists blobs to S3 and writes
back statuses, and the daemon heals and retries between waves
(master/scheduler/daemon.ts:308-391, crawler/src/index.ts:69-173).

Every reference worker runs one loop (lease, crawl, store, write
back); here one ``LeaseRunner`` runs it for every crawl loop. Each
lease becomes one raw Ray task, ``_fetch_store_route_task``, which
fetches through ``FetchSim``, writes the lease's completed documents
as one fragment (``documents/part-<lease_id>.parquet``) and returns
the write-back; the runner sends the commit, keeps ``lineage.parquet``
and rolls back a lost task (orphan fragment, circuit breaker). Two
loops drive it: ``run_crawl_pump`` over one frontier (the async pump
or deterministic rounds, with resume and checkpoints) and
``pipelines.scheduler.run_multi_task``, the multi-task daemon cycle
reduced to its allocation policy, one runner per task.

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

from ..config import MAX_LOST_RATIO, JobConfig
from ..stages.fetch import fetch_sim_batch, fetch_store_batch
from ..state.frontier import Frontier, route_discovered

@ray.remote(num_cpus=1)
def _fetch_store_route_task(seqs: list, urls: list, hosts: list,
                            depths: list, attempts: list, shard: int,
                            lease_id: int, all_shards=None,
                            route_seed: int = 42, **kwargs):
    """One lease's chunk: fetch + store (+ route) inside the task; the
    driver commits. ``LeaseRunner.submit`` is its one submission site,
    so every crawl loop runs it, one task per lease.

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
    discovers them again. Given the shard handle list, the
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
            # fire-and-forget: an insert may land after this task is
            # observed complete, so each call carries the lease id the
            # driver's drain waits for (``ack_routed``)
            routed = list(route_discovered(all_shards, flat, depths,
                                           route_seed, lease_id))
    return {"n": ctl.num_rows, "n_ok": n_ok, "n_children": len(flat),
            "routed": routed, "started": t_start,
            "ended": time.time()}, commit, children


class CrawlQuarantined(RuntimeError):
    """Raised when lost-lease thresholds are exceeded — the job-level
    circuit breaker (reference task quarantine: lost-ratio ≥
    max_lost_workers_ratio ∧ lost ≥ max_lost_workers,
    master/scheduler/daemon.ts:141-149)."""


def check_quarantine(counters: dict, max_lost_leases: int = 10,
                     max_lost_ratio: float = MAX_LOST_RATIO) -> None:
    """Evaluate the reference circuit-breaker rule on frontier
    counters; raises CrawlQuarantined when tripped."""
    lost = counters.get("expired_leases", 0)
    started = max(1, counters.get("leases_issued", 1))
    if lost >= max_lost_leases and lost / started >= max_lost_ratio:
        raise CrawlQuarantined(
            f"lost leases {lost}/{started} exceeds thresholds "
            f"(max_lost_leases={max_lost_leases}, ratio≥{max_lost_ratio})")


def job_limits(config) -> tuple[str, int, int, float, float]:
    """What a ``JobConfig`` sets for a crawl loop: its storage policy,
    its retry budget per item, its lost-lease breaker (count and
    ratio) and its frontier's lease TTL."""
    return (config.storage_policy, config.retry_failed_items,
            config.max_lost_workers, config.max_lost_workers_ratio,
            config.lease_ttl_s)


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


_LINEAGE = pa.schema([
    ("lease_id", pa.int64()), ("shard", pa.int32()), ("n_items", pa.int64()),
    ("n_ok", pa.int64()), ("n_failed", pa.int64()), ("started", pa.float64()),
    ("ended", pa.float64()), ("n_children", pa.int64())])


def _write_lineage(out_dir: str, rows: list[tuple]) -> None:
    """Per-lease lineage table (reference worker_meta analog)."""
    if rows:
        _atomic_write_parquet(pa.Table.from_arrays(
            [pa.array(c, f.type) for c, f in zip(zip(*rows), _LINEAGE)],
            schema=_LINEAGE), os.path.join(out_dir, "lineage.parquet"))


def read_lineage(out_dir: str) -> pa.Table:
    return pq.read_table(os.path.join(out_dir, "lineage.parquet"))


def _read_manifest(path: str) -> list[dict]:
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


class LeaseRunner:
    """One frontier's lease lifecycle, the part every crawl loop shares:
    ``submit`` runs a lease as one ``_fetch_store_route_task``,
    ``collect`` sends its commit without waiting for it and keeps its
    lineage row (reference worker meta, K5/G4, lib/types/workermeta.ts).
    A task that dies (reference J5/R3) has its lease rolled back and its
    orphan fragment deleted, and counts toward the circuit breaker.

    ``relay_children`` is round mode: the tasks return their children
    for the driver to append, and commits keep the reference retry gate
    (R1 between rounds). Otherwise the tasks route children straight to
    their shards and a commit retries a failed item at once. At most
    ``window`` commits go unawaited."""

    def __init__(self, frontier: Frontier, out_dir: str, fetch_kwargs: dict,
                 *, window: int, max_lost_leases: int,
                 max_lost_ratio: float = MAX_LOST_RATIO,
                 relay_children: bool = False):
        self.frontier = frontier
        self.out_dir = out_dir
        self.docs_dir = os.path.join(out_dir, "documents")
        os.makedirs(self.docs_dir, exist_ok=True)
        self.fetch_kwargs = dict(fetch_kwargs, docs_dir=self.docs_dir)
        self.window = window
        self.max_lost_leases = max_lost_leases
        self.max_lost_ratio = max_lost_ratio
        self.relay = relay_children
        self.inflight: dict = {}      # ObjectRef -> (shard, lease_id, now)
        self.commit_refs: list = []   # commits sent, not yet awaited
        # (lease_id, shard, n, ok, failed, started, ended, children)
        self.lineage: list[tuple] = []
        self.lost = 0
        self.urls = 0
        self.docs = 0

    @property
    def commits(self) -> int:
        return len(self.lineage)

    def submit(self, lease: dict, shard: int, now) -> None:
        # raw lists, not a pa.Table — the table is built in the task
        # (see _fetch_store_route_task docstring: ~20x cheaper
        # driver-side serialization per chunk)
        ref = _fetch_store_route_task.options(max_retries=0).remote(
            lease["seq"], lease["url"], lease["host"], lease["depth"],
            lease["attempt"], shard, lease["lease_id"],
            all_shards=None if self.relay else self.frontier.shards,
            route_seed=self.frontier.seed,
            part_label=f"{lease['lease_id']:015d}", **self.fetch_kwargs)
        # the loop iteration's clock stamps the commit
        self.inflight[ref] = (shard, lease["lease_id"], now)

    def collect(self, ref):
        """Account one finished chunk and send its commit; returns
        ``(lease_id, counts, children)``, or None for a lost task."""
        shard, lease_id, now = self.inflight.pop(ref)
        try:
            counts, commit, children = ray.get(ref)
        except Exception:
            # the lease was never committed: back to INITIAL. A task
            # that died after its fragment write leaves an orphan
            # part-<lease_id>; the retry writes a new one under a new
            # lease id, so the orphan would double-count its documents
            # (the reference analog is the merged-sink all-or-nothing
            # rollback, crawler/src/index.ts:237-243)
            self.frontier.rollback(shard, lease_id)
            orphan = os.path.join(self.docs_dir, f"part-{lease_id:015d}.parquet")
            if os.path.exists(orphan):
                os.remove(orphan)
            self.lost += 1
            self.check_breaker()
            return None
        self.commit_refs.append(self.frontier.commit(
            shard, lease_id, *commit, now, not self.relay))
        if len(self.commit_refs) > self.window:
            # bound the list on long runs; a failed commit still raises
            done, self.commit_refs = ray.wait(
                self.commit_refs, num_returns=len(self.commit_refs),
                timeout=0)
            ray.get(done)
        self.urls += counts["n"]
        self.docs += counts["n_ok"]
        self.lineage.append((lease_id, shard, counts["n"], counts["n_ok"],
                             counts["n"] - counts["n_ok"], counts["started"],
                             counts["ended"], counts["n_children"]))
        return lease_id, counts, children

    def drain(self) -> list:
        """Collect every chunk in flight, in submission order, then await
        every commit sent; returns the collected results."""
        out = [self.collect(ref) for ref in list(self.inflight)]
        ray.get(self.commit_refs)
        self.commit_refs.clear()
        return out

    def cancel(self) -> None:
        """Cancel the chunks in flight the way a driver death would (Ray
        reclaims the tasks a dead driver owns); their leases TTL-heal."""
        for ref in self.inflight:
            try:
                ray.cancel(ref, force=True)
            except Exception:
                pass
        self.inflight.clear()

    def check_breaker(self) -> None:
        """The job's circuit breaker over expired leases plus lost tasks."""
        c = self.frontier.counters()
        c["expired_leases"] = c.get("expired_leases", 0) + self.lost
        check_quarantine(c, self.max_lost_leases, self.max_lost_ratio)

    def heal(self, now) -> bool:
        """The reference daemon cycle's healing: the R1 retry gate, then
        R3 lease expiry (daemon.ts:141-149,188-194). True if any item
        went back to INITIAL."""
        if self.frontier.retry_failed() > 0:
            return True
        if self.frontier.expire_leases(now) > 0:
            self.check_breaker()
            return True
        return False

    def write_lineage(self) -> None:
        _write_lineage(self.out_dir, self.lineage)


def run_crawl_pump(seed_urls: list[str] | None = None, *,
                   frontier: Frontier | None = None,
                   seed: int = 42,
                   max_depth: int = 2,
                   num_hosts: int = 64,
                   chunk_size: int = 512,
                   rounds: str | None = None,
                   out_dir: str = "/tmp/crawl_pump",
                   resume: bool = False,
                   checkpoint_every_commits: int = 0,
                   stop_when=None,
                   max_commits: int | None = None,
                   evict_every_commits: int = 0,
                   config: JobConfig | None = None,
                   faults: dict | None = None,
                   now_fn=None) -> CrawlResult:
    """Run a crawl on ``frontier`` to drain (or to ``max_commits``
    committed leases).

    The frontier carries the queue's options (shards, dedup,
    politeness, robots, order, retry budget, lease TTL), set where it
    is built; ``resume=True`` restores it from ``out_dir``'s checkpoint
    instead, and then no frontier is passed. ``config``, a
    ``JobConfig``, sets what the pump itself enforces (``job_limits``):
    the storage policy, the lost-lease breaker and ``longliving``.
    Without one the pump stores merged and trips at 10 lost leases and
    a lost ratio of 0.01. ``seed``, ``num_hosts`` and ``max_depth``
    shape the synthetic web the chunk tasks fetch, and ``faults`` passes
    fault markers to every chunk task (``fetch_store_batch``; tests).

    ``rounds=None`` is the async pump, the throughput mode. The driver
    keeps 3 × the session's CPUs (``ray.cluster_resources``) chunks of
    ``chunk_size`` items in flight, and as chunks complete
    (``ray.wait``) sends their commits and leases afresh: no barrier,
    no straggler tail — the analog of the reference scheduler's endless
    launch loop (master/scheduler/daemon.ts:61-79,308-391). The tasks
    route children to their shards in completion order, so
    ``enqueue_seq`` assignment and claim order vary across runs; the
    final seen SET, histogram and documents (a pure function of
    (seed, url)) do not. Those inserts are fire-and-forget; before its
    drained check and before a snapshot the driver polls each shard a
    task routed to until it has applied that lease's children
    (``FrontierShardCore.ack_routed``), and a busy run acknowledges as
    it goes, so no wait rests on a sleep and no bookkeeping grows with
    the run.

    ``rounds="shard"`` or ``"global"`` is round mode, the conformance
    mode. Each iteration reads ``now_fn`` once and leases one round:
    one ``chunk_size`` lease per shard (``Frontier.lease_wave``), or the
    ``chunk_size`` globally smallest open seqs
    (``Frontier.lease_wave_global``: a K>1 claim stream equal to K=1's).
    Its claims go to ``claims/part-<lease_id>.parquet``, the driver waits
    for all of its tasks, commits keep the reference retry gate (R1
    fires only when a round finds nothing to lease), and then the
    round's children are appended in parent ``enqueue_seq`` order, so
    the claim stream, frontier state and documents do not depend on
    Ray's scheduling. An empty round heals or ends the crawl
    (``longliving`` and ``stop_when`` apply to the pump only). The round
    number is the ``wave`` column and one ``manifest.jsonl`` row.

    When politeness parks every open item, the pump sleeps until the
    earliest time a shard can claim one (``Frontier.claim_wait``) and
    ends only when none ever can (every open item on a paused host).

    Both modes drive one ``LeaseRunner`` (lineage, lost-task rollback;
    ``CrawlResult.waves`` counts committed leases) and checkpoint at
    soft barriers (drain in flight → snapshot) every
    ``checkpoint_every_commits`` commits. On resume, fragments and
    claims at or above the snapshot's per-shard next_lease_id are
    deleted and the manifest is cut back to its last checkpoint row, so
    the documents table never double-counts.
    """
    if rounds not in (None, "shard", "global"):
        raise ValueError(f"rounds must be None, 'shard' or 'global': {rounds!r}")
    config = config or JobConfig(storage_policy="merged")
    storage_policy, _, max_lost_leases, max_lost_ratio, _ = \
        job_limits(config)
    claims_dir = os.path.join(out_dir, "claims")
    ckpt_dir = os.path.join(out_dir, "ckpt")
    manifest = os.path.join(out_dir, "manifest.jsonl")
    pending_enq: list = []     # seed inserts in flight
    rnd = 0                    # round number (round mode)

    if resume and os.path.exists(os.path.join(ckpt_dir, "frontier.pkl")):
        if frontier is not None:
            raise ValueError("resume restores the checkpoint's frontier; "
                             "pass no frontier")
        frontier = Frontier.restore(ckpt_dir)
        next_ids = ray.get([sh.get_next_lease_id.remote() for sh in frontier.shards])
        for d in (os.path.join(out_dir, "documents"), claims_dir):
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
        if frontier is None:
            raise ValueError("run_crawl_pump needs a frontier, or resume=True "
                             "with a checkpoint in out_dir")
        if os.path.isdir(out_dir):
            shutil.rmtree(out_dir)
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
    run = LeaseRunner(frontier, out_dir,
                      {"seed": seed, "max_depth": max_depth,
                       "num_hosts": num_hosts,
                       "storage_policy": storage_policy, **(faults or {})},
                      window=target_inflight, max_lost_leases=max_lost_leases,
                      max_lost_ratio=max_lost_ratio,
                      relay_children=rounds is not None)

    t0 = time.perf_counter()
    unacked: dict = {}             # shard -> lease ids routed, not acked
    acks: list = []                # (ack_routed ref, shard), not awaited

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

    def note_routed(result) -> None:
        """Note the shards a collected chunk routed its children to."""
        if result is None:
            return
        lease_id, counts, _ = result
        for sh in counts["routed"]:
            unacked.setdefault(sh, []).append(lease_id)
        if sum(map(len, unacked.values())) > target_inflight:
            # bound the ids held here and on the shards on long busy
            # runs, which reach neither the drained check nor a snapshot
            settle_acks(block=False)

    def run_round(leases: list, now) -> dict:
        """Claims log, one chunk task per lease, the barrier, the
        commits, then the children; returns the round's manifest row."""
        nonlocal rnd
        n0, ok0 = run.urls, run.docs
        run.fetch_kwargs["wave"] = rnd
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
            run.submit(lease, lease["shard"], now)
        relay = [r[2] for r in run.drain() if r and r[2]]
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
        n, ok = run.urls - n0, run.docs - ok0
        rnd += 1
        return {"wave": rnd - 1, "leased": n, "completed": ok,
                "failed": n - ok, "discovered": len(urls)}

    lease_pending: dict = {}   # lease_many ObjectRef -> shard index
    last_ckpt_commits = 0

    def refill(now, block: bool = False):
        """Overlapped refill: lease_many rounds run while fetch tasks
        compute, and each shard's response is taken as it arrives (an
        all-shards barrier capped the polite 32-cpu pump's lease supply
        at ~105 leases/s). ``block`` awaits everything — the
        drained-ness path needs a definite answer."""
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
                    run.submit(lease, shard, now)
                    got += 1
        if not lease_pending and len(run.inflight) + got < target_inflight:
            want = target_inflight - len(run.inflight) - got
            per_shard = max(1, -(-want // frontier.num_shards))
            refs = [sh.lease_many.remote(per_shard, chunk_size, now)
                    for sh in frontier.shards]
            if block and not got:
                for shard, leases in enumerate(ray.get(refs)):
                    for lease in leases:
                        run.submit(lease, shard, now)
                        got += 1
            else:
                for i, ref in enumerate(refs):
                    lease_pending[ref] = i
        return got

    def checkpoint() -> None:
        """Soft barrier: drain, snapshot, continue. The outstanding
        lease round is rolled back first (the next refill re-leases
        it): snapshotted as phantom RUNNING leases below the resume
        watermark, its fragments would survive a resume that re-crawls
        the same items → duplicated documents."""
        for ref_, shard_i in list(lease_pending.items()):
            for lease_ in ray.get(ref_):
                frontier.rollback(shard_i, lease_["lease_id"])
        lease_pending.clear()
        for result in run.drain():
            note_routed(result)
        ray.get(pending_enq)
        await_children()    # the drained tasks' child inserts
        frontier.checkpoint(ckpt_dir)
        run.write_lineage()

    while True:
        if max_commits is not None and run.commits >= max_commits:
            # interrupt point (kill simulation / bounded runs): a
            # straggler finishing AFTER a resume's orphan-fragment
            # cleanup would otherwise re-insert its fragment and
            # double-count docs. A resume restores from the last
            # checkpoint anyway.
            run.cancel()
            break
        now = now_fn() if now_fn else None
        if rounds:
            leases = (frontier.lease_wave_global(chunk_size, now)
                      if rounds == "global"
                      else frontier.lease_wave(chunk_size, now))
            busy = bool(leases)
        else:
            refill(now)
            busy = bool(run.inflight)
        if not busy:
            if not rounds:
                run.drain()                   # the commits sent so far,
                ray.get(pending_enq)          # and inserts must land before
                await_children()              # the drained check is trusted
                if refill(now, block=True):
                    continue
            # healing (reference daemon cycle: R1 retry gate, R3 lease
            # expiry)
            if run.heal(now):
                continue
            if rounds:
                break
            wait = frontier.claim_wait(now)
            if wait < float("inf"):
                # politeness back-off: every open item is parked on a
                # host whose bucket is empty; sleep until one refills
                time.sleep(wait)
                continue
            if config.longliving and not (stop_when and stop_when()):
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
            # event wait: wake on the FIRST completion of either kind —
            # a fetch task (commit) or a lease response (more tasks to
            # submit). Waiting for a fixed batch of task completions
            # here (the old num_returns=8) delayed lease collection by
            # ~8/completion-rate and starved the pool whenever leases
            # are small (politeness chunk 256).
            ray.wait(list(run.inflight) + list(lease_pending), num_returns=1)
            # then drain every task that is ready right now (batch commit)
            done, _ = ray.wait(list(run.inflight),
                               num_returns=len(run.inflight), timeout=0)
            for ref in done:
                note_routed(run.collect(ref))
        if evict_every_commits and run.commits and \
                run.commits % evict_every_commits == 0:
            # bound shard memory at scale: terminal items leave the
            # actors (histogram counts preserved; docs/lineage tables
            # are the durable record)
            frontier.evict_terminal()
        if checkpoint_every_commits and \
                run.commits - last_ckpt_commits >= checkpoint_every_commits:
            # threshold on commits-since-last-checkpoint, NOT
            # ``commits % N == 0``: commits advances by several per
            # pump round, so an exact multiple can be skipped —
            # observed as an interrupted run with no checkpoint at all,
            # which a resume then rmtree'd
            checkpoint()
            row.update(commits=run.commits, docs=run.docs,
                       checkpointed=True)
            last_ckpt_commits = run.commits
        if row:
            _append_manifest(manifest, row)

    run.drain()
    run.write_lineage()
    elapsed = time.perf_counter() - t0
    return CrawlResult(out_dir=out_dir, waves=run.commits,
                       histogram=frontier.status_histogram(),
                       counters=frontier.counters(),
                       seen_set_size=frontier.seen_count(),
                       docs_written=run.docs, elapsed_sec=elapsed,
                       urls_processed=run.urls)


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
