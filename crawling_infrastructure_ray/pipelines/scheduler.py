"""Multi-task priority scheduling (reference O4 + daemon cycle).

The reference daemon orders runnable tasks each cycle: ``absolute``
priority policy keeps ONLY the max-priority started tasks; ``relative``
sorts by priority and serves all (master/scheduler/daemon.ts:220-241).
Here tasks are (JobConfig, Frontier) pairs; the scheduler selects which
frontiers get fetch capacity this cycle and splits the chunk budget by
priority weight. ``run_multi_task`` is the end-to-end daemon-cycle
analog (daemon.ts:308-391) and holds only that allocation policy; each
task's leases run through its own ``pipelines.crawl.LeaseRunner``, the
one lease lifecycle the crawl pump drives too.
"""

from __future__ import annotations

import os

from ..config import JobConfig


def select_tasks(tasks: list[JobConfig], policy: str | None = None) -> list[JobConfig]:
    """Order/filter runnable tasks per the reference policy.

    absolute → only tasks at the maximum priority level;
    relative → all tasks, sorted by priority desc (stable).
    The policy of the FIRST task applies when not given (the reference
    reads it from system config per cycle).
    """
    if not tasks:
        return []
    policy = policy or tasks[0].priority_policy
    if policy == "absolute":
        top = max(t.priority for t in tasks)
        return [t for t in tasks if t.priority == top]
    return sorted(tasks, key=lambda t: -t.priority)


def capacity_shares(tasks: list[JobConfig], total_chunks: int,
                    policy: str | None = None) -> dict[str, int]:
    """Split a fetch-capacity budget across selected tasks
    proportionally to priority (relative) or evenly among max-priority
    tasks (absolute). Every selected task gets ≥1."""
    sel = select_tasks(tasks, policy)
    if not sel:
        return {}
    weights = {t.name: t.priority for t in sel}
    wsum = sum(weights.values())
    shares = {name: max(1, (total_chunks * w) // wsum)
              for name, w in weights.items()}
    return shares


def run_multi_task(tasks, *, seed: int = 42, num_shards: int = 1,
                   chunk_size: int = 32, total_chunks_per_cycle: int = 8,
                   out_root: str = "/tmp/multi_task",
                   max_cycles: int = 200, faults: dict | None = None) -> dict:
    """End-to-end daemon cycle over several tasks (daemon.ts:308-391).

    ``tasks`` is a list of ``(JobConfig, seed_urls)``. Each task gets
    its own Frontier (one collection per task in the reference), runner
    and ``out_root/<name>`` directory, with the limits of its JobConfig
    (``job_limits``). Per cycle: drop finished tasks (G2: nothing
    open, nothing to heal), select runnable ones by priority policy
    (O4), split the chunk budget by ``capacity_shares``, lease each
    task's share shard by shard into its runner, then drain every
    runner. ``faults`` passes ``fetch_store_batch`` fault markers to
    every chunk task (tests; off by default). Returns per-task
    histograms plus the allocation log [(cycle, task, n_chunks)] — the
    observable the priority-policy conformance test asserts on.
    """
    import ray

    from ..state.frontier import Frontier
    from .crawl import LeaseRunner, job_limits

    runners: dict[str, tuple[JobConfig, LeaseRunner]] = {}
    for cfg, urls in tasks:
        storage_policy, max_retries, max_lost, lost_ratio, ttl = \
            job_limits(cfg)
        fr = Frontier(num_shards, seed=seed, dedup=True,
                      max_retries=max_retries, lease_ttl=ttl)
        fr.enqueue(list(urls))
        runners[cfg.name] = cfg, LeaseRunner(
            fr, os.path.join(out_root, cfg.name),
            {"seed": seed, "max_depth": 0, "storage_policy": storage_policy,
             **(faults or {})},
            window=total_chunks_per_cycle, max_lost_leases=max_lost,
            max_lost_ratio=lost_ratio)

    alloc_log: list[tuple[int, str, int]] = []
    for cycle in range(max_cycles):
        runnable = []
        for cfg, run in runners.values():
            h = run.frontier.status_histogram()
            if h["initial"] > 0 or h["running"] > 0 or run.heal(None):
                runnable.append(cfg)
        if not runnable:
            break
        shares = capacity_shares(runnable, total_chunks_per_cycle)
        for name, n_chunks in shares.items():
            run = runners[name][1]
            got = 0
            for sh_i, sh in enumerate(run.frontier.shards):
                for lease in ray.get(sh.lease_many.remote(n_chunks - got,
                                                          chunk_size, None)):
                    run.submit(lease, sh_i, None)
                    got += 1
                if got >= n_chunks:
                    break
            if got:
                alloc_log.append((cycle, name, got))
        for _, run in runners.values():
            run.drain()
    for _, run in runners.values():
        run.write_lineage()
    return {"histograms": {n: run.frontier.status_histogram()
                           for n, (_, run) in runners.items()},
            "alloc_log": alloc_log}
