"""Multi-task priority scheduling (reference O4 + daemon cycle).

The reference daemon orders runnable tasks each cycle: ``absolute``
priority policy keeps ONLY the max-priority started tasks; ``relative``
sorts by priority and serves all (master/scheduler/daemon.ts:220-241).
Here tasks are (JobConfig, Frontier) pairs; the scheduler selects which
frontiers get fetch capacity this cycle and splits the chunk budget by
priority weight. ``run_multi_task`` is the end-to-end daemon-cycle
analog (daemon.ts:308-391): per cycle it re-evaluates runnability
(G1/G2), allocates capacity, launches fetch workers per task, and
heals/retries between cycles.
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
                   max_cycles: int = 200) -> dict:
    """End-to-end daemon cycle over several tasks (daemon.ts:308-391).

    ``tasks`` is a list of ``(JobConfig, seed_urls)``. Each task gets
    its own Frontier (its own queue — one collection per task in the
    reference) and documents directory. Per cycle: drop finished tasks
    (G2), select runnable ones by priority policy (O4), split the
    chunk budget by ``capacity_shares``, lease+fetch+store each
    task's allocation as chunk tasks and commit their results from
    here, then heal/retry (R1). Returns per-task histograms plus the
    allocation log [(cycle, task, n_chunks)] — the observable the
    priority-policy conformance test asserts on.
    """
    import ray

    from ..state.frontier import Frontier
    from .crawl import _fetch_store_route_task

    frontiers: dict[str, Frontier] = {}
    configs: dict[str, JobConfig] = {}
    for cfg, urls in tasks:
        fr = Frontier(num_shards, seed=seed, dedup=True,
                      max_retries=cfg.retry_failed_items)
        fr.enqueue(list(urls))
        frontiers[cfg.name] = fr
        configs[cfg.name] = cfg
        os.makedirs(os.path.join(out_root, cfg.name, "documents"),
                    exist_ok=True)

    alloc_log: list[tuple[int, str, int]] = []
    for cycle in range(max_cycles):
        runnable = []
        for name, fr in frontiers.items():
            h = fr.status_histogram()
            if h["initial"] > 0 or h["running"] > 0 or fr.retry_failed() > 0:
                runnable.append(configs[name])
        if not runnable:
            break
        shares = capacity_shares(runnable, total_chunks_per_cycle)
        refs, owners = [], []
        for name, n_chunks in shares.items():
            fr = frontiers[name]
            docs_dir = os.path.join(out_root, name, "documents")
            got = 0
            for sh_i, sh in enumerate(fr.shards):
                for lease in ray.get(sh.lease_many.remote(n_chunks - got,
                                                          chunk_size, None)):
                    # raw lease lists — the task builds the Arrow table
                    # (same contract as the pump's submit)
                    refs.append(_fetch_store_route_task.options(max_retries=0)
                                .remote(lease["seq"], lease["url"],
                                        lease["host"], lease["depth"],
                                        lease["attempt"], sh_i,
                                        lease["lease_id"],
                                        seed=seed, max_depth=0,
                                        docs_dir=docs_dir,
                                        part_label=f"{lease['lease_id']:015d}"))
                    owners.append((fr, sh_i, lease["lease_id"]))
                    got += 1
                if got >= n_chunks:
                    break
            if got:
                alloc_log.append((cycle, name, got))
        if refs:
            ray.get([fr.commit(sh_i, lease_id, *commit, None, True)
                     for (fr, sh_i, lease_id), (_, commit, _) in
                     zip(owners, ray.get(refs))])
    return {"histograms": {n: fr.status_histogram()
                           for n, fr in frontiers.items()},
            "alloc_log": alloc_log}
