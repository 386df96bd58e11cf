"""One lease runner serves every crawl loop: the chunk task has one
submission site, and the multi-task daemon cycle gets the pump's
lost-task rollback, orphan-fragment cleanup, circuit breaker and
lineage through it."""

import dataclasses
import inspect
import os
import pathlib
import re

import pytest

from crawling_infrastructure_ray.config import JobConfig
from crawling_infrastructure_ray.pipelines.crawl import (CrawlQuarantined,
                                                         LeaseRunner,
                                                         job_limits,
                                                         read_documents,
                                                         read_lineage,
                                                         run_crawl_pump)
from crawling_infrastructure_ray.pipelines.scheduler import run_multi_task
from crawling_infrastructure_ray.state.frontier import FrontierShardCore

PKG = pathlib.Path(__file__).resolve().parents[1] / "crawling_infrastructure_ray"


def test_chunk_task_has_one_submission_site():
    """No package module but pipelines/crawl.py names the chunk task,
    and crawl.py submits it from one line (``LeaseRunner.submit``)."""
    mentions, submits = [], []
    for p in sorted(PKG.rglob("*.py")):
        for i, line in enumerate(p.read_text().splitlines(), 1):
            site = f"{p.relative_to(PKG)}:{i}"
            if "_fetch_store_route_task" in line and \
                    p.relative_to(PKG) != pathlib.Path("pipelines/crawl.py"):
                mentions.append(site)
            if re.search(r"_fetch_store_route_task\s*\.\s*(options|remote)\b",
                         line):
                submits.append(site)
    assert mentions == []
    assert len(submits) == 1 and \
        submits[0].startswith("pipelines/crawl.py:"), submits


def test_pump_options_have_one_home():
    """``run_crawl_pump`` takes the crawl's ``Frontier`` and ``JobConfig``
    instead of repeating their options: its parameter list is pinned,
    and none of its names is a shard option or a ``JobConfig`` field
    (``seed`` also shapes the synthetic web)."""
    params = list(inspect.signature(run_crawl_pump).parameters)
    assert params == [
        "seed_urls", "frontier", "seed", "max_depth", "num_hosts",
        "chunk_size", "rounds", "out_dir", "resume",
        "checkpoint_every_commits", "stop_when", "max_commits",
        "evict_every_commits", "config", "faults", "now_fn"]
    shard = set(inspect.signature(FrontierShardCore).parameters) - {"seed"}
    job = {f.name for f in dataclasses.fields(JobConfig)}
    assert set(params) & (shard | job) == set()


def test_fault_markers_have_one_home():
    """Fault markers reach chunk tasks only through a loop's ``faults``
    dict: no package module but stages/fetch.py, which reads them,
    names one, and both crawl loops take ``faults``."""
    sites = [f"{p.relative_to(PKG)}:{i}"
             for p in sorted(PKG.rglob("*.py"))
             if p.relative_to(PKG) != pathlib.Path("stages/fetch.py")
             for i, line in enumerate(p.read_text().splitlines(), 1)
             if re.search(r"fail_marker|fail_after_store_marker", line)]
    assert sites == []
    for loop in (run_crawl_pump, run_multi_task):
        assert "faults" in inspect.signature(loop).parameters, loop


def _tasks(max_lost_workers: int = 10):
    return [
        (JobConfig(name="hi", priority=5, priority_policy="absolute",
                   max_lost_workers=max_lost_workers),
         [f"http://mt-hi.example/a{i}" for i in range(40)] +
         ["http://mt-hi.example/POISON"]),
        (JobConfig(name="lo", priority=2, priority_policy="absolute"),
         [f"http://mt-lo.example/b{i}" for i in range(20)]),
    ]


def _run(out_root, **kw):
    return run_multi_task(_tasks(), seed=42, chunk_size=8,
                          total_chunks_per_cycle=4, out_root=out_root, **kw)


def test_multi_task_post_store_crash_matches_clean_run(ray_session, tmp_path):
    """A chunk task of the high-priority task dies after writing its
    fragment: its lease rolls back, the orphan fragment is deleted, and
    each task ends with a clean run's histogram and documents, and one
    lineage row per committed lease."""
    clean_root, crash_root = str(tmp_path / "clean"), str(tmp_path / "crash")
    clean = _run(clean_root)
    crash = _run(crash_root, faults={"fail_after_store_marker": "POISON"})
    assert crash["histograms"] == clean["histograms"]
    for name in ("hi", "lo"):
        out = os.path.join(crash_root, name)
        docs = read_documents(out).to_pandas()
        want = read_documents(os.path.join(clean_root, name)).to_pandas()
        assert docs["doc_id"].is_unique
        assert len(docs) == len(want) > 0
        lin = read_lineage(out).to_pydict()
        ids = lin["lease_id"]
        assert len(set(ids)) == len(ids)
        assert sum(lin["n_ok"]) == len(docs)
        frags = {int(f[5:-8]) for f in os.listdir(os.path.join(out, "documents"))
                 if f.startswith("part-")}
        assert frags == {i for i, ok in zip(ids, lin["n_ok"]) if ok}
    # the lost lease is the one id missing from the high task's lineage
    ids = read_lineage(os.path.join(crash_root, "hi"))["lease_id"].to_pylist()
    assert max(ids) - min(ids) + 1 == len(ids) + 1


def test_multi_task_poisoned_task_trips_quarantine(ray_session, tmp_path):
    """A URL whose chunk crashes on every attempt trips the task's
    JobConfig breaker (``max_lost_workers``) instead of raising the
    task's RayTaskError out of the run."""
    with pytest.raises(CrawlQuarantined):
        run_multi_task(_tasks(max_lost_workers=3), seed=42, chunk_size=8,
                       total_chunks_per_cycle=4,
                       out_root=str(tmp_path / "q"),
                       faults={"fail_marker": "POISON"})


class _Counters:
    """Frontier stand-in: the breaker reads only ``counters()``."""

    def __init__(self, counters: dict):
        self._c = counters

    def counters(self) -> dict:
        return dict(self._c)


@pytest.mark.parametrize("ratio,trips", [(0.01, True), (0.5, False)])
def test_lost_ratio_comes_from_job_config(tmp_path, ratio, trips):
    """10 of 100 leases lost: the reference rule (lost >= max_lost_workers
    and lost / started >= max_lost_workers_ratio) trips at the default
    ratio 0.01 and holds at 0.5, read from the JobConfig."""
    _, _, max_lost, max_ratio, _ = job_limits(
        JobConfig(max_lost_workers=10, max_lost_workers_ratio=ratio))
    run = LeaseRunner(_Counters({"expired_leases": 10, "leases_issued": 100}),
                      str(tmp_path), {}, window=1, max_lost_leases=max_lost,
                      max_lost_ratio=max_ratio)
    if trips:
        with pytest.raises(CrawlQuarantined):
            run.check_breaker()
    else:
        run.check_breaker()
