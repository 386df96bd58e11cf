import threading
import time

from crawling_infrastructure_ray.config import JobConfig
from crawling_infrastructure_ray.pipelines.crawl import run_crawl_pump
from crawling_infrastructure_ray.pipelines.scheduler import (capacity_shares,
                                                             select_tasks)
from crawling_infrastructure_ray.state.frontier import Frontier


def _tasks():
    return [JobConfig(name="a", priority=5, priority_policy="absolute"),
            JobConfig(name="b", priority=5, priority_policy="absolute"),
            JobConfig(name="c", priority=2, priority_policy="absolute")]


def test_absolute_policy_keeps_max_priority_only():
    # daemon.ts:220-241 — absolute keeps only max-priority tasks
    sel = select_tasks(_tasks(), "absolute")
    assert [t.name for t in sel] == ["a", "b"]


def test_relative_policy_sorts():
    sel = select_tasks(_tasks(), "relative")
    assert [t.name for t in sel] == ["a", "b", "c"]


def test_capacity_shares():
    sh = capacity_shares(_tasks(), 10, "relative")
    assert sh["a"] == sh["b"] and sh["a"] > sh["c"] >= 1
    sh_abs = capacity_shares(_tasks(), 10, "absolute")
    assert "c" not in sh_abs and sh_abs["a"] == 5


def test_longliving_pump_receives_late_items(ray_session, tmp_path):
    """Reference longliving semantics (crawltask.model.ts:194-196):
    the frontier never 'finishes'; items enqueued from outside while
    the pump is idle still get crawled."""
    fr = Frontier(1, seed=42, dedup=True, order="fifo")
    fr.enqueue([f"http://hl.example/a{i}" for i in range(5)])
    stop = threading.Event()
    result = {}

    def run():
        result["res"] = run_crawl_pump(
            None, frontier=fr, seed=42, max_depth=0, chunk_size=4,
            out_dir=str(tmp_path / "ll"),
            config=JobConfig(storage_policy="merged", longliving=True),
            stop_when=stop.is_set)

    t = threading.Thread(target=run)
    t.start()
    time.sleep(1.5)                    # first batch drains; pump idles
    fr.enqueue([f"http://hl.example/b{i}" for i in range(5)])
    time.sleep(1.5)
    stop.set()
    t.join(timeout=30)
    assert not t.is_alive()
    res = result["res"]
    h = res.histogram
    assert h["completed"] + h["failed"] == 10   # both batches crawled
    assert h["initial"] == 0


def test_run_multi_task_absolute_priority_e2e(ray_session, tmp_path):
    """Daemon-cycle conformance (daemon.ts:220-241 + 308-391): under
    the absolute policy a lower-priority task receives ZERO fetch
    capacity until every max-priority task has finished; all tasks
    still complete."""
    from crawling_infrastructure_ray.pipelines.scheduler import run_multi_task
    tasks = [
        (JobConfig(name="hi", priority=5, priority_policy="absolute"),
         [f"http://mt-hi.example/a{i}" for i in range(40)]),
        (JobConfig(name="lo", priority=2, priority_policy="absolute"),
         [f"http://mt-lo.example/b{i}" for i in range(20)]),
    ]
    out = run_multi_task(tasks, seed=42, chunk_size=8,
                         total_chunks_per_cycle=4,
                         out_root=str(tmp_path / "mt"))
    for name, h in out["histograms"].items():
        assert h["initial"] == 0 and h["running"] == 0, (name, h)
        assert h["completed"] > 0
    hi_cycles = [c for c, n, _ in out["alloc_log"] if n == "hi"]
    lo_cycles = [c for c, n, _ in out["alloc_log"] if n == "lo"]
    assert hi_cycles and lo_cycles
    # absolute policy: every 'lo' allocation happens strictly after the
    # last 'hi' allocation (lo was starved while hi was runnable)
    assert min(lo_cycles) > max(hi_cycles)
