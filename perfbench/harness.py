"""Shared benchmark machinery: the Ray session, the span recorder and
the memory sampler.

Nothing here imports the engine; the workload modules do.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from functools import cache

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Ray puts its unix sockets under the temp dir; the kernel limit on a
# socket path is 107 bytes and Ray appends about 63 to the temp dir.
_MAX_RAY_TMP = 40


@cache
def ncpu() -> int:
    """Cores the benchmark may use, as ``nproc`` reports them: it
    honours OMP_NUM_THREADS and the CPU affinity mask."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True,
                             check=True, timeout=10).stdout
        return max(1, int(out.strip()))
    except (OSError, ValueError, subprocess.SubprocessError):
        return max(1, len(os.sched_getaffinity(0)))


def shard_count() -> int:
    """Frontier shards for the crawl and frontier workloads: one per
    core, at least two (so routing and restore span shards), at most
    eight."""
    return max(2, min(8, ncpu()))


def _ray_daemons_running() -> bool:
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/comm") as f:
                if f.read().strip() in ("raylet", "gcs_server"):
                    return True
        except OSError:
            continue
    return False


def ray_stop_force() -> None:
    """``ray stop --force`` when Ray daemons are left over from an
    earlier session, so that every run starts from the same empty
    machine."""
    if not _ray_daemons_running():
        return
    subprocess.run([sys.executable, "-m", "ray.scripts.scripts", "stop",
                    "--force"], stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=False, timeout=60)


def ray_init(tmp_root: str) -> None:
    """Fresh local Ray session sized to this machine: ``num_cpus`` is
    the core count and never more. Ray's session files go under
    ``tmp_root`` when its socket paths fit there, else to Ray's
    default temp dir."""
    import ray
    from ray.data import DataContext

    kwargs = {}
    ray_tmp = os.path.join(tmp_root, "ray")
    if len(ray_tmp) <= _MAX_RAY_TMP:
        kwargs["_temp_dir"] = ray_tmp
    ray.init(address="local", num_cpus=ncpu(), include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 << 20, **kwargs)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False


def ray_shutdown() -> None:
    """Stop the Ray session and wait until every process it started has
    ended (workers outlive the raylet briefly, reparented away)."""
    import ray
    if not ray.is_initialized():
        return
    pids = [pid for pid, _ in _tree(os.getpid()) if pid != os.getpid()]
    ray.shutdown()
    deadline = time.monotonic() + 30
    while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.1)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class Tracer:
    """In-memory span recorder: (name, start, end, parent). Spans are
    kept in a list and written out once, when the run ends.
    ``overhead_s`` is the time spent recording them."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.overhead_s = 0.0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        t0 = time.perf_counter()
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = {"id": idx, "name": name, "parent": parent,
               "start": 0.0, "end": 0.0}
        self.spans.append(rec)
        self._stack.append(idx)
        rec["start"] = time.perf_counter()
        self.overhead_s += rec["start"] - t0
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self.overhead_s += time.perf_counter() - rec["end"]

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def self_time(self, name: str) -> float:
        """Summed duration of the spans called ``name`` minus the part
        of each covered by its direct children."""
        kids: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] >= 0:
                kids[s["parent"]] = kids.get(s["parent"], 0.0) + \
                    s["end"] - s["start"]
        return sum(s["end"] - s["start"] - kids.get(s["id"], 0.0)
                   for s in self.spans if s["name"] == name)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def _proc_table() -> dict[int, tuple[int, int]]:
    """pid -> (ppid, rss pages) for every process visible in /proc."""
    out: dict[int, tuple[int, int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        out[int(name)] = (int(fields[1]), int(fields[21]))
    return out


def _tree(root_pid: int) -> list[tuple[int, int]]:
    """(pid, rss pages) of ``root_pid`` and all its descendants: the
    driver, Ray's daemons, its workers and actors."""
    table = _proc_table()
    kids: dict[int, list[int]] = {}
    for pid, (ppid, _) in table.items():
        kids.setdefault(ppid, []).append(pid)
    out, todo = [], [root_pid]
    while todo:
        pid = todo.pop()
        if pid in table:
            out.append((pid, table[pid][1]))
        todo.extend(kids.get(pid, ()))
    return out


def tree_rss_mb(root_pid: int) -> float:
    """Summed resident memory of ``root_pid`` and all its descendants."""
    pages = sum(rss for _, rss in _tree(root_pid))
    return pages * os.sysconf("SC_PAGE_SIZE") / (1 << 20)


class RssSampler:
    """Background thread sampling the process tree's summed RSS; keeps
    the peak. Sampling is cheap (one /proc walk per interval)."""

    def __init__(self, interval: float = 0.5):
        self.interval = interval
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        pid = os.getpid()
        while not self._stop.is_set():
            self.peak_mb = max(self.peak_mb, tree_rss_mb(pid))
            self._stop.wait(self.interval)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
