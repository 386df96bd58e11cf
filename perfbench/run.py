#!/usr/bin/env python3
"""Benchmark command for the crawl engine.

    python3 perfbench/run.py --workload <crawl|frontier|queries> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones (see ``perfbench/README.md``). Exits non-zero,
without a result line, when the engine is missing or a pass raises.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_CYCLES = 2       # setup_s is the median of this many set-ups
WORKLOADS = ("crawl", "frontier", "queries")

END_TO_END = {"setup_s": "s", "pass_s": "s", "ops_per_s": "1/s",
              "peak_rss_mb": "MB"}


def _workload(name: str, seed: int, tmp: str):
    from perfbench.wl_crawl import CrawlWorkload
    from perfbench.wl_frontier import FrontierWorkload
    from perfbench.wl_queries import QueriesWorkload
    cls = {"crawl": CrawlWorkload, "frontier": FrontierWorkload,
           "queries": QueriesWorkload}[name]
    return cls(seed, tmp)


def _import_engine() -> float:
    """Import Ray and every engine module the workloads call; returns
    the wall time."""
    t0 = time.perf_counter()
    import ray  # noqa: F401
    import ray.data  # noqa: F401

    import __ray_entry__  # noqa: F401  (every pipeline module)
    return time.perf_counter() - t0


def _set_up(wl, tmp: str) -> dict:
    """``SETUP_CYCLES`` fresh Ray sessions, each warmed up by the
    workload; the last one stays up for the measurement."""
    from perfbench.harness import ray_init, ray_shutdown
    inits, warms = [], []
    for k in range(SETUP_CYCLES):
        if k:
            ray_shutdown()
        t0 = time.perf_counter()
        ray_init(tmp)
        t1 = time.perf_counter()
        wl.warmup()
        t2 = time.perf_counter()
        inits.append(t1 - t0)
        warms.append(t2 - t1)
    print(f"[{wl.name}] set-up: ray_init_s={[round(x, 3) for x in inits]} "
          f"warmup_s={[round(x, 3) for x in warms]}", file=sys.stderr)
    return {"setup.ray_init_s": median(inits),
            "setup.warmup_s": median(warms),
            "cycle_s": median([a + b for a, b in zip(inits, warms)])}


def _checked(wl, tracer, problems: list):
    p = wl.run_pass(tracer)
    found = wl.check(p)
    for m in found:
        print(f"[{wl.name}] CHECK FAILED: {m}", file=sys.stderr)
    problems += found
    return p


def measure(args, tmp: str, rss) -> dict:
    from perfbench.harness import Tracer

    import_s = _import_engine()
    print(f"[{args.workload}] import_s={import_s:.3f}", file=sys.stderr)
    wl = _workload(args.workload, args.seed, tmp)
    setup = _set_up(wl, tmp)
    problems: list[str] = []
    passes = []
    if args.trace == 0:
        off = Tracer(False)
        t_measure = time.perf_counter()
        while not passes or sum(p.wall for p in passes) < args.seconds:
            passes.append(_checked(wl, off, problems))
        print(f"[{args.workload}] {len(passes)} passes, "
              f"pass_s={[round(p.wall, 3) for p in passes]}, "
              f"measured in {time.perf_counter() - t_measure:.3f}s",
              file=sys.stderr)
        values = {
            "setup_s": import_s + setup["cycle_s"],
            "pass_s": median([p.wall for p in passes]),
            "ops_per_s": median([p.ops_per_s for p in passes]),
            "peak_rss_mb": rss.peak_mb,
        }
        units = END_TO_END
    else:
        values = traced(args, tmp, wl, problems, passes)
        values.update({"setup.import_s": import_s,
                       "setup.ray_init_s": setup["setup.ray_init_s"],
                       "setup.warmup_s": setup["setup.warmup_s"]})
        from perfbench.layers import PER_LAYER
        missing = set(PER_LAYER) - set(values)
        if missing:
            raise RuntimeError(f"per-layer metrics not measured: {missing}")
        units = PER_LAYER
    return {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": float(values[k]), "unit": units[k]}
                    for k in units},
    }


def traced(args, tmp: str, wl, problems: list, passes: list) -> dict:
    """The traced run: a traced pass of the chosen workload, a warm-up
    and a traced pass of each of the other two (their spans supply
    their layers' figures), then the in-process layer replays. Every
    pass run is appended to ``passes``."""
    from perfbench import replay
    from perfbench.harness import Tracer, shard_count

    tracer = Tracer(True)
    values: dict = {}
    for name in (args.workload,) + tuple(w for w in WORKLOADS
                                         if w != args.workload):
        if name == args.workload:
            w = wl
        else:
            w = _workload(name, args.seed, tmp)
            w.warmup()
        p = _checked(w, tracer, problems)
        passes.append(p)
        values.update(w.layer_metrics(p, tracer))
    values["trace.overhead_s"] = tracer.overhead_s
    core = replay.shard_core(args.seed, shard_count())
    actor_total = (values["state.frontier.enqueue_s"]
                   + values["state.frontier.lease_wave_s"]
                   + values["state.frontier.commit_s"])
    values["state.frontier.rpc_s"] = actor_total - core.pop(
        "inprocess_total_s")
    values.update(core)
    values.update(replay.fetch_layers(args.seed, tmp))
    values.update(replay.url_layers(args.seed))
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(
        out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
    return values


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "crawling_infrastructure_ray")):
        print(f"engine package crawling_infrastructure_ray not found "
              f"in {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    # Ray workers import the engine too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    import warnings
    warnings.filterwarnings("ignore")

    from perfbench.harness import RssSampler, ray_shutdown, ray_stop_force
    ray_stop_force()
    tmp = os.path.join(ROOT, ".perfbench_tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        with RssSampler() as rss:
            result = measure(args, tmp, rss)
    finally:
        t0 = time.perf_counter()
        ray_shutdown()
        shutil.rmtree(tmp, ignore_errors=True)
        print(f"[{args.workload}] shutdown_s={time.perf_counter() - t0:.3f}",
              file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
