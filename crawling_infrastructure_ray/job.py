"""``ray job submit`` entrypoint — the north rule's cluster surface.

On a real cluster the job server sets ``RAY_ADDRESS`` and the script
connects to the running cluster; standalone it starts a local session.
Either way THIS process owns the Ray session (init + shutdown) — the
library modules never call ``ray.init()``.

Usage (multi-node, from the head node or any client):

    ray job submit --working-dir . -- \
        python -m crawling_infrastructure_ray.job \
        --seeds-parquet s3://.../seeds.parquet --out /data/crawl_run1 \
        --shards 32 --politeness --robots --checkpoint-every 64

    # resume an interrupted run (frontier ckpt + fragment cleanup):
    ray job submit --working-dir . -- \
        python -m crawling_infrastructure_ray.job \
        --out /data/crawl_run1 --resume

Local smoke (no cluster; same code path):

    python -m crawling_infrastructure_ray.job --synthetic-seeds 2000 \
        --out /tmp/job_smoke --num-cpus 4

Prints ONE JSON line with the run metrics (the CrawlResult fields the
scheduler daemon logs in the reference: histogram, docs, throughput)
— machine-readable for the submitting orchestrator, mirroring the
reference's worker-meta reporting (crawler/src/index.ts:214-276).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import JobConfig


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m crawling_infrastructure_ray.job",
        description="Frontier crawl as a submittable Ray job")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--seeds-parquet", help="parquet with a 'url' column")
    src.add_argument("--synthetic-seeds", type=int, default=0,
                     help="generate N deterministic synthetic seed urls")
    p.add_argument("--out", required=True, help="output/checkpoint dir")
    p.add_argument("--resume", action="store_true",
                   help="resume from the run's frontier checkpoint")
    p.add_argument("--shards", type=int, default=8)
    p.add_argument("--max-depth", type=int, default=1)
    p.add_argument("--chunk-size", type=int, default=1024)
    p.add_argument("--checkpoint-every", type=int, default=0,
                   metavar="COMMITS",
                   help="soft-barrier frontier checkpoint cadence")
    p.add_argument("--politeness", action="store_true")
    p.add_argument("--robots", action="store_true")
    p.add_argument("--rate", type=float, default=200.0,
                   help="per-host token-bucket rate (with --politeness)")
    p.add_argument("--burst", type=float, default=32.0)
    p.add_argument("--order", default="fifo", choices=["fifo", "priority"])
    p.add_argument("--storage-policy", default="merged",
                   choices=["itemwise", "merged"])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--num-cpus", type=int, default=0,
                   help="standalone only: cap local session cpus "
                        "(ignored when RAY_ADDRESS points at a cluster)")
    return p


def crawl_options(args: argparse.Namespace) -> tuple[dict, JobConfig]:
    """What the flags set: the ``Frontier`` options and the crawl's
    ``JobConfig``."""
    return (dict(seed=args.seed, dedup=True, politeness=args.politeness,
                 robots=args.robots, default_rate=args.rate,
                 default_burst=args.burst, order=args.order),
            JobConfig(storage_policy=args.storage_policy))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    import ray
    if not ray.is_initialized():
        # under `ray job submit` RAY_ADDRESS is set by the job server
        # and ray.init() attaches to the cluster; standalone we pin a
        # local session (num_cpus only applies there)
        if os.environ.get("RAY_ADDRESS", "local") != "local":
            ray.init(include_dashboard=False, logging_level="ERROR")
        else:
            kw = {"num_cpus": args.num_cpus} if args.num_cpus else {}
            ray.init(address="local", include_dashboard=False,
                     logging_level="ERROR", **kw)

    try:
        from .pipelines.crawl import run_crawl_pump
        from .sources.corpus import make_seed_urls
        from .state.frontier import Frontier

        seeds: list[str] | None
        if args.seeds_parquet:
            import pyarrow.parquet as pq
            seeds = pq.read_table(args.seeds_parquet,
                                  columns=["url"])["url"].to_pylist()
        elif args.synthetic_seeds:
            seeds = make_seed_urls(args.synthetic_seeds,
                                   seed=args.seed)["url"].to_pylist()
        elif args.resume:
            seeds = None          # frontier state comes from the ckpt
        else:
            print("error: need --seeds-parquet, --synthetic-seeds, "
                  "or --resume", file=sys.stderr)
            return 2

        frontier_kw, config = crawl_options(args)
        # a resume without a checkpoint starts afresh on a new frontier
        resume = args.resume and os.path.exists(
            os.path.join(args.out, "ckpt", "frontier.pkl"))
        res = run_crawl_pump(
            seeds, frontier=None if resume else Frontier(args.shards,
                                                         **frontier_kw),
            seed=args.seed, max_depth=args.max_depth,
            chunk_size=args.chunk_size, out_dir=args.out, resume=resume,
            checkpoint_every_commits=args.checkpoint_every, config=config)
        print(json.dumps({
            "out_dir": res.out_dir,
            "urls_processed": res.urls_processed,
            "docs_written": res.docs_written,
            "seen_set_size": res.seen_set_size,
            "histogram": res.histogram,
            "elapsed_sec": round(res.elapsed_sec, 3),
            "urls_per_sec": round(res.throughput, 1)}), flush=True)
        return 0
    finally:
        ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
