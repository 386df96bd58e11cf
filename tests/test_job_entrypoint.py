"""`python -m crawling_infrastructure_ray.job` — the `ray job submit`
entrypoint (north rule: run via ray job submit). Runs in a fresh
subprocess that owns its own Ray session, like the job server would."""

import json
import os
import pickle
import subprocess
import sys

from crawling_infrastructure_ray.job import build_parser, crawl_options


def _run(args, timeout=240):
    env = dict(os.environ, RAY_ADDRESS="local")
    out = subprocess.run(
        [sys.executable, "-m", "crawling_infrastructure_ray.job", *args],
        capture_output=True, text=True, timeout=timeout, env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])

def test_job_submit_smoke_and_resume(tmp_path):
    out_dir = str(tmp_path / "job_run")
    m = _run(["--synthetic-seeds", "300", "--out", out_dir,
              "--num-cpus", "4", "--shards", "2", "--max-depth", "1",
              "--chunk-size", "128", "--checkpoint-every", "1"])
    assert m["docs_written"] > 0 and m["urls_processed"] >= 300
    assert m["histogram"].get("completed", 0) > 0
    assert os.path.isdir(os.path.join(out_dir, "documents"))
    assert os.path.exists(os.path.join(out_dir, "ckpt", "frontier.pkl"))

    # resume against the finished run's checkpoint: the frontier is
    # drained, so the job exits cleanly with no new work and the
    # documents table is untouched (no double-count)
    m2 = _run(["--out", out_dir, "--resume", "--num-cpus", "4"])
    assert m2["urls_processed"] == 0
    assert m2["docs_written"] == 0

def test_job_flags_reach_frontier_and_job_config(tmp_path):
    """Every crawl-shaping flag lands on the ``Frontier`` the job builds
    (read back from its checkpoint's shard control state) or on its
    ``JobConfig``."""
    flags = ["--order", "priority", "--politeness", "--robots",
             "--rate", "50", "--burst", "8", "--storage-policy", "itemwise"]
    out_dir = str(tmp_path / "flags")
    _, config = crawl_options(build_parser().parse_args(
        ["--out", out_dir, *flags]))
    assert config.storage_policy == "itemwise"
    m = _run(["--synthetic-seeds", "60", "--out", out_dir, "--num-cpus", "2",
              "--shards", "2", "--max-depth", "0", "--checkpoint-every", "1",
              *flags])
    assert m["urls_processed"] > 0
    with open(os.path.join(out_dir, "ckpt", "shard_0000", "control.pkl"),
              "rb") as f:
        ctrl = pickle.load(f)
    assert ctrl["order"] == "priority"
    assert ctrl["politeness"]["default_rate"] == 50.0
    assert ctrl["politeness"]["default_burst"] == 8.0
    assert ctrl["robots"] is not None
    with open(os.path.join(out_dir, "ckpt", "frontier.pkl"), "rb") as f:
        assert pickle.load(f)["num_shards"] == 2


def test_job_submit_requires_seed_source(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "crawling_infrastructure_ray.job",
         "--out", str(tmp_path / "x")],
        capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
