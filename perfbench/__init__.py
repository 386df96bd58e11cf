"""Benchmark for the crawl engine: three workloads, one command.

Run ``python3 perfbench/run.py --workload <crawl|frontier|queries>
--seed <n> --seconds <s> --trace <0|1>`` from the repository root; see
``perfbench/README.md``.
"""
