"""The benchmark's checks must reject doctored outputs.

Run with ``python -m pytest perfbench/test_checks.py -q`` from the
repository root. No Ray session is needed.
"""

from __future__ import annotations

import json
import os

import pandas as pd
import pyarrow as pa

from perfbench.checks import (COMPLETED, FAILED, budget_violations,
                              check_crawl, check_frontier, check_query,
                              cuckoo_fp_allowance)

REPLAY = {f"http://h{i % 3}.example/p{i:06x}" for i in range(20)}


def _doc_id(url: str) -> str:
    return "d-" + url[-6:]


def _docs(urls):
    urls = sorted(urls)
    return pa.table({"doc_id": [_doc_id(u) for u in urls], "url": urls})


def _crawl(docs, docs_written=None, hist=None):
    n = docs.num_rows if docs_written is None else docs_written
    hist = hist or {"initial": 0, "running": 0, "completed": n, "failed": 0}
    return check_crawl(docs, docs_written=n, histogram=hist,
                       replay_completed=REPLAY, allowance=0)


def test_crawl_accepts_the_replay():
    assert _crawl(_docs(REPLAY)) == []


def test_crawl_rejects_a_dropped_document():
    docs = _docs(REPLAY)
    dropped = docs.slice(1)
    # the engine said it wrote every document, the table lost one
    assert _crawl(dropped, docs_written=docs.num_rows)


def test_crawl_rejects_a_duplicated_document():
    docs = _docs(REPLAY)
    doubled = pa.concat_tables([docs, docs.slice(0, 1)])
    assert _crawl(doubled, docs_written=docs.num_rows)
    assert any("duplicated" in m for m in _crawl(doubled))


def test_crawl_rejects_a_url_outside_the_replay():
    urls = set(REPLAY)
    urls.remove(sorted(urls)[0])
    urls.add("http://h9.example/pffffff")
    assert any("outside the replay" in m for m in _crawl(_docs(urls)))


def test_crawl_rejects_a_shortfall_beyond_the_allowance():
    urls = sorted(REPLAY)[:-2]
    assert any("missing" in m for m in _crawl(_docs(urls)))


def test_crawl_rejects_an_undrained_frontier():
    docs = _docs(REPLAY)
    hist = {"initial": 1, "running": 0, "completed": docs.num_rows,
            "failed": 0}
    assert _crawl(docs, hist=hist)


def test_fp_allowance_is_small_and_grows_with_load():
    small = cuckoo_fp_allowance(4_000, 2)
    big = cuckoo_fp_allowance(2_000_000, 2)
    assert 0 <= small <= 3
    assert big > small


def _frontier_case():
    """Two hosts, rate 1/s, burst 2: a clean drained pass."""
    urls = ["http://a.example/p1", "http://a.example/p2",
            "http://a.example/p3", "http://b.example/p1",
            "http://b.example/p2"]
    denied = {"http://b.example/p2"}
    items = {"enqueue_seq": [0, 1, 2, 3, 4], "url": urls,
             "status": [COMPLETED, COMPLETED, COMPLETED, COMPLETED, FAILED],
             "error": ["", "", "", "", "robots_disallowed"],
             "attempts": [1, 1, 1, 1, 0]}
    claims = [(0.0, "a.example"), (0.0, "a.example"), (0.0, "b.example"),
              (1.0, "a.example")]
    hist = {"initial": 0, "running": 0, "completed": 4, "failed": 1}
    kwargs = dict(submitted=set(urls), items=items,
                  committed_seqs=[0, 1, 3, 2], robots_denied=denied,
                  robots_denied_counter=1, claims=claims, rate=1.0,
                  burst=2.0, hist_before={"initial": 1},
                  hist_after={"initial": 1}, final_hist=hist, allowance=0)
    return kwargs


def test_frontier_accepts_a_clean_pass():
    assert check_frontier(**_frontier_case()) == []


def test_frontier_rejects_a_host_claimed_over_budget():
    kw = _frontier_case()
    kw["claims"] = kw["claims"] + [(0.0, "a.example")]
    assert any("budget" in m for m in check_frontier(**kw))


def test_budget_window_spans_several_rounds():
    # burst 2 + rate 1: three claims at t=0..1 is fine, five are not
    ok = [(0.0, "h"), (0.0, "h"), (1.0, "h")]
    assert budget_violations(ok, 1.0, 2.0) == []
    assert budget_violations(ok + [(1.0, "h"), (1.0, "h")], 1.0, 2.0)


def test_frontier_rejects_an_item_leased_twice():
    kw = _frontier_case()
    kw["committed_seqs"] = kw["committed_seqs"] + [0]
    kw["items"]["attempts"] = [2, 1, 1, 1, 0]
    assert check_frontier(**kw)


def test_frontier_rejects_a_robots_mismatch():
    kw = _frontier_case()
    kw["robots_denied"] = {"http://a.example/p1"}
    assert check_frontier(**kw)


def test_frontier_rejects_a_histogram_changed_by_restore():
    kw = _frontier_case()
    kw["hist_after"] = {"initial": 2}
    assert any("checkpoint" in m for m in check_frontier(**kw))


def _oracle():
    return pd.DataFrame({"k": pd.array([1, 2, 3], dtype="int64"),
                         "v": pd.array([10, 20, 30], dtype="int64")})


def test_query_accepts_the_oracle_in_any_row_order():
    got = _oracle().iloc[::-1][["v", "k"]]
    assert check_query(got, _oracle()) == []


def test_query_rejects_one_changed_value():
    got = _oracle()
    got.loc[1, "v"] = 21
    assert check_query(got, _oracle())


def test_query_rejects_a_drifted_dtype():
    got = _oracle().astype({"v": "float64"})
    assert check_query(got, _oracle())


def test_query_rejects_a_missing_row():
    assert check_query(_oracle().iloc[:2], _oracle())


def test_benchmark_json_names_the_metrics_the_command_prints():
    from perfbench.layers import LAYERS
    from perfbench.run import END_TO_END, ROOT, WORKLOADS
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == LAYERS
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
