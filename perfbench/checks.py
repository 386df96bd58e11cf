"""Correctness checks for the three workloads.

Each check compares the engine's output with a computation made apart
from the engine (a DuckDB replay, the registry's oracle SQL) or with a
property the method must have. A check returns the list of problems it
found; an empty list means the output is correct. The checks take plain
Python and Arrow/pandas values, so they are tested without Ray
(``perfbench/test_checks.py``).
"""

from __future__ import annotations

import hashlib
import math
from collections import defaultdict

# frontier item states (state/frontier.py)
COMPLETED, FAILED = 2, 3


def cuckoo_fp_allowance(n_keys: int, num_shards: int,
                        capacity: int = 1 << 20, slots: int = 4,
                        fp_values: int = 65535,
                        tail: float = 1e-9) -> int:
    """Most URLs a seen filter may wrongly reject as duplicates.

    A lookup of a new key compares its 16-bit fingerprint with the
    occupied slots of two buckets; with k keys stored in ``nb`` buckets
    that is about 2k/nb slots, each matching with probability
    1/fp_values. Summed over n inserts the expected number of false
    positives is n²/(nb·fp_values) per shard. Every shard is charged
    the whole key count (host skew can put most keys on one shard),
    and the allowance is the smallest count that a Poisson variable of
    that mean exceeds with probability below ``tail``."""
    nb = 1
    while nb * slots < capacity * 1.05:   # CuckooFilter's bucket count
        nb <<= 1
    lam = num_shards * n_keys * n_keys / (nb * fp_values)
    a, term = 0, math.exp(-lam)
    cdf = term
    while 1.0 - cdf > tail:
        a += 1
        term *= lam / a
        cdf += term
    return a


def check_crawl(docs, *, docs_written: int, histogram: dict,
                replay_completed: set, allowance: int) -> list[str]:
    """Documents table of one pump run against the DuckDB replay of the
    crawl universe. ``docs`` is an Arrow table with ``doc_id`` and
    ``url``; ``replay_completed`` the URLs the replay completes."""
    problems = []
    ids = docs["doc_id"].to_pylist()
    urls = docs["url"].to_pylist()
    if len(set(ids)) != len(ids):
        problems.append(f"{len(ids) - len(set(ids))} duplicated doc_id")
    outside = set(urls) - replay_completed
    if outside:
        problems.append(f"{len(outside)} document URLs outside the replay, "
                        f"e.g. {sorted(outside)[0]}")
    if docs_written != len(ids):
        problems.append(f"docs_written {docs_written} != {len(ids)} rows")
    if histogram.get("completed") != docs_written:
        problems.append(f"histogram completed {histogram.get('completed')} "
                        f"!= docs_written {docs_written}")
    if histogram.get("initial") or histogram.get("running"):
        problems.append(f"frontier not drained: {histogram}")
    shortfall = len(replay_completed) - len(set(urls) & replay_completed)
    if shortfall > allowance:
        problems.append(f"{shortfall} replay URLs missing, more than the "
                        f"seen filter's false-positive allowance {allowance}")
    return problems


def budget_violations(claims: list, rate: float, burst: float) -> list[str]:
    """Hosts granted more claims in some virtual interval [t_i, t_j]
    than ``burst + rate * (t_j - t_i)``. ``claims`` is a list of
    (virtual time, host) pairs, one per claimed item."""
    per_host: dict[str, dict[float, int]] = defaultdict(dict)
    for t, host in claims:
        d = per_host[host]
        d[t] = d.get(t, 0) + 1
    bad = []
    for host, by_t in per_host.items():
        # max over i <= j of (P_j - P_{i-1}) - rate*(t_j - t_i), with
        # P the running claim count: keep min over i of P_{i-1} - rate*t_i
        best_start = math.inf
        prefix = 0
        for t in sorted(by_t):
            best_start = min(best_start, prefix - rate * t)
            prefix += by_t[t]
            excess = prefix - rate * t - best_start
            if excess > burst + 1e-9:
                bad.append(f"host {host} got {excess:.0f} claims over its "
                           f"budget window ending at t={t}")
                break
    return bad


def check_frontier(*, submitted: set, items: dict, committed_seqs: list,
                   robots_denied: set, robots_denied_counter: int,
                   claims: list, rate: float, burst: float,
                   hist_before: dict, hist_after: dict, final_hist: dict,
                   allowance: int) -> list[str]:
    """Queue-service properties of one frontier pass.

    ``submitted``: distinct canonical URLs submitted. ``items``: the
    final item table (``Frontier.dump_table`` as a column dict).
    ``committed_seqs``: every seq the driver leased and committed.
    ``robots_denied``: URLs the DuckDB robots replay disallows.
    ``claims``: (virtual time, host) per claimed item."""
    problems = []
    urls = items["url"]
    inserted = set(urls)
    if len(inserted) != len(urls):
        problems.append(f"{len(urls) - len(inserted)} URLs inserted twice")
    if inserted - submitted:
        problems.append(f"{len(inserted - submitted)} items never submitted")
    shortfall = len(submitted - inserted)
    if shortfall > allowance:
        problems.append(f"{shortfall} distinct URLs not inserted, more than "
                        f"the seen filter's allowance {allowance}")
    n_denied = 0
    for url, st, err, att in zip(urls, items["status"], items["error"],
                                 items["attempts"]):
        if url in robots_denied:
            n_denied += 1
            if st != FAILED or err != "robots_disallowed" or att != 0:
                problems.append(f"{url}: robots replay denies it, engine "
                                f"left status={st} error={err!r} "
                                f"attempts={att}")
                break
        elif st != COMPLETED or att != 1:
            problems.append(f"{url}: expected leased and committed once, "
                            f"got status={st} attempts={att}")
            break
    if robots_denied_counter != n_denied:
        problems.append(f"robots_denied counter {robots_denied_counter} != "
                        f"replay {n_denied}")
    if len(set(committed_seqs)) != len(committed_seqs):
        problems.append(f"{len(committed_seqs) - len(set(committed_seqs))} "
                        f"items leased more than once")
    completed = {s for s, st in zip(items["enqueue_seq"], items["status"])
                 if st == COMPLETED}
    if set(committed_seqs) != completed:
        problems.append("committed seqs differ from the completed items")
    if final_hist.get("initial") or final_hist.get("running"):
        problems.append(f"frontier not drained: {final_hist}")
    if hist_after != hist_before:
        problems.append(f"histogram changed across checkpoint/restore: "
                        f"{hist_before} -> {hist_after}")
    problems += budget_violations(claims, rate, burst)
    return problems


def normalise(df):
    """Columns sorted by name, rows sorted by every column."""
    import pandas as pd
    df = pd.DataFrame(df)
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def strict_hash(df) -> str:
    """Hash of the values rendered as strings: an int64 column that
    drifts to float64 changes the hash even when the numbers match
    (the rule of ``tools/strict_mirror.py``)."""
    import pandas as pd
    return hashlib.md5(pd.util.hash_pandas_object(
        df.astype(str), index=False).values.tobytes()).hexdigest()


def check_query(got, want) -> list[str]:
    """One registry query result against its oracle-SQL result."""
    got, want = normalise(got), normalise(want)
    if list(got.columns) != list(want.columns):
        return [f"columns {list(got.columns)} != {list(want.columns)}"]
    if len(got) != len(want):
        return [f"{len(got)} rows != {len(want)}"]
    if strict_hash(got) != strict_hash(want):
        return ["values or dtypes differ from the oracle"]
    return []
