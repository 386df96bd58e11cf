"""FetchSim — the simulated fetch/render stage (reference M1/M2).

The reference's fetch is a user-supplied ``crawl(item)`` UDF run
sequentially per lease inside a Lambda/docker worker
(crawler/src/handler.ts:83-189) holding per-worker state: a configured
HTTP client or a headless browser, proxy rotation counters, seeded
jitter (A1/A2/A4). Here ``FetchSim`` is a callable class holding that
state (RNG, session counters, proxy claim) with per-batch work in
``__call__``. The crawl drivers run it inside ``fetch_store_batch``,
one lease per raw Ray task (``pipelines.crawl``); ``fetch_sim_batch``
is its stateless form for ``map_batches`` tasks (``direct_crawl``).

The sandbox has no network, so fetching is a deterministic pure
function of (seed, url, attempt) — ``sources.corpus.fetch_outcome`` —
producing interleaved text+media span documents
(``sources.corpus.make_spans``) and discovered out-links
(``link_children``), which the crawl driver routes back to the
frontier (reference worker-side enqueue, crawler/src/enqueue.ts:71-116).

Output schema adds to the input columns:
  status: string ('completed'|'failed'|'blocked'), error: string,
  latency_ms: int32, doc_id: string, spans: list<struct<...>> (F1),
  discovered: list<string>.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.scalars import seeded_rng
from ..sources.corpus import (doc_id_for_url, fetch_outcome, link_children,
                              make_spans, spans_arrow_type)

# one crawled document per row: what fetch_store_batch writes to each
# ``documents/part-*.parquet`` fragment
DOCS_SCHEMA = pa.schema([
    ("doc_id", pa.string()),
    ("url", pa.string()),
    ("host", pa.string()),
    ("depth", pa.int32()),
    ("enqueue_seq", pa.uint64()),
    ("url_hash_part", pa.uint16()),  # explicit hash partition key (north rule)
    ("wave", pa.int32()),
    ("simhash", pa.uint64()),        # signature-at-ingest (near-dup input)
    ("spans", spans_arrow_type()),
])


def fetch_sim_batch(batch: pa.Table, *, seed: int = 42, max_depth: int = 2,
                    num_hosts: int = 64) -> pa.Table:
    """Stateless-function form of FetchSim for ``map_batches`` TASKS.

    The simulated fetch holds no session state, so the cheap/elastic
    task form avoids actor-pool startup. A real network fetcher holds a
    session/browser → use the FetchSim actor class instead (A1/A2).
    """
    return FetchSim(seed=seed, max_depth=max_depth, num_hosts=num_hosts)(batch)


def fetch_store_batch(batch: pa.Table, *, seed: int = 42, max_depth: int = 2,
                      num_hosts: int = 64, docs_dir: str = "",
                      wave: int = 0, part_label: str = "",
                      storage_policy: str = "merged",
                      fail_marker: str = "",
                      fail_after_store_marker: str = "",
                      store_fail_marker: str = "") -> pa.Table:
    """Fetch + SINK in one task: write this batch's completed documents
    (the heavy span payload) as a parquet fragment from inside the
    worker, return only the small control columns to the driver.

    This is the scale-critical shape (each reference worker uploads its
    own results, crawler/src/index.ts:220-276): the driver never holds
    span payloads, only (seq, status, error, discovered). The fragment
    is ``docs_dir/part-{part_label}.parquet`` with ``DOCS_SCHEMA``
    (control columns, ingest simhash, spans); the crawl drivers label
    it with the lease id, which is unique and survives a checkpoint,
    so resumed runs reproduce the identical file set. Write happens
    BEFORE the control rows are returned (commit-after-store,
    reference R7).

    ``storage_policy`` selects the reference's failure granularity
    (lib/types/common.ts:18-23; consumed from ``JobConfig``):
      'merged'   (K2, crawler/src/index.ts:224-243) — one consolidated
                 fragment per lease/worker, ALL-OR-NOTHING: a storage
                 failure raises before anything is written, the caller
                 rolls back the ENTIRE lease to initial.
      'itemwise' (K1, crawler/src/index.ts:244-273) — per-item failure
                 granularity: an item whose store fails is EXCLUDED
                 from the fragment and returned with status
                 'storage_failed'; the caller omits it from the commit
                 so it rolls back to initial ALONE (R5/R7 — the
                 reference resets just that item, index.ts:265-268)
                 without consuming a retry. Layout note: rows are still
                 batched into one parquet fragment (the columnar analog
                 of per-item S3 objects; one FILE per item would be a
                 filesystem anti-pattern at 10^10 scale).
    ``store_fail_marker`` injects a simulated storage failure for
    matching URLs on their first attempt (tests).
    """
    from .dedup import simhash64_batch
    from .text import span_text

    if fail_marker and any(fail_marker in u for u in batch["url"].to_pylist()):
        # fault-injection hook (tests): simulates a worker crash mid-lease
        raise RuntimeError(f"injected worker crash (marker={fail_marker!r})")
    fetched = FetchSim(seed=seed, max_depth=max_depth, num_hosts=num_hosts)(batch)
    if store_fail_marker:
        # simulated storage failure (first attempt only, so the retry
        # succeeds): merged → all-or-nothing abort; itemwise → demote
        # just the affected rows to 'storage_failed'
        urls = fetched["url"].to_pylist()
        sts = fetched["status"].to_pylist()
        atts = (fetched["attempt"].to_pylist()
                if "attempt" in fetched.column_names else [0] * len(urls))
        hit = [store_fail_marker in u and s == "completed" and a == 0
               for u, s, a in zip(urls, sts, atts)]
        if any(hit):
            if storage_policy == "merged":
                # one blob per worker, all-or-nothing: the reference
                # CATCHES the upload error and resets EVERY lease item
                # to initial (index.ts:237-243) — mirror by demoting
                # the whole batch so nothing is written or reported
                new_status = pa.array(["storage_failed"] * len(sts),
                                      pa.string())
            else:
                new_status = pa.array(
                    ["storage_failed" if h else s for h, s in zip(hit, sts)],
                    pa.string())
            fetched = fetched.set_column(
                fetched.column_names.index("status"), "status", new_status)
    ok = fetched.filter(pa.compute.equal(fetched["status"], "completed"))
    if ok.num_rows and docs_dir:
        from ..functions.hashing import stable_hash64_col_np
        part_col = pa.array(
            (stable_hash64_col_np(ok["url"], seed)
             % np.uint64(1024)).astype(np.uint16), pa.uint16())
        # signature-at-ingest: the per-doc simhash the near-dup stages
        # read, computed where the text already is. No winnowing
        # fingerprint is stored: a reader that wants one derives it from
        # ``spans`` (stages.text.span_text, then the hashing kernel)
        simhashes = pa.array(simhash64_batch(span_text(ok["spans"]), seed),
                             pa.uint64())
        doc_tbl = pa.table({
            "doc_id": ok["doc_id"], "url": ok["url"], "host": ok["host"],
            "depth": ok["depth"], "enqueue_seq": ok["enqueue_seq"],
            "url_hash_part": part_col,
            "wave": pa.array([wave] * ok.num_rows, pa.int32()),
            "simhash": simhashes,
            "spans": ok["spans"],
        }, schema=DOCS_SCHEMA)
        from ..sources.storage import write_fragment
        write_fragment(doc_tbl, docs_dir, f"part-{part_label}")
    if fail_after_store_marker and "attempt" in batch.column_names \
            and any(fail_after_store_marker in u for u in batch["url"].to_pylist()) \
            and min(batch["attempt"].to_pylist() or [1]) == 0:
        # fault-injection hook (tests): worker dies AFTER the fragment
        # write but BEFORE the commit — first attempt only, so the
        # re-leased retry succeeds and would double-count unless the
        # rollback path deletes the orphan fragment
        raise RuntimeError(
            f"injected post-store crash (marker={fail_after_store_marker!r})")
    return fetched.select(["enqueue_seq", "depth", "shard", "lease_id",
                           "status", "error", "discovered"])


class FetchSim:
    def __init__(self, seed: int = 42, max_depth: int = 2, num_hosts: int = 64,
                 simulate_latency: bool = False, proxy_pool=None,
                 proxy_change_every: int = 50, randomize: bool = False):
        # once-per-actor setup (reference setup(), crawler/src/worker.ts:231-260)
        self.seed = seed
        self.max_depth = max_depth
        self.num_hosts = num_hosts
        self.simulate_latency = simulate_latency
        self.rng = seeded_rng(seed, "fetchsim")
        self.session_fetches = 0  # A4-style per-worker counter
        # A4 proxy rotation (crawler/src/worker.ts:333-400): claim a
        # proxy from the pool actor every ``proxy_change_every`` fetches
        self.proxy_pool = proxy_pool
        self.proxy_change_every = proxy_change_every
        self.current_proxy = None
        # M8: per-URL UA/locale/viewport draws (reference picks them
        # per crawl, crawler/src/worker.ts:264-305 via helpers.ts:28-59;
        # maps to CrawlOptions.random_user_agent/random_accept_language)
        self.randomize = randomize

    def _maybe_rotate_proxy(self, n_fetches: int) -> None:
        if self.proxy_pool is None:
            return
        import ray as _ray
        before = self.session_fetches // self.proxy_change_every
        after = (self.session_fetches + n_fetches) // self.proxy_change_every
        if self.current_proxy is None or after > before:
            self.current_proxy = _ray.get(self.proxy_pool.claim.remote())

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        self._maybe_rotate_proxy(len(urls))
        depths = batch["depth"].to_pylist() if "depth" in batch.column_names else [0] * len(urls)
        if "attempt" in batch.column_names:
            attempts = batch["attempt"].to_pylist()
        elif "retries" in batch.column_names:
            attempts = batch["retries"].to_pylist()
        else:
            attempts = [0] * len(urls)
        n = len(urls)
        status = np.empty(n, dtype=object)
        error = np.empty(n, dtype=object)
        latency = np.empty(n, dtype=np.int32)
        doc_ids = np.empty(n, dtype=object)
        spans: list = [None] * n
        discovered: list = [None] * n
        for i, (url, depth, attempt) in enumerate(zip(urls, depths, attempts)):
            out = fetch_outcome(url, attempt, self.seed)
            status[i] = out["status"]
            error[i] = out["error"]
            latency[i] = out["latency_ms"]
            if out["status"] == "completed":
                doc_ids[i] = doc_id_for_url(url)
                spans[i] = make_spans(url, self.seed)
                discovered[i] = link_children(url, depth, self.seed,
                                              self.max_depth, self.num_hosts)
            else:
                doc_ids[i] = ""
                spans[i] = []
                discovered[i] = []
        self.session_fetches += n
        if self.simulate_latency:
            # politeness-envelope simulation: sleep the max per-host
            # deterministic latency (kept off in bench; on in timing tests)
            import time
            time.sleep(float(latency.max()) / 1000.0)
        cols = {name: batch[name] for name in batch.column_names}
        cols["status"] = pa.array(status, pa.string())
        cols["error"] = pa.array(error, pa.string())
        cols["latency_ms"] = pa.array(latency)
        cols["doc_id"] = pa.array(doc_ids, pa.string())
        cols["spans"] = pa.array(spans, spans_arrow_type())
        cols["discovered"] = pa.array(discovered, pa.list_(pa.string()))
        out = pa.table(cols)
        if self.randomize:
            from ..functions.randomizers import randomize_batch
            out = randomize_batch(out, seed=self.seed)
        return out
