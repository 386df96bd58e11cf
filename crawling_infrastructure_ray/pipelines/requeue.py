"""Enqueue-check requeue (reference M6, queue.service.ts:106-180).

The reference applies a user predicate ``check(item_id, inflated
result) -> bool`` to every stored blob and resets matching items to
``initial`` in batches of 1000 so they are re-crawled. Here the
predicate is a VECTORIZED function over documents batches
(``pa.Table -> pa.BooleanArray``), streamed with ``iter_batches``;
matching ``enqueue_seq``s are routed back to their frontier shards by
``shard_of_hosts`` (the same routing as enqueue — no broadcast scan of
shards).
"""

from __future__ import annotations

import ray
import ray.data as rd

from ..state.frontier import Frontier, by_shard, shard_of_hosts

REQUEUE_BATCH = 1000  # reference batch size (queue.service.ts:150)


def requeue_matching(frontier: Frontier, docs: rd.Dataset, predicate,
                     reset_retries: bool = True,
                     batch_size: int = 8192) -> int:
    """Reset every document whose batch-predicate is True back to
    INITIAL in its frontier shard. Returns number requeued."""
    per_shard: dict[int, list[int]] = {}
    for batch in docs.iter_batches(batch_size=batch_size,
                                   batch_format="pyarrow"):
        mask = predicate(batch)
        hit = batch.filter(mask)
        seqs = hit["enqueue_seq"].to_numpy()
        shard = shard_of_hosts(hit["host"], frontier.seed,
                               frontier.num_shards)
        for sh, idx in by_shard(shard):
            per_shard.setdefault(sh, []).extend(seqs[idx].tolist())
    total = 0
    refs = []
    for sh, seqs in per_shard.items():
        for i in range(0, len(seqs), REQUEUE_BATCH):
            refs.append(frontier.shards[sh].requeue_seqs.remote(
                seqs[i:i + REQUEUE_BATCH], reset_retries))
    for n in ray.get(refs):
        total += n
    return total
