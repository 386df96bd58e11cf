"""Input readers (reference S1-S6 ingest surface, SURVEY.md §2.1).

``read_table`` is the standard entry: parquet with column pruning
(prune at the read — only requested columns leave storage), read by
``storage.scan_parquet`` into ``shuffle_partitions()`` blocks, one per
CPU.
``read_local`` reads a small table on the driver, with no Ray Data
execution: broadcast join sides, config-sized dimensions and
predicate-pruned lookups.
``read_items_file`` replaces the reference's hand-rolled 5 MB chunked
newline reader (lib/misc/helpers.ts:49-94 chunkRead) with
``ray.data.read_text``, which chunks into blocks natively and streams.
"""

from __future__ import annotations

import os

import pandas as pd
import ray.data as rd

from .storage import scan_parquet


def read_table(sf_dir: str, name: str,
               columns: list[str] | None = None) -> rd.Dataset:
    """Read one synthetic table with column pruning pushed to the scan,
    as wide as the session: ``storage.scan_parquet`` plans
    ``shuffle_partitions()`` tasks of whole row groups from the footer."""
    return scan_parquet(os.path.join(sf_dir, f"{name}.parquet"), columns)


def read_local(sf_dir: str, name: str, columns: list[str] | None = None,
               filters: list | None = None) -> pd.DataFrame:
    """One synthetic table (or the row groups ``filters`` keeps) read
    straight into driver memory with pyarrow. For sides that are small
    by construction: a Ray Data read would cost a whole execution
    (tens of milliseconds of scheduling) to move a few kilobytes."""
    import pyarrow.parquet as pq
    return pq.read_table(os.path.join(sf_dir, f"{name}.parquet"),
                         columns=columns, filters=filters).to_pandas()


def read_items_file(path: str, chunk_bytes: int = 5 << 20) -> rd.Dataset:
    """Newline-delimited items file → Dataset of
    {'item', 'chunk_start', 'line_idx'}.

    Reference: chunkRead splits 5 MB chunks on newlines and carries the
    partial tail line across chunks (lib/misc/helpers.ts:49-94). This
    is the same design made Ray-parallel: byte ranges are computed on
    the driver, each range is read + line-split in its own task
    (a chunk OWNS a line iff the line STARTS inside it — the first
    partial line belongs to the previous chunk, the last line is read
    past the range end to completion), and every row carries explicit
    ORDER KEYS: file order == lexicographic (chunk_start, line_idx).

    Why explicit keys instead of ray.data.read_text: the streaming
    executor does NOT guarantee output-block order (take_all can
    interleave blocks under load — observed on this VM), and S2's
    contract is file order. Data-carried order survives any execution
    order; ``strict_items(ds)`` restores it. Gzip is a single
    sequential stream (no splittable ranges), so .gz reads as one
    chunk (reference S3 gunzips whole downloads the same way,
    crawltask.service.ts:1039-1067)."""
    import gzip

    import pyarrow as pa

    gz = path.endswith(".gz")
    if gz:
        ranges = [(0, 0)]                     # sentinel: whole stream
    else:
        size = os.path.getsize(path)
        ranges = [(s, min(s + chunk_bytes, size))
                  for s in range(0, max(size, 1), chunk_bytes)]
    meta = rd.from_items([{"start": s, "end": e} for s, e in ranges])

    def read_chunk(batch: pa.Table) -> pa.Table:
        items, c_start, l_idx = [], [], []
        for s, e in zip(batch["start"].to_pylist(), batch["end"].to_pylist()):
            if gz:
                with gzip.open(path, "rb") as f:
                    data = f.read()
                lines = data.split(b"\n")
                if lines and lines[-1] == b"":
                    lines.pop()
            else:
                with open(path, "rb") as f:
                    if s > 0:
                        # ownership: a chunk owns the lines that START
                        # inside [s, e). A line starts at s iff byte
                        # s-1 is a newline — check it, otherwise the
                        # first partial line belongs to the previous
                        # chunk and is dropped here (it reads past its
                        # end to finish it — tail-carry, helpers.ts:71)
                        f.seek(s - 1)
                        prev = f.read(1)
                        data = f.read(e - s)
                        if prev != b"\n":
                            nl = data.find(b"\n")
                            if nl < 0:
                                continue      # no line STARTS here
                            data = data[nl + 1:]
                    else:
                        data = f.read(e - s)
                    # the last owned line may continue past the range
                    # end: extend to its newline
                    if not data.endswith(b"\n"):
                        tail = f.readline()
                        data += tail
                        if not data:
                            continue
                lines = data.split(b"\n")
                if lines and lines[-1] == b"":
                    lines.pop()
            items.extend(x.decode("utf-8") for x in lines)
            c_start.extend([s] * len(lines))
            l_idx.extend(range(len(lines)))
        return pa.table({"item": pa.array(items, pa.string()),
                         "chunk_start": pa.array(c_start, pa.int64()),
                         "line_idx": pa.array(l_idx, pa.int64())})

    return meta.map_batches(read_chunk, batch_format="pyarrow")


def strict_items(ds: rd.Dataset) -> list[str]:
    """Materialize a read_items_file Dataset in exact FILE ORDER via
    the data-carried keys (small control files; large seed ingest goes
    through the distributed frontier path where enqueue_seq, not read
    order, is the contract)."""
    df = ds.to_pandas().sort_values(["chunk_start", "line_idx"])
    return df["item"].tolist()
