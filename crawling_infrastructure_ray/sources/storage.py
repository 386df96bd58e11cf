"""Documents-table storage layer (Lance per the north rule; parquet as
the environment-forced substitution).

BASELINE.json's north rule specifies "writing Lance tables ...
read_lance". This container has NO lance/pylance package and installs
are forbidden, so every table is written as hash-partitioned parquet
fragments instead — the same columnar, fragment-per-commit, resumable
layout Lance would give us (one fragment per lease/wave, atomic
tmp+rename writes, partition column ``url_hash_part``). This module is
the single seam where the substitution lives: the backend resolves to
``"lance"`` automatically when the package is importable, and
everything above it (`fetch_store_batch` fragments,
``read_documents``) goes through these helpers, so restoring the Lance
backend on a real cluster is a dependency change, not a refactor.

The substitution is also documented in README.md ("Storage backend")
and SURVEY.md §1.7.
"""

from __future__ import annotations

import os
import tempfile

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from ..functions.bucketing import shuffle_partitions

try:  # pragma: no cover - lance is absent in this container
    import lance  # type: ignore

    _HAS_LANCE = True
except ImportError:
    lance = None
    _HAS_LANCE = False

DEFAULT_BACKEND = "lance" if _HAS_LANCE else "parquet"


def backend_available(backend: str) -> bool:
    return backend == "parquet" or (backend == "lance" and _HAS_LANCE)


def write_fragment(tbl: pa.Table, out_dir: str, name: str,
                   backend: str | None = None) -> str:
    """Atomically write one fragment of a table.

    parquet: tmp-file + rename (crash-safe — a killed writer leaves no
    partial fragment visible); lance: append-mode ``write_dataset``
    (fragment commit is atomic in the Lance manifest).
    Returns the fragment path.
    """
    backend = backend or DEFAULT_BACKEND
    os.makedirs(out_dir, exist_ok=True)
    if backend == "lance":  # pragma: no cover - env-blocked
        lance.write_dataset(tbl, out_dir, mode="append")
        return out_dir
    path = os.path.join(out_dir, f"{name}.parquet")
    fd, tmp = tempfile.mkstemp(dir=out_dir, suffix=".tmp")
    os.close(fd)
    pq.write_table(tbl, tmp, compression="snappy")
    os.replace(tmp, path)
    return path


def read_dataset(path: str, backend: str | None = None, *,
                 columns: list[str] | None = None) -> rd.Dataset:
    """The stored table as a streaming ``ray.data.Dataset`` of
    ``shuffle_partitions()`` blocks, one per CPU."""
    backend = backend or DEFAULT_BACKEND
    n = shuffle_partitions()
    if backend == "lance":  # pragma: no cover - env-blocked
        return rd.read_lance(path, columns=columns, override_num_blocks=n)
    return rd.read_parquet(path, columns=columns, override_num_blocks=n)


def export_partitioned_resumable(ds: rd.Dataset, out_root: str,
                                 partition_col: str,
                                 backend: str | None = None):
    """Resumable partitioned export: one ``<col>=<value>`` directory
    per partition value, each committed with an atomic fragment write
    followed by a ``_SUCCESS`` marker (tmp+rename). Re-running SKIPS
    partitions whose marker exists — a failed run resumes by paying
    only the unfinished partitions (the brief's resumable-output
    contract; the crawl's manifest/ckpt resume is the streaming twin).

    Partitioning assumption: ``partition_col`` has a config-sized
    value domain (shards, hash buckets, date buckets) and one
    partition's rows fit a worker — each group is written by one
    ``map_groups`` call. Readers get the partition column back for
    free via hive discovery (pyarrow ignores ``_``-prefixed files).

    Returns (summary DataFrame [partition value, n_rows] for
    partitions WRITTEN this run, sorted list of SKIPPED values)."""
    import pandas as pd

    os.makedirs(out_root, exist_ok=True)
    done_vals = sorted(
        d.split("=", 1)[1] for d in os.listdir(out_root)
        if "=" in d and os.path.exists(os.path.join(out_root, d, "_SUCCESS")))

    def drop_done(batch: pa.Table) -> pa.Table:
        if not done_vals:
            return batch
        import pyarrow.compute as pc
        vals = pc.cast(batch[partition_col], pa.string())
        return batch.filter(
            pc.invert(pc.is_in(vals, value_set=pa.array(done_vals))))

    def write_group(g: "pd.DataFrame") -> "pd.DataFrame":
        v = g[partition_col].iloc[0]
        pdir = os.path.join(out_root, f"{partition_col}={v}")
        # the partition value lives in the directory name (hive); the
        # data files carry the remaining columns
        tbl = pa.Table.from_pandas(g.drop(columns=[partition_col]),
                                   preserve_index=False)
        write_fragment(tbl, pdir, "part-0", backend=backend)
        fd, tmp = tempfile.mkstemp(dir=pdir, suffix=".marker")
        os.close(fd)
        os.replace(tmp, os.path.join(pdir, "_SUCCESS"))
        return pd.DataFrame({partition_col: [v], "n_rows": [len(g)]})

    summary = (ds.map_batches(drop_done, batch_format="pyarrow")
               .groupby(partition_col)
               .map_groups(write_group, batch_format="pandas")
               .to_pandas())
    return summary, done_vals
