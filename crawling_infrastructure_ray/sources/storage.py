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
Every parquet read in the package, ``readers.read_table`` included, is
``scan_parquet``.

The substitution is also documented in README.md ("Storage backend")
and SURVEY.md §1.7.
"""

from __future__ import annotations

import os
import tempfile
from itertools import groupby

import numpy as np
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
    """The stored table (a fragment directory, a hive tree or one
    file) as a streaming ``ray.data.Dataset`` of ``shuffle_partitions()``
    blocks, one per CPU; parquet goes through ``scan_parquet``."""
    backend = backend or DEFAULT_BACKEND
    if backend == "lance":  # pragma: no cover - env-blocked
        return rd.read_lance(path, columns=columns,
                             override_num_blocks=shuffle_partitions())
    return scan_parquet(path, columns)


def scan_parquet(path: str, columns: list[str] | None = None) -> rd.Dataset:
    """A parquet file or directory read as ``shuffle_partitions()``
    tasks of whole row groups, planned from the footers on the driver.

    Unlike ``rd.read_parquet`` there is no remote sampling task per
    read, and each task yields one table per row group instead of
    10,000-row batches. ``override_num_blocks`` is what keeps the read
    fused with its consumer: left to auto-detect, Ray appends a
    ``SplitBlocks`` stage even on one CPU."""
    return rd.read_datasource(_FooterScan(path, columns),
                              override_num_blocks=shuffle_partitions())


def _parquet_files(path: str) -> list[str]:
    """``path`` itself, or every ``*.parquet`` file under it in path
    order, skipping ``_``/``.``-prefixed names (``_SUCCESS`` markers,
    hidden dirs) the way pyarrow's discovery does."""
    if os.path.isfile(path):
        return [path]
    if not os.path.isdir(path):
        raise FileNotFoundError(path)
    files = []
    for root, dirs, names in os.walk(path):
        dirs[:] = [d for d in dirs if not d.startswith(("_", "."))]
        files += [os.path.join(root, n) for n in names
                  if n.endswith(".parquet") and not n.startswith(("_", "."))]
    if not files:
        raise FileNotFoundError(f"no parquet files under {path}")
    return sorted(files)


def _hive_values(path: str) -> dict[str, str]:
    """Partition values of a file from its ``k=v`` directory names,
    as strings (Ray's ``Partitioning("hive")``)."""
    return dict(d.split("=") for d in os.path.dirname(path).split("/")
                if d.count("=") == 1)


def _read_row_groups(groups: list[tuple[str, list[int]]],
                     data_cols: list[str] | None,
                     columns: list[str] | None):
    """One table per non-empty row group of each ``(file, row group
    indices)``, hive columns appended as strings."""
    for f, rgs in groups:
        pf = pq.ParquetFile(f)
        hive = _hive_values(f)
        for i in rgs:
            tbl = pf.read_row_group(i, columns=data_cols, use_threads=False)
            if tbl.num_rows == 0:
                continue
            for k, v in hive.items():
                if k not in tbl.column_names:
                    tbl = tbl.append_column(
                        k, pa.array([v] * tbl.num_rows, pa.string()))
            yield tbl if columns is None else tbl.select(columns)


class _FooterScan(rd.Datasource):
    """Read tasks of contiguous whole row groups; every task's row
    count, uncompressed size and the schema come from the footers."""

    def __init__(self, path: str, columns: list[str] | None):
        self._files = _parquet_files(path)
        first = pq.ParquetFile(self._files[0])
        self._metas = [first.metadata] + [pq.read_metadata(f)
                                          for f in self._files[1:]]
        schema = first.schema_arrow
        file_cols = set(schema.names)
        for k in _hive_values(self._files[0]):
            if k not in schema.names:
                schema = schema.append(pa.field(k, pa.string()))
        if columns is not None:
            schema = pa.schema([schema.field(c) for c in columns],
                               schema.metadata)
        self._schema = schema
        self._columns = columns
        self._data_cols = None if columns is None else [
            c for c in columns if c in file_cols]

    def _unit_size(self, meta, i: int) -> int:
        rg = meta.row_group(i)
        return sum(rg.column(j).total_uncompressed_size
                   for j in range(rg.num_columns)
                   if self._data_cols is None
                   or rg.column(j).path_in_schema.split(".")[0]
                   in self._data_cols)

    def estimate_inmemory_data_size(self) -> int:
        return sum(self._unit_size(m, i) for m in self._metas
                   for i in range(m.num_row_groups))

    def get_read_tasks(self, parallelism: int) -> list:
        from ray.data.block import BlockMetadata
        from ray.data.datasource import ReadTask

        units = [(f, m, i) for f, m in zip(self._files, self._metas)
                 for i in range(m.num_row_groups)]
        tasks = []
        for group in np.array_split(np.arange(len(units)),
                                    max(1, min(parallelism, len(units)))):
            us = [units[j] for j in group]
            read = [(f, [i for _, _, i in g])
                    for f, g in groupby(us, key=lambda u: u[0])]
            meta = BlockMetadata(
                num_rows=sum(m.row_group(i).num_rows for _, m, i in us),
                size_bytes=sum(self._unit_size(m, i) for _, m, i in us),
                input_files=[f for f, _ in read], exec_stats=None)
            tasks.append(ReadTask(
                lambda read=read, dc=self._data_cols, cols=self._columns:
                _read_row_groups(read, dc, cols),
                meta, schema=self._schema))
        return tasks

    def get_name(self) -> str:
        return "ParquetScan"


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
