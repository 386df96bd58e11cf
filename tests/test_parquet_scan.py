"""``storage.scan_parquet``, the footer-planned read under ``read_table``
and ``read_dataset``, gives what ``rd.read_parquet`` gives: the same
rows, column order and Arrow types, with hive ``k=v`` directories as
string columns. It differs only in how the rows are cut into tasks and
blocks: whole row groups, ``shuffle_partitions()`` tasks."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd

from crawling_infrastructure_ray.sources import storage
from crawling_infrastructure_ray.sources.storage import (read_dataset,
                                                         scan_parquet,
                                                         write_fragment)
from test_queries_oracle import SF


def _table(ds: rd.Dataset) -> pa.Table:
    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def _assert_same(path: str, columns=None, key: str | None = None,
                 ref=None):
    """The scan of ``path`` and ``rd.read_parquet`` of ``ref`` (default
    ``path``) agree on schema (before any task runs for the scan) and
    on every row."""
    want = _table(rd.read_parquet(ref or path, columns=columns))
    ds = scan_parquet(path, columns)
    assert ds.schema(fetch_if_missing=False).base_schema == want.schema
    got = _table(ds)
    assert got.schema == want.schema
    assert got.column_names == want.column_names
    if key is not None:
        got, want = got.sort_by(key), want.sort_by(key)
    assert got.equals(want)
    return got


@pytest.fixture(scope="module")
def docs_dir(tmp_path_factory):
    """A crawl-style ``documents/`` directory: four fragments, plus a
    ``_SUCCESS`` marker, an in-flight ``*.tmp`` write and dot files
    that no reader may take for data (``rd.read_parquet`` of the
    directory fails on the ``*.tmp`` file, so its reference reads the
    fragments by name)."""
    src = pq.read_table(f"{SF}/documents.parquet")
    d = tmp_path_factory.mktemp("scan") / "documents"
    step = -(-src.num_rows // 4)
    for i in range(4):
        write_fragment(src.slice(i * step, step), str(d), f"part-{i}")
    (d / "_SUCCESS").write_bytes(b"")
    (d / "part-9.tmp").write_bytes(b"not parquet")
    (d / ".part-8.parquet").write_bytes(b"not parquet")
    os.makedirs(d / ".hidden")
    (d / ".hidden" / "x.parquet").write_bytes(b"not parquet")
    return str(d), sorted(str(p) for p in d.glob("part-*.parquet"))


@pytest.fixture(scope="module")
def hive_dir(tmp_path_factory):
    """``shard=K/`` directories as ``export_partitioned_resumable``
    writes them: the shard value lives only in the directory name."""
    root = tmp_path_factory.mktemp("hive") / "export"
    for k in range(3):
        tbl = pa.table({"doc_id": pa.array(range(k, 60, 3), pa.int64()),
                        "w": pa.array([float(k)] * 20)})
        write_fragment(tbl, str(root / f"shard={k}"), "part-0")
        (root / f"shard={k}" / "_SUCCESS").write_bytes(b"")
    return str(root)


def test_single_file(ray_session):
    _assert_same(f"{SF}/lineitem.parquet")


def test_single_file_pruned(ray_session):
    got = _assert_same(f"{SF}/lineitem.parquet",
                       ["l_shipdate", "l_orderkey", "l_quantity"])
    assert got.column_names == ["l_shipdate", "l_orderkey", "l_quantity"]


def test_fragment_dir_skips_markers_tmp_and_dot_files(ray_session, docs_dir):
    got = _assert_same(docs_dir[0], key="doc_id", ref=docs_dir[1])
    assert got.equals(pq.read_table(f"{SF}/documents.parquet")
                      .sort_by("doc_id"))


def test_fragment_dir_pruned(ray_session, docs_dir):
    _assert_same(docs_dir[0], ["source", "doc_id"], key="doc_id",
                 ref=docs_dir[1])


def test_hive_values_are_strings(ray_session, hive_dir):
    got = _assert_same(hive_dir, key="doc_id")
    assert got.schema.field("shard").type == pa.string()
    assert got.column_names == ["doc_id", "w", "shard"]
    assert got["shard"].to_pylist() == [str(i % 3) for i in range(60)]


def test_hive_pruned(ray_session, hive_dir):
    _assert_same(hive_dir, ["doc_id", "shard"], key="doc_id")
    _assert_same(hive_dir, ["w"], key="w")


def test_read_dataset_is_the_scan(ray_session, hive_dir):
    """``read_dataset`` of one partition directory: the IVF reads."""
    got = _table(read_dataset(os.path.join(hive_dir, "shard=1"),
                              "parquet"))
    assert got.column_names == ["doc_id", "w", "shard"]
    assert set(got["shard"].to_pylist()) == {"1"}


@pytest.fixture(scope="module")
def row_groups_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("rg") / "t.parquet")
    pq.write_table(pa.table({"id": pa.array(range(70), pa.int64())}), path,
                   row_group_size=10)
    assert pq.read_metadata(path).num_row_groups == 7
    return path


@pytest.mark.parametrize("width", [1, 3])
def test_whole_row_groups_into_width_blocks(ray_session, monkeypatch,
                                            row_groups_file, width):
    monkeypatch.setattr(storage, "shuffle_partitions", lambda: width)
    blocks = [ray.get(r) for r in
              scan_parquet(row_groups_file).to_arrow_refs()]
    assert len(blocks) == width
    ids = sorted(i for b in blocks for i in b["id"].to_pylist())
    assert ids == list(range(70))
    for b in blocks:
        lo, hi = min(b["id"].to_pylist()), max(b["id"].to_pylist()) + 1
        assert sorted(b["id"].to_pylist()) == list(range(lo, hi))
        assert lo % 10 == 0 and (hi % 10 == 0 or hi == 70)


def test_fewer_row_groups_than_width_still_width_blocks(ray_session,
                                                        monkeypatch):
    """One row group at width 4: Ray splits the one read's output."""
    monkeypatch.setattr(storage, "shuffle_partitions", lambda: 4)
    ds = scan_parquet(f"{SF}/orders.parquet")
    assert ds.materialize().num_blocks() == 4
    assert ds.count() == pq.read_metadata(f"{SF}/orders.parquet").num_rows


def test_zero_row_file_is_typed_and_empty(ray_session, tmp_path):
    path = str(tmp_path / "empty.parquet")
    pq.write_table(pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.string())}), path)
    ds = scan_parquet(path)
    want = rd.read_parquet(path).schema()
    assert ds.schema(fetch_if_missing=False) == want
    assert ds.schema().base_schema.types == [pa.int64(), pa.string()]
    assert ds.count() == 0
    assert ds.take_all() == []


def test_missing_path_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        scan_parquet(str(tmp_path / "nope"))
    with pytest.raises(FileNotFoundError):
        scan_parquet(str(tmp_path))          # a directory with no data
