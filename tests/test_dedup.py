import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from crawling_infrastructure_ray.stages import dedup as dd

BASE = ("the quick brown fox jumps over the lazy dog and then runs far "
        "away into the deep dark forest to hide from all the hunters")


def _corpus():
    """Controlled corpus: d0≈d1 (near-dup), d2==d3 (exact dup),
    d4/d5 unrelated."""
    rows = [
        ("d0", BASE),
        ("d1", BASE.replace("lazy", "sleepy")),          # near-dup of d0
        ("d2", "completely different text about ray data pipelines and arrow"),
        ("d3", "completely different text about ray data pipelines and arrow"),
        ("d4", "unrelated short document mentioning nothing in common at all"),
        ("d5", "yet another unique string with its own content entirely here"),
    ]
    return rd.from_arrow(pa.table({
        "doc_id": pa.array([r[0] for r in rows]),
        "text": pa.array([r[1] for r in rows])}))


def test_exact_dedup(ray_session):
    ds = _corpus()
    groups = dd.exact_dedup_groups(ds).to_pandas()
    assert len(groups) == 5                      # d2/d3 collapse
    dup = groups[groups["n_dups"] == 2]
    assert len(dup) == 1 and dup.iloc[0]["keep_doc_id"] == "d2"
    assert sorted(groups["keep_doc_id"]) == ["d0", "d1", "d2", "d4", "d5"]


def test_minhash_pairs_find_near_dups(ray_session):
    pairs = dd.minhash_dedup_pairs(_corpus(), bands=32, rows_per_band=2,
                                   threshold=0.5, shingle_k=3)
    got = set(zip(pairs["a"], pairs["b"]))
    assert ("d0", "d1") in got                   # near-dup found
    assert ("d2", "d3") in got                   # exact dup found (jaccard 1.0)
    assert not any({"d4", "d5"} & {a, b} for a, b in got)
    j01 = float(pairs[(pairs["a"] == "d0")]["jaccard"].iloc[0])
    assert 0.5 <= j01 < 1.0


def test_simhash_properties(ray_session):
    h1 = dd.simhash64(BASE)
    h2 = dd.simhash64(BASE.replace("lazy", "sleepy"))
    h3 = dd.simhash64("completely different text about ray data pipelines")
    assert h1 == dd.simhash64(BASE)              # deterministic
    near = bin(h1 ^ h2).count("1")
    far = bin(h1 ^ h3).count("1")
    assert near < far                            # similar texts → closer hashes
    pairs = dd.simhash_near_pairs(_corpus(), max_hamming=10)
    got = set(zip(pairs["a"], pairs["b"]))
    assert ("d2", "d3") in got                   # identical → hamming 0


def test_embedding_near_dup_exact_vs_lsh(ray_session):
    rng = np.random.default_rng(0)
    base = rng.standard_normal((8, 16))
    # vectors 0 and 1 nearly identical
    base[1] = base[0] + rng.standard_normal(16) * 0.01
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(range(8), pa.int64()),
        "embedding": pa.array([list(v) for v in base], pa.list_(pa.float32()))}))
    exact = dd.embedding_near_dup_pairs(ds, threshold=0.95, lsh_bits=0)
    assert list(zip(exact["a"], exact["b"])) == [(0, 1)]
    lsh = dd.embedding_near_dup_pairs(ds, threshold=0.95, lsh_bits=4, seed=1)
    assert (0, 1) in set(zip(lsh["a"], lsh["b"]))  # recall on the true pair


def test_minhash_dedup_remove_keeps_representatives(ray_session):
    # d0~d1 (near-dup), d2==d3 (exact dup) → keep d0, d2; drop d1, d3
    kept = dd.minhash_dedup_remove(_corpus(), bands=32, rows_per_band=2,
                                   threshold=0.5, shingle_k=3).to_pandas()
    assert sorted(kept["doc_id"]) == ["d0", "d2", "d4", "d5"]


def test_union_find_components_deterministic():
    from crawling_infrastructure_ray.stages.joins import union_find_components
    roots = union_find_components([("b", "c"), ("a", "b"), ("x", "y")])
    assert roots == {"a": "a", "b": "a", "c": "a", "x": "x", "y": "x"}


def test_jaccard_exact_pairs_matches_brute(ray_session):
    """jaccard_exact_pairs_ds == brute-force all-pairs over the same
    shingle sets (token and char kinds), including the exact integer
    jaccard_e6 values."""
    ds = _corpus()
    for kind, k, thr in (("token", 3, 300_000), ("char", 5, 300_000)):
        out = dd.jaccard_exact_pairs_ds(
            ds, shingle_k=k, kind=kind, threshold_e6=thr).to_pandas()
        got = {(a, b): (i, j) for a, b, i, j in
               zip(out["a"], out["b"], out["inter"], out["jaccard_e6"])}
        docs = _corpus().to_pandas().sort_values("doc_id")
        sh = {r["doc_id"]: set(
            (dd._token_shingles(r["text"], k) if kind == "token"
             else dd._char_shingles(r["text"], k)).tolist())
            for _, r in docs.iterrows()}
        want = {}
        ids = sorted(sh)
        for x in range(len(ids)):
            for y in range(x + 1, len(ids)):
                a, b = ids[x], ids[y]
                inter = len(sh[a] & sh[b])
                union = len(sh[a] | sh[b])
                je6 = inter * 1_000_000 // union
                if je6 >= thr:
                    want[(a, b)] = (inter, je6)
        assert got == want, f"kind={kind}"


def test_minhash_recall_vs_exact_baseline(ray_session):
    """The LSH scale path finds every pair the exact operator reports
    at a threshold comfortably above the LSH S-curve midpoint."""
    ds = _corpus()
    exact = dd.jaccard_exact_pairs_ds(
        ds, shingle_k=3, kind="token", threshold_e6=500_000).to_pandas()
    lsh = dd.minhash_dedup_pairs(_corpus(), bands=32, rows_per_band=2,
                                 threshold=0.5, shingle_k=3)
    exact_pairs = set(zip(exact["a"], exact["b"]))
    lsh_pairs = set(zip(lsh["a"], lsh["b"]))
    assert exact_pairs <= lsh_pairs  # 100% recall on this corpus


def test_minhash_pairs_finishes_on_one_cpu(tmp_path):
    """The MinHash pair query must finish on a one-CPU session and
    still match its DuckDB oracle."""
    import os
    import subprocess
    import sys

    import duckdb

    import __ray_entry__ as entrymod
    from test_queries_oracle import SF as sf
    out = tmp_path / "pairs.parquet"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = (
        "import ray\n"
        "ray.init(address='local', num_cpus=1, include_dashboard=False,"
        " logging_level='ERROR')\n"
        "from crawling_infrastructure_ray.pipelines.training import "
        "q_dedup_minhash_pairs\n"
        f"q_dedup_minhash_pairs({sf!r}).to_parquet({str(out)!r})\n"
        "ray.shutdown()\n")
    res = subprocess.run([sys.executable, "-c", code], cwd=root,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr[-2000:]
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = con.execute(entrymod.oracle_sql()["dedup_minhash_pairs"]).fetchdf()
    cols = ["a", "b", "jaccard_e6"]
    got = pd.read_parquet(out)[cols].sort_values(cols).reset_index(drop=True)
    want = want[cols].sort_values(cols).reset_index(drop=True)
    assert len(got) > 0
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
