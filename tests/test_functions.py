import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crawling_infrastructure_ray.functions import (
    average, gaussian, format_bytes, time_format, chunk, seeded_rng,
    stable_hash64, md5_id, rolling_fingerprint,
    canonicalize_url, parse_host, truncate_host_labels)
from crawling_infrastructure_ray.functions.hashing import (
    _smallest_distinct, rolling_fingerprint_col)
from crawling_infrastructure_ray.functions.tokenize import split_ws


def test_average():
    # reference lib/misc/stats.ts:5-18 — mean, 0 for empty
    assert average([1, 2, 3]) == 2.0
    assert average([]) == 0.0


def test_gaussian_abs_and_seeded():
    rng = seeded_rng(42, "g")
    vals = [gaussian(5.0, 2.0, rng) for _ in range(100)]
    assert all(v >= 0 for v in vals)  # reference takes Math.abs
    rng2 = seeded_rng(42, "g")
    assert vals[0] == gaussian(5.0, 2.0, rng2)


def test_format_bytes():
    assert format_bytes(0) == "0 Bytes"
    assert format_bytes(1024) == "1.00 KB"
    assert format_bytes(1536) == "1.50 KB"
    assert format_bytes(1024 ** 3) == "1.00 GB"


def test_time_format():
    assert time_format(1000) == "1s"
    assert time_format(61_000) == "1m 1s"
    assert time_format(90_061_000) == "1d 1h 1m 1s"


def test_chunk():
    assert chunk([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4], [5]]
    with pytest.raises(ValueError):
        chunk([1], 0)


def test_stable_hash64_stable_and_spread():
    assert stable_hash64("http://a.example/") == stable_hash64("http://a.example/")
    assert stable_hash64("a") != stable_hash64("b")
    assert stable_hash64("a", seed=1) != stable_hash64("a", seed=2)
    # spread over shards is roughly uniform
    buckets = np.zeros(8)
    for i in range(8000):
        buckets[stable_hash64(f"u{i}") % 8] += 1
    assert buckets.min() > 800


def test_md5_id():
    assert md5_id("abc") == "900150983cd24fb0d6963f7d28e17f72"


def test_rolling_fingerprint():
    fp1 = rolling_fingerprint("the quick brown fox jumps over the lazy dog")
    fp2 = rolling_fingerprint("the quick brown fox jumps over the lazy dog")
    assert fp1 == fp2 and len(fp1) == 8
    fp3 = rolling_fingerprint("a completely different document body here")
    assert fp1 != fp3
    assert rolling_fingerprint("") == []
    assert len(rolling_fingerprint("short")) == 1


def test_canonicalize_url():
    assert canonicalize_url("HTTP://Example.COM:80/a#frag") == "http://example.com/a"
    assert canonicalize_url("https://x.org:443/") == "https://x.org/"
    assert canonicalize_url("https://x.org:8443/p?q=1") == "https://x.org:8443/p?q=1"
    assert canonicalize_url("http://h1.example") == "http://h1.example/"
    # idempotent
    u = "http://h1.example/p?a=1"
    assert canonicalize_url(canonicalize_url(u)) == canonicalize_url(u)


def test_parse_host_and_truncate():
    # reference master/other/domain_count.js:41-44
    assert parse_host("http://www.sub.Example.com/x") == "www.sub.example.com"
    assert truncate_host_labels("www.sub.example.com") == "sub.example.com"
    assert truncate_host_labels("example.com") == "example.com"


# --- column kernels: the winnowing fingerprint and the whitespace split

WS_CLASS = r"[ \t\n\r\f\v]+"

_fp_text = st.one_of(
    st.none(),
    st.just(""),
    st.text(min_size=1, max_size=16),                       # 1-16 chars
    st.text(alphabet="xyz", min_size=1, max_size=16),       # 1-16 bytes
    st.text(alphabet="xyz", min_size=17, max_size=17),      # exactly 17
    st.text(min_size=17, max_size=300),                     # any unicode
    st.text(alphabet="ab ", min_size=17, max_size=600),     # repetitive
    st.builds(lambda p, k: p * k,                           # periodic
              st.text(alphabet="abcdefg", min_size=1, max_size=24),
              st.integers(1, 300)),
)


def _fp_ref(texts):
    return [rolling_fingerprint(t or "") for t in texts]


@given(st.lists(_fp_text, max_size=40), st.integers(0, 5))
@settings(max_examples=300, deadline=None)
def test_rolling_fingerprint_col_matches_scalar(texts, cut):
    col = pa.array(texts, pa.string())
    assert rolling_fingerprint_col(col).to_pylist() == _fp_ref(texts)
    # a sliced array: non-zero offset into the same buffers
    cut = min(cut, len(texts))
    assert rolling_fingerprint_col(col.slice(cut)).to_pylist() == \
        _fp_ref(texts[cut:])


@given(st.lists(st.integers(0, 40), max_size=200), st.integers(1, 12))
@settings(max_examples=300, deadline=None)
def test_smallest_distinct_matches_unique(xs, keep):
    # few distinct values: duplicates crowd the partition
    h = np.asarray(xs, np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    assert _smallest_distinct(h, keep).tolist() == \
        np.unique(h)[:keep].tolist()


def test_rolling_fingerprint_col_repeats_and_layouts():
    texts = [
        "abcdefghijklmnopqrst" * 200,  # 20 distinct windows in ~4k
        "ab" * 500,                    # 2 distinct windows in total
        "x" * 17, "x" * 16, "", None, "héllo wörld, ünïcode text 一二三",
        " the quick brown fox jumps over the lazy dog " * 40,
    ]
    want = _fp_ref(texts)
    assert [len(v) for v in want[:4]] == [8, 2, 1, 1]
    for col in (pa.array(texts, pa.string()),
                pa.array(texts, pa.large_string()),
                pa.chunked_array([texts[:3], texts[3:]], pa.string())):
        out = rolling_fingerprint_col(col)
        assert out.type == pa.list_(pa.uint64())
        assert out.to_pylist() == want
    assert rolling_fingerprint_col(pa.array([], pa.string())).to_pylist() == []


_ws_text = st.one_of(st.none(), st.text(
    alphabet=st.sampled_from(list(" \t\n\r\x0b\x0cab\x1c\x85\xa0é一")),
    max_size=30))


@given(st.lists(_ws_text, max_size=30))
@settings(max_examples=300, deadline=None)
def test_split_ws_matches_regex_split(texts):
    col = pa.array(texts, pa.string())
    assert split_ws(col).to_pylist() == \
        pc.split_pattern_regex(col, WS_CLASS).to_pylist()


def test_split_ws_edge_cases():
    texts = ["", " ", "  a  b ", "a\x0bb\x0cc", "a\x1cb\x85c\xa0d", None,
             "\t\n", "héllo wörld", "a\r\nb"]
    col = pa.chunked_array([texts[:4], texts[4:]], pa.string())
    got = split_ws(col)
    assert isinstance(got, pa.ListArray)
    assert got.to_pylist() == \
        pc.split_pattern_regex(col, WS_CLASS).combine_chunks().to_pylist()
    assert got.to_pylist()[4] == ["a\x1cb\x85c\xa0d"]   # no split on these


def test_whitespace_split_has_one_home():
    """Every whitespace split in the package goes through split_ws."""
    import pathlib
    import re
    pkg = pathlib.Path(__file__).resolve().parents[1] / \
        "crawling_infrastructure_ray"
    call = re.compile(r"split_pattern_regex\([^)]*\\t")
    found = [str(p.relative_to(pkg)) for p in sorted(pkg.rglob("*.py"))
             if p.name != "tokenize.py" and call.search(p.read_text())]
    assert found == []
