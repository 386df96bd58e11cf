import numpy as np
import pytest

from crawling_infrastructure_ray.state.filters import (BloomFilter, CuckooFilter,
                                                        ExactSeenSet)


@pytest.mark.parametrize("cls", [BloomFilter, CuckooFilter])
def test_add_contains(cls):
    f = cls(10_000)
    keys = [f"http://h{i}.example/p{i}" for i in range(1000)]
    for k in keys:
        assert f.add(k) is True      # new
    for k in keys:
        assert f.contains(k) is True
    for k in keys:
        assert f.add(k) is False     # duplicate


@pytest.mark.parametrize("cls", [BloomFilter, CuckooFilter])
def test_false_positive_rate(cls):
    f = cls(20_000)
    for i in range(10_000):
        f.add(f"in{i}")
    fp = sum(f.contains(f"out{i}") for i in range(10_000))
    assert fp / 10_000 < 0.02


def test_cuckoo_delete():
    f = CuckooFilter(1000)
    f.add("x")
    assert f.contains("x")
    assert f.delete("x") is True
    assert not f.contains("x")
    assert f.delete("x") is False
    # re-insert after delete works (lease-rollback path)
    assert f.add("x") is True


@pytest.mark.parametrize("cls", [BloomFilter, CuckooFilter])
def test_state_roundtrip(cls):
    f = cls(5000)
    for i in range(2000):
        f.add(f"k{i}")
    g = cls.from_state(f.state())
    assert g.count == f.count
    assert all(g.contains(f"k{i}") for i in range(2000))


def test_cuckoo_capacity_error():
    f = CuckooFilter(64)
    with pytest.raises(RuntimeError):
        for i in range(10_000):
            f.add(f"k{i}")


def test_exact_seen_set_basic():
    s = ExactSeenSet(seed=7)
    assert s.add("http://a.example/x") is True
    assert s.add("http://a.example/x") is False      # duplicate
    assert s.add("http://a.example/y") is True
    assert s.contains("http://a.example/x")
    assert not s.contains("http://a.example/z")
    assert len(s) == 2
    # state round-trip (checkpoint format)
    st = s.state()
    assert st["kind"] == "exact"
    r = ExactSeenSet.from_state(st)
    assert len(r) == 2 and r.contains("http://a.example/y")
    assert r.add("http://a.example/y") is False
