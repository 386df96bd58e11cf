"""Sitemap scanner tests (functions/sitemap.py)."""

import pytest

from crawling_infrastructure_ray.functions.hashing import stable_hash64
from crawling_infrastructure_ray.functions.sitemap import parse_sitemap
from crawling_infrastructure_ray.sources.corpus import make_sitemap_xml


def test_parse_basic_and_optional_fields():
    txt = (
        '<?xml version="1.0"?>\n'
        '<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">\n'
        '<url><loc> http://a/x </loc><priority>0.5</priority></url>\n'
        "<url>\n  <loc>http://a/y</loc>\n"
        "  <lastmod>2026-01-02</lastmod>\n"
        "  <changefreq>daily</changefreq>\n"
        "  <priority>0.9</priority>\n</url>\n"
        "</urlset>"
    )
    es = parse_sitemap(txt)
    assert len(es) == 2
    assert es[0] == {"loc": "http://a/x", "lastmod": None,
                     "changefreq": None, "priority": 0.5}
    assert es[1]["lastmod"] == "2026-01-02" and es[1]["priority"] == 0.9


def test_commented_decoy_skipped():
    txt = ("<urlset>\n<!-- <url><loc>http://a/decoy</loc></url> -->\n"
           "<url><loc>http://a/real</loc></url>\n</urlset>")
    es = parse_sitemap(txt)
    assert [e["loc"] for e in es] == ["http://a/real"]


def test_malformed_rejected():
    with pytest.raises(ValueError):
        parse_sitemap("<html>not a sitemap</html>")
    with pytest.raises(ValueError):
        parse_sitemap("<urlset><url><loc>http://a</loc>")  # unterminated
    with pytest.raises(ValueError):
        parse_sitemap("<urlset><url><priority>0.1</priority></url></urlset>")


def test_generator_closed_form_roundtrip():
    for hid in range(6):
        host = f"h{hid}.example"
        es = parse_sitemap(make_sitemap_xml(host, seed=42))
        sh = stable_hash64(host, 42 ^ 0x51E7)
        assert len(es) == 5 + sh % 20
        for k, e in enumerate(es):
            pid = ((sh >> 8) ^ (k * 2654435761)) % (1 << 24)
            assert e["loc"] == f"http://{host}/p{pid:06x}"
            prio = 1 + ((sh >> (k % 32)) & 7)
            assert e["priority"] == pytest.approx(prio / 10)
            if k % 5 == 4:
                assert e["lastmod"] is None and e["changefreq"] is None
            else:
                day = 1 + ((sh >> (k % 16)) & 15)
                assert e["lastmod"] == f"2026-07-{day:02d}"
                assert e["changefreq"] == ("daily", "weekly",
                                           "monthly")[k % 3]
        assert "decoy" not in " ".join(e["loc"] for e in es)


def test_sitemap_stage_missing_priority_is_null(monkeypatch):
    """An entry without <priority> becomes a null priority_e1 row
    instead of a TypeError in the query stage."""
    import pyarrow as pa

    from crawling_infrastructure_ray.pipelines import training
    from crawling_infrastructure_ray.sources import corpus

    monkeypatch.setattr(corpus, "make_sitemap_xml", lambda host, seed: (
        "<urlset><url><loc>http://a/x</loc></url>"
        "<url><loc>http://a/y</loc><priority>0.3</priority></url>"
        "</urlset>"))
    out = training._sitemap_batch(pa.table({"host": ["a"]}))
    assert out["loc"].to_pylist() == ["http://a/x", "http://a/y"]
    assert out["priority_e1"].to_pylist() == [None, 3]
