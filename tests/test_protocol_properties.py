"""Property tests for the protocol-layer parsers.

Independent cross-checks: the REP wildcard matcher against a
regex-translation reference over random pattern/path pairs, and the
chunked-transfer decoder against arbitrary body bytes under arbitrary
chunk splits (framing the generator never emits)."""

import re

from hypothesis import given, settings, strategies as st

from crawling_infrastructure_ray.functions.http import parse_http_response
from crawling_infrastructure_ray.functions.robots import _match

_ALPHA = "ab/*$"


def _regex_ref(pattern: str, path: str) -> bool:
    """Reference semantics: '*' ↦ '.*', optional trailing '$' anchor,
    otherwise prefix match (Google REP)."""
    anchored = pattern.endswith("$")
    body = pattern[:-1] if anchored else pattern
    rx = ".*".join(re.escape(c) for c in body.split("*"))
    rx = "^" + rx + ("$" if anchored else "")
    return re.search(rx, path) is not None


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=_ALPHA, min_size=0, max_size=8),
       st.text(alphabet="ab/", min_size=0, max_size=12))
def test_rep_match_equals_regex_reference(pattern, path):
    # '$' is only an anchor at the END of a REP pattern; inner '$'
    # is literal in both implementations only if absent — restrict
    # patterns to at most a trailing '$'
    if "$" in pattern[:-1]:
        return
    assert _match(pattern, path) == _regex_ref(pattern, path), \
        (pattern, path)


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=0, max_size=300),
       st.lists(st.integers(min_value=1, max_value=64),
                min_size=1, max_size=20),
       st.integers(min_value=0, max_value=1))
def test_chunked_deframe_any_split(body, sizes, ext_flag):
    """Any chunking of any body must decode back to the body."""
    chunks, off, i = [], 0, 0
    while off < len(body):
        n = min(sizes[i % len(sizes)], len(body) - off)
        ext = b";x=y" if (ext_flag and i == 0) else b""
        chunks.append(b"%x" % n + ext + b"\r\n"
                      + body[off:off + n] + b"\r\n")
        off += n
        i += 1
    raw = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
           + b"".join(chunks) + b"0\r\n\r\n")
    status, headers, got = parse_http_response(raw)
    assert status == 200 and got == body


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=0, max_value=199),
       st.lists(st.tuples(st.sampled_from(("overwrite", "insert", "drop")),
                          st.integers(min_value=0),
                          st.binary(min_size=1, max_size=3)),
                min_size=1, max_size=4),
       st.integers(min_value=0))
def test_mutated_origin_response_raises_only_valueerror(i, edits, cut):
    """Overwrite, insert or drop bytes anywhere in a synthetic origin
    response (chunked framing, gzip bodies, redirects), then truncate
    it: the parser either succeeds or raises ValueError, never anything
    else."""
    from crawling_infrastructure_ray.sources.corpus import make_http_response
    raw = bytearray(make_http_response(f"http://h{i % 7}.example/p{i:06x}",
                                       seed=42))
    for kind, pos, b in edits:
        pos %= len(raw) + 1
        if kind == "overwrite":
            raw[pos:pos + len(b)] = b
        elif kind == "insert":
            raw[pos:pos] = b
        else:
            del raw[pos:pos + len(b)]
    raw = bytes(raw[:len(raw) - cut % 8]) if cut % 3 else bytes(raw)
    try:
        parse_http_response(raw)
    except ValueError:
        pass
