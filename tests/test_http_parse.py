"""HTTP/1.1 wire parser tests (functions/http.py)."""

import numpy as np
import pytest

from crawling_infrastructure_ray.functions.hashing import stable_hash64
from crawling_infrastructure_ray.functions.http import parse_http_response
from crawling_infrastructure_ray.sources.corpus import make_http_response


def test_parse_plain_content_length():
    raw = (b"HTTP/1.1 404 Not Found\r\n"
           b"Content-Length: 5\r\n"
           b"X-Mixed-Case: V \r\n\r\nerrorTRAILING-GARBAGE")
    status, headers, body = parse_http_response(raw)
    assert status == 404 and body == b"error"
    assert headers["x-mixed-case"] == "V"  # key lowered, value trimmed


def test_parse_chunked_with_extension():
    raw = (b"HTTP/1.1 200 OK\r\n"
           b"Transfer-Encoding: chunked\r\n\r\n"
           b"5;note=1\r\nhello\r\n"
           b"6\r\n world\r\n"
           b"0\r\n\r\n")
    status, headers, body = parse_http_response(raw)
    assert status == 200 and body == b"hello world"


def test_malformed_rejected():
    with pytest.raises(ValueError):
        parse_http_response(b"NOPE 200 OK\r\n\r\n")
    with pytest.raises(ValueError):
        parse_http_response(b"HTTP/1.1 two OK\r\n\r\n")
    with pytest.raises(ValueError):
        parse_http_response(b"HTTP/1.1 200 OK\r\nbadheader\r\n\r\n")
    with pytest.raises(ValueError):  # truncated chunk
        parse_http_response(b"HTTP/1.1 200 OK\r\n"
                            b"Transfer-Encoding: chunked\r\n\r\n"
                            b"ff\r\nshort\r\n0\r\n\r\n")
    with pytest.raises(ValueError):  # no separator
        parse_http_response(b"HTTP/1.1 200 OK\r\nA: b")


def test_gzip_content_encoding():
    import gzip
    body = bytes(range(200))
    gz = gzip.compress(body, mtime=0)
    raw = (b"HTTP/1.1 200 OK\r\n"
           b"Content-Encoding: gzip\r\n"
           b"Content-Length: " + str(len(gz)).encode() + b"\r\n\r\n" + gz)
    status, headers, got = parse_http_response(raw)
    assert status == 200 and got == body
    with pytest.raises(ValueError):  # corrupted stream
        parse_http_response(
            b"HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\n"
            b"Content-Length: 5\r\n\r\nnotgz")
    with pytest.raises(ValueError):  # unknown coding
        parse_http_response(
            b"HTTP/1.1 200 OK\r\nContent-Encoding: br\r\n"
            b"Content-Length: 1\r\n\r\nx")


def test_revalidation_304():
    from crawling_infrastructure_ray.functions.hashing import md5_id
    # find a 200 url
    url = next(u for u in (f"http://h1.example/p{i:06x}" for i in range(50))
               if stable_hash64(u, 42 ^ 0x177E) % 100 < 80)
    s1, h1, b1 = parse_http_response(make_http_response(url, 42))
    assert s1 == 200 and h1["etag"] == f'"{md5_id(url)[:8]}"'
    s2, h2, b2 = parse_http_response(
        make_http_response(url, 42, if_none_match=h1["etag"]))
    assert (s2, b2) == (304, b"") and h2["etag"] == h1["etag"]
    # a stale validator must NOT revalidate
    s3, _, b3 = parse_http_response(
        make_http_response(url, 42, if_none_match='"deadbeef"'))
    assert s3 == 200 and b3 == b1


def test_origin_roundtrip_closed_form():
    seen = set()
    for i in range(200):
        url = f"http://h{i % 7}.example/p{i:06x}"
        h = stable_hash64(url, 42 ^ 0x177E)
        r = h % 100
        status, headers, body = parse_http_response(
            make_http_response(url, seed=42))
        seen.add(status)
        if r < 80:
            assert status == 200
            n, base = 100 + (h >> 8) % 400, (h >> 16) % 256
            want = ((base + 31 * np.arange(n, dtype=np.int64)) % 256) \
                .astype(np.uint8).tobytes()
            assert body == want  # chunk de-framing is byte-exact
        elif r < 90:
            assert status == 301 and body == b""
            assert headers["location"].startswith(f"http://h{i % 7}.example/p")
        else:
            assert status in (404, 500) and body == b"error"
    assert 200 in seen and 301 in seen  # corpus exercises the classes


def test_latin1_header_decodes():
    """obs-text (RFC 9110 §5.5): a non-ASCII header byte decodes as
    ISO-8859-1 instead of escaping as UnicodeDecodeError."""
    raw = (b"HTTP/1.1 200 OK\r\n"
           b"Content-Length: 2\r\n"
           b"X-Caf\xe9: na\xefve\r\n\r\nok")
    status, headers, body = parse_http_response(raw)
    assert status == 200 and body == b"ok"
    assert headers["x-café"] == "naïve"


def _gzip_response(gz: bytes) -> bytes:
    return (b"HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\n"
            b"Content-Length: " + str(len(gz)).encode() + b"\r\n\r\n" + gz)


def test_gzip_corrupt_deflate_raises_valueerror():
    """A damaged deflate block raises zlib.error inside gzip."""
    import gzip
    gz = gzip.compress(bytes(range(200)), mtime=0)
    with pytest.raises(ValueError):
        parse_http_response(_gzip_response(gz[:10] + b"\xff" * 5 + gz[15:]))


def test_gzip_truncated_stream_raises_valueerror():
    """A stream cut before its end marker raises EOFError inside gzip."""
    import gzip
    gz = gzip.compress(bytes(range(200)), mtime=0)
    with pytest.raises(ValueError):
        parse_http_response(_gzip_response(gz[:-12]))


@pytest.mark.parametrize("value", [b"-3", b"+3", b"1_0"])
def test_content_length_digits_only(value):
    raw = (b"HTTP/1.1 200 OK\r\nContent-Length: " + value
           + b"\r\n\r\nabcdefghijkl")
    with pytest.raises(ValueError):
        parse_http_response(raw)


@pytest.mark.parametrize("size", [b"-1", b"-0", b"+a", b"0x1f", b"1_f"])
def test_chunk_size_hex_digits_only(size):
    # each token parses under int(…, 16) and the data has that many
    # bytes, so only the size token itself can reject the frame
    data = b"y" * max(0, int(size, 16))
    raw = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
           b"5\r\nhello\r\n" + size + b"\r\n" + data + b"\r\n0\r\n\r\n")
    with pytest.raises(ValueError):
        parse_http_response(raw)
