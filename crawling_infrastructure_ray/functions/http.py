"""Real HTTP/1.1 response parsing (RFC 9112 subset).

The reference's HTTP worker consumes raw responses through got/puppeteer
(crawler/src/http_worker.ts); this module is the engine's own wire
parser for the synthetic origin's responses
(sources.corpus.make_http_response): status line, CRLF header block
(case-insensitive keys, surrounding-whitespace trim), and body
de-framing for both Content-Length and CHUNKED transfer coding —
hex chunk sizes, chunk extensions (``;ext=…`` after the size),
terminating 0-chunk. Oracle-gated end to end by ``http_fetch_stats``
(the DuckDB twin replays status/headers/body statistics and the
one-hop redirect resolution from the generator's closed form without
seeing a byte).
"""

from __future__ import annotations

_HEX = frozenset(b"0123456789abcdefABCDEF")


def parse_http_response(raw: bytes) -> tuple[int, dict[str, str], bytes]:
    """Parse one raw HTTP/1.1 response → (status, headers, body).

    Headers: keys lower-cased, values stripped (RFC 9112 OWS), both
    decoded as ISO-8859-1, which maps every byte (RFC 9110 §5.5
    obs-text); later duplicates overwrite. Body: ``Transfer-Encoding: chunked`` walks
    the chunk framing (hex size, optional ``;extension``, CRLF, data,
    CRLF, until the 0-chunk); otherwise ``Content-Length`` bytes; no
    framing header → the remainder. Raises ValueError on malformed
    status line, header line, chunk framing, ``Content-Length`` (ASCII
    digits only, RFC 9112 §6.3) or gzip stream."""
    sep = raw.find(b"\r\n\r\n")
    if sep < 0:
        raise ValueError("no header/body separator")
    head, body_raw = raw[:sep], raw[sep + 4:]
    lines = head.split(b"\r\n")
    parts = lines[0].split(b" ", 2)
    if len(parts) < 2 or not parts[0].startswith(b"HTTP/"):
        raise ValueError(f"malformed status line {lines[0]!r}")
    try:
        status = int(parts[1])
    except ValueError:
        raise ValueError(f"non-numeric status {parts[1]!r}") from None
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        k, colon, v = line.partition(b":")
        if not colon:
            raise ValueError(f"malformed header line {line!r}")
        headers[k.strip().lower().decode("latin-1")] = \
            v.strip().decode("latin-1")

    if headers.get("transfer-encoding", "").lower() == "chunked":
        out = []
        pos = 0
        while True:
            nl = body_raw.find(b"\r\n", pos)
            if nl < 0:
                raise ValueError("chunked: missing size line")
            size_tok = body_raw[pos:nl].split(b";", 1)[0].strip()
            # hex digits only: int(…, 16) also takes a sign, "0x" and "_"
            if not size_tok or not _HEX.issuperset(size_tok):
                raise ValueError(f"chunked: bad size {size_tok!r}")
            size = int(size_tok, 16)
            pos = nl + 2
            if size == 0:
                break
            if pos + size + 2 > len(body_raw):
                raise ValueError("chunked: truncated chunk data")
            out.append(body_raw[pos:pos + size])
            if body_raw[pos + size:pos + size + 2] != b"\r\n":
                raise ValueError("chunked: missing data CRLF")
            pos = pos + size + 2
        body = b"".join(out)
    elif "content-length" in headers:
        cl = headers["content-length"]
        # digits only: int() also takes a sign, "_" and non-ASCII digits
        if not (cl.isascii() and cl.isdigit()):
            raise ValueError(f"bad Content-Length {cl!r}")
        n = int(cl)
        if len(body_raw) < n:
            raise ValueError("short body vs Content-Length")
        body = body_raw[:n]
    else:
        body = body_raw

    # content coding AFTER transfer coding (RFC 9110 ordering):
    # de-frame the chunks, then decompress the representation
    enc = headers.get("content-encoding", "").lower()
    if enc == "gzip":
        import gzip
        import zlib
        try:
            body = gzip.decompress(body)
        except (OSError, EOFError, zlib.error) as exc:
            raise ValueError(f"gzip body: {exc}") from None
    elif enc and enc != "identity":
        raise ValueError(f"unsupported content-encoding {enc!r}")
    return status, headers, body
