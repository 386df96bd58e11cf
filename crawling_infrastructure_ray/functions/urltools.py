"""URL canonicalization and host parsing.

The reference parses hosts with ``new URL(...)`` and truncates to the
last 3 dot-labels for domain counting
(master/other/domain_count.js:41-44). Canonicalization is a rebuild
addition (the reference stores raw item strings) needed by the
north-star URL-seen dedup: one canonical form per logical URL.
"""

from __future__ import annotations

from urllib.parse import urlsplit, urlunsplit

_DEFAULT_PORTS = {"http": "80", "https": "443"}


def canonicalize_url(url: str) -> str:
    """Canonical URL form: lowercase scheme/host, strip fragment,
    strip default port, collapse empty path to '/', drop trailing
    '?' . Query strings are preserved (order untouched — reordering
    can change semantics). A string without ``://`` (``a.com/x``,
    ``a.com:81/x``) is read as ``http://`` + it, so a port is never
    taken for a scheme; an IPv6 literal host keeps its brackets
    (``http://[::1]/x``)."""
    url = url.strip()
    try:
        parts = urlsplit(url if "://" in url else
                         ("http:" if url.startswith("//") else "http://") + url)
    except ValueError:
        return url
    scheme = (parts.scheme or "http").lower()
    host = (parts.hostname or "").lower()
    port = parts.port
    if ":" in host:
        host = f"[{host}]"
    netloc = host
    if port is not None and str(port) != _DEFAULT_PORTS.get(scheme, ""):
        netloc = f"{host}:{port}"
    path = parts.path or "/"
    return urlunsplit((scheme, netloc, path, parts.query, ""))


def canonicalize_and_host(url: str) -> tuple[str, str]:
    """(canonical_url, host) with a fast path for the common
    ``http(s)://host/path`` shape (no port, userinfo, fragment, or
    uppercase host) — ~30x cheaper than urlsplit, which dominates
    frontier enqueue cost at millions of URLs/sec. Falls back to the
    full canonicalizer on anything unusual."""
    if url.startswith("http://"):
        scheme, rest = "http://", url[7:]
    elif url.startswith("https://"):
        scheme, rest = "https://", url[8:]
    else:
        c = canonicalize_url(url)
        return c, parse_host(c)
    slash = rest.find("/")
    if slash < 0:
        host, path = rest, "/"
    else:
        host, path = rest[:slash], rest[slash:]
    if "#" in rest or "?" in host or "@" in host or ":" in host \
            or not (host.islower() or host == ""):
        c = canonicalize_url(url)
        return c, parse_host(c)
    return scheme + host + path, host


def url_host(url: str) -> str:
    """The host a URL is routed by: the host of its canonical form
    (lowercase, no userinfo, no port). Every shard router calls this,
    so a canonical URL always lands on the shard that dedups it."""
    return canonicalize_and_host(url)[1]


def parse_host(url: str) -> str:
    """Hostname of a URL, '' when unparseable (reference domain_count.js:41-42)."""
    try:
        return (urlsplit(url).hostname or "").lower()
    except ValueError:
        return ""


def truncate_host_labels(host: str, keep: int = 3) -> str:
    """Keep the last ``keep`` dot-labels (reference domain_count.js:43-44)."""
    labels = host.split(".")
    return ".".join(labels[-keep:]) if len(labels) > keep else host


def canonicalize_urls_series(urls):
    """VECTORIZED ``canonicalize_url`` for pandas Series of
    ``scheme://netloc[path][?query][#fragment]`` URLs (rows without
    ``://``, or with ``[`` or ``@`` in the netloc, take the scalar
    parser) — the batch path for seed-list / snapshot dedup where per-row
    urlsplit would dominate (at 10^10 frontier URLs the scalar parser
    is the bottleneck; this is ~40x faster). Semantics are pinned
    equal to the scalar function on the supported shape by
    tests/test_session11_ops.py (fuzz corpus incl. empty path, empty
    query, default/explicit ports, mixed case, fragments).

    Steps mirror canonicalize_url: strip → drop fragment → lowercase
    scheme/host → strip default port → empty path becomes '/' →
    reassemble keeping the query byte-for-byte (order untouched),
    dropping a bare trailing '?'.
    """
    import pandas as pd

    s = pd.Series(urls, dtype="object").fillna("").astype(str).str.strip()
    nofrag = s.str.partition("#")[0]
    trip = nofrag.str.partition("://")
    scheme = trip[0].str.lower()
    rest = trip[2]
    qsplit = rest.str.partition("?")
    pre, query = qsplit[0], qsplit[2]
    # netloc = pre up to first '/', path = remainder ('' if none) —
    # one vectorized extract, greedy [^/]* stops at the first slash
    m = pre.str.extract(r"^([^/]*)(.*)$", expand=True)
    netloc, path = m[0].fillna(""), m[1].fillna("")
    hsplit = netloc.str.partition(":")
    host = hsplit[0].str.lower()
    port = hsplit[2]
    default = scheme.map(_DEFAULT_PORTS).fillna("")
    keep_port = (port != "") & (port != default)
    netloc_c = host.where(~keep_port, host + ":" + port)
    path_c = path.where(path != "", "/")
    out = scheme + "://" + netloc_c + path_c
    out = out.where(query == "", out + "?" + query)
    # off the supported shape (no scheme, IPv6 literal, userinfo): the
    # scalar parser
    odd = (trip[1] == "") | netloc.str.contains(r"[\[@]", regex=True)
    if odd.any():
        out[odd] = s[odd].map(canonicalize_url)
    return out
