"""The engine's one whitespace tokenizer."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def split_ws(strings) -> pa.ListArray:
    """Split each string on runs of ASCII whitespace (space and
    0x09-0x0D) into a list array, chunks combined. Same lists as
    ``split_pattern_regex(strings, r"[ \\t\\n\\r\\f\\v]+")`` — empty
    pieces at the ends included, nulls stay null — without the regex
    engine. Callers trim first, so that only an empty string gives an
    empty piece."""
    lists = pc.ascii_split_whitespace(strings)
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    return lists
