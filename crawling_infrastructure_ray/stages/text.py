"""Text-analysis stages for training-data pipelines.

No direct reference analog (the reference stores raw blobs); these are
the large-scale-training-data additions required by the rebuild spec:
language ID (character/stopword n-gram heuristic), quality scoring
(length / punctuation / stopword ratios), token counting (whitespace +
BPE-ish regex), and winnowing document fingerprints.

All are vectorized ``map_batches`` bodies over the ``documents``
table's ``text`` column; the language model (stopword sets, compiled
regexes) is module-level state compiled once per worker process, so
the stages run as tasks and need no actor pool.

Tokenization contract (INTENDED, documented): counting/splitting uses
Arrow RE2 kernels, whose ``\\s``/``\\w`` classes are ASCII-only —
non-ASCII whitespace/word chars are treated as ordinary characters.
This is a deliberate engine-wide choice: it keeps the Ray kernels, the
DuckDB oracle SQL (also RE2), and the sequential Python goldens
byte-identical on the same input, which is what the correctness gate
hashes. A Unicode-aware tokenizer would be a different operator, not a
fix to this one.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.tokenize import split_ws

# langid tokenization (per-row model scoring). Explicit ASCII
# whitespace class — the engine-wide token contract is Python
# str.split() semantics restricted to ASCII, and the DuckDB oracles
# use the SAME class via sqlmirror.tokens_sql (note: RE2's \s is
# [\t\n\f\r ] WITHOUT \v, so a bare '\s+' on either side would
# diverge on vertical tabs; a bare Python r"\s+" would additionally
# be Unicode-aware)
_WS_RE = re.compile(r"[ \t\n\r\f\v]+")
# token/quality counting uses Arrow RE2 kernels (count_substring_regex)
# — the BPE-ish pattern ("[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]+", the GPT-2
# pre-tokenizer family, public) and the punct class live inline there

_STOPWORDS = {
    "en": {"the", "a", "of", "and", "to", "in", "is", "it", "that", "for"},
    "es": {"el", "la", "de", "que", "y", "en", "un", "una", "los", "por"},
    "de": {"der", "die", "das", "und", "ist", "von", "mit", "den", "ein", "zu"},
    "fr": {"le", "la", "de", "et", "les", "des", "un", "une", "est", "dans"},
}


def _ws_token_counts(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Whitespace token counts, fully vectorized: tokens of
    ``split(strip(t))`` = (number of interior ``\\s+`` runs) + 1 for
    non-empty stripped text, 0 otherwise — all Arrow RE2 kernels."""
    stripped = pc.utf8_trim_whitespace(pc.fill_null(col, ""))
    runs = pc.count_substring_regex(stripped, r"\s+") \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    nonempty = pc.not_equal(stripped, "").to_numpy(zero_copy_only=False)
    return np.where(nonempty, runs + 1, 0)


def token_count_batch(batch: pa.Table, column: str = "text") -> pa.Table:
    """(doc_id, n_tokens, n_bpeish) — whitespace and BPE-ish counts.

    Vectorized: Arrow RE2 `count_substring_regex` kernels, no per-row
    Python."""
    col = pc.fill_null(batch[column], "")
    n_ws = _ws_token_counts(col)
    n_bpe = pc.count_substring_regex(col, r"[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]+") \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table({"doc_id": batch["doc_id"],
                     "n_tokens": pa.array(n_ws),
                     "n_bpeish": pa.array(n_bpe)})


def quality_score_batch(batch: pa.Table, column: str = "text") -> pa.Table:
    """(doc_id, n_chars_q, avg_token_len_e3, punct_ratio_e4) quality
    features in exact integer milli/1e-4 units (cross-engine float
    rounding at binary midpoints is non-deterministic — see q_q1 note).

    avg_token_len_e3 = floor(1000 * mean whitespace-token length);
    punct_ratio_e4   = floor(10000 * punctuation chars / total chars).
    """
    col = pc.fill_null(batch[column], "")
    nchars = pc.utf8_length(col).to_numpy(zero_copy_only=False).astype(np.int64)
    n_toks = _ws_token_counts(col)
    # sum of token lengths == non-whitespace character count
    non_ws = pc.utf8_length(pc.replace_substring_regex(col, r"\s", "")) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    n_punct = pc.count_substring_regex(col, r"[^\w\s]") \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    avg_len = np.where(n_toks > 0, (non_ws * 1000) // np.maximum(n_toks, 1), 0)
    punct = np.where(nchars > 0, (n_punct * 10000) // np.maximum(nchars, 1), 0)
    return pa.table({"doc_id": batch["doc_id"],
                     "n_chars_q": pa.array(nchars),
                     "avg_token_len_e3": pa.array(avg_len),
                     "punct_ratio_e4": pa.array(punct)})


def langid_batch(batch: pa.Table, column: str = "text") -> pa.Table:
    """(doc_id, lang_pred, lang_score_e4) — stopword-hit heuristic.

    Scores each language by stopword hit count over the shared token
    count (same denominator, so the argmax is over INTEGER hit counts
    — ties break in dict order en>es>de>fr, first-wins); CJK detection
    by codepoint range over the first 200 chars. Deterministic; 'und'
    when no evidence. ``lang_score_e4`` = floor(10000 * best hit-rate)
    in exact integer 1e-4 units (cross-engine float rounding at binary
    midpoints is non-deterministic — the engine-wide convention), which
    is what makes this query oracle-SQL-checkable (DuckDB twin in
    pipelines/training.ORACLE_SQL_TRAINING).
    """
    texts = batch[column].to_pylist()
    preds, scores = [], []
    for t in texts:
        t = (t or "").lower()
        if any("一" <= c <= "鿿" for c in t[:200]):
            preds.append("zh")
            scores.append(10000)
            continue
        toks = _WS_RE.split(t.strip()) if t.strip() else []
        best_lang, best = "und", 0
        for lang, sw in _STOPWORDS.items():
            hits = sum(1 for w in toks if w in sw)
            if hits > best:
                best_lang, best = lang, hits
        preds.append(best_lang if best > 0 else "und")
        scores.append((best * 10000) // len(toks) if toks else 0)
    return pa.table({"doc_id": batch["doc_id"],
                     "lang_pred": pa.array(preds, pa.string()),
                     "lang_score_e4": pa.array(scores, pa.int64())})


def span_text(spans) -> pa.Array:
    """Each document's text spans joined by " " in span order ("" when
    it has none): the one span→text rule, used by the ingest simhash,
    curation and on-demand fingerprints. One ``binary_join`` over the
    flattened text spans, no per-document Python."""
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    offs = spans.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = spans.values.slice(offs[0], offs[-1] - offs[0])
    is_text = pc.equal(flat.field("kind"), "text")
    # per-document offsets into the kept (text) spans
    kept = np.concatenate(
        ([0], np.cumsum(is_text.to_numpy(zero_copy_only=False))))
    lists = pa.ListArray.from_arrays(
        pa.array(kept[offs - offs[0]], pa.int32()),
        flat.field("text").filter(is_text))
    return pc.binary_join(lists, " ")


# ----------------------------------------------------------------------
# repetition / diversity quality signals (Gopher-style filters;
# training-data addition, no reference analog)
# ----------------------------------------------------------------------
def repetition_stats_batch(batch: pa.Table, column: str = "text") -> pa.Table:
    """(doc_id, n_tokens, n_distinct, distinct_frac_e4, top_bigram_n,
    top_bigram_frac_e4) — the two classic repetition filters (token
    diversity and most-frequent-word-2-gram share, exact integer e4
    units). Fully vectorized: one whitespace split per batch, then
    factorize + np.unique/bincount/maximum.at over the flattened
    token stream — no per-doc Python loop. Embarrassingly parallel
    (per-doc outputs, no shuffle) — the right shape for a 100-TB
    quality-filter pass."""
    import pandas as pd
    stripped = pc.utf8_trim_whitespace(pc.fill_null(batch[column], ""))
    lists = split_ws(stripped)
    ndocs = len(lists)
    offs = lists.offsets.to_numpy(zero_copy_only=False)
    raw_lens = np.diff(offs).astype(np.int64)
    # empty-trimmed text splits to [""]: one bogus token; override to 0
    empty = np.asarray(pc.equal(stripped, "").to_numpy(zero_copy_only=False))
    n_tok = np.where(empty, 0, raw_lens)

    flat = lists.flatten().to_numpy(zero_copy_only=False)
    n_distinct = np.zeros(ndocs, dtype=np.int64)
    top_bg = np.zeros(ndocs, dtype=np.int64)
    if len(flat):
        codes, uniq = pd.factorize(flat)
        doc_idx = np.repeat(np.arange(ndocs, dtype=np.int64), raw_lens)
        k = len(uniq)
        dk = np.unique(doc_idx * k + codes)
        n_distinct = np.bincount(dk // k, minlength=ndocs).astype(np.int64)
        # bigrams: adjacent token pairs within the same doc
        same = doc_idx[1:] == doc_idx[:-1]
        if same.any():
            bg = codes[:-1][same].astype(np.int64) * k + codes[1:][same]
            bg_codes, bg_uniq = pd.factorize(bg)
            nb = len(bg_uniq)
            bkey = doc_idx[:-1][same] * nb + bg_codes
            ukb, cb = np.unique(bkey, return_counts=True)
            np.maximum.at(top_bg, ukb // nb, cb.astype(np.int64))
    n_distinct = np.where(empty, 0, n_distinct)
    top_bg = np.where(empty, 0, top_bg)
    nb_tot = np.maximum(n_tok - 1, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        dfrac = np.where(n_tok > 0, n_distinct * 10000 // np.maximum(n_tok, 1), 0)
        bfrac = np.where(nb_tot > 0, top_bg * 10000 // np.maximum(nb_tot, 1), 0)
    return pa.table({
        "doc_id": batch["doc_id"],
        "n_tokens": pa.array(n_tok, pa.int64()),
        "n_distinct": pa.array(n_distinct, pa.int64()),
        "distinct_frac_e4": pa.array(dfrac.astype(np.int64)),
        "top_bigram_n": pa.array(top_bg, pa.int64()),
        "top_bigram_frac_e4": pa.array(bfrac.astype(np.int64)),
    })


# ----------------------------------------------------------------------
# PII redaction (training-data addition; no reference analog)
# ----------------------------------------------------------------------
# ASCII patterns, RE2 syntax — runs on Arrow's RE2 kernels so the
# whole scrub is vectorized (replace + count per batch, no Python per
# row). The synthetic driver corpus contains no PII, so this stage is
# pinned by crafted-input pytest (tests/test_text_and_search.py)
# rather than a driver query.
PII_PATTERNS: list[tuple[str, str, str]] = [
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",
     "<EMAIL>"),
    ("ipv4", r"\b(?:[0-9]{1,3}\.){3}[0-9]{1,3}\b", "<IP>"),
    ("phone", r"\+?[0-9][0-9()\-. ]{7,}[0-9]", "<PHONE>"),
]


def redact_batch(batch: pa.Table, column: str = "text") -> pa.Table:
    """(doc_id, text, n_redactions) — scrub emails / phone-ish spans /
    IPv4s with typed placeholders. Patterns apply in declaration order
    (email and ipv4 run before phone because the phone class would
    otherwise swallow dotted/dashed digit runs; placeholders contain
    no pattern characters, so no re-matching)."""
    col = pc.fill_null(batch[column], "")
    n_red = np.zeros(len(col), dtype=np.int64)
    for _, pat, repl in PII_PATTERNS:
        n_red += pc.count_substring_regex(col, pat) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        col = pc.replace_substring_regex(col, pat, repl)
    return pa.table({"doc_id": batch["doc_id"], "text": col,
                     "n_redactions": pa.array(n_red)})


# hashed-linear-classifier weight space: w(token) =
# (stable_hash64(token) % QC_MOD) - QC_BIAS, an integer in
# [-1000, 1000]. The hashing-trick linear model (public fasttext /
# Vowpal-Wabbit shape) with integer-quantized weights so the logit is
# EXACT and the DuckDB oracle can recompute it bit-for-bit — a real
# model would ship learned weights as a broadcast array; the scoring
# plumbing (per-batch vectorized featurize → weight lookup → per-doc
# reduce) is identical.
QC_MOD = 2001
QC_BIAS = 1000


def classifier_score_batch(batch: pa.Table,
                           column: str = "text") -> pa.Table:
    """Hashed linear quality-classifier scoring: logit(doc) = sum over
    token occurrences of w(token). Fully vectorized — one whitespace split,
    factorize so only DISTINCT tokens pay the string hash, bincount
    per doc (weights are |w| <= 1000 ints and docs are < 2^40 tokens,
    so the float64 bincount accumulator stays exact far below 2^53).
    Embarrassingly parallel; no shuffle."""
    import pandas as pd

    from ..functions.hashing import stable_hash64_np

    stripped = pc.utf8_trim_whitespace(pc.fill_null(batch[column], ""))
    lists = split_ws(stripped)
    ndocs = len(lists)
    offs = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    raw_lens = np.diff(offs)
    empty = np.asarray(pc.equal(stripped, "").to_numpy(zero_copy_only=False))
    n_tok = np.where(empty, 0, raw_lens)

    logit = np.zeros(ndocs, dtype=np.int64)
    if int(raw_lens.sum()):
        flat = lists.flatten().to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(flat)
        w = (stable_hash64_np(uniq) % np.uint64(QC_MOD)).astype(np.int64) \
            - QC_BIAS
        docidx = np.repeat(np.arange(ndocs), raw_lens)
        valid = ~empty[docidx]  # empty docs split to a single '' token
        logit = np.bincount(docidx[valid], weights=w[codes][valid],
                            minlength=ndocs).astype(np.int64)
    return pa.table({
        "doc_id": batch["doc_id"],
        "logit": pa.array(logit, pa.int64()),
        "n_tokens": pa.array(n_tok, pa.int64()),
        "keep": pa.array((logit > 0).astype(np.int64), pa.int64())})


# ----------------------------------------------------------------------
# canonical text normalization (the pre-dedup normalization pass every
# training-data pipeline runs before exact/near dedup)
# ----------------------------------------------------------------------
def normalize_text_batch(batch: pa.Table, column: str = "text") -> pa.Table:
    """(doc_id, n_norm_tokens, norm_len, tokhash_sum) — canonical
    normalization: lowercase, every non-[a-z0-9] run collapses to one
    space, edges trimmed. The normalized string is tokens joined by
    single spaces; ``tokhash_sum`` (wrapping uint64 sum of
    stable_hash64 over the normalized tokens) pins CONTENT, not just
    lengths — the same gate shape as chunk_documents.

    Fully vectorized: two Arrow RE2 kernels (lower + replace), one
    split, factorize so only DISTINCT normalized tokens pay the string
    hash. Embarrassingly parallel per doc — no shuffle; at scale the
    normalized column streams straight into the dedup stages."""
    import pandas as pd

    from ..functions.hashing import stable_hash64_np

    col = pc.fill_null(batch[column], "")
    norm = pc.utf8_trim_whitespace(pc.replace_substring_regex(
        pc.utf8_lower(col), r"[^a-z0-9]+", " "))
    norm_len = pc.utf8_length(norm).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    lists = pc.split_pattern(norm, " ")
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    ndocs = len(lists)
    raw_lens = np.diff(lists.offsets.to_numpy(zero_copy_only=False)
                       .astype(np.int64))
    empty = norm_len == 0
    n_tok = np.where(empty, 0, raw_lens)

    hsum = np.zeros(ndocs, dtype=np.uint64)
    if int(raw_lens.sum()):
        flat = lists.flatten().to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(flat)
        th = stable_hash64_np(uniq)[codes]
        docidx = np.repeat(np.arange(ndocs), raw_lens)
        valid = ~empty[docidx]  # empty norm splits to a single '' token
        # wrapping uint64 per-doc sum (np.add.at wraps, never promotes)
        with np.errstate(over="ignore"):
            np.add.at(hsum, docidx[valid], th[valid])
    return pa.table({
        "doc_id": batch["doc_id"],
        "n_norm_tokens": pa.array(n_tok, pa.int64()),
        "norm_len": pa.array(norm_len, pa.int64()),
        "tokhash_sum": pa.array(hsum, pa.uint64())})
