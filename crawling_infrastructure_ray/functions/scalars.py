"""Scalar / math helpers.

Reimplements the reference's small utility surface (SURVEY.md §2.9):
``average`` (reference lib/misc/stats.ts:5-18), ``gaussian`` Box-Muller
politeness jitter (lib/misc/stats.ts:29-54), ``formatBytes`` /
``timeFormat`` (lib/misc/helpers.ts:96-128), ``chunk``
(lib/misc/helpers.ts:181-191) — plus seeded RNG construction used for
deterministic per-partition randomness (M8 replacement).
"""

from __future__ import annotations

import numpy as np


def average(values) -> float:
    """Mean of a numeric sequence; 0.0 for empty (reference lib/misc/stats.ts:5-18)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return 0.0
    return float(arr.mean())


def gaussian(mean: float, stddev: float, rng: np.random.Generator | None = None) -> float:
    """Abs-value normal sample (reference Box-Muller, lib/misc/stats.ts:29-54).

    The reference takes ``Math.abs`` of the sample so sleeps are never
    negative; we mirror that.
    """
    rng = rng if rng is not None else np.random.default_rng()
    return abs(float(rng.normal(mean, stddev)))


def format_bytes(n: float) -> str:
    """Human-readable bytes (reference lib/misc/helpers.ts:96-110)."""
    if n == 0:
        return "0 Bytes"
    units = ["Bytes", "KB", "MB", "GB", "TB", "PB", "EB", "ZB", "YB"]
    i = int(np.floor(np.log(abs(n)) / np.log(1024)))
    i = max(0, min(i, len(units) - 1))
    return f"{n / 1024 ** i:.2f} {units[i]}"


def time_format(ms: float) -> str:
    """ms → 'Dd Hh Mm Ss' string (reference lib/misc/helpers.ts:112-128)."""
    seconds = int(ms // 1000)
    d, rem = divmod(seconds, 86400)
    h, rem = divmod(rem, 3600)
    m, s = divmod(rem, 60)
    parts = []
    if d:
        parts.append(f"{d}d")
    if h:
        parts.append(f"{h}h")
    if m:
        parts.append(f"{m}m")
    parts.append(f"{s}s")
    return " ".join(parts)


def chunk(seq, size: int):
    """Split a sequence into lists of ``size`` (reference lib/misc/helpers.ts:181-191)."""
    if size <= 0:
        raise ValueError("chunk size must be positive")
    seq = list(seq)
    return [seq[i:i + size] for i in range(0, len(seq), size)]


def seeded_rng(seed: int, *streams) -> np.random.Generator:
    """Deterministic per-partition RNG.

    Replaces the reference's unseeded UA/viewport/locale randomizers
    (crawler/src/helpers.ts:28-59) with reproducible randomness keyed by
    (seed, *streams) so parallel runs are replayable. Stream keys are
    derived with the process-stable ``stable_hash64`` (Python's
    ``hash()`` is salted per process, which would give each Ray worker
    a different stream for the same key).
    """
    from .hashing import stable_hash64
    ss = np.random.SeedSequence(
        [seed & 0xFFFFFFFF, *[stable_hash64(str(s)) & 0xFFFFFFFF for s in streams]])
    return np.random.default_rng(ss)
