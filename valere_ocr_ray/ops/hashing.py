"""The one home of the engine's md5 and splitmix64 hashes.

* :func:`md5_upper` / :func:`md5_lower` are DuckDB's
  ``md5_number_upper`` / ``md5_number_lower``: md5 digest bytes 0-8 /
  8-16 read little-endian.  Every SQL oracle that replays an engine
  hash (mixing and split thresholds, DSIR buckets, the md5 members of
  the MinHash / SimHash / fingerprint families, KMV and HLL sketches)
  rests on this equivalence, pinned by ``tests/test_hashing.py``.
* :func:`mix64` is the splitmix64 finalizer: it avalanches integer keys
  and the linear crc32 token hash.
* :func:`distinct` is the one dedupe step for callers whose values
  repeat within a batch: hash each distinct value once, then gather.
  Strings are encoded in Arrow, which compares them whole; pandas 2.2's
  object factorize ends a string at its first NUL, so ``'x'`` and
  ``'x\\x00y'`` would share one code.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array (wraps mod 2^64)."""
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


def _md5_words(values) -> np.ndarray:
    """(n, 2) little-endian u64 words of each value's md5 digest; a
    ``str`` hashes as its UTF-8 bytes."""
    md5 = hashlib.md5
    buf = b"".join(
        [md5(v if type(v) is bytes else v.encode()).digest() for v in values]
    )
    return np.frombuffer(buf, dtype="<u8").reshape(-1, 2)


def md5_upper(values) -> np.ndarray:
    """``md5_number_upper`` of every value (``str`` or ``bytes``), in
    order: digest bytes 0-8, little-endian, as uint64."""
    return _md5_words(values)[:, 0].astype(np.uint64)


def md5_lower(values) -> np.ndarray:
    """``md5_number_lower`` of every value (``str`` or ``bytes``), in
    order: digest bytes 8-16, little-endian, as uint64."""
    return _md5_words(values)[:, 1].astype(np.uint64)


def distinct(values) -> tuple[np.ndarray, Sequence]:
    """``(codes, uniques)`` with ``uniques[codes[i]] == values[i]``,
    uniques in first-seen order; a null is a value of its own.  A
    numeric array takes pandas' factorize (4× faster on int64 keys);
    anything else is encoded in Arrow."""
    if getattr(values, "dtype", np.dtype(object)).kind in "biuf":
        return pd.factorize(values, sort=False, use_na_sentinel=False)
    if not len(values):
        return np.zeros(0, dtype=np.int64), []
    enc = pc.dictionary_encode(pa.array(values), null_encoding="encode")
    return enc.indices.to_numpy(), enc.dictionary.to_pylist()
