"""Content-defined chunking (CDC) dedup — gear rolling hash.

The reference computes file integrity hashes in FIXED 4096-byte read
chunks (``IDD/SearchingS3Buckets/S3LookThrough_Final.py:41-46``); a
fixed-offset chunking breaks dedup the moment one byte is inserted,
because every later chunk shifts.  CDC instead cuts where a rolling
hash of the last 64 bytes hits a mask, so chunk boundaries are a
function of LOCAL CONTENT: an edit perturbs only the chunks around it
and the chunk stream re-synchronizes at the next surviving cut point.
That is the property storage/dedup systems need at 100 TB — near-
identical documents (boilerplate re-crawls, versioned pages) share
almost all their chunk hashes even when their bytes are shifted.

Public scheme: gear hash CDC (Xia et al., "Ddelta"/"FastCDC", USENIX
ATC 2016 — simplified here to the plain gear criterion without the
normalized-chunking two-mask refinement).  The gear recurrence
``h = (h << 1) + GEAR[b]`` makes ``h`` depend on exactly the last 64
bytes (older contributions shift out of the 64-bit word), so it IS a
rolling window hash with no explicit subtraction, and it vectorizes as
a 64-tap shifted convolution in numpy.  The GEAR table derives
deterministically from md5 of each byte value — no RNG, stable across
processes (the repo-wide determinism contract).

Scale shape of ``cdc_dedup_stats``: chunking is per-row inside
``map_batches`` (embarrassingly parallel); per-block chunk hashes are
pre-aggregated (hash → count, bytes) BEFORE the one hash exchange, so
the wire carries ints only, one row per distinct chunk per block; each
exchange partition reduces to a single stats row.  Driver state: one
stat row per partition of the exchange's derived width, regardless of
corpus size.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data

from valere_ocr_ray.ops.hashing import md5_upper

# deterministic 256-entry gear table: md5_number_upper of each byte
# value (full 64-bit entropy per entry)
_GEAR = md5_upper([bytes([i]) for i in range(256)])

_WINDOW = 64  # gear window = word width: older bytes have shifted out

# chunk bounds and cut mask: a cut needs the hash's low MASK_BITS bits
# zero (expected chunk ≈ 2^MASK_BITS bytes) and MIN_CHUNK..MAX_CHUNK bytes
MIN_CHUNK = 64
MASK_BITS = 8
MAX_CHUNK = 2048


def gear_hashes(data: np.ndarray) -> np.ndarray:
    """Rolling gear hash at every position of a uint8 buffer:
    ``h[i] = sum_{j<64} GEAR[data[i-j]] << j  (mod 2^64)`` — the closed
    form of ``h = (h << 1) + GEAR[b]``, computed as 64 shifted
    vectorized adds instead of a per-byte Python loop."""
    n = len(data)
    g = _GEAR[data]
    h = np.zeros(n, dtype=np.uint64)
    for j in range(min(_WINDOW, n)):
        h[j:] += g[: n - j] << np.uint64(j)  # uint64 add wraps mod 2^64
    return h


def chunk_spans(data: bytes) -> list[tuple[int, int]]:
    """Chunk boundaries of ``data``: cut AFTER position i when the
    rolling hash has its low ``MASK_BITS`` bits zero, subject to
    ``MIN_CHUNK``/``MAX_CHUNK``.  The min/max walk runs over the
    (sparse) candidate list, not the bytes.
    Returns [start, end) spans covering the buffer exactly."""
    n = len(data)
    if n == 0:
        return []
    buf = np.frombuffer(data, dtype=np.uint8)
    mask = np.uint64((1 << MASK_BITS) - 1)
    cand = np.flatnonzero((gear_hashes(buf) & mask) == 0) + 1  # cut AFTER i
    spans: list[tuple[int, int]] = []
    start, ci = 0, 0
    while start < n:
        limit = min(start + MAX_CHUNK, n)
        cut = limit
        while ci < len(cand) and cand[ci] <= limit:
            if cand[ci] - start >= MIN_CHUNK:
                cut = int(cand[ci])
                ci += 1
                break
            ci += 1
        spans.append((start, cut))
        start = cut
    return spans


def chunk_hashes(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """(hashes int64[], sizes int64[]) of the CDC chunks of ``data`` —
    chunk identity = ``md5_number_upper`` of the chunk's bytes
    (signed view, matching the repo's 64-bit hash convention)."""
    spans = chunk_spans(data)
    hs = md5_upper([data[a:b] for a, b in spans]).view(np.int64)
    sizes = np.fromiter((b - a for a, b in spans), dtype=np.int64, count=len(spans))
    return hs, sizes


def cdc_dedup_stats(ds: ray.data.Dataset) -> pd.DataFrame:
    """Corpus-level CDC dedup audit of the ``text`` column: one exact row
    ``{total_chunks, unique_chunks, dup_chunks, total_bytes, dup_bytes}``
    where dup_bytes = bytes a chunk-store would NOT store again
    (sum over distinct chunks of (count-1)·size).

    Per block: chunk every value, pre-aggregate (hash → n, size);
    ONE int-only hash exchange co-locates each chunk hash; each
    non-empty partition folds to a single stats row in its own task;
    the driver sums those rows."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        hs_all, sz_all = [], []
        for v in df["text"]:
            data = v.encode("utf-8", "surrogatepass") if isinstance(v, str) else bytes(v)
            hs, sz = chunk_hashes(data)
            hs_all.append(hs)
            sz_all.append(sz)
        if not hs_all:
            return pd.DataFrame(
                {
                    "h": pd.Series([], dtype="int64"),
                    "size": pd.Series([], dtype="int64"),
                    "n": pd.Series([], dtype="int64"),
                }
            )
        out = pd.DataFrame(
            {"h": np.concatenate(hs_all), "size": np.concatenate(sz_all)}
        )
        g = out.groupby("h", as_index=False).agg(
            size=("size", "first"), n=("size", "size")
        )
        g["n"] = g["n"].astype("int64")
        return g

    from valere_ocr_ray.ops.exchange import partition_map

    pre = ds.map_batches(partial, batch_format="pandas")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("h").agg(size=("size", "first"), n=("n", "sum"))
        return pd.DataFrame(
            {
                "total_chunks": [np.int64(g["n"].sum())],
                "unique_chunks": [np.int64(len(g))],
                "total_bytes": [np.int64((g["size"] * g["n"]).sum())],
                "dup_bytes": [np.int64((g["size"] * (g["n"] - 1)).sum())],
            }
        )

    stats = partition_map(pre, ["h"], fold).to_pandas()
    # a corpus without chunks folds no partition: every total is 0
    cols = ["total_chunks", "unique_chunks", "total_bytes", "dup_bytes"]
    out = stats.reindex(columns=cols, fill_value=0).sum()
    return pd.DataFrame(
        {
            "total_chunks": [np.int64(out["total_chunks"])],
            "unique_chunks": [np.int64(out["unique_chunks"])],
            "dup_chunks": [np.int64(out["total_chunks"] - out["unique_chunks"])],
            "total_bytes": [np.int64(out["total_bytes"])],
            "dup_bytes": [np.int64(out["dup_bytes"])],
        }
    )
