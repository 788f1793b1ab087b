"""Approximate distinct-count sketch (KMV / bottom-k) — mergeable,
partial-aggregable, deterministic.  Every global sketch here merges
through ``ops/exchange.tree_reduce`` (a per-block partial, then merge
tasks of at most 8 partial blocks each, down to one row); the per-key KMV
merges through one keyed exchange (``partition_map``).

A KMV (k-minimum-values) sketch keeps the k smallest 64-bit hashes of
the values seen; the distinct-count estimate is ``(k-1) * 2^63 /
kth_min`` (standard KMV estimator over the hash space), exact when
fewer than k distinct values were seen.  Merging = union + re-truncate,
so per-block sketches combine associatively — the aggregate ships k
int64s per block instead of every distinct value (the reason sketches
exist at 100 TB: a distinct-count over a shuffle becomes a
fixed-size-per-block combine).

Public scheme (Bar-Yossef et al., "Counting distinct elements in a
data stream", RANDOM 2002).  Hashing uses the TRUE-64-bit token hash
(``ops/hashing.md5_upper`` — first 8 md5 digest bytes; a crc32
pair was rejected because CRC's GF(2)-linearity leaves it ~32 bits of
entropy): the estimator assumes uniform
63-bit hashes, and a 32-bit base space would undercount past ~10^8
distinct tokens and saturate at 2^32 (ADVICE r1).  The 32-bit-base
hash remains only where that entropy provably suffices (minhash /
simhash signatures, partitioning).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data

from valere_ocr_ray.ops.exchange import partition_map, reduced_row, tree_reduce
from valere_ocr_ray.ops.hashing import md5_upper, mix64

_HASH_SPACE = float(1 << 63)  # hashes are right-shifted to 63-bit below


def kmv_from_hashes(hashes: np.ndarray, k: int) -> np.ndarray:
    """Bottom-k of 63-bit hash values (sorted ascending, deduped)."""
    if not len(hashes):
        return np.zeros(0, dtype=np.int64)
    h = np.unique((hashes >> np.uint64(1)).astype(np.int64))
    return h[:k] if len(h) > k else h


def kmv_merge(sketches: list[np.ndarray], k: int) -> np.ndarray:
    arrs = [s for s in sketches if len(s)]
    if not arrs:
        return np.zeros(0, dtype=np.int64)
    return np.unique(np.concatenate(arrs))[:k]


def kmv_estimate(sketch: np.ndarray, k: int) -> int:
    """Distinct-count estimate; exact while |sketch| < k."""
    if len(sketch) < k:
        return int(len(sketch))
    kth = float(sketch[k - 1])
    return int(round((k - 1) * _HASH_SPACE / max(kth, 1.0)))


def distinct_tokens_kmv(ds: ray.data.Dataset, *, k: int = 4096) -> int:
    """Approximate distinct lower-cased alpha-token count over the
    ``text`` column: per-block KMV partials → ``tree_reduce`` (sketches are
    associative, so every merge runs in a task) → ONE k-vector
    reaches the driver.  A driver-side merge of per-block sketches
    would hold n_blocks × k int64s (≈32 GB at 100 TB block counts);
    the tree keeps driver state at k int64s regardless of corpus
    size.  Same tokenization as the exact ``doc_distinct_tokens``
    oracle query (len >= 3 alpha runs)."""
    import re

    alpha = re.compile(r"[a-z]+")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = set()
        for t in df["text"]:
            toks.update(w for w in alpha.findall(t.lower()) if len(w) >= 3)
        sk = kmv_from_hashes(md5_upper(list(toks)), k)
        return pd.DataFrame({"sketch": [sk.tolist()]})

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        merged = kmv_merge(
            [np.asarray(s, dtype=np.int64) for s in df["sketch"]], k
        )
        return pd.DataFrame({"sketch": [merged.tolist()]})

    sketch = reduced_row(tree_reduce(ds, partial, merge)).get("sketch", [])
    return kmv_estimate(np.asarray(sketch, dtype=np.int64), k)


def _value_hashes64(values: pd.Series) -> np.ndarray:
    """Uniform 64-bit hashes of an arbitrary value column: integer
    dtypes vectorize through splitmix64; everything else routes through
    the string token hash (first 8 md5 digest bytes — full 64-bit
    entropy, same construction the KMV module header documents)."""
    v = values.to_numpy()
    if np.issubdtype(v.dtype, np.integer):
        return mix64(v.astype(np.int64).view(np.uint64))
    return md5_upper([str(x) for x in values])


def grouped_distinct_kmv(
    ds: ray.data.Dataset,
    keys: list[str],
    value_col: str,
    *,
    k: int = 65536,
    out_col: str = "distinct_est",
) -> ray.data.Dataset:
    """Approximate COUNT(DISTINCT value) PER KEY — one KMV sketch per
    group and block, merged per key after one keyed exchange (the
    ``combine.keyed_topn`` shape), so the output has one row per key
    spread over the exchange's blocks.  EXACT while a group's distinct count
    stays below ``k`` (the sketch still holds every distinct hash), so
    with k sized above the expected cardinality this value-matches the
    SQL oracle; beyond k it degrades to the ±1/sqrt(k) KMV estimate
    instead of blowing memory — each group costs at most k int64s at
    any stage, regardless of corpus size."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for key_vals, g in df.groupby(keys, sort=False):
            if not isinstance(key_vals, tuple):
                key_vals = (key_vals,)
            sk = kmv_from_hashes(_value_hashes64(g[value_col]), k)
            rows.append((*key_vals, sk.tolist()))
        return pd.DataFrame(rows, columns=[*keys, "sketch"])

    def final(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for key_vals, g in df.groupby(keys, sort=True):
            if not isinstance(key_vals, tuple):
                key_vals = (key_vals,)
            merged = kmv_merge(
                [np.asarray(s, dtype=np.int64) for s in g["sketch"]], k
            )
            rows.append((*key_vals, kmv_estimate(merged, k)))
        out = pd.DataFrame(rows, columns=[*keys, out_col])
        return out.astype({out_col: "int64"})

    pre = ds.map_batches(partial, batch_format="pandas")
    return partition_map(pre, keys, final)


# ---------------------------------------------------------------------------
# Mergeable quantile sketch (weighted-centroid compressor)
# ---------------------------------------------------------------------------

def quantile_sketch_from_values(values: np.ndarray, q: int) -> np.ndarray:
    """(2, m) sketch — row 0 sorted values, row 1 weights — compressed
    to at most ``q`` centroids at evenly spaced cumulative-weight
    positions (each centroid the weighted mean of its stratum).  Exact
    while n <= q."""
    v = np.sort(values.astype(np.float64))
    n = len(v)
    if n <= q:
        return np.vstack([v, np.ones(n)])
    edges = np.linspace(0, n, q + 1).astype(np.int64)
    sums = np.add.reduceat(v, edges[:-1])
    cnts = np.diff(edges).astype(np.float64)
    return np.vstack([sums / cnts, cnts])


def quantile_sketch_merge(sketches: list[np.ndarray], q: int) -> np.ndarray:
    """Weighted merge + recompress to q centroids (associative up to
    the compression error — per-merge error is O(1/q) in rank)."""
    live = [s for s in sketches if s.size]
    if not live:
        return np.zeros((2, 0))
    vals = np.concatenate([s[0] for s in live])
    wts = np.concatenate([s[1] for s in live])
    order = np.argsort(vals, kind="stable")
    vals, wts = vals[order], wts[order]
    if len(vals) <= q:
        return np.vstack([vals, wts])
    cum = np.cumsum(wts)
    total = cum[-1]
    edges = np.searchsorted(cum, np.linspace(0, total, q + 1)[1:-1], side="left")
    edges = np.unique(np.concatenate([[0], edges + 1, [len(vals)]]))
    sums = np.add.reduceat(vals * wts, edges[:-1])
    cnts = np.add.reduceat(wts, edges[:-1])
    return np.vstack([sums / np.maximum(cnts, 1e-12), cnts])


def quantile_sketch_query(sketch: np.ndarray, probs: list[float]) -> list[float]:
    """Quantile estimates by cumulative-weight interpolation."""
    if not sketch.size:
        return [float("nan")] * len(probs)
    vals, wts = sketch
    cum = np.cumsum(wts) - wts / 2.0
    total = wts.sum()
    return [float(np.interp(p * total, cum, vals)) for p in probs]


def column_quantiles_sketch(
    ds: ray.data.Dataset,
    col: str,
    probs: list[float],
    *,
    q: int = 1024,
) -> pd.DataFrame:
    """Approximate column quantiles via the mergeable sketch: per-block
    partials → ``tree_reduce`` → one (2, q) array on the driver.  The exact
    distributed percentile (``pipelines/queries.py`` global percentile)
    needs one exchange; this needs NONE and ships 2·q floats per block
    — the trade at 100 TB when ±0.1% rank error is acceptable."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        sk = quantile_sketch_from_values(df[col].to_numpy(), q)
        return pd.DataFrame({"sk": [sk.tolist()]})

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        # a (2, m) sketch reaches pandas as an array of two row arrays
        merged = quantile_sketch_merge(
            [np.vstack(s).astype(np.float64) for s in df["sk"]], q
        )
        return pd.DataFrame({"sk": [merged.tolist()]})

    sketch = reduced_row(tree_reduce(ds, partial, merge)).get("sk", [])
    est = quantile_sketch_query(np.asarray(sketch, dtype=np.float64), probs)
    return pd.DataFrame({"prob": probs, "quantile_est": est})


# ---------------------------------------------------------------------------
# HyperLogLog (Flajolet et al. 2007) — fixed 2^HLL_B registers, mergeable by
# elementwise max.  The register update is SQL-replayable bit-for-bit
# (same md5-derived 63-bit hash as KMV; rho via exact integer
# bit-length, never a float log), so the SKETCH STATE itself can be
# driver-oracled, not just an exact-regime twin.
# ---------------------------------------------------------------------------

HLL_B = 6  # 2^6 = 64 registers; std err 1.04/sqrt(64) ≈ 13%
_HLL_W_BITS = 63 - HLL_B  # 57 value bits below the register index


def _bit_length64(w: np.ndarray) -> np.ndarray:
    """Exact vectorized bit_length of nonnegative int64 values.  A
    float64 log2/frexp is WRONG near powers of two once w > 2^53 (a
    57-bit value like 2^57-1 rounds UP to 2^57), so split high/low: both
    halves are < 2^32 and convert to float64 exactly; frexp's exponent
    is then the exact bit length."""
    w = w.astype(np.int64)
    hi = w >> 32
    lo = w & 0xFFFFFFFF
    _, e_hi = np.frexp(hi.astype(np.float64))
    _, e_lo = np.frexp(lo.astype(np.float64))
    return np.where(hi > 0, 32 + e_hi, e_lo).astype(np.int64)


def hll_partial_from_hashes(hashes: np.ndarray) -> np.ndarray:
    """One block's register vector (length 2^HLL_B int64): register =
    top HLL_B bits of the 63-bit hash, rho = leading zeros of the
    remaining ``_HLL_W_BITS``-bit word + 1 (an all-zero word caps at
    ``_HLL_W_BITS`` + 1), register value = max rho seen.  Returns
    all-zero registers for an empty block so merges stay shape-stable."""
    regs = np.zeros(1 << HLL_B, dtype=np.int64)
    if not len(hashes):
        return regs
    h = (hashes >> np.uint64(1)).astype(np.int64)  # 63-bit space
    idx = h >> _HLL_W_BITS
    w = h & ((np.int64(1) << np.int64(_HLL_W_BITS)) - 1)
    rho = _HLL_W_BITS + 1 - _bit_length64(w)
    np.maximum.at(regs, idx, rho)
    return regs


def hll_merge(sketches: list[np.ndarray]) -> np.ndarray:
    arrs = [np.asarray(s, dtype=np.int64) for s in sketches if len(s)]
    if not arrs:
        return np.zeros(1 << HLL_B, dtype=np.int64)
    return np.maximum.reduce(arrs)


def hll_estimate(regs: np.ndarray) -> int:
    """Standard HLL estimator with the small-range linear-counting
    correction.  The harmonic sum is computed in EXACT integer units of
    2^-(w_bits+1) (python ints, no float accumulation order to match),
    so the same registers always produce the same estimate."""
    m = len(regs)
    wb = _HLL_W_BITS + 1
    s_int = sum(1 << (wb - int(r)) for r in regs)  # Σ 2^(wb-Mj), exact
    alpha = 0.7213 / (1.0 + 1.079 / m)
    est = alpha * m * m * float(1 << wb) / float(s_int)
    n_zero = int((regs == 0).sum())
    if est <= 2.5 * m and n_zero > 0:
        est = m * np.log(m / n_zero)
    return int(np.floor(est))


def grouped_hll(ds: ray.data.Dataset, value_col: str) -> np.ndarray:
    """Corpus-wide HLL over ``value_col``: per-block register partials
    (2^HLL_B int64s per block — constant, never the values) elementwise-max
    through ``tree_reduce``, as the KMV path merges.  Values
    hash through the md5 string path so SQL can replay every register."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        sk = hll_partial_from_hashes(
            _value_hashes64(df[value_col].astype(str).drop_duplicates())
        )
        return pd.DataFrame({"sketch": [sk.tolist()]})

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        merged = hll_merge([np.asarray(s, dtype=np.int64) for s in df["sketch"]])
        return pd.DataFrame({"sketch": [merged.tolist()]})

    regs = reduced_row(tree_reduce(ds, partial, merge)).get("sketch")
    return np.asarray(regs or np.zeros(1 << HLL_B), dtype=np.int64)
