"""DSIR-style importance weights for data selection (Xie et al. 2023,
"Data Selection for Language Models via Importance Resampling").

Estimates per-document ``log p_target(x) - log p_raw(x)`` under
bag-of-hashed-ngrams (unigram+bigram) multinomial models:

1. **Feature hashing** — grams hash into ``K`` buckets via DuckDB's
   ``md5_number_lower`` (``ops/hashing.md5_lower``) mod K, so the SQL
   oracle reproduces bucket assignment bit-for-bit.  Only DISTINCT grams
   per batch are hashed (``hashing.distinct`` → hash → gather).
2. **Corpus bucket counts** — per-block partial (bucket, c_target,
   c_raw) rows (≤K per block on the wire, never text), summed over
   one keyed exchange to a ≤K-row table.  The driver holds 2·K ints —
   bounded however large the corpus.
3. **Log-ratio table** — Laplace-smoothed
   ``floor((ln((ct+1)/(T+K)) - ln((cr+1)/(R+K))) * 1e6)`` as int64,
   broadcast once via ``ray.put``.
4. **Scoring** — stateless ``map_batches``: each doc's weight is the
   int64 sum of its gram buckets' scaled log-ratios (exact integer
   arithmetic → summation-order-proof, hash-comparable to SQL).

At 100 TB: stages 2/4 are single passes; the only all-to-all is the
≤K-row bucket-count combine.  Raising K trades driver memory for hash
collisions (K·16 bytes broadcast per worker).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import ray
import ray.data

from valere_ocr_ray.ops.hashing import distinct, md5_lower

_TOKEN_RE = re.compile(r"[a-z0-9]+")

DEFAULT_K = 1024
_SCALE = 1_000_000


def _bucket_of_grams(grams: pd.Series, k: int) -> np.ndarray:
    """md5_number_lower(g) % k for each gram — hashing distinct grams only."""
    codes, uniques = distinct(grams)
    return (md5_lower(uniques) % np.uint64(k)).astype(np.int64)[codes]


def _doc_grams(df: pd.DataFrame, text_col: str) -> pd.DataFrame:
    """Explode each doc into its unigram+bigram rows: (doc_id, gram)."""
    toks = df[text_col].astype(str).str.lower().str.findall(_TOKEN_RE)
    uni = df[["doc_id"]].assign(gram=toks).explode("gram").dropna(subset=["gram"])
    bi_lists = toks.map(
        lambda t: [f"{a} {b}" for a, b in zip(t, t[1:])] if len(t) > 1 else []
    )
    bi = df[["doc_id"]].assign(gram=bi_lists).explode("gram").dropna(subset=["gram"])
    return pd.concat([uni, bi], ignore_index=True)


def bucket_count_partials(
    ds: ray.data.Dataset,
    *,
    target_source: str,
    k: int = DEFAULT_K,
    text_col: str = "text",
) -> ray.data.Dataset:
    """Per-block (bucket, c_target, c_raw) partials — ≤K rows per block."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        grams = _doc_grams(df, text_col)
        if grams.empty:
            return pd.DataFrame(
                {
                    "bucket": np.zeros(0, np.int64),
                    "c_target": np.zeros(0, np.int64),
                    "c_raw": np.zeros(0, np.int64),
                }
            )
        src = df.set_index("doc_id")["source"]
        b = _bucket_of_grams(grams["gram"], k)
        is_t = (src.reindex(grams["doc_id"]).to_numpy() == target_source)
        c_raw = np.bincount(b, minlength=k)
        c_tgt = np.bincount(b[is_t], minlength=k)
        nz = np.flatnonzero(c_raw)
        return pd.DataFrame(
            {
                "bucket": nz.astype(np.int64),
                "c_target": c_tgt[nz].astype(np.int64),
                "c_raw": c_raw[nz].astype(np.int64),
            }
        )

    return ds.map_batches(partial, batch_format="pandas")


def log_ratio_table(counts: pd.DataFrame, k: int = DEFAULT_K) -> np.ndarray:
    """K-vector of Laplace-smoothed scaled log ratios (int64).

    Mirrors the SQL oracle exactly: division before ``ln``, then
    ``floor(x * 1e6)``.
    """
    ct = np.zeros(k, dtype=np.int64)
    cr = np.zeros(k, dtype=np.int64)
    ct[counts["bucket"].to_numpy()] = counts["c_target"].to_numpy()
    cr[counts["bucket"].to_numpy()] = counts["c_raw"].to_numpy()
    t_tot, r_tot = int(ct.sum()), int(cr.sum())
    lr = np.log((ct + 1.0) / (t_tot + k)) - np.log((cr + 1.0) / (r_tot + k))
    return np.floor(lr * _SCALE).astype(np.int64)


def dsir_weights(
    ds: ray.data.Dataset,
    *,
    target_source: str,
    k: int = DEFAULT_K,
    text_col: str = "text",
) -> ray.data.Dataset:
    """Per-doc (doc_id, n_grams, weight_scaled) — docs with ≥1 gram."""
    from valere_ocr_ray.ops.exchange import grouped_sum

    partials = bucket_count_partials(
        ds, target_source=target_source, k=k, text_col=text_col
    )
    counts = grouped_sum(partials, ["bucket"], ["c_target", "c_raw"]).to_pandas()
    # the log-ratio table is K int64s (8 KB at the default K) — small
    # enough to ship inside the task closure itself: task pools reuse
    # the session's warm workers (no actor process spin-up), and the
    # table serializes once per task submission, not per row.  For a
    # large K (≥1M buckets) switch to ray.put + a pool of actors.
    lrs = log_ratio_table(counts, k)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        grams = _doc_grams(df, text_col)
        if grams.empty:
            return pd.DataFrame(
                {
                    "doc_id": np.zeros(0, np.int64),
                    "n_grams": np.zeros(0, np.int64),
                    "weight_scaled": np.zeros(0, np.int64),
                }
            )
        b = _bucket_of_grams(grams["gram"], len(lrs))
        per = pd.DataFrame(
            {
                "doc_id": grams["doc_id"].to_numpy(dtype=np.int64),
                "w": lrs[b],
            }
        )
        agg = per.groupby("doc_id", as_index=False).agg(
            n_grams=("w", "size"), weight_scaled=("w", "sum")
        )
        return agg.astype(
            {"doc_id": "int64", "n_grams": "int64", "weight_scaled": "int64"}
        )

    return ds.map_batches(score, batch_format="pandas")
