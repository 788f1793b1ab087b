"""Leakage-safe train/holdout splitting.

Splitting a training corpus by ``hash(doc_id)`` silently leaks: exact
and near duplicates of a held-out document land in the training side,
and the holdout stops measuring generalization (the GPT-2/GPT-3 eval
contamination problem; same failure class as benchmark contamination,
``ops/decontam``).  The fix is to make the side assignment a pure
function of an EQUIVALENCE-CLASS key rather than of the document id:

* :func:`holdout_split` keys the decision on the md5 of the document
  TEXT — byte-identical duplicates provably co-locate, in one
  vectorized ``map_batches`` pass with ZERO exchanges (membership is a
  pure function of content, so any worker / partitioning / retry
  agrees).  This is the 100-TB-cheap default.
* :func:`holdout_split_by_key` keys it on an arbitrary precomputed
  column — pass a near-dup cluster representative (``ops/dedup
  .cluster_labels`` over verified MinHash pairs) and entire near-dup
  clusters co-locate; pass a url host and whole sites co-locate
  (domain-disjoint eval).

Decision rule (same hash-threshold construction as ``ops/mixing`` /
``ops/dsir``, DuckDB-mirrorable bit for bit)::

    holdout(x)  <=>  md5_number_lower(salt || ':' || key(x)) % SCALE
                         <  round(holdout_rate * SCALE)

Changing ``salt`` draws an independent split; raising the rate only
GROWS the holdout (threshold semantics), so a 1% smoke holdout is a
subset of the 10% one.

Reference parity: the reference routes documents into disjoint
per-class S3 prefixes by content type (IDD/finalcodes/import
os1.py:88-131); this lifts "disjoint routing" to "disjoint by content
equivalence class with a governed rate".
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import ray.data

from valere_ocr_ray.ops.hashing import distinct, md5_lower
from valere_ocr_ray.ops.mixing import SCALE


def _assign_side(
    keys: pd.Series, *, threshold: int, salt: str
) -> np.ndarray:
    h = md5_lower(salt + ":" + keys.astype(str))
    return np.where(h % np.uint64(SCALE) < threshold, "holdout", "train")


def holdout_split_by_key(
    ds: ray.data.Dataset,
    *,
    key_col: str,
    holdout_rate: float,
    salt: str = "holdout",
) -> ray.data.Dataset:
    """Assign ``split`` in {'holdout','train'} as a deterministic
    hash-threshold function of ``key_col`` — every row sharing a key
    value lands on the same side.  One stateless vectorized pass."""
    thr = int(round(min(max(float(holdout_rate), 0.0), 1.0) * SCALE))

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df.assign(split=pd.Series([], dtype=object))
        return df.assign(split=_assign_side(df[key_col], threshold=thr, salt=salt))

    return ds.map_batches(assign, batch_format="pandas")


def holdout_split(
    ds: ray.data.Dataset,
    *,
    holdout_rate: float,
    text_col: str = "text",
    salt: str = "holdout",
) -> ray.data.Dataset:
    """Exact-duplicate-safe split into a ``split`` column: the side is
    a function of
    ``md5(text)``, so byte-identical documents can NEVER straddle the
    train/holdout boundary, whatever their ids, sources or partitions.
    Zero exchanges — the scale path for "carve a clean eval set out of
    100 TB".  (For near-duplicate safety, precompute a cluster
    representative and use :func:`holdout_split_by_key`.)"""
    thr = int(round(min(max(float(holdout_rate), 0.0), 1.0) * SCALE))

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df.assign(split=pd.Series([], dtype=object))
        # content key = md5 hex of the text (unique-only hashing: dup
        # texts are the POINT of this op, so the dedupe pays for itself)
        codes, uniques = distinct(df[text_col].astype(str))
        hexes = np.array(
            [hashlib.md5(u.encode()).hexdigest() for u in uniques], dtype=object
        )[codes]
        side = _assign_side(
            pd.Series(hexes, index=df.index), threshold=thr, salt=salt
        )
        return df.assign(split=side)

    return ds.map_batches(assign, batch_format="pandas")
