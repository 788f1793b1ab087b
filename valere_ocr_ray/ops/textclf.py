"""Text quality classifier: hashed-token features + distributed
logistic regression (the fastText / CCNet-style quality-scoring step).

LLM curation pipelines score every document with a cheap linear
classifier over hashed token features (CCNet's fastText LM filter,
GPT-3's WebText-vs-CommonCrawl quality model).  The engine's shape:

    featurize   map_batches → token hashes mod ``dim`` →
                L2-normalized count vector per doc.  Feature hashing
                needs no vocabulary — no build pass, no broadcast
                dictionary, identical on every node.
    train       full-batch gradient descent via ``ops/linear``'s
                broadcast-weights → per-batch gradient partials →
                keyed-sum loop: the driver only ever holds the
                (k, dim+1) weights; the corpus streams per epoch.
                A SUM of per-batch gradients is order-independent, so
                training is partition-invariant (pinned by test) —
                the property SGD would give up.
    score       one map_batches with the broadcast weights → per-doc
                class probability column.

Reference parity: no analog (the reference never trains a model);
part of the training-data-pipeline suite, sibling of
``ops/linear.linear_probe_fit`` (embedding-side) — this is the
text-side twin with feature hashing instead of fixed vectors.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data

from valere_ocr_ray.ops.hashing import md5_upper


def hashed_features(texts: list[str], dim: int) -> np.ndarray:
    """(n, dim) float64 — L2-normalized hashed token-count vectors."""
    out = np.zeros((len(texts), dim), dtype=np.float64)
    for i, t in enumerate(texts):
        toks = str(t).split()
        if not toks:
            continue
        h = md5_upper(toks)
        np.add.at(out[i], (h % np.uint64(dim)).astype(np.int64), 1.0)
        norm = np.linalg.norm(out[i])
        if norm > 0:
            out[i] /= norm
    return out


def add_hashed_features(ds: ray.data.Dataset, *, dim: int = 256) -> ray.data.Dataset:
    """Append the hashed feature vector column ``feat`` (list<float64>)
    of the ``text`` column."""

    def f(df: pd.DataFrame) -> pd.DataFrame:
        feats = hashed_features(df["text"].tolist(), dim)
        df = df.copy()
        df["feat"] = list(feats)
        return df

    return ds.map_batches(f, batch_format="pandas")


def fit_text_classifier(
    ds: ray.data.Dataset,
    *,
    dim: int = 256,
    epochs: int = 10,
    lr: float = 2.0,
):
    """Two-class fit of ``label`` on ``text``; returns ``(weights
    (2, dim+1), history)``.  The feature column is computed inside the
    lazy pipeline, so each epoch streams the corpus through hashing +
    gradient without materializing features."""
    from valere_ocr_ray.ops.linear import linear_probe_fit

    feat = add_hashed_features(ds.select_columns(["text", "label"]), dim=dim)
    return linear_probe_fit(feat, 2, epochs=epochs, lr=lr, vec_col="feat")


def score_text_classifier(
    ds: ray.data.Dataset,
    weights: np.ndarray,
) -> ray.data.Dataset:
    """Append P(class 1 | doc) of the ``text`` column as ``p_class1`` —
    the quality score column.  Weights are broadcast once
    (``ray.put``); one vectorized pass."""
    dim = weights.shape[1] - 1
    wref = ray.put(np.asarray(weights, dtype=np.float64))

    def f(df: pd.DataFrame) -> pd.DataFrame:
        w = ray.get(wref)
        x = hashed_features(df["text"].tolist(), dim)
        x = np.hstack([x, np.ones((len(x), 1))])
        logits = x @ w.T
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        df = df.copy()
        df["p_class1"] = p[:, 1] if w.shape[0] > 1 else p[:, 0]
        return df

    return ds.map_batches(f, batch_format="pandas")
