"""Text quality classifier: hashed-n-gram features + distributed
logistic regression (the fastText / CCNet-style quality-scoring step).

LLM curation pipelines score every document with a cheap linear
classifier over hashed token features (CCNet's fastText LM filter,
GPT-3's WebText-vs-CommonCrawl quality model).  The engine's shape:

    featurize   map_batches → token (and optional bigram) hashes mod
                ``dim`` → L2-normalized count vector per doc.  Feature
                hashing needs no vocabulary — no build pass, no
                broadcast dictionary, identical on every node.
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


def hashed_features(texts: list[str], dim: int, *, bigrams: bool = False) -> np.ndarray:
    """(n, dim) float64 — L2-normalized hashed token-count vectors."""
    out = np.zeros((len(texts), dim), dtype=np.float64)
    for i, t in enumerate(texts):
        toks = str(t).split()
        if not toks:
            continue
        h = md5_upper(toks)
        if bigrams and len(toks) > 1:
            with np.errstate(over="ignore"):
                bg = h[:-1] * np.uint64(0x9E3779B97F4A7C15) ^ h[1:]
            h = np.concatenate([h, bg])
        np.add.at(out[i], (h % np.uint64(dim)).astype(np.int64), 1.0)
        norm = np.linalg.norm(out[i])
        if norm > 0:
            out[i] /= norm
    return out


def add_hashed_features(
    ds: ray.data.Dataset,
    *,
    dim: int = 256,
    text_col: str = "text",
    out_col: str = "feat",
    bigrams: bool = False,
) -> ray.data.Dataset:
    """Append the hashed feature vector column (list<float64>)."""

    def f(df: pd.DataFrame) -> pd.DataFrame:
        feats = hashed_features(df[text_col].tolist(), dim, bigrams=bigrams)
        df = df.copy()
        df[out_col] = list(feats)
        return df

    return ds.map_batches(f, batch_format="pandas")


def fit_text_classifier(
    ds: ray.data.Dataset,
    *,
    dim: int = 256,
    epochs: int = 10,
    lr: float = 2.0,
    text_col: str = "text",
    label_col: str = "label",
    n_classes: int = 2,
    bigrams: bool = False,
):
    """Returns ``(weights (k, dim+1), history)``.  The feature column
    is computed inside the lazy pipeline, so each epoch streams the
    corpus through hashing + gradient without materializing features."""
    from valere_ocr_ray.ops.linear import linear_probe_fit

    feat = add_hashed_features(
        ds.select_columns([text_col, label_col]),
        dim=dim,
        text_col=text_col,
        bigrams=bigrams,
    )
    return linear_probe_fit(
        feat, n_classes, epochs=epochs, lr=lr, vec_col="feat", label_col=label_col
    )


def score_text_classifier(
    ds: ray.data.Dataset,
    weights: np.ndarray,
    *,
    text_col: str = "text",
    out_col: str = "p_class1",
    bigrams: bool = False,
) -> ray.data.Dataset:
    """Append P(class 1 | doc) — the quality score column.  Weights are
    broadcast once (``ray.put``); one vectorized pass."""
    dim = weights.shape[1] - 1
    wref = ray.put(np.asarray(weights, dtype=np.float64))

    def f(df: pd.DataFrame) -> pd.DataFrame:
        w = ray.get(wref)
        x = hashed_features(df[text_col].tolist(), dim, bigrams=bigrams)
        x = np.hstack([x, np.ones((len(x), 1))])
        logits = x @ w.T
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        df = df.copy()
        df[out_col] = p[:, 1] if w.shape[0] > 1 else p[:, 0]
        return df

    return ds.map_batches(f, batch_format="pandas")
