"""Distributed linear probe (softmax regression) over an embedding
column — the standard "train a linear classifier on frozen embeddings"
evaluation, as full-batch gradient descent on Ray Data: each epoch
broadcasts the weight matrix once (``ray.put``), every batch computes
its gradient contribution vectorized (one matmul + softmax), and the
k×(d+1) partials sum over one keyed exchange (``grouped_sum``) — the
driver only ever holds the weights.  Full-batch (not SGD) because a sum
of per-batch gradients is order-independent and mergeable, which is
exactly what the keyed sum gives; the corpus is re-read per epoch
(streams at any scale, never pinned).

Reference parity: no analog (the reference never trains); part of the
added training-data suite (SURVEY.md round-2 delta).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data


def linear_probe_fit(
    ds: ray.data.Dataset,
    n_classes: int,
    *,
    epochs: int = 10,
    lr: float = 1.0,
    vec_col: str = "embedding",
):
    """Fits ``label`` on ``vec_col``.  Returns ``(weights (k, d+1)
    ndarray, history DataFrame with per-epoch mean loss and training
    accuracy)``.  Deterministic up to float summation order (~1e-12
    relative)."""
    from valere_ocr_ray.ops.exchange import grouped_sum

    first = ds.take(1)[0]
    d = len(first[vec_col])
    W = np.zeros((n_classes, d + 1), dtype=np.float64)
    gcols = [f"g{j}" for j in range(d + 1)]
    hist = []

    for _ in range(epochs):
        wref = ray.put(W)

        def partial(df: pd.DataFrame) -> pd.DataFrame:
            cols = {
                "cls": pd.Series([], dtype="int64"),
                "n": pd.Series([], dtype="int64"),
                "loss": pd.Series([], dtype="float64"),
                "correct": pd.Series([], dtype="int64"),
            }
            cols.update({g: pd.Series([], dtype="float64") for g in gcols})
            if not len(df):
                return pd.DataFrame(cols)
            w = ray.get(wref)
            x = np.stack(df[vec_col].to_numpy()).astype(np.float64)
            x = np.hstack([x, np.ones((len(x), 1))])  # bias column
            y = df["label"].to_numpy().astype(np.int64)
            logits = x @ w.T
            logits -= logits.max(axis=1, keepdims=True)
            p = np.exp(logits)
            p /= p.sum(axis=1, keepdims=True)
            loss = float(-np.log(p[np.arange(len(y)), y] + 1e-300).sum())
            correct = int((p.argmax(axis=1) == y).sum())
            delta = p
            delta[np.arange(len(y)), y] -= 1.0  # (n, k)
            grad = delta.T @ x  # (k, d+1), summed over rows
            # n/loss/correct are per-batch totals replicated per class
            # row; divide by k on readout (documented below).  Build
            # all columns in one dict → no per-insert fragmentation.
            cols_out = {
                "cls": np.arange(w.shape[0], dtype="int64"),
                "n": np.full(w.shape[0], len(y), dtype="int64"),
                "loss": np.full(w.shape[0], loss / w.shape[0], dtype="float64"),
                "correct": np.full(w.shape[0], correct, dtype="int64"),
            }
            cols_out.update({g: grad[:, j] for j, g in enumerate(gcols)})
            return pd.DataFrame(cols_out)

        agg = grouped_sum(
            ds.map_batches(partial, batch_format="pandas"),
            ["cls"],
            ["n", "loss", "correct"] + gcols,
        ).to_pandas()
        agg = agg.sort_values("cls").reset_index(drop=True)
        # n/correct were replicated across the k class rows; loss was
        # pre-divided by k, so its sum is already the corpus total
        n_total = int(agg["n"].iloc[0])
        n_correct = int(agg["correct"].iloc[0])
        total_loss = float(agg["loss"].sum())
        grad = agg[gcols].to_numpy()
        W = W - lr * grad / max(n_total, 1)
        hist.append(
            {
                "loss": total_loss / max(n_total, 1),
                "accuracy": n_correct / max(n_total, 1),
            }
        )

    return W, pd.DataFrame(hist)
