"""Mergeable top-k operators — no sort shuffle.

``tree_topk``: exact global top-k — per-block top-k, then the same
kernel as the merge of ``exchange.tree_reduce`` (top-k of unioned
top-k's == global top-k).  ``keyed_topn``: per-key top-n — per-block
partial top-n, one hash exchange, final top-n per key.

Keyed aggregates (sum/min/max per key) are not here: they run on the
exchange (``ops/exchange.grouped_agg``).
"""

from __future__ import annotations

from collections.abc import Sequence

import pandas as pd
import ray.data

from valere_ocr_ray.ops.exchange import partition_map, tree_reduce


def tree_topk(
    ds: ray.data.Dataset,
    sort_cols: Sequence[str],
    ascending: Sequence[bool],
    k: int,
) -> ray.data.Dataset:
    """Exact global top-k WITHOUT an all-to-all sort shuffle: top-k is
    mergeable (top-k of unioned top-k's == global top-k), so each block
    keeps only its k best rows and ``tree_reduce`` merges them, at most
    8 blocks of top-k's per task — the data crossing the wire is about
    ``k × n_blocks`` rows, not the dataset.  The result is one block.
    ``sort_cols``/``ascending`` must produce a total order (include a
    unique tiebreak column) for run-to-run determinism."""
    sort_cols = list(sort_cols)
    ascending = list(ascending)

    def head(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(sort_cols, ascending=ascending, kind="stable").head(k)

    return ray.data.from_arrow_refs([tree_reduce(ds, head, head)])


def keyed_topn(
    ds: ray.data.Dataset,
    keys: Sequence[str],
    sort_cols: Sequence[str],
    ascending: Sequence[bool],
    n: int,
    *,
    rank_col: str | None = None,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Per-key top-n — the distributed
    ``ROW_NUMBER() OVER (PARTITION BY keys ORDER BY sort_cols) <= n``
    window — WITHOUT a global sort shuffle.

    Per-key top-n is mergeable, so each input block first keeps only
    its n best rows per key (bounding the exchange to ``n`` rows per
    key per block), then a hash exchange co-locates each key and one
    vectorized pass takes the final top-n and stamps ``rank_col``
    (1-based, dense within key).  ``sort_cols`` must include a unique
    tiebreak column for run-to-run determinism — same contract as
    ``tree_topk``."""
    keys, sort_cols, ascending = list(keys), list(sort_cols), list(ascending)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(sort_cols, ascending=ascending, kind="stable")
        return df.groupby(keys, sort=False).head(n)

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(sort_cols, ascending=ascending, kind="stable")
        out = df.groupby(keys, sort=False).head(n).copy()
        if rank_col is not None:
            out[rank_col] = (out.groupby(keys).cumcount() + 1).astype("int64")
        return out

    pre = ds.map_batches(partial, batch_format="pandas")
    return partition_map(pre, keys, final, num_partitions=num_partitions)
