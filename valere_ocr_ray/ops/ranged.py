"""Range-partitioned parquet layout + predicate-pruned reads.

The keyed exchange (``ops/exchange.py``) co-locates keys per run; this
module co-locates RANGES at rest, which is what time/size/score
predicates want: write once partitioned by sampled quantile
boundaries of a sort column, then a range query opens ONLY the
partitions whose [lo, hi) interval intersects the predicate — I/O
proportional to selectivity, not corpus size.  The 100-TB pattern for event-time
windows, length-sliced corpora, score-band exports.

Boundaries come from a bounded random sample (``Dataset.take`` over a
sampled fraction capped at ``MAX_SAMPLE`` rows on the driver — constant
memory), so partitions are approximately equal-weight even for skewed
distributions.  The boundary list is persisted to
``out_dir/_range_meta.json`` making the layout self-describing;
``read_range`` needs no external state.

Layout: ``out_dir/__range=<i>/*.parquet`` (Hive), partition i holding
rows with ``boundaries[i] <= col < boundaries[i+1]`` (first/last
partitions unbounded below/above).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data


MAX_SAMPLE = 100_000  # boundary-sample rows the driver may hold


def _meta_path(out_dir: str) -> str:
    return os.path.join(out_dir, "_range_meta.json")


def write_ranged(
    ds: ray.data.Dataset,
    out_dir: str,
    col: str,
    *,
    n_partitions: int = 16,
) -> list[float]:
    """Write ``ds`` range-partitioned on ``col``; returns the interior
    boundary values (len = n_partitions - 1).  Sampling is a seeded
    ``random_sample`` capped at ``MAX_SAMPLE`` rows — the only driver
    materialization, bounded regardless of corpus size."""
    n_rows = ds.count()
    frac = min(1.0, MAX_SAMPLE / max(n_rows, 1))
    sample = ds.select_columns([col]).random_sample(frac, seed=0).take_all()
    vals = np.sort(np.array([r[col] for r in sample], dtype=np.float64))
    if not len(vals):
        raise ValueError("empty sample — cannot derive range boundaries")
    qs = np.linspace(0, 1, n_partitions + 1)[1:-1]
    bounds = np.unique(np.quantile(vals, qs)).tolist()

    def tag(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        p = np.searchsorted(np.asarray(bounds), v, side="right").astype(np.int64)
        return batch.append_column("__range", pa.array(p, pa.int64()))

    ds.map_batches(tag, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["__range"]
    )
    with open(_meta_path(out_dir), "w") as f:
        json.dump({"col": col, "boundaries": bounds}, f)
    return bounds


def range_partitions_for(
    out_dir: str, lo: float | None, hi: float | None
) -> tuple[list[str], dict]:
    """Partition directories whose value interval intersects [lo, hi)
    — the prune decision, exposed separately so tests can assert I/O
    proportionality."""
    with open(_meta_path(out_dir)) as f:
        meta = json.load(f)
    bounds = meta["boundaries"]
    n_parts = len(bounds) + 1
    # partition i spans [bounds[i-1], bounds[i]) with open outer ends
    first = 0 if lo is None else int(np.searchsorted(bounds, lo, side="right"))
    last = n_parts - 1 if hi is None else int(
        np.searchsorted(bounds, hi, side="left")
    )
    dirs = [
        os.path.join(out_dir, f"__range={i}")
        for i in range(first, last + 1)
        if os.path.isdir(os.path.join(out_dir, f"__range={i}"))
    ]
    return dirs, meta


def read_range(
    out_dir: str, lo: float | None = None, hi: float | None = None
) -> ray.data.Dataset:
    """Rows with ``lo <= col < hi`` (either side unbounded when None):
    opens only the intersecting partitions, then applies the exact
    residual predicate vectorized — identical rows to a full scan +
    filter, at selectivity-proportional I/O."""
    dirs, meta = range_partitions_for(out_dir, lo, hi)
    col = meta["col"]
    if not dirs:
        raise FileNotFoundError(f"no range partitions under {out_dir}")
    # a LIST of paths must be files in ray.data.read_parquet — expand
    files = [
        os.path.join(d, f)
        for d in dirs
        for f in sorted(os.listdir(d))
        if f.endswith(".parquet")
    ]
    ds = ray.data.read_parquet(files)

    def residual(df: pd.DataFrame) -> pd.DataFrame:
        m = pd.Series(True, index=df.index)
        if lo is not None:
            m &= df[col] >= lo
        if hi is not None:
            m &= df[col] < hi
        out = df[m]
        return out.drop(columns=["__range"], errors="ignore")

    return ds.map_batches(residual, batch_format="pandas")
