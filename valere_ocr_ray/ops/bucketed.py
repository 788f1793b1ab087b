"""Key-bucketed parquet layout: co-locate rows by key hash AT REST.

The exchange (``ops/exchange.py``) co-locates keys per execution; this
module makes the co-location durable — write once bucketed by
``hash(key) % n_buckets``, then every later grouped computation over
the same key reads bucket-aligned files and needs NO shuffle at all
("pick ONE partitioning key and reuse it across stages").  This is the
100 TB pattern for pipelines that hit the same key repeatedly
(per-user sessionization, per-domain aggregation, incremental joins):
pay the exchange once at ingest, never again.

Layout: ``out_dir/__bucket=<i>/*.parquet`` (Hive) — a bucket is the
unit of read parallelism AND the co-location guarantee; readers fan
out one task per bucket.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data


def write_bucketed(
    ds: ray.data.Dataset,
    out_dir: str,
    keys: Sequence[str],
    *,
    n_buckets: int = 16,
) -> None:
    """Write ``ds`` partitioned by ``hash(keys) % n_buckets`` (same
    deterministic hash as the exchange, so bucket files line up with
    ``hash_exchange`` partitions of the same key and count)."""
    from valere_ocr_ray.ops.exchange import _key_hash

    keys = list(keys)

    def tag(batch: pa.Table) -> pa.Table:
        b = (_key_hash(batch, keys) % np.uint64(n_buckets)).astype(np.int64)
        return batch.append_column("__bucket", pa.array(b, pa.int64()))

    ds.map_batches(tag, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["__bucket"]
    )


def grouped_map_bucketed(
    bucketed_dir: str,
    fn: Callable[[pd.DataFrame], pd.DataFrame],
    keys: Sequence[str],
    *,
    min_group_size: int = 1,
) -> ray.data.Dataset:
    """``groupby(keys).map_groups(fn)`` over a bucketed layout with
    ZERO shuffle: every key's rows already live in exactly one bucket
    directory, so each bucket is one partition of the exchange's
    pre-partitioned side — its blocks, however many the read makes,
    meet in one fold that runs ``grouped_map``'s per-partition body
    (same contract as ``exchange.grouped_map`` — fn(empty frame) must
    return an empty frame with fn's output columns)."""
    import glob
    import os

    from valere_ocr_ray.ops.exchange import _map_groups, partition_map

    bucket_dirs = sorted(glob.glob(os.path.join(bucketed_dir, "__bucket=*")))
    if not bucket_dirs:
        raise FileNotFoundError(f"no __bucket=* dirs under {bucketed_dir}")
    # materialize() first: to_arrow_refs() alone runs the plan twice (Ray 2.49)
    buckets = [
        list(ray.data.read_parquet(d).materialize().to_arrow_refs())
        for d in bucket_dirs
    ]
    per_bucket = functools.partial(_map_groups, list(keys), fn, min_group_size)
    return partition_map(buckets, None, per_bucket)
