"""Custom hash exchange on raw Ray tasks (SURVEY.md custom-operator
path (c) — used ONLY where the Dataset API is the bottleneck).

``Dataset.groupby(...)`` in Ray 2.49 runs a sort-based shuffle whose
reduce costs ~1 ms per distinct key (measured: 16 s for a 15k-key
aggregate of 60k rows), which makes high-cardinality grouped ops —
LSH bucket pairing, big keyed aggregates — shuffle-bound.  This module
implements the keyed exchange directly, as ONE core (``_exchange``)
and two per-partition tasks:

    core:    read each input's blocks ONCE, probe (rows, bytes,
             schema), drop empty blocks, derive the width, then one
             split task per block → P sub-tables by key hash
    _gather: one task per partition → concat its sub-tables
             (``hash_exchange``, and through it ``grouped_map`` /
             ``grouped_agg``)
    _cofold: one task per partition → concat each side's sub-tables
             and run ``fn(left_df, right_df)`` (``cogroup_exchange``,
             the one co-group: each side keeps its own schema)

After the exchange every key lives in exactly ONE output block (or
partition pair), so any grouped computation becomes a whole-block
pandas/Arrow kernel (C-speed ``df.groupby``), no per-group framework
overhead.

Hashing is deterministic across processes (splitmix64 for integer
keys, crc32 for strings — same primitives as ops/dedup), so results
are reproducible and partition-count-invariant; an integer key hashes
by its int64 value whatever its width, so the two sides of a co-group
may key on differently typed integer columns.  Memory: the exchange
materializes the input (it IS a barrier); each gather holds one
partition — ``num_partitions`` must be large enough that the largest
partition fits a worker (same contract as any hash shuffle; salt hot
keys upstream).  The DEFAULT (``num_partitions=None``) derives the
width from the probed input bytes (of both sides for a co-group),
``ceil(total_bytes / TARGET_PARTITION_BYTES)`` with a CPU-count
parallelism floor, so the same caller code is scale-safe unmodified
from sf0.01 to 100 TB (VERDICT r4: a fixed 16-way gather holds
corpus/16 per task at 100×).

Contract: key columns must be NON-NULL (a null integer key turns the
column float on the numpy path, and pandas ``groupby`` silently drops
null keys — filter or fill nulls upstream, as every caller here does).
"""

from __future__ import annotations

import zlib
from collections.abc import Callable, Mapping, Sequence
from typing import NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data


# a gather task materializes ONE partition in worker heap (plus the
# pandas kernel that runs on it) — 128 MiB of Arrow per partition keeps
# gather + kernel well under a 1–2 GiB worker budget at any corpus size
TARGET_PARTITION_BYTES = 128 * 2**20
# backstop against pathological task fan-out (num_returns per split
# task == num_partitions); beyond this, shard the exchange itself
MAX_PARTITIONS = 65536


def _auto_partitions(total_bytes: int) -> int:
    """Size-derived exchange width: enough partitions that each gather
    holds ≤ TARGET_PARTITION_BYTES; medium inputs widen toward the CPU
    count (but never below ~2 MiB per partition, so toy inputs don't
    fan out into near-empty gather tasks)."""
    total_bytes = int(total_bytes)
    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    # ≥ ~2 MiB per partition: the per-partition combine is CPU-bound
    # pandas work, so a small exchange should still fan out to the
    # cluster (measured: an 8 MiB grain capped a 40 MB exchange at 5
    # gathers and held 8→32 efficiency to 0.48); 2 MiB keeps toy
    # inputs narrow while mid-size exchanges reach the CPU count
    fine = -(-total_bytes // (2 * 2**20))
    floor = max(2, min(cpus, 64, fine))
    by_bytes = -(-total_bytes // TARGET_PARTITION_BYTES)
    return min(max(floor, by_bytes), MAX_PARTITIONS)


def _mix64(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


def _key_hash(table: pa.Table, keys: Sequence[str]) -> np.ndarray:
    """Deterministic uint64 hash of the key column(s), vectorized for
    integer keys; strings via crc32 (C loop)."""
    acc = np.zeros(table.num_rows, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for k in keys:
            col = table[k]
            if pa.types.is_integer(col.type):
                v = col.to_numpy(zero_copy_only=False).astype(np.int64).view(np.uint64)
            else:
                v = np.fromiter(
                    (zlib.crc32(str(s).encode()) for s in col.to_pylist()),
                    dtype=np.uint64,
                    count=table.num_rows,
                )
            acc = _mix64(acc * np.uint64(0x9E3779B97F4A7C15) ^ _mix64(v))
    return acc


def hash_split(table: pa.Table, keys: Sequence[str], p: int) -> list[pa.Table]:
    """The exchange's split kernel: ``p`` sub-tables, sub-table i
    holding the rows with ``hash(keys) % p == i`` in input order."""
    part = (_key_hash(table, keys) % np.uint64(p)).astype(np.int64)
    order = np.argsort(part, kind="stable")
    sorted_tbl = table.take(pa.array(order))
    bounds = np.searchsorted(part[order], np.arange(p + 1))
    return [sorted_tbl.slice(bounds[i], bounds[i + 1] - bounds[i]) for i in range(p)]


_split = ray.remote(hash_split)


@ray.remote
def _probe(table: pa.Table) -> tuple[int, int, pa.Schema]:
    return table.num_rows, table.nbytes, table.schema


def _concat_casted(schema: pa.Schema, parts: Sequence[pa.Table]) -> pa.Table:
    live = [t for t in parts if t.num_rows]
    if not live:
        return schema.empty_table()
    # schema-drift tolerance: a pandas stage can infer a divergent
    # dtype in one rare block (all-null string column → null type, int
    # column gone float) — cast each part to the probed canonical
    # schema, falling back to a permissive promote, so one odd block
    # degrades gracefully instead of failing the partition (ADVICE r1)
    casted = []
    for t in live:
        if t.schema != schema:
            try:
                t = t.select(schema.names).cast(schema)
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError, KeyError):
                pass  # genuinely different shape → permissive concat below
        casted.append(t)
    try:
        return pa.concat_tables(casted).combine_chunks()
    except pa.ArrowInvalid:
        return pa.concat_tables(
            casted, promote_options="permissive"
        ).combine_chunks()


@ray.remote
def _gather(schema: pa.Schema, *parts: pa.Table) -> pa.Table:
    return _concat_casted(schema, parts)


class _Side(NamedTuple):
    refs: list  # every block of the side, read once
    schema: pa.Schema  # canonical: first non-empty block's
    splits: list  # per non-empty block, its p sub-table refs


def _exchange(
    sides: Sequence[tuple[ray.data.Dataset, Sequence[str]]],
    num_partitions: int | None,
) -> tuple[int, list[_Side]]:
    """The one exchange core: read every side's blocks, probe them,
    drop the empty ones, pick each side's canonical schema, derive the
    width from the probed bytes of all sides, and fan out one split
    task per non-empty block.  Returns ``(p, sides)``; ``p >= 2``
    because a split task returns ``p`` refs."""
    # materialize() first: Dataset.to_arrow_refs() alone runs the plan
    # and then fetches the schema by running it AGAIN (Ray 2.49), so an
    # upstream map or actor pool would execute twice
    reads = [list(ds.materialize().to_arrow_refs()) for ds, _ in sides]
    metas = ray.get([_probe.remote(r) for refs in reads for r in refs])
    if num_partitions is None:
        num_partitions = _auto_partitions(sum(b for _, b, _ in metas))
    p = max(2, num_partitions)
    out = []
    it = iter(metas)
    for (_, keys), refs in zip(sides, reads):
        m = [next(it) for _ in refs]
        live = [r for r, (n, _, _) in zip(refs, m) if n > 0]
        # Ray emits schema-less EMPTY blocks for empty inputs: the
        # canonical schema is the first non-empty block's
        schema = next(
            (s for n, _, s in m if n > 0), m[0][2] if m else pa.schema([])
        )
        keys = list(keys)
        splits = [_split.options(num_returns=p).remote(r, keys, p) for r in live]
        out.append(_Side(refs, schema, splits))
    return p, out


def hash_exchange(
    ds: ray.data.Dataset,
    keys: Sequence[str],
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Key-partitioned Dataset: every value of ``keys`` lands in exactly
    one output block (block i = hash(key) % num_partitions == i).
    ``num_partitions=None`` (the default) derives the width from the
    probed input bytes — see ``_auto_partitions``."""
    if num_partitions is not None and num_partitions < 2:
        return ds.repartition(1)  # one block == one partition, trivially keyed
    p, [side] = _exchange([(ds, keys)], num_partitions)
    if not side.splits:
        return ray.data.from_arrow_refs(side.refs).repartition(1)
    # every gathered partition is stamped with the canonical schema so
    # empty partitions stay consistent
    gathered = [
        _gather.remote(side.schema, *[s[i] for s in side.splits])
        for i in range(p)
    ]
    return ray.data.from_arrow_refs(gathered)


@ray.remote
def _cofold(
    fn: Callable[[pd.DataFrame, pd.DataFrame], pd.DataFrame],
    lschema: pa.Schema,
    rschema: pa.Schema,
    n_left: int,
    *parts: pa.Table,
) -> pa.Table:
    lt = _concat_casted(lschema, parts[:n_left])
    rt = _concat_casted(rschema, parts[n_left:])
    out = fn(lt.to_pandas(), rt.to_pandas())
    return pa.Table.from_pandas(out, preserve_index=False)


def cogroup_exchange(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    fn: Callable[[pd.DataFrame, pd.DataFrame], pd.DataFrame],
    *,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Two-sided keyed exchange — the generic co-group: BOTH datasets
    are hash-partitioned with the same hash and modulus (equal key
    values land in the same partition index on both sides), each side
    keeping its own schema, then ``fn(left_df, right_df)`` runs once
    per partition pair and the outputs form the result Dataset.

    Semi/anti/inner/outer equi-joins, co-grouped aggregates and set ops
    all fall out of this shape; data movement is one pass of each side,
    no all-to-all sort.  A side that is empty (or has zero blocks)
    reaches ``fn`` as an empty frame with its canonical columns (none
    for a zero-block side).  Contract (as ``grouped_map``): ``fn`` of
    an empty left partition must return an empty frame with fn's
    OUTPUT columns, so empty partitions keep a consistent schema."""
    p, (ls, rs) = _exchange([(left, left_keys), (right, right_keys)], num_partitions)
    outs = [
        _cofold.remote(
            fn,
            ls.schema,
            rs.schema,
            len(ls.splits),
            *[s[i] for s in ls.splits],
            *[s[i] for s in rs.splits],
        )
        for i in range(p)
    ]
    return ray.data.from_arrow_refs(outs)


def grouped_map(
    ds: ray.data.Dataset,
    keys: Sequence[str],
    fn: Callable[[pd.DataFrame], pd.DataFrame],
    *,
    num_partitions: int | None = None,
    min_group_size: int = 1,
) -> ray.data.Dataset:
    """``groupby(keys).map_groups(fn)`` semantics at hash-exchange speed:
    after the exchange, each block holds complete key groups, so ``fn``
    runs under a single in-block ``pandas.groupby`` (deterministic
    group order = sorted keys).

    ``min_group_size``: vectorized pre-filter dropping smaller groups
    BEFORE the per-group loop — pass 2 for pairing-style fns where
    singleton groups cannot contribute output (LSH buckets are mostly
    singletons, so this turns a 30k-group loop into a hundreds-group
    loop).  Only valid when fn(group) is empty for dropped sizes."""
    keys = list(keys)
    ex = hash_exchange(ds, keys, num_partitions)

    # contract: fn(empty frame) must return an empty frame with fn's
    # OUTPUT columns (so empty partitions keep a consistent schema)
    def per_block(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) and min_group_size > 1:
            sizes = df.groupby(keys)[keys[0]].transform("size")
            df = df[sizes >= min_group_size]
        if not len(df):
            return fn(df)
        outs = [fn(g) for _, g in df.groupby(keys, sort=True)]
        outs = [o for o in outs if len(o)]
        if not outs:
            return fn(df.iloc[0:0])
        return pd.concat(outs, ignore_index=True)

    return ex.map_batches(per_block, batch_format="pandas", batch_size=None)


def grouped_agg(
    ds: ray.data.Dataset,
    keys: Sequence[str],
    aggs: Mapping[str, str],
    *,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Exact keyed algebraic aggregate, one fold per column
    (``{"col": "sum"|"min"|"max"}``) — the one keyed-aggregate
    primitive, and the high-cardinality alternative to
    ``Dataset.groupby()`` (measured 145 s → 1.2 s on a 147k-key sum of
    600k rows).  Partial per input block, exchange, the same fold again
    per partition: every fold here is idempotent over re-grouping, so
    input rows may already be partials (mean/nunique are NOT — decompose
    those into sums).  Output: every key in exactly one block, no
    global order."""
    for how in aggs.values():
        if how not in ("sum", "min", "max"):
            raise ValueError(f"unsupported agg {how!r}")
    keys = list(keys)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(keys, as_index=False).agg(aggs)

    pre = ds.map_batches(fold, batch_format="pandas")
    ex = hash_exchange(pre, keys, num_partitions)
    return ex.map_batches(fold, batch_format="pandas", batch_size=None)


def grouped_sum(
    ds: ray.data.Dataset,
    keys: Sequence[str],
    sums: Sequence[str],
    *,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    return grouped_agg(
        ds, keys, {c: "sum" for c in sums}, num_partitions=num_partitions
    )
