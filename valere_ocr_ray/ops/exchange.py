"""Custom hash exchange on raw Ray tasks (SURVEY.md custom-operator
path (c) — used ONLY where the Dataset API is the bottleneck).

``Dataset.groupby(...)`` in Ray 2.49 runs a sort-based shuffle whose
reduce costs ~1 ms per distinct key (measured: 16 s for a 15k-key
aggregate of 60k rows), which makes high-cardinality grouped ops —
LSH bucket pairing, big keyed aggregates — shuffle-bound.  This module
implements the keyed exchange directly, as ONE core (``_exchange``):

    sides:     each side is ``(src, keys)``.  ``src`` is a Dataset
               (its blocks mapped by the caller's ``pre``, if any;
               empty blocks drop out) or a list of table refs (split
               ref by ref, no Dataset round trip); ``keys=None`` marks
               ``src`` as already partitioned — entry i is partition
               i's ref(s), never split
    pre:       ``_mapped_refs`` — a per-block pandas map before the
               split (``partition_map(pre=...)``, ``grouped_agg``'s
               pre-fold, ``tree_reduce``'s partial).  A materialized
               Dataset (its blocks exist: ``from_arrow_refs``,
               ``.materialize()``) gets one raw task per non-empty
               block, returning the mapped table and its metadata; any
               other Dataset runs ``pre`` as a ``map_batches`` stage
               that fuses into its own plan, so only mapped rows reach
               the object store.  Either way the exchange starts no Ray
               Data execution of its own: one ``map_batches(...)
               .materialize()`` over 5 tiny blocks costs ~100 ms wall
               and ~200 ms of session CPU, five raw tasks ~15 ms and
               ~30 ms (4 cores)
    width:     fixed by a pre-partitioned side, else by the caller's
               ``num_partitions`` where a fixed layout needs one, else
               derived from the mapped blocks' metadata that holds
               (rows, bytes) — no probe task; a ``pre`` that shrinks
               rows narrows the exchange
    per block: ``_split`` — split the block (as Arrow) into P
               sub-tables by key hash
    per part:  ``_fold`` — concat each side's sub-tables and run the
               caller's fold ``fn(*tables)``: the identity
               (``hash_exchange``) or a pandas fn converted both ways
               (``partition_map`` and the ``grouped_map`` /
               ``grouped_agg`` built on it; ``cogroup_exchange``,
               each side keeping its own schema), so a per-partition
               map after the exchange is the fold, not a stage
    result:    the P fold refs; the public entry points wrap them in
               ``from_arrow_refs``, and a round loop
               (``dedup.cluster_labels``) feeds them straight back in

The core has three uses: the keyed exchange (``hash_exchange``,
``partition_map`` and the entry points built on it), the co-group
(``cogroup_exchange``), and the tree reduce (``tree_reduce``), which
merges a mergeable summary (top-k, KMV, HLL, quantile, Misra-Gries,
Bloom) down to one table: one ``partial`` per block, then levels of
pre-partitioned ``_fold`` tasks, each merging at most ``TREE_FANIN``
partial blocks, until one ref is left.

Every output block is an Arrow table, so a pandas fn must return a
frame Arrow can hold (no mixed-type object columns).  An empty
partition: ``partition_map``, ``grouped_map`` and ``grouped_agg`` pass
it through unchanged without calling ``fn`` (the rule ``map_batches``
applies to an empty block), while ``cogroup_exchange`` hands it to
``fn``.

Hashing is deterministic across processes (``ops/hashing.mix64``,
the splitmix64 finalizer, over integer keys and over the crc32 of
string keys; the split hashes a string key only up to its first NUL,
where pandas' groupby ends it), so results are reproducible and
partition-count-invariant; an integer key hashes by its int64 value
whatever its width, so the two sides of a co-group may key on
differently typed integer columns.
Memory: the exchange materializes the mapped input (it IS a barrier);
each fold holds one partition, which must fit a worker (salt hot keys
upstream).  The width is this module's decision: ``_auto_partitions``
derives it from the mapped block bytes (of both sides for a co-group)
with a CPU-count parallelism floor, so the same caller code is
scale-safe from sf0.01 to 100 TB, and no op or pipeline built on the
exchange takes a width.  Only a caller that needs a fixed layout — a
persisted bucket count (``ops/incremental``), one partition per output
shard (``pipelines/curate``) — fixes it, through the ``num_partitions``
of ``partition_map``, ``grouped_map`` or ``cogroup_exchange``.

Contract: key columns must be NON-NULL (a null integer key turns the
column float on the numpy path, and pandas ``groupby`` silently drops
null keys — filter or fill nulls upstream, as every caller here does).
"""

from __future__ import annotations

import functools
import zlib
from collections.abc import Callable, Mapping, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.block import BlockAccessor
from ray.data.dataset import MaterializedDataset

from valere_ocr_ray.ops.hashing import mix64


# a fold task materializes ONE partition in worker heap (plus the
# kernel that runs on it) — 128 MiB of Arrow per partition keeps it
# well under a 1–2 GiB worker budget at any corpus size
TARGET_PARTITION_BYTES = 128 * 2**20
# backstop against pathological task fan-out (num_returns per split
# task == num_partitions); beyond this, shard the exchange itself
MAX_PARTITIONS = 65536
# fan-in of a tree_reduce node: no merge reads more than this many
# blocks, and each level cuts the ref count by this factor
TREE_FANIN = 8


def _auto_partitions(total_bytes: int) -> int:
    """Size-derived exchange width: enough partitions that each fold
    holds ≤ TARGET_PARTITION_BYTES; medium inputs widen toward the CPU
    count (but never below ~2 MiB per partition, so toy inputs don't
    fan out into near-empty fold tasks)."""
    total_bytes = int(total_bytes)
    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    # ≥ ~2 MiB per partition: the fold is CPU-bound, so a small exchange
    # should still fan out (measured: an 8 MiB grain capped a 40 MB
    # exchange at 5 folds and held 8→32 efficiency to 0.48)
    fine = -(-total_bytes // (2 * 2**20))
    floor = max(2, min(cpus, 64, fine))
    by_bytes = -(-total_bytes // TARGET_PARTITION_BYTES)
    return min(max(floor, by_bytes), MAX_PARTITIONS)


def _key_hash(table: pa.Table, keys: Sequence[str]) -> np.ndarray:
    """Deterministic uint64 hash of the key column(s): ``ops/hashing.mix64``
    (splitmix64) over each integer key, vectorized, and over each
    string key's crc32 (C loop)."""
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
            acc = mix64(acc * np.uint64(0x9E3779B97F4A7C15) ^ mix64(v))
    return acc


def _nul_prefix(table: pa.Table, keys: Sequence[str]) -> pa.Table:
    """``table`` with each string key cut at its first NUL: pandas'
    groupby ends a string there (``''`` and ``'\\x00'`` are one group),
    so the split must send both to one partition.  NUL-free keys are
    unchanged, and so is their placement."""
    for k in keys:
        col = table[k]
        if (
            pa.types.is_string(col.type) or pa.types.is_large_string(col.type)
        ) and pc.any(pc.match_substring(col, "\x00")).as_py():
            cut = pc.replace_substring_regex(col, "(?s)\\x00.*", "")
            table = table.set_column(table.schema.get_field_index(k), k, cut)
    return table


def hash_split(block, keys: Sequence[str], p: int) -> list[pa.Table]:
    """The exchange's split kernel: ``p`` Arrow sub-tables of a block,
    sub-table i holding the rows with ``hash(keys) % p == i`` in order
    (string keys hash up to their first NUL, as pandas groups them)."""
    table = BlockAccessor.for_block(block).to_arrow()
    part = (_key_hash(_nul_prefix(table, keys), keys) % np.uint64(p)).astype(np.int64)
    order = np.argsort(part, kind="stable")
    sorted_tbl = table.take(pa.array(order))
    bounds = np.searchsorted(part[order], np.arange(p + 1))
    return [sorted_tbl.slice(bounds[i], bounds[i + 1] - bounds[i]) for i in range(p)]


_split = ray.remote(hash_split)


def _concat_casted(parts: Sequence[pa.Table]) -> pa.Table:
    # canonical schema: the first part's (the side's first live block's)
    schema = parts[0].schema if parts else pa.schema([])
    live = [t for t in parts if t.num_rows]
    if not live:
        return schema.empty_table()
    # schema-drift tolerance: a pandas stage can infer a divergent dtype
    # in one rare block (all-null column → null type, int gone float):
    # cast to the canonical schema, else promote permissively (ADVICE r1)
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
        return pa.concat_tables(casted, promote_options="permissive").combine_chunks()


@ray.remote
def _fold(fn: Callable[..., pa.Table], counts: Sequence[int], *parts) -> pa.Table:
    """The one per-partition task: concat each side's ``counts`` parts, run ``fn``."""
    parts = [BlockAccessor.for_block(b).to_arrow() for b in parts]
    bounds = np.cumsum([0, *counts])
    return fn(*[_concat_casted(parts[a:b]) for a, b in zip(bounds, bounds[1:])])


def _block_refs(ds: ray.data.Dataset) -> list[tuple[ray.ObjectRef, object]]:
    """``(ref, metadata)`` per block of ``ds``.  ``materialize()`` first:
    the plan runs once, and its bundles carry every block's rows and
    bytes without a task."""
    bundles = ds.materialize().iter_internal_ref_bundles()
    return [b for bundle in bundles for b in bundle.blocks]


@ray.remote(num_returns=2)
def _map_block(pre: Callable[[pd.DataFrame], pd.DataFrame], block):
    """One block of a per-block map: ``pre``'s table and its metadata
    (a column-less empty block passes through unseen)."""
    table = BlockAccessor.for_block(block).to_arrow()
    out = _pandas_fold(pre, table) if table.num_columns else table
    return out, BlockAccessor.for_block(out).get_metadata()


def _mapped_refs(
    ds: ray.data.Dataset, pre: Callable[[pd.DataFrame], pd.DataFrame] | None
) -> list[tuple[ray.ObjectRef, object]]:
    """``(ref, metadata)`` per block of ``pre`` mapped over ``ds``'s
    blocks.  A materialized ``ds`` (its blocks exist) runs one raw task
    per non-empty block, or on its first block when all are empty, so
    the fold gets the mapped columns; any other ``ds`` runs ``pre`` as a
    ``map_batches`` stage that fuses into its plan, so only mapped rows
    reach the object store.  Either way the metadata is the mapped
    blocks'."""
    if pre is None:
        return _block_refs(ds)
    if not isinstance(ds, MaterializedDataset):
        return _block_refs(ds.map_batches(pre, batch_format="pandas", batch_size=None))
    blocks = _block_refs(ds)
    live = [r for r, m in blocks if m.num_rows] or [r for r, _ in blocks[:1]]
    pre = ray.put(pre)
    outs = [_map_block.remote(pre, r) for r in live]
    metas = ray.get([m for _, m in outs])
    return [(t, m) for (t, _), m in zip(outs, metas)]


def _exchange(
    sides: Sequence[tuple[ray.data.Dataset | Sequence, Sequence[str] | None]],
    fn: Callable[..., pa.Table],
    num_partitions: int | None,
    pre: Callable[[pd.DataFrame], pd.DataFrame] | None = None,
) -> list[ray.ObjectRef]:
    """The one exchange core: run ``fn(*side_tables)`` once per
    partition (one task per partition) and return the p refs of its
    tables.  A side ``(src, keys)`` is split by key hash, one task per
    block: a Dataset's blocks are mapped by ``pre`` (``_mapped_refs``)
    and its empty blocks drop out; a list of table refs is split ref by
    ref, with no Dataset in between.  A side ``(src, None)`` is already
    partitioned: entry i is partition i's ref(s), it is not split, and
    ``len(src)`` fixes the width.  Otherwise the width is ``num_partitions``, or derived from
    the Dataset sides' mapped block metadata (``p >= 2``)."""
    widths = {len(src) for src, keys in sides if keys is None}
    if len(widths) > 1 or widths and num_partitions not in (None, *widths):
        raise ValueError(f"pre-partitioned widths {widths} vs {num_partitions}")
    blocks = [
        _mapped_refs(src, pre) if isinstance(src, ray.data.Dataset)
        else [(r, None) for r in src]
        for src, keys in sides
    ]
    if widths:
        p = widths.pop()
    else:
        nbytes = sum(m.size_bytes for bl in blocks for _, m in bl if m)
        auto = num_partitions is None
        p = max(2, _auto_partitions(nbytes) if auto else num_partitions)
    parts = []  # per side, per partition: the refs of fn's table
    for (src, keys), bl in zip(sides, blocks):
        if keys is None:
            parts.append([e if isinstance(e, list) else [e] for e in src])
            continue
        splits = [
            _split.options(num_returns=p).remote(r, list(keys), p)
            for r, m in bl if m is None or m.num_rows != 0
        ]
        # an all-empty side hands fn its columns through its first block
        empty = [r for r, _ in bl[:1]]
        parts.append([[s[i] for s in splits] or empty for i in range(p)])
    fn = ray.put(fn)
    return [
        _fold.remote(fn, [len(s[i]) for s in parts], *[r for s in parts for r in s[i]])
        for i in range(p)
    ]


def hash_exchange(
    ds: ray.data.Dataset,
    keys: Sequence[str],
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Key-partitioned Dataset: every value of ``keys`` lands in exactly
    one output block (block i = hash(key) % width == i).  The width is
    derived from the input's block bytes (``_auto_partitions``) unless
    ``num_partitions`` fixes it."""
    refs = _exchange([(ds, keys)], lambda t: t, num_partitions)
    return ray.data.from_arrow_refs(refs)


def _pandas_fold(fn: Callable[..., pd.DataFrame], *tables: pa.Table) -> pa.Table:
    """``fn`` over pandas frames; unlike ``map_batches``, which keeps a
    pandas output block, the output frame is converted to Arrow."""
    out = fn(*[BlockAccessor.for_block(t).to_pandas() for t in tables])
    if isinstance(out, pd.DataFrame) and not len(out):
        # Ray's conversion makes every column of an empty frame the null
        # type; Arrow's own keeps the typed ones (an object column has none)
        return pa.Table.from_pandas(out, preserve_index=False)
    return BlockAccessor.for_block(out).to_arrow()


def _skip_empty(fn: Callable[[pd.DataFrame], pd.DataFrame], df: pd.DataFrame):
    """``map_batches``' rule: an empty frame passes through unseen by ``fn``."""
    return fn(df) if len(df) else df


def partition_map(
    ds: ray.data.Dataset,
    keys: Sequence[str],
    fn: Callable[[pd.DataFrame], pd.DataFrame],
    *,
    pre: Callable[[pd.DataFrame], pd.DataFrame] | None = None,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """One-sided fused fold: hash-partition ``ds`` by ``keys`` and run
    ``fn`` once per partition, inside the partition's own task — what
    ``hash_exchange(ds.map_batches(pre), keys).map_batches(fn,
    batch_format="pandas", batch_size=None)`` computes, without the
    stages around the exchange.  ``pre`` (optional) maps each input
    block before the split, on the ``_mapped_refs`` rule, and must take
    an empty frame; the width follows its output bytes.  As under
    ``map_batches``, an empty partition passes through unchanged and
    ``fn`` never sees it; ``fn`` must return a frame Arrow can hold.
    ``(ds, keys)`` is one ``_exchange`` side, so ``(refs, None)`` runs
    ``fn`` once per given partition, with no split."""
    fold = functools.partial(_pandas_fold, functools.partial(_skip_empty, fn))
    refs = _exchange([(ds, keys)], fold, num_partitions, pre)
    return ray.data.from_arrow_refs(refs)


def tree_reduce(
    ds: ray.data.Dataset,
    partial: Callable[[pd.DataFrame], pd.DataFrame],
    merge: Callable[[pd.DataFrame], pd.DataFrame],
) -> ray.ObjectRef:
    """Global merge of a mergeable summary: ``partial`` once per block
    (``_mapped_refs``: raw tasks over a materialized ``ds``, else a
    stage that fuses with the caller's), then a tree of pre-partitioned
    exchanges in which each node is one ``_fold`` task running
    ``merge`` over the concat of at most ``TREE_FANIN`` blocks.
    Returns the ref of the final table.

    ``merge`` must be associative over re-grouping: its output rows are
    fed back to it at the next level.  It runs at least once (one level
    up to ``TREE_FANIN`` blocks, ``ceil(log8 n)`` levels for n).  As
    under ``map_batches``, neither fn sees an empty frame: when no
    partial has rows, the result is an empty, column-less table."""
    fold = functools.partial(_pandas_fold, functools.partial(_skip_empty, merge))
    pre = functools.partial(_skip_empty, partial)
    refs = [r for r, m in _mapped_refs(ds, pre) if m.num_rows != 0]
    while True:
        nodes = [refs[i : i + TREE_FANIN] for i in range(0, len(refs), TREE_FANIN)]
        refs = _exchange([(nodes or [[]], None)], fold, None)
        if len(refs) == 1:
            return refs[0]


def reduced_row(ref: ray.ObjectRef) -> dict:
    """The one row a one-row ``merge`` leaves in ``tree_reduce``'s
    result, as a dict; ``{}`` when no partial had rows."""
    rows = ray.get(ref).to_pylist()
    return rows[0] if rows else {}


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
    all fall out of this shape, with one pass of each side and no sort.
    An empty side reaches ``fn`` as an empty frame with its columns
    (none for a zero-block side).  Contract (as ``grouped_map``): ``fn``
    of an empty left partition returns an empty frame with fn's OUTPUT
    columns, so empty partitions keep a consistent schema."""
    sides = [(left, left_keys), (right, right_keys)]
    fold = functools.partial(_pandas_fold, fn)
    return ray.data.from_arrow_refs(_exchange(sides, fold, num_partitions))


def grouped_map(
    ds: ray.data.Dataset,
    keys: Sequence[str],
    fn: Callable[[pd.DataFrame], pd.DataFrame],
    *,
    num_partitions: int | None = None,
    min_group_size: int = 1,
) -> ray.data.Dataset:
    """``groupby(keys).map_groups(fn)`` semantics at hash-exchange speed:
    each partition holds complete key groups, so ``fn`` runs under one
    in-partition ``pandas.groupby`` (group order = sorted keys).  The
    output blocks are Arrow tables, so ``fn``'s frames must convert.

    ``min_group_size``: vectorized pre-filter dropping smaller groups
    BEFORE the per-group loop — pass 2 for pairing-style fns where
    singleton groups cannot contribute output (LSH buckets are mostly
    singletons, so this turns a 30k-group loop into a hundreds-group
    loop).  Only valid when fn(group) is empty for dropped sizes."""
    keys = list(keys)

    # contract: fn(empty frame) must return an empty frame with fn's
    # OUTPUT columns (so empty partitions keep a consistent schema)
    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        if min_group_size > 1:
            sizes = df.groupby(keys)[keys[0]].transform("size")
            df = df[sizes >= min_group_size]
        outs = [fn(g) for _, g in df.groupby(keys, sort=True)]
        outs = [o for o in outs if len(o)]
        if not outs:
            return fn(df.iloc[0:0])
        return pd.concat(outs, ignore_index=True)

    return partition_map(ds, keys, per_partition, num_partitions=num_partitions)


def _agg_fold(keys: list[str], aggs: Mapping[str, str], df: pd.DataFrame) -> pa.Table:
    """``grouped_agg``'s fold, per input block and per partition.  The
    output is Arrow: Ray sizes it by its buffers, where an empty pandas
    output's object key column (all keys null) failed Ray's size
    estimate."""
    # pandas' object-string groupby ends a key at its first NUL
    # ('x' and 'x\x00y' fold together); Arrow-backed strings compare
    # whole, as SQL's GROUP BY does.  Null keys still drop out.
    strs = [k for k in keys if pd.api.types.infer_dtype(df[k]) == "string"]
    out = df.astype(dict.fromkeys(strs, "string[pyarrow]"))
    out = out.groupby(keys, as_index=False).agg(aggs)
    return BlockAccessor.for_block(out.astype(dict.fromkeys(strs, object))).to_arrow()


def grouped_agg(
    ds: ray.data.Dataset,
    keys: Sequence[str],
    aggs: Mapping[str, str],
    *,
    pre: Callable[[pd.DataFrame], pd.DataFrame] | None = None,
) -> ray.data.Dataset:
    """Exact keyed algebraic aggregate, one fold per column
    (``{"col": "sum"|"min"|"max"}``) — the one keyed-aggregate
    primitive, and the high-cardinality alternative to
    ``Dataset.groupby()`` (measured 145 s → 1.2 s on a 147k-key sum of
    600k rows).  The same fold per input block (after the caller's
    ``pre``, as ``partition_map`` runs it), then per partition after
    the exchange; every fold is idempotent over re-grouping, so input
    rows may be partials (decompose mean/nunique into sums).
    Output: every key in exactly one block, no global order; the width
    is derived from the pre-folded bytes."""
    for how in aggs.values():
        if how not in ("sum", "min", "max"):
            raise ValueError(f"unsupported agg {how!r}")
    fold = functools.partial(_agg_fold, list(keys), aggs)
    first = fold if pre is None else lambda df: fold(pre(df))
    return partition_map(ds, keys, fold, pre=first)


def grouped_sum(
    ds: ray.data.Dataset,
    keys: Sequence[str],
    sums: Sequence[str],
    *,
    pre: Callable[[pd.DataFrame], pd.DataFrame] | None = None,
) -> ray.data.Dataset:
    """``grouped_agg`` with a sum over each of ``sums``."""
    return grouped_agg(ds, keys, dict.fromkeys(sums, "sum"), pre=pre)
