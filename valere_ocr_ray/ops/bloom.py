"""Mergeable Bloom filter + bloom-prefiltered semi/anti join.

The 100-TB shape for a *selective* semi join: exchanging the full left
side (``ops/joins.semi_join``) moves every left byte even when only a
sliver survives.  Instead:

    right keys → one partial Bloom per block (an Arrow ``map_batches``
                 stage, hashed as the probe hashes)
               → OR through ``exchange.tree_reduce`` (filter bytes
                 constant, ≤8 blocks of filters per task, depth log8
                 #blocks) → ONE ref → map-side membership filter on left
               → exact cogroup semi/anti join on the (small) maybe-set

The Bloom is a fixed-size bit array (default 2^23 bits = 1 MiB) so the
broadcast cost is constant in corpus size; only rows that *might* match
pay the exchange.  False positives are removed by the exact join, so
results are EXACT — the filter only prunes.  For ``anti=True`` the
"definitely absent" rows (bloom-negative — Bloom filters have no false
negatives) are emitted directly and only the maybe-set is exact-checked.

Hashing reuses the exchange's deterministic ``_key_hash``
(``ops/hashing.mix64`` over int/crc32 lanes) with double hashing for the k probe positions,
so filter build and probe agree across processes with no seed plumbing.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from valere_ocr_ray.ops.exchange import _key_hash, tree_reduce
from valere_ocr_ray.ops.hashing import mix64

_U64_1 = np.uint64(1)


def _positions(h: np.ndarray, num_bits: int, num_hashes: int) -> np.ndarray:
    """(num_hashes, n) probe positions via double hashing."""
    with np.errstate(over="ignore"):
        h2 = mix64(h ^ np.uint64(0xA076_1D64_78BD_642F)) | _U64_1
        i = np.arange(num_hashes, dtype=np.uint64)[:, None]
        return (h[None, :] + i * h2[None, :]) % np.uint64(num_bits)


def _empty_bloom(num_bits: int) -> np.ndarray:
    return np.zeros((num_bits + 63) // 64, dtype=np.uint64)


def _add_hashes(bloom: np.ndarray, h: np.ndarray, num_hashes: int) -> None:
    pos = _positions(h, len(bloom) * 64, num_hashes).ravel()
    np.bitwise_or.at(bloom, pos >> np.uint64(6), _U64_1 << (pos & np.uint64(63)))


def _contains_hashes(bloom: np.ndarray, h: np.ndarray, num_hashes: int) -> np.ndarray:
    """Boolean mask: every probe bit set."""
    pos = _positions(h, len(bloom) * 64, num_hashes)
    bits = (bloom[(pos >> np.uint64(6))] >> (pos & np.uint64(63))) & _U64_1
    return bits.all(axis=0)


def bloom_bits(table: pa.Table, num_bits: int) -> np.ndarray:
    """The packed ``uint64`` bit array in ``build_bloom``'s table, read
    zero-copy; all zeros when the build saw no block."""
    if not table.num_rows:
        return _empty_bloom(num_bits)
    return np.frombuffer(table["bloom"][0].as_buffer(), dtype=np.uint64)


def build_bloom(
    ds: ray.data.Dataset,
    keys: Sequence[str],
    *,
    num_bits: int = 1 << 23,
    num_hashes: int = 5,
) -> "ray.ObjectRef":
    """Distributed Bloom build over ``ds[keys]``: one partial filter per
    block, OR-ed through ``tree_reduce``.  Returns the **ObjectRef** of
    a one-row table holding the packed ``uint64`` bit array (no row
    when ``ds`` has no block); pass it straight into ``map_batches``
    closures, where ``bloom_bits(ray.get(ref), num_bits)`` is a local
    shared-memory read.  Each block is hashed in Arrow, as the probe
    hashes: a pandas round trip would turn an int key column with a
    null into float, which ``_key_hash`` hashes as strings."""
    keys = list(keys)

    def block_bloom(table: pa.Table) -> pa.Table:
        bloom = _empty_bloom(num_bits)
        if table.num_rows:
            _add_hashes(bloom, _key_hash(table, keys), num_hashes)
        return pa.table({"bloom": [bloom.tobytes()]})

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        blooms = [np.frombuffer(b, dtype=np.uint64) for b in df["bloom"]]
        return pd.DataFrame({"bloom": [np.bitwise_or.reduce(blooms).tobytes()]})

    pre = ds.select_columns(keys).map_batches(
        block_bloom, batch_format="pyarrow", batch_size=None
    )
    return tree_reduce(pre, lambda df: df, merge)


def bloom_semi_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_key: str,
    right_key: str | None = None,
    *,
    anti: bool = False,
    num_bits: int = 1 << 23,
    num_hashes: int = 5,
) -> ray.data.Dataset:
    """EXACT semi (``anti=False``) / anti (``anti=True``) join with a
    Bloom prefilter: only bloom-positive left rows enter the exchange.
    Result equals ``ops/joins.semi_join`` row-for-row; the filter is
    purely a data-movement optimization (biggest win when the match
    fraction is small)."""
    from valere_ocr_ray.ops.joins import semi_join

    right_key = right_key or left_key
    bloom_ref = build_bloom(
        right, [right_key], num_bits=num_bits, num_hashes=num_hashes
    )

    def _mask(table: pa.Table) -> np.ndarray:
        if not table.num_rows:
            return np.zeros(0, dtype=bool)
        bloom = bloom_bits(ray.get(bloom_ref), num_bits)
        return _contains_hashes(bloom, _key_hash(table, [left_key]), num_hashes)

    maybe = left.map_batches(
        lambda t: t.filter(pa.array(_mask(t))), batch_format="pyarrow"
    )
    checked = semi_join(maybe, right, left_key, right_key, anti=anti)
    if not anti:
        return checked
    definite = left.map_batches(
        lambda t: t.filter(pa.array(~_mask(t))), batch_format="pyarrow"
    )
    return definite.union(checked)
