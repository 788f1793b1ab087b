"""Distributed semi / anti / inner equi-joins on the two-sided hash
exchange (``ops/exchange.cogroup_exchange``).

Scale shape: both sides are hash-partitioned ONCE by their join key —
equal keys land in the same partition index on both sides — and each
partition pair resolves membership / matches with vectorized pandas
kernels.  Nothing is broadcast, so BOTH sides may grow with the
corpus (the broadcast-join variants in ``pipelines/queries.py`` stay
the right choice when one side is provably small).

Semi/anti additionally prune the right side to its distinct non-null
keys per block, in Arrow, BEFORE the exchange (a null matches nothing;
pandas would turn an int column with a null float), so the right-side
bytes crossing the wire are one row per distinct key per block.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow.compute as pc
import ray.data

from valere_ocr_ray.ops.exchange import cogroup_exchange, grouped_sum


def semi_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_key: str,
    right_key: str | None = None,
    *,
    anti: bool = False,
) -> ray.data.Dataset:
    """Rows of ``left`` whose ``left_key`` appears (``anti=False``) or
    does not appear (``anti=True``) in ``right[right_key]`` — the
    EXISTS / NOT EXISTS join, output columns = left's columns."""
    right_key = right_key or left_key
    keys_only = right.select_columns([right_key]).map_batches(
        lambda t: t.filter(pc.is_valid(t[right_key])).group_by(right_key).aggregate([]),
        batch_format="pyarrow",
    )

    def fold(l: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        if not len(l):
            return l
        present = l[left_key].isin(r[right_key].to_numpy() if len(r) else [])
        return l[~present] if anti else l[present]

    return cogroup_exchange(left, keys_only, [left_key], [right_key], fold)


def hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_key: str,
    right_key: str | None = None,
    *,
    how: str = "inner",
) -> ray.data.Dataset:
    """Equi-join (``how`` = 'inner' | 'left' | 'outer') with BOTH sides
    exchanged (the two-large-sides path).  Column collisions resolve
    pandas-style with ``_r`` suffixed on the right.  Outer rows carry
    NaN/NaT in the absent side's columns — cast downstream if a stable
    dtype matters.  Full-outer is correct on the exchange because every
    key (from EITHER side) lands in exactly one partition pair."""
    if how not in ("inner", "left", "outer"):
        raise ValueError(f"unsupported how={how!r}")
    right_key = right_key or left_key

    def fold(l: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        if (not len(l) and how != "outer") or (
            how == "inner" and not len(r)
        ):
            probe = l.merge(
                r.iloc[0:0], left_on=left_key, right_on=right_key,
                suffixes=("", "_r"),
            )
            return probe.iloc[0:0]
        return l.merge(
            r, left_on=left_key, right_on=right_key, how=how,
            suffixes=("", "_r"),
        )

    return cogroup_exchange(left, right, [left_key], [right_key], fold)


def distinct_set_op(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    cols: list[str],
    right_cols: list[str] | None = None,
    *,
    op: str = "intersect",
) -> ray.data.Dataset:
    """SQL ``INTERSECT`` / ``EXCEPT`` (distinct set semantics) on the
    cogroup exchange: both sides hash-partitioned by the full column
    tuple, each partition pair resolved with one vectorized merge.
    Output columns = ``cols`` (left names), one row per distinct tuple.
    Scale shape: both sides pre-deduplicate per block before the
    exchange, so wire bytes are bounded by distinct tuples per block."""
    if op not in ("intersect", "except"):
        raise ValueError(f"unsupported op={op!r}")
    rcols = right_cols or cols
    l_keys = left.select_columns(cols).map_batches(
        lambda df: df.drop_duplicates(), batch_format="pandas"
    )
    r_keys = right.select_columns(rcols).map_batches(
        lambda df: df.drop_duplicates(), batch_format="pandas"
    )

    def fold(l: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        l2 = l.drop_duplicates()
        if not len(l2):
            return l2
        m = l2.merge(
            r.drop_duplicates(), left_on=cols, right_on=rcols,
            how="left", indicator=True,
        )
        keep = m["_merge"] == ("both" if op == "intersect" else "left_only")
        return m.loc[keep, cols]

    return cogroup_exchange(l_keys, r_keys, cols, rcols, fold)


def skew_hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_key: str,
    right_key: str | None = None,
    *,
    num_salts: int = 8,
    hot_threshold: int = 50_000,
) -> ray.data.Dataset:
    """Inner equi-join with HOT-KEY SALTING: a plain hash join sends
    every row of a hot key to ONE partition, so a single skewed key
    (think a template page duplicated 10^8 times) serializes the whole
    join.  Here the left side's per-key counts are summed first (one
    keyed exchange); keys above ``hot_threshold`` rows are split across
    ``num_salts`` sub-partitions (left rows salted round-robin, the
    matching RIGHT rows replicated into every salt), and the join runs
    keyed on ``(key, salt)`` — hot keys now occupy ``num_salts`` cores.

    Driver state is the hot-key list only — bounded by corpus_rows /
    hot_threshold (≤ 20k entries per 10^9 rows at the default), NOT by
    key cardinality.  Result rows are identical to ``hash_join``."""
    right_key = right_key or left_key
    counts = grouped_sum(
        left.select_columns([left_key]).map_batches(
            lambda df: df.assign(_n=np.int64(1)), batch_format="pandas"
        ),
        [left_key],
        ["_n"],
    )
    hot = counts.map_batches(
        lambda df: df[df["_n"] >= hot_threshold][[left_key]],
        batch_format="pandas",
        batch_size=None,
    ).to_pandas()
    hot_keys = hot[left_key].to_numpy()
    if not len(hot_keys):
        return hash_join(left, right, left_key, right_key)
    hot_ref = ray.put(hot_keys)

    def salt_left(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        is_hot = df[left_key].isin(ray.get(hot_ref))
        salt = np.zeros(len(df), dtype=np.int64)
        salt[is_hot.to_numpy()] = np.arange(int(is_hot.sum())) % num_salts
        df["_salt"] = salt
        return df

    def replicate_right(df: pd.DataFrame) -> pd.DataFrame:
        is_hot = df[right_key].isin(ray.get(hot_ref)).to_numpy()
        cold = df[~is_hot].copy()
        cold["_salt"] = np.int64(0)
        hot_rows = df[is_hot]
        if not len(hot_rows):
            return cold
        reps = [hot_rows.assign(_salt=np.int64(s)) for s in range(num_salts)]
        return pd.concat([cold, *reps], ignore_index=True)

    lsalted = left.map_batches(salt_left, batch_format="pandas")
    rsalted = right.map_batches(replicate_right, batch_format="pandas")

    def fold(l: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        out = l.merge(
            r,
            left_on=[left_key, "_salt"],
            right_on=[right_key, "_salt"],
            suffixes=("", "_r"),
        )
        return out.drop(columns=["_salt"])

    return cogroup_exchange(
        lsalted, rsalted, [left_key, "_salt"], [right_key, "_salt"], fold
    )
