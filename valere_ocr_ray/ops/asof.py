"""As-of join: for each left row, the latest right row at-or-before its
timestamp, per key — the operator the Dataset API lacks (SURVEY.md §2.4
notes the reference has none either; this is a beyond-reference op the
brief calls for).

Implementation (custom-operator path (b)): the right side is built into
a per-key **sorted timestamp index** driver-side and broadcast via
``ray.put``; each batch then resolves matches with vectorized
``np.searchsorted`` per key group — no shuffle of the (large) left
side.

Partitioning assumption (documented per SURVEY §2): the right side is
the small/dimension side (its per-key index fits worker memory).  For
two large sides use :func:`asof_join_exchange` — BOTH sides co-grouped
by key on ``ops/exchange.cogroup_exchange``, the same searchsorted
kernel (``_resolve``) running against a partition-local index (no
broadcast, no driver state).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data


def build_time_index(
    right: pd.DataFrame, key_col: str, ts_col: str
) -> dict[int, np.ndarray]:
    """{key → sorted int64-epoch-us timestamps} (duplicates kept).

    Keys must be an integer dtype — validated up front with a clear
    error (a float key would silently truncate through ``int()``, a
    string key would raise deep inside the exchange)."""
    if not pd.api.types.is_integer_dtype(right[key_col]):
        raise TypeError(
            f"asof/range join key {key_col!r} must be integer, got "
            f"{right[key_col].dtype} — cast or factorize keys upstream"
        )
    out: dict[int, np.ndarray] = {}
    ts = right[ts_col].astype("datetime64[us]").astype("int64")
    for key, g in ts.groupby(right[key_col].to_numpy()):
        out[int(key)] = np.sort(g.to_numpy())
    return out


def _epoch_us(s: pd.Series) -> np.ndarray:
    return s.astype("datetime64[us]").astype("int64").to_numpy()


def _resolve(
    idx: dict[int, np.ndarray], keys: np.ndarray, ts: np.ndarray, kernel
) -> tuple[np.ndarray, np.ndarray]:
    """The shared per-key-group probe of every join here: for each key
    group of the left rows, ``kernel(dates, ts)`` → ``(values, ok)``
    against that key's sorted right timestamps.  Returns the per-row
    values (0 where unmatched) and the matched mask."""
    vals = np.zeros(len(keys), dtype=np.int64)
    hit = np.zeros(len(keys), dtype=bool)
    order = np.argsort(keys, kind="stable")
    i = 0
    while i < len(order):
        j = i
        k = keys[order[i]]
        while j < len(order) and keys[order[j]] == k:
            j += 1
        dates = idx.get(int(k))
        if dates is not None:
            rows = order[i:j]
            v, ok = kernel(dates, ts[rows])
            vals[rows[ok]] = v[ok]
            hit[rows[ok]] = True
        i = j
    return vals, hit


def _asof_kernel(dates: np.ndarray, ts: np.ndarray):
    # separate boolean mask, NOT a -1 sentinel: pre-1970 right
    # timestamps are legitimate negative epoch-µs matches (ADVICE r1)
    pos = np.searchsorted(dates, ts, side="right") - 1
    return dates[pos], pos >= 0


def _range_kernel(window_us: int):
    def kernel(dates: np.ndarray, ts: np.ndarray):
        hi = np.searchsorted(dates, ts, side="right")
        lo = np.searchsorted(dates, ts - window_us, side="right")
        return hi - lo, hi > lo

    return kernel


def _broadcast_join(
    left: ray.data.Dataset,
    right: pd.DataFrame,
    left_key: str,
    left_ts: str,
    right_key: str,
    right_ts: str,
    out_col: str,
    kernel,
) -> ray.data.Dataset:
    ref = ray.put(build_time_index(right, right_key, right_ts))

    def match(df: pd.DataFrame) -> pd.DataFrame:
        vals, hit = _resolve(
            ray.get(ref), df[left_key].to_numpy(), _epoch_us(df[left_ts]), kernel
        )
        return df.assign(**{out_col: vals})[hit]

    return left.map_batches(match, batch_format="pandas")


def _exchange_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_key: str,
    left_ts: str,
    right_key: str,
    right_ts: str,
    out_col: str,
    kernel,
    num_partitions: int | None,
) -> ray.data.Dataset:
    """Both sides co-grouped by key on ``cogroup_exchange``: the left
    side normalized to ``(__key, __ts_us, *carry)``, the right side to
    ``(__key, __ts_us)``; each partition builds its partition-local
    index from the right rows and resolves its left rows."""
    from valere_ocr_ray.ops.exchange import cogroup_exchange

    def norm(key: str, ts: str, carry: bool):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame(
                {
                    "__key": df[key].to_numpy(dtype=np.int64),
                    "__ts_us": _epoch_us(df[ts]),
                }
            )
            if carry:
                for c in df.columns:
                    if c not in (key, ts):
                        out[c] = df[c].to_numpy()
            return out

        return f

    def fold(l: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        carry = [c for c in l.columns if c not in ("__key", "__ts_us")]
        # a side whose every block was empty arrives without columns
        l = l.reindex(columns=["__key", "__ts_us", *carry])
        idx = (
            {
                int(k): np.sort(g.to_numpy())
                for k, g in r["__ts_us"].groupby(r["__key"].to_numpy())
            }
            if len(r)
            else {}
        )
        keys = l["__key"].to_numpy(dtype=np.int64)
        ts = l["__ts_us"].to_numpy(dtype=np.int64)
        vals, hit = _resolve(idx, keys, ts, kernel)
        out = pd.DataFrame({left_key: keys, left_ts: ts})
        for c in carry:
            out[c] = l[c].to_numpy()
        out[out_col] = vals
        return out[hit]

    return cogroup_exchange(
        left.map_batches(norm(left_key, left_ts, True), batch_format="pandas"),
        right.map_batches(norm(right_key, right_ts, False), batch_format="pandas"),
        ["__key"],
        ["__key"],
        fold,
        num_partitions=num_partitions,
    )


def asof_join(
    left: ray.data.Dataset,
    right: pd.DataFrame,
    *,
    left_key: str,
    left_ts: str,
    right_key: str,
    right_ts: str,
    out_col: str = "matched_ts_us",
) -> ray.data.Dataset:
    """Inner as-of join: rows of ``left`` that have a right row with the
    same key and ``right_ts <= left_ts`` get ``out_col`` = the greatest
    such ``right_ts`` (epoch µs); unmatched rows are dropped (inner)."""
    return _broadcast_join(
        left, right, left_key, left_ts, right_key, right_ts, out_col, _asof_kernel
    )


def asof_join_exchange(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    left_key: str,
    left_ts: str,
    right_key: str,
    right_ts: str,
    out_col: str = "matched_ts_us",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Two-LARGE-sides inner as-of join on ``cogroup_exchange`` — the
    scale path when the right side also grows with the corpus (the
    broadcast variant ships a per-key index of the ENTIRE right side
    to every worker).

    The left side travels as ``__key``, ``__ts_us`` (epoch µs) and its
    carry columns, the right side as ``(__key, __ts_us)`` only; both
    are co-grouped by key ONCE, and each partition resolves matches
    with the same vectorized searchsorted kernel against its
    partition-local index.  Output: the left columns (``left_ts``
    replaced by its epoch-µs int64) + ``out_col``; unmatched left rows
    drop (inner).
    """
    return _exchange_join(
        left, right, left_key, left_ts, right_key, right_ts, out_col,
        _asof_kernel, num_partitions,
    )


def range_count_join(
    left: ray.data.Dataset,
    right: pd.DataFrame,
    *,
    left_key: str,
    left_ts: str,
    right_key: str,
    right_ts: str,
    window_us: int,
    out_col: str = "n_windows",
) -> ray.data.Dataset:
    """Range join (inner, counted): per left row, the number of right
    rows of the same key whose window ``[right_ts, right_ts+window)``
    covers ``left_ts``; rows with zero matches are dropped.

    Same broadcast-index kernel as :func:`asof_join` — membership
    counts come from two ``searchsorted`` probes per key group
    (start ∈ (ts-window, ts]), so the cost is O(log n_right) per row.
    """
    return _broadcast_join(
        left, right, left_key, left_ts, right_key, right_ts, out_col,
        _range_kernel(window_us),
    )


def range_count_join_exchange(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    left_key: str,
    left_ts: str,
    right_key: str,
    right_ts: str,
    window_us: int,
    out_col: str = "n_windows",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Two-LARGE-sides range join (inner, counted) on
    ``cogroup_exchange`` — the scale path when the right side grows
    with the corpus (e.g. self-joins of an event log, where the
    broadcast variant would ship the whole log's index to every
    worker).

    Same co-group as :func:`asof_join_exchange`; each partition counts
    window membership with two partition-local searchsorted probes per
    key group.  Output: the left columns (``left_ts`` as epoch-µs
    int64) + ``out_col``; zero-match rows drop (inner).
    """
    return _exchange_join(
        left, right, left_key, left_ts, right_key, right_ts, out_col,
        _range_kernel(window_us), num_partitions,
    )
