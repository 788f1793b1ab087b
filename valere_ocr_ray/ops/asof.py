"""As-of and range joins on the keyed exchange: for each left row, the
latest right row at-or-before its timestamp per key (as-of), or the
count of right windows covering it (range) — the operators the Dataset
API lacks (SURVEY.md §2.4 notes the reference has none either; these
are beyond-reference ops the brief calls for).

Implementation: BOTH sides co-grouped by key on
``ops/exchange.cogroup_exchange``; each partition builds a per-key
sorted timestamp index from its right rows and resolves its left rows
with vectorized ``np.searchsorted`` per key group (``_resolve``) — no
broadcast, no driver state, so either side may grow with the corpus.
Keys must be an integer type on both sides; a null key matches nothing.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data


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


def _exchange_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_key: str,
    left_ts: str,
    right_key: str,
    right_ts: str,
    out_col: str,
    kernel,
) -> ray.data.Dataset:
    """Both sides co-grouped by key on ``cogroup_exchange``: the left
    side normalized to ``(__key, __ts_us, *carry)``, the right side to
    ``(__key, __ts_us)``; each partition builds its partition-local
    index from the right rows and resolves its left rows."""
    from valere_ocr_ray.ops.exchange import cogroup_exchange

    def norm(key: str, ts: str, carry: bool):
        def f(t: pa.Table) -> pd.DataFrame:
            # checked in Arrow, where an int column with nulls stays
            # integer (pandas makes it float64): a float key would
            # truncate through the int64 cast (1.5 joins 1), a string key
            # would fail without naming its column
            typ = t.schema.field(key).type
            if not pa.types.is_integer(typ):
                raise TypeError(
                    f"asof/range join key {key!r} must be integer, got "
                    f"{typ} — cast or factorize keys upstream"
                )
            if t[key].null_count:  # a null key matches nothing
                t = t.filter(pc.is_valid(t[key]))
            df = t.to_pandas()
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
        left.map_batches(norm(left_key, left_ts, True), batch_format="pyarrow"),
        right.map_batches(norm(right_key, right_ts, False), batch_format="pyarrow"),
        ["__key"],
        ["__key"],
        fold,
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
) -> ray.data.Dataset:
    """Inner as-of join on ``cogroup_exchange``: rows of ``left`` that
    have a right row with the same key and ``right_ts <= left_ts`` get
    ``out_col`` = the greatest such ``right_ts`` (epoch µs; an exact
    tie matches, and pre-1970 timestamps match as negative µs).

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
        _asof_kernel,
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
) -> ray.data.Dataset:
    """Range join (inner, counted) on ``cogroup_exchange``: per left
    row, the number of right rows of the same key whose window
    ``[right_ts, right_ts + window_us)`` covers ``left_ts`` (start ∈
    ``(ts - window, ts]``); e.g. a self-join of an event log.

    Same co-group as :func:`asof_join_exchange`; each partition counts
    window membership with two partition-local searchsorted probes per
    key group, O(log n_right) per row.  Output: the left columns
    (``left_ts`` as epoch-µs int64) + ``out_col``; zero-match rows drop
    (inner).
    """
    return _exchange_join(
        left, right, left_key, left_ts, right_key, right_ts, out_col,
        _range_kernel(window_us),
    )
