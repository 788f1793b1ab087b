"""Misra-Gries heavy hitters — mergeable frequency sketch + an exact
verification pass, so the FINAL output is exact (SQL-oracle-able) while
nothing proportional to the key cardinality ever crosses the wire.

Why a sketch at 100 TB: "which keys exceed x% of the corpus" over an
open vocabulary (tokens, URLs, user agents) cannot run as a plain
groupby — the groupby ships every distinct key through an all-to-all
exchange just to discard almost all of them.  The Misra-Gries summary
keeps ``k`` counters per block and merges associatively, so the
candidate discovery costs ``k`` counters per block through
``ops/exchange.tree_reduce`` and no keyed exchange.  A second pass
exact-counts just the ≤``k`` surviving candidates (broadcast to every
block — the classic small-side broadcast) and sums those ≤``k`` keys
over one keyed exchange, making the final report exact: the sketch's
only job is to bound what gets exact-counted.

Guarantee (public scheme: Misra & Gries 1982; mergeability per
Agarwal et al., "Mergeable summaries", PODS 2012): an MG summary with
``k`` counters underestimates any key's true count by at most
``n/(k+1)`` — every compress that subtracts ``d`` from the survivors
removes ≥ ``(k+1)·d`` total weight, so the subtractions over the whole
merge tree sum to ≤ ``n/(k+1)``.  Hence every key with true count
``> n/(k+1)`` still holds a positive counter after any merge order,
and with ``denom <= k+1`` the candidate set provably contains every
key the ``count·denom > n`` report wants.  The typical use here is the
skew audit a pipeline runs BEFORE a keyed exchange: keys this op
reports are the ones to salt (reference analog: the per-class tally
the reference computes over the full bucket listing before routing —
``IDD/SearchingS3Buckets/S3SearchbyName.py:40-49`` collects every key
matching a document-class string; done per class, that's exactly a
class-frequency report over the corpus).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data

from valere_ocr_ray.ops.exchange import grouped_sum, reduced_row, tree_reduce


def mg_compress(counts: dict, k: int) -> dict:
    """Reduce a key→count mapping to at most ``k`` positive counters by
    subtracting the (k+1)-th largest count from every key and dropping
    the non-positive remainder (the mergeable-summaries compress)."""
    if len(counts) <= k:
        return {key: c for key, c in counts.items() if c > 0}
    vals = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
    # (k+1)-th largest value = threshold subtracted from everyone
    d = int(np.partition(vals, len(vals) - k - 1)[len(vals) - k - 1])
    return {key: c - d for key, c in counts.items() if c - d > 0}


def mg_merge(summaries: list[dict], k: int) -> dict:
    """Pointwise-sum ``summaries`` then compress — associative up to the
    bounded undercount, so any merge tree yields a valid MG summary."""
    total: dict = {}
    for s in summaries:
        for key, c in s.items():
            total[key] = total.get(key, 0) + c
    return mg_compress(total, k)


def _sketch_rows(vals: list, cnts: list, n: int) -> pd.DataFrame:
    return pd.DataFrame({"vals": [vals], "cnts": [cnts], "n": [np.int64(n)]})


def heavy_hitters(
    ds: ray.data.Dataset,
    col: str,
    *,
    k: int = 64,
    denom: int = 16,
) -> pd.DataFrame:
    """EXACT report of every value of ``col`` whose count exceeds
    ``n/denom`` (``count·denom > n``, strict), discovered via a
    Misra-Gries candidate pass and confirmed by an exact count of only
    the candidates.

    Pass 1: per-block exact ``value_counts`` (an error-free MG summary
    of the block) → ``mg_compress(k)`` → one sketch row per block →
    ``tree_reduce`` with ``mg_merge`` → ONE row holding ≤k candidates
    plus the exact total ``n``.  Pass 2: candidates (≤k
    values — closure-captured; at this size the capture IS the
    broadcast) exact-counted per block, summed over the keyed exchange
    (``grouped_sum``), thresholded.

    Requires ``denom <= k + 1`` — the MG bound that makes the candidate
    set provably complete.  Output: DataFrame ``[col, cnt]``
    sorted by count desc then value asc, both exact."""
    if denom > k + 1:
        raise ValueError(
            f"denom={denom} > k+1={k + 1}: candidates above n/{denom} "
            "are not guaranteed to survive a k-counter MG sketch"
        )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = df[col].value_counts()
        s = mg_compress(dict(zip(vc.index, (int(x) for x in vc.to_numpy()))), k)
        return _sketch_rows(list(s.keys()), list(s.values()), len(df))

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        merged = mg_merge(
            [dict(zip(v, c)) for v, c in zip(df["vals"], df["cnts"])], k
        )
        return _sketch_rows(
            list(merged.keys()), list(merged.values()), int(df["n"].sum())
        )

    final = reduced_row(tree_reduce(ds, partial, merge))
    candidates = final.get("vals", [])
    n_total = final.get("n", 0)
    empty = pd.DataFrame(
        {col: pd.Series([], dtype="object"), "cnt": pd.Series([], dtype="int64")}
    )
    if not candidates or n_total == 0:
        return empty

    cand_set = set(candidates)

    def exact_partial(df: pd.DataFrame) -> pd.DataFrame:
        hit = df[df[col].isin(cand_set)]
        vc = hit[col].value_counts()
        return pd.DataFrame(
            {col: vc.index, "cnt": vc.to_numpy().astype("int64")}
        )

    exact = grouped_sum(
        ds.map_batches(exact_partial, batch_format="pandas"),
        [col],
        ["cnt"],
    ).to_pandas()
    if not len(exact):
        return empty
    exact["cnt"] = exact["cnt"].astype("int64")
    out = exact[exact["cnt"] * denom > n_total]
    return (
        out.sort_values(["cnt", col], ascending=[False, True], kind="stable")
        .reset_index(drop=True)
    )
