"""Inverted index over a tokenized text column — postings lists and
document-frequency stats, the IR building block for corpus search /
contamination probes / df-based stopword derivation.

Scale shape (100 TB): the explode emits DISTINCT (token, doc) pairs
per batch (vectorized split + explode + drop_duplicates — within-doc
repeats never reach the wire), then ONE hash exchange keyed by token;
document frequency is a vectorized group count and the postings list
is capped at ``max_postings`` ids per token (hot tokens — stopwords —
would otherwise produce corpus-sized rows; the cap is recorded in the
``truncated`` flag, never silent).

Reference parity: the reference greps documents one at a time
(`IDD` text-report scripts); an inverted index is the batch-native
replacement (SURVEY.md round-2 delta).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data

from valere_ocr_ray.ops.exchange import grouped_map, grouped_sum


def _distinct_pairs(
    ds: ray.data.Dataset, id_col: str, text_col: str
) -> ray.data.Dataset:
    def ex(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    id_col: pd.Series([], dtype="int64"),
                    "token": pd.Series([], dtype="object"),
                }
            )
        e = pd.DataFrame({id_col: df[id_col].to_numpy()})
        e["token"] = df[text_col].str.split(" ").to_numpy()
        e = e.explode("token").drop_duplicates()
        return e[[id_col, "token"]]

    return ds.map_batches(ex, batch_format="pandas")


def doc_frequency(
    ds: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    min_df: int = 1,
) -> ray.data.Dataset:
    """(token, df): number of DISTINCT documents containing each token.
    Distinct pairs per batch → keyed exchange → vectorized count; the
    exchange carries one row per distinct (token, doc), never raw
    text."""
    pairs = _distinct_pairs(ds, id_col, text_col)

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"token": df["token"], "df": np.ones(len(df), dtype="int64")}
        )

    counts = grouped_sum(
        pairs.map_batches(pre, batch_format="pandas"),
        ["token"],
        ["df"],
    )
    if min_df > 1:
        counts = counts.filter(
            lambda r: r["df"] >= min_df
        )
    return counts


def build_postings(
    ds: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_postings: int = 1000,
) -> ray.data.Dataset:
    """(token, df, doc_ids, truncated): sorted (ascending id) postings
    list per token, capped at ``max_postings`` ids; ``df`` is always
    the TRUE distinct-doc count even when the list is truncated."""
    pairs = _distinct_pairs(ds, id_col, text_col)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame(
                {
                    "token": pd.Series([], dtype="object"),
                    "df": pd.Series([], dtype="int64"),
                    "doc_ids": pd.Series([], dtype="object"),
                    "truncated": pd.Series([], dtype=bool),
                }
            )
        ids = np.sort(g[id_col].to_numpy().astype("int64"))
        return pd.DataFrame(
            {
                "token": [g["token"].iloc[0]],
                "df": [int(len(ids))],
                "doc_ids": [ids[:max_postings].tolist()],
                "truncated": [len(ids) > max_postings],
            }
        )

    return grouped_map(pairs, ["token"], fold)


def conjunctive_search(
    ds: ray.data.Dataset,
    terms: list[str],
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """Documents containing ALL ``terms`` as whole tokens — a
    vectorized scan-filter (each doc is one row, so conjunction needs
    no exchange; with a prebuilt postings table the same answer is the
    intersection of the terms' doc_id lists — use that path when the
    index already exists and the term df is small)."""

    def hit(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({id_col: pd.Series([], dtype="int64")})
        padded = " " + df[text_col] + " "
        m = pd.Series(True, index=df.index)
        for t in terms:
            m &= padded.str.contains(f" {t} ", regex=False)
        return pd.DataFrame({id_col: df.loc[m, id_col].astype("int64")})

    return ds.map_batches(hit, batch_format="pandas")
