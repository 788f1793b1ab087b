"""Corpus-level repeated-line removal (RefinedWeb/CCNet-style).

Web corpora carry per-site boilerplate lines (cookie banners,
nav/footer text, subscribe prompts) that survive per-page extraction
because they ARE page text; the standard curation step strips every
line that appears in ≥ ``min_docs`` distinct documents corpus-wide
(RefinedWeb §3.2 line-wise filtering; CCNet's per-shard paragraph
dedup).  Scale shape:

    pass 1 (count):  map_batches → per-doc DISTINCT line hashes
        (md5-derived 64-bit, ints on the wire) → per-batch partial
        (line_hash → n_docs) → ONE hash exchange on line_hash →
        per-partition sum → frequent set = {hash : n_docs ≥ K}
    pass 2 (rewrite), two variants:
      * broadcast (``strip_repeated_lines``): frequent hashes — the
        boilerplate VOCABULARY, orders of magnitude smaller than the
        corpus — ``ray.put`` once, one corpus pass drops member lines
        (sorted-array ``np.searchsorted`` membership).  Driver state =
        the frequent hash array only.
      * exchange (``strip_repeated_lines_exchange``): zero driver
        state.  Pass 1 additionally emits (doc_id, line_idx) for every
        line occurrence whose hash is frequent (drop markers — ints,
        sized by the BOILERPLATE OCCURRENCES, not the corpus); markers
        co-group with the text rows by doc_id (``cogroup_exchange``)
        and each partition rebuilds its documents in one pass.

Lines are compared exactly (no normalization); lines that are empty
after ``strip()`` are never counted nor dropped (they are document
structure, not boilerplate).  Membership is on 64-bit hashes — a
collision would drop an innocent line; at 10^10 distinct lines the
expected collision count is ~10^-9 of the corpus (documented
contract, same as ``ops/segdedup``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data

from valere_ocr_ray.ops.dedup import _token_hashes64
from valere_ocr_ray.ops.exchange import cogroup_exchange, hash_exchange


def _line_frame(df: pd.DataFrame, id_col: str, text_col: str) -> pd.DataFrame:
    """Explode docs to (doc_id, line_idx, line_hash) — non-blank lines
    only, hashes as int64 views of the uint64 md5 fold.  The id column
    keeps its input dtype (int64 doc ids or string urls both work as
    exchange keys)."""
    ids: list = []
    idxs: list[int] = []
    lines: list[str] = []
    for doc_id, text in zip(df[id_col], df[text_col]):
        for j, line in enumerate(str(text).split("\n")):
            if line.strip():
                ids.append(doc_id)
                idxs.append(j)
                lines.append(line)
    h = (
        _token_hashes64(lines).view(np.int64)
        if lines
        else np.zeros(0, dtype=np.int64)
    )
    id_dtype = df[id_col].dtype
    if not ids and id_dtype == object:
        id_dtype = "string"  # Ray's size estimator chokes on empty object cols
    return pd.DataFrame(
        {
            "doc_id": pd.Series(ids, dtype=id_dtype),
            "line_idx": np.asarray(idxs, dtype=np.int64),
            "line_hash": h,
        }
    )


def repeated_lines(
    ds: ray.data.Dataset,
    *,
    min_docs: int = 5,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """(line_hash, n_docs) for every line in ≥ ``min_docs`` distinct
    docs — the audit/bill-of-materials view of the frequent set."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        lf = _line_frame(df, id_col, text_col)
        p = (
            lf.drop_duplicates(["line_hash", "doc_id"])
            .groupby("line_hash", sort=False)
            .size()
            .reset_index(name="n_docs")
        )
        p["n_docs"] = p["n_docs"].astype("int64")
        return p

    partials = ds.map_batches(partial, batch_format="pandas")
    ex = hash_exchange(partials, ["line_hash"], num_partitions)

    def total(df: pd.DataFrame) -> pd.DataFrame:
        t = df.groupby("line_hash", sort=False)["n_docs"].sum().reset_index()
        return t[t["n_docs"] >= min_docs]

    return ex.map_batches(total, batch_format="pandas", batch_size=None)


def strip_repeated_lines(
    ds: ray.data.Dataset,
    *,
    min_docs: int = 5,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Broadcast variant: rewrite every doc with its frequent lines
    removed.  Output columns: ``(id_col, text_col, n_dropped)``; every
    input row is kept (a fully-boilerplate doc comes back empty, not
    missing)."""
    freq = repeated_lines(
        ds,
        min_docs=min_docs,
        text_col=text_col,
        id_col=id_col,
        num_partitions=num_partitions,
    )
    # materialize() first: to_arrow_refs() alone runs the plan twice (Ray 2.49)
    parts = [
        t["line_hash"].to_numpy(zero_copy_only=False)
        for t in ray.get(list(freq.materialize().to_arrow_refs()))
        if "line_hash" in t.schema.names  # empty partitions are schema-less
    ]
    hashes = np.sort(
        np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
    ).astype(np.int64)
    ref = ray.put(hashes)

    def rewrite(df: pd.DataFrame) -> pd.DataFrame:
        fs = ray.get(ref)
        texts: list[str] = []
        dropped: list[int] = []
        for text in df[text_col]:
            lines = str(text).split("\n")
            nonblank = [ln for ln in lines if ln.strip()]
            h = (
                _token_hashes64(nonblank).view(np.int64)
                if nonblank
                else np.zeros(0, dtype=np.int64)
            )
            pos = np.searchsorted(fs, h)
            member = (pos < len(fs)) & (fs[np.minimum(pos, len(fs) - 1)] == h) if len(fs) else np.zeros(len(h), bool)
            drop = {ln for ln, m in zip(nonblank, member) if m}
            kept = [ln for ln in lines if ln not in drop]
            texts.append("\n".join(kept))
            dropped.append(len(lines) - len(kept))
        return pd.DataFrame(
            {
                id_col: df[id_col].to_numpy(),
                text_col: texts,
                "n_dropped": np.asarray(dropped, dtype="int64"),
            }
        )

    return ds.map_batches(rewrite, batch_format="pandas")


def strip_repeated_lines_exchange(
    ds: ray.data.Dataset,
    *,
    min_docs: int = 5,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Exchange variant, zero driver state: the drop markers (ints)
    co-group with the ``(id, text)`` rows by doc id on
    ``cogroup_exchange``, and each partition rebuilds its documents in
    one pass.  Use when the boilerplate vocabulary itself
    scales with the corpus (the broadcast variant's documented limit)."""
    lf = ds.map_batches(
        lambda df: _line_frame(df, id_col, text_col), batch_format="pandas"
    )
    ex1 = hash_exchange(lf, ["line_hash"], num_partitions)

    def markers(df: pd.DataFrame) -> pd.DataFrame:
        nd = df.drop_duplicates(["line_hash", "doc_id"]).groupby("line_hash").size()
        hot = nd[nd >= min_docs].index
        out = df[df["line_hash"].isin(hot)]
        out2 = out[["doc_id", "line_idx"]].copy()
        out2["line_idx"] = out2["line_idx"].astype("int64")
        return out2

    drops = ex1.map_batches(markers, batch_format="pandas", batch_size=None)

    # co-group by doc id: one pass per partition — a dict of drop sets
    # from the markers, then one loop over the text rows (a repeated id
    # keeps its first text row; a doc without markers keeps every line)
    def rebuild(docs: pd.DataFrame, marks: pd.DataFrame) -> pd.DataFrame:
        drop_sets: dict = {}
        if len(marks):
            for d, j in zip(marks["doc_id"].tolist(), marks["line_idx"].tolist()):
                drop_sets.setdefault(d, set()).add(j)
        # a side whose every block was empty arrives without columns
        docs = docs.reindex(columns=[id_col, text_col]).drop_duplicates(id_col)
        texts: list[str] = []
        dropped: list[int] = []
        for d, text in zip(docs[id_col].tolist(), docs[text_col].astype(str)):
            lines = text.split("\n")
            drop = drop_sets.get(d, ())
            kept = [ln for j, ln in enumerate(lines) if j not in drop]
            texts.append("\n".join(kept))
            dropped.append(len(lines) - len(kept))
        return pd.DataFrame(
            {
                id_col: docs[id_col].to_numpy(),
                text_col: pd.Series(texts, dtype="object"),
                "n_dropped": np.asarray(dropped, dtype="int64"),
            }
        )

    return cogroup_exchange(
        ds.select_columns([id_col, text_col]),
        drops,
        [id_col],
        ["doc_id"],
        rebuild,
        num_partitions=num_partitions,
    )
