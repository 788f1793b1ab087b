"""Corpus-level repeated-line removal (RefinedWeb/CCNet-style).

Web corpora carry per-site boilerplate lines (cookie banners,
nav/footer text, subscribe prompts) that survive per-page extraction
because they ARE page text; the standard curation step strips every
line that appears in ≥ ``min_docs`` distinct documents corpus-wide
(RefinedWeb §3.2 line-wise filtering; CCNet's per-shard paragraph
dedup).  Scale shape, zero driver state:

    read once:  ds → (id, text) projection, materialized — both passes
        consume it, so an upstream extraction runs once, not twice (an
        input already materialized as (id, text) is used as it is)
    pass 1 (count):  ONE ``partition_map`` on line_hash: per block,
        per-line (doc_id, line_idx, line_hash) (md5-derived 64-bit,
        ints on the wire); per partition, the distinct-doc count →
        drop markers = the occurrences whose hash is in ≥ K docs (ints,
        sized by the BOILERPLATE OCCURRENCES, not the corpus)
    pass 2 (rewrite):  markers co-group with the text rows by doc_id
        (``cogroup_exchange``) and each partition rewrites its rows in
        one pass.  Every input row is kept and drops exactly its own
        frequent lines: a row's candidates are the lines at its id's
        marked indices, and a candidate drops iff its hash is among
        that id's marked hashes — so rows sharing an id stay apart.

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
import ray.data
from ray.data.dataset import MaterializedDataset

from valere_ocr_ray.ops.exchange import cogroup_exchange, partition_map

# not called here: perfbench/layers.traced_exchanges patches this name in
# this module, until the tracer wraps ``exchange._exchange`` instead
from valere_ocr_ray.ops.exchange import hash_exchange  # noqa: F401
from valere_ocr_ray.ops.hashing import md5_upper


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
    id_dtype = df[id_col].dtype
    if not ids and id_dtype == object:
        id_dtype = "string"  # Ray's size estimator chokes on empty object cols
    return pd.DataFrame(
        {
            "doc_id": pd.Series(ids, dtype=id_dtype),
            "line_idx": np.asarray(idxs, dtype=np.int64),
            "line_hash": md5_upper(lines).view(np.int64),
        }
    )


def strip_repeated_lines_exchange(
    ds: ray.data.Dataset,
    *,
    min_docs: int = 5,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Rewrite every doc with the lines found in ≥ ``min_docs`` distinct
    docs removed.  Output columns: ``(id_col, text_col, n_dropped)``.
    Every input row is kept and drops exactly its own frequent lines (a
    fully-boilerplate doc comes back empty, not missing; rows sharing
    an id are rewritten one by one).  The input is read once: the
    ``(id, text)`` projection is materialized (unless the input already
    is one), then the line count and the co-group both consume it.
    Zero driver state: the drop markers (ints) co-group with the text
    rows by doc id on ``cogroup_exchange``."""
    cols = [id_col, text_col]
    if not isinstance(ds, MaterializedDataset) or set(ds.columns() or ()) != set(cols):
        ds = ds.select_columns(cols).materialize()

    def markers(df: pd.DataFrame) -> pd.DataFrame:
        nd = df.drop_duplicates(["line_hash", "doc_id"]).groupby("line_hash").size()
        hot = nd[nd >= min_docs].index
        out = df.loc[df["line_hash"].isin(hot), ["doc_id", "line_idx", "line_hash"]]
        return out.astype({"line_idx": "int64"})

    drops = partition_map(
        ds,
        ["line_hash"],
        markers,
        pre=lambda df: _line_frame(df, id_col, text_col),
        num_partitions=num_partitions,
    )

    # co-group by doc id: per id, the marked line indices and hashes;
    # each text row hashes only the lines at its id's marked indices.
    # A side whose every block was empty arrives without columns.
    def rebuild(docs: pd.DataFrame, marks: pd.DataFrame) -> pd.DataFrame:
        marked: dict = {}
        marks = marks.reindex(columns=["doc_id", "line_idx", "line_hash"])
        for d, j, h in marks.itertuples(index=False, name=None):
            idxs, hashes = marked.setdefault(d, (set(), set()))
            idxs.add(j)
            hashes.add(h)
        docs = docs.reindex(columns=[id_col, text_col])
        texts: list[str] = []
        dropped: list[int] = []
        for d, text in zip(docs[id_col].tolist(), docs[text_col].astype(str)):
            lines = text.split("\n")
            drop: set = set()
            if d in marked:
                idxs, hashes = marked[d]
                cand = [j for j in idxs if j < len(lines)]
                h = md5_upper([lines[j] for j in cand]).view(np.int64)
                drop = {j for j, x in zip(cand, h.tolist()) if x in hashes}
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
        ds, drops, [id_col], ["doc_id"], rebuild, num_partitions=num_partitions
    )
