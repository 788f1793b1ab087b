"""Exact token-window segment dedup — the corpus-REWRITE flavor of
dedup (Lee et al., "Deduplicating Training Data Makes Language Models
Better", ACL 2022, adapted to fixed windows): split every document
into consecutive non-overlapping ``window``-token segments and drop
every segment whose exact text occurred earlier in the corpus (global
keep-first by ``(id, seg_idx)``).  This removes shared boilerplate /
template runs that whole-document dedup (``ops/dedup``) cannot see,
and rewrites the surviving text instead of just flagging pairs.

Scale shape (100 TB):

* segmentation slices each doc at byte offsets of every ``window``-th
  space (numpy scan + C-level string slices — no token-level explode);
* the global keep-first is ONE hash exchange keyed by the segment's
  64-bit content hash (``ops/hashing.md5_upper``) with only
  ``(h64, id, seg_idx, n_toks)`` ints on the wire (``exact=False``, the
  default) — segment TEXT never moves.  Not two crc32 lanes: CRC is
  linear over GF(2), so such a pair carries ~32 bits, and at 6.75M
  segments it wrongly emptied 44 docs of a 200k-page corpus;
* per-doc stats reduce through ``ops/exchange.grouped_sum`` (partial
  per block → keyed exchange → vectorized fold).

Collision contract (hash mode): two distinct segments colliding on the
64-bit hash would wrongly drop one — P(any collision) ≈ n²/2^65, about
1e-7 at 10^9 distinct segments.  ``exact=True`` exchanges the segment
string itself for a collision-free run, as
``segment_dedup_rebuild(wire='exact')`` does.

Reference parity: the reference has no segment-level dedup (its corpus
is per-document OCR calls); this op belongs to the training-data suite
the engine adds on top (SURVEY.md round-2 delta).
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import ray.data

from valere_ocr_ray.ops.exchange import cogroup_exchange, grouped_sum, partition_map

# not called here: perfbench/layers.traced_exchanges patches this name in
# this module, until the tracer wraps ``exchange._exchange`` instead
from valere_ocr_ray.ops.exchange import hash_exchange  # noqa: F401
from valere_ocr_ray.ops.hashing import distinct, md5_upper


def _doc_segments(txt: str, window: int) -> list[str]:
    """A doc's non-overlapping ``window``-token segments via byte-offset
    slicing (ascii fast path; token fallback for non-ascii)."""
    b = txt.encode()
    arr = np.frombuffer(b, dtype=np.uint8)
    cuts = np.flatnonzero(arr == 32)[window - 1 :: window]
    if len(b) == len(txt):
        starts = np.concatenate(([0], cuts + 1)).tolist()
        ends = np.concatenate((cuts, [len(b)])).tolist()
        return [txt[a:z] for a, z in zip(starts, ends)]
    toks = txt.split(" ")
    return [
        " ".join(toks[s : s + window]) for s in range(0, len(toks), window)
    ]


def _segment_rows(
    df: pd.DataFrame, id_col: str, text_col: str, window: int
) -> pd.DataFrame:
    """One row per (id, seg_idx) of a block's docs: consecutive
    non-overlapping ``window``-token segments (the last may be
    shorter).  Columns: ``id_col, seg_idx, seg, n_toks``."""
    # byte-offset segmentation (``_doc_segments``) slices the original
    # string — no token-level explode, no re-join of the tokens
    # (dominant term of a measured 262 s → 105 s improvement of the
    # composed 200k-page pipeline vs the explode+groupby-join formulation)
    ids_out: list[int] = []
    idx_out: list[int] = []
    seg_out: list[str] = []
    ntk_out: list[int] = []
    for i, txt in zip(df[id_col].to_numpy(), df[text_col].to_numpy()):
        segs = _doc_segments(txt, window)
        n_seg = len(segs)
        ids_out.extend([int(i)] * n_seg)
        idx_out.extend(range(n_seg))
        seg_out.extend(segs)
        last = (txt.count(" ") + 1) % window
        ntk_out.extend([window] * (n_seg - 1))
        ntk_out.append(last if last else window)
    return pd.DataFrame(
        {
            id_col: pd.Series(ids_out, dtype="int64"),
            "seg_idx": pd.Series(idx_out, dtype="int64"),
            "seg": pd.Series(seg_out, dtype="object"),
            "n_toks": pd.Series(ntk_out, dtype="int64"),
        }
    )


def _segment_hashes(
    df: pd.DataFrame, id_col: str, text_col: str, window: int
) -> pd.DataFrame:
    """One block's segment rows with the text replaced by its 64-bit
    hash ``h64`` — the hash-mode wire."""
    segs = _segment_rows(df, id_col, text_col, window)
    return pd.DataFrame(
        {
            id_col: segs[id_col],
            "seg_idx": segs["seg_idx"],
            "h64": md5_upper(segs["seg"]).view(np.int64),
            "n_toks": segs["n_toks"],
        }
    )


def segment_dedup_flags(
    ds: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    window: int = 10,
    exact: bool = False,
) -> ray.data.Dataset:
    """Every segment row plus a ``keep`` bool: True iff this is the
    corpus-wide FIRST occurrence of the segment (ordered by
    ``(id, seg_idx)``).  Hash mode (default) keys the exchange on the
    64-bit segment hash and drops the text column before the wire;
    ``exact=True`` keys on the segment string (collision-free, keeps
    ``seg`` in the output for rebuild).  Segmentation and hashing run
    per input block and the keep-first per partition, all inside the
    exchange's own tasks (``partition_map`` with ``pre``)."""
    key = "seg" if exact else "h64"
    explode = _segment_rows if exact else _segment_hashes
    pre = functools.partial(explode, id_col=id_col, text_col=text_col, window=window)

    def mark(df: pd.DataFrame) -> pd.DataFrame:
        # int codes so the keep-first ordering sort never compares
        # strings (exact mode would otherwise lexicographic-sort
        # millions of segment texts)
        codes, _ = distinct(df[key])
        order = np.lexsort(
            (df["seg_idx"].to_numpy(), df[id_col].to_numpy(), codes)
        )
        df = df.iloc[order]
        return df.assign(keep=~pd.Series(codes[order]).duplicated().to_numpy())

    return partition_map(ds, [key], mark, pre=pre)


def segment_dedup_stats(
    ds: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    window: int = 10,
    exact: bool = False,
) -> ray.data.Dataset:
    """Per-doc rewrite stats: ``(id, n_segs, n_kept, kept_tokens)`` —
    the audit table a dedup run publishes (how much of each document
    survives)."""
    flags = segment_dedup_flags(
        ds,
        id_col=id_col,
        text_col=text_col,
        window=window,
        exact=exact,
    )

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        keep = df["keep"].to_numpy() if len(df) else np.zeros(0, dtype=bool)
        return pd.DataFrame(
            {
                id_col: df[id_col].astype("int64"),
                "n_segs": np.ones(len(df), dtype="int64"),
                "n_kept": keep.astype("int64"),
                "kept_tokens": (keep * df["n_toks"].to_numpy()).astype("int64"),
            }
        )

    return grouped_sum(
        flags,
        [id_col],
        ["n_segs", "n_kept", "kept_tokens"],
        pre=pre,
    )


def segment_dedup_rebuild(
    ds: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    wire: str = "hash",
) -> ray.data.Dataset:
    """The cleaned corpus: ``(id, clean_text, n_kept)`` with dropped
    10-token segments removed and survivors re-joined in original
    order.  A doc whose every segment was seen earlier comes back with
    ``clean_text == ''`` rather than vanishing — the caller decides the
    drop policy.

    Both wires compute the keep flags, then cogroup ONLY the dropped
    ``(id, seg_idx)`` pairs — the minority — with the docs, and each
    doc re-segments locally.  They differ in the flags' exchange:
    ``wire='hash'`` (default) keys it on the 64-bit segment hash (ints
    only) and inherits hash mode's collision contract (output verified
    identical to the exact wire on the 200k-page corpus);
    ``wire='exact'`` keys it on the segment text — collision-free, used
    by byte-for-byte oracles."""
    if wire not in ("hash", "exact"):
        raise ValueError(f"unsupported wire={wire!r}")
    flags = segment_dedup_flags(
        ds,
        id_col=id_col,
        text_col=text_col,
        exact=wire == "exact",
    )
    dropped = flags.map_batches(
        lambda df: df.loc[~df["keep"], [id_col, "seg_idx"]],
        batch_format="pandas",
    )

    def fold(docs_df: pd.DataFrame, drop_df: pd.DataFrame) -> pd.DataFrame:
        if not len(docs_df):
            return pd.DataFrame(
                {
                    id_col: pd.Series([], dtype="int64"),
                    "clean_text": pd.Series([], dtype="object"),
                    "n_kept": pd.Series([], dtype="int64"),
                }
            )
        drop_by_id = (
            drop_df.groupby(id_col)["seg_idx"].agg(set).to_dict()
            if len(drop_df)
            else {}
        )
        ids, cleans, kepts = [], [], []
        for i, txt in zip(docs_df[id_col].to_numpy(), docs_df[text_col].to_numpy()):
            i = int(i)
            segs = _doc_segments(txt, 10)
            d = drop_by_id.get(i)
            # segments are cut at single spaces, so an untouched doc's
            # survivors re-join to its own text
            keep = [s for k, s in enumerate(segs) if k not in d] if d else segs
            ids.append(i)
            cleans.append(" ".join(keep) if d else txt)
            kepts.append(len(keep))
        return pd.DataFrame(
            {
                id_col: pd.Series(ids, dtype="int64"),
                "clean_text": pd.Series(cleans, dtype="object"),
                "n_kept": pd.Series(kepts, dtype="int64"),
            }
        )

    return cogroup_exchange(
        ds.select_columns([id_col, text_col]),
        dropped,
        [id_col],
        [id_col],
        fold,
    )
