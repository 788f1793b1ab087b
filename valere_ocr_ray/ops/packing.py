"""Training-sequence packing — concat-and-chunk assignment of documents
to fixed token-budget sequences, the layout step between a cleaned
corpus and a tokenized training shard (the "pack documents into
context-length sequences" stage every LM data pipeline ends with).

Semantics (deterministic, SQL-expressible, shard-local): documents are
partitioned into ``n_shards`` by ``id % n_shards``; within a shard,
docs are ordered by id, their token streams conceptually concatenated,
and the stream cut every ``budget`` tokens.  A document's sequence is
the one its FIRST token lands in: ``seq_id = start_offset // budget``
(documents may straddle a boundary — the standard pack-and-truncate
contract, not bin packing).

Scale shape (100 TB): token counting is a vectorized per-batch kernel;
only ``(id, shard, n_toks)`` ints reach the ONE hash exchange (by
shard); the in-shard pass is a sort + vectorized cumsum.  ``n_shards``
is the parallelism/size knob — pick it so one shard's (id, n_toks)
pairs fit a worker (ints only, so ~16 bytes/doc; 10^8 docs/shard is
fine).  Packing is embarrassingly parallel across shards by design —
the same contract a multi-node tokenizer fleet needs.

Reference parity: no analog in the reference (it emits per-document
JSON, never training shards); part of the added training-data suite
(SURVEY.md round-2 delta).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data

from valere_ocr_ray.ops.exchange import grouped_map, grouped_sum


def pack_sequences(
    ds: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    budget: int = 256,
    n_shards: int = 8,
) -> ray.data.Dataset:
    """Per-doc packing assignment: ``(id, shard, n_toks, seq_id,
    start_off)``.  Tokens are whitespace-split words (swap the counter
    for a real tokenizer's length column upstream if present)."""

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].astype("int64")
        return pd.DataFrame(
            {
                id_col: ids,
                "shard": (ids % n_shards).astype("int64"),
                "n_toks": df[text_col].str.split(" ").str.len().astype("int64"),
            }
        )

    small = ds.map_batches(pre, batch_format="pandas")

    def pack(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col, kind="mergesort")
        start = g["n_toks"].cumsum().shift(fill_value=0).astype("int64")
        return g.assign(
            start_off=start.to_numpy(),
            seq_id=(start.to_numpy() // budget).astype("int64"),
        )

    return grouped_map(small, ["shard"], pack)


def pack_stats(
    ds: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    budget: int = 256,
    n_shards: int = 8,
) -> ray.data.Dataset:
    """Per-sequence fill audit: ``(shard, seq_id, n_docs, sum_tokens)``
    — the table you read to check packing efficiency (sequences per
    shard, docs per sequence, token fill)."""
    packed = pack_sequences(
        ds,
        id_col=id_col,
        text_col=text_col,
        budget=budget,
        n_shards=n_shards,
    )

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "shard": df["shard"].astype("int64"),
                "seq_id": df["seq_id"].astype("int64"),
                "n_docs": np.ones(len(df), dtype="int64"),
                "sum_tokens": df["n_toks"].astype("int64"),
            }
        )

    return grouped_sum(
        packed.map_batches(pre, batch_format="pandas"),
        ["shard", "seq_id"],
        ["n_docs", "sum_tokens"],
    )


def pack_bins_ffd(
    ds: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    tokens_col: str = "n_toks",
    budget: int = 256,
    n_shards: int = 8,
) -> ray.data.Dataset:
    """NO-SPLIT packing: first-fit-decreasing bin assignment — every
    document lands whole in exactly one bin of capacity ``budget``
    (the SFT/instruction-tuning contract, where truncating a document
    across sequences corrupts the example; `pack_sequences` above is
    the pretraining concat-and-chunk contract that allows straddling).

    Per-doc output: ``(id, shard, n_toks, bin_id, oversize)``.
    A doc with ``n_toks > budget`` can't fit any bin: it gets a
    dedicated bin and ``oversize=True`` (route to truncation or a
    long-context shard downstream — never silently dropped).

    Determinism + distribution: docs hash into ``n_shards`` by
    ``id % n_shards`` and ride ONE int-only exchange (same contract
    as ``pack_sequences``); within a shard, FFD is the deterministic
    sort (tokens desc, id asc) + first-fit scan.  FFD is inherently
    sequential, so the in-shard kernel is a Python loop over docs with
    a VECTORIZED first-fit probe (``np.argmax`` over the bin-capacity
    array, C speed); guarantee is the classic FFD bound
    (≤ 11/9·OPT + 1 bins).  Pick ``n_shards`` so a shard's
    (id, n_toks) ints fit a worker — the loop is O(docs·bins) worst
    case, so shards of ~10^5 docs keep the kernel in milliseconds.

    Not SQL-expressible (the fit decision folds over all prior
    placements) — audited by pytest invariants: exactly-once
    assignment, no bin over budget except dedicated oversize bins,
    bin count within [ceil(total/budget), FFD bound], partition
    invariance.
    """

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].astype("int64")
        return pd.DataFrame(
            {
                id_col: ids,
                "shard": (ids % n_shards).astype("int64"),
                "n_toks": df[tokens_col].astype("int64"),
            }
        )

    small = ds.map_batches(pre, batch_format="pandas")

    def ffd(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["n_toks", id_col], ascending=[False, True], kind="mergesort")
        bin_of, _, oversize = ffd_assign(g["n_toks"].to_numpy(), budget)
        return g.assign(bin_id=bin_of, oversize=oversize)

    return grouped_map(small, ["shard"], ffd)


def ffd_assign(
    toks: np.ndarray, budget: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The in-shard FFD kernel shared by :func:`pack_bins_ffd` and the
    curate pipeline's nosplit packer.  ``toks`` must ALREADY be in FFD
    placement order (tokens desc, id asc); returns
    ``(bin_of, start_off, oversize)`` where ``start_off`` is the
    running token sum within the bin in placement order.

    Dedicated oversize bins carry residual capacity **-1**, not 0, so a
    ZERO-token doc (``fits = caps >= 0``) can never land in one — the
    'dedicated, never reused' invariant holds for all inputs.
    """
    n = len(toks)
    caps = np.empty(n, dtype=np.int64)  # bin residual capacities
    fill = np.empty(n, dtype=np.int64)  # tokens already in bin
    bin_of = np.empty(n, dtype=np.int64)
    off = np.empty(n, dtype=np.int64)
    oversize = toks > budget
    n_bins = 0
    for i in range(n):
        t = toks[i]
        if oversize[i]:
            caps[n_bins] = -1  # dedicated: no doc ever fits
            fill[n_bins] = t
            bin_of[i] = n_bins
            off[i] = 0
            n_bins += 1
            continue
        fits = caps[:n_bins] >= t
        if fits.any():
            b = int(np.argmax(fits))  # first (lowest-index) fit
            off[i] = fill[b]
            caps[b] -= t
            fill[b] += t
        else:
            b = n_bins
            caps[b] = budget - t
            fill[b] = t
            off[i] = 0
            n_bins += 1
        bin_of[i] = b
    return bin_of, off, oversize
