"""Corpus datasheet report — the one-shot audit a data engineer runs
before training on a corpus (the "datasheets for datasets" practice,
Gebru et al. 2021, and what the reference's ad-hoc per-bucket count
scripts approximate, e.g. ``IDD/finalcodes/InsuranceCard1.py:43-46``
manual listing windows).

Composes the engine's existing kernels into ONE summary dict:

    size        n_docs, total_tokens (``\\S+``), total_chars
    dedup       distinct-text count + exact-duplicate per-mil (the
                ``doc_exact_dedup`` hash exchange, ints on the wire;
                the report needs only the exchanged table's ROW COUNT,
                so nothing corpus-sized ever reaches the driver)
    language    per-language doc counts (``ops/textstats.langid_batch``)
    quality     FineWeb-style tier counts + token mass per tier
                (``doc_quality_tiers`` thresholds), Gopher keep rate
                (``ops/textstats.gopher_keep``), C4 keep rate (the
                curate ``--c4`` markers)
    length      exact p50/p90/p99 of char length via the value-count
                keyed sum (one row per DISTINCT length crosses the
                wire — bounded integer domain, never per-doc)

Scale shape: ONE vectorized signal pass over the corpus (the corpus is
read exactly once; the per-doc signal table — ~60 B/doc — is pinned
and feeds all three aggregations), then three small exchanges
(per-(lang,tier,gopher,c4) partial counts; distinct text hashes;
distinct lengths).  Driver state = #langs × #tiers × 4 +
#distinct-lengths rows — independent of corpus size except for the
distinct-length table (bounded by max doc length).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data

from valere_ocr_ray.ops import textstats
from valere_ocr_ray.ops.exchange import grouped_sum


def _signals(df: pd.DataFrame, text_col: str) -> pd.DataFrame:
    from valere_ocr_ray.ops.hashing import md5_lower

    text = df[text_col].astype(str)
    qual = textstats.quality_batch(df[[text_col]], text_col)
    # the ONE tier rule, shared with doc_quality_tiers (ADVICE r3)
    tier = textstats.quality_tier(
        qual["alpha_ratio"].to_numpy(np.int64),
        qual["stop_per_ktok"].to_numpy(np.int64),
    )
    low = text.str.lower()
    c4 = (
        ~low.str.contains("lorem ipsum", regex=False)
        & ~text.str.contains("{", regex=False)
        & (text.str.count(r"[.!?]") >= 3)
    ).to_numpy()
    return pd.DataFrame(
        {
            "lang": textstats.langid_batch(df[[text_col]], text_col)[
                "lang_pred"
            ].to_numpy(),
            "tier": tier.astype(np.int64),
            "gopher": textstats.gopher_keep(text).astype(np.int64),
            "c4": c4.astype(np.int64),
            "n_tokens": text.str.count(r"\S+").to_numpy(np.int64),
            "n_chars": text.str.len().to_numpy(np.int64),
            # uint64 -> int64 view: a bijection, fine as a group key
            "h": md5_lower(text).view(np.int64),
        }
    )


def corpus_report(
    path: str | list[str],
    *,
    text_col: str = "text",
    num_partitions: int | None = None,
) -> dict:
    """Audit the corpus at ``path`` (parquet file/dir) and return the
    datasheet dict.  Deterministic: pure functions of the corpus, no
    sampling."""
    ds = ray.data.read_parquet(path, columns=[text_col])
    # ONE pass over the corpus computes every per-doc signal (the regex
    # battery is the expensive part); the result is pinned because all
    # three aggregations below consume it.  Pinned state is 6 ints + a
    # 2-3 char lang code per doc (~60 B/doc — <1% of corpus bytes), so
    # materializing beats re-reading + re-scoring the corpus per
    # aggregation, and the object store spills it if it must.
    sig = ds.map_batches(
        lambda df: _signals(df, text_col), batch_format="pandas"
    ).materialize()

    # one partial-aggregation pass -> tiny (lang, tier, gopher, c4) table
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.assign(n_docs=np.int64(1)).groupby(
            ["lang", "tier", "gopher", "c4"], as_index=False
        )
        return g.agg(
            n_docs=("n_docs", "sum"),
            toks=("n_tokens", "sum"),
            chars=("n_chars", "sum"),
        )

    cells = grouped_sum(
        sig.map_batches(partial, batch_format="pandas"),
        ["lang", "tier", "gopher", "c4"],
        ["n_docs", "toks", "chars"],
        num_partitions=num_partitions,
    ).to_pandas()

    n_docs = int(cells["n_docs"].sum())
    total_tokens = int(cells["toks"].sum())
    total_chars = int(cells["chars"].sum())
    lang_counts = {
        str(k): int(v)
        for k, v in cells.groupby("lang")["n_docs"].sum().sort_index().items()
    }
    tier_counts = {
        int(k): int(v)
        for k, v in cells.groupby("tier")["n_docs"].sum().sort_index().items()
    }
    tier_tokens = {
        int(k): int(v)
        for k, v in cells.groupby("tier")["toks"].sum().sort_index().items()
    }
    kept_g = int(cells.loc[cells["gopher"] == 1, "n_docs"].sum())
    kept_c4 = int(cells.loc[cells["c4"] == 1, "n_docs"].sum())

    # exact-dup rate: distinct md5-derived 64-bit text hashes (ints on
    # the wire, doc_exact_dedup's exchange); only count() the result
    n_distinct = int(
        grouped_sum(
            sig.map_batches(
                lambda df: df[["h"]].assign(n=np.int64(1)),
                batch_format="pandas",
            ),
            ["h"],
            ["n"],
            num_partitions=num_partitions,
        ).count()
    )

    # exact length percentiles via the distinct-value count combine
    def len_counts(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("n_chars", as_index=False).size()
        return g.rename(columns={"size": "n"})

    lens = grouped_sum(
        sig.map_batches(len_counts, batch_format="pandas"), ["n_chars"], ["n"]
    ).to_pandas()
    lens = lens.sort_values("n_chars").reset_index(drop=True)
    cum = lens["n"].cumsum()

    def pct(q: float) -> int:
        if not n_docs:
            return 0
        target = int(np.ceil(q * n_docs))
        return int(lens.loc[(cum >= target).idxmax(), "n_chars"])

    denom = max(n_docs, 1)
    return {
        "n_docs": n_docs,
        "total_tokens": total_tokens,
        "total_chars": total_chars,
        # "exact" = distinct md5-derived 64-BIT text hashes, not
        # distinct texts: a hash collision undercounts by one —
        # negligible below ~billions of docs, and the same convention
        # as doc_exact_dedup (ADVICE r3 item 3)
        "n_distinct_texts": n_distinct,
        "exact_dup_per_mil": (n_docs - n_distinct) * 1000 // denom,
        "lang_counts": lang_counts,
        "tier_counts": tier_counts,
        "tier_tokens": tier_tokens,
        "gopher_keep_per_mil": kept_g * 1000 // denom,
        "c4_keep_per_mil": kept_c4 * 1000 // denom,
        "len_chars_p50": pct(0.5),
        "len_chars_p90": pct(0.9),
        "len_chars_p99": pct(0.99),
    }


def pages_report(run_dir: str, *, num_partitions: int | None = None) -> dict:
    """Datasheet over a ``run_resumable`` EXTRACTION output (the pages
    table, VERDICT r3 item 7): status mix, doc-kind mix, per-class doc
    counts + byte sizes, OCR rate — plus the lineage-manifest totals so
    the reader can see the corpus-level audit agrees with the per-shard
    receipts the run wrote.  One pruned read → per-block partials → one
    small exchange; driver state = #(kind × class × status × ocr)
    cells + #shards manifest rows, independent of corpus size."""
    from valere_ocr_ray.state.manifest import read_all_manifests

    ds = ray.data.read_parquet(
        run_dir,
        columns=["doc_kind", "doc_type", "status", "size_bytes", "ocr_used"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.assign(
            n_docs=np.int64(1),
            ocr=df["ocr_used"].astype("int64"),
        ).groupby(["doc_kind", "doc_type", "status"], as_index=False)
        return g.agg(
            n_docs=("n_docs", "sum"),
            n_ocr=("ocr", "sum"),
            bytes=("size_bytes", "sum"),
        )

    cells = grouped_sum(
        ds.map_batches(partial, batch_format="pandas"),
        ["doc_kind", "doc_type", "status"],
        ["n_docs", "n_ocr", "bytes"],
        num_partitions=num_partitions,
    ).to_pandas()

    n_docs = int(cells["n_docs"].sum())
    denom = max(n_docs, 1)
    ok = cells[cells["status"] == "ok"]
    manifests = read_all_manifests(run_dir)
    return {
        "n_docs": n_docs,
        "total_bytes_in": int(cells["bytes"].sum()),
        "status_counts": {
            str(k): int(v)
            for k, v in cells.groupby("status")["n_docs"].sum().sort_index().items()
        },
        "kind_counts": {
            str(k): int(v)
            for k, v in cells.groupby("doc_kind")["n_docs"].sum().sort_index().items()
        },
        "class_counts": {
            str(k): int(v)
            for k, v in ok.groupby("doc_type")["n_docs"].sum().sort_index().items()
        },
        "class_bytes": {
            str(k): int(v)
            for k, v in ok.groupby("doc_type")["bytes"].sum().sort_index().items()
        },
        "ok_per_mil": int(ok["n_docs"].sum()) * 1000 // denom,
        # docs whose text came through the OCR kernel (standalone
        # rasters + scanned PDFs), over OK docs
        "ocr_per_mil": int(cells["n_ocr"].sum()) * 1000
        // max(int(ok["n_docs"].sum()), 1),
        # lineage cross-check: the per-shard manifests' totals
        "lineage_n_shards": len(manifests),
        "lineage_n_in": int(sum(m["n_in"] for m in manifests)),
        "lineage_n_ok": int(sum(m["n_ok"] for m in manifests)),
        "lineage_bytes_in": int(sum(m["bytes_in"] for m in manifests)),
    }
