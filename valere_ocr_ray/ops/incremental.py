"""Incremental keyed aggregation state — fold NEW data into a persisted
aggregate without recomputing history (the micro-batch / append-ingest
pattern: nightly shards arriving against a running per-key total).

State layout: ``state_dir/bucket=<b>/v<N>.parquet`` — key-hash buckets
(fixed modulus, recorded at creation) each holding that bucket's
current per-key sums, plus ``_state_meta.json`` mapping every bucket to
its committed version.  An update pre-aggregates the new shard per
block, hash-exchanges it on the state's own key (so each bucket's new
rows land in ONE task), merges bucket-by-bucket against the committed
version, writes ``v<N+1>`` via tmp+rename, and only then commits the
meta — the same data-then-manifest ordering as
``pipelines/extract.run_resumable`` (reference resume semantics: the
``ContinuationToken`` cursor loop,
``IDD/SearchingS3Buckets/S3searchFileContentByString.py:43-59``).  A
crash mid-update leaves the meta at
``v<N>``: rerunning the same shard regenerates identical ``v<N+1>``
files (merge inputs unchanged), so retries are idempotent and
half-written files are never visible to readers.

Scale shape: driver state is the meta dict (one int per bucket); the
merge is a vectorized concat+groupby per bucket; buckets untouched by
the shard are not rewritten.  Pick ``num_buckets`` so one bucket's keys
fit a worker — the same contract as any hash layout.
"""

from __future__ import annotations

import json
import os
from collections.abc import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from valere_ocr_ray.ops.exchange import _key_hash, grouped_map


def _meta_path(state_dir: str) -> str:
    return os.path.join(state_dir, "_state_meta.json")


def _load_meta(state_dir: str) -> dict | None:
    try:
        with open(_meta_path(state_dir)) as f:
            return json.load(f)
    except FileNotFoundError:
        return None


def _bucket_file(state_dir: str, bucket: int, version: int) -> str:
    return os.path.join(state_dir, f"bucket={bucket}", f"v{version}.parquet")


def update_keyed_state(
    state_dir: str,
    new_ds: ray.data.Dataset,
    keys: Sequence[str],
    sums: Sequence[str],
    *,
    num_buckets: int = 16,
) -> dict:
    """Fold ``new_ds`` into the persisted per-key sums under
    ``state_dir`` (created on first call; afterwards ``keys``/``sums``/
    ``num_buckets`` must match the recorded schema).  Returns a summary
    ``{version, n_buckets_updated, n_keys_updated}``."""
    keys, sums = list(keys), list(sums)
    meta = _load_meta(state_dir)
    if meta is None:
        meta = {
            "keys": keys,
            "sums": sums,
            "num_buckets": num_buckets,
            "version": 0,
            "buckets": {},  # bucket id (str) -> committed version
        }
        os.makedirs(state_dir, exist_ok=True)
    else:
        if meta["keys"] != keys or meta["sums"] != sums:
            raise ValueError(
                f"state schema mismatch: {meta['keys']}/{meta['sums']} "
                f"!= {keys}/{sums}"
            )
        num_buckets = meta["num_buckets"]
    vnext = meta["version"] + 1
    committed = dict(meta["buckets"])

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        agg = df.groupby(keys, as_index=False)[sums].sum()
        tbl = pa.Table.from_pandas(agg[keys], preserve_index=False)
        agg["__bucket"] = (
            _key_hash(tbl, keys) % np.uint64(num_buckets)
        ).astype("int64")
        return agg

    pre_ds = new_ds.map_batches(pre, batch_format="pandas")

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame(
                {
                    "bucket": pd.Series([], dtype="int64"),
                    "n_keys": pd.Series([], dtype="int64"),
                }
            )
        b = int(g["__bucket"].iloc[0])
        parts = [g[keys + sums]]
        cur_v = committed.get(str(b))
        if cur_v is not None:
            parts.append(
                pq.read_table(_bucket_file(state_dir, b, cur_v)).to_pandas()
            )
        merged = (
            pd.concat(parts, ignore_index=True)
            .groupby(keys, as_index=False)[sums]
            .sum()
            .sort_values(keys, kind="mergesort")
        )
        out = _bucket_file(state_dir, b, vnext)
        os.makedirs(os.path.dirname(out), exist_ok=True)
        tmp = out + ".tmp"
        pq.write_table(pa.Table.from_pandas(merged, preserve_index=False), tmp)
        os.replace(tmp, out)  # atomic: readers never see partial files
        return pd.DataFrame({"bucket": [b], "n_keys": [len(merged)]})

    summary = (
        grouped_map(pre_ds, ["__bucket"], merge, num_partitions=num_buckets)
        .to_pandas()
    )

    # data is durable — NOW commit the meta (crash before this line
    # leaves the previous version visible; rerun regenerates v{next})
    for b in summary["bucket"]:
        meta["buckets"][str(int(b))] = vnext
    meta["version"] = vnext
    tmp = _meta_path(state_dir) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(meta, f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, _meta_path(state_dir))
    return {
        "version": vnext,
        "n_buckets_updated": int(len(summary)),
        "n_keys_updated": int(summary["n_keys"].sum()) if len(summary) else 0,
    }


def dedup_against_state(
    state_dir: str,
    new_ds: ray.data.Dataset,
    *,
    key_col: str,
    id_col: str,
    num_buckets: int = 16,
) -> tuple[ray.data.Dataset, dict]:
    """Incremental exact dedup: filter a newly-arrived shard against the
    ACCUMULATED corpus hash state, return only the novel rows, and fold
    their keys in — the continuous-ingest form of ``ops/dedup.
    exact_dedup`` (a web crawl re-sees 30-50% of its pages every
    batch; re-deduping the full history per shard is O(corpus) per
    arrival, this is O(shard + touched-bucket keys)).

    Shard rows ride ONE hash exchange on ``key_col`` to the state's
    bucket layout; each touched bucket's task (a) keeps the min-
    ``id_col`` row per in-shard duplicate key, (b) drops keys already
    in the bucket's committed key file (vectorized ``isin``), (c) when
    any novel key survives, writes the bucket's ``v<N+1>`` key file via
    tmp+rename.  Buckets with no novel keys are NOT rewritten.  Meta
    commits only after the novel rows are materialized (data-then-
    manifest, same crash contract as ``update_keyed_state``: a crash
    mid-update leaves the previous version visible and the rerun is
    idempotent).  The materialize is bounded by the SHARD size — the
    micro-batch unit — never the corpus.

    Returns ``(novel_rows, {version, n_novel, n_buckets_updated})``.
    """
    meta = _load_meta(state_dir)
    if meta is None:
        meta = {
            "mode": "dedup",
            "keys": [key_col],
            "sums": [],
            "num_buckets": num_buckets,
            "version": 0,
            "buckets": {},
        }
        os.makedirs(state_dir, exist_ok=True)
    else:
        if meta.get("mode") != "dedup" or meta["keys"] != [key_col]:
            raise ValueError(
                f"state at {state_dir} is not a dedup state on {key_col!r}"
            )
        num_buckets = meta["num_buckets"]
    vnext = meta["version"] + 1
    committed = dict(meta["buckets"])

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        tbl = pa.Table.from_pandas(df[[key_col]], preserve_index=False)
        df = df.copy()
        df["__bucket"] = (
            _key_hash(tbl, [key_col]) % np.uint64(num_buckets)
        ).astype("int64")
        return df

    def filter_and_commit(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return g
        b = int(g["__bucket"].iloc[0])
        g = g.sort_values([key_col, id_col], kind="mergesort").drop_duplicates(
            key_col, keep="first"
        )
        cur_v = committed.get(str(b))
        if cur_v is not None:
            seen = pq.read_table(_bucket_file(state_dir, b, cur_v))
            g = g[~g[key_col].isin(seen[key_col].to_pandas())]
            seen_keys = seen[key_col].to_pandas()
        else:
            seen_keys = pd.Series([], dtype=g[key_col].dtype)
        if not len(g):
            return g  # nothing novel: bucket stays at its version
        keys_next = (
            pd.concat([seen_keys, g[key_col]], ignore_index=True)
            .sort_values(kind="mergesort")
            .reset_index(drop=True)
        )
        out = _bucket_file(state_dir, b, vnext)
        os.makedirs(os.path.dirname(out), exist_ok=True)
        tmp = out + ".tmp"
        pq.write_table(
            pa.Table.from_pandas(keys_next.to_frame(key_col), preserve_index=False),
            tmp,
        )
        os.replace(tmp, out)
        return g

    novel = grouped_map(
        new_ds.map_batches(pre, batch_format="pandas"),
        ["__bucket"],
        filter_and_commit,
        num_partitions=num_buckets,
    ).materialize()  # force the bucket writes before the meta commit

    # which buckets advanced = the distinct __bucket values among novel
    # rows (a bucket writes v<N+1> iff it emitted at least one row)
    def bucket_ids(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"b": df["__bucket"].unique().astype("int64")})

    n_novel = novel.count()
    if n_novel:
        touched = novel.map_batches(
            bucket_ids, batch_format="pandas", batch_size=None
        ).to_pandas()["b"].unique()
    else:
        touched = np.array([], dtype=np.int64)
    for b in touched:
        meta["buckets"][str(int(b))] = vnext
    meta["version"] = vnext
    tmp = _meta_path(state_dir) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(meta, f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, _meta_path(state_dir))
    return novel.drop_columns(["__bucket"]), {
        "version": vnext,
        "n_novel": int(n_novel),
        "n_buckets_updated": int(len(touched)),
    }


def lsh_dedup_against_state(
    state_dir: str,
    new_ds: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_perm: int = 64,
    num_buckets: int = 16,
) -> tuple[ray.data.Dataset, dict]:
    """Incremental NEAR-dup dedup: filter an arriving shard against the
    persisted MinHash band state (the approximate sibling of
    ``dedup_against_state`` — what a continuous crawl actually runs,
    since revisited pages mutate).  A new doc is a duplicate iff it
    shares an LSH band bucket with a historical doc (or an earlier-id
    doc of the same shard) AND the signature-estimated Jaccard over
    token 3-shingles in 16 bands is at least 0.5 — identical semantics
    to ``ops/dedup.minhash_lsh_pairs`` with history as the implicit
    left side.

    Three passes, all bounded by the SHARD (never the history):

    1. shard band rows (``band_id, band_hash, doc_id, sig``) ride one
       hash exchange to the state's bucket layout; each touched bucket
       reads ONLY its committed band file and emits per-(doc, bucket)
       match verdicts — vectorized signature-agreement, ``MAX_BUCKET``
       skew cap;
    2. one ``doc_id`` co-group (``cogroup_exchange``) of the payload
       rows with the verdicts folds verdicts across buckets (a doc is
       novel iff NO bucket matched) and keeps the novel payload rows;
    3. the novel docs' band rows (recomputed on the novel subset —
       cheaper than a third band-row exchange) append to each bucket's
       ``v<N+1>`` file via tmp+rename; meta commits last (same crash
       contract as ``update_keyed_state``: a rerun against the old
       committed state is idempotent).

    State cost: ``16 × num_perm`` int64s per surviving doc — the
    price of estimating Jaccard against history without its text.
    Returns ``(novel_rows, {version, n_novel, n_buckets_updated})``.
    """
    from valere_ocr_ray.ops.dedup import MAX_BUCKET, SEED, _explode_bands, _minhash_batch
    from valere_ocr_ray.ops.exchange import cogroup_exchange

    params = {"num_perm": num_perm, "k_shingle": 3, "bands": 16, "seed": SEED}
    meta = _load_meta(state_dir)
    if meta is None:
        meta = {
            "mode": "lsh_dedup",
            "keys": [id_col],
            "sums": [],
            "params": params,
            "num_buckets": num_buckets,
            "version": 0,
            "buckets": {},
        }
        os.makedirs(state_dir, exist_ok=True)
    else:
        if meta.get("mode") != "lsh_dedup" or meta.get("params") != params:
            raise ValueError(
                f"state at {state_dir} is not an lsh_dedup state with "
                f"params {params}"
            )
        num_buckets = meta["num_buckets"]
    vnext = meta["version"] + 1
    committed = dict(meta["buckets"])

    base = new_ds
    if id_col != "doc_id" or text_col != "text":
        base = base.map_batches(
            lambda df: df.rename(
                columns={id_col: "doc_id", text_col: "text"}
            ),
            batch_format="pandas",
        )

    def sig_rows(df: pd.DataFrame) -> pd.DataFrame:
        br = _explode_bands(
            _minhash_batch(df[["doc_id", "text"]], num_perm, 3, SEED), 16
        )
        if len(br):
            br["__bucket"] = (
                br["band_hash"].to_numpy(dtype=np.int64).view(np.uint64)
                % np.uint64(num_buckets)
            ).astype("int64")
        else:
            br["__bucket"] = pd.Series([], dtype="int64")
        return br

    band_rows = base.map_batches(sig_rows, batch_format="pandas")

    def bucket_match(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "matched": pd.Series([], dtype="int64"),
            }
        )
        if not len(g):
            return empty
        b = int(g["__bucket"].iloc[0])
        cur_v = committed.get(str(b))
        old = (
            pq.read_table(_bucket_file(state_dir, b, cur_v)).to_pandas()
            if cur_v is not None
            else None
        )
        old_groups = (
            dict(tuple(old.groupby(["band_id", "band_hash"])))
            if old is not None and len(old)
            else {}
        )
        ids_out: list[np.ndarray] = []
        matched_out: list[np.ndarray] = []
        for key, gg in g.groupby(["band_id", "band_hash"], sort=True):
            og = old_groups.get(key)
            if og is None and len(gg) < 2:
                ids_out.append(gg["doc_id"].to_numpy(dtype=np.int64))
                matched_out.append(np.zeros(len(gg), np.int64))
                continue
            gg = gg.sort_values("doc_id", kind="mergesort").iloc[:MAX_BUCKET]
            new_ids = gg["doc_id"].to_numpy(dtype=np.int64)
            new_sigs = np.stack([np.asarray(s) for s in gg["sig"]])
            if og is not None and len(og):
                og = og.sort_values("doc_id", kind="mergesort").iloc[:MAX_BUCKET]
                old_sigs = np.stack([np.asarray(s) for s in og["sig"]])
                est_old = (new_sigs[:, None, :] == old_sigs[None, :, :]).mean(axis=2)
                m_old = (est_old >= 0.5).any(axis=1)
            else:
                m_old = np.zeros(len(gg), bool)
            est_nn = (new_sigs[:, None, :] == new_sigs[None, :, :]).mean(axis=2)
            earlier = new_ids[None, :] < new_ids[:, None]
            m_new = ((est_nn >= 0.5) & earlier).any(axis=1)
            ids_out.append(new_ids)
            matched_out.append((m_old | m_new).astype(np.int64))
        out = pd.DataFrame(
            {
                "doc_id": np.concatenate(ids_out),
                "matched": np.concatenate(matched_out),
            }
        )
        # one verdict per doc per bucket (a doc can hit several bands
        # in the same bucket)
        return out.groupby("doc_id", as_index=False)["matched"].max()

    verdicts = grouped_map(
        band_rows, ["__bucket"], bucket_match, num_partitions=num_buckets
    )

    # co-group the payload with its per-bucket verdicts by doc id: a
    # doc is novel iff it has verdicts and none of them matched
    def attach(payload: pd.DataFrame, verdicts: pd.DataFrame) -> pd.DataFrame:
        payload = payload.drop(columns=["matched"], errors="ignore")
        if not len(verdicts):
            return payload.iloc[0:0]
        dup = verdicts.groupby("doc_id")["matched"].max()
        return payload[payload["doc_id"].isin(dup.index[dup == 0])]

    novel = cogroup_exchange(
        base, verdicts, ["doc_id"], ["doc_id"], attach, num_partitions=num_buckets
    ).materialize()
    n_novel = novel.count()

    # commit: recompute band rows on the (small) novel subset and
    # append to each touched bucket's next version
    def commit_bucket(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "bucket": pd.Series([], dtype="int64"),
                "n_rows": pd.Series([], dtype="int64"),
            }
        )
        if not len(g):
            return empty
        b = int(g["__bucket"].iloc[0])
        parts = [g[["band_id", "band_hash", "doc_id", "sig"]]]
        cur_v = committed.get(str(b))
        if cur_v is not None:
            parts.append(
                pq.read_table(_bucket_file(state_dir, b, cur_v)).to_pandas()
            )
        merged = pd.concat(parts, ignore_index=True).sort_values(
            ["band_id", "band_hash", "doc_id"], kind="mergesort"
        )
        out = _bucket_file(state_dir, b, vnext)
        os.makedirs(os.path.dirname(out), exist_ok=True)
        tmp = out + ".tmp"
        pq.write_table(pa.Table.from_pandas(merged, preserve_index=False), tmp)
        os.replace(tmp, out)
        return pd.DataFrame({"bucket": [b], "n_rows": [len(merged)]})

    if n_novel:
        summary = grouped_map(
            novel.map_batches(sig_rows, batch_format="pandas"),
            ["__bucket"],
            commit_bucket,
            num_partitions=num_buckets,
        ).to_pandas()
    else:
        summary = pd.DataFrame({"bucket": pd.Series([], dtype="int64")})

    for b in summary["bucket"]:
        meta["buckets"][str(int(b))] = vnext
    meta["version"] = vnext
    tmp = _meta_path(state_dir) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(meta, f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, _meta_path(state_dir))
    if id_col != "doc_id" or text_col != "text":
        novel = novel.map_batches(
            lambda df: df.rename(
                columns={"doc_id": id_col, "text": text_col}
            ),
            batch_format="pandas",
        )
    return novel, {
        "version": vnext,
        "n_novel": int(n_novel),
        "n_buckets_updated": int(len(summary)),
    }


def read_state(state_dir: str) -> ray.data.Dataset:
    """The current committed aggregate as a Dataset (only each bucket's
    committed version is visible — in-flight updates never leak)."""
    meta = _load_meta(state_dir)
    if meta is None:
        raise FileNotFoundError(f"no state at {state_dir}")
    files = [
        _bucket_file(state_dir, int(b), v) for b, v in meta["buckets"].items()
    ]
    if not files:
        raise FileNotFoundError(f"state at {state_dir} is empty")
    # select the state schema explicitly: the bucket=<b> path component
    # would otherwise be inferred as a Hive partition column
    return ray.data.read_parquet(files).select_columns(
        meta["keys"] + meta["sums"]
    )
