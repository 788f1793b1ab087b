"""Scale receipt for the PQ ANN path: 1M 64-d embeddings.

Synthesizes N vectors as a PURE FUNCTION of vec_id (same GPU-hash
construction as ``semdedup_scale.py`` — deterministic under any block
layout, never materialized on the driver), then times the full
compressed-ANN lifecycle: stride-sample codebook fit, full-corpus
encode (the one pass that touches float vectors), ADC top-10 over the
16-byte codes, retrieve-and-refine rerank, and a distributed
brute-force reference to score recall against.

Run:  python tools/pq_scale.py [N]  (default 1_000_000)
Prints one JSON line; paste into BASELINE.md.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np
import pandas as pd

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)


def synth_batch(df: pd.DataFrame) -> pd.DataFrame:
    ids = df["id"].to_numpy(dtype=np.int64)
    j = np.arange(64, dtype=np.float64)
    ang = ids[:, None] * 12.9898 + j[None, :] * 78.233
    v = np.sin(ang) * 43758.5453
    v = (v - np.floor(v) - 0.5).astype(np.float32)
    return pd.DataFrame({"vec_id": ids, "embedding": [r for r in v]})


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", os.cpu_count() or 1)),
            include_dashboard=False,
            logging_level="ERROR",
        )
    import ray.data as rd
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from valere_ocr_ray.ops.similarity import (
        PqIndexOnDisk,
        knn_brute_force,
        pq_encode,
        pq_fit,
        pq_persist,
        pq_search,
        pq_search_rerank,
    )

    base = rd.range(n).map_batches(synth_batch, batch_format="pandas")
    queries = np.stack(
        synth_batch(pd.DataFrame({"id": [0, 1, 2]}))["embedding"].to_numpy()
    ).astype(np.float64)

    t0 = time.perf_counter()
    cb = pq_fit(base, m=16, n_centroids=256, sample_stride=max(1, n // 2000))
    fit_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    codes = pq_encode(base, cb).materialize()  # the index build artifact
    enc_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    adc = pq_search(codes, cb, queries, k=10)
    adc_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    # expand=20: synthetic uniform-random vectors are PQ's worst case
    # (no cluster structure for the codebooks to exploit), so the
    # refine stage pulls a deeper candidate pool — still only 200
    # float vectors fetched per query out of N
    refined = pq_search_rerank(codes, cb, base, queries, k=10, expand=20)
    rerank_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    brute = knn_brute_force(base, queries, k=10)
    brute_s = time.perf_counter() - t0

    # persisted index (VERDICT r4 item 5): write codes once, reopen
    # from the path alone, search the shards — must value-match the
    # in-memory ADC result
    import shutil

    idx_dir = "/tmp/valere_pq_scale_idx"
    shutil.rmtree(idx_dir, ignore_errors=True)
    t0 = time.perf_counter()
    pq_persist(codes, cb, idx_dir, num_buckets=32)
    persist_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    disk = PqIndexOnDisk(idx_dir).search(queries, k=10)
    disk_s = time.perf_counter() - t0
    key = ["query_id", "vec_id", "sim_e6"]
    disk_eq = disk[key].sort_values(key).reset_index(drop=True).equals(
        adc[key].sort_values(key).reset_index(drop=True)
    )

    def overlap(frame):
        return sum(
            len(
                set(frame[frame["query_id"] == qi]["vec_id"].astype(int))
                & set(brute[brute["query_id"] == qi]["vec_id"].astype(int))
            )
            for qi in range(len(queries))
        ) / (10 * len(queries))

    print(
        json.dumps(
            {
                "metric": "PQ ANN scale receipt",
                "n": n,
                "fit_sec": round(fit_s, 2),
                "encode_sec": round(enc_s, 2),
                "encode_rows_per_sec": round(n / enc_s, 1),
                "adc_search_sec": round(adc_s, 2),
                "rerank_search_sec": round(rerank_s, 2),
                "brute_force_sec": round(brute_s, 2),
                "persist_sec": round(persist_s, 2),
                "disk_adc_search_sec": round(disk_s, 2),
                "disk_eq_memory": bool(disk_eq),
                "adc_recall_at10": round(overlap(adc), 3),
                "refined_recall_at10": round(overlap(refined), 3),
                "code_bytes_per_vec": int(cb.shape[0]),
                "compression_x": int(64 * 4 / cb.shape[0]),
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    main()
