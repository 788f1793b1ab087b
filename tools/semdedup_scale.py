"""Scale receipt for embedding_semdedup + mix_by_rates: 1M embeddings.

Synthesizes N 64-d embeddings as a PURE FUNCTION of vec_id (GPU-hash
style ``fract(sin(i*a + j*b)*c)``), so the corpus is deterministic
under any batch/block layout and never materializes on the driver.
Every 10th vector takes its successor's embedding — the planted truth:

    survivors == N - floor((N-1)/10 + 1) + adjustment  -> exactly N - N//10
    (pair (i, i+1) identical for i % 10 == 0, larger id dropped)

Run:  python tools/semdedup_scale.py [N]  (default 1_000_000)
Prints one JSON line with wall time, rows/s, and the exactness verdict;
paste into BASELINE.md.
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
    src = np.where(ids % 10 == 0, ids + 1, ids)  # planted: copy successor
    j = np.arange(64, dtype=np.float64)
    ang = src[:, None] * 12.9898 + j[None, :] * 78.233
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

    from valere_ocr_ray.ops.dedup import embedding_semdedup
    from valere_ocr_ray.ops.mixing import mix_by_rates

    base = rd.range(n).map_batches(synth_batch, batch_format="pandas")

    t0 = time.perf_counter()
    survivors = embedding_semdedup(
        base, dim=64, threshold=0.9, n_planes=12
    ).count()
    sem_s = time.perf_counter() - t0
    # planted truth: every (i, i+1) pair with i%10==0, i+1<n drops i+1
    expect = n - len([i for i in range(0, n, 10) if i + 1 < n])

    t0 = time.perf_counter()
    # two-domain split by id parity, rates 1.0 / 0.25
    mixed = mix_by_rates(
        base.map_batches(
            lambda df: df.assign(
                source=np.where(df["vec_id"] % 2 == 0, "even", "odd")
            ),
            batch_format="pandas",
        ),
        rates={"even": 1.0, "odd": 0.25},
        id_col="vec_id",
    ).count()
    mix_s = time.perf_counter() - t0

    print(
        json.dumps(
            {
                "metric": "semdedup+mix scale receipt",
                "n": n,
                "semdedup_sec": round(sem_s, 2),
                "semdedup_rows_per_sec": round(n / sem_s, 1),
                "survivors": survivors,
                "survivors_expected": expect,
                "semdedup_exact": survivors == expect,
                "mix_sec": round(mix_s, 2),
                "mix_rows_per_sec": round(n / mix_s, 1),
                "mix_kept": mixed,
                "num_cpus": int(os.environ.get("RAY_GRAFT_CPUS", os.cpu_count() or 1)),
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    main()
