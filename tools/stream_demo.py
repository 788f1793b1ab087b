"""Streaming / micro-batch ingest demo at scale (owns its Ray session).

Simulates a continuous-ingest deployment of ``ops/incremental``: K
deterministic event shards (seeded per shard — no stored input) arrive
one at a time and are folded into the persisted per-key state.  The
receipt demonstrates the three properties a long-running ingest needs:

1. **Cost ∝ shard size, not history** — per-shard wall time stays flat
   as the state accumulates versions (only touched buckets rewrite,
   and a bucket rewrite is one vectorized concat+groupby).
2. **Flat driver memory** — driver RSS is bounded by the meta dict
   (one int per bucket), not the number of rows ever ingested.
3. **Exactness** — the committed state equals an independent local
   bincount over every shard regenerated from the seeds.

Usage:  python tools/stream_demo.py [n_shards] [rows_per_shard]
        python tools/stream_demo.py --dedup [n_shards] [rows_per_shard]
        python tools/stream_demo.py --watermark [sf_dir]

``--dedup`` runs the incremental-exact-dedup leg instead
(``ops/incremental.dedup_against_state``): each shard carries ~50%
content re-seen from earlier shards (a web crawl's revisit rate); the
receipt shows per-shard cost flat as the seen-key state grows and the
novel count exact vs a local first-occurrence recompute.

Prints one JSON line; paste the numbers into BASELINE.md.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time

import numpy as np
import pyarrow as pa

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

N_KEYS = 100_000  # distinct users — each bucket holds ~N_KEYS/num_buckets


def _rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmRSS"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


def _derive_cols(shard: int, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Counter-based deterministic columns from a global row index —
    the same formula runs vectorized inside Ray tasks (shard synthesis
    never touches the driver) and locally (the exactness recompute)."""
    from valere_ocr_ray.ops.hashing import mix64

    h = mix64((idx + shard * 1_000_000_007).astype(np.int64).view(np.uint64))
    keys = (h % np.uint64(N_KEYS)).astype(np.int64)
    vals = ((h >> np.uint64(32)) % np.uint64(10_000)).astype(np.int64)
    return keys, vals


def _shard_ds(shard: int, rows: int):
    """The shard as a Dataset generated IN TASKS (rd.range + a
    map_batches deriving columns from the row index) — the driver holds
    block refs only, matching a real ingest where shards arrive from
    storage, not from driver memory."""
    import ray.data as rd

    def gen(b: pa.Table) -> pa.Table:
        idx = b["id"].to_numpy()
        keys, vals = _derive_cols(shard, idx)
        return pa.table(
            {
                "user_id": keys,
                "n": np.ones(len(idx), np.int64),
                "value_c": vals,
            }
        )

    return rd.range(rows, override_num_blocks=8).map_batches(
        gen, batch_format="pyarrow"
    )


def _dedup_keys(shard: int, idx: np.ndarray, rows: int) -> np.ndarray:
    """Counter-based content ids drawn from a universe that GROWS by
    rows//2 per shard — so every shard re-sees roughly half its content
    from earlier arrivals (a crawl's revisit rate), deterministically
    recomputable locally for the exactness check."""
    from valere_ocr_ray.ops.hashing import mix64

    h = mix64((idx + shard * 2_000_003).astype(np.int64).view(np.uint64))
    universe = np.uint64((shard + 1) * (rows // 2))
    return (h % universe).astype(np.int64)


def _dedup_shard_ds(shard: int, rows: int):
    import ray.data as rd

    def gen(b: pa.Table) -> pa.Table:
        idx = b["id"].to_numpy()
        return pa.table(
            {
                "doc_id": (idx + shard * rows).astype(np.int64),
                "content_h": _dedup_keys(shard, idx, rows),
                "value_c": np.ones(len(idx), np.int64),
            }
        )

    return rd.range(rows, override_num_blocks=8).map_batches(
        gen, batch_format="pyarrow"
    )


def run_dedup(n_shards: int, rows: int) -> None:
    import ray
    import ray.data as rd

    ray.init(
        address="local",
        num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", os.cpu_count() or 1)),
        include_dashboard=False,
        logging_level="ERROR",
    )
    rd.DataContext.get_current().enable_progress_bars = False

    from valere_ocr_ray.ops.incremental import dedup_against_state, read_state

    state = tempfile.mkdtemp(prefix="vor_stream_dedup_")
    shard_secs, novel_counts = [], []
    rss_start = _rss_mb()
    t_all = time.perf_counter()
    for s in range(n_shards):
        ds = _dedup_shard_ds(s, rows)
        t0 = time.perf_counter()
        _, info = dedup_against_state(
            state, ds, key_col="content_h", id_col="doc_id", num_buckets=32
        )
        shard_secs.append(round(time.perf_counter() - t0, 3))
        novel_counts.append(info["n_novel"])
    total_s = time.perf_counter() - t_all
    rss_end = _rss_mb()

    # exactness: local first-occurrence replay over regenerated shards
    import pandas as pd

    all_keys = np.concatenate(
        [_dedup_keys(s, np.arange(rows, dtype=np.int64), rows) for s in range(n_shards)]
    )
    first = ~pd.Series(all_keys).duplicated().to_numpy()
    exp_novel = [int(first[s * rows : (s + 1) * rows].sum()) for s in range(n_shards)]
    n_state_keys = read_state(state).count()
    exact = novel_counts == exp_novel and n_state_keys == int(first.sum())

    n_rows = n_shards * rows
    half = len(shard_secs) // 2
    drift = (sum(shard_secs[half:]) / (len(shard_secs) - half)) / max(
        sum(shard_secs[:half]) / half, 1e-9
    )
    print(
        json.dumps(
            {
                "metric": "incremental dedup ingest throughput",
                "value": round(n_rows / total_s, 1),
                "unit": "rows/sec",
                "n_shards": n_shards,
                "rows_per_shard": rows,
                "total_rows": n_rows,
                "total_sec": round(total_s, 2),
                "shard_secs": shard_secs,
                "novel_per_shard": novel_counts,
                "n_state_keys": int(n_state_keys),
                "late_vs_early_shard_cost": round(drift, 3),
                "driver_rss_mb_start": round(rss_start, 1),
                "driver_rss_mb_end": round(rss_end, 1),
                "novel_exact_vs_recompute": bool(exact),
            }
        )
    )
    shutil.rmtree(state, ignore_errors=True)
    ray.shutdown()


def run_watermark(sf_dir: str) -> None:
    """Continuous-deployment shape of ``queries.events_watermark_hourly``
    (VERDICT r4 item 6): the 16 arrival shards fold one at a time —
    hourly windows + late-data routing go through
    ``ops/incremental.update_keyed_state`` (persisted, bucket-versioned)
    and the 16-int watermark table checkpoints as JSON between shards,
    exactly what a long-running streaming job restarts from.  Receipt:
    per-shard cost flat as state accumulates, and the final persisted
    windows VALUE-EQUAL the one-shot batch replay."""
    import ray
    import ray.data as rd

    ray.init(
        address="local",
        num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", os.cpu_count() or 1)),
        include_dashboard=False,
        logging_level="ERROR",
    )
    rd.DataContext.get_current().enable_progress_bars = False

    import pandas as pd

    from valere_ocr_ray.ops.incremental import read_state, update_keyed_state
    from valere_ocr_ray.pipelines.queries import events_watermark_hourly

    N_SHARDS = 16
    LATENESS_US = 3_600_000_000
    HOUR_US = 3_600_000_000
    ORIGIN_US = 1_704_067_200_000_000
    SPAN_US = 172_800_000_000
    NEG_INF = int(np.iinfo(np.int64).min)

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        from valere_ocr_ray.ops.sketch import _value_hashes64

        tsu = df["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        base = np.minimum((tsu - ORIGIN_US) // SPAN_US, N_SHARDS - 2)
        bump = (_value_hashes64(df["event_id"].astype(str)) % 8 == 0).astype(
            "int64"
        )
        return pd.DataFrame(
            {
                "shard": np.minimum(base + bump, N_SHARDS - 1).astype("int64"),
                "tsu": tsu,
                "v_e2": np.floor(df["value"].to_numpy() * 100.0).astype(
                    "int64"
                ),
            }
        )

    events = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "ts", "value"],
    )
    arrivals = events.map_batches(prep, batch_format="pandas").materialize()

    root = tempfile.mkdtemp(prefix="vor_watermark_")
    state_dir = os.path.join(root, "hourly_state")
    ckpt_path = os.path.join(root, "watermark.json")
    shard_secs = []
    t_all = time.perf_counter()
    for s in range(N_SHARDS):
        t0 = time.perf_counter()
        # restart-from-checkpoint per shard: the watermark table is read
        # back from disk, never carried in process state
        if os.path.exists(ckpt_path):
            with open(ckpt_path) as f:
                ck = json.load(f)
        else:
            ck = {"run_max": NEG_INF, "next_shard": 0}
        assert ck["next_shard"] == s, "shards must commit in order"
        wmark = (
            NEG_INF if ck["run_max"] == NEG_INF else ck["run_max"] - LATENESS_US
        )
        shard_ds = arrivals.filter(expr=f"shard == {s}")

        def classify(df: pd.DataFrame, _wm=wmark) -> pd.DataFrame:
            late = df["tsu"].to_numpy() < _wm
            return pd.DataFrame(
                {
                    "hour": df["tsu"].to_numpy() // HOUR_US,
                    "n_ontime": (~late).astype("int64"),
                    "sum_value_e2": np.where(late, 0, df["v_e2"].to_numpy()),
                    "n_late": late.astype("int64"),
                }
            )

        update_keyed_state(
            state_dir,
            shard_ds.map_batches(classify, batch_format="pandas"),
            ["hour"],
            ["n_ontime", "sum_value_e2", "n_late"],
        )
        mx = shard_ds.max("tsu", ignore_nulls=True)
        mx = NEG_INF if mx is None else int(mx)
        with open(ckpt_path, "w") as f:
            json.dump(
                {"run_max": max(ck["run_max"], mx), "next_shard": s + 1}, f
            )
        shard_secs.append(round(time.perf_counter() - t0, 3))
    total_s = time.perf_counter() - t_all

    final = (
        read_state(state_dir)
        .to_pandas()
        .sort_values("hour")
        .reset_index(drop=True)
    )
    batch = (
        events_watermark_hourly(sf_dir)
        .to_pandas()
        .sort_values("hour")
        .reset_index(drop=True)
    )
    cols = ["hour", "n_ontime", "sum_value_e2", "n_late"]
    equal = final[cols].astype("int64").equals(batch[cols].astype("int64"))
    half = len(shard_secs) // 2
    print(
        json.dumps(
            {
                "metric": "continuous watermark ingest receipt",
                "sf_dir": sf_dir,
                "n_shards": N_SHARDS,
                "shard_secs": shard_secs,
                "first_half_mean_s": round(float(np.mean(shard_secs[:half])), 3),
                "second_half_mean_s": round(
                    float(np.mean(shard_secs[half:])), 3
                ),
                "total_sec": round(total_s, 2),
                "n_hours": int(len(final)),
                "n_late_total": int(final["n_late"].sum()),
                "windows_equal_batch_replay": bool(equal),
            }
        )
    )
    shutil.rmtree(root, ignore_errors=True)
    ray.shutdown()


def main() -> None:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    if "--watermark" in sys.argv[1:]:
        run_watermark(args[0] if args else "/root/testdata/sf0.01")
        return
    if "--dedup" in sys.argv[1:]:
        run_dedup(
            int(args[0]) if args else 16,
            int(args[1]) if len(args) > 1 else 500_000,
        )
        return
    n_shards = int(args[0]) if args else 16
    rows = int(args[1]) if len(args) > 1 else 500_000

    import ray
    import ray.data as rd

    ray.init(
        address="local",
        num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", os.cpu_count() or 1)),
        include_dashboard=False,
        logging_level="ERROR",
    )
    rd.DataContext.get_current().enable_progress_bars = False

    from valere_ocr_ray.ops.incremental import read_state, update_keyed_state

    state = tempfile.mkdtemp(prefix="vor_stream_demo_")
    shard_secs = []
    rss_start = _rss_mb()
    t_all = time.perf_counter()
    for s in range(n_shards):
        ds = _shard_ds(s, rows)
        t0 = time.perf_counter()
        update_keyed_state(state, ds, ["user_id"], ["n", "value_c"], num_buckets=32)
        shard_secs.append(round(time.perf_counter() - t0, 3))
    total_s = time.perf_counter() - t_all
    rss_end = _rss_mb()

    # exactness: local bincount over the regenerated shards
    exp_n = np.zeros(N_KEYS, np.int64)
    exp_v = np.zeros(N_KEYS, np.int64)
    for s in range(n_shards):
        k, v = _derive_cols(s, np.arange(rows, dtype=np.int64))
        exp_n += np.bincount(k, minlength=N_KEYS).astype(np.int64)
        exp_v += np.bincount(k, weights=v, minlength=N_KEYS).astype(np.int64)
    got = read_state(state).to_pandas().set_index("user_id").sort_index()
    seen = got.index.to_numpy()
    exact = (
        len(got) == int((exp_n > 0).sum())
        and np.array_equal(got["n"].to_numpy(), exp_n[seen])
        and np.array_equal(got["value_c"].to_numpy(), exp_v[seen])
    )

    n_rows = n_shards * rows
    half = len(shard_secs) // 2
    drift = (sum(shard_secs[half:]) / (len(shard_secs) - half)) / max(
        sum(shard_secs[:half]) / half, 1e-9
    )
    print(
        json.dumps(
            {
                "metric": "incremental ingest fold throughput",
                "value": round(n_rows / total_s, 1),
                "unit": "rows/sec",
                "n_shards": n_shards,
                "rows_per_shard": rows,
                "total_rows": n_rows,
                "total_sec": round(total_s, 2),
                "shard_secs": shard_secs,
                "late_vs_early_shard_cost": round(drift, 3),
                "driver_rss_mb_start": round(rss_start, 1),
                "driver_rss_mb_end": round(rss_end, 1),
                "state_exact_vs_recompute": bool(exact),
            }
        )
    )
    shutil.rmtree(state, ignore_errors=True)
    ray.shutdown()


if __name__ == "__main__":
    main()
