"""Scale receipt for the size-derived exchange width (VERDICT r4 item 1).

Synthesizes N keyed rows (~100 B/row, counter-based — never on the
driver), then runs ``grouped_sum`` with the DEFAULT width and reports
what ``_auto_partitions`` derived alongside correctness vs a local
recompute of the same deterministic formula.  The point of the
receipt: the width tracks the bytes the exchange actually MOVES — for
``grouped_sum`` that is the post-partial-aggregation tables, so a
well-combined aggregate stays narrow however large the raw input,
while high-cardinality exchanged data widens until each gather holds
≤ TARGET_PARTITION_BYTES — same caller code, no hand-tuned constant
(``auto_partitions_for_bytes`` shows what the RAW input would derive,
for contrast).

Run:  python tools/exchange_scale.py [n_rows ...]   (default 1e6 3e7)
Prints one JSON line per N; paste into BASELINE.md.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np
import pandas as pd
import pyarrow as pa

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

N_KEYS = 1_000_000


def _cols(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    from valere_ocr_ray.ops.hashing import mix64

    h = mix64(idx.astype(np.int64).view(np.uint64))
    keys = (h % np.uint64(N_KEYS)).astype(np.int64)
    vals = ((h >> np.uint64(32)) % np.uint64(1000)).astype(np.int64)
    return keys, vals


def main() -> None:
    ns = [int(a) for a in sys.argv[1:]] or [1_000_000, 30_000_000]
    import ray
    import ray.data as rd

    ray.init(
        address="local",
        num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", os.cpu_count() or 1)),
        include_dashboard=False,
        logging_level="ERROR",
    )
    rd.DataContext.get_current().enable_progress_bars = False

    from valere_ocr_ray.ops.exchange import (
        _auto_partitions,
        grouped_sum,
    )

    for n in ns:
        def gen(b: pa.Table) -> pd.DataFrame:
            idx = b["id"].to_numpy()
            k, v = _cols(idx)
            # ~64 B of string padding per row so bytes, not row count,
            # drive the derived width (the real corpus shape)
            pad = pd.Series(k % 97).astype(str).str.pad(64, fillchar="x")
            return pd.DataFrame({"k": k, "v": v, "pad": pad})

        base = rd.range(n).map_batches(gen, batch_format="pandas")
        t0 = time.perf_counter()
        out = grouped_sum(base, ["k"], ["v"])  # DEFAULT width
        got = out.to_pandas()
        wall = time.perf_counter() - t0
        derived = len(out.to_arrow_refs())

        # local exactness recompute of the same deterministic formula
        total = 0
        for lo in range(0, n, 5_000_000):
            idx = np.arange(lo, min(lo + 5_000_000, n))
            _, v = _cols(idx)
            total += int(v.sum())
        approx_bytes = n * 100
        print(
            json.dumps(
                {
                    "metric": "size-derived exchange width receipt",
                    "n_rows": n,
                    "approx_input_bytes": approx_bytes,
                    "derived_partitions": derived,
                    "auto_partitions_for_bytes": _auto_partitions(approx_bytes),
                    "wall_sec": round(wall, 2),
                    "rows_per_sec": round(n / wall, 1),
                    "n_keys_out": int(len(got)),
                    "sum_exact": bool(int(got["v"].sum()) == total),
                }
            ),
            flush=True,
        )
    ray.shutdown()


# --------------------------------------------------------------------------
# two-cluster-size protocol for the exchange-backed dedup ops
# --------------------------------------------------------------------------
#
# The sf0.1 documents table is 5k rows — the dedup ops finish in
# ~0.3 s of pure coordination there, so a lo/hi CPU ratio over them
# measures scheduler constants, not the exchange.  This mode
# synthesizes a corpus big enough that the exchange moves real bytes
# (default 1M docs, ~25% exact duplicates, shared 10-token segments),
# writes it ONCE, and times exact_dedup + segment_dedup_flags in
# fresh processes at two CPU counts (bench --scaling protocol).

_VOCAB = [f"w{i:03d}" for i in range(997)]


def _doc_batch(b: "pa.Table") -> pd.DataFrame:
    from valere_ocr_ray.ops.hashing import mix64

    ids = b["id"].to_numpy().astype(np.int64)
    # 25% of docs duplicate the text of an earlier "master" row
    # (id rounded down to a multiple of 8) — deterministic in id alone
    src = np.where(ids % 8 >= 6, ids - (ids % 8) + 0, ids)
    toks = np.empty((len(ids), 60), dtype=np.int64)
    h = src.copy()
    for j in range(60):
        h = mix64((h + j * 1_000_003).view(np.uint64)).view(np.int64)
        toks[:, j] = np.abs(h) % 997
    # docs also SHARE their middle 20 tokens with their id//64 cohort
    # (segment dedup finds these; exact dedup does not)
    ch = (ids // 64).astype(np.int64)
    hh = ch.copy()
    for j in range(20, 40):
        hh = mix64((hh + j * 7_919).view(np.uint64)).view(np.int64)
        toks[:, j] = np.abs(hh) % 997
    texts = [" ".join(_VOCAB[t] for t in row) for row in toks]
    return pd.DataFrame({"doc_id": ids, "text": texts})


def _ops_child(ncpu: int, corpus_dir: str) -> None:
    import ray
    import ray.data as rd

    ray.init(
        address="local", num_cpus=ncpu, include_dashboard=False,
        logging_level="ERROR",
    )
    rd.DataContext.get_current().enable_progress_bars = False
    from valere_ocr_ray.ops.dedup import exact_dedup
    from valere_ocr_ray.ops.segdedup import segment_dedup_flags

    timings = {}
    for name, fn in (
        ("exact_dedup", lambda ds: exact_dedup(ds).count()),
        ("segment_dedup", lambda ds: segment_dedup_flags(ds).count()),
    ):
        best = float("inf")
        for _trial in range(2):
            ds = rd.read_parquet(corpus_dir)
            t0 = time.perf_counter()
            fn(ds)
            best = min(best, time.perf_counter() - t0)
        timings[name] = round(best, 3)
    print(json.dumps({"num_cpus": ncpu, "timings": timings,
                      "total": round(sum(timings.values()), 3)}))
    ray.shutdown()


def ops_scaling(n_docs: int) -> None:
    import subprocess

    import ray
    import ray.data as rd

    corpus_dir = f"/tmp/valere_exchange_ops/{n_docs}"
    if not os.path.exists(os.path.join(corpus_dir, "_DONE")):
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", os.cpu_count() or 1)),
            include_dashboard=False, logging_level="ERROR",
        )
        rd.DataContext.get_current().enable_progress_bars = False
        rd.range(n_docs).map_batches(
            _doc_batch, batch_format="pandas"
        ).write_parquet(corpus_dir)
        with open(os.path.join(corpus_dir, "_DONE"), "w") as f:
            f.write(str(n_docs))
        ray.shutdown()

    def run(ncpu: int) -> dict:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--ops-child", str(ncpu), corpus_dir],
            capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo = int(os.environ.get("GRAFT_SCALE_LO", "8"))
    hi = int(os.environ.get("GRAFT_SCALE_HI", "32"))
    r_lo, r_hi = run(lo), run(hi)
    eff = (r_lo["total"] / r_hi["total"]) / (hi / lo)
    print(json.dumps({
        "metric": (
            f"exchange-backed dedup ops scaling (num_cpus {lo} -> {hi}, "
            f"{n_docs} docs, size-derived widths)"
        ),
        "n_docs": n_docs,
        "num_cpus_lo": lo, "num_cpus_hi": hi,
        "sec_lo": r_lo["total"], "sec_hi": r_hi["total"],
        "per_op_lo": r_lo["timings"], "per_op_hi": r_hi["timings"],
        "docs_per_sec_lo": round(n_docs * 2 / r_lo["total"], 1),
        "docs_per_sec_hi": round(n_docs * 2 / r_hi["total"], 1),
        "scaling_efficiency": round(eff, 3),
    }))




def _ctl_worker(args):
    lo, hi = args
    import hashlib

    import pandas as pd
    sub = _CTL_TEXTS[lo:hi]
    hs = [hashlib.md5(t.encode()).hexdigest() for t in sub]
    g = pd.DataFrame({"h": hs, "i": range(lo, hi)}).groupby("h")["i"].min()
    return len(g)


_CTL_TEXTS: list = []


def ops_control(n_docs: int) -> None:
    """No-framework ceiling for the dedup ops' per-byte work: fork
    pool, COW-shared corpus, each worker md5s + hash-groups its range
    (strictly LESS work than the engine — no exchange, no global
    merge).  Sub-linearity here is the VM's memory bandwidth, not the
    engine."""
    import multiprocessing as mp

    import pyarrow.dataset as pads

    global _CTL_TEXTS
    corpus_dir = f"/tmp/valere_exchange_ops/{n_docs}"
    tbl = pads.dataset(corpus_dir).to_table(columns=["text"])
    _CTL_TEXTS = tbl["text"].to_pylist()
    n = len(_CTL_TEXTS)
    out = {}
    for procs in (8, 32):
        best = float("inf")
        for _trial in range(2):
            chunks = [
                (i * n // (procs * 4), (i + 1) * n // (procs * 4))
                for i in range(procs * 4)
            ]
            t0 = time.perf_counter()
            with mp.get_context("fork").Pool(procs) as pool:
                pool.map(_ctl_worker, chunks)
            best = min(best, time.perf_counter() - t0)
        out[procs] = round(best, 3)
    eff = (out[8] / out[32]) / 4
    print(json.dumps({
        "metric": f"no-framework md5+group control ({n_docs} docs)",
        "sec_8": out[8], "sec_32": out[32],
        "scaling_efficiency_8to32": round(eff, 3),
    }))


if __name__ == "__main__":
    if "--ops-child" in sys.argv:
        _ops_child(int(sys.argv[2]), sys.argv[3])
    elif "--ops-control" in sys.argv:
        rest = [a for a in sys.argv[1:] if not a.startswith("--")]
        ops_control(int(rest[0]) if rest else 1_000_000)
    elif "--ops-scaling" in sys.argv:
        rest = [a for a in sys.argv[1:] if not a.startswith("--")]
        ops_scaling(int(rest[0]) if rest else 1_000_000)
    else:
        main()
