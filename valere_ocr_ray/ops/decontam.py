"""Benchmark decontamination — tag training documents that share
token n-grams with a (small) evaluation/benchmark set.

The standard LLM-data hygiene step (popularised by GPT-3 appendix C
and the Pile/Gopher reports): before training, any document whose
token n-grams overlap a benchmark item must be flagged/dropped or the
eval is compromised.  Scale shape here:

    benchmark texts (SMALL by definition — an eval set, not a corpus)
      → every token n-gram hashed once on the driver → ``ray.put``
    corpus → map_batches: rolling 64-bit window hashes per doc
      (vectorized numpy over per-token hashes) → membership vs the
      broadcast probe table → per-doc hit counts

One pass over the corpus, zero exchanges, broadcast bytes = O(benchmark
n-grams) — constant in corpus size.  Matching is on 64-bit window
hashes (md5-derived, ``ops/hashing.md5_upper`` — truly 64 bits of
entropy, unlike the crc32 pair it replaced)
computed by THE SAME function on both sides, so probe/doc agreement is
deterministic; 64-bit collisions are negligible (~1e-9 at 10^5
benchmark n-grams × 10^4-token docs).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data

from valere_ocr_ray.ops.hashing import md5_upper, mix64

# distinct odd multipliers per window offset keep token order significant
_WINDOW_SALT = np.uint64(0x9E3779B97F4A7C15)


def window_hashes(toks: list[str], n: int) -> np.ndarray:
    """64-bit hash per token n-gram window (len(toks)-n+1 windows,
    empty when the text is shorter than n).  Vectorized: per-token
    hashes once, then an order-sensitive positional fold across the n
    offsets."""
    m = len(toks)
    if m < n:
        return np.zeros(0, dtype=np.uint64)
    th = md5_upper(toks)
    w = m - n + 1
    acc = np.zeros(w, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(n):
            acc = mix64(acc * _WINDOW_SALT ^ th[j : j + w])
    return acc


def benchmark_probe_table(
    benchmark_texts: list[str], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """(hashes, probe_ids) — every n-gram of every benchmark text,
    paired with the index of the benchmark item it came from."""
    hs, ids = [], []
    for i, t in enumerate(benchmark_texts):
        h = window_hashes(t.split(), n)
        hs.append(h)
        ids.append(np.full(len(h), i, dtype=np.int64))
    if not hs:
        return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)
    return np.concatenate(hs), np.concatenate(ids)


def tag_contamination(
    ds: ray.data.Dataset,
    benchmark_texts: list[str],
) -> ray.data.Dataset:
    """Per-document contamination tags of ``(doc_id, text)`` rows:
    ``n_probes_hit`` = how many DISTINCT benchmark items share at least
    one token 8-gram with the doc, ``contaminated`` = any hit.  Every
    input row is kept (filter downstream) — consistent with the
    engine's route-don't-drop rule."""
    probe_h, probe_ids = benchmark_probe_table(benchmark_texts, 8)
    probes_ref = ray.put((probe_h, probe_ids))

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        ph, pids = ray.get(probes_ref)
        hits = np.zeros(len(df), dtype=np.int64)
        for i, t in enumerate(df["text"]):
            wh = window_hashes(t.split(), 8)
            if not len(wh):
                continue
            matched = np.isin(ph, wh)
            if matched.any():
                hits[i] = len(np.unique(pids[matched]))
        out = df[["doc_id"]].copy()
        out["n_probes_hit"] = hits
        out["contaminated"] = hits > 0
        return out

    return ds.map_batches(tag, batch_format="pandas")
