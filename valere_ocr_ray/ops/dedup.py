"""Deduplication family: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

Shuffle discipline (the part that matters at 100 TB): every keyed
combine here runs over the custom hash exchange (ops/exchange.py —
Dataset.groupby's sort-reduce costs ~1 ms/key, fatal at
content-hash/bucket cardinality):

* exact: per-block (hash → min-id, count) partials → ONE keyed
  exchange → vectorized fold.
* MinHash-LSH: signatures computed batch-local (vectorized numpy),
  exploded to ``(band_id, band_hash)`` rows; bucket pairing via
  ``grouped_map(min_group_size=2)`` (singleton buckets skipped
  vectorized); candidate verification uses the signatures carried in
  the band rows, so no join back to the corpus is needed.  Bucket
  size is capped (``max_bucket``) with deterministic sorted
  truncation — a degenerate band otherwise produces O(n²) pairs in
  one reducer (skew guard; salt hot keys upstream at real scale).
* SimHash: 64-bit signature, 4×16-bit band explode → same
  bucket-exchange shape, hamming-distance verify.
* embedding: seeded random-hyperplane LSH → bucket exchange →
  within-bucket pairwise cosine.

Pair outputs use ``id_a < id_b`` and are distinct.
"""

from __future__ import annotations

import functools
import hashlib
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from valere_ocr_ray.ops.hashing import distinct, mix64


def _empty_pairs(value_col: str, dtype: str) -> "pd.DataFrame":
    """Typed empty pair frame — keeps empty blocks schema-identical to
    non-empty ones (int64 ids) across the hash exchange."""
    return pd.DataFrame(
        {
            "id_a": pd.Series([], dtype="int64"),
            "id_b": pd.Series([], dtype="int64"),
            value_col: pd.Series([], dtype=dtype),
        }
    )


_MERSENNE = (1 << 61) - 1
_FNV64_OFFSET = 0xCBF29CE484222325
_FNV64_PRIME = 0x100000001B3


def _md5_partial(text_col: str, id_col: str, df: pd.DataFrame) -> pd.DataFrame:
    """One block's (content_hash → min id, copies) partial; a missing
    text hashes as the empty string."""
    hashes = [hashlib.md5(v.encode()).hexdigest() for v in df[text_col].fillna("")]
    hashed = pd.DataFrame({"content_hash": hashes, id_col: df[id_col].to_numpy()})
    return hashed.groupby("content_hash", as_index=False).agg(
        **{id_col: (id_col, "min"), "n_copies": (id_col, "size")}
    )


def exact_dedup(
    ds: ray.data.Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> ray.data.Dataset:
    """Representative (min id) per distinct content + copy count.

    Reference analog: ETag/MD5 as document identity, SURVEY.md §2.6 O4
    (``S3LookThrough_Final.py:40-46``).  Columns: content_hash, doc_id,
    n_copies.  content_hash cardinality ≈ corpus size, so the combine
    runs over the custom hash exchange (ops/exchange.py) — per-block
    md5 partials, keyed exchange, vectorized final fold, all inside
    the exchange's own tasks (``partition_map`` with ``pre``).
    """
    from valere_ocr_ray.ops.exchange import partition_map

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("content_hash", as_index=False).agg(
            **{id_col: (id_col, "min"), "n_copies": ("n_copies", "sum")}
        )

    pre = functools.partial(_md5_partial, text_col, id_col)
    return partition_map(ds, ["content_hash"], combine, pre=pre)  # size-derived width


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------


def _token_hashes(toks: list[str]) -> np.ndarray:
    """Per-token hashes: crc32 (C speed) lifted through splitmix64.

    Deterministic across processes (unlike ``hash()``); ~10× faster
    than per-token md5 — this is the hot inner loop of minhash/simhash,
    where the 2^32 base space is sufficient (signatures compare
    per-permutation minima over whole documents, so rare token
    collisions only nudge similarity estimates).  For estimators whose
    math ASSUMES uniform 63/64-bit hashes (KMV distinct counting), use
    ``ops/hashing.md5_upper`` instead — a 32-bit base saturates near
    4.3e9 distinct tokens."""
    if not toks:
        return np.zeros(0, dtype=np.uint64)
    th = np.fromiter(
        (zlib.crc32(t.encode()) for t in toks), dtype=np.uint64, count=len(toks)
    )
    with np.errstate(over="ignore"):
        return mix64(th * np.uint64(0x9E3779B97F4A7C15))


_SHINGLE_B = np.uint64(0x100000001B3)


def _shingle_hashes(text: str, k: int) -> np.ndarray:
    """Distinct k-token-shingle hashes, fully vectorized: polynomial
    combine of consecutive token hashes + avalanche + ``np.unique``
    (replaces the set-of-strings + per-shingle md5 formulation)."""
    toks = text.split()
    th = _token_hashes(toks)
    if len(toks) == 0:
        return np.zeros(1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        if len(toks) < k:
            g = np.zeros(1, dtype=np.uint64)
            for j in range(len(toks)):
                g = g * _SHINGLE_B + th[j : j + 1]
        else:
            n = len(toks) - k + 1
            g = np.zeros(n, dtype=np.uint64)
            for j in range(k):
                g = g * _SHINGLE_B + th[j : j + n]
    return np.unique(mix64(g))


class MinHasher:
    """Actor-pool stage: seeded permutations built once per actor."""

    def __init__(self, num_perm: int = 64, k: int = 3, seed: int = 42) -> None:
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.k = k
        self.num_perm = num_perm

    def signature(self, text: str) -> np.ndarray:
        x = _shingle_hashes(text, self.k)
        # (n_shingles, num_perm) multiply-shift hashing in wraparound
        # uint64 — deterministic, fully vectorized (no bignum objects)
        with np.errstate(over="ignore"):
            hx = x[:, None] * self.a[None, :] + self.b[None, :]
        return np.min(hx, axis=0) >> np.uint64(1)  # 63-bit → int64-safe

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        sigs = [self.signature(t) for t in df["text"]]
        df = df[[c for c in df.columns if c in ("doc_id",)]].copy()
        df["sig"] = [s.astype(np.int64).tolist() for s in sigs]
        return df


def _explode_bands(df: pd.DataFrame, bands: int) -> pd.DataFrame:
    if not len(df):
        return pd.DataFrame({"band_id": [], "band_hash": [], "doc_id": [], "sig": []})
    sigs = np.stack([np.asarray(s, dtype=np.uint64) for s in df["sig"]])
    n, num_perm = sigs.shape
    rows_per = num_perm // bands
    # band hash: FNV-style fold of the band's minhash values, vectorized
    with np.errstate(over="ignore"):
        chunks = sigs[:, : bands * rows_per].reshape(n, bands, rows_per)
        h = np.full((n, bands), np.uint64(_FNV64_OFFSET))
        for r in range(rows_per):
            h = (h ^ chunks[:, :, r]) * np.uint64(_FNV64_PRIME)
    out = pd.DataFrame(
        {
            "band_id": np.tile(np.arange(bands, dtype=np.int64), n),
            "band_hash": (h >> np.uint64(1)).astype(np.int64).ravel(),
            "doc_id": np.repeat(df["doc_id"].to_numpy(), bands),
            "sig": [s for s in df["sig"] for _ in range(bands)],
        }
    )
    return out


def _bucket_pairs(
    group: pd.DataFrame, threshold: float, max_bucket: int, star: bool = False
) -> pd.DataFrame:
    """Candidate pairs within one LSH bucket.

    ``star=False``: full clique (all qualifying pairs) — right for
    verification-bound flows on corpora without giant near-dup groups.
    ``star=True``: each doc pairs only with the bucket's min-id doc —
    output linear in bucket size instead of quadratic.  Clique
    assumption: clusters are recovered only when the hub is
    above-threshold vs every member (true for template cliques, the
    target shape); chain-shaped similarity (A~B~C with A!~C) loses the
    below-threshold-vs-hub members, so star mode trades recall for
    linear output.  This is the scale mode for template-heavy corpora
    where near-dup cliques reach thousands of members.
    """
    n = len(group)
    if n < 2:
        return _empty_pairs("est_jaccard", "float64")
    if n > max_bucket:
        # skew guard: degenerate bucket (hot key) — truncate; at real
        # scale, salt the band key or exact-dedup first.  Sort by id
        # first so the kept subset is independent of row arrival order
        # (block boundaries vary run to run).
        group = group.sort_values("doc_id", kind="stable").iloc[:max_bucket]
        n = max_bucket
    ids = group["doc_id"].to_numpy()
    sigs = np.stack([np.asarray(s) for s in group["sig"]])
    if star:
        hub = int(np.argmin(ids))
        eq = (sigs == sigs[hub]).mean(axis=1)
        keep = (eq >= threshold) & (ids != ids[hub])
        keep[hub] = False
        if not keep.any():
            return _empty_pairs("est_jaccard", "float64")
        other = ids[keep]
        return pd.DataFrame(
            {
                "id_a": np.minimum(ids[hub], other),
                "id_b": np.maximum(ids[hub], other),
                "est_jaccard": eq[keep],
            }
        )
    # full clique, vectorized: pairwise signature-agreement matrix
    # (n ≤ max_bucket, num_perm ≤ 128 → bounded memory)
    est = (sigs[:, None, :] == sigs[None, :, :]).mean(axis=2)
    ii, jj = np.triu_indices(n, k=1)
    keep = (est[ii, jj] >= threshold) & (ids[ii] != ids[jj])
    if not keep.any():
        return _empty_pairs("est_jaccard", "float64")
    ia, jb = ids[ii[keep]], ids[jj[keep]]
    return pd.DataFrame(
        {
            "id_a": np.minimum(ia, jb),
            "id_b": np.maximum(ia, jb),
            "est_jaccard": est[ii[keep], jj[keep]],
        }
    )


_MINHASHER_CACHE: dict[tuple, MinHasher] = {}


def _minhash_batch(df: pd.DataFrame, num_perm: int, k: int, seed: int) -> pd.DataFrame:
    """Task-pool form of ``MinHasher``: permutation tables cached at
    module level (built once per worker process — actor-``__init__``
    semantics without per-execution actor spin-up)."""
    key = (num_perm, k, seed)
    mh = _MINHASHER_CACHE.get(key)
    if mh is None:
        mh = _MINHASHER_CACHE.setdefault(key, MinHasher(num_perm, k, seed))
    return mh(df)


def minhash_lsh_pairs(
    ds: ray.data.Dataset,
    *,
    num_perm: int = 64,
    k_shingle: int = 3,
    bands: int = 16,
    threshold: float = 0.5,
    max_bucket: int = 512,
    seed: int = 42,
    seeds: tuple[int, ...] | None = None,
    star: bool = False,
) -> ray.data.Dataset:
    """Near-duplicate pairs (signature-estimated Jaccard >= threshold).

    ``star=True`` bounds output to O(n) pairs-with-representative (see
    ``_bucket_pairs``) — use for corpora with huge near-dup cliques.

    ``seeds=(s1, s2, ...)`` runs INDEPENDENT permutation sets and
    UNIONS their candidates — the recall-boost path for the gray zone
    just above threshold, where one seed's detection probability
    ``1-(1-j^r)^b`` is well below 1: misses are independent across
    seeds, so the union's miss probability multiplies to
    ``(1-j^r)^(b·len(seeds))``.  Band rows from every seed ride the
    SAME exchange (band_id offset by seed index keeps buckets
    seed-disjoint); cost scales linearly in ``len(seeds)`` while the
    exchange count stays at one.  Default (``seeds=None``) is the
    single-``seed`` path unchanged."""
    from valere_ocr_ray.ops.exchange import grouped_agg, grouped_map

    seed_list = tuple(seeds) if seeds is not None else (seed,)
    base = ds.select_columns(["doc_id", "text"])

    def _band_rows_for(df: pd.DataFrame, s: int, off: int) -> pd.DataFrame:
        out = _explode_bands(
            _minhash_batch(df, num_perm, k_shingle, s), bands
        )
        if off and len(out):
            out["band_id"] = out["band_id"] + off
        return out

    band_rows = base.map_batches(
        lambda df, _s=seed_list[0]: _band_rows_for(df, _s, 0),
        batch_format="pandas",
    )
    for si, s in enumerate(seed_list[1:], start=1):
        band_rows = band_rows.union(
            base.map_batches(
                lambda df, _s=s, _off=si * bands: _band_rows_for(df, _s, _off),
                batch_format="pandas",
            )
        )
    # bucket pairing + pair-dedup over the custom hash exchange —
    # Dataset.groupby's sort-reduce costs ~1 ms/key, fatal at bucket
    # cardinality (ops/exchange.py)
    pairs = grouped_map(
        band_rows,
        ["band_id", "band_hash"],
        lambda g: _bucket_pairs(g, threshold, max_bucket, star),
        min_group_size=2,
    )
    # same pair can surface from several bands → distinct
    return grouped_agg(pairs, ["id_a", "id_b"], {"est_jaccard": "min"})


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


def _simhash(texts: pd.Series, token_hashes) -> np.ndarray:
    """64-bit SimHash per text: each bit is the majority vote of that
    bit over the text's whitespace tokens' ``token_hashes`` (0 for a
    text without tokens).  Each distinct token of the batch is hashed
    and turned into ±1 votes once; a text sums its tokens' vote rows."""
    toks = texts.map(str.split)
    codes, uniq = distinct([t for lst in toks for t in lst])
    shifts = np.arange(64, dtype=np.uint64)
    bits = (token_hashes(uniq)[:, None] >> shifts) & np.uint64(1)
    signs = 2 * bits.astype(np.int32) - 1
    votes = np.zeros((len(texts), 64), np.int64)
    end = 0
    for i, lst in enumerate(toks):
        start, end = end, end + len(lst)
        votes[i] = signs[codes[start:end]].sum(axis=0)
    return ((votes > 0).astype(np.uint64) << shifts).sum(axis=1, dtype=np.uint64)


def simhash_batch(df: pd.DataFrame, col: str = "text") -> pd.DataFrame:
    """``df`` plus an int64 ``simhash`` column (crc32+splitmix64 token
    hashes)."""
    df = df.copy()
    df["simhash"] = _simhash(df[col], _token_hashes).view(np.int64)
    return df


def simhash_pairs(
    ds: ray.data.Dataset, *, max_hamming: int = 3, max_bucket: int = 512
) -> ray.data.Dataset:
    """Near-dup pairs with hamming(simhash) <= max_hamming via 4×16-bit
    band buckets (pigeonhole: any pair within distance 3 shares at
    least one exact 16-bit band)."""
    sh = ds.select_columns(["doc_id", "text"]).map_batches(
        simhash_batch, batch_format="pandas"
    )

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        u = df["simhash"].to_numpy(dtype=np.int64).view(np.uint64)
        shifts = (np.uint64(16) * np.arange(4, dtype=np.uint64))[None, :]
        band_val = ((u[:, None] >> shifts) & np.uint64(0xFFFF)).astype(np.int64)
        return pd.DataFrame(
            {
                "band_id": np.tile(np.arange(4, dtype=np.int64), n),
                "band_val": band_val.ravel(),
                "doc_id": np.repeat(df["doc_id"].to_numpy(), 4),
                "simhash": np.repeat(df["simhash"].to_numpy(), 4),
            }
        )

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        n = min(len(g), max_bucket)
        if len(g) > max_bucket:
            # deterministic truncation (see _bucket_pairs)
            g = g.sort_values("doc_id", kind="stable")
        ids = g["doc_id"].to_numpy()[:n]
        hs = g["simhash"].to_numpy(dtype=np.int64)[:n].view(np.uint64)
        # vectorized pairwise hamming: XOR matrix → popcount via
        # byte-view unpackbits (replaces the O(n²) python loop)
        x = hs[:, None] ^ hs[None, :]
        d = np.unpackbits(x.view(np.uint8).reshape(n, n, 8), axis=2).sum(
            axis=2, dtype=np.int64
        )
        ii, jj = np.triu_indices(n, k=1)
        keep = (d[ii, jj] <= max_hamming) & (ids[ii] != ids[jj])
        if not keep.any():
            return _empty_pairs("hamming", "int64")
        ia, jb = ids[ii[keep]], ids[jj[keep]]
        return pd.DataFrame(
            {
                "id_a": np.minimum(ia, jb),
                "id_b": np.maximum(ia, jb),
                "hamming": d[ii[keep], jj[keep]],
            }
        )

    from valere_ocr_ray.ops.exchange import grouped_agg, grouped_map

    pairs = grouped_map(
        sh.map_batches(explode, batch_format="pandas"),
        ["band_id", "band_val"],
        bucket,
        min_group_size=2,
    )
    return grouped_agg(pairs, ["id_a", "id_b"], {"hamming": "min"})


# ---------------------------------------------------------------------------
# exact n-gram Jaccard (verification kernel)
# ---------------------------------------------------------------------------


def ngram_jaccard(a: str, b: str, n: int = 3) -> float:
    """Exact token-n-gram Jaccard — the verification kernel for LSH
    candidates (run on the small candidate set, never all-pairs)."""

    def grams(t: str) -> set[str]:
        toks = t.split()
        if len(toks) < n:
            return {" ".join(toks)} if toks else set()
        return {" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)}

    ga, gb = grams(a), grams(b)
    if not ga and not gb:
        return 1.0
    return len(ga & gb) / len(ga | gb)


def verify_pairs_exact_exchange(
    ds: ray.data.Dataset,
    pairs: ray.data.Dataset,
    *,
    n: int = 3,
    threshold: float = 0.5,
) -> ray.data.Dataset:
    """Exact-Jaccard verify of candidate pairs with ZERO driver state:
    neither the pairs nor the candidate texts reach the driver, so the
    candidate set may scale with the corpus.

    Two hash exchanges:

    1. ``cogroup_exchange`` keyed by ``doc_id``: pair-endpoint rows
       (two per pair, ``doc_id`` = ``id_a`` and ``id_b``) co-group with the
       corpus ``(doc_id, text)`` rows; a vectorized per-partition map
       attaches each endpoint's text (the semi-join happens ON the
       exchange — untouched corpus texts simply find no endpoint);
    2. keyed by ``(id_a, id_b)``: the two endpoint rows regroup and a
       per-pair n-gram Jaccard emits verified pairs.

    Output: ``(id_a, id_b, jaccard)``, jaccard >= threshold.
    """
    from valere_ocr_ray.ops.exchange import cogroup_exchange, grouped_map

    # step-1 left side: two endpoint rows per pair (doc_id = id_a, then
    # doc_id = id_b), keyed by doc_id
    def endpoint_rows(df: pd.DataFrame) -> pd.DataFrame:
        a = df["id_a"].to_numpy(dtype=np.int64)
        b = df["id_b"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "doc_id": np.concatenate([a, b]),
                "id_a": np.concatenate([a, a]),
                "id_b": np.concatenate([b, b]),
            }
        )

    def attach_text(ends: pd.DataFrame, docs: pd.DataFrame) -> pd.DataFrame:
        # a side whose every block was empty arrives without columns
        ends = ends.reindex(columns=["doc_id", "id_a", "id_b"])
        txt = (
            docs.drop_duplicates("doc_id").set_index("doc_id")["text"].astype(str)
            if len(docs)
            else pd.Series([], dtype=object)
        )
        return pd.DataFrame(
            {
                "doc_id": ends["doc_id"].to_numpy(dtype=np.int64),
                "id_a": ends["id_a"].to_numpy(dtype=np.int64),
                "id_b": ends["id_b"].to_numpy(dtype=np.int64),
                "text": ends["doc_id"].map(txt).fillna("").tolist(),
            }
        )

    attached = cogroup_exchange(
        pairs.select_columns(["id_a", "id_b"]).map_batches(
            endpoint_rows, batch_format="pandas"
        ),
        ds.select_columns(["doc_id", "text"]),
        ["doc_id"],
        ["doc_id"],
        attach_text,
    )

    def pair_jaccard(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return _empty_pairs("jaccard", "float64")
        ta = g.loc[g["doc_id"] == g["id_a"], "text"]
        tb = g.loc[g["doc_id"] == g["id_b"], "text"]
        j = ngram_jaccard(
            ta.iloc[0] if len(ta) else "", tb.iloc[0] if len(tb) else "", n
        )
        if j < threshold:
            return _empty_pairs("jaccard", "float64")
        return pd.DataFrame(
            {
                "id_a": [int(g["id_a"].iloc[0])],
                "id_b": [int(g["id_b"].iloc[0])],
                "jaccard": [j],
            }
        )

    return grouped_map(attached, ["id_a", "id_b"], pair_jaccard)


# ---------------------------------------------------------------------------
# embedding-cosine near-dup
# ---------------------------------------------------------------------------


def embedding_dup_pairs(
    ds: ray.data.Dataset,
    *,
    dim: int,
    threshold: float = 0.95,
    n_planes: int = 12,
    seed: int = 42,
    max_bucket: int = 2048,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> ray.data.Dataset:
    """Pairs with cosine >= threshold via seeded hyperplane-LSH buckets.

    Sign-pattern bucket over ``n_planes`` random hyperplanes → groupby
    bucket → dense within-bucket cosine (numpy matmul).  High-cosine
    pairs land in the same bucket with probability
    ``(1 - theta/pi)^n_planes``; for recall-critical uses run with two
    seeds and union the pairs.
    """
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((dim, n_planes)).astype(np.float32)

    def bucketize(df: pd.DataFrame) -> pd.DataFrame:
        vecs = np.stack(df[vec_col].to_numpy()).astype(np.float32)
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True) + 1e-12
        signs = (vecs @ planes) > 0
        bucket = (signs * (1 << np.arange(n_planes))).sum(axis=1)
        # float32 BYTES, not an ndarray column: the Arrow tensor
        # extension dtype leaks through schema-stamped empty exchange
        # partitions and intermittently breaks downstream pandas
        # conversion (seen as a layout-dependent emb_lsh_recall crash)
        return pd.DataFrame(
            {
                "bucket": bucket.astype(np.int64),
                id_col: df[id_col].to_numpy(),
                "vec": [v.tobytes() for v in vecs],
            }
        )

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        n = min(len(g), max_bucket)
        if n < 2:
            return _empty_pairs("cosine", "float64")
        if len(g) > max_bucket:
            g = g.sort_values(id_col, kind="stable")
        ids = g[id_col].to_numpy()[:n]
        mat = np.frombuffer(b"".join(g["vec"].iloc[:n]), dtype=np.float32).reshape(
            n, -1
        )
        sims = mat @ mat.T
        out = {"id_a": [], "id_b": [], "cosine": []}
        ii, jj = np.triu_indices(n, k=1)
        keep = sims[ii, jj] >= threshold
        for i, j in zip(ii[keep], jj[keep]):
            out["id_a"].append(min(ids[i], ids[j]))
            out["id_b"].append(max(ids[i], ids[j]))
            out["cosine"].append(float(sims[i, j]))
        if not out["id_a"]:
            return _empty_pairs("cosine", "float64")
        return pd.DataFrame(out)

    from valere_ocr_ray.ops.exchange import grouped_map

    bucketed = ds.select_columns([id_col, vec_col]).map_batches(
        bucketize, batch_format="pandas"
    )
    return grouped_map(
        bucketed, ["bucket"], bucket_pairs, min_group_size=2
    )


def embedding_dup_pairs_exact(
    ds: ray.data.Dataset,
    *,
    threshold: float = 0.9,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> ray.data.Dataset:
    """EXACT cosine near-dup pairs — the recall-1.0 baseline the LSH
    variant (``embedding_dup_pairs``) is measured against.

    The full normalized matrix broadcasts once via ``ray.put``; each
    batch matmuls against it and emits its (i<j, cosine>=t) pairs, so
    the quadratic work distributes over batches while every pair is
    produced exactly once (dedup by ``id_a < id_b`` within the batch's
    row range).  Scale contract: broadcast is N×d floats — the corpus
    must fit one worker's heap (fine for probe/eval sets up to ~10M×64);
    beyond that, use the LSH buckets.  Scores are float64, rounded to 6
    decimals, so the SQL cross-join oracle reproduces them exactly."""
    all_rows = ds.select_columns([id_col, vec_col]).to_pandas()
    ids_all = all_rows[id_col].to_numpy(dtype=np.int64)
    mat_all = np.stack(all_rows[vec_col].to_numpy()).astype(np.float64)
    mat_all /= np.linalg.norm(mat_all, axis=1, keepdims=True) + 1e-12
    ref = ray.put((ids_all, mat_all))

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        ids_a, mat_a = ray.get(ref)  # zero-copy plasma read per task
        rows = df["_row"].to_numpy(dtype=np.int64)
        ids = ids_a[rows]
        sims = mat_a[rows] @ mat_a.T  # (batch, N)
        ii, jj = np.nonzero(sims >= threshold)
        keep = ids[ii] < ids_a[jj]  # each unordered pair exactly once
        ii, jj = ii[keep], jj[keep]
        return pd.DataFrame(
            {
                "id_a": ids[ii],
                "id_b": ids_a[jj],
                "cosine": np.round(sims[ii, jj], 6),
            }
        )

    # the input is already materialized for the broadcast — the batched
    # pass fans out over ROW-INDEX spans against the plasma matrix (one
    # object-store write total), instead of re-executing the upstream
    # dataset a second time
    index = pd.DataFrame({"_row": np.arange(len(ids_all), dtype=np.int64)})
    return ray.data.from_pandas(index).repartition(
        max(1, len(ids_all) // 4096)
    ).map_batches(pairs, batch_format="pandas")


def embedding_semdedup(
    ds: ray.data.Dataset,
    *,
    dim: int,
    threshold: float = 0.9,
    n_planes: int = 8,
    seed: int = 42,
    max_bucket: int = 8192,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> ray.data.Dataset:
    """SemDeDup-style survivor selection (Abbas et al. 2023): bucket the
    corpus by embedding LSH, then within each bucket DROP every row that
    has a smaller-id row at cosine >= ``threshold``; return the
    survivors' ids.

    Two deliberate deviations from the paper, both for distribution:

    * buckets are seeded-hyperplane LSH sign patterns, not k-means
      cells — the bucket of a vector is a pure function of the vector
      (no iterative fit, no broadcast centroids), so the stage is one
      ``map_batches`` + one hash exchange and identical vectors ALWAYS
      share a bucket.  General recall for cos-in-[t,1) pairs is
      ``(1 - theta/pi)^n_planes`` (audited by ``emb_lsh_recall``);
      raise ``n_planes`` to shrink buckets at corpus scale.
    * the drop rule is "exists ANY smaller-id neighbour >= t", not the
      paper's sequential "exists a smaller-id KEPT neighbour".  The
      pairwise form needs no serial scan inside a bucket (vectorized
      masked matmul) and is exactly SQL-expressible (NOT EXISTS
      self-join), at the cost of over-dropping transitive chains —
      conservative in the right direction for dedup.

    ``max_bucket``: rows in a pathological bucket compare only against
    the bucket's first ``max_bucket`` smallest ids (deterministic
    recall cap, documented like ``embedding_dup_pairs``); survivors are
    never silently truncated.  Wire cost per row: id + d floats, once.

    Analog of the reference's duplicate-upload suppression
    (IDD/finalcodes/import os1.py content-hash skip), lifted from exact
    bytes to semantic neighbourhoods.
    """
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((dim, n_planes)).astype(np.float32)

    def bucketize(df: pd.DataFrame) -> pd.DataFrame:
        vecs = np.stack(df[vec_col].to_numpy()).astype(np.float32)
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True) + 1e-12
        signs = (vecs @ planes) > 0
        bucket = (signs * (1 << np.arange(n_planes))).sum(axis=1)
        # normalized vector rides the exchange as plain float32 BYTES —
        # a binary column, not an ndarray column: Arrow's tensor
        # extension dtype can leak through schema-stamped empty
        # partitions and break downstream pandas conversion
        return pd.DataFrame(
            {
                "bucket": bucket.astype(np.int64),
                id_col: df[id_col].to_numpy(),
                "vec": [v.tobytes() for v in vecs],
            }
        )

    def bucket_survivors(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return pd.DataFrame({id_col: g[id_col].to_numpy()})
        g = g.sort_values(id_col, kind="stable")
        ids = g[id_col].to_numpy()
        mat = (
            np.frombuffer(b"".join(g["vec"]), dtype=np.float32)
            .reshape(len(ids), -1)
            .astype(np.float64)
        )
        n = len(ids)
        ref_n = min(n, max_bucket)
        ref = mat[:ref_n]
        dropped = np.zeros(n, dtype=bool)
        chunk = 1024  # bounds sims to chunk × ref_n doubles
        for s in range(0, n, chunk):
            e = min(s + chunk, n)
            sims = mat[s:e] @ ref.T
            # row with global sorted index i may only be dropped by
            # columns j < min(i, ref_n) — strictly-smaller ids in range
            col_idx = np.arange(ref_n)[None, :]
            row_idx = np.arange(s, e)[:, None]
            dropped[s:e] = ((sims >= threshold) & (col_idx < row_idx)).any(axis=1)
        return pd.DataFrame({id_col: ids[~dropped]})

    from valere_ocr_ray.ops.exchange import grouped_map

    bucketed = ds.select_columns([id_col, vec_col]).map_batches(
        bucketize, batch_format="pandas"
    )
    return grouped_map(bucketed, ["bucket"], bucket_survivors)


# ---------------------------------------------------------------------------
# clustering verified pairs
# ---------------------------------------------------------------------------


def _cl_col(t: pa.Table, name: str) -> np.ndarray:
    """A column as int64 — an empty partition may carry no columns."""
    col = t[name] if t.num_rows else pa.array([], pa.int64())
    return col.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)


def _cl_state(node, val, n_labels: int) -> pa.Table:
    """State rows: the first ``n_labels`` are label rows (kind 0), the
    rest candidate rows (kind 1)."""
    kind = (np.arange(len(node)) >= n_labels).astype(np.int8)
    return pa.table(
        {
            "node": pa.array(node, pa.int64()),
            "val": pa.array(val, pa.int64()),
            "kind": pa.array(kind, pa.int8()),
        }
    )


def _cl_init(edges: pa.Table) -> pa.Table:
    """A partition's first state: the label row (v, v) of each node it owns."""
    nodes = np.unique(_cl_col(edges, "node"))
    return _cl_state(nodes, nodes, len(nodes))


def _cl_round(first: bool, state: pa.Table, asks: pa.Table, edges: pa.Table):
    """One labelling round for one partition.  ``state`` holds the label
    rows (kind 0) of the nodes this partition owns plus the candidate
    rows (kind 1) ``lab[v] = min(lab[v], c)`` sent to them; ``asks`` is
    every label row ``(v, l)`` whose label ``l`` this partition owns;
    ``edges`` are the directed edges leaving its nodes.  Returns the
    next state: the lowered label rows plus the candidates they send
    (the ask replies, the edge sends and the hooks)."""
    node, val = _cl_col(state, "node"), _cl_col(state, "val")
    is_lab = _cl_col(state, "kind") == 0
    order = np.argsort(node[is_lab])
    nodes, old = node[is_lab][order], val[is_lab][order]
    new = old.copy()
    np.minimum.at(new, np.searchsorted(nodes, node[~is_lab]), val[~is_lab])
    # pointer jump: answer the ask (v, l) with lab[l] when that is lower
    a_node, a_val = _cl_col(asks, "node"), _cl_col(asks, "val")
    ask = (_cl_col(asks, "kind") == 0) & (a_node != a_val)
    jump = new[np.searchsorted(nodes, a_val[ask])]
    lower = jump < a_val[ask]
    # a label that fell goes along every edge and, as a hook, to its
    # old parent; in the first round every label goes along every edge
    fell = new < old
    src, dst = _cl_col(edges, "node"), _cl_col(edges, "other")
    src_pos = np.searchsorted(nodes, src)
    send = np.ones(len(src), bool) if first else fell[src_pos]
    hook = fell & (old != nodes)
    tgt = np.concatenate([a_node[ask][lower], dst[send], old[hook]])
    cand = np.concatenate([jump[lower], new[src_pos][send], new[hook]])
    # only the lowest candidate per target matters
    order = np.lexsort((cand, tgt))
    tgt, first = np.unique(tgt[order], return_index=True)
    cand = cand[order][first]
    node, val = np.concatenate([nodes, tgt]), np.concatenate([new, cand])
    return _cl_state(node, val, len(nodes))


def cluster_labels(
    pairs: ray.data.Dataset,
    *,
    max_rounds: int = 64,
) -> ray.data.Dataset:
    """Distributed connected components over a pair Dataset
    ``(id_a, id_b)`` → Dataset ``(doc_id, cluster)`` where ``cluster``
    is the minimum node id of the component — same output as
    union-find, with NO driver-side pair list.

    Algorithm: min-label propagation with pointer jumping and hooks,
    one keyed exchange (``exchange._exchange``) per round:

    - the directed edges are hash-partitioned by source node ONCE and
      enter every round as a pre-partitioned side, so they never move
      again;
    - the state is one table ``(node, val, kind)``: a label row
      ``(v, lab[v])`` per node and candidate rows ``(v, c)`` meaning
      ``lab[v] = min(lab[v], c)``.  A round exchanges it twice: split
      by ``node`` (each node's label meets its candidates) and split by
      ``val`` (each label row reaches its label's owner, as an ask);
    - each partition lowers its labels, answers every ask ``(v, l)``
      with ``lab[l]`` when that is lower (pointer jumping, asked by
      every non-root node every round), sends each fallen label along
      the node's edges and hooks it onto the node's old parent
      (Shiloach-Vishkin).

    The run stops when a round's state holds only label rows (counted
    from block metadata).  No bound is proven: measured on chains of up
    to 20,000 nodes in any id order and on chains of near-dup cliques,
    the rounds stay in the tens, so ``max_rounds=64`` leaves headroom;
    a run that does not converge raises instead of returning partial
    labels.  The driver holds one row count per round; everything else
    stays in the object store.
    """
    from valere_ocr_ray.ops.exchange import _exchange

    def both_ways(df: pd.DataFrame) -> pd.DataFrame:
        a = df["id_a"].to_numpy(dtype=np.int64)
        b = df["id_b"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "node": np.concatenate([a, b]),
                "other": np.concatenate([b, a]),
            }
        )

    edges_ds = pairs.select_columns(["id_a", "id_b"]).map_batches(
        both_ways, batch_format="pandas"
    )
    edges = _exchange([(edges_ds, ["node"])], lambda t: t, None)
    state = _exchange([(edges, None)], _cl_init, None)
    n_nodes = ray.data.from_arrow_refs(state).count()
    for r in range(max_rounds):
        sides = [(state, ["node"]), (state, ["val"]), (edges, None)]
        state = _exchange(sides, functools.partial(_cl_round, r == 0), None)
        labels = ray.data.from_arrow_refs(state)
        if labels.count() == n_nodes:
            break
    else:
        raise RuntimeError(
            f"cluster_labels did not converge within {max_rounds} rounds"
        )

    def project(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["node"].to_numpy(dtype=np.int64),
                "cluster": df["val"].to_numpy(dtype=np.int64),
            }
        )

    return labels.map_batches(project, batch_format="pandas")


def connected_components(pairs: list[tuple[int, int]]) -> dict[int, int]:
    """Union-find over verified duplicate pairs → {id: cluster_rep}.

    Driver-side convenience for SMALL pair lists (unit tests, bounded
    candidate sets).  The scale path is :func:`cluster_labels` —
    min-label propagation as hash-exchange rounds, no driver
    materialization of the pairs.
    """
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in parent}


def shared_ngram_spans(
    ds: ray.data.Dataset,
    *,
    n: int = 8,
    min_docs: int = 2,
    text_col: str = "text",
    id_col: str = "doc_id",
    emit_text: bool = True,
) -> ray.data.Dataset:
    """Exact duplicate-SPAN detection (the core of substring-level
    dedup, Lee et al. 2022 "Deduplicating Training Data Makes Language
    Models Better"): every token ``n``-gram occurring in at least
    ``min_docs`` DISTINCT documents, with occurrence + doc counts.

    Shape: explode each doc into (gram, doc_id) pairs — DEDUPED per
    (block, gram, doc) before the exchange so wire rows are bounded by
    distinct grams per block — then one keyed exchange co-locates each
    gram and a vectorized pass counts docs.  Most grams are unique, so
    the surviving output is proportional to actually-duplicated spans,
    not the corpus.

    ``emit_text=False`` exchanges 64-bit window hashes instead of gram
    strings (≈10× fewer wire bytes) — the 100-TB setting; strings are
    kept here for oracle parity."""
    from valere_ocr_ray.ops.decontam import window_hashes
    from valere_ocr_ray.ops.exchange import grouped_map

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        grams, ids = [], []
        for doc, t in zip(df[id_col], df[text_col]):
            toks = t.split()
            if len(toks) < n:
                continue
            if emit_text:
                seen = {
                    " ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)
                }
            else:
                seen = set(window_hashes(toks, n).tolist())
            grams.extend(seen)
            ids.extend([doc] * len(seen))
        key_dtype = object if emit_text else "uint64"
        return pd.DataFrame(
            {"gram": pd.Series(grams, dtype=key_dtype),
             id_col: pd.Series(ids, dtype="int64")}
        )

    pairs = ds.map_batches(explode, batch_format="pandas")

    def count_docs(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame(
                {"gram": pd.Series([], dtype=object),
                 "n_docs": pd.Series([], dtype="int64")}
            )
        nd = g[id_col].nunique()
        if nd < min_docs:
            return g.iloc[0:0][["gram"]].assign(n_docs=pd.Series([], dtype="int64"))
        return pd.DataFrame({"gram": [g["gram"].iloc[0]], "n_docs": [nd]})

    return grouped_map(pairs, ["gram"], count_docs, min_group_size=min_docs)
