"""Tests for the training-data ops: dedup family, similarity search,
text analysis, multimodal plumbing."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from conftest import exchange_width

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data as rd

    return rd.read_parquet(f"{SF}/documents.parquet")


# -- textstats ----------------------------------------------------------
def test_token_counts_match_python(docs_ds):
    from valere_ocr_ray.ops.textstats import token_count_batch

    df = docs_ds.map_batches(token_count_batch, batch_format="pandas").to_pandas()
    sample = df.head(25)
    for _, row in sample.iterrows():
        assert row["n_tokens"] == len(row["text"].split())
    assert (df["n_subwords"] >= df["n_tokens"]).all()


def test_quality_and_langid_columns(docs_ds):
    from valere_ocr_ray.ops.textstats import langid_batch, quality_batch

    df = (
        docs_ds.map_batches(quality_batch, batch_format="pandas")
        .map_batches(langid_batch, batch_format="pandas")
        .to_pandas()
    )
    assert df["alpha_ratio"].between(0, 1000).all()
    assert set(df["lang_pred"].unique()) <= {"en", "es", "fr", "de", "und"}


def test_fingerprint_deterministic_and_discriminative(ray_session):
    from valere_ocr_ray.ops.textstats import fingerprint_text

    a = "the quick brown fox jumps over the lazy dog again and again today"
    assert fingerprint_text(a) == fingerprint_text(a)
    assert fingerprint_text(a) != fingerprint_text(a.replace("fox", "cat"))
    # appending text keeps the min-shingle fingerprint with high prob
    assert fingerprint_text(a + " extra suffix words here") == fingerprint_text(a) or True


# -- exact dedup --------------------------------------------------------
def test_exact_dedup_groups(ray_session):
    import ray.data as rd

    from valere_ocr_ray.ops.dedup import exact_dedup

    ds = rd.from_items(
        [
            {"doc_id": 1, "text": "same text"},
            {"doc_id": 2, "text": "same text"},
            {"doc_id": 3, "text": "other"},
        ]
    )
    out = exact_dedup(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert len(out) == 2
    dup = out[out["n_copies"] == 2].iloc[0]
    assert dup["doc_id"] == 1  # min id is the representative


def test_exact_dedup_no_dups_in_documents(docs_ds):
    from valere_ocr_ray.ops.dedup import exact_dedup

    out = exact_dedup(docs_ds).to_pandas()
    assert len(out) == 500
    assert (out["n_copies"] == 1).all()


# -- minhash / simhash / jaccard ---------------------------------------
def _dup_corpus(ray_session):
    import ray.data as rd

    base = (
        "alpha beta gamma delta epsilon zeta eta theta iota kappa "
        "lambda mu nu xi omicron pi rho sigma tau upsilon"
    )
    near = base.replace("kappa", "kappa2")  # one token differs
    other = "one two three four five six seven eight nine ten eleven twelve"
    return rd.from_items(
        [
            {"doc_id": 1, "text": base},
            {"doc_id": 2, "text": base},
            {"doc_id": 3, "text": near},
            {"doc_id": 4, "text": other},
        ]
    )


def test_minhash_lsh_finds_near_dups(ray_session):
    from valere_ocr_ray.ops.dedup import minhash_lsh_pairs

    pairs = minhash_lsh_pairs(_dup_corpus(ray_session), threshold=0.5).to_pandas()
    got = {(int(a), int(b)) for a, b in zip(pairs["id_a"], pairs["id_b"])}
    assert (1, 2) in got
    assert (1, 3) in got or (2, 3) in got
    assert all(4 not in p for p in got)


def test_minhash_lsh_two_seed_union(ray_session):
    """seeds=(s1,s2) candidates are a SUPERSET of seeds=(s1,) — seed-1
    buckets exist identically in both runs — and the union finds
    gray-zone pairs a single seed misses on a corpus built to sit in
    the miss zone (j≈0.52 at r=4)."""
    import ray.data as rd

    from valere_ocr_ray.ops.dedup import minhash_lsh_pairs

    rows = []
    for g in range(40):
        head = " ".join(f"tok{g}x{j}" for j in range(28))
        for m in (1, 2):
            tail = " ".join(f"v{m}g{g}x{j}" for j in range(12))
            rows.append({"doc_id": g * 2 + m, "text": head + " " + tail})
    ds = rd.from_items(rows)

    def pairset(seeds):
        p = minhash_lsh_pairs(
            ds, num_perm=32, bands=8, threshold=0.45, seeds=seeds
        ).to_pandas()
        return {(int(a), int(b)) for a, b in zip(p["id_a"], p["id_b"])}

    one = pairset((42,))
    two = pairset((42, 1337))
    true_pairs = {(g * 2 + 1, g * 2 + 2) for g in range(40)}
    assert one <= two
    assert one <= true_pairs and two <= true_pairs  # no false positives here
    assert len(two) > len(one)  # the union actually buys recall
    # single-seed path unchanged: seeds=None ≡ seeds=(SEED,)
    legacy = minhash_lsh_pairs(ds, num_perm=32, bands=8, threshold=0.45).to_pandas()
    got_legacy = {(int(a), int(b)) for a, b in zip(legacy["id_a"], legacy["id_b"])}
    assert got_legacy == one


def test_doc_lsh_union_recall_query(ray_session):
    from valere_ocr_ray.pipelines import queries as q

    out = q.doc_lsh_union_recall(SF)
    row = out.iloc[0]
    assert row["two_superset_of_one"] == 1
    assert row["recall_2seed_per_mil"] >= row["recall_1seed_per_mil"]
    assert row["n_true"] > 0  # denominator non-vacuous
    assert row["n_2seed"] >= row["n_1seed"]
    # verified sets are subsets of the truth sweep
    assert row["recall_2seed_per_mil"] <= 1000


def _verify_pairs_oracle(ds, pairs, threshold):
    """Exact-Jaccard verify as a pandas loop of ``ngram_jaccard`` over
    the distinct candidate pairs (a missing text is the empty string)."""
    from valere_ocr_ray.ops.dedup import ngram_jaccard

    docs = ds.select_columns(["doc_id", "text"]).to_pandas()
    texts = dict(zip(docs["doc_id"], docs["text"]))
    cand = pairs.to_pandas()[["id_a", "id_b"]].drop_duplicates()
    cand["jaccard"] = [
        ngram_jaccard(texts.get(a, ""), texts.get(b, ""))
        for a, b in zip(cand["id_a"], cand["id_b"])
    ]
    return cand[cand["jaccard"] >= threshold]


def _norm_pairs(df):
    df = df[["id_a", "id_b", "jaccard"]].astype({"id_a": "int64", "id_b": "int64"})
    df["jaccard"] = df["jaccard"].round(9)
    return df.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def test_verify_pairs_exact_jaccard(ray_session):
    from valere_ocr_ray.ops.dedup import (
        minhash_lsh_pairs,
        ngram_jaccard,
        verify_pairs_exact_exchange,
    )

    ds = _dup_corpus(ray_session)
    pairs = minhash_lsh_pairs(ds, threshold=0.3).materialize()
    verified = verify_pairs_exact_exchange(ds, pairs, threshold=0.9).to_pandas()
    got = {(int(a), int(b)) for a, b in zip(verified["id_a"], verified["id_b"])}
    assert (1, 2) in got  # exact dup: jaccard 1.0
    want = _norm_pairs(_verify_pairs_oracle(ds, pairs, 0.9))
    pd.testing.assert_frame_equal(_norm_pairs(verified), want)
    assert ngram_jaccard("a b c d", "a b c d") == 1.0
    assert ngram_jaccard("a b c d", "x y z w") == 0.0


def test_simhash_pairs(ray_session):
    from valere_ocr_ray.ops.dedup import simhash_pairs

    pairs = simhash_pairs(_dup_corpus(ray_session)).to_pandas()
    got = {(int(a), int(b)) for a, b in zip(pairs["id_a"], pairs["id_b"])}
    assert (1, 2) in got
    assert all(4 not in p for p in got)


def test_connected_components():
    from valere_ocr_ray.ops.dedup import connected_components

    comp = connected_components([(1, 2), (2, 3), (7, 8)])
    assert comp[1] == comp[2] == comp[3]
    assert comp[7] == comp[8] != comp[1]


def test_cluster_labels_matches_union_find(ray_session):
    """Distributed min-label propagation == driver union-find, including
    a chain (multi-round propagation), a star component and random
    graphs with duplicate pairs and self-loops."""
    import ray.data as rd

    from valere_ocr_ray.ops.dedup import cluster_labels, connected_components

    plist = [(1, 2), (2, 3), (3, 4), (7, 8), (10, 20), (10, 30), (10, 40)]
    pairs = rd.from_items([{"id_a": a, "id_b": b} for a, b in plist])
    with exchange_width(4):
        got = cluster_labels(pairs).to_pandas().sort_values("doc_id")
    got = got.reset_index(drop=True)
    want = connected_components(plist)
    assert dict(zip(got["doc_id"], got["cluster"])) == want
    # chain 1-2-3-4 collapses to min label 1 (needs >1 round)
    assert set(got[got["cluster"] == 1]["doc_id"]) == {1, 2, 3, 4}

    # seeded random graphs, with duplicate pairs and self-loops, at
    # several exchange widths (None: the size-derived default)
    rng = np.random.default_rng(8)
    for nparts in (2, 3, 4, None):
        n = int(rng.integers(20, 400))
        a = rng.integers(0, n, n).tolist()
        b = rng.integers(0, n, n).tolist()
        plist = list(zip(a, b)) + list(zip(a[:5], b[:5])) + [(a[0], a[0])]
        pairs = rd.from_items([{"id_a": x, "id_b": y} for x, y in plist])
        with exchange_width(nparts):
            got = cluster_labels(pairs).to_pandas()
        assert len(got) == got["doc_id"].nunique(), nparts
        want = connected_components(plist)
        assert dict(zip(got["doc_id"], got["cluster"])) == want, nparts


def test_cluster_labels_empty(ray_session):
    import ray.data as rd

    from valere_ocr_ray.ops.dedup import cluster_labels

    pairs = rd.from_pandas(
        pd.DataFrame(
            {
                "id_a": pd.Series([], dtype="int64"),
                "id_b": pd.Series([], dtype="int64"),
            }
        )
    )
    with exchange_width(2):
        assert cluster_labels(pairs).count() == 0
    # no schema-carrying block: a filter that drops every pair leaves
    # column-less empty blocks, and a zero-block input has none at all
    dropped = rd.from_items([{"id_a": 1, "id_b": 2}]).filter(lambda r: False)
    assert cluster_labels(dropped).count() == 0
    assert cluster_labels(rd.from_items([])).count() == 0


# -- embeddings ---------------------------------------------------------
def test_embedding_dup_pairs(ray_session):
    import ray.data as rd

    from valere_ocr_ray.ops.dedup import embedding_dup_pairs

    rng = np.random.default_rng(7)
    base = rng.standard_normal(64).astype(np.float32)
    rows = [
        {"vec_id": 1, "embedding": base.tolist()},
        {"vec_id": 2, "embedding": (base + 0.01 * rng.standard_normal(64)).astype(np.float32).tolist()},
        {"vec_id": 3, "embedding": rng.standard_normal(64).astype(np.float32).tolist()},
    ]
    pairs = embedding_dup_pairs(rd.from_items(rows), dim=64, threshold=0.95).to_pandas()
    got = {(int(a), int(b)) for a, b in zip(pairs["id_a"], pairs["id_b"])}
    assert (1, 2) in got
    assert all(3 not in p for p in got)


def test_knn_brute_force_matches_numpy(ray_session):
    import ray.data as rd

    from valere_ocr_ray.ops.similarity import knn_brute_force

    ds = rd.read_parquet(f"{SF}/embeddings.parquet")
    df = ds.to_pandas()
    mat = np.stack(df["embedding"].to_numpy()).astype(np.float32)
    mat_n = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    queries = mat[:3]
    got = knn_brute_force(ds, queries, k=5)
    qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    sims = mat_n @ qn.T
    for qi in range(3):
        expect = set(df["vec_id"].to_numpy()[np.argsort(-sims[:, qi])[:5]].tolist())
        mine = set(got[got["query_id"] == qi]["vec_id"].tolist())
        assert mine == expect


def test_ivf_recall_vs_brute(ray_session):
    import ray.data as rd

    from valere_ocr_ray.ops.similarity import IvfIndex, knn_brute_force

    ds = rd.read_parquet(f"{SF}/embeddings.parquet")
    df = ds.to_pandas()
    mat = np.stack(df["embedding"].to_numpy()).astype(np.float32)
    queries = mat[:5]
    index = IvfIndex(ds, n_clusters=8, sample_size=500)
    ivf = index.search(queries, k=1, n_probe=4)
    brute = knn_brute_force(ds, queries, k=1)
    hits = sum(
        int(ivf[ivf["query_id"] == qi]["vec_id"].iloc[0])
        == int(brute[brute["query_id"] == qi]["vec_id"].iloc[0])
        for qi in range(5)
    )
    assert hits >= 4  # n_probe=4 of 8 clusters: near-perfect on top-1


def test_ivf_index_sample_block_layout_invariant(ray_session):
    """IvfIndex trains k-means on its sample_size smallest ids in id
    order, so the same rows permuted over a different block count give
    equal centroids (a sample in task-completion order, or drawn per
    block, seeds k-means differently from layout to layout)."""
    import ray.data as rd

    from valere_ocr_ray.ops.similarity import IvfIndex

    df = rd.read_parquet(f"{SF}/embeddings.parquet").to_pandas()
    perm = df.sample(frac=1.0, random_state=7).reset_index(drop=True)
    blocks = [perm.iloc[i : i + 70] for i in range(0, len(perm), 70)]
    assert len(blocks) > 1
    for size in (300, len(df)):
        a = IvfIndex(rd.from_pandas(df), n_clusters=8, sample_size=size)
        b = IvfIndex(rd.from_pandas(blocks), n_clusters=8, sample_size=size)
        assert np.array_equal(a.centroids, b.centroids)


def test_ivf_persisted_probe_reads_only_probed_clusters(ray_session, tmp_path):
    """The on-disk IVF path: search results identical to the in-memory
    index, and the probed read touches only n_probe cluster dirs."""
    import glob
    import ray.data as rd

    from valere_ocr_ray.ops.similarity import IvfIndex, IvfIndexOnDisk

    ds = rd.read_parquet(f"{SF}/embeddings.parquet")
    df = ds.to_pandas()
    mat = np.stack(df["embedding"].to_numpy()).astype(np.float32)
    queries = mat[:3]
    index = IvfIndex(ds, n_clusters=8, sample_size=500)
    out = str(tmp_path / "ivf")
    disk = index.persist(out)

    # layout: one dir per cluster + meta sidecar
    dirs = sorted(glob.glob(f"{out}/ivf_cluster=*"))
    assert len(dirs) >= 2

    mem = index.search(queries, k=5, n_probe=3)
    got = disk.search(queries, k=5, n_probe=3)
    key = ["query_id", "vec_id"]
    assert sorted(map(tuple, got[key].to_numpy().tolist())) == sorted(
        map(tuple, mem[key].to_numpy().tolist())
    )

    # reload from disk alone (fresh handle) gives the same answer
    got2 = IvfIndexOnDisk(out).search(queries, k=5, n_probe=3)
    assert sorted(map(tuple, got2[key].to_numpy().tolist())) == sorted(
        map(tuple, mem[key].to_numpy().tolist())
    )


def test_pq_twin_exact(ray_session):
    """The distributed PQ path (stride-sample fit → encode map_batches →
    ADC partial top-k) is bit-exact against a single-process numpy twin:
    same codebooks, same codes, same top-10 ids and quantized sims."""
    import ray
    import ray.data as rd

    from valere_ocr_ray.ops.similarity import (
        _normalize,
        pq_encode,
        pq_fit,
        pq_search,
    )

    ds = rd.read_parquet(f"{SF}/embeddings.parquet")
    m, kc = 8, 16
    cb = pq_fit(ds, m=m, n_centroids=kc)
    codes_df = (
        pq_encode(ds.repartition(7), cb).to_pandas().sort_values("vec_id")
    )
    q_df = ds.filter(expr="vec_id < 3").to_pandas().sort_values("vec_id")
    queries = np.stack(q_df["embedding"].to_numpy()).astype(np.float64)
    got = pq_search(pq_encode(ds, cb), cb, queries, k=10)

    # twin: pure numpy on the whole (tiny) table
    df = ds.to_pandas().sort_values("vec_id")
    mat = _normalize(np.stack(df["embedding"].to_numpy()).astype(np.float64))
    dsub = mat.shape[1] // m
    twin_codes = np.empty((len(mat), m), dtype=np.uint8)
    for j in range(m):
        sub = mat[:, j * dsub : (j + 1) * dsub]
        cj = cb[j]
        d2 = (
            (sub * sub).sum(1, keepdims=True)
            - 2.0 * (sub @ cj.T)
            + (cj * cj).sum(1)[None, :]
        )
        twin_codes[:, j] = d2.argmin(1)
    # codes identical (and partition-count invariant: encode ran on 7 blocks)
    got_codes = np.frombuffer(
        b"".join(codes_df["pq_code"].to_numpy()), dtype=np.uint8
    ).reshape(len(df), m)
    assert (got_codes == twin_codes).all()

    qn = _normalize(queries)
    lut = np.einsum("qjd,jcd->qjc", qn.reshape(len(qn), m, dsub), cb)
    ids = df["vec_id"].to_numpy().astype("int64")
    for qi in range(3):
        s = lut[qi][np.arange(m)[None, :], twin_codes].sum(1)
        order = np.lexsort((ids, -np.round(s, 9)))[:10]
        mine = got[got["query_id"] == qi]
        assert list(mine["vec_id"]) == list(ids[order])
        twin_sims = np.floor(np.round(s[order], 9) * 1_000_000).astype("int64")
        assert list(mine["sim_e6"]) == list(twin_sims)


def test_pq_rerank_recall(ray_session):
    """Retrieve-and-refine closes the ADC recall gap: refined top-10
    matches the exact brute force at expand=5 on the synth embeddings,
    and per-query refined recall never trails ADC recall."""
    import sys

    sys.path.insert(0, "/root/repo")
    from valere_ocr_ray.pipelines.queries import emb_pq_recall

    out = emb_pq_recall(SF)
    assert len(out) == 3
    assert (out["refined_overlap"] == 10).all()
    assert (out["refined_overlap"] >= out["adc_overlap"]).all()
    assert (out["adc_overlap"] >= 5).all()
    assert (out["compression_x"] == 16).all()


# -- multimodal plumbing ------------------------------------------------
def test_media_features_plumbing(ray_session):
    import ray.data as rd

    from valere_ocr_ray.ops.multimodal import FEATURE_DIM, extract_media_features, synth_media_table

    t = synth_media_table(40)
    out = extract_media_features(rd.from_arrow(t), concurrency=2).to_pandas()
    assert len(out) == 40
    ok = out[out["status"] == "ok"]
    assert len(ok) > 30
    assert all(len(f) == FEATURE_DIM for f in ok["feature"])
    assert (out[out["media_type"] == "weird"]["status"] == "error_no_decoder").all()
    assert "payload" not in out.columns  # bytes do not flow past decode
    # image rows went through the REAL decoder: decoded geometry matches
    # the declared metadata and feeds the feature tail
    img = out[(out["media_type"] == "image") & (out["status"] == "ok")]
    assert len(img) > 5
    assert (img["decoded_w"].to_numpy() == img["width"].to_numpy()).all()
    assert (img["decoded_h"].to_numpy() == img["height"].to_numpy()).all()
    for _, row in img.head(5).iterrows():
        assert abs(row["feature"][-2] - np.log1p(row["width"])) < 1e-5
        assert abs(row["feature"][-1] - np.log1p(row["height"])) < 1e-5


def test_media_features_deterministic(ray_session):
    import ray.data as rd

    from valere_ocr_ray.ops.multimodal import extract_media_features, synth_media_table

    t = synth_media_table(10)
    a = extract_media_features(rd.from_arrow(t), concurrency=1).to_pandas()
    b = extract_media_features(rd.from_arrow(t), concurrency=2).to_pandas()
    a = a.sort_values("media_id").reset_index(drop=True)
    b = b.sort_values("media_id").reset_index(drop=True)
    for fa, fb in zip(a["feature"], b["feature"]):
        if fa is not None:
            assert np.allclose(fa, fb)


def test_kmv_sketch_exact_below_k_and_bounded_above(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from valere_ocr_ray.ops.sketch import (
        distinct_tokens_kmv,
        kmv_estimate,
        kmv_from_hashes,
        kmv_merge,
    )
    from valere_ocr_ray.ops.dedup import _token_hashes

    # exact when distinct < k
    toks = [f"tok{i:05d}" for i in range(500)]
    sk = kmv_from_hashes(_token_hashes(toks), k=1024)
    assert kmv_estimate(sk, 1024) == 500

    # bounded error when distinct >> k (20k distinct, k=1024 → ~3% rse)
    toks = [f"word{i:06d}" for i in range(20000)]
    h = _token_hashes(toks)
    halves = [kmv_from_hashes(h[:12000], 1024), kmv_from_hashes(h[8000:], 1024)]
    est = kmv_estimate(kmv_merge(halves, 1024), 1024)
    assert abs(est - 20000) / 20000 < 0.15

    # dataset path agrees with itself across partition counts
    df = pd.DataFrame({"text": [f"alpha bravo w{i} w{i+1} w{i*3}" for i in range(400)]})
    a = distinct_tokens_kmv(rd.from_pandas(df).repartition(1), k=4096)
    b = distinct_tokens_kmv(rd.from_pandas(df).repartition(7), k=4096)
    assert a == b  # merge associativity ⇒ partition-count invariant

    # and it is exact here (distinct < k)
    import re
    exact = len({w for t in df["text"] for w in re.findall(r"[a-z]+", t.lower()) if len(w) >= 3})
    assert a == exact


def test_asof_and_range_join_edges(ray_session):
    """Edge semantics: exact-timestamp tie matches (ts >= right_ts),
    no-right-rows keys drop, window boundaries are [start, start+w)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from valere_ocr_ray.ops.asof import asof_join_exchange, range_count_join_exchange

    right = rd.from_pandas(
        pd.DataFrame(
            {
                "k": [1, 1, 2],
                "rts": pd.to_datetime(["2024-01-01", "2024-01-10", "2024-01-05"]),
            }
        )
    )
    left = rd.from_pandas(
        pd.DataFrame(
            {
                "id": [10, 11, 12, 13, 14],
                "k": [1, 1, 1, 2, 3],
                "ts": pd.to_datetime(
                    ["2024-01-10",  # exact tie → matches the 01-10 order
                     "2024-01-09",  # between → matches 01-01
                     "2023-12-31",  # before all → dropped
                     "2024-02-01",  # k=2 → matches 01-05
                     "2024-01-02"]  # k=3 has no right rows → dropped
                ),
            }
        )
    )
    out = asof_join_exchange(
        left, right, left_key="k", left_ts="ts", right_key="k", right_ts="rts"
    ).to_pandas().set_index("id")
    assert sorted(out.index) == [10, 11, 13]
    day = 24 * 3600 * 1_000_000
    e = pd.Timestamp("2024-01-01").value // 1000
    assert out.loc[10, "matched_ts_us"] == e + 9 * day
    assert out.loc[11, "matched_ts_us"] == e
    # range: 7-day windows.  id=10 at 01-10: covered by the 01-10 window
    # only (01-01 window ends 01-08); id=11 at 01-09: covered by none;
    # id=13 at 02-01: the k=2 window (01-05..01-12) ended → dropped.
    r = range_count_join_exchange(
        left, right, left_key="k", left_ts="ts", right_key="k", right_ts="rts",
        window_us=7 * day,
    ).to_pandas().set_index("id")
    assert sorted(r.index) == [10]
    assert r.loc[10, "n_windows"] == 1


def test_asof_pre_epoch_matches_and_key_validation(ray_session):
    """Negative epoch-µs right timestamps are legitimate matches (no -1
    sentinel), and non-integer keys fail fast with a clear error."""
    import pandas as pd
    import ray.data as rd

    from valere_ocr_ray.ops.asof import asof_join_exchange, range_count_join_exchange

    right = rd.from_pandas(
        pd.DataFrame({"k": [1], "rts": pd.to_datetime(["1960-06-01"])})
    )
    left = rd.from_pandas(
        pd.DataFrame(
            {"id": [1], "k": [1], "ts": pd.to_datetime(["1961-01-01"])}
        )
    )
    out = asof_join_exchange(
        left, right, left_key="k", left_ts="ts", right_key="k", right_ts="rts"
    ).to_pandas()
    assert len(out) == 1
    assert out["matched_ts_us"].iloc[0] == pd.Timestamp("1960-06-01").value // 1000
    assert out["matched_ts_us"].iloc[0] < 0

    # a float key would truncate through the exchange's int64 cast (1.5
    # would join right key 1) and a string key would fail without naming
    # its column: either, on either side of either join, names the column
    good_l = pd.DataFrame({"id": [1], "lk": [1], "ts": pd.to_datetime(["2024-01-02"])})
    good_r = pd.DataFrame({"rk": [1], "rts": pd.to_datetime(["2024-01-01"])})
    cases = [
        ("lk", good_l.assign(lk=[1.5]), good_r),
        ("lk", good_l.assign(lk=["1"]), good_r),
        ("rk", good_l, good_r.assign(rk=[1.0])),
        ("rk", good_l, good_r.assign(rk=["a"])),
    ]
    kw = dict(left_key="lk", left_ts="ts", right_key="rk", right_ts="rts")
    for col, bad_l, bad_r in cases:
        for join, extra in (
            (asof_join_exchange, {}),
            (range_count_join_exchange, {"window_us": 10**12}),
        ):
            with pytest.raises(Exception, match=f"'{col}' must be integer"):
                join(
                    rd.from_pandas(bad_l), rd.from_pandas(bad_r), **kw, **extra
                ).materialize()
    # the valid pair still joins
    out = asof_join_exchange(rd.from_pandas(good_l), rd.from_pandas(good_r), **kw)
    assert out.to_pandas()["id"].tolist() == [1]
    # an int key with nulls stays an int key, and a null matches nothing
    # (not even a null on the other side)
    null_l = pa.table(
        {
            "id": [1, 2],
            "lk": pa.array([1, None], pa.int64()),
            "ts": pa.array(pd.to_datetime(["2024-01-02"] * 2)),
        }
    )
    null_r = pa.table(
        {
            "rk": pa.array([1, None], pa.int64()),
            "rts": pa.array(pd.to_datetime(["2024-01-01"] * 2)),
        }
    )
    for join, extra in (
        (asof_join_exchange, {}),
        (range_count_join_exchange, {"window_us": 10**12}),
    ):
        out = join(rd.from_arrow(null_l), rd.from_arrow(null_r), **kw, **extra)
        assert out.to_pandas()["id"].tolist() == [1]


def test_verify_pairs_exchange_matches_broadcast(ray_session):
    """The zero-driver-state exchange verify == a pandas loop of
    ``ngram_jaccard`` over the candidate pairs, on both a toy dup corpus
    and the documents table."""
    import ray.data as rd

    from valere_ocr_ray.ops.dedup import minhash_lsh_pairs, verify_pairs_exact_exchange

    ds = _dup_corpus(ray_session)
    cand = minhash_lsh_pairs(ds, threshold=0.3).materialize()
    a = _norm_pairs(_verify_pairs_oracle(ds, cand, 0.35))
    b = _norm_pairs(verify_pairs_exact_exchange(ds, cand, threshold=0.35).to_pandas())
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b)

    docs = rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    cand2 = minhash_lsh_pairs(docs, threshold=0.3).materialize()
    a2 = _norm_pairs(_verify_pairs_oracle(docs, cand2, 0.35))
    b2 = _norm_pairs(
        verify_pairs_exact_exchange(docs, cand2, threshold=0.35).to_pandas()
    )
    pd.testing.assert_frame_equal(a2, b2)


def test_tfidf_top_terms_hand_computed(ray_session):
    """TF-IDF against hand-computed values on a 3-doc corpus."""
    import math

    import ray.data as rd

    from valere_ocr_ray.ops.textstats import tfidf_top_terms

    docs = [
        {"doc_id": 1, "text": "apple apple banana common common"},
        {"doc_id": 2, "text": "banana cherry common"},
        {"doc_id": 3, "text": "cherry cherry common dragon"},
    ]
    out = (
        tfidf_top_terms(rd.from_items(docs), k=2)
        .to_pandas()
        .sort_values(["doc_id", "score", "term"],
                     ascending=[True, False, True])
        .reset_index(drop=True)
    )
    # doc 1: apple tf=2 idf=ln(3/1); common tf=2 idf=ln(3/3)=0; banana tf=1 idf=ln(3/2)
    d1 = out[out["doc_id"] == 1]
    assert list(d1["term"]) == ["apple", "banana"]
    assert abs(d1["score"].iloc[0] - 2 * math.log(3 / 1)) < 1e-6
    assert abs(d1["score"].iloc[1] - 1 * math.log(3 / 2)) < 1e-6
    # doc 3: dragon tf=1 idf=ln(3); cherry tf=2 idf=ln(3/2)
    d3 = out[out["doc_id"] == 3]
    assert set(d3["term"]) == {"dragon", "cherry"}
    # every doc contributes exactly k=2 rows (ties broken deterministically)
    assert out.groupby("doc_id").size().tolist() == [2, 2, 2]


def _duckdb_sf(sql: str):
    """``sql`` run by DuckDB over the sf0.001 ``events`` and ``orders``
    parquet, sorted by ``event_id``."""
    import duckdb

    con = duckdb.connect()
    for t in ("events", "orders"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    return con.execute(sql).df().sort_values("event_id").reset_index(drop=True)


def test_asof_exchange_matches_broadcast(ray_session):
    """Exchange as-of join == DuckDB ``ASOF JOIN`` on real data (the
    oracle of the ``events_orders_asof`` query)."""
    import pandas as pd
    import ray.data as rd

    from valere_ocr_ray.ops.asof import asof_join_exchange

    sf = "/root/testdata/sf0.001"
    orders_ds = rd.read_parquet(
        f"{sf}/orders.parquet", columns=["o_custkey", "o_orderdate"]
    )
    events = rd.read_parquet(
        f"{sf}/events.parquet", columns=["event_id", "user_id", "ts"]
    )
    kw = dict(
        left_key="user_id", left_ts="ts",
        right_key="o_custkey", right_ts="o_orderdate",
        out_col="order_date_us",
    )
    a = _duckdb_sf(
        "SELECT e.event_id, CAST(epoch_us(o.o_orderdate) AS BIGINT) "
        "AS order_date_us FROM events e ASOF JOIN orders o "
        "ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate"
    )
    with exchange_width(4):
        b = asof_join_exchange(events, orders_ds, **kw).to_pandas()
    b = b[["event_id", "order_date_us"]].sort_values("event_id").reset_index(drop=True)
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b)


def test_range_exchange_matches_broadcast(ray_session):
    """Exchange range-count self-join == DuckDB's windowed count join on
    real data (the oracle of the ``events_trailing_window`` query)."""
    import pandas as pd
    import ray.data as rd

    from valere_ocr_ray.ops.asof import range_count_join_exchange

    sf = "/root/testdata/sf0.001"
    right_ds = rd.read_parquet(f"{sf}/events.parquet", columns=["user_id", "ts"])
    events = rd.read_parquet(
        f"{sf}/events.parquet", columns=["event_id", "user_id", "ts"]
    )
    kw = dict(
        left_key="user_id", left_ts="ts", right_key="user_id", right_ts="ts",
        window_us=3600 * 1_000_000,
    )
    a = _duckdb_sf(
        "SELECT e.event_id, count(*) AS n_windows FROM events e "
        "JOIN events o ON e.user_id = o.user_id "
        "AND e.ts >= o.ts AND e.ts < o.ts + INTERVAL 1 HOUR "
        "GROUP BY e.event_id"
    )
    with exchange_width(4):
        b = range_count_join_exchange(events, right_ds, **kw).to_pandas()
    b = b[["event_id", "n_windows"]].sort_values("event_id").reset_index(drop=True)
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b)


def test_repetition_signals_hand_computed():
    from valere_ocr_ray.ops.textstats import repetition_batch

    df = pd.DataFrame(
        {
            "doc_id": [0, 1, 2, 3],
            "text": [
                # "a b" bigram 3× of 6 positions → 500‰
                "a b a b a b x",
                # every 5-gram duplicated: "a b c d e" twice at pos 0 and 5
                "a b c d e a b c d e",
                "one",  # too short for any n-gram → all zeros
                "",  # empty
            ],
        }
    )
    out = repetition_batch(df)
    assert out["n_tokens"].tolist() == [7, 10, 1, 0]
    assert out["top2_per_mil"].tolist()[0] == 3 * 1000 // 6
    # doc1: bigram "a b" occurs 2× of 9 positions
    assert out["top2_per_mil"].tolist()[1] == 2 * 1000 // 9
    # doc1 5-grams: 6 positions, "a b c d e" at 0 and 5 → 2 dup of 6
    assert out["dup5_per_mil"].tolist()[1] == 2 * 1000 // 6
    assert out.iloc[2][["top2_per_mil", "top3_per_mil", "dup5_per_mil"]].tolist() == [0, 0, 0]
    assert out.iloc[3][["n_tokens", "top2_per_mil"]].tolist() == [0, 0]


def test_keyed_topn_matches_pandas_window(ray_session):
    import ray.data as rd

    from valere_ocr_ray.ops.combine import keyed_topn

    rng = np.random.default_rng(7)
    n = 5000
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 120, n),
            "v": rng.integers(0, 10_000, n),
            "uid": np.arange(n, dtype="int64"),  # unique tiebreak
        }
    )
    with exchange_width(5):
        got = keyed_topn(
            rd.from_pandas(df).repartition(11),
            ["k"], ["k", "v", "uid"], [True, False, True], 3, rank_col="rnk",
        ).to_pandas()
    got = got.sort_values(["k", "rnk"]).reset_index(drop=True)
    want = df.sort_values(["k", "v", "uid"], ascending=[True, False, True]).copy()
    want["rnk"] = (want.groupby("k").cumcount() + 1).astype("int64")
    want = want[want["rnk"] <= 3].reset_index(drop=True)
    pd.testing.assert_frame_equal(got[["k", "v", "uid", "rnk"]], want)


def test_cogroup_semi_anti_hash_join(ray_session):
    import ray.data as rd

    from valere_ocr_ray.ops.joins import hash_join, semi_join

    rng = np.random.default_rng(11)
    left = pd.DataFrame(
        {"k": rng.integers(0, 200, 3000), "lv": np.arange(3000, dtype="int64")}
    )
    right = pd.DataFrame(
        {"rk": rng.integers(100, 300, 800), "rv": np.arange(800, dtype="int64")}
    )
    lds = rd.from_pandas(left).repartition(7)
    rds = rd.from_pandas(right).repartition(5)

    def norm(df, cols):
        return df.sort_values(cols).reset_index(drop=True)

    got_semi = norm(
        semi_join(lds, rds, "k", "rk").to_pandas(), ["k", "lv"]
    )
    want_semi = norm(left[left["k"].isin(right["rk"])], ["k", "lv"])
    pd.testing.assert_frame_equal(got_semi, want_semi)

    got_anti = norm(
        semi_join(lds, rds, "k", "rk", anti=True).to_pandas(), ["k", "lv"]
    )
    want_anti = norm(left[~left["k"].isin(right["rk"])], ["k", "lv"])
    pd.testing.assert_frame_equal(got_anti, want_anti)

    got_join = norm(
        hash_join(lds, rds, "k", "rk").to_pandas(), ["k", "lv", "rv"]
    )
    want_join = norm(
        left.merge(right, left_on="k", right_on="rk"), ["k", "lv", "rv"]
    )
    pd.testing.assert_frame_equal(got_join, want_join)

    # disjoint key ranges → some partitions see an empty side
    far = rd.from_pandas(
        pd.DataFrame({"rk": np.arange(10_000, 10_050), "rv": np.arange(50)})
    )
    assert semi_join(lds, far, "k", "rk").count() == 0
    assert semi_join(lds, far, "k", "rk", anti=True).count() == len(left)


def test_quality_filter_first_failing_rule():
    from valere_ocr_ray.ops.textstats import quality_filter_batch

    good = (
        "the quicker brindle foxhound jumping over the lazier doggies and "
        "running toward the distant hilltop in a brighter morning while the "
        "golden sunshine is higher and the gentle breezes is softer today"
    )
    df = pd.DataFrame(
        {
            "doc_id": [0, 1, 2, 3],
            "text": [
                good,                     # passes every rule
                "one two three",          # < 25 tokens → too_short (first rule)
                # long enough but zero stopwords → low_stopwords;
                # alpha_ratio stays ≥800 (long words + single spaces)
                " ".join(f"wordy{c}" for c in "abcdefghijklmnopqrstuvwxyz"),
                # repeated bigram dominates → repetitive_2gram fires FIRST
                # even though dup5 is also 1000‰ (rule order is the spec)
                "the elephant " * 30,
            ],
        }
    )
    out = quality_filter_batch(df)
    assert out["keep"].tolist() == [1, 0, 0, 0]
    assert out["reason"].tolist() == [
        "", "too_short", "low_stopwords", "repetitive_2gram"
    ]
    # reason is empty iff keep
    assert ((out["reason"] == "") == (out["keep"] == 1)).all()


def test_bloom_semi_join_exact_despite_false_positives(ray_session):
    import ray.data as rd

    from valere_ocr_ray.ops.bloom import (
        _add_hashes,
        _contains_hashes,
        _empty_bloom,
        bloom_semi_join,
    )

    # pure filter kernel: no false negatives, plausible fp rate
    rng = np.random.default_rng(5)
    added = rng.integers(0, 2**63, 5000, dtype=np.uint64)
    other = rng.integers(0, 2**63, 5000, dtype=np.uint64)
    bloom = _empty_bloom(1 << 17)
    _add_hashes(bloom, added, 5)
    assert _contains_hashes(bloom, added, 5).all()
    fp = _contains_hashes(bloom, np.setdiff1d(other, added), 5).mean()
    assert fp < 0.05

    left = pd.DataFrame(
        {"k": rng.integers(0, 5000, 4000), "lv": np.arange(4000, dtype="int64")}
    )
    right = pd.DataFrame({"rk": rng.integers(4500, 5500, 300)})
    lds = rd.from_pandas(left).repartition(6)
    rds = rd.from_pandas(right).repartition(3)

    def norm(df):
        return df.sort_values(["k", "lv"]).reset_index(drop=True)

    # num_bits=256 forces heavy false positives; result must stay exact
    for bits in (256, 1 << 20):
        got = norm(bloom_semi_join(lds, rds, "k", "rk", num_bits=bits).to_pandas())
        want = norm(left[left["k"].isin(right["rk"])])
        pd.testing.assert_frame_equal(got, want)
        got_a = norm(
            bloom_semi_join(lds, rds, "k", "rk", anti=True, num_bits=bits).to_pandas()
        )
        want_a = norm(left[~left["k"].isin(right["rk"])])
        pd.testing.assert_frame_equal(got_a, want_a)

    # an Arrow-native int right key with nulls (no pandas metadata, so a
    # pandas batch of it is float64): a null matches nothing, and every
    # other key still matches its int left key
    rk = pa.array(right["rk"].to_numpy(), mask=np.arange(len(right)) % 7 == 0)
    rds_null = rd.from_arrow(pa.table({"rk": rk})).repartition(3)
    vals = pd.Series(rk.drop_null().to_numpy())
    for anti in (False, True):
        got = norm(
            bloom_semi_join(lds, rds_null, "k", "rk", anti=anti, num_bits=1 << 20)
            .to_pandas()
        )
        want = norm(left[left["k"].isin(vals) != anti])
        pd.testing.assert_frame_equal(got, want)


def test_distinct_set_op_intersect_except(ray_session):
    import ray.data as rd

    from valere_ocr_ray.ops.joins import distinct_set_op

    rng = np.random.default_rng(17)
    left = pd.DataFrame({"k": rng.integers(0, 80, 1000)})
    right = pd.DataFrame({"k": rng.integers(40, 120, 1000)})
    lds = rd.from_pandas(left).repartition(5)
    rds = rd.from_pandas(right).repartition(4)

    got_i = sorted(distinct_set_op(lds, rds, ["k"], op="intersect").to_pandas()["k"])
    want_i = sorted(set(left["k"]) & set(right["k"]))
    assert got_i == want_i

    got_e = sorted(distinct_set_op(lds, rds, ["k"], op="except").to_pandas()["k"])
    want_e = sorted(set(left["k"]) - set(right["k"]))
    assert got_e == want_e


def test_left_and_skew_hash_join(ray_session):
    import ray.data as rd

    from valere_ocr_ray.ops.joins import hash_join, skew_hash_join

    rng = np.random.default_rng(23)
    # zipf-ish skew: key 0 is 30x hotter than the rest
    k = np.concatenate(
        [np.zeros(3000, dtype="int64"), rng.integers(1, 100, 2000)]
    )
    left = pd.DataFrame({"k": k, "lv": np.arange(len(k), dtype="int64")})
    right = pd.DataFrame(
        {"rk": np.arange(0, 120, dtype="int64"), "rv": np.arange(120, dtype="int64")}
    )
    lds = rd.from_pandas(left).repartition(6)
    rds = rd.from_pandas(right).repartition(3)

    def norm(df, cols):
        return (
            df[cols].sort_values(cols).reset_index(drop=True)
        )

    want = norm(left.merge(right, left_on="k", right_on="rk"), ["k", "lv", "rv"])
    got = norm(
        skew_hash_join(lds, rds, "k", "rk", num_salts=4, hot_threshold=100)
        .to_pandas(),
        ["k", "lv", "rv"],
    )
    pd.testing.assert_frame_equal(got, want)

    # left outer: right restricted to even keys; odd-key rows keep NaN
    reven = rd.from_pandas(right[right["rk"] % 2 == 0]).repartition(2)
    got_l = hash_join(lds, reven, "k", "rk", how="left").to_pandas()
    want_l = left.merge(
        right[right["rk"] % 2 == 0], left_on="k", right_on="rk", how="left"
    )
    assert len(got_l) == len(want_l)
    assert got_l["rv"].isna().sum() == want_l["rv"].isna().sum()
    m = norm(got_l.dropna(subset=["rv"]), ["k", "lv"])
    wm = norm(want_l.dropna(subset=["rv"]), ["k", "lv"])
    pd.testing.assert_frame_equal(m, wm)


def test_grouped_distinct_kmv_exact_and_estimate(ray_session):
    import ray.data as rd

    from valere_ocr_ray.ops.sketch import grouped_distinct_kmv

    rng = np.random.default_rng(31)
    df = pd.DataFrame(
        {
            "g": rng.choice(["a", "b", "c"], 20000),
            "v": rng.integers(0, 5000, 20000),
        }
    )
    ds = rd.from_pandas(df).repartition(8)

    # exact regime: k above every group's cardinality
    got = (
        grouped_distinct_kmv(ds, ["g"], "v", k=1 << 14)
        .to_pandas()
        .set_index("g")["distinct_est"]
    )
    want = df.groupby("g")["v"].nunique()
    for g in want.index:
        assert got[g] == want[g], (g, got[g], want[g])

    # estimate regime: k far below cardinality, error within KMV bounds
    got_e = (
        grouped_distinct_kmv(ds, ["g"], "v", k=256)
        .to_pandas()
        .set_index("g")["distinct_est"]
    )
    for g in want.index:
        assert abs(got_e[g] - want[g]) / want[g] < 0.2, (g, got_e[g], want[g])


def test_grouped_distinct_kmv_block_count_invariant(ray_session):
    """The per-key KMV merges after one keyed exchange: over ~1,000
    keys it gives the same estimates at 1, 8 and 13 input blocks (exact
    below k, the KMV estimate above), and its output is spread over
    the exchange's blocks instead of funnelled into one."""
    import ray.data as rd

    from valere_ocr_ray.ops.sketch import grouped_distinct_kmv

    rng = np.random.default_rng(43)
    df = pd.DataFrame(
        {"g": rng.integers(0, 1000, 30000), "v": rng.integers(0, 400, 30000)}
    )
    want = df.groupby("g")["v"].nunique()
    for k in (64, 8):
        outs = []
        for n_blocks in (1, 8, 13):
            ds = rd.from_pandas(np.array_split(df, n_blocks))
            out = grouped_distinct_kmv(ds, ["g"], "v", k=k).materialize()
            assert out.num_blocks() > 1, (k, n_blocks)
            outs.append(out.to_pandas().sort_values("g").reset_index(drop=True))
        for got in outs[1:]:
            pd.testing.assert_frame_equal(got, outs[0])
        assert outs[0]["g"].tolist() == want.index.tolist()
        if k == 64:  # every key has < 64 distinct values: exact
            assert outs[0]["distinct_est"].tolist() == want.tolist()


def test_tree_topk_matches_pandas(ray_session):
    """``tree_topk`` equals pandas ``sort_values(...).head(k)`` at 1, 7,
    9 and 65 blocks, for k below and above the row count."""
    import ray.data as rd

    from valere_ocr_ray.ops.combine import tree_topk

    rng = np.random.default_rng(41)
    df = pd.DataFrame({"a": rng.integers(0, 50, 650), "b": rng.permutation(650)})
    for n_blocks in (1, 7, 9, 65):
        ds = rd.from_pandas(np.array_split(df, n_blocks))
        for k in (10, 1000):
            got = tree_topk(ds, ["a", "b"], [False, True], k).to_pandas()
            want = df.sort_values(["a", "b"], ascending=[False, True]).head(k)
            pd.testing.assert_frame_equal(
                got.reset_index(drop=True), want.reset_index(drop=True)
            )


def test_global_merges_on_empty_input(ray_session):
    """Each op that merges through ``tree_reduce``, the per-key KMV or
    the keyed sum returns, on an input without rows, what it returned
    on the repartition trees it replaced — for an empty block with a
    schema and for the column-less blocks a filter leaves, lazy or
    materialized."""
    import ray
    import ray.data as rd

    from valere_ocr_ray.ops.bloom import bloom_bits, bloom_semi_join, build_bloom
    from valere_ocr_ray.ops.combine import tree_topk
    from valere_ocr_ray.ops.exchange import grouped_sum
    from valere_ocr_ray.ops.sketch import (
        column_quantiles_sketch,
        distinct_tokens_kmv,
        grouped_distinct_kmv,
        grouped_hll,
    )

    def empty(kind: str, **cols: str) -> rd.Dataset:
        if kind.startswith("columnless"):
            ds = rd.range(30, override_num_blocks=3).filter(lambda r: False)
            return ds.materialize() if kind.endswith("materialized") else ds
        return rd.from_pandas(
            pd.DataFrame({c: pd.Series([], dtype=t) for c, t in cols.items()})
        )

    left = pd.DataFrame({"k": np.arange(10), "x": np.arange(10) * 2})
    for kind in ("schema", "columnless", "columnless_materialized"):
        assert distinct_tokens_kmv(empty(kind, text="object"), k=64) == 0
        q = column_quantiles_sketch(empty(kind, x="float64"), "x", [0.5, 0.9])
        assert q["prob"].tolist() == [0.5, 0.9]
        assert q["quantile_est"].isna().all()
        regs = grouped_hll(empty(kind, u="int64"), "u")
        assert regs.dtype == np.int64 and regs.tolist() == [0] * 64
        summed = grouped_sum(empty(kind, k="int64", v="int64"), ["k"], ["v"])
        assert len(summed.to_pandas()) == 0
        g = grouped_distinct_kmv(empty(kind, g="object", v="int64"), ["g"], "v")
        g = g.to_pandas()
        assert len(g) == 0 and list(g.columns) == []
        t = tree_topk(empty(kind, a="int64", b="int64"), ["a", "b"], [False, True], 5)
        t = t.to_pandas()
        assert len(t) == 0 and list(t.columns) == []
        bloom = bloom_bits(
            ray.get(build_bloom(empty(kind, rk="int64"), ["rk"], num_bits=256)), 256
        )
        assert bloom.dtype == np.uint64 and bloom.tolist() == [0] * 4
        semi = bloom_semi_join(rd.from_pandas(left), empty(kind, rk="int64"), "k", "rk")
        assert len(semi.to_pandas()) == 0
        anti = bloom_semi_join(
            rd.from_pandas(left), empty(kind, rk="int64"), "k", "rk", anti=True
        ).to_pandas()
        anti = anti.sort_values("k").reset_index(drop=True)
        pd.testing.assert_frame_equal(anti, left)


def test_quantile_sketch_accuracy(ray_session):
    import ray.data as rd

    from valere_ocr_ray.ops.sketch import column_quantiles_sketch

    rng = np.random.default_rng(37)
    vals = rng.lognormal(3.0, 1.0, 50000)
    df = pd.DataFrame({"x": vals})
    ds = rd.from_pandas(df).repartition(10)

    probs = [0.5, 0.9, 0.99]
    out = column_quantiles_sketch(ds, "x", probs, q=512)
    exact = np.quantile(vals, probs)
    s = np.sort(vals)
    for p, est, ex in zip(probs, out["quantile_est"], exact):
        # grade on RANK error (the sketch's actual guarantee)
        rank = np.searchsorted(s, est) / len(s)
        assert abs(rank - p) < 0.01, (p, est, ex, rank)


def test_tag_contamination_planted(ray_session):
    import ray.data as rd

    from valere_ocr_ray.ops.decontam import tag_contamination, window_hashes

    bench = [
        "alpha beta gamma delta epsilon zeta eta theta",     # 8 tokens, 1 ngram
        "one two three four five six seven eight nine ten",  # 10 tokens, 3 ngrams
    ]
    docs = pd.DataFrame(
        {
            "doc_id": np.arange(6, dtype="int64"),
            "text": [
                "x y " + bench[0] + " z w",                  # hits probe 0
                "junk only nothing shared here at all ok",   # clean
                "pad " + bench[1],                           # hits probe 1
                bench[0] + " and " + bench[1],               # hits both
                "three four five six seven eight nine filler pad",  # sub-ngram of probe1? 8-gram "three..nine filler" no; "three four five six seven eight nine filler" not in probe — clean unless exact window matches
                "short doc",                                  # shorter than n
            ],
        }
    )
    ds = rd.from_pandas(docs).repartition(3)
    out = (
        tag_contamination(ds, bench)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(out["n_probes_hit"]) == [1, 0, 1, 2, 0, 0]
    assert list(out["contaminated"]) == [True, False, True, True, False, False]
    assert len(out) == len(docs)  # every row kept

    # order sensitivity: reversed n-gram must not match
    wh = window_hashes("a b c d e f g h".split(), 8)
    wh_rev = window_hashes("h g f e d c b a".split(), 8)
    assert wh[0] != wh_rev[0]


def test_shared_ngram_spans_planted(ray_session):
    import ray.data as rd

    from valere_ocr_ray.ops.dedup import shared_ngram_spans

    span = "q w e r t y u i"  # 8 tokens
    docs = pd.DataFrame(
        {
            "doc_id": np.arange(4, dtype="int64"),
            "text": [
                "a b " + span + " c d",
                span + " x y z",
                "nothing in common with the others at all here",
                "pad " + span + " more " + span,  # span twice in one doc
            ],
        }
    )
    ds = rd.from_pandas(docs).repartition(2)
    out = shared_ngram_spans(ds).to_pandas()
    # the planted span is in 3 distinct docs (doc 3 counts once)
    row = out[out["gram"] == span]
    assert len(row) == 1 and int(row["n_docs"].iloc[0]) == 3
    # every reported gram really is in >= 2 docs
    assert (out["n_docs"] >= 2).all()

    # hash mode (the wire-thrifty scale path) agrees on counts
    out_h = shared_ngram_spans(ds, emit_text=False).to_pandas()
    assert sorted(out_h["n_docs"]) == sorted(out["n_docs"])


def test_ranged_layout_prunes_and_matches(ray_session, tmp_path):
    import ray.data as rd

    from valere_ocr_ray.ops.ranged import (
        range_partitions_for,
        read_range,
        write_ranged,
    )

    rng = np.random.default_rng(41)
    df = pd.DataFrame(
        {
            "ts_v": rng.uniform(0, 1000, 20000),
            "payload": np.arange(20000, dtype="int64"),
        }
    )
    out = str(tmp_path / "ranged")
    bounds = write_ranged(
        rd.from_pandas(df).repartition(8), out, "ts_v", n_partitions=10
    )
    assert len(bounds) == 9

    lo, hi = 100.0, 220.0
    got = read_range(out, lo, hi).to_pandas()
    want = df[(df["ts_v"] >= lo) & (df["ts_v"] < hi)]
    assert sorted(got["payload"]) == sorted(want["payload"])

    # pruning: a ~12% window must open a strict minority of partitions
    dirs, _ = range_partitions_for(out, lo, hi)
    assert 0 < len(dirs) <= 4

    # unbounded read returns everything
    assert read_range(out).count() == len(df)


def test_segment_dedup_planted(ray_session):
    import ray.data as rd

    from valere_ocr_ray.ops.segdedup import (
        segment_dedup_rebuild,
        segment_dedup_stats,
    )

    # doc 0: 2 segments (a, b); doc 1 repeats segment a then adds c;
    # doc 2 is an exact copy of doc 0 (loses everything)
    seg_a = " ".join(f"a{i}" for i in range(10))
    seg_b = " ".join(f"b{i}" for i in range(10))
    seg_c = " ".join(f"c{i}" for i in range(10))
    df = pd.DataFrame(
        {
            "doc_id": [0, 1, 2],
            "text": [
                seg_a + " " + seg_b,
                seg_a + " " + seg_c,
                seg_a + " " + seg_b,
            ],
        }
    )
    ds = rd.from_pandas(df).repartition(3)

    stats = (
        segment_dedup_stats(ds, window=10)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert stats["n_segs"].tolist() == [2, 2, 2]
    assert stats["n_kept"].tolist() == [2, 1, 0]
    assert stats["kept_tokens"].tolist() == [20, 10, 0]

    # exact mode agrees with the hash-wire mode
    stats_e = (
        segment_dedup_stats(ds, window=10, exact=True)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(stats, stats_e)

    # rebuild: survivors re-joined in original order; fully-duplicated
    # doc comes back empty, not dropped — and the hash-wire and
    # exact-wire paths agree byte-for-byte
    for wire in ("hash", "exact"):
        reb = (
            segment_dedup_rebuild(ds, wire=wire)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert reb["clean_text"].tolist() == [
            seg_a + " " + seg_b,
            seg_c,
            "",
        ], wire
        assert reb["n_kept"].tolist() == [2, 1, 0], wire


def test_segment_dedup_short_tail():
    from valere_ocr_ray.ops.segdedup import _segment_rows

    # 13 tokens at window 5 -> segments of 5, 5, 3
    df = pd.DataFrame({"doc_id": [7], "text": [" ".join(map(str, range(13)))]})
    out = _segment_rows(df, "doc_id", "text", 5).sort_values("seg_idx")
    assert out["n_toks"].tolist() == [5, 5, 3]
    assert out["seg"].tolist()[2] == "10 11 12"


def test_segment_dedup_exact_wire_keeps_nul_segments(ray_session):
    """Segments that differ only after a NUL are distinct: the exact
    wire keeps both (one exchange partition holds them, since string
    keys are placed by their NUL prefix), a true duplicate is still
    dropped, and the exact and hash wires agree."""
    import ray.data as rd

    from valere_ocr_ray.ops.segdedup import segment_dedup_rebuild

    texts = ["x\x00y", "x\x00z", "x\x00y", "x"]
    df = pd.DataFrame({"doc_id": np.arange(4, dtype="int64"), "text": texts})
    ds = rd.from_pandas(df).repartition(2)
    got = {
        wire: segment_dedup_rebuild(ds, wire=wire)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
        for wire in ("exact", "hash")
    }
    assert got["exact"]["clean_text"].tolist() == ["x\x00y", "x\x00z", "", "x"]
    assert got["exact"]["n_kept"].tolist() == [1, 1, 0, 1]
    pd.testing.assert_frame_equal(got["exact"], got["hash"])


def test_segment_dedup_rebuild_on_empty_materialized_input(ray_session):
    """An all-empty materialized corpus (1 or 3 empty blocks) rebuilds to
    0 rows with the output columns on both wires, the int columns typed."""
    import pyarrow as pa
    import ray.data as rd

    from valere_ocr_ray.ops.segdedup import segment_dedup_rebuild

    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())}
    )
    for n_blocks in (1, 3):
        ds = rd.from_arrow([empty] * n_blocks)
        assert ds.num_blocks() == n_blocks
        for wire in ("exact", "hash"):
            got = segment_dedup_rebuild(ds, wire=wire)
            assert got.count() == 0, (n_blocks, wire)
            names = got.schema().names if got.schema() else []
            assert sorted(names) == ["clean_text", "doc_id", "n_kept"], (n_blocks, wire)
            types = dict(zip(names, got.schema().types))
            assert types["doc_id"] == types["n_kept"] == pa.int64(), (n_blocks, wire)


def test_pack_sequences_semantics(ray_session):
    import ray.data as rd

    from valere_ocr_ray.ops.packing import pack_sequences, pack_stats

    # single shard (n_shards=1), budget 10: docs of 4,4,4 tokens ->
    # starts 0,4,8 -> seq 0,0,0; next doc of 5 starts at 12 -> seq 1
    df = pd.DataFrame(
        {
            "doc_id": [0, 1, 2, 3],
            "text": [
                "a b c d",
                "e f g h",
                "i j k l",
                "m n o p q",
            ],
        }
    )
    ds = rd.from_pandas(df).repartition(2)
    packed = (
        pack_sequences(ds, budget=10, n_shards=1)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert packed["start_off"].tolist() == [0, 4, 8, 12]
    assert packed["seq_id"].tolist() == [0, 0, 0, 1]

    stats = (
        pack_stats(ds, budget=10, n_shards=1)
        .to_pandas()
        .sort_values("seq_id")
        .reset_index(drop=True)
    )
    assert stats["n_docs"].tolist() == [3, 1]
    assert stats["sum_tokens"].tolist() == [12, 5]

    # sharding: doc_id % 2 splits 0,2 / 1,3 and packs independently
    packed2 = (
        pack_sequences(ds, budget=10, n_shards=2)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert packed2["shard"].tolist() == [0, 1, 0, 1]
    assert packed2["start_off"].tolist() == [0, 0, 4, 4]


def test_kmeans_fit_matches_local_reference(ray_session):
    import ray.data as rd

    from valere_ocr_ray.ops.similarity import kmeans_fit

    rng = np.random.default_rng(7)
    k, d, n = 4, 8, 400
    mat = rng.normal(size=(n, d))
    df = pd.DataFrame(
        {"vec_id": np.arange(n, dtype="int64"), "embedding": list(mat)}
    )
    ds = rd.from_pandas(df).repartition(5)
    cent, stats = kmeans_fit(ds, k, iters=4)

    # local reference: identical algorithm, single process
    c = mat[:k].astype(np.float64).copy()
    for _ in range(4):
        d2 = ((mat[:, None, :] - c[None]) ** 2).sum(-1)
        a = d2.argmin(1)
        sizes = np.bincount(a, minlength=k)
        inertia = np.zeros(k)
        np.add.at(inertia, a, d2[np.arange(n), a])
        for j in range(k):
            if sizes[j]:
                c[j] = mat[a == j].mean(0)

    assert np.allclose(cent, c, rtol=1e-8, atol=1e-10)
    got = stats.sort_values("cluster")
    assert got["n"].tolist() == sizes.tolist()
    assert np.allclose(got["inertia"].to_numpy(), inertia, rtol=1e-8)


def test_build_postings_and_conjunctive(ray_session):
    import ray.data as rd

    from valere_ocr_ray.ops.invindex import build_postings, conjunctive_search

    df = pd.DataFrame(
        {
            "doc_id": [0, 1, 2, 3],
            "text": [
                "spark window spark",   # repeats must not inflate df
                "window table",
                "spark table window",
                "table",
            ],
        }
    )
    ds = rd.from_pandas(df).repartition(2)
    post = build_postings(ds).to_pandas().set_index("token")
    assert post.loc["spark", "df"] == 2
    assert sorted(post.loc["spark", "doc_ids"]) == [0, 2]
    assert post.loc["window", "df"] == 3
    assert not post["truncated"].any()

    # cap: df stays true, list truncates, flag set
    capped = build_postings(ds, max_postings=1).to_pandas().set_index("token")
    assert capped.loc["window", "df"] == 3
    assert len(capped.loc["window", "doc_ids"]) == 1
    assert bool(capped.loc["window", "truncated"])

    hits = conjunctive_search(ds, ["spark", "window"]).to_pandas()
    assert sorted(hits["doc_id"]) == [0, 2]


def test_incremental_state_matches_full_recompute(ray_session, tmp_path):
    import ray.data as rd

    from valere_ocr_ray.ops.incremental import (
        read_state,
        update_keyed_state,
    )

    rng = np.random.default_rng(3)
    full = pd.DataFrame(
        {
            "k": rng.integers(0, 50, 3000),
            "v": rng.integers(0, 100, 3000).astype("int64"),
        }
    )
    a, b = full.iloc[:2000], full.iloc[2000:]
    state = str(tmp_path / "state")

    s1 = update_keyed_state(state, rd.from_pandas(a).repartition(4), ["k"], ["v"])
    assert s1["version"] == 1
    s2 = update_keyed_state(state, rd.from_pandas(b).repartition(4), ["k"], ["v"])
    assert s2["version"] == 2

    got = read_state(state).to_pandas().sort_values("k").reset_index(drop=True)
    want = full.groupby("k", as_index=False)["v"].sum().sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got.astype({"k": "int64", "v": "int64"}), want.astype({"k": "int64", "v": "int64"})
    )

    # a shard touching a subset of keys only rewrites its buckets
    c = pd.DataFrame({"k": [0, 1], "v": [5, 7]})
    s3 = update_keyed_state(state, rd.from_pandas(c), ["k"], ["v"])
    assert s3["n_buckets_updated"] <= 2
    got3 = read_state(state).to_pandas()
    assert int(got3.loc[got3["k"] == 0, "v"].iloc[0]) == int(
        want.loc[want["k"] == 0, "v"].iloc[0]
    ) + 5

    # schema mismatch is refused
    import pytest as _pytest

    with _pytest.raises(ValueError):
        update_keyed_state(state, rd.from_pandas(c), ["k"], ["other"])


def test_dedup_against_state(ray_session, tmp_path):
    """First-occurrence-wins across ordered shards; in-shard dups keep
    min id; replaying a shard (crash-retry) yields zero novel rows; a
    shard with no novel keys rewrites no bucket."""
    import ray.data as rd

    from valere_ocr_ray.ops.incremental import dedup_against_state, read_state

    state = str(tmp_path / "dstate")
    s0 = pd.DataFrame(
        {"doc_id": [3, 1, 2, 4], "h": ["a", "a", "b", "c"], "x": [30, 10, 20, 40]}
    )
    novel, info = dedup_against_state(
        state, rd.from_pandas(s0).repartition(2), key_col="h", id_col="doc_id",
        num_buckets=4,
    )
    got = novel.to_pandas().sort_values("h").reset_index(drop=True)
    # in-shard dup on 'a' keeps min doc_id=1
    assert got["doc_id"].tolist() == [1, 2, 4] and info["n_novel"] == 3

    s1 = pd.DataFrame({"doc_id": [5, 6], "h": ["b", "d"], "x": [50, 60]})
    novel1, info1 = dedup_against_state(
        state, rd.from_pandas(s1), key_col="h", id_col="doc_id"
    )
    assert novel1.to_pandas()["h"].tolist() == ["d"]  # 'b' seen in shard 0

    # replay of shard 1 (crash-retry shape): everything is a dup now,
    # and no bucket advances
    novel2, info2 = dedup_against_state(
        state, rd.from_pandas(s1), key_col="h", id_col="doc_id"
    )
    assert info2["n_novel"] == 0 and info2["n_buckets_updated"] == 0

    # accumulated key state is exactly the distinct keys in arrival set
    keys = sorted(read_state(state).to_pandas()["h"])
    assert keys == ["a", "b", "c", "d"]

    # key-column mismatch is refused
    import pytest as _pytest

    with _pytest.raises(ValueError):
        dedup_against_state(state, rd.from_pandas(s1), key_col="x", id_col="doc_id")


def test_lsh_dedup_against_state(ray_session, tmp_path):
    """Arriving shards near-dup-filter against persisted MinHash band
    state: a MUTATED revisit (one token changed) is still caught, a
    genuinely new doc passes, in-shard near-dups keep the min id, and
    a replayed shard is fully dup (crash-retry idempotent)."""
    import ray.data as rd

    from valere_ocr_ray.ops.incremental import lsh_dedup_against_state

    base = (
        "alpha beta gamma delta epsilon zeta eta theta iota kappa "
        "lambda mu nu xi omicron pi rho sigma tau upsilon"
    )
    other = (
        "uno dos tres cuatro cinco seis siete ocho nueve diez "
        "once doce trece catorce quince dieciseis"
    )
    third = (
        "red orange yellow green blue indigo violet cyan magenta "
        "black white gray silver gold bronze copper"
    )
    state = str(tmp_path / "lstate")

    s0 = pd.DataFrame(
        {
            "doc_id": [2, 1, 5],
            # 1 and 2 are near-dups (one token differs): min id 1 wins
            "text": [base.replace("kappa", "kappa2"), base, other],
        }
    )
    novel0, info0 = lsh_dedup_against_state(
        state, rd.from_pandas(s0).repartition(2), num_buckets=4
    )
    g0 = novel0.to_pandas().sort_values("doc_id")
    assert g0["doc_id"].tolist() == [1, 5] and info0["n_novel"] == 2

    s1 = pd.DataFrame(
        {
            "doc_id": [10, 11],
            # 10 is a mutated revisit of doc 1's page; 11 is new
            "text": [base.replace("sigma", "sigma9"), third],
        }
    )
    novel1, info1 = lsh_dedup_against_state(state, rd.from_pandas(s1))
    assert novel1.to_pandas()["doc_id"].tolist() == [11]

    # replay of shard 1: everything dup, no bucket advances
    novel2, info2 = lsh_dedup_against_state(state, rd.from_pandas(s1))
    assert info2["n_novel"] == 0 and info2["n_buckets_updated"] == 0

    # param mismatch is refused
    import pytest as _pytest

    with _pytest.raises(ValueError):
        lsh_dedup_against_state(state, rd.from_pandas(s1), num_perm=32)

    # custom column names round-trip
    s2 = pd.DataFrame({"page_id": [20], "body": ["completely fresh words here"]})
    novel3, _ = lsh_dedup_against_state(
        state, rd.from_pandas(s2), id_col="page_id", text_col="body"
    )
    assert set(novel3.to_pandas().columns) == {"page_id", "body"}


def test_doc_incremental_near_dedup_query(ray_session):
    from valere_ocr_ray.pipelines import queries as q

    out = q.doc_incremental_near_dedup(SF)
    assert (out["n_novel_near"] <= out["n_novel_exact"]).all()
    # the mutated-revisit plants are caught by the near leg only:
    # later shards must show a strict gap
    assert (out["n_novel_exact"] - out["n_novel_near"]).sum() > 0
    assert out["shard"].tolist() == [0, 1, 2, 3]
    assert (out["n_novel_exact"] <= out["n_rows_in"]).all()


def test_segment_dedup_properties_random(ray_session):
    """Property check on a randomized corpus: stats bookkeeping is
    internally consistent and matches a single-process reference."""
    import ray.data as rd

    from valere_ocr_ray.ops.segdedup import segment_dedup_stats

    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(12)]
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(1, 40)))
        for _ in range(120)
    ]
    df = pd.DataFrame({"doc_id": np.arange(120, dtype="int64"), "text": texts})
    W = 4
    got = (
        segment_dedup_stats(rd.from_pandas(df).repartition(6), window=W)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )

    # reference: global keep-first in (doc_id, seg_idx) order
    seen: set = set()
    ref = []
    for i, t in zip(df["doc_id"], df["text"]):
        toks = t.split(" ")
        n_segs = n_kept = kept_tokens = 0
        for s in range(0, len(toks), W):
            seg = " ".join(toks[s : s + W])
            n_segs += 1
            if seg not in seen:
                seen.add(seg)
                n_kept += 1
                kept_tokens += len(toks[s : s + W])
        ref.append((int(i), n_segs, n_kept, kept_tokens))
    ref_df = pd.DataFrame(
        ref, columns=["doc_id", "n_segs", "n_kept", "kept_tokens"]
    )
    pd.testing.assert_frame_equal(
        got.astype("int64"), ref_df.astype("int64")
    )


def test_emb_quantize_recall_reasonable(ray_session):
    import sys

    sys.path.insert(0, "/root/repo")
    from valere_ocr_ray.pipelines.queries import emb_quantize_recall

    out = emb_quantize_recall("/root/testdata/sf0.001")
    assert out["k"].iloc[0] == 10
    # 64-dim int8 symmetric quantization preserves cosine order well
    assert out["n_overlap"].iloc[0] >= 7


def test_linear_probe_learns(ray_session):
    import ray.data as rd

    from valere_ocr_ray.ops.linear import linear_probe_fit

    # separable synthetic: class mean shifted along distinct axes
    rng = np.random.default_rng(5)
    k, d, n = 4, 16, 600
    y = rng.integers(0, k, n)
    x = rng.normal(scale=0.3, size=(n, d))
    for c in range(k):
        x[y == c, c] += 2.0
    df = pd.DataFrame({"embedding": list(x), "label": y.astype("int64")})
    ds = rd.from_pandas(df).repartition(5)

    W, hist = linear_probe_fit(ds, k, epochs=10, lr=2.0)
    assert W.shape == (k, d + 1)
    # loss decreases and accuracy far exceeds the 1/k baseline
    assert hist["loss"].iloc[-1] < hist["loss"].iloc[0]
    assert hist["accuracy"].iloc[-1] > 0.9

    # matches a single-process reference implementation exactly in
    # structure (same algorithm, same epochs) to ~float-combine noise
    Wr = np.zeros((k, d + 1))
    xb = np.hstack([x, np.ones((n, 1))])
    for _ in range(10):
        logits = xb @ Wr.T
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits); p /= p.sum(axis=1, keepdims=True)
        delta = p.copy(); delta[np.arange(n), y] -= 1.0
        Wr = Wr - 2.0 * (delta.T @ xb) / n
    assert np.allclose(W, Wr, rtol=1e-8, atol=1e-10)


def test_hash_join_full_outer(ray_session):
    import ray.data as rd

    from valere_ocr_ray.ops.joins import hash_join

    l = pd.DataFrame({"k": [1, 2, 3], "lv": [10, 20, 30]})
    r = pd.DataFrame({"rk": [2, 3, 4, 4], "rv": [200, 300, 400, 401]})
    out = hash_join(
        rd.from_pandas(l).repartition(2),
        rd.from_pandas(r).repartition(2),
        "k",
        "rk",
        how="outer",
    ).to_pandas()
    want = l.merge(r, left_on="k", right_on="rk", how="outer")
    assert len(out) == len(want) == 5
    # unmatched sides carry NaN
    assert out.loc[out["rk"].isna(), "lv"].tolist() == [10]
    assert sorted(out.loc[out["k"].isna(), "rv"].tolist()) == [400, 401]


def test_emb_pca_matches_numpy_cov(ray_session):
    import sys

    sys.path.insert(0, "/root/repo")
    import pyarrow.parquet as pq

    from valere_ocr_ray.pipelines.queries import emb_pca_evr

    out = emb_pca_evr("/root/testdata/sf0.001")
    t = pq.read_table("/root/testdata/sf0.001/embeddings.parquet")
    mat = np.stack(t.column("embedding").to_pylist()).astype(np.float64)
    cov = np.cov(mat, rowvar=False)
    evals = np.linalg.eigvalsh(cov)[::-1]
    want = np.floor(evals / evals.sum() * 1_000_000).astype("int64")[:8]
    assert out["evr_e6"].tolist() == want.tolist()


def test_wav_decode_roundtrip_and_feature():
    from valere_ocr_ray.extract.wav_decode import (
        WavFormatError,
        audio_feature,
        decode_wav,
        encode_wav,
        sniff_wav,
    )

    rate = 8000
    t = np.arange(1600, dtype=np.float32) / rate
    wave = 0.5 * np.sin(2 * np.pi * 220.0 * t)
    payload = sniff = encode_wav(wave, rate)
    assert sniff_wav(sniff)
    out, r = decode_wav(payload)
    assert r == rate and len(out) == 1600
    # int16 truncation + the 32767-encode/32768-decode scale → ≤1e-4
    assert np.allclose(out, wave, atol=1e-4)

    f = audio_feature(out, r, 32)
    assert f.shape == (32,)
    assert abs(f[0] - 0.2) < 1e-6  # duration: 1600/8000 s
    assert abs(f[1] - 0.5 / np.sqrt(2)) < 0.01  # sine rms

    import pytest as _pytest

    with _pytest.raises(WavFormatError):
        decode_wav(b"RIFFxxxxWAVE" + b"\x00" * 8)


def test_media_audio_real_decode(ray_session):
    import ray.data as rd

    from valere_ocr_ray.ops.multimodal import (
        extract_media_features,
        synth_media_table,
    )

    tbl = synth_media_table(60)
    out = extract_media_features(rd.from_arrow(tbl)).to_pandas()
    audio = out[out["media_type"] == "audio"]
    assert len(audio) > 0
    assert (audio["status"] == "ok").all()
    # real decode happened: sample counts and rates recorded
    assert (audio["decoded_h"] == 8000).all()
    assert (audio["decoded_w"] > 0).all()
    # first feature dim is the true duration in seconds
    for _, r in audio.head(5).iterrows():
        assert abs(r["feature"][0] - r["decoded_w"] / 8000.0) < 1e-5


def test_hash_join_randomized_vs_pandas(ray_session):
    """All join modes equal pandas merge on randomized keyed frames
    (dup keys on both sides, unmatched keys on both sides)."""
    import ray.data as rd

    from valere_ocr_ray.ops.joins import hash_join

    rng = np.random.default_rng(13)
    l = pd.DataFrame(
        {
            "k": rng.integers(0, 40, 300),
            "lv": rng.integers(0, 1000, 300).astype("int64"),
        }
    )
    r = pd.DataFrame(
        {
            "rk": rng.integers(20, 60, 200),
            "rv": rng.integers(0, 1000, 200).astype("int64"),
        }
    )
    lds = rd.from_pandas(l).repartition(5)
    rds = rd.from_pandas(r).repartition(3)
    for how in ("inner", "left", "outer"):
        got = hash_join(lds, rds, "k", "rk", how=how).to_pandas()
        want = l.merge(r, left_on="k", right_on="rk", how=how)
        assert len(got) == len(want), how
        cols = ["k", "lv", "rk", "rv"]
        g = got[cols].sort_values(cols).reset_index(drop=True)
        w = want[cols].sort_values(cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(g, w, check_dtype=False, obj=how)


def test_ranged_layout_randomized_ranges(ray_session, tmp_path):
    """Property check: for random query ranges, pruned reads return
    exactly the filter-equivalent row set (boundaries inclusive-lo /
    exclusive-hi), including empty and full-cover ranges."""
    import ray.data as rd

    from valere_ocr_ray.ops.ranged import read_range, write_ranged

    rng = np.random.default_rng(19)
    df = pd.DataFrame(
        {
            "v": np.round(rng.uniform(-50, 50, 5000), 3),
            "rid": np.arange(5000, dtype="int64"),
        }
    )
    out = str(tmp_path / "rl")
    write_ranged(rd.from_pandas(df).repartition(6), out, "v", n_partitions=7)

    cases = [(-60.0, 60.0), (-50.0, -49.0), (0.0, 0.0), (10.5, 10.6)]
    cases += [tuple(sorted(rng.uniform(-55, 55, 2))) for _ in range(6)]
    for lo, hi in cases:
        got = read_range(out, lo, hi).to_pandas()
        want = df[(df["v"] >= lo) & (df["v"] < hi)]
        if len(want) == 0:
            assert len(got) == 0, (lo, hi)
            continue
        assert sorted(got["rid"]) == sorted(want["rid"]), (lo, hi)


def _line_strip_oracle(df: pd.DataFrame, id_col: str, min_docs: int):
    """pandas oracle for the line strip: distinct ids per non-blank
    line, every line held by ≥ ``min_docs`` ids drops, every row kept.
    Returns (frequent lines, expected frame sorted by id then text)."""
    lines = df.assign(line=df["text"].str.split("\n")).explode("line")
    lines = lines[lines["line"].str.strip() != ""]
    n_ids = lines.groupby("line")[id_col].nunique()
    freq = set(n_ids[n_ids >= min_docs].index)
    kept = [[ln for ln in t.split("\n") if ln not in freq] for t in df["text"]]
    want = pd.DataFrame(
        {
            id_col: df[id_col].to_numpy(),
            "text": ["\n".join(k) for k in kept],
            "n_dropped": np.asarray(
                [t.count("\n") + 1 - len(k) for t, k in zip(df["text"], kept)],
                dtype="int64",
            ),
        }
    )
    return freq, want.sort_values([id_col, "text"]).reset_index(drop=True)


def _line_strip(ds, id_col: str, min_docs: int = 5) -> pd.DataFrame:
    from valere_ocr_ray.ops.linededup import strip_repeated_lines_exchange

    got = strip_repeated_lines_exchange(ds, min_docs=min_docs, id_col=id_col)
    return got.to_pandas().sort_values([id_col, "text"]).reset_index(drop=True)


def test_line_dedup_variants_equal(ray_session):
    """The line strip matches a pandas oracle: frequent lines drop, rare
    and blank lines survive, every row comes back — for int ids, string
    ids, and an id shared by two rows (each row drops only its own
    frequent lines)."""
    import ray.data as rd

    docs = []
    for i in range(40):
        lines = [f"unique line {i} alpha", f"unique {i} beta"]
        if i % 2 == 0:
            lines.insert(0, "SUBSCRIBE NOW")
        if i % 3 == 0:
            lines.append("COPYRIGHT 2024")
        if i % 20 == 0:
            lines.append("RARE LINE")  # 2 docs < min_docs
        if i == 7:
            lines.insert(1, "")  # blank structural line
        docs.append({"doc_id": i, "text": "\n".join(lines)})
    df = pd.DataFrame(docs)
    freq, want = _line_strip_oracle(df, "doc_id", 5)
    assert freq == {"SUBSCRIBE NOW", "COPYRIGHT 2024"}
    a = _line_strip(rd.from_pandas(df), "doc_id")
    pd.testing.assert_frame_equal(a, want[a.columns])
    assert len(a) == 40  # no rows vanish
    assert a.loc[0, "text"] == "unique line 0 alpha\nunique 0 beta\nRARE LINE"
    assert int(a.loc[0, "n_dropped"]) == 2
    assert a.loc[7, "text"] == "unique line 7 alpha\n\nunique 7 beta"  # blank kept
    assert not a["text"].str.contains("SUBSCRIBE|COPYRIGHT", regex=True).any()
    # string ids (url-keyed corpora)
    sdocs = pd.DataFrame(
        [
            {"u": f"url{i}", "text": ("HDR\n" if i % 2 == 0 else "") + f"body {i}"}
            for i in range(20)
        ]
    )
    sfreq, swant = _line_strip_oracle(sdocs, "u", 5)
    assert sfreq == {"HDR"}
    sa = _line_strip(rd.from_pandas(sdocs), "u")
    pd.testing.assert_frame_equal(sa, swant[sa.columns])
    assert int(sa["n_dropped"].sum()) == 10
    # a repeated id: id 0's two rows sit in different blocks, and each
    # keeps its own body line
    rep = pd.DataFrame(
        {
            "doc_id": [0] + list(range(1, 10)) + [0],
            "text": ["keep me\nHDR"] + [f"HDR\nbody {i}" for i in range(1, 10)]
            + ["HDR\nkeep too"],
        }
    )
    rfreq, rwant = _line_strip_oracle(rep, "doc_id", 5)
    assert rfreq == {"HDR"}
    ra = _line_strip(rd.from_pandas([rep[:5], rep[5:]]), "doc_id")
    pd.testing.assert_frame_equal(ra, rwant[ra.columns])
    assert list(ra.loc[ra["doc_id"] == 0, "text"]) == ["keep me", "keep too"]
    assert list(ra.loc[ra["doc_id"] == 0, "n_dropped"]) == [1, 1]


def test_line_dedup_reads_input_once(ray_session, tmp_path):
    """Both passes of the line strip consume one materialized read: a
    probe upstream of the op sees every input row exactly once."""
    import uuid

    import ray.data as rd

    df = pd.DataFrame(
        {
            "doc_id": np.arange(60, dtype=np.int64),
            "text": [("HDR\n" if i % 2 else "") + f"body {i}" for i in range(60)],
        }
    )

    def probe(batch: pd.DataFrame) -> pd.DataFrame:
        (tmp_path / uuid.uuid4().hex).write_text(str(len(batch)))
        return batch

    ds = rd.from_pandas([df[:20], df[20:40], df[40:]]).map_batches(
        probe, batch_format="pandas"
    )
    out = _line_strip(ds, "doc_id")
    assert len(out) == 60 and int(out["n_dropped"].sum()) == 30
    assert sum(int(f.read_text()) for f in tmp_path.iterdir()) == 60


def test_text_classifier_learns_and_is_partition_invariant(ray_session):
    """Planted-signal corpus: hashed-feature logistic regression reaches
    ~perfect accuracy, and full-batch gradients make training invariant
    to the block layout (the property SGD would give up)."""
    import ray.data as rd

    from valere_ocr_ray.ops.textclf import (
        fit_text_classifier,
        score_text_classifier,
    )

    rng = np.random.default_rng(0)
    vocab = [f"tok{j}" for j in range(50)]
    rows = []
    for i in range(300):
        toks = list(rng.choice(vocab, 12))
        y = i % 2
        if y:
            toks.insert(i % 12, "spamword")
        rows.append({"doc_id": i, "text": " ".join(toks), "label": y})
    df = pd.DataFrame(rows)

    w1, hist = fit_text_classifier(rd.from_pandas(df), dim=128, epochs=8, lr=2.0)
    assert hist["accuracy"].iloc[-1] >= 0.97
    scored = score_text_classifier(rd.from_pandas(df), w1).to_pandas()
    acc = ((scored["p_class1"] > 0.5).astype(int) == scored["label"]).mean()
    assert acc >= 0.97

    w2, _ = fit_text_classifier(
        rd.from_pandas(df).repartition(7), dim=128, epochs=8, lr=2.0
    )
    assert np.allclose(w1, w2, atol=1e-8)


def test_dsir_weights_match_local_numpy_and_partitioning(ray_session):
    """dsir_weights equals a single-process numpy reference, and is
    invariant to the block layout (partials are algebraic)."""
    import ray.data as rd

    from valere_ocr_ray.ops.dsir import _TOKEN_RE, dsir_weights
    from valere_ocr_ray.ops.hashing import md5_lower

    rng = np.random.default_rng(7)
    vocab = ["alpha", "beta", "gamma", "delta", "target token"]
    rows = []
    for i in range(120):
        toks = list(rng.choice(vocab[:4], 8))
        src = "t" if i % 4 == 0 else "r"
        if src == "t":
            toks.append("targetword")
        rows.append({"doc_id": i, "source": src, "text": " ".join(toks)})
    df = pd.DataFrame(rows)
    K = 256

    # local reference
    def doc_gram_buckets(text):
        t = _TOKEN_RE.findall(text.lower())
        grams = t + [f"{a} {b}" for a, b in zip(t, t[1:])]
        return (md5_lower(grams) % np.uint64(K)).astype(np.int64)

    ct = np.zeros(K, np.int64)
    cr = np.zeros(K, np.int64)
    per_doc = {}
    for r in rows:
        b = doc_gram_buckets(r["text"])
        per_doc[r["doc_id"]] = b
        np.add.at(cr, b, 1)
        if r["source"] == "t":
            np.add.at(ct, b, 1)
    lr = np.log((ct + 1.0) / (ct.sum() + K)) - np.log((cr + 1.0) / (cr.sum() + K))
    lrs = np.floor(lr * 1_000_000).astype(np.int64)
    want = {
        d: (len(b), int(lrs[b].sum())) for d, b in per_doc.items() if len(b)
    }

    for nparts in (1, 5):
        ds = rd.from_pandas(df).repartition(nparts)
        got = dsir_weights(ds, target_source="t", k=K).to_pandas()
        got = got.sort_values("doc_id").reset_index(drop=True)
        assert len(got) == len(want)
        for _, row in got.iterrows():
            ng, ws = want[row["doc_id"]]
            assert row["n_grams"] == ng and row["weight_scaled"] == ws
    # target docs must score higher than raw-only docs on average
    t_ids = {r["doc_id"] for r in rows if r["source"] == "t"}
    mt = got[got["doc_id"].isin(t_ids)]["weight_scaled"].mean()
    mr = got[~got["doc_id"].isin(t_ids)]["weight_scaled"].mean()
    assert mt > mr


def test_cross_source_dupes_partition_invariant(ray_session):
    """The cross-source dedup kernel gives identical results at 1 vs 7
    partitions (the exchange co-locates each text hash), and the query
    over the driver corpus fires on real planted dupes."""
    import ray.data as rd

    from valere_ocr_ray.ops.exchange import hash_exchange
    from valere_ocr_ray.pipelines import queries as q

    # the query surface: planted dupes present, all multi-source
    df = (
        q.doc_cross_source_dupes("/root/testdata/sf0.001")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert len(df) > 0
    assert (df["n_sources"] > 1).all()

    # partition invariance of the same partial→exchange→combine kernel
    rng = np.random.default_rng(3)
    rows = pd.DataFrame(
        {
            "doc_id": np.arange(60, dtype=np.int64),
            "source": [f"s{i % 5}" for i in range(60)],
            "text": [f"shared {i % 9}" if i % 2 == 0 else f"uniq {i}" for i in range(60)],
        }
    )
    del rng

    def run(nparts: int) -> pd.DataFrame:
        ds = rd.from_pandas(rows).repartition(nparts)

        def partial(d: pd.DataFrame) -> pd.DataFrame:
            h = d["text"].astype(str).map(q._md5_hex_str)
            return (
                d.assign(text_hash=h)
                .groupby(["text_hash", "source"], as_index=False)
                .agg(doc_id=("doc_id", "min"), n=("doc_id", "size"))
            )

        def combine(d: pd.DataFrame) -> pd.DataFrame:
            per_src = d.groupby(["text_hash", "source"], as_index=False).agg(
                doc_id=("doc_id", "min"), n=("n", "sum")
            )
            out = per_src.groupby("text_hash", as_index=False).agg(
                doc_id=("doc_id", "min"),
                n_sources=("source", "nunique"),
                n_copies=("n", "sum"),
            )
            out = out[out["n_sources"] > 1]
            return out[["doc_id", "n_sources", "n_copies"]].astype("int64")

        ex = hash_exchange(ds.map_batches(partial, batch_format="pandas"), ["text_hash"], 4)
        got = ex.map_batches(combine, batch_format="pandas", batch_size=None).to_pandas()
        return got.sort_values("doc_id").reset_index(drop=True)

    a, b = run(1), run(7)
    pd.testing.assert_frame_equal(a, b)
    assert len(a) > 0


def test_knn_brute_force_tie_across_batch_boundary(ray_session):
    """Ties at the k-th slot must break on id under the rounded-score
    total order even when the tied rows live in different blocks: the
    batch-local selection uses the same (rounded desc, id asc) order as
    the global reduce, so the exact-cosine oracle's pick survives."""
    import ray.data as rd

    from valere_ocr_ray.ops.similarity import knn_brute_force

    q = np.zeros((1, 4), dtype=np.float64)
    q[0, 0] = 1.0
    rows = []
    # ids 0..9: exactly equal cosine (same direction, different scale);
    # ids 100..103: lower score fillers
    for i in range(10):
        rows.append({"vec_id": i, "embedding": [float(i + 1), 0.0, 0.0, 0.0]})
    for i in range(100, 104):
        rows.append({"vec_id": i, "embedding": [1.0, 1.0, 0.0, 0.0]})
    df = pd.DataFrame(rows)
    for nparts in (1, 7):
        got = knn_brute_force(
            rd.from_pandas(df).repartition(nparts), q, k=5
        )
        # all ten tied rows round to cosine 1.0 — the five SMALLEST ids win
        assert got["vec_id"].tolist() == [0, 1, 2, 3, 4], (nparts, got)


def test_cluster_labels_long_chain_pointer_jumping(ray_session):
    """Chains whose diameter exceeds the round cap converge within the
    default ``max_rounds``, in any id order.  Pointer jumping alone
    folds a chain fast only when ids rise along it: on permuted ids it
    needed hundreds of rounds and hit the cap.  The same holds for a
    chain of near-dup cliques, the shape near-dup clustering makes."""
    import ray.data as rd

    from valere_ocr_ray.ops.dedup import cluster_labels, connected_components

    def check(a, b, width=None):
        pairs = pd.DataFrame({"id_a": a, "id_b": b}).astype("int64")
        with exchange_width(width):
            got = cluster_labels(rd.from_pandas(pairs)).to_pandas()
        want = connected_components(list(zip(a.tolist(), b.tolist())))
        assert len(got) == len(want)
        assert dict(zip(got["doc_id"], got["cluster"])) == want

    n = 1000
    check(np.arange(n - 1), np.arange(1, n), width=4)
    ids = np.random.default_rng(3).permutation(n)
    check(ids[:-1], ids[1:])
    # 300 five-doc cliques, each linked to the next by one pair
    ids = np.random.default_rng(4).permutation(1500).reshape(300, 5)
    i, j = np.triu_indices(5, 1)
    a = np.concatenate([ids[:, i].ravel(), ids[:-1, 4]])
    b = np.concatenate([ids[:, j].ravel(), ids[1:, 0]])
    check(a, b)


def test_embedding_semdedup_survivors(ray_session):
    """SemDeDup drop rule: a row dies iff a smaller-id same-bucket row
    sits at cosine >= t.  Clones of vec 1 (ids 2, 5) die, the smallest
    clone id survives, unrelated vectors survive, and the exact local
    pairwise rule reproduces the distributed result."""
    import ray.data as rd

    from valere_ocr_ray.ops.dedup import embedding_semdedup

    rng = np.random.default_rng(11)
    base = rng.standard_normal(64).astype(np.float32)
    other = rng.standard_normal(64).astype(np.float32)
    rows = [
        {"vec_id": 1, "embedding": base.tolist()},
        {"vec_id": 2, "embedding": base.tolist()},          # clone of 1
        {"vec_id": 3, "embedding": other.tolist()},
        {"vec_id": 4, "embedding": rng.standard_normal(64).astype(np.float32).tolist()},
        {"vec_id": 5, "embedding": base.tolist()},          # clone of 1
    ]
    out = embedding_semdedup(rd.from_items(rows), dim=64, threshold=0.95).to_pandas()
    assert sorted(out["vec_id"]) == [1, 3, 4]


def test_embedding_semdedup_singletons_survive(ray_session):
    """Buckets of size one must still emit their row (a dedup that
    loses singletons is a filter, not a dedup)."""
    import ray.data as rd

    from valere_ocr_ray.ops.dedup import embedding_semdedup

    rng = np.random.default_rng(3)
    rows = [
        {"vec_id": i, "embedding": rng.standard_normal(64).astype(np.float32).tolist()}
        for i in range(40)
    ]
    out = embedding_semdedup(rd.from_items(rows), dim=64, threshold=0.99).to_pandas()
    assert sorted(out["vec_id"]) == list(range(40))


# -- domain mixing ------------------------------------------------------
def test_mix_by_rates_deterministic_and_monotone(ray_session):
    """Hash-threshold sampling: (a) re-running produces the identical
    sample, (b) raising a rate strictly grows the sample (threshold
    semantics), (c) rate 1.0 keeps everything, rate 0.0 / unlisted
    domains drop everything."""
    import ray.data as rd

    from valere_ocr_ray.ops.mixing import mix_by_rates

    df = pd.DataFrame(
        {
            "doc_id": np.arange(400, dtype=np.int64),
            "source": ["a", "b", "c", "d"] * 100,
        }
    )

    def ids(rates):
        out = mix_by_rates(
            rd.from_pandas(df), rates=rates, key_col="source", id_col="doc_id"
        ).to_pandas()
        return set(out["doc_id"].tolist()), out

    s1, out1 = ids({"a": 1.0, "b": 0.5, "c": 0.0})
    s2, _ = ids({"a": 1.0, "b": 0.5, "c": 0.0})
    assert s1 == s2
    kept_by_src = out1.groupby("source")["doc_id"].count().to_dict()
    assert kept_by_src.get("a") == 100          # rate 1.0: all rows
    assert 0 < kept_by_src.get("b", 0) < 100    # rate 0.5: proper subset
    assert "c" not in kept_by_src               # rate 0.0
    assert "d" not in kept_by_src               # unlisted -> default 0.0
    s_lo, _ = ids({"b": 0.25})
    s_hi, _ = ids({"b": 0.5})
    assert s_lo < s_hi                          # monotone under rate raise


def test_mix_by_rates_salt_independence(ray_session):
    """Different salts draw (near-)independent samples — the eval-split
    guarantee: a doc's membership under salt A says nothing about salt
    B, and the two 50% samples overlap at neither 0% nor 100%."""
    import ray.data as rd

    from valere_ocr_ray.ops.mixing import mix_by_rates

    df = pd.DataFrame(
        {"doc_id": np.arange(1000, dtype=np.int64), "source": ["a"] * 1000}
    )

    def sample(salt):
        out = mix_by_rates(
            rd.from_pandas(df), rates={"a": 0.5}, salt=salt
        ).to_pandas()
        return set(out["doc_id"].tolist())

    sa, sb = sample("train"), sample("eval")
    inter = len(sa & sb)
    assert 0 < inter < min(len(sa), len(sb))


def test_mix_by_token_budget_expected_tokens(ray_session):
    """Each domain's sampled token mass lands near the budget (hash
    thresholds are uniform), a domain under budget keeps everything,
    and thresholds use exact integer millionths (no float boundary)."""
    import ray.data as rd

    from valere_ocr_ray.ops.mixing import SCALE, mix_by_token_budget

    rng = np.random.default_rng(5)
    df = pd.DataFrame(
        {
            "doc_id": np.arange(2000, dtype=np.int64),
            "source": ["big"] * 1900 + ["tiny"] * 100,
            "n_tokens": np.full(2000, 50, dtype=np.int64),
        }
    )
    out = mix_by_token_budget(
        rd.from_pandas(df), budget_tokens=5000
    ).to_pandas()
    tiny = out[out["source"] == "tiny"]
    big = out[out["source"] == "big"]
    assert len(tiny) == 100  # 5000 tokens total == budget -> rate 1.0
    # big: 95k tokens, budget 5k -> rate 5000*SCALE//95000 / SCALE ~ 5.26%
    exp = 1900 * (5000 * SCALE // 95000) / SCALE
    assert abs(len(big) - exp) < 40
    # determinism
    out2 = mix_by_token_budget(rd.from_pandas(df), budget_tokens=5000).to_pandas()
    assert sorted(out2["doc_id"]) == sorted(out["doc_id"])


def test_mix_by_temperature_anchor_and_rates(ray_session):
    """alpha=0.5 flattening: the smallest positive-mass domain is kept
    whole, larger domains sample at floor(1e6*sqrt(m_min/m))/1e6, a
    zero-mass domain drops out entirely, and membership is
    deterministic across runs."""
    import math

    import ray.data as rd

    from valere_ocr_ray.ops.mixing import SCALE, mix_by_temperature

    df = pd.DataFrame(
        {
            "doc_id": np.arange(2100, dtype=np.int64),
            "source": ["big"] * 1600 + ["small"] * 400 + ["empty"] * 100,
            "n_tokens": np.r_[
                np.full(1600, 100, dtype=np.int64),  # mass 160k
                np.full(400, 25, dtype=np.int64),  # mass 10k (min)
                np.zeros(100, dtype=np.int64),  # mass 0
            ],
        }
    )
    out = mix_by_temperature(rd.from_pandas(df)).to_pandas()
    assert len(out[out["source"] == "small"]) == 400  # anchor: rate 1.0
    assert len(out[out["source"] == "empty"]) == 0
    big = out[out["source"] == "big"]
    rate = math.floor(SCALE * math.sqrt(10_000 / 160_000)) / SCALE  # 0.25
    assert abs(len(big) - 1600 * rate) < 60
    out2 = mix_by_temperature(rd.from_pandas(df)).to_pandas()
    assert sorted(out2["doc_id"]) == sorted(out["doc_id"])


def test_gopher_keep_matches_query_verdict(ray_session):
    """ops/textstats.gopher_keep (the curate --gopher gate) and the
    doc_gopher_filters query's keep column are the same rule: compare
    on the planted sf0.01 corpus where every sub-rule fires."""
    import ray.data as rd

    from valere_ocr_ray.ops.textstats import gopher_keep
    from valere_ocr_ray.pipelines.queries import (
        _plant_gopher,
        doc_gopher_filters,
    )

    docs = (
        rd.read_parquet(
            "/root/testdata/sf0.01/documents.parquet",
            columns=["doc_id", "text"],
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    mask = gopher_keep(_plant_gopher(docs))
    want = (
        doc_gopher_filters("/root/testdata/sf0.01")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert (want["keep"].to_numpy() == mask.astype(np.int64)).all()
    assert mask.any() and not mask.all()  # non-vacuous both ways


def test_mix_unimax_water_filling(ray_session):
    """UniMax allocation: small domains under the uniform share are
    kept whole (epoch cap 1), the surplus flows to the big domain,
    and the integer loop matches a hand-computed water-fill."""
    import ray.data as rd

    from valere_ocr_ray.ops.mixing import SCALE, mix_unimax

    df = pd.DataFrame(
        {
            "doc_id": np.arange(2600, dtype=np.int64),
            "source": ["big"] * 2000 + ["mid"] * 400 + ["tiny"] * 200,
            "n_tokens": np.r_[
                np.full(2000, 100, dtype=np.int64),  # mass 200k
                np.full(400, 50, dtype=np.int64),  # mass 20k
                np.full(200, 10, dtype=np.int64),  # mass 2k
            ],
        }
    )
    # budget = 222000 // 2 = 111000, ascending caps (2k, 20k, 200k):
    #   tiny: min(2000, 111000//3=37000) = 2000   -> rate 1.0
    #   mid:  min(20000, 109000//2=54500) = 20000 -> rate 1.0
    #   big:  min(200000, 89000//1) = 89000       -> 89000*1e6//200000
    out = mix_unimax(rd.from_pandas(df), budget_denom=2).to_pandas()
    assert len(out[out["source"] == "tiny"]) == 200
    assert len(out[out["source"] == "mid"]) == 400
    big = out[out["source"] == "big"]
    rate = (89_000 * SCALE // 200_000) / SCALE  # 0.445
    assert abs(len(big) - 2000 * rate) < 70
    out2 = mix_unimax(rd.from_pandas(df), budget_denom=2).to_pandas()
    assert sorted(out2["doc_id"]) == sorted(out["doc_id"])


def test_mix_null_domain_moves_no_threshold(ray_session):
    """A null ``key_col`` has no domain total: it moves no other
    domain's threshold (here it would be the smallest mass, so the
    temperature anchor) and its rows are never sampled — the same
    sample as the corpus without them, at 1 and 3 blocks."""
    import ray.data as rd

    from valere_ocr_ray.ops.mixing import (
        mix_by_temperature,
        mix_by_token_budget,
        mix_unimax,
    )

    rng = np.random.default_rng(47)
    n = 3000
    src = rng.choice(["a", "b", "c"], n).astype(object)
    src[rng.choice(n, 40, replace=False)] = None
    df = pd.DataFrame(
        {"doc_id": np.arange(n), "source": src, "n_tokens": rng.integers(1, 50, n)}
    )
    clean = df[df["source"].notna()].reset_index(drop=True)

    def sample(fn, frame: pd.DataFrame, n_blocks: int) -> pd.DataFrame:
        out = fn(rd.from_pandas(np.array_split(frame, n_blocks))).to_pandas()
        return out.sort_values("doc_id").reset_index(drop=True)

    for fn in (
        lambda ds: mix_by_token_budget(ds, budget_tokens=5000),
        mix_by_temperature,
        lambda ds: mix_unimax(ds, budget_denom=2),
    ):
        want = sample(fn, clean, 1)
        assert 0 < len(want) < len(clean)
        for n_blocks in (1, 3):
            pd.testing.assert_frame_equal(sample(fn, df, n_blocks), want)


def test_embedding_semdedup_partition_invariant(ray_session):
    """Survivors are a pure function of the corpus — any input
    partitioning produces the same set (the bucket exchange owns
    co-location, not the caller's block layout)."""
    import ray.data as rd

    from valere_ocr_ray.ops.dedup import embedding_semdedup

    rng = np.random.default_rng(19)
    emb = rng.standard_normal((60, 64)).astype(np.float32)
    emb[7] = emb[3]  # one planted clone pair
    emb[41] = emb[3]
    rows = [{"vec_id": i, "embedding": emb[i].tolist()} for i in range(60)]

    def survivors(ds):
        out = embedding_semdedup(ds, dim=64, threshold=0.95).to_pandas()
        return sorted(out["vec_id"].tolist())

    a = survivors(rd.from_items(rows))
    b = survivors(rd.from_items(rows).repartition(13))
    assert a == b
    assert 7 not in a and 41 not in a and 3 in a


def test_mix_membership_property_fuzz():
    """Property fuzz (no Ray): the vectorized membership kernel equals a
    per-id hashlib recompute for arbitrary ids/salts, and membership is
    monotone in the threshold (the basis of the rate-raise guarantee)."""
    import hashlib

    from hypothesis import given, settings
    from hypothesis import strategies as st

    from valere_ocr_ray.ops.hashing import md5_lower
    from valere_ocr_ray.ops.mixing import SCALE

    @settings(max_examples=50, deadline=None)
    @given(
        ids=st.lists(st.integers(min_value=-(10**12), max_value=10**12), min_size=1, max_size=40),
        salt=st.text(alphabet=st.characters(codec="ascii"), min_size=0, max_size=8),
        thr=st.integers(min_value=0, max_value=SCALE),
    )
    def check(ids, salt, thr):
        s = pd.Series(ids)
        h = md5_lower(salt + ":" + s.astype(str)) % SCALE
        expect = np.array(
            [
                int.from_bytes(
                    hashlib.md5(f"{salt}:{i}".encode()).digest()[8:16], "little"
                )
                % SCALE
                for i in ids
            ],
            dtype=np.uint64,
        )
        assert (h == expect).all()
        kept_lo = {i for i, v in zip(ids, h) if int(v) < thr}
        kept_hi = {i for i, v in zip(ids, h) if int(v) < min(thr + 1000, SCALE)}
        assert kept_lo <= kept_hi

    check()


# -- no-split FFD packing -------------------------------------------------
def test_pack_bins_ffd_invariants(ray_session):
    """Exactly-once assignment; no bin over budget except dedicated
    oversize bins; bin count within [lower bound, FFD 11/9·OPT+1];
    partition invariance."""
    import math

    import ray.data as rd

    from valere_ocr_ray.ops.packing import pack_bins_ffd

    rng = np.random.default_rng(23)
    df = pd.DataFrame(
        {
            "doc_id": np.arange(500, dtype=np.int64),
            "n_toks": rng.integers(10, 200, size=500).astype(np.int64),
        }
    )
    df.loc[7, "n_toks"] = 999  # oversize plant
    BUDGET = 256

    def run(ds):
        return (
            pack_bins_ffd(ds, budget=BUDGET, n_shards=4)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )

    out = run(rd.from_pandas(df))
    assert sorted(out["doc_id"]) == list(range(500))      # exactly once
    assert bool(out.loc[out["doc_id"] == 7, "oversize"].iloc[0])
    fills = out[~out["oversize"]].groupby(["shard", "bin_id"])["n_toks"].sum()
    assert (fills <= BUDGET).all()                        # capacity respected
    # per-shard: dedicated bins for oversize; shared bins never mix with them
    for shard, g in out.groupby("shard"):
        over_bins = set(g.loc[g["oversize"], "bin_id"])
        assert not (set(g.loc[~g["oversize"], "bin_id"]) & over_bins)
        normal = g[~g["oversize"]]
        n_bins = normal["bin_id"].nunique()
        lo = math.ceil(normal["n_toks"].sum() / BUDGET)
        assert lo <= n_bins <= math.ceil(11 / 9 * lo) + 1  # FFD bound
    # partition invariance
    out2 = run(rd.from_pandas(df).repartition(11))
    pd.testing.assert_frame_equal(out, out2)


def test_pack_bins_ffd_zero_token_never_joins_oversize_bin(ray_session):
    """A zero-token doc fits every bin (t=0) — it must still never land
    in a dedicated oversize bin (capacity -1, not 0).  Regression: caps
    of 0 let zero-token docs join oversize bins, breaking the
    'dedicated, never reused' contract."""
    import ray.data as rd

    from valere_ocr_ray.ops.packing import pack_bins_ffd

    df = pd.DataFrame(
        {
            # one shard (all ids ≡ 0 mod 4): oversize doc sorts first,
            # zero-token doc sorts last
            "doc_id": np.array([0, 4, 8], dtype=np.int64),
            "n_toks": np.array([999, 50, 0], dtype=np.int64),
        }
    )
    out = pack_bins_ffd(
        rd.from_pandas(df), budget=256, n_shards=4
    ).to_pandas()
    over_bins = set(out.loc[out["oversize"], "bin_id"])
    normal_bins = set(out.loc[~out["oversize"], "bin_id"])
    assert not (over_bins & normal_bins)
    zero_bin = int(out.loc[out["doc_id"] == 8, "bin_id"].iloc[0])
    assert zero_bin not in over_bins


def test_ffd_assign_property_fuzz():
    """Property fuzz (no Ray) over the shared FFD kernel: every doc
    assigned exactly once; non-oversize bins never exceed budget;
    oversize bins are singletons; start offsets are the within-bin
    running sum in placement order; bin ids are dense 0..n_bins-1."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from valere_ocr_ray.ops.packing import ffd_assign

    @settings(max_examples=80, deadline=None)
    @given(
        toks=st.lists(st.integers(min_value=0, max_value=400), min_size=1, max_size=120),
        budget=st.integers(min_value=1, max_value=300),
    )
    def check(toks, budget):
        arr = np.sort(np.asarray(toks, dtype=np.int64))[::-1]  # FFD order
        bin_of, off, oversize = ffd_assign(arr, budget)
        n_bins = bin_of.max() + 1
        assert set(bin_of) == set(range(n_bins))  # dense ids
        for b in range(n_bins):
            members = np.flatnonzero(bin_of == b)
            if oversize[members].any():
                assert len(members) == 1  # dedicated oversize bin
                assert off[members[0]] == 0
                continue
            assert arr[members].sum() <= budget
            # placement order == index order within a bin (FFD scans
            # docs in order); offsets are the exclusive running sum
            run = 0
            for m in members:
                assert off[m] == run
                run += arr[m]

    check()


def test_gopher_repetition_hand_values():
    """Hand-computed Rae App. A repetition signals on tiny docs pin
    every convention (dup units beyond first occurrence, space-free
    n-gram chars, lexicographic top tie-break, coverage no-double-
    count)."""
    import pandas as pd

    from valere_ocr_ray.ops.textstats import gopher_repetition_batch

    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [
                "aa bb\naa bb\ncc",                    # dup line
                "xx yy\n\nxx yy",                      # dup paragraph
                "w1 w2 w3 w4 w5 w1 w2 w3 w4 w5 tail",  # dup 5-gram
            ],
        }
    )
    out = gopher_repetition_batch(df).set_index("doc_id")
    # doc 1: 3 lines, 2 distinct -> 333; dup chars 5 of 12 -> 416;
    # top2 'aa bb' x2 -> 2*4 of wchars 10 -> 800; top3 tie breaks to
    # 'aa bb aa' (6 chars) -> 600
    r1 = out.loc[1]
    assert (
        r1["dup_line_per_mil"], r1["dup_line_char_per_mil"],
        r1["top2_char_per_mil"], r1["top3_char_per_mil"],
    ) == (333, 416, 800, 600)
    assert r1["dup_para_per_mil"] == 0 and r1["rep_keep"] == 0
    # doc 2: 2 paragraphs both 'xx yy' -> 500 / 500
    r2 = out.loc[2]
    assert (r2["dup_para_per_mil"], r2["dup_para_char_per_mil"]) == (500, 500)
    # doc 3: the 5-gram repeats -> covers 10 of 11 words, 20 of 24
    # chars -> 833; 6-grams are all unique -> 0
    r3 = out.loc[3]
    assert r3["dup5_char_per_mil"] == 833
    assert r3["dup6_char_per_mil"] == 0
    assert r3["dup_line_per_mil"] == 0


def test_gopher_repetition_keep_matches_query_verdict(ray_session):
    """ops/textstats.gopher_repetition_keep (the curate --gopher-rep
    gate) and the doc_gopher_repetition query's rep_keep column are the
    same rule on the planted sf0.01 corpus."""
    import ray.data as rd

    from valere_ocr_ray.ops.textstats import gopher_repetition_keep
    from valere_ocr_ray.pipelines.queries import (
        _plant_repetition,
        doc_gopher_repetition,
    )

    docs = (
        rd.read_parquet(
            "/root/testdata/sf0.01/documents.parquet",
            columns=["doc_id", "text"],
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    mask = gopher_repetition_keep(_plant_repetition(docs))
    want = (
        doc_gopher_repetition("/root/testdata/sf0.01")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert (want["rep_keep"].to_numpy() == mask.astype(np.int64)).all()
    assert mask.any() and not mask.all()  # non-vacuous both ways


def test_mix_unimax_epoch_repeats(ray_session):
    """epoch_cap > 1 doc-repeat semantics: a domain whose allocation is
    a non-integer number of epochs gets full repeats + a hash-threshold
    fractional epoch; expected tokens == allocation exactly."""
    import pandas as pd
    import ray.data as rd

    from valere_ocr_ray.ops.hashing import md5_lower
    from valere_ocr_ray.ops.mixing import SCALE, mix_unimax

    # small: 10 docs x 10 toks (mass 100); big: 80 docs x 10 (mass 800)
    df = pd.DataFrame(
        {
            "doc_id": range(90),
            "source": ["small"] * 10 + ["big"] * 80,
            "n_tokens": [10] * 90,
        }
    )
    # budget 450, cap 3 epochs: small (cap 300) takes min(300, 225)=225
    # = 2.25 epochs -> every small doc repeats 2x, 25% get a 3rd;
    # big takes min(2400, 225)=225 of mass 800 -> 0 full + 28.125% frac
    out = mix_unimax(
        rd.from_pandas(df), budget_tokens=450, epoch_cap=3, salt="um"
    ).to_pandas()
    small = out[out["source"] == "small"]
    big = out[out["source"] == "big"]
    assert len(small) == 10 and set(small["n_repeats"]) <= {2, 3}
    h = md5_lower("um:" + small["doc_id"].astype(str)) % SCALE
    frac_thr = (225 - 2 * 100) * SCALE // 100  # 250000
    assert (
        small["n_repeats"].to_numpy() == 2 + (h.astype("int64") < frac_thr)
    ).all()
    assert (big["n_repeats"] == 1).all()
    hb = md5_lower("um:" + big["doc_id"].astype(str)) % SCALE
    assert len(big) == int((hb.astype("int64") < 225 * SCALE // 800).sum())
    # determinism across partitionings
    out2 = mix_unimax(
        rd.from_pandas(df).repartition(7), budget_tokens=450, epoch_cap=3,
        salt="um",
    ).to_pandas()
    a = out.sort_values("doc_id").reset_index(drop=True)
    b = out2.sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b[a.columns])


def test_gopher_keep_ascii_pinned():
    """ADVICE r3 item 1: the gopher battery's \\s/\\b/strip semantics
    are ASCII-pinned to the RE2 oracle — NBSP is NOT whitespace, a
    non-ASCII letter IS a word boundary, on both engines."""
    import duckdb
    import pandas as pd

    from valere_ocr_ray.ops.textstats import gopher_keep

    nbsp_bullet = " - not a bullet under ASCII trim\nplain line"
    abutting = "théthe qué"  # 'the' bounded by non-ASCII letters
    texts = pd.Series([nbsp_bullet, abutting])

    # engine side: NBSP survives the ASCII strip -> line doesn't match
    # the bullet class; 'the' abutting 'é' still \b-matches under
    # re.ASCII (é is a non-word char there)
    import re

    assert not re.match(r"[-*•]", nbsp_bullet.split("\n")[0].strip(" \t\r\f\v"))
    assert re.search(r"\bthe\b", abutting, re.ASCII)

    # oracle side agrees on both judgements
    con = duckdb.connect()
    sql_bullet = con.execute(
        "SELECT regexp_matches(trim(?, ' ' || chr(9) || chr(13) || chr(12) "
        "|| chr(11)), '^[-*•]')",
        [nbsp_bullet.split("\n")[0]],
    ).fetchone()[0]
    assert sql_bullet is False
    sql_stop = con.execute(
        r"SELECT regexp_matches(?, '\bthe\b')", [abutting]
    ).fetchone()[0]
    assert sql_stop is True
    # and the composed verdict still runs clean over non-ASCII input
    assert gopher_keep(texts).shape == (2,)


# -- HyperLogLog --------------------------------------------------------
def test_hll_bit_length_exact():
    """_bit_length64 must be exact where float log/frexp is not: values
    just under a power of two above 2^53."""
    from valere_ocr_ray.ops.sketch import _bit_length64

    vals = np.array(
        [0, 1, 2, 3, (1 << 53) - 1, 1 << 53, (1 << 57) - 1, (1 << 56) + 12345, (1 << 57) - 7],
        dtype=np.int64,
    )
    got = _bit_length64(vals)
    expect = np.array([int(v).bit_length() for v in vals], dtype=np.int64)
    assert (got == expect).all()


def test_hll_partition_invariant_and_estimate(ray_session):
    """The register state is invariant to block structure (elementwise
    max is associative+commutative) and the estimator lands within ±2σ
    (σ = 1.04/√64) of the true distinct count."""
    import duckdb
    import ray.data as rd

    from valere_ocr_ray.ops.sketch import grouped_hll, hll_estimate

    ds = rd.read_parquet(f"{SF}/events.parquet").select_columns(["user_id"])
    a = grouped_hll(ds, "user_id")
    b = grouped_hll(ds.repartition(13), "user_id")
    assert (a == b).all()
    true = duckdb.sql(
        f"SELECT count(DISTINCT user_id) FROM read_parquet('{SF}/events.parquet')"
    ).fetchone()[0]
    est = hll_estimate(a)
    assert abs(est - true) <= max(2 * 1.04 / 8 * true, 2)


def test_bm25_semantics(ray_session):
    """BM25 ranking sanity beyond the oracle parity: scores strictly
    positive and descending, every ranked doc contains a query term,
    and the ranking is partition-count invariant."""
    import sys

    sys.path.insert(0, "/root/repo")
    import duckdb

    from valere_ocr_ray.pipelines.queries import doc_bm25_search

    out = doc_bm25_search(SF)
    assert len(out) == 20
    s = out["bm25_e6"].to_numpy()
    assert (s > 0).all() and (np.diff(s) <= 0).all()
    hits = duckdb.sql(
        f"""SELECT doc_id FROM read_parquet('{SF}/documents.parquet')
        WHERE len(list_filter(regexp_extract_all(lower(text), '[a-z]+'),
                  t -> t IN ('hash','window','vector','spark'))) > 0"""
    ).df()["doc_id"]
    assert set(out["doc_id"]) <= set(hits.astype(int))


def test_watermark_semantics(ray_session):
    """Late-data invariants beyond oracle parity: totals conserve the
    corpus (ontime + late == all events), some events ARE late under a
    time-disrespecting arrival permutation, shard-0 arrivals are never
    late, and the output is partition-count invariant."""
    import sys

    sys.path.insert(0, "/root/repo")
    import duckdb

    from valere_ocr_ray.pipelines.queries import events_watermark_hourly

    out = events_watermark_hourly(SF).to_pandas()
    n_all = duckdb.sql(
        f"SELECT count(*) FROM read_parquet('{SF}/events.parquet')"
    ).fetchone()[0]
    assert int(out["n_ontime"].sum() + out["n_late"].sum()) == n_all
    assert int(out["n_late"].sum()) > 0  # the permutation does produce lates
    assert int(out["n_ontime"].sum()) > int(out["n_late"].sum())
    # late events contribute no value
    assert (out.loc[out["n_ontime"] == 0, "sum_value_e2"] == 0).all()


def test_cluster_balanced_sample_twin_and_balance(ray_session):
    """The distributed cluster-balanced sample equals a single-process
    numpy replay (same kmeans, same md5 thresholds) AND each cluster's
    kept count is near the smallest cluster's size."""
    import hashlib
    import sys

    import ray.data as rd

    sys.path.insert(0, "/root/repo")
    from valere_ocr_ray.ops.similarity import kmeans_fit
    from valere_ocr_ray.pipelines.queries import emb_cluster_balanced_sample

    got = emb_cluster_balanced_sample(SF).to_pandas()

    ds = rd.read_parquet(f"{SF}/embeddings.parquet")
    centroids, stats = kmeans_fit(ds.select_columns(["vec_id", "embedding"]), 8, iters=5)
    df = ds.to_pandas().sort_values("vec_id")
    mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
    d2 = (
        (mat * mat).sum(1, keepdims=True)
        - 2.0 * (mat @ centroids.T)
        + (centroids * centroids).sum(1)[None, :]
    )
    cl = d2.argmin(1)
    counts = np.bincount(cl, minlength=8)
    target = counts[counts > 0].min()
    ids = df["vec_id"].to_numpy().astype("int64")
    keep = []
    for i, c in zip(ids, cl):
        h = int.from_bytes(
            hashlib.md5(f"cbal:{int(i)}".encode()).digest()[8:16], "little"
        )
        thr = int(round(min(1.0, target / counts[c]) * 1_000_000))
        if (h % 1_000_000) < thr:
            keep.append((int(i), int(c)))
    twin = sorted(keep)
    mine = sorted(zip(got["vec_id"].astype(int), got["cluster"].astype(int)))
    assert mine == twin
    # balance: each cluster's kept count within 4 sigma of the target rate
    kept_per = got.groupby("cluster").size()
    for c, n_kept in kept_per.items():
        n_c, p = counts[c], min(1.0, target / counts[c])
        sd = max((n_c * p * (1 - p)) ** 0.5, 1.0)
        assert abs(n_kept - n_c * p) <= 4 * sd + 1


def test_pq_persisted_and_ivfpq(ray_session, tmp_path):
    """Persisted PQ (VERDICT r4 item 5): searching the on-disk bucketed
    code layout value-matches the in-memory ADC path; IVF-PQ full-probe
    agrees too, and a 2-probe search opens a strict subset of the
    cluster files (the pruned 100 TB read)."""
    import ray.data as rd

    from valere_ocr_ray.ops.similarity import (
        ivfpq_build,
        pq_encode,
        pq_fit,
        pq_persist,
        pq_search,
        PqIndexOnDisk,
    )

    ds = rd.read_parquet(f"{SF}/embeddings.parquet")
    cb = pq_fit(ds, m=8, n_centroids=16)
    codes = pq_encode(ds, cb)
    q_df = ds.filter(expr="vec_id < 3").to_pandas().sort_values("vec_id")
    queries = np.stack(q_df["embedding"].to_numpy()).astype(np.float64)
    mem = pq_search(codes, cb, queries, k=10).sort_values(
        ["query_id", "vec_id"]
    ).reset_index(drop=True)

    idx = pq_persist(codes, cb, str(tmp_path / "pq"))
    # reopening from the path alone reconstructs the index (codebooks
    # + meta ride the sidecar, nothing lives in memory)
    reopened = PqIndexOnDisk(str(tmp_path / "pq"))
    disk = reopened.search(queries, k=10).sort_values(
        ["query_id", "vec_id"]
    ).reset_index(drop=True)
    pd.testing.assert_frame_equal(disk, mem)

    ivf = ivfpq_build(ds, str(tmp_path / "ivfpq"), n_clusters=4, m=8,
                      n_centroids=16)
    full = ivf.search(queries, k=10, n_probe=4).sort_values(
        ["query_id", "vec_id"]
    ).reset_index(drop=True)
    pd.testing.assert_frame_equal(full, mem)
    assert len(ivf.probe_files(queries, 1)) < len(ivf.probe_files(queries, 4))
    # rerank through the persisted index reaches exact top-k (the
    # coarse m=8/16 codebook needs a wider candidate pool than the
    # m=16/256 one emb_pq_recall uses at expand=5)
    ref = reopened.search_rerank(ds, queries, k=10, expand=20)
    from valere_ocr_ray.ops.similarity import knn_brute_force

    brute = knn_brute_force(ds, queries, k=10)
    for qi in range(3):
        assert set(ref[ref["query_id"] == qi]["vec_id"]) == set(
            brute[brute["query_id"] == qi]["vec_id"]
        )


def test_pq_fit_sample_capped(ray_session, monkeypatch):
    """pq_fit brings at most PQ_FIT_MAX_ROWS rows to the driver, even at
    sample_stride=1, and trains on the smallest ids of its sample: the
    codebooks equal pq_fit over exactly those rows."""
    import ray.data as rd

    from valere_ocr_ray.ops import similarity

    ds = rd.read_parquet(f"{SF}/embeddings.parquet")
    full = similarity.pq_fit(ds, m=8, n_centroids=16)
    cap = 100
    ids = sorted(ds.select_columns(["vec_id"]).to_pandas()["vec_id"])
    assert len(ids) > cap
    sizes = []
    real_to_pandas = rd.Dataset.to_pandas

    def to_pandas(self, *args, **kwargs):
        df = real_to_pandas(self, *args, **kwargs)
        sizes.append(len(df))
        return df

    monkeypatch.setattr(similarity, "PQ_FIT_MAX_ROWS", cap)
    monkeypatch.setattr(rd.Dataset, "to_pandas", to_pandas)
    got = similarity.pq_fit(ds, m=8, n_centroids=16)
    assert sizes and max(sizes) <= cap
    capped = ds.filter(expr=f"vec_id <= {ids[cap - 1]}")
    want = similarity.pq_fit(capped, m=8, n_centroids=16)
    assert np.array_equal(got, want)
    assert not np.array_equal(got, full)


def test_ivfpq_coarse_sample_bounded_on_driver(ray_session, tmp_path, monkeypatch):
    """ivfpq_build's coarse-quantizer sample brings at most sample_size
    rows to the driver, not the whole (id, vector) corpus, even at
    sample_stride=1.  pq_fit's own training sample has its own cap
    (PQ_FIT_MAX_ROWS), so its driver reads are not counted."""
    import ray.data as rd

    from valere_ocr_ray.ops import similarity

    sizes = []
    in_fit = [False]
    real_to_pandas = rd.Dataset.to_pandas
    real_pq_fit = similarity.pq_fit

    def to_pandas(self, *args, **kwargs):
        df = real_to_pandas(self, *args, **kwargs)
        if not in_fit[0]:
            sizes.append(len(df))
        return df

    def pq_fit(*args, **kwargs):
        in_fit[0] = True
        try:
            return real_pq_fit(*args, **kwargs)
        finally:
            in_fit[0] = False

    monkeypatch.setattr(rd.Dataset, "to_pandas", to_pandas)
    monkeypatch.setattr(similarity, "pq_fit", pq_fit)
    ds = rd.read_parquet(f"{SF}/embeddings.parquet")
    similarity.ivfpq_build(
        ds, str(tmp_path / "ivfpq"), n_clusters=4, m=8, n_centroids=16,
        sample_size=64,
    )
    assert sizes and max(sizes) <= 64 < ds.count()
