"""End-to-end Ray Data pipeline tests: golden byte-identity, resume,
partition invariance, dedup key behavior (SURVEY.md §5.2)."""

import glob
import json
import os
import shutil

import pyarrow.parquet as pq
import pytest

GOLDEN = os.path.join(os.path.dirname(__file__), "goldens", "golden_extracted.parquet")


@pytest.fixture(scope="module")
def extracted_out(ray_session, pages_500, tmp_path_factory):
    from valere_ocr_ray.pipelines.extract import run_resumable

    out = str(tmp_path_factory.mktemp("out") / "extracted")
    summary = run_resumable(pages_500, out, concurrency=2, group_size=2)
    return out, summary


def _read_sorted(out_dir):
    import pyarrow.dataset as pads

    # hive layout: part_id=…/doc_type=…/*.parquet ('_done'/'_quarantine'
    # are skipped by pyarrow's default '_'/'.' ignore prefixes)
    df = pads.dataset(out_dir, partitioning="hive").to_table().to_pandas()
    df["doc_type"] = df["doc_type"].astype(str)
    df["part_id"] = df["part_id"].astype(str)
    return df.sort_values("url").reset_index(drop=True)


def test_golden_byte_identity(extracted_out):
    """Every url's extracted_text / doc_type / fields_json / confidence /
    status byte-identical to the committed single-process goldens."""
    out_dir, _ = extracted_out
    got = _read_sorted(out_dir)
    want = pq.read_table(GOLDEN).to_pandas().sort_values("url").reset_index(drop=True)
    assert len(got) == len(want) == 500
    assert got["url"].tolist() == want["url"].tolist()
    for col in ["extracted_text", "doc_type", "fields_json", "status"]:
        mismatched = got[col].tolist() != want[col].tolist()
        if mismatched:
            bad = [
                (u, g, w)
                for u, g, w in zip(want["url"], got[col], want[col])
                if g != w
            ][:3]
            raise AssertionError(f"{col} mismatch, first 3: {bad}")
    assert got["confidence"].tolist() == want["confidence"].tolist()


def test_manifests_are_lineage_records(extracted_out):
    out_dir, summary = extracted_out
    from valere_ocr_ray.state.manifest import read_all_manifests

    manifests = read_all_manifests(out_dir)
    assert len(manifests) == summary["n_shards"]
    total = sum(m["n_in"] for m in manifests)
    assert total == 500
    for m in manifests:
        assert m["n_in"] == m["n_ok"] + m["n_error"] + m["n_skipped"]
        assert m["bytes_in"] > 0
        assert m["engine_version"]


def test_resume_skips_completed_partitions(ray_session, pages_500, tmp_path):
    from valere_ocr_ray.pipelines.extract import list_shards, run_resumable
    from valere_ocr_ray.state.manifest import done_manifest_path

    out = str(tmp_path / "out")
    shards = list_shards(pages_500)
    assert len(shards) >= 4

    # first run: only first group completes (simulated crash after group 0)
    s1 = run_resumable(pages_500, out, concurrency=2, group_size=2)
    assert s1["n_skipped_complete"] == 0

    # wipe one manifest + leave its partial data → must be cleared and redone
    victim = os.path.splitext(os.path.basename(shards[0]))[0]
    os.remove(done_manifest_path(out, victim))
    part_dir = os.path.join(out, f"part_id={victim}")
    with open(os.path.join(part_dir, "junk.parquet"), "w") as f:
        f.write("partial garbage")

    s2 = run_resumable(pages_500, out, concurrency=2, group_size=2)
    assert s2["n_skipped_complete"] == len(shards) - 1
    assert not os.path.exists(os.path.join(part_dir, "junk.parquet"))

    # third run: everything complete, no work
    s3 = run_resumable(pages_500, out, concurrency=2, group_size=2)
    assert s3["n_skipped_complete"] == len(shards)
    assert s3["groups"] == []


def test_partition_count_invariance(ray_session, tmp_path):
    """N=1 vs N=8 shards ⇒ identical url-sorted output bytes (guards the
    shuffle/partitioning machinery, SURVEY.md §5.2.4)."""
    from valere_ocr_ray.pipelines.extract import run_resumable
    from valere_ocr_ray.sources.synth import synth_pages

    a_in, b_in = str(tmp_path / "a_in"), str(tmp_path / "b_in")
    synth_pages(a_in, 120, n_shards=1)
    synth_pages(b_in, 120, n_shards=8)
    a_out, b_out = str(tmp_path / "a_out"), str(tmp_path / "b_out")
    run_resumable(a_in, a_out, concurrency=2)
    run_resumable(b_in, b_out, concurrency=2, group_size=3)
    a = _read_sorted(a_out)
    b = _read_sorted(b_out)
    for col in ["url", "extracted_text", "doc_type", "fields_json", "status"]:
        assert a[col].tolist() == b[col].tolist()


def test_rerun_is_idempotent_bytes(ray_session, pages_500, tmp_path):
    from valere_ocr_ray.pipelines.extract import run_resumable

    # actor-pool mode vs task-pool mode must produce identical bytes
    o1, o2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    run_resumable(pages_500, o1, concurrency=2)
    run_resumable(pages_500, o2)
    a, b = _read_sorted(o1), _read_sorted(o2)
    assert a["extracted_text"].tolist() == b["extracted_text"].tolist()
    assert a["fields_json"].tolist() == b["fields_json"].tolist()


def test_size_cap_routes_not_drops(ray_session, tmp_path):
    """Oversized rows surface as status='skipped_too_large' (F2 guard)."""
    from valere_ocr_ray.pipelines.extract import run_resumable
    from valere_ocr_ray.sources.synth import synth_pages

    d = str(tmp_path / "in")
    synth_pages(d, 60, n_shards=1)
    out = str(tmp_path / "out")
    # cap below the normal template size → most rows route to skipped
    run_resumable(d, out, concurrency=1, max_doc_bytes=400)
    df = _read_sorted(out)
    assert len(df) == 60
    skipped = df[df["status"] == "skipped_too_large"]
    assert len(skipped) > 0
    assert (skipped["extracted_text"] == "").all()


def test_spans_point_into_text(extracted_out):
    out_dir, _ = extracted_out
    df = _read_sorted(out_dir)
    ok = df[(df["status"] == "ok") & (df["doc_type"] == "INSURANCE_CARD")].head(20)
    checked = 0
    for _, row in ok.iterrows():
        for span in row["spans"]:
            if span["start"] >= 0:
                assert (
                    row["extracted_text"][span["start"] : span["end"]] == span["value"]
                )
                checked += 1
    assert checked > 10


def test_pdf_rows_extracted(extracted_out):
    out_dir, _ = extracted_out
    df = _read_sorted(out_dir)
    pdfs = df[df["doc_kind"] == "pdf"]
    assert len(pdfs) == 5  # i%100==94 of 500
    assert (pdfs["status"] == "ok").all()
    # case-insensitive: i=394 is the SCANNED (image-only) pdf — its
    # text comes back from the glyph-OCR kernel uppercased
    assert (
        pdfs["extracted_text"].str.lower().str.contains("signed by customer").all()
    )
    scanned = pdfs[pdfs["url"].str.contains("00000394")]
    assert len(scanned) == 1
    assert scanned["extracted_text"].str.startswith("RENTAL AGREEMENT").all()
    for fj in pdfs["fields_json"]:
        assert json.loads(fj)["Signature Present"] == "Yes"


def test_poison_shard_quarantine(ray_session, tmp_path):
    """A corrupt shard file costs exactly that shard: the run completes,
    quarantines it, and later runs skip it without retrying."""
    from valere_ocr_ray.pipelines.extract import run_resumable
    from valere_ocr_ray.sources.synth import synth_pages
    from valere_ocr_ray.state.manifest import read_all_manifests, read_quarantine

    d = str(tmp_path / "in")
    synth_pages(d, 160, n_shards=4)
    # corrupt one shard in place (copy corpus to keep synth dir pristine)
    import shutil as sh

    d2 = str(tmp_path / "in2")
    sh.copytree(d, d2)
    victim = sorted(n for n in os.listdir(d2) if n.endswith(".parquet"))[1]
    with open(os.path.join(d2, victim), "wb") as f:
        f.write(b"not a parquet file at all")

    out = str(tmp_path / "out")
    s1 = run_resumable(d2, out, group_size=4)
    assert [os.path.splitext(victim)[0]] == s1["quarantined"]
    assert len(read_quarantine(out)) == 1
    manifests = read_all_manifests(out)
    assert len(manifests) == 3  # the healthy shards all completed
    assert sum(m["n_in"] for m in manifests) == 120

    # rerun: nothing to do, quarantine persists, no exception
    s2 = run_resumable(d2, out, group_size=4)
    assert s2["groups"] == []
    assert s2["quarantined"] == []
    assert s2["n_quarantined_prior"] == 1

    # deleting the marker re-admits the shard (after fixing the file)
    sh.copyfile(os.path.join(d, victim), os.path.join(d2, victim))
    os.remove(os.path.join(out, "_quarantine", os.path.splitext(victim)[0] + ".json"))
    s3 = run_resumable(d2, out, group_size=4)
    assert sum(m["n_in"] for m in read_all_manifests(out)) == 160


def test_quarantine_off_raises(ray_session, tmp_path):
    from valere_ocr_ray.pipelines.extract import run_resumable
    from valere_ocr_ray.sources.synth import synth_pages

    d = str(tmp_path / "in")
    synth_pages(d, 80, n_shards=4)
    victim = sorted(n for n in os.listdir(d) if n.endswith(".parquet"))[0]
    import shutil as sh

    d2 = str(tmp_path / "in2")
    sh.copytree(d, d2)
    with open(os.path.join(d2, victim), "wb") as f:
        f.write(b"garbage")
    with pytest.raises(Exception):
        run_resumable(d2, str(tmp_path / "out"), group_size=4, quarantine=False)


def test_dedup_corpus_pipeline(ray_session, pages_500, tmp_path):
    """extract → exact dedup → near-dup clustering composition:
    exact dups collapse to one row, near-dup clusters are flagged not
    dropped, everything is deterministic."""
    from valere_ocr_ray.pipelines.dedup_corpus import run_dedup_corpus

    out = str(tmp_path / "corpus")
    counts = run_dedup_corpus(pages_500, out)

    import pandas as pd

    df = pd.concat(
        pq.read_table(f).to_pandas()
        for f in sorted(glob.glob(os.path.join(out, "*.parquet")))
    )
    # exact dedup: every content_hash appears exactly once
    assert df["content_hash"].is_unique
    # the duplicate_pair templates (3 distinct payloads, many urls each)
    # each survive as exactly one row
    dup_rows = df[df["extracted_text"].str.startswith("Shared Notice")]
    assert len(dup_rows) == 3
    # canonical flags are consistent with cluster_rep
    assert ((df["cluster_rep"] == df["url_hash"]) == df["is_canonical"]).all()
    assert counts["n_rows"] == len(df)
    assert counts["n_canonical"] + counts["n_near_dup"] == counts["n_rows"]
    # near-dup clustering found the template families (many non-canonical)
    assert counts["n_near_dup"] > 50

    # determinism AND partition-invariance: rerun with a DIFFERENT
    # label-exchange partition count (2 vs the default 8) gives the
    # same annotations — the exchange-annotate (zero driver state) is
    # a pure function of the corpus, not of the partitioning
    out2 = str(tmp_path / "corpus2")
    run_dedup_corpus(pages_500, out2, num_label_partitions=2)
    df2 = pd.concat(
        pq.read_table(f).to_pandas()
        for f in sorted(glob.glob(os.path.join(out2, "*.parquet")))
    )
    a = df.sort_values("url").reset_index(drop=True)
    b = df2.sort_values("url").reset_index(drop=True)
    for col in ["url", "content_hash", "cluster_rep", "is_canonical"]:
        assert a[col].tolist() == b[col].tolist()


def test_build_training_shards_end_to_end(ray_session, tmp_path):
    """The composed curation pipeline: output is packed, deduplicated,
    quality-filtered, and deterministic across reruns."""
    import glob

    import pandas as pd
    import ray.data as rd

    from valere_ocr_ray.pipelines.curate import build_training_shards
    from valere_ocr_ray.sources.synth import synth_pages

    pages = str(tmp_path / "pages")
    synth_pages(pages, 600)

    out1 = str(tmp_path / "shards1")
    s1 = build_training_shards(pages, out1, budget=128, n_shards=4)
    assert s1["n_docs_out"] > 0
    assert s1["n_sequences"] > 0
    assert s1["n_shards"] <= 4

    df = rd.read_parquet(out1).to_pandas()
    # packed invariant: within a shard, start offsets are the exclusive
    # cumsum of token counts in url_hash order
    for shard, g in df.groupby("shard"):
        g = g.sort_values("url_hash")
        expect = g["n_toks"].cumsum().shift(fill_value=0).astype("int64")
        assert (g["start_off"].to_numpy() == expect.to_numpy()).all()
        assert (g["seq_id"].to_numpy() == expect.to_numpy() // 128).all()
    # dedup invariant: no duplicate clean_text survives
    assert df["clean_text"].is_unique
    # layout invariant: hive shard dirs
    assert glob.glob(out1 + "/shard=*/*.parquet")

    # determinism: a second run reproduces the identical output
    out2 = str(tmp_path / "shards2")
    s2 = build_training_shards(pages, out2, budget=128, n_shards=4)
    assert s1 == s2
    df2 = rd.read_parquet(out2).to_pandas()
    a = df.sort_values(["url_hash"]).reset_index(drop=True)
    b = df2.sort_values(["url_hash"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_build_training_shards_gopher_gate(ray_session, tmp_path):
    """--gopher composes into the quality gate: the output is a subset
    of the ungated run (monotone filter), deterministic, and the audit
    stays consistent whether or not anything survives."""
    import ray.data as rd

    from valere_ocr_ray.pipelines.curate import build_training_shards
    from valere_ocr_ray.sources.synth import synth_pages

    pages = str(tmp_path / "pages")
    synth_pages(pages, 400)

    base = build_training_shards(
        pages, str(tmp_path / "plain"), budget=128, n_shards=4
    )
    got = build_training_shards(
        pages, str(tmp_path / "gopher"), budget=128, n_shards=4,
        gopher_rules=True,
    )
    assert got["n_docs_out"] <= base["n_docs_out"]
    if got["n_docs_out"]:
        sub = set(
            rd.read_parquet(str(tmp_path / "gopher")).to_pandas()["url_hash"]
        )
        full = set(
            rd.read_parquet(str(tmp_path / "plain")).to_pandas()["url_hash"]
        )
        assert sub <= full
    again = build_training_shards(
        pages, str(tmp_path / "gopher2"), budget=128, n_shards=4,
        gopher_rules=True,
    )
    assert got == again


def test_build_training_shards_all_filtered(ray_session, tmp_path):
    """Aggressive thresholds that drop every doc yield a zeroed audit,
    not a crash."""
    from valere_ocr_ray.pipelines.curate import build_training_shards
    from valere_ocr_ray.sources.synth import synth_pages

    pages = str(tmp_path / "p")
    synth_pages(pages, 80)
    s = build_training_shards(
        pages, str(tmp_path / "empty_out"), min_tokens=10**9
    )
    zeroed = {
        "n_docs_out": 0,
        "n_sequences": 0,
        "total_tokens": 0,
        "n_shards": 0,
        "mean_fill": 0.0,
    }
    assert s == zeroed

    # ADVICE r3: a PRE-CREATED (existing, empty) out_dir must behave
    # identically — the guard is on shard files, not on the directory
    pre = str(tmp_path / "pre_created")
    os.makedirs(pre)
    assert build_training_shards(pages, pre, min_tokens=10**9) == zeroed


def test_build_training_shards_refuses_populated_out_dir(
    ray_session, tmp_path
):
    """write_parquet appends; a re-run into a non-empty out_dir would
    silently double-count the audit — it must refuse instead."""
    import pytest as _pytest

    from valere_ocr_ray.pipelines.curate import build_training_shards
    from valere_ocr_ray.sources.synth import synth_pages

    pages = str(tmp_path / "p")
    synth_pages(pages, 80)
    out = str(tmp_path / "out")
    s1 = build_training_shards(pages, out)
    assert s1["n_docs_out"] > 0
    with _pytest.raises(FileExistsError):
        build_training_shards(pages, out)


def test_build_training_shards_optional_stages(ray_session, tmp_path):
    """c4_rules and boilerplate_min_docs are additive gates: flags-off
    output is byte-identical to the default, flags-on output is a
    subset (C4 drops marker docs; boilerplate strip removes template
    lines so token counts shrink, and template-sharing pages become
    exact-dedupable)."""
    import ray.data as rd

    from valere_ocr_ray.pipelines.curate import build_training_shards
    from valere_ocr_ray.sources.synth import synth_pages

    pages = str(tmp_path / "pages")
    synth_pages(pages, 400)

    base = build_training_shards(
        pages, str(tmp_path / "o_base"), budget=128, n_shards=4
    )
    off = build_training_shards(
        pages,
        str(tmp_path / "o_off"),
        budget=128,
        n_shards=4,
        c4_rules=False,
        boilerplate_min_docs=None,
    )
    assert base == off  # defaults unchanged

    on = build_training_shards(
        pages,
        str(tmp_path / "o_on"),
        budget=128,
        n_shards=4,
        c4_rules=True,
        boilerplate_min_docs=5,
    )
    assert 0 < on["n_docs_out"] <= base["n_docs_out"]
    assert on["total_tokens"] < base["total_tokens"]  # template lines gone
    df = rd.read_parquet(str(tmp_path / "o_on")).to_pandas()
    assert df["clean_text"].is_unique
    assert (df["clean_text"].str.len() > 0).all()


def test_build_training_shards_mix_budget(ray_session, tmp_path):
    """--mix-budget-tokens caps each doc_type's contribution: the mixed
    corpus is a strict subset of the unmixed run, deterministic across
    reruns, and a loose budget reproduces the unmixed output exactly
    (rate 1.0 everywhere — the stage is a true no-op then)."""
    import ray.data as rd

    from valere_ocr_ray.pipelines.curate import build_training_shards
    from valere_ocr_ray.sources.synth import synth_pages

    pages = str(tmp_path / "pages")
    synth_pages(pages, 400)

    full = build_training_shards(pages, str(tmp_path / "full"), n_shards=4)
    mixed = build_training_shards(
        pages, str(tmp_path / "mixed"), n_shards=4, mix_budget_tokens=500
    )
    assert 0 < mixed["n_docs_out"] < full["n_docs_out"]
    assert mixed["total_tokens"] < full["total_tokens"]
    ids_full = set(rd.read_parquet(str(tmp_path / "full")).to_pandas()["url_hash"])
    ids_mixed = set(rd.read_parquet(str(tmp_path / "mixed")).to_pandas()["url_hash"])
    assert ids_mixed < ids_full

    again = build_training_shards(
        pages, str(tmp_path / "mixed2"), n_shards=4, mix_budget_tokens=500
    )
    assert again == mixed

    loose = build_training_shards(
        pages, str(tmp_path / "loose"), n_shards=4, mix_budget_tokens=10**9
    )
    assert loose == full


def test_build_training_shards_nosplit(ray_session, tmp_path):
    """pack_mode='nosplit': no (shard, seq_id) group exceeds the budget
    unless it is a single oversize doc; start offsets are the running
    sum within the bin in FFD placement order; the audit counts bins;
    deterministic across reruns."""
    import ray.data as rd

    from valere_ocr_ray.pipelines.curate import build_training_shards
    from valere_ocr_ray.sources.synth import synth_pages

    pages = str(tmp_path / "pages")
    synth_pages(pages, 400)
    BUDGET = 128

    s = build_training_shards(
        pages, str(tmp_path / "ns"), budget=BUDGET, n_shards=4,
        pack_mode="nosplit",
    )
    df = rd.read_parquet(str(tmp_path / "ns")).to_pandas()
    assert s["n_docs_out"] == len(df) > 0
    n_bins = 0
    for (shard, seq), g in df.groupby(["shard", "seq_id"]):
        n_bins += 1
        if len(g) == 1 and g["n_toks"].iloc[0] > BUDGET:
            continue  # dedicated oversize bin
        assert g["n_toks"].sum() <= BUDGET
        g = g.sort_values(["n_toks", "url_hash"], ascending=[False, True])
        expect = g["n_toks"].cumsum().shift(fill_value=0).astype("int64")
        assert (g["start_off"].to_numpy() == expect.to_numpy()).all()
    assert s["n_sequences"] == n_bins

    s2 = build_training_shards(
        pages, str(tmp_path / "ns2"), budget=BUDGET, n_shards=4,
        pack_mode="nosplit",
    )
    assert s2 == s


def test_build_training_shards_from_extracted(ray_session, tmp_path):
    """input_kind='extracted' over a prior run_resumable output produces
    the IDENTICAL shard corpus as curating the raw pages directly —
    extraction is paid once, curation re-runs are cheap tails."""
    import pandas as pd
    import ray.data as rd

    from valere_ocr_ray.pipelines.curate import build_training_shards
    from valere_ocr_ray.pipelines.extract import run_resumable
    from valere_ocr_ray.sources.synth import synth_pages

    pages = str(tmp_path / "pages")
    synth_pages(pages, 300)
    run_dir = str(tmp_path / "run")
    run_resumable(pages, run_dir, concurrency=2, group_size=4)

    s_pages = build_training_shards(pages, str(tmp_path / "from_pages"))
    s_ext = build_training_shards(
        run_dir, str(tmp_path / "from_extracted"), input_kind="extracted"
    )
    assert s_ext == s_pages
    a = (
        rd.read_parquet(str(tmp_path / "from_pages"))
        .to_pandas()
        .sort_values("url_hash")
        .reset_index(drop=True)
    )
    b = (
        rd.read_parquet(str(tmp_path / "from_extracted"))
        .to_pandas()
        .sort_values("url_hash")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b[a.columns])


def test_build_training_shards_resume(ray_session, pages_500, tmp_path):
    """Per-shard resumable curate tail: a run that lost one shard (and
    the completion audit) is finished by ``resume=True`` — completed
    shards are SKIPPED (file untouched), the missing shard is rebuilt
    identically, and a second resume is an audit-sidecar no-op."""
    import pandas as pd
    import ray.data as rd

    from valere_ocr_ray.pipelines.curate import build_training_shards

    kw = dict(budget=128, n_shards=4)
    full = str(tmp_path / "full")
    s_full = build_training_shards(pages_500, full, **kw)
    assert s_full["n_shards"] == 4

    # simulate a kill between shard writes: one shard dir gone, no audit
    crash = str(tmp_path / "crash")
    build_training_shards(pages_500, crash, **kw)
    shutil.rmtree(os.path.join(crash, "shard=2"))
    os.remove(os.path.join(crash, "_curate_audit.json"))
    kept = os.path.join(crash, "shard=0", "part-0.parquet")
    kept_mtime = os.path.getmtime(kept)

    s_resumed = build_training_shards(pages_500, crash, resume=True, **kw)
    assert s_resumed == s_full
    # completed shards were skipped, not rewritten
    assert os.path.getmtime(kept) == kept_mtime
    # the rebuilt corpus is byte-equal to the uninterrupted run
    a = (
        rd.read_parquet(full).to_pandas()
        .sort_values("url_hash").reset_index(drop=True)
    )
    b = (
        rd.read_parquet(crash).to_pandas()
        .sort_values("url_hash").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b[a.columns])

    # idempotent: the audit sidecar short-circuits a second resume
    assert build_training_shards(pages_500, crash, resume=True, **kw) == s_full
    # non-resume reruns into a populated dir still refuse
    with pytest.raises(FileExistsError):
        build_training_shards(pages_500, crash, **kw)


def test_build_training_shards_holdout(ray_session, pages_500, tmp_path):
    """holdout_rate carves a leakage-safe eval side in the same run:
    url_hash-disjoint from the training shards, internally deduped,
    side assignment self-consistent with the hash threshold, and the
    holdout write is resumable like the train shards."""
    import hashlib

    import pandas as pd
    import ray.data as rd

    from valere_ocr_ray.ops.hashing import md5_lower
    from valere_ocr_ray.ops.mixing import SCALE
    from valere_ocr_ray.pipelines.curate import build_training_shards

    out = str(tmp_path / "with_holdout")
    kw = dict(budget=128, n_shards=4, holdout_rate=0.2, holdout_salt="ev")
    s = build_training_shards(pages_500, out, **kw)
    assert s["n_holdout"] > 0

    hold = rd.read_parquet(os.path.join(out, "_holdout")).to_pandas()
    train = rd.read_parquet(out).to_pandas()
    # training readers over out_dir never see the holdout subtree
    assert "clean_text" in train.columns and len(train) == s["n_docs_out"]
    assert len(hold) == s["n_holdout"]
    # disjoint docs, deduped holdout
    assert not set(hold["url_hash"]) & set(train["url_hash"])
    assert hold["extracted_text"].is_unique
    # every holdout text really hashes to the holdout side
    hexes = hold["extracted_text"].map(
        lambda t: hashlib.md5(t.encode()).hexdigest()
    )
    h = md5_lower("ev:" + hexes)
    assert (h % SCALE < int(0.2 * SCALE)).all()

    # determinism + holdout resume: drop one holdout shard and the
    # audit, resume rebuilds it identically
    out2 = str(tmp_path / "resumed")
    build_training_shards(pages_500, out2, **kw)
    shutil.rmtree(os.path.join(out2, "_holdout", "shard=1"))
    os.remove(os.path.join(out2, "_curate_audit.json"))
    s2 = build_training_shards(pages_500, out2, resume=True, **kw)
    assert s2 == s
    hold2 = rd.read_parquet(os.path.join(out2, "_holdout")).to_pandas()
    a = hold.sort_values("url_hash").reset_index(drop=True)
    b = hold2.sort_values("url_hash").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b[a.columns])


def test_corpus_report_consistency(ray_session):
    """The datasheet report agrees with local ground truth and with the
    oracled doc_quality_tiers query on the same corpus."""
    import numpy as np
    import pandas as pd

    from valere_ocr_ray.ops.textstats import gopher_keep, langid_batch
    from valere_ocr_ray.pipelines.queries import doc_quality_tiers
    from valere_ocr_ray.pipelines.report import corpus_report

    src = "/root/testdata/sf0.01/documents.parquet"
    docs = pd.read_parquet(src, columns=["text"])
    text = docs["text"].astype(str)
    rep = corpus_report(src)

    assert rep["n_docs"] == len(docs)
    assert rep["total_tokens"] == int(text.str.count(r"\S+").sum())
    assert rep["total_chars"] == int(text.str.len().sum())
    assert rep["n_distinct_texts"] == int(text.nunique())
    assert rep["exact_dup_per_mil"] == (
        (len(docs) - int(text.nunique())) * 1000 // len(docs)
    )
    lang = langid_batch(docs, "text")["lang_pred"]
    assert rep["lang_counts"] == {
        str(k): int(v) for k, v in lang.value_counts().sort_index().items()
    }
    assert (
        rep["gopher_keep_per_mil"]
        == int(gopher_keep(text).sum()) * 1000 // len(docs)
    )
    tiers = doc_quality_tiers("/root/testdata/sf0.01").to_pandas()
    assert rep["tier_counts"] == {
        int(r.tier): int(r.n_docs) for r in tiers.itertuples()
    }
    assert rep["tier_tokens"] == {
        int(r.tier): int(r.toks) for r in tiers.itertuples()
    }
    lens = np.sort(text.str.len().to_numpy())
    for q, key in [
        (0.5, "len_chars_p50"),
        (0.9, "len_chars_p90"),
        (0.99, "len_chars_p99"),
    ]:
        assert rep[key] == int(lens[int(np.ceil(q * len(lens))) - 1])


def test_build_training_shards_gopher_rep_gate(ray_session, tmp_path):
    """--gopher-rep composes into the quality gate exactly like
    --gopher: monotone subset, deterministic."""
    import ray.data as rd

    from valere_ocr_ray.pipelines.curate import build_training_shards
    from valere_ocr_ray.sources.synth import synth_pages

    pages = str(tmp_path / "pages")
    synth_pages(pages, 400)

    base = build_training_shards(
        pages, str(tmp_path / "plain"), budget=128, n_shards=4
    )
    got = build_training_shards(
        pages, str(tmp_path / "rep"), budget=128, n_shards=4,
        gopher_rep_rules=True,
    )
    assert got["n_docs_out"] <= base["n_docs_out"]
    if got["n_docs_out"]:
        sub = set(
            rd.read_parquet(str(tmp_path / "rep")).to_pandas()["url_hash"]
        )
        full = set(
            rd.read_parquet(str(tmp_path / "plain")).to_pandas()["url_hash"]
        )
        assert sub <= full
    again = build_training_shards(
        pages, str(tmp_path / "rep2"), budget=128, n_shards=4,
        gopher_rep_rules=True,
    )
    assert got == again


def test_pages_report_consistency(ray_session, extracted_out):
    """The pages datasheet agrees with the oracled doc-type counts, the
    per-shard lineage manifests, and local ground truth over the same
    extraction output (VERDICT r3 item 7)."""
    from valere_ocr_ray.pipelines.report import pages_report

    out_dir, summary = extracted_out
    rep = pages_report(out_dir)
    df = _read_sorted(out_dir)

    assert rep["n_docs"] == len(df) == 500
    assert rep["status_counts"] == {
        str(k): int(v) for k, v in df["status"].value_counts().sort_index().items()
    }
    assert rep["kind_counts"] == {
        str(k): int(v)
        for k, v in df["doc_kind"].value_counts().sort_index().items()
    }
    ok = df[df["status"] == "ok"]
    assert rep["class_counts"] == {
        str(k): int(v)
        for k, v in ok["doc_type"].value_counts().sort_index().items()
    }
    assert rep["class_bytes"] == {
        str(k): int(v)
        for k, v in ok.groupby("doc_type")["size_bytes"].sum().sort_index().items()
    }
    # OCR rate: standalone rasters + the scanned PDF, over ok docs
    n_ocr = int(ok["ocr_used"].sum())
    assert n_ocr == len(ok[ok["doc_kind"] == "image"]) + 1  # +1 scanned pdf
    assert rep["ocr_per_mil"] == n_ocr * 1000 // len(ok)
    assert rep["ok_per_mil"] == len(ok) * 1000 // 500
    # lineage cross-check: manifests agree with the corpus-level audit
    assert rep["lineage_n_shards"] == summary["n_shards"]
    assert rep["lineage_n_in"] == 500
    assert rep["lineage_n_ok"] == len(ok)
    assert rep["total_bytes_in"] == int(df["size_bytes"].sum())
