"""CLI surface: python -m valere_ocr_ray {synth,extract,summary}.

Runs in subprocesses (the CLI owns its own Ray session — kept tiny)."""

import json
import os
import subprocess
import sys

REPO = os.path.join(os.path.dirname(__file__), "..")


def _run(*args: str) -> str:
    out = subprocess.run(
        [sys.executable, "-m", "valere_ocr_ray", *args],
        capture_output=True,
        text=True,
        check=True,
        cwd=REPO,
        timeout=240,
    )
    return out.stdout


def test_cli_synth_extract_summary(tmp_path):
    d_in, d_out = str(tmp_path / "in"), str(tmp_path / "out")
    s = json.loads(_run("synth", "--out", d_in, "--rows", "60", "--shards", "2"))
    assert s["shards"] == 2

    out = _run("extract", "--input", d_in, "--out", d_out, "--num-cpus", "2")
    summary = json.loads(out)
    assert summary["totals"]["n_in"] == 60
    assert summary["totals"]["n_partitions"] == 2

    # resumable: second run does nothing
    out2 = json.loads(_run("extract", "--input", d_in, "--out", d_out, "--num-cpus", "2"))
    assert out2["groups"] == []
    assert out2["n_skipped_complete"] == 2

    printed = json.loads(_run("summary", "--out", d_out))
    assert printed["n_in"] == 60


def test_cli_curate(tmp_path):
    d_in, d_out = str(tmp_path / "in"), str(tmp_path / "shards")
    json.loads(_run("synth", "--out", d_in, "--rows", "120", "--shards", "2"))
    s = json.loads(
        _run(
            "curate", "--input", d_in, "--out", d_out,
            "--num-cpus", "2", "--budget", "128", "--shards", "2",
        )
    )
    assert s["n_docs_out"] > 0 and s["n_sequences"] > 0
    assert os.path.isdir(d_out)


def test_db_sink_class_tables(ray_session, tmp_path):
    """T6 surface: a flagship run's doc_type partitions bulk-load into
    per-class DB tables (document_key, json, confidence_score); counts
    match the parquet and a spot row carries the extracted JSON."""
    import json as _json

    import duckdb
    import ray.data as rd

    from valere_ocr_ray.pipelines.db_sink import write_class_tables
    from valere_ocr_ray.pipelines.extract import run_resumable
    from valere_ocr_ray.sources.synth import synth_pages

    pages = str(tmp_path / "pages")
    out = str(tmp_path / "out")
    synth_pages(pages, 200)
    run_resumable(pages, out, concurrency=2, group_size=4)
    db = str(tmp_path / "classes.duckdb")
    counts = write_class_tables(out, db)
    assert sum(counts.values()) == 200
    df = rd.read_parquet(out).to_pandas()
    want = df.groupby("doc_type").size()
    for doc_type, n in want.items():
        assert counts[doc_type.lower()] == n, doc_type
    con = duckdb.connect(db)
    try:
        key, js, conf = con.execute(
            "SELECT document_key, json, confidence_score FROM insurance_card "
            "ORDER BY document_key LIMIT 1"
        ).fetchone()
        row = df[df["url"] == key].iloc[0]
        assert js == row["fields_json"] and _json.loads(js)
        assert abs(conf - float(row["confidence"])) < 1e-9
        # idempotent: a second load replaces, never duplicates
        assert write_class_tables(out, db) == counts
    finally:
        con.close()


def test_db_sink_rejects_unsafe_column_names(tmp_path):
    """Column names are spliced into the load SQL: a name carrying a
    quote or a statement separator is refused before any SQL runs,
    and a plain identifier still loads."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest

    from valere_ocr_ray.pipelines.db_sink import write_class_tables

    part = tmp_path / "out" / "part_id=0" / "doc_type=invoice"
    part.mkdir(parents=True)
    pq.write_table(
        pa.table({"url": ["u1"], "fields_json": ["{}"], "confidence": [0.5]}),
        str(part / "0.parquet"),
    )
    db = str(tmp_path / "classes.duckdb")
    for bad in ('url" AS x; DROP TABLE invoice; --', "url; SELECT 1", 'u"rl'):
        for arg in ("key_col", "json_col", "conf_col"):
            with pytest.raises(ValueError, match="unsafe column name"):
                write_class_tables(str(tmp_path / "out"), db, **{arg: bad})
    assert write_class_tables(str(tmp_path / "out"), db) == {"invoice": 1}
