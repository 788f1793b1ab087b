

def test_jsonl_source_end_to_end(ray_session, tmp_path):
    """JSONL(.gz) → pages shape → the resumable extract pipeline."""
    import gzip
    import json as _json

    import ray.data as rd

    from valere_ocr_ray.pipelines.extract import run_resumable
    from valere_ocr_ray.sources.jsonl import convert_jsonl_dir, jsonl_file_to_table

    d = tmp_path / "jl"
    d.mkdir()
    recs = [
        {"url": f"https://x.example/{i}", "html": f"<html><body><p>doc {i} body text</p></body></html>", "ts": i * 1000}
        for i in range(25)
    ]
    recs.append({"html": "<p>no url</p>"})  # routed, not dropped
    with open(d / "a.jsonl", "w") as f:
        for r in recs[:13]:
            f.write(_json.dumps(r) + "\n")
        f.write("{broken json\n")  # skipped, counted
    with gzip.open(d / "b.jsonl.gz", "wt") as f:
        for r in recs[13:]:
            f.write(_json.dumps(r) + "\n")

    t = jsonl_file_to_table(str(d / "a.jsonl"))
    assert t.num_rows == 13
    assert t.schema.metadata[b"n_bad_lines"] == b"1"

    outs = convert_jsonl_dir(str(d), str(tmp_path / "pages"))
    assert len(outs) == 2
    df = rd.read_parquet(outs).to_pandas()
    assert len(df) == 26
    assert (df["url"] == "about:missing").sum() == 1
    s = run_resumable(str(tmp_path / "pages"), str(tmp_path / "out"), group_size=2)
    assert s["totals"]["n_in"] == 26


def test_jsonl_ts_unit_autodetect(tmp_path):
    """Epoch seconds / millis / micros all land on the same instant
    (ADVICE r2: epoch-seconds JSONL silently became 1970-adjacent)."""
    import json as _json

    from valere_ocr_ray.sources.jsonl import jsonl_file_to_table

    sec = 1_719_792_000  # 2024-07-01T00:00:00Z
    rows = [
        {"url": "a", "html": "<p>x</p>", "ts": sec},
        {"url": "b", "html": "<p>x</p>", "ts": sec * 1_000},
        {"url": "c", "html": "<p>x</p>", "ts": sec * 1_000_000},
    ]
    p = tmp_path / "ts.jsonl"
    with open(p, "w") as f:
        for r in rows:
            f.write(_json.dumps(r) + "\n")
    t = jsonl_file_to_table(str(p))
    us = t["warc_ts"].cast("int64").to_pylist()
    assert us == [sec * 1_000_000] * 3


def test_jsonl_bad_html_value_is_a_bad_record_not_a_crash(tmp_path):
    """A dict/float html value skips THAT record with a count — the
    'unparseable lines are skipped' contract (ADVICE r2)."""
    import json as _json

    from valere_ocr_ray.sources.jsonl import jsonl_file_to_table

    rows = [
        {"url": "good", "html": "<p>ok</p>"},
        {"url": "bad1", "html": {"nested": 1}},
        {"url": "bad2", "html": 3.14},
    ]
    p = tmp_path / "bad.jsonl"
    with open(p, "w") as f:
        for r in rows:
            f.write(_json.dumps(r) + "\n")
    t = jsonl_file_to_table(str(p))
    assert t.num_rows == 1
    assert t.schema.metadata[b"n_bad_lines"] == b"2"
