"""JSONL source — newline-delimited JSON records into the engine's
canonical ``pages`` parquet shape (the third common web-corpus wire
format after parquet and WARC; crawl dumps and scraped exports ship as
``*.jsonl`` / ``*.jsonl.gz``).

Field mapping (configurable): ``url`` (required; rows without it are
routed, not dropped — ``url='about:missing'`` so the extract pipeline
can blocklist them), ``html`` (string or base64-free bytes → binary
payload), ``text``/``lang``/``ts`` optional.  Each file converts to
one pages parquet shard (``convert_jsonl_dir``), the layout contract of
``sources/warc.convert_warc_dir``, so files stay the unit of
parallelism and resumability.  Parsing is stdlib ``json`` + ``gzip``.
"""

from __future__ import annotations

import glob
import gzip
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq

from valere_ocr_ray.sources.warc import PAGES_SCHEMA


def _ts_to_us(ts) -> int:
    """Epoch timestamp of UNKNOWN unit → microseconds, by magnitude:
    seconds (< 1e11, covers through year 5138), milliseconds (< 1e14),
    else already microseconds.  JSONL exports ship all three
    conventions; silently treating seconds as µs put every row at
    1970 (ADVICE r2)."""
    try:
        v = int(ts)
    except (TypeError, ValueError):
        return 0
    a = abs(v)
    if a < 100_000_000_000:  # epoch-seconds
        return v * 1_000_000
    if a < 100_000_000_000_000:  # epoch-millis
        return v * 1_000
    return v


def jsonl_file_to_table(
    path: str,
    *,
    url_key: str = "url",
    html_key: str = "html",
    text_key: str = "text",
    lang_key: str = "lang",
    ts_key: str = "ts",
) -> pa.Table:
    """One JSONL(.gz) file → a pages-schema Arrow table.  Unparseable
    lines are skipped with a count kept in the table metadata
    (``n_bad_lines``) rather than failing the file."""
    opener = gzip.open if path.endswith(".gz") else open
    urls: list[str] = []
    tss: list[int] = []
    htmls: list[bytes] = []
    texts: list[str] = []
    langs: list[str] = []
    n_bad = 0
    with opener(path, "rt", encoding="utf-8", errors="replace") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                n_bad += 1
                continue
            if not isinstance(rec, dict):
                n_bad += 1
                continue
            h = rec.get(html_key, "")
            if isinstance(h, str):
                hb = h.encode()
            elif isinstance(h, (bytes, bytearray)) or h is None:
                hb = bytes(h or b"")
            else:
                # a non-str/bytes html value (dict/float JSON) is a bad
                # RECORD, not a bad file — count it, keep going
                n_bad += 1
                continue
            urls.append(str(rec.get(url_key) or "about:missing"))
            ts = rec.get(ts_key, 0)
            tss.append(_ts_to_us(ts) if isinstance(ts, (int, float)) else 0)
            htmls.append(hb)
            texts.append(str(rec.get(text_key) or ""))
            langs.append(str(rec.get(lang_key) or ""))
    tbl = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(tss, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
        },
        schema=PAGES_SCHEMA,
    )
    return tbl.replace_schema_metadata({"n_bad_lines": str(n_bad)})


def convert_jsonl_dir(
    input_dir: str, out_dir: str, **field_keys
) -> list[str]:
    """Shard-per-file conversion into resumable pages parquet (same
    layout contract as ``convert_warc_dir``)."""
    paths = sorted(
        glob.glob(os.path.join(input_dir, "*.jsonl"))
        + glob.glob(os.path.join(input_dir, "*.jsonl.gz"))
    )
    os.makedirs(out_dir, exist_ok=True)
    outs: list[str] = []
    for p in paths:
        base = os.path.basename(p)
        for suf in (".jsonl.gz", ".jsonl"):
            if base.endswith(suf):
                base = base[: -len(suf)]
                break
        dst = os.path.join(out_dir, f"jsonl_{base}.parquet")
        pq.write_table(jsonl_file_to_table(p, **field_keys), dst)
        outs.append(dst)
    return outs
