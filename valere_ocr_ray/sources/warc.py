"""WARC source: Common-Crawl-style archives → ``pages``-shaped Dataset.

The reference enumerates an S3 bucket and fetches each object's bytes
(``IDD/finalcodes/InsuranceCard2.py:36-62``,
``IDD/MiscTestingScripts/Ethan_PDFandJPG3.py:64-69``); the web-scale
analog of that corpus is a directory of WARC files.  This reader turns
``*.warc`` / ``*.warc.gz`` files into the engine's canonical
``pages(url, warc_ts, html, text, lang)`` schema so the extraction
pipeline is source-agnostic: one WARC file == one resume partition,
exactly like a parquet shard.

Parsing is dependency-free (stdlib ``gzip``/``email.utils``): WARC/1.x
records are length-delimited (``Content-Length`` header), so the walk
is O(bytes) with no regex over payloads.  Only ``response`` (and
``resource``) records yield rows; HTTP response headers, when present,
are stripped to expose the body.

Scale note: each WARC file is parsed inside one ``map_batches`` task
(files are the unit of parallelism — Common Crawl ships ~1 GB gz files,
a fine task size).  For bigger archives, split upstream; records inside
a file are inherently sequential (gzip member chain).
"""

from __future__ import annotations

import glob
import gzip
import io
import os
from email.utils import parsedate_to_datetime

import pyarrow as pa
import ray.data

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)


def _parse_warc_ts(value: str) -> int:
    """WARC-Date (ISO-8601, e.g. 2024-07-01T12:34:56Z) → epoch micros."""
    from datetime import datetime, timezone

    v = value.strip()
    try:
        if v.endswith("Z"):
            v = v[:-1] + "+00:00"
        dt = datetime.fromisoformat(v)
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return int(dt.timestamp() * 1_000_000)
    except ValueError:
        try:  # RFC-2822 fallback (some writers emit HTTP-date here)
            return int(parsedate_to_datetime(value).timestamp() * 1_000_000)
        except Exception:
            return 0


def _strip_http_headers(body: bytes) -> bytes:
    """response records usually embed an HTTP message; drop its headers."""
    if body[:5] in (b"HTTP/",):
        sep = body.find(b"\r\n\r\n")
        if sep != -1:
            return body[sep + 4 :]
        sep = body.find(b"\n\n")
        if sep != -1:
            return body[sep + 2 :]
    return body


def parse_warc_records(stream: io.BufferedIOBase):
    """Yield ``(headers: dict, body: bytes)`` per WARC record."""
    while True:
        # skip inter-record blank lines
        line = stream.readline()
        if not line:
            return
        if not line.strip():
            continue
        if not line.startswith(b"WARC/"):
            # garbage between records — scan forward to the next marker
            continue
        headers: dict[str, str] = {}
        while True:
            hline = stream.readline()
            if not hline or not hline.strip():
                break
            if b":" in hline:
                k, v = hline.split(b":", 1)
                headers[k.decode("latin-1").strip().lower()] = v.decode(
                    "latin-1"
                ).strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = 0
        body = stream.read(length)
        yield headers, body


def warc_file_to_table(path: str) -> pa.Table:
    """One WARC file → a ``pages``-schema Arrow table (one task's work;
    ``text`` and ``lang`` empty)."""
    opener = gzip.open if path.endswith(".gz") else open
    urls: list[str] = []
    tss: list[int] = []
    payloads: list[bytes] = []
    with opener(path, "rb") as f:
        stream = io.BufferedReader(f)  # type: ignore[arg-type]
        for headers, body in parse_warc_records(stream):
            if headers.get("warc-type") not in ("response", "resource"):
                continue
            url = headers.get("warc-target-uri", "")
            if not url:
                continue
            urls.append(url)
            tss.append(_parse_warc_ts(headers.get("warc-date", "")))
            payloads.append(_strip_http_headers(body))
    n = len(urls)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(tss, pa.timestamp("us")),
            "html": pa.array(payloads, pa.binary()),
            "text": pa.array([""] * n, pa.string()),
            "lang": pa.array([""] * n, pa.string()),
        },
        schema=PAGES_SCHEMA,
    )


def read_warc(paths: list[str] | str) -> ray.data.Dataset:
    """WARC file set → ``pages``-shaped Dataset (one file per task).

    ``from_items`` carries only the (tiny) path list; payload bytes are
    read inside the parse tasks, so nothing is materialized driver-side.
    """
    if isinstance(paths, str):
        found = (
            sorted(
                glob.glob(os.path.join(paths, "*.warc"))
                + glob.glob(os.path.join(paths, "*.warc.gz"))
            )
            if os.path.isdir(paths)
            else [paths]
        )
    else:
        found = list(paths)
    ds = ray.data.from_items([{"path": p} for p in found])

    def parse(batch: pa.Table) -> pa.Table:
        tables = [warc_file_to_table(p) for p in batch["path"].to_pylist()]
        if not tables:
            return PAGES_SCHEMA.empty_table()
        return pa.concat_tables(tables)

    return ds.map_batches(parse, batch_format="pyarrow", batch_size=1)


def convert_warc_dir(warc_dir: str, pages_dir: str) -> list[str]:
    """WARC archive directory → zstd pages parquet shards, one per WARC file
    (preserving the file == resume-partition mapping), so
    ``run_resumable`` consumes crawls directly:

        convert_warc_dir("crawl/", "pages/")
        run_resumable("pages/", "out/")

    Conversion runs as one Ray task per archive (the same parallelism
    unit as ``read_warc``); idempotent via atomic per-file rename —
    rerunning skips already-converted archives.
    """
    import pyarrow.parquet as pq

    files = sorted(
        glob.glob(os.path.join(warc_dir, "*.warc"))
        + glob.glob(os.path.join(warc_dir, "*.warc.gz"))
    )
    os.makedirs(pages_dir, exist_ok=True)

    @ray.remote
    def convert(path: str, out_path: str) -> str:
        if not os.path.exists(out_path):
            table = warc_file_to_table(path)
            pq.write_table(table, out_path + ".tmp", compression="zstd")
            os.replace(out_path + ".tmp", out_path)
        return out_path

    outs = []
    for f in files:
        base = os.path.basename(f)
        for suf in (".warc.gz", ".warc"):
            if base.endswith(suf):
                base = base[: -len(suf)]
                break
        outs.append(os.path.join(pages_dir, f"{base}.parquet"))
    return ray.get([convert.remote(f, o) for f, o in zip(files, outs)])


def write_warc(records: list[tuple[str, str, bytes]], path: str) -> None:
    """Minimal WARC/1.0 writer (response records) — test scaffolding.

    ``records`` = [(url, iso_ts, payload_bytes)]; gz if path endswith .gz.
    """
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "wb") as f:
        for url, ts, payload in records:
            head = (
                "WARC/1.0\r\n"
                "WARC-Type: response\r\n"
                f"WARC-Target-URI: {url}\r\n"
                f"WARC-Date: {ts}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "\r\n"
            ).encode("latin-1")
            f.write(head)
            f.write(payload)
            f.write(b"\r\n\r\n")
