"""Seeded benchmark inputs: pages shards, sidecar labels, cache, oracles.

Rows come from the package's own generator, ``synth_row(i)``, whose
content depends only on ``i``.  The seed picks where a workload's row
range starts.  Everything is generated in this one process (the
package's ``synth_pages`` forks a pool for large corpora).

Each row also gets a sidecar label -- row class, expected status,
doc_kind and codec -- derived here from ``i`` by the generator's own
schedule.  The program never sees it; the correctness gate and the
per-codec metrics do.

Inputs are cached under ``perfbench/.cache`` keyed on the corpus name,
the seed, ``CORPUS_VERSION`` and a hash of ``sources/synth.py``.  What
the program itself produced (the in-process reference, the dedup
input's sink) is keyed on a hash of the whole package as well.
"""

from __future__ import annotations

import collections
import glob
import hashlib
import json
import os
import shutil
import time

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

# Least common multiple of the generator's schedule periods: garbage
# every 200 rows, raster codec by (i // 100) % 8, scanned-PDF codec by
# (i // 400) % 7 inside phase (i // 100) % 4, an oversized row every
# 5000.  Every seed's range starts at a multiple of it, so every seed
# gets the same row-class and codec mix and only row content changes.
PERIOD = 140_000
N_BASES = 700  # 700 * PERIOD < 10**8: the url carries i as 8 digits

# extract_web: the natural mix.  The window [3500, 5100) of a period
# holds the oversized row at i % 5000 == 4237.
WEB_SHIFT = 3_500
WEB_ROWS = 1_600
# extract_scanned: rows with i % 100 in {94, 95} of an 11200-row span:
# 112 rasters (14 per codec) and 112 PDFs (28 scanned, 4 per codec).
SCANNED_SPAN = 11_200
N_SHARDS = 4
# dedup_extracted: strip_repeated_lines_exchange's min_docs and
# segment_dedup_stats' window
MIN_DOCS = 5
WINDOW = 10

RASTER_CODECS = (
    "bmp", "ppm", "png", "jpeg", "tiff_lzw", "gif", "webp_vp8l", "webp_vp8",
)
SCANNED_PDF_CODECS = (
    "jpeg", "flate", "flate_gray", "raw", "ccitt", "ccitt_mixed", "jbig2",
)

_SNIFF_PREFIXES = (
    b"<", b"\xef", b"%PDF-", b"\x89PNG", b"\xff\xd8\xff", b"BM", b"P6",
    b"II*\x00", b"MM\x00*", b"GIF87a", b"GIF89a", b"RIFF",
)

LABEL_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("i", pa.int64()),
        ("row_class", pa.string()),
        ("doc_kind", pa.string()),
        ("codec", pa.string()),
        ("expect_status", pa.string()),  # null: the generator cannot say
        ("probe", pa.string()),
    ]
)


def label(i: int, payload: bytes) -> tuple[str, str | None, str, str | None]:
    """(row_class, doc_kind, codec, expected status) of generator row ``i``."""
    if i % 5000 == 4237:
        return "oversize", "html", "-", "skipped_too_large"
    if i % 200 == 199:
        # random bytes; about 1 row in 128 happens to start with a
        # sniffable magic and is then parsed, with an outcome the
        # generator cannot predict
        if payload.startswith(_SNIFF_PREFIXES):
            return "garbage_sniffed", None, "-", None
        return "garbage", "unknown", "-", "error_unparseable"
    bucket = i % 100
    if bucket == 94:
        phase = (i // 100) % 4
        if phase == 3:
            return "scanned_pdf", "pdf", SCANNED_PDF_CODECS[(i // 400) % 7], "ok"
        return "text_pdf", "pdf", "flate" if phase == 1 else "plain", "ok"
    if bucket == 93:
        return "blocklisted", "html", "-", "skipped_blocklisted"
    if bucket == 95:
        return "raster", "image", RASTER_CODECS[(i // 100) % 8], "ok"
    if bucket >= 96:
        return "long_html", "html", "-", "ok"
    return "html", "html", "-", "ok"


def web_rows(seed: int) -> list[int]:
    base = (seed % N_BASES) * PERIOD + WEB_SHIFT
    return list(range(base, base + WEB_ROWS))


def scanned_rows(seed: int) -> list[int]:
    base = (seed % N_BASES) * PERIOD
    return [i for i in range(base, base + SCANNED_SPAN) if i % 100 in (94, 95)]


def warm_rows() -> list[int]:
    """Small fixed corpus that touches every row class and codec once."""
    rows = set(range(0, 100)) | {194, 199}
    rows |= {95 + 100 * c for c in range(len(RASTER_CODECS))}
    rows |= {394 + 400 * c for c in range(len(SCANNED_PDF_CODECS))}
    return sorted(rows)


def _fingerprint(paths: list[str]) -> str:
    h = hashlib.sha1()
    for p in sorted(paths):
        h.update(p.encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:12]


def synth_key(checkout: str) -> str:
    from valere_ocr_ray.sources.synth import CORPUS_VERSION

    src = os.path.join(checkout, "valere_ocr_ray", "sources", "synth.py")
    return f"v{CORPUS_VERSION}-{_fingerprint([src])}"


def package_key(checkout: str) -> str:
    """Hash of every package source file: a sink built by one version of
    the program is never reused by another."""
    pkg = os.path.join(checkout, "valere_ocr_ray")
    files = [
        os.path.join(d, n)
        for d, _, names in os.walk(pkg)
        for n in names
        if n.endswith(".py")
    ]
    return _fingerprint(files)


def text_digest(urls: list[str], texts: list[str]) -> str:
    """md5 over the url-sorted extracted_text, each text length-prefixed."""
    h = hashlib.md5()
    for _, t in sorted(zip(urls, texts)):
        b = (t or "").encode()
        h.update(len(b).to_bytes(8, "little"))
        h.update(b)
    return h.hexdigest()


def _write_pages(rows: list[int], out_dir: str) -> pa.Table:
    from valere_ocr_ray.sources.synth import PAGES_SCHEMA, synth_row

    os.makedirs(os.path.join(out_dir, "pages"))
    labels = []
    per = -(-len(rows) // N_SHARDS)
    for s in range(N_SHARDS):
        chunk = rows[s * per : (s + 1) * per]
        gen = [synth_row(i) for i in chunk]
        cols = list(zip(*gen))
        table = pa.table(
            {name: pa.array(col, PAGES_SCHEMA.field(name).type)
             for name, col in zip(PAGES_SCHEMA.names, cols)},
            schema=PAGES_SCHEMA,
        )
        pq.write_table(
            table,
            os.path.join(out_dir, "pages", f"pages_{s:04d}.parquet"),
            compression="zstd",
        )
        for i, (url, _, html, text, _) in zip(chunk, gen):
            labels.append((url, i, *label(i, html), text))
    table = pa.table(
        {f.name: pa.array(col, f.type) for f, col in zip(LABEL_SCHEMA, zip(*labels))},
        schema=LABEL_SCHEMA,
    )
    pq.write_table(table, os.path.join(out_dir, "labels.parquet"))
    return table


def _publish(tmp: str, final: str, meta: dict) -> None:
    with open(os.path.join(tmp, "corpus.json"), "w") as f:
        json.dump(meta, f, indent=1, sort_keys=True)
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)


def ensure_pages(cache: str, name: str, rows: list[int], checkout: str) -> str:
    """Cached pages corpus plus its sidecar labels.  Both depend only on
    the generator, so the key is the seed's row range and ``synth_key``."""
    final = os.path.join(
        cache, f"{name}-{rows[0]}+{len(rows)}-{synth_key(checkout)}"
    )
    if os.path.exists(os.path.join(final, "corpus.json")):
        return final
    tmp = final + f".tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    t0 = time.perf_counter()
    labels = _write_pages(rows, tmp)
    _publish(
        tmp,
        final,
        {
            "name": name,
            "rows": len(rows),
            "first_row": rows[0],
            "row_classes": dict(
                collections.Counter(labels["row_class"].to_pylist())
            ),
            "generate_s": round(time.perf_counter() - t0, 3),
        },
    )
    return final


def reference_dir(corpus_dir: str, checkout: str) -> str:
    """Where the in-process reference for one pages corpus lives.  The
    key adds the package hash, because the reference is the program's
    own output: a Ray run is checked against an in-process run of the
    same code, never against whichever version built the cache."""
    return os.path.join(
        os.path.dirname(corpus_dir),
        f"ref-{os.path.basename(corpus_dir)}-{package_key(checkout)}",
    )


def ensure_reference(corpus_dir: str, checkout: str) -> str:
    """Cached in-process reference for a pages corpus.

    One pass of the package's stage functions over the shards in this
    process (``layers.extract_inprocess``): the per-url status and the
    text digest every Ray run must reproduce.
    """
    from perfbench import layers
    from valere_ocr_ray.pipelines.extract import _READ_COLUMNS

    final = reference_dir(corpus_dir, checkout)
    if os.path.exists(os.path.join(final, "corpus.json")):
        return final
    tmp = final + f".tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    t0 = time.perf_counter()
    labels = pq.read_table(os.path.join(corpus_dir, "labels.parquet"))
    pages = os.path.join(corpus_dir, "pages")
    blocks = [
        pq.read_table(os.path.join(pages, n), columns=_READ_COLUMNS)
        for n in sorted(os.listdir(pages))
    ]
    out = pa.concat_tables(
        layers.extract_inprocess(blocks, layers.Groups(labels), layers.Tracer("ref"))
    )
    urls = out["url"].to_pylist()
    texts = out["extracted_text"].to_pylist()
    ref = pa.table(
        {
            "url": out["url"],
            "ref_status": out["status"],
            "ref_text_md5": [hashlib.md5(t.encode()).hexdigest() for t in texts],
        }
    )
    pq.write_table(ref, os.path.join(tmp, "reference.parquet"))
    _publish(
        tmp,
        final,
        {
            "digest": text_digest(urls, texts),
            "reference_s": round(time.perf_counter() - t0, 3),
        },
    )
    return final


def doc_id(url: str) -> int:
    """The generator's row number, which the url carries as 8 digits."""
    return int(url.rsplit("/", 1)[1][:8])


def _segments(text: str, window: int) -> list[list[str]]:
    toks = text.split(" ")
    return [toks[s : s + window] for s in range(0, len(toks), window)]


def dedup_dir(cache: str, web_dir: str, checkout: str) -> str:
    """Where the dedup_extracted input for one web corpus lives.  The key
    adds the package hash, because the sink is the program's output."""
    return os.path.join(
        cache, f"dedup-{os.path.basename(web_dir)}-{package_key(checkout)}"
    )


def ensure_dedup(final: str, make_sink) -> None:
    """Cached dedup_extracted input: a sink plus the dedup oracle.

    ``make_sink(sink_dir)`` runs the untimed extract_web pass and
    returns its correctness gate; the oracle is built from the text the
    sink holds.
    """
    if os.path.exists(os.path.join(final, "corpus.json")):
        return
    tmp = final + f".tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    t0 = time.perf_counter()
    gate = make_sink(os.path.join(tmp, "sink"))
    prep_s = time.perf_counter() - t0
    if not gate["ok"]:
        raise RuntimeError(
            f"extract_web pass for dedup_extracted failed its gate: {gate['problems']}"
        )
    files = sorted(
        glob.glob(os.path.join(tmp, "sink", "part_id=*", "**", "*.parquet"), recursive=True)
    )
    t = pads.dataset(files, format="parquet").to_table(columns=["url", "extracted_text"])
    ids = [doc_id(u) for u in t["url"].to_pylist()]
    texts = t["extracted_text"].to_pylist()
    oracle = dedup_oracle(ids, texts, min_docs=MIN_DOCS, window=WINDOW)
    exact = sorted((h, d, n) for h, (d, n) in oracle["exact"].items())
    pq.write_table(
        pa.table(
            {
                "content_hash": [r[0] for r in exact],
                "doc_id": pa.array([r[1] for r in exact], pa.int64()),
                "n_copies": pa.array([r[2] for r in exact], pa.int64()),
            }
        ),
        os.path.join(tmp, "oracle_exact.parquet"),
    )
    per = sorted(oracle["dropped"])
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(per, pa.int64()),
                "n_dropped": pa.array([oracle["dropped"][d] for d in per], pa.int64()),
                "n_segs": pa.array([oracle["segments"][d][0] for d in per], pa.int64()),
                "n_kept": pa.array([oracle["segments"][d][1] for d in per], pa.int64()),
                "kept_tokens": pa.array([oracle["segments"][d][2] for d in per], pa.int64()),
            }
        ),
        os.path.join(tmp, "oracle_docs.parquet"),
    )
    _publish(
        tmp,
        final,
        {
            "name": "dedup_extracted",
            "docs": len(ids),
            "distinct_hashes": len(exact),
            "dropped_lines": sum(oracle["dropped"].values()),
            "prepare_s": round(prep_s, 3),
        },
    )


def dedup_oracle(ids: list[int], texts: list[str], *, min_docs: int, window: int) -> dict:
    """Expected outputs of the three dedup ops, in plain Python.

    * exact_dedup: per md5 of the text, (min doc id, copies);
    * strip_repeated_lines_exchange: per doc, the number of non-blank
      lines found in at least ``min_docs`` distinct docs;
    * segment_dedup_stats: per doc, (segments, kept segments, kept
      tokens) under a corpus-wide keep-first by (doc id, segment index)
      over exact ``window``-token segments.
    """
    exact: dict[str, list[int]] = {}
    for d, t in zip(ids, texts):
        h = hashlib.md5(t.encode()).hexdigest()
        rep = exact.setdefault(h, [d, 0])
        rep[0] = min(rep[0], d)
        rep[1] += 1
    line_docs: collections.Counter = collections.Counter()
    for t in texts:
        line_docs.update({ln for ln in t.split("\n") if ln.strip()})
    dropped = {
        d: sum(1 for ln in t.split("\n") if ln.strip() and line_docs[ln] >= min_docs)
        for d, t in zip(ids, texts)
    }
    seen: set[str] = set()
    segs = {}
    for d, t in sorted(zip(ids, texts)):
        n_kept = kept_tokens = 0
        doc_segs = _segments(t, window)
        for seg in doc_segs:
            key = " ".join(seg)
            if key not in seen:
                seen.add(key)
                n_kept += 1
                kept_tokens += len(seg)
        segs[d] = (len(doc_segs), n_kept, kept_tokens)
    return {
        "exact": {h: tuple(v) for h, v in exact.items()},
        "dropped": dropped,
        "segments": segs,
    }
