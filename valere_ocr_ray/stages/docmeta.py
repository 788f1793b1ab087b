"""Docmeta projection + admission filters (SURVEY.md §2.1 S4, §2.2 F1-F3).

A stateless ``map_batches`` stage (no init cost → plain function, not
an actor).  Arrow in / Arrow out; the vectorizable parts use
``pyarrow.compute`` kernels, the md5 hashing loops over zero-copy
buffer views (no Arrow kernel exists for it — few µs per KB row).

Replaces the reference's per-object ``head_object`` metadata fetch
(``IDD/finalcodes/InsuranceCard1.py:80-81``), extension gate
(``:83-84``), 10 MiB size cap (``:23,86-87``) and hard-coded key
blocklist (``IDD/finalcodes/Prescription2.py:97-101``).  Skipped rows
are *routed*, not dropped: they carry ``status != 'ok'`` to the sink
so lineage accounts for every input row (north_rule skew guard).
"""

from __future__ import annotations

import hashlib

import pyarrow as pa
import pyarrow.compute as pc

from valere_ocr_ray import HEAVY_DOC_BYTES, MAX_DOC_BYTES
from valere_ocr_ray.sources.synth import BLOCKLIST_TOKENS

STATUS_OK = "ok"
STATUS_BLOCKLISTED = "skipped_blocklisted"
STATUS_TOO_LARGE = "skipped_too_large"
STATUS_UNPARSEABLE = "error_unparseable"

KIND_HTML = "html"
KIND_PDF = "pdf"
KIND_IMAGE = "image"
KIND_UNKNOWN = "unknown"


def _sniff_kinds(html: pa.BinaryArray) -> pa.Array:
    """Magic-byte doc-kind sniff (the extension-predicate analog F1),
    fully vectorized (``pc.binary_slice`` prefix compares — the former
    per-row python loop over buffer heads was the one scalar loop in
    this stage).  Image magics (PNG/JPEG/BMP/PPM) are recognized and
    ROUTED as ``doc_kind='image'`` — the reference's dominant inputs
    are JPG/PNG through Textract (``InsuranceCard1.py:83-84``); with
    no OCR backend the parse stage records ``skipped_image_no_ocr``,
    so a future decoder slots in without a schema change."""

    def _prefix_is(n: int, lit: bytes) -> pa.Array:
        m = pc.equal(pc.binary_slice(html, 0, n), lit)
        return pc.fill_null(m, False)

    is_pdf = _prefix_is(5, b"%PDF-")
    head1 = pc.binary_slice(html, 0, 1)
    is_html = pc.fill_null(
        pc.or_(pc.equal(head1, b"<"), pc.equal(head1, b"\xef")), False
    )
    is_image = _prefix_is(4, b"\x89PNG")
    for n, lit in (
        (3, b"\xff\xd8\xff"),
        (2, b"BM"),
        (2, b"P6"),
        (4, b"II*\x00"),
        (4, b"MM\x00*"),
        (6, b"GIF87a"),
        (6, b"GIF89a"),
    ):
        is_image = pc.or_(is_image, _prefix_is(n, lit))
    # WebP: RIFF container with a WEBP form tag at offset 8
    is_webp = pc.and_(
        _prefix_is(4, b"RIFF"),
        pc.fill_null(
            pc.equal(pc.binary_slice(html, 8, 12), b"WEBP"), False
        ),
    )
    is_image = pc.or_(is_image, is_webp)

    kind = pa.array([KIND_UNKNOWN] * len(html), pa.string())
    kind = pc.if_else(is_image, KIND_IMAGE, kind)
    kind = pc.if_else(is_html, KIND_HTML, kind)
    kind = pc.if_else(is_pdf, KIND_PDF, kind)
    return kind


def _md5_hex(html: pa.BinaryArray) -> pa.Array:
    return pa.array(
        [
            hashlib.md5(v.as_buffer()).hexdigest() if v.is_valid else ""
            for v in html
        ],
        pa.string(),
    )


def _url_hash(urls: pa.StringArray) -> pa.Array:
    # stable 64-bit key for partitioning (md5 prefix, SURVEY.md §7.3)
    return pa.array(
        [
            int.from_bytes(hashlib.md5(u.encode()).digest()[:8], "big") >> 1
            for u in urls.to_pylist()
        ],
        pa.int64(),
    )


def docmeta_batch(
    batch: pa.Table,
    *,
    max_doc_bytes: int = MAX_DOC_BYTES,
) -> pa.Table:
    html = batch["html"].combine_chunks()
    urls = batch["url"].combine_chunks()

    size = pc.binary_length(html).cast(pa.int64())
    kind = _sniff_kinds(html)
    heavy = pc.greater(size, HEAVY_DOC_BYTES)

    # status resolution, cheapest check first; precedence: blocklist >
    # size cap > kind sniff (mirrors the reference's filter order E1)
    low_urls = pc.utf8_lower(urls)
    blocked = pa.array([False] * len(batch), pa.bool_())
    for token in BLOCKLIST_TOKENS:
        blocked = pc.or_(blocked, pc.match_substring(low_urls, token))
    too_large = pc.greater(size, max_doc_bytes)
    unknown = pc.equal(kind, KIND_UNKNOWN)

    status = pa.array([STATUS_OK] * len(batch), pa.string())
    status = pc.if_else(unknown, STATUS_UNPARSEABLE, status)
    status = pc.if_else(too_large, STATUS_TOO_LARGE, status)
    status = pc.if_else(blocked, STATUS_BLOCKLISTED, status)

    return (
        batch.append_column("size_bytes", size)
        .append_column("doc_kind", kind)
        .append_column("heavy", heavy)
        .append_column("url_hash", _url_hash(urls))
        .append_column("content_hash", _md5_hex(html))
        .append_column("status", status)
    )
