"""Extraction stages: text parse + field extraction.

``extract_pages_batch`` is the parse stage of the north-star — the HTML
DOM walker, PDF parser and raster OCR run as one task-pool
``map_batches(extract_pages_batch, batch_format="pyarrow")``.  It
replaces the reference's per-document Textract calls (sync
``analyze_document``, ``IDD/finalcodes/InsuranceCard1.py:89-109``; async
``start_document_analysis`` + poll, ``SignedAgreement.py:124-156``)
with deterministic local parsing.  Per-row data errors become
``status='error_parse'`` rows — the reference's skip-on-exception
semantics (``InsuranceCard2.py:164-172``) — never task failures, so Ray
retries stay idempotent.

``extract_fields_batch`` (classification C1-C3 + field batteries
F9-F13 + rules §2.8 + confidence A1/A2) is a plain function too: its
regexes compile at module import, once per worker process, so neither
stage needs actor state.
"""

from __future__ import annotations

import json

import pyarrow as pa

from valere_ocr_ray.extract import glyph_font
from valere_ocr_ray.extract.html_text import extract_main_text_meta
from valere_ocr_ray.extract.image_decode import ImageFormatError
from valere_ocr_ray.extract.pdf_images import ocr_pdf_images
from valere_ocr_ray.extract.pdf_text import extract_pdf_text
from valere_ocr_ray.registry.extractors import extract_document
from valere_ocr_ray.stages.docmeta import (
    KIND_HTML,
    KIND_IMAGE,
    KIND_PDF,
    STATUS_OK,
)

STATUS_ERROR_PARSE = "error_parse"
# image payload admitted but its FORMAT has no decoder behind the OCR
# kernel (inside PDFs: JPX/JPEG2000 only) — routed, not dropped.  All
# eight raster containers (BMP/PPM/PNG/JPEG baseline+progressive/TIFF/
# GIF/WebP VP8L+lossy-VP8, ``extract/image_decode.py`` dispatch) and
# PDF-embedded DCTDecode/Flate/CCITT-G3-G4/JBIG2 scans
# (``extract/pdf_images.py``) go through the real glyph-template OCR
# (``extract/glyph_font``) and come back 'ok'
STATUS_SKIPPED_NO_OCR = "skipped_image_no_ocr"

SPAN_TYPE = pa.list_(
    pa.struct(
        [
            ("field", pa.string()),
            ("value", pa.string()),
            ("start", pa.int64()),
            ("end", pa.int64()),
        ]
    )
)


def extract_pages_batch(batch: pa.Table) -> pa.Table:
    """html/pdf/image binary → ``extracted_text`` (large_string) +
    ``sig_tier`` + ``ocr_used`` + parse status.

    Routing on ``doc_kind`` happens per row *inside* the batch (single
    pass over the input — splitting into filtered sub-pipelines would
    re-execute the upstream read per branch).  The parser "state"
    (walker tables, compiled regex battery, glyph templates) lives at
    module level, so it is built once per worker process, and the
    task pool reuses the session's warm workers.  Each parser and OCR
    kernel is looked up when it is called (``glyph_font.ocr_image_bytes``
    here, ``glyph_font.ocr_image`` inside ``ocr_pdf_images``), so a
    wrapper swapped onto the module sees every call.
    """
    html = batch["html"].combine_chunks()
    kinds = batch["doc_kind"].to_pylist()
    statuses = batch["status"].to_pylist()

    texts: list[str] = []
    out_status: list[str] = []
    sig_tiers: list[int] = []
    ocr_used: list[bool] = []
    for i, (kind, status) in enumerate(zip(kinds, statuses)):
        if status != STATUS_OK:
            texts.append("")
            out_status.append(status)
            sig_tiers.append(0)
            ocr_used.append(False)
            continue
        payload = html[i].as_buffer().to_pybytes()
        try:
            sig_tier = 0
            row_status = STATUS_OK
            row_ocr = False
            if kind == KIND_PDF:
                text = extract_pdf_text(payload)
                if not text:
                    # scanned PDF: no text objects → OCR the embedded
                    # image XObjects (the reference's async-Textract
                    # path; DCT/Flate/CCITT/JBIG2 all decode).  Images
                    # found but none decodable (JPX-class) routes to the
                    # skip status — "couldn't read the scan" is not
                    # "blank page".
                    text, n_found, n_decoded = ocr_pdf_images(payload)
                    if n_found and not n_decoded:
                        row_status = STATUS_SKIPPED_NO_OCR
                    row_ocr = n_decoded > 0
            elif kind == KIND_HTML:
                text, sig_tier = extract_main_text_meta(payload)
            elif kind == KIND_IMAGE:
                # decodable rasters come back as text; codec-less
                # formats carry a skip status, never vanish
                try:
                    text = glyph_font.ocr_image_bytes(payload)
                    row_ocr = True
                except ImageFormatError:
                    text = ""
                    row_status = STATUS_SKIPPED_NO_OCR
            else:
                text = ""
            texts.append(text)
            out_status.append(row_status)
            sig_tiers.append(sig_tier)
            ocr_used.append(row_ocr)
        except Exception:
            texts.append("")
            out_status.append(STATUS_ERROR_PARSE)
            sig_tiers.append(0)
            ocr_used.append(False)

    out = batch.drop_columns(["html", "status"])  # bytes stop here
    return (
        out.append_column("extracted_text", pa.array(texts, pa.large_string()))
        .append_column("sig_tier", pa.array(sig_tiers, pa.int32()))
        .append_column("ocr_used", pa.array(ocr_used, pa.bool_()))
        .append_column("status", pa.array(out_status, pa.string()))
    )


def extract_fields_batch(batch: pa.Table) -> pa.Table:
    """classify + field extraction per row (module-level compiled regexes)."""
    urls = batch["url"].to_pylist()
    texts = batch["extracted_text"].to_pylist()
    statuses = batch["status"].to_pylist()
    sig_tiers = batch["sig_tier"].to_pylist()

    doc_types: list[str] = []
    fields_json: list[str] = []
    confidences: list[float] = []
    spans: list[list[dict]] = []
    for url, text, status, sig_tier in zip(urls, texts, statuses, sig_tiers):
        if status != STATUS_OK:
            doc_types.append("UNKNOWN")
            fields_json.append(json.dumps({}))
            confidences.append(0.0)
            spans.append([])
            continue
        rec = extract_document(url, text, sig_tier=sig_tier or 0)
        doc_types.append(rec["doc_type"])
        fields_json.append(rec["fields_json"])
        confidences.append(float(rec["confidence"]))
        spans.append(rec["spans"])

    return (
        batch.append_column("doc_type", pa.array(doc_types, pa.string()))
        .append_column("fields_json", pa.array(fields_json, pa.string()))
        .append_column("confidence", pa.array(confidences, pa.float64()))
        .append_column("spans", pa.array(spans, SPAN_TYPE))
    )
