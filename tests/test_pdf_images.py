"""Scanned-PDF leg: image-XObject extraction + OCR routing — the
reference's async-Textract case (``IDD/finalcodes/SignedAgreement.py:
124-156``) run locally through the from-scratch decoders + glyph OCR."""

import pyarrow as pa
import pytest

from valere_ocr_ray.extract.glyph_font import canonical_text
from valere_ocr_ray.extract.pdf_images import extract_pdf_images, ocr_pdf_images
from valere_ocr_ray.extract.pdf_text import extract_pdf_text
from valere_ocr_ray.sources.synth import build_pdf_bytes, build_scanned_pdf_bytes
from valere_ocr_ray.stages.extractor import extract_pages_batch

LINES = ["SCAN TEST PAGE", "MEMBER: A100", "signature"]


@pytest.mark.parametrize("codec", ["jpeg", "flate", "flate_gray", "raw"])
def test_scanned_pdf_ocr_byte_stable(codec):
    pdf = build_scanned_pdf_bytes(LINES, codec=codec)
    assert extract_pdf_text(pdf) == ""  # no text objects
    imgs = extract_pdf_images(pdf)
    assert len(imgs) == 1 and imgs[0] is not None
    text, n_found, n_dec = ocr_pdf_images(pdf)
    assert (n_found, n_dec) == (1, 1)
    assert text == canonical_text(LINES)


def test_text_pdf_has_no_images_and_keeps_text():
    pdf = build_pdf_bytes(["HELLO", "WORLD"], flate=True)
    assert extract_pdf_images(pdf) == []
    assert extract_pdf_text(pdf) == "HELLO\nWORLD"


def test_undecodable_embedded_image_is_found_not_decoded():
    # CCITTFax-filtered XObject: found (None), not decoded — the caller
    # routes to skipped_image_no_ocr instead of claiming a blank page
    pdf = build_scanned_pdf_bytes(LINES, codec="raw")
    pdf = pdf.replace(b" /BitsPerComponent 8", b" /BitsPerComponent 8 /Filter /CCITTFaxDecode")
    imgs = extract_pdf_images(pdf)
    assert imgs == [None]
    text, n_found, n_dec = ocr_pdf_images(pdf)
    assert (text, n_found, n_dec) == ("", 1, 0)


def _run_extractor(payloads):
    batch = pa.table(
        {
            "url": pa.array([f"https://x.example/{k}.pdf" for k in range(len(payloads))]),
            "html": pa.array(payloads, pa.binary()),
            "doc_kind": pa.array(["pdf"] * len(payloads)),
            "status": pa.array(["ok"] * len(payloads)),
        }
    )
    return extract_pages_batch(batch)


def test_extractor_routes_scanned_and_undecodable_pdfs():
    scanned = build_scanned_pdf_bytes(LINES, codec="flate")
    ccitt = scanned.replace(
        b" /Filter /FlateDecode", b" /Filter /CCITTFaxDecode"
    )
    texty = build_pdf_bytes(["PLAIN TEXT PDF"])
    out = _run_extractor([scanned, ccitt, texty])
    texts = out["extracted_text"].to_pylist()
    statuses = out["status"].to_pylist()
    assert texts[0] == canonical_text(LINES) and statuses[0] == "ok"
    assert texts[1] == "" and statuses[1] == "skipped_image_no_ocr"
    assert texts[2] == "PLAIN TEXT PDF" and statuses[2] == "ok"
