"""Docmeta stage unit tests: vectorized kind sniff + image routing."""

import pyarrow as pa

from valere_ocr_ray.stages.docmeta import (
    KIND_HTML,
    KIND_IMAGE,
    KIND_PDF,
    KIND_UNKNOWN,
    docmeta_batch,
)


def _batch(payloads, urls=None):
    urls = urls or [f"https://x.example/{i}" for i in range(len(payloads))]
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "html": pa.array(payloads, pa.binary()),
        }
    )


def test_sniff_kinds_vectorized():
    out = docmeta_batch(
        _batch(
            [
                b"<html><p>hi</p></html>",
                b"\xef\xbb\xbf<html>bom</html>",
                b"%PDF-1.4 whatever",
                b"\x89PNG\r\n\x1a\n....",
                b"\xff\xd8\xff\xe0JFIF",
                b"BM1234567890",
                b"P6\n2 2\n255\n" + b"\x00" * 12,
                b"random garbage bytes",
                b"",
            ]
        )
    )
    kinds = out["doc_kind"].to_pylist()
    assert kinds == [
        KIND_HTML, KIND_HTML, KIND_PDF,
        KIND_IMAGE, KIND_IMAGE, KIND_IMAGE, KIND_IMAGE,
        KIND_UNKNOWN, KIND_UNKNOWN,
    ]
    status = out["status"].to_pylist()
    # image rows are ADMITTED (routed downstream), unknown is unparseable
    assert status[3] == "ok" and status[4] == "ok"
    assert status[7] == "error_unparseable" and status[8] == "error_unparseable"


def test_image_rows_route_to_ocr_seam():
    from valere_ocr_ray.stages.extractor import (
        STATUS_SKIPPED_NO_OCR,
        extract_pages_batch,
    )

    batch = docmeta_batch(_batch([b"\x89PNG\r\n\x1a\nxxxx", b"<p>ok</p>"]))
    out = extract_pages_batch(batch)
    assert out["status"].to_pylist() == [STATUS_SKIPPED_NO_OCR, "ok"]
    assert out["extracted_text"].to_pylist()[0] == ""


def test_image_rows_use_plugged_ocr(monkeypatch):
    """The parse stage looks its OCR kernels up on ``glyph_font`` per
    call, so a kernel swapped onto the module (a real OCR model, or a
    tracer's wrapper) serves image rows and images inside PDFs."""
    from valere_ocr_ray.extract import glyph_font
    from valere_ocr_ray.sources.synth import build_scanned_pdf_bytes
    from valere_ocr_ray.stages.extractor import extract_pages_batch

    monkeypatch.setattr(glyph_font, "ocr_image_bytes", lambda payload: "ocr text here")
    monkeypatch.setattr(glyph_font, "ocr_image", lambda pixels: "scan text here")
    scanned = build_scanned_pdf_bytes(["SCAN"], codec="flate")
    batch = docmeta_batch(_batch([b"BM-fake-bitmap-bytes", scanned]))
    out = extract_pages_batch(batch)
    assert out["status"].to_pylist() == ["ok", "ok"]
    assert out["extracted_text"].to_pylist() == ["ocr text here", "scan text here"]
    assert out["ocr_used"].to_pylist() == [True, True]
