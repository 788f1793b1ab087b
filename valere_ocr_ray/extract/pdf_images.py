"""Embedded-image extraction from PDFs: the scanned-document leg.

The reference's async Textract flow exists precisely for scanned
(image-only) PDFs — ``IDD/finalcodes/SignedAgreement.py:124-156``
uploads the PDF and lets Textract rasterize + OCR it;
``IDD/MiscTestingScripts/Ethan_PDFandJPG3.py:91-123`` picks sync vs
async by payload kind.  Locally the equivalent is: pull the page's
image XObjects out of the PDF container, decode them with the repo's
from-scratch codecs, and feed the pixels to the glyph-OCR kernel
(``extract/glyph_font.ocr_image``) in ``ocr_pdf_images``.

Supported XObject subset (the scanner-output shapes):

* ``/Filter /DCTDecode`` — the body IS baseline-JPEG bytes
  (``extract/jpeg.decode_jpeg``);
* ``/Filter /FlateDecode`` or no filter — zlib-inflated (or raw)
  8-bit samples, ``/ColorSpace /DeviceRGB`` or ``/DeviceGray``;
* ``/Filter /CCITTFaxDecode`` — all three ``/K`` regimes: Group 4
  (``/K < 0``, the scanner/fax default, ``extract/ccitt.decode_g4``),
  1-D G3 (``/K 0``, ``decode_g3_1d``) and mixed 2-D G3 (``/K > 0``,
  ``decode_g3_mixed``); black runs -> gray 0, so ``/BlackIs1`` bit
  packing never enters;
* ``/Filter /JBIG2Decode`` — embedded-organization JBIG2 segment
  streams (``extract/jbig2``): arithmetic generic regions (MQ coder,
  template 0) and MMR regions both decode; symbol/text/halftone
  segments raise and route to the skip status;
* anything else (JPX, indexed color) comes back as
  ``None`` — *found but undecodable* — so the caller can route the
  row to ``skipped_image_no_ocr`` instead of silently pretending the
  page was blank.
"""

from __future__ import annotations

import re
import zlib

import numpy as np

from valere_ocr_ray.extract import glyph_font
from valere_ocr_ray.extract.image_decode import ImageFormatError
from valere_ocr_ray.extract.pdf_text import _IMAGE_SUBTYPE_RE, iter_streams

_WIDTH_RE = re.compile(rb"/Width\s+(\d+)")
_HEIGHT_RE = re.compile(rb"/Height\s+(\d+)")
_BPC_RE = re.compile(rb"/BitsPerComponent\s+(\d+)")
_COLORSPACE_RE = re.compile(rb"/ColorSpace\s*/(\w+)")
_FILTER_RE = re.compile(rb"/Filter\s*(?:\[\s*)?/(\w+)")
_K_RE = re.compile(rb"/K\s+(-?\d+)")
_COLUMNS_RE = re.compile(rb"/Columns\s+(\d+)")


def _decode_xobject(dct: bytes, body: bytes) -> np.ndarray:
    wm, hm = _WIDTH_RE.search(dct), _HEIGHT_RE.search(dct)
    if not wm or not hm:
        raise ImageFormatError("image XObject missing /Width or /Height")
    w, h = int(wm.group(1)), int(hm.group(1))
    if w <= 0 or h <= 0:
        raise ImageFormatError("degenerate XObject dimensions")
    fm = _FILTER_RE.search(dct)
    filt = fm.group(1) if fm else None
    if filt == b"DCTDecode":
        from valere_ocr_ray.extract.jpeg import decode_jpeg

        px = decode_jpeg(body)
        if px.shape[:2] != (h, w):
            raise ImageFormatError("DCTDecode geometry mismatch with dict")
        return px
    if filt == b"CCITTFaxDecode":
        # scanner/fax bilevel pages: G4 (/K < 0, the scanner default),
        # 1-D G3 (/K 0) and mixed 2-D G3 (/K > 0) all decode for real
        from valere_ocr_ray.extract.ccitt import (
            decode_g3_1d,
            decode_g3_mixed,
            decode_g4,
        )

        km = _K_RE.search(dct)
        k = int(km.group(1)) if km else 0
        colm = _COLUMNS_RE.search(dct)
        cols = int(colm.group(1)) if colm else 1728
        if cols != w:
            raise ImageFormatError("CCITTFax Columns mismatch with /Width")
        byte_align = b"/EncodedByteAlign true" in dct
        if k < 0:
            ink = decode_g4(body, w, h)
        elif k == 0:
            ink = decode_g3_1d(body, w, h, byte_align=byte_align)
        else:
            ink = decode_g3_mixed(body, w, h, byte_align=byte_align)
        gray = np.where(ink, 0, 255).astype(np.uint8)
        return np.repeat(gray[:, :, None], 3, axis=2)
    if filt == b"JBIG2Decode":
        # scanner bilevel pages, the post-CCITT default (T.88): the
        # body is an embedded-organization segment stream
        from valere_ocr_ray.extract.jbig2 import decode_jbig2_embedded

        ink = decode_jbig2_embedded(body, w, h)
        gray = np.where(ink, 0, 255).astype(np.uint8)
        return np.repeat(gray[:, :, None], 3, axis=2)
    bm = _BPC_RE.search(dct)
    if bm and int(bm.group(1)) != 8:
        raise ImageFormatError(f"unsupported BitsPerComponent {bm.group(1)!r}")
    cm = _COLORSPACE_RE.search(dct)
    cs = cm.group(1) if cm else b"DeviceRGB"
    if cs == b"DeviceRGB":
        ch = 3
    elif cs == b"DeviceGray":
        ch = 1
    else:
        raise ImageFormatError(f"unsupported ColorSpace /{cs.decode()}")
    if filt == b"FlateDecode":
        try:
            raw = zlib.decompress(body)
        except zlib.error as exc:
            raise ImageFormatError(f"corrupt FlateDecode image: {exc}") from exc
    elif filt is None:
        raw = body
    else:
        raise ImageFormatError(f"unsupported image Filter /{filt.decode()}")
    need = w * h * ch
    if len(raw) < need:
        raise ImageFormatError("truncated image samples")
    arr = np.frombuffer(raw, dtype=np.uint8, count=need).reshape(h, w, ch)
    if ch == 1:
        return np.repeat(arr, 3, axis=2)
    return arr.copy()


def extract_pdf_images(pdf_bytes: bytes) -> list[np.ndarray | None]:
    """All image XObjects in document order; ``None`` marks an image
    that was FOUND but has no local decoder (the skip status), so
    "scanned page we couldn't read" is distinguishable from "page with
    no images at all" (empty list)."""
    out: list[np.ndarray | None] = []
    for dct, s, e in iter_streams(pdf_bytes):
        if not _IMAGE_SUBTYPE_RE.search(dct):
            continue
        try:
            out.append(_decode_xobject(dct, pdf_bytes[s:e]))
        except ImageFormatError:
            out.append(None)
    return out


def ocr_pdf_images(pdf_bytes: bytes) -> tuple[str, int, int]:
    """OCR every decodable embedded image with ``glyph_font.ocr_image``
    (looked up per call) → ``(text, n_found, n_decoded)``; pages join
    with ``"\\n"`` per the pinned flat-text contract."""
    imgs = extract_pdf_images(pdf_bytes)
    texts = [glyph_font.ocr_image(im) for im in imgs if im is not None]
    n_decoded = sum(1 for im in imgs if im is not None)
    return "\n".join(t for t in texts if t), len(imgs), n_decoded


__all__ = ["extract_pdf_images", "ocr_pdf_images"]
