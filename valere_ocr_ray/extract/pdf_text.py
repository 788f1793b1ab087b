"""Deterministic pure-python PDF text extraction (layout-parse path).

Replaces the reference's PDF paths — PyPDF2 page-loop text reads
(``IDD/MiscTestingScripts/Ethan_PDFandJPG3.py:64-84``) and the async
Textract document-analysis flow
(``IDD/finalcodes/SignedAgreement.py:124-156``) — with a minimal,
dependency-free parser over PDF content streams (pdfminer/PyPDF2 are
not available in this environment; an OCR engine for scanned pages
plugs in through ``stages/extractor.PageExtractor(ocr_seam=…)``).

Supported subset (sufficient for the synthetic corpus and any
uncompressed text-object PDF):

* uncompressed content streams (``stream``/``endstream``, no
  ``/FlateDecode``) — compressed streams yield no text (→ the caller
  records a parse-status, never crashes);
* text objects ``BT … ET`` with ``(…) Tj`` and ``[(…) …] TJ`` show
  operators; each show operator emits one line;
* string escapes ``\\( \\) \\\\ \\n \\r \\t`` and 1-3 digit octal.

Pinned contract: lines join with ``"\\n"``; pages (text objects in
stream order) join with ``"\\n"`` as well — mirroring the reference's
``"\\n\\n"``-free flat-text join used for pattern matching.
"""

from __future__ import annotations

import re
import zlib

# /FlateDecode stream location: the stream keyword's preceding dict is
# parsed with a small <<…>>-depth-aware backward scanner (a flat regex
# breaks on any '>' inside the dict — nested <<…>> DecodeParms, hex
# strings, arrays — silently losing text; ADVICE r1), and the body end
# comes from /Length when present (a coincidental 'endstream' byte
# sequence inside compressed data cannot truncate it), falling back to
# the literal endstream search only when /Length is absent or stale.
_STREAM_KW_RE = re.compile(rb"stream\r?\n")
_FLATE_IN_FILTER_RE = re.compile(
    rb"/Filter\s*(?:\[[^\]]*/FlateDecode|/FlateDecode)"
)
# direct /Length only — '/Length 5 0 R' is an indirect reference
_LENGTH_RE = re.compile(rb"/Length\s+(\d+)(?!\s*\d+\s*R)")
_ENDSTREAM_RE = re.compile(rb"\s*endstream")
_IMAGE_SUBTYPE_RE = re.compile(rb"/Subtype\s*/Image\b")


def _dict_before(data: bytes, pos: int) -> tuple[int, int] | None:
    """Span of the ``<<…>>`` dict whose close immediately precedes
    ``pos`` (skipping whitespace), tracking << / >> nesting depth so
    nested dicts and single ``<``/``>`` (hex strings) don't confuse
    the match.  Returns None when no well-formed dict is there."""
    i = pos
    while i > 0 and data[i - 1 : i] in (b" ", b"\t", b"\r", b"\n"):
        i -= 1
    if data[i - 2 : i] != b">>":
        return None
    depth = 0
    j = i
    while j >= 2:
        two = data[j - 2 : j]
        if two == b">>":
            depth += 1
            j -= 2
        elif two == b"<<":
            depth -= 1
            j -= 2
            if depth == 0:
                return (j, i)
        else:
            j -= 1
    return None


def iter_streams(data: bytes) -> list[tuple[bytes, int, int]]:
    """Every well-formed ``<<…>> stream … endstream`` in the document →
    ``(dict_bytes, body_start, body_end)``, body end resolved via
    /Length when present (compressed bodies can coincidentally contain
    the ``endstream`` byte sequence) else the literal search."""
    out: list[tuple[bytes, int, int]] = []
    for m in _STREAM_KW_RE.finditer(data):
        d = _dict_before(data, m.start())
        if d is None:
            continue
        dct = data[d[0] : d[1]]
        start = m.end()
        end = -1
        lm = _LENGTH_RE.search(dct)
        if lm:
            cand = start + int(lm.group(1))
            if cand <= len(data) and _ENDSTREAM_RE.match(data, cand):
                end = cand
        if end < 0:  # /Length absent or stale → literal search
            es = data.find(b"endstream", start)
            if es == -1:
                continue
            end = es
        out.append((dct, start, end))
    return out


def _find_flate_spans(data: bytes) -> list[tuple[int, int]]:
    """(body_start, body_end) spans of FlateDecode NON-IMAGE stream
    bodies (image XObjects are pixels, not content-stream text — they
    go through ``pdf_images.extract_pdf_images`` instead)."""
    return [
        (s, e)
        for dct, s, e in iter_streams(data)
        if _FLATE_IN_FILTER_RE.search(dct) and not _IMAGE_SUBTYPE_RE.search(dct)
    ]

_TEXTOBJ_RE = re.compile(rb"BT(.*?)ET", re.DOTALL)
_SHOW_RE = re.compile(rb"\((?:[^()\\]|\\.)*\)\s*Tj|\[(?:[^\[\]\\]|\\.)*\]\s*TJ", re.DOTALL)
_STR_RE = re.compile(rb"\((?:[^()\\]|\\.)*\)", re.DOTALL)
_ESC_RE = re.compile(rb"\\([0-7]{1,3}|.)", re.DOTALL)

_ESCAPES = {
    b"n": b"\n", b"r": b"\r", b"t": b"\t", b"b": b"\b", b"f": b"\f",
    b"(": b"(", b")": b")", b"\\": b"\\",
}


def _unescape(raw: bytes) -> bytes:
    def sub(m: re.Match[bytes]) -> bytes:
        g = m.group(1)
        if g.isdigit() and all(c in b"01234567" for c in g):
            return bytes([int(g, 8) & 0xFF])
        return _ESCAPES.get(g, g)

    return _ESC_RE.sub(sub, raw)


def _collect_text(data: bytes, lines: list[str]) -> None:
    for textobj in _TEXTOBJ_RE.finditer(data):
        for show in _SHOW_RE.finditer(textobj.group(1)):
            parts = [
                _unescape(s.group(0)[1:-1]) for s in _STR_RE.finditer(show.group(0))
            ]
            line = b"".join(parts).decode("utf-8", errors="replace")
            if line.strip():
                lines.append(line.strip())


def extract_pdf_text(pdf_bytes: bytes) -> str:
    """PDF bytes → text per the pinned contract; '' when no text objects.

    Text objects are scanned both in plain content (uncompressed
    streams) and inside inflated ``/FlateDecode`` streams (stdlib
    ``zlib``; undecodable streams are skipped, never raised) — plain
    content first, then Flate streams in document order."""
    lines: list[str] = []
    flate = _find_flate_spans(pdf_bytes)
    # image XObject bodies are pixel data — blank them out of the plain
    # scan (raw samples / JPEG entropy bytes can coincidentally match
    # BT…ET and yield junk lines); same reason flate bodies are blanked
    image_spans = [
        (s, e)
        for dct, s, e in iter_streams(pdf_bytes)
        if _IMAGE_SUBTYPE_RE.search(dct)
    ]
    if flate or image_spans:
        plain = bytearray(pdf_bytes)
        for s, e in flate + image_spans:
            plain[s:e] = b" " * (e - s)
        _collect_text(bytes(plain), lines)
        for s, e in flate:
            try:
                _collect_text(zlib.decompress(pdf_bytes[s:e]), lines)
            except zlib.error:
                continue
    else:
        _collect_text(pdf_bytes, lines)
    return "\n".join(lines)
