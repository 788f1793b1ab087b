"""JBIG2 (ITU-T T.88) — the scanner/fax bilevel codec inside PDF
``/JBIG2Decode`` streams: MQ arithmetic coder + generic-region decode,
plus the encoder twin used to synthesize fixtures.

The reference's Textract path reads *any* scan
(``IDD/finalcodes/SignedAgreement.py:124-156``); after CCITT, JBIG2 is
the dominant codec real fax/scanner PDFs carry (VERDICT r4 item 2),
so the local OCR leg needs it for parity.  Scope is the
scanner-default subset:

* **MQ coder** (T.88 Annex E; the identical coder appears in JPEG 2000
  Annex C) — 47-state Qe table, decoder AND encoder, with the 0xFF
  byte-stuffing rules; reading past the end of data feeds 0xFF bytes
  per the spec's marker convention.
* **Generic region decoding** (T.88 §6.2) — all four arithmetic
  templates: template 0 with nominal AT pixels (the layout every
  scanner encoder emits) on a fast incremental-context path, and
  templates 0-3 with ANY causal AT layout on a template-list path;
  TPGDON (typical-prediction) row-copy supported; ``MMR=1`` regions
  route to the existing T.6 decoder (``extract/ccitt.decode_g4``).
* **Symbol coding** (§6.4/§6.5) — what SOFTWARE encoders
  (jbig2enc/pdfbox) emit for text pages: symbol dictionaries
  (arithmetic, height classes, shared generic-coding state across the
  dict's bitmaps) and text regions (Annex-A integer decoding for
  DT/FS/DS, IAID symbol-id trees, strip placement, left reference
  corners), plus the encoder twin ``encode_jbig2_symbol_page``.
* **PDF-embedded segment stream** (T.88 Annex, "embedded organization"
  — no file header): segment headers, page info, generic regions
  (36/38/39), symbol dictionaries (0), text regions (4/6/7),
  end-of-page/stripe/file skipped.  Huffman-coded / halftone /
  refinement segments raise ``ImageFormatError`` —
  found-but-undecodable routes to the OCR seam's skip status, it is
  never mistaken for a blank page.

Bit layout of the template-0 context (16 bits, MSB first):
``[y-2: x-2..x+2][y-1: x-3..x+3][y: x-4..x-1]`` — the ordering under
which the spec's SLTP pseudo-pixel context is the published 0x9B25.
"""

from __future__ import annotations

import struct

import numpy as np

from valere_ocr_ray.extract.image_decode import ImageFormatError

# T.88 Table E.1 (== JPEG 2000 Table C.2): (Qe, NMPS, NLPS, SWITCH)
_QE = [
    (0x5601, 1, 1, 1), (0x3401, 2, 6, 0), (0x1801, 3, 9, 0),
    (0x0AC1, 4, 12, 0), (0x0521, 5, 29, 0), (0x0221, 38, 33, 0),
    (0x5601, 7, 6, 1), (0x5401, 8, 14, 0), (0x4801, 9, 14, 0),
    (0x3801, 10, 14, 0), (0x3001, 11, 17, 0), (0x2401, 12, 18, 0),
    (0x1C01, 13, 20, 0), (0x1601, 29, 21, 0), (0x5601, 15, 14, 1),
    (0x5401, 16, 14, 0), (0x5101, 17, 15, 0), (0x4801, 18, 16, 0),
    (0x3801, 19, 17, 0), (0x3401, 20, 18, 0), (0x3001, 21, 19, 0),
    (0x2801, 22, 19, 0), (0x2401, 23, 20, 0), (0x2201, 24, 21, 0),
    (0x1C01, 25, 22, 0), (0x1801, 26, 23, 0), (0x1601, 27, 24, 0),
    (0x1401, 28, 25, 0), (0x1201, 29, 26, 0), (0x1101, 30, 27, 0),
    (0x0AC1, 31, 28, 0), (0x09C1, 32, 29, 0), (0x08A1, 33, 30, 0),
    (0x0521, 34, 31, 0), (0x0441, 35, 32, 0), (0x02A1, 36, 33, 0),
    (0x0221, 37, 34, 0), (0x0141, 38, 35, 0), (0x0111, 39, 36, 0),
    (0x0085, 40, 37, 0), (0x0049, 41, 38, 0), (0x0025, 42, 39, 0),
    (0x0015, 43, 40, 0), (0x0009, 44, 41, 0), (0x0005, 45, 42, 0),
    (0x0001, 45, 43, 0), (0x5601, 46, 46, 0),
]
_QE_Q = [q for q, _, _, _ in _QE]
_QE_NMPS = [n for _, n, _, _ in _QE]
_QE_NLPS = [n for _, _, n, _ in _QE]
_QE_SW = [s for _, _, _, s in _QE]

# SLTP (typical-prediction) pseudo-pixel contexts per template (T.88
# §6.2.5.7); only template 0 is exercised here
_SLTP_CTX = {0: 0x9B25, 1: 0x0795, 2: 0x00E5, 3: 0x0195}


class MQDecoder:
    """T.88 §E.3 software-conventions decoder.  Context state lives in
    caller-owned arrays ``icx``/``mpscx`` so one decoder can serve any
    number of context labels."""

    __slots__ = ("data", "bp", "c", "a", "ct", "n", "past")

    # 1-bit fills past the data's end (or a marker) before it counts as
    # exhausted: a flushed stream needs a few, a corrupt one would spin
    SLACK = 16

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.n = len(data)
        self.bp = 0
        self.past = 0
        b0 = data[0] if self.n else 0xFF
        self.c = b0 << 16
        self._bytein()
        self.c = (self.c << 7) & 0xFFFFFFFF
        self.ct -= 7
        self.a = 0x8000

    def _byte(self, i: int) -> int:
        return self.data[i] if i < self.n else 0xFF

    def _bytein(self) -> None:
        if self._byte(self.bp) == 0xFF:
            if self._byte(self.bp + 1) > 0x8F:
                self.past += 1
                if self.past > self.SLACK:
                    raise ImageFormatError("JBIG2 arithmetic data exhausted")
                self.c += 0xFF00
                self.ct = 8
            else:
                self.bp += 1
                self.c += self._byte(self.bp) << 9
                self.ct = 7
        else:
            self.bp += 1
            self.c += self._byte(self.bp) << 8
            self.ct = 8

    def decode(self, icx: list, mpscx: list, cx: int) -> int:
        i = icx[cx]
        qe = _QE_Q[i]
        self.a -= qe
        if ((self.c >> 16) & 0xFFFF) < qe:
            # LPS exchange path
            if self.a < qe:
                d = mpscx[cx]
                icx[cx] = _QE_NMPS[i]
            else:
                d = 1 - mpscx[cx]
                if _QE_SW[i]:
                    mpscx[cx] = 1 - mpscx[cx]
                icx[cx] = _QE_NLPS[i]
            self.a = qe
        else:
            self.c -= qe << 16
            if self.a & 0x8000:
                return mpscx[cx]
            if self.a < qe:
                d = 1 - mpscx[cx]
                if _QE_SW[i]:
                    mpscx[cx] = 1 - mpscx[cx]
                icx[cx] = _QE_NLPS[i]
            else:
                d = mpscx[cx]
                icx[cx] = _QE_NMPS[i]
        # RENORMD
        while True:
            if self.ct == 0:
                self._bytein()
            self.a = (self.a << 1) & 0xFFFF
            self.c = (self.c << 1) & 0xFFFFFFFF
            self.ct -= 1
            if self.a & 0x8000:
                break
        return d


class MQEncoder:
    """T.88 §E.2 encoder (the fixture twin)."""

    __slots__ = ("out", "c", "a", "ct", "b_valid")

    def __init__(self) -> None:
        self.out = bytearray()
        self.c = 0
        self.a = 0x8000
        self.ct = 12
        self.b_valid = False  # no byte emitted yet

    def _byteout(self) -> None:
        if self.b_valid and self.out and self.out[-1] == 0xFF:
            self.out.append((self.c >> 20) & 0xFF)
            self.c &= 0xFFFFF
            self.ct = 7
        else:
            if self.c < 0x8000000:
                self.out.append((self.c >> 19) & 0xFF)
                self.c &= 0x7FFFF
                self.ct = 8
            else:
                if self.b_valid:
                    self.out[-1] += 1
                    if self.out[-1] == 0xFF:
                        self.c &= 0x7FFFFFF
                        self.out.append((self.c >> 20) & 0xFF)
                        self.c &= 0xFFFFF
                        self.ct = 7
                        self.b_valid = True
                        return
                else:
                    # carry with no prior byte cannot occur after the
                    # first byteout; fold it into the emitted byte
                    pass
                self.c &= 0x7FFFFFF
                self.out.append((self.c >> 19) & 0xFF)
                self.c &= 0x7FFFF
                self.ct = 8
        self.b_valid = True

    def encode(self, icx: list, mpscx: list, cx: int, d: int) -> None:
        i = icx[cx]
        qe = _QE_Q[i]
        if d == mpscx[cx]:
            self.a -= qe
            if self.a & 0x8000:
                self.c += qe
                return
            if self.a < qe:
                self.a = qe
            else:
                self.c += qe
            icx[cx] = _QE_NMPS[i]
        else:
            self.a -= qe
            if self.a < qe:
                self.c += qe
            else:
                self.a = qe
            if _QE_SW[i]:
                mpscx[cx] = 1 - mpscx[cx]
            icx[cx] = _QE_NLPS[i]
        # RENORME
        while True:
            self.a = (self.a << 1) & 0xFFFF
            self.c = (self.c << 1) & 0xFFFFFFFF
            self.ct -= 1
            if self.ct == 0:
                self._byteout()
            if self.a & 0x8000:
                break

    def flush(self) -> bytes:
        # SETBITS (T.88 Figure E.12): largest in-interval C whose low
        # 16 bits are all ones, so the tail truncates into the marker
        temp = self.c + self.a
        self.c |= 0xFFFF
        if self.c >= temp:
            self.c -= 0x8000
        self.c = (self.c << self.ct) & 0xFFFFFFFF
        self._byteout()
        self.c = (self.c << self.ct) & 0xFFFFFFFF
        self._byteout()
        # marker-terminated ending per Figure E.11: 0xFF 0xAC
        if not (self.out and self.out[-1] == 0xFF):
            self.out.append(0xFF)
        self.out.append(0xAC)
        return bytes(self.out)


# ---------------------------------------------------------------- generic


_NOMINAL_AT0 = ((3, -1), (-3, -1), (2, -2), (-2, -2))

# fixed (non-AT) context pixels per template (T.88 Figures 4-7); the
# context label is the sorted-by-(y,x) template read MSB-first — the
# ordering under which template 0's SLTP context is the published
# 0x9B25 (validated against the fast path below), and the same generic
# construction the field-proven readers use for every template.
_FIXED_TEMPLATE = {
    0: (
        (-1, -2), (0, -2), (1, -2),
        (-2, -1), (-1, -1), (0, -1), (1, -1), (2, -1),
        (-4, 0), (-3, 0), (-2, 0), (-1, 0),
    ),
    1: (
        (-1, -2), (0, -2), (1, -2), (2, -2),
        (-2, -1), (-1, -1), (0, -1), (1, -1), (2, -1),
        (-3, 0), (-2, 0), (-1, 0),
    ),
    2: (
        (-1, -2), (0, -2), (1, -2),
        (-2, -1), (-1, -1), (0, -1), (1, -1),
        (-2, 0), (-1, 0),
    ),
    3: (
        (-3, -1), (-2, -1), (-1, -1), (0, -1), (1, -1),
        (-4, 0), (-3, 0), (-2, 0), (-1, 0),
    ),
}
_NOMINAL_AT = {
    0: _NOMINAL_AT0,
    1: ((3, -1),),
    2: ((2, -1),),
    3: ((2, -1),),
}


def _sorted_template(template: int, at: tuple) -> list:
    pix = list(_FIXED_TEMPLATE[template]) + [tuple(p) for p in at]
    pix.sort(key=lambda p: (p[1], p[0]))
    return pix


def _decode_generic_template(
    data: bytes,
    width: int,
    height: int,
    template: int,
    at: tuple,
    tpgdon: bool,
) -> np.ndarray:
    """Template-list generic decode: any GBTEMPLATE 0-3 with ANY AT
    layout (current row's AT pixels must be left of x, which every
    conformant encoder satisfies — enforced).  Slower than the pinned
    template-0 window path; used for the non-default layouts."""
    pix = _sorted_template(template, at)
    for dx, dy in pix:
        if dy > 0 or (dy == 0 and dx >= 0):
            raise ImageFormatError("JBIG2 AT pixel not strictly causal")
    nbits = len(pix)
    dec = MQDecoder(data)
    icx = [0] * (1 << nbits)
    mpscx = [0] * (1 << nbits)
    out = np.zeros((height, width), dtype=np.uint8)
    ltp = 0
    sltp_cx = _SLTP_CTX[template]
    decode = dec.decode
    rows: list[bytes] = []
    zeros = bytes(width)
    for y in range(height):
        if tpgdon:
            ltp ^= decode(icx, mpscx, sltp_cx)
            if ltp:
                prev = rows[-1] if rows else zeros
                rows.append(prev)
                out[y] = np.frombuffer(prev, dtype=np.uint8)
                continue
        row = bytearray(width)
        for x in range(width):
            cx = 0
            for dx, dy in pix:
                xx, yy = x + dx, y + dy
                if yy < 0 or xx < 0 or xx >= width:
                    bit = 0
                elif yy == y:
                    bit = row[xx]
                else:
                    bit = rows[yy][xx]
                cx = (cx << 1) | bit
            row[x] = decode(icx, mpscx, cx)
        rows.append(bytes(row))
        out[y] = np.frombuffer(rows[-1], dtype=np.uint8)
    return out.astype(bool)


def _encode_generic_template(
    ink: np.ndarray, template: int, at: tuple
) -> bytes:
    """Template-list twin of :func:`_decode_generic_template` (used by
    tests to pin the non-default layouts by round-trip)."""
    pix = _sorted_template(template, at)
    ink = np.asarray(ink, dtype=bool).astype(np.uint8)
    height, width = ink.shape
    enc = MQEncoder()
    nbits = len(pix)
    icx = [0] * (1 << nbits)
    mpscx = [0] * (1 << nbits)
    encode = enc.encode
    for y in range(height):
        for x in range(width):
            cx = 0
            for dx, dy in pix:
                xx, yy = x + dx, y + dy
                bit = (
                    0
                    if yy < 0 or xx < 0 or xx >= width or (yy == y and xx >= x)
                    else int(ink[yy, xx])
                )
                cx = (cx << 1) | bit
            encode(icx, mpscx, cx, int(ink[y, x]))
    return enc.flush()


def decode_generic_region(
    data: bytes,
    width: int,
    height: int,
    *,
    template: int = 0,
    at: tuple = _NOMINAL_AT0,
    tpgdon: bool = False,
) -> np.ndarray:
    """Arithmetic generic-region decode → boolean ink (True = black).
    Template 0 with nominal AT pixels (the scanner-encoder default)
    takes the fast incremental-context path; templates 1-3 and
    non-nominal AT layouts go through the template-list path."""
    if template not in _FIXED_TEMPLATE:
        raise ImageFormatError(f"unsupported generic template {template}")
    if width <= 0 or height <= 0 or width * height > 64_000_000:
        raise ImageFormatError("bad JBIG2 region geometry")
    if template != 0 or tuple(at) != _NOMINAL_AT0:
        return _decode_generic_template(data, width, height, template, at, tpgdon)
    dec = MQDecoder(data)
    icx = [0] * (1 << 16)
    mpscx = [0] * (1 << 16)
    return _decode_generic_bitmap(dec, icx, mpscx, width, height, tpgdon)


def _decode_generic_bitmap(
    dec: MQDecoder,
    icx: list,
    mpscx: list,
    width: int,
    height: int,
    tpgdon: bool = False,
) -> np.ndarray:
    """Template-0-nominal generic decode on a CALLER-OWNED decoder and
    GB context arrays — symbol dictionaries decode every symbol bitmap
    with one continuing arithmetic state and one shared context set
    (T.88 §6.5.8.1), so the state must outlive a single bitmap."""
    out = np.zeros((height, width), dtype=np.uint8)
    zeros = bytes(width)
    prev2: bytes = zeros  # row y-2 as 0/1 bytes
    prev1: bytes = zeros  # row y-1
    ltp = 0
    sltp_cx = _SLTP_CTX[0]
    decode = dec.decode
    for y in range(height):
        if tpgdon:
            ltp ^= decode(icx, mpscx, sltp_cx)
            if ltp:
                out[y] = np.frombuffer(prev1, dtype=np.uint8)
                prev2 = prev1  # row copied: windows shift down unchanged
                continue
        row = bytearray(width)
        # context windows at x=0 (out-of-bounds pixels are 0):
        # w2 covers (y-2, x-2..x+2), w1 (y-1, x-3..x+3), w0 (y, x-4..x-1)
        w2 = (prev2[0] << 2) | ((prev2[1] << 1) if width > 1 else 0) | (
            prev2[2] if width > 2 else 0
        )
        w1 = (prev1[0] << 3) | ((prev1[1] << 2) if width > 1 else 0) | (
            (prev1[2] << 1) if width > 2 else 0
        ) | (prev1[3] if width > 3 else 0)
        w0 = 0
        for x in range(width):
            px = decode(icx, mpscx, (w2 << 11) | (w1 << 4) | w0)
            row[x] = px
            nx2 = x + 3
            nx1 = x + 4
            w2 = ((w2 << 1) | (prev2[nx2] if nx2 < width else 0)) & 0x1F
            w1 = ((w1 << 1) | (prev1[nx1] if nx1 < width else 0)) & 0x7F
            w0 = ((w0 << 1) | px) & 0xF
        out[y] = np.frombuffer(bytes(row), dtype=np.uint8)
        prev2 = prev1
        prev1 = bytes(row)
    return out.astype(bool)


def encode_generic_region(ink: np.ndarray) -> bytes:
    """Boolean ink → MQ-coded generic-region body (template 0, nominal
    AT, TPGDON off) — the fixture twin of :func:`decode_generic_region`."""
    enc = MQEncoder()
    icx = [0] * (1 << 16)
    mpscx = [0] * (1 << 16)
    _encode_generic_bitmap(enc, icx, mpscx, ink)
    return enc.flush()


def _encode_generic_bitmap(
    enc: MQEncoder, icx: list, mpscx: list, ink: np.ndarray
) -> None:
    """Shared-state twin of :func:`_decode_generic_bitmap` (no flush —
    the caller owns the arithmetic stream)."""
    ink = np.asarray(ink, dtype=bool)
    height, width = ink.shape
    zeros = bytes(width)
    prev2: bytes = zeros
    prev1: bytes = zeros
    encode = enc.encode
    for y in range(height):
        row = bytes(ink[y].astype(np.uint8))
        w2 = (prev2[0] << 2) | ((prev2[1] << 1) if width > 1 else 0) | (
            prev2[2] if width > 2 else 0
        )
        w1 = (prev1[0] << 3) | ((prev1[1] << 2) if width > 1 else 0) | (
            (prev1[2] << 1) if width > 2 else 0
        ) | (prev1[3] if width > 3 else 0)
        w0 = 0
        for x in range(width):
            px = row[x]
            encode(icx, mpscx, (w2 << 11) | (w1 << 4) | w0, px)
            nx2 = x + 3
            nx1 = x + 4
            w2 = ((w2 << 1) | (prev2[nx2] if nx2 < width else 0)) & 0x1F
            w1 = ((w1 << 1) | (prev1[nx1] if nx1 < width else 0)) & 0x7F
            w0 = ((w0 << 1) | px) & 0xF
        prev2 = prev1
        prev1 = row


# ------------------------------------------------------------- segments


def _segment_header(
    num: int, seg_type: int, page: int, data_len: int, refs: tuple = ()
) -> bytes:
    """Embedded-organization segment header: short-form referred-to
    segments (at most 4, none retained), 1-byte page association."""
    ref_fmt = "B" if num <= 256 else ("H" if num <= 65536 else "I")
    return (
        struct.pack(">IBB", num, seg_type & 0x3F, len(refs) << 5)
        + struct.pack(f">{len(refs)}{ref_fmt}", *refs)
        + struct.pack(">BI", page, data_len)
    )


def encode_jbig2_embedded(ink: np.ndarray) -> bytes:
    """Boolean ink → PDF-embedded JBIG2 stream (page info + immediate
    generic region + end-of-page), the ``/JBIG2Decode`` body shape."""
    ink = np.asarray(ink, dtype=bool)
    h, w = ink.shape
    page_info = struct.pack(">IIIIBH", w, h, 0, 0, 0x01, 0)
    region_info = struct.pack(">IIIIB", w, h, 0, 0, 0)  # OP = OR
    gen_flags = bytes([0x00])  # MMR=0, template 0, TPGDON=0
    at = b"\x03\xff\xfd\xff\x02\xfe\xfe\xfe"  # nominal AT1..AT4
    body = encode_generic_region(ink)
    region = region_info + gen_flags + at + body
    out = bytearray()
    out += _segment_header(0, 48, 1, len(page_info)) + page_info
    out += _segment_header(1, 38, 1, len(region)) + region  # immediate generic
    out += _segment_header(2, 49, 1, 0)  # end of page
    return bytes(out)


def _parse_segment_headers(data: bytes):
    """Yield ``(number, seg_type, referred_to, payload)`` for each
    segment of an embedded stream (T.88 §7.2, no file header);
    ``referred_to`` lists the referred-to segment numbers in order."""
    pos = 0
    n = len(data)
    while pos + 11 <= n:
        num = struct.unpack_from(">I", data, pos)[0]
        flags = data[pos + 4]
        seg_type = flags & 0x3F
        page_assoc_4 = bool(flags & 0x40)
        pos += 5
        rts = data[pos]
        count = rts >> 5
        if count == 7:
            count = struct.unpack_from(">I", data, pos)[0] & 0x1FFFFFFF
            pos += 4 + (count + 8) // 8  # long form + retain bits
        else:
            pos += 1
        ref_fmt = "B" if num <= 256 else ("H" if num <= 65536 else "I")
        refs = struct.unpack_from(f">{count}{ref_fmt}", data, pos)
        pos += count * struct.calcsize(ref_fmt)
        pos += 4 if page_assoc_4 else 1
        if pos + 4 > n:
            raise ImageFormatError("truncated JBIG2 segment header")
        dlen = struct.unpack_from(">I", data, pos)[0]
        pos += 4
        if dlen == 0xFFFFFFFF:
            raise ImageFormatError("JBIG2 unknown-length segment unsupported")
        if pos + dlen > n:
            raise ImageFormatError("truncated JBIG2 segment data")
        yield num, seg_type, refs, data[pos : pos + dlen]
        pos += dlen


# segment types that carry coding machinery this subset doesn't decode
# (huffman tables, halftone/refinement regions)
_UNSUPPORTED_TYPES = {16, 20, 22, 23, 40, 42, 43, 53}


def decode_jbig2_embedded(data: bytes, width: int, height: int) -> np.ndarray:
    """PDF ``/JBIG2Decode`` body → boolean ink of the page (True=black).
    Generic regions (arithmetic template 0 or MMR) compose onto the
    page with OR; unsupported segment types raise ``ImageFormatError``
    so the caller routes found-but-undecodable, never blank."""
    page = np.zeros((height, width), dtype=bool)
    saw_region = False
    dicts: dict[int, list] = {}  # symbol dict segment number → exports

    def referred_symbols(num: int, refs: tuple) -> list:
        # a dictionary's input symbols and a text region's SBSYMS are
        # the exports of its referred-to dictionaries, in reference order
        for r in refs:
            if r not in dicts:
                raise ImageFormatError(
                    f"JBIG2 segment {num} refers to segment {r}, "
                    "not a decoded symbol dictionary"
                )
        return [sym for r in refs for sym in dicts[r]]

    try:
        segs = list(_parse_segment_headers(data))
    except struct.error as exc:
        raise ImageFormatError(f"malformed JBIG2 segment header: {exc}") from exc
    for num, seg_type, refs, payload in segs:
        if seg_type in (48, 49, 50, 51, 62):  # page info / EOP / EOS / EOF / ext
            continue
        if seg_type == 0:  # symbol dictionary
            inputs = referred_symbols(num, refs)
            try:
                dicts[num] = decode_symbol_dict(payload, inputs)
            except (struct.error, IndexError) as exc:
                raise ImageFormatError(f"malformed symbol dict: {exc}") from exc
            continue
        if seg_type in (4, 6, 7):  # (intermediate/immediate) text region
            symbols = referred_symbols(num, refs)
            try:
                ink, rx, ry = decode_text_region(payload, symbols)
            except (struct.error, IndexError) as exc:
                raise ImageFormatError(f"malformed text region: {exc}") from exc
            rh, rw = ink.shape
            ye, xe = min(ry + rh, height), min(rx + rw, width)
            if ye > ry and xe > rx:
                page[ry:ye, rx:xe] |= ink[: ye - ry, : xe - rx]
            saw_region = True
            continue
        if seg_type in (36, 38, 39):  # (intermediate/immediate) generic region
            if len(payload) < 18:
                raise ImageFormatError("short JBIG2 generic region")
            rw, rh, rx, ry, _op = struct.unpack_from(">IIIIB", payload, 0)
            if rw > width or rx >= width or ry >= height:
                raise ImageFormatError("JBIG2 region wider than or off the page")
            rh = min(rh, height - ry)  # rows below the page are never composed
            gflags = payload[17]
            mmr = gflags & 1
            template = (gflags >> 1) & 3
            tpgdon = bool(gflags & 8)
            pos = 18
            if mmr:
                from valere_ocr_ray.extract.ccitt import decode_g4

                ink = decode_g4(payload[pos:], rw, rh)
            else:
                n_at = 4 if template == 0 else 1
                at = tuple(
                    (
                        struct.unpack_from("b", payload, pos + 2 * k)[0],
                        struct.unpack_from("b", payload, pos + 2 * k + 1)[0],
                    )
                    for k in range(n_at)
                )
                pos += 2 * n_at
                ink = decode_generic_region(
                    payload[pos:], rw, rh, template=template, at=at,
                    tpgdon=tpgdon,
                )
            ye, xe = min(ry + rh, height), min(rx + rw, width)
            if ye > ry and xe > rx:
                page[ry:ye, rx:xe] |= ink[: ye - ry, : xe - rx]
            saw_region = True
            continue
        if seg_type in _UNSUPPORTED_TYPES:
            raise ImageFormatError(
                f"unsupported JBIG2 segment type {seg_type}"
            )
        # unknown but skippable segment (comments etc.) — ignore
    if not saw_region:
        raise ImageFormatError("JBIG2 stream contains no region")
    return page


__all__ = [
    "MQDecoder",
    "MQEncoder",
    "decode_generic_region",
    "encode_generic_region",
    "decode_jbig2_embedded",
    "encode_jbig2_embedded",
    "decode_symbol_dict",
    "decode_text_region",
    "encode_jbig2_symbol_page",
]


# ----------------------------------------------------------- symbol coding
#
# The symbol-coded shape (T.88 §6.4/§6.5) is what SOFTWARE JBIG2
# encoders (jbig2enc, pdfbox) emit for text pages — a dictionary of
# glyph bitmaps plus a text region that places dictionary symbols by
# id — while hardware scanners emit generic regions.  Scope here is
# the arithmetic non-refinement subset (SDHUFF=0, SDREFAGG=0,
# SBHUFF=0, SBREFINE=0, TRANSPOSED=0, left reference corners);
# everything outside it raises to the routed seam.


def _new_int_ctx() -> tuple:
    """One IAx register: a 512-entry context tree (T.88 Annex A)."""
    return ([0] * 512, [0] * 512)


def _decode_int(dec: MQDecoder, ctx: tuple) -> int | None:
    """Arithmetic integer decoding procedure (T.88 §A.2).  Returns the
    signed value, or ``None`` for OOB (sign=1, magnitude 0)."""
    icx, mpscx = ctx
    prev = 1

    def bit() -> int:
        nonlocal prev
        b = dec.decode(icx, mpscx, prev)
        prev = (
            ((prev << 1) | b)
            if prev < 256
            else ((((prev << 1) | b) & 511) | 256)
        )
        return b

    s = bit()
    if not bit():
        n, off = 2, 0
    elif not bit():
        n, off = 4, 4
    elif not bit():
        n, off = 6, 20
    elif not bit():
        n, off = 8, 84
    elif not bit():
        n, off = 12, 340
    else:
        n, off = 32, 4436
    v = 0
    for _ in range(n):
        v = (v << 1) | bit()
    v += off
    if s and v == 0:
        return None  # OOB
    return -v if s else v


def _encode_int(enc: MQEncoder, ctx: tuple, value: int | None) -> None:
    """Twin of :func:`_decode_int` (``None`` encodes OOB)."""
    icx, mpscx = ctx
    prev = 1

    def bit(b: int) -> None:
        nonlocal prev
        enc.encode(icx, mpscx, prev, b)
        prev = (
            ((prev << 1) | b)
            if prev < 256
            else ((((prev << 1) | b) & 511) | 256)
        )

    if value is None:
        s, v = 1, 0
    else:
        s, v = (1, -value) if value < 0 else (0, value)
    bit(s)
    if v < 4:
        prefix, n, off = (0,), 2, 0
    elif v < 20:
        prefix, n, off = (1, 0), 4, 4
    elif v < 84:
        prefix, n, off = (1, 1, 0), 6, 20
    elif v < 340:
        prefix, n, off = (1, 1, 1, 0), 8, 84
    elif v < 4436:
        prefix, n, off = (1, 1, 1, 1, 0), 12, 340
    else:
        prefix, n, off = (1, 1, 1, 1, 1), 32, 4436
    for b in prefix:
        bit(b)
    rest = v - off
    for k in reversed(range(n)):
        bit((rest >> k) & 1)


def _symcodelen(n_syms: int) -> int:
    return max(1, (max(n_syms - 1, 1)).bit_length())


def _decode_iaid(dec: MQDecoder, ctx: tuple, symcodelen: int) -> int:
    icx, mpscx = ctx
    prev = 1
    for _ in range(symcodelen):
        prev = (prev << 1) | dec.decode(icx, mpscx, prev)
    return prev - (1 << symcodelen)


def _encode_iaid(
    enc: MQEncoder, ctx: tuple, symcodelen: int, sid: int
) -> None:
    icx, mpscx = ctx
    prev = 1
    for k in reversed(range(symcodelen)):
        b = (sid >> k) & 1
        enc.encode(icx, mpscx, prev, b)
        prev = (prev << 1) | b


_SD_AT_NOMINAL = b"\x03\xff\xfd\xff\x02\xfe\xfe\xfe"


def decode_symbol_dict(
    payload: bytes, input_syms: list | None = None
) -> list:
    """Symbol-dictionary segment data → exported symbol bitmaps
    (T.88 §6.5, arithmetic, no refinement/aggregation)."""
    if len(payload) < 2:
        raise ImageFormatError("short symbol dictionary")
    flags = struct.unpack_from(">H", payload, 0)[0]
    if flags & 0x1:
        raise ImageFormatError("huffman symbol dictionary unsupported")
    if flags & 0x2:
        raise ImageFormatError("refinement/aggregation unsupported")
    template = (flags >> 10) & 3
    pos = 2
    n_at = 4 if template == 0 else 1
    at = payload[pos : pos + 2 * n_at]
    pos += 2 * n_at
    if template != 0 or at != _SD_AT_NOMINAL:
        raise ImageFormatError("symbol dict template/AT layout unsupported")
    n_ex, n_new = struct.unpack_from(">II", payload, pos)
    pos += 8
    if n_new > 100_000:
        raise ImageFormatError("implausible symbol count")
    dec = MQDecoder(payload[pos:])
    iadh, iadw, iaex = _new_int_ctx(), _new_int_ctx(), _new_int_ctx()
    gb_icx = [0] * (1 << 16)
    gb_mps = [0] * (1 << 16)
    hcheight = 0
    new_syms: list = []
    # a height class that adds no symbol makes no progress: a crafted
    # stream of them would never end, so cap the consecutive run
    n_empty = 0
    while len(new_syms) < n_new:
        dh = _decode_int(dec, iadh)
        if dh is None:
            raise ImageFormatError("OOB in IADH")
        hcheight += dh
        symwidth = 0
        n_before = len(new_syms)
        while True:
            dw = _decode_int(dec, iadw)
            if dw is None:
                break  # height class done
            symwidth += dw
            if hcheight <= 0 or symwidth <= 0 or len(new_syms) >= n_new:
                raise ImageFormatError("bad symbol geometry")
            new_syms.append(
                _decode_generic_bitmap(dec, gb_icx, gb_mps, symwidth, hcheight)
            )
        n_empty = n_empty + 1 if len(new_syms) == n_before else 0
        if n_empty > n_new:
            raise ImageFormatError("too many empty height classes")
    all_syms = list(input_syms or []) + new_syms
    exported: list = []
    cur = 0
    i = 0
    # zero-length runs are legal but do not advance ``i``: a valid
    # stream alternates runs, so it needs at most 2 per symbol
    for _ in range(2 * len(all_syms) + 2):
        if i >= len(all_syms):
            break
        run = _decode_int(dec, iaex)
        if run is None or run < 0:
            raise ImageFormatError("bad IAEX run")
        if cur:
            exported.extend(all_syms[i : i + run])
        i += run
        cur ^= 1
    if i < len(all_syms):
        raise ImageFormatError("too many IAEX runs")
    if len(exported) != n_ex:
        raise ImageFormatError("export count mismatch")
    return exported


def decode_text_region(payload: bytes, symbols: list):
    """Text-region segment data → ``(ink, rx, ry)`` (T.88 §6.4,
    arithmetic, no refinement, not transposed, left corners)."""
    if len(payload) < 23:
        raise ImageFormatError("short text region")
    rw, rh, rx, ry, _op = struct.unpack_from(">IIIIB", payload, 0)
    flags = struct.unpack_from(">H", payload, 17)[0]
    pos = 19
    if flags & 0x1:
        raise ImageFormatError("huffman text region unsupported")
    if flags & 0x2:
        raise ImageFormatError("refinement text region unsupported")
    log_strips = (flags >> 2) & 3
    refcorner = (flags >> 4) & 3
    transposed = (flags >> 6) & 1
    ds_offset = (flags >> 10) & 0x1F
    if ds_offset > 15:
        ds_offset -= 32  # signed 5-bit
    if transposed:
        raise ImageFormatError("transposed text region unsupported")
    if refcorner & 2:
        raise ImageFormatError("right reference corners unsupported")
    if not symbols:
        raise ImageFormatError("text region with no symbol dictionary")
    n_inst = struct.unpack_from(">I", payload, pos)[0]
    pos += 4
    strips = 1 << log_strips
    symcodelen = _symcodelen(len(symbols))
    dec = MQDecoder(payload[pos:])
    iadt, iafs, iads, iait = (
        _new_int_ctx(), _new_int_ctx(), _new_int_ctx(), _new_int_ctx(),
    )
    iaid = ([0] * (1 << (symcodelen + 1)), [0] * (1 << (symcodelen + 1)))
    if rw * rh > 64_000_000 or n_inst > 10_000_000:
        raise ImageFormatError("implausible text region")
    region = np.zeros((rh, rw), dtype=bool)
    v = _decode_int(dec, iadt)
    if v is None:
        raise ImageFormatError("OOB in IADT")
    stript = -v * strips
    firsts = 0
    inst = 0
    while inst < n_inst:
        dt = _decode_int(dec, iadt)
        if dt is None:
            raise ImageFormatError("OOB in IADT")
        stript += dt * strips
        first = True
        while True:
            if first:
                dfs = _decode_int(dec, iafs)
                if dfs is None:
                    raise ImageFormatError("OOB in IAFS")
                firsts += dfs
                curs = firsts
                first = False
            else:
                ids = _decode_int(dec, iads)
                if ids is None:
                    break  # strip done
                curs += ids + ds_offset
            curt = 0 if strips == 1 else _decode_int(dec, iait)
            ti = stript + (curt or 0)
            sid = _decode_iaid(dec, iaid, symcodelen)
            if not 0 <= sid < len(symbols):
                raise ImageFormatError("symbol id out of range")
            bm = symbols[sid]
            hi, wi = bm.shape
            y = ti if (refcorner & 1) else ti - hi + 1
            x = curs
            y0, x0 = max(y, 0), max(x, 0)
            y1, x1 = min(y + hi, rh), min(x + wi, rw)
            if y1 > y0 and x1 > x0:
                region[y0:y1, x0:x1] |= bm[y0 - y : y1 - y, x0 - x : x1 - x]
            curs += wi - 1
            inst += 1
            if inst == n_inst:
                break
    return region, rx, ry


def _encode_symbol_dict(glyphs: list) -> bytes:
    """Symbol-dictionary segment data exporting ``glyphs`` (boolean
    bitmaps of one shared height) in order: one height class, arith
    template 0, every symbol exported."""
    enc = MQEncoder()
    iadh, iadw, iaex = _new_int_ctx(), _new_int_ctx(), _new_int_ctx()
    gb_icx = [0] * (1 << 16)
    gb_mps = [0] * (1 << 16)
    _encode_int(enc, iadh, glyphs[0].shape[0])  # HCHEIGHT 0 -> glyph height
    width_prev = 0
    for g in glyphs:
        _encode_int(enc, iadw, g.shape[1] - width_prev)
        width_prev = g.shape[1]
        _encode_generic_bitmap(enc, gb_icx, gb_mps, g)
    _encode_int(enc, iadw, None)  # OOB ends the height class
    _encode_int(enc, iaex, 0)  # run of 0 not-exported
    _encode_int(enc, iaex, len(glyphs))  # run exporting every symbol
    return (
        struct.pack(">H", 0x0000)  # arith, template 0, no refagg
        + _SD_AT_NOMINAL
        + struct.pack(">II", len(glyphs), len(glyphs))
        + enc.flush()
    )


def _encode_text_region(canon: list, sym_of: dict, w: int, h: int) -> bytes:
    """Text-region segment data placing glyph ``sym_of[ch]`` of the
    region's symbol list at every non-space char of ``canon``: one
    strip per text line, TOPLEFT corners."""
    from valere_ocr_ray.extract.glyph_font import GLYPH_W, MARGIN, PITCH_X, PITCH_Y

    enc = MQEncoder()
    iadt, iafs, iads = _new_int_ctx(), _new_int_ctx(), _new_int_ctx()
    symcodelen = _symcodelen(len(sym_of))
    iaid = ([0] * (1 << (symcodelen + 1)), [0] * (1 << (symcodelen + 1)))
    _encode_int(enc, iadt, 0)  # STRIPT starts at 0
    stript = 0
    firsts = 0
    n_inst = 0
    for li, line in enumerate(canon):
        xs = [
            (MARGIN + ci * PITCH_X, ch)
            for ci, ch in enumerate(line)
            if ch != " "
        ]
        if not xs:
            continue
        y = MARGIN + li * PITCH_Y
        _encode_int(enc, iadt, y - stript)
        stript = y
        first = True
        curs = 0
        for x, ch in xs:
            if first:
                _encode_int(enc, iafs, x - firsts)
                firsts = x
                curs = x
                first = False
            else:
                _encode_int(enc, iads, x - curs)
                curs = x
            _encode_iaid(enc, iaid, symcodelen, sym_of[ch])
            curs += GLYPH_W - 1
            n_inst += 1
        _encode_int(enc, iads, None)  # OOB ends the strip
    return (
        struct.pack(">IIIIB", w, h, 0, 0, 0)
        + struct.pack(">H", (1 << 4))  # arith, SBSTRIPS=1, TOPLEFT
        + struct.pack(">I", n_inst)
        + enc.flush()
    )


def encode_jbig2_symbol_page(lines: list) -> bytes:
    """Glyph-rendered ``lines`` → PDF-embedded SYMBOL-CODED JBIG2
    stream (page info + symbol dictionary + immediate text region
    referring to it + EOP) whose decode is pixel-identical to
    ``glyph_font.render_text_image(lines)`` — the software-encoder
    (jbig2enc-class) twin of :func:`encode_jbig2_embedded`."""
    from valere_ocr_ray.extract.glyph_font import (
        _GLYPHS,
        MARGIN,
        PITCH_X,
        PITCH_Y,
        canonical_text,
    )

    canon = canonical_text(list(lines)).split("\n")
    n_cols = max((len(l) for l in canon), default=0) or 1
    h = max(2 * MARGIN + len(canon) * PITCH_Y - 3, 1)
    w = max(2 * MARGIN + n_cols * PITCH_X - 1, 1)
    chars = sorted({ch for line in canon for ch in line if ch != " "})
    if not chars:
        raise ImageFormatError("symbol page needs at least one glyph")
    sd = _encode_symbol_dict([_GLYPHS[ch] for ch in chars])
    tr = _encode_text_region(canon, {ch: i for i, ch in enumerate(chars)}, w, h)
    page_info = struct.pack(">IIIIBH", w, h, 0, 0, 0x01, 0)
    out = bytearray()
    out += _segment_header(0, 48, 1, len(page_info)) + page_info
    out += _segment_header(1, 0, 1, len(sd)) + sd  # symbol dictionary
    out += _segment_header(2, 6, 1, len(tr), refs=(1,)) + tr  # text region
    out += _segment_header(3, 49, 1, 0)
    return bytes(out)
