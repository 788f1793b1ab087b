"""Dependency-free baseline TIFF codec: uncompressed + LZW strips.

The reference explicitly admits ``.tiff`` uploads alongside JPG/PNG
(``IDD/finalcodes/InsuranceCard1.py:83-84``) — scanner output is
classically TIFF.  This implements the scanner-default baseline from
the TIFF 6.0 spec with stdlib + numpy only:

* both byte orders (``II``/``MM``), first IFD only (page 1 — the
  reference's card/agreement scans are single-page);
* 8-bit grayscale (PhotometricInterpretation 0/1, WhiteIsZero
  inverted on decode) and 8-bit RGB (Photometric 2), chunky planar
  config, any strip layout (RowsPerStrip / StripOffsets /
  StripByteCounts);
* Compression 1 (none) and 5 (TIFF-variant LZW, MSB-first codes with
  the spec's *early change* at table sizes 511/1023/2047), with
  Predictor 2 (horizontal differencing) — the de-facto scanner/LZW
  pairing.

Anything else (tiled TIFF, 1/4/16-bit, CCITT/JPEG-in-TIFF, planar=2)
raises :class:`ImageFormatError`, which the extraction stage routes to
``skipped_image_no_ocr`` — the documented seam, never a crash.

``encode_tiff`` is the corpus-synthesis twin (little-endian, single
strip); ``decode_tiff(encode_tiff(px)) == px`` is pinned by test for
every (compression, predictor, photometric) combination.
"""

from __future__ import annotations

import struct

import numpy as np

from valere_ocr_ray.extract.image_decode import ImageFormatError

_CLEAR = 256
_EOI = 257


def sniff_tiff(payload: bytes) -> bool:
    return payload[:4] in (b"II*\x00", b"MM\x00*")


# ---------------------------------------------------------------- LZW


def lzw_decode(data: bytes) -> bytes:
    """TIFF-variant LZW (TIFF 6.0 §13): MSB-first bit packing, code
    width 9→12 with *early change* — the width bumps when the table
    holds ``2**w - 1`` entries (one code earlier than GIF)."""
    out = bytearray()
    # table as list of bytes objects; indexes 0-255 literals
    base = [bytes([i]) for i in range(256)] + [b"", b""]
    table = list(base)
    width = 9
    buf = 0
    nbits = 0
    pos = 0
    n = len(data)
    prev: bytes | None = None
    while True:
        while nbits < width:
            if pos >= n:
                return bytes(out)  # missing EOI: tolerate truncation
            buf = (buf << 8) | data[pos]
            pos += 1
            nbits += 8
        code = (buf >> (nbits - width)) & ((1 << width) - 1)
        nbits -= width
        if code == _CLEAR:
            table = list(base)
            width = 9
            prev = None
            continue
        if code == _EOI:
            return bytes(out)
        if prev is None:
            if code >= 256:
                raise ImageFormatError("LZW: first code after clear not literal")
            entry = table[code]
        elif code < len(table):
            entry = table[code]
        elif code == len(table):
            entry = prev + prev[:1]
        else:
            raise ImageFormatError("LZW: code beyond table")
        out += entry
        if prev is not None:
            table.append(prev + entry[:1])
        # early change, decoder side: the decoder's table lags the
        # encoder's by ONE entry (no add on the first code after a
        # clear), so it bumps at 510/1022/2046 where the encoder bumps
        # at 511/1023/2047 — both land between the same two codes
        if len(table) == (1 << width) - 2 and width < 12:
            width += 1
        prev = entry
    return bytes(out)


def lzw_encode(data: bytes) -> bytes:
    """Inverse of :func:`lzw_decode` (same early-change discipline);
    emits a Clear at the start and whenever the table fills at 12 bits,
    and EOI at the end — the TIFF 6.0 reference encoder shape."""
    out = bytearray()
    buf = 0
    nbits = 0

    def emit(code: int, width: int) -> None:
        nonlocal buf, nbits
        buf = (buf << width) | code
        nbits += width
        while nbits >= 8:
            out.append((buf >> (nbits - 8)) & 0xFF)
            nbits -= 8

    def fresh() -> dict[bytes, int]:
        return {bytes([i]): i for i in range(256)}

    table = fresh()
    next_code = 258
    width = 9
    emit(_CLEAR, width)
    w = b""
    for b in data:
        wc = w + bytes([b])
        if wc in table:
            w = wc
            continue
        emit(table[w], width)
        table[wc] = next_code
        next_code += 1
        # early change mirror: decoder bumps when ITS table (one entry
        # behind ours mid-stream) reaches 2**width - 1 == next_code - 1
        if next_code == (1 << width) - 1 and width < 12:
            width += 1
        if next_code > 4093:  # table full at 12 bits → reset
            emit(_CLEAR, width)
            table = fresh()
            next_code = 258
            width = 9
        w = bytes([b])
    if w:
        emit(table[w], width)
    emit(_EOI, width)
    if nbits:
        out.append((buf << (8 - nbits)) & 0xFF)
    return bytes(out)


# ---------------------------------------------------------------- decode

# tag ids (TIFF 6.0)
_T_WIDTH, _T_HEIGHT = 256, 257
_T_BITS, _T_COMPRESSION, _T_PHOTOMETRIC = 258, 259, 262
_T_STRIP_OFFSETS, _T_SPP, _T_ROWS_PER_STRIP, _T_STRIP_COUNTS = 273, 277, 278, 279
_T_PLANAR, _T_PREDICTOR = 284, 317

_TYPE_SIZE = {1: 1, 2: 1, 3: 2, 4: 4, 5: 8}


def _read_ifd(payload: bytes, bo: str) -> dict[int, list[int]]:
    (ifd_off,) = struct.unpack_from(bo + "I", payload, 4)
    if ifd_off + 2 > len(payload):
        raise ImageFormatError("truncated TIFF IFD")
    (n_entries,) = struct.unpack_from(bo + "H", payload, ifd_off)
    tags: dict[int, list[int]] = {}
    for k in range(n_entries):
        base = ifd_off + 2 + 12 * k
        if base + 12 > len(payload):
            raise ImageFormatError("truncated TIFF IFD entry")
        tag, typ, cnt = struct.unpack_from(bo + "HHI", payload, base)
        size = _TYPE_SIZE.get(typ)
        if size is None or typ not in (1, 3, 4):
            continue  # rational/ascii tags are irrelevant here
        total = size * cnt
        off = base + 8 if total <= 4 else struct.unpack_from(bo + "I", payload, base + 8)[0]
        if off + total > len(payload):
            raise ImageFormatError("TIFF tag value out of range")
        fmt = {1: "B", 3: "H", 4: "I"}[typ]
        tags[tag] = list(struct.unpack_from(bo + str(cnt) + fmt, payload, off))
    return tags


def decode_tiff(payload: bytes) -> np.ndarray:
    """Baseline TIFF bytes → (h, w, 3) uint8 RGB (first IFD/page)."""
    if not sniff_tiff(payload):
        raise ImageFormatError("not a TIFF")
    bo = "<" if payload[:2] == b"II" else ">"
    tags = _read_ifd(payload, bo)

    def one(tag: int, default: int | None = None) -> int:
        v = tags.get(tag)
        if v is None:
            if default is None:
                raise ImageFormatError(f"TIFF missing required tag {tag}")
            return default
        if not v:
            raise ImageFormatError(f"TIFF tag {tag} has no value")
        return v[0]

    w, h = one(_T_WIDTH), one(_T_HEIGHT)
    if w <= 0 or h <= 0:
        raise ImageFormatError("degenerate TIFF dimensions")
    spp = one(_T_SPP, 1)
    bits = tags.get(_T_BITS, [8])
    comp = one(_T_COMPRESSION, 1)
    photo = one(_T_PHOTOMETRIC)
    planar = one(_T_PLANAR, 1)
    pred = one(_T_PREDICTOR, 1)
    offsets_g4 = tags.get(_T_STRIP_OFFSETS)
    counts_g4 = tags.get(_T_STRIP_COUNTS)
    if comp == 4:
        # CCITT Group 4 — the scanner/fax bilevel default
        from valere_ocr_ray.extract.ccitt import decode_g4

        if bits != [1] or spp != 1 or photo not in (0, 1) or planar != 1:
            raise ImageFormatError(
                f"unsupported G4 TIFF (bits={bits}, photo={photo})"
            )
        if not offsets_g4 or not counts_g4:
            raise ImageFormatError("TIFF strip layout missing")
        rows_per_strip = one(_T_ROWS_PER_STRIP, h)
        ink = np.zeros((h, w), bool)
        for si, (off, cnt) in enumerate(zip(offsets_g4, counts_g4)):
            if off + cnt > len(payload):
                raise ImageFormatError("TIFF strip out of range")
            y0 = si * rows_per_strip
            n_rows = min(rows_per_strip, h - y0)
            ink[y0 : y0 + n_rows] = decode_g4(
                payload[off : off + cnt], w, n_rows
            )
        # photometric 0 (min-is-white): G4 black run -> dark pixel;
        # photometric 1 (min-is-black) inverts the sample meaning
        black, white = (0, 255) if photo == 0 else (255, 0)
        gray = np.where(ink, black, white).astype(np.uint8)
        return np.repeat(gray[:, :, None], 3, axis=2)
    if any(b != 8 for b in bits) or planar != 1:
        raise ImageFormatError(
            f"unsupported TIFF (bits={bits}, planar={planar})"
        )
    if comp not in (1, 5):
        raise ImageFormatError(f"unsupported TIFF compression {comp}")
    if pred not in (1, 2):
        raise ImageFormatError(f"unsupported TIFF predictor {pred}")
    if not (
        (photo in (0, 1) and spp == 1) or (photo == 2 and spp == 3)
    ):
        raise ImageFormatError(
            f"unsupported TIFF (photometric={photo}, spp={spp})"
        )
    offsets = tags.get(_T_STRIP_OFFSETS)
    counts = tags.get(_T_STRIP_COUNTS)
    if not offsets or not counts or len(offsets) != len(counts):
        raise ImageFormatError("TIFF strip layout missing")
    rows_per_strip = one(_T_ROWS_PER_STRIP, h)

    row_bytes = w * spp
    raw = bytearray()
    for si, (off, cnt) in enumerate(zip(offsets, counts)):
        if off + cnt > len(payload):
            raise ImageFormatError("TIFF strip out of range")
        strip = payload[off : off + cnt]
        if comp == 5:
            strip = lzw_decode(strip)
        n_rows = min(rows_per_strip, h - si * rows_per_strip)
        need = n_rows * row_bytes
        if len(strip) < need:
            raise ImageFormatError("truncated TIFF strip")
        raw += strip[:need]
    if len(raw) < h * row_bytes:
        raise ImageFormatError("TIFF strips hold fewer rows than its height")
    arr = np.frombuffer(bytes(raw), dtype=np.uint8, count=h * row_bytes).reshape(
        h, w, spp
    )
    if pred == 2:  # horizontal differencing: undo with a row cumsum
        arr = np.cumsum(arr.astype(np.uint16), axis=1).astype(np.uint8)
    if spp == 1:
        if photo == 0:  # WhiteIsZero
            arr = 255 - arr
        return np.repeat(arr, 3, axis=2)
    return arr.copy()


# ---------------------------------------------------------------- encode


def encode_tiff(
    pixels: np.ndarray,
    *,
    lzw: bool = False,
    predictor: bool = False,
    gray: bool = False,
    rows_per_strip: int | None = None,
) -> bytes:
    """RGB array → little-endian baseline TIFF bytes (the test/synth
    twin of :func:`decode_tiff`; round-trip is exact — ``gray=True``
    stores the luminance-equal input as one sample; ``rows_per_strip``
    splits the image into independently-compressed strips, the scanner
    default layout)."""
    h, w, _ = pixels.shape
    if gray:
        samples = pixels[:, :, 0].reshape(h, w, 1)
        spp, photo = 1, 1
    else:
        samples = pixels
        spp, photo = 3, 2
    body = samples.astype(np.uint8)
    pred = 2 if predictor else 1
    if predictor:
        d = body.astype(np.int16)
        d[:, 1:] = d[:, 1:] - d[:, :-1]
        body = (d & 0xFF).astype(np.uint8)
    rps = h if rows_per_strip is None else max(1, rows_per_strip)
    strips = [
        body[y : y + rps].tobytes() for y in range(0, h, rps)
    ]
    if lzw:
        strips = [lzw_encode(s) for s in strips]
    n_strips = len(strips)

    entries: list[tuple[int, int, int, int]] = []  # tag, type, count, value

    def short(tag: int, v: int) -> None:
        entries.append((tag, 3, 1, v))

    # layout: header(8) + IFD + side arrays (bits / strip tables) + data
    n_tags = 10 + (1 if predictor else 0)
    ifd_size = 2 + 12 * n_tags + 4
    side_off = 8 + ifd_size
    side = bytearray()

    def side_longs(vals: list[int]) -> int:
        off = side_off + len(side)
        side.extend(struct.pack(f"<{len(vals)}I", *vals))
        return off

    bits_off = 0
    if spp == 3:
        bits_off = side_off + len(side)
        side.extend(struct.pack("<HHH", 8, 8, 8))
    # strip tables: inline when single-strip, side arrays otherwise
    counts = [len(s) for s in strips]
    if n_strips == 1:
        counts_entry = (_T_STRIP_COUNTS, 4, 1, counts[0])
        offsets_entry = None  # patched below once data_off is known
        offsets_side = None
    else:
        counts_entry = (_T_STRIP_COUNTS, 4, n_strips, side_longs(counts))
        offsets_side = side_longs([0] * n_strips)  # patched below
        offsets_entry = (_T_STRIP_OFFSETS, 4, n_strips, offsets_side)
    data_off = side_off + len(side)

    offs = []
    pos = data_off
    for c in counts:
        offs.append(pos)
        pos += c
    if n_strips == 1:
        offsets_entry = (_T_STRIP_OFFSETS, 4, 1, offs[0])
    else:
        struct.pack_into(
            f"<{n_strips}I", side, offsets_side - side_off, *offs
        )

    short(_T_WIDTH, w)
    short(_T_HEIGHT, h)
    if spp == 3:
        entries.append((_T_BITS, 3, 3, bits_off))
    else:
        short(_T_BITS, 8)
    short(_T_COMPRESSION, 5 if lzw else 1)
    short(_T_PHOTOMETRIC, photo)
    entries.append(offsets_entry)
    short(_T_SPP, spp)
    entries.append((_T_ROWS_PER_STRIP, 4, 1, rps))
    entries.append(counts_entry)
    short(_T_PLANAR, 1)
    if predictor:
        short(_T_PREDICTOR, pred)
    entries.sort()  # spec: ascending tag order

    out = bytearray(struct.pack("<2sHI", b"II", 42, 8))
    out += struct.pack("<H", len(entries))
    for tag, typ, cnt, val in entries:
        out += struct.pack("<HHI", tag, typ, cnt)
        if typ == 3 and cnt == 1:
            out += struct.pack("<HH", val, 0)
        else:
            out += struct.pack("<I", val)
    out += struct.pack("<I", 0)  # next-IFD pointer: none
    out += side
    assert len(out) == data_off, (len(out), data_off)
    for s in strips:
        out += s
    return bytes(out)


__all__ = [
    "decode_tiff",
    "encode_tiff",
    "lzw_decode",
    "lzw_encode",
    "sniff_tiff",
]
