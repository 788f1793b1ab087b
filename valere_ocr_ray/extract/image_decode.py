"""Dependency-free image decoding: BMP (24-bit BI_RGB), PPM (P6), PNG.

The container ships no image libraries, but these formats are fully
decodable with stdlib ``struct``/``zlib`` + numpy — so the multimodal
seam (``ops/multimodal.py``) has REAL kernels behind it: header parse
→ pixel array → feature, not a fake.  PNG covers every 8-bit color
type (gray / gray+alpha / RGB / RGBA / palette, non-interlaced);
formats outside these (JPEG's DCT/Huffman stack, Adam7-interlaced
PNG) still route to ``error_no_decoder`` (the documented stub path
for PIL/ffmpeg-class decoders).

All decoders return ``(h, w, 3) uint8`` RGB arrays.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np


class ImageFormatError(ValueError):
    """Payload is not a decodable BMP/PPM/PNG image."""


_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def sniff_image_format(payload: bytes) -> str | None:
    """'bmp' | 'ppm' | 'png' | 'jpeg' | 'tiff' | None (undecodable here)."""
    if payload[:2] == b"BM":
        return "bmp"
    if payload[:2] == b"P6":
        return "ppm"
    if payload[:8] == _PNG_SIG:
        return "png"
    if payload[:3] == b"\xff\xd8\xff":
        return "jpeg"
    if payload[:4] in (b"II*\x00", b"MM\x00*"):
        return "tiff"
    if payload[:6] in (b"GIF87a", b"GIF89a"):
        return "gif"
    if payload[:4] == b"RIFF" and payload[8:12] == b"WEBP":
        return "webp"
    return None


def decode_bmp(payload: bytes) -> np.ndarray:
    """24-bit uncompressed (BI_RGB) bottom-up/top-down BMP → RGB array."""
    if len(payload) < 54 or payload[:2] != b"BM":
        raise ImageFormatError("not a BMP")
    (data_offset,) = struct.unpack_from("<I", payload, 10)
    (hdr_size, width, height) = struct.unpack_from("<Iii", payload, 14)
    if hdr_size < 40:
        raise ImageFormatError(f"unsupported DIB header size {hdr_size}")
    (planes, bpp) = struct.unpack_from("<HH", payload, 26)
    (compression,) = struct.unpack_from("<I", payload, 30)
    if planes != 1 or bpp != 24 or compression != 0:
        raise ImageFormatError(
            f"unsupported BMP (planes={planes}, bpp={bpp}, compression={compression})"
        )
    top_down = height < 0
    h = abs(height)
    if width <= 0 or h == 0:
        raise ImageFormatError("degenerate dimensions")
    row_bytes = (width * 3 + 3) & ~3  # rows padded to 4-byte boundaries
    need = data_offset + row_bytes * h
    if len(payload) < need:
        raise ImageFormatError("truncated pixel data")
    raw = np.frombuffer(payload, dtype=np.uint8, count=row_bytes * h, offset=data_offset)
    rows = raw.reshape(h, row_bytes)[:, : width * 3].reshape(h, width, 3)
    if not top_down:
        rows = rows[::-1]
    return rows[:, :, ::-1].copy()  # BGR → RGB


def encode_bmp(pixels: np.ndarray) -> bytes:
    """RGB array → 24-bit BI_RGB BMP bytes (the test/synth twin of
    :func:`decode_bmp`; round-trip is exact)."""
    h, w, _ = pixels.shape
    row_bytes = (w * 3 + 3) & ~3
    bgr = pixels[:, :, ::-1]
    body = np.zeros((h, row_bytes), dtype=np.uint8)
    body[:, : w * 3] = bgr[::-1].reshape(h, w * 3)
    data = body.tobytes()
    file_size = 54 + len(data)
    header = struct.pack("<2sIHHI", b"BM", file_size, 0, 0, 54) + struct.pack(
        "<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(data), 2835, 2835, 0, 0
    )
    return header + data


def encode_ppm(pixels: np.ndarray) -> bytes:
    """RGB array → binary P6 PPM bytes (the test/synth twin of
    :func:`decode_ppm`; round-trip is exact)."""
    h, w, _ = pixels.shape
    return b"P6\n%d %d\n255\n" % (w, h) + pixels.astype(np.uint8).tobytes()


def decode_ppm(payload: bytes) -> np.ndarray:
    """Binary PPM (P6, maxval ≤ 255) → RGB array."""
    if payload[:2] != b"P6":
        raise ImageFormatError("not a P6 PPM")
    # header: magic, width, height, maxval — whitespace separated with
    # '#' comments allowed between tokens
    pos = 2
    fields: list[int] = []
    n = len(payload)
    while len(fields) < 3 and pos < n:
        c = payload[pos : pos + 1]
        if c == b"#":
            nl = payload.find(b"\n", pos)
            pos = n if nl == -1 else nl + 1
        elif c.isspace():
            pos += 1
        elif c.isdigit():
            end = pos
            while end < n and payload[end : end + 1].isdigit():
                end += 1
            fields.append(int(payload[pos:end]))
            pos = end
        else:
            raise ImageFormatError("malformed PPM header")
    if len(fields) < 3 or pos >= n:
        raise ImageFormatError("truncated PPM header")
    w, h, maxval = fields
    if maxval > 255 or w <= 0 or h <= 0:
        raise ImageFormatError(f"unsupported PPM (maxval={maxval})")
    pos += 1  # single whitespace after maxval
    need = w * h * 3
    if n - pos < need:
        raise ImageFormatError("truncated pixel data")
    return (
        np.frombuffer(payload, dtype=np.uint8, count=need, offset=pos)
        .reshape(h, w, 3)
        .copy()
    )


# PNG color type → samples per pixel (8-bit depth)
_PNG_CHANNELS = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}


def _png_unfilter(raw: bytes, h: int, w: int, channels: int) -> np.ndarray:
    """Reverse the per-scanline PNG filters (types 0–4) → (h, w*ch) u8.

    Filters 0 (none), 1 (sub) and 2 (up) are fully vectorized — sub is
    a per-lane prefix sum mod 256, up is a running elementwise sum that
    uint8 wraps for free.  3 (average) and 4 (Paeth) depend on the
    previous PIXEL so they fall back to a per-pixel loop on that row
    only; our own encoder emits filter 0, and scanner output in the
    wild is dominated by 0/2.
    """
    stride = w * channels
    if len(raw) < h * (stride + 1):
        raise ImageFormatError("truncated PNG pixel data")
    rows = np.frombuffer(raw, dtype=np.uint8, count=h * (stride + 1)).reshape(
        h, stride + 1
    )
    filters = rows[:, 0]
    out = np.empty((h, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    bpp = channels
    for y in range(h):
        ft = int(filters[y])
        line = rows[y, 1:]
        if ft == 0:
            cur = line.copy()
        elif ft == 1:
            cur = (
                np.cumsum(line.reshape(w, bpp).astype(np.int64), axis=0) % 256
            ).astype(np.uint8).reshape(stride)
        elif ft == 2:
            cur = line + prev  # uint8 wraparound is the mod-256 add
        elif ft == 3:
            cur = np.empty(stride, dtype=np.uint8)
            left = np.zeros(bpp, dtype=np.int64)
            p64 = prev.astype(np.int64)
            l64 = line.astype(np.int64)
            for x in range(w):
                s = slice(x * bpp, (x + 1) * bpp)
                left = (l64[s] + ((left + p64[s]) >> 1)) & 0xFF
                cur[s] = left
        elif ft == 4:
            cur = np.empty(stride, dtype=np.uint8)
            left = np.zeros(bpp, dtype=np.int64)
            ul = np.zeros(bpp, dtype=np.int64)
            p64 = prev.astype(np.int64)
            l64 = line.astype(np.int64)
            for x in range(w):
                s = slice(x * bpp, (x + 1) * bpp)
                up = p64[s]
                p = left + up - ul
                pa_, pb, pc_ = np.abs(p - left), np.abs(p - up), np.abs(p - ul)
                pred = np.where(
                    (pa_ <= pb) & (pa_ <= pc_), left, np.where(pb <= pc_, up, ul)
                )
                left = (l64[s] + pred) & 0xFF
                cur[s] = left
                ul = up
        else:
            raise ImageFormatError(f"unknown PNG filter type {ft}")
        out[y] = cur
        prev = cur
    return out


def decode_png(payload: bytes) -> np.ndarray:
    """8-bit non-interlaced PNG (color types 0/2/3/4/6) → RGB array.

    Pure stdlib ``zlib`` inflate + numpy unfiltering; alpha is dropped
    (extraction cares about luminance, and scanned pages are opaque).
    """
    if payload[:8] != _PNG_SIG:
        raise ImageFormatError("not a PNG")
    pos, n = 8, len(payload)
    ihdr = None
    plte = None
    idat = bytearray()
    while pos + 8 <= n:
        (length,) = struct.unpack_from(">I", payload, pos)
        ctype = payload[pos + 4 : pos + 8]
        data_start = pos + 8
        if data_start + length > n:
            raise ImageFormatError("truncated PNG chunk")
        if ctype == b"IHDR":
            ihdr = payload[data_start : data_start + length]
        elif ctype == b"PLTE":
            plte = payload[data_start : data_start + length]
        elif ctype == b"IDAT":
            idat += payload[data_start : data_start + length]
        elif ctype == b"IEND":
            break
        pos = data_start + length + 4  # skip CRC
    if ihdr is None or len(ihdr) < 13:
        raise ImageFormatError("missing PNG IHDR")
    w, h, depth, color, comp, filt, interlace = struct.unpack(">IIBBBBB", ihdr[:13])
    if w <= 0 or h <= 0:
        raise ImageFormatError("degenerate dimensions")
    if depth != 8 or comp != 0 or filt != 0:
        raise ImageFormatError(
            f"unsupported PNG (depth={depth}, compression={comp}, filter={filt})"
        )
    if interlace != 0:
        raise ImageFormatError("Adam7-interlaced PNG unsupported")
    if color not in _PNG_CHANNELS:
        raise ImageFormatError(f"unsupported PNG color type {color}")
    if not idat:
        raise ImageFormatError("missing PNG IDAT")
    try:
        raw = zlib.decompress(bytes(idat))
    except zlib.error as exc:
        raise ImageFormatError(f"corrupt PNG IDAT: {exc}") from exc
    channels = _PNG_CHANNELS[color]
    flat = _png_unfilter(raw, h, w, channels)
    if color == 0:  # grayscale
        g = flat.reshape(h, w, 1)
        return np.repeat(g, 3, axis=2)
    if color == 4:  # gray + alpha → drop alpha
        g = flat.reshape(h, w, 2)[:, :, :1]
        return np.repeat(g, 3, axis=2)
    if color == 2:  # RGB
        return flat.reshape(h, w, 3).copy()
    if color == 6:  # RGBA → drop alpha
        return flat.reshape(h, w, 4)[:, :, :3].copy()
    # color == 3: palette
    if plte is None or len(plte) % 3:
        raise ImageFormatError("palette PNG without valid PLTE")
    lut = np.frombuffer(plte, dtype=np.uint8).reshape(-1, 3)
    idx = flat.reshape(h, w)
    if idx.max(initial=0) >= len(lut):
        raise ImageFormatError("palette index out of range")
    return lut[idx]


def _png_chunk(ctype: bytes, data: bytes) -> bytes:
    return (
        struct.pack(">I", len(data))
        + ctype
        + data
        + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF)
    )


def encode_png(pixels: np.ndarray) -> bytes:
    """RGB array → 8-bit truecolor PNG bytes (filter 0 rows; the
    test/synth twin of :func:`decode_png`; round-trip is exact)."""
    h, w, _ = pixels.shape
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    body = np.empty((h, 1 + w * 3), dtype=np.uint8)
    body[:, 0] = 0
    body[:, 1:] = pixels.reshape(h, w * 3)
    return (
        _PNG_SIG
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", zlib.compress(body.tobytes(), 6))
        + _png_chunk(b"IEND", b"")
    )


def decode_image(payload: bytes) -> np.ndarray:
    fmt = sniff_image_format(payload)
    if fmt == "bmp":
        return decode_bmp(payload)
    if fmt == "ppm":
        return decode_ppm(payload)
    if fmt == "png":
        return decode_png(payload)
    if fmt == "jpeg":
        # lazy import: jpeg.py imports ImageFormatError from this module
        from valere_ocr_ray.extract.jpeg import decode_jpeg

        return decode_jpeg(payload)
    if fmt == "tiff":
        # lazy import: tiff.py imports ImageFormatError from this module
        from valere_ocr_ray.extract.tiff import decode_tiff

        return decode_tiff(payload)
    if fmt == "gif":
        from valere_ocr_ray.extract.gif import decode_gif

        return decode_gif(payload)
    if fmt == "webp":
        from valere_ocr_ray.extract.webp import decode_webp

        return decode_webp(payload)
    raise ImageFormatError(
        "undecodable format (no BMP/PPM/PNG/JPEG/TIFF/GIF/WebP magic)"
    )


def image_feature(pixels: np.ndarray, dim: int = 32) -> np.ndarray:
    """Real image feature from decoded pixels: a ``dim-2``-bin
    normalized luminance histogram + log-scaled decoded width/height —
    the decoded GEOMETRY feeds the feature, which is what makes this a
    genuine decode path rather than a byte hash."""
    h, w, _ = pixels.shape
    lum = (
        0.299 * pixels[:, :, 0] + 0.587 * pixels[:, :, 1] + 0.114 * pixels[:, :, 2]
    ).ravel()
    hist, _ = np.histogram(lum, bins=dim - 2, range=(0.0, 255.0))
    feat = np.empty(dim, dtype=np.float32)
    feat[: dim - 2] = hist / max(lum.size, 1)
    feat[dim - 2] = np.log1p(w)
    feat[dim - 1] = np.log1p(h)
    return feat
