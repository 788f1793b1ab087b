"""BMP/PPM/PNG decoder unit tests (the real kernels behind the multimodal seam)."""

import numpy as np
import pytest
from conftest import bit_flip_fuzz

from valere_ocr_ray.extract.image_decode import (
    ImageFormatError,
    decode_bmp,
    decode_image,
    decode_ppm,
    encode_bmp,
    image_feature,
    sniff_image_format,
)


def _pixels(w=13, h=7, seed=3):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, (h, w, 3)).astype(np.uint8)


def test_bmp_roundtrip_exact():
    px = _pixels()
    assert np.array_equal(decode_bmp(encode_bmp(px)), px)


def test_bmp_row_padding_widths():
    # widths 1..8 cover every 4-byte padding case
    for w in range(1, 9):
        px = _pixels(w=w, h=3, seed=w)
        assert np.array_equal(decode_bmp(encode_bmp(px)), px)


def test_ppm_decode_with_comments():
    px = _pixels(w=4, h=2)
    payload = b"P6\n# a comment\n4 2\n# another\n255\n" + px.tobytes()
    assert np.array_equal(decode_ppm(payload), px)


def test_sniff_and_dispatch():
    px = _pixels(w=3, h=3)
    assert sniff_image_format(encode_bmp(px)) == "bmp"
    assert sniff_image_format(b"P6\n3 3\n255\n" + px.tobytes()) == "ppm"
    assert sniff_image_format(b"\x89PNG\r\n") is None
    assert np.array_equal(decode_image(encode_bmp(px)), px)


def test_corrupt_payloads_raise_format_error():
    with pytest.raises(ImageFormatError):
        decode_bmp(b"BM" + b"\x00" * 20)  # truncated header
    with pytest.raises(ImageFormatError):
        decode_ppm(b"P6\n4 2\n255\n\x00\x00")  # truncated pixels
    px = _pixels(w=4, h=4)
    good = encode_bmp(px)
    with pytest.raises(ImageFormatError):
        decode_bmp(good[: len(good) // 2])  # truncated pixel data
    with pytest.raises(ImageFormatError):
        decode_image(b"GIF89a....")


def test_image_feature_geometry_tail():
    px = _pixels(w=20, h=10)
    f = image_feature(px, dim=32)
    assert f.shape == (32,)
    assert abs(f[-2] - np.log1p(20)) < 1e-6
    assert abs(f[-1] - np.log1p(10)) < 1e-6
    assert abs(f[:30].sum() - 1.0) < 1e-5  # normalized histogram


def _png_with(color_type, raw_rows, w, h, plte=None):
    import struct
    import zlib

    from valere_ocr_ray.extract.image_decode import _PNG_SIG, _png_chunk

    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    png = _PNG_SIG + _png_chunk(b"IHDR", ihdr)
    if plte is not None:
        png += _png_chunk(b"PLTE", plte)
    return png + _png_chunk(b"IDAT", zlib.compress(raw_rows)) + _png_chunk(b"IEND", b"")


def test_png_roundtrip_exact():
    from valere_ocr_ray.extract.image_decode import decode_png, encode_png

    px = _pixels(w=17, h=11)
    payload = encode_png(px)
    assert sniff_image_format(payload) == "png"
    assert np.array_equal(decode_png(payload), px)
    assert np.array_equal(decode_image(payload), px)


def test_png_all_filter_types():
    """Forward-filter rows per the PNG spec (sub/up/average/Paeth) and
    check the decoder inverts each — the part a roundtrip through our
    filter-0 encoder cannot exercise."""
    from valere_ocr_ray.extract.image_decode import decode_png

    px = _pixels(w=9, h=6, seed=11)
    h, w, ch = px.shape
    flat = px.reshape(h, w * ch).astype(np.int64)
    for fts in ([1], [2], [3], [4], [0, 1, 2, 3, 4]):
        out = bytearray()
        prev = np.zeros(w * ch, np.int64)
        for y in range(h):
            ft = fts[y % len(fts)]
            line = flat[y]
            if ft == 0:
                f = line.copy()
            elif ft == 1:
                f = line.copy()
                f[ch:] = (line[ch:] - line[:-ch]) % 256
            elif ft == 2:
                f = (line - prev) % 256
            elif ft == 3:
                left = np.concatenate([np.zeros(ch, np.int64), line[:-ch]])
                f = (line - ((left + prev) // 2)) % 256
            else:  # Paeth
                f = np.empty(w * ch, np.int64)
                for x in range(w * ch):
                    a = line[x - ch] if x >= ch else 0
                    b = prev[x]
                    c = prev[x - ch] if x >= ch else 0
                    p = a + b - c
                    pa_, pb, pc_ = abs(p - a), abs(p - b), abs(p - c)
                    pred = a if (pa_ <= pb and pa_ <= pc_) else (b if pb <= pc_ else c)
                    f[x] = (line[x] - pred) % 256
            out.append(ft)
            out += bytes(f.astype(np.uint8))
            prev = line
        got = decode_png(_png_with(2, bytes(out), w, h))
        assert np.array_equal(got, px), f"filters {fts}"


def test_png_color_types():
    from valere_ocr_ray.extract.image_decode import decode_png

    rng = np.random.default_rng(5)
    g = rng.integers(0, 256, (5, 4), dtype=np.uint8)
    raw = b"".join(b"\0" + g[y].tobytes() for y in range(5))
    assert np.array_equal(
        decode_png(_png_with(0, raw, 4, 5)), np.repeat(g[:, :, None], 3, 2)
    )
    ga = rng.integers(0, 256, (5, 4, 2), dtype=np.uint8)
    raw = b"".join(b"\0" + ga[y].tobytes() for y in range(5))
    assert np.array_equal(
        decode_png(_png_with(4, raw, 4, 5)), np.repeat(ga[:, :, :1], 3, 2)
    )
    rgba = rng.integers(0, 256, (5, 4, 4), dtype=np.uint8)
    raw = b"".join(b"\0" + rgba[y].tobytes() for y in range(5))
    assert np.array_equal(decode_png(_png_with(6, raw, 4, 5)), rgba[:, :, :3])
    plte = rng.integers(0, 256, (7, 3), dtype=np.uint8)
    idx = rng.integers(0, 7, (5, 4), dtype=np.uint8)
    raw = b"".join(b"\0" + idx[y].tobytes() for y in range(5))
    assert np.array_equal(
        decode_png(_png_with(3, raw, 4, 5, plte.tobytes())), plte[idx]
    )


def test_png_corrupt_and_unsupported_raise():
    import struct
    import zlib

    from valere_ocr_ray.extract.image_decode import (
        _PNG_SIG,
        _png_chunk,
        decode_png,
        encode_png,
    )

    px = _pixels(w=4, h=4)
    good = encode_png(px)
    with pytest.raises(ImageFormatError):
        decode_png(good[:30])  # truncated chunk
    with pytest.raises(ImageFormatError):
        decode_png(b"\x89PNG\r\n\x1a\nxxxx")  # garbage after sig
    # 16-bit depth unsupported
    ihdr = struct.pack(">IIBBBBB", 2, 2, 16, 2, 0, 0, 0)
    bad = _PNG_SIG + _png_chunk(b"IHDR", ihdr) + _png_chunk(b"IDAT", zlib.compress(b"\0" * 26)) + _png_chunk(b"IEND", b"")
    with pytest.raises(ImageFormatError):
        decode_png(bad)
    # interlaced unsupported
    ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 2, 0, 0, 1)
    bad = _PNG_SIG + _png_chunk(b"IHDR", ihdr) + _png_chunk(b"IDAT", zlib.compress(b"\0" * 14)) + _png_chunk(b"IEND", b"")
    with pytest.raises(ImageFormatError):
        decode_png(bad)
    # corrupt deflate stream
    bad = _PNG_SIG + _png_chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 2, 8, 2, 0, 0, 0)) + _png_chunk(b"IDAT", b"notdeflate") + _png_chunk(b"IEND", b"")
    with pytest.raises(ImageFormatError):
        decode_png(bad)


def _fuzz_pixels() -> np.ndarray:
    """The 24×32 RGB gradient every bit-flip fuzz fixture encodes."""
    yy, xx = np.mgrid[0:24, 0:32]
    px = np.stack([(xx * 4) % 256, (yy * 6) % 256, ((xx + yy) * 3) % 256], axis=2)
    return px.astype(np.uint8)


def _fuzz_fixtures():
    from valere_ocr_ray.extract.gif import encode_gif
    from valere_ocr_ray.extract.image_decode import encode_png
    from valere_ocr_ray.extract.tiff import encode_tiff
    from valere_ocr_ray.extract.vp8 import encode_vp8
    from valere_ocr_ray.extract.webp import encode_webp

    px = _fuzz_pixels()
    return {
        "png": lambda: encode_png(px),
        "gif": lambda: encode_gif(px // 64 * 64),  # <= 64 colors
        "tiff_raw": lambda: encode_tiff(px),
        "tiff_lzw": lambda: encode_tiff(px, lzw=True),
        "tiff_lzw_predictor": lambda: encode_tiff(px, lzw=True, predictor=True),
        "webp": lambda: encode_webp(px),
        "webp_predictor_subtract_green": lambda: encode_webp(
            px, predictor=True, subtract_green=True
        ),
        "webp_vp8": lambda: encode_vp8(px),
    }


@pytest.mark.parametrize("fixture", list(_fuzz_fixtures()))
def test_bit_flip_fuzz_raises_only_image_format_error(fixture):
    """200 seeded 1-4 bit-flip mutants of one small RGB image per codec:
    ``decode_image`` decodes each or raises ImageFormatError (the
    extractor's skip status), never another exception type (which routes
    to error_parse), and no decode takes more than 1 s."""
    good = _fuzz_fixtures()[fixture]()
    assert bit_flip_fuzz(good, decode_image, ImageFormatError) > 0


def test_png_scanline_and_header_fuzz():
    """Mutants past inflate: flip 1-4 bits of the fixture's inflated
    scanlines (filter bytes included) or, one time in four, of its
    IHDR, then recompress with valid CRCs, so unfiltering and the
    header checks see the damage instead of zlib's Adler-32.  Each of
    400 mutants decodes or raises ImageFormatError within 1 s."""
    import random
    import struct
    import time
    import zlib

    from valere_ocr_ray.extract.image_decode import _PNG_SIG, _png_chunk, encode_png

    good = encode_png(_fuzz_pixels())
    chunks, pos = {}, len(_PNG_SIG)
    while pos < len(good):
        (n,) = struct.unpack(">I", good[pos : pos + 4])
        chunks[good[pos + 4 : pos + 8]] = good[pos + 8 : pos + 8 + n]
        pos += 12 + n
    rng = random.Random(1)
    n_raised = n_decoded = 0
    for _ in range(400):
        ihdr, raw = bytearray(chunks[b"IHDR"]), bytearray(zlib.decompress(chunks[b"IDAT"]))
        target = ihdr if rng.random() < 0.25 else raw
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(len(target))
            target[i] ^= 1 << rng.randrange(8)
        bad = (
            _PNG_SIG
            + _png_chunk(b"IHDR", bytes(ihdr))
            + _png_chunk(b"IDAT", zlib.compress(bytes(raw)))
            + _png_chunk(b"IEND", b"")
        )
        t0 = time.perf_counter()
        try:
            decode_image(bad)
            n_decoded += 1
        except ImageFormatError:
            n_raised += 1
        assert time.perf_counter() - t0 < 1.0
    assert n_raised > 0 and n_decoded > 0
