"""Baseline JPEG codec unit tests (the real kernel behind the OCR seam
for the reference's primary scanned-JPG modality)."""

import numpy as np
import pytest

from valere_ocr_ray.extract.image_decode import (
    ImageFormatError,
    decode_image,
    sniff_image_format,
)
from valere_ocr_ray.extract.jpeg import (
    decode_jpeg,
    encode_jpeg,
    encode_jpeg_progressive,
)


def _gradient(h=40, w=56):
    yy, xx = np.mgrid[0:h, 0:w]
    return np.stack(
        [(xx * 4) % 256, (yy * 6) % 256, ((xx + yy) * 3) % 256], axis=2
    ).astype(np.uint8)


def test_roundtrip_444_error_bounded():
    img = _gradient()
    for q in (75, 90, 95):
        dec = decode_jpeg(encode_jpeg(img, quality=q))
        assert dec.shape == img.shape
        err = np.abs(dec.astype(int) - img.astype(int)).mean()
        assert err < 3.0, f"q={q} mean err {err}"


def test_roundtrip_420_subsampling():
    img = _gradient(42, 50)  # non-multiple of 16: pad + crop path
    dec = decode_jpeg(encode_jpeg(img, quality=90, subsampling="420"))
    assert dec.shape == img.shape
    # luminance must survive subsampling closely; chroma is lossy
    lum = lambda a: 0.299 * a[:, :, 0] + 0.587 * a[:, :, 1] + 0.114 * a[:, :, 2]
    assert np.abs(lum(dec) - lum(img)).mean() < 3.0


def test_odd_dimensions():
    for h, w in ((1, 1), (7, 9), (8, 8), (17, 23)):
        img = _gradient(h, w)
        dec = decode_jpeg(encode_jpeg(img, quality=95))
        assert dec.shape == (h, w, 3)


def test_sniff_and_dispatch():
    img = _gradient(8, 8)
    payload = encode_jpeg(img)
    assert sniff_image_format(payload) == "jpeg"
    assert decode_image(payload).shape == (8, 8, 3)


def test_ocr_through_jpeg_byte_exact():
    """The headline contract: glyph OCR over a quality-90 JPEG scan
    reproduces the printed text byte-for-byte (binarization is immune
    to DCT ringing at this quality)."""
    from valere_ocr_ray.extract.glyph_font import (
        canonical_text,
        ocr_image_bytes,
        render_text_image,
    )

    lines = ["MEMBER ID: A12345", "GROUP: XY-99", "PLAN (PPO) 7/2024"]
    img = render_text_image(lines)
    for q in (85, 90, 95):
        assert ocr_image_bytes(encode_jpeg(img, quality=q)) == canonical_text(lines)


def test_grayscale_single_component():
    """Hand-build a 1-component scan: encode RGB gray, then rewrite as
    grayscale via the encoder's luma plane — simpler: decode a 3-comp
    encoding of a gray image and compare against gray values."""
    g = np.repeat(
        np.linspace(0, 255, 16, dtype=np.uint8).reshape(4, 4)[:, :, None], 3, 2
    )
    dec = decode_jpeg(encode_jpeg(g, quality=95))
    assert np.abs(dec.astype(int) - g.astype(int)).max() <= 16


def test_corrupt_and_unsupported_raise():
    img = _gradient(8, 8)
    good = encode_jpeg(img)
    with pytest.raises(ImageFormatError):
        decode_jpeg(b"\xff\xd8\xff\xe0garbage")
    with pytest.raises(ImageFormatError):
        decode_jpeg(good[:20])  # truncated before SOS
    with pytest.raises(ImageFormatError):
        decode_jpeg(b"notajpeg")
    # arithmetic-coding marker (SOF9) rejected cleanly (progressive
    # SOF2 is now a SUPPORTED mode — see the progressive tests below)
    arith = bytearray(good)
    idx = arith.find(b"\xff\xc0")
    arith[idx + 1] = 0xC9
    with pytest.raises(ImageFormatError):
        decode_jpeg(bytes(arith))


@pytest.mark.parametrize("encode", [encode_jpeg, encode_jpeg_progressive])
def test_bit_flip_fuzz_raises_only_image_format_error(encode):
    """200 seeded 1-4 bit-flip mutants of one small RGB JPEG: each one
    decodes or raises ImageFormatError (the extractor's skip status),
    never another exception type (which routes to error_parse), and
    no decode takes more than 1 s."""
    import random
    import time

    good = encode(_gradient(24, 32))
    rng = random.Random(1)
    n_raised = 0
    for _ in range(200):
        bad = bytearray(good)
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(len(bad))
            bad[i] ^= 1 << rng.randrange(8)
        t0 = time.perf_counter()
        try:
            decode_jpeg(bytes(bad))
        except ImageFormatError:
            n_raised += 1
        assert time.perf_counter() - t0 < 1.0
    assert n_raised > 0  # the mutants do reach the error paths


@pytest.mark.parametrize("encode", [encode_jpeg, encode_jpeg_progressive])
def test_oversized_frame_raises_before_allocating(encode):
    """A SOF that claims 4096x4096 on a 24x32 payload is refused before
    the decoder builds per-block state for it: ImageFormatError, with a
    traced allocation peak under 16 MB."""
    import struct
    import tracemalloc

    good = encode(_gradient(24, 32))
    sof = max(good.find(b"\xff\xc0"), good.find(b"\xff\xc2"))
    bad = bytearray(good)
    struct.pack_into(">HH", bad, sof + 5, 4096, 4096)  # after length, precision
    tracemalloc.start()
    try:
        with pytest.raises(ImageFormatError):
            decode_jpeg(bytes(bad))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_restart_markers():
    """DRI/RSTn path: a restart-encoded stream decodes identically to
    the same image without restarts."""
    img = _gradient(40, 56)
    plain = decode_jpeg(encode_jpeg(img, quality=92))
    restarted = decode_jpeg(encode_jpeg(img, quality=92, restart_interval=3))
    assert np.array_equal(plain, restarted)


# ---------------------------------------------------------------------------
# progressive (SOF2) mode — the other half of real-world web JPEG
# ---------------------------------------------------------------------------


def test_progressive_pixel_identical_to_baseline():
    """Progressive is a pure reordering of the same quantized
    coefficients, so decode(progressive) must be BYTE-IDENTICAL to
    decode(baseline) at the same quality/subsampling — across shapes
    (incl. odd dims and sub-MCU images), both subsampling modes and
    several qualities."""
    for h, w in ((1, 1), (7, 9), (8, 8), (17, 23), (40, 56)):
        img = _gradient(h, w)
        for sub in ("444", "420"):
            for q in (75, 90, 95):
                base = decode_jpeg(encode_jpeg(img, quality=q, subsampling=sub))
                prog = decode_jpeg(
                    encode_jpeg_progressive(img, quality=q, subsampling=sub)
                )
                assert np.array_equal(base, prog), (h, w, sub, q)


def test_progressive_flat_text_card_identity():
    """Mostly-flat text-card content drives the long-EOB-run and
    AC-refinement paths (runs of zero/correction bits); identity must
    hold there too."""
    from valere_ocr_ray.extract.glyph_font import render_text_image

    img = render_text_image(["POLICY NO 12345", "TOTAL DUE $99.10"])
    for sub in ("444", "420"):
        base = decode_jpeg(encode_jpeg(img, quality=90, subsampling=sub))
        prog = decode_jpeg(encode_jpeg_progressive(img, quality=90, subsampling=sub))
        assert np.array_equal(base, prog), sub


def test_progressive_sniff_and_dispatch():
    payload = encode_jpeg_progressive(_gradient(8, 8))
    assert payload[:2] == b"\xff\xd8"
    assert b"\xff\xc2" in payload  # SOF2 frame marker present
    assert sniff_image_format(payload) == "jpeg"
    assert decode_image(payload).shape == (8, 8, 3)


def test_ocr_through_progressive_jpeg_byte_exact():
    """Glyph OCR over a progressive scan reproduces the printed text
    byte-for-byte, same contract as the baseline path."""
    from valere_ocr_ray.extract.glyph_font import (
        canonical_text,
        ocr_image_bytes,
        render_text_image,
    )

    lines = ["MEMBER ID: A12345", "GROUP: XY-99", "PLAN (PPO) 7/2024"]
    img = render_text_image(lines)
    for q in (85, 90, 95):
        assert ocr_image_bytes(
            encode_jpeg_progressive(img, quality=q)
        ) == canonical_text(lines)
