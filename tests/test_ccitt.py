"""CCITT Group 4 (T.6) codec: cross-validation against the system
libtiff in BOTH directions, self round-trips, the PDF XObject leg, and
the TIFF Compression=4 container path.

libtiff's raw-strip I/O exposes the bare T.6 bitstream, so the pinning
is at the compressed-bytes level: libtiff's encoder output must decode
bit-exactly here, and every stream ``encode_g4`` emits must decode
bit-exactly under libtiff — the same two-direction protocol the
VP8L/VP8 codecs use (it is what catches self-consistent misreadings of
the run tables that round-trip suites cannot).

Skips the libtiff halves cleanly when libtiff.so.6 is absent.
"""

from __future__ import annotations

import numpy as np
import pytest

from valere_ocr_ray.extract.ccitt import decode_g4, encode_g4
from valere_ocr_ray.extract.glyph_font import (
    canonical_text,
    ocr_image,
    render_text_image,
)
from valere_ocr_ray.extract.image_decode import ImageFormatError

from libtiff_oracle import HAVE_LIBTIFF, ref_decode_g4, ref_encode_g4

CARD_LINES = ["MEMBER ID: XQ998", "GROUP NO. G04217", "PLAN TYPE: PPO"]

needs_libtiff = pytest.mark.skipif(
    not HAVE_LIBTIFF, reason="libtiff.so.6 absent"
)


def _cases() -> dict[str, np.ndarray]:
    rng = np.random.RandomState(2)
    return {
        "card": render_text_image(CARD_LINES)[:, :, 0] < 128,
        "noise": rng.rand(40, 67) < 0.5,
        "sparse": rng.rand(64, 256) < 0.01,
        "dense": rng.rand(30, 90) < 0.97,
        "empty": np.zeros((12, 50), bool),
        "full": np.ones((12, 50), bool),
        # long alternating runs exercise make-up codes incl. >2560
        "runs": np.tile((np.arange(3000) % 997) < 600, (5, 1)),
        "blobs": (np.cumsum(rng.rand(50, 120) < 0.05, axis=1) % 2).astype(bool),
        "one": np.array([[True]]),
        "col": rng.rand(200, 1) < 0.4,
    }


def test_self_roundtrip():
    for name, ink in _cases().items():
        h, w = ink.shape
        back = decode_g4(encode_g4(ink), w, h)
        assert np.array_equal(back, ink), name


@needs_libtiff
def test_libtiff_streams_decode_bit_exact():
    for name, ink in _cases().items():
        h, w = ink.shape
        mine = decode_g4(ref_encode_g4(ink), w, h)
        assert np.array_equal(mine, ink), name


@needs_libtiff
def test_encoded_streams_accepted_by_libtiff():
    for name, ink in _cases().items():
        h, w = ink.shape
        back = ref_decode_g4(encode_g4(ink), w, h)
        assert back is not None, name
        assert np.array_equal(back, ink), name


@needs_libtiff
def test_fuzz_both_directions():
    rng = np.random.RandomState(77)
    for trial in range(25):
        h = int(rng.randint(1, 40))
        w = int(rng.randint(1, 400))
        density = rng.rand()
        ink = rng.rand(h, w) < density
        assert np.array_equal(decode_g4(ref_encode_g4(ink), w, h), ink), trial
        back = ref_decode_g4(encode_g4(ink), w, h)
        assert back is not None and np.array_equal(back, ink), trial


def test_malformed_rejected():
    with pytest.raises(ImageFormatError):
        # horizontal-mode code then the stream dies mid run-length
        decode_g4(b"\x20", 64, 4)
    with pytest.raises(ImageFormatError):
        decode_g4(b"", 0, 4)  # bad geometry


# ------------------------------------------------- container integration

def test_scanned_pdf_ccitt_ocr():
    """The flagship shape: an image-only PDF whose page is a G4
    XObject — decode + OCR must be byte-exact (G4 is lossless)."""
    from valere_ocr_ray.extract.pdf_images import (
        extract_pdf_images,
        ocr_pdf_images,
    )
    from valere_ocr_ray.sources.synth import build_scanned_pdf_bytes

    pdf = build_scanned_pdf_bytes(CARD_LINES, codec="ccitt")
    imgs = extract_pdf_images(pdf)
    assert len(imgs) == 1 and imgs[0] is not None
    text, n_found, n_decoded = ocr_pdf_images(pdf)
    assert (n_found, n_decoded) == (1, 1)
    assert text == canonical_text(CARD_LINES)


def test_mixed_g3_pdf_xobject_ocr():
    """A /K 2 (mixed 2-D G3) CCITT XObject decodes and OCRs byte-exact
    — the round-3 seam is closed; all three /K regimes extract."""
    from valere_ocr_ray.extract.pdf_images import (
        extract_pdf_images,
        ocr_pdf_images,
    )
    from valere_ocr_ray.sources.synth import build_scanned_pdf_bytes

    pdf = build_scanned_pdf_bytes(CARD_LINES, codec="ccitt_mixed")
    imgs = extract_pdf_images(pdf)
    assert len(imgs) == 1 and imgs[0] is not None
    text, n_found, n_decoded = ocr_pdf_images(pdf)
    assert (n_found, n_decoded) == (1, 1)
    assert text == canonical_text(CARD_LINES)


def test_g3_mixed_self_roundtrip():
    from valere_ocr_ray.extract.ccitt import decode_g3_mixed, encode_g3_mixed

    for name, ink in _cases().items():
        h, w = ink.shape
        for k in (1, 2, 4):
            for align in (False, True):
                back = decode_g3_mixed(
                    encode_g3_mixed(ink, k=k, byte_align=align),
                    w, h, byte_align=align,
                )
                assert np.array_equal(back, ink), (name, k, align)


@needs_libtiff
def test_g3_mixed_cross_validates_with_libtiff():
    """TIFF Compression=3 with T4Options bit 0 (2-D encoding) IS the
    T.4 mixed stream: libtiff's encoder output must decode here, and
    every encode_g3_mixed stream must decode under libtiff."""
    from valere_ocr_ray.extract.ccitt import decode_g3_mixed, encode_g3_mixed

    for name, ink in _cases().items():
        h, w = ink.shape
        ref_bits = ref_encode_g4(ink, compression=3, t4options=1)
        mine = decode_g3_mixed(ref_bits, w, h)
        assert np.array_equal(mine, ink), name
        for k in (1, 4):
            back = ref_decode_g4(
                encode_g3_mixed(ink, k=k), w, h, compression=3, t4options=1
            )
            assert back is not None and np.array_equal(back, ink), (name, k)


def test_g3_1d_self_roundtrip():
    from valere_ocr_ray.extract.ccitt import decode_g3_1d, encode_g3_1d

    for name, ink in _cases().items():
        h, w = ink.shape
        for align in (False, True):
            back = decode_g3_1d(
                encode_g3_1d(ink, byte_align=align), w, h, byte_align=align
            )
            assert np.array_equal(back, ink), (name, align)


@needs_libtiff
def test_g3_rle_cross_validates_with_libtiff():
    # TIFF Compression=2 ("CCITT RLE") is exactly MH with byte-aligned
    # rows — the same run tables G4 horizontal mode shares
    from valere_ocr_ray.extract.ccitt import decode_g3_1d, encode_g3_1d

    for name, ink in _cases().items():
        h, w = ink.shape
        ref_bits = ref_encode_g4(ink, compression=2)
        mine = decode_g3_1d(ref_bits, w, h, byte_align=True)
        assert np.array_equal(mine, ink), name
        back = ref_decode_g4(
            encode_g3_1d(ink, byte_align=True), w, h, compression=2
        )
        assert back is not None and np.array_equal(back, ink), name


def test_g3_pdf_xobject_ocr():
    """A /K 0 (pure 1-D) CCITT XObject decodes and OCRs byte-exact."""
    from valere_ocr_ray.extract.ccitt import encode_g3_1d
    from valere_ocr_ray.extract.pdf_images import extract_pdf_images
    from valere_ocr_ray.sources.synth import build_scanned_pdf_bytes

    pdf = build_scanned_pdf_bytes(CARD_LINES, codec="ccitt")
    # rebuild the XObject body as G3 1-D with /K 0
    img = render_text_image(CARD_LINES)
    g3_body = encode_g3_1d(img[:, :, 0] < 128)
    from valere_ocr_ray.extract.pdf_text import iter_streams

    (dct, s, e), = [t for t in iter_streams(pdf) if b"/Image" in t[0]]
    old_body = pdf[s:e]
    newdct = dct.replace(b"/K -1", b"/K 0").replace(
        b"/Length " + str(len(old_body)).encode(),
        b"/Length " + str(len(g3_body)).encode(),
    )
    g3_pdf = pdf.replace(dct, newdct).replace(old_body, g3_body)
    imgs = extract_pdf_images(g3_pdf)
    assert len(imgs) == 1 and imgs[0] is not None
    assert ocr_image(imgs[0]) == canonical_text(CARD_LINES)


@needs_libtiff
def test_tiff_g4_container_decodes():
    """A complete G4 TIFF file written by libtiff decodes through
    decode_tiff (strips, photometric handling) and OCRs byte-exact."""
    import ctypes
    import os
    import tempfile

    from libtiff_oracle import _lib, _open_g4, _pack_bits

    from valere_ocr_ray.extract.tiff import decode_tiff

    img = render_text_image(CARD_LINES)
    ink = img[:, :, 0] < 128
    h, w = ink.shape
    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "x.tif")
        tif = _open_g4(path, b"w", w, h)
        bits = _pack_bits(ink)
        assert _lib.TIFFWriteEncodedStrip(tif, 0, bits, len(bits)) > 0
        _lib.TIFFClose(tif)
        data = open(path, "rb").read()
    px = decode_tiff(data)
    assert np.array_equal(px[:, :, 0] < 128, ink)
    assert ocr_image(px) == canonical_text(CARD_LINES)


def test_g3_mixed_unbounded_fill_before_eol():
    """T.4 fill before an EOL is unbounded (minimum scan-line time);
    a >32-bit zero run must not desync the EOL scan (ADVICE r4).  EOL
    (000000000001) is the only 12-zero bit pattern in a T.4 stream, so
    splicing 40 extra fill zeros ahead of every EOL is a valid stream."""
    from valere_ocr_ray.extract.ccitt import decode_g3_mixed, encode_g3_mixed

    ink = list(_cases().values())[0]
    h, w = ink.shape
    enc = encode_g3_mixed(ink, k=2)
    bits = "".join(f"{b:08b}" for b in enc)
    stuffed = bits.replace("000000000001", "0" * 40 + "000000000001")
    stuffed += "0" * (-len(stuffed) % 8)
    data = bytes(int(stuffed[i : i + 8], 2) for i in range(0, len(stuffed), 8))
    assert np.array_equal(decode_g3_mixed(data, w, h), ink)
