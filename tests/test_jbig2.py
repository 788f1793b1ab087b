"""JBIG2 (T.88) codec: MQ coder pinned to the published Annex H.2
test vector in BOTH directions, generic-region round-trips, segment
parsing, the PDF /JBIG2Decode XObject leg, and seam routing for the
unsupported segment families.

No system JBIG2 library exists in this container, so the external
anchor is the spec's own known-answer test: decoding the published
30-byte MQ codeword yields a bit sequence whose re-encode reproduces
the codeword byte-for-byte (flush marker 0xFF 0xAC included) — a
self-consistent coder with any deviation from the spec's state table,
stuffing or flush rules cannot do that.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import bit_flip_fuzz

from valere_ocr_ray.extract.glyph_font import canonical_text, render_text_image
from valere_ocr_ray.extract.image_decode import ImageFormatError
from valere_ocr_ray.extract.jbig2 import (
    MQDecoder,
    MQEncoder,
    decode_generic_region,
    decode_jbig2_embedded,
    encode_generic_region,
    encode_jbig2_embedded,
)

CARD_LINES = ["MEMBER ID: XQ998", "GROUP NO. G04217", "PLAN TYPE: PPO"]

# ITU-T T.88 Annex H.2 (== JPEG 2000 MQ test): the published codeword
_H2_CODEWORD = bytes.fromhex(
    "84C73BFCE1A1430402200000410DBB86F4317FFF88FF37471ADB6ADFFFAC"
)


def _cases() -> dict[str, np.ndarray]:
    rng = np.random.RandomState(3)
    return {
        "card": render_text_image(CARD_LINES)[:, :, 0] < 128,
        "noise": rng.rand(40, 67) < 0.5,
        "sparse": rng.rand(64, 256) < 0.01,
        "dense": rng.rand(30, 90) < 0.97,
        "empty": np.zeros((12, 50), bool),
        "full": np.ones((12, 50), bool),
        "one": np.array([[True]]),
        "narrow": rng.rand(200, 3) < 0.4,
        "stripes": np.tile((np.arange(120) % 7) < 3, (25, 1)),
    }


def test_mq_coder_matches_published_vector():
    """Decode the published H.2 codeword through a single context, then
    re-encode the decision sequence: the output must equal the
    published bytes exactly (mid-stream 0xFF stuffing AND the 0xFF 0xAC
    flush marker)."""
    dec = MQDecoder(_H2_CODEWORD)
    icx, mps = [0], [0]
    bits = [dec.decode(icx, mps, 0) for _ in range(256)]
    enc = MQEncoder()
    icx, mps = [0], [0]
    for d in bits:
        enc.encode(icx, mps, 0, d)
    assert enc.flush() == _H2_CODEWORD


def test_mq_roundtrip_fuzz():
    rng = np.random.RandomState(9)
    for trial in range(20):
        n = int(rng.randint(1, 2000))
        p = rng.rand()
        bits = (rng.rand(n) < p).astype(int).tolist()
        n_ctx = int(rng.randint(1, 8))
        ctxs = rng.randint(0, n_ctx, size=n).tolist()
        enc = MQEncoder()
        icx, mps = [0] * n_ctx, [0] * n_ctx
        for cx, d in zip(ctxs, bits):
            enc.encode(icx, mps, cx, d)
        data = enc.flush()
        dec = MQDecoder(data)
        icx, mps = [0] * n_ctx, [0] * n_ctx
        back = [dec.decode(icx, mps, cx) for cx in ctxs]
        assert back == bits, trial


def test_generic_region_roundtrip():
    for name, ink in _cases().items():
        h, w = ink.shape
        enc = encode_generic_region(ink)
        assert np.array_equal(decode_generic_region(enc, w, h), ink), name


def test_embedded_stream_roundtrip():
    for name, ink in _cases().items():
        h, w = ink.shape
        emb = encode_jbig2_embedded(ink)
        assert np.array_equal(decode_jbig2_embedded(emb, w, h), ink), name


def test_scanned_pdf_jbig2_ocr():
    """A /JBIG2Decode XObject decodes and OCRs byte-exact — the same
    text as its BMP twin (JBIG2 generic coding is lossless)."""
    from valere_ocr_ray.extract.pdf_images import (
        extract_pdf_images,
        ocr_pdf_images,
    )
    from valere_ocr_ray.sources.synth import build_scanned_pdf_bytes

    pdf = build_scanned_pdf_bytes(CARD_LINES, codec="jbig2")
    imgs = extract_pdf_images(pdf)
    assert len(imgs) == 1 and imgs[0] is not None
    text, n_found, n_decoded = ocr_pdf_images(pdf)
    assert (n_found, n_decoded) == (1, 1)
    assert text == canonical_text(CARD_LINES)


def test_unsupported_segments_route_not_crash():
    import struct

    # a symbol-dictionary segment (type 0) must raise, not decode junk
    hdr = struct.pack(">IBBBI", 0, 0, 0, 1, 4) + b"\x00\x00\x00\x00"
    with pytest.raises(ImageFormatError):
        decode_jbig2_embedded(hdr, 10, 10)
    # no region at all
    with pytest.raises(ImageFormatError):
        decode_jbig2_embedded(b"", 10, 10)
    # truncated segment data
    with pytest.raises(ImageFormatError):
        decode_jbig2_embedded(struct.pack(">IBBBI", 0, 38, 0, 1, 99), 10, 10)
    # a NON-CAUSAL AT pixel (current row, at-or-right-of x) is refused
    # loudly — no conformant encoder emits one
    with pytest.raises(ImageFormatError):
        decode_generic_region(b"\x00", 4, 4, at=((1, 0),) * 4)
    # unknown template id
    with pytest.raises(ImageFormatError):
        decode_generic_region(b"\x00", 4, 4, template=7)


def test_mmr_generic_region_decodes():
    """MMR=1 generic regions carry T.6 (G4) data — the existing CCITT
    decoder serves them through the same segment path."""
    import struct

    from valere_ocr_ray.extract.ccitt import encode_g4

    ink = _cases()["card"]
    h, w = ink.shape
    body = encode_g4(ink)
    region = struct.pack(">IIIIB", w, h, 0, 0, 0) + bytes([0x01]) + body
    page_info = struct.pack(">IIIIBH", w, h, 0, 0, 1, 0)
    stream = (
        struct.pack(">IBBBI", 0, 48, 0, 1, len(page_info)) + page_info
        + struct.pack(">IBBBI", 1, 38, 0, 1, len(region)) + region
    )
    assert np.array_equal(decode_jbig2_embedded(stream, w, h), ink)


def test_generic_template_path_equals_fast_path():
    """The template-list decoder on (template 0, nominal AT) must agree
    with the pinned incremental-window fast path on the same stream —
    this anchors the generic construction (sorted-by-(y,x), MSB-first)
    to the layout the published SLTP context 0x9B25 validates."""
    from valere_ocr_ray.extract.jbig2 import (
        _NOMINAL_AT0,
        _decode_generic_template,
    )

    for name, ink in _cases().items():
        h, w = ink.shape
        enc = encode_generic_region(ink)
        fast = decode_generic_region(enc, w, h)
        slow = _decode_generic_template(enc, w, h, 0, _NOMINAL_AT0, False)
        assert np.array_equal(slow, fast) and np.array_equal(slow, ink), name


def test_generic_templates_1_to_3_roundtrip():
    """Templates 1-3 (nominal single-AT layouts) and a non-nominal AT
    variant round-trip through the template-list encoder/decoder."""
    from valere_ocr_ray.extract.jbig2 import (
        _NOMINAL_AT,
        _encode_generic_template,
    )

    rng = np.random.RandomState(5)
    cases = {
        "text": render_text_image(CARD_LINES)[:, :, 0] < 128,
        "noise": rng.rand(31, 59) < 0.4,
        "sparse": rng.rand(20, 120) < 0.03,
    }
    for template in (1, 2, 3):
        at = _NOMINAL_AT[template]
        for name, ink in cases.items():
            h, w = ink.shape
            data = _encode_generic_template(ink, template, at)
            back = decode_generic_region(
                data, w, h, template=template, at=at
            )
            assert np.array_equal(back, ink), (template, name)
    # non-nominal (but causal) AT on template 2
    at = ((-1, -2),)
    ink = cases["noise"]
    h, w = ink.shape
    data = _encode_generic_template(ink, 2, at)
    assert np.array_equal(
        decode_generic_region(data, w, h, template=2, at=at), ink
    )


def test_arith_int_roundtrip():
    """Annex-A integer coder: every range boundary, negatives, OOB."""
    from valere_ocr_ray.extract.jbig2 import (
        _decode_int,
        _encode_int,
        _new_int_ctx,
    )

    vals = [0, 1, 3, 4, 19, 20, 83, 84, 339, 340, 4435, 4436, 123456,
            -1, -4, -20, -84, -340, -4436, -999999, None, 7, None, -7]
    enc = MQEncoder()
    ctx = _new_int_ctx()
    for v in vals:
        _encode_int(enc, ctx, v)
    data = enc.flush()
    dec = MQDecoder(data)
    ctx = _new_int_ctx()
    assert [_decode_int(dec, ctx) for _ in vals] == vals


def test_symbol_page_pixel_identical():
    """The symbol-coded page (dictionary + text region) decodes
    pixel-identically to the glyph renderer's raster."""
    from valere_ocr_ray.extract.jbig2 import encode_jbig2_symbol_page

    for lines in (
        CARD_LINES,
        ["A"],
        ["SPACES  AND   GAPS", "", "LAST LINE 123"],
    ):
        ink = render_text_image(lines)[:, :, 0] < 128
        h, w = ink.shape
        emb = encode_jbig2_symbol_page(lines)
        assert np.array_equal(decode_jbig2_embedded(emb, w, h), ink), lines


def test_symbol_dict_multiple_height_classes():
    """A dictionary with two height classes decodes (the encoder twin
    emits one class; this exercises the class loop directly)."""
    import struct

    from valere_ocr_ray.extract.jbig2 import (
        _SD_AT_NOMINAL,
        _encode_generic_bitmap,
        _encode_int,
        _new_int_ctx,
        decode_symbol_dict,
    )

    rng = np.random.RandomState(6)
    short = [rng.rand(4, 3) < 0.5, rng.rand(4, 6) < 0.5]
    tall = [rng.rand(9, 5) < 0.5]
    enc = MQEncoder()
    iadh, iadw, iaex = _new_int_ctx(), _new_int_ctx(), _new_int_ctx()
    gb_icx = [0] * (1 << 16)
    gb_mps = [0] * (1 << 16)
    _encode_int(enc, iadh, 4)  # class 1: height 4
    wprev = 0
    for bm in short:
        _encode_int(enc, iadw, bm.shape[1] - wprev)
        wprev = bm.shape[1]
        _encode_generic_bitmap(enc, gb_icx, gb_mps, bm)
    _encode_int(enc, iadw, None)
    _encode_int(enc, iadh, 5)  # class 2: height 9
    wprev = 0
    for bm in tall:
        _encode_int(enc, iadw, bm.shape[1] - wprev)
        wprev = bm.shape[1]
        _encode_generic_bitmap(enc, gb_icx, gb_mps, bm)
    _encode_int(enc, iadw, None)
    _encode_int(enc, iaex, 0)
    _encode_int(enc, iaex, 3)
    payload = (
        struct.pack(">H", 0) + _SD_AT_NOMINAL + struct.pack(">II", 3, 3)
        + enc.flush()
    )
    out = decode_symbol_dict(payload)
    assert len(out) == 3
    for got, want in zip(out, short + tall):
        assert np.array_equal(got, want)


def test_symbol_dict_no_progress_streams_end(monkeypatch):
    """Integer streams that never advance the symbol dictionary — empty
    height classes (dh=0, then OOB at once) and zero-length export runs
    — raise a routed error instead of spinning forever."""
    import itertools
    import struct

    from valere_ocr_ray.extract import jbig2

    def scripted(values):
        it = itertools.cycle(values)
        calls = itertools.count()

        def fake(dec, ctx):
            assert next(calls) < 10_000, "decoder did not terminate"
            return next(it)

        return fake

    def payload(n_new):
        return struct.pack(">H", 0) + jbig2._SD_AT_NOMINAL + struct.pack(
            ">II", 0, n_new
        ) + b"\x00" * 8

    # IADH 0 / IADW OOB forever: every height class is empty
    monkeypatch.setattr(jbig2, "_decode_int", scripted([0, None]))
    with pytest.raises(ImageFormatError):
        jbig2.decode_symbol_dict(payload(3))
    # IAEX 0 forever over one input symbol: the export index never moves
    monkeypatch.setattr(jbig2, "_decode_int", scripted([0]))
    with pytest.raises(ImageFormatError):
        jbig2.decode_symbol_dict(payload(0), [np.ones((2, 2), bool)])


def test_text_region_uses_only_its_referred_dictionaries():
    """A text region's symbols are the exports of the dictionaries it
    refers to, in order — not of every dictionary in the stream.  Two
    dictionaries, a region that refers only to the second: the page
    decodes pixel-identical to the glyph raster; a reference to a
    segment that is not a symbol dictionary raises."""
    import struct

    from valere_ocr_ray.extract.glyph_font import _GLYPHS
    from valere_ocr_ray.extract.jbig2 import (
        _encode_symbol_dict,
        _encode_text_region,
        _segment_header,
    )

    lines = ["HELLO", "WORLD"]
    ink = render_text_image(lines)[:, :, 0] < 128
    h, w = ink.shape
    canon = canonical_text(lines).split("\n")
    chars = sorted({ch for line in canon for ch in line if ch != " "})
    decoy = _encode_symbol_dict([_GLYPHS[ch] for ch in "XYZ0123"])
    sd = _encode_symbol_dict([_GLYPHS[ch] for ch in chars])
    tr = _encode_text_region(canon, {ch: i for i, ch in enumerate(chars)}, w, h)
    page_info = struct.pack(">IIIIBH", w, h, 0, 0, 0x01, 0)

    def stream(refs):
        return (
            _segment_header(0, 48, 1, len(page_info)) + page_info
            + _segment_header(1, 0, 1, len(decoy)) + decoy
            + _segment_header(2, 0, 1, len(sd)) + sd
            + _segment_header(3, 6, 1, len(tr), refs=refs) + tr
            + _segment_header(4, 49, 1, 0)
        )

    assert np.array_equal(decode_jbig2_embedded(stream((2,)), w, h), ink)
    with pytest.raises(ImageFormatError):
        decode_jbig2_embedded(stream((0,)), w, h)  # page info, not a dict
    with pytest.raises(ImageFormatError):
        decode_jbig2_embedded(stream((9,)), w, h)  # no such segment


def test_scanned_pdf_symbol_jbig2_ocr():
    """A symbol-coded /JBIG2Decode XObject OCRs byte-exact — the
    jbig2enc-shape PDF reads like its generic-coded and BMP twins."""
    from valere_ocr_ray.extract.pdf_images import ocr_pdf_images
    from valere_ocr_ray.sources.synth import build_scanned_pdf_bytes

    pdf = build_scanned_pdf_bytes(CARD_LINES, codec="jbig2_sym")
    text, n_found, n_decoded = ocr_pdf_images(pdf)
    assert (n_found, n_decoded) == (1, 1)
    assert text == canonical_text(CARD_LINES)


def test_huffman_and_refinement_still_route():
    import struct

    # huffman symbol dict (flags bit0) raises, never decodes junk
    payload = struct.pack(">H", 1) + b"\x00" * 16
    hdr = struct.pack(">IBBBI", 0, 0, 0, 1, len(payload))
    with pytest.raises(ImageFormatError):
        decode_jbig2_embedded(hdr + payload, 10, 10)
    # refinement region (type 40) raises
    hdr = struct.pack(">IBBBI", 0, 40, 0, 1, 4) + b"\x00" * 4
    with pytest.raises(ImageFormatError):
        decode_jbig2_embedded(hdr, 10, 10)


def test_hostile_region_geometry_bounded_work(monkeypatch):
    """A region header that claims far more rows than the page (or more
    pixels than its payload can code) costs work bounded by the page,
    not by the claim: the region decodes only its on-page rows, a region
    wider than the page or placed off it raises, and the arithmetic
    decoder raises once it runs a fixed slack past its data."""
    import struct

    w, h = 64, 40
    ink = np.random.RandomState(5).rand(h, w) < 0.3
    data = encode_jbig2_embedded(ink)
    geometry = struct.pack(">II", w, h)
    assert data.count(geometry) == 2  # page info, then the region info
    at = data.rindex(geometry)

    calls = [0]
    real = MQDecoder.decode

    def counted(self, icx, mpscx, cx):
        calls[0] += 1
        return real(self, icx, mpscx, cx)

    monkeypatch.setattr(MQDecoder, "decode", counted)

    tall = data[:at] + struct.pack(">II", w, 40_000) + data[at + 8 :]
    assert np.array_equal(decode_jbig2_embedded(tall, w, h), ink)
    assert calls[0] <= 2 * w * h

    for rw, rh, rx, ry in ((w + 1, h, 0, 0), (w, h, w, 0), (w, h, 0, h)):
        region = struct.pack(">IIII", rw, rh, rx, ry)
        with pytest.raises(ImageFormatError):
            decode_jbig2_embedded(data[:at] + region + data[at + 16 :], w, h)

    # a region that fits the page but claims more pixels than its
    # payload holds: the decoder stops at the slack, not after the claim
    calls[0] = 0
    body = encode_jbig2_embedded(np.zeros((1, 8), bool))
    g = body.rindex(struct.pack(">II", 8, 1))
    big = body[:g] + struct.pack(">II", 1000, 1000) + body[g + 8 :]
    with pytest.raises(ImageFormatError):
        decode_jbig2_embedded(big, 1000, 1000)
    assert calls[0] <= 2 * w * h


def test_bit_flip_fuzz_raises_only_image_format_error():
    """200 seeded 1-4 bit-flip mutants of a 24×32 embedded generic
    region: each decodes or raises ImageFormatError within 1 s."""
    yy, xx = np.mgrid[0:24, 0:32]
    ink = (xx * 4) % 256 < (yy * 6) % 256  # the image fuzz fixture's R < G
    good = encode_jbig2_embedded(ink)
    assert bit_flip_fuzz(good, lambda b: decode_jbig2_embedded(b, 32, 24), ImageFormatError) > 0
