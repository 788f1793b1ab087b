"""Glyph-template OCR kernel (``extract/glyph_font``): the raster leg
of the extraction stage.  Contract: ``ocr_image(render_text_image(L))
== canonical_text(L)`` byte-for-byte, for any margin/placement — and
the parse stage (``extract_pages_batch``) flips decodable image rows to
``status='ok'`` while codec-less formats still route to
``skipped_image_no_ocr``."""

import numpy as np
import pyarrow as pa
import pytest

from valere_ocr_ray.extract.glyph_font import (
    CHARSET,
    canonical_text,
    ocr_image,
    ocr_image_bytes,
    render_text_image,
)
from valere_ocr_ray.extract.image_decode import encode_bmp, encode_ppm


CASES = [
    ["MEMBER NAME: JOHN SMITH", "ID# 12345-678 (GROUP A)"],
    ["PHONE: 555/123.4567", "o'brien & co.; plan?"],
    ["  padded   spaces  "],
    ["a", "", "b after an interior blank line"],
    ["    indented first", "flush second"],
    ["----", "..."],  # glyphs that ink only one pixel row
    ["1", "11", "111"],  # narrow glyph alignment
]


@pytest.mark.parametrize("lines", CASES, ids=[str(i) for i in range(len(CASES))])
def test_roundtrip_byte_identity(lines):
    img = render_text_image(lines)
    assert ocr_image(img) == canonical_text(lines)


@pytest.mark.parametrize("dy,dx", [(0, 0), (1, 1), (13, 7), (4, 29)])
def test_roundtrip_any_placement(dy, dx):
    """The reader recovers the grid phase — text position on the page
    is immaterial (scanned cards are never flush to the corner)."""
    lines = ["EFFECTIVE DATE: 03/14/2024", "GROUP NO. G00042"]
    img = render_text_image(lines)
    canvas = np.full((img.shape[0] + dy + 5, img.shape[1] + dx + 5, 3), 255, np.uint8)
    canvas[dy : dy + img.shape[0], dx : dx + img.shape[1]] = img
    assert ocr_image(canvas) == canonical_text(lines)


def test_roundtrip_through_both_containers():
    lines = ["PLAN TYPE: PPO", "BIN 004336"]
    img = render_text_image(lines)
    want = canonical_text(lines)
    assert ocr_image_bytes(encode_bmp(img)) == want
    assert ocr_image_bytes(encode_ppm(img)) == want


def test_unsupported_chars_become_question_marks():
    assert canonical_text(["a{b}c"]) == "A?B?C"
    img = render_text_image(["a{b}c"])
    assert ocr_image(img) == "A?B?C"


def test_unknown_ink_pattern_reads_as_question_mark_not_crash():
    """Glyph damage (a real scan artifact) degrades to '?', never to a
    task failure — skip-on-exception stays at the row level."""
    img = render_text_image(["HELLO"])
    img = img.copy()
    img[3:10, 3:8] = 0  # stamp a solid 5x7 blot over the first cell
    out = ocr_image(img)
    assert "\n" not in out
    assert "ELLO" in out  # the other glyphs still classify


def test_all_font_patterns_distinct():
    from valere_ocr_ray.extract.glyph_font import _GLYPHS

    blobs = {g.tobytes() for g in _GLYPHS.values()}
    assert len(blobs) == len(_GLYPHS)
    assert not any(not g.any() for g in _GLYPHS.values())  # no blank glyph


def test_extractor_ocr_seam(ray_session):
    """Image rows through extract_pages_batch: BMP/PPM/PNG/JPEG -> status ok +
    the printed text; a corrupt PNG (undecodable) ->
    skipped_image_no_ocr."""
    from valere_ocr_ray.extract.image_decode import encode_png
    from valere_ocr_ray.extract.jpeg import encode_jpeg
    from valere_ocr_ray.stages.extractor import extract_pages_batch

    lines = ["MEMBER ID: A12345"]
    img = render_text_image(lines)
    batch = pa.table(
        {
            "url": ["a.bmp", "b.ppm", "c.png", "d.jpg", "e.png"],
            "html": pa.array(
                [
                    encode_bmp(img),
                    encode_ppm(img),
                    encode_png(img),
                    encode_jpeg(img),
                    b"\x89PNG\r\n\x1a\nxxxx",
                ],
                pa.binary(),
            ),
            "doc_kind": ["image"] * 5,
            "status": ["ok"] * 5,
        }
    )
    out = extract_pages_batch(batch)
    texts = out["extracted_text"].to_pylist()
    statuses = out["status"].to_pylist()
    want = canonical_text(lines)
    for i in range(4):
        assert texts[i] == want and statuses[i] == "ok"
    assert texts[4] == "" and statuses[4] == "skipped_image_no_ocr"


def test_charset_covers_synth_card_lines():
    """Every character the synth printer emits is in the font, so no
    '?' appears in corpus card text (OCR output is lossless there)."""
    from valere_ocr_ray.sources.synth import _Rand, _scanned_card_lines

    for i in (95, 195, 295, 1095):
        for line in _scanned_card_lines(_Rand(i)):
            assert all(c.upper() in CHARSET for c in line), line
