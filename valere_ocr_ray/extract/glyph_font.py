"""Deterministic raster OCR: 5x7 glyph-template match over decoded pixels.

The reference's primary modality is scanned raster documents through
Textract OCR (``IDD/finalcodes/InsuranceCard1.py:89-109``,
``Facesheet.py:87-88``).  This container ships no OCR model, but the
OCR *pipeline shape* — decode pixels, find text lines, segment glyph
cells, classify each cell, emit byte-stable text — is fully
implementable over the repo's dependency-free BMP/PPM/PNG/JPEG/TIFF/
GIF decoders (``extract/image_decode.py``, ``extract/jpeg.py``,
``extract/tiff.py``, ``extract/gif.py``) with a fixed bitmap font:

* ``render_text_image`` is the corpus-synthesis twin: it rasterizes
  text with the module's 5x7 font on a strict 6px-pitch grid (the
  "printer").
* ``ocr_image`` is the extraction kernel: binarize -> horizontal
  projection finds 7px text bands -> per band, the glyph-grid phase is
  *recovered* by trying each of the 6 possible column offsets and
  keeping the one that classifies the most cells -> exact template
  match per cell (unknown patterns come back ``?``, never dropped).

``ocr_image(render_text_image(lines)) == canonical(lines)`` is the
byte-identity contract (``canonical`` upcases and maps chars outside
the font's charset to ``?``); it holds for any margin/placement, not
just the renderer's defaults, because the phase search is part of the
reader.  ``stages/extractor.extract_pages_batch`` calls
``ocr_image_bytes`` for image rows, and ``extract/pdf_images`` calls
``ocr_image`` for images inside PDFs; a real Tesseract-class model
replaces these two kernels without touching the Ray plumbing.
"""

from __future__ import annotations

import numpy as np

from valere_ocr_ray.extract.image_decode import ImageFormatError, decode_image

GLYPH_W = 5
GLYPH_H = 7
PITCH_X = GLYPH_W + 1  # one blank column between cells
PITCH_Y = GLYPH_H + 3  # three blank rows between lines
MARGIN = 3

# 5x7 bitmap font ('#' = ink).  Rows top->bottom, 5 chars per row.
_FONT_ROWS: dict[str, tuple[str, ...]] = {
    "A": (".###.", "#...#", "#...#", "#####", "#...#", "#...#", "#...#"),
    "B": ("####.", "#...#", "#...#", "####.", "#...#", "#...#", "####."),
    "C": (".###.", "#...#", "#....", "#....", "#....", "#...#", ".###."),
    "D": ("####.", "#...#", "#...#", "#...#", "#...#", "#...#", "####."),
    "E": ("#####", "#....", "#....", "####.", "#....", "#....", "#####"),
    "F": ("#####", "#....", "#....", "####.", "#....", "#....", "#...."),
    "G": (".###.", "#...#", "#....", "#.###", "#...#", "#...#", ".####"),
    "H": ("#...#", "#...#", "#...#", "#####", "#...#", "#...#", "#...#"),
    "I": (".###.", "..#..", "..#..", "..#..", "..#..", "..#..", ".###."),
    "J": ("..###", "...#.", "...#.", "...#.", "...#.", "#..#.", ".##.."),
    "K": ("#...#", "#..#.", "#.#..", "##...", "#.#..", "#..#.", "#...#"),
    "L": ("#....", "#....", "#....", "#....", "#....", "#....", "#####"),
    "M": ("#...#", "##.##", "#.#.#", "#.#.#", "#...#", "#...#", "#...#"),
    "N": ("#...#", "##..#", "#.#.#", "#..##", "#...#", "#...#", "#...#"),
    "O": (".###.", "#...#", "#...#", "#...#", "#...#", "#...#", ".###."),
    "P": ("####.", "#...#", "#...#", "####.", "#....", "#....", "#...."),
    "Q": (".###.", "#...#", "#...#", "#...#", "#.#.#", "#..#.", ".##.#"),
    "R": ("####.", "#...#", "#...#", "####.", "#.#..", "#..#.", "#...#"),
    "S": (".####", "#....", "#....", ".###.", "....#", "....#", "####."),
    "T": ("#####", "..#..", "..#..", "..#..", "..#..", "..#..", "..#.."),
    "U": ("#...#", "#...#", "#...#", "#...#", "#...#", "#...#", ".###."),
    "V": ("#...#", "#...#", "#...#", "#...#", "#...#", ".#.#.", "..#.."),
    "W": ("#...#", "#...#", "#...#", "#.#.#", "#.#.#", "##.##", "#...#"),
    "X": ("#...#", "#...#", ".#.#.", "..#..", ".#.#.", "#...#", "#...#"),
    "Y": ("#...#", "#...#", ".#.#.", "..#..", "..#..", "..#..", "..#.."),
    "Z": ("#####", "....#", "...#.", "..#..", ".#...", "#....", "#####"),
    "0": (".###.", "#...#", "#..##", "#.#.#", "##..#", "#...#", ".###."),
    "1": ("..#..", ".##..", "..#..", "..#..", "..#..", "..#..", ".###."),
    "2": (".###.", "#...#", "....#", "..##.", ".#...", "#....", "#####"),
    "3": ("#####", "...#.", "..#..", "...#.", "....#", "#...#", ".###."),
    "4": ("...#.", "..##.", ".#.#.", "#..#.", "#####", "...#.", "...#."),
    "5": ("#####", "#....", "####.", "....#", "....#", "#...#", ".###."),
    "6": ("..##.", ".#...", "#....", "####.", "#...#", "#...#", ".###."),
    "7": ("#####", "....#", "...#.", "..#..", ".#...", ".#...", ".#..."),
    "8": (".###.", "#...#", "#...#", ".###.", "#...#", "#...#", ".###."),
    "9": (".###.", "#...#", "#...#", ".####", "....#", "...#.", ".##.."),
    ".": (".....", ".....", ".....", ".....", ".....", ".....", "..#.."),
    ",": (".....", ".....", ".....", ".....", ".....", "..#..", ".#..."),
    ":": (".....", ".....", "..#..", ".....", "..#..", ".....", "....."),
    ";": (".....", ".....", "..#..", ".....", "..#..", ".#...", "....."),
    "-": (".....", ".....", ".....", ".###.", ".....", ".....", "....."),
    "/": ("....#", "...#.", "...#.", "..#..", ".#...", ".#...", "#...."),
    "(": ("...#.", "..#..", ".#...", ".#...", ".#...", "..#..", "...#."),
    ")": (".#...", "..#..", "...#.", "...#.", "...#.", "..#..", ".#..."),
    "#": (".#.#.", ".#.#.", "#####", ".#.#.", "#####", ".#.#.", ".#.#."),
    "&": (".##..", "#..#.", "#.#..", ".#...", "#.#.#", "#..#.", ".##.#"),
    "'": ("..#..", "..#..", ".....", ".....", ".....", ".....", "....."),
    "?": (".###.", "#...#", "....#", "..##.", "..#..", ".....", "..#.."),
}


def _glyph_array(rows: tuple[str, ...]) -> np.ndarray:
    return np.array(
        [[c == "#" for c in row] for row in rows], dtype=bool
    )


_GLYPHS: dict[str, np.ndarray] = {
    ch: _glyph_array(rows) for ch, rows in _FONT_ROWS.items()
}
# reverse index: 35-bit cell pattern -> char (all glyphs are distinct;
# the all-blank pattern decodes to space)
_PATTERNS: dict[bytes, str] = {
    g.tobytes(): ch for ch, g in _GLYPHS.items()
}
_BLANK = np.zeros((GLYPH_H, GLYPH_W), dtype=bool)
_PATTERNS[_BLANK.tobytes()] = " "

CHARSET = frozenset(_FONT_ROWS) | {" "}


def canonical_text(lines: list[str]) -> str:
    """What OCR of a rendered image must return, byte-for-byte:
    uppercased, chars outside the font mapped to '?'; per line,
    trailing spaces stripped; globally, the common leading-space
    prefix and leading/trailing blank lines removed (all of those are
    indistinguishable from page margin — interior blank lines and
    *relative* indentation survive, because the reader anchors one
    grid for the whole page)."""
    out = []
    for line in lines:
        up = line.upper()
        out.append(
            "".join(c if c in CHARSET else "?" for c in up).rstrip(" ")
        )
    while out and not out[0]:
        out.pop(0)
    while out and not out[-1]:
        out.pop()
    nonempty = [l for l in out if l]
    if nonempty:
        dedent = min(len(l) - len(l.lstrip(" ")) for l in nonempty)
        out = [l[dedent:] for l in out]
    return "\n".join(out)


def render_text_image(
    lines: list[str], *, fg: int = 0, bg: int = 255, margin: int = MARGIN
) -> np.ndarray:
    """Rasterize ``lines`` with the module font -> (h, w, 3) uint8 RGB."""
    canon = canonical_text(lines).split("\n")
    n_cols = max((len(l) for l in canon), default=0) or 1
    h = 2 * margin + len(canon) * PITCH_Y - 3  # no trailing line gap
    w = 2 * margin + n_cols * PITCH_X - 1  # no trailing cell gap
    img = np.full((max(h, 1), max(w, 1)), bg, dtype=np.uint8)
    for li, line in enumerate(canon):
        y = margin + li * PITCH_Y
        for ci, ch in enumerate(line):
            if ch == " ":
                continue
            x = margin + ci * PITCH_X
            img[y : y + GLYPH_H, x : x + GLYPH_W][_GLYPHS[ch]] = fg
    return np.repeat(img[:, :, None], 3, axis=2)


def _binarize(pixels: np.ndarray) -> np.ndarray:
    lum = (
        0.299 * pixels[:, :, 0]
        + 0.587 * pixels[:, :, 1]
        + 0.114 * pixels[:, :, 2]
    )
    return lum < 128.0


# 35-bit cell packing: every 5x7 cell folds to one int64 key, so a
# whole grid phase classifies with numpy fancy indexing + one matvec —
# no per-cell Python.  Key tables mirror _PATTERNS.
_POW35 = (np.uint64(1) << np.arange(35, dtype=np.uint64)).astype(np.int64)
_GLYPH_KEYS = np.array(
    sorted(int(g.reshape(35).astype(np.int64) @ _POW35) for g in _GLYPHS.values()),
    dtype=np.int64,
)
_KEY_TO_CHAR = {
    int(g.reshape(35).astype(np.int64) @ _POW35): ch for ch, g in _GLYPHS.items()
}
_PAD = PITCH_Y + GLYPH_H  # covers any phase over/undershoot


def _grid_keys(
    padded: np.ndarray, y0: int, x0: int, n_rows: int, n_cols: int
) -> np.ndarray:
    """(n_rows, n_cols) int64 cell keys at one grid anchor (coordinates
    are in the unpadded frame; ``padded`` carries a ``_PAD`` margin)."""
    ys = y0 + _PAD + np.arange(n_rows)[:, None] * PITCH_Y + np.arange(GLYPH_H)[None, :]
    xs = x0 + _PAD + np.arange(n_cols)[:, None] * PITCH_X + np.arange(GLYPH_W)[None, :]
    sub = padded[ys][:, :, xs]  # (R, 7, C, 5)
    cells = sub.transpose(0, 2, 1, 3).reshape(n_rows * n_cols, 35)
    return (cells.astype(np.int64) @ _POW35).reshape(n_rows, n_cols)


def _keys_to_lines(keys: np.ndarray) -> list[str]:
    lines: list[str] = []
    for row in keys:
        chars = [
            " " if k == 0 else _KEY_TO_CHAR.get(int(k), "?") for k in row
        ]
        lines.append("".join(chars).rstrip(" "))
    return lines


def ocr_image(pixels: np.ndarray) -> str:
    """Decoded RGB array -> byte-stable text (lines joined by '\\n').

    Grid recovery: the printer's 6x10 pitch is known (fixed-pitch
    scan), its phase is not — every (vertical, horizontal) offset pair
    is tried and the one that exactly classifies the most cells wins
    (``hits`` counts cells exactly matching a non-blank glyph; the true
    phase classifies every inked cell, any other phase cuts glyphs in
    half).  Deterministic: ties resolve to the smallest offset."""
    ink = _binarize(pixels)
    rows_ink = ink.any(axis=1)
    cols_ink = ink.any(axis=0)
    if not rows_ink.any():
        return ""
    r_first = int(np.argmax(rows_ink))
    r_last = int(len(rows_ink) - np.argmax(rows_ink[::-1]) - 1)
    x_first = int(np.argmax(cols_ink))
    x_last = int(len(cols_ink) - np.argmax(cols_ink[::-1]) - 1)
    padded = np.pad(ink, _PAD)
    best_hits = -1
    best_keys: np.ndarray | None = None
    for vphase in range(GLYPH_H):
        y0 = r_first - vphase
        n_rows = (r_last - y0) // PITCH_Y + 1
        for hphase in range(GLYPH_W):
            x0 = x_first - hphase
            n_cols = (x_last - x0) // PITCH_X + 1
            keys = _grid_keys(padded, y0, x0, n_rows, n_cols)
            hits = int(
                np.count_nonzero(
                    _GLYPH_KEYS[
                        np.searchsorted(_GLYPH_KEYS, keys.ravel()).clip(
                            0, len(_GLYPH_KEYS) - 1
                        )
                    ]
                    == keys.ravel()
                )
            )
            if hits > best_hits:
                best_hits, best_keys = hits, keys
    lines = _keys_to_lines(best_keys if best_keys is not None else np.zeros((0, 0)))
    while lines and not lines[0]:
        lines.pop(0)
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines)


def ocr_image_bytes(payload: bytes) -> str:
    """The image-row OCR kernel: image bytes -> text.  Raises
    :class:`ImageFormatError` for formats without a decoder (lossy
    VP8 WebP — lossless VP8L decodes), which the extractor routes to
    ``skipped_image_no_ocr`` rather than an error."""
    return ocr_image(decode_image(payload))


__all__ = [
    "CHARSET",
    "ImageFormatError",
    "canonical_text",
    "ocr_image",
    "ocr_image_bytes",
    "render_text_image",
]
