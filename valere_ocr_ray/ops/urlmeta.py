"""URL/key-derived projections (SURVEY.md §2.2 F6/F14, §2.7 splits).

The reference derives metadata from S3 object keys; the engine's analog
is vectorized projections over the ``url`` column.  All functions are
pure and batch-shaped (pandas in/out) so they drop into ``map_batches``.
"""

from __future__ import annotations

import re

import pandas as pd

# F6 — key tokenizer (``IDD/SearchingS3Buckets/S3returnFileContents.py:34-42``):
# word tokens (underscore-joined runs allowed), extension suffixes glued,
# tokens shorter than 3 chars dropped, result deduped + sorted.
_KEY_TOKEN_RE = re.compile(r"[A-Za-z]+(?:_[A-Za-z]+)*(?:pdf|jpg|jpeg|png)?")

# F14 — filename-date (``IDD/MiscTestingScripts/Ethan_PDF_Reader.py:108-115``):
# ``YYYY_MM_DD`` anywhere in the key → ``YYYY/MM/DD``.
_KEY_DATE_RE = re.compile(r"(\d{4}_\d{2}_\d{2})")


def url_tokens(url: str) -> list[str]:
    """F6 semantics: sorted distinct word tokens (len >= 3) of a url/key."""
    words = _KEY_TOKEN_RE.findall(url)
    return sorted({w for w in words if len(w) >= 3})


def url_date(url: str) -> str:
    """F14 semantics: first ``YYYY_MM_DD`` in the key as ``YYYY/MM/DD``
    ('' when absent).  v3 of the reference dropped content-date
    inference from filenames (``Ethan_PDFandJPG3.py:428-446``) — the
    engine keeps that choice for extraction but exposes this column for
    lineage, per SURVEY.md F14."""
    m = _KEY_DATE_RE.search(url)
    return m.group(1).replace("_", "/") if m else ""


def url_tokens_batch(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    df["url_tokens"] = df["url"].map(url_tokens)
    return df


# §2.7 — member name/ID split (``IDD/MiscTestingScripts/insuranceID:201-213``):
# the last whitespace token of the "Member Name" value is the Member ID.
# Applied in the insuranceID variant script only — the mainline query
# path reads Member ID from its own field, so the engine exposes this as
# a standalone scalar (not wired into extract_query_fields, whose byte
# contract matches the mainline reference).
def split_member_name(value: str) -> tuple[str, str]:
    """``"First Last A12345"`` → ``("First Last", "A12345")``; a value
    without a splittable tail returns ``(value, "")``."""
    parts = value.strip().rsplit(None, 1)
    if len(parts) == 2:
        return parts[0], parts[1]
    return (value.strip(), "")


# §2.6 O3 — tail window (``SignedAgreementFinalDB:147-149``,
# ``EthansCode/testingpdf.py:46-63``): scope a pattern battery to the
# last N lines of a document's text.
def tail_lines(text: str, n: int = 15) -> str:
    """Last ``n`` lines of ``text`` joined with ``\\n`` (O3/F13 scoping)."""
    lines = text.split("\n")
    return "\n".join(lines[-n:])
