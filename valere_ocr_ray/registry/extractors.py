"""Field-to-JSON extraction per doc type (SURVEY.md §2.2 F9-F13, §2.8).

All functions here are pure (text in → field structures out) and run
per row inside the Ray actor stages; every regex is compiled at module
import (once per worker process).  Fields is a row-at-a-time Python UDF,
so its cost is regex work per row: the medical path folds each text
once (``_fold``) and runs a patient pattern or the pump probe only when
its literal anchor is in the folded text, so a long page without those
literals no longer pays a full scan per pattern.

The normalization battery is the reference's order-sensitive cleanup
(``Ethan_PDFandJPG3.py:276-417``) re-implemented as an ordered
pure-function pipeline — rule order is golden-relevant.

JSON byte format: ``json.dumps(obj, indent=4)`` with insertion order —
the reference's persisted byte format (``InsuranceCard1.py:144-146``).
"""

from __future__ import annotations

import json
import re
from typing import Any

from valere_ocr_ray.registry import doctypes
from valere_ocr_ray.registry.querysets import QUERY_SETS, derive_field_name

Span = tuple[str, str, int, int]  # (field, value, start, end)

# ---------------------------------------------------------------------------
# KV line parsing — DOM KEY_VALUE analog (T4, S32JSONpdf.py:118-166)
# ---------------------------------------------------------------------------

_KV_LINE_RE = re.compile(r"^([^:\n]{1,60}):[ \t]*(.*)$", re.MULTILINE)


def parse_kv_lines(text: str) -> dict[str, tuple[str, int, int]]:
    """``"Key: value"`` lines → ordered {clean_key: (value, start, end)}.

    First occurrence per key wins (reference first-match semantics O5);
    key cleanup mirrors ``key.replace(":", "").strip()``
    (``Ethan_PDFandJPG3.py:272-274``).  Offsets index into ``text``.
    """
    out: dict[str, tuple[str, int, int]] = {}
    for m in _KV_LINE_RE.finditer(text):
        key = m.group(1).replace(":", "").strip()
        if key and key not in out:
            out[key] = (m.group(2).strip(), m.start(2), m.end(2))
    return out


def _fold_kvs(
    kvs: dict[str, tuple[str, int, int]],
) -> dict[str, tuple[str, int, int]]:
    """Casefolded view, first occurrence winning on fold-collisions
    (reversed insertion ⇒ the earliest key's value survives).  Built
    ONCE per document — lookups then are plain dict gets."""
    return {k.casefold(): v for k, v in reversed(kvs.items())}


def _kv_lookup(
    by_fold: dict[str, tuple[str, int, int]], *labels: str
) -> tuple[str, int, int]:
    for label in labels:
        hit = by_fold.get(label.casefold())
        if hit is not None:
            return hit
    return ("", -1, -1)


# ---------------------------------------------------------------------------
# Query-set extraction (T3) + A1 confidence — card/facesheet classes
# ---------------------------------------------------------------------------

# field names derived once at import (the per-question split is pure)
_DERIVED_FIELDS: dict[str, list[tuple[str, tuple[str, ...]]]] = {
    dt: [(derive_field_name(q), aliases) for q, aliases in specs]
    for dt, specs in QUERY_SETS.items()
}


def extract_query_fields(
    doc_type: str, text: str
) -> tuple[dict[str, Any], float, list[Span]]:
    """Query-battery extraction: reference E1 path (InsuranceCard1.py:116-135).

    Output structure and key order match the reference's persisted
    JSON: ``{"confidence": {...}, "document_data": {...}}`` with the
    derived field names; A1 confidence = (keyCount-empty)/keyCount.
    """
    by_fold = _fold_kvs(parse_kv_lines(text))
    document_data: dict[str, str] = {}
    spans: list[Span] = []
    empty = 0
    for field, aliases in _DERIVED_FIELDS[doc_type]:
        value, start, end = _kv_lookup(by_fold, field, *aliases)
        document_data[field] = value
        if value == "":
            empty += 1
        else:
            spans.append((field, value, start, end))
    key_count = len(document_data)
    confidence = (key_count - empty) / key_count if key_count else 0.0
    payload = {
        "confidence": {"confidence_score": confidence},
        "document_data": document_data,
    }
    return payload, confidence, spans


# ---------------------------------------------------------------------------
# Prescription/medical extraction (F11/F12 + §2.8 rule battery)
# ---------------------------------------------------------------------------

# F11 patient-pattern battery (Ethan_PDFandJPG3.py:242-256), first match
# wins.  Each pattern carries its anchor: the lowercase literal every match
# holds, so a pattern whose anchor is absent from the folded text cannot
# match and is not run.  The reference's optional ``(?:Mother|Patient)?\s*``
# lead on Date of Birth / DOB / Phone is dropped: it can only consume text
# just before the literal, so group(1) and its offsets are unchanged.
_PATIENT_PATTERNS: list[tuple[re.Pattern[str], str, str]] = [
    (re.compile(r"(?:Mother|Patient)\s*Name[:\s]+([^:\n]+)", re.IGNORECASE), "Patient Name", "name"),
    (re.compile(r"Date of [Bb]irth[:\s]+([^:\n]+)", re.IGNORECASE), "Date of Birth", "date of birth"),
    (re.compile(r"DOB[:\s]+([^:\n]+)", re.IGNORECASE), "DOB", "dob"),
    (re.compile(r"Phone\s*(?:Number)?[:\s]+([^:\n]+)", re.IGNORECASE), "Phone Number", "phone"),
    (re.compile(r"(?:Infant|Baby)\s*Name[:\s]+([^:\n]+)", re.IGNORECASE), "Infant Name", "name"),
    (re.compile(r"(?:Infant|Baby)\s*Date of [Bb]irth[:\s]+([^:\n]+)", re.IGNORECASE), "Infant Date of Birth", "date of birth"),
    (re.compile(r"EDD[:\s]+([^:\n]+)", re.IGNORECASE), "EDD", "edd"),
]

# The non-ASCII characters that ``re.IGNORECASE`` matches to an ASCII
# letter, each mapped to that letter.  Folding them and then lowering
# the text keeps every ASCII literal an IGNORECASE pattern can match, so
# an anchor test on the folded text never drops a match.  ``casefold()``
# would not: ``'BİRTH'.casefold()`` is ``'bi\u0307rth'`` and ``'ı'`` stays
# ``'ı'``.  ``tests/test_extractors.py`` pins this table to ``re`` itself.
_FOLD = {"\u0130": "i", "\u0131": "i", "\u017f": "s", "\u212a": "k"}


def _fold(text: str) -> str:
    # str.replace, not str.translate: translate walks a non-ASCII text
    # one code point at a time (~25× slower on a 7k-character page)
    for src, dst in _FOLD.items():
        text = text.replace(src, dst)
    return text.lower()


_PATIENT_KEY_TERMS = ("mother", "infant", "patient", "name", "dob", "date of birth", "phone")
_DOCTOR_KEY_TERMS = ("physician", "doctor", "md", "prescribing")

# generic pump probe (Ethan_PDFandJPG3.py:258-269); every match holds one
# of the anchors
_PUMP_RE = re.compile(r"breast pump|double electric|double-electric|electric breast pump", re.IGNORECASE)
_PUMP_ANCHORS = ("breast pump", "double electric", "double-electric")

# F12 — Texas Children's patterns (Lauren_RX__JPG_Reader.py:255-277)
_TCH_ICD_BULLET_RE = re.compile(r"ICD-10 Code\(?s?\)?.*?[•❖★✦●■▪]\s*([A-Z]\d+\.\d+)", re.IGNORECASE | re.DOTALL)
_TCH_ICD_PLAIN_RE = re.compile(r"ICD-10 Code\(?s?\)?[:\s]*([A-Z]\d+\.\d+)", re.IGNORECASE)
_TCH_PUMP_RE = re.compile(r"One \(1\) double-electric breast pump", re.IGNORECASE)

# F12 — Breast Pump Depot patterns (Lauren_RX__JPG_Reader.py:278-311)
_BPD_SECTION_RE = re.compile(r"Item Description\s*Code\s*Length of Need", re.IGNORECASE)
_BPD_QTY_RE = re.compile(r"QTY\s*(\d+)\s*([^C]+)\s*Code\s*(\w+)", re.IGNORECASE)
_BPD_PUMP_RE = re.compile(r"Double Electric Breast Pump", re.IGNORECASE)
_BPD_NEED_RE = re.compile(r"Length of Need:?\s*(\d+)", re.IGNORECASE)
_BPD_NECESSITY_RE = re.compile(r"Section II. Medical Necessity(.*?)Section III", re.IGNORECASE | re.DOTALL)
_BPD_CHECKBOX_RE = re.compile(r"[✓X]\s*\d+\.\s*([^\n]+)")

# generic ICD probe (Lauren_RX__JPG_Reader.py:314-318)
_GENERIC_ICD_RE = re.compile(r"[A-Z]\d+\.\d+")

# F10 generic contact battery (data_extract_kailey.py:41-54) — the
# standalone phone + naive Mr/Mrs name patterns, pinned VERBATIM
# (including the lazy `??` on the second phone separator)
GENERIC_PHONE_PATTERN = r"\b(?:\(\d{3}\)\s*|\d{3}[-.\s]?)\d{3}[-.\s]??\d{4}\b"
GENERIC_NAME_PATTERN = r"\b(?:Mr\.|Mrs\.|Ms\.|Dr\.)?\s*[A-Z][a-z]*\s*[A-Z][a-z]*\b"
_GENERIC_PHONE_RE = re.compile(GENERIC_PHONE_PATTERN)
_GENERIC_NAME_RE = re.compile(GENERIC_NAME_PATTERN)


def extract_contacts(text: str) -> dict[str, list[str]]:
    """F10 generic regex battery (``data_extract_kailey.py:41-54``):
    all phone numbers + naive title-case name candidates, in document
    order — the contact-info extraction a generic (non-classified)
    document hits first."""
    return {
        "names": _GENERIC_NAME_RE.findall(text),
        "phone_numbers": _GENERIC_PHONE_RE.findall(text),
    }

# N8 doctor-NPI split (Ethan_PDFandJPG3.py:345-361)
_DOCTOR_NPI_RE = re.compile(r"(.+?),?\s+MD\s+-\s+(\d+)")


def _clean_map(d: dict[str, str]) -> dict[str, str]:
    # key cleanup + empty-value drop (Ethan_PDFandJPG3.py:272-274)
    return {k.replace(":", "").strip(): v for k, v in d.items() if v and v.strip()}


def _apply_rule_battery(
    patient: dict[str, str], doctor: dict[str, str]
) -> tuple[dict[str, str], dict[str, str]]:
    """§2.8 normalization rules N1-N13, in reference order."""
    # N1 drop unwanted keys (Ethan_PDFandJPG3.py:279-290)
    unwanted = (
        "Mother expects regular separation from infant",
        "Mother expects regular",
        "Care of the lactating mother",
        "Z39.1",
        "ICD-10",
    )
    patient = {k: v for k, v in patient.items() if not any(u in k for u in unwanted)}

    # N2 move physician keys patient→doctor (:293-298)
    moved = dict(patient)
    for key in list(moved.keys()):
        if "physician" in key.lower() or "doctor" in key.lower():
            if "Doctor Name" not in doctor:
                doctor["Doctor Name"] = moved[key]
            del moved[key]
    patient = moved

    # N3 infant keys → "Infant *" prefix (:301-314)
    infant: dict[str, str] = {}
    for key in list(patient.keys()):
        if "infant" in key.lower() or "baby" in key.lower():
            clean = key.replace("Infant ", "").replace("Baby ", "")
            infant[clean] = patient[key]
            del patient[key]
    for key, value in infant.items():
        patient[f"Infant {key}"] = value

    # N4 alias dedup (:317-328)
    for standard, aliases in (
        ("Patient Name", ("Name",)),
        ("DOB", ("Date of Birth",)),
        ("Phone Number", ("Phone",)),
    ):
        if standard in patient:
            for alias in aliases:
                patient.pop(alias, None)

    # N5 X → Selected in doctor values (:331-334)
    for key, value in list(doctor.items()):
        if value == "X":
            doctor[key] = "Selected"

    # N6 1-char MD Signature → Present (:337-338)
    if "MD Signature" in doctor and len(doctor["MD Signature"]) <= 1:
        doctor["MD Signature"] = "Present"

    # N7 drop MD Signature when Physician Signature exists (:341-342)
    if "MD Signature" in doctor and "Physician Signature" in doctor:
        del doctor["MD Signature"]

    # N8 doctor-NPI split from combined key (:345-361)
    for key, value in list(doctor.items()):
        m = _DOCTOR_NPI_RE.search(key)
        if m:
            doctor["Doctor Name"] = m.group(1).strip()
            doctor["NPI"] = m.group(2).strip()
            if value == "Selected":
                doctor["Selected"] = "Yes"
            del doctor[key]

    # N9 Patient Name split incl. "Last, First" (:364-385)
    if "Patient Name" in patient:
        full = patient["Patient Name"].strip()
        if "," in full:
            last, first = (p.strip() for p in full.split(",", 1))
            patient["First Name"] = first
            patient["Last Name"] = last
            del patient["Patient Name"]
        else:
            parts = full.split()
            if len(parts) >= 2:
                patient["First Name"] = parts[0]
                patient["Last Name"] = " ".join(parts[1:])
                del patient["Patient Name"]
            elif len(parts) == 1:
                patient["First Name"] = parts[0]
                patient["Last Name"] = ""
                del patient["Patient Name"]

    # N10 trailing-comma First Name → swap (:388-398)
    if "First Name" in patient and "Last Name" in patient:
        if patient["First Name"].endswith(","):
            patient["First Name"], patient["Last Name"] = (
                patient["Last Name"],
                patient["First Name"].rstrip(","),
            )

    # N11 Selected → Is Prescribing Physician (:401-403)
    if "Selected" in doctor:
        doctor["Is Prescribing Physician"] = doctor.pop("Selected")

    # N12 Physician Signature → literal Present (:406-407)
    if "Physician Signature" in doctor:
        doctor["Physician Signature"] = "Present"

    # N13 Infant Name == "Infant Date of Birth" → Not present (:410-411)
    if patient.get("Infant Name") == "Infant Date of Birth":
        patient["Infant Name"] = "Not present"

    return patient, doctor


def extract_medical(text: str) -> tuple[dict[str, Any], float, list[Span]]:
    """Prescription/medical extraction — reference E2 path
    (``Ethan_PDFandJPG3.py:158-418`` + brand battery
    ``Lauren_RX__JPG_Reader.py:254-329``)."""
    kvs = parse_kv_lines(text)
    folded = _fold(text)
    is_tch = "Texas Children's Hospital" in text
    is_bpd = "The Breast Pump Depot" in text

    patient: dict[str, str] = {}
    doctor: dict[str, str] = {}
    prescription: dict[str, Any] = {}
    spans: list[Span] = []

    # KV bucketing with ICD/Z39/lactating key skip (Ethan:230-238)
    for key, (value, start, end) in kvs.items():
        low = key.lower()
        if "icd" in low or "z39" in low or "lactating" in low:
            continue
        if any(t in low for t in _PATIENT_KEY_TERMS):
            patient[key] = value
            spans.append((key, value, start, end))
        elif any(t in low for t in _DOCTOR_KEY_TERMS):
            doctor[key] = value
            spans.append((key, value, start, end))

    # F11 pattern battery, first match wins (Ethan:242-256)
    for pattern, field, anchor in _PATIENT_PATTERNS:
        if anchor not in folded:
            continue
        m = pattern.search(text)
        if m:
            patient[field] = m.group(1).strip()
            spans.append((field, patient[field], m.start(1), m.end(1)))

    # F12 brand dispatch (Lauren_RX:254-329)
    if is_tch:
        m = _TCH_ICD_BULLET_RE.search(text) or _TCH_ICD_PLAIN_RE.search(text)
        if m:
            prescription["ICD-10 Code"] = m.group(1).strip()
        if _TCH_PUMP_RE.search(text):
            prescription["Prescription"] = "One (1) double-electric breast pump"
        for line in text.split("\n"):
            if ("✓" in line or "X" in line or "•" in line) and "Z39.1" in line:
                prescription["ICD-10 Code"] = "Z39.1"
    elif is_bpd:
        if _BPD_SECTION_RE.search(text):
            m = _BPD_QTY_RE.search(text)
            if m:
                prescription["Quantity"] = m.group(1).strip()
                prescription["Item"] = m.group(2).strip()
                prescription["Code"] = m.group(3).strip()
            if _BPD_PUMP_RE.search(text):
                prescription["Prescription"] = "Double Electric Breast Pump"
            m = _BPD_NEED_RE.search(text)
            if m:
                prescription["Length of Need"] = m.group(1).strip() + " months"
        m = _BPD_NECESSITY_RE.search(text)
        if m:
            items = _BPD_CHECKBOX_RE.findall(m.group(1))
            if items:
                prescription["Medical Necessity"] = [i.strip() for i in items]
    else:
        m = _GENERIC_ICD_RE.search(text)
        if m:
            prescription["ICD-10 Code"] = m.group(0)
        if any(a in folded for a in _PUMP_ANCHORS) and _PUMP_RE.search(text):
            prescription["Prescription"] = "Double Electric Breast Pump"

    patient = _clean_map(patient)
    doctor = _clean_map(doctor)
    prescription = {
        k.replace(":", "").strip(): v
        for k, v in prescription.items()
        if v and (not isinstance(v, str) or v.strip())
    }

    patient, doctor = _apply_rule_battery(patient, doctor)

    data = {"patient": patient, "doctor": doctor, "prescription": prescription}
    leaves = [*patient.values(), *doctor.values(), *prescription.values()]
    non_empty = sum(1 for v in leaves if v)
    confidence = round(non_empty / len(leaves), 2) if leaves else 0.0
    return data, confidence, spans


# ---------------------------------------------------------------------------
# Signed-agreement extraction (F13) + signature detection (C4) + A2
# ---------------------------------------------------------------------------

_DATE_PATTERNS = [
    re.compile(r"Date\s*:\s*(\d{2}/\d{2}/\d{4})", re.IGNORECASE),
    re.compile(r"Fecha\s*:\s*(\d{2}/\d{2}/\d{4})", re.IGNORECASE),
    re.compile(r"(\d{2}/\d{2}/\d{4})"),
]

_NAME_PATTERNS = [
    re.compile(r"Signed by customer\s*:\s*([^\n\.;,]+)", re.IGNORECASE),
    re.compile(r"Firmado por el cliente\s*:\s*([^\n\.;,]+)", re.IGNORECASE),
    re.compile(r"Signed by\s*:\s*([^\n\.;,]+)", re.IGNORECASE),
    re.compile(r"Customer\s*:\s*([^\n\.;,]+)", re.IGNORECASE),
    re.compile(r"Patient\s*:\s*([^\n\.;,]+)", re.IGNORECASE),
    re.compile(r"Name\s*:\s*([^\n\.;,]+)", re.IGNORECASE),
]

# false-positive phrase blocklist (Ethan_PDFandJPG3.py:459-463)
_EXCLUDED_PHRASES = (
    "to be", "the ", "please", "notify", "customer rights",
    "submit", "have the right", "fully informed",
    "contact", "patient's", "if you", "thank you",
)

_SIGNATURE_INDICATORS = ("signature", "signed", "/s/")


def detect_signature(text: str, dom_sig_tier: int = 0) -> bool:
    """C4 signature detection, 3-tier fallback in the reference's
    priority order (``Ethan_PDFandJPG3.py:487-519``):

    - tier 1 — explicit signature ELEMENT (Textract SIGNATURE-block
      analog): img/canvas/input whose alt/src/class/id/name contains
      ``signature`` (detected by the DOM walker,
      ``extract/html_text.py`` ``SIG_TIER_ELEMENT``);
    - tier 2 — GEOMETRY analog: a wide, short, text-less image (the
      walker's ``SIG_TIER_GEOMETRY`` — Textract's w>0.2 / h<0.05
      no-Text LINE);
    - tier 3 — text indicators (``signature``/``signed``/``/s/``).

    ``dom_sig_tier`` carries tiers 1-2 from the parse stage; flat-text
    callers (PDF path, unit tests) pass 0 and get tier 3 only."""
    if dom_sig_tier in (1, 2):
        return True
    low = text.lower()
    return any(ind in low for ind in _SIGNATURE_INDICATORS)


def extract_agreement(
    text: str, dom_sig_tier: int = 0
) -> tuple[dict[str, Any], float, list[Span]]:
    """Signed-agreement extraction (``Ethan_PDFandJPG3.py:420-485``) +
    A2 3-point confidence (``SignedAgreementFinalDB:180-206,271-272``)."""
    info: dict[str, str] = {
        "Customer/Patient Name": "Not present",
        "Date": "Not present",
        "Signature Present": "No",
    }
    spans: list[Span] = []

    for pattern in _DATE_PATTERNS:
        found = False
        for m in pattern.finditer(text):
            date = m.group(1).strip()
            if len(date) == 10:
                info["Date"] = date
                spans.append(("Date", date, m.start(1), m.end(1)))
                found = True
                break
        if found:
            break

    for pattern in _NAME_PATTERNS:
        found = False
        for m in pattern.finditer(text):
            name = m.group(1).strip()
            if 2 < len(name) < 50 and not any(p in name.lower() for p in _EXCLUDED_PHRASES):
                info["Customer/Patient Name"] = name
                spans.append(("Customer/Patient Name", name, m.start(1), m.end(1)))
                found = True
                break
        if found:
            break

    info["Signature Present"] = (
        "Yes" if detect_signature(text, dom_sig_tier) else "No"
    )

    points = 0
    if info["Customer/Patient Name"] != "Not present":
        points += 1
    if info["Date"] != "Not present":
        points += 1
    if info["Signature Present"] == "Yes":
        points += 1
    confidence = round(points / 3, 2)
    return info, confidence, spans


# ---------------------------------------------------------------------------
# Dispatch — one call per document
# ---------------------------------------------------------------------------


def extract_document(url: str, text: str, sig_tier: int = 0) -> dict[str, Any]:
    """Classify + extract one document; returns flat columns for Arrow.

    ``fields_json`` is the canonical 4-space-indent JSON byte format;
    structure varies by class exactly as in the reference (flat
    query-data form for card/sheet classes, nested
    ``{"document label", "data"}`` for medical, flat 3-field form for
    agreements).
    """
    from valere_ocr_ray.registry import plugins

    ptype = plugins.classify_plugin(url, text)
    if ptype is not None:
        rec = plugins.extract_plugin(ptype, text)
        if rec is not None:
            return rec

    doc_type = doctypes.classify(url, text)

    if doc_type in QUERY_SETS:
        payload, confidence, spans = extract_query_fields(doc_type, text)
    elif doc_type in (doctypes.SIGNED_AGREEMENT, doctypes.POSSIBLE_AGREEMENT):
        payload, confidence, spans = extract_agreement(text, dom_sig_tier=sig_tier)
    else:
        # PRESCRIPTION / POSSIBLE_PRESCRIPTION / UNKNOWN → medical
        # extraction (unknown→medical fallback, Lauren_RX:589-706)
        data, confidence, spans = extract_medical(text)
        payload = {"document label": doc_type, "data": data}

    return {
        "doc_type": doc_type,
        "fields_json": json.dumps(payload, indent=4),
        "confidence": confidence,
        "spans": [
            {"field": f, "value": v, "start": s, "end": e} for f, v, s, e in spans
        ],
    }
