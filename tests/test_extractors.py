"""Field-extraction unit tests: query sets T3, batteries F9-F13,
normalization rules N1-N13 (§2.8), confidence A1/A2."""

import json
import re

from valere_ocr_ray.registry import extractors as ex
from valere_ocr_ray.registry.extractors import (
    _apply_rule_battery,
    extract_agreement,
    extract_document,
    extract_medical,
    extract_query_fields,
    parse_kv_lines,
)
from valere_ocr_ray.registry.querysets import derive_field_name


# -- question → field-name derivation (InsuranceCard1.py:122-126) -------
def test_derive_field_name():
    assert derive_field_name("What is the Member Name") == "Member Name"
    assert derive_field_name("What is the Member ID?") == "Member ID"
    assert derive_field_name("Who is the PCP?") == "PCP"
    # first "the " split keeps the second "the" (reference latent quirk)
    assert (
        derive_field_name("What is the phone number of the PCP?")
        == "phone number of the PCP"
    )


def test_parse_kv_lines_first_wins_and_cleanup():
    kv = parse_kv_lines("A: 1\nB : 2\nA: 3")
    assert kv["A"][0] == "1"
    assert kv["B"][0] == "2"


def test_query_fields_confidence_ratio():
    text = "Member Name: Jo Smith A1\nMember ID: A1\nPCP: Dr. X"
    payload, conf, spans = extract_query_fields("INSURANCE_CARD", text)
    dd = payload["document_data"]
    assert dd["Member Name"] == "Jo Smith A1"
    assert dd["PCP"] == "Dr. X"
    assert dd["BIN"] == ""
    # 3 of 15 filled → (15-12)/15
    assert conf == (15 - 12) / 15
    assert list(payload) == ["confidence", "document_data"]
    assert len(spans) == 3


def test_query_fields_alias_lookup():
    payload, _, _ = extract_query_fields("INSURANCE_CARD", "PCP Phone: 555")
    assert payload["document_data"]["phone number of the PCP"] == "555"


# -- medical battery -----------------------------------------------------
def test_patient_pattern_battery_first_match_wins():
    data, _, _ = extract_medical("Mother Name: Ana Diaz\nMother Name: Zoe Q")
    assert data["patient"]["First Name"] == "Ana"
    assert data["patient"]["Last Name"] == "Diaz"


def test_tch_brand_patterns():
    text = (
        "Texas Children's Hospital\nICD-10 Code(s)\n• Z39.1 Care of the "
        "lactating mother\nOne (1) double-electric breast pump"
    )
    data, _, _ = extract_medical(text)
    assert data["prescription"]["ICD-10 Code"] == "Z39.1"
    assert data["prescription"]["Prescription"] == "One (1) double-electric breast pump"


def test_bpd_brand_patterns_and_necessity_window():
    # NB: the reference QTY regex `QTY\s*(\d+)\s*([^C]+)\s*Code\s*(\w+)`
    # runs IGNORECASE, so the item text must contain no 'c' at all —
    # a faithful latent quirk (Lauren_RX__JPG_Reader.py:284).
    text = (
        "The Breast Pump Depot\nItem Description Code Length of Need\n"
        "QTY 1 Dual Pump Kit Code E0603\nLength of Need: 6\n"
        "Covers one Double Electric Breast Pump\n"
        "Section II. Medical Necessity\nX 1. Returning to work\n"
        "X 2. Latching difficulty\nSection III. Physician"
    )
    data, _, _ = extract_medical(text)
    p = data["prescription"]
    assert p["Quantity"] == "1"
    assert p["Item"] == "Dual Pump Kit"
    assert p["Code"] == "E0603"
    assert p["Prescription"] == "Double Electric Breast Pump"
    assert p["Length of Need"] == "6 months"
    assert p["Medical Necessity"] == ["Returning to work", "Latching difficulty"]


def test_generic_icd_first_match():
    data, _, _ = extract_medical("codes A12.3 and B45.6 plus a breast pump")
    assert data["prescription"]["ICD-10 Code"] == "A12.3"
    assert data["prescription"]["Prescription"] == "Double Electric Breast Pump"


# -- normalization battery N1-N13 ---------------------------------------
def test_n1_unwanted_keys_dropped():
    p, d = _apply_rule_battery({"Z39.1 note": "x", "Keep": "y"}, {})
    assert "Z39.1 note" not in p and p["Keep"] == "y"


def test_n2_physician_moves_to_doctor():
    p, d = _apply_rule_battery({"Physician Name": "Dr A"}, {})
    assert d["Doctor Name"] == "Dr A" and "Physician Name" not in p


def test_n3_infant_prefix():
    p, _ = _apply_rule_battery({"Infant DOB": "1/1/2024"}, {})
    assert p["Infant DOB"] == "1/1/2024"


def test_n4_alias_dedup():
    p, _ = _apply_rule_battery(
        {"Patient Name": "A B", "Name": "dup", "DOB": "d", "Date of Birth": "dup"}, {}
    )
    assert "Name" not in p and "Date of Birth" not in p


def test_n5_x_becomes_selected():
    _, d = _apply_rule_battery({}, {"Prescribing": "X"})
    # N5 rewrites the value; N11 renames only a literal "Selected" KEY,
    # which is produced solely by the N8 doctor-NPI chain
    assert d == {"Prescribing": "Selected"}


def test_n6_n7_md_signature():
    _, d = _apply_rule_battery({}, {"MD Signature": "~"})
    assert d["MD Signature"] == "Present"
    _, d = _apply_rule_battery({}, {"MD Signature": "~", "Physician Signature": "s"})
    assert "MD Signature" not in d


def test_n8_doctor_npi_split_selected():
    _, d = _apply_rule_battery({}, {"Dr Alice Smith, MD - 1234567890": "X"})
    assert d["Doctor Name"] == "Dr Alice Smith"
    assert d["NPI"] == "1234567890"
    assert d["Is Prescribing Physician"] == "Yes"


def test_n9_name_split_forms():
    p, _ = _apply_rule_battery({"Patient Name": "Ana Maria Diaz"}, {})
    assert (p["First Name"], p["Last Name"]) == ("Ana", "Maria Diaz")
    p, _ = _apply_rule_battery({"Patient Name": "Diaz, Ana"}, {})
    assert (p["First Name"], p["Last Name"]) == ("Ana", "Diaz")
    p, _ = _apply_rule_battery({"Patient Name": "Cher"}, {})
    assert (p["First Name"], p["Last Name"]) == ("Cher", "")


def test_n10_comma_swap():
    p, _ = _apply_rule_battery({"First Name": "Diaz,", "Last Name": "Ana"}, {})
    assert (p["First Name"], p["Last Name"]) == ("Ana", "Diaz")


def test_n12_physician_signature_literal():
    _, d = _apply_rule_battery({}, {"Physician Signature": "scrawl"})
    assert d["Physician Signature"] == "Present"


def test_n13_infant_name_placeholder():
    p, _ = _apply_rule_battery({"Infant Name": "Infant Date of Birth"}, {})
    assert p["Infant Name"] == "Not present"


# -- agreements (F13/C4/A2) ---------------------------------------------
def test_agreement_extraction_and_a2():
    text = (
        "RENTAL AGREEMENT\nterms body\nSigned by customer: Ana Diaz\n"
        "Date : 03/15/2024 10:30 CMT\nsignature"
    )
    info, conf, _ = extract_agreement(text)
    assert info["Customer/Patient Name"] == "Ana Diaz"
    assert info["Date"] == "03/15/2024"
    assert info["Signature Present"] == "Yes"
    assert conf == 1.0


def test_agreement_spanish_patterns():
    info, _, _ = extract_agreement(
        "Firmado por el cliente: Luis Vega\nFecha : 01/02/2023 09:00 CMT"
    )
    assert info["Customer/Patient Name"] == "Luis Vega"
    assert info["Date"] == "01/02/2023"


def test_agreement_excluded_phrases_blocklist():
    info, conf, _ = extract_agreement("Name: please contact the office")
    assert info["Customer/Patient Name"] == "Not present"
    assert conf == 0.0


def test_agreement_a2_partial():
    info, conf, _ = extract_agreement("Signed by customer: Bo Li")
    # name + signature indicator ("signed" in text) = 2 points
    assert conf == round(2 / 3, 2)


# -- dispatch + JSON byte format ----------------------------------------
def test_dispatch_json_byte_format():
    rec = extract_document("https://x/insurancecard/1.html", "Member ID: A1")
    assert rec["doc_type"] == "INSURANCE_CARD"
    parsed = json.loads(rec["fields_json"])
    # 4-space indent byte format (InsuranceCard1.py:144-146)
    assert rec["fields_json"] == json.dumps(parsed, indent=4)
    assert rec["spans"][0]["field"] == "Member ID"


def test_dispatch_unknown_goes_medical():
    rec = extract_document("https://x/article/1.html", "plain words only")
    assert rec["doc_type"] == "UNKNOWN"
    assert "document label" in json.loads(rec["fields_json"])


# -- F10 generic contact battery ----------------------------------------
def test_generic_contacts_battery():
    from valere_ocr_ray.registry.extractors import extract_contacts

    text = (
        "Call 713.555.1234 or 832-555-9876 today.\n"
        "Mr. John Smith met Dr. Jane Doe and Alice Jones."
    )
    got = extract_contacts(text)
    assert "713.555.1234" in got["phone_numbers"]
    assert "832-555-9876" in got["phone_numbers"]
    assert any("John Smith" in n for n in got["names"])
    assert any("Jane Doe" in n for n in got["names"])
    assert any("Alice Jones" in n for n in got["names"])
    # reference quirk pinned verbatim: the leading \b cannot match
    # before '(' (non-word/non-word), so parenthesized numbers are
    # missed exactly as in data_extract_kailey.py
    assert extract_contacts("(713) 555-1234")["phone_numbers"] == []


def test_generic_contacts_no_false_phone():
    from valere_ocr_ray.registry.extractors import extract_contacts

    got = extract_contacts("order 12345 qty 99 code A12.3 total 1234567")
    assert got["phone_numbers"] == []


# -- anchor prefilter: the reference battery is the oracle ----------------
# The reference's patient battery, pump probe and generic ICD step,
# frozen verbatim: extract_medical skips a pattern whose anchor literal
# is absent from the folded text, and must return what running every
# pattern returns.
_REF_PATIENT_PATTERNS = [
    (re.compile(r"(?:Mother|Patient)\s*Name[:\s]+([^:\n]+)", re.IGNORECASE), "Patient Name"),
    (re.compile(r"(?:Mother|Patient)?\s*Date of [Bb]irth[:\s]+([^:\n]+)", re.IGNORECASE), "Date of Birth"),
    (re.compile(r"(?:Mother|Patient)?\s*DOB[:\s]+([^:\n]+)", re.IGNORECASE), "DOB"),
    (re.compile(r"(?:Mother|Patient)?\s*Phone\s*(?:Number)?[:\s]+([^:\n]+)", re.IGNORECASE), "Phone Number"),
    (re.compile(r"(?:Infant|Baby)\s*Name[:\s]+([^:\n]+)", re.IGNORECASE), "Infant Name"),
    (re.compile(r"(?:Infant|Baby)\s*Date of [Bb]irth[:\s]+([^:\n]+)", re.IGNORECASE), "Infant Date of Birth"),
    (re.compile(r"EDD[:\s]+([^:\n]+)", re.IGNORECASE), "EDD"),
]
_REF_PUMP_RE = re.compile(r"breast pump|double electric|double-electric|electric breast pump", re.IGNORECASE)
_REF_ICD_RE = re.compile(r"[A-Z]\d+\.\d+")


def _reference_medical(text):
    """extract_medical of a text without the brand markers, every
    pattern run on every text."""
    assert "Texas Children's Hospital" not in text
    assert "The Breast Pump Depot" not in text
    patient, doctor, prescription, spans = {}, {}, {}, []
    for key, (value, start, end) in parse_kv_lines(text).items():
        low = key.lower()
        if "icd" in low or "z39" in low or "lactating" in low:
            continue
        if any(t in low for t in ex._PATIENT_KEY_TERMS):
            patient[key] = value
            spans.append((key, value, start, end))
        elif any(t in low for t in ex._DOCTOR_KEY_TERMS):
            doctor[key] = value
            spans.append((key, value, start, end))
    for pattern, field in _REF_PATIENT_PATTERNS:
        m = pattern.search(text)
        if m:
            patient[field] = m.group(1).strip()
            spans.append((field, patient[field], m.start(1), m.end(1)))
    codes = _REF_ICD_RE.findall(text)
    if codes:
        prescription["ICD-10 Code"] = codes[0]
    if _REF_PUMP_RE.search(text):
        prescription["Prescription"] = "Double Electric Breast Pump"
    patient, doctor = _apply_rule_battery(ex._clean_map(patient), ex._clean_map(doctor))
    prescription = ex._clean_map(prescription)
    leaves = [*patient.values(), *doctor.values(), *prescription.values()]
    confidence = round(sum(1 for v in leaves if v) / len(leaves), 2) if leaves else 0.0
    data = {"patient": patient, "doctor": doctor, "prescription": prescription}
    return data, confidence, spans


# anchors, their prefixes, the letters IGNORECASE matches to ASCII, and
# the separators the patterns read
_TOKENS = (
    "Name", "Date of Birth", "Date of birth", "DOB", "Phone", "Number", "EDD",
    "Mother", "Patient", "Infant", "Baby", "breast pump", "double electric",
    "double-electric", "electric breast pump", "Z39.1", "A12.3", "Ana Diaz",
    "01/02/2003", "İ", "ı", "ſ", "K", " ", "\t", ":", "\n",
)
# per letter: itself, its case flip, and the non-ASCII letters
# re.IGNORECASE matches to it
_VARIANTS = {"i": "İı", "s": "ſ", "k": "K"}


def _texts():
    from hypothesis import strategies as st

    def variant(tok):
        return st.tuples(
            *(st.sampled_from((c, c.swapcase(), *_VARIANTS.get(c.lower(), ""))) for c in tok)
        ).map("".join)

    return st.lists(st.sampled_from(_TOKENS).flatmap(variant), max_size=24).map("".join)


def test_prefilter_equals_reference_battery():
    """extract_medical == the reference battery on generated texts: the
    data with its key order, the confidence and every span offset.  The
    example defeats a casefold prefilter: ``'BİRTH'.casefold()`` is
    ``'bi\\u0307rth'``, yet ``re.IGNORECASE`` matches ``'İ'`` to ``'i'``."""
    from hypothesis import example, given, settings

    @settings(max_examples=600, deadline=None)
    @example("Mother  DATE OF BİRTH: 01/02/2003")
    @given(_texts())
    def check(text):
        data, confidence, spans = extract_medical(text)
        want_data, want_confidence, want_spans = _reference_medical(text)
        assert json.dumps(data) == json.dumps(want_data)
        assert confidence == want_confidence
        assert spans == want_spans

    check()


def test_fold_table_is_re_ignorecase_table():
    """``_FOLD`` holds exactly the non-ASCII code points that
    ``re.IGNORECASE`` matches to an ASCII letter, each mapped to that
    letter.  Should a Python release widen sre's case table, this fails
    rather than the prefilter dropping a match."""
    letter = re.compile("[a-z]", re.IGNORECASE).fullmatch
    hits = {chr(c) for c in range(0x80, 0x110000) if letter(chr(c))}
    assert hits == set(ex._FOLD)
    for src, dst in ex._FOLD.items():
        assert dst.isascii() and dst.islower()
        assert re.fullmatch(dst, src, re.IGNORECASE)


class _CountingSearch:
    def __init__(self, pattern):
        self.pattern = pattern
        self.calls = 0

    def search(self, text):
        self.calls += 1
        return self.pattern.search(text)


def test_anchorless_page_skips_the_battery(monkeypatch):
    """Work guard by call count, not time: a 60 KB page with no anchor
    runs no patient pattern and no pump probe, and at most one ICD
    search; a page holding the anchors runs them."""
    patients = [(_CountingSearch(p), f, a) for p, f, a in ex._PATIENT_PATTERNS]
    pump = _CountingSearch(ex._PUMP_RE)
    icd = _CountingSearch(ex._GENERIC_ICD_RE)
    monkeypatch.setattr(ex, "_PATIENT_PATTERNS", patients)
    monkeypatch.setattr(ex, "_PUMP_RE", pump)
    monkeypatch.setattr(ex, "_GENERIC_ICD_RE", icd)

    def calls():
        return sum(p.calls for p, _, _ in patients), pump.calls, icd.calls

    text = "lorem ipsum dolor sit amet " * 2300
    assert len(text) > 60_000
    rec = extract_document("https://x/article/1.html", text)
    assert rec["doc_type"] == "UNKNOWN"
    patient_calls, pump_calls, icd_calls = calls()
    assert (patient_calls, pump_calls) == (0, 0)
    assert icd_calls <= 1

    extract_medical("Mother Name: Ana\nDOB: 01/02/2003\nbreast pump")
    assert calls() == (patient_calls + 3, pump_calls + 1, icd_calls + 1)
