"""Record-by-record diff of the fields layer against another checkout.

    python tools/fields_diff.py <other_checkout> [seeds]

Loads this checkout's ``valere_ocr_ray/registry/extractors.py`` and the
other checkout's with ``importlib`` (both resolve their package imports
from this checkout) and runs each one's ``extract_document`` on the
same inputs:

* the ok rows of the benchmark's web corpora: ``synth_row`` over
  ``perfbench.corpus.web_rows(seed)`` for each seed, after docmeta and
  extraction in this process (``seeds`` is ``11-15`` by default; a range
  ``a-b`` or a comma list);
* the ok rows of the 500-row golden corpus
  (``tests/goldens/golden_extracted.parquet``), with ``sig_tier=0`` as
  ``tools/make_goldens.py`` calls it.

It compares ``doc_type``, ``fields_json``, ``confidence`` and ``spans``
of every record.  The goldens hold no spans and the benchmark's gate
checks text and status, so this is the check that a fields-layer
change keeps every field and offset.  Prints one line per corpus and
the first differing records, and exits 1 on any difference.  Runs in
one process, without Ray.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import time

import pyarrow as pa
import pyarrow.parquet as pq

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

MODULE = os.path.join("valere_ocr_ray", "registry", "extractors.py")
GOLDEN = os.path.join(REPO, "tests", "goldens", "golden_extracted.parquet")
BLOCK_ROWS = 400


def load_extractors(checkout: str, name: str):
    spec = importlib.util.spec_from_file_location(name, os.path.join(checkout, MODULE))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def parse_seeds(arg: str) -> list[int]:
    if "-" in arg:
        lo, hi = arg.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in arg.split(",")]


def web_inputs(seed: int) -> list[tuple[str, str, int]]:
    """(url, text, sig_tier) of the ok rows of one seed's web corpus."""
    from perfbench.corpus import web_rows
    from valere_ocr_ray.sources.synth import PAGES_SCHEMA, synth_row
    from valere_ocr_ray.stages.docmeta import docmeta_batch
    from valere_ocr_ray.stages.extractor import extract_pages_batch

    rows = web_rows(seed)
    out = []
    for at in range(0, len(rows), BLOCK_ROWS):
        cols = zip(*(synth_row(i) for i in rows[at : at + BLOCK_ROWS]))
        block = pa.table(
            {f.name: pa.array(c, f.type) for f, c in zip(PAGES_SCHEMA, cols)},
            schema=PAGES_SCHEMA,
        )
        parsed = extract_pages_batch(docmeta_batch(block))
        for url, text, status, tier in zip(
            parsed["url"].to_pylist(),
            parsed["extracted_text"].to_pylist(),
            parsed["status"].to_pylist(),
            parsed["sig_tier"].to_pylist(),
        ):
            if status == "ok":
                out.append((url, text, tier or 0))
    return out


def golden_inputs() -> list[tuple[str, str, int]]:
    t = pq.read_table(GOLDEN, columns=["url", "extracted_text", "status"])
    return [
        (url, text, 0)
        for url, text, status in zip(
            t["url"].to_pylist(), t["extracted_text"].to_pylist(), t["status"].to_pylist()
        )
        if status == "ok"
    ]


def diff(this, other, inputs: list[tuple[str, str, int]]) -> list[str]:
    bad = []
    for url, text, tier in inputs:
        a = this.extract_document(url, text, sig_tier=tier)
        b = other.extract_document(url, text, sig_tier=tier)
        for col in ("doc_type", "fields_json", "confidence", "spans"):
            if a[col] != b[col]:
                bad.append(f"DIFF {url} {col}: {a[col]!r} != {b[col]!r}")
                break
    return bad


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    this = load_extractors(REPO, "fields_this")
    other = load_extractors(argv[1], "fields_other")
    seeds = parse_seeds(argv[2] if len(argv) == 3 else "11-15")
    corpora = [(f"web seed {s}", lambda s=s: web_inputs(s)) for s in seeds]
    corpora.append(("golden", golden_inputs))
    total = 0
    for name, make in corpora:
        t0 = time.perf_counter()
        inputs = make()
        bad = diff(this, other, inputs)
        total += len(bad)
        print(
            f"{name}: {len(inputs)} ok docs, {len(bad)} differ"
            f" ({time.perf_counter() - t0:.1f} s)",
            flush=True,
        )
        for line in bad[:5]:
            print(line[:400])
    print(f"total: {total} differ")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
