"""Per-class DB sink (SURVEY §2.1 S5 / T6 — the reference's Postgres leg).

The reference holds one global psycopg2 connection and INSERTs one row
``(document_key, json, confidence_score)`` per document into a
per-class table (``IDD/finalcodes/Facesheet.py:195-196``,
``InsuranceCard1.py:63-77,116-146``).  A row-at-a-time INSERT from N
workers is exactly what does not survive 100 TB, so the Ray-native
shape splits the sink in two:

1. **Distributed leg** — the flagship already writes Hive-partitioned
   parquet ``doc_type=<class>/`` (``pipelines/extract.py``); every
   worker writes its own files, no connection, no coordination.
2. **Load leg** (this module) — one bulk ``CREATE TABLE … AS SELECT``
   per class straight from the parquet partition into the database.
   DuckDB stands in for Postgres here (the public in-container
   engine); the pattern is the same one a Postgres deployment uses at
   scale (``COPY FROM`` the columnar files), and it is restartable
   per class: each table loads from its partition independently, so a
   failed load redoes one class, not the corpus.

Schema matches the reference row: ``document_key`` (the url — the
reference uses the S3 key), ``json`` (the extracted ``fields_json``),
``confidence_score``.
"""

from __future__ import annotations

import glob
import os
import re


def _class_tables(run_dir: str) -> dict[str, list[str]]:
    """Map doc_type class → its parquet files under a flagship output
    dir (layout ``part_id=*/doc_type=*/*.parquet``)."""
    out: dict[str, list[str]] = {}
    for f in glob.glob(os.path.join(run_dir, "**", "*.parquet"), recursive=True):
        m = re.search(r"doc_type=([^/]+)/", f)
        if not m:
            continue
        out.setdefault(m.group(1), []).append(f)
    return {k: sorted(v) for k, v in sorted(out.items())}


def _table_name(doc_type: str) -> str:
    name = re.sub(r"[^A-Za-z0-9_]", "_", doc_type).lower()
    if not re.match(r"^[a-z_]", name):
        name = f"t_{name}"
    return name


def _column_name(col: str) -> str:
    """Column identifiers are spliced into SQL, so accept only the
    ``[A-Za-z0-9_]`` alphabet ``_table_name`` maps onto."""
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", col):
        raise ValueError(f"unsafe column name {col!r}")
    return col


def write_class_tables(
    run_dir: str,
    db_path: str,
    *,
    key_col: str = "url",
    json_col: str = "fields_json",
    conf_col: str = "confidence",
) -> dict:
    """Load a flagship run's output into per-class database tables
    ``(document_key, json, confidence_score)`` — the reference's T6
    surface.  One bulk load per class; re-running replaces each table
    atomically (CREATE OR REPLACE), so the load is idempotent.
    Returns ``{table: n_rows}``."""
    import duckdb

    key_col, json_col, conf_col = map(_column_name, (key_col, json_col, conf_col))
    classes = _class_tables(run_dir)
    if not classes:
        raise FileNotFoundError(f"no doc_type partitions under {run_dir!r}")
    con = duckdb.connect(db_path)
    counts: dict[str, int] = {}
    try:
        for doc_type, files in classes.items():
            table = _table_name(doc_type)
            con.execute(
                f"CREATE OR REPLACE TABLE {table} AS "
                f"SELECT {key_col} AS document_key, "
                f"{json_col} AS json, "
                f"CAST({conf_col} AS DOUBLE) AS confidence_score "
                f"FROM read_parquet(?)",
                [files],
            )
            counts[table] = con.execute(
                f"SELECT count(*) FROM {table}"
            ).fetchone()[0]
    finally:
        con.close()
    return counts


__all__ = ["write_class_tables"]
