"""Driver-style correctness receipt (VERDICT r1 item 2).

Round 1's driver artifact ``CORRECTNESS_r01.json`` came back empty, so
this tool produces the same per-query record in-repo: it imports
``__ray_entry__``, executes EVERY ``queries()`` entry at sf0.01,
materializes each result the way the driver does (Dataset/Arrow →
pandas), and emits ``{rows, schema, value_hash}`` per query — plus,
for every ``oracle_sql()`` entry, the DuckDB result run side-by-side
with ``rows_match`` / ``schema_match`` / ``values_match`` booleans.

Usage (owns its own Ray session — run standalone, never from tests):

    python tools/selfcheck.py [sf_dir] > SELFCHECK_rN.json

``--against=<record.json>`` compares this run with a saved record (e.g.
the parent commit's): every query whose ``value_hash`` or ``rows``
differs is printed to stderr, and the exit status is non-zero if any
does.  Each compared query also prints ``WALL <query> <saved_s>
<this_s>`` on stderr — the two runs' wall times, for a same-window
timing table (``grep ^WALL``).  The first query runs once untimed
before the loop, so no query's time holds the session warm-up.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def _to_pandas(result):
    import pandas as pd
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    assert isinstance(result, pd.DataFrame), type(result)
    return result


def _normalize(df):
    """Column-name-sorted, row-sorted, dtype-normalized frame — the
    driver's order-insensitive compare, done strictly (mirrors
    tests/test_oracle_parity._normalize)."""
    import pandas as pd

    import numpy as np

    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_integer_dtype(df[c]):
            # do NOT coerce float64→int64 here: the driver's value hash
            # sees "123.0" vs "123" (VERDICT r2 item 1) — keep the
            # mirror faithful so a dtype drift fails the self-check too
            df[c] = df[c].astype("int64")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(6)
        elif df[c].dtype == object and len(df):
            head = df[c].iloc[0]
            if isinstance(head, (list, np.ndarray)):  # list columns: sort/hash as strings
                df[c] = df[c].map(lambda v: json.dumps(list(v)))
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _value_hash(df) -> str:
    """md5 over the normalized frame's CSV bytes (deterministic across
    runs/processes; floats pre-rounded by _normalize)."""
    csv = df.to_csv(index=False, float_format="%.6f")
    return hashlib.md5(csv.encode()).hexdigest()


def _values_equal(a, b) -> bool:
    import pandas as pd

    if a.shape != b.shape or list(a.columns) != list(b.columns):
        return False
    try:
        pd.testing.assert_frame_equal(a, b, check_dtype=False)
        return True
    except AssertionError:
        return False


def main() -> None:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    oracled_only = "--oracled-only" in sys.argv  # e.g. the sf0.1 sweep,
    # where the engine-synthesized pages_* pipelines would re-extract
    # the 200k-page corpus once per query
    sf_dir = args[0] if args else "/root/testdata/sf0.01"
    saved = None  # read up front: a bad path fails before the long run
    for a in sys.argv[1:]:
        if a.startswith("--against="):
            with open(a.split("=", 1)[1]) as f:
                saved = json.load(f)["queries"]

    import duckdb
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", os.cpu_count() or 1)),
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entry_mod

    queries = entry_mod.queries()
    oracles = entry_mod.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    record: dict = {"sf_dir": sf_dir, "queries": {}}
    n_ok = n_fail = 0
    names = sorted(oracles if oracled_only else queries)
    only = [a.split("=", 1)[1] for a in sys.argv[1:] if a.startswith("--only=")]
    if only:  # e.g. --only=doc_holdout_split,doc_holdout_neardup
        wanted = set(only[0].split(","))
        names = [n for n in names if n in wanted]
    if names:  # throwaway run, kept out of the record: without it the
        # first timed query carries the session's warm-up
        try:
            _to_pandas(queries[names[0]](sf_dir))
        except Exception:
            pass  # the timed loop records it
    for name in names:
        t0 = time.perf_counter()
        entry: dict = {}
        try:
            got = _normalize(_to_pandas(queries[name](sf_dir)))
            entry["rows"] = int(len(got))
            entry["schema"] = {c: str(got[c].dtype) for c in got.columns}
            entry["value_hash"] = _value_hash(got)
            if name in oracles:
                # pages oracles hard-code the driver's sf0.01 corpus
                # path; when sweeping another sf, point them at that
                # sf's (already ensured) synthesized corpus instead
                from valere_ocr_ray.sources.synth import pages_dir_for_sf

                sql = oracles[name].replace(
                    "/tmp/valere_pages/sf0.01", pages_dir_for_sf(sf_dir)
                )
                want = _normalize(con.sql(sql).df())
                entry["oracle"] = {
                    "rows": int(len(want)),
                    "rows_match": len(got) == len(want),
                    "schema_match": list(got.columns) == list(want.columns),
                    "values_match": _values_equal(got, want),
                    # the driver's actual bar: md5 over the normalized
                    # CSV — an int64-vs-float64 drift fails THIS even
                    # when values_match is true (VERDICT r2 item 1)
                    "hash_match": _value_hash(got) == _value_hash(want),
                }
                ok = (
                    entry["oracle"]["values_match"]
                    and entry["oracle"]["hash_match"]
                )
            else:
                entry["oracle"] = None  # rows-only check by design
                ok = True
            entry["status"] = "pass" if ok else "FAIL"
            n_ok += ok
            n_fail += not ok
        except Exception as exc:  # a query that raises is a failure, not a crash
            entry["status"] = "ERROR"
            entry["error"] = repr(exc)[:300]
            n_fail += 1
        entry["wall_s"] = round(time.perf_counter() - t0, 3)
        record["queries"][name] = entry
        print(f"{name}: {entry['status']}", file=sys.stderr)

    record["n_pass"] = n_ok
    record["n_fail"] = n_fail
    record["n_oracled"] = sum(
        1 for e in record["queries"].values() if e.get("oracle")
    )
    print(json.dumps(record, indent=1, sort_keys=True))
    ray.shutdown()
    n_diff = len(_diff_records(saved, record["queries"])) if saved is not None else 0
    sys.exit(1 if n_fail or n_diff else 0)


def _diff_records(saved: dict, got: dict) -> list[str]:
    """Names of this run's queries whose ``value_hash`` or ``rows``
    differ from the saved record (a query the record lacks differs;
    queries this run skipped, e.g. under ``--only``, are not compared).
    Each is printed to stderr with both values; every compared query
    also prints ``WALL <query> <saved_s> <this_s>`` (``-`` when the
    record lacks it)."""
    diff = []
    for name in sorted(got):
        a, b = saved.get(name, {}), got[name]
        print(f"WALL {name} {a.get('wall_s', '-')} {b.get('wall_s', '-')}", file=sys.stderr)
        pair = [(e.get("rows"), e.get("value_hash")) for e in (a, b)]
        if pair[0] != pair[1]:
            diff.append(name)
            print(f"DIFF {name}: saved {pair[0]} != this run {pair[1]}", file=sys.stderr)
    print(f"against: {len(diff)} of {len(got)} queries differ", file=sys.stderr)
    return diff


if __name__ == "__main__":
    main()
