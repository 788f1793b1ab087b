"""The flagship pipeline: pages → docmeta → parse → fields → parquet.

One streaming Ray Data pipeline (SURVEY.md §3 "engine equivalents" —
the reference's E1/E2/E3 entry points collapse into this):

    read_parquet(pages shards, include_paths)        # prune at read
      → map_batches(docmeta_batch)                   # stateless: sniff/size/hash/filters
      → map_batches(extract_pages_batch)             # task pool: DOM/PDF parse + OCR
      → map_batches(extract_fields_batch)            # classify + field batteries
      → write_parquet(out, partition_cols=[part_id]) # resumable partitioned sink

No stage materializes the dataset; blocks stream with backpressure.
Resume = per-input-shard manifests (state/manifest.py): a rerun reads
only shards whose manifest is missing, clears their partial output,
reprocesses, then writes data-then-manifest.  At 100 TB the input is
O(100k) shard files; ``group_size`` bounds how many shards one Dataset
run covers so a crash forfeits at most one group's work.
"""

from __future__ import annotations

import glob
import os
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from valere_ocr_ray import MAX_DOC_BYTES
from valere_ocr_ray.stages.docmeta import docmeta_batch
from valere_ocr_ray.stages.extractor import extract_fields_batch, extract_pages_batch
from valere_ocr_ray.state.manifest import (
    pending_shards,
    read_quarantine,
    write_manifest,
    write_quarantine,
    write_run_summary,
)

# columns the pipeline needs from pages — `text`/`lang` are not read
# (column pruning at the parquet scan; `text` is the cheap-probe column
# used only by the probe query, not by extraction)
_READ_COLUMNS = ["url", "warc_ts", "html", "lang"]


def _part_id_from_path(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _add_part_id(batch: pa.Table) -> pa.Table:
    paths = batch["path"].to_pylist()
    part = pa.array([_part_id_from_path(p) for p in paths], pa.string())
    return batch.drop_columns(["path"]).append_column("part_id", part)


def build_extraction_ds(
    paths: list[str] | str,
    *,
    max_doc_bytes: int = MAX_DOC_BYTES,
    extra_columns: tuple[str, ...] = (),
) -> ray.data.Dataset:
    """Lazy Dataset of extracted rows for the given pages parquet paths.

    ``extra_columns`` widens the pruned parquet read with pass-through
    input columns (e.g. the F5 ``text`` probe for the oracled
    flagship-projection query) — they ride every stage untouched."""
    ds = ray.data.read_parquet(
        paths, columns=_READ_COLUMNS + list(extra_columns), include_paths=True
    )
    ds = ds.map_batches(_add_part_id, batch_format="pyarrow")
    ds = ds.map_batches(
        lambda b: docmeta_batch(b, max_doc_bytes=max_doc_bytes),
        batch_format="pyarrow",
    )
    # task pool: parser state is module-level (built once per worker
    # process), warm workers are reused across executions.
    # batch_size=None → whole blocks as batches: blocks are BYTE-bounded
    # (DataContext.target_max_block_size), so a run of 10 MiB heavy
    # blobs can't assemble a multi-GB batch the way a fixed row-count
    # batch would (skew/memory guard, SURVEY §4.2)
    ds = ds.map_batches(extract_pages_batch, batch_format="pyarrow", batch_size=None)
    ds = ds.map_batches(extract_fields_batch, batch_format="pyarrow")
    return ds


def list_shards(input_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(input_dir, "*.parquet")))


@ray.remote(num_cpus=0.5)
def _lineage_task(part_dir: str) -> dict:
    return _partition_lineage(part_dir)


def run_resumable(
    input_dir: str,
    out_dir: str,
    *,
    group_size: int = 16,
    max_doc_bytes: int = MAX_DOC_BYTES,
    quarantine: bool = True,
) -> dict:
    """Process all pending input shards; returns a run summary.

    Idempotent and killable: completed shards (manifest present) are
    skipped entirely; partially-written shards are cleared and redone.
    Output layout: ``out_dir/part_id=<shard>/doc_type=<class>/*.parquet``
    (S5 per-class Hive layout — a consumer of one class scans only its
    directories) + ``out_dir/_done/<shard>.json`` lineage manifests.

    Poison-shard isolation (``quarantine=True``): a group whose read or
    write raises (e.g. a corrupt parquet file — row-level data errors
    never raise, they become ``status='error_*'`` rows) is retried
    shard-by-shard; a shard that still fails gets a
    ``_quarantine/<part>.json`` record (error text + timestamp-free,
    deterministic) and the run continues — at 100 TB one bad file must
    cost one shard, not the job.  Quarantined shards are NOT retried by
    later runs until their marker is deleted.
    """
    shards = list_shards(input_dir)
    by_part = {_part_id_from_path(p): p for p in shards}
    quarantined_before = set(read_quarantine(out_dir))
    todo = [
        p
        for p in pending_shards(out_dir, list(by_part))
        if p not in quarantined_before
    ]
    summary = {
        "n_shards": len(shards),
        "n_skipped_complete": len(shards) - len(todo) - len(quarantined_before),
        "n_quarantined_prior": len(quarantined_before),
        "quarantined": [],
        "groups": [],
    }

    os.makedirs(out_dir, exist_ok=True)

    def process(parts: list[str], group_index: int) -> None:
        # clear partial output from a previous crashed run (§7.4.5)
        for part_id in parts:
            part_dir = os.path.join(out_dir, f"part_id={part_id}")
            if os.path.isdir(part_dir):
                shutil.rmtree(part_dir)
        t0 = time.perf_counter()
        ds = build_extraction_ds(
            [by_part[p] for p in parts],
            max_doc_bytes=max_doc_bytes,
        )
        # S5 per-class sink layout (reference per-class tables,
        # IDD/finalcodes/Facesheet.py:195-196): part_id keeps resume
        # granularity, doc_type gives downstream per-class consumers a
        # pruned scan (out_dir/part_id=…/doc_type=…/*.parquet)
        ds.write_parquet(out_dir, partition_cols=["part_id", "doc_type"])
        wall_s = time.perf_counter() - t0
        # lineage per partition from the written output (columnar
        # read-back — avoids re-executing the pipeline for the
        # aggregate).  Runs as PARALLEL Ray tasks: the per-class Hive
        # layout multiplies file count ~n_classes×, and a serial
        # driver loop over those files is a constant cost that
        # scales with shards, not CPUs (measured 18 s on the 64-shard
        # bench — it halved the 8→32 scaling efficiency).  Manifests
        # are still written driver-side, data-then-manifest.
        stats_refs = [
            _lineage_task.remote(os.path.join(out_dir, f"part_id={part_id}"))
            for part_id in parts
        ]
        for part_id, stats in zip(parts, ray.get(stats_refs)):
            stats["wall_s_group"] = round(wall_s, 3)
            stats["group_index"] = group_index
            write_manifest(out_dir, part_id, stats)
        summary["groups"].append({"shards": parts, "wall_s": round(wall_s, 3)})

    for g in range(0, len(todo), group_size):
        group = todo[g : g + group_size]
        gi = g // group_size
        try:
            process(group, gi)
        except Exception:
            if not quarantine:
                raise
            # isolate: retry one shard at a time; persistent failures
            # are quarantined, the rest of the group completes
            for part_id in group:
                try:
                    process([part_id], gi)
                except Exception as exc:
                    part_dir = os.path.join(out_dir, f"part_id={part_id}")
                    if os.path.isdir(part_dir):
                        shutil.rmtree(part_dir)
                    write_quarantine(out_dir, part_id, repr(exc)[:500])
                    summary["quarantined"].append(part_id)
    summary["totals"] = write_run_summary(out_dir)
    return summary


def _partition_lineage(part_dir: str) -> dict:
    files = sorted(
        glob.glob(os.path.join(part_dir, "**", "*.parquet"), recursive=True)
    )
    if not files:
        return {"n_in": 0, "n_ok": 0, "n_error": 0, "n_skipped": 0, "bytes_in": 0, "files": []}
    import pyarrow.dataset as pads

    # one dataset scan over the partition's files (vs a python loop of
    # per-file read_table calls — ~10 ms of open/footer overhead each)
    t = pads.dataset(files).to_table(columns=["status", "size_bytes"])
    status = t["status"]
    n_ok = pc.sum(pc.equal(status, "ok").cast(pa.int64())).as_py() or 0
    n_err = (
        pc.sum(pc.match_substring(status, "error").cast(pa.int64())).as_py() or 0
    )
    n_skip = (
        pc.sum(pc.match_substring(status, "skipped").cast(pa.int64())).as_py() or 0
    )
    return {
        "n_in": len(t),
        "n_ok": int(n_ok),
        "n_error": int(n_err),
        "n_skipped": int(n_skip),
        "bytes_in": int(pc.sum(t["size_bytes"]).as_py() or 0),
        "files": [os.path.relpath(f, part_dir) for f in files],
    }
