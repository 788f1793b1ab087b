"""One fresh Ray driver process of the benchmark (started by ``run.py``).

Modes:

* ``timed``: set up (``ray.init`` + untimed warm-up + loading the cached
  input), then run the workload's job again and again for ``--seconds``
  with tracing off, gating every job.
* ``trace``: set up, run three untraced jobs, then the traced pass over the
  same input (``layers.py``), and derive the per-layer ledger.
* ``prepare``: build a missing dedup_extracted input (untimed).

The result is one JSON object written to ``--result``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import glob
import json
import os
import shutil
import sys
import time

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, CHECKOUT)

import pyarrow as pa  # noqa: E402
import pyarrow.compute as pc  # noqa: E402
import pyarrow.dataset as pads  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402

from perfbench import corpus, layers  # noqa: E402

NUM_CPUS = 1  # Ray's logical CPUs: one task at a time, so jobs never contend
OBJECT_STORE_BYTES = 256 * 2**20
UNTRACED_JOBS = 3  # per traced run


# -- measurement -------------------------------------------------------------


def reset_peak_rss() -> None:
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass  # then VmHWM stays the process-lifetime peak


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


# -- Ray session ---------------------------------------------------------------


def ray_temp_dir() -> str | None:
    """Ray's session dir inside the checkout when the unix socket paths
    under it stay within the 107-byte limit, else Ray's default."""
    path = os.path.join(CHECKOUT, "perfbench", ".r")
    return path if len(path) <= 40 else None


def ray_init() -> None:
    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        _temp_dir=ray_temp_dir(),
    )
    DataContext.get_current().enable_progress_bars = False


# -- jobs -----------------------------------------------------------------------


def extract_job(pages_dir: str, out_dir: str) -> dict:
    from valere_ocr_ray.pipelines.extract import run_resumable

    return run_resumable(pages_dir, out_dir)


def _to_docs(t: pa.Table) -> pa.Table:
    """(url, extracted_text) -> (doc_id, text); segment_dedup_stats wants
    int ids, so the id is the row number the url carries."""
    m = pc.extract_regex(t["url"], r"/(?P<doc_id>\d{8})\.\w+$")
    return pa.table(
        {
            "doc_id": pc.cast(pc.struct_field(m, [0]), pa.int64()),
            "text": t["extracted_text"].cast(pa.string()),
        }
    )


def _pull(ds, cols: list[str]) -> pa.Table:
    """Small per-key result columns to the driver (never the text)."""
    import ray

    parts = [t for t in ray.get(list(ds.select_columns(cols).to_arrow_refs())) if t.num_rows]
    return pa.concat_tables(parts) if parts else None


def read_sink(sink_dir: str):
    import ray.data

    return (
        ray.data.read_parquet(sink_dir, columns=["url", "extracted_text"])
        .map_batches(_to_docs, batch_format="pyarrow")
        .materialize()
    )


def dedup_ops(docs, tracer: layers.Tracer | None = None) -> dict:
    from valere_ocr_ray.ops.dedup import exact_dedup
    from valere_ocr_ray.ops.linededup import strip_repeated_lines_exchange
    from valere_ocr_ray.ops.segdedup import segment_dedup_stats

    if tracer:
        span = functools.partial(tracer.span, session=True)
    else:
        span = lambda name: contextlib.nullcontext()  # noqa: E731
    with span("ops.dedup"):
        exact = _pull(
            exact_dedup(docs, text_col="text", id_col="doc_id"),
            ["content_hash", "doc_id", "n_copies"],
        )
    with span("ops.linededup"):
        lines = _pull(
            strip_repeated_lines_exchange(
                docs, min_docs=corpus.MIN_DOCS, text_col="text", id_col="doc_id"
            ),
            ["doc_id", "n_dropped"],
        )
    with span("ops.segdedup"):
        segs = _pull(
            segment_dedup_stats(docs, id_col="doc_id", text_col="text", window=corpus.WINDOW),
            ["doc_id", "n_segs", "n_kept", "kept_tokens"],
        )
    return {"exact": exact, "lines": lines, "segs": segs}


# -- correctness gates -------------------------------------------------------------


class Expected:
    """What a correct run produces for one cached input."""

    def __init__(self, corpus_dir: str, workload: str) -> None:
        self.workload = workload
        if workload == "dedup_extracted":
            ex = pq.read_table(os.path.join(corpus_dir, "oracle_exact.parquet"))
            self.exact = set(
                zip(*(ex[c].to_pylist() for c in ("content_hash", "doc_id", "n_copies")))
            )
            per = pq.read_table(os.path.join(corpus_dir, "oracle_docs.parquet"))
            cols = [per[c].to_pylist() for c in per.column_names]
            self.docs = {r[0]: r[1:] for r in zip(*cols)}
            self.attempted = len(self.docs)
            return
        labels = pq.read_table(os.path.join(corpus_dir, "labels.parquet"))
        ref_dir = corpus.reference_dir(corpus_dir, CHECKOUT)
        ref = pq.read_table(os.path.join(ref_dir, "reference.parquet"))
        with open(os.path.join(ref_dir, "corpus.json")) as f:
            self.digest = json.load(f)["digest"]
        self.labels = labels
        self.expect = dict(
            zip(labels["url"].to_pylist(), zip(
                labels["expect_status"].to_pylist(),
                labels["doc_kind"].to_pylist(),
                labels["probe"].to_pylist(),
            ))
        )
        self.ref = dict(
            zip(ref["url"].to_pylist(), zip(
                ref["ref_status"].to_pylist(), ref["ref_text_md5"].to_pylist()
            ))
        )
        self.attempted = len(self.expect)


def gate_extract(out_dir: str, summary: dict | None, exp: Expected) -> dict:
    """Rows, quarantine, statuses, doc_kind, text digest, text probe."""
    import hashlib

    from valere_ocr_ray.state.manifest import read_quarantine

    problems: list[str] = []
    bad: set[str] = set()
    quarantined = sorted(set(read_quarantine(out_dir)) | set((summary or {}).get("quarantined", [])))
    if quarantined:
        problems.append(f"quarantined shards: {quarantined}")
    files = glob.glob(os.path.join(out_dir, "part_id=*", "**", "*.parquet"), recursive=True)
    if files:
        t = pads.dataset(files, format="parquet").to_table(
            columns=["url", "status", "doc_kind", "extracted_text"]
        )
    else:
        t = pa.table({c: pa.array([], pa.string()) for c in ("url", "status", "doc_kind", "extracted_text")})
    urls = t["url"].to_pylist()
    texts = t["extracted_text"].to_pylist()
    seen = collections.Counter(urls)
    missing = set(exp.expect) - set(seen)
    extra = set(seen) - set(exp.expect)
    dups = {u for u, n in seen.items() if n > 1}
    bad |= missing | extra | dups
    for name, s in (("missing", missing), ("unexpected", extra), ("duplicated", dups)):
        if s:
            problems.append(f"{len(s)} {name} rows, e.g. {sorted(s)[:3]}")
    wrong = collections.Counter()
    for url, status, kind, text in zip(urls, t["status"].to_pylist(), t["doc_kind"].to_pylist(), texts):
        if url not in exp.expect:
            continue
        want_status, want_kind, probe = exp.expect[url]
        ref_status, ref_md5 = exp.ref[url]
        checks = (
            ("status", want_status is not None and status != want_status),
            ("status_vs_reference", status != ref_status),
            ("doc_kind", want_kind is not None and kind != want_kind),
            ("text", hashlib.md5((text or "").encode()).hexdigest() != ref_md5),
            ("probe", bool(probe) and status == "ok" and not (text or "").startswith(probe)),
        )
        for what, failed in checks:
            if failed:
                wrong[what] += 1
                bad.add(url)
    if wrong:
        problems.append(f"row mismatches by check: {dict(wrong)}")
    digest = corpus.text_digest(urls, texts)
    if digest != exp.digest:
        problems.append(f"text digest {digest} != reference {exp.digest}")
    status_counts = dict(collections.Counter(t["status"].to_pylist()))
    failed = len(bad)
    if problems and not failed:
        failed = 1
    return {
        "attempted": exp.attempted,
        "failed": failed,
        "ok": not problems,
        "problems": problems,
        "status_counts": status_counts,
        "quarantined": len(quarantined),
    }


def gate_dedup(res: dict, exp: Expected) -> dict:
    """Exact-dedup rows, per-doc dropped lines and segment stats vs the oracle."""
    problems: list[str] = []
    bad: set[int] = set()
    ex = res["exact"]
    got_exact = set(
        zip(*(ex[c].to_pylist() for c in ("content_hash", "doc_id", "n_copies")))
    ) if ex is not None else set()
    if got_exact != exp.exact:
        diff = got_exact ^ exp.exact
        problems.append(f"exact_dedup: {len(diff)} rows differ from the oracle")
        bad |= {r[1] for r in diff}
    lines, segs = res["lines"], res["segs"]
    got = collections.defaultdict(lambda: [None, None, None, None])
    for name, t, idx in (("lines", lines, [0]), ("segs", segs, [1, 2, 3])):
        if t is None:
            problems.append(f"{name}: empty output")
            continue
        cols = [t[c].to_pylist() for c in t.column_names]
        if len(cols[0]) != len(set(cols[0])):
            problems.append(f"{name}: duplicated doc ids")
        for row in zip(*cols):
            for k, v in zip(idx, row[1:]):
                got[row[0]][k] = v
    for d, want in exp.docs.items():
        if tuple(got.get(d, ())) != tuple(want):
            bad.add(d)
    bad |= set(got) - set(exp.docs)
    if bad:
        problems.append(f"{len(bad)} docs differ from the oracle")
    n_distinct = len(got_exact)
    return {
        "attempted": exp.attempted,
        "failed": len(bad) or int(bool(problems)),
        "ok": not problems,
        "problems": problems,
        "distinct_hashes": n_distinct,
        "dropped_lines": sum(v[0] or 0 for v in got.values()),
    }


# -- modes ----------------------------------------------------------------------------


class Workload:
    """The job, its warm-up and its gate for one workload and input."""

    def __init__(
        self, name: str, corpus_dir: str, warm_dir: str, work: str, web_dir: str | None
    ) -> None:
        self.name = name
        self.corpus_dir = corpus_dir
        self.warm_dir = warm_dir
        self.work = work
        self.web_dir = web_dir

    def prepare(self) -> None:
        """The extract_web pass whose sink dedup_extracted reads, when no
        cached one exists for this seed and program.  It runs in a
        driver process of its own, so no timed driver inherits the
        workers and objects it leaves behind."""

        def make_sink(sink: str) -> dict:
            summary = extract_job(os.path.join(self.web_dir, "pages"), sink)
            return gate_extract(sink, summary, Expected(self.web_dir, "extract_web"))

        corpus.ensure_dedup(self.corpus_dir, make_sink)

    def load(self) -> None:
        self.expected = Expected(self.corpus_dir, self.name)

    def warm(self) -> None:
        if self.name == "dedup_extracted":
            # the three ops over the warm corpus's text probe column
            import ray.data

            docs = ray.data.read_parquet(
                os.path.join(self.warm_dir, "pages"), columns=["url", "text"]
            ).map_batches(
                lambda t: _to_docs(t.rename_columns(["url", "extracted_text"])),
                batch_format="pyarrow",
            )
            dedup_ops(docs.materialize())
        else:
            out = os.path.join(self.work, "warm_out")
            shutil.rmtree(out, ignore_errors=True)
            extract_job(os.path.join(self.warm_dir, "pages"), out)

    def job(self):
        if self.name == "dedup_extracted":
            return dedup_ops(read_sink(os.path.join(self.corpus_dir, "sink")))
        return extract_job(os.path.join(self.corpus_dir, "pages"), self.out_dir)

    @property
    def out_dir(self) -> str:
        return os.path.join(self.work, "out")

    def clear(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def gate(self, res) -> dict:
        if self.name == "dedup_extracted":
            return gate_dedup(res, self.expected)
        return gate_extract(self.out_dir, res, self.expected)

    @property
    def docs(self) -> int:
        return self.expected.attempted


def setup(wl: Workload) -> dict:
    """ray.init + untimed warm-up + loading the cached input, timed."""
    t0 = time.perf_counter()
    ray_init()
    t1 = time.perf_counter()
    wl.warm()
    t2 = time.perf_counter()
    wl.load()
    t3 = time.perf_counter()
    return {"setup_s": t3 - t0, "init_s": t1 - t0, "warm_s": t2 - t1, "load_s": t3 - t2}


def _cpu_ticks() -> list[int]:
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def timed_job(wl: Workload) -> dict:
    """One job, timed and gated.  ``steal_frac`` is the share of the
    machine's CPU time the hypervisor took during it: a shared VM's
    slow spells show there, not in the program."""
    wl.clear()
    reset_peak_rss()
    ticks0 = _cpu_ticks()
    with layers.SessionCpu() as cpu:
        t0 = time.perf_counter()
        res = wl.job()
        wall = time.perf_counter() - t0
    ticks = [b - a for a, b in zip(ticks0, _cpu_ticks())]
    rss = peak_rss_mb()
    gate = wl.gate(res)
    return {
        "wall_s": wall,
        "cpu_s": cpu.cpu_s,
        "rss_mb": rss,
        "steal_frac": ticks[7] / max(sum(ticks), 1),
        "docs": wl.docs,
        "gate": gate,
    }


def run_timed(wl: Workload, seconds: float) -> dict:
    """Jobs back to back for ``seconds``: one at least, and another only
    while the slowest job so far would still end inside the window."""
    out = {"setup": setup(wl), "jobs": []}
    t0 = time.perf_counter()
    slowest = 0.0
    while not out["jobs"] or time.perf_counter() - t0 + slowest <= seconds:
        out["jobs"].append(timed_job(wl))
        slowest = max(slowest, out["jobs"][-1]["wall_s"])
    return out


def traced_extract(wl: Workload, tracer: layers.Tracer) -> tuple[dict, dict]:
    """The flagship's steps, each through the program's own call: the
    pruned ``read_parquet`` and the per-class Hive ``write_parquet`` as
    Ray Data calls, the lineage as the pipeline's Ray tasks plus
    manifests, and docmeta -> extract -> fields once per read block in
    this process (``layers.extract_inprocess``).  What the Ray job costs
    beyond these is the ledger's ``ray_data.overhead_ms_per_doc``.
    Returns the gate's summary and url -> output status."""
    import ray
    import ray.data

    from valere_ocr_ray.pipelines import extract
    from valere_ocr_ray.state.manifest import write_manifest, write_run_summary

    out_dir = wl.out_dir
    shards = extract.list_shards(os.path.join(wl.corpus_dir, "pages"))
    with tracer.span("pipelines.extract.read", session=True):
        read = ray.data.read_parquet(
            shards, columns=extract._READ_COLUMNS, include_paths=True
        ).materialize()
    blocks = ray.get(list(read.to_arrow_refs()))
    with tracer.span("pipelines.extract.read.part_id"):
        blocks = [extract._add_part_id(b) for b in blocks if b.num_rows]
    tables = layers.extract_inprocess(blocks, layers.Groups(wl.expected.labels), tracer)
    sink = ray.data.from_arrow(tables)
    with tracer.span("pipelines.extract.write", session=True):
        sink.write_parquet(out_dir, partition_cols=["part_id", "doc_type"])
    parts = [extract._part_id_from_path(p) for p in shards]
    with tracer.span("pipelines.extract.lineage", session=True):
        stats = ray.get(
            [
                extract._lineage_task.remote(os.path.join(out_dir, f"part_id={p}"))
                for p in parts
            ]
        )
        for part, st in zip(parts, stats):
            write_manifest(out_dir, part, st)
        write_run_summary(out_dir)
    status = {
        u: st
        for t in tables
        for u, st in zip(t["url"].to_pylist(), t["status"].to_pylist())
    }
    return {"quarantined": []}, status


def run_trace(wl: Workload, run_id: str, spans_path: str) -> dict:
    out = {"setup": setup(wl)}
    # the ledger's base: the median-CPU job of a few, as one job's CPU
    # swings by about 10% on a shared machine
    out["untraced_jobs"] = [timed_job(wl) for _ in range(UNTRACED_JOBS)]
    out["untraced"] = sorted(out["untraced_jobs"], key=lambda j: j["cpu_s"])[UNTRACED_JOBS // 2]
    wl.clear()
    tracer = layers.Tracer(run_id)
    exchanges: list[dict] = []
    t0 = time.perf_counter()
    if wl.name == "dedup_extracted":
        with tracer.span("pipelines.extract.read", session=True):
            docs = read_sink(os.path.join(wl.corpus_dir, "sink"))
        with layers.traced_exchanges(tracer, exchanges):
            res = dedup_ops(docs, tracer)
        status = {}
    else:
        res, status = traced_extract(wl, tracer)
    out["traced_wall_s"] = time.perf_counter() - t0
    out["traced_gate"] = wl.gate(res)
    out["totals"] = layers.layer_totals(tracer)
    rows = layers.row_times(tracer)
    out["slowest"] = layers.slowest(rows, status)
    out["exchanges"] = exchanges
    out["exchange"] = layers.exchange_summary(exchanges)
    out["codec_rows"] = _codec_rows(rows)
    blocks = [s for s in tracer.spans if s["name"] == "stages.extractor"]
    parsed = sum(s["parsed"] for s in blocks)
    out["extract_failures"] = sum(s["errors"] for s in blocks)
    out["extract_ok_ratio"] = sum(s["ok"] for s in blocks) / parsed if parsed else 0.0
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w") as f:
        json.dump({"run": run_id, "spans": tracer.spans, "exchanges": exchanges}, f)
    return out


def _codec_rows(rows: dict[str, dict]) -> dict[str, dict]:
    """Per extractor span name: rows and their CPU seconds."""
    acc: dict[str, dict] = {}
    for r in rows.values():
        rec = acc.setdefault(r["name"], {"rows": 0, "s": 0.0})
        rec["rows"] += 1
        rec["s"] += r["cpu_s"]
    return acc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", choices=("timed", "trace", "prepare"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--corpus", required=True)
    ap.add_argument("--warm", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--result", required=True)
    ap.add_argument("--web", help="web corpus whose sink dedup_extracted reads")
    ap.add_argument("--run-id", default="run")
    args = ap.parse_args()

    import ray

    try:
        wl = Workload(args.workload, args.corpus, args.warm, args.work, args.web)
        if args.mode == "prepare":
            ray_init()
            wl.prepare()
            res = {}
        elif args.mode == "timed":
            res = run_timed(wl, args.seconds)
        else:
            res = run_trace(
                wl, args.run_id, os.path.join(args.work, f"spans-{args.run_id}.json")
            )
        res["ray_num_cpus"] = ray.cluster_resources().get("CPU")
        res["ray_temp_dir_in_checkout"] = ray_temp_dir() is not None
    finally:
        ray.shutdown()
    with open(args.result, "w") as f:
        json.dump(res, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
