"""The repository benchmark: one seeded workload, end-to-end or traced.

    python3 perfbench/run.py --workload extract_web --seed 1 --seconds 22 --trace 0

Workloads (BENCHMARK.json says why each exists and which layers it
exercises and bypasses):

* ``extract_web``: ``run_resumable`` over a seeded contiguous range of
  ``synth_row`` rows with the natural mix (HTML incl. 60 KB articles,
  text and scanned PDFs, rasters, garbage, blocklisted, oversized).
* ``dedup_extracted``: ``exact_dedup`` + ``strip_repeated_lines_exchange``
  + ``segment_dedup_stats`` over the sink output of an untimed
  extract_web pass over the same seed's rows.
* ``extract_scanned`` (not in BENCHMARK.json, see ``corpus.py``):
  ``run_resumable`` over only the PDF and raster rows of a seeded range
  that holds every raster and scanned-PDF codec; its traced run shows
  the decoder and OCR layers on their own.

``--trace 0`` starts fresh Ray driver processes one after the other.
Each sets up (``ray.init`` + untimed warm-up + loading the cached
input) and then runs the workload's job for its share of ``--seconds``;
every job is checked against the generator's labels and an in-process
reference, so a broken run never reads as fast.  The last stdout line
holds the end-to-end metrics, the line before it the detail (every job,
setup parts, gate, versions and core counts).

``--trace 1`` starts one driver that runs three untraced jobs and then
the traced pass, and prints the per-layer ledger instead, based on the
median-CPU untraced job; the spans go to ``perfbench/.out``.

Inputs are generated in this process before any driver starts (and
cached under ``perfbench/.cache``), so generation is never part of a
timed number.  Every run starts and ends with ``ray stop --force``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
WORKLOADS = ("extract_web", "extract_scanned", "dedup_extracted")
DRIVERS = 2  # fresh driver processes per timed run; setup_s is their median
DEADLINE_S = 170  # the whole run, generation included
DRIVER_ATTEMPTS = 2


def _env() -> dict:
    env = dict(os.environ)
    # Ray workers import the checkout under test: a driver-side
    # sys.path entry does not reach them, an inherited PYTHONPATH does
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (CHECKOUT, env.get("PYTHONPATH")) if p
    )
    env["RAY_USAGE_STATS_ENABLED"] = "0"
    env["RAY_DATA_DISABLE_PROGRESS_BARS"] = "1"
    env["RAY_DEDUP_LOGS"] = "0"
    return env


def ray_stop() -> None:
    subprocess.run(
        [sys.executable, "-m", "ray.scripts.scripts", "stop", "--force"],
        env=_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=60,
        check=False,
    )


def run_driver(args: list[str], result: str, deadline: float) -> dict:
    """One fresh driver process; its stdout goes to our stderr.

    A driver that exits with an error is started once more, after
    ``ray stop``: Ray's own processes now and then abort on a loaded
    machine.  A fault of the program repeats and fails the run.  The
    result records how many attempts it took."""
    for attempt in range(1, DRIVER_ATTEMPTS + 1):
        if os.path.exists(result):
            os.remove(result)
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "driver.py"), "--result", result, *args],
            cwd=CHECKOUT,
            env=_env(),
            stdout=sys.stderr,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            ray_stop()
            raise RuntimeError(f"driver {args[:2]} passed the run deadline") from None
        if code == 0 and os.path.exists(result):
            with open(result) as f:
                res = json.load(f)
            res["attempts"] = attempt
            return res
        print(f"driver {args[:2]} exited with code {code} (attempt {attempt})", file=sys.stderr)
        ray_stop()
    raise RuntimeError(f"driver {args[:2]} failed {DRIVER_ATTEMPTS} times")


def ensure_inputs(workload: str, seed: int, cache: str, work: str, deadline: float) -> list[str]:
    """Generate (or find cached) inputs; driver arguments naming them."""
    from perfbench import corpus

    warm = corpus.ensure_pages(cache, "warm", corpus.warm_rows(), CHECKOUT)
    if workload == "extract_scanned":
        main = corpus.ensure_pages(cache, f"scanned-s{seed}", corpus.scanned_rows(seed), CHECKOUT)
        corpus.ensure_reference(main, CHECKOUT)
        return ["--corpus", main, "--warm", warm]
    web = corpus.ensure_pages(cache, f"web-s{seed}", corpus.web_rows(seed), CHECKOUT)
    corpus.ensure_reference(web, CHECKOUT)
    if workload == "extract_web":
        return ["--corpus", web, "--warm", warm]
    dedup = corpus.dedup_dir(cache, web, CHECKOUT)
    args = ["--workload", workload, "--corpus", dedup, "--warm", warm, "--web", web]
    if not os.path.exists(os.path.join(dedup, "corpus.json")):
        run_driver(["--mode", "prepare", "--work", work, *args], os.path.join(work, "prepare.json"), deadline)
    return args[2:]


def versions() -> dict:
    import duckdb
    import pyarrow
    import ray

    nproc = subprocess.run(["nproc"], capture_output=True, text=True, check=False)
    return {
        "nproc": nproc.stdout.strip(),
        "os_cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "duckdb": duckdb.__version__,
    }


def end_to_end(drivers: list[dict]) -> tuple[dict, int, int, bool, dict]:
    jobs = [j for d in drivers for j in d["jobs"]]
    docs = jobs[0]["docs"]
    metrics = {
        "docs_per_s": docs / statistics.median(j["wall_s"] for j in jobs),
        "cpu_ms_per_doc": statistics.median(j["cpu_s"] * 1e3 / j["docs"] for j in jobs),
        # the driver's RSS creeps up job after job, so compare like with
        # like: the peak during each driver's first timed job
        "driver_rss_mb": statistics.median(d["jobs"][0]["rss_mb"] for d in drivers),
        "setup_s": statistics.median(d["setup"]["setup_s"] for d in drivers),
    }
    attempted = sum(j["gate"]["attempted"] for j in jobs)
    failed = sum(j["gate"]["failed"] for j in jobs)
    correct = all(j["gate"]["ok"] for j in jobs)
    detail = {
        "docs_per_job": docs,
        "jobs": [
            {k: (round(v, 4) if isinstance(v, float) else v) for k, v in j.items() if k != "gate"}
            for j in jobs
        ],
        "setup": [{k: round(v, 3) for k, v in d["setup"].items()} for d in drivers],
        "driver_attempts": [d["attempts"] for d in drivers],
        "gate": jobs[-1]["gate"],
        "problems": sorted({p for j in jobs for p in j["gate"]["problems"]}),
        "fail_ratio": failed / attempted,
    }
    return metrics, attempted, failed, correct, detail


def per_layer(tr: dict) -> tuple[dict, dict]:
    """The traced ledger: every layer's self time per input doc, counts,
    failures, the exchange numbers and the untraced remainder."""
    docs = tr["untraced"]["docs"]
    totals = tr["totals"]

    def agg(prefix: str) -> dict:
        recs = [v for k, v in totals.items() if k == prefix or k.startswith(prefix + ".")]
        return {
            "count": sum(r["count"] for r in recs),
            "ms_per_doc": sum(r["self_s"] for r in recs) * 1e3 / docs,
            "failures": sum(r["failures"] for r in recs),
        }

    m: dict[str, float] = {}
    for layer in ("stages.docmeta", "registry", "ops.dedup", "ops.linededup", "ops.segdedup"):
        for k, v in agg(layer).items():
            m[f"{layer}.{k}"] = v
    # counts are rows for the per-block stages, calls for the ops
    m["stages.docmeta.count"] = totals.get("stages.docmeta", {}).get("rows", 0)
    m["registry.count"] = totals.get("registry.fields", {}).get("rows", 0)
    for sub in ("fields", "extract_document", "classify"):
        m[f"registry.{sub}.ms_per_doc"] = agg(f"registry.{sub}")["ms_per_doc"]
    for part in ("read", "write", "lineage"):
        m[f"pipelines.extract.{part}.ms_per_doc"] = agg(f"pipelines.extract.{part}")["ms_per_doc"]
    m["pipelines.extract.failures"] = max(
        j["gate"].get("quarantined", 0) for j in tr["untraced_jobs"]
    )

    rows = tr["codec_rows"]
    ext = agg("stages.extractor")
    m["stages.extractor.count"] = sum(r["rows"] for r in rows.values())
    m["stages.extractor.ms_per_doc"] = ext["ms_per_doc"]
    m["stages.extractor.failures"] = tr["extract_failures"]
    m["stages.extractor.ok_ratio"] = tr["extract_ok_ratio"]
    for sub in ("html_text", "pdf_text", "pdf_images", "glyph_font", "ocr"):
        name = f"stages.extractor.{sub}"
        a = agg(name)
        # rows parsed; for the OCR kernel, images read
        m[f"{name}.count"] = a["count"] if sub == "ocr" else sum(
            r["rows"] for k, r in rows.items() if k == name or k.startswith(name + ".")
        )
        m[f"stages.extractor.{sub}.ms_per_doc"] = a["ms_per_doc"]
    # per codec: self time per input doc, a share of the run that is 0
    # where the workload has no rows of that codec; the per-row time
    # goes to the detail line, for the codecs that had rows
    per_codec = {}
    for name, r in sorted(rows.items()):
        if name.startswith(("stages.extractor.pdf_images.", "stages.extractor.glyph_font.")):
            per_codec[name] = {"rows": r["rows"], "ms_per_row": r["s"] * 1e3 / r["rows"]}
    from perfbench.corpus import RASTER_CODECS, SCANNED_PDF_CODECS

    for sub, codecs in (("pdf_images", SCANNED_PDF_CODECS), ("glyph_font", RASTER_CODECS)):
        for c in codecs:
            name = f"stages.extractor.{sub}.{c}"
            m[f"{name}.ms_per_doc"] = agg(name)["ms_per_doc"]

    ex = tr["exchange"]
    exch = agg("ops.exchange")
    m["ops.exchange.count"] = exch["count"]
    m["ops.exchange.ms_per_doc"] = exch["ms_per_doc"]
    for k in ("width", "part_rows_max", "part_rows_median", "part_bytes_max",
              "part_bytes_median", "skew"):
        m[f"ops.exchange.{k}"] = ex.get(k, 0)

    layer_ms = sum(v["self_s"] for v in totals.values()) * 1e3 / docs
    untraced = tr["untraced"]
    cpu_ms = untraced["cpu_s"] * 1e3 / docs
    m["layers.ms_per_doc"] = layer_ms
    m["untraced.cpu_ms_per_doc"] = cpu_ms
    m["ray_data.overhead_ms_per_doc"] = cpu_ms - layer_ms
    m["trace.overhead_s"] = tr["traced_wall_s"] - untraced["wall_s"]
    detail = {
        "docs": docs,
        # the traced layers cost more CPU than the whole untraced run, by
        # more than the 5% run-to-run noise of a CPU reading: the
        # ledger does not add up, and its split is not to be trusted
        "ledger_exceeds_run": m["ray_data.overhead_ms_per_doc"] < -0.05 * cpu_ms,
        "per_codec": per_codec,
        "self_ms_by_span": {
            k: round(v["self_s"] * 1e3, 3) for k, v in sorted(totals.items())
        },
        "slowest": tr["slowest"],
        "exchanges": tr["exchanges"],
        "untraced_jobs": [
            {k: round(j[k], 4) for k in ("wall_s", "cpu_s", "steal_frac")}
            for j in tr["untraced_jobs"]
        ],
        "untraced_gates": [j["gate"] for j in tr["untraced_jobs"]],
        "traced_gate": tr["traced_gate"],
        "setup": tr["setup"],
    }
    return m, detail


def _declared(kind: str) -> list[dict]:
    with open(os.path.join(CHECKOUT, "BENCHMARK.json")) as f:
        return json.load(f)[kind]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(CHECKOUT, "valere_ocr_ray", "__init__.py")):
        print(f"no valere_ocr_ray package under {CHECKOUT}", file=sys.stderr)
        return 2
    sys.path.insert(0, CHECKOUT)

    cache = os.path.join(HERE, ".cache")
    work = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    shutil.rmtree(os.path.join(HERE, ".r"), ignore_errors=True)
    common = ["--workload", args.workload, "--work", work]
    ray_stop()
    try:
        t0 = time.perf_counter()
        common += ensure_inputs(args.workload, args.seed, cache, work, deadline)
        inputs_s = time.perf_counter() - t0
        if args.trace:
            run_id = f"{args.workload}-s{args.seed}"
            tr = run_driver(
                ["--mode", "trace", *common, "--run-id", run_id],
                os.path.join(work, "trace.json"),
                deadline,
            )
            metrics, detail = per_layer(tr)
            detail["driver_attempts"] = tr["attempts"]
            if detail["ledger_exceeds_run"]:
                print("ledger: the traced layers cost more CPU than the untraced run", file=sys.stderr)
            gates = [*(j["gate"] for j in tr["untraced_jobs"]), tr["traced_gate"]]
            attempted = sum(g["attempted"] for g in gates)
            failed = sum(g["failed"] for g in gates)
            correct = all(g["ok"] for g in gates)
            declared = _declared("per_layer")
            spans_src = os.path.join(work, f"spans-{run_id}.json")
            spans_dst = os.path.join(HERE, ".out", f"spans-{run_id}.json")
            os.makedirs(os.path.dirname(spans_dst), exist_ok=True)
            shutil.move(spans_src, spans_dst)
            detail["spans_file"] = os.path.relpath(spans_dst, CHECKOUT)
        else:
            share = args.seconds / DRIVERS
            drivers = [
                run_driver(
                    ["--mode", "timed", *common, "--seconds", str(share)],
                    os.path.join(work, f"timed{k}.json"),
                    deadline,
                )
                for k in range(DRIVERS)
            ]
            metrics, attempted, failed, correct, detail = end_to_end(drivers)
            declared = _declared("end_to_end")
    finally:
        ray_stop()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(os.path.join(HERE, ".r"), ignore_errors=True)

    detail["workload"] = args.workload
    detail["seed"] = args.seed
    detail["inputs_s"] = round(inputs_s, 3)
    detail["ray_num_cpus"] = (tr if args.trace else drivers[0])["ray_num_cpus"]
    detail["ray_temp_dir_in_checkout"] = (tr if args.trace else drivers[0])["ray_temp_dir_in_checkout"]
    detail["env"] = versions()
    print(json.dumps(detail, default=str))
    out = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            d["name"]: {"value": float(metrics[d["name"]]), "unit": d["unit"]}
            for d in declared
        },
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
