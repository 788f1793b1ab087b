"""CLI: run the engine's pipelines from the command line.

    python -m valere_ocr_ray extract --input PAGES_DIR --out OUT_DIR
        [--num-cpus N] [--group-size G] [--no-quarantine]
    python -m valere_ocr_ray dedup --input PAGES_DIR --out OUT_DIR
        [--num-cpus N] [--threshold T]
    python -m valere_ocr_ray summary --out OUT_DIR
    python -m valere_ocr_ray synth --out DIR --rows N [--shards K]

The CLI owns the Ray session (the library never calls ``ray.init``);
``--num-cpus`` defaults to all local cores.  ``extract`` is resumable:
rerunning after a kill continues from the partition manifests.
"""

from __future__ import annotations

import argparse
import json
import sys


def _init_ray(num_cpus: int | None) -> None:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="valere_ocr_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    ex = sub.add_parser("extract", help="resumable extraction run")
    ex.add_argument("--input", required=True)
    ex.add_argument("--out", required=True)
    ex.add_argument("--num-cpus", type=int, default=None)
    ex.add_argument("--group-size", type=int, default=16)
    ex.add_argument("--no-quarantine", action="store_true")

    dd = sub.add_parser("dedup", help="extract → dedup corpus run")
    dd.add_argument("--input", required=True)
    dd.add_argument("--out", required=True)
    dd.add_argument("--num-cpus", type=int, default=None)
    dd.add_argument("--threshold", type=float, default=0.8)

    sm = sub.add_parser("summary", help="print an output dir's run summary")
    sm.add_argument("--out", required=True)

    sy = sub.add_parser("synth", help="generate a deterministic pages corpus")
    sy.add_argument("--out", required=True)
    sy.add_argument("--rows", type=int, required=True)
    sy.add_argument("--shards", type=int, default=None)

    wc = sub.add_parser(
        "warc-convert", help="WARC archives → pages parquet shards (1:1)"
    )
    wc.add_argument("--input", required=True)
    wc.add_argument("--out", required=True)
    wc.add_argument("--num-cpus", type=int, default=None)

    fc = sub.add_parser(
        "files-convert",
        help="directory of loose html/pdf/image files → pages parquet shards",
    )
    fc.add_argument("--input", required=True)
    fc.add_argument("--out", required=True)
    fc.add_argument("--shard-size", type=int, default=1000)
    fc.add_argument("--use-mtime", action="store_true")

    jc = sub.add_parser(
        "jsonl-convert", help="JSONL(.gz) corpus → resumable pages parquet"
    )
    jc.add_argument("--input", required=True)
    jc.add_argument("--out", required=True)

    rp = sub.add_parser(
        "report",
        help="corpus datasheet: size/tokens, language mix, exact-dup "
        "rate, quality-tier + Gopher/C4 keep rates, length percentiles",
    )
    rp.add_argument("--input", required=True, help="parquet file or dir")
    rp.add_argument("--text-col", default="text")
    rp.add_argument(
        "--kind", choices=("documents", "pages"), default="documents",
        help="'pages' audits a run_resumable extraction output "
        "(status/kind/class mix, OCR rate, lineage cross-check) "
        "instead of a text corpus",
    )
    rp.add_argument("--num-cpus", type=int, default=None)

    cu = sub.add_parser(
        "curate", help="full training-shard pipeline (extract → quality → "
        "dedup → segment rewrite → pack → sharded parquet)"
    )
    cu.add_argument("--input", required=True)
    cu.add_argument("--out", required=True)
    cu.add_argument("--num-cpus", type=int, default=None)
    cu.add_argument("--budget", type=int, default=512)
    cu.add_argument("--shards", type=int, default=8)
    cu.add_argument(
        "--c4", action="store_true",
        help="add C4 §2.2 page markers to the quality gate",
    )
    cu.add_argument(
        "--gopher", action="store_true",
        help="add the Gopher/MassiveWeb App.-A keep verdict to the quality gate",
    )
    cu.add_argument(
        "--gopher-rep", action="store_true",
        help="add the full Gopher repetition sub-battery verdict "
        "(dup line/para + top/dup n-gram char fractions) to the gate",
    )
    cu.add_argument(
        "--boilerplate-min-docs", type=int, default=None,
        help="strip lines appearing in >= N docs before dedup (linededup)",
    )
    cu.add_argument(
        "--mix-budget-tokens", type=int, default=None,
        help="equal-token-budget mixture per doc_type after the quality "
        "gate (hash-threshold deterministic, ops/mixing)",
    )
    cu.add_argument(
        "--pack-mode", choices=("chunk", "nosplit"), default="chunk",
        help="chunk = pretraining concat-and-chunk (docs may straddle); "
        "nosplit = FFD bins, every doc whole in one sequence (SFT)",
    )
    cu.add_argument(
        "--holdout-rate", type=float, default=None,
        help="carve a leakage-safe eval holdout at this rate (side is "
        "a hash of md5(text), so exact dups co-locate); written under "
        "OUT/_holdout/shard=*/",
    )
    cu.add_argument(
        "--holdout-salt", default="holdout",
        help="salt for the holdout hash threshold (a different salt "
        "draws an independent split)",
    )
    cu.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted curate run: completed shards "
        "(whole-file atomic writes) are skipped; MUST use the "
        "original run's parameters",
    )
    cu.add_argument(
        "--input-kind", choices=("pages", "extracted"), default="pages",
        help="pages = raw pages parquet (extract inline); extracted = "
        "a prior `extract` run's output dir (pay extraction once, "
        "re-curate cheaply)",
    )

    a = p.parse_args(argv)

    if a.cmd == "files-convert":
        from valere_ocr_ray.sources.files import convert_file_dir

        outs = convert_file_dir(
            a.input, a.out, shard_size=a.shard_size, use_mtime=a.use_mtime
        )
        print(json.dumps({"n_shards": len(outs), "out": a.out}))
        return 0

    if a.cmd == "jsonl-convert":
        from valere_ocr_ray.sources.jsonl import convert_jsonl_dir

        outs = convert_jsonl_dir(a.input, a.out)
        print(json.dumps({"n_files": len(outs), "out": a.out}))
        return 0

    if a.cmd == "synth":
        from valere_ocr_ray.sources.synth import synth_pages

        paths = synth_pages(a.out, a.rows, n_shards=a.shards)
        print(json.dumps({"rows": a.rows, "shards": len(paths), "dir": a.out}))
        return 0

    if a.cmd == "summary":
        from valere_ocr_ray.state.manifest import write_run_summary

        print(json.dumps(write_run_summary(a.out), indent=2, sort_keys=True))
        return 0

    import ray

    _init_ray(a.num_cpus)
    try:
        if a.cmd == "extract":
            from valere_ocr_ray.pipelines.extract import run_resumable

            s = run_resumable(
                a.input,
                a.out,
                group_size=a.group_size,
                quarantine=not a.no_quarantine,
            )
            print(json.dumps(s, indent=2, sort_keys=True))
        elif a.cmd == "dedup":
            from valere_ocr_ray.pipelines.dedup_corpus import run_dedup_corpus

            s = run_dedup_corpus(a.input, a.out, minhash_threshold=a.threshold)
            print(json.dumps(s, indent=2, sort_keys=True))
        elif a.cmd == "curate":
            from valere_ocr_ray.pipelines.curate import build_training_shards

            s = build_training_shards(
                a.input,
                a.out,
                budget=a.budget,
                n_shards=a.shards,
                c4_rules=a.c4,
                gopher_rules=a.gopher,
                gopher_rep_rules=a.gopher_rep,
                boilerplate_min_docs=a.boilerplate_min_docs,
                mix_budget_tokens=a.mix_budget_tokens,
                pack_mode=a.pack_mode,
                input_kind=a.input_kind,
                resume=a.resume,
                holdout_rate=a.holdout_rate,
                holdout_salt=a.holdout_salt,
            )
            print(json.dumps(s, indent=2, sort_keys=True))
        elif a.cmd == "warc-convert":
            from valere_ocr_ray.sources.warc import convert_warc_dir

            outs = convert_warc_dir(a.input, a.out)
            print(json.dumps({"n_archives": len(outs), "out": a.out}))
        elif a.cmd == "report":
            if a.kind == "pages":
                from valere_ocr_ray.pipelines.report import pages_report

                s = pages_report(a.input)
            else:
                from valere_ocr_ray.pipelines.report import corpus_report

                s = corpus_report(a.input, text_col=a.text_col)
            print(json.dumps(s, indent=2, sort_keys=True))
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
