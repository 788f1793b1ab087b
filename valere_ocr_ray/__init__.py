"""valere_ocr_ray — a Ray-Data-native main-content extraction engine.

A from-scratch engine with the query/extraction capabilities of the
reference repo (kjustin2016/Valere-OCR, surveyed in /root/repo/SURVEY.md),
re-expressed Ray-Data-first: ``ray.data.read_parquet`` over a
Common-Crawl-style ``pages(url, warc_ts, html, text, lang)`` table,
staged ``map_batches`` over zero-copy Arrow batches (task-pool parse
stages; actors only where a stage holds per-actor state), explicit
url-hash partitioning, and resumable
per-partition checkpointed output.

Nothing here calls ``ray.init()`` — sessions are owned by the caller
(bench.py, the test fixture, or the grading driver).
"""

__version__ = "0.1.0"

PAGES_SCHEMA_COLUMNS = ["url", "warc_ts", "html", "text", "lang"]

# Hard cap (bytes) above which a document is not parsed but routed to
# status='skipped_too_large'.  Reference analog: maxSize = 10 MiB,
# Intelligent Document Design/finalcodes/InsuranceCard1.py:23,86-87.
MAX_DOC_BYTES = 10 * 1024 * 1024

# Soft threshold above which a row is considered "heavy" for skew-aware
# batch splitting (processed in its own sub-batch inside the extractor).
HEAVY_DOC_BYTES = 1 * 1024 * 1024


def _mute_empty_block_size_noise() -> None:
    """Drop Ray 2.49's spurious per-empty-block warning.

    ``ray.data._internal.pandas_block`` sizes object/string columns by
    sampling; on a ZERO-row column the sample is empty and
    ``np.vectorize`` refuses size-0 input, so every empty pandas batch
    with a string column logs ``Error calculating size for column …:
    cannot call `vectorize` on size 0 inputs``.  Empty batches are a
    normal, correct output of keyed exchanges and selective filters
    (an empty block's size is trivially ~0 — nothing was lost), so the
    warning is pure noise at fleet scale.  The filter matches BOTH
    substrings, leaving genuine sizing failures visible.  Installing it
    at package import covers workers too: every UDF closure here pulls
    this package in.
    """
    import logging

    class _F(logging.Filter):
        def filter(self, record: logging.LogRecord) -> bool:
            m = record.getMessage()
            return not (
                "Error calculating size for column" in m
                and "size 0 inputs" in m
            )

    logging.getLogger("ray.data._internal.pandas_block").addFilter(_F())

    class _G(logging.Filter):
        def filter(self, record: logging.LogRecord) -> bool:
            # Ray 2.49's schema-dedup fast path hashes pyarrow schemas;
            # schemas carrying dict-valued metadata (e.g. the pandas
            # metadata blob parquet writers attach) are unhashable, so
            # EVERY multi-block read logs "Failed to hash the schemas
            # (for deduplication): unhashable type: 'dict'" and then
            # unifies correctly anyway — the slow path is the designed
            # fallback, nothing is lost.  Pure per-task noise.  (Covers
            # the driver and every UDF-stage worker — those import this
            # package; bare ReadParquet task workers don't, so a few
            # read-side lines can still surface.)
            m = record.getMessage()
            return not (
                "Failed to hash the schemas" in m and "unhashable type" in m
            )

    logging.getLogger(
        "ray.data._internal.arrow_ops.transform_pyarrow"
    ).addFilter(_G())


_mute_empty_block_size_noise()
