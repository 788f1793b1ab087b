"""Spans around calls into the package's layers, kept in memory.

The spans are recorded from outside the program: around calls to each
layer's public function, and around the driver-side Ray calls.  Inner
functions (the extractor's per-row parsers, ``extract_document``,
``doctypes.classify``, ``glyph_font.ocr_image``, ``hash_exchange``) are
timed by swapping the module attribute for a wrapper for the duration
of a traced pass.

Spans measure CPU time, the unit that survives a change of hardware:
the calling thread's CPU for in-process calls, and the CPU of the whole
Ray session (this driver and every process under it, read from
``/proc``) for driver-side Ray calls.  A layer's self time is its
span's CPU minus its child spans' CPU.
"""

from __future__ import annotations

import collections
import contextlib
import os
import statistics
import threading
import time

import pyarrow as pa


_TICK = os.sysconf("SC_CLK_TCK")


def session_snapshot() -> dict[int, int]:
    """CPU ticks of this process and every live descendant, by pid."""
    children: dict[int, list[int]] = collections.defaultdict(list)
    ticks: dict[int, int] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                data = f.read()
        except OSError:
            continue  # exited while we looked
        rest = data[data.rindex(")") + 2 :].split()
        ticks[int(name)] = sum(int(x) for x in rest[11:15])  # utime..cstime
        children[int(rest[1])].append(int(name))
    out, stack = {}, [os.getpid()]
    while stack:
        pid = stack.pop()
        out[pid] = ticks.get(pid, 0)
        stack.extend(children.get(pid, ()))
    return out


class SessionCpu:
    """CPU seconds of this process and its descendants over a ``with``
    block.  The raylet retires idle workers without reaping them into
    its own cutime, so their CPU would vanish from a plain before/after
    sum; polling keeps each pid's last reading (an idle worker spends
    nothing in the interval before it is retired)."""

    def __init__(self, interval_s: float = 0.25) -> None:
        self.interval_s = interval_s
        self.cpu_s = 0.0

    def __enter__(self) -> "SessionCpu":
        self._first = session_snapshot()
        self._last = dict(self._first)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()
        return self

    def _poll(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._last.update(session_snapshot())

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._last.update(session_snapshot())
        self.cpu_s = sum(
            t - self._first.get(pid, 0) for pid, t in self._last.items()
        ) / _TICK


class Tracer:
    """In-memory span log: (id, name, start, end, cpu_s, parent, run) plus
    attrs.  ``session=True`` spans driver-side Ray calls."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, *, session: bool = False, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        meter = SessionCpu() if session else None
        rec["start"] = time.perf_counter()
        cpu0 = time.thread_time()
        try:
            with meter or contextlib.nullcontext():
                yield rec
        except BaseException:
            rec["failed"] = True
            raise
        finally:
            rec["cpu_s"] = meter.cpu_s if meter else time.thread_time() - cpu0
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Self CPU of every span, indexed like ``spans``."""
        own = [s["cpu_s"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["cpu_s"]
        return own

    @contextlib.contextmanager
    def wrapped(self, module, attr: str, name: str):
        """Record a span around every call of ``module.attr``."""
        real = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return real(*args, **kwargs)

        setattr(module, attr, traced)
        try:
            yield
        finally:
            setattr(module, attr, real)


class Groups:
    """url -> extractor sub-layer, from the generator's sidecar labels."""

    def __init__(self, labels: pa.Table) -> None:
        self.by_url = dict(
            zip(
                labels["url"].to_pylist(),
                zip(labels["row_class"].to_pylist(), labels["codec"].to_pylist()),
            )
        )

    def layer(self, url: str, kind: str) -> tuple[str, str]:
        """(span name, codec) for one row the extractor parses."""
        row_class, codec = self.by_url[url]
        if row_class == "scanned_pdf":
            return f"stages.extractor.pdf_images.{codec}", codec
        if row_class == "raster":
            return f"stages.extractor.glyph_font.{codec}", codec
        if kind == "pdf":
            return "stages.extractor.pdf_text", codec
        if kind == "image":
            return "stages.extractor.glyph_font.other", "other"
        return "stages.extractor.html_text", "-"


class _RowSpans:
    """Per-row spans inside one ``extract_pages_batch`` call.

    The extractor's per-row parsers receive only the payload, so the
    row is found by its bytes: before each block, every row the
    extractor will parse is queued under its payload, in row order.  A
    row's first parser call (``extract_pdf_text``,
    ``extract_main_text_meta`` or the raster OCR seam) takes it off the
    queue; ``ocr_pdf_images``, which follows ``extract_pdf_text`` for a
    scanned PDF, stays on the same row.
    """

    def __init__(self, tracer: Tracer, groups: Groups) -> None:
        self.tracer = tracer
        self.groups = groups
        self.pending: dict[bytes, collections.deque] = {}
        self.row: tuple[str, str] | None = None

    def queue(self, meta: pa.Table) -> None:
        self.pending = {}
        html = meta["html"]
        for j, (url, kind, status) in enumerate(
            zip(
                meta["url"].to_pylist(),
                meta["doc_kind"].to_pylist(),
                meta["status"].to_pylist(),
            )
        ):
            if status == "ok":
                payload = html[j].as_buffer().to_pybytes()
                self.pending.setdefault(payload, collections.deque()).append((url, kind))

    def wrap(self, fn, first: bool):
        def traced(payload, *args, **kwargs):
            q = self.pending.get(payload)
            if first and q:
                self.row = q.popleft()
            url, kind = self.row
            name, codec = self.groups.layer(url, kind)
            with self.tracer.span(name, url=url, kind=kind, codec=codec):
                return fn(payload, *args, **kwargs)

        return traced


def extract_inprocess(
    blocks: list[pa.Table], groups: Groups, tracer: Tracer
) -> list[pa.Table]:
    """docmeta -> extract -> fields in this process, block by block.

    Each of ``docmeta_batch``, ``extract_pages_batch`` and
    ``extract_fields_batch`` runs once per block, as in the Ray job's
    tasks.  Per-row times come from the functions they call per row,
    wrapped for the pass: the extractor's parsers (span named for the
    row's doc_kind and codec, from the sidecar), the OCR kernel,
    ``extract_document`` and ``doctypes.classify``.  Returns one output
    table per input block.
    """
    from valere_ocr_ray.extract import glyph_font
    from valere_ocr_ray.registry import doctypes
    from valere_ocr_ray.stages import extractor
    from valere_ocr_ray.stages.docmeta import docmeta_batch

    rows = _RowSpans(tracer, groups)
    out: list[pa.Table] = []
    with contextlib.ExitStack() as stack:
        for module, attr, name in (
            (extractor, "extract_document", "registry.extract_document"),
            (doctypes, "classify", "registry.classify"),
            (glyph_font, "ocr_image", "stages.extractor.ocr"),
        ):
            stack.enter_context(tracer.wrapped(module, attr, name))
        for module, attr, first in (
            (extractor, "extract_main_text_meta", True),
            (extractor, "extract_pdf_text", True),
            (extractor, "ocr_pdf_images", False),
            (glyph_font, "ocr_image_bytes", True),
        ):
            real = getattr(module, attr)
            stack.callback(setattr, module, attr, real)
            setattr(module, attr, rows.wrap(real, first))
        # the task-pool extractor binds its OCR seams when first built
        extractor._TASK_EXTRACTOR = None
        stack.callback(setattr, extractor, "_TASK_EXTRACTOR", None)
        for block in blocks:
            with tracer.span("stages.docmeta", rows=block.num_rows):
                meta = docmeta_batch(block)
            rows.queue(meta)
            with tracer.span("stages.extractor", rows=meta.num_rows) as sp:
                parsed = extractor.extract_pages_batch(meta)
            entered = [s == "ok" for s in meta["status"].to_pylist()]
            left = [s for s, e in zip(parsed["status"].to_pylist(), entered) if e]
            sp["parsed"] = len(left)
            sp["ok"] = sum(s == "ok" for s in left)
            sp["errors"] = sum(s.startswith("error") for s in left)
            with tracer.span("registry.fields", rows=parsed.num_rows):
                out.append(extractor.extract_fields_batch(parsed))
    return out


@contextlib.contextmanager
def traced_exchanges(tracer: Tracer, records: list[dict]):
    """Time every ``hash_exchange`` call's split+gather apart from the fold.

    The wrapper materializes the exchange's input first (that upstream
    map work stays in the calling op's self time), then times the
    exchange until its output blocks exist and records their count and
    per-partition rows and bytes from block metadata.
    """
    from valere_ocr_ray.ops import exchange, linededup, segdedup

    real = exchange.hash_exchange

    def traced(ds, keys, num_partitions=None):
        ds = ds.materialize()
        with tracer.span("ops.exchange", session=True, keys=list(keys)) as sp:
            out = real(ds, keys, num_partitions).materialize()
        metas = [
            meta
            for bundle in out.iter_internal_ref_bundles()
            for _, meta in bundle.blocks
        ]
        rows = [m.num_rows or 0 for m in metas]
        nbytes = [m.size_bytes or 0 for m in metas]
        records.append(
            {
                "keys": list(keys),
                "width": len(metas),
                "part_rows": rows,
                "part_bytes": nbytes,
                "split_gather_s": sp["end"] - sp["start"],
                "split_gather_cpu_s": sp["cpu_s"],
            }
        )
        return out

    mods = (exchange, linededup, segdedup)
    saved = [m.hash_exchange for m in mods]
    for m in mods:
        m.hash_exchange = traced
    try:
        yield
    finally:
        for m, s in zip(mods, saved):
            m.hash_exchange = s


def layer_totals(tracer: Tracer) -> dict[str, dict]:
    """name -> {count, rows, self_s, failures} over all spans of that name
    (``rows``: the rows the per-block spans were given)."""
    own = tracer.self_times()
    totals: dict[str, dict] = {}
    for s, t in zip(tracer.spans, own):
        rec = totals.setdefault(
            s["name"], {"count": 0, "rows": 0, "self_s": 0.0, "failures": 0}
        )
        rec["count"] += 1
        rec["rows"] += s.get("rows", 0)
        rec["self_s"] += t
        rec["failures"] += int(bool(s.get("failed")))
    return totals


def row_times(tracer: Tracer) -> dict[str, dict]:
    """url -> {name, kind, codec, cpu_s} over the per-row extractor spans
    (a scanned PDF has two: the text pass and the image pass)."""
    acc: dict[str, dict] = {}
    for s in tracer.spans:
        if "url" in s and s["name"].startswith("stages.extractor."):
            rec = acc.setdefault(
                s["url"],
                {"name": s["name"], "kind": s["kind"], "codec": s["codec"], "cpu_s": 0.0},
            )
            rec["cpu_s"] += s["cpu_s"]
    return acc


def slowest(
    rows: dict[str, dict], status: dict[str, str], n: int = 10
) -> dict[str, list[dict]]:
    """Slowest ``n`` parsed rows per doc_kind and codec (CPU)."""
    groups: dict[str, list[dict]] = {}
    for url, r in rows.items():
        groups.setdefault(f"{r['kind']}/{r['codec']}", []).append(
            {"url": url, "ms": round(r["cpu_s"] * 1e3, 3), "status": status.get(url)}
        )
    return {
        k: sorted(v, key=lambda r: -r["ms"])[:n] for k, v in sorted(groups.items())
    }


def exchange_summary(records: list[dict]) -> dict[str, float]:
    parts = [b for r in records for b in r["part_bytes"]]
    rows = [x for r in records for x in r["part_rows"]]
    if not records:
        return {}
    skews = [
        max(r["part_bytes"]) / max(statistics.median(r["part_bytes"]), 1)
        for r in records
        if r["part_bytes"]
    ]
    return {
        "width": max(r["width"] for r in records),
        "part_rows_max": max(rows),
        "part_rows_median": statistics.median(rows),
        "part_bytes_max": max(parts),
        "part_bytes_median": statistics.median(parts),
        "skew": max(skews),
    }
