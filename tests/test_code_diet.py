"""The code diet, pinned: every top-level def under ``valere_ocr_ray/``
is referenced from outside ``tests/``, or is on the allowlist below
with the reason it stays.  A new twin that only tests call fails here
instead of waiting for the next dead-code sweep."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PKG = ROOT / "valere_ocr_ray"

# top-level defs that no module outside tests/ references, and why each
# stays; keys are "<path under valere_ocr_ray/>:<name>"
ALLOWED = {
    # SURVEY §8 rows that no production path calls
    "ops/urlmeta.py:url_date": "SURVEY F14 filename-date projection",
    "ops/urlmeta.py:split_member_name": "SURVEY §2.7 archive-member name split",
    "ops/urlmeta.py:tail_lines": "SURVEY F13/O3 tail window",
    "registry/extractors.py:extract_contacts": "SURVEY F10 generic contact battery",
    "sources/files.py:read_file_dir": "SURVEY S1'' raw-file source",
    "sources/files.py:read_file_metadata": "SURVEY J2/J3 object-metadata table",
    "sources/files.py:object_key_by_etag": "SURVEY J2 content-hash lookup",
    "sources/files.py:object_key_by_tag_value": "SURVEY J3 object-tag lookup",
    "sources/files.py:_first_key_where": "the scan both J2/J3 lookups share",
    "sources/warc.py:read_warc": "SURVEY S1' WARC source",
    "ops/invindex.py:build_postings": "SURVEY §8 inverted index: capped postings",
    "ops/multimodal.py:sample_gif_frames": "SURVEY §8 seam: GIF video frame sampling",
    "extract/gif.py:decode_gif_frames": "the GIF frame composition sample_gif_frames runs",
    "registry/plugins.py:registered": "SURVEY §2.11 extension surface: list plugins",
    # references and fixture encoders that tests compare against
    "ops/dedup.py:connected_components": "union-find oracle of cluster_labels",
    "sources/warc.py:write_warc": "WARC fixture writer",
    "extract/jbig2.py:_encode_generic_template": "JBIG2 generic-region fixture encoder",
    "extract/ccitt.py:encode_g3_1d": "CCITT G3 fixture encoder",
    "extract/jpeg.py:encode_jpeg_progressive": "progressive JPEG fixture encoder",
    "extract/jpeg.py:_quant_grid": "encode_jpeg_progressive's quantizer",
    "ops/sketch.py:hll_estimate": "the HLL's only estimator, accuracy-tested",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node: ast.AST) -> set[str]:
    """Names ``node`` refers to: loads, attributes and imports (string
    constants, so docstrings, do not count)."""
    out: set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            out.update(a.name.split(".")[-1] for a in n.names)
    return out


def _unreferenced(root: pathlib.Path = ROOT, pkg: str = PKG.name) -> set[str]:
    """Top-level defs under ``root/pkg`` that no live site names, where
    a site is a top-level def's body or a module's other statements,
    over every ``.py`` under ``root`` outside ``tests/``.  A def that
    only dead code names is dead too: the walk repeats until nothing
    changes."""
    sites: dict[tuple[str, str | None], set[str]] = {}
    defs: set[tuple[str, str]] = set()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        if rel.parts[0] == "tests" or any(p.startswith(".") for p in rel.parts):
            continue
        in_pkg = rel.parts[0] == pkg
        key = rel.relative_to(pkg).as_posix() if in_pkg else rel.as_posix()
        rest: set[str] = set()
        for stmt in ast.parse(path.read_text()).body:
            if in_pkg and isinstance(stmt, _DEFS):
                defs.add((key, stmt.name))
                sites[(key, stmt.name)] = _names(stmt)
            else:
                rest |= _names(stmt)
        sites[(key, None)] = rest
    dead: set[tuple[str, str]] = set()
    while True:
        new = {
            d
            for d in defs - dead
            if not any(
                d[1] in names
                for site, names in sites.items()
                if site != d and site not in dead
            )
        }
        if not new:
            return {f"{m}:{n}" for m, n in dead}
        dead |= new


def test_unreferenced_defs_are_allowlisted():
    found = _unreferenced()
    assert found - ALLOWED.keys() == set(), "defs only tests call: delete them"
    assert ALLOWED.keys() - found == set(), "allowlisted defs now in use: unlist"


def test_walk_follows_dead_chains(tmp_path):
    """The walk on a toy repo: a def only a dead def calls is dead, a
    docstring mention or a test's call keeps nothing alive, and a tool's
    call (or the def's own recursion, which does not count) decides."""
    (tmp_path / "pkg").mkdir()
    (tmp_path / "tools").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(
        "def dead_root():\n"
        "    return dead_leaf()\n\n\n"
        "def dead_leaf():\n"
        "    return 1\n\n\n"
        "def recursive():\n"
        "    return recursive()\n\n\n"
        "def used():\n"
        "    return helper()\n\n\n"
        "def helper():\n"
        "    return 2\n"
    )
    (tmp_path / "pkg" / "b.py").write_text('"""Names dead_root and recursive."""\n')
    (tmp_path / "tools" / "run.py").write_text("from pkg.a import used\n\nused()\n")
    (tmp_path / "tests" / "test_a.py").write_text("from pkg.a import dead_root\n")
    assert _unreferenced(tmp_path, "pkg") == {
        "a.py:dead_root",
        "a.py:dead_leaf",
        "a.py:recursive",
    }


_SPLITMIX = 0xBF58476D1CE4E5B9


def _hash_copies(root: pathlib.Path = ROOT, pkg: str = PKG.name) -> set[str]:
    """``path:line`` of each hash written out again outside
    ``ops/hashing.py``: an ``int.from_bytes`` over an md5 digest (or over
    a name bound to one) in a module under ``ops/`` or ``pipelines/``,
    and the splitmix64 multiplier in any module outside ``tests/``."""
    found: set[str] = set()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        if rel.parts[0] == "tests" or any(p.startswith(".") for p in rel.parts):
            continue
        if rel.as_posix() == f"{pkg}/ops/hashing.py":
            continue
        tree = ast.parse(path.read_text())
        digests = {
            t.id
            for n in ast.walk(tree)
            if isinstance(n, ast.Assign) and "digest" in _names(n.value)
            for t in n.targets
            if isinstance(t, ast.Name)
        }
        scoped = rel.parts[0] == pkg and rel.parts[1] in ("ops", "pipelines")
        for n in ast.walk(tree):
            if (
                scoped
                and isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute)
                and n.func.attr == "from_bytes"
                and n.args
                and _names(n.args[0]) & (digests | {"digest"})
            ) or (isinstance(n, ast.Constant) and n.value == _SPLITMIX):
                found.add(f"{rel.as_posix()}:{n.lineno}")
    return found


def test_hashes_live_in_one_module():
    assert _hash_copies() == set(), "use valere_ocr_ray/ops/hashing.py"


def test_hash_copy_check_fires(tmp_path):
    """The check on a toy repo: a digest read directly or through a
    name, and the splitmix64 multiplier, are found; ``ops/hashing.py``
    itself, a module outside ``ops/`` and ``pipelines/`` reading a
    digest, and ``int.from_bytes`` over other bytes are not."""
    ops = tmp_path / "pkg" / "ops"
    ops.mkdir(parents=True)
    (tmp_path / "pkg" / "stages").mkdir()
    digest_read = (
        "import hashlib\n"
        "d = hashlib.md5(b'x').digest()\n"
        "a = int.from_bytes(d[:4], 'little')\n"
        "b = int.from_bytes(hashlib.md5(b'y').digest()[8:], 'little')\n"
    )
    (ops / "a.py").write_text(digest_read + f"M = {_SPLITMIX:#x}\n")
    (ops / "hashing.py").write_text(digest_read + f"M = {_SPLITMIX:#x}\n")
    (tmp_path / "pkg" / "stages" / "s.py").write_text(digest_read)
    (ops / "n.py").write_text("n = int.from_bytes(b'\\x01', 'big')\n")
    assert _hash_copies(tmp_path, "pkg") == {
        "pkg/ops/a.py:3",
        "pkg/ops/a.py:4",
        "pkg/ops/a.py:5",
    }


# defs outside ops/exchange.py that may take a ``*_partitions`` value,
# and why: a layout at rest that the caller chooses, not an exchange width
WIDTH_ALLOWED = {
    "ops/ranged.py:write_ranged": "range partitions at rest (`__range=<i>` dirs)",
}


def _width_params(root: pathlib.Path = ROOT, pkg: str = PKG.name) -> set[str]:
    """``path:def`` of every def under ``root/pkg`` outside
    ``ops/exchange.py`` with a ``*_partitions`` parameter: the exchange
    derives its own width, and a fixed layout goes straight to
    ``partition_map``, ``grouped_map`` or ``cogroup_exchange``."""
    found: set[str] = set()
    for path in sorted((root / pkg).rglob("*.py")):
        rel = path.relative_to(root / pkg).as_posix()
        if rel == "ops/exchange.py":
            continue
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = n.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs]
                if any(p.arg.endswith("_partitions") for p in params):
                    found.add(f"{rel}:{n.name}")
    return found


def test_exchange_width_is_not_a_parameter():
    assert _width_params() == WIDTH_ALLOWED.keys(), "let the exchange pick its width"


def test_width_param_check_fires(tmp_path):
    """The check on a toy repo: a top-level def, a keyword-only and a
    nested def's ``*_partitions`` parameter are found; ``ops/exchange.py``,
    a call that passes ``num_partitions=`` and other names are not."""
    ops = tmp_path / "pkg" / "ops"
    ops.mkdir(parents=True)
    (ops / "a.py").write_text(
        "def f(ds, num_partitions=None):\n    return ds\n\n\n"
        "def g(ds, *, num_label_partitions=None):\n"
        "    def h(n_partitions):\n        return n_partitions\n"
        "    return h(2)\n\n\n"
        "def ok(ds, n_shards=8):\n    return grouped_map(ds, num_partitions=n_shards)\n"
    )
    (ops / "exchange.py").write_text("def grouped_map(ds, num_partitions=None):\n    return ds\n")
    assert _width_params(tmp_path, "pkg") == {"ops/a.py:f", "ops/a.py:g", "ops/a.py:h"}


# defaulted parameters that no call outside tests/ sets to another
# value, and why each stays; keys are "<path under valere_ocr_ray/>:<def>.<param>"
DEFAULTS_ALLOWED = {
    # perfbench/ passes these (with their default values): its calls must keep running
    "ops/dedup.py:exact_dedup.text_col": "perfbench/driver.py passes it",
    "ops/dedup.py:exact_dedup.id_col": "perfbench/driver.py passes it",
    "ops/segdedup.py:segment_dedup_stats.id_col": "perfbench/driver.py passes it",
    "ops/segdedup.py:segment_dedup_stats.text_col": "perfbench/driver.py passes it",
    "ops/exchange.py:hash_exchange.num_partitions": (
        "perfbench/layers.traced_exchanges forwards it positionally; "
        "test_exchange.py fixes widths with it"
    ),
    # values only tests set
    "ops/bloom.py:bloom_semi_join.anti": "test_bloom_semi_join_exact_despite_false_positives",
    "ops/bloom.py:bloom_semi_join.num_bits": "test_bloom_semi_join_exact_despite_false_positives",
    "ops/bpe.py:bpe_token_counts.emit_tokens": "test_emit_tokens_roundtrip",
    "ops/bpe.py:train_bpe.sample_rate": "test_sample_rate_trains_on_subset",
    "ops/dedup.py:embedding_semdedup.threshold": "test_embedding_semdedup_survivors",
    "ops/dedup.py:shared_ngram_spans.emit_text": "test_shared_ngram_spans_planted",
    "ops/dsir.py:dsir_weights.k": "test_dsir_weights_match_local_numpy_and_partitioning",
    "ops/heavyhitters.py:heavy_hitters.k": "test_heavy_hitters_rejects_unsound_denom",
    "ops/heavyhitters.py:heavy_hitters.denom": "test_heavy_hitters_rejects_unsound_denom",
    "ops/incremental.py:lsh_dedup_against_state.id_col": "test_lsh_dedup_against_state",
    "ops/incremental.py:lsh_dedup_against_state.text_col": "test_lsh_dedup_against_state",
    "ops/incremental.py:lsh_dedup_against_state.num_perm": "test_lsh_dedup_against_state",
    "ops/mixing.py:mix_unimax.budget_tokens": "test_mix_unimax_epoch_repeats",
    "ops/multimodal.py:extract_media_features.concurrency": "test_media_features_deterministic",
    "ops/packing.py:pack_stats.budget": "test_pack_sequences_semantics",
    "ops/packing.py:pack_stats.n_shards": "test_pack_sequences_semantics",
    "ops/segdedup.py:segment_dedup_stats.exact": "test_segment_dedup_planted",
    "ops/similarity.py:ivfpq_build.sample_size": "test_ivfpq_coarse_sample_bounded_on_driver",
    "ops/similarity.py:kmeans_fit.iters": "test_kmeans_fit_matches_local_reference",
    "ops/sketch.py:column_quantiles_sketch.q": "test_quantile_sketch_accuracy",
    "ops/sketch.py:distinct_tokens_kmv.k": "test_kmv_sketch_exact_below_k_and_bounded_above",
    "ops/textclf.py:fit_text_classifier.dim": "test_text_classifier_learns_and_is_partition_invariant",
    "ops/textstats.py:tfidf_top_terms.k": "test_tfidf_top_terms_hand_computed",
    "pipelines/curate.py:build_training_shards.min_tokens": "test_build_training_shards_all_filtered",
    "pipelines/db_sink.py:write_class_tables.key_col": "test_db_sink_rejects_unsafe_column_names",
    "pipelines/db_sink.py:write_class_tables.json_col": "test_db_sink_rejects_unsafe_column_names",
    "pipelines/db_sink.py:write_class_tables.conf_col": "test_db_sink_rejects_unsafe_column_names",
    "pipelines/extract.py:run_resumable.max_doc_bytes": "test_size_cap_routes_not_drops",
}

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _literal(node: ast.AST) -> object:
    """``node``'s value when it is a literal, else its AST dump, so two
    spellings of one expression compare equal."""
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError):
        return ast.dump(node)


def _call_args(call: ast.Call) -> tuple[str | None, list[ast.expr], list[ast.keyword]]:
    """(called name, positional args, keywords); ``functools.partial(f,
    ...)`` counts as a call to ``f``."""
    f, args = call.func, call.args
    if (
        isinstance(f, ast.Attribute)
        and f.attr == "partial"
        and _names(f.value) == {"functools"}
        and args
    ):
        f, args = args[0], args[1:]
    if isinstance(f, ast.Name):
        return f.id, args, call.keywords
    return getattr(f, "attr", None), args, call.keywords


def _unpassed_defaults(
    root: pathlib.Path = ROOT, pkg: str = PKG.name, allowed=DEFAULTS_ALLOWED.keys()
) -> set[str]:
    """``path:def.param`` of each defaulted parameter of a public
    top-level def under ``root/pkg`` (outside ``extract/`` and the defs
    ``ALLOWED`` keeps) that no call outside ``tests/`` passes a value
    other than the default.  A call forwarding a parameter of its own
    enclosing def passes only when that parameter is passed itself, so
    the walk repeats until nothing changes.  ``allowed`` counts as
    passed."""
    # "<path>:<def>" -> {param: (positional index or None, default)}
    defaults: dict[str, dict[str, tuple[int | None, object]]] = {}
    for path in sorted((root / pkg).rglob("*.py")):
        rel = path.relative_to(root / pkg).as_posix()
        if rel.startswith("extract/"):
            continue
        for st in ast.parse(path.read_text()).body:
            if not isinstance(st, _FUNCS) or st.name.startswith("_"):
                continue
            d = f"{rel}:{st.name}"
            if d in ALLOWED:
                continue
            a = st.args
            pos = [*a.posonlyargs, *a.args]
            first = len(pos) - len(a.defaults)
            defaults[d] = {
                p.arg: (first + i, _literal(v))
                for i, (p, v) in enumerate(zip(pos[first:], a.defaults))
            } | {
                p.arg: (None, _literal(v))
                for p, v in zip(a.kwonlyargs, a.kw_defaults)
                if v is not None
            }
    by_name: dict[str, list[str]] = {}
    for d in defaults:
        by_name.setdefault(d.split(":")[1], []).append(d)
    # (enclosing top-level def, "<path>:<def>.<param>", value; None for a spread)
    passes = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        if rel.parts[0] == "tests" or any(p.startswith(".") for p in rel.parts):
            continue
        mod = rel.relative_to(pkg).as_posix() if rel.parts[0] == pkg else rel.as_posix()
        for st in ast.parse(path.read_text()).body:
            owner = f"{mod}:{st.name}" if isinstance(st, _FUNCS) else None
            for n in ast.walk(st):
                if not isinstance(n, ast.Call):
                    continue
                name, args, kws = _call_args(n)
                given = {k.arg: k.value for k in kws if k.arg}
                spread_kw = len(given) < len(kws)
                star = next((i for i, v in enumerate(args) if isinstance(v, ast.Starred)), None)
                for d in by_name.get(name, ()):
                    for p, (i, default) in defaults[d].items():
                        if spread_kw or (star is not None and i is not None and i >= star):
                            value = None
                        elif p in given:
                            value = given[p]
                        elif i is not None and i < len(args):
                            value = args[i]
                        else:
                            continue
                        if value is None or _literal(value) != default:
                            passes.append((owner, f"{d}.{p}", value))
    params = {f"{d}.{p}" for d, ps in defaults.items() for p in ps}
    passed = params & set(allowed)
    while True:
        unpassed = params - passed
        new = {
            target
            for owner, target, value in passes
            if target in unpassed
            and not (isinstance(value, ast.Name) and f"{owner}.{value.id}" in unpassed)
        }
        if not new:
            return unpassed
        passed |= new


def test_every_default_is_passed():
    assert _unpassed_defaults() == set(), "a value no caller sets: make it a constant"
    stale = DEFAULTS_ALLOWED.keys() - _unpassed_defaults(allowed=())
    assert stale == set(), "allowlisted parameters a caller now sets: unlist"


def test_default_param_check_fires(tmp_path):
    """The check on a toy repo: a parameter passed only with its
    default, positionally or by keyword, or only by a test, is found,
    as is one a caller forwards from an unpassed parameter of its own;
    a non-default value, a ``**`` spread and ``extract/`` are not, and
    an allowlisted parameter keeps what it forwards alive."""
    (tmp_path / "pkg" / "extract").mkdir(parents=True)
    (tmp_path / "tools").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(
        "def f(x, n=3, *, col='text', flag=False, used=1):\n"
        "    return g(x, n=n)\n\n\n"
        "def g(x, n=3):\n    return x\n\n\n"
        "def h(x, k=2):\n    return x\n\n\n"
        "def _private(x, k=2):\n    return x\n"
    )
    (tmp_path / "pkg" / "extract" / "e.py").write_text("def codec(x, q=1):\n    return x\n")
    (tmp_path / "tools" / "run.py").write_text(
        "from pkg.a import f, h\n\nf(1, 3, col='text', used=2)\nh(1, **{'k': 5})\n"
    )
    (tmp_path / "tests" / "test_a.py").write_text("from pkg.a import f\n\nf(1, flag=True)\n")
    found = {"a.py:f.n", "a.py:f.col", "a.py:f.flag", "a.py:g.n"}
    assert _unpassed_defaults(tmp_path, "pkg", allowed=()) == found
    kept = _unpassed_defaults(tmp_path, "pkg", allowed={"a.py:f.n"})
    assert kept == found - {"a.py:f.n", "a.py:g.n"}
