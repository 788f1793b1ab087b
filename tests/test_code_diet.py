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
