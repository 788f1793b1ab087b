"""``ops/hashing`` against DuckDB: the md5 constructions every SQL
oracle replays, on the per-value path and through ``distinct``; and the
SimHash kernel that hashes each distinct token of a batch once."""

import random

import duckdb
import numpy as np
import pandas as pd
import pytest

from valere_ocr_ray.ops.hashing import distinct, md5_lower, md5_upper

# the DSIR gram and mixing id inputs the oracles were first pinned on,
# then the empty string, non-ASCII text, and two strings that differ
# only after a NUL, in one call
VALUES = [
    "hello", "foo bar", "a", "7", "hello",
    "mix:0", "mix:1", "mix:17", "mix:999983",
    "", "héllo ✓", "\u3000 \x1c",
    "x", "x\x00y",
]


@pytest.mark.parametrize("path", ["plain", "distinct"])
@pytest.mark.parametrize(
    "fn,sql",
    [(md5_lower, "md5_number_lower"), (md5_upper, "md5_number_upper")],
    ids=["lower", "upper"],
)
def test_md5_matches_duckdb(fn, sql, path):
    """``md5_lower`` / ``md5_upper`` equal DuckDB's ``md5_number_lower``
    / ``md5_number_upper`` for ``str`` and ``bytes`` input (``bytes``
    are what ``ops/cdc`` hashes), and for no input."""
    want = (
        duckdb.connect()
        .execute(f"SELECT list_transform(?::VARCHAR[], v -> {sql}(v))", [VALUES])
        .fetchone()[0]
    )
    cases = [VALUES, pd.Series(VALUES), [v.encode() for v in VALUES]]
    for values, expect in [(v, want) for v in cases] + [([], [])]:
        if path == "plain":
            got = fn(values)
        else:
            codes, uniques = distinct(values)
            got = fn(uniques)[codes]
        assert got.dtype == np.uint64
        assert got.tolist() == expect


def test_simhash_kernel_equals_scalar_bit_vote():
    """The batch SimHash kernel (each distinct token hashed once, per
    batch) equals a per-text scalar bit vote for both token hashes, on texts with a NUL inside tokens and with U+3000 and U+001C,
    which ``str.split`` treats as whitespace."""
    from valere_ocr_ray.ops.dedup import _simhash, _token_hashes

    rng = random.Random(3)
    alpha = list("abcdefgh ") + ["\x00", "\u3000", "\x1c", "é", "\n"]
    texts = [
        "".join(rng.choice(alpha) for _ in range(rng.randint(0, 60)))
        for _ in range(400)
    ] + ["", "x", "x\x00y x", "x x\x00y"]

    def scalar(text, token_hashes):
        th = token_hashes(text.split())
        if not len(th):
            return 0
        shifts = np.arange(64, dtype=np.uint64)
        bits = ((th[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int64)
        acc = (2 * bits - 1).sum(axis=0)
        return int(((acc > 0).astype(np.uint64) << shifts).sum())

    for token_hashes in (_token_hashes, md5_lower):
        got = _simhash(pd.Series(texts), token_hashes)
        assert got.tolist() == [scalar(t, token_hashes) for t in texts]
