"""Custom hash exchange (ops/exchange.py): key co-location, exactness
vs pandas, determinism across partition counts."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd
from conftest import exchange_width

from valere_ocr_ray.ops.exchange import grouped_map, grouped_sum, hash_exchange


@pytest.fixture()
def keyed_df():
    n = 30000
    return pd.DataFrame(
        {
            "k": (np.arange(n) * 2654435761) % 4000,
            "s": [f"g{(i * 7) % 11}" for i in range(n)],
            "v": np.arange(n, dtype="int64") % 1000,
        }
    )


def test_exchange_colocates_keys(ray_session, keyed_df):
    ds = rd.from_pandas(keyed_df).repartition(9)
    ex = hash_exchange(ds, ["k"], 8)
    seen = {}
    for i, ref in enumerate(ex.to_arrow_refs()):
        import ray as _ray

        t = _ray.get(ref)
        for k in set(t["k"].to_pylist()):
            assert k not in seen, f"key {k} in partitions {seen[k]} and {i}"
            seen[k] = i
    assert len(seen) == keyed_df["k"].nunique()
    # nothing lost
    assert ex.count() == len(keyed_df)


def test_grouped_sum_exact(ray_session, keyed_df):
    ds = rd.from_pandas(keyed_df).repartition(7)
    with exchange_width(8):
        got = grouped_sum(ds, ["k"], ["v"]).to_pandas()
    got = got.sort_values("k").reset_index(drop=True)
    want = (
        keyed_df.groupby("k", as_index=False)[["v"]]
        .sum()
        .sort_values("k")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_grouped_sum_string_keys(ray_session, keyed_df):
    ds = rd.from_pandas(keyed_df).repartition(5)
    with exchange_width(4):
        got = grouped_sum(ds, ["s"], ["v"]).to_pandas()
    got = got.sort_values("s").reset_index(drop=True)
    want = (
        keyed_df.groupby("s", as_index=False)[["v"]]
        .sum()
        .sort_values("s")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_grouped_map_semantics_and_partition_invariance(ray_session, keyed_df):
    def top2(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["v", "s"], ascending=[False, True]).head(2)[
            ["k", "s", "v"]
        ]

    ds = rd.from_pandas(keyed_df).repartition(6)
    a = (
        grouped_map(ds, ["k"], top2, num_partitions=8)
        .to_pandas()
        .sort_values(["k", "s", "v"])
        .reset_index(drop=True)
    )
    b = (
        grouped_map(ds, ["k"], top2, num_partitions=3)
        .to_pandas()
        .sort_values(["k", "s", "v"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)
    want = (
        keyed_df.groupby("k", group_keys=False)
        .apply(top2)
        .sort_values(["k", "s", "v"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, want, check_dtype=False)


def test_single_partition_path(ray_session, keyed_df):
    ds = rd.from_pandas(keyed_df.head(100)).repartition(3)
    with exchange_width(1):
        got = grouped_sum(ds, ["k"], ["v"]).to_pandas()
    want = keyed_df.head(100).groupby("k", as_index=False)[["v"]].sum()
    assert got.sort_values("k")["v"].tolist() == want.sort_values("k")["v"].tolist()


def test_grouped_sum_fuzz_matches_pandas(ray_session):
    """Property fuzz: grouped_sum == pandas groupby-sum for arbitrary
    int/string keys (negatives, unicode, empty) and partition counts."""
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    @settings(max_examples=20, deadline=None)
    # the split places string keys by their NUL prefix, so '' and '\x00'
    # meet in one partition; the fold must still keep them apart
    @example(keys=["", "\x00"], nparts=2, nblocks=2)
    @given(
        keys=st.lists(
            st.one_of(
                st.integers(min_value=-(2**62), max_value=2**62),
                st.text(min_size=0, max_size=6),
            ),
            min_size=0,
            max_size=200,
        ),
        nparts=st.integers(min_value=1, max_value=5),
        nblocks=st.integers(min_value=1, max_value=4),
    )
    def check(keys, nparts, nblocks):
        # homogeneous key dtype per draw (mixed int/str columns are not
        # a supported Arrow schema)
        keys = [str(k) for k in keys] if any(isinstance(k, str) for k in keys) else keys
        df = pd.DataFrame({"k": pd.Series(keys), "v": np.arange(len(keys), dtype="int64")})
        if df.empty:
            return
        ds = rd.from_pandas(df).repartition(nblocks)
        with exchange_width(nparts):
            got = grouped_sum(ds, ["k"], ["v"]).to_pandas()
        got = got.sort_values("k").reset_index(drop=True)
        # the oracle groups whole strings: pandas' object-string groupby
        # ends a key at its first NUL, Arrow-backed strings do not
        whole = df.astype({"k": "string[pyarrow]"}) if df["k"].dtype == object else df
        want = (
            whole.groupby("k", as_index=False)[["v"]]
            .sum()
            .astype({"k": df["k"].dtype})
            .sort_values("k")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    check()


def test_grouped_agg_nul_string_keys_match_duckdb(ray_session):
    """String keys that differ only after a NUL are distinct groups, as
    in DuckDB's ``GROUP BY``, also when the split places them in one
    partition and they arrive in different blocks; a null key drops
    out.  pandas' object-string groupby, the fold's engine, ends a key
    at its first NUL: over 'x', 'x\\x00y', 'x\\x00z' (1, 2, 4) it
    returned the one group ``['x', 7]``."""
    import duckdb
    import pyarrow as pa

    from valere_ocr_ray.ops.exchange import grouped_agg

    rows = [
        ("x", 1, 1), ("x\x00y", 2, 1), ("x\x00z", 4, 2), (None, 8, 2),
        ("", 16, 1), ("\x00", 32, 1), ("x\x00y", 64, 2),
    ]
    blocks = [
        pa.table({"k": pa.array([k], pa.string()), "j": [j], "v": [v]})
        for k, v, j in rows
    ]
    every = pa.concat_tables(blocks)
    aggs = {"v": "sum", "j": "max"}
    for keys, groups in ((["k"], 5), (["k", "j"], 6)):
        with exchange_width(2):
            got = grouped_agg(rd.from_arrow(blocks), keys, aggs).to_pandas()
        cols = ", ".join(keys)
        sel = ", ".join(f"{how}({c}) AS {c}" for c, how in aggs.items() if c not in keys)
        sql = f"SELECT {cols}, {sel} FROM every WHERE k IS NOT NULL GROUP BY {cols}"
        want = duckdb.connect().execute(sql).arrow().to_pandas()
        order = [*keys, *(c for c in aggs if c not in keys)]
        assert len(got) == len(want) == groups, keys
        assert sorted(got[order].itertuples(index=False)) == sorted(
            want[order].itertuples(index=False)
        ), keys


def test_exchange_tolerates_schema_drift(ray_session):
    """One block whose pandas-inferred dtype diverges (all-null string
    column -> Arrow null type; int -> float) must not fail the gather:
    parts are cast to the canonical probed schema."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from valere_ocr_ray.ops.exchange import hash_exchange

    good = pd.DataFrame({"k": [1, 2, 3], "v": [1, 2, 3], "s": ["a", "b", "c"]})
    drifted = pd.DataFrame(
        {"k": [4, 5], "v": np.array([4.0, 5.0]), "s": pd.Series([None, None])}
    )
    ds = rd.from_pandas([good, drifted])
    out = hash_exchange(ds, ["k"], 4).to_pandas()
    assert len(out) == 5
    assert sorted(out["k"].tolist()) == [1, 2, 3, 4, 5]


def test_exchange_property_random_frames(ray_session):
    """Property check: for randomized frames (skewed keys, negatives,
    empty groups, many partitions), grouped_sum / grouped_agg (min, and
    a mixed sum/min/max mapping) over the exchange equal a plain pandas
    groupby, hash_exchange partitions every key into exactly one
    block, partition_map equals hash_exchange + map_batches, and a
    co-group over a pre-partitioned side equals the re-split one."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from valere_ocr_ray.ops.exchange import (
        cogroup_exchange,
        grouped_agg,
        grouped_sum,
        hash_exchange,
        partition_map,
    )

    def fold(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            raise AssertionError("fold called on an empty partition")
        return b.groupby("k", as_index=False).agg(v=("v", "max"), n=("w", "size"))

    rng = np.random.default_rng(1234)
    for trial in range(5):
        n = int(rng.integers(1, 2000))
        nkeys = int(rng.integers(1, 200))
        df = pd.DataFrame(
            {
                "k": rng.integers(-nkeys, nkeys, n).astype("int64"),
                "v": rng.integers(-10**9, 10**9, n).astype("int64"),
                "w": rng.integers(0, 100, n).astype("int64"),
            }
        )
        nblocks = int(rng.integers(1, 9))
        npart = int(rng.integers(2, 17))
        parts = np.array_split(df, nblocks)
        ds = rd.from_pandas([p.reset_index(drop=True) for p in parts])

        want = df.groupby("k", as_index=False)[["v", "w"]].sum()
        with exchange_width(npart):
            got = grouped_sum(ds, ["k"], ["v", "w"]).to_pandas()
        got = got.sort_values("k").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got, want.sort_values("k").reset_index(drop=True), obj=f"sum t{trial}"
        )

        want_min = df.groupby("k", as_index=False)[["v"]].min()
        with exchange_width(npart):
            got_min = grouped_agg(ds.select_columns(["k", "v"]), ["k"], {"v": "min"})
            got_min = got_min.to_pandas().sort_values("k").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got_min, want_min.sort_values("k").reset_index(drop=True),
            obj=f"min t{trial}",
        )

        # one fold per column: mixed sum/min/max in a single aggregate
        mixed = {"v": "min", "w": "max", "u": "sum"}
        want_mixed = df.assign(u=df["v"] // 7).groupby("k", as_index=False).agg(mixed)
        with_u = ds.map_batches(lambda b: b.assign(u=b["v"] // 7), batch_format="pandas")
        with exchange_width(npart):
            got_mixed = grouped_agg(with_u, ["k"], mixed).to_pandas()
        got_mixed = got_mixed.sort_values("k").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got_mixed, want_mixed.sort_values("k").reset_index(drop=True),
            obj=f"mixed t{trial}",
        )

        # a caller-side per-block pre-fold adds nothing: the aggregate's
        # own first fold already sees each block, so the pre-folded
        # input gives the same frame as the raw rows, int64 dtypes too
        prefolded = with_u.map_batches(
            lambda b: b.groupby("k", as_index=False).agg(mixed), batch_format="pandas"
        )
        with exchange_width(npart):
            got_pre = grouped_agg(prefolded, ["k"], mixed).to_pandas()
        got_pre = got_pre.sort_values("k").reset_index(drop=True)
        pd.testing.assert_frame_equal(got_pre, got_mixed, obj=f"prefold t{trial}")

        # every key lives in exactly ONE exchange block
        ex_blocks = [
            b.to_pandas()
            for b in hash_exchange(ds, ["k"], npart).iter_batches(
                batch_size=None, batch_format="pyarrow"
            )
        ]
        seen = {}
        for bi, b in enumerate(ex_blocks):
            for key in b["k"].unique():
                assert seen.setdefault(int(key), bi) == bi
        assert sum(len(b) for b in ex_blocks) == n

        # the fused fold equals the exchange followed by a whole-block map
        def by_key(out):
            return out.to_pandas().sort_values("k").reset_index(drop=True)

        old = hash_exchange(ds, ["k"], npart).map_batches(
            fold, batch_format="pandas", batch_size=None
        )
        pd.testing.assert_frame_equal(
            by_key(partition_map(ds, ["k"], fold, num_partitions=npart)),
            by_key(old),
            obj=f"partition_map t{trial}",
        )

        # a pre-partitioned side: hash_exchange's output refs, passed as
        # (refs, None), co-group exactly as the side they were split from
        def join(a: pd.DataFrame, b: pd.DataFrame) -> pd.DataFrame:
            return a.merge(b.rename(columns={"v": "v2", "w": "w2"}), on="k")

        refs = hash_exchange(ds, ["k"], npart).to_arrow_refs()
        pd.testing.assert_frame_equal(
            cogroup_exchange(ds, refs, ["k"], None, join).to_pandas()
            .sort_values(["k", "v", "v2"]).reset_index(drop=True),
            cogroup_exchange(ds, ds, ["k"], ["k"], join, num_partitions=npart)
            .to_pandas().sort_values(["k", "v", "v2"]).reset_index(drop=True),
            obj=f"pre-partitioned co-group t{trial}",
        )

    # dtype-strict: int32, bool, float32 and null-bearing int value
    # columns under each fold equal the pandas fold's Arrow output
    # (Arrow widens int32/float32 sums, sums bools to uint64 and sums an
    # all-null group to null; pandas keeps int32/float32, gives int64
    # and 0.0)
    import pyarrow as pa
    import ray

    n = 1500
    nulls = rng.random(n) < 0.6
    typed = pa.table(
        {
            "k": pa.array(rng.integers(0, 300, n), pa.int64()),
            "i32": pa.array(rng.integers(-1000, 1000, n), pa.int32()),
            "b": pa.array(rng.random(n) < 0.5),
            "f32": pa.array(rng.integers(-400, 400, n) / 8, pa.float32()),
            "ni": pa.array(rng.integers(-1000, 1000, n), pa.int64(), mask=nulls),
        }
    )
    ds = rd.from_arrow([typed.slice(i, 250) for i in range(0, n, 250)])
    for how in ("sum", "min", "max"):
        aggs = {c: how for c in ("i32", "b", "f32", "ni")}
        want = pa.Table.from_pandas(
            typed.to_pandas().groupby(["k"], as_index=False).agg(aggs),
            preserve_index=False,
        )
        with exchange_width(5):
            refs = grouped_agg(ds, ["k"], aggs).to_arrow_refs()
        got = pa.concat_tables(ray.get(refs))
        assert got.schema.remove_metadata() == want.schema.remove_metadata(), how
        pd.testing.assert_frame_equal(
            got.to_pandas().sort_values("k").reset_index(drop=True),
            want.to_pandas(),
            obj=f"typed {how}",
        )

    # a filter that drops every row leaves column-less empty blocks: the
    # folds pass such empty partitions through, as map_batches does
    dropped = rd.from_arrow(typed).filter(lambda r: False)
    assert grouped_agg(dropped, ["k"], {"i32": "sum"}).count() == 0
    assert grouped_map(dropped, ["k"], lambda g: g.head(1)).count() == 0
    assert partition_map(dropped, ["k"], fold).count() == 0


def test_cogroup_exchange_matches_outer_merge(ray_session):
    """Property: ``cogroup_exchange`` with a per-partition fn that
    counts and sums each side per key == a pandas outer merge of the
    same per-side counts and sums, for int and string keys, an empty
    side and a zero-block side, at 2, 7 and the size-derived number of
    partitions (which also pins partition-invariance)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from valere_ocr_ray.ops.exchange import cogroup_exchange

    rows = st.lists(
        st.tuples(st.integers(-20, 20), st.integers(-1000, 1000)), max_size=60
    )
    # None → a side with zero blocks; [] → one empty block with a schema
    side = st.one_of(st.none(), rows)

    def per_key(df, key, val, n, s, kdtype):
        if not len(df):
            return pd.DataFrame(
                {
                    "k": pd.Series([], dtype=kdtype),
                    n: pd.Series([], dtype="int64"),
                    s: pd.Series([], dtype="int64"),
                }
            )
        g = df.groupby(key, as_index=False).agg(**{n: (val, "size"), s: (val, "sum")})
        return g.rename(columns={key: "k"}).astype({"k": kdtype, n: "int64", s: "int64"})

    def outer(l, r, kdtype):
        m = per_key(l, "k", "v", "n_l", "s_l", kdtype).merge(
            per_key(r, "rk", "w", "n_r", "s_r", kdtype), on="k", how="outer"
        )
        cols = ["n_l", "s_l", "n_r", "s_r"]
        m[cols] = m[cols].fillna(0).astype("int64")
        return m

    def frame(pairs, key, val, kdtype):
        df = pd.DataFrame(
            {
                key: pd.Series([p[0] for p in pairs or []], dtype="int64"),
                val: pd.Series([p[1] for p in pairs or []], dtype="int64"),
            }
        )
        if kdtype == "object":
            df[key] = pd.Series([f"ключ{k}" for k in df[key]], dtype=object)
        return df

    def dataset(pairs, df, nblocks):
        if pairs is None:
            return rd.from_items([])
        if not len(df):
            return rd.from_pandas(df)
        return rd.from_pandas(
            [c.reset_index(drop=True) for c in np.array_split(df, min(nblocks, len(df)))]
        )

    @settings(max_examples=10, deadline=None)
    @given(
        left=side,
        right=side,
        str_keys=st.booleans(),
        lblocks=st.integers(1, 4),
        rblocks=st.integers(1, 4),
    )
    def check(left, right, str_keys, lblocks, rblocks):
        kdtype = "object" if str_keys else "int64"
        ldf = frame(left, "k", "v", kdtype)
        rdf = frame(right, "rk", "w", kdtype)
        lds, rds = dataset(left, ldf, lblocks), dataset(right, rdf, rblocks)
        want = outer(ldf, rdf, kdtype)
        for npart in (2, 7, None):
            got = cogroup_exchange(
                lds,
                rds,
                ["k"],
                ["rk"],
                lambda l, r: outer(l, r, kdtype),
                num_partitions=npart,
            ).to_pandas()
            if not len(want):
                assert len(got) == 0
                continue
            pd.testing.assert_frame_equal(
                got.sort_values("k").reset_index(drop=True),
                want.sort_values("k").reset_index(drop=True),
                obj=f"num_partitions={npart}",
            )

    check()


def test_exchange_reads_input_once(ray_session, tmp_path):
    """Each exchange executes its un-materialized input plan once: an
    upstream map over 8 blocks runs 8 times through ``hash_exchange``,
    ``grouped_agg`` and ``cogroup_exchange`` (not once for the blocks
    and again for the schema)."""
    from valere_ocr_ray.ops.exchange import cogroup_exchange, grouped_agg

    log = tmp_path / "calls"
    df = pd.DataFrame({"k": np.arange(800) % 37, "v": np.arange(800)})
    src = rd.from_pandas(np.array_split(df, 8)).materialize()
    other = rd.from_pandas(df.rename(columns={"v": "w"}))

    def counted(b: pd.DataFrame) -> pd.DataFrame:
        with open(log, "a") as f:
            f.write("call\n")
        return b

    def calls_through(run) -> int:
        log.write_text("")
        run(src.map_batches(counted, batch_format="pandas", batch_size=None)).materialize()
        return len(log.read_text().splitlines())

    assert calls_through(lambda ds: hash_exchange(ds, ["k"], 4)) == 8
    assert calls_through(lambda ds: grouped_agg(ds, ["k"], {"v": "sum"})) == 8
    assert calls_through(
        lambda ds: cogroup_exchange(
            ds, other, ["k"], ["k"], lambda l, r: l.iloc[0:0], num_partitions=4
        )
    ) == 8


def _dedup_ops() -> dict:
    from valere_ocr_ray.ops.dedup import exact_dedup
    from valere_ocr_ray.ops.linededup import strip_repeated_lines_exchange
    from valere_ocr_ray.ops.segdedup import segment_dedup_stats

    return {
        "exact_dedup": lambda ds: exact_dedup(ds, text_col="text", id_col="doc_id"),
        "strip_repeated_lines_exchange": lambda ds: strip_repeated_lines_exchange(
            ds, min_docs=2, text_col="text", id_col="doc_id"
        ),
        "segment_dedup_stats": lambda ds: segment_dedup_stats(
            ds, id_col="doc_id", text_col="text", window=3
        ),
    }


def test_dedup_ops_start_no_execution_on_materialized_input(ray_session, monkeypatch):
    """Over a materialized input the three dedup ops run every per-block
    and per-partition map inside the exchange's own tasks: they start
    no Ray Data execution until the result is read.  A lazy input
    starts exactly one, into which the per-block map fuses; both give
    the same rows."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    starts = []
    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        starts.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    texts = ["a b c d e f g\nfoo bar\nbaz", "x y z\nfoo bar", "a b c d e f g\nfoo bar"]
    df = pd.DataFrame({"doc_id": np.arange(12), "text": texts * 4})

    def rows(ds) -> pd.DataFrame:
        out = ds.to_pandas()
        return out.sort_values(list(out.columns)).reset_index(drop=True)

    for name, op in _dedup_ops().items():
        materialized = rd.from_pandas(np.array_split(df, 5)).materialize()
        lazy = rd.from_pandas(np.array_split(df, 5)).map_batches(
            lambda b: b, batch_format="pandas"
        )
        starts.clear()
        got = op(materialized)
        assert len(starts) == 0, name
        want = op(lazy)
        assert len(starts) == 1, name
        pd.testing.assert_frame_equal(rows(got), rows(want))
        assert len(rows(got)) == (3 if name == "exact_dedup" else 12), name


def test_dedup_ops_on_all_empty_materialized_input(ray_session):
    """On a materialized input whose every block is empty, each dedup op
    returns 0 rows with the columns it returns on rows: the exchange
    hands its fold the per-block map's columns, not the input's."""
    import pyarrow as pa
    import ray

    def columns(ds) -> list[str]:
        tables = ray.get(list(ds.to_arrow_refs()))
        assert sum(t.num_rows for t in tables) == 0
        return sorted({c for t in tables for c in t.column_names})

    want = {
        "exact_dedup": ["content_hash", "doc_id", "n_copies"],
        "strip_repeated_lines_exchange": ["doc_id", "n_dropped", "text"],
        "segment_dedup_stats": ["doc_id", "kept_tokens", "n_kept", "n_segs"],
    }
    empty = pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())})
    for name, op in _dedup_ops().items():
        for n_blocks in (1, 3):
            ds = rd.from_arrow([empty] * n_blocks).materialize()
            assert columns(op(ds)) == want[name], (name, n_blocks)


def test_exchange_width_follows_mapped_bytes(ray_session):
    """``partition_map``'s size-derived width counts the bytes ``pre``
    leaves, not the input's: ~8 MiB in 8 materialized blocks gives 4
    partitions on this 4-CPU session, and a ``pre`` that keeps one row
    per block gives 2."""
    from valere_ocr_ray.ops.exchange import _auto_partitions, partition_map

    df = pd.DataFrame({"k": np.arange(2**20, dtype="int64")})
    ds = rd.from_pandas(np.array_split(df, 8)).materialize()
    assert _auto_partitions(ds.size_bytes()) == 4

    def fn(part: pd.DataFrame) -> pd.DataFrame:
        return part

    assert partition_map(ds, ["k"], fn).num_blocks() == 4
    out = partition_map(ds, ["k"], fn, pre=lambda b: b.head(1))
    assert out.num_blocks() == 2
    assert sorted(out.to_pandas()["k"]) == [i * 2**17 for i in range(8)]


def test_grouped_agg_fold_output_is_sized_without_error(caplog):
    """The keyed-aggregate fold over a block whose keys are all null
    returns 0 rows that Ray sizes without an error: an empty pandas
    object key column made Ray's size estimate log ``Error calculating
    size for column 'k'``."""
    import logging

    from ray.data.block import BlockAccessor

    from valere_ocr_ray.ops.exchange import _agg_fold

    out = _agg_fold(["k"], {"v": "sum"}, pd.DataFrame({"k": [None, None], "v": [1, 2]}))
    # Ray's block loggers do not propagate to the root logger
    ray_log = logging.getLogger("ray.data._internal.pandas_block")
    ray_log.addHandler(caplog.handler)
    try:
        with caplog.at_level(logging.WARNING):
            BlockAccessor.for_block(out).size_bytes()
    finally:
        ray_log.removeHandler(caplog.handler)
    assert not [r for r in caplog.records if "Error calculating size" in r.getMessage()]
    assert BlockAccessor.for_block(out).num_rows() == 0
    assert BlockAccessor.for_block(out).to_pandas().columns.tolist() == ["k", "v"]


def test_ref_bundle_metadata_pinned(ray_session):
    """The exchange sizes its width and drops empty blocks from
    ``Dataset.iter_internal_ref_bundles()`` (a Ray DeveloperAPI): after
    ``materialize()`` it must yield one ``(ref, meta)`` per block whose
    ``meta.num_rows`` is the block's row count, for Arrow blocks, pandas
    blocks and schema-less empty blocks alike."""
    import pyarrow as pa
    import ray
    from ray.data.block import BlockAccessor

    t = pa.table({"k": np.arange(90), "v": np.arange(90) * 2})
    arrow = rd.from_arrow([t.slice(0, 30), t.slice(30, 60)])
    pandas = arrow.map_batches(lambda b: b, batch_format="pandas")
    empty = rd.range(30, override_num_blocks=3).filter(lambda r: False)
    for name, ds, kind, rows in (
        ("arrow", arrow, "Table", 90),
        ("pandas", pandas, "DataFrame", 90),
        ("empty", empty, "Table", 0),
    ):
        blocks = [
            b for bundle in ds.materialize().iter_internal_ref_bundles()
            for b in bundle.blocks
        ]
        assert blocks, name
        for ref, meta in blocks:
            block = ray.get(ref)
            assert type(block).__name__ == kind, name
            assert meta.num_rows == BlockAccessor.for_block(block).num_rows(), name
            assert meta.size_bytes is not None, name
        assert sum(m.num_rows for _, m in blocks) == rows, name


def test_map_batches_skips_empty_blocks_pinned(ray_session):
    """A pandas ``map_batches(fn, batch_size=None)`` passes an empty
    block through without calling ``fn`` (Ray 2.49), for empty blocks
    with a schema and for the column-less ones a filter leaves.  Folds
    run after ``hash_exchange`` rely on this instead of guarding
    against an empty frame, and ``partition_map`` keeps the same rule."""
    import pyarrow as pa
    import ray

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            raise AssertionError("fn called on an empty frame")
        return df.assign(w=df[df.columns[0]] + 1)

    t = pa.table({"k": np.arange(60), "v": np.arange(60) * 2})
    with_schema = rd.from_arrow([t.slice(0, 30), t.slice(30, 0), t.slice(30, 30)])
    columnless = rd.range(30, override_num_blocks=3).filter(lambda r: r["id"] < 10)
    for name, ds, rows, empty_cols in (
        ("schema", with_schema, 60, ["k", "v"]),
        ("columnless", columnless, 10, []),
    ):
        ds = ds.materialize()
        empty = [
            r for b in ds.iter_internal_ref_bundles() for r, m in b.blocks
            if m.num_rows == 0
        ]
        assert empty, name
        assert all(ray.get(r).column_names == empty_cols for r in empty), name
        got = ds.map_batches(fn, batch_format="pandas", batch_size=None).to_pandas()
        first = got.columns[0]
        assert len(got) == rows, name
        assert (got["w"] == got[first] + 1).all(), name
        assert sorted(got[first]) == list(range(rows)), name


def test_auto_partitions_size_derived(ray_session):
    """The exchange derives its width from input bytes:
    tiny inputs stay narrow, big inputs get ceil(bytes/128MiB), capped
    (VERDICT r4: a fixed default holds corpus/16 per gather at 100x)."""
    from valere_ocr_ray.ops.exchange import (
        MAX_PARTITIONS,
        TARGET_PARTITION_BYTES,
        _auto_partitions,
    )

    assert _auto_partitions(0) == 2
    assert _auto_partitions(10_000) == 2  # toy input → no fan-out
    big = 64 * TARGET_PARTITION_BYTES
    assert _auto_partitions(big) == 64  # scale: one target-size gather each
    assert _auto_partitions(10**15) == MAX_PARTITIONS  # documented backstop
    # medium inputs widen toward the CPU count but keep >= ~2 MiB each
    med = _auto_partitions(40 * 2**20)
    assert 2 <= med <= 5


def test_default_width_exchange_matches_explicit(ray_session, keyed_df):
    ds = rd.from_pandas(keyed_df).repartition(6)
    with exchange_width(8):
        want = grouped_sum(ds, ["k"], ["v"]).to_pandas()
    want = want.sort_values("k").reset_index(drop=True)
    got = (
        grouped_sum(ds, ["k"], ["v"])  # size-derived default
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want)


def test_key_hash_pinned():
    """Every keyed exchange and keyed aggregate places rows by
    ``_key_hash``: pin its outputs for int, string and composite keys
    so a hash or library change that moves partitions fails loudly."""
    import pyarrow as pa

    from valere_ocr_ray.ops.exchange import _key_hash

    t = pa.table(
        {
            "i": pa.array([0, 1, -1, 2**40], pa.int64()),
            "s": pa.array(["", "a", "doc-42", "ünï"]),
        }
    )
    assert _key_hash(t, ["i"]).tolist() == [
        0, 8841707400507832957, 5476333178966447588, 16808009861968932849,
    ]
    assert _key_hash(t, ["s"]).tolist() == [
        0, 10039532107466413229, 18435584648127556655, 11044795577901309641,
    ]
    assert _key_hash(t, ["i", "s"]).tolist() == [
        0, 11532174184144613436, 9479467551187275380, 16144340249790929076,
    ]


def test_tree_reduce_bounded_fanin(ray_session, tmp_path):
    """``tree_reduce`` merges at most ``TREE_FANIN`` (8) partials per
    task at every level, and runs ``merge`` at least once: one merge
    per tree node (65 blocks: 9 + 2 + 1), the exact sum at the root,
    and an empty, column-less table for an input without rows.  A
    block of more than 1,024 rows (Ray's legacy default batch) still
    yields one partial."""
    import ray

    from valere_ocr_ray.ops.exchange import TREE_FANIN, tree_reduce

    assert TREE_FANIN == 8
    log = tmp_path / "merges"

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"s": [int(df["v"].sum())]})

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        with open(log, "a") as f:
            f.write(f"{len(df)}\n")
        return pd.DataFrame({"s": [int(df["s"].sum())]})

    cases = ((0, 0, 10), (1, 1, 10), (8, 1, 10), (9, 3, 10), (65, 12, 10), (9, 3, 2000))
    for n_blocks, n_merges, block_rows in cases:
        log.write_text("")
        df = pd.DataFrame({"v": np.arange(max(n_blocks, 1) * block_rows)})
        if n_blocks:
            ds = rd.from_pandas(np.array_split(df, n_blocks))
        else:
            ds = rd.range(30, override_num_blocks=3).filter(lambda r: False)
        out = ray.get(tree_reduce(ds, partial, merge))
        seen = [int(x) for x in log.read_text().split()]
        assert len(seen) == n_merges, n_blocks
        assert max(seen, default=0) <= TREE_FANIN, (n_blocks, seen)
        if n_blocks:
            assert out.to_pylist() == [{"s": int(df["v"].sum())}], n_blocks
        else:
            assert out.num_rows == 0 and out.num_columns == 0


def test_exchange_width_helper_fixes_every_width(ray_session, keyed_df):
    """``exchange_width(n)`` reaches every exchange a call starts, with
    the exchange's own ``p >= 2`` clamp; ``None`` leaves the derived
    width, so the sweeps that moved onto it still sweep."""
    ds = rd.from_pandas(keyed_df).repartition(4)
    for n, want in ((5, 5), (3, 3), (1, 2)):
        with exchange_width(n):
            assert grouped_sum(ds, ["k"], ["v"]).num_blocks() == want
    with exchange_width(None):
        assert grouped_sum(ds, ["k"], ["v"]).num_blocks() == 2
