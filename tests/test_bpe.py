"""BPE tokenizer (ops/bpe): merge learning on the Sennrich example,
encoder/learner consistency, distributed-vs-local equality, partition
invariance, and the encode actor stage."""

import numpy as np
import pandas as pd
import pytest
from conftest import exchange_width

SF = "/root/testdata/sf0.001"


def test_learn_merges_sennrich_example():
    """The canonical worked example (Sennrich et al. 2016 §3.2 shape):
    frequent 'est</w>' and 'low' units emerge first."""
    from valere_ocr_ray.ops.bpe import learn_merges

    wf = pd.DataFrame(
        {"word": ["low", "lower", "newest", "widest"], "count": [5, 2, 6, 3]}
    )
    m = learn_merges(wf, 4)
    assert m[0] == ("e", "s")  # 6+3 = 9, the max pair
    assert m[1] == ("es", "t")
    assert m[2] == ("est", "</w>")
    assert ("l", "o") in m  # 5+2 = 7, next after the est chain


def test_encoder_matches_learner_states():
    """Encoding a training word with the rank table reproduces the
    learner's final symbol sequence for that word — the property that
    makes token counts meaningful."""
    from valere_ocr_ray.ops.bpe import (
        _EOW,
        _apply_merge,
        encode_word,
        learn_merges,
    )

    wf = pd.DataFrame(
        {
            "word": ["hug", "pug", "pun", "bun", "hugs", "pugs"],
            "count": [10, 5, 12, 4, 5, 3],
        }
    )
    m = learn_merges(wf, 8)
    ranks = {tuple(p): i for i, p in enumerate(m)}
    state = {w: list(w) + [_EOW] for w in wf["word"]}
    for p in m:
        for w in state:
            state[w] = _apply_merge(state[w], p)
    for w in wf["word"]:
        assert encode_word(w, ranks) == state[w]


def test_word_counts_distributed_equals_local(ray_session):
    import ray.data as rd

    from valere_ocr_ray.ops.bpe import word_counts

    docs = rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    with exchange_width(8):
        wf = word_counts(docs)
    local = (
        pd.Series(
            " ".join(
                docs.to_pandas()["text"].astype(str).tolist()
            ).split()
        )
        .value_counts()
    )
    got = wf.set_index("word")["count"]
    assert len(got) == len(local)
    assert (got.sort_index() == local.sort_index()).all()
    # deterministic top-N cap: prefix of the (count desc, word asc) order
    with exchange_width(3):
        capped = word_counts(docs, max_words=100)
    assert capped["word"].tolist() == wf["word"].tolist()[:100]


def test_train_partition_invariance_and_counts(ray_session):
    """Merges learned from the corpus are invariant to partitioning,
    and the encode stage yields fewer-or-equal tokens than characters
    and more-or-equal than words (subword sanity bounds)."""
    import ray.data as rd

    from valere_ocr_ray.ops.bpe import bpe_token_counts, train_bpe

    docs = rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    with exchange_width(4):
        m1 = train_bpe(docs.repartition(2), num_merges=64)
    with exchange_width(7):
        m13 = train_bpe(docs.repartition(13), num_merges=64)
    assert m1 == m13

    out = (
        bpe_token_counts(docs, m1, concurrency=2)
        .to_pandas()
        .sort_values("doc_id")
    )
    texts = out["text"].astype(str)
    n_words = texts.str.split().str.len()
    n_chars = texts.str.replace(" ", "", regex=False).str.len()
    assert (out["n_bpe_tokens"] >= n_words).all()  # >= one token per word
    assert (
        out["n_bpe_tokens"] <= n_chars + n_words
    ).all()  # <= chars + one EOW per word
    # with 64 merges on a repetitive corpus, SOME compression must bite
    assert (out["n_bpe_tokens"] < n_chars + n_words).any()


def test_emit_tokens_roundtrip(ray_session):
    """emit_tokens=True: token count equals the emitted sequence length
    and stripping the merge structure recovers the original words."""
    import ray.data as rd

    from valere_ocr_ray.ops.bpe import bpe_token_counts, train_bpe

    docs = rd.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    ).limit(50)
    with exchange_width(2):
        m = train_bpe(docs, num_merges=32)
    out = bpe_token_counts(docs, m, emit_tokens=True, concurrency=2).to_pandas()
    for _, row in out.iterrows():
        toks = row["bpe_tokens"].split(" ") if row["bpe_tokens"] else []
        assert len(toks) == row["n_bpe_tokens"]
        recovered = "".join(toks).replace("</w>", " ").split()
        assert recovered == str(row["text"]).split()


def test_sample_rate_trains_on_subset(ray_session):
    """sample_rate uses the deterministic hash sample: merges from the
    sample are reproducible and generally differ from full-corpus ones."""
    import ray.data as rd

    from valere_ocr_ray.ops.bpe import train_bpe

    docs = rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    a = train_bpe(docs, num_merges=32, sample_rate=0.2)
    b = train_bpe(docs, num_merges=32, sample_rate=0.2)
    assert a == b


def test_bpe_fertility_matches_local_twin(ray_session):
    """doc_bpe_fertility's distributed (source, lang) cells are
    bit-exact vs a single-process recomputation with the same merges
    (the pinned local twin for the rows-only query)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from valere_ocr_ray.ops import textstats
    from valere_ocr_ray.ops.bpe import encode_word, train_bpe
    from valere_ocr_ray.pipelines.queries import doc_bpe_fertility

    sf = "/root/testdata/sf0.001"
    got = doc_bpe_fertility(sf).to_pandas().reset_index(drop=True)

    docs = pd.read_parquet(
        sf + "/documents.parquet", columns=["doc_id", "source", "text"]
    )
    with exchange_width(8):
        merges = train_bpe(
            rd.read_parquet(sf + "/documents.parquet", columns=["doc_id", "text"]),
            num_merges=64,
        )
    ranks = {tuple(p): i for i, p in enumerate(merges)}
    cache = {}

    def n_bpe(t):
        total = 0
        for w in str(t).split():
            if w not in cache:
                cache[w] = len(encode_word(w, ranks))
            total += cache[w]
        return total

    local = pd.DataFrame(
        {
            "source": docs["source"],
            "lang": textstats.langid_batch(docs[["text"]], "text")["lang_pred"],
            "n_docs": np.int64(1),
            "n_words": docs["text"].str.count(r"\S+").astype("int64"),
            "n_bpe": docs["text"].map(n_bpe).astype("int64"),
        }
    ).groupby(["source", "lang"], as_index=False).sum()
    local["fertility_per_mil"] = (
        local["n_bpe"] * 1000 // local["n_words"].clip(lower=1)
    ).astype("int64")
    local = local.sort_values(["source", "lang"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got[local.columns], local)
    # fertility is a real signal: every word is >= 1 token (= 1000
    # per-mil exactly when a cell's words all fully merge), and the
    # 256-merge vocab leaves most cells genuinely re-split
    assert (got["fertility_per_mil"] >= 1000).all()
    assert (got["fertility_per_mil"] > 1000).any()
