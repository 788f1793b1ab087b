"""Byte-pair-encoding tokenizer: distributed corpus statistics, exact
deterministic merge learning, broadcast-table batch encoding.

Token budgets (packing, mixture budgets, per-domain caps) are only as
real as the tokenizer behind them — whitespace counts mis-price code,
CJK and URLs by 2-5×.  This module provides the classic BPE
(Sennrich et al. 2016, "Neural Machine Translation of Rare Words with
Subword Units" — the GPT-2 tokenizer's construction) shaped for Ray
Data:

    word stats   one pass over the corpus: per-batch word counts →
                 ONE hash exchange (``grouped_sum``) → the global
                 word-frequency table.  Only (word, count) pairs cross
                 the wire — the corpus itself never moves.  At 100 TB
                 cap the table with ``max_words`` (frequency top-N via
                 per-partition prune; rare-word tails don't change
                 merges learned from frequency mass) and/or train on a
                 deterministic hash sample (``ops/mixing.mix_by_rates``)
                 — the industry-standard protocol (GPT-2's BPE was
                 itself trained on a corpus subset).
    learn        the merge loop runs on the DRIVER over the word-freq
                 table (vocab-sized, not corpus-sized): incremental
                 pair-count maintenance, ``num_merges`` iterations,
                 ties broken (count desc, pair lexicographic) so the
                 learned merges are a pure function of the table.
    encode       merges broadcast as a rank dict (``ray.put``, O(vocab)
                 — tiny); per batch, factorize to UNIQUE words and
                 encode each once (Zipf makes unique-word encoding
                 ~10-50× cheaper than per-token), then scatter counts
                 back.  No state on the driver; any worker, any
                 partitioning, any retry encodes identically.

End-of-word is marked with a ``</w>`` sentinel symbol (the Sennrich
construction), so "hug" the word and "hug" the prefix of "hugs" learn
distinct units.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pandas as pd
import ray
import ray.data

_WORD_RE = re.compile(r"\S+")
_EOW = "</w>"


# ---------------------------------------------------------------- stats


def word_counts(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    max_words: int | None = None,
) -> pd.DataFrame:
    """Global (word, count) table: per-batch ``Counter`` partials →
    one keyed exchange → exact sums.  ``max_words`` keeps the top-N by
    (count desc, word asc) AFTER the exact global count — deterministic
    whatever the partitioning."""
    from valere_ocr_ray.ops.exchange import grouped_sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        c: Counter = Counter()
        for t in df[text_col]:
            c.update(_WORD_RE.findall(str(t)))
        return pd.DataFrame(
            {
                "word": pd.Series(list(c.keys()), dtype=object),
                "count": pd.Series(list(c.values()), dtype="int64"),
            }
        )

    pre = ds.map_batches(partial, batch_format="pandas")
    agg = grouped_sum(pre, ["word"], ["count"])
    wf = agg.to_pandas()  # vocab-sized, not corpus-sized
    wf = wf.sort_values(
        ["count", "word"], ascending=[False, True], kind="mergesort"
    ).reset_index(drop=True)
    if max_words is not None:
        wf = wf.iloc[:max_words].reset_index(drop=True)
    return wf


# ---------------------------------------------------------------- learn


def _apply_merge(syms: list[str], pair: tuple[str, str]) -> list[str]:
    """One left-to-right pass merging every (non-overlapping, leftmost
    -first) occurrence of ``pair`` — the canonical BPE rewrite."""
    a, b = pair
    out: list[str] = []
    i = 0
    n = len(syms)
    while i < n:
        if i + 1 < n and syms[i] == a and syms[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


def learn_merges(
    word_freq: pd.DataFrame, num_merges: int
) -> list[tuple[str, str]]:
    """Classic BPE merge learning over a (word, count) table.  Per
    iteration only the words CONTAINING the chosen pair are rewritten
    (their pair counts subtracted wholesale, the merge applied, the new
    counts re-added — simple and provably consistent); an owners index
    maps pair → candidate word ids.  Deterministic: best pair = max
    count, ties to the lexicographically smallest pair."""
    # symbol sequences per word (chars + end-of-word sentinel)
    words: list[list[str]] = [
        list(w) + [_EOW] for w in word_freq["word"].astype(str)
    ]
    freqs: list[int] = word_freq["count"].astype(int).tolist()

    pair_counts: Counter = Counter()
    # owners may hold STALE word ids (a word rewritten away from a pair
    # is not removed) — the rewrite of a stale word is a no-op whose
    # subtract/re-add cancels, so correctness is unaffected
    pair_words: dict[tuple[str, str], set[int]] = {}

    def _add_word(wi: int, sign: int) -> None:
        f = freqs[wi] * sign
        syms = words[wi]
        for p in zip(syms, syms[1:]):
            pair_counts[p] += f
            if pair_counts[p] <= 0:
                pair_counts.pop(p, None)
            elif sign > 0:
                pair_words.setdefault(p, set()).add(wi)

    for wi in range(len(words)):
        _add_word(wi, +1)

    merges: list[tuple[str, str]] = []
    for _ in range(num_merges):
        if not pair_counts:
            break
        best = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        merges.append(best)
        for wi in sorted(pair_words.get(best, ())):
            _add_word(wi, -1)
            words[wi] = _apply_merge(words[wi], best)
            _add_word(wi, +1)
        pair_counts.pop(best, None)
        pair_words.pop(best, None)
    return merges


def train_bpe(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    num_merges: int = 512,
    max_words: int | None = None,
    sample_rate: float | None = None,
    id_col: str = "doc_id",
) -> list[tuple[str, str]]:
    """Corpus → ordered merge list.  ``sample_rate`` trains on a
    deterministic hash sample of the docs (``ops/mixing`` threshold —
    reproducible, shuffle-free), the 100-TB protocol."""
    if sample_rate is not None:
        from valere_ocr_ray.ops.hashing import md5_lower
        from valere_ocr_ray.ops.mixing import SCALE

        thr = int(round(min(max(float(sample_rate), 0.0), 1.0) * SCALE))

        def keep(df: pd.DataFrame) -> pd.DataFrame:
            if not len(df):
                return df
            h = md5_lower("bpe-train:" + df[id_col].astype(str))
            return df[h % np.uint64(SCALE) < thr]

        ds = ds.map_batches(keep, batch_format="pandas")
    wf = word_counts(ds, text_col=text_col, max_words=max_words)
    return learn_merges(wf, num_merges)


# ---------------------------------------------------------------- encode


def encode_word(word: str, ranks: dict[tuple[str, str], int]) -> list[str]:
    """Greedy lowest-rank-first merge application (the standard BPE
    encoder): repeatedly merge the best-ranked adjacent pair."""
    syms = list(word) + [_EOW]
    while len(syms) > 1:
        best_rank = None
        best_i = -1
        for i, pair in enumerate(zip(syms, syms[1:])):
            r = ranks.get(pair)
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_i = r, i
        if best_rank is None:
            break
        syms[best_i : best_i + 2] = [syms[best_i] + syms[best_i + 1]]
    return syms


class BpeEncoder:
    """Stateful encode stage for ``map_batches(BpeEncoder, ...)`` actor
    pools OR plain task pools (the merge table rides a ``ray.put`` ref,
    resolved once per worker).  Emits ``n_bpe_tokens`` per row; with
    ``emit_tokens=True`` also the space-joined subword string (for
    golden tests / downstream packing in true token units)."""

    def __init__(
        self,
        merges_ref,
        *,
        text_col: str = "text",
        emit_tokens: bool = False,
    ):
        merges = (
            ray.get(merges_ref)
            if isinstance(merges_ref, ray.ObjectRef)
            else merges_ref
        )
        self._ranks = {tuple(p): i for i, p in enumerate(merges)}
        self._text_col = text_col
        self._emit = emit_tokens
        self._cache: dict[str, list[str]] = {}

    def _enc(self, word: str) -> list[str]:
        got = self._cache.get(word)
        if got is None:
            got = self._cache[word] = encode_word(word, self._ranks)
        return got

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        n = np.zeros(len(df), dtype=np.int64)
        toks_out: list[str] = [] if self._emit else None  # type: ignore[assignment]
        for i, t in enumerate(df[self._text_col]):
            words = _WORD_RE.findall(str(t))
            total = 0
            parts: list[str] = [] if self._emit else None  # type: ignore[assignment]
            for w in words:
                enc = self._enc(w)
                total += len(enc)
                if self._emit:
                    parts.extend(enc)
            n[i] = total
            if self._emit:
                toks_out.append(" ".join(parts))
        out = df.assign(n_bpe_tokens=n)
        if self._emit:
            out = out.assign(bpe_tokens=pd.Series(toks_out, index=df.index))
        return out


def bpe_token_counts(
    ds: ray.data.Dataset,
    merges: list[tuple[str, str]],
    *,
    text_col: str = "text",
    emit_tokens: bool = False,
    concurrency: int | None = None,
) -> ray.data.Dataset:
    """Annotate ``n_bpe_tokens`` (and optionally ``bpe_tokens``) via the
    broadcast merge table — the real-token-unit budget column for
    packing / mixture stages."""
    ref = ray.put(merges)
    return ds.map_batches(
        BpeEncoder,
        fn_constructor_args=(ref,),
        fn_constructor_kwargs={"text_col": text_col, "emit_tokens": emit_tokens},
        batch_format="pandas",
        # callable-class UDF => pooled actors; the merge table is resolved
        # once per actor in __init__, the word→subwords cache amortizes
        # across every batch the actor sees.  The pool AUTOSCALES from
        # one actor: a fixed pool of N pins N CPUs for the dataset's
        # whole lifetime, and N == cluster CPUs starves the upstream
        # read tasks — a livelock (reproduced on the 4-CPU test
        # cluster).  (1, N) lets Ray grow the pool only while CPUs are
        # actually free.
        concurrency=(1, concurrency or 4),
    )
