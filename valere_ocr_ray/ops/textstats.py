"""Text analysis for training-data pipelines: token counting, quality
scoring, language-ID, document fingerprinting.

All stages are vectorized ``map_batches`` transforms (pandas string
kernels / numpy); regexes compile at module import, once per worker.
The token/quality definitions are deliberately SQL-expressible so the
DuckDB oracle can verify them bit-for-bit (see ``__ray_entry__``).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import ray.data

# mirrored 1:1 in oracle SQL (regexp_extract_all) — keep in sync
TOKEN_RE = re.compile(r"\S+")
WORD_RE = re.compile(r"[A-Za-z]+")
STOPWORDS = ("the", "and", "of", "a", "to", "in", "is")
STOP_RE = re.compile(r"\b(?:%s)\b" % "|".join(STOPWORDS))
ALPHA_RE = re.compile(r"[^A-Za-z]")
PUNCT_RE = re.compile(r"[^\w\s]")


def token_count_batch(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    df["n_tokens"] = df["text"].str.count(TOKEN_RE).astype("int64")
    # BPE-ish subword proxy: word-internal 4-char chunks (public
    # GPT-2-style pre-tokenizer shape, counted not materialized)
    df["n_subwords"] = (
        df["text"]
        .str.findall(WORD_RE)
        .map(lambda ws: sum((len(w) + 3) // 4 for w in ws))
        .astype("int64")
    )
    return df


def quality_batch(df: pd.DataFrame, col: str = "text") -> pd.DataFrame:
    """Length / punctuation / stopword quality signals (heuristic
    quality scoring a web-text pipeline gates on)."""
    df = df.copy()
    text = df[col]
    n = text.str.len().astype("int64")
    alpha = n - text.str.count(ALPHA_RE).astype("int64")
    punct = text.str.count(PUNCT_RE).astype("int64")
    stops = text.str.lower().str.count(STOP_RE).astype("int64")
    toks = text.str.count(TOKEN_RE).astype("int64")
    df["len_chars"] = n
    df["alpha_ratio"] = (alpha * 1000 // n.clip(lower=1)).astype("int64")  # ‰, int for oracle-stable compare
    df["punct_per_kchar"] = (punct * 1000 // n.clip(lower=1)).astype("int64")
    df["stop_per_ktok"] = (stops * 1000 // toks.clip(lower=1)).astype("int64")
    return df


# --- language ID (n-gram/stopword heuristic) ---------------------------

_LANG_MARKERS: dict[str, tuple[str, ...]] = {
    "en": ("the", "and", "of", "is", "with", "for", "that"),
    "es": ("el", "la", "de", "que", "los", "por", "una"),
    "fr": ("le", "la", "et", "les", "des", "une", "est"),
    "de": ("der", "die", "und", "das", "ein", "nicht", "mit"),
}
_LANG_RES = {
    lang: re.compile(r"\b(?:%s)\b" % "|".join(words))
    for lang, words in _LANG_MARKERS.items()
}


def langid_batch(df: pd.DataFrame, col: str = "text") -> pd.DataFrame:
    """Marker-word scoring; ``und`` when nothing matches.  A heuristic
    (not SQL-verifiable) — the oracle check for it is rows-only."""
    df = df.copy()
    low = df[col].str.lower()
    scores = np.stack(
        [low.str.count(_LANG_RES[lang]).to_numpy() for lang in _LANG_MARKERS], axis=1
    )
    best = scores.argmax(axis=1)
    langs = np.array(list(_LANG_MARKERS))
    pred = np.where(scores.max(axis=1) > 0, langs[best], "und")
    df["lang_pred"] = pred
    return df


# --- fingerprinting ----------------------------------------------------

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = (1 << 64) - 1


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK
    return h


def _shingle_min(text: str, window: int, hashes) -> int:
    """Min of ``hashes`` (a list of strings → uint64 array) over the
    ``window``-token shingles of ``text``, the whole token stream when
    it has at most ``window`` tokens; 0 for a text without tokens."""
    toks = text.split()
    if not toks:
        return 0
    n = max(len(toks) - window + 1, 1)
    return int(hashes([" ".join(toks[i : i + window]) for i in range(n)]).min())


def _fnv1a_many(strs: list[str]) -> np.ndarray:
    return np.fromiter(
        (_fnv1a(s.encode()) for s in strs), dtype=np.uint64, count=len(strs)
    )


def fingerprint_text(text: str) -> int:
    """Deterministic 63-bit doc fingerprint: min FNV-1a over 8-token
    shingles (rolling-hash winnowing, public Rabin/winnowing scheme).
    Equal fingerprints ⇒ near-identical token streams with high
    probability."""
    return _shingle_min(text, 8, _fnv1a_many) >> 1


def fingerprint_batch(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    df["fingerprint"] = df["text"].map(fingerprint_text).astype("int64")
    return df


# --- repetition signals (Gopher-style quality gates) --------------------


def _ngram_stats(
    ridx: np.ndarray, words: np.ndarray, n: int
) -> tuple[pd.Series, pd.Series, pd.Series]:
    """Per-doc (max count, dup-position count, total positions) for
    ``n``-gram positions, all via one C-speed groupby.  ``ridx`` is the
    sorted doc index of each token, ``words`` the token array."""
    m = len(words) - (n - 1)
    if m <= 0:
        empty = pd.Series([], dtype="int64")
        return empty, empty, empty
    # a position is valid iff tokens i..i+n-1 are all in the same doc;
    # ridx is sorted, so endpoints-equal implies all-equal
    valid = ridx[: m] == ridx[n - 1 :]
    gram = words[:m].copy()
    for j in range(1, n):
        gram = gram + " "
        gram = gram + words[j : m + j]
    g = pd.DataFrame({"doc": ridx[:m][valid], "g": gram[valid]})
    c = g.groupby(["doc", "g"], sort=False).size()
    byd = c.groupby(level=0)
    top = byd.max()
    dup = c.where(c > 1, 0).groupby(level=0).sum()
    tot = byd.sum()
    return top, dup, tot


def repetition_batch(
    df: pd.DataFrame, col: str = "text", id_col: str = "doc_id"
) -> pd.DataFrame:
    """Gopher-style repetition quality signals per document (public
    Rae et al. 2021 repetition filters, integer-scaled for the oracle):

    - ``top2_per_mil`` / ``top3_per_mil``: occurrences of the most
      frequent word 2-/3-gram per 1000 n-gram positions;
    - ``dup5_per_mil``: 5-gram positions whose 5-gram repeats within
      the doc, per 1000 positions.

    Wholly vectorized: one token explode + three grouped counts per
    batch; no per-row Python.  Mirrored 1:1 by the DuckDB oracle
    (regexp_extract_all + list slicing)."""
    toks = df[col].str.findall(TOKEN_RE)
    lens = toks.map(len).to_numpy(dtype=np.int64)
    s = toks.explode().dropna()
    ridx = np.repeat(np.arange(len(df), dtype=np.int64), lens)
    words = s.to_numpy(dtype=object)

    out = pd.DataFrame(
        {
            id_col: df[id_col].to_numpy(),
            "n_tokens": lens,
        }
    )
    for label, n in (("top2_per_mil", 2), ("top3_per_mil", 3)):
        top, _, tot = _ngram_stats(ridx, words, n)
        v = np.zeros(len(df), dtype=np.int64)
        if len(top):
            v[top.index.to_numpy()] = (
                top.to_numpy() * 1000 // tot.to_numpy()
            )
        out[label] = v
    _, dup, tot = _ngram_stats(ridx, words, 5)
    v = np.zeros(len(df), dtype=np.int64)
    if len(dup):
        v[dup.index.to_numpy()] = dup.to_numpy() * 1000 // tot.to_numpy()
    out["dup5_per_mil"] = v
    return out


def repetition_signals(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Per-doc repetition metrics of ``(doc_id, text)`` as an
    embarrassingly-parallel map_batches stage — no shuffle; scales
    linearly with the corpus."""
    return ds.map_batches(repetition_batch, batch_format="pandas")


# --- the FULL Gopher repetition sub-battery (Rae et al. 2021, App. A
#     Table A1 cont'd) — duplicate line/paragraph (count + character)
#     fractions, top-{2,3,4}-gram character fractions, duplicated-
#     {5..10}-gram character-coverage fractions, and the composed
#     verdict.  Pinned conventions (mirrored 1:1 by the SQL oracle):
#     * lines split on "\n", paragraphs on "\n\n" (literal);
#     * a unit's "duplicate" characters are its occurrences BEYOND the
#       first ((count-1) x len), over total unit characters;
#     * all character metrics on n-grams are space-free (sum of word
#       lengths; words are \S+ runs) — numerator and denominator alike;
#     * top-gram ties break to the lexicographically smallest gram;
#     * duplicated-n-gram coverage counts each word position once no
#       matter how many duplicated grams overlap it (the paper's
#       no-double-count rule);
#     * everything integer per-mil (floor division), keep = all
#       metrics <= threshold (the paper drops when a fraction EXCEEDS
#       its threshold).

REPETITION_THRESHOLDS: tuple[tuple[str, int], ...] = (
    ("dup_line_per_mil", 300),
    ("dup_para_per_mil", 300),
    ("dup_line_char_per_mil", 200),
    ("dup_para_char_per_mil", 200),
    ("top2_char_per_mil", 200),
    ("top3_char_per_mil", 180),
    ("top4_char_per_mil", 160),
    ("dup5_char_per_mil", 150),
    ("dup6_char_per_mil", 140),
    ("dup7_char_per_mil", 130),
    ("dup8_char_per_mil", 120),
    ("dup9_char_per_mil", 110),
    ("dup10_char_per_mil", 100),
)


def gopher_repetition_batch(df: pd.DataFrame) -> pd.DataFrame:
    """All 13 Gopher repetition signals + ``rep_keep`` per ``(doc_id,
    text)`` document, wholly vectorized (explodes + grouped counts; the
    only Python loop is over the 9 n-gram sizes, not rows)."""
    text = df["text"].astype(str)
    n = len(df)
    idx = np.arange(n, dtype=np.int64)
    out = pd.DataFrame({"doc_id": df["doc_id"].to_numpy()})

    def scatter(s: pd.Series) -> np.ndarray:
        a = np.zeros(n, dtype=np.int64)
        if len(s):
            a[s.index.to_numpy(dtype=np.int64)] = s.to_numpy(dtype=np.int64)
        return a

    def unit_stats(sep: str) -> tuple[np.ndarray, ...]:
        parts = text.str.split(sep, regex=False)
        lens = parts.map(len).to_numpy(dtype=np.int64)
        u = pd.DataFrame(
            {
                "i": np.repeat(idx, lens),
                "u": parts.explode().to_numpy(dtype=object),
            }
        )
        u["L"] = u["u"].str.len()
        g = u.groupby(["i", "u"], sort=False).agg(
            c=("L", "size"), L=("L", "first")
        )
        gi = g.index.get_level_values(0)
        n_units = g["c"].groupby(gi).sum()
        n_dist = g["c"].groupby(gi).size()
        dup_ch = ((g["c"] - 1) * g["L"]).groupby(gi).sum()
        tot_ch = (g["c"] * g["L"]).groupby(gi).sum()
        return scatter(n_units), scatter(n_dist), scatter(dup_ch), scatter(tot_ch)

    for label, sep in (("line", "\n"), ("para", "\n\n")):
        n_units, n_dist, dup_ch, tot_ch = unit_stats(sep)
        out[f"dup_{label}_per_mil"] = (
            (n_units - n_dist) * 1000 // np.maximum(n_units, 1)
        )
        out[f"dup_{label}_char_per_mil"] = dup_ch * 1000 // np.maximum(tot_ch, 1)

    toks = text.str.findall(TOKEN_RE)
    tlens = toks.map(len).to_numpy(dtype=np.int64)
    ridx = np.repeat(idx, tlens)
    words = toks.explode().dropna().to_numpy(dtype=object)
    wlen = pd.Series(words).str.len().to_numpy(np.int64) if len(words) else np.zeros(0, np.int64)
    wchars = np.zeros(n, dtype=np.int64)
    np.add.at(wchars, ridx, wlen)
    wchars1 = np.maximum(wchars, 1)
    out["n_words"] = tlens

    def grams_at(n_: int) -> tuple[np.ndarray, np.ndarray]:
        """(valid gram-start global token indexes, gram strings)."""
        m = len(words) - (n_ - 1)
        if m <= 0:
            return np.zeros(0, np.int64), np.zeros(0, object)
        valid = ridx[:m] == ridx[n_ - 1 :]
        gram = words[:m].copy()
        for j in range(1, n_):
            gram = gram + " "
            gram = gram + words[j : m + j]
        return np.flatnonzero(valid), gram[valid]

    for n_ in (2, 3, 4):
        starts, gram = grams_at(n_)
        col_name = f"top{n_}_char_per_mil"
        if not len(starts):
            out[col_name] = np.zeros(n, dtype=np.int64)
            continue
        cnt = (
            pd.DataFrame({"doc": ridx[starts], "g": gram})
            .groupby(["doc", "g"], sort=False)
            .size()
            .reset_index(name="c")
        )
        # space-free chars of one occurrence = len(gram) - (n-1) joins
        cnt["chars"] = cnt["c"] * (cnt["g"].str.len() - (n_ - 1))
        top = (
            cnt.sort_values(
                ["doc", "c", "g"], ascending=[True, False, True], kind="mergesort"
            )
            .groupby("doc", sort=False)
            .head(1)
            .set_index("doc")["chars"]
        )
        out[col_name] = scatter(top) * 1000 // wchars1

    for n_ in range(5, 11):
        starts, gram = grams_at(n_)
        col_name = f"dup{n_}_char_per_mil"
        if not len(starts):
            out[col_name] = np.zeros(n, dtype=np.int64)
            continue
        gdf = pd.DataFrame({"doc": ridx[starts], "g": gram})
        c = gdf.groupby(["doc", "g"], sort=False)["g"].transform("size")
        dup_starts = starts[c.to_numpy() > 1]
        covered = np.zeros(len(words), dtype=bool)
        for j in range(n_):  # whole window is in-doc by validity
            covered[dup_starts + j] = True
        cov = np.zeros(n, dtype=np.int64)
        np.add.at(cov, ridx[covered], wlen[covered])
        out[col_name] = cov * 1000 // wchars1

    keep = np.ones(n, dtype=bool)
    for name, thr in REPETITION_THRESHOLDS:
        keep &= out[name].to_numpy() <= thr
    out["rep_keep"] = keep.astype("int64")
    return out


def gopher_repetition_keep(text: pd.Series) -> np.ndarray:
    """Composed repetition verdict as a bool mask — the pure rule shared
    by the curate pipeline's ``--gopher-rep`` gate and the
    ``doc_gopher_repetition`` query (parity pinned by test)."""
    tmp = pd.DataFrame({"doc_id": np.arange(len(text), dtype=np.int64)})
    tmp["text"] = text.to_numpy(dtype=object)
    return gopher_repetition_batch(tmp)["rep_keep"].to_numpy() == 1


# ---------------------------------------------------------------------------
# Quality filter (the keep/drop verdict a pre-training pipeline gates on)
# ---------------------------------------------------------------------------

# Gopher-style thresholds (Rae et al. 2021 §A1.1, adapted to the
# integer-scaled signals above).  Order matters: the FIRST failing rule
# names the reject reason, so the rule list is the spec.
QUALITY_RULES: tuple[tuple[str, str], ...] = (
    ("too_short", "n_tokens < 25"),
    ("low_alpha", "alpha_ratio < 800"),
    ("low_stopwords", "stop_per_ktok < 10"),
    ("repetitive_2gram", "top2_per_mil > 80"),
    ("dup_5gram", "dup5_per_mil > 200"),
)


def quality_filter_batch(df: pd.DataFrame) -> pd.DataFrame:
    """Fused keep/drop verdict of ``(doc_id, text)`` rows: quality +
    repetition signals computed in
    ONE pass over the batch (no intermediate dataset, no shuffle), then
    first-failing-rule attribution.  Output: ``(doc_id, n_tokens,
    alpha_ratio, stop_per_ktok, top2_per_mil, dup5_per_mil, keep,
    reason)`` — ``reason == ''`` iff ``keep == 1``."""
    qual = quality_batch(df[["doc_id", "text"]])
    rep = repetition_batch(df[["doc_id", "text"]])
    out = pd.DataFrame(
        {
            "doc_id": df["doc_id"].to_numpy(),
            "n_tokens": rep["n_tokens"].to_numpy(),
            "alpha_ratio": qual["alpha_ratio"].to_numpy(),
            "stop_per_ktok": qual["stop_per_ktok"].to_numpy(),
            "top2_per_mil": rep["top2_per_mil"].to_numpy(),
            "dup5_per_mil": rep["dup5_per_mil"].to_numpy(),
        }
    )
    fails = {
        "too_short": out["n_tokens"].to_numpy() < 25,
        "low_alpha": out["alpha_ratio"].to_numpy() < 800,
        "low_stopwords": out["stop_per_ktok"].to_numpy() < 10,
        "repetitive_2gram": out["top2_per_mil"].to_numpy() > 80,
        "dup_5gram": out["dup5_per_mil"].to_numpy() > 200,
    }
    reason = np.full(len(out), "", dtype=object)
    for name, _expr in reversed(QUALITY_RULES):  # first rule wins → assign last
        reason = np.where(fails[name], name, reason)
    out["keep"] = (reason == "").astype("int64")
    out["reason"] = reason
    return out


def quality_filter(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Per-doc keep/drop verdict of ``(doc_id, text)`` as one
    embarrassingly-parallel ``map_batches`` stage — the canonical
    pre-training corpus filter."""
    return ds.map_batches(quality_filter_batch, batch_format="pandas")


# ---------------------------------------------------------------------------
# TF-IDF
# ---------------------------------------------------------------------------

_TFIDF_TOK_RE = re.compile(r"[a-z]+")


def _tfidf_tokens(s: pd.Series) -> pd.Series:
    toks = s.str.lower().str.findall(_TFIDF_TOK_RE)
    return toks.map(lambda ws: [w for w in ws if len(w) >= 3])


def tfidf_top_terms(
    ds: ray.data.Dataset,
    *,
    k: int = 3,
) -> ray.data.Dataset:
    """Per-document top-``k`` TF-IDF terms of ``(doc_id, text)`` →
    ``(doc_id, term, score)``.

    Two passes over the corpus:

    1. document frequency: per-block distinct ``(doc, tok)`` → per-tok
       partial counts → ``grouped_sum`` (one row per vocab term);
    2. scoring: the df table is broadcast as SORTED numpy arrays
       (``ray.put`` once; ~16 bytes/term → ~1.6 GB per 10^8-term
       vocabulary, within a worker heap — beyond that, exchange tokens
       keyed by term to attach df, then regroup by doc) and each batch
       scores vectorized: tf × ln(N/df), per-doc top-k by
       (score desc, term asc).

    Tokenization matches ``doc_distinct_tokens`` (lower-cased alpha
    runs, len ≥ 3).  Scores are floats — verified by unit test against
    hand-computed values, not a SQL oracle.
    """
    import ray as _ray

    from valere_ocr_ray.ops.exchange import grouped_sum

    n_docs = ds.count()

    def df_partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = _tfidf_tokens(df["text"])
        out = pd.DataFrame(
            {
                "tok": toks.explode().dropna(),
            }
        )
        if not len(out):
            return pd.DataFrame(
                {"tok": pd.Series([], dtype="object"),
                 "df": pd.Series([], dtype="int64")}
            )
        # distinct per doc first (df counts docs, not occurrences)
        out["doc"] = np.repeat(
            df["doc_id"].to_numpy(), toks.map(len).to_numpy(dtype=np.int64)
        )
        out = out.drop_duplicates()
        g = out.groupby("tok", as_index=False).size()
        return g.rename(columns={"size": "df"})

    df_tbl = grouped_sum(
        ds.map_batches(df_partial, batch_format="pandas"), ["tok"], ["df"]
    ).to_pandas()
    df_tbl = df_tbl.sort_values("tok").reset_index(drop=True)
    vocab = df_tbl["tok"].to_numpy()
    dfs = df_tbl["df"].to_numpy(dtype=np.float64)
    ref = _ray.put((vocab, dfs))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        voc, dfv = _ray.get(ref)
        toks = _tfidf_tokens(df["text"])
        flat = pd.DataFrame({"term": toks.explode().dropna()})
        if not len(flat):
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "term": pd.Series([], dtype="object"),
                    "score": pd.Series([], dtype="float64"),
                }
            )
        flat["doc_id"] = np.repeat(
            df["doc_id"].to_numpy(), toks.map(len).to_numpy(dtype=np.int64)
        )
        tf = flat.groupby(["doc_id", "term"], as_index=False).size()
        pos = np.searchsorted(voc, tf["term"].to_numpy())
        idf = np.log(n_docs / dfv[np.minimum(pos, len(voc) - 1)])
        tf["score"] = (tf["size"].to_numpy(dtype=np.float64) * idf).round(9)
        top = (
            tf.sort_values(["doc_id", "score", "term"],
                           ascending=[True, False, True], kind="stable")
            .groupby("doc_id", as_index=False)
            .head(k)
        )
        return top[["doc_id", "term", "score"]].reset_index(drop=True)

    return ds.map_batches(score, batch_format="pandas")


def quality_tier(alpha_ratio: np.ndarray, stop_per_ktok: np.ndarray) -> np.ndarray:
    """FineWeb-style quality tier from the integer-scaled signals —
    THE single definition shared by ``doc_quality_tiers`` (the oracled
    query) and the corpus-report datasheet (ADVICE r3 item 2: a retune
    must move both or the datasheet silently desyncs from the oracle):
    tier 2 = alpha >= 825 per-mil AND stop >= 40 per-ktok; tier 1 =
    alpha >= 815; tier 0 = rest."""
    a = np.asarray(alpha_ratio, dtype=np.int64)
    s = np.asarray(stop_per_ktok, dtype=np.int64)
    return np.where((a >= 825) & (s >= 40), 2, np.where(a >= 815, 1, 0)).astype(
        np.int64
    )


_GOPHER_STOP_WORDS = ("the", "be", "to", "of", "and", "that", "have", "with")


def gopher_keep(text: pd.Series) -> np.ndarray:
    """Gopher/MassiveWeb composed keep verdict (Rae et al. 2021,
    Appendix A) as a bool mask — the pure rule shared by the curate
    pipeline's ``--gopher`` gate and the ``doc_gopher_filters`` query
    (parity pinned by test): word count in [50, 100000], mean word
    length in [3, 10] chars, '#'/ellipsis symbol-to-word ratio < 0.1,
    bullet-start lines < 90%, ellipsis-end lines < 30%, words with an
    alphabetic char > 80%, >= 2 of the 8 canonical stop words.  All
    ratios in integer per-mil (floor division) so the verdict is
    float-free and engine-independent; one vectorized pass, O(doc).

    Every ``\\s``/``\\S``/``\\b`` here is ``re.ASCII``-pinned and the
    bullet strip set is the 5 ASCII blanks — matching the SQL oracle's
    RE2 ASCII classes and ``trim(' '||chr(9)||chr(13)||chr(12)||
    chr(11))`` EXACTLY, so a line starting with NBSP+'-' or a stop word
    abutting a non-ASCII letter cannot diverge engine-vs-oracle
    (ADVICE r3 item 1)."""
    text = text.astype(str)
    low = text.str.lower()
    n_words = text.str.count(re.compile(r"\S+", re.ASCII)).astype("int64")
    nw1 = n_words.clip(lower=1)
    n_chars = (
        text.str.replace(re.compile(r"\s+", re.ASCII), "", regex=True)
        .str.len()
        .astype("int64")
    )
    mean_len = n_chars * 1000 // nw1
    n_sym = (
        text.str.count("#") + text.str.count(r"\.\.\.") + text.str.count("…")
    ).astype("int64")
    n_alpha = text.str.count(
        re.compile(r"\S*[A-Za-z]\S*", re.ASCII)
    ).astype("int64")
    n_stop = sum(
        low.str.contains(re.compile(rf"\b{w}\b", re.ASCII)).astype("int64")
        for w in _GOPHER_STOP_WORDS
    )
    idx = pd.RangeIndex(len(text))
    ex = pd.DataFrame({"i": idx, "_ln": text.str.split("\n").to_numpy()}).explode(
        "_ln"
    )
    ln = ex["_ln"].astype(str)
    per_line = pd.DataFrame(
        {
            "i": ex["i"].to_numpy(dtype=np.int64),
            "bullet": ln.str.strip(" \t\r\f\v").str.match(r"[-*•]").to_numpy(),
            "ell": ln.str.contains(
                re.compile(r"(?:\.\.\.|…)\s*$", re.ASCII)
            ).to_numpy(),
        }
    )
    agg = (
        per_line.groupby("i")
        .agg(n_lines=("bullet", "size"), n_bullet=("bullet", "sum"), n_ell=("ell", "sum"))
        .reindex(idx, fill_value=0)
    )
    n_lines = agg["n_lines"].astype("int64").clip(lower=1).to_numpy()
    bullet_pm = agg["n_bullet"].astype("int64").to_numpy() * 1000 // n_lines
    ell_pm = agg["n_ell"].astype("int64").to_numpy() * 1000 // n_lines
    return (
        (n_words.to_numpy() >= 50)
        & (n_words.to_numpy() <= 100_000)
        & (mean_len.to_numpy() >= 3000)
        & (mean_len.to_numpy() <= 10_000)
        & ((n_sym.to_numpy() * 1000 // nw1.to_numpy()) < 100)
        & (bullet_pm < 900)
        & (ell_pm < 300)
        & ((n_alpha.to_numpy() * 1000 // nw1.to_numpy()) > 800)
        & (n_stop.to_numpy() >= 2)
    )
