"""Deterministic domain-mixture sampling for training-data assembly.

Pre-training corpora are built by RE-WEIGHTING domains (The Pile,
DoReMi, DSIR): each source contributes at a target rate, not its raw
share.  The classic implementation is a random sampler — which is
neither reproducible across runs nor verifiable against an oracle.
This module replaces the coin flip with a *hash threshold*:

    keep(row)  <=>  md5_number_lower(salt || id) % SCALE  <  rate · SCALE

where ``md5_number_lower`` is DuckDB's function of that name
(``ops/hashing.md5_lower``), so a SQL oracle reproduces the sample
bit-for-bit.  Properties:

* **stateless & shuffle-free** — one vectorized ``map_batches`` pass;
  membership is a pure function of (id, salt, rate), so any worker,
  any partitioning, any retry produces the same sample.  At 100 TB
  this is the difference between "sampler" and "re-run roulette".
* **stable under rate changes** — raising a domain's rate strictly
  grows its sample (threshold semantics), so curriculum schedules can
  monotonically extend shards instead of resampling from scratch.
* **per-domain rates broadcast as plain dict** — O(#domains) values,
  captured in the task closure, never a join.

Analog of the reference's per-category routing of uploads into
per-class S3 prefixes (IDD/finalcodes/import os1.py:88-131) — lifted
from "route everything" to "route a governed fraction per class".
"""

from __future__ import annotations

from typing import Mapping

import numpy as np
import pandas as pd
import ray.data

from valere_ocr_ray.ops.exchange import grouped_sum
from valere_ocr_ray.ops.hashing import md5_lower

SCALE = 1_000_000


def _domain_totals(ds: ray.data.Dataset, key_col: str, tokens_col: str) -> dict:
    """Token mass per domain from the keyed aggregate — one row per
    domain reaches the driver.  A null domain has no total (pandas'
    groupby drops it), so it moves no threshold and samples at 0."""
    pairs = ds.select_columns([key_col, tokens_col])
    sums = grouped_sum(pairs, [key_col], [tokens_col])
    return {r[key_col]: int(r[tokens_col]) for r in sums.take_all()}


def mix_by_rates(
    ds: ray.data.Dataset,
    *,
    rates: Mapping[str, float],
    key_col: str = "source",
    id_col: str = "doc_id",
    salt: str = "mix",
) -> ray.data.Dataset:
    """Keep each row of domain ``key_col`` with probability
    ``rates[domain]`` via the deterministic hash threshold above.

    ``rates`` values are clamped to [0, 1]; domains absent from
    ``rates`` are dropped (the safe default for governed mixtures).
    The hash input is
    ``salt + ':' + str(id)`` — change ``salt`` to draw an independent
    sample (e.g. a held-out eval split that provably never overlaps a
    training split drawn with another salt).
    """
    thresholds = {
        k: int(round(min(max(float(v), 0.0), 1.0) * SCALE)) for k, v in rates.items()
    }
    return _sample_by_thresholds(ds, thresholds, key_col=key_col, id_col=id_col, salt=salt)


def mix_by_token_budget(
    ds: ray.data.Dataset,
    *,
    budget_tokens: int,
    tokens_col: str = "n_tokens",
    key_col: str = "source",
    id_col: str = "doc_id",
    salt: str = "budget",
    pin: bool = False,
) -> ray.data.Dataset:
    """Equal-token-budget mixture: each domain samples docs at rate
    ``budget_tokens / domain_total_tokens`` (capped at 1.0), so every
    domain contributes ~``budget_tokens`` tokens in expectation —
    the "flatten the domain distribution" mixture of Pile-style corpus
    assembly, with the coin flip replaced by the hash threshold of
    :func:`mix_by_rates` (reproducible, oracle-verifiable).

    Rates use exact integer arithmetic — ``min(SCALE, budget·SCALE //
    total)`` — so the SQL mirror (``LEAST(1000000, b*1000000 //
    sum(...))``) reproduces thresholds bit-for-bit, no float boundary.
    The per-domain totals aggregate returns one row per domain — the
    only driver-side state, O(#domains) however large the corpus.

    The totals pass and the sample pass both consume ``ds`` — a lazy
    upstream re-executes once per pass.  ``pin=True`` materializes
    ``ds`` first: pass a NARROW projection (id, key, tokens — not the
    text) so the pinned blocks are a few percent of the corpus; leave
    False when the upstream is a cheap read or is already pinned."""
    if pin:
        ds = ds.materialize()
    totals = _domain_totals(ds, key_col, tokens_col)
    thresholds = {
        k: min(SCALE, int(budget_tokens) * SCALE // v) if v > 0 else SCALE
        for k, v in totals.items()
    }
    return _sample_by_thresholds(ds, thresholds, key_col=key_col, id_col=id_col, salt=salt)


def _sample_by_thresholds(
    ds: ray.data.Dataset,
    thresholds: Mapping[str, int],
    *,
    key_col: str,
    id_col: str,
    salt: str,
) -> ray.data.Dataset:
    """keep(row) <=> md5_number_lower(salt:id) % SCALE < thresholds[key]
    (0 for a key without one); one stateless vectorized pass,
    thresholds captured in the closure."""
    thresholds = dict(thresholds)

    def sample(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df
        h = md5_lower(salt + ":" + df[id_col].astype(str)) % SCALE
        thr = (
            df[key_col]
            .map(lambda s: thresholds.get(s, 0))
            .to_numpy(dtype=np.int64)
        )
        return df[h.astype(np.int64) < thr]

    return ds.map_batches(sample, batch_format="pandas")


def _sample_with_repeats(
    ds: ray.data.Dataset,
    specs: Mapping[str, tuple[int, int]],
    *,
    key_col: str,
    id_col: str,
    salt: str,
) -> ray.data.Dataset:
    """``specs[key] = (full_epochs, frac_threshold_millionths)``:
    a row is kept with ``n_repeats = full + (hash < frac)`` when that
    is > 0 — the repeat-aware generalization of
    :func:`_sample_by_thresholds` (``(0, thr)`` reproduces it exactly).
    Stateless per row, so retries/partitionings can't change the
    sample, and the annotation rides the row (no driver state)."""
    specs = dict(specs)

    def sample(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df.assign(n_repeats=pd.Series([], dtype="int64"))
        h = (md5_lower(salt + ":" + df[id_col].astype(str)) % SCALE).astype(
            np.int64
        )
        full = (
            df[key_col].map(lambda s: specs.get(s, (0, 0))[0]).to_numpy(np.int64)
        )
        frac = (
            df[key_col].map(lambda s: specs.get(s, (0, 0))[1]).to_numpy(np.int64)
        )
        reps = full + (h < frac)
        out = df[reps > 0].copy()
        out["n_repeats"] = reps[reps > 0]
        return out

    return ds.map_batches(sample, batch_format="pandas")


def mix_by_temperature(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Temperature-flattened domain mixture over ``source`` (token mass
    ``n_tokens``, row id ``doc_id``, salt ``temp``) (the multilingual-LM
    sampling rule, XLM-R/mT5 family, alpha = 0.5) anchored at the
    smallest domain: domain ``d`` with token mass ``M_d`` samples docs
    at rate ``sqrt(M_min / M_d)`` — the smallest positive-mass domain
    is kept whole, every domain's EXPECTED token contribution scales
    as ``sqrt(M_d * M_min)`` (mass^alpha re-weighting), upweighting
    tail domains without the hard cap of :func:`mix_by_token_budget`.

    alpha is pinned to 0.5 because the threshold must be bit-identical
    in the SQL oracle: ``floor(1e6 * sqrt(M_min / M_d))`` is ONE
    correctly-rounded IEEE division + ONE correctly-rounded sqrt on
    both sides (general ``pow`` is not correctly rounded and may
    differ across libms), and anchoring at ``M_min`` avoids any
    cross-domain float SUM whose order could differ between engines.
    Zero-mass domains sample at 0.  Membership is the same stateless
    md5 hash threshold as :func:`mix_by_rates` — any worker, any
    partitioning, any retry draws the same sample."""
    import math

    totals = _domain_totals(ds, "source", "n_tokens")
    positive = [v for v in totals.values() if v > 0]
    m_min = min(positive) if positive else 0
    thresholds = {
        k: (0 if v <= 0 else int(math.floor(SCALE * math.sqrt(m_min / v))))
        for k, v in totals.items()
    }
    return _sample_by_thresholds(
        ds, thresholds, key_col="source", id_col="doc_id", salt="temp"
    )


def mix_unimax(
    ds: ray.data.Dataset,
    *,
    budget_tokens: int | None = None,
    budget_denom: int = 2,
    epoch_cap: int = 1,
    key_col: str = "source",
    salt: str = "unimax",
) -> ray.data.Dataset:
    """UniMax mixing (Chung et al. 2023, "UniMax: Fairer and More
    Effective Language Sampling for Large-Scale Multilingual
    Pretraining"): distribute a total token budget as UNIFORMLY as
    possible across domains, each capped at ``epoch_cap`` epochs of its
    own mass (``n_tokens``) — the water-filling allocation.  Domains are
    processed in ascending cap order; each takes ``min(cap_d,
    remaining // k)`` where ``k`` counts domains not yet allocated, so
    small domains are kept whole (up to the cap) and the surplus flows
    to large ones.

    The whole allocation is INTEGER arithmetic (token counts, floor
    divisions, ties broken by ``(cap, key)``) so a SQL oracle
    reproduces it bit-for-bit with a recursive CTE — no float
    water-level whose rounding could differ across engines.  If
    ``budget_tokens`` is None the budget is ``total // budget_denom``
    (corpus-relative, so the same query is meaningful at any sf).
    Per-domain sampling rate is ``min(1, alloc_d / M_d)`` in exact
    integer millionths; membership is the stateless md5 threshold
    shared by the whole mixing family (reproducible across runs /
    partitionings / retries, monotone under budget raises).  The
    driver holds one row per domain — at 100 TB that is the domain
    count, not the corpus.  Rows are drawn by ``doc_id``."""
    totals = _domain_totals(ds, key_col, "n_tokens")
    total = sum(v for v in totals.values() if v > 0)
    budget = int(budget_tokens) if budget_tokens is not None else total // budget_denom
    items = sorted(
        ((max(0, epoch_cap * v), k, v) for k, v in totals.items()),
        key=lambda cv: (cv[0], cv[1]),
    )
    remaining, k = budget, len(items)
    specs: dict[str, tuple[int, int]] = {}
    for cap, key, mass in items:
        alloc = min(cap, remaining // k)
        remaining -= alloc
        k -= 1
        if mass <= 0:
            specs[key] = (0, 0)
        else:
            # doc-REPEAT semantics (Chung et al. 2023's actual regime —
            # a low-resource domain allocated alloc > mass contributes
            # multiple epochs): every doc repeats floor(alloc/mass)
            # times, and the fractional remainder epoch is the usual
            # hash-threshold subset — E[domain tokens] == alloc exactly.
            full = alloc // mass
            specs[key] = (full, (alloc - full * mass) * SCALE // mass)
    return _sample_with_repeats(ds, specs, key_col=key_col, id_col="doc_id", salt=salt)
