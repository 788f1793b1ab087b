"""Large-scale training-data operations (beyond the reference's own
operators): deduplication families (``dedup``), similarity search
(``similarity``), DSIR importance weights (``dsir``), boilerplate-line
removal (``linededup``), text analysis (``textstats``), sectioning + URL
projections (``urlmeta``), approximate distinct sketches (``sketch``), Misra-Gries heavy
hitters (``heavyhitters``), content-defined-chunking dedup (``cdc``),
deterministic domain-mixture sampling (``mixing``), the md5 and
splitmix64 hashes every op shares (``hashing``),
leakage-safe train/holdout splitting (``split``),
multimodal plumbing (``multimodal``), as-of/range joins on the keyed
exchange (``asof``),
and the keyed data-movement layer: ``exchange`` — the one keyed
exchange (one split task per block → one fold task per partition, which
runs a pandas fold through ``partition_map``) and the one keyed-aggregate
primitive on it (``grouped_agg``: pandas fold);
and the one global merge on its core (``tree_reduce``: at most 8
partial blocks per merge task, down to one table — top-k, sketches, Bloom);
``combine`` — mergeable top-k (``tree_topk`` on ``tree_reduce``,
``keyed_topn`` on ``partition_map``).

All are Dataset→Dataset transforms built on ``map_batches`` plus the
custom exchange — no driver-side row loops.
"""

from valere_ocr_ray.ops import (  # noqa: F401
    asof,
    bloom,
    cdc,
    combine,
    decontam,
    dedup,
    dsir,
    exchange,
    hashing,
    heavyhitters,
    incremental,
    invindex,
    joins,
    linear,
    linededup,
    mixing,
    multimodal,
    packing,
    ranged,
    segdedup,
    similarity,
    sketch,
    split,
    textstats,
    urlmeta,
)

__all__ = [
    "asof",
    "bloom",
    "cdc",
    "combine",
    "decontam",
    "dedup",
    "dsir",
    "exchange",
    "hashing",
    "heavyhitters",
    "incremental",
    "invindex",
    "joins",
    "linear",
    "linededup",
    "mixing",
    "multimodal",
    "packing",
    "ranged",
    "segdedup",
    "similarity",
    "sketch",
    "split",
    "textstats",
    "urlmeta",
]
