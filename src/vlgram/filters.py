"""Type filters: frequency threshold, harmony criteria, or both.

The harmony filter excludes an n-gram type when any of four criteria
fires: (1) some chord carries a single pitch class; (2) no chord carries
at least three pitch classes; (3) the bass pitch class never changes
across the whole type; (4) some adjacent pair keeps the same bass pitch
class while sharing interval classes above it. The first two keep only
types touching tertian sonorities, the latter two demand genuine pitch
change between adjacent members.

Filters act on aggregated types, never on individual tokens, and are
written once, as keep-masks over a level's types (keep_masks). The
harmony criteria read nothing but the type key, so the predicate is
cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .vlt import PatternKey

FILTER_KINDS = ("none", "frequency", "harmony", "both")
DEFAULT_MIN_COUNT = 10.0
SIMILARITY_MODES = ("intersect", "identical")


@dataclass(frozen=True)
class FilterSpec:
    kind: str = "none"
    min_count: float = DEFAULT_MIN_COUNT
    similarity: str = "intersect"

    def __post_init__(self):
        if self.kind not in FILTER_KINDS:
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if self.min_count < 0:
            raise ValueError("frequency threshold must be non-negative")
        if self.similarity not in SIMILARITY_MODES:
            raise ValueError(f"unknown similarity mode {self.similarity!r}")


@lru_cache(maxsize=262144)
def harmony_pass(key: PatternKey, similarity: str = "intersect") -> bool:
    """True when the type survives all four harmony criteria."""
    sizes = [len(intervals) for intervals, _top, _motion in key]
    if any(size == 0 for size in sizes):
        return False
    if all(size < 2 for size in sizes):
        return False
    motions = [motion for _ivs, _top, motion in key[1:]]
    if all(m == 0 for m in motions):
        return False
    for (prev_ivs, _pt, _pm), (cur_ivs, _ct, motion) in zip(key, key[1:]):
        if motion != 0:
            continue
        if similarity == "identical":
            if prev_ivs == cur_ivs:
                return False
        elif set(prev_ivs) & set(cur_ivs):
            return False
    return True


def harmony_mask(keys: Sequence[PatternKey], kinds: Sequence[str],
                 similarity: str = "intersect") -> list[bool] | None:
    """harmony_pass of each key, or None when no filter in ``kinds`` reads it."""
    if not {"harmony", "both"} & set(kinds):
        return None
    return [harmony_pass(k, similarity) for k in keys]


def keep_masks(kinds: Sequence[str], counts: Sequence[float], min_count: float,
               harmony: Sequence[bool] | None) -> dict[str, list[bool]]:
    """Which types each filter kind keeps, aligned with ``counts``.

    ``frequency`` keeps a weighted count of at least ``min_count``,
    ``harmony`` keeps a type passing harmony_pass (``harmony``, from
    harmony_mask), and ``both`` keeps a type both of them keep.
    """
    freq = [c >= min_count for c in counts]
    masks = {"none": [True] * len(counts), "frequency": freq, "harmony": harmony,
             "both": harmony and [f and h for f, h in zip(freq, harmony)]}
    return {kind: masks[kind] for kind in kinds}
