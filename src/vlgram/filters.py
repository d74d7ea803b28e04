"""Type filters: frequency threshold, harmony criteria, or both.

The harmony filter excludes an n-gram type when any of four criteria
fires: (1) some chord carries a single pitch class; (2) no chord carries
at least three pitch classes; (3) the bass pitch class never changes
across the whole type; (4) some adjacent pair keeps the same bass pitch
class while sharing interval classes above it. The first two keep only
types touching tertian sonorities, the latter two demand genuine pitch
change between adjacent members.

Filters act on aggregated types, never on individual tokens: each kind
keeps the filter classes in KEPT (filter_classes). The harmony criteria
read nothing but the type key, and the chain kernel tests each of a
chain's types once, so the predicate keeps no cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .vlt import PatternKey

FILTER_KINDS = ("none", "frequency", "harmony", "both")
# A type's filter class has bit FREQUENT when its weighted count reaches the
# threshold, and bit HARMONIC when it passes harmony_pass. A kind's index in
# FILTER_KINDS is the set of bits it tests, and it keeps the classes holding them.
FREQUENT, HARMONIC = 1, 2
KEPT = {kind: {cls for cls in range(4) if cls & tests == tests}
        for tests, kind in enumerate(FILTER_KINDS)}
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


def harmony_bits(keys: Sequence[PatternKey], kinds: Sequence[str],
                 similarity: str = "intersect") -> list[int]:
    """Each key's HARMONIC bit, or 0 for every key (harmony_pass does not run)
    when no kind in ``kinds`` tests harmony."""
    if not any(FILTER_KINDS.index(kind) & HARMONIC for kind in kinds):
        return [0] * len(keys)
    return [HARMONIC * harmony_pass(key, similarity) for key in keys]


def filter_classes(counts: Iterable[float], min_count: float,
                   harmony: Iterable[int]) -> list[int]:
    """Each type's filter class from its weighted count and harmony_bits' bit."""
    return [bit | FREQUENT if count >= min_count else bit
            for count, bit in zip(counts, harmony)]
