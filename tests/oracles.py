"""Scalar oracles, one function per weighting (``w_*``) and per measure (``am_*``),
that the library's one weigher (``weigh_all``) and one scorer (``score_all``) must
match bit for bit, the per-slice chord reduction (``reduce_oversized``) that
``reduce_corpus`` must match, and the contiguous n-grams (``enumerate_contiguous``)
that a zero skip budget must reproduce. Not named ``test_*``, so pytest collects
nothing here."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

from vlgram.corpus import Slice, _ranked, _reduce
from vlgram.ranking import (RankedList, TableInvariantError, TypeTable, _checked_cell,
                            rank_types)
from vlgram.skipgram import EncodedPiece, SkipToken
from vlgram.vlt import SLOT_COUNT, PatternKey, chord_of
from vlgram.weighting import (PROXIMITY_HALF_LIFE_S, RESONANCE_PEAK, _TWO_PI, _iois,
                              resonance_amplitude)


def wrap_phase(x: float) -> float:
    """Remainder after division by 1, remapped onto [-0.5, 0.5)."""
    return (x + 0.5) % 1.0 - 0.5


def mean_resultant_length(onsets: Sequence[float], period: float) -> float:
    """Phase concentration of the onsets against one candidate period."""
    phi = 0.0
    sr, si = 1.0, 0.0
    prev = onsets[0]
    for onset in onsets[1:]:
        phi = wrap_phase(phi + (onset - prev) / period)
        a = _TWO_PI * phi
        sr += math.cos(a)
        si += math.sin(a)
        prev = onset
    return math.sqrt(sr * sr + si * si) / len(onsets)


def _periodicity_detail(onsets: Sequence[float]) -> tuple[float, float | None]:
    """Minimum mean resultant length over candidate periods and its argmin.

    Candidate periods are the token's consecutive performed IOIs; zero
    candidates (simultaneous onsets) are skipped. Ties go to the shorter
    period. When every candidate is zero the token counts as perfectly
    contiguous: weight 1, no usable period.
    """
    candidates = sorted({ioi for ioi in _iois(onsets) if ioi > 0.0})
    if not candidates:
        return 1.0, None
    best_r = math.inf
    best_p = None
    for p in candidates:
        r = mean_resultant_length(onsets, p)
        if r < best_r:
            best_r, best_p = r, p
    return best_r, best_p


def _resonance_from_period(period: float | None) -> float:
    if period is None:
        return 0.0
    raw = resonance_amplitude(1.0 / period)
    return max(raw, 0.0) / RESONANCE_PEAK[1]


def w_count(onsets: Sequence[float]) -> float:
    """Indicator weight: every enumerated token counts exactly once."""
    return 1.0


def w_periodicity(onsets: Sequence[float]) -> float:
    return _periodicity_detail(onsets)[0]


def w_resonance(onsets: Sequence[float]) -> float:
    return _resonance_from_period(_periodicity_detail(onsets)[1])


def w_proximity(onsets: Sequence[float],
                half_life: float = PROXIMITY_HALF_LIFE_S) -> float:
    """Mean exponential decay over the token's IOIs, summed left to right."""
    iois = _iois(onsets)
    total = 0.0
    for ioi in iois:
        total += 2.0 ** (-ioi / half_life)
    return total / len(iois)


def w_resonant_periodicity(onsets: Sequence[float]) -> float:
    r, period = _periodicity_detail(onsets)
    return r * _resonance_from_period(period)


_WEIGHERS = {"count": w_count, "periodicity": w_periodicity, "resonance": w_resonance,
             "proximity": w_proximity, "resonant_periodicity": w_resonant_periodicity}


def weigh_onsets(onsets: Sequence[float], kind: str) -> float:
    return _WEIGHERS[kind](onsets)


@dataclass(frozen=True)
class Contingency2x2:
    """Observed 2x2 cells with margins and independence expectations."""

    o11: float
    o12: float
    o21: float
    o22: float

    def __post_init__(self):
        if min(self.o11, self.o12, self.o21, self.o22) < 0.0:
            raise TableInvariantError(f"negative contingency cell: {self.cells()}")

    @property
    def r1(self) -> float:
        return self.o11 + self.o12

    @property
    def r2(self) -> float:
        return self.o21 + self.o22

    @property
    def c1(self) -> float:
        return self.o11 + self.o21

    @property
    def c2(self) -> float:
        return self.o12 + self.o22

    @property
    def total(self) -> float:
        return self.o11 + self.o12 + self.o21 + self.o22

    def cells(self) -> tuple[float, float, float, float]:
        return (self.o11, self.o12, self.o21, self.o22)

    def expected(self) -> tuple[float, float, float, float]:
        n = self.total
        return (self.r1 * self.c1 / n, self.r1 * self.c2 / n,
                self.r2 * self.c1 / n, self.r2 * self.c2 / n)

    def chi2(self) -> float:
        total = 0.0
        for o, e in zip(self.cells(), self.expected()):
            if e > 0.0:
                d = o - e
                total += d * d / e
        return total

    def g2(self) -> float:
        total = 0.0
        for o, e in zip(self.cells(), self.expected()):
            if o > 0.0:
                total += o * math.log(o / e)
        return 2.0 * total


def g5_split(key: PatternKey, i: int, table: TypeTable) -> Contingency2x2:
    """The 2x2 table for splitting the type after position ``i`` (1-based)."""
    if not 1 <= i <= table.n - 1:
        raise ValueError(f"split {i} outside 1..{table.n - 1}")
    return _split_cells(table.count(key), table.count(key, 0, i), table.count(key, i),
                        table.total)


def _split_cells(o11: float, r1: float, c1: float, n: float) -> Contingency2x2:
    """The 2x2 table from a joint count, its prefix and suffix counts, and N."""
    scale = max(n, 1.0)
    o12 = _checked_cell(r1 - o11, scale, "prefix-only")
    o21 = _checked_cell(c1 - o11, scale, "suffix-only")
    o22 = _checked_cell(n - r1 - c1 + o11, scale, "neither")
    return Contingency2x2(o11, o12, o21, o22)


def am_pmi(key: PatternKey, table: TypeTable) -> float | None:
    """Base-2 log ratio of the observed to the independence probability.

    Undefined (None) for types with no observed weight or a zero marginal;
    such types are dropped from this measure's list rather than scored.
    """
    f = table.count(key)
    if f <= 0.0:
        return None
    n = table.total
    denom = 1.0
    for i in range(table.n):
        m = table.count(key, i, i + 1)
        if m <= 0.0:
            return None
        denom *= m / n
    return math.log2((f / n) / denom)


def am_pmi_local(key: PatternKey, table: TypeTable) -> float | None:
    pmi = am_pmi(key, table)
    if pmi is None:
        return None
    return (table.count(key) / table.total) * pmi


def am_pmi_coverage(key: PatternKey, table: TypeTable) -> float | None:
    pmi = am_pmi(key, table)
    if pmi is None:
        return None
    return (table.covered(key) / table.n_compositions) * pmi


def am_dice(key: PatternKey, table: TypeTable) -> float | None:
    f = table.count(key)
    if f <= 0.0:
        return None
    denom = 0.0
    for i in range(table.n):
        denom += table.count(key, i, i + 1)
    return table.n * f / denom


def am_chi2(key: PatternKey, table: TypeTable) -> float | None:
    if table.count(key) <= 0.0:
        return None
    total = 0.0
    for i in range(1, table.n):
        total += g5_split(key, i, table).chi2()
    return total / (table.n - 1)


def am_g2(key: PatternKey, table: TypeTable) -> float | None:
    if table.count(key) <= 0.0:
        return None
    total = 0.0
    for i in range(1, table.n):
        total += g5_split(key, i, table).g2()
    return total / (table.n - 1)


_SCORERS = {"pmi": am_pmi, "pmi-local": am_pmi_local, "pmi-cov": am_pmi_coverage,
            "dice": am_dice, "chi2": am_chi2, "g2": am_g2}


def score_scalar(key: PatternKey, table: TypeTable, measure: str) -> float | None:
    """One type's score under one measure, read through ``table.count``/``covered``."""
    if measure == "counts":
        return table.count(key)
    return _SCORERS[measure](key, table)


def rank_table(table: TypeTable, measure: str) -> RankedList:
    scored = []
    for key in table.ids:
        s = score_scalar(key, table, measure)
        if s is not None:
            scored.append((key, s))
    return rank_types(scored, table, measure)


def reduce_oversized(s: Slice, neighbors: Counter, piece_pop: Counter,
                     corpus_pop: Counter) -> tuple[Slice, bool]:
    """One slice reduced against its three raw populations (corpus._reduce),
    each ranked afresh, if it is oversized; returns the slice and whether it was
    reduced."""
    chord = chord_of(s.pitches)
    if len(chord[0]) <= SLOT_COUNT:
        return s, False
    reduced, _chord = _reduce(s, chord, map(_ranked, (neighbors, piece_pop, corpus_pop)))
    return reduced, True


def enumerate_contiguous(piece: EncodedPiece, n: int) -> Iterator[SkipToken]:
    """All windows of n consecutive slices: max(k - n + 1, 0) tokens."""
    if n < 1:
        raise ValueError("cardinality must be at least 1")
    k = len(piece)
    for start in range(0, k - n + 1):
        yield piece.token_at(range(start, start + n))
