"""Type aggregation, association measures, and ranked lists.

Aggregation collapses a token stream into per-type weighted counts plus
the component counts the measures need, each the weighted count of a
span ``key[i:j]``: a marginal for each position (a position-two-or-later
element includes its incoming bass motion in its identity), and the
prefix and suffix of every way of splitting the n-gram into two
contiguous components. The suffix at a split keeps the bass motion that
crosses the split, which guarantees the derived 2x2 contingency cells are
never negative.

Measures: plain weighted counts, pointwise mutual information and its
locally- and coverage-scaled variants, the Dice coefficient, and the
chi-squared and log-likelihood statistics extended to n-grams by
averaging over all two-component splits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .vlt import PatternKey, VltPattern, format_pattern

MEASURES = ("counts", "pmi", "pmi-local", "pmi-cov", "dice", "chi2", "g2")

_NEG_TOLERANCE = 1e-9


class TableInvariantError(Exception):
    """A derived contingency cell came out negative: the table is inconsistent."""


def _spans(n: int) -> list[tuple[int, int]]:
    """The component spans a table counts, in a fixed order.

    Each position (i, i+1) is a marginal; (0, i) and (i, n) are the prefix
    and suffix of the split after position i. A boundary prefix or suffix
    is a marginal and is listed once: 3n - 4 spans in all.
    """
    return ([(i, i + 1) for i in range(n)] + [(0, i) for i in range(2, n)]
            + [(i, n) for i in range(1, n - 1)])


@dataclass
class TypeTable:
    """Aggregated counts for one token list.

    ``joint`` maps each type key to its weighted count. ``parts[i, j]``
    maps each component ``key[i:j]`` to its weighted count, for every
    span the measures read (_spans). ``coverage`` counts distinct pieces
    containing each type. ``total`` is the weighted token count N; scores
    are ratios of these sums.
    """

    n: int
    n_compositions: int
    weight_kind: str = "count"
    total: float = 0.0
    joint: dict = field(default_factory=dict)
    parts: dict = field(init=False)
    coverage: dict = field(default_factory=dict)

    def __post_init__(self):
        self.parts = {span: {} for span in _spans(self.n)}

    def joint_count(self, key: PatternKey) -> float:
        return self.joint.get(key, 0.0)

    def marginal_count(self, key: PatternKey, i: int) -> float:
        return self.parts[i, i + 1].get(key[i:i + 1], 0.0)

    def prefix_count(self, key: PatternKey, i: int) -> float:
        return self.parts[0, i].get(key[:i], 0.0)

    def suffix_count(self, key: PatternKey, i: int) -> float:
        return self.parts[i, self.n].get(key[i:], 0.0)

    def coverage_fraction(self, key: PatternKey) -> float:
        return self.coverage.get(key, 0) / self.n_compositions


class TableBuilder:
    """Accumulate one pass of tokens into tables for several weight kinds.

    Tokens must arrive grouped by piece (enumeration order), which lets
    piece coverage be counted with a last-seen piece id instead of sets.
    """

    def __init__(self, n: int, n_compositions: int, kinds: Sequence[str]):
        self.tables = [TypeTable(n, n_compositions, kind) for kind in kinds]
        self._spans = _spans(n)
        self._parts = [list(t.parts.values()) for t in self.tables]
        self.coverage: dict = {}
        self._cov_last: dict = {}
        for t in self.tables:
            t.coverage = self.coverage

    def add(self, piece_id: str, key: PatternKey, weights: Sequence[float]) -> None:
        if self._cov_last.get(key) != piece_id:
            self._cov_last[key] = piece_id
            self.coverage[key] = self.coverage.get(key, 0) + 1
        subs = [key[i:j] for i, j in self._spans]
        for table, parts, w in zip(self.tables, self._parts, weights):
            table.total += w
            joint = table.joint
            joint[key] = joint.get(key, 0.0) + w
            for part, sub in zip(parts, subs):
                part[sub] = part.get(sub, 0.0) + w


def build_type_table(tokens: Iterable, n_compositions: int, n: int,
                     weight_kind: str = "count") -> TypeTable:
    """Aggregate already-weighted tokens (grouped by piece) into a TypeTable."""
    builder = TableBuilder(n, n_compositions, (weight_kind,))
    for tok in tokens:
        builder.add(tok.piece_id, tok.type_key, (tok.weight,))
    return builder.tables[0]


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


def _checked_cell(value: float, scale: float, what: str) -> float:
    if value < 0.0:
        if value >= -_NEG_TOLERANCE * scale:
            return 0.0
        raise TableInvariantError(f"negative {what} cell: {value}")
    return value


def g5_split(key: PatternKey, i: int, table: TypeTable) -> Contingency2x2:
    """The 2x2 table for splitting the type after position ``i`` (1-based)."""
    if not 1 <= i <= table.n - 1:
        raise ValueError(f"split {i} outside 1..{table.n - 1}")
    return _split_cells(table.joint_count(key), table.prefix_count(key, i),
                        table.suffix_count(key, i), table.total)


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
    f = table.joint_count(key)
    if f <= 0.0:
        return None
    n = table.total
    denom = 1.0
    for i in range(table.n):
        m = table.marginal_count(key, i)
        if m <= 0.0:
            return None
        denom *= m / n
    return math.log2((f / n) / denom)


def am_pmi_local(key: PatternKey, table: TypeTable) -> float | None:
    pmi = am_pmi(key, table)
    if pmi is None:
        return None
    return (table.joint_count(key) / table.total) * pmi


def am_pmi_coverage(key: PatternKey, table: TypeTable) -> float | None:
    pmi = am_pmi(key, table)
    if pmi is None:
        return None
    return table.coverage_fraction(key) * pmi


def am_dice(key: PatternKey, table: TypeTable) -> float | None:
    f = table.joint_count(key)
    if f <= 0.0:
        return None
    denom = sum(table.marginal_count(key, i) for i in range(table.n))
    return table.n * f / denom


def am_chi2(key: PatternKey, table: TypeTable) -> float | None:
    if table.joint_count(key) <= 0.0:
        return None
    splits = range(1, table.n)
    return sum(g5_split(key, i, table).chi2() for i in splits) / (table.n - 1)


def am_g2(key: PatternKey, table: TypeTable) -> float | None:
    if table.joint_count(key) <= 0.0:
        return None
    splits = range(1, table.n)
    return sum(g5_split(key, i, table).g2() for i in splits) / (table.n - 1)


def score_type(key: PatternKey, table: TypeTable, measure: str) -> float | None:
    if measure == "counts":
        return table.joint_count(key)
    if measure == "pmi":
        return am_pmi(key, table)
    if measure == "pmi-local":
        return am_pmi_local(key, table)
    if measure == "pmi-cov":
        return am_pmi_coverage(key, table)
    if measure == "dice":
        return am_dice(key, table)
    if measure == "chi2":
        return am_chi2(key, table)
    if measure == "g2":
        return am_g2(key, table)
    raise ValueError(f"unknown measure {measure!r}")


def score_all(table: TypeTable, keys: Sequence[PatternKey],
              measures: Sequence[str] = MEASURES) -> dict[str, list]:
    """Scores for ``measures`` aligned to ``keys``, sharing the shared work.

    A type a measure cannot score gets None, as from score_type. Only the
    parts the requested measures need are computed.
    """
    for measure in measures:
        if measure not in MEASURES:
            raise ValueError(f"unknown measure {measure!r}")
    n = table.n
    total = table.total
    cov = table.coverage
    comps = table.n_compositions
    joint = table.joint
    marginals = list(enumerate(table.parts[i, i + 1] for i in range(n)))
    splits = [(i, table.parts[0, i], table.parts[i, n]) for i in range(1, n)]
    out = {m: [None] * len(keys) for m in measures}
    counts = out.get("counts")
    pmis = out.get("pmi")
    locals_ = out.get("pmi-local")
    covs = out.get("pmi-cov")
    dices = out.get("dice")
    chis = out.get("chi2")
    g2s = out.get("g2")
    only_counts = out.keys() <= {"counts"}
    need_pmi = pmis is not None or locals_ is not None or covs is not None
    need_splits = chis is not None or g2s is not None
    for idx, key in enumerate(keys):
        f = joint.get(key, 0.0)
        if counts is not None:
            counts[idx] = f
        if f <= 0.0 or only_counts:
            continue
        p_t = f / total
        denom = 1.0
        msum = 0.0
        ok = True
        for i, part in marginals:
            m = part.get(key[i:i + 1], 0.0)
            if m <= 0.0:
                ok = False
                break
            denom *= m / total
            msum += m
        if not ok:
            continue
        if need_pmi:
            pmi = math.log2(p_t / denom)
            if pmis is not None:
                pmis[idx] = pmi
            if locals_ is not None:
                locals_[idx] = p_t * pmi
            if covs is not None:
                covs[idx] = (cov.get(key, 0) / comps) * pmi
        if dices is not None:
            dices[idx] = n * f / msum
        if need_splits:
            chi_sum = g2_sum = 0.0
            for i, prefixes, suffixes in splits:
                cells = _split_cells(f, prefixes.get(key[:i], 0.0),
                                     suffixes.get(key[i:], 0.0), total)
                if chis is not None:
                    chi_sum += cells.chi2()
                if g2s is not None:
                    g2_sum += cells.g2()
            if chis is not None:
                chis[idx] = chi_sum / (n - 1)
            if g2s is not None:
                g2s[idx] = g2_sum / (n - 1)
    return out


@dataclass(frozen=True)
class RankedEntry:
    rank: int
    score: float
    key: PatternKey
    count: float
    coverage: int
    text: str


@dataclass
class RankedList:
    """Types in descending score order with competition ranks.

    Equal scores share a rank equal to one plus the number of strictly
    greater scores; ties are ordered by canonical pattern text so output
    is reproducible.
    """

    measure: str
    entries: list[RankedEntry]
    _by_key: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._by_key = {e.key: e for e in self.entries}

    def __len__(self) -> int:
        return len(self.entries)

    def rank_of(self, key: PatternKey) -> int | None:
        entry = self._by_key.get(key)
        return entry.rank if entry else None


def rank_types(scored: Iterable[tuple[PatternKey, float]], table: TypeTable,
               measure: str) -> RankedList:
    """Order scored types descending and assign competition ranks."""
    decorated = sorted(
        ((score, format_pattern(VltPattern.from_key(key)), key) for key, score in scored),
        key=lambda item: (-item[0], item[1]))
    entries = []
    prev_score: float | None = None
    prev_rank = 0
    for pos, (score, text, key) in enumerate(decorated, start=1):
        rank = prev_rank if score == prev_score else pos
        entries.append(RankedEntry(rank, score, key, table.joint_count(key),
                                   table.coverage.get(key, 0), text))
        prev_score, prev_rank = score, rank
    return RankedList(measure, entries)


def rank_table(table: TypeTable, measure: str) -> RankedList:
    scored = []
    for key in table.joint:
        s = score_type(key, table, measure)
        if s is not None:
            scored.append((key, s))
    return rank_types(scored, table, measure)
