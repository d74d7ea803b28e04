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

    Every sum lives in one flat list per weight kind. Slot 0 is the
    total; each type and each distinct component of every span gets a
    slot the first time it is seen, so a type's span components are
    sliced and looked up once, not once per token. ``add`` adds each
    weight into the total, joint and component slots of its type. Every
    slot starts at 0.0 and receives its weights in token order, so each
    sum is the same left-to-right float sum a dict of running counts
    would hold.

    Tokens must arrive grouped by piece (enumeration order), which lets
    piece coverage be counted with a last-seen piece id instead of sets.
    """

    def __init__(self, n: int, n_compositions: int, kinds: Sequence[str]):
        self.n = n
        self.n_compositions = n_compositions
        self.kinds = tuple(kinds)
        self._spans = _spans(n)
        self._ids: dict = {}  # type key -> type id
        self._slots: list[tuple[int, ...]] = []  # type id -> (0, joint, *components)
        self._span_slots = [{} for _ in self._spans]  # per span: component -> slot
        self._size = 1
        self._sums = [[0.0] for _ in self.kinds]
        self._coverage: list[int] = []
        self._last_piece: list = []
        self._tables: list[TypeTable] | None = None

    def _new_type(self, key: PatternKey) -> int:
        tid = len(self._slots)
        self._ids[key] = tid
        size = self._size
        slots = [0, size]
        size += 1
        for (i, j), span_slots in zip(self._spans, self._span_slots):
            sub = key[i:j]
            slot = span_slots.get(sub)
            if slot is None:
                slot = span_slots[sub] = size
                size += 1
            slots.append(slot)
        fresh = [0.0] * (size - self._size)
        for sums in self._sums:
            sums += fresh
        self._size = size
        self._slots.append(tuple(slots))
        self._coverage.append(0)
        self._last_piece.append(None)
        return tid

    def add(self, piece_id: str, key: PatternKey, weights: Sequence[float]) -> None:
        tid = self._ids.get(key)
        if tid is None:
            tid = self._new_type(key)
        if self._last_piece[tid] != piece_id:
            self._last_piece[tid] = piece_id
            self._coverage[tid] += 1
        slots = self._slots[tid]
        for sums, w in zip(self._sums, weights):
            for slot in slots:
                sums[slot] += w
        self._tables = None

    @property
    def tables(self) -> list[TypeTable]:
        """One TypeTable per weight kind, built on first read after an add.

        Joint and component dicts list their keys in first-seen order, and
        every table shares one coverage mapping.
        """
        if self._tables is None:
            keys = list(self._ids)
            coverage = dict(zip(keys, self._coverage))
            joint_slots = [slots[1] for slots in self._slots]
            self._tables = []
            for kind, sums in zip(self.kinds, self._sums):
                get = sums.__getitem__
                table = TypeTable(self.n, self.n_compositions, kind, sums[0],
                                  dict(zip(keys, map(get, joint_slots))), coverage)
                for span, span_slots in zip(self._spans, self._span_slots):
                    table.parts[span] = dict(zip(span_slots, map(get, span_slots.values())))
                self._tables.append(table)
        return self._tables


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
    denom = 0.0
    for i in range(table.n):
        denom += table.marginal_count(key, i)
    return table.n * f / denom


def am_chi2(key: PatternKey, table: TypeTable) -> float | None:
    if table.joint_count(key) <= 0.0:
        return None
    total = 0.0
    for i in range(1, table.n):
        total += g5_split(key, i, table).chi2()
    return total / (table.n - 1)


def am_g2(key: PatternKey, table: TypeTable) -> float | None:
    if table.joint_count(key) <= 0.0:
        return None
    total = 0.0
    for i in range(1, table.n):
        total += g5_split(key, i, table).g2()
    return total / (table.n - 1)


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
    scale = max(total, 1.0)
    log = math.log
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
            # Contingency2x2's chi2/g2 inlined, in its operation order, so
            # every float matches am_chi2/am_g2 bit for bit.
            chi_sum = g2_sum = 0.0
            for i, prefixes, suffixes in splits:
                pre = prefixes.get(key[:i], 0.0)
                suf = suffixes.get(key[i:], 0.0)
                o12 = pre - f
                o21 = suf - f
                o22 = total - pre - suf + f
                if o12 < 0.0 or o21 < 0.0 or o22 < 0.0:
                    o12 = _checked_cell(o12, scale, "prefix-only")
                    o21 = _checked_cell(o21, scale, "suffix-only")
                    o22 = _checked_cell(o22, scale, "neither")
                r1 = f + o12
                r2 = o21 + o22
                c1 = f + o21
                c2 = o12 + o22
                t = f + o12 + o21 + o22
                e11 = r1 * c1 / t
                e12 = r1 * c2 / t
                e21 = r2 * c1 / t
                e22 = r2 * c2 / t
                if chis is not None:
                    chi = 0.0
                    if e11 > 0.0:
                        d = f - e11
                        chi += d * d / e11
                    if e12 > 0.0:
                        d = o12 - e12
                        chi += d * d / e12
                    if e21 > 0.0:
                        d = o21 - e21
                        chi += d * d / e21
                    if e22 > 0.0:
                        d = o22 - e22
                        chi += d * d / e22
                    chi_sum += chi
                if g2s is not None:
                    g2 = 0.0
                    if f > 0.0:
                        g2 += f * log(f / e11)
                    if o12 > 0.0:
                        g2 += o12 * log(o12 / e12)
                    if o21 > 0.0:
                        g2 += o21 * log(o21 / e21)
                    if o22 > 0.0:
                        g2 += o22 * log(o22 / e22)
                    g2_sum += 2.0 * g2
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
