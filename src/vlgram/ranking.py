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
averaging over all two-component splits. One scorer, ``score_all``,
computes every measure for a level's types in one pass over their slots;
its scalar oracles, one function per measure over a 2x2 contingency
table, live with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from typing import Iterable, Sequence

from .vlt import PatternKey, format_key

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


@dataclass(frozen=True)
class TypeTable:
    """A read-only view of one weight kind's counts on a TableBuilder's slots.

    ``sums`` is that kind's list of sums; the rest is the builder's, but a
    skip level's table has its own ``covers`` (TableBuilder.level_tables).
    ``count(key, i, j)`` is the weighted count of ``key[i:j]``,
    ``covered(key)`` counts the pieces containing the type, and ``total``
    is the weighted token count N; scores are ratios of these sums.
    """

    n: int
    n_compositions: int
    weight_kind: str
    sums: list
    ids: dict
    slots: list
    span_slots: dict
    covers: list

    @property
    def total(self) -> float:
        return self.sums[0]

    @property
    def joint(self) -> dict:
        """Each type's weighted count, in first-seen order (built on each read)."""
        return dict(zip(self.ids, self.counts(self.ids.values())))

    def counts(self, tids: Iterable[int]) -> list[float]:
        """The weighted counts of the types with ids ``tids``, in that order."""
        sums, slots = self.sums, self.slots
        return [sums[slots[tid][1]] for tid in tids]

    def count(self, key: PatternKey, i: int = 0, j: int | None = None) -> float:
        """The weighted count of ``key[i:j]`` (j defaults to n: the type itself)."""
        if j is None:
            j = self.n
        if i == 0 and j == self.n:
            tid = self.ids.get(key)
            slot = None if tid is None else self.slots[tid][1]
        else:
            slot = self.span_slots[i, j].get(key[i:j])
        return 0.0 if slot is None else self.sums[slot]

    def covered(self, key: PatternKey) -> int:
        tid = self.ids.get(key)
        return 0 if tid is None else self.covers[tid]


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

    The chain kernel (evaluation._level) adds its tokens with no weights, to
    intern their types, and sums each level in one pass (``level_tables``);
    the per-token sums of ``add`` and ``tables`` are that pass's oracle.
    """

    def __init__(self, n: int, n_compositions: int, kinds: Sequence[str]):
        self.n = n
        self.n_compositions = n_compositions
        self.kinds = tuple(kinds)
        self.ids: dict = {}  # type key -> type id
        self.keys: list = []  # type id -> type key, in first-seen order
        self.slots: list[tuple[int, ...]] = []  # type id -> (0, joint, *components)
        self.span_slots = {span: {} for span in _spans(n)}  # per span: component -> slot
        self._size = 1
        self.sums = [[0.0] for _ in self.kinds]  # per weight kind: slot -> sum
        self.covers: list[int] = []  # type id -> pieces containing the type
        self._last_piece: list = []

    def _new_type(self, key: PatternKey) -> int:
        tid = len(self.slots)
        self.ids[key] = tid
        self.keys.append(key)
        size = self._size
        slots = [0, size]
        size += 1
        for (i, j), span_slots in self.span_slots.items():
            sub = key[i:j]
            slot = span_slots.get(sub)
            if slot is None:
                slot = span_slots[sub] = size
                size += 1
            slots.append(slot)
        fresh = [0.0] * (size - self._size)
        for sums in self.sums:
            sums += fresh
        self._size = size
        self.slots.append(tuple(slots))
        self.covers.append(0)
        self._last_piece.append(None)
        return tid

    def add(self, piece_id: str, key: PatternKey, weights: Sequence[float]) -> PatternKey:
        """Add one token's weights; returns the key object the builder stores for its type."""
        return self.keys[self.add_id(piece_id, key, weights)]

    def add_id(self, piece_id: str, key: PatternKey, weights: Sequence[float]) -> int:
        """Add one token's weights; returns its type's id, the type's index in ``keys``."""
        tid = self.ids.get(key)
        if tid is None:
            tid = self._new_type(key)
        if self._last_piece[tid] != piece_id:
            self._last_piece[tid] = piece_id
            self.covers[tid] += 1
        slots = self.slots[tid]
        for sums, w in zip(self.sums, weights):
            for slot in slots:
                sums[slot] += w
        return tid

    @property
    def tables(self) -> list[TypeTable]:
        """One TypeTable view per weight kind; later adds show through."""
        return [TypeTable(self.n, self.n_compositions, kind, sums, self.ids, self.slots,
                          self.span_slots, self.covers)
                for kind, sums in zip(self.kinds, self.sums)]

    def level_tables(self, records: Iterable[tuple], level: int,
                     kinds: Sequence[str]) -> tuple[list[int], list[TypeTable]]:
        """One skip level's type ids, in first-seen order, and a TypeTable per kind.

        ``records`` holds, per piece, a chain's tokens as three columns: narrowest
        level, type id (``add_id``) and weights for ``kinds``. One ordered pass adds
        the weights of the tokens whose level is at most ``level`` into zeroed sums
        on this builder's slots, so each slot gets the left-to-right float sum that
        ``add`` makes fed that level alone, and counts each type's pieces. The tables
        share ``ids``: a chain type absent from the level reads count 0.0, coverage 0.
        """
        width, slots = len(kinds), self.slots
        tids, covers = [], [0] * len(slots)
        sums = [[0.0] * self._size for _ in kinds]
        for levels, type_ids, flat in records:
            admitted = [narrowest <= level for narrowest in levels]
            level_ids = list(compress(type_ids, admitted))
            for tid in dict.fromkeys(level_ids):
                if not covers[tid]:
                    tids.append(tid)
                covers[tid] += 1
            token_slots = list(map(slots.__getitem__, level_ids))
            for k, level_sums in enumerate(sums):
                for type_slots, w in zip(token_slots, compress(flat[k::width], admitted)):
                    for slot in type_slots:
                        level_sums[slot] += w
        return tids, [TypeTable(self.n, self.n_compositions, kind, level_sums, self.ids, slots,
                                self.span_slots, covers) for kind, level_sums in zip(kinds, sums)]


def build_type_table(tokens: Iterable, n_compositions: int, n: int,
                     weight_kind: str = "count") -> TypeTable:
    """Aggregate already-weighted tokens (grouped by piece) into a TypeTable
    (no command calls it; the benchmark's traced mine does)."""
    builder = TableBuilder(n, n_compositions, (weight_kind,))
    for tok in tokens:
        builder.add(tok.piece_id, tok.type_key, (tok.weight,))
    return builder.tables[0]


def _checked_cell(value: float, scale: float, what: str) -> float:
    if value < 0.0:
        if value >= -_NEG_TOLERANCE * scale:
            return 0.0
        raise TableInvariantError(f"negative {what} cell: {value}")
    return value


def score_all(table: TypeTable, keys: Sequence[PatternKey],
              measures: Sequence[str] = MEASURES,
              tids: Iterable[int] | None = None) -> dict[str, list]:
    """Scores for ``measures`` aligned to ``keys``, sharing the shared work.

    A measure other than counts gives None for a type with no weight or a
    zero marginal. Only the parts the requested measures need are computed. ``tids``, when given,
    holds the keys' type ids in the table, so that no key is looked up.
    """
    for measure in measures:
        if measure not in MEASURES:
            raise ValueError(f"unknown measure {measure!r}")
    n = table.n
    sums = table.sums
    total = sums[0]
    type_slots = table.slots
    covers = table.covers
    comps = table.n_compositions
    # Where each count sits in a type's slot tuple (0, joint, *components):
    # marginal i at 2 + i, the prefix and suffix of split i at their spans'.
    at = {span: pos for pos, span in enumerate(table.span_slots, start=2)}
    marginals = range(2, 2 + n)
    splits = [(at[0, i], at[i, n]) for i in range(1, n)]
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
    for idx, tid in enumerate(map(table.ids.get, keys) if tids is None else tids):
        f = 0.0 if tid is None else sums[type_slots[tid][1]]
        if counts is not None:
            counts[idx] = f
        if f <= 0.0 or only_counts:
            continue
        slots = type_slots[tid]
        p_t = f / total
        denom = 1.0
        msum = 0.0
        ok = True
        for pos in marginals:
            m = sums[slots[pos]]
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
                covs[idx] = (covers[tid] / comps) * pmi
        if dices is not None:
            dices[idx] = n * f / msum
        if need_splits:
            # Each split's 2x2 cells, margins and expectations, summed cell
            # by cell in a fixed order: the scalar oracles' operation order.
            chi_sum = g2_sum = 0.0
            for pre_at, suf_at in splits:
                pre = sums[slots[pre_at]]
                suf = sums[slots[suf_at]]
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


def score_type(key: PatternKey, table: TypeTable, measure: str) -> float | None:
    """One type's score under one measure (an adapter over score_all, kept for
    the benchmark's traced mine)."""
    return score_all(table, (key,), (measure,))[measure][0]


@dataclass(frozen=True, slots=True)
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

    def __len__(self) -> int:
        return len(self.entries)

    def rank_of(self, key: PatternKey) -> int | None:
        """The type's rank, or None when it is not listed (a scan of the entries)."""
        return next((e.rank for e in self.entries if e.key == key), None)


def rank_types(scored: Iterable[tuple[PatternKey, float]], table: TypeTable,
               measure: str) -> RankedList:
    """Order scored types descending and assign competition ranks.

    ``scored`` may be any iterable, a generator included; it is read once.
    One list is sorted, and its items are replaced by the entries in place.
    """
    ranked = [(score, format_key(key), key) for key, score in scored]
    # Two stable sorts order by score descending, ties by text ascending,
    # without building a sort key per type.
    ranked.sort(key=itemgetter(1))
    ranked.sort(key=itemgetter(0), reverse=True)
    prev_score: float | None = None
    prev_rank = 0
    for pos, (score, text, key) in enumerate(ranked):
        rank = prev_rank if score == prev_score else pos + 1
        ranked[pos] = RankedEntry(rank, score, key, table.count(key), table.covered(key), text)
        prev_score, prev_rank = score, rank
    return RankedList(measure, ranked)
