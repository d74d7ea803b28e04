"""Type aggregation, association measures, and ranked lists.

Aggregation collapses a token stream into per-type weighted counts plus
the component counts the measures need, each the weighted count of a
span ``key[i:j]``: a marginal for each position (a position-two-or-later
element includes its incoming bass motion in its identity), and the
prefix and suffix of every way of splitting the n-gram into two
contiguous components. The suffix at a split keeps the bass motion that
crosses the split, which guarantees the derived 2x2 contingency cells are
never negative. A ``TableBuilder`` records the tokens, and one ordered
pass per skip level (``level_tables``) sums them onto the types' slots.

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
from array import array
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

    ``sums`` and ``covers`` are one skip level's (TableBuilder.level_tables);
    the rest is the builder's. ``count(key, i, j)`` is the weighted count of
    ``key[i:j]``, ``covered(key)`` counts the pieces containing the type,
    and ``total`` is the weighted token count N; scores are ratios of these
    sums.
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
    """Record a pass of tokens, then sum it into tables for several weight kinds.

    ``add`` interns a token's type and records the token in its piece's
    three columns: its narrowest level in each of ``chains`` skip chains,
    type id and ``len(kinds)`` weights. Slot 0 is the total; each type and
    each distinct component of every span gets a slot the first time it is
    seen, so a type's span components are sliced and looked up once.

    ``level_tables`` is the only summer: each read of it, or of ``tables``,
    adds the admitted tokens' weights into zeroed slots in token order
    (pieces in first-seen order), so each sum is the left-to-right float
    sum a dict of running counts would hold for tokens grouped by piece.
    """

    def __init__(self, n: int, n_compositions: int, kinds: Sequence[str], chains: int = 1):
        self.n = n
        self.n_compositions = n_compositions
        self.kinds = tuple(kinds)
        self.chains = chains
        self.ids: dict = {}  # type key -> type id
        self.keys: list = []  # type id -> type key, in first-seen order
        self.slots: list[tuple[int, ...]] = []  # type id -> (0, joint, *components)
        self.span_slots = {span: {} for span in _spans(n)}  # per span: component -> slot
        self._size = 1
        self.records: dict = {}  # piece id -> (levels, type ids, weights) columns

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
        self._size = size
        self.slots.append(tuple(slots))
        return tid

    def add(self, piece_id: str, key: PatternKey, weights: Iterable[float],
            levels: Sequence[int] = (0,)) -> int:
        """Record one token, first admitted at level ``levels[c]`` of chain c, with
        its weights for ``kinds``; returns its type's id, the type's index in ``keys``."""
        tid = self.ids.get(key)
        if tid is None:
            tid = self._new_type(key)
        columns = self.records.get(piece_id)
        if columns is None:
            columns = self.records[piece_id] = (array("i"), array("i"), array("d"))
        narrowest, tids, flat = columns
        narrowest.extend(levels)
        tids.append(tid)
        flat.extend(weights)
        return tid

    def narrowest(self, tid: int, chain: int = 0) -> int | None:
        """The narrowest level of ``chain`` recorded for a token of type ``tid``, or None."""
        return min((level for levels, tids, _ in self.records.values() for level in
                    compress(levels[chain::self.chains], map(tid.__eq__, tids))), default=None)

    @property
    def tables(self) -> list[TypeTable]:
        """One TypeTable per weight kind over the tokens recorded at level 0."""
        return self.level_tables(0)[1]

    def level_tables(self, level: int, chain: int = 0) -> tuple[list[int], list[TypeTable]]:
        """One skip level's type ids, in first-seen order, and a TypeTable per kind.

        One ordered pass over the records adds the weights of the tokens whose
        narrowest level in ``chain`` is at most ``level`` into zeroed sums on
        this builder's slots, so each slot gets the left-to-right float sum of
        that level's tokens, and counts each type's pieces. The tables share
        ``ids``: a type absent from the level reads count 0.0, coverage 0.
        """
        kinds, slots, stride = self.kinds, self.slots, self.chains
        width = len(kinds)
        tids, covers = [], [0] * len(slots)
        sums = [[0.0] * self._size for _ in kinds]
        for piece_id, (levels, type_ids, flat) in self.records.items():
            if len(flat) != width * len(type_ids) or len(levels) != stride * len(type_ids):
                raise ValueError(f"piece {piece_id!r}: {len(flat)} weights recorded for "
                                 f"{len(type_ids)} tokens of {width} weight kinds, and "
                                 f"{len(levels)} levels for {stride} chains")
            admitted = [narrowest <= level for narrowest in levels[chain::stride]]
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
              measures: Sequence[str] = MEASURES, tids: Iterable[int] | None = None,
              above: dict[str, float] | None = None) -> dict[str, list]:
    """Scores for ``measures`` aligned to ``keys``, sharing the shared work.

    A measure other than counts gives None for a type with no weight or a
    zero marginal. Only the parts the requested measures need are computed. ``tids``, when given,
    holds the keys' type ids in the table, so that no key is looked up.

    ``above``, when given, holds the query's score under each of ``measures``,
    and each list then holds the positions, in order, of the types scoring
    strictly above it. Each score is compared where it is computed; chi2 and
    g2 are first bounded from each split's cells a = f, b, c, d, and scored
    exactly only where the bounds leave the comparison open, or a cell is
    clamped. Over the reals,
    X = T(ad - bc)^2/(r1 r2 c1 c2) is their Pearson X^2, and
    x ln x - x + 1 <= (x - 1)^2 for x >= 0 gives
    o ln(o/e) <= (o - e)^2/e + o - e per cell: so G^2 <= 2X and, cell a
    exact, G^2 <= 2(a ln(a/e11) + X - (a - e11)^2/e11 + e11 - a), averaged
    over the splits as scored. Taking r1 = pre, c1 = suf, T = total (within
    5u, u = 2^-53), with 2^-100 < total < 2^100 and
    r1 r2 c1 c2 > 2^-190 total^4 (else scored exactly) so nothing underflows,
    and as X <= T, ad, bc <= sqrt(r1 r2 c1 c2), sum |o - e| <= 2T,
    sum |o ln(o/e)| <= T ln 4: the scored X^2 is within 43uT of X, the bound
    within 24uT; the scored G^2 within 33uT of G^2, the second g2 bound
    within 182uT; averaging adds 3nuT. So the X^2 bound and the scored chi2
    differ by at most (67 + 3n)uT: a bound more than ``(256 + 4n) u total``
    above the query's chi2 puts the type above it, and one that far below
    does not, nor does a g2 bound that far below the query's g2. A tie is
    scored.
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
    log, log2, isnan = math.log, math.log2, math.isnan
    # Each measure keeps the scores above a bar: every score, in a list aligned
    # to keys, or under ``above`` those above the query's, in a dict by position.
    ranking = above is not None
    bar = dict.fromkeys(MEASURES, -math.inf) | (above or {})
    q_count, q_pmi, q_local = bar["counts"], bar["pmi"], bar["pmi-local"]
    q_cov, q_dice, q_chi, q_g2 = bar["pmi-cov"], bar["dice"], bar["chi2"], bar["g2"]
    out = {m: {} if ranking else [None] * len(keys) for m in measures}
    counts = out.get("counts")
    pmis = out.get("pmi")
    locals_ = out.get("pmi-local")
    covs = out.get("pmi-cov")
    dices = out.get("dice")
    chis = out.get("chi2")
    g2s = out.get("g2")
    only_counts = out.keys() <= {"counts"}
    need_pmi = pmis is not None or locals_ is not None or covs is not None
    want_chi, want_g2 = chis is not None, g2s is not None
    if ranking and (want_chi or want_g2):
        slack = (256 + 4 * n) * 2.0 ** -53 * total
        chi_lo, chi_hi, g2_lo = q_chi - slack, q_chi + slack, q_g2 - slack
        den_floor = 2.0 ** -190 * total ** 4 if 2.0 ** -100 < total < 2.0 ** 100 else math.inf
    for idx, tid in enumerate(map(table.ids.get, keys) if tids is None else tids):
        f = 0.0 if tid is None else sums[type_slots[tid][1]]
        if counts is not None and f > q_count:
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
            pmi = log2(p_t / denom)
            if pmis is not None and pmi > q_pmi:
                pmis[idx] = pmi
            if locals_ is not None:
                local = p_t * pmi
                if local > q_local:
                    locals_[idx] = local
            if covs is not None:
                cov = (covers[tid] / comps) * pmi
                if cov > q_cov:
                    covs[idx] = cov
        if dices is not None:
            dice = n * f / msum
            if dice > q_dice:
                dices[idx] = dice
        chi_open, g2_open = want_chi, want_g2
        if ranking and (chi_open or g2_open):
            # Sum the closed-form X^2 of each split's cells, NaN where a cell
            # is clamped or their product underflows, and settle what it can.
            x_sum = 0.0
            for pre_at, suf_at in splits:
                pre = sums[slots[pre_at]]
                suf = sums[slots[suf_at]]
                o12 = pre - f
                o21 = suf - f
                o22 = total - pre - suf + f
                den = pre * (o21 + o22) * suf * (o12 + o22)
                if o12 < 0.0 or o21 < 0.0 or o22 < 0.0 or not den > den_floor:
                    x_sum = math.nan
                    break
                d = f * o22 - o12 * o21
                x_sum += total * d * d / den
            x = x_sum / (n - 1)  # NaN compares false: both stay open
            if chi_open and x > chi_hi:
                chis[idx] = x
            chi_open = chi_open and not (x > chi_hi or x < chi_lo)
            if g2_open and 2.0 * x >= g2_lo:
                g_sum = x_sum
                for pre_at, suf_at in splits:
                    e11 = sums[slots[pre_at]] * sums[slots[suf_at]] / total
                    dev = f - e11
                    g_sum += f * log(f / e11) - dev * dev / e11 - dev
                g2_open = not 2.0 * g_sum / (n - 1) < g2_lo
            else:
                g2_open = g2_open and isnan(x)
        if chi_open or g2_open:
            # The exact pass: each split's cells summed in the scalar oracles' order.
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
                if chi_open:
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
                if g2_open:
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
            chi, g2 = chi_sum / (n - 1), g2_sum / (n - 1)
            if chi_open and chi > q_chi:
                chis[idx] = chi
            if g2_open and g2 > q_g2:
                g2s[idx] = g2
    return {m: list(scores) for m, scores in out.items()} if ranking else out


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
    texts: dict = {}  # each key member's text, formatted once per call
    ranked = [(score, "".join([texts.get(m) or texts.setdefault(m, format_key((m,)))
                               for m in key]), key) for key, score in scored]
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
