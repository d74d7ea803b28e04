"""Enumeration of contiguous, fixed-skip, and variable-skip n-gram tokens.

Tokens are index tuples over a piece's slice sequence, strictly increasing
and emitted in lexicographic order. Fixed mode admits a tuple when the
total number of skipped slices across all gaps stays within the skip
budget. Variable mode admits a tuple when every consecutive pair of
selected members lies within the inter-onset window in performed time,
regardless of how many slices are skipped in between.

The type key of a token recomputes each bass motion between the selected
members, so the same chords picked at different distances can form the
same type. Enumeration is independent per piece; tokens stream out in
piece order so downstream counting can merge deterministically.

The levels of one mode are nested: a ``fixed:t`` tuple is a wider
budget's tuple whose total skip is at most t, and a ``variable:w`` tuple
is a wider window's tuple that passes the window test at w.
``enumerate_chains`` is the one skip walker: it walks a fixed chain and a
variable chain together, once, tagging each token with the narrowest
level of each chain that admits it. ``enumerate_piece`` is a one-level
chain over it.
``SkipConfig`` alone validates a level and spells its label.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import InitVar, dataclass, field
from typing import Iterable, Iterator, Sequence

from .corpus import Corpus, PerformanceDataError, Slice
from .vlt import Chord, PatternKey, VltKey, chord_of, format_key


@dataclass(frozen=True)
class SkipConfig:
    """One enumeration setting: mode, cardinality, and skip budget or window."""

    mode: str                       # "fixed" | "variable"
    n: int
    t: int | None = None            # fixed: total skips allowed (None = unlimited)
    w: float | None = None          # variable: max inter-onset interval, seconds

    def __post_init__(self):
        if self.mode not in ("fixed", "variable"):
            raise ValueError(f"unknown skip mode {self.mode!r}")
        if self.n < 2:
            raise ValueError("cardinality must be at least 2")
        if self.mode == "fixed":
            if self.w is not None:
                raise ValueError("fixed mode takes a skip count, not a window")
            if self.t is not None and self.t < 0:
                raise ValueError("skip count must be non-negative")
        else:
            if self.t is not None:
                raise ValueError("variable mode takes a window, not a skip count")
            if self.w is None or not 0 < self.w < math.inf:  # also rejects nan
                raise ValueError("variable mode needs a finite window > 0 seconds")

    @property
    def bound(self) -> float:
        """The level's reach within its mode: the budget (inf for None) or the window.

        A level admits every token that a level of the same mode and n with
        a lower bound admits.
        """
        if self.mode == "fixed":
            return math.inf if self.t is None else self.t
        return self.w

    @property
    def label(self) -> str:
        if self.mode == "fixed":
            return f"fixed:{self.t if self.t is not None else 'inf'}"
        return f"variable:{self.w:g}"


@dataclass(slots=True)
class SkipToken:
    """One n-gram instance: where it lives and the type it instantiates."""

    piece_id: str
    indices: tuple[int, ...]
    onsets_perf: tuple[float, ...]
    type_key: PatternKey
    weight: float = 1.0


# A type key member's bass motion indexes a chord's member row; the first
# member of a key has no bass motion and sits last.
_MOTIONS = (*range(12), None)


def _member_rows(chords: Sequence[Chord], rows: dict) -> list[tuple[VltKey, ...]]:
    """Each chord's row of type key members ``(intervals, top, motion)``, one per
    bass motion in ``_MOTIONS`` order. Equal chords share the row in ``rows``."""
    out = []
    for chord in chords:
        row = rows.get(chord)
        if row is None:
            intervals, top = chord
            row = rows[chord] = tuple((intervals, top, motion) for motion in _MOTIONS)
        out.append(row)
    return out


@dataclass
class EncodedPiece:
    """Per-slice mining view of a piece: chord identities, bass pcs, performed onsets.

    ``members`` holds each slice's row of type key members (see
    ``_member_rows``), so every token's key is built from shared member
    tuples without allocating them. ``rows``, when given, is a chord ->
    row dict shared with other pieces, so that equal members are one
    object across them.
    """

    piece_id: str
    chords: list[Chord]
    bass_pcs: list[int]
    onsets_perf: list[float | None]
    members: list[tuple[VltKey, ...]] = field(init=False, repr=False, compare=False)
    rows: InitVar[dict | None] = None

    def __post_init__(self, rows):
        self.members = _member_rows(self.chords, {} if rows is None else rows)

    @classmethod
    def from_slices(cls, slices: Sequence[Slice], chords: list[Chord] | None = None,
                    rows: dict | None = None) -> "EncodedPiece":
        """Encode ``slices``; ``chords``, when given, is each slice's chord."""
        return cls(
            piece_id=slices[0].piece_id if slices else "",
            chords=[chord_of(s.pitches) for s in slices] if chords is None else chords,
            bass_pcs=[s.bass % 12 for s in slices],
            onsets_perf=[s.onset_perf for s in slices],
            rows=rows,
        )

    def __len__(self) -> int:
        return len(self.chords)

    def token_at(self, indices: Sequence[int]) -> SkipToken:
        """Build the token for an explicit index tuple."""
        members = self.members
        bass_pcs = self.bass_pcs
        key = []
        prev = None
        for i in indices:
            key.append(members[i][-1 if prev is None else (bass_pcs[i] - bass_pcs[prev]) % 12])
            prev = i
        return SkipToken(
            self.piece_id,
            tuple(indices),
            tuple(self.onsets_perf[i] for i in indices),
            tuple(key),
        )


def enumerate_contiguous(piece: EncodedPiece, n: int) -> Iterator[SkipToken]:
    """All windows of n consecutive slices: max(k - n + 1, 0) tokens."""
    if n < 1:
        raise ValueError("cardinality must be at least 1")
    k = len(piece)
    for start in range(0, k - n + 1):
        yield piece.token_at(range(start, start + n))


def _index_tuples(k: int, n: int, budget: int, onsets: Sequence[float],
                  windows: Sequence[float]) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """Index tuples skipping at most ``budget`` slices (none if negative) or passing
    the widest window test, in lexicographic order, as (total skip, window level,
    indices). The window level indexes the narrowest of ``windows`` admitting
    the tuple, ``len(windows)`` where none does. At w, a member j after member
    ``last`` passes when ``onsets[x] <= onsets[last] + w`` for every x up to j,
    so a tuple needs the widest of its members' narrowest passing windows.
    Both tests only fail more as a member moves right: its loop stops where
    both fail.
    """
    if n > k:
        return
    top = len(windows)
    picked = [0] * n

    def extend(depth: int, last: int, spent: int, level: int
               ) -> Iterator[tuple[int, int, tuple[int, ...]]]:
        remaining = n - depth
        need = top
        if level < top:
            base = onsets[last]
            limits = [base + w for w in windows]
            need = 0
        for j in range(last + 1, k - remaining + 1):
            if need < top:
                onset = onsets[j]
                while onset > limits[need]:
                    need += 1
                    if need == top:
                        break
            at = spent + j - last - 1
            wide = need if need > level else level
            if wide == top and at > budget:
                return
            picked[depth] = j
            if remaining == 1:
                yield at, wide, tuple(picked)
            else:
                yield from extend(depth + 1, j, at, wide)

    for start in range(0, k - n + 1):
        picked[0] = start
        yield from extend(1, start, 0, 0)


def enumerate_chains(piece: EncodedPiece, chains: Sequence[Sequence[SkipConfig]]
                     ) -> Iterator[tuple[tuple[int, ...], SkipToken]]:
    """Every token some level of ``chains`` admits, with its narrowest levels.

    ``chains`` holds ascending chains of one n, at most one per mode; a fixed
    budget of None is the widest. Tuples are walked once, in lexicographic
    order, where the widest budget or window admits them. Each token comes
    with one index per chain, of its narrowest level admitting it or
    ``len(chain)``; those indexed at most L in a chain are exactly
    ``enumerate_piece(piece, chain[L])``, in the same order.
    """
    for chain in chains:
        if not chain:
            raise ValueError("a skip chain needs at least one level")
        if any(c.mode != chain[-1].mode or c.n != chain[-1].n for c in chain):
            raise ValueError("a skip chain's levels must share one mode and one n")
        if any(a.bound >= b.bound for a, b in zip(chain, chain[1:])):
            raise ValueError("a skip chain's levels must strictly ascend")
    modes = [chain[0].mode for chain in chains]
    if not chains or len(set(modes)) < len(modes) or len({c[0].n for c in chains}) > 1:
        raise ValueError("skip chains must share one n and differ in mode")
    fixed, variable = (dict(zip(modes, chains)).get(mode, ()) for mode in ("fixed", "variable"))
    n, k, onsets = chains[0][0].n, len(piece), piece.onsets_perf
    if variable and any(o is None for o in onsets):
        raise PerformanceDataError("performance times required for variable mode")
    budget = -1 if not fixed else k if fixed[-1].t is None else fixed[-1].t
    narrower = [c.t for c in fixed[:-1]]
    # A tuple's total skip indexes the narrowest budget at least that large.
    tags = [[tuple((bisect_left(narrower, spent) if spent <= budget else len(fixed))
                   if mode == "fixed" else need for mode in modes)
             for need in range(len(variable) + 1)] for spent in range(max(k - n, 0) + 1)]
    for spent, need, indices in _index_tuples(k, n, budget, onsets, [c.w for c in variable]):
        yield tags[spent][need], piece.token_at(indices)


def enumerate_piece(piece: EncodedPiece, config: SkipConfig) -> Iterator[SkipToken]:
    """One skip level's tokens in lexicographic order: a one-level chain."""
    for _levels, token in enumerate_chains(piece, ((config,),)):
        yield token


def encode_corpus(corpus: Corpus) -> list[EncodedPiece]:
    """Encode every prepared piece, taking each slice's chord from ``Piece.chords``
    where reduce_corpus filled it. All pieces share one member table."""
    unprepared = [p.piece_id for p in corpus.pieces if not p.slices]
    if unprepared:
        raise ValueError(
            f"corpus is not prepared (no slices for {unprepared[:3]}...); "
            f"call prepare_corpus first")
    rows: dict = {}
    return [EncodedPiece.from_slices(p.slices, p.chords or None, rows) for p in corpus.pieces]


def enumerate_corpus(pieces: Iterable[EncodedPiece],
                     config: SkipConfig) -> Iterator[SkipToken]:
    """Stream tokens piece by piece, in corpus order."""
    for piece in pieces:
        yield from enumerate_piece(piece, config)


def dump_token(tok: SkipToken, weight: float, out) -> None:
    """Write a token as a tab-separated ``piece_id indices type_key weight`` line."""
    indices = ",".join(str(i) for i in tok.indices)
    out.write(f"{tok.piece_id}\t{indices}\t{format_key(tok.type_key)}\t{weight!r}\n")
