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
``enumerate_nested`` is the one skip walker: it enumerates a chain of
levels once, tagging each of the widest level's tokens with the narrowest
level that admits it. ``enumerate_piece`` is a one-level chain.
``SkipConfig`` alone validates a level and spells its label.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .corpus import Corpus, PerformanceDataError, Slice
from .vlt import Chord, PatternKey, chord_of, format_key


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


@dataclass
class EncodedPiece:
    """Per-slice mining view of a piece: chord identities, bass pcs, performed onsets."""

    piece_id: str
    chords: list[Chord]
    bass_pcs: list[int]
    onsets_perf: list[float | None]

    @classmethod
    def from_slices(cls, slices: Sequence[Slice]) -> "EncodedPiece":
        return cls(
            piece_id=slices[0].piece_id if slices else "",
            chords=[chord_of(s.pitches) for s in slices],
            bass_pcs=[s.bass % 12 for s in slices],
            onsets_perf=[s.onset_perf for s in slices],
        )

    def __len__(self) -> int:
        return len(self.chords)

    def token_at(self, indices: Sequence[int]) -> SkipToken:
        """Build the token for an explicit index tuple."""
        key = []
        prev = None
        for i in indices:
            ivs, top = self.chords[i]
            motion = None if prev is None else (self.bass_pcs[i] - self.bass_pcs[prev]) % 12
            key.append((ivs, top, motion))
            prev = i
        return SkipToken(
            self.piece_id,
            tuple(indices),
            tuple(self.onsets_perf[i] for i in indices),
            tuple(key),
        )


def _fixed_index_tuples(k: int, n: int, t: int | None) -> Iterator[tuple[int, ...]]:
    if n > k:
        return
    max_total = k - n if t is None else min(t, k - n)
    picked = [0] * n

    def extend(depth: int, last: int, spent: int) -> Iterator[tuple[int, ...]]:
        remaining = n - depth
        hi = min(last + 1 + max_total - spent, k - remaining)
        for j in range(last + 1, hi + 1):
            picked[depth] = j
            if remaining == 1:
                yield tuple(picked)
            else:
                yield from extend(depth + 1, j, spent + (j - last - 1))

    for start in range(0, k - n + 1):
        picked[0] = start
        yield from extend(1, start, 0)


def enumerate_contiguous(piece: EncodedPiece, n: int) -> Iterator[SkipToken]:
    """All windows of n consecutive slices: max(k - n + 1, 0) tokens."""
    if n < 1:
        raise ValueError("cardinality must be at least 1")
    k = len(piece)
    for start in range(0, k - n + 1):
        yield piece.token_at(range(start, start + n))


def _nested_variable_index_tuples(onsets: Sequence[float], n: int, windows: Sequence[float]
                                  ) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The widest window's tuples, each with the narrowest window index admitting it.

    With a single window ``w`` the walker extends a tuple past member
    ``last`` through the slices before the first j with ``onsets[j] >
    onsets[last] + w``. So a member j needs the narrowest window passing
    that test at every slice after ``last`` up to j, and a tuple needs the
    widest of its members' needs.
    """
    k = len(onsets)
    if n > k:
        return
    top = len(windows) - 1
    picked = [0] * n

    def extend(depth: int, last: int, level: int) -> Iterator[tuple[int, tuple[int, ...]]]:
        remaining = n - depth
        base = onsets[last]
        limits = [base + w for w in windows]
        need = 0
        for j in range(last + 1, k - remaining + 1):
            onset = onsets[j]
            while onset > limits[need]:
                if need == top:
                    return
                need += 1
            picked[depth] = j
            if remaining == 1:
                yield max(level, need), tuple(picked)
            else:
                yield from extend(depth + 1, j, max(level, need))

    for start in range(0, k - n + 1):
        picked[0] = start
        yield from extend(1, start, 0)


def enumerate_nested(piece: EncodedPiece,
                     chain: Sequence[SkipConfig]) -> Iterator[tuple[int, SkipToken]]:
    """The widest level's tokens, each with the index of the narrowest level admitting it.

    ``chain`` holds ascending levels of one mode and one n; a fixed budget
    of None is the widest. The tokens come in the widest level's order,
    and those with an index of at most L are exactly
    ``enumerate_piece(piece, chain[L])``, in the same order.
    """
    if not chain:
        raise ValueError("a skip chain needs at least one level")
    widest = chain[-1]
    if any(c.mode != widest.mode or c.n != widest.n for c in chain):
        raise ValueError("a skip chain's levels must share one mode and one n")
    if any(a.bound >= b.bound for a, b in zip(chain, chain[1:])):
        raise ValueError("a skip chain's levels must strictly ascend")
    n = widest.n
    if widest.mode == "fixed":
        k = len(piece)
        budgets = [c.t for c in chain[:-1]]
        # A tuple's total skip, indices[-1] - indices[0] - (n - 1), indexes
        # the narrowest budget at least that large.
        level_of = [bisect_left(budgets, spent) for spent in range(max(k - n, 0) + 1)]
        span = n - 1
        for indices in _fixed_index_tuples(k, n, widest.t):
            yield level_of[indices[-1] - indices[0] - span], piece.token_at(indices)
        return
    onsets = piece.onsets_perf
    if any(o is None for o in onsets):
        raise PerformanceDataError("performance times required for variable mode")
    for level, indices in _nested_variable_index_tuples(onsets, n, [c.w for c in chain]):
        yield level, piece.token_at(indices)


def enumerate_piece(piece: EncodedPiece, config: SkipConfig) -> Iterator[SkipToken]:
    """One skip level's tokens in lexicographic order: a one-level chain."""
    for _level, token in enumerate_nested(piece, (config,)):
        yield token


def encode_corpus(corpus: Corpus) -> list[EncodedPiece]:
    unprepared = [p.piece_id for p in corpus.pieces if not p.slices]
    if unprepared:
        raise ValueError(
            f"corpus is not prepared (no slices for {unprepared[:3]}...); "
            f"call prepare_corpus first")
    return [EncodedPiece.from_slices(p.slices) for p in corpus.pieces]


def enumerate_corpus(pieces: Iterable[EncodedPiece],
                     config: SkipConfig) -> Iterator[SkipToken]:
    """Stream tokens piece by piece, in corpus order."""
    for piece in pieces:
        yield from enumerate_piece(piece, config)


def dump_token(tok: SkipToken, weight: float, out) -> None:
    """Write a token as a tab-separated ``piece_id indices type_key weight`` line."""
    indices = ",".join(str(i) for i in tok.indices)
    out.write(f"{tok.piece_id}\t{indices}\t{format_key(tok.type_key)}\t{weight!r}\n")
