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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .corpus import Corpus, PerformanceDataError, Piece, Slice
from .vlt import PatternKey, VltPattern

ChordId = tuple[tuple[int, ...], "int | None"]


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
            if self.w is None or self.w <= 0:
                raise ValueError("variable mode needs a window > 0 seconds")

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

    @property
    def pattern(self) -> VltPattern:
        return VltPattern.from_key(self.type_key)


@dataclass
class EncodedPiece:
    """Per-slice mining view of a piece: chord identities, bass pcs, performed onsets."""

    piece_id: str
    chords: list[ChordId]
    bass_pcs: list[int]
    onsets_perf: list[float | None]

    @classmethod
    def from_piece(cls, piece: Piece) -> "EncodedPiece":
        return cls.from_slices(piece.slices)

    @classmethod
    def from_slices(cls, slices: Sequence[Slice]) -> "EncodedPiece":
        chords = []
        for s in slices:
            top_ic = s.top_interval
            chords.append((s.interval_classes, top_ic if top_ic else None))
        return cls(
            piece_id=slices[0].piece_id if slices else "",
            chords=chords,
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


def _variable_index_tuples(onsets: Sequence[float], n: int,
                           w: float) -> Iterator[tuple[int, ...]]:
    k = len(onsets)
    if n > k:
        return
    picked = [0] * n

    def extend(depth: int, last: int) -> Iterator[tuple[int, ...]]:
        remaining = n - depth
        limit = onsets[last] + w
        for j in range(last + 1, k - remaining + 1):
            if onsets[j] > limit:
                break
            picked[depth] = j
            if remaining == 1:
                yield tuple(picked)
            else:
                yield from extend(depth + 1, j)

    for start in range(0, k - n + 1):
        picked[0] = start
        yield from extend(1, start)


def enumerate_contiguous(piece: EncodedPiece, n: int) -> Iterator[SkipToken]:
    """All windows of n consecutive slices: max(k - n + 1, 0) tokens."""
    if n < 1:
        raise ValueError("cardinality must be at least 1")
    k = len(piece)
    for start in range(0, k - n + 1):
        yield piece.token_at(range(start, start + n))


def enumerate_fixed_skip(piece: EncodedPiece, n: int, t: int | None) -> Iterator[SkipToken]:
    """All index tuples whose skipped-slice total stays within ``t``.

    ``t`` of None lifts the budget entirely, yielding every combination.
    ``t=0`` reproduces the contiguous enumeration exactly.
    """
    if n < 2:
        raise ValueError("cardinality must be at least 2")
    if t is not None and t < 0:
        raise ValueError("skip count must be non-negative")
    for indices in _fixed_index_tuples(len(piece), n, t):
        yield piece.token_at(indices)


def enumerate_variable_skip(piece: EncodedPiece, n: int, w: float) -> Iterator[SkipToken]:
    """All index tuples whose consecutive performed IOIs are each ≤ ``w`` seconds."""
    if n < 2:
        raise ValueError("cardinality must be at least 2")
    if w <= 0:
        raise ValueError("window must be positive")
    onsets = piece.onsets_perf
    if any(o is None for o in onsets):
        raise PerformanceDataError("performance times required for variable mode")
    for indices in _variable_index_tuples(onsets, n, w):
        yield piece.token_at(indices)


def enumerate_piece(piece: EncodedPiece, config: SkipConfig) -> Iterator[SkipToken]:
    if config.mode == "fixed":
        return enumerate_fixed_skip(piece, config.n, config.t)
    return enumerate_variable_skip(piece, config.n, config.w)


def encode_corpus(corpus: Corpus) -> list[EncodedPiece]:
    unprepared = [p.piece_id for p in corpus.pieces if not p.slices]
    if unprepared:
        raise ValueError(
            f"corpus is not prepared (no slices for {unprepared[:3]}...); "
            f"call prepare_corpus first")
    return [EncodedPiece.from_piece(p) for p in corpus.pieces]


def enumerate_corpus(pieces: Iterable[EncodedPiece],
                     config: SkipConfig) -> Iterator[SkipToken]:
    """Stream tokens piece by piece, in corpus order."""
    for piece in pieces:
        yield from enumerate_piece(piece, config)


def dump_tokens(tokens: Iterable[SkipToken], out) -> int:
    """Write tokens as tab-separated ``piece_id indices type_key weight`` lines."""
    count = 0
    for tok in tokens:
        indices = ",".join(str(i) for i in tok.indices)
        out.write(f"{tok.piece_id}\t{indices}\t{tok.pattern}\t{tok.weight!r}\n")
        count += 1
    return count
