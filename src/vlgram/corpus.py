"""Note-event corpora: parsing, vertical expansion, and chord reduction.

The interchange format is line-oriented UTF-8 (a leading byte-order mark
is ignored), one note per line with tab-separated fields::

    piece_id  onset_score  duration_score  pitch  [onset_perf  duration_perf]

Score times are rational beats written as ``p/q`` or decimals, performed
times are seconds, pitch is a MIDI number 0..127. Lines starting with
``#`` are comments. A corpus is a single file or a directory of files.

Expansion slices a piece at every distinct note onset; a slice contains
every note whose half-open sounding interval [onset, onset + duration)
covers the slice onset. Parsing and expansion are pure per piece, so
distinct pieces may be processed concurrently and merged in piece order.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappush, heappop
from pathlib import Path
from typing import IO, Iterable, Sequence

logger = logging.getLogger(__name__)

REDUCTION_WINDOW = 5
MAX_INTERVAL_CLASSES = 3
FALLBACK_BPM = 100


class CorpusError(Exception):
    pass


class CorpusParseError(CorpusError):
    def __init__(self, message: str, line_no: int, source: str = ""):
        where = f"{source}:{line_no}" if source else f"line {line_no}"
        super().__init__(f"{where}: {message}")
        self.line_no = line_no
        self.source = source


class EmptyCorpusError(CorpusError):
    pass


class PerformanceDataError(CorpusError):
    pass


@dataclass(slots=True)
class NoteEvent:
    """One note with score-time coordinates and optional performed times."""

    piece_id: str
    onset_score: Fraction
    duration_score: Fraction
    pitch: int
    onset_perf: float | None = None
    duration_perf: float | None = None

    @property
    def offset_score(self) -> Fraction:
        return self.onset_score + self.duration_score


@dataclass(slots=True)
class Slice:
    """A vertical sonority: every pitch sounding at one distinct onset."""

    piece_id: str
    index: int
    onset_score: Fraction
    pitches: tuple[int, ...]
    onset_perf: float | None = None

    @property
    def bass(self) -> int:
        return self.pitches[0]

    @property
    def top(self) -> int:
        return self.pitches[-1]

    @property
    def interval_classes(self) -> tuple[int, ...]:
        """Distinct non-zero interval classes above the bass, ascending."""
        bass = self.pitches[0]
        return tuple(sorted({(p - bass) % 12 for p in self.pitches} - {0}))

    @property
    def top_interval(self) -> int:
        return (self.pitches[-1] - self.pitches[0]) % 12


@dataclass
class Piece:
    piece_id: str
    notes: list[NoteEvent]
    slices: list[Slice] = field(default_factory=list)
    synthetic_tempo: bool = False


@dataclass
class Corpus:
    pieces: list[Piece]
    warnings: list[str] = field(default_factory=list)

    @property
    def n_compositions(self) -> int:
        return len(self.pieces)


def _parse_rational(text: str) -> Fraction:
    return Fraction(text)


def _parse_line(line: str, line_no: int, source: str) -> NoteEvent:
    fields = line.split("\t")
    if len(fields) not in (4, 6):
        raise CorpusParseError(
            f"expected 4 or 6 tab-separated fields, got {len(fields)}", line_no, source)
    piece_id = fields[0].strip()
    if not piece_id:
        raise CorpusParseError("empty piece id", line_no, source)
    try:
        onset = _parse_rational(fields[1].strip())
        duration = _parse_rational(fields[2].strip())
        pitch = int(fields[3].strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise CorpusParseError(f"bad numeric field: {exc}", line_no, source) from None
    if onset < 0:
        raise CorpusParseError(f"negative onset {onset}", line_no, source)
    if duration <= 0:
        raise CorpusParseError(f"non-positive duration {duration}", line_no, source)
    if not 0 <= pitch <= 127:
        raise CorpusParseError(f"pitch {pitch} outside 0..127", line_no, source)
    onset_perf = duration_perf = None
    if len(fields) == 6:
        try:
            onset_perf = float(fields[4])
            duration_perf = float(fields[5])
        except ValueError as exc:
            raise CorpusParseError(f"bad performed time: {exc}", line_no, source) from None
        if not (math.isfinite(onset_perf) and math.isfinite(duration_perf)):
            raise CorpusParseError(
                f"non-finite performed time ({fields[4]!r}, {fields[5]!r})", line_no, source)
        if onset_perf < 0:
            raise CorpusParseError(f"negative performed onset {onset_perf}", line_no, source)
        if duration_perf <= 0:
            raise CorpusParseError(
                f"non-positive performed duration {duration_perf}", line_no, source)
    return NoteEvent(piece_id, onset, duration, pitch, onset_perf, duration_perf)


def _iter_sources(source) -> Iterable[tuple[str, Iterable[str]]]:
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8-sig")
        yield getattr(source, "name", "<stream>"), data.splitlines()
        return
    path = Path(source)
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.is_file() and not p.name.startswith("."))
        if not files:
            raise EmptyCorpusError(f"no corpus files in {path}")
        for p in files:
            yield str(p), p.read_text(encoding="utf-8-sig").splitlines()
    else:
        yield str(path), path.read_text(encoding="utf-8-sig").splitlines()


def parse_corpus(source: "str | Path | IO") -> Corpus:
    """Parse note events from a file, directory, or open stream.

    Notes are grouped into one piece per distinct piece id (in order of
    first appearance) and sorted by score onset. Malformed rows raise
    CorpusParseError naming the line; duplicate (piece, onset, pitch)
    rows are dropped, each recorded in ``Corpus.warnings`` and all of them
    logged as one warning; an input with no notes at all raises
    EmptyCorpusError.
    """
    pieces: dict[str, list[NoteEvent]] = {}
    seen: set[tuple[str, Fraction, int]] = set()
    warnings: list[str] = []
    for name, lines in _iter_sources(source):
        for line_no, raw in enumerate(lines, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            note = _parse_line(line, line_no, name)
            dup_key = (note.piece_id, note.onset_score, note.pitch)
            if dup_key in seen:
                msg = (f"{name}:{line_no}: duplicate note "
                       f"({note.piece_id}, {note.onset_score}, {note.pitch}); keeping first")
                warnings.append(msg)
                continue
            seen.add(dup_key)
            pieces.setdefault(note.piece_id, []).append(note)
    if warnings:
        logger.warning("%s (%d duplicate rows dropped in all)", warnings[0], len(warnings))
    if not pieces:
        raise EmptyCorpusError("corpus contains no note events")
    ordered = []
    for piece_id, notes in pieces.items():
        notes.sort(key=lambda n: (n.onset_score, n.pitch))
        ordered.append(Piece(piece_id, notes))
    return Corpus(ordered, warnings)


def expand(notes: Sequence[NoteEvent]) -> list[Slice]:
    """Slice a piece at every distinct note onset.

    Each slice holds all notes sounding at its onset under half-open
    sounding intervals: a note ending exactly at an onset does not sound
    in that slice.
    """
    if not notes:
        raise ValueError("cannot expand an empty piece")
    by_onset = sorted(notes, key=lambda n: (n.onset_score, n.pitch))
    onsets = sorted({n.onset_score for n in notes})
    piece_id = notes[0].piece_id
    slices = []
    active: list[tuple[Fraction, int, int]] = []  # (offset, tiebreak, pitch) heap
    pos = 0
    counter = 0
    for index, onset in enumerate(onsets):
        while pos < len(by_onset) and by_onset[pos].onset_score <= onset:
            note = by_onset[pos]
            heappush(active, (note.offset_score, counter, note.pitch))
            counter += 1
            pos += 1
        while active and active[0][0] <= onset:
            heappop(active)
        pitches = tuple(sorted({p for _, _, p in active}))
        slices.append(Slice(piece_id, index, onset, pitches))
    return slices


def assign_performed_onsets(notes: Sequence[NoteEvent],
                            slices: Sequence[Slice]) -> list[Slice]:
    """Attach performed onsets to slices by anchoring and linear interpolation.

    A slice whose score onset carries at least one performed note onset is
    anchored to the minimum such time. Other slices are interpolated in
    score time between the nearest anchors, and extrapolated from the two
    nearest anchors beyond the first and last.
    """
    anchor_map: dict[Fraction, float] = {}
    for n in notes:
        if n.onset_perf is None:
            continue
        prev = anchor_map.get(n.onset_score)
        if prev is None or n.onset_perf < prev:
            anchor_map[n.onset_score] = n.onset_perf
    anchors = sorted(anchor_map.items())
    if len(anchors) < 2:
        raise PerformanceDataError("insufficient performance anchors")
    for (s0, p0), (s1, p1) in zip(anchors, anchors[1:]):
        if p1 < p0:
            raise PerformanceDataError(
                f"performed onsets not monotone with score onsets "
                f"(beat {s0} at {p0}s, beat {s1} at {p1}s)")
    scores = [float(s) for s, _ in anchors]
    perfs = [p for _, p in anchors]

    def interpolate(score: Fraction) -> float:
        exact = anchor_map.get(score)
        if exact is not None:
            return exact
        x = float(score)
        j = bisect_left(scores, x)
        if j == 0:
            lo, hi = 0, 1
        elif j >= len(scores):
            lo, hi = len(scores) - 2, len(scores) - 1
        else:
            lo, hi = j - 1, j
        slope = (perfs[hi] - perfs[lo]) / (scores[hi] - scores[lo])
        return perfs[lo] + (x - scores[lo]) * slope

    return [
        Slice(s.piece_id, s.index, s.onset_score, s.pitches, interpolate(s.onset_score))
        for s in slices
    ]


def render_fixed_tempo(slices: Sequence[Slice], bpm: float = FALLBACK_BPM) -> list[Slice]:
    """Synthesize performed onsets for a score-only piece at a fixed tempo."""
    spb = 60.0 / bpm
    return [
        Slice(s.piece_id, s.index, s.onset_score, s.pitches, float(s.onset_score) * spb)
        for s in slices
    ]


def _candidate_reduction(oversized: frozenset[int],
                         population: Counter) -> tuple[int, ...] | None:
    """Best interval-class set in ``population`` that is a subset of ``oversized``.

    Preference order: larger set, then more frequent, then lexicographically
    smallest. Returns None when the population offers no usable subset.
    """
    best = None
    best_rank = None
    for icset, freq in population.items():
        if not 1 <= len(icset) <= MAX_INTERVAL_CLASSES:
            continue
        if not oversized.issuperset(icset):
            continue
        rank = (len(icset), freq, tuple(-iv for iv in sorted(icset)))
        if best_rank is None or rank > best_rank:
            best_rank = rank
            best = icset
    return best


def _rebuild_slice(s: Slice, kept: tuple[int, ...]) -> Slice:
    """Rewrite a slice's pitches so its interval-class set becomes ``kept``.

    The bass pitch is preserved. The top voice keeps its interval class when
    that class survives; otherwise the top marker moves to the retained class
    nearest the original top interval (circular distance, smaller class on
    ties). The octave placement of the rebuilt upper voices is synthetic,
    which is immaterial to the mod-12 encoding downstream.
    """
    bass = s.bass
    top_ic = s.top_interval
    if top_ic != 0 and top_ic not in kept:
        top_ic = min(kept, key=lambda iv: (min((iv - top_ic) % 12, (top_ic - iv) % 12), iv))
    pitches = {bass}
    for iv in kept:
        pitches.add(bass + iv)
    if top_ic == 0:
        if kept:
            pitches.add(bass + 12)
    else:
        pitches.discard(bass + top_ic)
        pitches.add(bass + 12 + top_ic)
    return Slice(s.piece_id, s.index, s.onset_score, tuple(sorted(pitches)), s.onset_perf)


def reduce_oversized(s: Slice, neighbors: Counter, piece_pop: Counter,
                     corpus_pop: Counter) -> tuple[Slice, bool]:
    """Reduce a slice to at most three interval classes above the bass.

    The replacement is the best maximal-cardinality subset of the slice's
    interval classes found in the surrounding slices, then the whole piece,
    then the whole corpus. A slice already within the limit is returned
    unchanged. If no population offers any subset, the three lowest interval
    classes are kept and a warning is logged.
    """
    ics = s.interval_classes
    if len(ics) <= MAX_INTERVAL_CLASSES:
        return s, False
    oversized = frozenset(ics)
    for population in (neighbors, piece_pop, corpus_pop):
        kept = _candidate_reduction(oversized, population)
        if kept is not None:
            return _rebuild_slice(s, kept), True
    logger.warning("%s slice %d: no reduction candidate for %s; keeping lowest three",
                   s.piece_id, s.index, ics)
    return _rebuild_slice(s, tuple(sorted(ics)[:MAX_INTERVAL_CLASSES])), True


@dataclass
class PrepareStats:
    n_slices: int = 0
    n_reduced: int = 0
    fallback_pieces: list[str] = field(default_factory=list)

    @property
    def reduced_fraction(self) -> float:
        return self.n_reduced / self.n_slices if self.n_slices else 0.0


def reduce_corpus(corpus: Corpus) -> PrepareStats:
    """Apply oversized-chord reduction across an expanded corpus, in place.

    Reference populations are measured on the original, pre-reduction
    interval-class sets, so the result does not depend on processing order.
    """
    stats = PrepareStats()
    piece_sets = {}
    corpus_pop: Counter = Counter()
    for piece in corpus.pieces:
        sets = [frozenset(s.interval_classes) for s in piece.slices]
        piece_sets[piece.piece_id] = sets
        corpus_pop.update(sets)
    for piece in corpus.pieces:
        sets = piece_sets[piece.piece_id]
        piece_pop = Counter(sets)
        for i, s in enumerate(piece.slices):
            stats.n_slices += 1
            if len(s.interval_classes) <= MAX_INTERVAL_CLASSES:
                continue
            lo = max(0, i - REDUCTION_WINDOW)
            neighbors = Counter(sets[lo:i] + sets[i + 1:i + 1 + REDUCTION_WINDOW])
            reduced, replaced = reduce_oversized(s, neighbors, piece_pop, corpus_pop)
            piece.slices[i] = reduced
            if replaced:
                stats.n_reduced += 1
    return stats


def prepare_corpus(corpus: Corpus) -> PrepareStats:
    """Expand every piece, assign performed onsets, and reduce oversized chords.

    Pieces with no performed times anywhere are rendered at FALLBACK_BPM
    and flagged; pieces with performed times on fewer than two distinct
    onsets raise PerformanceDataError.
    """
    for piece in corpus.pieces:
        slices = expand(piece.notes)
        if any(n.onset_perf is not None for n in piece.notes):
            piece.slices = assign_performed_onsets(piece.notes, slices)
        else:
            piece.slices = render_fixed_tempo(slices)
            piece.synthetic_tempo = True
    stats = reduce_corpus(corpus)
    stats.fallback_pieces = [p.piece_id for p in corpus.pieces if p.synthetic_tempo]
    return stats
