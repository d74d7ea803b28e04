"""Note-event corpora: parsing, vertical expansion, and chord reduction.

The interchange format is UTF-8 (a leading byte-order mark is ignored),
one note per line (ended by LF, CR LF or CR) with tab-separated fields::

    piece_id  onset_score  duration_score  pitch  [onset_perf  duration_perf]

Score times are rational beats in float range, written as ``p/q`` or
decimals; performed times are seconds, pitch is a MIDI number 0..127, and
every number is ASCII without ``_``. Lines starting with ``#`` are comments.
A corpus is a file or a directory of files.

Expansion slices a piece at every distinct note onset; a slice contains
every note whose half-open sounding interval [onset, onset + duration)
covers the slice onset. Parsing and expansion are pure per piece, so
distinct pieces may be processed concurrently and merged in piece order.

Score times stay ``Fraction``s on every note and slice, and in all printed
text. Parsing reads each distinct time text once per call. Sorting,
slicing and performed-onset anchoring compare them as exact integer
ticks at the piece's common denominator (see ``_ticks``), never as
``Fraction``s.
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

from .vlt import SLOT_COUNT, Chord, chord_of, chord_pitches

logger = logging.getLogger(__name__)

REDUCTION_WINDOW = 5
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


@dataclass
class Piece:
    """A piece's notes and, once prepared, its slices and each slice's chord.

    ``chords`` is filled by reduce_corpus, one per slice, equal chords as one
    object; it is empty until then.
    """

    piece_id: str
    notes: list[NoteEvent]
    slices: list[Slice] = field(default_factory=list)
    synthetic_tempo: bool = False
    chords: list[Chord] = field(default_factory=list)


@dataclass
class Corpus:
    pieces: list[Piece]
    warnings: list[str] = field(default_factory=list)

    @property
    def n_compositions(self) -> int:
        return len(self.pieces)


def _time(text: str, times: dict[str, tuple[Fraction, int, int]]) -> tuple[Fraction, int, int]:
    """A score-time text as ``(value, numerator, denominator)``, parsed once per ``times``."""
    parsed = times.get(text)
    if parsed is None:
        value = Fraction(text)
        float(value)  # OverflowError past float range: no performed time could be rendered
        parsed = times[text] = (value, value.numerator, value.denominator)
    return parsed


def _parse_line(line: str, line_no: int, source: str,
                times: dict[str, tuple[Fraction, int, int]]) -> tuple[NoteEvent, int, int]:
    """One note row, and its onset's numerator and denominator."""
    fields = line.split("\t")
    if len(fields) not in (4, 6):
        raise CorpusParseError(
            f"expected 4 or 6 tab-separated fields, got {len(fields)}", line_no, source)
    piece_id = fields[0].strip()
    if not piece_id:
        raise CorpusParseError("empty piece id", line_no, source)
    if "_" in line or not line.isascii():  # int(), Fraction() and float() read "1_0", "٣"
        numbers = "".join(line[len(fields[0]):].split())  # as their strip(), drop Unicode spaces
        if "_" in numbers or not numbers.isascii():
            raise CorpusParseError("numbers must be ASCII, without '_'", line_no, source)
    try:
        onset, onset_num, onset_den = _time(fields[1].strip(), times)
        duration, duration_num, _ = _time(fields[2].strip(), times)
        pitch = int(fields[3].strip())
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise CorpusParseError(f"bad numeric field: {exc}", line_no, source) from None
    if onset_num < 0:
        raise CorpusParseError(f"negative onset {onset}", line_no, source)
    if duration_num <= 0:
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
    note = NoteEvent(piece_id, onset, duration, pitch, onset_perf, duration_perf)
    return note, onset_num, onset_den


def _lines(text: str) -> list[str]:
    r"""``text`` split at \n, \r\n and \r only, unlike str.splitlines (at \f, U+2028...)."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _decode(data: bytes, source: str) -> str:
    """UTF-8 ``data`` as text less a leading BOM; a bad byte raises CorpusParseError."""
    data = data.removeprefix(b"\xef\xbb\xbf")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = len(_lines(data[:exc.start].decode("utf-8")))
        raise CorpusParseError(f"cannot decode byte {data[exc.start]:#04x} as UTF-8 "
                               f"({exc.reason})", line_no, source) from None


def read_text(path: "str | Path") -> str:
    """The UTF-8 text of the file at ``path``, as _decode reads it."""
    return _decode(Path(path).read_bytes(), str(path))


def _iter_sources(source) -> Iterable[tuple[str, Iterable[str]]]:
    if hasattr(source, "read"):
        name = getattr(source, "name", "<stream>")
        data = source.read()
        if isinstance(data, bytes):
            data = _decode(data, name)
        yield name, _lines(data)
        return
    path = Path(source)
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.is_file() and not p.name.startswith("."))
        if not files:
            raise EmptyCorpusError(f"no corpus files in {path}")
        for p in files:
            yield str(p), _lines(read_text(p))
    else:
        yield str(path), _lines(read_text(path))


def parse_corpus(source: "str | Path | IO") -> Corpus:
    """Parse note events from a file, directory, or open stream.

    Notes are grouped into one piece per distinct piece id (in order of
    first appearance) and sorted by score onset. Malformed rows raise
    CorpusParseError naming the line; duplicate (piece, onset, pitch)
    rows are dropped, each recorded in ``Corpus.warnings`` and all of them
    logged as one warning; an input with no notes at all raises
    EmptyCorpusError. Each distinct time text is parsed once per call, and
    notes whose times have the same text share one ``Fraction``.
    """
    pieces: dict[str, list[NoteEvent]] = {}
    seen: set[tuple[str, int, int, int]] = set()
    times: dict[str, tuple[Fraction, int, int]] = {}
    warnings: list[str] = []
    for name, lines in _iter_sources(source):
        for line_no, line in enumerate(lines, start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            note, onset_num, onset_den = _parse_line(line, line_no, name, times)
            dup_key = (note.piece_id, onset_num, onset_den, note.pitch)
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
        _, (onsets,) = _ticks([n.onset_score for n in notes])
        order = sorted(zip(onsets, [n.pitch for n in notes], range(len(notes))))
        ordered.append(Piece(piece_id, [notes[i] for _, _, i in order]))
    return Corpus(ordered, warnings)


def _ticks(*columns: Sequence[Fraction]) -> tuple[int, list[list[int]]]:
    """Score times as exact integer ticks of ``1/scale`` beat.

    ``scale`` is the lcm of every denominator in ``columns``, so each time
    ``num/den`` is the tick ``num * (scale // den)``. Ticks compare, hash
    and add exactly as their Fractions do, and ``tick / scale`` equals
    ``float(time)`` bit for bit: both are correctly rounded divisions of
    the same rational.
    """
    ratios = [[t.as_integer_ratio() for t in column] for column in columns]
    scale = math.lcm(*{den for column in ratios for _, den in column})
    return scale, [[num * (scale // den) for num, den in column] for column in ratios]


def expand(notes: Sequence[NoteEvent]) -> list[Slice]:
    """Slice a piece at every distinct note onset.

    Each slice holds all notes sounding at its onset under half-open
    sounding intervals: a note ending exactly at an onset does not sound
    in that slice. A slice's onset is its first note's ``Fraction``.
    """
    if not notes:
        raise ValueError("cannot expand an empty piece")
    _, (onsets, durations) = _ticks([n.onset_score for n in notes],
                                    [n.duration_score for n in notes])
    events = sorted(zip(onsets, [n.pitch for n in notes], durations, range(len(notes))))
    piece_id = notes[0].piece_id
    slices = []
    active: list[tuple[int, int]] = []  # (offset tick, pitch) heap
    pos = 0
    while pos < len(events):
        onset, _, _, first = events[pos]
        while pos < len(events) and events[pos][0] == onset:
            _, pitch, duration, _ = events[pos]
            heappush(active, (onset + duration, pitch))
            pos += 1
        while active and active[0][0] <= onset:
            heappop(active)
        pitches = tuple(sorted({p for _, p in active}))
        slices.append(Slice(piece_id, len(slices), notes[first].onset_score, pitches))
    return slices


def assign_performed_onsets(notes: Sequence[NoteEvent],
                            slices: Sequence[Slice]) -> list[Slice]:
    """Attach performed onsets to slices by anchoring and linear interpolation.

    A slice whose score onset carries at least one performed note onset is
    anchored to the minimum such time. Other slices are interpolated in
    score time between the nearest anchors, and extrapolated from the two
    nearest anchors beyond the first and last.
    """
    scale, (note_ticks, slice_ticks) = _ticks([n.onset_score for n in notes],
                                              [s.onset_score for s in slices])
    anchor_map: dict[int, float] = {}
    for tick, n in zip(note_ticks, notes):
        perf = n.onset_perf
        if perf is None:
            continue
        prev = anchor_map.get(tick)
        if prev is None or perf < prev:
            anchor_map[tick] = perf
    anchors = sorted(anchor_map.items())
    if len(anchors) < 2:
        raise PerformanceDataError(f"piece {notes[0].piece_id}: insufficient performance anchors")
    for (s0, p0), (s1, p1) in zip(anchors, anchors[1:]):
        if p1 < p0:
            raise PerformanceDataError(
                f"piece {notes[0].piece_id}: performed onsets not monotone with score onsets "
                f"(beat {Fraction(s0, scale)} at {p0}s, beat {Fraction(s1, scale)} at {p1}s)")
    scores = [tick / scale for tick, _ in anchors]
    perfs = [p for _, p in anchors]

    def interpolate(tick: int) -> float:
        exact = anchor_map.get(tick)
        if exact is not None:
            return exact
        x = tick / scale
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
        Slice(s.piece_id, s.index, s.onset_score, s.pitches, interpolate(tick))
        for s, tick in zip(slices, slice_ticks)
    ]


def render_fixed_tempo(slices: Sequence[Slice], bpm: float = FALLBACK_BPM) -> list[Slice]:
    """Synthesize performed onsets for a score-only piece at a fixed tempo."""
    spb = 60.0 / bpm
    return [
        Slice(s.piece_id, s.index, s.onset_score, s.pitches, float(s.onset_score) * spb)
        for s in slices
    ]


def _ranked(population: Counter) -> list[frozenset[int]]:
    """The interval-class sets of ``population`` usable as a reduction, best first.

    A usable set holds 1 to SLOT_COUNT classes. Preference order: larger
    set, then more frequent, then lexicographically smallest. No two sets
    tie, so the first subset of an oversized set is its best reduction.
    """
    usable = [icset for icset in population if 1 <= len(icset) <= SLOT_COUNT]
    usable.sort(key=lambda icset: (len(icset), population[icset],
                                   tuple(-iv for iv in sorted(icset))), reverse=True)
    return usable


def _reduce(s: Slice, chord: Chord, rankings: Iterable[list[frozenset[int]]]
            ) -> tuple[Slice, Chord]:
    """Reduce slice ``s``, of chord ``chord`` with more than three interval classes
    above the bass, to at most three; returns the slice and the chord it is voiced from.

    ``rankings`` holds the populations of the surrounding slices, the whole
    piece and the whole corpus, each ranked by _ranked. The replacement is
    the best maximal-cardinality subset of the slice's interval classes
    found in the first of them that offers one. If no population offers any
    subset, the three lowest interval classes are kept and a warning is logged. The
    kept chord is voiced over the same bass by chord_pitches. Its top class
    is the slice's when that survives, else the kept class nearest it
    (circular distance, smaller class on ties).
    """
    ics, top = chord
    oversized = frozenset(ics)
    for ranked in rankings:
        kept = next((icset for icset in ranked if icset <= oversized), None)
        if kept is not None:
            break
    else:
        logger.warning("%s slice %d: no reduction candidate for %s; keeping lowest three",
                       s.piece_id, s.index, ics)
        kept = ics[:SLOT_COUNT]
    if top is not None and top not in kept:
        top = min(kept, key=lambda iv: (min((iv - top) % 12, (top - iv) % 12), iv))
    chord = (tuple(sorted(kept)), top)
    pitches = chord_pitches(chord, s.bass)
    return Slice(s.piece_id, s.index, s.onset_score, pitches, s.onset_perf), chord


@dataclass
class PrepareStats:
    n_slices: int = 0
    n_reduced: int = 0


def reduce_corpus(corpus: Corpus) -> PrepareStats:
    """Apply oversized-chord reduction across an expanded corpus, in place.

    Reference populations are measured on the original, pre-reduction
    interval-class sets, so the result does not depend on processing order.
    Each piece's population and the corpus's are ranked once. The chord of
    each distinct pitch tuple is computed once, and each slice's chord is
    kept in ``Piece.chords``: a reduced slice's is the chord it was voiced
    from. Equal chords, and their interval-class sets, are one object
    across the corpus.
    """
    stats = PrepareStats()
    # Each distinct chord's one object and its interval-class set, by chord
    # and by every distinct pitch tuple voicing it.
    by_chord: dict[Chord, tuple[Chord, frozenset[int]]] = {}
    by_pitches: dict[tuple[int, ...], tuple[Chord, frozenset[int]]] = {}
    for piece in corpus.pieces:
        for pitches in {s.pitches for s in piece.slices} - by_pitches.keys():
            chord = chord_of(pitches)
            by_pitches[pitches] = by_chord.setdefault(chord, (chord, frozenset(chord[0])))
    piece_entries = [[by_pitches[s.pitches] for s in piece.slices] for piece in corpus.pieces]
    corpus_ranked = _ranked(Counter(icset for entries in piece_entries for _, icset in entries))
    for piece, entries in zip(corpus.pieces, piece_entries):
        chords = [chord for chord, _ in entries]
        sets = [icset for _, icset in entries]
        piece_ranked = _ranked(Counter(sets))
        for i, s in enumerate(piece.slices):
            stats.n_slices += 1
            if len(sets[i]) <= SLOT_COUNT:
                continue
            lo = max(0, i - REDUCTION_WINDOW)
            window = sets[lo:i] + sets[i + 1:i + 1 + REDUCTION_WINDOW]
            neighbors = Counter(icset for icset in window if icset <= sets[i])
            reduced, chord = _reduce(s, chords[i], (_ranked(neighbors), piece_ranked,
                                                    corpus_ranked))
            piece.slices[i] = reduced
            chords[i] = by_chord.setdefault(chord, (chord, frozenset(chord[0])))[0]
            stats.n_reduced += 1
        piece.chords = chords
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
    return reduce_corpus(corpus)
