"""Voice-leading type encoding and its plain-text pattern notation.

A chord is reduced to an ordered triple of facts: the set of distinct
non-zero interval classes sounding above the bass (octave doublings and
voice permutations discarded), the interval class carried by the highest
voice, and the melodic interval class of the bass relative to the
previous chord. All intervals are semitones modulo 12.

The codec every module shares: ``chord_of`` encodes ascending pitches
as a chord ``(intervals, top)``, ``chord_pitches`` voices a chord over a
bass pitch, and ``format_key`` writes a type key, one ``(intervals, top,
bass_motion)`` triple per chord, as pattern text. ``parse_pattern`` reads
pattern text into the validated ``VltPattern``.

The text notation writes each chord as three comma-separated slots in
angle brackets, e.g. ``<5,9*,_>``. A slot is an interval class or ``_``
for an unused slot; the asterisk marks the interval class of the top
voice, and a chord with no asterisk has its top voice doubling the bass
at the unison or octave. Chords are joined by the incoming bass interval
in square brackets: ``<5,9*,_>[0]<4,7*,10>[5]<4,_,_>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

SLOT_COUNT = 3

Chord = tuple[tuple[int, ...], "int | None"]
VltKey = tuple[tuple[int, ...], "int | None", "int | None"]
PatternKey = tuple[VltKey, ...]


class PatternSyntaxError(ValueError):
    """Raised when pattern text does not match the chord grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Vlt:
    """One chord: interval classes above the bass, top-voice marker, bass motion.

    ``intervals`` is sorted ascending and never contains 0 or duplicates.
    ``top`` is the interval class of the highest voice, or None when the
    top voice doubles the bass. ``bass_motion`` is the interval class from
    the previous bass to this one, None for the first chord of a sequence.
    """

    intervals: tuple[int, ...]
    top: int | None = None
    bass_motion: int | None = None

    def __post_init__(self):
        ivs = self.intervals
        if len(ivs) > SLOT_COUNT:
            raise ValueError(f"more than {SLOT_COUNT} interval classes: {ivs}")
        if any(not 1 <= iv <= 11 for iv in ivs):
            raise ValueError(f"interval classes must be 1..11: {ivs}")
        if list(ivs) != sorted(set(ivs)):
            raise ValueError(f"interval classes must be sorted and distinct: {ivs}")
        if self.top is not None and self.top not in ivs:
            raise ValueError(f"top marker {self.top} not among intervals {ivs}")
        if self.bass_motion is not None and not 0 <= self.bass_motion <= 11:
            raise ValueError(f"bass motion must be 0..11: {self.bass_motion}")

    @property
    def key(self) -> VltKey:
        return (self.intervals, self.top, self.bass_motion)


@dataclass(frozen=True)
class VltPattern:
    """An ordered sequence of chords; only the first has undefined bass motion."""

    chords: tuple[Vlt, ...]

    def __post_init__(self):
        if not self.chords:
            raise ValueError("pattern must contain at least one chord")
        if self.chords[0].bass_motion is not None:
            raise ValueError("first chord must have undefined bass motion")
        for i, chord in enumerate(self.chords[1:], start=2):
            if chord.bass_motion is None:
                raise ValueError(f"chord {i} is missing its bass motion")

    def __len__(self) -> int:
        return len(self.chords)

    @property
    def key(self) -> PatternKey:
        return tuple(c.key for c in self.chords)

    def __str__(self) -> str:
        return format_key(self.key)


def chord_of(pitches: Sequence[int]) -> Chord:
    """The chord of ascending ``pitches``: interval classes above the bass, top class.

    The top class is None when the highest pitch doubles the bass at the
    unison or an octave.
    """
    bass = pitches[0]
    return (tuple(sorted({(p - bass) % 12 for p in pitches} - {0})),
            (pitches[-1] - bass) % 12 or None)


def chord_pitches(chord: Chord, bass: int) -> tuple[int, ...]:
    """An ascending voicing of ``chord`` over the ``bass`` pitch; chord_of inverts it.

    Each interval class but the top sounds once in the octave above the
    bass. The top class sounds an octave higher as the highest voice, and
    a chord with no top class doubles the bass there instead.
    """
    intervals, top = chord
    pitches = {bass} | {bass + iv for iv in intervals if iv != top}
    if top is not None:
        pitches.add(bass + 12 + top)
    elif intervals:
        pitches.add(bass + 12)
    return tuple(sorted(pitches))


def format_chord(chord: Chord) -> str:
    intervals, top = chord
    slots = [f"{iv}*" if iv == top else str(iv) for iv in intervals]
    return "<" + ",".join(slots + ["_"] * (SLOT_COUNT - len(slots))) + ">"


def format_key(key: PatternKey) -> str:
    """Pattern text of a type key: its chords, each after its bass motion in brackets."""
    parts = []
    for intervals, top, motion in key:
        if motion is not None:
            parts.append(f"[{motion}]")
        parts.append(format_chord((intervals, top)))
    return "".join(parts)


def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i].isspace():
        i += 1
    return i


def _parse_int(text: str, i: int) -> tuple[int, int]:
    start = i
    while i < len(text) and "0" <= text[i] <= "9":  # not isdigit: "²" and "٣" are digits
        i += 1
    if i == start:
        raise PatternSyntaxError("expected an interval class", start)
    value = int(text[start:i])
    if value > 11:
        raise PatternSyntaxError(f"interval class {value} outside 0..11", start)
    return value, i


def _parse_chord_slots(text: str, i: int) -> tuple[list[tuple[int | None, bool]], int]:
    if i >= len(text) or text[i] != "<":
        raise PatternSyntaxError("expected '<'", i)
    i += 1
    slots: list[tuple[int | None, bool]] = []
    stars = 0
    for slot_idx in range(SLOT_COUNT):
        if i < len(text) and text[i] == "_":
            slots.append((None, False))
            i += 1
        else:
            value, i = _parse_int(text, i)
            starred = i < len(text) and text[i] == "*"
            if starred:
                stars += 1
                if stars > 1:
                    raise PatternSyntaxError("chord has more than one starred slot", i)
                i += 1
            slots.append((value, starred))
        if slot_idx < SLOT_COUNT - 1:
            if i >= len(text) or text[i] != ",":
                raise PatternSyntaxError("expected ','", i)
            i += 1
    if i >= len(text) or text[i] != ">":
        raise PatternSyntaxError("expected '>'", i)
    return slots, i + 1


def parse_pattern(text: str) -> VltPattern:
    """Parse pattern text into a VltPattern, canonicalizing the chords.

    Whitespace is tolerated between chords and bracketed intervals, never
    inside them. Formatting the result yields the canonical spelling.
    """
    i = _skip_ws(text, 0)
    slots, i = _parse_chord_slots(text, i)
    chords = [_build_chord(slots, None)]
    while True:
        i = _skip_ws(text, i)
        if i >= len(text):
            break
        if text[i] != "[":
            raise PatternSyntaxError("unexpected trailing characters", i)
        motion_pos = i + 1
        motion, j = _parse_int(text, motion_pos)
        if j >= len(text) or text[j] != "]":
            raise PatternSyntaxError("expected ']'", j)
        i = _skip_ws(text, j + 1)
        if i >= len(text) or text[i] != "<":
            raise PatternSyntaxError("dangling interval: expected a chord", i)
        slots, i = _parse_chord_slots(text, i)
        chords.append(_build_chord(slots, motion))
    return VltPattern(tuple(chords))


def _build_chord(slots: list[tuple[int | None, bool]], motion: int | None) -> Vlt:
    """Canonicalize parsed slots: drop octave doublings, deduplicate, sort.

    A starred 0 means the top voice doubles the bass, which the canonical
    form expresses by carrying no star at all.
    """
    intervals = tuple(sorted({v for v, _ in slots if v}))
    starred = next((v for v, s in slots if s), None)
    return Vlt(intervals, starred or None, motion)
