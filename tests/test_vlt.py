import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from vlgram.corpus import Slice
from vlgram.skipgram import EncodedPiece
from vlgram.vlt import (SLOT_COUNT, PatternSyntaxError, Vlt, VltPattern, chord_of,
                        chord_pitches, format_chord, format_key, parse_pattern)


def make_slice(pitches, index=0, onset=0):
    return Slice("p", index, Fraction(onset), tuple(sorted(pitches)), float(onset))


def encode_chain(slices):
    """Every slice's (intervals, top, bass motion), as the miner encodes them."""
    return EncodedPiece.from_slices(slices).token_at(range(len(slices))).type_key


@st.composite
def chords(draw):
    """Any valid chord: at most SLOT_COUNT classes in 1..11, top among them or None."""
    intervals = tuple(sorted(draw(st.sets(st.integers(1, 11), max_size=SLOT_COUNT))))
    return intervals, draw(st.sampled_from((None,) + intervals))


@st.composite
def pattern_keys(draw):
    """Any valid type key: one to five chords, a bass motion on all but the first."""
    shapes = draw(st.lists(chords(), min_size=1, max_size=5))
    motions = [None] + draw(st.lists(st.integers(0, 11), min_size=len(shapes) - 1,
                                     max_size=len(shapes) - 1))
    return tuple((ivs, top, motion) for (ivs, top), motion in zip(shapes, motions))


class TestEncode:
    def test_triad_with_star(self):
        # C3, E4, G4: intervals above the bass are 4 and 7, top voice on the 7
        chord = chord_of((48, 64, 67))
        assert chord == ((4, 7), 7)
        assert encode_chain([make_slice([48, 64, 67])])[0][2] is None
        assert format_chord(chord) == "<4,7*,_>"

    def test_major_triad_voicings_reduce_alike(self):
        # <4,7,0> and <7,4,0> to <4,7,_>: doubling dropped, order immaterial
        (a_ivs, a_top), (b_ivs, b_top) = chord_of((48, 52, 55, 60)), chord_of((48, 55, 64, 72))
        assert a_ivs == b_ivs == (4, 7)
        assert a_top is None and b_top is None

    def test_seventh_chord_repetitions_reduce_alike(self):
        # <4,4,10> and <4,10,10> both to <4,10,_>
        assert chord_of((48, 52, 64, 70, 72))[0] == chord_of((48, 52, 58, 70, 72))[0] == (4, 10)

    def test_bass_motion_mod_12(self):
        prev = make_slice([48, 64, 67])
        cur = make_slice([43, 65, 67], index=1, onset=1)
        assert encode_chain([prev, cur])[1][2] == (43 - 48) % 12

    def test_bass_only_slice(self):
        chord = chord_of((48,))
        assert chord == ((), None)
        assert format_chord(chord) == "<_,_,_>"

    def test_transposition_invariance(self):
        rng = random.Random(7)
        for _ in range(50):
            pitches = sorted(rng.sample(range(36, 84), rng.randint(1, 4)))
            slices = [make_slice(pitches, i, i) for i in range(3)]
            base = encode_chain(slices)
            for shift in range(12):
                moved = [make_slice([p + shift for p in pitches], i, i) for i in range(3)]
                assert encode_chain(moved) == base

    def test_octave_invariance_of_upper_voices(self):
        rng = random.Random(11)
        for _ in range(50):
            pitches = sorted(rng.sample(range(40, 70), 3))
            # raising a non-bass, non-top voice by an octave keeps the encoding
            moved = [pitches[0], pitches[1] + 12, pitches[2] + 24]
            assert chord_of(moved)[0] == chord_of(pitches)[0]

    def test_permutation_invariance(self):
        # redistributing the upper pitch classes across voices and octaves
        # leaves the interval-class set untouched
        assert chord_of((48, 64, 67, 70))[0] == chord_of((48, 55, 58, 76))[0] == (4, 7, 10)


class TestCodecRoundTrips:
    @given(chords(), st.integers(-48, 160))
    def test_voiced_chord_encodes_back(self, chord, bass):
        pitches = chord_pitches(chord, bass)
        assert list(pitches) == sorted(set(pitches))
        assert pitches[0] == bass
        assert chord_of(pitches) == chord

    @given(pattern_keys())
    def test_formatted_key_parses_back(self, key):
        text = format_key(key)
        assert parse_pattern(text).key == key
        assert str(parse_pattern(text)) == text


class TestPatternText:
    def test_three_chord_cadence_parses(self):
        p = parse_pattern("<5,9*,_>[0]<4,7*,10>[5]<4,_,_>")
        assert len(p) == 3
        assert p.chords[0].intervals == (5, 9)
        assert p.chords[0].top == 9
        assert p.chords[0].bass_motion is None
        assert p.chords[1].bass_motion == 0
        assert p.chords[2].bass_motion == 5
        assert p.chords[2].intervals == (4,)
        assert p.chords[2].top is None

    def test_single_chord(self):
        p = parse_pattern("<4,7*,_>")
        assert len(p) == 1
        assert p.chords[0].bass_motion is None

    def test_format_parse_roundtrip_canonical(self):
        rng = random.Random(3)
        for _ in range(1000):
            chords = []
            for j in range(rng.randint(1, 5)):
                ivs = tuple(sorted(rng.sample(range(1, 12), rng.randint(0, 3))))
                top = rng.choice((None,) + ivs) if ivs else None
                motion = None if j == 0 else rng.randrange(12)
                chords.append(Vlt(ivs, top, motion))
            pattern = VltPattern(tuple(chords))
            text = str(pattern)
            again = parse_pattern(text)
            assert again == pattern
            assert str(again) == text

    def test_parse_canonicalizes_order_and_doublings(self):
        assert str(parse_pattern("<7,4,_>")) == "<4,7,_>"
        assert str(parse_pattern("<4,4,10>")) == "<4,10,_>"
        assert str(parse_pattern("<4,0,7*>")) == "<4,7*,_>"
        # a starred 0 means the top doubles the bass: the no-star form
        assert str(parse_pattern("<0*,_,_>")) == "<_,_,_>"

    def test_two_stars_rejected(self):
        with pytest.raises(PatternSyntaxError) as err:
            parse_pattern("<4*,7*,_>")
        assert err.value.position > 0

    def test_out_of_range_interval_rejected(self):
        with pytest.raises(PatternSyntaxError):
            parse_pattern("<12,_,_>")
        with pytest.raises(PatternSyntaxError):
            parse_pattern("<4,7,_>[13]<4,_,_>")

    def test_dangling_interval_rejected(self):
        with pytest.raises(PatternSyntaxError):
            parse_pattern("<4,7,_>[5]")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(PatternSyntaxError):
            parse_pattern("<4,7,_>x")

    def test_digits_are_ascii(self):
        # str.isdigit also takes "²", which int() rejects, and "٣", which int() reads as 3
        for bad in ("<٣,_,_>", "<²,_,_>[0]<4,_,_>", "<4,_,_>[٥]<4,_,_>", "<4,_,_>[²]<4,_,_>"):
            with pytest.raises(PatternSyntaxError, match="expected an interval class"):
                parse_pattern(bad)

    def test_malformed_chords_rejected(self):
        for bad in ("", "<4,7>", "<4,7,_", "4,7,_>", "<4,,_>", "<_*,_,_>"):
            with pytest.raises(PatternSyntaxError):
                parse_pattern(bad)


class TestVltInvariants:
    def test_rejects_zero_interval(self):
        with pytest.raises(ValueError):
            Vlt((0, 4), None, None)

    def test_rejects_unsorted_or_duplicate(self):
        with pytest.raises(ValueError):
            Vlt((7, 4), None, None)
        with pytest.raises(ValueError):
            Vlt((4, 4), None, None)

    def test_rejects_star_outside_set(self):
        with pytest.raises(ValueError):
            Vlt((4, 7), 9, None)

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            Vlt((1, 2, 3, 4), None, None)

    def test_pattern_requires_motions_after_first(self):
        with pytest.raises(ValueError):
            VltPattern((Vlt((4,), None, None), Vlt((4,), None, None)))
        with pytest.raises(ValueError):
            VltPattern((Vlt((4,), None, 5),))

    def test_key_roundtrip(self):
        p = parse_pattern("<5,9*,_>[0]<4,7*,10>[5]<4,_,_>")
        assert parse_pattern(format_key(p.key)) == p
