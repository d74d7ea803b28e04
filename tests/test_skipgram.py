import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from vlgram.corpus import PerformanceDataError, Slice
from vlgram.skipgram import (EncodedPiece, SkipConfig, enumerate_contiguous,
                             enumerate_fixed_skip, enumerate_piece,
                             enumerate_variable_skip)
from vlgram.vlt import VltPattern, format_key, parse_pattern


def piece_of(k, seed=0, iois=None):
    """A piece of k slices with distinct-ish chords and seeded performed onsets."""
    rng = random.Random(seed)
    slices = []
    t = 0.0
    for i in range(k):
        bass = 40 + rng.randrange(12)
        extra = sorted(rng.sample(range(1, 12), rng.randint(0, 2)))
        pitches = tuple(sorted({bass, *(bass + iv for iv in extra), bass + 12}))
        slices.append(Slice("p", i, Fraction(i), pitches, t))
        t += iois[i] if iois else rng.uniform(0.2, 0.8)
    return EncodedPiece.from_slices(slices)


def piece_with_onsets(onsets):
    slices = [Slice("p", i, Fraction(i), (48 + i, 60 + i), float(t))
              for i, t in enumerate(onsets)]
    return EncodedPiece.from_slices(slices)


def index_set(tokens):
    return [t.indices for t in tokens]


class TestContiguous:
    def test_five_events_four_bigrams(self):
        tokens = list(enumerate_contiguous(piece_of(5), 2))
        assert index_set(tokens) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_twenty_events_sixteen_fivegrams(self):
        assert len(list(enumerate_contiguous(piece_of(20), 5))) == 16

    def test_too_short_sequence_yields_nothing(self):
        assert list(enumerate_contiguous(piece_of(3), 5)) == []

    def test_token_count_formula_over_random_corpora(self):
        rng = random.Random(2)
        for _ in range(50):
            k = rng.randint(1, 40)
            n = rng.randint(1, 8)
            assert len(list(enumerate_contiguous(piece_of(k), n))) == max(k - n + 1, 0)


class TestFixedSkip:
    def test_pairs_from_first_event(self):
        # over abcde, a pairs with b (0 skips), c (1), d (2), e (3)
        tokens = list(enumerate_fixed_skip(piece_of(5), 2, 3))
        from_a = [t.indices for t in tokens if t.indices[0] == 0]
        assert from_a == [(0, 1), (0, 2), (0, 3), (0, 4)]

    def test_trigrams_with_one_skip(self):
        tokens = list(enumerate_fixed_skip(piece_of(5), 3, 1))
        assert sorted(index_set(tokens)) == [
            (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
            (1, 2, 4), (1, 3, 4), (2, 3, 4)]

    def test_unlimited_budget_gives_all_combinations(self):
        tokens = list(enumerate_fixed_skip(piece_of(20), 5, None))
        assert len(tokens) == math.comb(20, 5) == 15504

    def test_zero_budget_reproduces_contiguous(self):
        piece = piece_of(12, seed=4)
        fixed = [(t.indices, t.type_key) for t in enumerate_fixed_skip(piece, 3, 0)]
        contiguous = [(t.indices, t.type_key) for t in enumerate_contiguous(piece, 3)]
        assert fixed == contiguous

    def test_brute_force_oracle(self):
        # every index combination kept iff its total skipped-slice count fits
        for k in range(2, 16):
            piece = piece_of(k, seed=k)
            for n in (2, 3, 4):
                for t in range(0, 9):
                    got = index_set(enumerate_fixed_skip(piece, n, t))
                    want = [c for c in combinations(range(k), n)
                            if sum(b - a - 1 for a, b in zip(c, c[1:])) <= t]
                    assert got == want, (k, n, t)

    def test_monotone_in_budget(self):
        piece = piece_of(10, seed=6)
        previous = set()
        for t in range(0, 9):
            current = set(index_set(enumerate_fixed_skip(piece, 3, t)))
            assert previous <= current
            previous = current

    def test_lexicographic_order_no_duplicates(self):
        piece = piece_of(11, seed=8)
        got = index_set(enumerate_fixed_skip(piece, 4, 5))
        assert got == sorted(set(got))
        for idx in got:
            assert all(a < b for a, b in zip(idx, idx[1:]))


class TestVariableSkip:
    def test_window_filters_pairs(self):
        piece = piece_with_onsets([0.0, 0.4, 1.0, 2.5])
        got = index_set(enumerate_variable_skip(piece, 2, 1.0))
        assert got == [(0, 1), (0, 2), (1, 2)]

    def test_tiny_window_yields_nothing(self):
        piece = piece_with_onsets([0.0, 0.5, 1.0, 1.5])
        assert list(enumerate_variable_skip(piece, 2, 0.001)) == []

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_variable_skip(piece_of(5), 2, 0.0))

    def test_isochronous_equals_combination_oracle(self):
        # at 0.5s spacing a 2.0s window admits any gap of up to 4 slices
        piece = piece_with_onsets([0.5 * i for i in range(10)])
        got = index_set(enumerate_variable_skip(piece, 3, 2.0))
        want = [c for c in combinations(range(10), 3)
                if all(b - a <= 4 for a, b in zip(c, c[1:]))]
        assert got == want

    def test_brute_force_oracle_random_onsets(self):
        rng = random.Random(3)
        for k in range(2, 13):
            onsets = [0.0]
            for _ in range(k - 1):
                onsets.append(onsets[-1] + rng.uniform(0.05, 1.2))
            piece = piece_with_onsets(onsets)
            for n in (2, 3, 4):
                for w in (0.1, 0.3, 0.6, 1.0, 1.7, 2.5):
                    got = index_set(enumerate_variable_skip(piece, n, w))
                    want = [c for c in combinations(range(k), n)
                            if all(onsets[b] - onsets[a] <= w for a, b in zip(c, c[1:]))]
                    assert got == want, (k, n, w)

    def test_monotone_in_window(self):
        piece = piece_of(10, seed=1)
        previous = set()
        for w in (0.2, 0.5, 1.0, 2.0):
            current = set(index_set(enumerate_variable_skip(piece, 3, w)))
            assert previous <= current
            previous = current

    def test_missing_performed_times_rejected(self):
        slices = [Slice("p", i, Fraction(i), (48, 60), None) for i in range(5)]
        piece = EncodedPiece.from_slices(slices)
        with pytest.raises(PerformanceDataError, match="variable"):
            list(enumerate_variable_skip(piece, 2, 1.0))


class TestTokenContent:
    def test_bass_motion_recomputed_between_selected_members(self):
        # basses C, D, E: picking slices 0 and 2 must yield the C-to-E motion
        slices = [Slice("p", 0, Fraction(0), (48, 64), 0.0),
                  Slice("p", 1, Fraction(1), (50, 65), 0.5),
                  Slice("p", 2, Fraction(2), (52, 67), 1.0)]
        piece = EncodedPiece.from_slices(slices)
        tokens = {t.indices: t for t in enumerate_fixed_skip(piece, 2, 1)}
        assert tokens[(0, 2)].type_key[1][2] == 4
        assert tokens[(0, 1)].type_key[1][2] == 2
        assert tokens[(0, 2)].type_key[0][2] is None

    def test_same_chords_at_different_distances_share_a_type(self):
        slices = [Slice("p", 0, Fraction(0), (48, 64), 0.0),
                  Slice("p", 1, Fraction(1), (41, 60), 0.4),
                  Slice("p", 2, Fraction(2), (55, 71), 0.8),
                  Slice("p", 3, Fraction(3), (60, 76), 1.2)]
        # slices 0 and 3 form the same dyad chain as 0 and... use two pieces
        piece = EncodedPiece.from_slices(slices)
        tokens = {t.indices: t for t in enumerate_fixed_skip(piece, 2, 2)}
        # (48,64) to (60,76) is motion 0 with identical chords both sides
        assert tokens[(0, 3)].type_key[0] == tokens[(0, 3)].type_key[1][:2] + (None,)

    def test_onsets_follow_selection(self):
        piece = piece_with_onsets([0.0, 0.3, 0.9, 1.1])
        tokens = {t.indices: t for t in enumerate_fixed_skip(piece, 2, 2)}
        assert tokens[(0, 2)].onsets_perf == (0.0, 0.9)

    def test_pattern_property_roundtrips(self):
        piece = piece_of(6, seed=12)
        for token in enumerate_fixed_skip(piece, 3, 2):
            assert VltPattern.from_key(token.type_key).key == token.type_key
            assert parse_pattern(format_key(token.type_key)).key == token.type_key


class TestEncodeCorpus:
    def test_unprepared_corpus_rejected(self):
        from vlgram.corpus import Corpus, NoteEvent, Piece
        from vlgram.skipgram import encode_corpus
        notes = [NoteEvent("a", Fraction(0), Fraction(1), 60)]
        with pytest.raises(ValueError, match="prepare"):
            encode_corpus(Corpus([Piece("a", notes)]))


class TestSkipConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SkipConfig("fixed", 1, t=0)
        with pytest.raises(ValueError):
            SkipConfig("fixed", 3, w=1.0)
        with pytest.raises(ValueError):
            SkipConfig("variable", 3, t=2)
        with pytest.raises(ValueError):
            SkipConfig("variable", 3, w=0.0)
        with pytest.raises(ValueError):
            SkipConfig("sideways", 3, t=2)

    def test_dispatch(self):
        piece = piece_of(8, seed=3)
        fixed = SkipConfig("fixed", 3, t=2)
        assert index_set(enumerate_piece(piece, fixed)) == \
            index_set(enumerate_fixed_skip(piece, 3, 2))
        variable = SkipConfig("variable", 3, w=1.5)
        assert index_set(enumerate_piece(piece, variable)) == \
            index_set(enumerate_variable_skip(piece, 3, 1.5))
