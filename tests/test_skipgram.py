import importlib.util
import io
import math
import random
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlgram.corpus import PerformanceDataError, Slice
from vlgram.skipgram import (EncodedPiece, SkipConfig, enumerate_chains, enumerate_contiguous,
                             enumerate_piece)
from vlgram.vlt import chord_of, format_key, parse_pattern


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
        tokens = list(enumerate_piece(piece_of(5), SkipConfig("fixed", 2, t=3)))
        from_a = [t.indices for t in tokens if t.indices[0] == 0]
        assert from_a == [(0, 1), (0, 2), (0, 3), (0, 4)]

    def test_trigrams_with_one_skip(self):
        tokens = list(enumerate_piece(piece_of(5), SkipConfig("fixed", 3, t=1)))
        assert sorted(index_set(tokens)) == [
            (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
            (1, 2, 4), (1, 3, 4), (2, 3, 4)]

    def test_unlimited_budget_gives_all_combinations(self):
        tokens = list(enumerate_piece(piece_of(20), SkipConfig("fixed", 5, t=None)))
        assert len(tokens) == math.comb(20, 5) == 15504

    def test_zero_budget_reproduces_contiguous(self):
        piece = piece_of(12, seed=4)
        fixed = [(t.indices, t.type_key)
                 for t in enumerate_piece(piece, SkipConfig("fixed", 3, t=0))]
        contiguous = [(t.indices, t.type_key) for t in enumerate_contiguous(piece, 3)]
        assert fixed == contiguous

    def test_brute_force_oracle(self):
        # every index combination kept iff its total skipped-slice count fits
        for k in range(2, 16):
            piece = piece_of(k, seed=k)
            for n in (2, 3, 4):
                for t in range(0, 9):
                    got = index_set(enumerate_piece(piece, SkipConfig("fixed", n, t=t)))
                    want = [c for c in combinations(range(k), n)
                            if sum(b - a - 1 for a, b in zip(c, c[1:])) <= t]
                    assert got == want, (k, n, t)

    def test_monotone_in_budget(self):
        piece = piece_of(10, seed=6)
        previous = set()
        for t in range(0, 9):
            current = set(index_set(enumerate_piece(piece, SkipConfig("fixed", 3, t=t))))
            assert previous <= current
            previous = current

    def test_lexicographic_order_no_duplicates(self):
        piece = piece_of(11, seed=8)
        got = index_set(enumerate_piece(piece, SkipConfig("fixed", 4, t=5)))
        assert got == sorted(set(got))
        for idx in got:
            assert all(a < b for a, b in zip(idx, idx[1:]))


class TestVariableSkip:
    def test_window_filters_pairs(self):
        piece = piece_with_onsets([0.0, 0.4, 1.0, 2.5])
        got = index_set(enumerate_piece(piece, SkipConfig("variable", 2, w=1.0)))
        assert got == [(0, 1), (0, 2), (1, 2)]

    def test_tiny_window_yields_nothing(self):
        piece = piece_with_onsets([0.0, 0.5, 1.0, 1.5])
        assert list(enumerate_piece(piece, SkipConfig("variable", 2, w=0.001))) == []

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_piece(piece_of(5), SkipConfig("variable", 2, w=0.0)))

    def test_isochronous_equals_combination_oracle(self):
        # at 0.5s spacing a 2.0s window admits any gap of up to 4 slices
        piece = piece_with_onsets([0.5 * i for i in range(10)])
        got = index_set(enumerate_piece(piece, SkipConfig("variable", 3, w=2.0)))
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
                    got = index_set(enumerate_piece(piece, SkipConfig("variable", n, w=w)))
                    want = [c for c in combinations(range(k), n)
                            if all(onsets[b] - onsets[a] <= w for a, b in zip(c, c[1:]))]
                    assert got == want, (k, n, w)

    def test_monotone_in_window(self):
        piece = piece_of(10, seed=1)
        previous = set()
        for w in (0.2, 0.5, 1.0, 2.0):
            current = set(index_set(enumerate_piece(piece, SkipConfig("variable", 3, w=w))))
            assert previous <= current
            previous = current

    def test_missing_performed_times_rejected(self):
        slices = [Slice("p", i, Fraction(i), (48, 60), None) for i in range(5)]
        piece = EncodedPiece.from_slices(slices)
        with pytest.raises(PerformanceDataError, match="variable"):
            list(enumerate_piece(piece, SkipConfig("variable", 2, w=1.0)))


@st.composite
def nested_cases(draw):
    """A piece and an ascending chain of one mode's levels over it.

    Fixed chains may end in t=None and reach budgets of k - n and above.
    Variable onsets step by multiples of 0.1 (zero included, so adjacent
    onsets can be equal), and windows are near those steps, so many tests
    ``onsets[j] > onsets[prev] + w`` turn on how the sum rounds.
    """
    k = draw(st.integers(0, 14))
    n = draw(st.integers(2, 4))
    steps = draw(st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7]), min_size=k, max_size=k))
    onsets = [0.0]
    for step in steps[1:]:
        onsets.append(onsets[-1] + step)
    piece = piece_with_onsets(onsets[:k])
    if draw(st.booleans()):
        budgets = sorted(draw(st.sets(st.integers(0, 16), min_size=1, max_size=5)))
        if draw(st.booleans()):
            budgets.append(None)
        chain = [SkipConfig("fixed", n, t=t) for t in budgets]
    else:
        windows = sorted(draw(st.sets(st.sampled_from([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.9, 1.0]),
                                      min_size=1, max_size=4)))
        chain = [SkipConfig("variable", n, w=w) for w in windows]
    return piece, chain


@st.composite
def two_chain_cases(draw):
    """A piece, a fixed chain and a variable chain over it, in either order.

    Onsets step by 0 to 0.7 s and windows reach 3 s, so the widest window
    admits tuples that skip many slices, while budgets stay at 0-4, and a
    0.05 s window leaves budget tuples that no window admits.
    """
    k = draw(st.integers(0, 14))
    n = draw(st.integers(2, 4))
    steps = draw(st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7]), min_size=k, max_size=k))
    onsets = [0.0]
    for step in steps[1:]:
        onsets.append(onsets[-1] + step)
    budgets = sorted(draw(st.sets(st.integers(0, 4), min_size=1, max_size=3)))
    windows = sorted(draw(st.sets(st.sampled_from([0.05, 0.2, 0.5, 1.0, 1.5, 3.0]),
                                  min_size=1, max_size=3)))
    chains = [tuple(SkipConfig("fixed", n, t=t) for t in budgets),
              tuple(SkipConfig("variable", n, w=w) for w in windows)]
    if draw(st.booleans()):
        chains.reverse()
    return piece_with_onsets(onsets[:k]), chains


def level_oracle(piece, skip):
    """Brute force: a level's (indices, key) pairs in lexicographic order."""
    onsets = piece.onsets_perf
    if skip.mode == "fixed":
        want = [c for c in combinations(range(len(piece)), skip.n)
                if skip.t is None or sum(b - a - 1 for a, b in zip(c, c[1:])) <= skip.t]
    else:
        # the walker's own float test: every slice after a member up to the
        # next lies within the window of the member's onset
        want = [c for c in combinations(range(len(piece)), skip.n)
                if all(onsets[x] <= onsets[a] + skip.w
                       for a, b in zip(c, c[1:]) for x in range(a + 1, b + 1))]
    return [(c, piece.token_at(c).type_key) for c in want]


class TestNested:
    @settings(max_examples=300, deadline=None)
    @given(nested_cases())
    def test_levels_reproduce_each_level_enumeration(self, case):
        piece, chain = case
        tagged = [(level, tok.indices, tok.type_key)
                  for (level,), tok in enumerate_chains(piece, (chain,))]
        assert all(0 <= level < len(chain) for level, _, _ in tagged)
        for at, skip in enumerate(chain):
            assert [(indices, key) for level, indices, key in tagged
                    if level <= at] == level_oracle(piece, skip)

    @settings(max_examples=300, deadline=None)
    @given(two_chain_cases())
    def test_two_chains_walked_together_reproduce_each_level(self, case):
        piece, chains = case
        tagged = [(levels, tok.indices, tok.type_key)
                  for levels, tok in enumerate_chains(piece, chains)]
        # one lexicographic walk of the union: every token is admitted by
        # some level, and no tuple comes twice
        assert all(any(level < len(chain) for level, chain in zip(levels, chains))
                   for levels, _, _ in tagged)
        walked = [indices for _, indices, _ in tagged]
        assert walked == sorted(set(walked))
        for c, chain in enumerate(chains):
            assert all(0 <= levels[c] <= len(chain) for levels, _, _ in tagged)
            for at, skip in enumerate(chain):
                assert [(indices, key) for levels, indices, key in tagged
                        if levels[c] <= at] == level_oracle(piece, skip)

    def test_two_chains_outreach_each_other(self):
        # window tuples that skip past the widest budget, and budget tuples
        # that no window admits, are both walked
        piece = piece_with_onsets([0.0, 0.1, 0.2, 0.3, 5.0, 5.1])
        fixed = (SkipConfig("fixed", 2, t=0), SkipConfig("fixed", 2, t=1))
        variable = (SkipConfig("variable", 2, w=0.05), SkipConfig("variable", 2, w=0.3))
        tagged = {tok.indices: levels for levels, tok in enumerate_chains(piece, (fixed, variable))}
        assert tagged[0, 3] == (2, 1)
        assert tagged[3, 4] == (0, 2)
        assert tagged[2, 4] == (1, 2)
        assert (0, 4) not in tagged

    @pytest.mark.parametrize("chains", [
        [],
        [(SkipConfig("fixed", 3, t=2),), (SkipConfig("fixed", 3, t=4),)],
        [(SkipConfig("fixed", 3, t=2),), (SkipConfig("variable", 2, w=1.0),)],
    ], ids=["none", "two-fixed", "mixed-n"])
    def test_bad_chains_rejected(self, chains):
        with pytest.raises(ValueError, match="chains"):
            list(enumerate_chains(piece_of(6), chains))

    def test_window_test_is_the_enumerators_float_sum(self):
        # 0.1 + 0.2 == 0.30000000000000004 is slice 2's onset, so at w=0.2
        # the test onsets[2] > onsets[1] + w fails and (1, 2) is admitted;
        # the recomputed IOI, 0.20000000000000004, would exceed the window
        piece = piece_with_onsets([0.0, 0.1, 0.1 + 0.2])
        chain = [SkipConfig("variable", 2, w=0.1), SkipConfig("variable", 2, w=0.2)]
        tagged = {tok.indices: level for (level,), tok in enumerate_chains(piece, (chain,))}
        assert tagged == {(0, 1): 0, (1, 2): 1}
        assert index_set(enumerate_piece(piece, SkipConfig("variable", 2, w=0.2))) == \
            [(0, 1), (1, 2)]

    @pytest.mark.parametrize("chain", [
        [],
        [SkipConfig("fixed", 3, t=2), SkipConfig("fixed", 3, t=2)],
        [SkipConfig("fixed", 3, t=4), SkipConfig("fixed", 3, t=2)],
        [SkipConfig("fixed", 3, t=None), SkipConfig("fixed", 3, t=2)],
        [SkipConfig("fixed", 3, t=2), SkipConfig("variable", 3, w=1.0)],
        [SkipConfig("variable", 3, w=1.0), SkipConfig("variable", 4, w=2.0)],
    ], ids=["empty", "repeated", "descending", "none-first", "mixed-mode", "mixed-n"])
    def test_bad_chain_rejected(self, chain):
        with pytest.raises(ValueError, match="chain"):
            list(enumerate_chains(piece_of(6), (chain,)))


class TestTokenContent:
    def test_bass_motion_recomputed_between_selected_members(self):
        # basses C, D, E: picking slices 0 and 2 must yield the C-to-E motion
        slices = [Slice("p", 0, Fraction(0), (48, 64), 0.0),
                  Slice("p", 1, Fraction(1), (50, 65), 0.5),
                  Slice("p", 2, Fraction(2), (52, 67), 1.0)]
        piece = EncodedPiece.from_slices(slices)
        tokens = {t.indices: t for t in enumerate_piece(piece, SkipConfig("fixed", 2, t=1))}
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
        tokens = {t.indices: t for t in enumerate_piece(piece, SkipConfig("fixed", 2, t=2))}
        # (48,64) to (60,76) is motion 0 with identical chords both sides
        assert tokens[(0, 3)].type_key[0] == tokens[(0, 3)].type_key[1][:2] + (None,)

    def test_onsets_follow_selection(self):
        piece = piece_with_onsets([0.0, 0.3, 0.9, 1.1])
        tokens = {t.indices: t for t in enumerate_piece(piece, SkipConfig("fixed", 2, t=2))}
        assert tokens[(0, 2)].onsets_perf == (0.0, 0.9)

    def test_pattern_property_roundtrips(self):
        piece = piece_of(6, seed=12)
        for token in enumerate_piece(piece, SkipConfig("fixed", 3, t=2)):
            assert parse_pattern(format_key(token.type_key)).key == token.type_key


class TestEncodeCorpus:
    def test_unprepared_corpus_rejected(self):
        from vlgram.corpus import Corpus, NoteEvent, Piece
        from vlgram.skipgram import encode_corpus
        notes = [NoteEvent("a", Fraction(0), Fraction(1), 60)]
        with pytest.raises(ValueError, match="prepare"):
            encode_corpus(Corpus([Piece("a", notes)]))

    def test_each_slice_chord_computed_once(self, monkeypatch):
        # prepare_corpus and encode_corpus together encode each slice's
        # chord at most once, on the benchmark's polyphonic generator, and
        # the encoded chord is the final slice's, equal chords as one object
        import vlgram.corpus
        import vlgram.skipgram
        from vlgram import vlt
        from vlgram.corpus import parse_corpus, prepare_corpus
        from vlgram.skipgram import encode_corpus

        calls = []

        def counted(pitches):
            calls.append(pitches)
            return vlt.chord_of(pitches)

        corpus = parse_corpus(io.StringIO("".join(perfbench_workloads().poly_lines(4, 40, 3))))
        monkeypatch.setattr(vlgram.corpus, "chord_of", counted)
        monkeypatch.setattr(vlgram.skipgram, "chord_of", counted)
        stats = prepare_corpus(corpus)
        pieces = encode_corpus(corpus)
        assert stats.n_reduced > 10
        assert len(calls) <= stats.n_slices == sum(len(p) for p in pieces)
        shared = {}
        for piece, encoded in zip(corpus.pieces, pieces):
            for s, chord in zip(piece.slices, encoded.chords):
                assert chord == vlt.chord_of(s.pitches)
                assert shared.setdefault(chord, chord) is chord


def perfbench_workloads():
    """perfbench/workloads.py, imported without writing bytecode."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@st.composite
def slice_corpus(draw):
    """2-4 pieces of 3-12 slices with chords from a small pool, as encode_corpus
    sees them with or without reduce_corpus's chords."""
    from vlgram.corpus import Corpus, Piece
    pool = draw(st.lists(st.frozensets(st.integers(0, 30), min_size=1, max_size=4),
                         min_size=1, max_size=5))
    pieces = []
    for p in range(draw(st.integers(2, 4))):
        slices = []
        for i in range(draw(st.integers(3, 12))):
            bass = draw(st.integers(36, 48))
            pitches = tuple(sorted({bass + iv for iv in draw(st.sampled_from(pool))} | {bass}))
            slices.append(Slice(f"p{p}", i, Fraction(i), pitches, 0.5 * i))
        piece = Piece(f"p{p}", [], slices)
        if draw(st.booleans()):
            piece.chords = [chord_of(s.pitches) for s in slices]
        pieces.append(piece)
    return Corpus(pieces)


class TestSharedMembers:
    @settings(max_examples=100, deadline=None)
    @given(slice_corpus(), st.integers(2, 3), st.integers(0, 4))
    def test_equal_members_are_one_object_across_type_keys(self, corpus, n, t):
        from vlgram.ranking import TableBuilder
        from vlgram.skipgram import encode_corpus, enumerate_corpus
        pieces = encode_corpus(corpus)
        builder = TableBuilder(n, len(pieces), ("count",))
        for tok in enumerate_corpus(pieces, SkipConfig("fixed", n, t=t)):
            builder.add(tok.piece_id, tok.type_key, (1.0,))
        shared = {}
        for key in builder.keys:
            for member in key:
                assert shared.setdefault(member, member) is member
        # and each key is still the one chord_of and the bass motions give
        for piece, encoded in zip(corpus.pieces, pieces):
            indices = range(len(piece.slices))
            key = encoded.token_at(indices).type_key
            basses = [s.bass for s in piece.slices]
            assert key == tuple(
                (*chord_of(s.pitches), None if i == 0 else (basses[i] - basses[i - 1]) % 12)
                for i, s in enumerate(piece.slices))


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
            SkipConfig("variable", 3, w=math.nan)
        with pytest.raises(ValueError):
            SkipConfig("variable", 3, w=math.inf)
        with pytest.raises(ValueError):
            SkipConfig("sideways", 3, t=2)
