import io
import math
import random
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlgram.corpus import (Corpus, CorpusParseError, EmptyCorpusError, NoteEvent, Piece,
                           PerformanceDataError, Slice, assign_performed_onsets,
                           expand, parse_corpus, prepare_corpus, reduce_corpus,
                           render_fixed_tempo)
from vlgram.vlt import chord_of

from oracles import reduce_oversized


def note(piece, onset, dur, pitch, op=None, dp=None):
    return NoteEvent(piece, Fraction(onset), Fraction(dur), pitch, op, dp)


def parse_text(text):
    return parse_corpus(io.StringIO(text))


class TestParse:
    def test_single_piece(self):
        corpus = parse_text("a\t0\t1\t60\na\t1\t1\t62\na\t2\t1\t64\n")
        assert corpus.n_compositions == 1
        assert [n.pitch for n in corpus.pieces[0].notes] == [60, 62, 64]

    def test_pitch_range_checked(self):
        with pytest.raises(CorpusParseError) as err:
            parse_text("a\t0\t1\t60\na\t1\t1\t128\n")
        assert "128" in str(err.value)
        assert err.value.line_no == 2

    def test_interleaved_pieces_group_by_id(self):
        # hand-grouped fixture: rows for two pieces interleaved line by line
        text = ("x\t0\t1\t60\n"
                "y\t0\t2\t50\n"
                "x\t1\t1\t62\n"
                "y\t2\t2\t52\n"
                "x\t2\t1\t64\n")
        corpus = parse_text(text)
        assert corpus.n_compositions == 2
        by_id = {p.piece_id: [(n.onset_score, n.pitch) for n in p.notes]
                 for p in corpus.pieces}
        assert by_id == {
            "x": [(0, 60), (1, 62), (2, 64)],
            "y": [(0, 50), (2, 52)],
        }
        assert [p.piece_id for p in corpus.pieces] == ["x", "y"]

    def test_rationals_and_decimals(self):
        corpus = parse_text("a\t1/2\t3/4\t60\na\t1.5\t0.5\t62\n")
        onsets = [n.onset_score for n in corpus.pieces[0].notes]
        assert onsets == [Fraction(1, 2), Fraction(3, 2)]

    def test_comments_and_blank_lines(self):
        corpus = parse_text("# header\n\na\t0\t1\t60\n   \n")
        assert len(corpus.pieces[0].notes) == 1

    def test_duplicate_keeps_first_and_warns(self, caplog):
        corpus = parse_text("a\t0\t1\t60\t0.0\t0.5\na\t0\t2\t60\n")
        assert len(corpus.pieces[0].notes) == 1
        assert corpus.pieces[0].notes[0].duration_score == 1
        assert len(corpus.warnings) == 1
        caplog.clear()
        corpus = parse_text("a\t0\t1\t60\na\t0\t2\t60\na\t1\t1\t62\n"
                            "a\t1\t1\t62\na\t0\t3\t60\n")
        assert [n.pitch for n in corpus.pieces[0].notes] == [60, 62]
        assert len(corpus.warnings) == 3
        records = [r for r in caplog.records if r.name == "vlgram.corpus"]
        assert len(records) == 1
        assert records[0].levelname == "WARNING"
        assert ":2: duplicate note" in records[0].getMessage()
        assert "3 duplicate rows" in records[0].getMessage()

    def test_equal_times_in_any_spelling_are_one_note(self, caplog):
        corpus = parse_text("p\t2/4\t1\t64\np\t0.5\t1\t60\np\t1/2\t2\t60\n"
                            "p\t2/4\t1/3\t60\np\t1/3\t1\t60\n")
        notes = corpus.pieces[0].notes
        assert [(n.onset_score, n.duration_score, n.pitch) for n in notes] == [
            (Fraction(1, 2), 1, 64), (Fraction(1, 2), 1, 60), (Fraction(1, 3), 1, 60)]
        assert len(corpus.warnings) == 2
        assert corpus.warnings[0] == ("<stream>:3: duplicate note (p, 1/2, 60); "
                                      "keeping first")
        records = [r for r in caplog.records if r.name == "vlgram.corpus"]
        assert "duplicate note (p, 1/2, 60)" in records[0].getMessage()

    def test_notes_keep_input_order_and_preparation_does_not_read_it(self):
        rows = ["p\t0\t2\t48\t0.0\t1.0", "p\t1/3\t1\t64", "p\t0\t1\t67\t0.1\t0.5",
                "p\t1\t1\t60\t0.9\t0.5", "p\t2/3\t1/3\t62", "p\t1\t1\t55\t1.0\t0.5"]
        forward = parse_text("\n".join(rows) + "\n")
        backward = parse_text("\n".join(reversed(rows)) + "\n")
        assert [n.pitch for n in backward.pieces[0].notes] == [55, 62, 60, 67, 64, 48]
        prepare_corpus(forward)
        prepare_corpus(backward)
        assert backward.pieces[0].slices == forward.pieces[0].slices

    def test_same_text_shares_one_fraction(self):
        corpus = parse_text("p\t1/3\t1/3\t60\np\t1/3\t2/3\t64\nq\t2/3\t1/3\t62\n")
        (a, b), (c,) = (piece.notes for piece in corpus.pieces)
        assert a.onset_score is b.onset_score is a.duration_score is c.duration_score
        assert b.duration_score is c.onset_score

    def test_repeated_bad_time_fails_at_first_line(self):
        for bad, reason in (("x/2", "Invalid literal for Fraction: 'x/2'"),
                            ("1/0", "Fraction(1, 0)")):
            text = f"p\t0\t1\t60\np\t{bad}\t1\t62\np\t1\t{bad}\t64\n"
            with pytest.raises(CorpusParseError) as err:
                parse_text(text)
            assert err.value.line_no == 2
            assert str(err.value) == f"<stream>:2: bad numeric field: {reason}"

    def test_score_time_beyond_float_range_names_its_line(self):
        for bad in ("1e400", "-1e400", "2" * 400 + "/3"):
            with pytest.raises(CorpusParseError, match="bad numeric field") as err:
                parse_text(f"p\t0\t1\t60\np\t{bad}\t1\t62\n")
            assert err.value.line_no == 2
        with pytest.raises(CorpusParseError) as err:
            parse_text("p\t0\t1\t60\np\t1\t1e400\t62\n")
        assert err.value.line_no == 2
        assert parse_text("p\t1e300\t1e-400\t60\n").pieces[0].notes[0].onset_score == 10 ** 300

    @pytest.mark.parametrize("row", ["p\t0\t1\t6_0", "p\t0\t1\t٦٠", "p\t1_0\t1\t60",
                                     "p\t0\t1/٢\t60", "p\t0\t1\t60\t1_0.5\t0.5",
                                     "p\t0\t1\t60\t0.0\t٠.5"])
    def test_numbers_are_ascii_without_underscores(self, row):
        # int(), Fraction() and float() read each of these as a number
        with pytest.raises(CorpusParseError, match="numbers must be ASCII") as err:
            parse_text(f"# a note\n{row}\n")
        assert err.value.line_no == 2
        assert parse_text("π\t0\t1\t60\n").pieces[0].piece_id == "π"

    @pytest.mark.parametrize("mark", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                      "\u2028", "\u2029"])
    def test_lines_end_only_at_line_feeds_and_carriage_returns(self, mark):
        # str.splitlines would also break at each mark, adding lines
        corpus = parse_text(f"# a{mark}b\na\t0\t1\t60{mark}\r\na\t1\t1\t62\ra\t2\t1\t64")
        assert [n.pitch for n in corpus.pieces[0].notes] == [60, 62, 64]
        with pytest.raises(CorpusParseError) as err:
            parse_text(f"a\t0\t1\t60{mark}\n# a{mark}b\r\na\t1\t1\t200\n")
        assert err.value.line_no == 3
        data = f"a\t0\t1\t60{mark}\n# a{mark}b\r\n".encode() + b"a\t1\t1\t6\xff2\n"
        with pytest.raises(CorpusParseError, match="cannot decode") as err:
            parse_corpus(io.BytesIO(data))
        assert err.value.line_no == 3

    def test_negative_onset_names_its_fraction(self):
        with pytest.raises(CorpusParseError) as err:
            parse_text("p\t0\t1\t60\np\t-1/2\t1\t62\n")
        assert str(err.value) == "<stream>:2: negative onset -1/2"
        with pytest.raises(CorpusParseError, match="non-positive duration -3/4"):
            parse_text("p\t0\t-0.75\t60\n")

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyCorpusError):
            parse_text("# nothing here\n")

    def test_malformed_rows_rejected(self):
        for bad in ("a\t0\t1\n", "a\tx\t1\t60\n", "a\t0\t0\t60\n",
                    "a\t-1\t1\t60\n", "a\t0\t1\t60\t0.0\n",
                    "a\t0\t1\t60\tnan\t0.5\n", "a\t0\t1\t60\tinf\t0.5\n",
                    "a\t0\t1\t60\t0.0\tnan\n", "a\t0\t1\t60\t0.0\tinf\n"):
            with pytest.raises(CorpusParseError):
                parse_text(bad)

    def test_byte_order_mark_ignored(self, tmp_path):
        text = "# header\na\t0\t1\t60\t0.0\t0.5\n"
        path = tmp_path / "bom.tsv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        from_file = parse_corpus(path)
        from_bytes = parse_corpus(io.BytesIO(path.read_bytes()))
        for corpus in (from_file, from_bytes):
            assert [n.pitch for n in corpus.pieces[0].notes] == [60]
            assert corpus.pieces[0].piece_id == "a"

    def test_performed_fields(self):
        corpus = parse_text("a\t0\t1\t60\t0.25\t0.5\n")
        n = corpus.pieces[0].notes[0]
        assert n.onset_perf == 0.25 and n.duration_perf == 0.5

    def test_directory_input(self, tmp_path):
        (tmp_path / "one.tsv").write_text("a\t0\t1\t60\n")
        (tmp_path / "two.tsv").write_text("b\t0\t1\t62\n")
        corpus = parse_corpus(tmp_path)
        assert {p.piece_id for p in corpus.pieces} == {"a", "b"}


class TestExpand:
    def test_whole_note_under_quarters(self):
        notes = [note("a", 0, 4, 36)]
        notes += [note("a", i, 1, p) for i, p in enumerate([64, 65, 67, 64])]
        slices = expand(notes)
        assert len(slices) == 4
        for i, s in enumerate(slices):
            assert 36 in s.pitches
            assert len(s.pitches) == 2
            assert s.index == i

    def test_homorhythmic_is_identity(self):
        notes = []
        chords = [(48, 64, 67), (50, 65, 69), (52, 67, 71)]
        for i, chord in enumerate(chords):
            notes += [note("a", i, 1, p) for p in chord]
        slices = expand(notes)
        assert [s.pitches for s in slices] == [tuple(c) for c in chords]

    def test_half_open_interval_excludes_offset(self):
        # a note ending exactly at beat 1 does not sound in the beat-1 slice
        notes = [note("a", 0, 1, 60), note("a", 1, 1, 62)]
        slices = expand(notes)
        assert slices[1].pitches == (62,)

    def test_twenty_onsets_give_twenty_slices(self):
        notes = [note("a", i, 1, 60 + (i % 5)) for i in range(20)]
        slices = expand(notes)
        assert len(slices) == 20
        # with n=5 contiguous grams downstream that is 16 tokens
        assert len(slices) - 5 + 1 == 16

    def test_every_note_in_exactly_its_sounding_slices(self):
        # brute force: membership must match the half-open interval test
        rng = random.Random(5)
        for _ in range(30):
            notes = []
            for _ in range(rng.randint(1, 50)):
                onset = Fraction(rng.randint(0, 24), rng.choice([1, 2, 3, 4, 7]))
                dur = Fraction(rng.randint(1, 8), rng.choice([1, 2, 3, 4, 7]))
                notes.append(NoteEvent("a", onset, dur, rng.randint(30, 90)))
            slices = expand(notes)
            assert len(slices) == len({n.onset_score for n in notes})
            for s in slices:
                sounding = {n.pitch for n in notes
                            if n.onset_score <= s.onset_score < n.onset_score + n.duration_score}
                assert set(s.pitches) == sounding
            onsets = [s.onset_score for s in slices]
            assert onsets == sorted(onsets)
            assert len(set(onsets)) == len(onsets)

    def test_empty_piece_rejected(self):
        with pytest.raises(ValueError):
            expand([])


class TestPerformedOnsets:
    def test_midpoint_interpolation(self):
        notes = [note("a", 0, 1, 60, 0.0, 0.4), note("a", 4, 1, 64, 2.0, 0.4),
                 note("a", 2, 1, 62)]
        slices = expand(notes)
        done = assign_performed_onsets(notes, slices)
        assert done[1].onset_perf == pytest.approx(1.0)

    def test_anchor_passthrough(self):
        notes = [note("a", 0, 1, 60, 0.0, 0.1), note("a", 1, 1, 62, 1.37, 0.1),
                 note("a", 2, 1, 64, 2.0, 0.1)]
        done = assign_performed_onsets(notes, expand(notes))
        assert done[1].onset_perf == 1.37

    def test_piecewise_linear_oracle(self):
        # anchors (0, 0.0), (2, 1.0), (4, 3.0); the slice at beat 3 interpolates
        # on the second segment: 1.0 + (3-2)/(4-2) * (3.0-1.0) = 2.0
        notes = [note("a", 0, 1, 60, 0.0, 0.1), note("a", 2, 1, 62, 1.0, 0.1),
                 note("a", 4, 1, 64, 3.0, 0.1), note("a", 3, 1, 66)]
        done = assign_performed_onsets(notes, expand(notes))
        by_beat = {s.onset_score: s.onset_perf for s in done}
        assert by_beat[3] == pytest.approx(2.0)

    def test_random_pieces_match_independent_oracle(self):
        rng = random.Random(9)
        for _ in range(25):
            n_anchor = rng.randint(2, 6)
            beats = sorted(rng.sample(range(0, 40), n_anchor))
            times = sorted(rng.uniform(0, 30) for _ in range(n_anchor))
            notes = [note("a", b, 1, 60, t, 0.1) for b, t in zip(beats, times)]
            extra = [note("a", b, 1, 70) for b in rng.sample(range(0, 40), 8)
                     if b not in beats]
            slices = expand(notes + extra)

            def oracle(x):
                # piecewise linear through the anchor points, end segments extended
                if x <= beats[0]:
                    lo, hi = 0, 1
                elif x >= beats[-1]:
                    lo, hi = n_anchor - 2, n_anchor - 1
                else:
                    hi = next(i for i, b in enumerate(beats) if b >= x)
                    lo = hi - 1
                frac = (x - beats[lo]) / (beats[hi] - beats[lo])
                return times[lo] + frac * (times[hi] - times[lo])

            want = [oracle(float(s.onset_score)) for s in slices]
            if min(want) < 0:  # extrapolated before the first anchor to a negative time
                with pytest.raises(PerformanceDataError, match="not a finite time >= 0"):
                    assign_performed_onsets(notes + extra, slices)
                continue
            done = assign_performed_onsets(notes + extra, slices)
            assert [s.onset_perf for s in done] == pytest.approx(want)
            perf = [s.onset_perf for s in done]
            assert all(a <= b + 1e-12 for a, b in zip(perf, perf[1:]))

    def test_minimum_of_coinciding_performed_onsets_wins(self):
        notes = [note("a", 0, 1, 60, 0.20, 0.1), note("a", 0, 2, 48, 0.12, 0.1),
                 note("a", 1, 1, 62, 1.0, 0.1)]
        done = assign_performed_onsets(notes, expand(notes))
        assert done[0].onset_perf == 0.12

    def test_insufficient_anchors(self):
        notes = [note("a", 0, 1, 60, 0.0, 0.1), note("a", 1, 1, 62)]
        with pytest.raises(PerformanceDataError, match="insufficient"):
            assign_performed_onsets(notes, expand(notes))

    def test_non_monotone_rejected(self):
        notes = [note("a", 0, 1, 60, 1.0, 0.1), note("a", 1, 1, 62, 0.5, 0.1)]
        with pytest.raises(PerformanceDataError, match="monotone"):
            assign_performed_onsets(notes, expand(notes))

    def test_not_monotone_names_beats_as_fractions(self):
        # the 1/3 note makes the common denominator 6; beats still print reduced
        corpus = parse_text("p\t1/2\t1\t60\t1.0\t0.1\np\t1/3\t1\t62\n"
                            "p\t3/2\t1\t64\t0.5\t0.1\n")
        notes = corpus.pieces[0].notes
        with pytest.raises(PerformanceDataError) as err:
            assign_performed_onsets(notes, expand(notes))
        assert str(err.value) == ("piece p: performed onsets not monotone with score "
                                  "onsets (beat 1/2 at 1.0s, beat 3/2 at 0.5s)")

    def test_anchor_beats_one_float_apart_are_rejected(self):
        # beats 1 and 1 + 1e-16 are distinct ticks but one float: the slice at
        # beat 0 would extrapolate through a zero score-time step
        corpus = parse_text("a\t0\t1\t60\na\t1\t1\t62\t1.0\t0.5\n"
                            "a\t10000000000000001/10000000000000000\t1\t64\t1.1\t0.5\n")
        notes = corpus.pieces[0].notes
        with pytest.raises(PerformanceDataError) as err:
            assign_performed_onsets(notes, expand(notes))
        assert str(err.value) == ("piece a: anchor beats 1 and "
                                  "10000000000000001/10000000000000000 round to one "
                                  "float; cannot interpolate")

    def test_fixed_tempo_rendering(self):
        notes = [note("a", 0, 1, 60), note("a", 2, 1, 62)]
        slices = render_fixed_tempo(expand(notes), bpm=100)
        assert slices[0].onset_perf == 0.0
        assert slices[1].onset_perf == pytest.approx(1.2)


def oracle_expand(notes):
    """expand on Fraction arithmetic: a sweep over the sorted distinct onsets."""
    by_onset = sorted(notes, key=lambda n: (n.onset_score, n.pitch))
    slices, active, pos = [], [], 0
    for index, onset in enumerate(sorted({n.onset_score for n in notes})):
        while pos < len(by_onset) and by_onset[pos].onset_score <= onset:
            n = by_onset[pos]
            heappush(active, (n.onset_score + n.duration_score, pos, n.pitch))
            pos += 1
        while active and active[0][0] <= onset:
            heappop(active)
        slices.append(Slice(notes[0].piece_id, index, onset,
                            tuple(sorted({p for _, _, p in active}))))
    return slices


def oracle_assign(notes, slices):
    """assign_performed_onsets on Fraction keys and float(Fraction) anchors; an
    interpolated onset that is not finite or is negative raises."""
    anchor_map = {}
    for n in notes:
        if n.onset_perf is not None:
            prev = anchor_map.get(n.onset_score)
            if prev is None or n.onset_perf < prev:
                anchor_map[n.onset_score] = n.onset_perf
    anchors = sorted(anchor_map.items())
    if len(anchors) < 2:
        raise PerformanceDataError(f"piece {notes[0].piece_id}: insufficient performance anchors")
    for (s0, p0), (s1, p1) in zip(anchors, anchors[1:]):
        if p1 < p0:
            raise PerformanceDataError(
                f"piece {notes[0].piece_id}: performed onsets not monotone with score onsets "
                f"(beat {s0} at {p0}s, beat {s1} at {p1}s)")
    scores = [float(s) for s, _ in anchors]
    perfs = [p for _, p in anchors]

    def interpolate(score):
        if score in anchor_map:
            return anchor_map[score]
        x = float(score)
        j = bisect_left(scores, x)
        lo, hi = (0, 1) if j == 0 else (
            (len(scores) - 2, len(scores) - 1) if j >= len(scores) else (j - 1, j))
        slope = (perfs[hi] - perfs[lo]) / (scores[hi] - scores[lo])
        onset = perfs[lo] + (x - scores[lo]) * slope
        if not (math.isfinite(onset) and onset >= 0):
            raise PerformanceDataError(
                f"piece {notes[0].piece_id}: beat {score} interpolates to performed "
                f"onset {onset}s, not a finite time >= 0")
        return onset

    return [Slice(s.piece_id, s.index, s.onset_score, s.pitches, interpolate(s.onset_score))
            for s in slices]


# Denominators of common rhythms; some pieces add large primes, whose lcm is
# far beyond any one of them. Extra slices may also sit on fifths, elevenths
# and thirteenths, which no note has.
RHYTHM_DENOMINATORS = (1, 2, 3, 4, 6, 7, 12)
LARGE_DENOMINATORS = (1009, 7919, 104729)
SLICE_ONLY_DENOMINATORS = (5, 11, 13)


@st.composite
def score_time(draw, denominators, low=0):
    den = draw(st.sampled_from(denominators))
    return Fraction(draw(st.integers(low * den, 16 * den)), den)


@st.composite
def tick_path_piece(draw):
    """Random notes, some with performed onsets, and extra slices off the notes."""
    dens = RHYTHM_DENOMINATORS + draw(st.sampled_from(((), LARGE_DENOMINATORS)))
    tempo = draw(st.floats(0.2, 2.0))
    # about half the pieces keep a steady tempo; the rest may break monotony
    free = st.floats(0.0, 40.0) if draw(st.booleans()) else st.nothing()
    notes = []
    for _ in range(draw(st.integers(1, 24))):
        onset = draw(score_time(dens))
        duration = draw(score_time(dens, low=1))
        perf = draw(st.one_of(st.none(), st.just(float(onset) * tempo), free))
        notes.append(NoteEvent("p", onset, duration, draw(st.integers(30, 90)),
                               perf, None if perf is None else 0.5))
    extra = [Slice("p", 100 + i, draw(score_time(dens + SLICE_ONLY_DENOMINATORS)), (60,))
             for i in range(draw(st.integers(0, 5)))]
    return notes, extra


def slice_fields(slices):
    return [(s.piece_id, s.index, s.onset_score, s.pitches, repr(s.onset_perf))
            for s in slices]


class TestTickPath:
    @settings(max_examples=300, deadline=None)
    @given(tick_path_piece())
    def test_expand_and_anchoring_equal_fraction_oracle(self, piece):
        notes, extra = piece
        slices = expand(notes)
        assert slice_fields(slices) == slice_fields(oracle_expand(notes))
        assert all(any(s.onset_score is n.onset_score for n in notes) for s in slices)
        mixed = extra[:1] + slices + extra[1:]
        try:
            expected = oracle_assign(notes, mixed)
        except PerformanceDataError as err:
            with pytest.raises(PerformanceDataError) as got:
                assign_performed_onsets(notes, mixed)
            assert str(got.value) == str(err)
            return
        assert slice_fields(assign_performed_onsets(notes, mixed)) == slice_fields(expected)


@st.composite
def mixed_corpus_notes(draw):
    """1-4 pieces of notes, each score-only or with some performed onsets.

    Pitches span three octaves and notes overlap, so some slices hold more
    than three interval classes and are reduced; the tempo may break
    monotony or extrapolate below zero, as in tick_path_piece.
    """
    pieces = []
    for p in range(draw(st.integers(1, 4))):
        dens = RHYTHM_DENOMINATORS + draw(st.sampled_from(((), LARGE_DENOMINATORS)))
        tempo = draw(st.floats(0.2, 2.0))
        performed = draw(st.booleans())
        free = st.floats(0.0, 40.0) if draw(st.booleans()) else st.nothing()
        notes = []
        for _ in range(draw(st.integers(1, 30))):
            onset = draw(score_time(dens))
            perf = (draw(st.one_of(st.none(), st.just(float(onset) * tempo), free))
                    if performed else None)
            notes.append(NoteEvent(f"p{p}", onset, draw(score_time(dens, low=1)),
                                   draw(st.integers(40, 76)), perf,
                                   None if perf is None else 0.5))
        pieces.append(notes)
    return pieces


def staged_prepare(corpus):
    """prepare_corpus as its documented steps: expand, then assign_performed_onsets
    or render_fixed_tempo, then reduce_corpus."""
    for piece in corpus.pieces:
        slices = expand(piece.notes)
        if any(n.onset_perf is not None for n in piece.notes):
            piece.slices = assign_performed_onsets(piece.notes, slices)
        else:
            piece.slices = render_fixed_tempo(slices)
            piece.synthetic_tempo = True
    return reduce_corpus(corpus)


class TestOnePassPrepare:
    @settings(max_examples=150, deadline=None)
    @given(mixed_corpus_notes())
    def test_prepare_equals_the_staged_steps(self, pieces):
        def corpus():
            return Corpus([Piece(notes[0].piece_id, notes) for notes in pieces])

        staged, prepared = corpus(), corpus()
        try:
            want = staged_prepare(staged)
        except PerformanceDataError as err:
            with pytest.raises(PerformanceDataError) as got:
                prepare_corpus(prepared)
            assert str(got.value) == str(err)
            return
        assert prepare_corpus(prepared) == want
        for got, expected in zip(prepared.pieces, staged.pieces, strict=True):
            assert slice_fields(got.slices) == slice_fields(expected.slices)
            assert got.chords == expected.chords
            assert got.synthetic_tempo == expected.synthetic_tempo


def classes(s):
    """A slice's interval classes above the bass, as the codec encodes them."""
    return chord_of(s.pitches)[0]


def top_class(s):
    """A slice's top-voice interval class, None when it doubles the bass."""
    return chord_of(s.pitches)[1]


def ic_slice(ics, piece="a", index=0, bass=48):
    pitches = [bass] + [bass + iv for iv in ics]
    return Slice(piece, index, Fraction(index), tuple(sorted(pitches)), float(index))


class TestReduceOversized:
    def test_reduction_to_most_common_maximal_subset(self):
        # <4,7,10,11> with <4,7,10> most common nearby reduces to <4,7,10>
        s = ic_slice([4, 7, 10, 11])
        neighbors = Counter({frozenset({4, 7, 10}): 3, frozenset({4, 7}): 5})
        reduced, replaced = reduce_oversized(s, neighbors, Counter(), Counter())
        assert replaced
        assert classes(reduced) == (4, 7, 10)

    def test_within_limit_is_identity(self):
        s = ic_slice([4, 7, 10])
        reduced, replaced = reduce_oversized(s, Counter(), Counter(), Counter())
        assert not replaced
        assert reduced is s

    def test_cardinality_beats_frequency_then_lexicographic(self):
        # candidates {4,7}: 5, {2,7,9}: 2, {4,7,9}: 2 for oversized {2,4,7,9}
        s = ic_slice([2, 4, 7, 9])
        pop = Counter({frozenset({4, 7}): 5, frozenset({2, 7, 9}): 2,
                       frozenset({4, 7, 9}): 2})
        reduced, _ = reduce_oversized(s, pop, Counter(), Counter())
        assert classes(reduced) == (2, 7, 9)

    def test_brute_force_subset_oracle(self):
        rng = random.Random(21)
        for _ in range(40):
            oversized = tuple(sorted(rng.sample(range(1, 12), rng.randint(4, 6))))
            pop = Counter()
            for _ in range(rng.randint(0, 12)):
                pop[frozenset(rng.sample(range(1, 12), rng.randint(1, 3)))] += rng.randint(1, 5)
            s = ic_slice(list(oversized))
            reduced, _ = reduce_oversized(s, pop, Counter(), Counter())
            # oracle: enumerate every subset of the oversized set present in
            # the population, rank by (size, freq, lexicographically smallest)
            candidates = []
            for size in (1, 2, 3):
                for sub in combinations(oversized, size):
                    freq = pop.get(frozenset(sub), 0)
                    if freq:
                        candidates.append((size, freq, tuple(-iv for iv in sub), sub))
            if candidates:
                expected = max(candidates)[3]
            else:
                expected = oversized[:3]
            assert classes(reduced) == tuple(expected)

    def test_population_fallback_order(self):
        s = ic_slice([1, 4, 7, 10])
        piece_pop = Counter({frozenset({4, 7}): 1})
        corpus_pop = Counter({frozenset({1, 4, 7}): 9})
        # neighbors empty: the piece population is consulted before the corpus
        reduced, _ = reduce_oversized(s, Counter(), piece_pop, corpus_pop)
        assert classes(reduced) == (4, 7)

    def test_degenerate_fallback_keeps_lowest_three(self):
        s = ic_slice([2, 5, 8, 11])
        reduced, replaced = reduce_oversized(s, Counter(), Counter(), Counter())
        assert replaced
        assert classes(reduced) == (2, 5, 8)

    def test_top_marker_moves_to_nearest_retained_class(self):
        # top voice on 11; the kept set {4,7,10} pulls the marker to 10
        s = ic_slice([4, 7, 10, 11])
        neighbors = Counter({frozenset({4, 7, 10}): 1})
        reduced, _ = reduce_oversized(s, neighbors, Counter(), Counter())
        assert top_class(reduced) == 10

    def test_top_marker_preserved_when_it_survives(self):
        pitches = (48, 52, 55, 58, 48 + 12 + 11)  # ics {4,7,10,11}, top on 11
        s = Slice("a", 0, Fraction(0), pitches, 0.0)
        neighbors = Counter({frozenset({4, 7, 11}): 1})
        reduced, _ = reduce_oversized(s, neighbors, Counter(), Counter())
        assert classes(reduced) == (4, 7, 11)
        assert top_class(reduced) == 11
        assert reduced.bass == 48

    def test_bass_pitch_class_preserved(self):
        s = ic_slice([1, 4, 7, 10], bass=53)
        reduced, _ = reduce_oversized(s, Counter({frozenset({4, 7}): 1}),
                                      Counter(), Counter())
        assert reduced.bass == 53


class TestPrepare:
    def make_corpus(self, with_perf=True):
        rows = []
        for i in range(8):
            perf = f"\t{0.5 * i}\t0.5" if with_perf else ""
            rows.append(f"a\t{i}\t1\t{60 + i}{perf}")
        return parse_text("\n".join(rows) + "\n")

    def test_prepare_expands_and_assigns(self):
        corpus = self.make_corpus()
        stats = prepare_corpus(corpus)
        assert stats.n_slices == 8
        assert corpus.pieces[0].slices[3].onset_perf == pytest.approx(1.5)
        assert not corpus.pieces[0].synthetic_tempo

    def test_prepare_flags_fixed_tempo_fallback(self):
        corpus = self.make_corpus(with_perf=False)
        prepare_corpus(corpus)
        assert corpus.pieces[0].synthetic_tempo
        assert corpus.pieces[0].slices[1].onset_perf == pytest.approx(0.6)

    def test_reduction_fraction_reported(self):
        rows = []
        # seven triads then one five-interval-class cluster
        for i in range(7):
            for p in (48, 52, 55):
                rows.append(f"a\t{i}\t1\t{p}")
        for p in (48, 49, 52, 55, 58, 59):
            rows.append(f"a\t7\t1\t{p}")
        corpus = parse_text("\n".join(rows) + "\n")
        stats = prepare_corpus(corpus)
        assert stats.n_reduced == 1
        assert stats.n_reduced / stats.n_slices == pytest.approx(1 / 8)
        assert classes(corpus.pieces[0].slices[7]) == (4, 7)

    def test_reduce_corpus_equals_per_slice_reduce_oversized(self):
        # each oversized slice, reduced against Counters of its original
        # window, piece and corpus, as _reduce documents
        rng = random.Random(17)
        for _ in range(4):
            rows = [f"{piece}\t{i}\t1\t{p}" for piece in ("p1", "p2", "p3")
                    for i in range(40) for p in rng.sample(range(40, 80), rng.randint(1, 7))]
            corpus = parse_text("\n".join(rows) + "\n")
            prepare_corpus(corpus)
            unreduced = [render_fixed_tempo(expand(piece.notes)) for piece in corpus.pieces]
            sets = [[frozenset(classes(s)) for s in slices] for slices in unreduced]
            corpus_pop = Counter(c for piece_sets in sets for c in piece_sets)
            n_reduced = 0
            for slices, piece_sets, done in zip(unreduced, sets, corpus.pieces):
                for i, s in enumerate(slices):
                    window = piece_sets[max(0, i - 5):i] + piece_sets[i + 1:i + 6]
                    expected, replaced = reduce_oversized(
                        s, Counter(window), Counter(piece_sets), corpus_pop)
                    n_reduced += replaced
                    assert done.slices[i] == expected
            assert n_reduced > 20

    def test_all_slices_within_limit_after_reduction(self):
        rng = random.Random(13)
        rows = []
        for piece in ("p1", "p2"):
            for i in range(30):
                for p in sorted(rng.sample(range(40, 80), rng.randint(1, 6))):
                    rows.append(f"{piece}\t{i}\t1\t{p}")
        corpus = parse_text("\n".join(rows) + "\n")
        prepare_corpus(corpus)
        for piece in corpus.pieces:
            for s in piece.slices:
                assert len(classes(s)) <= 3
