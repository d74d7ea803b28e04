import concurrent.futures
import dataclasses
import gc
import math
import multiprocessing
import random
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from itertools import pairwise
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlgram import evaluation
from vlgram.corpus import Corpus, NoteEvent, PerformanceDataError, Piece, Slice, prepare_corpus
from vlgram.evaluation import (BASELINES, FIXED_SKIPS, VARIABLE_WINDOWS,
                               ConfigResult, GenerationError, PipelineConfig,
                               GridResult, PlantSpec, default_grid,
                               default_skip_configs, default_vocabulary,
                               generate_synthetic_corpus, mean_var, pooled_t_test,
                               run_config, run_grid, summarize_grid)
from vlgram.filters import FILTER_KINDS, FilterSpec, harmony_bits, harmony_pass
from vlgram.ranking import MEASURES, TableBuilder, score_all
from vlgram.skipgram import SkipConfig, EncodedPiece, encode_corpus, enumerate_piece
from vlgram.vlt import Vlt, parse_pattern
from vlgram.weighting import WEIGHT_KINDS, ordered_sum, weigh_all

MRDCC = parse_pattern("<5,9*,_>[0]<4,7*,10>[5]<4,_,_>")


def realize(piece_id, chords):
    """A piece sounding the chords one beat apart, the bass moving by each motion."""
    notes = []
    bass_pc = 2
    for beat, chord in enumerate(chords):
        if chord.bass_motion is not None:
            bass_pc = (bass_pc + chord.bass_motion) % 12
        bass = 48 + bass_pc
        pitches = {bass}
        if chord.top is None:
            pitches.update(bass + iv for iv in chord.intervals)
            if chord.intervals:
                pitches.add(bass + 12)
        else:
            pitches.update(bass + iv for iv in chord.intervals if iv != chord.top)
            pitches.add(bass + 12 + chord.top)
        for pitch in sorted(pitches):
            notes.append(NoteEvent(piece_id, Fraction(beat), Fraction(1), pitch,
                                   0.5 * beat, 0.5))
    return Piece(piece_id, notes)


def mrdcc_statement_corpus(n_pieces=3, statements=6):
    """Pieces consisting solely of repeated literal statements of the cadence."""
    corpus = Corpus([realize(f"m{p}", MRDCC.chords * statements) for p in range(n_pieces)])
    prepare_corpus(corpus)
    return corpus


def tied_corpus():
    """The cadence ties two other types exactly, and one type outnumbers all three.

    Seven statements of the cadence and two more chords hold 21 contiguous
    trigrams, seven of each rotation of the cadence. A chain of fifths
    holds 28 trigrams of one type.
    """
    fifths = [Vlt((4, 7), 7)] + [Vlt((4, 7), 7, 5)] * 29
    corpus = Corpus([realize("cadence", MRDCC.chords * 7 + MRDCC.chords[:2]),
                     realize("fifths", fifths)])
    prepare_corpus(corpus)
    return corpus


def planted_corpus(seed=11, n_pieces=6, length=80, gaps=(1, 2, 3), rate=0.5,
                   per_piece=2):
    vocab = default_vocabulary(10, seed=3, exclude=[(c.intervals, c.top)
                                                    for c in MRDCC.chords])
    plant = PlantSpec(MRDCC, gaps, rate, per_piece)
    corpus, records = generate_synthetic_corpus(n_pieces, length, vocab,
                                                seed=seed, plant=plant)
    prepare_corpus(corpus)
    return corpus, records


class TestGridShape:
    def test_grid_has_1820_configurations(self):
        assert len(default_grid()) == 1820

    def test_skip_levels(self):
        configs = default_skip_configs()
        assert len(configs) == 13
        assert [c.t for c in configs[:9]] == list(FIXED_SKIPS)
        assert [c.w for c in configs[9:]] == list(VARIABLE_WINDOWS)

    def test_group_sizes_match_df_arithmetic(self):
        grid = default_grid()
        rows = [ConfigResult("fixed" if c.skip.mode == "fixed" else "variable",
                             str(c.skip.t) if c.skip.mode == "fixed" else f"{c.skip.w:g}",
                             c.weight, c.filter.kind, c.measure, None)
                for c in grid]
        result = GridResult("q", 3, rows)
        assert len(result.groups("skip")["fixed:0"]) == 140
        assert len(result.groups("skip")["variable:2"]) == 140
        assert len(result.groups("weight")["count"]) == 364
        assert len(result.groups("filter")["harmony"]) == 455
        assert len(result.groups("rank")["pmi-cov"]) == 260
        assert len(result.groups("skip_mode")["fixed"]) == 1260
        assert len(result.groups("skip_mode")["variable"]) == 560
        # two-sample dfs: 278, 726, 908, 518, 1818
        assert 140 + 140 - 2 == 278
        assert 364 + 364 - 2 == 726
        assert 455 + 455 - 2 == 908
        assert 260 + 260 - 2 == 518
        assert 1260 + 560 - 2 == 1818


def level_row(ranks):
    """summarize_grid's row for the one level of a grid whose query ranked ``ranks``."""
    rows = [ConfigResult("fixed", "0", "count", "none", "counts", r) for r in ranks]
    return summarize_grid(GridResult("q", 3, rows))[0]


class TestMrr:
    def test_perfect_ranks(self):
        assert level_row([1, 1, 1]).mrr == 1.0

    def test_arithmetic(self):
        assert level_row([1, 2, 4]).mrr == pytest.approx(0.5833333333333334)

    def test_all_absent(self):
        # summary.csv's na column marks the levels whose MRR is 0.0
        assert level_row([None, None]).mrr == 0.0
        assert level_row([None, 1000]).mrr > 0.0

    def test_absent_contributes_zero(self):
        assert level_row([1, None]).mrr == 0.5

    def test_a_level_without_its_baseline_is_not_compared(self):
        rows = [ConfigResult("fixed", "1", "count", "none", "counts", r) for r in (1, 2)]
        with pytest.raises(ValueError, match="at least two observations"):
            summarize_grid(GridResult("q", 3, rows))

    def test_a_grid_of_one_skip_mode_has_no_skip_mode_row(self):
        rows = [ConfigResult("fixed", "0", "count", "none", "counts", r) for r in (1, 2)]
        assert ([row.stage for row in summarize_grid(GridResult("q", 3, rows))]
                == ["skip", "weight", "filter", "rank"])


class TestComparisons:
    def test_identical_groups_give_zero_t_and_d(self):
        xs = [0.1, 0.2, 0.3, 0.4]
        comp_t, df, p, d = pooled_t_test(xs, list(xs))
        assert comp_t == pytest.approx(0.0)
        assert d == pytest.approx(0.0)
        assert df == 6
        assert p == 1.0

    def test_zero_pooled_variance_reports_undefined(self):
        t, df, p, d = pooled_t_test([0.5, 0.5], [0.5, 0.5])
        assert t is None and p is None and d == 0.0

    def test_hand_computed_t(self):
        # means 2 and 1, each sample variance 2/3, n=4 each: pooled sp^2 = 2/3,
        # t = 1 / sqrt(2/3 * (1/4 + 1/4)) = sqrt(3), d = 1 / sqrt(2/3)
        xs = [1.0, 2.0, 2.0, 3.0]
        ys = [0.0, 1.0, 1.0, 2.0]
        t, df, p, d = pooled_t_test(xs, ys)
        assert t == pytest.approx(math.sqrt(3.0))
        assert df == 6
        assert d == pytest.approx(math.sqrt(1.5))

    def test_p_against_frozen_table_value(self):
        # classic two-sided critical point: t = 2.228, df = 10 gives p close to .05
        rng = random.Random(2)
        xs = [rng.gauss(0, 1) for _ in range(6)]
        ys = [rng.gauss(0, 1) for _ in range(6)]
        t, df, p, d = pooled_t_test(xs, ys)
        assert df == 10
        from scipy.stats import t as t_dist
        assert 2.0 * float(t_dist.sf(2.228, 10)) == pytest.approx(0.05, abs=2e-4)

    def test_variance_squares_by_multiplication(self):
        # (x - m) ** 2 rounds differently on some libms; (x - m) * (x - m) is
        # one correctly rounded product everywhere
        assert mean_var([0.1, 1.0, 1.0, 0.2])[1] == 0.24250000000000002

    def test_bonferroni_caps_at_one(self):
        xs = [0.0, 1.0, 0.5, 0.7]
        ys = [0.1, 0.9, 0.4, 0.8]
        _, _, p, _ = pooled_t_test(xs, ys, planned_comparisons=50)
        assert p == 1.0

    def test_antisymmetry(self):
        rows = []
        for i, level in enumerate(["0", "1"]):
            for j in range(4):
                rows.append(ConfigResult("fixed", level, "count", "none", "counts",
                                         1 + (i + j) % 3))
        groups = GridResult("q", 3, rows).groups("skip")
        ab = pooled_t_test(groups["fixed:0"], groups["fixed:1"])
        ba = pooled_t_test(groups["fixed:1"], groups["fixed:0"])
        (mean_a, _), (mean_b, _) = mean_var(groups["fixed:0"]), mean_var(groups["fixed:1"])
        assert mean_a - mean_b == -(mean_b - mean_a) != 0.0
        t, df, p, d = ab
        assert ba == (-t, df, p, -d)

    def test_a_constant_group_has_no_variance(self):
        # each mean of 140 thirds rounds off 1/3; the spread is still none
        assert mean_var([1 / 3] * 140) == (ordered_sum([1 / 3] * 140) / 140, 0.0)
        assert pooled_t_test([1 / 3] * 140, [1.0] * 140) == (None, 278, None, 0.0)


class TestRunConfig:
    def test_pure_cadence_corpus_ranks_first(self):
        corpus = mrdcc_statement_corpus()
        config = PipelineConfig(SkipConfig("fixed", 3, t=0), "count",
                                FilterSpec("none"), "counts")
        ranked, rank = run_config(corpus, config, MRDCC)
        assert rank == 1

    def test_harmony_filter_retains_cadence(self):
        corpus = mrdcc_statement_corpus()
        config = PipelineConfig(SkipConfig("fixed", 3, t=0), "count",
                                FilterSpec("harmony"), "counts")
        ranked, rank = run_config(corpus, config, MRDCC)
        assert rank is not None
        assert MRDCC.key in {e.key for e in ranked.entries}

    def test_planted_gap_pattern_needs_skips(self):
        corpus, records = planted_corpus()
        assert records
        base = PipelineConfig(SkipConfig("fixed", 3, t=0), "count",
                              FilterSpec("none"), "counts")
        _, rank_contiguous = run_config(corpus, base, MRDCC)
        assert rank_contiguous is None
        wide = PipelineConfig(SkipConfig("fixed", 3, t=6), "count",
                              FilterSpec("none"), "counts")
        _, rank_skip = run_config(corpus, wide, MRDCC)
        assert rank_skip is not None

    def test_cardinality_mismatch_rejected(self):
        corpus = mrdcc_statement_corpus(1, 3)
        config = PipelineConfig(SkipConfig("fixed", 2, t=0), "count",
                                FilterSpec("none"), "counts")
        with pytest.raises(ValueError):
            run_config(corpus, config, MRDCC)


class TestSyntheticCorpus:
    def test_zero_rate_plants_nothing(self):
        vocab = default_vocabulary(8, seed=1)
        plant = PlantSpec(MRDCC, (1, 2), 0.0, 3)
        corpus, records = generate_synthetic_corpus(4, 30, vocab, seed=5, plant=plant)
        assert records == []

    def test_same_seed_reproduces_corpus(self):
        vocab = default_vocabulary(8, seed=1)
        plant = PlantSpec(MRDCC, (1, 2, 3), 0.5, 2)
        a, rec_a = generate_synthetic_corpus(5, 40, vocab, seed=9, plant=plant)
        b, rec_b = generate_synthetic_corpus(5, 40, vocab, seed=9, plant=plant)
        assert rec_a == rec_b
        assert [p.piece_id for p in a.pieces] == [p.piece_id for p in b.pieces]
        for pa, pb in zip(a.pieces, b.pieces):
            assert pa.notes == pb.notes

    def test_different_seed_differs(self):
        vocab = default_vocabulary(8, seed=1)
        a, _ = generate_synthetic_corpus(3, 30, vocab, seed=1)
        b, _ = generate_synthetic_corpus(3, 30, vocab, seed=2)
        assert any(pa.notes != pb.notes for pa, pb in zip(a.pieces, b.pieces))

    def test_manifest_instances_recoverable_at_sufficient_budget(self):
        corpus, records = planted_corpus(seed=23, gaps=(1, 2), per_piece=3)
        by_piece = {p.piece_id: EncodedPiece.from_slices(p.slices) for p in corpus.pieces}
        max_total = max(r.total_gap for r in records)
        min_total = min(r.total_gap for r in records)
        for rec in records:
            piece = by_piece[rec.piece_id]
            found = {t.indices for t in enumerate_piece(
                piece, SkipConfig("fixed", 3, t=rec.total_gap))}
            assert rec.indices in found
            tokens = {t.indices: t for t in enumerate_piece(
                piece, SkipConfig("fixed", 3, t=rec.total_gap))}
            assert tokens[rec.indices].type_key == MRDCC.key
        # below the smallest total gap no planted tuple is reachable
        if min_total > 0:
            tight = SkipConfig("fixed", 3, t=min_total - 1)
            for rec in records:
                found = {t.indices for t in enumerate_piece(by_piece[rec.piece_id], tight)}
                assert rec.indices not in found
        assert max_total <= 4  # gaps (1, 2) over two pairs

    def test_query_token_count_monotone_in_budget_and_window(self):
        corpus, _ = planted_corpus(seed=31)
        pieces = encode_corpus(corpus)

        def count_at(config):
            return sum(1 for piece in pieces for tok in enumerate_piece(piece, config)
                       if tok.type_key == MRDCC.key)

        fixed_counts = [count_at(SkipConfig("fixed", 3, t=t)) for t in range(9)]
        assert fixed_counts == sorted(fixed_counts)
        var_counts = [count_at(SkipConfig("variable", 3, w=w))
                      for w in (0.5, 1.0, 1.5, 2.0)]
        assert var_counts == sorted(var_counts)

    def test_oversized_plant_rejected(self):
        vocab = default_vocabulary(6, seed=1)
        plant = PlantSpec(MRDCC, (30,), 1.0, 4)
        with pytest.raises(GenerationError):
            generate_synthetic_corpus(2, 40, vocab, seed=3, plant=plant)

    def test_vocabulary_excludes_requested_shapes(self):
        exclude = [(c.intervals, c.top) for c in MRDCC.chords]
        vocab = default_vocabulary(20, seed=7, exclude=exclude)
        assert not set(vocab) & set(exclude)
        assert len(vocab) == len(set(vocab)) == 20


@st.composite
def chain_corpora(draw):
    """Encoded pieces and an ascending chain of one mode's levels over them.

    Performed onsets step by 0, 0.25, 0.5 or 1.25 s, so tokens have zero
    IOIs and the variable windows admit different tokens.
    """
    pool = draw(st.lists(st.frozensets(st.integers(1, 11), max_size=3), min_size=1, max_size=4))
    pieces = []
    for p in range(draw(st.integers(1, 4))):
        slices, onset = [], 0.0
        for i in range(draw(st.integers(1, 10))):
            bass = draw(st.integers(36, 47))
            pitches = tuple(sorted({bass} | {bass + iv for iv in draw(st.sampled_from(pool))}))
            slices.append(Slice(f"p{p}", i, Fraction(i), pitches, onset))
            onset += draw(st.sampled_from([0.0, 0.25, 0.5, 1.25]))
        pieces.append(Piece(f"p{p}", [], slices))
    n = draw(st.integers(2, 3))
    if draw(st.booleans()):
        budgets = draw(st.sets(st.integers(0, 6), min_size=1, max_size=4))
        chain = [SkipConfig("fixed", n, t=t) for t in sorted(budgets)]
    else:
        windows = draw(st.sets(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0]),
                               min_size=1, max_size=4))
        chain = [SkipConfig("variable", n, w=w) for w in sorted(windows)]
    return encode_corpus(Corpus(pieces)), chain


class TestChainLevels:
    @settings(max_examples=200, deadline=None)
    @given(chain_corpora())
    def test_each_level_equals_a_builder_fed_that_level_alone(self, case):
        pieces, chain = case
        n = chain[0].n
        builder = evaluation._record(pieces, (chain,), WEIGHT_KINDS)
        for index, skip in enumerate(chain):
            tids, tables = builder.level_tables(index)
            keys = [builder.keys[tid] for tid in tids]
            fresh = TableBuilder(n, len(pieces), WEIGHT_KINDS)
            for piece in pieces:
                for tok in enumerate_piece(piece, skip):
                    fresh.add(tok.piece_id, tok.type_key, weigh_all(tok.onsets_perf))
            assert keys == fresh.keys
            # a level's tables share the chain's ids: a chain type absent from
            # the level reads as any absent key does
            absent = [key for key in tables[0].ids if key not in fresh.ids]
            for table, want in zip(tables, fresh.tables, strict=True):
                assert all(table.count(key) == 0.0 and table.covered(key) == 0
                           for key in absent)
                assert table.total == want.total
                for key in fresh.keys:
                    assert table.covered(key) == want.covered(key)
                    for i, j in [(0, n), *want.span_slots]:
                        assert table.count(key, i, j) == want.count(key, i, j)


CHORDS = [((), None), ((4,), None), ((4, 7), 7), ((3, 8), None)]


@st.composite
def adversarial_builders(draw):
    """A one-chain builder of one weight kind whose tables are near-degenerate.

    Few types over a small alphabet of chords and motions, so scores tie;
    weights of 0.1 and 0.3 sum inexactly, so derived cells can round below
    zero; 1e-3 and 1e3 make some cells tiny against the total. Optionally
    every prefix p meets every suffix s, a_p * b_s times, so that f t = pre
    suf over the reals and every type's chi2 is rounding alone.
    """
    n = draw(st.integers(2, 3))
    chord = st.sampled_from(CHORDS)
    motion = st.sampled_from([0, 5])

    def prefix():
        return ((*draw(chord), None),
                *[(*draw(chord), draw(motion)) for _ in range(n - 2)])

    builder = TableBuilder(n, 2, ("count",))
    weight = st.sampled_from([1.0, 0.1, 0.3, 1e-3, 1e3])
    if draw(st.booleans()):
        w = draw(weight)
        prefixes = {prefix(): draw(st.integers(1, 3)) for _ in range(draw(st.integers(1, 3)))}
        suffixes = {(*draw(chord), draw(motion)): draw(st.integers(1, 3))
                    for _ in range(draw(st.integers(1, 3)))}
        for pre, a in prefixes.items():
            for suf, b in suffixes.items():
                for _ in range(a * b):
                    builder.add("p0", (*pre, suf), (w,))
    for _ in range(draw(st.integers(0 if builder.keys else 1, 30))):
        builder.add(draw(st.sampled_from(["p0", "p1"])), (*prefix(), (*draw(chord), draw(motion))),
                    (draw(weight),))
    return builder, draw(st.sampled_from([0.0, 1.0, 2.5]))


def full_ranks(builder, qtid, min_count):
    """The query's ranks from scoring every type under every measure, each filter
    keeping by its definition: frequency a weighted count of at least min_count,
    harmony a type passing harmony_pass, both a type passing the two."""
    tids, [table] = builder.level_tables(0)
    keys = [builder.keys[tid] for tid in tids]
    frequent = [table.count(key) >= min_count for key in keys]
    harmonic = [harmony_pass(key) for key in keys]
    masks = {"none": [True] * len(keys), "frequency": frequent, "harmony": harmonic,
             "both": [f and h for f, h in zip(frequent, harmonic)]}
    scores = score_all(table, keys, MEASURES, tids)
    qpos = tids.index(qtid)
    return {measure: {kind: None if values[qpos] is None or not mask[qpos] else
                      1 + sum(keep and s is not None and s > values[qpos]
                              for s, keep in zip(values, mask))
                      for kind, mask in masks.items()}
            for measure, values in scores.items()}


class TestQueryRanks:
    @settings(max_examples=300, deadline=None)
    @given(adversarial_builders())
    def test_candidates_give_the_full_scoring_ranks(self, case):
        builder, min_count = case
        tids, [table] = builder.level_tables(0)
        keys = [builder.keys[tid] for tid in tids]
        full = score_all(table, keys, MEASURES, tids)
        for tid, key, chi2, g2 in zip(tids, keys, full["chi2"], full["g2"]):
            # each bound reaches within the derived band of the exact score, from
            # either side: a type is not above its own chi2, and is above the next
            # float below it; and its g2 likewise
            for measure, exact in (("chi2", chi2), ("g2", g2)):
                if exact is not None:
                    for q, positions in ((exact, []), (math.nextafter(exact, -math.inf), [0])):
                        assert score_all(table, (key,), (measure,), (tid,),
                                         above={measure: q}) == {measure: positions}
        for qpos in range(len(tids)):
            # every type as the query: the positions above it are those of the full scores
            query = {measure: scores[qpos] for measure, scores in full.items()
                     if scores[qpos] is not None}
            assert score_all(table, keys, tuple(query), tids, above=query) == {
                measure: [pos for pos, s in enumerate(full[measure]) if s is not None and s > q]
                for measure, q in query.items()}
        harmony = harmony_bits(builder.keys, FILTER_KINDS)
        for qtid in tids:
            assert evaluation._query_ranks(builder, harmony, 0, 0, qtid, min_count) == \
                [full_ranks(builder, qtid, min_count)]

    def test_a_clamped_cell_makes_a_candidate(self):
        # in the first table, the neither cell of (a, b) sums to 0.4 - 0.2 -
        # 0.30000000000000004 + 0.1 = -2.8e-17, which score_all clamps to zero:
        # outside the derivation. In the second, each 0.5 added to the total after
        # 2^53 is lost, so that cell is -996: an X^2 bound over those cells, raw or
        # clamped, is off by far more than the band. The queries are every score,
        # the midpoints between them, and points a few bands below each score
        a, d = ((4, 7), 7, None), ((3,), None, None)
        b, c = ((3, 8), None, 5), ((4,), None, 0)
        for tokens in ([((a, b), 0.1), ((a, c), 0.1), ((d, b), 0.2)],
                       [((d, c), 4.0), ((a, c), 2.0 ** 53), ((a, b), 2.0)]
                       + [((d, b), 0.5)] * 2000):
            builder = TableBuilder(2, 1, ("count",))
            for key, weight in tokens:
                builder.add("p", key, (weight,))
            tids, [table] = builder.level_tables(0)
            keys = [builder.keys[tid] for tid in tids]
            full = score_all(table, keys, ("chi2", "g2"), tids)
            clamped = keys.index((a, b))
            assert full["chi2"][clamped] is not None and full["g2"][clamped] is not None
            values = sorted({s for s in full["chi2"] + full["g2"] if s is not None})
            for q in (-math.inf, *values, *[(x + y) / 2 for x, y in pairwise(values)],
                      *[s - table.total * 2.0 ** -k for s in values for k in range(40, 54, 2)],
                      math.inf):
                assert score_all(table, keys, ("chi2", "g2"), tids,
                                 above={"chi2": q, "g2": q}) == {
                    m: [pos for pos, s in enumerate(scores) if s is not None and s > q]
                    for m, scores in full.items()}
            harmony = harmony_bits(builder.keys, FILTER_KINDS)
            for qtid in tids:
                assert evaluation._query_ranks(builder, harmony, 0, 0, qtid, 0.0) == \
                    [full_ranks(builder, qtid, 0.0)]

    def test_an_underflowing_cell_product_makes_a_candidate(self):
        # the total is about 3, but a, b and c's counts are about 1e-160, so the
        # product of (a, b)'s marginals falls below 2^-1022 and keeps only a few
        # bits, and the X^2 bound over it is off by far more than the band. The
        # queries are every score and points a relative 2^-4...2^-52 either side
        a, d = ((4, 7), 7, None), ((3,), None, None)
        b, c = ((3, 8), None, 5), ((4,), None, 0)
        builder = TableBuilder(2, 1, ("count",))
        for key, weight in (((a, b), 2e-161), ((a, c), 8e-161), ((d, b), 7e-161), ((d, c), 3.0)):
            builder.add("p", key, (weight,))
        tids, [table] = builder.level_tables(0)
        keys = [builder.keys[tid] for tid in tids]
        full = score_all(table, keys, ("chi2", "g2"), tids)
        values = {s for s in full["chi2"] + full["g2"] if s is not None}
        for q in (*values, *[s * (1 + sign * 2.0 ** -k) for s in values
                             for k in range(4, 53, 4) for sign in (1, -1)]):
            assert score_all(table, keys, ("chi2", "g2"), tids,
                             above={"chi2": q, "g2": q}) == {
                m: [pos for pos, s in enumerate(scores) if s is not None and s > q]
                for m, scores in full.items()}

    def test_candidates_are_few_where_the_query_ranks_high(self, monkeypatch):
        corpus, _ = planted_corpus(seed=43, n_pieces=4, length=36)
        builder = evaluation._record(encode_corpus(corpus), ((SkipConfig("fixed", 3, t=5),),),
                                     ("count",))
        tids, [table] = builder.level_tables(0)
        keys = [builder.keys[tid] for tid in tids]
        reads = []

        class Sums(list):
            def __getitem__(self, slot):
                reads.append(slot)
                return super().__getitem__(slot)

        counted = dataclasses.replace(table, sums=Sums(table.sums))
        logs, log = [], math.log
        monkeypatch.setattr(math, "log", lambda x: logs.append(x) or log(x))
        full = score_all(counted, keys, ("chi2", "g2"), tids)
        full_logs = len(logs)
        query = {measure: scores[tids.index(builder.ids[MRDCC.key])]
                 for measure, scores in full.items()}
        above = score_all(table, keys, ("chi2", "g2"), tids, above=query)
        assert above == {measure: [pos for pos, s in enumerate(scores) if s > query[measure]]
                         for measure, scores in full.items()}
        assert len(above["chi2"]) < len(tids) / 10
        # g2 is scored exactly, and its second bound taken, for few of the types
        assert len(logs) - full_logs < full_logs / 5
        # chi2 is settled by its bound for most: full scoring reads a type's joint,
        # its n marginals and 2(n - 1) split counts, and each exact pass 2(n - 1) more
        reads.clear()
        score_all(counted, keys, ("chi2",), tids)
        full_reads, split_reads = len(reads), 2 * (table.n - 1)
        reads.clear()
        assert score_all(counted, keys, ("chi2",), tids, above=query)["chi2"] == above["chi2"]
        assert len(reads) < full_reads + split_reads * len(tids) / 10


class TestGrid:
    def test_grid_rows_in_canonical_order_and_shape(self):
        corpus, _ = planted_corpus(seed=41, n_pieces=4, length=30)
        grid = run_grid(corpus, MRDCC, 3)
        assert len(grid.rows) == 1820
        configs = default_grid(3)
        for row, config in zip(grid.rows, configs):
            assert row.skip_mode == config.skip.mode
            assert row.weight == config.weight
            assert row.filter == config.filter.kind
            assert row.measure == config.measure

    def test_grid_agrees_with_run_config(self):
        planted, _ = planted_corpus(seed=43, n_pieces=4, length=36)
        sample = [
            (SkipConfig("fixed", 3, t=0), "count", "none", "counts"),
            (SkipConfig("fixed", 3, t=5), "periodicity", "both", "g2"),
            (SkipConfig("fixed", 3, t=8), "proximity", "frequency", "chi2"),
            (SkipConfig("variable", 3, w=2.0), "resonant_periodicity", "harmony", "dice"),
        ]
        every = [(skip, weight, fkind, measure)
                 for skip in (SkipConfig("fixed", 3, t=3), SkipConfig("variable", 3, w=1.0))
                 for weight in WEIGHT_KINDS for fkind in FILTER_KINDS for measure in MEASURES]
        for corpus in (planted, tied_corpus()):
            grid = run_grid(corpus, MRDCC, 3)
            ranked = 0
            for skip, weight, fkind, measure in sample + every:
                config = PipelineConfig(skip, weight, FilterSpec(fkind), measure)
                _, expected = run_config(corpus, config, MRDCC)
                level = str(skip.t) if skip.mode == "fixed" else f"{skip.w:g}"
                row = grid.result_for(skip.mode, level, weight, fkind, measure)
                assert row.query_rank == expected, (skip, weight, fkind, measure)
                ranked += expected is not None and expected > 1
            assert ranked

    def test_tied_scores_share_competition_rank(self):
        corpus = tied_corpus()
        config = PipelineConfig(SkipConfig("fixed", 3, t=0), "count", FilterSpec("none"),
                                "counts")
        ranked, rank = run_config(corpus, config, MRDCC)
        assert [(e.rank, e.score) for e in ranked.entries] == [(1, 28.0)] + [(2, 7.0)] * 3
        assert rank == 2
        grid = run_grid(corpus, MRDCC, 3, skip_configs=[config.skip])
        assert grid.result_for("fixed", "0", "count", "none", "counts").query_rank == 2

    def test_parallel_jobs_identical(self):
        corpus, _ = planted_corpus(seed=47, n_pieces=3, length=24)
        serial = run_grid(corpus, MRDCC, 3, jobs=1)
        parallel = run_grid(corpus, MRDCC, 3, jobs=2)
        assert serial.rows == parallel.rows

    def test_pool_has_at_most_one_worker_per_level(self, monkeypatch):
        events = []
        grid_chain = evaluation._grid_chain

        def bounds(chains):
            return [[skip.bound for skip in chain] for chain in chains]

        class DeferredPool:
            """Stands in for ProcessPoolExecutor: records its size and each submitted
            share, and runs a share in-process only when its result is read."""

            def __init__(self, max_workers):
                events.append(("pool", max_workers))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, chains, *task):
                assert fn is evaluation._grid_chain
                events.append(("submit", bounds(chains)))
                return SimpleNamespace(result=lambda: grid_chain(chains, *task))

        def parent_chain(chains, *task):
            events.append(("parent", bounds(chains)))
            return grid_chain(chains, *task)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", DeferredPool)
        monkeypatch.setattr(evaluation, "_grid_chain", parent_chain)
        corpus, _ = planted_corpus(seed=47, n_pieces=3, length=24)
        skips = [SkipConfig("fixed", 3, t=2), SkipConfig("variable", 3, w=1.0)]
        serial = run_grid(corpus, MRDCC, 3, skip_configs=skips, jobs=1)
        assert events == [("parent", [[2], [1.0]])]
        events.clear()
        pooled = run_grid(corpus, MRDCC, 3, skip_configs=skips, jobs=20)
        assert events == [("pool", 1), ("submit", [[1.0]]), ("parent", [[2]])]
        assert pooled.rows == serial.rows
        # all 13 levels at jobs=2: each mode's levels dealt into two chains,
        # one chain of each mode per process, the worker's submitted first
        serial = run_grid(corpus, MRDCC, 3, jobs=1)
        events.clear()
        pooled = run_grid(corpus, MRDCC, 3, jobs=2)
        assert events == [("pool", 1), ("submit", [[1, 3, 5, 7], [1.0, 2.0]]),
                          ("parent", [[0, 2, 4, 6, 8], [0.5, 1.5]])]
        assert pooled.rows == serial.rows

    def test_jobs_2_runs_one_worker_process_beside_this_one(self, monkeypatch):
        pools = []

        class RecordingPool(ProcessPoolExecutor):
            """Records, at shutdown, how many worker processes the pool started."""

            def shutdown(self, wait=True, *, cancel_futures=False):
                pools.append(len(self._processes))
                super().shutdown(wait, cancel_futures=cancel_futures)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        corpus, _ = planted_corpus(seed=47, n_pieces=3, length=24)
        serial = run_grid(corpus, MRDCC, 3, jobs=1)
        assert pools == []
        pooled = run_grid(corpus, MRDCC, 3, jobs=2)
        assert pools == [1]
        assert pooled.rows == serial.rows
        assert multiprocessing.active_children() == []
        # without performed onsets a variable level raises, here and in the
        # worker: the worker has exited by the time the error leaves run_grid
        for piece in corpus.pieces:
            piece.slices = [dataclasses.replace(s, onset_perf=None) for s in piece.slices]
        windows = [SkipConfig("variable", 3, w=w) for w in VARIABLE_WINDOWS]
        with pytest.raises(PerformanceDataError):
            run_grid(corpus, MRDCC, 3, skip_configs=windows, jobs=2)
        assert pools == [1, 1]
        assert multiprocessing.active_children() == []

    def test_run_grid_holds_no_memory_once_returned(self):
        """Nothing of a grid outlives run_grid: no process-wide cache keeps its types.

        On the grid-diverse benchmark input (3 pieces x 80 slices, the
        criterion-7 generator), tracing the variable:2 level keeps the test
        fast. A harmony_pass lru_cache, which held each of the chain's types
        for the rest of the process, left 0.69 MB traced after the call;
        without it 0.001 MB remains.
        """
        vocab = default_vocabulary(12, seed=2, exclude=[(c.intervals, c.top)
                                                        for c in MRDCC.chords])
        corpus, _ = generate_synthetic_corpus(3, 80, vocab, seed=7,
                                              plant=PlantSpec(MRDCC, (1, 2, 3, 4, 5)))
        prepare_corpus(corpus)
        gc.collect()
        tracemalloc.start()
        try:
            grid = run_grid(corpus, MRDCC, 3, skip_configs=[SkipConfig("variable", 3, w=2.0)])
            del grid
            gc.collect()
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 0.1 * 2 ** 20

    def test_chains_match_single_level_runs(self):
        corpus, _ = planted_corpus(seed=47, n_pieces=3, length=24)
        skips = [SkipConfig("variable", 3, w=1.5), SkipConfig("fixed", 3, t=5),
                 SkipConfig("fixed", 3, t=0), SkipConfig("variable", 3, w=0.5),
                 SkipConfig("fixed", 3, t=5), SkipConfig("fixed", 3, t=None),
                 SkipConfig("fixed", 3, t=2), SkipConfig("variable", 3, w=1.0)]
        single = [row for skip in skips
                  for row in run_grid(corpus, MRDCC, 3, skip_configs=[skip]).rows]
        assert len(single) == 140 * len(skips)
        for jobs in (1, 2, 3):
            grid = run_grid(corpus, MRDCC, 3, skip_configs=skips, jobs=jobs)
            assert grid.rows == single, jobs

    def test_windows_outskipping_the_widest_budget_match_single_level_runs(self):
        corpus, _ = planted_corpus(seed=47, n_pieces=3, length=24)
        skips = [SkipConfig("fixed", 3, t=0), SkipConfig("fixed", 3, t=1),
                 SkipConfig("variable", 3, w=0.5), SkipConfig("variable", 3, w=2.0)]
        # at jobs=2 one share walks fixed:1 with variable:2, whose window
        # admits tuples that skip more than one slice
        assert any(tok.indices[-1] - tok.indices[0] - 2 > 1 for piece in encode_corpus(corpus)
                   for tok in enumerate_piece(piece, skips[3]))
        single = [row for skip in skips
                  for row in run_grid(corpus, MRDCC, 3, skip_configs=[skip]).rows]
        assert any(row.query_rank is not None for row in single[3 * 140:])
        for jobs in (1, 2):
            grid = run_grid(corpus, MRDCC, 3, skip_configs=skips, jobs=jobs)
            assert grid.rows == single, jobs

    def test_query_absent_level_is_neither_summed_nor_scored(self, monkeypatch):
        calls = []
        level_tables = TableBuilder.level_tables

        def spy_tables(builder, level, chain=0):
            calls.append(("tables", chain, level))
            return level_tables(builder, level, chain)

        def spy_score(*args, **kwargs):
            calls.append("score")
            return score_all(*args, **kwargs)

        monkeypatch.setattr(TableBuilder, "level_tables", spy_tables)
        monkeypatch.setattr(evaluation, "score_all", spy_score)
        # the noise shares no chord with the cadence, planted at gaps of 1-3
        corpus, _ = planted_corpus(seed=47, n_pieces=3, length=24)
        absent = run_grid(corpus, MRDCC, 3, skip_configs=[SkipConfig("fixed", 3, t=0)])
        assert all(row.query_rank is None for row in absent.rows)
        assert calls == []
        grid = run_grid(corpus, MRDCC, 3, skip_configs=[SkipConfig("fixed", 3, t=0),
                                                         SkipConfig("fixed", 3, t=5)])
        assert grid.rows[:140] == absent.rows
        assert any(row.query_rank is not None for row in grid.rows[140:])
        # fixed:5 alone: per weighting, the query, then every type against its floor
        assert calls == [("tables", 0, 1)] + ["score"] * 2 * len(WEIGHT_KINDS)

    def test_rows_spell_the_level_as_its_label(self):
        corpus = mrdcc_statement_corpus(1, 3)
        skips = [SkipConfig("fixed", 3, t=None), SkipConfig("fixed", 3, t=2),
                 SkipConfig("variable", 3, w=2.0)]
        grid = run_grid(corpus, MRDCC, 3, skip_configs=skips)
        assert [row.skip_level for row in grid.rows[::140]] == ["inf", "2", "2"]
        assert [row.level("skip") for row in grid.rows[::140]] == [s.label for s in skips]

    def test_skip_config_cardinality_mismatch_rejected(self):
        corpus = mrdcc_statement_corpus(1, 3)
        for skips in ([SkipConfig("fixed", 4, t=8)],
                      [SkipConfig("fixed", 3, t=0), SkipConfig("variable", 2, w=1.0)]):
            with pytest.raises(ValueError, match="not n=3"):
                run_grid(corpus, MRDCC, 3, skip_configs=skips)

    def test_summary_levels_and_baselines(self):
        corpus, _ = planted_corpus(seed=53, n_pieces=3, length=24)
        grid = run_grid(corpus, MRDCC, 3)
        summary = summarize_grid(grid)
        by_stage = {}
        for row in summary:
            by_stage.setdefault(row.stage, []).append(row)
        assert len(by_stage["skip"]) == 13
        assert len(by_stage["weight"]) == 5
        assert len(by_stage["filter"]) == 4
        assert len(by_stage["rank"]) == 7
        assert len(by_stage["skip_mode"]) == 1
        for stage, baseline in BASELINES.items():
            rows = [r for r in by_stage[stage] if r.comparison is None]
            assert len(rows) == 1 and rows[0].level == baseline
        mode_row = by_stage["skip_mode"][0]
        assert mode_row.level == "variable" and mode_row.comparison[2] == 1818

    def test_summary_rows_equal_per_level_comparisons(self):
        corpus, _ = planted_corpus(seed=53, n_pieces=3, length=24)
        grid = run_grid(corpus, MRDCC, 3, skip_configs=[
            SkipConfig("fixed", 3, t=0), SkipConfig("variable", 3, w=1.0),
            SkipConfig("fixed", 3, t=2)])
        expected = []
        for stage in ("skip", "weight", "filter", "rank", "skip_mode"):
            groups = grid.groups(stage)
            for level, rrs in groups.items():
                assert rrs == [r.rr for r in grid.rows if r.level(stage) == level]
            baseline = BASELINES.get(stage, "fixed")
            for level in groups:
                if stage == "skip_mode" and level == "fixed":
                    continue
                rrs, base = groups[level], groups[baseline]
                comp = (None if level == baseline else
                        (sum(rrs) / len(rrs) - sum(base) / len(base),
                         *pooled_t_test(rrs, base, 50)))
                expected.append((stage, level, len(rrs), sum(rrs) / len(rrs), comp))
        assert [(r.stage, r.level, r.n_configs, r.mrr, r.comparison)
                for r in summarize_grid(grid, 50)] == expected
        assert "fixed:9" not in grid.groups("skip")
