import math
import random
from fractions import Fraction

import pytest

from vlgram import evaluation
from vlgram.corpus import Corpus, NoteEvent, Piece, prepare_corpus
from vlgram.evaluation import (BASELINES, FIXED_SKIPS, VARIABLE_WINDOWS,
                               ConfigResult, GenerationError, PipelineConfig,
                               PlantSpec, compare_levels, default_grid,
                               default_skip_configs, default_vocabulary,
                               generate_synthetic_corpus, mrr, pooled_t_test,
                               run_config, run_grid, summarize_grid)
from vlgram.filters import FILTER_KINDS, FilterSpec
from vlgram.ranking import MEASURES
from vlgram.skipgram import SkipConfig, EncodedPiece, encode_corpus, enumerate_piece
from vlgram.vlt import Vlt, parse_pattern
from vlgram.weighting import WEIGHT_KINDS

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
        result = __import__("vlgram.evaluation", fromlist=["GridResult"]).GridResult(
            "q", 3, rows)
        assert len(result.group("skip", "fixed:0")) == 140
        assert len(result.group("skip", "variable:2")) == 140
        assert len(result.group("weight", "count")) == 364
        assert len(result.group("filter", "harmony")) == 455
        assert len(result.group("rank", "pmi-cov")) == 260
        assert len(result.group("skip_mode", "fixed")) == 1260
        assert len(result.group("skip_mode", "variable")) == 560
        # two-sample dfs: 278, 726, 908, 518, 1818
        assert 140 + 140 - 2 == 278
        assert 364 + 364 - 2 == 726
        assert 455 + 455 - 2 == 908
        assert 260 + 260 - 2 == 518
        assert 1260 + 560 - 2 == 1818


class TestMrr:
    def test_perfect_ranks(self):
        assert mrr([1, 1, 1]) == 1.0

    def test_arithmetic(self):
        assert mrr([1, 2, 4]) == pytest.approx(0.5833333333333334)

    def test_all_absent(self):
        assert mrr([None, None]) == 0.0

    def test_absent_contributes_zero(self):
        assert mrr([1, None]) == 0.5


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
        from vlgram.evaluation import GridResult
        grid = GridResult("q", 3, rows)
        ab = compare_levels(grid, ("skip", "fixed:0"), ("skip", "fixed:1"))
        ba = compare_levels(grid, ("skip", "fixed:1"), ("skip", "fixed:0"))
        assert ab.delta == pytest.approx(-ba.delta)
        assert ab.t == pytest.approx(-ba.t)
        assert ab.d == pytest.approx(-ba.d)
        assert ab.df == ba.df
        assert ab.p == ba.p
        assert ab.flipped() == ba


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
        recorded = []
        chains = []

        class SerialPool:
            """Stands in for ProcessPoolExecutor: records its size and tasks, maps in-process."""

            def __init__(self, max_workers):
                recorded.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                tasks = list(iterable)
                chains.append([[skip.bound for skip in task[1]] for task in tasks])
                return map(fn, tasks)

        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", SerialPool)
        corpus, _ = planted_corpus(seed=47, n_pieces=3, length=24)
        skips = [SkipConfig("fixed", 3, t=2), SkipConfig("variable", 3, w=1.0)]
        serial = run_grid(corpus, MRDCC, 3, skip_configs=skips, jobs=1)
        assert recorded == []
        pooled = run_grid(corpus, MRDCC, 3, skip_configs=skips, jobs=20)
        assert recorded == [2]
        assert pooled.rows == serial.rows
        # all 13 levels at jobs=2: each mode's levels dealt into two chains
        serial = run_grid(corpus, MRDCC, 3, jobs=1)
        pooled = run_grid(corpus, MRDCC, 3, jobs=2)
        assert recorded == [2, 2]
        assert chains[-1] == [[0, 2, 4, 6, 8], [1, 3, 5, 7], [0.5, 1.5], [1.0, 2.0]]
        assert pooled.rows == serial.rows

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
            rows = [r for r in by_stage[stage] if r.level == baseline]
            assert len(rows) == 1 and rows[0].is_baseline
            assert rows[0].comparison is None
        mode_row = by_stage["skip_mode"][0]
        assert mode_row.comparison.df == 1818

    def test_summary_rows_equal_per_level_comparisons(self):
        corpus, _ = planted_corpus(seed=53, n_pieces=3, length=24)
        grid = run_grid(corpus, MRDCC, 3, skip_configs=[
            SkipConfig("fixed", 3, t=0), SkipConfig("variable", 3, w=1.0),
            SkipConfig("fixed", 3, t=2)])
        expected = []
        for stage in ("skip", "weight", "filter", "rank", "skip_mode"):
            groups = grid.groups(stage)
            assert list(groups) == grid.levels(stage)
            for level, rrs in groups.items():
                assert rrs == [r.rr for r in grid.rows if r.level(stage) == level]
            baseline = BASELINES.get(stage, "fixed")
            for level in grid.levels(stage):
                if stage == "skip_mode" and level == "fixed":
                    continue
                rrs = grid.group(stage, level)
                comp = (None if level == baseline else
                        compare_levels(grid, (stage, level), (stage, baseline), 50))
                expected.append((stage, level, len(rrs), sum(rrs) / len(rrs), comp))
        assert [(r.stage, r.level, r.n_configs, r.mrr, r.comparison)
                for r in summarize_grid(grid, 50)] == expected
        assert grid.group("skip", "fixed:9") == []
