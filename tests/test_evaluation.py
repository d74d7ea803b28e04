import concurrent.futures
import dataclasses
import gc
import math
import multiprocessing
import random
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlgram import evaluation
from vlgram.corpus import Corpus, NoteEvent, PerformanceDataError, Piece, Slice, prepare_corpus
from vlgram.evaluation import (BASELINES, FIXED_SKIPS, VARIABLE_WINDOWS,
                               ConfigResult, GenerationError, PipelineConfig,
                               PlantSpec, compare_levels, default_grid,
                               default_skip_configs, default_vocabulary,
                               generate_synthetic_corpus, mrr, pooled_t_test,
                               run_config, run_grid, summarize_grid)
from vlgram.filters import FILTER_KINDS, FilterSpec
from vlgram.ranking import MEASURES, TableBuilder
from vlgram.skipgram import SkipConfig, EncodedPiece, encode_corpus, enumerate_piece
from vlgram.vlt import Vlt, parse_pattern
from vlgram.weighting import WEIGHT_KINDS, weigh_all

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
        levels = evaluation._level(
            pieces, chain, WEIGHT_KINDS, (), (), 0.0, "intersect",
            lambda _skip, keys, weighted: (keys, [table for table, _, _ in weighted]))
        for skip, (keys, tables) in zip(chain, levels):
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
