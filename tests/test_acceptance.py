"""Acceptance suite: one test per criterion, one printed line per criterion.

The PASS/FAIL lines suspend pytest's capture, so a plain ``pytest
tests/test_acceptance.py`` run shows them as the criteria complete.
"""

import math
import random
import time
from contextlib import contextmanager
from itertools import combinations

import pytest

from harmony_fixtures import HARMONY_CASES
from oracles import enumerate_contiguous, g5_split
from vlgram.cli import main as cli_main
from vlgram.corpus import prepare_corpus
from vlgram.evaluation import (PlantSpec, default_grid, default_skip_configs,
                               default_vocabulary, generate_synthetic_corpus,
                               run_grid)
from vlgram.filters import harmony_pass
from vlgram.ranking import TableBuilder, score_type
from vlgram.skipgram import EncodedPiece, SkipConfig, enumerate_piece
from vlgram.vlt import parse_pattern
from vlgram.weighting import weigh_all

MRDCC_TEXT = "<5,9*,_>[0]<4,7*,10>[5]<4,_,_>"
MRDCC = parse_pattern(MRDCC_TEXT)


@contextmanager
def criterion(number, title, capfd):
    def emit(status):
        with capfd.disabled():
            print(f"{status} criterion {number}: {title}", flush=True)

    try:
        yield
    except BaseException:
        emit("FAIL")
        raise
    emit("PASS")


def plain_piece(k, piece_id="p"):
    """A k-slice piece with trivial content; enumeration sees only indices."""
    chords = [((4, 7), 7)] * k
    return EncodedPiece(piece_id, chords, [0] * k, [0.5 * i for i in range(k)])


def test_criterion_1_contiguous_token_counts(capfd):
    with criterion(1, "contiguous token counts match the closed form", capfd):
        start = time.perf_counter()
        rng = random.Random(101)
        for _ in range(200):
            n = rng.randint(1, 8)
            lengths = [rng.randint(1, 50) for _ in range(rng.randint(1, 3))]
            total = sum(
                len(list(enumerate_contiguous(plain_piece(k, f"p{i}"), n)))
                for i, k in enumerate(lengths))
            assert total == sum(max(k - n + 1, 0) for k in lengths)
        assert len(list(enumerate_contiguous(plain_piece(20), 5))) == 16
        assert len(list(enumerate_piece(plain_piece(20), SkipConfig("fixed", 5, t=None)))) == 15504
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_skip_enumeration_oracle(capfd):
    with criterion(2, "skip enumeration equals brute-force combination filtering", capfd):
        start = time.perf_counter()
        rng = random.Random(202)
        for k in range(2, 13):
            onsets = [0.0]
            for _ in range(k - 1):
                onsets.append(onsets[-1] + rng.uniform(0.05, 1.1))
            piece = EncodedPiece("p", [((4, 7), 7)] * k, [rng.randrange(12) for _ in range(k)],
                                 onsets)
            for n in (2, 3, 4):
                all_combos = list(combinations(range(k), n))
                for t in range(0, 9):
                    got = [tok.indices
                           for tok in enumerate_piece(piece, SkipConfig("fixed", n, t=t))]
                    want = [c for c in all_combos
                            if sum(b - a - 1 for a, b in zip(c, c[1:])) <= t]
                    assert got == want, (k, n, t)
                for w in (0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0):
                    got = [tok.indices
                           for tok in enumerate_piece(piece, SkipConfig("variable", n, w=w))]
                    want = [c for c in all_combos
                            if all(onsets[b] - onsets[a] <= w for a, b in zip(c, c[1:]))]
                    assert got == want, (k, n, w)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_3_weighting(capfd):
    with criterion(3, "weighting closed forms, circle-map oracle, unit interval", capfd):
        rng = random.Random(303)
        # isochronous tokens of any cardinality score 1
        for n in (2, 3, 4, 6):
            ioi = rng.uniform(0.1, 2.0)
            onsets = [ioi * i for i in range(n)]
            assert weigh_all(onsets)[1] == pytest.approx(1.0, abs=1e-12)
        # every 2-gram scores 1
        for _ in range(200):
            assert weigh_all([0.0, rng.uniform(0.01, 4.0)])[1] == pytest.approx(
                1.0, abs=1e-12)
        assert abs(weigh_all([0.0, 1.0])[3] - 0.5) <= 1e-12
        # independent circle-map oracle for the (1.0, 1.5) case
        def oracle(iois, period):
            phases = [0.0]
            for ioi in iois:
                r = (phases[-1] + ioi / period) % 1.0
                phases.append(r - 1.0 if r >= 0.5 else r)
            s = sum(complex(math.cos(2 * math.pi * p), math.sin(2 * math.pi * p))
                    for p in phases)
            return abs(s) / len(phases)
        expected = min(oracle([1.0, 1.5], p) for p in (1.0, 1.5))
        assert abs(expected - 1 / 3) <= 1e-9
        assert abs(weigh_all([0.0, 1.0, 2.5])[1] - 1 / 3) <= 1e-9
        # all five weights stay within [0, 1] over ten thousand random tokens
        for _ in range(10000):
            onsets = [0.0]
            for _ in range(rng.randint(1, 4)):
                onsets.append(onsets[-1] + rng.choice([0.0, rng.uniform(0.001, 4.0)]))
            assert all(0.0 <= w <= 1.0 + 1e-12 for w in weigh_all(onsets))


def test_criterion_4_contingency_and_measures(capfd):
    with criterion(4, "contingency-table measures match independent oracles", capfd):
        def bigram_table(o11, o12, o21, o22):
            builder = TableBuilder(2, 1, ("count",))
            for text, times in (("<4,7,_>[5]<3,8,_>", o11), ("<4,7,_>[5]<1,_,_>", o12),
                                ("<2,5,_>[5]<3,8,_>", o21), ("<2,5,_>[5]<1,_,_>", o22)):
                for _ in range(times):
                    builder.add("p", parse_pattern(text).key, (1.0,))
            return builder.tables[0], parse_pattern("<4,7,_>[5]<3,8,_>").key

        table, key = bigram_table(10, 10, 10, 70)
        assert abs(score_type(key, table, "chi2") - 14.0625) <= 1e-9
        # direct log-likelihood evaluation, coded independently
        cells = ((10.0, 4.0), (10.0, 16.0), (10.0, 16.0), (70.0, 64.0))
        direct = 2.0 * sum(o * math.log(o / e) for o, e in cells if o > 0)
        assert abs(score_type(key, table, "g2") - direct) <= 1e-9
        # for n = 2 the split average degenerates to the single table, exactly
        single = g5_split(key, 1, table)
        assert score_type(key, table, "chi2") == single.chi2()
        assert score_type(key, table, "g2") == single.g2()
        assert single.cells() == (10.0, 10.0, 10.0, 70.0)
        # independence fixture: every cell at its expected value
        indep, ikey = bigram_table(4, 16, 16, 64)
        assert abs(score_type(ikey, indep, "pmi")) <= 1e-12
        assert abs(score_type(ikey, indep, "chi2")) <= 1e-12
        # perfect association: every component occurrence lies inside the type
        perfect, pkey = bigram_table(12, 0, 0, 31)
        assert score_type(pkey, perfect, "dice") == pytest.approx(1.0, abs=1e-12)


def test_criterion_5_harmony_filter(capfd):
    with criterion(5, "harmony filter labels the hand fixtures with no errors", capfd):
        assert harmony_pass(MRDCC.key)
        assert not harmony_pass(parse_pattern("<4,7,_>[0]<4,7,_>[0]<4,7,_>").key)
        assert not harmony_pass(parse_pattern("<3,8,_>[0]<3,8,_>[0]<3,8,_>").key)
        assert len(HARMONY_CASES) >= 100
        errors = [(text, want) for text, want, _ in HARMONY_CASES
                  if harmony_pass(parse_pattern(text).key) is not want]
        assert errors == [], errors


def test_criterion_6_grid_shape(capfd):
    with criterion(6, "grid emits 1820 configurations with the stated group sizes", capfd):
        grid = default_grid(3)
        assert len(grid) == 1820
        skips = default_skip_configs(3)
        assert len(skips) == 13
        labels = [(c.skip.mode, c.skip.t, c.skip.w, c.weight, c.filter.kind, c.measure)
                  for c in grid]
        assert len(set(labels)) == 1820

        def group_size(predicate):
            return sum(1 for c in grid if predicate(c))

        for skip in skips:
            assert group_size(lambda c: c.skip == skip) == 140
        for weight in ("count", "periodicity", "resonance", "proximity",
                       "resonant_periodicity"):
            assert group_size(lambda c: c.weight == weight) == 364
        for fkind in ("none", "frequency", "harmony", "both"):
            assert group_size(lambda c: c.filter.kind == fkind) == 455
        for measure in ("counts", "pmi", "pmi-local", "pmi-cov", "dice", "chi2", "g2"):
            assert group_size(lambda c: c.measure == measure) == 260
        n_fixed = group_size(lambda c: c.skip.mode == "fixed")
        n_var = group_size(lambda c: c.skip.mode == "variable")
        assert (n_fixed, n_var) == (1260, 560)
        # the published degrees of freedom follow exactly
        assert 140 + 140 - 2 == 278
        assert 364 + 364 - 2 == 726
        assert 455 + 455 - 2 == 908
        assert 260 + 260 - 2 == 518
        assert n_fixed + n_var - 2 == 1818


def test_criterion_7_planted_pattern_retrieval(capfd):
    with criterion(7, "planted cadence retrieved by the skip+filter+AM pipeline", capfd):
        start = time.perf_counter()
        exclude = [(c.intervals, c.top) for c in MRDCC.chords]
        vocabulary = default_vocabulary(12, seed=2, exclude=exclude)
        plant = PlantSpec(MRDCC, (1, 2, 3, 4, 5), 0.6, 6)
        corpus, records = generate_synthetic_corpus(20, 500, vocabulary,
                                                    seed=7, plant=plant)
        prepare_corpus(corpus)
        assert len({r.piece_id for r in records}) == 12   # 60% of 20 pieces
        assert all(1 <= g <= 5 for r in records for g in r.gaps)

        grid = run_grid(corpus, MRDCC, 3)
        assert len(grid.rows) == 1820
        tuned = grid.result_for("fixed", "5", "count", "harmony", "pmi-cov")
        assert tuned.query_rank is not None and tuned.query_rank <= 10, tuned
        baseline = grid.result_for("fixed", "0", "count", "none", "counts")
        assert baseline.query_rank is None or baseline.query_rank > 100, baseline
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0, f"took {elapsed:.1f}s"
        with capfd.disabled():
            print(f"  criterion 7 detail: tuned rank {tuned.query_rank}, baseline "
                  f"{'absent' if baseline.query_rank is None else baseline.query_rank}, "
                  f"grid in {elapsed:.1f}s", flush=True)


def test_criterion_8_determinism(tmp_path, capfd):
    with criterion(8, "every command is byte-identical across reruns", capfd):
        def run(args):
            assert cli_main(args) == 0

        outputs = {}
        for attempt in ("a", "b"):
            base = tmp_path / attempt
            base.mkdir()
            corpus = base / "corpus.tsv"
            manifest = base / "manifest.csv"
            run(["synth", "--pieces", "5", "--length", "48", "--seed", "33",
                 "--pattern", MRDCC_TEXT, "--gap-max", "3", "--per-piece", "3",
                 "--output", str(corpus), "--manifest", str(manifest)])
            run(["expand", "--input", str(corpus), "--output", str(base / "slices.tsv")])
            run(["encode", "--input", str(corpus), "--output", str(base / "vlts.tsv")])
            run(["mine", "--input", str(corpus), "--skip", "fixed:5",
                 "--weight", "periodicity", "--filter", "harmony",
                 "--rank", "pmi-cov", "--query", MRDCC_TEXT,
                 "--output", str(base / "ranked.csv"),
                 "--dump-tokens", str(base / "tokens.tsv")])
            run(["grid", "--input", str(corpus), "--query", MRDCC_TEXT,
                 "--output", str(base / "grid.csv"),
                 "--summary", str(base / "summary.csv")])
            run(["report", "--grid", str(base / "grid.csv"),
                 "--output", str(base / "report.csv")])
            outputs[attempt] = {
                p.name: p.read_bytes() for p in sorted(base.iterdir())}
        assert outputs["a"].keys() == outputs["b"].keys()
        for name in outputs["a"]:
            assert outputs["a"][name] == outputs["b"][name], f"{name} differs"
