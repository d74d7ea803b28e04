import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import weakref
from collections import Counter, defaultdict
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vlgram
from oracles import weigh_onsets
from vlgram import cli, evaluation
from vlgram.cli import GRID_COLUMNS, _load_prepared, main
from vlgram.corpus import parse_corpus, prepare_corpus
from vlgram.evaluation import PipelineConfig, run_config
from vlgram.filters import FilterSpec
from vlgram.skipgram import SkipConfig, encode_corpus, enumerate_corpus
from vlgram.vlt import format_key, parse_pattern

MRDCC_TEXT = "<5,9*,_>[0]<4,7*,10>[5]<4,_,_>"
# plants one cadence instance, at most 13 slices wide, in one of two 20-slice pieces
SYNTH_VALID = ["synth", "--seed", "1", "--pieces", "2", "--length", "20",
               "--per-piece", "1", "--pattern", MRDCC_TEXT]

GRID_HEADER = ",".join(GRID_COLUMNS)
GRID_ROW = "fixed,0,count,none,counts,2,0.5"

FOUR_NOTE_FIXTURE = """\
# whole note under a rising line
a\t0\t4\t36\t0.0\t2.0
a\t0\t1\t64\t0.0\t0.5
a\t1\t1\t65\t0.5\t0.5
a\t2\t1\t67\t1.0\t0.5
a\t3\t1\t64\t1.5\t0.5
"""

# two anchors whose beats are distinct but round to one float, and a score-only
# note before them that extrapolates from both
CLOSE_ANCHORS = ("a\t0\t1\t60\na\t1\t1\t62\t1.0\t0.5\n"
                 "a\t10000000000000001/10000000000000000\t1\t64\t1.1\t0.5\n")
# anchors whose extrapolation overflows to inf past the last, to -inf before
# the first, or to a negative time before the first: (rows, the beat named)
UNBOUNDED_ONSETS = {
    "inf": ("a\t0\t1\t60\t0.0\t0.5\na\t1e-300\t1\t62\t1e300\t0.5\n"
            "a\t1\t1\t64\na\t2\t1\t65\n", "1"),
    "minus-inf": ("a\t1e-300\t1\t60\t0.0\t0.5\na\t2e-300\t1\t62\t1e300\t0.5\n"
                  "a\t0\t1\t64\n", "0"),
    "negative": ("a\t0\t1\t60\na\t1\t1\t62\t0.1\t0.5\na\t2\t1\t64\t10.0\t0.5\n", "0"),
}

# number texts at the edges of float range and precision: score times past 2**53
# or one ulp above 1, performed times subnormal or near the top of the range
SCORE_TIMES = ("1", "1e-300", "1e300", "9007199254740993", "10000000000000001/10000000000000000")
PERFORMED_TIMES = ("1.0", "5e-324", "1e-320", "1e300", "1.0000000000000002")
EXTREME_ROW = st.tuples(
    st.sampled_from("ab"), st.sampled_from(("0",) + SCORE_TIMES), st.sampled_from(SCORE_TIMES),
    st.integers(0, 127),
    st.none() | st.tuples(st.sampled_from(("0.0",) + PERFORMED_TIMES),
                          st.sampled_from(PERFORMED_TIMES)))


def run_cli(args):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(args)
    return code, out.getvalue()


def modules_after(commands, modules):
    """Run ``commands`` in turn in one fresh process; after each, its exit code
    and whether each of ``modules`` is loaded."""
    child = ("import json, sys\n"
             "from vlgram.cli import main\n"
             "commands, modules = json.loads(sys.argv[1])\n"
             "print(json.dumps([[main(argv)] + [m in sys.modules for m in modules]\n"
             "                  for argv in commands]))\n")
    src = os.path.dirname(os.path.dirname(vlgram.__file__))
    done = subprocess.run([sys.executable, "-c", child, json.dumps([commands, modules])],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture()
def fixture_corpus(tmp_path):
    path = tmp_path / "four.tsv"
    path.write_text(FOUR_NOTE_FIXTURE)
    return path


@pytest.fixture()
def synth_corpus(tmp_path):
    corpus = tmp_path / "synth.tsv"
    manifest = tmp_path / "manifest.csv"
    code, _ = run_cli(["synth", "--pieces", "5", "--length", "60", "--seed", "12",
                       "--pattern", MRDCC_TEXT, "--gap-min", "1", "--gap-max", "3",
                       "--rate", "0.6", "--per-piece", "3",
                       "--output", str(corpus), "--manifest", str(manifest)])
    assert code == 0
    return corpus, manifest


class TestLoadPrepared:
    def test_slices_equal_prepare_corpus_and_notes_released(self, synth_corpus):
        path, _ = synth_corpus
        loaded = _load_prepared(str(path))
        fresh = parse_corpus(path)
        prepare_corpus(fresh)
        assert [p.piece_id for p in loaded.pieces] == [p.piece_id for p in fresh.pieces]
        for piece, expected in zip(loaded.pieces, fresh.pieces):
            assert piece.slices == expected.slices
            assert piece.chords == expected.chords
            assert piece.notes == [] and expected.notes


class TestExpandEncode:
    def test_expand_four_note_fixture(self, fixture_corpus, tmp_path):
        out = tmp_path / "slices.tsv"
        code, _ = run_cli(["expand", "--input", str(fixture_corpus),
                           "--output", str(out)])
        assert code == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()]
        assert len(rows) == 4
        assert all(row[4] == "36" for row in rows)
        assert [row[6] for row in rows] == ["36 64", "36 65", "36 67", "36 64"]

    def test_encode_chords_roundtrip(self, synth_corpus, tmp_path):
        corpus, _ = synth_corpus
        out = tmp_path / "vlts.tsv"
        code, _ = run_cli(["encode", "--input", str(corpus), "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines
        for line in lines:
            piece, index, chord, motion = line.split("\t")
            pattern = parse_pattern(chord)
            assert len(pattern) == 1
            assert str(pattern) == chord
            if index == "0":
                assert motion == ""
            else:
                assert 0 <= int(motion) <= 11


def naive_contiguous_trigram_counts(path):
    """Independent baseline counter working straight off the note file."""
    by_piece_onsets = defaultdict(lambda: defaultdict(set))
    order = []
    for line in path.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        piece, onset, pitch = fields[0], Fraction(fields[1]), int(fields[3])
        by_piece_onsets[piece][onset].add(pitch)
        if piece not in order:
            order.append(piece)
    counts = Counter()
    for piece in order:
        chords = []
        basses = []
        for onset in sorted(by_piece_onsets[piece]):
            pitches = sorted(by_piece_onsets[piece][onset])
            bass, top = pitches[0], pitches[-1]
            ivs = tuple(sorted({(p - bass) % 12 for p in pitches} - {0}))
            top_ic = (top - bass) % 12
            chords.append((ivs, top_ic if top_ic else None))
            basses.append(bass % 12)
        for i in range(len(chords) - 2):
            key = ((chords[i][0], chords[i][1], None),
                   (chords[i + 1][0], chords[i + 1][1], (basses[i + 1] - basses[i]) % 12),
                   (chords[i + 2][0], chords[i + 2][1], (basses[i + 2] - basses[i + 1]) % 12))
            counts[key] += 1
    return counts


class TestMine:
    def test_baseline_equals_naive_counter(self, synth_corpus, tmp_path):
        corpus, _ = synth_corpus
        out = tmp_path / "ranked.csv"
        code, _ = run_cli(["mine", "--input", str(corpus), "--skip", "fixed:0",
                           "--weight", "count", "--filter", "none",
                           "--rank", "counts", "--output", str(out)])
        assert code == 0
        expected = naive_contiguous_trigram_counts(corpus)
        got = {}
        with open(out, newline="") as handle:
            for row in csv.DictReader(handle):
                got[parse_pattern(row["type"]).key] = float(row["count"])
        assert got == {k: float(v) for k, v in expected.items()}

    def test_query_rank_summary_line(self, synth_corpus, tmp_path):
        corpus, _ = synth_corpus
        out = tmp_path / "ranked.csv"
        code, stdout = run_cli(["mine", "--input", str(corpus), "--skip", "fixed:5",
                                "--weight", "count", "--filter", "harmony",
                                "--rank", "pmi-cov", "--query", MRDCC_TEXT,
                                "--output", str(out)])
        assert code == 0
        assert "query rank:" in stdout
        rank_text = stdout.strip().rsplit(" ", 1)[-1]
        assert rank_text == "absent" or rank_text.isdigit()

    def test_query_rank_line_equals_run_config(self, synth_corpus, tmp_path):
        corpus_path, _ = synth_corpus
        prepared = parse_corpus(corpus_path)
        prepare_corpus(prepared)
        query = parse_pattern(MRDCC_TEXT)
        ranks = []
        for skip, weight, fkind, measure in [
                (SkipConfig("fixed", 3, t=0), "count", "none", "counts"),
                (SkipConfig("fixed", 3, t=3), "periodicity", "none", "pmi"),
                (SkipConfig("fixed", 3, t=5), "count", "harmony", "pmi-cov"),
                (SkipConfig("fixed", 3, t=5), "resonant_periodicity", "both", "g2"),
                (SkipConfig("variable", 3, w=1.5), "resonance", "frequency", "dice")]:
            cli_filter = "freq" if fkind == "frequency" else fkind
            code, stdout = run_cli(["mine", "--input", str(corpus_path), "--skip", skip.label,
                                    "--weight", weight.replace("_", "-"), "--filter", cli_filter,
                                    "--rank", measure, "--min-count", "2", "--query", MRDCC_TEXT,
                                    "--output", str(tmp_path / "r.csv")])
            assert code == 0
            config = PipelineConfig(skip, weight, FilterSpec(fkind, 2.0), measure)
            _, rank = run_config(prepared, config, query)
            assert stdout == f"query rank: {'absent' if rank is None else rank}\n"
            ranks.append(rank)
        assert any(rank is not None and rank > 1 for rank in ranks)

    def test_ranked_csv_shape(self, synth_corpus, tmp_path):
        corpus, _ = synth_corpus
        out = tmp_path / "ranked.csv"
        run_cli(["mine", "--input", str(corpus), "--skip", "fixed:3",
                 "--weight", "proximity", "--filter", "freq", "--min-count", "0.5",
                 "--rank", "g2", "--output", str(out)])
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows
        ranks = [int(r["rank"]) for r in rows]
        assert ranks[0] == 1
        assert ranks == sorted(ranks)
        for row in rows:
            parse_pattern(row["type"])

    def test_dump_tokens(self, synth_corpus, tmp_path):
        corpus, _ = synth_corpus
        dump = tmp_path / "tokens.tsv"
        run_cli(["mine", "--input", str(corpus), "--skip", "fixed:0",
                 "--weight", "count", "--filter", "none", "--rank", "counts",
                 "--output", str(tmp_path / "r.csv"), "--dump-tokens", str(dump)])
        lines = dump.read_text().splitlines()
        # five pieces of sixty slices: 58 contiguous trigram tokens each
        assert len(lines) == 5 * 58
        piece, indices, pattern, weight = lines[0].split("\t")
        assert indices == "0,1,2"
        assert weight == "1.0"
        parse_pattern(pattern)

    @pytest.mark.parametrize("skip", ["fixed:2", "variable:1.5"])
    def test_dump_tokens_match_a_separate_pass(self, synth_corpus, tmp_path, skip):
        corpus, _ = synth_corpus
        dump = tmp_path / "tokens.tsv"
        code, _ = run_cli(["mine", "--input", str(corpus), "--skip", skip,
                           "--weight", "periodicity", "--rank", "pmi",
                           "--output", str(tmp_path / "r.csv"), "--dump-tokens", str(dump)])
        assert code == 0
        prepared = parse_corpus(str(corpus))
        prepare_corpus(prepared)
        mode, value = skip.split(":")
        config = SkipConfig("fixed", 3, t=int(value)) if mode == "fixed" else \
            SkipConfig("variable", 3, w=float(value))
        tokens = list(enumerate_corpus(encode_corpus(prepared), config))
        assert tokens
        assert dump.read_text().split("\n") == [
            f"{t.piece_id}\t{','.join(map(str, t.indices))}\t{format_key(t.type_key)}"
            f"\t{weigh_onsets(t.onsets_perf, 'periodicity')!r}" for t in tokens] + [""]
        # each ranked type's count is the left-to-right sum of its dumped
        # weights, and its coverage the number of pieces it appears in
        sums, pieces = {}, {}
        for line in dump.read_text().splitlines():
            piece_id, _indices, text, weight = line.split("\t")
            sums[text] = sums.get(text, 0.0) + float(weight)
            pieces.setdefault(text, set()).add(piece_id)
        with open(tmp_path / "r.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows
        for row in rows:
            assert row["count"] == repr(sums[row["type"]])
            assert int(row["coverage"]) == len(pieces[row["type"]])

    def test_streamed_csv_holds_only_the_ranked_list(self, synth_corpus, tmp_path, capsys):
        corpus, _ = synth_corpus
        argv = ["mine", "--input", str(corpus), "--skip", "fixed:2", "--query", MRDCC_TEXT]
        assert main(argv + ["--output", str(tmp_path / "r.csv")]) == 0
        status = capsys.readouterr().out
        assert status.startswith("query rank: ")
        assert main(argv) == 0
        streamed = capsys.readouterr()
        assert streamed.out == (tmp_path / "r.csv").read_text()
        assert streamed.err == status


    def test_corpus_and_pieces_are_freed_before_scoring(self, synth_corpus, tmp_path,
                                                         monkeypatch):
        path, _ = synth_corpus
        refs, alive = [], []
        load, encode, score = cli._load_prepared, evaluation.encode_corpus, evaluation.score_all

        def loading(source):
            corpus = load(source)
            refs.append(weakref.ref(corpus))
            return corpus

        def encoding(corpus):
            pieces = encode(corpus)
            refs.extend(weakref.ref(piece) for piece in pieces)
            return pieces

        def scoring(*args, **kwargs):
            alive.append([ref() is not None for ref in refs])
            return score(*args, **kwargs)

        monkeypatch.setattr(cli, "_load_prepared", loading)
        monkeypatch.setattr(evaluation, "encode_corpus", encoding)
        monkeypatch.setattr(evaluation, "score_all", scoring)
        code, out = run_cli(["mine", "--input", str(path), "--query", MRDCC_TEXT,
                             "--output", str(tmp_path / "ranked.csv")])
        assert code == 0 and out.startswith("query rank: ")
        assert len(refs) == 1 + 5  # the corpus and its five encoded pieces
        assert alive == [[False] * len(refs)]


class TestGridCommand:
    def test_corpus_is_freed_before_scoring_and_the_summary(self, synth_corpus, tmp_path,
                                                            monkeypatch):
        path, _ = synth_corpus
        refs, alive = [], set()
        load = cli._load_prepared

        def loading(source):
            corpus = load(source)
            refs.append(weakref.ref(corpus))
            return corpus

        def watching(stage, call):
            def watched(*args, **kwargs):
                alive.add((stage, refs[0]() is not None))
                return call(*args, **kwargs)
            return watched

        monkeypatch.setattr(cli, "_load_prepared", loading)
        monkeypatch.setattr(evaluation, "score_all", watching("score", evaluation.score_all))
        monkeypatch.setattr(evaluation, "summarize_grid",
                            watching("summary", evaluation.summarize_grid))
        code, _ = run_cli(["grid", "--input", str(path), "--query", MRDCC_TEXT,
                           "--output", str(tmp_path / "grid.csv"),
                           "--summary", str(tmp_path / "summary.csv")])
        assert code == 0
        assert alive == {("score", False), ("summary", False)}

    def test_mine_and_serial_grid_never_load_multiprocessing(self, synth_corpus, tmp_path):
        """Only a process pool (grid --jobs 2 or more) needs multiprocessing."""
        path, _ = synth_corpus
        commands = [["mine", "--input", str(path), "--query", MRDCC_TEXT,
                     "--output", str(tmp_path / "ranked.csv")],
                    ["grid", "--input", str(path), "--query", MRDCC_TEXT, "--jobs", "1",
                     "--output", str(tmp_path / "grid.csv"),
                     "--summary", str(tmp_path / "summary.csv")]]
        assert modules_after(commands, ["multiprocessing"]) == [[0, False], [0, False]]

    def test_only_grid_summary_loads_scipy(self, synth_corpus, tmp_path):
        """scipy, and the numpy under it, load only for grid --summary's t tail."""
        path, _ = synth_corpus
        grid = ["grid", "--input", str(path), "--query", MRDCC_TEXT, "--jobs", "1",
                "--output", str(tmp_path / "grid.csv")]
        commands = [["mine", "--input", str(path), "--query", MRDCC_TEXT,
                     "--output", str(tmp_path / "ranked.csv")],
                    grid, grid + ["--summary", str(tmp_path / "summary.csv")]]
        assert modules_after(commands, ["scipy", "numpy"]) == [
            [0, False, False], [0, False, False], [0, True, True]]

    def test_grid_row_count_and_determinism(self, synth_corpus, tmp_path):
        corpus, _ = synth_corpus
        grid_a = tmp_path / "grid_a.csv"
        grid_b = tmp_path / "grid_b.csv"
        summary_a = tmp_path / "summary_a.csv"
        summary_b = tmp_path / "summary_b.csv"
        for grid, summary in ((grid_a, summary_a), (grid_b, summary_b)):
            code, _ = run_cli(["grid", "--input", str(corpus), "--query", MRDCC_TEXT,
                               "--output", str(grid), "--summary", str(summary)])
            assert code == 0
        assert grid_a.read_bytes() == grid_b.read_bytes()
        assert summary_a.read_bytes() == summary_b.read_bytes()
        with open(grid_a, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1820

    def test_streamed_grid_csv_holds_only_rows(self, synth_corpus, capsys):
        corpus, _ = synth_corpus
        assert main(["grid", "--input", str(corpus), "--query", MRDCC_TEXT,
                     "--output", "-"]) == 0
        streamed = capsys.readouterr()
        rows = list(csv.reader(io.StringIO(streamed.out)))
        assert len(rows) == 1821
        assert rows[0] == GRID_COLUMNS
        assert streamed.err == "wrote 1820 configuration rows to -\n"

    def test_report_from_grid(self, synth_corpus, tmp_path):
        corpus, _ = synth_corpus
        grid = tmp_path / "grid.csv"
        run_cli(["grid", "--input", str(corpus), "--query", MRDCC_TEXT,
                 "--output", str(grid)])
        report = tmp_path / "report.csv"
        code, _ = run_cli(["report", "--grid", str(grid), "--output", str(report)])
        assert code == 0
        with open(report, newline="") as handle:
            rows = list(csv.DictReader(handle))
        stages = Counter(r["stage"] for r in rows)
        assert stages == {"skip": 13, "weight": 5, "filter": 4, "rank": 7}
        assert all(0.0 <= float(r["mrr"]) <= 1.0 for r in rows)
        assert sum(int(r["n_configs"]) for r in rows if r["stage"] == "skip") == 1820

    def test_report_se_is_a_correctly_rounded_square_root(self, tmp_path, capsys):
        # one level holding ranks 2, 5, 3, 3, 10: math.sqrt rounds the standard
        # error correctly, where ** 0.5 comes out one ulp low on some libms
        grid = tmp_path / "grid.csv"
        grid.write_text("\n".join([GRID_HEADER] + [
            f"fixed,0,count,none,{measure},{rank},{1 / rank!r}" for measure, rank in
            zip(["counts", "pmi", "pmi-local", "pmi-cov", "dice"], [2, 5, 3, 3, 10])]) + "\n")
        assert main(["report", "--grid", str(grid)]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["se_rr"] for r in rows if r["stage"] != "rank"] == ["0.06782329983125268"] * 3

    def test_report_se_of_a_constant_group_is_zero(self, tmp_path, capsys):
        # the mean of 140 thirds rounds off 1/3, but the ranks do not vary
        grid = tmp_path / "grid.csv"
        grid.write_text("\n".join([GRID_HEADER] + [
            f"fixed,0,count,none,counts,3,{1 / 3!r}"] * 140) + "\n")
        assert main(["report", "--grid", str(grid)]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["se_rr"] for r in rows] == ["0.0"] * 4


class TestSynth:
    def test_manifest_rows_equal_planted_instances(self, synth_corpus):
        corpus, manifest = synth_corpus
        with open(manifest, newline="") as handle:
            rows = list(csv.DictReader(handle))
        # rate 0.6 of 5 pieces rounds to 3 planted pieces, 3 instances each
        assert len(rows) == 9
        for row in rows:
            indices = [int(x) for x in row["indices"].split()]
            gaps = [int(g) for g in row["gaps"].split()]
            assert len(indices) == 3 and len(gaps) == 2
            assert indices == sorted(indices)
            assert int(row["total_gap"]) == sum(gaps)

    def test_same_seed_byte_identical(self, tmp_path):
        paths = []
        for name in ("one", "two"):
            out = tmp_path / f"{name}.tsv"
            run_cli(["synth", "--pieces", "3", "--length", "30", "--seed", "99",
                     "--pattern", MRDCC_TEXT, "--gap-max", "2", "--per-piece", "2",
                     "--output", str(out)])
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_rate_zero_empty_manifest(self, tmp_path):
        out = tmp_path / "c.tsv"
        manifest = tmp_path / "m.csv"
        run_cli(["synth", "--pieces", "2", "--length", "20", "--seed", "4",
                 "--pattern", MRDCC_TEXT, "--rate", "0.0",
                 "--output", str(out), "--manifest", str(manifest)])
        with open(manifest, newline="") as handle:
            assert list(csv.DictReader(handle)) == []


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as err:
            main(["mine", "--input", "x.tsv", "--rank", "bogus"])
        assert err.value.code == 2

    def test_bad_skip_spec_is_2(self, fixture_corpus):
        code, _ = run_cli(["mine", "--input", str(fixture_corpus),
                           "--skip", "sideways:4", "--n", "2"])
        assert code == 2
        code, _ = run_cli(["mine", "--input", str(fixture_corpus),
                           "--skip", "fixed", "--n", "2"])
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["mine", "--skip", "fixed:-1"],
        ["mine", "--skip", "variable:0"],
        ["mine", "--n", "1"],
        ["mine", "--min-count", "-1"],
        ["grid", "--n", "1", "--query", "<4,7,_>"],
        ["grid", "--planned-comparisons", "0", "--query", MRDCC_TEXT],
        ["grid", "--jobs", "0", "--query", MRDCC_TEXT],
        ["grid", "--jobs", "-4", "--query", MRDCC_TEXT],
        ["mine", "--skip", "variable:nan"],
        ["mine", "--skip", "variable:inf"],
        ["grid", "--query", MRDCC_TEXT, "--summary", "{tmp}/out.csv"],
        ["mine", "--n", "2", "--dump-tokens", "{tmp}/./sub/../out.csv"],
        ["mine", "--skip", "fixed:1_0"],
        ["mine", "--skip", "fixed:٣"],
        ["mine", "--skip", "variable:1_0"],
        ["mine", "--n", "٣"],
        ["mine", "--min-count", "1_0"],
        ["grid", "--jobs", "١", "--query", MRDCC_TEXT],
    ])
    def test_invalid_flag_value_is_2(self, fixture_corpus, tmp_path, flags):
        (tmp_path / "sub").mkdir()
        argv = flags[:1] + ["--input", str(fixture_corpus),
                            "--output", str(tmp_path / "out.csv")] + flags[1:]
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        try:
            code, _ = run_cli(argv)
        except SystemExit as err:
            code = err.code
        assert code == 2
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("flags, written", [
        (["mine", "--input", "{input}", "--n", "2", "--dump-tokens", "-"],
         ["a\t0,1\t", "\nrank,score,"]),
        (["grid", "--input", "{input}", "--n", "2", "--query", "<4,7,_>[5]<4,_,_>",
          "--summary", "-"], [GRID_HEADER + "\n", "\nstage,level,"]),
        (SYNTH_VALID + ["--manifest", "-"],
         ["# synthetic corpus\n", "\npiece_id,indices,gaps,total_gap\n"]),
    ])
    def test_two_outputs_may_both_be_stdout(self, fixture_corpus, tmp_path, monkeypatch,
                                            flags, written):
        monkeypatch.chdir(tmp_path)
        argv = [arg.replace("{input}", str(fixture_corpus)) for arg in flags]
        code, out = run_cli(argv + ["--output", "-"])
        assert code == 0
        assert all(part in out for part in written)
        assert "wrote " not in out  # the status line goes to stderr
        assert not (tmp_path / "-").exists()

    @pytest.mark.parametrize("flags", [
        ["--pieces", "-3"],
        ["--pieces", "0"],
        ["--length", "0"],
        ["--vocab-size", "0"],
        ["--per-piece", "0"],
        ["--gap-min", "-1"],
        ["--rate", "2"],
        ["--rate", "-0.1"],
        ["--rate", "nan"],
        ["--ioi-min", "0"],
        ["--ioi-min", "0.5", "--ioi-max", "-1"],
        ["--ioi-min", "0.5", "--ioi-max", "0.4"],
        ["--ioi-max", "inf"],
        ["--gap-min", "3", "--gap-max", "2"],
        ["--length", "5", "--per-piece", "6"],
        ["--length", "60", "--per-piece", "6"],
        ["--manifest", "{tmp}/./c.tsv"],
        ["--seed", "٣"],
        ["--length", "40", "--gap-max", "1_0"],
        ["--ioi-max", "0_6"],
    ])
    def test_synth_invalid_flag_value_is_2(self, tmp_path, flags):
        out = tmp_path / "c.tsv"
        argv = SYNTH_VALID + ["--output", str(out), "--manifest", str(tmp_path / "m.csv")] + flags
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        try:
            code, _ = run_cli(argv)
        except SystemExit as err:
            code = err.code
        assert code == 2
        assert not out.exists() and not (tmp_path / "m.csv").exists()

    def test_synth_unwritable_manifest_leaves_no_corpus_file(self, tmp_path):
        out = tmp_path / "c.tsv"
        code, _ = run_cli(SYNTH_VALID + ["--output", str(out),
                                         "--manifest", str(tmp_path / "absent" / "m.csv")])
        assert code == 3
        assert not out.exists()

    @pytest.mark.parametrize("flags", [[], ["--length", "13"]])
    def test_synth_valid_flags_are_0(self, tmp_path, flags):
        # the flags the invalid-value cases start from plant without error,
        # also where the widest instance fills its segment exactly
        code, _ = run_cli(SYNTH_VALID + ["--output", str(tmp_path / "c.tsv")] + flags)
        assert code == 0

    @pytest.mark.parametrize("lines, line_no", [
        ([",".join(GRID_COLUMNS[:5] + ["rr"]), "fixed,0,count,none,counts,1.0"], 1),
        ([GRID_HEADER, GRID_ROW, "fixed,0,count,none,pmi,0,0.0"], 3),
        ([GRID_HEADER, GRID_ROW, "fixed,0,count,none,pmi,-2,-0.5"], 3),
        ([GRID_HEADER, GRID_ROW, "fixed,0,count,none,pmi,x,0.0"], 3),
    ], ids=["no-query_rank-column", "rank-0", "rank-negative", "rank-not-a-number"])
    def test_report_bad_grid_is_3(self, tmp_path, capsys, lines, line_no):
        grid = tmp_path / "grid.csv"
        grid.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report.csv"
        code, _ = run_cli(["report", "--grid", str(grid), "--output", str(out)])
        assert code == 3
        assert f"{grid}:{line_no}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["report", "grid", "mine"])
    def test_directory_as_file_is_3(self, fixture_corpus, tmp_path, command):
        argv = {"report": ["report", "--grid", str(tmp_path)],
                "grid": ["grid", "--input", str(fixture_corpus), "--n", "2",
                         "--query", "<4,7,_>[5]<4,_,_>", "--output", str(tmp_path)],
                "mine": ["mine", "--input", str(fixture_corpus), "--n", "2",
                         "--output", str(tmp_path)]}[command]
        code, _ = run_cli(argv)
        assert code == 3

    @pytest.mark.parametrize("flags, first", [
        (["grid", "--input", "{input}", "--n", "2", "--query", "<4,7,_>[5]<4,_,_>",
          "--output", "g.csv", "--summary", "absent/s.csv"], "g.csv"),
        (["mine", "--input", "{input}", "--n", "2", "--output", "r.csv",
          "--dump-tokens", "absent/t.tsv"], "r.csv"),
        (SYNTH_VALID + ["--output", "absent/c.tsv", "--manifest", "m.csv"], "m.csv"),
    ], ids=["grid", "mine", "synth"])
    def test_unopenable_second_output_removes_the_first(self, fixture_corpus, tmp_path,
                                                        monkeypatch, flags, first):
        monkeypatch.chdir(tmp_path)
        argv = [arg.replace("{input}", str(fixture_corpus)) for arg in flags]
        code, _ = run_cli(argv)
        assert code == 3
        assert not (tmp_path / first).exists()
        # a file that was there before the command is not the command's to remove,
        # and one the command never wrote keeps its bytes
        (tmp_path / first).write_text("kept\n")
        code, _ = run_cli(argv)
        assert code == 3
        assert (tmp_path / first).read_text() == "kept\n"

    def test_an_existing_output_holds_only_what_a_run_writes(self, fixture_corpus, tmp_path,
                                                              monkeypatch):
        out = tmp_path / "ranked.csv"
        argv = ["mine", "--input", str(fixture_corpus), "--n", "2", "--output", str(out)]
        assert run_cli(argv)[0] == 0
        fresh = out.read_bytes()
        (tmp_path / "plain.txt").write_text("")  # made with open()'s default permissions
        assert out.stat().st_mode == (tmp_path / "plain.txt").stat().st_mode
        out.write_bytes(b"old\n" * 1000)  # longer than the ranked list: no old tail stays
        assert run_cli(argv)[0] == 0
        assert out.read_bytes() == fresh
        dump = tmp_path / "tokens.tsv"
        assert run_cli(argv + ["--dump-tokens", str(dump)])[0] == 0
        tokens = dump.read_bytes()

        def broken(*args, **kwargs):
            raise ValueError("an internal fault")
        # a run that fails after writing the dump keeps none of its old tail
        dump.write_bytes(b"old\n" * 1000)
        monkeypatch.setattr(evaluation, "score_all", broken)
        assert run_cli(argv + ["--dump-tokens", str(dump)])[0] == 4
        assert dump.read_bytes() == tokens
        # a run that fails before it writes leaves the file as it was
        monkeypatch.setattr(evaluation, "run_config", broken)
        assert run_cli(argv)[0] == 4
        assert out.read_bytes() == fresh

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
    def test_null_device_output(self, fixture_corpus):
        argv = ["mine", "--input", str(fixture_corpus), "--n", "2", "--output", os.devnull]
        for extra in ([], ["--dump-tokens", os.devnull]):
            code, _ = run_cli(argv + extra)
            assert code == 0

    @pytest.mark.parametrize("command, flag", [
        ("grid", "--output"), ("grid", "--summary"), ("mine", "--output"),
        ("mine", "--dump-tokens")])
    def test_unwritable_output_fails_before_the_run(self, fixture_corpus, tmp_path,
                                                    monkeypatch, command, flag):
        calls = []
        for name in ("run_grid", "run_config"):
            monkeypatch.setattr(evaluation, name, lambda *a, **k: calls.append(a))
        argv = {"grid": ["grid", "--input", str(fixture_corpus), "--n", "2",
                         "--query", "<4,7,_>[5]<4,_,_>",
                         "--output", str(tmp_path / "grid.csv")],
                "mine": ["mine", "--input", str(fixture_corpus), "--n", "2",
                         "--output", str(tmp_path / "ranked.csv")]}[command]
        code, _ = run_cli(argv + [flag, str(tmp_path)])
        assert code == 3
        assert calls == []

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_undecodable_input_names_its_line(self, tmp_path, capsys, bom):
        corpus = tmp_path / "bad.tsv"
        corpus.write_bytes(bom + b"a\t0\t1\t60\r\n# note\na\t1\t1\t6\xff2\n")
        grid = tmp_path / "grid.csv"
        grid.write_bytes(bom + f"{GRID_HEADER}\n{GRID_ROW}\n".encode() + b"fixed,\xff\n")
        for argv, path in ((["expand", "--input", str(corpus)], corpus),
                           (["report", "--grid", str(grid)], grid)):
            code, _ = run_cli(argv)
            assert code == 3
            assert f"{path}:3: cannot decode byte 0xff" in capsys.readouterr().err

    def test_report_oversized_field_is_3(self, tmp_path, capsys):
        # past csv.field_size_limit() (131,072 characters by default)
        grid = tmp_path / "grid.csv"
        grid.write_text(f"{GRID_HEADER}\nfixed,{'0' * 200_000},count,none,counts,2,0.5\n")
        code, _ = run_cli(["report", "--grid", str(grid)])
        assert code == 3
        assert f"{grid}:2: field larger than field limit" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["expand", "mine"])
    def test_score_time_beyond_float_range_is_3(self, tmp_path, capsys, command):
        corpus = tmp_path / "huge.tsv"
        corpus.write_text("a\t0\t1\t60\na\t1e400\t1\t62\n")
        code, _ = run_cli([command, "--input", str(corpus)]
                          + ["--n", "2"] * (command == "mine"))
        assert code == 3
        assert f"{corpus}:2: bad numeric field" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["a\t1\t1\t6_0", "a\t1\t1\t٦٠", "a\t1_0\t1\t62"])
    def test_number_not_in_ascii_is_3(self, tmp_path, capsys, row):
        corpus = tmp_path / "digits.tsv"
        corpus.write_text(f"a\t0\t1\t60\n{row}\n", encoding="utf-8")
        code, _ = run_cli(["expand", "--input", str(corpus)])
        assert code == 3
        assert f"{corpus}:2: numbers must be ASCII" in capsys.readouterr().err

    @pytest.mark.parametrize("query", ["<²,_,_>[0]<4,_,_>[0]<4,_,_>",
                                       "<٣,_,_>[0]<4,_,_>[0]<4,_,_>"])
    def test_pattern_digit_not_in_ascii_is_3(self, fixture_corpus, tmp_path, query):
        code, _ = run_cli(["grid", "--input", str(fixture_corpus), "--query", query,
                           "--output", str(tmp_path / "grid.csv")])
        assert code == 3

    def test_internal_value_error_is_4(self, fixture_corpus, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ValueError("an internal fault")
        monkeypatch.setattr(evaluation, "run_config", broken)
        code, _ = run_cli(["mine", "--input", str(fixture_corpus), "--n", "2"])
        assert code == 4
        assert "internal error: an internal fault" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [
        "p1\t0\t1\t60\t0.0\t0.5\n",
        "p1\t0\t1\t60\t1.0\t0.5\np1\t1\t1\t62\t0.5\t0.5\n"],
        ids=["one-anchor", "not-monotone"])
    def test_performance_data_error_names_the_piece(self, tmp_path, capsys, rows):
        corpus = tmp_path / "perf.tsv"
        corpus.write_text(rows)
        code, _ = run_cli(["mine", "--input", str(corpus), "--n", "2"])
        assert code == 3
        assert "piece p1: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["expand", "mine", "grid"])
    def test_anchor_beats_one_float_apart_are_3(self, tmp_path, capsys, command):
        corpus = tmp_path / "close.tsv"
        corpus.write_text(CLOSE_ANCHORS)
        code, _ = run_cli([command, "--input", str(corpus), "--output", str(tmp_path / "o")]
                          + {"expand": [], "mine": ["--n", "2"],
                             "grid": ["--n", "2", "--query", "<4,7,_>[5]<4,_,_>"]}[command])
        assert code == 3
        assert "piece a: anchor beats 1 and 10000000000000001/" in capsys.readouterr().err

    @pytest.mark.parametrize("corpus", UNBOUNDED_ONSETS)
    @pytest.mark.parametrize("command", ["expand", "mine", "grid"])
    def test_onset_not_finite_or_negative_is_3(self, tmp_path, capsys, command, corpus):
        rows, beat = UNBOUNDED_ONSETS[corpus]
        path = tmp_path / "unbounded.tsv"
        path.write_text(rows)
        code, _ = run_cli([command, "--input", str(path), "--output", str(tmp_path / "o")]
                          + {"expand": [], "mine": ["--n", "2", "--skip", "variable:1"],
                             "grid": ["--n", "2", "--query", "<4,7,_>[5]<4,_,_>"]}[command])
        assert code == 3
        assert (f"piece a: beat {beat} interpolates to performed onset"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags", [
        ["expand"],
        ["mine", "--n", "2", "--skip", "fixed:2"],
        ["mine", "--n", "2", "--skip", "variable:1", "--weight", "resonant-periodicity",
         "--rank", "g2"]], ids=["expand", "mine-fixed", "mine-variable"])
    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(EXTREME_ROW, min_size=1, max_size=10))
    @example(rows=[("a", "0", "1", 60, None), ("a", "1", "1", 62, ("1.0", "0.5")),
                   ("a", "10000000000000001/10000000000000000", "1", 64, ("1.1", "0.5"))])
    def test_extreme_numbers_exit_0_or_3(self, flags, rows):
        with tempfile.TemporaryDirectory() as tmp:
            corpus = os.path.join(tmp, "extreme.tsv")
            with open(corpus, "w", encoding="utf-8") as handle:
                handle.writelines("\t".join([piece, onset, duration, str(pitch),
                                             *(perf or ())]) + "\n"
                                  for piece, onset, duration, pitch, perf in rows)
            code, _ = run_cli(flags + ["--input", corpus, "--output", os.devnull])
        assert code in (0, 3)

    def test_missing_input_is_3(self, tmp_path):
        code, _ = run_cli(["expand", "--input", str(tmp_path / "nope.tsv")])
        assert code == 3

    def test_malformed_corpus_is_3(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("a\t0\t1\t200\n")
        code, _ = run_cli(["expand", "--input", str(bad)])
        assert code == 3
        bad.write_text("a\t0\t1\t60\t0.0\t0.5\na\t1\t1\t62\tnan\t0.5\n")
        code, _ = run_cli(["mine", "--input", str(bad), "--skip", "variable:1",
                           "--n", "2", "--weight", "periodicity"])
        assert code == 3

    def test_bad_query_pattern_is_3(self, fixture_corpus):
        code, _ = run_cli(["grid", "--input", str(fixture_corpus),
                           "--query", "<4,7*>", "--output", "unused.csv"])
        assert code == 3

    def test_query_cardinality_mismatch_is_2(self, fixture_corpus, tmp_path):
        code, _ = run_cli(["mine", "--input", str(fixture_corpus),
                           "--query", "<4,7,_>[5]<4,_,_>", "--n", "3",
                           "--output", str(tmp_path / "r.csv")])
        assert code == 2

    @pytest.mark.parametrize("command", ["mine", "grid"])
    def test_query_mismatch_is_2_before_the_input_is_read(self, tmp_path, command):
        code, _ = run_cli([command, "--input", str(tmp_path / "missing.tsv"),
                           "--query", "<4,7,_>[5]<4,_,_>", "--n", "3",
                           "--output", str(tmp_path / "out.csv")])
        assert code == 2
        assert not (tmp_path / "out.csv").exists()

    def test_variable_skip_works_with_rendered_tempo(self, fixture_corpus, tmp_path):
        # fixture carries performed times, variable mode runs
        code, _ = run_cli(["mine", "--input", str(fixture_corpus),
                           "--skip", "variable:1.0", "--n", "2",
                           "--output", str(tmp_path / "r.csv")])
        assert code == 0
