"""Micro-benchmarks of corpus set-up: parsing, then slicing, tempo and reduction.

Run from the root of a checkout (pytest-benchmark)::

    PYTHONPATH=src python -m pytest bench/bench_setup.py --benchmark-only

The input is the mine-poly benchmark workload's at seed 0 (20 five-voice
pieces x 200 beats, duple and triplet rhythms, four score-only pieces),
written once by ``perfbench/workloads.write_input``. ``test_parse`` times
``parse_corpus`` on that file; ``test_prepare`` times ``prepare_corpus``
on a fresh parse of it, made outside the timed call, and checks that four
pieces were rendered at the fixed tempo.
"""

import sys
from pathlib import Path

import pytest

from vlgram.corpus import parse_corpus, prepare_corpus

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import write_input  # noqa: E402

NOTES, SLICES, REDUCED, SYNTHETIC = 20_018, 14_786, 3_893, 4


@pytest.fixture(scope="module")
def poly_input(tmp_path_factory):
    path = tmp_path_factory.mktemp("setup") / "mine-poly-0.tsv"
    write_input("mine-poly", 0, str(path))
    return path


def test_parse(benchmark, poly_input):
    corpus = benchmark(parse_corpus, poly_input)
    assert sum(len(p.notes) for p in corpus.pieces) == NOTES


def test_prepare(benchmark, poly_input):
    corpus = []  # the last round's, so that its fixed-tempo pieces can be counted

    def fresh():
        corpus[:] = [parse_corpus(poly_input)]
        return (corpus[0],), {}

    stats = benchmark.pedantic(prepare_corpus, setup=fresh, rounds=7)
    assert (stats.n_slices, stats.n_reduced) == (SLICES, REDUCED)
    assert sum(piece.synthetic_tempo for piece in corpus[0].pieces) == SYNTHETIC
