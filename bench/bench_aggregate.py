"""Micro-benchmarks of one skip level's aggregation and scoring kernels.

Run from the root of a checkout (pytest-benchmark)::

    PYTHONPATH=src python -m pytest bench/bench_aggregate.py --benchmark-only

Each stream is a fixed-seed synthetic corpus (3 pieces x 100 slices),
enumerated at ``fixed:8`` and weighed under all five weightings once,
outside the timed calls. ``shared`` draws its noise from one chord shape,
so its tokens repeat few types; ``diverse`` draws from twelve, so most
tokens are new types. ``TableBuilder`` is timed over the five weightings
and ``score_all`` over all seven measures of the resulting tables.
"""

import pytest

from vlgram.corpus import prepare_corpus
from vlgram.evaluation import default_vocabulary, generate_synthetic_corpus
from vlgram.ranking import MEASURES, TableBuilder, score_all
from vlgram.skipgram import SkipConfig, encode_corpus, enumerate_corpus
from vlgram.weighting import WEIGHT_KINDS, weigh_all

SKIP = SkipConfig("fixed", 3, t=8)


@pytest.fixture(scope="module", params=[1, 12], ids=["shared", "diverse"])
def stream(request):
    corpus, _ = generate_synthetic_corpus(
        3, 100, default_vocabulary(request.param, seed=2), seed=7)
    prepare_corpus(corpus)
    pieces = encode_corpus(corpus)
    tokens = [(tok.piece_id, tok.type_key, weigh_all(tok.onsets_perf))
              for tok in enumerate_corpus(pieces, SKIP)]
    return len(pieces), tokens


def aggregate(n_pieces, tokens):
    builder = TableBuilder(SKIP.n, n_pieces, WEIGHT_KINDS)
    add = builder.add
    for piece_id, key, weights in tokens:
        add(piece_id, key, weights)
    return builder.tables


def test_aggregate(benchmark, stream):
    tables = benchmark(aggregate, *stream)
    assert [t.weight_kind for t in tables] == list(WEIGHT_KINDS)
    assert tables[0].total == len(stream[1])


def test_score_all(benchmark, stream):
    tables = aggregate(*stream)
    keys = list(tables[0].joint)
    scores = benchmark(lambda: [score_all(table, keys) for table in tables])
    assert all(len(s[m]) == len(keys) for s in scores for m in MEASURES)
