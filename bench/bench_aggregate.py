"""Micro-benchmarks of the skip-level aggregation and scoring kernels.

Run from the root of a checkout (pytest-benchmark)::

    PYTHONPATH=src python -m pytest bench/bench_aggregate.py --benchmark-only

Each stream is a fixed-seed synthetic corpus (3 pieces x 100 slices).
``shared`` draws its noise from one chord shape, so its tokens repeat few
types; ``diverse`` draws from twelve, so most tokens are new types. For
``TableBuilder`` (over the five weightings) and ``score_all`` (over all
seven measures of the resulting tables), the stream is enumerated at
``fixed:8`` and weighed once, outside the timed calls. ``test_levels``
times enumerating, weighing and aggregating each mode's levels through the
chain kernel: the nine fixed levels 0-8 and the four variable windows
0.5-2, each as one chain and as one-level passes.
"""

import pytest

from vlgram.corpus import prepare_corpus
from vlgram.evaluation import _level, default_vocabulary, generate_synthetic_corpus
from vlgram.ranking import MEASURES, TableBuilder, score_all
from vlgram.skipgram import SkipConfig, encode_corpus, enumerate_corpus
from vlgram.weighting import WEIGHT_KINDS, weigh_all

SKIP = SkipConfig("fixed", 3, t=8)
CHAINS = {"fixed": tuple(SkipConfig("fixed", 3, t=t) for t in range(9)),
          "variable": tuple(SkipConfig("variable", 3, w=w) for w in (0.5, 1.0, 1.5, 2.0))}


@pytest.fixture(scope="module", params=[1, 12], ids=["shared", "diverse"])
def pieces(request):
    corpus, _ = generate_synthetic_corpus(
        3, 100, default_vocabulary(request.param, seed=2), seed=7)
    prepare_corpus(corpus)
    return encode_corpus(corpus)


@pytest.fixture(scope="module")
def stream(pieces):
    tokens = [(tok.piece_id, tok.type_key, weigh_all(tok.onsets_perf))
              for tok in enumerate_corpus(pieces, SKIP)]
    return len(pieces), tokens


def aggregate(n_pieces, tokens):
    builder = TableBuilder(SKIP.n, n_pieces, WEIGHT_KINDS)
    add = builder.add
    for piece_id, key, weights in tokens:
        add(piece_id, key, weights)
    return builder


def test_aggregate(benchmark, stream):
    tables = benchmark(aggregate, *stream).tables
    assert [t.weight_kind for t in tables] == list(WEIGHT_KINDS)
    assert tables[0].total == len(stream[1])


def test_score_all(benchmark, stream):
    builder = aggregate(*stream)
    keys = list(builder.ids)
    tables = builder.tables
    scores = benchmark(lambda: [score_all(table, keys) for table in tables])
    assert all(len(s[m]) == len(keys) for s in scores for m in MEASURES)


def type_counts(pieces, chains):
    """Each level's number of types; nothing is scored or filtered."""
    return [count for chain in chains
            for count in _level(pieces, chain, WEIGHT_KINDS, (), (), 0.0, "intersect",
                                lambda _skip, keys, _weighted: len(keys))]


@pytest.mark.parametrize("split", ["one-chain", "per-level"])
@pytest.mark.parametrize("mode", ["fixed", "variable"])
def test_levels(benchmark, pieces, mode, split):
    levels = CHAINS[mode]
    chains = [levels] if split == "one-chain" else [(skip,) for skip in levels]
    counts = benchmark(type_counts, pieces, chains)
    assert counts == type_counts(pieces, [(skip,) for skip in levels])
