"""Micro-benchmarks of the skip-level aggregation and scoring kernels.

Run from the root of a checkout (pytest-benchmark)::

    PYTHONPATH=src python -m pytest bench/bench_aggregate.py --benchmark-only

Each stream is a fixed-seed synthetic corpus (3 pieces x 100 slices).
``shared`` draws its noise from one chord shape, so its tokens repeat few
types; ``diverse`` draws from twelve, so most tokens are new types. For
the level pass (``TableBuilder.level_tables``, over the five weightings)
and ``score_all`` (over all seven measures of the resulting tables), the
stream is enumerated at ``fixed:8``, weighed and recorded once, outside
the timed calls, as the chain kernel records it. ``test_levels`` times
enumerating, weighing and aggregating each mode's levels through the
chain kernel: the nine fixed levels 0-8 and the four variable windows
0.5-2, each as one chain and as one-level passes, and both modes' chains
walked together. ``test_grid_chain`` times ``evaluation._grid_chain`` on
the grid-shared benchmark workload's seed-0 input with every skip level
in one share, as ``vlgram grid --jobs 1`` runs it. ``test_query_ranks``
times ``evaluation._query_ranks`` at ``fixed:8``, all five weightings, with
the first recorded type as the query; ``test_query_ranks_planted`` does the
same with the cadence planted in the grid-diverse workload's seed-0 input
as the query, which ranks deep there as it does in that workload's grid.
"""

import sys
from pathlib import Path

import pytest

from vlgram import parse_pattern
from vlgram.cli import _load_prepared
from vlgram.corpus import prepare_corpus
from vlgram.evaluation import (LEVEL_CONFIGS, _grid_chain, _query_ranks, _record, _shares,
                               default_skip_configs, default_vocabulary,
                               generate_synthetic_corpus)
from vlgram.filters import DEFAULT_MIN_COUNT, FILTER_KINDS, harmony_bits
from vlgram.ranking import MEASURES, score_all
from vlgram.skipgram import SkipConfig, encode_corpus
from vlgram.weighting import WEIGHT_KINDS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import CADENCE, write_input  # noqa: E402

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
    """The chain builder that interned and recorded the fixed:8 tokens."""
    return _record(pieces, ((SKIP,),), WEIGHT_KINDS)


def test_aggregate(benchmark, stream):
    tids, tables = benchmark(stream.level_tables, 0)
    assert [t.weight_kind for t in tables] == list(WEIGHT_KINDS)
    assert tables[0].total == sum(len(levels) for levels, _, _ in stream.records.values())
    assert tids == list(range(len(stream.keys)))


def test_score_all(benchmark, stream):
    tids, tables = stream.level_tables(0)
    keys = stream.keys
    scores = benchmark(lambda: [score_all(table, keys, MEASURES, tids) for table in tables])
    assert all(len(s[m]) == len(keys) for s in scores for m in MEASURES)


def workload_pieces(tmp_path_factory, name):
    """A grid workload's seed-0 input, prepared and encoded."""
    path = tmp_path_factory.mktemp("grid") / f"{name}-0.tsv"
    write_input(name, 0, str(path))
    return encode_corpus(_load_prepared(str(path)))


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    """The grid-diverse input's fixed:8 tokens, recorded, and the cadence's type id."""
    builder = _record(workload_pieces(tmp_path_factory, "grid-diverse"), ((SKIP,),), WEIGHT_KINDS)
    return builder, builder.ids[parse_pattern(CADENCE).key]


def test_query_ranks(benchmark, stream):
    harmony = harmony_bits(stream.keys, FILTER_KINDS)
    ranks = benchmark(_query_ranks, stream, harmony, 0, 0, 0, DEFAULT_MIN_COUNT)
    assert len(ranks) == len(LEVEL_CONFIGS)
    assert all(rank is not None for (_weight, fkind, _measure), rank in zip(LEVEL_CONFIGS, ranks)
               if fkind == "none")


def test_query_ranks_planted(benchmark, planted):
    builder, qtid = planted
    harmony = harmony_bits(builder.keys, FILTER_KINDS)
    ranks = benchmark(_query_ranks, builder, harmony, 0, 0, qtid, DEFAULT_MIN_COUNT)
    # the cadence ranks deep under some measure, as in the grid-diverse workload's grid
    assert max(rank for (_weight, fkind, _measure), rank in zip(LEVEL_CONFIGS, ranks)
               if fkind == "none") > 1000


def type_counts(pieces, shares):
    """Each level's number of types, chain by chain; nothing is scored or filtered."""
    counts = []
    for chains in shares:
        builder = _record(pieces, chains, WEIGHT_KINDS)
        counts += [len(builder.level_tables(index, c)[0])
                   for c, chain in enumerate(chains) for index in range(len(chain))]
    return counts


@pytest.mark.parametrize("split", ["one-chain", "per-level"])
@pytest.mark.parametrize("mode", ["fixed", "variable"])
def test_levels(benchmark, pieces, mode, split):
    levels = CHAINS[mode]
    shares = [[levels]] if split == "one-chain" else [[(skip,)] for skip in levels]
    counts = benchmark(type_counts, pieces, shares)
    assert counts == type_counts(pieces, [[(skip,)] for skip in levels])


def test_levels_both_modes_walked_together(benchmark, pieces):
    counts = benchmark(type_counts, pieces, [[CHAINS["fixed"], CHAINS["variable"]]])
    assert counts == type_counts(pieces, [[CHAINS["fixed"]], [CHAINS["variable"]]])


@pytest.fixture(scope="module")
def grid_shared(tmp_path_factory):
    return workload_pieces(tmp_path_factory, "grid-shared")


def test_grid_chain(benchmark, grid_shared):
    [share] = _shares(default_skip_configs(3), 1)
    by_skip = benchmark(_grid_chain, share, grid_shared, parse_pattern(CADENCE).key,
                        DEFAULT_MIN_COUNT, "intersect")
    assert list(by_skip) == [skip for chain in share for skip in chain]
    assert all(len(rows) == 140 for rows in by_skip.values())
    assert any(row.query_rank is not None for rows in by_skip.values() for row in rows)
