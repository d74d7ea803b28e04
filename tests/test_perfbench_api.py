"""The library calls and bytes the benchmark (perfbench/) depends on.

``perfbench/run.py --trace 1`` rebuilds the grid and mine pipelines from
library calls: ``TableBuilder.tables``, ``TypeTable.joint``,
``score_all(table, keys)``, ``build_type_table``, ``score_type``,
``rank_types`` and the corpus preparation steps. These tests run that
traced code on a tiny synthetic corpus, so a change that breaks one of
those calls fails here and not only in a benchmark run.

The grid workloads' inputs come from the library's own
``generate_synthetic_corpus``, and every workload's outputs are checked
against the sha256 sums in ``perfbench/expected.json``. The last tests
write each workload's default-seed input and outputs and check those
sums, so a change to how chords are voiced, encoded or formatted fails
here too. ``perfbench/`` is only read: it is imported without writing
bytecode.
"""

import hashlib
import importlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from vlgram.cli import main
from vlgram.evaluation import run_grid
from vlgram.vlt import parse_pattern

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
QUERY = "<5,9*,_>[0]<4,7*,10>[5]<4,_,_>"


EXPECTED = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))


def _import_perfbench(name: str):
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved


@pytest.fixture(scope="module")
def child():
    yield _import_perfbench("child")
    for name in ("child", "reference"):
        sys.modules.pop(name, None)


@pytest.fixture(scope="module")
def workloads():
    yield _import_perfbench("workloads")
    sys.modules.pop("workloads", None)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("perfbench") / "synth.tsv"
    with redirect_stdout(io.StringIO()):
        code = main(["synth", "--pieces", "3", "--length", "40", "--seed", "5",
                     "--pattern", QUERY, "--per-piece", "2", "--gap-max", "3",
                     "--output", str(path)])
    assert code == 0
    return path


def test_traced_grid_ranks_equal_run_grid(child, corpus_path):
    tracer = child.Tracer()
    prepared, _counts = child._traced_setup(tracer, str(corpus_path))
    assert child._same_as_prepare_corpus(prepared, str(corpus_path))
    query = parse_pattern(QUERY)
    _counts, ranks = child._traced_grid(tracer, prepared, query.key)
    grid = run_grid(prepared, query, child.N, min_count=child.MIN_COUNT,
                    similarity=child.SIMILARITY)
    assert ranks == ["NA" if r.query_rank is None else str(r.query_rank) for r in grid.rows]
    assert len(ranks) == 1820
    assert any(rank not in ("NA", "1") for rank in ranks)


def test_traced_mine_csv_equals_mine_command(child, corpus_path, tmp_path):
    tracer = child.Tracer()
    prepared, _counts = child._traced_setup(tracer, str(corpus_path))
    traced = tmp_path / "traced.csv"
    counts = child._traced_mine(tracer, prepared, parse_pattern(QUERY).key, str(traced))
    assert counts["ranking.ranked"] > 1
    assert (child.MINE_SKIP_T, child.MINE_WEIGHT, child.MINE_MEASURE) == (0, "periodicity", "pmi")
    command = tmp_path / "ranked.csv"
    with redirect_stdout(io.StringIO()):
        code = main(["mine", "--input", str(corpus_path), "--skip", "fixed:0",
                     "--weight", "periodicity", "--rank", "pmi", "--output", str(command)])
    assert code == 0
    assert traced.read_bytes() == command.read_bytes()


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_workload_input_bytes(workloads, name, tmp_path):
    path = tmp_path / "input.tsv"
    workloads.write_input(name, workloads.DEFAULT_SEED, str(path))
    assert _sha256(path) == EXPECTED[name]["sha256"]["input.tsv"]


@pytest.mark.parametrize("name", ["grid-shared", "grid-diverse", "mine-poly"])
def test_workload_output_bytes(workloads, name, tmp_path):
    path = tmp_path / "input.tsv"
    workloads.write_input(name, workloads.DEFAULT_SEED, str(path))
    with redirect_stdout(io.StringIO()):
        code = main(workloads.command_argv(name, str(path), str(tmp_path)))
    assert code == 0
    files = workloads.output_files(name)
    assert {f: _sha256(tmp_path / f) for f in files} == \
        {f: EXPECTED[name]["sha256"][f] for f in files}
