"""Memory of ``vlgram mine`` stage by stage, of ``vlgram grid``'s process tree, and of
a criterion-7-shaped grid.

Run from the root of a checkout (pytest-benchmark)::

    PYTHONPATH=src python -m pytest bench/bench_memory.py --benchmark-only -s

The inputs are the mine-poly and grid-jobs2 benchmark workloads' at seed 0,
written once by ``perfbench/workloads.write_input``, and each test uses its
workload's flags; the criterion-7-shaped input is the criterion-7 generator's
corpus cut to 6 pieces of 500 slices. Results go to each benchmark's
``extra_info`` (printed with ``-s``, and kept by ``--benchmark-json``).
Every fresh process also reports whether the command loaded ``multiprocessing``
(``multiprocessing``), which only ``grid --jobs`` 2 or more needs:

``test_stages``
    runs ``mine``'s steps in process under tracemalloc: load (parse,
    prepare and release the notes, as every command does), encode, then
    the chain kernel's aggregate, score and rank, and writing the CSV.
    After each stage it records the traced memory still held
    (``current_mb``) and the peak since the previous stage (``peak_mb``).
``test_mine_vmhwm``
    runs ``vlgram mine`` in a fresh interpreter, three times. Each reads
    its own VmHWM from ``/proc/self/status`` after importing ``vlgram.cli``
    (``import_mb``) and once the command returns (``vmhwm_mb``), so the
    difference is the command's own working set.
``test_grid_tree_rss[jobs]``
    runs ``vlgram grid`` at ``--jobs`` 1 and 2 in a fresh interpreter,
    three times each. While it runs, the resident memory of its process
    tree, pool workers included, is sampled from ``/proc`` as
    ``perfbench/run.py`` samples it: ``peak_mb`` is the largest sum seen,
    ``processes`` the most processes seen at once, and ``wall_s`` the
    command's wall time, interpreter start-up included. ``import_mb`` is
    the parent process's VmHWM after importing ``vlgram.cli``.
``test_criterion7_grid_vmhwm``
    runs ``vlgram grid --jobs 1 --summary`` in a fresh interpreter, three
    times, on 6 pieces x 500 slices of the criterion-7 generator
    (vocabulary seed 2, synth seed 7; about 16 s a run on a 2-core
    machine), and reports ``import_mb``, ``vmhwm_mb`` and ``wall_s``.
"""

import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import vlgram
from vlgram import cli, evaluation, filters, ranking, skipgram

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from run import RSS_SAMPLE_INTERVAL_S, _tree_rss_kb  # noqa: E402
from workloads import CADENCE, MINE_FLAGS, command_argv, synth_lines, write_input  # noqa: E402

MB = 1 << 20
STAGES = ("load", "encode", "aggregate", "score", "rank", "write")

# Imports vlgram.cli, runs the command given as arguments, and prints
# {"exit", "import_mb", "vmhwm_mb", "multiprocessing"} as the last line of
# its stdout.
CHILD = """
import json, sys

def vmhwm_mb():
    with open("/proc/self/status", encoding="ascii") as status:
        return next(int(line.split()[1]) for line in status
                    if line.startswith("VmHWM:")) / 1024

from vlgram.cli import main
import_mb = vmhwm_mb()
code = main(sys.argv[1:])
print(json.dumps({"exit": code, "import_mb": import_mb, "vmhwm_mb": vmhwm_mb(),
                  "multiprocessing": "multiprocessing" in sys.modules}))
"""


@pytest.fixture(scope="module")
def poly_input(tmp_path_factory):
    path = tmp_path_factory.mktemp("memory") / "mine-poly-0.tsv"
    write_input("mine-poly", 0, str(path))
    return path


def mine_stages(path: Path, out_path: Path) -> dict:
    """Traced memory after each of mine's stages, run as ``_cmd_mine`` runs them."""
    args = cli.build_parser().parse_args(["mine", "--input", str(path), *MINE_FLAGS])
    skip = cli._parse_skip(args.skip, args.n)
    kind, measure = cli._FILTER_CLI[args.filter], args.rank
    marks = {}

    def mark(stage):
        current, peak = tracemalloc.get_traced_memory()
        marks[stage] = {"current_mb": round(current / MB, 2), "peak_mb": round(peak / MB, 2)}
        tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        corpus = cli._load_prepared(args.input)
        mark("load")
        # As in run_config: the corpus is released once encoded, and the
        # pieces, held in a list and popped into the call, once recorded.
        encoded = [skipgram.encode_corpus(corpus)]
        del corpus
        mark("encode")
        builder = evaluation._record(encoded.pop(), ((skip,),), (cli._WEIGHT_CLI[args.weight],))
        tids, [table] = builder.level_tables(0)
        keys = list(map(builder.keys.__getitem__, tids))
        classes = filters.filter_classes(table.counts(tids), args.min_count,
                                         filters.harmony_bits(keys, (kind,), args.similarity))
        mark("aggregate")
        scores = ranking.score_all(table, keys, (measure,), tids)[measure]
        mark("score")
        ranked = ranking.rank_types(((key, score) for key, score, cls
                                     in zip(keys, scores, classes)
                                     if cls in filters.KEPT[kind] and score is not None),
                                    table, measure)
        mark("rank")
        with open(out_path, "w", encoding="utf-8", newline="") as out:
            writer = cli._csv_writer(out)
            writer.writerow(["rank", "score", "count", "coverage", "type"])
            for entry in ranked.entries:
                writer.writerow([entry.rank, cli._fmt(entry.score), cli._fmt(entry.count),
                                 entry.coverage, entry.text])
        mark("write")
    finally:
        tracemalloc.stop()
    assert len(ranked.entries) > 0
    return marks


def test_stages(benchmark, poly_input, tmp_path):
    marks = benchmark.pedantic(mine_stages, args=(poly_input, tmp_path / "ranked.csv"),
                               rounds=1, iterations=1)
    assert list(marks) == list(STAGES)
    benchmark.extra_info.update(marks)
    print(json.dumps(marks, indent=1))


def child_env() -> dict:
    """The environment of a fresh process that imports this checkout's vlgram."""
    return {**os.environ, "PYTHONPATH": str(Path(vlgram.__file__).resolve().parents[1])}


def child_vmhwm(argv: list[str]) -> dict:
    """CHILD's report of a fresh process running the ``vlgram`` command ``argv``."""
    done = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True,
                          text=True, check=True, env=child_env())
    return json.loads(done.stdout.splitlines()[-1])


def mine_vmhwm(path: Path, out_path: Path) -> dict:
    """VmHWM of a fresh ``vlgram mine`` process on ``path``, with the workload's flags."""
    return child_vmhwm(["mine", "--input", str(path), *MINE_FLAGS, "--query", CADENCE,
                        "--output", str(out_path)])


def test_mine_vmhwm(benchmark, poly_input, tmp_path):
    runs = []

    def run():
        runs.append(mine_vmhwm(poly_input, tmp_path / "ranked.csv"))

    benchmark.pedantic(run, rounds=3, iterations=1)
    assert all(r["exit"] == 0 for r in runs)
    benchmark.extra_info.update({key: [r[key] for r in runs]
                                 for key in ("import_mb", "vmhwm_mb", "multiprocessing")})
    print(json.dumps(benchmark.extra_info))


@pytest.fixture(scope="module")
def grid_input(tmp_path_factory):
    path = tmp_path_factory.mktemp("memory") / "grid-jobs2-0.tsv"
    write_input("grid-jobs2", 0, str(path))
    return path


def tree_size(root: int) -> int:
    """The number of processes in ``root``'s tree, read from /proc."""
    count, stack = 0, [root]
    while stack:
        pid = stack.pop()
        try:
            for tid in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as handle:
                    stack.extend(int(c) for c in handle.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue
        count += 1
    return count


def grid_tree(path: Path, out_dir: Path, jobs: int) -> dict:
    """Peak tree RSS, most processes, wall time and CHILD's report of a fresh
    ``vlgram grid`` on ``path``."""
    argv = command_argv("grid-jobs2", str(path), str(out_dir))
    argv[argv.index("--jobs") + 1] = str(jobs)
    page_kb = os.sysconf("SC_PAGE_SIZE") // 1024
    peak_kb = most = 0
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", CHILD, *argv], stdout=subprocess.PIPE,
                            text=True, env=child_env())
    while proc.poll() is None:
        peak_kb = max(peak_kb, _tree_rss_kb(proc.pid, page_kb))
        most = max(most, tree_size(proc.pid))
        time.sleep(RSS_SAMPLE_INTERVAL_S)
    wall_s = time.perf_counter() - start
    report = json.loads(proc.stdout.read().splitlines()[-1])
    proc.stdout.close()
    assert proc.returncode == 0 and report["exit"] == 0
    return {"peak_mb": round(peak_kb / 1024, 2), "processes": most, "wall_s": round(wall_s, 3),
            "import_mb": report["import_mb"], "multiprocessing": report["multiprocessing"]}


@pytest.mark.parametrize("jobs", [1, 2])
def test_grid_tree_rss(benchmark, grid_input, tmp_path, jobs):
    runs = []

    def run():
        runs.append(grid_tree(grid_input, tmp_path, jobs))

    benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info.update({key: [r[key] for r in runs] for key in runs[0]})
    print(json.dumps(benchmark.extra_info))
    assert all(1 <= r["processes"] <= jobs for r in runs)
    assert all(r["multiprocessing"] is (jobs > 1) for r in runs)


@pytest.fixture(scope="module")
def criterion7_input(tmp_path_factory):
    """6 pieces x 500 slices of the criterion-7 generator (vocabulary seed 2, synth seed 7)."""
    path = tmp_path_factory.mktemp("memory") / "criterion7-6x500.tsv"
    path.write_text("".join(synth_lines(12, 6, 500, 0)), encoding="utf-8")
    return path


def test_criterion7_grid_vmhwm(benchmark, criterion7_input, tmp_path):
    runs = []

    def run():
        start = time.perf_counter()
        report = child_vmhwm(["grid", "--input", str(criterion7_input), "--query", CADENCE,
                              "--output", str(tmp_path / "grid.csv"),
                              "--summary", str(tmp_path / "summary.csv"), "--jobs", "1"])
        runs.append({**report, "wall_s": round(time.perf_counter() - start, 3)})

    benchmark.pedantic(run, rounds=3, iterations=1)
    assert all(r["exit"] == 0 and not r["multiprocessing"] for r in runs)
    benchmark.extra_info.update({key: [r[key] for r in runs]
                                 for key in ("import_mb", "vmhwm_mb", "wall_s")})
    print(json.dumps(benchmark.extra_info))
