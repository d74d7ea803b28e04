"""The vlgram benchmark: set-up, command time and memory on one workload.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload grid-shared --seed 0 --seconds 20 --trace 0

The workload's input is generated from ``--seed`` and written to a file
under ``.perfbench-work/`` before any timing. The benchmark then starts
one fresh process per sample (``child.py``) until ``--seconds`` have
passed, checks every output, and prints each metric by name and unit,
ending with one JSON line::

    {"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, each the median
over the samples:

``setup_s``
    seconds of ``parse_corpus`` + ``prepare_corpus``, what every command
    does before its own work, at a fixed machine speed: each set-up repeat
    is divided by the time of a short reference loop (``reference.py``)
    taken in the same process just before and after it, and the median of
    these ratios is multiplied by ``REFERENCE_S``, the loop's time at that
    speed;
``command_ref``
    the time of the whole ``vlgram grid`` or ``vlgram mine`` command, from
    input file to written CSVs, called in-process through ``cli.main``, in
    units of the reference loop: each sample's command seconds divided by
    the median of the reference timings taken just before and after it, on
    as many processes at once as the command uses, and the median of that
    over the samples;
``peak_rss_mb``
    peak resident memory of the command's process tree while the command
    runs, pool workers included.

The raw seconds behind ``setup_s`` and ``command_ref`` are printed and kept
in ``report.json``.

With ``--trace 1`` every sample is a traced pass instead, which reports
per-layer times and counts.

Details of every sample, including its ``PYTHONHASHSEED``, go to
``report.json`` in the run's work directory; the hash seeds are a fixed
sequence per ``--seed``, so two commits are compared on the same ones.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from workloads import CADENCE, DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
EXPECTED = HERE / "expected.json"
MIN_TIMED_SAMPLES = 3
MIN_TRACED_PASSES = 2
RUN_BUDGET_S = 170.0
RSS_SAMPLE_INTERVAL_S = 0.01

# The seconds the reference loop takes at the machine speed setup_s is
# reported at: about its median on a 2-core x86-64 virtual machine under
# Python 3.11.
REFERENCE_S = 0.012

END_TO_END_UNITS = {"setup_s": "s", "command_ref": "ref", "peak_rss_mb": "MB"}


def per_layer_units(levels: list[str]) -> dict[str, str]:
    units = {}
    for name in ("parse", "expand", "onsets", "reduce"):
        units[f"corpus.{name}_s"] = "s"
    for name in ("notes", "duplicates_dropped", "slices", "synthetic_tempo_pieces",
                 "reduced_slices"):
        units[f"corpus.{name}"] = "count"
    units.update({"skipgram.encode_s": "s", "skipgram.enumerate_s": "s",
                  "skipgram.tokens": "count"})
    units.update({f"skipgram.tokens.{lv}": "count" for lv in levels})
    units["weighting.weigh_s"] = "s"
    units.update({"ranking.aggregate_s": "s", "ranking.types": "count"})
    units.update({f"ranking.types.{lv}": "count" for lv in levels})
    units["ranking.types_per_token"] = "ratio"
    units.update({"ranking.score_s": "s", "ranking.query_rank_s": "s", "filters.harmony_s": "s",
                  "filters.harmony_kept": "count", "filters.freq_kept": "count"})
    units.update({"ranking.rank_s": "s", "ranking.ranked": "count", "vlt.format_s": "s",
                  "cli.write_s": "s", "cli.output_bytes": "bytes"})
    units.update({f"evaluation.level_s.{lv}": "s" for lv in levels})
    units.update({"evaluation.critical_level_s": "s", "evaluation.parallel_efficiency": "ratio",
                  "evaluation.summary_s": "s"})
    units.update({"trace.traced_s": "s", "trace.untraced_s": "s"})
    return units


# Processes ------------------------------------------------------------------


def _tree_rss_kb(root: int, page_kb: int) -> int:
    """Resident memory of ``root`` and all its descendants, read from /proc."""
    total = 0
    stack = [root]
    while stack:
        pid = stack.pop()
        try:
            with open(f"/proc/{pid}/statm", encoding="ascii") as handle:
                total += int(handle.read().split()[1]) * page_kb
            for tid in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as handle:
                    stack.extend(int(c) for c in handle.read().split())
        except (FileNotFoundError, ProcessLookupError, ValueError):
            continue
    return total


class Runner:
    """Starts child processes, one at a time, within the run's time budget."""

    def __init__(self, src: Path, work: Path, seed: int):
        self.src = src
        self.work = work
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self._hash_rng = random.Random(f"hashseed-{seed}")
        self._count = 0
        self._page_kb = os.sysconf("SC_PAGE_SIZE") // 1024
        self._proc_ok = Path("/proc/self/task").is_dir()

    def run(self, mode: str, args: dict) -> dict:
        """Run one child; returns its result plus hash seed and tree peak RSS.

        When the child reports a ``command_window`` (its ``time.monotonic()``
        at the start and end of the command; the clock is shared between
        processes), the tree's peak counts only samples inside it, so that
        the benchmark's own reference processes are left out.
        """
        self._count += 1
        tag = f"{self._count:03d}-{mode}"
        result_path = self.work / f"{tag}.json"
        log_path = self.work / f"{tag}.log"
        hash_seed = self._hash_rng.randrange(2 ** 32)
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        argv = [sys.executable, str(CHILD), mode,
                json.dumps({**args, "src": str(self.src), "result": str(result_path)})]
        rss_samples: list[tuple[float, int]] = []
        done = threading.Event()
        with open(log_path, "w", encoding="utf-8") as log:
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env,
                                    start_new_session=True)
            sampler = threading.Thread(target=self._sample, args=(proc.pid, rss_samples, done))
            if self._proc_ok:
                sampler.start()
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                # Also reaps anything the child left behind in its session.
                self._kill(proc)
                done.set()
                if sampler.is_alive():
                    sampler.join()
        if code != 0 or not result_path.is_file():
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            reason = "timed out" if code is None else f"exited {code}"
            return {"child_failed": f"{mode} child {reason}: {tail}", "hash_seed": hash_seed}
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["hash_seed"] = hash_seed
        start, end = result.get("command_window", (-math.inf, math.inf))
        result["tree_peak_kb"] = max([kb for t, kb in rss_samples if start <= t <= end]
                                     + [result["maxrss_kb"]])
        return result

    def _sample(self, pid: int, rss_samples: list, done: threading.Event) -> None:
        while not done.is_set():
            rss_samples.append((time.monotonic(), _tree_rss_kb(pid, self._page_kb)))
            done.wait(RSS_SAMPLE_INTERVAL_S)

    @staticmethod
    def _kill(proc: subprocess.Popen) -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    def out_of_time(self) -> bool:
        return time.monotonic() >= self.deadline


# Output checks ----------------------------------------------------------------


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def _grid_labels(config) -> list[str]:
    """The first five grid.csv columns for one configuration."""
    skip = config.skip
    level = str(skip.t) if skip.mode == "fixed" else f"{skip.w:g}"
    return [skip.mode, level, config.weight, config.filter.kind, config.measure]


def check_grid_outputs(out_dir: Path) -> list[str]:
    from vlgram import cli, evaluation

    rows = _read_csv(out_dir / "grid.csv")
    if not rows or rows[0] != cli.GRID_COLUMNS:
        return [f"grid.csv header is {rows[:1]}"]
    labels = [_grid_labels(c) for c in evaluation.default_grid(3)]
    if len(rows) - 1 != len(labels):
        return [f"grid.csv has {len(rows) - 1} rows, expected {len(labels)}"]
    for i, (row, want) in enumerate(zip(rows[1:], labels), start=1):
        if row[:5] != want:
            return [f"grid.csv row {i} is {row[:5]}, default_grid order gives {want}"]
        rank = row[5]
        if rank != "NA" and not (rank.isdigit() and int(rank) >= 1):
            return [f"grid.csv row {i} has query_rank {rank!r}"]
    # One summary row per skip level, weighting, filter and measure, plus the
    # variable-against-fixed comparison.
    levels = len({tuple(w[:2]) for w in labels}) + sum(
        len({w[k] for w in labels}) for k in (2, 3, 4)) + 1
    summary = _read_csv(out_dir / "summary.csv")
    if len(summary) - 1 != levels:
        return [f"summary.csv has {len(summary) - 1} rows, expected {levels}"]
    return []


def check_mine_outputs(out_dir: Path) -> list[str]:
    rows = _read_csv(out_dir / "ranked.csv")
    if not rows or rows[0] != ["rank", "score", "count", "coverage", "type"]:
        return [f"ranked.csv header is {rows[:1]}"]
    if len(rows) < 2:
        return ["ranked.csv has no rows"]
    prev = 1
    for i, row in enumerate(rows[1:], start=1):
        rank = int(row[0])
        if rank < prev or rank > i or (i == 1 and rank != 1):
            return [f"ranked.csv row {i} has rank {rank} after {prev}"]
        prev = rank
    return []


# Runs -------------------------------------------------------------------------


class Run:
    """One benchmark invocation: a workload, a seed and its work directory."""

    def __init__(self, name: str, seed: int, trace: bool, src: Path, root: Path):
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.work = root / ".perfbench-work" / f"{name}-seed{seed}-trace{int(trace)}"
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        self.runner = Runner(src, self.work, seed)
        self.input = self.work / "input.tsv"
        self.input_digest = ""
        self.problems: list[str] = []
        self.attempted = 0
        # Labels of the command runs that failed, so that a run failing more
        # than one check counts once.
        self.failed_runs: set[str] = set()
        self.first_digests: dict[str, str] | None = None
        self.first_out: Path | None = None
        self.first_label = ""
        self.expected = json.loads(EXPECTED.read_text(encoding="utf-8")).get(name, {})

    @property
    def failed(self) -> int:
        return len(self.failed_runs)

    # Inputs and outputs

    def make_input(self) -> None:
        workloads.write_input(self.name, self.seed, str(self.input))
        self.input_digest = sha256(self.input)

    def _compare_digest(self, file: str, digest: str) -> None:
        recorded = self.expected.get("sha256", {}).get(file)
        if recorded != digest:
            self.problems.append(f"{file} sha256 {digest} differs from the recorded "
                                 f"default-seed digest {recorded}")

    def run_command(self, label: str) -> dict | None:
        """One timed command run in a fresh process; None when it failed."""
        out_dir = self.work / label
        out_dir.mkdir()
        self.attempted += 1
        argv = workloads.command_argv(self.name, str(self.input), str(out_dir))
        result = self.runner.run("timed", {"input": str(self.input), "argv": argv,
                                           "jobs": self.spec["jobs"]})
        problems = self._command_problems(result, out_dir)
        if not problems:
            digests = {f: sha256(out_dir / f) for f in workloads.output_files(self.name)}
            if self.first_digests is None:
                self.first_digests, self.first_out = digests, out_dir
                self.first_label = label
                return result
            if digests != self.first_digests:
                problems = ["output differs from the first run's output"]
        if problems:
            self.failed_runs.add(label)
            self.problems.extend(f"{label}: {p}" for p in problems)
            return None
        shutil.rmtree(out_dir)
        return result

    def _command_problems(self, result: dict, out_dir: Path) -> list[str]:
        if "child_failed" in result:
            return [result["child_failed"]]
        if result["exit_code"] != 0:
            return [f"vlgram exited {result['exit_code']} {result['error'] or ''}".strip()]
        missing = [f for f in workloads.output_files(self.name) if not (out_dir / f).is_file()]
        if missing:
            return [f"missing output {', '.join(missing)}"]
        if self.spec["command"] == "grid":
            return check_grid_outputs(out_dir)
        return check_mine_outputs(out_dir)

    def deep_check(self) -> None:
        """Untimed: compare the first output with run_config, and digests.

        A problem found here counts the first command run, whose output was
        checked, as failed.
        """
        known = len(self.problems)
        if self.seed == DEFAULT_SEED:
            self._compare_digest("input.tsv", self.input_digest)
        if self.first_digests is None:
            return
        output = self.first_out / workloads.output_files(self.name)[0]
        result = self.runner.run("check", {"input": str(self.input), "output": str(output),
                                           "command": self.spec["command"],
                                           "query": CADENCE, "seed": self.seed})
        if "child_failed" in result:
            self.problems.append(result["child_failed"])
        else:
            self.problems.extend(result["problems"])
        if self.seed == DEFAULT_SEED:
            for file, digest in self.first_digests.items():
                self._compare_digest(file, digest)
        if len(self.problems) > known:
            self.failed_runs.add(self.first_label)

    # Timed runs

    def timed(self, seconds: float) -> tuple[dict, dict]:
        samples = []
        start = time.monotonic()
        while (self.attempted < MIN_TIMED_SAMPLES or time.monotonic() - start < seconds) \
                and not self.runner.out_of_time():
            result = self.run_command(f"run{self.attempted:03d}")
            if result is not None:
                samples.append(result)
        self.deep_check()
        if not samples:
            return {}, {"samples": []}
        command_s = statistics.median([r["command_s"] for r in samples])
        setup_ratios = [t / ref for r in samples
                        for t, ref in zip(r["setup_s"], r["setup_reference_s"])]
        command_ratios = [r["command_s"] / statistics.median(r["command_reference_s"])
                          for r in samples]
        metrics = {
            "setup_s": statistics.median(setup_ratios) * REFERENCE_S,
            "command_ref": statistics.median(command_ratios),
            "peak_rss_mb": statistics.median([r["tree_peak_kb"] / 1024 for r in samples]),
        }
        detail = {"outputs_sha256": self.first_digests, "command_s": command_s,
                  "raw_setup_s": statistics.median([t for r in samples for t in r["setup_s"]]),
                  "setup_repeats": len(setup_ratios),
                  "reference_s": statistics.median(
                      [t for r in samples for t in r["command_reference_s"]]),
                  "samples": [{k: r[k] for k in ("setup_s", "setup_reference_s", "command_s",
                                                  "command_reference_s", "tree_peak_kb",
                                                  "maxrss_kb", "hash_seed")}
                              for r in samples]}
        return metrics, detail

    # Traced runs

    def traced(self, seconds: float, units: dict[str, str]) -> tuple[dict, dict]:
        passes = []
        tried = 0
        start = time.monotonic()
        while (tried < MIN_TRACED_PASSES or time.monotonic() - start < seconds) \
                and not self.runner.out_of_time():
            one = self._traced_pass(tried)
            tried += 1
            if one is not None:
                passes.append(one)
        self.deep_check()
        if not passes:
            return {}, {"passes": []}
        counts = [p["counts"] for p in passes]
        if any(c != counts[0] for c in counts[1:]):
            self.problems.append("per-layer counts differ between traced passes")
        recorded = self.expected.get("counts")
        if self.seed == DEFAULT_SEED and recorded != counts[0]:
            self.problems.append("per-layer counts differ from the recorded default-seed counts")
        metrics = dict(counts[0])
        for name in units:
            called = not workloads.not_called(self.name, name)
            measured = name in metrics or all(name in p["times"] for p in passes)
            if called != measured:
                state = "is not measured" if called else "is measured in a layer never called"
                self.problems.append(f"per-layer metric {name} {state}")
            elif not called:
                metrics[name] = 0
            elif name not in metrics:
                metrics[name] = statistics.median([p["times"][name] for p in passes])
        return metrics, {"passes": passes, "outputs_sha256": self.first_digests}

    def _traced_pass(self, index: int) -> dict | None:
        label = f"pass{index:03d}"
        command = self.spec["command"]
        trace = self.runner.run("trace", {
            "input": str(self.input), "command": command, "query": CADENCE,
            "spans": str(self.work / f"{label}-spans.json"),
            "traced_output": str(self.work / f"{label}-traced-ranked.csv")})
        if "child_failed" in trace:
            self.attempted += 1
            self.failed_runs.add(f"{label}-trace")
            self.problems.append(f"{label}: {trace['child_failed']}")
            return None
        levels = None
        if command == "grid":
            levels = self.runner.run("levels", {"input": str(self.input), "query": CADENCE})
        real = self.run_command(label)
        problems = []
        if not trace["slices_match"]:
            problems.append("traced set-up slices differ from prepare_corpus's")
        if levels is not None and "child_failed" in levels:
            problems.append(levels["child_failed"])
        if real is not None and command == "mine":
            traced_csv = self.work / f"{label}-traced-ranked.csv"
            if sha256(traced_csv) != self.first_digests["ranked.csv"]:
                problems.append("traced ranked list differs from the command's ranked.csv")
        if real is not None and command == "grid" and not problems:
            ranks = [r[5] for r in _read_csv(self.first_out / "grid.csv")[1:]]
            if ranks != levels["query_ranks"]:
                problems.append("run_grid level by level differs from the command's grid.csv")
            if ranks != trace["query_ranks"]:
                problems.append("traced query ranks differ from the command's grid.csv")
        if problems:
            self.problems.extend(f"{label}: {p}" for p in problems)
            if real is not None:
                self.failed_runs.add(label)
            return None
        if real is None:
            return None
        return self._pass_metrics(trace, levels, real)

    def _pass_metrics(self, trace: dict, levels: dict | None, real: dict) -> dict:
        counts = dict(trace["counts"])
        level_names = [k.split(".", 2)[2] for k in counts if k.startswith("skipgram.tokens.")]
        counts["skipgram.tokens"] = sum(counts[f"skipgram.tokens.{lv}"] for lv in level_names)
        counts["ranking.types"] = sum(counts[f"ranking.types.{lv}"] for lv in level_names)
        counts["ranking.types_per_token"] = counts["ranking.types"] / counts["skipgram.tokens"]
        times = {f"{name}_s": t for name, t in trace["self_s"].items()}
        times["trace.traced_s"] = trace["traced_s"]
        if levels is None:
            times["trace.untraced_s"] = real["command_s"]
        else:
            level_s = levels["level_s"]
            times.update({f"evaluation.level_s.{lv}": t for lv, t in level_s.items()})
            times["evaluation.critical_level_s"] = max(level_s.values())
            times["evaluation.summary_s"] = levels["summary_s"]
            times["evaluation.parallel_efficiency"] = (
                sum(level_s.values()) / (self.spec["jobs"] * real["command_s"]))
            times["trace.untraced_s"] = levels["setup_s"] + sum(level_s.values())
        return {"counts": counts, "times": times, "command_s": real["command_s"],
                "hash_seeds": [trace["hash_seed"], real["hash_seed"]]
                + ([levels["hash_seed"]] if levels else [])}


# Entry point --------------------------------------------------------------------


def _declared_units(root: Path, trace: bool) -> dict[str, str]:
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "vlgram" / "__init__.py").is_file():
        print(f"error: no vlgram sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from child import N, level_name
    from vlgram import evaluation

    # On SIGTERM, unwind through Runner.run so the running child is killed.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    levels = [level_name(s) for s in evaluation.default_skip_configs(N)]
    units = per_layer_units(levels) if args.trace else END_TO_END_UNITS
    if _declared_units(root, bool(args.trace)) != units:
        print("error: BENCHMARK.json declares other metrics than perfbench emits",
              file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, bool(args.trace), src, root)
    run.make_input()
    if args.trace:
        metrics, detail = run.traced(args.seconds, units)
    else:
        metrics, detail = run.timed(args.seconds)
    correct = not run.problems and set(metrics) == set(units)

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "python": platform.python_version(),
              "nproc": os.cpu_count(), "correct": correct, "attempted": run.attempted,
              "failed": run.failed, "problems": run.problems, "metrics": metrics,
              "input_sha256": run.input_digest, **detail}
    (run.work / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")

    _print_summary(args, run, metrics, units, detail)
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()}}))
    return 0


def _print_summary(args, run: Run, metrics: dict, units: dict, detail: dict) -> None:
    command = " ".join(["vlgram", run.spec["command"]]
                       + (["--summary", "--jobs", str(run.spec["jobs"])]
                          if run.spec["command"] == "grid" else workloads.MINE_FLAGS))
    n = len(detail.get("samples", detail.get("passes", [])))
    print(f"workload {args.workload} (seed {args.seed}, trace {args.trace}): {command}")
    kind = "traced passes" if args.trace else "fresh-process runs"
    for name, unit in units.items():
        if args.trace and workloads.not_called(args.workload, name):
            print(f"  {name:34s} {0:>14} {unit:6s} layer not called by this workload")
        elif name in metrics:
            print(f"  {name:34s} {metrics[name]:>14.6g} {unit:6s} median of {n} {kind}")
    if "command_s" in detail:
        print(f"  {'raw setup_s':34s} {detail['raw_setup_s']:>14.6g} {'s':6s} median of "
              f"{detail['setup_repeats']} set-up repeats")
        print(f"  {'command_s':34s} {detail['command_s']:>14.6g} {'s':6s} median of {n} {kind}")
        print(f"  {'reference loop':34s} {detail['reference_s']:>14.6g} {'s':6s} median "
              f"beside the commands")
    share = run.failed / run.attempted if run.attempted else 0.0
    print(f"  {'failed_ops':34s} {share:>14.6g} share  ({run.failed} of {run.attempted} "
          f"command runs failed)")
    for problem in run.problems:
        print(f"  problem: {problem}")


if __name__ == "__main__":
    sys.exit(main())
