"""Work done inside one fresh benchmark process.

``run.py`` starts this script once per sample, so per-process state in the
program (``harmony_pass``'s cache, the resonance peak) starts cold as it
does for a command-line user. Usage::

    python3 perfbench/child.py MODE ARGS_JSON

Modes:

``timed``
    Time ``parse_corpus`` + ``prepare_corpus`` on the input file, repeated
    while a repeat is cheap and each repeat between two timings of the
    reference loop (``reference.py``); then time the whole ``vlgram``
    command through ``vlgram.cli.main`` and record its exit code.
``trace``
    Call each layer's public functions in the order the command does,
    recording a span around every call, and count the work done. The query
    ranks the traced grid computes are returned, so that the parent can
    compare them with the command's grid.csv.
``levels``
    Time ``run_grid`` one skip level at a time, then ``summarize_grid``.
``check``
    Recompute sampled grid configurations (or the whole ranked list) with
    ``run_config`` and compare them with the command's output files.

The result is written as JSON to the path in ``ARGS_JSON["result"]``.
"""

from __future__ import annotations

import csv
import gc
import json
import os
import random
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import reference

N = 3
MIN_COUNT = 10.0
SIMILARITY = "intersect"
MINE_SKIP_T = 0
MINE_WEIGHT = "periodicity"
MINE_MEASURE = "pmi"
CHECK_FIXED = ("fixed", "5", "count", "harmony", "pmi-cov")
SETUP_MAX_REPEATS = 20
SETUP_MIN_TOTAL_S = 0.3
COMMAND_REFERENCE_REPEATS = 20


def level_name(skip) -> str:
    return f"fixed-{skip.t}" if skip.mode == "fixed" else f"variable-{skip.w:g}"


class Tracer:
    """Spans (name, start, end, parent index) kept in memory until the end."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _parent), child_time in zip(self.spans, covered):
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time
        return totals

    def root_total(self) -> float:
        return sum(end - start for _n, start, end, parent in self.spans if parent is None)


def _timed(a: dict) -> dict:
    from vlgram import cli, corpus

    # Each set-up repeat sits between two timings of the reference loop, so
    # the parent can divide it by the machine's speed at that moment.
    setup_s, setup_reference_s = [], []
    before = reference.once()
    while not setup_s or (len(setup_s) < SETUP_MAX_REPEATS
                          and sum(setup_s) < SETUP_MIN_TOTAL_S):
        start = time.perf_counter()
        prepared = corpus.parse_corpus(a["input"])
        corpus.prepare_corpus(prepared)
        setup_s.append(time.perf_counter() - start)
        del prepared
        gc.collect()
        after = reference.once()
        setup_reference_s.append((before + after) / 2)
        before = after

    # The command, which runs for seconds, sits between two runs of reference
    # timings, likewise, made on as many processes at once as it uses.
    command_reference_s = _reference_timings(a["jobs"])
    error = None
    window_start = time.monotonic()
    start = time.perf_counter()
    try:
        exit_code = cli.main(a["argv"])
    except SystemExit as exc:
        exit_code = exc.code
    except Exception as exc:  # a crash is a failed operation, reported by the parent
        exit_code, error = None, repr(exc)
    command_s = time.perf_counter() - start
    command_window = [window_start, time.monotonic()]
    command_reference_s += _reference_timings(a["jobs"])
    return {"setup_s": setup_s, "setup_reference_s": setup_reference_s,
            "command_s": command_s, "command_reference_s": command_reference_s,
            "command_window": command_window, "exit_code": exit_code, "error": error}


def _reference_timings(jobs: int) -> list[float]:
    """COMMAND_REFERENCE_REPEATS timings of the reference loop on each of
    ``jobs`` processes running at the same time.

    A command that runs a pool of ``jobs`` workers is slowed by load on
    any of the cores they use, which one process alone would not see.
    """
    if jobs == 1:
        return [reference.once() for _ in range(COMMAND_REFERENCE_REPEATS)]
    workers = [subprocess.Popen([sys.executable, reference.__file__,
                                 str(COMMAND_REFERENCE_REPEATS)], stdout=subprocess.PIPE)
               for _ in range(jobs)]
    return [t for worker in workers for t in json.loads(worker.communicate()[0])]


def _traced_setup(tr: Tracer, path: str):
    """prepare_corpus's steps in its order, each under its own span."""
    from vlgram import corpus

    with tr.span("corpus.parse"):
        prepared = corpus.parse_corpus(path)
    for piece in prepared.pieces:
        with tr.span("corpus.expand"):
            slices = corpus.expand(piece.notes)
        with tr.span("corpus.onsets"):
            if any(n.onset_perf is not None for n in piece.notes):
                piece.slices = corpus.assign_performed_onsets(piece.notes, slices)
            else:
                piece.slices = corpus.render_fixed_tempo(slices)
                piece.synthetic_tempo = True
    with tr.span("corpus.reduce"):
        stats = corpus.reduce_corpus(prepared)
    counts = {
        "corpus.notes": sum(len(p.notes) for p in prepared.pieces),
        "corpus.duplicates_dropped": len(prepared.warnings),
        "corpus.slices": stats.n_slices,
        "corpus.synthetic_tempo_pieces": sum(p.synthetic_tempo for p in prepared.pieces),
        "corpus.reduced_slices": stats.n_reduced,
    }
    return prepared, counts


def _same_as_prepare_corpus(prepared, path: str) -> bool:
    from vlgram import corpus

    reference = corpus.parse_corpus(path)
    corpus.prepare_corpus(reference)
    return all(a.slices == b.slices and a.synthetic_tempo == b.synthetic_tempo
               for a, b in zip(prepared.pieces, reference.pieces))


def _traced_grid(tr: Tracer, prepared, query_key) -> tuple[dict, list[str]]:
    """Each skip level through the grid's layers, one span per layer call.

    Returns the counts and the query's rank in every grid configuration, in
    grid order, as ``NA`` or a number.
    """
    from vlgram import evaluation, filters, ranking, skipgram, weighting

    counts = {"filters.harmony_kept": 0, "filters.freq_kept": 0}
    query_ranks: list[str] = []
    with tr.span("skipgram.encode"):
        pieces = skipgram.encode_corpus(prepared)
    for skip in evaluation.default_skip_configs(N):
        with tr.span("level"):
            with tr.span("skipgram.enumerate"):
                tokens = list(skipgram.enumerate_corpus(pieces, skip))
            with tr.span("weighting.weigh"):
                weights = [weighting.weigh_all(tok.onsets_perf) for tok in tokens]
            with tr.span("ranking.aggregate"):
                builder = ranking.TableBuilder(N, len(pieces), weighting.WEIGHT_KINDS)
                add = builder.add
                for tok, ws in zip(tokens, weights):
                    add(tok.piece_id, tok.type_key, ws)
            keys = list(builder.tables[0].joint)
            with tr.span("filters.harmony"):
                harmony = [filters.harmony_pass(k, SIMILARITY) for k in keys]
            with tr.span("ranking.score"):
                scores = [ranking.score_all(table, keys) for table in builder.tables]
            with tr.span("ranking.query_rank"):
                freq = [[c >= MIN_COUNT for c in s["counts"]] for s in scores]
                qpos = keys.index(query_key) if query_key in builder.tables[0].joint else None
                for score, kept in zip(scores, freq):
                    query_ranks += _query_ranks(score, kept, harmony, qpos)
        name = level_name(skip)
        counts[f"skipgram.tokens.{name}"] = len(tokens)
        counts[f"ranking.types.{name}"] = len(keys)
        counts["filters.harmony_kept"] += sum(harmony)
        counts["filters.freq_kept"] += sum(sum(kept) for kept in freq)
    return counts, query_ranks


def _query_ranks(score: dict, freq: list[bool], harmony: list[bool],
                 qpos: int | None) -> list[str]:
    """One weighting's query ranks, by filter then measure, as the grid orders them.

    The rank is one more than the number of kept types that score higher
    than the query; a query the filter drops, or that has no score, is NA.
    """
    from vlgram import filters, ranking

    at = {"none": 0, "frequency": 1, "harmony": 2, "both": 3}
    ranks = {}
    for measure in ranking.MEASURES:
        arr = score[measure]
        qscore = arr[qpos] if qpos is not None else None
        if qscore is None:
            ranks.update({(fkind, measure): "NA" for fkind in filters.FILTER_KINDS})
            continue
        greater = [0, 0, 0, 0]  # none, frequency, harmony, both
        for i, s in enumerate(arr):
            if s is None or s <= qscore:
                continue
            greater[0] += 1
            if freq[i]:
                greater[1] += 1
            if harmony[i]:
                greater[2] += 1
                if freq[i]:
                    greater[3] += 1
        kept = {"none": True, "frequency": freq[qpos], "harmony": harmony[qpos],
                "both": freq[qpos] and harmony[qpos]}
        for fkind in filters.FILTER_KINDS:
            ranks[(fkind, measure)] = str(greater[at[fkind]] + 1) if kept[fkind] else "NA"
    return [ranks[(f, m)] for f in filters.FILTER_KINDS for m in ranking.MEASURES]


def _fmt(value) -> str:
    if value is None:
        return "NA"
    return repr(value) if isinstance(value, float) else str(value)


def _traced_mine(tr: Tracer, prepared, query_key, out_path: str) -> dict:
    """The mine command's layers; filter ``none`` is the identity and is skipped."""
    from vlgram import ranking, skipgram, weighting

    skip = skipgram.SkipConfig("fixed", N, t=MINE_SKIP_T)
    with tr.span("skipgram.encode"):
        pieces = skipgram.encode_corpus(prepared)
    with tr.span("skipgram.enumerate"):
        tokens = list(skipgram.enumerate_corpus(pieces, skip))
    with tr.span("weighting.weigh"):
        tokens = weighting.apply_weights(tokens, MINE_WEIGHT)
    with tr.span("ranking.aggregate"):
        table = ranking.build_type_table(tokens, prepared.n_compositions, N, MINE_WEIGHT)
    with tr.span("ranking.score"):
        scored = []
        for key in table.joint:
            score = ranking.score_type(key, table, MINE_MEASURE)
            if score is not None:
                scored.append((key, score))
    with tr.span("ranking.rank"):
        ranked = ranking.rank_types(scored, table, MINE_MEASURE)
    with tr.span("ranking.query_rank"):
        ranked.rank_of(query_key)
    with tr.span("vlt.format"):
        texts = [entry.text for entry in ranked.entries]
    with tr.span("cli.write"):
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["rank", "score", "count", "coverage", "type"])
            for entry, text in zip(ranked.entries, texts):
                writer.writerow([entry.rank, _fmt(entry.score), _fmt(entry.count),
                                 entry.coverage, text])
    name = level_name(skip)
    return {f"skipgram.tokens.{name}": len(tokens), f"ranking.types.{name}": len(table.joint),
            "ranking.ranked": len(ranked.entries),
            "cli.output_bytes": os.path.getsize(out_path)}


def _trace(a: dict) -> dict:
    from vlgram import parse_pattern

    query_key = parse_pattern(a["query"]).key
    tr = Tracer()
    with tr.span("setup"):
        prepared, counts = _traced_setup(tr, a["input"])
    query_ranks = []
    with tr.span("pipeline"):
        if a["command"] == "grid":
            layer_counts, query_ranks = _traced_grid(tr, prepared, query_key)
        else:
            layer_counts = _traced_mine(tr, prepared, query_key, a["traced_output"])
    counts.update(layer_counts)
    traced_s = tr.root_total()
    with open(a["spans"], "w", encoding="utf-8") as handle:
        json.dump(tr.spans, handle)
    return {"self_s": tr.self_times(), "counts": counts, "traced_s": traced_s,
            "query_ranks": query_ranks,
            "slices_match": _same_as_prepare_corpus(prepared, a["input"])}


def _levels(a: dict) -> dict:
    from vlgram import evaluation, parse_pattern
    from vlgram.corpus import parse_corpus, prepare_corpus

    start = time.perf_counter()
    prepared = parse_corpus(a["input"])
    prepare_corpus(prepared)
    setup_s = time.perf_counter() - start
    query = parse_pattern(a["query"])
    level_s = {}
    rows = []
    for skip in evaluation.default_skip_configs(N):
        start = time.perf_counter()
        grid = evaluation.run_grid(prepared, query, N, skip_configs=[skip])
        level_s[level_name(skip)] = time.perf_counter() - start
        rows.extend(grid.rows)
    start = time.perf_counter()
    evaluation.summarize_grid(evaluation.GridResult(str(query), N, rows))
    summary_s = time.perf_counter() - start
    ranks = ["NA" if r.query_rank is None else str(r.query_rank) for r in rows]
    return {"setup_s": setup_s, "level_s": level_s, "summary_s": summary_s,
            "query_ranks": ranks}


def _check(a: dict) -> dict:
    """Compare the command's output with run_config on the same input."""
    from vlgram import evaluation, filters, parse_pattern, skipgram
    from vlgram.corpus import parse_corpus, prepare_corpus

    prepared = parse_corpus(a["input"])
    prepare_corpus(prepared)
    query = parse_pattern(a["query"])
    problems = []
    if a["command"] == "grid":
        with open(a["output"], encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        # One seed-chosen configuration per filter, among those where the
        # query is ranked below the top when there are any, since a rank of
        # 1 hides an error in the count of higher-scoring types.
        rng = random.Random(a["seed"])
        picks = []
        for fkind in filters.FILTER_KINDS:
            ranked = [i for i, r in enumerate(rows)
                      if r["filter"] == fkind and r["query_rank"] != "NA"]
            below_top = [i for i in ranked if rows[i]["query_rank"] != "1"]
            if below_top or ranked:
                picks.append(rng.choice(below_top or ranked))
        picks += [i for i, r in enumerate(rows)
                  if (r["skip_mode"], r["skip_level"], r["weight"], r["filter"],
                      r["rank_measure"]) == CHECK_FIXED]
        grid = evaluation.default_grid(N, MIN_COUNT, SIMILARITY)
        for i in picks:
            _ranked, rank = evaluation.run_config(prepared, grid[i], query)
            expected = "NA" if rank is None else str(rank)
            if rows[i]["query_rank"] != expected:
                problems.append(f"grid row {i}: query_rank {rows[i]['query_rank']}, "
                                f"run_config gives {expected}")
        return {"problems": problems, "checked": len(picks)}
    config = evaluation.PipelineConfig(
        skipgram.SkipConfig("fixed", N, t=MINE_SKIP_T), MINE_WEIGHT,
        filters.FilterSpec("none", MIN_COUNT, SIMILARITY), MINE_MEASURE)
    ranked, _rank = evaluation.run_config(prepared, config, query)
    with open(a["output"], encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    expected = [[str(e.rank), _fmt(e.score), _fmt(e.count), str(e.coverage), e.text]
                for e in ranked.entries]
    if rows != expected:
        mismatch = next((i for i, (x, y) in enumerate(zip(rows, expected)) if x != y),
                        min(len(rows), len(expected)))
        problems.append(f"ranked.csv differs from run_config at row {mismatch + 1} "
                        f"({len(rows)} rows against {len(expected)})")
    return {"problems": problems, "checked": len(expected)}


def _own_peak_rss_kb() -> int:
    """Peak resident memory of this process since it started this program.

    ``ru_maxrss`` would also count the memory of the parent at the moment
    it forked this process, so the kernel's high-water mark of the current
    address space is read instead where it exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except FileNotFoundError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


MODES = {"timed": _timed, "trace": _trace, "levels": _levels, "check": _check}


def main() -> int:
    mode, args = sys.argv[1], json.loads(sys.argv[2])
    src = Path(args["src"])
    sys.path.insert(0, str(src))
    import vlgram

    if Path(vlgram.__file__).resolve().parent != (src / "vlgram").resolve():
        print(f"vlgram imported from {vlgram.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = MODES[mode](args)
    result["maxrss_kb"] = _own_peak_rss_kb()
    with open(args["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
