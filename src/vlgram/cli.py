"""Command-line interface.

Commands: ``expand`` (slice dump), ``encode`` (voice-leading dump),
``mine`` (one pipeline configuration to a ranked CSV), ``grid`` (all 1820
configurations plus per-level summaries), ``synth`` (seeded synthetic
corpus with a plant manifest), and ``report`` (per-level MRR plot data
from a grid CSV). Every command is deterministic given its inputs, flags,
and seed. A command's status line goes to stdout, or to stderr when one
of its outputs is "-" (stdout), so a streamed CSV holds nothing else.

Exit codes: 0 success, 2 usage error, 3 data error (bad input, or a file
that cannot be read or written), 4 internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from contextlib import ExitStack, contextmanager

from . import corpus as corpus_mod
from . import evaluation, filters, ranking, skipgram
from .vlt import PatternSyntaxError, format_chord, parse_pattern
from .weighting import WEIGHT_KINDS

USAGE_ERROR = 2
DATA_ERROR = 3
INTERNAL_ERROR = 4

_WEIGHT_CLI = {kind.replace("_", "-"): kind for kind in WEIGHT_KINDS}  # --weight spellings
_FILTER_CLI = {"none": "none", "freq": "frequency", "harmony": "harmony", "both": "both"}


def _number(convert, text: str):
    """``convert`` the text, refusing "_" and non-ASCII characters, which int and float
    also read ("1_0" as 10, "٣" as 3)."""
    if "_" in text or not text.isascii():
        raise argparse.ArgumentTypeError(f"numbers must be ASCII, without '_', got {text!r}")
    try:
        return convert(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number {text!r}") from None


def _parse_skip(text: str, n: int) -> skipgram.SkipConfig:
    mode, sep, value = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"skip must look like fixed:5 or variable:1.0, got {text!r}")
    if mode == "fixed":
        config = {"t": _number(int, value)}
    elif mode in ("variable", "var"):
        mode, config = "variable", {"w": _number(float, value)}
    else:
        raise argparse.ArgumentTypeError(f"unknown skip mode {mode!r}")
    try:
        return skipgram.SkipConfig(mode, n, **config)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _at_least(convert, low, at_most=math.inf):
    """An argparse type: ``convert`` the text (_number), then reject values outside
    [low, at_most]."""
    def parse(text: str):
        value = _number(convert, text)
        if not low <= value <= at_most:  # also rejects nan
            bound = f"at least {low}" if at_most == math.inf else f"within [{low}, {at_most}]"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text!r}")
        return value
    return parse


def _load_prepared(path: str) -> corpus_mod.Corpus:
    """The prepared corpus at ``path``, each piece's notes released: no command
    reads them once the slices are built."""
    corpus = corpus_mod.parse_corpus(path)
    corpus_mod.prepare_corpus(corpus)
    for piece in corpus.pieces:
        piece.notes = []
    return corpus


def _distinct_outputs(a: str | None, b: str | None) -> None:
    """Reject two outputs naming one regular or unmade file; "-" or a device may repeat."""
    if ({a, b}.isdisjoint({None, "-"}) and os.path.realpath(a) == os.path.realpath(b)
            and (os.path.isfile(a) or not os.path.exists(a))):
        raise argparse.ArgumentTypeError(f"{a} and {b} name the same file")


@contextmanager
def _open_out(path: str | None):
    """The output file at ``path``, closed on exit; stdout (left open) for None or "-".

    Opened without truncation, a file that was there keeps its bytes until the command
    writes it, and a regular file is cut to what was written; one that this call created
    is removed again if the command fails."""
    if path in (None, "-"):
        yield sys.stdout
        return
    created = not os.path.lexists(path)
    with open(path, "w", encoding="utf-8", newline="",
              opener=lambda name, flags: os.open(name, flags & ~os.O_TRUNC, 0o666)) as handle:
        regular = os.path.isfile(path)
        try:
            yield handle
        except BaseException:
            if created:
                os.remove(path)
            elif regular and handle.tell():  # keep no old bytes past a partial write
                handle.truncate()
            raise
        if regular:
            handle.truncate()


def _status(line: str, *paths: str | None) -> None:
    """Print a status line: to stderr when any of ``paths`` is "-" (stdout), else stdout."""
    print(line, file=sys.stderr if "-" in paths else sys.stdout)


def _csv_writer(handle):
    return csv.writer(handle, lineterminator="\n")


def _fmt(value) -> str:
    if value is None:
        return "NA"
    return repr(value) if isinstance(value, float) else str(value)


def _cmd_expand(args) -> int:
    corpus = _load_prepared(args.input)
    with _open_out(args.output) as out:
        for piece in corpus.pieces:
            for s in piece.slices:
                pitches = " ".join(str(p) for p in s.pitches)
                out.write(f"{s.piece_id}\t{s.index}\t{s.onset_score}\t{s.onset_perf!r}"
                          f"\t{s.bass}\t{s.top}\t{pitches}\n")
    return 0


def _cmd_encode(args) -> int:
    corpus = _load_prepared(args.input)
    with _open_out(args.output) as out:
        for piece in skipgram.encode_corpus(corpus):
            key = piece.token_at(range(len(piece))).type_key
            for index, (intervals, top, motion) in enumerate(key):
                out.write(f"{piece.piece_id}\t{index}\t{format_chord((intervals, top))}"
                          f"\t{'' if motion is None else motion}\n")
    return 0


def _cmd_mine(args) -> int:
    _distinct_outputs(args.output, args.dump_tokens)
    config = evaluation.PipelineConfig(
        skip=_parse_skip(args.skip, args.n),
        weight=_WEIGHT_CLI[args.weight],
        filter=filters.FilterSpec(_FILTER_CLI[args.filter], args.min_count, args.similarity),
        measure=args.rank,
    )
    query = parse_pattern(args.query) if args.query else None
    if query is not None and len(query) != args.n:
        raise argparse.ArgumentTypeError(f"query has {len(query)} chords but --n is {args.n}")
    loaded = [_load_prepared(args.input)]
    with ExitStack() as files:
        out = files.enter_context(_open_out(args.output))
        dump = args.dump_tokens and files.enter_context(_open_out(args.dump_tokens))
        # Popped into the call, so that run_config frees the corpus once it is encoded.
        ranked, rank = evaluation.run_config(loaded.pop(), config, query, dump or None)
        writer = _csv_writer(out)
        writer.writerow(["rank", "score", "count", "coverage", "type"])
        for entry in ranked.entries:
            writer.writerow([entry.rank, _fmt(entry.score), _fmt(entry.count),
                             entry.coverage, entry.text])
    if query is not None:
        _status(f"query rank: {rank if rank is not None else 'absent'}",
                args.output or "-", args.dump_tokens)
    return 0


GRID_COLUMNS = ["skip_mode", "skip_level", "weight", "filter", "rank_measure",
                "query_rank", "rr"]


def _cmd_grid(args) -> int:
    _distinct_outputs(args.output, args.summary)
    query = parse_pattern(args.query)
    if len(query) != args.n:
        raise argparse.ArgumentTypeError(f"query has {len(query)} chords but --n is {args.n}")
    loaded = [_load_prepared(args.input)]  # popped into run_grid, which frees it once encoded
    with ExitStack() as files:
        out = files.enter_context(_open_out(args.output))
        summary_out = args.summary and files.enter_context(_open_out(args.summary))
        grid = evaluation.run_grid(loaded.pop(), query, args.n, min_count=args.min_count,
                                   similarity=args.similarity, jobs=args.jobs)
        writer = _csv_writer(out)
        writer.writerow(GRID_COLUMNS)
        for row in grid.rows:
            writer.writerow([row.skip_mode, row.skip_level, row.weight, row.filter,
                             row.measure, _fmt(row.query_rank), _fmt(row.rr)])
        if summary_out:
            writer = _csv_writer(summary_out)
            writer.writerow(["stage", "level", "n_configs", "mrr", "delta", "t", "df",
                             "p", "d", "na"])
            for row in evaluation.summarize_grid(grid, args.planned_comparisons):
                stats = [""] * 5 if row.comparison is None else map(_fmt, row.comparison)
                # each rr is 0 or at least 1/#types: mrr is 0 only where all are absent
                writer.writerow([row.stage, row.level, row.n_configs, _fmt(row.mrr),
                                 *stats, "NA" if row.mrr == 0.0 else ""])
    _status(f"wrote {len(grid.rows)} configuration rows to {args.output}",
            args.output, args.summary)
    return 0


def _cmd_synth(args) -> int:
    _distinct_outputs(args.output, args.manifest)
    if not 0.0 < args.ioi_min <= args.ioi_max < math.inf:
        raise argparse.ArgumentTypeError(
            "need 0 < --ioi-min <= --ioi-max, both finite, "
            f"got {args.ioi_min!r} and {args.ioi_max!r}")
    if args.gap_max < args.gap_min:
        raise argparse.ArgumentTypeError(
            f"--gap-max {args.gap_max} is below --gap-min {args.gap_min}")
    plant, exclude = None, []
    if args.pattern:
        pattern = parse_pattern(args.pattern)
        width = len(pattern) + (len(pattern) - 1) * args.gap_max
        segment = args.length // args.per_piece
        if round(args.rate * args.pieces) >= 1 and width > segment:
            raise argparse.ArgumentTypeError(
                f"a planted instance can span {width} slices, more than the {segment}-slice "
                f"segment of --length {args.length} over --per-piece {args.per_piece}")
        gaps = tuple(range(args.gap_min, args.gap_max + 1))
        plant = evaluation.PlantSpec(pattern, gaps, args.rate, args.per_piece)
        exclude = [(c.intervals, c.top) for c in pattern.chords]
    vocabulary = evaluation.default_vocabulary(args.vocab_size, args.seed, exclude)
    with ExitStack() as files:
        # The manifest opens first, so that one it cannot write leaves no corpus file.
        manifest = args.manifest and files.enter_context(_open_out(args.manifest))
        out = files.enter_context(_open_out(args.output))
        corpus, records = evaluation.generate_synthetic_corpus(
            args.pieces, args.length, vocabulary, seed=args.seed, plant=plant,
            ioi_range=(args.ioi_min, args.ioi_max))
        out.write("# synthetic corpus\n")
        for piece in corpus.pieces:
            for n in piece.notes:
                out.write(f"{n.piece_id}\t{n.onset_score}\t{n.duration_score}"
                          f"\t{n.pitch}\t{n.onset_perf!r}\t{n.duration_perf!r}\n")
        if manifest:
            writer = _csv_writer(manifest)
            writer.writerow(["piece_id", "indices", "gaps", "total_gap"])
            for rec in records:
                writer.writerow([rec.piece_id,
                                 " ".join(str(i) for i in rec.indices),
                                 " ".join(str(g) for g in rec.gaps),
                                 rec.total_gap])
    _status(f"wrote {sum(len(p.notes) for p in corpus.pieces)} notes, "
            f"{len(records)} planted instances", args.output, args.manifest)
    return 0


def _grid_rank(text: str | None, line_no: int, source: str) -> int | None:
    """A grid CSV's query_rank: NA (absent) or an integer of at least 1."""
    if text == "NA":
        return None
    rank = int(text) if text and text.isascii() and text.isdigit() else 0
    if rank < 1:
        raise corpus_mod.CorpusParseError(
            f"query_rank must be NA or an integer >= 1, got {text!r}", line_no, source)
    return rank


def _cmd_report(args) -> int:
    reader = csv.DictReader(io.StringIO(corpus_mod.read_text(args.grid), newline=""))
    rows = []
    try:
        missing = [c for c in GRID_COLUMNS[:-1] if c not in (reader.fieldnames or ())]
        if missing:  # rr is not read: it follows from query_rank
            raise corpus_mod.CorpusParseError(
                f"grid CSV lacks column(s) {', '.join(missing)}", 1, args.grid)
        for row in reader:
            rank = _grid_rank(row["query_rank"], reader.line_num, args.grid)
            rows.append(evaluation.ConfigResult(
                row["skip_mode"], row["skip_level"], row["weight"], row["filter"],
                row["rank_measure"], rank))
    except csv.Error as exc:  # a field past csv.field_size_limit(), say
        # at the line read: the DictReader's line_num counts only the rows it returned
        raise corpus_mod.CorpusParseError(str(exc), reader.reader.line_num, args.grid) from None
    grid = evaluation.GridResult("", 0, rows)
    with _open_out(args.output) as out:
        writer = _csv_writer(out)
        writer.writerow(["stage", "level", "n_configs", "mrr", "se_rr"])
        for stage in evaluation.BASELINES:
            for level, rrs in grid.groups(stage).items():
                mean, var = evaluation.mean_var(rrs)
                se = math.sqrt(var / len(rrs))
                writer.writerow([stage, level, len(rrs), _fmt(mean), _fmt(se)])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlgram",
        description="Discover recurrent voice-leading patterns with skip-grams.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--input", required=True, help="note-event file or directory")

    p = sub.add_parser("expand", help="dump expanded slices as TSV")
    add_input(p)
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("encode", help="dump voice-leading encodings as TSV")
    add_input(p)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("mine", help="run one pipeline configuration")
    add_input(p)
    p.add_argument("--skip", default="fixed:0", help="fixed:T or variable:W")
    p.add_argument("--weight", default="count", choices=sorted(_WEIGHT_CLI))
    p.add_argument("--filter", default="none", choices=sorted(_FILTER_CLI))
    p.add_argument("--min-count", type=_at_least(float, 0), default=filters.DEFAULT_MIN_COUNT)
    p.add_argument("--similarity", default="intersect", choices=filters.SIMILARITY_MODES)
    p.add_argument("--rank", default="counts", choices=ranking.MEASURES)
    p.add_argument("--n", type=_at_least(int, 2), default=3)
    p.add_argument("--query", default=None, help="pattern to locate in the list")
    p.add_argument("--output", default=None)
    p.add_argument("--dump-tokens", default=None, help="also dump the token list as TSV")
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("grid", help="run the full configuration grid")
    add_input(p)
    p.add_argument("--query", required=True)
    p.add_argument("--n", type=_at_least(int, 2), default=3)
    p.add_argument("--min-count", type=_at_least(float, 0), default=filters.DEFAULT_MIN_COUNT)
    p.add_argument("--similarity", default="intersect", choices=filters.SIMILARITY_MODES)
    p.add_argument("--output", default="grid.csv")
    p.add_argument("--summary", default=None, help="also write per-level statistics")
    p.add_argument("--planned-comparisons", type=_at_least(int, 1),
                   default=evaluation.DEFAULT_PLANNED_COMPARISONS)
    p.add_argument("--jobs", type=_at_least(int, 1), default=1,
                   help="processes in all, this one included, each walking at most one "
                        "chain of each skip mode's levels, both in one walk")
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("synth", help="generate a seeded synthetic corpus")
    p.add_argument("--pieces", type=_at_least(int, 1), default=20)
    p.add_argument("--length", type=_at_least(int, 1), default=500)
    p.add_argument("--seed", type=_at_least(int, -math.inf), required=True)
    p.add_argument("--vocab-size", type=_at_least(int, 1), default=12)
    p.add_argument("--pattern", default=None, help="pattern to plant")
    p.add_argument("--gap-min", type=_at_least(int, 0), default=1)
    p.add_argument("--gap-max", type=_at_least(int, 0), default=5)
    p.add_argument("--rate", type=_at_least(float, 0, at_most=1), default=0.6)
    p.add_argument("--per-piece", type=_at_least(int, 1), default=6)
    p.add_argument("--ioi-min", type=_at_least(float, 0), default=0.32)
    p.add_argument("--ioi-max", type=_at_least(float, 0), default=0.58)
    p.add_argument("--output", required=True)
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("report", help="per-level MRR plot data from a grid CSV")
    p.add_argument("--grid", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (corpus_mod.CorpusError, PatternSyntaxError,
            evaluation.GenerationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except (ranking.TableInvariantError, ValueError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main(argv=None))
