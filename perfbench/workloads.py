"""Workload definitions and seeded input generators.

Each workload names its input generator, the ``vlgram`` command it times
and why it was chosen. Inputs are generated from the workload seed and
written to a file before any timing; the program under test only ever
receives that file.

Which end-to-end metric each per-layer metric should move, and where:

- ``corpus.*`` moves ``setup_s`` on mine-poly. On the grid workloads it is
  about 0: those corpora are homorhythmic, no chord has more than three
  interval classes, and every piece has performed times.
- ``skipgram.*``, ``weighting.weigh_s``, ``ranking.aggregate_s`` and
  ``ranking.types*`` (per-token work) move ``command_ref`` mostly on
  grid-shared, less on grid-diverse, and slightly on mine-poly.
- ``ranking.score_s``, ``filters.*`` and ``ranking.query_rank_s`` (per-type
  work: scoring, the harmony filter, and counting the kept types that
  outscore the query) move ``command_ref`` mostly on grid-diverse.
- ``ranking.rank_s``, ``ranking.ranked``, ``vlt.format_s`` and ``cli.*``
  (full-list ranking and output) move ``command_ref`` on mine-poly only.
- ``evaluation.*`` (per-level times of ``run_grid``, the largest level,
  pool efficiency, the summary's t tests) moves ``command_ref`` on
  grid-jobs2.
- ``peak_rss_mb`` moves with token materialisation, most on grid-shared.

A layer that a workload's command never calls is reported as 0 in that
workload's traced run, its times and its counts alike (see ``not_called``):

- grid workloads: ``ranking.rank_s``, ``ranking.ranked``, ``vlt.format_s``,
  ``cli.write_s`` and ``cli.output_bytes``. The grid command ranks only the
  query, formats no type and writes its CSVs inline in the command.
- mine-poly: ``filters.*`` (the filter is ``none``), ``evaluation.*`` (no
  ``run_grid``), and the per-level ``skipgram.tokens.*`` and
  ``ranking.types.*`` of every level but ``fixed-0``.
"""

from __future__ import annotations

import random
from fractions import Fraction

CADENCE = "<5,9*,_>[0]<4,7*,10>[5]<4,_,_>"
DEFAULT_SEED = 0

# The criterion-7 generator: cadence planted at 1..5-chord gaps, 6 instances
# per planted piece, 60% of pieces planted, vocabulary seed 2. The corpus
# seed is SYNTH_SEED_BASE + workload seed, so the default seed reproduces the
# acceptance suite's synth seed 7.
SYNTH_SEED_BASE = 7
VOCABULARY_SEED = 2
PLANT_GAPS = (1, 2, 3, 4, 5)
PLANT_RATE = 0.6
PLANT_PER_PIECE = 6

# Sizes hold one command to a few seconds on a 2-core machine, so that one
# run takes several fresh-process samples. What tells the workloads apart is
# the ratio of types to tokens and which layers take the time, not the size.
# The layer shares in each "why" are self times of the traced run at the
# default seed. grid-diverse has 3 pieces, two of them planted, so that the
# cadence reaches the frequency filter's min count of 10 at the widest
# fixed levels and the frequency and both filters rank it there.
WORKLOADS = {
    "grid-shared": {
        "why": ("grid over a 1-shape noise vocabulary: types repeat (0.16 per token), so "
                "per-token enumerate, weigh and aggregate take about 65% of traced layer time"),
        "input": {"kind": "synth", "vocab_size": 1, "pieces": 3, "length": 100},
        "command": "grid",
        "jobs": 1,
    },
    "grid-diverse": {
        "why": ("grid over the criterion-7 12-shape vocabulary: most tokens are new types "
                "(0.89 per token), so per-type scoring, filtering and query ranking take "
                "over 70% of traced layer time"),
        "input": {"kind": "synth", "vocab_size": 12, "pieces": 3, "length": 80},
        "command": "grid",
        "jobs": 1,
    },
    "grid-jobs2": {
        "why": ("the grid-diverse input with --jobs 2, the only workload that runs "
                "run_grid's process pool over the 13 skip levels"),
        "input": {"kind": "synth", "vocab_size": 12, "pieces": 3, "length": 80},
        "command": "grid",
        "jobs": 2,
    },
    "mine-poly": {
        "why": ("one mine run on a 5-voice polyphonic corpus: the only workload where "
                "parsing, slicing, tempo and chord reduction do real work (over half of "
                "traced layer time)"),
        "input": {"kind": "poly", "pieces": 20, "beats": 200},
        "command": "mine",
        "jobs": 1,
    },
}

# Layers only one command calls; see the module docstring.
MINE_ONLY_LAYERS = ("ranking.rank_s", "ranking.ranked", "vlt.format_s", "cli.write_s",
                    "cli.output_bytes")
GRID_ONLY_PREFIXES = ("filters.", "evaluation.")
MINE_LEVEL = "fixed-0"

MINE_FLAGS = ["--skip", "fixed:0", "--weight", "periodicity", "--filter", "none",
              "--rank", "pmi"]


def synth_seed(seed: int) -> int:
    return SYNTH_SEED_BASE + seed


def not_called(name: str, metric: str) -> bool:
    """Whether a workload's command never calls the layer a per-layer metric measures."""
    if WORKLOADS[name]["command"] == "grid":
        return metric in MINE_ONLY_LAYERS
    if metric.startswith(("skipgram.tokens.", "ranking.types.")):
        return not metric.endswith("." + MINE_LEVEL)
    return metric.startswith(GRID_ONLY_PREFIXES)


def command_argv(name: str, input_path: str, out_dir: str) -> list[str]:
    """The ``vlgram`` arguments a workload runs, writing into ``out_dir``."""
    spec = WORKLOADS[name]
    if spec["command"] == "grid":
        return ["grid", "--input", input_path, "--query", CADENCE,
                "--output", f"{out_dir}/grid.csv", "--summary", f"{out_dir}/summary.csv",
                "--jobs", str(spec["jobs"])]
    return ["mine", "--input", input_path, *MINE_FLAGS, "--query", CADENCE,
            "--output", f"{out_dir}/ranked.csv"]


def output_files(name: str) -> list[str]:
    if WORKLOADS[name]["command"] == "grid":
        return ["grid.csv", "summary.csv"]
    return ["ranked.csv"]


def write_input(name: str, seed: int, path: str) -> None:
    spec = WORKLOADS[name]["input"]
    if spec["kind"] == "synth":
        lines = synth_lines(spec["vocab_size"], spec["pieces"], spec["length"], seed)
    else:
        lines = poly_lines(spec["pieces"], spec["beats"], seed)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(lines)


def synth_lines(vocab_size: int, pieces: int, length: int, seed: int) -> list[str]:
    """The criterion-7 generator's corpus, written as ``vlgram synth`` writes it."""
    from vlgram.evaluation import PlantSpec, default_vocabulary, generate_synthetic_corpus
    from vlgram.vlt import parse_pattern

    pattern = parse_pattern(CADENCE)
    exclude = [(c.intervals, c.top) for c in pattern.chords]
    vocabulary = default_vocabulary(vocab_size, VOCABULARY_SEED, exclude)
    plant = PlantSpec(pattern, PLANT_GAPS, PLANT_RATE, PLANT_PER_PIECE)
    corpus, _records = generate_synthetic_corpus(pieces, length, vocabulary,
                                                 seed=synth_seed(seed), plant=plant)
    lines = ["# synthetic corpus\n"]
    for piece in corpus.pieces:
        for n in piece.notes:
            lines.append(f"{n.piece_id}\t{n.onset_score}\t{n.duration_score}"
                         f"\t{n.pitch}\t{n.onset_perf!r}\t{n.duration_perf!r}\n")
    return lines


# Polyphonic generator ------------------------------------------------------

# (low, high) MIDI range of each voice, bass first; ranges overlap like real
# part writing, and a pitch another voice already sounds at the same onset
# is skipped rather than written twice.
VOICE_RANGES = ((36, 55), (48, 64), (55, 71), (60, 76), (67, 84))
# Rhythm cells in beats with their draw weights. The triplet cells put
# onsets on thirds of a beat, and the dotted cells move a voice off the
# beat until another dotted cell brings it back.
RHYTHM_CELLS = (
    (Fraction(1),), (Fraction(2),), (Fraction(3, 2),), (Fraction(2, 3),),
    (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3),) * 3,
    (Fraction(3, 4), Fraction(1, 4)),
)
RHYTHM_WEIGHTS = (6, 4, 3, 2, 2, 1, 1)
CHROMATIC_RATE = 0.25
MAJOR_SCALE = (0, 2, 4, 5, 7, 9, 11)
SCORE_ONLY_EVERY = 5
DUPLICATE_RATE = 0.002


def poly_lines(pieces: int, beats: int, seed: int) -> list[str]:
    """A seeded polyphonic corpus in the note-event format.

    Five independent voices move by step and leap over a diatonic scale
    with occasional chromatic notes, in rhythm cells that mix duple and
    triplet subdivisions, so slices are dense and some chords carry more
    than three interval classes. Performed times follow a smooth monotone
    tempo curve (a linear change of seconds per beat across the piece).
    Every fifth piece is score-only, and about 0.2% of rows are repeated,
    as an exported file with overlapping tracks would repeat them.
    """
    rng = random.Random(f"poly-{seed}")
    lines = ["# polyphonic corpus\n"]
    for p in range(pieces):
        piece_id = f"poly{p:03d}"
        tonic = rng.randrange(12)
        spb0 = rng.uniform(0.45, 0.7)
        spb1 = spb0 * rng.uniform(0.8, 1.25)
        score_only = p % SCORE_ONLY_EVERY == SCORE_ONLY_EVERY - 1

        def perf(beat: Fraction) -> float:
            b = float(beat)
            return spb0 * b + (spb1 - spb0) * b * b / (2 * beats)

        sounding: set[tuple[Fraction, int]] = set()
        rows = []
        for low, high in VOICE_RANGES:
            pitch = rng.randrange(low, high + 1)
            beat = Fraction(0)
            while beat < beats:
                for dur in rng.choices(RHYTHM_CELLS, RHYTHM_WEIGHTS)[0]:
                    if beat + dur > beats:
                        break
                    pitch = _next_pitch(rng, pitch, low, high, tonic)
                    if (beat, pitch) not in sounding:
                        sounding.add((beat, pitch))
                        rows.append((beat, dur, pitch))
                    beat += dur
                else:
                    continue
                break
        for beat, dur, pitch in rows:
            line = f"{piece_id}\t{beat}\t{dur}\t{pitch}"
            if not score_only:
                onset = perf(beat)
                line += f"\t{onset!r}\t{perf(beat + dur) - onset!r}"
            lines.append(line + "\n")
            if rng.random() < DUPLICATE_RATE:
                lines.append(line + "\n")
    return lines


def _next_pitch(rng: random.Random, pitch: int, low: int, high: int, tonic: int) -> int:
    step = rng.choice((-2, -1, -1, 0, 1, 1, 2, -4, 3, 5))
    candidate = min(max(pitch + step, low), high)
    if rng.random() < CHROMATIC_RATE:
        return candidate
    # Snap to the nearest scale degree, searching outward from the candidate.
    for delta in (0, 1, -1, 2, -2):
        q = candidate + delta
        if low <= q <= high and (q - tonic) % 12 in MAJOR_SCALE:
            return q
    return candidate
