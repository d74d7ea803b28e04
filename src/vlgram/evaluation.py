"""Configuration-grid evaluation of a query pattern's retrieval rank.

The full grid crosses 13 skip levels (9 fixed budgets, 4 variable
windows), 5 weighting functions, 4 filters, and 7 ranking measures: 1820
configurations. Each configuration yields the query's competition rank
in its final list (or absence), summarized per pipeline level as mean
reciprocal rank and compared against baseline levels with pooled
two-sample t statistics, Bonferroni-adjusted p values, and Cohen's d.

Every command computes its ranks through one chain kernel. The skip
levels of one mode are nested, so a chain of ascending levels, or a
fixed chain and a variable chain together, is walked once, and each
token that some level admits is enumerated, weighed and keyed once and
recorded with its narrowest level in each chain. Every level, the widest
included, is then summed in one ordered pass over the tokens it admits,
with every weighting, so its sums are exactly those of a pass over that
level alone. Each weighting's scores, and each type's filter class (its
frequency and harmony tests, filters.filter_classes), are shared by all
the configurations that differ only in filter or measure. The grid
runs each mode's levels as one chain, or with several jobs as
interleaved chains shared out over the calling process and a pool of the
others, and results are collated in a fixed configuration order
regardless of worker scheduling. The grid ranks only the query: it
neither sums nor scores a level without it, and elsewhere it lists only
the types above the query's scores, scoring chi2 and g2 exactly only
where their bounds leave that open (score_all's ``above``).

A seeded synthetic-corpus generator provides desk-scale corpora with a
query pattern planted at controlled skip distances and tempi, recorded
instance by instance in a manifest.
"""

from __future__ import annotations

import random
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Iterable, Sequence, TextIO

from .corpus import Corpus, NoteEvent, Piece
from .filters import DEFAULT_MIN_COUNT, FILTER_KINDS, KEPT, FilterSpec, filter_classes, harmony_bits
from .ranking import MEASURES, RankedList, TableBuilder, rank_types, score_all
from .skipgram import EncodedPiece, SkipConfig, dump_token, encode_corpus, enumerate_chains
from .vlt import Chord, PatternKey, VltPattern, chord_pitches
from .weighting import WEIGHT_KINDS, ordered_sum, weigh_all

FIXED_SKIPS = (0, 1, 2, 3, 4, 5, 6, 7, 8)
VARIABLE_WINDOWS = (0.5, 1.0, 1.5, 2.0)
DEFAULT_PLANNED_COMPARISONS = 6

BASELINES = {"skip": "fixed:0", "weight": "count", "filter": "none", "rank": "counts"}
_STAGE_FIELDS = dict(skip_mode="skip_mode", weight="weight", filter="filter", rank="measure")
# The (weight, filter kind, measure) configurations of one skip level, in row order:
# the one order of default_grid, _query_ranks and the grid's rows.
LEVEL_CONFIGS = tuple((weight, fkind, measure) for weight in WEIGHT_KINDS
                      for fkind in FILTER_KINDS for measure in MEASURES)


class GenerationError(Exception):
    pass


@dataclass(frozen=True)
class PipelineConfig:
    """One full pipeline setting: skip level, weighting, filter, measure."""

    skip: SkipConfig
    weight: str
    filter: FilterSpec
    measure: str

    def __post_init__(self):
        if self.weight not in WEIGHT_KINDS:
            raise ValueError(f"unknown weight kind {self.weight!r}")
        if self.measure not in MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}")


def default_skip_configs(n: int = 3) -> list[SkipConfig]:
    configs = [SkipConfig("fixed", n, t=t) for t in FIXED_SKIPS]
    configs += [SkipConfig("variable", n, w=w) for w in VARIABLE_WINDOWS]
    return configs


def default_grid(n: int = 3, min_count: float = DEFAULT_MIN_COUNT,
                 similarity: str = "intersect") -> list[PipelineConfig]:
    """The full configuration grid in canonical order (13 * 5 * 4 * 7 = 1820)."""
    return [PipelineConfig(skip, weight, FilterSpec(fkind, min_count, similarity), measure)
            for skip in default_skip_configs(n) for weight, fkind, measure in LEVEL_CONFIGS]


@dataclass(frozen=True)
class ConfigResult:
    skip_mode: str
    skip_level: str
    weight: str
    filter: str
    measure: str
    query_rank: int | None

    @property
    def rr(self) -> float:
        return 0.0 if self.query_rank is None else 1.0 / self.query_rank

    def level(self, stage: str) -> str:
        if stage == "skip":
            return f"{self.skip_mode}:{self.skip_level}"
        if stage not in _STAGE_FIELDS:
            raise ValueError(f"unknown stage {stage!r}")
        return getattr(self, _STAGE_FIELDS[stage])


@dataclass
class GridResult:
    query: str
    n: int
    rows: list[ConfigResult]

    def groups(self, stage: str) -> dict[str, list[float]]:
        """Each level of a stage, in first-seen order, with the reciprocal
        ranks of its configurations in row order."""
        groups: dict[str, list[float]] = {}
        for r in self.rows:
            groups.setdefault(r.level(stage), []).append(r.rr)
        return groups

    def result_for(self, skip_mode: str, skip_level: str, weight: str,
                   fkind: str, measure: str) -> ConfigResult:
        for r in self.rows:
            if (r.skip_mode == skip_mode and r.skip_level == skip_level
                    and r.weight == weight and r.filter == fkind and r.measure == measure):
                return r
        raise KeyError((skip_mode, skip_level, weight, fkind, measure))


def _record(pieces: list[EncodedPiece], chains: Sequence[Sequence[SkipConfig]],
            kinds: Sequence[str], dump: TextIO | None = None) -> TableBuilder:
    """The walk of the chain kernel behind run_grid, run_config and ``vlgram mine``:
    walk ``chains`` (skipgram.enumerate_chains) once over ``pieces`` into a builder.

    Each walked index tuple is recorded with its narrowest level in each
    chain, its type key (EncodedPiece.key) and its weights for ``kinds``,
    weighed every way at once (weigh_all) from the slices' performed
    onsets; no SkipToken is built. A count weight is 1.0, so count alone
    weighs nothing, and only the kinds besides count and proximity need
    weigh_all's period search. ``dump``, when given, receives each token
    as it is enumerated, with its first weight.
    """
    builder = TableBuilder(chains[0][0].n, len(pieces), kinds, len(chains))
    add, picks = builder.add, [WEIGHT_KINDS.index(kind) for kind in kinds]
    ones = (1.0,) * len(WEIGHT_KINDS) if set(kinds) == {"count"} else None
    periods = not set(kinds) <= {"count", "proximity"}
    for piece in pieces:
        pid, key, onsets = piece.piece_id, piece.key, piece.onsets_perf
        for levels, indices in enumerate_chains(piece, chains):
            ws = ones or weigh_all([onsets[i] for i in indices], periods)
            if dump is not None:
                dump_token(piece.token_at(indices), ws[picks[0]], dump)
            add(pid, key(indices), map(ws.__getitem__, picks), levels)
    return builder


def run_config(corpus: Corpus, config: PipelineConfig, query: VltPattern | None = None,
               dump: TextIO | None = None) -> tuple[RankedList, int | None]:
    """Execute one full pipeline configuration and locate the query, if any.

    ``dump``, when given, receives each token of the level with its weight
    (skipgram.dump_token) as it is enumerated.
    """
    if query is not None and len(query) != config.skip.n:
        raise ValueError(
            f"query cardinality {len(query)} does not match n={config.skip.n}")
    kind, measure = config.filter.kind, config.measure
    # Popped into the call, the pieces are freed once recorded.
    encoded = [encode_corpus(corpus)]
    del corpus
    builder = _record(encoded.pop(), ((config.skip,),), (config.weight,), dump)
    tids, [table] = builder.level_tables(0)
    keys, kept = list(map(builder.keys.__getitem__, tids)), KEPT[kind]
    classes = filter_classes(table.counts(tids), config.filter.min_count,
                             harmony_bits(keys, (kind,), config.filter.similarity))
    scores = score_all(table, keys, (measure,), tids)[measure]
    ranked = rank_types(((key, score) for key, score, cls in zip(keys, scores, classes)
                         if cls in kept and score is not None), table, measure)
    return ranked, None if query is None else ranked.rank_of(query.key)


def _query_ranks(builder: TableBuilder, harmony: list[int], chain: int, level: int,
                 qtid: int, min_count: float) -> list[int | None]:
    """The query's rank in each configuration of LEVEL_CONFIGS whose weighting the
    builder sums, in that order, at a level where it occurs: one more than the kept
    types scoring strictly higher, as rank_types assigns it, or None where the query
    is unscored or filtered out. Per weighting, score_all scores the query, then
    returns the positions of the types that score above it, whose filter classes
    are counted once per measure; ``harmony`` is harmony_bits' for the builder's types.
    """
    tids, tables = builder.level_tables(level, chain)
    keys, level_harmony = (list(map(seq.__getitem__, tids)) for seq in (builder.keys, harmony))
    qpos = tids.index(qtid)
    tallies = {}  # (weight, measure) -> the query's class and the classes above it
    for weight, table in zip(builder.kinds, tables):
        classes = filter_classes(table.counts(tids), min_count, level_harmony)
        query = {m: v[0] for m, v in score_all(table, (keys[qpos],), MEASURES, (qtid,)).items()
                 if v[0] is not None}
        for measure, above in score_all(table, keys, tuple(query), tids, above=query).items():
            tallies[weight, measure] = classes[qpos], Counter(map(classes.__getitem__, above))
    # a measure that leaves the query unscored has no tally; no kind keeps class None
    return [1 + sum(map(tally.__getitem__, KEPT[fkind])) if cls in KEPT[fkind] else None
            for weight, fkind, measure in LEVEL_CONFIGS if weight in builder.kinds
            for cls, tally in [tallies.get((weight, measure), (None, None))]]


def _grid_chain(chains: Sequence[tuple[SkipConfig, ...]], pieces: list[EncodedPiece],
                query_key: PatternKey, min_count: float,
                similarity: str) -> dict[SkipConfig, list[ConfigResult]]:
    """All LEVEL_CONFIGS results for each level of each of ``chains``, walked
    together; a level without the query is neither summed nor scored."""
    builder = _record(pieces, chains, WEIGHT_KINDS)
    harmony = harmony_bits(builder.keys, FILTER_KINDS, similarity)
    qtid = builder.ids.get(query_key)
    by_skip = {}
    for c, chain in enumerate(chains):
        reach = len(chain) if qtid is None else builder.narrowest(qtid, c)
        for index, skip in enumerate(chain):
            ranks = (_query_ranks(builder, harmony, c, index, qtid, min_count)
                     if index >= reach else [None] * len(LEVEL_CONFIGS))
            mode, level = skip.label.split(":")
            by_skip[skip] = [ConfigResult(mode, level, *config, rank)
                             for config, rank in zip(LEVEL_CONFIGS, ranks)]
    return by_skip


def _shares(skips: Sequence[SkipConfig], jobs: int) -> list[list[tuple[SkipConfig, ...]]]:
    """The distinct skip levels as ascending chains, dealt out into one share per process.

    Each mode's levels are dealt in turn into ``min(jobs, levels)`` chains,
    and the chains into ``min(jobs, chains)`` shares: at ``jobs=2``, fixed
    {0, 2, 4, 6, 8} with variable {0.5, 1.5}, and {1, 3, 5, 7} with {1, 2}.
    """
    chains = []
    for mode in ("fixed", "variable"):
        levels = sorted({skip for skip in skips if skip.mode == mode},
                        key=lambda skip: skip.bound)
        ways = min(jobs, len(levels))
        chains += [tuple(levels[i::ways]) for i in range(ways)]
    ways = min(jobs, len(chains)) or 1
    return [chains[i::ways] for i in range(ways)]


def run_grid(corpus: Corpus, query: VltPattern, n: int = 3, *,
             min_count: float = DEFAULT_MIN_COUNT, similarity: str = "intersect",
             skip_configs: Sequence[SkipConfig] | None = None,
             jobs: int = 1) -> GridResult:
    """Evaluate the query under every configuration of the grid.

    The skip levels of each mode run as ascending chains through the chain
    kernel, each chain enumerating and weighing its widest level once.
    ``jobs`` counts processes, this one included: the chains are dealt into
    up to ``jobs`` shares, this process runs the first, and a process pool
    of one worker per other share runs the rest. Rows appear in
    ``skip_configs`` order (duplicates included), then LEVEL_CONFIGS order,
    whatever the parallelism, so repeated runs produce identical output.
    """
    if len(query) != n:
        raise ValueError(f"query cardinality {len(query)} does not match n={n}")
    skips = list(skip_configs) if skip_configs is not None else default_skip_configs(n)
    for skip in skips:
        if skip.n != n:
            raise ValueError(f"skip level {skip.label} has n={skip.n}, not n={n}")
    shares, pool = _shares(skips, jobs), nullcontext()
    task = (encode_corpus(corpus), query.key, min_count, similarity)
    del corpus  # the caller's, when popped into the call, is freed once encoded
    if len(shares) > 1:  # only a pool loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(len(shares) - 1)
    # Submitting first forks the workers before this process builds its own
    # tables; leaving the block, on error too, waits for every worker to exit.
    with pool:
        futures = [pool.submit(_grid_chain, share, *task) for share in shares[1:]]
        by_skip = _grid_chain(shares[0], *task)
        for future in futures:
            by_skip.update(future.result())
    rows = [row for skip in skips for row in by_skip[skip]]
    return GridResult(str(query), n, rows)


def mean_var(xs: Sequence[float]) -> tuple[float, float]:
    """Mean and sample variance; the variance of equal values is exactly 0.0."""
    n = len(xs)
    m = ordered_sum(xs) / n
    if n < 2 or min(xs) == max(xs):
        return m, 0.0
    return m, ordered_sum((x - m) * (x - m) for x in xs) / (n - 1)


def pooled_t_test(xs: Sequence[float], ys: Sequence[float],
                  planned_comparisons: int = 1) -> tuple[float | None, int, float | None, float]:
    """Pooled-variance two-sample t statistic, Bonferroni p, and Cohen's d.

    Returns (t, df, p, d); t and p are None when the pooled variance is
    zero. The raw two-sided p is multiplied by the number of planned
    comparisons and capped at 1.
    """
    n1, n2 = len(xs), len(ys)
    if n1 < 2 or n2 < 2:
        raise ValueError("each group needs at least two observations")
    m1, v1 = mean_var(xs)
    m2, v2 = mean_var(ys)
    df = n1 + n2 - 2
    sp2 = ((n1 - 1) * v1 + (n2 - 1) * v2) / df
    if sp2 <= 0.0:
        return None, df, None, 0.0
    sp = sqrt(sp2)
    t = (m1 - m2) / (sp * sqrt(1.0 / n1 + 1.0 / n2))
    from scipy.special import stdtr  # Student t CDF; stdtr(df, -|t|) is the upper tail
    p = min(1.0, 2.0 * float(stdtr(df, -abs(t))) * planned_comparisons)
    d = (m1 - m2) / sp
    return t, df, p, d


@dataclass(frozen=True)
class SummaryRow:
    """A level's MRR and, unless the level is its stage's baseline, its
    ``comparison`` with the baseline: (delta, t, df, p, d), the level's MRR
    minus the baseline's followed by pooled_t_test's tuple."""

    stage: str
    level: str
    n_configs: int
    mrr: float
    comparison: tuple[float, float | None, int, float | None, float] | None


def summarize_grid(grid: GridResult,
                   planned_comparisons: int = DEFAULT_PLANNED_COMPARISONS) -> list[SummaryRow]:
    """Per-level MRR plus the comparison of every level against its baseline.

    Under the stage name ``skip_mode``, only the variable level is listed,
    against the fixed baseline, and only when the grid holds both modes.
    """
    rows = []
    for stage, baseline in (*BASELINES.items(), ("skip_mode", "fixed")):
        groups = grid.groups(stage)
        base = groups.get(baseline, [])
        if stage == "skip_mode":
            groups = {"variable": groups["variable"]} if base and "variable" in groups else {}
        for level, rrs in groups.items():
            mrr, comparison = ordered_sum(rrs) / len(rrs), None
            if level != baseline:  # the t test first: it rejects a missing baseline
                t_test = pooled_t_test(rrs, base, planned_comparisons)
                comparison = (mrr - ordered_sum(base) / len(base), *t_test)
            rows.append(SummaryRow(stage, level, len(rrs), mrr, comparison))
    return rows


# ---------------------------------------------------------------------------
# Synthetic corpora

# Relative odds of each bass motion in semitones (0-11) between noise slices.
MOTION_WEIGHTS = (6.0, 1.0, 3.0, 1.5, 1.0, 4.0, 0.5, 4.0, 1.0, 1.5, 1.0, 1.0)


@dataclass(frozen=True)
class PlantSpec:
    """What to plant: the pattern, per-gap interpolation counts, and density."""

    pattern: VltPattern
    gap_choices: tuple[int, ...] = (1, 2, 3, 4, 5)
    piece_rate: float = 0.6
    per_piece: int = 6

    def __post_init__(self):
        if not self.gap_choices or any(g < 0 for g in self.gap_choices):
            raise ValueError("gap choices must be non-negative")
        if not 0.0 <= self.piece_rate <= 1.0:
            raise ValueError("piece rate must be within [0, 1]")
        if self.per_piece < 1:
            raise ValueError("per_piece must be positive")


@dataclass(frozen=True)
class PlantRecord:
    piece_id: str
    indices: tuple[int, ...]
    gaps: tuple[int, ...]

    @property
    def total_gap(self) -> int:
        return sum(self.gaps)


def default_vocabulary(size: int = 12, seed: int = 0,
                       exclude: Iterable[Chord] = ()) -> list[Chord]:
    """A deterministic set of distinct chord shapes for noise generation."""
    rng = random.Random(seed)
    shapes: list[Chord] = []
    seen = set(exclude)
    guard = 0
    while len(shapes) < size:
        guard += 1
        if guard > 10000:
            raise GenerationError("could not build a vocabulary of the requested size")
        n_ivs = rng.choices((0, 1, 2, 3), weights=(1, 3, 5, 3))[0]
        ivs = tuple(sorted(rng.sample(range(1, 12), n_ivs)))
        top = rng.choice((None,) + ivs) if ivs else None
        shape = (ivs, top)
        if shape in seen:
            continue
        seen.add(shape)
        shapes.append(shape)
    return shapes


def generate_synthetic_corpus(n_pieces: int, piece_len: int,
                              vocabulary: Sequence[Chord], *, seed: int,
                              plant: PlantSpec | None = None,
                              ioi_range: tuple[float, float] = (0.32, 0.58),
                              ) -> tuple[Corpus, list[PlantRecord]]:
    """Generate a seeded homorhythmic corpus with optional planted patterns.

    Noise slices draw chord shapes from the vocabulary (shape i at odds
    1/(i + 1)) over a random-walk bass stepping by MOTION_WEIGHTS' odds. Planted instances realize
    the pattern's chords and bass motions exactly, separated by the drawn
    numbers of interpolated noise chords; the returned manifest records
    every instance. Slices sit on consecutive score beats with seeded
    per-slice performed inter-onset intervals.
    """
    if not vocabulary:
        raise GenerationError("vocabulary must not be empty")
    rng = random.Random(seed)
    shape_weights = [1.0 / (i + 1) for i in range(len(vocabulary))]
    n_planted = round(plant.piece_rate * n_pieces) if plant else 0
    planted_pieces = set(rng.sample(range(n_pieces), n_planted)) if n_planted else set()

    pieces = []
    records: list[PlantRecord] = []
    for pidx in range(n_pieces):
        piece_id = f"synth{pidx:03d}"
        shape_draws = rng.choices(range(len(vocabulary)), weights=shape_weights, k=piece_len)
        motion_draws = rng.choices(range(12), weights=MOTION_WEIGHTS, k=piece_len)
        forced: dict[int, tuple[Chord, int]] = {}
        if plant and pidx in planted_pieces:
            chords = plant.pattern.chords
            seg = piece_len // plant.per_piece
            for inst in range(plant.per_piece):
                gaps = tuple(rng.choice(plant.gap_choices) for _ in range(len(chords) - 1))
                width = len(chords) + sum(gaps)
                if width > seg:
                    raise GenerationError(
                        f"planted width {width} exceeds segment of {seg} slices "
                        f"(piece length {piece_len}, {plant.per_piece} per piece)")
                start = inst * seg + rng.randrange(0, seg - width + 1)
                indices = [start]
                for gap in gaps:
                    indices.append(indices[-1] + 1 + gap)
                bass_pc = rng.randrange(12)
                for chord, idx in zip(chords, indices):
                    if chord.bass_motion is not None:
                        bass_pc = (bass_pc + chord.bass_motion) % 12
                    forced[idx] = ((chord.intervals, chord.top), bass_pc)
                records.append(PlantRecord(piece_id, tuple(indices), gaps))
        iois = [rng.uniform(*ioi_range) for _ in range(piece_len)]
        notes = []
        onset_perf = 0.0
        bass_pc = rng.randrange(12)
        for i in range(piece_len):
            if i in forced:
                shape, bass_pc = forced[i]
            else:
                shape = vocabulary[shape_draws[i]]
                bass_pc = (bass_pc + motion_draws[i]) % 12
            for pitch in chord_pitches(shape, 48 + bass_pc):  # bass from C3 up
                notes.append(NoteEvent(piece_id, Fraction(i), Fraction(1), pitch,
                                       onset_perf, iois[i]))
            onset_perf += iois[i]
        pieces.append(Piece(piece_id, notes))
    return Corpus(pieces), records
