"""Configuration-grid evaluation of a query pattern's retrieval rank.

The full grid crosses 13 skip levels (9 fixed budgets, 4 variable
windows), 5 weighting functions, 4 filters, and 7 ranking measures: 1820
configurations. Each configuration yields the query's competition rank
in its final list (or absence), summarized per pipeline level as mean
reciprocal rank and compared against baseline levels with pooled
two-sample t statistics, Bonferroni-adjusted p values, and Cohen's d.

Every command computes its ranks through one chain kernel. The skip
levels of one mode are nested, so a chain of ascending levels is
enumerated, weighed and keyed once, at its widest level, and each token
is recorded with its narrowest level. Every level, the widest included,
is then summed in one ordered pass over the tokens it admits, with every
weighting, so its sums are exactly those of a pass over that level alone.
Each weighting's scores and filter keep-masks are shared by all the
configurations that differ only in filter or measure. The grid runs each
mode's levels as one chain, or with several jobs as interleaved chains
shared out over the calling process and a pool of the others, and
results are collated in a fixed configuration order regardless of worker
scheduling.

A seeded synthetic-corpus generator provides desk-scale corpora with a
query pattern planted at controlled skip distances and tempi, recorded
instance by instance in a manifest.
"""

from __future__ import annotations

import random
from array import array
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Callable, Iterable, Sequence, TextIO

from .corpus import Corpus, NoteEvent, Piece
from .filters import DEFAULT_MIN_COUNT, FILTER_KINDS, FilterSpec, harmony_mask, keep_masks
from .ranking import MEASURES, RankedList, TableBuilder, rank_types, score_all
from .skipgram import EncodedPiece, SkipConfig, dump_token, encode_corpus, enumerate_nested
from .vlt import Chord, PatternKey, VltPattern, chord_pitches
from .weighting import WEIGHT_KINDS, ordered_sum, weigh_all

FIXED_SKIPS = (0, 1, 2, 3, 4, 5, 6, 7, 8)
VARIABLE_WINDOWS = (0.5, 1.0, 1.5, 2.0)
DEFAULT_PLANNED_COMPARISONS = 6

BASELINES = {"skip": "fixed:0", "weight": "count", "filter": "none", "rank": "counts"}
_STAGE_FIELDS = dict(skip_mode="skip_mode", weight="weight", filter="filter", rank="measure")


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
    grid = []
    for skip in default_skip_configs(n):
        for weight in WEIGHT_KINDS:
            for fkind in FILTER_KINDS:
                for measure in MEASURES:
                    grid.append(PipelineConfig(
                        skip, weight, FilterSpec(fkind, min_count, similarity), measure))
    return grid


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

    def group(self, stage: str, level: str) -> list[float]:
        """Reciprocal ranks of every configuration containing the level."""
        return self.groups(stage).get(level, [])

    def levels(self, stage: str) -> list[str]:
        return list(self.groups(stage))

    def result_for(self, skip_mode: str, skip_level: str, weight: str,
                   fkind: str, measure: str) -> ConfigResult:
        for r in self.rows:
            if (r.skip_mode == skip_mode and r.skip_level == skip_level
                    and r.weight == weight and r.filter == fkind and r.measure == measure):
                return r
        raise KeyError((skip_mode, skip_level, weight, fkind, measure))


def mrr(ranks: Iterable["int | None"]) -> float:
    """Mean reciprocal rank; an absent query contributes zero."""
    values = [0.0 if r is None else 1.0 / r for r in ranks]
    return ordered_sum(values) / len(values) if values else 0.0


def _fill_widest(builder: TableBuilder, pieces: list[EncodedPiece],
                 chain: Sequence[SkipConfig], kinds: tuple[str, ...],
                 dump: TextIO | None) -> list[tuple]:
    """Enumerate and weigh the widest level of ``chain``, interning each type in ``builder``.

    Returns, per piece, every token as three columns: its narrowest level,
    its type id and its weights for ``kinds``, token by token. Each token
    is weighed every way at once (weigh_all), and the ``kinds`` are kept.
    A count weight is 1.0, so count alone weighs nothing, and only the
    kinds besides count and proximity need weigh_all's period search.
    """
    add, records = builder.add_id, []
    picks = [WEIGHT_KINDS.index(kind) for kind in kinds]
    ones = (1.0,) * len(WEIGHT_KINDS) if set(kinds) == {"count"} else None
    periods = not set(kinds) <= {"count", "proximity"}
    for piece in pieces:
        pid = piece.piece_id
        levels, tids, flat = array("i"), array("i"), array("d")
        for level, tok in enumerate_nested(piece, chain):
            ws = ones or weigh_all(tok.onsets_perf, periods)
            if dump is not None:
                dump_token(tok, ws[picks[0]], dump)
            levels.append(level)
            tids.append(add(pid, tok.type_key, ()))
            flat.extend(map(ws.__getitem__, picks))
        records.append((levels, tids, flat))
    return records


def _level(pieces: list[EncodedPiece], chain: Sequence[SkipConfig], weights: Sequence[str],
           measures: Sequence[str], filter_kinds: Sequence[str], min_count: float,
           similarity: str, consume: Callable, dump: TextIO | None = None) -> list:
    """The chain kernel behind run_grid, run_config and ``vlgram mine``.

    ``chain`` holds ascending skip levels of one mode (run_config passes
    one). For each level, ``consume(skip, keys, weighted)`` gets the
    level's type keys in first-seen order and, one weighting at a time in
    ``weights`` order, a (table, scores, masks) triple: score_all's scores
    for ``measures`` and keep_masks' masks for ``filter_kinds``, both
    aligned with the keys. Returns what ``consume`` returned, in chain order.

    One builder gives each type of the chain an id and its slots, and
    every level is summed onto those slots in one ordered pass over the
    recorded tokens (TableBuilder.level_tables); a level indexes the
    chain's harmony test by its type ids. ``dump``, when given, receives
    each token as it is enumerated, with its first weight.
    """
    kinds = tuple(weights)
    builder = TableBuilder(chain[0].n, len(pieces), ())  # no weight kinds: it only interns
    records = _fill_widest(builder, pieces, chain, kinds, dump)
    del pieces  # run_config's own encoding, freed before scoring
    harmony = harmony_mask(builder.keys, filter_kinds, similarity)
    results = []
    for index, skip in enumerate(chain):
        tids, tables = builder.level_tables(records, index, kinds)
        level_keys = list(map(builder.keys.__getitem__, tids))
        level_harmony = harmony and list(map(harmony.__getitem__, tids))
        weighted = ((table, score_all(table, level_keys, measures, tids),
                     keep_masks(filter_kinds, table.counts(tids), min_count, level_harmony))
                    for table in tables)
        results.append(consume(skip, level_keys, weighted))
        del tables, weighted  # freed before the next level's sums
    return results


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

    def rank(_skip, keys, weighted):
        table, scores, masks = next(weighted)
        return rank_types(((key, score) for key, score, keep
                           in zip(keys, scores[measure], masks[kind])
                           if keep and score is not None), table, measure)

    # Popped into the call, the pieces are freed by the kernel once enumerated.
    encoded = [encode_corpus(corpus)]
    del corpus
    [ranked] = _level(encoded.pop(), (config.skip,), (config.weight,), (measure,),
                      (kind,), config.filter.min_count, config.filter.similarity, rank, dump)
    return ranked, None if query is None else ranked.rank_of(query.key)


def _query_ranks(scores: list, masks: dict[str, list[bool]],
                 qpos: int | None) -> dict[str, int | None]:
    """The query's competition rank under each filter, or None where it is absent.

    The rank is one more than the number of kept types scoring strictly
    higher, as rank_types assigns it.
    """
    qscore = None if qpos is None else scores[qpos]
    if qscore is None:
        return dict.fromkeys(masks)
    above = [i for i, s in enumerate(scores) if s is not None and s > qscore]
    return {kind: sum(map(mask.__getitem__, above)) + 1 if mask[qpos] else None
            for kind, mask in masks.items()}


def _grid_chain(chains: Sequence[tuple[SkipConfig, ...]], pieces: list[EncodedPiece],
                query_key: PatternKey, min_count: float,
                similarity: str) -> dict[SkipConfig, list[ConfigResult]]:
    """All (weight, filter, measure) results for each level of each of ``chains``."""
    def level_rows(skip, keys, weighted):
        qpos = keys.index(query_key) if query_key in keys else None
        mode, level = skip.label.split(":")
        rows = []
        for wkind, (_table, scores, masks) in zip(WEIGHT_KINDS, weighted):
            ranks = {measure: _query_ranks(scores[measure], masks, qpos)
                     for measure in MEASURES}
            rows += [ConfigResult(mode, level, wkind, fkind, measure, ranks[measure][fkind])
                     for fkind in FILTER_KINDS for measure in MEASURES]
        return rows

    by_skip = {}
    for chain in chains:
        by_skip.update(zip(chain, _level(pieces, chain, WEIGHT_KINDS, MEASURES, FILTER_KINDS,
                                         min_count, similarity, level_rows)))
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
    ``skip_configs`` order (duplicates included), then canonical weight,
    filter and measure order, whatever the parallelism, so repeated runs
    produce identical output.
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


@dataclass(frozen=True)
class LevelComparison:
    level_a: str
    level_b: str
    n_a: int
    n_b: int
    mrr_a: float
    mrr_b: float
    delta: float
    t: float | None
    df: int
    p: float | None
    d: float

    def flipped(self) -> "LevelComparison":
        return LevelComparison(self.level_b, self.level_a, self.n_b, self.n_a,
                               self.mrr_b, self.mrr_a, -self.delta,
                               None if self.t is None else -self.t, self.df,
                               self.p, -self.d)


def mean_var(xs: Sequence[float]) -> tuple[float, float]:
    n = len(xs)
    m = ordered_sum(xs) / n
    if n < 2:
        return m, 0.0
    return m, ordered_sum((x - m) ** 2 for x in xs) / (n - 1)


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


def compare_levels(grid: GridResult, level_a: tuple[str, str], level_b: tuple[str, str],
                   planned_comparisons: int = 1) -> LevelComparison:
    """Compare the reciprocal ranks of two pipeline levels.

    Levels are (stage, label) pairs, e.g. ("skip", "fixed:4") or
    ("skip_mode", "variable"). Swapping the arguments flips the signs of
    the difference, t, and d.
    """
    return _compare(level_a[1], grid.group(*level_a), level_b[1], grid.group(*level_b),
                    planned_comparisons)


def _compare(label_a: str, xs: Sequence[float], label_b: str, ys: Sequence[float],
             planned_comparisons: int) -> LevelComparison:
    t, df, p, d = pooled_t_test(xs, ys, planned_comparisons)
    m1 = ordered_sum(xs) / len(xs)
    m2 = ordered_sum(ys) / len(ys)
    return LevelComparison(label_a, label_b, len(xs), len(ys),
                           m1, m2, m1 - m2, t, df, p, d)


@dataclass(frozen=True)
class SummaryRow:
    stage: str
    level: str
    n_configs: int
    mrr: float
    is_baseline: bool
    comparison: LevelComparison | None
    all_absent: bool


def summarize_grid(grid: GridResult,
                   planned_comparisons: int = DEFAULT_PLANNED_COMPARISONS) -> list[SummaryRow]:
    """Per-level MRR plus the comparison of every level against its baseline.

    Also emits the variable-versus-fixed comparison under the stage name
    ``skip_mode``. Levels whose configurations never retrieve the query
    are flagged as absent.
    """
    rows = []
    for stage in ("skip", "weight", "filter", "rank"):
        baseline = BASELINES[stage]
        groups = grid.groups(stage)
        for level, rrs in groups.items():
            is_base = level == baseline
            comp = None if is_base else _compare(level, rrs, baseline, groups.get(baseline, []),
                                                 planned_comparisons)
            rows.append(SummaryRow(stage, level, len(rrs), ordered_sum(rrs) / len(rrs),
                                   is_base, comp, all(rr == 0.0 for rr in rrs)))
    modes = grid.groups("skip_mode")
    fixed = modes.get("fixed", [])
    var = modes.get("variable", [])
    if fixed and var:
        comp = _compare("variable", var, "fixed", fixed, planned_comparisons)
        rows.append(SummaryRow("skip_mode", "variable", len(var), ordered_sum(var) / len(var),
                               False, comp, all(rr == 0.0 for rr in var)))
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
