"""Skip-gram discovery of recurrent voice-leading patterns in symbolic music.

The pipeline: parse a note-event corpus, expand it into vertical slices,
encode slices as voice-leading types, enumerate contiguous or skip n-gram
tokens, weight the counts, filter the aggregated types, rank them with
association measures, and evaluate a query pattern's rank across the full
configuration grid.
"""

from .corpus import (Corpus, CorpusError, CorpusParseError, EmptyCorpusError,
                     NoteEvent, PerformanceDataError, Piece, Slice, expand,
                     parse_corpus, prepare_corpus)
from .evaluation import (GridResult, PipelineConfig, PlantSpec, compare_levels,
                         default_grid, generate_synthetic_corpus, mrr,
                         run_config, run_grid, summarize_grid)
from .filters import FilterSpec, harmony_mask, harmony_pass, keep_masks
from .ranking import (MEASURES, Contingency2x2, RankedList, TypeTable, am_chi2,
                      am_dice, am_g2, am_pmi, am_pmi_coverage, am_pmi_local,
                      build_type_table, g5_split, rank_table)
from .skipgram import (EncodedPiece, SkipConfig, SkipToken, enumerate_contiguous,
                       enumerate_corpus, enumerate_fixed_skip, enumerate_variable_skip)
from .vlt import (PatternSyntaxError, Vlt, VltPattern, chord_of, chord_pitches,
                  format_key, format_pattern, parse_pattern)
from .weighting import (WEIGHT_KINDS, w_count, w_periodicity, w_proximity,
                        w_resonance, w_resonant_periodicity)

__version__ = "0.1.0"
