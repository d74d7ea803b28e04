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
from .evaluation import (GridResult, PipelineConfig, PlantSpec, default_grid,
                         generate_synthetic_corpus, run_config, run_grid,
                         summarize_grid)
from .filters import FilterSpec, harmony_mask, harmony_pass, keep_masks
from .ranking import MEASURES, RankedList, TypeTable, build_type_table
from .skipgram import (EncodedPiece, SkipConfig, SkipToken, enumerate_contiguous,
                       enumerate_corpus, enumerate_piece)
from .vlt import (PatternSyntaxError, Vlt, VltPattern, chord_of, chord_pitches,
                  format_key, format_pattern, parse_pattern)
from .weighting import WEIGHT_KINDS

__version__ = "0.1.0"
