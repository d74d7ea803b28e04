import pytest

from harmony_fixtures import HARMONY_CASES
from test_evaluation import tied_corpus
from vlgram.evaluation import PipelineConfig, run_config
from vlgram.filters import FilterSpec, harmony_mask, harmony_pass, keep_masks
from vlgram.ranking import MEASURES, TableBuilder
from vlgram.skipgram import SkipConfig
from vlgram.vlt import parse_pattern

MRDCC = "<5,9*,_>[0]<4,7*,10>[5]<4,_,_>"


def key_of(text):
    return parse_pattern(text).key


def table_with_counts(counts, n=3, n_pieces=1):
    """counts: mapping of pattern text to weighted count."""
    builder = TableBuilder(n, n_pieces, ("count",))
    for text, count in counts.items():
        builder.add("p", key_of(text), (count,))
    return builder.tables[0]


def kept(table, kind, min_count=10.0, similarity="intersect"):
    """The types of ``table`` that filter ``kind`` keeps, by harmony_mask and keep_masks."""
    keys = list(table.joint)
    harmony = harmony_mask(keys, (kind,), similarity)
    mask = keep_masks((kind,), [table.joint[k] for k in keys], min_count, harmony)[kind]
    return {k for k, keep in zip(keys, mask) if keep}


TEXT_A = "<4,7,_>[2]<3,8,_>[5]<5,9,_>"
TEXT_B = "<4,7,_>[2]<3,8,_>[5]<1,_,_>"
TEXT_C = "<2,5,_>[4]<2,6,_>[5]<5,9,_>"


class TestFrequency:
    def test_boundary_inclusive(self):
        table = table_with_counts({TEXT_A: 12.0, TEXT_B: 9.0, TEXT_C: 10.0})
        assert kept(table, "frequency", 10.0) == {key_of(TEXT_A), key_of(TEXT_C)}

    def test_zero_threshold_is_identity(self):
        table = table_with_counts({TEXT_A: 0.25, TEXT_B: 3.0})
        assert kept(table, "frequency", 0.0) == set(table.joint)

    def test_weighted_sum_below_threshold_removed(self):
        table = table_with_counts({TEXT_A: 9.6})
        assert key_of(TEXT_A) not in kept(table, "frequency", 10.0)

    def test_statistics_preserved_for_survivors(self):
        # a filter selects candidates; every survivor keeps its unfiltered score
        corpus = tied_corpus()
        skip = SkipConfig("fixed", 3, t=1)
        for measure in MEASURES:
            unfiltered, _ = run_config(corpus, PipelineConfig(
                skip, "count", FilterSpec("none"), measure))
            scores = {e.key: e.score for e in unfiltered.entries}
            for kind in ("frequency", "harmony", "both"):
                ranked, _ = run_config(corpus, PipelineConfig(
                    skip, "count", FilterSpec(kind, 7.0), measure))
                assert 0 < len(ranked) < len(unfiltered)
                for entry in ranked.entries:
                    assert entry.score == scores[entry.key]


class TestHarmony:
    def test_mrdcc_retained(self):
        assert harmony_pass(key_of(MRDCC))

    def test_literal_repetition_excluded(self):
        assert not harmony_pass(key_of("<4,7,_>[0]<4,7,_>[0]<4,7,_>"))

    def test_bare_bass_member_excluded(self):
        assert not harmony_pass(key_of("<7,_,_>[5]<4,7,_>[2]<_,_,_>"))

    def test_hand_labeled_fixtures(self):
        errors = [(text, want, reason) for text, want, reason in HARMONY_CASES
                  if harmony_pass(key_of(text)) is not want]
        assert errors == []
        assert len(HARMONY_CASES) >= 100

    def test_depends_only_on_type_key(self):
        low = table_with_counts({MRDCC: 0.001})
        high = table_with_counts({MRDCC: 1000.0})
        assert key_of(MRDCC) in kept(low, "harmony")
        assert key_of(MRDCC) in kept(high, "harmony")

    def test_retained_types_change_bass_somewhere(self):
        for text, keep, _ in HARMONY_CASES:
            if keep:
                key = key_of(text)
                assert any(elem[2] not in (None, 0) for elem in key[1:]) or len(key) == 1

    def test_identical_similarity_mode_is_weaker(self):
        # shares two interval classes without being identical: the default
        # intersection reading excludes, the identical reading keeps
        shared = "<4,9,10>[0]<4,7,10>[5]<4,_,_>"
        assert not harmony_pass(key_of(shared))
        assert harmony_pass(key_of(shared), similarity="identical")
        repeated = "<4,7,_>[0]<4,7,_>[5]<4,7,10>"
        assert not harmony_pass(key_of(repeated), similarity="identical")


class TestBoth:
    def test_intersection_of_keep_sets(self):
        # five types; two survive each filter; exactly one survives both
        counts = {
            MRDCC: 12.0,                                   # passes both
            "<4,7,_>[0]<4,7,_>[0]<4,7,_>": 50.0,           # frequency only
            "<4,_,_>[5]<7,_,_>[2]<4,_,_>": 11.0,           # frequency only
            "<1,5,8>[3]<2,7,11>[4]<4,8,11>": 2.0,          # harmony only
            "<_,_,_>[5]<4,7,_>[2]<4,_,_>": 1.0,            # neither
        }
        table = table_with_counts(counts)
        freq_kept = kept(table, "frequency", 10.0)
        harm_kept = kept(table, "harmony")
        both_kept = kept(table, "both", 10.0)
        assert both_kept == freq_kept & harm_kept == {key_of(MRDCC)}

    def test_order_independent(self):
        # the masks do not depend on the order the filter kinds are asked in
        counts = {TEXT_A: 12.0, MRDCC: 5.0, TEXT_B: 20.0, "<4,7,_>[0]<4,7,_>[0]<4,7,_>": 50.0}
        table = table_with_counts(counts)
        keys = list(table.joint)
        weights = list(table.joint.values())
        harmony = harmony_mask(keys, ("both",))
        one_way = keep_masks(("frequency", "harmony", "both"), weights, 10.0, harmony)
        other = keep_masks(("both", "harmony", "frequency"), weights, 10.0, harmony)
        assert one_way == other
        assert one_way["both"] == [f and h for f, h in zip(one_way["frequency"],
                                                          one_way["harmony"])]
        assert {k for k, keep in zip(keys, one_way["both"]) if keep} == \
            {key_of(TEXT_A), key_of(TEXT_B)}

    def test_empty_input(self):
        table = table_with_counts({})
        assert kept(table, "both", 10.0) == set()
        assert keep_masks(("both",), [], 10.0, harmony_mask([], ("both",))) == {"both": []}


class TestSpec:
    def test_keep_masks_dispatch(self):
        table = table_with_counts({MRDCC: 12.0, TEXT_B: 1.0})
        assert kept(table, "none") == set(table.joint)
        assert kept(table, "frequency", 10.0) == {key_of(MRDCC)}
        assert key_of(MRDCC) in kept(table, "harmony")
        assert kept(table, "both", 10.0) == {key_of(MRDCC)}
        assert harmony_mask(list(table.joint), ("none", "frequency")) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            FilterSpec("fancy")
        with pytest.raises(ValueError):
            FilterSpec("frequency", -1.0)
        with pytest.raises(ValueError):
            FilterSpec("harmony", similarity="overlap")
