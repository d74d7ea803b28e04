import pytest

from harmony_fixtures import HARMONY_CASES
from test_evaluation import tied_corpus
from vlgram.evaluation import PipelineConfig, run_config
from vlgram import filters
from vlgram.filters import (FILTER_KINDS, KEPT, FilterSpec, filter_classes, harmony_bits,
                            harmony_pass)
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
    """The types of ``table`` that filter ``kind`` keeps, by their filter classes."""
    keys = list(table.joint)
    classes = filter_classes(table.joint.values(), min_count,
                             harmony_bits(keys, (kind,), similarity))
    return {k for k, cls in zip(keys, classes) if cls in KEPT[kind]}


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
                assert 0 < len(ranked.entries) < len(unfiltered.entries)
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
        # a type's filter class does not depend on which kinds ask for it, or their order
        counts = {TEXT_A: 12.0, MRDCC: 5.0, TEXT_B: 20.0, "<4,7,_>[0]<4,7,_>[0]<4,7,_>": 50.0}
        table = table_with_counts(counts)
        keys = list(table.joint)
        classes = [filter_classes(table.joint.values(), 10.0, harmony_bits(keys, kinds))
                   for kinds in (("frequency", "harmony", "both"), ("both", "harmony", "frequency"),
                                 ("harmony",), ("both",))]
        assert all(other == classes[0] for other in classes)
        assert {k for k, cls in zip(keys, classes[0]) if cls in KEPT["both"]} == \
            {key_of(TEXT_A), key_of(TEXT_B)}

    def test_empty_input(self):
        table = table_with_counts({})
        assert kept(table, "both", 10.0) == set()
        assert filter_classes([], 10.0, harmony_bits([], ("both",))) == []


# One type for each (frequent, harmonic) outcome at a threshold of 10, and the
# outcomes each kind keeps: frequency a weighted count of at least the
# threshold, harmony a type passing the harmony criteria, both the two.
OUTCOMES = {MRDCC: (12.0, True, True), "<1,5,8>[3]<2,7,11>[4]<4,8,11>": (2.0, False, True),
            "<4,7,_>[0]<4,7,_>[0]<4,7,_>": (50.0, True, False),
            "<_,_,_>[5]<4,7,_>[2]<4,_,_>": (10.0 - 1e-9, False, False)}
KEEPS = {"none": {(False, False), (False, True), (True, False), (True, True)},
         "frequency": {(True, False), (True, True)},
         "harmony": {(False, True), (True, True)},
         "both": {(True, True)}}


class TestSpec:
    def test_each_kind_keeps_the_outcomes_it_tests(self):
        table = table_with_counts({text: count for text, (count, _f, _h) in OUTCOMES.items()})
        for text, (count, frequent, harmonic) in OUTCOMES.items():
            assert (count >= 10.0, harmony_pass(key_of(text))) == (frequent, harmonic)
        assert list(KEEPS) == list(FILTER_KINDS)
        for kind, outcomes in KEEPS.items():
            assert kept(table, kind, 10.0) == {key_of(text) for text, (_c, *outcome)
                                               in OUTCOMES.items() if tuple(outcome) in outcomes}

    def test_harmony_runs_only_for_a_kind_that_tests_it(self, monkeypatch):
        keys = [key_of(MRDCC), key_of(TEXT_B)]
        assert harmony_bits(keys, FILTER_KINDS) == [filters.HARMONIC] * 2

        def refuse(*_args):
            raise AssertionError("harmony_pass ran")

        monkeypatch.setattr(filters, "harmony_pass", refuse)
        assert harmony_bits(keys, ("none", "frequency")) == [0, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            FilterSpec("fancy")
        with pytest.raises(ValueError):
            FilterSpec("frequency", -1.0)
        with pytest.raises(ValueError):
            FilterSpec("harmony", similarity="overlap")
