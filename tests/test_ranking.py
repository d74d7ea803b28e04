import math
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import Contingency2x2, am_chi2, am_g2, g5_split, rank_table, score_scalar
from vlgram.ranking import (MEASURES, TableBuilder, TableInvariantError, rank_types, score_all,
                            score_type)
from vlgram.vlt import parse_pattern


def key_of(text):
    return parse_pattern(text).key


def table_from(rows, n, n_pieces=1):
    """Build a table from (piece_id, pattern_text, weight, multiplicity) rows."""
    builder = TableBuilder(n, n_pieces, ("count",))
    for piece_id, text, weight, times in rows:
        for _ in range(times):
            builder.add(piece_id, key_of(text), (weight,))
    return builder.tables[0]


def score(key, table, measure):
    """score_type's score, checked bit for bit against the scalar oracle's."""
    value = score_type(key, table, measure)
    assert value == score_scalar(key, table, measure)
    return value


def bigram_contingency_table(o11, o12, o21, o22):
    """A bigram table realizing the given 2x2 observed cells.

    Four disjoint type shapes fill the cells: the target (A, B), A with a
    different suffix, B with a different prefix, and neither.
    """
    rows = [
        ("p", "<4,7,_>[5]<3,8,_>", 1.0, o11),
        ("p", "<4,7,_>[5]<1,_,_>", 1.0, o12),
        ("p", "<2,5,_>[5]<3,8,_>", 1.0, o21),
        ("p", "<2,5,_>[5]<1,_,_>", 1.0, o22),
    ]
    return table_from(rows, 2), key_of("<4,7,_>[5]<3,8,_>")


def oracle_g2(cells):
    """Independent log-likelihood evaluation via the margin identity."""
    o11, o12, o21, o22 = cells
    n = o11 + o12 + o21 + o22
    margins = [o11 + o12, o21 + o22, o11 + o21, o12 + o22]
    xlogx = lambda v: v * math.log(v) if v > 0 else 0.0
    return 2.0 * (sum(xlogx(o) for o in cells)
                  - sum(xlogx(m) for m in margins) + xlogx(n))


class TestTypeTable:
    def test_single_token(self):
        table = table_from([("p", "<4,7,_>[5]<3,8,_>", 1.0, 1)], 2)
        key = key_of("<4,7,_>[5]<3,8,_>")
        assert table.total == 1.0
        assert table.count(key) == 1.0
        assert table.count(key, 0, 1) == 1.0
        assert table.count(key, 1, 2) == 1.0
        assert table.covered(key) == 1

    def test_coverage_counts_pieces_not_tokens(self):
        builder = TableBuilder(2, 3, ("count",))
        key = key_of("<4,7,_>[5]<3,8,_>")
        builder.add("p1", key, (1.0,))
        builder.add("p1", key, (1.0,))
        builder.add("p2", key, (1.0,))
        table = builder.tables[0]
        assert table.count(key) == 3.0
        assert table.covered(key) == 2
        assert table.covered(key) / table.n_compositions == pytest.approx(2 / 3)

    def test_hand_tally_fixture(self):
        # six token shapes over two pieces, tallied by hand
        rows = [
            ("p1", "<4,7,_>[2]<3,8,_>[5]<5,9,_>", 1.0, 2),
            ("p2", "<4,7,_>[2]<3,8,_>[5]<5,9,_>", 1.0, 1),
            ("p1", "<4,7,_>[2]<3,8,_>[5]<1,_,_>", 1.0, 1),
            ("p1", "<4,7,_>[4]<2,6,_>[5]<5,9,_>", 1.0, 1),
            ("p2", "<2,5,_>[2]<3,8,_>[5]<5,9,_>", 1.0, 1),
        ]
        table = table_from(rows, 3, n_pieces=2)
        t = key_of("<4,7,_>[2]<3,8,_>[5]<5,9,_>")
        assert table.total == 6.0
        assert table.count(t) == 3.0
        assert table.count(t, 0, 1) == 5.0       # first chord <4,7,_>
        assert table.count(t, 1, 2) == 5.0       # [2]<3,8,_> in position 2
        assert table.count(t, 2, 3) == 5.0       # [5]<5,9,_> in position 3
        assert table.count(t, 0, 2) == 4.0       # <4,7,_>[2]<3,8,_> prefix
        assert table.count(t, 1) == 4.0          # [2]<3,8,_>[5]<5,9,_> suffix
        assert table.count(t, 2) == 5.0
        assert table.covered(t) == 2

    def test_weighted_counts_accumulate(self):
        rows = [("p", "<4,7,_>[5]<3,8,_>", 0.25, 2), ("p", "<4,7,_>[5]<3,8,_>", 0.5, 1)]
        table = table_from(rows, 2)
        assert table.count(key_of("<4,7,_>[5]<3,8,_>")) == pytest.approx(1.0)

    def test_wrong_number_of_weights_is_refused(self):
        # the level pass reads each token's weights at a stride of len(kinds)
        builder = TableBuilder(2, 1, ("a", "b"))
        builder.add("p", key_of("<4,7,_>[5]<3,8,_>"), (1.0,))
        with pytest.raises(ValueError, match="'p': 1 weights recorded for 1 tokens of 2"):
            builder.tables

    def test_joint_counts_sum_to_total(self):
        rng = random.Random(5)
        builder = TableBuilder(3, 4, ("count",))
        texts = ["<4,7,_>[2]<3,8,_>[5]<5,9,_>", "<4,7,_>[2]<3,8,_>[5]<1,_,_>",
                 "<2,5,_>[4]<2,6,_>[5]<5,9,_>"]
        for _ in range(200):
            builder.add(f"p{rng.randrange(4)}", key_of(rng.choice(texts)),
                        (rng.uniform(0, 1),))
        table = builder.tables[0]
        assert sum(table.joint.values()) == pytest.approx(table.total)
        for i in range(3):
            marginals = table.span_slots[i, i + 1].values()
            assert sum(map(table.sums.__getitem__, marginals)) == pytest.approx(table.total)


ELEMENTS = [((4, 7), 7, 5), ((3, 8), None, 0), ((), None, 2)]


@st.composite
def grouped_tokens(draw):
    """n, then (piece_id, key, (w1, w2)) tokens grouped by piece, with fractional weights."""
    n = draw(st.integers(2, 4))
    key = st.lists(st.sampled_from(ELEMENTS), min_size=n, max_size=n).map(tuple)
    weight = st.floats(0.0, 4.0, allow_subnormal=False).map(lambda w: w + 0.1)
    token = st.tuples(key, st.tuples(weight, weight))
    pieces = draw(st.lists(st.lists(token, min_size=1, max_size=12), min_size=1, max_size=4))
    return n, [(f"p{p}", k, ws) for p, toks in enumerate(pieces) for k, ws in toks]


class TestSpanTableProperty:
    @settings(max_examples=150, deadline=None)
    @given(grouped_tokens(), st.data())
    def test_parts_equal_left_to_right_sums(self, drawn, data):
        n, chain_tokens = drawn
        narrowest = data.draw(st.lists(st.integers(0, 2), min_size=len(chain_tokens),
                                       max_size=len(chain_tokens)))
        builder = TableBuilder(n, 4, ("a", "b"))
        for (piece_id, key, weights), level in zip(chain_tokens, narrowest):
            builder.add(piece_id, key, weights, (level,))
        spans = ({(i, i + 1) for i in range(n)} | {(0, i) for i in range(1, n)}
                 | {(i, n) for i in range(1, n)})
        keys = {key for _, key, _ in chain_tokens}
        for level in range(3):
            # each level's sums against explicit loops over the tokens it admits
            tokens = [tok for tok, narrow in zip(chain_tokens, narrowest) if narrow <= level]
            for w, table in enumerate(builder.level_tables(level)[1]):
                assert set(table.span_slots) == spans and len(spans) == 3 * n - 4
                total = 0.0
                for _, _, weights in tokens:
                    total += weights[w]
                assert table.total == total
                for (i, j), part in table.span_slots.items():
                    assert set(part) == {key[i:j] for key in keys}
                    for sub, slot in part.items():
                        expected = 0.0
                        for _, key, weights in tokens:
                            if key[i:j] == sub:
                                expected += weights[w]
                        assert table.sums[slot] == expected
                    for key in keys:
                        assert table.count(key, i, j) == table.sums[part[key[i:j]]]
                for key in keys:
                    joint = 0.0
                    for _, k, weights in tokens:
                        if k == key:
                            joint += weights[w]
                    assert table.count(key) == table.count(key, 0, n) == joint
                    assert table.covered(key) == len({p for p, k, _ in tokens if k == key})
                    assert table.count(key, 0, 1) == table.sums[table.slots[table.ids[key]][2]]
                    assert table.count(key, n - 1) == table.count(key, n - 1, n)

    @settings(max_examples=150, deadline=None)
    @given(grouped_tokens())
    def test_keys_in_first_seen_order_and_coverage_shared(self, drawn):
        n, tokens = drawn
        builder = TableBuilder(n, 4, ("a", "b"))
        stored = {}
        for piece_id, key, weights in tokens:
            # add returns the type's index in keys, which holds the first-seen key object
            assert builder.keys[builder.add(piece_id, key, weights)] is stored.setdefault(key, key)
        first_seen = list(dict.fromkeys(key for _, key, _ in tokens))
        records = {}
        for piece_id, key, weights in tokens:
            levels, tids, flat = records.setdefault(piece_id, ([], [], []))
            levels.append(0)
            tids.append(first_seen.index(key))
            flat.extend(weights)
        assert {piece_id: tuple(map(list, columns))
                for piece_id, columns in builder.records.items()} == records
        # run_config and the grid read each level's type keys from builder.keys
        assert list(builder.ids) == builder.keys == first_seen
        for table in builder.tables:
            assert list(table.joint) == first_seen
            for (i, j), part in table.span_slots.items():
                assert list(part) == list(dict.fromkeys(key[i:j] for key in first_seen))
            assert table.covers == builder.tables[0].covers

    @settings(max_examples=150, deadline=None)
    @given(grouped_tokens(), st.data())
    def test_level_tables_equal_a_builder_fed_that_level_alone(self, drawn, data):
        n, tokens = drawn
        narrowest = data.draw(st.lists(st.integers(0, 2), min_size=len(tokens),
                                       max_size=len(tokens)))
        chain = TableBuilder(n, 4, ("a", "b"))
        for (piece_id, key, weights), level in zip(tokens, narrowest):
            chain.add(piece_id, key, weights, (level,))
        assert chain.keys == list(dict.fromkeys(k for _, k, _ in tokens))
        for level in range(3):
            alone = TableBuilder(n, 4, ("a", "b"))
            for (piece_id, key, weights), narrow in zip(tokens, narrowest):
                if narrow <= level:
                    alone.add(piece_id, key, weights)
            tids, tables = chain.level_tables(level)
            assert [chain.keys[tid] for tid in tids] == alone.keys
            for table, want in zip(tables, alone.tables, strict=True):
                assert table.weight_kind == want.weight_kind and table.total == want.total
                assert table.counts(tids) == list(want.joint.values())
                for key in chain.keys:
                    assert table.covered(key) == want.covered(key)
                    for i, j in [(0, n), *want.span_slots]:
                        assert table.count(key, i, j) == want.count(key, i, j)

    @settings(max_examples=100, deadline=None)
    @given(grouped_tokens(), st.data())
    def test_tables_reflect_adds_after_a_read(self, drawn, data):
        n, tokens = drawn
        cut = data.draw(st.integers(0, len(tokens) - 1))
        builder = TableBuilder(n, 4, ("a", "b"))
        for piece_id, key, weights in tokens[:cut]:
            builder.add(piece_id, key, weights)
        early = builder.tables
        assert builder.tables == early
        for piece_id, key, weights in tokens[cut:]:
            builder.add(piece_id, key, weights)
        late = builder.tables
        fresh = TableBuilder(n, 4, ("a", "b"))
        for piece_id, key, weights in tokens:
            fresh.add(piece_id, key, weights)
        assert late == fresh.tables
        assert builder.tables == late

    @settings(max_examples=150, deadline=None)
    @given(grouped_tokens())
    def test_slot_scores_equal_scalar_oracles(self, drawn):
        # score_all reads the slot tuples, score_scalar reads count/covered:
        # bit-equal for every measure, also for a key that is no type but
        # shares its later components with the types. A pattern's first
        # chord has no bass motion, so rank_types can format every key.
        n, drawn_tokens = drawn
        tokens = [(p, ((k[0][0], k[0][1], None),) + k[1:], ws) for p, k, ws in drawn_tokens]
        builder = TableBuilder(n, 4, ("a", "b"))
        for piece_id, key, weights in tokens:
            builder.add(piece_id, key, weights)
        absent = (((1,), None, None),) + tokens[0][1][1:]
        keys = list(builder.ids) + [absent]
        for table in builder.tables:
            arrays = score_all(table, keys)
            for measure in MEASURES:
                for idx, key in enumerate(keys):
                    expected = score_scalar(key, table, measure)
                    got = arrays[measure][idx]
                    assert (got is None) == (expected is None)
                    assert got == expected
                scored = [(k, s) for k, s in zip(keys, arrays[measure]) if s is not None]
                for entry in rank_types(scored, table, measure).entries:
                    assert entry.count == table.count(entry.key)
                    assert entry.coverage == table.covered(entry.key) == len(
                        {p for p, k, _ in tokens if k == entry.key})


class TestPmiFamily:
    def test_independence_gives_zero(self):
        # every cell at its expected value: 20x20 margins over N=100
        table, key = bigram_contingency_table(4, 16, 16, 64)
        assert score(key, table, "pmi") == pytest.approx(0.0, abs=1e-12)
        assert score(key, table, "pmi-local") == pytest.approx(0.0, abs=1e-12)

    def test_pmi_arithmetic(self):
        table, key = bigram_contingency_table(10, 10, 10, 70)
        assert score(key, table, "pmi") == pytest.approx(math.log2(0.1 / 0.04), abs=1e-12)
        assert score(key, table, "pmi") == pytest.approx(1.3219280948873624, abs=1e-9)

    def test_pmi_local_scales_by_probability(self):
        table, key = bigram_contingency_table(10, 10, 10, 70)
        assert score(key, table, "pmi-local") == pytest.approx(0.13219280948873624, abs=1e-9)

    def test_pmi_local_scale_invariance(self):
        small, key = bigram_contingency_table(10, 10, 10, 70)
        large, _ = bigram_contingency_table(20, 20, 20, 140)
        assert score(key, small, "pmi-local") == pytest.approx(score(key, large, "pmi-local"))
        assert score(key, small, "pmi") == pytest.approx(score(key, large, "pmi"))

    def test_rare_type_gets_large_score(self):
        table, key = bigram_contingency_table(1, 0, 0, 9999)
        assert score(key, table, "pmi") > 10

    def test_pmi_coverage_factors(self):
        builder = TableBuilder(2, 4, ("count",))
        key = key_of("<4,7,_>[5]<3,8,_>")
        other = key_of("<2,5,_>[5]<1,_,_>")
        for piece in ("p1", "p2", "p3"):
            builder.add(piece, key, (1.0,))
        builder.add("p4", other, (1.0,))
        table = builder.tables[0]
        assert score(key, table, "pmi-cov") == pytest.approx(0.75 * score(key, table, "pmi"))

    def test_coverage_factor_arithmetic(self):
        builder = TableBuilder(2, 275, ("count",))
        key = key_of("<4,7,_>[5]<3,8,_>")
        for i in range(11):
            builder.add(f"p{i}", key, (1.0,))
        table = builder.tables[0]
        assert table.covered(key) / table.n_compositions == pytest.approx(0.04)

    def test_full_coverage_equals_pmi(self):
        builder = TableBuilder(2, 2, ("count",))
        key = key_of("<4,7,_>[5]<3,8,_>")
        builder.add("p1", key, (1.0,))
        builder.add("p2", key, (1.0,))
        table = builder.tables[0]
        assert score(key, table, "pmi-cov") == pytest.approx(score(key, table, "pmi"))

    def test_identities_on_random_tables(self):
        rng = random.Random(11)
        table, key = bigram_contingency_table(rng.randint(1, 9), rng.randint(0, 9),
                                              rng.randint(0, 9), rng.randint(1, 60))
        pmi = score(key, table, "pmi")
        p_t = table.count(key) / table.total
        assert score(key, table, "pmi-local") == pytest.approx(p_t * pmi)
        assert score(key, table, "pmi-cov") == pytest.approx(
            table.covered(key) / table.n_compositions * pmi)


class TestDice:
    def test_perfect_association(self):
        table, key = bigram_contingency_table(12, 0, 0, 50)
        assert score(key, table, "dice") == pytest.approx(1.0)

    def test_bigram_arithmetic(self):
        table, key = bigram_contingency_table(10, 10, 10, 70)
        assert score(key, table, "dice") == pytest.approx(0.5)

    def test_trigram_arithmetic(self):
        # f=4 with positional marginals 4, 8, 12: dice = 3*4 / 24
        rows = [
            ("p", "<4,7,_>[2]<3,8,_>[5]<5,9,_>", 1.0, 4),
            ("p", "<2,5,_>[2]<3,8,_>[5]<5,9,_>", 1.0, 4),
            ("p", "<1,2,_>[4]<2,6,_>[5]<5,9,_>", 1.0, 4),
            ("p", "<1,3,_>[4]<1,5,_>[7]<2,4,_>", 1.0, 4),
        ]
        table = table_from(rows, 3)
        key = key_of("<4,7,_>[2]<3,8,_>[5]<5,9,_>")
        assert table.count(key, 0, 1) == 4
        assert table.count(key, 1, 2) == 8
        assert table.count(key, 2, 3) == 12
        assert score(key, table, "dice") == pytest.approx(0.5)


class TestContingency:
    def test_bigram_split_reproduces_cells(self):
        table, key = bigram_contingency_table(10, 10, 10, 70)
        cells = g5_split(key, 1, table)
        assert cells.cells() == (10.0, 10.0, 10.0, 70.0)
        assert cells.r1 == 20 and cells.c1 == 20 and cells.total == 100
        assert cells.expected() == (4.0, 16.0, 16.0, 64.0)

    def test_chi2_hand_value(self):
        table, key = bigram_contingency_table(10, 10, 10, 70)
        assert score(key, table, "chi2") == pytest.approx(14.0625, abs=1e-9)

    def test_chi2_zero_on_independence(self):
        table, key = bigram_contingency_table(4, 16, 16, 64)
        assert score(key, table, "chi2") == pytest.approx(0.0, abs=1e-9)

    def test_g2_matches_independent_oracle(self):
        table, key = bigram_contingency_table(10, 10, 10, 70)
        assert score(key, table, "g2") == pytest.approx(
            oracle_g2((10.0, 10.0, 10.0, 70.0)), abs=1e-9)

    def test_g2_empty_cell_term_skipped(self):
        table, key = bigram_contingency_table(10, 0, 10, 70)
        value = score(key, table, "g2")
        assert math.isfinite(value)
        assert value == pytest.approx(oracle_g2((10.0, 0.0, 10.0, 70.0)), abs=1e-9)

    def test_degenerate_full_table(self):
        table, key = bigram_contingency_table(5, 0, 0, 0)
        cells = g5_split(key, 1, table)
        assert cells.cells() == (5.0, 0.0, 0.0, 0.0)
        assert score(key, table, "chi2") == pytest.approx(0.0)

    def test_trigram_splits_match_hand_tables(self):
        rows = [
            ("p", "<4,7,_>[2]<3,8,_>[5]<5,9,_>", 1.0, 3),
            ("p", "<4,7,_>[2]<3,8,_>[5]<1,_,_>", 1.0, 1),
            ("p", "<4,7,_>[4]<2,6,_>[5]<5,9,_>", 1.0, 1),
            ("p", "<2,5,_>[2]<3,8,_>[5]<5,9,_>", 1.0, 1),
            ("p", "<2,5,_>[4]<2,6,_>[5]<1,_,_>", 1.0, 2),
        ]
        table = table_from(rows, 3)
        t = key_of("<4,7,_>[2]<3,8,_>[5]<5,9,_>")
        first = g5_split(t, 1, table)
        assert first.cells() == (3.0, 2.0, 1.0, 2.0)
        second = g5_split(t, 2, table)
        assert second.cells() == (3.0, 1.0, 2.0, 2.0)
        # mean of the two hand-computed statistics
        assert score(t, table, "chi2") == pytest.approx((8 / 15 + 8 / 15) / 2, abs=1e-9)
        expected_g2 = (oracle_g2(first.cells()) + oracle_g2(second.cells())) / 2
        assert score(t, table, "g2") == pytest.approx(expected_g2, abs=1e-9)

    def test_trigram_is_average_of_split_statistics(self):
        rng = random.Random(19)
        texts = ["<4,7,_>[2]<3,8,_>[5]<5,9,_>", "<4,7,_>[2]<3,8,_>[5]<1,_,_>",
                 "<2,5,_>[4]<2,6,_>[5]<5,9,_>", "<2,5,_>[2]<3,8,_>[7]<2,4,_>"]
        builder = TableBuilder(3, 1, ("count",))
        for _ in range(120):
            builder.add("p", key_of(rng.choice(texts)), (1.0,))
        table = builder.tables[0]
        t = key_of(texts[0])
        per_split = [g5_split(t, i, table) for i in (1, 2)]
        assert score(t, table, "chi2") == pytest.approx(
            sum(c.chi2() for c in per_split) / 2)
        assert score(t, table, "g2") == pytest.approx(sum(c.g2() for c in per_split) / 2)

    def test_split_bounds_checked(self):
        table, key = bigram_contingency_table(1, 1, 1, 1)
        with pytest.raises(ValueError):
            g5_split(key, 0, table)
        with pytest.raises(ValueError):
            g5_split(key, 2, table)

    def test_margins_consistent_on_random_fixtures(self):
        rng = random.Random(23)
        chords = ["<4,7,_>", "<3,8,_>", "<5,9,_>", "<1,_,_>", "<2,6,_>"]
        for trial in range(20):
            builder = TableBuilder(3, 3, ("count",))
            for _ in range(150):
                text = (f"{rng.choice(chords)}[{rng.randrange(12)}]"
                        f"{rng.choice(chords)}[{rng.randrange(12)}]{rng.choice(chords)}")
                builder.add(f"p{rng.randrange(3)}", key_of(text), (rng.uniform(0.1, 1.0),))
            table = builder.tables[0]
            for key in table.joint:
                for i in (1, 2):
                    cells = g5_split(key, i, table)
                    assert all(c >= 0 for c in cells.cells())
                    assert cells.total == pytest.approx(table.total)
                    assert cells.r1 == pytest.approx(table.count(key, 0, i))
                    assert cells.c1 == pytest.approx(table.count(key, i))

    def test_inconsistent_cell_detected(self):
        with pytest.raises(TableInvariantError):
            Contingency2x2(1.0, -2.0, 0.0, 1.0)
        # constructing directly does not validate; the split path does
        table, key = bigram_contingency_table(10, 10, 10, 70)
        table.sums[table.slots[table.ids[key]][1]] = 1000.0  # the joint count
        with pytest.raises(TableInvariantError):
            g5_split(key, 1, table)
        for measures in (MEASURES, ("chi2",), ("g2",)):
            with pytest.raises(TableInvariantError):
                score_all(table, [key], measures)

    def test_tolerated_negative_cell_clamps_to_zero(self):
        # the neither-cell is 30 - 20 - 20 + 10 = 0; shrinking N by 1e-8
        # makes it slightly negative, inside the 1e-9 * N tolerance
        table, key = bigram_contingency_table(10, 10, 10, 0)
        table.sums[0] -= 1e-8  # the total
        assert table.total - 20.0 - 20.0 + 10.0 < 0.0
        assert g5_split(key, 1, table).cells() == (10.0, 10.0, 10.0, 0.0)
        arrays = score_all(table, [key])
        assert arrays["chi2"][0] == am_chi2(key, table) == Contingency2x2(
            10.0, 10.0, 10.0, 0.0).chi2()
        assert arrays["g2"][0] == am_g2(key, table) == Contingency2x2(
            10.0, 10.0, 10.0, 0.0).g2()


class TestRanking:
    def test_competition_ranks_with_ties(self):
        table, _ = bigram_contingency_table(1, 1, 1, 1)
        scored = [(key_of("<4,7,_>[5]<3,8,_>"), 3.0),
                  (key_of("<2,5,_>[5]<1,_,_>"), 3.0),
                  (key_of("<4,7,_>[5]<1,_,_>"), 1.0)]
        ranked = rank_types(scored, table, "counts")
        assert [e.rank for e in ranked.entries] == [1, 1, 3]

    def test_counts_measure_orders_by_weighted_count(self):
        table, key = bigram_contingency_table(10, 5, 3, 2)
        ranked = rank_table(table, "counts")
        assert ranked.entries[0].key == key
        assert ranked.rank_of(key) == 1

    def test_input_permutation_irrelevant(self):
        table, _ = bigram_contingency_table(6, 3, 2, 9)
        for measure in MEASURES:
            ranked = rank_table(table, measure)
            again = rank_table(table, measure)
            assert [e.key for e in ranked.entries] == [e.key for e in again.entries]

    def test_generator_and_list_give_the_same_entries(self):
        # a stream read once equals the list; ties share a rank, and the
        # rank of a key that is listed, tied or absent is found
        table, _ = bigram_contingency_table(4, 3, 2, 1)
        texts = ["<4,7,_>[5]<3,8,_>", "<2,5,_>[5]<1,_,_>", "<4,7,_>[5]<1,_,_>",
                 "<1,3,_>[5]<1,_,_>", "<3,_,_>[0]<3,_,_>"]
        scores = [2.0, 3.0, 2.0, -1.5, 2.0]
        scored = [(key_of(t), s) for t, s in zip(texts, scores)]
        ranked = rank_types(scored, table, "pmi")
        streamed = rank_types((pair for pair in scored), table, "pmi")
        assert streamed == ranked
        assert [(e.rank, e.text) for e in ranked.entries] == [
            (1, "<2,5,_>[5]<1,_,_>"), (2, "<3,_,_>[0]<3,_,_>"), (2, "<4,7,_>[5]<1,_,_>"),
            (2, "<4,7,_>[5]<3,8,_>"), (5, "<1,3,_>[5]<1,_,_>")]
        assert ranked.rank_of(key_of("<2,5,_>[5]<1,_,_>")) == 1
        assert ranked.rank_of(key_of("<4,7,_>[5]<3,8,_>")) == 2
        assert ranked.rank_of(key_of("<1,3,_>[5]<1,_,_>")) == 5
        assert ranked.rank_of(key_of("<4,_,_>[5]<4,_,_>")) is None
        assert all(e.count == table.count(e.key) for e in ranked.entries)
        assert not hasattr(ranked.entries[0], "__dict__")

    def test_ties_break_by_canonical_text(self):
        table, _ = bigram_contingency_table(1, 1, 1, 1)
        scored = [(key_of("<2,5,_>[5]<1,_,_>"), 2.0),
                  (key_of("<1,3,_>[5]<1,_,_>"), 2.0)]
        ranked = rank_types(scored, table, "counts")
        assert [e.text[:6] for e in ranked.entries] == ["<1,3,_", "<2,5,_"]

    def test_score_all_matches_score_type(self):
        # bit-exact against the scalar oracles for n = 2, 3, 4 and two
        # fractional weightings; "b" weighs some tokens 0, and one key is
        # absent, so both unscored paths give None
        rng = random.Random(29)
        chords = ["<4,7,_>", "<3,8,_>", "<5,9,_>", "<1,_,_>"]
        for n in (2, 3, 4):
            builder = TableBuilder(n, 2, ("a", "b"))
            for _ in range(100):
                text = rng.choice(chords) + "".join(
                    f"[{rng.randrange(3)}]{rng.choice(chords)}" for _ in range(n - 1))
                zero_b = text.startswith("<1,_,_>")
                builder.add(f"p{rng.randrange(2)}", key_of(text),
                            (rng.uniform(0.1, 1.0), 0.0 if zero_b else rng.uniform(0.0, 3.0)))
            assert 0.0 in builder.tables[1].joint.values()
            absent = key_of("<2,6,_>" + "[11]<2,6,_>" * (n - 1))
            for table in builder.tables:
                keys = list(table.joint) + [absent]
                arrays = score_all(table, keys)
                for measure in MEASURES:
                    for idx, key in enumerate(keys):
                        expected = score_scalar(key, table, measure)
                        got = arrays[measure][idx]
                        assert (got is None) == (expected is None)
                        assert got == expected

    def test_rank_order_invariant_under_weight_scaling(self):
        rng = random.Random(31)
        chords = ["<4,7,_>", "<3,8,_>", "<5,9,_>", "<1,_,_>"]
        rows = []
        for _ in range(80):
            text = (f"{rng.choice(chords)}[{rng.randrange(3)}]"
                    f"{rng.choice(chords)}[{rng.randrange(3)}]{rng.choice(chords)}")
            rows.append(("p", text, rng.uniform(0.1, 1.0), 1))
        base = table_from(rows, 3)
        scaled = table_from([(p, t, w * 3.5, times) for p, t, w, times in rows], 3)
        for measure in MEASURES:
            order_a = [e.key for e in rank_table(base, measure).entries]
            order_b = [e.key for e in rank_table(scaled, measure).entries]
            assert order_a == order_b

    def test_independent_corpus_sanity(self):
        # elements drawn independently per position: association scores sit
        # near their null values
        rng = random.Random(37)
        chords = ["<4,7,_>", "<3,8,_>", "<5,9,_>", "<2,6,_>"]
        builder = TableBuilder(2, 1, ("count",))
        for _ in range(5000):
            text = f"{rng.choice(chords)}[{rng.randrange(2)}]{rng.choice(chords)}"
            builder.add("p", key_of(text), (1.0,))
        table = builder.tables[0]
        keys = list(table.joint)
        chi2s = [score(k, table, "chi2") for k in keys]
        pmis = [score(k, table, "pmi") for k in keys]
        g2s = [score(k, table, "g2") for k in keys]
        assert statistics.median(chi2s) < 2.0
        assert statistics.median(g2s) < 2.0
        assert abs(statistics.median(pmis)) < 0.2
