import ast
import cmath
import math
import random
from pathlib import Path

import pytest

import vlgram
from oracles import mean_resultant_length, w_proximity, weigh_onsets, wrap_phase
from vlgram.weighting import (PROXIMITY_HALF_LIFE_S, RESONANCE_PEAK, WEIGHT_KINDS,
                              resonance_amplitude, weigh_all)


def onsets_from_iois(iois, start=0.0):
    out = [start]
    for ioi in iois:
        out.append(out[-1] + ioi)
    return out


def weight(kind, onsets):
    """weigh_all's ``kind`` weight, checked bit for bit against the scalar oracle's
    and, for count and proximity, against weigh_all's without the period search."""
    index = WEIGHT_KINDS.index(kind)
    value = weigh_all(onsets)[index]
    assert value == weigh_onsets(onsets, kind), onsets
    assert kind not in ("count", "proximity") or weigh_all(onsets, False)[index] == value
    return value


def oracle_circle_map_r(iois, period):
    """Independent phase-concentration oracle.

    Walks the circle map with the wrap convention, then evaluates the mean
    cosine deviation from the circular mean, which equals the resultant
    vector length.
    """
    phases = [0.0]
    for ioi in iois:
        r = (phases[-1] + ioi / period) % 1.0
        if r >= 0.5:
            r -= 1.0
        phases.append(r)
    resultant = sum(cmath.exp(2j * math.pi * p) for p in phases)
    mean_angle = cmath.phase(resultant)
    return sum(math.cos(2 * math.pi * p - mean_angle) for p in phases) / len(phases)


def oracle_periodicity(iois):
    candidates = [p for p in iois if p > 0]
    if not candidates:
        return 1.0
    return min(oracle_circle_map_r(iois, p) for p in candidates)


class TestWrap:
    def test_wrap_interval(self):
        assert wrap_phase(0.3) == pytest.approx(0.3)
        assert wrap_phase(0.75) == pytest.approx(-0.25)
        assert wrap_phase(1.0) == pytest.approx(0.0)
        assert wrap_phase(2.3) == pytest.approx(0.3)

    def test_half_maps_to_negative_half(self):
        assert wrap_phase(0.5) == -0.5
        assert wrap_phase(1.5) == -0.5


class TestCount:
    def test_always_one(self):
        assert weight("count", [0.0, 1.0]) == 1.0
        assert weight("count", [0.0, 0.1, 7.3]) == 1.0

    def test_irregular_tokens_still_count_once(self):
        assert weight("count", [0.0, 0.01, 5.0]) == weight("count", [0.0, 0.5, 1.0]) == 1.0


class TestPeriodicity:
    def test_isochronous_is_one(self):
        for n in (2, 3, 5, 8):
            onsets = [0.7 * i for i in range(n)]
            assert weight("periodicity", onsets) == pytest.approx(1.0)

    def test_any_bigram_is_one(self):
        rng = random.Random(1)
        for _ in range(100):
            onsets = [0.0, rng.uniform(0.01, 5.0)]
            assert weight("periodicity", onsets) == pytest.approx(1.0)

    def test_one_and_one_half_second_case(self):
        # candidate 1.0s leaves phases {0, 0, -0.5}: R = |1 + 1 - 1| / 3
        onsets = onsets_from_iois([1.0, 1.5])
        assert weight("periodicity", onsets) == pytest.approx(1 / 3, abs=1e-9)

    def test_matches_independent_oracle(self):
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randint(2, 6)
            iois = [rng.uniform(0.05, 2.0) for _ in range(n - 1)]
            onsets = onsets_from_iois(iois)
            assert weight("periodicity", onsets) == pytest.approx(oracle_periodicity(iois),
                                                                  abs=1e-9)

    def test_simultaneous_candidates_skipped(self):
        # the zero IOI cannot serve as a period; the 1.0s candidate remains
        onsets = [0.0, 0.0, 1.0]
        assert weight("periodicity", onsets) == pytest.approx(
            oracle_circle_map_r([0.0, 1.0], 1.0), abs=1e-9)

    def test_all_simultaneous_is_one_by_convention(self):
        assert weight("periodicity", [2.0, 2.0, 2.0]) == 1.0


class TestResonance:
    def test_raw_amplitude_at_two_hertz(self):
        # 1/sqrt(1.12 * 4) - 1/sqrt(32)
        assert resonance_amplitude(2.0) == pytest.approx(0.2956788959648971, abs=1e-12)

    def test_squares_by_multiplication(self):
        # at 4.374 Hz, (f0^2 - f^2) ** 2 goes through a pow that rounds it unlike
        # the product on some libms (glibc 2.36 among them); the product is one
        # correctly rounded operation everywhere
        assert resonance_amplitude(4.374) == 0.012032313725815189

    def test_peak_is_normalization_fixed_point(self):
        p_star, a_star = RESONANCE_PEAK
        assert RESONANCE_PEAK == (1.9074850695687173, 0.3026774890769801)  # the search's bits
        onsets = onsets_from_iois([1.0 / p_star, 1.0 / p_star])
        assert weight("resonance", onsets) == pytest.approx(1.0, abs=1e-9)
        # fine grid around the peak never exceeds it
        for p in [p_star + d for d in (-0.2, -0.05, -0.01, 0.01, 0.05, 0.2)]:
            assert resonance_amplitude(p) <= a_star + 1e-12

    def test_half_second_iois(self):
        onsets = onsets_from_iois([0.5, 0.5])
        expected = resonance_amplitude(2.0) / RESONANCE_PEAK[1]
        assert weight("resonance", onsets) == pytest.approx(expected, abs=1e-12)

    def test_vanishing_ioi_limit(self):
        assert resonance_amplitude(100.0) == pytest.approx(0.0, abs=1e-3)
        onsets = onsets_from_iois([0.01, 0.01])
        assert weight("resonance", onsets) < 0.01

    def test_degenerate_token_gets_floor(self):
        assert weight("resonance", [1.0, 1.0, 1.0]) == 0.0

    def test_uses_argmin_candidate_of_periodicity(self):
        # candidates 0.4s and 1.0s; the worse-synchronized one drives resonance
        iois = [0.4, 1.0]
        onsets = onsets_from_iois(iois)
        r04 = oracle_circle_map_r(iois, 0.4)
        r10 = oracle_circle_map_r(iois, 1.0)
        chosen = 0.4 if r04 <= r10 else 1.0
        expected = max(resonance_amplitude(1.0 / chosen), 0.0) / RESONANCE_PEAK[1]
        assert weight("resonance", onsets) == pytest.approx(expected, abs=1e-12)


class TestProximity:
    def test_half_life(self):
        assert weight("proximity", [0.0, 1.0]) == pytest.approx(0.5, abs=1e-12)

    def test_simultaneous_members_maximal(self):
        assert weight("proximity", [3.0, 3.0]) == 1.0

    def test_three_gram_average(self):
        assert weight("proximity", [0.0, 1.0, 3.0]) == pytest.approx(0.375, abs=1e-12)

    def test_strictly_decreasing_in_any_ioi(self):
        base = weight("proximity", [0.0, 1.0, 2.0])
        assert weight("proximity", [0.0, 1.2, 2.2]) < base
        assert weight("proximity", [0.0, 1.0, 2.4]) < base

    def test_custom_half_life(self):
        assert w_proximity([0.0, 2.0], half_life=2.0) == pytest.approx(0.5)
        assert PROXIMITY_HALF_LIFE_S == 1.0


class TestResonantPeriodicity:
    def test_product_at_joint_maximum(self):
        p_star, _ = RESONANCE_PEAK
        onsets = onsets_from_iois([1.0 / p_star] * 3)
        assert weight("resonant_periodicity", onsets) == pytest.approx(1.0, abs=1e-9)

    def test_product_of_factors(self):
        rng = random.Random(23)
        for _ in range(100):
            iois = [rng.uniform(0.05, 2.0) for _ in range(rng.randint(1, 4))]
            onsets = onsets_from_iois(iois)
            product = weight("periodicity", onsets) * weight("resonance", onsets)
            assert weight("resonant_periodicity", onsets) == pytest.approx(product, abs=1e-12)

    def test_never_exceeds_either_factor(self):
        rng = random.Random(29)
        for _ in range(100):
            onsets = onsets_from_iois([rng.uniform(0.05, 3.0) for _ in range(3)])
            w = weight("resonant_periodicity", onsets)
            assert w <= weight("periodicity", onsets) + 1e-12
            assert w <= weight("resonance", onsets) + 1e-12


class TestUnitIntervalAndInvariance:
    def test_all_weights_within_unit_interval(self):
        rng = random.Random(31)
        for _ in range(10000):
            n = rng.randint(2, 5)
            onsets = [0.0]
            for _ in range(n - 1):
                onsets.append(onsets[-1] + rng.choice([0.0, rng.uniform(0.001, 4.0)]))
            for value in weigh_all(onsets):
                assert 0.0 <= value <= 1.0 + 1e-12

    def test_time_shift_invariance(self):
        rng = random.Random(37)
        for _ in range(200):
            onsets = onsets_from_iois([rng.uniform(0.05, 2.0) for _ in range(3)])
            shifted = [o + 13.7 for o in onsets]
            for kind in WEIGHT_KINDS:
                assert weight(kind, onsets) == pytest.approx(weight(kind, shifted), abs=1e-9)

    def test_weigh_all_matches_individual_kinds(self):
        # 2 to 5 members; some IOIs are zero, and some tokens have only zero
        # IOIs. Candidate periods 0.5 and 1.0 tie for the least phase
        # concentration in the first token, so the shorter one must win.
        rng = random.Random(41)
        tokens = [onsets_from_iois([0.25, 0.5, 0.75, 1.0])]
        for case in range(2000):
            members = rng.randint(2, 5)
            if case % 10 == 0:
                iois = [0.0] * (members - 1)
            else:
                iois = [rng.choice([0.0, rng.uniform(0.05, 2.0)]) for _ in range(members - 1)]
            tokens.append(onsets_from_iois(iois, start=rng.uniform(0.0, 50.0)))
        for onsets in tokens:
            combined = weigh_all(onsets)
            singles = tuple(weigh_onsets(onsets, kind) for kind in WEIGHT_KINDS)
            assert combined == singles, onsets

    def test_mean_resultant_length_matches_oracle(self):
        rng = random.Random(43)
        for _ in range(200):
            iois = [rng.uniform(0.05, 2.0) for _ in range(rng.randint(1, 5))]
            p = rng.uniform(0.05, 2.0)
            assert mean_resultant_length(onsets_from_iois(iois), p) == pytest.approx(
                oracle_circle_map_r(iois, p), abs=1e-9)


def test_library_sums_no_floats_with_builtin_sum():
    # From Python 3.12 sum() rounds float sums differently, so the library sums
    # floats with ordered_sum; each built-in sum() left, (file, call), adds integers.
    integer_sums = {("cli.py", "sum((len(p.notes) for p in corpus.pieces))"),
                    ("evaluation.py", "sum(map(tally.__getitem__, KEPT[fkind]))"),
                    ("evaluation.py", "sum(self.gaps)"), ("evaluation.py", "sum(gaps)")}
    calls, names = set(), 0
    for path in Path(vlgram.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names += isinstance(node, ast.Name) and node.id == "sum"
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum":
                calls.add((path.name, ast.unparse(node)))
    assert calls == integer_sums
    assert names == len(integer_sums)  # sum is never passed on uncalled


def library_and_callers():
    """The library's modules, and the parsed files whose uses keep a library
    name alive: the library, a benchmark, an oracle or the acceptance suite.
    __init__.py only re-exports, so its imports keep nothing."""
    lib, root = Path(vlgram.__file__).parent, Path(__file__).parents[1]
    callers = [path for path in lib.glob("*.py") if path.name != "__init__.py"]
    callers += [*root.glob("perfbench/*.py"), *root.glob("bench/*.py"),
                root / "tests" / "oracles.py", root / "tests" / "test_acceptance.py"]
    return lib, [ast.parse(path.read_text(encoding="utf-8")) for path in callers]


def test_every_library_name_has_a_caller():
    # Each function, method, property and class of the library is used, as a
    # name, an attribute or an import, by the library, a benchmark, an oracle
    # or the acceptance suite; a name only other tests reach is dead code.
    lib, callers = library_and_callers()
    defined = {}
    for path in lib.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                defined[node.name] = f"{path.name}:{node.name}"
    used = set()
    for tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    uncalled = sorted(where for name, where in defined.items() if name not in used)
    assert not uncalled, f"uncalled: {', '.join(uncalled)}"


def test_every_library_field_is_read():
    # Each field declared in a class body of the library is read, as an
    # attribute load or as a string constant (getattr through _STAGE_FIELDS),
    # by the library, a benchmark, an oracle or the acceptance suite; a field
    # that only other tests read is dead data.
    lib, callers = library_and_callers()
    declared = []
    for path in lib.glob("*.py"):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(cls, ast.ClassDef):
                declared += [(node.target.id, f"{path.name}:{cls.name}.{node.target.id}")
                             for node in cls.body if isinstance(node, ast.AnnAssign)
                             and isinstance(node.target, ast.Name)]
    read = set()
    for tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    unread = sorted(where for name, where in declared if name not in read)
    assert not unread, f"unread: {', '.join(unread)}"
