"""Token count weighting on the unit interval.

Five weighting functions turn each enumerated token into a count value in
[0, 1]. ``count`` is the plain indicator. ``periodicity`` entrains a
circle map to the token's performed inter-onset intervals and scores the
phase concentration (mean resultant vector length), taking the worst
candidate period. ``resonance`` scores how close the selected candidate
period sits to a damped-oscillator response peaked near 2 Hz.
``proximity`` is an exponential memory decay with a one-second half-life.
``resonant_periodicity`` is the product of periodicity and resonance.

Weighted counts accumulate as real-valued sums per type and serve as the
frequencies consumed by the filtering and ranking stages.
"""

from __future__ import annotations

import logging
import math
from typing import Iterable, Sequence

logger = logging.getLogger(__name__)

WEIGHT_KINDS = ("count", "periodicity", "resonance", "proximity", "resonant_periodicity")

RESONANCE_F0_HZ = 2.0      # response peak location parameter, 2 Hz = 0.5 s period
RESONANCE_BETA = 1.12      # damping constant
PROXIMITY_HALF_LIFE_S = 1.0

_TWO_PI = 2.0 * math.pi


def wrap_phase(x: float) -> float:
    """Remainder after division by 1, remapped onto [-0.5, 0.5)."""
    return (x + 0.5) % 1.0 - 0.5


def _iois(onsets: Sequence[float]) -> list[float]:
    return [b - a for a, b in zip(onsets, onsets[1:])]


def mean_resultant_length(onsets: Sequence[float], period: float) -> float:
    """Phase concentration of the onsets against one candidate period."""
    phi = 0.0
    sr, si = 1.0, 0.0
    prev = onsets[0]
    for onset in onsets[1:]:
        phi = wrap_phase(phi + (onset - prev) / period)
        a = _TWO_PI * phi
        sr += math.cos(a)
        si += math.sin(a)
        prev = onset
    return math.sqrt(sr * sr + si * si) / len(onsets)


def _periodicity_detail(onsets: Sequence[float]) -> tuple[float, float | None]:
    """Minimum mean resultant length over candidate periods and its argmin.

    Candidate periods are the token's consecutive performed IOIs; zero
    candidates (simultaneous onsets) are skipped. Ties go to the shorter
    period. When every candidate is zero the token counts as perfectly
    contiguous: weight 1, no usable period.
    """
    candidates = sorted({ioi for ioi in _iois(onsets) if ioi > 0.0})
    if not candidates:
        logger.debug("token with all-zero IOIs treated as perfectly contiguous")
        return 1.0, None
    best_r = math.inf
    best_p = None
    for p in candidates:
        r = mean_resultant_length(onsets, p)
        if r < best_r:
            best_r, best_p = r, p
    return best_r, best_p


def resonance_amplitude(freq_hz: float) -> float:
    """Raw damped-oscillator response at ``freq_hz``, before normalization."""
    f2 = RESONANCE_F0_HZ * RESONANCE_F0_HZ
    p2 = freq_hz * freq_hz
    return (1.0 / math.sqrt((f2 - p2) ** 2 + RESONANCE_BETA * p2)
            - 1.0 / math.sqrt(f2 * f2 + p2 * p2))


_PEAK: tuple[float, float] | None = None


def resonance_peak() -> tuple[float, float]:
    """Frequency and value of the response maximum, located numerically once."""
    global _PEAK
    if _PEAK is None:
        gr = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = 0.01, 10.0
        c, d = b - gr * (b - a), a + gr * (b - a)
        for _ in range(200):
            if resonance_amplitude(c) > resonance_amplitude(d):
                b = d
            else:
                a = c
            c, d = b - gr * (b - a), a + gr * (b - a)
        p = 0.5 * (a + b)
        _PEAK = (p, resonance_amplitude(p))
    return _PEAK


def _resonance_from_period(period: float | None) -> float:
    if period is None:
        logger.debug("degenerate candidate period; resonance clamped to 0")
        return 0.0
    raw = resonance_amplitude(1.0 / period)
    return max(raw, 0.0) / resonance_peak()[1]


def w_count(onsets: Sequence[float]) -> float:
    """Indicator weight: every enumerated token counts exactly once."""
    return 1.0


def w_periodicity(onsets: Sequence[float]) -> float:
    return _periodicity_detail(onsets)[0]


def w_resonance(onsets: Sequence[float]) -> float:
    return _resonance_from_period(_periodicity_detail(onsets)[1])


def w_proximity(onsets: Sequence[float],
                half_life: float = PROXIMITY_HALF_LIFE_S) -> float:
    """Mean exponential decay over the token's IOIs."""
    iois = _iois(onsets)
    return sum(2.0 ** (-ioi / half_life) for ioi in iois) / len(iois)


def w_resonant_periodicity(onsets: Sequence[float]) -> float:
    r, period = _periodicity_detail(onsets)
    return r * _resonance_from_period(period)


_WEIGHERS = {"count": w_count, "periodicity": w_periodicity, "resonance": w_resonance,
             "proximity": w_proximity, "resonant_periodicity": w_resonant_periodicity}


def weigh_onsets(onsets: Sequence[float], kind: str) -> float:
    if kind not in _WEIGHERS:
        raise ValueError(f"unknown weight kind {kind!r}")
    return _WEIGHERS[kind](onsets)


def weigh_all(onsets: Sequence[float]) -> tuple[float, float, float, float, float]:
    """All five weights at once, each equal to weigh_onsets' bit for bit.

    Ordered as WEIGHT_KINDS: count, periodicity, resonance, proximity,
    resonant periodicity. The IOIs are taken once, for the candidate-period
    search and for proximity; wrap_phase, mean_resultant_length and the
    resonance step are inlined with the same float operations in the same
    order.
    """
    iois = _iois(onsets)
    candidates = sorted({ioi for ioi in iois if ioi > 0.0})
    r, period, k = math.inf, None, len(onsets)
    cos, sin = math.cos, math.sin
    if not candidates:
        logger.debug("token with all-zero IOIs treated as perfectly contiguous")
        r = 1.0
    for p in candidates:
        phi, sr, si = 0.0, 1.0, 0.0
        for ioi in iois:
            phi = (phi + ioi / p + 0.5) % 1.0 - 0.5
            a = _TWO_PI * phi
            sr += cos(a)
            si += sin(a)
        rp = math.sqrt(sr * sr + si * si) / k
        if rp < r:
            r, period = rp, p
    res = 0.0
    if period is not None:
        res = max(resonance_amplitude(1.0 / period), 0.0) / resonance_peak()[1]
    proximity = sum(2.0 ** (-ioi / PROXIMITY_HALF_LIFE_S) for ioi in iois) / len(iois)
    return (1.0, r, res, proximity, r * res)


def apply_weights(tokens: Iterable, kind: str) -> list:
    """Set each token's weight in place and return the tokens as a list."""
    out = []
    for tok in tokens:
        tok.weight = weigh_onsets(tok.onsets_perf, kind) if kind != "count" else 1.0
        out.append(tok)
    return out
