"""Token count weighting on the unit interval.

Five weightings turn each enumerated token into a count value in [0, 1].
``count`` is the plain indicator. ``periodicity`` entrains a circle map
to the token's performed inter-onset intervals and scores the phase
concentration (mean resultant vector length), taking the worst candidate
period. ``resonance`` scores how close the selected candidate period sits
to a damped-oscillator response peaked near 2 Hz. ``proximity`` is an
exponential memory decay with a one-second half-life.
``resonant_periodicity`` is the product of periodicity and resonance.
One function, ``weigh_all``, computes all five for a token; its scalar
oracles, one function per weighting, live with the tests.

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


def ordered_sum(values: Iterable[float]) -> float:
    """The float sum of ``values``, added left to right from 0.0. Unlike the built-in
    sum(), compensated from Python 3.12, it rounds alike on every Python version."""
    total = 0.0
    for value in values:
        total += value
    return total


def _iois(onsets: Sequence[float]) -> list[float]:
    return [b - a for a, b in zip(onsets, onsets[1:])]


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


def weigh_all(onsets: Sequence[float], periods: bool = True) -> tuple[float | None, ...]:
    """A token's five weights, in WEIGHT_KINDS order, from its performed onsets.

    The IOIs are taken once, for proximity and the candidate-period search:
    against each distinct nonzero IOI the IOIs walk the circle map (phases
    wrapped onto [-0.5, 0.5)), the least mean resultant length wins, ties
    going to the shorter period, and resonance is read at that period.
    All-zero IOIs give periodicity 1 and resonance 0. With ``periods``
    false, for a caller that keeps count and proximity only, the search is
    skipped and the other three are None.
    """
    iois = _iois(onsets)
    proximity = ordered_sum(2.0 ** (-ioi / PROXIMITY_HALF_LIFE_S) for ioi in iois) / len(iois)
    if not periods:
        return (1.0, None, None, proximity, None)
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
    return (1.0, r, res, proximity, r * res)


def apply_weights(tokens: Iterable, kind: str) -> list:
    """Set each token's ``kind`` weight in place and return the tokens as a list
    (an adapter over weigh_all, kept for the benchmark's traced mine)."""
    index = WEIGHT_KINDS.index(kind)
    out = []
    for tok in tokens:
        tok.weight = weigh_all(tok.onsets_perf)[index]
        out.append(tok)
    return out
