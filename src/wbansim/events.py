"""Event generation, the readings' stream contract and the sensing schedule.

Emergency traffic arrives as a Poisson stream: each node sees on average
``lam`` events per round, and each event sends one critical packet. Routine
traffic follows a per-kind sensing schedule (blood pressure every 3 hours,
glucose three times a day, ECG weekly, and so on), with one round equal to
one hour by default. Each reading consumes ``reading_draws`` uniforms from
the events stream; its value is never computed.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import SensorKind, bounded


# Largest accepted ``lam``: its CDF table has about 1430 entries, and every
# term of it is finite (lam**k for k <= 20 stays far below the float range).
LAMBDA_MAX = 1000.0


@dataclass(frozen=True)
class EventParams:
    """The ``[events]`` keys."""
    lam: float = bounded(0.1, ge=0, le=LAMBDA_MAX)  # expected events per round per node
    rounds_per_day: int = bounded(24, ge=1)  # scales the periods [schedule] leaves unset


# ---------------------------------------------------------------------------
# Poisson distribution
# ---------------------------------------------------------------------------

def poisson_pmf(lam: float, k: int) -> float:
    """P(X = k) for X ~ Poisson(lam).

    Evaluated in log space for large k so big counts neither overflow nor
    underflow prematurely.
    """
    if lam < 0:
        raise ValueError(f"poisson_pmf requires lambda >= 0, got {lam}")
    if k < 0:
        raise ValueError("k must be a non-negative integer")
    if lam == 0:
        return 1.0 if k == 0 else 0.0
    if k <= 20:
        return math.exp(-lam) * lam**k / math.factorial(k)
    return math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))


@functools.lru_cache(maxsize=128)
def poisson_cdf_table(lam: float) -> np.ndarray:
    """Cumulative probabilities P(X <= k) out to the far tail of Poisson(lam).

    Memoized per ``lam``; the returned array is shared by every caller, so it
    is read-only.
    """
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    k_max = int(math.ceil(lam + 12.0 * math.sqrt(lam) + 50.0))
    pmf = np.array([poisson_pmf(lam, k) for k in range(k_max + 1)])
    table = np.cumsum(pmf)
    table.setflags(write=False)
    return table


def invert_poisson(cdf: np.ndarray, u) -> np.ndarray | int:
    """Map uniform variates in [0, 1) to Poisson counts via CDF inversion."""
    k = np.searchsorted(cdf, u, side="right")
    return np.minimum(k, len(cdf) - 1)


def sample_event_count(lam: float, rng: np.random.Generator) -> int:
    """One Poisson(lam) draw from a single uniform variate."""
    cdf = poisson_cdf_table(lam)
    return int(invert_poisson(cdf, rng.random()))


# ---------------------------------------------------------------------------
# Readings
# ---------------------------------------------------------------------------

def reading_draws(kind: SensorKind) -> int:
    """Uniform variates each reading of ``kind`` consumes from the events
    stream: two for blood pressure (systolic, diastolic), one for every other
    kind, normal or critical alike. No run reads a reading's value, so the
    engine skips these draws without computing one; the count is a contract,
    because it fixes where the next Poisson count falls in the stream and so
    every metrics CSV."""
    return 2 if kind is SensorKind.BLOOD_PRESSURE else 1


# ---------------------------------------------------------------------------
# Sensing schedule
# ---------------------------------------------------------------------------

def default_schedule(rounds_per_day: int) -> dict[SensorKind, int]:
    """Per-kind sensing periods in rounds, one round = one hour by default.

    ECG weekly, blood pressure every 3 hours, glucose and body temperature
    three times a day, insulin daily, EMG / SpO2 / enzyme tests monthly.
    Physician-discretion kinds default to one check per day.
    """
    rpd = rounds_per_day

    def per(days: float) -> int:
        return max(1, round(days * rpd))

    periods = {kind: per(1.0) for kind in SensorKind}
    periods[SensorKind.ECG] = per(7.0)
    periods[SensorKind.BLOOD_PRESSURE] = max(1, round(3.0 * rpd / 24.0))
    periods[SensorKind.GLUCOSE] = per(1.0 / 3.0)
    periods[SensorKind.INSULIN] = per(1.0)
    periods[SensorKind.EMG] = per(30.0)
    periods[SensorKind.TEMPERATURE] = per(1.0 / 3.0)
    periods[SensorKind.SPO2] = per(30.0)
    periods[SensorKind.ENZYME_TEST] = per(30.0)
    return periods


@dataclass(frozen=True)
class SensingSchedule:
    """The ``[schedule]`` keys: the sensing periods set explicitly, in rounds.
    Every other kind takes its ``default_schedule`` period."""
    periods: dict[SensorKind, int] = field(default_factory=dict)

    def resolve(self, rounds_per_day: int) -> dict[SensorKind, int]:
        """Every kind's sensing period at ``rounds_per_day`` rounds a day."""
        return {**default_schedule(rounds_per_day), **self.periods}


def is_scheduled(kind: SensorKind, round_index: int, periods: dict[SensorKind, int]) -> bool:
    """True when a routine reading of ``kind`` is due this round, given every
    kind's period (``SensingSchedule.resolve``).

    Round 0 counts as due for every kind (initial full report).
    """
    if round_index < 0:
        raise ValueError("round index must be >= 0")
    return round_index % periods[kind] == 0
