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

from .core import SensorKind


# Largest accepted ``lam``: its CDF table has about 1430 entries, and every
# term of it is finite (lam**k for k <= 20 stays far below the float range).
LAMBDA_MAX = 1000.0


@dataclass(frozen=True)
class EventParams:
    lam: float = 0.1  # expected events per round per node
    rounds_per_day: int = 24

    def validate(self) -> list[str]:
        problems = []
        if not 0 <= self.lam <= LAMBDA_MAX:  # also rejects inf and nan
            problems.append(f"events.lambda: must be a number in [0, {LAMBDA_MAX:g}]")
        if self.rounds_per_day < 1:
            problems.append("events.rounds_per_day: must be >= 1")
        return problems


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

def default_schedule(rounds_per_day: int = 24) -> dict[SensorKind, int]:
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
    periods: dict[SensorKind, int] = field(default_factory=default_schedule)

    def validate(self) -> list[str]:
        return [
            f"schedule.{kind.value}: period must be >= 1"
            for kind, period in self.periods.items()
            if period < 1
        ]


def is_scheduled(kind: SensorKind, round_index: int, s: SensingSchedule) -> bool:
    """True when a routine reading of ``kind`` is due this round.

    Round 0 counts as due for every kind (initial full report).
    """
    if round_index < 0:
        raise ValueError("round index must be >= 0")
    period = s.periods.get(kind)
    if period is None:
        raise KeyError(f"no sensing period configured for {kind.value}")
    return round_index % period == 0
