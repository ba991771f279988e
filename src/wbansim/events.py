"""Event generation, vital-sign criticality and the periodic sensing schedule.

Emergency traffic arrives as a Poisson stream: each node sees on average
``lam`` events per round, and every event is a threshold crossing, so event
readings are drawn from the out-of-band region of the node's vital band.
Routine traffic follows a per-kind sensing schedule (blood pressure every
3 hours, glucose three times a day, ECG weekly, and so on), with one round
equal to one hour by default.
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
# Vital-sign thresholds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VitalBand:
    """Normal band plus the physiological envelope readings are drawn from."""
    lower: float
    upper: float
    env_low: float
    env_high: float
    hard: float | None = None  # hard-critical bound, >= upper when present

    def validate(self, path: str) -> list[str]:
        problems = []
        if not self.lower < self.upper:
            problems.append(f"{path}: lower bound must be < upper bound")
        if self.env_low > self.lower or self.env_high < self.upper:
            problems.append(f"{path}: envelope must contain the band")
        if self.hard is not None and self.hard < self.upper:
            problems.append(f"{path}: hard bound must be >= upper bound")
        return problems


@dataclass(frozen=True)
class PressureBand:
    """Blood pressure is a (systolic, diastolic) pair with high-side cutoffs."""
    systolic: VitalBand
    diastolic: VitalBand
    systolic_high: float = 140.0
    diastolic_high: float = 90.0

    def validate(self, path: str) -> list[str]:
        problems = self.systolic.validate(path + ".systolic")
        problems += self.diastolic.validate(path + ".diastolic")
        if self.systolic_high <= self.systolic.upper:
            problems.append(f"{path}: systolic high cutoff must exceed the normal band")
        if self.diastolic_high <= self.diastolic.upper:
            problems.append(f"{path}: diastolic high cutoff must exceed the normal band")
        # Critical readings are drawn between each high cutoff and its
        # envelope top, so the envelope must reach the cutoff.
        if self.systolic.env_high < self.systolic_high:
            problems.append(f"{path}: systolic envelope must reach the high cutoff")
        if self.diastolic.env_high < self.diastolic_high:
            problems.append(f"{path}: diastolic envelope must reach the high cutoff")
        return problems


def default_bands() -> dict[SensorKind, VitalBand | PressureBand]:
    """Per-kind bands: clinical reference ranges where established ones
    exist, normalized placeholders for the rest. All config-overridable."""
    return {
        SensorKind.ECG: VitalBand(60.0, 100.0, 30.0, 200.0),
        SensorKind.BLOOD_PRESSURE: PressureBand(
            systolic=VitalBand(90.0, 120.0, 70.0, 220.0),
            diastolic=VitalBand(60.0, 80.0, 40.0, 140.0),
        ),
        SensorKind.GLUCOSE: VitalBand(110.0, 125.0, 40.0, 400.0),
        SensorKind.INSULIN: VitalBand(5.0, 25.0, 0.0, 60.0),
        SensorKind.EMG: VitalBand(0.0, 1.0, 0.0, 5.0),
        SensorKind.TEMPERATURE: VitalBand(36.5, 37.5, 30.0, 45.0, hard=40.0),
        SensorKind.SPO2: VitalBand(95.0, 100.0, 70.0, 100.0),
        SensorKind.ENZYME_TEST: VitalBand(10.0, 40.0, 0.0, 200.0),
        SensorKind.RESPIRATION: VitalBand(12.0, 20.0, 4.0, 50.0),
        SensorKind.TOXIN: VitalBand(0.0, 1.0, 0.0, 10.0),
        SensorKind.LACTIC_ACID: VitalBand(0.5, 2.2, 0.0, 15.0),
        SensorKind.TILT: VitalBand(-30.0, 30.0, -90.0, 90.0),
        SensorKind.PH: VitalBand(7.35, 7.45, 6.8, 7.8),
        SensorKind.DNA_PROTEIN: VitalBand(0.0, 1.0, 0.0, 10.0),
        SensorKind.MOTION: VitalBand(0.0, 1.5, 0.0, 8.0),
        SensorKind.PULSE_RATE: VitalBand(60.0, 100.0, 30.0, 200.0),
        SensorKind.HEART_RATE: VitalBand(60.0, 100.0, 30.0, 200.0),
        SensorKind.PRESSURE: VitalBand(5.0, 15.0, 0.0, 80.0),
        SensorKind.POSITIONING: VitalBand(0.0, 1.0, 0.0, 4.0),
    }


@dataclass(frozen=True)
class VitalThresholds:
    bands: dict[SensorKind, VitalBand | PressureBand] = field(default_factory=default_bands)
    glucose_profile: str = "diabetic"  # or "nondiabetic"
    glucose_low_critical: float = 70.0

    def validate(self) -> list[str]:
        problems = []
        for kind, band in self.bands.items():
            problems += band.validate(f"vitals.{kind.value}")
        if self.glucose_profile not in ("diabetic", "nondiabetic"):
            problems.append("vitals.glucose_profile: must be 'diabetic' or 'nondiabetic'")
        return problems


def is_critical(kind: SensorKind, reading, t: VitalThresholds) -> bool:
    """True when a reading falls outside its kind's acceptable band.

    Blood pressure readings are (systolic, diastolic) pairs; either component
    at or above its high cutoff is critical. Glucose follows the patient
    profile: a diabetic profile also flags readings below the hypoglycemia
    bound, a non-diabetic one only flags the high side.
    """
    band = t.bands.get(kind)
    if band is None:
        raise KeyError(f"no vital band configured for {kind.value}")
    if kind is SensorKind.BLOOD_PRESSURE:
        systolic, diastolic = reading
        return systolic >= band.systolic_high or diastolic >= band.diastolic_high
    if kind is SensorKind.GLUCOSE:
        if reading > band.upper:
            return True
        return t.glucose_profile == "diabetic" and reading < t.glucose_low_critical
    return reading < band.lower or reading > band.upper


def reading_draws(kind: SensorKind) -> int:
    """Uniform variates one ``sample_reading`` call takes from its generator:
    two for blood pressure (systolic, diastolic), one for every other kind,
    normal or critical alike."""
    return 2 if kind is SensorKind.BLOOD_PRESSURE else 1


def _critical_region(kind: SensorKind, band: VitalBand,
                     t: VitalThresholds) -> tuple[float, float, float, float]:
    """The out-of-band region of a single-valued kind, clipped to the
    envelope, as two intervals (lo1, width1, lo2, width2); a width may be 0."""
    if kind is SensorKind.GLUCOSE:
        low_hi = math.nextafter(t.glucose_low_critical, -math.inf)
        lo1, hi1 = (band.env_low, low_hi) if t.glucose_profile == "diabetic" else (0.0, 0.0)
    else:
        lo1, hi1 = band.env_low, math.nextafter(band.lower, -math.inf)
    lo2 = math.nextafter(band.upper, math.inf)
    return lo1, max(0.0, hi1 - lo1), lo2, max(0.0, band.env_high - lo2)


def has_critical_region(kind: SensorKind, t: VitalThresholds) -> bool:
    """True when ``sample_reading(kind, True, t, rng)`` has a region to draw
    from; blood pressure always has one."""
    band = t.bands.get(kind)
    if band is None:
        raise KeyError(f"no vital band configured for {kind.value}")
    if kind is SensorKind.BLOOD_PRESSURE:
        return True
    _, w1, _, w2 = _critical_region(kind, band, t)
    return w1 + w2 > 0


def sample_reading(kind: SensorKind, critical_event: bool, t: VitalThresholds,
                   rng: np.random.Generator):
    """Draw a synthetic reading consistent with the requested criticality.

    Normal draws are uniform inside the band; critical draws are uniform over
    the out-of-band region adjacent to the band, clipped to the physiological
    envelope. The result always satisfies
    ``is_critical(kind, result, t) == critical_event``. A call takes exactly
    ``reading_draws(kind)`` uniforms from ``rng``.
    """
    band = t.bands.get(kind)
    if band is None:
        raise KeyError(f"no vital band configured for {kind.value}")

    if kind is SensorKind.BLOOD_PRESSURE:
        sb, db = band.systolic, band.diastolic
        if critical_event:
            systolic = sb.env_high - rng.random() * (sb.env_high - band.systolic_high)
            diastolic = db.env_high - rng.random() * (db.env_high - band.diastolic_high)
        else:
            systolic = sb.lower + rng.random() * (sb.upper - sb.lower)
            diastolic = db.lower + rng.random() * (db.upper - db.lower)
        return (systolic, diastolic)

    if not critical_event:
        return band.lower + rng.random() * (band.upper - band.lower)
    # One uniform draw over the union of the two intervals.
    lo1, w1, lo2, w2 = _critical_region(kind, band, t)
    if w1 + w2 <= 0:
        raise ValueError("no out-of-band region available to sample")
    u = rng.random() * (w1 + w2)
    if u < w1:
        return lo1 + u
    return lo2 + (u - w1)


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
