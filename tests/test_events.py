import math
from dataclasses import replace

import numpy as np
import pytest
from recording import walk_recorded
from test_config import violations

from wbansim.config import SimConfig
from wbansim.core import ALL_KINDS, SensorKind
from wbansim.events import (LAMBDA_MAX, EventParams, SensingSchedule, default_schedule,
                            invert_poisson, poisson_cdf_table, poisson_pmf, reading_draws)


def rng(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def event_counts(lam, g, n):
    """``n`` Poisson(lam) counts drawn as the engine draws them: one block
    of uniforms inverted through the CDF table."""
    return invert_poisson(poisson_cdf_table(lam), g.random(n))


class TestPoissonPmf:
    @pytest.mark.parametrize("lam", [0.1, 1.0, 4.0])
    def test_k_zero_is_exp_minus_lambda(self, lam):
        assert poisson_pmf(lam, 0) == pytest.approx(math.exp(-lam), rel=1e-12)

    def test_hand_derived_lambda2_k3(self):
        # 8 * e^-2 / 6 per calculator
        assert poisson_pmf(2.0, 3) == pytest.approx(0.1804470443, abs=1e-9)

    def test_sums_to_one_lambda1(self):
        total = sum(poisson_pmf(1.0, k) for k in range(51))
        assert abs(total - 1.0) < 1e-12

    @pytest.mark.parametrize("lam", [0.5, 1.0, 5.0, 10.0])
    def test_normalization(self, lam):
        k_max = math.ceil(lam + 12 * math.sqrt(lam) + 50)
        total = sum(poisson_pmf(lam, k) for k in range(k_max + 1))
        assert 1.0 - 1e-9 <= total <= 1.0 + 1e-12

    def test_large_k_stays_finite_in_log_space(self):
        v = poisson_pmf(5.0, 200)
        assert 0.0 <= v < 1e-200

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            poisson_pmf(-0.1, 0)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="k must be a non-negative integer"):
            poisson_pmf(1.0, -1)

    def test_values_are_probabilities(self):
        for k in range(30):
            assert 0.0 <= poisson_pmf(3.0, k) <= 1.0


class TestPoissonCdfTable:
    def test_matches_cumulative_pmf(self):
        table = poisson_cdf_table(1.5)
        expected = np.cumsum([poisson_pmf(1.5, k) for k in range(len(table))])
        assert np.array_equal(table, expected)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            poisson_cdf_table(-1.0)


class TestSampleEventCount:
    def test_lambda_zero_always_zero(self):
        assert not event_counts(0.0, rng(1), 100).any()

    def test_same_seed_same_sequence(self):
        a = event_counts(2.0, rng(9), 1)
        s1 = event_counts(2.0, rng(9), 200)
        s2 = event_counts(2.0, rng(9), 200)
        assert np.array_equal(s1, s2)
        assert s1[0] == a[0]

    def test_empirical_mean_lambda4(self):
        draws = event_counts(4.0, rng(42), 10**5)
        assert abs(np.mean(draws) - 4.0) < 0.05

    def test_empirical_variance_lambda4(self):
        draws = event_counts(4.0, rng(43), 10**5)
        assert abs(np.var(draws) - 4.0) / 4.0 < 0.03


def due_flags(rounds, rounds_per_day):
    """Per node of a default run (node i senses ``ALL_KINDS[i]``), the
    engine's due flag in every round, and that node's period."""
    base = SimConfig()
    c = replace(base, rounds=rounds,
                events=replace(base.events, rounds_per_day=rounds_per_day))
    periods = c.schedule.resolve(rounds_per_day)
    due = {}
    for _, node, _, flag in walk_recorded(c).traffic:
        due.setdefault(node, []).append(flag)
    return [(due[i], periods[kind]) for i, kind in enumerate(ALL_KINDS[:c.node_count])]


class TestSchedule:
    """A reading of a kind is due in every round that is a multiple of its
    period, as the engine's traffic log shows."""

    def test_blood_pressure_every_three_rounds(self):
        flags = dict(zip(ALL_KINDS, due_flags(10, 24)))
        due, p = flags[SensorKind.BLOOD_PRESSURE]
        assert p == 3
        assert [r for r in range(10) if due[r]] == [0, 3, 6, 9]

    def test_ecg_weekly(self):
        flags = dict(zip(ALL_KINDS, due_flags(169, 24)))
        due, p = flags[SensorKind.ECG]
        assert p == 168
        assert due[168]
        assert not due[167]

    def test_round_zero_due_for_every_kind(self):
        flags = due_flags(1, 24)
        assert len(flags) == len(SensorKind)
        assert all(due == [True] for due, _ in flags)

    def test_periodicity(self):
        for due, p in due_flags(64, 1):
            assert p <= 30
            for r in (0, 1, 5, 17, 33):
                assert due[r] == due[r + p] == (r % p == 0)

    def test_resolve_derives_every_unset_period(self):
        assert SensingSchedule().periods == {}
        assert SensingSchedule().resolve(48) == default_schedule(48)
        set_periods = {SensorKind.ECG: 5, SensorKind.TILT: 1}
        resolved = SensingSchedule(set_periods).resolve(48)
        assert resolved == default_schedule(48) | set_periods
        assert resolved[SensorKind.BLOOD_PRESSURE] == 6

    def test_known_periods_at_24_rounds_per_day(self):
        p = default_schedule(24)
        assert p[SensorKind.BLOOD_PRESSURE] == 3
        assert p[SensorKind.ECG] == 168
        assert p[SensorKind.GLUCOSE] == 8
        assert p[SensorKind.TEMPERATURE] == 8
        assert p[SensorKind.INSULIN] == 24
        assert p[SensorKind.EMG] == 720
        assert p[SensorKind.SPO2] == 720


def sample_reading(kind, critical, profile, rng):
    """The vital-band reading sampler the events stream was laid out with,
    kept here as the oracle for ``reading_draws``: the engine skips the
    uniforms it took instead of computing a reading. Normal readings are
    uniform in the band; critical ones are uniform above each blood-pressure
    high cutoff, or over the out-of-band region of any other kind, whose low
    side for glucose is below the hypoglycaemia bound and only for a diabetic
    profile. Band values other than blood pressure's and glucose's do not
    move a draw, so every other kind uses the heart-rate band."""
    if kind is SensorKind.BLOOD_PRESSURE:
        # (lower, upper, high cutoff, envelope top): systolic, then diastolic
        return tuple(top - rng.random() * (top - cut) if critical
                     else lower + rng.random() * (upper - lower)
                     for lower, upper, cut, top in ((90, 120, 140, 220), (60, 80, 90, 140)))
    glucose = kind is SensorKind.GLUCOSE
    lower, upper, env_low, env_high = (110, 125, 40, 400) if glucose else (60, 100, 30, 200)
    if not critical:
        return lower + rng.random() * (upper - lower)
    low_width = 0 if glucose and profile == "nondiabetic" else (70 if glucose else lower) - env_low
    u = rng.random() * (low_width + env_high - upper)
    return env_low + u if u < low_width else upper + (u - low_width)


class TestReadingDraws:
    @pytest.mark.parametrize("profile", ["diabetic", "nondiabetic"])
    @pytest.mark.parametrize("critical", [False, True])
    @pytest.mark.parametrize("kind", list(SensorKind))
    def test_count_matches_sample_reading(self, kind, critical, profile):
        drawn, skipped = rng(13), rng(13)
        sample_reading(kind, critical, profile, drawn)
        for _ in range(reading_draws(kind)):
            skipped.random()
        assert drawn.random() == skipped.random()


def event_violations(**over) -> list[str]:
    return violations(replace(SimConfig(), events=EventParams(**over)))


class TestEventParams:
    def test_defaults(self):
        p = EventParams()
        assert p.lam == 0.1
        assert p.rounds_per_day == 24
        assert event_violations() == []

    def test_negative_lambda_flagged(self):
        assert any("lambda" in v for v in event_violations(lam=-1))

    def test_lambda_bound(self):
        assert event_violations(lam=LAMBDA_MAX) == []
        assert any("events.lambda" in v for v in event_violations(lam=LAMBDA_MAX * 1.01))
        assert any("events.lambda" in v for v in event_violations(lam=1e300))

    def test_table_at_lambda_bound_is_finite_and_small(self):
        table = poisson_cdf_table(LAMBDA_MAX)
        assert len(table) < 2000
        assert np.all(np.isfinite(table))
        assert table[-1] == pytest.approx(1.0)
