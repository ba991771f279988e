import math

import numpy as np
import pytest

from wbansim.core import SensorKind
from wbansim.events import (EventParams, SensingSchedule, VitalThresholds,
                            default_schedule, is_critical, is_scheduled,
                            poisson_cdf_table, poisson_pmf, sample_event_count,
                            sample_reading)


def rng(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


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

    def test_values_are_probabilities(self):
        for k in range(30):
            assert 0.0 <= poisson_pmf(3.0, k) <= 1.0


class TestPoissonCdfTable:
    def test_memoized_per_lambda(self):
        assert poisson_cdf_table(4.0) is poisson_cdf_table(4.0)
        assert poisson_cdf_table(4.0) is not poisson_cdf_table(2.0)

    def test_shared_table_is_read_only(self):
        table = poisson_cdf_table(4.0)
        with pytest.raises(ValueError):
            table[0] = 1.0
        assert table[0] == pytest.approx(math.exp(-4.0), rel=1e-12)

    def test_matches_cumulative_pmf(self):
        table = poisson_cdf_table(1.5)
        expected = np.cumsum([poisson_pmf(1.5, k) for k in range(len(table))])
        assert np.array_equal(table, expected)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            poisson_cdf_table(-1.0)


class TestSampleEventCount:
    def test_lambda_zero_always_zero(self):
        g = rng(1)
        assert all(sample_event_count(0.0, g) == 0 for _ in range(100))

    def test_same_seed_same_sequence(self):
        a = [sample_event_count(2.0, rng(9)) for _ in range(1)]
        g1, g2 = rng(9), rng(9)
        s1 = [sample_event_count(2.0, g1) for _ in range(200)]
        s2 = [sample_event_count(2.0, g2) for _ in range(200)]
        assert s1 == s2
        assert s1[0] == a[0]

    def test_empirical_mean_lambda4(self):
        g = rng(42)
        draws = [sample_event_count(4.0, g) for _ in range(10**5)]
        assert abs(np.mean(draws) - 4.0) < 0.05

    def test_empirical_variance_lambda4(self):
        g = rng(43)
        draws = [sample_event_count(4.0, g) for _ in range(10**5)]
        assert abs(np.var(draws) - 4.0) / 4.0 < 0.03


class TestIsCritical:
    def setup_method(self):
        self.t = VitalThresholds()

    def test_heart_rate_in_band(self):
        assert not is_critical(SensorKind.HEART_RATE, 75.0, self.t)

    def test_heart_rate_band_edges_are_normal(self):
        assert not is_critical(SensorKind.HEART_RATE, 60.0, self.t)
        assert not is_critical(SensorKind.HEART_RATE, 100.0, self.t)
        assert is_critical(SensorKind.HEART_RATE, 59.9, self.t)
        assert is_critical(SensorKind.HEART_RATE, 100.1, self.t)

    def test_temperature_hard_limit(self):
        assert is_critical(SensorKind.TEMPERATURE, 40.0, self.t)
        assert not is_critical(SensorKind.TEMPERATURE, 37.0, self.t)

    def test_glucose_high(self):
        assert is_critical(SensorKind.GLUCOSE, 130.0, self.t)

    def test_glucose_profile_low_side(self):
        diabetic = VitalThresholds(glucose_profile="diabetic")
        nondiabetic = VitalThresholds(glucose_profile="nondiabetic")
        assert is_critical(SensorKind.GLUCOSE, 60.0, diabetic)
        assert not is_critical(SensorKind.GLUCOSE, 60.0, nondiabetic)
        # between the hypoglycemia bound and the band is a non-event either way
        assert not is_critical(SensorKind.GLUCOSE, 100.0, diabetic)

    def test_blood_pressure_pair(self):
        assert is_critical(SensorKind.BLOOD_PRESSURE, (150.0, 80.0), self.t)
        assert is_critical(SensorKind.BLOOD_PRESSURE, (120.0, 95.0), self.t)
        assert is_critical(SensorKind.BLOOD_PRESSURE, (140.0, 90.0), self.t)
        assert not is_critical(SensorKind.BLOOD_PRESSURE, (120.0, 80.0), self.t)

    def test_monotone_further_from_band(self):
        for r in (101.0, 120.0, 180.0):
            assert is_critical(SensorKind.HEART_RATE, r, self.t)
        for r in (59.0, 45.0, 31.0):
            assert is_critical(SensorKind.HEART_RATE, r, self.t)

    def test_missing_kind_is_config_error(self):
        t = VitalThresholds(bands={})
        with pytest.raises(KeyError):
            is_critical(SensorKind.ECG, 70.0, t)


class TestSchedule:
    def test_blood_pressure_every_three_rounds(self):
        s = SensingSchedule()
        due = [r for r in range(10) if is_scheduled(SensorKind.BLOOD_PRESSURE, r, s)]
        assert due == [0, 3, 6, 9]

    def test_ecg_weekly(self):
        s = SensingSchedule()
        assert s.periods[SensorKind.ECG] == 168
        assert is_scheduled(SensorKind.ECG, 168, s)
        assert not is_scheduled(SensorKind.ECG, 167, s)

    def test_round_zero_due_for_every_kind(self):
        s = SensingSchedule()
        assert all(is_scheduled(k, 0, s) for k in SensorKind)

    def test_periodicity(self):
        s = SensingSchedule()
        for kind in SensorKind:
            p = s.periods[kind]
            for r in (0, 1, 5, 17):
                assert is_scheduled(kind, r, s) == is_scheduled(kind, r + p, s)

    def test_known_periods_at_24_rounds_per_day(self):
        p = default_schedule(24)
        assert p[SensorKind.GLUCOSE] == 8
        assert p[SensorKind.TEMPERATURE] == 8
        assert p[SensorKind.INSULIN] == 24
        assert p[SensorKind.EMG] == 720
        assert p[SensorKind.SPO2] == 720

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError):
            is_scheduled(SensorKind.ECG, -1, SensingSchedule())


class TestSampleReading:
    def setup_method(self):
        self.t = VitalThresholds()

    def test_heart_rate_normal_band(self):
        g = rng(3)
        for _ in range(500):
            v = sample_reading(SensorKind.HEART_RATE, False, self.t, g)
            assert 60.0 <= v <= 100.0

    def test_heart_rate_critical_envelope(self):
        g = rng(4)
        for _ in range(500):
            v = sample_reading(SensorKind.HEART_RATE, True, self.t, g)
            assert (30.0 <= v < 60.0) or (100.0 < v <= 200.0)

    def test_temperature_normal_band(self):
        g = rng(5)
        for _ in range(200):
            v = sample_reading(SensorKind.TEMPERATURE, False, self.t, g)
            assert 36.5 <= v <= 37.5

    def test_round_trip_consistency_all_kinds(self):
        g = rng(6)
        for kind in SensorKind:
            for critical in (False, True):
                for _ in range(250):
                    v = sample_reading(kind, critical, self.t, g)
                    assert is_critical(kind, v, self.t) == critical, (kind, critical, v)

    def test_round_trip_nondiabetic_glucose(self):
        t = VitalThresholds(glucose_profile="nondiabetic")
        g = rng(7)
        for critical in (False, True):
            for _ in range(300):
                v = sample_reading(SensorKind.GLUCOSE, critical, t, g)
                assert is_critical(SensorKind.GLUCOSE, v, t) == critical


class TestEventParams:
    def test_defaults(self):
        p = EventParams()
        assert p.lam == 0.1
        assert p.rounds_per_day == 24
        assert p.validate() == []

    def test_negative_lambda_flagged(self):
        assert any("lambda" in v for v in EventParams(lam=-1).validate())
