from dataclasses import replace

import pytest

from wbansim.config import (ConfigError, SimConfig, parse_config, render_config,
                            validate_config)
from wbansim.core import SensorKind


class TestDefaults:
    def test_empty_document_gives_paper_defaults(self):
        cfg = parse_config("")
        assert cfg.node_count == 19
        assert cfg.rounds == 10000
        assert cfg.initial_energy == 0.5
        assert cfg.channel.frequency == 2.4e9
        assert cfg.protocol == "amhrp"
        validate_config(cfg)

    def test_energy_constraint_holds_by_default(self):
        cfg = parse_config("")
        assert cfg.energy.x_w == pytest.approx(100.0 * cfg.energy.x_d)
        assert cfg.energy.x_f < cfg.energy.x_c < cfg.energy.x_d


class TestEnergySection:
    def test_x_w_auto_derived_from_x_d(self):
        cfg = parse_config("[energy]\nx_d = 1e-3\nx_s = 1e-4\nx_f = 1e-5\nx_c = 5e-4\n")
        assert cfg.energy.x_w == pytest.approx(0.1)

    def test_wrong_x_w_rejected(self):
        text = "[energy]\nx_d = 1e-3\nx_w = 0.05\nx_s = 1e-4\nx_f = 1e-5\nx_c = 5e-4\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert any("x_w" in v for v in exc.value.violations)

    def test_wrong_x_w_allowed_when_unconstrained(self):
        text = ("[sim]\nallow_unconstrained_weights = true\n"
                "[energy]\nx_d = 1e-3\nx_w = 0.05\nx_s = 1e-4\nx_f = 1e-5\nx_c = 5e-4\n")
        cfg = parse_config(text)
        assert cfg.energy.x_w == 0.05

    def test_ordering_violation_rejected(self):
        text = "[energy]\nx_d = 1e-3\nx_s = 1e-4\nx_f = 6e-4\nx_c = 5e-4\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert any("x_f" in v for v in exc.value.violations)


class TestViolations:
    def test_negative_rounds_named(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[sim]\nrounds = -5\n")
        assert any("rounds" in v for v in exc.value.violations)

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[sim]\nrouns = 100\n")
        assert any("rouns" in v for v in exc.value.violations)

    def test_unknown_section_is_hard_error(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[simm]\nrounds = 100\n")
        assert any("simm" in v for v in exc.value.violations)

    def test_malformed_document_reports_parse_error(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[sim\nrounds = 5\n")
        assert any("parse error" in v for v in exc.value.violations)

    def test_multiple_violations_collected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[sim]\nrounds = -5\nnode_count = 0\nprotocol = nope\n")
        joined = "\n".join(exc.value.violations)
        assert "rounds" in joined and "node_count" in joined and "protocol" in joined

    def test_bad_exponent_named_with_path(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[channel]\nexponent_los = 9\n")
        assert any("channel.exponent_los" in v for v in exc.value.violations)


class TestSections:
    def test_events_lambda_key(self):
        cfg = parse_config("[events]\nlambda = 0.25\n")
        assert cfg.events.lam == 0.25

    def test_schedule_override(self):
        cfg = parse_config("[schedule]\necg = 24\n")
        assert cfg.schedule.periods[SensorKind.ECG] == 24
        # untouched kinds keep their defaults
        assert cfg.schedule.periods[SensorKind.BLOOD_PRESSURE] == 3

    def test_rounds_per_day_rescales_default_schedule(self):
        cfg = parse_config("[events]\nrounds_per_day = 48\n")
        assert cfg.schedule.periods[SensorKind.BLOOD_PRESSURE] == 6
        assert cfg.schedule.periods[SensorKind.ECG] == 336

    def test_vitals_band_override(self):
        cfg = parse_config("[vitals]\nheart_rate = 50, 110, 20, 220\n")
        band = cfg.vitals.bands[SensorKind.HEART_RATE]
        assert (band.lower, band.upper) == (50, 110)

    EMPTY_HEART_RATE = "[vitals]\nheart_rate = 60, 100, 60, 100\n"

    def test_empty_critical_region_of_an_uncarried_kind_allowed(self):
        # Nodes 0-15 carry every kind but heart_rate (node 16).
        parse_config("[sim]\nnode_count = 16\n" + self.EMPTY_HEART_RATE)
        with pytest.raises(ConfigError):
            parse_config("[sim]\nnode_count = 17\n" + self.EMPTY_HEART_RATE)

    def test_empty_critical_region_follows_glucose_profile(self):
        # Nothing above the band; the diabetic profile still has the low side.
        band = "glucose = 110, 125, 40, 125\n"
        parse_config("[vitals]\n" + band)
        with pytest.raises(ConfigError) as exc:
            parse_config("[vitals]\nglucose_profile = nondiabetic\n" + band)
        assert any(v.startswith("vitals.glucose:") for v in exc.value.violations)

    def test_missing_band_of_a_carried_kind_rejected(self):
        cfg = SimConfig()
        bands = {k: b for k, b in cfg.vitals.bands.items() if k is not SensorKind.TILT}
        with pytest.raises(ConfigError) as exc:
            validate_config(replace(cfg, vitals=replace(cfg.vitals, bands=bands)))
        assert "vitals.tilt: no band configured" in exc.value.violations

    def test_vitals_blood_pressure_components(self):
        cfg = parse_config("[vitals]\nblood_pressure_systolic = 85, 125, 60, 230, 150\n")
        bp = cfg.vitals.bands[SensorKind.BLOOD_PRESSURE]
        assert bp.systolic.lower == 85
        assert bp.systolic_high == 150
        assert bp.diastolic_high == 90  # untouched component keeps defaults

    def test_nlos_pairs(self):
        cfg = parse_config("[channel]\nnlos_pairs = 0-3, 2-7\n")
        assert cfg.nlos_pairs == ((0, 3), (2, 7))

    def test_protocol_sections(self):
        cfg = parse_config("[amhrp]\ncontrol_period = 5\n[mattempt]\nboost_multiplier = 3\n")
        assert cfg.amhrp.control_period == 5
        assert cfg.mattempt.boost_multiplier == 3.0

    def test_inline_comments_stripped(self):
        cfg = parse_config("[sim]\nrounds = 100  # short run\n")
        assert cfg.rounds == 100


class TestRoundTrip:
    def test_default_config_round_trips(self):
        cfg = SimConfig()
        assert parse_config(render_config(cfg)) == cfg

    def test_custom_config_round_trips(self):
        text = (
            "[sim]\nrounds = 1234\nseed = 9\nprotocol = mattempt\n"
            "placement = canonical\ntx_range = 0.45\n"
            "[energy]\nx_d = 1e-3\nx_s = 1e-4\nx_f = 1e-5\nx_c = 5e-4\nx_t = 0.1\n"
            "[channel]\nsigma_db = 3.5\nnlos_pairs = 1-2\n"
            "[events]\nlambda = 0.05\n"
            "[schedule]\necg = 100\n"
            "[mattempt]\nboost_multiplier = 2.5\n"
        )
        cfg = parse_config(text)
        assert parse_config(render_config(cfg)) == cfg
