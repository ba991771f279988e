import configparser
import math
from dataclasses import fields, replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wbansim.channel import ChannelParams
from wbansim.config import (MAX_NODE_ROUNDS, PLACEMENTS, PROTOCOLS, ConfigError, SimConfig,
                            node_round_weight, parse_config, render_config, validate_config)
from wbansim.core import SensorKind
from wbansim.engine import run_simulation
from wbansim.events import LAMBDA_MAX, EventParams, SensingSchedule, default_schedule
from wbansim.io import write_metrics_csv


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


class TestBooleanKeys:
    @pytest.mark.parametrize("word", ["1", "yes", "True", "ON", "0", "no", "false", "Off"])
    def test_configparser_words(self, word):
        cfg = parse_config(f"[sim]\nallow_unconstrained_weights = {word}\n")
        assert cfg.allow_unconstrained_weights is (word.lower() in ("1", "yes", "true", "on"))

    def test_other_word_names_its_key(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[sim]\nallow_unconstrained_weights = maybe\n")
        assert exc.value.violations == [
            "sim.allow_unconstrained_weights: expected a boolean, got 'maybe'"]


def violations(cfg: SimConfig) -> list[str]:
    """What ``validate_config`` rejects ``cfg`` for; empty when it accepts it."""
    try:
        validate_config(cfg)
    except ConfigError as exc:
        return exc.violations
    return []


def _below(x):
    return math.nextafter(x, -math.inf)


def _above(x):
    return math.nextafter(x, math.inf)


# Every bounded or choice key: values on its bound (accepted) and the nearest
# values outside it (rejected), written out here rather than read from the
# declarations they check.
BOUNDARIES = [
    # 10**400 is past the float range, which the joint cap's product is in.
    ("sim.node_count", [1, 1000], [0, 1001, 10**400]),
    ("sim.rounds", [0, 1_000_000], [-1, 1_000_001, 10**400]),
    # The joint cap: a value is a dict of [sim] keys.
    ("sim.node_count*rounds", [{"node_count": 20, "rounds": 1_000_000},
                               {"node_count": 1000, "rounds": 20_000}],
     [{"node_count": 21, "rounds": 1_000_000}, {"node_count": 1000, "rounds": 20_001}]),
    # The same cap weighted by the event rate: from lambda * (node_count +
    # 260) / 2750 > 1 on, a node-round counts as that many.
    ("sim.node_count*rounds*lambda",
     [{"node_count": 1000, "rounds": 20_000, "events": EventParams(lam=2.0)},
      {"node_count": 1000, "rounds": 436, "events": EventParams(lam=100.0)},
      {"node_count": 19, "rounds": 10_375, "events": EventParams(lam=1000.0)}],
     [{"node_count": 1000, "rounds": 20_000, "events": EventParams(lam=2.5)},
      {"node_count": 1000, "rounds": 437, "events": EventParams(lam=100.0)},
      {"node_count": 19, "rounds": 10_376, "events": EventParams(lam=1000.0)}]),
    ("sim.seed", [0], [-1]),
    ("sim.initial_energy", [_above(0.0)], [0.0]),
    ("sim.tx_range", [_above(0.0)], [0.0]),
    ("sim.protocol", ["amhrp", "mattempt", "simple"], ["", "AMHRP"]),
    ("sim.placement", ["uniform", "canonical"], ["", "Uniform"]),
    *((f"energy.{k}", [0.0], [_below(0.0)]) for k in ("x_s", "x_d", "x_w", "x_f", "x_c", "x_t")),
    ("channel.frequency", [_above(0.0)], [0.0]),
    ("channel.d0", [_above(0.0)], [0.0]),
    ("channel.exponent_los", [2.0, 4.0], [_below(2.0), _above(4.0)]),
    ("channel.exponent_nlos", [5.0, 7.4], [_below(5.0), _above(7.4)]),
    ("channel.sigma_db", [0.0], [_below(0.0)]),
    ("events.lambda", [0.0, 1000.0], [_below(0.0), _above(1000.0)]),
    ("events.rounds_per_day", [1], [0]),
    ("amhrp.control_period", [1], [0]),
    ("amhrp.eq_windows", [1], [0]),
    ("amhrp.eq_window_len", [1], [0]),
    ("mattempt.cooling", [0.0, _below(1.0)], [_below(0.0), 1.0]),
    ("mattempt.boost_multiplier", [1.0], [_below(1.0)]),
    ("mattempt.hello_period", [1], [0]),
    ("mattempt.delta_tx", [0.0], [_below(0.0)]),
    ("mattempt.delta_rx", [0.0], [_below(0.0)]),
    ("simple.control_period", [1], [0]),
]


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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_every_float_key_must_be_finite(self, bad):
        cfg = SimConfig()
        checked = 0
        for name in SCALAR_FIELDS:
            obj = cfg if name == "sim" else getattr(cfg, name)
            for f in fields(obj):
                if type(getattr(obj, f.name)) is not float:
                    continue
                if name == "sim":
                    broken = replace(cfg, **{f.name: bad})
                else:
                    broken = replace(cfg, **{name: replace(obj, **{f.name: bad})})
                key = "lambda" if f.name == "lam" else f.name
                assert violations(broken) == [f"{name}.{key}: must be finite"]
                checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("path,accepted,rejected", BOUNDARIES,
                             ids=[case[0] for case in BOUNDARIES])
    def test_boundary(self, path, accepted, rejected):
        name, key = path.split(".")
        attr = "lam" if key == "lambda" else key
        base = SimConfig()
        if name == "energy":
            # Free the weights so the x_w pin and the ordering cannot fire.
            base = replace(base, allow_unconstrained_weights=True)

        def with_value(value):
            if isinstance(value, dict):
                return replace(base, **value)
            if name == "sim":
                return replace(base, **{attr: value})
            return replace(base, **{name: replace(getattr(base, name), **{attr: value})})

        for value in accepted:
            assert violations(with_value(value)) == [], value
        for value in rejected:
            found = violations(with_value(value))
            assert len(found) == 1 and found[0].startswith(f"{path}:"), (value, found)

    def test_bad_exponent_named_with_path(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[channel]\nexponent_los = 9\n")
        assert any("channel.exponent_los" in v for v in exc.value.violations)

    def test_canonical_too_many_nodes(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[sim]\nplacement = canonical\nnode_count = 20\n")
        assert any(v.startswith("sim.node_count:") for v in exc.value.violations)
        cfg = parse_config("[sim]\nplacement = canonical\nnode_count = 19\n")
        assert cfg.node_count == 19
        # A count past its own bound gets that message only.
        assert violations(replace(cfg, node_count=1001)) == ["sim.node_count: must lie in [1, 1000]"]

    @pytest.mark.parametrize("bad_count,good_count,over,message", [
        (0, 1, {"nlos_pairs": ((0, 1),)}, "channel.nlos_pairs: invalid pair 0-1"),
    ], ids=["nlos_pairs"])
    def test_a_bad_node_count_gets_one_message(self, bad_count, good_count, over, message):
        """The NLOS pair rule reads the node count, so it runs only on one
        that passed its own check."""
        assert violations(replace(SimConfig(), node_count=good_count, **over)) == [message]
        found = violations(replace(SimConfig(), node_count=bad_count, **over))
        assert found == ["sim.node_count: must lie in [1, 1000]"]


class TestSections:
    def test_events_lambda_key(self):
        cfg = parse_config("[events]\nlambda = 0.25\n")
        assert cfg.events.lam == 0.25

    def test_schedule_override(self):
        cfg = parse_config("[schedule]\necg = 24\n")
        assert cfg.schedule.periods == {SensorKind.ECG: 24}
        # untouched kinds keep their defaults
        assert cfg.schedule.resolve(cfg.events.rounds_per_day)[SensorKind.BLOOD_PRESSURE] == 3

    def test_rounds_per_day_rescales_default_schedule(self):
        cfg = parse_config("[events]\nrounds_per_day = 48\n")
        periods = cfg.schedule.resolve(cfg.events.rounds_per_day)
        assert periods[SensorKind.BLOOD_PRESSURE] == 6
        assert periods[SensorKind.ECG] == 336

    def test_rounds_per_day_set_in_python_runs_as_in_a_file(self, tmp_path):
        """The periods derive from ``rounds_per_day`` where the run reads
        them, so a config built in Python and one parsed from a file run
        alike, and not as a 24-rounds-a-day run does."""
        base = replace(SimConfig(), rounds=500)
        built = replace(base, events=replace(base.events, rounds_per_day=48))
        parsed = parse_config("[sim]\nrounds = 500\n[events]\nrounds_per_day = 48\n")
        assert built == parsed
        csvs = []
        for name, cfg in (("built", built), ("parsed", parsed), ("base", base)):
            write_metrics_csv(run_simulation(cfg).metrics, tmp_path / name)
            csvs.append((tmp_path / name).read_bytes())
        assert csvs[0] == csvs[1] != csvs[2]

    def test_nlos_pairs(self):
        cfg = parse_config("[channel]\nnlos_pairs = 0-3, 2-7\n")
        assert cfg.nlos_pairs == ((0, 3), (2, 7))

    def test_protocol_sections(self):
        cfg = parse_config("[amhrp]\ncontrol_period = 5\n[mattempt]\nboost_multiplier = 3\n")
        assert cfg.amhrp.control_period == 5
        assert cfg.mattempt.boost_multiplier == 3.0

    @pytest.mark.parametrize("key", ["exponent_free", "k_freq"])
    def test_removed_channel_keys_rejected(self, key):
        with pytest.raises(ConfigError) as exc:
            parse_config(f"[channel]\n{key} = 2.0\n")
        assert exc.value.violations == [f"unknown key channel.{key}"]

    def test_vitals_section_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[vitals]\nheart_rate = 60, 100, 60, 100\n")
        assert exc.value.violations == ["unknown section [vitals]"]

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


def _finite(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


# Every scalar field of each section (its INI key, except events.lam) with
# values drawn from its validated range.
SCALAR_FIELDS = {
    "sim": {
        "node_count": st.integers(1, 19),
        "rounds": st.integers(0, 10**6),
        "initial_energy": _finite(1e-6, 100.0),
        "protocol": st.sampled_from(PROTOCOLS),
        "seed": st.integers(0, 2**64),
        "placement": st.sampled_from(PLACEMENTS),
        "tx_range": _finite(1e-3, 5.0),
        "allow_unconstrained_weights": st.booleans(),
        "out_dir": st.text("abcXYZ019_-./", min_size=1, max_size=20),
    },
    "energy": {name: _finite(0.0, 1.0) for name in ("x_s", "x_d", "x_f", "x_c", "x_t")}
    | {"x_w": _finite(0.0, 100.0)},
    "channel": {
        "frequency": _finite(1e6, 1e11),
        "d0": _finite(1e-3, 1.0),
        "exponent_los": _finite(2.0, 4.0),
        "exponent_nlos": _finite(5.0, 7.4),
        "sigma_db": _finite(0.0, 8.0),
    },
    "events": {"lam": _finite(0.0, LAMBDA_MAX), "rounds_per_day": st.integers(1, 48)},
    "amhrp": {
        "control_period": st.integers(1, 1000),
        "alpha_star": _finite(-10.0, 10.0),
        "eq_windows": st.integers(1, 64),
        "eq_window_len": st.integers(1, 1000),
    },
    "mattempt": {
        "temp_threshold": _finite(30.0, 45.0),
        "ambient": _finite(30.0, 45.0),
        "delta_tx": _finite(0.0, 1.0),
        "delta_rx": _finite(0.0, 1.0),
        "cooling": _finite(0.0, 1.0, exclude_max=True),
        "boost_multiplier": _finite(1.0, 10.0),
        "hello_period": st.integers(1, 100),
    },
    "simple": {"control_period": st.integers(1, 100)},
}


def _scalar_fields(obj) -> set[str]:
    return {f.name for f in fields(obj)
            if type(getattr(obj, f.name)) in (bool, int, float, str)}


@st.composite
def valid_configs(draw):
    over = {name: {f: draw(s) for f, s in strategies.items()}
            for name, strategies in SCALAR_FIELDS.items()}
    energy = over["energy"]
    x_f, x_c, x_d = sorted((energy["x_f"], energy["x_c"], energy["x_d"]))
    assume(x_f < x_c < x_d)
    energy.update(x_f=x_f, x_c=x_c, x_d=x_d)
    if not over["sim"]["allow_unconstrained_weights"]:
        energy["x_w"] = 100.0 * x_d
    n = over["sim"]["node_count"]
    pair = st.tuples(st.integers(0, n - 1), st.integers(1, max(1, n - 1))).map(
        lambda t: (t[0], (t[0] + t[1]) % n))
    nlos_pairs = tuple(draw(st.lists(pair, max_size=0 if n == 1 else 6)))
    periods = draw(st.dictionaries(st.sampled_from(SensorKind), st.integers(1, 10**4)))
    cfg = replace(SimConfig(), **over.pop("sim"), nlos_pairs=nlos_pairs,
                  schedule=SensingSchedule(periods))
    cfg = replace(cfg, **{name: replace(getattr(cfg, name), **o) for name, o in over.items()})
    # The work cap ties rounds to node_count and the event rate.
    weight = node_round_weight(cfg.node_count, cfg.events.lam)
    while cfg.node_count * cfg.rounds * weight > MAX_NODE_ROUNDS:
        cfg = replace(cfg, rounds=cfg.rounds // 2)
    validate_config(cfg)
    return cfg


class TestDeclaredKeys:
    def test_section_keys_are_the_scalar_fields(self):
        cfg = replace(SimConfig(), nlos_pairs=((0, 1),),
                      schedule=SensingSchedule(default_schedule(24)))
        cp = configparser.ConfigParser(interpolation=None)
        cp.optionxform = str
        cp.read_string(render_config(cfg))
        kinds = {k.value for k in SensorKind}
        for name in SCALAR_FIELDS:
            obj = cfg if name == "sim" else getattr(cfg, name)
            declared = {"lambda" if f == "lam" else f for f in _scalar_fields(obj)}
            extra = {"nlos_pairs"} if name == "channel" else set()
            assert set(cp[name]) == declared | extra, name
            assert set(SCALAR_FIELDS[name]) == _scalar_fields(obj), name
        assert set(cp["schedule"]) == kinds
        assert set(cp.sections()) == set(SCALAR_FIELDS) | {"schedule"}

    def test_channel_params_settable_fields(self):
        assert [f.name for f in fields(ChannelParams)] == [
            "frequency", "d0", "exponent_los", "exponent_nlos", "sigma_db"]


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None)
    @given(valid_configs())
    def test_render_parse_round_trip(self, cfg):
        assert parse_config(render_config(cfg)) == cfg
