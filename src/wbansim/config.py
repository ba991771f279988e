"""Experiment configuration: defaults, INI-style parsing and rendering.

The config format is a flat-sectioned key=value document:

    [sim]
    rounds = 10000
    protocol = amhrp

    [energy]
    x_d = 7e-6

Sections: sim, energy, channel, events, vitals, schedule, amhrp, mattempt,
simple. Unknown sections or keys are hard errors, every constraint violation
is reported with its key path, and unspecified keys take the defaults below
(19 nodes, 10000 rounds, 0.5 J, 2.4 GHz, AMHRP). The external-WSN send cost
x_w is pinned to 100 * x_d: leaving it unset derives it, setting it to
anything else is rejected unless unconstrained weights are explicitly
allowed.
"""
from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field, replace

from .channel import ChannelParams
from .core import ALL_KINDS, SensorKind
from .energy import EnergyWeights
from .events import (EventParams, PressureBand, SensingSchedule, VitalBand,
                     VitalThresholds, default_bands, default_schedule,
                     has_critical_region)
from .protocols import MattemptParams, SimpleParams

PROTOCOLS = ("amhrp", "mattempt", "simple")
PLACEMENTS = ("uniform", "canonical")


class ConfigError(ValueError):
    """Configuration rejected; ``violations`` lists every problem found."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.violations))


@dataclass(frozen=True)
class AmhrpParams:
    control_period: int = 10   # rounds between residual-energy beacon exchanges
    alpha_star: float = 0.0    # equilibrium diagnostic threshold
    eq_windows: int = 8        # series length l: number of logged traffic windows
    eq_window_len: int = 50    # rounds per window

    def validate(self) -> list[str]:
        problems = []
        if self.control_period < 1:
            problems.append("amhrp.control_period: must be >= 1")
        if self.eq_windows < 1:
            problems.append("amhrp.eq_windows: must be >= 1")
        if self.eq_window_len < 1:
            problems.append("amhrp.eq_window_len: must be >= 1")
        return problems


def default_energy_weights() -> EnergyWeights:
    """Calibrated so the default AMHRP run's first node death lands in the
    4000-5000 round window while the network keeps most of its charge; see
    docs/calibration.md for the procedure and the reasoning behind x_t."""
    return EnergyWeights(
        x_s=2e-6,
        x_d=7e-6,
        x_w=7e-4,
        x_f=1e-6,
        x_c=4e-6,
        x_t=0.48,
    )


@dataclass(frozen=True)
class SimConfig:
    node_count: int = 19
    rounds: int = 10000
    initial_energy: float = 0.5
    protocol: str = "amhrp"
    seed: int = 1
    placement: str = "uniform"
    tx_range: float = 0.6
    stop_on_all_dead: bool = False
    allow_unconstrained_weights: bool = False
    out_dir: str = "results"
    energy: EnergyWeights = field(default_factory=default_energy_weights)
    channel: ChannelParams = field(default_factory=ChannelParams)
    nlos_pairs: tuple[tuple[int, int], ...] = ()
    events: EventParams = field(default_factory=EventParams)
    vitals: VitalThresholds = field(default_factory=VitalThresholds)
    schedule: SensingSchedule = field(default_factory=SensingSchedule)
    amhrp: AmhrpParams = field(default_factory=AmhrpParams)
    mattempt: MattemptParams = field(default_factory=MattemptParams)
    simple: SimpleParams = field(default_factory=SimpleParams)


def validate_config(cfg: SimConfig) -> None:
    """Raise ConfigError listing every violated constraint."""
    problems = []
    if cfg.node_count < 1:
        problems.append("sim.node_count: must be >= 1")
    if cfg.rounds < 0:
        problems.append("sim.rounds: must be >= 0")
    if cfg.initial_energy <= 0:
        problems.append("sim.initial_energy: must be > 0")
    if cfg.protocol not in PROTOCOLS:
        problems.append(f"sim.protocol: must be one of {', '.join(PROTOCOLS)}")
    if cfg.placement not in PLACEMENTS:
        problems.append(f"sim.placement: must be one of {', '.join(PLACEMENTS)}")
    if cfg.tx_range <= 0:
        problems.append("sim.tx_range: must be > 0")
    if cfg.placement == "canonical" and cfg.node_count > len(ALL_KINDS):
        problems.append(
            f"sim.node_count: canonical placement supports at most {len(ALL_KINDS)} nodes"
        )
    problems += cfg.energy.validate(cfg.allow_unconstrained_weights)
    problems += cfg.channel.validate()
    problems += cfg.events.validate()
    problems += cfg.vitals.validate()
    # The engine never computes a reading, so a band sample_reading could not
    # draw from is caught here, before round 0. Node i carries ALL_KINDS[i % 19].
    for kind in ALL_KINDS[:cfg.node_count]:
        if kind not in cfg.vitals.bands:
            problems.append(f"vitals.{kind.value}: no band configured")
        elif cfg.events.lam > 0 and not has_critical_region(kind, cfg.vitals):
            problems.append(f"vitals.{kind.value}: no out-of-band region to draw "
                            "event readings from (events.lambda > 0)")
    problems += cfg.schedule.validate()
    problems += cfg.amhrp.validate()
    problems += cfg.mattempt.validate()
    problems += cfg.simple.validate()
    for a, b in cfg.nlos_pairs:
        if not (0 <= a < cfg.node_count and 0 <= b < cfg.node_count) or a == b:
            problems.append(f"channel.nlos_pairs: invalid pair {a}-{b}")
    if problems:
        raise ConfigError(problems)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_KIND_BY_NAME = {k.value: k for k in SensorKind}

_SIM_KEYS = {
    "node_count": int,
    "rounds": int,
    "initial_energy": float,
    "protocol": str,
    "seed": int,
    "placement": str,
    "tx_range": float,
    "stop_on_all_dead": bool,
    "allow_unconstrained_weights": bool,
    "out_dir": str,
}
_ENERGY_KEYS = {"x_s", "x_d", "x_w", "x_f", "x_c", "x_t"}
_CHANNEL_KEYS = {
    "frequency": float,
    "d0": float,
    "exponent_los": float,
    "exponent_nlos": float,
    "exponent_free": float,
    "sigma_db": float,
    "k_freq": float,
    "nlos_pairs": str,
}
_EVENTS_KEYS = {"lambda": float, "rounds_per_day": int}
_AMHRP_KEYS = {"control_period": int, "alpha_star": float,
               "eq_windows": int, "eq_window_len": int}
_MATTEMPT_KEYS = {"temp_threshold": float, "ambient": float, "delta_tx": float,
                  "delta_rx": float, "cooling": float, "boost_multiplier": float,
                  "hello_period": int}
_SIMPLE_KEYS = {"control_period": int}
_VITALS_EXTRA = {"glucose_profile", "glucose_low_critical"}


def _parse_bool(raw: str, path: str, problems: list[str]) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    problems.append(f"{path}: expected a boolean, got {raw!r}")
    return False


def _parse_scalar(raw: str, typ, path: str, problems: list[str]):
    if typ is bool:
        return _parse_bool(raw, path, problems)
    try:
        if typ is int:
            return int(raw.strip())
        if typ is float:
            return float(raw.strip())
    except ValueError:
        problems.append(f"{path}: expected {typ.__name__}, got {raw!r}")
        return 0
    return raw.strip()


def _parse_floats(raw: str, path: str, problems: list[str]) -> list[float]:
    out = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            out.append(float(tok))
        except ValueError:
            problems.append(f"{path}: expected comma-separated numbers, got {raw!r}")
            return []
    return out


def _parse_band(raw: str, path: str, problems: list[str]) -> VitalBand | None:
    # lower, upper, env_low, env_high[, hard]
    vals = _parse_floats(raw, path, problems)
    if len(vals) == 4:
        return VitalBand(vals[0], vals[1], vals[2], vals[3])
    if len(vals) == 5:
        return VitalBand(vals[0], vals[1], vals[2], vals[3], hard=vals[4])
    problems.append(f"{path}: expected 'lower, upper, env_low, env_high[, hard]'")
    return None


def parse_config(text: str) -> SimConfig:
    """Parse a configuration document; unspecified keys take the defaults.

    Strict mode: unknown sections or keys are errors, and all violations are
    reported together with their key paths.
    """
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"parse error: {exc}"]) from exc

    problems: list[str] = []
    known = {"sim", "energy", "channel", "events", "vitals", "schedule",
             "amhrp", "mattempt", "simple"}
    for section in cp.sections():
        if section not in known:
            problems.append(f"unknown section [{section}]")
    if cp.defaults():
        for key in cp.defaults():
            problems.append(f"key {key!r} outside any section")

    cfg = SimConfig()

    def section(name: str) -> dict[str, str]:
        return dict(cp[name]) if cp.has_section(name) else {}

    # [sim]
    sim_over = {}
    for key, raw in section("sim").items():
        if key not in _SIM_KEYS:
            problems.append(f"unknown key sim.{key}")
            continue
        sim_over[key] = _parse_scalar(raw, _SIM_KEYS[key], f"sim.{key}", problems)
    cfg = replace(cfg, **sim_over)

    # [energy] (x_w derived from x_d when omitted)
    energy_raw = {}
    for key, raw in section("energy").items():
        if key not in _ENERGY_KEYS:
            problems.append(f"unknown key energy.{key}")
            continue
        energy_raw[key] = _parse_scalar(raw, float, f"energy.{key}", problems)
    if energy_raw:
        base = default_energy_weights()
        merged = {k: energy_raw.get(k, getattr(base, k)) for k in _ENERGY_KEYS}
        if "x_w" not in energy_raw and "x_d" in energy_raw:
            merged["x_w"] = 100.0 * merged["x_d"]
        cfg = replace(cfg, energy=EnergyWeights(**merged))

    # [channel]
    chan_over = {}
    nlos_pairs: list[tuple[int, int]] = []
    for key, raw in section("channel").items():
        if key not in _CHANNEL_KEYS:
            problems.append(f"unknown key channel.{key}")
            continue
        if key == "nlos_pairs":
            for tok in raw.split(","):
                tok = tok.strip()
                if not tok:
                    continue
                parts = tok.split("-")
                try:
                    a, b = int(parts[0]), int(parts[1])
                    nlos_pairs.append((a, b))
                except (ValueError, IndexError):
                    problems.append(f"channel.nlos_pairs: expected 'i-j' pairs, got {tok!r}")
        else:
            chan_over[key] = _parse_scalar(raw, _CHANNEL_KEYS[key], f"channel.{key}", problems)
    if chan_over:
        cfg = replace(cfg, channel=ChannelParams(**chan_over))
    if nlos_pairs:
        cfg = replace(cfg, nlos_pairs=tuple(nlos_pairs))

    # [events]
    ev_over = {}
    for key, raw in section("events").items():
        if key not in _EVENTS_KEYS:
            problems.append(f"unknown key events.{key}")
            continue
        attr = "lam" if key == "lambda" else key
        ev_over[attr] = _parse_scalar(raw, _EVENTS_KEYS[key], f"events.{key}", problems)
    if ev_over:
        cfg = replace(cfg, events=EventParams(**ev_over))

    # [vitals]
    bands = default_bands()
    vit_extra = {}
    for key, raw in section("vitals").items():
        path = f"vitals.{key}"
        if key == "glucose_profile":
            vit_extra["glucose_profile"] = raw.strip()
        elif key == "glucose_low_critical":
            vit_extra["glucose_low_critical"] = _parse_scalar(raw, float, path, problems)
        elif key in ("blood_pressure_systolic", "blood_pressure_diastolic"):
            vals = _parse_floats(raw, path, problems)
            if len(vals) != 5:
                problems.append(f"{path}: expected 'lower, upper, env_low, env_high, high'")
                continue
            bp = bands[SensorKind.BLOOD_PRESSURE]
            comp = VitalBand(vals[0], vals[1], vals[2], vals[3])
            if key.endswith("systolic"):
                bp = PressureBand(comp, bp.diastolic, vals[4], bp.diastolic_high)
            else:
                bp = PressureBand(bp.systolic, comp, bp.systolic_high, vals[4])
            bands[SensorKind.BLOOD_PRESSURE] = bp
        elif key in _KIND_BY_NAME:
            kind = _KIND_BY_NAME[key]
            if kind is SensorKind.BLOOD_PRESSURE:
                problems.append(f"{path}: use blood_pressure_systolic/_diastolic")
                continue
            band = _parse_band(raw, path, problems)
            if band is not None:
                bands[kind] = band
        else:
            problems.append(f"unknown key {path}")
    if cp.has_section("vitals"):
        cfg = replace(cfg, vitals=VitalThresholds(bands=bands, **vit_extra))

    # [schedule]
    if cp.has_section("schedule"):
        rpd = cfg.events.rounds_per_day
        periods = default_schedule(rpd)
        for key, raw in section("schedule").items():
            if key not in _KIND_BY_NAME:
                problems.append(f"unknown key schedule.{key}")
                continue
            periods[_KIND_BY_NAME[key]] = _parse_scalar(raw, int, f"schedule.{key}", problems)
        cfg = replace(cfg, schedule=SensingSchedule(periods=periods))
    elif cfg.events.rounds_per_day != 24:
        cfg = replace(cfg, schedule=SensingSchedule(default_schedule(cfg.events.rounds_per_day)))

    # protocol sections
    for name, keys, cls, attr in (
        ("amhrp", _AMHRP_KEYS, AmhrpParams, "amhrp"),
        ("mattempt", _MATTEMPT_KEYS, MattemptParams, "mattempt"),
        ("simple", _SIMPLE_KEYS, SimpleParams, "simple"),
    ):
        over = {}
        for key, raw in section(name).items():
            if key not in keys:
                problems.append(f"unknown key {name}.{key}")
                continue
            over[key] = _parse_scalar(raw, keys[key], f"{name}.{key}", problems)
        if over:
            cfg = replace(cfg, **{attr: cls(**over)})

    if problems:
        raise ConfigError(problems)
    validate_config(cfg)
    return cfg


def load_config(path: str) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# Rendering (inverse of parse_config for valid configs)
# ---------------------------------------------------------------------------

def render_config(cfg: SimConfig) -> str:
    """Serialize a config so that ``parse_config(render_config(cfg)) == cfg``."""
    out = io.StringIO()

    def sec(name: str, pairs: list[tuple[str, object]]) -> None:
        out.write(f"[{name}]\n")
        for key, val in pairs:
            if isinstance(val, bool):
                val = "true" if val else "false"
            out.write(f"{key} = {val}\n")
        out.write("\n")

    sec("sim", [
        ("node_count", cfg.node_count), ("rounds", cfg.rounds),
        ("initial_energy", repr(cfg.initial_energy)), ("protocol", cfg.protocol),
        ("seed", cfg.seed), ("placement", cfg.placement),
        ("tx_range", repr(cfg.tx_range)),
        ("stop_on_all_dead", cfg.stop_on_all_dead),
        ("allow_unconstrained_weights", cfg.allow_unconstrained_weights),
        ("out_dir", cfg.out_dir),
    ])
    w = cfg.energy
    sec("energy", [(k, repr(getattr(w, k))) for k in ("x_s", "x_d", "x_w", "x_f", "x_c", "x_t")])
    ch = cfg.channel
    chan_pairs = [
        ("frequency", repr(ch.frequency)), ("d0", repr(ch.d0)),
        ("exponent_los", repr(ch.exponent_los)), ("exponent_nlos", repr(ch.exponent_nlos)),
        ("exponent_free", repr(ch.exponent_free)), ("sigma_db", repr(ch.sigma_db)),
        ("k_freq", repr(ch.k_freq)),
    ]
    if cfg.nlos_pairs:
        chan_pairs.append(("nlos_pairs", ", ".join(f"{a}-{b}" for a, b in cfg.nlos_pairs)))
    sec("channel", chan_pairs)
    sec("events", [("lambda", repr(cfg.events.lam)),
                   ("rounds_per_day", cfg.events.rounds_per_day)])

    vit_pairs: list[tuple[str, object]] = []
    for kind in SensorKind:
        band = cfg.vitals.bands[kind]
        if kind is SensorKind.BLOOD_PRESSURE:
            s, d = band.systolic, band.diastolic
            vit_pairs.append(("blood_pressure_systolic",
                              f"{s.lower!r}, {s.upper!r}, {s.env_low!r}, {s.env_high!r}, "
                              f"{band.systolic_high!r}"))
            vit_pairs.append(("blood_pressure_diastolic",
                              f"{d.lower!r}, {d.upper!r}, {d.env_low!r}, {d.env_high!r}, "
                              f"{band.diastolic_high!r}"))
        else:
            spec = f"{band.lower!r}, {band.upper!r}, {band.env_low!r}, {band.env_high!r}"
            if band.hard is not None:
                spec += f", {band.hard!r}"
            vit_pairs.append((kind.value, spec))
    vit_pairs.append(("glucose_profile", cfg.vitals.glucose_profile))
    vit_pairs.append(("glucose_low_critical", repr(cfg.vitals.glucose_low_critical)))
    sec("vitals", vit_pairs)

    sec("schedule", [(k.value, cfg.schedule.periods[k]) for k in SensorKind])
    a = cfg.amhrp
    sec("amhrp", [("control_period", a.control_period), ("alpha_star", repr(a.alpha_star)),
                  ("eq_windows", a.eq_windows), ("eq_window_len", a.eq_window_len)])
    m = cfg.mattempt
    sec("mattempt", [("temp_threshold", repr(m.temp_threshold)), ("ambient", repr(m.ambient)),
                     ("delta_tx", repr(m.delta_tx)), ("delta_rx", repr(m.delta_rx)),
                     ("cooling", repr(m.cooling)),
                     ("boost_multiplier", repr(m.boost_multiplier)),
                     ("hello_period", m.hello_period)])
    sec("simple", [("control_period", cfg.simple.control_period)])
    return out.getvalue()
