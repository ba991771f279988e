"""Experiment configuration: defaults, INI-style parsing and rendering.

The config format is a flat-sectioned key=value document:

    [sim]
    rounds = 10000
    protocol = amhrp

    [energy]
    x_d = 7e-6

Sections: sim, energy, channel, events, vitals, schedule, amhrp, mattempt,
simple. A section's scalar keys are the bool/int/float/str fields of its
dataclass (``[sim]``: SimConfig's own; ``events.lambda`` is the field
``lam``), declared nowhere else; ``channel.nlos_pairs``, the vital bands and
the schedule periods have their own syntax. Unknown sections or keys are
hard errors, every constraint violation is reported with its key path, and
unspecified keys take the defaults below (19 nodes, 10000 rounds, 0.5 J,
2.4 GHz, AMHRP). The external-WSN send cost x_w is pinned to 100 * x_d:
leaving it unset derives it, setting it to anything else is rejected unless
unconstrained weights are explicitly allowed.
"""
from __future__ import annotations

import configparser
import functools
import io
import math
import typing
from dataclasses import dataclass, field, fields, replace

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
    # Every range check below lets NaN through, so non-finite floats go first.
    for name in _SECTIONS:
        obj = _section(cfg, name)
        for key, (attr, typ) in _scalar_keys(type(obj)).items():
            if typ is float and not math.isfinite(getattr(obj, attr)):
                problems.append(f"{name}.{key}: must be finite")
    if cfg.node_count < 1:
        problems.append("sim.node_count: must be >= 1")
    if cfg.rounds < 0:
        problems.append("sim.rounds: must be >= 0")
    if cfg.seed < 0:
        problems.append("sim.seed: must be >= 0")
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
    # draw from is caught here, before round 0, as is a kind with no sensing
    # period. Node i carries ALL_KINDS[i % 19].
    for kind in ALL_KINDS[:cfg.node_count]:
        if kind not in cfg.vitals.bands:
            problems.append(f"vitals.{kind.value}: no band configured")
        elif cfg.events.lam > 0 and not has_critical_region(kind, cfg.vitals):
            problems.append(f"vitals.{kind.value}: no out-of-band region to draw "
                            "event readings from (events.lambda > 0)")
        if kind not in cfg.schedule.periods:
            problems.append(f"schedule.{kind.value}: no sensing period configured")
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

_SECTIONS = ("sim", "energy", "channel", "events", "vitals", "schedule",
             "amhrp", "mattempt", "simple")
_KIND_BY_NAME = {k.value: k for k in SensorKind}
_BP_KEYS = ("blood_pressure_systolic", "blood_pressure_diastolic")
_INI_KEY = {"lam": "lambda"}  # field -> INI key where they differ ("lambda" is a keyword)


def _section(cfg: SimConfig, name: str):
    """The dataclass holding a section's scalar keys: ``[sim]`` is SimConfig's own."""
    return cfg if name == "sim" else getattr(cfg, name)


@functools.cache
def _scalar_keys(cls: type) -> dict[str, tuple[str, type]]:
    """INI key -> (field, type) for each bool, int, float or str field of a
    section dataclass, in declaration order: exactly the section's scalar keys."""
    hints = typing.get_type_hints(cls)
    return {_INI_KEY.get(f.name, f.name): (f.name, hints[f.name])
            for f in fields(cls) if hints[f.name] in (bool, int, float, str)}


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


def _parse_scalars(name: str, cls: type, raw: dict[str, str],
                   problems: list[str]) -> dict[str, object]:
    """Field overrides from one section's keys; a key that names no scalar
    field of ``cls`` is unknown."""
    keys = _scalar_keys(cls)
    over = {}
    for key, text in raw.items():
        if key not in keys:
            problems.append(f"unknown key {name}.{key}")
            continue
        attr, typ = keys[key]
        over[attr] = _parse_scalar(text, typ, f"{name}.{key}", problems)
    return over


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


def _parse_bands(raw: dict[str, str], problems: list[str]) -> dict:
    """The default bands overridden by the ``[vitals]`` keys named after a
    sensor kind or a blood-pressure component; those keys leave ``raw``."""
    bands = default_bands()
    for key in [k for k in raw if k in _KIND_BY_NAME or k in _BP_KEYS]:
        text, path = raw.pop(key), f"vitals.{key}"
        if key in _BP_KEYS:
            vals = _parse_floats(text, path, problems)
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
        elif _KIND_BY_NAME[key] is SensorKind.BLOOD_PRESSURE:
            problems.append(f"{path}: use blood_pressure_systolic/_diastolic")
        else:
            band = _parse_band(text, path, problems)
            if band is not None:
                bands[_KIND_BY_NAME[key]] = band
    return bands


def _parse_pairs(raw: str, problems: list[str]) -> tuple[tuple[int, int], ...]:
    pairs = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        parts = tok.split("-")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except (ValueError, IndexError):
            problems.append(f"channel.nlos_pairs: expected 'i-j' pairs, got {tok!r}")
    return tuple(pairs)


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
    for section in cp.sections():
        if section not in _SECTIONS:
            problems.append(f"unknown section [{section}]")
    if cp.defaults():
        for key in cp.defaults():
            problems.append(f"key {key!r} outside any section")

    cfg = SimConfig()
    raw = {name: dict(cp[name]) if cp.has_section(name) else {} for name in _SECTIONS}
    # Keys that are not scalar fields, each with its own syntax.
    nlos_pairs = _parse_pairs(raw["channel"].pop("nlos_pairs", ""), problems)
    bands = _parse_bands(raw["vitals"], problems)
    schedule = raw.pop("schedule")
    over = {name: _parse_scalars(name, type(_section(cfg, name)), keys, problems)
            for name, keys in raw.items()}
    energy = over["energy"]
    if "x_d" in energy and "x_w" not in energy:
        energy["x_w"] = 100.0 * energy["x_d"]
    over["vitals"]["bands"] = bands
    cfg = replace(cfg, **over.pop("sim"), nlos_pairs=nlos_pairs)
    cfg = replace(cfg, **{name: replace(getattr(cfg, name), **o) for name, o in over.items()})

    periods = default_schedule(cfg.events.rounds_per_day)
    for key, text in schedule.items():
        if key not in _KIND_BY_NAME:
            problems.append(f"unknown key schedule.{key}")
            continue
        periods[_KIND_BY_NAME[key]] = _parse_scalar(text, int, f"schedule.{key}", problems)
    cfg = replace(cfg, schedule=SensingSchedule(periods=periods))

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

def _band_pairs(bands: dict) -> list[tuple[str, str]]:
    pairs = []
    for kind in SensorKind:
        band = bands[kind]
        if kind is SensorKind.BLOOD_PRESSURE:
            s, d = band.systolic, band.diastolic
            pairs.append(("blood_pressure_systolic",
                          f"{s.lower!r}, {s.upper!r}, {s.env_low!r}, {s.env_high!r}, "
                          f"{band.systolic_high!r}"))
            pairs.append(("blood_pressure_diastolic",
                          f"{d.lower!r}, {d.upper!r}, {d.env_low!r}, {d.env_high!r}, "
                          f"{band.diastolic_high!r}"))
        else:
            spec = f"{band.lower!r}, {band.upper!r}, {band.env_low!r}, {band.env_high!r}"
            if band.hard is not None:
                spec += f", {band.hard!r}"
            pairs.append((kind.value, spec))
    return pairs


def render_config(cfg: SimConfig) -> str:
    """Serialize a config so that ``parse_config(render_config(cfg)) == cfg``."""
    sections = {}
    for name in _SECTIONS:
        obj = _section(cfg, name)
        sections[name] = [(key, getattr(obj, attr))
                          for key, (attr, _) in _scalar_keys(type(obj)).items()]
    if cfg.nlos_pairs:
        sections["channel"].append(
            ("nlos_pairs", ", ".join(f"{a}-{b}" for a, b in cfg.nlos_pairs)))
    sections["vitals"][:0] = _band_pairs(cfg.vitals.bands)
    sections["schedule"] = [(k.value, cfg.schedule.periods[k]) for k in SensorKind]

    out = io.StringIO()
    for name, pairs in sections.items():
        out.write(f"[{name}]\n")
        for key, val in pairs:
            if isinstance(val, bool):
                val = "true" if val else "false"
            out.write(f"{key} = {val}\n")
        out.write("\n")
    return out.getvalue()
