"""Experiment configuration: defaults, INI-style parsing and rendering.

The config format is a flat-sectioned key=value document:

    [sim]
    rounds = 10000
    protocol = amhrp

    [energy]
    x_d = 7e-6

Sections: sim, energy, channel, events, schedule, amhrp, mattempt, simple.
A section's scalar keys are the int/float/str fields of its dataclass
(``[sim]``: SimConfig's own; ``events.lambda`` is the field ``lam``), each
with its allowed values (``core.bounded``), declared nowhere else;
``channel.nlos_pairs`` and the schedule periods have their own syntax; a
kind that ``[schedule]`` leaves unset takes its default period at
``events.rounds_per_day``.
Unknown sections or keys are hard errors, every constraint violation is
reported with its key path, and unspecified keys take the defaults below
(19 nodes, 10000 rounds, 0.5 J, 2.4 GHz, AMHRP). The external-WSN send cost
x_w is not a key: it is always 100 * x_d.
"""
from __future__ import annotations

import configparser
import functools
import io
import math
import re
import typing
from dataclasses import dataclass, field, fields, replace

from .channel import ChannelParams
from .core import ALL_KINDS, Bound, SensorKind, bounded
from .events import EventParams, SensingSchedule, default_schedule
from .protocols import MattemptParams, SimpleParams

PROTOCOLS = ("amhrp", "mattempt", "simple")
PLACEMENTS = ("uniform", "canonical")
# The cap on a run's work, in node-rounds. A live 1000-node M-ATTEMPT run,
# the dearest per node and round at the default event rate, took 17 ms per
# round and 164 MB on a 2-vCPU Xeon host, so 20000 rounds of it take under 6
# minutes; 19 nodes may run 10**6 rounds.
MAX_NODE_ROUNDS = 20_000_000
# At a high event rate a node-round weighs more: each event is a packet, and
# routing it scans up to node_count neighbours per hop. AMHRP, the dearest
# per packet, measured 2.6-3.5 us a packet at 19 live nodes, 6.6 at 100 and
# 23 at 1000 (same host), all under 0.0182 * (node_count + 260) us. Taking
# one node-round as 50 us, a node-round at rate lambda weighs
# lambda * (node_count + 260) / 2750 when that exceeds 1. The unit keeps the
# default 19-node, 10000-round run valid at the largest lambda, 1000.
_PACKET_NODES = 260
_PACKET_UNITS = 2750


def node_round_weight(node_count: int, lam: float) -> float:
    """How many node-rounds of ``MAX_NODE_ROUNDS`` one node-round at event
    rate ``lam`` counts as: 1, or more when its packets dominate."""
    return max(1.0, lam * (node_count + _PACKET_NODES) / _PACKET_UNITS)


class ConfigError(ValueError):
    """Configuration rejected; ``violations`` lists every problem found."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.violations))


@dataclass(frozen=True)
class EnergyWeights:
    """Weighted per-action energy costs, in joules.

    Every chargeable action has a fixed cost: self-computation, a send to
    the destined node, a send to the external WSN gateway, a packet forward,
    and a control-packet exchange. Energy never couples to transmission
    distance; path loss is a reported metric, not an energy input. The
    engine's ``_Sim.charge`` debits each action's cost from its node and
    applies the death threshold ``x_t``.

    The defaults are calibrated so the default AMHRP run's first node death
    lands in the 4000-5000 round window while the network keeps most of its
    charge; see docs/calibration.md for the procedure and the reasoning
    behind x_t.
    """
    x_s: float = bounded(2e-6, ge=0)  # self-computation / sensing
    x_d: float = bounded(7e-6, ge=0)  # send to destined node (forwarder or sink)
    x_f: float = bounded(1e-6, ge=0)  # forward one packet at a relay
    x_c: float = bounded(4e-6, ge=0)  # control-packet exchange
    x_t: float = bounded(0.48, ge=0)  # death threshold: a node dies when residual would not stay above it

    @property
    def x_w(self) -> float:
        """Send to the external WSN gateway: always 100 * x_d."""
        return 100.0 * self.x_d


@dataclass(frozen=True)
class AmhrpParams:
    control_period: int = bounded(10, ge=1)  # rounds between residual-energy beacon exchanges
    alpha_star: float = 0.0                  # equilibrium diagnostic threshold
    eq_windows: int = bounded(8, ge=1)       # series length l: number of logged traffic windows
    eq_window_len: int = bounded(50, ge=1)   # rounds per window


@dataclass(frozen=True)
class SimConfig:
    # The caps, with MAX_NODE_ROUNDS on their product weighted by the event
    # rate, keep one run within 1 GB, and on the host measured above within
    # about 10 minutes at any rate: the neighbour tables grow up to
    # node_count**2, and the run holds its table in memory.
    node_count: int = bounded(19, ge=1, le=1000)
    rounds: int = bounded(10000, ge=0, le=1_000_000)
    # The summary's residual_pct_at_end multiplies the total residual, up to
    # 1000 nodes * initial_energy, by 100; the cap keeps that product finite.
    initial_energy: float = bounded(0.5, gt=0, le=1e300)
    protocol: str = bounded("amhrp", choices=PROTOCOLS)
    # The summary records the seed, and read_summary_json takes only int64.
    seed: int = bounded(1, ge=0, le=2**63 - 1)
    placement: str = bounded("uniform", choices=PLACEMENTS)
    tx_range: float = bounded(0.6, gt=0)
    out_dir: str = "results"
    energy: EnergyWeights = field(default_factory=EnergyWeights)
    channel: ChannelParams = field(default_factory=ChannelParams)
    nlos_pairs: tuple[tuple[int, int], ...] = ()
    events: EventParams = field(default_factory=EventParams)
    schedule: SensingSchedule = field(default_factory=SensingSchedule)
    amhrp: AmhrpParams = field(default_factory=AmhrpParams)
    mattempt: MattemptParams = field(default_factory=MattemptParams)
    simple: SimpleParams = field(default_factory=SimpleParams)


def validate_config(cfg: SimConfig) -> None:
    """Raise ConfigError listing every violated constraint.

    Each scalar key is checked for finiteness, then against the bound its
    field declares; a rule relating several keys runs only when each of its
    keys passed its own check, so every bad value gets one message.
    """
    problems = []
    failed = set()  # the keys that failed their own check
    for name in _SECTIONS:
        obj = _section(cfg, name)
        for key, (attr, typ, bound) in _scalar_keys(type(obj)).items():
            value = getattr(obj, attr)
            why = ("must be finite" if typ is float and not math.isfinite(value)
                   else bound and bound.violation(value))
            if why:
                problems.append(f"{name}.{key}: {why}")
                failed.add(f"{name}.{key}")
    if failed.isdisjoint(("sim.node_count", "sim.rounds", "events.lambda")):
        lam = cfg.events.lam
        weight = node_round_weight(cfg.node_count, lam)
        if cfg.node_count * cfg.rounds * weight > MAX_NODE_ROUNDS:
            got = f"got {cfg.node_count} * {cfg.rounds}"
            if weight == 1.0:
                problems.append(f"sim.node_count*rounds: must be <= {MAX_NODE_ROUNDS}, {got}")
            else:
                problems.append(
                    f"sim.node_count*rounds*lambda: node_count * rounds must be <= "
                    f"{int(MAX_NODE_ROUNDS / weight)} at events.lambda = {lam!r}, {got}")
    if (failed.isdisjoint(("sim.node_count", "sim.placement"))
            and cfg.placement == "canonical" and cfg.node_count > len(ALL_KINDS)):
        problems.append(
            f"sim.node_count: canonical placement supports at most {len(ALL_KINDS)} nodes"
        )
    e = cfg.energy
    if (failed.isdisjoint(("energy.x_f", "energy.x_c", "energy.x_d"))
            and not e.x_f < e.x_c < e.x_d):
        problems.append("energy.x_f/x_c/x_d: ordering x_f < x_c < x_d is required")
    if "events.rounds_per_day" not in failed:
        try:
            default_schedule(cfg.events.rounds_per_day)
        except OverflowError:  # a day past the float range has no periods in rounds
            problems.append("events.rounds_per_day: too large to derive the sensing periods")
    problems += [f"schedule.{kind.value}: period must be >= 1"
                 for kind, period in cfg.schedule.periods.items() if period < 1]
    # The NLOS pair rule reads the node count, so it runs only when that passed.
    if "sim.node_count" not in failed:
        for a, b in cfg.nlos_pairs:
            if not (0 <= a < cfg.node_count and 0 <= b < cfg.node_count) or a == b:
                problems.append(f"channel.nlos_pairs: invalid pair {a}-{b}")
    # parse_config strips a value's outer whitespace and ends it at a line
    # break or an inline comment, so render_config could not write such an
    # out_dir back.
    out_dir = cfg.out_dir
    if (out_dir != out_dir.strip() or len(out_dir.splitlines()) > 1
            or re.search(r"(^|\s)[#;]", out_dir)):
        problems.append(f"sim.out_dir: must not start or end with whitespace, hold a line "
                        f"break, or hold '#' or ';' first or after whitespace, got {out_dir!r}")
    if problems:
        raise ConfigError(problems)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_SECTIONS = ("sim", "energy", "channel", "events", "schedule", "amhrp",
             "mattempt", "simple")
_KIND_BY_NAME = {k.value: k for k in SensorKind}
_INI_KEY = {"lam": "lambda"}  # field -> INI key where they differ ("lambda" is a keyword)


def _section(cfg: SimConfig, name: str):
    """The dataclass holding a section's scalar keys: ``[sim]`` is SimConfig's own."""
    return cfg if name == "sim" else getattr(cfg, name)


@functools.cache
def _scalar_keys(cls: type) -> dict[str, tuple[str, type, Bound | None]]:
    """INI key -> (field, type, declared bound) for each int, float or str
    field of a section dataclass, in declaration order: exactly the section's
    scalar keys."""
    hints = typing.get_type_hints(cls)
    return {_INI_KEY.get(f.name, f.name): (f.name, hints[f.name], f.metadata.get("bound"))
            for f in fields(cls) if hints[f.name] in (int, float, str)}


def _parse_scalar(raw: str, typ, path: str, problems: list[str]):
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
        attr, typ, _ = keys[key]
        over[attr] = _parse_scalar(text, typ, f"{name}.{key}", problems)
    return over


def _parse_pairs(raw: str, problems: list[str]) -> tuple[tuple[int, int], ...]:
    pairs = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            a, b = map(int, tok.split("-"))  # two ints joined by one dash
        except ValueError:
            problems.append(f"channel.nlos_pairs: expected 'i-j' pairs, got {tok!r}")
        else:
            pairs.append((a, b))
    return tuple(pairs)


def parse_config(text: str, source: str = "<string>") -> SimConfig:
    """Parse a configuration document; unspecified keys take the defaults.

    Strict mode: unknown sections or keys are errors, and all violations are
    reported together with their key paths. ``source`` names the document in
    syntax errors.
    """
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    cp.optionxform = str
    try:
        cp.read_string(text, source=source)
    except configparser.Error as exc:
        # Some messages span lines (the file, then the bad line); a violation
        # is one line.
        message = " ".join(line.strip() for line in str(exc).splitlines())
        raise ConfigError([f"parse error: {message}"]) from exc

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
    schedule = raw.pop("schedule")
    over = {name: _parse_scalars(name, type(_section(cfg, name)), keys, problems)
            for name, keys in raw.items()}
    periods = {}
    for key, text in schedule.items():
        if key not in _KIND_BY_NAME:
            problems.append(f"unknown key schedule.{key}")
            continue
        periods[_KIND_BY_NAME[key]] = _parse_scalar(text, int, f"schedule.{key}", problems)
    cfg = replace(cfg, **over.pop("sim"), nlos_pairs=nlos_pairs,
                  schedule=SensingSchedule(periods))
    cfg = replace(cfg, **{name: replace(getattr(cfg, name), **o) for name, o in over.items()})

    if problems:
        raise ConfigError(problems)
    validate_config(cfg)
    return cfg


def load_config(path: str) -> SimConfig:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # skips a byte-order mark
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError([f"{path}: not UTF-8 text: {exc}"]) from exc
    return parse_config(text, source=str(path))


# ---------------------------------------------------------------------------
# Rendering (inverse of parse_config for valid configs)
# ---------------------------------------------------------------------------

def render_config(cfg: SimConfig) -> str:
    """Serialize a config so that ``parse_config(render_config(cfg)) == cfg``."""
    sections = {}
    for name in _SECTIONS:
        obj = _section(cfg, name)
        sections[name] = [(key, getattr(obj, attr))
                          for key, (attr, _, _) in _scalar_keys(type(obj)).items()]
    if cfg.nlos_pairs:
        sections["channel"].append(
            ("nlos_pairs", ", ".join(f"{a}-{b}" for a, b in cfg.nlos_pairs)))
    sections["schedule"] = [(k.value, p) for k, p in cfg.schedule.periods.items()]

    out = io.StringIO()
    for name, pairs in sections.items():
        out.write(f"[{name}]\n")
        for key, val in pairs:
            out.write(f"{key} = {val}\n")
        out.write("\n")
    return out.getvalue()
