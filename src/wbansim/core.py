"""Domain types, body-plane geometry and topology construction.

The body is modelled as a 2D plane, 0.8 m wide by 1.8 m tall, origin at the
bottom-left corner. The sink (the body-central collector) sits at the plane
center, ``SINK_POSITION``; it has an unbounded power source, so its energy is
not tracked. Nodes are placed either uniformly at random inside the plane or on a
fixed coordinate table laid out like a standing adult (head, trunk, limbs).
"""
from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

PLANE_WIDTH = 0.8
PLANE_HEIGHT = 1.8


class Bound(NamedTuple):
    """The allowed values of one config key: an interval from ``lo`` up to
    ``hi`` (unbounded above when None), or one of ``choices``."""
    lo: float | None
    hi: float | None
    lo_open: bool
    hi_open: bool
    choices: tuple[str, ...]

    def violation(self, v) -> str | None:
        """Why ``v`` is not allowed, or None when it is."""
        if self.choices:
            return None if v in self.choices else "must be one of " + ", ".join(self.choices)
        if ((v > self.lo if self.lo_open else v >= self.lo)
                and (self.hi is None or (v < self.hi if self.hi_open else v <= self.hi))):
            return None
        if self.hi is None:
            return f"must be {'>' if self.lo_open else '>='} {_number(self.lo)}"
        return (f"must lie in {'(' if self.lo_open else '['}{_number(self.lo)}, "
                f"{_number(self.hi)}{')' if self.hi_open else ']'}")


def _number(x) -> str:
    """An int bound in full (1000000, not 1e+06), a float one in short form."""
    return str(x) if isinstance(x, int) else f"{x:g}"


def bounded(default=MISSING, *, ge=None, gt=None, le=None, lt=None, choices=()):
    """A config dataclass field with its allowed values declared beside it:
    at least ``ge`` or above ``gt``, at most ``le`` or below ``lt``, or one
    of ``choices``. ``validate_config`` checks every such field."""
    bound = Bound(gt if ge is None else ge, lt if le is None else le,
                  gt is not None, lt is not None, tuple(choices))
    return field(default=default, metadata={"bound": bound})


class SensorKind(Enum):
    ECG = "ecg"
    BLOOD_PRESSURE = "blood_pressure"
    GLUCOSE = "glucose"
    INSULIN = "insulin"
    EMG = "emg"
    TEMPERATURE = "temperature"
    SPO2 = "spo2"
    ENZYME_TEST = "enzyme_test"
    RESPIRATION = "respiration"
    TOXIN = "toxin"
    LACTIC_ACID = "lactic_acid"
    TILT = "tilt"
    PH = "ph"
    DNA_PROTEIN = "dna_protein"
    MOTION = "motion"
    PULSE_RATE = "pulse_rate"
    HEART_RATE = "heart_rate"
    PRESSURE = "pressure"
    POSITIONING = "positioning"


class PacketKind(Enum):
    NORMAL = "normal"
    CRITICAL = "critical"


@dataclass(frozen=True)
class BodyPoint:
    x: float
    y: float


SINK_POSITION = BodyPoint(PLANE_WIDTH / 2.0, PLANE_HEIGHT / 2.0)


@dataclass
class SensorNode:
    id: int
    kind: SensorKind
    position: BodyPoint
    residual_energy: float
    temperature: float = 37.0  # used by the thermal-aware baseline only
    tx_range: float = 0.6
    alive: bool = True


def distance(a: BodyPoint, b: BodyPoint) -> float:
    """Euclidean distance between two body-plane points, in meters."""
    return math.hypot(a.x - b.x, a.y - b.y)


# Fixed on-body layout for a standing adult on the 0.8 x 1.8 m plane.
# One entry per sensor kind; order defines node ids in CanonicalBody mode.
CANONICAL_LAYOUT: tuple[tuple[SensorKind, float, float], ...] = (
    (SensorKind.ECG, 0.35, 1.25),
    (SensorKind.BLOOD_PRESSURE, 0.12, 1.05),
    (SensorKind.GLUCOSE, 0.50, 0.95),
    (SensorKind.INSULIN, 0.30, 0.95),
    (SensorKind.EMG, 0.25, 0.45),
    (SensorKind.TEMPERATURE, 0.40, 1.62),
    (SensorKind.SPO2, 0.08, 0.78),
    (SensorKind.ENZYME_TEST, 0.55, 0.85),
    (SensorKind.RESPIRATION, 0.45, 1.30),
    (SensorKind.TOXIN, 0.62, 0.95),
    (SensorKind.LACTIC_ACID, 0.55, 0.45),
    (SensorKind.TILT, 0.40, 1.10),
    (SensorKind.PH, 0.45, 0.72),
    (SensorKind.DNA_PROTEIN, 0.30, 0.72),
    (SensorKind.MOTION, 0.68, 0.78),
    (SensorKind.PULSE_RATE, 0.70, 0.76),
    (SensorKind.HEART_RATE, 0.38, 1.22),
    (SensorKind.PRESSURE, 0.60, 1.05),
    (SensorKind.POSITIONING, 0.40, 0.18),
)

ALL_KINDS: tuple[SensorKind, ...] = tuple(k for k, _, _ in CANONICAL_LAYOUT)


def format_layout() -> str:
    """Render the canonical coordinate table, one `id,kind,x,y` line per node."""
    lines = []
    for i, (kind, x, y) in enumerate(CANONICAL_LAYOUT):
        lines.append(f"{i},{kind.value},{x},{y}")
    return "\n".join(lines) + "\n"


def build_topology(config, rng: np.random.Generator) -> list[SensorNode]:
    """Place ``config.node_count`` sensor nodes on the body plane.

    ``uniform`` placement draws positions from the given random stream and is
    a pure function of the stream state; ``canonical`` uses the fixed layout
    table (``validate_config`` caps its node count at the table's length).
    Kinds are assigned in layout-table order either way, so node i always
    carries the same sensor kind across placements and seeds.
    """
    n = config.node_count
    canonical = config.placement == "canonical"
    coords = None if canonical else rng.random((n, 2))
    nodes: list[SensorNode] = []
    for i in range(n):
        if canonical:
            _, x, y = CANONICAL_LAYOUT[i]
            pos = BodyPoint(x, y)
        else:
            pos = BodyPoint(coords[i, 0] * PLANE_WIDTH, coords[i, 1] * PLANE_HEIGHT)
        nodes.append(SensorNode(id=i, kind=ALL_KINDS[i % len(ALL_KINDS)], position=pos,
                                residual_energy=config.initial_energy,
                                tx_range=config.tx_range))
    return nodes
