"""Log-distance path loss with optional log-normal shadowing.

Loss in dB at distance d from a transmitter is

    PL(d) = PL0 + 10 * n * log10(d / d0) + X_sigma

where PL0 is the free-space loss at the reference distance d0 and n is the
path-loss exponent of the on-body link class: line of sight or non line of
sight, as in the IEEE 802.15.6 on-body channel model. ``path_loss`` gives
the deterministic part; X_sigma, a zero-mean Gaussian shadowing term with
standard deviation ``sigma_db``, is drawn and added by the engine, so this
module holds no random state.

PL0 is computed as 20*log10(4*pi*d0*f / c), the standard free-space form,
so the carrier frequency enters the loss only through PL0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import bounded

SPEED_OF_LIGHT = 299792458.0


class LinkClass(Enum):
    LOS = "los"
    NLOS = "nlos"


@dataclass(frozen=True)
class ChannelParams:
    frequency: float = bounded(2.4e9, gt=0)
    d0: float = bounded(0.1, gt=0)
    exponent_los: float = bounded(3.5, ge=2, le=4)
    exponent_nlos: float = bounded(6.0, ge=5, le=7.4)
    sigma_db: float = bounded(0.0, ge=0)

    def exponent(self, link: LinkClass) -> float:
        return self.exponent_los if link is LinkClass.LOS else self.exponent_nlos


def reference_path_loss(p: ChannelParams) -> float:
    """Free-space loss at the reference distance, in dB."""
    return 20.0 * math.log10(4.0 * math.pi * p.d0 * p.frequency / SPEED_OF_LIGHT)


def path_loss(p: ChannelParams, d: float, link: LinkClass = LinkClass.LOS) -> float:
    """Unshadowed loss in dB over a link of length ``d`` meters."""
    if d <= 0:
        raise ValueError(f"path_loss requires d > 0, got {d}")
    n = p.exponent(link)
    return reference_path_loss(p) + 10.0 * n * math.log10(d / p.d0)

