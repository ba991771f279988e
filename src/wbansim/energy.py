"""Weighted per-action energy budget.

Every chargeable action has a fixed cost in joules: self-computation,
a send to the destined node, a send to the external WSN gateway, a packet
forward, and a control-packet exchange. A round's budget is the weighted
sum of action frequencies. Energy never couples to transmission distance;
path loss is a reported metric, not an energy input. The engine's
``_Sim.charge`` debits each action's cost from its node and applies the
death threshold ``x_t``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import bounded


@dataclass(frozen=True)
class EnergyWeights:
    x_s: float = bounded(ge=0)  # self-computation / sensing
    x_d: float = bounded(ge=0)  # send to destined node (forwarder or sink)
    x_w: float = bounded(ge=0)  # send to external WSN gateway
    x_f: float = bounded(ge=0)  # forward one packet at a relay
    x_c: float = bounded(ge=0)  # control-packet exchange
    x_t: float = bounded(ge=0)  # death threshold: a node dies when residual would not stay above it


@dataclass(frozen=True)
class ActionCounts:
    n1: int = 0  # self-computations
    n2: int = 0  # destined sends
    n3: int = 0  # external WSN sends
    n4: int = 0  # forwards
    n5: int = 0  # control exchanges


def round_cost(w: EnergyWeights, c: ActionCounts) -> float:
    """Energy for one accounting window: n1*x_s + n2*x_d + n3*x_w + n4*x_f + n5*x_c."""
    return c.n1 * w.x_s + c.n2 * w.x_d + c.n3 * w.x_w + c.n4 * w.x_f + c.n5 * w.x_c
