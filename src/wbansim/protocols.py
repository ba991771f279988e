"""Routing policies: AMHRP, the M-ATTEMPT baseline and the SIMPLE baseline.

AMHRP: a node within transmission range of the sink sends directly;
otherwise it hands the packet to the alive neighbor that is strictly closer
to the sink and has the most residual energy (ties broken by distance to
sink, then by id). A critical packet with no route escalates to the external
WSN gateway; a normal one is held.

M-ATTEMPT: hop counts are flooded from the sink each round; normal packets
follow minimum hop count, critical packets go straight to the sink with a
boosted (more expensive) transmission. Nodes above the temperature threshold
are routed around, and a relay that overheats mid-round bounces the packet
back to its sender.

SIMPLE: one common forwarder per round, the alive node minimizing
distance-to-sink / residual-energy. Everyone else sends to it, it aggregates
and relays to the sink; the ECG node and critical packets go directly to the
sink. Follows the protocol's standard published definition.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache

from .core import PacketKind, SensorKind, SensorNode, bounded


class RouteAction(Enum):
    SEND_TO_SINK = "send_to_sink"
    SEND_TO_FORWARDER = "send_to_forwarder"
    SEND_TO_EXTERNAL_WSN = "send_to_external_wsn"
    HOLD = "hold"


# Enum members read through module aliases: a member read (``Kind.MEMBER``)
# costs several times a global's, and the rules below run per packet.
_FORWARD = RouteAction.SEND_TO_FORWARDER
_CRITICAL = PacketKind.CRITICAL
_ECG = SensorKind.ECG


@dataclass(frozen=True)
class RoutingDecision:
    action: RouteAction
    target: int | None = None  # forwarder node id when SEND_TO_FORWARDER
    boosted: bool = False


# The fixed verdicts, built once: a rule returns these rather than a new
# (frozen, so slow to build) decision per packet.
TO_SINK = RoutingDecision(RouteAction.SEND_TO_SINK)
TO_SINK_BOOSTED = RoutingDecision(RouteAction.SEND_TO_SINK, boosted=True)
TO_EXTERNAL_WSN = RoutingDecision(RouteAction.SEND_TO_EXTERNAL_WSN)
HOLD = RoutingDecision(RouteAction.HOLD)


@cache
def to_forwarder(target: int) -> RoutingDecision:
    """The verdict "send to node ``target``", one shared instance per id (the
    cache holds one small immutable entry per node id ever chosen)."""
    return RoutingDecision(_FORWARD, target=target)


# ---------------------------------------------------------------------------
# AMHRP
# ---------------------------------------------------------------------------

def amhrp_select_forwarder(node: SensorNode, neighbors: list[SensorNode],
                           d_sink: dict[int, float],
                           packet_kind: PacketKind = PacketKind.NORMAL) -> RoutingDecision:
    """Pick the next hop for a packet held by ``node``.

    ``neighbors`` are the nodes within ``node.tx_range`` (dead ones are
    skipped); ``d_sink`` maps node ids to their distance from the sink.
    """
    own = d_sink[node.id]
    if own <= node.tx_range:
        return TO_SINK

    # The key is (-residual, d, id): residuals are compared first, and the
    # (d, id) tie-break is built only on an exact tie. A neighbour whose
    # residual is below the best so far can never win, so it is rejected
    # before its distance is read. That is exact: the distance test only
    # ever removes candidates, and ``not r >= best_r`` rejects just what the
    # key would (a NaN residual never wins against a best, and -0.0 ties
    # 0.0), so past it r > best_r or r == best_r.
    best = None
    best_r = best_d = 0.0
    for nb in neighbors:
        if not nb.alive or nb.id == node.id:
            continue
        r = nb.residual_energy
        if best is not None and not r >= best_r:
            continue
        d = d_sink[nb.id]
        if d >= own:
            continue
        if best is None or r > best_r or (d, nb.id) < (best_d, best.id):
            best, best_r, best_d = nb, r, d
    if best is not None:
        return to_forwarder(best.id)
    if packet_kind is _CRITICAL:
        return TO_EXTERNAL_WSN
    return HOLD


# ---------------------------------------------------------------------------
# M-ATTEMPT
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MattemptParams:
    temp_threshold: float = 38.5
    ambient: float = 37.0
    delta_tx: float = bounded(0.05, ge=0)
    delta_rx: float = bounded(0.03, ge=0)
    cooling: float = bounded(0.1, ge=0, lt=1)  # fraction of the above-ambient excess shed per round
    boost_multiplier: float = bounded(2.0, ge=1)
    hello_period: int = bounded(1, ge=1)


@dataclass
class MattemptState:
    hop_counts: dict[int, float]  # node id -> hops to sink, math.inf if unreachable


def mattempt_build_hopcounts(usable: list[bool], adjacency: dict[int, list[int]],
                             sink_reach: list[int]) -> MattemptState:
    """Breadth-first hop counts from the sink over the static in-range
    ``adjacency`` (node id to the ids within tx_range of it), starting from
    ``sink_reach`` (the ids within tx_range of the sink).

    ``usable[i]`` says whether node i may carry traffic: M-ATTEMPT's usable
    set is the nodes alive and at or below ``temp_threshold``. The others are
    excluded, which cuts every path through them; anything left unreachable
    gets an infinite hop count and will hold (or escalate) its traffic. For
    fixed positions the result is a pure function of ``usable``, so a caller
    may keep it until the flags change.
    """
    hops: dict[int, float] = dict.fromkeys(range(len(usable)), math.inf)
    frontier = [i for i in sink_reach if usable[i]]
    level = 1
    while frontier:
        nxt = []
        for i in frontier:
            if hops[i] <= level:
                continue
            hops[i] = level
            for j in adjacency[i]:
                if hops[j] == math.inf and usable[j]:
                    nxt.append(j)
        frontier = nxt
        level += 1
    return MattemptState(hop_counts=hops)


def mattempt_next_hop(node: SensorNode, packet_kind: PacketKind, state: MattemptState,
                      neighbors: list[SensorNode],
                      d_sink: dict[int, float]) -> RoutingDecision:
    """Critical traffic goes straight to the sink with a boosted transmission;
    normal traffic descends the hop-count gradient, ties going to the
    neighbour nearer the sink (``d_sink``: node id -> distance).

    ``neighbors`` are the nodes within ``node.tx_range`` (dead ones are
    skipped).
    """
    if packet_kind is _CRITICAL:
        return TO_SINK_BOOSTED

    own = state.hop_counts.get(node.id, math.inf)
    if own == 1:
        return TO_SINK
    # The key is (h, d, id): hop counts are compared first, and the (d, id)
    # tie-break is built only on an exact tie.
    hop_counts = state.hop_counts
    best = None
    best_h = best_d = 0.0
    for nb in neighbors:
        if not nb.alive or nb.id == node.id:
            continue
        h = hop_counts.get(nb.id, math.inf)
        if h >= own:
            continue
        if best is None or h < best_h:
            best, best_h, best_d = nb, h, d_sink[nb.id]
        elif h == best_h:
            d = d_sink[nb.id]
            if (d, nb.id) < (best_d, best.id):
                best, best_d = nb, d
    if best is not None:
        return to_forwarder(best.id)
    return HOLD


def mattempt_temperature_step(params: MattemptParams, nodes: list[SensorNode],
                              tx_counts: list[int], rx_counts: list[int]) -> bool:
    """End-of-round temperature update of every alive node in ``nodes``:
    exponential relaxation toward ambient plus per-transmission and
    per-reception heating, where ``nodes[i]`` sent ``tx_counts[i]`` and
    received ``rx_counts[i]`` packets this round. Dead nodes keep their
    temperature.

    Returns True when some alive node's side of ``temp_threshold`` changed
    (it crossed above the threshold, or fell back to or below it), the only
    way a step changes M-ATTEMPT's usable set.

    An idle node pays only its relaxation: a heating term is added only when
    its count is nonzero. That is exact, because the deltas are finite
    (``validate_config`` checks them), so a zero count's term is +0.0, and
    adding +0.0 moves no temperature and no comparison (it only turns a -0.0
    sum into +0.0). An active node's terms are added in the same order. The
    crossing is one comparison, on the side the old temperature was on,
    which equals ``(t <= threshold) != (new <= threshold)``, NaN included.
    """
    if nodes and (min(tx_counts) < 0 or min(rx_counts) < 0):
        raise ValueError("activity counts must be >= 0")
    ambient, threshold = params.ambient, params.temp_threshold
    keep, delta_tx, delta_rx = 1.0 - params.cooling, params.delta_tx, params.delta_rx
    crossed = False
    for nd, tx, rx in zip(nodes, tx_counts, rx_counts):
        if nd.alive:
            t = nd.temperature
            new = ambient + (t - ambient) * keep
            if tx:
                new += tx * delta_tx
            if rx:
                new += rx * delta_rx
            nd.temperature = new
            if t <= threshold:
                if not new <= threshold:
                    crossed = True
            elif new <= threshold:
                crossed = True
    return crossed


# ---------------------------------------------------------------------------
# SIMPLE
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimpleParams:
    control_period: int = bounded(1, ge=1)


def simple_select_forwarder(nodes: list[SensorNode],
                            d_sink: dict[int, float]) -> int | None:
    """Elect the round's common forwarder: argmin of distance-to-sink
    (``d_sink``: node id -> distance) over residual energy among alive
    non-ECG nodes (the ECG node always transmits directly). Returns None
    when no node is eligible."""
    # The key is (ratio, id): ratios are compared first, and the id
    # tie-break is read only on an exact tie.
    best = None
    best_q = 0.0
    for n in nodes:
        if not n.alive or n.kind is _ECG:
            continue
        r = n.residual_energy
        if r <= 0:
            continue
        q = d_sink[n.id] / r
        if best is None or q < best_q or (q == best_q and n.id < best.id):
            best, best_q = n, q
    return best.id if best is not None else None
