"""Round-based simulation loop.

One round is a full TDMA frame: every node owns one slot, slots run in id
order, and a node may only originate traffic in its own slot. Within a slot
the node takes any due scheduled reading plus a Poisson-distributed number
of emergency readings, classifies each against its vital band, and hands the
resulting packets to the active routing protocol. Multi-hop packets traverse
their whole path inside the originating round; there is no per-hop queue.

Determinism: a run is a pure function of (config, seed). The master seed is
split into independent streams per concern (topology, events, shadowing).
Event counts are drawn for every node id each round whether or not the node
is alive, and readings are drawn in id order for every due reading and
event, so the scheduled-sensing and event streams are identical across
protocols under a shared seed. Metric differences between protocols are
therefore attributable to routing alone.

Charging follows last-gasp semantics: the action a dying node paid for still
completes, so its final transmission is delivered before it falls silent.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import LinkClass, path_loss
from .config import SimConfig, validate_config
from .core import PacketKind, SensorKind, SensorNode, build_topology, distance
from .energy import ActionCounts
from .events import invert_poisson, poisson_cdf_table, sample_reading
from .protocols import (EquilibriumProfile, MattemptState, RouteAction,
                        RoutingDecision, amhrp_select_forwarder,
                        mattempt_build_hopcounts, mattempt_next_hop,
                        mattempt_temperature_step, simple_select_forwarder)

SINK_ID = -1  # receiver id used for node-to-sink links in audit records


@dataclass
class RoundMetrics:
    round: int
    alive_count: int
    packets_sent: int
    packets_received_at_sink: int
    critical_received: int
    total_residual: float
    mean_residual: float
    mean_path_loss: float | None  # None when nothing transmitted this round
    equilibrium_ok: bool


@dataclass
class RunSummary:
    protocol: str
    seed: int
    stability_period: int    # first node death round; sentinel = rounds when none
    network_lifetime: int    # last node death round; sentinel = rounds when any survive
    throughput_pct: float | None  # None when nothing was ever sent
    final_total_residual: float
    residual_pct_at_end: float
    packets_sent_total: int
    packets_received_total: int


@dataclass
class RunAudit:
    """Verification extras: not part of the reported metrics."""
    drained_total: float
    traffic: list[tuple[int, int, int, bool]] | None  # (round, node, events, due)
    links: list[tuple[int, int, int, bool]] | None    # (round, tx, rx, tx_alive)


class RunResult(NamedTuple):
    metrics: list[RoundMetrics]
    summary: RunSummary
    audit: RunAudit


def assign_tdma(nodes: list[SensorNode]) -> dict[int, int]:
    """Bijective node id -> slot map; slots run in id order, frame length n."""
    if not nodes:
        raise ValueError("assign_tdma requires a non-empty node list")
    return {n.id: slot for slot, n in enumerate(sorted(nodes, key=lambda n: n.id))}


def throughput(received: int, sent: int) -> float:
    """Delivery ratio in percent: 100 * received / sent."""
    if sent < 0 or received < 0 or received > sent:
        raise ValueError("need 0 <= received <= sent")
    if sent == 0:
        raise ValueError("throughput undefined: no packets sent")
    return 100.0 * received / sent


def summarize_run(metrics: list[RoundMetrics], config: SimConfig,
                  protocol: str | None = None, seed: int | None = None) -> RunSummary:
    n = config.node_count
    sentinel = config.rounds
    stability = sentinel
    lifetime = sentinel
    for m in metrics:
        if m.alive_count < n:
            stability = m.round
            break
    for m in metrics:
        if m.alive_count == 0:
            lifetime = m.round
            break
    sent = sum(m.packets_sent for m in metrics)
    received = sum(m.packets_received_at_sink for m in metrics)
    pct = throughput(received, sent) if sent > 0 else None
    final_residual = metrics[-1].total_residual if metrics else n * config.initial_energy
    return RunSummary(
        protocol=protocol if protocol is not None else config.protocol,
        seed=seed if seed is not None else config.seed,
        stability_period=stability,
        network_lifetime=lifetime,
        throughput_pct=pct,
        final_total_residual=final_residual,
        residual_pct_at_end=100.0 * final_residual / (n * config.initial_energy),
        packets_sent_total=sent,
        packets_received_total=received,
    )


# ---------------------------------------------------------------------------
# Per-run state
# ---------------------------------------------------------------------------

class _EquilibriumTracker:
    """Rolls the last l traffic-mix windows into the diagnostic series."""

    def __init__(self, cfg: SimConfig):
        self.window_len = cfg.amhrp.eq_window_len
        self.l = cfg.amhrp.eq_windows
        self.windows: deque[tuple[int, int, int]] = deque(maxlen=self.l)
        self.cur_total = 0
        self.cur_forwards = 0
        self.cur_sends = 0
        self.rounds_in_window = 0
        self.L = max(1, cfg.rounds)
        self.a0 = cfg.initial_energy
        self.alpha_star = cfg.amhrp.alpha_star

        self._coeffs_a: list[float] = []
        self._coeffs_b: list[float] = []

    def push_round(self, counts: ActionCounts) -> None:
        self.cur_total += counts.n1 + counts.n2 + counts.n3 + counts.n4 + counts.n5
        self.cur_forwards += counts.n4
        self.cur_sends += counts.n2
        self.rounds_in_window += 1
        if self.rounds_in_window >= self.window_len:
            self.windows.append((self.cur_forwards, self.cur_sends, self.cur_total))
            self.cur_total = self.cur_forwards = self.cur_sends = 0
            self.rounds_in_window = 0
            self._coeffs_a = [f / t if t else 0.0 for f, _s, t in self.windows]
            self._coeffs_b = [s / t if t else 0.0 for _f, s, t in self.windows]

    def profile(self) -> EquilibriumProfile:
        pad = self.l - len(self._coeffs_a)
        return EquilibriumProfile(
            a0=self.a0,
            coeffs_a=tuple(self._coeffs_a) + (0.0,) * pad,
            coeffs_b=tuple(self._coeffs_b) + (0.0,) * pad,
            L=self.L, alpha_star=self.alpha_star)

    def flag(self, round_index: int) -> bool:
        # Inline of equilibrium_ok(self.profile(), x): the zero padding past
        # the filled windows contributes nothing to the series.
        x = min(round_index, self.L)
        base = math.pi * x / self.L
        total = self.a0
        for n, (ca, cb) in enumerate(zip(self._coeffs_a, self._coeffs_b), start=1):
            total += ca * math.sin(n * base) + cb * math.cos(n * base)
        return total > self.alpha_star


class _Sim:
    def __init__(self, cfg: SimConfig, record_traffic: bool, record_links: bool):
        validate_config(cfg)
        self.cfg = cfg
        root = np.random.SeedSequence(cfg.seed)
        topo_ss, events_ss, shadow_ss = root.spawn(3)
        self.events_rng = np.random.Generator(np.random.PCG64(events_ss))
        self.shadow_rng = np.random.Generator(np.random.PCG64(shadow_ss))

        self.nodes, self.sink = build_topology(cfg, np.random.Generator(np.random.PCG64(topo_ss)))
        self.n = cfg.node_count
        self.alive_count = self.n  # decremented by _charge on each death

        # Static geometry caches.
        self.d_sink = {nd.id: distance(nd.position, self.sink.position) for nd in self.nodes}
        self.adjacency: dict[int, list[int]] = {nd.id: [] for nd in self.nodes}
        nlos = {frozenset(p) for p in cfg.nlos_pairs}
        self.loss_pair: dict[tuple[int, int], float] = {}
        for a in self.nodes:
            for b in self.nodes:
                if a.id >= b.id:
                    continue
                d = distance(a.position, b.position)
                if d <= cfg.tx_range:
                    self.adjacency[a.id].append(b.id)
                    self.adjacency[b.id].append(a.id)
                if d > 0:
                    link = LinkClass.NLOS if frozenset((a.id, b.id)) in nlos else LinkClass.LOS
                    loss = path_loss(cfg.channel, d, link)
                    self.loss_pair[(a.id, b.id)] = loss
                    self.loss_pair[(b.id, a.id)] = loss
        self.loss_sink = {
            nd.id: path_loss(cfg.channel, self.d_sink[nd.id], LinkClass.LOS)
            for nd in self.nodes if self.d_sink[nd.id] > 0
        }
        self.sink_reach = [nd.id for nd in self.nodes if self.d_sink[nd.id] <= cfg.tx_range]

        self.poisson_cdf = poisson_cdf_table(cfg.events.lam)
        # Node ids grouped by sensing period, each group in id order.
        groups: dict[int, list[int]] = {}
        for nd in self.nodes:
            groups.setdefault(cfg.schedule.periods[nd.kind], []).append(nd.id)
        self.period_groups = list(groups.items())
        self.eq = _EquilibriumTracker(cfg)
        self.drained_total = 0.0
        self.x_t = cfg.energy.x_t
        self._refresh_neighbor_cache()
        self.traffic_log: list[tuple[int, int, int, bool]] | None = [] if record_traffic else None
        self.links_log: list[tuple[int, int, int, bool]] | None = [] if record_links else None

        # Per-round working state (plain ints: this is the hot loop).
        self.c1 = self.c2 = self.c3 = self.c4 = self.c5 = 0
        self.round_pairs: dict[tuple[int, int], None] = {}
        self.round_sent = 0
        self.round_received = 0
        self.round_critical = 0

        # Protocol state.
        proto = cfg.protocol
        self.mattempt_state: MattemptState | None = None
        self._usable: list[bool] | None = None  # usable flags mattempt_state was built from
        self.heat_tx = [0] * self.n
        self.heat_rx = [0] * self.n
        self.simple_forwarder: int | None = None
        self.simple_parked = 0
        if proto == "mattempt":
            for nd in self.nodes:
                nd.temperature = cfg.mattempt.ambient

    # -- charging helpers ---------------------------------------------------

    def _charge(self, node: SensorNode, cost: float) -> bool:
        """Inline of energy.charge (the innermost loop); returns True on death."""
        if not node.alive:
            raise RuntimeError(f"charge on dead node {node.id} (engine bug)")
        if node.residual_energy - cost > self.x_t:
            node.residual_energy -= cost
            self.drained_total += cost
            return False
        self.drained_total += node.residual_energy
        node.residual_energy = 0.0
        node.alive = False
        self.alive_count -= 1
        self._deaths_pending = True
        return True


    # -- link bookkeeping ---------------------------------------------------

    def _record_link(self, rnd: int, tx: SensorNode, rx_id: int) -> None:
        self.round_pairs[(tx.id, rx_id)] = None
        if self.links_log is not None:
            self.links_log.append((rnd, tx.id, rx_id, tx.alive))

    # -- per-protocol control phases ----------------------------------------

    def _begin_round(self, rnd: int) -> None:
        cfg = self.cfg
        proto = cfg.protocol
        if proto == "amhrp":
            # Nodes start knowing each other's location, so the first
            # residual-energy beacon exchange happens a full period in.
            if rnd > 0 and rnd % cfg.amhrp.control_period == 0:
                for nd in self.nodes:
                    if nd.alive:
                        self.c5 += 1
                        self._charge(nd, cfg.energy.x_c)
        elif proto == "mattempt":
            if rnd % cfg.mattempt.hello_period == 0:
                for nd in self.nodes:
                    if nd.alive:
                        self.c5 += 1
                        self._charge(nd, cfg.energy.x_c)
                # The hop counts are a pure function of the usable set (the
                # adjacency is static): rebuild only when that set changed.
                threshold = cfg.mattempt.temp_threshold
                usable = [nd.alive and nd.temperature <= threshold for nd in self.nodes]
                if usable != self._usable:
                    self._usable = usable
                    self.mattempt_state = mattempt_build_hopcounts(
                        self.nodes, self.sink, cfg.tx_range, cfg.mattempt,
                        adjacency=self.adjacency, sink_reach=self.sink_reach)
        elif proto == "simple":
            if rnd % cfg.simple.control_period == 0:
                for nd in self.nodes:
                    if nd.alive:
                        self.c5 += 1
                        self._charge(nd, cfg.energy.x_c)
            self.simple_forwarder = simple_select_forwarder(self.nodes, self.sink, self.d_sink)
            self.simple_parked = 0

    def _refresh_neighbor_cache(self) -> None:
        """Per node, the alive in-range neighbors a routing rule may pick;
        for AMHRP only those strictly closer to the sink, the only ones its
        rule accepts. Refreshed at round start after deaths, so mid-round it
        is a superset of the live candidates (the select functions re-check
        aliveness)."""
        nodes, d = self.nodes, self.d_sink
        closer_only = self.cfg.protocol == "amhrp"
        self._neighbor_cache = [
            [nodes[j] for j in self.adjacency[i]
             if nodes[j].alive and not (closer_only and d[j] >= d[i])]
            for i in range(self.n)
        ]
        self._deaths_pending = False

    def _decide(self, holder: SensorNode, kind: PacketKind) -> RoutingDecision:
        proto = self.cfg.protocol
        if proto == "amhrp":
            return amhrp_select_forwarder(
                holder, self._neighbor_cache[holder.id], self.sink, kind, self.d_sink)
        if proto == "mattempt":
            return mattempt_next_hop(
                holder, kind, self.mattempt_state, self._neighbor_cache[holder.id],
                self.sink, self.d_sink)
        # SIMPLE: critical packets and the ECG node go straight to the sink,
        # everything else goes to the round's elected forwarder.
        fw = self.simple_forwarder
        if (kind is PacketKind.CRITICAL or holder.kind is SensorKind.ECG
                or fw is None or fw == holder.id or not self.nodes[fw].alive):
            return RoutingDecision(RouteAction.SEND_TO_SINK)
        return RoutingDecision(RouteAction.SEND_TO_FORWARDER, target=fw)

    def _effective_temp(self, node: SensorNode) -> float:
        p = self.cfg.mattempt
        return node.temperature + self.heat_tx[node.id] * p.delta_tx \
            + self.heat_rx[node.id] * p.delta_rx

    # -- packet routing -----------------------------------------------------

    def _route_packet(self, rnd: int, origin: SensorNode, kind: PacketKind) -> None:
        """Walk one packet from its originator toward the sink."""
        cfg = self.cfg
        w = cfg.energy
        holder = origin
        is_origin = True
        for _hop in range(self.n + 2):
            decision = self._decide(holder, kind)
            act = decision.action

            if act is RouteAction.HOLD:
                # Origin: nothing transmitted. Relay: packet already counted
                # as sent; it is dropped here (no queueing across rounds).
                return

            if act is RouteAction.SEND_TO_EXTERNAL_WSN:
                self.c3 += 1
                self.heat_tx[holder.id] += 1
                self._charge(holder, w.x_w)
                if is_origin:
                    self.round_sent += 1
                # Off-body receiver: no on-body link pair to record.
                return

            if act is RouteAction.SEND_TO_SINK:
                cost = w.x_d if is_origin else w.x_f
                if decision.boosted:
                    cost = w.x_d * cfg.mattempt.boost_multiplier
                if is_origin:
                    self.c2 += 1
                else:
                    self.c4 += 1
                self.heat_tx[holder.id] += 1
                self._record_link(rnd, holder, SINK_ID)
                self._charge(holder, cost)
                if is_origin:
                    self.round_sent += 1
                self.round_received += 1
                if kind is PacketKind.CRITICAL:
                    self.round_critical += 1
                return

            # SEND_TO_FORWARDER
            target = self.nodes[decision.target]
            if not target.alive:
                return  # stale choice of a mid-round casualty: packet dropped
            if cfg.protocol == "mattempt" \
                    and self._effective_temp(target) > cfg.mattempt.temp_threshold:
                # Hotspot bounce: the overheated relay sends the packet back
                # and the sender re-routes in a later round (the next hop-count
                # flood walks around it). The packet is lost for this round.
                if is_origin:
                    self.c2 += 1
                else:
                    self.c4 += 1
                self.heat_tx[holder.id] += 1
                self.heat_rx[target.id] += 1
                self._record_link(rnd, holder, target.id)
                self._charge(holder, w.x_d if is_origin else w.x_f)
                if is_origin:
                    self.round_sent += 1
                if target.alive:
                    self.c4 += 1
                    self.heat_tx[target.id] += 1
                    self.heat_rx[holder.id] += 1
                    self._record_link(rnd, target, holder.id)
                    self._charge(target, w.x_f)
                return

            cost = w.x_d if is_origin else w.x_f
            if is_origin:
                self.c2 += 1
            else:
                self.c4 += 1
            self.heat_tx[holder.id] += 1
            self.heat_rx[target.id] += 1
            self._record_link(rnd, holder, target.id)
            self._charge(holder, cost)
            if is_origin:
                self.round_sent += 1

            if cfg.protocol == "simple":
                self.simple_parked += 1  # aggregated at end of round
                return

            holder = target
            is_origin = False
        raise RuntimeError("routing did not terminate (engine bug)")

    def _flush_simple(self, rnd: int) -> None:
        """The elected forwarder aggregates parked packets into one uplink."""
        fw = self.simple_forwarder
        k = self.simple_parked
        if fw is None or k == 0:
            return
        node = self.nodes[fw]
        if not node.alive:
            return  # forwarder died mid-round: parked packets are lost
        w = self.cfg.energy
        self.c2 += 1
        self.c4 += k
        self.heat_tx[fw] += 1
        self._record_link(rnd, node, SINK_ID)
        self._charge(node, w.x_d + k * w.x_f)
        self.round_received += k  # parked packets are all normal traffic

    # -- one round ----------------------------------------------------------

    def run_round(self, rnd: int) -> RoundMetrics:
        cfg = self.cfg
        self.c1 = self.c2 = self.c3 = self.c4 = self.c5 = 0
        self.round_pairs = {}
        self.round_sent = 0
        self.round_received = 0
        self.round_critical = 0

        if self._deaths_pending:
            self._refresh_neighbor_cache()

        # Event counts are drawn for every node id, dead or alive, so the
        # stream consumed is identical across protocols under a shared seed.
        counts = invert_poisson(self.poisson_cdf, self.events_rng.random(self.n)).tolist()
        due = {i for period, ids in self.period_groups if rnd % period == 0 for i in ids}
        if self.traffic_log is not None:
            self.traffic_log.extend((rnd, i, counts[i], i in due) for i in range(self.n))
        # Only nodes with a due reading or an event draw readings, in id
        # order; slots run in id order too (assign_tdma), so this list is
        # also the transmit order.
        originators: list[tuple[SensorNode, list[tuple[PacketKind, object]]]] = []
        for i, k in enumerate(counts):
            if not (k or i in due):
                continue
            nd = self.nodes[i]
            pkts: list[tuple[PacketKind, object]] = []
            if i in due:
                pkts.append((PacketKind.NORMAL,
                             sample_reading(nd.kind, False, cfg.vitals, self.events_rng)))
            for _ in range(k):
                pkts.append((PacketKind.CRITICAL,
                             sample_reading(nd.kind, True, cfg.vitals, self.events_rng)))
            originators.append((nd, pkts))

        self._begin_round(rnd)

        for node, pkts in originators:
            if not node.alive:
                continue
            for kind, _payload in pkts:
                self.c1 += 1
                if self._charge(node, cfg.energy.x_s):
                    break  # the reading completed, but a dead node sends nothing
                self._route_packet(rnd, node, kind)
                if not node.alive:
                    break

        self._flush_simple(rnd)

        if cfg.protocol == "mattempt":
            p = cfg.mattempt
            for nd in self.nodes:
                if nd.alive:
                    nd.temperature = mattempt_temperature_step(
                        p, nd.temperature, self.heat_tx[nd.id], self.heat_rx[nd.id])
            self.heat_tx = [0] * self.n
            self.heat_rx = [0] * self.n

        self.eq.push_round(ActionCounts(self.c1, self.c2, self.c3, self.c4, self.c5))

        losses = []
        if self.cfg.channel.sigma_db > 0:
            shadows = self.shadow_rng.normal(0.0, self.cfg.channel.sigma_db,
                                             size=len(self.round_pairs))
        else:
            shadows = None
        for idx, (tx, rx) in enumerate(self.round_pairs):
            base = self.loss_sink.get(tx) if rx == SINK_ID else self.loss_pair.get((tx, rx))
            if base is None:
                continue  # degenerate zero-length link
            losses.append(base + (float(shadows[idx]) if shadows is not None else 0.0))

        total_residual = sum(nd.residual_energy for nd in self.nodes)
        return RoundMetrics(
            round=rnd,
            alive_count=self.alive_count,
            packets_sent=self.round_sent,
            packets_received_at_sink=self.round_received,
            critical_received=self.round_critical,
            total_residual=total_residual,
            mean_residual=total_residual / self.n,
            mean_path_loss=(sum(losses) / len(losses)) if losses else None,
            equilibrium_ok=self.eq.flag(rnd),
        )


def run_simulation(config: SimConfig, *, record_traffic: bool = False,
                   record_links: bool = False) -> RunResult:
    """Execute ``config.rounds`` rounds and summarize the run.

    Early exit after the last node dies is opt-in (``stop_on_all_dead``), off
    by default so metric series line up across protocols for plotting.
    """
    sim = _Sim(config, record_traffic, record_links)
    metrics: list[RoundMetrics] = []
    for rnd in range(config.rounds):
        row = sim.run_round(rnd)
        metrics.append(row)
        if config.stop_on_all_dead and row.alive_count == 0:
            break
    summary = summarize_run(metrics, config)
    audit = RunAudit(drained_total=sim.drained_total,
                     traffic=sim.traffic_log, links=sim.links_log)
    return RunResult(metrics, summary, audit)
