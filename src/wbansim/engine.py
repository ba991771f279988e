"""Round-based simulation loop.

One round is a full TDMA frame: every node owns one slot, slots run in id
order, and a node may only originate traffic in its own slot. Within a slot
the node takes any due scheduled reading (a normal packet) plus a
Poisson-distributed number of emergency readings (one critical packet each)
and hands the packets to the active routing protocol. Multi-hop packets
traverse their whole path inside the originating round; there is no per-hop
queue.

Determinism: a run is a pure function of (config, seed). The master seed is
split into independent streams per concern (topology, events, shadowing).
Event counts are drawn for every node id each round whether or not the node
is alive, and readings are drawn in id order for every due reading and
event, so the scheduled-sensing and event streams are identical across
protocols under a shared seed. Metric differences between protocols are
therefore attributable to routing alone.

A packet's kind comes from why it was sent (event or due reading), never
from a reading's value, so the engine computes no value: each reading's
uniforms (``reading_draws`` of them) are consumed from the events stream and
skipped. The stream is served from blocks of ``EVENT_BLOCK`` uniforms, each
inverted to Poisson counts in one call; ``Generator.random(B)`` yields the
same doubles as B scalar draws, so the counts a round reads are those a
draw-by-draw walk of the stream (the round's counts, then ``reading_draws``
uniforms per reading) would give.

The protocol is chosen once per run, from the scheme table. A scheme owns
its state and enters the round through four hooks: ``begin_round`` (the
control exchange; M-ATTEMPT also rebuilds its hop counts, SIMPLE elects its
forwarder), ``decide`` (the public rule in ``protocols``), ``hand_over`` (the
send to an alive relay: M-ATTEMPT's hotspot bounce, SIMPLE's parking) and
``end_round`` (M-ATTEMPT's temperature step, SIMPLE's aggregated uplink).
Everything else (the transmit bookkeeping, charging, the control exchange,
the metrics) is shared.

Charging follows last-gasp semantics: the action a dying node paid for still
completes, so its final transmission is delivered before it falls silent.

A run always has ``rounds`` rows. Once the last node is dead the rounds are
not walked: ``_Sim.dead_tail`` writes the remaining rows in one pass. That is
exact: a dead node's residual is clamped to 0.0, and a dead round sends
nothing, records no link and draws no shadowing; only the equilibrium windows
still roll. A run that records traffic walks every round, since its log holds
each round's events-stream counts. A flat equilibrium series (every
coefficient 0.0, as before the first window closes and after the tail's idle
windows roll the live ones out) scores ``a0`` at every round, so its flag is
computed once per rebuild.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .channel import LinkClass, path_loss
from .config import SimConfig, validate_config
from .core import PacketKind, SensorKind, SensorNode, build_topology, distance
from .energy import ActionCounts, charge
from .events import invert_poisson, poisson_cdf_table, reading_draws
from .protocols import (EquilibriumProfile, MattemptState, RouteAction,
                        RoutingDecision, amhrp_select_forwarder, equilibrium_ok,
                        mattempt_build_hopcounts, mattempt_next_hop,
                        mattempt_temperature_step, simple_select_forwarder)

SINK_ID = -1  # receiver id used for node-to-sink links in audit records
EVENT_BLOCK = 4096  # events-stream uniforms drawn and inverted per refill
# Never called: the readings sampler is gone, but perfbench/tracer.py still
# wraps ``wbansim.engine.sample_reading`` by name, so the name stays until the
# benchmark's tracer drops it.
sample_reading = None


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


def summarize_run(metrics: list[RoundMetrics], config: SimConfig) -> RunSummary:
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
        protocol=config.protocol,
        seed=config.seed,
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
        self.windows: deque[tuple[int, int, int]] = deque(maxlen=cfg.amhrp.eq_windows)
        self.cur_total = 0
        self.cur_forwards = 0
        self.cur_sends = 0
        self.rounds_in_window = 0
        # The series over the filled windows, rebuilt when a window closes.
        self._set_profile(EquilibriumProfile(a0=cfg.initial_energy, coeffs_a=(), coeffs_b=(),
                                             L=max(1, cfg.rounds),
                                             alpha_star=cfg.amhrp.alpha_star))

    def push_round(self, counts: ActionCounts) -> None:
        self.cur_total += counts.n1 + counts.n2 + counts.n3 + counts.n4 + counts.n5
        self.cur_forwards += counts.n4
        self.cur_sends += counts.n2
        self.rounds_in_window += 1
        if self.rounds_in_window >= self.window_len:
            self.windows.append((self.cur_forwards, self.cur_sends, self.cur_total))
            self.cur_total = self.cur_forwards = self.cur_sends = 0
            self.rounds_in_window = 0
            self._set_profile(replace(
                self.profile,
                coeffs_a=tuple(f / t if t else 0.0 for f, _s, t in self.windows),
                coeffs_b=tuple(s / t if t else 0.0 for _f, s, t in self.windows)))

    def _set_profile(self, profile: EquilibriumProfile) -> None:
        # A series whose coefficients are all 0.0 scores a0 at every x (each
        # term is 0.0 times a finite sin or cos), so its flag is taken once.
        self.profile = profile
        flat = not any(profile.coeffs_a) and not any(profile.coeffs_b)
        self.flat_flag = equilibrium_ok(profile, 0) if flat else None

    def flag(self, round_index: int) -> bool:
        if self.flat_flag is not None:
            return self.flat_flag
        return equilibrium_ok(self.profile, min(round_index, self.profile.L))


class _Sim:
    def __init__(self, cfg: SimConfig, record_traffic: bool, record_links: bool):
        validate_config(cfg)
        self.cfg = cfg
        self.w = cfg.energy
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
        # The events stream as Poisson counts, one block at a time; the
        # cursor may run past the block's end after a round's reading skip.
        self._event_block: list[int] = []
        self._event_pos = 0
        self.draws_per_reading = [reading_draws(nd.kind) for nd in self.nodes]
        # Node ids grouped by sensing period, each group in id order.
        groups: dict[int, list[int]] = {}
        for nd in self.nodes:
            groups.setdefault(cfg.schedule.periods[nd.kind], []).append(nd.id)
        self.period_groups = list(groups.items())
        self.eq = _EquilibriumTracker(cfg)
        self.drained_total = 0.0
        self.traffic_log: list[tuple[int, int, int, bool]] | None = [] if record_traffic else None
        self.links_log: list[tuple[int, int, int, bool]] | None = [] if record_links else None

        # Per-round working state (plain ints: this is the hot loop).
        self.c1 = self.c2 = self.c3 = self.c4 = self.c5 = 0
        self.round_pairs: dict[tuple[int, int], None] = {}
        self.round_sent = 0
        self.round_received = 0
        self.round_critical = 0
        # Transmissions per node this round; only M-ATTEMPT's thermal model
        # reads (and resets) them.
        self.heat_tx = [0] * self.n
        self.heat_rx = [0] * self.n

        self.scheme = _SCHEMES[cfg.protocol](self)
        self._refresh_neighbor_cache()

    # -- shared bookkeeping -------------------------------------------------

    def _charge(self, node: SensorNode, cost: float) -> bool:
        """energy.charge plus the run's tallies; returns True on death."""
        self.drained_total += charge(node, cost, self.w)
        if node.alive:
            return False
        self.alive_count -= 1
        self._deaths_pending = True
        return True

    def _transmit(self, rnd: int, tx: SensorNode, rx_id: int, is_origin: bool,
                  cost: float | None = None) -> None:
        """One on-body send: a destined send from the originator, a forward
        from a relay. The link is recorded before the charge, so the log holds
        the sender's alive flag at send time."""
        if is_origin:
            self.c2 += 1
        else:
            self.c4 += 1
        self.heat_tx[tx.id] += 1
        if rx_id != SINK_ID:
            self.heat_rx[rx_id] += 1
        self.round_pairs[(tx.id, rx_id)] = None
        if self.links_log is not None:
            self.links_log.append((rnd, tx.id, rx_id, tx.alive))
        if cost is None:
            cost = self.w.x_d if is_origin else self.w.x_f
        self._charge(tx, cost)

    def _control_exchange(self) -> None:
        """Every alive node pays one control-packet exchange."""
        x_c = self.w.x_c
        for nd in self.nodes:
            if nd.alive:
                self.c5 += 1
                self._charge(nd, x_c)

    def _event_counts(self, m: int) -> list[int]:
        """The next m entries of the events stream as Poisson counts,
        refilling the block (and dropping skipped blocks) as needed."""
        counts: list[int] = []
        pos = self._event_pos
        while True:
            while pos >= len(self._event_block):
                pos -= len(self._event_block)
                self._event_block = invert_poisson(
                    self.poisson_cdf, self.events_rng.random(EVENT_BLOCK)).tolist()
            got = self._event_block[pos:pos + m - len(counts)]
            counts += got
            pos += len(got)
            if len(counts) == m:
                self._event_pos = pos
                return counts

    def _refresh_neighbor_cache(self) -> None:
        """Per node, the alive in-range neighbors a routing rule may pick;
        for a closer-only scheme (AMHRP) only those strictly closer to the
        sink, the only ones its rule accepts. Refreshed at round start after
        deaths, so mid-round it is a superset of the live candidates (the
        select functions re-check aliveness)."""
        nodes, d = self.nodes, self.d_sink
        closer_only = self.scheme.closer_only
        self.neighbors = [
            [nodes[j] for j in self.adjacency[i]
             if nodes[j].alive and not (closer_only and d[j] >= d[i])]
            for i in range(self.n)
        ]
        self._deaths_pending = False

    # -- packet routing -----------------------------------------------------

    def _route_packet(self, rnd: int, origin: SensorNode, kind: PacketKind) -> None:
        """Walk one packet from its originator toward the sink."""
        scheme = self.scheme
        holder = origin
        is_origin = True
        for _hop in range(self.n + 2):
            decision = scheme.decide(holder, kind)
            act = decision.action

            if act is RouteAction.HOLD:
                # Origin: nothing transmitted. Relay: packet already counted
                # as sent; it is dropped here (no queueing across rounds).
                return
            if act is RouteAction.SEND_TO_FORWARDER:
                target = self.nodes[decision.target]
                if not target.alive:
                    return  # stale choice of a mid-round casualty: packet dropped
            if is_origin:
                self.round_sent += 1  # counted once, when the originator transmits

            if act is RouteAction.SEND_TO_EXTERNAL_WSN:
                # Off-body receiver: no on-body link pair to record.
                self.c3 += 1
                self.heat_tx[holder.id] += 1
                self._charge(holder, self.w.x_w)
                return

            if act is RouteAction.SEND_TO_SINK:
                cost = None
                if decision.boosted:
                    cost = self.w.x_d * self.cfg.mattempt.boost_multiplier
                self._transmit(rnd, holder, SINK_ID, is_origin, cost)
                self.round_received += 1
                if kind is PacketKind.CRITICAL:
                    self.round_critical += 1
                return

            if not scheme.hand_over(rnd, holder, target, is_origin):
                return
            holder = target
            is_origin = False
        raise RuntimeError("routing did not terminate (engine bug)")

    # -- one round ----------------------------------------------------------

    def run_round(self, rnd: int) -> RoundMetrics:
        self.c1 = self.c2 = self.c3 = self.c4 = self.c5 = 0
        self.round_pairs = {}
        self.round_sent = 0
        self.round_received = 0
        self.round_critical = 0

        if self._deaths_pending:
            self._refresh_neighbor_cache()

        # Event counts are drawn for every node id, dead or alive, so the
        # stream consumed is identical across protocols under a shared seed.
        counts = self._event_counts(self.n)
        due = {i for period, ids in self.period_groups if rnd % period == 0 for i in ids}
        if self.traffic_log is not None:
            self.traffic_log.extend((rnd, i, counts[i], i in due) for i in range(self.n))
        # Only nodes with a due reading or an event take readings, in id
        # order; slots run in id order too (assign_tdma), so this list is
        # also the transmit order. The readings' uniforms are skipped.
        originators: list[tuple[SensorNode, bool, int]] = []
        skip = 0
        for i, k in enumerate(counts):
            is_due = i in due
            if k or is_due:
                originators.append((self.nodes[i], is_due, k))
                skip += (is_due + k) * self.draws_per_reading[i]
        self._event_pos += skip

        self.scheme.begin_round(rnd)

        for node, is_due, k in originators:
            if not node.alive:
                continue
            for kind in [PacketKind.NORMAL] * is_due + [PacketKind.CRITICAL] * k:
                self.c1 += 1
                if self._charge(node, self.w.x_s):
                    break  # the reading completed, but a dead node sends nothing
                self._route_packet(rnd, node, kind)
                if not node.alive:
                    break

        self.scheme.end_round(rnd)

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

    def dead_tail(self, start: int) -> list[RoundMetrics]:
        """What ``run_round`` would return for rounds ``start`` to the end
        once no node is alive, without walking them."""
        total = sum(nd.residual_energy for nd in self.nodes)
        mean = total / self.n
        idle = ActionCounts(0, 0, 0, 0, 0)
        eq = self.eq
        rows = []
        for rnd in range(start, self.cfg.rounds):
            eq.push_round(idle)
            rows.append(RoundMetrics(rnd, 0, 0, 0, 0, total, mean, None, eq.flag(rnd)))
        return rows


# ---------------------------------------------------------------------------
# Routing schemes
# ---------------------------------------------------------------------------

class _Scheme:
    """One routing scheme's state and its four hooks into the round.

    The rule functions are looked up as this module's globals at call time,
    so code that wraps them here also sees the engine's calls.
    """
    closer_only = False  # neighbor lists keep only nodes strictly closer to the sink

    def __init__(self, sim: _Sim):
        self.sim = sim

    def begin_round(self, rnd: int) -> None:
        """Control phase, before the first slot."""

    def decide(self, holder: SensorNode, kind: PacketKind) -> RoutingDecision:
        raise NotImplementedError

    def hand_over(self, rnd: int, holder: SensorNode, target: SensorNode,
                  is_origin: bool) -> bool:
        """Send to the alive relay ``target``; True when it carries the packet on."""
        self.sim._transmit(rnd, holder, target.id, is_origin)
        return True

    def end_round(self, rnd: int) -> None:
        """After the last slot."""


class _Amhrp(_Scheme):
    closer_only = True

    def begin_round(self, rnd: int) -> None:
        # Nodes start knowing each other's location, so the first
        # residual-energy beacon exchange happens a full period in.
        if rnd > 0 and rnd % self.sim.cfg.amhrp.control_period == 0:
            self.sim._control_exchange()

    def decide(self, holder: SensorNode, kind: PacketKind) -> RoutingDecision:
        sim = self.sim
        return amhrp_select_forwarder(holder, sim.neighbors[holder.id], sim.d_sink, kind)


class _Mattempt(_Scheme):
    def __init__(self, sim: _Sim):
        super().__init__(sim)
        self.p = sim.cfg.mattempt
        self.state: MattemptState | None = None
        self._usable: list[bool] | None = None  # usable flags state was built from
        for nd in sim.nodes:
            nd.temperature = self.p.ambient

    def begin_round(self, rnd: int) -> None:
        if rnd % self.p.hello_period:
            return
        sim = self.sim
        sim._control_exchange()
        # The hop counts are a pure function of the usable set (the
        # adjacency is static): rebuild only when that set changed.
        threshold = self.p.temp_threshold
        usable = [nd.alive and nd.temperature <= threshold for nd in sim.nodes]
        if usable != self._usable:
            self._usable = usable
            self.state = mattempt_build_hopcounts(
                sim.nodes, sim.sink, sim.cfg.tx_range, self.p,
                adjacency=sim.adjacency, sink_reach=sim.sink_reach)

    def decide(self, holder: SensorNode, kind: PacketKind) -> RoutingDecision:
        sim = self.sim
        return mattempt_next_hop(holder, kind, self.state, sim.neighbors[holder.id],
                                 sim.d_sink)

    def hand_over(self, rnd: int, holder: SensorNode, target: SensorNode,
                  is_origin: bool) -> bool:
        sim, p = self.sim, self.p
        # The relay's temperature including this round's traffic so far,
        # read before this send adds to it.
        hot = target.temperature + sim.heat_tx[target.id] * p.delta_tx \
            + sim.heat_rx[target.id] * p.delta_rx > p.temp_threshold
        sim._transmit(rnd, holder, target.id, is_origin)
        if not hot:
            return True
        # Hotspot bounce: the overheated relay sends the packet back and the
        # sender re-routes in a later round (the next hop-count flood walks
        # around it). The packet is lost for this round.
        sim._transmit(rnd, target, holder.id, False)
        return False

    def end_round(self, rnd: int) -> None:
        sim, p = self.sim, self.p
        for nd in sim.nodes:
            if nd.alive:
                nd.temperature = mattempt_temperature_step(
                    p, nd.temperature, sim.heat_tx[nd.id], sim.heat_rx[nd.id])
        sim.heat_tx = [0] * sim.n
        sim.heat_rx = [0] * sim.n


class _Simple(_Scheme):
    def __init__(self, sim: _Sim):
        super().__init__(sim)
        self.forwarder: int | None = None
        self.parked = 0

    def begin_round(self, rnd: int) -> None:
        sim = self.sim
        if rnd % sim.cfg.simple.control_period == 0:
            sim._control_exchange()
        self.forwarder = simple_select_forwarder(sim.nodes, sim.d_sink)
        self.parked = 0

    def decide(self, holder: SensorNode, kind: PacketKind) -> RoutingDecision:
        # Critical packets and the ECG node go straight to the sink,
        # everything else goes to the round's elected forwarder.
        fw = self.forwarder
        if (kind is PacketKind.CRITICAL or holder.kind is SensorKind.ECG
                or fw is None or fw == holder.id or not self.sim.nodes[fw].alive):
            return RoutingDecision(RouteAction.SEND_TO_SINK)
        return RoutingDecision(RouteAction.SEND_TO_FORWARDER, target=fw)

    def hand_over(self, rnd: int, holder: SensorNode, target: SensorNode,
                  is_origin: bool) -> bool:
        self.sim._transmit(rnd, holder, target.id, is_origin)
        self.parked += 1  # aggregated at end of round
        return False

    def end_round(self, rnd: int) -> None:
        """The elected forwarder aggregates parked packets into one uplink."""
        sim, fw, k = self.sim, self.forwarder, self.parked
        if fw is None or k == 0 or not sim.nodes[fw].alive:
            return  # a forwarder that died mid-round loses its parked packets
        # One destined send that carries k forwards; the packets were
        # counted as sent when parked.
        sim._transmit(rnd, sim.nodes[fw], SINK_ID, True, sim.w.x_d + k * sim.w.x_f)
        sim.c4 += k
        sim.round_received += k  # parked packets are all normal traffic


_SCHEMES = {"amhrp": _Amhrp, "mattempt": _Mattempt, "simple": _Simple}


def run_simulation(config: SimConfig, *, record_traffic: bool = False,
                   record_links: bool = False) -> RunResult:
    """Execute ``config.rounds`` rounds and summarize the run.

    Every run returns one row per round. The rounds after the last death are
    written by ``_Sim.dead_tail`` unless the traffic log, which records each
    round's events-stream counts, needs them walked.
    """
    sim = _Sim(config, record_traffic, record_links)
    metrics: list[RoundMetrics] = []
    for rnd in range(config.rounds):
        if sim.alive_count == 0 and sim.traffic_log is None:
            metrics += sim.dead_tail(rnd)
            break
        metrics.append(sim.run_round(rnd))
    summary = summarize_run(metrics, config)
    audit = RunAudit(drained_total=sim.drained_total,
                     traffic=sim.traffic_log, links=sim.links_log)
    return RunResult(metrics, summary, audit)
