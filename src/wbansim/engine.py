"""Round-based simulation loop.

One round is a full TDMA frame: node i owns slot i, so slots run in id
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

A run is one object: ``_SCHEMES`` maps each protocol to its subclass of
``_Sim``, which keeps the protocol's state and overrides the round's four
hooks: ``begin_round`` (the control exchange; M-ATTEMPT also rebuilds its hop
counts, SIMPLE elects its forwarder), ``decide`` (the public rule in
``protocols``), ``hand_over`` (the send to an alive relay: M-ATTEMPT's
hotspot bounce, SIMPLE's parking) and ``end_round`` (M-ATTEMPT's temperature
step, SIMPLE's aggregated uplink). Everything else (the transmit bookkeeping,
charging, the control exchange, the metrics) is the base class's and shared.

The per-round walk: ``run_round`` hands the round's originators to
``route_round``, one call a round, whose one loop senses each reading and
walks its packet hop by hop. It checks the originator's liveness in two
places only: at the top of each reading, since the last reading's sends or
escalation may have killed it, and after the sensing charge, since a node
that dies sensing sends nothing. It asks ``decide`` once per hop, counts the
packet as sent on its originator's verdict unless that is a HOLD, tests the
verdict's action once (a forward first, the commonest), and a forward goes
through ``hand_over``. A forward's target is always alive: every rule skips
dead neighbours, SIMPLE's ``decide`` checks its forwarder, and nothing
charges a node between a verdict and its hand-over. Every on-body send, a
relay's bounce and SIMPLE's uplink included, goes through ``_transmit``,
which counts it, records its link and charges the sender. Only M-ATTEMPT's
thermal model reads the per-node send and receive counts (``heat_tx``,
``heat_rx``), so only ``_Mattempt._transmit`` counts them.

``_Sim.charge`` is the one death rule, and the only code that writes a
node's residual or alive flag, ``alive_count`` or ``drained_total``. Each
charge (sensing, send, escalation) is one call to it, and a control exchange
is one call for all the alive nodes, charged in id order. It debits a node,
or, when the debit would not leave it above ``x_t``, writes it off to 0.0
and takes one off ``alive_count``; either way it adds the joules drained to
``drained_total``. Charging follows last-gasp semantics: the action a dying
node paid for still completes, so its final transmission is delivered before
it falls silent.

A run is one table: ``RunResult.metrics`` is a ``(rounds, 9)`` float64 array
with one row per round, its columns in the metrics CSV's order (``ROUND`` ...
``EQUILIBRIUM``). ``PATH_LOSS`` is NaN in a round with no transmissions, and
the equilibrium flag is 0 or 1. Each walked round appends its row to one flat
buffer, with the round's five action counts after it; ``_Sim.table``
assembles the table from it. Once the last node is dead the rounds are not
walked: their rows are filled column by column. That is exact: a dead node's
residual is clamped to 0.0, and a dead round sends nothing, records no link,
draws no shadowing and counts no action. The residuals are added one by one
from 0.0 in id order, never with ``sum()``, whose float result depends on the
Python version (compensated from 3.12). The flag column is computed once per
run from the count columns (``equilibrium_flags``).

The path-loss column is computed in blocks of rounds, from the link log: each
walked round appends its distinct links, in first-send order, to one flat
array as codes ``tx * (n + 1) + rx + 1`` (``rx`` is ``SINK_ID`` for a send
to the sink), and its link count to another. Every ``_LOSS_CHUNK`` rounds,
and once more in ``_Sim.table``, ``_Sim.fill_path_losses`` empties the log:
it calls ``channel.path_loss`` once per distinct link the run had not sent
on before, draws the block's shadowing in one call (one Normal(0,
``sigma_db``) value per logged link, none when ``sigma_db`` is 0), and adds
each round's losses one by one from 0.0, in first-send order. One
``Generator.normal`` call of k1 + k2 + ... values yields what calls of k1,
k2, ... values would, so the draws are those a round-by-round walk would
take. A zero-length link (two nodes, or a node and the sink, at one point)
takes its draw but is left out of the round's mean.

The hot loop builds nothing it does not keep: routing rules return shared
verdicts (``protocols.TO_SINK``, ``to_forwarder(id)``, ...), and a round's
metrics and counts go to the buffer as plain numbers. ``route_round`` binds
the hooks and ``charge`` once a round, not once a packet; they are the
instance's, so a wrapper set on one instance sees every call. It keeps the
round's sensing and escalation counts (``c1``, ``c3``) and its sent,
received and critical counts in locals, written back once before
``end_round`` (SIMPLE's uplink adds to ``round_received`` there). Its hop
bound and the boosted send's cost are computed once a run. Two more rules
keep the constant costs down. Code that runs per node, packet or round reads
an Enum member through a module alias (``_CRITICAL``, ``_TO_SINK``, ...),
never as ``PacketKind.CRITICAL``: a member read costs several times a
global's. And a per-node rule is one call per round over all the nodes
(``mattempt_temperature_step``, ``simple_select_forwarder``, the control
exchange's ``charge``), not one call per node; a round's derived state
(M-ATTEMPT's usable set) is re-read only when such a call, or a death,
signals that it may have changed. In the temperature step an idle node
pays only its relaxation: a heating term is added only for a nonzero
count. That is exact: the deltas are finite, so a zero count's term is
+0.0, which moves no temperature and no threshold comparison.

Two per-round rules keep the fixed cost of a long live run down. A walked
round's row goes to ``rows`` as one ``struct`` pack of native doubles and
one ``frombytes``: ``array.extend`` of a tuple converts its 13 values one at
a time through the iterator protocol, two to three times the cost, and native
``d`` is ``array("d")``'s own layout, so the buffer's bytes are the same.
And ``_event_counts`` is one refill loop that ends in one slice: when the
block holds all the round's counts, the common case, it costs one
comparison and the slice. A refill keeps the block's unread tail, or, when a
round's reading skip ran past the block's end, drops the block and moves the
cursor on by the overshoot.
"""
from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import LinkClass, path_loss
from .config import SimConfig, validate_config
from .core import SINK_POSITION, PacketKind, SensorKind, SensorNode, build_topology, distance
from .events import invert_poisson, poisson_cdf_table, reading_draws
from .protocols import (TO_SINK, MattemptState, RouteAction, RoutingDecision,
                        amhrp_select_forwarder, mattempt_build_hopcounts, mattempt_next_hop,
                        mattempt_temperature_step, simple_select_forwarder, to_forwarder)

SINK_ID = -1  # receiver id of a node-to-sink send
EVENT_BLOCK = 4096  # events-stream uniforms drawn and inverted per refill
# Never called: the readings sampler is gone, but perfbench/tracer.py still
# wraps ``wbansim.engine.sample_reading`` by name, so the name stays until the
# benchmark's tracer drops it.
sample_reading = None
# Hot-loop helpers: Enum members as module aliases (see the module
# docstring), and a slot's packet kinds, built by tuple repetition.
_CRITICAL = PacketKind.CRITICAL
_ECG = SensorKind.ECG
_TO_FORWARDER = RouteAction.SEND_TO_FORWARDER
_TO_SINK = RouteAction.SEND_TO_SINK
_HOLD = RouteAction.HOLD
_LOS = LinkClass.LOS
_NLOS = LinkClass.NLOS
_NORMAL_SLOT = (PacketKind.NORMAL,)
_CRITICAL_SLOT = (_CRITICAL,)

# The run table's columns, in the metrics CSV's order.
(ROUND, ALIVE, SENT, RECEIVED, CRITICAL,
 TOTAL_RESIDUAL, MEAN_RESIDUAL, PATH_LOSS, EQUILIBRIUM) = range(9)
# A walked round's entry in ``_Sim.rows``: the columns before the flag, then
# the round's action counts c1..c5 (sensing, destined sends, escalations,
# forwards, control exchanges; the weights x_s, x_d, x_w, x_f, x_c).
_ROW = EQUILIBRIUM + 5
# One walked round's entry as bytes: native doubles, the layout of ``array("d")``.
_PACK_ROW = struct.Struct(f"{_ROW}d").pack
_FLAG_CHUNK = 1 << 16  # rounds per step of ``equilibrium_flags``
_LOSS_CHUNK = 1 << 10  # rounds the link log holds before ``_Sim.fill_path_losses``


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


class RunResult(NamedTuple):
    metrics: np.ndarray  # the run's (rounds, 9) table
    summary: RunSummary
    audit: RunAudit


def throughput(received: int, sent: int) -> float:
    """Delivery ratio in percent: 100 * received / sent."""
    if sent < 0 or received < 0 or received > sent:
        raise ValueError("need 0 <= received <= sent")
    if sent == 0:
        raise ValueError("throughput undefined: no packets sent")
    return 100.0 * received / sent


def summarize_run(table: np.ndarray, config: SimConfig) -> RunSummary:
    n = config.node_count

    def first_round(hit: np.ndarray) -> int:
        """The round of the first row where ``hit`` holds; sentinel = rounds."""
        return int(table[hit.argmax(), ROUND]) if hit.any() else config.rounds

    alive = table[:, ALIVE]
    sent = int(table[:, SENT].sum())
    received = int(table[:, RECEIVED].sum())
    pct = throughput(received, sent) if sent > 0 else None
    final_residual = (float(table[-1, TOTAL_RESIDUAL]) if len(table)
                      else n * config.initial_energy)
    return RunSummary(
        protocol=config.protocol,
        seed=config.seed,
        stability_period=first_round(alive < n),
        network_lifetime=first_round(alive == 0),
        throughput_pct=pct,
        final_total_residual=final_residual,
        residual_pct_at_end=100.0 * final_residual / (n * config.initial_energy),
        packets_sent_total=sent,
        packets_received_total=received,
    )


# ---------------------------------------------------------------------------
# Per-run state
# ---------------------------------------------------------------------------

def equilibrium_series(a0: float, terms: tuple[tuple[int, float, float], ...],
                       x: float, L: int) -> float:
    """a0 + sum of a_n*sin(n*pi*x/L) + b_n*cos(n*pi*x/L) over the
    ``(n, a_n, b_n)`` in ``terms``, added in order."""
    base = math.pi * x / L
    total = a0
    for n, ca, cb in terms:
        total += ca * math.sin(n * base) + cb * math.cos(n * base)
    return total


def equilibrium_flags(counts: np.ndarray, cfg: SimConfig,
                      rows: int | None = None) -> np.ndarray:
    """The equilibrium flag of each of ``rows`` rounds (default
    ``len(counts)``), from the ``(k, 5)`` integer action counts ``c1..c5``
    of the first k rounds; the rounds after them count no action.

    Windows of ``eq_window_len`` rounds close in turn. At round r the series
    holds the last ``eq_windows`` windows closed by then, oldest first as
    n = 1, 2, ...: a_n is window n's forward share (c4 over all actions) and
    b_n its destined-send share (c2), both 0.0 in a window without actions.
    The flag is ``equilibrium_series(a0, terms, min(r, L), L) > alpha_star``
    with a0 = ``initial_energy`` and L = max(1, ``rounds``).
    """
    a0, alpha_star = cfg.initial_energy, cfg.amhrp.alpha_star
    if rows is None:
        rows = len(counts)
    # A window longer than the run never closes, so any length past ``rows``
    # reads as rows + 1, which keeps ``(r + 1) // W`` within int64.
    L, W = max(1, cfg.rounds), min(cfg.amhrp.eq_window_len, rows + 1)
    closes = rows // W
    counted = counts[:closes * W]  # the counted rounds of the windows that close
    windows = np.zeros((closes, 5), dtype=counts.dtype)
    starts = np.arange(0, len(counted), W)
    if len(starts):
        windows[:len(starts)] = np.add.reduceat(counted, starts, axis=0)
    actions = np.maximum(windows.sum(axis=1), 1)  # a window without any has 0 / 1
    # The shares, then one 0.0 for the terms a round lacks.
    a = np.append(windows[:, 3] / actions, 0.0)
    b = np.append(windows[:, 1] / actions, 0.0)
    # At most ``closes`` windows ever close, so a longer series reads the same.
    l = min(cfg.amhrp.eq_windows, closes)
    flags = np.empty(rows, dtype=bool)
    # Each round's flag depends only on its own inputs, so the rounds go in
    # chunks of _FLAG_CHUNK, which bounds the temporaries below.
    for start in range(0, rows, _FLAG_CHUNK):
        r = np.arange(start, min(rows, start + _FLAG_CHUNK))
        closed = (r + 1) // W
        first = np.maximum(closed - l, 0)
        base = math.pi * np.minimum(r, L) / L
        # Term by term over the chunk's rounds, in the series' order. A term a
        # round lacks, or one whose shares are 0.0, adds a signed zero, which
        # moves no flag.
        total = np.full(len(r), a0)
        for n in range(1, l + 1):
            j = first + (n - 1)
            j[j >= closed] = closes
            total += a[j] * np.sin(n * base) + b[j] * np.cos(n * base)
        chunk = flags[start:start + len(r)]
        np.greater(total, alpha_star, out=chunk)
        # np.sin and np.cos may differ from math.sin and math.cos in the last
        # bits. A term's two shares add up to at most 1, so over m terms the
        # sum moves by about m such errors plus the rounding of its 3m
        # operations, far inside this band. A round in the band is summed
        # again with math, so every flag is the series' own.
        m = closed - first
        near = np.abs(total - alpha_star) <= 2.0**-30 * m * (1.0 + abs(a0) + m)
        for i in np.flatnonzero(near).tolist():
            terms = tuple((n, float(a[j]), float(b[j]))
                          for n, j in enumerate(range(first[i], closed[i]), start=1))
            chunk[i] = equilibrium_series(a0, terms, min(start + i, L), L) > alpha_star
    return flags


class _Sim:
    """One run: the shared round loop and its bookkeeping. A subclass per
    protocol defines ``decide`` and overrides the other routing hooks it
    needs.

    The rule functions are looked up as this module's globals at call time,
    so code that wraps them here also sees the engine's calls.
    """
    closer_only = False  # neighbor lists keep only nodes strictly closer to the sink

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.w = cfg.energy
        root = np.random.SeedSequence(cfg.seed)
        topo_ss, events_ss, shadow_ss = root.spawn(3)
        self.events_rng = np.random.Generator(np.random.PCG64(events_ss))
        self.shadow_rng = np.random.Generator(np.random.PCG64(shadow_ss))

        self.nodes = build_topology(cfg, np.random.Generator(np.random.PCG64(topo_ss)))
        self.n = cfg.node_count
        self.alive_count = self.n  # decremented on each death a charge causes

        # Static geometry caches.
        self.d_sink = {nd.id: distance(nd.position, SINK_POSITION) for nd in self.nodes}
        self.adjacency: dict[int, list[int]] = {nd.id: [] for nd in self.nodes}
        self.nlos = {frozenset(p) for p in cfg.nlos_pairs}
        for a in self.nodes:
            for b in self.nodes:
                if a.id < b.id and distance(a.position, b.position) <= cfg.tx_range:
                    self.adjacency[a.id].append(b.id)
                    self.adjacency[b.id].append(a.id)
        self.sink_reach = [nd.id for nd in self.nodes if self.d_sink[nd.id] <= cfg.tx_range]
        # Per node, the in-range neighbors a routing rule may pick; for a
        # closer-only protocol (AMHRP) only those strictly closer to the sink,
        # the only ones its rule accepts. The rules skip dead neighbors.
        nodes, d = self.nodes, self.d_sink
        self.neighbors = [
            [nodes[j] for j in self.adjacency[i] if not (self.closer_only and d[j] >= d[i])]
            for i in range(self.n)
        ]

        self.poisson_cdf = poisson_cdf_table(cfg.events.lam)
        # The events stream as Poisson counts, one block at a time; the
        # cursor may run past the block's end after a round's reading skip.
        self._event_block: list[int] = []
        self._event_pos = 0
        self.draws_per_reading = [reading_draws(nd.kind) for nd in self.nodes]
        # Node ids grouped by sensing period, each group in id order.
        periods = cfg.schedule.resolve(cfg.events.rounds_per_day)
        groups: dict[int, list[int]] = {}
        for nd in self.nodes:
            groups.setdefault(periods[nd.kind], []).append(nd.id)
        self.period_groups = list(groups.items())
        self.rows = array("d")  # one _ROW-wide entry per walked round
        # The link log (see the module docstring): the distinct link codes of
        # each walked round not yet filled, and how many there were. C ints
        # hold both: a code is below n * (n + 1), and node_count <= 1000.
        self.links = array("i")
        self.link_counts = array("i")
        # Link code -> unshadowed loss, valid where link_known. A large
        # table's pages stay unmapped until a run sends on a link they hold.
        self.link_loss = np.zeros(self.n * (self.n + 1))
        self.link_known = np.zeros(self.n * (self.n + 1), dtype=bool)
        # Node i's link to receiver j has code link_code[i] + j.
        self.link_code = [i * (self.n + 1) + 1 for i in range(self.n)]
        self.drained_total = 0.0
        # Per-run constants of ``route_round``: its hop bound, and the cost
        # of a boosted send to the sink.
        self.hops = range(self.n + 2)
        self.boosted_cost = self.w.x_d * cfg.mattempt.boost_multiplier

        # Per-round working state (plain ints: this is the hot loop).
        self.c1 = self.c2 = self.c3 = self.c4 = self.c5 = 0
        self.round_links: dict[int, None] = {}  # this round's link codes, first send first
        self.round_sent = 0
        self.round_received = 0
        self.round_critical = 0

    # -- routing hooks ------------------------------------------------------

    def begin_round(self, rnd: int) -> None:
        """Control phase, before the first slot."""

    def hand_over(self, holder: SensorNode, target: SensorNode, is_origin: bool) -> bool:
        """Send to the relay ``target`` (always alive, see the module
        docstring); True when it carries the packet on."""
        self._transmit(holder, target.id, is_origin)
        return True

    def end_round(self, rnd: int) -> None:
        """After the last slot."""

    # -- shared bookkeeping -------------------------------------------------

    def _transmit(self, tx: SensorNode, rx_id: int, is_origin: bool,
                  cost: float | None = None) -> None:
        """One on-body send: a destined send from the originator, a forward
        from a relay. Every on-body send goes through here."""
        w = self.w
        if is_origin:
            self.c2 += 1
            if cost is None:
                cost = w.x_d
        else:
            self.c4 += 1
            if cost is None:
                cost = w.x_f
        self.round_links[self.link_code[tx.id] + rx_id] = None
        self.charge(tx, cost)

    def charge(self, node: SensorNode | None, cost: float) -> None:
        """Deduct ``cost`` joules from the live ``node`` (the death rule, see
        the module docstring): a node the debit would not leave above
        ``x_t`` dies, its residual written off to 0.0.

        ``node`` None charges every alive node in id order, dead nodes
        skipped: the same rule, node by node, in one call. A negative cost
        is rejected before any node is debited."""
        if node is None:
            if cost < 0:
                raise ValueError("charge cost must be >= 0")
            # The joules go to a local and are written back once: the same
            # additions, in the same order, as one call per node.
            x_t, drained, deaths = self.w.x_t, self.drained_total, 0
            for nd in self.nodes:
                if nd.alive:
                    residual = nd.residual_energy
                    if residual - cost > x_t:
                        nd.residual_energy = residual - cost
                        drained += cost
                    else:
                        nd.residual_energy = 0.0
                        nd.alive = False
                        drained += residual
                        deaths += 1
            self.drained_total = drained
            self.alive_count -= deaths
            return
        if not node.alive:
            raise RuntimeError(f"charge on dead node {node.id} (engine bug)")
        if cost < 0:
            raise ValueError("charge cost must be >= 0")
        residual = node.residual_energy
        if residual - cost > self.w.x_t:
            node.residual_energy = residual - cost
            self.drained_total += cost
            return
        node.residual_energy = 0.0
        node.alive = False
        self.drained_total += residual
        self.alive_count -= 1

    def _control_exchange(self) -> None:
        """Every alive node pays one control-packet exchange."""
        self.c5 += self.alive_count  # one each, a node its own charge kills included
        self.charge(None, self.w.x_c)

    def _event_counts(self, m: int) -> list[int]:
        """The next m entries of the events stream as Poisson counts,
        refilling the block (and dropping skipped blocks) as needed."""
        pos, block = self._event_pos, self._event_block
        while pos + m > len(block):
            pos -= len(block)
            fresh = invert_poisson(self.poisson_cdf, self.events_rng.random(EVENT_BLOCK)).tolist()
            if pos < 0:  # keep the block's unread tail
                block, pos = block[pos:] + fresh, 0
            else:  # a skip reached or passed the block's end
                block = fresh
            self._event_block = block
        self._event_pos = pos + m
        return block[pos:pos + m]

    # -- one round ----------------------------------------------------------

    def run_round(self, rnd: int) -> None:
        self.c2 = self.c4 = self.c5 = 0
        self.round_links = {}

        # Event counts are drawn for every node id, dead or alive, so the
        # stream consumed is identical across protocols under a shared seed.
        counts = self._event_counts(self.n)
        due = {i for period, ids in self.period_groups if rnd % period == 0 for i in ids}
        # Only nodes with a due reading or an event take readings, in id
        # order; node i owns slot i of the frame, so this list is also the
        # transmit order. The readings' uniforms are skipped.
        originators: list[tuple[SensorNode, bool, int]] = []
        skip = 0
        for i, k in enumerate(counts):
            is_due = i in due
            if k or is_due:
                originators.append((self.nodes[i], is_due, k))
                skip += (is_due + k) * self.draws_per_reading[i]
        self._event_pos += skip

        self.begin_round(rnd)
        self.route_round(originators)
        self.end_round(rnd)

        total_residual = self._total_residual()
        # PATH_LOSS stays NaN until ``fill_path_losses`` writes it.
        self.rows.frombytes(_PACK_ROW(rnd, self.alive_count, self.round_sent,
                                      self.round_received, self.round_critical,
                                      total_residual, total_residual / self.n, math.nan,
                                      self.c1, self.c2, self.c3, self.c4, self.c5))
        self.links.extend(self.round_links)
        self.link_counts.append(len(self.round_links))
        if len(self.link_counts) == _LOSS_CHUNK:
            self.fill_path_losses()

    def route_round(self, originators: list[tuple[SensorNode, bool, int]]) -> None:
        """The round's origination and routing: each originator, in slot
        order, senses its readings one at a time while it is alive and
        walks each one's packet from holder to holder toward the sink (see
        the module docstring). Sets the round's ``c1``, ``c3``, ``round_sent``,
        ``round_received`` and ``round_critical``."""
        decide, hand_over, transmit, charge = (self.decide, self.hand_over, self._transmit,
                                               self.charge)
        nodes, hops, x_s, x_w, boosted_cost = (self.nodes, self.hops, self.w.x_s, self.w.x_w,
                                               self.boosted_cost)
        c1 = c3 = sent = received = critical = 0
        for origin, is_due, k in originators:
            for kind in _NORMAL_SLOT * is_due + _CRITICAL_SLOT * k:
                if not origin.alive:
                    break  # a dead node senses nothing
                c1 += 1
                charge(origin, x_s)
                if not origin.alive:
                    break  # the reading completed, but a dead node sends nothing
                holder = origin
                is_origin = True
                # A packet takes at most n decisions, one per holder, and no
                # holder repeats: each AMHRP forward goes strictly closer to
                # the sink, each M-ATTEMPT forward strictly down the hop
                # counts, and SIMPLE parks a packet after one forward. So the
                # walk always ends inside ``hops``; the RuntimeError below
                # stays as a guard against an engine bug that breaks it.
                for _hop in hops:
                    decision = decide(holder, kind)
                    act = decision.action
                    if is_origin and act is not _HOLD:
                        sent += 1  # counted once, when the originator transmits
                    if act is _TO_FORWARDER:
                        target = nodes[decision.target]
                        if not hand_over(holder, target, is_origin):
                            break
                        holder = target
                        is_origin = False
                    elif act is _TO_SINK:
                        transmit(holder, SINK_ID, is_origin,
                                 boosted_cost if decision.boosted else None)
                        received += 1
                        if kind is _CRITICAL:
                            critical += 1
                        break
                    elif act is _HOLD:
                        # Origin: nothing transmitted. Relay: packet already
                        # counted as sent; it is dropped here (no queueing
                        # across rounds).
                        break
                    else:
                        # Escalation to the external WSN gateway, an off-body
                        # receiver: no on-body link pair to record.
                        c3 += 1
                        charge(holder, x_w)
                        break
                else:
                    raise RuntimeError("routing did not terminate (engine bug)")
        # Written back before ``end_round``, which may add to them.
        self.c1, self.c3 = c1, c3
        self.round_sent, self.round_received, self.round_critical = sent, received, critical

    def _total_residual(self) -> float:
        """The residuals added one by one from 0.0, in id order."""
        total = 0.0
        for nd in self.nodes:
            total += nd.residual_energy
        return total

    def _base_loss(self, code: int) -> float:
        """The unshadowed loss of the link with code ``code``; NaN for a
        zero-length link."""
        tx, rx = divmod(code, self.n + 1)
        rx -= 1
        if rx == SINK_ID:
            d, link = self.d_sink[tx], _LOS
        else:
            d = distance(self.nodes[tx].position, self.nodes[rx].position)
            link = _NLOS if frozenset((tx, rx)) in self.nlos else _LOS
        return path_loss(self.cfg.channel, d, link) if d > 0 else math.nan

    def fill_path_losses(self) -> None:
        """Write the mean path loss of each round in the link log into its
        row (see the module docstring), and empty the log. A round without a
        link of nonzero length keeps its NaN."""
        counts = np.frombuffer(self.link_counts, dtype=np.intc)
        codes = np.frombuffer(self.links, dtype=np.intc)
        for c in dict.fromkeys(codes[~self.link_known[codes]].tolist()):
            self.link_loss[c] = self._base_loss(c)
            self.link_known[c] = True
        loss = self.link_loss[codes]
        sigma = self.cfg.channel.sigma_db
        if sigma > 0:
            loss += self.shadow_rng.normal(0.0, sigma, size=len(codes))
        rnd = np.repeat(np.arange(len(counts)), counts)  # each link's round in the log
        kept = ~np.isnan(loss)
        rnd, loss = rnd[kept], loss[kept]
        # bincount adds each round's weights one by one, from 0.0, in the
        # order given: the links' first-send order.
        total = np.bincount(rnd, weights=loss, minlength=len(counts))
        links = np.bincount(rnd, minlength=len(counts))
        rows = np.frombuffer(self.rows).reshape(-1, _ROW)
        np.divide(total, links, out=rows[len(rows) - len(counts):, PATH_LOSS], where=links > 0)
        self.links = array("i")
        self.link_counts = array("i")

    def table(self) -> np.ndarray:
        """The run's ``(rounds, 9)`` table: the walked rounds' rows with
        their path losses, then the rows of the rounds not walked, which
        only a dead network skips (see the module docstring), then the flag
        column."""
        self.fill_path_losses()
        walked = np.frombuffer(self.rows).reshape(-1, _ROW)
        done, rounds = len(walked), self.cfg.rounds
        table = np.empty((rounds, EQUILIBRIUM + 1))
        table[:done, :EQUILIBRIUM] = walked[:, :EQUILIBRIUM]
        total = self._total_residual()
        table[done:, ROUND] = np.arange(done, rounds)
        table[done:, ALIVE:EQUILIBRIUM] = (0, 0, 0, 0, total, total / self.n, math.nan)
        table[:, EQUILIBRIUM] = equilibrium_flags(walked[:, EQUILIBRIUM:], self.cfg, rounds)
        return table


# ---------------------------------------------------------------------------
# Routing protocols
# ---------------------------------------------------------------------------

class _Amhrp(_Sim):
    closer_only = True

    def __init__(self, cfg: SimConfig):
        super().__init__(cfg)
        self.control_period = cfg.amhrp.control_period

    def begin_round(self, rnd: int) -> None:
        # Nodes start knowing each other's location, so the first
        # residual-energy beacon exchange happens a full period in.
        if rnd > 0 and rnd % self.control_period == 0:
            self._control_exchange()

    def decide(self, holder: SensorNode, kind: PacketKind) -> RoutingDecision:
        return amhrp_select_forwarder(holder, self.neighbors[holder.id], self.d_sink, kind)


class _Mattempt(_Sim):
    def __init__(self, cfg: SimConfig):
        super().__init__(cfg)
        self.p = cfg.mattempt
        self.state: MattemptState | None = None
        self._usable: list[bool] | None = None  # usable flags state was built from
        # The usable set changes only when a node dies or an alive node's
        # temperature crosses temp_threshold. These record both since the
        # flags were last read; the first hello round reads them.
        self._crossed = True
        self._usable_alive = self.n
        for nd in self.nodes:
            nd.temperature = self.p.ambient
        # On-body sends and receptions per node this round, for the thermal
        # model; only this protocol counts them.
        self.heat_tx = [0] * self.n
        self.heat_rx = [0] * self.n

    def _transmit(self, tx: SensorNode, rx_id: int, is_origin: bool,
                  cost: float | None = None) -> None:
        self.heat_tx[tx.id] += 1
        if rx_id != SINK_ID:
            self.heat_rx[rx_id] += 1
        _Sim._transmit(self, tx, rx_id, is_origin, cost)

    def begin_round(self, rnd: int) -> None:
        if rnd % self.p.hello_period:
            return
        self._control_exchange()
        # The hop counts are a pure function of the usable set (the
        # adjacency is static): rebuild only when that set changed. The flags
        # are read only after a death or a crossing: a node that crossed and
        # crossed back leaves the set as it was, so it is still compared.
        if not self._crossed and self.alive_count == self._usable_alive:
            return
        self._crossed = False
        self._usable_alive = self.alive_count
        threshold = self.p.temp_threshold
        usable = [nd.alive and nd.temperature <= threshold for nd in self.nodes]
        if usable != self._usable:
            self._usable = usable
            self.state = mattempt_build_hopcounts(usable, self.adjacency, self.sink_reach)

    def decide(self, holder: SensorNode, kind: PacketKind) -> RoutingDecision:
        return mattempt_next_hop(holder, kind, self.state, self.neighbors[holder.id],
                                 self.d_sink)

    def hand_over(self, holder: SensorNode, target: SensorNode, is_origin: bool) -> bool:
        p = self.p
        # The relay's temperature including this round's traffic so far,
        # read before this send adds to it.
        hot = target.temperature + self.heat_tx[target.id] * p.delta_tx \
            + self.heat_rx[target.id] * p.delta_rx > p.temp_threshold
        self._transmit(holder, target.id, is_origin)
        if not hot:
            return True
        # Hotspot bounce: the overheated relay sends the packet back and the
        # sender re-routes in a later round (the next hop-count flood walks
        # around it). The packet is lost for this round.
        self._transmit(target, holder.id, False)
        return False

    def end_round(self, rnd: int) -> None:
        if mattempt_temperature_step(self.p, self.nodes, self.heat_tx, self.heat_rx):
            self._crossed = True
        self.heat_tx = [0] * self.n
        self.heat_rx = [0] * self.n


class _Simple(_Sim):
    def __init__(self, cfg: SimConfig):
        super().__init__(cfg)
        self.control_period = cfg.simple.control_period
        self.forwarder: int | None = None
        self.parked = 0

    def begin_round(self, rnd: int) -> None:
        if rnd % self.control_period == 0:
            self._control_exchange()
        self.forwarder = simple_select_forwarder(self.nodes, self.d_sink)
        self.parked = 0

    def decide(self, holder: SensorNode, kind: PacketKind) -> RoutingDecision:
        # Critical packets and the ECG node go straight to the sink,
        # everything else goes to the round's elected forwarder.
        fw = self.forwarder
        if (kind is _CRITICAL or holder.kind is _ECG
                or fw is None or fw == holder.id or not self.nodes[fw].alive):
            return TO_SINK
        return to_forwarder(fw)

    def hand_over(self, holder: SensorNode, target: SensorNode, is_origin: bool) -> bool:
        self._transmit(holder, target.id, is_origin)
        self.parked += 1  # aggregated at end of round
        return False

    def end_round(self, rnd: int) -> None:
        """The elected forwarder aggregates parked packets into one uplink."""
        fw, k = self.forwarder, self.parked
        if fw is None or k == 0 or not self.nodes[fw].alive:
            return  # a forwarder that died mid-round loses its parked packets
        # One destined send that carries k forwards; the packets were
        # counted as sent when parked.
        self._transmit(self.nodes[fw], SINK_ID, True, self.w.x_d + k * self.w.x_f)
        self.c4 += k
        self.round_received += k  # parked packets are all normal traffic


_SCHEMES = {"amhrp": _Amhrp, "mattempt": _Mattempt, "simple": _Simple}


def run_simulation(config: SimConfig) -> RunResult:
    """Execute ``config.rounds`` rounds and summarize the run.

    Every run's table has one row per round. The rounds after the last death
    are not walked; ``_Sim.table`` fills their rows.
    """
    validate_config(config)
    sim = _SCHEMES[config.protocol](config)
    for rnd in range(config.rounds):
        if sim.alive_count == 0:
            break
        sim.run_round(rnd)
    table = sim.table()
    return RunResult(table, summarize_run(table, config),
                     RunAudit(drained_total=sim.drained_total))
