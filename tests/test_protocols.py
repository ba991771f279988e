import math
import random
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wbansim.config import SimConfig
from wbansim.core import (SINK_POSITION, BodyPoint, PacketKind, SensorKind, SensorNode,
                          distance)
from wbansim.engine import _SCHEMES, equilibrium_flags, equilibrium_series
from wbansim.protocols import (HOLD, TO_EXTERNAL_WSN, TO_SINK, TO_SINK_BOOSTED,
                               MattemptParams, MattemptState, RouteAction, RoutingDecision,
                               amhrp_select_forwarder, mattempt_build_hopcounts,
                               mattempt_next_hop, mattempt_temperature_step,
                               simple_select_forwarder, to_forwarder)

def to_sink(*nodes):
    """The ``d_sink`` map a run passes: node id -> distance to the sink."""
    return {n.id: distance(n.position, SINK_POSITION) for n in nodes}


def in_range_tables(nodes, tx_range):
    """The static tables a run passes to ``mattempt_build_hopcounts``, from
    the positions: each node's in-range ids, and the ids in range of the sink."""
    adjacency = {n.id: [m.id for m in nodes
                        if m.id != n.id and distance(n.position, m.position) <= tx_range]
                 for n in nodes}
    return adjacency, [n.id for n in nodes if distance(n.position, SINK_POSITION) <= tx_range]


def usable_flags(nodes, params=MattemptParams()):
    """The usable flags a run passes to ``mattempt_build_hopcounts``, indexed
    by node id: alive and at or below ``params.temp_threshold``. An id no
    node in ``nodes`` has is unusable."""
    flags = [False] * (1 + max((n.id for n in nodes), default=-1))
    for n in nodes:
        flags[n.id] = n.alive and n.temperature <= params.temp_threshold
    return flags


def node(nid, x, y, energy=0.5, kind=SensorKind.TOXIN, tx_range=0.5, alive=True, temp=37.0):
    return SensorNode(id=nid, kind=kind, position=BodyPoint(x, y),
                      residual_energy=energy, temperature=temp,
                      tx_range=tx_range, alive=alive)


class TestAmhrpSelectForwarder:
    def test_sink_within_range_sends_direct(self):
        n = node(0, 0.4, 0.6)  # 0.3 m from sink, range 0.5
        d = amhrp_select_forwarder(n, [], to_sink(n))
        assert d.action is RouteAction.SEND_TO_SINK

    def test_max_residual_wins(self):
        src = node(0, 0.4, 1.7)  # 0.8 m from the sink
        a = node(1, 0.4, 1.35, energy=0.4)
        b = node(2, 0.4, 1.30, energy=0.3)
        d = amhrp_select_forwarder(src, [a, b], to_sink(src, a, b))
        assert d.action is RouteAction.SEND_TO_FORWARDER
        assert d.target == 1

    def test_tie_broken_by_distance_to_sink(self):
        src = node(0, 0.4, 1.7)
        a = node(1, 0.4, 1.10, energy=0.4)  # 0.2 m from sink
        b = node(2, 0.4, 1.20, energy=0.4)  # 0.3 m from sink
        d = amhrp_select_forwarder(src, [a, b], to_sink(src, a, b))
        assert d.target == 1

    def test_full_tie_broken_by_lowest_id(self):
        src = node(0, 0.4, 1.7)
        a = node(2, 0.3, 1.2, energy=0.4)
        b = node(1, 0.5, 1.2, energy=0.4)  # mirrored: same distance to sink
        d = amhrp_select_forwarder(src, [a, b], to_sink(src, a, b))
        assert d.target == 1

    def test_no_candidates_normal_holds(self):
        src = node(0, 0.4, 1.7)
        d = amhrp_select_forwarder(src, [], to_sink(src), PacketKind.NORMAL)
        assert d.action is RouteAction.HOLD

    def test_no_candidates_critical_escalates(self):
        src = node(0, 0.4, 1.7)
        d = amhrp_select_forwarder(src, [], to_sink(src), PacketKind.CRITICAL)
        assert d.action is RouteAction.SEND_TO_EXTERNAL_WSN

    def test_never_selects_dead_farther_or_self(self):
        g = np.random.Generator(np.random.PCG64(2))
        for _ in range(300):
            coords = g.random((8, 2)) * [0.8, 1.8]
            nodes = [node(i, x, y, energy=float(g.random()))
                     for i, (x, y) in enumerate(coords)]
            for n in nodes:
                n.alive = bool(g.random() > 0.3)
            src = nodes[0]
            src.alive = True
            neighbors = [m for m in nodes[1:]
                         if distance(src.position, m.position) <= src.tx_range]
            d = amhrp_select_forwarder(src, neighbors, to_sink(src, *neighbors))
            if d.action is RouteAction.SEND_TO_FORWARDER:
                chosen = next(m for m in neighbors if m.id == d.target)
                assert chosen.alive
                assert chosen.id != src.id
                assert distance(chosen.position, SINK_POSITION) < \
                    distance(src.position, SINK_POSITION)

    def test_argmax_invariant_under_uniform_scaling(self):
        g = np.random.Generator(np.random.PCG64(3))
        for _ in range(300):
            coords = g.random((6, 2)) * [0.8, 1.8]
            energies = g.random(6) + 0.01
            src = node(0, float(coords[0, 0]), float(coords[0, 1]))
            neighbors = [node(i + 1, float(x), float(y), energy=float(e))
                         for i, ((x, y), e) in enumerate(zip(coords[1:], energies[1:]))]
            before = amhrp_select_forwarder(src, neighbors, to_sink(src, *neighbors))
            scale = float(g.random()) * 10 + 0.1
            for m in neighbors:
                m.residual_energy *= scale
            after = amhrp_select_forwarder(src, neighbors, to_sink(src, *neighbors))
            assert before.action == after.action
            assert before.target == after.target


def amhrp_by_tuple_key(node, neighbors, d_sink, packet_kind):
    """AMHRP's rule as the key it ranks by: among the alive neighbours
    strictly closer to the sink, the least (-residual, distance, id)."""
    own = d_sink[node.id]
    if own <= node.tx_range:
        return TO_SINK
    keys = [(-nb.residual_energy, d_sink[nb.id], nb.id) for nb in neighbors
            if nb.alive and nb.id != node.id and d_sink[nb.id] < own]
    if keys:
        return to_forwarder(min(keys)[2])
    return TO_EXTERNAL_WSN if packet_kind is PacketKind.CRITICAL else HOLD


# Few distinct values, so residuals and distances tie often; -0.0 ties 0.0.
_RESIDUALS = st.sampled_from([-0.0, 0.0, 0.1, 0.25, 0.4]) | st.floats(0.0, 0.5)
_DISTANCES = st.sampled_from([0.2, 0.3, 0.45, 0.8, 1.0])


class TestAmhrpTieBreakProperty:
    @settings(max_examples=400, deadline=None)
    # A weaker neighbour nearer the sink, listed after the best one.
    @example([(0.4, 0.45, True), (0.1, 0.2, True)], 0.8, False, PacketKind.NORMAL,
             random.Random(0))
    # Equal residuals: the later neighbour wins on (d, id).
    @example([(0.25, 0.45, True), (0.25, 0.2, True), (0.25, 0.3, True)], 0.8, False,
             PacketKind.NORMAL, random.Random(0))
    # A -0.0 residual ties 0.0, either way round.
    @example([(0.0, 0.45, True), (-0.0, 0.2, True)], 0.8, False, PacketKind.NORMAL,
             random.Random(0))
    @example([(-0.0, 0.45, True), (0.0, 0.2, True)], 0.8, False, PacketKind.CRITICAL,
             random.Random(0))
    @given(st.lists(st.tuples(_RESIDUALS, _DISTANCES, st.booleans()), max_size=8),
           st.sampled_from([0.3, 0.8]), st.booleans(), st.sampled_from(list(PacketKind)),
           st.randoms(use_true_random=False))
    def test_same_verdict_as_the_tuple_key(self, drawn, own, holder_listed, kind, rng):
        """Tied residuals, tied distances, dead neighbours, neighbours not
        closer than the holder (distance 0.8 or 1.0 against 0.8) and the
        holder itself, in any order and under any ids: the rule picks what
        the tuple key picks."""
        ids = rng.sample(range(1, 40), len(drawn))
        holder = node(0, 0.4, 1.7)
        neighbors = [node(i, 0.4, 1.0, energy=r, alive=alive)
                     for i, (r, _, alive) in zip(ids, drawn)]
        d_sink = {0: own} | {i: d for i, (_, d, _) in zip(ids, drawn)}
        if holder_listed:
            neighbors.insert(rng.randrange(len(neighbors) + 1), holder)
        assert amhrp_select_forwarder(holder, neighbors, d_sink, kind) == \
            amhrp_by_tuple_key(holder, neighbors, d_sink, kind)


class TestEquilibrium:
    def test_zero_coefficients_give_a0(self):
        assert equilibrium_series(0.5, ((1, 0.0, 0.0),), 3.0, 10) == 0.5

    def test_sine_term_at_half_period(self):
        assert equilibrium_series(0.5, ((1, 1.0, 0.0),), 5.0, 10) == pytest.approx(1.5, abs=1e-12)

    def test_x_zero_is_a0_plus_sum_b(self):
        terms = ((1, 0.4, 0.3), (2, 0.1, 0.2), (3, 0.7, 0.1))
        assert equilibrium_series(0.2, terms, 0.0, 100) == pytest.approx(0.2 + 0.6, abs=1e-12)

    @pytest.mark.parametrize("alpha,expected", [(0.4, True), (0.5, False), (0.6, False)])
    def test_threshold_is_strict(self, alpha, expected):
        base = SimConfig()
        c = replace(base, rounds=10, initial_energy=0.5,
                    amhrp=replace(base.amhrp, alpha_star=alpha))
        # No window has closed by round 2, so the series is a0 = 0.5.
        assert equilibrium_flags(np.zeros((3, 5), dtype=np.int64), c).tolist()[2] is expected


class TestMattemptHopCounts:
    def test_adjacent_to_sink_is_one_hop(self):
        nodes = [node(0, 0.4, 0.6)]
        st = mattempt_build_hopcounts(usable_flags(nodes), *in_range_tables(nodes, 0.5))
        assert st.hop_counts[0] == 1

    def test_chain_gives_two_hops(self):
        # B adjacent to the sink, A adjacent only to B
        b = node(1, 0.4, 1.3)   # 0.4 m from sink
        a = node(0, 0.4, 1.7)   # 0.8 m from sink, 0.4 m from B
        st = mattempt_build_hopcounts(usable_flags([a, b]),
                                      *in_range_tables([a, b], 0.5))
        assert st.hop_counts[1] == 1
        assert st.hop_counts[0] == 2

    def test_overheated_relay_breaks_the_path(self):
        b = node(1, 0.4, 1.3, temp=39.5)
        a = node(0, 0.4, 1.7)
        st = mattempt_build_hopcounts(usable_flags([a, b], MattemptParams(temp_threshold=38.5)),
                                      *in_range_tables([a, b], 0.5))
        assert st.hop_counts[1] == math.inf
        assert st.hop_counts[0] == math.inf

    def test_dead_nodes_excluded(self):
        b = node(1, 0.4, 1.3, alive=False)
        a = node(0, 0.4, 1.7)
        st = mattempt_build_hopcounts(usable_flags([a, b]),
                                      *in_range_tables([a, b], 0.5))
        assert st.hop_counts[0] == math.inf


class TestMattemptNextHop:
    def setup_method(self):
        self.b = node(1, 0.4, 1.3)
        self.a = node(0, 0.4, 1.7)
        self.state = mattempt_build_hopcounts(usable_flags([self.a, self.b]),
                                              *in_range_tables([self.a, self.b], 0.5))
        self.d_sink = to_sink(self.a, self.b)

    def test_critical_goes_direct_boosted(self):
        d = mattempt_next_hop(self.a, PacketKind.CRITICAL, self.state, [self.b], self.d_sink)
        assert d.action is RouteAction.SEND_TO_SINK
        assert d.boosted

    def test_normal_descends_hop_gradient(self):
        d = mattempt_next_hop(self.a, PacketKind.NORMAL, self.state, [self.b], self.d_sink)
        assert d.action is RouteAction.SEND_TO_FORWARDER
        assert d.target == 1

    def test_one_hop_node_sends_direct(self):
        d = mattempt_next_hop(self.b, PacketKind.NORMAL, self.state, [self.a], self.d_sink)
        assert d.action is RouteAction.SEND_TO_SINK
        assert not d.boosted

    def test_hop_tie_broken_by_distance(self):
        # both candidates sit one hop from the sink; c is nearer (0.40 m
        # versus 0.46 m by hand), so the tie goes to c
        c = node(2, 0.4, 0.5)
        d_ = node(3, 0.1, 1.25)
        far = node(4, 0.4, 1.75)
        st = mattempt_build_hopcounts(usable_flags([c, d_, far]),
                                      *in_range_tables([c, d_, far], 0.6))
        assert st.hop_counts[2] == 1 and st.hop_counts[3] == 1
        assert st.hop_counts[4] == 2
        choice = mattempt_next_hop(far, PacketKind.NORMAL, st, [c, d_], to_sink(far, c, d_))
        assert choice.action is RouteAction.SEND_TO_FORWARDER
        assert choice.target == 2

    def test_unreachable_holds(self):
        lone = node(5, 0.4, 1.8)
        st = mattempt_build_hopcounts(usable_flags([lone]),
                                      *in_range_tables([lone], 0.3))
        d = mattempt_next_hop(lone, PacketKind.NORMAL, st, [], to_sink(lone))
        assert d.action is RouteAction.HOLD


def mattempt_by_tuple_key(node, packet_kind, state, neighbors, d_sink):
    """M-ATTEMPT's rule as the key it ranks by: critical traffic goes to the
    sink boosted; otherwise, among the alive neighbours with fewer hops than
    the holder, the least (hops, distance, id)."""
    if packet_kind is PacketKind.CRITICAL:
        return TO_SINK_BOOSTED
    own = state.hop_counts.get(node.id, math.inf)
    if own == 1:
        return TO_SINK
    keys = [(h, d_sink[nb.id], nb.id) for nb in neighbors
            if nb.alive and nb.id != node.id
            for h in [state.hop_counts.get(nb.id, math.inf)] if h < own]
    return to_forwarder(min(keys)[2]) if keys else HOLD


# Few distinct values, so hop counts and distances tie often; a neighbour
# drawn with None has no hop count at all (read as unreachable).
_HOPS = st.sampled_from([1, 2, 3, math.inf, None])


class TestMattemptTieBreakProperty:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(_HOPS, _DISTANCES, st.booleans()), max_size=8),
           st.sampled_from([1, 2, 3, math.inf]), st.booleans(),
           st.sampled_from(list(PacketKind)), st.randoms(use_true_random=False))
    def test_same_verdict_as_the_tuple_key(self, drawn, own, holder_listed, kind, rng):
        """Tied hop counts, tied distances, dead neighbours, neighbours no
        nearer in hops than the holder, unreachable ones and the holder
        itself, in any order and under any ids: the rule picks what the
        tuple key picks."""
        ids = rng.sample(range(1, 40), len(drawn))
        holder = node(0, 0.4, 1.7)
        neighbors = [node(i, 0.4, 1.0, alive=alive) for i, (_, _, alive) in zip(ids, drawn)]
        hops = {0: own} | {i: h for i, (h, _, _) in zip(ids, drawn) if h is not None}
        d_sink = {0: 1.0} | {i: d for i, (_, d, _) in zip(ids, drawn)}
        if holder_listed:
            neighbors.insert(rng.randrange(len(neighbors) + 1), holder)
        state = MattemptState(hop_counts=hops)
        assert mattempt_next_hop(holder, kind, state, neighbors, d_sink) == \
            mattempt_by_tuple_key(holder, kind, state, neighbors, d_sink)


def temperature_step_oracle(params, temperature, tx_count, rx_count):
    """M-ATTEMPT's thermal step for one node, as a scalar: exponential
    relaxation toward ambient plus per-transmission and per-reception
    heating."""
    if tx_count < 0 or rx_count < 0:
        raise ValueError("activity counts must be >= 0")
    relaxed = params.ambient + (temperature - params.ambient) * (1.0 - params.cooling)
    return relaxed + tx_count * params.delta_tx + rx_count * params.delta_rx


def step_one(params, temperature, tx_count, rx_count):
    """The per-round rule on a one-node list: that node's new temperature."""
    nd = node(0, 0.4, 1.0, temp=temperature)
    mattempt_temperature_step(params, [nd], [tx_count], [rx_count])
    return nd.temperature


class TestMattemptTemperature:
    def setup_method(self):
        self.p = MattemptParams()

    def test_fixed_point_at_ambient(self):
        assert step_one(self.p, 37.0, 0, 0) == pytest.approx(37.0)

    def test_cooling_decreases_toward_ambient(self):
        t = step_one(self.p, 39.0, 0, 0)
        assert 37.0 < t < 39.0

    def test_one_transmission_from_ambient(self):
        t = step_one(self.p, 37.0, 1, 0)
        assert t == pytest.approx(37.0 + self.p.delta_tx, abs=1e-12)

    def test_converges_to_ambient(self):
        t = 42.0
        for _ in range(1000):
            t = step_one(self.p, t, 0, 0)
        assert t == pytest.approx(37.0, abs=1e-9)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            step_one(self.p, 37.0, -1, 0)

    @pytest.mark.parametrize("bad", ["tx", "rx"])
    def test_negative_count_rejected_before_any_node_changes(self, bad):
        """The bad count is the last node's, so a check made node by node,
        after the earlier nodes' updates, would leave them changed."""
        nodes = [node(i, 0.4, 1.0, temp=39.0 + i) for i in range(4)]
        counts = {"tx": [1, 0, 2, 0], "rx": [0, 3, 0, 0]}
        counts[bad][-1] = -1
        with pytest.raises(ValueError):
            mattempt_temperature_step(self.p, nodes, counts["tx"], counts["rx"])
        assert [nd.temperature for nd in nodes] == [39.0, 40.0, 41.0, 42.0]


# Temperatures below, at and above the default threshold (38.5): a step from
# 38.5 with no heat cools below it, and small heat can lift one across.
_TEMPERATURES = st.sampled_from([37.0, 38.4, 38.5, 38.6, 40.0]) | st.floats(36.0, 41.0)
_HEAT = st.sampled_from([0, 0, 1, 5]) | st.integers(0, 40)


class TestMattemptTemperatureProperty:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(_TEMPERATURES, _HEAT, _HEAT, st.booleans()), max_size=10),
           st.sampled_from([37.2, 38.5, 39.0]))
    # Every count zero, at the threshold and at ambient: no node crosses.
    @example([(38.5, 0, 0, True), (37.0, 0, 0, True)], 38.5)
    @example([(37.2, 0, 0, True), (37.0, 0, 0, True)], 37.2)
    # One active node among idle ones below and above the threshold: it
    # crosses upward from below; an idle one crosses downward past an active
    # one that stays above.
    @example([(38.0, 0, 0, True), (38.4, 4, 3, True), (39.0, 0, 0, True),
              (38.6, 0, 0, True)], 38.5)
    @example([(38.0, 0, 0, True), (38.6, 0, 0, True), (38.7, 0, 2, True),
              (38.55, 0, 0, True)], 38.5)
    def test_matches_the_scalar_oracle(self, drawn, threshold):
        """Alive and dead nodes, zero and nonzero heat, temperatures on both
        sides of the threshold and exactly at it: each alive node takes the
        scalar step, a dead one keeps its temperature, and the rule reports
        a crossing exactly when an alive node changed side."""
        p = replace(MattemptParams(), temp_threshold=threshold)
        nodes = [node(i, 0.4, 1.0, temp=t, alive=alive)
                 for i, (t, _, _, alive) in enumerate(drawn)]
        tx = [h for _, h, _, _ in drawn]
        rx = [h for _, _, h, _ in drawn]
        crossed = mattempt_temperature_step(p, nodes, tx, rx)
        expected = False
        for nd, (t, h_tx, h_rx, alive) in zip(nodes, drawn):
            if not alive:
                assert nd.temperature == t
                continue
            new = temperature_step_oracle(p, t, h_tx, h_rx)
            assert nd.temperature == new
            expected |= (t <= threshold) != (new <= threshold)
        assert crossed is expected


class TestSimpleSelectForwarder:
    def test_cost_argmin_hand_derived(self):
        # costs: 0.5/0.5 = 1.0 and 0.4/0.2 = 2.0
        a = node(0, 0.4, 1.4, energy=0.5)   # 0.5 m from sink
        b = node(1, 0.4, 1.3, energy=0.2)   # 0.4 m from sink
        assert simple_select_forwarder([a, b], to_sink(a, b)) == 0

    def test_single_alive_node(self):
        a = node(3, 0.2, 0.4)
        assert simple_select_forwarder([a], to_sink(a)) == 3

    def test_scaling_invariance(self):
        g = np.random.Generator(np.random.PCG64(8))
        for _ in range(200):
            nodes = [node(i, float(x), float(y), energy=float(e) + 0.05)
                     for i, ((x, y), e) in enumerate(zip(g.random((5, 2)) * [0.8, 1.8],
                                                         g.random(5)))]
            before = simple_select_forwarder(nodes, to_sink(*nodes))
            for n in nodes:
                n.residual_energy *= 7.5
            assert simple_select_forwarder(nodes, to_sink(*nodes)) == before

    def test_ecg_node_never_elected(self):
        a = node(0, 0.4, 1.0, energy=0.5, kind=SensorKind.ECG)
        b = node(1, 0.4, 1.7, energy=0.01)
        assert simple_select_forwarder([a, b], to_sink(a, b)) == 1

    def test_empty_alive_set(self):
        a = node(0, 0.4, 1.0, alive=False)
        assert simple_select_forwarder([a], to_sink(a)) is None


def simple_by_tuple_key(nodes, d_sink):
    """SIMPLE's election as the key it ranks by: among the alive non-ECG
    nodes with residual energy left, the least (distance / residual, id)."""
    keys = [(d_sink[n.id] / n.residual_energy, n.id) for n in nodes
            if n.alive and n.kind is not SensorKind.ECG and n.residual_energy > 0]
    return min(keys)[1] if keys else None


class TestSimpleTieBreakProperty:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(_RESIDUALS, st.sampled_from([0.0, 0.1, 0.2, 0.4, 0.8]),
                              st.booleans(), st.booleans()), max_size=8),
           st.randoms(use_true_random=False))
    def test_same_forwarder_as_the_tuple_key(self, drawn, rng):
        """Tied ratios (0.1 / 0.1 against 0.2 / 0.2, and a node at the sink
        against another), dead nodes, ECG nodes and residual 0.0, under any
        ids and in any order: the election picks what the tuple key picks."""
        ids = rng.sample(range(40), len(drawn))
        nodes = [node(i, 0.4, 1.0, energy=r, alive=alive,
                      kind=SensorKind.ECG if ecg else SensorKind.TOXIN)
                 for i, (r, _, alive, ecg) in zip(ids, drawn)]
        d_sink = {i: d for i, (_, d, _, _) in zip(ids, drawn)}
        rng.shuffle(nodes)
        assert simple_select_forwarder(nodes, d_sink) == simple_by_tuple_key(nodes, d_sink)


class TestSharedVerdicts:
    def test_shared_verdicts_are_frozen_and_equal_fresh_ones(self):
        for verdict in (TO_SINK, TO_SINK_BOOSTED, TO_EXTERNAL_WSN, HOLD, to_forwarder(1)):
            for name, value in (("action", RouteAction.HOLD), ("target", 7), ("boosted", True)):
                with pytest.raises(FrozenInstanceError):
                    setattr(verdict, name, value)
        assert to_forwarder(1) is to_forwarder(1)

        sink = RoutingDecision(RouteAction.SEND_TO_SINK)
        boosted = RoutingDecision(RouteAction.SEND_TO_SINK, boosted=True)
        forward_1 = RoutingDecision(RouteAction.SEND_TO_FORWARDER, target=1)
        wsn = RoutingDecision(RouteAction.SEND_TO_EXTERNAL_WSN)
        hold = RoutingDecision(RouteAction.HOLD)

        near, src, relay = node(3, 0.4, 0.6), node(0, 0.4, 1.7), node(1, 0.4, 1.35)
        d_sink = to_sink(near, src, relay)
        assert amhrp_select_forwarder(near, [], d_sink) == sink
        assert amhrp_select_forwarder(src, [relay], d_sink) == forward_1
        assert amhrp_select_forwarder(src, [], d_sink, PacketKind.CRITICAL) == wsn
        assert amhrp_select_forwarder(src, [], d_sink, PacketKind.NORMAL) == hold

        state = mattempt_build_hopcounts(usable_flags([src, relay]),
                                         *in_range_tables([src, relay], 0.5))
        assert mattempt_next_hop(src, PacketKind.CRITICAL, state, [relay], d_sink) == boosted
        assert mattempt_next_hop(relay, PacketKind.NORMAL, state, [src], d_sink) == sink
        assert mattempt_next_hop(src, PacketKind.NORMAL, state, [relay], d_sink) == forward_1
        lone = mattempt_build_hopcounts(usable_flags([src]),
                                        *in_range_tables([src], 0.3))
        assert mattempt_next_hop(src, PacketKind.NORMAL, lone, [], d_sink) == hold

        sim = _SCHEMES["simple"](replace(SimConfig(), protocol="simple", rounds=1))
        sim.begin_round(0)
        fw = sim.forwarder
        holder = next(nd for nd in sim.nodes if nd.kind is not SensorKind.ECG and nd.id != fw)

        def decide(nd, kind):
            return sim.decide(nd, sim.neighbors[nd.id], sim.d_sink, kind)

        assert decide(holder, PacketKind.NORMAL) == \
            RoutingDecision(RouteAction.SEND_TO_FORWARDER, target=fw)
        assert decide(holder, PacketKind.CRITICAL) == sink
        assert decide(sim.nodes[fw], PacketKind.NORMAL) == sink
