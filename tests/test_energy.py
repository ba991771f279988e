import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_config import violations

from wbansim.config import EnergyWeights, SimConfig
from wbansim.engine import _SCHEMES


def make_weights(**over):
    base = dict(x_s=1e-5, x_d=5e-5, x_f=5e-6, x_c=2e-5, x_t=0.0)
    base.update(over)
    return EnergyWeights(**base)


def sim_with_node(residual=0.5, alive=True, **weights):
    """A fresh default run under ``make_weights(**weights)``, and its node 0
    set to hold ``residual`` joules."""
    sim = _SCHEMES["amhrp"](replace(SimConfig(), energy=make_weights(**weights)))
    node = sim.nodes[0]
    node.residual_energy, node.alive = residual, alive
    return sim, node


def weight_violations(w: EnergyWeights) -> list[str]:
    return violations(replace(SimConfig(), energy=w))


class TestWeightValidation:
    def test_constraint_holds_for_defaults(self):
        assert weight_violations(make_weights()) == []

    def test_ordering_violation(self):
        w = make_weights(x_f=3e-5)  # x_f > x_c
        assert any("x_f" in p for p in weight_violations(w))

    def test_negative_weight(self):
        w = make_weights(x_s=-1.0)
        assert any("x_s" in p for p in weight_violations(w))


class TestCharge:
    """The death rule, ``_Sim.charge``, with the run's bookkeeping."""

    def test_simple_subtraction(self):
        sim, node = sim_with_node(0.5)
        sim.charge(node, 0.2)
        assert sim.drained_total == 0.2
        assert node.residual_energy == pytest.approx(0.3, abs=1e-15)
        assert node.alive
        assert sim.alive_count == sim.n

    def test_exhaustion(self):
        sim, node = sim_with_node(0.1)
        sim.charge(node, 0.2)
        assert node.residual_energy == 0.0
        assert not node.alive
        assert sim.drained_total == 0.1
        assert sim.alive_count == sim.n - 1

    def test_zero_cost_identity(self):
        sim, node = sim_with_node(0.5)
        sim.charge(node, 0.0)
        assert sim.drained_total == 0.0
        assert node.alive
        assert node.residual_energy == 0.5
        assert sim.alive_count == sim.n

    def test_threshold_death(self):
        # Death triggers when the deduction cannot keep the node above x_t.
        sim, node = sim_with_node(0.5, x_t=0.48)
        sim.charge(node, 0.03)
        assert not node.alive
        assert node.residual_energy == 0.0
        assert sim.drained_total == 0.5
        assert sim.alive_count == sim.n - 1

    def test_charging_dead_node_is_engine_bug(self):
        sim, node = sim_with_node(0.5, alive=False)
        with pytest.raises(RuntimeError):
            sim.charge(node, 0.1)

    def test_negative_cost_rejected(self):
        sim, node = sim_with_node()
        with pytest.raises(ValueError):
            sim.charge(node, -1e-9)
        assert node.residual_energy == 0.5 and sim.drained_total == 0.0

    def test_residual_non_increasing_under_charges(self):
        g = np.random.Generator(np.random.PCG64(11))
        sim, node = sim_with_node(0.5)
        prev = node.residual_energy
        while node.alive:
            sim.charge(node, float(g.random()) * 0.05)
            assert node.residual_energy <= prev
            prev = node.residual_energy
        assert sim.drained_total == pytest.approx(0.5, abs=1e-12)
        assert sim.alive_count == sim.n - 1

    def test_every_alive_skips_dead_nodes(self):
        sim, node = sim_with_node(0.0, alive=False)
        sim.alive_count -= 1
        sim.charge(None, 0.01)
        assert node.residual_energy == 0.0 and not node.alive
        assert all(nd.alive and nd.residual_energy == 0.49 for nd in sim.nodes[1:])
        drained = 0.0
        for _ in sim.nodes[1:]:
            drained += 0.01
        assert sim.drained_total == drained
        assert sim.alive_count == sim.n - 1

    def test_every_alive_writes_off_at_threshold(self):
        # 0.5 - 0.03 = 0.47 is not above x_t: node 0 dies, writing off its
        # 0.5 J; the others hold 0.6 J and pay the 0.03 J.
        sim, node = sim_with_node(0.5, x_t=0.47)
        for nd in sim.nodes[1:]:
            nd.residual_energy = 0.6
        sim.charge(None, 0.03)
        assert node.residual_energy == 0.0 and not node.alive
        assert all(nd.alive and nd.residual_energy == 0.6 - 0.03 for nd in sim.nodes[1:])
        drained = 0.5
        for _ in sim.nodes[1:]:
            drained += 0.03
        assert sim.drained_total == drained
        assert sim.alive_count == sim.n - 1

    def test_every_alive_negative_cost_rejected_before_any_debit(self):
        sim, _ = sim_with_node(x_t=0.49)
        before = [(nd.residual_energy, nd.alive) for nd in sim.nodes]
        with pytest.raises(ValueError):
            sim.charge(None, -1e-9)
        assert [(nd.residual_energy, nd.alive) for nd in sim.nodes] == before
        assert sim.drained_total == 0.0 and sim.alive_count == sim.n

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.05, 0.45), st.floats(0.0, 0.02), st.floats(0.0, 5.0),
           st.lists(st.tuples(st.booleans(),
                              st.one_of(st.just(0.0), st.floats(-0.03, 0.03))),
                    min_size=19, max_size=19))
    def test_every_alive_is_the_per_node_loop(self, x_t, cost, drained, nodes):
        """One call over the alive nodes leaves every residual, alive flag,
        ``alive_count`` and the bits of ``drained_total`` as a loop of
        single-node charges over a copy of the same sim does; the residuals
        lie near ``x_t + cost``, so both sides of the threshold are hit."""
        sim, _ = sim_with_node(x_t=x_t)
        for nd, (alive, offset) in zip(sim.nodes, nodes):
            nd.alive = alive
            nd.residual_energy = x_t + cost + offset if alive else 0.0
        sim.alive_count = sum(alive for alive, _ in nodes)
        sim.drained_total = drained
        ref = copy.deepcopy(sim)
        sim.charge(None, cost)
        for nd in ref.nodes:
            if nd.alive:
                ref.charge(nd, cost)
        assert ([(nd.residual_energy, nd.alive) for nd in sim.nodes]
                == [(nd.residual_energy, nd.alive) for nd in ref.nodes])
        assert sim.alive_count == ref.alive_count
        assert repr(sim.drained_total) == repr(ref.drained_total)
