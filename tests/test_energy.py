from dataclasses import replace

import numpy as np
import pytest
from test_config import violations

from wbansim.config import EnergyWeights, SimConfig
from wbansim.engine import _SCHEMES


def make_weights(**over):
    base = dict(x_s=1e-5, x_d=5e-5, x_w=5e-3, x_f=5e-6, x_c=2e-5, x_t=0.0)
    base.update(over)
    return EnergyWeights(**base)


def sim_with_node(residual=0.5, alive=True, **weights):
    """A fresh default run under ``make_weights(**weights)``, and its node 0
    set to hold ``residual`` joules."""
    sim = _SCHEMES["amhrp"](replace(SimConfig(), energy=make_weights(**weights)))
    node = sim.nodes[0]
    node.residual_energy, node.alive = residual, alive
    return sim, node


def weight_violations(w: EnergyWeights, allow_unconstrained: bool = False) -> list[str]:
    return violations(replace(SimConfig(), energy=w,
                              allow_unconstrained_weights=allow_unconstrained))


class TestWeightValidation:
    def test_constraint_holds_for_defaults(self):
        assert weight_violations(make_weights()) == []

    def test_x_w_ratio_violation(self):
        w = make_weights(x_w=1e-3)
        assert any("x_w" in p for p in weight_violations(w))
        assert weight_violations(w, allow_unconstrained=True) == []

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
