from dataclasses import replace

import numpy as np
import pytest
from test_config import violations

from wbansim.config import SimConfig
from wbansim.core import BodyPoint, SensorKind, SensorNode
from wbansim.energy import ActionCounts, EnergyWeights, charge, round_cost


def make_weights(**over):
    base = dict(x_s=1e-5, x_d=5e-5, x_w=5e-3, x_f=5e-6, x_c=2e-5, x_t=0.0)
    base.update(over)
    return EnergyWeights(**base)


def make_node(residual=0.5, alive=True):
    return SensorNode(id=0, kind=SensorKind.ECG, position=BodyPoint(0.1, 0.1),
                      residual_energy=residual, alive=alive)


class TestRoundCost:
    def test_empty_window(self):
        assert round_cost(make_weights(), ActionCounts()) == 0.0

    def test_hand_derived(self):
        # 2*1e-4 + 1*1e-3 + 0*0.1 + 3*1e-5 + 1*5e-4 = 1.73e-3
        w = EnergyWeights(x_s=1e-4, x_d=1e-3, x_w=0.1, x_f=1e-5, x_c=5e-4, x_t=0.0)
        c = ActionCounts(2, 1, 0, 3, 1)
        assert round_cost(w, c) == pytest.approx(1.73e-3, abs=1e-15)

    def test_external_send_uses_derived_x_w(self):
        w = EnergyWeights(x_s=1e-4, x_d=1e-3, x_w=100.0 * 1e-3, x_f=1e-5, x_c=5e-4, x_t=0.0)
        assert round_cost(w, ActionCounts(0, 0, 1, 0, 0)) == pytest.approx(0.1, abs=1e-15)

    def test_additivity_sampled(self):
        g = np.random.Generator(np.random.PCG64(7))
        w = make_weights()
        for _ in range(200):
            v1, v2 = g.integers(0, 50, size=5), g.integers(0, 50, size=5)
            c1, c2 = ActionCounts(*map(int, v1)), ActionCounts(*map(int, v2))
            lhs = round_cost(w, ActionCounts(*map(int, v1 + v2)))
            rhs = round_cost(w, c1) + round_cost(w, c2)
            assert lhs == pytest.approx(rhs, rel=1e-12)


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
    def test_simple_subtraction(self):
        node = make_node(0.5)
        drained = charge(node, 0.2, make_weights())
        assert drained == 0.2
        assert node.residual_energy == pytest.approx(0.3, abs=1e-15)
        assert node.alive

    def test_exhaustion(self):
        node = make_node(0.1)
        drained = charge(node, 0.2, make_weights())
        assert node.residual_energy == 0.0
        assert not node.alive
        assert drained == pytest.approx(0.1)

    def test_zero_cost_identity(self):
        node = make_node(0.5)
        drained = charge(node, 0.0, make_weights())
        assert drained == 0.0
        assert node.alive
        assert node.residual_energy == 0.5

    def test_threshold_death(self):
        # Death triggers when the deduction cannot keep the node above x_t.
        node = make_node(0.5)
        drained = charge(node, 0.03, make_weights(x_t=0.48))
        assert not node.alive
        assert node.residual_energy == 0.0
        assert drained == pytest.approx(0.5)

    def test_charging_dead_node_is_engine_bug(self):
        node = make_node(0.5, alive=False)
        with pytest.raises(RuntimeError):
            charge(node, 0.1, make_weights())

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            charge(make_node(), -1e-9, make_weights())

    def test_residual_non_increasing_under_charges(self):
        g = np.random.Generator(np.random.PCG64(11))
        node = make_node(0.5)
        w = make_weights()
        prev = node.residual_energy
        while node.alive:
            charge(node, float(g.random()) * 0.05, w)
            assert node.residual_energy <= prev
            prev = node.residual_energy
