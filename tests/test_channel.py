import math
from dataclasses import replace

import numpy as np
import pytest
from test_config import violations

from wbansim.channel import (SPEED_OF_LIGHT, ChannelParams, LinkClass, path_loss,
                             reference_path_loss)
from wbansim.config import SimConfig
from wbansim.engine import PATH_LOSS, run_simulation


class TestReferencePathLoss:
    def test_default_params_hand_value(self):
        # 20*log10(4*pi*0.1*2.4e9 / 2.99792458e8): hand calculator gives 20.052 dB
        assert reference_path_loss(ChannelParams()) == pytest.approx(20.052, abs=1e-3)

    def test_unity_argument_gives_zero_db(self):
        f = 2.4e9
        d0 = SPEED_OF_LIGHT / (4 * math.pi * f)
        p = ChannelParams(frequency=f, d0=d0)
        assert reference_path_loss(p) == pytest.approx(0.0, abs=1e-12)

    def test_doubling_frequency_adds_six_db(self):
        lo = reference_path_loss(ChannelParams(frequency=2.4e9))
        hi = reference_path_loss(ChannelParams(frequency=4.8e9))
        assert hi - lo == pytest.approx(20 * math.log10(2), abs=1e-9)


class TestPathLoss:
    def test_reference_distance_recovers_pl0(self):
        p = ChannelParams()
        assert path_loss(p, p.d0, LinkClass.LOS) == pytest.approx(
            reference_path_loss(p), abs=1e-12)

    def test_decade_with_exponent_two(self):
        p = ChannelParams()
        expected = reference_path_loss(p) + 20.0
        assert path_loss(replace(p, exponent_los=2.0), 10 * p.d0,
                         LinkClass.LOS) == pytest.approx(expected, abs=1e-9)

    def test_doubling_with_nlos_74(self):
        # 10 * 7.4 * log10(2) = 22.276 dB above the reference loss
        p = ChannelParams(exponent_nlos=7.4)
        got = path_loss(p, 2 * p.d0, LinkClass.NLOS) - reference_path_loss(p)
        assert got == pytest.approx(22.276, abs=1e-3)

    def test_monotone_in_distance(self):
        p = ChannelParams()
        grid = np.linspace(p.d0, 2.0, 1000)
        vals = [path_loss(p, float(d), LinkClass.LOS) for d in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_shadow_shift_is_affine(self):
        """The engine adds each send's shadowing draw to ``path_loss``: in a
        one-node run, every round's shadowed loss is the unshadowed one plus
        the next draw of the run's shadowing stream."""
        c = replace(SimConfig(), node_count=1, protocol="simple", rounds=3000, tx_range=3.0)
        base = run_simulation(c).metrics[:, PATH_LOSS]
        shadowed = run_simulation(
            replace(c, channel=replace(c.channel, sigma_db=4.0))).metrics[:, PATH_LOSS]
        sent = ~np.isnan(base)
        assert np.array_equal(sent, ~np.isnan(shadowed)) and sent.sum() > 100
        shadow_ss = np.random.SeedSequence(c.seed).spawn(3)[2]
        draws = np.random.Generator(np.random.PCG64(shadow_ss)).normal(0.0, 4.0, sent.sum())
        assert shadowed[sent] - base[sent] == pytest.approx(draws, abs=1e-12)

    def test_shadow_mean_matches_deterministic_value(self):
        p = ChannelParams(sigma_db=4.0)
        g = np.random.Generator(np.random.PCG64(5))
        base = path_loss(p, 0.5, LinkClass.LOS)
        samples = base + g.normal(0.0, p.sigma_db, size=10**5)
        assert abs(samples.mean() - base) < 0.05

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            path_loss(ChannelParams(), 0.0)
        with pytest.raises(ValueError):
            path_loss(ChannelParams(), -0.2)


def channel_violations(**over) -> list[str]:
    return violations(replace(SimConfig(), channel=ChannelParams(**over)))


class TestValidation:
    def test_default_params_valid(self):
        assert channel_violations() == []

    def test_exponent_ranges(self):
        assert any("exponent_los" in p for p in channel_violations(exponent_los=5.0))
        assert any("exponent_nlos" in p for p in channel_violations(exponent_nlos=4.0))

    def test_negative_sigma(self):
        assert any("sigma_db" in p for p in channel_violations(sigma_db=-1.0))
