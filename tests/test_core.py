from dataclasses import replace

import numpy as np
import pytest

from wbansim.config import SimConfig
from wbansim.core import (ALL_KINDS, CANONICAL_LAYOUT, PLANE_HEIGHT, PLANE_WIDTH,
                          SINK_POSITION, BodyPoint, PacketKind, SensorKind, build_topology,
                          distance, format_layout)


def rng(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


class TestDistance:
    def test_pythagorean_triple(self):
        assert distance(BodyPoint(0, 0), BodyPoint(3, 4)) == 5.0

    def test_identity(self):
        assert distance(BodyPoint(0.3, 0.9), BodyPoint(0.3, 0.9)) == 0.0

    def test_hand_derived(self):
        # sqrt(0.09 + 0.16) = 0.5
        assert distance(BodyPoint(0.1, 0.2), BodyPoint(0.4, 0.6)) == pytest.approx(0.5, abs=1e-12)

    def test_metric_axioms_on_sampled_triples(self):
        g = rng(123)
        pts = [BodyPoint(x, y) for x, y in g.random((60, 2)) * [PLANE_WIDTH, PLANE_HEIGHT]]
        for i in range(0, 60, 3):
            a, b, c = pts[i], pts[i + 1], pts[i + 2]
            assert distance(a, b) == pytest.approx(distance(b, a), abs=1e-15)
            assert distance(a, a) == 0.0
            assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-12


class TestKinds:
    def test_exactly_19_kinds(self):
        assert len(SensorKind) == 19
        assert len(ALL_KINDS) == 19
        assert len(set(ALL_KINDS)) == 19

    def test_layout_covers_every_kind_inside_the_plane(self):
        assert len(CANONICAL_LAYOUT) == 19
        for kind, x, y in CANONICAL_LAYOUT:
            assert 0.0 <= x <= PLANE_WIDTH and 0.0 <= y <= PLANE_HEIGHT

    def test_format_layout_lines(self):
        lines = format_layout().strip().split("\n")
        assert len(lines) == 19
        assert lines[0].startswith("0,ecg,")


class TestBuildTopology:
    def test_uniform_inside_the_plane_and_deterministic(self):
        cfg = SimConfig(seed=42)
        nodes1 = build_topology(cfg, rng(42))
        nodes2 = build_topology(cfg, rng(42))
        assert len(nodes1) == 19
        assert SINK_POSITION == BodyPoint(0.4, 0.9)
        for n in nodes1:
            assert 0.0 <= n.position.x <= PLANE_WIDTH and 0.0 <= n.position.y <= PLANE_HEIGHT
            assert n.residual_energy == cfg.initial_energy
            assert n.alive
        assert [n.id for n in nodes1] == list(range(19))
        assert [(n.position.x, n.position.y) for n in nodes1] == \
               [(n.position.x, n.position.y) for n in nodes2]

    def test_different_seeds_differ(self):
        cfg = SimConfig()
        a = build_topology(cfg, rng(42))
        b = build_topology(cfg, rng(43))
        assert any(x.position != y.position for x, y in zip(a, b))

    def test_canonical_single_node(self):
        cfg = replace(SimConfig(), placement="canonical", node_count=1)
        nodes = build_topology(cfg, rng(1))
        assert len(nodes) == 1
        kind, x, y = CANONICAL_LAYOUT[0]
        assert nodes[0].kind is kind
        assert nodes[0].position == BodyPoint(x, y)


class TestPacket:
    def test_critical_kind_is_distinct(self):
        assert PacketKind.CRITICAL is not PacketKind.NORMAL
