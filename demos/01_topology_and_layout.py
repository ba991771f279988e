"""Body-plane topology construction.

Builds the two placement modes side by side: uniform random scatter over the
0.8 x 1.8 m plane, and the fixed on-body layout (head, trunk, limbs). Shows
that random placement is a pure function of the seed and that every node
lands inside the plane.
"""
import numpy as np

from wbansim.config import SimConfig
from wbansim.core import SINK_POSITION, build_topology, distance, format_layout
from dataclasses import replace


def rng(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


print("Canonical on-body layout (id,kind,x,y):")
print(format_layout())

cfg = SimConfig(seed=42)
nodes = build_topology(cfg, rng(42))
again = build_topology(cfg, rng(42))
assert all(a.position == b.position for a, b in zip(nodes, again)), \
    "same seed must reproduce the same topology"

print(f"Uniform placement, seed 42: {len(nodes)} nodes, sink at "
      f"({SINK_POSITION.x}, {SINK_POSITION.y})")
for n in nodes[:5]:
    d = distance(n.position, SINK_POSITION)
    print(f"  node {n.id:2d} {n.kind.value:15s} ({n.position.x:.3f}, {n.position.y:.3f})"
          f"  {d:.3f} m from sink")
print("  ...")

in_range = sum(1 for n in nodes if distance(n.position, SINK_POSITION) <= n.tx_range)
print(f"{in_range} of {len(nodes)} nodes can reach the sink directly "
      f"(tx range {cfg.tx_range} m); the rest need a forwarder.")

canon = build_topology(replace(cfg, placement="canonical"), rng(0))
farthest = max(canon, key=lambda n: distance(n.position, SINK_POSITION))
print(f"Canonical mode: farthest sensor is {farthest.kind.value} at "
      f"{distance(farthest.position, SINK_POSITION):.3f} m from the sink.")
