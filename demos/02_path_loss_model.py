"""Log-distance path loss over on-body distances.

Sweeps the loss model from the 10 cm reference distance out to 2 m for the
two on-body link classes (LOS n=3.5, NLOS n=6) and shows the effect of
log-normal shadowing and of the carrier frequency on the reference loss.
"""
from dataclasses import replace

import numpy as np

from wbansim.channel import ChannelParams, LinkClass, path_loss, reference_path_loss

p = ChannelParams()
print(f"reference loss PL0 at d0={p.d0} m, f={p.frequency/1e9:.1f} GHz: "
      f"{reference_path_loss(p):.2f} dB")

print(f"\n{'d [m]':>6} {'LOS n=3.5':>10} {'NLOS n=6':>10}")
for d in (0.1, 0.2, 0.4, 0.6, 1.0, 1.5, 2.0):
    row = [path_loss(p, d, link) for link in (LinkClass.LOS, LinkClass.NLOS)]
    print(f"{d:>6.1f} {row[0]:>10.2f} {row[1]:>10.2f}")

# shadowing: the caller draws the Gaussian term, the model stays stateless
g = np.random.Generator(np.random.PCG64(7))
sigma = 4.0
clean = path_loss(p, 0.5, LinkClass.LOS)
shadowed = [clean + float(s) for s in g.normal(0.0, sigma, size=20000)]
print(f"\nshadowing sigma={sigma} dB at d=0.5 m: empirical mean "
      f"{np.mean(shadowed):.3f} dB vs deterministic {clean:.3f} dB")

# frequency dependence: the carrier enters only through the free-space
# reference loss PL0 = 20*log10(4*pi*d0*f/c), so doubling f adds 6.02 dB
for f in (2.4e9, 4.8e9):
    pl0 = reference_path_loss(replace(p, frequency=f))
    print(f"PL0 at {f/1e9:.1f} GHz: {pl0:.2f} dB "
          f"({pl0 - reference_path_loss(p):+.2f} dB vs {p.frequency/1e9:.1f} GHz)")
