"""Poisson emergency events and the sensing schedule.

Each node sees Poisson(lambda) emergencies per round, and each emergency
sends one critical packet; the counts are drawn as the engine draws them,
one block of uniforms inverted through the Poisson CDF. Routine readings
follow the per-kind schedule (blood pressure every 3 hours, glucose three
times a day, ECG weekly) with one round equal to one hour: a kind is due in
every round that is a multiple of its period.
"""
import numpy as np

from wbansim.core import SensorKind
from wbansim.events import SensingSchedule, invert_poisson, poisson_cdf_table, poisson_pmf

lam = 0.1
print(f"event counts per round per node, lambda={lam}:")
for k in range(4):
    print(f"  P(k={k}) = {poisson_pmf(lam, k):.6f}")

g = np.random.Generator(np.random.PCG64(1))
draws = invert_poisson(poisson_cdf_table(lam), g.random(50000))
print(f"  empirical mean over 50k draws: {np.mean(draws):.4f}")

periods = SensingSchedule().resolve(rounds_per_day=24)
print("\nscheduled sensing periods (rounds, 1 round = 1 hour):")
for kind in (SensorKind.BLOOD_PRESSURE, SensorKind.GLUCOSE, SensorKind.INSULIN,
             SensorKind.ECG, SensorKind.EMG):
    due = [r for r in range(200) if r % periods[kind] == 0][:4]
    print(f"  {kind.value:15s} period {periods[kind]:4d}, due at rounds {due}")
