"""One full AMHRP run at the default experiment scale.

19 nodes, 0.5 J each, 10000 rounds. Prints the run summary (stability period,
network lifetime, throughput, residual energy) and writes the per-round
metrics CSV next to this script.
"""
import math
from pathlib import Path

from wbansim.config import SimConfig
from wbansim.engine import run_simulation
from wbansim.io import (ALIVE, PATH_LOSS, RECEIVED, ROUND, SENT, TOTAL_RESIDUAL,
                        write_metrics_csv)

cfg = SimConfig()  # defaults: 19 nodes, 10000 rounds, 0.5 J, AMHRP, seed 1
result = run_simulation(cfg)
s = result.summary

print(f"protocol={s.protocol} seed={s.seed}")
print(f"stability period (first death): round {s.stability_period}")
print(f"network lifetime  (last death): round {s.network_lifetime}"
      f"{' (nodes still alive at the end)' if s.network_lifetime == cfg.rounds else ''}")
print(f"throughput: {s.throughput_pct:.2f}% "
      f"({s.packets_received_total} of {s.packets_sent_total} packets)")
print(f"residual energy at round {cfg.rounds}: {s.residual_pct_at_end:.1f}% of initial")

checkpoints = [0, 2000, 4000, 6000, 8000, 9999]
print(f"\n{'round':>6} {'alive':>6} {'sent':>5} {'recv':>5} {'residual J':>11} {'loss dB':>8}")
for r in checkpoints:
    m = result.metrics[r]  # one row of the run's table, columns as in the CSV
    loss = "-" if math.isnan(m[PATH_LOSS]) else f"{m[PATH_LOSS]:.2f}"
    print(f"{m[ROUND]:>6.0f} {m[ALIVE]:>6.0f} {m[SENT]:>5.0f} "
          f"{m[RECEIVED]:>5.0f} {m[TOTAL_RESIDUAL]:>11.4f} {loss:>8}")

out = Path(__file__).parent / "single_run_metrics.csv"
write_metrics_csv(result.metrics, out)
print(f"\nwrote {out}")
