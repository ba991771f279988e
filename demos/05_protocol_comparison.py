"""Protocol benchmark: AMHRP against M-ATTEMPT and SIMPLE.

Runs a reduced sweep (3 seeds to keep the demo quick), prints the median
comparison table, emits the four plot series files, and renders the figure
panels (alive nodes, cumulative throughput, residual energy, path loss) to
a PNG when matplotlib is importable.
"""
from dataclasses import replace
from pathlib import Path

from wbansim.config import SimConfig
from wbansim.engine import run_simulation
from wbansim.io import (ALIVE, PATH_LOSS, RECEIVED, TOTAL_RESIDUAL, compare_runs,
                        emit_plot_series, render_comparison)

HERE = Path(__file__).parent
PROTOCOLS = ("amhrp", "mattempt", "simple")
SEEDS = (1, 2, 3)

summaries = []
first_seed_metrics = {}
for protocol in PROTOCOLS:
    for seed in SEEDS:
        cfg = replace(SimConfig(), protocol=protocol, seed=seed)
        result = run_simulation(cfg)
        summaries.append(result.summary)
        if seed == SEEDS[0]:
            first_seed_metrics[protocol] = result.metrics
        print(f"  {protocol:9s} seed {seed}: stability={result.summary.stability_period:5d} "
              f"lifetime={result.summary.network_lifetime:5d} "
              f"residual={result.summary.residual_pct_at_end:5.1f}%")

print()
print(render_comparison(compare_runs(summaries)))

out_dir = HERE / "comparison_series"
files = emit_plot_series(first_seed_metrics, out_dir)
print("plot series (seed 1):", ", ".join(f.name for f in files))

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping the PNG rendering")
else:
    fig, axes = plt.subplots(2, 2, figsize=(11, 7))
    panels = (
        ("alive nodes", lambda t: t[:, ALIVE]),
        ("cumulative packets at sink", lambda t: t[:, RECEIVED].cumsum()),
        ("total residual energy [J]", lambda t: t[:, TOTAL_RESIDUAL]),
        ("mean path loss [dB]", lambda t: t[:, PATH_LOSS]),
    )
    for ax, (title, column) in zip(axes.flat, panels):
        for protocol in PROTOCOLS:
            ys = column(first_seed_metrics[protocol])
            ax.plot(range(len(ys)), ys, label=protocol, linewidth=1.0)
        ax.set_title(title)
        ax.set_xlabel("round")
        ax.legend()
    fig.tight_layout()
    png = HERE / "comparison.png"
    fig.savefig(png, dpi=110)
    print(f"wrote {png}")
